from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from genutil import (
    ancestors_oracle,
    check_consistency_oracle,
    random_ok_tree,
    random_ok_variant,
    scan_children,
    scan_closure,
)
from ontoterm.errors import (
    DslParseError,
    EncodingError,
    TypeMismatchError,
    UnknownConceptError,
)
from ontoterm.fixtures import data_path
from ontoterm.okmodel import (
    AttributeDef,
    Axis,
    Differentia,
    ObjectInstance,
    OkConcept,
    OkOntology,
    ValueType,
    check_consistency,
    classify_object,
    load_dsl,
    load_instances,
    parse_dsl,
    similarity,
    subsumes,
)

RAST = "relais à seuil de tension"


@pytest.fixture(scope="module")
def relay():
    return load_dsl(data_path("relais.dsl"))


# --- parsing ----------------------------------------------------------------


def test_parse_reference_ontology(relay):
    assert relay.roots() == ["relais"]
    assert len(relay.concepts) == 5
    assert relay.concepts[RAST].genus == "relais à seuil"
    assert relay.concepts[RAST].differentia == Differentia("grandeur_seuillée", "tension")
    assert set(relay.axes) == {"comportement", "technologie", "grandeur_seuillée"}


def issue_codes(exc_info):
    return {issue.code for issue in exc_info.value.issues}


def test_parse_strips_comments_but_keeps_a_hash_inside_quotes():
    text = (
        "# relay ontology\n"
        'ontology "relais #1"  # a name may hold a hash\n'
        "concept relais root # trailing comment\n"
        'term "relais #2" denotes relais  # and so may a term label\n'
        'term "relais" denotes relais\n'
    )
    ontology = parse_dsl(text)
    assert ontology.name == "relais #1"
    assert list(ontology.concepts) == ["relais"]
    assert dict(ontology.denotation) == {"relais #2": "relais", "relais": "relais"}


def test_parse_unknown_genus():
    text = 'ontology "t"\naxis a values x, y\nconcept r root\nconcept c genus ghost diff a=x\n'
    with pytest.raises(DslParseError) as exc:
        parse_dsl(text)
    assert issue_codes(exc) == {"E_UNKNOWN_GENUS"}


def test_parse_empty_file_means_no_root():
    with pytest.raises(DslParseError) as exc:
        parse_dsl("")
    assert issue_codes(exc) == {"E_SYNTAX"}


def test_parse_duplicate_concept():
    text = "concept r root\nconcept r root\n"
    with pytest.raises(DslParseError) as exc:
        parse_dsl(text)
    assert issue_codes(exc) == {"E_DUP_NAME"}


def test_parse_unknown_axis():
    text = "concept r root\nconcept c genus r diff ghost=x\n"
    with pytest.raises(DslParseError) as exc:
        parse_dsl(text)
    assert issue_codes(exc) == {"E_UNKNOWN_AXIS"}


def test_parse_bad_axis_value():
    text = "axis a values x, y\nconcept r root\nconcept c genus r diff a=z\n"
    with pytest.raises(DslParseError) as exc:
        parse_dsl(text)
    assert issue_codes(exc) == {"E_BAD_VALUE"}


def test_parse_multiple_genus_rejected():
    text = "axis a values x, y\nconcept r root\nconcept s genus r diff a=x\nconcept c genus r diff a=y genus s diff a=x\n"
    with pytest.raises(DslParseError) as exc:
        parse_dsl(text)
    assert "E_MULTIPLE_GENUS" in issue_codes(exc)


def test_parse_compound_keyword_unsupported():
    text = "concept r root\ncompound c of r and r\n"
    with pytest.raises(DslParseError) as exc:
        parse_dsl(text)
    assert issue_codes(exc) == {"E_UNSUPPORTED"}


def test_parse_collects_line_numbers():
    text = "concept r root\nnonsense here\n"
    with pytest.raises(DslParseError) as exc:
        parse_dsl(text)
    assert exc.value.issues[0].line == 2


def test_parse_term_with_unknown_target_is_a_consistency_matter():
    text = 'concept r root\nterm "x" denotes ghost\n'
    ontology = parse_dsl(text)
    assert ontology.denotation == {"x": "ghost"}
    assert {v.rule for v in check_consistency(ontology)} == {"R7"}


_NAMES = st.sampled_from(["r", "a", "b", "c", "relais à seuil", "ghost"])
_AXES = st.sampled_from(["kind", "size", "nope"])
_VALUES = st.sampled_from(["u", "v", "w", "zz"])
_PREDICATES = st.sampled_from(
    ["p = 3", 'p != "x # y"', "p >= 2.5 and q < 1", "p ≤ 4", "p ~ 2", "", "p = 1 and"]
)
_COMMENTS = st.sampled_from(["", " # trailing", '  # "quoted" comment', "#"])
_DSL_LINES = st.one_of(
    st.builds("concept {} root".format, _NAMES),
    st.builds("concept {} genus {} diff {}={}".format, _NAMES, _NAMES, _AXES, _VALUES),
    st.builds("concept {} genus {} diff {}={} genus {}".format, _NAMES, _NAMES, _AXES, _VALUES, _NAMES),
    st.builds("concept {} genus {} diff {}".format, _NAMES, _NAMES, _AXES),
    st.builds("axis {} values {}".format, _AXES, st.lists(_VALUES, max_size=4).map(", ".join)),
    st.builds(
        "attribute {} on {} type {}".format,
        st.sampled_from(["p", "q"]), _NAMES,
        st.sampled_from(["number", "string", "enum(u, v)", "enum()", "bool"]),
    ),
    st.builds("class {} over {} where {}".format, st.sampled_from(["K", "L"]), _NAMES, _PREDICATES),
    st.builds("set {} where {}".format, st.sampled_from(["S", "T"]), _PREDICATES),
    st.builds('term "{}" denotes {}'.format, st.sampled_from(["relais", "a # b", ""]), _NAMES),
    st.builds('ontology "{}"'.format, st.sampled_from(["o", "o # p", ""])),
    st.sampled_from(["", "   ", "# a comment", "compound c of r and r", "concept", "x y z"]),
    st.text(alphabet='ab #"=,\t', max_size=12),
)
_DEFECTS = st.sampled_from([
    None, "undeclared genus", "forward genus", "self genus", "second genus", "duplicate name",
    "unknown axis", "bad value", "compound",
])


@st.composite
def _tree_texts(draw) -> str:
    """A tree of concepts under one root over two declared axes, with
    comments and blank lines, and at most one defect planted on one line;
    these parse often enough to reach the ontology's constructor."""
    lines = ['ontology "o # p"  # the name keeps its hash', "axis kind values u, v, w", "",
             "axis size values u, v", "concept r root"]
    n = draw(st.integers(1, 10))
    defect, at = draw(_DEFECTS), draw(st.integers(0, n - 1))
    names = ["r"]
    for i in range(n):
        name, genus = f"c{i}", draw(st.sampled_from(names))
        axis, value = draw(st.sampled_from(
            [("kind", "u"), ("kind", "v"), ("kind", "w"), ("size", "u"), ("size", "v")]
        ))
        extra = ""
        if i == at:
            if defect == "undeclared genus":
                genus = "ghost"
            elif defect == "forward genus":
                genus = f"c{n - 1}"  # self on the last line
            elif defect == "self genus":
                genus = name
            elif defect == "second genus":
                extra = " genus r"
            elif defect == "duplicate name":
                name = names[-1]
            elif defect == "unknown axis":
                axis = "nope"
            elif defect == "bad value":
                value = "zz"
            elif defect == "compound":
                lines.append(f"compound {name}x of {genus} and r")
        lines.append(f"concept {name} genus {genus} diff {axis}={value}{extra}{draw(_COMMENTS)}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "# concept z genus ghost diff kind=u"])))
        names.append(name)
    return "\n".join(lines)


_DSL_TEXTS = st.one_of(
    _tree_texts(),
    st.lists(st.tuples(_DSL_LINES, _COMMENTS), max_size=12).map(
        lambda pairs: "\n".join(line + comment for line, comment in pairs)
    ),
)


@given(_DSL_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_dsl_returns_an_ontology_or_raises_a_parse_error(text):
    """Outside input never reaches the constructor's tree-shape ``ValueError``:
    the parser resolves every genus against earlier lines."""
    try:
        ontology = parse_dsl(text)
    except DslParseError as exc:
        assert exc.issues
        return
    assert isinstance(ontology, OkOntology)
    assert isinstance(check_consistency(ontology), list)


# --- construction -----------------------------------------------------------


BASE_DSL = (
    'ontology "t"\n'
    "axis comportement values tout-ou-rien, seuil\n"
    "axis grandeur_seuillée values tension, courant\n"
    "concept relais root\n"
    "concept relais à seuil genus relais diff comportement=seuil\n"
)


def test_dsl_concept_adds_child():
    ontology = parse_dsl(
        BASE_DSL + f"concept {RAST} genus relais à seuil diff grandeur_seuillée=tension\n"
    )
    assert ontology.concepts[RAST].genus == "relais à seuil"
    assert check_consistency(ontology) == []


def test_dsl_accepts_axis_reuse_checker_rejects_it():
    ontology = parse_dsl(
        BASE_DSL + "concept relais bizarre genus relais à seuil diff comportement=tout-ou-rien\n"
    )
    assert {v.rule for v in check_consistency(ontology)} == {"R4"}


# --- consistency rules -------------------------------------------------------


def test_reference_ontology_is_consistent(relay):
    assert check_consistency(relay) == []


def test_r1_multiple_roots():
    ontology = parse_dsl("concept a root\nconcept b root\n")
    assert {v.rule for v in check_consistency(ontology)} == {"R1"}


def test_r1_genus_cycle():
    """Genus links form a forest by construction: a cycle cannot be built."""
    concepts = {
        "r": OkConcept("r"),
        "p": OkConcept("p", "q", Differentia("a", "x")),
        "q": OkConcept("q", "p", Differentia("b", "u")),
    }
    with pytest.raises(ValueError, match=r"^genus cycle: p -> q -> p$"):
        OkOntology(axes={"a": Axis("a", ("x", "y")), "b": Axis("b", ("u", "v"))}, concepts=concepts)
    with pytest.raises(ValueError, match=r"^genus cycle: s -> s$"):
        OkOntology(concepts={"r": OkConcept("r"), "s": OkConcept("s", "s")})


def test_a_genus_naming_no_concept_cannot_be_built(relay):
    concepts = {
        "r": OkConcept("r"),
        "p": OkConcept("p", "zeta", Differentia("a", "x")),
        "q": OkConcept("q", "alpha", Differentia("a", "y")),
        "s": OkConcept("s", "s"),  # unknown genera are reported before cycles
    }
    with pytest.raises(ValueError, match=re.escape("genus names no concept: ['alpha', 'zeta']")):
        OkOntology(concepts=concepts)
    with pytest.raises(ValueError, match="genus names no concept"):
        replace(relay, concepts={**relay.concepts, "x": OkConcept("x", "ghost")})


def test_the_empty_ontology_is_built_and_has_no_root():
    assert [str(v) for v in check_consistency(OkOntology())] == ["R1: no root concept"]


def test_r2_missing_differentia():
    ontology = OkOntology(
        concepts={"r": OkConcept("r"), "c": OkConcept("c", "r", None)},
    )
    assert {v.rule for v in check_consistency(ontology)} == {"R2"}


def test_r3_siblings_sharing_axis_value():
    text = (
        "axis grandeur_seuillée values tension, courant\n"
        "axis comportement values tout-ou-rien, seuil\n"
        "concept relais root\n"
        "concept relais à seuil genus relais diff comportement=seuil\n"
        "concept a genus relais à seuil diff grandeur_seuillée=tension\n"
    )
    parsed = parse_dsl(text)
    b = OkConcept("b", "relais à seuil", Differentia("grandeur_seuillée", "tension"))
    ontology = replace(parsed, concepts={**parsed.concepts, "b": b})
    violations = check_consistency(ontology)
    assert {v.rule for v in violations} == {"R3"}
    assert "a" in violations[0].message and "b" in violations[0].message


def test_r4_axis_reused_on_path(relay):
    redundant = OkConcept("relais redondant", RAST, Differentia("grandeur_seuillée", "courant"))
    mutated = replace(relay, concepts={**relay.concepts, "relais redondant": redundant})
    assert {v.rule for v in check_consistency(mutated)} == {"R4"}


def test_r5_attribute_shadowing(relay):
    holder = relay.concepts["relais à seuil"]
    shadowing = replace(holder, attributes=(AttributeDef("seuil_volts", ValueType("number")),))
    mutated = replace(relay, concepts={**relay.concepts, holder.name: shadowing})
    assert {v.rule for v in check_consistency(mutated)} == {"R5"}


def test_r6_class_predicate_needs_visible_attribute():
    text = (
        "axis comportement values tout-ou-rien, seuil\n"
        "concept relais root\n"
        "concept relais à seuil genus relais diff comportement=seuil\n"
        "attribute seuil_volts on relais à seuil type number\n"
        "class K over relais where seuil_volts >= 1\n"
    )
    ontology = parse_dsl(text)  # seuil_volts is below the class base, not visible
    assert {v.rule for v in check_consistency(ontology)} == {"R6"}


def test_r7_denotation_target_missing(relay):
    mutated = replace(relay, denotation={"relais statique": "ghost"})
    assert {v.rule for v in check_consistency(mutated)} == {"R7"}


# --- subsumption and similarity ----------------------------------------------


def test_subsumes_examples(relay):
    assert subsumes(relay, "relais à seuil", RAST)
    assert subsumes(relay, RAST, RAST)
    assert not subsumes(relay, "relais tout ou rien", RAST)
    with pytest.raises(UnknownConceptError):
        subsumes(relay, "ghost", RAST)


def test_subsumes_matches_ancestor_oracle_on_random_trees():
    rng = random.Random(20240812)
    for _ in range(100):
        ontology = random_ok_tree(rng, max_nodes=100)
        names = sorted(ontology.concepts)
        ancestors = {name: ancestors_oracle(ontology, name) for name in names}
        for specific in names:
            for general in rng.sample(names, k=min(6, len(names))):
                assert subsumes(ontology, general, specific) == (general in ancestors[specific])
            assert ontology.subsumed_closure(specific) == {
                other for other in names if specific in ancestors[other]
            }


def test_similarity_relay_example(relay):
    result = similarity(relay, RAST, "relais tout ou rien")
    assert result.lca == "relais"
    assert result.shared == ()
    assert result.distinguishing == (
        (Differentia("comportement", "seuil"), Differentia("grandeur_seuillée", "tension")),
        (Differentia("comportement", "tout-ou-rien"),),
    )


def test_similarity_identity(relay):
    result = similarity(relay, RAST, RAST)
    assert result.lca == RAST
    assert result.distinguishing == ((), ())


def test_similarity_with_root(relay):
    result = similarity(relay, "relais", RAST)
    assert result.lca == "relais"
    assert result.shared == ()


def test_similarity_shares_common_prefix(relay):
    result = similarity(relay, RAST, "relais à seuil")
    assert result.lca == "relais à seuil"
    assert result.shared == (Differentia("comportement", "seuil"),)
    assert result.distinguishing == ((Differentia("grandeur_seuillée", "tension"),), ())


def test_similarity_path_reconstruction_all_reference_pairs(relay):
    names = sorted(relay.concepts)
    for c1 in names:
        for c2 in names:
            res = similarity(relay, c1, c2)
            assert res.shared + res.distinguishing[0] == tuple(relay.differentia_path(c1))
            assert res.shared + res.distinguishing[1] == tuple(relay.differentia_path(c2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_similarity_symmetry_and_path_reconstruction(seed):
    rng = random.Random(seed)
    ontology = random_ok_tree(rng, max_nodes=40)
    names = sorted(ontology.concepts)
    c1, c2 = rng.choice(names), rng.choice(names)
    res = similarity(ontology, c1, c2)
    mirrored = similarity(ontology, c2, c1)
    assert mirrored.lca == res.lca
    assert mirrored.shared == res.shared
    assert mirrored.distinguishing == (res.distinguishing[1], res.distinguishing[0])
    # shared + residual differentiae reconstruct each concept's full path
    assert res.shared + res.distinguishing[0] == tuple(ontology.differentia_path(c1))
    assert res.shared + res.distinguishing[1] == tuple(ontology.differentia_path(c2))


# --- classification -----------------------------------------------------------


def test_classify_matches_class(relay):
    instance = ObjectInstance("i1", RAST, {"seuil_volts": 500})
    result = classify_object(relay, instance)
    assert result.classes == ("SeuilHauteTension",)
    assert result.sets == ("Calibre500",)


def test_classify_sets_ignore_concept():
    text = (
        "axis comportement values tout-ou-rien, seuil\n"
        "concept relais root\n"
        "concept relais tout ou rien genus relais diff comportement=tout-ou-rien\n"
        "concept relais à seuil genus relais diff comportement=seuil\n"
        "attribute seuil_volts on relais à seuil type number\n"
        "attribute seuil_volts on relais tout ou rien type number\n"
        "class SeuilHauteTension over relais à seuil where seuil_volts >= 400\n"
        "set Calibre500 where seuil_volts = 500\n"
    )
    ontology = parse_dsl(text)
    assert check_consistency(ontology) == []
    unrelated = ObjectInstance("i2", "relais tout ou rien", {"seuil_volts": 500})
    result = classify_object(ontology, unrelated)
    assert result.sets == ("Calibre500",)
    assert result.classes == ()  # class base does not subsume the concept


def test_classify_empty_state_matches_nothing(relay):
    result = classify_object(relay, ObjectInstance("i3", RAST, {}))
    assert result.classes == ()
    assert result.sets == ()


def test_classify_grows_down_the_tree():
    text = (
        "axis comportement values tout-ou-rien, seuil\n"
        "axis grandeur_seuillée values tension, courant\n"
        "concept relais root\n"
        "concept relais à seuil genus relais diff comportement=seuil\n"
        "concept relais à seuil de tension genus relais à seuil diff grandeur_seuillée=tension\n"
        "attribute seuil_volts on relais type number\n"
        "class K over relais à seuil where seuil_volts >= 1\n"
    )
    ontology = parse_dsl(text)
    state = {"seuil_volts": 5}
    shallow = classify_object(ontology, ObjectInstance("a", "relais", state))
    deep = classify_object(ontology, ObjectInstance("b", RAST, state))
    assert set(shallow.classes) <= set(deep.classes)


def test_classify_type_errors(relay):
    with pytest.raises(TypeMismatchError):
        classify_object(relay, ObjectInstance("i4", RAST, {"seuil_volts": "cinq cents"}))
    with pytest.raises(TypeMismatchError):
        classify_object(relay, ObjectInstance("i5", RAST, {"ghost_attr": 1}))
    with pytest.raises(TypeMismatchError):
        # booleans are not numbers
        classify_object(relay, ObjectInstance("i6", RAST, {"seuil_volts": True}))


def test_concept_is_more_than_its_attributes():
    # same visible attributes, different differentia paths: still two concepts
    text = (
        "axis comportement values tout-ou-rien, seuil\n"
        "concept relais root\n"
        "concept relais tout ou rien genus relais diff comportement=tout-ou-rien\n"
        "concept relais à seuil genus relais diff comportement=seuil\n"
        "attribute calibre on relais type number\n"
    )
    ontology = parse_dsl(text)
    a, b = "relais tout ou rien", "relais à seuil"
    assert set(ontology.visible_attributes(a)) == set(ontology.visible_attributes(b))
    assert a != b
    assert not subsumes(ontology, a, b)
    assert not subsumes(ontology, b, a)


def test_enum_and_string_attributes():
    text = (
        "axis comportement values tout-ou-rien, seuil\n"
        "concept relais root\n"
        "concept relais à seuil genus relais diff comportement=seuil\n"
        "attribute milieu on relais type enum(air, huile)\n"
        "attribute repère on relais type string\n"
        'class RelaisHuile over relais where milieu = huile and repère != "x"\n'
    )
    ontology = parse_dsl(text)
    assert check_consistency(ontology) == []
    result = classify_object(
        ontology, ObjectInstance("i", "relais à seuil", {"milieu": "huile", "repère": "r12"})
    )
    assert result.classes == ("RelaisHuile",)
    with pytest.raises(TypeMismatchError):
        classify_object(ontology, ObjectInstance("j", "relais", {"milieu": "vide"}))
    with pytest.raises(TypeMismatchError):
        classify_object(ontology, ObjectInstance("k", "relais", {"repère": 7}))


def test_load_instances_schema(tmp_path):
    path = tmp_path / "instances.json"
    path.write_text(
        '[{"id": "i1", "concept": "relais à seuil de tension", "state": {"seuil_volts": 500}}]',
        encoding="utf-8",
    )
    instances = load_instances(path)
    assert instances[0].id == "i1"
    assert instances[0].state == {"seuil_volts": 500}


def test_load_instances_rejects_non_utf8(tmp_path):
    path = tmp_path / "instances.json"
    path.write_bytes('[{"id": "é"}]'.encode("latin-1"))
    with pytest.raises(EncodingError, match="instances.json"):
        load_instances(path)


# --- indexed children view and top-down checker against the scans -------------


def test_children_and_closure_match_the_scan_on_random_ontologies():
    rng = random.Random(20100216)
    seen = Counter()
    for _ in range(1000):
        concepts, broken, ontology = random_ok_variant(rng, max_nodes=30)
        seen.update(broken)
        names = list(concepts)
        sample = rng.sample(names, min(4, len(names)))  # drawn for every case, built or not
        if ontology is None:
            continue
        seen["roots"] += len(scan_children(ontology, None)) > 1
        for name in [None, "ghost"] + names:
            assert ontology.children(name) == scan_children(ontology, name)
        for name in ontology.roots() + sample:
            assert ontology.subsumed_closure(name) == scan_closure(ontology, name)
    assert all(seen[shape] >= 50 for shape in ("cycle", "roots", "unknown genus")), seen


def test_closure_sees_concepts_edited_in_place(relay):
    """An ontology cannot be edited in place; each ``replace``d variant is
    indexed afresh, and the original keeps its own view."""
    threshold = "relais à seuil"
    assert relay.subsumed_closure(threshold) == {threshold, RAST}
    current = "relais à seuil de courant"
    ontology = replace(relay, concepts={**relay.concepts, current: OkConcept(
        current, threshold, Differentia("grandeur_seuillée", "courant")
    )})
    assert ontology.subsumed_closure(threshold) == {threshold, RAST, current}
    assert ontology.children(threshold) == [RAST, current]
    moved = OkConcept(RAST, "relais", Differentia("grandeur_seuillée", "tension"))
    ontology = replace(ontology, concepts={**ontology.concepts, RAST: moved})
    assert ontology.subsumed_closure(threshold) == {threshold, current}
    assert ontology.children("relais")[-1] == RAST
    concepts = dict(ontology.concepts)
    del concepts[current]
    ontology = replace(ontology, concepts=concepts)
    assert ontology.subsumed_closure(threshold) == {threshold}
    assert relay.subsumed_closure(threshold) == {threshold, RAST}
    for name in relay.concepts:
        assert relay.subsumed_closure(name) == scan_closure(relay, name)
    for mapping in ("axes", "concepts", "class_defs", "set_defs", "denotation"):
        with pytest.raises(TypeError):
            getattr(relay, mapping)["x"] = None


def test_check_consistency_matches_the_chain_walk_on_random_ontologies():
    rng = random.Random(20100217)
    rules = Counter()
    for _ in range(1000):
        _, broken, ontology = random_ok_variant(rng)
        rules.update(broken)
        if ontology is None:
            continue
        expected = check_consistency_oracle(ontology)
        assert check_consistency(ontology) == expected
        rules.update({v.rule for v in expected})
    shapes = ("R1", "R2", "R3", "R4", "R5", "cycle", "unknown genus")
    assert all(rules[shape] >= 50 for shape in shapes), rules


def test_check_consistency_of_a_10k_deep_chain_with_reuse_and_shadowing():
    depth = 10_000
    axes = {}
    concepts = {"c0": OkConcept("c0", attributes=(AttributeDef("w", ValueType("number")),))}
    for i in range(1, depth):
        axis = "a" if i in (1, depth - 1) else f"a{i}"
        axes[axis] = Axis(axis, ("x", "y"))
        attributes = {5000: ("v",), depth - 1: ("w", "v")}.get(i, ())
        concepts[f"c{i}"] = OkConcept(
            f"c{i}", f"c{i - 1}", Differentia(axis, "x"),
            tuple(AttributeDef(a, ValueType("number")) for a in attributes),
        )
    ontology = OkOntology("deep", axes, concepts)
    assert [str(v) for v in check_consistency(ontology)] == [
        f"R4: axis 'a' used more than once on the path to 'c{depth - 1}' (c1, c{depth - 1})",
        f"R5: attribute 'v' on 'c{depth - 1}' shadows the one on 'c5000'",
        f"R5: attribute 'w' on 'c{depth - 1}' shadows the one on 'c0'",
    ]
