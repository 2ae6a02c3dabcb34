from __future__ import annotations

import operator
import random
import re
from collections import Counter
from dataclasses import fields, replace
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from genutil import (
    ancestors_oracle,
    check_consistency_oracle,
    parse_dsl_oracle,
    random_ok_tree,
    random_ok_variant,
    scan_children,
    scan_closure,
)
from ontoterm.errors import (
    ConfigError,
    DslIssue,
    DslParseError,
    EncodingError,
    TypeMismatchError,
    UnknownConceptError,
)
from ontoterm.fixtures import data_path
from ontoterm.okmodel import (
    AtomicComparison,
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


def parse_issues(text: str) -> list[tuple[int, str, str]]:
    with pytest.raises(DslParseError) as exc:
        parse_dsl(text)
    return [(issue.line, issue.code, issue.message) for issue in exc.value.issues]


def test_load_dsl_errors_name_the_file_and_keep_their_issues(tmp_path):
    dsl = tmp_path / "bad.dsl"
    dsl.write_text("concept relais root\nconcept r genus zz diff a=b\n", encoding="utf-8")
    with pytest.raises(DslParseError) as exc:
        load_dsl(dsl)
    assert str(exc.value) == f"{dsl}: line 2: E_UNKNOWN_GENUS: unknown genus: 'zz'"
    assert exc.value.issues == [DslIssue(2, "E_UNKNOWN_GENUS", "unknown genus: 'zz'")]


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
    assert parse_issues(text) == [(4, "E_UNKNOWN_GENUS", "unknown genus: 'ghost'")]


def test_parse_empty_file_means_no_root():
    assert parse_issues("") == [(1, "E_SYNTAX", "no root concept declared")]
    assert parse_issues("axis a values x, y\n\n") == [(2, "E_SYNTAX", "no root concept declared")]


def test_parse_duplicate_concept():
    text = "concept r root\nconcept r root\n"
    assert parse_issues(text) == [(2, "E_DUP_NAME", "concept already declared: 'r'")]


def test_parse_unknown_axis():
    text = "concept r root\nconcept c genus r diff ghost=x\n"
    assert parse_issues(text) == [(2, "E_UNKNOWN_AXIS", "unknown axis: 'ghost'")]


def test_parse_bad_axis_value():
    text = "axis a values x, y\nconcept r root\nconcept c genus r diff a=z\n"
    assert parse_issues(text) == [(3, "E_BAD_VALUE", "value 'z' is not on axis 'a'")]


def test_parse_multiple_genus_rejected():
    text = "axis a values x, y\nconcept r root\nconcept s genus r diff a=x\nconcept c genus r diff a=y genus s diff a=x\n"
    assert parse_issues(text) == [(4, "E_MULTIPLE_GENUS", "concept 'c' declares more than one genus")]


def test_parse_compound_keyword_unsupported():
    text = "concept r root\ncompound c of r and r\n"
    assert parse_issues(text) == [
        (2, "E_UNSUPPORTED", "compound concepts are reserved but not supported")
    ]


def test_parse_collects_line_numbers():
    text = "concept r root\nnonsense here\n"
    assert parse_issues(text) == [(2, "E_SYNTAX", "unknown directive 'nonsense'")]


#: One line for each way a DSL line is rejected, and the issues it raises, in order;
#: a rejected line also fails the checks that come after the one it fails.
_EVERY_ISSUE = [
    ("ontology t", [("E_SYNTAX", "expected 'ontology \"<name>\"'")]),
    ("axis a values x, y", []),
    ("axis a values u", [("E_DUP_NAME", "axis already declared: 'a'")]),
    ("axis b values x, x", [("E_SYNTAX", "axis 'b' needs two or more distinct values")]),
    ("axis c", [("E_SYNTAX", "expected 'axis <id> values <v1>, <v2>[, ...]'")]),
    ("concept r root  # the only root", []),
    ("concept r root", [("E_DUP_NAME", "concept already declared: 'r'")]),
    ("concept r", [("E_SYNTAX", "expected 'concept <Id> root' or "
                                "'concept <Id> genus <Parent> diff <axis>=<value>'")]),
    ("concept s genus r", [
        ("E_SYNTAX", "expected 'concept <Id> genus <Parent> diff <axis>=<value>'")
    ]),
    ("concept s genus r diff a genus r", [
        ("E_MULTIPLE_GENUS", "concept 's' declares more than one genus")
    ]),
    ("concept r genus ghost diff a", [("E_SYNTAX", "differentia must be '<axis>=<value>'")]),
    ("concept r genus ghost diff nope=z", [("E_DUP_NAME", "concept already declared: 'r'")]),
    ("concept s genus ghost diff a=x", [("E_UNKNOWN_GENUS", "unknown genus: 'ghost'")]),
    ("concept s genus r diff nope=z", [("E_UNKNOWN_AXIS", "unknown axis: 'nope'")]),
    ("concept s genus r diff a=z", [("E_BAD_VALUE", "value 'z' is not on axis 'a'")]),
    ("concept s genus r diff a=x", []),
    ("attribute p on s", [("E_SYNTAX", "expected 'attribute <id> on <Concept> type <type>'")]),
    ("attribute p on ghost type bool", [("E_SYNTAX", "unknown attribute type 'bool'")]),
    ("attribute p on ghost type number", [("E_UNKNOWN_CONCEPT", "unknown concept: 'ghost'")]),
    ("attribute p on s type enum(u, v)", []),
    ("attribute p on s type string", [("E_DUP_NAME", "attribute 'p' already on 's'")]),
    ("class K over s", [("E_SYNTAX", "expected 'class <Id> over <Concept> where <pred>'")]),
    ("class K over ghost where p = u", [("E_UNKNOWN_CONCEPT", "unknown concept: 'ghost'")]),
    ("class K over s where p ~ u and p = v", [("E_SYNTAX", "cannot parse comparison 'p ~ u'")]),
    ("class K over ghost where p = u", [("E_DUP_NAME", "class already declared: 'K'")]),
    ("set S", [("E_SYNTAX", "expected 'set <Id> where <pred>'")]),
    ("set S where and", [
        ("E_SYNTAX", "cannot parse comparison 'and'"), ("E_SYNTAX", "empty predicate")
    ]),
    ("set S where p = u", [("E_DUP_NAME", "set already declared: 'S'")]),
    ("term relais denotes r", [("E_SYNTAX", "expected 'term \"<label>\" denotes <Concept>'")]),
    ("compound c of r and s", [
        ("E_UNSUPPORTED", "compound concepts are reserved but not supported")
    ]),
    ("frobnicate r", [("E_SYNTAX", "unknown directive 'frobnicate'")]),
]


def test_parse_reports_every_issue_with_its_line_in_order():
    """A class or set with bad predicate clauses is still declared, so a
    later one of the same name is a duplicate."""
    text = "\n".join(line for line, _ in _EVERY_ISSUE)
    expected = [
        (lineno, code, message)
        for lineno, (_, issues) in enumerate(_EVERY_ISSUE, 1)
        for code, message in issues
    ]
    assert parse_issues(text) == expected
    codes = {code for _, code, _ in expected}
    assert codes == {
        "E_SYNTAX", "E_DUP_NAME", "E_UNKNOWN_GENUS", "E_UNKNOWN_AXIS", "E_BAD_VALUE",
        "E_MULTIPLE_GENUS", "E_UNKNOWN_CONCEPT", "E_UNSUPPORTED",
    }
    accepted = "\n".join(line for line, issues in _EVERY_ISSUE if not issues)
    assert list(parse_dsl(accepted).concepts["s"].attributes) == [
        AttributeDef("p", ValueType("enum", ("u", "v")))
    ]


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


def parse_outcome(parse, text: str) -> list:
    """The ``(line, code, message)`` of each issue ``parse`` raises on
    ``text``, or else every field of the ontology it builds, in order."""
    try:
        ontology = parse(text)
    except DslParseError as exc:
        return [(issue.line, issue.code, issue.message) for issue in exc.issues]
    values = [getattr(ontology, f.name) for f in fields(OkOntology)]
    return [list(v.items()) if isinstance(v, Mapping) else v for v in values] + [ontology.roots()]


_RELAIS_LINES = data_path("relais.dsl").read_text(encoding="utf-8").splitlines()
_WORDS = ("relais", "ghost", "seuil", "genus", "diff", "root", "values", "on", "type", "where",
          "over", "and", "=", "comportement=seuil", "nope=zz", "#", '"', "enum(a, b)", "bool",
          "compound")
#: Lines failing several checks at the end of ``relais.dsl``, and the code that wins.
_SEVERAL_FAULTS = [
    ("concept relais à seuil genus ghost diff comportement=seuil", "E_DUP_NAME"),
    ("concept relais genus ghost diff comportement=zz", "E_DUP_NAME"),
    ("concept nouveau genus ghost diff nope=zz", "E_UNKNOWN_GENUS"),
    ("concept nouveau genus ghost diff comportement", "E_SYNTAX"),
    ("concept relais genus relais diff comportement=seuil genus relais", "E_MULTIPLE_GENUS"),
    ("concept nouveau genus relais diff nope=seuil genus ghost", "E_MULTIPLE_GENUS"),
    ("concept nouveau genus relais diff nope=zz", "E_UNKNOWN_AXIS"),
    ("attribute seuil_volts on ghost type bool", "E_SYNTAX"),
    ("attribute seuil_volts on ghost type number", "E_UNKNOWN_CONCEPT"),
    ("class SeuilHauteTension over ghost where x ~ 1", "E_DUP_NAME"),
    ("class Nouvelle over ghost where x ~ 1", "E_UNKNOWN_CONCEPT"),
    ("set Calibre500 where and", "E_DUP_NAME"),
]


def mutated_relais(rng: random.Random) -> str:
    """``relais.dsl`` after one to three line edits: a line dropped,
    repeated, moved, truncated, with a word swapped, put in or taken out,
    or a line of ``_EVERY_ISSUE`` or ``_SEVERAL_FAULTS`` put in."""
    lines = list(_RELAIS_LINES)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        roll = rng.random()
        if roll < 0.1:
            del lines[i]
        elif roll < 0.2:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif roll < 0.3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif roll < 0.4:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        elif roll < 0.7:
            words = lines[i].split(" ")
            k = rng.randrange(len(words))
            edit = rng.choice(("swap", "insert", "drop"))
            if edit == "drop":
                del words[k]
            else:
                words[k: k + (edit == "swap")] = [rng.choice(_WORDS)]
            lines[i] = " ".join(words)
        elif roll < 0.85:
            lines.insert(i, rng.choice(_EVERY_ISSUE)[0])
        else:
            lines.insert(i, rng.choice(_SEVERAL_FAULTS)[0])
        if not lines:
            lines = [""]
    return "\n".join(lines)


def generated_dsl(rng: random.Random, n: int = 600) -> str:
    """A DSL of ``n`` concepts under one root on eight eight-valued axes,
    each under a random earlier concept, with attributes, comments, terms,
    a class and a set.  It parses; the checker finds much in it."""
    axes = [f"a{i}" for i in range(8)]
    lines = ['ontology "generated"  # 600 concepts', ""]
    lines += [f"axis {a} values {', '.join(f'{a}v{j}' for j in range(8))}" for a in axes]
    lines.append("concept c0 root")
    for i in range(1, n):
        axis = rng.choice(axes)
        comment = "  # note" if i % 7 == 0 else ""
        lines.append(f"concept c{i} genus c{rng.randrange(i)} diff {axis}={axis}v{rng.randrange(8)}{comment}")
        if rng.random() < 0.1:
            lines.append(f"attribute p{rng.randrange(12)} on c{i} type number")
    lines += [f'term "t{i}" denotes c{rng.randrange(n + 5)}' for i in range(30)]
    lines += ["class K over c1 where p1 >= 2 and p2 < 3", 'set S where p3 = "x # y"']
    return "\n".join(lines)


def test_parse_dsl_matches_the_oracle_on_the_fixture_and_a_generated_600_concept_dsl():
    generated = generated_dsl(random.Random(600))
    for text in (data_path("relais.dsl").read_text(encoding="utf-8"), generated):
        assert parse_outcome(parse_dsl, text) == parse_outcome(parse_dsl_oracle, text)
    ontology = parse_dsl(generated)
    assert len(ontology.concepts) == 600
    assert check_consistency(ontology) == check_consistency_oracle(ontology)
    assert {v.rule for v in check_consistency(ontology)} >= {"R3", "R4", "R5", "R7"}


def test_parse_dsl_matches_the_oracle_on_mutated_fixture_lines():
    """The issues come out alike, so on a line with several faults the
    same check fails first."""
    for line, code in _SEVERAL_FAULTS:
        text = "\n".join([*_RELAIS_LINES, line])
        issues = parse_outcome(parse_dsl_oracle, text)
        assert issues[-1][:2] == (len(_RELAIS_LINES) + 1, code)
        assert parse_outcome(parse_dsl, text) == issues
    rng = random.Random(20101019)
    codes = Counter()
    for _ in range(2500):
        text = mutated_relais(rng)
        expected = parse_outcome(parse_dsl_oracle, text)
        assert parse_outcome(parse_dsl, text) == expected, text
        codes.update(issue[1] for issue in expected if isinstance(issue, tuple))
        codes["parsed"] += not isinstance(expected[0], tuple)
    assert set(codes) == {
        "E_SYNTAX", "E_DUP_NAME", "E_UNKNOWN_GENUS", "E_UNKNOWN_AXIS", "E_BAD_VALUE",
        "E_MULTIPLE_GENUS", "E_UNKNOWN_CONCEPT", "E_UNSUPPORTED", "parsed",
    }, codes
    assert min(codes.values()) >= 20, codes


@given(_DSL_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_dsl_matches_the_oracle_on_generated_texts(text):
    assert parse_outcome(parse_dsl, text) == parse_outcome(parse_dsl_oracle, text)


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


_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "≠": operator.ne, "<": operator.lt, "<=": operator.le,
    "≤": operator.le, ">": operator.gt, ">=": operator.ge, "≥": operator.ge,
}


def test_predicates_compare_with_each_operator_and_its_alias():
    sets = {op: f"S{i}" for i, op in enumerate(_OPERATORS)}
    ontology = parse_dsl(
        "concept relais root\nattribute calibre on relais type number\n"
        + "".join(f"set {sets[op]} where calibre {op} 5\n" for op in _OPERATORS)
    )
    for value in (4, 5, 6):
        result = classify_object(ontology, ObjectInstance("i", "relais", {"calibre": value}))
        assert set(result.sets) == {sets[op] for op, test in _OPERATORS.items() if test(value, 5)}


def test_a_comparison_with_an_operator_outside_the_six_cannot_be_built():
    for op in ("~", "==", "≥"):  # an alias is the parser's spelling, not an operator
        with pytest.raises(ValueError, match=f"^unknown comparison operator: {re.escape(repr(op))}$"):
            AtomicComparison("calibre", op, 5)


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


ROW = 'expected string "id" and "concept", object "state"'


@pytest.mark.parametrize("text, problem", [
    ('[{"id": "i1", "state": {}}]', f"instance 1: {ROW}"),
    ('[{"id": "i1", "concept": "relais", "state": {}}, ["i2", "relais", {}]]', f"instance 2: {ROW}"),
    ('[{"id": "i1", "concept": ["relais"], "state": {}}]', f"instance 1: {ROW}"),
    ('[{"id": "i1", "concept": "relais", "state": [["a", 1]]}]', f"instance 1: {ROW}"),
    ('{"id": "i1", "concept": "relais", "state": {}}', "expected a JSON array of instances"),
    ("[" * 100_000 + "]" * 100_000, "not JSON (RecursionError: "),
    ('[{"id": "i1",', "not JSON (JSONDecodeError: "),
], ids=["no-concept", "row-not-an-object", "concept-not-a-string", "state-not-an-object",
        "not-an-array", "nested-too-deep", "not-json"])
def test_load_instances_rejects_other_text_naming_the_file(tmp_path, text, problem):
    path = tmp_path / "instances.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_instances(path)
    assert str(exc.value).startswith(f"{path}: {problem}")


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
        assert ontology.roots() == scan_children(ontology, None)
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


_ON_PATH = re.compile(r"^R4: .* on the path to (?P<r4>'.*') \(|^R5: attribute '.*' on (?P<r5>'.*') shadows")


def test_check_consistency_matches_the_chain_walk_with_reuse_and_shadowing_on_one_path():
    """Trees where some concepts declare attributes and others none, edited
    so that a concept reuses an ancestor's axis, shadows an ancestor's
    attribute or declares one twice: often both on one node."""
    rng = random.Random(20101020)
    seen = Counter()
    for _ in range(400):
        ontology = random_ok_tree(rng, max_nodes=60, n_axes=4, attributes=True)
        concepts = dict(ontology.concepts)
        for _ in range(rng.randint(0, 4)):
            name = rng.choice(list(concepts))
            chain = ontology.genus_chain(name)
            if not chain:
                continue
            concept = concepts[name]
            differentia, attributes = concept.differentia, concept.attributes
            roll = rng.random()
            if roll < 0.7 and len(chain) > 1:  # an ancestor below the root has an axis
                axis = concepts[rng.choice(chain[:-1])].differentia.axis
                differentia = Differentia(axis, rng.choice(ontology.axes[axis].values))
            if roll > 0.3:
                inherited = [a for node in chain for a in concepts[node].attributes]
                extra = inherited or attributes or (AttributeDef("p", ValueType("string")),)
                attributes += (rng.choice(extra),)
            concepts[name] = OkConcept(name, concept.genus, differentia, attributes)
        variant = replace(ontology, concepts=concepts)
        expected = check_consistency_oracle(variant)
        assert check_consistency(variant) == expected
        declaring = [bool(c.attributes) for c in concepts.values()]
        seen["mixed"] += any(declaring) and not all(declaring)
        found = Counter(
            (kind, node) for v in expected if (m := _ON_PATH.match(str(v)))
            for kind, node in m.groupdict().items() if node
        )
        seen["R4"] += any(kind == "r4" for kind, _ in found)
        seen["R5"] += any(kind == "r5" for kind, _ in found)
        seen["R4 and R5 on one node"] += any({("r4", node), ("r5", node)} <= found.keys()
                                             for _, node in found)
    assert seen["mixed"] >= 300 and min(seen.values()) >= 50, seen


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
