"""Release acceptance checks.

One test per criterion; the terminal summary prints a PASS/FAIL line for
each.  Property suites run at 1000 random cases apiece, and every oracle
comparison must show zero mismatches.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from genutil import ancestors_oracle, closure_oracle, random_ok_tree, random_taxonomy
from ontoterm.align import (
    AlignKind,
    DEFAULT_STOPWORDS,
    Verdict,
    align_term,
    alignment_artifact,
    compare_structures,
    normalize_label,
    ontology_alignments,
    taxonomy_alignments,
)
from ontoterm.corpus import (
    Document,
    Lexicon,
    LexiconEntry,
    POS,
    DEFAULT_PATTERNS,
    annotate,
    candidates_to_json,
    extract_candidates,
    load_corpus,
    load_lexicon,
    load_patterns,
)
from ontoterm.export import mangle_labels, to_kif, to_owl
from ontoterm.fixtures import data_path
from ontoterm.lexnet import (
    Status,
    apply_validation,
    build_network,
    copula_relations,
    lexnet_to_json,
    load_decisions,
    same_head_hyponyms,
    terms_from_candidates,
)
from ontoterm.okmodel import (
    AttributeDef,
    Differentia,
    OkConcept,
    ValueType,
    check_consistency,
    load_dsl,
    parse_dsl,
    similarity,
    subsumes,
)
from ontoterm.projection import concept_id, project, taxonomy_to_json
from ontoterm.retrieval import DocAnnotation, DocIndex, compare_recall, index_corpus, query

RAST = "relais à seuil de tension"
RELAY_HYPONYMS = {
    "relais de tension",
    "relais à seuil",
    "relais tout ou rien",
    "relais électromagnétique",
}

THOUSAND = settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def desk_extraction():
    corpus = load_corpus(data_path("corpus"))
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    patterns = load_patterns(data_path("patterns.txt"))
    tokens = [annotate(doc, lexicon) for doc in corpus]
    return corpus, lexicon, patterns, tokens


def validated_relay_network():
    corpus, lexicon, patterns, tokens = desk_extraction()
    candidates = extract_candidates(tokens, patterns)
    relations = same_head_hyponyms(candidates)
    relations += copula_relations(tokens, [c.label for c in candidates])
    net = build_network(terms_from_candidates(candidates), relations)
    return apply_validation(net, load_decisions(data_path("decisions.txt")))


# --- criterion 1 ---------------------------------------------------------------


@pytest.mark.acceptance(criterion=1, title="same-head mining finds exactly the four relay hyponyms in under a second")
def test_criterion_1_lexical_structure():
    started = time.perf_counter()
    corpus, _, patterns, tokens = desk_extraction()
    candidates = extract_candidates(tokens, patterns)
    edges = same_head_hyponyms(candidates)
    elapsed = time.perf_counter() - started

    sentences = sum(doc.text.count(".") for doc in corpus)
    assert sentences >= 10  # the bundled corpus is a real, if small, corpus
    assert {(e.source, e.target) for e in edges} == {
        (label, "relais") for label in RELAY_HYPONYMS
    }
    labels = {c.label for c in candidates}
    assert RELAY_HYPONYMS | {"relais"} <= labels
    assert elapsed < 1.0


# --- criterion 2 ---------------------------------------------------------------


@pytest.mark.acceptance(criterion=2, title="projected taxonomy is <relais> with exactly its four children")
def test_criterion_2_projection():
    taxonomy = project(validated_relay_network())
    assert taxonomy.roots == ["relais"]
    assert set(taxonomy.children("relais")) == {concept_id(c) for c in RELAY_HYPONYMS}
    assert len(taxonomy.subsumption) == 4
    assert len(taxonomy.concepts) == 5


# --- criterion 3 ---------------------------------------------------------------


def relay_ontology():
    return load_dsl(data_path("relais.dsl"))


def mutations():
    """One mutated ontology per rule, each violating exactly that rule."""
    out = {}

    out["R1"] = parse_dsl("concept a root\nconcept b root\n")

    relay = relay_ontology()

    def with_concept(concept):
        return replace(relay, concepts={**relay.concepts, concept.name: concept})

    out["R2"] = with_concept(OkConcept("relais statique", "relais", None))
    out["R3"] = with_concept(OkConcept(
        "relais voltmétrique", "relais à seuil", Differentia("grandeur_seuillée", "tension")
    ))
    out["R4"] = with_concept(OkConcept(
        "relais redondant", RAST, Differentia("grandeur_seuillée", "courant")
    ))
    holder = relay.concepts["relais à seuil"]
    out["R5"] = with_concept(replace(
        holder, attributes=(AttributeDef("seuil_volts", ValueType("number")),)
    ))

    r6 = parse_dsl(
        "axis comportement values tout-ou-rien, seuil\n"
        "concept relais root\n"
        "concept relais à seuil genus relais diff comportement=seuil\n"
        "attribute seuil_volts on relais à seuil type number\n"
        "class K over relais where seuil_volts >= 1\n"
    )
    out["R6"] = r6

    out["R7"] = replace(relay, denotation={**relay.denotation, "relais statique": "fantôme"})
    return out


@pytest.mark.acceptance(criterion=3, title="reference ontology is consistent; each rule R1 through R7 has a dedicated trigger")
def test_criterion_3_consistency_rules():
    assert check_consistency(relay_ontology()) == []
    for rule, mutated in mutations().items():
        found = {v.rule for v in check_consistency(mutated)}
        assert found == {rule}, f"mutation for {rule} triggered {found}"


# --- criterion 4 ---------------------------------------------------------------


@pytest.mark.acceptance(criterion=4, title="elliptical term resolves to the deeper concept and the diff says the parent was elided")
def test_criterion_4_ellipsis_alignment():
    ontology = relay_ontology()
    result = align_term("relais de tension", ontology)
    assert result.kind is AlignKind.ELLIPSIS
    assert result.concept == RAST

    taxonomy = project(validated_relay_network())
    terms = sorted({t for c in taxonomy.concepts.values() for t in c.denoting_terms})
    alignments = ontology_alignments(terms, ontology)
    report = compare_structures(taxonomy, ontology, alignments)
    verdicts = {e.term: e.verdict for e in report.entries}
    assert verdicts["relais de tension"] is Verdict.PARENT_ELIDED
    assert verdicts["relais tout ou rien"] is Verdict.AGREE
    assert verdicts["relais à seuil"] is Verdict.AGREE


# --- criterion 5 ---------------------------------------------------------------


@pytest.mark.acceptance(criterion=5, title="querying «relais à seuil» returns {d2} projected vs {d1, d2} expert; difference {d1}")
def test_criterion_5_retrieval_contrast():
    ontology = relay_ontology()
    taxonomy = project(validated_relay_network())
    corpus = load_corpus(data_path("retrieval"))
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    patterns = load_patterns(data_path("patterns.txt"))
    tokens = [annotate(doc, lexicon) for doc in corpus]
    candidates = extract_candidates(tokens, patterns)
    labels = [c.label for c in candidates]

    projected = index_corpus(corpus, candidates, taxonomy, taxonomy_alignments(taxonomy))
    expert = index_corpus(corpus, candidates, ontology, ontology_alignments(labels, ontology))

    assert query(projected, taxonomy, concept_id("relais à seuil")) == {"d2"}
    assert query(expert, ontology, "relais à seuil") == {"d1", "d2"}

    comparison = compare_recall(projected, taxonomy, expert, ontology, "relais à seuil")
    assert comparison.symmetric_difference == ("d1",)
    assert comparison.explanations["d1"]["b"] == (RAST,)


# --- criterion 6 ---------------------------------------------------------------


@pytest.mark.acceptance(criterion=6, title="closure, subsumption and query match brute force on random structures")
def test_criterion_6_oracle_equivalence():
    rng = random.Random(6_2024)
    mismatches = 0

    for _ in range(100):
        taxonomy = random_taxonomy(rng, max_nodes=100)
        nodes = set(taxonomy.concepts)
        for cid in taxonomy.concepts:
            if taxonomy.subsumed_closure(cid) != closure_oracle(taxonomy.subsumption, nodes, cid):
                mismatches += 1

    for _ in range(100):
        ontology = random_ok_tree(rng, max_nodes=100)
        names = sorted(ontology.concepts)
        ancestors = {name: ancestors_oracle(ontology, name) for name in names}
        for specific in names:
            for general in rng.sample(names, k=min(5, len(names))):
                if subsumes(ontology, general, specific) != (general in ancestors[specific]):
                    mismatches += 1
            if ontology.subsumed_closure(specific) != {
                n for n in names if specific in ancestors[n]
            }:
                mismatches += 1

    for _ in range(10):
        taxonomy = random_taxonomy(rng, max_nodes=30)
        nodes = sorted(taxonomy.concepts)
        docs = [f"doc{i}" for i in range(rng.randint(1, 100))]
        index = DocIndex(
            {DocAnnotation(rng.choice(docs), rng.choice(nodes)) for _ in range(150)}
        )
        for concept in nodes:
            closure = closure_oracle(taxonomy.subsumption, set(nodes), concept)
            scanned = {
                doc
                for doc in docs
                if any(a.doc_id == doc and a.concept in closure for a in index.annotations)
            }
            if query(index, taxonomy, concept) != scanned:
                mismatches += 1

    assert mismatches == 0


# --- criterion 7: property suites, 1000 cases each -------------------------------


_term_labels = st.lists(
    st.sampled_from(["relais", "tension", "seuil", "capteur", "mesure", "tout", "rien"]),
    min_size=1,
    max_size=3,
).map(" ".join)


@pytest.mark.acceptance(criterion=7, title="property: synonymy is stored symmetrically (1000 cases)")
@THOUSAND
@given(terms=st.sets(_term_labels, min_size=2, max_size=6), data=st.data())
def test_criterion_7_synonymy_symmetry(terms, data):
    from ontoterm.lexnet import RelationKind, Term

    term_list = sorted(terms)
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(term_list), st.sampled_from(term_list)), max_size=4)
    )
    net = build_network([Term(t, t.split()[0]) for t in term_list], synonym_declarations=pairs)
    for rel in net.relations.values():
        if rel.kind is RelationKind.SYNONYMY:
            assert (RelationKind.SYNONYMY, rel.target, rel.source) in net.relations


@pytest.mark.acceptance(criterion=7, title="property: down-closure is monotone (1000 cases)")
@THOUSAND
@given(seed=st.integers(0, 2**32 - 1))
def test_criterion_7_closure_monotonicity(seed):
    rng = random.Random(seed)
    taxonomy = random_taxonomy(rng, max_nodes=20)
    cid = rng.choice(sorted(taxonomy.concepts))
    closure = taxonomy.subsumed_closure(cid)
    for inner in closure:
        assert taxonomy.subsumed_closure(inner) <= closure


@pytest.mark.acceptance(criterion=7, title="property: similarity is symmetric and reconstructs paths (1000 cases)")
@THOUSAND
@given(seed=st.integers(0, 2**32 - 1))
def test_criterion_7_similarity(seed):
    rng = random.Random(seed)
    ontology = random_ok_tree(rng, max_nodes=25)
    names = sorted(ontology.concepts)
    c1, c2 = rng.choice(names), rng.choice(names)
    res = similarity(ontology, c1, c2)
    mirrored = similarity(ontology, c2, c1)
    assert (mirrored.lca, mirrored.shared) == (res.lca, res.shared)
    assert mirrored.distinguishing == (res.distinguishing[1], res.distinguishing[0])
    assert res.shared + res.distinguishing[0] == tuple(ontology.differentia_path(c1))
    assert res.shared + res.distinguishing[1] == tuple(ontology.differentia_path(c2))


_pool = ["relais", "tension", "seuil", "courant", "capteur", "mesure", "tout", "ou", "rien", "de", "à"]


@pytest.mark.acceptance(criterion=7, title="property: an ellipsis target always contains the term's head (1000 cases)")
@THOUSAND
@given(
    term=st.lists(st.sampled_from(_pool), min_size=1, max_size=4).map(" ".join),
    concept_words=st.lists(st.sampled_from(_pool), min_size=1, max_size=5),
    deeper_words=st.lists(st.sampled_from(_pool), min_size=1, max_size=6),
)
def test_criterion_7_ellipsis_head_necessity(term, concept_words, deeper_words):
    first = " ".join(concept_words)
    second = " ".join(deeper_words)
    lines = [
        "axis grandeur values tension, courant",
        "axis forme values alternative, continue",
        "concept racine root",
        f"concept {first} genus racine diff grandeur=tension",
    ]
    if second not in (first, "racine"):
        lines.append(f"concept {second} genus {first} diff forme=alternative")
    ontology = parse_dsl("\n".join(lines) + "\n")
    result = align_term(term, ontology)
    if result.kind is AlignKind.ELLIPSIS:
        content = [t for t in term.split() if t not in DEFAULT_STOPWORDS]
        assert content, "an ellipsis match requires content tokens"
        assert content[0] in normalize_label(result.concept)


@pytest.mark.acceptance(criterion=7, title="property: name mangling is injective (1000 cases)")
@THOUSAND
@given(
    labels=st.sets(
        st.text(alphabet="abcdefghijàâéèêëîïôùûç '-", min_size=1, max_size=10), min_size=1, max_size=15
    )
)
def test_criterion_7_mangling_injective(labels):
    names = mangle_labels(labels)
    assert len(set(names.values())) == len(set(labels))


_doc_words = ["le", "relais", "de", "tension", "seuil", "surveille", "un", "à", "grandeur"]
_doc_text = st.lists(st.sampled_from(_doc_words), min_size=1, max_size=12).map(" ".join)
_pos_choices = st.sampled_from([POS.NOUN, POS.ADJ, POS.PREP, POS.DET, POS.VERB])


@st.composite
def pipeline_inputs(draw):
    texts = draw(st.lists(_doc_text, min_size=1, max_size=3))
    vocabulary = sorted({w for t in texts for w in t.split()})
    tagged = [(w, draw(_pos_choices)) for w in vocabulary if draw(st.booleans())]
    validate_all = draw(st.booleans())
    return texts, tagged, validate_all


def run_memory_pipeline(spec) -> dict[str, str]:
    """The pipeline's computational core on in-memory inputs, as artifact
    bytes; disk caching is exercised separately."""
    texts, tagged, validate_all = spec
    docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
    lexicon = Lexicon([LexiconEntry(w, w, pos) for w, pos in tagged])
    tokens = [annotate(d, lexicon) for d in docs]
    candidates = extract_candidates(tokens, DEFAULT_PATTERNS)
    relations = same_head_hyponyms(candidates)
    relations += copula_relations(tokens, [c.label for c in candidates])
    net = build_network(terms_from_candidates(candidates), relations)
    decisions = []
    if validate_all:
        decisions = [("term", "validate", c.label) for c in candidates] + [
            ("relation", "validate", r.kind, r.source, r.target) for r in relations
        ]
    validated = apply_validation(net, decisions)
    taxonomy = project(validated)
    ontology = load_dsl(data_path("relais.dsl"))
    terms = sorted({t for c in taxonomy.concepts.values() for t in c.denoting_terms})
    alignments = ontology_alignments(terms, ontology)
    report = compare_structures(taxonomy, ontology, alignments)
    index = index_corpus(docs, candidates, taxonomy, taxonomy_alignments(taxonomy))
    from ontoterm.retrieval import index_to_json_obj
    import json as _json

    return {
        "candidates.json": candidates_to_json(candidates),
        "lexnet.json": lexnet_to_json(net),
        "lexnet_validated.json": lexnet_to_json(validated),
        "taxonomy.json": taxonomy_to_json(taxonomy),
        "alignment.json": alignment_artifact(alignments, report),
        "doc_index.json": _json.dumps(index_to_json_obj(index), sort_keys=True),
        "ontology.owl": to_owl(ontology),
    }


@pytest.mark.acceptance(criterion=7, title="property: rerunning the pipeline yields byte-identical artifacts (1000 cases)")
@THOUSAND
@given(spec=pipeline_inputs())
def test_criterion_7_pipeline_idempotence(spec):
    assert run_memory_pipeline(spec) == run_memory_pipeline(spec)


# --- criterion 8 ---------------------------------------------------------------


@pytest.mark.acceptance(criterion=8, title="exports carry the expected axioms and the count formulas hold")
def test_criterion_8_exports():
    ontology = relay_ontology()
    owl = to_owl(ontology)
    assert "SubClassOf(:RelaisASeuilDeTension :RelaisASeuil)" in owl
    assert "DisjointClasses(:RelaisToutOuRien :RelaisASeuil)" in owl

    rng = random.Random(8_2024)
    for _ in range(50):
        tree = random_ok_tree(rng, max_nodes=40, attributes=True)
        rendered = to_owl(tree)
        kif = to_kif(tree)
        non_root = sum(1 for c in tree.concepts.values() if c.genus is not None)
        groups = {}
        for concept in tree.concepts.values():
            if concept.genus is not None and concept.differentia is not None:
                groups.setdefault((concept.genus, concept.differentia.axis), []).append(concept.name)
        big_groups = [g for g in groups.values() if len(g) >= 2]
        pairs = sum(len(g) * (len(g) - 1) // 2 for g in big_groups)
        assert sum(1 for l in rendered.splitlines() if l.startswith("SubClassOf(")) == non_root
        assert sum(1 for l in rendered.splitlines() if l.startswith("DisjointClasses(")) == len(big_groups)
        assert len([l for l in kif.splitlines() if l]) == non_root + pairs
