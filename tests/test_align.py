from __future__ import annotations

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ontoterm import align
from ontoterm.align import (
    AlignKind,
    AlignmentResult,
    DEFAULT_STOPWORDS,
    Verdict,
    align_term,
    compare_structures,
    load_stopwords,
    normalize_label,
    ontology_alignments,
    taxonomy_alignments,
)
from ontoterm.corpus import annotate, extract_candidates, load_corpus, load_lexicon, load_patterns
from ontoterm.errors import fold
from ontoterm.fixtures import data_path
from ontoterm.okmodel import Differentia, OkConcept, load_dsl, parse_dsl
from ontoterm.projection import Concept, Taxonomy
from ontoterm.retrieval import DocIndex, compare_recall, resolve_label

from genutil import (
    WHITESPACE,
    align_oracle,
    compare_structures_oracle,
    content_tokens_oracle,
    random_align_case,
    random_ok_variant,
    random_taxonomy,
)

RAST = "relais à seuil de tension"


@pytest.fixture(scope="module")
def relay():
    return load_dsl(data_path("relais.dsl"))


def relay_taxonomy():
    labels = [
        "relais",
        "relais de tension",
        "relais à seuil",
        "relais tout ou rien",
        "relais électromagnétique",
    ]
    concepts = {label: Concept(label, label, (label,)) for label in labels}
    edges = {(label, "relais") for label in labels if label != "relais"}
    return Taxonomy(concepts, edges)


# --- normalization -----------------------------------------------------------


def test_normalize_drops_stopwords():
    assert normalize_label("relais de tension") == Counter({"relais": 1, "tension": 1})


def test_normalize_longer_label():
    assert normalize_label("relais à seuil de tension") == Counter(
        {"relais": 1, "seuil": 1, "tension": 1}
    )


def test_normalize_keeps_contentful_small_words():
    assert normalize_label("relais tout ou rien") == Counter(
        {"relais": 1, "tout": 1, "ou": 1, "rien": 1}
    )


def test_normalize_strips_elision_apostrophe():
    assert normalize_label("l'état d'alerte") == Counter({"état": 1, "alerte": 1})


#: Pieces of labels the two tokenisers could tell apart: every whitespace
#: character, both apostrophes, combining marks, letters whose NFC form or
#: lowercase differs, and stopwords, one of them spelt decomposed.
_LABEL_PIECES = st.sampled_from(
    [*WHITESPACE, "'", "’", "\u0301", "\u0300", "\u0327", "ß", "ẞ", "É", "E\u0301", "a\u0300",
     "De", "L", "d", "à", "relais", "seuil"]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_LABEL_PIECES, max_size=12).map("".join) | st.text(),
    st.sampled_from([DEFAULT_STOPWORDS, frozenset(), frozenset({"ß", "é", "relais"})]),
)
def test_content_tokens_match_the_regex_tokeniser(label, stopwords):
    assert align._content_tokens(fold(label), stopwords) == content_tokens_oracle(label, stopwords)


def test_load_stopwords_file():
    words = load_stopwords(data_path("stopwords.txt"))
    assert words == DEFAULT_STOPWORDS


# --- align_term ----------------------------------------------------------------


def test_align_ellipsis_to_deeper_concept(relay):
    result = align_term("relais de tension", relay)
    assert result.kind is AlignKind.ELLIPSIS
    assert result.concept == RAST


def test_align_exact(relay):
    result = align_term("relais à seuil", relay)
    assert result.kind is AlignKind.EXACT
    assert result.concept == "relais à seuil"


def test_align_exact_precedes_ellipsis(relay):
    # «relais» is a strict sub-bag of every child label yet aligns exactly
    result = align_term("relais", relay)
    assert result.kind is AlignKind.EXACT
    assert result.concept == "relais"


def test_align_unmatched(relay):
    result = align_term("relais de fréquence", relay)
    assert result.kind is AlignKind.UNMATCHED
    assert result.concept is None


def test_align_declared_denotation_wins():
    text = (
        "axis comportement values tout-ou-rien, seuil\n"
        "axis grandeur_seuillée values tension, courant\n"
        "concept relais root\n"
        "concept relais à seuil genus relais diff comportement=seuil\n"
        "concept relais à seuil de tension genus relais à seuil diff grandeur_seuillée=tension\n"
        'term "relais de tension" denotes relais à seuil de tension\n'
    )
    ontology = parse_dsl(text)
    result = align_term("relais de tension", ontology)
    assert result.kind is AlignKind.DECLARED
    assert result.concept == RAST


def test_align_chain_candidates_pick_deepest(relay):
    # «seuil» fits both «relais à seuil» and its child; one chain, deepest wins
    result = align_term("seuil", relay)
    assert result.kind is AlignKind.ELLIPSIS
    assert result.concept == RAST


def test_align_ambiguous_across_branches():
    text = (
        "axis grandeur values tension, courant\n"
        "axis forme values alternative, continue\n"
        "concept relais root\n"
        "concept relais de tension alternative genus relais diff forme=alternative\n"
        "concept relais de tension continue genus relais diff forme=continue\n"
    )
    ontology = parse_dsl(text)
    result = align_term("relais de tension", ontology)
    assert result.kind is AlignKind.AMBIGUOUS
    assert set(result.candidates) == {
        "relais de tension alternative",
        "relais de tension continue",
    }


def test_align_head_must_survive():
    # same content tokens minus the head: «tension» appears, «capteur» does not
    text = (
        "axis grandeur values tension, courant\n"
        "concept relais root\n"
        "concept relais de tension genus relais diff grandeur=tension\n"
    )
    ontology = parse_dsl(text)
    result = align_term("capteur de tension", ontology)
    assert result.kind is AlignKind.UNMATCHED


def test_align_is_total_and_deterministic(relay):
    labels = ["relais", "relais de tension", "", "de la", "xyzzy"]
    first = [align_term(t, relay) for t in labels]
    second = [align_term(t, relay) for t in labels]
    assert first == second


def test_exact_is_a_subcase_of_relaxed_ellipsis(relay):
    # rule precedence on the reference terms: whenever EXACT fires the
    # non-strict sub-bag condition holds as well
    for term in ("relais", "relais à seuil", "relais tout ou rien"):
        result = align_term(term, relay)
        assert result.kind is AlignKind.EXACT
        assert normalize_label(term) <= normalize_label(result.concept)


def test_align_matches_brute_force_oracle():
    rng = random.Random(20100214)
    kinds = Counter()
    unheld = Counter()  # kinds of the terms holding a token that no concept holds
    for _ in range(1000):
        ontology, stopwords, queries = random_align_case(rng)
        held = set().union(*(normalize_label(name, stopwords) for name in ontology.concepts))
        batch = ontology_alignments(queries, ontology, stopwords)
        for term in queries:
            expected = align_oracle(term, ontology, stopwords)
            assert align_term(term, ontology, stopwords) == expected, term
            assert batch[term] == expected
            kinds[expected.kind] += 1
            if not normalize_label(term, stopwords).keys() <= held:
                unheld[expected.kind] += 1
    assert all(kinds[kind] >= 100 for kind in AlignKind), kinds
    assert unheld[AlignKind.UNMATCHED] >= 100 and unheld[AlignKind.DECLARED] >= 100, unheld
    assert unheld.keys() == {AlignKind.UNMATCHED, AlignKind.DECLARED}, unheld


def test_align_matches_the_oracle_on_every_fixture_term(relay):
    """Every candidate label the fixture's two corpora yield, every concept
    name and every declared term of the fixture's ontology."""
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    patterns = load_patterns(data_path("patterns.txt"))
    labels = []
    for corpus in ("corpus", "retrieval"):
        docs = [annotate(doc, lexicon) for doc in load_corpus(data_path(corpus))]
        labels += [c.label for c in extract_candidates(docs, patterns)]
    stopwords = load_stopwords(data_path("stopwords.txt"))
    kinds = Counter()
    for term in [*labels, *relay.concepts, *relay.denotation]:
        expected = align_oracle(term, relay, stopwords)
        assert align_term(term, relay, stopwords) == expected, term
        kinds[expected.kind] += 1
    assert len(labels) >= 15 and kinds.keys() >= {AlignKind.EXACT, AlignKind.ELLIPSIS}, kinds


def test_align_sees_a_concept_added_in_place(relay):
    """A concept cannot be added in place; a ``replace``d variant that adds
    one aligns against its own concepts, and the original is unchanged."""
    assert align_term("relais de courant", relay).kind is AlignKind.UNMATCHED
    assert resolve_label(relay, "relais de courant") is None
    current = OkConcept(
        "relais à seuil de courant", "relais à seuil", Differentia("grandeur_seuillée", "courant")
    )
    with pytest.raises(TypeError):
        relay.concepts[current.name] = current
    ontology = replace(relay, concepts={**relay.concepts, current.name: current})
    result = align_term("relais de courant", ontology)
    assert (result.kind, result.concept) == (AlignKind.ELLIPSIS, "relais à seuil de courant")
    assert resolve_label(ontology, "relais de courant") == "relais à seuil de courant"
    assert resolve_label(relay, "relais de courant") is None


# --- the per-ontology index memo -----------------------------------------------


@pytest.fixture
def index_reads(monkeypatch):
    """Count the reads of ``align._concept_index``, the names-keyed index."""
    reads = Counter()
    inner = align._concept_index

    def spy(names, stopwords):
        reads[names, stopwords] += 1
        return inner(names, stopwords)

    monkeypatch.setattr(align, "_concept_index", spy)
    return reads


def test_resolve_label_reads_the_concept_index_once_per_ontology(index_reads):
    ontology = load_dsl(data_path("relais.dsl"))
    labels = ["relais", "relais de tension", "seuil", "fantôme", "relais à seuil"]
    for i in range(200):
        resolve_label(ontology, labels[i % len(labels)])
    assert sum(index_reads.values()) == 1


def test_a_replaced_variant_and_another_stopword_set_get_their_own_entry(index_reads):
    ontology = load_dsl(data_path("relais.dsl"))
    variant = replace(ontology, denotation={**ontology.denotation, "bobine": RAST})
    other = DEFAULT_STOPWORDS | {"tension"}
    for _ in range(3):
        assert resolve_label(ontology, "bobine") is None
        assert resolve_label(variant, "bobine") == RAST
        assert resolve_label(ontology, "relais de tension", other) == "relais"
        assert resolve_label(ontology, "relais de tension") == RAST
    names = tuple(ontology.concepts)
    # the variant has the same concept names, so it reads the same index
    assert index_reads == {(names, DEFAULT_STOPWORDS): 2, (names, other): 1}


def test_align_matches_the_oracle_across_interleaved_ontologies_and_stopword_sets():
    """Each ontology answers half its queries under its own stopwords and
    half under the default ones, every query three times, all of them
    shuffled together, so entries are made and read in any order."""
    rng = random.Random(20100216)
    cases = []
    for _ in range(1000):
        ontology, stopwords, queries = random_align_case(rng)
        for i, term in enumerate(queries):
            words = (stopwords, DEFAULT_STOPWORDS)[i % 2]
            cases.append((ontology, words, term, align_oracle(term, ontology, words)))
    calls = cases * 3
    rng.shuffle(calls)
    kinds = Counter()
    for ontology, words, term, expected in calls:
        assert align_term(term, ontology, words) == expected, (term, words)
        kinds[expected.kind] += 1
    assert all(kinds[kind] >= 100 for kind in AlignKind), kinds


def test_an_aligned_ontology_is_freed_without_the_cycle_collector():
    """A comparison leaves a resolution kept on both structures, and each
    is still freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        ontology = load_dsl(data_path("relais.dsl"))
        taxonomy = Taxonomy({RAST: Concept(RAST, RAST, (RAST,)), "relais": Concept(
            "relais", "relais", ("relais",))}, {(RAST, "relais")})
        comparison = compare_recall(DocIndex(), taxonomy, DocIndex(), ontology, RAST)
        assert (comparison.concept_a, comparison.concept_b) == (RAST, RAST)
        assert vars(taxonomy)["_resolutions"] and vars(ontology)["_resolutions"]
        assert resolve_label(ontology, "relais de tension") == RAST
        ontology_alignments(["relais", "seuil"], ontology, DEFAULT_STOPWORDS - {"de"})
        freed = weakref.ref(ontology), weakref.ref(taxonomy)
        del ontology, taxonomy
        assert [ref() for ref in freed] == [None, None]
    finally:
        gc.enable()


# --- head-match necessity property --------------------------------------------


_words = st.sampled_from(
    ["relais", "tension", "seuil", "courant", "capteur", "mesure", "de", "à", "tout"]
)
_labels = st.lists(_words, min_size=1, max_size=4).map(" ".join)


@given(term=_labels, concept_words=st.lists(_words, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_ellipsis_head_match_necessity(term, concept_words):
    text = (
        "axis grandeur values tension, courant\n"
        "concept racine root\n"
        f"concept {' '.join(concept_words)} genus racine diff grandeur=tension\n"
    )
    try:
        ontology = parse_dsl(text)
    except Exception:
        return
    result = align_term(term, ontology)
    if result.kind is AlignKind.ELLIPSIS:
        tokens = [t for t in normalize_label(term)]
        head = [t for t in term.split() if t not in DEFAULT_STOPWORDS][0]
        assert head in normalize_label(result.concept)
        assert tokens


# --- compare_structures --------------------------------------------------------


def full_alignments(relay):
    taxonomy = relay_taxonomy()
    terms = sorted({t for c in taxonomy.concepts.values() for t in c.denoting_terms})
    return taxonomy, ontology_alignments(terms, relay)


def test_compare_structures_relay_verdicts(relay):
    taxonomy, alignments = full_alignments(relay)
    report = compare_structures(taxonomy, relay, alignments)
    verdicts = {e.term: e.verdict for e in report.entries}
    assert verdicts["relais de tension"] is Verdict.PARENT_ELIDED
    assert verdicts["relais tout ou rien"] is Verdict.AGREE
    assert verdicts["relais à seuil"] is Verdict.AGREE
    assert verdicts["relais électromagnétique"] is Verdict.AGREE


def test_compare_structures_one_entry_per_non_root(relay):
    taxonomy, alignments = full_alignments(relay)
    report = compare_structures(taxonomy, relay, alignments)
    non_roots = [c for c in taxonomy.concepts if taxonomy.parents(c)]
    assert len(report.entries) == len(non_roots)
    assert sum(report.verdict_counts().values()) == len(non_roots)


def test_compare_structures_unaligned(relay):
    taxonomy = Taxonomy(
        {
            "relais": Concept("relais", "relais", ("relais",)),
            "machin inconnu": Concept("machin inconnu", "machin inconnu", ("machin inconnu",)),
        },
        {("machin inconnu", "relais")},
    )
    terms = ["relais", "machin inconnu"]
    report = compare_structures(taxonomy, relay, ontology_alignments(terms, relay))
    assert report.entries[0].verdict is Verdict.UNALIGNED


def test_compare_structures_conflict(relay):
    # projected parent aligns to a concept off the genus chain
    taxonomy = Taxonomy(
        {
            "relais tout ou rien": Concept(
                "relais tout ou rien", "relais tout ou rien", ("relais tout ou rien",)
            ),
            "relais de tension": Concept(
                "relais de tension", "relais de tension", ("relais de tension",)
            ),
        },
        {("relais de tension", "relais tout ou rien")},
    )
    terms = ["relais tout ou rien", "relais de tension"]
    report = compare_structures(taxonomy, relay, ontology_alignments(terms, relay))
    by_term = {e.term: e for e in report.entries}
    assert by_term["relais de tension"].verdict is Verdict.CONFLICT


def test_taxonomy_alignments_are_identity():
    taxonomy = relay_taxonomy()
    alignments = taxonomy_alignments(taxonomy)
    assert alignments["relais de tension"].concept == "relais de tension"
    assert all(r.kind is AlignKind.EXACT for r in alignments.values())


def test_compare_structures_matches_the_per_concept_edge_scan():
    rng = random.Random(20100218)
    verdicts = Counter()
    for _ in range(300):
        taxonomy = random_taxonomy(rng, max_nodes=30, prefix="n")
        concepts, _, ontology = random_ok_variant(rng, max_nodes=30)
        names = list(concepts)
        alignments = {}
        for cid, concept in taxonomy.concepts.items():
            roll = rng.random()
            if roll < 0.1:
                continue
            if roll < 0.2:
                alignments[concept.label] = AlignmentResult(concept.label, AlignKind.UNMATCHED)
            else:
                target = cid if cid in concepts and roll < 0.6 else rng.choice(names)
                alignments[concept.label] = AlignmentResult(concept.label, AlignKind.EXACT, target)
        if ontology is None:  # drawn like a built case, so the later cases stay the same
            continue
        expected = compare_structures_oracle(taxonomy, ontology, alignments)
        assert compare_structures(taxonomy, ontology, alignments) == expected
        verdicts.update(e.verdict for e in expected.entries)
    assert all(verdicts[v] >= 50 for v in Verdict), verdicts
