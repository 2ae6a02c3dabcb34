from __future__ import annotations

import json
import random
import re
import tracemalloc
from collections import Counter

import pytest

from genutil import (
    closure_oracle,
    random_ok_tree,
    random_ok_variant,
    random_taxonomy,
    recall_oracle,
    structure_closure_oracle,
)
from ontoterm.align import ontology_alignments, taxonomy_alignments
from ontoterm.corpus import (
    annotate,
    extract_candidates,
    load_corpus,
    load_lexicon,
    load_patterns,
)
from ontoterm.cli import main
from ontoterm.errors import ArtifactError, UnknownConceptError, UnresolvableLabelError
from ontoterm.fixtures import data_path
from ontoterm.lexnet import (
    Evidence,
    LexicalRelation,
    RelationKind,
    Status,
    Term,
    build_network,
)
from ontoterm.okmodel import OkConcept, OkOntology, load_dsl
from ontoterm.projection import Concept, Taxonomy, project
from ontoterm.retrieval import (
    DocAnnotation,
    DocIndex,
    compare_recall,
    index_corpus,
    index_from_json_obj,
    index_to_json_obj,
    query,
    resolve_label,
)

RAST = "relais à seuil de tension"


@pytest.fixture(scope="module")
def relay():
    return load_dsl(data_path("relais.dsl"))


@pytest.fixture(scope="module")
def taxonomy():
    children = (
        "relais de tension",
        "relais à seuil",
        "relais tout ou rien",
        "relais électromagnétique",
    )
    terms = [Term("relais", "relais", Status.VALIDATED)] + [
        Term(c, "relais", Status.VALIDATED) for c in children
    ]
    relations = [
        LexicalRelation(RelationKind.HYPONYMY, c, "relais", Evidence.SAME_HEAD, status=Status.VALIDATED)
        for c in children
    ]
    return project(build_network(terms, relations))


@pytest.fixture(scope="module")
def experiment(relay, taxonomy):
    corpus = load_corpus(data_path("retrieval"))
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    patterns = load_patterns(data_path("patterns.txt"))
    tokens = [annotate(d, lexicon) for d in corpus]
    candidates = extract_candidates(tokens, patterns)
    labels = [c.label for c in candidates]
    projected = index_corpus(corpus, candidates, taxonomy, taxonomy_alignments(taxonomy))
    ok_index = index_corpus(corpus, candidates, relay, ontology_alignments(labels, relay))
    return corpus, candidates, projected, ok_index


def test_indexing_under_expert_structure(experiment):
    _, _, _, ok_index = experiment
    assert DocAnnotation("d1", RAST) in ok_index.annotations


def test_indexing_under_projected_structure(experiment):
    _, _, projected, _ = experiment
    assert DocAnnotation("d1", "relais de tension") in projected.annotations


def test_document_without_known_terms_is_reported(relay, taxonomy, tmp_path):
    (tmp_path / "d9.txt").write_text("le gabarit mystérieux", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    patterns = load_patterns(data_path("patterns.txt"))
    tokens = [annotate(d, lexicon) for d in corpus]
    candidates = extract_candidates(tokens, patterns)
    index = index_corpus(corpus, candidates, relay,
                         ontology_alignments([c.label for c in candidates], relay))
    assert index.annotations == set()
    assert index.unannotated_docs == ("d9",)


def test_ambiguous_terms_are_skipped_and_logged(taxonomy):
    from ontoterm.okmodel import parse_dsl

    ontology = parse_dsl(
        "axis forme values alternative, continue\n"
        "concept relais root\n"
        "concept relais de tension alternative genus relais diff forme=alternative\n"
        "concept relais de tension continue genus relais diff forme=continue\n"
    )
    corpus = load_corpus(data_path("retrieval"))
    lexicon = load_lexicon(data_path("lexicon.tsv"))
    patterns = load_patterns(data_path("patterns.txt"))
    tokens = [annotate(d, lexicon) for d in corpus]
    candidates = extract_candidates(tokens, patterns)
    index = index_corpus(corpus, candidates, ontology,
                         ontology_alignments([c.label for c in candidates], ontology))
    assert "relais de tension" in index.skipped_ambiguous
    assert all(a.concept != "relais de tension alternative" for a in index.annotations)


def test_query_projected_misses_the_elided_document(experiment, taxonomy):
    _, _, projected, _ = experiment
    assert query(projected, taxonomy, "relais à seuil") == {"d2"}


def test_query_expert_structure_subsumes_it(experiment, relay):
    _, _, _, ok_index = experiment
    assert query(ok_index, relay, "relais à seuil") == {"d1", "d2"}


def test_query_root_returns_every_annotated_document(experiment, relay):
    _, _, _, ok_index = experiment
    assert query(ok_index, relay, "relais") == {"d1", "d2"}


def test_query_unknown_concept(experiment, relay):
    _, _, _, ok_index = experiment
    with pytest.raises(UnknownConceptError):
        query(ok_index, relay, "fantôme")


def test_compare_recall_difference(experiment, relay, taxonomy):
    _, _, projected, ok_index = experiment
    comparison = compare_recall(projected, taxonomy, ok_index, relay, "relais à seuil")
    assert comparison.docs_a == ("d2",)
    assert comparison.docs_b == ("d1", "d2")
    assert comparison.symmetric_difference == ("d1",)
    assert comparison.explanations["d1"]["b"] == (RAST,)
    assert comparison.explanations["d1"]["a"] == ()


def test_compare_recall_identical_structures(experiment, taxonomy):
    _, _, projected, _ = experiment
    comparison = compare_recall(projected, taxonomy, projected, taxonomy, "relais à seuil")
    assert comparison.symmetric_difference == ()


def test_compare_recall_unresolvable_label(experiment, relay, taxonomy):
    _, _, projected, ok_index = experiment
    with pytest.raises(UnresolvableLabelError) as exc:
        # resolvable in the expert tree only: the taxonomy side must complain
        compare_recall(projected, taxonomy, ok_index, relay, "relais à seuil de tension")
    assert "projected" in str(exc.value)


def test_resolve_label(relay, taxonomy):
    assert resolve_label(taxonomy, "Relais à seuil") == "relais à seuil"
    assert resolve_label(relay, "relais de tension") == RAST
    assert resolve_label(taxonomy, "fantôme") is None


def test_indexing_is_deterministic(experiment, taxonomy):
    corpus, candidates, projected, _ = experiment
    again = index_corpus(corpus, candidates, taxonomy, taxonomy_alignments(taxonomy))
    assert index_to_json_obj(again) == index_to_json_obj(projected)
    roundtrip = index_from_json_obj(index_to_json_obj(projected))
    assert index_to_json_obj(roundtrip) == index_to_json_obj(projected)


def test_query_matches_per_document_scan_on_random_indexes():
    rng = random.Random(20240813)
    for _ in range(30):
        taxonomy = random_taxonomy(rng, max_nodes=40)
        nodes = sorted(taxonomy.concepts)
        docs = [f"doc{i}" for i in range(rng.randint(1, 100))]
        annotations = {
            DocAnnotation(rng.choice(docs), rng.choice(nodes))
            for _ in range(rng.randint(0, 200))
        }
        index = DocIndex(annotations)
        for concept in rng.sample(nodes, k=min(10, len(nodes))):
            closure = closure_oracle(taxonomy.subsumption, set(nodes), concept)
            expected = set()
            for doc in docs:  # independent per-document scan
                if any(a.doc_id == doc and a.concept in closure for a in annotations):
                    expected.add(doc)
            assert query(index, taxonomy, concept) == expected


def test_query_monotone_under_subsumption():
    rng = random.Random(20240814)
    for _ in range(50):
        taxonomy = random_taxonomy(rng, max_nodes=30)
        nodes = sorted(taxonomy.concepts)
        annotations = {
            DocAnnotation(f"doc{rng.randrange(20)}", rng.choice(nodes)) for _ in range(40)
        }
        index = DocIndex(annotations)
        for concept in nodes:
            outer = query(index, taxonomy, concept)
            for inner in taxonomy.subsumed_closure(concept):
                assert query(index, taxonomy, inner) <= outer


# --- posting lists against a scan of every annotation -------------------------


def random_pairs(rng, docs, concepts, n):
    return {(rng.choice(docs), rng.choice(concepts)) for _ in range(n)}


def test_query_and_compare_recall_match_an_annotation_scan():
    rng = random.Random(20100219)
    outcomes = {"compared": 0, "unresolvable": 0, "differ": 0}
    for _ in range(300):
        taxonomy = random_taxonomy(rng, max_nodes=25, prefix="n")
        concepts, _, ontology = random_ok_variant(rng, max_nodes=25)
        docs = [f"d{i}" for i in range(rng.randint(1, 40))]
        names = sorted(set(taxonomy.concepts) | set(concepts))
        pairs_a = random_pairs(rng, docs, sorted(taxonomy.concepts), rng.randint(0, 80))
        pairs_b = random_pairs(rng, docs, sorted(concepts), rng.randint(0, 80))
        index_a = DocIndex(DocAnnotation(d, c) for d, c in pairs_a)
        index_b = DocIndex(DocAnnotation(d, c) for d, c in pairs_b)
        sides = ((taxonomy, taxonomy.concepts, index_a, pairs_a), (ontology, concepts, index_b, pairs_b))
        for structure, members, index, pairs in sides:
            # drawn for every case, built or not, so the later cases stay the same
            for concept in rng.sample(sorted(members), min(5, len(members))):
                if structure is not None:
                    closure = structure_closure_oracle(structure, concept)
                    assert query(index, structure, concept) == {d for d, c in pairs if c in closure}
        labels = rng.sample(names, min(4, len(names)))
        if ontology is None:
            continue
        for label in labels:
            try:
                expected = recall_oracle(pairs_a, taxonomy, pairs_b, ontology, label)
            except UnresolvableLabelError as exc:
                with pytest.raises(UnresolvableLabelError, match=re.escape(str(exc))):
                    compare_recall(index_a, taxonomy, index_b, ontology, label)
                outcomes["unresolvable"] += 1
                continue
            assert compare_recall(index_a, taxonomy, index_b, ontology, label) == expected
            outcomes["compared"] += 1
            outcomes["differ"] += bool(expected.symmetric_difference)
    assert min(outcomes.values()) >= 100, outcomes


def test_compare_recall_computes_each_closure_once():
    rng = random.Random(20100221)
    compared = 0
    for _ in range(100):
        taxonomy = random_taxonomy(rng, max_nodes=25, prefix="n")
        ontology = random_ok_variant(rng, max_nodes=25).ontology
        if ontology is None:
            continue
        calls = Counter()
        for structure, side in ((taxonomy, "a"), (ontology, "b")):
            inner = structure.subsumed_closure

            def closure(cid, inner=inner, side=side):
                calls[side] += 1
                return inner(cid)

            structure.subsumed_closure = closure
        for label in sorted(set(taxonomy.concepts) | set(ontology.concepts)):
            calls.clear()
            try:
                compare_recall(DocIndex(), taxonomy, DocIndex(), ontology, label)
            except UnresolvableLabelError:
                continue
            assert calls == {"a": 1, "b": 1}
            compared += 1
    assert compared >= 100


def artifact_side(rng):
    """One side of ``doc_index.json`` as the program writes it: rows sorted
    by (document, concept), each pair once."""
    docs = [f"d{i:03d}" for i in range(rng.randint(0, 30))]
    concepts = [f"c{i}" for i in range(20)]
    pairs = sorted(random_pairs(rng, docs, concepts, rng.randint(0, 60))) if docs else []
    return {
        "annotations": [{"doc_id": d, "concept": c, "source": "TERM_OCCURRENCE"} for d, c in pairs],
        "unannotated_docs": sorted(rng.sample(docs, min(3, len(docs)))),
        "skipped_ambiguous": sorted(rng.sample(["x y", "z"], rng.randint(0, 2))),
    }


def test_index_artifact_round_trips_byte_identically():
    rng = random.Random(20100220)
    for _ in range(200):
        payload = artifact_side(rng)
        text = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)
        again = index_to_json_obj(index_from_json_obj(json.loads(text)))
        assert json.dumps(again, ensure_ascii=False, indent=2, sort_keys=True) == text
        rebuilt = DocIndex(
            {DocAnnotation(row["doc_id"], row["concept"]) for row in payload["annotations"]},
            payload["unannotated_docs"],
            payload["skipped_ambiguous"],
        )
        assert index_to_json_obj(rebuilt) == payload
        pairs = [(row["doc_id"], row["concept"]) for row in payload["annotations"]]
        assert DocIndex(pairs, payload["unannotated_docs"], payload["skipped_ambiguous"]) == rebuilt
        doubled = {**payload, "annotations": payload["annotations"][::-1] * 2}
        assert index_to_json_obj(index_from_json_obj(doubled)) == payload
        assert rebuilt == index_from_json_obj(payload)


@pytest.mark.parametrize("source", ["MANUAL", None, 3])
def test_an_annotation_of_another_source_is_an_artifact_error(tmp_path, capsys, source):
    row = {"doc_id": "d1", "concept": "relais", "source": source}
    if source is None:
        del row["source"]
    with pytest.raises(ArtifactError):
        index_from_json_obj({"annotations": [row]})
    index = tmp_path / "doc_index.json"
    index.write_text(json.dumps({"ok": {"annotations": [row]}}), encoding="utf-8")
    argv = ["query", "--index", str(index), "--structure", "ok", "--concept", "relais",
            "--dsl", str(data_path("relais.dsl"))]
    assert main(argv) == 2
    assert "E_ARTIFACT" in capsys.readouterr().err


# --- closed posting lists against the pair scan --------------------------------


def test_closed_posting_lists_match_the_pair_scan_in_any_fill_order():
    rng = random.Random(20101020)
    seen = Counter()
    for case in range(300):
        if case % 2:
            structure = random_ok_tree(rng, max_nodes=40)
        else:
            structure = random_taxonomy(rng, max_nodes=40, prefix="n")
            seen["shared descendants"] += any(
                len(structure.parents(c)) > 1 for c in structure.concepts
            )
        concepts = list(structure.concepts)
        docs = [f"d{i}" for i in range(rng.randint(1, 30))]
        pairs = random_pairs(rng, docs, sorted(concepts), rng.randint(0, 80))
        index = DocIndex(pairs)
        rng.shuffle(concepts)
        first = concepts[0]
        seen["first fill in the middle"] += bool(structure.children(first)) and any(
            first in structure_closure_oracle(structure, c) for c in concepts[1:]
        )
        for concept in concepts:
            closure = structure_closure_oracle(structure, concept)
            expected = {d for d, c in pairs if c in closure}
            answer = query(index, structure, concept)
            assert answer == expected
            answer.add("intruder")
            answer.discard(next(iter(expected), None))
            assert query(index, structure, concept) == expected
    assert min(seen.values()) >= 50, seen


def test_one_index_answers_for_two_structures_queried_in_turn():
    rng = random.Random(20101021)
    for _ in range(100):
        ontology = random_ok_tree(rng, max_nodes=30)
        taxonomy = random_taxonomy(rng, max_nodes=30, prefix="n")
        names = sorted(set(ontology.concepts) | set(taxonomy.concepts))
        docs = [f"d{i}" for i in range(rng.randint(1, 20))]
        pairs = random_pairs(rng, docs, names, rng.randint(0, 60))
        index = DocIndex(pairs)
        for concept in rng.sample(names, len(names)):
            for structure in (taxonomy, ontology):
                if concept in structure:
                    closure = structure_closure_oracle(structure, concept)
                    assert query(index, structure, concept) == {d for d, c in pairs if c in closure}


def test_unknown_concept_raises_the_same_error_and_fills_nothing():
    taxonomy = Taxonomy({"a": Concept("a", "a", ("a",))})
    ontology = OkOntology(concepts={"a": OkConcept("a")})
    # "ghost" has postings, but neither structure knows it
    index = DocIndex([("d1", "a"), ("d2", "ghost")])
    for structure in (taxonomy, ontology):
        with pytest.raises(UnknownConceptError, match=re.escape("unknown concept: 'ghost'")):
            query(index, structure, "ghost")
        assert query(index, structure, "a") == {"d1"}
        with pytest.raises(UnknownConceptError, match=re.escape("unknown concept: 'ghost'")):
            structure.subsumed_closure("ghost")


def test_a_leaf_query_fills_only_the_leaf_and_shares_its_posting_list():
    taxonomy = random_taxonomy(random.Random(20101022), max_nodes=40)
    pairs = {(f"d{i % 7}", c) for i, c in enumerate(sorted(taxonomy.concepts) * 2)}
    leaves = [c for c in taxonomy.concepts if not taxonomy.children(c)]
    inner = [c for c in taxonomy.concepts if taxonomy.children(c)]
    assert leaves and inner
    for leaf in leaves:
        index = DocIndex(pairs)
        assert query(index, taxonomy, leaf) == set(index.docs_by_concept[leaf])
        assert index.closed_docs(taxonomy, leaf) is index.docs_by_concept[leaf]
        assert list(index._closed[1]) == [leaf]
    index = DocIndex(pairs)
    for concept in inner:
        assert type(index.closed_docs(taxonomy, concept)) is tuple
    assert set(index._closed[1]) == set().union(*(taxonomy.subsumed_closure(c) for c in inner))


def test_query_on_a_chain_deeper_than_the_recursion_limit():
    n = 10_000
    ids = [f"c{k:05d}" for k in range(n)]
    taxonomy = Taxonomy({cid: Concept(cid, cid, (cid,)) for cid in ids}, set(zip(ids[1:], ids)))
    index = DocIndex((f"d{k}", cid) for k, cid in enumerate(ids) if k % 100 == 0)
    assert query(index, taxonomy, ids[0]) == {f"d{k}" for k in range(0, n, 100)}
    assert query(index, taxonomy, ids[-1]) == set()


def test_closed_posting_lists_of_a_1200_concept_tree_hold_under_half_a_megabyte():
    rng = random.Random(20101023)
    names = [f"concept {i:04d}" for i in range(1200)]
    ontology = OkOntology(concepts={
        name: OkConcept(name, names[(i - 1) // 6] if i else None) for i, name in enumerate(names)
    })
    docs = [f"d{i:05d}" for i in range(800)]
    index = DocIndex((doc, concept) for doc in docs for concept in rng.sample(names, 8))
    assert 6000 <= len(index.annotations) <= 6400
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        index.closed_docs(ontology, names[0])  # fills every entry
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index._closed[1]) == len(names)
    assert held - before <= 500_000
