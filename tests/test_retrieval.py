from __future__ import annotations

import json
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from genutil import (
    align_oracle,
    closure_oracle,
    concept_id_oracle,
    random_align_case,
    random_ok_tree,
    random_ok_variant,
    random_taxonomy,
    recall_oracle,
    structure_closure_oracle,
)
from ontoterm import align, retrieval
from ontoterm.align import (
    DEFAULT_STOPWORDS,
    align_term,
    ontology_alignments,
    taxonomy_alignments,
)
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
from ontoterm.okmodel import OkConcept, OkOntology, load_dsl, parse_dsl
from ontoterm.projection import Concept, Taxonomy, concept_id, project, taxonomy_to_json
from ontoterm.retrieval import (
    KEPT_RESOLUTIONS,
    DocAnnotation,
    DocIndex,
    RecallComparison,
    compare_recall,
    index_corpus,
    index_from_json_obj,
    index_to_json_obj,
    query,
    require_label,
    resolve_label,
    structure_name,
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
    doc_ids = [d.id for d in corpus]
    projected = index_corpus(doc_ids, candidates, taxonomy, taxonomy_alignments(taxonomy))
    ok_index = index_corpus(doc_ids, candidates, relay, ontology_alignments(labels, relay))
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
    index = index_corpus([d.id for d in corpus], candidates, relay,
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
    index = index_corpus([d.id for d in corpus], candidates, ontology,
                         ontology_alignments([c.label for c in candidates], ontology))
    assert "relais de tension" in index.skipped_ambiguous
    assert all(a.concept != "relais de tension alternative" for a in index.annotations)


def test_query_projected_misses_the_elided_document(experiment, taxonomy):
    _, _, projected, _ = experiment
    assert sorted(query(projected, taxonomy, "relais à seuil")) == ["d2"]


def test_query_expert_structure_subsumes_it(experiment, relay):
    _, _, _, ok_index = experiment
    assert sorted(query(ok_index, relay, "relais à seuil")) == ["d1", "d2"]


def test_query_root_returns_every_annotated_document(experiment, relay):
    _, _, _, ok_index = experiment
    assert sorted(query(ok_index, relay, "relais")) == ["d1", "d2"]


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


def test_require_label_names_the_candidates_of_an_ambiguous_label(relay, taxonomy):
    assert require_label(relay, "relais de tension") == RAST
    with pytest.raises(UnresolvableLabelError) as exc:
        require_label(relay, "relais de xyz")
    assert str(exc.value) == "label 'relais de xyz' is not resolvable in the ok structure"
    with pytest.raises(UnresolvableLabelError) as exc:
        require_label(taxonomy, "relais de xyz")
    assert str(exc.value) == "label 'relais de xyz' is not resolvable in the projected structure"
    with pytest.raises(UnresolvableLabelError) as exc:
        require_label(AMBIGUOUS_DSL, "relais de tension")
    assert str(exc.value) == (
        "label 'relais de tension' is not resolvable in the ok structure: ambiguous between "
        "'relais de tension alternative', 'relais de tension continue'"
    )


AMBIGUOUS_TEXT = (
    "axis forme values alternative, continue\n"
    "concept relais root\n"
    "concept relais de tension alternative genus relais diff forme=alternative\n"
    "concept relais de tension continue genus relais diff forme=continue\n"
)
AMBIGUOUS_DSL = parse_dsl(AMBIGUOUS_TEXT)


@pytest.fixture
def read_side_files(tmp_path, experiment, taxonomy):
    """The fixture's read side as the files ``query`` and ``compare-recall``
    read, with a second DSL whose «relais de tension» is ambiguous."""
    _, _, projected, ok_index = experiment
    index = tmp_path / "doc_index.json"
    index.write_text(json.dumps(
        {"projected": index_to_json_obj(projected), "ok": index_to_json_obj(ok_index)}
    ), encoding="utf-8")
    taxonomy_path = tmp_path / "taxonomy.json"
    taxonomy_path.write_text(taxonomy_to_json(taxonomy), encoding="utf-8")
    ambiguous = tmp_path / "ambiguous.dsl"
    ambiguous.write_text(AMBIGUOUS_TEXT, encoding="utf-8")
    return {"--index": str(index), "--taxonomy": str(taxonomy_path),
            "--dsl": str(data_path("relais.dsl")), "ambiguous": str(ambiguous)}


@pytest.mark.parametrize("command", ["query", "compare-recall"])
@pytest.mark.parametrize("label, dsl, message", [
    pytest.param("relais de xyz", "--dsl",
                 "label 'relais de xyz' is not resolvable in the ok structure", id="unmatched"),
    pytest.param("relais de tension", "ambiguous",
                 "ambiguous between 'relais de tension alternative', 'relais de tension continue'",
                 id="ambiguous"),
])
def test_a_label_that_resolves_to_nothing_exits_2_with_e_unresolvable(
    read_side_files, capsys, command, label, dsl, message
):
    files = read_side_files
    argv = [command, "--index", files["--index"], "--dsl", files[dsl], "--concept", label]
    if command == "query":
        argv += ["--structure", "ok"]
    else:
        argv += ["--taxonomy", files["--taxonomy"]]
        if dsl == "--dsl":  # the fixture's taxonomy has no «relais de xyz» either
            message = message.replace("ok structure", "projected structure")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ontoterm: E_UNRESOLVABLE: ") and message in err, err


def test_resolve_label(relay, taxonomy):
    assert resolve_label(taxonomy, "Relais à seuil") == "relais à seuil"
    assert resolve_label(relay, "relais de tension") == RAST
    assert resolve_label(taxonomy, "fantôme") is None


@pytest.fixture
def resolutions(monkeypatch):
    """Count the calls of ``align._resolve``, the one label resolver."""
    calls = Counter()
    inner = align._resolve

    def counted(term, *args):
        calls[term] += 1
        return inner(term, *args)

    monkeypatch.setattr(align, "_resolve", counted)
    return calls


def test_require_label_resolves_a_label_asked_twice_once(resolutions):
    relay = load_dsl(data_path("relais.dsl"))
    ambiguous = parse_dsl(AMBIGUOUS_TEXT)
    for _ in range(2):
        with pytest.raises(UnresolvableLabelError) as exc:
            require_label(relay, "fantôme")
        assert str(exc.value) == "label 'fantôme' is not resolvable in the ok structure"
        assert require_label(relay, "seuil") == RAST
        with pytest.raises(UnresolvableLabelError) as exc:
            require_label(ambiguous, "relais de tension")
        assert str(exc.value) == (
            "label 'relais de tension' is not resolvable in the ok structure: ambiguous between "
            "'relais de tension alternative', 'relais de tension continue'"
        )
    assert resolutions == {"fantôme": 1, "seuil": 1, "relais de tension": 1}


def unkept_resolution(structure, label, stopwords):
    """What ``resolve_label`` answers with no resolution kept."""
    if isinstance(structure, Taxonomy):
        cid = concept_id(label)
        return cid if cid in structure.concepts else None
    return align_term(label, structure, stopwords).concept


def resolution_oracle(structure, label, stopwords):
    if isinstance(structure, Taxonomy):
        cid = concept_id_oracle(label)
        return cid if cid in structure.concepts else None
    return align_oracle(label, structure, stopwords).concept


def matching_taxonomy(ontology):
    """One concept per concept of ``ontology``, under its ``concept_id``,
    and its genus links as the edges."""
    ids = {name: concept_id(name) for name in ontology.concepts}
    return Taxonomy(
        {cid: Concept(cid, name, (name,)) for name, cid in ids.items()},
        {(ids[name], ids[c.genus]) for name, c in ontology.concepts.items() if c.genus},
    )


def test_kept_resolutions_answer_per_stopword_set_and_per_variant():
    """Each case asks its ontology and taxonomy about every query under
    two stopword sets, interleaved, then asks the same of a ``replace``d
    ontology and a rebuilt taxonomy without one leaf concept."""
    rng = random.Random(20100223)
    changed = 0
    for _ in range(40):
        ontology, stopwords, queries = random_align_case(rng)
        if len(ontology.concepts) < 2:
            continue
        leaf = rng.choice([n for n in ontology.concepts if n not in ontology.children_view()])
        variant = replace(ontology, concepts={
            n: c for n, c in ontology.concepts.items() if n != leaf
        })
        for pair in ((ontology, matching_taxonomy(ontology)), (variant, matching_taxonomy(variant))):
            asks = [
                ((s, label, words), resolution_oracle(s, label, words))
                for s in pair for label in [*queries, leaf] for words in (stopwords, DEFAULT_STOPWORDS)
            ] * 2
            rng.shuffle(asks)
            for ask, expected in asks:
                got = resolve_label(*ask)
                assert got == expected == unkept_resolution(*ask), ask[1:]
        changed += resolve_label(ontology, leaf) != resolve_label(variant, leaf)
    assert changed >= 35


def test_a_structure_keeps_at_most_a_fixed_number_of_resolutions():
    """One table per structure, capped over both stopword sets together."""
    rng = random.Random(20100224)
    while True:
        ontology, stopwords, _ = random_align_case(rng)
        if 5 <= len(ontology.concepts) <= 8 and stopwords != DEFAULT_STOPWORDS:
            break  # few concepts: the oracle is O(concepts)
    taxonomy = matching_taxonomy(ontology)
    vocabulary = sorted({w for name in ontology.concepts for w in name.split()} | {"de", "bobine"})
    labels = set(ontology.concepts)
    while len(labels) < 5000:
        labels.add(" ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 5))))
    asks = [(label, words) for label in sorted(labels) for words in (stopwords, DEFAULT_STOPWORDS)]
    rng.shuffle(asks)
    resolved = Counter()
    for structure in (ontology, taxonomy):
        for label, words in asks:
            got = resolve_label(structure, label, words)
            assert got == resolution_oracle(structure, label, words), label
            assert got == unkept_resolution(structure, label, words)
            resolved[structure_name(structure)] += got is not None
        assert len(vars(structure)["_resolutions"]) == KEPT_RESOLUTIONS
    assert resolved["ok"] >= 500 and resolved["projected"] >= len(taxonomy.concepts), resolved


def test_compare_recall_and_require_label_call_resolve_label_through_the_module(
    monkeypatch, relay, taxonomy
):
    """The timing harness wraps ``retrieval.resolve_label`` to time label
    resolution: a comparison must call it once per side, ``require_label``
    once, or the harness reads no time for it."""
    calls = Counter()
    inner = retrieval.resolve_label

    def counted(structure, label, *args):
        calls[structure_name(structure)] += 1
        return inner(structure, label, *args)

    monkeypatch.setattr(retrieval, "resolve_label", counted)
    compare_recall(DocIndex(), taxonomy, DocIndex(), relay, "relais à seuil")
    assert calls == {"projected": 1, "ok": 1}
    assert require_label(relay, "relais de tension") == RAST
    assert calls == {"projected": 1, "ok": 2}


def test_indexing_is_deterministic(experiment, taxonomy):
    corpus, candidates, projected, _ = experiment
    again = index_corpus([d.id for d in corpus], candidates, taxonomy, taxonomy_alignments(taxonomy))
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
            assert sorted(query(index, taxonomy, concept)) == sorted(expected)


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
                assert set(query(index, taxonomy, inner)) <= set(outer)


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
                    assert sorted(query(index, structure, concept)) == sorted(
                        {d for d, c in pairs if c in closure}
                    )
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


def test_compare_recall_on_one_warm_read_side_matches_the_annotation_scan():
    """Many labels, each asked three times in shuffled order, against one
    read side whose closed posting lists and alignment index stay warm."""
    rng = random.Random(20100223)
    ontology = None
    while ontology is None or len(ontology.concepts) < 30:
        ontology, _, queries = random_align_case(rng)
    shortcuts = {
        " ".join(rng.sample(name.split(), rng.randint(1, len(name.split()))))
        for name in ontology.concepts
    }
    labels = sorted({*ontology.concepts, *shortcuts, *queries})
    ids = sorted({concept_id(label) for label in labels if rng.random() < 0.9})
    edges = {(ids[i], rng.choice(ids[:i])) for i in range(1, len(ids))}
    taxonomy = Taxonomy({cid: Concept(cid, cid, (cid,)) for cid in ids}, edges)
    docs = [f"d{i}" for i in range(60)]
    pairs_a = random_pairs(rng, docs, ids, 150)
    pairs_b = random_pairs(rng, docs, sorted(ontology.concepts), 150)
    index_a = DocIndex(pairs_a)
    index_b = DocIndex(pairs_b)
    expected = {}
    for label in labels:
        try:
            expected[label] = recall_oracle(pairs_a, taxonomy, pairs_b, ontology, label)
        except UnresolvableLabelError as exc:
            expected[label] = exc
    asked = labels * 3
    rng.shuffle(asked)
    for label in asked:
        if isinstance(expected[label], UnresolvableLabelError):
            with pytest.raises(UnresolvableLabelError, match=re.escape(str(expected[label]))):
                compare_recall(index_a, taxonomy, index_b, ontology, label)
        else:
            assert compare_recall(index_a, taxonomy, index_b, ontology, label) == expected[label]
    compared = [c for c in expected.values() if isinstance(c, RecallComparison)]
    kinds = Counter(
        align_oracle(c.concept_label, ontology, DEFAULT_STOPWORDS).kind.value for c in compared
    )
    assert len(compared) >= 30 and kinds["ELLIPSIS"] >= 3, kinds
    assert len(expected) - len(compared) >= 30
    assert sum(bool(c.symmetric_difference) for c in compared) >= 20


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


@pytest.mark.parametrize("change", [
    pytest.param({"doc_id": 1}, id="integer-doc-id"),
    pytest.param({"concept": ["relais"]}, id="list-concept"),
    pytest.param({"unannotated_docs": "abc"}, id="unannotated-a-string"),
    pytest.param({"unannotated_docs": ["d2", 3]}, id="unannotated-an-integer"),
    pytest.param({"skipped_ambiguous": None}, id="skipped-null"),
    pytest.param({"skipped_ambiguous": [["x"]]}, id="skipped-a-list"),
])
def test_a_doc_index_value_that_is_not_a_string_is_an_artifact_error(change):
    row = {"doc_id": "d1", "concept": "relais", "source": "TERM_OCCURRENCE"}
    side = {"annotations": [row], "unannotated_docs": ["d2"], "skipped_ambiguous": ["x"]}
    index_from_json_obj(side)
    for key, value in change.items():
        if key in row:
            side["annotations"] = [row, {**row, key: value}]
        else:
            side[key] = value
    with pytest.raises(ArtifactError):
        index_from_json_obj(side)


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
            assert sorted(answer) == sorted(expected)
            with pytest.raises(TypeError):  # immutable: no caller can change the next answer
                answer[0] = "intruder"
            assert query(index, structure, concept) is answer
    assert min(seen.values()) >= 50, seen


def test_query_hands_back_the_closed_entry_itself_a_tuple_without_duplicates():
    rng = random.Random(20101024)
    for case in range(100):
        if case % 2:
            structure = random_ok_tree(rng, max_nodes=30)
        else:
            structure = random_taxonomy(rng, max_nodes=30, prefix="n")
        concepts = sorted(structure.concepts)
        docs = [f"d{i}" for i in range(rng.randint(1, 20))]
        index = DocIndex(random_pairs(rng, docs, concepts + ["ghost"], rng.randint(0, 60)))
        for concept in rng.sample(concepts, len(concepts)):
            answer = query(index, structure, concept)
            assert answer is index.closed_docs(structure, concept)
            assert query(index, structure, concept) is answer
        for postings in (index.docs_by_concept, index._closed[1]):
            for entry in postings.values():
                assert type(entry) is tuple and len(set(entry)) == len(entry)
        assert len(index._closed[1]) == len(concepts)


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
                    assert sorted(query(index, structure, concept)) == sorted(
                        {d for d, c in pairs if c in closure}
                    )


def test_unknown_concept_raises_the_same_error_and_fills_nothing():
    taxonomy = Taxonomy({"a": Concept("a", "a", ("a",))})
    ontology = OkOntology(concepts={"a": OkConcept("a")})
    # "ghost" has postings, but neither structure knows it
    index = DocIndex([("d1", "a"), ("d2", "ghost")])
    for structure in (taxonomy, ontology):
        with pytest.raises(UnknownConceptError, match=re.escape("unknown concept: 'ghost'")):
            query(index, structure, "ghost")
        assert sorted(query(index, structure, "a")) == ["d1"]
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
        assert sorted(query(index, taxonomy, leaf)) == sorted(index.docs_by_concept[leaf])
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
    assert sorted(query(index, taxonomy, ids[0])) == sorted(f"d{k}" for k in range(0, n, 100))
    assert sorted(query(index, taxonomy, ids[-1])) == []


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
