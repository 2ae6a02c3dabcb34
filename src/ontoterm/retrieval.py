"""Concept-indexed document retrieval over either conceptual structure.

Documents are annotated with the concepts their terms align to; querying a
concept returns the documents of that concept and of every concept it
subsumes.  Running the same query against the projected taxonomy and the
expert tree makes the structural difference directly measurable.

A ``DocIndex`` keeps each concept's postings as a tuple and answers from
a table of closed posting lists (each concept's documents together with
those of everything below it, also tuples), filled bottom-up on first use
per concept and kept for one structure at a time, so a query does not walk
the closure again and hands back the entry itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .align import AlignmentResult, DEFAULT_STOPWORDS, align_term
from .corpus import TermCandidate
from .errors import ArtifactError, UnknownConceptError, UnresolvableLabelError, json_text
from .graph import walk
from .okmodel import OkOntology
from .projection import Taxonomy, concept_id

Structure = Union[Taxonomy, OkOntology]


def structure_name(structure: Structure) -> str:
    return "projected" if isinstance(structure, Taxonomy) else "ok"


class DocAnnotation(NamedTuple):
    doc_id: str
    concept: str


#: Every annotation comes from a term occurrence; artifacts record it so.
_SOURCE = "TERM_OCCURRENCE"


class DocIndex:
    """Which concepts annotate which documents, as sorted posting lists.

    ``concepts_by_doc`` maps each annotated document, in order, to its
    concepts and answers the explanations of ``compare_recall``;
    ``docs_by_concept`` maps each concept to the tuple of its documents.
    Both are built once from (document, concept) pairs or
    ``DocAnnotation``s, each pair kept once; read them, never mutate them.
    ``annotations`` is a view derived from them, built on each access.

    ``closed_docs`` answers ``query`` and ``compare_recall`` from a table of
    closed posting lists for the structure last asked about, each a tuple.
    The index and both structures are immutable values, so an entry, once
    filled, never goes stale; asking about another structure starts a new
    table.
    """

    def __init__(
        self,
        annotations: Iterable[tuple[str, str]] = (),
        unannotated_docs: Iterable[str] = (),
        skipped_ambiguous: Iterable[str] = (),
    ) -> None:
        gathered: dict[str, list[str]] = {}
        for doc, concept in annotations:
            concepts = gathered.get(doc)
            if concepts is None:
                gathered[doc] = [concept]
            else:
                concepts.append(concept)
        # documents in sorted order, each pair once: O(pairs log pairs)
        by_doc = {doc: sorted(set(gathered[doc])) for doc in sorted(gathered)}
        by_concept: dict[str, list[str]] = {}
        for doc, concepts in by_doc.items():
            for concept in concepts:
                docs = by_concept.get(concept)
                if docs is None:
                    by_concept[concept] = [doc]
                else:
                    docs.append(doc)
        self.concepts_by_doc = by_doc
        # tuples, once, so that every entry of the closed table is immutable
        self.docs_by_concept = {concept: tuple(docs) for concept, docs in by_concept.items()}
        self.unannotated_docs = tuple(unannotated_docs)
        self.skipped_ambiguous = tuple(skipped_ambiguous)
        # (structure, concept → closed posting list), swapped as one value
        self._closed: tuple[Structure, dict[str, tuple[str, ...]]] | None = None

    def closed_docs(self, structure: Structure, concept: str) -> tuple[str, ...]:
        """The documents of ``concept`` and of every concept it subsumes in
        ``structure``, each once, in no set order.

        The first call for a concept fills the entries of its sub-DAG that
        are missing, each on leaving it in a ``walk`` over
        ``structure.children_view()`` that skips the filled ones:
        O(postings and edges of the sub-DAG).  After that it is a lookup.
        An entry is a leaf's own posting tuple, shared, or a new tuple: the
        union of the concept's postings and its children's entries.
        """
        memo = self._closed
        if memo is None or memo[0] is not structure:
            memo = self._closed = (structure, {})
        table = memo[1]
        if concept in table:
            return table[concept]
        structure.require(concept)
        children, postings = structure.children_view(), self.docs_by_concept
        if concept not in children:  # a leaf, filled without starting a walk (half the cost)
            table[concept] = postings.get(concept, ())
            return table[concept]
        for node, entering in walk(children, (concept,), table):
            if entering:
                continue
            kids = children.get(node, ())
            if kids:
                docs = set(postings.get(node, ()))
                for kid in kids:
                    docs.update(table[kid])
                table[node] = tuple(docs)
            else:
                table[node] = postings.get(node, ())
        return table[concept]

    @property
    def annotations(self) -> frozenset[DocAnnotation]:
        return frozenset(
            DocAnnotation(doc, concept)
            for doc, concepts in self.concepts_by_doc.items()
            for concept in concepts
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DocIndex):
            return NotImplemented
        return (self.concepts_by_doc, self.unannotated_docs, self.skipped_ambiguous) == (
            other.concepts_by_doc, other.unannotated_docs, other.skipped_ambiguous
        )


def index_corpus(
    doc_ids: Iterable[str],
    candidates: Sequence[TermCandidate],
    structure: Structure,
    alignments: Mapping[str, AlignmentResult],
) -> DocIndex:
    """Annotate documents from term occurrences.

    ``doc_ids`` are the ids of the corpus's documents
    (``corpus.corpus_doc_ids``); the candidates' occurrences say which
    document each annotation goes to.  Every occurrence of an aligned term
    yields one (document, concept) annotation.  Ambiguous terms contribute
    nothing (silent guessing would make results unattributable) and
    documents left without any annotation are listed so the gap is visible.
    """
    pairs = []
    skipped = set()
    for candidate in candidates:
        result = alignments.get(candidate.label)
        if result is None:
            continue
        if result.kind.value == "AMBIGUOUS":
            skipped.add(candidate.label)
            continue
        if result.concept is None:
            continue
        if result.concept not in structure:
            raise UnknownConceptError(
                f"alignment of {candidate.label!r} targets unknown concept {result.concept!r}"
            )
        pairs.extend((doc_id, result.concept) for doc_id, _offset in candidate.occurrences)
    covered = {doc for doc, _ in pairs}
    unannotated = sorted(doc for doc in doc_ids if doc not in covered)
    return DocIndex(pairs, unannotated, sorted(skipped))


def query(index: DocIndex, structure: Structure, concept: str) -> tuple[str, ...]:
    """Documents of ``concept`` and of every concept it subsumes, each once,
    in no set order: ``index.closed_docs``'s entry itself, shared by every
    caller and immutable, so O(1) once the entry is filled."""
    return index.closed_docs(structure, concept)


def resolve_label(
    structure: Structure, label: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> str | None:
    """Map a human-entered concept label to a structure-internal id."""
    if isinstance(structure, Taxonomy):
        cid = concept_id(label)
        return cid if cid in structure.concepts else None
    result = align_term(label, structure, stopwords)
    return result.concept


def require_label(
    structure: Structure, label: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> str:
    """``resolve_label``, raising ``UnresolvableLabelError`` for a label
    that resolves to nothing; an ambiguous label's message names its
    candidates."""
    concept = resolve_label(structure, label, stopwords)
    if concept is not None:
        return concept
    message = f"label {label!r} is not resolvable in the {structure_name(structure)} structure"
    if isinstance(structure, OkOntology):
        candidates = align_term(label, structure, stopwords).candidates
        if candidates:
            message += ": ambiguous between " + ", ".join(map(repr, candidates))
    raise UnresolvableLabelError(message)


@dataclass
class RecallComparison:
    concept_label: str
    concept_a: str
    concept_b: str
    docs_a: tuple[str, ...]
    docs_b: tuple[str, ...]
    only_a: tuple[str, ...]
    only_b: tuple[str, ...]
    symmetric_difference: tuple[str, ...]
    #: doc id → {"a": matched closure members, "b": matched closure members}
    explanations: dict[str, dict[str, tuple[str, ...]]]


def compare_recall(
    index_a: DocIndex,
    structure_a: Structure,
    index_b: DocIndex,
    structure_b: Structure,
    concept_label: str,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> RecallComparison:
    """Run one query against both structures and explain the difference.

    Each side's documents come from its index's closed posting lists; its
    closure is computed once, for the explanations.  The documents of both
    sides are sorted once, and every field is read off that one order."""
    concept_a = require_label(structure_a, concept_label, stopwords)
    concept_b = require_label(structure_b, concept_label, stopwords)
    closure_a = structure_a.subsumed_closure(concept_a)
    closure_b = structure_b.subsumed_closure(concept_b)
    docs_a = set(index_a.closed_docs(structure_a, concept_a))
    docs_b = set(index_b.closed_docs(structure_b, concept_b))
    by_doc_a, by_doc_b = index_a.concepts_by_doc, index_b.concepts_by_doc
    in_closure_a, in_closure_b = closure_a.__contains__, closure_b.__contains__
    sorted_a, sorted_b, only_a, only_b, either = [], [], [], [], []
    explanations = {}
    for doc in sorted(docs_a | docs_b):
        # a document outside a side's answer has no concept in its closure
        a = b = ()
        if doc in docs_a:
            sorted_a.append(doc)
            a = tuple(filter(in_closure_a, by_doc_a[doc]))
        if doc in docs_b:
            sorted_b.append(doc)
            b = tuple(filter(in_closure_b, by_doc_b[doc]))
        if doc not in docs_b:
            only_a.append(doc)
            either.append(doc)
        elif doc not in docs_a:
            only_b.append(doc)
            either.append(doc)
        explanations[doc] = {"a": a, "b": b}
    return RecallComparison(
        concept_label=concept_label,
        concept_a=concept_a,
        concept_b=concept_b,
        docs_a=tuple(sorted_a),
        docs_b=tuple(sorted_b),
        only_a=tuple(only_a),
        only_b=tuple(only_b),
        symmetric_difference=tuple(either),
        explanations=explanations,
    )


def index_to_json_obj(index: DocIndex) -> dict:
    return {
        "annotations": [
            {"doc_id": doc, "concept": concept, "source": _SOURCE}
            for doc, concepts in index.concepts_by_doc.items()
            for concept in concepts
        ],
        "unannotated_docs": list(index.unannotated_docs),
        "skipped_ambiguous": list(index.skipped_ambiguous),
    }


#: The frame of ``doc_index.json`` around its two sides, in key order.
_OK_HEAD, _PROJECTED_HEAD, _TAIL = '{\n  "ok": ', ',\n  "projected": ', "\n}\n"


def doc_index_text(ok: str, projected: str) -> str:
    """The text of ``doc_index.json`` from the ``json_text(..., 1)`` of its
    sides' ``index_to_json_obj``: ``json_text({"ok": ..., "projected": ...})``."""
    return _OK_HEAD + ok + _PROJECTED_HEAD + projected + _TAIL


def ok_side_text(text: str, length: object) -> str | None:
    """The ``ok`` side's text in ``doc_index_text``'s ``text``, when it is
    ``length`` characters long; None when the frame does not hold there.
    No side holds ``_PROJECTED_HEAD`` (its lines are indented deeper), so
    at most one ``length`` frames it."""
    if type(length) is not int or length <= 0 or not text.startswith(_OK_HEAD):
        return None
    end = len(_OK_HEAD) + length
    return text[len(_OK_HEAD):end] if text.startswith(_PROJECTED_HEAD, end) else None


def index_from_json_obj(payload: dict) -> DocIndex:
    """The doc index of one side of ``doc_index.json``.  An annotation of
    another source, a ``doc_id`` or ``concept`` that is not a string, or an
    ``unannotated_docs`` or ``skipped_ambiguous`` that is not a list of
    strings raises ``ArtifactError``."""
    docs, concepts = [], []
    for row in payload["annotations"]:
        if row.get("source") != _SOURCE:
            raise ArtifactError(
                f"annotation of {row.get('doc_id')!r} has source {row.get('source')!r}, "
                f"expected {_SOURCE!r}"
            )
        docs.append(row["doc_id"])
        concepts.append(row["concept"])
    unannotated = payload.get("unannotated_docs", [])
    skipped = payload.get("skipped_ambiguous", [])
    if type(unannotated) is not list or type(skipped) is not list:
        raise ArtifactError("unannotated_docs and skipped_ambiguous must be lists")
    try:
        "".join([*docs, *concepts, *unannotated, *skipped])  # every value a string, at C speed
    except TypeError:
        raise ArtifactError(
            "a doc_id, concept, unannotated_docs or skipped_ambiguous entry is not a string"
        ) from None
    return DocIndex(zip(docs, concepts), unannotated, skipped)


def comparison_to_json(comparison: RecallComparison) -> str:
    payload = {
        "concept_label": comparison.concept_label,
        "concept_a": comparison.concept_a,
        "concept_b": comparison.concept_b,
        "docs_a": list(comparison.docs_a),
        "docs_b": list(comparison.docs_b),
        "only_a": list(comparison.only_a),
        "only_b": list(comparison.only_b),
        "symmetric_difference": list(comparison.symmetric_difference),
        "explanations": {
            doc: {"a": list(sides["a"]), "b": list(sides["b"])}
            for doc, sides in comparison.explanations.items()
        },
    }
    return json_text(payload)
