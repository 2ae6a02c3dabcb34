"""Concept-indexed document retrieval over either conceptual structure.

Documents are annotated with the concepts their terms align to; querying a
concept returns the documents of that concept and of every concept it
subsumes.  Running the same query against the projected taxonomy and the
expert tree makes the structural difference directly measurable.

A ``DocIndex`` answers from a table of closed posting lists (each
concept's documents together with those of everything below it), filled
bottom-up on first use per concept and kept for one structure at a time,
so a query does not walk the closure again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .align import AlignmentResult, DEFAULT_STOPWORDS, align_term
from .corpus import Document, TermCandidate
from .errors import ArtifactError, UnknownConceptError, UnresolvableLabelError, json_text
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
    ``docs_by_concept`` maps each concept to its documents.  Both are built
    once from (document, concept) pairs or ``DocAnnotation``s, each pair
    kept once; read them, never mutate them.  ``annotations`` is a view
    derived from them, built on each access.

    ``closed_docs`` answers ``query`` and ``compare_recall`` from a table of
    closed posting lists for the structure last asked about.  The index and
    both structures are immutable values, so an entry, once filled, never
    goes stale; asking about another structure starts a new table.
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
        self.concepts_by_doc, self.docs_by_concept = by_doc, by_concept
        self.unannotated_docs = tuple(unannotated_docs)
        self.skipped_ambiguous = tuple(skipped_ambiguous)
        # (structure, concept → closed posting list), swapped as one value
        self._closed: tuple[Structure, dict[str, Sequence[str]]] | None = None

    def closed_docs(self, structure: Structure, concept: str) -> Sequence[str]:
        """The documents of ``concept`` and of every concept it subsumes in
        ``structure``, each once, in no set order; read it, never mutate it.

        The first call for a concept fills the entries of its sub-DAG that
        are missing, bottom-up by an iterative post-order walk over
        ``structure.children_view()``: O(postings and edges of the sub-DAG).
        After that it is a lookup.  An entry is a leaf's own posting list,
        shared, or a tuple: the union of the concept's postings and its
        children's entries.
        """
        if concept not in structure:
            raise UnknownConceptError(f"unknown concept: {concept!r}")
        memo = self._closed
        if memo is None or memo[0] is not structure:
            memo = self._closed = (structure, {})
        table = memo[1]
        if concept in table:
            return table[concept]
        children, postings = structure.children_view(), self.docs_by_concept
        stack = [concept]
        while stack:
            node = stack[-1]
            if node in table:  # reached again through another parent
                stack.pop()
                continue
            kids = children.get(node, ())
            missing = [kid for kid in kids if kid not in table]
            if missing:
                stack += missing
                continue
            stack.pop()
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
    corpus: Sequence[Document],
    candidates: Sequence[TermCandidate],
    structure: Structure,
    alignments: Mapping[str, AlignmentResult],
) -> DocIndex:
    """Annotate documents from term occurrences.

    Every occurrence of an aligned term yields one (document, concept)
    annotation.  Ambiguous terms contribute nothing (silent guessing would
    make results unattributable) and documents left without any annotation
    are listed so the gap is visible.
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
    unannotated = sorted(d.id for d in corpus if d.id not in covered)
    return DocIndex(pairs, unannotated, sorted(skipped))


def query(index: DocIndex, structure: Structure, concept: str) -> set[str]:
    """Documents of ``concept`` and of every concept it subsumes, as a new
    set: O(answer) once ``index.closed_docs`` holds the concept's entry."""
    return set(index.closed_docs(structure, concept))


def resolve_label(
    structure: Structure, label: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> str | None:
    """Map a human-entered concept label to a structure-internal id."""
    if isinstance(structure, Taxonomy):
        cid = concept_id(label)
        return cid if cid in structure.concepts else None
    result = align_term(label, structure, stopwords)
    return result.concept


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
    closure is computed once, for the explanations."""
    resolved = []
    for structure in (structure_a, structure_b):
        concept = resolve_label(structure, concept_label, stopwords)
        if concept is None:
            raise UnresolvableLabelError(
                f"label {concept_label!r} is not resolvable in the "
                f"{structure_name(structure)} structure"
            )
        resolved.append(concept)
    concept_a, concept_b = resolved
    closure_a = structure_a.subsumed_closure(concept_a)
    closure_b = structure_b.subsumed_closure(concept_b)
    docs_a = set(index_a.closed_docs(structure_a, concept_a))
    docs_b = set(index_b.closed_docs(structure_b, concept_b))
    by_doc_a, by_doc_b = index_a.concepts_by_doc, index_b.concepts_by_doc
    explanations = {}
    for doc in sorted(docs_a | docs_b):
        explanations[doc] = {
            "a": tuple(c for c in by_doc_a.get(doc, ()) if c in closure_a),
            "b": tuple(c for c in by_doc_b.get(doc, ()) if c in closure_b),
        }
    return RecallComparison(
        concept_label=concept_label,
        concept_a=concept_a,
        concept_b=concept_b,
        docs_a=tuple(sorted(docs_a)),
        docs_b=tuple(sorted(docs_b)),
        only_a=tuple(sorted(docs_a - docs_b)),
        only_b=tuple(sorted(docs_b - docs_a)),
        symmetric_difference=tuple(sorted(docs_a ^ docs_b)),
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


def index_from_json_obj(payload: dict) -> DocIndex:
    pairs = []
    for row in payload["annotations"]:
        if row.get("source") != _SOURCE:
            raise ArtifactError(
                f"annotation of {row.get('doc_id')!r} has source {row.get('source')!r}, "
                f"expected {_SOURCE!r}"
            )
        pairs.append((row["doc_id"], row["concept"]))
    return DocIndex(
        pairs, payload.get("unannotated_docs", ()), payload.get("skipped_ambiguous", ())
    )


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
