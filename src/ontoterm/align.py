"""Alignment of corpus terms with expert concepts, and structure diffing.

Technical prose abbreviates: a term often names a concept by a shortcut
that drops function words and intermediate genus markers («relais de
tension» for the concept whose full label is «relais à seuil de tension»).
Alignment therefore compares bags of content tokens and accepts a strict
sub-bag as an elliptical match, provided the term's head survives in the
concept label.  Any ambiguity that label evidence cannot settle is
reported, never guessed.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from .errors import json_text, read_text
from .okmodel import OkOntology, subsumes
from .projection import Taxonomy, concept_id

#: Function words dropped when comparing labels.  Deliberately small:
#: «tout», «ou», «rien» and their kind are contentful inside terms.
DEFAULT_STOPWORDS = frozenset(
    {"de", "du", "des", "d", "à", "au", "aux", "la", "le", "les", "l", "un", "une"}
)


def load_stopwords(path: str | Path) -> frozenset[str]:
    words = set()
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            words.add(unicodedata.normalize("NFC", line).lower())
    return frozenset(words)


_TOKEN_SPLIT = re.compile(r"[\s'’]+")


def _content_tokens(label: str, stopwords: frozenset[str]) -> list[str]:
    # apostrophes separate tokens so elided articles («l'», «d'») reduce to
    # their bare stopword forms
    tokens = []
    for token in _TOKEN_SPLIT.split(unicodedata.normalize("NFC", label).lower()):
        if token and token not in stopwords:
            tokens.append(token)
    return tokens


def normalize_label(label: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> Counter[str]:
    """Bag of content tokens: lowercase, NFC, stopwords dropped."""
    return Counter(_content_tokens(label, stopwords))


class AlignKind(str, Enum):
    EXACT = "EXACT"
    DECLARED = "DECLARED"
    ELLIPSIS = "ELLIPSIS"
    AMBIGUOUS = "AMBIGUOUS"
    UNMATCHED = "UNMATCHED"


@dataclass(frozen=True)
class AlignmentResult:
    term: str
    kind: AlignKind
    concept: str | None = None
    candidates: tuple[str, ...] = ()


@lru_cache(maxsize=4)
def _concept_index(
    names: tuple[str, ...], stopwords: frozenset[str]
) -> tuple[dict[str, tuple[tuple[str, int], ...]], dict[str, tuple[str, ...]]]:
    """Each concept's content bag, and the concepts holding each content
    token, in declaration order.

    A bag is sorted ``(token, count)`` pairs shared across concepts, which
    keeps the index smaller than one ``Counter`` per concept would be.  The
    memo key is the concept names and stopwords, not the ontology object:
    the align and index stages each parse their own equal ontology, and
    both read one index.
    """
    shared: dict[tuple[str, int], tuple[str, int]] = {}
    bags = {}
    holders: dict[str, list[str]] = {}
    for name in names:
        bag = tuple(
            shared.setdefault(pair, pair)
            for pair in sorted(Counter(_content_tokens(name, stopwords)).items())
        )
        bags[name] = bag
        for token, _ in bag:
            holders.setdefault(token, []).append(name)
    return bags, {token: tuple(names) for token, names in holders.items()}


def _aligner(ontology: OkOntology, stopwords: frozenset[str]):
    """``align(term, head)`` over the memoised index of ``ontology``."""
    bags, holders_of = _concept_index(tuple(ontology.concepts), stopwords)
    declared = {concept_id(t): c for t, c in ontology.denotation.items()}

    def align(term: str, head: str | None) -> AlignmentResult:
        target = declared.get(concept_id(term))
        if target is not None and target in ontology.concepts:
            return AlignmentResult(term, AlignKind.DECLARED, target)

        tokens = _content_tokens(term, stopwords)
        if not tokens:
            return AlignmentResult(term, AlignKind.UNMATCHED)
        bag = tuple(sorted(Counter(tokens).items()))
        if head is None:
            head = tokens[0]
        else:
            head = unicodedata.normalize("NFC", head).lower()

        # an exact or elliptical match holds every token of the term, so
        # the holders of its rarest token are all the candidates there are
        holders = min((holders_of.get(token, ()) for token, _ in bag), key=len)
        exact = [name for name in holders if bags[name] == bag]
        if len(exact) == 1:
            return AlignmentResult(term, AlignKind.EXACT, exact[0])

        sub = []
        for name in holders:
            cbag = bags[name]
            counts = dict(cbag)
            if cbag != bag and head in counts and all(counts.get(t, 0) >= n for t, n in bag):
                sub.append(name)
        sub.sort()
        if len(sub) == 1:
            return AlignmentResult(term, AlignKind.ELLIPSIS, sub[0])
        if len(sub) > 1:
            chain = sorted(sub, key=ontology.depth)
            on_one_chain = all(
                subsumes(ontology, chain[i], chain[i + 1]) for i in range(len(chain) - 1)
            )
            if on_one_chain:
                return AlignmentResult(term, AlignKind.ELLIPSIS, chain[-1])
            return AlignmentResult(term, AlignKind.AMBIGUOUS, candidates=tuple(sub))
        return AlignmentResult(term, AlignKind.UNMATCHED)

    return align


def align_term(
    term: str,
    ontology: OkOntology,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    head: str | None = None,
) -> AlignmentResult:
    """Resolve a term label against the concept tree.

    Resolution order: a declared denotation wins; then a unique exact
    content-bag match; then an elliptical match (strict sub-bag containing
    the term's head token); several elliptical candidates are accepted
    only when they sit on one genus chain, in which case the deepest, most
    specific one is chosen; otherwise the term stays AMBIGUOUS.  ``head``
    defaults to the first content token, which is the head position of the
    noun phrases this pipeline extracts.

    Concept bags come from an index memoised on the concept names, in
    declaration order, and the stopwords; it is built in O(concepts) once
    per key.  A call costs O(concepts) to form that key, O(declared terms)
    to read the denotation, and O(holders) for the concepts holding the
    term's rarest content token; denotation, depths and subsumption are
    read from the live ontology on every call.
    """
    return _aligner(ontology, stopwords)(term, head)


def ontology_alignments(
    terms: Iterable[str],
    ontology: OkOntology,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    heads: Mapping[str, str] | None = None,
) -> dict[str, AlignmentResult]:
    """``align_term`` for every term, sharing one index and denotation map."""
    heads = heads or {}
    align = _aligner(ontology, stopwords)
    return {t: align(t, heads.get(t)) for t in terms}


def taxonomy_alignments(taxonomy: Taxonomy) -> dict[str, AlignmentResult]:
    """The identity alignment: every denoting term maps to its own concept."""
    out = {}
    for concept in taxonomy.concepts.values():
        for term in concept.denoting_terms:
            out[term] = AlignmentResult(term, AlignKind.EXACT, concept.id)
    return out


class Verdict(str, Enum):
    AGREE = "AGREE"
    PARENT_ELIDED = "PARENT_ELIDED"
    CONFLICT = "CONFLICT"
    UNALIGNED = "UNALIGNED"


@dataclass(frozen=True)
class DiscrepancyEntry:
    term: str
    projected_parent: str | None
    ok_parent_chain: tuple[str, ...]
    verdict: Verdict


@dataclass
class DiscrepancyReport:
    entries: list[DiscrepancyEntry]

    def verdict_counts(self) -> dict[str, int]:
        counts = {v.value: 0 for v in Verdict}
        for entry in self.entries:
            counts[entry.verdict.value] += 1
        return counts


_VERDICT_PRIORITY = {
    Verdict.AGREE: 0,
    Verdict.PARENT_ELIDED: 1,
    Verdict.CONFLICT: 2,
    Verdict.UNALIGNED: 3,
}


def compare_structures(
    taxonomy: Taxonomy,
    ontology: OkOntology,
    alignments: Mapping[str, AlignmentResult],
) -> DiscrepancyReport:
    """Diff the projected taxonomy against the expert tree, one entry per
    non-root projected concept.

    A term AGREEs when its projected parent aligns to its concept's
    immediate genus; PARENT_ELIDED means the corpus skipped intermediate
    genera (the parent aligns further up the chain); anything off the chain
    is a CONFLICT.  On multi-parent taxonomies the most favorable parent
    decides and is the one reported.
    """
    entries = []
    for cid in sorted(taxonomy.concepts):
        concept = taxonomy.concepts[cid]
        parent_ids = taxonomy.parents(cid)
        if not parent_ids:
            continue  # root
        own = alignments.get(concept.label)
        if own is None or own.concept is None:
            entries.append(DiscrepancyEntry(concept.label, None, (), Verdict.UNALIGNED))
            continue
        chain = tuple(ontology.genus_chain(own.concept))
        best: tuple[Verdict, str | None] = (Verdict.UNALIGNED, None)
        for pid in parent_ids:
            parent_label = taxonomy.concepts[pid].label
            parent_alignment = alignments.get(parent_label)
            if parent_alignment is None or parent_alignment.concept is None:
                verdict = Verdict.UNALIGNED
            elif chain and parent_alignment.concept == chain[0]:
                verdict = Verdict.AGREE
            elif parent_alignment.concept in chain[1:]:
                verdict = Verdict.PARENT_ELIDED
            else:
                verdict = Verdict.CONFLICT
            if _VERDICT_PRIORITY[verdict] < _VERDICT_PRIORITY[best[0]] or best[1] is None:
                best = (verdict, parent_label)
        entries.append(DiscrepancyEntry(concept.label, best[1], chain, best[0]))
    return DiscrepancyReport(entries)


def alignments_to_json(alignments: Mapping[str, AlignmentResult]) -> list[dict]:
    return [
        {
            "term": r.term,
            "kind": r.kind.value,
            "concept": r.concept,
            "candidates": list(r.candidates),
        }
        for _, r in sorted(alignments.items())
    ]


def report_to_json(report: DiscrepancyReport) -> list[dict]:
    return [
        {
            "term": e.term,
            "projected_parent": e.projected_parent,
            "ok_parent_chain": list(e.ok_parent_chain),
            "verdict": e.verdict.value,
        }
        for e in sorted(report.entries, key=lambda e: e.term)
    ]


def alignment_artifact(
    alignments: Mapping[str, AlignmentResult], report: DiscrepancyReport
) -> str:
    payload = {
        "alignments": alignments_to_json(alignments),
        "discrepancies": report_to_json(report),
        "verdict_counts": report.verdict_counts(),
    }
    return json_text(payload)
