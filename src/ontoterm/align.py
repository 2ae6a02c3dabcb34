"""Alignment of corpus terms with expert concepts, and structure diffing.

Technical prose abbreviates: a term often names a concept by a shortcut
that drops function words and intermediate genus markers («relais de
tension» for the concept whose full label is «relais à seuil de tension»).
Alignment therefore compares bags of content tokens and accepts, as an
elliptical match, a concept label whose bag holds the term's as a strict
sub-bag; the term's head, its first content token, is in the term's bag,
so it survives in the concept label.  Any ambiguity that label evidence
cannot settle is reported, never guessed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from .errors import fold, input_lines, json_text, read_text
from .okmodel import OkOntology, subsumes
from .projection import Taxonomy, concept_id

#: Function words dropped when comparing labels.  Deliberately small:
#: «tout», «ou», «rien» and their kind are contentful inside terms.
DEFAULT_STOPWORDS = frozenset(
    {"de", "du", "des", "d", "à", "au", "aux", "la", "le", "les", "l", "un", "une"}
)


def load_stopwords(path: str | Path) -> frozenset[str]:
    return frozenset(fold(line.strip()) for _, line in input_lines(read_text(path)))


def _content_tokens(folded: str, stopwords: frozenset[str]) -> list[str]:
    """The content tokens of a ``fold``ed label.  Apostrophes separate
    tokens, so elided articles («l'», «d'») reduce to their bare stopword
    forms; ``str.split`` splits on the characters the regex ``\\s`` matches."""
    tokens = []
    for token in folded.replace("'", " ").replace("’", " ").split():
        if token not in stopwords:
            tokens.append(token)
    return tokens


def _bag(tokens: list[str]) -> tuple[tuple[str, int], ...]:
    """A content bag as sorted ``(token, count)`` pairs: hashable, and
    cheaper to build for a few tokens than a sorted ``Counter``."""
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return tuple(sorted(counts.items()))


def normalize_label(label: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> Counter[str]:
    """Bag of content tokens: lowercase, NFC, stopwords dropped."""
    return Counter(_content_tokens(fold(label), stopwords))


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


#: A concept bag as sorted ``(token, count)`` pairs (see ``_bag``).
Bag = tuple[tuple[str, int], ...]


@lru_cache(maxsize=4)
def _concept_index(
    names: tuple[str, ...], stopwords: frozenset[str]
) -> tuple[dict[str, Bag], dict[str, tuple[str, ...]], dict[Bag, str | None]]:
    """Each concept's content bag, the concepts holding each content token
    in declaration order, and the one concept holding each bag (``None``
    when several do).

    A bag is sorted ``(token, count)`` pairs shared across concepts, which
    keeps the index smaller than one ``Counter`` per concept would be.  The
    memo key is the concept names and stopwords, not the ontology object:
    the align and index stages each parse their own equal ontology, and
    both read one index.  ``_index_of`` reads it once per ontology and
    stopword set, and keeps what it read on the ontology.
    """
    shared: dict[tuple[str, int], tuple[str, int]] = {}
    bags = {}
    holders: dict[str, list[str]] = {}
    by_bag: dict[Bag, str | None] = {}
    for name in names:
        bag = tuple(
            shared.setdefault(pair, pair) for pair in _bag(_content_tokens(fold(name), stopwords))
        )
        bags[name] = bag
        by_bag[bag] = None if bag in by_bag else name
        for token, _ in bag:
            holders.setdefault(token, []).append(name)
    return bags, {token: tuple(names) for token, names in holders.items()}, by_bag


def _index_of(ontology: OkOntology, stopwords: frozenset[str]) -> tuple:
    """The alignment index of ``ontology`` under ``stopwords``: its
    concepts' bags, each token's holders, each bag's one concept and the
    declared denotations keyed by ``concept_id``.

    It is kept on the ontology, one entry per stopword set, in a table made
    on first use, so a ``replace``d variant starts with none: an
    ``OkOntology`` is immutable, so an entry never goes stale.  The entry
    holds data only, and ``_resolve`` reads it as an argument, so the
    ontology is never part of a reference cycle."""
    memo = vars(ontology).setdefault("_align_index", {})
    data = memo.get(stopwords)
    if data is None:
        declared = {concept_id(t): c for t, c in ontology.denotation.items()}
        data = memo[stopwords] = (*_concept_index(tuple(ontology.concepts), stopwords), declared)
    return data


def _resolve(
    term: str, ontology: OkOntology, stopwords: frozenset[str], data: tuple
) -> AlignmentResult:
    """``align_term(term, ontology, stopwords)`` over ``_index_of``'s ``data``."""
    bags, holders_of, by_bag, declared = data
    folded = fold(term)
    target = declared.get(" ".join(folded.split()))  # concept_id(term), from the one fold
    if target is not None and target in ontology.concepts:
        return AlignmentResult(term, AlignKind.DECLARED, target)

    tokens = _content_tokens(folded, stopwords)
    if not tokens:
        return AlignmentResult(term, AlignKind.UNMATCHED)
    bag = _bag(tokens)
    exact = by_bag.get(bag)
    if exact is not None:
        return AlignmentResult(term, AlignKind.EXACT, exact)

    # the holders of the term's rarest token are all the candidates there
    # are; an elliptical match holds every token of the term, so a term with
    # a token no concept holds matches none
    holders = None
    for token, _ in bag:
        held = holders_of.get(token)
        if held is None:
            return AlignmentResult(term, AlignKind.UNMATCHED)
        if holders is None or len(held) < len(holders):
            holders = held
    sub = []
    for name in holders:
        cbag = bags[name]
        if cbag == bag:
            continue
        counts = dict(cbag)
        for token, n in bag:
            if counts.get(token, 0) < n:
                break
        else:
            sub.append(name)
    sub.sort()
    if len(sub) == 1:
        return AlignmentResult(term, AlignKind.ELLIPSIS, sub[0])
    if len(sub) > 1:
        chain = sorted(sub, key=ontology.depth)
        for i in range(len(chain) - 1):
            if not subsumes(ontology, chain[i], chain[i + 1]):
                return AlignmentResult(term, AlignKind.AMBIGUOUS, candidates=tuple(sub))
        return AlignmentResult(term, AlignKind.ELLIPSIS, chain[-1])
    return AlignmentResult(term, AlignKind.UNMATCHED)


def align_term(
    term: str,
    ontology: OkOntology,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> AlignmentResult:
    """Resolve a term label against the concept tree.

    Resolution order: a declared denotation wins; then a unique exact
    content-bag match; then an elliptical match, a concept whose bag holds
    the term's as a strict sub-bag; several elliptical candidates are
    accepted only when they sit on one genus chain, in which case the
    deepest, most specific one is chosen; otherwise the term stays
    AMBIGUOUS.  The term's first content token, the head position of the
    noun phrases this pipeline extracts, is in its bag, so every elliptical
    target holds the term's head.

    Concept bags come from an index built in O(concepts) once per concept
    names and stopwords, and kept on the ontology with its declared
    denotations.  After the first call on an ontology and stopword set, a
    call folds the term once (NFC, then lowercase): the declared-denotation
    key and the content tokens both come from that fold, split by string
    methods.  It then costs O(term tokens) up to a unique exact match, and
    O(holders) more, for the concepts holding the term's rarest content
    token, otherwise; depths and subsumption are read from the ontology.
    """
    return _resolve(term, ontology, stopwords, _index_of(ontology, stopwords))


def ontology_alignments(
    terms: Iterable[str],
    ontology: OkOntology,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> dict[str, AlignmentResult]:
    """``align_term`` for every term, sharing one index and denotation map."""
    data = _index_of(ontology, stopwords)
    return {t: _resolve(t, ontology, stopwords, data) for t in terms}


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
            "candidates": r.candidates,
        }
        for _, r in sorted(alignments.items())
    ]


def report_to_json(report: DiscrepancyReport) -> list[dict]:
    return [
        {
            "term": e.term,
            "projected_parent": e.projected_parent,
            "ok_parent_chain": e.ok_parent_chain,
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
