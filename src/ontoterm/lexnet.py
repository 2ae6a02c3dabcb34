"""Lexical network: terms and typed linguistic relations with evidence.

Relations are mined from the corpus (same-head inclusion, copula sentences)
or declared by hand, and every term and relation carries a validation
status so that an expert pass separates candidate material from the
structure later projected into concepts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import POS, TAG_CODES, DocTokens, TermCandidate
from .errors import UnknownRefError, UnknownTermError, json_text, read_text
from .graph import find_cycle


class Status(str, Enum):
    CANDIDATE = "CANDIDATE"
    VALIDATED = "VALIDATED"
    REJECTED = "REJECTED"


class RelationKind(str, Enum):
    HYPONYMY = "HYPONYMY"
    SYNONYMY = "SYNONYMY"
    MERONYMY = "MERONYMY"


class Evidence(str, Enum):
    SAME_HEAD = "SAME_HEAD"
    COPULA_PATTERN = "COPULA_PATTERN"
    DECLARED = "DECLARED"


# Declared evidence outranks corpus patterns; copula sentences outrank
# bare head sharing.
_EVIDENCE_RANK = {Evidence.SAME_HEAD: 0, Evidence.COPULA_PATTERN: 1, Evidence.DECLARED: 2}

_STATUS_RANK = {Status.CANDIDATE: 0, Status.REJECTED: 1, Status.VALIDATED: 2}


@dataclass(frozen=True)
class Term:
    label: str
    head: str
    status: Status = Status.CANDIDATE


@dataclass(frozen=True)
class LexicalRelation:
    kind: RelationKind
    source: str
    target: str
    evidence: Evidence
    evidence_sources: tuple[Evidence, ...] = ()
    status: Status = Status.CANDIDATE

    def __post_init__(self):
        if not self.evidence_sources:
            object.__setattr__(self, "evidence_sources", (self.evidence,))

    @property
    def key(self) -> tuple[RelationKind, str, str]:
        return (self.kind, self.source, self.target)


@dataclass
class LexNet:
    terms: dict[str, Term]
    relations: dict[tuple[RelationKind, str, str], LexicalRelation]

    def incident(self, label: str) -> list[LexicalRelation]:
        return [r for r in self.relations.values() if label in (r.source, r.target)]

    def validated_terms(self) -> list[Term]:
        return [t for t in self.terms.values() if t.status is Status.VALIDATED]

    def relations_of(self, kind: RelationKind, status: Status | None = None) -> list[LexicalRelation]:
        out = [r for r in self.relations.values() if r.kind is kind]
        if status is not None:
            out = [r for r in out if r.status is status]
        return sorted(out, key=lambda r: (r.source, r.target))

    def contradictions(self) -> list[tuple[str, str]]:
        """Pairs asserted as hyponyms of each other; left for the expert."""
        pairs = set()
        for r in self.relations.values():
            if r.kind is not RelationKind.HYPONYMY or r.status is Status.REJECTED:
                continue
            reverse = (RelationKind.HYPONYMY, r.target, r.source)
            other = self.relations.get(reverse)
            if other is not None and other.status is not Status.REJECTED:
                pairs.add(tuple(sorted((r.source, r.target))))
        return sorted(pairs)


def terms_from_candidates(candidates: Iterable[TermCandidate]) -> list[Term]:
    return [Term(c.label, c.head_lemma) for c in candidates]


def same_head_hyponyms(candidates: Sequence[TermCandidate]) -> list[LexicalRelation]:
    """Mine hyponymy edges from head sharing.

    A multi-word candidate is a hyponym of the candidate whose full label
    equals its head lemma.  The rule is flat on purpose: «relais à seuil de
    tension» points at «relais», never at «relais à seuil»: linking
    intermediate levels is conceptual work, not lexical evidence.
    """
    by_label = {c.label: c for c in candidates}
    edges = []
    for cand in candidates:
        shorter = by_label.get(cand.head_lemma)
        if shorter is None or shorter.label == cand.label:
            continue
        if len(cand.lemmas) > len(shorter.lemmas):
            edges.append(
                LexicalRelation(RelationKind.HYPONYMY, cand.label, shorter.label, Evidence.SAME_HEAD)
            )
    edges.sort(key=lambda r: (r.source, r.target))
    return edges


def copula_relations(
    docs: Iterable[DocTokens], known_terms: Iterable[str]
) -> list[LexicalRelation]:
    """Mine hyponymy from ``TermA est/sont TermB`` sentences.

    Matching is surface-level over lemma sequences with an optional
    determiner before the second term; the longest known term wins at each
    position (a label's lemmas are its whitespace-split words, and labels
    sharing one lemma sequence resolve to the smallest) and self-loops are
    dropped.  Terms are indexed by lemma sequence once, so each position
    costs one lookup per distinct term length: O(tokens × lengths), over
    the documents that hold a copula.
    """
    by_lemmas: dict[tuple[str, ...], str] = {}
    for label in known_terms:
        seq = tuple(label.split())
        if seq not in by_lemmas or label < by_lemmas[seq]:
            by_lemmas[seq] = label
    lengths = sorted({len(seq) for seq in by_lemmas}, reverse=True)

    found = set()
    for doc in docs:
        copula = doc.copula
        if 1 not in copula:
            continue
        lemmas, tags, n = doc.lemmas, doc.tags, len(doc)

        def term_at(i: int, stop: int):
            """Labels starting at ``i`` and ending at or before ``stop``,
            longest first, with their end positions."""
            for k in lengths:
                if i + k <= stop:
                    label = by_lemmas.get(lemmas[i:i + k])
                    if label is not None:
                        yield label, i + k

        i = 0
        while i < n:
            hit = None
            # the first term must leave room for the copula after it
            for label_a, j in term_at(i, n - 1):
                if not copula[j]:
                    continue
                j += 1
                if j < n and tags[j] == TAG_CODES[POS.DET]:
                    j += 1
                second = next(term_at(j, n), None)
                if second is not None:
                    hit = (label_a, *second)
                    break
            if hit is None:
                i += 1
            else:
                source, target, end = hit
                if source != target:
                    found.add((source, target))
                i = end
    return [
        LexicalRelation(RelationKind.HYPONYMY, s, t, Evidence.COPULA_PATTERN)
        for s, t in sorted(found)
    ]


def _merge(existing: LexicalRelation, new: LexicalRelation) -> LexicalRelation:
    sources = tuple(sorted(set(existing.evidence_sources) | set(new.evidence_sources)))
    strongest = max(sources, key=_EVIDENCE_RANK.__getitem__)
    status = max((existing.status, new.status), key=_STATUS_RANK.__getitem__)
    return replace(existing, evidence=strongest, evidence_sources=sources, status=status)


def build_network(
    terms: Iterable[Term],
    relations: Iterable[LexicalRelation] = (),
    synonym_declarations: Iterable[tuple[str, str]] = (),
) -> LexNet:
    """Assemble a deduplicated network.

    Identical edges merge keeping all evidence tags and the strongest one as
    primary; synonymy (declared or passed in) is stored in both directions.
    """
    term_map = {}
    for t in terms:
        term_map[t.label] = t
    rel_map: dict[tuple[RelationKind, str, str], LexicalRelation] = {}

    def add(rel: LexicalRelation) -> None:
        for endpoint in (rel.source, rel.target):
            if endpoint not in term_map:
                raise UnknownTermError(f"relation endpoint is not a known term: {endpoint!r}")
        if rel.source == rel.target:
            return
        existing = rel_map.get(rel.key)
        rel_map[rel.key] = _merge(existing, rel) if existing is not None else rel
        if rel.kind is RelationKind.SYNONYMY:
            mirror = replace(rel, source=rel.target, target=rel.source)
            existing = rel_map.get(mirror.key)
            rel_map[mirror.key] = _merge(existing, mirror) if existing is not None else mirror

    for rel in relations:
        add(rel)
    for a, b in synonym_declarations:
        add(LexicalRelation(RelationKind.SYNONYMY, a, b, Evidence.DECLARED))
    return LexNet(term_map, rel_map)


_DECISION_TERM = re.compile(r'^(validate|reject)\s+term\s+"([^"]+)"$')
_DECISION_REL = re.compile(r'^(validate|reject)\s+relation\s+(\w+)\s+"([^"]+)"\s+"([^"]+)"$')


def parse_decisions(text: str) -> list[tuple[str, ...]]:
    decisions = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _DECISION_TERM.match(line)
        if m:
            decisions.append(("term", m.group(1), m.group(2)))
            continue
        m = _DECISION_REL.match(line)
        if m:
            verb, kind, src, dst = m.groups()
            try:
                rel_kind = RelationKind(kind.upper())
            except ValueError:
                raise UnknownRefError(f"line {lineno}: unknown relation kind {kind!r}") from None
            decisions.append(("relation", verb, rel_kind, src, dst))
            continue
        raise UnknownRefError(f"line {lineno}: cannot parse decision: {line!r}")
    return decisions


def load_decisions(path: str | Path) -> list[tuple[str, ...]]:
    return parse_decisions(read_text(path))


def apply_validation(net: LexNet, decisions: Sequence[tuple[str, ...]]) -> LexNet:
    """Apply expert decisions and return the updated network.

    Rejecting a term cascade-rejects its incident relations.  Validating a
    relation lifts CANDIDATE endpoints to VALIDATED as well (an approved
    edge only makes sense between approved terms) but never resurrects a
    REJECTED one; the final cascade keeps rejection authoritative.
    """
    terms = dict(net.terms)
    relations = dict(net.relations)

    def set_relation(key, status):
        relations[key] = replace(relations[key], status=status)

    for decision in decisions:
        if decision[0] == "term":
            _, verb, label = decision
            if label not in terms:
                raise UnknownRefError(f"unknown term: {label!r}")
            status = Status.VALIDATED if verb == "validate" else Status.REJECTED
            terms[label] = replace(terms[label], status=status)
        else:
            _, verb, kind, src, dst = decision
            key = (kind, src, dst)
            if key not in relations:
                raise UnknownRefError(f"unknown relation: {kind.value} {src!r} -> {dst!r}")
            status = Status.VALIDATED if verb == "validate" else Status.REJECTED
            set_relation(key, status)
            if kind is RelationKind.SYNONYMY and (kind, dst, src) in relations:
                set_relation((kind, dst, src), status)
            if status is Status.VALIDATED:
                for endpoint in (src, dst):
                    if terms[endpoint].status is Status.CANDIDATE:
                        terms[endpoint] = replace(terms[endpoint], status=Status.VALIDATED)

    rejected = {label for label, t in terms.items() if t.status is Status.REJECTED}
    for key, rel in relations.items():
        if rel.status is not Status.REJECTED and (rel.source in rejected or rel.target in rejected):
            relations[key] = replace(rel, status=Status.REJECTED)
    return LexNet(terms, relations)


def find_validated_hyponymy_cycle(net: LexNet) -> list[str] | None:
    """Return the labels of one cycle in validated hyponymy, if any."""
    return find_cycle(
        (r.source, r.target) for r in net.relations_of(RelationKind.HYPONYMY, Status.VALIDATED)
    )


def lexnet_to_json(net: LexNet) -> str:
    payload = {
        "terms": [
            {"label": t.label, "head": t.head, "status": t.status.value}
            for t in sorted(net.terms.values(), key=lambda t: t.label)
        ],
        "relations": [
            {
                "kind": r.kind.value,
                "source": r.source,
                "target": r.target,
                "evidence": r.evidence.value,
                "evidence_sources": [e.value for e in r.evidence_sources],
                "status": r.status.value,
            }
            for r in sorted(net.relations.values(), key=lambda r: (r.kind.value, r.source, r.target))
        ],
    }
    return json_text(payload)


def lexnet_from_json(text: str) -> LexNet:
    payload = json.loads(text)
    terms = {
        row["label"]: Term(row["label"], row["head"], Status(row["status"]))
        for row in payload["terms"]
    }
    relations = {}
    for row in payload["relations"]:
        rel = LexicalRelation(
            RelationKind(row["kind"]),
            row["source"],
            row["target"],
            Evidence(row["evidence"]),
            tuple(Evidence(e) for e in row["evidence_sources"]),
            Status(row["status"]),
        )
        relations[rel.key] = rel
    return LexNet(terms, relations)
