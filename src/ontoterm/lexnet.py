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
from .errors import UnknownRefError, UnknownTermError, input_lines, json_text, read_text
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
    dropped.  Terms are indexed by lemma sequence once.  The scan goes left
    to right and resumes after each match, and a match can start only one
    term length before a copula: so only those starts are tried, in order,
    skipping any that an earlier match has passed.  A start costs one byte
    test per distinct term length and one lookup per length that ends at a
    copula: O(copulas × lengths) starts over the documents that hold a
    copula, where a scan of every token would cost O(tokens × lengths).
    """
    by_lemmas: dict[tuple[str, ...], str] = {}
    for label in known_terms:
        seq = tuple(label.split())
        if seq not in by_lemmas or label < by_lemmas[seq]:
            by_lemmas[seq] = label
    lengths = sorted({len(seq) for seq in by_lemmas}, reverse=True)
    det = TAG_CODES[POS.DET]

    found = set()
    for doc in docs:
        copula = doc.copula
        starts = set()
        j = copula.find(1)
        while j >= 0:
            starts.update(j - k for k in lengths if k <= j)
            j = copula.find(1, j + 1)
        lemmas, tags, n = doc.lemmas, doc.tags, len(doc)
        resume = 0  # the end of the last match
        for i in sorted(starts):
            if i < resume:
                continue
            # the longest first term followed by a copula and a second term
            for k in lengths:
                j = i + k
                if j >= n or not copula[j]:
                    continue
                source = by_lemmas.get(lemmas[i:j])
                if source is None:
                    continue
                j += 1
                if j < n and tags[j] == det:
                    j += 1
                for k in lengths:  # the longest second term
                    target = by_lemmas.get(lemmas[j:j + k]) if j + k <= n else None
                    if target is not None:
                        break
                else:
                    continue
                if source != target:
                    found.add((source, target))
                resume = j + k
                break
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
    for lineno, raw in input_lines(text):
        line = raw.strip()
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
    """``parse_decisions`` of the file at ``path``; its errors name the file."""
    try:
        return parse_decisions(read_text(path))
    except UnknownRefError as exc:
        raise UnknownRefError(f"{path}: {exc}") from None


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


#: What precedes each row's status in ``lexnet_to_json``'s text: ``json_text``
#: writes a row's keys sorted, one per line, six spaces deep.  It occurs once
#: per row, since no encoded string holds a raw newline.
_STATUS_LINE = '\n      "status": "'
#: Each status as its row's status line ends: the value and its closing quote.
_QUOTED = {member: member.value + '"' for member in Status}


def _rows(net: LexNet) -> tuple[list[LexicalRelation], list[Term]]:
    """The network's rows in the order ``lexnet_to_json`` writes them: its
    relations by (kind, source, target), then its terms by label (the
    artifact's sorted keys put ``relations`` before ``terms``).  Each row's
    status follows one ``_STATUS_LINE``."""
    return (sorted(net.relations.values(), key=lambda r: (r.kind.value, r.source, r.target)),
            sorted(net.terms.values(), key=lambda t: t.label))


def lexnet_to_json(net: LexNet) -> str:
    relations, terms = _rows(net)
    payload = {
        "terms": [{"label": t.label, "head": t.head, "status": t.status.value} for t in terms],
        "relations": [
            {
                "kind": r.kind.value,
                "source": r.source,
                "target": r.target,
                "evidence": r.evidence.value,
                "evidence_sources": [e.value for e in r.evidence_sources],
                "status": r.status.value,
            }
            for r in relations
        ],
    }
    return json_text(payload)


def rewrite_statuses(text: str, net: LexNet, validated: LexNet) -> str | None:
    """``lexnet_to_json(validated)``, from ``text``, the ``lexnet_to_json`` of
    ``net``, where ``validated`` holds ``net``'s rows with other statuses
    (``apply_validation``'s result): the status of each row whose status
    changed is rewritten in place, and nothing is encoded.  None when the
    status lines of ``text`` do not line up one-to-one with ``net``'s rows,
    each holding its row's status."""
    relations, terms = _rows(net)
    parts = text.split(_STATUS_LINE)
    if len(parts) != len(relations) + len(terms) + 1:
        return None
    new_relations, new_terms = validated.relations, validated.terms
    changes = [(r.status, new_relations[r.kind, r.source, r.target].status) for r in relations]
    changes += [(t.status, new_terms[t.label].status) for t in terms]
    for i, (old, new) in enumerate(changes, 1):
        part, written = parts[i], _QUOTED[old]
        if not part.startswith(written):
            return None
        if new is not old:
            parts[i] = _QUOTED[new] + part[len(written):]
    return _STATUS_LINE.join(parts)


# Value -> member, built once: a dict lookup costs a fraction of an
# ``Enum(value)`` call, and an unknown value raises ``KeyError``.
_STATUSES = {member.value: member for member in Status}
_KINDS = {member.value: member for member in RelationKind}
_EVIDENCE = {member.value: member for member in Evidence}


def lexnet_from_json(text: str) -> LexNet:
    """The network ``lexnet_to_json`` wrote, built in one pass over the
    decoded rows.  A label, head, source or target that is not a string
    raises ``TypeError`` (from one ``str.join``), before any stage reads it."""
    payload = json.loads(text)
    status, evidence = _STATUSES.__getitem__, _EVIDENCE.__getitem__
    terms = {}
    strings = []
    for row in payload["terms"]:
        label, head = row["label"], row["head"]
        strings += label, head
        terms[label] = Term(label, head, status(row["status"]))
    relations = {}
    for row in payload["relations"]:
        kind, source, target = _KINDS[row["kind"]], row["source"], row["target"]
        strings += source, target
        relations[kind, source, target] = LexicalRelation(
            kind, source, target, evidence(row["evidence"]),
            tuple(map(evidence, row["evidence_sources"])), status(row["status"]),
        )
    "".join(strings)
    return LexNet(terms, relations)
