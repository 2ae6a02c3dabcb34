"""Projection of the validated lexical network into a candidate taxonomy.

One concept per validated term (synonyms collapse into a single concept),
one subsumption edge per validated hyponymy edge.  The result is a DAG of
labeled concepts with provenance back to the denoting terms: a candidate
conceptual structure, nothing more.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import CycleError, UnknownConceptError, json_text
from .graph import acyclic, descendants, find_cycle
from .lexnet import LexNet, RelationKind, Status, find_validated_hyponymy_cycle


def concept_id(label: str) -> str:
    """Stable join key: NFC, lowercased, whitespace collapsed."""
    normalized = unicodedata.normalize("NFC", label).lower()
    return re.sub(r"\s+", " ", normalized).strip()


@dataclass(frozen=True)
class Concept:
    id: str
    label: str
    denoting_terms: tuple[str, ...]


@dataclass
class Taxonomy:
    """Concepts and (child, parent) edges as a value: both are fixed when it
    is built, and the edges are indexed once, child → sorted parents and
    parent → sorted children.

    The edges form a DAG: building one raises ``ValueError`` when an edge
    names an unknown concept or when the edges hold a cycle (one cycle is
    named), O(concepts + edges) on top of the index."""

    concepts: Mapping[str, Concept] = field(default_factory=dict)
    subsumption: frozenset[tuple[str, str]] = frozenset()  # (child, parent)

    def __post_init__(self) -> None:
        self.concepts = MappingProxyType(dict(self.concepts))
        self.subsumption = frozenset(self.subsumption)
        dangling = sorted({cid for edge in self.subsumption for cid in edge} - self.concepts.keys())
        if dangling:
            raise ValueError(f"subsumption names unknown concepts: {dangling}")
        self._parents, children = {}, {}
        for child, parent in sorted(self.subsumption):
            self._parents.setdefault(child, []).append(parent)
            children.setdefault(parent, []).append(child)
        self._children = {parent: tuple(kids) for parent, kids in children.items()}
        if not acyclic(self._children, self.concepts):
            raise ValueError("subsumption cycle: " + " -> ".join(find_cycle(self.subsumption)))

    def __contains__(self, cid: str) -> bool:
        return cid in self.concepts

    @property
    def roots(self) -> list[str]:
        return sorted(cid for cid in self.concepts if cid not in self._parents)

    def parents(self, cid: str) -> list[str]:
        return list(self._parents.get(cid, ()))

    def children_view(self) -> Mapping[str, tuple[str, ...]]:
        """Parent → its children, sorted, built with the taxonomy; concepts
        without children are absent.  The view is shared: read it, never
        mutate it."""
        return self._children

    def children(self, cid: str) -> list[str]:
        return list(self._children.get(cid, ()))

    def subsumed_closure(self, cid: str) -> set[str]:
        """The concept plus everything it subsumes (reflexive-transitive): O(answer)."""
        if cid not in self.concepts:
            raise UnknownConceptError(f"unknown concept: {cid!r}")
        return descendants(self._children, cid)


def _synonym_groups(net: LexNet, validated_labels: set[str]) -> dict[str, list[str]]:
    parent: dict[str, str] = {label: label for label in validated_labels}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rel in net.relations_of(RelationKind.SYNONYMY, Status.VALIDATED):
        if rel.source in validated_labels and rel.target in validated_labels:
            ra, rb = find(rel.source), find(rel.target)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups: dict[str, list[str]] = {}
    for label in validated_labels:
        groups.setdefault(find(label), []).append(label)
    return {rep: sorted(members) for rep, members in groups.items()}


def project(net: LexNet) -> Taxonomy:
    """Project validated material into a taxonomy.

    Candidate and rejected terms or edges are excluded.  Raises CycleError,
    naming the labels involved, when validated hyponymy is cyclic (also
    after synonym collapse, which can merge endpoints).
    """
    cycle = find_validated_hyponymy_cycle(net)
    if cycle:
        raise CycleError("hyponymy cycle: " + " -> ".join(cycle))

    validated = {t.label for t in net.validated_terms()}
    groups = _synonym_groups(net, validated)
    rep_of = {member: rep for rep, members in groups.items() for member in members}

    concepts = {}
    for rep, members in groups.items():
        cid = concept_id(rep)
        concepts[cid] = Concept(cid, rep, tuple(members))

    edges = set()
    for rel in net.relations_of(RelationKind.HYPONYMY, Status.VALIDATED):
        if rel.source not in validated or rel.target not in validated:
            continue
        child = concept_id(rep_of[rel.source])
        parent = concept_id(rep_of[rel.target])
        if child != parent:
            edges.add((child, parent))

    post_cycle = find_cycle(edges)
    if post_cycle:
        labels = [concepts[cid].label for cid in post_cycle]
        raise CycleError("subsumption cycle after synonym collapse: " + " -> ".join(labels))
    return Taxonomy(concepts, edges)


def taxonomy_to_json(taxonomy: Taxonomy) -> str:
    payload = {
        "concepts": [
            {"id": c.id, "label": c.label, "denoting_terms": list(c.denoting_terms)}
            for c in sorted(taxonomy.concepts.values(), key=lambda c: c.id)
        ],
        "subsumption": sorted([child, parent] for child, parent in taxonomy.subsumption),
        "roots": taxonomy.roots,
    }
    return json_text(payload)


def taxonomy_from_json(text: str) -> Taxonomy:
    payload = json.loads(text)
    concepts = {
        row["id"]: Concept(row["id"], row["label"], tuple(row["denoting_terms"]))
        for row in payload["concepts"]
    }
    return Taxonomy(concepts, {(child, parent) for child, parent in payload["subsumption"]})


def taxonomy_to_dot(taxonomy: Taxonomy) -> str:
    """Graphviz rendering; children point up at their parents."""
    lines = ["digraph taxonomy {", "  rankdir=BT;"]
    for cid in sorted(taxonomy.concepts):
        lines.append(f'  "{taxonomy.concepts[cid].label}";')
    for child, parent in sorted(taxonomy.subsumption):
        lines.append(f'  "{taxonomy.concepts[child].label}" -> "{taxonomy.concepts[parent].label}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
