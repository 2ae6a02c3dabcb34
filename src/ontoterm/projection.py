"""Projection of the validated lexical network into a candidate taxonomy.

One concept per validated term (synonyms collapse into a single concept),
one subsumption edge per validated hyponymy edge.  The result is a DAG of
labeled concepts with provenance back to the denoting terms: a candidate
conceptual structure, nothing more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import CycleError, check_strings, fold, json_text, quoted
from .graph import Hierarchy, cycle_in, find_cycle
from .lexnet import LexNet, RelationKind, Status, find_validated_hyponymy_cycle


def concept_id(label: str) -> str:
    """Stable join key: NFC, lowercased, whitespace collapsed.  ``str.split``
    splits on the characters the regex ``\\s`` matches, in a third of the time."""
    return " ".join(fold(label).split())


@dataclass(frozen=True)
class Concept:
    id: str
    label: str
    denoting_terms: tuple[str, ...]


@dataclass
class Taxonomy(Hierarchy):
    """Concepts and (child, parent) edges as a value: both are fixed when it
    is built, and the edges are indexed once, child → sorted parents and
    parent → sorted children, with the sorted roots.  A
    ``dataclasses.replace`` variant is indexed afresh and keeps nothing
    that another module kept on the original.

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
        self._roots = tuple(sorted(self.concepts.keys() - self._parents.keys()))
        cycle = cycle_in(self._parents)  # the successor map ``find_cycle`` would build
        if cycle:
            raise ValueError("subsumption cycle: " + " -> ".join(cycle))

    def parents(self, cid: str) -> list[str]:
        return list(self._parents.get(cid, ()))


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

    try:
        return Taxonomy(concepts, edges)
    except ValueError:
        # every edge joins concepts built above, so the edges hold a cycle
        labels = [concepts[cid].label for cid in find_cycle(edges)]
        raise CycleError("subsumption cycle after synonym collapse: " + " -> ".join(labels)) from None


def taxonomy_to_json(taxonomy: Taxonomy) -> str:
    payload = {
        "concepts": [
            {"id": c.id, "label": c.label, "denoting_terms": c.denoting_terms}
            for c in sorted(taxonomy.concepts.values(), key=lambda c: c.id)
        ],
        "subsumption": sorted(taxonomy.subsumption),
        "roots": taxonomy.roots(),
    }
    return json_text(payload)


def taxonomy_from_json(text: str) -> Taxonomy:
    """The taxonomy of ``taxonomy.json``'s text.  A concept id, label or
    denoting term that is not a string raises ``ArtifactError``."""
    payload = json.loads(text)
    concepts = {
        row["id"]: Concept(row["id"], row["label"], tuple(row["denoting_terms"]))
        for row in payload["concepts"]
    }
    fields = [s for c in concepts.values() for s in (c.id, c.label, *c.denoting_terms)]
    check_strings(fields, "a concept id, label or denoting term")
    return Taxonomy(concepts, {(child, parent) for child, parent in payload["subsumption"]})


def taxonomy_to_dot(taxonomy: Taxonomy) -> str:
    """Graphviz rendering; children point up at their parents."""
    lines = ["digraph taxonomy {", "  rankdir=BT;"]
    for cid in sorted(taxonomy.concepts):
        lines.append(f"  {quoted(taxonomy.concepts[cid].label)};")
    for child, parent in sorted(taxonomy.subsumption):
        lines.append(
            f"  {quoted(taxonomy.concepts[child].label)} -> {quoted(taxonomy.concepts[parent].label)};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
