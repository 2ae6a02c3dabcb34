"""Correctness checks: every benchmark operation is judged here, outside
the timed regions, against the generator's planted truth or an oracle that
shares no code with ontoterm (fixpoint closures over raw edge lists,
filters over raw annotation rows)."""

from __future__ import annotations

import json
from pathlib import Path

from gen import PipelineTruth
from tracing import ARTIFACTS


class Checker:
    """Counts attempted and failed operations; an operation fails when it
    raised or when any of its checks found a problem."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems[:5])


class ClosureOracle:
    """Reflexive down-closures and annotated documents by brute force.

    Ancestor sets come from a fixpoint over the raw (child, parent) edges;
    a concept's closure is every node whose ancestor set contains it.
    """

    def __init__(self, nodes, edges, annotations) -> None:
        ancestors = {n: {n} for n in nodes}
        changed = True
        while changed:
            changed = False
            for child, parent in edges:
                before = len(ancestors[child])
                ancestors[child] |= ancestors[parent]
                changed |= len(ancestors[child]) != before
        self._ancestors = ancestors
        self._edges = list(edges)
        self.docs_by_concept: dict[str, set[str]] = {}
        self.concepts_by_doc: dict[str, set[str]] = {}
        for doc, concept in annotations:
            self.docs_by_concept.setdefault(concept, set()).add(doc)
            self.concepts_by_doc.setdefault(doc, set()).add(concept)
        self._closures: dict[str, frozenset[str]] = {}

    def nodes(self) -> list[str]:
        return sorted(self._ancestors)

    def closure(self, concept: str) -> frozenset[str]:
        if concept not in self._closures:
            self._closures[concept] = frozenset(
                n for n, up in self._ancestors.items() if concept in up)
        return self._closures[concept]

    def docs(self, concept: str) -> set[str]:
        out: set[str] = set()
        for member in self.closure(concept):
            out |= self.docs_by_concept.get(member, set())
        return out

    def top(self) -> str:
        """The node with the largest closure (ties to the smallest name)."""
        size: dict[str, int] = {}
        for up in self._ancestors.values():
            for a in up:
                size[a] = size.get(a, 0) + 1
        return min(size, key=lambda n: (-size[n], n))

    def children(self, concept: str) -> list[str]:
        return sorted({c for c, p in self._edges if p == concept})


def check_query(oracle: ClosureOracle, concept: str, docs) -> list[str]:
    expected = oracle.docs(concept)
    if set(docs) != expected:
        return [f"query {concept!r}: {len(docs)} docs, oracle says {len(expected)}"]
    return []


def check_recall(proj: ClosureOracle, ok: ClosureOracle, label: str, expected_ok: str,
                 comparison) -> list[str]:
    problems = []
    if comparison.concept_a != label or comparison.concept_b != expected_ok:
        return [f"recall {label!r} resolved to {comparison.concept_a!r}/{comparison.concept_b!r}"]
    docs_a, docs_b = proj.docs(label), ok.docs(expected_ok)
    if (set(comparison.docs_a) != docs_a or set(comparison.docs_b) != docs_b
            or set(comparison.only_a) != docs_a - docs_b
            or set(comparison.only_b) != docs_b - docs_a
            or set(comparison.symmetric_difference) != docs_a ^ docs_b):
        problems.append(f"recall {label!r}: document sets differ from the oracle")
    closure_a, closure_b = proj.closure(label), ok.closure(expected_ok)
    for doc in docs_a | docs_b:
        want = {
            "a": tuple(sorted(proj.concepts_by_doc.get(doc, set()) & closure_a)),
            "b": tuple(sorted(ok.concepts_by_doc.get(doc, set()) & closure_b)),
        }
        if comparison.explanations.get(doc) != want:
            problems.append(f"recall {label!r}: explanation of {doc} differs from the oracle")
            break
    return problems


# ---------------------------------------------------------------------------
# pipeline artifacts


def read_artifacts(out: Path) -> dict[str, bytes]:
    return {stage: (out / name).read_bytes() for stage, name in ARTIFACTS.items()}


def manifest_hits(out: Path) -> dict[str, bool]:
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    return {stage: entry["cache_hit"] for stage, entry in stages.items()}


def check_cache(out: Path, rerun: set[str]) -> list[str]:
    """The manifest must show exactly the ``rerun`` stages as misses."""
    hits = manifest_hits(out)
    missed = {stage for stage, hit in hits.items() if not hit}
    if set(hits) != set(ARTIFACTS) or missed != rerun:
        return [f"stages rerun {sorted(missed)}, expected {sorted(rerun)}"]
    return []


def check_cold_artifacts(arts: dict[str, bytes], truth: PipelineTruth) -> list[str]:
    """Planted truth against a cold run's artifacts."""
    problems = []
    candidates = {row["label"] for row in json.loads(arts["extract"])}
    missing = [t for t in truth.terms if t not in candidates]
    if missing:
        problems.append(f"{len(missing)} planted terms are not candidates, e.g. {missing[0]!r}")

    copulas = {
        (r["source"], r["target"])
        for r in json.loads(arts["net"])["relations"]
        if r["kind"] == "HYPONYMY" and "COPULA_PATTERN" in r["evidence_sources"]
    }
    lost = [p for p in truth.copula_pairs if p not in copulas]
    if lost:
        problems.append(f"{len(lost)} planted copula pairs not mined, e.g. {lost[0]!r}")

    if not json.loads(arts["ok-check"])["consistent"]:
        problems.append("ok_report says the generated ontology is inconsistent")

    aligned = {row["term"]: row for row in json.loads(arts["align"])["alignments"]}
    for term, want in sorted(truth.resolutions.items()):
        got = aligned.get(term)
        if got is None or got["kind"] != want.kind or got["concept"] != want.concept:
            problems.append(f"{term!r} aligned {got and (got['kind'], got['concept'])}, "
                            f"expected {(want.kind, want.concept)}")
            break

    subclass = arts["export"].decode("utf-8").count("\nSubClassOf(")
    if subclass != len(truth.tree.concepts) - 1:
        problems.append(f"OWL has {subclass} SubClassOf axioms for "
                        f"{len(truth.tree.concepts)} concepts")
    return problems


def check_edit(out: Path, truth: PipelineTruth) -> list[str]:
    problems = check_cache(out, {"validate", "project", "align", "index"})
    validated = {
        (r["source"], r["target"])
        for r in json.loads((out / ARTIFACTS["validate"]).read_text(encoding="utf-8"))["relations"]
        if r["kind"] == "HYPONYMY" and r["status"] == "VALIDATED"
    }
    if not set(truth.edit_batch) <= validated:
        problems.append("the edit's relations are not validated")
    return problems
