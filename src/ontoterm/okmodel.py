"""Ontologies by specific differentiation.

A concept is defined from an existing concept (its genus) plus exactly one
differentia: a value on a differentiation axis.  Axes are declared up front
with closed, mutually exclusive value sets, and concepts form a strict
rooted tree.  Differences, not attribute bundles, are what define and
separate concepts: attributes only hang off the tree to describe object
instances, and two concepts with identical attribute sets but different
differentia paths remain distinct, non-substitutable concepts.

Tree shape is checked when an ``OkOntology`` is built: every genus names a
concept and every concept is reachable from a root, so genus links form a
forest and never a cycle.  Consistency is checked against seven rules:

  R1  single root
  R2  every non-root carries exactly one well-formed differentia
  R3  siblings differentiated on one axis take pairwise distinct values
  R4  an axis is used at most once along any root-to-node path
  R5  attribute names are never redeclared along a path
  R6  class predicates only reference attributes visible at their base
  R7  term denotations target existing concepts

Alongside concepts, the model carries classes (same-nature objects whose
state satisfies a predicate), sets (objects of any nature whose state
satisfies a predicate), and a denotation map from term labels to concepts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    DslIssue,
    DslParseError,
    InconsistentOntologyError,
    TypeMismatchError,
    UnknownConceptError,
    read_text,
)
from .graph import descendants, find_cycle


@dataclass(frozen=True)
class Axis:
    name: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class Differentia:
    axis: str
    value: str

    def __str__(self) -> str:
        return f"{self.axis}={self.value}"


@dataclass(frozen=True)
class ValueType:
    kind: str  # "number" | "string" | "enum"
    enum_values: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttributeDef:
    name: str
    value_type: ValueType


@dataclass(frozen=True)
class OkConcept:
    name: str
    genus: str | None = None
    differentia: Differentia | None = None
    attributes: tuple[AttributeDef, ...] = ()


#: Comparison operators accepted in class/set predicates (canonical forms).
OPS = ("=", "!=", "<", "<=", ">", ">=")
_OP_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">="}


@dataclass(frozen=True)
class AtomicComparison:
    attribute: str
    op: str
    literal: object  # int | float | str

    def __str__(self) -> str:
        lit = json.dumps(self.literal, ensure_ascii=False)
        return f"{self.attribute} {self.op} {lit}"


@dataclass(frozen=True)
class ClassDef:
    name: str
    base_concept: str
    predicate: tuple[AtomicComparison, ...]


@dataclass(frozen=True)
class SetDef:
    name: str
    predicate: tuple[AtomicComparison, ...]


@dataclass(frozen=True)
class ObjectInstance:
    id: str
    concept: str
    state: Mapping[str, object]


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


@dataclass
class OkOntology:
    """An expert ontology as a value.  Its five mappings are read-only
    copies taken when it is built, and the genus → children view is
    indexed then, once; ``dataclasses.replace`` makes a variant, indexed
    afresh.

    Its genus links form a forest: building one raises ``ValueError`` when
    a genus names no concept or when some concept is not reachable from a
    root (it lies on or below a genus cycle).  Single-rootedness is rule R1
    of ``check_consistency``."""

    name: str = ""
    axes: Mapping[str, Axis] = field(default_factory=dict)
    concepts: Mapping[str, OkConcept] = field(default_factory=dict)  # declaration order
    class_defs: Mapping[str, ClassDef] = field(default_factory=dict)
    set_defs: Mapping[str, SetDef] = field(default_factory=dict)
    denotation: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mapping in ("axes", "concepts", "class_defs", "set_defs", "denotation"):
            setattr(self, mapping, MappingProxyType(dict(getattr(self, mapping))))
        view: dict[str | None, list[str]] = {}
        for name, concept in self.concepts.items():
            view.setdefault(concept.genus, []).append(name)
        self._children = {genus: tuple(names) for genus, names in view.items()}
        unknown = sorted(view.keys() - self.concepts.keys() - {None})
        if unknown:
            raise ValueError(f"genus names no concept: {unknown}")
        if len(descendants(self._children, None)) <= len(self.concepts):  # None is counted too
            edges = [(name, c.genus) for name, c in self.concepts.items() if c.genus is not None]
            raise ValueError("genus cycle: " + " -> ".join(find_cycle(edges)))

    def __contains__(self, name: str) -> bool:
        return name in self.concepts

    def roots(self) -> list[str]:
        return list(self._children.get(None, ()))

    def children_view(self) -> Mapping[str | None, tuple[str, ...]]:
        """Genus → direct children in declaration order (roots under ``None``),
        built with the ontology.  The view is shared: read it, never mutate it."""
        return self._children

    def children(self, name: str) -> list[str]:
        """Direct children, in declaration order."""
        return list(self._children.get(name, ()))

    def genus_chain(self, name: str) -> list[str]:
        """Ancestors from the immediate genus up to the root: O(depth), the
        genus links being a forest."""
        chain = []
        current = self.concepts[name].genus
        while current is not None:
            chain.append(current)
            current = self.concepts[current].genus
        return chain

    def differentia_path(self, name: str) -> list[Differentia]:
        """Differentiae from just below the root down to ``name``."""
        nodes = [name] + self.genus_chain(name)
        return [
            self.concepts[n].differentia
            for n in reversed(nodes)
            if self.concepts[n].differentia is not None
        ]

    def depth(self, name: str) -> int:
        return len(self.genus_chain(name))

    def visible_attributes(self, name: str) -> dict[str, tuple[AttributeDef, str]]:
        """Attributes declared on ``name`` or any ancestor, keyed by name."""
        visible: dict[str, tuple[AttributeDef, str]] = {}
        for node in [name] + self.genus_chain(name):
            for attr in self.concepts[node].attributes:
                visible.setdefault(attr.name, (attr, node))
        return visible

    def subsumed_closure(self, name: str) -> set[str]:
        """``name`` and everything below it: O(answer) over the children view."""
        if name not in self.concepts:
            raise UnknownConceptError(f"unknown concept: {name!r}")
        return descendants(self._children, name)


# ---------------------------------------------------------------------------
# consistency


def check_consistency(ontology: OkOntology) -> list[Violation]:
    """Report every rule violation; an empty list means consistent."""
    violations: list[Violation] = []

    roots = ontology.roots()
    if len(roots) == 0:
        violations.append(Violation("R1", "no root concept"))
    elif len(roots) > 1:
        violations.append(Violation("R1", "multiple roots: " + ", ".join(sorted(roots))))

    for name, concept in ontology.concepts.items():
        if concept.genus is None:
            if concept.differentia is not None:
                violations.append(Violation("R2", f"root {name!r} must not carry a differentia"))
            continue
        d = concept.differentia
        if d is None:
            violations.append(Violation("R2", f"{name!r} has no differentia"))
        elif d.axis not in ontology.axes:
            violations.append(Violation("R2", f"{name!r}: unknown axis {d.axis!r}"))
        elif d.value not in ontology.axes[d.axis].values:
            violations.append(
                Violation("R2", f"{name!r}: value {d.value!r} is not on axis {d.axis!r}")
            )

    # R3: sibling distinctness per axis
    children = ontology.children_view()
    for parent in sorted(genus for genus in children if genus is not None):
        seen: dict[Differentia, str] = {}
        for name in children[parent]:
            concept = ontology.concepts[name]
            if concept.differentia is None:
                continue
            prior = seen.get(concept.differentia)
            if prior is not None:
                violations.append(
                    Violation(
                        "R3",
                        f"siblings {prior!r} and {name!r} under {parent!r} "
                        f"share {concept.differentia}",
                    )
                )
            else:
                seen[concept.differentia] = name

    # R4: one use of an axis per root-to-node path; R5: attribute shadowing
    # along a path.  Both are reported per node, in declaration order.
    on_path = _path_findings(ontology)
    findings = [on_path[name] for name in ontology.concepts]
    for axis_reuse, _ in findings:
        violations.extend(axis_reuse)
    for (name, concept), (_, shadowing) in zip(ontology.concepts.items(), findings):
        own = [a.name for a in concept.attributes]
        for attr_name in own:
            if own.count(attr_name) > 1:
                violations.append(
                    Violation("R5", f"attribute {attr_name!r} declared twice on {name!r}")
                )
        violations.extend(shadowing)

    for cdef in ontology.class_defs.values():
        if cdef.base_concept not in ontology.concepts:
            violations.append(
                Violation("R6", f"class {cdef.name!r}: unknown base concept {cdef.base_concept!r}")
            )
            continue
        visible = ontology.visible_attributes(cdef.base_concept)
        for comparison in cdef.predicate:
            if comparison.attribute not in visible:
                violations.append(
                    Violation(
                        "R6",
                        f"class {cdef.name!r}: attribute {comparison.attribute!r} "
                        f"is not visible at {cdef.base_concept!r}",
                    )
                )

    for term, target in sorted(ontology.denotation.items()):
        if target not in ontology.concepts:
            violations.append(
                Violation("R7", f"term {term!r} denotes unknown concept {target!r}")
            )

    return violations


def _axis_reuse(axis: str, name: str, users: list[str]) -> Violation:
    return Violation(
        "R4",
        f"axis {axis!r} used more than once on the path to {name!r} ({', '.join(sorted(users))})",
    )


def _shadowing(attr_name: str, name: str, ancestor: str) -> Violation:
    return Violation("R5", f"attribute {attr_name!r} on {name!r} shadows the one on {ancestor!r}")


#: (R4 violations, R5 shadowing violations) of one node
_Findings = tuple[Sequence[Violation], Sequence[Violation]]


def _path_findings(ontology: OkOntology) -> dict[str, _Findings]:
    """R4 and R5 shadowing findings of every node, in one top-down pass over
    ``children_view`` from the roots: O(concepts + findings).

    The pass keeps, for the current path, the nodes using each axis and the
    ancestors declaring each attribute name, pushed on entering a node and
    popped on leaving it.
    """
    children = ontology.children_view()
    concepts = ontology.concepts
    axis_users: dict[str, list[str]] = {}
    declarers: dict[str, list[tuple[int, str]]] = {}  # attribute → (depth, ancestor)
    found: dict[str, _Findings] = {}
    stack = [(name, 0, False) for name in ontology.roots()]
    while stack:
        name, depth, leaving = stack.pop()
        concept = concepts[name]
        axis = concept.differentia.axis if concept.differentia is not None else None
        declared = dict.fromkeys(a.name for a in concept.attributes)
        if leaving:
            if axis is not None:
                axis_users[axis].pop()
            for attr_name in declared:
                declarers[attr_name].pop()
            continue
        reuse = ()
        if axis is not None and axis_users.get(axis):
            reuse = (_axis_reuse(axis, name, [name] + axis_users[axis]),)
        shadows = sorted(  # nearest ancestor first, then in declaration order
            (-at, i, ancestor, attr.name)
            for i, attr in enumerate(concept.attributes)
            for at, ancestor in declarers.get(attr.name, ())
        )
        found[name] = (reuse, tuple(_shadowing(a, name, anc) for _, _, anc, a in shadows))
        if axis is not None:
            axis_users.setdefault(axis, []).append(name)
        for attr_name in declared:
            declarers.setdefault(attr_name, []).append((depth, name))
        stack.append((name, depth, True))
        stack.extend((child, depth + 1, False) for child in children.get(name, ()))
    return found


def require_consistent(ontology: OkOntology) -> None:
    violations = check_consistency(ontology)
    if violations:
        raise InconsistentOntologyError(
            "ontology is inconsistent: " + "; ".join(str(v) for v in violations), violations
        )


# ---------------------------------------------------------------------------
# queries


def subsumes(ontology: OkOntology, general: str, specific: str) -> bool:
    """True iff ``general`` lies on ``specific``'s genus chain (reflexive)."""
    for name in (general, specific):
        if name not in ontology.concepts:
            raise UnknownConceptError(f"unknown concept: {name!r}")
    return general == specific or general in ontology.genus_chain(specific)


@dataclass(frozen=True)
class SimilarityResult:
    lca: str
    shared: tuple[Differentia, ...]
    distinguishing: tuple[tuple[Differentia, ...], tuple[Differentia, ...]]


def similarity(ontology: OkOntology, c1: str, c2: str) -> SimilarityResult:
    """Read similarities and differences off the tree.

    The shared part is the differentia path down to the lowest common
    ancestor; the two residual paths distinguish the concepts.
    """
    paths = []
    for name in (c1, c2):
        if name not in ontology.concepts:
            raise UnknownConceptError(f"unknown concept: {name!r}")
        paths.append(list(reversed([name] + ontology.genus_chain(name))))
    path1, path2 = paths
    common = 0
    while common < min(len(path1), len(path2)) and path1[common] == path2[common]:
        common += 1
    if common == 0:
        raise InconsistentOntologyError(f"{c1!r} and {c2!r} share no ancestor")
    lca = path1[common - 1]

    def diffs(path: list[str]) -> tuple[Differentia, ...]:
        return tuple(
            ontology.concepts[n].differentia
            for n in path
            if ontology.concepts[n].differentia is not None
        )

    return SimilarityResult(
        lca=lca,
        shared=diffs(path1[:common]),
        distinguishing=(diffs(path1[common:]), diffs(path2[common:])),
    )


def _check_state_value(attr: AttributeDef, value: object) -> None:
    vt = attr.value_type
    if vt.kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(f"attribute {attr.name!r} expects a number, got {value!r}")
    elif vt.kind == "string":
        if not isinstance(value, str):
            raise TypeMismatchError(f"attribute {attr.name!r} expects a string, got {value!r}")
    else:
        if not isinstance(value, str) or value not in vt.enum_values:
            raise TypeMismatchError(
                f"attribute {attr.name!r} expects one of {list(vt.enum_values)}, got {value!r}"
            )


def _holds(predicate: tuple[AtomicComparison, ...], state: Mapping[str, object]) -> bool:
    for comparison in predicate:
        if comparison.attribute not in state:
            return False  # missing attributes make the comparison false
        actual = state[comparison.attribute]
        literal = comparison.literal
        try:
            op = comparison.op
            if op == "=":
                ok = actual == literal
            elif op == "!=":
                ok = actual != literal
            elif op == "<":
                ok = actual < literal
            elif op == "<=":
                ok = actual <= literal
            elif op == ">":
                ok = actual > literal
            else:
                ok = actual >= literal
        except TypeError:
            ok = False  # incomparable literal/state types never satisfy
        if not ok:
            return False
    return True


@dataclass(frozen=True)
class ClassificationResult:
    classes: tuple[str, ...]
    sets: tuple[str, ...]


def classify_object(ontology: OkOntology, instance: ObjectInstance) -> ClassificationResult:
    """Classes whose base subsumes the instance's concept and whose predicate
    holds on its state; sets need only the predicate, whatever the concept."""
    if instance.concept not in ontology.concepts:
        raise UnknownConceptError(f"unknown concept: {instance.concept!r}")
    visible = ontology.visible_attributes(instance.concept)
    for key, value in instance.state.items():
        if key not in visible:
            raise TypeMismatchError(
                f"attribute {key!r} is not visible at {instance.concept!r}"
            )
        _check_state_value(visible[key][0], value)

    classes = tuple(
        name
        for name, cdef in sorted(ontology.class_defs.items())
        if cdef.base_concept in ontology.concepts
        and subsumes(ontology, cdef.base_concept, instance.concept)
        and _holds(cdef.predicate, instance.state)
    )
    sets = tuple(
        name for name, sdef in sorted(ontology.set_defs.items()) if _holds(sdef.predicate, instance.state)
    )
    return ClassificationResult(classes, sets)


def load_instances(path: str | Path) -> list[ObjectInstance]:
    """Read object instances: a JSON array of ``{id, concept, state}``."""
    rows = json.loads(read_text(path))
    return [ObjectInstance(row["id"], row["concept"], dict(row["state"])) for row in rows]


# ---------------------------------------------------------------------------
# line-oriented ontology source


_TERM_LINE = re.compile(r'^term\s+"([^"]+)"\s+denotes\s+(.+)$')


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    out = []
    in_quotes = False
    for ch in line:
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "#" and not in_quotes:
            break
        out.append(ch)
    return "".join(out)


def _parse_literal(text: str) -> object:
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_predicate(text: str, line: int, issues: list[DslIssue]) -> tuple[AtomicComparison, ...]:
    comparisons = []
    for clause in re.split(r"\s+and\s+", text.strip()):
        m = re.match(r"^(\S+)\s*(>=|<=|!=|≥|≤|≠|=|<|>)\s*(.+)$", clause.strip())
        if not m:
            issues.append(DslIssue(line, "E_SYNTAX", f"cannot parse comparison {clause.strip()!r}"))
            continue
        attr, op, literal = m.groups()
        comparisons.append(AtomicComparison(attr, _OP_ALIASES.get(op, op), _parse_literal(literal)))
    if not comparisons:
        issues.append(DslIssue(line, "E_SYNTAX", "empty predicate"))
    return tuple(comparisons)


def parse_dsl(text: str) -> OkOntology:
    """Parse ontology source; raises DslParseError listing every problem.

    Parsing resolves structural references (genus, axis, attribute hosts,
    class bases) against earlier lines but runs no semantic checks: rule
    checking is ``check_consistency``'s job.  The ``compound`` keyword is
    reserved and rejected as unsupported.
    """
    ontology_name = ""
    axes: dict[str, Axis] = {}
    concepts: dict[str, OkConcept] = {}
    class_defs: dict[str, ClassDef] = {}
    set_defs: dict[str, SetDef] = {}
    denotation: dict[str, str] = {}
    issues: list[DslIssue] = []

    def parse_axis(lineno: int, body: str) -> None:
        head, sep, rest = body.partition(" values ")
        name = head.strip()
        if not sep or not name:
            issues.append(DslIssue(lineno, "E_SYNTAX", "expected 'axis <id> values <v1>, <v2>[, ...]'"))
            return
        values = tuple(v.strip() for v in rest.split(",") if v.strip())
        if name in axes:
            issues.append(DslIssue(lineno, "E_DUP_NAME", f"axis already declared: {name!r}"))
        elif len(values) < 2 or len(set(values)) != len(values):
            issues.append(DslIssue(lineno, "E_SYNTAX", f"axis {name!r} needs two or more distinct values"))
        else:
            axes[name] = Axis(name, values)

    def parse_concept(lineno: int, body: str) -> None:
        if " genus " not in body:
            if body.endswith(" root"):
                name = body[: -len(" root")].strip()
                if not name:
                    issues.append(DslIssue(lineno, "E_SYNTAX", "missing concept name"))
                elif name in concepts:
                    issues.append(DslIssue(lineno, "E_DUP_NAME", f"concept already declared: {name!r}"))
                else:
                    concepts[name] = OkConcept(name)
            else:
                issues.append(
                    DslIssue(lineno, "E_SYNTAX", "expected 'concept <Id> root' or 'concept <Id> genus <Parent> diff <axis>=<value>'")
                )
            return
        name, _, rest = body.partition(" genus ")
        name = name.strip()
        genus_part, sep, diff_part = rest.partition(" diff ")
        if not sep or not name or not genus_part.strip():
            issues.append(DslIssue(lineno, "E_SYNTAX", "expected 'concept <Id> genus <Parent> diff <axis>=<value>'"))
            return
        if " genus " in diff_part:
            issues.append(DslIssue(lineno, "E_MULTIPLE_GENUS", f"concept {name!r} declares more than one genus"))
            return
        genus = genus_part.strip()
        axis_name, eq, value = diff_part.partition("=")
        axis_name, value = axis_name.strip(), value.strip()
        if not eq or not axis_name or not value:
            issues.append(DslIssue(lineno, "E_SYNTAX", "differentia must be '<axis>=<value>'"))
            return
        if name in concepts:
            issues.append(DslIssue(lineno, "E_DUP_NAME", f"concept already declared: {name!r}"))
            return
        if genus not in concepts:
            issues.append(DslIssue(lineno, "E_UNKNOWN_GENUS", f"unknown genus: {genus!r}"))
            return
        axis = axes.get(axis_name)
        if axis is None:
            issues.append(DslIssue(lineno, "E_UNKNOWN_AXIS", f"unknown axis: {axis_name!r}"))
            return
        if value not in axis.values:
            issues.append(DslIssue(lineno, "E_BAD_VALUE", f"value {value!r} is not on axis {axis_name!r}"))
            return
        concepts[name] = OkConcept(name, genus, Differentia(axis_name, value))

    def parse_attribute(lineno: int, body: str) -> None:
        name_part, sep_on, rest = body.partition(" on ")
        concept_part, sep_type, type_part = rest.partition(" type ")
        name = name_part.strip()
        concept = concept_part.strip()
        type_part = type_part.strip()
        if not (sep_on and sep_type and name and concept and type_part):
            issues.append(DslIssue(lineno, "E_SYNTAX", "expected 'attribute <id> on <Concept> type <type>'"))
            return
        if type_part == "number":
            vt = ValueType("number")
        elif type_part == "string":
            vt = ValueType("string")
        else:
            m = re.match(r"^enum\((.+)\)$", type_part)
            if not m:
                issues.append(DslIssue(lineno, "E_SYNTAX", f"unknown attribute type {type_part!r}"))
                return
            vt = ValueType("enum", tuple(v.strip() for v in m.group(1).split(",") if v.strip()))
        if concept not in concepts:
            issues.append(DslIssue(lineno, "E_UNKNOWN_CONCEPT", f"unknown concept: {concept!r}"))
            return
        holder = concepts[concept]
        if any(a.name == name for a in holder.attributes):
            issues.append(DslIssue(lineno, "E_DUP_NAME", f"attribute {name!r} already on {concept!r}"))
            return
        concepts[concept] = replace(
            holder, attributes=holder.attributes + (AttributeDef(name, vt),)
        )

    def parse_class(lineno: int, body: str) -> None:
        name_part, sep_over, rest = body.partition(" over ")
        base_part, sep_where, pred_part = rest.partition(" where ")
        name, base = name_part.strip(), base_part.strip()
        if not (sep_over and sep_where and name and base and pred_part.strip()):
            issues.append(DslIssue(lineno, "E_SYNTAX", "expected 'class <Id> over <Concept> where <pred>'"))
            return
        if name in class_defs:
            issues.append(DslIssue(lineno, "E_DUP_NAME", f"class already declared: {name!r}"))
            return
        if base not in concepts:
            issues.append(DslIssue(lineno, "E_UNKNOWN_CONCEPT", f"unknown concept: {base!r}"))
            return
        class_defs[name] = ClassDef(name, base, _parse_predicate(pred_part, lineno, issues))

    def parse_set(lineno: int, body: str) -> None:
        name_part, sep_where, pred_part = body.partition(" where ")
        name = name_part.strip()
        if not (sep_where and name and pred_part.strip()):
            issues.append(DslIssue(lineno, "E_SYNTAX", "expected 'set <Id> where <pred>'"))
            return
        if name in set_defs:
            issues.append(DslIssue(lineno, "E_DUP_NAME", f"set already declared: {name!r}"))
            return
        set_defs[name] = SetDef(name, _parse_predicate(pred_part, lineno, issues))

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        keyword, _, body = line.partition(" ")
        body = body.strip()
        if keyword == "ontology":
            m = re.match(r'^"([^"]*)"$', body)
            if not m:
                issues.append(DslIssue(lineno, "E_SYNTAX", 'expected \'ontology "<name>"\''))
            else:
                ontology_name = m.group(1)
        elif keyword == "axis":
            parse_axis(lineno, body)
        elif keyword == "concept":
            parse_concept(lineno, body)
        elif keyword == "attribute":
            parse_attribute(lineno, body)
        elif keyword == "class":
            parse_class(lineno, body)
        elif keyword == "set":
            parse_set(lineno, body)
        elif keyword == "term":
            m = _TERM_LINE.match(line)
            if not m:
                issues.append(DslIssue(lineno, "E_SYNTAX", 'expected \'term "<label>" denotes <Concept>\''))
            else:
                # target existence is a consistency rule (R7), not a parse error
                denotation[m.group(1)] = m.group(2).strip()
        elif keyword == "compound":
            issues.append(
                DslIssue(lineno, "E_UNSUPPORTED", "compound concepts are reserved but not supported")
            )
        else:
            issues.append(DslIssue(lineno, "E_SYNTAX", f"unknown directive {keyword!r}"))

    if not any(concept.genus is None for concept in concepts.values()):
        issues.append(DslIssue(max(1, text.count("\n") + 1), "E_SYNTAX", "no root concept declared"))
    if issues:
        raise DslParseError(issues)
    return OkOntology(ontology_name, axes, concepts, class_defs, set_defs, denotation)


def load_dsl(path: str | Path) -> OkOntology:
    return parse_dsl(read_text(path))
