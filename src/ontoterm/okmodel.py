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
import operator
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import (
    ConfigError,
    DslIssue,
    DslParseError,
    InconsistentOntologyError,
    TypeMismatchError,
    input_lines,
    read_text,
)
from .graph import Hierarchy, descendants, find_cycle, walk


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


#: Comparison operator (canonical form) → the test it makes.
_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_OP_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">="}


@dataclass(frozen=True)
class AtomicComparison:
    """``attribute op literal``; an ``op`` outside the six canonical forms raises ``ValueError``."""

    attribute: str
    op: str
    literal: object  # int | float | str

    def __post_init__(self) -> None:
        if self.op not in _COMPARE:
            raise ValueError(f"unknown comparison operator: {self.op!r}")

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
class OkOntology(Hierarchy):
    """An expert ontology as a value.  Its five mappings are read-only
    copies taken when it is built, and the genus → children view (roots
    under ``None``, in declaration order) is indexed then, once;
    ``dataclasses.replace`` makes a variant, indexed afresh, that keeps
    nothing another module kept on the original.

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
        self._roots = self._children.get(None, ())
        unknown = sorted(view.keys() - self.concepts.keys() - {None})
        if unknown:
            raise ValueError(f"genus names no concept: {unknown}")
        if len(descendants(self._children, None)) <= len(self.concepts):  # None is counted too
            edges = [(name, c.genus) for name, c in self.concepts.items() if c.genus is not None]
            raise ValueError("genus cycle: " + " -> ".join(find_cycle(edges)))

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


# ---------------------------------------------------------------------------
# consistency


def check_consistency(ontology: OkOntology) -> list[Violation]:
    """Report every rule violation; an empty list means consistent."""
    violations: list[Violation] = []
    concepts, axes = ontology.concepts, ontology.axes

    roots = ontology.roots()
    if len(roots) == 0:
        violations.append(Violation("R1", "no root concept"))
    elif len(roots) > 1:
        violations.append(Violation("R1", "multiple roots: " + ", ".join(sorted(roots))))

    # R2 per concept; R3 (sibling distinctness per axis) in the same pass,
    # reported by parent and, under one parent, in declaration order
    first: dict[tuple[str, str, str], str] = {}  # (genus, axis, value) → first sibling
    shared: list[tuple[str, Violation]] = []
    for name, concept in concepts.items():
        genus, d = concept.genus, concept.differentia
        if genus is None:
            if d is not None:
                violations.append(Violation("R2", f"root {name!r} must not carry a differentia"))
            continue
        if d is None:
            violations.append(Violation("R2", f"{name!r} has no differentia"))
            continue
        axis = axes.get(d.axis)
        if axis is None:
            violations.append(Violation("R2", f"{name!r}: unknown axis {d.axis!r}"))
        elif d.value not in axis.values:
            violations.append(
                Violation("R2", f"{name!r}: value {d.value!r} is not on axis {d.axis!r}")
            )
        prior = first.setdefault((genus, d.axis, d.value), name)
        if prior != name:
            shared.append((genus, Violation(
                "R3", f"siblings {prior!r} and {name!r} under {genus!r} share {d}"
            )))
    shared.sort(key=lambda found: found[0])  # stable
    violations += [violation for _, violation in shared]

    # R4: one use of an axis per root-to-node path; R5: attribute shadowing
    # along a path.  Both are reported per node, in declaration order.
    reuse, shadowing = _path_findings(ontology)
    violations += [reuse[name] for name in concepts if name in reuse]
    for name, concept in concepts.items():
        if not concept.attributes:
            continue
        own = [a.name for a in concept.attributes]
        for attr_name in own:
            if own.count(attr_name) > 1:
                violations.append(
                    Violation("R5", f"attribute {attr_name!r} declared twice on {name!r}")
                )
        violations += shadowing.get(name, ())

    for cdef in ontology.class_defs.values():
        if cdef.base_concept not in concepts:
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
        if target not in concepts:
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


def _path_findings(ontology: OkOntology) -> tuple[dict[str, Violation], dict[str, list[Violation]]]:
    """The R4 violation and the R5 shadowing violations of each node that has
    any, in one ``walk`` over ``children_view`` from the roots:
    O(concepts + findings).

    The walk keeps, for the current path, the nodes using each axis and the
    ancestors declaring each attribute name.  Entering a node appends it to
    the lists of its axis and of its attributes and keeps those lists on a
    stack; leaving it pops them.  A node that declares no attribute touches
    no attribute list.
    """
    concepts = ontology.concepts
    axis_users: dict[str, list[str]] = {}
    declarers: dict[str, list[tuple[int, str]]] = {}  # attribute → (depth, ancestor)
    reuse: dict[str, Violation] = {}
    shadowing: dict[str, list[Violation]] = {}
    entered: list[tuple[list | None, list]] = []  # per node on the path: the lists it joined
    for name, entering in walk(ontology.children_view(), ontology.roots()):
        if not entering:
            users, held = entered.pop()
            if users is not None:
                users.pop()
            for declared in held:
                declared.pop()
            continue
        concept = concepts[name]
        users, held = None, ()
        if concept.differentia is not None:
            axis = concept.differentia.axis
            users = axis_users.setdefault(axis, [])
            if users:
                reuse[name] = _axis_reuse(axis, name, [name, *users])
            users.append(name)
        if concept.attributes:
            shadows = sorted(  # nearest ancestor first, then in declaration order
                (-at, i, ancestor, attr.name)
                for i, attr in enumerate(concept.attributes)
                for at, ancestor in declarers.get(attr.name, ())
            )
            if shadows:
                shadowing[name] = [_shadowing(a, name, anc) for _, _, anc, a in shadows]
            names = dict.fromkeys(a.name for a in concept.attributes)
            held = [declarers.setdefault(attr_name, []) for attr_name in names]
            for declared in held:
                declared.append((len(entered), name))  # the depth of ``name``
        entered.append((users, held))
    return reuse, shadowing


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
    ontology.require(general, specific)
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
    ontology.require(c1, c2)
    above_c2 = {c2, *ontology.genus_chain(c2)}
    lca = next((n for n in [c1, *ontology.genus_chain(c1)] if n in above_c2), None)
    if lca is None:
        raise InconsistentOntologyError(f"{c1!r} and {c2!r} share no ancestor")
    shared = ontology.differentia_path(lca)
    return SimilarityResult(
        lca=lca,
        shared=tuple(shared),
        distinguishing=tuple(tuple(ontology.differentia_path(c)[len(shared):]) for c in (c1, c2)),
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
        try:
            if not _COMPARE[comparison.op](state[comparison.attribute], comparison.literal):
                return False
        except TypeError:
            return False  # incomparable literal/state types never satisfy
    return True


@dataclass(frozen=True)
class ClassificationResult:
    classes: tuple[str, ...]
    sets: tuple[str, ...]


def classify_object(ontology: OkOntology, instance: ObjectInstance) -> ClassificationResult:
    """Classes whose base subsumes the instance's concept and whose predicate
    holds on its state; sets need only the predicate, whatever the concept."""
    ontology.require(instance.concept)
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
    """Read object instances: a JSON array of ``{id, concept, state}``
    objects, ``id`` and ``concept`` strings and ``state`` an object.  Any
    other text, JSON nested too deep to decode included, raises
    ``ConfigError`` naming the file."""
    try:
        rows = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not JSON ({type(exc).__name__}: {exc})") from None
    if not isinstance(rows, list):
        raise ConfigError(f"{path}: expected a JSON array of instances")
    for n, row in enumerate(rows, 1):
        if not (isinstance(row, dict) and isinstance(row.get("state"), dict)
                and all(isinstance(row.get(key), str) for key in ("id", "concept"))):
            raise ConfigError(f'{path}: instance {n}: expected string "id" and "concept", object "state"')
    return [ObjectInstance(row["id"], row["concept"], row["state"]) for row in rows]


# ---------------------------------------------------------------------------
# line-oriented ontology source


def _strip_comment(line: str) -> str:
    """``line`` up to its first ``#`` outside double quotes."""
    in_quotes = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quotes = not in_quotes
        elif ch == "#" and not in_quotes:
            return line[:i]
    return line


def _parse_literal(text: str) -> object:
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


class _Rejected(Exception):
    """A DSL line that declares nothing; ``args`` is its issue's code and message."""


def _parse_predicate(text: str) -> tuple[tuple[AtomicComparison, ...], list[tuple[str, str]]]:
    """The comparisons of ``text``, and the (code, message) of each clause that is none."""
    comparisons, problems = [], []
    for clause in re.split(r"\s+and\s+", text.strip()):
        m = re.match(r"^(\S+)\s*(>=|<=|!=|≥|≤|≠|=|<|>)\s*(.+)$", clause.strip())
        if m:
            attr, op, literal = m.groups()
            comparisons.append(AtomicComparison(attr, _OP_ALIASES.get(op, op), _parse_literal(literal)))
        else:
            problems.append(("E_SYNTAX", f"cannot parse comparison {clause.strip()!r}"))
    if not comparisons:
        problems.append(("E_SYNTAX", "empty predicate"))
    return tuple(comparisons), problems


def _unique(declared: Mapping[str, object], kind: str, name: str) -> None:
    if name in declared:
        raise _Rejected("E_DUP_NAME", f"{kind} already declared: {name!r}")


def _known(concepts: Mapping[str, OkConcept], name: str) -> OkConcept:
    """The concept ``name`` declared so far."""
    concept = concepts.get(name)
    if concept is None:
        raise _Rejected("E_UNKNOWN_CONCEPT", f"unknown concept: {name!r}")
    return concept


@dataclass
class _DslReader:
    """``OkOntology``'s fields as declared so far, and the ``Differentia`` of
    each ``axis=value`` text a concept line has used.  A directive method
    stores its line's declaration or raises ``_Rejected``; one with bad
    predicate clauses returns them."""

    name: str = ""
    axes: dict[str, Axis] = field(default_factory=dict)
    concepts: dict[str, OkConcept] = field(default_factory=dict)
    class_defs: dict[str, ClassDef] = field(default_factory=dict)
    set_defs: dict[str, SetDef] = field(default_factory=dict)
    denotation: dict[str, str] = field(default_factory=dict)
    differentiae: dict[str, Differentia] = field(default_factory=dict)

    def ontology(self, body: str) -> None:
        m = re.match(r'^"([^"]*)"$', body)
        if not m:
            raise _Rejected("E_SYNTAX", 'expected \'ontology "<name>"\'')
        self.name = m.group(1)

    def axis(self, body: str) -> None:
        head, sep, rest = body.partition(" values ")
        name = head.strip()
        if not sep or not name:
            raise _Rejected("E_SYNTAX", "expected 'axis <id> values <v1>, <v2>[, ...]'")
        values = tuple(v.strip() for v in rest.split(",") if v.strip())
        _unique(self.axes, "axis", name)
        if len(values) < 2 or len(set(values)) != len(values):
            raise _Rejected("E_SYNTAX", f"axis {name!r} needs two or more distinct values")
        self.axes[name] = Axis(name, values)

    def concept(self, body: str) -> None:
        name, sep, rest = body.partition(" genus ")
        if not sep:
            if not body.endswith(" root"):  # a stripped body ending so has a name before it
                raise _Rejected("E_SYNTAX", "expected 'concept <Id> root' or "
                                "'concept <Id> genus <Parent> diff <axis>=<value>'")
            name = body[: -len(" root")].strip()
            _unique(self.concepts, "concept", name)
            self.concepts[name] = OkConcept(name)
            return
        genus, sep, text = rest.partition(" diff ")
        name, genus = name.strip(), genus.strip()
        if not (sep and name and genus):
            raise _Rejected("E_SYNTAX", "expected 'concept <Id> genus <Parent> diff <axis>=<value>'")
        differentia = self.differentiae.get(text)  # a text used before passed every check
        if differentia is None:
            if " genus " in text:
                raise _Rejected("E_MULTIPLE_GENUS", f"concept {name!r} declares more than one genus")
            axis, eq, value = text.partition("=")
            axis, value = axis.strip(), value.strip()
            if not (eq and axis and value):
                raise _Rejected("E_SYNTAX", "differentia must be '<axis>=<value>'")
        _unique(self.concepts, "concept", name)
        if genus not in self.concepts:
            raise _Rejected("E_UNKNOWN_GENUS", f"unknown genus: {genus!r}")
        if differentia is None:
            declared = self.axes.get(axis)
            if declared is None:
                raise _Rejected("E_UNKNOWN_AXIS", f"unknown axis: {axis!r}")
            if value not in declared.values:
                raise _Rejected("E_BAD_VALUE", f"value {value!r} is not on axis {axis!r}")
            differentia = self.differentiae[text] = Differentia(axis, value)
        self.concepts[name] = OkConcept(name, genus, differentia)

    def attribute(self, body: str) -> None:
        name, sep_on, rest = body.partition(" on ")
        concept, sep_type, type_name = rest.partition(" type ")
        name, concept, type_name = name.strip(), concept.strip(), type_name.strip()
        if not (sep_on and sep_type and name and concept and type_name):
            raise _Rejected("E_SYNTAX", "expected 'attribute <id> on <Concept> type <type>'")
        enum = re.match(r"^enum\((.+)\)$", type_name)
        if not enum and type_name not in ("number", "string"):
            raise _Rejected("E_SYNTAX", f"unknown attribute type {type_name!r}")
        holder = _known(self.concepts, concept)
        if any(a.name == name for a in holder.attributes):
            raise _Rejected("E_DUP_NAME", f"attribute {name!r} already on {concept!r}")
        values = tuple(v.strip() for v in enum.group(1).split(",") if v.strip()) if enum else ()
        attribute = AttributeDef(name, ValueType("enum" if enum else type_name, values))
        self.concepts[concept] = replace(holder, attributes=holder.attributes + (attribute,))

    def class_(self, body: str) -> list[tuple[str, str]]:
        name, sep_over, rest = body.partition(" over ")
        base, sep_where, predicate = rest.partition(" where ")
        name, base = name.strip(), base.strip()
        if not (sep_over and sep_where and name and base and predicate.strip()):
            raise _Rejected("E_SYNTAX", "expected 'class <Id> over <Concept> where <pred>'")
        _unique(self.class_defs, "class", name)
        _known(self.concepts, base)
        comparisons, problems = _parse_predicate(predicate)
        self.class_defs[name] = ClassDef(name, base, comparisons)
        return problems

    def set_(self, body: str) -> list[tuple[str, str]]:
        name, sep_where, predicate = body.partition(" where ")
        name = name.strip()
        if not (sep_where and name and predicate.strip()):
            raise _Rejected("E_SYNTAX", "expected 'set <Id> where <pred>'")
        _unique(self.set_defs, "set", name)
        comparisons, problems = _parse_predicate(predicate)
        self.set_defs[name] = SetDef(name, comparisons)
        return problems

    def term(self, body: str) -> None:
        m = re.match(r'^"([^"]+)"\s+denotes\s+(.+)$', body)
        if not m:
            raise _Rejected("E_SYNTAX", 'expected \'term "<label>" denotes <Concept>\'')
        # target existence is a consistency rule (R7), not a parse error
        self.denotation[m.group(1)] = m.group(2).strip()

    def compound(self, body: str) -> None:
        raise _Rejected("E_UNSUPPORTED", "compound concepts are reserved but not supported")


_DIRECTIVES = {
    "ontology": _DslReader.ontology, "axis": _DslReader.axis, "concept": _DslReader.concept,
    "attribute": _DslReader.attribute, "class": _DslReader.class_, "set": _DslReader.set_,
    "term": _DslReader.term, "compound": _DslReader.compound,
}


def parse_dsl(text: str) -> OkOntology:
    """Parse ontology source; raises DslParseError listing every problem.

    Parsing resolves structural references (genus, axis, attribute hosts,
    class bases) against earlier lines but runs no semantic checks: rule
    checking is ``check_consistency``'s job.  The ``compound`` keyword is
    reserved and rejected as unsupported.
    """
    reader = _DslReader()
    issues: list[DslIssue] = []
    for lineno, raw in input_lines(text):
        line = (_strip_comment(raw) if "#" in raw else raw).strip()
        keyword, _, body = line.partition(" ")
        handler = _DIRECTIVES.get(keyword)
        try:
            if handler is None:
                raise _Rejected("E_SYNTAX", f"unknown directive {keyword!r}")
            problems = handler(reader, body.strip())
        except _Rejected as rejected:
            problems = (rejected.args,)
        if problems:
            issues += [DslIssue(lineno, code, message) for code, message in problems]
    if not any(concept.genus is None for concept in reader.concepts.values()):
        # reported at the last line, as ``input_lines`` numbers lines
        issues.append(DslIssue(max(1, len(text.splitlines())), "E_SYNTAX", "no root concept declared"))
    if issues:
        raise DslParseError(issues)
    return OkOntology(**{f.name: getattr(reader, f.name) for f in fields(OkOntology)})


def load_dsl(path: str | Path) -> OkOntology:
    """``parse_dsl`` of the file at ``path``; its errors name the file."""
    try:
        return parse_dsl(read_text(path))
    except DslParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
