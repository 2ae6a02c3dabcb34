"""OWL 2 Functional Syntax and KIF emission for concept trees.

The class hierarchy, sibling disjointness (one axiom per group of siblings
differentiated on a shared axis), labels, and attributes are exported.
Differentia values travel as annotations rather than property
restrictions: the export preserves the definitional structure instead of
inventing logical axioms the model does not state.  Output is sorted and
byte-stable so exports can be diffed.

Local names are the labels in accent-stripped CamelCase.  A species' label
usually extends its genus's label by a space («relais à seuil de tension»
extends «relais à seuil»), and its name reuses the camel core of the label
it extends, so a tree is named at about the cost of its labels' own parts.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Iterable

from .errors import ConfigError, quoted
from .graph import walk
from .okmodel import OkOntology, require_consistent

DEFAULT_IRI = "http://example.org/ontology#"

#: What an IRI cannot hold (RFC 3987): whitespace, control characters and
#: the delimiters ``<>"{}|\^` ``.
_NOT_IN_IRI = re.compile(r'[\s\x00-\x1f\x7f-\x9f<>"{}|\\^`]')


def check_iri(iri: str) -> None:
    """Raise ``ConfigError`` naming ``iri`` if it holds a character no IRI holds."""
    if _NOT_IN_IRI.search(iri):
        raise ConfigError("iri holds whitespace, a control character or one of "
                          f'<>"{{}}|\\^`: {iri!r}')


_SEPARATORS = re.compile(r"[\s\-_'’]+")
_NOT_ALNUM = re.compile(r"[^0-9A-Za-z]")


class _Folds(dict):
    """Code point → its character in NFKD without combining marks, as
    ``str.translate`` reads it: ASCII maps to itself, and the first 4,096
    other characters met are kept once folded."""

    def __missing__(self, code: int) -> str:
        folded = "".join(c for c in unicodedata.normalize("NFKD", chr(code))
                         if not unicodedata.combining(c))
        if len(self) < 128 + 4096:
            self[code] = folded
        return folded


_FOLDS = _Folds((code, code) for code in range(128))


def _core(text: str) -> str:
    """``text`` accent-folded, split at separators, each part capitalised,
    joined and stripped of all but ASCII letters and digits.

    Each step acts within one part, so the core of ``p + " " + r`` is the
    core of ``p`` followed by the core of ``r``.
    """
    # NFKD decomposes each character on its own and canonical reordering
    # moves only combining marks, which are dropped: so folding each
    # character gives NFKD(text) without its marks.
    stripped = text if text.isascii() else text.translate(_FOLDS)
    camel = "".join(t[:1].upper() + t[1:] for t in _SEPARATORS.split(stripped) if t)
    return _NOT_ALNUM.sub("", camel)


def mangle_labels(labels: Iterable[str]) -> dict[str, str]:
    """Injective label → local-name map.

    Base names are accent-stripped CamelCase; collisions get a numeric
    suffix in sorted-label order, so distinct labels always get distinct
    names and every name maps back to exactly one label.

    A label's camel core (``_core``) is its base name before a leading
    ``C``.  A label that extends an earlier label by a space, as a species'
    label extends its genus's, takes the core of the longest such label,
    which sorts before it, followed by the core of the rest; only a label
    that extends none is folded whole.
    """
    result: dict[str, str] = {}
    cores: dict[str, str] = {}
    used: dict[str, int] = {}
    for label in sorted(set(labels)):
        cut = label.rfind(" ")
        while cut != -1 and label[:cut] not in cores:
            cut = label.rfind(" ", 0, cut)
        if cut == -1:
            core = _core(label)
        else:
            core = cores[label[:cut]] + _core(label[cut + 1:])
        cores[label] = core
        # a name starts with a letter: C stands for an empty core, or before a digit
        base = core if core[:1].isalpha() else "C" + core
        count = used.get(base, 0) + 1
        used[base] = count
        result[label] = base if count == 1 else f"{base}_{count}"
    return result


def _preorder(ontology: OkOntology) -> list[str]:
    """Concepts depth-first from each root, children in declaration order."""
    return [name for name, entering in walk(ontology.children_view(), ontology.roots()) if entering]


def _sibling_axis_groups(ontology: OkOntology) -> list[list[str]]:
    """Groups of ≥2 siblings differentiated on the same axis, in
    declaration order within each group."""
    groups: dict[tuple[str, str], list[str]] = {}
    for concept in ontology.concepts.values():
        if concept.genus is not None and concept.differentia is not None:
            groups.setdefault((concept.genus, concept.differentia.axis), []).append(concept.name)
    return [members for key, members in sorted(groups.items()) if len(members) >= 2]


def to_owl(ontology: OkOntology, iri_prefix: str = DEFAULT_IRI) -> str:
    """Render the ontology as OWL 2 Functional Syntax (refuses inconsistent
    input and an ``iri_prefix`` that ``check_iri`` refuses)."""
    check_iri(iri_prefix)
    require_consistent(ontology)
    names = mangle_labels(ontology.concepts)
    order = _preorder(ontology)

    attr_names = mangle_labels({a.name for c in ontology.concepts.values() for a in c.attributes})
    prop = {name: mangled[:1].lower() + mangled[1:] for name, mangled in attr_names.items()}

    ontology_iri = iri_prefix.rstrip("#/")
    lines = [
        f"Prefix(:=<{iri_prefix}>)",
        "Prefix(owl:=<http://www.w3.org/2002/07/owl#>)",
        "Prefix(rdf:=<http://www.w3.org/1999/02/22-rdf-syntax-ns#>)",
        "Prefix(rdfs:=<http://www.w3.org/2000/01/rdf-schema#>)",
        "Prefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)",
        "",
        f"Ontology(<{ontology_iri}>",
        "Declaration(AnnotationProperty(:differentia))",
    ]
    for name in order:
        lines.append(f"Declaration(Class(:{names[name]}))")
    for name in order:
        lines.append(f"AnnotationAssertion(rdfs:label :{names[name]} {quoted(name)})")

    lines.extend(
        sorted(
            f"SubClassOf(:{names[c.name]} :{names[c.genus]})"
            for c in ontology.concepts.values()
            if c.genus is not None
        )
    )
    lines.extend(
        sorted(
            "DisjointClasses(" + " ".join(f":{names[m]}" for m in members) + ")"
            for members in _sibling_axis_groups(ontology)
        )
    )
    lines.extend(
        sorted(
            f"AnnotationAssertion(:differentia :{names[c.name]} {quoted(str(c.differentia))})"
            for c in ontology.concepts.values()
            if c.differentia is not None
        )
    )

    attr_lines = set()
    for concept in ontology.concepts.values():
        for attr in concept.attributes:
            attr_lines.add(f"Declaration(DataProperty(:{prop[attr.name]}))")
            attr_lines.add(f"DataPropertyDomain(:{prop[attr.name]} :{names[concept.name]})")
    lines.extend(sorted(attr_lines))

    lines.append(")")
    return "\n".join(lines) + "\n"


def to_kif(ontology: OkOntology) -> str:
    """Render subsumption and sibling exclusion as KIF sentences.

    Per genus link one implication, per same-axis sibling pair one mutual
    exclusion; identifiers use the same mangling as the OWL local names.
    A root-only ontology yields no sentences.
    """
    require_consistent(ontology)
    names = mangle_labels(ontology.concepts)
    sentences = sorted(
        f"(forall (?x) (=> ({names[c.name]} ?x) ({names[c.genus]} ?x)))"
        for c in ontology.concepts.values()
        if c.genus is not None
    )
    exclusions = []
    for members in _sibling_axis_groups(ontology):
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                exclusions.append(
                    f"(forall (?x) (not (and ({names[members[i]]} ?x) ({names[members[j]]} ?x))))"
                )
    sentences.extend(sorted(exclusions))
    if not sentences:
        return ""
    return "\n".join(sentences) + "\n"
