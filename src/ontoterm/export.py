"""OWL 2 Functional Syntax and KIF emission for concept trees.

The class hierarchy, sibling disjointness (one axiom per group of siblings
differentiated on a shared axis), labels, and attributes are exported.
Differentia values travel as annotations rather than property
restrictions: the export preserves the definitional structure instead of
inventing logical axioms the model does not state.  Output is sorted and
byte-stable so exports can be diffed.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Iterable

from .okmodel import OkOntology, require_consistent

DEFAULT_IRI = "http://example.org/ontology#"


def _camel(label: str) -> str:
    decomposed = unicodedata.normalize("NFKD", unicodedata.normalize("NFC", label))
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    tokens = re.split(r"[\s\-_'’]+", stripped)
    camel = "".join(t[:1].upper() + t[1:] for t in tokens if t)
    camel = re.sub(r"[^0-9A-Za-z]", "", camel)
    if not camel:
        return "C"
    if camel[0].isdigit():
        camel = "C" + camel
    return camel


def mangle_labels(labels: Iterable[str]) -> dict[str, str]:
    """Injective label → local-name map.

    Base names are accent-stripped CamelCase; collisions get a numeric
    suffix in sorted-label order, so distinct labels always get distinct
    names and every name maps back to exactly one label.
    """
    result: dict[str, str] = {}
    used: dict[str, int] = {}
    for label in sorted(set(labels)):
        base = _camel(label)
        count = used.get(base, 0) + 1
        used[base] = count
        result[label] = base if count == 1 else f"{base}_{count}"
    return result


def _preorder(ontology: OkOntology) -> list[str]:
    """Concepts depth-first from each root, children in declaration order."""
    children = ontology.children_view()
    order = []
    stack = list(reversed(ontology.roots()))
    while stack:
        name = stack.pop()
        order.append(name)
        stack.extend(reversed(children.get(name, ())))
    return order


def _sibling_axis_groups(ontology: OkOntology) -> list[list[str]]:
    """Groups of ≥2 siblings differentiated on the same axis, in
    declaration order within each group."""
    groups: dict[tuple[str, str], list[str]] = {}
    for concept in ontology.concepts.values():
        if concept.genus is not None and concept.differentia is not None:
            groups.setdefault((concept.genus, concept.differentia.axis), []).append(concept.name)
    return [members for key, members in sorted(groups.items()) if len(members) >= 2]


def to_owl(ontology: OkOntology, iri_prefix: str = DEFAULT_IRI) -> str:
    """Render the ontology as OWL 2 Functional Syntax (refuses inconsistent input)."""
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
        lines.append(f'AnnotationAssertion(rdfs:label :{names[name]} "{name}")')

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
            f'AnnotationAssertion(:differentia :{names[c.name]} "{c.differentia}")'
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
