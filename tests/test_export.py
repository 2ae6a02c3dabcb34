from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from genutil import random_ok_tree
from ontoterm.errors import InconsistentOntologyError
from ontoterm.fixtures import data_path
from ontoterm.okmodel import Axis, Differentia, OkConcept, OkOntology, load_dsl, parse_dsl
from ontoterm.export import _preorder, mangle_labels, to_kif, to_owl


@pytest.fixture(scope="module")
def relay():
    return load_dsl(data_path("relais.dsl"))


# --- OWL ---------------------------------------------------------------------


def test_owl_contains_subclass_axiom(relay):
    owl = to_owl(relay)
    assert "SubClassOf(:RelaisASeuilDeTension :RelaisASeuil)" in owl


def test_owl_contains_disjointness_from_shared_axis(relay):
    owl = to_owl(relay)
    assert "DisjointClasses(:RelaisToutOuRien :RelaisASeuil)" in owl


def test_owl_single_concept_ontology():
    owl = to_owl(parse_dsl("concept relais root\n"))
    assert owl.count("Declaration(Class(") == 1
    assert "SubClassOf" not in owl
    assert "DisjointClasses" not in owl


def test_owl_labels_and_differentia_annotations(relay):
    owl = to_owl(relay)
    assert 'AnnotationAssertion(rdfs:label :RelaisASeuil "relais à seuil")' in owl
    assert 'AnnotationAssertion(:differentia :RelaisASeuil "comportement=seuil")' in owl


def test_owl_attribute_domain(relay):
    owl = to_owl(relay)
    assert "Declaration(DataProperty(:seuilVolts))" in owl
    assert "DataPropertyDomain(:seuilVolts :RelaisASeuilDeTension)" in owl


def test_owl_custom_iri(relay):
    owl = to_owl(relay, "http://edf.example/relais#")
    assert owl.startswith("Prefix(:=<http://edf.example/relais#>)")
    assert "Ontology(<http://edf.example/relais>" in owl


def test_owl_refuses_inconsistent_ontology():
    ontology = OkOntology(concepts={"a": OkConcept("a"), "b": OkConcept("b")})  # two roots
    with pytest.raises(InconsistentOntologyError) as exc:
        to_owl(ontology)
    assert exc.value.violations


def test_owl_byte_stable(relay):
    assert to_owl(relay) == to_owl(relay)
    assert to_kif(relay) == to_kif(relay)


# --- KIF ---------------------------------------------------------------------


def test_kif_subsumption_sentence(relay):
    kif = to_kif(relay)
    assert "(forall (?x) (=> (RelaisASeuilDeTension ?x) (RelaisASeuil ?x)))" in kif


def test_kif_exclusion_sentence(relay):
    kif = to_kif(relay)
    assert "(forall (?x) (not (and (RelaisToutOuRien ?x) (RelaisASeuil ?x))))" in kif


def test_kif_root_only_is_empty():
    assert to_kif(parse_dsl("concept relais root\n")) == ""


def test_kif_sentence_count_on_reference(relay):
    sentences = [line for line in to_kif(relay).splitlines() if line]
    assert len(sentences) == 4 + 1  # non-root concepts + same-axis sibling pairs


# --- name mangling -------------------------------------------------------------


def test_mangling_expected_names(relay):
    names = mangle_labels(relay.concepts)
    assert names["relais à seuil de tension"] == "RelaisASeuilDeTension"
    assert names["relais tout ou rien"] == "RelaisToutOuRien"
    assert names["relais électromagnétique"] == "RelaisElectromagnetique"


def test_mangling_disambiguates_collisions():
    names = mangle_labels(["relais a", "relais à", "relais-a"])
    assert len(set(names.values())) == 3


def test_mangled_names_round_trip_to_a_unique_concept(relay):
    names = mangle_labels(relay.concepts)
    inverse = {}
    for label, name in names.items():
        assert name not in inverse
        inverse[name] = label
    owl = to_owl(relay)
    for match in re.finditer(r"Declaration\(Class\(:(\w+)\)\)", owl):
        assert match.group(1) in inverse


_label_chars = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzàâéèêëîïôùûç -'0123456789",
    min_size=1,
    max_size=14,
)


@given(st.sets(_label_chars, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_mangling_injective_on_random_label_sets(labels):
    names = mangle_labels(labels)
    assert len(set(names.values())) == len(set(labels))


# --- axiom-count formulas on random consistent ontologies ----------------------


def count_axioms(owl: str, keyword: str) -> int:
    return sum(1 for line in owl.splitlines() if line.startswith(keyword))


def sibling_axis_groups(ontology):
    groups = {}
    for concept in ontology.concepts.values():
        if concept.genus is not None and concept.differentia is not None:
            groups.setdefault((concept.genus, concept.differentia.axis), []).append(concept.name)
    return [g for g in groups.values() if len(g) >= 2]


def test_axiom_counts_on_random_consistent_ontologies():
    rng = random.Random(20240815)
    for _ in range(50):
        ontology = random_ok_tree(rng, max_nodes=40, attributes=True)
        owl = to_owl(ontology)
        kif = to_kif(ontology)
        non_root = sum(1 for c in ontology.concepts.values() if c.genus is not None)
        groups = sibling_axis_groups(ontology)
        pairs = sum(len(g) * (len(g) - 1) // 2 for g in groups)
        assert count_axioms(owl, "SubClassOf(") == non_root
        assert count_axioms(owl, "DisjointClasses(") == len(groups)
        sentences = [line for line in kif.splitlines() if line]
        assert len(sentences) == non_root + pairs


# --- traversal order and depth -------------------------------------------------


def recursive_preorder(ontology):
    order = []

    def visit(name):
        order.append(name)
        for child in ontology.children(name):
            visit(child)

    for root in ontology.roots():
        visit(root)
    return order


def declared_classes(owl):
    return re.findall(r"^Declaration\(Class\(:(\w+)\)\)$", owl, re.M)


def test_owl_declares_classes_in_preorder():
    rng = random.Random(20100215)
    for _ in range(100):
        ontology = random_ok_tree(rng, max_nodes=60)
        names = mangle_labels(ontology.concepts)
        assert declared_classes(to_owl(ontology)) == [
            names[n] for n in recursive_preorder(ontology)
        ]


def deep_chain(depth):
    axes = {f"a{i}": Axis(f"a{i}", ("x", "y")) for i in range(1, depth)}
    concepts = {"c0": OkConcept("c0")}
    for i in range(1, depth):
        concepts[f"c{i}"] = OkConcept(f"c{i}", f"c{i - 1}", Differentia(f"a{i}", "x"))
    return OkOntology("deep", axes, concepts)


def test_owl_exports_a_chain_deeper_than_the_recursion_limit():
    depth = max(10_000, sys.getrecursionlimit() + 200)
    owl = to_owl(deep_chain(depth))
    assert declared_classes(owl) == [f"C{i}" for i in range(depth)]
    assert count_axioms(owl, "SubClassOf(") == depth - 1


def test_preorder_of_a_10k_deep_tree():
    assert _preorder(deep_chain(10_000)) == [f"c{i}" for i in range(10_000)]
