"""``graph.walk`` against a recursive walk and the closure oracle, and the
one unknown-concept rule that both structures share through ``Hierarchy``."""

from __future__ import annotations

import random

import pytest

from genutil import closure_oracle, random_ok_tree, random_taxonomy
from test_export import recursive_preorder
from ontoterm.errors import UnknownConceptError
from ontoterm.graph import walk
from ontoterm.okmodel import (
    ObjectInstance,
    OkConcept,
    OkOntology,
    classify_object,
    similarity,
    subsumes,
)
from ontoterm.projection import Concept, Taxonomy
from ontoterm.retrieval import DocIndex, query


def _edges(children) -> set[tuple[str, str]]:
    """(child, parent) edges of a children view, the ``None`` genus left out."""
    return {(kid, parent) for parent, kids in children.items() if parent is not None
            for kid in kids}


def test_walk_matches_the_oracles_on_random_structures():
    rng = random.Random(15)
    for case in range(300):
        structure = random_taxonomy(rng) if case % 2 else random_ok_tree(rng)
        children = structure.children_view()
        nodes = set(structure.concepts)
        edges = _edges(children)
        roots = structure.roots()

        start = rng.choice(sorted(nodes))
        events = list(walk(children, [start]))
        entered = [n for n, entering in events if entering]
        left = [n for n, entering in events if not entering]
        assert len(entered) == len(set(entered)) and sorted(left) == sorted(entered)
        at = {event: i for i, event in enumerate(events)}
        for node in entered:
            assert at[node, True] < at[node, False]
            assert all(at[kid, False] < at[node, False] for kid in children.get(node, ()))
        assert set(entered) == closure_oracle(edges, nodes, start)

        if isinstance(structure, OkOntology):
            preorder = [n for n, entering in walk(children, roots) if entering]
            assert preorder == recursive_preorder(structure)

        done = set(rng.sample(sorted(nodes), k=rng.randint(0, len(nodes))))
        entered = {n for n, entering in walk(children, roots, done) if entering}
        kept = {(child, parent) for child, parent in edges if not {child, parent} & done}
        reachable = set().union(*(closure_oracle(kept, nodes, r) for r in roots if r not in done))
        assert not entered & done
        assert entered == reachable


def test_walk_takes_a_deep_chain_without_recursion():
    depth = 100_000
    chain = {i: (i + 1,) for i in range(depth)}
    events = list(walk(chain, [0]))
    assert [n for n, entering in events if entering] == list(range(depth + 1))
    assert [n for n, entering in events if not entering] == list(range(depth, -1, -1))


_TAXONOMY = Taxonomy({"a": Concept("a", "a", ("a",))})
_ONTOLOGY = OkOntology(concepts={"a": OkConcept("a")})
_INDEX = DocIndex([("d1", "a"), ("d2", "ghost")])  # postings for "ghost", no concept


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: _TAXONOMY.subsumed_closure("ghost"), id="taxonomy-closure"),
        pytest.param(lambda: _ONTOLOGY.subsumed_closure("ghost"), id="ontology-closure"),
        pytest.param(lambda: subsumes(_ONTOLOGY, "ghost", "a"), id="subsumes-general"),
        pytest.param(lambda: subsumes(_ONTOLOGY, "a", "ghost"), id="subsumes-specific"),
        pytest.param(lambda: subsumes(_ONTOLOGY, "ghost", "phantom"), id="subsumes-both"),
        pytest.param(lambda: similarity(_ONTOLOGY, "a", "ghost"), id="similarity"),
        pytest.param(lambda: similarity(_ONTOLOGY, "ghost", "phantom"), id="similarity-both"),
        pytest.param(
            lambda: classify_object(_ONTOLOGY, ObjectInstance("o", "ghost", {})), id="classify"
        ),
        pytest.param(lambda: query(_INDEX, _TAXONOMY, "ghost"), id="query-taxonomy"),
        pytest.param(lambda: query(_INDEX, _ONTOLOGY, "ghost"), id="query-ontology"),
    ],
)
def test_every_entry_point_names_the_first_unknown_concept(call):
    with pytest.raises(UnknownConceptError) as raised:
        call()
    assert type(raised.value) is UnknownConceptError
    assert raised.value.args == ("unknown concept: 'ghost'",)


@pytest.mark.parametrize("structure", [_TAXONOMY, _ONTOLOGY], ids=["taxonomy", "ontology"])
def test_a_leaf_closure_is_a_new_set_on_every_call(structure):
    first = structure.subsumed_closure("a")
    assert first == {"a"}
    first.add("changed")
    second = structure.subsumed_closure("a")
    assert second == {"a"} and second is not first
