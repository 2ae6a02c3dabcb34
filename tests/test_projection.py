from __future__ import annotations

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from genutil import closure_oracle, random_taxonomy, recursive_cycle_oracle
from ontoterm.errors import CycleError, UnknownConceptError
from ontoterm.lexnet import (
    Evidence,
    LexicalRelation,
    RelationKind,
    Status,
    Term,
    build_network,
)
from ontoterm.projection import (
    Concept,
    Taxonomy,
    concept_id,
    project,
    taxonomy_from_json,
    taxonomy_to_dot,
    taxonomy_to_json,
)

HYP, SYN = RelationKind.HYPONYMY, RelationKind.SYNONYMY

RELAY_CHILDREN = (
    "relais de tension",
    "relais à seuil",
    "relais tout ou rien",
    "relais électromagnétique",
)


def validated_relay_net():
    terms = [Term("relais", "relais", Status.VALIDATED)] + [
        Term(label, "relais", Status.VALIDATED) for label in RELAY_CHILDREN
    ]
    relations = [
        LexicalRelation(HYP, label, "relais", Evidence.SAME_HEAD, status=Status.VALIDATED)
        for label in RELAY_CHILDREN
    ]
    return build_network(terms, relations)


def test_project_relay_network():
    taxonomy = project(validated_relay_net())
    assert taxonomy.roots == ["relais"]
    assert set(taxonomy.children("relais")) == {concept_id(c) for c in RELAY_CHILDREN}
    assert len(taxonomy.subsumption) == 4


def test_project_empty_network():
    taxonomy = project(build_network([]))
    assert taxonomy.concepts == {}
    assert taxonomy.subsumption == set()


def test_project_excludes_candidate_material():
    terms = [
        Term("relais", "relais", Status.VALIDATED),
        Term("relais de tension", "relais", Status.CANDIDATE),
        Term("bruit", "bruit", Status.REJECTED),
    ]
    relations = [
        LexicalRelation(HYP, "relais de tension", "relais", Evidence.SAME_HEAD),
    ]
    taxonomy = project(build_network(terms, relations))
    assert set(taxonomy.concepts) == {"relais"}
    assert taxonomy.subsumption == set()


def test_project_collapses_synonyms():
    terms = [
        Term("relais", "relais", Status.VALIDATED),
        Term("relais de tension", "relais", Status.VALIDATED),
        Term("relais voltmétrique", "relais", Status.VALIDATED),
    ]
    relations = [
        LexicalRelation(HYP, "relais de tension", "relais", Evidence.SAME_HEAD, status=Status.VALIDATED),
        LexicalRelation(HYP, "relais voltmétrique", "relais", Evidence.SAME_HEAD, status=Status.VALIDATED),
        LexicalRelation(SYN, "relais de tension", "relais voltmétrique", Evidence.DECLARED, status=Status.VALIDATED),
    ]
    taxonomy = project(build_network(terms, relations))
    assert len(taxonomy.concepts) == 2
    assert len(taxonomy.subsumption) == 1
    merged = taxonomy.concepts[concept_id("relais de tension")]
    assert set(merged.denoting_terms) == {"relais de tension", "relais voltmétrique"}


def test_project_rejects_cycle():
    terms = [Term("a", "a", Status.VALIDATED), Term("b", "b", Status.VALIDATED)]
    relations = [
        LexicalRelation(HYP, "a", "b", Evidence.DECLARED, status=Status.VALIDATED),
        LexicalRelation(HYP, "b", "a", Evidence.DECLARED, status=Status.VALIDATED),
    ]
    with pytest.raises(CycleError) as exc:
        project(build_network(terms, relations))
    assert "a" in str(exc.value) and "b" in str(exc.value)


def test_project_rejects_cycle_created_by_collapse():
    # a1 ~ a2 synonyms; a1 -> b -> a2 becomes a self-reaching loop once merged
    terms = [Term(x, x, Status.VALIDATED) for x in ("a1", "a2", "b")]
    relations = [
        LexicalRelation(HYP, "a1", "b", Evidence.DECLARED, status=Status.VALIDATED),
        LexicalRelation(HYP, "b", "a2", Evidence.DECLARED, status=Status.VALIDATED),
        LexicalRelation(SYN, "a1", "a2", Evidence.DECLARED, status=Status.VALIDATED),
    ]
    with pytest.raises(CycleError):
        project(build_network(terms, relations))


def test_project_10k_deep_chain_with_labels_sorted_leaf_first():
    # the leaf's label sorts first, so cycle detection walks the whole chain
    n = 10_000
    labels = [f"t{n - 1 - k:05d}" for k in range(n)]  # labels[0] is the root
    terms = [Term(label, label, Status.VALIDATED) for label in labels]
    relations = [
        LexicalRelation(HYP, labels[k + 1], labels[k], Evidence.DECLARED, status=Status.VALIDATED)
        for k in range(n - 1)
    ]
    taxonomy = project(build_network(terms, relations))
    assert len(taxonomy.concepts) == n
    assert len(taxonomy.subsumption) == n - 1
    assert taxonomy.roots == [labels[0]]


# --- closure ----------------------------------------------------------------


def test_closure_of_leaf_is_reflexive():
    taxonomy = project(validated_relay_net())
    leaf = concept_id("relais à seuil")
    assert taxonomy.subsumed_closure(leaf) == {leaf}


def test_closure_of_root_covers_all():
    taxonomy = project(validated_relay_net())
    assert taxonomy.subsumed_closure("relais") == set(taxonomy.concepts)


def test_closure_unknown_concept():
    taxonomy = project(validated_relay_net())
    with pytest.raises(UnknownConceptError):
        taxonomy.subsumed_closure("ghost")


def test_closure_matches_fixpoint_oracle_on_random_dags():
    rng = random.Random(20240811)
    for _ in range(100):
        taxonomy = random_taxonomy(rng, max_nodes=50)
        nodes = set(taxonomy.concepts)
        for cid in nodes:
            expected = closure_oracle(taxonomy.subsumption, nodes, cid)
            assert taxonomy.subsumed_closure(cid) == expected


def edge_scan_case(rng):
    """The concepts and edges of a random taxonomy (empty one time in 50),
    some of whose edges name ids that are not concepts."""
    if rng.random() < 0.02:
        return {}, set()
    taxonomy = random_taxonomy(rng, max_nodes=30)
    ids = sorted(taxonomy.concepts)
    edges = set(taxonomy.subsumption)
    for _ in range(rng.choice((0, 0, 1, 3))):
        ghost = f"ghost{rng.randrange(5)}"
        edges.add((ghost, rng.choice(ids)) if rng.random() < 0.5 else (rng.choice(ids), ghost))
    return taxonomy.concepts, edges


def test_taxonomy_views_match_edge_scans_on_random_taxonomies():
    rng = random.Random(20101018)
    empty = dangling = 0
    for _ in range(1000):
        concepts, edges = edge_scan_case(rng)
        unknown = sorted({cid for edge in edges for cid in edge} - set(concepts))
        if unknown:
            dangling += 1
            with pytest.raises(ValueError, match=re.escape(f"unknown concepts: {unknown}")):
                Taxonomy(concepts, edges)
            continue
        taxonomy = Taxonomy(concepts, edges)
        empty += not taxonomy.concepts
        assert taxonomy.subsumption == edges
        assert taxonomy.roots == sorted(
            cid for cid in taxonomy.concepts if not any(child == cid for child, _ in edges)
        )
        assert taxonomy.children_view() == {
            parent: tuple(sorted(c for c, p in edges if p == parent)) for _, parent in edges
        }
        for cid in [*taxonomy.concepts, "ghost0"]:
            assert taxonomy.parents(cid) == sorted(p for c, p in edges if c == cid)
            assert taxonomy.children(cid) == sorted(c for c, p in edges if p == cid)
            if cid in taxonomy.concepts:
                assert taxonomy.subsumed_closure(cid) == closure_oracle(edges, set(taxonomy.concepts), cid)
        with pytest.raises(AttributeError):
            taxonomy.subsumption.add(("x", "y"))
        with pytest.raises(TypeError):
            taxonomy.concepts["x"] = Concept("x", "x", ("x",))
    assert empty and dangling > 100


def test_a_cyclic_taxonomy_cannot_be_built():
    rng = random.Random(20101024)
    shapes = Counter()
    for _ in range(1000):
        taxonomy = random_taxonomy(rng, max_nodes=30)
        concepts, edges = taxonomy.concepts, set(taxonomy.subsumption)
        ids = sorted(concepts)
        shape = rng.choice(("self-loop", "cycle", "random edges"))
        if shape == "self-loop" or len(ids) < 2:
            node = rng.choice(ids)
            edges.add((node, node))
        elif shape == "cycle":
            ring = rng.sample(ids, rng.randint(2, min(len(ids), 6)))
            edges |= set(zip(ring, ring[1:] + ring[:1]))
        else:
            edges |= {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(1, 4))}
        cycle = recursive_cycle_oracle(edges)
        shapes["acyclic" if cycle is None else "self-loop" if len(cycle) == 2 else "cycle"] += 1
        if cycle is None:
            assert Taxonomy(concepts, edges).subsumption == edges
            continue
        with pytest.raises(ValueError) as exc:
            Taxonomy(concepts, edges)
        assert str(exc.value) == "subsumption cycle: " + " -> ".join(cycle)
    assert min(shapes.values()) >= 100, shapes


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_closure_monotonicity(seed):
    rng = random.Random(seed)
    taxonomy = random_taxonomy(rng, max_nodes=30)
    cid = rng.choice(sorted(taxonomy.concepts))
    closure = taxonomy.subsumed_closure(cid)
    for inner in closure:
        assert taxonomy.subsumed_closure(inner) <= closure


def test_edge_count_matches_validated_edges():
    net = validated_relay_net()
    validated_edges = net.relations_of(HYP, Status.VALIDATED)
    taxonomy = project(net)
    assert len(taxonomy.subsumption) == len(validated_edges)


# --- serialization ----------------------------------------------------------


def test_taxonomy_json_roundtrip():
    taxonomy = project(validated_relay_net())
    again = taxonomy_from_json(taxonomy_to_json(taxonomy))
    assert taxonomy_to_json(again) == taxonomy_to_json(taxonomy)


def test_dot_output_lists_edges():
    taxonomy = project(validated_relay_net())
    dot = taxonomy_to_dot(taxonomy)
    assert '"relais de tension" -> "relais";' in dot
    assert dot.startswith("digraph")
