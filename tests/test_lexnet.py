from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ontoterm.corpus import Document, Lexicon, LexiconEntry, POS, TermCandidate, annotate
from ontoterm.errors import UnknownRefError, UnknownTermError
from ontoterm.lexnet import (
    Evidence,
    LexicalRelation,
    RelationKind,
    Status,
    Term,
    apply_validation,
    build_network,
    copula_relations,
    find_cycle,
    find_validated_hyponymy_cycle,
    lexnet_from_json,
    lexnet_to_json,
    parse_decisions,
    same_head_hyponyms,
    terms_from_candidates,
)

from genutil import copula_oracle, random_copula_case, recursive_cycle_oracle

HYP, SYN = RelationKind.HYPONYMY, RelationKind.SYNONYMY


def cand(label, head=None):
    lemmas = tuple(label.split())
    return TermCandidate(lemmas, "p", head or lemmas[0], [("d", 0)])


RELAY_CANDIDATES = [
    cand("relais"),
    cand("relais de tension"),
    cand("relais à seuil"),
    cand("relais tout ou rien"),
    cand("relais électromagnétique"),
]


# --- same-head mining -------------------------------------------------------


def test_same_head_yields_four_relay_hyponyms():
    edges = same_head_hyponyms(RELAY_CANDIDATES)
    assert {(e.source, e.target) for e in edges} == {
        ("relais de tension", "relais"),
        ("relais à seuil", "relais"),
        ("relais tout ou rien", "relais"),
        ("relais électromagnétique", "relais"),
    }
    assert all(e.evidence is Evidence.SAME_HEAD for e in edges)


def test_same_head_single_term_no_pairs():
    assert same_head_hyponyms([cand("relais")]) == []


def test_same_head_rule_is_flat():
    # the longer term links to its bare head, not to the intermediate term
    edges = same_head_hyponyms(
        [cand("relais à seuil de tension"), cand("relais à seuil"), cand("relais")]
    )
    assert {(e.source, e.target) for e in edges} == {
        ("relais à seuil de tension", "relais"),
        ("relais à seuil", "relais"),
    }


# --- copula mining ----------------------------------------------------------


COPULA_LEXICON = Lexicon(
    [
        LexiconEntry("un", "un", POS.DET),
        LexiconEntry("une", "un", POS.DET),
        LexiconEntry("est", "être", POS.VERB),
        LexiconEntry("de", "de", POS.PREP),
        LexiconEntry("à", "à", POS.PREP),
        LexiconEntry("relais", "relais", POS.NOUN),
        LexiconEntry("tension", "tension", POS.NOUN),
    ]
)


def copula_tokens(text):
    return [annotate(Document("d", text), COPULA_LEXICON)]


def test_copula_detects_hyponymy():
    tokens = copula_tokens("un relais de tension est un relais")
    edges = copula_relations(tokens, ["relais de tension", "relais"])
    assert [(e.source, e.target) for e in edges] == [("relais de tension", "relais")]
    assert edges[0].evidence is Evidence.COPULA_PATTERN


def test_copula_discards_self_loop():
    tokens = copula_tokens("un relais est un relais")
    assert copula_relations(tokens, ["relais"]) == []


def test_copula_turbine_sentence():
    tokens = copula_tokens("une turbine Kaplan est une turbine à hélices")
    edges = copula_relations(tokens, ["turbine kaplan", "turbine à hélices"])
    assert [(e.source, e.target) for e in edges] == [("turbine kaplan", "turbine à hélices")]


def test_copula_without_determiner():
    tokens = copula_tokens("relais de tension est relais")
    edges = copula_relations(tokens, ["relais de tension", "relais"])
    assert [(e.source, e.target) for e in edges] == [("relais de tension", "relais")]


@pytest.mark.parametrize(
    "text, terms, expected",
    [
        # the lemmas of «tension est» make a longer term, but no copula follows it
        ("tension est un relais", ["tension être", "tension", "relais"], ("tension", "relais")),
        # a copula follows the longer term, but no second term does
        ("relais est tension est", ["relais être tension", "relais", "tension"],
         ("relais", "tension")),
    ],
)
def test_copula_longest_first_term_falls_through_to_shorter(text, terms, expected):
    edges = copula_relations(copula_tokens(text), terms)
    assert [(e.source, e.target) for e in edges] == [expected]


def test_copula_matches_brute_force_oracle():
    rng = random.Random(20100213)
    found = 0
    for _ in range(1500):
        tokens, labels = random_copula_case(rng)
        expected = copula_oracle(tokens, labels)
        got = copula_relations(tokens, labels)
        assert {(e.source, e.target) for e in got} == expected, (tokens, labels)
        assert [(e.source, e.target) for e in got] == sorted(expected)
        found += bool(expected)
    assert found > 250  # the generator plants enough sentences to exercise matching


_COPULA_LABEL_DIGEST = """
import hashlib, random
from genutil import random_copula_case
rng = random.Random(20100213)
labels = [random_copula_case(rng)[1] for _ in range(1000)]
print(hashlib.sha256(repr(labels).encode()).hexdigest())
"""


def test_random_copula_cases_do_not_depend_on_the_hash_seed():
    """Set order follows ``PYTHONHASHSEED``; the generator's cases must not,
    or a failing case would not reproduce in another process."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    digests = {
        subprocess.run(
            [sys.executable, "-c", _COPULA_LABEL_DIGEST],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(digests) == 1, digests


# --- network assembly -------------------------------------------------------


def test_build_network_five_nodes_four_edges():
    net = build_network(terms_from_candidates(RELAY_CANDIDATES), same_head_hyponyms(RELAY_CANDIDATES))
    assert len(net.terms) == 5
    assert len(net.relations) == 4


def test_build_network_deduplicates():
    terms = [Term("a b", "a"), Term("a", "a")]
    edge = LexicalRelation(HYP, "a b", "a", Evidence.SAME_HEAD)
    net = build_network(terms, [edge, edge])
    assert len(net.relations) == 1


def test_build_network_unknown_endpoint():
    with pytest.raises(UnknownTermError) as exc:
        build_network([Term("a", "a")], [LexicalRelation(HYP, "a", "ghost", Evidence.DECLARED)])
    assert "ghost" in str(exc.value)


def test_evidence_merge_keeps_strongest_and_records_both():
    terms = [Term("a b", "a"), Term("a", "a")]
    net = build_network(
        terms,
        [
            LexicalRelation(HYP, "a b", "a", Evidence.SAME_HEAD),
            LexicalRelation(HYP, "a b", "a", Evidence.COPULA_PATTERN),
        ],
    )
    rel = net.relations[(HYP, "a b", "a")]
    assert rel.evidence is Evidence.COPULA_PATTERN
    assert set(rel.evidence_sources) == {Evidence.SAME_HEAD, Evidence.COPULA_PATTERN}


def test_declared_synonyms_stored_symmetrically():
    net = build_network([Term("a", "a"), Term("b", "b")], synonym_declarations=[("a", "b")])
    assert (SYN, "a", "b") in net.relations
    assert (SYN, "b", "a") in net.relations
    assert net.relations[(SYN, "a", "b")].evidence is Evidence.DECLARED


def test_contradictions_flagged():
    terms = [Term("turbine kaplan", "turbine"), Term("turbine à hélices", "turbine")]
    net = build_network(
        terms,
        [
            LexicalRelation(HYP, "turbine kaplan", "turbine à hélices", Evidence.COPULA_PATTERN),
            LexicalRelation(HYP, "turbine à hélices", "turbine kaplan", Evidence.COPULA_PATTERN),
        ],
    )
    assert net.contradictions() == [("turbine kaplan", "turbine à hélices")]


# --- validation -------------------------------------------------------------


def relay_network():
    return build_network(terms_from_candidates(RELAY_CANDIDATES), same_head_hyponyms(RELAY_CANDIDATES))


def test_validate_all_relay_edges():
    decisions = parse_decisions(
        "\n".join(
            f'validate relation hyponymy "{src}" "relais"'
            for src in (
                "relais de tension",
                "relais à seuil",
                "relais tout ou rien",
                "relais électromagnétique",
            )
        )
    )
    net = apply_validation(relay_network(), decisions)
    validated = net.relations_of(HYP, Status.VALIDATED)
    assert len(validated) == 4
    # endpoints of an approved edge are approved terms
    assert net.terms["relais"].status is Status.VALIDATED
    assert net.terms["relais de tension"].status is Status.VALIDATED


def test_reject_term_cascades_to_relations():
    terms = [Term("xyzzy unit", "xyzzy"), Term("xyzzy", "xyzzy"), Term("unit", "unit")]
    relations = [
        LexicalRelation(HYP, "xyzzy unit", "xyzzy", Evidence.SAME_HEAD),
        LexicalRelation(RelationKind.MERONYMY, "xyzzy unit", "unit", Evidence.DECLARED),
    ]
    net = apply_validation(
        build_network(terms, relations), parse_decisions('reject term "xyzzy unit"')
    )
    assert net.terms["xyzzy unit"].status is Status.REJECTED
    assert all(r.status is Status.REJECTED for r in net.incident("xyzzy unit"))


def test_rejection_beats_later_relation_validation():
    decisions = parse_decisions(
        'reject term "relais de tension"\n'
        'validate relation hyponymy "relais de tension" "relais"'
    )
    net = apply_validation(relay_network(), decisions)
    assert net.terms["relais de tension"].status is Status.REJECTED
    assert net.relations[(HYP, "relais de tension", "relais")].status is Status.REJECTED


def test_empty_decisions_is_identity():
    before = relay_network()
    after = apply_validation(before, [])
    assert lexnet_to_json(before) == lexnet_to_json(after)


def test_unknown_reference_rejected():
    with pytest.raises(UnknownRefError):
        apply_validation(relay_network(), parse_decisions('validate term "ghost"'))


def test_decision_syntax_error():
    with pytest.raises(UnknownRefError):
        parse_decisions("validate something weird")


def test_validated_synonymy_updates_both_directions():
    net = build_network(
        [Term("a", "a"), Term("b", "b")], synonym_declarations=[("a", "b")]
    )
    net = apply_validation(net, parse_decisions('validate relation synonymy "a" "b"'))
    assert net.relations[(SYN, "a", "b")].status is Status.VALIDATED
    assert net.relations[(SYN, "b", "a")].status is Status.VALIDATED


def test_cycle_detection_on_validated_hyponymy():
    terms = [Term("a", "a"), Term("b", "b")]
    relations = [
        LexicalRelation(HYP, "a", "b", Evidence.DECLARED, status=Status.VALIDATED),
        LexicalRelation(HYP, "b", "a", Evidence.DECLARED, status=Status.VALIDATED),
    ]
    net = build_network(terms, relations)
    cycle = find_validated_hyponymy_cycle(net)
    assert cycle is not None
    assert set(cycle) == {"a", "b"}


def acyclic_by_peeling(edges):
    """Kahn's algorithm: a digraph is acyclic iff repeatedly removing
    nodes without incoming edges removes them all."""
    edges = set(edges)
    nodes = {n for edge in edges for n in edge}
    while True:
        sources = nodes - {target for _, target in edges}
        if not sources:
            return not nodes
        nodes -= sources
        edges = {(a, b) for a, b in edges if a in nodes}


def test_find_cycle_matches_recursive_search_and_peeling():
    rng = random.Random(20100216)
    cyclic = 0
    for _ in range(1000):
        nodes = [f"v{i}" for i in range(rng.randint(1, 8))]
        edges = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 10))}
        cycle = find_cycle(edges)
        assert cycle == recursive_cycle_oracle(edges), edges
        assert (cycle is None) == acyclic_by_peeling(edges), edges
        if cycle is not None:
            cyclic += 1
            assert cycle[0] == cycle[-1]
            assert len(set(cycle)) == len(cycle) - 1
            assert all(pair in edges for pair in zip(cycle, cycle[1:]))
    assert cyclic > 100


def test_lexnet_json_roundtrip():
    net = relay_network()
    again = lexnet_from_json(lexnet_to_json(net))
    assert lexnet_to_json(again) == lexnet_to_json(net)


# --- properties -------------------------------------------------------------

_labels = st.text(alphabet="abcdefg ", min_size=1, max_size=12).map(
    lambda s: " ".join(s.split())
).filter(bool)


@given(
    terms=st.sets(_labels, min_size=2, max_size=8),
    data=st.data(),
)
def test_synonymy_symmetry_property(terms, data):
    term_list = sorted(terms)
    n_pairs = data.draw(st.integers(0, 5))
    pairs = [
        tuple(data.draw(st.sampled_from(term_list)) for _ in range(2)) for _ in range(n_pairs)
    ]
    net = build_network([Term(t, t.split()[0]) for t in term_list], synonym_declarations=pairs)
    for rel in net.relations.values():
        if rel.kind is SYN:
            assert (SYN, rel.target, rel.source) in net.relations
