"""Shared random-structure generators and independent oracles for tests.

The oracles deliberately use different mechanics than the implementations
they check: closure/ancestry are computed by fixpoint iteration over raw
edge lists, pattern-match counting re-runs the scan as a regular
expression over a POS-code string, and copula mining and alignment are
per-call brute-force scans over every known term or concept.  The
per-token front end (``AnnotatedToken`` objects, a pattern test at every
position) is the one the columnar ``DocTokens`` front end replaced.  The cycle
oracle is the recursive depth-first search the iterative one replaced;
the children, closure, consistency and structure-comparison oracles are
the per-call scans the indexed versions replaced, and the retrieval oracle
scans every (document, concept) annotation.
"""

from __future__ import annotations

import random
import re
import unicodedata
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import pytest

from ontoterm.align import (
    AlignKind,
    AlignmentResult,
    DiscrepancyEntry,
    DiscrepancyReport,
    Verdict,
    _VERDICT_PRIORITY,
    normalize_label,
)
from ontoterm.corpus import (
    COPULA_SURFACES,
    POS,
    TAG_CODES,
    Document,
    DocTokens,
    HeadPosition,
    Lexicon,
    LexiconEntry,
    PatternDef,
    TermCandidate,
    _WORD_RUN,
    _split_elisions,
    _validate_patterns,
)
from ontoterm.lexnet import Evidence, LexicalRelation, RelationKind
from ontoterm.errors import UnknownConceptError, UnresolvableLabelError
from ontoterm.okmodel import (
    AttributeDef,
    Axis,
    Differentia,
    OkConcept,
    OkOntology,
    ValueType,
    Violation,
    subsumes,
)
from ontoterm.projection import Concept, Taxonomy, concept_id
from ontoterm.retrieval import RecallComparison, resolve_label, structure_name


def closure_oracle(edges: set[tuple[str, str]], nodes: set[str], start: str) -> set[str]:
    """Reflexive down-closure by fixpoint over (child, parent) edges."""
    closed = {start}
    changed = True
    while changed:
        changed = False
        for child, parent in edges:
            if parent in closed and child not in closed:
                closed.add(child)
                changed = True
    return closed


def ancestors_oracle(ontology: OkOntology, name: str) -> set[str]:
    """Reflexive ancestor set by fixpoint over the genus map."""
    out = {name}
    changed = True
    while changed:
        changed = False
        for concept in ontology.concepts.values():
            if concept.name in out and concept.genus is not None and concept.genus not in out:
                out.add(concept.genus)
                changed = True
    return out


def random_taxonomy(rng: random.Random, max_nodes: int = 50, prefix: str = "c") -> Taxonomy:
    """Random DAG taxonomy; edges only point from later to earlier nodes,
    so acyclicity holds by construction."""
    n = rng.randint(1, max_nodes)
    ids = [f"{prefix}{i}" for i in range(n)]
    concepts = {cid: Concept(cid, cid, (cid,)) for cid in ids}
    edges = set()
    for i in range(1, n):
        for parent in rng.sample(range(i), k=min(i, rng.choice((0, 1, 1, 2)))):
            edges.add((ids[i], ids[parent]))
    return Taxonomy(concepts, edges)


def random_ok_tree(
    rng: random.Random, max_nodes: int = 100, n_axes: int = 6, attributes: bool = False
) -> OkOntology:
    """Random consistent ontology: a tree where every child takes a fresh
    axis for its path and a value unused among its same-axis siblings."""
    axes = {
        f"axis{i}": Axis(f"axis{i}", tuple(f"v{i}_{j}" for j in range(8)))
        for i in range(n_axes)
    }
    concepts = {"n0": OkConcept("n0")}
    path_axes = {"n0": frozenset()}
    created = ["n0"]
    n = rng.randint(1, max_nodes)
    for i in range(1, n):
        name = f"n{i}"
        parent = rng.choice(created)
        used_on_path = path_axes[parent]
        free = [a for a in axes if a not in used_on_path]
        if not free:
            continue
        axis = rng.choice(free)
        sibling_values = {
            c.differentia.value
            for c in concepts.values()
            if c.genus == parent and c.differentia and c.differentia.axis == axis
        }
        values = [v for v in axes[axis].values if v not in sibling_values]
        if not values:
            continue
        concepts[name] = OkConcept(name, parent, Differentia(axis, rng.choice(values)))
        path_axes[name] = used_on_path | {axis}
        created.append(name)
    if attributes:
        for name, concept in concepts.items():
            if rng.random() < 0.3:
                attr = AttributeDef(f"attr_{name}", ValueType("number"))
                concepts[name] = replace(concept, attributes=(attr,))
    return OkOntology(name="random", axes=axes, concepts=concepts)


# ---------------------------------------------------------------------------
# the per-token front end


@dataclass(frozen=True)
class AnnotatedToken:
    surface: str
    lemma: str
    pos: POS
    doc_id: str
    offset: int


def annotate_per_token(document: Document, lexicon: Lexicon) -> list[AnnotatedToken]:
    """Tokenize a document and tag each token from the lexicon.

    Tokens absent from the lexicon default to their lowercased surface as
    lemma and to the OTHER tag.
    """
    tokens = []
    for run in _WORD_RUN.finditer(document.text):
        offset = run.start()
        for part in _split_elisions(run.group()):
            entry = lexicon.lookup(part)
            if entry is not None:
                lemma, pos = entry.lemma, entry.pos
            else:
                lemma, pos = part.lower(), POS.OTHER
            tokens.append(AnnotatedToken(part, lemma, pos, document.id, offset))
            offset += len(part)
    return tokens


@dataclass(frozen=True)
class PatternMatch:
    pattern: PatternDef
    tokens: tuple[AnnotatedToken, ...]

    @property
    def lemmas(self) -> tuple[str, ...]:
        return tuple(t.lemma for t in self.tokens)

    @property
    def head_lemma(self) -> str:
        nouns = [t for t in self.tokens if t.pos is POS.NOUN]
        return (nouns[0] if self.pattern.head_position is HeadPosition.FIRST_NOUN else nouns[-1]).lemma


def pattern_matches_per_token(tokens: Sequence[AnnotatedToken], patterns: Sequence[PatternDef]) -> list[PatternMatch]:
    """Greedy left-to-right scan of one document's tokens.

    At each position the longest matching pattern wins (ties go to pattern
    order) and its tokens are consumed, so match spans never overlap and a
    bare noun is only emitted where no longer phrase covers it.
    """
    _validate_patterns(patterns)
    matches = []
    i = 0
    n = len(tokens)
    while i < n:
        best = None
        for p in patterns:
            k = len(p.sequence)
            if i + k > n or (best is not None and k <= len(best.sequence)):
                continue
            if all(tokens[i + j].pos is p.sequence[j] for j in range(k)):
                best = p
        if best is None:
            i += 1
        else:
            span = tuple(tokens[i : i + len(best.sequence)])
            matches.append(PatternMatch(best, span))
            i += len(best.sequence)
    return matches


def extract_candidates_per_token(
    tokens: Iterable[AnnotatedToken], patterns: Sequence[PatternDef]
) -> list[TermCandidate]:
    """Extract merged term candidates from annotated tokens.

    Tokens may span several documents; matching runs per document and
    candidates with the same lemma sequence are merged with their
    occurrences summed.  The result is sorted by lemma sequence.
    """
    by_doc: dict[str, list[AnnotatedToken]] = {}
    for t in tokens:
        by_doc.setdefault(t.doc_id, []).append(t)

    merged: dict[tuple[str, ...], TermCandidate] = {}
    firsts: dict[tuple[str, ...], tuple[tuple[str, int], str]] = {}
    for doc_id in sorted(by_doc):
        for m in pattern_matches_per_token(by_doc[doc_id], patterns):
            key = m.lemmas
            occ = (doc_id, m.tokens[0].offset)
            if key not in merged:
                merged[key] = TermCandidate(key, m.pattern.id, m.head_lemma)
                firsts[key] = (occ, m.pattern.id)
            elif occ < firsts[key][0]:
                firsts[key] = (occ, m.pattern.id)
            merged[key].occurrences.append(occ)

    out = []
    for key in sorted(merged):
        cand = merged[key]
        cand.occurrences.sort()
        cand.pattern_id = firsts[key][1]
        out.append(cand)
    return out


_COPULA_SURFACES = {"est", "sont"}


def copula_relations_per_token(
    tokens: Iterable[AnnotatedToken], known_terms: Iterable[str]
) -> list[LexicalRelation]:
    """Mine hyponymy from ``TermA est/sont TermB`` sentences.

    Matching is surface-level over lemma sequences with an optional
    determiner before the second term; the longest known term wins at each
    position (a label's lemmas are its whitespace-split words, and labels
    sharing one lemma sequence resolve to the smallest) and self-loops are
    dropped.  Terms are indexed by lemma sequence once, so each position
    costs one lookup per distinct term length: O(tokens × lengths).
    """
    by_lemmas: dict[tuple[str, ...], str] = {}
    for label in known_terms:
        seq = tuple(label.split())
        if seq not in by_lemmas or label < by_lemmas[seq]:
            by_lemmas[seq] = label
    lengths = sorted({len(seq) for seq in by_lemmas}, reverse=True)
    by_doc: dict[str, list[AnnotatedToken]] = {}
    for t in tokens:
        by_doc.setdefault(t.doc_id, []).append(t)

    found = set()
    for doc_id in sorted(by_doc):
        ts = by_doc[doc_id]
        lemmas = [t.lemma for t in ts]
        n = len(ts)

        def term_at(i: int, stop: int):
            """Labels starting at ``i`` and ending at or before ``stop``,
            longest first, with their end positions."""
            for k in lengths:
                if i + k <= stop:
                    label = by_lemmas.get(tuple(lemmas[i:i + k]))
                    if label is not None:
                        yield label, i + k

        i = 0
        while i < n:
            hit = None
            # the first term must leave room for the copula after it
            for label_a, j in term_at(i, n - 1):
                if ts[j].surface.lower() not in _COPULA_SURFACES:
                    continue
                j += 1
                if j < n and ts[j].pos is POS.DET:
                    j += 1
                second = next(term_at(j, n), None)
                if second is not None:
                    hit = (label_a, *second)
                    break
            if hit is None:
                i += 1
            else:
                source, target, end = hit
                if source != target:
                    found.add((source, target))
                i = end
    return [
        LexicalRelation(RelationKind.HYPONYMY, s, t, Evidence.COPULA_PATTERN)
        for s, t in sorted(found)
    ]


_POS_CODE = {
    POS.NOUN: "N",
    POS.ADJ: "A",
    POS.PREP: "P",
    POS.DET: "D",
    POS.VERB: "V",
    POS.OTHER: "O",
}


def regex_match_count(tokens: list[AnnotatedToken], patterns: list[PatternDef]) -> int:
    """Count pattern matches with a regex over a POS-code string.

    Longest-match-wins falls out of ordering the alternation by length;
    ``re.finditer`` supplies the non-overlapping left-to-right scan.
    """
    code = "".join(_POS_CODE[t.pos] for t in tokens)
    alternation = "|".join(
        "".join(_POS_CODE[p] for p in pattern.sequence)
        for pattern in sorted(patterns, key=lambda p: -len(p.sequence))
    )
    return sum(1 for _ in re.finditer(alternation, code))


def copula_oracle(docs: list[DocTokens], known_terms: list[str]) -> set[tuple[str, str]]:
    """(source, target) pairs of ``TermA est/sont [DET] TermB`` sentences,
    by trying every known term at every position: O(tokens × terms)."""
    term_seqs = sorted(
        {label: tuple(label.split()) for label in known_terms}.items(),
        key=lambda kv: (-len(kv[1]), kv[0]),
    )

    def term_at(lemmas: tuple[str, ...], i: int) -> tuple[str, int] | None:
        for label, seq in term_seqs:
            k = len(seq)
            if i + k <= len(lemmas) and all(lemmas[i + j] == seq[j] for j in range(k)):
                return label, i + k
        return None

    found = set()
    for doc in docs:
        lemmas = doc.lemmas
        i = 0
        while i < len(lemmas):
            hit = None
            for label_a, seq_a in term_seqs:
                k = len(seq_a)
                if i + k >= len(lemmas) or not all(lemmas[i + j] == seq_a[j] for j in range(k)):
                    continue
                j = i + k
                if not doc.copula[j]:
                    continue
                j += 1
                if j < len(lemmas) and doc.tags[j] == TAG_CODES[POS.DET]:
                    j += 1
                second = term_at(lemmas, j)
                if second is not None:
                    hit = (label_a, second[0], second[1])
                    break
            if hit is None:
                i += 1
            else:
                source, target, end = hit
                if source != target:
                    found.add((source, target))
                i = end
    return found


def align_oracle(
    term: str, ontology: OkOntology, stopwords: frozenset[str], head: str | None = None
) -> AlignmentResult:
    """Resolve ``term`` by comparing its content bag with every concept's,
    rebuilt on each call."""
    declared = {concept_id(t): c for t, c in ontology.denotation.items()}
    target = declared.get(concept_id(term))
    if target is not None and target in ontology.concepts:
        return AlignmentResult(term, AlignKind.DECLARED, target)
    bag = normalize_label(term, stopwords)
    if not bag:
        return AlignmentResult(term, AlignKind.UNMATCHED)
    if head is None:
        head = next(iter(bag))
    else:
        head = unicodedata.normalize("NFC", head).lower()
    bags = {name: normalize_label(name, stopwords) for name in ontology.concepts}
    exact = [name for name, cbag in bags.items() if cbag == bag]
    if len(exact) == 1:
        return AlignmentResult(term, AlignKind.EXACT, exact[0])
    sub = sorted(
        name
        for name, cbag in bags.items()
        if cbag != bag and all(cbag[t] >= n for t, n in bag.items()) and cbag[head] > 0
    )
    if not sub:
        return AlignmentResult(term, AlignKind.UNMATCHED)
    if len(sub) == 1:
        return AlignmentResult(term, AlignKind.ELLIPSIS, sub[0])
    chain = sorted(sub, key=ontology.depth)
    if all(subsumes(ontology, chain[i], chain[i + 1]) for i in range(len(chain) - 1)):
        return AlignmentResult(term, AlignKind.ELLIPSIS, chain[-1])
    return AlignmentResult(term, AlignKind.AMBIGUOUS, candidates=tuple(sub))


def recursive_cycle_oracle(edges: set[tuple[str, str]]) -> list[str] | None:
    """One cycle of a directed edge set by recursive depth-first search in
    sorted order; the first node is repeated at the end."""
    adjacency: dict[str, list[str]] = {}
    for source, target in sorted(edges):
        adjacency.setdefault(source, []).append(target)
    color: dict[str, int] = {}
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = 1
        path.append(node)
        for nxt in adjacency.get(node, ()):
            if color.get(nxt, 0) == 1:
                return path[path.index(nxt):] + [nxt]
            if color.get(nxt, 0) == 0:
                found = visit(nxt)
                if found:
                    return found
        path.pop()
        color[node] = 2
        return None

    for start in sorted(adjacency):
        if color.get(start, 0) == 0:
            found = visit(start)
            if found:
                return found
    return None


def random_copula_case(rng: random.Random) -> tuple[list[DocTokens], list[str]]:
    """Token streams dense in copula sentences over a tiny vocabulary, so
    that terms overlap, prefix one another, end documents and hold the
    copula's lemma, with labels that share a lemma sequence (extra spaces,
    the empty label)."""
    words = ["a", "b", "c", "d", "être"]  # «être» is the copulas' lemma
    labels = set()
    for _ in range(rng.randint(0, 8)):
        label = " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
        labels.add(label)
        if rng.random() < 0.2:
            labels.add(label.replace(" ", "  ", 1) + rng.choice(("", " ")))
    if rng.random() < 0.1:
        labels.add(rng.choice(("", " ")))
    verbs = [("est", "être"), ("Est", "être"), ("sont", "être"), ("SONT", "être"), ("été", "être")]
    determiners = [("un", "un"), ("les", "le"), ("b", "b")]  # «b» is also a term word
    docs = []
    for doc in range(rng.randint(1, 3)):
        stream: list[tuple[str, str, POS]] = []
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if roll < 0.3 and labels:
                stream.extend((w, w, POS.NOUN) for w in rng.choice(sorted(labels)).split())
            elif roll < 0.45:
                word = rng.choice(words)
                stream.append((word, word, POS.NOUN))
            elif roll < 0.75:
                stream.append((*rng.choice(verbs), POS.VERB))
            elif roll < 0.9:
                stream.append((*rng.choice(determiners), POS.DET))
            else:
                stream.append(("de", "de", POS.PREP))
        docs.append(DocTokens(
            f"doc{doc}",
            tuple(lemma for _, lemma, _ in stream),
            "".join(TAG_CODES[pos] for _, _, pos in stream),
            array("I", range(len(stream))),
            bytes(surface.lower() in COPULA_SURFACES for surface, _, _ in stream),
        ))
    return docs, sorted(sorted(labels), key=lambda _: rng.random())  # not set order: hash-seeded


#: (surface, lemma, POS) of the random front-end lexicon: accented words,
#: elided forms listed with and without their apostrophe, the copulas, a
#: hyphenated compound and an upper-case entry.
FRONT_END_LEXICON = (
    ("relais", "relais", POS.NOUN), ("tension", "tension", POS.NOUN),
    ("seuil", "seuil", POS.NOUN), ("état", "état", POS.NOUN), ("Kaplan", "kaplan", POS.NOUN),
    ("tout-ou-rien", "tout-ou-rien", POS.ADJ), ("électrique", "électrique", POS.ADJ),
    ("rapides", "rapide", POS.ADJ), ("de", "de", POS.PREP), ("à", "à", POS.PREP),
    ("d", "de", POS.PREP), ("le", "le", POS.DET), ("la", "le", POS.DET), ("l", "le", POS.DET),
    ("un", "un", POS.DET), ("qu'", "que", POS.OTHER), ("est", "être", POS.VERB),
    ("sont", "être", POS.VERB), ("coupe", "couper", POS.VERB),
)

_FRONT_END_WORDS = (
    [s for s, _, _ in FRONT_END_LEXICON if not s.endswith("'")]
    + ["RELAIS", "Tension", "ÉTAT", "Est", "SONT", "est-ce", "aujourd'hui", "ß", "İle",
       "xyzzy", "bobine", "42", "3-4"]  # unknown words and digits
)
_ELIDED = ("l'", "d'", "qu'", "L’", "d’", "jusqu'", "c’", "QU'")
_SEPARATORS = (" ", " ", " ", ", ", ". ", "\n", "  ", " (", ") ", "_", " ' ", " - ", "; ")


def random_document(rng: random.Random, doc_id: str, n_words: int) -> Document:
    """French-like text of ``n_words`` words or copula sentences over
    ``FRONT_END_LEXICON`` and unknown words, with elisions (both apostrophes, stacked, at a word's
    end), hyphens, mixed case, NFD accents and punctuation."""
    nouns = [s for s, _, pos in FRONT_END_LEXICON if pos is POS.NOUN]
    words = []
    for _ in range(n_words):
        if rng.random() < 0.15:  # a copula sentence
            words.append(" ".join((
                rng.choice(nouns), rng.choice(("est", "sont", "EST", "Sont")),
                rng.choice(("", "un ", "la ", "l'")) + rng.choice(nouns),
            )))
            words.append(rng.choice(_SEPARATORS))
            continue
        word = rng.choice(_FRONT_END_WORDS)
        if rng.random() < 0.2:
            word = "".join(rng.choice(_ELIDED) for _ in range(rng.choice((1, 1, 2)))) + word
        elif rng.random() < 0.05:
            word += rng.choice(("'", "’", "-"))
        if rng.random() < 0.1:
            word = word.upper() if rng.random() < 0.5 else word.capitalize()
        words.append(word)
        words.append(rng.choice(_SEPARATORS))
    text = "".join(words)
    if rng.random() < 0.2:
        text = unicodedata.normalize("NFD", text)
    return Document(doc_id, text)


def random_front_end_case(
    rng: random.Random,
) -> tuple[list[Document], Lexicon, list[PatternDef]]:
    """Up to five documents with distinct ids in random order, some empty
    or one word long, the lexicon (sometimes with NFD or upper-case surfaces) and a random pattern
    set: repeated lengths, equal sequences and ``head=last``."""
    docs = [
        random_document(rng, f"d{i}", rng.choice((0, 1, rng.randint(1, 12))))
        for i in rng.sample(range(12), rng.randint(1, 5))
    ]
    entries = []
    for surface, lemma, pos in FRONT_END_LEXICON:
        if rng.random() < 0.1:
            surface = unicodedata.normalize("NFD", surface.upper())
        entries.append(LexiconEntry(surface, lemma, pos))
    tags = [POS.NOUN, POS.NOUN, POS.ADJ, POS.PREP, POS.DET, POS.VERB, POS.OTHER]
    patterns = []
    for i in range(rng.randint(1, 5)):
        sequence = [rng.choice(tags) for _ in range(rng.randint(0, 3))]
        sequence.insert(rng.randint(0, len(sequence)), POS.NOUN)
        if patterns and rng.random() < 0.15:
            sequence = list(rng.choice(patterns).sequence)
        head = rng.choice((HeadPosition.FIRST_NOUN, HeadPosition.LAST_NOUN))
        patterns.append(PatternDef(f"p{i}", tuple(sequence), head))
    return docs, Lexicon(entries), patterns


def random_align_case(
    rng: random.Random,
) -> tuple[OkOntology, frozenset[str], list[tuple[str, str | None]]]:
    """A ``random_ok_tree`` relabelled with short multi-word labels, a few
    declared terms and a stopword set, plus (term, explicit head or None)
    queries: labels of the tree, their sub-bags, reordered and stopword-laden
    variants and unknown words."""
    tree = random_ok_tree(rng, max_nodes=40)
    words = ["relais", "seuil", "tension", "courant", "tout", "rien", "de", "à"]
    stopwords = frozenset(rng.sample(["de", "à", "la", "tout"], rng.randint(0, 3)))
    rename = {"n0": "relais"}
    for name, concept in tree.concepts.items():
        if concept.genus is None:
            continue
        base = rename[concept.genus]
        for _ in range(10):
            label = base + " " + " ".join(rng.choice(words) for _ in range(rng.randint(1, 2)))
            if rng.random() < 0.2:
                label = " ".join(rng.sample(label.split(), len(label.split())))
            if label not in rename.values():
                break
        else:
            label = f"{base} {name}"
        rename[name] = label
    concepts = {}
    for name, concept in tree.concepts.items():
        genus = rename[concept.genus] if concept.genus is not None else None
        concepts[rename[name]] = OkConcept(rename[name], genus, concept.differentia)
    labels = list(concepts)
    denotation = {}
    for _ in range(rng.randint(0, 3)):
        term = " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
        denotation[term.upper() if rng.random() < 0.3 else term] = (
            rng.choice(labels) if rng.random() < 0.8 else "ghost"
        )
    ontology = OkOntology("random", tree.axes, concepts, denotation=denotation)
    queries: list[tuple[str, str | None]] = []
    for _ in range(12):
        kind = rng.random()
        if kind < 0.3:
            term = rng.choice(labels)
        elif kind < 0.6:
            tokens = rng.choice(labels).split()
            term = " ".join(rng.sample(tokens, rng.randint(1, len(tokens))))
        elif kind < 0.7 and ontology.denotation:
            term = rng.choice(list(ontology.denotation)).lower()
        else:
            term = " ".join(rng.choice(words + ["bobine"]) for _ in range(rng.randint(1, 3)))
        head = rng.choice(words + ["bobine"]) if rng.random() < 0.2 else None
        queries.append((term, head))
    return ontology, stopwords, queries


def scan_children(ontology: OkOntology, name: str | None) -> list[str]:
    """Direct children by a scan of every concept."""
    return [c.name for c in ontology.concepts.values() if c.genus == name]


def scan_closure(ontology: OkOntology, name: str) -> set[str]:
    """Down-closure with one ``scan_children`` per visited node."""
    if name not in ontology.concepts:
        raise UnknownConceptError(f"unknown concept: {name!r}")
    seen = {name}
    queue = [name]
    while queue:
        for child in scan_children(ontology, queue.pop()):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


class OkVariant(NamedTuple):
    """A ``random_ok_variant`` case: the edited concepts mapping, the shapes
    ``genus_defects`` finds in it ("cycle", "unknown genus"), and the
    ontology built from it, or None when some shape is found."""

    concepts: dict[str, OkConcept]
    broken: set[str]
    ontology: OkOntology | None


def random_ok_variant(rng: random.Random, max_nodes: int = 40) -> OkVariant:
    """A ``random_ok_tree`` (with attributes half the time) put through a
    few random edits that break rules: a concept moved under a random genus
    (genus cycles when it lands below itself, self-loops included), an
    unknown genus, an extra root, a reused axis, a sibling's genus and
    differentia taken over, a shadowed or twice declared attribute, a
    dropped differentia.  Roughly one case in five stays unedited.

    ``OkOntology`` refuses to build a variant with a cycle or an unknown
    genus; for those this asserts that building one raises ``ValueError``
    naming the sorted unknown genera, or else the cycle the recursive oracle
    finds over the (concept, genus) edges."""
    ontology = random_ok_tree(rng, max_nodes=max_nodes, n_axes=4, attributes=rng.random() < 0.5)
    concepts = dict(ontology.concepts)
    names = list(concepts)
    pool = ["p", "q", "r"]
    for _ in range(rng.choice((0, 1, 2, 3, 5))):
        name = rng.choice(names)
        c = concepts[name]
        roll = rng.random()
        if roll < 0.2:
            edited = OkConcept(name, rng.choice(names), c.differentia, c.attributes)
        elif roll < 0.3:
            edited = OkConcept(name, "ghost", c.differentia, c.attributes)
        elif roll < 0.4:
            edited = OkConcept(name, None, c.differentia, c.attributes)
        elif roll < 0.5:
            axis = rng.choice(sorted(ontology.axes))
            value = rng.choice(ontology.axes[axis].values)
            edited = OkConcept(name, c.genus, Differentia(axis, value), c.attributes)
        elif roll < 0.6:
            sibling = concepts[rng.choice(names)]
            edited = OkConcept(name, sibling.genus, sibling.differentia, c.attributes)
        elif roll < 0.9:
            attrs = tuple(AttributeDef(rng.choice(pool), ValueType("number"))
                          for _ in range(rng.randint(1, 2)))
            edited = OkConcept(name, c.genus, c.differentia, c.attributes + attrs)
        else:
            edited = OkConcept(name, c.genus, None, c.attributes)
        concepts[name] = edited
    broken = {
        "cycle" if v.message.startswith("genus cycle") else "unknown genus"
        for v in genus_defects(concepts)
    }
    if not broken:
        return OkVariant(concepts, broken, replace(ontology, concepts=concepts))
    unknown = sorted({c.genus for c in concepts.values()} - concepts.keys() - {None})
    if unknown:
        expected = f"genus names no concept: {unknown}"
    else:
        edges = {(name, c.genus) for name, c in concepts.items() if c.genus is not None}
        expected = "genus cycle: " + " -> ".join(recursive_cycle_oracle(edges))
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        replace(ontology, concepts=concepts)
    return OkVariant(concepts, broken, None)


def genus_defects(concepts: Mapping[str, OkConcept]) -> list[Violation]:
    """Unknown genera and genus cycles of a concepts mapping, by walking
    each concept's genus chain: what ``OkOntology`` refuses to build."""
    violations: list[Violation] = []
    for name, concept in concepts.items():
        if concept.genus is not None and concept.genus not in concepts:
            violations.append(Violation("R1", f"{name!r} has unknown genus {concept.genus!r}"))
    state: dict[str, int] = {}
    for start in concepts:
        if state.get(start, 0):
            continue
        path = []
        node = start
        while node is not None and node in concepts:
            mark = state.get(node, 0)
            if mark == 1:
                cycle = path[path.index(node):] + [node]
                violations.append(Violation("R1", "genus cycle: " + " -> ".join(cycle)))
                break
            if mark == 2:
                break
            state[node] = 1
            path.append(node)
            node = concepts[node].genus
        for visited in path:
            state[visited] = 2
    return violations


def check_consistency_oracle(ontology: OkOntology) -> list[Violation]:
    """Rules R1–R7 with R4 and R5 walking every concept's genus chain."""
    violations: list[Violation] = []

    roots = [name for name, concept in ontology.concepts.items() if concept.genus is None]
    if len(roots) == 0:
        violations.append(Violation("R1", "no root concept"))
    elif len(roots) > 1:
        violations.append(Violation("R1", "multiple roots: " + ", ".join(sorted(roots))))
    violations.extend(genus_defects(ontology.concepts))

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

    by_parent: dict[str, list[OkConcept]] = {}
    for concept in ontology.concepts.values():
        if concept.genus is not None and concept.differentia is not None:
            by_parent.setdefault(concept.genus, []).append(concept)
    for parent in sorted(by_parent):
        seen: dict[Differentia, str] = {}
        for concept in by_parent[parent]:
            prior = seen.get(concept.differentia)
            if prior is not None:
                violations.append(
                    Violation(
                        "R3",
                        f"siblings {prior!r} and {concept.name!r} under {parent!r} "
                        f"share {concept.differentia}",
                    )
                )
            else:
                seen[concept.differentia] = concept.name

    for name in ontology.concepts:
        axes_on_path: dict[str, list[str]] = {}
        for node in [name] + ontology.genus_chain(name):
            d = ontology.concepts[node].differentia
            if d is not None:
                axes_on_path.setdefault(d.axis, []).append(node)
        for axis, users in sorted(axes_on_path.items()):
            if len(users) > 1 and users[0] == name:
                violations.append(
                    Violation(
                        "R4",
                        f"axis {axis!r} used more than once on the path to {name!r} "
                        f"({', '.join(sorted(users))})",
                    )
                )

    for name, concept in ontology.concepts.items():
        own = [a.name for a in concept.attributes]
        for attr_name in own:
            if own.count(attr_name) > 1:
                violations.append(
                    Violation("R5", f"attribute {attr_name!r} declared twice on {name!r}")
                )
        for ancestor in ontology.genus_chain(name):
            inherited = {a.name for a in ontology.concepts[ancestor].attributes}
            for attr_name in own:
                if attr_name in inherited:
                    violations.append(
                        Violation(
                            "R5",
                            f"attribute {attr_name!r} on {name!r} shadows the one on {ancestor!r}",
                        )
                    )

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


def compare_structures_oracle(
    taxonomy: Taxonomy, ontology: OkOntology, alignments: dict[str, AlignmentResult]
) -> DiscrepancyReport:
    """The structure diff with one scan of the taxonomy's edges per concept."""
    entries = []
    for cid in sorted(taxonomy.concepts):
        concept = taxonomy.concepts[cid]
        parent_ids = sorted(parent for child, parent in taxonomy.subsumption if child == cid)
        if not parent_ids:
            continue
        own = alignments.get(concept.label)
        if own is None or own.concept is None:
            entries.append(DiscrepancyEntry(concept.label, None, (), Verdict.UNALIGNED))
            continue
        chain = tuple(ontology.genus_chain(own.concept))
        best: tuple[Verdict, str | None] = (Verdict.UNALIGNED, None)
        for pid in parent_ids:
            parent_label = taxonomy.concepts[pid].label
            parent_alignment = alignments.get(parent_label)
            if parent_alignment is None or parent_alignment.concept is None:
                verdict = Verdict.UNALIGNED
            elif chain and parent_alignment.concept == chain[0]:
                verdict = Verdict.AGREE
            elif parent_alignment.concept in chain[1:]:
                verdict = Verdict.PARENT_ELIDED
            else:
                verdict = Verdict.CONFLICT
            if _VERDICT_PRIORITY[verdict] < _VERDICT_PRIORITY[best[0]] or best[1] is None:
                best = (verdict, parent_label)
        entries.append(DiscrepancyEntry(concept.label, best[1], chain, best[0]))
    return DiscrepancyReport(entries)


def structure_closure_oracle(structure: Taxonomy | OkOntology, concept: str) -> set[str]:
    """Down-closure by fixpoint over the structure's raw edges."""
    if isinstance(structure, Taxonomy):
        return closure_oracle(structure.subsumption, set(structure.concepts), concept)
    edges = {(c.name, c.genus) for c in structure.concepts.values() if c.genus is not None}
    return closure_oracle(edges, set(structure.concepts), concept)


def recall_oracle(
    pairs_a: set[tuple[str, str]],
    structure_a: Taxonomy | OkOntology,
    pairs_b: set[tuple[str, str]],
    structure_b: Taxonomy | OkOntology,
    label: str,
) -> RecallComparison:
    """``compare_recall`` by scanning every (document, concept) annotation,
    once for the result and once per result document for its explanation."""
    resolved = []
    for structure in (structure_a, structure_b):
        concept = resolve_label(structure, label)
        if concept is None:
            raise UnresolvableLabelError(
                f"label {label!r} is not resolvable in the {structure_name(structure)} structure"
            )
        resolved.append(concept)
    closure_a = structure_closure_oracle(structure_a, resolved[0])
    closure_b = structure_closure_oracle(structure_b, resolved[1])
    docs_a = {doc for doc, concept in pairs_a if concept in closure_a}
    docs_b = {doc for doc, concept in pairs_b if concept in closure_b}
    explanations = {
        doc: {
            "a": tuple(sorted(c for d, c in pairs_a if d == doc and c in closure_a)),
            "b": tuple(sorted(c for d, c in pairs_b if d == doc and c in closure_b)),
        }
        for doc in sorted(docs_a | docs_b)
    }
    return RecallComparison(
        concept_label=label,
        concept_a=resolved[0],
        concept_b=resolved[1],
        docs_a=tuple(sorted(docs_a)),
        docs_b=tuple(sorted(docs_b)),
        only_a=tuple(sorted(docs_a - docs_b)),
        only_b=tuple(sorted(docs_b - docs_a)),
        symmetric_difference=tuple(sorted(docs_a ^ docs_b)),
        explanations=explanations,
    )
