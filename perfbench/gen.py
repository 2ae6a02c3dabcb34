"""Seeded input generator for the ontoterm benchmark.

Everything here is a pure function of a ``random.Random`` and explicit
sizes: two generations with one seed write byte-identical files.  The
generator also returns the ground truth it planted (copula pairs, term to
concept maps, tree edges) so the benchmark can check the program's outputs
without trusting them.

Vocabulary is made of pseudo-words, so every word's tag comes from the
generated lexicon.  The expert tree is built like ``random_ok_tree`` in the
test helpers (a fresh axis per path, distinct values among same-axis
siblings) but breadth first with a bounded fan-out, so its shape, and with
it the cost of every closure, varies little from seed to seed.  A concept's
label is its genus label plus ``<prep> <own word>``; the corpus refers to
deep concepts by shortcuts that drop the middle of the label («h de q» for
«h à p de q»), which is the ellipsis the alignment resolves.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ontoterm.projection import Concept as TaxonomyConcept
from ontoterm.projection import Taxonomy, taxonomy_to_json
from ontoterm.retrieval import DocAnnotation, DocIndex, index_to_json_obj

#: Function words dropped when comparing labels, written as the stopword file.
STOPWORDS = ("de", "du", "des", "d", "à", "au", "aux", "la", "le", "les", "l", "un", "une")
PREPS = ("de", "à")
PATTERNS = (
    "n: NOUN\n"
    "n_adj: NOUN ADJ\n"
    "n_prep_n: NOUN PREP NOUN\n"
    "n_prep_n_prep_n: NOUN PREP NOUN PREP NOUN head=first\n"
)
_FUNCTION_WORDS = (
    ("le", "le", "DET"), ("la", "le", "DET"), ("les", "le", "DET"),
    ("un", "un", "DET"), ("une", "un", "DET"),
    ("de", "de", "PREP"), ("à", "à", "PREP"),
    ("est", "être", "VERB"), ("sont", "être", "VERB"),
)
_SYLLABLES = [c + v for c in "bcdfglmnprstvz" for v in "aeiou"]


def pseudo_words(rng: random.Random, n: int, syllables: int, taken: set[str]) -> list[str]:
    """``n`` distinct lowercase pseudo-words not in ``taken`` (which grows)."""
    out = []
    while len(out) < n:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def content_bag(label: str) -> tuple[str, ...]:
    """Sorted content tokens of a generated label (labels hold no apostrophes)."""
    return tuple(sorted(t for t in label.split() if t not in STOPWORDS))


# ---------------------------------------------------------------------------
# expert tree


@dataclass(frozen=True)
class TreeConcept:
    label: str
    parent: int | None
    depth: int
    word: str
    axis: str | None = None
    value: str | None = None


@dataclass
class Tree:
    concepts: list[TreeConcept]
    n_axes: int
    n_values: int
    declared: dict[str, int] = field(default_factory=dict)  # term label -> concept index

    @property
    def root(self) -> TreeConcept:
        return self.concepts[0]

    def edges(self) -> set[tuple[str, str]]:
        """Raw (child label, parent label) pairs."""
        return {
            (c.label, self.concepts[c.parent].label)
            for c in self.concepts
            if c.parent is not None
        }

    def dsl(self) -> str:
        lines = ['ontology "bench"', ""]
        for i in range(self.n_axes):
            values = ", ".join(f"v{i}_{j}" for j in range(self.n_values))
            lines.append(f"axis a{i} values {values}")
        lines.append("")
        for c in self.concepts:
            if c.parent is None:
                lines.append(f"concept {c.label} root")
            else:
                genus = self.concepts[c.parent].label
                lines.append(f"concept {c.label} genus {genus} diff {c.axis}={c.value}")
        for term, index in sorted(self.declared.items()):
            lines.append(f'term "{term}" denotes {self.concepts[index].label}')
        return "\n".join(lines) + "\n"


def build_tree(
    rng: random.Random,
    n_concepts: int,
    words: list[str],
    fanout: tuple[int, int] = (3, 7),
    n_axes: int = 8,
    n_values: int = 8,
) -> Tree:
    """Breadth-first tree of ``n_concepts`` concepts, each child on an axis
    not used on its path and a value unused by its same-axis siblings."""
    concepts = [TreeConcept(words[0], None, 0, words[0])]
    path_axes = [frozenset()]
    queue = [0]
    head = 0
    while len(concepts) < n_concepts and head < len(queue):
        parent_index = queue[head]
        head += 1
        parent = concepts[parent_index]
        free = [f"a{i}" for i in range(n_axes) if f"a{i}" not in path_axes[parent_index]]
        used: dict[str, set[str]] = {}
        for _ in range(rng.randint(*fanout)):
            if len(concepts) >= n_concepts or not free:
                break
            axis = rng.choice(free)
            values = [v for v in (f"v{axis[1:]}_{j}" for j in range(n_values))
                      if v not in used.setdefault(axis, set())]
            if not values:
                continue
            value = rng.choice(values)
            used[axis].add(value)
            word = words[len(concepts)]
            label = f"{parent.label} {rng.choice(PREPS)} {word}"
            concepts.append(TreeConcept(label, parent_index, parent.depth + 1, word, axis, value))
            path_axes.append(path_axes[parent_index] | {axis})
            queue.append(len(concepts) - 1)
    if len(concepts) < n_concepts:
        raise ValueError(f"tree shape admits only {len(concepts)} concepts")
    return Tree(concepts, n_axes, n_values)


def tree_terms(tree: Tree, rng: random.Random, mentioned: list[int]) -> list[str]:
    """Corpus terms that name the ``mentioned`` concepts, every one at most
    five tokens (the longest default pattern): full labels down to depth 2,
    «h p q» shortcuts for deeper concepts, and «h p p' p q» shortcuts
    keeping the genus word from depth 3."""
    root = tree.root.word
    terms = [root]
    for c in (tree.concepts[i] for i in mentioned):
        if c.depth <= 2:
            terms.append(c.label)
        if c.depth >= 2:
            terms.append(f"{root} {rng.choice(PREPS)} {c.word}")
        if c.depth >= 3:
            genus_word = tree.concepts[c.parent].word
            terms.append(f"{root} {rng.choice(PREPS)} {genus_word} {rng.choice(PREPS)} {c.word}")
    return list(dict.fromkeys(terms))


@dataclass(frozen=True)
class Resolution:
    """Expected alignment of one term, decided by brute force over bags."""

    kind: str  # "EXACT" | "DECLARED" | "ELLIPSIS"
    concept: str


def expected_resolutions(tree: Tree, terms: list[str]) -> dict[str, Resolution]:
    """Terms whose alignment the documented rules pin down uniquely.

    DECLARED for declared denotations; EXACT when exactly one concept has
    the term's content bag; ELLIPSIS when no concept has it and exactly one
    concept's bag strictly contains it together with the head.  Ambiguous
    and unmatched terms are left out.
    """
    bags = [(c.label, content_bag(c.label)) for c in tree.concepts]
    out = {}
    for term in terms:
        if term in tree.declared:
            out[term] = Resolution("DECLARED", tree.concepts[tree.declared[term]].label)
            continue
        bag = content_bag(term)
        head = term.split()[0]
        exact = [label for label, cbag in bags if cbag == bag]
        if len(exact) == 1:
            out[term] = Resolution("EXACT", exact[0])
            continue
        if exact:
            continue
        sub = [label for label, cbag in bags if head in cbag and _strict_sub_bag(bag, cbag)]
        if len(sub) == 1:
            out[term] = Resolution("ELLIPSIS", sub[0])
    return out


def _strict_sub_bag(small: tuple[str, ...], big: tuple[str, ...]) -> bool:
    rest = list(big)
    for token in small:
        if token not in rest:
            return False
        rest.remove(token)
    return bool(rest)


# ---------------------------------------------------------------------------
# pipeline inputs


@dataclass
class PipelineTruth:
    """What the generator planted in a pipeline workload."""

    tree: Tree
    terms: list[str]  # every planted term label
    copula_pairs: list[tuple[str, str]]
    resolutions: dict[str, Resolution]
    edit_batch: list[tuple[str, str]]  # relations validated by the edit
    decisions: str
    sizes: dict[str, int]


@dataclass(frozen=True)
class PipelineSizes:
    docs: int
    tokens: int  # target corpus size; the corpus stops at the first sentence past it
    concepts: int
    other_heads: int  # head nouns outside the ontology, each with a family of terms
    copula_share: float  # share of eligible (term, broader term) pairs planted as copulas
    declared: int
    mentioned: int | None = None  # concepts the corpus names; None names all
    edit_batch: int = 8
    fanout: tuple[int, int] = (3, 7)


def generate_pipeline(rng: random.Random, sizes: PipelineSizes, out: Path) -> PipelineTruth:
    """Write lexicon, patterns, corpus, DSL, decisions, stopwords and a
    ``pipeline.toml`` under ``out``; return the planted truth."""
    taken = {w for w, _, _ in _FUNCTION_WORDS} | set(STOPWORDS)
    nouns = pseudo_words(rng, sizes.concepts + sizes.declared + sizes.other_heads * 4, 3, taken)
    adjectives = pseudo_words(rng, 40, 3, taken)
    verbs = pseudo_words(rng, 30, 2, taken)
    others = [w + "x" for w in pseudo_words(rng, 200, 2, taken)]

    tree = build_tree(rng, sizes.concepts, nouns[: sizes.concepts], sizes.fanout)
    root = tree.root.word
    syn_words = nouns[sizes.concepts : sizes.concepts + sizes.declared]
    for word in syn_words:
        tree.declared[f"{root} de {word}"] = rng.randrange(1, len(tree.concepts))
    mentioned = list(range(len(tree.concepts)))
    if sizes.mentioned is not None:
        mentioned = sorted(rng.sample(mentioned, sizes.mentioned))
    terms = tree_terms(tree, rng, mentioned) + sorted(tree.declared)

    # broader-term pairs: each concept term points at its genus's term
    concept_term = {c.label: c.label for c in tree.concepts if c.depth <= 2}
    broader: list[tuple[str, str]] = []
    for c in (tree.concepts[i] for i in mentioned):
        if c.depth >= 2:
            short = f"{root} {PREPS[0]} {c.word}"
            if short not in terms:
                short = f"{root} {PREPS[1]} {c.word}"
            genus_term = concept_term.get(tree.concepts[c.parent].label, root)
            if genus_term not in terms:
                genus_term = root
            broader.append((short, genus_term))
    for term, index in tree.declared.items():
        broader.append((term, root))

    # outside-the-ontology families: «x», «x adj», «x p y», «x p y p z»
    base = sizes.concepts + sizes.declared
    for k in range(sizes.other_heads):
        x, y, z, w = nouns[base + 4 * k : base + 4 * k + 4]
        family = [
            f"{x} {rng.choice(adjectives)}",
            f"{x} {rng.choice(PREPS)} {y}",
            f"{x} {rng.choice(PREPS)} {z}",
            f"{x} {rng.choice(PREPS)} {y} {rng.choice(PREPS)} {w}",
        ]
        terms.append(x)
        terms.extend(t for t in family if t not in terms)
        broader.extend((t, x) for t in family)
    terms = list(dict.fromkeys(terms))

    n_copula = max(2 * sizes.edit_batch, round(len(broader) * sizes.copula_share))
    copula_pairs = sorted(rng.sample(broader, min(n_copula, len(broader))))
    resolutions = expected_resolutions(tree, terms)

    # decisions: every term that names a concept, plus half the copula pairs;
    # the edit later validates pairs from the other half
    shuffled = list(copula_pairs)
    rng.shuffle(shuffled)
    half = len(shuffled) // 2
    validated_pairs = sorted(shuffled[:half])
    edit_batch = sorted(shuffled[half : half + sizes.edit_batch])
    lines = ["# generated expert decisions"]
    lines += [f'validate term "{t}"' for t in sorted(resolutions)]
    lines += [f'validate relation hyponymy "{a}" "{b}"' for a, b in validated_pairs]
    decisions = "\n".join(lines) + "\n"

    docs, n_tokens = _corpus(rng, sizes, terms, copula_pairs, verbs, others)

    out.mkdir(parents=True, exist_ok=True)
    corpus_dir = out / "corpus"
    corpus_dir.mkdir(exist_ok=True)
    for i, text in enumerate(docs):
        (corpus_dir / f"doc{i:05d}.txt").write_text(text, encoding="utf-8")
    lexicon = ["# generated lexicon"]
    lexicon += [f"{s}\t{l}\t{p}" for s, l, p in _FUNCTION_WORDS]
    lexicon += [f"{w}\t{w}\tNOUN" for w in nouns]
    lexicon += [f"{w}\t{w}\tADJ" for w in adjectives]
    lexicon += [f"{w}\t{w}\tVERB" for w in verbs]
    (out / "lexicon.tsv").write_text("\n".join(lexicon) + "\n", encoding="utf-8")
    (out / "patterns.txt").write_text(PATTERNS, encoding="utf-8")
    (out / "bench.dsl").write_text(tree.dsl(), encoding="utf-8")
    (out / "decisions.txt").write_text(decisions, encoding="utf-8")
    (out / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
    (out / "pipeline.toml").write_text(
        'corpus = "corpus"\nlexicon = "lexicon.tsv"\npatterns = "patterns.txt"\n'
        'dsl = "bench.dsl"\ndecisions = "decisions.txt"\nstopwords = "stopwords.txt"\n'
        'output = "out"\nexport_format = "owl"\n',
        encoding="utf-8",
    )
    return PipelineTruth(
        tree=tree,
        terms=terms,
        copula_pairs=copula_pairs,
        resolutions=resolutions,
        edit_batch=edit_batch,
        decisions=decisions,
        sizes={
            "docs": len(docs),
            "tokens": n_tokens,
            "planted_terms": len(terms),
            "concepts": len(tree.concepts),
            "copula_pairs": len(copula_pairs),
        },
    )


def _corpus(rng, sizes, terms, copula_pairs, verbs, others) -> tuple[list[str], int]:
    """Documents of three sentence kinds, each opening with a determiner so
    no term pattern runs across a sentence boundary:

    - mention: ``Le <t1> <verb> le <t2>.``
    - copula:  ``Un <a> est un <b>.``
    - filler:  ``Le <t> <verb> <other> <other> <other>.``
    """
    sentences = [(f"Un {a} est un {b}.", 3 + len(a.split()) + len(b.split()))
                 for a, b in copula_pairs]
    order = list(terms)
    rng.shuffle(order)
    for i in range(0, len(order), 2):
        t1, t2 = order[i], order[(i + 1) % len(order)]
        sentences.append((f"Le {t1} {rng.choice(verbs)} le {t2}.", 3 + len(t1.split()) + len(t2.split())))
    n_tokens = sum(n for _, n in sentences)
    while n_tokens < sizes.tokens:
        t = rng.choice(terms)
        if rng.random() < 0.5:
            text = f"Le {t} {rng.choice(verbs)} {' '.join(rng.choice(others) for _ in range(3))}."
            n = 5 + len(t.split())
        else:
            t2 = rng.choice(terms)
            text = f"Le {t} {rng.choice(verbs)} le {t2}."
            n = 3 + len(t.split()) + len(t2.split())
        sentences.append((text, n))
        n_tokens += n
    rng.shuffle(sentences)
    docs: list[list[str]] = [[] for _ in range(sizes.docs)]
    for i, (text, _) in enumerate(sentences):
        docs[i % sizes.docs].append(text)
    return [" ".join(doc) + "\n" for doc in docs if doc], n_tokens


# ---------------------------------------------------------------------------
# query-side artifacts


@dataclass
class QueryTruth:
    tree: Tree
    taxonomy_edges: set[tuple[str, str]]  # raw (child id, parent id)
    taxonomy_concepts: list[str]
    annotations_ok: list[tuple[str, str]]  # raw (doc, concept)
    annotations_projected: list[tuple[str, str]]
    recall_labels: dict[str, str]  # label -> expected ok concept


@dataclass(frozen=True)
class QuerySizes:
    concepts: int
    docs: int
    annotations_per_doc: int
    taxonomy_share: float = 0.6  # share of ok labels the projected taxonomy keeps
    cross_edge_share: float = 0.1  # extra DAG parents in the taxonomy
    recall_min_depth: int = 3  # recall labels come from this depth down
    fanout: tuple[int, int] = (3, 7)


def generate_query(rng: random.Random, sizes: QuerySizes, out: Path) -> QueryTruth:
    """Write the artifacts ``ontoterm query``/``compare-recall`` read: a DSL,
    a projected taxonomy over a subset of its labels and a two-sided doc
    index, with no corpus and no mining behind them."""
    taken = {w for w, _, _ in _FUNCTION_WORDS} | set(STOPWORDS)
    tree = build_tree(rng, sizes.concepts, pseudo_words(rng, sizes.concepts, 3, taken), sizes.fanout)
    labels = [c.label for c in tree.concepts]

    kept = [0] + [i for i in range(1, len(labels)) if rng.random() < sizes.taxonomy_share]
    kept_set = set(kept)
    by_depth: dict[int, list[int]] = {}
    edges = set()
    for i in kept:
        c = tree.concepts[i]
        ancestor = c.parent
        while ancestor is not None and ancestor not in kept_set:
            ancestor = tree.concepts[ancestor].parent
        if ancestor is not None:
            edges.add((labels[i], labels[ancestor]))
            if rng.random() < sizes.cross_edge_share:
                shallower = [j for d in range(c.depth) for j in by_depth.get(d, ())]
                edges.add((labels[i], labels[rng.choice(shallower)]))
        by_depth.setdefault(c.depth, []).append(i)
    taxonomy = Taxonomy(
        {labels[i]: TaxonomyConcept(labels[i], labels[i], (labels[i],)) for i in kept}, edges
    )

    doc_ids = [f"d{i:05d}" for i in range(sizes.docs)]
    ann_ok = set()
    for doc in doc_ids[: len(doc_ids) * 19 // 20]:  # the rest stay unannotated
        for i in rng.sample(range(len(labels)), sizes.annotations_per_doc):
            ann_ok.add((doc, labels[i]))
    ann_projected = {(doc, concept) for doc, concept in ann_ok if concept in taxonomy.concepts}

    def side(pairs):
        covered = {doc for doc, _ in pairs}
        unannotated = tuple(d for d in doc_ids if d not in covered)
        return index_to_json_obj(DocIndex({DocAnnotation(d, c) for d, c in pairs}, unannotated))

    resolutions = expected_resolutions(tree, labels)
    recall_labels = {
        labels[i]: resolutions[labels[i]].concept
        for i in kept
        if tree.concepts[i].depth >= sizes.recall_min_depth
        and resolutions.get(labels[i], Resolution("", "")).kind == "EXACT"
    }

    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.dsl").write_text(tree.dsl(), encoding="utf-8")
    (out / "taxonomy.json").write_text(taxonomy_to_json(taxonomy), encoding="utf-8")
    payload = {"projected": side(ann_projected), "ok": side(ann_ok)}
    (out / "doc_index.json").write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
    return QueryTruth(
        tree=tree,
        taxonomy_edges=edges,
        taxonomy_concepts=sorted(taxonomy.concepts),
        annotations_ok=sorted(ann_ok),
        annotations_projected=sorted(ann_projected),
        recall_labels=recall_labels,
    )
