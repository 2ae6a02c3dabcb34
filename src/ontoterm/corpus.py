"""Corpus ingestion, dictionary-driven annotation, and term-candidate extraction.

The front end of the pipeline is deliberately deterministic: part-of-speech
tags come from a user-supplied lexicon (TSV), never from a statistical
tagger, and candidate extraction is a greedy longest-match scan over
part-of-speech patterns.  Unknown words default to the OTHER tag so they
can never seed a spurious noun phrase.

Annotation stores each document's tokens as columns (``DocTokens``), with
one tag code per token in a string, so pattern matching is one compiled
regular-expression scan over that string.
"""

from __future__ import annotations

import json
import re
import unicodedata
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadPatternError,
    ConfigError,
    NoCorpusError,
    decode_text,
    json_text,
    read_text,
)


class POS(str, Enum):
    NOUN = "NOUN"
    ADJ = "ADJ"
    PREP = "PREP"
    DET = "DET"
    VERB = "VERB"
    OTHER = "OTHER"


class HeadPosition(str, Enum):
    FIRST_NOUN = "first"
    LAST_NOUN = "last"


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class LexiconEntry:
    surface: str
    lemma: str
    pos: POS


#: One-letter code per tag, as ``DocTokens.tags`` and pattern regexes hold them.
TAG_CODES = {
    POS.NOUN: "N", POS.ADJ: "A", POS.PREP: "P", POS.DET: "D", POS.VERB: "V", POS.OTHER: "O",
}

#: Surfaces (lowercased) that make a token a copula for copula mining.
COPULA_SURFACES = frozenset({"est", "sont"})


@dataclass(frozen=True, slots=True)
class DocTokens:
    """One document's tokens as columns, token ``i`` at index ``i`` of each.

    ``tags`` holds one ``TAG_CODES`` letter per token, ``offsets`` each
    token's start in the document text, and ``copula`` a 0/1 byte per token
    that is 1 where the surface is a copula (``est``/``sont``).  Lemmas are
    the lexicon's shared strings.
    """

    doc_id: str
    lemmas: tuple[str, ...]
    tags: str
    offsets: array
    copula: bytes

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class PatternDef:
    """A part-of-speech sequence to match, e.g. NOUN PREP NOUN.

    ``head_position`` selects which noun of a match becomes the head lemma;
    noun phrases in head-initial languages (the default) take the first.
    """

    id: str
    sequence: tuple[POS, ...]
    head_position: HeadPosition = HeadPosition.FIRST_NOUN


@dataclass
class TermCandidate:
    lemmas: tuple[str, ...]
    pattern_id: str
    head_lemma: str
    occurrences: list[tuple[str, int]] = field(default_factory=list)

    @property
    def frequency(self) -> int:
        return len(self.occurrences)

    @property
    def label(self) -> str:
        return " ".join(self.lemmas)


#: Patterns applied when the caller supplies none.  The length-1 noun
#: pattern is always part of the default set so that the bare heads of
#: longer phrases exist as terms of their own.
DEFAULT_PATTERNS: tuple[PatternDef, ...] = (
    PatternDef("n", (POS.NOUN,)),
    PatternDef("n_adj", (POS.NOUN, POS.ADJ)),
    PatternDef("n_prep_n", (POS.NOUN, POS.PREP, POS.NOUN)),
    PatternDef("n_prep_n_prep_n", (POS.NOUN, POS.PREP, POS.NOUN, POS.PREP, POS.NOUN)),
)


class Lexicon:
    """Case-insensitive surface → (lemma, POS) dictionary."""

    def __init__(self, entries: Iterable[LexiconEntry] = ()):
        self._entries: dict[str, LexiconEntry] = {}
        for entry in entries:
            self._entries[self._key(entry.surface)] = entry
        self._tags: dict[str, tuple[str, str, int]] = {}

    @staticmethod
    def _key(surface: str) -> str:
        return unicodedata.normalize("NFC", surface).lower()

    def lookup(self, surface: str) -> LexiconEntry | None:
        entry = self._entries.get(self._key(surface))
        if entry is None and surface.endswith(("'", "’")):
            # elided forms may be listed without their apostrophe
            entry = self._entries.get(self._key(surface[:-1]))
        return entry

    def tag(self, surface: str) -> tuple[str, str, int]:
        """(lemma, tag code, copula flag) of a token surface, memoised per
        surface.  Surfaces absent from the lexicon take their lowercased
        form as lemma and the OTHER tag."""
        tagged = self._tags.get(surface)
        if tagged is None:
            entry = self.lookup(surface)
            if entry is None:
                lemma, code = surface.lower(), TAG_CODES[POS.OTHER]
            else:
                lemma, code = entry.lemma, TAG_CODES[entry.pos]
            tagged = self._tags[surface] = (lemma, code, int(surface.lower() in COPULA_SURFACES))
        return tagged


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a TSV lexicon: ``surface<TAB>lemma<TAB>pos``, ``#`` comments allowed."""
    entries = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ConfigError(f"{path}: line {lineno}: expected 3 tab-separated columns")
        surface, lemma, pos = (p.strip() for p in parts)
        if not surface:
            raise ConfigError(f"{path}: line {lineno}: empty surface form")
        if not lemma:
            raise ConfigError(f"{path}: line {lineno}: empty lemma")
        try:
            entries.append(LexiconEntry(surface, lemma, POS(pos.upper())))
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: unknown POS tag {pos!r}") from None
    return Lexicon(entries)


def read_corpus_files(directory: str | Path) -> dict[str, bytes]:
    """The bytes of every file under ``directory``, at any depth, by path
    relative to it, in sorted path order: what the pipeline fingerprints a
    corpus by and what ``load_corpus`` decodes, so a run reads each file once."""
    directory = Path(directory)
    if not directory.is_dir():
        raise NoCorpusError(f"not a directory: {directory}")
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def load_corpus(directory: str | Path, files: Mapping[str, bytes] | None = None) -> list[Document]:
    """Load every ``*.txt`` file of ``directory`` as one UTF-8 document.

    Document ids are file stems, sorted lexicographically.  Files that are
    blank after trimming are skipped; if nothing remains the directory does
    not constitute a corpus.  ``files`` is ``read_corpus_files(directory)``
    when the caller already holds it.
    """
    directory = Path(directory)
    if files is None:
        files = read_corpus_files(directory)
    docs = []
    for name, data in files.items():
        path = directory / name
        if path.parent != directory or path.suffix != ".txt":
            continue
        text = decode_text(data, path)
        if not text.strip():
            continue
        docs.append(Document(id=path.stem, text=unicodedata.normalize("NFC", text)))
    if not docs:
        raise NoCorpusError(f"no non-empty .txt documents in {directory}")
    docs.sort(key=lambda d: d.id)
    return docs


# Maximal runs of letters/digits, allowing internal hyphens and apostrophes;
# hyphenated compounds therefore stay single tokens.
_WORD_RUN = re.compile(r"[^\W_]+(?:['’\-][^\W_]+)*", re.UNICODE)

# Elided articles and conjunctions that must be split from their host word.
_ELISION = re.compile(r"(?i)(?:qu|jusqu|lorsqu|puisqu|[ldjnmtsc])['’]")


def _split_elisions(surface: str) -> list[str]:
    parts = []
    rest = surface
    while True:
        m = _ELISION.match(rest)
        if m and m.end() < len(rest):
            parts.append(rest[: m.end()])
            rest = rest[m.end():]
        else:
            break
    parts.append(rest)
    return parts


def annotate(document: Document, lexicon: Lexicon) -> DocTokens:
    """Tokenize a document and tag each token from the lexicon (``Lexicon.tag``).

    Elided articles are split from their host word (``l'alarme`` is two
    tokens); runs without an apostrophe are looked up whole.
    """
    tag = lexicon.tag
    tagged = []
    offsets = []
    text = document.text
    elided = "'" in text or "’" in text
    for run in _WORD_RUN.finditer(text):
        surface = run.group()
        if elided and ("'" in surface or "’" in surface):
            offset = run.start()
            for part in _split_elisions(surface):
                tagged.append(tag(part))
                offsets.append(offset)
                offset += len(part)
        else:
            tagged.append(tag(surface))
            offsets.append(run.start())
    lemmas, codes, copula = zip(*tagged) if tagged else ((), (), ())
    return DocTokens(document.id, lemmas, "".join(codes), array("I", offsets), bytes(copula))


def _validate_patterns(patterns: Sequence[PatternDef]) -> None:
    if not patterns:
        raise BadPatternError("no patterns supplied")
    for p in patterns:
        if not p.sequence:
            raise BadPatternError(f"pattern {p.id!r} has an empty sequence")
        if POS.NOUN not in p.sequence:
            raise BadPatternError(f"pattern {p.id!r} contains no NOUN")


@lru_cache(maxsize=16)
def _compile(
    patterns: tuple[PatternDef, ...],
) -> tuple[re.Pattern, dict[int, tuple[PatternDef, int]]]:
    """One regex over tag codes for a pattern set, and per group number its
    pattern and the head noun's index within a match.

    Alternatives run longest first, ties in pattern order, so the first
    alternative that matches is the longest one.
    """
    _validate_patterns(patterns)
    ordered = sorted(patterns, key=lambda p: -len(p.sequence))
    regex = re.compile("|".join(
        "(" + "".join(TAG_CODES[pos] for pos in p.sequence) + ")" for p in ordered
    ))
    groups = {}
    for group, p in enumerate(ordered, 1):
        nouns = [i for i, pos in enumerate(p.sequence) if pos is POS.NOUN]
        groups[group] = (p, nouns[0] if p.head_position is HeadPosition.FIRST_NOUN else nouns[-1])
    return regex, groups


def pattern_matches(
    tokens: DocTokens, patterns: Sequence[PatternDef]
) -> list[tuple[PatternDef, int, int]]:
    """Greedy left-to-right scan of one document's tokens, as (pattern,
    start, end) token spans.

    At each position the longest matching pattern wins (ties go to pattern
    order) and its tokens are consumed, so match spans never overlap and a
    bare noun is only emitted where no longer phrase covers it.
    """
    regex, groups = _compile(tuple(patterns))
    return [(groups[m.lastindex][0], *m.span()) for m in regex.finditer(tokens.tags)]


def extract_candidates(
    docs: Iterable[DocTokens], patterns: Sequence[PatternDef]
) -> list[TermCandidate]:
    """Extract merged term candidates from annotated documents.

    Matching runs per document (doc ids must be distinct) and candidates
    with the same lemma sequence are merged with their occurrences summed;
    each keeps the pattern and head of its first occurrence.  The result is
    sorted by lemma sequence.
    """
    regex, groups = _compile(tuple(patterns))
    merged: dict[tuple[str, ...], TermCandidate] = {}
    for doc in sorted(docs, key=attrgetter("doc_id")):
        doc_id, lemmas, offsets = doc.doc_id, doc.lemmas, doc.offsets
        for m in regex.finditer(doc.tags):
            start, end = m.span()
            key = lemmas[start:end]
            cand = merged.get(key)
            if cand is None:
                pattern, head = groups[m.lastindex]
                cand = merged[key] = TermCandidate(key, pattern.id, lemmas[start + head])
            cand.occurrences.append((doc_id, offsets[start]))
    return [merged[key] for key in sorted(merged)]


def load_patterns(path: str | Path) -> list[PatternDef]:
    """Read a pattern config: ``id: POS POS ... [head=first|last]`` per line."""
    patterns = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        ident, sep, rest = line.partition(":")
        if not sep or not ident.strip():
            raise BadPatternError(f"{path}: line {lineno}: expected 'id: POS ...'")
        parts = rest.split()
        head = HeadPosition.FIRST_NOUN
        if parts and parts[-1].startswith("head="):
            value = parts.pop().removeprefix("head=")
            if value not in ("first", "last"):
                raise BadPatternError(f"{path}: line {lineno}: head must be 'first' or 'last'")
            head = HeadPosition(value)
        try:
            sequence = tuple(POS(p.upper()) for p in parts)
        except ValueError:
            raise BadPatternError(f"{path}: line {lineno}: unknown POS tag") from None
        patterns.append(PatternDef(ident.strip(), sequence, head))
    _validate_patterns(patterns)
    return patterns


def candidates_to_json(candidates: Sequence[TermCandidate]) -> str:
    rows = [
        {
            "lemmas": list(c.lemmas),
            "label": c.label,
            "pattern_id": c.pattern_id,
            "head": c.head_lemma,
            "frequency": c.frequency,
            "occurrences": [[doc, off] for doc, off in c.occurrences],
        }
        for c in candidates
    ]
    return json_text(rows)


def candidates_from_json(text: str) -> list[TermCandidate]:
    return [
        TermCandidate(
            tuple(row["lemmas"]),
            row["pattern_id"],
            row["head"],
            [(doc, off) for doc, off in row["occurrences"]],
        )
        for row in json.loads(text)
    ]
