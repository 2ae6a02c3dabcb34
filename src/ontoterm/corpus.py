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

import errno
import json
import os
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
    ArtifactError,
    BadPatternError,
    ConfigError,
    EncodingError,
    NoCorpusError,
    check_strings,
    decode_text,
    fold,
    input_lines,
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


#: Each tag's value → its ``POS``; lexicon and pattern lines name a tag by
#: its value, in any case.
_TAGS = {member.value: member for member in POS}


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

    _key = staticmethod(fold)

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
    for lineno, raw in input_lines(read_text(path)):
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ConfigError(f"{path}: line {lineno}: expected 3 tab-separated columns")
        surface, lemma, pos = parts[0].strip(), parts[1].strip(), parts[2].strip()
        if not surface:
            raise ConfigError(f"{path}: line {lineno}: empty surface form")
        if not lemma:
            raise ConfigError(f"{path}: line {lineno}: empty lemma")
        tag = _TAGS.get(pos.upper())
        if tag is None:
            raise ConfigError(f"{path}: line {lineno}: unknown POS tag {pos!r}")
        entries.append(LexiconEntry(surface, lemma, tag))
    return Lexicon(entries)


def _document_entries(directory: str | Path) -> list[os.DirEntry]:
    """The top-level ``*.txt`` files of ``directory``, sorted by name: the
    one rule for which files of a corpus are documents.  A symlink counts
    as what it names; one that dangles, loops or runs through a file is
    skipped.  A directory that cannot be listed raises ``OSError``."""
    directory = Path(directory)
    if not directory.is_dir():
        raise NoCorpusError(f"not a directory: {directory}")
    entries = []
    with os.scandir(directory) as scan:
        for entry in scan:
            name = entry.name
            if not name.endswith(".txt") or len(name) == 4:  # ".txt" is a dotfile
                continue
            try:
                if not entry.is_file():  # a dangling symlink is no file
                    continue
            except OSError as exc:  # a symlink that loops or runs through a file
                if exc.errno not in (errno.ELOOP, errno.ENOTDIR):
                    raise
                continue
            entries.append(entry)
    entries.sort(key=attrgetter("name"))
    return entries


def corpus_stats(directory: str | Path) -> dict[str, os.stat_result]:
    """The stat data of each file ``read_corpus_files`` reads, by name,
    sorted, without opening any."""
    return {entry.name: entry.stat() for entry in _document_entries(directory)}


def read_corpus_files(
    directory: str | Path, stats: dict[str, os.stat_result] | None = None
) -> dict[str, bytes]:
    """The bytes of each document file of ``directory`` (see
    ``_document_entries``), by name, sorted: what the pipeline fingerprints
    a corpus by and ``load_corpus`` decodes.  When ``stats`` is given, it
    receives each file's stat data, taken from the open file before it is
    read."""
    files = {}
    for entry in _document_entries(directory):
        with open(entry.path, "rb") as f:
            if stats is not None:
                stats[entry.name] = os.fstat(f.fileno())
            files[entry.name] = f.read()
    return files


def load_corpus(directory: str | Path, files: Mapping[str, bytes] | None = None) -> list[Document]:
    """Load every ``*.txt`` file of ``directory`` as one UTF-8 document.

    Document ids are file stems, sorted lexicographically.  Files that are
    blank after trimming are skipped; if nothing remains the directory does
    not constitute a corpus (``NoCorpusError``).  A document whose bytes or
    name are not UTF-8 raises ``EncodingError`` naming it.  ``files`` is
    ``read_corpus_files(directory)`` when the caller already holds it.
    """
    directory = Path(directory)
    if files is None:
        files = read_corpus_files(directory)
    docs = []
    for name, data in files.items():
        path = os.path.join(directory, name)
        text = decode_text(data, path)
        if text.strip():
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:  # os.scandir keeps undecodable bytes as surrogates
                raise EncodingError(f"file name is not UTF-8: {os.fsencode(path)!r}") from None
            docs.append(Document(id=name[:-4], text=unicodedata.normalize("NFC", text)))
    if not docs:
        raise NoCorpusError(f"no non-empty .txt documents in {directory}")
    docs.sort(key=attrgetter("id"))
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


def extract_candidates(
    docs: Iterable[DocTokens], patterns: Sequence[PatternDef]
) -> list[TermCandidate]:
    """Extract merged term candidates from annotated documents.

    Each document is scanned left to right: at each position the longest
    matching pattern wins (ties go to pattern order) and consumes its
    tokens, so matches never overlap and a bare noun is only a candidate
    where no longer phrase covers it.  Matching runs per document (doc ids
    must be distinct) and candidates with the same lemma sequence are
    merged with their occurrences summed; each keeps the pattern and head
    of its first occurrence.  The result is sorted by lemma sequence.
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
    for lineno, raw in input_lines(read_text(path)):
        ident, sep, rest = raw.strip().partition(":")
        if not sep or not ident.strip():
            raise BadPatternError(f"{path}: line {lineno}: expected 'id: POS ...'")
        parts = rest.split()
        head = HeadPosition.FIRST_NOUN
        if parts and parts[-1].startswith("head="):
            value = parts.pop().removeprefix("head=")
            if value not in ("first", "last"):
                raise BadPatternError(f"{path}: line {lineno}: head must be 'first' or 'last'")
            head = HeadPosition(value)
        sequence = tuple(_TAGS.get(p.upper()) for p in parts)
        if None in sequence:
            raise BadPatternError(f"{path}: line {lineno}: unknown POS tag")
        patterns.append(PatternDef(ident.strip(), sequence, head))
    _validate_patterns(patterns)
    return patterns


def candidates_to_json(candidates: Sequence[TermCandidate]) -> str:
    rows = [
        {
            "lemmas": c.lemmas,
            "label": c.label,
            "pattern_id": c.pattern_id,
            "head": c.head_lemma,
            "frequency": c.frequency,
            "occurrences": c.occurrences,
        }
        for c in candidates
    ]
    return json_text(rows)


def candidates_from_json(text: str) -> list[TermCandidate]:
    """The candidates of ``candidates.json``'s text.  A row whose
    ``lemmas`` is not a list of strings, whose ``pattern_id`` or ``head``
    is not a string, or whose ``occurrences`` are not ``[doc id, offset]``
    pairs of a string and a non-negative int (not a JSON ``true`` or
    ``false``) raises ``ArtifactError`` naming the row, counted from 0.  The
    rows are built in one pass and their fields checked together at C
    speed; only a failed check looks for the row to name."""
    rows = json.loads(text)
    candidates: list[TermCandidate] = []
    strings: list = []
    pairs: list = []
    try:
        for row in rows:
            lemmas, pattern, head = row["lemmas"], row["pattern_id"], row["head"]
            if type(lemmas) is not list:
                raise TypeError("lemmas is not a list")
            occurrences = list(map(tuple, row["occurrences"]))
            strings += lemmas
            strings += pattern, head
            pairs += occurrences
            candidates.append(TermCandidate(tuple(lemmas), pattern, head, occurrences))
        _check_fields(strings, pairs)
    except (TypeError, ValueError, ArtifactError) as exc:
        # name the first built row whose fields fail, else the row being built
        for n, c in enumerate(candidates):
            try:
                _check_fields([*c.lemmas, c.pattern_id, c.head_lemma], c.occurrences)
            except ArtifactError as failed:
                raise ArtifactError(f"row {n}: {failed}") from None
        raise ArtifactError(f"row {len(candidates)}: {exc}") from None
    return candidates


def _check_fields(strings: list, pairs: list) -> None:
    """Raise ``ArtifactError`` unless each of ``strings`` is a string and
    each of ``pairs`` a pair of a string and a non-negative int, not a
    ``bool``, at C speed."""
    try:
        docs, offsets = zip(*pairs, strict=True) if pairs else ((), ())
    except ValueError:
        raise ArtifactError("an occurrence is not a [doc id, offset] pair") from None
    check_strings(strings, "a lemma, pattern_id or head")
    check_strings(docs, "an occurrence's doc id")
    try:
        array("Q", offsets)
        if bool in set(map(type, offsets)):  # the array takes a bool as an int
            raise TypeError
    except (TypeError, OverflowError):
        raise ArtifactError("an occurrence offset is not a non-negative int") from None
