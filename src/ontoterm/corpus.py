"""Corpus ingestion, dictionary-driven annotation, and term-candidate extraction.

The front end of the pipeline is deliberately deterministic: part-of-speech
tags come from a user-supplied lexicon (TSV), never from a statistical
tagger, and candidate extraction is a greedy longest-match scan over
part-of-speech patterns.  Unknown words default to the OTHER tag so they
can never seed a spurious noun phrase.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import BadPatternError, ConfigError, NoCorpusError, read_text


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


@dataclass(frozen=True)
class AnnotatedToken:
    surface: str
    lemma: str
    pos: POS
    doc_id: str
    offset: int


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

    @staticmethod
    def _key(surface: str) -> str:
        return unicodedata.normalize("NFC", surface).lower()

    def lookup(self, surface: str) -> LexiconEntry | None:
        entry = self._entries.get(self._key(surface))
        if entry is None and surface.endswith(("'", "’")):
            # elided forms may be listed without their apostrophe
            entry = self._entries.get(self._key(surface[:-1]))
        return entry

    def __contains__(self, surface: str) -> bool:
        return self.lookup(surface) is not None

    def __len__(self) -> int:
        return len(self._entries)


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a TSV lexicon: ``surface<TAB>lemma<TAB>pos``, ``#`` comments allowed."""
    entries = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConfigError(f"{path}: line {lineno}: expected 3 tab-separated columns")
        surface, lemma, pos = (p.strip() for p in parts)
        if not surface:
            raise ConfigError(f"{path}: line {lineno}: empty surface form")
        try:
            entries.append(LexiconEntry(surface, lemma, POS(pos.upper())))
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: unknown POS tag {pos!r}") from None
    return Lexicon(entries)


def load_corpus(directory: str | Path) -> list[Document]:
    """Load every ``*.txt`` file of ``directory`` as one UTF-8 document.

    Document ids are file stems, sorted lexicographically.  Files that are
    blank after trimming are skipped; if nothing remains the directory does
    not constitute a corpus.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise NoCorpusError(f"not a directory: {directory}")
    docs = []
    for path in sorted(directory.iterdir()):
        if path.suffix != ".txt" or not path.is_file():
            continue
        text = read_text(path)
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


def annotate(document: Document, lexicon: Lexicon) -> list[AnnotatedToken]:
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


def _validate_patterns(patterns: Sequence[PatternDef]) -> None:
    if not patterns:
        raise BadPatternError("no patterns supplied")
    for p in patterns:
        if not p.sequence:
            raise BadPatternError(f"pattern {p.id!r} has an empty sequence")
        if POS.NOUN not in p.sequence:
            raise BadPatternError(f"pattern {p.id!r} contains no NOUN")


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


def pattern_matches(tokens: Sequence[AnnotatedToken], patterns: Sequence[PatternDef]) -> list[PatternMatch]:
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


def extract_candidates(
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
        for m in pattern_matches(by_doc[doc_id], patterns):
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
    return json.dumps(rows, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


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
