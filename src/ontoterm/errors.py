"""Error types shared across the toolkit, and the file-format helpers
every layer uses: reading an input's text and its lines, writing artifact
JSON and quoting a string literal.

Every error carries a stable ``code`` so the CLI can map failures to exit
codes and callers can branch on the failure class without parsing messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator


class OntoTermError(Exception):
    """Base class for all toolkit errors."""

    code = "E_ERROR"


class NoCorpusError(OntoTermError):
    code = "E_NO_CORPUS"


class EncodingError(OntoTermError):
    code = "E_ENCODING"


def read_text(path: str | Path) -> str:
    """An input file's text; bytes that are not UTF-8 raise ``EncodingError``."""
    return decode_text(Path(path).read_bytes(), path)


def decode_text(data: bytes, path: str | Path) -> str:
    """The text of ``data``, read from ``path``, as ``Path.read_text(encoding=
    "utf-8")`` gives it (line ends ``\\r\\n`` and ``\\r`` become ``\\n``);
    bytes that are not UTF-8 raise ``EncodingError`` naming ``path``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"not valid UTF-8: {path} (byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def input_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, line as written)`` of each line of an input file's
    text that is neither blank nor, once stripped, begins with ``#``: the
    lines every line format reads."""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def json_text(payload, depth: int = 0) -> str:
    """The artifact text of ``payload``: ``json.dumps(payload,
    ensure_ascii=False, indent=2, sort_keys=True)`` plus a newline.  At a
    ``depth`` above 0, the text of ``payload`` nested that deep in such an
    artifact, as it follows its key, with no newline after it.

    ``json.dumps`` falls back to its pure-Python encoder when indenting;
    this builds the same text as one list of chunks, with strings encoded
    in C.  Dict keys must be strings.
    """
    chunks: list[str] = []
    emit = chunks.append

    def encode(value, newline: str) -> None:
        # ``newline`` starts a line at the value's own indentation
        if isinstance(value, (list, tuple)):
            if not value:
                emit("[]")
                return
            items = enumerate(value)
            opening, closing = "[", "]"
        elif isinstance(value, dict):
            if not value:
                emit("{}")
                return
            items = sorted(value.items())
            opening, closing = "{", "}"
        else:
            emit(_json_scalar(value))
            return
        inner = newline + "  "
        sep = "," + inner
        emit(opening + inner)
        first = True
        for key, item in items:
            if first:
                first = False
            else:
                emit(sep)
            if closing == "}":
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                emit(encode_basestring(key) + ": ")
            kind = type(item)
            if kind is str:
                emit(encode_basestring(item))
            elif kind is int:
                emit(int.__repr__(item))
            else:
                encode(item, inner)
        emit(newline + closing)

    encode(payload, "\n" + "  " * depth)
    if not depth:
        emit("\n")
    return "".join(chunks)


def quoted(text: str) -> str:
    """``text`` as a double-quoted literal, ``\\`` and ``"`` escaped with a
    backslash, as OWL 2 Functional Syntax and Graphviz DOT read one."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class BadPatternError(OntoTermError):
    code = "E_BAD_PATTERN"


class UnknownTermError(OntoTermError):
    code = "E_UNKNOWN_TERM"


class UnknownRefError(OntoTermError):
    code = "E_UNKNOWN_REF"


class CycleError(OntoTermError):
    code = "E_CYCLE"


class UnknownConceptError(OntoTermError):
    code = "E_UNKNOWN_CONCEPT"


class TypeMismatchError(OntoTermError):
    code = "E_TYPE"


class UnresolvableLabelError(OntoTermError):
    code = "E_UNRESOLVABLE"


class ConfigError(OntoTermError):
    code = "E_CONFIG"


class ArtifactError(OntoTermError):
    """A stage artifact holds a value the program never writes."""

    code = "E_ARTIFACT"


@dataclass(frozen=True)
class DslIssue:
    """One problem found while parsing ontology source; ``line`` is 1-based."""

    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.code}: {self.message}"


class DslParseError(OntoTermError):
    """Aggregated parse failure; ``issues`` holds every problem found."""

    code = "E_SYNTAX"

    def __init__(self, issues: list[DslIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class InconsistentOntologyError(OntoTermError):
    """Raised when an operation requires a consistent ontology.

    ``violations`` carries the offending rule reports so callers can show
    them without re-running the checker.
    """

    code = "E_INCONSISTENT"

    def __init__(self, message: str, violations=()):
        self.violations = list(violations)
        super().__init__(message)
