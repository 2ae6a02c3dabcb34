"""Error types shared across the toolkit.

Every error carries a stable ``code`` so the CLI can map failures to exit
codes and callers can branch on the failure class without parsing messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


class OntoTermError(Exception):
    """Base class for all toolkit errors."""

    code = "E_ERROR"


class NoCorpusError(OntoTermError):
    code = "E_NO_CORPUS"


class EncodingError(OntoTermError):
    code = "E_ENCODING"


def read_text(path: str | Path) -> str:
    """An input file's text; bytes that are not UTF-8 raise ``EncodingError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"not valid UTF-8: {path} (byte {exc.start})") from None


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
