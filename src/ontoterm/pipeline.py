"""End-to-end pipeline: extract → net → validate → project → ok-check →
align → index → export, with hash-based stage caching.

Every stage writes exactly one JSON (or OWL/KIF) artifact under the output
directory, plus a manifest recording input fingerprints, artifact hashes
and cache hits.  Artifacts are byte-deterministic: two runs on unchanged
inputs produce identical files, and a rerun skips every stage whose inputs
kept their hashes and whose artifact still has the hash it was written
with.

The manifest keeps one record per input, of one shape: its hash, a
``listing`` digest of its files' names and stat data (the corpus's
documents, or the one input file) and the time the hash was taken.  A
rerun reuses that hash, without reading the input, while the listing is
unchanged and every file's ``ctime`` is older than that time by more than
``RACY_NS``; a file changed closer to its hashing than that is "racily
clean" and is read and hashed again, as in git's index.  A stage or input
record stands until a run replaces it, so a run that fails keeps the
records of the stages it did not reach.  Each artifact, and the manifest
last, is written to a temp file in the output directory and renamed over
its name, so a killed run never leaves a torn file.

A stage that hits keeps the last run's record whole.  ``run_pipeline``
names no stage: each ``Stage`` in ``GRAPH`` declares what its record
keeps (``keeps``: extract's ``doc_ids``, with the check a hit restores
them after), what part of its artifact a render may keep (``part``:
index's ``ok`` side of ``doc_index.json``) and what stops the run
(``gate``: ok-check's, on an inconsistent expert ontology).  The ids of
the documents extract annotated depend only on what its fingerprint
covers, so an index that renders after extract hit reads no document.
The ``ok`` side is rendered from the candidates, the corpus, the DSL and
the stopwords; the index record keeps their fingerprint as ``ok_inputs``,
and a render (say after a decisions edit) keeps that side, parsing no
DSL for it, while the run is not forced, ``ok_inputs`` holds, the
artifact still hashes to the record's ``sha256`` and its frame holds.

A stage that hits keeps the bytes it hashed while a later stage reads its
value, and the value is decoded from those bytes: no run reads an
artifact twice, or decodes one it did not check.  The validate stage
takes the network's artifact text the run holds (the net stage's hit's
bytes, or its render's) and has ``lexnet.rewrite_statuses`` rewrite the
statuses the decisions changed; only a text that does not line up with
the network is encoded again.

Each stage has one body, ``render_<stage>``, shared by ``run_pipeline`` and
the CLI subcommands: it reads its inputs from a ``RunValues`` and returns
the artifact text.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping

from . import __version__
from .align import (
    DEFAULT_STOPWORDS,
    alignment_artifact,
    compare_structures,
    load_stopwords,
    ontology_alignments,
    taxonomy_alignments,
)
from .corpus import (
    DEFAULT_PATTERNS,
    Lexicon,
    annotate,
    candidates_from_json,
    candidates_to_json,
    corpus_stats,
    extract_candidates,
    load_corpus,
    load_lexicon,
    load_patterns,
    read_corpus_files,
)
from .errors import (
    ArtifactError,
    ConfigError,
    InconsistentOntologyError,
    input_lines,
    json_text,
    read_text,
)
from .export import DEFAULT_IRI, check_iri, to_kif, to_owl
from .lexnet import (
    apply_validation,
    build_network,
    copula_relations,
    lexnet_from_json,
    lexnet_to_json,
    load_decisions,
    rewrite_statuses,
    same_head_hyponyms,
    terms_from_candidates,
)
from .okmodel import check_consistency, load_dsl
from .projection import project, taxonomy_from_json, taxonomy_to_json
from .retrieval import doc_index_text, index_corpus, index_to_json_obj, ok_side_text

_CONFIG_LINE = re.compile(r'^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$')
_SYNONYM_LINE = re.compile(r'^"([^"]+)"\s+"([^"]+)"$')


@dataclass(frozen=True)
class PipelineConfig:
    corpus: Path
    lexicon: Path
    patterns: Path
    dsl: Path
    decisions: Path
    stopwords: Path
    output: Path
    synonyms: Path | None = None
    export_format: str = "owl"
    iri: str = DEFAULT_IRI


_FIELDS = {f.name: f for f in fields(PipelineConfig)}
_SETTINGS = ("export_format", "iri")  # the fields that are not paths


def parse_config(text: str, base_dir: Path) -> PipelineConfig:
    """Parse a flat ``key = value`` config; relative paths resolve against
    the config file's directory.  A key that is not a ``PipelineConfig``
    field, a key given twice, a missing required key, a path that is empty
    or blank and a bad ``export_format`` or ``iri`` raise ``ConfigError``."""
    values: dict[str, str] = {}
    for lineno, raw in input_lines(text):
        m = _CONFIG_LINE.match(raw.strip())
        if not m:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = m.group(1), m.group(2).strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        if key not in _SETTINGS and not value.strip():  # "" would name the config's directory
            raise ConfigError(f"line {lineno}: empty path for key {key!r}")
        values[key] = value

    for f in _FIELDS.values():
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"missing required key {f.name!r}")
    config = PipelineConfig(**{
        key: value if key in _SETTINGS else base_dir / value for key, value in values.items()
    })
    if config.export_format not in ("owl", "kif"):
        raise ConfigError(f"export_format must be 'owl' or 'kif', got {config.export_format!r}")
    check_iri(config.iri)
    return config


def load_config(path: str | Path) -> PipelineConfig:
    """``parse_config`` of the file at ``path``; its errors name the file."""
    path = Path(path)
    try:
        return parse_config(read_text(path), path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# run values


def read_artifact(path: str | Path, decode: Callable[[str], object], data: bytes | None = None):
    """Decode the artifact at ``path``, or ``data``, bytes already read from
    it.  Content the program never writes (bad UTF-8 or JSON, JSON nested
    too deep to decode, a wrong shape or value) raises ``ArtifactError``; a
    file that cannot be read raises ``OSError``."""
    path = Path(path)
    try:
        return decode(path.read_text(encoding="utf-8") if data is None else data.decode("utf-8"))
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError, ArtifactError) as exc:
        raise ArtifactError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from None


def load_synonym_declarations(path: str | Path) -> list[tuple[str, str]]:
    """Synonym declarations: two quoted labels per line."""
    pairs = []
    for lineno, raw in input_lines(read_text(path)):
        m = _SYNONYM_LINE.match(raw.strip())
        if not m:
            raise ConfigError(f"{path}: line {lineno}: expected '\"label a\" \"label b\"'")
        pairs.append((m.group(1), m.group(2)))
    return pairs


def _optional(load, path, default):
    return load(path) if path else default


class RunValues(dict):
    """The values one run works on, each computed at most once, on first use.

    ``sources`` maps input names to paths and settings: the
    ``PipelineConfig`` fields or a subcommand's arguments, plus the paths of
    the artifacts that hold ``candidates``, ``network``, ``validated``,
    ``taxonomy`` and ``ok_report``.  A value not yet held is computed by
    its ``_LOADERS`` entry; an optional input that is not given takes its
    default.  A stage that renders stores the value it computed, so later
    stages take it from memory and an artifact is decoded only when no
    stage of the run computed its value.  ``label_alignments`` starts
    empty in each run and holds each label the align and index stages
    aligned against the expert tree, so no label is aligned twice.  A
    value a stage ``keeps`` (``doc_ids``) is stored by its render or
    restored by its hit; its loader, which only the CLI's ``index``
    reaches, reads the corpus.  A ``part``'s value (``ok_side``), when
    set, holds the text of that part of its stage's artifact.

    ``held`` maps a value to the bytes of the artifact that holds it, as
    ``run_pipeline`` hashed them at its stage's hit, or wrote them at a
    render whose value a later stage reads as text (``Stage.texts``).  A
    value is decoded from its held bytes, not read again, and the bytes
    are dropped with the value.
    """

    def __init__(self, sources: Mapping[str, object]) -> None:
        super().__init__()
        self.sources = sources
        self.held: dict[str, bytes] = {}

    def __missing__(self, name: str):
        value = self[name] = _LOADERS[name](self)
        return value

    def decoded(self, name: str, decode: Callable[[str], object]):
        """The value ``name``, decoded from its held bytes or its artifact."""
        return read_artifact(self.sources[name], decode, self.held.get(name))


# Each loader looks the layer functions up at call time, in this module.
_LOADERS: dict[str, Callable[[RunValues], object]] = {
    "corpus_files": lambda v: read_corpus_files(v.sources["corpus"]),
    "corpus": lambda v: load_corpus(v.sources["corpus"], v["corpus_files"]),
    "doc_ids": lambda v: [doc.id for doc in v["corpus"]],
    "lexicon": lambda v: _optional(load_lexicon, v.sources.get("lexicon"), Lexicon()),
    "patterns": lambda v: _optional(load_patterns, v.sources.get("patterns"), DEFAULT_PATTERNS),
    "tokens": lambda v: [annotate(doc, v["lexicon"]) for doc in v["corpus"]],
    "synonyms": lambda v: _optional(load_synonym_declarations, v.sources.get("synonyms"), ()),
    "decisions": lambda v: load_decisions(v.sources["decisions"]),
    "stopwords": lambda v: _optional(load_stopwords, v.sources.get("stopwords"), DEFAULT_STOPWORDS),
    "candidates": lambda v: v.decoded("candidates", candidates_from_json),
    "network": lambda v: v.decoded("network", lexnet_from_json),
    "validated": lambda v: v.decoded("validated", lexnet_from_json),
    "taxonomy": lambda v: v.decoded("taxonomy", taxonomy_from_json),
    "ok_report": lambda v: v.decoded("ok_report", json.loads),
    "label_alignments": lambda v: {},
}


# ---------------------------------------------------------------------------
# stages: one body each, shared by run_pipeline and the CLI
#
# The ok-check, align, index and export stages each parse the DSL when they
# render, except an index that keeps its ``ok`` side, so a decisions edit
# parses it once, in align; parsing it once per cold run waits on the
# benchmark's trace, which counts one parse per such stage.  Align and index
# parse the same file in one run, so the labels one aligns hold for the other.


def render_extract(v: RunValues) -> str:
    """Also stores the ``doc_ids`` of the documents it annotated."""
    v["doc_ids"] = [tokens.doc_id for tokens in v["tokens"]]
    v["candidates"] = extract_candidates(v["tokens"], v["patterns"])
    return candidates_to_json(v["candidates"])


def render_net(v: RunValues) -> str:
    candidates = v["candidates"]
    relations = same_head_hyponyms(candidates)
    relations += copula_relations(v["tokens"], [c.label for c in candidates])
    v["network"] = build_network(terms_from_candidates(candidates), relations, v["synonyms"])
    return lexnet_to_json(v["network"])


def render_validate(v: RunValues) -> str:
    """Rewrites the statuses in the network's artifact text when the run
    holds it, and encodes the validated network otherwise (as the CLI
    does, whose network artifact may be any JSON of its shape)."""
    network = v["network"]
    validated = v["validated"] = apply_validation(network, v["decisions"])
    held = v.held.get("network")
    text = None if held is None else rewrite_statuses(held.decode("utf-8"), network, validated)
    return lexnet_to_json(validated) if text is None else text


def render_project(v: RunValues) -> str:
    v["taxonomy"] = project(v["validated"])
    return taxonomy_to_json(v["taxonomy"])


def render_ok_check(v: RunValues) -> str:
    ontology = load_dsl(v.sources["dsl"])
    violations = check_consistency(ontology)
    v["ok_report"] = {
        "ontology": ontology.name,
        "consistent": not violations,
        "violations": [{"rule": x.rule, "message": x.message} for x in violations],
    }
    return json_text(v["ok_report"])


def _stop_if_inconsistent(v: RunValues, path: Path) -> None:
    """Ok-check's gate: the stages after it require a consistent ontology."""
    if not v["ok_report"]["consistent"]:
        violations = v["ok_report"]["violations"]
        message = f"expert ontology has {len(violations)} consistency violations; see {path}"
        raise InconsistentOntologyError(message, violations)


def render_align(v: RunValues) -> str:
    """Also stores the ``alignments`` and their ``discrepancies``."""
    taxonomy = v["taxonomy"]
    ontology = load_dsl(v.sources["dsl"])
    terms = sorted({t for c in taxonomy.concepts.values() for t in c.denoting_terms})
    alignments = v["alignments"] = ontology_alignments(terms, ontology, v["stopwords"])
    v["label_alignments"].update(alignments)
    report = v["discrepancies"] = compare_structures(taxonomy, ontology, alignments)
    return alignment_artifact(alignments, report)


def render_index(v: RunValues) -> str:
    """Renders the ``ok`` side only when ``ok_side`` does not hold its text
    yet, and stores it there; aligns only the labels that
    ``label_alignments`` does not hold yet.  In a run, ``doc_ids`` is the
    extract stage's, rendered or restored by its hit; the CLI reads it from
    the corpus."""
    candidates, taxonomy, doc_ids = v["candidates"], v["taxonomy"], v["doc_ids"]
    ok = v.get("ok_side")
    if ok is None:
        ontology = load_dsl(v.sources["dsl"])
        aligned = v["label_alignments"]
        unaligned = [c.label for c in candidates if c.label not in aligned]
        aligned.update(ontology_alignments(unaligned, ontology, v["stopwords"]))
        ok_index = index_corpus(doc_ids, candidates, ontology, aligned)
        ok = v["ok_side"] = json_text(index_to_json_obj(ok_index), 1)
    projected = index_corpus(doc_ids, candidates, taxonomy, taxonomy_alignments(taxonomy))
    return doc_index_text(ok, json_text(index_to_json_obj(projected), 1))


def render_export(v: RunValues) -> str:
    ontology = load_dsl(v.sources["dsl"])
    if v.sources["export_format"] == "kif":
        return to_kif(ontology)
    return to_owl(ontology, v.sources["iri"])


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class Part:
    """A part of a stage's artifact that a render keeps, as the run value
    ``value``, while the artifact's hash holds and so does the part's own
    fingerprint of ``files`` and ``reads``, which the record keeps as ``key``."""

    key: str
    value: str
    split: Callable[[str], str | None]  # the part's text in the artifact's; None: no frame
    files: tuple[str, ...]
    reads: tuple[str, ...]


def _usable_ids(ids: object) -> bool:
    """Whether ``ids`` is a non-empty list of strings, sorted and without
    duplicates, as ``load_corpus`` orders its documents' ids; an extract
    record whose ``doc_ids`` are not is a miss."""
    return (isinstance(ids, list) and bool(ids) and all(type(i) is str for i in ids)
            and all(a < b for a, b in zip(ids, ids[1:])))


@dataclass(frozen=True)
class Stage:
    """One node of the stage graph: what its fingerprint covers (``files``,
    ``settings`` and the artifact of each stage whose ``value`` is in
    ``reads``), which run values its render reads and leaves behind, and
    its ``keeps``, ``part`` and ``gate``, as the module docstring says."""

    name: str
    artifact: str  # file under the output directory; {format} is the export format
    files: tuple[str, ...]  # config fields whose content feeds the fingerprint
    reads: tuple[str, ...]  # run values the render reads
    value: str | None = None  # the run value the artifact holds
    settings: tuple[str, ...] = ()  # config fields fingerprinted by value
    texts: tuple[str, ...] = ()  # values in ``reads`` whose artifact bytes the render reads too
    keeps: tuple[tuple[str, Callable], ...] = ()  # (run value its record keeps, its check)
    part: Part | None = None  # the part of the artifact a render may keep
    gate: Callable[[RunValues, Path], None] | None = None  # raises to stop the run


GRAPH = (
    Stage("extract", "candidates.json", ("corpus", "lexicon", "patterns"),
          ("tokens", "patterns"), "candidates", keeps=(("doc_ids", _usable_ids),)),
    Stage("net", "lexnet.json", ("corpus", "lexicon", "synonyms"),
          ("candidates", "tokens", "synonyms"), "network"),
    Stage("validate", "lexnet_validated.json", ("decisions",), ("network", "decisions"),
          "validated", texts=("network",)),
    Stage("project", "taxonomy.json", (), ("validated",), "taxonomy"),
    Stage("ok-check", "ok_report.json", ("dsl",), (), "ok_report", gate=_stop_if_inconsistent),
    Stage("align", "alignment.json", ("dsl", "stopwords"), ("taxonomy", "stopwords")),
    Stage("index", "doc_index.json", ("corpus", "dsl", "stopwords"),
          ("doc_ids", "candidates", "taxonomy", "stopwords", "label_alignments"),
          part=Part("ok_inputs", "ok_side", ok_side_text, ("corpus", "dsl", "stopwords"),
                    ("doc_ids", "candidates", "stopwords"))),
    Stage("export", "ontology.{format}", ("dsl",), (), settings=("export_format", "iri")),
)

STAGES = tuple(stage.name for stage in GRAPH)

#: Each run value an artifact holds → the stage that writes that artifact.
_PRODUCERS = {stage.value: stage.name for stage in GRAPH if stage.value is not None}

#: The run values whose artifact bytes a render reads, kept when rendered.
_TEXTS = {name for stage in GRAPH for name in stage.texts}


#: A file whose ``ctime`` lies within this many ns before its recorded hash
#: time is rehashed: FAT's 2-s timestamp step, the coarsest a file system
#: keeps, so an edit in the same timestamp step as the hash is never missed.
RACY_NS = 2_000_000_000

#: The wall clock each recorded hash time is read from.
_now_ns = time.time_ns

_SHA256 = re.compile(r"[0-9a-f]{64}")


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_files(files: Mapping[str, bytes]) -> str:
    """The hash of a corpus, from ``read_corpus_files``'s bytes; a file name
    that is not UTF-8 enters it as the bytes it has on disk."""
    listing = "\n".join(f"{name}:{_hash_bytes(data)}" for name, data in files.items())
    return _hash_bytes(listing.encode("utf-8", "surrogateescape"))


def _hash_path(path: Path) -> tuple[str, os.stat_result | None, bytes | None]:
    """The hash of the file at ``path``, its stat data, taken from the open
    file before it is read, and the bytes hashed; ``("missing", None,
    None)`` for no file."""
    if not path.is_file():
        return "missing", None, None
    with open(path, "rb") as f:
        stat = os.fstat(f.fileno())
        data = f.read()
        return _hash_bytes(data), stat, data


def _listing(stats: Mapping[str, os.stat_result]) -> tuple[str, int]:
    """The ``listing`` of an input's files: one digest of each file's name
    and stat data, NUL-separated (no file name holds a NUL); and the newest
    ``ctime_ns`` among the files."""
    parts, newest = [], 0
    for name, st in stats.items():
        parts.append(
            f"{name}\0{st.st_size}\0{st.st_mtime_ns}\0{st.st_ctime_ns}\0{st.st_ino}\0{st.st_dev}"
        )
        newest = max(newest, st.st_ctime_ns)
    return _hash_bytes("\0".join(parts).encode("utf-8", "surrogateescape")), newest


def _current_listing(path: Path, corpus: bool) -> tuple[str, int] | None:
    """The ``_listing`` an input's record is checked against: the corpus's
    documents, or the one input file; None for an input file that cannot
    be stat'ed."""
    if corpus:
        return _listing(corpus_stats(path))
    try:
        return _listing({path.name: os.stat(path)})
    except OSError:
        return None


def _racy(ctime_ns: int, hashed_ns: int) -> bool:
    """Whether a file changed at ``ctime_ns`` may have changed again, unseen
    in its stat data, after a hash taken at ``hashed_ns``."""
    return ctime_ns >= hashed_ns - RACY_NS


def _matching(record: object, listing: str) -> dict | None:
    """``record`` rebuilt from its own fields when it is well formed and its
    listing is ``listing``; otherwise None, and the input is read and
    hashed again."""
    if not isinstance(record, dict) or record.get("listing") != listing:
        return None
    sha256, hashed_ns = record.get("sha256"), record.get("hashed_ns")
    if not (isinstance(sha256, str) and _SHA256.fullmatch(sha256) and type(hashed_ns) is int):
        return None
    return {"sha256": sha256, "listing": listing, "hashed_ns": hashed_ns}


def _kept_part(path: Path, record: Mapping, part: Part) -> str | None:
    """``part``'s text in the artifact at ``path`` when the file hashes to
    ``record``'s ``sha256`` and its frame holds; else None: render it."""
    try:
        data = path.read_bytes()
        kept = _hash_bytes(data) == record.get("sha256")
        return part.split(data.decode("utf-8")) if kept else None
    except (OSError, UnicodeDecodeError):
        return None


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``: a reader sees the old file or the new one, never part of one.
    A failed write removes its temp file."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as f:
            f.write(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@dataclass
class StageOutcome:
    artifact: str
    fingerprint: str
    cache_hit: bool
    sha256: str


@dataclass
class PipelineResult:
    output_dir: Path
    stages: dict[str, StageOutcome] = field(default_factory=dict)

    @property
    def artifacts(self) -> list[Path]:
        return [self.output_dir / outcome.artifact for outcome in self.stages.values()]


def _previous_manifest(manifest_path: Path) -> tuple[object, dict, dict]:
    """The last run's manifest, decoded, its records of the stages in
    ``STAGES`` and its input records; a missing or unreadable manifest, one
    nested too deep to decode, or one of another shape, means a cold
    cache."""
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        stages, inputs = manifest["stages"], manifest.get("inputs")
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None, {}, {}
    if not isinstance(stages, dict):
        return manifest, {}, {}
    stages = {stage: record for stage, record in stages.items()
              if stage in STAGES and isinstance(record, dict)}
    return manifest, stages, inputs if isinstance(inputs, dict) else {}


def run_pipeline(config: PipelineConfig, force: bool = False) -> PipelineResult:
    """Run all stages, reusing cached artifacts whose inputs are unchanged
    (see the module docstring).

    A stage is a cache hit when its fingerprint (its input files, the
    artifacts of the stages that produce what it reads, and its settings)
    and its artifact's sha256 match the last run's manifest, and each value
    its stage ``keeps`` passes its check.  An input is read and hashed at
    most once per run, and not at all while its record can be trusted;
    ``force`` trusts no input record and renders every stage.  Each value
    is computed at most once, and dropped once no later stage reads it.
    The manifest keeps each record of a stage, and of an input the config
    still names, that this run did not replace; a manifest whose records
    equal the last run's, as decoded, is neither encoded nor written.  A
    stage's ``gate`` runs after its artifact is written or hit and stops
    the run by raising, as ok-check's ``InconsistentOntologyError`` does.
    """
    out = config.output
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    previous_manifest, previous, previous_inputs = _previous_manifest(manifest_path)
    named = {name for s in GRAPH for name in s.files if getattr(config, name) is not None}
    previous_inputs = {} if force else {
        name: record for name, record in previous_inputs.items() if name in named
    }
    artifacts = {s.name: s.artifact.format(format=config.export_format) for s in GRAPH}
    values = RunValues({
        **vars(config), **{value: out / artifacts[stage] for value, stage in _PRODUCERS.items()},
    })
    inputs: dict[str, dict] = {}
    records: dict[str, dict] = {}  # this run's stage records
    result = PipelineResult(out)

    def input_record(name: str, path: Path) -> dict:
        """The input's record: the last run's, when it can be trusted, else
        one hashed now; the corpus is hashed from the bytes its loader
        decodes."""
        hashed_ns = _now_ns()  # before any stat, so an edit during the read is never trusted
        last = previous_inputs.get(name)
        current = None if last is None else _current_listing(path, name == "corpus")
        record = None if current is None else _matching(last, current[0])
        if record is not None and not _racy(current[1], record["hashed_ns"]):
            return record
        if name == "corpus":
            stats: dict[str, os.stat_result] = {}
            files = values["corpus_files"] = read_corpus_files(path, stats)
            sha256 = _hash_files(files)
        else:
            sha256, stat, _ = _hash_path(path)
            if stat is None:
                return {"sha256": sha256}
            stats = {path.name: stat}
        listing, ctime_ns = _listing(stats)
        # A file still racily clean now keeps the time of its last equal hash:
        # the next run rehashes it under either time, and the manifest is unchanged.
        record = _matching(last, listing)
        if record is not None and record["sha256"] == sha256 and _racy(ctime_ns, hashed_ns):
            return record
        return {"sha256": sha256, "listing": listing, "hashed_ns": hashed_ns}

    def fingerprint(files: tuple[str, ...], reads: tuple[str, ...], settings=()) -> str:
        upstream = [_PRODUCERS[name] for name in reads if name in _PRODUCERS]
        parts = [f"{artifacts[u]}:{result.stages[u].sha256}" for u in upstream]
        for name in files:
            path = getattr(config, name)
            if path is not None:
                if name not in inputs:
                    inputs[name] = input_record(name, path)
                parts.append(f"{name}:{inputs[name]['sha256']}")
        parts += [__version__] + [str(getattr(config, name)) for name in settings]
        return _hash_bytes("\n".join(parts).encode())

    def run_stage(stage: Stage) -> None:
        artifact = artifacts[stage.name]
        path = out / artifact
        key = fingerprint(stage.files, stage.reads, stage.settings)
        cached = previous.get(stage.name, {})
        hit = (
            not force
            and cached.get("artifact") == artifact
            and cached.get("fingerprint") == key
            and all(usable(cached.get(name)) for name, usable in stage.keeps)
        )
        if hit:
            sha256, _, data = _hash_path(path)
            hit = cached.get("sha256") == sha256
        if hit:
            values.update((name, cached[name]) for name, _ in stage.keeps)
            if stage.value is not None:
                values.held[stage.value] = data
            record = {**cached, "cache_hit": True}
        else:
            record = {"artifact": artifact, "fingerprint": key, "cache_hit": False}
            part = stage.part
            if part is not None:
                record[part.key] = fingerprint(part.files, part.reads)
                if not force and cached.get(part.key) == record[part.key]:
                    values[part.value] = _kept_part(path, cached, part)  # None: render it
            # looked up at call time, like every layer function the stages call
            render = globals()["render_" + stage.name.replace("-", "_")]
            data = render(values).encode("utf-8")
            _write_atomic(path, data)
            if stage.value in _TEXTS:
                values.held[stage.value] = data
            record["sha256"] = _hash_bytes(data)
            record.update((name, values[name]) for name, _ in stage.keeps)
        records[stage.name] = record
        result.stages[stage.name] = StageOutcome(artifact, key, hit, record["sha256"])
        if stage.gate is not None:
            stage.gate(values, path)

    try:
        for i, stage in enumerate(GRAPH):
            run_stage(stage)
            needed = {name for later in GRAPH[i + 1:] for name in later.reads}
            for held in (values, values.held):
                for name in held.keys() - needed:
                    del held[name]
    finally:
        manifest = {
            "tool": "ontoterm",
            "version": __version__,
            "inputs": {**previous_inputs, **inputs},
            "stages": {**previous, **records},
        }
        if manifest != previous_manifest:
            _write_atomic(manifest_path, json_text(manifest).encode("utf-8"))
    return result
