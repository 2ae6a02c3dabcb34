"""End-to-end pipeline: extract → net → validate → project → ok-check →
align → index → export, with hash-based stage caching.

Every stage writes exactly one JSON (or OWL/KIF) artifact under the output
directory, plus a manifest recording input fingerprints and cache hits.
Artifacts are byte-deterministic: two runs on unchanged inputs produce
identical files, and a rerun skips every stage whose inputs kept their
hashes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .align import (
    alignment_artifact,
    compare_structures,
    load_stopwords,
    ontology_alignments,
    taxonomy_alignments,
)
from .corpus import (
    annotate,
    candidates_from_json,
    candidates_to_json,
    extract_candidates,
    load_corpus,
    load_lexicon,
    load_patterns,
)
from .errors import ConfigError, InconsistentOntologyError
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

STAGES = ("extract", "net", "validate", "project", "ok-check", "align", "index", "export")

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
    return parse_config(path.read_text(encoding="utf-8"), path.parent)


# ---------------------------------------------------------------------------
# artifact rendering (pure text producers, shared by pipeline and CLI)


def render_extract(config: PipelineConfig) -> str:
    corpus = load_corpus(config.corpus)
    lexicon = load_lexicon(config.lexicon)
    patterns = load_patterns(config.patterns)
    tokens = [t for doc in corpus for t in annotate(doc, lexicon)]
    return candidates_to_json(extract_candidates(tokens, patterns))


def load_synonym_declarations(path: str | Path) -> list[tuple[str, str]]:
    """Synonym declarations: two quoted labels per line."""
    pairs = []
    pattern = re.compile(r'^"([^"]+)"\s+"([^"]+)"$')
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = pattern.match(line)
        if not m:
            raise ConfigError(f"{path}: line {lineno}: expected '\"label a\" \"label b\"'")
        pairs.append((m.group(1), m.group(2)))
    return pairs


def render_net(config: PipelineConfig, candidates_json: str) -> str:
    candidates = candidates_from_json(candidates_json)
    corpus = load_corpus(config.corpus)
    lexicon = load_lexicon(config.lexicon)
    tokens = [t for doc in corpus for t in annotate(doc, lexicon)]
    relations = same_head_hyponyms(candidates)
    relations += copula_relations(tokens, [c.label for c in candidates])
    synonyms = load_synonym_declarations(config.synonyms) if config.synonyms else ()
    net = build_network(terms_from_candidates(candidates), relations, synonyms)
    return lexnet_to_json(net)


def render_validate(config: PipelineConfig, lexnet_json: str) -> str:
    net = lexnet_from_json(lexnet_json)
    return lexnet_to_json(apply_validation(net, load_decisions(config.decisions)))


def render_project(validated_json: str) -> str:
    return taxonomy_to_json(project(lexnet_from_json(validated_json)))


def render_ok_check(config: PipelineConfig) -> str:
    ontology = load_dsl(config.dsl)
    violations = check_consistency(ontology)
    payload = {
        "ontology": ontology.name,
        "consistent": not violations,
        "violations": [{"rule": v.rule, "message": v.message} for v in violations],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def render_align(config: PipelineConfig, taxonomy_json: str) -> str:
    taxonomy = taxonomy_from_json(taxonomy_json)
    ontology = load_dsl(config.dsl)
    stopwords = load_stopwords(config.stopwords)
    terms = sorted({t for c in taxonomy.concepts.values() for t in c.denoting_terms})
    alignments = ontology_alignments(terms, ontology, stopwords)
    report = compare_structures(taxonomy, ontology, alignments)
    return alignment_artifact(alignments, report)


def render_index(config: PipelineConfig, candidates_json: str, taxonomy_json: str) -> str:
    corpus = load_corpus(config.corpus)
    candidates = candidates_from_json(candidates_json)
    taxonomy = taxonomy_from_json(taxonomy_json)
    ontology = load_dsl(config.dsl)
    stopwords = load_stopwords(config.stopwords)
    labels = [c.label for c in candidates]
    projected = index_corpus(corpus, candidates, taxonomy, taxonomy_alignments(taxonomy))
    ok_index = index_corpus(
        corpus, candidates, ontology, ontology_alignments(labels, ontology, stopwords)
    )
    payload = {"projected": index_to_json_obj(projected), "ok": index_to_json_obj(ok_index)}
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def render_export(config: PipelineConfig) -> str:
    ontology = load_dsl(config.dsl)
    if config.export_format == "kif":
        return to_kif(ontology)
    return to_owl(ontology, config.iri)


# ---------------------------------------------------------------------------
# orchestration


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_path(path: Path) -> str:
    if path.is_dir():
        parts = []
        for child in sorted(path.rglob("*")):
            if child.is_file():
                parts.append(f"{child.relative_to(path)}:{_hash_bytes(child.read_bytes())}")
        return _hash_bytes("\n".join(parts).encode())
    if path.is_file():
        return _hash_bytes(path.read_bytes())
    return "missing"


def _artifact_name(stage: str, config: PipelineConfig) -> str:
    return {
        "extract": "candidates.json",
        "net": "lexnet.json",
        "validate": "lexnet_validated.json",
        "project": "taxonomy.json",
        "ok-check": "ok_report.json",
        "align": "alignment.json",
        "index": "doc_index.json",
        "export": f"ontology.{config.export_format}",
    }[stage]


def _stage_inputs(stage: str, config: PipelineConfig, out: Path) -> tuple[list[Path], list[str]]:
    """(files whose content feeds the stage, extra scalar inputs)."""
    synonyms = [config.synonyms] if config.synonyms else []
    files = {
        "extract": [config.corpus, config.lexicon, config.patterns],
        "net": [out / "candidates.json", config.corpus, config.lexicon, *synonyms],
        "validate": [out / "lexnet.json", config.decisions],
        "project": [out / "lexnet_validated.json"],
        "ok-check": [config.dsl],
        "align": [config.dsl, out / "taxonomy.json", config.stopwords],
        "index": [out / "candidates.json", out / "taxonomy.json", config.dsl,
                  config.stopwords, config.corpus],
        "export": [config.dsl],
    }[stage]
    scalars = [__version__]
    if stage == "export":
        scalars += [config.export_format, config.iri]
    return files, scalars


def _fingerprint(stage: str, config: PipelineConfig, out: Path) -> str:
    files, scalars = _stage_inputs(stage, config, out)
    parts = [f"{p.name}:{_hash_path(p)}" for p in files] + scalars
    return _hash_bytes("\n".join(parts).encode())


@dataclass
class StageOutcome:
    artifact: str
    fingerprint: str
    cache_hit: bool


@dataclass
class PipelineResult:
    output_dir: Path
    stages: dict[str, StageOutcome] = field(default_factory=dict)
    consistency_violations: int = 0

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

    Stops after ok-check when the expert ontology is inconsistent (the
    downstream stages require consistency); the report artifact is still
    written and the raised error carries the violations.
    """
    out = config.output
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    previous = _previous_stages(manifest_path)

    result = PipelineResult(out)

    def write_manifest() -> None:
        payload = {
            "tool": "ontoterm",
            "version": __version__,
            "stages": {
                stage: {
                    "artifact": outcome.artifact,
                    "fingerprint": outcome.fingerprint,
                    "cache_hit": outcome.cache_hit,
                }
                for stage, outcome in result.stages.items()
            },
        }
        manifest_path.write_text(
            json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def run_stage(stage: str, render) -> str:
        artifact = _artifact_name(stage, config)
        path = out / artifact
        fingerprint = _fingerprint(stage, config, out)
        cached = previous.get(stage, {})
        hit = (
            not force
            and path.exists()
            and cached.get("fingerprint") == fingerprint
            and cached.get("artifact") == artifact
        )
        if not hit:
            path.write_text(render(), encoding="utf-8")
        result.stages[stage] = StageOutcome(artifact, fingerprint, hit)
        write_manifest()
        return path.read_text(encoding="utf-8")

    candidates_json = run_stage("extract", lambda: render_extract(config))
    lexnet_json = run_stage("net", lambda: render_net(config, candidates_json))
    validated_json = run_stage("validate", lambda: render_validate(config, lexnet_json))
    taxonomy_json = run_stage("project", lambda: render_project(validated_json))
    ok_report = run_stage("ok-check", lambda: render_ok_check(config))

    report = json.loads(ok_report)
    if not report["consistent"]:
        result.consistency_violations = len(report["violations"])
        raise InconsistentOntologyError(
            f"expert ontology has {result.consistency_violations} consistency violations; "
            "see " + str(out / "ok_report.json"),
            report["violations"],
        )

    run_stage("align", lambda: render_align(config, taxonomy_json))
    run_stage("index", lambda: render_index(config, candidates_json, taxonomy_json))
    run_stage("export", lambda: render_export(config))
    return result
