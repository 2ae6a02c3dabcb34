"""Span recording around calls into ontoterm's layers.

Spans are recorded from the benchmark's own code by wrapping, for the
duration of a traced run, the names the program looks up at call time:
``run_pipeline``'s ``render_*`` stages and the layer functions they call in
``ontoterm.pipeline``, and the functions ``retrieval.query`` and
``compare_recall`` call on the read side.  The program itself runs
unchanged and writes its real artifacts.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from ontoterm import pipeline, retrieval
from ontoterm.projection import Taxonomy

#: Stage → artifact file, as ``run_pipeline`` names them.
ARTIFACTS = {
    "extract": "candidates.json",
    "net": "lexnet.json",
    "validate": "lexnet_validated.json",
    "project": "taxonomy.json",
    "ok-check": "ok_report.json",
    "align": "alignment.json",
    "index": "doc_index.json",
    "export": "ontology.owl",
}


@dataclass
class Span:
    name: str
    run_id: str
    stage: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """In-memory span log and counts of one traced run."""

    run_id: str = ""
    stage: str = ""
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        span = Span(name, self.run_id, self.stage, self._open[-1] if self._open else None,
                    perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (one thread, so children nest inside their parent)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON line per span, parents as line numbers in the file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    with path.open("w", encoding="utf-8") as f:
        for tr in tracers:
            for span, own in zip(tr.spans, tr.self_times()):
                row = asdict(span)
                if span.parent is not None:
                    row["parent"] += offset
                f.write(json.dumps({**row, "self": own}) + "\n")
            offset += len(tr.spans)


# ---------------------------------------------------------------------------
# pipeline


def _owl_axioms(text: str) -> int:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("Ontology("))
    return len(lines) - header - 2  # minus the header and the closing line


def _alignment_counts(alignments) -> dict[str, int]:
    counts = {"align.terms": len(alignments)}
    for result in alignments.values():
        name = "align." + result.kind.value.lower()
        counts[name] = counts.get(name, 0) + 1
    return counts


def _index_counts(args, index) -> dict[str, int]:
    if isinstance(args[2], Taxonomy):
        return {"retrieval.annotations_projected": len(index.annotations)}
    return {
        "retrieval.annotations_ok": len(index.annotations),
        "retrieval.unannotated_docs": len(index.unannotated_docs),
        "retrieval.skipped_ambiguous": len(index.skipped_ambiguous),
    }


def _span_of_alignments(tr: Tracer) -> str:
    return "align.stage" if tr.stage == "align" else "align.index"


#: Name in ``ontoterm.pipeline`` → (span name, or a function of the tracer
#: giving it; the stage whose calls are counted, None for every stage;
#: counts as a function of the call's arguments and result).  The net and
#: index stages load and annotate the corpus again and four stages parse the
#: DSL; only the first stage's sizes are counted, but every call is timed.
LAYER_CALLS = {
    "load_corpus": ("corpus.load", "extract", lambda a, r: {"corpus.docs": len(r)}),
    "load_lexicon": ("corpus.load", None, None),
    "load_patterns": ("corpus.load", None, None),
    "annotate": ("corpus.annotate", "extract", lambda a, r: {"corpus.tokens": len(r)}),
    "extract_candidates": ("corpus.extract", None, lambda a, r: {"corpus.candidates": len(r)}),
    "same_head_hyponyms": ("lexnet.same_head", None, None),
    "copula_relations": ("lexnet.copula", None,
                         lambda a, r: {"lexnet.copula_relations": len(r)}),
    "terms_from_candidates": ("lexnet.build", None, None),
    "build_network": ("lexnet.build", None, lambda a, r: {"lexnet.relations": len(r.relations)}),
    "load_decisions": ("lexnet.validate", None, None),
    "apply_validation": ("lexnet.validate", None,
                         lambda a, r: {"lexnet.validated_terms": len(r.validated_terms())}),
    "project": ("projection.project", None, lambda a, r: {
        "projection.concepts": len(r.concepts), "projection.edges": len(r.subsumption)}),
    "load_dsl": ("okmodel.parse", None, lambda a, r: {"okmodel.parses": 1}),
    "check_consistency": ("okmodel.check", None, lambda a, r: {
        "okmodel.concepts": len(a[0].concepts),
        "okmodel.depth_max": max(a[0].depth(n) for n in a[0].concepts)}),
    "ontology_alignments": (_span_of_alignments, "align", lambda a, r: _alignment_counts(r)),
    "compare_structures": ("align.compare_structures", None, lambda a, r: {
        "align." + verdict.lower(): n for verdict, n in r.verdict_counts().items()}),
    "index_corpus": ("retrieval.index", None, _index_counts),
    "to_owl": ("export.owl", None, lambda a, r: {"export.axioms": _owl_axioms(r)}),
    "candidates_to_json": ("pipeline.serialize", None, None),
    "lexnet_to_json": ("pipeline.serialize", None, None),
    "taxonomy_to_json": ("pipeline.serialize", None, None),
    "alignment_artifact": ("pipeline.serialize", None, None),
    "candidates_from_json": ("pipeline.deserialize", None, None),
    "lexnet_from_json": ("pipeline.deserialize", None, None),
    "taxonomy_from_json": ("pipeline.deserialize", None, None),
}


@contextmanager
def patched(module, replacements: dict):
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@contextmanager
def traced_pipeline(tr: Tracer):
    """Trace ``run_pipeline`` while the block runs: one
    ``pipeline.render_<stage>`` span per rendered stage, and inside it one
    span per call into a layer.

    ``run_pipeline`` and the ``render_*`` functions look these names up in
    ``ontoterm.pipeline``'s globals at call time, so replacing them there
    traces the real run.  ``render_ok_check`` and ``render_index`` serialize
    with ``json.dumps``; inside a stage that counts as serialization, while
    the manifest writes outside any stage stay orchestration.
    """

    def layer(name: str, inner):
        span, counted_in, counts = LAYER_CALLS[name]

        def traced(*args, **kwargs):
            result = tr.call(span(tr) if callable(span) else span, inner, *args, **kwargs)
            if counts is not None and counted_in in (None, tr.stage):
                for key, value in counts(args, result).items():
                    tr.count(key, value)
            return result

        return traced

    def render(stage: str, inner):
        def traced(*args, **kwargs):
            tr.stage = stage
            try:
                return tr.call("pipeline.render_" + stage.replace("-", "_"), inner,
                               *args, **kwargs)
            finally:
                tr.stage = ""

        return traced

    def dumps(*args, **kwargs):
        if tr.stage:
            return tr.call("pipeline.serialize", json.dumps, *args, **kwargs)
        return json.dumps(*args, **kwargs)

    replacements = {name: layer(name, getattr(pipeline, name)) for name in LAYER_CALLS}
    for stage in ARTIFACTS:
        name = "render_" + stage.replace("-", "_")
        replacements[name] = render(stage, getattr(pipeline, name))
    replacements["json"] = SimpleNamespace(dumps=dumps, loads=json.loads)
    with patched(pipeline, replacements):
        yield


# ---------------------------------------------------------------------------
# read side


@contextmanager
def traced_retrieval(tr: Tracer, structures):
    """Time the calls ``retrieval.query`` and ``compare_recall`` make into
    the structures and into ``resolve_label``, as nested spans.

    ``compare_recall`` looks ``query`` and ``resolve_label`` up in its module
    at call time and calls ``subsumed_closure`` on the structure objects, so
    wrapping those three names nests their spans inside the caller's.
    """
    saved_query, saved_resolve = retrieval.query, retrieval.resolve_label

    def query(*args, **kwargs):
        docs = tr.call("retrieval.query", saved_query, *args, **kwargs)
        tr.count("retrieval.result_docs", len(docs))
        return docs

    def wrap_closure(structure, prefix):
        inner = structure.subsumed_closure

        def closure(cid):
            members = tr.call(prefix + ".closure", inner, cid)
            tr.count(prefix + ".closure_size", len(members))
            return members

        structure.subsumed_closure = closure

    def resolve(*args, **kwargs):
        return tr.call("align.resolve_label", saved_resolve, *args, **kwargs)

    for structure, prefix in structures:
        wrap_closure(structure, prefix)
    try:
        with patched(retrieval, {"query": query, "resolve_label": resolve}):
            yield
    finally:
        for structure, _ in structures:
            del structure.subsumed_closure
