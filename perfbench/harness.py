"""The benchmark's workloads, measurement loops and traced pass.

Every workload is one process and one thread.  It generates its inputs
from the seed (``gen.py``), then repeats rounds until the run's seconds
pass:

- write side: ``run_pipeline`` into an empty output directory (cold),
  reruns on unchanged inputs (warm), and a rerun after appending a batch of
  expert ``validate relation`` decisions (edit);
- read side: load the doc index, projected taxonomy, DSL and stopwords
  (set-up), then a slice of a closed loop of one client with no think
  time, issuing a fixed-composition mix of ``retrieval.query`` (90%, both
  structures, concepts from the top of each structure down to the leaves)
  and ``retrieval.compare_recall`` by label (10%).

Every operation is checked outside the timed regions (``checks.py``).  The
traced pass (``tracing.py``) reports the per-layer metrics instead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from checks import (
    Checker,
    ClosureOracle,
    check_cache,
    check_cold_artifacts,
    check_edit,
    check_query,
    check_recall,
    manifest_hits,
    read_artifacts,
)
from gen import PipelineSizes, PipelineTruth, QuerySizes, QueryTruth, generate_pipeline, generate_query
from ontoterm import retrieval
from ontoterm.align import load_stopwords
from ontoterm.okmodel import OkOntology, load_dsl
from ontoterm.pipeline import load_config, run_pipeline
from ontoterm.projection import Taxonomy, taxonomy_from_json
from ontoterm.retrieval import DocIndex, index_from_json_obj
from tracing import ARTIFACTS, Tracer, traced_pipeline, traced_retrieval, write_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WARM_RERUNS = 5
TRACE_OPS = 300
#: How many leaf labels the read loop compares recall on (see ``ReadTruth.recall_set``).
RECALL_SET = 40

# span name -> per-layer metric (self time, seconds)
SPAN_METRICS = {
    "corpus.load": "corpus.load_s",
    "corpus.annotate": "corpus.annotate_s",
    "corpus.extract": "corpus.extract_s",
    "lexnet.copula": "lexnet.copula_s",
    "lexnet.same_head": "lexnet.same_head_s",
    "lexnet.build": "lexnet.build_s",
    "lexnet.validate": "lexnet.validate_s",
    "projection.project": "projection.project_s",
    "projection.closure": "projection.closure_s",
    "okmodel.parse": "okmodel.parse_s",
    "okmodel.check": "okmodel.check_s",
    "okmodel.closure": "okmodel.closure_s",
    "align.stage": "align.stage_s",
    "align.index": "align.index_s",
    "align.compare_structures": "align.compare_structures_s",
    "align.resolve_label": "align.resolve_label_s",
    "retrieval.index": "retrieval.index_s",
    "retrieval.query": "retrieval.query_self_s",
    "retrieval.compare_recall": "retrieval.explain_s",
    "export.owl": "export.owl_s",
    "pipeline.serialize": "pipeline.serialize_s",
    "pipeline.deserialize": "pipeline.deserialize_s",
}
COUNT_METRICS = (
    "corpus.docs", "corpus.tokens", "corpus.candidates",
    "lexnet.copula_relations", "lexnet.relations", "lexnet.validated_terms",
    "projection.concepts", "projection.edges", "projection.closure_size",
    "okmodel.parses", "okmodel.concepts", "okmodel.depth_max", "okmodel.closure_size",
    "align.terms", "align.exact", "align.declared", "align.ellipsis", "align.ambiguous",
    "align.unmatched", "align.agree", "align.parent_elided", "align.conflict", "align.unaligned",
    "retrieval.annotations_ok", "retrieval.annotations_projected", "retrieval.unannotated_docs",
    "retrieval.skipped_ambiguous", "retrieval.result_docs",
    "export.axioms",
)


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every metric ``--trace 1`` reports, in output order."""
    spec = [(m, "s") for m in SPAN_METRICS.values()]
    spec += [(f"pipeline.render_{s.replace('-', '_')}_s", "s") for s in ARTIFACTS]
    spec += [("pipeline.orchestration_s", "s"), ("pipeline.artifact_bytes", "bytes")]
    spec += [(m, "count") for m in COUNT_METRICS]
    spec += [("trace.overhead_s", "s")]
    return spec


END_TO_END = (
    ("run_cold_s", "s"), ("run_warm_s", "s"), ("run_edit_s", "s"),
    ("query_p50_ms", "ms"), ("query_p99_ms", "ms"),
    ("recall_p50_ms", "ms"), ("recall_p90_ms", "ms"),
    ("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    why: str
    pipeline: PipelineSizes
    query: QuerySizes | None  # None reads the pipeline's own artifacts
    pipeline_share: float  # share of each round spent on the write side


WORKLOADS = {
    "corpus-heavy": Workload(
        "many short documents over a small tree: copula mining, O(tokens x terms), "
        "dominates the pipeline",
        PipelineSizes(docs=300, tokens=7000, concepts=40, other_heads=40,
                      copula_share=0.5, declared=4),
        None, 0.65),
    "ontology-heavy": Workload(
        "a deep 600-concept tree over a small corpus: alignment, O(terms x concepts), "
        "dominates the pipeline",
        PipelineSizes(docs=40, tokens=2000, concepts=600, other_heads=4,
                      copula_share=0.3, declared=6, mentioned=40),
        None, 0.65),
    "query-mix": Workload(
        "read side over generated artifacts: closures and annotation scans, "
        "O(result docs x annotations) explanations",
        PipelineSizes(docs=30, tokens=1500, concepts=40, other_heads=8,
                      copula_share=0.5, declared=2),
        QuerySizes(concepts=1200, docs=800, annotations_per_doc=8),
        0.25),
}


# ---------------------------------------------------------------------------
# helpers


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed(fn, *args, **kwargs):
    """(seconds, result or the exception raised)."""
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        result = exc
    return perf_counter() - t0, result


def failure(result) -> list[str]:
    return [f"raised {type(result).__name__}: {result}"] if isinstance(result, Exception) else []


#: Run in a fresh interpreter, so nothing the program under test does to its
#: own process (trace hooks, allocation tracking, GC settings) can touch it.
#: About 0.2 s of work over some megabytes of strings, dicts and sets: long
#: enough to average over the shared machine's moment-to-moment swings, and
#: with a working set nearer the program's than a loop that stays in cache.
_GAUGE = """
import time
t0 = time.perf_counter()
words = [f"w{i % 99991}x{i % 13}" for i in range(200000)]
table = {}
for w in words:
    table[w] = table.get(w, 0) + 1
heads = {w.split("x")[0] for w in words}
ordered = sorted(table, key=table.get)
print(time.perf_counter() - t0)
"""
#: The gauge's time at the reference speed: timings are reported as if the
#: machine ran at that speed throughout (see ``run_untraced``).
GAUGE_REFERENCE_S = 0.18


def machine_gauge() -> float:
    """Seconds a fixed interpreter workload takes right now, in a child process."""
    done = subprocess.run([sys.executable, "-c", _GAUGE], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# write side


class PipelineBench:
    """The generated pipeline inputs and the cold/warm/edit operations on them."""

    def __init__(self, work: Path, truth: PipelineTruth, checker: Checker) -> None:
        self.work = work
        self.truth = truth
        self.checker = checker
        self.config = load_config(work / "inputs" / "pipeline.toml")
        self.reference: dict[str, bytes] | None = None
        self.runs = 0

    def fresh(self):
        """An empty output directory and the base decisions; returns its config."""
        self.runs += 1
        out = self.work / f"out{self.runs}"
        shutil.rmtree(out, ignore_errors=True)
        self.config.decisions.write_text(self.truth.decisions, encoding="utf-8")
        return replace(self.config, output=out)

    def cold(self, config) -> float:
        seconds, result = timed(run_pipeline, config)
        problems = failure(result)
        if not problems:
            problems = check_cache(config.output, set(ARTIFACTS))
            arts = read_artifacts(config.output)
            if self.reference is None:
                self.reference = arts
                problems += check_cold_artifacts(arts, self.truth)
            elif arts != self.reference:
                problems.append("cold artifacts differ from the first cold run")
        self.checker.record("run-cold", problems)
        return seconds

    def warm(self, config) -> float:
        seconds, result = timed(run_pipeline, config)
        problems = failure(result)
        if not problems:
            problems = check_cache(config.output, set())
            if read_artifacts(config.output) != self.reference:
                problems.append("warm rerun changed an artifact")
        self.checker.record("run-warm", problems)
        return seconds

    def edit(self, config) -> float:
        batch = "".join(f'validate relation hyponymy "{a}" "{b}"\n' for a, b in self.truth.edit_batch)
        config.decisions.write_text(self.truth.decisions + batch, encoding="utf-8")
        seconds, result = timed(run_pipeline, config)
        problems = failure(result) or check_edit(config.output, self.truth)
        self.checker.record("run-edit", problems)
        return seconds

    def cycle(self, samples: dict[str, list[float]]) -> None:
        """One cold run, its warm reruns and the edit rerun."""
        config = self.fresh()
        samples["cold"].append(self.cold(config))
        for _ in range(WARM_RERUNS):
            samples["warm"].append(self.warm(config))
        samples["edit"].append(self.edit(config))
        shutil.rmtree(config.output)

    def write_read_side(self, read_dir: Path) -> None:
        """The cold run's taxonomy and doc index become the read side."""
        read_dir.mkdir(parents=True, exist_ok=True)
        for stage in ("project", "index"):
            (read_dir / ARTIFACTS[stage]).write_bytes(self.reference[stage])


# ---------------------------------------------------------------------------
# read side


@dataclass
class ReadSide:
    taxonomy: Taxonomy
    ontology: OkOntology
    index_projected: DocIndex
    index_ok: DocIndex
    stopwords: frozenset[str]


def load_read_side(read_dir: Path, dsl: Path, stopwords: Path, tr: Tracer | None = None) -> ReadSide:
    def call(name, fn, *args):
        return fn(*args) if tr is None else tr.call(name, fn, *args)

    taxonomy = call("pipeline.deserialize", taxonomy_from_json,
                    (read_dir / "taxonomy.json").read_text(encoding="utf-8"))
    payload = call("pipeline.deserialize", json.loads,
                   (read_dir / "doc_index.json").read_text(encoding="utf-8"))
    projected = call("pipeline.deserialize", index_from_json_obj, payload["projected"])
    ok_index = call("pipeline.deserialize", index_from_json_obj, payload["ok"])
    if tr is not None:
        tr.count("okmodel.parses", 1)
    ontology = call("okmodel.parse", load_dsl, dsl)
    return ReadSide(taxonomy, ontology, projected, ok_index, load_stopwords(stopwords))


@dataclass
class ReadTruth:
    """Oracles for both structures and the labels ``compare_recall`` takes."""

    projected: ClosureOracle
    ok: ClosureOracle
    recall_labels: dict[str, str]  # label -> expected ok concept

    def annotations(self) -> int:
        return sum(len(c) for o in (self.projected, self.ok) for c in o.concepts_by_doc.values())

    def leaf_labels(self) -> list[str]:
        """The labels ``compare_recall`` may be asked about: those whose
        expert concept is a leaf."""
        return [label for label, concept in sorted(self.recall_labels.items())
                if len(self.ok.closure(concept)) == 1]

    def recall_set(self) -> list[str]:
        """The ``RECALL_SET`` leaf labels the read loop asks about, taken at
        evenly spaced ranks of their result size (the documents either
        structure returns, which the explanations scan for), so that every
        seed asks about the same spread of cheap and dear comparisons."""
        def result_docs(label: str) -> int:
            return len(self.projected.docs(label) | self.ok.docs(self.recall_labels[label]))

        labels = sorted(self.leaf_labels(), key=lambda label: (result_docs(label), label))
        if len(labels) <= RECALL_SET:
            return labels
        return [labels[(2 * i + 1) * len(labels) // (2 * RECALL_SET)] for i in range(RECALL_SET)]


def read_truth_from_pipeline(bench: PipelineBench) -> ReadTruth:
    taxonomy = json.loads(bench.reference["project"])
    index = json.loads(bench.reference["index"])
    nodes = [c["id"] for c in taxonomy["concepts"]]
    tree = bench.truth.tree
    projected = ClosureOracle(nodes, [tuple(e) for e in taxonomy["subsumption"]],
                              [(a["doc_id"], a["concept"]) for a in index["projected"]["annotations"]])
    ok = ClosureOracle([c.label for c in tree.concepts], tree.edges(),
                       [(a["doc_id"], a["concept"]) for a in index["ok"]["annotations"]])
    taxonomy_ids = set(nodes)
    labels = {t: r.concept for t, r in bench.truth.resolutions.items() if t in taxonomy_ids}
    return ReadTruth(projected, ok, labels)


def read_truth_from_query(truth: QueryTruth) -> ReadTruth:
    projected = ClosureOracle(truth.taxonomy_concepts, truth.taxonomy_edges,
                              truth.annotations_projected)
    ok = ClosureOracle([c.label for c in truth.tree.concepts], truth.tree.edges(),
                       truth.annotations_ok)
    return ReadTruth(projected, ok, dict(truth.recall_labels))


# Per 50 operations: 5 recalls, going round the recall set in passes of
# seeded order; 30 queries on the expert tree and 15 on the projected
# taxonomy, each structure getting one query on its top concept and two on
# children of the top, the rest on concepts drawn uniformly.  The fixed composition keeps
# every reported percentile inside one kind of operation from seed to seed
# (the top-concept closures above the 99th percentile) rather than on the
# boundary between two kinds, where it would jump.
BLOCK = (
    [("recall", "", "")] * 5
    + [("query", "ok", "top"), ("query", "projected", "top")]
    + [("query", "ok", "near"), ("query", "projected", "near")] * 2
    + [("query", "ok", "any")] * 27
    + [("query", "projected", "any")] * 12
)


def operations(rng: random.Random, truth: ReadTruth):
    """Endless seeded stream of ("query", structure, concept) and
    ("recall", label, expected ok concept) operations.  Recalls visit every
    label of the recall set once per pass, so each label gets about the same
    number of samples."""
    pools = {}
    for name, oracle in (("ok", truth.ok), ("projected", truth.projected)):
        top = oracle.top()
        nodes = oracle.nodes()
        pools[name] = {"top": [top], "near": oracle.children(top) or nodes, "any": nodes}
    recall_set = truth.recall_set()
    labels: list[str] = []
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind, structure, pool in block:
            if kind == "recall":
                if not labels:
                    labels = rng.sample(recall_set, len(recall_set))
                label = labels.pop()
                yield "recall", label, truth.recall_labels[label]
            else:
                yield "query", structure, rng.choice(pools[structure][pool])


def run_op(op, side: ReadSide, truth: ReadTruth, tr=None):
    """Execute one operation; returns (seconds, result, problems)."""
    kind, a, b = op
    if kind == "query":
        structure = side.ontology if a == "ok" else side.taxonomy
        index = side.index_ok if a == "ok" else side.index_projected
        seconds, result = timed(retrieval.query, index, structure, b)
        problems = failure(result) or check_query(truth.ok if a == "ok" else truth.projected,
                                                  b, result)
        return seconds, problems
    call = (retrieval.compare_recall, side.index_projected, side.taxonomy, side.index_ok,
            side.ontology, a, side.stopwords)
    if tr is not None:
        seconds, result = timed(tr.call, "retrieval.compare_recall", *call)
    else:
        seconds, result = timed(*call)
    problems = failure(result) or check_recall(truth.projected, truth.ok, a, b, result)
    return seconds, problems


def read_slice(ops, side: ReadSide, truth: ReadTruth, seconds: float, checker,
               latencies: dict) -> None:
    """Whole blocks of operations until ``seconds`` have passed.  Query
    latencies go under "query", recall latencies under ("recall", label)."""
    end = perf_counter() + seconds
    while True:
        for _ in range(len(BLOCK)):
            op = next(ops)
            elapsed, problems = run_op(op, side, truth)
            latencies.setdefault("query" if op[0] == "query" else op[:2], []).append(elapsed)
            checker.record(op[0], problems)
        if perf_counter() >= end:
            return


# ---------------------------------------------------------------------------
# runs


def generate(spec: Workload, seed: int, work: Path):
    truth = generate_pipeline(random.Random(f"{seed}:pipeline"), spec.pipeline, work / "inputs")
    query_truth = None
    if spec.query is not None:
        query_truth = generate_query(random.Random(f"{seed}:query"), spec.query, work / "read")
    return truth, query_truth


def read_side_inputs(bench: PipelineBench, query_truth: QueryTruth | None, work: Path,
                     checker: Checker):
    """(read directory, DSL path, ReadTruth), or None when there is nothing
    to read: the reference cold run failed (already recorded as a failed
    operation) or the read side has no labels to compare recall on."""
    if query_truth is None:
        if bench.reference is None:
            return None
        bench.write_read_side(work / "read")
        inputs = work / "read", bench.config.dsl, read_truth_from_pipeline(bench)
    else:
        inputs = work / "read", work / "read" / "bench.dsl", read_truth_from_query(query_truth)
    if not inputs[2].leaf_labels():
        checker.record("read-setup", ["no recall label resolves to a leaf concept"])
        return None
    return inputs


def run_untraced(spec: Workload, args, work: Path, checker, meta: dict) -> dict[str, tuple]:
    """Rounds of one pipeline cycle, one read-side set-up and a slice of the
    read loop, until ``--seconds`` pass.

    The shared machine this was built on drifts in speed by up to ±30% over
    spells of 10 to 60 seconds, so the machine gauge is read before, between
    and after the two halves of every round (a round's last reading is the
    next round's first), and each timing is scaled by the reference gauge
    time over the mean gauge time around its half: the metrics read as if
    the machine ran at the reference speed throughout.
    Raw medians go to the run's metadata.  Interleaving the rounds also
    spreads every metric's samples over the whole run.

    Samples are kept in float arrays and ``peak_rss_mb`` is read before the
    metrics are computed, so the harness's share of the peak barely grows
    with the number of operations a run completes.
    """
    truth, query_truth = generate(spec, args.seed, work)
    meta["rss_mb_after_generation"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench = PipelineBench(work, truth, checker)
    raw: dict = {k: array("d") for k in ("cold", "warm", "edit", "setup", "query")}
    scaled: dict = {k: array("d") for k in raw}
    gauges = [machine_gauge()]
    inputs = ops = None
    end = perf_counter() + args.seconds
    while perf_counter() < end:
        # gauge before the cycle, between cycle and read slice, and after it;
        # each half of the round is scaled by the mean of its two gauges
        before = gauges[-1]
        writes: dict[str, list[float]] = {"cold": [], "warm": [], "edit": []}
        started = perf_counter()
        bench.cycle(writes)
        cycle_s = perf_counter() - started
        middle = machine_gauge()
        if ops is None:
            inputs = read_side_inputs(bench, query_truth, work, checker)
            if inputs is None:
                break
            read_dir, dsl, read_truth = inputs
            ops = operations(random.Random(f"{args.seed}:ops"), read_truth)
        seconds, side = timed(load_read_side, read_dir, dsl, bench.config.stopwords)
        checker.record("setup", failure(side))
        reads: dict = {"setup": [seconds], "query": []}
        if not isinstance(side, Exception):
            read_slice(ops, side, read_truth, cycle_s * (1 - spec.pipeline_share)
                       / spec.pipeline_share, checker, reads)
        after = machine_gauge()
        gauges += [middle, after]
        for taken, gauge in ((writes, (before + middle) / 2), (reads, (middle + after) / 2)):
            scale = GAUGE_REFERENCE_S / gauge
            for key, values in taken.items():
                raw.setdefault(key, array("d")).extend(values)
                scaled.setdefault(key, array("d")).extend(v * scale for v in values)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    describe_sizes(meta, truth, bench, inputs and inputs[2])
    if len(gauges) > 1:
        meta["gauge_ms"] = {"reference": 1000 * GAUGE_REFERENCE_S,
                            "median": 1000 * statistics.median(gauges), "readings": len(gauges)}
    meta["raw"] = {name: value for name, (value, _) in timing_metrics(raw).items()}
    return {**timing_metrics(scaled), "peak_rss_mb": (peak_rss_mb, 1)}


def timing_metrics(t: dict) -> dict[str, tuple[float, int]]:
    """(value, sample count) of every timed end-to-end metric that has samples.

    The recall percentiles are taken over the labels of the recall set, of
    each label's median latency.  One comparison's latency swings with the
    shared machine's speed from moment to moment, and a percentile pooled
    over all comparisons lands on those swings as readily as on the dearer
    labels; a label's median over its many samples holds steady.
    """
    q = t["query"]
    by_label = [v for key, v in t.items() if isinstance(key, tuple) and key[0] == "recall"]
    r = [x for v in by_label for x in v]
    metrics = {}
    for name, key in (("run_cold_s", "cold"), ("run_warm_s", "warm"), ("run_edit_s", "edit"),
                      ("setup_s", "setup")):
        if t[key]:
            metrics[name] = (statistics.median(t[key]), len(t[key]))
    if q:
        metrics["query_p50_ms"] = (1000 * percentile(q, 0.50), len(q))
        metrics["query_p99_ms"] = (1000 * percentile(q, 0.99), len(q))
    if r:
        medians = [statistics.median(v) for v in by_label]
        metrics["recall_p50_ms"] = (1000 * percentile(medians, 0.50), len(r))
        metrics["recall_p90_ms"] = (1000 * percentile(medians, 0.90), len(r))
    if q and r:
        metrics["ops_per_s"] = ((len(q) + len(r)) / (sum(q) + sum(r)), len(q) + len(r))
    return metrics


def run_traced(spec: Workload, args, work: Path, checker, meta: dict) -> dict[str, tuple]:
    """A reference cold run, then cold runs untraced, traced, traced and
    untraced (the order cancels a steady drift in machine speed from
    ``trace.overhead_s``, and the reference run takes the first-call
    warm-up), then a warm and an edit rerun, one read-side set-up and
    ``TRACE_OPS`` traced operations.

    Every cold run must reproduce the reference byte for byte.  Per-layer
    times of the pipeline are the mean over the two traced runs;
    ``pipeline.orchestration_s`` is each traced run's own wall time minus its
    own render spans.
    """
    truth, query_truth = generate(spec, args.seed, work)
    bench = PipelineBench(work, truth, checker)
    config = bench.fresh()
    bench.cold(config)
    if bench.reference is None:
        describe_sizes(meta, truth, bench, None)
        return {}
    cold: dict[bool, list[float]] = {False: [], True: []}
    tracers: list[Tracer] = []
    for traced in (False, True, True, False):
        shutil.rmtree(config.output)
        config = bench.fresh()
        if traced:
            tracers.append(Tracer(run_id=f"cold{len(tracers) + 1}"))
            with traced_pipeline(tracers[-1]):
                cold[traced].append(bench.cold(config))
        else:
            cold[traced].append(bench.cold(config))

    def cache_hits() -> int | None:
        try:
            return sum(manifest_hits(config.output).values())
        except (OSError, ValueError, KeyError):  # the run failed before its manifest
            return None

    meta["cache_hits"] = {"cold": cache_hits()}
    bench.warm(config)
    meta["cache_hits"]["warm"] = cache_hits()
    bench.edit(config)
    meta["cache_hits"]["edit"] = cache_hits()

    read = Tracer(run_id="setup", stage="setup")
    inputs = read_side_inputs(bench, query_truth, work, checker)
    if inputs is not None:
        read_dir, dsl, read_truth = inputs
        side = load_read_side(read_dir, dsl, bench.config.stopwords, read)
        ops = operations(random.Random(f"{args.seed}:ops"), read_truth)
        with traced_retrieval(read, [(side.taxonomy, "projection"), (side.ontology, "okmodel")]):
            for i in range(TRACE_OPS):
                op = next(ops)
                read.run_id, read.stage = f"op{i}", op[0]
                _, problems = run_op(op, side, read_truth, read)
                checker.record(op[0], problems)

    write_spans(BENCH / "_out" / f"spans-{args.workload}-seed{args.seed}.jsonl", tracers + [read])
    describe_sizes(meta, truth, bench, inputs and inputs[2])

    metrics = {name: 0.0 for name in SPAN_METRICS.values()}
    for tr, weight in [(tr, 1 / len(tracers)) for tr in tracers] + [(read, 1.0)]:
        for span, own in zip(tr.spans, tr.self_times()):
            if span.name in SPAN_METRICS:
                metrics[SPAN_METRICS[span.name]] += weight * own
            elif span.name.startswith("pipeline.render_"):
                name = span.name + "_s"
                metrics[name] = metrics.get(name, 0.0) + weight * (span.end - span.start)
    renders = [sum(s.end - s.start for s in tr.spans if s.name.startswith("pipeline.render_"))
               for tr in tracers]
    metrics["pipeline.orchestration_s"] = statistics.mean(
        run_s - render_s for run_s, render_s in zip(cold[True], renders))
    metrics["pipeline.artifact_bytes"] = sum(len(a) for a in bench.reference.values())
    for name in COUNT_METRICS:
        metrics[name] = tracers[0].counts.get(name, 0) + read.counts.get(name, 0)
    metrics["trace.overhead_s"] = statistics.mean(cold[True]) - statistics.mean(cold[False])
    return {name: (metrics.get(name, 0.0), 1) for name, _ in per_layer_spec()}


def describe_sizes(meta: dict, truth: PipelineTruth, bench: PipelineBench,
                   read_truth: ReadTruth | None) -> None:
    meta["sizes"] = dict(truth.sizes)
    if bench.reference is not None:
        meta["sizes"]["candidates"] = len(json.loads(bench.reference["extract"]))
    if read_truth is not None:
        meta["sizes"].update({
            "read_concepts": len(read_truth.ok.nodes()),
            "read_annotations": read_truth.annotations(),
            "recall_labels": len(read_truth.recall_labels),
        })


def main(args) -> int:
    """Run ``args.workload`` and print its metrics; the last line is the JSON result."""
    t0 = perf_counter()
    spec = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        # the harness's own share of peak_rss_mb: interpreter and imports here,
        # plus the generated truth in rss_mb_after_generation
        "rss_mb_at_start": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    checker = Checker()
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        run = run_traced if args.trace else run_untraced
        values = run(spec, args, work, checker, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["wall_s"] = perf_counter() - t0

    units = dict(per_layer_spec() if args.trace else END_TO_END)
    missing = [name for name in units if name not in values]
    if missing:
        checker.record("metrics", [f"no samples for {', '.join(missing)}"])
    print(f"# workload {args.workload}: {spec.why}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, n) in values.items():
        print(f"{name:34s} {value:14.6f} {units[name]:6s} n={n}")
    rate = checker.failed / checker.attempted
    print(f"{'fail_rate':34s} {rate:14.6f} {'ratio':6s} n={checker.attempted}")
    for problem in checker.problems[:20]:
        print("# FAILED " + problem)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()},
    }
    out = BENCH / "_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"meta": meta, **result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0

