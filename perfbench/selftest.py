"""Self-tests of the benchmark's own machinery, on tiny inputs.

    python3 perfbench/selftest.py

They check that generation is deterministic and consistent, that tracing
``run_pipeline`` records every stage and leaves the program as it found
it, and that the correctness checks are live: a corrupted expectation must
be reported as a failed operation.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run

run.import_program()

import harness  # noqa: E402
from checks import Checker, check_cold_artifacts, read_artifacts  # noqa: E402
from gen import PipelineSizes, QuerySizes, generate_pipeline, generate_query  # noqa: E402
from ontoterm.okmodel import check_consistency, load_dsl  # noqa: E402
from ontoterm.pipeline import run_pipeline  # noqa: E402
from ontoterm import pipeline  # noqa: E402
from tracing import ARTIFACTS, Tracer, traced_pipeline  # noqa: E402

PIPELINE = PipelineSizes(docs=12, tokens=600, concepts=30, other_heads=5,
                         copula_share=0.5, declared=2, edit_batch=3)
QUERY = QuerySizes(concepts=80, docs=40, annotations_per_doc=4, recall_min_depth=2)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class BenchSelfTest(unittest.TestCase):
    def setUp(self) -> None:
        (harness.BENCH / "_work").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=harness.BENCH / "_work"))

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp)

    def pipeline(self, seed: int = 7):
        truth = generate_pipeline(random.Random(seed), PIPELINE, self.tmp / "inputs")
        return harness.PipelineBench(self.tmp, truth, Checker())

    def test_generation_is_deterministic(self):
        for name, generate, sizes in (("p", generate_pipeline, PIPELINE),
                                      ("q", generate_query, QUERY)):
            generate(random.Random(3), sizes, self.tmp / f"{name}1")
            generate(random.Random(3), sizes, self.tmp / f"{name}2")
            generate(random.Random(4), sizes, self.tmp / f"{name}3")
            self.assertEqual(tree_bytes(self.tmp / f"{name}1"), tree_bytes(self.tmp / f"{name}2"))
            self.assertNotEqual(tree_bytes(self.tmp / f"{name}1"), tree_bytes(self.tmp / f"{name}3"))

    def test_generated_ontologies_are_consistent(self):
        generate_pipeline(random.Random(5), PIPELINE, self.tmp / "p")
        generate_query(random.Random(5), QUERY, self.tmp / "q")
        for dsl in (self.tmp / "p" / "bench.dsl", self.tmp / "q" / "bench.dsl"):
            self.assertEqual(check_consistency(load_dsl(dsl)), [])

    def test_pipeline_operations_pass_their_checks(self):
        bench = self.pipeline()
        samples = {"cold": [], "warm": [], "edit": []}
        bench.cycle(samples)
        self.assertEqual([len(v) for v in samples.values()], [1, harness.WARM_RERUNS, 1])
        self.assertEqual(bench.checker.attempted, 2 + harness.WARM_RERUNS)
        self.assertEqual(bench.checker.problems, [])

    def test_traced_pipeline_spans_every_stage(self):
        bench = self.pipeline()
        render_extract = pipeline.render_extract
        tracer = Tracer()
        with traced_pipeline(tracer):
            run_pipeline(bench.fresh())
        self.assertIs(pipeline.render_extract, render_extract)
        renders = [s.name for s in tracer.spans if s.parent is None]
        self.assertEqual(renders, ["pipeline.render_" + s.replace("-", "_") for s in ARTIFACTS])
        self.assertEqual(tracer.counts["okmodel.parses"], 4)
        self.assertEqual({s.stage for s in tracer.spans}, set(ARTIFACTS))
        self.assertTrue(all(own >= -1e-9 for own in tracer.self_times()))

    def test_corrupted_copula_expectation_fails(self):
        bench = self.pipeline()
        source, _ = bench.truth.copula_pairs[0]
        bench.truth.copula_pairs.append((source, "not a planted term"))
        bench.cold(bench.fresh())
        self.assertEqual(bench.checker.failed, 1)
        self.assertIn("copula", bench.checker.problems[0])

    def test_corrupted_alignment_expectation_fails(self):
        bench = self.pipeline()
        config = bench.fresh()
        run_pipeline(config)
        self.assertEqual(check_cold_artifacts(read_artifacts(config.output), bench.truth), [])
        term, want = sorted(bench.truth.resolutions.items())[0]
        bench.truth.resolutions[term] = replace(want, concept=want.concept + " x")
        self.assertEqual(len(check_cold_artifacts(read_artifacts(config.output), bench.truth)), 1)

    def test_corrupted_read_expectations_fail(self):
        truth = generate_query(random.Random(9), QUERY, self.tmp / "read")
        read_truth = harness.read_truth_from_query(truth)
        side = harness.load_read_side(self.tmp / "read", self.tmp / "read" / "bench.dsl",
                                      self.tmp / "read" / "stopwords.txt")
        ops = harness.operations(random.Random(1), read_truth)
        query = next(op for op in ops if op[:2] == ("query", "ok") and read_truth.ok.docs(op[2]))
        recall = next(op for op in ops if op[0] == "recall")
        self.assertEqual(harness.run_op(query, side, read_truth)[1], [])
        self.assertEqual(harness.run_op(recall, side, read_truth)[1], [])

        doc = sorted(read_truth.ok.docs(query[2]))[0]
        for concept in read_truth.ok.closure(query[2]):
            read_truth.ok.docs_by_concept.get(concept, set()).discard(doc)
        self.assertNotEqual(harness.run_op(query, side, read_truth)[1], [])
        wrong = ("recall", recall[1], read_truth.ok.top())
        self.assertNotEqual(harness.run_op(wrong, side, read_truth)[1], [])


if __name__ == "__main__":
    unittest.main()
