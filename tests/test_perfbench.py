"""The benchmark's own self-test, run against this checkout of the library,
so a library change that breaks the benchmark's use of the API fails here."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="no perfbench/ in this checkout")
def test_perfbench_selftest_passes():
    def sources():
        # the benchmark's own files; its _work/ and _out/ scratch directories are not
        return {p: p.read_bytes() for p in (ROOT / "perfbench").glob("*") if p.is_file()}

    before = sources()
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert sources() == before
