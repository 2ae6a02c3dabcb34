"""ontoterm benchmark: seeded workloads driven through the library API.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload corpus-heavy --seed 1 --seconds 30 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "ontoterm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ontoterm sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
