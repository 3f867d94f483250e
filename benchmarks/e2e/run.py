"""Entry point: ``python3 benchmarks/e2e/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (the form ``BENCHMARK.json`` names), or
``python -m benchmarks.e2e`` for every workload, untraced then traced.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it there is nothing to measure and the run exits
non-zero before printing any result.  The interpreter is restarted once
with ``PYTHONHASHSEED=0``, a fixed setting like the flush policy.
"""

from __future__ import annotations

import os
import sys


def bootstrap() -> int:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    source = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"benchmarks/e2e: no program to measure under {source}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process, and the order in which the
        # program walks a set of cells decides how often it evaluates one:
        # `compute.evaluations` of the same trace read 1327 or 1328 from
        # process to process.  A fixed salt makes every count repeat; it
        # can only be set before the interpreter starts, hence the exec.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.orig_argv[1:])
    for path in (source, root):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.main import main

    return main()


if __name__ == "__main__":
    raise SystemExit(bootstrap())
