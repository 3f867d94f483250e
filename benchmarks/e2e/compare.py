"""``python -m benchmarks.e2e.compare A B``: compare two sets of runs.

``A`` (the base) and ``B`` are directories of result files written by
``--out``, at least five per workload and trace mode, all of one seed.
For every workload and metric the medians and quartiles of both sides
are printed with the ratio ``B / A`` (base: ``A``'s median) and a verdict:

* end-to-end metrics — ``worse`` when ``B``'s median is worse than
  ``A``'s by more than the metric's bound in ``BENCHMARK.json``,
  ``unresolved`` when the distance between the quartiles of ``A`` alone
  exceeds that bound (the runs cannot resolve a change that small),
  ``better`` when it improved by more than the bound, else ``same``;
* counts (per-layer metrics in ``count`` or ``B``, and
  ``disk_bytes_per_user_byte``) cover the workload's frozen op count and
  must repeat exactly: ``equal``, ``differs`` when ``B``'s value is not
  ``A``'s (the disk ratio, which has a bound, then gets the verdict
  above), ``varies`` when one side does not even agree with itself;
* ``failed_ops_ratio`` (operations that raised ÷ operations attempted,
  from the result line of every run) is ``worse`` when ``B``'s is above
  ``A``'s at all;
* per-layer times and ratios have no bound and get no verdict.

Exit status is non-zero on any ``worse``, ``differs`` or ``varies``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

MIN_RUNS = 5
#: not a metric of BENCHMARK.json (a metric there may never be 0): derived
#: here from the ``failed`` and ``attempted`` counts of every result.
FAILED_OPS_RATIO = "failed_ops_ratio"

Key = Tuple[str, int, str]  # workload, trace, metric


def load(directory: str) -> Tuple[Dict[Key, List[float]], Dict[str, str]]:
    values: Dict[Key, List[float]] = {}
    units: Dict[str, str] = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        info = result["info"]
        for name, metric in result["metrics"].items():
            values.setdefault((info["workload"], info["trace"], name), []).append(metric["value"])
            units[name] = metric["unit"]
        values.setdefault((info["workload"], info["trace"], FAILED_OPS_RATIO), []).append(
            result["failed"] / result["attempted"]
        )
    units[FAILED_OPS_RATIO] = "ratio"
    return values, units


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else 0.0


def verdict(
    base: List[float], other: List[float], better: str, bound: float
) -> str:
    base_median = statistics.median(base)
    change = (statistics.median(other) - base_median) / base_median if base_median else 0.0
    if better == "higher":
        change = -change  # positive change = worse, either way
    if change > bound:
        return "worse"
    if spread(base) > bound:
        return "unresolved"
    if change < -bound:
        return "better"
    return "same"


def compare(base_dir: str, other_dir: str, benchmark: Dict[str, Any]) -> int:
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    base, units = load(base_dir)
    other, _ = load(other_dir)
    status = 0
    for key in sorted(base.keys() | other.keys()):
        workload, trace, name = key
        a, b = base.get(key, []), other.get(key, [])
        if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
            print(
                f"{workload} trace={trace} {name}: needs {MIN_RUNS} runs a side, "
                f"found {len(a)} and {len(b)}"
            )
            status = max(status, 2)
            continue
        unit = units[name]
        if name == FAILED_OPS_RATIO:
            word = "worse" if statistics.median(b) > statistics.median(a) else "same"
        elif unit in ("count", "B") or name == "disk_bytes_per_user_byte":
            if len(set(a)) > 1 or len(set(b)) > 1:
                word = "varies"
            elif a[0] == b[0]:
                word = "equal"
            elif name in bounds:  # a changed disk footprint is judged by its bound
                word = verdict(a, b, *bounds[name])
            else:
                word = "differs"
        elif name in bounds:
            word = verdict(a, b, *bounds[name])
        else:
            word = "-"
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        print(
            f"{workload:14s} t{trace} {name:44s} "
            f"A {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
            f"B {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
            f"B/A {ratio:7.4f} (base A {qa[1]:.6g} {unit})  {word}"
        )
        if word in ("worse", "differs", "varies"):
            status = max(status, 1)
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: python -m benchmarks.e2e.compare A B", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return compare(argv[0], argv[1], benchmark)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
