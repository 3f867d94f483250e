"""CLI: ``python -m repro.analysis [--baseline] [paths...]``.

Exit status: 0 when every finding is covered by the baseline, 1 when new
findings exist (they are printed), 2 on usage errors.  ``--baseline``
regenerates the baseline file from the current findings instead (keeping
existing justifications) and always exits 0 — review the diff before
committing it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.baseline import (
    DEFAULT_BASELINE_FILE,
    load_baseline,
    partition,
    write_baseline,
)
from repro.analysis.core import analyze_paths, registered_checkers


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Engine-invariant static checks (RC0xx codes; see --list-codes).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="regenerate the baseline file from the current findings",
    )
    parser.add_argument(
        "--baseline-file", default=DEFAULT_BASELINE_FILE,
        help=f"baseline path (default: {DEFAULT_BASELINE_FILE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: print and fail on every finding",
    )
    parser.add_argument(
        "--select", action="append", metavar="CODE",
        help="run only these checker codes (repeatable)",
    )
    parser.add_argument(
        "--list-codes", action="store_true",
        help="print the checker code table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_codes:
        for code, (title, _) in registered_checkers().items():
            print(f"{code}  {title}")
        return 0

    diagnostics = analyze_paths(args.paths, codes=args.select)

    if args.baseline:
        existing = load_baseline(args.baseline_file)
        entries = write_baseline(args.baseline_file, diagnostics, existing)
        todo = sum(1 for entry in entries if not entry.justification)
        print(
            f"wrote {len(entries)} entr{'y' if len(entries) == 1 else 'ies'} "
            f"to {args.baseline_file}"
            + (f" ({todo} still need a justification)" if todo else "")
        )
        return 0

    baseline = {} if args.no_baseline else load_baseline(args.baseline_file)
    if args.select:
        # A partial run cannot judge entries for checkers it did not run.
        selected = set(args.select)
        baseline = {
            key: entry for key, entry in baseline.items()
            if entry.code in selected
        }
    new, grandfathered, stale = partition(diagnostics, baseline)
    for diag in new:
        print(diag.render())
    for entry in stale:
        print(f"stale baseline entry (finding gone): {entry.key}", file=sys.stderr)
    summary = (
        f"{len(new)} new finding(s), {len(grandfathered)} baselined, "
        f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}"
    )
    print(summary, file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
