"""Correctness tooling: static engine-invariant checkers + runtime sanitizer.

Static half (``python -m repro.analysis [--baseline] [paths]``): three
AST-based checkers with stable ``RC0xx`` codes walk the source tree and
report invariant violations; a committed baseline file grandfathers the
deliberate ones.  See :mod:`repro.analysis.checkers` for the code table.

Dynamic half: :class:`~repro.analysis.sanitizer.Sanitizer`, installed by
``Database(sanitize=True)`` or ``REPRO_SANITIZE=1`` — cheap invariant
assertions on the pager/store/WAL/layout hot paths behind a null-object
fast path.
"""

from repro.analysis.baseline import (
    DEFAULT_BASELINE_FILE,
    BaselineEntry,
    load_baseline,
    partition,
    write_baseline,
)
from repro.analysis.core import (
    Diagnostic,
    ProjectIndex,
    analyze_paths,
    registered_checkers,
    run_checks,
)
from repro.analysis.sanitizer import NULL_SANITIZER, NullSanitizer, Sanitizer

__all__ = [
    "Diagnostic",
    "ProjectIndex",
    "analyze_paths",
    "registered_checkers",
    "run_checks",
    "DEFAULT_BASELINE_FILE",
    "BaselineEntry",
    "load_baseline",
    "partition",
    "write_baseline",
    "NullSanitizer",
    "Sanitizer",
    "NULL_SANITIZER",
]
