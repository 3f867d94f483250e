"""Block cost model of the paper's hybrid attribute-group store.

Paper §3, *Relational Storage Manager*: "with an insight to reduce the disk
blocks to update during a schema change, the relational storage manager uses
a hybrid of column-store and row-store to physically store the table".

Columns are partitioned into attribute groups; each group has its own page
chain.  The schema-change cost model that experiment E6 verifies:

===================  =======================  ==========================
operation            row store                hybrid store
===================  =======================  ==========================
ADD COLUMN           rewrite *all* pages      0 rewrites (new group) or
                                              pages of one group
DROP COLUMN          rewrite *all* pages      0 rewrites (sole member) or
                                              pages of one group
tuple insert         1 page                   ``n_groups`` pages
tuple update (1 col) 1 page                   1 page (the column's group)
===================  =======================  ==========================

:meth:`GroupedTupleStore.restructure` re-partitions into target groups
— e.g. merging the many single-column groups created by repeated ADD
COLUMN back into wider ones — the maintenance operation a production
system would run off-line (``n_pages`` then gives the new layout's size).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.store import AccessStats

__all__ = [
    "pages_for_group",
    "estimate_workload_blocks",
    "restructure_blocks",
    "suggested_tick_budget",
]


# -- the E6 cost table, as code -------------------------------------------------
#
# Blocks touched per logical operation under an attribute-group partition
# (the table in the module docstring, generalised to arbitrary groupings):
#
# * insert / delete / full-row update / full-row point read: one block per
#   group (``n_groups``),
# * single-column update: one block in *any* layout (the column lives in
#   exactly one group),
# * column scan: every block of that column's chain — ``n_rows`` divided by
#   how many records a page holds at the group's fragment width,
# * full-table scan: every block of every chain.
#
# :class:`repro.engine.layout.LayoutAdvisor` prices candidate partitions
# against an observed workload with these functions.


def pages_for_group(
    n_rows: int, width: int, page_capacity: int, ratio: float = 1.0
) -> int:
    """Blocks in one group's chain: narrow fragments pack more records.

    ``ratio`` is the group's compression ratio (plain bytes over encoded
    bytes, >= 1 when page encodings are in effect): an encoded page holds
    ``ratio`` times as many records, so the chain is proportionally
    shorter.  The default 1.0 prices a plain chain.
    """
    if n_rows <= 0:
        return 0
    capacity = max(1, page_capacity // max(1, width))
    capacity = max(capacity, int(capacity * ratio))
    return math.ceil(n_rows / capacity)


def suggested_tick_budget(
    n_rows: int, page_capacity: int, fraction: float = 0.25
) -> int:
    """``max_blocks`` for one background maintenance beat.

    Prices a beat at ``fraction`` of a full single-column chain rewrite
    (the cheapest restructure unit at the table's current size), floored
    at 8 blocks so tiny tables still finish a migration step per beat.
    The :class:`repro.engine.maintenance.MaintenanceScheduler` budgets
    its worker's beats with this, so one beat never monopolises the
    mutation lock for a whole multi-group restructure."""
    full_chain = pages_for_group(n_rows, 1, page_capacity)
    return max(8, int(full_chain * fraction))


def estimate_workload_blocks(
    grouping: Sequence[Sequence[str]],
    stats: AccessStats,
    n_rows: int,
    page_capacity: int,
    ratios: Optional[Dict[str, float]] = None,
) -> int:
    """Predicted blocks touched replaying ``stats`` under ``grouping``.

    Column scans are priced from the *co-access sets* when the window
    recorded them: one request over a set of columns reads each distinct
    covering chain once, so co-locating columns that are scanned together
    does not multiply the scan bill while it does shrink the per-tuple
    group count.  Scan counts not covered by any recorded set (older
    stats, or direct counter writes) fall back to the per-column charge.

    ``ratios`` (lower-cased column name -> compression ratio, from
    :meth:`GroupedTupleStore.column_encoding_ratios`) lets the advisor
    see encoded chains as shorter: a candidate group's ratio is the mean
    over its members, columns without an entry counting as 1.0.  Scan
    costs shrink accordingly; per-tuple costs (insert/delete/point read)
    still touch one block per group, encoded or not.
    """
    groups: List[List[str]] = [list(group) for group in grouping if group]
    n_groups = max(1, len(groups))
    group_of: Dict[str, int] = {
        name.lower(): index for index, group in enumerate(groups) for name in group
    }
    lookup = ratios or {}
    group_ratios = [
        sum(lookup.get(name.lower(), 1.0) for name in group) / len(group)
        for group in groups
    ]
    pages = [
        pages_for_group(n_rows, len(group), page_capacity, ratio)
        for group, ratio in zip(groups, group_ratios)
    ]
    cost = (
        stats.inserts + stats.deletes + stats.full_updates + stats.point_reads
    ) * n_groups
    cost += stats.full_scans * sum(pages)
    # Joint scans: each recorded co-access set reads every distinct chain
    # covering it once per request.
    coverage: Dict[str, int] = {}
    for names, count in stats.group_scans.items():
        covering = {group_of[name] for name in names if name in group_of}
        if not covering:
            continue  # every member since dropped/renamed
        cost += count * sum(max(1, pages[index]) for index in covering)
        for name in names:
            coverage[name] = coverage.get(name, 0) + count
    for name, column in stats.columns.items():
        index = group_of.get(name)
        if index is None:
            continue  # column since dropped/renamed
        residual = column.scans - coverage.get(name, 0)
        if residual > 0:
            cost += residual * max(1, pages[index])
        cost += column.updates  # one block regardless of layout
    return cost


def restructure_blocks(
    current: Sequence[Sequence[str]],
    target: Sequence[Sequence[str]],
    n_rows: int,
    page_capacity: int,
) -> int:
    """Blocks one build-then-swap-then-free restructure step touches.

    Groups whose member list is unchanged are reused for free; every other
    target group reads each **distinct source chain** holding one of its
    members once, then writes its own fresh chain.  The build walks a
    source chain sequentially no matter how many member columns it
    contributes, so charging per member column (the old model) double-
    bills shared chains — splitting one 4-wide group into two pairs used
    to bill four reads of the same chain instead of two, making the
    advisor overestimate split costs and under-migrate.
    """
    current_groups = [list(group) for group in current if group]
    target_groups = [list(group) for group in target if group]
    current_keys = {
        tuple(name.lower() for name in group) for group in current_groups
    }
    home: Dict[str, Tuple[str, ...]] = {}
    source_pages: Dict[Tuple[str, ...], int] = {}
    for group in current_groups:
        key = tuple(name.lower() for name in group)
        source_pages[key] = pages_for_group(n_rows, len(group), page_capacity)
        for name in group:
            home[name.lower()] = key
    blocks = 0
    for group in target_groups:
        key = tuple(name.lower() for name in group)
        if key in current_keys:
            continue
        sources = {
            home[name.lower()] for name in group if name.lower() in home
        }
        blocks += sum(source_pages[source] for source in sources)
        blocks += pages_for_group(n_rows, len(group), page_capacity)
    return blocks
