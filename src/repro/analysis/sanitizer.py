"""Runtime invariant sanitizer — the dynamic half of :mod:`repro.analysis`.

``Database(sanitize=True)`` (or ``REPRO_SANITIZE=1`` in the environment)
threads a :class:`Sanitizer` through the pager, store, table, WAL and
service layers.  Hot call sites gate on ``sanitizer.enabled`` so the
default :data:`NULL_SANITIZER` costs one attribute load + boolean test —
the same fast-path shape as the tracer's ``_NULL_SPAN``.

What it asserts (each check is cheap relative to the operation it rides):

* **encoded-page freshness** — a page carrying an ``"enc"`` header must
  hold no plain records; one means a frozen group was mutated without
  ``_thaw_page``.  The header itself must be the frozen
  :class:`~repro.engine.encoding.EncodedPage` with tuple rids and columns,
  since disk and buffer frames share it.  Checked on every buffer-pool
  fetch and write-back, so the corruption surfaces at the next page touch.
* **batch rid lockstep** — every column fragment of an emitted batch must
  be exactly as long as its rid list, rids unique; covering chains that
  disagree on rid order raise instead of silently degrading to per-rid
  directory lookups.
* **WAL append integrity** — the log's tracked end offset must equal the
  physical file size at every append (drift means a truncate/append race
  or an external writer), and LSNs stay dense on replay.
* **post-migration consistency** — after a ``layout_tick`` that moved
  data, the grouping must still partition the schema's columns and the
  positional index must agree with the store's row count
  (``Table.validate`` does the deep walk; migrations are rare enough to
  afford it).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.errors import DataSpreadError, SanitizerError

__all__ = ["NullSanitizer", "Sanitizer", "NULL_SANITIZER"]


class NullSanitizer:
    """No-op fast path; every check site first tests ``enabled``."""

    enabled = False

    def check_page(self, page: Any) -> None:
        """Encoded-page freshness (pager fetch/write-back)."""

    def check_batch(self, rids: Sequence[int], columns: Sequence[Any]) -> None:
        """rid-alignment of one emitted batch."""

    def lockstep_mismatch(
        self, group_index: int, driver_rids: Sequence[int], other_rids: Sequence[int]
    ) -> None:
        """Covering chains disagreed on rid order."""

    def check_zone_count(self, page_id: int, cached: int, actual: int) -> None:
        """Cached zone-map record count vs the page's real count."""

    def check_zone(
        self, page_id: int, offset: int, zone: Any, values: Sequence[Any]
    ) -> None:
        """Cached (min, max, null_count) zone vs decoded page contents."""

    def check_wal_append(self, lsn: int, tracked_offset: int, file_size: int) -> None:
        """Append-time offset/LSN integrity."""

    def check_replay_lsns(self, lsns: Sequence[int]) -> None:
        """Replayed records must be dense and ascending."""

    def check_table(self, table: Any) -> None:
        """Post-migration grouping + positional-index consistency."""


#: Shared instance wired in everywhere by default — sanitize-off pays only
#: the ``enabled`` test at each site.
NULL_SANITIZER = NullSanitizer()


class Sanitizer(NullSanitizer):
    """The armed variant: counts checks, raises :class:`SanitizerError`."""

    enabled = True

    def __init__(self) -> None:
        self.checks = 0
        self.failures = 0

    def _fail(self, message: str) -> None:
        self.failures += 1
        raise SanitizerError(f"sanitizer: {message}")

    # -- pager ---------------------------------------------------------------

    def check_page(self, page: Any) -> None:
        self.checks += 1
        enc = page.header.get("enc")
        if enc is None:
            return
        if page.records:
            self._fail(
                f"page {page.page_id} carries an 'enc' header but holds "
                f"{len(page.records)} plain record(s) — a frozen group was "
                "mutated without _thaw_page"
            )
        # Imported here: the engine imports this module at load time.
        from repro.engine.encoding import EncodedPage

        if not (
            type(enc) is EncodedPage
            and type(enc.rids) is tuple
            and type(enc.cols) is tuple
        ):
            self._fail(
                f"page {page.page_id} has a malformed 'enc' header "
                f"({type(enc).__name__}, not a frozen EncodedPage with "
                "tuple rids/cols) — a shared page image could be mutated"
            )

    # -- store scans ---------------------------------------------------------

    def check_batch(self, rids: Sequence[int], columns: Sequence[Any]) -> None:
        self.checks += 1
        n = len(rids)
        if len(set(rids)) != n:
            self._fail(
                f"batch carries {n} rids but only {len(set(rids))} are "
                "distinct — duplicate rows in one batch"
            )
        for offset, column in enumerate(columns):
            if column is not None and len(column) != n:
                self._fail(
                    f"batch column {offset} holds {len(column)} values for "
                    f"{n} rids — fragments are out of rid alignment"
                )

    def lockstep_mismatch(
        self, group_index: int, driver_rids: Sequence[int], other_rids: Sequence[int]
    ) -> None:
        self.checks += 1
        self._fail(
            f"group {group_index} chain lost rid lockstep with the driver "
            f"chain (driver starts {list(driver_rids[:4])}, group yields "
            f"{list(other_rids[:4])}) — the chains no longer agree on row "
            "order"
        )

    # -- zone maps -----------------------------------------------------------

    def check_zone_count(self, page_id: int, cached: int, actual: int) -> None:
        self.checks += 1
        if cached != actual:
            self._fail(
                f"page {page_id} zone map caches {cached} records but the "
                f"page holds {actual} — a mutation bypassed invalidation"
            )

    def check_zone(
        self, page_id: int, offset: int, zone: Any, values: Sequence[Any]
    ) -> None:
        """A cached zone must *cover* the page: every non-null value within
        [min, max] and the null count exact.  A zone that excludes a live
        value could skip a matching row — the one corruption data skipping
        cannot tolerate."""
        self.checks += 1
        lo, hi, nulls = zone
        seen_nulls = 0
        for value in values:
            if value is None:
                seen_nulls += 1
                continue
            try:
                below = lo is None or value < lo
                above = hi is None or value > hi
            except TypeError:
                self._fail(
                    f"page {page_id} offset {offset} zone ({lo!r}, {hi!r}) "
                    f"does not order against stored value {value!r}"
                )
            if below or above:
                self._fail(
                    f"page {page_id} offset {offset} zone ({lo!r}, {hi!r}) "
                    f"excludes stored value {value!r} — a skipping scan "
                    "would drop a live row"
                )
        if seen_nulls != nulls:
            self._fail(
                f"page {page_id} offset {offset} zone claims {nulls} nulls "
                f"but the page holds {seen_nulls}"
            )

    # -- WAL -----------------------------------------------------------------

    def check_wal_append(self, lsn: int, tracked_offset: int, file_size: int) -> None:
        self.checks += 1
        if lsn < 1:
            self._fail(f"append would assign non-positive LSN {lsn}")
        if tracked_offset != file_size:
            self._fail(
                f"WAL tracked end offset {tracked_offset} != physical file "
                f"size {file_size} before appending LSN {lsn} — offset "
                "drift (concurrent writer or missed truncation)"
            )

    def check_replay_lsns(self, lsns: Sequence[int]) -> None:
        self.checks += 1
        previous = 0
        for lsn in lsns:
            if lsn != previous + 1:
                self._fail(
                    f"replay saw LSN {lsn} after {previous} — the committed "
                    "history is not dense"
                )
            previous = lsn

    # -- layout maintenance --------------------------------------------------

    def check_table(self, table: Any) -> None:
        self.checks += 1
        seen: List[str] = []
        for group in table.schema.groups:
            seen.extend(name.lower() for name in group)
        expected = [name.lower() for name in table.schema.column_names]
        if sorted(seen) != sorted(expected):
            self._fail(
                f"table {table.name!r} grouping {table.schema.groups} does "
                f"not partition its columns {table.schema.column_names}"
            )
        try:
            table.validate()
        except DataSpreadError as error:
            self._fail(
                f"post-migration validation failed for table "
                f"{table.name!r}: {error}"
            )
