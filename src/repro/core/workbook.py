"""The workbook: DataSpread's front-end facade.

A :class:`Workbook` is the holistic unification the paper proposes: sheets
(interface storage) + a relational database (back-end) + the compute engine
+ the interface manager's region registry + two-way sync, behind one
spreadsheet-shaped API:

>>> wb = Workbook()
>>> wb.set("Sheet1", "A1", 2)
>>> wb.set("Sheet1", "A2", "=A1*21")
>>> wb.get("Sheet1", "A2")
42

Database-backed constructs::

    wb.dbtable("Sheet1", "A1", "movies")                 # Fig 2b import
    wb.dbsql("Sheet1", "B3", "SELECT name FROM actors "
             "WHERE actorid = RANGEVALUE(B1)")           # Fig 2a query
    wb.create_table_from_range("Sheet1", "A1:C101", "grades",
                               primary_key="student_id")  # Fig 2b export

Editing a ``DBTABLE`` cell updates the database and every dependent region
(Fig 2c); running ``wb.execute("INSERT ...")`` updates the sheet.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.compute.engine import ComputeEngine, ComputeHost
from repro.compute.graph import CellKey
from repro.core.address import CellAddress, KeyAddress, KeyRange, RangeAddress
from repro.core.cell import Cell
from repro.core.context import RegionRegistry
from repro.core.dbsql import DBSQLRegion
from repro.core.dbtable import DBTableRegion
from repro.core.sheet import Sheet
from repro.core.sync import SyncManager
from repro.core.table_io import create_table_from_grid
from repro.engine.database import Database, ResultSet
from repro.engine.store import LayoutPolicy
from repro.engine.table import Table
from repro.errors import (
    FormulaEvalError,
    FormulaSyntaxError,
    RegionError,
    SheetError,
)
from repro.formula.dependency import ReferenceDeleted
from repro.formula.nodes import Call, FormulaNode, Text, map_refs
from repro.formula.parser import parse_formula
from repro.window.viewport import Viewport

__all__ = ["Workbook"]

RefLike = Union[str, CellAddress]


class Workbook(ComputeHost):
    """Sheets + database + compute + sync, unified."""

    def __init__(
        self,
        database: Optional[Database] = None,
        eager: bool = True,
        default_sheet: str = "Sheet1",
    ):
        self.database = database if database is not None else Database()
        self.sheets: Dict[str, Sheet] = {}
        self.compute = ComputeEngine(self, eager=eager)
        self.regions = RegionRegistry()
        self.sync = SyncManager(self)
        self.database.add_listener(self.sync.on_event)
        self.viewport: Optional[Viewport] = None
        self.auto_sync = True
        self._batch_depth = 0
        #: ``listener(key, value)`` after any cell write (edits, formula
        #: recomputes, error renders) — the server's delta feed.
        self.cell_listeners: List[Any] = []
        #: ``listener(region)`` after a display region rewrote any of its
        #: cells (a render that changed nothing announces nothing).
        self.region_refresh_listeners: List[Any] = []
        # Report the spreadsheet layer (sheets, compute, sync) through the
        # database's metrics registry so every layer scrapes as one surface.
        self.database.metrics_registry.register_collector(
            self._collect_workbook_metrics
        )
        if default_sheet:
            self.add_sheet(default_sheet)

    def _collect_workbook_metrics(self) -> Dict[str, Any]:
        """Pull-collector over the compute/sync counter structs plus the
        workbook's size gauges."""
        return {
            "wb_sheets": len(self.sheets),
            "wb_regions": len(self.regions),
            "wb_formulas": self.compute.n_formulas,
            **self.compute.stats.metrics("compute_"),
            **self.sync.stats.metrics("sync_"),
        }

    # ------------------------------------------------------------- observers

    def _notify_cell_written(self, key: CellKey, value: Any) -> None:
        """``key`` is logical: what listeners (the server's deltas) speak."""
        for listener in self.cell_listeners:
            listener(key, value)

    def _notify_region_refreshed(self, region) -> None:
        for listener in self.region_refresh_listeners:
            listener(region)

    # ------------------------------------------------------------------ sheets

    def add_sheet(self, name: str, **kwargs: Any) -> Sheet:
        if name in self.sheets:
            raise SheetError(f"sheet {name!r} already exists")
        sheet = Sheet(name, **kwargs)
        self.sheets[name] = sheet
        return sheet

    def sheet(self, name: str) -> Sheet:
        try:
            return self.sheets[name]
        except KeyError:
            raise SheetError(f"no such sheet {name!r}") from None

    def __getitem__(self, name: str) -> Sheet:
        return self.sheet(name)

    def sheet_names(self) -> List[str]:
        return list(self.sheets)

    # ------------------------------------- the logical <-> physical boundary
    #
    # Users, regions, the server and the WAL speak logical positions; the
    # compute layer and every stored formula speak the mappers' physical
    # keys.  Positions become keys here on the way in and keys positions on
    # the way out, and while a sheet is unspliced both are the same number.

    def key_of(self, sheet_name: str, address: CellAddress) -> CellKey:
        """The compute layer's key for a logical address."""
        sheet = self.sheets.get(sheet_name)
        if sheet is None:
            return (sheet_name, address.row, address.col)
        return (sheet_name, *sheet.store.key_of(address.row, address.col))

    def locate(self, key: CellKey) -> Optional[Tuple[int, int]]:
        sheet = self.sheets.get(key[0])
        if sheet is None:
            return key[1], key[2]
        return sheet.store.position_of(key[1], key[2])

    def axes(self, sheet_name: str):
        sheet = self.sheets.get(sheet_name)
        return None if sheet is None else (sheet.store.rows, sheet.store.cols)

    def _address_maps(self, base_sheet: str, to_keys: bool):
        """The (cell, range) address functions that bind a logical tree's
        references to keys (``to_keys``) or give a bound tree's references
        their current positions back.  An unspliced sheet's addresses are
        returned as they are — binding is the identity there."""
        point, span = (KeyAddress, KeyRange) if to_keys else (CellAddress, RangeAddress)

        def on_cell(address: CellAddress) -> CellAddress:
            sheet = self.sheets.get(address.sheet or base_sheet)
            if sheet is None or sheet.store.pristine:
                return address
            move = sheet.store.key_of if to_keys else sheet.store.position_of
            row, col = move(address.row, address.col)
            return point(row, col, address.sheet, address.row_absolute, address.col_absolute)

        def on_range(reference: RangeAddress) -> RangeAddress:
            start = on_cell(reference.start)
            if start is reference.start:
                return reference
            return span(start, on_cell(reference.end))

        return on_cell, on_range

    def formula_text(self, sheet_name: str, ref: Union[RefLike, Cell]) -> Optional[str]:
        """The A1 text (no leading ``=``) of the formula at ``ref`` — or of
        the cell itself, for a caller that holds it — rendered from the
        bound tree through the mappers; ``None`` for a plain cell."""
        cell = ref if isinstance(ref, Cell) else self.sheet(sheet_name).cell(ref)
        if cell is None or cell.formula is None:
            return None
        return map_refs(cell.formula, *self._address_maps(sheet_name, False)).to_text()

    # ------------------------------------------------------- ComputeHost hooks

    def _cell(self, key: CellKey) -> Cell:
        """The cell stored under a physical key, created blank if absent."""
        store = self.sheet(key[0]).store
        cell = store.at_key(key[1], key[2])
        if cell is None:
            cell = Cell()
            store.put_key(key[1], key[2], cell)
        return cell

    def _written(self, key: CellKey, value: Any) -> None:
        position = self.locate(key)
        if position is not None:
            self._notify_cell_written((key[0], *position), value)

    def read_value(self, key: CellKey) -> Any:
        sheet = self.sheets.get(key[0])
        cell = sheet.store.at_key(key[1], key[2]) if sheet is not None else None
        return cell.value if cell is not None else None

    def write_value(self, key: CellKey, value: Any) -> None:
        self._cell(key).set_value(value)
        self._written(key, value)

    def write_error(self, key: CellKey, code: str) -> None:
        self._cell(key).set_error(code)
        self._written(key, code)

    def call_extension(self, name: str, args: List[Any], at: CellKey) -> Any:
        upper = name.upper()
        if upper in ("DBSQL", "DBTABLE"):
            position = self.locate(at)
            region = position and self.regions.region_at(at[0], *position)
            if region is None or region.context.anchor.anchor() != position:
                raise FormulaEvalError(
                    f"{upper} formula without a region at anchor", "#REF!"
                )
            return region.refresh()
        raise FormulaEvalError(f"unknown function {name}", "#NAME?")

    # --------------------------------------------------------------- batching

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Group mutations so sync flushes once at the end."""
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self.auto_sync:
                self.sync.flush()

    def mark_region_stale(self, region) -> None:
        """``region`` must re-query (flushed with the current batch)."""
        self.sync.mark_stale(region.context.region_id)
        if self._batch_depth == 0 and self.auto_sync:
            self.sync.flush()

    def mark_region_patched(self, region) -> None:
        """``region`` folded a change and must render it."""
        self.sync.mark_patched(region.context.region_id)
        if self._batch_depth == 0 and self.auto_sync:
            self.sync.flush()

    # ---------------------------------------------------------------- editing

    def set(self, sheet_name: str, ref: RefLike, raw: Any) -> None:
        """Apply user input to a cell — the single entry point that routes
        between plain values, formulas, DataSpread constructs, and edits of
        database-backed regions."""
        self.sheet(sheet_name)
        address = ref if isinstance(ref, CellAddress) else CellAddress.parse(ref)

        region = self.regions.region_at(sheet_name, address.row, address.col)
        is_anchor = region is not None and (
            region.context.anchor.row == address.row
            and region.context.anchor.col == address.col
        )
        if region is not None and not is_anchor:
            if region.context.kind == "dbtable":
                with self.batch():
                    region.apply_edit(address.row, address.col, raw)
                return
            raise RegionError(
                f"{address.to_a1()} is part of a DBSQL result and is read-only"
            )
        if is_anchor:
            # Replacing the construct: tear the old region down first.
            self.remove_region(region.context.region_id)

        # Row appended directly below a DBTABLE (the add-a-record idiom).
        if region is None and address.row > 0:
            above = self.regions.region_at(sheet_name, address.row - 1, address.col)
            if (
                above is not None
                and above.context.kind == "dbtable"
                and above.context.extent is not None
                and above.context.extent.end.row == address.row - 1
            ):
                with self.batch():
                    above.apply_edit(address.row, address.col, raw)
                return

        if isinstance(raw, str) and raw.startswith("="):
            self._set_formula(sheet_name, address, parse_formula(raw[1:]))
            return
        key = self.key_of(sheet_name, address)
        cell = self._cell(key)
        if cell.is_formula:
            self.compute.unregister_formula(key)
        cell.set_input(raw)
        self._notify_cell_written((sheet_name, address.row, address.col), cell.value)
        with self.batch():
            self.compute.on_value_changed(key)

    def _set_formula(self, sheet_name: str, address: CellAddress, node: FormulaNode) -> None:
        if isinstance(node, Call) and node.name in ("DBSQL", "DBTABLE"):
            if not (node.args and isinstance(node.args[0], Text)):
                raise FormulaSyntaxError(
                    f"{node.name} expects a quoted string argument"
                )
            kind = DBSQLRegion if node.name == "DBSQL" else DBTableRegion
            region = kind(self, self.regions.new_id(), sheet_name, address, node.args[0].value)
            self._install_region(region, node)
            return
        self._install(sheet_name, address, node)

    def _install(
        self, sheet_name: str, address: CellAddress, node: FormulaNode,
        region: Any = None,
    ) -> None:
        """The one way a formula enters: ``node`` (logical, as parsed) is
        bound to the mappers' keys and that one tree goes to the cell and to
        the engine — no text is kept.  A region anchor also subscribes to
        its SQL-level references (RANGEVALUE cells, RANGETABLE ranges)."""
        key = self.key_of(sheet_name, address)
        cell = self._cell(key)
        cell.formula = map_refs(node, *self._address_maps(sheet_name, True))
        if region is not None:
            cell.region_id = region.context.region_id
        else:
            # Announce before recalc: even when the formula's value is
            # computed later (lazy mode, off-screen cell), observers must
            # see that the cell was written (the optimistic stale check
            # keys off this).
            self._notify_cell_written((sheet_name, address.row, address.col), cell.value)
        with self.batch():
            self.compute.register_formula(key, cell.formula)
            if region is not None:
                self._subscribe_region(key, region)

    def _subscribe_region(self, key: CellKey, region: Any) -> None:
        """(Re)bind a region's SQL-level references.  They live in the SQL
        string as logical text nothing rewrites, so unlike a formula's they
        are bound again after every structural edit that reaches them."""
        cells = getattr(region, "precedent_cells", ())
        ranges = getattr(region, "precedent_ranges", ())
        if cells or ranges:
            on_cell, on_range = self._address_maps(region.context.sheet, True)
            self.compute.graph.set_dependencies(
                key, map(on_cell, cells), map(on_range, ranges)
            )

    def get(self, sheet_name: str, ref: RefLike) -> Any:
        """Current value (recomputing the cell first if it is dirty)."""
        address = ref if isinstance(ref, CellAddress) else CellAddress.parse(ref)
        return self.compute.demand_value(self.key_of(sheet_name, address))

    def get_range(self, sheet_name: str, ref: Union[str, RangeAddress]) -> List[List[Any]]:
        reference = ref if isinstance(ref, RangeAddress) else RangeAddress.parse(ref)
        rows = range(reference.start.row, reference.end.row + 1)
        cols = range(reference.start.col, reference.end.col + 1)
        axes = self.axes(sheet_name)
        if axes is not None:
            rows = axes[0].keys(rows[0], rows[-1])
            cols = list(axes[1].keys(cols[0], cols[-1]))
        demand = self.compute.demand_value
        return [[demand((sheet_name, row, col)) for col in cols] for row in rows]

    def on_cells_changed(self, sheet_name: str, positions: List[Tuple[int, int]]) -> None:
        """A region rewrote the cells at these logical positions."""
        sheet = self.sheet(sheet_name)
        self.compute.on_values_changed(
            [(sheet_name, *sheet.store.key_of(row, col)) for row, col in positions]
        )

    def display(self, sheet_name: str, ref: RefLike) -> str:
        self.get(sheet_name, ref)  # ensure fresh
        return self.sheet(sheet_name).display(ref)

    # ----------------------------------------------------- DataSpread constructs

    def dbsql(
        self,
        sheet_name: str,
        anchor: RefLike,
        sql: str,
        include_headers: bool = False,
    ) -> DBSQLRegion:
        """Install ``=DBSQL("<sql>")`` at ``anchor`` (Fig 2a)."""
        address = anchor if isinstance(anchor, CellAddress) else CellAddress.parse(anchor)
        region = DBSQLRegion(
            self, self.regions.new_id(), sheet_name, address, sql,
            include_headers=include_headers,
        )
        return self._install_region(region, Call("DBSQL", (Text(sql),)))

    def dbtable(
        self,
        sheet_name: str,
        anchor: RefLike,
        table_name: str,
        include_headers: bool = True,
        window_rows: Optional[int] = None,
    ) -> DBTableRegion:
        """Install ``=DBTABLE("<table>")`` at ``anchor`` (Fig 2b import)."""
        address = anchor if isinstance(anchor, CellAddress) else CellAddress.parse(anchor)
        region = DBTableRegion(
            self, self.regions.new_id(), sheet_name, address, table_name,
            include_headers=include_headers, window_rows=window_rows,
        )
        return self._install_region(region, Call("DBTABLE", (Text(table_name),)))

    def _install_region(self, region: Any, node: FormulaNode) -> Any:
        """Register ``region`` and install ``node`` — its construct, as
        typed or as the API spells it — at its anchor."""
        self.sheet(region.context.sheet)
        self.regions.add(region)
        self._install(region.context.sheet, region.context.anchor, node, region)
        return region

    def remove_region(self, region_id: int) -> None:
        region = self.regions.get(region_id)
        if region is None:
            return
        key = self.key_of(region.context.sheet, region.context.anchor)
        self.compute.unregister_formula(key)
        region.clear()
        self.regions.remove(region_id)

    def create_table_from_range(
        self,
        sheet_name: str,
        range_ref: Union[str, RangeAddress],
        table_name: str,
        primary_key: Optional[str] = None,
        layout: Optional[LayoutPolicy] = None,
        group_size: Optional[int] = None,
        window_rows: Optional[int] = None,
    ) -> Table:
        """Fig 2b export: turn a sheet range into a database table and
        replace the range with a live DBTABLE region."""
        reference = (
            range_ref if isinstance(range_ref, RangeAddress) else RangeAddress.parse(range_ref)
        )
        sheet = self.sheet(sheet_name)
        grid = self.get_range(sheet_name, reference)
        table = create_table_from_grid(
            self.database,
            table_name,
            grid,
            primary_key=primary_key,
            layout=layout,
            group_size=group_size,
            first_col_label=reference.start.col,
        )
        sheet.clear_range(reference)
        self.dbtable(sheet_name, reference.start, table_name, window_rows=window_rows)
        return table

    # ------------------------------------------------------------ database I/O

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run SQL against the back-end; dependent regions refresh once the
        statement completes (Feature 3, back-end direction)."""
        with self.batch():
            return self.database.execute(sql, params)

    # ----------------------------------------------------------- window control

    def set_viewport(self, viewport: Viewport) -> None:
        self.viewport = viewport
        self.set_visible_predicate(viewport.visible_predicate())

    def set_visible_predicate(self, predicate) -> None:
        """Visible-first recalc over ``predicate(logical key)`` — a
        viewport's, or the server's union over session panes."""

        def visible(key: CellKey) -> bool:
            position = self.locate(key)
            return position is not None and predicate((key[0], *position))

        self.compute.set_visible_predicate(visible)

    def recalc_visible(self) -> int:
        return self.compute.recalc_visible()

    def background_step(self, budget: int = 32) -> int:
        return self.compute.background_step(budget)

    def recalc_all(self) -> int:
        return self.compute.drain()

    # ---------------------------------------------------------- structural edits

    def insert_rows(self, sheet_name: str, at: int, count: int = 1) -> None:
        self._structural_edit(sheet_name, "row", at, count)

    def delete_rows(self, sheet_name: str, at: int, count: int = 1) -> None:
        self._structural_edit(sheet_name, "row", at, -count)

    def insert_cols(self, sheet_name: str, at: int, count: int = 1) -> None:
        self._structural_edit(sheet_name, "col", at, count)

    def delete_cols(self, sheet_name: str, at: int, count: int = 1) -> None:
        self._structural_edit(sheet_name, "col", at, -count)

    def _structural_edit(self, sheet_name: str, axis: str, at: int, count: int) -> None:
        """Insert (count>0) or delete (count<0) rows/columns.

        The sheet's cell store splices its key space (zero cells move), and
        because every formula is bound to those keys the splice is also all
        that happens to formulas: trees, formula keys, cell edges and dirty
        marks stay as they are, and a range — a pair of corner keys — grows,
        shrinks and moves with the rows between its corners.  What is left
        is proportional to what the edit touches, not to the sheet: regions
        re-anchor, the engine re-buckets the range subscriptions that reach
        the edit and schedules the readers of those that gained or lost
        rows, and after a delete the formulas that referenced a freed key
        become ``#REF!`` — except a range that lost a corner but not every
        row, which re-binds that corner to the surviving neighbour."""
        sheet = self.sheet(sheet_name)
        # Regions: refuse edits that cut through a region; shift those below/right.
        for region in self.regions.regions_on_sheet(sheet_name):
            extent = region.context.extent
            if extent is None:
                continue
            lo = extent.start.row if axis == "row" else extent.start.col
            hi = extent.end.row if axis == "row" else extent.end.col
            if count < 0:
                removed_lo, removed_hi = at, at - count - 1
                if removed_lo <= hi and removed_hi >= lo:
                    raise RegionError(
                        f"structural delete intersects region "
                        f"{region.context.region_id} ({extent.to_a1()})"
                    )
            elif lo < at <= hi:
                raise RegionError(
                    f"structural insert splits region "
                    f"{region.context.region_id} ({extent.to_a1()})"
                )
        freed, dropped = sheet.store.splice(axis, at, count)
        mapper = sheet.store.rows if axis == "row" else sheet.store.cols
        for region in self.regions.regions_on_sheet(sheet_name):
            extent = region.context.extent
            anchor = region.context.anchor
            if getattr(anchor, axis) >= at:
                d_row = count if axis == "row" else 0
                d_col = count if axis == "col" else 0
                region.context.anchor = anchor.translate(d_row, d_col)
                if extent is not None:
                    region.context.extent = extent.translate(d_row, d_col)

        def alive(address: CellAddress, base_sheet: str) -> CellAddress:
            if (address.sheet or base_sheet) == sheet_name and (
                mapper.position_of(getattr(address, axis)) is None
            ):
                raise ReferenceDeleted(f"referenced {axis} was deleted")
            return address

        def clamped(reference: RangeAddress, base_sheet: str) -> RangeAddress:
            if (reference.sheet or base_sheet) != sheet_name:
                return reference
            lo = mapper.position_of(getattr(reference.start, axis))
            hi = mapper.position_of(getattr(reference.end, axis))
            if lo is not None and hi is not None:
                return reference
            # The rows after the deleted slice now start at ``at``.
            lo, hi = (at if lo is None else lo), (at - 1 if hi is None else hi)
            if lo > hi:
                raise ReferenceDeleted("every row of the range was deleted")
            return KeyRange(
                KeyAddress(**{**vars(reference.start), axis: mapper.key_at(lo)}),
                KeyAddress(**{**vars(reference.end), axis: mapper.key_at(hi)}),
            )

        # Nothing may recompute until every reference to a freed key is
        # re-bound or dead, so the recalculation is one drain at the end.
        was_eager, self.compute.eager = self.compute.eager, False
        try:
            stale = self.compute.rekey_formulas(
                sheet_name, axis, at, freed,
                [(sheet_name, row, col) for row, col, cell in dropped if cell.is_formula],
            )
            for key in sorted(stale):
                cell = self._cell(key)
                if cell.region_id is not None:
                    continue  # a region anchor: re-subscribed below
                try:
                    cell.formula = map_refs(
                        cell.formula,
                        lambda address: alive(address, key[0]),
                        lambda reference: clamped(reference, key[0]),
                    )
                except ReferenceDeleted:
                    cell.set_error("#REF!")
                    cell.formula = None
                    self.compute.drop_formula(key)
                    self._written(key, cell.value)
                else:
                    self.compute.register_formula(key, cell.formula)
            for region in self.regions.all():
                cells = getattr(region, "precedent_cells", ())
                ranges = getattr(region, "precedent_ranges", ())
                if any(
                    ref.sheet == sheet_name and getattr(ref, axis) >= at
                    for ref in [*cells, *(reference.end for reference in ranges)]
                ):
                    key = self.key_of(region.context.sheet, region.context.anchor)
                    self._subscribe_region(key, region)
                    self.compute.invalidate_formula(key)
        finally:
            self.compute.eager = was_eager
        with self.batch():
            if self.compute.eager:
                self.compute.drain()

    # ----------------------------------------------------------------- stats

    def stats_summary(self) -> Dict[str, Any]:
        return {
            "sheets": len(self.sheets),
            "regions": len(self.regions),
            "formulas": self.compute.n_formulas,
            "compute": self.compute.stats,
            "sync": self.sync.stats,
            "io": self.database.io_stats,
        }
