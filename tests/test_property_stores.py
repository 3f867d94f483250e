"""Property-based tests: stores and cell store vs simple Python models.

These catch interaction bugs (delete-then-update, schema change mid-stream)
that example-based tests miss.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.schema import Column, TableSchema
from repro.engine.store import GroupedTupleStore, LayoutPolicy
from repro.engine.types import DBType
from repro.interface_storage import CellStore


# ---------------------------------------------------------------------------
# GroupedTupleStore vs dict-of-rows model
# ---------------------------------------------------------------------------

store_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "update_col", "add_col", "drop_col"]),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    ),
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(operations=store_ops, layout=st.sampled_from(list(LayoutPolicy)))
def test_store_matches_dict_model(operations, layout):
    schema = TableSchema.from_pairs(
        [("a", DBType.INTEGER), ("b", DBType.INTEGER)], group_size=1
    )
    store = GroupedTupleStore(schema, layout=layout, page_capacity=4)
    model = {}  # rid -> row dict
    extra_columns = []
    for op, x, y in operations:
        width = 2 + len(extra_columns)
        if op == "insert":
            row = tuple(range(x, x + width))
            rid = store.insert(row)
            model[rid] = list(row)
        elif op == "delete" and model:
            rid = sorted(model)[x % len(model)]
            store.delete(rid)
            del model[rid]
        elif op == "update" and model:
            rid = sorted(model)[x % len(model)]
            row = tuple(range(y, y + width))
            store.update(rid, row)
            model[rid] = list(row)
        elif op == "update_col" and model:
            rid = sorted(model)[x % len(model)]
            store.update_column(rid, "a", y)
            model[rid][0] = y
        elif op == "add_col" and len(extra_columns) < 3:
            name = f"x{len(extra_columns)}"
            store.add_column(Column(name, DBType.INTEGER, default=0))
            extra_columns.append(name)
            for row in model.values():
                row.append(0)
        elif op == "drop_col" and extra_columns:
            name = extra_columns.pop()
            index = store.schema.column_index(name)
            store.drop_column(name)
            for row in model.values():
                del row[index]
    assert store.n_rows == len(model)
    for rid, row in model.items():
        assert store.get(rid) == tuple(row)
    store.validate()


# ---------------------------------------------------------------------------
# GroupedTupleStore under advisor-triggered online migrations
# ---------------------------------------------------------------------------

migration_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert",
                "delete",
                "update",
                "update_col",
                "scan_col",
                "add_col",
                "drop_col",
                "advise",
                "step",
            ]
        ),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    ),
    max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(operations=migration_ops, layout=st.sampled_from(list(LayoutPolicy)))
def test_store_with_online_migrations_matches_dict_model(operations, layout):
    """Random DML/DDL interleaved with advisor-triggered online layout
    migrations: scan() stays identical to a naive dict model and the
    store validates after every individual migration step."""
    from repro.engine.layout import LayoutAdvisor, LayoutMigration

    schema = TableSchema.from_pairs(
        [("a", DBType.INTEGER), ("b", DBType.INTEGER), ("c", DBType.INTEGER)],
        group_size=2,
    )
    store = GroupedTupleStore(schema, layout=layout, page_capacity=4)
    advisor = LayoutAdvisor(threshold=0.0, min_ops=0)
    migration = None
    model = {}  # rid -> row list
    extra_columns = []
    for op, x, y in operations:
        width = 3 + len(extra_columns)
        columns = store.schema.column_names
        if op == "insert":
            row = tuple(range(x, x + width))
            rid = store.insert(row)
            model[rid] = list(row)
        elif op == "delete" and model:
            rid = sorted(model)[x % len(model)]
            store.delete(rid)
            del model[rid]
        elif op == "update" and model:
            rid = sorted(model)[x % len(model)]
            row = tuple(range(y, y + width))
            store.update(rid, row)
            model[rid] = list(row)
        elif op == "update_col" and model:
            rid = sorted(model)[x % len(model)]
            name = columns[y % len(columns)]
            store.update_column(rid, name, y)
            model[rid][store.schema.column_index(name)] = y
        elif op == "scan_col":
            name = columns[x % len(columns)]
            got = dict(store.scan_groups([name]))
            index = store.schema.column_index(name)
            assert got == {rid: (row[index],) for rid, row in model.items()}
        elif op == "add_col" and len(extra_columns) < 3:
            name = f"x{len(extra_columns)}"
            store.add_column(Column(name, DBType.INTEGER, default=0))
            extra_columns.append(name)
            for row in model.values():
                row.append(0)
        elif op == "drop_col" and extra_columns:
            name = extra_columns.pop()
            index = store.schema.column_index(name)
            store.drop_column(name)
            for row in model.values():
                del row[index]
        elif op == "advise" and migration is None:
            recommendation = advisor.advise(store)
            if recommendation is not None:
                migration = LayoutMigration(store, recommendation.target_groups)
        elif op == "step" and migration is not None:
            done = migration.step()
            store.validate()
            if done:
                migration = None
    # Drain any in-flight migration, validating after every step.
    while migration is not None:
        done = migration.step()
        store.validate()
        if done:
            migration = None
    store.validate()
    assert store.n_rows == len(model)
    assert dict(store.scan()) == {rid: tuple(row) for rid, row in model.items()}


# ---------------------------------------------------------------------------
# CellStore vs dict model, including structural shifts
# ---------------------------------------------------------------------------

cell_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "delete", "insert_rows", "delete_rows",
                         "insert_cols", "delete_cols"]),
        st.integers(0, 60),
        st.integers(0, 20),
    ),
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(operations=cell_ops, tiles=st.sampled_from([(8, 4), (1, 1)]))
def test_cellstore_matches_dict_model(operations, tiles):
    store = CellStore(*tiles)
    model = {}
    token = 0
    for op, a, b in operations:
        if op == "set":
            token += 1
            store.set(a, b, token)
            model[(a, b)] = token
        elif op == "delete":
            assert store.delete(a, b) == ((a, b) in model)
            model.pop((a, b), None)
        elif op == "insert_rows":
            count = (b % 3) + 1
            store.insert_rows(a, count)
            model = {
                ((r + count) if r >= a else r, c): v for (r, c), v in model.items()
            }
        elif op == "delete_rows":
            count = (b % 3) + 1
            store.delete_rows(a, count)
            new_model = {}
            for (r, c), v in model.items():
                if r < a:
                    new_model[(r, c)] = v
                elif r >= a + count:
                    new_model[(r - count, c)] = v
            model = new_model
        elif op == "insert_cols":
            count = (b % 2) + 1
            store.insert_cols(a, count)
            model = {
                (r, (c + count) if c >= a else c): v for (r, c), v in model.items()
            }
        elif op == "delete_cols":
            count = (b % 2) + 1
            store.delete_cols(a, count)
            new_model = {}
            for (r, c), v in model.items():
                if c < a:
                    new_model[(r, c)] = v
                elif c >= a + count:
                    new_model[(r, c - count)] = v
            model = new_model
    assert len(store) == len(model)
    assert {(r, c): v for r, c, v in store.items()} == model
    # Range query agreement on the bounding box.
    if model:
        rows = [r for r, _ in model]
        cols = [c for _, c in model]
        got = {
            (r, c): v
            for r, c, v in store.get_range(min(rows), min(cols), max(rows), max(cols))
        }
        assert got == model


# ---------------------------------------------------------------------------
# Formula shift: shifting down then up is identity (when legal)
# ---------------------------------------------------------------------------

from repro.formula.dependency import shift_formula  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 20), st.integers(0, 20),
    st.integers(0, 5), st.integers(0, 5),
    st.booleans(), st.booleans(),
)
def test_shift_roundtrip(row, col, d_row, d_col, row_abs, col_abs):
    from repro.core.address import CellAddress

    address = CellAddress(row, col, row_absolute=row_abs, col_absolute=col_abs)
    source = f"{address.to_a1()}+1"
    shifted = shift_formula(source, d_row, d_col)
    back = shift_formula(shifted, -d_row, -d_col)
    assert back == source


# ---------------------------------------------------------------------------
# Formula render: to_text puts back exactly the grouping the tree needs
# ---------------------------------------------------------------------------

from repro.core.address import CellAddress, RangeAddress  # noqa: E402
from repro.formula import nodes as fn  # noqa: E402
from repro.formula.parser import parse_formula  # noqa: E402

_cells = st.builds(
    lambda row, col, row_abs, col_abs: CellAddress(
        row, col, row_absolute=row_abs, col_absolute=col_abs
    ),
    st.integers(0, 30), st.integers(0, 30), st.booleans(), st.booleans(),
)
_leaves = st.one_of(
    st.integers(0, 99).map(fn.Number),
    st.sampled_from([0.5, 2.25]).map(fn.Number),
    st.sampled_from(["", "x", 'a"b']).map(fn.Text),
    st.booleans().map(fn.Boolean),
    _cells.map(fn.CellRef),
    # (a 1x1 range renders as its cell, which parses as a cell reference)
    st.builds(RangeAddress, _cells, _cells).filter(lambda r: r.size > 1).map(fn.RangeRef),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(
            fn.Binary,
            st.sampled_from(["=", "<>", "<", "<=", ">", ">=", "&", "+", "-", "*", "/", "^"]),
            children, children,
        ),
        st.builds(fn.Unary, st.sampled_from(["-", "+"]), children),
        st.builds(
            fn.Call, st.sampled_from(["SUM", "IF"]),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(_trees)
def test_to_text_roundtrip(tree):
    assert parse_formula(tree.to_text()) == tree


# ---------------------------------------------------------------------------
# Address parse/print roundtrip
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 100_000), st.integers(0, 2000),
    st.booleans(), st.booleans(),
)
def test_address_roundtrip(row, col, row_abs, col_abs):
    from repro.core.address import CellAddress

    address = CellAddress(row, col, row_absolute=row_abs, col_absolute=col_abs)
    assert CellAddress.parse(address.to_a1()) == address
