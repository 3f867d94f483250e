"""Unit + property tests for the order-statistic tree (positional index
substrate)."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataSpreadError
from repro.index.order_statistic import OrderStatisticTree


def position(tree, value):
    found = tree.rank_of(value)
    return None if found is None else found[0]


class TestBasics:
    def test_empty(self):
        tree = OrderStatisticTree()
        assert len(tree) == 0
        assert tree.to_list() == []

    def test_bulk_load_preserves_order(self):
        values = list(range(100))
        tree = OrderStatisticTree(values)
        assert tree.to_list() == values
        tree.validate()

    def test_get(self):
        tree = OrderStatisticTree(["a", "b", "c"])
        assert tree.get(0) == "a"
        assert tree.get(2) == "c"
        assert tree.get(-1) == "c"

    def test_get_out_of_range(self):
        tree = OrderStatisticTree([1])
        with pytest.raises(IndexError):
            tree.get(1)
        with pytest.raises(IndexError):
            tree.get(-2)

    def test_set(self):
        tree = OrderStatisticTree([1, 2, 3])
        tree.set(1, 99)
        tree.set(2, 3)  # its own value: fine
        assert tree.to_list() == [1, 99, 3]
        assert [position(tree, v) for v in (1, 99, 3, 2)] == [0, 1, 2, None]
        tree.validate()

    def test_rank_of(self):
        tree = OrderStatisticTree(["a", "b", "c"])
        tree.insert(1, "x")
        assert [position(tree, v) for v in "axbc"] == [0, 1, 2, 3]
        tree.delete(0)
        assert tree.rank_of("a") is None
        assert position(tree, "x") == 0
        at, links = tree.rank_of("c")
        assert at == 2 and 0 <= links <= 2  # three nodes: depth ≤ 2

    def test_iteration_is_lazy(self):
        """``__iter__``/``iter_slice`` are generators over the in-order
        walk: the first value costs a descent, not a full traversal."""
        tree = OrderStatisticTree(list(range(1000)))
        walk = iter(tree)
        assert isinstance(walk, types.GeneratorType)
        assert next(walk) == 0
        window = tree.iter_slice(500, 3)
        assert isinstance(window, types.GeneratorType)
        assert list(window) == [500, 501, 502]

    def test_insert_middle(self):
        tree = OrderStatisticTree([1, 2, 4])
        tree.insert(2, 3)
        assert tree.to_list() == [1, 2, 3, 4]

    def test_insert_ends(self):
        tree = OrderStatisticTree([2])
        tree.insert(0, 1)
        tree.append(3)
        assert tree.to_list() == [1, 2, 3]

    def test_insert_bad_position(self):
        tree = OrderStatisticTree([1])
        with pytest.raises(IndexError):
            tree.insert(5, 9)

    def test_delete(self):
        tree = OrderStatisticTree([1, 2, 3])
        assert tree.delete(1) == 2
        assert tree.to_list() == [1, 3]

    def test_delete_all(self):
        tree = OrderStatisticTree([1, 2, 3])
        for _ in range(3):
            tree.delete(0)
        assert len(tree) == 0


class TestSlices:
    def test_iter_slice(self):
        tree = OrderStatisticTree(list(range(50)))
        assert list(tree.iter_slice(10, 5)) == [10, 11, 12, 13, 14]

    def test_iter_slice_clamps(self):
        tree = OrderStatisticTree([0, 1, 2])
        assert list(tree.iter_slice(2, 10)) == [2]
        assert list(tree.iter_slice(5, 3)) == []
        assert list(tree.iter_slice(0, 0)) == []

    def test_insert_slice(self):
        tree = OrderStatisticTree([1, 5])
        tree.insert_slice(1, [2, 3, 4])
        assert tree.to_list() == [1, 2, 3, 4, 5]
        tree.validate()

    def test_insert_slice_empty(self):
        tree = OrderStatisticTree([1])
        tree.insert_slice(0, [])
        assert tree.to_list() == [1]

    def test_delete_slice(self):
        tree = OrderStatisticTree(list(range(10)))
        removed = tree.delete_slice(3, 4)
        assert removed == [3, 4, 5, 6]
        assert tree.to_list() == [0, 1, 2, 7, 8, 9]
        tree.validate()

    def test_delete_slice_bounds(self):
        tree = OrderStatisticTree([1, 2])
        with pytest.raises(IndexError):
            tree.delete_slice(1, 5)
        with pytest.raises(IndexError):
            tree.delete_slice(0, -1)


class TestScale:
    def test_large_sequential(self):
        tree = OrderStatisticTree()
        for i in range(5000):
            tree.append(i)
        assert len(tree) == 5000
        assert tree.get(2500) == 2500
        tree.validate()

    def test_many_middle_inserts(self):
        tree = OrderStatisticTree()
        reference = []
        for i in range(2000):
            position = (i * 37) % (len(reference) + 1)
            tree.insert(position, i)
            reference.insert(position, i)
        assert tree.to_list() == reference
        tree.validate()


class TestDistinctValues:
    """The value → node map needs distinct values: a value that is already
    live is refused before anything is touched."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda tree: tree.insert(1, 2),
            lambda tree: tree.append(1),
            lambda tree: tree.insert_slice(0, [7, 3]),
            lambda tree: tree.insert_slice(0, [7, 7]),
            lambda tree: tree.set(0, 3),
        ],
    )
    def test_live_value_is_refused(self, mutate):
        tree = OrderStatisticTree([1, 2, 3])
        with pytest.raises(DataSpreadError):
            mutate(tree)
        tree.validate()
        assert tree.to_list() == [1, 2, 3]
        assert [position(tree, v) for v in (1, 2, 3, 7)] == [0, 1, 2, None]

    def test_out_of_range_insert_registers_nothing(self):
        tree = OrderStatisticTree([1])
        with pytest.raises(IndexError):
            tree.insert(5, 9)
        tree.validate()
        assert tree.rank_of(9) is None

    def test_a_deleted_value_may_come_back(self):
        tree = OrderStatisticTree([1, 2, 3])
        tree.delete(0)
        tree.append(1)
        assert tree.to_list() == [2, 3, 1]
        assert position(tree, 1) == 2
        tree.validate()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "get", "set", "slice"]),
                  st.integers(0, 10_000), st.integers(0, 10_000)),
        max_size=60,
    )
)
def test_matches_python_list_model(operations):
    """Property: the tree behaves exactly like a Python list of distinct
    values under random positional operations (every inserted or set value
    is fresh: the step number)."""
    tree = OrderStatisticTree()
    model = []
    for step, (op, a, b) in enumerate(operations):
        if op == "insert":
            at = a % (len(model) + 1)
            tree.insert(at, step)
            model.insert(at, step)
        elif op == "delete" and model:
            at = a % len(model)
            assert tree.delete(at) == model.pop(at)
        elif op == "get" and model:
            at = a % len(model)
            assert tree.get(at) == model[at]
        elif op == "set" and model:
            at = a % len(model)
            tree.set(at, step)
            model[at] = step
        elif op == "slice" and model:
            at = a % len(model)
            count = b % (len(model) - at + 1)
            assert list(tree.iter_slice(at, count)) == model[at : at + count]
    assert tree.to_list() == model
    assert [position(tree, value) for value in model] == list(range(len(model)))
    tree.validate()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0), max_size=200, unique=True),
    st.integers(0, 200),
    st.integers(0, 50),
)
def test_slice_ops_match_list_model(initial, position, count):
    tree = OrderStatisticTree(initial)
    model = list(initial)
    position = position % (len(model) + 1)
    tree.insert_slice(position, [-1, -2])
    model[position:position] = [-1, -2]
    start = min(position, len(model) - 1) if model else 0
    count = min(count, len(model) - start)
    assert tree.delete_slice(start, count) == model[start : start + count]
    del model[start : start + count]
    assert tree.to_list() == model
    tree.validate()
