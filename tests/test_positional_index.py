"""KeySequence: the positional index — a table's rids in presentation
order, held as runs of consecutive keys."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import DataSpreadError
from repro.index.posmap import KeySequence


def loaded(n: int, first: int = 0) -> KeySequence:
    sequence = KeySequence()
    sequence.insert(0, first, n)
    return sequence


class TestBasics:
    def test_window_and_positions(self):
        sequence = loaded(10, first=100)
        assert sequence.window(3, 4) == [103, 104, 105, 106]
        sequence.insert(0, 999)
        assert sequence.key_at(0) == 999
        assert sequence.position_of(999) == 0
        assert sequence.position_of(123456) is None
        with pytest.raises(IndexError):
            sequence.key_at(11)

    def test_a_key_already_in_the_sequence_is_refused(self):
        sequence = loaded(10)
        with pytest.raises(DataSpreadError):
            sequence.insert(3, 9)
        with pytest.raises(DataSpreadError):
            sequence.insert(0, 8, 5)  # overlaps the tail of the run
        assert list(sequence) == list(range(10))

    def test_appends_and_bulk_loads_are_one_span(self):
        appended = KeySequence()
        for rid in range(20_000):
            appended.insert(len(appended), rid)
        assert appended.n_spans == loaded(20_000).n_spans == 1
        appended.validate()

    def test_undoing_a_delete_fuses_the_span_back(self):
        sequence = loaded(100)
        assert sequence.delete(40) == [(40, 40)]
        assert sequence.n_spans == 2
        sequence.insert(40, 40)
        assert sequence.n_spans == 1
        assert sequence.delete(10, 80) == [(10, 89)]
        assert list(sequence) == list(range(10)) + list(range(90, 100))

    def test_empty(self):
        sequence = KeySequence()
        assert len(sequence) == 0 and sequence.n_spans == 0
        assert list(sequence) == [] and sequence.window(0, 5) == []
        assert sequence.position_of(0) is None
        sequence.validate()

    def test_bulk_load_preserves_order(self):
        sequence = loaded(100)
        assert list(sequence) == list(range(100))
        assert sequence.n_spans == 1
        sequence.validate()

    def test_key_at(self):
        sequence = KeySequence()
        for key in (970, 980, 990):
            sequence.insert(len(sequence), key)
        assert [sequence.key_at(i) for i in range(3)] == [970, 980, 990]
        assert sequence.n_spans == 3

    def test_key_at_out_of_range(self):
        sequence = loaded(1)
        with pytest.raises(IndexError):
            sequence.key_at(1)
        with pytest.raises(IndexError):
            sequence.key_at(-1)

    def test_position_of(self):
        sequence = KeySequence()
        for key in (10, 20, 30):
            sequence.insert(len(sequence), key)
        sequence.insert(1, 15)
        assert [sequence.position_of(k) for k in (10, 15, 20, 30)] == [0, 1, 2, 3]
        sequence.delete(0)
        assert sequence.position_of(10) is None
        assert sequence.position_of(25) is None  # never there: between two spans
        assert sequence.position_of(15) == 0
        before = sequence.counts.rank_steps
        assert sequence.position_of(30) == 2
        assert 0 <= sequence.counts.rank_steps - before <= 2  # three spans: depth ≤ 2

    def test_iteration_is_lazy(self):
        """Iteration and ``keys`` yield one ``range`` per span: a sequence
        of 2^40 keys is read from its start without materialising it."""
        sequence = loaded(1 << 40)
        assert next(iter(sequence)) == 0
        assert list(itertools.islice(sequence.keys(500, 1 << 39), 3)) == [500, 501, 502]

    def test_insert_middle(self):
        sequence = KeySequence()
        sequence.insert(0, 1, 2)
        sequence.insert(2, 4)
        assert sequence.n_spans == 2
        sequence.insert(2, 3)  # runs on from 2 and into 4: one span again
        assert list(sequence) == [1, 2, 3, 4]
        assert sequence.n_spans == 1
        sequence.validate()

    def test_insert_ends(self):
        sequence = KeySequence()
        sequence.insert(0, 2)
        sequence.insert(0, 1)
        sequence.insert(len(sequence), 3)
        assert list(sequence) == [1, 2, 3]
        assert sequence.n_spans == 1

    def test_insert_past_the_end_appends(self):
        sequence = loaded(1, first=1)
        sequence.insert(5, 9)
        assert list(sequence) == [1, 9]
        assert sequence.position_of(9) == 1
        sequence.validate()

    def test_delete(self):
        sequence = loaded(3, first=1)
        assert sequence.delete(1) == [(2, 2)]
        assert list(sequence) == [1, 3]
        assert sequence.n_spans == 2
        sequence.validate()

    def test_delete_all(self):
        sequence = loaded(3, first=1)
        for _ in range(3):
            sequence.delete(0)
        assert len(sequence) == 0 and sequence.n_spans == 0
        sequence.validate()


def three_runs() -> KeySequence:
    """Keys 0..4, then 10..14, then 5..9: three spans (5 runs on from 4 by
    key, but not by position)."""
    sequence = loaded(5)
    sequence.insert(5, 10, 5)
    sequence.insert(10, 5, 5)
    return sequence


class TestRanges:
    def test_window(self):
        assert loaded(50).window(10, 5) == [10, 11, 12, 13, 14]

    def test_window_clamps(self):
        sequence = loaded(3)
        assert sequence.window(2, 10) == [2]
        assert sequence.window(5, 3) == []
        assert sequence.window(0, 0) == []

    def test_window_across_spans(self):
        sequence = three_runs()
        assert sequence.n_spans == 3
        assert sequence.window(3, 9) == [3, 4, 10, 11, 12, 13, 14, 5, 6]
        assert sequence.intervals(3, 11) == [(3, 4, 3), (10, 14, 5), (5, 6, 10)]

    def test_insert_run(self):
        sequence = loaded(1, first=1)
        sequence.insert(1, 5)
        sequence.insert(1, 2, 3)
        assert list(sequence) == [1, 2, 3, 4, 5]
        assert sequence.n_spans == 1
        sequence.validate()

    def test_delete_range(self):
        sequence = loaded(10)
        assert sequence.delete(3, 4) == [(3, 6)]
        assert list(sequence) == [0, 1, 2, 7, 8, 9]
        sequence.validate()

    def test_delete_range_clamps_to_the_sequence(self):
        sequence = loaded(2, first=1)
        assert sequence.delete(5, 3) == []
        assert sequence.delete(0, -1) == []
        assert sequence.delete(1, 5) == [(2, 2)]
        assert list(sequence) == [1]
        sequence.validate()

    def test_delete_across_spans_frees_each_interval(self):
        sequence = three_runs()
        assert sequence.delete(3, 9) == [(3, 4), (10, 14), (5, 6)]
        assert list(sequence) == [0, 1, 2, 7, 8, 9]
        assert sequence.n_spans == 2
        sequence.validate()


class TestScale:
    def test_large_sequential_without_runs(self):
        """Every other key: no two keys run on, so one span each."""
        sequence = KeySequence()
        for i in range(5000):
            sequence.insert(len(sequence), 2 * i)
        assert len(sequence) == sequence.n_spans == 5000
        assert sequence.key_at(2500) == 5000
        assert sequence.position_of(5000) == 2500
        assert sequence.position_of(5001) is None
        sequence.validate()

    def test_many_middle_inserts(self):
        sequence = KeySequence()
        reference = []
        for i in range(2000):
            position = (i * 37) % (len(reference) + 1)
            sequence.insert(position, i)
            reference.insert(position, i)
        assert list(sequence) == reference
        sequence.validate()


class TestDistinctKeys:
    """Keys are distinct: a key that is already in the sequence is refused
    before anything is touched."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda sequence: sequence.insert(1, 2),
            lambda sequence: sequence.insert(3, 1),
            lambda sequence: sequence.insert(0, 0, 2),
            lambda sequence: sequence.insert(0, 3, 5),
            lambda sequence: sequence.insert(2, -5, 10),
        ],
    )
    def test_live_key_is_refused(self, mutate):
        sequence = loaded(3, first=1)
        with pytest.raises(DataSpreadError):
            mutate(sequence)
        sequence.validate()
        assert list(sequence) == [1, 2, 3]
        assert [sequence.position_of(k) for k in (1, 2, 3, 7)] == [0, 1, 2, None]

    def test_key_in_a_gap_between_spans_is_accepted(self):
        sequence = loaded(5)
        sequence.insert(5, 10, 5)
        with pytest.raises(DataSpreadError):
            sequence.insert(0, 12)
        sequence.insert(0, 7)
        assert list(sequence) == [7, 0, 1, 2, 3, 4, 10, 11, 12, 13, 14]
        sequence.validate()

    def test_a_deleted_key_may_come_back(self):
        sequence = loaded(3, first=1)
        sequence.delete(0)
        sequence.insert(len(sequence), 1)
        assert list(sequence) == [2, 3, 1]
        assert sequence.position_of(1) == 2
        sequence.validate()


class KeySequenceMachine(RuleBasedStateMachine):
    """Every mutator against a Python list: after each step the forward
    reads agree with the list, ``position_of`` is ``model.index`` for every
    live key and ``None`` for every key that was removed, the spans are
    exactly the list's runs of consecutive keys, and the treap's own
    invariants hold."""

    def __init__(self):
        super().__init__()
        self.sequence = KeySequence()
        self.model = []
        self.dead = set()
        self.next_key = 0

    def fresh(self, count):
        keys = list(range(self.next_key, self.next_key + count))
        self.next_key += count
        return keys

    @rule(pos=st.integers(0, 10_000), count=st.integers(1, 9))
    def insert(self, pos, count):
        pos %= len(self.model) + 1
        keys = self.fresh(count)
        self.sequence.insert(pos, keys[0], count)
        self.model[pos:pos] = keys

    @rule(count=st.integers(1, 3))
    def append(self, count):
        keys = self.fresh(count)
        self.sequence.insert(len(self.model), keys[0], count)
        self.model.extend(keys)

    @precondition(lambda self: self.dead)
    @rule(pos=st.integers(0, 10_000), pick=st.integers(0, 10_000))
    def reinsert(self, pos, pick):
        """A removed key comes back, as the undo of a delete brings a rid."""
        pos %= len(self.model) + 1
        key = sorted(self.dead)[pick % len(self.dead)]
        self.dead.remove(key)
        self.sequence.insert(pos, key)
        self.model.insert(pos, key)

    @precondition(lambda self: self.model)
    @rule(pos=st.integers(0, 10_000), count=st.integers(0, 9))
    def delete(self, pos, count):
        pos %= len(self.model)
        removed = self.model[pos : pos + count]
        freed = self.sequence.delete(pos, count)
        assert [key for lo, hi in freed for key in range(lo, hi + 1)] == removed
        del self.model[pos : pos + count]
        self.dead.update(removed)

    @rule(pos=st.integers(0, 10_000), count=st.integers(0, 12))
    def window(self, pos, count):
        pos %= len(self.model) + 1
        assert self.sequence.window(pos, count) == self.model[pos : pos + count]

    @invariant()
    def agrees_with_the_list(self):
        self.sequence.validate()
        assert list(self.sequence) == self.model
        assert len(self.sequence) == len(self.model)
        runs = sum(1 for i, key in enumerate(self.model) if i == 0 or self.model[i - 1] + 1 != key)
        assert self.sequence.n_spans == runs
        for position, key in enumerate(self.model):
            assert self.sequence.key_at(position) == key
            assert self.sequence.position_of(key) == position
        for key in self.dead:
            assert self.sequence.position_of(key) is None

    @rule()
    def snapshot(self):
        """What a scan ranks rids against: a copy built from the spans."""
        copy = KeySequence.from_intervals(self.sequence.intervals(0, len(self.model)))
        copy.validate()
        assert list(copy) == self.model
        assert [copy.position_of(key) for key in self.model] == list(range(len(self.model)))


KeySequenceMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestKeySequenceMachine = KeySequenceMachine.TestCase


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "get", "rank", "slice"]),
                  st.integers(0, 10_000), st.integers(0, 10_000)),
        max_size=60,
    )
)
def test_matches_python_list_model(operations):
    """Property: the sequence behaves exactly like a Python list of
    distinct keys under random positional operations (every inserted key
    is fresh: twice the step number, so no two run on)."""
    sequence = KeySequence()
    model = []
    for step, (op, a, b) in enumerate(operations):
        if op == "insert":
            at = a % (len(model) + 1)
            sequence.insert(at, 2 * step)
            model.insert(at, 2 * step)
        elif op == "delete" and model:
            at = a % len(model)
            key = model.pop(at)
            assert sequence.delete(at) == [(key, key)]
        elif op == "get" and model:
            at = a % len(model)
            assert sequence.key_at(at) == model[at]
        elif op == "rank":
            assert sequence.position_of(b) == (model.index(b) if b in model else None)
        elif op == "slice" and model:
            at = a % len(model)
            count = b % (len(model) - at + 1)
            assert sequence.window(at, count) == model[at : at + count]
    assert list(sequence) == model
    assert [sequence.position_of(key) for key in model] == list(range(len(model)))
    sequence.validate()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10**9), max_size=200, unique=True),
    st.integers(0, 200),
    st.integers(0, 50),
)
def test_run_ops_match_list_model(initial, position, count):
    """Inserting a run and deleting a range, with keys that may or may
    not run on: the freed intervals spell out exactly the removed keys."""
    sequence = KeySequence()
    for key in initial:
        sequence.insert(len(sequence), key)
    model = list(initial)
    position = position % (len(model) + 1)
    sequence.insert(position, -3, 2)
    model[position:position] = [-3, -2]
    start = min(position, len(model) - 1)
    count = min(count, len(model) - start)
    freed = sequence.delete(start, count)
    assert [key for lo, hi in freed for key in range(lo, hi + 1)] == model[start : start + count]
    del model[start : start + count]
    assert list(sequence) == model
    sequence.validate()


@pytest.mark.parametrize("n", [1_000, 64_000])
def test_position_of_climbs_at_most_the_depth_of_the_tree(n):
    """The work bound: a lookup follows ≤ 4·log2(n) parent links — on a
    bulk-loaded sequence (none: one span) and on one grown by appends and
    middle inserts (which carve it into about n spans)."""
    bound = 4 * math.log2(n)
    grown = KeySequence()
    for key in range(n // 2):
        grown.insert(len(grown), key)
    for key in range(n // 2, n):
        grown.insert((key * 7919) % len(grown), key)
    assert grown.n_spans > n // 2
    for sequence in (loaded(n), grown):
        assert len(sequence) == n
        for key in range(0, n, max(1, n // 500)):
            before = sequence.counts.rank_steps
            assert sequence.key_at(sequence.position_of(key)) == key
            assert sequence.counts.rank_steps - before <= bound
    assert loaded(n).n_spans == 1
