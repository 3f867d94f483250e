"""Unit tests for the page/buffer substrate (repro.engine.pager)."""

import pytest

from repro.engine.pager import BufferPool, DiskManager, IOStats, Page
from repro.errors import StorageError


class TestDiskManager:
    def test_allocate_read_write(self):
        disk = DiskManager()
        page_id = disk.allocate()
        page = disk.read(page_id)
        page.records.append((1, ("x",)))
        disk.write(page)
        again = disk.read(page_id)
        assert again.records == [(1, ("x",))]

    def test_snapshots_are_isolated(self):
        disk = DiskManager()
        page_id = disk.allocate()
        page = disk.read(page_id)
        page.records.append((1, ("x",)))
        # Not written back: disk must still be empty.
        assert disk.read(page_id).records == []

    def test_stats_count(self):
        disk = DiskManager()
        page_id = disk.allocate()
        disk.read(page_id)
        disk.write(disk.read(page_id))
        assert disk.stats.allocations == 1
        assert disk.stats.reads == 2
        assert disk.stats.writes == 1

    def test_free(self):
        disk = DiskManager()
        page_id = disk.allocate()
        disk.free(page_id)
        assert disk.n_pages == 0
        with pytest.raises(StorageError):
            disk.read(page_id)

    def test_bad_page_operations(self):
        disk = DiskManager()
        with pytest.raises(StorageError):
            disk.read(99)
        with pytest.raises(StorageError):
            disk.write(Page(99))
        with pytest.raises(StorageError):
            disk.free(99)


class TestIOStats:
    def test_snapshot_delta(self):
        stats = IOStats(reads=10, writes=5)
        before = stats.snapshot()
        stats.reads += 3
        stats.writes += 1
        delta = stats.delta(before)
        assert delta.reads == 3
        assert delta.writes == 1
        assert delta.total == 4

    def test_reset(self):
        stats = IOStats(reads=1, writes=2, allocations=3, frees=4)
        stats.reset()
        assert stats.total == 0 and stats.allocations == 0 and stats.frees == 0


class TestBufferPool:
    def test_new_page_is_dirty_and_buffered(self):
        pool = BufferPool()
        page = pool.new_page()
        assert page.dirty
        assert pool.get(page.page_id) is page
        assert pool.hits == 1

    def test_flush_all_writes_only_dirty(self):
        pool = BufferPool()
        first = pool.new_page()
        second = pool.new_page()
        first.records.append((0, ()))
        written = pool.flush_all()
        assert written == 2
        assert pool.flush_all() == 0  # now clean

    def test_lru_eviction_writes_back(self):
        pool = BufferPool(capacity=2)
        first = pool.new_page()
        first.records.append((0, ("v",)))
        pool.new_page()
        pool.new_page()  # evicts `first`, which is dirty -> written back
        assert pool.disk.stats.writes >= 1
        reread = pool.get(first.page_id)
        assert reread.records == [(0, ("v",))]

    def test_miss_counts(self):
        pool = BufferPool(capacity=1)
        a = pool.new_page()
        b = pool.new_page()  # evicts a
        pool.get(a.page_id)  # miss
        assert pool.misses == 1

    def test_drop_cache_forces_cold_reads(self):
        pool = BufferPool()
        page = pool.new_page()
        pool.drop_cache()
        before = pool.disk.stats.reads
        pool.get(page.page_id)
        assert pool.disk.stats.reads == before + 1

    def test_free_page(self):
        pool = BufferPool()
        page = pool.new_page()
        pool.free_page(page.page_id)
        with pytest.raises(StorageError):
            pool.get(page.page_id)

    def test_invalid_page_capacity(self):
        with pytest.raises(StorageError):
            BufferPool(page_capacity=0)

    def test_hit_ratio(self):
        pool = BufferPool()
        page = pool.new_page()
        pool.get(page.page_id)
        pool.get(page.page_id)
        assert pool.hit_ratio == 1.0

    def test_rejects_non_positive_capacity(self):
        # capacity <= 0 made _admit evict the page it had just admitted;
        # writes through the still-held reference were then lost.
        for capacity in (0, -1):
            with pytest.raises(StorageError):
                BufferPool(capacity=capacity)
        BufferPool(capacity=1)  # the smallest legal pool is fine

    def test_held_reference_write_back(self):
        # The store's access pattern: get a page, mutate it through the
        # held reference, mark dirty — the mutation must survive eviction
        # and be visible on disk and to later reads.
        pool = BufferPool(capacity=1)
        page = pool.new_page()
        page.records.append((0, ("held",)))
        page.mark_dirty()
        pool.new_page()  # evicts the held page, writing it back
        assert pool.disk.read(page.page_id).records == [(0, ("held",))]
        assert pool.get(page.page_id).records == [(0, ("held",))]
        # And flush_all on a clean pool has nothing left to lose.
        pool.flush_all()
        assert pool.get(page.page_id).records == [(0, ("held",))]


class TestTagStats:
    def test_per_tag_accounting(self):
        pool = BufferPool(capacity=1)
        tagged = pool.new_page(tag=("t", 0))
        other = pool.new_page(tag=("t", 1))  # evicts `tagged` (dirty)
        pool.get(tagged.page_id)  # miss -> read charged to ("t", 0)
        stats = pool.tag_stats(("t", 0))
        assert stats.allocations == 1
        assert stats.writes == 1
        assert stats.reads == 1
        assert pool.tag_stats(("t", 1)).allocations == 1
        assert pool.tag_stats(("missing", 9)).total == 0

    def test_tag_stats_survive_free(self):
        pool = BufferPool()
        page = pool.new_page(tag="gone")
        pool.free_page(page.page_id)
        assert pool.tag_stats("gone").allocations == 1
        assert pool.tag_stats("gone").frees == 1
