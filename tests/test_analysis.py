"""Static analyzer (repro.analysis) and runtime sanitizer tests.

Each checker gets a fire/quiet fixture pair: a minimal snippet that
trips the rule and a corrected twin that stays clean.  A self-check
asserts the real tree is clean modulo the committed baseline, so the
suite fails the moment someone introduces a new violation without
either fixing or baselining it.
"""

import ast as python_ast
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import (
    NULL_SANITIZER,
    Sanitizer,
    analyze_paths,
    load_baseline,
    partition,
    registered_checkers,
    write_baseline,
)
from repro.analysis.__main__ import main as analysis_main
from repro.engine.database import Database
from repro.engine.schema import TableSchema
from repro.engine.store import GroupedTupleStore, LayoutPolicy
from repro.engine.types import DBType
from repro.errors import DataSpreadError, SanitizerError
from repro.server.service import WorkbookService

REPO_ROOT = Path(__file__).resolve().parents[1]


def check(tmp_path, source, code, filename="fixture.py"):
    """Run one checker over one snippet; returns the diagnostics."""
    path = tmp_path / filename
    path.write_text(textwrap.dedent(source))
    return analyze_paths([str(path)], codes={code}, root=str(tmp_path))


# -- checker fixtures ---------------------------------------------------------


class TestRC001ReplayDeterminism:
    def test_wall_clock_in_recovery_fires(self, tmp_path):
        diags = check(
            tmp_path,
            """
            import time

            def recover_state(records):
                return time.time()
            """,
            "RC001",
        )
        assert [d.code for d in diags] == ["RC001"]
        assert "time.time" in diags[0].message

    def test_pure_recovery_is_quiet(self, tmp_path):
        assert not check(
            tmp_path,
            """
            def recover_state(records):
                return len(records)
            """,
            "RC001",
        )

    def test_set_iteration_fires(self, tmp_path):
        diags = check(
            tmp_path,
            """
            def apply_op(op):
                for kind in {"set_cell", "clear_cell"}:
                    handle(kind)
            """,
            "RC001",
        )
        assert diags and "set" in diags[0].message.lower()

    def test_list_iteration_is_quiet(self, tmp_path):
        assert not check(
            tmp_path,
            """
            def apply_op(op):
                for kind in ["set_cell", "clear_cell"]:
                    handle(kind)
            """,
            "RC001",
        )

    def test_unseeded_random_fires_seeded_is_quiet(self, tmp_path):
        fire = check(
            tmp_path,
            """
            import random

            def recover_state(records):
                return random.random()
            """,
            "RC001",
        )
        assert fire
        quiet = check(
            tmp_path,
            """
            import random

            def recover_state(records, seed):
                return random.Random(seed).random()
            """,
            "RC001",
            filename="seeded.py",
        )
        assert not quiet

    TABLE_DISPATCH = """
        import time
        from typing import NamedTuple

        class OpEntry(NamedTuple):
            validate: object
            apply: object

        def _apply_stamp(workbook, op):
            workbook.stamp = {stamp}

        OPS = {{"stamp": OpEntry(None, _apply_stamp)}}

        def apply_op(workbook, op):
            return OPS[op["type"]].apply(workbook, op)
        """

    def test_handler_behind_a_dispatch_table_fires(self, tmp_path):
        # apply_op names no handler: the walk must follow the table's
        # function references, or every apply arm leaves RC001's sight.
        diags = check(
            tmp_path, self.TABLE_DISPATCH.format(stamp="time.time()"), "RC001"
        )
        assert [d.symbol for d in diags] == ["_apply_stamp:time.time"]

    def test_pure_handler_behind_a_dispatch_table_is_quiet(self, tmp_path):
        assert not check(
            tmp_path, self.TABLE_DISPATCH.format(stamp='op["at"]'), "RC001"
        )

    def test_real_apply_handlers_are_replay_reachable(self):
        from repro.analysis.callgraph import reachable
        from repro.analysis.checkers import REPLAY_ENTRY_POINTS
        from repro.analysis.core import ProjectIndex
        from repro.server.service import OPS

        service_py = REPO_ROOT / "src" / "repro" / "server" / "service.py"
        index = ProjectIndex.load([str(service_py)], root=str(REPO_ROOT))
        reached = {info.simple_name for info in reachable(index, REPLAY_ENTRY_POINTS)}
        handlers = {entry.apply.__name__ for entry in OPS.values()}
        assert handlers <= reached, sorted(handlers - reached)

    def test_only_reachable_code_is_checked(self, tmp_path):
        # Same nondeterminism, but not reachable from any replay entry
        # point — the checker must not flag it.
        assert not check(
            tmp_path,
            """
            import time

            def render_status():
                return time.time()
            """,
            "RC001",
        )


class TestRC005ExceptionSwallowing:
    def test_silent_broad_except_fires(self, tmp_path):
        diags = check(
            tmp_path,
            """
            def run(work):
                try:
                    work()
                except Exception:
                    pass
            """,
            "RC005",
        )
        assert diags and diags[0].code == "RC005"

    def test_recorded_or_reraised_is_quiet(self, tmp_path):
        assert not check(
            tmp_path,
            """
            def run(work, events):
                try:
                    work()
                except Exception as error:
                    events.record("work_error", error=str(error))

            def strict(work):
                try:
                    work()
                except Exception:
                    raise
            """,
            "RC005",
        )


class TestRC007LockDiscipline:
    def test_unlocked_mutation_fires(self, tmp_path):
        diags = check(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._mutation_lock = threading.RLock()
                    self._groups = []

                def restructure(self, groups):
                    self._groups[0] = None
            """,
            "RC007",
        )
        assert diags and "lock" in diags[0].message.lower()
        assert "Store.restructure:_groups" in diags[0].symbol

    @pytest.mark.parametrize(
        "mutation",
        [
            "self._groups[i].chain.append(page_id)",
            "group = self._groups[i]; group.rid_page[rid] = page_id",
        ],
        ids=["record-chain", "local-record-directory"],
    )
    def test_unlocked_group_record_mutation_fires(self, tmp_path, mutation):
        diags = check(
            tmp_path,
            f"""
            import threading

            class Store:
                def __init__(self):
                    self._mutation_lock = threading.RLock()
                    self._groups = []

                def append(self, i, rid, page_id):
                    {mutation}
            """,
            "RC007",
        )
        assert diags and "lock" in diags[0].message.lower()

    def test_locked_mutation_is_quiet(self, tmp_path):
        assert not check(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._mutation_lock = threading.RLock()
                    self._groups = []

                def restructure(self, groups):
                    with self._mutation_lock:
                        self._groups[0] = None
            """,
            "RC007",
        )

    def test_docstring_contract_is_quiet(self, tmp_path):
        assert not check(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._mutation_lock = threading.RLock()
                    self._groups = []

                def _restructure_locked(self, groups):
                    \"\"\"Caller holds the mutation lock.\"\"\"
                    self._groups[0] = None
            """,
            "RC007",
        )

    def test_lockless_class_is_exempt(self, tmp_path):
        # A class that never declares a lock has no discipline to break
        # (single-threaded helpers stay out of scope).
        assert not check(
            tmp_path,
            """
            class Builder:
                def __init__(self):
                    self._groups = []

                def add(self):
                    self._groups[0] = None
            """,
            "RC007",
        )


def test_store_row_mutators_are_called_only_from_the_table_chokepoint():
    """What a retired checker used to police, now true by construction: in the engine
    and the interface layer the store's row mutators have one caller, so
    no write can miss constraint checks, locking, index maintenance, the
    undo scope or the change event.  (``baselines/naive_db.py`` drives a
    store of its own and is not part of either package; a ``Sheet``'s
    ``store`` is its cell store, not a tuple store.)  The one other entry
    is the bulk load of an empty table: the store's ``load`` is called
    only by ``Table.load``, and that only by the snapshot restore."""
    callers = set()
    store_loaders = set()
    table_loaders = set()
    for package in ("engine", "core"):
        for path in sorted((REPO_ROOT / "src" / "repro" / package).glob("*.py")):
            if (package, path.name) == ("core", "sheet.py"):
                continue
            tree = python_ast.parse(path.read_text())
            for function in python_ast.walk(tree):
                if not isinstance(function, python_ast.FunctionDef):
                    continue
                where = f"{package}/{path.name}:{function.name}"
                for node in python_ast.walk(function):
                    if not (
                        isinstance(node, python_ast.Call)
                        and isinstance(node.func, python_ast.Attribute)
                    ):
                        continue
                    on_store = (
                        isinstance(node.func.value, python_ast.Attribute)
                        and node.func.value.attr == "store"
                    )
                    if node.func.attr in ("insert", "update", "update_column", "delete"):
                        if on_store:
                            callers.add(where)
                    elif node.func.attr == "load" and not (
                        isinstance(node.func.value, python_ast.Name)
                        and node.func.value.id == "json"
                    ):
                        (store_loaders if on_store else table_loaders).add(where)
    assert callers == {"engine/table.py:_change"}
    assert store_loaders == {"engine/table.py:load"}
    assert table_loaders == {"core/persist.py:workbook_from_dict"}


def test_page_records_are_assigned_only_by_the_store_page_helpers():
    """What RC006 used to police, now true by construction: in
    ``engine/store.py`` a page's ``.records`` is assigned or mutated only
    by the helpers that build a fresh page (``_new_page``), by
    ``_thaw_page``, and by the rewrite/update/delete helpers whose page
    comes through the copy-on-write gate (``_writable_page``, directly or
    via ``_find_slot``, which thaws it).  An encoded page's rows live only
    in its codec payload, so nothing else can corrupt one in place."""
    tree = python_ast.parse((REPO_ROOT / "src/repro/engine/store.py").read_text())

    def records_of(node):
        while isinstance(node, python_ast.Subscript):
            node = node.value
        return isinstance(node, python_ast.Attribute) and node.attr == "records"

    def mutates_records(node):
        if isinstance(node, python_ast.Assign):
            return any(records_of(target) for target in node.targets)
        if isinstance(node, (python_ast.AugAssign, python_ast.AnnAssign)):
            return records_of(node.target)
        if isinstance(node, python_ast.Delete):
            return any(records_of(target) for target in node.targets)
        return (
            isinstance(node, python_ast.Call)
            and isinstance(node.func, python_ast.Attribute)
            and node.func.attr
            in ("append", "extend", "insert", "remove", "pop", "clear", "sort")
            and records_of(node.func.value)
        )

    def calls(function):
        return {
            node.func.attr
            for node in python_ast.walk(function)
            if isinstance(node, python_ast.Call)
            and isinstance(node.func, python_ast.Attribute)
        }

    functions = {}
    for owner in [tree, *(n for n in tree.body if isinstance(n, python_ast.ClassDef))]:
        prefix = "" if owner is tree else f"{owner.name}."
        for function in owner.body:
            if isinstance(function, python_ast.FunctionDef):
                functions[prefix + function.name] = function
    mutators = {
        name
        for name, function in functions.items()
        if any(mutates_records(node) for node in python_ast.walk(function))
    }
    assert mutators == {
        "GroupedTupleStore._writable_page",
        "GroupedTupleStore._append_record",
        "GroupedTupleStore._thaw_page",
        "GroupedTupleStore.update",
        "GroupedTupleStore.update_column",
        "GroupedTupleStore.delete",
        "GroupedTupleStore._rewrite_group",
        "GroupedTupleStore._build_chain",
    }
    for name in mutators - {"GroupedTupleStore._thaw_page"}:
        sources = {"_new_page", "_writable_page", "_find_slot"}
        assert calls(functions[name]) & sources, name
    for name in ("_find_slot", "_rewrite_group"):
        called = calls(functions[f"GroupedTupleStore.{name}"])
        assert {"_writable_page", "_thaw_page"} <= called, name


def test_only_the_pager_names_the_disk():
    """What RC002 used to police, now true by construction: the buffer
    pool's disk is private, and no module under ``src/`` but ``pager.py``
    names it (``._disk``) or ``DiskManager``, so no page read, write,
    allocation or free can bypass the pool's per-group tag accounting."""
    namers = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = python_ast.parse(path.read_text())
        for node in python_ast.walk(tree):
            if (
                (isinstance(node, python_ast.Attribute) and node.attr == "_disk")
                or (isinstance(node, python_ast.Name) and node.id == "DiskManager")
                or (
                    isinstance(node, python_ast.alias)
                    and node.name == "DiskManager"
                )
            ):
                namers.add(path.relative_to(REPO_ROOT / "src").as_posix())
    assert namers == {"repro/engine/pager.py"}


# -- framework ----------------------------------------------------------------


class TestFramework:
    def test_all_checkers_registered(self):
        codes = set(registered_checkers())
        assert codes == {"RC001", "RC005", "RC007"}

    def test_repo_tree_is_clean_modulo_baseline(self):
        diags = analyze_paths([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
        baseline = load_baseline(str(REPO_ROOT / "ANALYSIS_BASELINE.txt"))
        new, grandfathered, stale = partition(diags, baseline)
        assert not new, "un-baselined findings:\n" + "\n".join(
            d.render() for d in new
        )
        assert not stale, "stale baseline entries: %r" % (stale,)

    def test_syntax_error_is_skipped_not_fatal(self, tmp_path):
        # A file the interpreter already rejects is not the analyzer's
        # job; it must be skipped without aborting the whole run.
        (tmp_path / "broken.py").write_text("def nope(:\n")
        (tmp_path / "dirty.py").write_text(
            "import time\n\ndef recover_state(records):\n    return time.time()\n"
        )
        diags = analyze_paths([str(tmp_path)], root=str(tmp_path))
        assert [d.code for d in diags] == ["RC001"]

    def test_baseline_roundtrip_preserves_justification(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            "import time\n\ndef recover_state(records):\n    return time.time()\n"
        )
        baseline_file = tmp_path / "BASELINE.txt"
        diags = analyze_paths([str(source)], root=str(tmp_path))
        write_baseline(str(baseline_file), diags, {})
        entries = load_baseline(str(baseline_file))
        assert len(entries) == 1
        key = next(iter(entries))
        # Hand-edit the justification; a regenerate must keep it.
        entries[key] = replace(entries[key], justification="known wall-clock use")
        write_baseline(str(baseline_file), diags, entries)
        reloaded = load_baseline(str(baseline_file))
        assert reloaded[key].justification == "known wall-clock use"
        new, grandfathered, stale = partition(diags, load_baseline(str(baseline_file)))
        assert not new and len(grandfathered) == 1 and not stale

    def test_cli_baseline_workflow(self, tmp_path, capsys):
        source = tmp_path / "mod.py"
        source.write_text(
            "import time\n\ndef recover_state(records):\n    return time.time()\n"
        )
        baseline_file = tmp_path / "BASELINE.txt"
        args = ["--baseline-file", str(baseline_file), str(source)]
        assert analysis_main(args) == 1  # un-baselined finding
        assert analysis_main(["--baseline"] + args) == 0  # grandfather it
        capsys.readouterr()
        assert analysis_main(args) == 0  # now clean modulo baseline
        # Fix the finding: the entry goes stale but stays non-fatal.
        source.write_text("def recover_state(records):\n    return len(records)\n")
        assert analysis_main(args) == 0
        assert "stale" in capsys.readouterr().err


# -- runtime sanitizer --------------------------------------------------------


def make_store(sanitize, n_rows=40):
    schema = TableSchema.from_pairs(
        [("a", DBType.INTEGER), ("b", DBType.INTEGER)]
    )
    store = GroupedTupleStore(schema, layout=LayoutPolicy.COLUMN, page_capacity=8)
    sanitizer = Sanitizer() if sanitize else NULL_SANITIZER
    store.sanitizer = sanitizer
    store.pool.sanitizer = sanitizer
    for i in range(n_rows):
        store.insert((i, i * 2))
    return store


class TestSanitizer:
    def test_off_by_default_and_null_object_is_shared(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        db = Database()
        assert db.sanitizer is NULL_SANITIZER
        assert not db.sanitizer.enabled

    def test_env_var_arms_every_database(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Database().sanitizer.enabled
        # An explicit argument always wins over the environment.
        assert not Database(sanitize=False).sanitizer.enabled
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not Database().sanitizer.enabled

    def test_database_arms_tables_and_pool(self):
        db = Database(sanitize=True)
        db.execute("CREATE TABLE t (a INT)")
        table = db.table("t")
        assert table.sanitizer is db.sanitizer
        assert table.store.sanitizer is db.sanitizer
        assert db.catalog.pool.sanitizer is db.sanitizer

    def test_frozen_group_mutation_raises(self):
        store = make_store(sanitize=True)
        assert store.encode_group(0) > 0
        page = store.pool.get(store._groups[0].chain[0])
        # Simulate a buggy code path appending to an encoded page
        # without thawing it first.
        page.records.append((999, [999]))
        with pytest.raises(SanitizerError, match="thaw"):
            store.pool.get(store._groups[0].chain[0])

    def test_mutable_enc_header_raises(self):
        store = make_store(sanitize=True)
        assert store.encode_group(0) > 0
        page = store.pool.get(store._groups[0].chain[0])
        enc = page.header["enc"]
        # A dict (or list rids) would be shared, mutably, by disk and frame.
        page.header["enc"] = dict(enc._asdict())
        with pytest.raises(SanitizerError, match="EncodedPage"):
            store.pool.get(store._groups[0].chain[0])
        page.header["enc"] = enc._replace(rids=list(enc.rids))
        with pytest.raises(SanitizerError, match="EncodedPage"):
            store.pool.get(store._groups[0].chain[0])
        page.header["enc"] = enc
        store.pool.get(store._groups[0].chain[0])

    def test_frozen_group_mutation_silent_when_off(self):
        store = make_store(sanitize=False)
        assert store.encode_group(0) > 0
        page = store.pool.get(store._groups[0].chain[0])
        page.records.append((999, [999]))
        store.pool.get(store._groups[0].chain[0])  # tolerated silently

    def test_rid_lockstep_violation_raises(self):
        store = make_store(sanitize=True)
        page = store.pool.get(store._groups[1].chain[0])
        page.records[0], page.records[1] = page.records[1], page.records[0]
        with pytest.raises(SanitizerError, match="lockstep"):
            list(store.scan_group_batches(["a", "b"], batch_size=8))

    def test_rid_lockstep_falls_back_when_off(self):
        store = make_store(sanitize=False)
        page = store.pool.get(store._groups[1].chain[0])
        page.records[0], page.records[1] = page.records[1], page.records[0]
        rows = {}
        for rids, cols in store.scan_group_batches(["a", "b"], batch_size=8):
            for i, rid in enumerate(rids):
                rows[rid] = (cols[0][i], cols[1][i])
        # The per-rid fallback still produces correctly aligned rows.
        assert all(b == a * 2 for a, b in rows.values())

    def test_batch_shape_checks(self):
        sanitizer = Sanitizer()
        sanitizer.check_batch([1, 2, 3], [[10, 20, 30], [1, 2, 3]])
        with pytest.raises(SanitizerError, match="rid"):
            sanitizer.check_batch([1, 2, 2], [[10, 20, 30]])
        with pytest.raises(SanitizerError):
            sanitizer.check_batch([1, 2, 3], [[10, 20]])

    def test_wal_offset_drift_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        service = WorkbookService(str(tmp_path / "book"), fsync=False)
        try:
            session = service.connect("alice")
            service.execute(session.session_id, "CREATE TABLE t (a INT)")
            service.wal._offset += 7  # simulate lost-write bookkeeping drift
            with pytest.raises(SanitizerError, match="offset"):
                service.execute(session.session_id, "INSERT INTO t VALUES (1)")
        finally:
            service.close()

    def test_wal_offset_drift_silent_when_off(self, tmp_path):
        service = WorkbookService(str(tmp_path / "book"), fsync=False)
        try:
            session = service.connect("alice")
            service.execute(session.session_id, "CREATE TABLE t (a INT)")
            service.wal._offset = service.wal._offset  # untouched: clean run
            service.execute(session.session_id, "INSERT INTO t VALUES (1)")
        finally:
            service.close()

    def test_replay_lsn_gap_raises(self):
        sanitizer = Sanitizer()
        sanitizer.check_replay_lsns([1, 2, 3])
        with pytest.raises(SanitizerError, match="LSN"):
            sanitizer.check_replay_lsns([1, 3])

    def test_check_table_detects_row_count_drift(self):
        db = Database(sanitize=True)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        table = db.table("t")
        db.sanitizer.check_table(table)  # consistent: no raise
        table.store._n_rows += 1
        with pytest.raises(SanitizerError):
            db.sanitizer.check_table(table)

    def test_check_counters_accumulate(self):
        sanitizer = Sanitizer()
        before = sanitizer.checks
        sanitizer.check_batch([1], [[10]])
        sanitizer.check_replay_lsns([1])
        assert sanitizer.checks == before + 2
        assert sanitizer.failures == 0


class TestApplyErrorEvent:
    def test_failed_op_records_structured_event_and_truncates(self, tmp_path):
        service = WorkbookService(str(tmp_path / "book"), fsync=False)
        try:
            session = service.connect("alice")
            service.execute(
                session.session_id, "CREATE TABLE t (a INT PRIMARY KEY)"
            )
            service.execute(session.session_id, "INSERT INTO t VALUES (1)")
            lsn_before = service.wal.last_lsn
            with pytest.raises(DataSpreadError):
                service.execute(session.session_id, "INSERT INTO t VALUES (1)")
            # The failed op is gone from the log and left a trace instead.
            assert service.wal.last_lsn == lsn_before
            events = service.events.of_kind("apply_error")
            assert events
            assert events[-1].data["op"] == "sql"
            assert events[-1].data["error"]
        finally:
            service.close()
