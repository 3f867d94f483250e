"""Undo-log transactions in which schema changes participate.

Paper §2.2, *Challenge*: "for today's databases a table's schema change
requires an update to all the tuples of the table.  Further, the activity is
considered as 'data definition language' and generally cannot participate in
transactions."  DataSpread requires both to change; this module provides the
second half: every mutation — tuple *or schema* — appends an inverse
operation to the active transaction's undo log, so ``ROLLBACK`` restores
both data and schema.  The same inverses make each statement atomic: they
are collected per statement (:meth:`TransactionManager.statement_scope`)
and run at once if the statement fails part-way.

The design is deliberately simple (single-writer, no concurrency): the
paper explicitly leaves the transaction manager's full redesign to future
work, and what the demo needs is atomicity of mixed DML+DDL batches.

Durability integration: the manager publishes its state transitions to
registered *hooks* — callables ``hook(event, txn_id)`` with ``event`` in
``("begin", "commit", "rollback")``.  The server's write-ahead log uses
these to bracket a transaction's records with commit markers and to
discard the un-committed records when the transaction rolls back, no
matter which code path (service op, ``Database.execute("ROLLBACK")``,
direct API call) drove the transition.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional

from repro.errors import TransactionError

__all__ = ["Transaction", "TransactionManager", "TransactionHook"]

#: ``hook(event, txn_id)`` with event in ("begin", "commit", "rollback").
TransactionHook = Callable[[str, int], None]


class Transaction:
    """One open transaction: a stack of undo closures."""

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.active = True
        self._undo: List[Callable[[], None]] = []
        self.statements = 0

    def record_undo(self, closure: Callable[[], None]) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")
        self._undo.append(closure)

    def rollback(self) -> int:
        """Run the undo log in reverse; returns the number of undone ops."""
        if not self.active:
            raise TransactionError("transaction is no longer active")
        undone = 0
        while self._undo:
            closure = self._undo.pop()
            closure()
            undone += 1
        self.active = False
        return undone

    def commit(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")
        self._undo.clear()
        self.active = False

    @property
    def n_pending_undos(self) -> int:
        return len(self._undo)


class TransactionManager:
    """Hands out transactions; at most one open at a time (single writer)."""

    def __init__(self) -> None:
        self._next_id = 1
        self.current: Optional[Transaction] = None
        self.committed = 0
        self.rolled_back = 0
        self._hooks: List[TransactionHook] = []
        #: The open statement's undo log (None between statements): what
        #: ``Table``'s mutation chokepoint feeds its inverses to.
        self.statement: Optional[List[Callable[[], None]]] = None

    # -- lifecycle hooks (durability layer) ---------------------------------

    def add_hook(self, hook: TransactionHook) -> None:
        """Subscribe to begin/commit/rollback transitions."""
        self._hooks.append(hook)

    def remove_hook(self, hook: TransactionHook) -> None:
        self._hooks.remove(hook)

    def _notify(self, event: str, txn_id: int) -> None:
        for hook in list(self._hooks):
            hook(event, txn_id)

    def begin(self) -> Transaction:
        if self.current is not None and self.current.active:
            raise TransactionError("a transaction is already open (no nesting)")
        self.current = Transaction(self._next_id)
        self._next_id += 1
        self._notify("begin", self.current.txn_id)
        return self.current

    def commit(self) -> None:
        if self.current is None or not self.current.active:
            raise TransactionError("no open transaction to commit")
        txn_id = self.current.txn_id
        self.current.commit()
        self.committed += 1
        self.current = None
        self._notify("commit", txn_id)

    def rollback(self) -> int:
        if self.current is None or not self.current.active:
            raise TransactionError("no open transaction to roll back")
        txn_id = self.current.txn_id
        undone = self.current.rollback()
        self.rolled_back += 1
        self.current = None
        self._notify("rollback", txn_id)
        return undone

    @property
    def in_transaction(self) -> bool:
        return self.current is not None and self.current.active

    def record_undo(self, closure: Callable[[], None]) -> None:
        """Register an inverse op with the open statement, else with the
        open transaction (no-op in autocommit mode outside a statement)."""
        if self.statement is not None:
            self.statement.append(closure)
        elif self.in_transaction:
            assert self.current is not None
            self.current.record_undo(closure)

    @contextmanager
    def statement_scope(self) -> Iterator[None]:
        """Statement atomicity: inverses recorded while the scope is open
        run (newest first) if the statement raises, so a failed statement
        leaves nothing behind; on success they join the enclosing scope or
        the open transaction, or are dropped in autocommit mode.  Scopes
        nest — a change listener may run a statement of its own."""
        outer, scope = self.statement, []
        self.statement = scope
        try:
            yield
        except BaseException:
            self.statement = None  # the inverses must not record themselves
            while scope:
                scope.pop()()
            raise
        else:
            if outer is not None:
                outer.extend(scope)
            elif self.in_transaction:
                for closure in scope:
                    self.current.record_undo(closure)
        finally:
            self.statement = outer
