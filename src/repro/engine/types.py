"""Relational value types and the dynamic-typing bridge.

The paper (§2.2(c)) proposes "automatically assigning data types within the
databases based on the tuples".  This module supplies the relational type
lattice used for that inference, plus value coercion used by the executor
and by import/export.

The lattice (for :func:`unify_types`) is::

    NULL < BOOLEAN <  INTEGER < REAL < TEXT
                 \\______ DATE ______/

i.e. anything unifies with TEXT, NULL unifies with everything, INTEGER
widens to REAL, and mixed DATE/number falls back to TEXT.
"""

from __future__ import annotations

import datetime as _dt
import math
from enum import Enum
from typing import Any, Iterable, Optional

from repro.errors import ExecutionError

__all__ = ["DBType", "infer_type", "unify_types", "coerce_value", "compare_values", "sql_repr"]


class DBType(Enum):
    """Column types supported by the engine."""

    NULL = "NULL"
    BOOLEAN = "BOOLEAN"
    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    DATE = "DATE"

    @classmethod
    def parse(cls, name: str) -> "DBType":
        """Parse a SQL type name, accepting common aliases."""
        canon = name.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "REAL": cls.REAL,
            "FLOAT": cls.REAL,
            "DOUBLE": cls.REAL,
            "NUMERIC": cls.REAL,
            "DECIMAL": cls.REAL,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
            "DATE": cls.DATE,
        }
        # VARCHAR(30) and friends.
        if "(" in canon:
            canon = canon[: canon.index("(")].strip()
        if canon not in aliases:
            raise ExecutionError(f"unknown SQL type {name!r}")
        return aliases[canon]

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.value


def infer_type(value: Any) -> DBType:
    """Infer the relational type of one Python value."""
    if value is None:
        return DBType.NULL
    if isinstance(value, bool):
        return DBType.BOOLEAN
    if isinstance(value, int):
        return DBType.INTEGER
    if isinstance(value, float):
        return DBType.REAL
    if isinstance(value, (_dt.date, _dt.datetime)):
        return DBType.DATE
    return DBType.TEXT


_WIDENING = {
    frozenset({DBType.INTEGER, DBType.REAL}): DBType.REAL,
    frozenset({DBType.BOOLEAN, DBType.INTEGER}): DBType.INTEGER,
    frozenset({DBType.BOOLEAN, DBType.REAL}): DBType.REAL,
}


def unify_types(first: DBType, second: DBType) -> DBType:
    """Least-upper-bound of two types in the widening lattice."""
    if first is second:
        return first
    if first is DBType.NULL:
        return second
    if second is DBType.NULL:
        return first
    widened = _WIDENING.get(frozenset({first, second}))
    if widened is not None:
        return widened
    return DBType.TEXT


def infer_column_type(values: Iterable[Any]) -> DBType:
    """Infer a column type from a sample of values (paper §2.2(c))."""
    result = DBType.NULL
    for value in values:
        result = unify_types(result, infer_type(value))
        if result is DBType.TEXT:
            break
    return result


def coerce_value(value: Any, target: DBType, strict: bool = False) -> Any:
    """Coerce ``value`` to ``target``; ``None`` always passes through.

    With ``strict=False`` (the spreadsheet-friendly default) an impossible
    coercion returns the value unchanged; with ``strict=True`` it raises
    :class:`~repro.errors.ExecutionError` as a database would.
    """
    if value is None or target is DBType.NULL:
        return value
    if isinstance(value, float) and math.isnan(value) and target is not DBType.TEXT:
        return None  # sqlite binds a NaN as NULL: no stored value is unordered
    try:
        if target is DBType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            if isinstance(value, str):
                return int(float(value)) if value.strip() else None
        elif target is DBType.REAL:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                number = float(value) if value.strip() else None
                if number is None or math.isfinite(number):
                    return number  # NaN/infinity text stays TEXT, as in sqlite
        elif target is DBType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return bool(value)
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1"):
                    return True
                if lowered in ("false", "f", "0"):
                    return False
        elif target is DBType.TEXT:
            if isinstance(value, bool):
                return "TRUE" if value else "FALSE"
            if isinstance(value, float) and value.is_integer():
                return str(int(value))
            return str(value)
        elif target is DBType.DATE:
            if isinstance(value, _dt.datetime):
                return value.date()
            if isinstance(value, _dt.date):
                return value
            if isinstance(value, str):
                return _dt.date.fromisoformat(value.strip())
    except (ValueError, TypeError, OverflowError):
        pass
    if strict:
        raise ExecutionError(f"cannot coerce {value!r} to {target}")
    return value


# Booleans share the numeric rank so TRUE = 1 (SQL-friendly, sqlite-like).
_TYPE_ORDER = {
    DBType.NULL: 0,
    DBType.BOOLEAN: 2,
    DBType.INTEGER: 2,
    DBType.REAL: 2,
    DBType.DATE: 3,
    DBType.TEXT: 4,
}


def compare_values(left: Any, right: Any) -> Optional[int]:
    """Three-way compare with SQL semantics.

    Returns ``-1``/``0``/``1``, or ``None`` when either side is NULL
    (SQL's UNKNOWN).  Cross-type comparisons follow a total type order so
    ORDER BY is deterministic even on mixed columns (as sqlite does).
    """
    if left is None or right is None:
        return None
    left_key = _TYPE_ORDER[infer_type(left)]
    right_key = _TYPE_ORDER[infer_type(right)]
    if left_key != right_key:
        return -1 if left_key < right_key else 1
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    try:
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    except TypeError:
        left_s, right_s = str(left), str(right)
        if left_s < right_s:
            return -1
        if left_s > right_s:
            return 1
        return 0


def sql_repr(value: Any) -> str:
    """Render a Python value as a SQL literal (used for logging/round-trips)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
            return "NULL"
        return str(value)
    if isinstance(value, (_dt.date, _dt.datetime)):
        return f"'{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
