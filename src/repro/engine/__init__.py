"""The relational database substrate.

The paper backs DataSpread with PostgreSQL but proposes architectural
changes PostgreSQL does not have — a hybrid attribute-group store so schema
changes cost as little as tuple updates, a positional index, and an
interface-aware query processor.  Those changes are the research
contribution, so this package implements the whole engine from scratch:

* :mod:`repro.engine.pager` — page/buffer substrate with block-I/O counters,
* :mod:`repro.engine.store` — the attribute-group tuple store (row, column
  and hybrid layouts are grouping policies of one class) and
  :mod:`repro.engine.hybridstore` — its block cost model,
* :mod:`repro.engine.schema` / :mod:`repro.engine.catalog` — dynamic schema,
* :mod:`repro.engine.sql_lexer` / :mod:`repro.engine.sql_parser` — SQL text,
* :mod:`repro.engine.planner` / :mod:`repro.engine.executor` — query
  processing, including spreadsheet range tables,
* :mod:`repro.engine.transaction` — undo-log transactions in which schema
  changes participate (the §2.2 "challenge"),
* :mod:`repro.engine.database` — the public facade.
"""

from repro.engine.types import DBType, infer_type, unify_types, coerce_value
from repro.engine.schema import Column, TableSchema
from repro.engine.database import Database, ResultSet

__all__ = [
    "DBType",
    "infer_type",
    "unify_types",
    "coerce_value",
    "Column",
    "TableSchema",
    "Database",
    "ResultSet",
]
