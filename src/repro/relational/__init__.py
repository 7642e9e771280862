"""An in-memory relational engine: each peer's "local database".

The paper assumes that every sharing peer (patient, doctor, researcher) keeps
its full data and every shared data piece in a local relational database and
that shared pieces are *views* obtained by querying a few attributes of the
local base table.  This subpackage provides that substrate:

* :mod:`repro.relational.schema` — typed columns and table schemas.
* :mod:`repro.relational.row` — immutable rows.
* :mod:`repro.relational.predicates` — composable row predicates.
* :mod:`repro.relational.table` — tables with primary keys and constraints.
* :mod:`repro.relational.query` — a small relational-algebra query AST.
* :mod:`repro.relational.index` — secondary hash indexes.
* :mod:`repro.relational.diff` — row-level deltas between table states.
* :mod:`repro.relational.wal` — a write-ahead log of applied operations.
* :mod:`repro.relational.durability` — on-disk WAL segments, checkpoints
  and crash recovery.
* :mod:`repro.relational.replication` — WAL-shipping read replicas with
  bounded, measured staleness.
* :mod:`repro.relational.transactions` — snapshot transactions with rollback.
* :mod:`repro.relational.database` — a named collection of tables and views.
"""

from repro._exports import lazy_exports
from repro.relational.schema import Column, DataType, Schema
from repro.relational.row import Row
from repro.relational.predicates import (
    And,
    Between,
    Contains,
    Eq,
    Ge,
    Gt,
    In,
    IsNull,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.relational.table import Table
from repro.relational.diff import RowChange, TableDiff, diff_tables
from repro.relational.wal import WriteAheadLog, WalEntry
from repro.relational.transactions import TransactionManager
from repro.relational.database import Database

# The query AST, indexes and the on-disk layers load with the first caller
# that needs them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "query": ("Project", "Query", "Rename", "Select", "Join", "execute_query"),
    "index": ("HashIndex",),
    "persistence": ("atomic_write_text", "databases_identical", "load_database",
                    "save_database"),
    "durability": ("FSYNC_ALWAYS", "FSYNC_BATCH", "FSYNC_NEVER", "CheckpointResult",
                   "JsonlWalBackend", "RecoveryResult", "checkpoint_database",
                   "open_durable_database", "recover"),
    "replication": ("DiffNotice", "ReadReplica", "ReplicaRouter", "ReplicationError",
                    "RoutedRead", "SegmentShipper", "ShippedBatch"),
})

__all__ = [
    "Column",
    "DataType",
    "Schema",
    "Row",
    "Predicate",
    "TruePredicate",
    "Eq",
    "Ne",
    "Lt",
    "Le",
    "Gt",
    "Ge",
    "In",
    "Between",
    "Contains",
    "IsNull",
    "And",
    "Or",
    "Not",
    "Table",
    "Query",
    "Project",
    "Select",
    "Rename",
    "Join",
    "execute_query",
    "HashIndex",
    "RowChange",
    "TableDiff",
    "diff_tables",
    "WriteAheadLog",
    "WalEntry",
    "TransactionManager",
    "Database",
    "save_database",
    "load_database",
    "databases_identical",
    "atomic_write_text",
    "FSYNC_ALWAYS",
    "FSYNC_BATCH",
    "FSYNC_NEVER",
    "JsonlWalBackend",
    "CheckpointResult",
    "RecoveryResult",
    "checkpoint_database",
    "open_durable_database",
    "recover",
    "DiffNotice",
    "ReadReplica",
    "ReplicaRouter",
    "ReplicationError",
    "RoutedRead",
    "SegmentShipper",
    "ShippedBatch",
]
