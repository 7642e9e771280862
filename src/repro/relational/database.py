"""A named collection of tables, views and indexes: a peer's local database.

The database layer ties together tables, the WAL, transactions, indexes and
registered view definitions.  Every peer in :mod:`repro.core` owns exactly one
:class:`Database` (its "full database and many data pieces shared with other
users", Fig. 2).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.errors import (
    DuplicateTableError,
    UnknownTableError,
)
from repro.relational.predicates import Predicate
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.transactions import TransactionManager
from repro.relational.wal import WriteAheadLog

if TYPE_CHECKING:  # the query AST and indexes load with their first use
    from repro.relational.index import HashIndex
    from repro.relational.query import Query


class Database:
    """An in-memory multi-table database with logged mutations.

    Every mutation appends a *replayable* WAL entry (the payload carries
    enough data to re-apply the operation on a recovered copy).  Passing a
    ``wal_backend`` (see :mod:`repro.relational.durability`) mirrors the log
    to disk so the database survives a process crash.
    """

    def __init__(self, name: str, wal_backend: Optional[object] = None):
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, Query] = {}
        self._indexes: Dict[Tuple[str, Tuple[str, ...]], HashIndex] = {}
        self.wal = WriteAheadLog(backend=wal_backend)
        self.transactions = TransactionManager(self._tables,
                                               on_restore=self._log_rollback_restore)

    def _log_rollback_restore(self, table_name: str, table: Table) -> None:
        """Journal a transaction rollback's table restore as a replayable
        ``replace`` — without it, replaying the log would reproduce the
        rolled-back writes."""
        self.wal.append("replace", table_name,
                        {"rows": len(table), "reason": "rollback",
                         **self._rows_payload(table)})

    def _rows_payload(self, table: Table) -> Dict[str, Any]:
        """``{"row_data": [...]}`` for replay when the WAL is durable, else
        empty — a purely in-memory log must not retain an O(table) copy per
        wholesale operation (the seed kept these entries O(1))."""
        if not self.wal.durable:
            return {}
        return {"row_data": [row.to_dict() for row in table]}

    # ----------------------------------------------------------------- tables

    def create_table(self, name: str, schema: Schema,
                     rows: Iterable[Mapping[str, Any]] = ()) -> Table:
        """Create a base table; fails if the name already exists."""
        if name in self._tables:
            raise DuplicateTableError(f"table {name!r} already exists in database {self.name!r}")
        table = Table(name, schema, rows)
        self._tables[name] = table
        self.transactions.register_table(name, table)
        self.wal.append("create_table", name,
                        {"schema": schema.to_dict(), "rows": len(table),
                         **self._rows_payload(table)},
                        self.transactions.current_transaction_id())
        return table

    def drop_table(self, name: str) -> None:
        """Drop a base table."""
        if name not in self._tables:
            raise UnknownTableError(f"unknown table {name!r}")
        del self._tables[name]
        self._indexes = {key: idx for key, idx in self._indexes.items() if key[0] != name}
        self.wal.append("drop_table", name, {}, self.transactions.current_transaction_id())

    def table(self, name: str) -> Table:
        """Look up one base table by name."""
        if name not in self._tables:
            raise UnknownTableError(f"unknown table {name!r} in database {self.name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    @property
    def tables(self) -> Dict[str, Table]:
        """A shallow copy of the name → table mapping."""
        return dict(self._tables)

    # ------------------------------------------------------------------ writes

    def insert(self, table_name: str, values: Mapping[str, Any]) -> None:
        """Insert one row into a table (logged)."""
        table = self.table(table_name)
        row = table.insert(values)
        self.wal.append("insert", table_name, {"row": row.to_dict()},
                        self.transactions.current_transaction_id())

    def insert_many(self, table_name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert several rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(table_name, row)
            count += 1
        return count

    def update_by_key(self, table_name: str, key: Sequence[Any],
                      updates: Mapping[str, Any]) -> None:
        """Update one keyed row (logged)."""
        table = self.table(table_name)
        table.update_by_key(key, updates)
        # The entry records the operation, not its effect: key + updates is
        # what replay re-applies, and the hot append path stays lean.
        self.wal.append(
            "update", table_name,
            {"key": list(key) if isinstance(key, (list, tuple)) else [key],
             "updates": dict(updates)},
            self.transactions.current_transaction_id(),
        )

    def update_where(self, table_name: str, predicate: Predicate,
                     updates: Mapping[str, Any]) -> int:
        """Update matching rows (logged); returns the count."""
        table = self.table(table_name)
        count = table.update_where(predicate, updates)
        self.wal.append(
            "update", table_name,
            {"predicate": predicate.to_dict(), "updates": dict(updates), "count": count},
            self.transactions.current_transaction_id(),
        )
        return count

    def delete_by_key(self, table_name: str, key: Sequence[Any]) -> None:
        """Delete one keyed row (logged)."""
        table = self.table(table_name)
        table.delete_by_key(key)
        self.wal.append(
            "delete", table_name,
            {"key": list(key) if isinstance(key, (list, tuple)) else [key]},
            self.transactions.current_transaction_id(),
        )

    def delete_where(self, table_name: str, predicate: Predicate) -> int:
        """Delete matching rows (logged); returns the count."""
        table = self.table(table_name)
        count = table.delete_where(predicate)
        self.wal.append(
            "delete", table_name,
            {"predicate": predicate.to_dict(), "count": count},
            self.transactions.current_transaction_id(),
        )
        return count

    def replace_table(self, table_name: str, rows: Iterable[Mapping[str, Any]]) -> None:
        """Atomically replace a table's contents (used by BX ``put``; logged)."""
        table = self.table(table_name)
        table.replace_all(rows)
        self.wal.append("replace", table_name,
                        {"rows": len(table), **self._rows_payload(table)},
                        self.transactions.current_transaction_id())

    def apply_table_diff(self, table_name: str, diff: "TableDiff") -> None:  # noqa: F821
        """Apply a keyed row-level diff to a table in place (logged).

        The delta-propagation path uses this instead of :meth:`replace_table`
        so only the changed rows are touched and secondary indexes stay fresh
        without a rebuild.
        """
        table = self.table(table_name)
        table.apply_diff(diff)
        self.wal.append("apply_diff", table_name,
                        {"changes": len(diff.changes), **diff.summary(),
                         "diff": diff.to_dict()},
                        self.transactions.current_transaction_id())

    # ------------------------------------------------------------------- reads

    def query(self, query: Query, name: Optional[str] = None) -> Table:
        """Evaluate a query AST over this database's base tables."""
        from repro.relational.query import execute_query

        return execute_query(query, self._tables, name=name)

    def select(self, table_name: str, predicate: Predicate = None) -> List:
        """Shorthand row selection from one table."""
        return self.table(table_name).select(predicate)

    # ------------------------------------------------------------------- views

    def register_view(self, name: str, definition: Query) -> None:
        """Register a named view definition (not materialised; logged so a
        recovered database keeps views registered since the last checkpoint)."""
        self._views[name] = definition
        self.wal.append("register_view", name, {"query": definition.to_dict()},
                        self.transactions.current_transaction_id())

    def view(self, name: str) -> Table:
        """Materialise a registered view."""
        if name not in self._views:
            raise UnknownTableError(f"unknown view {name!r} in database {self.name!r}")
        return self.query(self._views[name], name=name)

    def view_definition(self, name: str) -> Query:
        if name not in self._views:
            raise UnknownTableError(f"unknown view {name!r} in database {self.name!r}")
        return self._views[name]

    @property
    def view_names(self) -> Tuple[str, ...]:
        return tuple(self._views)

    # ----------------------------------------------------------------- indexes

    def create_index(self, table_name: str, columns: Sequence[str]) -> HashIndex:
        """Create (or return an existing) hash index on ``columns``.

        The index is attached to the table itself, so equality selections on
        the indexed columns (``Table.select`` and the query AST's ``Select``
        over a ``Scan``) use it instead of scanning.
        """
        key = (table_name, tuple(columns))
        if key not in self._indexes:
            self._indexes[key] = self.table(table_name).add_index(columns)
            self.wal.append("create_index", table_name,
                            {"columns": list(columns)},
                            self.transactions.current_transaction_id())
        return self._indexes[key]

    def index(self, table_name: str, columns: Sequence[str]) -> HashIndex:
        key = (table_name, tuple(columns))
        if key not in self._indexes:
            raise UnknownTableError(f"no index on {table_name!r}{tuple(columns)!r}")
        return self._indexes[key]


    # ---------------------------------------------------------------- recovery

    def checkpoint(self, state_dir) -> "CheckpointResult":  # noqa: F821
        """Atomically snapshot this database into ``state_dir`` and truncate
        the WAL, recording the checkpoint sequence (see
        :func:`repro.relational.durability.checkpoint_database`)."""
        from repro.relational.durability import checkpoint_database

        return checkpoint_database(self, state_dir)

    def storage_bytes(self) -> int:
        """An approximate storage footprint (serialised size of all tables)."""
        from repro.crypto.hashing import canonical_json

        return sum(len(canonical_json(t.to_dict()).encode("utf-8")) for t in self._tables.values())

    def snapshot(self) -> Dict[str, Table]:
        """Independent snapshots of every base table."""
        return {name: table.snapshot() for name, table in self._tables.items()}
