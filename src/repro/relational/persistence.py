"""Saving and loading a peer's local database.

A peer's database (its full tables, the materialised shared pieces, the
registered view definitions and the secondary-index column sets) can be
serialised to a single JSON document so a client can stop and later resume
with the same local state — the paper's "medical data always stay in each
peer's local database" needs that data to survive restarts.

The format is deliberately plain JSON: human-inspectable, diffable, and free
of any pickling of code objects.  Writes are atomic: the document lands in a
temp file in the target directory and is ``os.replace``d into place, so a
crash mid-write can never corrupt the previous copy.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Union

from repro.errors import RelationalError
from repro.relational.database import Database
from repro.relational.schema import Schema

#: Format marker so future layout changes can be detected on load.
FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


def atomic_write_text(path: PathLike, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target directory (``os.replace`` must not
    cross filesystems) and is fsynced before the rename, so after a crash
    the path holds either the previous content or the complete new content —
    never a torn mix.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.parent / f".{target.name}.tmp.{os.getpid()}"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    finally:
        if temp.exists():
            temp.unlink()
    return target


def database_to_dict(database: Database) -> dict:
    """Serialise a database (tables + views + index columns) to a plain dict."""
    return {
        "format_version": FORMAT_VERSION,
        "name": database.name,
        "tables": [database.table(name).to_dict() for name in database.table_names],
        "views": {
            name: database.view_definition(name).to_dict() for name in database.view_names
        },
    }


def database_from_dict(payload: dict) -> Database:
    """Rebuild a database from :func:`database_to_dict` output.

    Secondary indexes are re-registered from each table's persisted
    ``indexes`` column sets, so a reloaded peer keeps its Eq fast path
    without callers having to remember to re-``add_index``.
    """
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise RelationalError(
            f"unsupported database format version {version!r} (expected {FORMAT_VERSION})"
        )
    database = Database(payload["name"])
    for table_payload in payload.get("tables", ()):
        # Built from the raw payload (not Table.from_dict) so rows are
        # materialised and index buckets built exactly once, on the table
        # the database keeps.
        name = table_payload["name"]
        database.create_table(name, Schema.from_dict(table_payload["schema"]),
                              table_payload.get("rows", ()))
        for columns in table_payload.get("indexes", ()):
            database.create_index(name, columns)
    views = payload.get("views")
    if views:
        # Only a database with registered views needs the query AST.
        from repro.relational.query import Query

        for view_name, view_payload in views.items():
            database.register_view(view_name, Query.from_dict(view_payload))
    return database


def save_database(database: Database, path: PathLike) -> pathlib.Path:
    """Atomically write the database to ``path`` as JSON; returns the path."""
    document = json.dumps(database_to_dict(database), indent=2, sort_keys=True)
    return atomic_write_text(path, document)


def load_database(path: PathLike) -> Database:
    """Read a database previously written by :func:`save_database`."""
    source = pathlib.Path(path)
    if not source.exists():
        raise RelationalError(f"no database file at {source}")
    payload = json.loads(source.read_text(encoding="utf-8"))
    return database_from_dict(payload)


def databases_identical(first: Database, second: Database) -> bool:
    """True when the two databases hold the same tables *and* views.

    View definitions are part of a peer's state (recovery tests that ignored
    them could pass while views were silently lost), so both the set of view
    names and each definition's serialised form must match.
    """
    if set(first.table_names) != set(second.table_names):
        return False
    for name in first.table_names:
        if first.table(name) != second.table(name):
            return False
    if set(first.view_names) != set(second.view_names):
        return False
    for name in first.view_names:
        if first.view_definition(name).to_dict() != second.view_definition(name).to_dict():
            return False
    return True
