"""Shared fixtures for the test suite."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.records import doctor_schema, patient_schema, researcher_schema
from repro.core.scenario import PAPER_RECORDS, build_paper_scenario
from repro.ledger import transaction
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table


@pytest.fixture
def people_schema() -> Schema:
    """A small generic keyed schema used across relational/bx tests."""
    return Schema(
        columns=(
            Column("id", DataType.INTEGER, nullable=False),
            Column("name", DataType.STRING),
            Column("city", DataType.STRING),
            Column("age", DataType.INTEGER),
        ),
        primary_key=("id",),
    )


@pytest.fixture
def people_table(people_schema) -> Table:
    return Table(
        "people",
        people_schema,
        [
            {"id": 1, "name": "Aiko", "city": "Sapporo", "age": 34},
            {"id": 2, "name": "Ben", "city": "Osaka", "age": 41},
            {"id": 3, "name": "Chie", "city": "Kyoto", "age": 29},
        ],
    )


@pytest.fixture
def doctor_table() -> Table:
    """The paper's D3 table (doctor's local data) with the Fig. 1 rows."""
    columns = ("patient_id", "medication_name", "clinical_data", "dosage",
               "mechanism_of_action")
    rows = [{c: record[c] for c in columns} for record in PAPER_RECORDS]
    return Table("D3", doctor_schema(), rows)


@pytest.fixture
def patient_table() -> Table:
    """The paper's D1 table (patient 188's local data)."""
    columns = ("patient_id", "medication_name", "clinical_data", "address", "dosage")
    rows = [{c: record[c] for c in columns}
            for record in PAPER_RECORDS if record["patient_id"] == 188]
    return Table("D1", patient_schema(), rows)


@pytest.fixture
def researcher_table() -> Table:
    """The paper's D2 table (researcher's local data)."""
    columns = ("medication_name", "mechanism_of_action", "mode_of_action")
    rows = [{c: record[c] for c in columns} for record in PAPER_RECORDS]
    return Table("D2", researcher_schema(), rows)


@pytest.fixture(scope="module")
def paper_system():
    """A fully established Fig. 1 system (module-scoped: building it mines blocks)."""
    return build_paper_scenario()


@pytest.fixture
def fresh_paper_system():
    """A function-scoped Fig. 1 system for tests that mutate shared data."""
    return build_paper_scenario()


@pytest.fixture
def decode_table(monkeypatch):
    """``decode_table(bound)`` swaps in an empty ``Transaction.from_dict``
    decode table holding at most ``bound`` entries (0: every decode is fresh)
    until the test ends, and returns it (``cache_info()``)."""

    def install(bound=transaction.DECODE_TABLE_SIZE):
        table = lru_cache(maxsize=bound)(transaction._decode_shared.__wrapped__)
        monkeypatch.setattr(transaction, "_decode_shared", table)
        return table

    return install
