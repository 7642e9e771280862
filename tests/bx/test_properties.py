"""Property-based tests of the lens laws on randomly generated tables.

The paper's consistency guarantee rests entirely on lens well-behavedness, so
these hypothesis tests exercise GetPut and PutGet over random sources, random
view edits, and random lens shapes (projection / selection / composition /
keyed join, whose delta translation must also agree with diffing two ``get``s).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bx.compose import ComposeLens
from repro.bx.join import JoinLens
from repro.bx.laws import check_get_put, check_put_get
from repro.bx.lens import DeletePolicy
from repro.bx.projection import ProjectionLens
from repro.bx.selection import SelectionLens
from repro.errors import PutConflictError
from repro.relational.diff import diff_tables
from repro.relational.predicates import Ge
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table

SCHEMA = Schema(
    columns=(
        Column("id", DataType.INTEGER, nullable=False),
        Column("name", DataType.STRING),
        Column("grade", DataType.INTEGER),
        Column("city", DataType.STRING),
    ),
    primary_key=("id",),
)

_names = st.text(alphabet="abcdef", min_size=1, max_size=6)
_cities = st.sampled_from(["Sapporo", "Osaka", "Kyoto", "Tokyo"])


@st.composite
def source_tables(draw, min_rows=0, max_rows=8, cities=_cities):
    ids = draw(st.lists(st.integers(min_value=0, max_value=50), unique=True,
                        min_size=min_rows, max_size=max_rows))
    rows = [
        {"id": identifier,
         "name": draw(_names),
         "grade": draw(st.integers(min_value=0, max_value=100)),
         "city": draw(cities)}
        for identifier in ids
    ]
    return Table("source", SCHEMA, rows)


@st.composite
def edited_view(draw, view: Table):
    """Apply a random batch of updates/deletes/inserts to a copy of ``view``."""
    result = view.snapshot()
    editable = [c for c in view.schema.column_names if c not in view.schema.primary_key]
    for row in list(result):
        action = draw(st.sampled_from(["keep", "update", "delete"]))
        key = row.key(result.schema.primary_key)
        if action == "delete":
            result.delete_by_key(key)
        elif action == "update" and editable:
            column = draw(st.sampled_from(editable))
            if column == "grade":
                value = draw(st.integers(min_value=0, max_value=100))
            elif column == "city":
                value = draw(_cities)
            else:
                value = draw(_names)
            result.update_by_key(key, {column: value})
    if draw(st.booleans()):
        new_id = draw(st.integers(min_value=100, max_value=200))
        if not result.contains_key(new_id):
            fresh = {c: None for c in result.schema.column_names}
            fresh["id"] = new_id
            if "grade" in fresh:
                fresh["grade"] = draw(st.integers(min_value=0, max_value=100))
            if "name" in fresh:
                fresh["name"] = draw(_names)
            if "city" in fresh:
                fresh["city"] = draw(_cities)
            result.insert({k: v for k, v in fresh.items() if k in result.schema.column_names})
    return result


PROJECTION = ProjectionLens(("id", "name", "grade"))
SELECTION = SelectionLens(Ge("grade", 50))
COMPOSED = ComposeLens(SelectionLens(Ge("grade", 50)), ProjectionLens(("id", "grade")))


class TestGetPutProperty:
    @given(source_tables())
    @settings(max_examples=40, deadline=None)
    def test_projection_get_put(self, source):
        assert check_get_put(PROJECTION, source)

    @given(source_tables())
    @settings(max_examples=40, deadline=None)
    def test_selection_get_put(self, source):
        assert check_get_put(SELECTION, source)

    @given(source_tables())
    @settings(max_examples=40, deadline=None)
    def test_composition_get_put(self, source):
        assert check_get_put(COMPOSED, source)


class TestPutGetProperty:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_projection_put_get_after_random_edits(self, data):
        source = data.draw(source_tables(min_rows=1))
        view = data.draw(edited_view(PROJECTION.get(source)))
        assert check_put_get(PROJECTION, source, view)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_composition_put_get_after_value_edits(self, data):
        source = data.draw(source_tables(min_rows=1))
        view = COMPOSED.get(source)
        # Edit only non-key values that keep the selection predicate satisfied.
        for row in list(view):
            if data.draw(st.booleans()):
                view.update_by_key(row.key(view.schema.primary_key),
                                   {"grade": data.draw(st.integers(min_value=50, max_value=100))})
        assert check_put_get(COMPOSED, source, view)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_put_is_idempotent_on_same_view(self, data):
        source = data.draw(source_tables(min_rows=1))
        view = data.draw(edited_view(PROJECTION.get(source)))
        once = PROJECTION.put(source, view)
        twice = PROJECTION.put(once, view)
        assert once == twice


class TestFunctionalLensProperty:
    LENS = ProjectionLens(("city", "grade"), view_key=("city",))

    @given(source_tables())
    @settings(max_examples=40, deadline=None)
    def test_functional_laws_when_fd_holds(self, source):
        # Force the functional dependency city -> grade before checking laws.
        by_city = {}
        rows = []
        for row in source:
            grade = by_city.setdefault(row["city"], row["grade"])
            rows.append(row.merged({"grade": grade}).to_dict())
        normalised = Table("source", SCHEMA, rows)
        assert check_get_put(self.LENS, normalised)
        view = self.LENS.get(normalised)
        assert check_put_get(self.LENS, normalised, view)


#: The join's reference side.  Tokyo is on no row (and a null city joins
#: nothing), so random sources hold rows the inner join hides.
REGIONS = Table("cities", Schema(
    columns=(Column("city", DataType.STRING, nullable=False),
             Column("region", DataType.STRING)),
    primary_key=("city",),
), [{"city": "Sapporo", "region": "Hokkaido"},
    {"city": "Osaka", "region": "Kansai"},
    {"city": "Kyoto", "region": "Kansai"}])
_joined_cities = st.sampled_from([row["city"] for row in REGIONS])
_any_city = st.one_of(st.none(), _cities)
_policies = st.sampled_from(list(DeletePolicy))


def join_lens(on_delete: DeletePolicy) -> JoinLens:
    return JoinLens("cities", on=("city",), columns=("region",),
                    resolve_table=lambda _name: REGIONS, on_delete=on_delete)


def hidden_rows(source: Table):
    return sorted((row.to_dict() for row in source
                   if not REGIONS.contains_key((row["city"],))),
                  key=lambda row: row["id"])


@st.composite
def edited_rows(draw, table: Table, cities):
    """Randomly update (name / grade / city), delete and insert rows of a copy
    of ``table``; returns the copy and whether anything was deleted.  A row
    that carries a ``region`` keeps it consistent with its city, as the
    enrichment is read-only through the join."""
    result = table.snapshot()
    enriched = result.schema.has_column("region")
    deleted = False

    def with_region(values):
        if enriched and "city" in values:
            values["region"] = REGIONS.get((values["city"],))["region"]
        return values

    for row in list(result):
        key = row.key(result.schema.primary_key)
        action = draw(st.sampled_from(["keep", "update", "delete"]))
        if action == "delete":
            result.delete_by_key(key)
            deleted = True
        elif action == "update":
            result.update_by_key(key, with_region(draw(st.sampled_from([
                {"name": draw(_names)},
                {"grade": draw(st.integers(min_value=0, max_value=100))},
                {"city": draw(cities)}]))))
    if draw(st.booleans()):
        # Past every source id, so an insert never lands on a hidden row.
        result.insert(with_region({
            "id": draw(st.integers(min_value=100, max_value=200)),
            "name": draw(_names),
            "grade": draw(st.integers(min_value=0, max_value=100)),
            "city": draw(cities)}))
    return result, deleted


class TestJoinLensProperties:
    @given(source_tables(cities=_any_city), _policies)
    @settings(max_examples=40, deadline=None)
    def test_join_get_put(self, source, policy):
        assert check_get_put(join_lens(policy), source)

    @given(st.data(), _policies)
    @settings(max_examples=60, deadline=None)
    def test_join_put_get_after_random_edits(self, data, policy):
        lens = join_lens(policy)
        source = data.draw(source_tables(min_rows=1, cities=_any_city))
        view, deleted = data.draw(edited_rows(lens.get(source), _joined_cities))
        if deleted and policy is DeletePolicy.FORBID:
            with pytest.raises(PutConflictError):
                lens.put(source, view)
            return
        assert check_put_get(lens, source, view)
        # The rows the join hides were never in the view: put keeps them.
        assert hidden_rows(lens.put(source, view)) == hidden_rows(source)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_join_get_delta_is_the_diff_of_gets(self, data):
        lens = join_lens(DeletePolicy.DELETE)
        source = data.draw(source_tables(cities=_any_city))
        # Source-side edits move rows into and out of the join (city changes
        # to and from Tokyo / null), not just across matched rows.
        updated, _ = data.draw(edited_rows(source, _any_city))
        view_delta = lens.get_delta(source.schema, diff_tables(source, updated))
        expected = diff_tables(lens.get(source), lens.get(updated))
        # Change for change (a diff lists deletes first, a translation
        # keeps the source diff's order — so compare by key).
        assert (sorted(view_delta.changes, key=lambda change: change.key)
                == sorted(expected.changes, key=lambda change: change.key))
        patched = lens.get(source)
        patched.apply_diff(view_delta)
        assert patched == lens.get(updated)
