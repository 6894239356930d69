"""Unit tests for aggregate states and the group-by state the executor uses."""

import pytest

from repro.core.executor import build_group_by, finalize_aggregation_rows
from repro.core.expressions import Comparison, col, lit
from repro.core.opgraph import build_opgraph, compile_graph
from repro.core.operators import GroupByAggregate, make_aggregate
from repro.core.operators.aggregate import (
    AvgState,
    CountState,
    MaxState,
    MinState,
    SumState,
    state_from_payload,
)
from repro.core.query import AggregateSpec, QuerySpec, TableRef
from repro.core.tuples import Column, RelationDef, Schema
from repro.exceptions import QueryError


ROWS = [
    {"pkey": 1, "num2": 30.0, "group": "a"},
    {"pkey": 2, "num2": 70.0, "group": "a"},
    {"pkey": 3, "num2": 90.0, "group": "b"},
]

RELATION = RelationDef("T", Schema([Column(name, "any")
                                    for name in ("pkey", "num2", "group")]))


# ------------------------------------------------------------------ aggregates


def test_aggregate_states_basic_results():
    count, total, avg = CountState(), SumState(), AvgState()
    low, high = MinState(), MaxState()
    for value in (5, 10, 15):
        count.add(value)
        total.add(value)
        avg.add(value)
        low.add(value)
        high.add(value)
    assert count.result() == 3
    assert total.result() == 30
    assert avg.result() == pytest.approx(10.0)
    assert low.result() == 5
    assert high.result() == 15


def test_aggregate_states_ignore_none():
    count = CountState()
    count.add(None)
    count.add(1)
    assert count.result() == 1
    assert SumState().result() is None
    assert MinState().result() is None


def test_aggregate_merge_equals_single_pass():
    values = list(range(20))
    split = 7
    for factory in (CountState, SumState, AvgState, MinState, MaxState):
        single = factory()
        for value in values:
            single.add(value)
        left, right = factory(), factory()
        for value in values[:split]:
            left.add(value)
        for value in values[split:]:
            right.add(value)
        left.merge(right)
        assert left.result() == single.result()


def test_aggregate_payload_round_trip():
    for factory in (CountState, SumState, AvgState, MinState, MaxState):
        state = factory()
        state.add(3)
        state.add(9)
        restored = state_from_payload(state.to_payload())
        assert restored.result() == state.result()


def test_make_aggregate_rejects_unknown_function():
    with pytest.raises(QueryError):
        make_aggregate("median")
    with pytest.raises(QueryError):
        state_from_payload(("median", 1))


def test_group_by_aggregate_groups_and_having():
    query = QuerySpec(
        tables=[TableRef(RELATION, "T")],
        group_by=["group"],
        aggregates=[AggregateSpec("count", None, "cnt"),
                    AggregateSpec("sum", "num2", "total")],
        having=Comparison(">", col("cnt"), lit(1)),
    )
    aggregate = build_group_by(query)
    for row in ROWS:
        aggregate.add_row(row)
    rows = finalize_aggregation_rows(query, aggregate)
    assert rows == [{"group": "a", "cnt": 2, "total": 100.0}]
    assert aggregate.group_count == 2


def test_group_by_aggregate_global_group():
    aggregate = GroupByAggregate(group_by=[], aggregates=[("count", None, "cnt")])
    for row in ROWS:
        aggregate.add_row(row)
    assert aggregate.result_rows() == [{"cnt": 3}]


def test_group_by_aggregate_merge_partials():
    partial_a = GroupByAggregate(["group"], [("count", None, "cnt")])
    partial_b = GroupByAggregate(["group"], [("count", None, "cnt")])
    for row in ROWS[:2]:
        partial_a.add_row(row)
    for row in ROWS[2:]:
        partial_b.add_row(row)
    final = GroupByAggregate(["group"], [("count", None, "cnt")])
    for partial in (partial_a, partial_b):
        for group_key, payloads in partial.partial_payloads().items():
            final.merge_partial(group_key, payloads)
    rows = {row["group"]: row["cnt"] for row in final.result_rows()}
    assert rows == {"a": 2, "b": 1}


def test_group_by_missing_column_raises():
    """Grouping on a column the scanned rows lack fails at plan time."""
    query = QuerySpec(
        tables=[TableRef(RELATION, "T")],
        group_by=["T.missing"],
        aggregates=[AggregateSpec("count", None, "cnt")],
    )
    with pytest.raises(QueryError):
        compile_graph(build_opgraph(query))


def test_group_by_add_row_missing_column_raises():
    """Initiator-side aggregation reports a row lacking a group-by column."""
    aggregate = GroupByAggregate(["missing"], [("count", None, "cnt")])
    with pytest.raises(QueryError, match="group-by column missing"):
        aggregate.add_row(ROWS[0])
