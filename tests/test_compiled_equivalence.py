"""Equivalence with the reference semantics: same values, same rows.

The executor runs one pipeline: slotted rows through closures compiled at
plan time.  Two properties pin it to the reference semantics:

* every compiled expression evaluates to what :meth:`Expression.evaluate`
  returns on the equivalent dict row (or fails with the same error class);
* every join strategy (AUTO included), a selection-only scan and the flat,
  hierarchical and initiator aggregation shapes return exactly the result
  multiset of the centralized oracle (``tests/oracle.py``), on CAN and
  Chord alike.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expressions import (
    And,
    Arithmetic,
    Comparison,
    FunctionCall,
    Not,
    Or,
    col,
    compare,
    compile_expression,
    lit,
)
from repro.core.opgraph import OpKind, build_opgraph, compile_graph
from repro.core.query import JoinClause, JoinStrategy, QuerySpec, TableRef
from repro.core.sql import SQLPlanner
from repro.core.tuples import RowLayout
from repro.exceptions import ExpressionError, SchemaError
from repro.harness import run_query
from repro.workloads import JoinWorkload, NetworkMonitoringWorkload, WorkloadConfig
from tests.conftest import build_pier, build_workload, load_join_tables
from tests.oracle import all_rows, assert_same_rows, oracle_rows

# --------------------------------------------------------------- expressions

#: Layout of the post-join environment the fixtures evaluate against.
MERGED_LAYOUT = RowLayout(
    ["R.pkey", "R.num1", "R.num2", "R.num3", "S.pkey", "S.num2", "S.num3"]
)

#: Every expression shape the engine compiles, including the fig-3 query's
#: predicates, qualified/bare resolution fallbacks and failure cases.
EXPRESSION_FIXTURES = [
    lit(42),
    col("R.num2"),
    col("num1"),                      # bare name, unique suffix match
    col("R.missing"),                 # absent column -> ExpressionError
    col("num2"),                      # ambiguous (R.num2 / S.num2)
    compare("R.num2", ">", 50.0),     # fig-3 local predicate shape
    compare("S.num2", ">", 25.0),
    Comparison("=", col("R.num1"), col("S.pkey")),   # the equi-join condition
    Comparison("!=", col("R.pkey"), lit(3)),
    Comparison("<=", col("num3"), lit(10.0)),        # ambiguous -> error
    Arithmetic("+", col("R.num2"), col("S.num2")),
    Arithmetic("*", Arithmetic("-", col("R.num3"), lit(1.0)), lit(2.5)),
    Arithmetic("/", col("R.num2"), col("S.num2")),   # may divide by zero
    And([compare("R.num2", ">", 10.0), compare("S.num2", "<", 90.0)]),
    And([compare("R.num2", ">", 10.0), compare("S.num2", "<", 90.0),
         compare("R.num1", ">=", 0)]),
    Or([compare("R.num2", ">", 99.0), compare("S.num2", "<", 1.0)]),
    Not(compare("R.num3", ">", 50.0)),
    ~(compare("R.num2", ">", 5.0) & compare("S.num3", ">", 5.0)),
    # The paper's post-join UDF predicate f(R.num3, S.num3) > c.
    Comparison(">", FunctionCall("f", (col("R.num3"), col("S.num3"))), lit(50.0)),
    FunctionCall("f", (col("R.num3"), lit(7.0))),
    FunctionCall("nope", (col("R.num3"),)),          # unregistered UDF
]


def _outcome(action):
    """Value or error class of a callable, for exact-behaviour comparison."""
    try:
        return ("ok", action())
    except Exception as error:  # noqa: BLE001 - class equality is the contract
        return ("error", type(error))


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(st.integers(min_value=-100, max_value=100),
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    min_size=len(MERGED_LAYOUT), max_size=len(MERGED_LAYOUT)))
def test_every_fixture_expression_is_equivalent_compiled(values):
    slotted = tuple(values)
    environment = dict(zip(MERGED_LAYOUT.names, slotted))
    for expression in EXPRESSION_FIXTURES:
        reference = _outcome(lambda e=expression: e.evaluate(environment))
        compiled = _outcome(lambda e=expression: e.compile(MERGED_LAYOUT)(slotted))
        assert reference == compiled, f"{expression!r} diverged: " \
            f"evaluate={reference} compiled={compiled}"


def test_resolution_errors_surface_at_compile_time():
    layout = RowLayout(["R.num2", "S.num2", "R.pkey"])
    with pytest.raises(ExpressionError):
        col("missing").compile(layout)
    with pytest.raises(ExpressionError):
        col("num2").compile(layout)  # ambiguous across R and S
    # Qualified->bare and bare->qualified fallbacks resolve like evaluate().
    bare = RowLayout(["num2", "pkey"])
    assert col("R.num2").compile(bare)((1.5, 7)) == 1.5
    assert col("pkey").compile(layout)((0, 0, 9)) == 9


def test_compile_expression_passes_none_through():
    assert compile_expression(None, MERGED_LAYOUT) is None


def test_projection_errors_match_interpreted():
    from repro.core.tuples import project_row

    layout = RowLayout(["a", "b"])
    with pytest.raises(SchemaError):
        layout.getter(["a", "zap"])
    with pytest.raises(SchemaError):
        project_row({"a": 1, "b": 2}, ["a", "zap"])


# ------------------------------------------------------------ join strategies


def _join_relations(workload):
    return {
        workload.r_relation.name: all_rows(workload.r_by_node),
        workload.s_relation.name: all_rows(workload.s_by_node),
    }


def _run_join(query, workload, dht, num_nodes):
    pier = build_pier(num_nodes, dht=dht)
    load_join_tables(pier, workload)
    return run_query(pier, query, initiator=0).handle.rows


def test_oracle_reproduces_the_fig3_golden_answer():
    workload = build_workload(16)
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    expected = oracle_rows(query, _join_relations(workload))
    assert expected
    assert_same_rows(expected, workload.expected_results())


# ``list(JoinStrategy)`` deliberately includes AUTO: the cost-based plan must
# return the oracle's rows too.
@pytest.mark.parametrize("dht", ["can", "chord"])
@pytest.mark.parametrize("strategy", list(JoinStrategy))
def test_all_join_strategies_match_oracle(strategy, dht):
    workload = build_workload(16)
    query = workload.make_query(strategy=strategy)
    expected = oracle_rows(query, _join_relations(workload))
    assert expected, "workload must produce rows for the comparison to bite"
    assert_same_rows(_run_join(query, workload, dht, 16), expected)


def test_join_without_local_predicates_matches_oracle():
    """No selections and no residual: every key match crosses the boundary."""
    workload = build_workload(12)
    query = QuerySpec(
        tables=[TableRef(workload.r_relation, "R"),
                TableRef(workload.s_relation, "S")],
        output_columns=["R.pkey", "S.pkey", "S.num3"],
        join=JoinClause("R", "num1", "S", "pkey"),
    )
    expected = oracle_rows(query, _join_relations(workload))
    assert expected
    assert_same_rows(_run_join(query, workload, "can", 12), expected)


# ------------------------------------------------------- scans and aggregation


def _monitoring_rows(sql, dht, hierarchical=False, distributed=True):
    workload = NetworkMonitoringWorkload(num_nodes=20, seed=5)
    pier = build_pier(20, dht=dht)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    query = SQLPlanner(workload.catalog()).plan_sql(sql)
    query.hierarchical_aggregation = hierarchical
    query.distributed_aggregation = distributed
    relations = {"intrusions": all_rows(workload.intrusions_by_node)}
    expected = oracle_rows(query, relations)
    result = run_query(pier, query, initiator=0)
    return result.rows, expected


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_selection_scan_matches_oracle(dht):
    rows, expected = _monitoring_rows(
        "SELECT I.report_id, I.fingerprint, I.port FROM intrusions I "
        "WHERE I.port > 100", dht)
    assert expected
    assert_same_rows(rows, expected)


@pytest.mark.parametrize("dht", ["can", "chord"])
@pytest.mark.parametrize("variant", ["flat", "hierarchical", "initiator"])
def test_aggregation_matches_oracle(variant, dht):
    """GROUP BY with exact aggregates, a derived column and HAVING."""
    kwargs = {
        "flat": dict(),
        "hierarchical": dict(hierarchical=True),
        "initiator": dict(distributed=False),
    }[variant]
    rows, expected = _monitoring_rows(
        "SELECT I.fingerprint, count(*) AS cnt, max(I.port) AS hi, "
        "min(I.port) AS lo, avg(I.port) AS mean, "
        "count(*) * sum(I.port) AS score "
        "FROM intrusions I GROUP BY I.fingerprint HAVING cnt > 2",
        dht, **kwargs)
    assert expected and all("score" in row for row in expected)
    assert_same_rows(rows, expected)


def test_fully_filtered_scan_produces_zero_results_end_to_end():
    """A predicate that rejects every row sends nothing through rehash and
    probe, without hanging or erroring."""
    workload = build_workload(8)
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    query.local_predicates["R"] = compare("R.num2", ">", 1e9)
    assert oracle_rows(query, _join_relations(workload)) == []
    assert _run_join(query, workload, "can", 8) == []


# ------------------------------------------------------------- plan time


def test_compiled_graph_covers_every_scan_chain():
    workload = JoinWorkload(WorkloadConfig(num_nodes=8, seed=3))
    query = workload.make_query(strategy=JoinStrategy.BLOOM)
    graph = build_opgraph(query)
    compiled = compile_graph(graph)
    scans = graph.nodes_of_kind(OpKind.SCAN)
    assert scans
    assert sorted(compiled.chains) == sorted(scan.op_id for scan in scans)


def test_bad_predicate_raises_expression_error_at_plan_time():
    """A predicate over a nonexistent column fails when the graph is
    compiled, as an ExpressionError while the simulation advances."""
    workload = build_workload(8)
    pier = build_pier(8)
    load_join_tables(pier, workload)
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    query.local_predicates["R"] = compare("no_such_column", ">", 1)
    with pytest.raises(ExpressionError):
        run_query(pier, query, initiator=0)
