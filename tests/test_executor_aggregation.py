"""Integration tests for distributed aggregation, SQL execution and monitoring queries."""

import pytest

from repro.core.query import AggregateSpec, JoinStrategy, QuerySpec, TableRef
from repro.core.sql import SQLPlanner
from repro.harness import run_query
from repro.workloads import NetworkMonitoringWorkload
from tests.conftest import build_pier


def build_monitoring(num_nodes=20, **overrides):
    workload = NetworkMonitoringWorkload(num_nodes=num_nodes, seed=5, **overrides)
    pier = build_pier(num_nodes)
    pier.load_relation(workload.intrusions, workload.intrusions_by_node)
    pier.load_relation(workload.reputation, workload.reputation_by_node)
    pier.load_relation(workload.spam_gateways, workload.spam_by_node)
    pier.load_relation(workload.robots, workload.robots_by_node)
    return pier, workload, SQLPlanner(workload.catalog())


# --------------------------------------------------- distributed aggregation


def test_distributed_count_matches_golden_summary():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql(
        "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
        "GROUP BY I.fingerprint HAVING cnt > 10"
    )
    result = run_query(pier, query, initiator=0)
    got = sorted((row["I.fingerprint"], row["cnt"]) for row in result.rows)
    assert got == workload.expected_attack_summary(10)


def test_distributed_aggregation_without_having_returns_every_group():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql(
        "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I GROUP BY I.fingerprint"
    )
    result = run_query(pier, query, initiator=0)
    golden_groups = {
        row["fingerprint"]
        for rows in workload.intrusions_by_node.values()
        for row in rows
    }
    assert {row["I.fingerprint"] for row in result.rows} == golden_groups
    total = sum(row["cnt"] for row in result.rows)
    assert total == sum(len(rows) for rows in workload.intrusions_by_node.values())


def test_min_max_avg_sum_aggregates_distributed():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql(
        "SELECT count(*) AS cnt, min(I.port) AS lo, max(I.port) AS hi, "
        "avg(I.port) AS mean, sum(I.port) AS total FROM intrusions I"
    )
    result = run_query(pier, query, initiator=0)
    assert len(result.rows) == 1
    row = result.rows[0]
    ports = [r["port"] for rows in workload.intrusions_by_node.values() for r in rows]
    assert row["cnt"] == len(ports)
    assert row["lo"] == min(ports)
    assert row["hi"] == max(ports)
    assert row["total"] == sum(ports)
    assert row["mean"] == pytest.approx(sum(ports) / len(ports))


def test_hierarchical_aggregation_matches_flat_results():
    pier_flat, workload, planner = build_monitoring()
    sql = ("SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
           "GROUP BY I.fingerprint")
    flat = run_query(pier_flat, planner.plan_sql(sql), initiator=0)

    pier_tree, workload_tree, planner_tree = build_monitoring()
    tree_query = planner_tree.plan_sql(sql)
    tree_query.hierarchical_aggregation = True
    tree = run_query(pier_tree, tree_query, initiator=0)

    flat_counts = {row["I.fingerprint"]: row["cnt"] for row in flat.rows}
    tree_counts = {row["I.fingerprint"]: row["cnt"] for row in tree.rows}
    assert flat_counts == tree_counts


def test_hierarchical_aggregation_reduces_group_owner_inbound_messages():
    """The combiner tree trades extra hops for lower fan-in at the group owner."""
    pier_flat, _workload, planner = build_monitoring(num_nodes=32)
    sql = "SELECT count(*) AS cnt FROM intrusions I"
    flat_query = planner.plan_sql(sql)
    flat = run_query(pier_flat, flat_query, initiator=0)
    flat_owner = pier_flat.owner_of(flat_query.aggregation_namespace(), ("agg-l0", ()))
    # Partial aggregates travel via prov.put_batch; the flat plan must ship
    # partials.
    flat_stats = pier_flat.network.stats.protocol_messages
    flat_inbound_msgs = flat_stats.get("prov.put_batch", 0)

    pier_tree, _workload2, planner2 = build_monitoring(num_nodes=32)
    tree_query = planner2.plan_sql(sql)
    tree_query.hierarchical_aggregation = True
    tree = run_query(pier_tree, tree_query, initiator=0)

    assert flat.rows[0]["cnt"] == tree.rows[0]["cnt"]
    # Flat: every node puts its partial directly to the single group owner.
    flat_owner_inbound = pier_flat.network.stats.inbound_bytes.get(flat_owner, 0)
    tree_owner = pier_tree.owner_of(tree_query.aggregation_namespace(), ("agg-l0", ()))
    tree_owner_inbound = pier_tree.network.stats.inbound_bytes.get(tree_owner, 0)
    assert flat_inbound_msgs > 0
    assert tree_owner_inbound <= flat_owner_inbound


# ---------------------------------------------------------- initiator-side agg


def test_join_with_aggregation_computes_weighted_counts():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql(
        "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt "
        "FROM intrusions I, reputation R WHERE R.address = I.address "
        "GROUP BY I.fingerprint HAVING wcnt > 10"
    )
    result = run_query(pier, query, initiator=0)
    # Golden computation: every intrusion joins its reporter's single
    # reputation row, so per fingerprint wcnt = count * sum(weight of reports).
    weights = {
        row["address"]: row["weight"]
        for rows in workload.reputation_by_node.values()
        for row in rows
    }
    golden = {}
    for rows in workload.intrusions_by_node.values():
        for row in rows:
            entry = golden.setdefault(row["fingerprint"], [0, 0.0])
            entry[0] += 1
            entry[1] += weights[row["address"]]
    expected = {
        fingerprint: count * total
        for fingerprint, (count, total) in golden.items()
        if count * total > 10
    }
    got = {row["I.fingerprint"]: row["wcnt"] for row in result.rows}
    assert set(got) == set(expected)
    for fingerprint, value in expected.items():
        assert got[fingerprint] == pytest.approx(value)


def test_spam_gateway_robot_join_finds_compromised_sources():
    pier, workload, planner = build_monitoring(num_nodes=30)
    query = planner.plan_sql(
        "SELECT S.source FROM spamGateways AS S, robots AS R "
        "WHERE S.smtpGWDomain = R.clientDomain"
    )
    result = run_query(pier, query, initiator=0)
    assert sorted({row["S.source"] for row in result.rows}) == \
        workload.expected_compromised_sources()


# ---------------------------------------------------------------- scan query


def test_simple_scan_query_returns_selected_columns():
    pier, workload, planner = build_monitoring()
    query = planner.plan_sql("SELECT I.fingerprint FROM intrusions I WHERE I.port = 22")
    result = run_query(pier, query, initiator=0)
    expected = [
        row["fingerprint"]
        for rows in workload.intrusions_by_node.values()
        for row in rows if row["port"] == 22
    ]
    assert sorted(row["I.fingerprint"] for row in result.rows) == sorted(expected)
    for row in result.rows:
        assert set(row) == {"I.fingerprint"}


# ------------------------------------------------------- hand-built QuerySpec


def test_hand_built_aggregation_query_without_sql():
    pier, workload, _planner = build_monitoring()
    query = QuerySpec(
        tables=[TableRef(workload.intrusions, "I")],
        group_by=["I.fingerprint"],
        aggregates=[AggregateSpec("count", None, "cnt")],
        strategy=JoinStrategy.SYMMETRIC_HASH,
    )
    result = run_query(pier, query, initiator=2)
    total = sum(row["cnt"] for row in result.rows)
    assert total == sum(len(rows) for rows in workload.intrusions_by_node.values())
