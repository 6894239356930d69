"""Mid-query node failures through the real client → executor path.

The scenarios the churn tentpole must survive on both overlays:

(a) a node holding rehash fragments dies mid-query — fragments are lost,
    recall degrades, nothing hangs;
(b) the initiator's overlay neighbour dies while Fetch Matches gets are in
    flight — bounced requests retry, then complete empty;
(c) a statistics publisher dies — its ``__pier_stats__`` partial is purged
    at detection, its renewal stops, and AUTO queries keep planning.

Every scenario asserts the three churn invariants: the query terminates
(no hung pending gets), recall stays in (0, 1], and teardown is clean
(no leftover handles, per-node query state, probes or pending requests).
"""

import pytest

from repro.core.query import JoinStrategy
from repro.core.stats import STATS_NAMESPACE, StatsRegistry
from repro.harness import ChurnConfig, PierNetwork, SimulationConfig
from repro.metrics.recall import recall as compute_recall
from repro.workloads import JoinWorkload, WorkloadConfig

NUM_NODES = 16
#: Renewal / lifetime parameters for the scenarios that need soft state.
REFRESH_PERIOD_S = 20.0
DATA_LIFETIME_S = 40.0
STATS_LIFETIME_S = 60.0


def build_churn_pier(dht, rate_per_min=0.0, renewal=False, **churn_overrides):
    """A failure-aware deployment with the benchmark workload loaded."""
    churn = ChurnConfig(failure_rate_per_min=rate_per_min, seed=5,
                        **churn_overrides)
    pier = PierNetwork(SimulationConfig(num_nodes=NUM_NODES, dht=dht, seed=7,
                                        churn=churn))
    workload = JoinWorkload(WorkloadConfig(num_nodes=NUM_NODES,
                                           s_tuples_per_node=2, seed=11))
    if renewal:
        pier.start_renewal_agents(REFRESH_PERIOD_S)
    load = dict(fast=True, track_renewal=renewal,
                stats_lifetime=STATS_LIFETIME_S)
    if renewal:
        load["lifetime"] = DATA_LIFETIME_S
    pier.load_relation(workload.r_relation, workload.r_by_node, **load)
    pier.load_relation(workload.s_relation, workload.s_by_node, **load)
    return pier, workload


def assert_clean_teardown(pier, query_id):
    """No handles, per-node state, probes or pending gets anywhere."""
    for executor in pier.executors.values():
        assert not executor.has_query_state(query_id)
        assert query_id not in executor._handles
    for provider in pier.providers.values():
        assert provider.pending_get_count(query_id) == 0


# ------------------------------------------------- (a) rehash-target failure


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_rehash_target_failure_degrades_recall_without_hanging(dht):
    pier, workload = build_churn_pier(dht)
    client = pier.client(catalog=workload.catalog())
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    cursor = client.query(query, timeout_s=60.0)
    # Let the query flood and the first rehash puts get moving, then kill a
    # node that owns part of the rehash namespace (never the initiator).
    pier.run(until=pier.now + 0.25)
    namespace = query.rehash_namespace()
    victim = next(
        owner for owner in
        (pier.owner_of(namespace, join_value) for join_value in range(64))
        if owner != 0
    )
    pier.failure_injector.fail_now(victim)

    rows = cursor.fetchall(drain=True)
    result = compute_recall(rows, workload.expected_results())
    assert 0.0 < result <= 1.0
    assert cursor.closed
    report = cursor.completeness()
    assert report.gets_pending == 0
    assert_clean_teardown(pier, query.query_id)


# ------------------------------------- (b) initiator-neighbour failure, gets


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_initiator_neighbor_failure_mid_fetch_matches(dht):
    pier, workload = build_churn_pier(dht)
    client = pier.client(catalog=workload.catalog())
    query = workload.make_query(strategy=JoinStrategy.FETCH_MATCHES)
    cursor = client.query(query, timeout_s=90.0)
    pier.run(until=pier.now + 0.25)
    victim = pier.routings[0].neighbors()[0]
    assert victim != 0
    pier.failure_injector.fail_now(victim)

    rows = cursor.fetchall(drain=True)
    result = compute_recall(rows, workload.expected_results())
    assert 0.0 < result <= 1.0
    report = cursor.completeness()
    # Every get the query issued resolved one way or another: completed,
    # failed fast (bounce/unresolved/timeout), or still counted pending at
    # the pre-teardown snapshot — and nothing is left pending afterwards.
    assert report.gets_issued == (report.gets_completed + report.gets_failed
                                  + report.gets_pending)
    assert_clean_teardown(pier, query.query_id)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_semi_join_pair_fetches_survive_failure(dht):
    pier, workload = build_churn_pier(dht)
    client = pier.client(catalog=workload.catalog())
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_SEMI_JOIN)
    cursor = client.query(query, timeout_s=90.0)
    pier.run(until=pier.now + 0.6)  # rehash projections landing, fetches start
    victim = next(address for address in pier.network.live_addresses()
                  if address != 0)
    pier.failure_injector.fail_now(victim)

    rows = cursor.fetchall(drain=True)
    result = compute_recall(rows, workload.expected_results())
    assert 0.0 < result <= 1.0
    assert_clean_teardown(pier, query.query_id)


# ---------------------------------------------- (c) stats-publisher failure


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_stats_publisher_failure_ages_out_partials(dht):
    pier, workload = build_churn_pier(dht, renewal=True)
    publisher = next(address for address in range(1, NUM_NODES)
                     if workload.r_by_node[address])
    lost = len(workload.r_by_node[publisher])
    total = pier.relation_stats.get("R").cardinality
    agent = pier.renewal_agents[publisher]
    assert agent.tracked_count(STATS_NAMESPACE) > 0

    pier.failure_injector.fail_now(publisher)
    # Past the detection delay: live owners purge the dead publisher's
    # partials, and its renewal agent must no longer resurrect them.
    pier.run(until=pier.now + 16.0)
    assert agent.tracked_count(STATS_NAMESPACE) == 0
    assert agent.tracked_count(workload.r_relation.namespace) > 0  # Fig. 6

    def fetch_merged_cardinality():
        registry = StatsRegistry()
        seen = []
        registry.fetch_relation(pier.providers[0], "R", seen.append)
        pier.run(until=pier.now + 5.0)
        assert seen, "stats fetch did not resolve"
        return 0 if seen[0] is None else seen[0].cardinality

    assert fetch_merged_cardinality() == total - lost
    # Several renewal periods later (identity recovered long ago) the dead
    # publisher's partial must not have been re-published.
    pier.run(until=pier.now + 3 * REFRESH_PERIOD_S)
    assert fetch_merged_cardinality() == total - lost

    # AUTO still plans from the surviving partials and the query completes.
    client = pier.client(catalog=workload.catalog())
    cursor = client.query(workload.make_query(strategy=JoinStrategy.AUTO),
                          timeout_s=45.0)
    rows = cursor.fetchall(drain=False)
    result = compute_recall(rows, workload.expected_results())
    assert 0.0 < result <= 1.0
    pier.run(until=pier.now + 5.0)
    assert_clean_teardown(pier, cursor.query_id)


# ------------------------------------------------------ continuous injection


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_queries_terminate_under_continuous_churn(dht):
    pier, workload = build_churn_pier(dht, rate_per_min=2.0, renewal=True)
    client = pier.client(catalog=workload.catalog())
    pier.run(until=pier.now + 10.0)  # churn warm-up
    for strategy in (JoinStrategy.SYMMETRIC_HASH, JoinStrategy.BLOOM):
        live = pier.reachable_snapshot()
        expected = workload.expected_results(live_publishers=live)
        query = workload.make_query(strategy=strategy)
        cursor = client.query(query, timeout_s=40.0)
        rows = cursor.fetchall(drain=False)
        result = compute_recall(rows, expected)
        assert 0.0 < result <= 1.0
        pier.run(until=pier.now + 5.0)  # teardown flood settles
        assert_clean_teardown(pier, query.query_id)
    assert pier.failure_injector.events, "churn injected no failures"


# --------------------------------------------------- provider-level plumbing


def test_cancel_pending_sweeps_scoped_requests():
    pier, workload = build_churn_pier("can")
    provider = pier.providers[0]
    fired = []
    provider.get(workload.s_relation.namespace, 3, fired.append, scope=99)
    provider.get_batch(workload.s_relation.namespace, [4, 5],
                       lambda rid, items: fired.append((rid, items)), scope=99)
    dropped = provider.cancel_pending(99)
    pier.run_until_idle()
    assert dropped >= 1
    assert provider.pending_get_count(99) == 0
    # Replies to cancelled requests are dropped, not delivered.
    assert all(item == [] or item[1] == [] for item in fired) or not fired


def test_get_times_out_when_overlay_dead_ends():
    pier, workload = build_churn_pier("can")
    provider = pier.providers[0]
    assert provider.request_timeout_s is not None
    for neighbor in pier.routings[0].neighbors():
        pier.failure_injector.fail_now(neighbor)
    # Remote key, every first hop dead: the lookup can never resolve.  The
    # routing layer reports the key unresolved and the request completes
    # empty; the timeout lane is the backstop for what it cannot report.
    resource_id = next(
        rid for rid in range(64)
        if pier.owner_of(workload.s_relation.namespace, rid) != 0
    )
    results = []
    provider.get(workload.s_relation.namespace, resource_id, results.append,
                 scope=7)
    horizon = provider.request_timeout_s * (provider.request_retries + 1) + 5.0
    pier.run(until=pier.now + horizon)
    assert results == [[]]
    assert provider.pending_get_count(7) == 0
    assert provider.scope_report(7)["failed"] == 1


def test_dead_end_get_completes_within_one_round_trip():
    """A scalar get whose route dead-ends does not wait for its timers."""
    pier, workload = build_churn_pier("can")
    provider = pier.providers[0]
    for neighbor in pier.routings[0].neighbors():
        pier.failure_injector.fail_now(neighbor)
    namespace = workload.s_relation.namespace
    resource_id = next(rid for rid in range(64)
                       if pier.owner_of(namespace, rid) != 0)
    issued_at = pier.now
    completions = []
    provider.get(namespace, resource_id,
                 lambda items: completions.append((pier.now - issued_at, items)),
                 scope=8)
    pier.run(until=issued_at + provider.request_timeout_s
             * (provider.request_retries + 1) + 5.0)
    assert [items for _elapsed, items in completions] == [[]]
    # Bounces off the dead first hops plus the unresolved report: well
    # under a second, against two request timeouts (20 s) for the timers.
    assert completions[0][0] < 1.0 < provider.request_timeout_s
    assert provider.scope_report(8) == {
        "issued": 1, "completed": 0, "failed": 1, "pending": 0}


def remote_and_local_ids(pier, namespace, remote=2):
    """``remote`` resourceIDs owned elsewhere, and one owned by node 0."""
    rids = range(256)
    far = [rid for rid in rids if pier.owner_of(namespace, rid) != 0][:remote]
    near = next(rid for rid in rids if pier.owner_of(namespace, rid) == 0)
    return far, near


def test_get_batch_ids_count_as_pending_from_issue():
    """issued == completed + failed + pending holds at every instant."""
    pier, workload = build_churn_pier("can")
    provider = pier.providers[0]
    namespace = workload.s_relation.namespace
    far, near = remote_and_local_ids(pier, namespace)
    answered = []
    provider.get_batch(namespace, far + [near],
                       lambda rid, items: answered.append(rid), scope=41)
    # The locally owned id resolves synchronously; the remote ones are
    # pending while their lookups route.
    assert answered == [near]
    assert provider.scope_report(41) == {
        "issued": 3, "completed": 1, "failed": 0, "pending": 2}
    pier.run_until_idle()
    assert sorted(answered) == sorted(far + [near])
    assert provider.scope_report(41) == {
        "issued": 3, "completed": 3, "failed": 0, "pending": 0}


def test_cancel_pending_counts_ids_whose_lookups_are_routing():
    pier, workload = build_churn_pier("can")
    provider = pier.providers[0]
    namespace = workload.s_relation.namespace
    far, _near = remote_and_local_ids(pier, namespace)
    fired = []
    provider.get_batch(namespace, far,
                       lambda rid, items: fired.append(rid), scope=42)
    assert provider.cancel_pending(42) == len(far)
    pier.run_until_idle()
    assert fired == []
    assert provider.pending_get_count(42) == 0


def test_churn_free_deployment_matches_seed_behaviour():
    """Without a ChurnConfig nothing new is armed: no injector, no timers."""
    pier = PierNetwork(SimulationConfig(num_nodes=8, seed=7))
    assert pier.failure_injector is None
    assert pier.providers[0].request_timeout_s is None
    assert pier.executors[0].failure_aware is False
