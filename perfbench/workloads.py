"""The benchmark's workloads: deployments, one operation each, and oracles.

Every workload is driven by one closed-loop client issuing one operation at
a time through the public :class:`repro.client.PierClient` API.  The inputs
are generated from the run's seed before set-up; the deployment sees only
the generated rows.  After each operation the workload checks the answer
against an oracle computed from the generated rows and checks, through
public accessors, that the query left nothing behind.  Any mismatch,
leftover, exception or timeout makes the operation fail; nothing is
asserted away.

* ``fig3_can`` — the paper's Section 5.1 R⋈S query with symmetric hash join
  on every node of a 512-node full-mesh CAN (10 ms coalescing window).  The
  paper's headline figure; routing- and event-loop-bound, and write-side
  DHT traffic (rehash ``put_chunk``/``put_batch``).
* ``fetch_chord`` — the same query with Fetch Matches on a 512-node Chord
  (zero coalescing window): the same DHT layers used for reads
  (``get_batch``) on the other overlay, so a CAN-only routing change
  should show no change here.
* ``monitor_mix`` — one dashboard refresh: the five Section 2.1
  network-monitoring queries in sequence over 64 nodes with 200 intrusion
  reports each.  The only storage-, Provider- and executor-bound
  workload: skewed join keys, aggregation and sketches.
* ``tcp_join`` — the R⋈S query on a 2-process localhost TCP cluster, run
  with symmetric hash and then Fetch Matches; the only workload that
  reaches the wire codec and the remote client.  Its nodes run through
  ``perfbench/tcpnode.py``, which adds an RPC reporting each node's
  transport counters, so traffic is the bytes the node processes receive.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.client import CompletenessReport, ResultCursor
from repro.core.opgraph import build_opgraph
from repro.core.query import JoinStrategy
from repro.core.stats import STATS_NAMESPACE
from repro.harness import PierNetwork, SimulationConfig
from repro.harness.realcluster import LocalCluster
from repro.sketches.hll import HyperLogLog
from repro.workloads import JoinWorkload, NetworkMonitoringWorkload, WorkloadConfig

#: HyperLogLog standard error at the register count APPROX COUNT DISTINCT
#: uses by default (1.04 / sqrt(4096)).
HLL_STANDARD_ERROR = 1.04 / math.sqrt(1 << 12)
#: How long a TCP query may take to deliver the oracle's row count.
TCP_QUERY_TIMEOUT_S = 30.0
#: How long teardown may take to clear every node of a TCP cluster.
TCP_TEARDOWN_TIMEOUT_S = 5.0
#: Node program of the TCP cluster: ``repro.node`` plus a traffic RPC.
TCP_NODE_SCRIPT = str(Path(__file__).with_name("tcpnode.py"))


@dataclass
class OpResult:
    """What one operation produced and cost."""

    wall_s: float
    t_first_row_s: Optional[float] = None
    t_30th_row_s: Optional[float] = None
    t_last_row_s: Optional[float] = None
    traffic_bytes: Optional[int] = None
    max_inbound_bytes: Optional[int] = None
    #: ``None`` when the answer and the lifecycle checks passed.
    error: Optional[str] = None
    #: Exact counters that must repeat for a given seed (simulator only).
    exact: Optional[List[Any]] = None
    #: Key identifying the operation across runs of the same seed.
    op_key: Optional[str] = None
    #: Per-layer counters the deployment exposes without tracing.
    counters: Dict[str, float] = field(default_factory=dict)


def row_multiset(rows: Sequence[dict]) -> Counter:
    """Rows as a multiset of canonical tuples."""
    return Counter(tuple(sorted(row.items())) for row in rows)


def kth_times(times: Sequence[float]) -> Tuple[Optional[float], ...]:
    """First, 30th and last of ascending arrival times (``None`` if absent)."""
    if not times:
        return None, None, None
    return times[0], times[29] if len(times) >= 30 else None, times[-1]


class Workload:
    """One benchmark workload: inputs, deployment, and its operation."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        #: Runs timed code inside the tracer's root span when tracing.
        self.timed: Callable[[Callable[[], Any]], Any] = lambda fn: fn()

    def build(self) -> None:
        """Build and load the deployment (the timed set-up)."""
        raise NotImplementedError

    def run_op(self, index: int) -> OpResult:
        """Run operation ``index`` and check it."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the deployment, if one is built."""

    def _clock(self, fn: Callable[[], Any]) -> Tuple[float, Any]:
        started = time.perf_counter()
        value = self.timed(fn)
        return time.perf_counter() - started, value


class SimWorkload(Workload):
    """A workload on the discrete-event simulator."""

    pier: Optional[PierNetwork] = None

    def close(self) -> None:
        self.pier = None

    def _begin(self) -> Dict[str, Any]:
        """Snapshot the counters an operation is measured against."""
        network = self.pier.network
        network.stats.reset()
        return {
            "events": network.simulator.events_processed,
            "coalesced": network.messages_coalesced,
            "hops": [len(r.lookup_hops_observed)
                     for r in self.pier.routings.values()],
        }

    def _finish(self, result: OpResult, before: Dict[str, Any],
                cursors: Sequence[ResultCursor]) -> None:
        """Fill traffic, counters and exact values; check the lifecycle."""
        network = self.pier.network
        stats = network.stats
        result.traffic_bytes = stats.bytes_delivered
        result.max_inbound_bytes = stats.max_inbound_bytes()
        key_hops = 0
        for routing, seen in zip(self.pier.routings.values(), before["hops"]):
            key_hops += sum(routing.lookup_hops_observed[seen:])
        result.counters = {
            "sim.events": network.simulator.events_processed - before["events"],
            "net.messages": stats.messages_delivered,
            "net.sent": stats.messages_sent,
            "net.coalesced": network.messages_coalesced - before["coalesced"],
            "net.queueing_s": stats.total_queueing_delay,
            "dht.route.key_hops": key_hops,
            "dht.provider.gets_failed": sum(
                cursor.completeness().gets_failed for cursor in cursors),
        }
        result.exact = [
            result.counters["sim.events"], stats.messages_delivered,
            stats.overlay_hops, stats.bytes_delivered,
            repr(result.t_first_row_s), repr(result.t_30th_row_s),
            repr(result.t_last_row_s),
        ]
        result.op_key = "/".join(str(cursor.query_id) for cursor in cursors)
        leftovers = self._leftovers(cursors)
        if leftovers and result.error is None:
            result.error = "left behind: " + "; ".join(leftovers)

    def _leftovers(self, cursors: Sequence[ResultCursor]) -> List[str]:
        """Per-query state still present anywhere after the operation."""
        found = []
        namespaces = set()
        for cursor in cursors:
            if not cursor.closed:
                found.append(f"query {cursor.query_id} cursor still open")
            namespaces.update(build_opgraph(cursor.query).temp_namespaces())
            namespaces.update(t.relation.namespace for t in cursor.query.tables)
        for address, executor in self.pier.executors.items():
            if executor.active_query_ids():
                found.append(f"node {address} executor holds queries "
                             f"{executor.active_query_ids()}")
        for address, provider in self.pier.providers.items():
            temp = [ns for ns in provider.storage.namespaces()
                    if ns.startswith("__pier_") and ns != STATS_NAMESPACE]
            if temp:
                found.append(f"node {address} stores temp namespaces {temp}")
            callbacks = [ns for ns in namespaces
                         if provider.new_data_callback_count(ns)]
            if callbacks:
                found.append(f"node {address} has newData callbacks on "
                             f"{sorted(callbacks)}")
        pending = self.pier.network.simulator.pending_events
        if pending:
            found.append(f"simulator has {pending} pending events")
        return found


class SimJoin(SimWorkload):
    """The Section 5.1 R⋈S query over a 512-node simulated deployment."""

    num_nodes = 512
    s_tuples_per_node = 2
    dht: str
    coalesce_window_s: float
    strategy: JoinStrategy

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data = JoinWorkload(WorkloadConfig(
            num_nodes=self.num_nodes, s_tuples_per_node=self.s_tuples_per_node,
            seed=seed))
        self.sql = self.data.sql_text()
        self.expected = row_multiset(self.data.expected_results())

    def build(self) -> None:
        pier = PierNetwork(SimulationConfig(
            num_nodes=self.num_nodes, dht=self.dht, seed=self.seed,
            coalesce_window_s=self.coalesce_window_s))
        pier.load_relation(self.data.r_relation, self.data.r_by_node)
        pier.load_relation(self.data.s_relation, self.data.s_by_node)
        self.pier = pier

    def run_op(self, index: int) -> OpResult:
        client = self.pier.client(node=0, catalog=self.data.catalog())
        before = self._begin()

        def query() -> Tuple[ResultCursor, List[dict]]:
            cursor = client.sql(self.sql, strategy=self.strategy)
            rows = cursor.fetchall()
            cursor.close()
            return cursor, rows

        wall, (cursor, rows) = self._clock(query)
        result = OpResult(wall_s=wall,
                          t_first_row_s=cursor.time_to_kth(1),
                          t_30th_row_s=cursor.time_to_kth(30),
                          t_last_row_s=cursor.time_to_last())
        if cursor.timed_out:
            result.error = "timed out"
        elif row_multiset(rows) != self.expected:
            result.error = (f"{len(rows)} rows differ from the oracle's "
                            f"{sum(self.expected.values())}")
        self._finish(result, before, [cursor])
        return result


class Fig3Can(SimJoin):
    name = "fig3_can"
    dht = "can"
    coalesce_window_s = 0.010
    strategy = JoinStrategy.SYMMETRIC_HASH


class FetchChord(SimJoin):
    name = "fetch_chord"
    dht = "chord"
    coalesce_window_s = 0.0
    strategy = JoinStrategy.FETCH_MATCHES


class MonitorMix(SimWorkload):
    """One dashboard refresh: the five Section 2.1 monitoring queries."""

    name = "monitor_mix"
    num_nodes = 64
    intrusions_per_node = 200

    QUERIES = (
        ("attack_summary",
         "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I "
         "GROUP BY I.fingerprint HAVING cnt > 10", {}),
        ("weighted_summary",
         "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt "
         "FROM intrusions I, reputation R WHERE R.address = I.address "
         "GROUP BY I.fingerprint HAVING wcnt > 10", {}),
        ("distinct_sources",
         "SELECT APPROX COUNT(DISTINCT I.address) AS sources FROM intrusions I",
         {"hierarchical_aggregation": True}),
        ("top_ports",
         "SELECT APPROX_TOP_K(I.port, 5) AS ports FROM intrusions I", {}),
        ("compromised_sources",
         "SELECT S.source FROM spamGateways AS S, robots AS R "
         "WHERE S.smtpGWDomain = R.clientDomain", {"result_tuple_bytes": 64}),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data = NetworkMonitoringWorkload(
            num_nodes=self.num_nodes,
            intrusions_per_node=self.intrusions_per_node, seed=seed)
        self.oracles = self._oracles()

    def _oracles(self) -> Dict[str, Callable[[List[dict]], Optional[str]]]:
        data = self.data
        intrusions = [row for rows in data.intrusions_by_node.values()
                      for row in rows]
        weight = {row["address"]: row["weight"]
                  for rows in data.reputation_by_node.values() for row in rows}
        counts: Counter = Counter()
        weight_sums: Dict[str, float] = {}
        for row in intrusions:
            if row["address"] in weight:
                fingerprint = row["fingerprint"]
                counts[fingerprint] += 1
                weight_sums[fingerprint] = (weight_sums.get(fingerprint, 0.0)
                                            + weight[row["address"]])
        weighted = {fp: counts[fp] * weight_sums[fp] for fp in counts
                    if counts[fp] * weight_sums[fp] > 10}
        attack = data.expected_attack_summary()
        addresses = {row["address"] for row in intrusions}
        sketch = HyperLogLog()
        for address in addresses:
            sketch.add(address)
        sketch_answer = int(round(sketch.estimate()))
        port_counts = Counter(row["port"] for row in intrusions)
        top_count = max(port_counts.values())
        top_ports = {port for port, n in port_counts.items() if n == top_count}
        compromised = data.expected_compromised_sources()

        def check_attack(rows: List[dict]) -> Optional[str]:
            got = sorted((row["I.fingerprint"], row["cnt"]) for row in rows)
            return None if got == attack else f"attack summary {got} != {attack}"

        def check_weighted(rows: List[dict]) -> Optional[str]:
            got = {row["I.fingerprint"]: row["wcnt"] for row in rows}
            if set(got) != set(weighted) or any(
                    not math.isclose(got[fp], weighted[fp], rel_tol=1e-9)
                    for fp in got):
                return f"weighted summary {got} != {weighted}"
            return None

        def check_distinct(rows: List[dict]) -> Optional[str]:
            # The distributed merge must reproduce the sketch built over all
            # rows exactly (HyperLogLog union is lossless), and the estimate
            # must lie within three standard errors of the exact count.
            got = rows[0]["sources"] if len(rows) == 1 else None
            if got != sketch_answer:
                return f"distinct sources {got} != sketch {sketch_answer}"
            if abs(got - len(addresses)) > 3 * HLL_STANDARD_ERROR * len(addresses):
                return f"distinct sources {got} too far from {len(addresses)}"
            return None

        def check_top_ports(rows: List[dict]) -> Optional[str]:
            ports = [port for port, _count in rows[0]["ports"]] if rows else []
            if not top_ports & set(ports):
                return f"top ports {ports} miss the exact top {sorted(top_ports)}"
            return None

        def check_compromised(rows: List[dict]) -> Optional[str]:
            got = sorted({row["S.source"] for row in rows})
            return None if got == compromised else (
                f"compromised sources {got} != {compromised}")

        return {
            "attack_summary": check_attack,
            "weighted_summary": check_weighted,
            "distinct_sources": check_distinct,
            "top_ports": check_top_ports,
            "compromised_sources": check_compromised,
        }

    def build(self) -> None:
        data = self.data
        pier = PierNetwork(SimulationConfig(num_nodes=self.num_nodes,
                                            seed=self.seed))
        for relation in (data.intrusions, data.reputation, data.spam_gateways,
                         data.robots):
            pier.load_relation(relation, data.rows_by_node(relation.name))
        self.pier = pier

    def run_op(self, index: int) -> OpResult:
        client = self.pier.client(node=0, catalog=self.data.catalog())
        before = self._begin()
        started_at = self.pier.now
        cursors: List[ResultCursor] = []
        answers: List[List[dict]] = []

        def refresh() -> None:
            for _name, sql, options in self.QUERIES:
                cursor = client.sql(sql, **options)
                cursors.append(cursor)
                answers.append(cursor.fetchall())
                cursor.close()

        wall, _ = self._clock(refresh)
        arrivals = sorted(
            cursor.handle.submitted_at + elapsed - started_at
            for cursor in cursors for elapsed in cursor.arrival_times())
        first, thirtieth, last = kth_times(arrivals)
        result = OpResult(wall_s=wall, t_first_row_s=first,
                          t_30th_row_s=thirtieth, t_last_row_s=last)
        errors = []
        for (name, _sql, _options), cursor, rows in zip(self.QUERIES, cursors,
                                                        answers):
            if cursor.timed_out:
                errors.append(f"{name} timed out")
                continue
            problem = self.oracles[name](rows)
            if problem is not None:
                errors.append(problem)
        result.error = "; ".join(errors) or None
        self._finish(result, before, cursors)
        return result


class TrafficCluster(LocalCluster):
    """A :class:`LocalCluster` whose nodes answer ``perfbench_traffic``."""

    def _spawn(self, argv: List[str]) -> Any:
        module = argv.index("-m")
        return super()._spawn(argv[:module] + [TCP_NODE_SCRIPT]
                              + argv[module + 2:])


class TcpJoin(Workload):
    """The R⋈S query on a 2-process localhost TCP cluster.

    One operation runs the query once with each strategy, so every
    operation does the same work; its row times are the two queries' mean.
    """

    name = "tcp_join"
    num_nodes = 2
    s_tuples_per_node = 1000
    STRATEGIES = (JoinStrategy.SYMMETRIC_HASH, JoinStrategy.FETCH_MATCHES)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data = JoinWorkload(WorkloadConfig(
            num_nodes=self.num_nodes, s_tuples_per_node=self.s_tuples_per_node,
            seed=seed))
        self.sql = self.data.sql_text()
        expected = self.data.expected_results()
        self.expected_count = len(expected)
        self.expected = row_multiset(expected)
        self.cluster: Optional[LocalCluster] = None

    def build(self) -> None:
        cluster = TrafficCluster(self.num_nodes, dht="can", seed=self.seed)
        try:
            pier = cluster.connect()
            pier.load_relation(self.data.r_relation, self.data.r_by_node)
            pier.load_relation(self.data.s_relation, self.data.s_by_node)
        except BaseException:
            cluster.stop()
            raise
        self.cluster = cluster
        self.pier = pier
        self.client = pier.client(catalog=self.data.catalog())

    def close(self) -> None:
        cluster, self.cluster = self.cluster, None
        if cluster is not None:
            cluster.stop()

    def _received(self) -> Dict[int, Tuple[int, int]]:
        """Bytes and frames each node process has received so far."""
        received = {}
        for address in sorted(self.pier.endpoints):
            traffic = self.pier.connection(address).rpc("perfbench_traffic")
            received[address] = (traffic["bytes_received"],
                                 traffic["frames_received"])
        return received

    def run_op(self, index: int) -> OpResult:
        """One query with each strategy, checked and torn down in turn."""
        before = self._received()
        walls: List[float] = []
        cursors: List[ResultCursor] = []
        errors: List[str] = []
        for strategy in self.STRATEGIES:
            wall, cursor, error = self._query(strategy)
            walls.append(wall)
            cursors.append(cursor)
            if error is not None:
                errors.append(f"{strategy.value}: {error}")
        after = self._received()
        inbound = [after[address][0] - before.get(address, (0, 0))[0]
                   for address in after]
        frames = sum(after[address][1] - before.get(address, (0, 0))[1]
                     for address in after)

        def mean_time(time_of: Callable[[ResultCursor], Optional[float]]
                      ) -> Optional[float]:
            times = [time_of(cursor) for cursor in cursors]
            return None if None in times else statistics.fmean(times)

        return OpResult(
            wall_s=sum(walls),
            t_first_row_s=mean_time(lambda cursor: cursor.time_to_kth(1)),
            t_30th_row_s=mean_time(lambda cursor: cursor.time_to_kth(30)),
            t_last_row_s=mean_time(lambda cursor: cursor.time_to_last()),
            traffic_bytes=sum(inbound), max_inbound_bytes=max(inbound),
            error="; ".join(errors) or None,
            op_key="/".join(str(cursor.query_id) for cursor in cursors),
            counters={"net.messages": frames})

    def _query(self, strategy: JoinStrategy
               ) -> Tuple[float, ResultCursor, Optional[str]]:
        """Run, time and check one query; wait for its teardown."""

        def query() -> Tuple[ResultCursor, List[dict]]:
            cursor = self.client.sql(self.sql, strategy=strategy,
                                     timeout_s=TCP_QUERY_TIMEOUT_S)
            rows = cursor.fetch(self.expected_count)
            cursor.close()
            return cursor, rows

        wall, (cursor, rows) = self._clock(query)
        error = None
        if cursor.timed_out or len(rows) < self.expected_count:
            error = (f"{len(rows)} of {self.expected_count} rows before "
                     f"the timeout")
        elif row_multiset(rows) != self.expected:
            error = "rows differ from the oracle"
        elif cursor.result_count != self.expected_count:
            error = (f"{cursor.result_count} rows arrived, oracle has "
                     f"{self.expected_count}")
        leftover = self._leftover(cursor)
        return wall, cursor, error or leftover

    def _leftover(self, cursor: ResultCursor) -> Optional[str]:
        """Wait (bounded) for teardown to clear every node; report what stays."""
        namespaces = sorted(build_opgraph(cursor.query).temp_namespaces())
        deadline = time.monotonic() + TCP_TEARDOWN_TIMEOUT_S
        while True:
            report = self.pier.collect_completeness(
                CompletenessReport(query_id=cursor.query_id), namespaces)
            stored = sum(self.pier.scan_count(ns) for ns in namespaces)
            if not report.nodes_with_state and not stored:
                return None
            if time.monotonic() >= deadline:
                return (f"query {cursor.query_id} left state on "
                        f"{report.nodes_with_state} nodes and {stored} items")
            time.sleep(0.05)


WORKLOADS = {cls.name: cls for cls in (Fig3Can, FetchChord, MonitorMix, TcpJoin)}
