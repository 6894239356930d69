"""Figure 3 — time to the 30th result tuple as nodes and load scale together.

The paper scales the network from 2 to 10,000 simulated nodes while keeping
the data per node constant, and plots the time to the 30th result tuple for
1, 2, 8, 16 and N computation nodes.  The headline observations, which this
benchmark checks at reduced scale:

* with **all** nodes computing, the response time degrades only by a small
  factor across two orders of magnitude of scale-up (the residual growth is
  the ``n^{1/2}`` CAN lookup path);
* with a **small fixed number** of computation nodes, their inbound links
  congest as the load grows and response time blows up.

Run as a script this benchmark takes a ``--nodes`` axis (e.g.
``--nodes 1024,4096,10000``) so the paper's full 10k-node range is
reachable, reports wall-clock per phase (build / load / query) for every
configuration, and measures the batched message path against the seed's
one-event-per-item baseline on a fixed workload (the ``event_reduction``
block of the JSON output).  The seed path itself is retired; its event
counts are frozen in :data:`SEED_PATH_EVENTS`.
"""

import time

from bench_common import (
    bench_scale,
    bench_seed,
    build_loaded_network,
    is_smoke,
    node_axis,
    report,
    run_benchmark_query,
    scaled,
)
from repro.core.query import JoinStrategy

#: Default sweep axis (scaled by PIER_BENCH_SCALE, capped in smoke mode).
DEFAULT_NODE_COUNTS = (2, 8, 32, 64, 128)

#: Fixed workload used for the batched-vs-seed event comparison.
EVENT_BASELINE_NODES = 64

#: The retired seed message path on the event-reduction workload — one
#: message per item through scalar puts and gets, no network coalescing —
#: as ``(nodes, seed) -> (simulator events, result rows)``.  That path no
#: longer exists, so its counts are frozen: measured at the last commit that
#: had it, in the two runs that check the reduction (``pytest benchmarks/``
#: at 64 nodes, seed 5, and CI's ``--smoke --seed 0`` script run at 8
#: nodes).  The event count moves by a few percent with the process-wide
#: query id, which names the rehash namespaces (5224 to 5511 at 64 nodes
#: depending on what ran first); the 3x bar does not depend on that.
SEED_PATH_EVENTS = {
    (64, 5): (5511, 149),
    (8, 0): (342, 12),
}

#: Coalescing window used for large runs and the event-reduction headline.
#: 10 ms is 10% of the paper's 100 ms hop latency — enough to merge the
#: serialisation-staggered waves of a routed batch into per-destination
#: delivery events without visibly distorting the latency curves.
LARGE_RUN_WINDOW_S = 0.010

#: Node count at and above which the sweep switches the window on.
LARGE_RUN_THRESHOLD = 1024


def run_one(num_nodes: int, computation_count, seed: int = 5) -> dict:
    """Run one (nodes, computation nodes) configuration with phase timing."""
    window = LARGE_RUN_WINDOW_S if num_nodes >= LARGE_RUN_THRESHOLD else 0.0
    t0 = time.perf_counter()
    pier, workload = build_loaded_network(num_nodes, s_tuples_per_node=2, seed=seed,
                                          coalesce_window_s=window)
    t_loaded = time.perf_counter()
    computation_nodes = (
        list(range(1, computation_count + 1)) if computation_count else None
    )
    outcome = run_benchmark_query(pier, workload, JoinStrategy.SYMMETRIC_HASH,
                                  computation_nodes=computation_nodes)
    t_done = time.perf_counter()
    return {
        "nodes": num_nodes,
        "computation_nodes": str(computation_count) if computation_count else "N",
        "results": outcome.result_count,
        "t_30th_s": outcome.latency.time_to_kth,
        "t_last_s": outcome.latency.time_to_last,
        "max_inbound_mb": outcome.traffic.max_inbound_mb,
        "sim_events": pier.network.simulator.events_processed,
        "coalesce_w_ms": window * 1e3,
        "wall_build_load_s": round(t_loaded - t0, 3),
        "wall_query_s": round(t_done - t_loaded, 3),
    }


def sweep():
    node_counts = node_axis(DEFAULT_NODE_COUNTS)
    configurations = [("1", 1), ("8", 8), ("N", None)]
    if is_smoke():
        # Keep both extremes: the single hot node and the fully distributed
        # path (the 8-computation-node row would be skipped anyway under the
        # smoke node cap, since 8 >= num_nodes).
        configurations = [("1", 1), ("N", None)]
    rows = []
    for num_nodes in node_counts:
        for _label, computation_count in configurations:
            if computation_count is not None and computation_count >= num_nodes:
                continue
            rows.append(run_one(num_nodes, computation_count))
    return rows


def measure_event_reduction(num_nodes: int = 0) -> dict:
    """Simulator events for a fixed workload: batched path vs. seed path.

    The acceptance bar for the batching layer is a >= 3x drop in total
    simulator events on the same workload; this runs the symmetric-hash
    benchmark query once per coalescing window and reports the counts and
    the ratio against the frozen seed-path count.  ``events_batched`` (the
    headline) uses the 10 ms coalescing window the large runs use;
    ``events_batched_w0`` is the conservative zero-window mode the test
    deployments run under.  A configuration without a frozen seed-path
    count reports ``events_seed`` and ``reduction_factor`` as ``None``.
    """
    if not num_nodes:
        num_nodes = scaled(EVENT_BASELINE_NODES)
    seed = bench_seed(5)
    counts = {}
    results = {}
    for label, window in (("batched", LARGE_RUN_WINDOW_S), ("batched_w0", 0.0)):
        pier, workload = build_loaded_network(
            num_nodes, s_tuples_per_node=2, seed=seed, coalesce_window_s=window
        )
        outcome = run_benchmark_query(pier, workload, JoinStrategy.SYMMETRIC_HASH)
        counts[label] = pier.network.simulator.events_processed
        results[label] = outcome.result_count
    assert results["batched"] == results["batched_w0"], \
        "the coalescing window must not change the result rows"
    events_seed = reduction = None
    frozen = SEED_PATH_EVENTS.get((num_nodes, seed))
    if frozen is not None:
        events_seed, seed_rows = frozen
        assert results["batched"] == seed_rows, \
            "the batched path must return as many rows as the seed path did"
        reduction = round(events_seed / max(1, counts["batched"]), 2)
    return {
        "event_reduction": {
            "nodes": num_nodes,
            "seed": seed,
            "coalesce_w_ms": LARGE_RUN_WINDOW_S * 1e3,
            "events_seed": events_seed,
            "events_batched": counts["batched"],
            "events_batched_w0": counts["batched_w0"],
            "result_rows": results["batched"],
            "reduction_factor": reduction,
        }
    }


def test_fig3_scaleup_full_mesh(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    event_extra = measure_event_reduction()
    report("fig3_scaleup_full_mesh",
           "Figure 3: time to 30th result tuple, fully connected topology", rows,
           extra=event_extra)

    all_nodes_curve = {row["nodes"]: row["t_30th_s"] for row in rows
                       if row["computation_nodes"] == "N"}
    one_node_inbound = {row["nodes"]: row["max_inbound_mb"] for row in rows
                        if row["computation_nodes"] == "1"}
    all_nodes_inbound = {row["nodes"]: row["max_inbound_mb"] for row in rows
                         if row["computation_nodes"] == "N"}

    smallest = min(all_nodes_curve)
    largest = max(all_nodes_curve)

    # Graceful scale-up with N computation nodes: the paper reports only a
    # ~4x degradation from 2 to 10,000 nodes; across our (smaller) range the
    # degradation must stay within an order of magnitude.
    assert all_nodes_curve[largest] <= 10.0 * max(all_nodes_curve[smallest], 0.2)

    # A single computation node becomes the hot spot as the load grows: it
    # receives a large multiple of any node's inbound traffic in the fully
    # distributed configuration, and that hot-spot load grows with the
    # network size while the distributed configuration spreads it.  (At our
    # scaled-down data volume per node the congestion is visible in the hot
    # node's inbound traffic rather than in the 30th-tuple time, which needs
    # the paper's ~0.5 MB/node load to move; see EXPERIMENTS.md.)
    assert one_node_inbound[largest] > 3.0 * all_nodes_inbound[largest]
    assert one_node_inbound[largest] > 2.0 * one_node_inbound[smallest]

    # The batching layer must cut total simulator events by >= 3x on the
    # fixed comparison workload, against the frozen seed-path count.  Only
    # the default scale has one (PIER_BENCH_SCALE moves the node count).
    reduction = event_extra["event_reduction"]["reduction_factor"]
    if bench_scale() == 1.0:
        assert reduction is not None and reduction >= 3.0


def main(argv=None):
    from bench_common import run_main
    return run_main("fig3_scaleup_full_mesh",
                    "Figure 3: time to 30th result tuple, fully connected topology",
                    sweep, argv, extra=measure_event_reduction)


if __name__ == "__main__":
    main()
