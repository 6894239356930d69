"""Perf profile of the executor pipeline on the fig-3 query.

The executor runs one pipeline: slotted rows through closures compiled at
plan time (:func:`repro.core.opgraph.compile_graph`).  This benchmark drives
the paper's Figure 3 benchmark query (Section 5.1) through it and reports:

* **per-stage tuple throughput** (rows/sec) of the two row-touching stages
  of the query — the scan→filter→project chain that feeds the rehash, and
  the join tail (qualify + merge + residual + output projection) at the
  probe — run through the compiled artifacts the executor itself uses,
  over the fig-3 workload's R⋈S data at the 1024-node sizing;
* **pipeline wall-clock**: seconds for one pass of the full fig-3 data
  volume through both stages, *without* the simulator;
* **end-to-end wall-clock** of the fig-3 query at 1024 and 4096 nodes, with
  its result checked against ``JoinWorkload.expected_results()``: the rows
  must equal the golden multiset, with recall and precision 1.0.

The executor is a few percent of end-to-end self time; DHT routing and
network delivery dominate (run with ``--profile`` for the evidence).  With
``--profile`` one end-to-end run additionally executes under cProfile and
the top-25 functions by cumulative time are written to
``benchmarks/results/perf_profile_cprofile.json``.

Besides the usual ``benchmarks/results/perf_profile.{txt,json}`` outputs it
writes ``BENCH_perf.json`` at the repository root — the committed perf
trajectory point, with the Python version and CPU model it was measured on.
CI uploads it from the perf-smoke job.

Acceptance (asserted under pytest): at every axis point the query returns
exactly the golden rows, with recall and precision 1.0.
"""

import cProfile
import json
import platform
import pstats
import time
from pathlib import Path

from bench_common import (
    RESULTS_DIR,
    bench_seed,
    build_loaded_network,
    is_smoke,
    node_axis,
    profile_enabled,
    report,
    row_key,
    run_benchmark_query,
    scaled,
)
from repro.core.opgraph import OpKind, build_opgraph, compile_graph
from repro.core.query import JoinStrategy
from repro.metrics.recall import recall_and_precision
from repro.workloads import JoinWorkload, WorkloadConfig

#: Default end-to-end sweep axis (scaled by PIER_BENCH_SCALE, smoke-capped).
DEFAULT_NODE_COUNTS = (1024, 4096)

#: Network sizing of the stage-throughput measurement (fig-3 data volume).
STAGE_WORKLOAD_NODES = 1024

#: Minimum tuples pushed through each stage per timing sample.
STAGE_MIN_ROWS = 40_000

#: Coalescing window for large runs (mirrors the Figure 3 benchmark).
LARGE_RUN_WINDOW_S = 0.010
LARGE_RUN_THRESHOLD = 1024

#: The committed perf-trajectory artifact at the repository root.
ROOT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: The cProfile artifact written by ``--profile``.
PROFILE_ARTIFACT = RESULTS_DIR / "perf_profile_cprofile.json"


def cpu_model() -> str:
    """The CPU model name, from ``/proc/cpuinfo`` where there is one."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    """What the wall-clock numbers were measured on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------ stage profiling


def _time_per_row(run, rows_per_pass: int, min_rows: int) -> float:
    """Rows/sec of ``run()`` (one pass over the stage's input rows)."""
    passes = max(1, min_rows // max(1, rows_per_pass))
    run()  # warm-up pass (closure caches, dict sizing)
    started = time.perf_counter()
    for _ in range(passes):
        run()
    elapsed = time.perf_counter() - started
    return (passes * rows_per_pass) / max(elapsed, 1e-9)


def _time_pass(run, min_passes: int = 3) -> float:
    """Best-of wall seconds for one ``run()`` pass (already warmed up)."""
    best = float("inf")
    for _ in range(min_passes):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def profile_stages(num_nodes: int = 0, seed: int = 5) -> dict:
    """Per-stage tuple throughput plus the pipeline wall.

    Both measured loops run the compiled artifacts of the query's own
    operator graph — the same closures the executor calls on every node.
    """
    if not num_nodes:
        num_nodes = scaled(STAGE_WORKLOAD_NODES)
    seed = bench_seed(seed)
    workload = JoinWorkload(WorkloadConfig(
        num_nodes=num_nodes, s_tuples_per_node=2, seed=seed))
    query = workload.make_query(strategy=JoinStrategy.SYMMETRIC_HASH)
    graph = build_opgraph(query)
    compiled = compile_graph(graph)
    chains = {chain.alias: chain for chain in compiled.chains.values()}
    emit = compiled.pair_emitters[graph.nodes_of_kind(OpKind.PROBE)[0].op_id]

    def run_chain(chain, values):
        reader, predicate, project = chain.reader, chain.predicate, chain.project
        out = []
        append = out.append
        for value in values:
            row = reader(value)
            if predicate is not None and not predicate(row):
                continue
            append(project(row) if project is not None else row)
        return out

    r_values = [row for _node, row in workload.all_r_rows()]
    s_values = [row for _node, row in workload.all_s_rows()]
    r_chain, s_chain = chains["R"], chains["S"]

    # --- Scan -> Filter -> Project chain over R (the rehash source chain).
    def scan_pass():
        return run_chain(r_chain, r_values)

    # --- Join tail over every key match of the fig-3 equi-join, local
    # predicates ignored (the residual still applies), so the stage sees a
    # data volume comparable with the scan.
    def projected(chain, values):
        return [chain.project(chain.reader(value)) for value in values]

    r_key = r_chain.layout.slots[query.join.left_column]
    s_key = s_chain.layout.slots[query.join.right_column]
    s_by_key = {}
    for row in projected(s_chain, s_values):
        s_by_key.setdefault(row[s_key], []).append(row)
    pairs = [(left, right) for left in projected(r_chain, r_values)
             for right in s_by_key.get(left[r_key], ())]

    def tail_pass():
        out = []
        append = out.append
        for left, right in pairs:
            result = emit(left, right)
            if result is not None:
                append(result)
        return out

    stages = {
        "scan_filter_project": {
            "rows_per_pass": len(r_values),
            "rows_s": round(_time_per_row(scan_pass, len(r_values),
                                          STAGE_MIN_ROWS)),
        },
        "join_tail": {
            "rows_per_pass": len(pairs),
            "rows_s": round(_time_per_row(tail_pass, len(pairs),
                                          STAGE_MIN_ROWS)),
        },
    }

    def pipeline_pass():
        scan_pass()
        tail_pass()

    pipeline_wall = {
        "rows_per_pass": len(r_values) + len(pairs),
        "seconds": round(_time_pass(pipeline_pass), 4),
    }
    return {"nodes_sizing": num_nodes, "stages": stages,
            "pipeline_wall": pipeline_wall}


# --------------------------------------------------------------- end to end


def run_end_to_end(num_nodes: int, seed: int = 5,
                   profile_to: Path = None) -> dict:
    """One fig-3 query execution, checked against the golden answer.

    With ``profile_to`` set the query phase runs under cProfile and the
    top-25 cumulative table is written there as JSON.
    """
    window = LARGE_RUN_WINDOW_S if num_nodes >= LARGE_RUN_THRESHOLD else 0.0
    t0 = time.perf_counter()
    pier, workload = build_loaded_network(
        num_nodes, s_tuples_per_node=2, seed=seed, coalesce_window_s=window,
    )
    t_loaded = time.perf_counter()
    profiler = None
    if profile_to is not None:
        profiler = cProfile.Profile()
        profiler.enable()
    outcome = run_benchmark_query(pier, workload, JoinStrategy.SYMMETRIC_HASH)
    if profiler is not None:
        profiler.disable()
    t_done = time.perf_counter()
    if profiler is not None:
        _write_profile_artifact(profiler, profile_to, num_nodes)
    rows = outcome.handle.rows
    expected = workload.expected_results()
    recall, precision = recall_and_precision(rows, expected)
    return {
        "nodes": num_nodes,
        "results": outcome.result_count,
        "expected_results": len(expected),
        "rows_equal_expected": (sorted(map(row_key, rows))
                                == sorted(map(row_key, expected))),
        "recall": round(recall, 4),
        "precision": round(precision, 4),
        "t_30th_s": outcome.latency.time_to_kth,
        "t_last_s": outcome.latency.time_to_last,
        "wall_build_load_s": round(t_loaded - t0, 3),
        "wall_query_s": round(t_done - t_loaded, 3),
    }


def _write_profile_artifact(profiler, path: Path, num_nodes: int,
                            top: int = 25) -> None:
    """Write the top-``top`` cumulative-time functions as a JSON artifact."""
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    entries = []
    total_tt = sum(row[2] for row in stats.stats.values())
    for func, (_cc, nc, tt, ct, _callers) in sorted(
            stats.stats.items(), key=lambda item: item[1][3], reverse=True):
        filename, line, name = func
        entries.append({
            "function": name,
            "file": str(Path(filename).name),
            "line": line,
            "ncalls": nc,
            "tottime_s": round(tt, 4),
            "cumtime_s": round(ct, 4),
        })
        if len(entries) >= top:
            break
    document = {
        "benchmark": "perf_profile",
        "what": "cProfile of the fig-3 query phase (build/load excluded)",
        "nodes": num_nodes,
        "machine": machine(),
        "total_tottime_s": round(total_tt, 4),
        "top_by_cumulative": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"cProfile artifact ({num_nodes} nodes): {path}")


def sweep():
    node_counts = node_axis(DEFAULT_NODE_COUNTS)
    seed = bench_seed(5)
    if profile_enabled():
        # A dedicated profiled run, separate from the reported rows: the
        # profiler's instrumentation would otherwise inflate the reported
        # wall-clock of the run it wraps.
        run_end_to_end(min(node_counts), seed=seed, profile_to=PROFILE_ARTIFACT)
    return [run_end_to_end(num_nodes, seed=seed) for num_nodes in node_counts]


def perf_extra():
    """Extra JSON fields: machine, stage profile, the root artifact."""
    document = {
        "machine": machine(),
        "stage_profile": profile_stages(),
        "notes": (
            "End-to-end wall is dominated by DHT routing and network "
            "delivery (see the --profile artifact); pipeline_wall is the "
            "executor-only wall-clock."
        ),
    }
    perf_extra.last_document = document
    write_root_artifact(document)
    return document


def write_root_artifact(document: dict, rows=None) -> None:
    """Write the committed ``BENCH_perf.json`` perf-trajectory point."""
    payload = {
        "benchmark": "perf_profile",
        "query": "fig3 (Section 5.1) R JOIN S, symmetric hash",
        "smoke": is_smoke(),
        **document,
    }
    if rows is not None:
        payload["end_to_end"] = rows
    ROOT_ARTIFACT.write_text(json.dumps(payload, indent=2, default=str) + "\n",
                             encoding="utf-8")


# ----------------------------------------------------------------- pytest


def test_perf_profile(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    extra = perf_extra()
    write_root_artifact(extra, rows=rows)
    report("perf_profile", "Executor pipeline: fig-3 query profile",
           rows, extra=extra)
    assert rows, "no axis point was run"
    for row in rows:
        assert row["rows_equal_expected"], \
            f"rows differ from the golden answer at {row['nodes']} nodes"
        assert row["recall"] == 1.0 and row["precision"] == 1.0


def main(argv=None):
    from bench_common import run_main
    rows = run_main("perf_profile", "Executor pipeline: fig-3 query profile",
                    sweep, argv, extra=perf_extra)
    # run_main's extra() ran before rows were known here; rewrite the root
    # artifact with the end-to-end rows included.
    write_root_artifact(perf_extra.last_document, rows=rows)
    return rows


if __name__ == "__main__":
    main()
