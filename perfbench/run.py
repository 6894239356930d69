"""PIER benchmark runner.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig3_can --seed 1 --seconds 30 --trace 0

One closed-loop client runs one operation at a time for ``--seconds`` wall
seconds (the operation in progress when time runs out completes and
counts).  Every operation is checked against an oracle; see
``perfbench/workloads.py`` for the workloads and their checks.

``--trace 0`` builds the deployment ``SETUP_REPEATS`` times (``setup_s`` is
the median) and reports the gated end-to-end metrics; it prints the
operation timings (``TIMING_METRICS``) too, which are not gated.
``--trace 1`` runs ``UNTRACED_OPS`` untraced operations, then spends the
rest of the run on a fresh deployment with the span tracer installed, and
reports the per-layer metrics, the tracing overhead (traced over untraced
median operation time) and the timings of the untraced operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable summary and the run's metadata.  A record of the run goes to
``.perfbench/runs/`` and, on the simulator workloads, every operation's
exact counters go to ``.perfbench/determinism/``: a later run with the same
seed and the same source tree should reproduce them.  A divergence is
printed and kept in the run's record; it does not fail the operation,
whose answer the oracle has already checked.  The first run of a seed on a
new source tree only records.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
#: Deployments built per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Untraced operations a traced run times before tracing, for
#: ``trace.overhead``.
UNTRACED_OPS = 2

# The benchmark measures the checkout's own sources, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no PIER sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult, SimWorkload, Workload  # noqa: E402

#: End-to-end metrics of an untraced run: those every workload measures
#: steadily enough to gate.
E2E_METRICS = (
    ("setup_s", "s"), ("traffic_mb", "MB"), ("max_inbound_mb", "MB"),
    ("peak_rss_mb", "MB"),
)
#: The user-visible timings, reported without a gate: an untraced run prints
#: them and a traced run reports them for its untraced operations.  Wall
#: times follow the host's speed, which drifted by 1.3-1.7x within twenty
#: minutes on a shared 2-vCPU VM, and on ``tcp_join`` the row times are wall
#: times too; on the simulator the row times are exact virtual times.
TIMING_METRICS = (
    ("op_wall_s", "s"), ("ops_per_s", "1/s"), ("t_first_row_s", "s"),
    ("t_30th_row_s", "s"), ("t_last_row_s", "s"),
)
#: Per-layer metrics of a traced run.  Every workload reports all of them;
#: a layer a workload's client process never enters reports 0 (the wire and
#: remote layers on the simulator, the simulated layers on ``tcp_join``,
#: whose DHT runs in the node processes).  On ``tcp_join``, ``net.messages``
#: counts the frames the node processes receive.
LAYER_METRICS = (
    ("sim.events", "count"), ("sim.self_s", "s"),
    ("net.messages", "count"), ("net.send_s", "s"),
    ("net.coalesced_share", "ratio"), ("net.queueing_s", "s"),
    ("dht.route.self_s", "s"), ("dht.route.keys", "count"),
    ("dht.route.hops", "count"), ("dht.route.hops_per_key", "count"),
    ("dht.provider.self_s", "s"), ("dht.provider.items_put", "count"),
    ("dht.provider.keys_got", "count"), ("dht.provider.gets_failed", "count"),
    ("dht.provider.items_examined_per_get_local", "count"),
    ("dht.storage.self_s", "s"), ("dht.storage.items_stored", "count"),
    ("dht.storage.items_scanned", "count"),
    ("dht.multicast.floods", "count"), ("dht.multicast.self_s", "s"),
    ("core.executor.self_s", "s"), ("core.executor.callbacks", "count"),
    ("core.plan_s", "s"), ("sketches.self_s", "s"),
    ("wire.frames", "count"), ("wire.decode_s", "s"),
    ("wire.decode_mb_per_s", "MB/s"), ("remote.rpc_s", "s"),
    ("remote.rpc_calls", "count"), ("remote.pump_wait_s", "s"),
    ("trace.overhead", "ratio"), ("trace.attributed_share", "ratio"),
)
#: Layers whose self times count as attributed in ``trace.attributed_share``.
LAYERS = ("sim", "net.send", "dht.route", "dht.provider", "dht.storage",
          "dht.multicast", "core.executor", "core.plan", "sketches",
          "net.wire", "remote.rpc", "remote.pump")


# ------------------------------------------------------------------ metadata

def source_digest() -> str:
    """Digest of the program and benchmark sources (names and contents)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: tells a slow machine apart."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_metadata(args: argparse.Namespace, digest: str) -> Dict[str, Any]:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "source_digest": digest,
        "calibration_loop_s": calibration_s(),
    }


# --------------------------------------------------------------- the runs

def run_one(workload: Workload, index: int) -> OpResult:
    """Run operation ``index``; an exception fails it, not the run.

    A full collection first lets every operation start from the same heap
    state instead of paying for garbage its predecessors left.
    """
    gc.collect()
    started = time.perf_counter()
    try:
        return workload.run_op(index)
    except Exception:
        return OpResult(wall_s=time.perf_counter() - started,
                        error=traceback.format_exc().strip())


def run_ops(workload: Workload, seconds: float, first_index: int = 0
            ) -> Tuple[List[OpResult], float]:
    """Closed loop: operations back to back until ``seconds`` have passed.

    At least one operation runs.
    """
    results: List[OpResult] = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        results.append(run_one(workload, first_index + len(results)))
    return results, time.perf_counter() - started


def summary_of(results: Sequence[OpResult], attribute: str,
              how: Callable[[List[float]], float] = statistics.median
              ) -> Optional[float]:
    """``how`` (the median by default) of an attribute over the operations."""
    values = [getattr(r, attribute) for r in results]
    values = [v for v in values if v is not None]
    return how(values) if values else None


def row_time(workload: Workload, results: Sequence[OpResult],
             attribute: str) -> Optional[float]:
    """A row-arrival metric summarized over the operations.

    Simulated row times are exact virtual times that move in whole network
    hops (100 ms); their mean over the run's operations is steadier than a
    median that jumps a hop at a time.  Wall times get the median.
    """
    how = statistics.fmean if isinstance(workload, SimWorkload) else statistics.median
    return summary_of(results, attribute, how)


def timings(workload: Workload, results: List[OpResult], elapsed: float
            ) -> Dict[str, Optional[float]]:
    return {
        "op_wall_s": summary_of(results, "wall_s"),
        "ops_per_s": len(results) / elapsed,
        "t_first_row_s": row_time(workload, results, "t_first_row_s"),
        "t_30th_row_s": row_time(workload, results, "t_30th_row_s"),
        "t_last_row_s": row_time(workload, results, "t_last_row_s"),
    }


def end_to_end(results: List[OpResult], setup_times: List[float]
               ) -> Dict[str, Optional[float]]:
    return {
        "setup_s": statistics.median(setup_times),
        "traffic_mb": summary_of(results, "traffic_bytes") / 1e6,
        "max_inbound_mb": summary_of(results, "max_inbound_bytes") / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def build_timed(workload: Workload, repeats: int) -> List[float]:
    """Build the deployment ``repeats`` times; keep the last one built."""
    times = []
    for _ in range(repeats):
        workload.close()
        gc.collect()
        started = time.perf_counter()
        workload.build()
        times.append(time.perf_counter() - started)
    return times


def per_layer(tracer: Tracer, untraced: List[OpResult],
              traced: List[OpResult]) -> Dict[str, float]:
    n = len(traced)
    self_time = tracer.op_self_time
    counts = tracer.op_counts

    def total(name: str) -> float:
        return sum(r.counters.get(name, 0) for r in traced)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    decode_s = self_time["net.wire"]
    return {
        "sim.events": total("sim.events") / n,
        "sim.self_s": self_time["sim"] / n,
        "net.messages": total("net.messages") / n,
        "net.send_s": self_time["net.send"] / n,
        "net.coalesced_share": ratio(total("net.coalesced"), total("net.sent")),
        "net.queueing_s": total("net.queueing_s") / n,
        "dht.route.self_s": self_time["dht.route"] / n,
        "dht.route.keys": counts["dht.route.keys"] / n,
        "dht.route.hops": counts["dht.route.hops"] / n,
        "dht.route.hops_per_key": ratio(total("dht.route.key_hops"),
                                        counts["dht.route.keys"]),
        "dht.provider.self_s": self_time["dht.provider"] / n,
        "dht.provider.items_put": counts["dht.provider.items_put"] / n,
        "dht.provider.keys_got": counts["dht.provider.keys_got"] / n,
        "dht.provider.gets_failed": total("dht.provider.gets_failed") / n,
        "dht.provider.items_examined_per_get_local": ratio(
            counts["dht.provider.get_local_items"],
            counts["dht.provider.get_local_calls"]),
        "dht.storage.self_s": self_time["dht.storage"] / n,
        "dht.storage.items_stored": counts["dht.storage.items_stored"] / n,
        "dht.storage.items_scanned": counts["dht.storage.items_scanned"] / n,
        "dht.multicast.floods": counts["dht.multicast.floods"] / n,
        "dht.multicast.self_s": self_time["dht.multicast"] / n,
        "core.executor.self_s": self_time["core.executor"] / n,
        "core.executor.callbacks": counts["core.executor.callbacks"] / n,
        "core.plan_s": self_time["core.plan"] / n,
        "sketches.self_s": self_time["sketches"] / n,
        "wire.frames": counts["wire.frames"] / n,
        "wire.decode_s": decode_s / n,
        "wire.decode_mb_per_s": ratio(counts["wire.bytes"] / 1e6, decode_s),
        "remote.rpc_s": self_time["remote.rpc"] / n,
        "remote.rpc_calls": counts["remote.rpc_calls"] / n,
        "remote.pump_wait_s": self_time["remote.pump"] / n,
        "trace.overhead": (summary_of(traced, "wall_s")
                           / summary_of(untraced, "wall_s")),
        "trace.attributed_share": (sum(self_time[layer] for layer in LAYERS)
                                   / sum(r.wall_s for r in traced)),
    }


def traced_run(workload: Workload, seconds: float) -> Tuple[
        List[OpResult], List[OpResult], Dict[str, float], Dict]:
    """``UNTRACED_OPS`` untraced operations, then traced ones.

    The traced operations run on a fresh deployment built with the tracer
    installed, for the rest of ``seconds`` (at least one operation).  The
    untraced count is fixed so that the traced operations get the same
    query ids on every run of a seed, which the determinism check needs.
    """
    build_timed(workload, 1)
    started = time.perf_counter()
    untraced = [run_one(workload, index) for index in range(UNTRACED_OPS)]
    untraced_s = time.perf_counter() - started
    workload.close()
    tracer = Tracer().install()
    try:
        workload.build()
        workload.timed = tracer.operation
        traced, _ = run_ops(workload, seconds - untraced_s,
                            first_index=UNTRACED_OPS)
    finally:
        workload.close()
        tracer.uninstall()
    metrics = per_layer(tracer, untraced, traced)
    metrics.update(timings(workload, untraced, untraced_s))
    traced_wall = sum(r.wall_s for r in traced)
    shares = {layer: tracer.op_self_time[layer] / traced_wall
              for layer in sorted(tracer.op_self_time)}
    return untraced, traced, metrics, {"self_time_shares": shares,
                                       "spans": tracer.spans}


# ------------------------------------------------------------- determinism

def check_determinism(workload: Workload, seed: int, digest: str,
                      results: List[OpResult], phases: Sequence[str]) -> List[str]:
    """Compare exact counters with earlier runs of this seed and source tree.

    Operations are keyed by phase (untraced / traced deployment), position
    on their deployment and query ids.  Returns the divergences found and
    records the new operations.
    """
    path = STATE_DIR / "determinism" / f"{workload.name}-{seed}-{digest}.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    divergences = []
    position: Dict[str, int] = {}
    for result, phase in zip(results, phases):
        index = position[phase] = position.get(phase, -1) + 1
        if result.exact is None:
            continue
        key = f"{phase}/{index}/{result.op_key}"
        if key in known and known[key] != result.exact:
            divergences.append(f"{key}: {known[key]} then {result.exact}")
        known.setdefault(key, result.exact)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True))
    return divergences


# -------------------------------------------------------------------- main

def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so a TCP cluster's nodes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    digest = source_digest()
    meta = run_metadata(args, digest)
    workload = WORKLOADS[args.workload](args.seed)
    sim = isinstance(workload, SimWorkload)
    try:
        if args.trace:
            untraced, traced, metrics, extra = traced_run(workload, args.seconds)
            results = untraced + traced
            phases = ["untraced"] * len(untraced) + ["traced"] * len(traced)
            units = dict(LAYER_METRICS + TIMING_METRICS)
            ungated: Dict[str, Optional[float]] = {}
        else:
            setup_times = build_timed(workload, SETUP_REPEATS)
            results, elapsed = run_ops(workload, args.seconds)
            phases = ["untraced"] * len(results)
            metrics = end_to_end(results, setup_times)
            units = dict(E2E_METRICS)
            ungated = timings(workload, results, elapsed)
            extra = {"setup_times_s": setup_times}
    finally:
        workload.close()
    divergences = (check_determinism(workload, args.seed, digest, results,
                                     phases) if sim else [])
    failed = [r for r in results if r.error is not None]
    report = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if metrics.get(name) is not None},
    }
    record = dict(meta, **extra, ungated=ungated, divergences=divergences,
                  errors=[r.error for r in failed],
                  operations=[{"wall_s": r.wall_s, "error": r.error,
                               "t_first_row_s": r.t_first_row_s,
                               "t_30th_row_s": r.t_30th_row_s,
                               "t_last_row_s": r.t_last_row_s,
                               "traffic_bytes": r.traffic_bytes,
                               "max_inbound_bytes": r.max_inbound_bytes,
                               "counters": r.counters} for r in results],
                  result=report)
    runs = STATE_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} operations, {len(failed)} failed")
    for error in dict.fromkeys(r.error for r in failed):
        print(f"  failure: {error}")
    for divergence in divergences:
        print(f"  divergence: {divergence}")
    for name, entry in report["metrics"].items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in ungated.items():
        if value is not None:
                print(f"  {name:<44} {value:>14.6g} "
                  f"{dict(TIMING_METRICS)[name]} (not gated)")
    for layer, share in sorted(extra.get("self_time_shares", {}).items(),
                               key=lambda item: -item[1]):
        print(f"  self-time share {layer:<28} {share:>14.1%}")
    print("meta " + json.dumps(meta, default=str))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
