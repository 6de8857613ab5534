#!/usr/bin/env python3
"""Host-time benchmark of the paper workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lb_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every metric, every workload

``--trace 0`` repeats untraced runs of the workload for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` splits the time between
untraced and traced runs, reports the per-layer metrics, and writes the
traced spans and counts to ``perfbench/out/``.  ``--workload all`` runs
both modes for every workload, each in a process of its own.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program measured is this checkout's ``src/``; without
it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Fewest runs a measurement makes, whatever ``--seconds`` says.
MIN_RUNS = 3
#: Set-up-only probes after each measured run: set-up takes milliseconds,
#: so its median needs many samples.
SETUP_PROBES = 10
#: Largest gap allowed between the summed layer self times and the
#: traced wall time, as a share of the latter.
ATTRIBUTION_TOLERANCE = 0.05
#: Longest a child process of ``--workload all`` may take.
CHILD_TIMEOUT_S = 600

Metrics = Dict[str, Tuple[float, str]]


def _load_checkout() -> None:
    """Make ``repro`` importable from this checkout's ``src/``, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}"
                         f", not from {SRC}")


def _failed(outcomes: List[Any]) -> int:
    """Runs that raised, failed a check, or disagree with the rest.

    The reference is the digest and event count most passing runs share,
    so a traced run that changed the simulation counts as failed.
    """
    keys = collections.Counter(outcome.key for outcome in outcomes
                               if not outcome.failures)
    reference = keys.most_common(1)[0][0] if keys else None
    failed = 0
    for outcome in outcomes:
        if not outcome.failures and outcome.key != reference:
            outcome.failures.append("digest or event count differs from "
                                    "the other runs of the set")
        if outcome.failures:
            failed += 1
            print("\n".join(outcome.failures), file=sys.stderr)
    return failed


def measure(workload: Any, seed: int,
            seconds: float) -> Tuple[Metrics, List[Any]]:
    """End-to-end metrics from untraced runs.

    Times are host seconds scaled to the reference host speed: the
    medians are multiplied by ``REFERENCE_S`` over the median time of the
    reference loop, timed before the first run and after every run.
    """
    from reference import REFERENCE_S, reference_seconds
    from workloads import execute, probe_setup

    prepared = workload.prepare(seed)
    runs: List[Any] = []
    setups: List[float] = []
    references = [reference_seconds()]
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        runs.append(execute(prepared))
        setups.append(runs[-1].setup_s)
        setups.extend(probe_setup(prepared) for _ in range(SETUP_PROBES))
        references.append(reference_seconds())
    wall = statistics.median(run.wall_s for run in runs)
    setup = statistics.median(setups)
    scale = REFERENCE_S / statistics.median(references)
    print(f"unscaled host seconds: wall {wall:.4f}, setup {setup:.6f}; "
          f"scale {scale:.4f}", file=sys.stderr)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (wall * scale, "s"),
        "setup_s": (setup * scale, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    return metrics, runs


def trace(workload: Any, seed: int,
          seconds: float) -> Tuple[Metrics, List[Any]]:
    """Per-layer metrics from traced runs, checked against untraced ones."""
    from tracer import LayerTracer
    from workloads import execute

    prepared = workload.prepare(seed)
    start = time.perf_counter()
    untraced: List[Any] = []
    while len(untraced) < 2 or time.perf_counter() < start + seconds / 3:
        untraced.append(execute(prepared))
    traced: List[Tuple[Any, Any]] = []
    while not traced or time.perf_counter() < start + seconds:
        tracer = LayerTracer()
        with tracer:
            outcome = execute(prepared, tracer)
        outcome.failures.extend(_trace_problems(outcome, tracer))
        traced.append((outcome, tracer))
    traced.sort(key=lambda pair: pair[0].wall_s)
    outcome, tracer = traced[len(traced) // 2]
    untraced_wall = statistics.median(run.wall_s for run in untraced)
    metrics = layer_metrics(outcome, tracer, untraced_wall)
    _write_trace(workload.name, seed, outcome, tracer, metrics)
    return metrics, untraced + [outcome for outcome, _ in traced]


def _trace_problems(outcome: Any, tracer: Any) -> List[str]:
    """Self-checks of one traced run: restoration and full attribution."""
    problems = [f"{name} was not restored" for name in tracer.unrestored()]
    layered = sum(total["self_s"] for total in tracer.layer_totals().values())
    if abs(layered - outcome.wall_s) > ATTRIBUTION_TOLERANCE * outcome.wall_s:
        problems.append(f"layer self times sum to {layered:.4f} s but the "
                        f"traced run took {outcome.wall_s:.4f} s")
    return problems


def layer_metrics(outcome: Any, tracer: Any, untraced_wall: float) -> Metrics:
    """The per-layer metrics of one traced run."""
    totals = tracer.layer_totals()
    metrics: Metrics = {}
    for layer, total in totals.items():
        metrics[f"{layer}.self_s"] = (total["self_s"], "s")
        metrics[f"{layer}.calls"] = (total["calls"], "count")

    def calls(boundary: str) -> int:
        return tracer.spans[boundary][1] if boundary in tracer.spans else 0

    def ns_per(layer: str, count: int) -> float:
        return totals[layer]["self_s"] * 1e9 / count if count else 0.0

    ports = tracer.instances["Port"]
    connections = tracer.instances["TcpConnection"]
    endpoints = tracer.instances["MtpEndpoint"]
    packets_tx = sum(port.packets_transmitted for port in ports)
    drops = sum(port.queue.packets_dropped + port.link_down_drops
                for port in ports)
    offered = drops + sum(port.queue.packets_enqueued for port in ports)
    data_packets = sum(endpoint.data_packets_sent for endpoint in endpoints)
    scans = tracer.counts["SendState.unsent_packets"]
    metrics.update({
        "sim.events": (outcome.events, "count"),
        "sim.ns_per_event": (ns_per("sim", outcome.events), "ns"),
        "net.packets_tx": (packets_tx, "count"),
        "net.ns_per_packet": (ns_per("net", packets_tx), "ns"),
        "net.drop_ratio": (drops / offered if offered else 0.0, "ratio"),
        "transport.retransmissions": (
            sum(conn.retransmissions for conn in connections), "count"),
        "transport.timeouts": (
            sum(conn.timeouts for conn in connections), "count"),
        "transport.ns_per_packet": (
            ns_per("transport", calls("TcpStack.handle_packet")), "ns"),
        "core.data_packets": (data_packets, "count"),
        "core.retransmissions": (
            sum(endpoint.retransmissions for endpoint in endpoints),
            "count"),
        "core.ns_per_packet": (
            ns_per("core", calls("MtpStack.handle_packet")), "ns"),
        "core.scan_per_packet": (
            scans / data_packets if data_packets else 0.0, "ratio"),
        "trace_overhead": (outcome.wall_s / untraced_wall, "ratio"),
    })
    return metrics


def _write_trace(name: str, seed: int, outcome: Any, tracer: Any,
                 metrics: Metrics) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{name}_seed{seed}.json"
    document = {
        "workload": name,
        "seed": seed,
        "traced_wall_s": outcome.wall_s,
        "layers": tracer.layer_totals(),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
        "spans": tracer.span_table(),
    }
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(f"spans and counts written to {path}", file=sys.stderr)


def _emit(label: str, correct: bool, attempted: int, failed: int,
          metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, metric in metrics.items():
        print(f"{label:12s} {name:26s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(workloads: Any, seed: int, seconds: float) -> int:
    """Both modes of every workload, each in a process of its own.

    A process per workload keeps ``peak_rss_mb`` that workload's own.
    Metric names are prefixed with the workload.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    correct = True
    for name in workloads.WORKLOADS:
        for traced in ("0", "1"):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", traced],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                check=False)
            sys.stderr.write(child.stderr)
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {name} --trace {traced} "
                                 f"exited with {child.returncode}")
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            merged.update((f"{name}.{metric}", value)
                          for metric, value in result["metrics"].items())
    _emit("all", correct, attempted, failed, merged)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    _load_checkout()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="input seed (held-out: "
                        f"{workloads.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(workloads, args.seed, args.seconds)
    workload = workloads.WORKLOADS[args.workload]
    run = trace if args.trace else measure
    metrics, outcomes = run(workload, args.seed, args.seconds)
    failed = _failed(outcomes)
    _emit(args.workload, failed == 0, len(outcomes), failed,
          {name: {"value": value, "unit": unit}
           for name, (value, unit) in metrics.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
