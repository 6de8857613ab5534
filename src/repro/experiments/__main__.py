"""Command-line runner: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments            # run everything (a few minutes)
    python -m repro.experiments table1 fig5
    python -m repro.experiments --quick    # shorter simulations
    python -m repro.experiments --jobs 4   # experiments in parallel

Reports go to stdout; progress/timing chatter goes to stderr, so stdout
is byte-identical for any ``--jobs`` value (each experiment seeds its
own simulator — parallelism cannot perturb results, only wall clock).

Benchmark-grade runs with timings live in ``pytest benchmarks/
--benchmark-only``; this runner is the human-friendly front end.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..perf import sweep_map
from ..sim import milliseconds
from .ablations import (ablate_feedback_types, ablate_message_atomicity,
                        ablate_pathlet_granularity)
from .common import format_table, reset_id_streams
from .fig2_proxy import Fig2Config, compare_fig2
from .fig3_one_rpf import Fig3Config, compare_fig3
from .fig5_multipath import Fig5Config, compare_fig5
from .fig6_loadbalance import Fig6Config, compare_fig6
from .fig7_isolation import Fig7Config, compare_fig7
from .fig8_failover import Fig8Config, compare_fig8
from .table1 import (BASELINE_LIMIT_PROBES, PROBES, render_paper_table,
                     run_baseline_probes, run_probes)


def run_table1(quick: bool) -> str:
    probes = run_probes()
    lines = [render_paper_table(), "", "MTP column verified by probes:"]
    for requirement, passed in probes.items():
        status = "PASS" if passed else "FAIL"
        lines.append(f"  [{status}] {requirement}: "
                     f"{PROBES[requirement][0]}")
    lines.append("")
    lines.append("Baseline limitations confirmed by counterexample:")
    for name, confirmed in run_baseline_probes().items():
        status = "CONFIRMED" if confirmed else "NOT REPRODUCED"
        lines.append(f"  [{status}] {name}: "
                     f"{BASELINE_LIMIT_PROBES[name][0]}")
    return "\n".join(lines)


def run_fig2_report(quick: bool) -> str:
    config = Fig2Config(duration_ns=milliseconds(1.5 if quick else 3))
    results = compare_fig2(config)
    rows = [[result.mode, f"{result.peak_buffer_bytes / 1e6:.2f}",
             f"{result.buffer_growth_bps() / 1e9:.1f}",
             f"{result.client_goodput_bps / 1e9:.1f}",
             f"{result.server_goodput_bps / 1e9:.1f}"]
            for result in results.values()]
    return format_table(
        ["mode", "peak buffer (MB)", "growth (Gbps)", "client (Gbps)",
         "server (Gbps)"], rows,
        title="Figure 2: TCP termination at a 100->40 Gbps proxy")


def run_fig3_report(quick: bool) -> str:
    config = Fig3Config(duration_ns=milliseconds(2 if quick else 4))
    results = compare_fig3(config)
    rows = [[result.mode, f"{result.mean_throughput_bps / 1e9:.1f}",
             f"{result.throughput_cov:.3f}", result.messages_completed]
            for result in results.values()]
    return format_table(
        ["mode", "mean throughput (Gbps)", "CoV", "messages"], rows,
        title="Figure 3: 16KB messages, connection-per-message vs "
              "persistent")


def run_fig5_report(quick: bool) -> str:
    config = Fig5Config(duration_ns=milliseconds(4 if quick else 8))
    results = compare_fig5(config)
    rows = [[result.protocol, f"{result.mean_goodput_bps / 1e9:.2f}",
             f"{result.stats['cov']:.2f}", result.unconverged_phases()]
            for result in results.values()]
    gain = (results["mtp"].mean_goodput_bps
            / results["dctcp"].mean_goodput_bps - 1) * 100
    return format_table(
        ["protocol", "mean goodput (Gbps)", "CoV", "unconverged phases"],
        rows,
        title=f"Figure 5: alternating 100<->10 Gbps paths (MTP "
              f"+{gain:.0f}%)")


def run_fig6_report(quick: bool) -> str:
    config = Fig6Config(duration_ns=milliseconds(5 if quick else 8))
    results = compare_fig6(config)
    rows = [[result.system, result.messages_completed,
             f"{result.p50_fct_ns() / 1e3:.0f}",
             f"{result.p99_fct_ns() / 1e3:.0f}"]
            for result in results.values()]
    return format_table(
        ["system", "messages", "p50 FCT (us)", "p99 FCT (us)"], rows,
        title="Figure 6: load balancers over two 100 Gbps paths")


def run_fig7_report(quick: bool) -> str:
    config = Fig7Config(duration_ns=milliseconds(3 if quick else 6))
    results = compare_fig7(config)
    rows = [[result.system,
             f"{result.tenant_goodput_bps['tenant1'] / 1e9:.1f}",
             f"{result.tenant_goodput_bps['tenant2'] / 1e9:.1f}",
             f"{result.fairness:.3f}"]
            for result in results.values()]
    return format_table(
        ["system", "tenant1 (Gbps)", "tenant2 (Gbps)", "Jain"], rows,
        title="Figure 7: per-entity isolation, tenant2 runs 8x streams")


def run_fig8_report(quick: bool) -> str:
    config = Fig8Config(duration_ns=milliseconds(5 if quick else 6))
    results = compare_fig8(config)

    def fmt_ttr(ttr):
        return f"{ttr / 1e3:.0f}" if ttr is not None else "never"

    rows = []
    for result in results.values():
        verdict = result.recovery("link_down")
        rows.append([
            result.protocol, fmt_ttr(result.link_down_ttr_ns),
            f"{verdict.dip_bps / 1e9:.2f}" if verdict else "-",
            verdict.retx_storm if verdict else "-",
            f"{result.mean_goodput_bps / 1e9:.1f}",
            "OK" if result.conservation and result.conservation.ok
            else "LEAK"])
    lines = [format_table(
        ["protocol", "TTR (us)", "dip (Gbps)", "retx storm",
         "goodput (Gbps)", "ledger"], rows,
        title="Figure 8: primary-link failure, offload migration, "
              "corruption window")]
    tcp_ttr = results["dctcp"].link_down_ttr_ns
    mtp_ttr = results["mtp"].link_down_ttr_ns
    if mtp_ttr is not None and (tcp_ttr is None or mtp_ttr < tcp_ttr):
        speedup = (f"{tcp_ttr / mtp_ttr:.1f}x faster"
                   if tcp_ttr is not None else "TCP never recovered")
        lines.append(f"MTP recovers in {mtp_ttr / 1e3:.0f} us "
                     f"({speedup}).")
    else:
        lines.append("WARNING: MTP did not recover faster than TCP.")
    telemetry = results["mtp"].telemetry
    lines.append(f"telemetry offload: {telemetry.packets} packets "
                 f"counted across {len(telemetry.migrations)} "
                 f"migration(s) {telemetry.migrations}")
    return "\n".join(lines)


def run_ablations_report(quick: bool) -> str:
    duration = milliseconds(3 if quick else 5)
    sections = []
    granularity = ablate_pathlet_granularity(Fig5Config(duration_ns=duration))
    sections.append(format_table(
        ["pathlet mode", "mean goodput (Gbps)"],
        [[mode, f"{result.mean_goodput_bps / 1e9:.1f}"]
         for mode, result in granularity.items()],
        title="Ablation: pathlet granularity (Figure-5 scenario)"))
    feedback = ablate_feedback_types(duration_ns=duration)
    sections.append(format_table(
        ["feedback", "goodput (Gbps)", "peak queue (pkts)"],
        [[kind, f"{info['goodput_bps'] / 1e9:.2f}",
          info["peak_queue_pkts"]] for kind, info in feedback.items()],
        title="Ablation: feedback dialects (10 Gbps bottleneck)"))
    atomicity = ablate_message_atomicity(Fig6Config(duration_ns=duration))
    sections.append(format_table(
        ["placement", "p50 FCT (us)", "p99 FCT (us)"],
        [[label, f"{result.p50_fct_ns() / 1e3:.0f}",
          f"{result.p99_fct_ns() / 1e3:.0f}"]
         for label, result in atomicity.items()],
        title="Ablation: message atomicity (Figure-6 scenario)"))
    return "\n\n".join(sections)


EXPERIMENTS = {
    "table1": run_table1,
    "fig2": run_fig2_report,
    "fig3": run_fig3_report,
    "fig5": run_fig5_report,
    "fig6": run_fig6_report,
    "fig7": run_fig7_report,
    "fig8": run_fig8_report,
    "ablations": run_ablations_report,
}


def _run_experiment(job):
    """Sweep worker: one ``(name, quick)`` point -> ``(name, report, s)``.

    Module-level so :func:`repro.perf.sweep_map` can pickle it into
    worker processes when ``--jobs N`` fans experiments out.
    """
    name, quick = job
    # Every experiment starts from the same IDs, so its report does not
    # depend on which experiments ran before it in this process.
    reset_id_streams()
    started = time.time()
    report = EXPERIMENTS[name](quick)
    return name, report, time.time() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the MTP paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help=f"subset to run (default: all of "
                             f"{', '.join(EXPERIMENTS)})")
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulations (coarser numbers)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments in N worker processes "
                             "(stdout is identical for any N)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments
               if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments {unknown}; "
                     f"choose from {', '.join(EXPERIMENTS)}")
    selected = args.experiments or list(EXPERIMENTS)
    jobs = [(name, args.quick) for name in selected]
    for name, report, elapsed in sweep_map(_run_experiment, jobs,
                                           jobs=args.jobs):
        print(f"=== {name} " + "=" * (60 - len(name)))
        print(report)
        print()
        print(f"--- {name} finished in {elapsed:.1f}s",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
