"""Command-line runner: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments            # run everything (a few minutes)
    python -m repro.experiments table1 fig5
    python -m repro.experiments --quick    # shorter simulations
    python -m repro.experiments --jobs 4   # experiments in parallel

Reports go to stdout; progress/timing chatter goes to stderr, so stdout
is byte-identical for any ``--jobs`` value (each experiment seeds its
own simulator — parallelism cannot perturb results, only wall clock).

Every report ends with ``[CLAIM] <id>: ... HOLDS|FAILS`` lines that check
the paper's claims against that report's own results.
``tests/integration/test_paper_claims.py`` runs ``--quick`` and requires
every claim to hold and stdout to equal ``tests/golden/quick_stdout.txt``.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..sim import milliseconds
from ..stats import percentile
from .ablations import (ablate_feedback_types, ablate_message_atomicity,
                        ablate_pathlet_granularity)
from .common import claim, format_table, reset_id_streams, sweep_map
from .extensions import (SENDERS_PER_WAVE, TCP_HEADER_BYTES, WAVES,
                         compare_fresh_senders, compare_message_independence,
                         compare_trimming, header_sizes, sweep_fig6_load,
                         sweep_flip_period)
from .fig2_proxy import Fig2Config, compare_fig2
from .fig3_one_rpf import Fig3Config, compare_fig3
from .fig5_multipath import Fig5Config, compare_fig5, run_fig5
from .fig6_loadbalance import Fig6Config, compare_fig6
from .fig7_isolation import Fig7Config, compare_fig7
from .fig8_failover import Fig8Config, compare_fig8
from .table1 import (BASELINE_LIMIT_PROBES, PROBES, render_paper_table,
                     run_baseline_probes, run_probes)


def _with_claims(report: str, claims) -> str:
    return report + "\n\n" + "\n".join(claims)


def run_table1(quick: bool) -> str:
    probes = run_probes()
    baseline = run_baseline_probes()
    lines = [render_paper_table(), "", "MTP column verified by probes:"]
    for requirement, passed in probes.items():
        status = "PASS" if passed else "FAIL"
        lines.append(f"  [{status}] {requirement}: "
                     f"{PROBES[requirement][0]}")
    lines.append("")
    lines.append("Baseline limitations confirmed by counterexample:")
    for name, confirmed in baseline.items():
        status = "CONFIRMED" if confirmed else "NOT REPRODUCED"
        lines.append(f"  [{status}] {name}: "
                     f"{BASELINE_LIMIT_PROBES[name][0]}")
    return _with_claims("\n".join(lines), [
        claim("table1.mtp_column", "every MTP-column probe passes",
              all(probes.values())),
        claim("table1.baseline_limits",
              "every baseline limitation is confirmed by counterexample",
              all(baseline.values())),
    ])


def run_fig2_report(quick: bool) -> str:
    config = Fig2Config(duration_ns=milliseconds(1.5 if quick else 3))
    limit_bytes = 256 * 1024
    results = compare_fig2(config, limited_buffer_bytes=limit_bytes)
    rows = [[result.mode, f"{result.peak_buffer_bytes / 1e6:.2f}",
             f"{result.buffer_growth_bps() / 1e9:.1f}",
             f"{result.client_goodput_bps / 1e9:.1f}",
             f"{result.server_goodput_bps / 1e9:.1f}"]
            for result in results.values()]
    unlimited, limited = results["unlimited"], results["limited"]
    mismatch_bps = config.client_rate_bps - config.server_rate_bps
    return _with_claims(format_table(
        ["mode", "peak buffer (MB)", "growth (Gbps)", "client (Gbps)",
         "server (Gbps)"], rows,
        title="Figure 2: TCP termination at a 100->40 Gbps proxy"), [
        claim("fig2.unlimited_growth",
              "unlimited rwnd: proxy buffer grows > 0.6x the client-server "
              "rate mismatch",
              unlimited.buffer_growth_bps() > 0.6 * mismatch_bps),
        claim("fig2.limited_bounded",
              "limited rwnd: peak proxy buffer < 4x the rwnd limit",
              limited.peak_buffer_bytes < 4 * limit_bytes),
        claim("fig2.limited_hol",
              "limited rwnd: client goodput < 0.6x unlimited (HOL-blocked)",
              limited.client_goodput_bps
              < 0.6 * unlimited.client_goodput_bps),
        claim("fig2.limited_server_busy",
              "limited rwnd: server goodput > 0.8x the server link rate",
              limited.server_goodput_bps > 0.8 * config.server_rate_bps),
    ])


def run_fig3_report(quick: bool) -> str:
    config = Fig3Config(duration_ns=milliseconds(2 if quick else 4))
    results = compare_fig3(config)
    rows = [[result.mode, f"{result.mean_throughput_bps / 1e9:.1f}",
             f"{result.throughput_cov:.3f}", result.messages_completed]
            for result in results.values()]
    per_message, persistent = results["per_message"], results["persistent"]
    return _with_claims(format_table(
        ["mode", "mean throughput (Gbps)", "CoV", "messages"], rows,
        title="Figure 3: 16KB messages, connection-per-message vs "
              "persistent"), [
        claim("fig3.per_message_underutilizes",
              "connection-per-message throughput < 0.95x persistent",
              per_message.mean_throughput_bps
              < 0.95 * persistent.mean_throughput_bps),
        claim("fig3.per_message_noisier",
              "connection-per-message throughput CoV > persistent",
              per_message.throughput_cov > persistent.throughput_cov),
        claim("fig3.per_message_fewer_messages",
              "connection-per-message completes fewer messages",
              per_message.messages_completed
              < persistent.messages_completed),
    ])


def run_fig5_report(quick: bool) -> str:
    config = Fig5Config(duration_ns=milliseconds(4 if quick else 8))
    results = compare_fig5(config)
    rows = [[result.protocol, f"{result.mean_goodput_bps / 1e9:.2f}",
             f"{result.stats['cov']:.2f}", result.unconverged_phases()]
            for result in results.values()]
    dctcp, mtp = results["dctcp"], results["mtp"]
    gain = (mtp.mean_goodput_bps / dctcp.mean_goodput_bps - 1) * 100
    return _with_claims(format_table(
        ["protocol", "mean goodput (Gbps)", "CoV", "unconverged phases"],
        rows,
        title=f"Figure 5: alternating 100<->10 Gbps paths (MTP "
              f"{gain:+.0f}%)"), [
        claim("fig5.mtp_vs_dctcp", "MTP mean goodput > 1.25x DCTCP",
              mtp.mean_goodput_bps > 1.25 * dctcp.mean_goodput_bps),
        claim("fig5.mtp_goodput", "MTP mean goodput > 35 Gbps",
              mtp.mean_goodput_bps > 35e9),
        claim("fig5.dctcp_progress", "DCTCP mean goodput > 5 Gbps",
              dctcp.mean_goodput_bps > 5e9),
        claim("fig5.mtp_converges",
              "MTP reaches 80% of the plateau in every flip phase",
              mtp.unconverged_phases() == 0),
        claim("fig5.dctcp_unconverged",
              "DCTCP misses 80% of the plateau in some flip phase",
              dctcp.unconverged_phases() > 0),
    ])


def run_fig6_report(quick: bool) -> str:
    config = Fig6Config(duration_ns=milliseconds(5 if quick else 8))
    results = compare_fig6(config)
    rows = [[result.system, result.messages_completed,
             f"{result.p50_fct_ns() / 1e3:.0f}",
             f"{result.p99_fct_ns() / 1e3:.0f}"]
            for result in results.values()]
    mtp_p99 = results["mtp_lb"].p99_fct_ns()
    return _with_claims(format_table(
        ["system", "messages", "p50 FCT (us)", "p99 FCT (us)"], rows,
        title="Figure 6: load balancers over two 100 Gbps paths"), [
        claim("fig6.mtp_lowest_p99",
              "MTP LB p99 FCT < ECMP's and < spraying's",
              mtp_p99 < results["ecmp"].p99_fct_ns()
              and mtp_p99 < results["spray"].p99_fct_ns()),
        claim("fig6.all_complete",
              "every system completes >= 95% of the offered messages",
              all(result.messages_completed
                  >= 0.95 * result.messages_offered
                  for result in results.values())),
    ])


def _isolates(result) -> bool:
    return 0.7 < result.throughput_ratio() < 1.4 and result.fairness > 0.95


def run_fig7_report(quick: bool) -> str:
    config = Fig7Config(duration_ns=milliseconds(3 if quick else 6))
    results = compare_fig7(config)
    rows = [[result.system,
             f"{result.tenant_goodput_bps['tenant1'] / 1e9:.1f}",
             f"{result.tenant_goodput_bps['tenant2'] / 1e9:.1f}",
             f"{result.fairness:.3f}"]
            for result in results.values()]
    return _with_claims(format_table(
        ["system", "tenant1 (Gbps)", "tenant2 (Gbps)", "Jain"], rows,
        title="Figure 7: per-entity isolation, tenant2 runs 8x streams"), [
        claim("fig7.shared_skewed",
              "shared queue: tenant2 goodput > 4x tenant1's",
              results["shared"].throughput_ratio() > 4.0),
        claim("fig7.separate_isolates",
              "per-tenant queues: 0.7 < tenant2/tenant1 < 1.4, Jain > 0.95",
              _isolates(results["separate"])),
        claim("fig7.fair_share_isolates",
              "MTP fair share: 0.7 < tenant2/tenant1 < 1.4, Jain > 0.95",
              _isolates(results["fair_share"])),
        claim("fig7.link_utilized",
              "every system: total goodput > 0.7x the bottleneck rate",
              all(sum(result.tenant_goodput_bps.values())
                  > 0.7 * config.bottleneck_rate_bps
                  for result in results.values())),
    ])


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
    telemetry = results["mtp"].telemetry
    tcp_ttr = results["dctcp"].link_down_ttr_ns
    mtp_ttr = results["mtp"].link_down_ttr_ns
    return _with_claims("\n".join([format_table(
        ["protocol", "TTR (us)", "dip (Gbps)", "retx storm",
         "goodput (Gbps)", "ledger"], rows,
        title="Figure 8: primary-link failure, offload migration, "
              "corruption window"),
        f"telemetry offload: {telemetry.packets} packets "
        f"counted across {len(telemetry.migrations)} "
        f"migration(s) {telemetry.migrations}"]), [
        claim("fig8.mtp_recovers_faster",
              "MTP recovers from the link failure before DCTCP does",
              mtp_ttr is not None
              and (tcp_ttr is None or mtp_ttr < tcp_ttr)),
    ])


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
    # The per-link granularity point is already Figure 5 with ECN feedback.
    dialects = {"ecn": granularity["per_link"]}
    for dialect in ("delay", "rate"):
        dialects[dialect] = run_fig5("mtp", Fig5Config(
            duration_ns=duration, mtp_feedback=dialect))
    sections.append(format_table(
        ["dialect", "mean goodput (Gbps)", "unconverged phases"],
        [[dialect, f"{result.mean_goodput_bps / 1e9:.1f}",
          result.unconverged_phases()]
         for dialect, result in dialects.items()],
        title="Ablation: feedback dialects (Figure-5 scenario)"))
    atomicity = ablate_message_atomicity(Fig6Config(duration_ns=duration))
    sections.append(format_table(
        ["placement", "p50 FCT (us)", "p99 FCT (us)"],
        [[label, f"{result.p50_fct_ns() / 1e3:.0f}",
          f"{result.p99_fct_ns() / 1e3:.0f}"]
         for label, result in atomicity.items()],
        title="Ablation: message atomicity (Figure-6 scenario)"))
    return _with_claims("\n\n".join(sections), [
        claim("ablations.pathlet_granularity",
              "per-link pathlets beat one global pathlet on goodput",
              granularity["per_link"].mean_goodput_bps
              > granularity["single"].mean_goodput_bps),
        claim("ablations.feedback_fills_link",
              "every dialect: goodput > 0.85x the bottleneck rate",
              all(info["goodput_bps"] > 0.85 * info["capacity_bps"]
                  for info in feedback.values())),
        claim("ablations.feedback_bounded_queue",
              "every dialect: peak queue < 256 packets",
              all(info["peak_queue_pkts"] < 256
                  for info in feedback.values())),
        *(claim(f"ablations.fig5_{dialect}",
                f"Figure 5 with {dialect} feedback: MTP > 35 Gbps and "
                f"converged in every flip phase",
                result.mean_goodput_bps > 35e9
                and result.unconverged_phases() == 0)
          for dialect, result in dialects.items()),
        claim("ablations.atomicity_completes",
              "atomic and sprayed placement both complete >= 95% of the "
              "offered messages",
              all(result.messages_completed
                  >= 0.95 * result.messages_offered
                  for result in atomicity.values())),
    ])


def run_extensions_report(quick: bool) -> str:
    sections = []
    trimming = compare_trimming()
    sections.append(format_table(
        ["loss handling", "20KB FCT (ms)", "NACK repairs",
         "retransmissions"],
        [[label, "never" if fct is None else f"{fct / 1e6:.2f}",
          sender.nack_repairs, sender.retransmissions]
         for label, (fct, sender) in trimming.items()],
        title="Extension: NDP-style trimming, 20KB burst through an "
              "8-packet bottleneck"))
    fresh = compare_fresh_senders()
    sections.append(format_table(
        ["feedback", "messages", "p50 FCT (us)", "p99 FCT (us)",
         "peak queue (pkts)"],
        [[kind, len(fcts), f"{percentile(fcts, 50) / 1e3:.0f}",
          f"{percentile(fcts, 99) / 1e3:.0f}", peak]
         for kind, (fcts, peak) in fresh.items()],
        title=f"Extension: {WAVES} waves of {SENDERS_PER_WAVE} fresh "
              f"senders on a 10 Gbps pathlet, ECN vs explicit rate"))
    rpcs = compare_message_independence()
    sections.append(format_table(
        ["transport", "small RPCs", "p50 (us)", "p99 (us)"],
        [[name, len(latencies), f"{percentile(latencies, 50) / 1e3:.0f}",
          f"{percentile(latencies, 99) / 1e3:.0f}"]
         for name, latencies in rpcs.items()],
        title="Extension: small-RPC latency behind 400KB elephants, one "
              "TCP stream vs MTP messages"))
    fig5 = Fig5Config(duration_ns=milliseconds(4 if quick else 8))
    multipath = {protocol: run_fig5(protocol, fig5)
                 for protocol in ("mptcp", "mtp")}
    sections.append(format_table(
        ["protocol", "mean goodput (Gbps)", "unconverged phases"],
        [[protocol, f"{result.mean_goodput_bps / 1e9:.1f}",
          result.unconverged_phases()]
         for protocol, result in multipath.items()],
        title="Extension: MPTCP on the Figure-5 alternating paths"))
    sizes = header_sizes()
    sections.append(format_table(
        ["feedback entries", "MTP header (bytes)", "vs TCP (40B)"],
        [[count, size, f"{size / TCP_HEADER_BYTES:.1f}x"]
         for count, size in sizes.items()],
        title="Extension: MTP header size vs pathlet feedback entries"))
    (trim_fct, trim_sender), (drop_fct, drop_sender) = (
        trimming["trimming"], trimming["drop_tail"])
    (ecn_fcts, ecn_peak), (rate_fcts, rate_peak) = (fresh["ecn"],
                                                    fresh["rate"])
    tcp_rpcs, mtp_rpcs = rpcs["tcp-stream"], rpcs["mtp-messages"]
    return _with_claims("\n\n".join(sections), [
        claim("ext.ndp_trimming_nacks",
              "trimming repairs by NACK; drop-tail sends no NACK",
              trim_sender.nack_repairs > 0
              and drop_sender.nack_repairs == 0),
        claim("ext.ndp_trimming_faster",
              "20KB FCT with trimming < 0.7x drop-tail's",
              trim_fct is not None and drop_fct is not None
              and trim_fct < 0.7 * drop_fct),
        claim("ext.rcp_comparable_fct",
              "every fresh sender completes; explicit-rate p99 FCT <= "
              "1.25x ECN's",
              len(ecn_fcts) == len(rate_fcts) == WAVES * SENDERS_PER_WAVE
              and percentile(rate_fcts, 99)
              <= 1.25 * percentile(ecn_fcts, 99)),
        claim("ext.rcp_smaller_queue",
              "explicit-rate peak queue < ECN's", rate_peak < ecn_peak),
        claim("ext.message_independence",
              "> 100 small RPCs each; MTP small-RPC p99 < 0.5x the TCP "
              "stream's",
              len(tcp_rpcs) > 100 and len(mtp_rpcs) > 100
              and percentile(mtp_rpcs, 99)
              < 0.5 * percentile(tcp_rpcs, 99)),
        claim("ext.mtp_vs_mptcp", "MTP mean goodput > 1.05x MPTCP",
              multipath["mtp"].mean_goodput_bps
              > 1.05 * multipath["mptcp"].mean_goodput_bps),
        claim("ext.mptcp_unconverged",
              "MPTCP misses 80% of the plateau in some flip phase",
              multipath["mptcp"].unconverged_phases() > 0),
        claim("ext.header_outgrows_tcp",
              "one feedback entry makes the MTP header larger than TCP's",
              sizes[1] > TCP_HEADER_BYTES),
        claim("ext.header_linear",
              "8 feedback entries stay below 8x TCP's header",
              sizes[8] < 8 * TCP_HEADER_BYTES),
    ])


def run_sweep_flip_report(quick: bool) -> str:
    sweep = sweep_flip_period(milliseconds(4 if quick else 4.5))
    rows = []
    claims = []
    for period, results in sweep.items():
        dctcp = results["dctcp"].mean_goodput_bps
        mtp = results["mtp"].mean_goodput_bps
        rows.append([period, f"{dctcp / 1e9:.1f}", f"{mtp / 1e9:.1f}",
                     f"{mtp / dctcp:.2f}x"])
        claims.append(claim(
            f"sweep_flip.mtp_wins_{period}us",
            f"{period} us flips: MTP > 1.1x DCTCP and > 20 Gbps",
            mtp > 1.1 * dctcp and mtp > 20e9))
    return _with_claims(format_table(
        ["flip period (us)", "DCTCP (Gbps)", "MTP (Gbps)",
         "MTP advantage"], rows,
        title="Sweep: Figure-5 goodput vs path-alternation period"),
        claims)


def run_sweep_load_report(quick: bool) -> str:
    sweep = sweep_fig6_load(milliseconds(2 if quick else 6))
    p99 = {load: {system: result.p99_fct_ns()
                  for system, result in results.items()}
           for load, results in sweep.items()}
    rows = [[f"{load:.2f}", *(f"{tails[system] / 1e3:.0f}"
                              for system in ("ecmp", "spray", "mtp_lb"))]
            for load, tails in p99.items()]
    loads = list(p99)
    return _with_claims(format_table(
        ["offered load", "ECMP p99 (us)", "spray p99 (us)",
         "MTP LB p99 (us)"], rows,
        title="Sweep: Figure-6 tail FCT vs offered load (seed 3)"), [
        claim("sweep_load.mtp_never_loses",
              "every load: MTP LB p99 FCT <= 1.1x ECMP's and spraying's",
              all(tails["mtp_lb"] <= 1.1 * tails["ecmp"]
                  and tails["mtp_lb"] <= 1.1 * tails["spray"]
                  for tails in p99.values())),
        claim("sweep_load.mtp_wins_below_heavy",
              f"loads {loads[0]:.2f} and {loads[1]:.2f}: MTP LB p99 FCT < "
              f"ECMP's and spraying's",
              all(p99[load]["mtp_lb"] < p99[load]["ecmp"]
                  and p99[load]["mtp_lb"] < p99[load]["spray"]
                  for load in loads[:2])),
    ])


EXPERIMENTS = {
    "table1": run_table1,
    "fig2": run_fig2_report,
    "fig3": run_fig3_report,
    "fig5": run_fig5_report,
    "fig6": run_fig6_report,
    "fig7": run_fig7_report,
    "fig8": run_fig8_report,
    "ablations": run_ablations_report,
    "extensions": run_extensions_report,
    "sweep_flip": run_sweep_flip_report,
    "sweep_load": run_sweep_load_report,
}


def _run_experiment(job):
    """Sweep worker: one ``(name, quick)`` point -> ``(name, report, s)``.

    Module-level so :func:`.common.sweep_map` can pickle it into
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
