"""The benchmark's workloads: paper scenarios run through the public drivers.

Each workload is one or more sub-runs of ``run_fig5`` / ``run_fig6`` /
``run_fig7`` with a :class:`TimedSimulator` passed in, the shape check
that ``benchmarks/test_fig{5,6,7}_*.py`` assert for those systems, and a
digest of the results that the same code and inputs reproduce exactly.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.workload import (LogUniformSize, MessageWorkload,
                                 PoissonArrivals)
from repro.experiments import (Fig5Config, Fig6Config, Fig7Config, run_fig5,
                               run_fig6, run_fig7)
from repro.experiments.fig6_loadbalance import SYSTEMS as FIG6_SYSTEMS
from repro.net.packet import PACKET_POOL
from repro.sim import SeedSequence, Simulator, milliseconds

__all__ = ["WORKLOADS", "DEFAULT_SEED", "HELD_OUT_SEED", "Outcome",
           "Prepared", "TimedSimulator", "Workload", "execute",
           "lb_mix_config", "probe_setup"]

#: The committed benchmark seed, and the one kept back for verifying
#: claims.  Only lb_mix has random inputs.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: Simulated length of each workload's sub-runs.
DCTCP_FLIP_NS = milliseconds(8)
MTP_TENANTS_NS = milliseconds(3)
LB_MIX_NS = milliseconds(2.5)

#: lb_mix takes the first ``Fig6Config.seed`` derived from the benchmark
#: seed whose mix offers this close to the nominal byte load.  About 90
#: log-uniform messages arrive in a run, so offered bytes swing ~16%
#: between seeds and host time follows them; conditioning on the load
#: keeps the mix random and the amount of work steady.
LB_MIX_LOAD_TOLERANCE = 0.02

#: Process-global ID streams (module, attribute).  ECMP hashes flow labels
#: built from host addresses, so every run restarts them at 1; otherwise
#: each run of a set would see other addresses and take other paths.
_ID_STREAMS = (
    ("repro.net.packet", "_packet_ids"),
    ("repro.net.node", "_addresses"),
    ("repro.core.message", "_message_ids"),
    ("repro.core.reassembly", "_blob_ids"),
    ("repro.core.pathlets", "_pathlet_ids"),
    ("repro.transport.quic", "_connection_ids"),
    ("repro.transport.rdma", "_qp_numbers"),
    ("repro.transport.mptcp", "_meta_ids"),
    ("repro.transport.udp", "_datagram_ids"),
    ("repro.apps.kvs", "_request_ids"),
    ("repro.apps.rpc", "_rpc_ids"),
    ("repro.offloads.gateway", "_session_ids"),
)


class TimedSimulator(Simulator):
    """Notes the host time at which ``run`` starts: set-up ends there.

    One timestamp per run, nothing per event.
    """

    __slots__ = ("run_started",)

    def __init__(self) -> None:
        super().__init__()
        self.run_started = 0.0

    def run(self, until: Optional[int] = None) -> int:
        self.run_started = time.perf_counter()
        return super().run(until)


class _SetupDone(Exception):
    """Stops a driver call where its simulation would start."""


class _SetupProbe(TimedSimulator):
    """Times set-up alone: ``run`` stops the driver instead of simulating."""

    __slots__ = ()

    def run(self, until: Optional[int] = None) -> int:
        self.run_started = time.perf_counter()
        raise _SetupDone


class Outcome:
    """Host times, work done and verdict of one workload run."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.setup_s = 0.0
        #: ``Simulator.events_executed`` summed over the sub-runs.
        self.events = 0
        self.digest = ""
        #: Why the run failed; empty when it passed.
        self.failures: List[str] = []

    @property
    def key(self) -> Tuple[str, int]:
        """What every run of one set must agree on."""
        return self.digest, self.events


Driver = Callable[[Simulator], Any]
#: results by sub-run label -> (data to digest, shape-check failures)
Check = Callable[[Dict[str, Any]], Tuple[Any, List[str]]]


class Prepared:
    """A workload with its inputs made: the sub-runs and the result check."""

    def __init__(self, subruns: List[Tuple[str, Driver]], check: Check):
        self.subruns = subruns
        self.check = check


class Workload:
    """A named benchmark workload."""

    def __init__(self, name: str, dominant: Tuple[str, ...],
                 prepare: Callable[[int], Prepared]):
        self.name = name
        #: Layers expected to hold the largest self-time share together.
        self.dominant = dominant
        #: seed -> the workload with its inputs made
        self.prepare = prepare


def _reset_ids() -> None:
    for module_path, attribute in _ID_STREAMS:
        setattr(importlib.import_module(module_path), attribute,
                itertools.count(1))
    PACKET_POOL._free.clear()


def execute(prepared: Prepared, tracer: Any = None) -> Outcome:
    """One complete run: every sub-run, then result extraction and check.

    With a tracer the whole run is its harness span (layer
    "experiments"), so the layer self times add up to ``wall_s``.
    """
    _reset_ids()
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        outcome = _execute(prepared)
    else:
        outcome = tracer.call("experiments", "harness.workload", _execute,
                              prepared)
    outcome.wall_s = time.perf_counter() - start
    return outcome


def _execute(prepared: Prepared) -> Outcome:
    outcome = Outcome()
    results: Dict[str, Any] = {}
    try:
        for label, driver in prepared.subruns:
            sim = TimedSimulator()
            start = time.perf_counter()
            results[label] = driver(sim)
            outcome.setup_s += sim.run_started - start
            outcome.events += sim.events_executed
        data, outcome.failures = prepared.check(results)
    except Exception:  # a run that raises is a failed run, reported
        outcome.failures = [traceback.format_exc(limit=4)]
        return outcome
    outcome.digest = hashlib.sha256(repr(data).encode()).hexdigest()
    return outcome


def probe_setup(prepared: Prepared) -> float:
    """Host seconds of set-up summed over the sub-runs, without simulating."""
    _reset_ids()
    gc.collect()
    total = 0.0
    for _label, driver in prepared.subruns:
        sim = _SetupProbe()
        start = time.perf_counter()
        try:
            driver(sim)
        except _SetupDone:
            pass
        total += sim.run_started - start
    return total


# -- dctcp_flip -------------------------------------------------------


def _dctcp_flip(seed: int) -> Prepared:
    """Fig-5 DCTCP alone.  No random inputs: ``seed`` is unused."""
    config = Fig5Config(duration_ns=DCTCP_FLIP_NS)

    def check(results: Dict[str, Any]) -> Tuple[Any, List[str]]:
        result = results["dctcp"]
        failures = []
        if not result.mean_goodput_bps > 5e9:
            failures.append(f"DCTCP goodput {result.mean_goodput_bps:.3g} "
                            "bps is not above 5 Gbps")
        if not result.unconverged_phases() > 0:
            failures.append("DCTCP converged in every flip phase")
        return result.series, failures

    return Prepared([("dctcp", lambda sim: run_fig5("dctcp", config,
                                                    sim=sim))], check)


# -- mtp_tenants ------------------------------------------------------


def _mtp_tenants(seed: int) -> Prepared:
    """Fig-7 fair_share alone.  No random inputs: ``seed`` is unused."""
    config = Fig7Config(duration_ns=MTP_TENANTS_NS)

    def check(results: Dict[str, Any]) -> Tuple[Any, List[str]]:
        result = results["fair_share"]
        goodput = result.tenant_goodput_bps
        failures = []
        if not 0.7 < result.throughput_ratio() < 1.4:
            failures.append(f"tenant ratio {result.throughput_ratio():.3f} "
                            "is outside (0.7, 1.4)")
        if not result.fairness > 0.95:
            failures.append(f"Jain index {result.fairness:.3f} <= 0.95")
        if not sum(goodput.values()) > 0.7 * config.bottleneck_rate_bps:
            failures.append("bottleneck below 70% utilization")
        return sorted(goodput.items()), failures

    return Prepared([("fair_share", lambda sim: run_fig7(
        "fair_share", config, sim=sim))], check)


# -- lb_mix -----------------------------------------------------------


def lb_mix_config(seed: int) -> Tuple[Fig6Config, int]:
    """The Fig-6 config for a benchmark seed, and its offered messages."""
    for attempt in range(1000):
        config = Fig6Config(duration_ns=LB_MIX_NS,
                            seed=seed * 1000 + attempt)
        count, nbytes = _offered(config)
        window_s = (config.duration_ns - milliseconds(1)) / 1e9
        nominal = (config.offered_load * 2 * config.path_rate_bps / 8
                   * window_s)
        if abs(nbytes / nominal - 1) <= LB_MIX_LOAD_TOLERANCE:
            return config, count
    raise RuntimeError(f"no lb_mix input near the nominal load for {seed}")


def _offered(config: Fig6Config) -> Tuple[int, int]:
    """Messages and bytes ``run_fig6`` offers for ``config``.

    Replays the driver's generator (stream "fig6", arrivals stop 1 ms
    before the end) on an otherwise empty simulator.  The lb_mix check
    compares the count with what the driver reports, so a drift between
    the two fails the run instead of passing unnoticed.
    """
    sim = Simulator()
    workload = MessageWorkload(
        sim, SeedSequence(config.seed).stream("fig6"),
        LogUniformSize(config.min_message_bytes, config.max_message_bytes),
        PoissonArrivals(config.arrival_rate_per_sec()), lambda size: None,
        stop_at_ns=config.duration_ns - milliseconds(1))
    workload.start()
    sim.run(until=config.duration_ns)
    return workload.generated, workload.bytes_generated


def _lb_mix(seed: int) -> Prepared:
    """Fig-6, all three systems on one seeded mix.

    The check is the completion half of the Fig-6 benchmark test.  Its
    other half, mtp_lb's p99 below ECMP's and spray's, holds for the full
    8 ms figure but not for every 1.5 ms arrival window: on 6 of 30 seeds
    even the p50 order flips.  It is a property of the figure, not of
    each input, so it does not fail a run here.
    """
    config, offered = lb_mix_config(seed)

    def check(results: Dict[str, Any]) -> Tuple[Any, List[str]]:
        failures = []
        for system, result in results.items():
            if result.messages_offered != offered:
                failures.append(f"{system} offered {result.messages_offered}"
                                f" messages, expected {offered}")
            if result.messages_completed < 0.95 * result.messages_offered:
                failures.append(f"{system} completed under 95% of messages")
        data = [(system, result.messages_offered, result.fct.completions())
                for system, result in results.items()]
        return data, failures

    subruns = [(system, lambda sim, system=system: run_fig6(
        system, config, sim=sim)) for system in FIG6_SYSTEMS]
    return Prepared(subruns, check)


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload("dctcp_flip", ("transport",), _dctcp_flip),
    Workload("mtp_tenants", ("core",), _mtp_tenants),
    Workload("lb_mix", ("sim", "net"), _lb_mix),
)}
