"""Recovery metrics: how fast does a transport climb back after a fault?

:class:`RecoveryMonitor` wraps a goodput :class:`~repro.net.monitor
.RateMonitor` and (optionally) a retransmission probe.  The experiment
records delivered bytes and notes each fault's onset; after the run,
:meth:`report` computes, per fault:

* **time to recovery** — first goodput bin at or above a fraction of the
  pre-fault baseline,
* **dip depth** — the lowest goodput bin between fault and recovery,
* **retransmission storm** — retransmissions issued between fault onset
  and recovery.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from ..net.monitor import PeriodicSampler, RateMonitor
from ..sim.engine import Simulator

__all__ = ["RecoveryMonitor", "FaultRecovery"]

#: The pre-fault baseline averages up to this many non-zero goodput bins.
BASELINE_BINS = 8


class FaultRecovery:
    """Per-fault recovery verdict (all times in virtual ns)."""

    __slots__ = ("label", "fault_ns", "baseline_bps", "recovered_ns",
                 "time_to_recovery_ns", "dip_bps", "retx_storm")

    def __init__(self, label: str, fault_ns: int, baseline_bps: float,
                 recovered_ns: Optional[int],
                 time_to_recovery_ns: Optional[int], dip_bps: float,
                 retx_storm: Optional[int]):
        self.label = label
        self.fault_ns = fault_ns
        self.baseline_bps = baseline_bps
        #: Start of the first bin meeting the recovery threshold; None if
        #: goodput never recovered within the observed series.
        self.recovered_ns = recovered_ns
        self.time_to_recovery_ns = time_to_recovery_ns
        #: Lowest goodput bin between the fault and recovery (storm floor).
        self.dip_bps = dip_bps
        #: Retransmissions issued between fault onset and recovery
        #: (None when no probe was configured).
        self.retx_storm = retx_storm

    @property
    def recovered(self) -> bool:
        """True when goodput returned to the recovery threshold."""
        return self.recovered_ns is not None

    def as_dict(self) -> dict:
        """Plain-dict form for JSON reports."""
        return {
            "label": self.label,
            "fault_ns": self.fault_ns,
            "baseline_bps": self.baseline_bps,
            "recovered_ns": self.recovered_ns,
            "time_to_recovery_ns": self.time_to_recovery_ns,
            "dip_bps": self.dip_bps,
            "retx_storm": self.retx_storm,
        }

    def __repr__(self) -> str:
        ttr = (f"{self.time_to_recovery_ns}ns"
               if self.time_to_recovery_ns is not None else "never")
        return f"<FaultRecovery {self.label!r} ttr={ttr}>"


class RecoveryMonitor:
    """Goodput-timeline probe with per-fault recovery accounting.

    The experiment calls :meth:`record_bytes` as the application delivers
    data and :meth:`note_fault` at each fault's onset (typically wired to
    the same timestamps as the chaos schedule).  With a ``retx_probe``
    (a zero-argument callable returning the cumulative retransmission
    count), the monitor samples it once per goodput bin so storms can be
    attributed to faults after the run.
    """

    def __init__(self, sim: Simulator, interval_ns: int,
                 retx_probe: Optional[Callable[[], float]] = None):
        self.sim = sim
        self.interval_ns = interval_ns
        self.rate = RateMonitor(sim, interval_ns)
        self._faults: List[Tuple[int, str, Optional[float]]] = []
        self.retx_probe = retx_probe
        self._retx_sampler: Optional[PeriodicSampler] = None
        if retx_probe is not None:
            self._retx_sampler = PeriodicSampler(sim, interval_ns,
                                                 retx_probe)

    def record_bytes(self, nbytes: int) -> None:
        """Account delivered application bytes at the current time."""
        self.rate.record_bytes(nbytes)

    def note_fault(self, label: str = "") -> None:
        """Mark a fault onset at the current virtual time."""
        retx_now = (self.retx_probe() if self.retx_probe is not None
                    else None)
        self._faults.append((self.sim.now, label, retx_now))

    # -- analysis -------------------------------------------------------

    def _retx_at(self, time_ns: int) -> Optional[float]:
        """Cumulative retransmission count at (or just before) a time."""
        if self._retx_sampler is None:
            return None
        samples = self._retx_sampler.samples
        index = bisect_right([t for t, _ in samples], time_ns) - 1
        if index < 0:
            return 0.0
        return samples[index][1]

    def report(self, recover_fraction: float = 0.8,
               until_ns: Optional[int] = None) -> List[FaultRecovery]:
        """Recovery verdict per noted fault.

        The baseline is the mean of up to ``BASELINE_BINS`` non-zero
        goodput bins immediately before the fault; recovery is the first
        bin at or after the fault whose goodput reaches
        ``recover_fraction * baseline``.
        """
        if not 0 < recover_fraction <= 1:
            raise ValueError("recover_fraction must be in (0, 1]")
        series = self.rate.series_bps(
            until_ns if until_ns is not None else self.sim.now)
        results: List[FaultRecovery] = []
        for fault_ns, label, retx_at_fault in self._faults:
            fault_bin = fault_ns // self.interval_ns
            before = [bps for start, bps in series
                      if start < fault_bin * self.interval_ns and bps > 0]
            baseline = (sum(before[-BASELINE_BINS:])
                        / len(before[-BASELINE_BINS:])) if before else 0.0
            threshold = recover_fraction * baseline
            recovered_ns: Optional[int] = None
            dip = float("inf")
            for start, bps in series:
                if start < (fault_bin + 1) * self.interval_ns:
                    continue  # skip the (partial) fault bin itself
                dip = min(dip, bps)
                if baseline > 0 and bps >= threshold:
                    recovered_ns = start
                    break
            if dip == float("inf"):
                dip = 0.0
            ttr = (recovered_ns - fault_ns
                   if recovered_ns is not None else None)
            retx_storm: Optional[int] = None
            if retx_at_fault is not None:
                end = (recovered_ns if recovered_ns is not None
                       else self.sim.now)
                retx_end = self._retx_at(end)
                if retx_end is not None:
                    retx_storm = int(retx_end - retx_at_fault)
            results.append(FaultRecovery(label, fault_ns, baseline,
                                         recovered_ns, ttr, dip,
                                         retx_storm))
        return results

    def __repr__(self) -> str:
        return (f"<RecoveryMonitor faults={len(self._faults)} "
                f"bytes={self.rate.total_bytes}>")
