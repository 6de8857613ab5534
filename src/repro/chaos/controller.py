"""Replay a :class:`~repro.chaos.schedule.ChaosSchedule` against a topology.

The controller resolves the schedule's name-based targets against a
:class:`~repro.net.topology.Network`, schedules one simulator event per
fault, and applies them at the scripted virtual times.  Everything is
deterministic: the only randomness (payload corruption) flows from a
single seed, and the applied-fault log makes a run's adversity
auditable after the fact.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

from ..net.faults import CorruptionProcessor
from ..net.link import Link
from ..net.node import Switch
from ..net.topology import Network
from ..sim.engine import Simulator
from .schedule import (CORRUPTION_START, CORRUPTION_STOP, ChaosSchedule,
                       FaultEvent, LINK_DOWN, LINK_UP, OFFLOAD_MIGRATE,
                       SWITCH_CRASH, SWITCH_RESTART)

__all__ = ["ChaosController"]


class ChaosController:
    """Arms a fault schedule on a simulator and applies it on time.

    One controller serves one run; :meth:`install` schedules every fault
    and returns immediately — the simulation's own event loop does the
    rest.  ``applied`` records ``(time_ns, kind, repr(target))`` in
    application order for post-run auditing and replay digests.
    """

    def __init__(self, sim: Simulator, network: Network,
                 schedule: ChaosSchedule, seed: int = 0):
        self.sim = sim
        self.network = network
        self.schedule = schedule
        #: Seeded stream for corruption faults; never global.
        self.rng = random.Random(seed)
        self.applied: List[Tuple[int, str, str]] = []
        self._corruptors: dict = {}
        self._installed = False

    def install(self) -> None:
        """Schedule every fault event; a second call raises."""
        if self._installed:
            raise RuntimeError("chaos schedule already installed")
        self._installed = True
        for event in self.schedule.sorted_events():
            delay = event.time_ns - self.sim.now
            if delay < 0:
                raise ValueError(
                    f"fault at t={event.time_ns} is in the past "
                    f"(now={self.sim.now})")
            self.sim.schedule(delay, self._apply, event)

    # -- application ----------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        handler = {
            LINK_DOWN: self._link_down,
            LINK_UP: self._link_up,
            SWITCH_CRASH: self._switch_crash,
            SWITCH_RESTART: self._switch_restart,
            OFFLOAD_MIGRATE: self._offload_migrate,
            CORRUPTION_START: self._corruption_start,
            CORRUPTION_STOP: self._corruption_stop,
        }[event.kind]
        handler(event)
        self.applied.append((self.sim.now, event.kind, repr(event.target)))

    def _resolve_link(self, target: Any) -> Link:
        if len(target) == 3:
            a, b, index = target
        else:
            a, b = target
            index = 0
        links = self.network.links_between(a, b)
        if index >= len(links):
            raise LookupError(
                f"no link #{index} between {a!r} and {b!r} "
                f"({len(links)} found)")
        return links[index]

    def _link_down(self, event: FaultEvent) -> None:
        self._resolve_link(event.target).set_down()

    def _link_up(self, event: FaultEvent) -> None:
        self._resolve_link(event.target).set_up()

    def _switch(self, name: str) -> Switch:
        return self.network.switch(name)

    def _switch_crash(self, event: FaultEvent) -> None:
        self._switch(event.target).crash()

    def _switch_restart(self, event: FaultEvent) -> None:
        self._switch(event.target).restart()

    def _offload_migrate(self, event: FaultEvent) -> None:
        src_name, dst_name = event.target
        src = self._switch(src_name)
        dst = self._switch(dst_name)
        index = event.params.get("index", 0)
        if index >= len(src.processors):
            raise LookupError(
                f"switch {src_name!r} has no offload #{index}")
        processor = src.processors.pop(index)
        hook = getattr(processor, "on_migrate", None)
        if hook is not None:
            # The handoff point: the offload serializes/rebinds whatever
            # state must survive the move (sessions, partial aggregates).
            hook(src, dst)
        dst.add_processor(processor)

    def _corruption_start(self, event: FaultEvent) -> None:
        switch = self._switch(event.target)
        probability = event.params.get("probability", 1.0)
        corruptor = self._corruptors.get(event.target)
        if corruptor is None:
            corruptor = CorruptionProcessor(probability, self.rng)
            self._corruptors[event.target] = corruptor
            switch.add_processor(corruptor)
        corruptor.probability = probability
        corruptor.active = True

    def _corruption_stop(self, event: FaultEvent) -> None:
        corruptor = self._corruptors.get(event.target)
        if corruptor is not None:
            corruptor.active = False

    def __repr__(self) -> str:
        return (f"<ChaosController events={len(self.schedule)} "
                f"applied={len(self.applied)}>")
