"""Layer tracer: timing spans around each layer's boundary functions.

:class:`LayerTracer` replaces boundary methods on their classes with thin
timing wrappers while the workload runs and puts every original back
afterwards, so nothing under ``src/`` changes and an untraced run executes
the original code.

A span is one call of a boundary function.  Per-packet spans number in
the millions, so they are aggregated in memory per boundary: calls, total
time, self time, and how many of the calls each parent boundary made.  A
layer's self time is the sum over its boundaries of span time minus the
time of the spans nested inside.  The harness span around a whole
workload run makes the layer self times add up to the traced wall time.

Calls between two boundaries of one layer (``Switch.receive`` into
``Switch.forward``) move no time between layers; they are wrapped so the
span table shows where inside a layer the time goes.  Code that is not a
boundary (helpers, app closures) counts toward the layer that called it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["LAYERS", "LayerTracer", "boundaries"]

#: The repository's packages, kernel first.
LAYERS = ("sim", "net", "transport", "core", "offloads", "apps",
          "experiments")

_ROOT = "<root>"


def boundaries() -> List[Tuple[str, type, Tuple[str, ...]]]:
    """``(layer, class, method names)`` of every timed boundary.

    Besides the calls from one layer into another, this wraps the event
    callbacks the kernel runs directly (serialization and propagation
    completions, retransmission timeouts, workload arrivals), so the
    kernel's self time is its own loop and not the work its events do.
    """
    import repro.offloads as offloads
    from repro.apps.workload import MessageWorkload
    from repro.core.endpoint import MtpEndpoint, MtpStack
    from repro.core.pathlets import PathletAnnotator
    from repro.net.link import Port
    from repro.net.node import Host, Switch
    from repro.net.queues import QueueDiscipline
    from repro.sim.engine import Simulator
    from repro.stats.metrics import FctCollector
    from repro.transport.tcp import TcpConnection, TcpStack

    table = [
        ("sim", Simulator, ("run",)),
        ("net", Port, ("send", "_finish_transmission", "_deliver")),
        ("net", Host, ("send", "receive")),
        ("net", Switch, ("receive", "forward")),
        ("net", QueueDiscipline, ("enqueue", "dequeue")),
        ("transport", TcpStack, ("connect", "handle_packet")),
        ("transport", TcpConnection, ("_on_rto",)),
        ("core", MtpStack, ("handle_packet",)),
        ("core", MtpEndpoint, ("send_message", "_on_rto")),
        ("core", PathletAnnotator, ("_on_transmit",)),
        ("apps", MessageWorkload, ("_tick",)),
        ("experiments", FctCollector, ("record",)),
    ]
    for name in offloads.__all__:
        cls = getattr(offloads, name)
        hooks = tuple(hook for hook in ("select", "process")
                      if isinstance(cls, type) and hook in vars(cls))
        if hooks:
            table.append(("offloads", cls, hooks))
    return table


class LayerTracer:
    """Wraps the boundaries while entered (use as a context manager).

    Besides timing spans it counts calls of ``SendState.unsent_packets``
    and keeps the ports, TCP connections and MTP endpoints constructed
    while entered, so their public counters can be read after the run.
    """

    def __init__(self) -> None:
        #: boundary -> [layer, calls, total_ns, self_ns, {parent: calls}]
        self.spans: Dict[str, List[Any]] = {}
        #: "Class.method" -> calls of a counted (untimed) method
        self.counts: Dict[str, int] = {}
        #: class name -> instances constructed while entered
        self.instances: Dict[str, List[Any]] = {}
        #: (class, attribute, original) for every wrapper installed
        self._wrapped: List[Tuple[type, str, Any]] = []
        #: Open spans as [nested_ns, boundary]; the root is never closed.
        self._stack: List[List[Any]] = [[0, _ROOT]]

    def __enter__(self) -> "LayerTracer":
        from repro.core.endpoint import MtpEndpoint
        from repro.core.message import SendState
        from repro.net.link import Port
        from repro.transport.tcp import TcpConnection

        for layer, cls, names in boundaries():
            for name in names:
                self._wrap(cls, name,
                           self._timer(layer, f"{cls.__name__}.{name}"))
        self._wrap(SendState, "unsent_packets",
                   self._counter("SendState.unsent_packets"))
        for cls in (Port, TcpConnection, MtpEndpoint):
            self._wrap(cls, "__init__", self._collector(cls.__name__))
        return self

    def __exit__(self, *exc: Any) -> None:
        for cls, name, original in reversed(self._wrapped):
            setattr(cls, name, original)

    def unrestored(self) -> List[str]:
        """Wrapped attributes that are not, by identity, the original."""
        return [f"{cls.__name__}.{name}"
                for cls, name, original in self._wrapped
                if cls.__dict__.get(name) is not original]

    def _wrap(self, cls: type, name: str,
              make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._wrapped.append((cls, name, original))
        setattr(cls, name, make(original))

    def _timer(self, layer: str, key: str) -> Callable[[Callable], Callable]:
        stats = self.spans.setdefault(key, [layer, 0, 0, 0, {}])
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter_ns

        def make(fn: Callable) -> Callable:
            def span(*args: Any, **kwargs: Any) -> Any:
                frame = [0, key]
                push(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    pop()
                    parent = stack[-1]
                    parent[0] += elapsed
                    stats[1] += 1
                    stats[2] += elapsed
                    stats[3] += elapsed - frame[0]
                    callers = stats[4]
                    callers[parent[1]] = callers.get(parent[1], 0) + 1
            return span
        return make

    def _counter(self, key: str) -> Callable[[Callable], Callable]:
        counts = self.counts
        counts[key] = 0

        def make(fn: Callable) -> Callable:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _collector(self, key: str) -> Callable[[Callable], Callable]:
        bucket = self.instances.setdefault(key, [])

        def make(fn: Callable) -> Callable:
            def init(obj: Any, *args: Any, **kwargs: Any) -> None:
                fn(obj, *args, **kwargs)
                bucket.append(obj)
            return init
        return make

    def call(self, layer: str, key: str, fn: Callable, *args: Any) -> Any:
        """``fn(*args)`` inside a span of its own (the harness span)."""
        return self._timer(layer, key)(fn)(*args)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` for every layer."""
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for layer, calls, _total, self_ns, _callers in self.spans.values():
            totals[layer]["self_s"] += self_ns / 1e9
            totals[layer]["calls"] += calls
        return totals

    def span_table(self) -> List[Dict[str, Any]]:
        """The aggregated spans, heaviest self time first."""
        rows = [{"boundary": key, "layer": layer, "calls": calls,
                 "total_s": total / 1e9, "self_s": self_ns / 1e9,
                 "callers": dict(sorted(callers.items()))}
                for key, (layer, calls, total, self_ns, callers)
                in self.spans.items()]
        return sorted(rows, key=lambda row: -row["self_s"])
