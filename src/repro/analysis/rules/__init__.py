"""Rule registry for the determinism linter.

Each rule lives in its own module and subclasses :class:`Rule`.  The
catalogue:

========  ===================================================================
SIM001    no wall-clock reads (``time.time``, ``datetime.now``) outside CLI
          drivers — virtual time must come from ``Simulator.now``
SIM002    no unseeded / global ``random`` use — RNG must flow from an
          injected ``random.Random(seed)`` (see ``repro.sim.rng``)
SIM003    no float values fed into ``Simulator.schedule`` / ``at`` —
          virtual time is integer nanoseconds
SIM004    no mutable default arguments
SIM005    no iteration over bare sets — set ordering is nondeterministic
          across processes; wrap in ``sorted(...)``
SIM006    hot-path classes (packets, event handles, headers, feedback
          entries) must declare ``__slots__``
========  ===================================================================

Suppression: append ``# sim: ignore[SIM003]`` (comma-separated rule ids) or
a bare ``# sim: ignore`` to the offending line; ``# sim: skip-file`` anywhere
in the first ten lines disables the whole file.
"""

from __future__ import annotations

from typing import Dict, List, Type

from .base import LintContext, Rule

__all__ = ["Rule", "LintContext", "all_rules", "RULE_CATALOGUE"]


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by rule id."""
    # Imported lazily so the registry modules can import `base` freely.
    from .floattime import FloatVirtualTimeRule
    from .mutable_defaults import MutableDefaultRule
    from .rng import UnseededRandomRule
    from .set_iteration import SetIterationRule
    from .slots import HotPathSlotsRule
    from .wallclock import WallClockRule

    classes: List[Type[Rule]] = [
        WallClockRule, UnseededRandomRule, FloatVirtualTimeRule,
        MutableDefaultRule, SetIterationRule, HotPathSlotsRule,
    ]
    rules = [cls() for cls in classes]
    return sorted(rules, key=lambda rule: rule.rule_id)


#: rule id -> one-line summary, for ``--list-rules`` and the docs.
RULE_CATALOGUE: Dict[str, str] = {
    "SIM001": "no wall-clock reads outside CLI drivers",
    "SIM002": "no unseeded or module-global random use",
    "SIM003": "no float values fed into Simulator.schedule/at",
    "SIM004": "no mutable default arguments",
    "SIM005": "no iteration over bare sets (nondeterministic order)",
    "SIM006": "hot-path classes must declare __slots__",
}
