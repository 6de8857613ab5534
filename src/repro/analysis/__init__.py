"""Correctness tooling for the simulation kernel and everything above it.

Three coordinated layers keep benchmark numbers reproducible:

* :mod:`repro.analysis.lint` — an AST-based static checker with
  project-specific determinism rules (SIM001..SIM006), runnable as
  ``python -m repro.analysis <paths>``.
* :mod:`repro.analysis.sanitize` — opt-in runtime sanitizers: a
  :class:`~repro.analysis.sanitize.SanitizingSimulator` asserting kernel
  invariants (integer virtual time, causality, monotonic clock), queue
  accounting audits, and an end-of-run packet-conservation ledger that
  pinpoints the component that leaked a packet.
* :mod:`repro.analysis.replay` — a replay-divergence detector that runs an
  experiment twice with the same seed, hashes the event trace, and reports
  the first divergent event — a race detector for hidden nondeterminism.

:class:`~repro.analysis.ties.TieShuffleSimulator` runs same-nanosecond
events in a seeded random order, so a result can be checked against the
spread that the order alone causes.
"""

from .lint import (Finding, LintConfig, format_findings, format_findings_json,
                   lint_file, lint_paths, lint_source)
from .replay import (Divergence, EventTrace, ReplayReport, check_replay,
                     find_divergence, trace_run)
from .rules import RULE_CATALOGUE, all_rules
from .sanitize import (ConservationReport, PacketLedger, SanitizerError,
                       SanitizingSimulator, audit_network_queues, audit_queue)
from .ties import TieShuffleSimulator

__all__ = [
    "Finding", "LintConfig", "lint_source", "lint_file", "lint_paths",
    "format_findings", "format_findings_json",
    "all_rules", "RULE_CATALOGUE",
    "SanitizerError", "SanitizingSimulator", "TieShuffleSimulator",
    "PacketLedger",
    "ConservationReport", "audit_queue", "audit_network_queues",
    "EventTrace", "Divergence", "ReplayReport", "trace_run",
    "find_divergence", "check_replay",
]
