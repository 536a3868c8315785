"""Structured observability and self-auditing (``repro.obs``).

* :class:`Tracer` / :class:`TraceEvent` / :class:`EventKind` — a
  low-overhead typed event ring buffer wired into the simulation
  engine, the Pucket machinery, the semi-warm controller, the swap
  datapath, the interconnect and the container lifecycle;
* :class:`InvariantAuditor` — an online checker of conservation laws
  (page placement exclusivity, swap-flow conservation, barrier
  monotonicity, the container lifecycle DAG, link subscription);
* :mod:`repro.obs.runtime` — the session registry every traced
  platform reports to. Tracing and auditing are switched on per run
  through ``PlatformConfig(trace_events=..., audit_events=...)``,
  which the CLI's ``--audit`` hands to whole experiment suites,
  turning them into standing correctness tests.
"""

from repro.obs.audit import InvariantAuditor, Violation
from repro.obs.runtime import (
    ObsSession,
    audit_report,
    combined_digest,
    register_session,
    reset_sessions,
    sessions,
    total_violations,
)
from repro.obs.trace import EventKind, TraceEvent, Tracer

__all__ = [
    "Tracer",
    "TraceEvent",
    "EventKind",
    "InvariantAuditor",
    "Violation",
    "ObsSession",
    "register_session",
    "reset_sessions",
    "sessions",
    "combined_digest",
    "total_violations",
    "audit_report",
]
