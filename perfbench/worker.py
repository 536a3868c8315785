"""One run of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--tiny]

Modes:

* ``e2e``: the untraced-by-the-benchmark run. Only phase timers are
  installed (set-up calls, ``ServerlessPlatform.run``), a few hundred
  calls per workload, so the numbers are the program's own.
* ``span``: the same run with every public entry point of every
  ``repro`` package wrapped in a span (``spans.py``).
* ``import``: only the imports, to sample import time.

The program is imported from ``src/`` of the checkout this file sits
in; nothing installed elsewhere is used.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, Workload, model_metrics  # noqa: E402

MIB = 1 << 20
PAGE = 4096


def rows_sha256(rows: List[Dict[str, Any]]) -> str:
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Phases:
    """Set-up and engine timers around a handful of coarse calls."""

    def __init__(self, spans: Optional[Any] = None) -> None:
        self.setup_s = 0.0
        self.engine_s = 0.0
        self.bookkeeping_s = 0.0
        self.platforms: List[Dict[str, Any]] = []
        self._submitted: Dict[int, int] = {}
        self._depth = 0
        # In the span run, bookkeeping is charged to the "bench" layer.
        self._spans = spans

    def setup_timer(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += time.perf_counter() - started
                self._depth = 0

        return timed

    def install(self, workload: Workload, timed_setup: bool) -> None:
        from repro.faas.platform import ServerlessPlatform

        if timed_setup:
            for module, attr in workload.setup_calls:
                mod = importlib.import_module(module)
                setattr(mod, attr, self.setup_timer(getattr(mod, attr)))
            for method in ("__init__", "register_function"):
                setattr(
                    ServerlessPlatform,
                    method,
                    self.setup_timer(getattr(ServerlessPlatform, method)),
                )
        run_trace, run = ServerlessPlatform.run_trace, ServerlessPlatform.run
        phases = self

        @functools.wraps(run_trace)
        def counted_run_trace(platform, trace, until=None):
            # Submitting the arrivals is set-up; run() is timed below.
            trace = list(trace)
            phases._submitted[id(platform)] = len(trace)
            started = time.perf_counter()
            before = phases.engine_s + phases.bookkeeping_s
            run_trace(platform, trace, until)
            if timed_setup:
                elapsed = time.perf_counter() - started
                phases.setup_s += elapsed - (phases.engine_s + phases.bookkeeping_s - before)

        @functools.wraps(run)
        def timed_run(platform, until=None):
            started = time.perf_counter()
            run(platform, until)
            phases.engine_s += time.perf_counter() - started
            phases.record(platform)

        ServerlessPlatform.run_trace = counted_run_trace
        ServerlessPlatform.run = timed_run

    def record(self, platform) -> None:
        """Read one finished platform run (excluded from wall time)."""
        started = time.perf_counter()
        paused = self._spans.pause() if self._spans is not None else None
        try:
            submitted = self._submitted.pop(id(platform), None)
            self.platforms.append(platform_record(platform, submitted))
        finally:
            if paused is not None:
                self._spans.resume(paused)
            self.bookkeeping_s += time.perf_counter() - started


def platform_record(platform, submitted: Optional[int]) -> Dict[str, Any]:
    from repro.baselines import NoOffloadPolicy
    from repro.core import FaaSMemPolicy

    stats = platform.latencies()
    fastswap = platform.fastswap
    tier_stats = getattr(fastswap, "tier_stats", None)
    governor = platform.governor
    tracer = platform.tracer
    completed = stats.count
    return {
        "offload": not isinstance(platform.policy, NoOffloadPolicy),
        "faasmem": isinstance(platform.policy, FaaSMemPolicy),
        "tiered": tier_stats is not None,
        "events": platform.engine.events_processed,
        "submitted": completed if submitted is None else submitted,
        "completed": completed,
        "p95_s": stats.p95 if completed else 0.0,
        "p99_s": stats.p99 if completed else 0.0,
        "avg_local_mib": platform.node.average_pages(platform.engine.now) * PAGE / MIB,
        "cold_starts": sum(1 for r in platform.records if r.cold_start),
        "containers": len(platform.container_history),
        "offloaded_pages": fastswap.stats.offloaded_pages,
        "recalled_pages": fastswap.stats.recalled_pages,
        "pool_peak_mib": platform.pool.peak_pages * PAGE / MIB,
        "demotions": getattr(fastswap, "demotions", 0),
        "spills": sum(l.spills for l in tier_stats.values()) if tier_stats else 0,
        "direct_reclaims": governor.stats.direct_reclaims if governor else 0,
        "shed": governor.stats.shed if governor else 0,
        "oom_kills": governor.stats.oom_kills if governor else 0,
        "dropped": tracer.dropped if tracer is not None else 0,
    }


def span_metrics(spans, platforms: List[Dict[str, Any]]) -> Dict[str, float]:
    from spans import LAYERS

    total = lambda key: sum(p[key] for p in platforms)  # noqa: E731
    calls, inclusive = spans.calls, spans.inclusive_s
    events = total("events")
    offloaded = total("offloaded_pages")
    metrics: Dict[str, float] = {
        f"{layer}.self_s": spans.seconds(layer) for layer in LAYERS if layer != "traces"
    }
    metrics.update(
        {
            "other.self_s": spans.seconds("other"),
            "sim.events": events,
            "sim.host_us_per_event": 1e6 * spans.seconds("sim") / max(events, 1),
            "faas.invocations": calls["faas.dispatch"],
            "faas.cold_starts": total("cold_starts"),
            "faas.containers": total("containers"),
            "core.on_touched.calls": calls["core.on_touched"],
            "core.semiwarm_timing.calls": calls["core.semiwarm_timing"],
            "core.semiwarm_timing.s": inclusive["core.semiwarm_timing"],
            "core.reuse_samples_mean": spans.reuse_samples / max(spans.percentile_calls, 1),
            "pool.offload.calls": calls["pool.offload"],
            "pool.fault.calls": calls["pool.fault"],
            "pool.link_transfers": calls["pool.transfer"],
            "pool.offloaded_pages": offloaded,
            "pool.recalled_pages": total("recalled_pages"),
            "pool.peak_mib": max((p["pool_peak_mib"] for p in platforms), default=0.0),
            "pool.link_queue_s": spans.link_queue_s,
            "pool.recall_ratio": total("recalled_pages") / offloaded if offloaded else 0.0,
            "tier.demotions": total("demotions"),
            "tier.spills": total("spills"),
            "pressure.direct_reclaims": total("direct_reclaims"),
            "pressure.shed": total("shed"),
            "pressure.oom_kills": total("oom_kills"),
            "obs.emit.calls": calls["obs.emit"],
            "obs.emit.us": 1e6 * inclusive["obs.emit"] / max(calls["obs.emit"], 1),
            "obs.audit.s": inclusive["obs.audit.observe"] + inclusive["obs.audit.finalize"],
            "obs.dropped": total("dropped"),
            "traces.s": spans.seconds("traces"),
            "span.unattributed_s": spans.seconds("outside"),
        }
    )
    for name in ("mem.find", "mem.pages", "mem.local_regions", "mem.touch"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = inclusive[name]
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=("e2e", "span", "import"), default="e2e")
    parser.add_argument("--tiny", action="store_true", help="self-test scale")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    experiment = importlib.import_module(f"repro.experiments.{workload.module}")
    from repro.obs import runtime as obs_runtime

    import_s = time.perf_counter() - STARTED
    out: Dict[str, Any] = {"mode": args.mode, "import_s": import_s}
    if args.mode == "import":
        print(json.dumps(out))
        return 0

    obs_runtime.reset_sessions()
    spans = None
    if args.mode == "span":
        import spans as spans_module

        spans = spans_module.install()
    phases = Phases(spans)
    phases.install(workload, timed_setup=args.mode == "e2e")

    try:
        if spans is not None:
            spans.start()
        result = experiment.run(**workload.kwargs(args.tiny, args.seed))
        if spans is not None:
            spans.stop()
        ended = time.perf_counter()
    except Exception as exc:  # a failed run is reported, not raised
        out["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        out["platform_runs"] = len(phases.platforms)
        sys.stderr.write(traceback.format_exc())
        print(json.dumps(out))
        return 0

    sessions = obs_runtime.sessions()
    out.update(
        {
            "wall_s": ended - STARTED - phases.bookkeeping_s,
            "setup_s": phases.setup_s,
            "engine_s": phases.engine_s,
            "events": sum(p["events"] for p in phases.platforms),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "platform_runs": len(phases.platforms),
            "rows_sha256": rows_sha256(result.rows),
            "session_digests": [s.tracer.digest() for s in sessions],
            "session_violations": [
                len(s.auditor.violations) if s.auditor is not None else 0 for s in sessions
            ],
            "combined_digest": obs_runtime.combined_digest() if sessions else None,
            "model": model_metrics(workload, result.rows, phases.platforms),
        }
    )
    if spans is not None:
        out.update(spans.account(STARTED, ended))
        out["layers"] = span_metrics(spans, phases.platforms)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
