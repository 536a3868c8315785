"""The ``repro bench`` wall-clock harness: seed and track BENCH_perf.json.

Runs a pinned set of audited workloads and microbenchmarks and writes
``BENCH_perf.json``, the repo's performance trajectory record:

* **engine / tracer microbenches** — events per second through the
  discrete-event hot loop, untraced and traced, plus the optimized
  ``Tracer.emit`` against a reference implementation of the pre-
  optimization per-event emit path (so the win is recorded, not
  claimed).
* **experiment wall-clocks** — the fig12 and tiering smoke sweeps at
  ``jobs=1`` and at the requested ``--jobs``, with the parallel
  speedup derived from the same run.
* **an audited fig12 smoke digest** — a pinned, quick-independent
  configuration whose combined trace digest must not drift; CI fails
  the bench job when it changes against the committed baseline.

A ``--profile`` flag wraps the serial fig12 smoke in cProfile and
reports the top-N cumulative hot spots.
"""

from __future__ import annotations

import json
import platform as _platform
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.trace import EventKind, TraceEvent, Tracer
from repro.perf.sweep import resolve_jobs
from repro.sim.engine import Engine

#: The audited digest configuration is pinned independently of
#: ``--quick`` so the recorded digest is comparable across bench runs
#: (it matches the cross-process determinism test's configuration).
AUDITED_FIG12 = {"benchmarks": ["web"], "loads": ("high",), "duration": 300.0}

# Experiment smoke configurations. fig12 enumerates 2 loads x 2
# benchmarks = 4 independent grid points, so ``--jobs 4`` exposes the
# full fan-out; tiering adds a multi-platform sweep with auditing on.
_SMOKE = {
    False: {  # full
        "fig12": {
            "benchmarks": ["web", "bert"],
            "loads": ("high", "low"),
            "duration": 900.0,
        },
        "tiering": {"duration": 600.0, "near_shares": (0.25,)},
        "micro_events": 200_000,
    },
    True: {  # --quick
        "fig12": {
            "benchmarks": ["web", "bert"],
            "loads": ("high", "low"),
            "duration": 240.0,
        },
        "tiering": {"duration": 180.0, "near_shares": (0.25,)},
        "micro_events": 50_000,
    },
}


class LegacyEmitTracer(Tracer):
    """Reference pre-optimization emit path, kept for benchmarking.

    Serializes and hashes every event eagerly, one SHA-256 update per
    event, and always walks the subscriber loop — exactly what
    ``Tracer.emit`` did before the hot-path optimization. Its digest
    is byte-identical to the optimized tracer's for the same event
    stream (property-tested), so the recorded speedup isolates pure
    emit overhead.
    """

    def emit(self, kind: EventKind, subject: str = "", **data: Any) -> Optional[TraceEvent]:
        if not self.enabled:
            return None
        event = TraceEvent(
            next(self._seq),
            self._clock(),
            kind.value if isinstance(kind, EventKind) else str(kind),
            subject,
            data,
        )
        self.events.append(event)
        self.emitted += 1
        if self._hash is not None:
            payload = json.dumps(
                event.data, sort_keys=True, separators=(",", ":"), default=str
            )
            line = f"{event.seq}|{event.time!r}|{event.kind}|{event.subject}|{payload}"
            self._hash.update(line.encode("utf-8"))
            self._hash.update(b"\n")
        for subscriber in self._subscribers:
            subscriber(event)
        return event


def _drive_tracer(tracer: Tracer, n: int) -> float:
    """Emit ``n`` events (the simulator's mix: mostly empty payloads)."""
    emit = tracer.emit
    engine_kind = EventKind.ENGINE_EVENT
    recall_kind = EventKind.RECALL
    started = time.perf_counter()
    for i in range(n):
        if i % 4:
            emit(engine_kind, "exec")
        else:
            emit(recall_kind, "cg-0", region=i, pages=8)
    tracer.digest()
    return time.perf_counter() - started


def bench_tracer(n: int) -> Dict[str, Any]:
    """Optimized vs legacy emit path; digests must agree exactly."""
    clock = {"now": 0.0}
    optimized = Tracer(clock=lambda: clock["now"], capacity=4096)
    legacy = LegacyEmitTracer(clock=lambda: clock["now"], capacity=4096)
    wall_opt = _drive_tracer(optimized, n)
    wall_leg = _drive_tracer(legacy, n)
    if optimized.digest() != legacy.digest():
        raise AssertionError(
            "optimized Tracer.emit digest diverged from the legacy emit path"
        )
    return {
        "events": n,
        "wall_s": round(wall_opt, 4),
        "events_per_sec": round(n / wall_opt),
        "legacy_wall_s": round(wall_leg, 4),
        "legacy_events_per_sec": round(n / wall_leg),
        "speedup_vs_legacy": round(wall_leg / wall_opt, 3),
        "digest": optimized.digest(),
    }


def bench_engine(n: int, traced: bool) -> Dict[str, Any]:
    """Events/sec through ``Engine.run`` with no-op callbacks."""
    engine = Engine()
    if traced:
        engine.tracer = Tracer(clock=lambda: engine.now, capacity=4096)

    def tick() -> None:
        pass

    for i in range(n):
        engine.schedule(i * 1e-3, tick, name="tick")
    started = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - started
    assert engine.events_processed == n
    return {
        "events": n,
        "traced": traced,
        "wall_s": round(wall, 4),
        "events_per_sec": round(n / wall),
    }


def _timed(fn: Callable[[], Any]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _bench_experiment(
    name: str, run_fn: Callable[..., Any], kwargs: Dict[str, Any], jobs: int
) -> Dict[str, Any]:
    """Wall-clock one experiment at jobs=1 and (if asked) at ``jobs``."""
    from repro.obs import runtime as obs_runtime

    entry: Dict[str, Any] = {"kwargs": {k: str(v) for k, v in kwargs.items()}}
    sessions_before = len(obs_runtime.sessions())
    entry["wall_s_serial"] = round(_timed(lambda: run_fn(**kwargs, jobs=1)), 3)
    if jobs > 1:
        entry["jobs"] = jobs
        entry["wall_s_parallel"] = round(
            _timed(lambda: run_fn(**kwargs, jobs=jobs)), 3
        )
        entry["parallel_speedup"] = round(
            entry["wall_s_serial"] / entry["wall_s_parallel"], 3
        )
    # Drop any sessions the runs registered (audited experiments like
    # tiering trace unconditionally); bench timing must not leak
    # observability state into the caller's registry.
    obs_runtime.trim_sessions(sessions_before)
    return entry


def _audited_fig12(jobs: int) -> Dict[str, Any]:
    """The pinned audited fig12 smoke: digest + event count + violations."""
    from repro.experiments import fig12_azure_eval
    from repro.faas import PlatformConfig
    from repro.obs import runtime as obs_runtime

    obs_runtime.reset_sessions()
    try:
        fig12_azure_eval.run(
            **AUDITED_FIG12, jobs=jobs, platform_config=PlatformConfig(audit_events=True)
        )
        sessions = obs_runtime.sessions()
        return {
            "config": {k: str(v) for k, v in AUDITED_FIG12.items()},
            "digest": obs_runtime.combined_digest(),
            "events": sum(s.tracer.emitted for s in sessions),
            "violations": obs_runtime.total_violations(),
        }
    finally:
        obs_runtime.reset_sessions()


def _profile_fig12(top: int) -> List[Dict[str, Any]]:
    """cProfile the serial audited-config fig12 run; top-N by cumtime."""
    import cProfile
    import pstats

    from repro.experiments import fig12_azure_eval

    profiler = cProfile.Profile()
    profiler.enable()
    fig12_azure_eval.run(**AUDITED_FIG12, jobs=1)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    rows: List[Dict[str, Any]] = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "calls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
    rows.sort(key=lambda r: r["cumtime_s"], reverse=True)
    return rows[:top]


def load_baseline(path: str) -> Optional[Dict[str, Any]]:
    """Read a previous BENCH_perf.json, or None when absent/invalid."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _compare_baseline(
    result: Dict[str, Any], baseline: Dict[str, Any], source: str
) -> Dict[str, Any]:
    """Speedups and digest drift vs. a recorded baseline run."""
    comparison: Dict[str, Any] = {"source": source}
    old_digest = baseline.get("audited", {}).get("digest")
    new_digest = result["audited"]["digest"]
    comparison["digest_match"] = old_digest is None or old_digest == new_digest
    speedups: Dict[str, float] = {}
    for name, entry in result["experiments"].items():
        old = baseline.get("experiments", {}).get(name, {})
        if old.get("wall_s_serial") and entry.get("wall_s_serial"):
            speedups[name] = round(old["wall_s_serial"] / entry["wall_s_serial"], 3)
    old_micro = baseline.get("micro", {}).get("tracer", {})
    if old_micro.get("events_per_sec"):
        speedups["tracer_events_per_sec"] = round(
            result["micro"]["tracer"]["events_per_sec"]
            / old_micro["events_per_sec"],
            3,
        )
    comparison["speedup_vs_baseline"] = speedups
    return comparison


def run_bench(
    quick: bool = False,
    jobs: Optional[int] = None,
    profile_top: int = 0,
    out_path: Optional[str] = "BENCH_perf.json",
    baseline_path: Optional[str] = None,
    micro_events: Optional[int] = None,
    smoke_overrides: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Run the pinned bench suite; return (and optionally write) results.

    ``micro_events`` and ``smoke_overrides`` shrink the workloads for
    tests; production runs leave them at the pinned defaults.
    """
    from repro.experiments import fig12_azure_eval, tiering

    jobs = resolve_jobs(jobs)
    config = _SMOKE[bool(quick)]
    n = micro_events if micro_events is not None else config["micro_events"]
    overrides = smoke_overrides or {}

    result: Dict[str, Any] = {
        "schema": 1,
        "quick": bool(quick),
        "jobs": jobs,
        "python": _platform.python_version(),
        "micro": {
            "engine": bench_engine(n, traced=False),
            "engine_traced": bench_engine(n, traced=True),
            "tracer": {},
        },
        "experiments": {},
    }
    tracer_entry = bench_tracer(n)
    result["micro"]["tracer"] = {
        k: v for k, v in tracer_entry.items() if not k.startswith("legacy")
    }
    result["micro"]["tracer_legacy"] = {
        "events": tracer_entry["events"],
        "wall_s": tracer_entry["legacy_wall_s"],
        "events_per_sec": tracer_entry["legacy_events_per_sec"],
    }
    result["micro"]["tracer"]["speedup_vs_legacy"] = tracer_entry["speedup_vs_legacy"]

    smokes = {
        "fig12_smoke": (fig12_azure_eval.run, {**config["fig12"], **overrides.get("fig12", {})}),
        "tiering_smoke": (tiering.run, {**config["tiering"], **overrides.get("tiering", {})}),
    }
    for name, (run_fn, kwargs) in smokes.items():
        result["experiments"][name] = _bench_experiment(name, run_fn, kwargs, jobs)

    result["audited"] = _audited_fig12(jobs)

    if profile_top > 0:
        result["profile"] = _profile_fig12(profile_top)

    baseline_source = baseline_path or out_path
    baseline = load_baseline(baseline_source) if baseline_source else None
    result["baseline"] = (
        _compare_baseline(result, baseline, baseline_source)
        if baseline is not None
        else None
    )

    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result


def render_bench(result: Dict[str, Any]) -> str:
    """Human-readable summary of a bench run."""
    micro = result["micro"]
    lines = [
        f"bench (quick={result['quick']}, jobs={result['jobs']}, "
        f"python {result['python']})",
        f"  engine:        {micro['engine']['events_per_sec']:>12,} events/s",
        f"  engine traced: {micro['engine_traced']['events_per_sec']:>12,} events/s",
        f"  tracer:        {micro['tracer']['events_per_sec']:>12,} events/s "
        f"({micro['tracer']['speedup_vs_legacy']}x vs pre-optimization emit)",
        f"  tracer legacy: {micro['tracer_legacy']['events_per_sec']:>12,} events/s",
    ]
    for name, entry in result["experiments"].items():
        line = f"  {name}: {entry['wall_s_serial']}s serial"
        if "wall_s_parallel" in entry:
            line += (
                f", {entry['wall_s_parallel']}s at jobs={entry['jobs']} "
                f"({entry['parallel_speedup']}x)"
            )
        lines.append(line)
    audited = result["audited"]
    lines.append(
        f"  audited fig12: {audited['events']} events, "
        f"{audited['violations']} violation(s), digest {audited['digest'][:16]}…"
    )
    baseline = result.get("baseline")
    if baseline:
        lines.append(
            f"  baseline {baseline['source']}: digest_match={baseline['digest_match']} "
            f"speedups={baseline['speedup_vs_baseline']}"
        )
    if result.get("profile"):
        lines.append("  top hot spots (cumulative):")
        for row in result["profile"]:
            lines.append(
                f"    {row['cumtime_s']:>8.3f}s  {row['calls']:>9} calls  "
                f"{row['function']}"
            )
    return "\n".join(lines)
