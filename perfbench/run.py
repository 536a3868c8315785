"""The repo's benchmark: full-scale FaaSMem workloads, end to end and by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each measured run of the workload is a fresh interpreter
(``worker.py``), driven serially. With ``--trace 0`` the command repeats
untraced runs for ``--seconds`` (at least one) and prints the
end-to-end metrics as medians over them. With ``--trace 1`` it does the
same and then one span run, and prints the per-layer metrics.

Every run is checked: it must not raise or report audit violations,
and its result-row hash and trace digests must equal the pinned
reference (``reference.json``) at the workload's default seed, or the
first run's under any other seed. The span run must reproduce the same
rows, events and digests, and its layer self times, with the time
before and after the span window, must add up to its wall time. Failed
platform runs go to ``failed``; any failure makes the command exit 1. The last line of standard output is the JSON result;
the lines before it are a readable report with the host fingerprint.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
#: Every command must end within this many seconds.
DEADLINE_S = 170.0
MIN_IMPORT_SAMPLES = 3


def host_fingerprint() -> Dict[str, Any]:
    """Python version, CPU model and CPU count of this host."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per ``--trace`` value, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def compile_program() -> None:
    """Write the bytecode of the program and the benchmark, if stale.

    Workers then load the program, as an installed one is loaded,
    instead of compiling it on every import where the environment
    keeps Python from writing bytecode (PYTHONDONTWRITEBYTECODE).
    """
    for directory in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(directory, quiet=1)


def run_worker(args: argparse.Namespace, seed: int, mode: str, timeout: float) -> Dict[str, Any]:
    """One worker process; its JSON line, or an ``error`` entry."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(seed), "--mode", mode,
    ]
    if args.tiny:
        command.append("--tiny")
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:  # run() kills and reaps the worker
        return {"error": f"{mode} worker timed out after {timeout:.0f}s", "took_s": timeout}
    took = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} worker exited {done.returncode}: {tail[0]}", "took_s": took}
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["took_s"] = took
    return result


class Checker:
    """Counts attempted and failed platform runs.

    A run at the pinned seed is compared with the pinned reference;
    a run at any other seed with the first run of that seed.
    """

    def __init__(self, pinned_seed: int, reference: Optional[Dict[str, Any]]) -> None:
        self.pinned_seed = pinned_seed
        self.reference = reference
        self.first: Dict[int, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _target(self, seed: int) -> Optional[Dict[str, Any]]:
        if seed == self.pinned_seed and self.reference is not None:
            return self.reference
        return self.first.get(seed)

    def check(self, label: str, run: Dict[str, Any]) -> bool:
        """Check one run; return whether all of its platform runs passed."""
        seed = run["seed"]
        target = self._target(seed)
        expected = max(
            (target or {}).get("platform_runs", 0),
            run.get("platform_runs", 0),
            *(r["platform_runs"] for r in self.first.values()),
            1,
        )
        self.attempted += expected
        if "error" in run:
            return self.fail(label, expected, run["error"])
        first = self.first.setdefault(seed, run)
        target = target or first
        for key in ("rows_sha256", "platform_runs", "events", "combined_digest"):
            if run[key] != target[key]:
                return self.fail(label, expected, f"{key} {run[key]} != {target[key]}")
        if run["model"] != first["model"]:
            return self.fail(label, expected, "model metrics differ between runs")
        digests = zip(run["session_digests"], target["session_digests"])
        bad = {i for i, (got, want) in enumerate(digests) if got != want}
        bad |= {i for i, n in enumerate(run["session_violations"]) if n}
        if bad:
            why = f"sessions {sorted(bad)} differ or violate invariants"
            return self.fail(label, len(bad), why)
        return True

    def fail(self, label: str, runs: int, why: str) -> bool:
        self.failed += runs
        self.problems.append(f"{label}: {why}")
        return False


def span_layers_s(span: Dict[str, Any]) -> float:
    """The span window's self times, less the benchmark's bookkeeping."""
    return sum(v for layer, v in span["span_layers"].items() if layer != "bench")


def span_problem(span: Dict[str, Any], tolerance_s: float = 1e-3) -> Optional[str]:
    """Whether the span run's time is all accounted for.

    The time before the window, the layer self times, the time outside
    any span and the time after the window must add up to the run's
    ``wall_s``: one clock difference from interpreter start to the end
    of the experiment, less the benchmark's bookkeeping as its own
    timer measured it. Time a span wrapper drops shows as a shortfall.
    """
    if span["span_depth"] != 0:
        return f"{span['span_depth']} span(s) left open"
    accounted = span["span_pre_s"] + span_layers_s(span) + span["span_post_s"]
    if abs(accounted - span["wall_s"]) > tolerance_s + 1e-5 * span["wall_s"]:
        return f"accounted time {accounted:.6f}s != wall time {span['wall_s']:.6f}s"
    return None


def across_seeds(runs: List[Dict[str, Any]], value: Callable[[Dict[str, Any]], float]) -> float:
    """Median over seeds of each seed's median over its runs."""
    by_seed: Dict[int, List[float]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(value(run))
    return statistics.median(statistics.median(v) for v in by_seed.values())


def end_to_end(runs: List[Dict[str, Any]], import_samples: List[float]) -> Dict[str, float]:
    metrics = {
        "wall_s": across_seeds(runs, lambda r: r["wall_s"]),
        "setup_s": statistics.median(import_samples) + across_seeds(runs, lambda r: r["setup_s"]),
        "events_per_s": across_seeds(runs, lambda r: r["events"] / r["engine_s"]),
        "peak_rss_mib": across_seeds(runs, lambda r: r["peak_rss_mib"]),
    }
    for name in runs[0]["model"]:
        metrics[name] = across_seeds(runs, lambda r: r["model"][name])
    return metrics


def per_layer(span: Dict[str, Any], runs: List[Dict[str, Any]]) -> Dict[str, float]:
    metrics = dict(span["layers"])
    metrics["span.pre_window_s"] = span["span_pre_s"]
    wall = statistics.median(r["wall_s"] for r in runs if r["seed"] == span["seed"])
    metrics["span.overhead_pct"] = 100.0 * (span["wall_s"] / wall - 1.0)
    return metrics


def load_reference(path: str, tiny: bool, workload: str) -> Optional[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["tiny" if tiny else "full"].get(workload)


def pin(path: str, tiny: bool, workload: str, run: Dict[str, Any]) -> None:
    """Record ``run`` as the workload's reference at its default seed."""
    with open(path, encoding="utf-8") as handle:
        pinned = json.load(handle)
    keys = ("rows_sha256", "platform_runs", "events", "combined_digest",
            "session_digests", "session_violations")
    pinned["tiny" if tiny else "full"][workload] = {k: run[k] for k in keys}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the experiment's own")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test scale")
    parser.add_argument("--reference", default=REFERENCE)
    parser.add_argument("--pin", action="store_true",
                        help="write the first run as the reference (default seed only)")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.seed
    if args.pin and args.seed != workload.seed:
        print("error: --pin records the default seed only", file=sys.stderr)
        return 2
    compile_program()
    units = declared_metrics()[str(args.trace)]
    reference = None if args.pin else load_reference(args.reference, args.tiny, args.workload)
    seeds = workload.seeds(args.seed, args.tiny)
    print(f"host: {json.dumps(host_fingerprint(), sort_keys=True)}")
    print(f"workload {args.workload} seeds {seeds}; seed {workload.seed} is checked "
          "against the pinned reference, the others for consistency")

    remaining = lambda: DEADLINE_S - (time.perf_counter() - started)  # noqa: E731
    checker = Checker(workload.seed, reference)
    runs: List[Dict[str, Any]] = []
    took: List[float] = []
    while True:
        # Cycle through the run's seeds: one full cycle, then more
        # repeats while --seconds lasts.
        seed = seeds[len(took) % len(seeds)]
        run = run_worker(args, seed, "e2e", remaining())
        took.append(run["took_s"])
        ok = checker.check(f"run {len(took)} (seed {seed})", run)
        print(f"  run {len(took)} seed {seed}: {run.get('wall_s', float('nan')):.3f}s wall, "
              f"{run.get('events', 0)} events, {'ok' if ok else 'FAILED'}")
        if ok:
            runs.append(run)
        elapsed = time.perf_counter() - started
        if not ok or len(took) >= len(seeds) and elapsed + statistics.median(took) > args.seconds:
            break
    imports = [r["import_s"] for r in runs]
    while runs and len(imports) < MIN_IMPORT_SAMPLES:
        sample = run_worker(args, seeds[0], "import", remaining())
        if "error" in sample:
            checker.fail("import", 0, sample["error"])
            break
        imports.append(sample["import_s"])

    metrics: Dict[str, float] = {}
    if checker.failed or not runs:
        pass
    elif args.trace:
        span = run_worker(args, seeds[0], "span", remaining())
        if checker.check("span run", span):
            problem = span_problem(span)
            print(f"  span run: {span['span_pre_s']:.4f}s before the window + "
                  f"{span_layers_s(span):.4f}s in layers + {span['span_post_s']:.6f}s after, "
                  f"of {span['wall_s']:.4f}s wall")
            if problem:
                checker.fail("span run", span["platform_runs"], problem)
            else:
                metrics = per_layer(span, runs)
    else:
        metrics = end_to_end(runs, imports)

    if metrics and set(metrics) != set(units):
        checker.fail("metrics", 0, f"emitted {sorted(set(metrics) ^ set(units))} "
                      "differently from BENCHMARK.json")
    correct = not checker.failed and not checker.problems and bool(metrics)
    if args.pin and correct:
        pin(args.reference, args.tiny, args.workload, runs[0])
        print(f"pinned {args.workload} in {args.reference}")
    for problem in checker.problems:
        print(f"  check failed: {problem}")
    print(f"failed_frac: {checker.failed / max(checker.attempted, 1):.4f} "
          f"({checker.failed} of {checker.attempted} platform runs)")
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]:>16.6g} {units.get(name, '?')}")
    result = {
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name in units
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
