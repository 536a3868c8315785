"""Fast self-test of the benchmark, at tiny scale (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at the self-test scale with ``--trace 0`` and
``--trace 1`` and checks that every metric of BENCHMARK.json is emitted
with its unit; shows that a corrupted pinned digest or rows hash is
counted as failed platform runs, that the span check flags time a
lossy span wrapper drops, and that the command refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import REFERENCE, span_problem  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: str = ROOT):
    """Run the benchmark command; (exit code, last JSON line or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        cls.units = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_workloads_match_declaration(self):
        self.assertEqual(sorted(self.workloads), sorted(WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(
                        "--workload", workload, "--tiny", "--seconds", "1", "--trace", str(trace)
                    )
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, self.units[trace])
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertNotEqual(metric["value"], 0, name)

    def test_idle_layers_read_zero_on_fig12(self):
        code, result = bench(
            "--workload", "fig12-azure", "--tiny", "--seconds", "1", "--trace", "1"
        )
        self.assertEqual(code, 0)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name in ("tier.demotions", "tier.spills", "pressure.direct_reclaims",
                     "pressure.shed", "pressure.oom_kills", "obs.emit.calls",
                     "obs.audit.s", "obs.dropped"):
            self.assertEqual(metrics[name], 0, name)

    def _corrupted(self, workload: str, key: str) -> int:
        with open(REFERENCE, encoding="utf-8") as handle:
            pinned = json.load(handle)
        entry = pinned["tiny"][workload]
        if isinstance(entry[key], list):
            entry[key][0] = "0" * 64
        else:
            entry[key] = "0" * 64
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "reference.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(pinned, handle)
            code, result = bench(
                "--workload", workload, "--tiny", "--seconds", "1", "--reference", path
            )
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        return result["failed"]

    def test_corrupted_digest_fails(self):
        self.assertGreater(self._corrupted("tiering-audited", "combined_digest"), 0)
        # One wrong session digest fails exactly that platform run.
        self.assertEqual(self._corrupted("overload-audited", "session_digests"), 1)

    def test_corrupted_rows_hash_fails(self):
        self.assertGreater(self._corrupted("fig12-azure", "rows_sha256"), 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result = bench("--workload", "tiering-audited", "--tiny", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)

    def test_span_check_catches_lost_time(self):
        def span_run(lossy: bool):
            # The accounting of a span run, on the real layer clock.
            spans = Spans()
            started = time.perf_counter()
            spans.start()

            def work():
                time.sleep(0.02)
                if lossy:  # a wrapper bug: the clock moves on uncharged
                    spans._clock[1] = time.perf_counter()

            spans.span(work, spans.layer_of("repro.mem.cgroup"))()
            spans.stop()
            ended = time.perf_counter()
            return {"wall_s": ended - started, **spans.account(started, ended)}

        self.assertIsNone(span_problem(span_run(lossy=False)))
        self.assertIn("!=", span_problem(span_run(lossy=True)))
        left_open = span_run(lossy=False)
        left_open["span_depth"] = 1
        self.assertIn("open", span_problem(left_open))


if __name__ == "__main__":
    unittest.main(verbosity=2)
