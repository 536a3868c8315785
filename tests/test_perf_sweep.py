"""Unit tests for the parallel sweep executor (repro.perf.sweep)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError, SweepError
from repro.obs import runtime as obs
from repro.obs.trace import Tracer
from repro.perf import JOBS_ENV, SweepGrid, SweepPoint, resolve_jobs


# Point functions must live at module level so they pickle into workers.
def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"bad {x}")


def _traced_point(n, label):
    """A point that registers an observability session, like a platform."""
    tracer = Tracer(clock=lambda: float(n))
    for i in range(n):
        tracer.emit("test.event", f"s{i}", value=i)
    obs.register_session(obs.ObsSession(label=label, tracer=tracer))
    return n


def _grid(fn, keys, kwarg="x"):
    return SweepGrid(
        "test", [SweepPoint(key=(k,), fn=fn, kwargs={kwarg: k}) for k in keys]
    )


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_value_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_zero_means_one_per_cpu(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(SweepError):
            resolve_jobs(-1)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(SweepError):
            resolve_jobs(None)

    def test_sweep_error_is_an_experiment_error(self):
        assert issubclass(SweepError, ExperimentError)


class TestSweepGrid:
    def test_serial_results_in_grid_order(self):
        results = _grid(_double, [3, 1, 2]).run(jobs=1)
        assert [r.key for r in results] == [(3,), (1,), (2,)]
        assert [r.value for r in results] == [6, 2, 4]

    def test_parallel_results_in_grid_order(self):
        results = _grid(_double, [3, 1, 2]).run(jobs=2)
        assert [r.key for r in results] == [(3,), (1,), (2,)]
        assert [r.value for r in results] == [6, 2, 4]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SweepError) as excinfo:
            _grid(_double, [1, 1])
        assert excinfo.value.key == (1,)

    def test_empty_grid(self):
        assert SweepGrid("empty", []).run(jobs=4) == []

    def test_worker_exception_surfaces_as_typed_error(self):
        grid = _grid(_boom, [1, 2])
        with pytest.raises(SweepError) as excinfo:
            grid.run(jobs=2)
        err = excinfo.value
        assert err.key in ((1,), (2,))
        assert "ValueError: bad" in str(err)
        assert "ValueError" in err.worker_traceback  # full worker trace kept

    def test_serial_exception_propagates_unwrapped(self):
        # jobs=1 is the provable baseline: no pickling, no wrapping.
        with pytest.raises(ValueError):
            _grid(_boom, [1]).run(jobs=1)


class TestSessionAdoption:
    def _run(self, jobs):
        obs.reset_sessions()
        try:
            grid = SweepGrid(
                "traced",
                [
                    SweepPoint(
                        key=(n,),
                        fn=_traced_point,
                        kwargs={"n": n, "label": f"p{n}"},
                    )
                    for n in (5, 3, 8)
                ],
            )
            results = grid.run(jobs=jobs)
            sessions = obs.sessions()
            return results, sessions, obs.combined_digest()
        finally:
            obs.reset_sessions()

    def test_parallel_adopts_sessions_in_grid_order(self):
        serial_results, serial_sessions, serial_digest = self._run(jobs=1)
        par_results, par_sessions, par_digest = self._run(jobs=2)
        assert [s.label for s in par_sessions] == ["p5", "p3", "p8"]
        assert [s.label for s in serial_sessions] == [s.label for s in par_sessions]
        assert serial_digest == par_digest
        assert [r.digest for r in serial_results] == [r.digest for r in par_results]
        assert all(r.digest is not None for r in par_results)

    def test_adopted_sessions_preserve_counters(self):
        _, sessions, _ = self._run(jobs=2)
        assert [s.tracer.emitted for s in sessions] == [5, 3, 8]
        # The ring buffer stayed in the worker; only evidence crossed.
        assert all(s.tracer.snapshot() == [] for s in sessions)
