"""The fault-injection harness and the Session's fault tolerance.

Unit tests of :mod:`repro.core.faults` (spec grammar, arming, matching,
fire budgets, the env-var channel) plus the behaviors it exists to prove:
injected evaluator exceptions, killed workers, stalled problems past their
timeout, corrupt cache files -- every problem still ends in a result or a
structured :class:`~repro.core.session.ProblemFailure`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import InjectedFault, ProblemFailure
from repro.core import faults
from repro.core import session as session_module
from repro.core.engine import CaffeineEngine
from repro.core.cache_store import ColumnCacheStore
from repro.core.problem import Problem
from repro.core.session import Session, SessionCallback
from repro.core.settings import CaffeineSettings
from repro.data.dataset import Dataset

SETTINGS = CaffeineSettings(population_size=16, n_generations=2,
                            random_seed=3)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(session_module, "RETRY_BACKOFF_S", 0.01)


def _problems(names=("t1", "t2")):
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 2.0, size=(40, 3))
    targets = {"t1": 3 + 2 * X[:, 0] / X[:, 1],
               "t2": X[:, 2] ** 2 + X[:, 0],
               "t3": 1.0 + X[:, 1] * X[:, 2]}
    return [Problem(train=Dataset(X, targets[name], ("a", "b", "c"),
                                  target_name=name))
            for name in names]


def _front(result):
    return [(m.train_error, m.complexity, m.expression())
            for m in result.tradeoff]


class _Recorder(SessionCallback):
    def __init__(self):
        self.retries = []
        self.errors = []

    def on_problem_retry(self, problem, failure, delay):
        self.retries.append((problem.name, failure.phase, failure.attempts))

    def on_problem_error(self, problem, failure):
        self.errors.append((problem.name, failure.phase))


class TestSpecGrammar:
    def test_parse_point_conditions_times_delay(self):
        specs = faults.parse_faults(
            "worker.kill:problem=PM:attempt=0, "
            "fit.exception:times=3, problem.stall:delay=1.5, "
            "lock.timeout:times=inf")
        assert [s.point for s in specs] == [
            "worker.kill", "fit.exception", "problem.stall", "lock.timeout"]
        assert specs[0].conditions == {"problem": "PM", "attempt": "0"}
        assert specs[0].times == 1
        assert specs[1].times == 3
        assert specs[2].delay == 1.5
        assert specs[3].times is None

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="empty point"):
            faults.parse_faults(":problem=PM")
        with pytest.raises(ValueError, match="key=value"):
            faults.parse_faults("worker.kill:justakey")
        with pytest.raises(ValueError, match="times"):
            faults.parse_faults("worker.kill:times=0")
        with pytest.raises(ValueError, match="delay"):
            faults.parse_faults("problem.stall:delay=-1")
        assert faults.parse_faults("") == []

    def test_settings_validate_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="fault_injection"):
            CaffeineSettings(fault_injection="worker.kill:nonsense")

    def test_settings_accept_good_spec(self):
        settings = CaffeineSettings(fault_injection="fit.exception:times=2")
        assert settings.fault_injection == "fit.exception:times=2"


class TestFireSemantics:
    def test_fire_consumes_times_budget(self):
        faults.install("p.x", times=2)
        assert faults.fire("p.x") is not None
        assert faults.fire("p.x") is not None
        assert faults.fire("p.x") is None  # budget spent

    def test_conditions_are_string_compared(self):
        faults.install("p.x", problem="PM", attempt=0)
        assert faults.fire("p.x", problem="PM", attempt=1) is None
        assert faults.fire("p.x", problem="SRp", attempt=0) is None
        assert faults.fire("p.x", problem="PM") is None  # key missing
        assert faults.fire("p.x", problem="PM", attempt=0) is not None

    def test_install_from_string_is_idempotent(self):
        faults.install_from_string("p.x:times=inf")
        faults.install_from_string("p.x:times=inf")
        assert len(faults.active_specs()) == 1

    def test_clear_disarms(self):
        faults.install("p.x")
        faults.clear()
        assert faults.active_specs() == ()
        assert faults.fire("p.x") is None

    def test_env_var_arms(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "p.env:times=1")
        faults.clear()  # forget the memo so the env var is re-read
        assert faults.fire("p.env") is not None
        assert faults.fire("p.env") is None

    def test_raise_point_raises_injected_fault(self):
        faults.install("p.x")
        with pytest.raises(InjectedFault, match="p.x"):
            faults.raise_point("p.x")
        faults.raise_point("p.x")  # budget spent: no-op

    def test_corrupt_file_point_truncates(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        faults.install("p.corrupt")
        assert faults.corrupt_file_point("p.corrupt", path)
        assert path.stat().st_size == 50


class TestSerialFaultTolerance:
    def test_fit_exception_propagates_under_raise_policy(self):
        problem = _problems(("t1",))[0]
        settings = SETTINGS.copy(fault_injection="fit.exception")
        outcome = Session([problem], settings=settings, retries=0).run()
        with pytest.raises(RuntimeError, match="InjectedFault"):
            outcome.raise_failures()

    def test_serial_retry_recovers_and_matches_clean_run(self):
        problem = _problems(("t1",))[0]
        clean = Session([problem], settings=SETTINGS).run()
        faults.clear()
        recorder = _Recorder()
        settings = SETTINGS.copy(fault_injection="fit.exception:times=1")
        outcome = Session([problem], settings=settings, retries=1,
                          callbacks=[recorder]).run()
        assert outcome.complete
        assert recorder.retries == [("t1", "exception", 1)]
        assert recorder.errors == []
        assert _front(outcome["t1"]) == _front(clean["t1"])

    def test_serial_terminal_failure_is_structured(self):
        problems = _problems(("t1", "t2"))
        recorder = _Recorder()
        settings = SETTINGS.copy(
            fault_injection="fit.exception:times=inf")
        # Injection is condition-free, so it also fires for t2 -- but each
        # engine arms per settings string once per process, and times=inf
        # keeps firing: BOTH problems fail, each with its own record.
        outcome = Session(problems, settings=settings, retries=0,
                          callbacks=[recorder]).run()
        assert outcome.results == {}
        assert set(outcome.failures) == {"t1", "t2"}
        failure = outcome.failures["t1"]
        assert isinstance(failure, ProblemFailure)
        assert failure.phase == "exception"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1
        assert "fit.exception" in failure.message
        assert "InjectedFault" in failure.traceback
        assert recorder.errors == [("t1", "exception"), ("t2", "exception")]
        with pytest.raises(KeyError, match="failed terminally"):
            outcome["t1"]
        with pytest.raises(RuntimeError, match="2 problem"):
            outcome.raise_failures()

    def test_raise_failures_after_retries_exhausted(self):
        problem = _problems(("t1",))[0]
        settings = SETTINGS.copy(fault_injection="fit.exception:times=inf")
        outcome = Session([problem], settings=settings, retries=3).run()
        assert outcome.failures["t1"].attempts == 4
        with pytest.raises(RuntimeError, match="InjectedFault"):
            outcome.raise_failures()


class TestParallelFaultTolerance:
    def test_killed_worker_is_retried_and_result_matches(self):
        problems = _problems(("t1", "t2"))
        clean = Session(problems, settings=SETTINGS).run()
        settings = SETTINGS.copy(
            fault_injection="worker.kill:problem=t1:attempt=0")
        recorder = _Recorder()
        outcome = Session(problems, settings=settings, jobs=2, retries=1,
                          callbacks=[recorder]).run()
        assert outcome.complete
        assert recorder.retries == [("t1", "worker-crash", 1)]
        for name in ("t1", "t2"):
            assert _front(outcome[name]) == _front(clean[name])

    def test_worker_exception_reported_with_traceback(self):
        problems = _problems(("t1", "t2"))
        settings = SETTINGS.copy(
            fault_injection="worker.exception:problem=t2")
        outcome = Session(problems, settings=settings, jobs=2,
                          retries=0).run()
        assert set(outcome.results) == {"t1"}
        failure = outcome.failures["t2"]
        assert failure.phase == "exception"
        assert failure.error_type == "InjectedFault"
        assert "worker.exception" in failure.traceback

    def test_always_killed_worker_is_a_crash_failure(self):
        # The kill fires on every worker attempt (times=inf, any attempt);
        # the problem is never re-run on the orchestrating process.
        problems = _problems(("t1", "t2"))
        clean = Session(problems, settings=SETTINGS).run()
        settings = SETTINGS.copy(
            fault_injection="worker.kill:problem=t1:times=inf")
        recorder = _Recorder()
        retries = 1
        outcome = Session(problems, settings=settings, jobs=2,
                          retries=retries, callbacks=[recorder]).run()
        assert set(outcome.results) == {"t2"}
        failure = outcome.failures["t1"]
        assert failure.phase == "worker-crash"
        assert failure.error_type == "WorkerCrash"
        assert failure.attempts == retries + 1
        assert "killed by signal" in failure.message
        assert recorder.retries == [("t1", "worker-crash", 1)]
        assert recorder.errors == [("t1", "worker-crash")]
        assert _front(outcome["t2"]) == _front(clean["t2"])

    def test_timeout_bounds_every_attempt(self):
        """A slow problem is killed at its timeout and fails; it is never
        finished on the orchestrating process."""
        fast, slow = _problems(("t1", "t2"))
        slow = slow.with_settings(
            SETTINGS.copy(population_size=300, n_generations=40))
        outcome = Session([fast, slow], settings=SETTINGS, jobs=2,
                          timeout=0.5, retries=0).run()
        assert set(outcome.results) == {"t1"}
        failure = outcome.failures["t2"]
        assert failure.phase == "timeout"
        assert failure.attempts == 1
        start = time.perf_counter()
        CaffeineEngine(slow.train, settings=slow.settings).run()
        slow_in_process_s = time.perf_counter() - start
        assert outcome.runtime_seconds < 0.6 * slow_in_process_s

    def test_interrupt_before_retry_records_interrupted(self):
        """Ctrl-C between a failed attempt and its retry: the problem
        started, so it is reported, not dropped."""

        class InterruptOnRetry(SessionCallback):
            def on_problem_retry(self, problem, failure, delay):
                raise KeyboardInterrupt

        problems = _problems(("t1", "t2"))
        settings = SETTINGS.copy(
            fault_injection="worker.kill:problem=t1:attempt=0")
        outcome = Session(problems, settings=settings, jobs=2, retries=1,
                          callbacks=[InterruptOnRetry()]).run()
        assert outcome.interrupted
        assert not outcome.complete
        failure = outcome.failures["t1"]
        assert failure.phase == "interrupted"
        assert failure.error_type == "KeyboardInterrupt"
        assert failure.attempts == 1
        # t2 finished or was interrupted in flight -- never dropped.
        assert set(outcome.results) | set(outcome.failures) == {"t1", "t2"}

    def test_sweep_survives_kill_timeout_and_corrupt_cache(self, tmp_path):
        """The acceptance sweep: one killed worker, one problem stalled
        past its timeout, one corrupt shared-cache file -- every problem
        still returns a result or a structured failure."""
        problems = _problems(("t1", "t2", "t3"))
        clean = Session(problems, settings=SETTINGS).run()

        cache_path = tmp_path / "columns.cache"
        # Valid magic/version but garbage checksum: byte-level damage that
        # loaders must quarantine, not crash on.
        cache_path.write_bytes(ColumnCacheStore.MAGIC + b"\n1\n"
                               + b"0" * 64 + b"\nnot-the-payload")
        settings = SETTINGS.copy(fault_injection=(
            "worker.kill:problem=t1:attempt=0, "
            "problem.stall:problem=t2:delay=30:times=inf"))
        recorder = _Recorder()
        outcome = Session(problems, settings=settings, jobs=3,
                          column_cache_path=str(cache_path),
                          timeout=1.0, retries=1,
                          callbacks=[recorder]).run()

        # Every problem is accounted for: results for t1 (after its killed
        # worker was retried) and t3, a structured timeout failure for t2.
        assert set(outcome.results) == {"t1", "t3"}
        assert set(outcome.failures) == {"t2"}
        failure = outcome.failures["t2"]
        assert failure.phase == "timeout"
        assert failure.attempts == 2  # first try + one retry, both stalled
        assert ("t2", "timeout") in recorder.errors
        assert not outcome.complete

        # The surviving results are bit-identical to an undisturbed run.
        assert _front(outcome["t1"]) == _front(clean["t1"])
        assert _front(outcome["t3"]) == _front(clean["t3"])

        # The damaged cache file was quarantined by the first loader and
        # replaced by a fresh valid store (loading it warns about nothing).
        assert (tmp_path / "columns.cache.corrupt-0").exists()
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            ColumnCacheStore(cache_path).load()
