"""``Session``: fault-tolerant multi-problem orchestration over one shared,
persistently cached substrate.

The paper's evaluation is a *sweep*: six CAFFEINE runs over six OTA
performances that all evaluate basis functions on the same ``X``.  A
:class:`Session` is that sweep as an object -- an ordered list of problems
run serially or on worker processes, sharing one fingerprinted column cache
(in memory when serial, through a lock-protected
:class:`~repro.core.cache_store.ColumnCacheStore` file when parallel or
persistent), with a structured callback API.  A Session is the only way
runs share a column cache::

    from repro import Problem, Session

    session = Session([Problem(train_pm, test_pm, name="PM"),
                       Problem(train_alf, test_alf, name="ALF")],
                      settings=settings, jobs=2,
                      column_cache_path="columns.cache",
                      checkpoint_path="sweep.ckpt", timeout=3600.0)
    outcome = session.run()
    outcome["PM"].best_model().expression()

Guarantees (same discipline as the engine's other fast paths):

* the Session path is **bit-for-bit identical** to running each problem
  through its own :class:`~repro.core.engine.CaffeineEngine` -- each
  problem runs under its own (or the session's) settings and seed, and
  caches never change results, only wall-clock time;
* ``jobs > 1`` is bit-for-bit identical to serial: runs are independent,
  so worker scheduling cannot reorder any run's random stream;
* concurrent workers saving the shared cache file merge under an advisory
  lock -- no run's columns are lost (see
  :meth:`~repro.core.cache_store.ColumnCacheStore.save`).

Fault tolerance (a long sweep survives by default):

* **one problem's failure never aborts the sweep**: a run that raises
  -- or, under ``jobs > 1``, a worker that crashes (killed pid, segfault,
  OOM kill) or outlives its ``timeout`` -- is retried up to ``retries``
  times with exponential backoff + jitter (:data:`RETRY_BACKOFF_S`); when
  the last attempt fails too, the problem lands in
  :attr:`SessionResult.failures` as a structured :class:`ProblemFailure`
  (and :meth:`SessionCallback.on_problem_error` fires) while every other
  problem's result is returned normally.  A failed worker attempt is
  only ever retried in a fresh worker, never on the orchestrating
  process, so ``timeout`` bounds every attempt and a crash stays
  contained.  :meth:`SessionResult.raise_failures` is the fail-fast path;
* **crash-safe checkpoints** (``checkpoint_path``): each problem's engine
  periodically snapshots its generation boundary to a
  :class:`~repro.core.cache_store.RunCheckpointStore` (and stores its
  final result on completion), so :meth:`Session.resume` warm-restarts an
  interrupted sweep -- finished problems return instantly, in-flight ones
  continue **bit-identically** from their last snapshot;
* **Ctrl-C returns what finished**: a ``KeyboardInterrupt`` saves the
  running problem's last boundary checkpoint, stops the sweep, and returns
  a partial :class:`SessionResult` (``interrupted=True``) instead of
  discarding hours of completed work; every problem that started is in
  its results or (``phase="interrupted"``) its failures.
"""

from __future__ import annotations

import dataclasses
import random
import time
import traceback as traceback_module
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core import faults
from repro.core.cache_store import ColumnCacheStore, RunCheckpointStore
from repro.core.engine import CaffeineEngine, CaffeineResult, GenerationStats
from repro.core.evaluation import BasisColumnCache, cache_budgets
from repro.core.problem import Problem
from repro.core.settings import CaffeineSettings

__all__ = ["Session", "SessionCallback", "SessionResult", "ProblemFailure",
           "ProgressPrinter", "RETRY_BACKOFF_S"]

#: Base retry delay in seconds: the retry after failed attempt ``k``
#: (0-based) waits ``RETRY_BACKOFF_S * 2**k``, plus up to 25% jitter.
RETRY_BACKOFF_S = 0.5


class SessionCallback:
    """Structured observer of a session run (all hooks default to no-ops).

    Subclass and override what you need; pass instances via
    ``Session(callbacks=[...])``.  Hooks fire on the orchestrating process:
    every hook fires for serial sessions, while under ``jobs > 1`` the
    per-generation hook cannot (generations happen inside worker
    processes) -- problem-level hooks still fire in submission/completion
    order.
    """

    def on_session_start(self, problems: Sequence[Problem]) -> None:
        """Before the first problem runs."""

    def on_problem_start(self, problem: Problem, index: int,
                         total: int) -> None:
        """Before (serial) or at first launch of (parallel) one problem."""

    def on_generation(self, problem: Problem, generation: int,
                      stats: GenerationStats) -> None:
        """After each generation of a serial run (never fires when
        ``jobs > 1``; the engine loop is in another process)."""

    def on_problem_end(self, problem: Problem, result: CaffeineResult,
                       index: int, total: int) -> None:
        """After one problem's result is available."""

    def on_problem_retry(self, problem: Problem, failure: "ProblemFailure",
                         delay: float) -> None:
        """After a failed attempt that will be retried in ``delay`` s
        (``failure`` describes the attempt that just failed)."""

    def on_problem_error(self, problem: Problem,
                         failure: "ProblemFailure") -> None:
        """After one problem failed *terminally* (every retry exhausted);
        the sweep continues."""

    def on_session_end(self, result: "SessionResult") -> None:
        """After every problem finished/failed and caches were saved."""


class ProgressPrinter(SessionCallback):
    """Prints one line per problem and (serially) per generation."""

    def __init__(self, every: int = 10, printer: Callable = print) -> None:
        self.every = max(1, int(every))
        self.printer = printer

    def on_problem_start(self, problem: Problem, index: int,
                         total: int) -> None:
        self.printer(f"[{index + 1}/{total}] {problem.name}: starting")

    def on_generation(self, problem: Problem, generation: int,
                      stats: GenerationStats) -> None:
        if generation % self.every == 0:
            self.printer(f"[{problem.name}] {stats}")

    def on_problem_end(self, problem: Problem, result: CaffeineResult,
                       index: int, total: int) -> None:
        self.printer(f"[{index + 1}/{total}] {problem.name}: "
                     f"{result.n_models} models in "
                     f"{result.runtime_seconds:.1f} s")

    def on_problem_retry(self, problem: Problem, failure: "ProblemFailure",
                         delay: float) -> None:
        self.printer(f"[{problem.name}] attempt {failure.attempts} failed "
                     f"({failure.phase}: {failure.message}); retrying in "
                     f"{delay:.1f} s")

    def on_problem_error(self, problem: Problem,
                         failure: "ProblemFailure") -> None:
        self.printer(f"[{problem.name}] FAILED after {failure.attempts} "
                     f"attempt(s): {failure.phase}: {failure.message}")


@dataclasses.dataclass(frozen=True)
class ProblemFailure:
    """Structured record of one problem's terminal (or per-attempt) failure.

    ``phase`` is one of ``"worker-crash"`` (the worker process died -- a
    negative exitcode names the signal), ``"timeout"`` (the attempt
    outlived ``timeout`` and its worker was killed), ``"exception"`` (the
    run raised; ``error_type``/``message``/``traceback`` carry it) or
    ``"interrupted"`` (a ``KeyboardInterrupt`` stopped the sweep after this
    problem started and before it finished -- in flight or waiting for a
    retry; its checkpoint, if any, was kept).
    """

    problem: Problem
    phase: str
    error_type: str
    message: str
    #: how many attempts were made in total (first try counts as 1)
    attempts: int
    traceback: str = ""

    @property
    def name(self) -> str:
        return self.problem.name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.problem.name}: {self.phase} after {self.attempts} "
                f"attempt(s) ({self.error_type}: {self.message})")


@dataclasses.dataclass(frozen=True)
class SessionResult:
    """Everything a session run produced, in problem order.

    A fault-tolerant run can be *partial*: problems that failed terminally
    are absent from :attr:`results` and present in :attr:`failures`
    instead, and a ``KeyboardInterrupt`` sets :attr:`interrupted` (every
    problem that started is in one of the two mappings; problems that
    never started appear in neither).  What IS in
    :attr:`results` is always a complete, trustworthy
    :class:`~repro.core.engine.CaffeineResult` -- bit-identical to what an
    undisturbed run would have produced for that problem.
    """

    problems: Tuple[Problem, ...]
    #: per-problem results, keyed by problem name, in run order
    results: Dict[str, CaffeineResult]
    runtime_seconds: float
    jobs: int
    #: terminally failed problems, keyed by name, in run order
    failures: Dict[str, "ProblemFailure"] = dataclasses.field(
        default_factory=dict)
    #: True when a KeyboardInterrupt cut the sweep short
    interrupted: bool = False

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __getitem__(self, key: Union[str, int]) -> CaffeineResult:
        """Result by problem name, or by position in run order."""
        if isinstance(key, int):
            return self.results[tuple(self.results)[key]]
        if key not in self.results and key in self.failures:
            failure = self.failures[key]
            raise KeyError(
                f"problem {key!r} has no result: it failed terminally "
                f"({failure.phase} after {failure.attempts} attempt(s): "
                f"{failure.message})")
        return self.results[key]

    def items(self):
        return self.results.items()

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.results)

    @property
    def complete(self) -> bool:
        """True when every scheduled problem produced a result."""
        return (not self.interrupted
                and len(self.results) == len(self.problems))

    def raise_failures(self) -> "SessionResult":
        """Raise ``RuntimeError`` if any problem failed; chainable."""
        if self.failures:
            summary = "; ".join(str(f) for f in self.failures.values())
            raise RuntimeError(
                f"{len(self.failures)} problem(s) failed: {summary}")
        if self.interrupted:
            raise RuntimeError("session was interrupted before completing")
        return self

    def single(self) -> CaffeineResult:
        """The result of a one-problem session (ValueError otherwise)."""
        if len(self.results) != 1:
            if len(self.problems) == 1 and self.failures:
                failure = next(iter(self.failures.values()))
                raise RuntimeError(
                    f"the session's one problem failed: {failure}")
            raise ValueError(
                f"session ran {len(self.results)} problems, not 1")
        return next(iter(self.results.values()))


@dataclasses.dataclass
class _Attempt:
    """One queued (re)try of one problem in the parallel runner."""

    index: int
    problem: Problem
    attempt: int = 0
    #: monotonic time before which this attempt must not launch (backoff)
    ready_at: float = 0.0


@dataclasses.dataclass
class _Running:
    """One in-flight worker process in the parallel runner."""

    process: "object"
    problem: Problem
    index: int
    attempt: int
    #: monotonic deadline (None = no per-problem timeout)
    deadline: Optional[float]


class Session:
    """Orchestrates CAFFEINE runs over a list of problems.

    Parameters
    ----------
    problems:
        Initial problems (more via :meth:`add`); names must be unique.
    settings:
        Shared :class:`CaffeineSettings` for problems without their own.
    jobs:
        1 (default) runs serially on this process with one shared
        in-memory column cache, sized to the largest per-problem budget
        (see :func:`~repro.core.evaluation.cache_budgets`); ``n > 1`` runs
        up to ``n`` problems concurrently, each in its own worker process,
        sharing columns through ``column_cache_path`` (if given).  Results
        are identical either way -- see the module docstring.
    column_cache_path:
        Optional :class:`ColumnCacheStore` path: the session warm-starts
        from it and saves back everything it computed (serially once at
        the end, Ctrl-C included).  With ``jobs > 1`` every worker loads
        it at start and merge-saves at end (under the store's advisory
        lock), so parallel sweeps still pool their columns across
        problems and across sessions.
    callbacks:
        :class:`SessionCallback` instances observing the run.
    checkpoint_path:
        Optional :class:`~repro.core.cache_store.RunCheckpointStore` path
        making every problem's run crash-safe: its engine snapshots the
        generation boundary every ``checkpoint_every`` generations (slot =
        problem name) and stores the final result on completion, so
        :meth:`resume` warm-restarts an interrupted sweep bit-identically.
    checkpoint_every:
        Generation cadence of those snapshots (default 1 -- every
        boundary; raise it to trade crash granularity for less pickling).
    timeout:
        Optional wall-clock budget in seconds of each attempt (``jobs > 1``
        only -- an in-process run cannot be preempted): a worker past its
        deadline is killed and the attempt fails like a crash.
    retries:
        How many times a crashed / timed-out / raising problem is retried
        (fresh worker, exponential backoff with jitter, see
        :data:`RETRY_BACKOFF_S`) before it fails terminally.  Default 1.
    """

    def __init__(self, problems: Sequence[Problem] = (),
                 settings: Optional[CaffeineSettings] = None, *,
                 jobs: int = 1,
                 column_cache_path: Optional[str] = None,
                 callbacks: Sequence[SessionCallback] = (),
                 checkpoint_path: Optional[str] = None,
                 checkpoint_every: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.problems: List[Problem] = []
        self.settings = settings
        self.jobs = int(jobs)
        self.column_cache_path = (str(column_cache_path)
                                  if column_cache_path is not None else None)
        self.callbacks: List[SessionCallback] = list(callbacks)
        self.checkpoint_path = (str(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.checkpoint_every = int(checkpoint_every)
        self.timeout = timeout
        self.retries = int(retries)
        for problem in problems:
            self.add(problem)

    # ------------------------------------------------------------------
    def add(self, problem: Problem) -> "Session":
        """Append a problem (chainable); names must stay unique."""
        if not isinstance(problem, Problem):
            raise TypeError(f"expected a Problem, got {type(problem).__name__}")
        if any(existing.name == problem.name for existing in self.problems):
            raise ValueError(
                f"a problem named {problem.name!r} is already scheduled "
                f"(names key the result mapping and must be unique)")
        self.problems.append(problem)
        return self

    def add_callback(self, callback: SessionCallback) -> "Session":
        self.callbacks.append(callback)
        return self

    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False) -> SessionResult:
        """Run every problem and return the ordered result mapping.

        The result is partial when a problem failed or Ctrl-C stopped the
        sweep; :meth:`SessionResult.raise_failures` turns that into an
        error.  ``resume=True`` (requires ``checkpoint_path``)
        warm-restarts from the checkpoint store: problems with a stored
        final result return it without re-running, problems with a
        generation snapshot continue bit-identically from it, everything
        else starts cold.
        """
        if not self.problems:
            raise ValueError("session has no problems to run")
        if resume and self.checkpoint_path is None:
            raise ValueError(
                "resume=True has no checkpoint store to read; "
                "pass checkpoint_path")
        start = time.perf_counter()
        self._fire("on_session_start", tuple(self.problems))
        if self.jobs > 1 and len(self.problems) > 1:
            results, failures, interrupted = self._run_parallel(resume)
        else:
            results, failures, interrupted = self._run_serial(resume)
        outcome = SessionResult(
            problems=tuple(self.problems),
            results=results,
            runtime_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            failures=failures,
            interrupted=interrupted,
        )
        self._fire("on_session_end", outcome)
        return outcome

    def resume(self) -> SessionResult:
        """Warm-restart the sweep from ``checkpoint_path`` (see :meth:`run`)."""
        return self.run(resume=True)

    # ------------------------------------------------------------------
    def _attempt_failed(self, failures: Dict[str, ProblemFailure],
                        problem: Problem, attempt: int, phase: str,
                        error_type: str, message: str,
                        trace: str = "") -> Optional[float]:
        """Handle the failure of ``problem``'s 0-based ``attempt``.

        Returns the backoff delay before the retry (after firing
        ``on_problem_retry``), or None when no retry is left -- the
        failure is then recorded in ``failures``.
        """
        failure = ProblemFailure(
            problem=problem, phase=phase, error_type=error_type,
            message=message, attempts=attempt + 1, traceback=trace)
        if attempt < self.retries:
            delay = _backoff_delay(attempt)
            self._fire("on_problem_retry", problem, failure, delay)
            return delay
        failures[problem.name] = failure
        return None

    def _record_interrupted(self, attempts: Dict[str, int],
                            results: Dict[str, CaffeineResult],
                            failures: Dict[str, ProblemFailure]) -> None:
        """Record every started problem without an outcome as interrupted.

        ``attempts`` maps each started problem to its attempts so far.
        """
        message = ("interrupted by user"
                   + ("; last checkpoint kept"
                      if self.checkpoint_path is not None else ""))
        for problem in self.problems:
            name = problem.name
            if name in attempts and name not in results \
                    and name not in failures:
                failures[name] = ProblemFailure(
                    problem=problem, phase="interrupted",
                    error_type="KeyboardInterrupt", message=message,
                    attempts=attempts[name])

    # ------------------------------------------------------------------
    def _run_serial(self, resume: bool
                    ) -> Tuple[Dict[str, CaffeineResult],
                               Dict[str, ProblemFailure], bool]:
        # The shared cache is sized to the largest per-problem budget so no
        # problem's working set is squeezed by a smaller neighbour.
        cache = BasisColumnCache(max(
            cache_budgets(problem.effective_settings(self.settings)).columns
            for problem in self.problems))
        store = (ColumnCacheStore(self.column_cache_path)
                 if self.column_cache_path is not None else None)
        checkpoints = (RunCheckpointStore(self.checkpoint_path)
                       if self.checkpoint_path is not None else None)
        total = len(self.problems)
        results: Dict[str, CaffeineResult] = {}
        failures: Dict[str, ProblemFailure] = {}
        attempts: Dict[str, int] = {}
        interrupted = False
        loaded_namespaces: Set[str] = set()
        try:
            for index, problem in enumerate(self.problems):
                self._fire("on_problem_start", problem, index, total)
                effective = problem.effective_settings(self.settings)
                progress = self._generation_progress(problem)
                attempt = 0
                while True:
                    attempts[problem.name] = attempt + 1
                    try:
                        # A retry resumes from the failed attempt's own
                        # checkpoints: completed generations stay paid for.
                        result = _run_problem_task(
                            problem, effective, cache, store,
                            loaded_namespaces, checkpoints,
                            self.checkpoint_every, resume or attempt > 0,
                            progress)
                    except Exception as error:
                        delay = self._attempt_failed(
                            failures, problem, attempt, "exception",
                            type(error).__name__, str(error),
                            traceback_module.format_exc())
                        if delay is None:
                            self._fire("on_problem_error", problem,
                                       failures[problem.name])
                            break
                        time.sleep(delay)
                        attempt += 1
                        continue
                    results[problem.name] = result
                    self._fire("on_problem_end", problem, result, index,
                               total)
                    break
        except KeyboardInterrupt:
            # The engine already saved the interrupted problem's last
            # completed generation boundary (when checkpointing is on);
            # report what finished instead of discarding it.
            interrupted = True
            self._record_interrupted(attempts, results, failures)
        if store is not None:
            store.save(cache)
        return results, failures, interrupted

    # ------------------------------------------------------------------
    def _run_parallel(self, resume: bool
                      ) -> Tuple[Dict[str, CaffeineResult],
                                 Dict[str, ProblemFailure], bool]:
        """Run problems on per-problem worker processes, surviving faults.

        Unlike a ``ProcessPoolExecutor`` -- where one killed worker breaks
        the whole pool and fails every outstanding future -- each problem
        gets its own :class:`multiprocessing.Process` and result pipe, so
        a crash, stall or timeout is contained to its problem: the worker
        is reaped (or killed, for timeouts) and the problem retried with
        backoff in a fresh worker or recorded as a structured failure,
        while every other worker keeps running.

        Determinism: runs are independent (each worker owns its engine and
        RNG), so scheduling cannot change any result; ``on_problem_start``
        fires at first launch in problem order, and completion callbacks /
        the result mapping are emitted in problem order after the pool
        drains, regardless of which worker finished first.
        """
        import multiprocessing
        from multiprocessing.connection import wait as connection_wait

        ctx = multiprocessing.get_context()
        total = len(self.problems)
        max_workers = min(self.jobs, total)
        outcomes: Dict[str, CaffeineResult] = {}
        failures: Dict[str, ProblemFailure] = {}
        pending: List[_Attempt] = [
            _Attempt(index=index, problem=problem)
            for index, problem in enumerate(self.problems)]
        running: Dict[object, _Running] = {}  # recv-pipe -> worker
        attempts: Dict[str, int] = {}
        interrupted = False

        def launch(item: _Attempt) -> None:
            if item.problem.name not in attempts:
                self._fire("on_problem_start", item.problem, item.index,
                           total)
            attempts[item.problem.name] = item.attempt + 1
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(send_conn, item.problem,
                      item.problem.effective_settings(self.settings),
                      self.column_cache_path, self.checkpoint_path,
                      self.checkpoint_every,
                      resume or item.attempt > 0, item.attempt),
                daemon=False)
            process.start()
            send_conn.close()  # orchestrator keeps only the read end
            deadline = (time.monotonic() + self.timeout
                        if self.timeout is not None else None)
            running[recv_conn] = _Running(process=process,
                                          problem=item.problem,
                                          index=item.index,
                                          attempt=item.attempt,
                                          deadline=deadline)

        def attempt_failed(worker: _Running, phase: str, error_type: str,
                           message: str, trace: str = "") -> None:
            delay = self._attempt_failed(failures, worker.problem,
                                         worker.attempt, phase, error_type,
                                         message, trace)
            if delay is not None:
                pending.append(_Attempt(
                    index=worker.index, problem=worker.problem,
                    attempt=worker.attempt + 1,
                    ready_at=time.monotonic() + delay))

        def reap(conn, worker: _Running) -> None:
            """Collect one finished/broken worker's outcome."""
            message = None
            try:
                if conn.poll():
                    message = conn.recv()
            except (EOFError, OSError):
                message = None
            finally:
                conn.close()
            worker.process.join(timeout=30)
            if message is None:
                exitcode = worker.process.exitcode
                detail = (f"killed by signal {-exitcode}"
                          if exitcode is not None and exitcode < 0
                          else f"exitcode {exitcode}")
                attempt_failed(
                    worker, "worker-crash", "WorkerCrash",
                    f"worker pid {worker.process.pid} died without "
                    f"reporting a result ({detail})")
            elif message[0] == "result":
                outcomes[worker.problem.name] = message[1]
            else:  # ("error", type_name, message, traceback)
                _tag, error_type, text, trace = message
                attempt_failed(worker, "exception", error_type, text, trace)

        try:
            while pending or running:
                now = time.monotonic()
                ready = [item for item in pending if item.ready_at <= now]
                while len(running) < max_workers and ready:
                    item = ready.pop(0)
                    pending.remove(item)
                    launch(item)
                if not running and not pending:
                    break
                waits = []
                if self.timeout is not None and running:
                    waits.extend(worker.deadline - now
                                 for worker in running.values()
                                 if worker.deadline is not None)
                if pending and len(running) < max_workers:
                    waits.append(min(item.ready_at for item in pending) - now)
                wait_timeout = max(0.0, min(waits)) if waits else None
                if running:
                    for conn in connection_wait(list(running),
                                                timeout=wait_timeout):
                        reap(conn, running.pop(conn))
                elif wait_timeout:
                    time.sleep(min(wait_timeout, 0.5))
                if self.timeout is not None:
                    now = time.monotonic()
                    for conn, worker in list(running.items()):
                        if worker.deadline is not None \
                                and now >= worker.deadline:
                            del running[conn]
                            worker.process.kill()
                            worker.process.join(timeout=30)
                            conn.close()
                            attempt_failed(
                                worker, "timeout", "TimeoutError",
                                f"attempt exceeded the timeout of "
                                f"{self.timeout} s and was killed")
        except KeyboardInterrupt:
            # In-flight problems and problems waiting for a retry alike.
            interrupted = True
            self._record_interrupted(attempts, outcomes, failures)
        finally:
            for conn, worker in running.items():
                worker.process.kill()
                worker.process.join(timeout=30)
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            running.clear()

        # Emit completion callbacks and the result mapping in problem
        # order, whatever order the workers actually finished in.
        results: Dict[str, CaffeineResult] = {}
        for index, problem in enumerate(self.problems):
            if problem.name in outcomes:
                results[problem.name] = outcomes[problem.name]
                self._fire("on_problem_end", problem, results[problem.name],
                           index, total)
            elif problem.name in failures \
                    and failures[problem.name].phase != "interrupted":
                self._fire("on_problem_error", problem,
                           failures[problem.name])
        ordered_failures = {problem.name: failures[problem.name]
                            for problem in self.problems
                            if problem.name in failures}
        return results, ordered_failures, interrupted

    # ------------------------------------------------------------------
    def _generation_progress(self, problem: Problem):
        callbacks = self.callbacks
        if not callbacks:
            return None

        def progress(generation: int, stats: GenerationStats) -> None:
            for callback in callbacks:
                callback.on_generation(problem, generation, stats)

        return progress

    def _fire(self, hook: str, *args) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(*args)


def _backoff_delay(failed_attempt: int) -> float:
    """Exponential backoff with up to 25% jitter (wall-clock only)."""
    base = RETRY_BACKOFF_S * (2.0 ** failed_attempt)
    # repro-lint: allow[determinism] -- retry-backoff jitter shapes wall-clock waits only, never results
    return base * (1.0 + 0.25 * random.random())


def _run_problem_task(problem: Problem, settings: CaffeineSettings,
                      cache: BasisColumnCache,
                      store: Optional[ColumnCacheStore],
                      loaded_namespaces: Set[str],
                      checkpoints: Optional[RunCheckpointStore],
                      checkpoint_every: int, resume: bool,
                      progress=None) -> CaffeineResult:
    """One attempt at one problem: build its engine on ``cache``,
    warm-load it from ``store``, run it (serial runner and workers)."""
    engine = CaffeineEngine(problem.train, test=problem.test,
                            settings=settings, column_cache=cache)
    dataset_key = engine.evaluator.dataset_key
    if store is not None and dataset_key not in loaded_namespaces:
        # Admit only this problem's namespace into the LRU (a shared store
        # file only grows; foreign namespaces would occupy -- and at
        # capacity evict -- the warm columns this run actually uses), once
        # per ``loaded_namespaces``.
        loaded_namespaces.add(dataset_key)
        store.load_into(cache, dataset_key=dataset_key)
    return engine.run(progress=progress, checkpoint=checkpoints,
                      checkpoint_every=checkpoint_every,
                      checkpoint_slot=problem.name, resume=resume)


def _worker_main(conn, problem: Problem, settings: CaffeineSettings,
                 column_cache_path: Optional[str],
                 checkpoint_path: Optional[str], checkpoint_every: int,
                 resume: bool, attempt: int) -> None:
    """Entry point of one parallel worker process.

    Reports exactly one message on ``conn``: ``("result", CaffeineResult)``
    or ``("error", type_name, message, traceback)``.  A worker that dies
    before reporting (kill, segfault, injected SIGKILL) is detected by the
    orchestrator through the pipe's EOF plus the process exitcode.
    """
    try:
        if settings.fault_injection:
            # Arm before the fault points below -- engine construction
            # (which also arms) happens after them.
            faults.install_from_string(settings.fault_injection)
        faults.raise_point("worker.exception", problem=problem.name,
                           attempt=attempt)
        faults.kill_point("worker.kill", problem=problem.name,
                          attempt=attempt)
        faults.stall_point("problem.stall", problem=problem.name,
                           attempt=attempt)
        cache = BasisColumnCache(cache_budgets(settings).columns)
        store = (ColumnCacheStore(column_cache_path)
                 if column_cache_path is not None else None)
        checkpoints = (RunCheckpointStore(checkpoint_path)
                       if checkpoint_path is not None else None)
        result = _run_problem_task(problem, settings, cache, store, set(),
                                   checkpoints, checkpoint_every, resume)
        if store is not None:
            store.save(cache)  # merges, never erases other namespaces
        conn.send(("result", result))
    except BaseException as error:
        try:
            conn.send(("error", type(error).__name__, str(error),
                       traceback_module.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
