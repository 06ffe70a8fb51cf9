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

Fault tolerance (all opt-out rather than opt-in -- a long sweep should
survive by default):

* **one problem's failure never aborts the sweep** (default
  ``failure_policy="continue"``): a worker that crashes (killed pid,
  segfault), times out (``timeout`` seconds per problem) or raises is
  retried up to ``retries`` times with exponential backoff + jitter, then
  -- if ``fallback_serial`` -- run once more in-process; only after all
  that does the problem land in :attr:`SessionResult.failures` as a
  structured :class:`ProblemFailure` (and
  :meth:`SessionCallback.on_problem_error` fires) while every other
  problem's result is returned normally;
* **crash-safe checkpoints** (``checkpoint_path``): each problem's engine
  periodically snapshots its generation boundary to a
  :class:`~repro.core.cache_store.RunCheckpointStore` (and stores its
  final result on completion), so :meth:`Session.resume` warm-restarts an
  interrupted sweep -- finished problems return instantly, in-flight ones
  continue **bit-identically** from their last snapshot;
* **Ctrl-C returns what finished**: a ``KeyboardInterrupt`` saves the
  running problem's last boundary checkpoint, stops the sweep, and returns
  a partial :class:`SessionResult` (``interrupted=True``) instead of
  discarding hours of completed work (with ``failure_policy="raise"`` it
  propagates).
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
           "ProgressPrinter"]


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
        """After one problem failed *terminally* (every retry and fallback
        exhausted); the sweep continues under ``failure_policy="continue"``."""

    def on_checkpoint(self, problem: Problem, path: str,
                      n_entries: int) -> None:
        """After a mid-session column-cache checkpoint was written."""

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
    negative exitcode names the signal), ``"timeout"`` (the per-problem
    ``timeout`` elapsed and the worker was killed), ``"exception"`` (the
    run raised; ``error_type``/``message``/``traceback`` carry it) or
    ``"interrupted"`` (a ``KeyboardInterrupt`` stopped the sweep while this
    problem was in flight -- its checkpoint, if any, was saved).
    """

    problem: Problem
    phase: str
    error_type: str
    message: str
    #: how many attempts were made in total (first try counts as 1)
    attempts: int
    traceback: str = ""
    #: True when the last attempt was the in-process serial fallback
    fell_back_serial: bool = False

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
    instead, and a ``KeyboardInterrupt`` sets :attr:`interrupted` (problems
    that never started appear in neither mapping).  What IS in
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
        from it and saves back everything it computed.  With ``jobs > 1``
        every worker loads it at start and merge-saves at end (under the
        store's advisory lock), so parallel sweeps still pool their
        columns across problems and across sessions.
    callbacks:
        :class:`SessionCallback` instances observing the run.
    checkpoint_column_cache:
        Serially, save the shared cache to ``column_cache_path`` after
        *each* problem (not just at the end), so an interrupted sweep
        keeps the warmth it paid for.  Parallel sessions checkpoint
        inherently (each worker saves on completion).
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
        Optional per-problem wall-clock budget in seconds (``jobs > 1``
        only -- an in-process run cannot be preempted): a worker past its
        deadline is killed and the problem retried/failed like a crash.
    retries:
        How many times a crashed / timed-out / raising problem is retried
        (fresh worker, exponential backoff with jitter) before the serial
        fallback or terminal failure.  Default 1.
    retry_backoff:
        Base backoff delay in seconds; attempt ``k`` waits
        ``retry_backoff * 2**(k-1)`` (+ up to 25% jitter).  Default 0.5.
    fallback_serial:
        After all parallel retries fail, try the problem once more
        in-process (default True) -- degraded throughput beats a lost
        problem when the failure was pool-related.
    failure_policy:
        ``"continue"`` (default): terminal failures become structured
        :class:`ProblemFailure` records in a partial
        :class:`SessionResult` and the sweep keeps going.  ``"raise"``:
        the first failure propagates as an exception and a
        ``KeyboardInterrupt`` propagates instead of returning partials.
    """

    def __init__(self, problems: Sequence[Problem] = (),
                 settings: Optional[CaffeineSettings] = None, *,
                 jobs: int = 1,
                 column_cache_path: Optional[str] = None,
                 callbacks: Sequence[SessionCallback] = (),
                 checkpoint_column_cache: bool = False,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_every: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 retry_backoff: float = 0.5,
                 fallback_serial: bool = True,
                 failure_policy: str = "continue") -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if checkpoint_column_cache and column_cache_path is None:
            raise ValueError(
                "checkpoint_column_cache=True has nothing to write to; "
                "pass column_cache_path as well")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if failure_policy not in ("continue", "raise"):
            raise ValueError(
                f"failure_policy must be 'continue' or 'raise', "
                f"got {failure_policy!r}")
        self.problems: List[Problem] = []
        self.settings = settings
        self.jobs = int(jobs)
        self.column_cache_path = (str(column_cache_path)
                                  if column_cache_path is not None else None)
        self.callbacks: List[SessionCallback] = list(callbacks)
        self.checkpoint_column_cache = bool(checkpoint_column_cache)
        self.checkpoint_path = (str(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.checkpoint_every = int(checkpoint_every)
        self.timeout = timeout
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.fallback_serial = bool(fallback_serial)
        self.failure_policy = failure_policy
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

        ``resume=True`` (requires ``checkpoint_path``) warm-restarts from
        the checkpoint store: problems with a stored final result return
        it without re-running, problems with a generation snapshot
        continue bit-identically from it, everything else starts cold.
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
    def _checkpoint_store(self) -> Optional[RunCheckpointStore]:
        return (RunCheckpointStore(self.checkpoint_path)
                if self.checkpoint_path is not None else None)

    def _backoff_delay(self, failed_attempt: int) -> float:
        """Exponential backoff with up to 25% jitter (wall-clock only)."""
        base = self.retry_backoff * (2.0 ** failed_attempt)
        # repro-lint: allow[determinism] -- retry-backoff jitter shapes wall-clock waits only, never results
        return base * (1.0 + 0.25 * random.random())

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
        checkpoints = self._checkpoint_store()
        total = len(self.problems)
        results: Dict[str, CaffeineResult] = {}
        failures: Dict[str, ProblemFailure] = {}
        interrupted = False
        loaded_namespaces = set()
        current: Optional[Problem] = None
        try:
            for index, problem in enumerate(self.problems):
                current = problem
                self._fire("on_problem_start", problem, index, total)
                effective = problem.effective_settings(self.settings)
                progress = self._generation_progress(problem)
                attempt = 0
                while True:
                    engine = CaffeineEngine(
                        problem.train, test=problem.test, settings=effective,
                        column_cache=cache)
                    if store is not None:
                        # Admit only this problem's namespace into the LRU
                        # (a shared store file only grows; foreign
                        # namespaces would occupy -- and at capacity evict
                        # -- the warm columns this sweep actually uses).
                        # Each namespace loads once per session.
                        dataset_key = engine.evaluator.dataset_key
                        if dataset_key not in loaded_namespaces:
                            loaded_namespaces.add(dataset_key)
                            store.load_into(cache, dataset_key=dataset_key)
                    try:
                        # A retry resumes from the failed attempt's own
                        # checkpoints: completed generations stay paid for.
                        result = engine.run(
                            progress=progress,
                            checkpoint=checkpoints,
                            checkpoint_every=self.checkpoint_every,
                            checkpoint_slot=problem.name,
                            resume=resume or attempt > 0)
                    except KeyboardInterrupt:
                        raise
                    except Exception as error:
                        if self.failure_policy == "raise":
                            raise
                        attempt += 1
                        failure = ProblemFailure(
                            problem=problem, phase="exception",
                            error_type=type(error).__name__,
                            message=str(error), attempts=attempt,
                            traceback=traceback_module.format_exc())
                        if attempt <= self.retries:
                            delay = self._backoff_delay(attempt - 1)
                            self._fire("on_problem_retry", problem, failure,
                                       delay)
                            time.sleep(delay)
                            continue
                        failures[problem.name] = failure
                        self._fire("on_problem_error", problem, failure)
                        break
                    results[problem.name] = result
                    self._fire("on_problem_end", problem, result, index,
                               total)
                    break
                if store is not None and self.checkpoint_column_cache \
                        and index + 1 < total:
                    n_entries = store.save(cache)
                    self._fire("on_checkpoint", problem, str(store.path),
                               n_entries)
        except KeyboardInterrupt:
            # The engine already saved the interrupted problem's last
            # completed generation boundary (when checkpointing is on);
            # report what finished instead of discarding it.
            if self.failure_policy == "raise":
                raise
            interrupted = True
            if current is not None and current.name not in results:
                failures[current.name] = ProblemFailure(
                    problem=current, phase="interrupted",
                    error_type="KeyboardInterrupt",
                    message=("interrupted by user"
                             + ("; checkpoint saved"
                                if checkpoints is not None else "")),
                    attempts=1)
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
        is reaped (or killed, for timeouts), the problem retried with
        backoff, degraded to in-process execution, or recorded as a
        structured failure, while every other worker keeps running.

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
        serial_queue: List[_Attempt] = []
        pending: List[_Attempt] = [
            _Attempt(index=index, problem=problem)
            for index, problem in enumerate(self.problems)]
        running: Dict[object, _Running] = {}  # recv-pipe -> worker
        started: set = set()
        interrupted = False

        def launch(item: _Attempt) -> None:
            if item.index not in started:
                started.add(item.index)
                self._fire("on_problem_start", item.problem, item.index,
                           total)
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
            attempts = worker.attempt + 1
            failure = ProblemFailure(
                problem=worker.problem, phase=phase, error_type=error_type,
                message=message, attempts=attempts, traceback=trace)
            if self.failure_policy == "raise":
                raise RuntimeError(
                    f"problem {worker.problem.name!r} failed "
                    f"({phase}: {error_type}: {message})"
                    + (f"\n{trace}" if trace else ""))
            if worker.attempt < self.retries:
                delay = self._backoff_delay(worker.attempt)
                self._fire("on_problem_retry", worker.problem, failure,
                           delay)
                pending.append(_Attempt(
                    index=worker.index, problem=worker.problem,
                    attempt=worker.attempt + 1,
                    ready_at=time.monotonic() + delay))
            elif self.fallback_serial:
                self._fire("on_problem_retry", worker.problem, failure, 0.0)
                serial_queue.append(_Attempt(
                    index=worker.index, problem=worker.problem,
                    attempt=attempts))
            else:
                failures[worker.problem.name] = failure

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
                                f"problem exceeded the per-problem timeout "
                                f"of {self.timeout} s and was killed")
        except KeyboardInterrupt:
            if self.failure_policy == "raise":
                raise
            interrupted = True
            for worker in running.values():
                failures.setdefault(worker.problem.name, ProblemFailure(
                    problem=worker.problem, phase="interrupted",
                    error_type="KeyboardInterrupt",
                    message=("interrupted by user"
                             + ("; last checkpoint kept"
                                if self.checkpoint_path is not None
                                else "")),
                    attempts=worker.attempt + 1))
        finally:
            for conn, worker in running.items():
                worker.process.kill()
                worker.process.join(timeout=30)
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            running.clear()

        # Graceful degradation: problems that kept dying in workers get one
        # in-process attempt (resuming their checkpoints, if any) -- slower,
        # but immune to pool-level pathologies.
        if not interrupted:
            for item in serial_queue:
                try:
                    result = _run_problem_task(
                        item.problem,
                        item.problem.effective_settings(self.settings),
                        self.column_cache_path,
                        checkpoint_path=self.checkpoint_path,
                        checkpoint_every=self.checkpoint_every,
                        resume=True)
                except KeyboardInterrupt:
                    interrupted = True
                    failures[item.problem.name] = ProblemFailure(
                        problem=item.problem, phase="interrupted",
                        error_type="KeyboardInterrupt",
                        message="interrupted during serial fallback",
                        attempts=item.attempt + 1, fell_back_serial=True)
                    break
                except Exception as error:
                    failures[item.problem.name] = ProblemFailure(
                        problem=item.problem, phase="exception",
                        error_type=type(error).__name__,
                        message=str(error), attempts=item.attempt + 1,
                        traceback=traceback_module.format_exc(),
                        fell_back_serial=True)
                else:
                    outcomes[item.problem.name] = result

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


def _run_problem_task(problem: Problem, settings: CaffeineSettings,
                      column_cache_path: Optional[str],
                      checkpoint_path: Optional[str] = None,
                      checkpoint_every: int = 1,
                      resume: bool = False) -> CaffeineResult:
    """One worker's whole job: warm-load, run, merge-save (picklable)."""
    cache = BasisColumnCache(cache_budgets(settings).columns)
    store = (ColumnCacheStore(column_cache_path)
             if column_cache_path is not None else None)
    engine = CaffeineEngine(problem.train, test=problem.test,
                            settings=settings, column_cache=cache)
    if store is not None:
        # Namespace-filtered, like the serial path: only this problem's
        # columns occupy LRU room (save() below still merges, never erases).
        store.load_into(cache, dataset_key=engine.evaluator.dataset_key)
    checkpoints = (RunCheckpointStore(checkpoint_path)
                   if checkpoint_path is not None else None)
    result = engine.run(checkpoint=checkpoints,
                        checkpoint_every=checkpoint_every,
                        checkpoint_slot=problem.name, resume=resume)
    if store is not None:
        store.save(cache)
    return result


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
        result = _run_problem_task(problem, settings, column_cache_path,
                                   checkpoint_path=checkpoint_path,
                                   checkpoint_every=checkpoint_every,
                                   resume=resume)
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
