"""Parallel campaign execution on a process pool.

Design constraints, in order:

1. **Determinism** — a task is ``(experiment, kwargs, seed)`` and owns
   its entire RNG state, so its result is identical whether it runs in
   this process, a worker, or another machine.  The executor therefore
   never shares state between units; parallelism only reorders *when*
   they run, never *what* they compute.  A unit is a list of tasks that
   share one simulation (:func:`~repro.runner.plan.group_units`),
   usually a single task: it is one pool submission, retried and timed
   out as one, while every task keeps its own telemetry and result.
2. **Fault isolation** — a task that raises is retried with exponential
   backoff up to ``max_retries`` times; a task that kills its worker
   (segfault, ``os._exit``) breaks the pool, which is rebuilt and the
   collateral in-flight tasks rescheduled; a task that hangs past
   ``timeout_s`` has its pool torn down (the only way to reclaim a
   wedged ``ProcessPoolExecutor`` worker) and is charged a failed
   attempt while innocent in-flight tasks are requeued uncharged.
3. **Telemetry** — every scheduling decision emits a structured event.

A note on crash attribution: when a worker dies, CPython fails *every*
in-flight future with ``BrokenProcessPool`` without saying which task
was on the dead worker, so all of them are charged an attempt.  With
the default ``max_retries=2`` a single crash never dooms an innocent
neighbour.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import multiprocessing
import os
import time
import typing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from ..obs.context import collect as _collect_obs
from .plan import TaskSpec, execute_unit
from .telemetry import TelemetryWriter

#: Per-simulation trace-buffer bound for campaign tasks.  A campaign
#: collects metrics for *every* task, so full 200k-event buffers would
#: balloon each per-task dump into hundreds of megabytes; a few
#: thousand events keep a representative packet-hop sample (the rest
#: are accounted in ``trace.dropped``) while aggregate counters and
#: histograms — which are never truncated — carry the totals.
CAMPAIGN_TRACE_EVENTS = 2_000

#: Live-observability stream (a multiprocessing queue), inherited by
#: forked workers.  Set by :func:`set_live_queue` in the parent before
#: the pool is built; workers push progress events and end-of-task
#: metric deltas onto it for the in-parent aggregator thread.  Strictly
#: write-only from the task's perspective: pushing happens after the
#: result is computed, so a streamed run is byte-identical to a silent
#: one.
_LIVE_QUEUE = None


def set_live_queue(queue) -> None:
    """Install (or clear, with ``None``) the live stream for workers."""
    global _LIVE_QUEUE
    _LIVE_QUEUE = queue


def _live_put(payload: dict) -> None:
    if _LIVE_QUEUE is None:
        return
    try:
        _LIVE_QUEUE.put(payload)
    except Exception:  # noqa: BLE001 - the live plane must never break a task
        pass


@dataclasses.dataclass(frozen=True)
class _WorkerReply:
    """What a worker sends back: the unit's values plus its accounting."""

    worker_pid: int
    wall_time_s: float
    results: typing.List[typing.Any]
    metrics: typing.Optional[dict] = None


def _execute_in_worker(
    unit: typing.Sequence[TaskSpec], collect_obs: bool = False, trace: bool = True
) -> _WorkerReply:
    """Module-level so it pickles by reference into worker processes.

    With ``collect_obs`` the unit runs under one collector, full or
    (``trace=False``) metrics only, so it yields one dump.
    """
    pid = os.getpid()
    for spec in unit:
        _live_put({"kind": "task_running", "task": spec.task_id, "pid": pid})
    started = time.perf_counter()
    metrics = None
    if collect_obs:
        # Observability collection is process-local, so each worker
        # observes exactly the simulators its own unit builds.
        with _collect_obs(
            max_trace_events=CAMPAIGN_TRACE_EVENTS, trace=trace
        ) as collector:
            results = execute_unit(unit)
        metrics = collector.merged_dump()
        # The mergeable registry form rides along with the dump: it is
        # what repro.obs.fleet folds into the campaign-level registry.
        metrics["registry"] = collector.fleet_dump(source=unit[0].task_id)
        metrics["task_id"] = unit[0].task_id
    else:
        results = execute_unit(unit)
    wall = time.perf_counter() - started
    if _LIVE_QUEUE is not None:
        for index, spec in enumerate(unit):
            payload = {
                "kind": "task_metrics",
                "task": spec.task_id,
                "pid": pid,
                "wall_time_s": round(wall / len(unit), 6),
            }
            if metrics is not None and index == 0:
                payload["registry"] = metrics["registry"]
            _live_put(payload)
    return _WorkerReply(pid, wall, results, metrics)


@dataclasses.dataclass
class TaskResult:
    """Terminal state of one task within a campaign."""

    spec: TaskSpec
    status: str  # "ok" | "failed"
    value: typing.Any = None
    error: typing.Optional[str] = None
    attempts: int = 1
    wall_time_s: float = 0.0
    from_cache: bool = False
    worker_pid: typing.Optional[int] = None
    #: Observability dump (metrics + traces) when the campaign collected
    #: it; None for cached results and failures.  A unit's one dump
    #: rides on its first task only.
    metrics: typing.Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass
class _Attempt:
    index: int
    unit: typing.Sequence[TaskSpec]
    attempt: int = 1
    not_before: float = 0.0


def _unit_results(unit, reply: _WorkerReply, attempt: int, telemetry) -> list:
    """One ``task_end`` and one :class:`TaskResult` per task of a unit
    that finished; its tasks split the unit's wall time evenly."""
    wall = reply.wall_time_s / len(unit)
    results = []
    for index, (spec, value) in enumerate(zip(unit, reply.results)):
        telemetry.emit(
            "task_end",
            task=spec.task_id,
            status="ok",
            wall_time_s=round(wall, 6),
            worker_pid=reply.worker_pid,
            attempt=attempt,
        )
        results.append(
            TaskResult(
                spec, "ok", value=value, attempts=attempt, wall_time_s=wall,
                worker_pid=reply.worker_pid,
                metrics=reply.metrics if index == 0 else None,
            )
        )
    return results


def _emit_starts(unit, attempt: int, telemetry) -> None:
    for spec in unit:
        telemetry.emit(
            "task_start",
            task=spec.task_id,
            experiment=spec.experiment,
            seed=spec.seed,
            attempt=attempt,
        )


class CampaignExecutor:
    """Runs task lists over a worker pool with retries and timeouts."""

    def __init__(
        self,
        max_workers: typing.Optional[int] = None,
        timeout_s: typing.Optional[float] = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        poll_interval_s: float = 0.05,
        start_method: typing.Optional[str] = None,
        collect_obs: bool = False,
        trace: bool = True,
    ) -> None:
        self.max_workers = max_workers or (os.cpu_count() or 2)
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.poll_interval_s = poll_interval_s
        #: Run each unit under a collector; ``trace=False`` collects
        #: metrics only.
        self.collect_obs = collect_obs
        self.trace = trace
        if start_method is None:
            # fork keeps dynamically registered experiments (test stubs,
            # notebook one-offs) visible in workers; fall back where the
            # platform has no fork.
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else available[0]
        self.start_method = start_method
        self.retries = 0  # total retry events across the last run

    # ------------------------------------------------------------------
    # Serial reference path
    # ------------------------------------------------------------------
    def run_serial(
        self,
        units: typing.Sequence[typing.Sequence[TaskSpec]],
        telemetry: TelemetryWriter,
    ) -> typing.List[typing.List[TaskResult]]:
        """Execute in order, in-process — the reference the parallel
        path must reproduce bit-for-bit (same retry policy, no
        timeout enforcement: there is no worker to reclaim).  Returns
        each unit's results, in unit order."""
        self.retries = 0
        results = []
        for unit in units:
            attempt = 1
            while True:
                _emit_starts(unit, attempt, telemetry)
                started = time.perf_counter()
                try:
                    reply = _execute_in_worker(unit, self.collect_obs, self.trace)
                except Exception as exc:  # noqa: BLE001 - task code is arbitrary
                    reason = f"{type(exc).__name__}: {exc}"
                    if attempt <= self.max_retries:
                        backoff = self._backoff(attempt)
                        self._emit_retries(unit, reason, attempt, backoff, telemetry)
                        time.sleep(backoff)
                        attempt += 1
                        continue
                    wall = (time.perf_counter() - started) / len(unit)
                    results.append(
                        self._failures(unit, reason, attempt, telemetry, wall)
                    )
                    break
                results.append(_unit_results(unit, reply, attempt, telemetry))
                break
        return results

    # ------------------------------------------------------------------
    # Parallel path
    # ------------------------------------------------------------------
    def run(
        self,
        units: typing.Sequence[typing.Sequence[TaskSpec]],
        telemetry: TelemetryWriter,
    ) -> typing.List[typing.List[TaskResult]]:
        """Execute over the pool; returns each unit's results, in unit
        order."""
        self.retries = 0
        pending: typing.Deque[_Attempt] = collections.deque(
            _Attempt(index, unit) for index, unit in enumerate(units)
        )
        inflight: typing.Dict[typing.Any, typing.Tuple[_Attempt, float]] = {}
        results: typing.Dict[int, typing.List[TaskResult]] = {}
        pool = self._new_pool()
        try:
            while len(results) < len(units):
                now = time.monotonic()
                if not self._submit_ready(pool, pending, inflight, telemetry, now):
                    # The pool broke while submitting; drain whatever was
                    # in flight through normal bookkeeping and rebuild.
                    finished, unresolved = wait(set(inflight), timeout=5.0)
                    for future in finished:
                        attempt, _deadline = inflight.pop(future)
                        self._collect(future, attempt, results, pending, telemetry)
                    for future in unresolved:  # pragma: no cover - defensive
                        attempt, _deadline = inflight.pop(future)
                        pending.append(attempt)
                    pool.shutdown(wait=False)
                    pool = self._new_pool()
                    continue
                if not inflight:
                    # Everything runnable is backing off; sleep to the
                    # earliest release.
                    wake = min(att.not_before for att in pending)
                    time.sleep(max(0.0, min(wake - now, 0.25)) or 0.005)
                    continue
                done, _ = wait(
                    set(inflight), timeout=self.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    attempt, _deadline = inflight.pop(future)
                    broken |= self._collect(future, attempt, results, pending, telemetry)
                if broken:
                    # Every surviving in-flight future is already (or is
                    # about to be) failed with BrokenProcessPool; drain
                    # them through the same bookkeeping, then rebuild.
                    finished, unresolved = wait(set(inflight), timeout=5.0)
                    for future in finished:
                        attempt, _deadline = inflight.pop(future)
                        self._collect(future, attempt, results, pending, telemetry)
                    for future in unresolved:  # pragma: no cover - defensive
                        attempt, _deadline = inflight.pop(future)
                        pending.append(attempt)
                    pool.shutdown(wait=False)
                    pool = self._new_pool()
                    continue
                timed_out = [
                    (future, pair)
                    for future, pair in inflight.items()
                    if time.monotonic() > pair[1] and not future.done()
                ]
                if timed_out:
                    # A wedged worker cannot be reclaimed through the
                    # pool API; tear the pool down, charge the culprits,
                    # and requeue the innocents without charging them.
                    culprits = {future for future, _ in timed_out}
                    for future, (attempt, _deadline) in list(inflight.items()):
                        del inflight[future]
                        if future in culprits:
                            self._handle_failure(
                                attempt,
                                f"timeout after {self.timeout_s}s",
                                results,
                                pending,
                                telemetry,
                            )
                        elif future.done():
                            self._collect(future, attempt, results, pending, telemetry)
                        else:
                            for spec in attempt.unit:
                                telemetry.emit(
                                    "task_retry",
                                    task=spec.task_id,
                                    reason="requeued: pool reset by a timed-out neighbour",
                                    attempt=attempt.attempt,
                                    backoff_s=0.0,
                                )
                            pending.append(attempt)
                    self._terminate_pool(pool)
                    pool = self._new_pool()
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        # Every unit has returned, so the workers are idle.  Waiting
        # also joins the pool's manager thread, which would otherwise
        # race interpreter exit for its wakeup pipe.
        pool.shutdown(wait=True)
        return [results[index] for index in range(len(units))]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(self.start_method)
        return ProcessPoolExecutor(max_workers=self.max_workers, mp_context=context)

    def _submit_ready(self, pool, pending, inflight, telemetry, now) -> bool:
        """Top up the in-flight window; False if the pool broke mid-submit."""
        deadline = now + self.timeout_s if self.timeout_s else math.inf
        blocked: typing.List[_Attempt] = []
        healthy = True
        while healthy and pending and len(inflight) < self.max_workers:
            attempt = pending.popleft()
            if attempt.not_before > now:
                blocked.append(attempt)
                continue
            try:
                future = pool.submit(
                    _execute_in_worker, attempt.unit, self.collect_obs, self.trace
                )
            except Exception:  # BrokenProcessPool or shutdown race
                pending.appendleft(attempt)
                healthy = False
                break
            _emit_starts(attempt.unit, attempt.attempt, telemetry)
            inflight[future] = (attempt, deadline)
        pending.extend(blocked)
        return healthy

    def _collect(self, future, attempt, results, pending, telemetry) -> bool:
        """Fold one finished future into results; True if the pool broke."""
        try:
            reply = future.result(timeout=0)
        except BrokenProcessPool:
            self._handle_failure(
                attempt, "worker-crash: process pool broken", results, pending,
                telemetry,
            )
            return True
        except Exception as exc:  # noqa: BLE001 - task exceptions are data here
            self._handle_failure(
                attempt, f"{type(exc).__name__}: {exc}", results, pending, telemetry
            )
            return False
        results[attempt.index] = _unit_results(
            attempt.unit, reply, attempt.attempt, telemetry
        )
        return False

    def _handle_failure(self, attempt, reason, results, pending, telemetry) -> None:
        if attempt.attempt <= self.max_retries:
            backoff = self._backoff(attempt.attempt)
            self._emit_retries(attempt.unit, reason, attempt.attempt, backoff, telemetry)
            attempt.attempt += 1
            attempt.not_before = time.monotonic() + backoff
            pending.append(attempt)
            return
        results[attempt.index] = self._failures(
            attempt.unit, reason, attempt.attempt, telemetry
        )

    def _emit_retries(self, unit, reason, attempt, backoff, telemetry) -> None:
        """One ``task_retry`` per task of a unit about to run again."""
        for spec in unit:
            telemetry.emit(
                "task_retry",
                task=spec.task_id,
                reason=reason,
                attempt=attempt,
                backoff_s=backoff,
            )
        self.retries += len(unit)

    @staticmethod
    def _failures(unit, reason, attempts, telemetry, wall_time_s=0.0) -> list:
        """One ``task_fail`` and one failed :class:`TaskResult` per task."""
        results = []
        for spec in unit:
            telemetry.emit(
                "task_fail", task=spec.task_id, reason=reason, attempts=attempts
            )
            results.append(
                TaskResult(
                    spec, "failed", error=reason, attempts=attempts,
                    wall_time_s=wall_time_s,
                )
            )
        return results

    def _backoff(self, attempt: int) -> float:
        return self.backoff_s * (2 ** (attempt - 1))

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
