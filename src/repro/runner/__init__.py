"""repro.runner — parallel campaign execution with caching + telemetry.

The paper averages every table over "more than 20 experiments"
(Sec. 3.2) and sketches crowd-sourced many-site campaigns (Sec. 9).
This package is that campaign layer for the reproduction: expand an
experiment matrix into tasks (:mod:`.plan`), execute them over a
process pool with retries, timeouts and crash isolation
(:mod:`.executor`), skip everything already computed via a
content-addressed on-disk cache (:mod:`.cache`), and narrate the whole
run as structured JSONL events (:mod:`.telemetry`).

Quickstart::

    from repro.runner import CampaignPlan, run_campaign

    plan = CampaignPlan.from_matrix(
        ["throughput", "forwarding"],
        grid={"platforms": [("vrchat",), ("worlds",)]},
        seeds=range(10),
    )
    campaign = run_campaign(plan, max_workers=4, cache_dir=".repro-cache")
    print(campaign.summary.render())

Parallel execution is deterministic: per-task results are bit-identical
to a serial run of the same plan, because every task owns its seed and
no state is shared between tasks.  Tasks whose registry experiments
declare the same simulation (``ExperimentSpec.unit_key``) run it once,
as one unit, with the same per-task results and cache entries.
"""

from __future__ import annotations

import dataclasses
import os
import re
import time
import typing

from ..obs.context import active_live_server
from .cache import ResultCache
from .executor import CampaignExecutor, TaskResult, set_live_queue
from .plan import (
    CampaignPlan,
    TaskSpec,
    campaign_id_for,
    experiment_accepts_seed,
    group_units,
)
from .telemetry import CampaignSummary, TelemetryWriter

__all__ = [
    "CampaignPlan",
    "CampaignResult",
    "CampaignSummary",
    "CampaignExecutor",
    "ResultCache",
    "TaskResult",
    "TaskSpec",
    "TelemetryWriter",
    "campaign_id_for",
    "experiment_accepts_seed",
    "run_campaign",
]

#: Default on-disk cache location (gitignored).
DEFAULT_CACHE_DIR = ".repro-cache"


def task_dump_filename(task_id: str) -> str:
    """Filesystem-safe per-task dump filename embedding the task id.

    The task id already ends in a content-address fragment, so the name
    is stable and collision-free across retries and re-runs.
    """
    return re.sub(r"[^A-Za-z0-9._@#+=-]", "_", task_id) + ".json"


def _write_task_metrics(metrics_dir: str, task_result: TaskResult, telemetry) -> str:
    """Write one task's obs dump as JSON; returns the path written."""
    import os

    from ..obs.export import write_json

    os.makedirs(metrics_dir, exist_ok=True)
    filename = task_dump_filename(task_result.spec.task_id)
    path = os.path.join(metrics_dir, filename)
    write_json(task_result.metrics, path)
    metrics = task_result.metrics.get("metrics", {})
    trace = task_result.metrics.get("trace", {})
    telemetry.emit(
        "task_metrics",
        task=task_result.spec.task_id,
        path=path,
        n_counters=len(metrics.get("counters", [])),
        n_gauges=len(metrics.get("gauges", [])),
        n_trace_events=len(trace.get("events", [])),
    )
    return path


def _write_campaign_index(
    metrics_dir: str,
    campaign_id: str,
    results: typing.Sequence[TaskResult],
    dump_names: typing.Mapping[str, str],
) -> str:
    """Write ``index.json``: task_id -> params/seed/status/dump path."""
    import json
    import os

    tasks = {}
    for result in results:
        spec = result.spec
        tasks[spec.task_id] = {
            "experiment": spec.experiment,
            "seed": spec.seed,
            "params": spec.kwargs_dict,
            "cache_key": spec.cache_key(),
            "status": result.status,
            "from_cache": result.from_cache,
            "attempts": result.attempts,
            "dump": dump_names.get(spec.task_id),
        }
    index = {"schema": 1, "campaign_id": campaign_id, "tasks": tasks}
    path = os.path.join(metrics_dir, "index.json")
    os.makedirs(metrics_dir, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(index, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
    return path


@dataclasses.dataclass
class CampaignResult:
    """Everything a finished campaign produced, in plan order."""

    task_results: typing.List[TaskResult]
    summary: CampaignSummary
    events: typing.List[dict]

    @property
    def ok(self) -> bool:
        return self.summary.ok

    @property
    def failures(self) -> typing.List[TaskResult]:
        return [r for r in self.task_results if not r.ok]

    def values(self) -> typing.List[typing.Any]:
        """Per-task result values, in plan order (``None`` for failures)."""
        return [r.value for r in self.task_results]

    def __len__(self) -> int:
        return len(self.task_results)

    def __iter__(self) -> typing.Iterator[TaskResult]:
        return iter(self.task_results)


def run_campaign(
    plan: typing.Union[CampaignPlan, typing.Iterable[TaskSpec]],
    *,
    parallel: bool = True,
    max_workers: typing.Optional[int] = None,
    timeout_s: typing.Optional[float] = None,
    max_retries: int = 2,
    backoff_s: float = 0.05,
    cache_dir: typing.Optional[str] = None,
    use_cache: bool = True,
    telemetry: typing.Optional[TelemetryWriter] = None,
    telemetry_path: typing.Optional[str] = None,
    collect_obs: bool = False,
    metrics_dir: typing.Optional[str] = None,
) -> CampaignResult:
    """Run every task of ``plan``, reusing cached results for the delta.

    ``cache_dir=None`` disables the cache entirely (as does
    ``use_cache=False`` — the CLI's ``--no-cache``); with a cache, a
    re-run of an unchanged plan performs zero task executions.  Failed
    tasks are retried ``max_retries`` times and then recorded as
    failures without aborting the campaign; inspect
    ``result.failures`` or ``result.summary.ok``.

    Tasks still to run after the cache lookup that share a simulation
    (:func:`~repro.runner.plan.group_units`) run as one unit: one pool
    submission, retried and timed out as one.  Each task keeps its own
    ``task_start``/``task_end`` events, cache entry and
    :class:`TaskResult`, in plan order; the unit's wall time is split
    evenly among them.

    ``collect_obs=True`` (implied by ``metrics_dir``) runs every unit
    under full :mod:`repro.obs` collection: the first executed task of
    each unit carries the unit's observability dump in
    ``TaskResult.metrics`` (kernel event counts and callback profile,
    per-channel byte counters, packet hop traces) plus the mergeable
    ``registry`` form used for fleet aggregation.  With ``metrics_dir``
    each dump is also written once, to
    ``<metrics_dir>/<first task_id>.json``, next to an ``index.json``
    (task_id -> params/seed/dump path, naming the unit's dump for each
    of its tasks) and the cross-worker ``campaign_registry.json``
    aggregate (byte-identical for any worker count).  Cached results
    carry no metrics — they were not re-executed.

    When a :func:`repro.obs.live.live_server` block is active, the run
    additionally streams progress events and each unit's metrics to it;
    without ``collect_obs`` or ``metrics_dir`` it collects metrics only
    (no trace, no callback profile).  The live plane is read-only, so
    results are byte-identical whether or not it is attached.
    """
    tasks = list(plan)
    campaign_id = campaign_id_for(tasks)
    own_telemetry = telemetry is None
    if telemetry is None:
        telemetry = TelemetryWriter(
            telemetry_path, context={"campaign_id": campaign_id}
        )
    live = active_live_server()
    if live is not None:
        telemetry.add_listener(live.on_telemetry)
    cache = None
    if use_cache and cache_dir is not None:
        cache = ResultCache(cache_dir)
    started = time.monotonic()
    telemetry.emit(
        "campaign_start",
        n_tasks=len(tasks),
        parallel=parallel,
        max_workers=max_workers,
        cache_dir=getattr(cache, "root", None),
    )

    results: typing.List[typing.Optional[TaskResult]] = [None] * len(tasks)
    to_run: typing.List[typing.Tuple[int, TaskSpec]] = []
    for index, task in enumerate(tasks):
        if cache is not None:
            hit, value = cache.lookup(task)
            if hit:
                results[index] = TaskResult(
                    task, "ok", value=value, attempts=0, from_cache=True
                )
                telemetry.emit(
                    "cache_hit",
                    task=task.task_id,
                    experiment=task.experiment,
                    seed=task.seed,
                )
                continue
        to_run.append((index, task))

    collect_obs = collect_obs or metrics_dir is not None
    executor = CampaignExecutor(
        max_workers=max_workers,
        timeout_s=timeout_s,
        max_retries=max_retries,
        backoff_s=backoff_s,
        collect_obs=collect_obs or live is not None,
        trace=collect_obs,
    )
    live_queue = None
    if live is not None and to_run:
        # Workers stream end-of-task metric deltas over this queue;
        # fork-started pools inherit it through the module global.  On
        # other start methods the parent-side fold below still feeds
        # the aggregator, just at result-collection time.
        import multiprocessing

        context = multiprocessing.get_context(executor.start_method)
        live_queue = context.Queue()
        set_live_queue(live_queue)
        live.attach_queue(live_queue)
    dump_names: typing.Dict[str, str] = {}
    try:
        if to_run:
            units = [
                [to_run[position] for position in unit]
                for unit in group_units([task for _, task in to_run])
            ]
            specs = [[task for _, task in unit] for unit in units]
            if parallel:
                executed = executor.run(specs, telemetry)
            else:
                executed = executor.run_serial(specs, telemetry)
            for unit, unit_results in zip(units, executed):
                dump_name = None
                for (index, _), task_result in zip(unit, unit_results):
                    results[index] = task_result
                    if cache is not None and task_result.ok:
                        cache.put(
                            task_result.spec, task_result.value,
                            task_result.wall_time_s,
                        )
                    if task_result.metrics is not None:
                        task_result.metrics["campaign_id"] = campaign_id
                        if live is not None:
                            live.note_task_metrics(
                                task_result.spec.task_id,
                                task_result.metrics.get("registry"),
                            )
                        if metrics_dir is not None:
                            dump_name = os.path.basename(
                                _write_task_metrics(
                                    metrics_dir, task_result, telemetry
                                )
                            )
                    if dump_name is not None:
                        dump_names[task_result.spec.task_id] = dump_name
    finally:
        if live_queue is not None:
            set_live_queue(None)

    final = typing.cast(typing.List[TaskResult], results)
    if metrics_dir is not None:
        from ..obs.fleet import (
            REGISTRY_FILENAME,
            FleetAggregator,
            write_campaign_registry,
        )

        aggregator = FleetAggregator()
        for result in final:
            if result.metrics is not None:
                aggregator.add_dump(result.metrics.get("registry"))
        registry_path = os.path.join(metrics_dir, REGISTRY_FILENAME)
        write_campaign_registry(aggregator, registry_path, campaign_id=campaign_id)
        index_path = _write_campaign_index(
            metrics_dir, campaign_id, final, dump_names
        )
        telemetry.emit(
            "campaign_index",
            path=index_path,
            registry=registry_path,
            n_aggregated=aggregator.n_dumps,
        )
    summary = CampaignSummary(
        n_tasks=len(tasks),
        executed=sum(1 for r in final if not r.from_cache),
        cache_hits=sum(1 for r in final if r.from_cache),
        succeeded=sum(1 for r in final if r.ok),
        failed=sum(1 for r in final if not r.ok),
        retries=executor.retries,
        wall_time_s=time.monotonic() - started,
        task_time_s=sum(r.wall_time_s for r in final),
    )
    telemetry.emit("campaign_end", **summary.as_dict())
    if own_telemetry:
        telemetry.close()
    return CampaignResult(final, summary, telemetry.events)
