"""Campaign planning: expand an experiment matrix into hashable tasks.

The paper's tables average "more than 20 experiments" (Sec. 3.2) and
Sec. 9 plans many-site campaigns; a campaign here is the same idea made
explicit: a matrix of (experiment name x parameter grid x seed range)
expanded into individual :class:`TaskSpec` units that the executor can
run in any order, cache, and retry independently.  Determinism rests on
this module: every task carries its own seed and a canonical, hashable
form of its kwargs, so a task means exactly the same computation
whether it runs serially, in a worker process, or is replayed from
cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import itertools
import json
import typing

from ..measure.experiment import get_experiment

#: Bumped whenever the meaning of a cache key changes (e.g. the task
#: canonicalization below); old cache entries then simply miss.
CACHE_SCHEMA_VERSION = 1


def canonicalize(kwargs: typing.Mapping[str, typing.Any]) -> tuple:
    """Kwargs as a sorted, hashable tuple of ``(name, value)`` pairs.

    Mappings become sorted pair-tuples, sequences become tuples, sets
    become sorted tuples — so two grids that spell the same parameters
    differently (list vs tuple, key order) yield the *same* task.
    """
    return tuple(sorted((name, _freeze(value)) for name, value in kwargs.items()))


def _freeze(value: typing.Any) -> typing.Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    return value


def _jsonable(value: typing.Any) -> typing.Any:
    """A JSON-serializable view of a frozen value (for cache keys)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return f"<{type(value).__name__}:{value!r}>"


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One unit of campaign work: an experiment at one grid point.

    ``experiment`` is normally a registry name; ``runner`` optionally
    pins an explicit callable (used by :func:`repro.measure.repetition.
    repeat`'s parallel path, where the experiment is a plain function
    rather than a registered name).  ``seed is None`` marks experiments
    that take no seed parameter and therefore run once per grid point.
    """

    experiment: str
    kwargs: tuple = ()
    seed: typing.Optional[int] = None
    runner: typing.Optional[typing.Callable] = None

    @classmethod
    def create(
        cls,
        experiment: typing.Union[str, typing.Callable],
        kwargs: typing.Optional[typing.Mapping[str, typing.Any]] = None,
        seed: typing.Optional[int] = None,
    ) -> "TaskSpec":
        if callable(experiment):
            name = f"{experiment.__module__}.{experiment.__qualname__}"
            return cls(name, canonicalize(kwargs or {}), seed, runner=experiment)
        get_experiment(experiment)  # validate the name eagerly
        return cls(experiment, canonicalize(kwargs or {}), seed)

    @property
    def kwargs_dict(self) -> typing.Dict[str, typing.Any]:
        return dict(self.kwargs)

    def cache_key(self) -> str:
        """Content address: sha256 over the canonical task identity."""
        identity = {
            "schema": CACHE_SCHEMA_VERSION,
            "experiment": self.experiment,
            "kwargs": {name: _jsonable(value) for name, value in self.kwargs},
            "seed": self.seed,
        }
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def task_id(self) -> str:
        """Short human-facing id used in telemetry events."""
        label = f"{self.experiment}"
        if self.seed is not None:
            label += f"@s{self.seed}"
        return f"{label}#{self.cache_key()[:8]}"

    def execute(self):
        """Run the task in the current process (the serial path)."""
        kwargs = self._runner_kwargs()
        if self.runner is not None:
            return self.runner(**kwargs)
        return get_experiment(self.experiment).run(**kwargs)

    def _runner_kwargs(self) -> typing.Dict[str, typing.Any]:
        kwargs = self.kwargs_dict
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs


def _arguments(task: TaskSpec) -> dict:
    return get_experiment(task.experiment).arguments(**task._runner_kwargs())


def unit_key(task: TaskSpec) -> typing.Optional[tuple]:
    """The simulation ``task`` shares with other tasks, or ``None``.

    A registry experiment may declare a unit key and runner
    (:class:`~repro.measure.experiment.ExperimentSpec`); tasks with the
    same unit runner and key form one unit.  A task that carries its
    own ``runner`` is never looked up.
    """
    if task.runner is not None:
        return None
    try:
        experiment = get_experiment(task.experiment)
        if experiment.unit_key is None:
            return None
        return experiment.unit_runner, experiment.unit_key(_arguments(task))
    except (KeyError, TypeError):
        return None  # the task fails on its own when it runs


def group_units(tasks: typing.Sequence[TaskSpec]) -> typing.List[typing.List[int]]:
    """Positions of ``tasks`` grouped into units, ordered by each unit's
    first task: tasks of one :func:`unit_key` form one unit, and every
    other task is a unit of its own."""
    units: typing.Dict[typing.Hashable, typing.List[int]] = {}
    for position, task in enumerate(tasks):
        key = unit_key(task)
        units.setdefault(position if key is None else key, []).append(position)
    return list(units.values())


def execute_unit(tasks: typing.Sequence[TaskSpec]) -> list:
    """Run one unit of :func:`group_units` in the current process;
    returns its values in task order."""
    if len(tasks) == 1:
        return [tasks[0].execute()]
    unit_runner = get_experiment(tasks[0].experiment).unit_runner
    return unit_runner([(task.experiment, _arguments(task)) for task in tasks])


def campaign_id_for(tasks: typing.Sequence[TaskSpec]) -> str:
    """Deterministic campaign correlation id for a set of tasks.

    Derived from the sorted task cache keys, so the same plan content —
    regardless of task order, worker count, or where it runs — mints
    the same id.  This is the ``campaign_id`` threaded through
    telemetry events, per-task metric dumps, chaos verdicts, and QoE
    results so any artifact joins back to its campaign.
    """
    identity = {
        "schema": CACHE_SCHEMA_VERSION,
        "tasks": sorted(task.cache_key() for task in tasks),
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return "c" + hashlib.sha256(blob.encode()).hexdigest()[:12]


def parse_seeds(value: typing.Any) -> typing.List[int]:
    """The seed vocabulary of ``--seeds`` and of serve specs: a count N
    (seeds ``0..N-1``), an ``'A:B'`` half-open range, or a list of ints."""
    if isinstance(value, bool):
        raise ValueError("must be a count, an 'A:B' range, or a list of ints")
    if isinstance(value, int):
        seeds = list(range(value))
    elif isinstance(value, str):
        start, sep, stop = value.partition(":")
        try:
            if sep:
                seeds = list(range(int(start), int(stop)))
            else:
                seeds = list(range(int(value)))
        except ValueError:
            raise ValueError(f"{value!r} is not a count N or an 'A:B' range") from None
    elif isinstance(value, list) and all(
        isinstance(s, int) and not isinstance(s, bool) for s in value
    ):
        seeds = list(value)
    else:
        raise ValueError("must be a count, an 'A:B' range, or a list of ints")
    if not seeds:
        raise ValueError(f"{value!r} selects no seeds")
    return seeds


def experiment_accepts_seed(name: str) -> bool:
    """Whether the registered experiment takes a ``seed`` parameter."""
    return _accepts_param(name, "seed")


def unaccepted_params(
    experiments: typing.Sequence[str],
    grid: typing.Iterable[str] = (),
    base_kwargs: typing.Iterable[str] = (),
) -> typing.List[str]:
    """One message per grid axis or ``base_kwargs`` key that none of
    ``experiments`` accepts — such a key (a typo, a retired option)
    would otherwise be dropped and every task run on its default."""
    listed = ", ".join(experiments)
    return [
        f"{kind} {key!r} is accepted by none of the listed experiments ({listed})"
        for kind, keys in (("grid axis", grid), ("base_kwargs key", base_kwargs))
        for key in keys
        if not any(_accepts_param(name, key) for name in experiments)
    ]


def _accepts_param(name: str, param: str) -> bool:
    signature = inspect.signature(get_experiment(name).runner)
    return param in signature.parameters or any(
        p.kind == inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )


@dataclasses.dataclass
class CampaignPlan:
    """An ordered list of tasks; order is the serial execution order."""

    tasks: typing.List[TaskSpec]

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> typing.Iterator[TaskSpec]:
        return iter(self.tasks)

    @property
    def experiments(self) -> typing.List[str]:
        seen: typing.List[str] = []
        for task in self.tasks:
            if task.experiment not in seen:
                seen.append(task.experiment)
        return seen

    @property
    def campaign_id(self) -> str:
        """Plan-content-derived correlation id (see :func:`campaign_id_for`)."""
        return campaign_id_for(self.tasks)

    @classmethod
    def from_matrix(
        cls,
        experiments: typing.Sequence[str],
        grid: typing.Optional[typing.Mapping[str, typing.Sequence]] = None,
        seeds: typing.Iterable[int] = (0,),
        base_kwargs: typing.Optional[typing.Mapping[str, typing.Any]] = None,
        keep: typing.Optional[
            typing.Callable[[str, typing.Mapping[str, typing.Any]], bool]
        ] = None,
    ) -> "CampaignPlan":
        """Expand experiment names x parameter grid x seed range.

        ``grid`` maps parameter names to value lists; the cartesian
        product over the grid is taken per experiment.  Mixed campaigns
        are first-class: a grid axis is only applied to experiments
        whose runner accepts that parameter, and experiments whose
        runner accepts no ``seed`` (e.g. the static Table 1 feature
        matrix) contribute one task per grid point with ``seed=None``
        instead of one per seed.  Grid points an experiment ignores are
        deduplicated, so it is not re-run once per irrelevant value.
        A grid axis or ``base_kwargs`` key that *no* listed experiment
        accepts is a :class:`ValueError` (see :func:`unaccepted_params`).

        ``keep(experiment_name, kwargs)`` prunes grid points *before*
        tasks are built — sparse matrices (e.g. a chaos scenario that
        only defines some intensities) stay declarative instead of
        erroring at execution time.
        """
        grid = dict(grid or {})
        seed_list = list(seeds)
        if not seed_list:
            raise ValueError("seeds must be non-empty")
        for name in experiments:
            get_experiment(name)  # fail fast on unknown names
        errors = unaccepted_params(experiments, grid, base_kwargs or {})
        if errors:
            raise ValueError("; ".join(errors))
        tasks = []
        for name in experiments:
            seeded = experiment_accepts_seed(name)
            axes = [n for n in grid if _accepts_param(name, n)]
            seen = set()
            for values in itertools.product(*(grid[n] for n in axes)):
                kwargs = {
                    k: v
                    for k, v in dict(base_kwargs or {}).items()
                    if _accepts_param(name, k)
                }
                kwargs.update(zip(axes, values))
                if keep is not None and not keep(name, dict(kwargs)):
                    continue
                for seed in seed_list if seeded else [None]:
                    task = TaskSpec.create(name, kwargs, seed)
                    if task not in seen:
                        seen.add(task)
                        tasks.append(task)
        return cls(tasks)

    def describe(self) -> str:
        return (
            f"campaign of {len(self.tasks)} tasks over "
            f"{len(self.experiments)} experiments "
            f"({', '.join(self.experiments)})"
        )
