"""Campaign-spec schema: validate a JSON job body into a runner plan.

A submitted job is a JSON document mirroring
:meth:`repro.runner.plan.CampaignPlan.from_matrix` — the same matrix
shape the CLI builds from ``--experiments/--param/--seeds``, so every
registered cell type (plain measurement experiments, ``chaos`` fault
cells, ``qoe-score`` cells, ``metaverse-scale`` projections) submits
through one vocabulary::

    {
      "experiments": ["throughput", "forwarding"],     # required
      "grid":        {"platforms": [["vrchat"], ["worlds"]]},
      "seeds":       2,            # count N | "A:B" range | [ints]
      "base_kwargs": {"duration_s": 20.0},
      "priority":    5,            # higher leases first
      "parallel":    true,
      "max_workers": 4,
      "timeout_s":   120.0,
      "max_retries": 2,
      "collect_obs": false         # per-task obs dumps as artifacts
    }

Validation is deliberately schema-first: :func:`validate_spec` returns
*every* problem at once (unknown keys, wrong types, unknown experiment
names, grid axes or ``base_kwargs`` keys no listed experiment accepts,
empty seed ranges) so the API can answer a bad submission with
one complete 400 body instead of a guess-and-resubmit loop.
"""

from __future__ import annotations

import typing

from ..measure.experiment import get_experiment
from ..runner import CampaignPlan
from ..runner.plan import parse_seeds, unaccepted_params

#: Every key a campaign spec may carry, with its expected shape.
SPEC_KEYS = (
    "experiments",
    "grid",
    "seeds",
    "base_kwargs",
    "priority",
    "parallel",
    "max_workers",
    "timeout_s",
    "max_retries",
    "collect_obs",
)

DEFAULTS: typing.Dict[str, typing.Any] = {
    "grid": {},
    "seeds": [0],
    "base_kwargs": {},
    "priority": 0,
    "parallel": True,
    "max_workers": None,
    "timeout_s": None,
    "max_retries": 2,
    "collect_obs": False,
}


class SpecError(ValueError):
    """A campaign spec failed validation; ``errors`` lists every issue."""

    def __init__(self, errors: typing.Sequence[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def validate_spec(spec: typing.Any) -> typing.List[str]:
    """Every problem with ``spec``, as human-readable strings."""
    if not isinstance(spec, dict):
        return ["spec must be a JSON object"]
    errors = []
    for key in spec:
        if key not in SPEC_KEYS:
            errors.append(f"unknown spec key {key!r}")
    experiments = spec.get("experiments")
    names_ok = isinstance(experiments, list) and bool(experiments)
    if not names_ok:
        errors.append("'experiments' must be a non-empty list of registry names")
    else:
        for name in experiments:
            if not isinstance(name, str):
                errors.append(f"experiment name {name!r} is not a string")
                names_ok = False
                continue
            try:
                get_experiment(name)
            except KeyError as exc:
                errors.append(str(exc.args[0]))
                names_ok = False
    grid = spec.get("grid", DEFAULTS["grid"])
    if not isinstance(grid, dict):
        errors.append("'grid' must map parameter names to value lists")
        grid = {}
    else:
        for axis, values in grid.items():
            if not isinstance(values, list) or not values:
                errors.append(f"grid axis {axis!r} must be a non-empty list")
    base_kwargs = spec.get("base_kwargs", DEFAULTS["base_kwargs"])
    if not isinstance(base_kwargs, dict):
        errors.append("'base_kwargs' must be an object")
        base_kwargs = {}
    if names_ok:
        errors.extend(unaccepted_params(experiments, grid, base_kwargs))
    try:
        parse_seeds(spec.get("seeds", DEFAULTS["seeds"]))
    except (ValueError, TypeError) as exc:
        errors.append(f"'seeds': {exc}")
    for key in ("priority", "max_retries"):
        value = spec.get(key, DEFAULTS[key])
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{key!r} must be an integer")
    for key in ("parallel", "collect_obs"):
        if not isinstance(spec.get(key, DEFAULTS[key]), bool):
            errors.append(f"{key!r} must be a boolean")
    max_workers = spec.get("max_workers", None)
    if max_workers is not None and (
        not isinstance(max_workers, int)
        or isinstance(max_workers, bool)
        or max_workers < 1
    ):
        errors.append("'max_workers' must be a positive integer or null")
    timeout_s = spec.get("timeout_s", None)
    if timeout_s is not None and (
        isinstance(timeout_s, bool)
        or not isinstance(timeout_s, (int, float))
        or timeout_s <= 0
    ):
        errors.append("'timeout_s' must be a positive number or null")
    return errors


def normalize_spec(spec: typing.Mapping[str, typing.Any]) -> dict:
    """Spec with defaults applied and seeds expanded to an explicit list.

    The normalized form is what the queue persists, so a worker from
    any process rebuilds exactly the plan the submitter validated.
    """
    errors = validate_spec(spec)
    if errors:
        raise SpecError(errors)
    normalized = dict(DEFAULTS)
    normalized.update(spec)
    normalized["seeds"] = parse_seeds(normalized["seeds"])
    normalized["experiments"] = list(normalized["experiments"])
    return normalized


def plan_from_spec(spec: typing.Mapping[str, typing.Any]) -> CampaignPlan:
    """Expand a (validated or raw) spec into runner tasks."""
    normalized = normalize_spec(spec)
    return CampaignPlan.from_matrix(
        normalized["experiments"],
        grid=normalized["grid"],
        seeds=normalized["seeds"],
        base_kwargs=normalized["base_kwargs"] or None,
    )
