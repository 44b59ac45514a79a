"""Tests for the experiment registry."""

import pytest

from repro.cli import main
from repro.measure.experiment import (
    get_experiment,
    list_experiments,
    registry,
    run_experiment,
)


def test_registry_covers_every_paper_artifact():
    artifacts = {spec.artifact for spec in list_experiments()}
    for expected in (
        "Table 1",
        "Table 2",
        "Table 3",
        "Table 4",
        "Fig. 2",
        "Fig. 3",
        "Fig. 6",
        "Figs. 7/8",
        "Fig. 9",
        "Fig. 11",
        "Fig. 12",
        "Fig. 13",
        "Sec. 6.1",
        "Sec. 6.2",
        "Sec. 6.3",
        "Sec. 8.2",
    ):
        assert any(expected in artifact for artifact in artifacts), expected


def test_registry_lookup_and_cache():
    assert registry() is registry()
    spec = get_experiment("throughput")
    assert spec.artifact == "Table 3"
    with pytest.raises(KeyError):
        get_experiment("nope")


def test_run_experiment_with_overrides():
    rows = run_experiment("features")
    assert len(rows) == 5
    result = run_experiment("throughput", platforms=("vrchat",))
    assert set(result) == {"vrchat"}


def test_default_kwargs_applied():
    spec = get_experiment("public-event")
    assert spec.default_kwargs["platform"] == "vrchat"
    result = spec.run(duration_s=180.0, target_users=6)
    assert result.platform == "vrchat"


def test_cli_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "viewport-width" in out
    assert "Fig. 12" in out
