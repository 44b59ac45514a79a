"""Tests for the `python -m repro campaign` CLI path."""

import json

import pytest

from repro.cli import main
from repro.measure.experiment import register_experiment, unregister_experiment


def quick_stub(seed=0, scale=1.0):
    return {"seed": seed, "value": scale * seed}


def failing_stub(seed=0):
    raise RuntimeError("this site is down")


@pytest.fixture(autouse=True)
def _register_stubs():
    register_experiment("cli-quick", quick_stub, artifact="test", replace=True)
    register_experiment("cli-fail", failing_stub, artifact="test", replace=True)
    yield
    unregister_experiment("cli-quick")
    unregister_experiment("cli-fail")


def test_campaign_serial_with_grid_and_telemetry(tmp_path, capsys):
    telemetry = tmp_path / "events.jsonl"
    code = main(
        [
            "campaign",
            "--experiments", "cli-quick",
            "--seeds", "0:4",
            "--param", "scale=1.0,2.0",
            "--serial",
            "--no-cache",
            "--retries", "0",
            "--telemetry", str(telemetry),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign of 8 tasks" in out
    assert "succeeded  : 8" in out

    events = [json.loads(line) for line in telemetry.open()]
    assert events[0]["event"] == "campaign_start"
    assert events[-1]["event"] == "campaign_end"
    assert sum(1 for e in events if e["event"] == "task_start") == 8
    seeds = {e["seed"] for e in events if e["event"] == "task_start"}
    assert seeds == {0, 1, 2, 3}


def test_campaign_cache_resume_via_cli(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = [
        "campaign",
        "--experiments", "cli-quick",
        "--seeds", "5",
        "--serial",
        "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache hits : 5" in out
    assert "executed   : 0" in out


def test_campaign_partial_failure_exit_code(tmp_path, capsys):
    telemetry = tmp_path / "events.jsonl"
    code = main(
        [
            "campaign",
            "--experiments", "cli-quick", "cli-fail",
            "--seeds", "2",
            "--serial",
            "--no-cache",
            "--retries", "0",
            "--telemetry", str(telemetry),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "failed     : 2" in captured.out
    assert "this site is down" in captured.err
    events = [json.loads(line) for line in telemetry.open()]
    assert sum(1 for e in events if e["event"] == "task_fail") == 2
    assert events[-1]["ok"] is False


def test_campaign_unknown_experiment_is_a_usage_error(capsys):
    code = main(["campaign", "--experiments", "definitely-not-real", "--serial"])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_campaign_param_no_experiment_accepts_is_a_usage_error(capsys):
    code = main(
        ["campaign", "--experiments", "cli-quick", "--param", "scael=2.0", "--serial"]
    )
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        "grid axis 'scael' is accepted by none of the listed experiments "
        "(cli-quick)"
    )


def test_campaign_parallel_smoke(tmp_path, capsys):
    """The parallel path through the CLI; stubs are visible to forked
    workers because registration happened in the parent."""
    code = main(
        [
            "campaign",
            "--experiments", "cli-quick",
            "--seeds", "6",
            "--workers", "2",
            "--no-cache",
        ]
    )
    assert code == 0
    assert "succeeded  : 6" in capsys.readouterr().out


def test_campaign_seed_parsing_rejects_empty():
    with pytest.raises(SystemExit):
        main(["campaign", "--experiments", "cli-quick", "--seeds", "3:3", "--serial"])


@pytest.mark.parametrize("seeds", ["abc", "3:1"])
@pytest.mark.parametrize(
    "argv",
    [["campaign", "--experiments", "cli-quick"], ["chaos"], ["qoe"]],
    ids=["campaign", "chaos", "qoe"],
)
def test_bad_seeds_exit_2_with_one_line_naming_the_flag(argv, seeds, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--seeds", seeds, "--serial", "--no-cache"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("--seeds"), err
