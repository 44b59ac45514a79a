"""Smoke tests for the heavier CLI subcommands."""

import re

import pytest

from repro.cli import main
from repro.measure.experiment import run_experiment
from repro.measure.record import BLOCKS


def _render(name: str, **kwargs) -> str:
    """Record block ``name``'s text for a smaller run of its experiment.

    The paper command ``name`` prints its block through this renderer
    (``tests/test_record.py`` pins that output to the record).
    """
    block = BLOCKS[name]
    return block.render(run_experiment(block.experiment, **{**block.kwargs, **kwargs}))


def test_cli_table2_single_platform():
    text = _render("table2", platforms=["vrchat"])
    assert "Cloudflare" in text
    assert "HTTPS" in text and "UDP" in text


def test_cli_table3_single_platform():
    text = _render("table3", platforms=["vrchat"])
    assert "1440x1584" in text


def test_cli_table4_single_platform():
    text = _render("table4", platforms=["recroom"], n_actions=8)
    assert "recroom" in text and "E2E" in text


def test_cli_fig7_small():
    text = _render("fig7", platforms=["vrchat"], user_counts=[1, 3])
    assert "Downlink (Mbps)" in text


def test_cli_public_event(capsys):
    """The 180 s default sees churn; a 60 s event sees none and exits 2."""
    argv = ["public-event", "--platform", "vrchat", "--users", "6"]
    assert main(argv) == 0
    slope = re.search(r"downlink ~= ([0-9.]+) Kbps/user", capsys.readouterr().out)
    assert slope and float(slope.group(1)) == pytest.approx(24.7, rel=0.2)
    assert main(argv + ["--duration", "60"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.count("\n") == 1 and "occupancy stayed at 6" in captured.err


def _status(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, names",
    [
        (["quickstart", "--platform", "nosuch"], "'nosuch'"),
        (["public-event", "--platform", "nosuch"], "'nosuch'"),
        (["export-pcap", "--platform", "nosuch", "--output", "x.pcap"], "'nosuch'"),
        (["quickstart", "--duration", "0"], "duration_s"),
    ],
    ids=["quickstart", "public-event", "export-pcap", "quickstart-duration"],
)
def test_bad_session_arguments_exit_2_with_one_line(argv, names, tmp_path, monkeypatch, capsys):
    from repro.measure import session

    def no_testbed(*args, **kwargs):
        raise AssertionError("a testbed was built for bad arguments")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(session.Testbed, "__init__", no_testbed)
    assert _status(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and names in err, err
    assert not (tmp_path / "x.pcap").exists()


def test_cli_disruption_tcp():
    assert "UDP session dead: True" in _render("fig13")


def test_cli_solutions():
    text = _render("solutions", platform="vrchat")
    assert "p2p" in text and "forwarding" in text


# ----------------------------------------------------------------------
# Top-level flags and observability commands
# ----------------------------------------------------------------------
def test_cli_bare_invocation_prints_help_and_exits_zero(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "usage: repro" in out


def test_cli_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


@pytest.fixture
def _tiny_experiment():
    from repro.measure.experiment import register_experiment, unregister_experiment

    def tiny(seed=0):
        from repro.simcore import Simulator

        sim = Simulator(seed=seed)
        for index in range(5):
            sim.schedule(0.1 * (index + 1), lambda: None)
        sim.run()
        return sim.now

    register_experiment("cli-obs-tiny", tiny, artifact="test", replace=True)
    yield
    unregister_experiment("cli-obs-tiny")


def test_cli_trace_runs_experiment(_tiny_experiment, capsys):
    assert main(["trace", "cli-obs-tiny", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "experiment: cli-obs-tiny (1 simulation(s))" in out
    assert "sim.events_dispatched" in out
    assert "span profile" in out


def test_cli_trace_unknown_experiment(capsys):
    assert main(["trace", "does-not-exist"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_trace_jsonl_output(_tiny_experiment, tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.jsonl"
    assert main(["trace", "cli-obs-tiny", "--output", str(out_path)]) == 0
    lines = [json.loads(line) for line in out_path.read_text().splitlines()]
    events = {line["event"] for line in lines}
    assert "metric" in events and "trace" in events


def test_cli_metrics_out_generic_subcommand(_tiny_experiment, tmp_path, capsys):
    import json

    out_path = tmp_path / "metrics.json"
    assert (
        main(
            [
                "campaign",
                "--experiments",
                "cli-obs-tiny",
                "--serial",
                "--no-cache",
                "--metrics-out",
                str(tmp_path / "task-metrics"),
            ]
        )
        == 0
    )
    assert any((tmp_path / "task-metrics").iterdir())
    # Generic path: any subcommand runs under a collector.
    assert main(["trace", "cli-obs-tiny", "--metrics-out", str(out_path)]) == 0
    dump = json.loads(out_path.read_text())
    names = {c["name"] for c in dump["metrics"]["counters"]}
    assert "sim.events_dispatched" in names
