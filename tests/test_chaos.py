"""Tests for repro.chaos: catalog, injection primitives, verdicts, CLI."""

import pickle

import pytest

from repro.chaos import (
    ChaosScenario,
    ChaosVerdict,
    build_chaos_plan,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_chaos_campaign,
    run_chaos_cell,
    scenario_index,
)
from repro.cli import main
from repro.core.findings import CHAOS_FINDING_BASE
from repro.net.address import Endpoint, IPAddress
from repro.net.packet import Packet, Protocol
from repro.server.placement import (
    FIXED,
    REGIONAL,
    PlacementDeployment,
    PlacementError,
    PlacementSpec,
)


# ---------------------------------------------------------------- catalog


def test_catalog_has_full_scenario_coverage():
    scenarios = list_scenarios()
    assert len(scenarios) >= 6
    kinds = {spec.kind for spec in scenarios}
    assert {
        "server-crash",
        "regional-outage",
        "link-flap",
        "loss-burst",
        "dns-misdirection",
        "flash-crowd",
    } <= kinds
    for spec in scenarios:
        assert len(spec.intensity_names) >= 2
        assert spec.summary and spec.description
        for intensity in spec.intensity_names:
            assert isinstance(spec.params(intensity), dict)


def test_scenario_index_follows_registration_order():
    names = [spec.name for spec in list_scenarios()]
    assert [scenario_index(name) for name in names] == list(range(len(names)))


def test_params_rejects_unknown_intensity_with_choices():
    with pytest.raises(KeyError, match="mild"):
        get_scenario("link-flap").params("apocalyptic")


def test_get_scenario_unknown_name_lists_known():
    with pytest.raises(KeyError, match="link-flap"):
        get_scenario("meteor-strike")


def test_register_scenario_rejects_duplicates():
    spec = ChaosScenario(
        name="link-flap",
        kind="link-flap",
        summary="dup",
        description="dup",
        intensities={"mild": {"flaps": 1, "down_s": 1.0, "up_s": 1.0}},
    )
    with pytest.raises(ValueError):
        register_scenario(spec)


def test_scenario_params_are_immutable():
    params = get_scenario("loss-burst").params("mild")
    params["loss_rate"] = 0.0  # a defensive copy, not the catalog entry
    assert get_scenario("loss-burst").params("mild")["loss_rate"] > 0.0


# ------------------------------------------------- injection primitives


def test_link_admin_down_drops_all_new_traffic(world):
    packet = Packet(
        src=Endpoint(world.client.ip, 1),
        dst=Endpoint(world.server.ip, 2),
        protocol=Protocol.UDP,
        size=500,
    )
    link = world.client_up
    link.set_up(False)
    for _ in range(3):
        link.send(packet)
    assert link.dropped_packets == 3
    assert link.down_dropped_packets == 3
    link.set_up(True)
    link.send(packet)
    world.sim.run()
    assert link.down_dropped_packets == 3
    assert link.delivered_packets == 1


def test_host_for_unknown_region_raises_placement_error():
    deployment = PlacementDeployment(
        PlacementSpec(REGIONAL, "AWS"), {"east-us": [object()]}
    )
    with pytest.raises(PlacementError, match="no deployed host in region 'mars'"):
        deployment.host_for(None, region="mars")


def test_host_for_fixed_site_without_hosts_raises_placement_error():
    deployment = PlacementDeployment(
        PlacementSpec(FIXED, "AWS", site="west-us"), {}
    )
    with pytest.raises(PlacementError, match="west-us"):
        deployment.host_for(None)


# --------------------------------------------------------- end to end


def test_link_flap_cell_produces_passing_verdict():
    verdict = run_chaos_cell("link-flap", "vrchat", "mild", seed=0)
    assert isinstance(verdict, ChaosVerdict)
    assert (verdict.scenario, verdict.platform) == ("link-flap", "vrchat")
    assert verdict.intensity == "mild" and verdict.seed == 0
    assert verdict.heal_at_s > verdict.fault_at_s
    assert verdict.baseline_down_kbps > 0
    assert verdict.recovered and verdict.recovery_time_s >= 0.0
    assert verdict.packets_lost > 0  # the flap visibly cost traffic
    assert 0.0 <= verdict.session_survival_rate <= 1.0
    assert verdict.passed
    assert "timeline" in verdict.evidence

    finding = verdict.to_finding()
    assert finding.number == CHAOS_FINDING_BASE + scenario_index("link-flap")
    assert finding.passed is verdict.passed
    assert finding.evidence == verdict.evidence


def test_build_chaos_plan_prunes_undefined_intensity_pairs():
    plan = build_chaos_plan(
        scenarios=["link-flap", "loss-burst"],
        platforms=["vrchat"],
        intensities=["mild", "no-such-level"],
        seeds=(0,),
    )
    kwargs = [spec.kwargs_dict for spec in plan.tasks]
    assert all(k["intensity"] == "mild" for k in kwargs)
    assert {k["scenario"] for k in kwargs} == {"link-flap", "loss-burst"}


def test_build_chaos_plan_rejects_unknown_scenario():
    with pytest.raises(KeyError):
        build_chaos_plan(scenarios=["meteor-strike"])


def test_build_chaos_plan_rejects_a_matrix_with_no_cells():
    with pytest.raises(ValueError, match=r"mlid.*link-flap \[mild/severe\]"):
        build_chaos_plan(scenarios=["link-flap"], intensities=["mlid"])


def test_cell_drivers_accept_only_the_runner_options():
    from repro.qoe import run_qoe_campaign

    for driver in (run_chaos_campaign, run_qoe_campaign):
        with pytest.raises(TypeError, match="backoff_s"):
            driver(platforms=["vrchat"], backoff_s=0.0)


@pytest.mark.slow
def test_verdicts_are_byte_identical_across_runs_and_shard_counts():
    """Acceptance: same spec + seed -> byte-identical verdict objects."""
    first = run_chaos_cell("link-flap", "vrchat", "mild", seed=1)
    second = run_chaos_cell("link-flap", "vrchat", "mild", seed=1)
    assert pickle.dumps(first) == pickle.dumps(second)

    matrix = dict(
        scenarios=["link-flap"],
        platforms=["vrchat"],
        intensities=["mild"],
        seeds=(0, 1),
        cache_dir=None,
        use_cache=False,
    )
    serial = run_chaos_campaign(parallel=False, **matrix)
    sharded = run_chaos_campaign(parallel=True, max_workers=2, **matrix)
    assert serial.ok and sharded.ok
    assert [pickle.dumps(v) for v in serial.verdicts] == [
        pickle.dumps(v) for v in sharded.verdicts
    ]
    # Campaign verdicts additionally carry plan-derived correlation ids;
    # strip them to compare cell content with the standalone run.
    import dataclasses

    unstamped = dataclasses.replace(
        serial.verdicts[1], campaign_id="", task_id=""
    )
    assert pickle.dumps(second) == pickle.dumps(unstamped)
    assert serial.verdicts[1].campaign_id.startswith("c")
    assert serial.verdicts[1].task_id
    assert serial.verdicts[1].campaign_id == sharded.verdicts[1].campaign_id


# ----------------------------------------------------------------- CLI


def test_chaos_help_lists_every_scenario(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for spec in list_scenarios():
        assert spec.name in out


def test_chaos_cli_unknown_scenario_is_usage_error(capsys):
    code = main(["chaos", "--scenarios", "meteor-strike", "--serial"])
    assert code == 2
    assert "meteor-strike" in capsys.readouterr().err


def test_chaos_cli_matrix_with_no_cells_is_usage_error(capsys):
    argv = [
        "chaos",
        "--scenarios", "link-flap",
        "--platforms", "vrchat",
        "--intensities", "mlid",
        "--serial",
        "--no-cache",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "mlid" in err and "link-flap [mild/severe]" in err


@pytest.mark.slow
def test_chaos_cli_mini_campaign(tmp_path, capsys):
    argv = [
        "chaos",
        "--scenarios", "link-flap",
        "--platforms", "vrchat",
        "--intensities", "mild",
        "--seeds", "1",
        "--serial",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    for spec in list_scenarios():  # bare run prints the catalog too
        assert spec.name in out
    assert "findings: 1/1 cells passed" in out

    assert main(argv) == 0  # cache hit: byte-identical replay
    assert "cache hits : 1" in capsys.readouterr().out
