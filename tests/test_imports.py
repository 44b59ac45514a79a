"""What each front door imports, and when, checked in fresh interpreters.

Package ``__init__``s re-export lazily (``repro/_lazy.py``), so a front
door loads only the modules it runs.  Import time spent inside a timed
window (a ``run_sharded`` call, a testbed run, a serve daemon's first
job) would show up as run time, so these tests also pin what each
window may still import.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Nothing the fluid path runs needs these.
NOT_ON_THE_FLUID_PATH = (
    "networkx",
    "http.server",
    "repro.net.tcp",
    "repro.platforms.base",
    "repro.measure.session",
    "repro.obs.live",
)


def _fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; the JSON on its last line."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_the_fluid_front_door_loads_no_packet_stack():
    out = _fresh(
        "import json, sys\n"
        "from repro.scale import ScaleScenario, run_sharded\n"
        "before = set(sys.modules)\n"
        "result = run_sharded(ScaleScenario(users_per_room=10, duration_s=60.0), 4)\n"
        "assert result.n_rooms == 4\n"
        "print(json.dumps({'loaded': sorted(sys.modules),\n"
        "                  'during_run': sorted(set(sys.modules) - before)}))\n"
    )
    assert not set(NOT_ON_THE_FLUID_PATH) & set(out["loaded"])
    # The campaign runner (and the registry module its plans validate
    # against) is the only repro code the call itself imports.
    during_run = {m for m in out["during_run"] if m.startswith("repro.")}
    runner = {m for m in during_run if m.startswith("repro.runner")}
    assert "repro.runner" in runner
    assert during_run - runner == {"repro.measure", "repro.measure.experiment"}


def test_a_testbed_run_imports_no_module():
    out = _fresh(
        "import json, sys\n"
        "from repro.measure.session import Testbed\n"
        "testbed = Testbed('vrchat', n_users=2, seed=0)\n"
        "testbed.start_all(join_at=1.0)\n"
        "before = set(sys.modules)\n"
        "testbed.run(until=5.0)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert out == []


def test_the_serve_daemon_builds_the_experiment_registry_before_it_answers(tmp_path):
    out = _fresh(
        "import json\n"
        "from repro.measure import experiment\n"
        "from repro.serve import ServeDaemon\n"
        "built_before = experiment._REGISTRY is not None\n"
        f"daemon = ServeDaemon({str(tmp_path / 'spool')!r}, n_workers=0).start()\n"
        "built_after = experiment._REGISTRY is not None\n"
        "daemon.close()\n"
        "print(json.dumps([built_before, built_after]))\n"
    )
    assert out == [False, True]


def test_the_relay_path_imports_nothing_per_update():
    """An import statement in a per-update function runs on every
    relayed avatar update."""
    import dis

    from repro.server.control import ControlService
    from repro.server.forwarding import AvatarDataServer, _pose_from_update

    for function in (
        _pose_from_update,
        AvatarDataServer.ingest_update,
        ControlService.relay_update,
    ):
        opnames = {instruction.opname for instruction in dis.get_instructions(function)}
        assert "IMPORT_NAME" not in opnames, function.__qualname__
