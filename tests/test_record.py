"""The paper record: one renderer per block, shared by CLI, benches and docs."""

import ast
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.measure.record import BANNER, BLOCKS, fill_markers

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "RESULTS.txt"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def _record() -> dict:
    """RESULTS.txt's block texts by title, in file order."""
    blocks = {}
    for chunk in RESULTS.read_text().strip("\n").split("\n\n" + BANNER + "\n"):
        title, _, text = chunk.removeprefix(BANNER + "\n").partition("\n" + BANNER + "\n")
        blocks[title] = text
    return blocks


def _env() -> dict:
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )


def test_the_record_holds_every_block_in_order():
    assert list(_record()) == [block.title for block in BLOCKS.values()]


def test_benches_register_each_record_block_once():
    registered = []
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        tree = ast.parse(path.read_text())
        blocks = {
            node.targets[0].id: node.value.slice.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Subscript)
            and getattr(node.value.value, "id", None) == "BLOCKS"
        }
        registered += [
            blocks[node.args[0].id]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "paper_report"
        ]
    assert sorted(registered) == sorted(BLOCKS)


@pytest.mark.parametrize("name", ["table1", "table2", "regional", "viewport"])
def test_cli_prints_the_record_block(name, capsys):
    assert main([name]) == 0
    title = BLOCKS[name].title
    assert capsys.readouterr().out == f"{BANNER}\n{title}\n{BANNER}\n{_record()[title]}\n"


def test_building_the_parser_runs_no_experiment_code():
    script = (
        "import sys\n"
        "from repro.cli import _build_parser\n"
        "from repro.measure import experiment\n"
        "_build_parser()\n"
        "assert 'repro.core.api' not in sys.modules\n"
        "assert experiment._REGISTRY is None\n"
    )
    subprocess.run([sys.executable, "-c", script], env=_env(), check=True, timeout=60)


def test_experiments_md_tables_are_the_record_blocks():
    document = EXPERIMENTS.read_text()
    record = _record()
    texts = {name: record[block.title] for name, block in BLOCKS.items()}
    assert fill_markers(document, texts) == document
    for name in ("table2", "table3", "table4", "fig11"):
        assert f"<!-- record:{name} -->" in document


def test_a_partial_bench_run_leaves_the_record_unchanged(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for name in ("conftest.py", "bench_table1_features.py", "RESULTS.txt"):
        shutil.copy(ROOT / "benchmarks" / name, tmp_path / "benchmarks" / name)
    shutil.copy(EXPERIMENTS, tmp_path / "EXPERIMENTS.md")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/bench_table1_features.py", "--benchmark-only"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"1 of {len(BLOCKS)} record blocks ran" in run.stdout
    assert (tmp_path / "benchmarks" / "RESULTS.txt").read_bytes() == RESULTS.read_bytes()
    assert (tmp_path / "EXPERIMENTS.md").read_bytes() == EXPERIMENTS.read_bytes()
