"""Self-test of the benchmark itself (about a minute)::

    python3 perfbench/selftest.py

1. A shrunken run of every workload, timed and traced, must print a
   result whose metrics are exactly the ones ``BENCHMARK.json`` names,
   each with its unit, with every output check passing.
2. The output check must fail when fed a perturbed digest.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark must exit non-zero without printing a result.

Exits 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402  (benchmark-local module)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_shrunken_runs(spec: dict, failures: list) -> None:
    for workload in bench.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(["--workload", workload, "--seed", "0", "--seconds", "1",
                              "--trace", str(trace), "--shrink"])
            where = f"{workload} --trace {trace}"
            result = last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            if set(result) != RESULT_KEYS:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{where}: checks failed\n{proc.stdout[-1500:]}")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            if set(got) != set(wanted):
                failures.append(f"{where}: metrics differ: {sorted(set(got) ^ set(wanted))}")
            for name, unit in wanted.items():
                entry = got.get(name, {})
                if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
                    failures.append(f"{where}: {name} = {entry!r}, want a number in {unit}")
            print(f"ok: {where} emits {len(got)} metrics")


def check_perturbed_digests(failures: list) -> None:
    reference = bench.load_reference()
    for workload, fields in bench.CHECKED.items():
        seeds = reference.get(workload, {})
        if "0" not in seeds:
            failures.append(f"reference.json records no seed 0 for {workload}")
            continue
        recorded = seeds["0"]
        ledger = bench.Ledger()
        bench.check_outputs(workload, 0, dict(recorded), recorded, ledger)
        if ledger.failed:
            failures.append(f"{workload}: recorded outputs fail their own check")
        key = fields[0]
        value = str(recorded[key])
        perturbed = dict(recorded, **{key: ("0" if value[0] != "0" else "1") + value[1:]})
        ledger = bench.Ledger()
        bench.check_outputs(workload, 0, perturbed, recorded, ledger)
        if ledger.failed != 1 or not ledger.checks_failed:
            failures.append(f"{workload}: a perturbed {key} passed the output check")
        else:
            print(f"ok: {workload} rejects a perturbed {key}")


def check_bare_directory(failures: list) -> None:
    bare = os.path.join(ROOT, ".perfbench-work", f"selftest-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "fig9_hubs_large", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=bare, timeout=180)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            failures.append("without src/ the benchmark still printed a result")
        else:
            print(f"ok: without src/ the benchmark exits {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures: list = []
    check_perturbed_digests(failures)
    check_bare_directory(failures)
    check_shrunken_runs(spec, failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
