"""Tests of the benchmark itself, on the quick (small) workloads."""

import json
import os
import shutil
import subprocess
import sys
from math import factorial

import pytest

import layers
import run
from workloads import QUICK_WORKLOADS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def bench(workload, seed=1, trace=0, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--quick", *extra],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.CATALOGUE
    ]


def _partition_count(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p[n]


@pytest.mark.parametrize("workload", [*WORKLOADS.values(), *QUICK_WORKLOADS.values()],
                         ids=lambda w: w.name)
def test_expected_outputs_hold_the_invariants(workload):
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    items = 0
    for argv in workload.commands:
        out = expected[" ".join(argv)]
        if argv[0] == "sequence":
            n = int(argv[argv.index("--n") + 1])
            rows = out.splitlines()[1:]
            assert sum(int(row.rsplit(",", 1)[1]) for row in rows) == factorial(n)
            if "--jobs" in argv:
                assert out == expected[" ".join(argv[:argv.index("--jobs")])]
            items += _partition_count(n) if "shapes" in argv else factorial(n)
        else:
            report = json.loads(out)
            assert report["ok"] is True and report["witnesses"] == []
            items += report["domain_size"]
    assert items == workload.items


def test_end_to_end_metric_names_repeat_across_runs():
    first, second = result(bench("count", 1)), result(bench("count", 2))
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and first["attempted"] >= 2
    for res in (first, second):
        assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END_UNITS
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = result(bench("verify", 1, 1)), result(bench("verify", 2, 1))
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(first["metrics"]) == list(second["metrics"]) == names
    counts = [m.name for m in layers.CATALOGUE if m.unit == "count"]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    # One hook_inject call per hook pair and two per hook-class lift pair;
    # one flip_preimage call per flip pair.
    assert first["metrics"]["injections.hook_inject.calls"]["value"] == 1 + 6 + 28 + 120 + 2 * 347
    assert first["metrics"]["paths.flip_preimage.calls"]["value"] == 2 + 5 + 34 + 98 + 496
    assert first["metrics"]["census.verify_injection.pairs"]["value"] == QUICK_WORKLOADS["verify"].items


def test_traced_run_sees_rebound_names():
    metrics = result(bench("verify", 1, 1))["metrics"]
    lift_pairs = 1 + 22 + 353
    assert metrics["injections.lift.calls"]["value"] == lift_pairs
    # injections imports rsk by name; two calls per lift come through it.
    assert metrics["tableaux.rsk.calls"]["value"] == 2 * lift_pairs
    # lift n=3..5 scans each n! twice and keeps C(2n-2, n-1) hook-pair and
    # Catalan(n) 321-avoiding permutations; protected n=7 scans tableaux.
    assert metrics["census.enumerate_class.kept_ratio"]["value"] == (
        (6 + 20 + 70) + (5 + 14 + 42)
    ) / (2 * (6 + 24 + 120))


def test_traced_count_sees_the_sweep_and_the_counter():
    metrics = result(bench("count", 1, 1))["metrics"]
    assert metrics["census.count_standard_tableaux.calls"]["value"] == 77
    assert metrics["tableaux.partitions.items"]["value"] == 77
    assert metrics["census.sweep.perms_per_s"]["value"] > 0
    assert metrics["census.sequence.jobs2_speedup"]["value"] > 0
    assert metrics["injections.calls"]["value"] == metrics["paths.calls"]["value"] == 0


def copy_benchmark(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_expected_output_fails_every_command(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(os.path.join(ROOT, "src"))
    corrupt = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(corrupt.read_text())
    corrupt.write_text(json.dumps({k: v + " " for k, v in expected.items()}))
    proc = bench("count", cwd=tmp_path)
    res = result(proc)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0
    assert "failed_frac" in proc.stdout and "FAILED" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("count", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
