"""Tests of the benchmark itself: inputs, metric names, traced vs plain requests.

    python3 -m pytest -q perfbench

The two end-to-end tests run the lookup workload for real (about 35 s).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    make = wl.REQUESTS[workload]
    assert make(7, 0) == make(7, 0)
    assert make(7, 3) == make(7, 3)
    if workload != "verify":
        assert make(7, 0) != make(8, 0)
        assert make(7, 0) != make(7, 1)


def test_lookup_strings_are_distinct_canonical_and_stratified():
    passes = [wl.lookup_strings(3, k) for k in range(wl.BLOCK)]
    everything = [x for p in passes for x in p]
    assert len(set(everything)) == len(everything) == wl.BLOCK * wl.LOOKUP_PASS
    assert all(x[0] in "12" and set(x) <= set("012") and 6 <= len(x) <= 16 for x in everything)
    profiles = [wl.lookup_profile([("lookup", x, 0) for x in p]) for p in passes]
    assert all(p == profiles[0] for p in profiles)
    assert 0.3 < profiles[0]["main_suffix_ge_12_share"] < 0.4


def test_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_end_to_end_run_reports_every_metric():
    proc = bench("--workload", "lookup", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = last_json(proc.stdout)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] == wl.LOOKUP_PASS
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == run.END_TO_END_UNITS
    assert "failed_frac" in proc.stdout


def test_traced_run_reports_every_metric_for_the_same_requests():
    proc = bench("--workload", "lookup", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert "requests_match True" in proc.stdout
    doc = last_json(proc.stdout)
    assert doc["correct"] and doc["failed"] == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == PER_LAYER_UNITS
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    assert m["grid.row_of.calls"] == wl.LOOKUP_PASS
    assert m["witness.locate_per_call"] > 1 and m["grid.row_of.columns_per_call"] > 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lookup", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_partition_judge_catches_a_twin_mismatch():
    reqs = [("cli", ("sequence", "--row", "1", "--limit", "20")),
            ("cli", ("sequence", "--row", "1", "--limit", "20", "--method", "grid")),
            ("cli", ("cross", "--count", "2", "--method", "both"))]
    good = [(0, "2\n5\n"), (0, "2\n5\n"), (0, "0 0\n2 2\n")]
    assert wl.judge_partition(reqs, good) == (3, 0)
    assert wl.judge_partition(reqs, [(0, "2\n5\n"), (0, "2\n6\n"), good[2]]) == (3, 2)
    assert wl.judge_partition(reqs, [good[0], None, (4, "")]) == (3, 3)


def test_verify_judge_wants_a_full_pass_and_the_same_stdout(tmp_path):
    checks = "".join(f"ok   check{i} (checked 1)\n" for i in range(wl.MIN_CHECKS))
    out = checks + f"suite all: PASS ({wl.MIN_CHECKS}/{wl.MIN_CHECKS} checks)\n"
    judge = wl.VerifyJudge(tmp_path, "abc")
    req = [("cli", ("verify", "--suite", "all"))]
    assert judge(req, [(0, out)]) == (wl.MIN_CHECKS, 0)
    assert judge(req, [(0, out)]) == (wl.MIN_CHECKS, 0)
    assert judge(req, [(0, out.replace("check0 ", "check0  "))])[1] == wl.MIN_CHECKS
    short = "".join(checks.splitlines(True)[:3]) + "suite all: PASS (3/3 checks)\n"
    assert wl.VerifyJudge(tmp_path, "def")(req, [(0, short)])[1] == wl.MIN_CHECKS
    failing = out.replace("ok   check5", "FAIL check5").replace("PASS (36", "FAIL (35")
    assert wl.VerifyJudge(tmp_path, "ghi")(req, [(1, failing)])[1] == wl.MIN_CHECKS
