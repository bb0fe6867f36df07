"""Smoke test of the benchmark itself: python3 -m pytest bench -q

Runs every workload briefly, traced and untraced, and checks the output
schema and metric names against BENCHMARK.json.  Also checks that inputs
depend only on the seed, that the result checks reject wrong answers, and
that the benchmark fails cleanly when the package sources are missing.
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and isinstance(SPEC["run_seconds"], int)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert set(run.PREDICTS) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    assert all(m["value"] != 0 for m in result["metrics"].values())
    info = json.loads(info_line)["info"]
    assert info["src_lines"] > 0 and info["python"] and len(info["digest"]) == 16


def test_inputs_depend_only_on_the_seed(tmp_path):
    for wl in (workloads.Arith(), workloads.Enumerate(), workloads.CliMix(str(ROOT / "src"))):
        first = wl.build(random.Random(11), str(tmp_path))
        assert first == wl.build(random.Random(11), str(tmp_path))
        assert first != wl.build(random.Random(12), str(tmp_path))


def test_checks_reject_wrong_results():
    a = (2, 5)
    assert checks.check_successor(a, (1, 2))
    assert not checks.check_successor(a, (3, 7))  # a neighbor, but not the greatest
    assert checks.check_neighbor(a, (4, 9), (3, 7))
    assert not checks.check_neighbor(a, (4, 9), (5, 12))  # 3/7 fits and is greater
    assert checks.check_path((1, 2), checks.INF, [(1, 2), (1, 1), checks.INF])
    assert not checks.check_path((1, 2), checks.INF, [(1, 2), (2, 1), checks.INF])
    # valid edge paths, but not the shortest
    assert not checks.check_path((1, 2), checks.INF, [(1, 2), (2, 3), (1, 1), checks.INF])
    assert not checks.check_path((0, 1), (1, 1), [(0, 1), (1, 2), (1, 1)])
    triple = ((1, 3), (1, 6), (-1, 2))
    row = (Fraction(0), 1, 0, (-2, 5), 1, True, True)
    args = (triple, Fraction(0), triple, [row], checks.VERDICT_TORUS_BUNDLE)
    assert checks.check_analysis(*args)
    assert not checks.check_analysis(triple, Fraction(0), triple, [row[:4] + (2,) + row[5:]],
                                     checks.VERDICT_TORUS_BUNDLE)
    curves = [(0, 1, 2)]
    solutions = [(a, b, a + b) for a in range(4) for b in range(4 - a)]
    assert checks.check_weight_solutions(3, curves, 0, 3, solutions)
    assert not checks.check_weight_solutions(3, curves, 0, 3, [(1, 1, 3)])
    assert not checks.check_weight_solutions(3, curves, 0, 3, solutions[:-1])
    assert not checks.check_weight_solutions(3, curves, 0, 3, [])
    assert not checks.check_multicurves((1, 1, 1), False, [(1, 1, 1, 0, 0, 1)])
    assert checks.check_multicurves((1, 1, 1), False, [(1, 1, 1, 0, 0, 0)])
    assert not checks.check_multicurves((1, 1, 1), False, [])
    assert not checks.check_multicurves((1, 1, 1), True, [(1, 1, 1, 0, 0, 0)])


def test_counts_match_a_plain_search():
    def twice_b(k, n):  # 2 b_i for arc counts n = (n12, n13, n23)
        return [2 * ki - n[i] - n[j] for ki, (i, j) in zip(k, [(0, 1), (0, 2), (1, 2)])]

    for k in [(0, 0, 0), (1, 2, 3), (4, 1, 2), (3, 3, 3), (5, 0, 5)]:
        for allow in (False, True):
            found = [
                n for n in itertools.product(range(2 * max(k) + 1), repeat=3)
                if all(r >= 0 and r % 2 == 0 and (allow or r == 0) for r in twice_b(k, n))
            ]
            assert checks.multicurve_count(k, allow) == len(found), (k, allow)
    chain = ((0, 3, 1), (1, 3, 2))
    found = [w for w in itertools.product(range(1, 5), repeat=4)
             if checks.branch_ok(chain, w)]
    assert checks.weight_count(4, chain, 1, 4) == len(found)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "arith", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
