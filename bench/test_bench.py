"""Self-test of the benchmark: schema, determinism, a second seed.

Not part of the package's test suite; run it from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
from setup_probe import build_cosmologies  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(
        ("sweep-analytic", "sweep-tabulated", "scattered-events"))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_timed_run_reports_every_metric_with_its_unit():
    result = bench("scattered-events", 3, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 110
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep-analytic", "scattered-events"])
def test_traced_counts_repeat_exactly_for_one_seed(workload):
    first = bench(workload, 4, trace=1)
    second = bench(workload, 4, trace=1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [k for k, v in first["metrics"].items()
              if v["unit"] == "count/row" or k.endswith("repeat_frac")]
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


@pytest.mark.parametrize("workload", ["sweep-analytic", "scattered-events"])
def test_second_seed_passes_every_check(workload):
    result = bench(workload, 2, trace=0)
    assert result["correct"] and result["failed"] == 0


def test_second_seed_tabulated_slice_passes_every_check(tmp_path):
    table = tmp_path / "table.csv"
    wl.write_table(table)
    cosmos = build_cosmologies("sweep-tabulated", str(table))
    from fermirw.numerics import DEFAULT_CONFIG, table_safe_config
    cfg = table_safe_config(DEFAULT_CONFIG)
    ref = wl.oracles()
    rows = next(wl.units("sweep-tabulated", 2, ref))
    for row in rows:
        wl.execute(row, cosmos, cfg)
        assert not row.error, row.error
        assert wl.check(row, cosmos, cfg, ref) == []
    # Rows interleave the three kinds: the first three cover all of them.
    assert wl.cli_parity(rows[:3], table, tmp_path) == []


def test_inputs_depend_only_on_the_seed():
    ref = wl.oracles()

    def draw(seed):
        units = wl.units("scattered-events", seed, ref)
        return [(r.model, r.tau, r.sigma, r.x, r.chi)
                for _ in range(8) for r in next(units)]

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    warm = next(wl.units("sweep-analytic", 5, ref, warm=True))
    assert min(r.tau for r in warm) > wl.SWEEP_TAU[1]
