"""fermirw benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload sweep-analytic --seed 1 --seconds 15 \
        --trace 0

Run from the root of a checkout; the package is imported from that
checkout's ``src``.  A closed loop with one client runs rows back to back
until ``--seconds`` of row time have passed and at least MIN_ROWS rows are
done (sweep workloads finish their last slice).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` a fixed block of rows runs under span
wrappers and the JSON holds the per-layer metrics instead.  Timed row
times are scaled to a reference host speed by a calibration loop run
between rows (see bench/calibrate.py), since the shared host's speed
changes within seconds, and rows_per_s is the median over throughput
windows.  Every row is checked against closed-form references outside
the timed region, and a few rows are checked field for field against
``fermirw.cli``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import numpy as np

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep-analytic", "sweep-tabulated", "scattered-events")
# At least ten rows beyond p90.
MIN_ROWS = 110
SETUP_SAMPLES = 5
FAILED_SHOWN = 20
# Warm-up rows: both models' first slices, one row of each kind on the
# table (its rows are slow), one event per model and then some.
WARM_ROWS = {"sweep-analytic": 24, "sweep-tabulated": 3,
             "scattered-events": 8}
# Units (slices or events) in the traced block, and again in the untraced
# block it is compared with for trace.overhead_frac.
TRACE_UNITS = {"sweep-analytic": 8, "sweep-tabulated": 2,
               "scattered-events": 96}
# Row time between two runs of the calibration loop (bench/calibrate.py).
SCALE_S = 0.25
# Units per throughput window: rows_per_s is the median window rate, so
# a burst of load from elsewhere on the host moves a few windows, not the
# result.  Ten analytic slices hold each model's five tau strata once,
# forty events each model ten times; a table slice is about four seconds.
WINDOW_UNITS = {"sweep-analytic": 10, "sweep-tabulated": 1,
                "scattered-events": 40}


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_fermirw() -> None:
    if not (SRC / "fermirw" / "__init__.py").is_file():
        fail(f"no fermirw package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fermirw
    if Path(fermirw.__file__).resolve().parent != SRC / "fermirw":
        fail(f"imported fermirw from {fermirw.__file__}, not {SRC}")


def setup_samples(workload: str, table: Path | None) -> list[list[float]]:
    """[import_s, build_s] from fresh interpreters, SETUP_SAMPLES times.

    Each sample is scaled to the reference host speed by the mean of the
    reference imports' times just before and just after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    if table is not None:
        argv.append(str(table))
    out = []
    ref_s = [calibrate.import_s(), calibrate.import_s()]  # first is cold
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        ref_s.append(calibrate.import_s())
        scale = calibrate.IMPORT_REFERENCE_S / statistics.fmean(ref_s[-2:])
        out.append([v * scale for v in
                    json.loads(proc.stdout.strip().splitlines()[-1])])
    return out


def run_rows(rows, cosmos, cfg, wl, tracer=None) -> None:
    for i, row in enumerate(rows):
        if tracer is None:
            wl.execute(row, cosmos, cfg)
            continue
        tracer.row, tracer.row_model = i, row.model
        with tracer.span(f"row.{row.kind}"):
            wl.execute(row, cosmos, cfg)


def check_rows(rows, cosmos, cfg, ref, wl) -> None:
    for row in rows:
        if not row.error:
            row.error = "; ".join(wl.check(row, cosmos, cfg, ref))


def report_failures(failed, total: int) -> None:
    for r in failed:
        print(f"FAILED {r.kind} {r.model} tau={r.tau!r} sigma*={r.sigma!r} "
              f"x={r.x!r}: {r.error}")
    if total > len(failed):
        print(f"... {total - len(failed)} more failed rows")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_fermirw()
    import workloads as wl
    from setup_probe import build_cosmologies
    from fermirw.numerics import DEFAULT_CONFIG, table_safe_config

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        work = Path(tmp)
        table = None
        if args.workload == "sweep-tabulated":
            table = work / "matterlike.csv"
            wl.write_table(table)
        setup = setup_samples(args.workload, table)
        cosmos = build_cosmologies(args.workload,
                                   str(table) if table else None)
        cfg = (table_safe_config(DEFAULT_CONFIG) if table is not None
               else DEFAULT_CONFIG)
        ref = wl.oracles()

        warm = []
        warm_units = wl.units(args.workload, args.seed, ref, warm=True)
        while len(warm) < WARM_ROWS[args.workload]:
            warm += next(warm_units)
        run_rows(warm[:WARM_ROWS[args.workload]], cosmos, cfg, wl)
        calibrate.loop_ms()  # its first run is slower: warm it too

        units = wl.units(args.workload, args.seed, ref)
        if args.trace:
            result = traced(args, units, cosmos, cfg, ref, wl, setup)
        else:
            result = timed(args, units, cosmos, cfg, ref, wl, setup, table,
                           work)
    print(json.dumps(result))
    return 0


def timed(args, units, cosmos, cfg, ref, wl, setup, table, work) -> dict:
    # Rows are checked unit by unit and then dropped, so memory does not
    # grow with the number of rows a faster program completes; only their
    # times stay.  The calibration loop runs after every SCALE_S of row time
    # and the mean of its times before and after scales those rows to the
    # reference host, since the host's speed can change within a second.
    ms = array("d")         # row times at the reference host speed
    window = array("q")     # throughput window of each row
    ok = array("b")         # row completed without raising
    block = array("q")      # row ns since the last calibration
    busy_ns = n_failed = n_units = 0
    loop_ms = [calibrate.loop_ms()]
    failed = []
    picks = {}

    def scale_block():
        loop_ms.append(calibrate.loop_ms())
        scale = calibrate.REFERENCE_MS / statistics.fmean(loop_ms[-2:])
        ms.extend(ns * scale / 1e6 for ns in block)
        del block[:]

    while busy_ns < args.seconds * 1e9 or len(ok) < MIN_ROWS:
        unit = next(units)
        for r in unit:
            wl.execute(r, cosmos, cfg)
            busy_ns += r.ns
            block.append(r.ns)
            window.append(n_units // WINDOW_UNITS[args.workload])
            ok.append(not r.error)
            if sum(block) >= SCALE_S * 1e9:
                scale_block()
        n_units += 1
        check_rows(unit, cosmos, cfg, ref, wl)
        for r in unit:
            if not r.error:
                picks.setdefault((r.kind, r.model), r)
            elif n_failed < FAILED_SHOWN:
                failed.append(r)
            n_failed += bool(r.error)
    if block:
        scale_block()
    win_done = np.bincount(window, weights=ok)
    rates = win_done / (np.bincount(window, weights=ms) / 1e3)
    # CLI parity on the first passing row of each kind and model.
    mismatches = wl.cli_parity(list(picks.values()), table, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_failures(failed, n_failed)
    for m in mismatches:
        print(f"CLI PARITY {m}")

    p50, p90 = np.percentile(np.frombuffer(ms), [50, 90])
    print(f"{args.workload} seed={args.seed}: {len(ms)} rows, {n_failed} "
          f"failed, {int(np.sum(np.frombuffer(ms) > p90))} beyond p90; "
          f"{len(mismatches)} CLI parity mismatches; {len(rates)} windows, "
          f"calibration loop {min(loop_ms):.3f}-{max(loop_ms):.3f} ms "
          f"(median {statistics.median(loop_ms):.3f}); unscaled "
          f"{sum(ok) / (busy_ns / 1e9):.6g} rows/s over the whole run")
    metrics = {
        "rows_per_s": (float(np.median(rates)), "rows/s"),
        "row_ms_p50": (float(p50), "ms"),
        "row_ms_p90": (float(p90), "ms"),
        "setup_s": (statistics.median(a + b for a, b in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((len(ms) - n_failed) / len(ms), "fraction"),
    }
    return {"correct": n_failed == 0 and not mismatches,
            "attempted": len(ms), "failed": n_failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced(args, units, cosmos, cfg, ref, wl, setup) -> dict:
    from spans import Tracer
    n = TRACE_UNITS[args.workload]
    block = [r for _ in range(n) for r in next(units)]
    compare = [r for _ in range(n) for r in next(units)]

    tracer = Tracer()
    traced_cosmos = {k: tracer.traced_cosmology(c) for k, c in cosmos.items()}
    with tracer.installed():
        run_rows(block, traced_cosmos, cfg, wl, tracer)
    run_rows(compare, cosmos, cfg, wl)
    rows = block + compare
    check_rows(rows, cosmos, cfg, ref, wl)
    failed = sum(bool(r.error) for r in rows)
    report_failures([r for r in rows if r.error][:FAILED_SHOWN], failed)

    traced_ms = sum(r.ns for r in block) / len(block)
    plain_ms = sum(r.ns for r in compare) / len(compare)
    metrics = tracer.per_row(len(block))
    metrics["cli.import_s"] = (statistics.median(a for a, _ in setup), "s")
    metrics["cosmology.model_build_s"] = (
        statistics.median(b for _, b in setup), "s")
    metrics["trace.overhead_frac"] = (traced_ms / plain_ms - 1.0, "fraction")
    name = f"trace-{args.workload}-seed{args.seed}"
    tracer.write(OUT / name, {"workload": args.workload, "seed": args.seed,
                              "rows": len(block),
                              "per_row": {k: v for k, (v, _) in
                                          metrics.items()}})
    print(f"{args.workload} seed={args.seed}: {len(block)} traced rows, "
          f"{len(compare)} untraced, {failed} failed; spans in "
          f"{OUT / name}.csv.gz")
    return {"correct": failed == 0, "attempted": len(rows), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
