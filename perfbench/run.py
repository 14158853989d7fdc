#!/usr/bin/env python3
"""Benchmark of the k3cert command line, run in-process on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``scan-grid``, ``check-clifford`` and
``check-witness``.  Each run is one single-threaded process that calls
``k3cert.cli.main([...])`` with output captured, in whole passes over the
workload's calls, for at most ``--seconds`` seconds (at least one pass).
Every output is checked outside the timed region (checks.py); the last
line printed is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

Times are scaled to a reference host speed.  The host this runs on is
shared, and its speed drifts by 20% or more over tens of seconds, longer
than a run; CPU time drifts with it.  So after every call the runner times
reference_loop, a fixed pure-Python loop, and multiplies the call's time by
REFERENCE_LOOP_S / (median loop time over the calls within SCALE_WINDOW of
it).  Over six check-witness runs this cut the interquartile range of
call_p50_ms from 13% to 3% of the median, and of call_p90_ms from 9% to 5%.
The scale factors and the unscaled call time are printed above the JSON
line.

With ``--trace 0`` the metrics are end-to-end:

* ``cells_per_s`` (1/s): certificates completed per second of call time;
* ``call_p50_ms``, ``call_p90_ms`` (ms): latency of one CLI call, over every
  call of the run, failed ones included; a ``check`` call is one cell and a
  ``scan`` call one g-band;
* ``setup_s`` (s): interpreter start, ``import k3cert`` and workload
  generation, the median of SETUP_REPEATS fresh processes, scaled by
  reference_loop runs between them;
* ``peak_rss_mib`` (MiB): ``ru_maxrss`` of the benchmark process.

With ``--trace 1`` the run alternates untraced and traced passes over the
same calls and reports the per-layer metrics of tracer.py (medians over
traced passes, totals per pass), plus ``fail_share`` and
``trace.overhead_share``, the extra call time of a traced pass over the
untraced one before it.

A cell fails when its call raises, exits with an error code (2 for
``check``, anything but 0 for ``scan``), or its output fails a check.
``failed`` counts failed cells over the run, and ``fail_share`` (failed /
attempted) is printed above the JSON line.  It is not an end-to-end metric
because it is 0 on scan-grid and check-clifford, and a metric with a
regression bound needs a nonzero median.  ``correct`` is false when a cell
fails for any reason other than a crash that expected.json lists as known
(the check-witness cells whose witness text exceeds the interpreter's
default int/str digit limit); a new crash or a wrong output both make it
false.

Deliberately left unmeasured:

* the hard cell (100135, 2) takes 22-30 s per call, longer than a run;
* the K3CERT_SCAN_WORKERS process pool would need more processes than a
  2-core shared host can run steadily, so every run is single-threaded.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path

import checks
import workloads
from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "cells_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {**LAYER_METRICS, "fail_share": "ratio", "trace.overhead_share": "ratio"}
SETUP_REPEATS = 15
# Median time of reference_loop on the 2-core x86-64 host the benchmark was
# tuned on (Python 3.11).  It only sets the scale of the reported times.
REFERENCE_LOOP_S = 250e-6
SCALE_WINDOW = 20


def reference_loop() -> int:
    """A fixed pure-Python integer loop, timed after every call."""
    x = 0
    for i in range(3000):
        x = (x * 31 + i * i) % 1000003
    return x


def import_program() -> dict:
    """Import k3cert from the checkout's src/ and return its modules by name."""
    if not (SRC / "k3cert" / "cli.py").is_file():
        raise SystemExit(f"error: no k3cert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from k3cert import bqf, certify, cli, clifford, lattice
    return {"bqf": bqf, "lattice": lattice, "certify": certify,
            "clifford": clifford, "cli": cli}


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh processes that start the interpreter,
    import k3cert and generate the workload, scaled like the call times."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            f"import k3cert.cli, workloads; workloads.make_workload({name!r}, {seed})")
    argv = [sys.executable, "-c", code]
    times, loops = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        for _ in range(SETUP_REPEATS):  # host speed right after this process
            t0 = time.perf_counter()
            reference_loop()
            loops.append(time.perf_counter() - t0)
    return statistics.median(times) * REFERENCE_LOOP_S / statistics.median(loops)


def oracle_disagreements(program: dict, cells, letters) -> set:
    """Scan cells whose recorded Clifford verdict brute_force_min_f contradicts,
    on a box that holds the whole constraint region."""
    bad = set()
    for g, s in cells:
        d = g - s
        n_max = (d - 2) // isqrt(d * d - 12 * (g - 1)) + 1
        radius = max(n_max, d * (1 + n_max) // 6 + 1)
        report = program["clifford"].brute_force_min_f(program["lattice"].K3Config(g, s), radius)
        if report.passed != (letters[(g, s)] == checks.CLIFFORD_PASS):
            bad.add((g, s))
    return bad


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """Run ``cli.main(argv)`` with its output captured.  Returns the exit
    code (None when it raised), what it printed and its wall time."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), seconds


class Runner:
    """Issues the calls of one workload and checks what they print."""

    def __init__(self, program: dict, workload: workloads.Workload, out_dir: Path):
        self.cli = program["cli"]
        self.workload = workload
        self.out_path = out_dir / "scan.csv"
        expected = checks.load_expected()
        if workload.name == "scan-grid":
            table = expected["scan-grid"]
            self.letters = {(g, s): letter
                            for g, row in enumerate(table["rows"], table["g_min"])
                            for s, letter in enumerate(row, workloads.S_MIN)}
            bad = oracle_disagreements(program, workload.oracle_cells, self.letters)
            self.oracle_bad = {c: "brute-force oracle disagrees" for c in bad}
        else:
            table = expected[workload.name]
            self.expected = {cell: table[f"{cell[0]},{cell[1]}"]
                             for call in workload.calls for cell in call.cells}
        self.known_crashes = {tuple(map(int, key.split(",")))
                              for key in expected["known_crashes"].get(workload.name, [])}
        self.call_seconds: list[float] = []   # as measured
        self.loop_seconds: list[float] = []   # reference_loop after each call
        self.attempted = 0
        self.reasons: Counter[str] = Counter()
        self.unexpected: set[tuple[int, int]] = set()  # cells failed other than by a known crash

    def issue(self, call: workloads.Call) -> tuple[int | None, str, float]:
        """Run one call through the CLI.  Returns the exit code (None when
        it raised), the output (the CSV file for ``scan``) and the call's
        wall time."""
        argv = list(call.argv)
        scan = argv[0] == "scan"
        if scan:
            argv += ["--out", str(self.out_path)]
            self.out_path.unlink(missing_ok=True)
        rc, text, seconds = call_cli(self.cli, argv)
        if scan and self.out_path.exists():
            return rc, self.out_path.read_text(encoding="utf-8"), seconds
        return rc, text, seconds

    def run_call(self, call: workloads.Call) -> None:
        rc, text, seconds = self.issue(call)
        t0 = time.perf_counter()
        reference_loop()
        self.loop_seconds.append(time.perf_counter() - t0)
        self.call_seconds.append(seconds)
        self.attempted += len(call.cells)
        if call.argv[0] == "scan":
            failed = {c: r for c, r in self.oracle_bad.items() if c in call.cells}
            failed.update(checks.check_scan(call.cells, rc, text, self.letters))
        else:
            (cell,) = call.cells
            reason = checks.check_cell(cell, rc, text, self.expected[cell])
            failed = {} if reason is None else {cell: reason}
        for cell, reason in failed.items():
            self.reasons[reason] += 1
            if not (checks.is_crash(reason) and cell in self.known_crashes):
                self.unexpected.add(cell)

    def run_pass(self) -> None:
        for call in self.workload.calls:
            self.run_call(call)

    def scale_factors(self) -> list[float]:
        """Per call so far, the factor that scales its time to the reference
        host speed."""
        loops = self.loop_seconds
        return [REFERENCE_LOOP_S
                / statistics.median(loops[max(0, i - SCALE_WINDOW):i + SCALE_WINDOW + 1])
                for i in range(len(loops))]

    def scaled_seconds(self) -> list[float]:
        return [t * f for t, f in zip(self.call_seconds, self.scale_factors())]

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def correct(self) -> bool:
        return not self.unexpected


def run_passes(step, seconds: float) -> int:
    """Run `step` (one pass, or one untraced/traced pair) at least once and
    again while another would still end within `seconds`."""
    start = time.perf_counter()
    count = 0
    while True:
        t0 = time.perf_counter()
        step()
        count += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return count


def measure(runner: Runner, seconds: float) -> tuple[dict, int]:
    passes = run_passes(runner.run_pass, seconds)
    times = runner.scaled_seconds()
    done = runner.attempted - runner.failed
    return {
        "cells_per_s": done / sum(times),
        "call_p50_ms": statistics.median(times) * 1e3,
        "call_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, passes


def measure_traced(runner: Runner, program: dict, seconds: float) -> tuple[dict, int]:
    tracers: list[Tracer] = []

    def pair():
        runner.run_pass()
        tracer = Tracer(program)
        tracer.install()
        try:
            runner.run_pass()
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    run_passes(pair, seconds)
    n = len(runner.workload.calls)
    scaled, factors = runner.scaled_seconds(), runner.scale_factors()
    layers, overhead = [], []
    for i, tracer in enumerate(tracers):
        untraced, traced = slice(2 * i * n, (2 * i + 1) * n), slice((2 * i + 1) * n, (2 * i + 2) * n)
        overhead.append(sum(scaled[traced]) / sum(scaled[untraced]) - 1)
        layers.append(tracer.metrics(runner.workload.cells_per_pass,
                                     statistics.median(factors[traced])))
    metrics = {name: statistics.median(m[name] for m in layers) for name in LAYER_METRICS}
    metrics["trace.overhead_share"] = statistics.median(overhead)
    return metrics, 2 * len(tracers)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="k3cert benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = import_program()
    workload = workloads.make_workload(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(program, workload, out_dir)
        runner.issue(min(workload.calls, key=lambda c: c.cells[0]))  # warm-up, not counted
        if args.trace:
            values, passes = measure_traced(runner, program, args.seconds)
        else:
            values, passes = measure(runner, args.seconds)
            values["setup_s"] = setup_s
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    calls = len(runner.call_seconds)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes, {calls} calls, "
          f"{workload.cells_per_pass} cells per pass")
    values["fail_share"] = runner.failed / runner.attempted
    for name, unit in {**units, "fail_share": "ratio"}.items():
        print(f"  {name:34s} {values[name]:14.6g} {unit}")
    print(f"  failed {runner.failed} of {runner.attempted} cells: {dict(runner.reasons)}")
    factors = runner.scale_factors()
    print(f"  scale factors {min(factors):.3f} to {max(factors):.3f}, median "
          f"{statistics.median(factors):.3f}; unscaled call time {sum(runner.call_seconds):.3f} s")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
