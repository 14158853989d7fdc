"""Tiny-size smoke test of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import types

import pytest

import checks
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HARD_WITNESS = (12007, 0)
make_workload = workloads.make_workload


def tiny_workload(name: str, seed: int) -> workloads.Workload:
    full = make_workload(name, seed)
    if name == "scan-grid":
        return dataclasses.replace(full, calls=full.calls[:3], oracle_cells=((112, 10),))
    calls = sorted(full.calls, key=lambda c: c.cells[0])[:3]
    hard = [c for c in full.calls if c.cells[0] == HARD_WITNESS]
    return dataclasses.replace(full, calls=tuple(calls + hard))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run.workloads, "make_workload", tiny_workload)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_prints_every_metric_with_its_unit(tiny, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"]) for line in lines)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # The hard witness cell crashes today; it must show as failed, not vanish.
    assert result["failed"] == (result["attempted"] // 4 if name == "check-witness" else 0)


def corrupting(cli, edit):
    """A stand-in for k3cert.cli whose main prints what `edit` makes of the output."""
    def main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            with open(path, encoding="utf-8") as fh:
                text = edit(fh.read())
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(edit(out.getvalue()), end="")
        return rc
    return types.SimpleNamespace(main=main)


def witness_workload() -> workloads.Workload:
    """Two check-witness calls whose cells have a small (-2) witness."""
    full = make_workload("check-witness", 1)
    expected = checks.load_expected()["check-witness"]
    calls = [c for c in full.calls
             if c.cells[0] != HARD_WITNESS and expected["%d,%d" % c.cells[0]][1] == "witness"]
    return dataclasses.replace(full, calls=tuple(sorted(calls, key=lambda c: c.cells)[:2]))


def run_corrupted(tmp_path, workload: workloads.Workload, edit) -> run.Runner:
    program = run.import_program()
    program = {**program, "cli": corrupting(program["cli"], edit)}
    runner = run.Runner(program, workload, tmp_path)
    runner.run_pass()
    return runner


def edit_payload(change):
    def edit(text: str) -> str:
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


def test_untouched_outputs_pass(tmp_path):
    runner = run_corrupted(tmp_path, tiny_workload("check-clifford", 1), lambda text: text)
    assert runner.failed == 0 and runner.correct


def test_corrupted_witness_counts_as_failed(tmp_path):
    def shift_witness(payload):
        if payload["minus_two"]["m"] is not None:
            payload["minus_two"]["m"] += 1
    runner = run_corrupted(tmp_path, witness_workload(), edit_payload(shift_witness))
    assert runner.reasons == {"witness does not evaluate to -1": 2}
    assert not runner.correct


def test_corrupted_verdict_counts_as_failed(tmp_path):
    def lower_minimum(payload):
        payload["clifford"]["min_value"] -= 1
    runner = run_corrupted(tmp_path, tiny_workload("check-clifford", 1),
                           edit_payload(lower_minimum))
    assert runner.failed == runner.attempted
    assert set(runner.reasons) == {"verdict differs from expected"}


def test_new_crash_is_not_correct(tmp_path):
    workload = tiny_workload("check-clifford", 1)
    victim = workload.calls[0].argv
    cli = run.import_program()["cli"]

    def main(argv):
        if tuple(argv) == victim:
            raise RuntimeError("internal error: extracted witness failed re-evaluation")
        return cli.main(argv)
    runner = run.Runner({**run.import_program(), "cli": types.SimpleNamespace(main=main)},
                        workload, tmp_path)
    runner.run_pass()
    assert runner.reasons == {"raised": 1}
    assert not runner.correct


def test_corrupted_scan_row_counts_as_failed(tmp_path):
    runner = run_corrupted(tmp_path, tiny_workload("scan-grid", 1),
                           lambda text: text.replace("theorem_applies", "hypotheses_fail", 1))
    assert set(runner.reasons) == {"row differs from expected"}
    assert not runner.correct
