import csv
import io
import json
import os
import subprocess
import sys

import pytest

from k3cert import cli, lattice
from k3cert.certify import Certificate, build_certificate
from k3cert.cli import (
    CSV_COLUMNS,
    certificate_to_dict,
    main,
    rows_to_csv,
    run_scan,
    scan_json,
    scan_row,
)
from k3cert.clifford import CliffordReport


def test_check_theorem_applies_exit_zero(capsys):
    assert main(["check", "--g", "19", "--s", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conclusion"] == "theorem_applies"
    assert payload["gamma_E"] == "7/1"
    assert payload["gap_lower_bound"] == "2/1"
    assert payload["minus_two"]["modulus"] == 3
    assert payload["clifford"]["passed"] is True
    assert payload["reasons"] == []


def test_check_json_field_list(capsys):
    from math import gcd

    main(["check", "--g", "14", "--s", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "g", "s", "d", "regime", "lemma21_ok", "square_zero_free",
        "minus_two", "clifford", "gamma1", "gamma_E", "gap_lower_bound",
        "expected_dim", "lemma31_square", "h0_H_restricted",
        "conclusion", "reasons",
    }
    for key in ("gamma_E", "gap_lower_bound"):
        num, den = map(int, payload[key].split("/"))
        assert den >= 1 and gcd(abs(num), den) == 1


@pytest.mark.parametrize("cell", [(14, 1), (19, 1), (2, -4), (13, 0)],
                         ids=["witness", "mod_scan", "empty_region", "degenerate"])
def test_check_json_keys_follow_the_record_fields(cell, capsys):
    main(["check", "--g", str(cell[0]), "--s", str(cell[1]), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    cert = build_certificate(*cell)
    kind = {(14, 1): cert.minus_two is not None and cert.minus_two.witness is not None,
            (19, 1): cert.minus_two is not None and cert.minus_two.modulus is not None,
            (2, -4): cert.clifford is not None and cert.clifford.argmin is None,
            (13, 0): cert.minus_two is None}
    assert kind[cell]
    assert list(payload) == list(Certificate._fields)
    if payload["clifford"] is not None:
        assert list(payload["clifford"]) == list(CliffordReport._fields)
    if payload["minus_two"] is not None:
        assert list(payload["minus_two"]) == ["status", "method", "m", "n", "modulus"]


def test_check_hypotheses_fail_exit_one(capsys):
    assert main(["check", "--g", "14", "--s", "1"]) == 1
    out = capsys.readouterr().out
    assert "hypotheses_fail" in out


def test_check_text_format(capsys):
    assert main(["check", "--g", "16", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "regime = relaxed" in out
    assert "conclusion = theorem_applies" in out
    # an empty Clifford region passes vacuously
    assert main(["check", "--g", "2", "--s", "40"]) == 1
    assert "  clifford = empty region, target 0 -> pass (vacuous)\n" in capsys.readouterr().out


def test_check_malformed_argument_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--g", "x", "--s", "1"])
    assert exc.value.code == 2


def test_check_out_of_domain_genus(capsys):
    assert main(["check", "--g", "1", "--s", "0"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_internal_value_error_is_not_a_usage_error(monkeypatch, fmt):
    # only g < 2 and the JSON digit limit exit 2; an engine fault propagates
    def broken(f, t):
        raise ValueError("broken engine")
    monkeypatch.setattr(lattice, "represents", broken)
    with pytest.raises(ValueError, match="broken engine"):
        main(["check", "--g", "19", "--s", "1", "--format", fmt])


def test_check_huge_witness_2399_4(capsys):
    # a 14,779-bit witness, past the int-to-str digit limit
    assert main(["check", "--g", "2399", "--s", "4"]) == 1
    out = capsys.readouterr().out
    assert ("  minus_two = Witness(<14779-bit integer>, <14779-bit integer>) [pell_search]\n"
            in out)
    assert ("    reason: a (-2)-class exists at (m, n) = "
            "(<14779-bit integer>, <14779-bit integer>)\n" in out)
    # JSON carries the exact witness, which json.dumps refuses to write
    assert main(["check", "--g", "2399", "--s", "4", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit")


def test_scan_huge_witness_2399_4(capsys):
    assert main(["scan", "--g-min", "2399", "--g-max", "2399", "--s-min", "4", "--s-max", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "2399,4,2395,strong,true,true,pell_search,false,1199,2391/2,7/2,-27,hypotheses_fail"]


def test_scan_csv_stdout_and_roundtrip(capsys):
    assert main(["scan", "--g-min", "12", "--g-max", "24", "--s-min", "-1", "--s-max", "2"]) == 0
    captured = capsys.readouterr()
    expected = [scan_row(build_certificate(g, s))
                for g in range(12, 25) for s in range(-1, 3)]
    assert captured.out == rows_to_csv(expected)
    assert "theorem_applies" in captured.err


def test_scan_row_matches_certificate():
    cert = build_certificate(19, 1)
    row = dict(zip(CSV_COLUMNS, scan_row(cert)))
    assert (row["g"], row["s"], row["d"]) == (19, 1, 18)
    assert row["regime"] == "strong"
    assert row["minus_two_method"] == "mod_scan"
    assert row["clifford_pass"] is True
    assert row["gamma_E"] == "7/1" and row["gap"] == "2/1"
    assert row["conclusion"] == "theorem_applies"


@pytest.mark.parametrize("cell", [(14, 1), (19, 1), (13, 0), (12, 0)],
                         ids=["witness", "mod_scan", "degenerate", "outside"])
def test_csv_writes_true_false_exactly_where_the_row_holds_bools(cell):
    cert = build_certificate(*cell)
    kind = {(14, 1): cert.minus_two is not None and cert.minus_two.witness is not None,
            (19, 1): cert.minus_two is not None and cert.minus_two.modulus is not None,
            (13, 0): cert.minus_two is None,
            (12, 0): cert.regime == "outside" and cert.minus_two is not None}
    assert kind[cell]
    row = scan_row(cert)
    header, line = rows_to_csv([row]).splitlines()
    assert header.split(",") == list(CSV_COLUMNS)
    texts = line.split(",")
    assert len(row) == len(texts) == len(CSV_COLUMNS)
    for name, value, text in zip(CSV_COLUMNS, row, texts):
        if type(value) is bool:
            assert text == ("true" if value else "false"), name
        else:
            assert text == str(value) and text not in ("true", "false"), name


def test_rows_to_csv_matches_csv_writer():
    # csv.writer is the oracle: it quotes a value only where one needs it,
    # and rows_to_csv writes each row with one format and quotes nothing
    rows, _ = run_scan(12, 20, -1, 10)
    column = dict(zip(CSV_COLUMNS, zip(*rows)))
    assert set(column["minus_two_method"]) == {"", "mod_scan", "pell_search"}
    assert set(column["regime"]) == {"strong", "relaxed", "outside"}
    assert min(column["s"]) < 0
    halves = column["gamma_E"] + column["gap"]
    assert {text.split("/")[1] for text in halves} == {"1", "2"}
    assert any(text.startswith("-") for text in halves)
    for sample in (rows, []):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([("true" if v else "false") if type(v) is bool else v for v in row]
                         for row in sample)
        assert rows_to_csv(sample) == buf.getvalue()


def test_scan_row_agrees_with_certificate_dict():
    # the CSV row schema and the JSON certificate schema read the same values;
    # the band has a witness cell (14, 1), mod_scan cells, degenerate-discriminant
    # cells with an empty method, and outside-regime cells
    cells = [(g, s) for g in range(12, 21) for s in range(-1, 3)]
    methods = set()
    regimes = set()
    for g, s in cells:
        cert = build_certificate(g, s)
        assert len(scan_row(cert)) == len(CSV_COLUMNS)
        row = dict(zip(CSV_COLUMNS, scan_row(cert)))
        full = certificate_to_dict(cert)
        for key in ("g", "s", "d", "regime", "lemma21_ok", "square_zero_free", "gamma1",
                    "gamma_E", "expected_dim", "conclusion"):
            assert row[key] == full[key] and type(row[key]) is type(full[key]), (g, s, key)
        assert row["gap"] == full["gap_lower_bound"]
        mt = full["minus_two"]
        assert row["minus_two_method"] == (mt["method"] if mt is not None else "")
        cl = full["clifford"]
        assert row["clifford_pass"] is (cl is not None and cl["passed"])
        methods.add(row["minus_two_method"])
        regimes.add(row["regime"])
        if (g, s) == (14, 1):
            assert mt["status"] == "witness" and mt["method"] == "pell_search"
    assert {"mod_scan", "pell_search", ""} <= methods
    assert "outside" in regimes


def test_scan_csv_file_output(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    out.write_bytes(b"an older, longer file\n" * 1000)  # replaced, not appended to
    assert main(["scan", "--g-min", "12", "--g-max", "16", "--s-min", "-1", "--s-max", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert b"\r" not in data  # LF line endings
    text = data.decode("utf-8")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert text == rows_to_csv(run_scan(12, 16, -1, 0)[0])


def test_scan_out_unwritable_exits_two_before_any_cell(tmp_path, monkeypatch, capsys):
    def fail(g, s):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(cli, "build_certificate", fail)
    out = tmp_path / "missing" / "rows.csv"
    assert main(["scan", "--g-min", "12", "--g-max", "13", "--s-min", "-1", "--s-max", "0",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_failed_scan_leaves_the_out_file_as_it_was(tmp_path, monkeypatch, capsys):
    def fail(g, s):
        raise RuntimeError("internal error: a cell failed")
    monkeypatch.setattr(cli, "build_certificate", fail)
    out = tmp_path / "rows.csv"
    out.write_bytes(b"g,s\n12,-1\n")
    with pytest.raises(RuntimeError, match="a cell failed"):
        main(["scan", "--g-min", "12", "--g-max", "13", "--s-min", "-1", "--s-max", "0",
              "--out", str(out)])
    assert out.read_bytes() == b"g,s\n12,-1\n"
    assert capsys.readouterr().out == ""


def test_scan_out_to_a_device(capsys):
    # a device cannot be truncated; the scan writes to it all the same
    assert main(["scan", "--g-min", "12", "--g-max", "13", "--s-min", "-1", "--s-max", "0",
                 "--out", os.devnull]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scan: 4 cells")


def test_scan_json_payload(capsys):
    assert main(["scan", "--g-min", "18", "--g-max", "20", "--s-min", "1", "--s-max", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {row["g"] for row in payload["rows"]} == {18, 19, 20}
    summary = payload["summary"]
    assert summary["cells"] == 3
    assert summary["theorem_applies"] >= 1
    assert "/" in summary["max_gap"]


@pytest.mark.parametrize("band", [(5, 9, -1, 3), (12, 40, -1, 10)], ids=["empty", "witness"])
def test_scan_json_matches_indented_dumps(band):
    rows, summary = run_scan(*band)
    # the empty scan, and a band with witness rows ((14, 1) among them)
    decisions = [build_certificate(g, s).minus_two for g, s, *_ in rows]
    witnesses = [dec for dec in decisions if dec is not None and dec.witness]
    assert bool(witnesses) is bool(rows)
    payload = {"rows": [dict(zip(CSV_COLUMNS, row)) for row in rows], "summary": summary}
    assert scan_json(rows, summary) == json.dumps(payload, indent=2) + "\n"


def test_scan_empty_admissible_set(capsys):
    assert main(["scan", "--g-min", "5", "--g-max", "9", "--s-min", "-1", "--s-max", "3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_scan_invalid_ranges_exit_two(capsys):
    assert main(["scan", "--g-min", "20", "--g-max", "12", "--s-min", "-1", "--s-max", "0"]) == 2
    assert main(["scan", "--g-min", "12", "--g-max", "20", "--s-min", "-2", "--s-max", "0"]) == 2
    capsys.readouterr()


def test_scan_summary_counts():
    gap = CSV_COLUMNS.index("gap")
    rows, summary = run_scan(19, 19, -1, 1)
    assert summary["cells"] == 3
    assert summary["max_gap"] == "2/1"
    assert summary["max_gap_at"] == {"g": 19, "s": 1}
    # gaps 2/1, 3/2, 2/1: the first of the tied maxima is reported
    rows, summary = run_scan(19, 21, 1, 1)
    assert [r[gap] for r in rows] == ["2/1", "3/2", "2/1"]
    assert summary["theorem_applies"] == 2
    assert summary["max_gap"] == "2/1"
    assert summary["max_gap_at"] == {"g": 19, "s": 1}
    assert run_scan(5, 9, -1, 3) == ([], {"cells": 0, "theorem_applies": 0,
                                          "max_gap": None, "max_gap_at": None})


def test_scan_summary_maximum_wins_by_a_half():
    # gaps 1/1, 3/2, 1/1: the maximum is ahead of the cells before and after
    # it by 1/2 only, so a running maximum of whole gaps, not of 2 * gap,
    # floors 3/2 to 1 and reports the first cell
    gap = CSV_COLUMNS.index("gap")
    rows, summary = run_scan(20, 22, 0, 0)
    assert [r[gap] for r in rows] == ["1/1", "3/2", "1/1"]
    assert summary["max_gap"] == "3/2"
    assert summary["max_gap_at"] == {"g": 21, "s": 0}


def test_form_obstructed(capsys):
    assert main(["form", "--a", "3", "--b", "12", "--c", "12", "--target", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "ObstructedMod(3)"


def test_form_zero_target_witness(capsys):
    assert main(["form", "--a", "6", "--b", "24", "--c", "18", "--target", "0"]) == 0
    assert capsys.readouterr().out.strip() == "Witness(-1, 1)"
    # the zero test is no decision method
    assert main(["form", "--a", "6", "--b", "24", "--c", "18", "--target", "0",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "witness", "method": None, "m": -1, "n": 1, "modulus": None}


def test_form_zero_target_none(capsys):
    assert main(["form", "--a", "6", "--b", "28", "--c", "26", "--target", "0"]) == 0
    assert capsys.readouterr().out.strip() == "NoneProved"


def test_form_witness(capsys):
    assert main(["form", "--a", "3", "--b", "7", "--c", "3", "--target", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "Witness(1, -1)"


def test_form_huge_witness(capsys):
    # the (-2) form of (g, s) = (2399, 4)
    assert main(["form", "--a", "3", "--b", "2395", "--c", "2398", "--target", "-1"]) == 0
    assert capsys.readouterr().out == "Witness(<14779-bit integer>, <14779-bit integer>)\n"


def test_form_json_huge_witness(capsys):
    # the (-2) form of (2399, 4): JSON carries the exact 14,779-bit witness
    limit = sys.get_int_max_str_digits()
    assert main(["form", "--a", "3", "--b", "2395", "--c", "2398", "--target", "-1",
                 "--format", "json"]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert payload["status"] == "witness" and payload["method"] == "pell_search"
    m, n = payload["m"], payload["n"]
    assert abs(m).bit_length() == abs(n).bit_length() == 14779
    assert 3 * m * m + 2395 * m * n + 2398 * n * n == -1


def test_form_json(capsys):
    assert main(["form", "--a", "3", "--b", "7", "--c", "3", "--target", "-1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "witness"
    assert (payload["m"], payload["n"]) == (1, -1)


def test_form_unsupported_target_exits_two(capsys):
    assert main(["form", "--a", "3", "--b", "7", "--c", "3", "--target", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_form_out_of_domain_exits_two(capsys):
    # positive definite, no modular obstruction for t = 2: not decidable here
    assert main(["form", "--a", "1", "--b", "0", "--c", "1", "--target", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_scan_golden_rows(capsys):
    # frozen rows guard the column order and value rendering
    assert main(["scan", "--g-min", "16", "--g-max", "19", "--s-min", "1", "--s-max", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "g,s,d,regime,lemma21_ok,square_zero_free,minus_two_method,clifford_pass,"
        "gamma1,gamma_E,gap,expected_dim,conclusion",
        "16,1,15,relaxed,true,true,mod_scan,true,7,11/2,3/2,-15,theorem_applies",
        "17,1,16,outside,false,false,,false,8,6/1,2/1,-15,hypotheses_fail",
        "18,1,17,strong,true,true,mod_scan,true,8,13/2,3/2,-15,theorem_applies",
        "19,1,18,strong,true,true,mod_scan,true,9,7/1,2/1,-15,theorem_applies",
    ]


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "k3cert", "check", "--g", "19", "--s", "1", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["conclusion"] == "theorem_applies"
    proc = subprocess.run(
        [sys.executable, "-m", "k3cert", "check", "--g", "14", "--s", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 1


def test_cli_import_starts_no_process_machinery():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, k3cert.cli; "
         "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
