import json
import subprocess
import sys

import pytest

from k3cert.certify import build_certificate
from k3cert.cli import (
    CSV_COLUMNS,
    main,
    rows_from_csv,
    run_scan,
    scan_row,
    scan_summary,
)


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


def test_check_hypotheses_fail_exit_one(capsys):
    assert main(["check", "--g", "14", "--s", "1"]) == 1
    out = capsys.readouterr().out
    assert "hypotheses_fail" in out


def test_check_text_format(capsys):
    assert main(["check", "--g", "16", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "regime = relaxed" in out
    assert "conclusion = theorem_applies" in out


def test_check_malformed_argument_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--g", "x", "--s", "1"])
    assert exc.value.code == 2


def test_check_out_of_domain_genus(capsys):
    assert main(["check", "--g", "1", "--s", "0"]) == 2
    assert "error" in capsys.readouterr().err


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
    rows = rows_from_csv(captured.out)
    expected = [scan_row(build_certificate(g, s))
                for g in range(12, 25) for s in range(-1, 3)]
    assert rows == expected
    assert "theorem_applies" in captured.err


def test_scan_row_matches_certificate():
    cert = build_certificate(19, 1)
    row = scan_row(cert)
    assert (row.g, row.s, row.d) == (19, 1, 18)
    assert row.regime == "strong"
    assert row.minus_two_method == "mod_scan"
    assert row.clifford_pass is True
    assert row.gamma_E == "7/1" and row.gap == "2/1"
    assert row.conclusion == "theorem_applies"


def test_scan_csv_file_output(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["scan", "--g-min", "12", "--g-max", "16", "--s-min", "-1", "--s-max", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert b"\r" not in data  # LF line endings
    text = data.decode("utf-8")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert rows_from_csv(text) == run_scan(12, 16, -1, 0)


def test_scan_json_payload(capsys):
    assert main(["scan", "--g-min", "18", "--g-max", "20", "--s-min", "1", "--s-max", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {row["g"] for row in payload["rows"]} == {18, 19, 20}
    summary = payload["summary"]
    assert summary["cells"] == 3
    assert summary["theorem_applies"] >= 1
    assert "/" in summary["max_gap"]


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
    rows = run_scan(19, 19, -1, 1)
    summary = scan_summary(rows)
    assert summary["cells"] == 3
    assert summary["max_gap"] == "2/1"
    assert summary["max_gap_at"] == {"g": 19, "s": 1}
    # gaps 2/1, 3/2, 2/1: the first of the tied maxima is reported
    rows = run_scan(19, 21, 1, 1)
    assert [r.gap for r in rows] == ["2/1", "3/2", "2/1"]
    summary = scan_summary(rows)
    assert summary["max_gap"] == "2/1"
    assert summary["max_gap_at"] == {"g": 19, "s": 1}
    assert scan_summary([])["max_gap"] is None


def test_form_obstructed(capsys):
    assert main(["form", "--a", "3", "--b", "12", "--c", "12", "--target", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "ObstructedMod(3)"


def test_form_zero_target_witness(capsys):
    assert main(["form", "--a", "6", "--b", "24", "--c", "18", "--target", "0"]) == 0
    assert capsys.readouterr().out.strip() == "Witness(-1, 1)"


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
