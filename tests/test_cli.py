import argparse
import csv
import io
import json
import os
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from k3cert import bqf, cli, lattice
from k3cert.bqf import DecisionStatus, RepDecision
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
from k3cert.lattice import DivisorClass, K3Config

from test_bqf import PINNED_CELLS, PINNED_LARGE


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


_TOP_USAGE = "usage: k3cert [-h] {check,scan,form} ...\n"
_CHECK_USAGE = "usage: k3cert check [-h] --g G --s S [--format {text,json}]\n"

HELP_AND_ERRORS = [
    (["-h"], 0, _TOP_USAGE + """
Exact certificates for curve/bundle numerics on K3-hosted curves.

positional arguments:
  {check,scan,form}
    check            build and print the certificate for one (g, s)
    scan             scan a (g, s) rectangle and emit one row per cell
    form             decide representability of a target by a raw form

options:
  -h, --help         show this help message and exit
""", ""),
    (["check", "-h"], 0, _CHECK_USAGE + """
options:
  -h, --help            show this help message and exit
  --g G                 genus (>= 2)
  --s S                 twist; degree is d = g - s
  --format {text,json}
""", ""),
    (["scan", "-h"], 0, """\
usage: k3cert scan [-h] --g-min G_MIN --g-max G_MAX --s-min S_MIN --s-max
                   S_MAX [--format {csv,json}] [--out OUT]

options:
  -h, --help           show this help message and exit
  --g-min G_MIN
  --g-max G_MAX
  --s-min S_MIN
  --s-max S_MAX
  --format {csv,json}
  --out OUT            write the table to this path
""", ""),
    (["form", "-h"], 0, """\
usage: k3cert form [-h] --a A --b B --c C --target TARGET
                   [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --a A
  --b B
  --c C
  --target TARGET
  --format {text,json}
""", ""),
    ([], 2, "", _TOP_USAGE + "k3cert: error: the following arguments are required: command\n"),
    (["chek"], 2, "", _TOP_USAGE + "k3cert: error: argument command: invalid choice: 'chek' "
                                   "(choose from 'check', 'scan', 'form')\n"),
    (["check", "--g", "2", "--s", "x"], 2, "",
     _CHECK_USAGE + "k3cert check: error: argument --s: invalid int value: 'x'\n"),
    (["check", "--g", "19", "--s", "1", "--bogus"], 2, "",
     _TOP_USAGE + "k3cert: error: unrecognized arguments: --bogus\n"),
]


# recorded on Python 3.11; argparse's wording and wrapping differ by version
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="text recorded on Python 3.11")
@pytest.mark.parametrize("argv, code, out, err", HELP_AND_ERRORS)
def test_help_and_usage_error_text(monkeypatch, capsys, argv, code, out, err):
    # the width is fixed: under pytest, sys.__stdout__ may be a terminal
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", [case[0] for case in HELP_AND_ERRORS])
def test_help_text_matches_the_stock_formatter(monkeypatch, capsys, columns, argv):
    # on any interpreter: the width build_parser passes gives the text that
    # argparse's HelpFormatter prints when it looks the width up itself
    monkeypatch.setenv("COLUMNS", columns)

    def outcome():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr()

    ours = outcome()
    monkeypatch.setattr(cli, "functools", types.SimpleNamespace(partial=lambda cls, **kw: cls),
                        raising=False)
    assert outcome() == ours


LAZY_ARGV = [case[0] for case in HELP_AND_ERRORS] + [
    ["scan"], ["form", "--a", "1"], ["check", "--g", "19", "--s", "1", "scan"],
    # an unknown option before the subcommand: check's own error
    ["-x", "check"],
    # a subcommand's name where argparse does not parse it: after "--", and
    # as the value of another subcommand's option
    ["--", "check", "--g", "19", "--s", "1"], ["form", "--a", "1", "--b", "scan"]]


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", LAZY_ARGV)
def test_lazy_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, columns, argv):
    # on any interpreter: main builds only the subcommand it parses, and says
    # what the parser with every subcommand says
    monkeypatch.setenv("COLUMNS", columns)

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    assert outcome(main) == outcome(cli.build_parser().parse_args)


@pytest.mark.parametrize("via", ["argv", "sys.argv"])
def test_a_check_call_builds_no_other_subcommand(monkeypatch, capsys, via):
    # neither an argument nor -h goes to the scan and form subparsers, and a
    # call constructs two ArgumentParsers, the top level's and its command's;
    # the parser with every subcommand constructs four
    progs, built = [], []
    add_argument, init = argparse.ArgumentParser.add_argument, argparse.ArgumentParser.__init__

    def spy(parser, *args, **kwargs):
        progs.append(parser.prog)
        return add_argument(parser, *args, **kwargs)

    def init_spy(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser.prog)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init_spy)
    argv = ["check", "--g", "19", "--s", "1"]
    if via == "sys.argv":
        monkeypatch.setattr(sys, "argv", ["k3cert", *argv])
        assert main() == 0
    else:
        assert main(argv) == 0
    assert "k3cert check" in progs
    assert not {"k3cert scan", "k3cert form"} & set(progs)
    assert built == ["k3cert", "k3cert check"]
    calls = {"scan": ["scan", "--g-min", "12", "--g-max", "12", "--s-min", "-1", "--s-max", "0"],
             "form": ["form", "--a", "3", "--b", "12", "--c", "12", "--target", "-1"]}
    for command, command_argv in calls.items():
        built.clear()
        assert main(command_argv) == 0
        assert built == ["k3cert", f"k3cert {command}"]
    built.clear()
    cli.build_parser()
    assert built == ["k3cert", "k3cert check", "k3cert scan", "k3cert form"]


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


def test_run_reports_an_internal_fault_with_exit_three(monkeypatch, capsys):
    # the console script's entry: the traceback, then one line, and exit 3,
    # which no verdict or usage error uses
    def broken(f, t):
        raise ValueError("broken engine")
    monkeypatch.setattr(lattice, "represents", broken)
    assert cli.run(["check", "--g", "19", "--s", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("ValueError: broken engine\ninternal error: broken engine\n")

    def failed(f, t):
        raise RuntimeError("internal error: extracted witness failed re-evaluation")
    monkeypatch.setattr(lattice, "represents", failed)
    assert cli.run(["check", "--g", "19", "--s", "1"]) == 3
    assert capsys.readouterr().err.endswith(
        "\ninternal error: extracted witness failed re-evaluation\n")
    # a failed write of the output, such as a closed pipe, is exit 3 too
    monkeypatch.undo()

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.run(["check", "--g", "19", "--s", "1"]) == 3
    assert capsys.readouterr().err.endswith("\ninternal error: [Errno 32] Broken pipe\n")
    monkeypatch.undo()
    # usage errors keep exit 2, argparse's through SystemExit
    assert cli.run(["check", "--g", "1", "--s", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["check", "--g", "x", "--s", "1"])
    assert exc.value.code == 2


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


# the pinned (-2) cells, the large pinned witnesses, and a band at g ~ 10^5,
# where some walks pass the switch to giant strides
DECISION_CELLS = ([cell for cell, *_ in PINNED_CELLS + PINNED_LARGE]
                  + [(g, s) for g in range(100000, 100020) for s in range(-1, 11)])


def test_scan_path_decides_as_represents():
    # a scan row takes the (-2) decision without its witness: the same status,
    # method and modulus as represents, and the row of the certificate
    statuses = set()
    for g, s in DECISION_CELLS:
        cert = build_certificate(g, s)
        (row,), twice_gap = cli._scan_genus(g, s, s)
        assert row == scan_row(cert) and twice_gap == 2 * cert.gap_lower_bound, (g, s)
        if cert.minus_two is not None:
            cfg = K3Config(g, s)
            dec = lattice._minus_two_genus(g)(cfg.d, cfg.delta, cfg.root)
            assert (dec.status, dec.modulus) == (cert.minus_two.status, cert.minus_two.modulus)
            statuses.add(dec.status)
    assert statuses == set(DecisionStatus)


def test_scan_rows_are_certificate_rows_past_every_edge():
    # s up to 2g reaches s > g (negative d and gamma_E), d <= 4 (a vacuous
    # Clifford step), the relaxed line g = 4s + 12, and Delta <= 0 or square
    seen = Counter()
    for g in range(12, 81):
        rows, summary = run_scan(g, g, -1, 2 * g)
        certs = [build_certificate(g, s) for s in range(-1, 2 * g + 1)]
        assert rows == [scan_row(cert) for cert in certs], g
        gaps = [cert.gap_lower_bound for cert in certs]
        top = max(gaps)
        assert summary["max_gap"] == cli.frac_str(top)
        assert summary["max_gap_at"] == {"g": g, "s": certs[gaps.index(top)].s}
        for cert in certs:
            delta = cert.d * cert.d - 12 * (g - 1)
            seen["negative d"] += cert.d < 0
            seen["d <= 4"] += cert.d <= 4 and cert.clifford is not None
            seen["relaxed"] += cert.regime == "relaxed"
            seen["delta <= 0"] += delta <= 0
            seen["delta square"] += delta > 0 and isqrt(delta) ** 2 == delta
    assert len(seen) == 5 and all(seen.values()), seen


def _certificate_scan(g: int, s_min: int, s_max: int) -> tuple[list[tuple], dict]:
    """run_scan(g, g, s_min, s_max), built from one certificate per cell."""
    certs = [build_certificate(g, s) for s in range(s_min, s_max + 1)]
    gaps = [cert.gap_lower_bound for cert in certs]
    top = max(gaps)
    return [scan_row(cert) for cert in certs], {
        "cells": len(certs),
        "theorem_applies": [cert.conclusion for cert in certs].count("theorem_applies"),
        "max_gap": cli.frac_str(top),
        "max_gap_at": {"g": g, "s": certs[gaps.index(top)].s},
    }


def test_scan_rows_at_the_api_edges():
    # run_scan takes s ranges that the CLI refuses, with s_min < -1, where
    # the gap may be negative and is checked from s = -1 on only; and single
    # s on the regime edges, the last strong s = (g - 14)/4 and the relaxed
    # line g = 4s + 12, where a range's two ends are one cell
    ranges = [(g, s_min, s_max) for g in range(12, 41)
              for s_min, s_max in ((-6, 3), (-6, -2), (-6, -1), (-2, -1))]
    ranges += [(g, (g - k) // 4, (g - k) // 4) for g in range(12, 121)
               for k in (14, 12) if (g - k) % 4 == 0 and g >= k]
    ranges += [(g, s, s + 1) for g in range(14, 121, 4) for s in ((g - 14) // 4,)]
    negative_gaps = 0
    for g, s_min, s_max in ranges:
        rows, summary = _certificate_scan(g, s_min, s_max)
        assert run_scan(g, g, s_min, s_max) == (rows, summary), (g, s_min, s_max)
        negative_gaps += sum(row[CSV_COLUMNS.index("gap")].startswith("-") for row in rows)
    assert negative_gaps > 0
    # whole rectangles with s_min < -1, a genus at a time
    rows, summary = run_scan(12, 40, -6, 3)
    assert rows == [row for g in range(12, 41) for row in _certificate_scan(g, -6, 3)[0]]
    assert summary["cells"] == 290 and summary["max_gap_at"] == {"g": 13, "s": 3}


def test_scan_builds_no_record_per_cell(monkeypatch):
    # a scan row is computed from ints: run_scan builds none of the records
    # a certificate holds, while build_certificate, under the same count,
    # does build them
    built = Counter()
    for cls, name in ((K3Config, "__init__"), (DivisorClass, "__init__"),
                      (RepDecision, "__new__"), (CliffordReport, "__new__"),
                      (Fraction, "__new__")):
        make = vars(cls)[name]

        def counted(*args, _make=make, _name=cls.__name__, **kwargs):
            built[_name] += 1
            return _make(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    rows, summary = run_scan(12, 600, -1, 10)
    assert len(rows) == 7068 and summary["max_gap"] == "13/2"
    assert built == Counter()
    build_certificate(19, 1)
    assert built["K3Config"] == built["CliffordReport"] == built["DivisorClass"] == 1


def test_scan_rows_past_the_switch(monkeypatch):
    # with the switch lowered, the half walks of t0's cycle hand over to the
    # giant strides, whose decision alone a row keeps: every row is that of
    # the certificate, built with the switch where it was, and the strides
    # settle hits and closed cycles without handing back to the walk
    expected = [scan_row(build_certificate(g, s)) for g in range(12, 400) for s in range(-1, 11)]
    giant, cycle_hit = bqf._giant, bqf._cycle_hit
    walks, strided = [], []

    def logged(*args):
        walked = len(walks)
        found = giant(*args)
        if len(walks) == walked:
            strided.append(found is None)
        return found
    monkeypatch.setattr(bqf, "_giant", logged)
    monkeypatch.setattr(bqf, "_cycle_hit", lambda *args: walks.append(args) or cycle_hit(*args))
    monkeypatch.setattr(bqf, "_SWITCH", 16)
    assert [row for g in range(12, 400) for row in cli._scan_genus(g, -1, 10)[0]] == expected
    assert strided.count(False) > 300 and strided.count(True) > 40


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
    def fail(g, s_min, s_max):
        raise AssertionError("a cell was computed")
    monkeypatch.setattr(cli, "_scan_genus", fail)
    out = tmp_path / "missing" / "rows.csv"
    assert main(["scan", "--g-min", "12", "--g-max", "13", "--s-min", "-1", "--s-max", "0",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_failed_scan_leaves_the_out_file_as_it_was(tmp_path, monkeypatch, capsys):
    def fail(g, s_min, s_max):
        raise RuntimeError("internal error: a cell failed")
    monkeypatch.setattr(cli, "_scan_genus", fail)
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
    # no cell, so no gap: the summary line says so, and the JSON summary is null
    assert captured.err == "scan: 0 cells, 0 theorem_applies, no max gap\n"
    assert main(["scan", "--g-min", "1", "--g-max", "5", "--s-min", "0", "--s-max", "1",
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "rows": [],
        "summary": {"cells": 0, "theorem_applies": 0, "max_gap": None, "max_gap_at": None}}
    assert captured.err == "scan: 0 cells, 0 theorem_applies, no max gap\n"
    assert main(["scan", "--g-min", "19", "--g-max", "19", "--s-min", "1", "--s-max", "1"]) == 0
    assert capsys.readouterr().err == "scan: 1 cells, 1 theorem_applies, max gap 2/1\n"


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
