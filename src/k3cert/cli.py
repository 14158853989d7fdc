"""Command-line front end: single-pair checks, range scans, raw form queries.

Exit codes: 0 for a successful run (for ``check``, a certificate that
concludes theorem_applies), 1 for a built certificate whose hypotheses
fail, 2 for usage errors and out-of-domain queries.

Scan rows are emitted in deterministic order (g ascending, then s
ascending) to the output file or stdout; the one-line summary goes to
stderr so that CSV/JSON payloads stay machine-parseable.  A scan runs in
one process.  Since rows come out g-ascending, the rows of scans over
consecutive disjoint g-ranges, run in separate processes, concatenate in
range order to the rows of one scan over their union.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .bqf import QuadraticForm, RepDecision, represents, zero_witness
from .certify import CONCLUSION_APPLIES, Certificate, build_certificate
from .clifford import CliffordReport

MIN_SCAN_GENUS = 12


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ScanRow:
    """One scan cell; field values mirror the underlying certificate,
    with rationals rendered as reduced "p/q" strings."""

    g: int
    s: int
    d: int
    regime: str
    lemma21_ok: bool
    square_zero_free: bool
    minus_two_method: str
    clifford_pass: bool
    gamma1: int
    gamma_E: str
    gap: str
    expected_dim: int
    conclusion: str


CSV_COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(ScanRow))


def scan_row(cert: Certificate) -> ScanRow:
    return ScanRow(
        g=cert.g,
        s=cert.s,
        d=cert.d,
        regime=cert.regime,
        lemma21_ok=cert.lemma21_ok,
        square_zero_free=cert.square_zero_free,
        minus_two_method=cert.minus_two.method.value if cert.minus_two else "",
        clifford_pass=bool(cert.clifford and cert.clifford.passed),
        gamma1=cert.gamma1,
        gamma_E=frac_str(cert.gamma_E),
        gap=frac_str(cert.gap_lower_bound),
        expected_dim=cert.expected_dim,
        conclusion=cert.conclusion,
    )


def _csv_cell(value: object) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def rows_to_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(getattr(row, name)) for name in CSV_COLUMNS])
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ScanRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header}")
    rows = []
    for record in reader:
        v = dict(zip(CSV_COLUMNS, record))
        rows.append(ScanRow(
            g=int(v["g"]), s=int(v["s"]), d=int(v["d"]),
            regime=v["regime"],
            lemma21_ok=v["lemma21_ok"] == "true",
            square_zero_free=v["square_zero_free"] == "true",
            minus_two_method=v["minus_two_method"],
            clifford_pass=v["clifford_pass"] == "true",
            gamma1=int(v["gamma1"]),
            gamma_E=v["gamma_E"],
            gap=v["gap"],
            expected_dim=int(v["expected_dim"]),
            conclusion=v["conclusion"],
        ))
    return rows


def decision_to_dict(dec: RepDecision | None) -> dict | None:
    if dec is None:
        return None
    return {
        "status": dec.status.value,
        "method": dec.method.value,
        "m": dec.witness[0] if dec.witness else None,
        "n": dec.witness[1] if dec.witness else None,
        "modulus": dec.modulus,
    }


def clifford_to_dict(report: CliffordReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "min_value": report.min_value,
        "argmin": ({"m": report.argmin.m, "n": report.argmin.n}
                   if report.argmin is not None else None),
        "region_size": report.region_size,
        "bound_n": report.bound_n,
        "target": report.target,
        "passed": report.passed,
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "g": cert.g,
        "s": cert.s,
        "d": cert.d,
        "regime": cert.regime,
        "lemma21_ok": cert.lemma21_ok,
        "square_zero_free": cert.square_zero_free,
        "minus_two": decision_to_dict(cert.minus_two),
        "clifford": clifford_to_dict(cert.clifford),
        "gamma1": cert.gamma1,
        "gamma_E": frac_str(cert.gamma_E),
        "gap_lower_bound": frac_str(cert.gap_lower_bound),
        "expected_dim": cert.expected_dim,
        "lemma31_square": cert.lemma31_square,
        "h0_H_restricted": cert.h0_H_restricted,
        "conclusion": cert.conclusion,
        "reasons": list(cert.reasons),
    }


def render_certificate_text(cert: Certificate) -> str:
    lines = [
        f"certificate (g, s) = ({cert.g}, {cert.s})",
        f"  d = {cert.d}, regime = {cert.regime}",
        f"  lemma21_ok = {_csv_cell(cert.lemma21_ok)}",
        f"  square_zero_free = {_csv_cell(cert.square_zero_free)}",
        f"  minus_two = " + (f"{cert.minus_two.describe()} [{cert.minus_two.method.value}]"
                             if cert.minus_two else "unavailable"),
    ]
    rep = cert.clifford
    if rep is None:
        lines.append("  clifford = skipped")
    elif rep.argmin is None:
        lines.append(f"  clifford = empty region, target {rep.target} -> pass (vacuous)")
    else:
        verdict = "pass" if rep.passed else "FAIL"
        lines.append(
            f"  clifford = min {rep.min_value} at ({rep.argmin.m}, {rep.argmin.n}), "
            f"region {rep.region_size}, target {rep.target} -> {verdict}")
    lines += [
        f"  gamma1 = {cert.gamma1}, gamma_E = {frac_str(cert.gamma_E)}, "
        f"gap >= {frac_str(cert.gap_lower_bound)}",
        f"  expected_dim = {cert.expected_dim}, lemma31_square = {cert.lemma31_square}, "
        f"h0_H_restricted = {cert.h0_H_restricted}",
        f"  conclusion = {cert.conclusion}",
    ]
    for reason in cert.reasons:
        lines.append(f"    reason: {reason}")
    return "\n".join(lines) + "\n"


def scan_cells(g_min: int, g_max: int, s_min: int, s_max: int) -> list[tuple[int, int]]:
    """Admissible cells of the requested rectangle, g ascending then s
    ascending.  Cells below the universal genus floor are skipped."""
    return [(g, s)
            for g in range(max(g_min, MIN_SCAN_GENUS), g_max + 1)
            for s in range(s_min, s_max + 1)]


def run_scan(g_min: int, g_max: int, s_min: int, s_max: int) -> list[ScanRow]:
    return [scan_row(build_certificate(g, s))
            for g, s in scan_cells(g_min, g_max, s_min, s_max)]


def scan_summary(rows: list[ScanRow]) -> dict:
    applies = sum(1 for r in rows if r.conclusion == CONCLUSION_APPLIES)
    # max keeps the first of equal gaps, so ties go to the earliest row
    max_at = max(rows, key=lambda r: Fraction(r.gap), default=None)
    return {
        "cells": len(rows),
        "theorem_applies": applies,
        "max_gap": max_at.gap if max_at is not None else None,
        "max_gap_at": {"g": max_at.g, "s": max_at.s} if max_at is not None else None,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        cert = build_certificate(args.g, args.s)
        # json.dumps raises ValueError on a witness past the int-to-str digit limit
        json_text = (json.dumps(certificate_to_dict(cert), indent=2) + "\n"
                     if args.format == "json" else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(json_text or render_certificate_text(cert))
    return 0 if cert.conclusion == CONCLUSION_APPLIES else 1


def cmd_scan(args: argparse.Namespace) -> int:
    if args.g_min > args.g_max or args.s_min > args.s_max or args.s_min < -1:
        print("error: invalid ranges (need g_min <= g_max, s_min <= s_max, s_min >= -1)",
              file=sys.stderr)
        return 2
    rows = run_scan(args.g_min, args.g_max, args.s_min, args.s_max)
    summary = scan_summary(rows)
    if args.format == "json":
        payload = {"rows": [asdict(r) for r in rows], "summary": summary}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(rows_to_csv(rows), args.out)
    print(f"scan: {summary['cells']} cells, {summary['theorem_applies']} theorem_applies, "
          f"max gap {summary['max_gap']}", file=sys.stderr)
    return 0


def cmd_form(args: argparse.Namespace) -> int:
    f = QuadraticForm(args.a, args.b, args.c)
    t = args.target
    if abs(t) > 2:
        print(f"error: only targets with |t| <= 2 are decided completely, got {t}",
              file=sys.stderr)
        return 2
    if t == 0:
        w = zero_witness(f)
        dec = RepDecision.witness_of(*w) if w is not None else RepDecision.none_proved()
        payload = decision_to_dict(dec)
        payload["method"] = None  # zero test is a direct discriminant factorisation
        text = dec.describe()
    else:
        try:
            dec = represents(f, t)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        payload = decision_to_dict(dec)
        text = dec.describe()
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3cert",
        description="Exact certificates for curve/bundle numerics on K3-hosted curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="build and print the certificate for one (g, s)")
    check.add_argument("--g", type=int, required=True, help="genus (>= 2)")
    check.add_argument("--s", type=int, required=True, help="twist; degree is d = g - s")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(func=cmd_check)

    scan = sub.add_parser("scan", help="scan a (g, s) rectangle and emit one row per cell")
    scan.add_argument("--g-min", type=int, required=True)
    scan.add_argument("--g-max", type=int, required=True)
    scan.add_argument("--s-min", type=int, required=True)
    scan.add_argument("--s-max", type=int, required=True)
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.add_argument("--out", type=str, default=None, help="write the table to this path")
    scan.set_defaults(func=cmd_scan)

    form = sub.add_parser("form", help="decide representability of a target by a raw form")
    form.add_argument("--a", type=int, required=True)
    form.add_argument("--b", type=int, required=True)
    form.add_argument("--c", type=int, required=True)
    form.add_argument("--target", type=int, required=True)
    form.add_argument("--format", choices=("text", "json"), default="text")
    form.set_defaults(func=cmd_form)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
