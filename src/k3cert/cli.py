"""Command-line front end: single-pair checks, range scans, raw form queries.

Exit codes: 0 for a successful run (for ``check``, a certificate that
concludes theorem_applies), 1 for a built certificate whose hypotheses
fail, 2 for usage errors and out-of-domain queries (for ``check``: g < 2,
or a JSON witness past the int-to-str digit limit; for ``scan``: invalid
ranges, or an ``--out`` path that cannot be opened for writing, which is
found before any cell is computed), and 3 for any other exception, a fault
of the engine or an I/O failure of the output itself (a closed pipe on
stdout): ``main`` raises it, and ``run``, the console script's and
``python -m k3cert``'s entry, reports it on stderr as ``internal error:
<message>`` after the traceback.

A scan makes one pass over its cells, a genus at a time (_scan_genus),
with what depends on g alone, the (-2) screen among it (k3cert.lattice),
worked out once.  So are the gap and the expected dimension: each is
affine in s, and so is its check, so each is computed and checked at the
ends of the genus's s range only, and stepped in between (_affine).  The
rows, plain tuples in CSV_COLUMNS order, are computed from ints by
build_certificate's checks, with the (-2) decision and the Clifford
minimum alone, as a row shows only the decision's method and whether the
minimum passes; scan_row(build_certificate(g, s)) is the same row.  The
Clifford minimum's slices with |n| = 1 reuse the cell's isqrt(Delta)
(k3cert.clifford).  Rows go out g ascending, then s ascending, to the
output file or stdout, and the one-line summary to stderr, so that CSV
and JSON payloads stay machine-parseable.  A scan runs in one process;
scans over consecutive disjoint g-ranges concatenate in range order to
one scan over their union.

Each call of ``main`` builds its parser anew, with no cache, and builds at
most two ArgumentParsers: the top level's and that of the subcommand it
parses, the first of its arguments that names one (build_parser).  The other entries
keep only their name and help line, which are all that the top-level help,
usage and errors read of them, and hold no parser.  So it prints the help,
usage and errors of the full parser, ``build_parser()``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from fractions import Fraction
from math import isqrt

from .bqf import DecisionStatus, QuadraticForm, RepDecision, represents, zero_witness
from .certify import (CONCLUSION_APPLIES, Certificate, _twice_gap, build_certificate,
                      check_hypotheses, decide_conclusion, expected_dim_bn24)
from .clifford import CliffordReport, _minimum
from .lattice import _minus_two_genus

MIN_SCAN_GENUS = 12

CSV_COLUMNS = ("g", "s", "d", "regime", "lemma21_ok", "square_zero_free", "minus_two_method",
               "clifford_pass", "gamma1", "gamma_E", "gap", "expected_dim", "conclusion")


# the text of a bool in CSV and in certificate text, indexed by the bool
_BOOL_TEXT = ("false", "true")

_OBSTRUCTED_MOD = DecisionStatus.OBSTRUCTED_MOD
_WITNESS = DecisionStatus.WITNESS


def _method_text(dec: RepDecision) -> str:
    """The text of a decision's method: mod_scan for the residue scan's
    obstructions, pell_search for the rest.  The status is told by identity,
    with the member bound once (hashing one runs Python-level code)."""
    return "mod_scan" if dec.status is _OBSTRUCTED_MOD else "pell_search"


def frac_str(x: Fraction) -> str:
    return "%d/%d" % x.as_integer_ratio()


def scan_row(cert: Certificate) -> tuple:
    """The scan row of `cert`: its values in CSV_COLUMNS order, with
    rationals rendered as reduced "p/q" strings."""
    dec, rep = cert.minus_two, cert.clifford
    return (cert.g, cert.s, cert.d, cert.regime, cert.lemma21_ok, cert.square_zero_free,
            "" if dec is None else _method_text(dec), rep is not None and rep.passed,
            cert.gamma1, frac_str(cert.gamma_E), frac_str(cert.gap_lower_bound),
            cert.expected_dim, cert.conclusion)


def _half_text(n: int) -> str:
    """n/2 as reduced "p/q" text: frac_str(Fraction(n, 2))."""
    return f"{n}/2" if n & 1 else f"{n >> 1}/1"


def _affine(f: Callable[[int, int], int], g: int, s_min: int, s_max: int) -> range:
    """[f(g, s) for s_min <= s <= s_max] for an f whose value is affine in s
    and not constant, from f at the two ends alone.  A check in f that
    compares affine values holds at every s between two at which it holds."""
    lo, hi = f(g, s_min), f(g, s_max)
    step = (hi - lo) // (s_max - s_min) if s_max > s_min else 1
    return range(lo, hi + step, step)


def _scan_genus(g: int, s_min: int, s_max: int) -> tuple[list[tuple], int]:
    """The scan rows of genus g for s_min <= s <= s_max (see the module
    docstring), and twice the last one's gap, the largest (it grows with s).
    The gap's positivity is checked from s = -1 on, so where the range
    starts below -1 it is checked at -1 as well as at the ends."""
    twelve_c, gamma1 = 12 * (g - 1), (g - 1) // 2
    decide = _minus_two_genus(g)
    twice_gaps = _affine(_twice_gap, g, s_min, s_max)
    if s_min < -1 < s_max:
        _twice_gap(g, -1)
    dims = _affine(expected_dim_bn24, g, s_min, s_max)
    rows = []
    for s, twice_gap, dim in zip(range(s_min, s_max + 1), twice_gaps, dims):
        d = g - s
        delta = d * d - twelve_c
        root = isqrt(delta) if delta > 0 else 0
        delta_ok = root * root != delta
        dec = decide(d, delta, root) if delta > 0 and delta_ok else None
        minus_two_ok = dec is not None and dec.status is not _WITNESS
        low = _minimum(d, g, delta, root)[0] if minus_two_ok else None
        clifford_pass = minus_two_ok and (low is None or low >= gamma1)
        regime = check_hypotheses(g, s)
        method = "" if dec is None else _method_text(dec)
        rows.append((g, s, d, regime, delta_ok, delta_ok, method, clifford_pass, gamma1,
                     _half_text(d - 4), _half_text(twice_gap), dim,
                     decide_conclusion(regime, delta_ok, delta_ok, minus_two_ok, clifford_pass)))
    return rows, twice_gap


# one scan row of CSV text; no value of a row needs quoting: ints, bool
# text, "p/q" rationals and the fixed words of regime, method and conclusion
_CSV_ROW = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"


def rows_to_csv(rows: list[tuple]) -> str:
    """The CSV text of scan rows, bools written true/false: the text that
    csv.writer writes for them with a newline line terminator.  The bools
    of a scan row are its lemma21_ok, square_zero_free and clifford_pass,
    at positions 4, 5 and 7."""
    b, fmt = _BOOL_TEXT, _CSV_ROW
    return ",".join(CSV_COLUMNS) + "\n" + "".join([
        fmt % (g, s, d, regime, b[lemma21], b[zero_free], method, b[passed],
               gamma1, gamma_E, gap, dim, conclusion)
        for g, s, d, regime, lemma21, zero_free, method, passed,
        gamma1, gamma_E, gap, dim, conclusion in rows])


def decision_to_dict(dec: RepDecision | None) -> dict | None:
    if dec is None:
        return None
    m, n = dec.witness or (None, None)
    return {"status": dec.status.value, "method": _method_text(dec), "m": m, "n": n,
            "modulus": dec.modulus}


def clifford_to_dict(report: CliffordReport | None) -> dict | None:
    """The report's fields in order, argmin as {m, n} or null."""
    if report is None:
        return None
    a = report.argmin
    return report._asdict() | {"argmin": None if a is None else {"m": a.m, "n": a.n}}


def certificate_to_dict(cert: Certificate) -> dict:
    """The certificate's fields in order, which is the JSON schema, with the
    records as objects, rationals as "p/q" and the reasons as a list."""
    return cert._asdict() | {
        "minus_two": decision_to_dict(cert.minus_two),
        "clifford": clifford_to_dict(cert.clifford),
        "gamma_E": frac_str(cert.gamma_E),
        "gap_lower_bound": frac_str(cert.gap_lower_bound),
        "reasons": list(cert.reasons),
    }


def render_certificate_text(cert: Certificate) -> str:
    dec = cert.minus_two
    lines = [
        f"certificate (g, s) = ({cert.g}, {cert.s})",
        f"  d = {cert.d}, regime = {cert.regime}",
        f"  lemma21_ok = {_BOOL_TEXT[cert.lemma21_ok]}",
        f"  square_zero_free = {_BOOL_TEXT[cert.square_zero_free]}",
        "  minus_two = " + ("unavailable" if dec is None
                            else f"{dec.describe()} [{_method_text(dec)}]"),
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


def run_scan(g_min: int, g_max: int, s_min: int, s_max: int) -> tuple[list[tuple], dict]:
    """The scan rows of the admissible cells, g ascending then s ascending,
    and the scan summary: the cell count, the theorem_applies count, and the
    first cell of maximal gap lower bound.  Cells below the universal genus
    floor are skipped."""
    rows = []
    max_at = None
    max_twice = 0  # 2 * max_gap, an int, since every gap is a half-integer
    for g in range(max(g_min, MIN_SCAN_GENUS), g_max + 1) if s_min <= s_max else ():
        genus_rows, twice = _scan_genus(g, s_min, s_max)
        rows += genus_rows
        # strict >, so ties go to the earliest cell
        if max_at is None or twice > max_twice:
            max_twice, max_at = twice, {"g": g, "s": s_max}
    summary = {
        "cells": len(rows),
        "theorem_applies": [row[-1] for row in rows].count(CONCLUSION_APPLIES),
        "max_gap": _half_text(max_twice) if max_at is not None else None,
        "max_gap_at": max_at,
    }
    return rows, summary


def scan_json(rows: list[tuple], summary: dict) -> str:
    """The text of json.dumps({"rows": ..., "summary": summary}, indent=2),
    with one row dict per scan row, keyed by CSV_COLUMNS.

    json.dumps runs its pure-Python encoder whenever it indents, so each
    row, whose values are all scalars, goes through the C encoder instead,
    with the newline and indent of its nesting level as the item separator."""
    encode = json.JSONEncoder(separators=(",\n      ", ": ")).encode
    body = ",\n".join("    {\n      " + encode(dict(zip(CSV_COLUMNS, r)))[1:-1]
                      + "\n    }" for r in rows)
    summary_text = json.dumps(summary, indent=2).replace("\n", "\n  ")
    return ('{\n  "rows": ' + (f"[\n{body}\n  ]" if rows else "[]")
            + ',\n  "summary": ' + summary_text + "\n}\n")


def cmd_check(args: argparse.Namespace) -> int:
    # two errors exit 2: the domain error, and json.dumps refusing a witness
    # past the int-to-str digit limit; any other error is an internal fault
    if args.g < 2:
        print(f"error: genus must be >= 2, got {args.g}", file=sys.stderr)
        return 2
    cert = build_certificate(args.g, args.s)
    if args.format == "json":
        payload = certificate_to_dict(cert)
        try:
            text = json.dumps(payload, indent=2) + "\n"
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        text = render_certificate_text(cert)
    sys.stdout.write(text)
    return 0 if cert.conclusion == CONCLUSION_APPLIES else 1


def cmd_scan(args: argparse.Namespace) -> int:
    if args.g_min > args.g_max or args.s_min > args.s_max or args.s_min < -1:
        print("error: invalid ranges (need g_min <= g_max, s_min <= s_max, s_min >= -1)",
              file=sys.stderr)
        return 2
    out = sys.stdout
    if args.out is not None:
        # opened before the first cell, so a bad path costs no computation, and
        # emptied only at the write, so a failed scan leaves the file as it was
        try:
            out = open(args.out, "a", encoding="utf-8", newline="")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    try:
        rows, summary = run_scan(args.g_min, args.g_max, args.s_min, args.s_max)
        # append mode opens at the end: only a file with content is emptied, not
        # a new file (ftruncate can cost more than a small scan's cells) and
        # not a device or pipe, which cannot be truncated
        if args.out is not None and out.seekable() and out.tell():
            out.truncate(0)
        out.write(scan_json(rows, summary) if args.format == "json" else rows_to_csv(rows))
    finally:
        if args.out is not None:
            out.close()
    max_gap = summary["max_gap"]
    print(f"scan: {summary['cells']} cells, {summary['theorem_applies']} theorem_applies, "
          + ("no max gap" if max_gap is None else f"max gap {max_gap}"), file=sys.stderr)
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
    else:
        try:
            dec = represents(f, t)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        payload = decision_to_dict(dec)
        if t == 0:
            payload["method"] = None  # zero test is a direct discriminant factorisation
        sys.stdout.write(_json_exact(payload))
    else:
        sys.stdout.write(dec.describe() + "\n")
    return 0


def _json_exact(payload: dict) -> str:
    """json.dumps with the int-to-str digit limit lifted for this one write,
    so that a witness past the limit is written as exact decimals."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("--g", type=int, required=True, help="genus (>= 2)")
    check.add_argument("--s", type=int, required=True, help="twist; degree is d = g - s")
    check.add_argument("--format", choices=("text", "json"), default="text")


def _scan_arguments(scan: argparse.ArgumentParser) -> None:
    scan.add_argument("--g-min", type=int, required=True)
    scan.add_argument("--g-max", type=int, required=True)
    scan.add_argument("--s-min", type=int, required=True)
    scan.add_argument("--s-max", type=int, required=True)
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.add_argument("--out", type=str, default=None, help="write the table to this path")


def _form_arguments(form: argparse.ArgumentParser) -> None:
    form.add_argument("--a", type=int, required=True)
    form.add_argument("--b", type=int, required=True)
    form.add_argument("--c", type=int, required=True)
    form.add_argument("--target", type=int, required=True)
    form.add_argument("--format", choices=("text", "json"), default="text")


# each subcommand, in the order of the top-level help: its help line, the
# function that adds its arguments, and the function that runs it
_COMMANDS = {
    "check": ("build and print the certificate for one (g, s)", _check_arguments, cmd_check),
    "scan": ("scan a (g, s) rectangle and emit one row per cell", _scan_arguments, cmd_scan),
    "form": ("decide representability of a target by a raw form", _form_arguments, cmd_form),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The k3cert parser: the top level and one entry per subcommand, whose
    name and help line are all that the top-level help, usage and errors
    read.  With `command` None every entry is a parser, with its arguments,
    its -h and its function; otherwise only the one named `command`, if
    any, is, and the others hold None, since a call parses one subcommand
    (main).  A ``check`` call so builds two ArgumentParsers, not four, and
    each built parser costs argparse two or three gettext lookups."""
    import shutil

    # argparse builds a HelpFormatter, which asks for the terminal size, for
    # every argument it adds; one width, the one HelpFormatter computes when
    # given none, serves them all.  Subparsers do not inherit it.
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="k3cert", formatter_class=formatter,
        description="Exact certificates for curve/bundle numerics on K3-hosted curves.")
    # prog given, which argparse otherwise takes from a formatted usage line;
    # add_parser hands `built` and its other keywords to parser_class
    sub = parser.add_subparsers(
        dest="command", required=True, prog=parser.prog,
        parser_class=lambda built, **kwargs: argparse.ArgumentParser(**kwargs) if built else None)
    for name, (text, add_arguments, func) in _COMMANDS.items():
        subparser = sub.add_parser(name, formatter_class=formatter, help=text,
                                   built=command is None or command == name)
        if subparser is not None:
            add_arguments(subparser)
            subparser.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the subcommand argparse runs is named by the first positional
    # argument, and every argument before it is an option, since the top
    # level has no option that takes a value: so it is the first argument
    # that names a subcommand, and usually the first argument
    words = sys.argv[1:] if argv is None else argv
    args = build_parser(next((w for w in words if w in _COMMANDS), "")).parse_args(argv)
    return args.func(args)


def run(argv: list[str] | None = None) -> int:
    """main for the console script and ``python -m k3cert``: an exception
    other than argparse's SystemExit, a fault of the engine or a failed
    write such as BrokenPipeError, is printed with its traceback and an
    ``internal error: <message>`` line, and exits 3."""
    try:
        return main(argv)
    except Exception as exc:
        import traceback

        traceback.print_exc()
        message = str(exc).removeprefix("internal error: ") or type(exc).__name__
        print(f"internal error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(run())
