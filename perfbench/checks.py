"""Output checks for the k3cert benchmark, run outside the timed region.

Every field that follows from (g, s) by a closed form is recomputed here.
Every witness is re-evaluated and every obstruction modulus re-verified by
the benchmark's own residue scan.  The remaining verdicts (whether a
witness exists, which one, and the Clifford minimum) are compared against
expected.json, recorded from the program by record.py.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from workloads import is_square, obstruction_modulus, obstructs, regime

EXPECTED_PATH = Path(__file__).with_name("expected.json")

CSV_COLUMNS = ("g", "s", "d", "regime", "lemma21_ok", "square_zero_free", "minus_two_method",
               "clifford_pass", "gamma1", "gamma_E", "gap", "expected_dim", "conclusion")
APPLIES, FAILS = "theorem_applies", "hypotheses_fail"
MAX_CHECKED_MODULUS = 1000

# Scan verdict letters recorded per cell: no (-2) decision, a (-2) witness,
# or no witness and the Clifford bound passed / failed.
NO_DECISION, WITNESS, CLIFFORD_PASS, CLIFFORD_FAIL = ".", "w", "P", "F"


@contextmanager
def unlimited_int_digits():
    """Lift the int<->str digit limit for exact checks of huge witnesses.

    The limit is restored on exit so that the program under test always
    runs with the interpreter's default, as it does for users.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def crash_reason(rc: int | None) -> str:
    return "raised" if rc is None else f"exit {rc}"


def is_crash(reason: str) -> bool:
    """Whether a failure reason is a crash rather than a wrong output."""
    return reason == "raised" or reason.startswith("exit ")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def witness_digest(m: int, n: int) -> str:
    return hashlib.sha256(f"{m},{n}".encode()).hexdigest()[:16]


def verdict_of(payload: dict) -> list:
    """The verdict fields of a ``check --format json`` payload that need
    the program's own search: conclusion, the (-2) decision with a digest
    of its witness, and the Clifford minimum."""
    mt, cl = payload["minus_two"], payload["clifford"]
    witness = (witness_digest(mt["m"], mt["n"])
               if mt is not None and mt["m"] is not None else None)
    argmin = cl["argmin"] if cl is not None else None
    return [
        payload["conclusion"],
        mt and mt["status"], mt and mt["method"], mt and mt["modulus"], witness,
        cl and cl["min_value"],
        argmin and argmin["m"], argmin and argmin["n"],
        cl and cl["region_size"], cl and cl["passed"],
    ]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _derived(g: int, s: int) -> dict:
    d = g - s
    free = not is_square(d * d - 12 * (g - 1))
    gamma_E = Fraction(d - 4, 2)
    gamma1 = (g - 1) // 2
    return {
        "g": g, "s": s, "d": d, "regime": regime(g, s),
        "lemma21_ok": free, "square_zero_free": free,
        "gamma1": gamma1, "gamma_E": _frac(gamma_E),
        "gap_lower_bound": _frac(gamma1 - gamma_E),
        "expected_dim": -4 * s - 11, "lemma31_square": 2 * s + 4, "h0_H_restricted": 5,
    }


def check_cell(cell: tuple[int, int], rc: int | None, text: str, expected: list) -> str | None:
    """Why the output of ``check`` on `cell` is wrong, or None when it is right.

    `rc` is the exit code, None when the call raised.
    """
    if rc not in (0, 1):
        return crash_reason(rc)
    with unlimited_int_digits():
        try:
            payload = json.loads(text)
            reason = _payload_error(cell, payload, expected)
        except (ValueError, KeyError, TypeError):
            return "malformed output"
    if reason is None and rc != (0 if payload["conclusion"] == APPLIES else 1):
        return "exit code disagrees with conclusion"
    return reason


def _payload_error(cell: tuple[int, int], payload: dict, expected: list) -> str | None:
    g, s = cell
    for key, want in _derived(g, s).items():
        if payload[key] != want:
            return f"wrong {key}"
    mt = payload["minus_two"]
    if mt is not None and mt["m"] is not None:
        m, n = mt["m"], mt["n"]
        if 3 * m * m + (g - s) * m * n + (g - 1) * n * n != -1:
            return "witness does not evaluate to -1"
    if mt is not None and mt["modulus"] is not None:
        k = mt["modulus"]
        if not 2 <= k <= MAX_CHECKED_MODULUS or not obstructs(k, g, s):
            return "modulus does not obstruct"
    cl = payload["clifford"]
    if cl is not None and cl["target"] != (g - 1) // 2:
        return "wrong clifford target"
    if verdict_of(payload) != expected:
        return "verdict differs from expected"
    return None


def _csv_bool(b: bool) -> str:
    return "true" if b else "false"


def scan_row(cell: tuple[int, int], letter: str) -> str:
    """The CSV row ``scan`` must print for `cell`, whose recorded verdict
    letter is `letter`."""
    g, s = cell
    f = _derived(g, s)
    if letter == NO_DECISION:
        method = ""
    elif obstruction_modulus(g, s) is not None:
        method = "mod_scan"
    else:
        method = "pell_search"
    passed = letter == CLIFFORD_PASS
    applies = f["regime"] != "outside" and f["lemma21_ok"] and passed
    return ",".join(str(v) for v in (
        g, s, f["d"], f["regime"], _csv_bool(f["lemma21_ok"]), _csv_bool(f["square_zero_free"]),
        method, _csv_bool(passed), f["gamma1"], f["gamma_E"], f["gap_lower_bound"],
        f["expected_dim"], APPLIES if applies else FAILS))


def check_scan(cells: tuple[tuple[int, int], ...], rc: int | None, text: str,
               letters: dict[tuple[int, int], str]) -> dict[tuple[int, int], str]:
    """Failed cells of one ``scan`` call, each with the reason."""
    if rc != 0:
        return dict.fromkeys(cells, crash_reason(rc))
    lines = text.split("\n")
    if lines[0] != ",".join(CSV_COLUMNS) or lines[-1] != "":
        return dict.fromkeys(cells, "malformed csv")
    rows = lines[1:-1]
    if len(rows) != len(cells):
        return dict.fromkeys(cells, "wrong row count")
    return {c: "row differs from expected" for c, row in zip(cells, rows)
            if row != scan_row(c, letters[c])}


def scan_letter(payload: dict) -> str:
    """The verdict letter of a ``check --format json`` payload."""
    if payload["minus_two"] is None:
        return NO_DECISION
    if payload["minus_two"]["status"] == "witness":
        return WITNESS
    return CLIFFORD_PASS if payload["clifford"]["passed"] else CLIFFORD_FAIL
