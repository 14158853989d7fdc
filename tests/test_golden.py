"""Golden output digests: the SHA-256 of the exact bytes the CLI writes for
two fixed scans and a fixed band of checks, and of the decisions of
``represents`` over a box of small forms and targets, so that a change meant
to keep the output (a speed-up, a refactor) is shown byte-identical inside
the suite.

Re-record a digest only when the output is meant to change, and say so in
CHANGES.md.  To print the current digests:

    PYTHONPATH=src python -c "import tests.test_golden as t; t.print_digests()"
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from k3cert import bqf
from k3cert.bqf import QuadraticForm, represents
from k3cert.certify import build_certificate
from k3cert.cli import main, run_scan, scan_row

SCAN = ["scan", "--g-min", "12", "--g-max", "600", "--s-min", "-1", "--s-max", "10"]
# a band at g ~ 10^5, where some walks pass the switch to giant strides
SCAN_LARGE = ["scan", "--g-min", "100000", "--g-max", "100019", "--s-min", "-1", "--s-max", "10"]
CHECK_CELLS = [(g, s) for g in range(12, 81) for s in range(-1, 11)]

CASES = {
    "scan-csv": [SCAN],
    "scan-json": [SCAN + ["--format", "json"]],
    "scan-csv-large": [SCAN_LARGE],
    "check-json": [["check", "--g", str(g), "--s", str(s), "--format", "json"]
                   for g, s in CHECK_CELLS],
}

# (stdout, stderr, exit codes), each as a SHA-256 hex digest; the exit codes
# are hashed as one comma-separated line.
GOLDEN = {
    "scan-csv": ("52faa73238ba14d331ec6666f52934f6ecdaa6c312343da0f1a1ff3d95b50ab7",
                 "187470442d10277c9adc8cd17e0f307216c04fc50d60db539b8f8e53331e8cf1",
                 "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
    "scan-json": ("abf0046c409455990033f24ec8f09648e048c74c90af9b98f34a7c6b9cfcfc6a",
                  "187470442d10277c9adc8cd17e0f307216c04fc50d60db539b8f8e53331e8cf1",
                  "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
    "check-json": ("b63aa951e670166d0efbe8dc2ffc6ba73d1b4b145dd9d0504ed255aa92c0762d",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                   "2ba65e217cb89f2018ec1f7eb196cddb317f614da765a7538365aa7a22bf7937"),
    "scan-csv-large": ("2aed5e48f0cfc5b9d5233a68a52fbbc3c1f0e93de376932ed3b2c1dc93ec6587",
                       "8743f516b8bd4d4a6be20296679b18dbd3af53eb18a4df3c28eb7343f251378e",
                       "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
}

# (status, witness, modulus) of represents(f, t), one line per query, for
# |a|, |c| <= 7, |b| <= 9 and t in {-2, -1, 1, 2}: the kernel behind `form`
# and |t| = 2, which the CLI cases above never reach.
KERNEL = "91084a54ba9807074ebb18142c02a3f2ade799af43a2abd632d47258c9920d12"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(name: str) -> tuple[str, str, str]:
    """Run the calls of one case in this process; digest what they wrote."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        codes = [main(argv) for argv in CASES[name]]
    return (_sha256(out.getvalue()), _sha256(err.getvalue()),
            _sha256(",".join(map(str, codes))))


def kernel_digest() -> str:
    """Decide every query of the KERNEL box; digest the decisions, with
    "ValueError" for a query outside the domain of represents."""
    lines = []
    for a in range(-7, 8):
        for b in range(-9, 10):
            for c in range(-7, 8):
                f = QuadraticForm(a, b, c)
                for t in (-2, -1, 1, 2):
                    try:
                        dec = represents(f, t)
                    except ValueError:
                        lines.append("ValueError")
                        continue
                    lines.append(f"{dec.status.value} {dec.witness} {dec.modulus}")
    return _sha256("\n".join(lines))


def print_digests() -> None:
    for name in CASES:
        print(f"    {name!r}: {digests(name)!r},")
    print(f"KERNEL = {kernel_digest()!r}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_digest(name):
    assert digests(name) == GOLDEN[name]


def test_golden_represents_digest():
    assert kernel_digest() == KERNEL


# the witness assembly of represents: a scan takes the decision alone
ASSEMBLY = ("_apply", "_column", "_signed_strides", "_count_to")


def test_scan_assembles_no_witness(monkeypatch):
    # (25381, 3) and (100135, 2): strides meet the target; (100003, 2): the
    # strides close the cycle.  Their rows are the certificates', computed
    # before the assembly is taken away
    strided = [(25381, 3), (100003, 2), (100135, 2)]
    expected = [scan_row(build_certificate(g, s)) for g, s in strided]
    landings = []
    landed = bqf._landed
    monkeypatch.setattr(bqf, "_landed", lambda *args: landings.append(args) or landed(*args))

    def forbidden(*args):
        raise AssertionError("a scan assembled a witness")
    for name in ASSEMBLY:
        monkeypatch.setattr(bqf, name, forbidden)
    # nor does it walk f's cycle: every half walk of the target's cycle on
    # the first scan ends within the switch, and on the others the strides
    # settle every hand-over
    monkeypatch.setattr(bqf, "_cycle_hit", lambda *args: pytest.fail("walked f's cycle"))
    for name in ("scan-csv", "scan-csv-large"):
        assert digests(name) == GOLDEN[name], name
    for (g, s), row in zip(strided, expected):
        landings.clear()
        assert run_scan(g, g, s, s)[0] == [row]
        assert landings, (g, s)
