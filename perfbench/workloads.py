"""Benchmark inputs, made from a seed by the benchmark's own arithmetic.

Nothing here imports k3cert: the cells the program is asked about are
chosen by tests written independently of it.

A cell (g, s) has curve degree d = g - s and discriminant
Delta = d^2 - 12(g - 1).  Its (-2) question, whether 3m^2 + dmn + (g-1)n^2
takes the value -1, is open only when Delta is positive and not a square.
The modular scan settles it when -1 has no representation modulo one of
MODULI; otherwise the cycle walk must decide it.

Workloads (one pass each; the runner repeats passes):

* ``scan-grid``: ``scan --format csv --out <file>`` over g in [12, 600],
  s in [-1, 10], issued as consecutive bands of BAND_WIDTH g-values.  The
  seed sets where the band cuts fall.
* ``check-clifford``: ``check --format json`` on cells with g in
  [2e4, 3e5] whose (-2) question the modular scan settles, so that the
  Clifford minimization is the whole cost, plus the hard cell (10^6, 1).
* ``check-witness``: ``check --format json`` on cells with g in [2e3, 3e4]
  that the modular scan does not settle, so that the cycle walk and the
  witness assembly run, plus the hard cell (12007, 0), whose 24,117-bit
  witness is known to crash the certificate text.

The cells of a check workload are one fixed draw, log-uniform in g, made
with CELLS_SEED; expected.json records the program's verdict for each.
The run's seed sets only the order of the calls.  Per-cell cost varies
over two orders of magnitude (a few witnesses take 0.5 s, most cells a few
ms), so a fresh draw per seed would move cells_per_s by ~18% and
call_p90_ms by ~13% (interquartile range over seeds) on check-witness;
with a fixed draw the run-to-run spread is the host's alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import exp, isqrt, log

MODULI = (3, 4, 5, 8, 9, 16)
S_MIN, S_MAX = -1, 10

SCAN_G_MIN, SCAN_G_MAX = 12, 600
BAND_WIDTH = 5
BRUTE_FORCE_SAMPLE = 3

CELLS_SEED = 20101104


@dataclass(frozen=True)
class CheckSpec:
    g_lo: int
    g_hi: int
    settled: bool      # whether the modular scan settles the (-2) question
    size: int          # cells drawn, besides the hard cells
    hard_cells: tuple[tuple[int, int], ...]


CHECK_SPECS = {
    "check-clifford": CheckSpec(20_000, 300_000, True, 100, ((1_000_000, 1),)),
    "check-witness": CheckSpec(2_000, 30_000, False, 200, ((12007, 0),)),
}
WORKLOAD_NAMES = ("scan-grid", *CHECK_SPECS)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the cells it certifies.  Scan calls get
    ``--out <file>`` appended by the runner."""

    argv: tuple[str, ...]
    cells: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]            # one pass, in issue order
    oracle_cells: tuple[tuple[int, int], ...] = ()  # scan cells cross-checked by brute force

    @property
    def cells_per_pass(self) -> int:
        return sum(len(c.cells) for c in self.calls)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def has_decision(g: int, s: int) -> bool:
    """True when the (-2) question is open: Delta positive and nonsquare."""
    D = (g - s) ** 2 - 12 * (g - 1)
    return D > 0 and not is_square(D)


def regime(g: int, s: int) -> str:
    if s >= -1 and g >= max(4 * s + 14, 12):
        return "strong"
    if s >= 1 and g == 4 * s + 12:
        return "relaxed"
    return "outside"


@lru_cache(maxsize=None)
def hits_minus_one(k: int, d_res: int, c_res: int) -> bool:
    """Whether 3m^2 + d*m*n + c*n^2 = -1 (mod k) has a solution, for
    d = d_res and c = c_res modulo k, by trying every residue pair."""
    want = -1 % k
    return any((3 * m * m + d_res * m * n + c_res * n * n) % k == want
               for m in range(k) for n in range(k))


def obstructs(k: int, g: int, s: int) -> bool:
    return not hits_minus_one(k, (g - s) % k, (g - 1) % k)


def obstruction_modulus(g: int, s: int) -> int | None:
    """First modulus of MODULI that rules out the value -1, if any."""
    return next((k for k in MODULI if obstructs(k, g, s)), None)


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, int(exp(rng.uniform(log(lo), log(hi + 1)))))


def check_cells(spec: CheckSpec) -> list[tuple[int, int]]:
    """The cells of a check workload: `spec.size` distinct strong-regime
    cells drawn log-uniformly in g, sorted, then the hard cells."""
    for g, s in spec.hard_cells:
        if not has_decision(g, s) or (obstruction_modulus(g, s) is not None) != spec.settled:
            raise ValueError(f"hard cell ({g}, {s}) does not fit its workload")
    rng = random.Random(CELLS_SEED)
    cells: set[tuple[int, int]] = set()
    while len(cells) < spec.size:
        g = _log_uniform(rng, spec.g_lo, spec.g_hi)
        s = rng.randrange(S_MIN, S_MAX + 1)
        if (regime(g, s) == "strong" and has_decision(g, s)
                and (obstruction_modulus(g, s) is not None) == spec.settled):
            cells.add((g, s))
    return [*sorted(cells), *spec.hard_cells]


def scan_cells(g_min: int, g_max: int) -> tuple[tuple[int, int], ...]:
    return tuple((g, s) for g in range(g_min, g_max + 1) for s in range(S_MIN, S_MAX + 1))


def _scan_bands(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    first = SCAN_G_MIN + rng.randrange(BAND_WIDTH)
    cuts = sorted({SCAN_G_MIN, *range(first, SCAN_G_MAX + 1, BAND_WIDTH), SCAN_G_MAX + 1})
    return [(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:])]


def make_workload(name: str, seed: int) -> Workload:
    """The calls of one pass of workload `name` for `seed`."""
    if name == "scan-grid":
        calls = tuple(
            Call(("scan", "--g-min", str(lo), "--g-max", str(hi), "--s-min", str(S_MIN),
                  "--s-max", str(S_MAX), "--format", "csv"), scan_cells(lo, hi))
            for lo, hi in _scan_bands(seed))
        settled = [c for call in calls for c in call.cells
                   if has_decision(*c) and obstruction_modulus(*c) is not None]
        oracle = tuple(random.Random(seed).sample(settled, BRUTE_FORCE_SAMPLE))
        return Workload(name, calls, oracle)
    if name in CHECK_SPECS:
        cells = check_cells(CHECK_SPECS[name])
        random.Random(seed).shuffle(cells)
        return Workload(name, tuple(
            Call(("check", "--g", str(g), "--s", str(s), "--format", "json"), ((g, s),))
            for g, s in cells))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
