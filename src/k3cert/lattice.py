"""Rank-2 even lattice spanned by the hyperplane class H and the curve class C.

A configuration (g, s) fixes the intersection numbers: H.H = 6,
H.C = d = g - s, C.C = 2g - 2.  Divisor classes are integer pairs
(m, n) standing for mH + nC.  All operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd, isqrt, prod
from typing import Callable

from .bqf import (_GENUS_PRIMES, _NONE_PROVED, _OBSTRUCTED, QuadraticForm, RepDecision,
                  _residue_hit, _unit_walk, represents)


@dataclass(frozen=True)
class K3Config:
    """A (genus, twist) pair; the curve degree d = g - s is derived.

    d, delta = d^2 - 12(g-1) and root = isqrt(delta), 0 when delta < 0 (so
    delta is a square exactly when root * root == delta), are computed once,
    at construction; delta is Lemma 2.1's d^2 - 6(2g-2), the discriminant of
    minus_two_form, a quarter of that of the self-intersection form, and the
    Clifford root gap.  Like g and s they are read-only and take no part in
    repr, equality or hashing.

    The theorem-level hypothesis ranges (s >= -1, genus bounds) are checked
    in :mod:`k3cert.certify`; here any g >= 2 is accepted so that
    out-of-range pairs can still be probed.
    """

    g: int
    s: int
    d: int = field(init=False, repr=False, compare=False)
    delta: int = field(init=False, repr=False, compare=False)
    root: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.g
        if g < 2:
            raise ValueError(f"genus must be >= 2, got {g}")
        d = g - self.s
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "delta", d * d - 12 * (g - 1))
        object.__setattr__(self, "root", isqrt(max(self.delta, 0)))


@dataclass(frozen=True)
class DivisorClass:
    m: int
    n: int

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.m + other.m, self.n + other.n)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.m - other.m, self.n - other.n)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.m, -self.n)


H = DivisorClass(1, 0)
C = DivisorClass(0, 1)


def pair(cfg: K3Config, d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection pairing under the Gram matrix [[6, d], [d, 2g-2]]."""
    d = cfg.d
    return (6 * d1.m * d2.m
            + d * (d1.m * d2.n + d1.n * d2.m)
            + (2 * cfg.g - 2) * d1.n * d2.n)


def deg_H(cfg: K3Config, dc: DivisorClass) -> int:
    """Degree against the hyperplane class: 6m + dn."""
    return 6 * dc.m + cfg.d * dc.n


def deg_C(cfg: K3Config, dc: DivisorClass) -> int:
    """Degree against the curve class: md + n(2g-2)."""
    return cfg.d * dc.m + (2 * cfg.g - 2) * dc.n


def minus_two_form(cfg: K3Config) -> QuadraticForm:
    """Half the self-intersection form; D.D = -2 iff this form takes -1."""
    return QuadraticForm(3, cfg.d, cfg.g - 1)


def minus_two_status(cfg: K3Config) -> RepDecision:
    """Complete decision of whether some class has self-intersection -2."""
    return represents(minus_two_form(cfg), -1)


@cache
def _residue_tables() -> tuple[tuple[tuple[RepDecision | None, ...], ...], ...]:
    """The residue scan of (3, d, c) at -1 as tables, built from _residue_hit
    on first use: for k = 3, 5 and 8, by [c % k][d % k], ObstructedMod(k)
    where k obstructs, else None.  Over every (d, c) mod 720 the first
    modulus of DEFAULT_MODULI to obstruct is 3, 5, 8 or none, never 4, 9 or
    16, so the first of the three decisions that is not None is
    _obstruction((3, d, c), -1)'s."""
    return tuple(tuple(tuple(None if _residue_hit(k, 3 % k, d, c, k - 1) else _OBSTRUCTED[k]
                             for d in range(k)) for c in range(k)) for k in (3, 5, 8))


_NONRESIDUE_PRODUCT = prod(p for p in _GENUS_PRIMES if p % 3 == 2)


def _minus_two_genus(g: int) -> Callable[[int, int, int], RepDecision]:
    """The (-2) decision of the scan rows of genus g, a function of d, delta
    = d^2 - 12(g-1) > 0 nonsquare and its isqrt: bqf._screen, then
    bqf._unit_walk, on (3, d, g-1) at -1, so minus_two_status with no
    witness, the screen specialised to the form and set up once per g.
    The residue scan is three lookups, and the genus characters one gcd:
    at a prime p > 3 dividing delta, 12Q = (6m + dn)^2 - delta n^2 makes
    Q = -1 need -3 to be a square mod p, which it is not for p = 2 (mod 3);
    at p = 3, Q = (g-1)n^2 (mod 3)."""
    c = g - 1
    by3, by5, by8 = _residue_tables()
    at3, at5, at8 = by3[c % 3], by5[c % 5], by8[c % 8]

    def decide(d: int, delta: int, root: int) -> RepDecision:
        obstructed = at3[d % 3] or at5[d % 5] or at8[d % 8]
        if obstructed is not None:
            return obstructed
        if gcd(delta, _NONRESIDUE_PRODUCT) > 1 or (delta % 3 == 0 and c % 3 != 2):
            return _NONE_PROVED
        return _unit_walk((3, d, c), -1, delta, root)
    return decide
