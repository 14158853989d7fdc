"""Rank-2 even lattice spanned by the hyperplane class H and the curve class C.

A configuration (g, s) fixes the intersection numbers: H.H = 6,
H.C = d = g - s, C.C = 2g - 2.  Divisor classes are integer pairs
(m, n) standing for mH + nC.  All operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .bqf import QuadraticForm, RepDecision, _decide_unit, represents


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


def _minus_two_decision(d: int, g: int, delta: int, root: int) -> RepDecision:
    """minus_two_status without the witness, for a scan row, from the ints
    of K3Config(g, s) with d = g - s: the decision alone (_decide_unit, on
    half of the target's cycle), on minus_two_form's coefficients, with
    delta = d^2 - 12(g-1) (minus_two_form's discriminant) and root =
    isqrt(delta).  Its status and modulus are those of minus_two_status; a
    hit carries no witness."""
    return _decide_unit((3, d, g - 1), -1, delta, root)
