"""Rank-2 even lattice spanned by the hyperplane class H and the curve class C.

A configuration (g, s) fixes the intersection numbers: H.H = 6,
H.C = d = g - s, C.C = 2g - 2.  Divisor classes are integer pairs
(m, n) standing for mH + nC.  All operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bqf import QuadraticForm, RepDecision, represents, represents_zero_nontrivially


@dataclass(frozen=True)
class K3Config:
    """A (genus, twist) pair; the curve degree d = g - s is derived.

    The theorem-level hypothesis ranges (s >= -1, genus bounds) are checked
    in :mod:`k3cert.certify`; here any g >= 2 is accepted so that
    out-of-range pairs can still be probed.
    """

    g: int
    s: int

    def __post_init__(self) -> None:
        if self.g < 2:
            raise ValueError(f"genus must be >= 2, got {self.g}")

    @property
    def d(self) -> int:
        return self.g - self.s

    @property
    def delta(self) -> int:
        """The discriminant d^2 - 12(g-1) that every numeric hypothesis reads:
        the Lemma 2.1 quantity d^2 - 6(2g-2), the discriminant of
        minus_two_form, a quarter of that of square_zero_form, and the
        Clifford root gap."""
        d = self.d
        return d * d - 12 * (self.g - 1)


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


def square_zero_form(cfg: K3Config) -> QuadraticForm:
    """The self-intersection form D.D = 6m^2 + 2dmn + (2g-2)n^2."""
    return QuadraticForm(6, 2 * cfg.d, 2 * cfg.g - 2)


def minus_two_form(cfg: K3Config) -> QuadraticForm:
    """Half the self-intersection form; D.D = -2 iff this form takes -1."""
    return QuadraticForm(3, cfg.d, cfg.g - 1)


def square_zero_status(cfg: K3Config) -> bool:
    """True when some nonzero class D has D.D = 0 (an isotropic class)."""
    return represents_zero_nontrivially(square_zero_form(cfg))


def minus_two_status(cfg: K3Config) -> RepDecision:
    """Complete decision of whether some class has self-intersection -2."""
    return represents(minus_two_form(cfg), -1)
