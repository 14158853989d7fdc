"""Clifford-index and gonality numerics, with a certified finite minimization.

gamma, gamma1_max and gonality are closed formulas carried in exact
rationals.  verify_clifford re-establishes the inequality

    min f(m, n) >= floor((g-1)/2)

over the lattice region cut out by three arithmetic constraints.  In each
slice of fixed n the region is one interval of m, found exactly with an
integer square root, and f is strictly concave in m, so the slice minimum
sits at an endpoint of that interval; the work per slice is constant.
brute_force_min_f is the independent oracle for the same minimum on a
finite box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .bqf import integer_sqrt
from .lattice import DivisorClass, K3Config


def gamma(n: int, d: int, h0: int) -> Fraction:
    """Slope-type invariant (d - 2(h0 - n)) / n of a rank-n, degree-d bundle
    with h0 sections, as an exact rational."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    if h0 < 0:
        raise ValueError(f"section count must be >= 0, got {h0}")
    return Fraction(d - 2 * (h0 - n), n)


def gamma1_max(g: int) -> int:
    """Maximal (generic) Clifford index floor((g-1)/2) for genus g >= 4."""
    if g < 4:
        raise ValueError(f"genus must be >= 4, got {g}")
    return (g - 1) // 2


def gonality(g: int, r: int) -> int:
    """Generic r-th gonality value g + r - floor(g/(r+1))."""
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return g + r - g // (r + 1)


def f_value(cfg: K3Config, m: int, n: int) -> int:
    """The objective -6m^2 + (1-2n)dm + (n-n^2)(2g-2) - 2, which equals
    deg_C(D) - D.D - 2 for D = mH + nC."""
    d, g = cfg.d, cfg.g
    return -6 * m * m + (1 - 2 * n) * d * m + (n - n * n) * (2 * g - 2) - 2


def constraints(cfg: K3Config, m: int, n: int) -> tuple[bool, bool, bool]:
    """The three region constraints, evaluated exactly:

    c1: 3m^2 + mnd + n^2(g-1) > 0          (strict)
    c2: 2 < 6m + nd < d - 2                (both strict)
    c3: md + (2n-1)(g-1) <= 0              (non-strict)
    """
    d, g = cfg.d, cfg.g
    c1 = 3 * m * m + m * n * d + n * n * (g - 1) > 0
    v = 6 * m + n * d
    c2 = 2 < v < d - 2
    c3 = m * d + (2 * n - 1) * (g - 1) <= 0
    return c1, c2, c3


def _require_root_gap(cfg: K3Config) -> int:
    """d^2 - 12(g-1), validated positive and nonsquare."""
    gap = cfg.delta
    if gap <= 0:
        raise ValueError(f"requires d^2 > 12(g-1); got gap {gap} for (g, s) = ({cfg.g}, {cfg.s})")
    if integer_sqrt(gap) is not None:
        raise ValueError(f"requires d^2 - 12(g-1) nonsquare; got {gap} for (g, s) = ({cfg.g}, {cfg.s})")
    return gap


@dataclass(frozen=True)
class CliffordReport:
    """Result of minimizing f over the constraint region.

    min_value and argmin are None exactly when the region is empty, in
    which case the bound holds vacuously and passed is True.
    """

    min_value: int | None
    argmin: DivisorClass | None
    region_size: int
    bound_n: int
    target: int
    passed: bool


def _floor_div_sqrt(num: int, n: int) -> int:
    """floor(num / sqrt(n)) for num >= 0 and n > 0 nonsquare."""
    k = isqrt(num * num // n)
    while (k + 1) * (k + 1) * n <= num * num:
        k += 1
    while k > 0 and k * k * n > num * num:
        k -= 1
    return k


def verify_clifford(cfg: K3Config) -> CliffordReport:
    """Certified exact minimization of f over the full constraint region.

    Finiteness: write R for the irrational sqrt(d^2 - 12(g-1)).  c1 forces
    m off the open interval between the roots -an and -bn of the quadratic
    in m, and combining the admissible side with the strip c2 yields
    |n| * R < d - 2.  Hence |n| <= floor((d-2)/R).  The n bound is widened
    by one for safety; the extra slices are checked and contribute nothing.

    Each slice n is one interval of m, found in a constant number of integer
    operations.  Put v = 6m + nd.  Then 12(3m^2 + ndm + n^2(g-1)) equals
    v^2 - n^2 R^2, so c1 says |v| > |n| R, and c2 says 3 <= v <= d - 3.
    As v > 0, c1 and c2 together read max(3, q + 1) <= v <= d - 3 with
    q = isqrt(n^2 R^2): c2 rules out the side of c1 below the smaller root.
    c3 caps m at floor(-(2n-1)(g-1)/d).  f is strictly concave in m, so on
    the interval its minimum lies at an endpoint and no interior point ties
    it.  Endpoints are visited in ascending m within ascending n with a
    strict update, so argmin is the lexicographically smallest (n, m)
    attaining the minimum, as in brute_force_min_f.  region_size is the sum
    of the interval lengths.
    """
    gap = _require_root_gap(cfg)
    d, g = cfg.d, cfg.g
    target = (g - 1) // 2
    if d <= 4:
        return CliffordReport(None, None, 0, 0, target, True)
    bound_n = _floor_div_sqrt(d - 2, gap) + 1
    best_val: int | None = None
    best_at: DivisorClass | None = None
    region = 0
    for n in range(-bound_n, bound_n + 1):
        nd = n * d
        v_lo = max(3, isqrt(n * n * gap) + 1)
        m_lo = -((nd - v_lo) // 6)       # ceil((v_lo - nd)/6)
        m_hi = min((d - 3 - nd) // 6, -((2 * n - 1) * (g - 1)) // d)
        if m_lo > m_hi:
            continue
        region += m_hi - m_lo + 1
        for m in (m_lo, m_hi):
            v = f_value(cfg, m, n)
            if best_val is None or v < best_val:
                best_val, best_at = v, DivisorClass(m, n)
    passed = best_val is None or best_val >= target
    return CliffordReport(best_val, best_at, region, bound_n, target, passed)


def brute_force_min_f(cfg: K3Config, box_radius: int) -> CliffordReport:
    """Independent oracle: the same minimization restricted to the box
    |m|, |n| <= box_radius, by a plain double loop over every lattice point.

    Iteration order (n ascending, then m ascending) makes the argmin the
    lexicographically smallest (n, m) attaining the minimum, matching
    verify_clifford.
    """
    if box_radius < 1:
        raise ValueError(f"box_radius must be >= 1, got {box_radius}")
    d, g = cfg.d, cfg.g
    target = (g - 1) // 2
    g1 = g - 1
    best_val: int | None = None
    best_at: DivisorClass | None = None
    region = 0
    for n in range(-box_radius, box_radius + 1):
        nd = n * d
        c3_n = (2 * n - 1) * g1
        f_lin = (1 - 2 * n) * d
        f_const = (n - n * n) * (2 * g - 2) - 2
        nn_g1 = n * n * g1
        for m in range(-box_radius, box_radius + 1):
            v2 = 6 * m + nd
            if v2 <= 2 or v2 >= d - 2:
                continue
            if 3 * m * m + m * nd + nn_g1 <= 0:
                continue
            if m * d + c3_n > 0:
                continue
            region += 1
            v = -6 * m * m + f_lin * m + f_const
            if best_val is None or v < best_val:
                best_val, best_at = v, DivisorClass(m, n)
    passed = best_val is None or best_val >= target
    return CliffordReport(best_val, best_at, region, box_radius, target, passed)
