"""Clifford-index and gonality numerics, with a certified finite minimization.

gamma, gamma1_max and gonality are closed formulas carried in exact
rationals.  verify_clifford re-establishes the inequality

    min f(m, n) >= floor((g-1)/2)

over the lattice region cut out by three arithmetic constraints.  In each
slice of fixed n the region is one interval of m, found exactly with an
integer square root, and f is strictly concave in m, so the slice minimum
sits at an endpoint of that interval; the work per slice is constant.  The
slice loop is one private function on ints, _minimum, which verify_clifford
wraps in its checks and its report, and whose minimum alone a scan row
reads.  Both callers hold isqrt(Delta) already and pass it in, and the
slices with |n| = 1, two of the three that most cells scan, reuse it for
their isqrt(n^2 Delta).  brute_force_min_f is the independent oracle for
the same minimum on a finite box.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

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


class CliffordReport(NamedTuple):
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


def verify_clifford(cfg: K3Config) -> CliffordReport:
    """Certified exact minimization of f over the full constraint region;
    ValueError unless d^2 - 12(g-1) is positive and nonsquare.  The
    minimization itself is _minimum's, on the ints of cfg.

    Finiteness: write R for the irrational sqrt(d^2 - 12(g-1)).  c1 forces
    m off the open interval between the roots -an and -bn of the quadratic
    in m, and combining the admissible side with the strip c2 yields
    |n| * R < d - 2.  Hence |n| <= floor((d-2)/R), one less than the
    report's bound_n, and only those slices are scanned.

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
    d, g, gap = cfg.d, cfg.g, cfg.delta
    if gap <= 0:
        raise ValueError(f"requires d^2 > 12(g-1); got gap {gap} for (g, s) = ({g}, {cfg.s})")
    if cfg.root * cfg.root == gap:
        raise ValueError(f"requires d^2 - 12(g-1) nonsquare; got {gap} for (g, s) = ({g}, {cfg.s})")
    target = (g - 1) // 2
    best_val, m, n, region, n_max = _minimum(d, g, gap, cfg.root)
    best_at = DivisorClass(m, n) if best_val is not None else None
    passed = best_val is None or best_val >= target
    return CliffordReport(best_val, best_at, region, n_max + 1, target, passed)


def _minimum(d: int, g: int, gap: int, root: int) -> tuple[int | None, int, int, int, int]:
    """verify_clifford's minimization for degree d, genus g, the positive
    nonsquare gap = d^2 - 12(g-1) and root = isqrt(gap), unchecked, in ints:
    the minimum of f (None on an empty region), the m and n of its argmin,
    the region size, and n_max = bound_n - 1, the largest |n| scanned.  d <= 4
    leaves c2 empty, so no slice is scanned (n_max = -1).  A scan row reads
    the minimum alone."""
    if d <= 4:
        return None, 0, 0, 0, -1
    # floor((d-2)/R) = isqrt(floor((d-2)^2/R^2)), as floor(sqrt(x)) = isqrt(floor(x))
    n_max = isqrt((d - 2) ** 2 // gap)
    g1 = g - 1
    best_val: int | None = None
    best_m = best_n = 0
    region = 0
    for n in range(-n_max, n_max + 1):
        nd, nn = n * d, n * n
        # q = isqrt(n^2 gap): 0 at n = 0 and root at |n| = 1, the usual slices
        q = root * nn if nn <= 1 else isqrt(nn * gap)
        v_lo = q + 1 if q > 1 else 3     # max(3, q + 1)
        m_lo = -((nd - v_lo) // 6)       # ceil((v_lo - nd)/6)
        m_hi = (d - 3 - nd) // 6         # floor((d - 3 - nd)/6), capped by c3:
        c3 = -((2 * n - 1) * g1) // d    # floor(-(2n-1)(g-1)/d)
        if c3 < m_hi:
            m_hi = c3
        if m_lo > m_hi:
            continue
        region += m_hi - m_lo + 1
        # f_value with the slice's linear and constant terms hoisted
        f_lin = (1 - 2 * n) * d
        f_const = 2 * (n - nn) * g1 - 2
        # the two endpoints in ascending m, written out
        v = (f_lin - 6 * m_lo) * m_lo + f_const
        if best_val is None or v < best_val:
            best_val, best_m, best_n = v, m_lo, n
        v = (f_lin - 6 * m_hi) * m_hi + f_const
        if v < best_val:
            best_val, best_m, best_n = v, m_hi, n
    return best_val, best_m, best_n, region, n_max


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
