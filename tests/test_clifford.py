from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3cert.clifford import (
    brute_force_min_f,
    constraints,
    f_value,
    gamma,
    gamma1_max,
    gonality,
    verify_clifford,
)
from k3cert.lattice import DivisorClass, K3Config, deg_C, pair

configs = st.builds(K3Config, g=st.integers(2, 400), s=st.integers(-30, 30))


def _nondegenerate(cfg: K3Config) -> bool:
    gap = cfg.d * cfg.d - 12 * (cfg.g - 1)
    return gap > 0 and isqrt(gap) ** 2 != gap


nondegenerate_configs = st.builds(
    K3Config, g=st.integers(2, 400), s=st.integers(-3, 40)).filter(_nondegenerate)


# -- closed formulas -----------------------------------------------------------

def test_gamma_examples():
    assert gamma(2, 13, 4) == Fraction(9, 2)
    assert gamma(1, 0, 1) == 0
    assert gamma(2, 18, 4) == 7


def test_gamma_rejects_bad_input():
    with pytest.raises(ValueError):
        gamma(0, 5, 2)
    with pytest.raises(ValueError):
        gamma(2, 5, -1)


@given(st.integers(-500, 500))
def test_gamma_rank2_four_sections_identity(d):
    assert gamma(2, d, 4) == Fraction(d, 2) - 2


def test_gamma1_max_examples():
    assert gamma1_max(11) == 5
    assert gamma1_max(19) == 9
    assert gamma1_max(4) == 1
    with pytest.raises(ValueError):
        gamma1_max(3)


def test_gonality_examples():
    assert gonality(11, 4) == 13
    assert gonality(12, 1) == 7
    assert gonality(5, 4) == 8
    with pytest.raises(ValueError):
        gonality(1, 4)
    with pytest.raises(ValueError):
        gonality(10, 0)


# -- the objective and its constraints ----------------------------------------

def test_f_value_examples():
    cfg = K3Config(19, 1)
    assert f_value(cfg, -1, 1) == cfg.d - 8
    assert f_value(cfg, 1, 0) == cfg.d - 8
    assert f_value(cfg, 0, 0) == -2


@settings(max_examples=300)
@given(configs, st.integers(-60, 60), st.integers(-60, 60))
def test_f_value_matches_lattice_identity(cfg, m, n):
    dc = DivisorClass(m, n)
    assert f_value(cfg, m, n) == deg_C(cfg, dc) - pair(cfg, dc, dc) - 2


@given(configs)
def test_corner_values(cfg):
    assert f_value(cfg, -1, 1) == cfg.d - 8
    assert f_value(cfg, 1, 0) == cfg.d - 8


def test_constraints_examples():
    assert constraints(K3Config(19, 1), 1, 0) == (True, True, True)
    assert constraints(K3Config(19, 1), 0, 0) == (False, False, True)
    assert constraints(K3Config(12, -1), -1, 1) == (True, True, True)


# -- certified minimization vs brute force --------------------------------------

def test_verify_clifford_examples():
    rep = verify_clifford(K3Config(19, 1))
    assert rep.passed and rep.target == 9
    assert rep.min_value == 10 and rep.argmin == DivisorClass(1, 0)
    assert rep.region_size == 2

    rep = verify_clifford(K3Config(12, -1))
    assert rep.passed and rep.target == 5 and rep.min_value == 5
    assert rep.argmin == DivisorClass(-1, 1) and rep.region_size == 1

    rep = verify_clifford(K3Config(14, 0))
    assert rep.passed and rep.target == 6 and rep.min_value == 6


def test_verify_clifford_empty_region_is_vacuous_pass():
    rep = verify_clifford(K3Config(2, -3))  # d = 5, gap 13: strip is empty
    assert rep.passed and rep.region_size == 0
    assert rep.min_value is None and rep.argmin is None


def test_verify_clifford_rejects_degenerate():
    # Delta < 0, Delta = 0 and a square Delta > 0
    for (g, s), message in [
            ((14, 10), "requires d^2 > 12(g-1); got gap -140 for (g, s) = (14, 10)"),
            ((4, -2), "requires d^2 > 12(g-1); got gap 0 for (g, s) = (4, -2)"),
            ((10, -2), "requires d^2 - 12(g-1) nonsquare; got 36 for (g, s) = (10, -2)")]:
        with pytest.raises(ValueError) as raised:
            verify_clifford(K3Config(g, s))
        assert str(raised.value) == message


def test_region_bound_witness():
    # every point satisfying the first two constraints in a radius-100 box
    # stays within the certified n bound
    for g, s in [(19, 1), (12, -1), (14, 0), (16, 1), (38, 6), (101, 3)]:
        cfg = K3Config(g, s)
        rep = verify_clifford(cfg)
        for m in range(-100, 101):
            for n in range(-100, 101):
                c1, c2, _ = constraints(cfg, m, n)
                if c1 and c2:
                    assert abs(n) <= rep.bound_n, (g, s, m, n)


def test_verify_matches_brute_force():
    for g, s in [(19, 1), (12, -1), (14, 0), (16, 1), (40, 2), (29, 3), (300, 6), (262, 6)]:
        cfg = K3Config(g, s)
        rep = verify_clifford(cfg)
        bru = brute_force_min_f(cfg, 60)
        assert bru.min_value == rep.min_value, (g, s)
        assert bru.argmin == rep.argmin
        assert bru.region_size == rep.region_size
        assert bru.passed == rep.passed


@settings(deadline=None)
@given(nondegenerate_configs)
@example(K3Config(2, 40))   # d = -38: the d <= 4 early return
@example(K3Config(20, 40))  # d = -20: the d <= 4 early return
def test_verify_clifford_matches_oracle(cfg):
    rep = verify_clifford(cfg)
    # c2 gives 3 <= 6m + nd <= d - 3, so |m| <= d(1 + |n|)/6 on the region:
    # this box holds every point with |n| <= bound_n.
    radius = max(1, rep.bound_n, cfg.d * (1 + rep.bound_n) // 6 + 1)
    bru = brute_force_min_f(cfg, radius)
    assert (rep.min_value, rep.argmin, rep.region_size, rep.passed) == (
        bru.min_value, bru.argmin, bru.region_size, bru.passed)
    if cfg.d > 4:
        # bound_n - 1 is floor((d - 2)/sqrt(gap)), the finiteness bound on |n|
        k, gap = rep.bound_n - 1, cfg.delta
        assert k * k * gap <= (cfg.d - 2) ** 2 < (k + 1) ** 2 * gap


def _c1_fails_on_c2_strip(cfg: K3Config, n: int) -> bool:
    """True when no m with c2 at this n meets c1, read off constraints alone.

    The strip of c2 is one interval of m; its ends are checked to be in it
    and their outer neighbours out of it.  c1's quadratic 3m^2 + mnd +
    n^2(g-1) is convex in m, so it is <= 0 on the whole interval once it is
    at both ends."""
    nd = n * cfg.d
    m_lo, m_hi = (2 - nd) // 6 + 1, -((nd + 2 - cfg.d) // 6) - 1
    if m_lo > m_hi:  # no v in [3, d - 3] is congruent to nd mod 6
        return not any(constraints(cfg, m, n)[1] for m in range(m_hi, m_lo + 1))
    assert [constraints(cfg, m, n)[1] for m in (m_lo - 1, m_lo, m_hi, m_hi + 1)] == [
        False, True, True, False]
    return not constraints(cfg, m_lo, n)[0] and not constraints(cfg, m_hi, n)[0]


def test_slices_at_bound_n_hold_no_region_point():
    # verify_clifford scans |n| <= bound_n - 1 only; at n = +-bound_n the
    # strip c2 holds no point of c1.  Past d = 3g - 2, bound_n is 1.
    checked = 0
    for g in range(2, 400):
        for s in range(-2 * g - 40, g - 4):
            cfg = K3Config(g, s)
            if _nondegenerate(cfg):
                bound_n = verify_clifford(cfg).bound_n
                assert _c1_fails_on_c2_strip(cfg, bound_n), (g, s)
                assert _c1_fails_on_c2_strip(cfg, -bound_n), (g, s)
                checked += 1
    assert checked > 200_000


@pytest.mark.parametrize("g, s, expected", [
    # the first two were recorded from a per-point enumeration of the region
    (10**6, 1, (999991, DivisorClass(1, 0), 2, 2, 499999, True)),
    (300000, 5, (299987, DivisorClass(1, 0), 1, 2, 149999, True)),
    (10**30, 1, (10**30 - 9, DivisorClass(1, 0), 2, 2, (10**30 - 1) // 2, True)),
])
def test_verify_clifford_large_genus(g, s, expected):
    cfg = K3Config(g, s)
    rep = verify_clifford(cfg)
    assert (rep.min_value, rep.argmin, rep.region_size, rep.bound_n,
            rep.target, rep.passed) == expected
    assert _c1_fails_on_c2_strip(cfg, rep.bound_n)
    assert _c1_fails_on_c2_strip(cfg, -rep.bound_n)


def test_clifford_report_internal_invariants():
    for g, s in [(19, 1), (12, -1), (14, 0), (16, 1), (40, 2), (121, 4)]:
        cfg = K3Config(g, s)
        rep = verify_clifford(cfg)
        assert rep.target == (g - 1) // 2
        if rep.argmin is None:
            assert rep.min_value is None and rep.region_size == 0 and rep.passed
        else:
            assert all(constraints(cfg, rep.argmin.m, rep.argmin.n))
            assert rep.min_value == f_value(cfg, rep.argmin.m, rep.argmin.n)
            assert rep.passed == (rep.min_value >= rep.target)


def test_brute_force_tiny_box():
    rep = brute_force_min_f(K3Config(19, 1), 1)
    assert rep.region_size <= 9
    with pytest.raises(ValueError):
        brute_force_min_f(K3Config(19, 1), 0)
