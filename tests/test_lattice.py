from dataclasses import FrozenInstanceError
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3cert.bqf import DecisionStatus
from k3cert.lattice import (
    C,
    H,
    DivisorClass,
    K3Config,
    deg_C,
    deg_H,
    minus_two_form,
    minus_two_status,
    pair,
)

from delta_oracles import square_zero_form, square_zero_status

configs = st.builds(K3Config, g=st.integers(2, 400), s=st.integers(-30, 30))
classes = st.builds(DivisorClass, m=st.integers(-50, 50), n=st.integers(-50, 50))


def test_k3config_basics():
    cfg = K3Config(19, 1)
    assert cfg.d == 18
    with pytest.raises(ValueError):
        K3Config(1, 0)


def test_k3config_root():
    # root is isqrt(delta), and 0 when delta < 0
    for (g, s), delta, root in [((14, 10), -140, 0), ((4, -2), 0, 0), ((10, -2), 36, 6),
                                ((19, 1), 108, 10)]:
        cfg = K3Config(g, s)
        assert (cfg.delta, cfg.root) == (delta, root)
    for g in range(2, 200):
        for s in range(-40, 60):
            cfg = K3Config(g, s)
            assert cfg.root == (isqrt(cfg.delta) if cfg.delta >= 0 else 0), (g, s)
    # read-only, and no part of repr, equality or hashing
    cfg = K3Config(19, 1)
    with pytest.raises(FrozenInstanceError):
        cfg.root = 11
    object.__setattr__(cfg, "root", 11)
    assert repr(cfg) == "K3Config(g=19, s=1)"
    assert cfg == K3Config(19, 1) and hash(cfg) == hash(K3Config(19, 1))


def test_pair_examples():
    cfg = K3Config(14, 0)
    assert pair(cfg, H, H) == 6
    assert pair(cfg, C, C) == 26
    cfg = K3Config(14, 1)
    D = DivisorClass(-2, 1)
    assert pair(cfg, D, H) == 1
    assert pair(cfg, D, D) == -2


def test_degree_examples():
    assert deg_H(K3Config(14, 1), DivisorClass(-2, 1)) == 1
    assert deg_H(K3Config(19, 1), DivisorClass(0, 0)) == 0
    assert deg_H(K3Config(19, 1), DivisorClass(1, 1)) == 24
    assert deg_C(K3Config(19, 1), DivisorClass(0, 0)) == 0
    assert deg_C(K3Config(19, 1), DivisorClass(1, 0)) == 18


@given(configs, st.integers(-40, 40), st.integers(-40, 40))
def test_deg_C_of_C_minus_H_direction(cfg, m, n):
    # the class (-1, 1) pairs with C to g + s - 2
    assert deg_C(cfg, DivisorClass(-1, 1)) == cfg.g + cfg.s - 2


@given(configs, classes, classes)
def test_pair_symmetric(cfg, d1, d2):
    assert pair(cfg, d1, d2) == pair(cfg, d2, d1)


@given(configs, classes, classes, classes)
def test_pair_bilinear(cfg, d1, d2, d3):
    assert pair(cfg, d1 + d2, d3) == pair(cfg, d1, d3) + pair(cfg, d2, d3)
    assert pair(cfg, -d1, d3) == -pair(cfg, d1, d3)


@given(configs, classes)
def test_pair_even(cfg, dc):
    assert pair(cfg, dc, dc) % 2 == 0


@given(configs, classes)
def test_degrees_are_pairings(cfg, dc):
    assert deg_H(cfg, dc) == pair(cfg, dc, H)
    assert deg_C(cfg, dc) == pair(cfg, dc, C)


@given(configs, classes)
def test_minus_two_class_equivalence(cfg, dc):
    # D.D = -2  <=>  3m^2 + dmn + (g-1)n^2 = -1
    half = minus_two_form(cfg).evaluate(dc.m, dc.n)
    assert pair(cfg, dc, dc) == 2 * half
    assert (pair(cfg, dc, dc) == -2) == (half == -1)


def test_square_zero_examples():
    assert square_zero_status(K3Config(14, 0)) is False
    assert square_zero_status(K3Config(10, -2)) is True
    assert square_zero_status(K3Config(19, 1)) is False


def test_square_zero_strong_regime_sweep():
    for s in range(-1, 11):
        for g in range(max(4 * s + 14, 12), 401):
            assert square_zero_status(K3Config(g, s)) is False, (g, s)


def test_square_zero_form_coefficients():
    f = square_zero_form(K3Config(14, 0))
    assert (f.a, f.b, f.c) == (6, 28, 26)


def test_minus_two_examples():
    assert minus_two_status(K3Config(19, 1)).modulus == 3
    assert minus_two_status(K3Config(16, 1)).modulus == 3
    assert minus_two_status(K3Config(22, 1)).modulus == 3


def test_minus_two_witness_cases():
    # the boundary pair (14, 1) and two strong-regime pairs carry a class
    # with self-intersection -2; the decision must exhibit one
    for g, s in [(14, 1), (12, -1), (20, 0)]:
        cfg = K3Config(g, s)
        dec = minus_two_status(cfg)
        assert dec.status is DecisionStatus.WITNESS, (g, s, dec)
        m, n = dec.witness
        assert pair(cfg, DivisorClass(m, n), DivisorClass(m, n)) == -2
