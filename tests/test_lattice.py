import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError
from math import gcd, isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3cert import bqf, lattice
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


def test_scan_residue_screen_is_the_residue_scan(monkeypatch):
    # the per-genus decision's three lookups give _obstruction((3, d, c), -1)
    # on every (d, c) mod 720, the lcm of DEFAULT_MODULI, and past them the
    # decision goes on
    walked = object()
    monkeypatch.setattr(lattice, "_unit_walk", lambda *args: walked)
    for c in range(720):
        decide = lattice._minus_two_genus(c + 1)
        for d in range(720):
            k = bqf._obstruction((3, d, c), -1)
            dec = decide(d, d * d - 12 * c, 0)
            if k is None:
                assert dec is walked or dec is bqf._NONE_PROVED, (d, c)
            else:
                assert dec == bqf.RepDecision.obstructed(k), (d, c)


def test_scan_genus_screen_is_the_genus_characters(monkeypatch):
    # with the residue screen off, the per-genus decision is NoneProved
    # without a walk exactly where a genus character at an odd prime p < 1000
    # fails; the cells include every class of g - 1 mod 3 with 3 | Delta,
    # Delta divisible by 983 = 2 (mod 3), and Delta whose odd prime factors
    # below 1000 are 997 and others = 1 (mod 3)
    walked = object()
    monkeypatch.setattr(lattice, "_unit_walk", lambda *args: walked)
    monkeypatch.setattr(lattice, "_residue_tables", lambda: (
        [[None] * 3] * 3, [[None] * 5] * 5, [[None] * 8] * 8))
    ones = prod(p for p in bqf._GENUS_PRIMES if p % 3 == 1)
    seen = Counter()
    for g in range(12, 3001):
        decide = lattice._minus_two_genus(g)
        for s in range(-1, 41):
            d = g - s
            delta = d * d - 12 * (g - 1)
            root = isqrt(delta) if delta > 0 else 0
            if delta <= 0 or root * root == delta:
                continue
            obstructed = bqf._genus_obstructed((3, d, g - 1), -1, delta)
            assert decide(d, delta, root) is (bqf._NONE_PROVED if obstructed else walked), (g, s)
            seen[f"3 | Delta, g - 1 = {(g - 1) % 3} (mod 3)"] += delta % 3 == 0
            seen["983 | Delta"] += delta % 983 == 0
            seen["997 | Delta, others = 1 (mod 3)"] += (
                delta % 997 == 0 and gcd(delta, bqf._GENUS_PRODUCT) == gcd(delta, ones))
    assert len(seen) == 5 and all(seen.values()), seen


def test_cli_import_builds_no_residue_table():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import k3cert.cli, k3cert.lattice as lattice; "
         "print(lattice._residue_tables.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
