from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from k3cert.bqf import DecisionStatus, integer_sqrt
from k3cert.certify import (
    CONCLUSION_APPLIES,
    CONCLUSION_FAILS,
    build_certificate,
    check_hypotheses,
    decide_conclusion,
    expected_dim_bn24,
    gap_lower_bound,
    lemma21_check,
)
from k3cert.clifford import gamma
from k3cert.lattice import (
    C,
    H,
    K3Config,
    minus_two_form,
    pair,
    square_zero_form,
    square_zero_status,
)


def test_check_hypotheses_examples():
    assert check_hypotheses(19, 1) == "strong"
    assert check_hypotheses(16, 1) == "relaxed"
    assert check_hypotheses(14, 1) == "outside"
    assert check_hypotheses(12, -1) == "strong"
    assert check_hypotheses(18, 1) == "strong"
    assert check_hypotheses(12, 0) == "outside"
    assert check_hypotheses(16, -1) == "strong"


def test_lemma21_check_examples():
    assert lemma21_check(14, 0) is True
    assert lemma21_check(19, 1) is True
    assert lemma21_check(10, -2) is False


def test_lemma21_sweep():
    for s in range(-1, 6):
        for g in range(max(4 * s + 14, 12), 301):
            assert lemma21_check(g, s), (g, s)


def test_delta_classification_matches_oracles():
    # build_certificate classifies Delta = d^2 - 12(g-1) once; lemma21_check
    # and square_zero_status decide the same two flags independently.
    kinds = set()
    for g in range(2, 301):
        for s in range(-3, 61):
            cfg = K3Config(g, s)
            delta = cfg.delta
            square = delta >= 0 and integer_sqrt(delta) is not None
            kinds.add("negative" if delta < 0 else "zero" if delta == 0
                      else "square" if square else "nonsquare")
            cert = build_certificate(g, s)
            assert (cert.lemma21_ok == cert.square_zero_free == lemma21_check(g, s)
                    == (not square_zero_status(cfg))), (g, s)
            assert (cert.minus_two is None) == (not (delta > 0 and not square)), (g, s)
            assert minus_two_form(cfg).discriminant() == delta
            assert square_zero_form(cfg).discriminant() == 4 * delta
    # Delta < 0, Delta = 0, square Delta > 0 and nonsquare Delta > 0 all occur
    assert kinds == {"negative", "zero", "square", "nonsquare"}


def test_expected_dim_examples():
    assert expected_dim_bn24(100, -1) == -7
    assert expected_dim_bn24(100, 1) == -15
    assert expected_dim_bn24(50, 0) == -11


@given(st.integers(2, 1000), st.integers(-50, 50))
def test_expected_dim_matches_general_count(g, s):
    d = g - s
    assert expected_dim_bn24(g, s) == 4 * (g - 1) + 1 - 4 * (4 - d + 2 * (g - 1))


def test_gap_examples():
    assert gap_lower_bound(19, 1) == 2
    assert gap_lower_bound(12, -1) == Fraction(1, 2)
    for g in range(12, 200, 2):
        assert gap_lower_bound(g, -1) == Fraction(1, 2)


@given(st.integers(4, 1000), st.integers(-1, 100))
def test_gap_positive_for_admissible_twists(g, s):
    assert gap_lower_bound(g, s) > 0


def test_gap_constant_per_parity():
    # for fixed s the bound depends only on the parity of g
    for s in (-1, 0, 3, 10):
        evens = {gap_lower_bound(g, s) for g in range(20, 200, 2)}
        odds = {gap_lower_bound(g, s) for g in range(21, 200, 2)}
        assert evens == {Fraction(s + 2, 2)}
        assert odds == {Fraction(s + 3, 2)}


# -- certificates ----------------------------------------------------------------

def test_build_certificate_19_1():
    cert = build_certificate(19, 1)
    assert cert.conclusion == CONCLUSION_APPLIES
    assert cert.regime == "strong"
    assert cert.d == 18
    assert cert.lemma21_ok and cert.square_zero_free
    assert cert.minus_two is not None and cert.minus_two.modulus == 3
    assert cert.clifford is not None and cert.clifford.passed
    assert cert.gamma1 == 9
    assert cert.gamma_E == 7
    assert cert.gap_lower_bound == 2
    assert cert.expected_dim == -15
    assert cert.lemma31_square == 6
    assert cert.h0_H_restricted == 5
    assert cert.reasons == ()


def test_build_certificate_16_1_relaxed():
    cert = build_certificate(16, 1)
    assert cert.conclusion == CONCLUSION_APPLIES
    assert cert.regime == "relaxed"
    assert cert.minus_two is not None and cert.minus_two.modulus == 3
    assert cert.clifford is not None and cert.clifford.min_value == 7


def test_build_certificate_14_1_fails():
    cert = build_certificate(14, 1)
    assert cert.conclusion == CONCLUSION_FAILS
    assert cert.regime == "outside"
    assert cert.minus_two is not None
    assert cert.minus_two.status is DecisionStatus.WITNESS
    assert cert.clifford is None
    assert len(cert.reasons) >= 2


def test_build_certificate_strong_cells_with_minus_two_class():
    for g, s in [(12, -1), (20, 0)]:
        cert = build_certificate(g, s)
        assert cert.regime == "strong"
        assert cert.minus_two.status is DecisionStatus.WITNESS
        assert cert.conclusion == CONCLUSION_FAILS


def test_build_certificate_huge_witness_2399_4():
    # the first scan cell whose witness passes the int-to-str digit limit
    cert = build_certificate(2399, 4)
    m, n = cert.minus_two.witness
    assert minus_two_form(K3Config(2399, 4)).evaluate(m, n) == -1
    assert m.bit_length() == n.bit_length() == 14779
    assert cert.reasons == (
        "a (-2)-class exists at (m, n) = (<14779-bit integer>, <14779-bit integer>)",)
    assert cert.conclusion == CONCLUSION_FAILS


def test_build_certificate_degenerate_discriminant():
    cert = build_certificate(10, -2)
    assert not cert.lemma21_ok and not cert.square_zero_free
    assert cert.minus_two is None and cert.clifford is None
    assert cert.conclusion == CONCLUSION_FAILS


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 120), st.integers(-10, 10))
def test_certificate_internal_consistency(g, s):
    cert = build_certificate(g, s)
    cfg = K3Config(g, s)
    assert cert.gamma_E == gamma(2, g - s, 4)
    assert cert.gap_lower_bound == Fraction(cert.gamma1) - cert.gamma_E
    assert cert.lemma31_square == pair(cfg, C - H, C - H)
    assert cert.expected_dim == -4 * s - 11
    if cert.conclusion == CONCLUSION_APPLIES:
        assert cert.reasons == ()
    else:
        assert cert.reasons


def test_conclusion_mutation():
    base = ("strong", True, True, True, True)
    assert decide_conclusion(*base) == CONCLUSION_APPLIES
    failing = ["outside", False, False, False, False]
    for i in range(5):
        mutated = list(base)
        mutated[i] = failing[i]
        assert decide_conclusion(*mutated) == CONCLUSION_FAILS, i
    # and the relaxed regime is as good as the strong one
    assert decide_conclusion("relaxed", True, True, True, True) == CONCLUSION_APPLIES


def test_gap_grows_along_admissible_family():
    # running maximum over admissible cells crosses every fixed threshold
    best = Fraction(0)
    crossed = {1: None, 5: None, 10: None, 50: None}
    for g in range(12, 1001):
        for s in range(-1, (g - 14) // 4 + 1):
            gap = gap_lower_bound(g, s)
            if gap > best:
                best = gap
                for m in crossed:
                    if crossed[m] is None and gap > m:
                        crossed[m] = (g, s)
    assert all(cell is not None for cell in crossed.values())
    assert best > 50
