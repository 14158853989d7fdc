"""Certificate assembly: evaluate every numeric hypothesis for a pair (g, s)
and aggregate the verdict.

A certificate records the hypothesis-range regime, the two discriminant
checks, the complete (-2)-class decision, the certified Clifford
minimization, and the derived quantities (gamma values, gap lower bound,
expected dimension).  The geometric existence statements behind the
construction are recorded assumptions, never recomputed here; theorem_applies
asserts exactly that every numerical hypothesis has been verified.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bqf import DecisionStatus, RepDecision, int_text
from .clifford import CliffordReport, verify_clifford
from .lattice import K3Config, minus_two_status

REGIME_STRONG = "strong"
REGIME_RELAXED = "relaxed"
REGIME_OUTSIDE = "outside"

CONCLUSION_APPLIES = "theorem_applies"
CONCLUSION_FAILS = "hypotheses_fail"


def check_hypotheses(g: int, s: int) -> str:
    """Classify (g, s): strong when s >= -1 and g >= max(4s+14, 12),
    relaxed when s >= 1 and g = 4s+12, outside otherwise."""
    if s >= -1 and g >= 4 * s + 14 and g >= 12:
        return REGIME_STRONG
    if s >= 1 and g == 4 * s + 12:
        return REGIME_RELAXED
    return REGIME_OUTSIDE


def expected_dim_bn24(g: int, s: int) -> int:
    """Expected dimension -4s - 11 of the locus of stable rank-2 degree-(g-s)
    bundles with at least 4 sections, cross-checked against the general
    count 4(g-1) + 1 - 4(4 - d + 2(g-1))."""
    d = g - s
    general = 4 * (g - 1) + 1 - 4 * (4 - d + 2 * (g - 1))
    value = -4 * s - 11
    if general != value:
        raise AssertionError(f"count mismatch at (g, s) = ({g}, {s}): {general} != {value}")
    return value


def gap_lower_bound(g: int, s: int) -> Fraction:
    """floor((g-1)/2) - ((g-s)/2 - 2), which is gamma1 - gamma_E, as an exact
    rational; strictly positive whenever s >= -1."""
    return Fraction(_twice_gap(g, s), 2)


def _twice_gap(g: int, s: int) -> int:
    """2 * gap_lower_bound(g, s), an int, with its positivity check; a scan
    row reads it."""
    twice_gap = 2 * ((g - 1) // 2) - (g - s) + 4
    if s >= -1 and twice_gap <= 0:
        raise AssertionError(
            f"gap bound must be positive for s >= -1, got {Fraction(twice_gap, 2)}")
    return twice_gap


def decide_conclusion(regime: str, lemma21_ok: bool, square_zero_free: bool,
                      minus_two_ok: bool, clifford_pass: bool) -> str:
    """Pure aggregation: theorem_applies only when every flag is favourable."""
    ok = (regime != REGIME_OUTSIDE and lemma21_ok and square_zero_free
          and minus_two_ok and clifford_pass)
    return CONCLUSION_APPLIES if ok else CONCLUSION_FAILS


class Certificate(NamedTuple):
    """Full verdict record for one (g, s) pair.

    minus_two is None when the discriminant is degenerate (not positive
    nonsquare), clifford is None when the minimization was not run because
    a (-2)-class witness already defeats the hypotheses; in both cases a
    reason is recorded and the conclusion is hypotheses_fail.
    """

    g: int
    s: int
    d: int
    regime: str
    lemma21_ok: bool
    square_zero_free: bool
    minus_two: RepDecision | None
    clifford: CliffordReport | None
    gamma1: int
    gamma_E: Fraction
    gap_lower_bound: Fraction
    expected_dim: int
    lemma31_square: int
    h0_H_restricted: int
    conclusion: str
    reasons: tuple[str, ...]


def build_certificate(g: int, s: int) -> Certificate:
    """Run every check for (g, s) and assemble the certificate.

    Nothing is caught: a sub-operation whose precondition fails is skipped
    and a reason is recorded instead, so any g >= 2 yields a full row of
    arithmetic fields.  The (-2) decision is None where Delta is not
    positive nonsquare, and the Clifford report is None where it is not run
    because the decision found a (-2)-class.  Delta < 0 or nonsquare is both
    Lemma 2.1 and the absence of isotropic classes: the form
    D.D = 6m^2 + 2dmn + (2g-2)n^2 has discriminant 4 * Delta, so lemma21_ok
    and square_zero_free are one flag.
    """
    cfg = K3Config(g, s)
    d = cfg.d
    regime = check_hypotheses(g, s)
    delta_ok = cfg.root * cfg.root != cfg.delta
    minus_two = minus_two_status(cfg) if cfg.delta > 0 and delta_ok else None
    minus_two_ok = minus_two is not None and minus_two.status is not DecisionStatus.WITNESS
    clifford = verify_clifford(cfg) if minus_two_ok else None
    conclusion = decide_conclusion(regime, delta_ok, delta_ok, minus_two_ok,
                                   clifford is not None and clifford.passed)
    reasons: list[str] = []
    if regime == REGIME_OUTSIDE:
        reasons.append(f"(g, s) = ({g}, {s}) lies outside both hypothesis ranges")
    if not delta_ok:
        reasons.append("d^2 - 6(2g-2) is a perfect square")
        reasons.append("an isotropic divisor class exists")
    if minus_two is None:
        reasons.append("(-2)-class decision unavailable: d^2 - 12(g-1) is not positive nonsquare")
    elif minus_two.status is DecisionStatus.WITNESS:
        m, n = minus_two.witness
        reasons.append(f"a (-2)-class exists at (m, n) = ({int_text(m)}, {int_text(n)})")
    elif not clifford.passed:
        reasons.append("constraint-region minimum falls below floor((g-1)/2)")
    # gamma_E is clifford.gamma(2, d, 4), written out
    return Certificate(g, s, d, regime, delta_ok, delta_ok, minus_two, clifford, (g - 1) // 2,
                       Fraction(d - 4, 2), gap_lower_bound(g, s), expected_dim_bn24(g, s),
                       2 * s + 4, 5, conclusion, tuple(reasons))
