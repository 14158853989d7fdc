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

from dataclasses import dataclass
from fractions import Fraction

from .bqf import DecisionStatus, RepDecision, int_text, integer_sqrt
from .clifford import CliffordReport, gamma, verify_clifford
from .lattice import K3Config, minus_two_status

REGIME_STRONG = "strong"
REGIME_RELAXED = "relaxed"
REGIME_OUTSIDE = "outside"

CONCLUSION_APPLIES = "theorem_applies"
CONCLUSION_FAILS = "hypotheses_fail"


def check_hypotheses(g: int, s: int) -> str:
    """Classify (g, s): strong when s >= -1 and g >= max(4s+14, 12),
    relaxed when s >= 1 and g = 4s+12, outside otherwise."""
    if s >= -1 and g >= max(4 * s + 14, 12):
        return REGIME_STRONG
    if s >= 1 and g == 4 * s + 12:
        return REGIME_RELAXED
    return REGIME_OUTSIDE


def lemma21_check(g: int, s: int) -> bool:
    """True when d^2 - 6(2g-2) is not a perfect square (d = g - s)."""
    v = (g - s) ** 2 - 6 * (2 * g - 2)
    return v < 0 or integer_sqrt(v) is None


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
    """floor((g-1)/2) - ((g-s)/2 - 2) as an exact rational; strictly positive
    whenever s >= -1."""
    gap = Fraction((g - 1) // 2) - (Fraction(g - s, 2) - 2)
    if s >= -1 and gap <= 0:
        raise AssertionError(f"gap bound must be positive for s >= -1, got {gap}")
    return gap


def decide_conclusion(regime: str, lemma21_ok: bool, square_zero_free: bool,
                      minus_two_ok: bool, clifford_pass: bool) -> str:
    """Pure aggregation: theorem_applies only when every flag is favourable."""
    ok = (regime != REGIME_OUTSIDE and lemma21_ok and square_zero_free
          and minus_two_ok and clifford_pass)
    return CONCLUSION_APPLIES if ok else CONCLUSION_FAILS


@dataclass(frozen=True)
class Certificate:
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

    Sub-operation precondition failures are folded into the reasons list,
    so any g >= 2 yields a full row of arithmetic fields.
    """
    cfg = K3Config(g, s)
    d = cfg.d
    reasons: list[str] = []

    regime = check_hypotheses(g, s)
    if regime == REGIME_OUTSIDE:
        reasons.append(f"(g, s) = ({g}, {s}) lies outside both hypothesis ranges")

    # Delta < 0 or nonsquare is both Lemma 2.1 and the absence of isotropic
    # classes: square_zero_form has discriminant 4 * Delta.
    delta = cfg.delta
    lemma21_ok = square_zero_free = delta < 0 or integer_sqrt(delta) is None
    if not lemma21_ok:
        reasons.append("d^2 - 6(2g-2) is a perfect square")
        reasons.append("an isotropic divisor class exists")

    minus_two: RepDecision | None = None
    if delta > 0 and lemma21_ok:
        minus_two = minus_two_status(cfg)
        if minus_two.status is DecisionStatus.WITNESS:
            m, n = minus_two.witness  # type: ignore[misc]
            reasons.append(f"a (-2)-class exists at (m, n) = ({int_text(m)}, {int_text(n)})")
    else:
        reasons.append("(-2)-class decision unavailable: d^2 - 12(g-1) is not positive nonsquare")
    minus_two_ok = minus_two is not None and minus_two.status is not DecisionStatus.WITNESS

    clifford: CliffordReport | None = None
    if minus_two_ok:
        clifford = verify_clifford(cfg)
        if not clifford.passed:
            reasons.append("constraint-region minimum falls below floor((g-1)/2)")
    clifford_pass = clifford is not None and clifford.passed

    gamma1 = (g - 1) // 2
    gamma_E = gamma(2, d, 4)
    conclusion = decide_conclusion(regime, lemma21_ok, square_zero_free,
                                   minus_two_ok, clifford_pass)
    return Certificate(
        g=g, s=s, d=d, regime=regime,
        lemma21_ok=lemma21_ok,
        square_zero_free=square_zero_free,
        minus_two=minus_two,
        clifford=clifford,
        gamma1=gamma1,
        gamma_E=gamma_E,
        gap_lower_bound=Fraction(gamma1) - gamma_E,
        expected_dim=expected_dim_bn24(g, s),
        lemma31_square=2 * s + 4,
        h0_H_restricted=5,
        conclusion=conclusion,
        reasons=tuple(reasons),
    )
