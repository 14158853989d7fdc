"""Exact decision procedures for integer binary quadratic forms.

Everything here runs on arbitrary-precision integers; no floating point
enters any decision path.  The central operation, :func:`represents`,
decides completely whether an indefinite anisotropic form takes a target
value in {-2, -1, 1, 2}.  It returns an explicit witness, a modular
obstruction, or a proof of non-representability.

The complete decision works by proper-equivalence testing: a form with
nonsquare discriminant D represents t primitively exactly when it is
properly equivalent to some form (t, B, C) with B^2 = D (mod 4t) and
0 <= B < 2|t|.  Proper equivalence of indefinite forms is decided on
reduction cycles, with the SL2 transforms tracked so that a concrete
witness can be read off and re-verified before it is returned.  For
|t| in {1, 2} every representation is automatically primitive, which is
what makes the decision complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, isqrt
from typing import Sequence

DEFAULT_MODULI: tuple[int, ...] = (3, 4, 5, 8, 9, 16)

_Form = tuple[int, int, int]
_Mat = tuple[int, int, int, int]  # row-major [[p, q], [r, s]]

_IDENTITY: _Mat = (1, 0, 0, 1)


def integer_sqrt(n: int) -> int | None:
    """Return the r >= 0 with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        raise ValueError(f"integer_sqrt requires n >= 0, got {n}")
    r = isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class QuadraticForm:
    """The integer form a*m^2 + b*m*n + c*n^2."""

    a: int
    b: int
    c: int

    def evaluate(self, m: int, n: int) -> int:
        return self.a * m * m + self.b * m * n + self.c * n * n

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


class DecisionStatus(Enum):
    WITNESS = "witness"
    OBSTRUCTED_MOD = "obstructed_mod"
    NONE_PROVED = "none_proved"


class DecisionMethod(Enum):
    MOD_SCAN = "mod_scan"
    PELL_SEARCH = "pell_search"


@dataclass(frozen=True)
class RepDecision:
    """Outcome of a representability query, with its supporting evidence."""

    status: DecisionStatus
    method: DecisionMethod
    witness: tuple[int, int] | None = None
    modulus: int | None = None

    @classmethod
    def witness_of(cls, m: int, n: int,
                   method: DecisionMethod = DecisionMethod.PELL_SEARCH) -> "RepDecision":
        return cls(DecisionStatus.WITNESS, method, witness=(m, n))

    @classmethod
    def obstructed(cls, modulus: int) -> "RepDecision":
        return cls(DecisionStatus.OBSTRUCTED_MOD, DecisionMethod.MOD_SCAN, modulus=modulus)

    @classmethod
    def none_proved(cls,
                    method: DecisionMethod = DecisionMethod.PELL_SEARCH) -> "RepDecision":
        return cls(DecisionStatus.NONE_PROVED, method)

    @property
    def is_witness(self) -> bool:
        return self.status is DecisionStatus.WITNESS

    def describe(self) -> str:
        if self.status is DecisionStatus.WITNESS:
            assert self.witness is not None
            return f"Witness({self.witness[0]}, {self.witness[1]})"
        if self.status is DecisionStatus.OBSTRUCTED_MOD:
            return f"ObstructedMod({self.modulus})"
        return "NoneProved"


def zero_witness(f: QuadraticForm) -> tuple[int, int] | None:
    """A nontrivial integer zero of f, or None when only (0, 0) vanishes.

    Exists exactly when the discriminant is a perfect square (a degenerate
    or split form), or trivially when a = 0 or c = 0.  The witness comes
    from the linear factorisation 4a*Q = (2am + (b-r)n)(2am + (b+r)n).
    """
    if f.a == 0:
        return (1, 0)
    if f.c == 0:
        return (0, 1)
    disc = f.discriminant()
    if disc < 0:
        return None
    r = integer_sqrt(disc)
    if r is None:
        return None
    g = gcd(2 * f.a, f.b - r)
    m, n = (r - f.b) // g, (2 * f.a) // g
    if f.evaluate(m, n) != 0:
        raise RuntimeError("internal error: zero witness failed re-evaluation")
    return (m, n)


def represents_zero_nontrivially(f: QuadraticForm) -> bool:
    """True when Q(m, n) = 0 for some (m, n) != (0, 0)."""
    return zero_witness(f) is not None


def modular_obstruction(f: QuadraticForm, t: int,
                        moduli: Sequence[int] = DEFAULT_MODULI) -> int | None:
    """First modulus k for which Q(m, n) = t (mod k) has no solution, if any.

    Exhausts all residue pairs, so a returned modulus is a sound proof that
    t is not represented over the integers.
    """
    for k in moduli:
        if k < 2:
            raise ValueError(f"moduli must be >= 2, got {k}")
        want = t % k
        hit = False
        for m in range(k):
            for n in range(k):
                if f.evaluate(m, n) % k == want:
                    hit = True
                    break
            if hit:
                break
        if not hit:
            return k
    return None


def pell_fundamental(D: int) -> tuple[int, int]:
    """Least x, y > 0 with x^2 - D*y^2 = 1, for D > 0 nonsquare.

    Computed from the periodic continued fraction of sqrt(D); every
    convergent is tested exactly, so the first hit is the fundamental
    solution.
    """
    if D <= 0:
        raise ValueError(f"pell_fundamental requires D > 0, got {D}")
    a0 = isqrt(D)
    if a0 * a0 == D:
        raise ValueError(f"pell_fundamental requires a nonsquare D, got {D}")
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - D * q * q != 1:
        m = den * a - m
        den = (D - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


# -- reduction machinery for indefinite forms (nonsquare D > 0) --------------

def _matmul(x: _Mat, y: _Mat) -> _Mat:
    return (x[0] * y[0] + x[1] * y[2],
            x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2],
            x[2] * y[1] + x[3] * y[3])


def _inverse(m: _Mat) -> _Mat:
    # determinant is +1 for every transform we build
    return (m[3], -m[1], -m[2], m[0])


def _is_reduced(form: _Form, D: int, root: int) -> bool:
    # reduced <=> |sqrt(D) - 2|a|| < b < sqrt(D), decided by exact squarings
    a, b, _ = form
    if b <= 0 or b > root:
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= D:
        return False
    return t - b < 0 or (t - b) ** 2 < D


def _rho(form: _Form, D: int, root: int) -> tuple[_Form, int]:
    """One reduction/cycle step; returns the neighbour and the shear s of the
    applied transform [[0, -1], [1, s]]."""
    _, b, c = form
    ac = abs(c)
    two = 2 * ac
    if ac > root:
        bp = (-b) % two
        if bp > ac:
            bp -= two
    else:
        bp = root - ((root + b) % two)
    cp = (bp * bp - D) // (4 * c)
    s = (b + bp) // (2 * c)
    return (c, bp, cp), s


def _reduce(form: _Form, D: int, root: int) -> tuple[_Form, _Mat]:
    """Reduce to a reduced form, tracking the accumulated SL2 transform."""
    m = _IDENTITY
    current = form
    for _ in range(20000):
        if _is_reduced(current, D, root):
            return current, m
        current, s = _rho(current, D, root)
        m = _matmul(m, (0, -1, 1, s))
    raise RuntimeError(f"reduction of {form} (D={D}) did not terminate")


def _cycle_cap(D: int) -> int:
    return 50 * isqrt(D) + 10000


def _steps_to_target(start: _Form, targets: dict[_Form, _Mat],
                     D: int, root: int) -> int | None:
    """Walk the reduction cycle of `start`; number of steps to hit a target
    form, or None once the walk returns to `start` without a hit."""
    if start in targets:
        return 0
    current = start
    for steps in range(1, _cycle_cap(D)):
        current, _ = _rho(current, D, root)
        if current in targets:
            return steps
        if current == start:
            return None
    raise RuntimeError(f"cycle walk exceeded cap for D={D}")


def _walk(start: _Form, steps: int, D: int, root: int) -> tuple[_Form, _Mat]:
    m = _IDENTITY
    current = start
    for _ in range(steps):
        current, s = _rho(current, D, root)
        m = _matmul(m, (0, -1, 1, s))
    return current, m


def represents(f: QuadraticForm, t: int,
               moduli: Sequence[int] = DEFAULT_MODULI) -> RepDecision:
    """Complete decision of Q(m, n) = t for indefinite anisotropic forms.

    Requires |t| in {1, 2}; any representation of such a target is
    primitive since gcd(m, n)^2 divides t.  A cheap residue scan over
    `moduli` runs first and may certify an obstruction for any form; the
    complete proper-equivalence path additionally requires
    discriminant(f) > 0 and nonsquare, and settles the question either
    way.  Returned witnesses are re-evaluated before being handed back.
    """
    if t == 0:
        raise ValueError("target 0 is decided by represents_zero_nontrivially")
    if abs(t) > 2:
        raise ValueError(f"complete decision covers |t| in {{1, 2}} only, got {t}")

    k = modular_obstruction(f, t, moduli)
    if k is not None:
        return RepDecision.obstructed(k)

    D = f.discriminant()
    if D <= 0:
        raise ValueError(f"represents requires an indefinite form, got discriminant {D}")
    if integer_sqrt(D) is not None:
        raise ValueError(
            f"represents requires a nonsquare discriminant, got {D}; "
            "square discriminants factor into linear forms and belong to the zero test")

    root = isqrt(D)
    f_red, m_f = _reduce((f.a, f.b, f.c), D, root)
    targets: dict[_Form, _Mat] = {}
    four_t = 4 * t
    for B in range(2 * abs(t)):
        if (B * B - D) % four_t == 0:
            C = (B * B - D) // four_t
            g_red, m_g = _reduce((t, B, C), D, root)
            targets.setdefault(g_red, m_g)
    if targets:
        steps = _steps_to_target(f_red, targets, D, root)
        if steps is not None:
            hit, m_cycle = _walk(f_red, steps, D, root)
            w = _matmul(_matmul(m_f, m_cycle), _inverse(targets[hit]))
            m, n = w[0], w[2]
            if f.evaluate(m, n) != t:
                raise RuntimeError("internal error: extracted witness failed re-evaluation")
            return RepDecision.witness_of(m, n)
    return RepDecision.none_proved()
