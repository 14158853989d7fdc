"""Exact decision procedures for integer binary quadratic forms.

Everything here runs on arbitrary-precision integers; no floating point
enters any decision path.  The central operation, :func:`represents`,
decides completely whether an indefinite anisotropic form takes a target
value in {-2, -1, 1, 2}.  It returns an explicit witness, a modular
obstruction, or a proof of non-representability.

The complete decision works by proper-equivalence testing: a form with
nonsquare discriminant D represents t primitively exactly when it is
properly equivalent to some form (t, B, C) with B^2 = D (mod 4t) and
0 <= B < 2|t|.  Genus characters are compared first: at an odd prime
p | D every form properly equivalent to (t, B, C) takes t mod p, so a form
that does not is in another genus and is settled without a walk (Cox,
*Primes of the Form x^2 + ny^2*, sec. 3; Buchmann & Vollmer, *Binary
Quadratic Forms*, 2007).  Otherwise proper equivalence of indefinite
forms is decided on reduction cycles, with the SL2 transforms tracked so
that a concrete witness can be read off and re-verified before it is
returned.  For |t| in {1, 2} every representation is automatically
primitive, which is what makes the decision complete.

The cycle is walked once.  The transform of the walk is the product of
one shear [[0, -1], [1, s]] per step; runs of _LEAF shears are multiplied
into a leaf by a 4-tuple update, and the leaves into a balanced product
tree (Bernstein, "Fast multiplication and its applications", 2008) kept
as a binary-counter stack of O(log steps) partial products.  Its cost is
near-linear in the witness size, where multiplying one shear at a time
is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, isqrt, prod
from typing import Sequence

DEFAULT_MODULI: tuple[int, ...] = (3, 4, 5, 8, 9, 16)

# Odd primes below 1000, for the genus characters; their product lets one gcd
# skip a discriminant with no small odd factor.
_GENUS_PRIMES: tuple[int, ...] = tuple(
    p for p in range(3, 1000, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2)))
_GENUS_PRODUCT = prod(_GENUS_PRIMES)

_Form = tuple[int, int, int]
_Mat = tuple[int, int, int, int]  # row-major [[p, q], [r, s]]

_IDENTITY: _Mat = (1, 0, 0, 1)


def integer_sqrt(n: int) -> int | None:
    """Return the r >= 0 with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        raise ValueError(f"integer_sqrt requires n >= 0, got {n}")
    r = isqrt(n)
    return r if r * r == n else None


def int_text(x: int) -> str:
    """The decimal form of x, or "<N-bit integer>" when x has more digits than
    the interpreter converts to text (sys.get_int_max_str_digits)."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


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
    witness: tuple[int, int] | None = None
    modulus: int | None = None

    @property
    def method(self) -> DecisionMethod:
        """The residue scan settles exactly the obstructed outcomes; every
        other outcome comes from the proper-equivalence decision, which
        compares genus characters and then walks the reduction cycle."""
        if self.status is DecisionStatus.OBSTRUCTED_MOD:
            return DecisionMethod.MOD_SCAN
        return DecisionMethod.PELL_SEARCH

    @classmethod
    def witness_of(cls, m: int, n: int) -> "RepDecision":
        return cls(DecisionStatus.WITNESS, witness=(m, n))

    @classmethod
    def obstructed(cls, modulus: int) -> "RepDecision":
        return cls(DecisionStatus.OBSTRUCTED_MOD, modulus=modulus)

    @classmethod
    def none_proved(cls) -> "RepDecision":
        return cls(DecisionStatus.NONE_PROVED)

    def describe(self) -> str:
        if self.status is DecisionStatus.WITNESS:
            assert self.witness is not None
            return f"Witness({int_text(self.witness[0])}, {int_text(self.witness[1])})"
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
    """Reduce to a reduced form, tracking the accumulated SL2 transform.

    The number of rho steps is logarithmic in |c| / sqrt(D) (Buchmann &
    Vollmer, *Binary Quadratic Forms*, 2007, ch. 6), so the loop needs no cap."""
    m = _IDENTITY
    current = form
    while not _is_reduced(current, D, root):
        current, s = _rho(current, D, root)
        m = _matmul(m, (0, -1, 1, s))
    return current, m


# Shears per leaf of the product tree.  A leaf is built by a 4-tuple update
# per step, which is cheaper than a 2x2 product while its entries are small.
_LEAF = 32


def _leaf_product(shears: Sequence[int]) -> _Mat:
    """The product of the shears [[0, -1], [1, s]] in order, by direct update."""
    p, q, r, t = _IDENTITY
    for s in shears:
        p, q, r, t = q, s * q - p, t, s * t - r
    return p, q, r, t


def _push_leaf(stack: list[tuple[int, _Mat]], leaf: _Mat) -> None:
    """Append a leaf to a binary-counter stack of (leaf count, product) pairs.

    Partial products of equal leaf counts are merged as they meet, so the
    product tree stays balanced, the counts on the stack strictly decrease
    and the stack holds O(log leaves) entries."""
    size = 1
    while stack and stack[-1][0] == size:
        leaf = _matmul(stack.pop()[1], leaf)
        size *= 2
    stack.append((size, leaf))


def _fold(stack: list[tuple[int, _Mat]], last: _Mat) -> _Mat:
    """The product of the stack's entries, oldest first, times `last`."""
    for _, m in reversed(stack):
        last = _matmul(m, last)
    return last


def _cycle_hit(start: _Form, targets: dict[_Form, _Mat],
               D: int, root: int) -> tuple[_Form, _Mat] | None:
    """Walk the reduction cycle of `start` once.

    Returns the first target form met and the transform that takes `start`
    to it, or None once the walk is back at `start` without a hit.  The
    transform is assembled as the walk goes: shears in leaves of _LEAF,
    leaves in a balanced product tree kept on a binary-counter stack."""
    if start in targets:
        return start, _IDENTITY
    target_bs = {form[1] for form in targets}
    a0, b0, _ = start
    _, b, c = start
    stack: list[tuple[int, _Mat]] = []
    while True:
        shears = []
        for _ in range(_LEAF):
            # _rho, inlined: this loop is the cost of every open cell
            ac = abs(c)
            if ac > root:
                bp = (-b) % (2 * ac)
                if bp > ac:
                    bp -= 2 * ac
            else:
                bp = root - ((root + b) % (2 * ac))
            shears.append((b + bp) // (2 * c))
            a, b, c = c, bp, (bp * bp - D) // (4 * c)
            if b in target_bs and (a, b, c) in targets:
                return (a, b, c), _fold(stack, _leaf_product(shears))
            # ends: rho permutes the finite set of reduced forms of discriminant D (B&V ch. 6)
            if b == b0 and a == a0:
                return None
        _push_leaf(stack, _leaf_product(shears))


def _character_fails(form: _Form, t: int, p: int) -> bool:
    """For an odd prime p dividing the discriminant D and |t| in {1, 2}:
    True when the form never takes the value t mod p.

    4a*Q(m, n) = (2am + bn)^2 - D*n^2, so when p does not divide a, Q = t
    forces a*t to be a square mod p (Euler's criterion decides it).  When p
    divides a it divides b, and c plays the part of a.  When p divides a, b
    and c, Q = 0 mod p, which is never t."""
    a, _, c = form
    u = a if a % p else c
    return u % p == 0 or pow(u * t % p, (p - 1) // 2, p) == p - 1


def _genus_obstructed(form: _Form, t: int, D: int) -> bool:
    """True when a genus character at an odd prime p < 1000 dividing D shows
    that the form does not take t.  Forms in different genera are never
    equivalent (Cox, *Primes of the Form x^2 + ny^2*, sec. 3)."""
    common = gcd(D, _GENUS_PRODUCT)
    for p in _GENUS_PRIMES:
        if common == 1:
            return False
        if common % p == 0:
            if _character_fails(form, t, p):
                return True
            common //= p
    return False


def represents(f: QuadraticForm, t: int) -> RepDecision:
    """Complete decision of Q(m, n) = t for indefinite anisotropic forms.

    Requires |t| in {1, 2}; any representation of such a target is
    primitive since gcd(m, n)^2 divides t.  A cheap residue scan over
    DEFAULT_MODULI runs first and may certify an obstruction for any form;
    the complete proper-equivalence path additionally requires
    discriminant(f) > 0 and nonsquare, and settles the question either
    way.  A genus character at an odd prime p < 1000 dividing D that f
    fails proves that t is not represented.  Otherwise f and each form
    (t, B, C) are reduced, and one walk of f's cycle either meets a reduced
    target, whose transform the walk has assembled in a streaming product
    tree, or comes back to its start, which proves that t is not
    represented.  Returned witnesses are re-evaluated before being handed
    back.
    """
    if t == 0:
        raise ValueError("target 0 is decided by represents_zero_nontrivially")
    if abs(t) > 2:
        raise ValueError(f"complete decision covers |t| in {{1, 2}} only, got {t}")

    k = modular_obstruction(f, t)
    if k is not None:
        return RepDecision.obstructed(k)

    D = f.discriminant()
    if D <= 0:
        raise ValueError(f"represents requires an indefinite form, got discriminant {D}")
    root = isqrt(D)
    if root * root == D:
        raise ValueError(
            f"represents requires a nonsquare discriminant, got {D}; "
            "square discriminants factor into linear forms and belong to the zero test")
    form = (f.a, f.b, f.c)
    if _genus_obstructed(form, t, D):
        return RepDecision.none_proved()
    f_red, m_f = _reduce(form, D, root)
    targets: dict[_Form, _Mat] = {}
    four_t = 4 * t
    for B in range(2 * abs(t)):
        if (B * B - D) % four_t == 0:
            C = (B * B - D) // four_t
            g_red, m_g = _reduce((t, B, C), D, root)
            targets.setdefault(g_red, m_g)
    found = _cycle_hit(f_red, targets, D, root) if targets else None
    if found is not None:
        hit, m_cycle = found
        w = _matmul(_matmul(m_f, m_cycle), _inverse(targets[hit]))
        m, n = w[0], w[2]
        if f.evaluate(m, n) != t:
            raise RuntimeError("internal error: extracted witness failed re-evaluation")
        return RepDecision.witness_of(m, n)
    return RepDecision.none_proved()
