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

The residue scan that runs before all of this is memoised on the
coefficients and the target mod k, which is all its answer depends on.

The cycle is walked once, one division per step, and the walk only records
its quotients, so a walk that closes multiplies nothing.  After a hit, the
walk's transform, one shear [[0, -1], [1, s]] per step, is assembled in a
balanced product tree (Bernstein, "Fast multiplication and its
applications", 2008) whose right spine is applied to a column vector, as
only the witness is needed: near-linear in the witness size, where
multiplying one shear at a time is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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
    t is not represented over the integers.  The answer for one k depends
    only on the coefficients and t mod k, so it is memoised on those
    residues: a scan of K3 cells meets at most 451 distinct keys over
    DEFAULT_MODULI.
    """
    for k in moduli:
        if k < 2:
            raise ValueError(f"moduli must be >= 2, got {k}")
        if not _residue_hit(k, f.a % k, f.b % k, f.c % k, t % k):
            return k
    return None


@lru_cache(maxsize=4096)
def _residue_hit(k: int, a: int, b: int, c: int, want: int) -> bool:
    """True when a*m^2 + b*m*n + c*n^2 = want (mod k) for some residues m, n."""
    for m in range(k):
        am2, bm = a * m * m, b * m
        for n in range(k):
            if (am2 + (bm + c * n) * n) % k == want:
                return True
    return False


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
    p, q, r, t = _IDENTITY
    current = form
    while not _is_reduced(current, D, root):
        current, s = _rho(current, D, root)
        # times the shear [[0, -1], [1, s]], as in _leaf_product
        p, q, r, t = q, s * q - p, t, s * t - r
    return current, (p, q, r, t)


# Shears per leaf of the product tree.  A leaf is built by direct update,
# which is cheaper than a 2x2 product while its entries are small.
_LEAF = 32


def _leaf_product(shears: Sequence[int]) -> _Mat:
    """The product of the shears [[0, -1], [1, s]] in order, by direct update."""
    p, q, r, t = _IDENTITY
    for s in shears:
        p, q = q, s * q - p
        r, t = t, s * t - r
    return p, q, r, t


def _product(shears: Sequence[int]) -> _Mat:
    """The product of the shears [[0, -1], [1, s]] in order, as a balanced
    product tree over leaves of _LEAF shears (the last one 1 to _LEAF)."""
    if len(shears) <= _LEAF:
        return _leaf_product(shears)
    mid = -(-len(shears) // _LEAF) // 2 * _LEAF  # half of the leaves
    return _matmul(_product(shears[:mid]), _product(shears[mid:]))


def _apply(shears: Sequence[int], v: tuple[int, int]) -> tuple[int, int]:
    """The product of the shears in order times the column vector v: the
    right half is applied to v first, so along the right spine of the
    product tree only a vector is formed."""
    if len(shears) <= _LEAF:
        p, q, r, t = _leaf_product(shears)
    else:
        mid = -(-len(shears) // _LEAF) // 2 * _LEAF
        v = _apply(shears[mid:], v)
        p, q, r, t = _product(shears[:mid])
    x, y = v
    return p * x + q * y, r * x + t * y


def _cycle_hit(start: _Form, targets: dict[_Form, _Mat],
               root: int) -> tuple[_Form, list[int]] | None:
    """Walk the reduction cycle of `start` once: the first target form met
    and the shears s of the steps [[0, -1], [1, s]] that take `start` to it,
    or None once the walk is back at `start` without a hit.

    A reduced form (a, b, c) has ac < 0 and rho takes it to (c, b', c'), so
    the sign of a alternates.  The walk carries (A, b, C) = (2|a|, b, 2|c|):
    with q = (root + b) // C, rho gives b' = Cq - b, C' = A - q(b' - b) and
    the shear sign(c)*q.  It records q, rebuilds the signed form only where
    b' is that of a target or of `start`, and signs the shears after a hit."""
    if start in targets:
        return start, []
    a0, b0, c0 = start
    stops = {form[1] for form in targets} | {b0}
    sign = 1 if a0 > 0 else -1  # the sign of a after an even number of steps
    A, b, C = 2 * abs(a0), b0, 2 * abs(c0)
    quotients: list[int] = []
    record = quotients.append
    while True:
        q = (root + b) // C
        record(q)
        bp = C * q - b
        A, b, C = C, bp, A - q * (bp - b)
        if b in stops:
            u = -sign if len(quotients) % 2 else sign
            form = (u * (A >> 1), b, -u * (C >> 1))
            if form in targets:
                # sign(c) at step i is -sign * (-1)^i
                first = 0 if sign > 0 else 1
                quotients[first::2] = [-q for q in quotients[first::2]]
                return form, quotients
            # ends: rho permutes the finite set of reduced forms of discriminant D (B&V ch. 6)
            if form == start:
                return None


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
    DEFAULT_MODULI, memoised on residues, runs first and may certify an
    obstruction for any form; the complete proper-equivalence path
    additionally requires discriminant(f) > 0 and nonsquare, and settles
    the question either way.  A genus character at an odd prime p < 1000
    dividing D that f fails proves that t is not represented.  Otherwise f
    and each form (t, B, C) are reduced, and one walk of f's cycle either
    meets a reduced target, whose witness is then assembled from the walk's
    shears in a balanced product tree applied to a vector, or comes back to
    its start, which proves that t is not represented.  Returned witnesses
    are re-checked exactly before being handed back.
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
    found = _cycle_hit(f_red, targets, root) if targets else None
    if found is None:
        return RepDecision.none_proved()
    hit, shears = found
    m_g = targets[hit]
    # the first column of m_f * m_cycle * inverse(m_g)
    x, y = _apply(shears, (m_g[3], -m_g[2]))
    p, q, r, s = m_f
    m, n = p * x + q * y, r * x + s * y
    # 4a*Q(m, n) = (2am + bn)^2 - D*n^2, and a != 0 since D is not a square
    a = f.a
    if (2 * a * m + f.b * n) ** 2 - D * (n * n) != 4 * a * t:
        raise RuntimeError("internal error: extracted witness failed re-evaluation")
    return RepDecision.witness_of(m, n)
