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
forms is decided on reduction cycles, with enough of the SL2 transforms
kept that a concrete witness can be read off and re-verified before it is
returned.  For |t| in {1, 2} every representation is automatically
primitive, which is what makes the decision complete.

represents, behind `check` and `form`, stops where the answer is known: at
an obstruction, at a closed cycle, or at the first target met, and only a
hit goes on to assemble a witness, from the quotients or strides that
reach the target.

A scan row shows only the decision's method, and its form family and
target -1 are fixed, so it takes the residue scan and genus characters
specialised to them (k3cert.lattice) and then the walk past _screen alone
(_unit_walk), on half of the target's cycle instead of f's.  Every
(t, B, C) with B = D (mod 2) is a translate of t0 = (t, b, c0), b the one
of root - 1 and root that has the parity of D.  t0 is reduced, and
rho(tau t0) = t0 (see below), so its cycle F_0 = t0, ..., F_(L-1) has
F_(L-1-k) = tau(F_k), and its only edges are at steps L/2 - 1 and L - 1.
f_red is on it exactly when f_red or tau(f_red) is among
F_0 ... F_(L/2-1), so that walk ends at the middle edge.

The cycle is walked one division per step, and the walk only records its
quotients, so a walk that closes multiplies nothing.  Where every target
(a, b, c) has a | b, as for |t| = 1, the walk reads half of an ambiguous
cycle off the other half (Buchmann & Vollmer, ch. 6).  tau(a, b, c) =
(c, b, a) conjugates the cycle step rho to its inverse, and a step that
keeps b (an edge) takes f_e to tau(f_e), so the form k + 1 steps past the
edge is rho^k tau f_e = tau rho^-k f_e = tau(f_(e-k)); and rho(c, b, a) =
(a, b, c) exactly when a | b, so such a target follows an edge.  The walk
appends the quotients before its first edge reversed, goes on from tau of
its start, and ends at its second edge.  Every witness is the first
column of one chain of transforms, f to f_red to the target met to
(t, B, C), multiplied out in Q(sqrt(D)) (_column).  A walk hit's middle
node is the walk's transform, its quotients signed into one shear
[[0, -1], [1, s]] per step and multiplied out in a balanced product tree
(Bernstein, "Fast multiplication and its applications", 2008): near-linear
in the witness size, where one shear at a time is quadratic.  The same tree
multiplies out the windows, h and a strided hit's last window below.  A
walk hit that never hands over has fewer than 2 * _handover(D) shears, as
the walk takes at most _handover(D) steps and its mirror appends fewer.

A walk that has not ended after _handover(D) steps, the larger of
_SWITCH // 2 and a window's worth of steps, W, worked out once before the
walk, goes on with giant strides (baby steps and giant steps on the
cycle's infrastructure, Shanks 1972):
composition with the principal form h three quarters of a window along the
principal cycle, and reduction, jump that far along the cycle at once, with
an exact transform.  Each target, and the start of the cycle, has one window
of W consecutive forms.  For |t| = 1 one of them starts at t0, the reduced
principal form or its image with a and c negated, which rho moves in
lockstep, so h is read off that window and the principal cycle is not
walked again.  The strides start at the last form of the start window: one
that lands in a target's window has met the first target, and one that
lands in the start window has gone round the cycle; the decision ends at
that landing.  A stride's transform is the walk's only up to sign,
which depends on the number of steps mod 4, so the assembly of a strided
hit counts its steps: a cycle walk goes on to the target, recording
nothing, and where the target follows an edge it jumps to tau of the start
at the first edge it meets.  A strided hit's middle nodes are the walk's
exact transform to the first stride and the strides.  A stride that is not
certified hands back to the walk, as the first one does where the principal
cycle is shorter than h's three quarters of a window.  The half walk of
t0's cycle hands over to the same strides, with f_red and tau(f_red) as its
targets, and takes only their decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt, prod
from sys import maxsize
from typing import Collection, NamedTuple, Sequence

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


class RepDecision(NamedTuple):
    """Outcome of a representability query, with its supporting evidence."""

    status: DecisionStatus
    witness: tuple[int, int] | None = None
    modulus: int | None = None

    @classmethod
    def witness_of(cls, m: int, n: int) -> "RepDecision":
        return cls(DecisionStatus.WITNESS, (m, n))

    @classmethod
    def obstructed(cls, modulus: int) -> "RepDecision":
        return cls(DecisionStatus.OBSTRUCTED_MOD, None, modulus)

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


# the decisions that carry no witness, built once and shared, since a
# decision is immutable and a scan takes one per cell; _REPRESENTED is
# _unit_walk's hit, which has none
_REPRESENTED = RepDecision(DecisionStatus.WITNESS)
_NONE_PROVED = RepDecision(DecisionStatus.NONE_PROVED)
_OBSTRUCTED = {k: RepDecision.obstructed(k) for k in DEFAULT_MODULI}


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


def modular_obstruction(f: QuadraticForm, t: int) -> int | None:
    """First modulus k in DEFAULT_MODULI for which Q(m, n) = t (mod k) has
    no solution, if any.

    Exhausts all residue pairs, so a returned modulus is a sound proof that
    t is not represented over the integers.  The answer for one k depends
    only on the coefficients and t mod k, so it is memoised on those
    residues; the tables of a scan's (-2) screen read 98 of them, at k = 3,
    5 and 8.
    """
    return _obstruction((f.a, f.b, f.c), t)


def _obstruction(form: _Form, t: int) -> int | None:
    """modular_obstruction of the form (a, b, c)."""
    a, b, c = form
    for k in DEFAULT_MODULI:
        if not _residue_hit(k, a % k, b % k, c % k, t % k):
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


# -- reduction machinery for indefinite forms (nonsquare D > 0) --------------

def _matmul(x: _Mat, y: _Mat) -> _Mat:
    return (x[0] * y[0] + x[1] * y[2],
            x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2],
            x[2] * y[1] + x[3] * y[3])


def _reduce(form: _Form, D: int, root: int) -> tuple[_Form, _Mat]:
    """Reduce to a reduced form, tracking the accumulated SL2 transform.

    (a, b, c) is reduced when |sqrt(D) - 2|a|| < b < sqrt(D), decided by
    exact squarings.  Until it is, one step of rho takes the form to
    (c, b', c') with b' = -b (mod 2|c|), in (-|c|, |c|] while |c| > sqrt(D)
    and in (isqrt(D) - 2|c|, isqrt(D)] otherwise, and applies the shear
    [[0, -1], [1, s]] with s = (b + b') / (2c).

    The number of rho steps is logarithmic in |c| / sqrt(D) (Buchmann &
    Vollmer, *Binary Quadratic Forms*, 2007, ch. 6): while |c| > sqrt(D),
    |b'| <= |c| gives |c'| = |b'^2 - D|/(4|c|) <= |c|/4; a step from
    |c| < sqrt(D) gives sqrt(D) - 2|c| < b' < sqrt(D), so a reduced form
    unless 2|c| > sqrt(D), and then |c'| < sqrt(D)/2 and one more step ends.
    So at most bit_length(|c|) + 4 steps are taken; the bound is worked out
    only past 40 steps, which no reduction of a |c| under 2^36 takes."""
    p, q, r, t = _IDENTITY
    a, b, c = form
    steps = 0
    while True:
        if 0 < b <= root:
            u = 2 * abs(a)
            if (u + b) ** 2 > D and (u < b or (u - b) ** 2 < D):
                return (a, b, c), (p, q, r, t)
        steps += 1
        if steps > 40 and steps > abs(form[2]).bit_length() + 4:
            raise RuntimeError("internal error: the reduction ran past its bound")
        ac = abs(c)
        two = 2 * ac
        if ac > root:
            bp = (-b) % two
            if bp > ac:
                bp -= two
        else:
            bp = root - ((root + b) % two)
        s = (b + bp) // (2 * c)
        a, b, c = c, bp, (bp * bp - D) // (4 * c)
        # times the shear [[0, -1], [1, s]], as in a leaf of _product
        p, q, r, t = q, s * q - p, t, s * t - r


# Shears per leaf of the product tree.  A leaf is built by direct update,
# which is cheaper than a 2x2 product while its entries are small.
_LEAF = 32


def _product(shears: Sequence[int]) -> _Mat:
    """The product of the shears [[0, -1], [1, s]] in order, as a balanced
    product tree over leaves of _LEAF shears (the last one 1 to _LEAF)."""
    if len(shears) > _LEAF:
        mid = -(-len(shears) // _LEAF) // 2 * _LEAF  # half of the leaves
        return _matmul(_product(shears[:mid]), _product(shears[mid:]))
    p, q, r, t = _IDENTITY
    for s in shears:
        p, q = q, s * q - p
        r, t = t, s * t - r
    return p, q, r, t


def _cycle_bound(root: int) -> int:
    """More steps than any reduction cycle of discriminant D has: a reduced
    form has 0 < b < sqrt(D) and 0 < |a| < sqrt(D) (B&V ch. 6), so there
    are fewer than 2*isqrt(D)**2 of them."""
    return 2 * root * root + 1


def _mirrors(targets: Collection[_Form]) -> bool:
    """True when every target (a, b, c) has a | b, so that each one follows
    an edge of its cycle and a walk to it may mirror (see _cycle_hit)."""
    return all(b % a == 0 for a, b, _ in targets)


def _cycle_hit(start: _Form, targets: Collection[_Form], root: int,
               limit: int | None = None) -> tuple[_Form, list[int]] | None:
    """Walk the reduction cycle of `start`: the first of the forms `targets`
    met and the quotients q of the steps that take `start` to it, or None
    once the walk has closed the cycle without a hit.  After `limit` // 2
    passes of two steps with neither (represents' limit is _handover(D)),
    the form reached (not a target) and the quotients to it; without a
    limit the walk stops at _cycle_bound.
    _signed turns the quotients into the shears s of the steps
    [[0, -1], [1, s]]; their number is the number of steps.

    A reduced form (a, b, c) has ac < 0 and rho takes it to (c, b', c'), so
    the sign of a alternates, and `start` can come back only after an even
    number of steps.  The walk carries (A, b, C) = (2|a|, b, 2|c|): with
    q = (root + b) // C, rho gives b' = Cq - b, C' = A - q(b' - b) and the
    shear sign(c)*q.  It takes two steps per pass, with A and C trading
    places after the first, records q, and rebuilds the signed form only
    where b' is that of a target or of `start`, or b' = b (after the first
    step of a pass from 2|c| = C' and 4|ac| = D - b'^2).

    A step that keeps b (an edge, at step e) takes f to tau(f) =
    (c, b, a), and past it the cycle is tau of the forms before it (see the
    module docstring): tau(start) is at step 2e + 1, and steps e + 1 ... 2e
    take the quotients of steps e - 1 ... 0, whose signs match by parity.
    So a cycle with an edge has two, half a cycle apart, and a target with
    a | b follows one.  When every target has a | b (_mirrors), the walk
    appends the reversed quotients at its first edge, goes on from
    tau(start), and closes the cycle at its second edge."""
    if start in targets:
        return start, []
    a0, b0, c0 = start
    D = b0 * b0 - 4 * a0 * c0
    stops = {form[1] for form in targets} | {b0}
    mirror = _mirrors(targets)
    sign = 1 if a0 > 0 else -1  # the sign of a after an even number of steps
    A, b, C = 2 * abs(a0), b0, 2 * abs(c0)
    tau = -sign, C, b0, A  # (sign, A, b, C) at tau(start); None once there
    quotients: list[int] = []
    record = quotients.append
    # repeat takes a C ssize_t count; maxsize passes outlast any real run
    passes = min((_cycle_bound(root) + 1) // 2, maxsize) if limit is None else limit // 2
    for _ in repeat(None, passes):
        q = (root + b) // C
        record(q)
        b1 = C * q - b
        A -= q * (b1 - b)
        if b1 in stops or b1 == b:
            form = (-sign * ((D - b1 * b1) // A >> 1), b1, sign * (A >> 1))
            if form in targets:
                return form, quotients
            if b1 == b and mirror:
                if tau is None:
                    return None
                quotients += quotients[-2::-1]
                (sign, A, b, C), tau = tau, None
                continue
        q = (root + b1) // A
        record(q)
        b = A * q - b1
        C -= q * (b - b1)
        if b in stops or b == b1:
            form = (sign * (A >> 1), b, -sign * (C >> 1))
            if form in targets:
                return form, quotients
            if b == b1 and mirror:
                if tau is None:
                    return None
                quotients += quotients[-2::-1]
                (sign, A, b, C), tau = tau, None
            # ends: rho permutes the finite set of reduced forms of
            # discriminant D (B&V ch. 6)
            elif form == start:
                return None
    if limit is None:
        raise RuntimeError("internal error: the cycle walk ran past the bound on the cycle length")
    return (sign * (A >> 1), b, -sign * (C >> 1)), quotients


def _signed(quotients: list[int], a: int) -> list[int]:
    """The shears, in place, of a walk with these quotients from a form whose
    first coefficient is a: sign(c) at step i is -sign(a) * (-1)^i."""
    first = 0 if a > 0 else 1
    quotients[first::2] = [-q for q in quotients[first::2]]
    return quotients


# -- giant strides ------------------------------------------------------------
#
# A walk that has not ended after _handover(D) steps is finished by Shanks's
# baby steps and giant steps on the infrastructure of the cycle (Shanks 1972;
# Jacobson & Williams, *Solving the Pell Equation*, 2009, ch. 10-11).
#
# A transform with first column (p, r) from a form (a, b, c) has
# lambda = p - r*omega, omega = (-b + sqrt(D))/(2a) the form's first root;
# lambda is multiplicative along a chain of transforms, and the transforms
# between two forms differ by the units of one whole cycle, lambda * eps^k,
# and by sign.  A forward walk has |lambda| < 1, shrinking with each step;
# its distance -ln|lambda| grows by less than the cycle's ln(eps) before
# the walk is back where it started.
#
# A stride composes a reduced form with the principal form h that is three
# quarters of a window along the cycle of the reduced (1, B, C), and reduces
# the composite: it lands on the same cycle about h's distance further on, and
# the composition gives an exact transform to the landing (_stride).  Each
# stride is certified, with integers only, to move forward by less than any
# window of consecutive forms: one at the start of the cycle and one after
# each reduced target (_certified); shorter than a cycle, its transform is
# then the walk's up to sign.  So a stride that passes a window's first
# form lands in that window.  The strides start at f_last, the last form of
# the start window, and the walk met no target in its first `walked` >= W
# steps, so no target window holds f_last or any form up to the first target:
# the first stride that lands in a target's window has passed the first
# target met, and one that lands in the start window has gone round the
# cycle past every target.  The decision ends there; its hit keeps the
# strides, after the walk's exact transform from f_red to f_last, as the
# middle nodes of its chain (_column).  A principal cycle of at most n_h
# forms wraps its window, so h is a whole cycle along, longer than the start
# window (every primitive cycle of D spans the same distance): _certified
# rejects the first stride, and the walk takes over, as after any rejection.
#
# A stride's transform is the walk's only up to sign, and the walk's sign
# depends on its number of steps mod 4, which no form shows.  So the
# assembly counts the steps to the target by a cycle walk from where the walk
# stopped, with no product and no quotients kept, which mirrors as the walk
# does where the target has a | b, jumping to tau(f_red) at step 2e + 1
# (_count_to), and fixes the sign of the product of the strides from that
# count (_signed_strides).
#
# A walk hands over once it has passed the start window, after
# _handover(D) = max(_SWITCH // 2, W) steps, W = min(_window_size(D), _SWITCH)
# the window; each walk works that number out once, before its loop, and
# walks it as a plain step count.  A mirrored walk may count one step
# fewer, and W is then cut to the steps walked.  Windows are capped at
# _SWITCH steps, so past g ~ 10^6, where 2 D^(1/4) > _SWITCH, they stop
# growing with D.

# The windows, their products and h cost about 1,500 recording walk steps
# at the check-witness benchmark's hand-overs (W = 92-342) and about 20,000
# at W ~ 2,000 (g ~ 10^6), and the scan-grid benchmark's half walks of the
# target's cycle (_unit_walk) all end within 881 steps, short of
# _SWITCH // 2.  Windows keep the _SWITCH cap: with the switch at 1,024, and
# so the cap, the g ~ 10^7 band took 20-40% longer.
_SWITCH = 2048


def _window_size(D: int) -> int:
    """Steps per window, about 2 D^(1/4), twice the square root of a
    typical cycle length ~ sqrt(D); at least 64."""
    return max(64, 2 * isqrt(isqrt(D)))


def _handover(D: int) -> int:
    """The steps a walk takes before the giant strides: max(_SWITCH // 2, W),
    W = min(_window_size(D), _SWITCH), so that it has passed the start
    window (see the comment above _SWITCH).  Each walk works it out once,
    before its loop, and takes _handover(D) // 2 passes of two steps; the
    number is even, as _SWITCH, _SWITCH // 2 and the window are."""
    return max(_SWITCH // 2, min(_window_size(D), _SWITCH))


def _window(start: _Form, steps: int,
            root: int) -> tuple[dict[int, int], list[int], _Form, bool]:
    """The step at which the first `steps` steps of rho from `start` reach
    each form (a, b, c), keyed by 2a*(root + 1) + b, the signed shears of
    those steps, the last form, and whether the walk stopped early because
    it was back at `start`."""
    a0, b0, c0 = start
    sign = 1 if a0 > 0 else -1
    A, b, C = 2 * abs(a0), b0, 2 * abs(c0)
    K = root + 1
    keys = {sign * A * K + b0: 0}
    quotients: list[int] = []
    record = quotients.append
    u = sign
    for step in range(1, steps + 1):
        q = (root + b) // C
        record(q)
        bp = C * q - b
        A, b, C = C, bp, A - q * (bp - b)
        u = -u
        if b == b0 and (u * (A >> 1), b, -u * (C >> 1)) == start:
            return keys, _signed(quotients, sign), start, True
        keys[u * A * K + b] = step
    return keys, _signed(quotients, sign), (u * (A >> 1), b, -u * (C >> 1)), False


def _reach(start: _Form, end: _Form, r_walk: int, root: int) -> int:
    """A bound L such that a forward transform (see _certified) is shorter
    than the walk from `start` to `end`, whose product of shears
    [[0, -1], [1, s]] has entry r_walk, when its entry r and the |a| of its
    ends satisfy |r|(isqrt(D) + 1) + |a| <= |a'| L.

    Any transform with first column (p, r) from (a, b, c) to (a', b', c')
    has conj(lambda) - lambda = r*sqrt(D)/a and |lambda conj(lambda)| = |a'/a|,
    so with |lambda| < 1, |lambda| > |a'|/(|r|(isqrt(D) + 1) + |a|) for the
    transform and |lambda| < |a_end|/(|r_walk| isqrt(D) - |a_start|) for the
    walk."""
    return (abs(r_walk) * root - abs(start[0])) // abs(end[0])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0, for b != 0."""
    g = gcd(a, b)
    x = pow(a // g, -1, abs(b) // g)  # 0 when |b| = g
    return g, x, (g - x * a) // b


def _stride(form: _Form, h: _Form, lam: tuple[int, int], D: int,
            root: int) -> tuple[_Form, int, int]:
    """The reduced form reached from the composite of the primitive `form`
    with the principal form h, and the first column (p, r) of a transform
    from `form` to it.

    h = P * M for a principal form P = (1, B, C) and lam = (X, Y) with
    lambda(M) = (X + Y*sqrt(D))/2.  The lattice [1, omega] of the Dirichlet
    composite (Cox, sec. 3) is e/lambda(M) times the form's, with
    e = gcd(a1, a2, (b1 + b2)/2), so a transform from `form` to the
    composite has lambda(M)/e, and reduction multiplies in its own.  Its
    middle coefficient B = b1 (mod 2a1/e), B = b2 (mod 2a2/e) and
    B^2 = D (mod 4a3) is unique mod 2|a3|, whatever the Bezout
    coefficients; b1 + b2 > 0, as the forms are reduced."""
    a1, b1, _ = form
    a2, b2, _ = h
    g, x1, y1 = _xgcd(a1, a2)
    e, x, w = _xgcd(g, (b1 + b2) // 2)
    B = (x * x1 * a1 * b2 + x * y1 * a2 * b1 + w * (b1 * b2 + D) // 2) // e
    a3 = a1 * a2 // (e * e)
    B %= 2 * abs(a3)
    landing, (p, _, r, _) = _reduce((a3, B, (B * B - D) // (4 * a3)), D, root)
    # lambda of the reduction is (Xr - r*sqrt(D))/(2*a3); multiply out
    X, Y = lam
    Xr = 2 * a3 * p + r * B
    Z = Y * Xr - X * r
    den = 4 * e * a3
    return landing, (X * Xr - Y * (r * D) + Z * b1) // den, -2 * a1 * Z // den


def _certified(form: _Form, landing: _Form, p: int, r: int, root: int, reach: int) -> bool:
    """True when the transform with first column (p, r) from `form` to
    `landing` is forward, |lambda| < 1, and shorter than every window, the
    least _reach of the windows being `reach`.

    lambda = (X - r*sqrt(D))/(2a) with X = 2ap + rb; when X and r share a
    sign, |conj(lambda)| > |r| isqrt(D)/(2|a|), and lambda conj(lambda) = a'/a
    bounds |lambda| by 2|a'|/(|r| isqrt(D))."""
    X = 2 * form[0] * p + r * form[1]
    R = abs(r)
    return (X != 0 and r != 0 and (X > 0) == (r > 0) and 2 * abs(landing[0]) < R * root
            and R * (root + 1) + abs(form[0]) <= abs(landing[0]) * reach)


def _walk_sign(a: int, steps: int) -> int:
    """The sign of lambda over `steps` steps of rho from a form whose first
    coefficient is a: each step gives -sign(a), and a alternates."""
    sign = (-1 if a > 0 else 1) if steps % 2 else 1
    return -sign if steps * (steps - 1) // 2 % 2 else sign


_Node = tuple[_Form, int, int]  # a transform: its start form and first column
_Window = tuple[dict[int, int], _Form, list[int]]  # keys -> step, target, shears
# a hit met by giant strides: the arguments of _signed_strides between f_red
# and root
_Strided = tuple[int, _Form, list[_Node], _Form, int, _Form, list[int]]


def _landed(landing: _Form, windows: list[_Window], start: dict[int, int],
            K2: int) -> tuple[tuple[int, _Form, list[int]] | None, bool]:
    """Where a stride landed: the (step, target, shears) of the target
    window that holds `landing` furthest from its target, whose target is
    then the first met, or None; and whether the window at the start of the
    cycle holds it."""
    a, b, _ = landing
    key = a * K2 + b  # one key to a reduced form, as 0 < b <= root
    met = max(((win[key], g, shears) for win, g, shears in windows if key in win), default=None)
    return met, key in start


def _giant(f_red: _Form, end: _Form, walked: int, targets: Collection[_Form],
           D: int, root: int) -> tuple[_Form, list[int] | _Strided] | None:
    """Finish by giant strides the walk of the cycle of f_red, which reached
    `end` after `walked` steps and met neither a target nor f_red again.

    Returns None when no target is on the cycle; else the first target met
    and how it was reached, for one chain (_column): the strides, for
    _signed_strides, or the quotients from `end` of the plain walk
    (_cycle_hit), which takes over where a stride is not certified, as on a
    principal cycle of at most n_h forms, or f_red is not primitive, as
    composition needs, and ends within one cycle."""
    if gcd(*f_red) != 1:
        return _cycle_hit(end, targets, root)
    W = min(_window_size(D), _SWITCH, walked)
    K2 = 2 * (root + 1)
    start_keys, fshears, f_last, _ = _window(f_red, W, root)
    walks = [(f_red, fshears, f_last)]
    windows: list[_Window] = []
    for g in targets:
        gkeys, gshears, g_last, g_closed = _window(g, W, root)
        if not g_closed:  # else its cycle is shorter than f_red's
            windows.append((gkeys, g, gshears))
            walks.append((g, gshears, g_last))
    if not windows:
        return None
    # h is the form n_h steps along the principal cycle from p_red, the
    # reduced (1, B, C), and M the transform to it from (1, B, C), m_p times
    # the product P of those steps' shears.  A window from p_red holds them,
    # and one from N(p_red), N(a, b, c) = (-a, b, -c), holds their images
    # under N: rho commutes with N and negates its shears, so a product of k
    # of them is (-1)^k J P J, J = diag(1, -1).  Every |t| = 1 hand-over
    # walks one of the two (t0 is +-p_red); one with neither, as at |t| = 2,
    # walks the principal window itself
    n_h = 3 * W // 4
    B = D & 1
    p_red, m_p = _reduce((1, B, (B * B - D) // 4), D, root)
    a, b, c = p_red
    principal = p_red, (-a, b, -c)
    P = None
    products = []
    for g, shears, _ in walks:
        if P is None and g in principal:
            P = _product(shears[:n_h])
            products.append(_matmul(P, _product(shears[n_h:])))
            if g != p_red:
                p, q, r, s = P
                P = (p, -q, -r, s) if n_h % 2 == 0 else (-p, q, r, -s)
        else:
            products.append(_product(shears))
    # each window's r bounds the strides, and the start window's first
    # column is the head node's
    reach = min(_reach(g, last, m[2], root) for (g, _, last), m in zip(walks, products))
    p_f, _, r_f, _ = products[0]
    if P is None:
        P = _product(_window(p_red, n_h, root)[1])
    p, q, r, s = P
    h = (a * p * p + b * p * r + c * r * r, 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
         a * q * q + b * q * s + c * s * s)  # p_red(P(x, y))
    M = _matmul(m_p, P)
    lam = (2 * M[0] + M[2] * B, -M[2])
    # strides from f_last (see the comment above _SWITCH); each moves at
    # least one step, and a cycle has fewer than _cycle_bound forms (capped
    # at maxsize, repeat's C ssize_t count)
    strides: list[_Node] = []
    form = f_last
    for _ in repeat(None, min(_cycle_bound(root), maxsize)):
        landing, p, r = _stride(form, h, lam, D, root)
        if not _certified(form, landing, p, r, root, reach):
            return _cycle_hit(end, targets, root)
        strides.append((form, p, r))
        met, closed = _landed(landing, windows, start_keys, K2)
        if met is not None:
            return met[1], (walked, end, [(f_red, p_f, r_f), *strides], landing, *met)
        if closed:
            return None
        form = landing
    raise RuntimeError("internal error: the giant strides ran past the bound on the cycle length")


def _signed_strides(f_red: _Form, walked: int, end: _Form, strides: list[_Node],
                    landing: _Form, j: int, g: _Form, shears: list[int],
                    root: int) -> list[_Node]:
    """The walk's transform from f_red to g, the first target on its cycle,
    which the last of `strides` from f_red passed to land j steps after it;
    the walk reached `end` after `walked` steps.

    It is the product of the strides and of the inverse of g's first j
    steps, up to the sign of the strides: rho steps from a form with first
    coefficient a give lambda the sign _walk_sign(a, steps), and a stride
    from (a, b, c) to (a', b', c') with entry r has the sign of a'r, since
    lambda is small beside conj(lambda) - lambda = r*sqrt(D)/a.  That holds
    for the first node too, the walk's own transform to the start of the
    strides: |lambda| < 1 <= |r| < |r|sqrt(D)/|a| for a reduced form.  So only
    the number of steps from f_red to g is needed: `walked` and those of the
    walk from `end` to g (_count_to)."""
    steps = _count_to(f_red, walked, end, g, root)
    M = _product(shears[:j])
    sign = _walk_sign(g[0], j)
    for k, (start, p, r) in enumerate(strides):
        to = strides[k + 1][0] if k + 1 < len(strides) else landing
        sign *= 1 if (to[0] > 0) == (r > 0) else -1
    if sign != _walk_sign(f_red[0], steps):
        start, p, r = strides[0]
        strides[0] = (start, -p, -r)
    return [*strides, (landing, M[3], -M[2])]  # the first column of inverse(M)


def _count_to(f_red: _Form, walked: int, end: _Form, g: _Form, root: int) -> int:
    """The number of steps of rho from f_red to g, a reduced form on its
    cycle, which the walk reached `end` after `walked` steps from f_red
    without meeting.

    The walk from `end` records nothing and compares the form with g at
    each step whose b is g's.  Where g has a | b it follows an edge (see
    _cycle_hit), and at the first edge the walk meets, at step e, it goes on
    from tau(f_red) at step 2e + 1.  Where the walk to `end` had passed the
    cycle's first edge, this is the second, which g follows; else g follows
    it or the next edge.  tau(f_red) is 2e + 1 steps from f_red, up to whole
    cycles, at either edge, so a miss at both edges met, or a walk back at
    `end`, puts g off the cycle."""
    a0, b0, c0 = end
    sign = 1 if a0 > 0 else -1
    A, b, C = 2 * abs(a0), b0, 2 * abs(c0)
    a_f, b_f, c_f = f_red
    b_g = g[1]
    mirror = _mirrors((g,))
    tau = (-1 if a_f > 0 else 1), 2 * abs(c_f), b_f, 2 * abs(a_f)  # None once there
    n = walked
    for _ in repeat(None, min(_cycle_bound(root) // 2 + 1, maxsize)):
        q = (root + b) // C
        b1 = C * q - b
        A -= q * (b1 - b)
        if b1 == b_g and (-sign * (C >> 1), b1, sign * (A >> 1)) == g:
            return n + 1
        if b1 == b and mirror:  # an edge at step n, to (c, b, a)
            if tau is None:
                break
            n, (sign, A, b, C), tau = 2 * n + 1, tau, None
            continue
        q = (root + b1) // A
        b = A * q - b1
        C -= q * (b - b1)
        if b == b_g and (sign * (A >> 1), b, -sign * (C >> 1)) == g:
            return n + 2
        if b == b1 and mirror:  # an edge at step n + 1
            if tau is None:
                break
            n, (sign, A, b, C), tau = 2 * n + 3, tau, None
            continue
        n += 2
        if b == b0 and (sign * (A >> 1), b, -sign * (C >> 1)) == end:
            break
    raise RuntimeError("internal error: the counting walk closed without meeting the target")


def _column(nodes: Sequence[_Node], D: int) -> tuple[int, int]:
    """The first column (p, r) of the product of the transforms of `nodes`.

    A transform with first column (p, r) from (a, b, c) has
    lambda = (X + Y*sqrt(D))/(2a) with X = 2ap + rb and Y = -r, and lambda
    is multiplicative along a chain of transforms, so the product is a
    balanced tree of products in Q(sqrt(D)): three big multiplications per
    node, where a product of 2x2 matrices takes eight."""
    (a, b, _), _, _ = nodes[0]
    X, Y = _lambda(nodes, D)
    return (X + Y * b) // (2 * a), -Y


def _lambda(nodes: Sequence[_Node], D: int) -> tuple[int, int]:
    """(X, Y) of the product of the transforms of `nodes` (see _column)."""
    if len(nodes) == 1:
        (a, b, _), p, r = nodes[0]
        return 2 * a * p + r * b, -r
    mid = len(nodes) // 2
    X, Y = _lambda(nodes[:mid], D)
    X2, Y2 = _lambda(nodes[mid:], D)
    xx, yy = X * X2, Y * Y2
    cross = (X + Y) * (X2 + Y2) - xx - yy
    den = 2 * nodes[mid][0][0]
    return (xx + D * yy) // den, cross // den


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
    # a product of distinct primes: once p * p > common, what is left is 1 or a prime
    common = gcd(D, _GENUS_PRODUCT)
    for p in _GENUS_PRIMES:
        if p * p > common:
            break
        if common % p == 0:
            if _character_fails(form, t, p):
                return True
            common //= p
    return common > 1 and _character_fails(form, t, common)


def _screen(form: _Form, t: int, D: int, root: int) -> RepDecision | None:
    """The decision for the form (a, b, c) where no cycle is walked, else
    None: the residue scan's obstruction, or a genus character's proof that
    t is not represented.  D is the discriminant and root = isqrt(D) when
    D > 0.  Raises ValueError, as represents does, for D <= 0 or square past
    the residue scan."""
    k = _obstruction(form, t)
    if k is not None:
        return _OBSTRUCTED[k]
    if D <= 0:
        raise ValueError(f"represents requires an indefinite form, got discriminant {D}")
    if root * root == D:
        raise ValueError(
            f"represents requires a nonsquare discriminant, got {D}; "
            "square discriminants factor into linear forms and belong to the zero test")
    if _genus_obstructed(form, t, D):
        return _NONE_PROVED
    return None


def _unit_walk(form: _Form, t: int, D: int, root: int) -> RepDecision:
    """represents' status and modulus for |t| = 1 past _screen, on half of
    the target's cycle (see the module docstring), with no witness: the walk
    of t0's cycle for f_red or tau(f_red) up to its middle edge, _cycle_hit's
    walk recording nothing, handed to _giant with f_red and tau(f_red) after
    _handover(D) steps, as represents hands over.  A decision is truthy, so
    _screen(...) or _unit_walk(...) is the whole decision."""
    f_red, _ = _reduce(form, D, root)
    a_f, b_f, c_f = f_red
    targets = f_red, (c_f, b_f, a_f)
    b = root - ((root ^ D) & 1)
    t0 = (t, b, (b * b - D) // (4 * t))
    if t0 in targets:
        return _REPRESENTED
    # a has the sign of t after an even number of steps, and |t0's c| = (D - b^2)/4
    A, C = 2, (D - b * b) >> 1
    passes = _handover(D) // 2
    for _ in repeat(None, passes):
        q = (root + b) // C
        b1 = C * q - b
        if b1 == b:  # the middle edge, to tau of the form before it
            return _NONE_PROVED
        A -= q * (b1 - b)
        if b1 == b_f and (-t * (C >> 1), b1, t * (A >> 1)) in targets:
            return _REPRESENTED
        q = (root + b1) // A
        b = A * q - b1
        if b == b1:
            return _NONE_PROVED
        C -= q * (b - b1)
        if b == b_f and (t * (A >> 1), b, -t * (C >> 1)) in targets:
            return _REPRESENTED
    end = (t * (A >> 1), b, -t * (C >> 1))
    if _giant(t0, end, 2 * passes, targets, D, root) is None:
        return _NONE_PROVED
    return _REPRESENTED


def represents(f: QuadraticForm, t: int) -> RepDecision:
    """Complete decision of Q(m, n) = t for indefinite anisotropic forms.

    Requires |t| in {1, 2}; any representation of such a target is
    primitive since gcd(m, n)^2 divides t.  A cheap residue scan over
    DEFAULT_MODULI, memoised on residues, runs first and may certify an
    obstruction for any form; the complete proper-equivalence path
    additionally requires discriminant(f) > 0 and nonsquare, and settles
    the question either way.  A genus character at an odd prime p < 1000
    dividing D that f fails proves that t is not represented.  Otherwise f
    and each form (t, B, C) are reduced, and a walk of f's cycle either
    meets a reduced target or closes the cycle, which proves that t is not
    represented; where the targets allow, it mirrors at the cycle's first
    edge and closes at its second (_cycle_hit).  A walk that has not ended
    after _handover(D) steps, worked out once before it, past the start
    window, is finished by giant strides (_giant), which meet the same
    first target, or give the same proof.

    A scan row takes a shorter decision with no witness, its screens
    specialised and then the walk on half of the target's cycle
    (_unit_walk).  represents assembles a hit's witness as one chain in
    Q(sqrt(D)) (_column): f to f_red, the product of the walk's shears
    (_product) or the signed strides (_signed_strides), then (t, B, C).
    The witness is re-checked exactly before it is returned.
    """
    if t == 0:
        raise ValueError("target 0 is decided by zero_witness")
    if abs(t) > 2:
        raise ValueError(f"complete decision covers |t| in {{1, 2}} only, got {t}")
    D = f.discriminant()
    root = isqrt(D) if D > 0 else 0
    form = (f.a, f.b, f.c)
    screened = _screen(form, t, D, root)
    if screened is not None:
        return screened
    f_red, m_f = _reduce(form, D, root)
    # each reduced target, with the first column of the inverse of its
    # reduction's transform
    targets: dict[_Form, tuple[int, int]] = {}
    four_t = 4 * t
    for B in range(2 * abs(t)):
        if (B * B - D) % four_t == 0:
            C = (B * B - D) // four_t
            g_red, (_, _, r, s) = _reduce((t, B, C), D, root)
            targets.setdefault(g_red, (s, -r))
    found = _cycle_hit(f_red, targets, root, _handover(D))
    if found is not None and found[0] not in targets:
        end, head = found
        found = _giant(f_red, end, len(head), targets, D, root)
        if found is not None and type(found[1]) is list:  # walked on from `end`
            found = found[0], head + found[1]
    if found is None:
        return _NONE_PROVED
    hit, path = found
    if type(path) is list:
        p, _, r, _ = _product(_signed(path, f_red[0]))
        nodes = [(f_red, p, r)]
    else:
        nodes = _signed_strides(f_red, *path, root)
    m, n = _column([(form, m_f[0], m_f[2]), *nodes, (hit, *targets[hit])], D)
    # 4a*Q(m, n) = (2am + bn)^2 - D*n^2, and a != 0 since D is not a square
    a = f.a
    if (2 * a * m + f.b * n) ** 2 - D * (n * n) != 4 * a * t:
        raise RuntimeError("internal error: extracted witness failed re-evaluation")
    return RepDecision.witness_of(m, n)
