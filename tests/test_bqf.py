import hashlib
import inspect
import random
import sys
from collections import Counter
from functools import reduce
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3cert import bqf
from k3cert.bqf import (
    DEFAULT_MODULI,
    DecisionStatus,
    QuadraticForm,
    RepDecision,
    integer_sqrt,
    modular_obstruction,
    represents,
    zero_witness,
)


def brute_find(f: QuadraticForm, t: int, radius: int):
    """Independent search oracle: first (m, n) in the box with Q(m, n) = t."""
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            if (m, n) != (0, 0) and f.evaluate(m, n) == t:
                return (m, n)
    return None


# -- discriminant / integer_sqrt ---------------------------------------------

def test_discriminant_examples():
    assert QuadraticForm(6, 28, 26).discriminant() == 160
    assert QuadraticForm(1, 0, 1).discriminant() == -4
    assert QuadraticForm(6, 24, 18).discriminant() == 144


def test_integer_sqrt_examples():
    assert integer_sqrt(144) == 12
    assert integer_sqrt(40) is None
    assert integer_sqrt(0) == 0


def test_integer_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        integer_sqrt(-1)


@given(st.integers(min_value=0, max_value=10**18))
def test_integer_sqrt_definition(n):
    from math import isqrt

    r = integer_sqrt(n)
    if r is None:
        assert isqrt(n) ** 2 != n
    else:
        assert r >= 0 and r * r == n


def test_int_text_bounds_huge_integers():
    assert bqf.int_text(-12345) == "-12345"
    big = 10 ** 5000
    assert bqf.int_text(big) == bqf.int_text(-big) == "<16610-bit integer>"
    assert RepDecision.witness_of(big, -1).describe() == "Witness(<16610-bit integer>, -1)"


# -- nontrivial zeros ---------------------------------------------------------

def test_zero_witness_examples():
    assert zero_witness(QuadraticForm(6, 24, 18)) == (-1, 1)
    assert zero_witness(QuadraticForm(6, 28, 26)) is None
    assert zero_witness(QuadraticForm(0, 5, 7)) == (1, 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_zero_decision_vs_brute(a, b, c):
    f = QuadraticForm(a, b, c)
    w = zero_witness(f)
    has_zero = w is not None
    if has_zero:
        assert w != (0, 0) and f.evaluate(*w) == 0
    found = brute_find(f, 0, 40)
    if found is not None:
        assert has_zero, (f, found)


@settings(max_examples=150, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30).filter(lambda m: m != 0))
def test_isotropic_constructions_have_witness(a, b, m0):
    # c chosen so that (m0, 1) is a zero; the decision must say yes
    c = -a * m0 * m0 - b * m0
    f = QuadraticForm(a, b, c)
    w = zero_witness(f)
    assert w is not None and w != (0, 0) and f.evaluate(*w) == 0


# -- modular obstructions -----------------------------------------------------

def test_modular_obstruction_examples():
    assert modular_obstruction(QuadraticForm(3, 12, 12), -1) == 3
    assert modular_obstruction(QuadraticForm(3, 7, 3), -1) is None
    # m^2 + n^2 takes -1 mod 3 (1 + 1) but not mod 4
    assert modular_obstruction(QuadraticForm(1, 0, 1), -1) == 4


@settings(max_examples=120, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-2, 2))
def test_modular_obstruction_sound(a, b, c, t):
    f = QuadraticForm(a, b, c)
    k = modular_obstruction(f, t)
    if k is not None:
        residues = {f.evaluate(m, n) % k for m in range(k) for n in range(k)}
        assert t % k not in residues
        assert brute_find(f, t, 25) is None


def _plain_obstruction(a: int, b: int, c: int, t: int):
    # independent reference: the unmemoised double loop over residue pairs
    for k in DEFAULT_MODULI:
        for m in range(k):
            for n in range(k):
                if (a * m * m + b * m * n + c * n * n - t) % k == 0:
                    break
            else:
                continue
            break
        else:
            return k
    return None


def test_memoised_residue_test_matches_plain_double_loop():
    queries = [(QuadraticForm(a, b, c), t)
               for a in range(-9, 10) for b in range(-9, 10) for c in range(-9, 10)
               for t in range(-2, 3)]
    expected = [_plain_obstruction(f.a, f.b, f.c, t) for f, t in queries]
    bqf._residue_hit.cache_clear()
    for _ in ("cold", "warm"):
        assert [modular_obstruction(f, t) for f, t in queries] == expected
    assert bqf._residue_hit.cache_info().hits > 0
    assert bqf._residue_hit.cache_info().maxsize is not None


# -- complete representability decision ---------------------------------------

def test_represents_named_examples():
    dec = represents(QuadraticForm(3, 7, 3), -1)
    assert dec.status is DecisionStatus.WITNESS
    assert QuadraticForm(3, 7, 3).evaluate(*dec.witness) == -1
    assert repr(dec) == (
        "RepDecision(status=<DecisionStatus.WITNESS: 'witness'>, witness=(1, -1), modulus=None)")

    dec = represents(QuadraticForm(3, 11, -9), -1)
    assert dec.status is DecisionStatus.NONE_PROVED

    dec = represents(QuadraticForm(3, 12, 12), -1)
    assert dec.status is DecisionStatus.OBSTRUCTED_MOD and dec.modulus == 3

    dec = represents(QuadraticForm(3, 15, 15), -1)
    assert dec.status is DecisionStatus.OBSTRUCTED_MOD and dec.modulus == 3


def test_represents_known_witnesses():
    # forms with solutions found by hand; the decision must find some witness
    for coeffs, t in [((3, 13, 13), -1), ((3, 13, 11), -1), ((3, 20, 19), -1),
                      ((3, 27, 35), -1), ((5, 1, -21), 1), ((5, 1, -21), -1)]:
        f = QuadraticForm(*coeffs)
        dec = represents(f, t)
        assert dec.status is DecisionStatus.WITNESS, (coeffs, t, dec)
        assert f.evaluate(*dec.witness) == t


def test_represents_preconditions():
    with pytest.raises(ValueError):
        represents(QuadraticForm(3, 7, 3), 0)
    with pytest.raises(ValueError):
        represents(QuadraticForm(3, 7, 3), 5)
    with pytest.raises(ValueError):
        # positive definite and no modular obstruction for t = 2
        represents(QuadraticForm(1, 0, 1), 2)
    with pytest.raises(ValueError):
        # square discriminant (no modular obstruction for t = 1)
        represents(QuadraticForm(1, 3, 2), 1)


# -- Pell fundamental solutions, for the fundamental-region oracle -------------

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


def test_pell_examples():
    assert pell_fundamental(2) == (3, 2)
    assert pell_fundamental(3) == (2, 1)
    x, y = pell_fundamental(160)
    assert x * x - 160 * y * y == 1
    # least solution, cross-checked by scanning y upward
    for yp in range(1, y):
        assert integer_sqrt(1 + 160 * yp * yp) is None


@pytest.mark.parametrize("bad", [0, -4, 1, 49, 100])
def test_pell_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        pell_fundamental(bad)


def _power_component(k: int, u: int) -> int:
    # x-component of the k-th power of a norm-1 unit whose x-component is u
    prev, cur = 1, u
    for _ in range(k - 1):
        prev, cur = cur, 2 * u * cur - prev
    return cur


def test_pell_fundamental_minimality_up_to_500():
    # two independent oracles: a capped upward scan, and an exact check that
    # the returned solution is not a proper power of a smaller unit (any
    # non-minimal solution is one, since the norm-1 units form a cyclic group)
    for D in range(2, 501):
        if integer_sqrt(D) is not None:
            continue
        x, y = pell_fundamental(D)
        assert x > 0 and y > 0 and x * x - D * y * y == 1
        for yp in range(1, min(y, 60_000)):
            assert integer_sqrt(1 + D * yp * yp) is None, (D, yp)
        k = 2
        while (1 << (k - 1)) <= x:
            lo, hi = 2, x
            while lo <= hi:
                mid = (lo + hi) // 2
                v = _power_component(k, mid)
                if v == x:
                    usq = mid * mid - 1
                    assert usq % D != 0 or integer_sqrt(usq // D) is None, (D, k, mid)
                    break
                if v < x:
                    lo = mid + 1
                else:
                    hi = mid - 1
            k += 1


def _fundamental_region_solvable(f: QuadraticForm, t: int):
    """Independent complete oracle: a representation exists iff some class
    representative of x^2 - D n^2 = 4at in the fundamental region satisfies
    the recovery congruence x = bn (mod 2a).  Feasible only while the
    fundamental Pell solution stays small."""
    from math import isqrt

    a, b, _ = f.a, f.b, f.c
    D = f.discriminant()
    x1, _ = pell_fundamental(D)
    N = 4 * a * t
    num, den = abs(N) * (x1 + 1), 2 * D
    k = isqrt(num // den)
    while k * k * den < num:
        k += 1
    n_max = k + 1
    if n_max > 500_000:
        return None
    for n in range(n_max + 1):
        sq = N + D * n * n
        if sq < 0:
            continue
        x0 = integer_sqrt(sq)
        if x0 is None:
            continue
        for x in ((x0, -x0) if x0 else (x0,)):
            if (x - b * n) % (2 * a) == 0:
                assert f.evaluate((x - b * n) // (2 * a), n) == t
                return True
    return False


def test_represents_agrees_with_fundamental_region_census():
    # complete census of small indefinite anisotropic forms, both directions
    checked = 0
    for a in range(-7, 8):
        for b in range(0, 8):  # b >= 0 wlog: (m, n) -> (m, -n) flips its sign
            for c in range(-7, 8):
                f = QuadraticForm(a, b, c)
                disc = f.discriminant()
                if disc <= 0 or integer_sqrt(disc) is not None:
                    continue
                for t in (-2, -1, 1, 2):
                    oracle = _fundamental_region_solvable(f, t)
                    if oracle is None:
                        continue
                    dec = represents(f, t)
                    assert (dec.status is DecisionStatus.WITNESS) == oracle, (f, t, dec)
                    checked += 1
    assert checked > 2500


@settings(max_examples=100, deadline=None)
@given(st.integers(-25, 25), st.integers(-25, 25), st.integers(-25, 25),
       st.sampled_from([-2, -1, 1, 2]))
def test_represents_complete_vs_brute(a, b, c, t):
    f = QuadraticForm(a, b, c)
    D = f.discriminant()
    dec = None
    if D > 0 and integer_sqrt(D) is None:
        dec = represents(f, t)
    else:
        # outside the complete-decision domain: the fast path may still fire
        try:
            dec = represents(f, t)
        except ValueError:
            return
    found = brute_find(f, t, 40)
    if dec.status is DecisionStatus.WITNESS:
        assert f.evaluate(*dec.witness) == t
    else:
        assert found is None, (f, t, found, dec)


# -- one-pass cycle walk and product-tree witness assembly ---------------------

def _is_reduced(form, D: int, root: int) -> bool:
    """Reference test: |sqrt(D) - 2|a|| < b < sqrt(D), by exact squarings."""
    a, b, _ = form
    if b <= 0 or b > root:
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= D:
        return False
    return t - b < 0 or (t - b) ** 2 < D


def _rho(form, D: int, root: int):
    """Reference reduction/cycle step: the neighbour and the shear s of the
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


def _walk_setup(f: QuadraticForm, t: int):
    """The reduced start, the reduced targets (t, B, C) with their transforms,
    D and isqrt(D), as represents builds them."""
    D = f.discriminant()
    root = isqrt(D)
    start, _ = bqf._reduce((f.a, f.b, f.c), D, root)
    targets = {}
    for B in range(2 * abs(t)):
        if (B * B - D) % (4 * t) == 0:
            g_red, m_g = bqf._reduce((t, B, (B * B - D) // (4 * t)), D, root)
            targets.setdefault(g_red, m_g)
    return start, targets, D, root


def _rho_walk(start, targets, D: int, root: int):
    """Independent reference walk, one plain rho step at a time: the first
    target met and the signed shears of the steps, or None when the walk
    comes back to `start`."""
    current, shears = start, []
    while current not in targets:
        current, s = _rho(current, D, root)
        shears.append(s)
        if current == start:
            return None
    return current, shears


def _hit_step(f: QuadraticForm, t: int):
    """Steps of rho from reduced f to the first reduced form properly
    equivalent to some (t, B, C), counted by a plain walk; None without a hit."""
    found = _rho_walk(*_walk_setup(f, t))
    return None if found is None else len(found[1])


def _cycle_length(start, D: int, root: int) -> int:
    current, steps = _rho(start, D, root)[0], 1
    while current != start:
        current, steps = _rho(current, D, root)[0], steps + 1
    return steps


def _bounded_cycle_hit(start, targets, root: int, steps: int):
    """bqf._cycle_hit, failed once it has run more than 16 lines per rho step
    of `steps` (plus slack), so that a walk that misses its end fails
    instead of running on."""
    budget = 16 * (steps + 4)

    def local(frame, event, arg):
        nonlocal budget
        budget -= event == "line"
        if budget < 0:
            pytest.fail(f"the walk ran past {steps} steps")
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is bqf._cycle_hit.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        return bqf._cycle_hit(start, targets, root)
    finally:
        sys.settrace(previous)


# Recorded from the two-pass walk with sequential products that preceded the
# product tree.  Cells (g, s) of the (-2) question 3m^2 + (g-s)mn + (g-1)n^2 = -1,
# with the rho step of the hit.  Every hit after step 0 among the 1,760 witness
# cells of the benchmark's scan grid and check-witness draw came at an odd step,
# so these meet a leaf boundary (_LEAF = 32) one step after it.
PINNED_CELLS = [
    ((14, 1), 0, (2, -1)),
    ((24, 7), 0, (-3, 1)),
    ((27, 9), 0, (-3, 1)),
    ((412, 9), 5, (-445, 433)),
    ((2315, 10), 25, (-20513479271, 20406961132)),
    ((396, 4), 31, (23421195631194207, -23062665287217062)),
    ((390, 9), 33, (-2826897701710758, 2746320066437479)),
    ((452, 0), 65, (57046805013284105474981800510055453,
                    -56792124128618563674368323291287794)),
    ((460, 9), 97, (-2271567141242582563481212960010608177312070563,
                    2216761651201943806236240774766418794560770479)),
    ((420, -1), 129, (490093447472899424381650057165503290459448899007466428672716385,
                      -488915317751212757027273734748680844294751831634165223716954084)),
    ((2049, -1), None, None),
]

# Hits exactly on a leaf boundary, from forms outside the family.
PINNED_FORMS = [
    ((1, 160, -39), 2, 32, (-1828980957550771, -7514925389951119)),
    ((1, 211, -4), 2, 64, (-6112626067429587794799636137,
                           -322469992246369173454936954687)),
]

# Benchmark check-witness cells with witnesses of 10,000 to 14,000 bits,
# pinned by bit length and the SHA-256 of "m,n" in decimal.
PINNED_LARGE = [
    ((4417, 0), 5827, 10096, "27e3e274a0cf6bfb58100515bcf4c4cec8a48d44ab209c5a25125b0c20c8e972"),
    ((8466, 7), 7085, 11967, "582d178929953379cd4f136611fbe53bb4e6dbe26916be5f2ed52438b7a2d032"),
    ((11267, 10), 6693, 11444, "6104b3c6b2c33cf4ea7719a0123a6c855efdd51b94f47ec8a99c0ebb4b1299d4"),
    ((12261, -1), 7631, 13175, "67c008d8754e4fd090d5e2f6964109252592a9f9cc4c62e5fad775720a9b5da1"),
    ((29337, -1), 5851, 10007, "957015d3635754c5a0716d40ce9dd8ff470aae0adc53d7e53855478fd94355d4"),
]


def _minus_two_form(g: int, s: int) -> QuadraticForm:
    return QuadraticForm(3, g - s, g - 1)


def _bits(witness) -> int:
    return max(abs(x).bit_length() for x in witness)


@pytest.mark.parametrize("cell, step, witness", PINNED_CELLS)
def test_represents_pinned_cells(cell, step, witness):
    f = _minus_two_form(*cell)
    assert _hit_step(f, -1) == step
    dec = represents(f, -1)
    assert dec.witness == witness
    assert dec.status is (DecisionStatus.NONE_PROVED if witness is None
                          else DecisionStatus.WITNESS)


@pytest.mark.parametrize("coeffs, t, step, witness", PINNED_FORMS)
def test_represents_pinned_leaf_boundaries(coeffs, t, step, witness):
    f = QuadraticForm(*coeffs)
    assert step % bqf._LEAF == 0 and _hit_step(f, t) == step
    assert represents(f, t).witness == witness


@pytest.mark.parametrize("cell, step, bits, digest", PINNED_LARGE)
def test_represents_pinned_large_witnesses(cell, step, bits, digest):
    f = _minus_two_form(*cell)
    assert _hit_step(f, -1) == step
    m, n = represents(f, -1).witness
    assert _bits((m, n)) == bits
    assert hashlib.sha256(f"{m},{n}".encode()).hexdigest() == digest


def test_pinned_witnesses_through_the_product_tree(monkeypatch):
    # with _DIRECT at its least, _LEAF, every hit past one leaf is assembled
    # in the product tree, which the pinned witnesses then pin as well
    monkeypatch.setattr(bqf, "_DIRECT", bqf._LEAF)
    for cell, _, witness in PINNED_CELLS:
        assert represents(_minus_two_form(*cell), -1).witness == witness, cell
    for coeffs, t, _, witness in PINNED_FORMS:
        assert represents(QuadraticForm(*coeffs), t).witness == witness, coeffs


def _sequential_shear_product(shears):
    # independent reference: left-to-right 2x2 products, one shear at a time
    def matmul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])
    return reduce(matmul, [(0, -1, 1, s) for s in shears], (1, 0, 0, 1))


def test_shear_product_tree_matches_sequential_fold():
    L, D = bqf._LEAF, bqf._DIRECT
    lengths = [0, 1, L - 1, L, L + 1]
    lengths += [(1 << k) * L + e for k in range(1, 5) for e in (-1, 1)]
    # _apply switches from one shear at a time to the product tree past D
    lengths += [D - 1, D, D + 1]
    rng = random.Random(4)
    for n in lengths:
        shears = [rng.randint(-40, 40) for _ in range(n)]
        p, q, r, t = _sequential_shear_product(shears)
        assert bqf._product(shears) == (p, q, r, t), n
        # applied to a column vector
        x, y = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        assert bqf._apply(shears, (x, y)) == (p * x + q * y, r * x + t * y), n


def test_cycle_walk_matches_plain_rho_walk():
    # the walk on doubled magnitudes meets the same form after the same
    # shears as plain rho steps, once its quotients are signed, and closes
    # where they close; mirrored at an edge or not
    seen, outcomes = set(), set()
    for form, _ in _small_indefinite_forms():
        for t in (-2, -1, 1, 2):
            start, targets, D, root = _walk_setup(QuadraticForm(*form), t)
            if not targets or (start, t) in seen:
                continue
            seen.add((start, t))
            expected = _rho_walk(start, targets, D, root)
            found = _bounded_cycle_hit(start, targets, root, _cycle_length(start, D, root))
            if found is not None:
                found = found[0], bqf._signed(found[1], start[0])
            assert found == expected, (start, t)
            # every target of |t| = 1, and of |t| = 2 with D even, has a | b;
            # of |t| = 2 with D odd, none has
            mirrors = bqf._mirrors(targets)
            assert mirrors is not (abs(t) == 2 and D % 2 == 1), (start, t)
            if expected is None or expected[1]:
                outcomes.add((t, start[2] > 0, expected is None))
    # for every target, starts with c > 0 and with c < 0, each with hits and
    # closed walks
    assert outcomes == {(t, c, closed) for t in (-2, -1, 1, 2)
                        for c in (True, False) for closed in (True, False)}


def _cycle(start, D: int, root: int):
    """The forms of the cycle of the reduced `start`, from it, and the shears
    of the plain rho steps between them, the last one back to `start`."""
    forms, shears = [start], []
    while True:
        form, s = _rho(forms[-1], D, root)
        shears.append(s)
        if form == start:
            return forms, shears
        forms.append(form)


def _edges(forms) -> list[int]:
    """The steps i of a cycle from forms[i] that keep b."""
    return [i for i, form in enumerate(forms) if forms[(i + 1) % len(forms)][1] == form[1]]


def _open_cells(g_max: int):
    """The (-2) forms (3, d, g - 1) of g <= g_max, s in [-1, 10], that neither
    the residue scan nor a genus character settles, with their D."""
    for g in range(12, g_max + 1):
        for s in range(-1, 11):
            d = g - s
            D = d * d - 12 * (g - 1)
            if D > 0 and isqrt(D) ** 2 != D and modular_obstruction(
                    QuadraticForm(3, d, g - 1), -1) is None and not bqf._genus_obstructed(
                    (3, d, g - 1), -1, D):
                yield (3, d, g - 1), D


def test_ambiguous_cycles_mirror_at_their_edges():
    # the lemma the walk mirrors by, with plain rho steps: a step that keeps
    # b (an edge) takes f to tau(f) = (c, b, a), which conjugates rho to its
    # inverse; so a cycle has no edge or two, half a cycle apart, tau(start)
    # is 2e + 1 steps on, steps e + 1 ... 2e repeat the shears of steps
    # e - 1 ... 0, and every form with a | b follows an edge
    seen: set[tuple[int, int, int]] = set()
    cycles = ambiguous = 0
    for form, D in [*_small_indefinite_forms(), *_open_cells(600)]:
        root = isqrt(D)
        start, _ = bqf._reduce(form, D, root)
        if start in seen:
            continue
        forms, shears = _cycle(start, D, root)
        seen.update(forms)
        L, edges = len(forms), _edges(forms)
        cycles += 1
        assert len(edges) in (0, 2), start
        for i, (a, b, _) in enumerate(forms):
            assert b % a or (i - 1) % L in edges, (start, i)
        if edges:
            ambiguous += 1
            e = edges[0]
            assert edges[1] - e == L // 2, start
            assert forms[2 * e + 1] == start[::-1], start
            assert all(shears[i] == shears[2 * e - i] for i in range(e + 1, 2 * e + 1)), start
    assert cycles > 2500 and 0 < ambiguous < cycles


def _walked(fn, *args):
    """fn(*args), and the number of rho steps that the loops of fn walk: the
    runs of its two lines that divide for a quotient."""
    lines, first = inspect.getsourcelines(fn)
    divisions = {first + i for i, line in enumerate(lines)
                 if line.strip() in ("q = (root + b) // C", "q = (root + b1) // A")}
    assert len(divisions) == 2
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        steps += event == "line" and frame.f_lineno in divisions
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is fn.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        return fn(*args), steps
    finally:
        sys.settrace(previous)


@pytest.mark.parametrize("cell, edges, hit, walked", [
    # edges at steps 5 and 14 of an 18-step cycle, and the hit after the
    # second: steps 0-5, then from tau(start) at step 11, steps 11-14
    ((19, 2), [5, 14], 15, 10),
    # ambiguous and closed: steps 0-2, then from tau(start) at step 5, step
    # 5, the second edge, which ends the walk of the 6-step cycle
    ((51, 9), [2, 5], None, 4),
    # no edge: the whole 66-step cycle
    ((81, 2), [], None, 66),
])
def test_mirrored_walk_steps(cell, edges, hit, walked):
    f = _minus_two_form(*cell)
    start, targets, D, root = _walk_setup(f, -1)
    assert _edges(_cycle(start, D, root)[0]) == edges
    assert _hit_step(f, -1) == hit
    found, steps = _walked(bqf._cycle_hit, start, targets, root)
    assert steps == walked
    assert (found if found is None else len(found[1])) == hit


def test_half_walk_of_the_target_cycle_decides_as_represents():
    # a scan row's decision for t = -1 walks the cycle of t0 = (-1, b, C), b
    # the largest b <= isqrt(D) of the parity of D, from t0 to its middle
    # edge: on every walked cell of g in [12, 600] x s in [-1, 10] its status
    # is represents', and it ends where plain rho steps on t0's cycle say,
    # at t0, at f_red, at tau(f_red) or, after exactly half the cycle, at the
    # edge.  Hits on the last form before the edge occur too
    exits: Counter[str] = Counter()
    for form, D in _open_cells(600):
        root = isqrt(D)
        b = root if (root - D) % 2 == 0 else root - 1
        t0 = (-1, b, (D - b * b) // 4)
        assert _is_reduced(t0, D, root), form
        forms, _ = _cycle(t0, D, root)
        L = len(forms)
        assert _edges(forms) == [L // 2 - 1, L - 1], form
        f_red, _ = bqf._reduce(form, D, root)
        k = next((k for k in range(L // 2) if forms[k] in (f_red, f_red[::-1])), None)
        if k is None:
            exits["edge"] += 1
            dec, steps = _walked(bqf._unit_walk, form, -1, D, root)
            assert (dec, steps) == (RepDecision.none_proved(), L // 2), form
        else:
            exits["t0" if k == 0 else "f_red" if forms[k] == f_red else "tau"] += 1
            exits["last"] += k == L // 2 - 1
            dec = bqf._screen(form, -1, D, root) or bqf._unit_walk(form, -1, D, root)
            assert dec == RepDecision(DecisionStatus.WITNESS), form
        assert dec.status is represents(QuadraticForm(*form), -1).status, form
    assert exits.keys() == {"t0", "f_red", "tau", "edge", "last"} and min(exits.values()) > 0
    assert exits["edge"] + exits["t0"] + exits["f_red"] + exits["tau"] == 2152


@pytest.mark.parametrize("switch", [None, 4])
def test_half_walk_decides_as_represents_on_small_forms(monkeypatch, switch):
    # both unit targets on small forms, walked or, with the switch lowered,
    # handed to the giant strides on t0's cycle, which meet f_red or
    # tau(f_red) for each target: status and modulus are represents'
    queries = [(form, D, t) for form, D in _small_indefinite_forms()
               if abs(form[0]) <= 8 and abs(form[2]) <= 8 for t in (-1, 1)]
    expected = [represents(QuadraticForm(*form), t) for form, _, t in queries]
    hits: Counter[int] = Counter()  # strided hits by target, t0's a
    if switch is not None:
        giant = bqf._giant

        def logged(t0, *args):
            found = giant(t0, *args)
            hits[t0[0]] += found is not None
            return found
        monkeypatch.setattr(bqf, "_giant", logged)
        monkeypatch.setattr(bqf, "_SWITCH", switch)
        monkeypatch.setattr(bqf, "_window_size", lambda D: switch)
    decided = [bqf._screen(form, t, D, isqrt(D)) or bqf._unit_walk(form, t, D, isqrt(D))
               for form, D, t in queries]
    assert [(d.status, d.modulus) for d in decided] == [(e.status, e.modulus) for e in expected]
    assert {d.status for d in decided} == set(DecisionStatus)
    assert all(d.witness is None for d in decided)
    assert switch is None or min(hits[-1], hits[1]) > 100


@pytest.mark.parametrize("cell", [(19, 2), (7393, 2), (13907, 6), (25381, 3),
                                  pytest.param(None, id="edgeless")])
def test_counting_walk_matches_plain_rho_walk(cell):
    # the count of steps to a target against a plain rho walk.  On the (-2)
    # cells every target has a | b, and the count from any point of the walk
    # mirrors: before the first edge it jumps to tau(f_red), past it it walks
    # on to the target.  "edgeless": targets with a not dividing b, as
    # (t, B, C) at |t| = 2 with B odd, counted from the reduced start of small
    # forms, where a target off the cycle is an internal error
    if cell is None:
        met = missed = 0
        for form, D in _small_indefinite_forms():
            if abs(form[0]) > 6 or abs(form[2]) > 6:
                continue
            for t in (-2, 2):
                start, targets, _, root = _walk_setup(QuadraticForm(*form), t)
                for g in targets:
                    if g[1] % g[0] == 0 or g == start:
                        continue
                    found = _rho_walk(start, {g}, D, root)
                    if found is None:
                        missed += 1
                        with pytest.raises(RuntimeError, match="internal error"):
                            bqf._count_to(start, 0, start, g, root)
                    else:
                        met += 1
                        assert bqf._count_to(start, 0, start, g, root) == len(found[1]), (
                            form, t, g)
        assert met > 100 and missed > 100
        return
    f = _minus_two_form(*cell)
    start, targets, D, root = _walk_setup(f, -1)
    (target,) = targets
    steps = _hit_step(f, -1)
    edge = _edges(_cycle(start, D, root)[0])[0]
    _, walked = _walked(bqf._cycle_hit, start, targets, root)
    assert bqf._count_to(start, 0, start, target, root) == steps
    for limit in (2, edge - edge % 2, edge + 2, walked - 2):
        end, head = bqf._cycle_hit(start, targets, root, limit)
        assert end not in targets and (len(head) > edge) is (limit > edge), limit
        assert bqf._count_to(start, len(head), end, target, root) == steps, limit


def test_closed_walk_builds_no_product(monkeypatch):
    # (81, 2): D = 5281, a 66-step cycle without a target, which neither the
    # residue scan nor a genus character settles
    f = _minus_two_form(81, 2)
    start, targets, D, root = _walk_setup(f, -1)
    steps = _cycle_length(start, D, root)
    assert (D, steps) == (5281, 66) and steps > 2 * bqf._LEAF
    assert _hit_step(f, -1) is None
    assert modular_obstruction(f, -1) is None
    assert not bqf._genus_obstructed((f.a, f.b, f.c), -1, D)
    assert _bounded_cycle_hit(start, targets, root, steps) is None

    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped
    assembly = ("_apply", "_product", "_leaf_product", "_matmul")
    for name in assembly:
        monkeypatch.setattr(bqf, name, counted(getattr(bqf, name)))
    # a hit 129 steps in applies its shears to a vector, one at a time up to
    # _DIRECT shears and through the product tree past it; a closed walk
    # does neither
    hit = _minus_two_form(420, -1)
    for direct, expected in ((bqf._DIRECT, {"_apply"}), (2 * bqf._LEAF, set(assembly))):
        monkeypatch.setattr(bqf, "_DIRECT", direct)
        calls.clear()
        assert represents(hit, -1).witness == PINNED_CELLS[-2][2]
        assert set(calls) == expected, direct
        calls.clear()
        assert represents(f, -1).status is DecisionStatus.NONE_PROVED
        assert calls == [], direct


def test_represents_hard_cell_100135_2():
    # the hit is 262,763 steps of rho on; ~25 s with sequential products
    # (2-core x86-64).  The walk takes 2,048 steps, strides find the hit,
    # and the count walks 136,216: to the first edge at step 124,499, then
    # from tau of the start at step 248,999
    f = _minus_two_form(100135, 2)
    dec = represents(f, -1)
    assert dec.status is DecisionStatus.WITNESS
    assert f.evaluate(*dec.witness) == -1
    assert _bits(dec.witness) == 451_147


# -- genus characters before the walk ------------------------------------------

def _small_indefinite_forms():
    """Forms with |a|, |c| <= 12 and |b| <= 15 whose discriminant is positive
    and nonsquare, with that discriminant."""
    for a in range(-12, 13):
        for b in range(-15, 16):
            for c in range(-12, 13):
                D = b * b - 4 * a * c
                if D > 0 and isqrt(D) ** 2 != D:
                    yield (a, b, c), D


def test_cycle_forms_stay_within_the_root():
    # every form of a reduction cycle has |a|, |c| <= isqrt(D), which is why
    # the walk's inlined rho drops the |c| > root branch of _rho
    seen: set[tuple[int, int, int]] = set()
    for form, D in _small_indefinite_forms():
        root = isqrt(D)
        start, _ = bqf._reduce(form, D, root)
        if start in seen:
            continue
        current = start
        while True:
            seen.add(current)
            a, _, c = current
            assert abs(a) <= root and abs(c) <= root, (form, current)
            current, _ = _rho(current, D, root)
            if current == start:
                break
    assert len(seen) > 1000


def test_genus_primes_match_sieve():
    sieve = [True] * 1000
    for p in range(2, 32):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 1000, p))
    odd_primes = tuple(n for n in range(3, 1000) if sieve[n])
    assert bqf._GENUS_PRIMES == odd_primes
    assert len(odd_primes) == 167
    assert bqf._GENUS_PRODUCT == reduce(lambda x, y: x * y, odd_primes)


def test_genus_character_settles_without_a_walk(monkeypatch):
    # D = 253 = 11 * 23 with 11 = 2 (mod 3); reported like the walk's outcome
    monkeypatch.setattr(bqf, "_cycle_hit", lambda *args: pytest.fail("walked the cycle"))
    dec = represents(QuadraticForm(3, 23, 23), -1)
    assert dec.status is DecisionStatus.NONE_PROVED


def test_genus_step_never_hides_a_hit():
    # wherever a character fires, a plain walk closes without meeting a target
    fired = 0
    for form, D in _small_indefinite_forms():
        for t in (-2, -1, 1, 2):
            if bqf._genus_obstructed(form, t, D):
                fired += 1
                assert _hit_step(QuadraticForm(*form), t) is None, (form, t)
    assert fired > 15_000


def test_genus_characters_match_residue_scan():
    # for an odd p | D the form is degenerate mod p: its character at p fails
    # exactly when t has no representation mod p
    scan: dict[tuple[int, ...], bool] = {}  # the scan reads the coefficients mod p only
    fails = 0
    for (a, b, c), D in _small_indefinite_forms():
        for p in (p for p in bqf._GENUS_PRIMES if p <= 50 and D % p == 0):
            for t in (-2, -1, 1, 2):
                key = (a % p, b % p, c % p, t % p, p)
                if key not in scan:
                    scan[key] = not bqf._residue_hit(p, *key[:4])
                assert bqf._character_fails((a, b, c), t, p) is scan[key], ((a, b, c), t, p)
                fails += scan[key]
    assert fails > 20_000


def test_genus_step_never_fires_on_a_k3_witness_cell():
    witnesses = fired = 0
    for g in range(2, 401):
        for s in range(-3, 41):
            d = g - s
            D = d * d - 12 * (g - 1)
            if D <= 0 or isqrt(D) ** 2 == D:
                continue
            form = (3, d, g - 1)
            obstructed = bqf._genus_obstructed(form, -1, D)
            if _hit_step(QuadraticForm(*form), -1) is not None:
                witnesses += 1
                assert not obstructed, (g, s)
            fired += obstructed
            # away from 3, a character fails for t = -1 exactly at p = 2 (mod 3)
            for p in bqf._GENUS_PRIMES[1:]:
                if D % p == 0:
                    assert bqf._character_fails(form, -1, p) is (p % 3 == 2), (g, s, p)
    assert witnesses > 4000 and fired > 9000


def _forms_of_discriminant(D: int):
    """Forms (a, b, c) of discriminant D with 1 <= |a| <= 40 and 0 <= b < 2|a|."""
    for a in range(1, 41):
        for b in range(2 * a):
            if (b * b - D) % (4 * a) == 0:
                c = (b * b - D) // (4 * a)
                yield (a, b, c)
                yield (-a, b, -c)


@pytest.mark.parametrize("D", [
    # no odd prime below 1000 divides D
    8, 4 * 1009, 1009 * 1013,
    # one prime above 31, alone or beside small ones
    4 * 37, 997, 4 * 991, 4 * 3 * 5 * 997, 4 * 3 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 41,
    # two primes above 31
    37 * 41, 4 * 991 * 997, 3 * 43 * 953, 4 * 5 * 7 * 673 * 1009,
])
def test_genus_loop_matches_every_prime_factor(D):
    # the loop stops at the root of the odd primes left; the full loop tries
    # every odd prime below 1000 that divides D
    fired = 0
    for form in _forms_of_discriminant(D):
        for t in (-2, -1, 1, 2):
            full = any(bqf._character_fails(form, t, p) for p in bqf._GENUS_PRIMES if D % p == 0)
            assert bqf._genus_obstructed(form, t, D) is full, (form, t)
            fired += full
    assert fired > 0 or all(D % p for p in bqf._GENUS_PRIMES)


@pytest.mark.parametrize("coeffs, t", [
    ((1, 1, 2), 1), ((1, 0, -9), 1),
    # the character at 7 would fail for these: D must be checked first
    ((1, 1, 2), -1), ((1, 3, -10), -1),
])
def test_represents_checks_discriminant_before_genus(coeffs, t):
    f = QuadraticForm(*coeffs)
    assert modular_obstruction(f, t) is None
    with pytest.raises(ValueError):
        represents(f, t)


# -- giant strides past the switch ---------------------------------------------

def _decisions(cells):
    return [represents(_minus_two_form(g, s), -1) for g, s in cells]


def _log_strides(monkeypatch) -> list[str]:
    """Log each call of _landed and _signed_strides, "walk" where _giant
    hands the cycle back to the plain walk (_cycle_hit), and "closed" where
    _giant proves a closed cycle by landings, with no walk."""
    log: list[str] = []

    def logged(name):
        fn = getattr(bqf, name)

        def wrapped(*args):
            log.append(name)
            return fn(*args)
        monkeypatch.setattr(bqf, name, wrapped)
    for name in ("_landed", "_signed_strides"):
        logged(name)
    giant, cycle_hit = bqf._giant, bqf._cycle_hit

    def walk(*args):
        if sys._getframe(1).f_code is giant.__code__:
            log.append("walk")
        return cycle_hit(*args)

    def closing(*args):
        start = len(log)
        result = giant(*args)
        calls = log[start:]
        if result is None and "_landed" in calls and "walk" not in calls:
            log.append("closed")
        return result
    monkeypatch.setattr(bqf, "_cycle_hit", walk)
    monkeypatch.setattr(bqf, "_giant", closing)
    return log


@pytest.mark.parametrize("switch, window", [(16, 16), (32, 32), (48, 48), (64, 24)])
def test_giant_strides_match_the_walk(monkeypatch, switch, window):
    # with the switch lowered, strides decide most open cells of g < 270:
    # every decision, witness and sign included, is the walk's
    cells = [(g, s) for g in range(2, 270) for s in range(-3, 40)
             if (g - s) ** 2 > 12 * (g - 1)
             and isqrt((g - s) ** 2 - 12 * (g - 1)) ** 2 != (g - s) ** 2 - 12 * (g - 1)]
    monkeypatch.setattr(bqf, "_SWITCH", 10 ** 9)
    walked = _decisions(cells)
    log = _log_strides(monkeypatch)
    monkeypatch.setattr(bqf, "_SWITCH", switch)
    monkeypatch.setattr(bqf, "_window_size", lambda D: window)
    assert _decisions(cells) == walked
    # strides settle hits and closed cycles; the walk takes over on fewer
    # cells.  An ambiguous cycle of up to twice the switch closes in the
    # mirrored head, so the cells run to g < 270 to leave more than 40 closed
    # cycles to the strides at (64, 24)
    hits, closed, walks = (log.count(name) for name in ("_signed_strides", "closed", "walk"))
    assert hits > 300 and closed > 40 and walks < hits + closed


def test_strides_close_on_their_first_landing(monkeypatch):
    # the strides start at the last form of the start window, so a cycle a
    # little longer than the window closes on its first stride, whose
    # landing is already in the start window
    cells = [(g, s) for g in range(2, 400) for s in range(-3, 40)
             if (g - s) ** 2 > 12 * (g - 1)
             and isqrt((g - s) ** 2 - 12 * (g - 1)) ** 2 != (g - s) ** 2 - 12 * (g - 1)]
    monkeypatch.setattr(bqf, "_SWITCH", 10 ** 9)
    walked = _decisions(cells)
    log = _log_strides(monkeypatch)
    monkeypatch.setattr(bqf, "_SWITCH", 16)
    monkeypatch.setattr(bqf, "_window_size", lambda D: 16)
    strided, first = [], 0
    for cell in cells:
        start = len(log)
        strided += _decisions([cell])
        first += log[start:] == ["_landed", "closed"]
    assert strided == walked
    assert first > 40 and log.count("closed") > first


def test_giant_strides_match_the_walk_on_small_forms(monkeypatch):
    queries = [(QuadraticForm(*form), t) for form, _ in _small_indefinite_forms()
               if abs(form[0]) <= 8 and abs(form[2]) <= 8 for t in (-2, -1, 1, 2)]
    monkeypatch.setattr(bqf, "_SWITCH", 10 ** 9)
    walked = [represents(f, t) for f, t in queries]
    log = _log_strides(monkeypatch)
    monkeypatch.setattr(bqf, "_SWITCH", 4)
    monkeypatch.setattr(bqf, "_window_size", lambda D: 4)
    strided = []
    settled = {t: [0, 0] for t in (-2, -1, 1, 2)}
    for f, t in queries:
        start = len(log)
        strided.append(represents(f, t))
        settled[t][0] += log[start:].count("_signed_strides")
        settled[t][1] += log[start:].count("closed")
    assert strided == walked
    # for every target sign, strides settle hits and landings close cycles
    assert all(hits >= 1 and closed >= 1 for hits, closed in settled.values()), settled


def test_giant_strides_stop_at_the_cycle_bound(monkeypatch):
    # landings never recognised: the strides go round the 66-step cycle of
    # (81, 2) until the bound on the cycle length, then fail at once
    monkeypatch.setattr(bqf, "_SWITCH", 16)
    monkeypatch.setattr(bqf, "_window_size", lambda D: 16)
    monkeypatch.setattr(bqf, "_landed", lambda *args: (None, False))
    with pytest.raises(RuntimeError, match="internal error"):
        represents(_minus_two_form(81, 2), -1)


def test_loop_bounds_take_any_integer(monkeypatch):
    # a cycle bound past a C ssize_t, as at root >= 2**31 (g ~ 2.15e9 at
    # s = 1): the stride loop and the walk without a limit still count it.
    # (31, 0) falls back on the plain walk, (34, -1) counts its hit's steps
    # with the walk, and the strides close the cycle of (81, 2)
    cells = [(31, 0), (34, -1), (81, 2)]
    monkeypatch.setattr(bqf, "_SWITCH", 16)
    monkeypatch.setattr(bqf, "_window_size", lambda D: 16)
    expected = _decisions(cells)
    log = _log_strides(monkeypatch)
    monkeypatch.setattr(bqf, "_cycle_bound", lambda root: 2 ** 64)
    assert _decisions(cells) == expected
    assert {"walk", "_signed_strides", "closed"} <= set(log)
    start, targets, D, root = _walk_setup(_minus_two_form(81, 2), -1)
    assert bqf._cycle_hit(start, targets, root) is None


def test_counting_walk_fails_off_the_cycle():
    # the step count from the end of the walk to a target off its cycle: the
    # counting walk closes without meeting it, which is an internal error
    f = _minus_two_form(81, 2)
    start, targets, D, root = _walk_setup(f, -1)
    (target,) = targets
    assert _hit_step(f, -1) is None
    with pytest.raises(RuntimeError, match="internal error"):
        bqf._count_to(start, 0, start, target, root)


def test_edgeless_strided_hit_keeps_no_quotient_list(monkeypatch):
    # a strided hit on a target with a not dividing b counts its steps with
    # _count_to, not with the recording walk _cycle_hit and its quotient list
    queries = [(QuadraticForm(*form), t) for form, _ in _small_indefinite_forms()
               if abs(form[0]) <= 8 and abs(form[2]) <= 8 for t in (-2, 2)]
    monkeypatch.setattr(bqf, "_SWITCH", 4)
    monkeypatch.setattr(bqf, "_window_size", lambda D: 4)
    inside, counted = [], []
    signed_strides, cycle_hit, count_to = bqf._signed_strides, bqf._cycle_hit, bqf._count_to

    def signing(*args):
        inside.append(True)
        try:
            return signed_strides(*args)
        finally:
            inside.pop()

    def walk(*args):
        assert not inside, "a strided hit recorded the quotients of its count"
        return cycle_hit(*args)

    def counting(f_red, walked, end, g, root):
        if g[1] % g[0]:
            counted.append(g)
        return count_to(f_red, walked, end, g, root)
    monkeypatch.setattr(bqf, "_signed_strides", signing)
    monkeypatch.setattr(bqf, "_cycle_hit", walk)
    monkeypatch.setattr(bqf, "_count_to", counting)
    for f, t in queries:
        represents(f, t)
    assert len(counted) > 10


def test_walks_hand_over_once_past_the_window(monkeypatch):
    # a walk still open after _handover(D) = max(_SWITCH // 2, W) steps,
    # past the window W, hands over there, where it used to walk _SWITCH
    # steps
    # on g in [2000, 4000), W = 90-126: represents' witnesses and the scan's
    # decisions are the walk's, and the strides settle hits and closed
    # cycles of both walks in the band that the walks used to take, past
    # _SWITCH // 2 steps and within _SWITCH (with the switch doubled, a walk
    # hands over after _SWITCH steps, as it used to)
    cells = [(form, D, isqrt(D)) for form, D in _open_cells(3999) if form[2] >= 1999
             and form[2] % 32 == 0]
    switch = bqf._SWITCH
    assert {bqf._handover(D) for _, D, _ in cells} == {switch // 2}
    monkeypatch.setattr(bqf, "_SWITCH", 10 ** 9)
    walked = [(represents(QuadraticForm(*form), -1),
               bqf._screen(form, -1, D, root) or bqf._unit_walk(form, -1, D, root))
              for form, D, root in cells]
    log = _log_strides(monkeypatch)
    giant = bqf._giant
    monkeypatch.setattr(bqf, "_giant", lambda *args: log.append("giant") or giant(*args))

    def ends(switch):
        # the decisions of both walks of each cell with _SWITCH = switch, and
        # how the strides ended them, or None without a hand-over
        monkeypatch.setattr(bqf, "_SWITCH", switch)
        decisions, outcomes = [], []
        for form, D, root in cells:
            for decide in (lambda: represents(QuadraticForm(*form), -1),
                           lambda: bqf._screen(form, -1, D, root)
                           or bqf._unit_walk(form, -1, D, root)):
                start = len(log)
                decisions.append(decide())
                calls = log[start:]
                outcomes.append("walk" if "walk" in calls else "closed" if "closed" in calls
                                else "hit" if "_landed" in calls else
                                "handed" if "giant" in calls else None)
        return decisions, outcomes
    decided, strided = ends(switch)
    assert decided == [d for pair in walked for d in pair]
    doubled, before = ends(2 * switch)
    assert doubled == decided
    # by walk (represents, the scan) and outcome
    band = Counter((k % 2, now) for k, (now, then) in enumerate(zip(strided, before))
                   if then is None)
    assert min(band[k, outcome] for k in (0, 1) for outcome in ("hit", "closed")) > 0, band


def test_walks_hand_over_past_half_the_switch(monkeypatch):
    # near g = 3 * 10^5 the window W = 1,094 is past _SWITCH // 2, so both
    # walks of these open cells hand over at _handover(D) = W: the scan's
    # half walk after exactly W steps, represents' walk W steps along the
    # cycle or, where it mirrored, one more, as the mirrored steps count
    # too, since (300000, 2) mirrors in its second pass.  Hits and closed
    # cycles give the witnesses and decisions of the walk alone
    cells = [*((300000, s) for s in (-1, 2, 3, 4, 5, 7, 9, 10)),
             (300001, 0), (300001, 3), (300002, 6), (300002, 10)]
    forms = [_minus_two_form(g, s) for g, s in cells]
    D = {f.discriminant() for f in forms}
    assert {bqf._handover(d) for d in D} == {bqf._window_size(d) for d in D} == {1094}
    assert 1094 > bqf._SWITCH // 2

    def decide(f):
        form, D = (f.a, f.b, f.c), f.discriminant()
        return (represents(f, -1),
                bqf._screen(form, -1, D, isqrt(D)) or bqf._unit_walk(form, -1, D, isqrt(D)))
    switch = bqf._SWITCH
    monkeypatch.setattr(bqf, "_SWITCH", 10 ** 9)
    walked = [decide(f) for f in forms]
    monkeypatch.setattr(bqf, "_SWITCH", switch)
    giant, handed = bqf._giant, []
    monkeypatch.setattr(bqf, "_giant", lambda f_red, end, steps, *args: handed.append(steps)
                        or giant(f_red, end, steps, *args))
    past = []
    for cell, f, expected in zip(cells, forms, walked):
        del handed[:]
        assert decide(f) == expected, cell
        check, scan = handed
        assert check in (1094, 1095) and scan == 1094, (cell, handed)
        past += [cell] * (check - 1094)
    assert past == [(300000, 2)]
    assert {check.status for check, _ in walked} == {DecisionStatus.WITNESS,
                                                      DecisionStatus.NONE_PROVED}


def test_unit_hand_overs_read_h_off_the_principal_window(monkeypatch):
    # h and lambda(M) come from the window that a |t| = 1 hand-over already
    # walks from +-p_red, the target of a check and the start t0 of a scan:
    # a check walks two windows (f_red's and the target's), a scan three
    # (t0's, f_red's and tau(f_red)'s), and each h and lambda(M) is the one
    # of the principal walk, _window(p_red, n_h) and _product
    window, stride, giant = bqf._window, bqf._stride, bqf._giant
    windows, strides, counts = [], [], Counter()
    monkeypatch.setattr(bqf, "_window", lambda start, steps, root: windows.append(start)
                        or window(start, steps, root))
    monkeypatch.setattr(bqf, "_stride", lambda form, h, lam, D, root: strides.append((h, lam))
                        or stride(form, h, lam, D, root))
    scan = False

    def logged(f_red, end, walked, targets, D, root):
        del windows[:], strides[:]
        found = giant(f_red, end, walked, targets, D, root)
        if strides:
            W = min(bqf._window_size(D), bqf._SWITCH, walked)
            B = D & 1
            p_red, m_p = bqf._reduce((1, B, (B * B - D) // 4), D, root)
            _, pshears, h, _ = window(p_red, 3 * W // 4, root)
            M = bqf._matmul(m_p, bqf._product(pshears))
            assert set(strides) == {(h, (2 * M[0] + M[2] * B, -M[2]))}
            assert len(windows) == 2 + scan, (f_red, targets)
            counts[scan, f_red[0] if scan else next(iter(targets))[0]] += 1
        return found
    monkeypatch.setattr(bqf, "_giant", logged)
    monkeypatch.setattr(bqf, "_SWITCH", 4)
    for form, D in _small_indefinite_forms():
        if abs(form[0]) <= 8 and abs(form[2]) <= 8:
            for t in (-1, 1):
                scan = False
                represents(QuadraticForm(*form), t)
                scan = True
                bqf._screen(form, t, D, isqrt(D)) or bqf._unit_walk(form, t, D, isqrt(D))
    # checks and scans, for both signs of t
    assert min(counts[scan, t] for scan in (False, True) for t in (-1, 1)) > 20, counts
    # a |t| = 2 query walks its own principal window
    monkeypatch.undo()
    monkeypatch.setattr(bqf, "_window", lambda start, steps, root: windows.append((start, steps))
                        or window(start, steps, root))
    f = QuadraticForm(3, 20001, 20002)
    D = f.discriminant()
    root = isqrt(D)
    assert represents(f, -2).status is DecisionStatus.WITNESS
    B = D & 1
    p_red, _ = bqf._reduce((1, B, (B * B - D) // 4), D, root)
    assert (p_red, 3 * bqf._window_size(D) // 4) in windows


def test_represents_long_closed_cycle_100003_2():
    # a 62,134-step cycle that neither the residue scan nor a genus character
    # settles; recorded NONE_PROVED by the plain walk
    f = _minus_two_form(100003, 2)
    start, targets, D, root = _walk_setup(f, -1)
    assert D == 9998999977 and modular_obstruction(f, -1) is None
    assert not bqf._genus_obstructed((f.a, f.b, f.c), -1, D)
    assert _cycle_length(start, D, root) == 62134 > bqf._SWITCH
    assert represents(f, -1) == RepDecision.none_proved()


def test_represents_hard_cell_100135_2_witness_digest():
    # the SHA-256 of "m,n" in decimal, recorded from the walk's witness
    m, n = represents(_minus_two_form(100135, 2), -1).witness
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = f"{m},{n}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a1d3ff872e6928af3eadb5241396552de899661e7705b36b1ff77aff48b3aac0")


def test_represents_edgeless_strided_witness_digest(monkeypatch):
    # (3, 20001, 20002) at -2: a hit past the switch on a target with a not
    # dividing b, whose steps the counting walk counts without mirroring;
    # pinned by bit length and the SHA-256 of "m,n" in decimal
    counted = []
    count_to = bqf._count_to

    def counting(f_red, walked, end, g, root):
        counted.append((walked, g))
        return count_to(f_red, walked, end, g, root)
    monkeypatch.setattr(bqf, "_count_to", counting)
    m, n = represents(QuadraticForm(3, 20001, 20002), -2).witness
    [(walked, (a, b, _))] = counted
    assert (walked >= bqf._handover(QuadraticForm(3, 20001, 20002).discriminant()) - 1
            and b % a != 0)
    assert _bits((m, n)) == 5538
    assert hashlib.sha256(f"{m},{n}".encode()).hexdigest() == (
        "c1af74df3240d25db6726c1b8b9122905f6de349bbf471c77e59221566b5ca76")


def test_lambda_tree_matches_matrix_products():
    # the first column of a chain of walk transforms, as a product in
    # Q(sqrt(D)), is that of the plain product of all their shears
    form, _, D, root = _walk_setup(_minus_two_form(2315, 10), -1)
    rng = random.Random(7)
    shears, chain = [], []
    for length in [rng.randint(1, 40) for _ in range(13)]:
        segment, begin = [], form
        for _ in range(length):
            form, s = _rho(form, D, root)
            segment.append(s)
        p, _, r, _ = _sequential_shear_product(segment)
        chain.append((begin, p, r))
        shears += segment
    p, _, r, _ = _sequential_shear_product(shears)
    assert bqf._column(chain, D) == (p, r)


def test_xgcd_is_a_bezout_identity():
    rng = random.Random(5)
    pairs = [(0, 7), (0, -7), (12, 4), (-12, -4), (5, 1), (5, -1), (1, 1)]
    for _ in range(2000):
        a, b = (rng.choice((-1, 1)) * rng.randrange(1 << rng.randint(1, 80)) for _ in range(2))
        g = gcd(a, b) or 1
        k = rng.randrange(1, 1 << 40)
        pairs += [(a, b or 1), (a, g), (a, -g), (a * k, b * k or k)]
    for a, b in pairs:
        g, x, y = bqf._xgcd(a, b)
        assert x * a + y * b == g == gcd(a, b) > 0, (a, b)


def test_stride_composite_solves_the_composition_congruences(monkeypatch):
    # the middle coefficient B of the composite (a3, B, C) of a reduced form
    # (a1, b1, c1) with a principal form (a2, b2, c2), e = gcd(a1, a2,
    # (b1 + b2)/2): B = b1 (mod 2a1/e), B = b2 (mod 2a2/e), B^2 = D (mod 4a3),
    # for coprime first coefficients and others
    composites = []
    reduce_ = bqf._reduce

    def logged(form, D, root):
        composites.append(form)
        return reduce_(form, D, root)
    monkeypatch.setattr(bqf, "_reduce", logged)
    coprime = shared = 0
    for cell in [(2315, 10), (4417, 0), (81, 2), (1000, 7), (3001, 9)]:
        start, _, D, root = _walk_setup(_minus_two_form(*cell), -1)
        B = D & 1
        principal = [reduce_((1, B, (B * B - D) // 4), D, root)[0]]
        for _ in range(30):
            principal.append(_rho(principal[-1], D, root)[0])
        form = start
        for _ in range(60):
            form = _rho(form, D, root)[0]
            for h in principal[1::3]:
                (a1, b1, _), (a2, b2, _) = form, h
                composites.clear()
                bqf._stride(form, h, (2, 0), D, root)
                a3, B, _ = composites[0]
                e = gcd(a1, a2, (b1 + b2) // 2)
                assert a3 == a1 * a2 // (e * e) and 0 <= B < 2 * abs(a3)
                assert (B - b1) % (2 * a1 // e) == 0 and (B - b2) % (2 * a2 // e) == 0
                assert (B * B - D) % (4 * a3) == 0
                coprime += gcd(a1, a2) == 1
                shared += gcd(a1, a2) > 1
    assert coprime > 100 and shared > 100, (coprime, shared)


def test_stride_certificate_is_sound_and_not_vacuous():
    # walks from one form: a walk of m steps passes the certificate against
    # the window of its first k steps only when m < k, and most walks of at
    # most k/2 steps pass it
    passed = short = 0
    for cell in [(2315, 10), (4417, 0), (81, 2)]:
        start, _, D, root = _walk_setup(_minus_two_form(*cell), -1)
        form = start
        for _ in range(20):
            forms, shears = [form], []
            for _ in range(120):
                nxt, s = _rho(forms[-1], D, root)
                forms.append(nxt)
                shears.append(s)
            for k in (8, 24, 60):
                r_walk = _sequential_shear_product(shears[:k])[2]
                reach = bqf._reach(form, forms[k], r_walk, root)
                for m in range(1, 2 * k):
                    p, _, r, _ = _sequential_shear_product(shears[:m])
                    ok = bqf._certified(form, forms[m], p, r, root, reach)
                    assert not ok or m < k, (cell, form, k, m)
                    if 2 * m <= k:
                        short += 1
                        passed += ok
            form = forms[7]
    assert passed > 0.8 * short


def test_reduction_ends_within_its_bound():
    # plain rho steps to a reduced form: at most bit_length(|c|)/2 + 3, under
    # the bit_length(|c|) + 4 that _reduce allows (see its docstring)
    rng = random.Random(11)
    checked = 0
    for scale_a, scale_c in [(10 ** 6, 10 ** 6), (50, 10 ** 30), (10 ** 40, 10 ** 3)]:
        for _ in range(700):
            a, c = rng.randint(-scale_a, scale_a), rng.randint(-scale_c, scale_c)
            b = rng.randint(-scale_c, scale_c)
            D = b * b - 4 * a * c
            if D <= 0 or a == 0 or c == 0 or isqrt(D) ** 2 == D:
                continue
            root = isqrt(D)
            form, steps = (a, b, c), 0
            while not _is_reduced(form, D, root):
                form, _ = _rho(form, D, root)
                steps += 1
            assert steps <= abs(c).bit_length() // 2 + 3, ((a, b, c), steps)
            assert bqf._reduce((a, b, c), D, root)[0] == form
            checked += 1
    assert checked > 1000


# -- continued-fraction oracle for the (-2) decision ----------------------------

def _cf_minus_two(g: int, s: int) -> bool:
    """Independent oracle: True when 3m^2 + dmn + (g-1)n^2 = -1, d = g - s, has
    an integer solution, for Delta = d^2 - 12(g-1) > 144 nonsquare.  It uses
    no form reduction, no targets, no strides and no genus test.

    12*Q(m, n) = (6m + dn)^2 - Delta*n^2, so Q = -1 exactly when
    x^2 - Delta*y^2 = -12 with x = dy (mod 6).  gcd(x, y)^2 divides 12, so
    (x, y) is primitive, or (2X, 2Y) with X^2 - Delta*Y^2 = -3 primitive and
    X = dY (mod 3).  As 12 < sqrt(Delta), every positive primitive solution of
    X^2 - Delta*Y^2 = N with |N| <= 12 is a convergent p_k/q_k of sqrt(Delta)
    (Lagrange; Niven, Zuckerman & Montgomery, 5th ed., Thm 7.24), and
    p_k^2 - Delta*q_k^2 = (-1)^(k+1) Q_(k+1) in the expansion by (P_k, Q_k).
    The signs of x and y make the congruence x = +-dy on |x|, |y|.

    The walk keeps p and q mod 6 only and stops at the first repeat of the
    state (P, Q, the residues, the parity of k), after which nothing new
    comes.  A step can be undone on these states, so that repeat is of the
    first state."""
    d = g - s
    D = d * d - 12 * (g - 1)
    assert D > 144 and isqrt(D) ** 2 != D
    a0 = isqrt(D)
    P, Q, even = 0, 1, True
    p, p1, q, q1 = 1, 0, 0, 1  # p_(k-1), p_(k-2), q_(k-1), q_(k-2) mod 6
    first = None
    while True:
        a = (a0 + P) // Q
        p, p1 = (a * p + p1) % 6, p
        q, q1 = (a * q + q1) % 6, q
        P = a * Q - P
        Q = (D - P * P) // Q
        if even and Q in (3, 12):  # p_k^2 - Delta*q_k^2 = -Q
            mod = 6 if Q == 12 else 3
            if (p - d * q) % mod == 0 or (p + d * q) % mod == 0:
                return True
        even = not even
        state = (P, Q, p, p1, q, q1, even)
        if first is None:
            first = state
        elif state == first:
            return False


def _witness_cell(g: int, s: int) -> bool:
    return represents(_minus_two_form(g, s), -1).status is DecisionStatus.WITNESS


@pytest.mark.parametrize("cell, witness", [
    ((100135, 2), True), ((100003, 2), False),
    # check-witness cells whose walks pass the switch
    ((28379, 6), True), ((28989, 2), True), ((25381, 3), True),
    ((12007, 0), True), ((7393, 2), True), ((13907, 6), True),
])
def test_cf_oracle_matches_represents_on_named_cells(cell, witness):
    assert _cf_minus_two(*cell) is witness
    assert _witness_cell(*cell) is witness


def test_cf_oracle_matches_represents_past_the_switch(monkeypatch):
    # every cell of the band has Delta > 144, and some walks there pass the
    # switch: giant strides settle both hits and closed cycles
    cells = [(g, s) for g in range(4000, 4100) for s in range(-1, 11)]
    log = _log_strides(monkeypatch)
    assert [_witness_cell(g, s) for g, s in cells] == [_cf_minus_two(g, s) for g, s in cells]
    assert "_signed_strides" in log and "closed" in log
