import hashlib
import random
import sys
from functools import reduce
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3cert import bqf
from k3cert.bqf import (
    DEFAULT_MODULI,
    DecisionMethod,
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
    assert modular_obstruction(QuadraticForm(3, 12, 12), -1, [3]) == 3
    assert modular_obstruction(QuadraticForm(3, 7, 3), -1, [3, 4, 5]) is None
    assert modular_obstruction(QuadraticForm(1, 0, 1), -1, [4]) == 4


def test_modular_obstruction_rejects_small_modulus():
    with pytest.raises(ValueError):
        modular_obstruction(QuadraticForm(1, 1, 1), 1, [1])
    # every modulus is checked, also past one that obstructs
    with pytest.raises(ValueError):
        modular_obstruction(QuadraticForm(3, 12, 12), -1, (3, 0))


@settings(max_examples=120, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-2, 2))
def test_modular_obstruction_sound(a, b, c, t):
    f = QuadraticForm(a, b, c)
    k = modular_obstruction(f, t, DEFAULT_MODULI)
    if k is not None:
        residues = {f.evaluate(m, n) % k for m in range(k) for n in range(k)}
        assert t % k not in residues
        assert brute_find(f, t, 25) is None


def _plain_obstruction(a: int, b: int, c: int, t: int, moduli):
    # independent reference: the unmemoised double loop over residue pairs
    for k in moduli:
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
    for moduli in (DEFAULT_MODULI, (7,), (16, 3), (5, 7, 11)):
        expected = [_plain_obstruction(f.a, f.b, f.c, t, moduli) for f, t in queries]
        bqf._residue_hit.cache_clear()
        for _ in ("cold", "warm"):
            assert [modular_obstruction(f, t, moduli) for f, t in queries] == expected, moduli
    assert bqf._residue_hit.cache_info().hits > 0
    assert bqf._residue_hit.cache_info().maxsize is not None
    # the warm cache does not skip the modulus check, in the given order
    f = QuadraticForm(1, 1, 1)
    for moduli in ((3, 1), (0,), (-4,)):
        with pytest.raises(ValueError):
            modular_obstruction(f, 1, moduli)


# -- complete representability decision ---------------------------------------

def test_represents_named_examples():
    dec = represents(QuadraticForm(3, 7, 3), -1)
    assert dec.status is DecisionStatus.WITNESS
    assert QuadraticForm(3, 7, 3).evaluate(*dec.witness) == -1
    assert dec.method is DecisionMethod.PELL_SEARCH
    assert repr(dec) == (
        "RepDecision(status=<DecisionStatus.WITNESS: 'witness'>, witness=(1, -1), modulus=None)")

    dec = represents(QuadraticForm(3, 11, -9), -1)
    assert dec.status is DecisionStatus.NONE_PROVED
    assert dec.method is DecisionMethod.PELL_SEARCH

    dec = represents(QuadraticForm(3, 12, 12), -1)
    assert dec.status is DecisionStatus.OBSTRUCTED_MOD and dec.modulus == 3
    assert dec.method is DecisionMethod.MOD_SCAN

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
    # where they close
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
            if expected is None or expected[1]:
                outcomes.add((start[2] > 0, expected is None))
    # starts with c > 0 and with c < 0, each with hits and closed walks
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


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
    # hit after 262,763 steps of rho; ~25 s with sequential products (2-core x86-64)
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
    assert dec.method is DecisionMethod.PELL_SEARCH


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
                    scan[key] = modular_obstruction(QuadraticForm(*key[:3]), t, (p,)) == p
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
    """Log each call of _landed, _signed_strides and _walk_on, and "closed"
    where _giant proves a closed cycle by landings, with no walk."""
    log: list[str] = []

    def logged(name):
        fn = getattr(bqf, name)

        def wrapped(*args):
            log.append(name)
            return fn(*args)
        monkeypatch.setattr(bqf, name, wrapped)
    for name in ("_landed", "_signed_strides", "_walk_on"):
        logged(name)
    giant = bqf._giant

    def closing(*args):
        start = len(log)
        result = giant(*args)
        calls = log[start:]
        if result is None and "_landed" in calls and "_walk_on" not in calls:
            log.append("closed")
        return result
    monkeypatch.setattr(bqf, "_giant", closing)
    return log


@pytest.mark.parametrize("switch, window", [(16, 16), (32, 32), (48, 48), (64, 24)])
def test_giant_strides_match_the_walk(monkeypatch, switch, window):
    # with the switch lowered, strides decide most open cells of g < 260:
    # every decision, witness and sign included, is the walk's
    cells = [(g, s) for g in range(2, 260) for s in range(-3, 40)
             if (g - s) ** 2 > 12 * (g - 1)
             and isqrt((g - s) ** 2 - 12 * (g - 1)) ** 2 != (g - s) ** 2 - 12 * (g - 1)]
    monkeypatch.setattr(bqf, "_SWITCH", 10 ** 9)
    walked = _decisions(cells)
    log = _log_strides(monkeypatch)
    monkeypatch.setattr(bqf, "_SWITCH", switch)
    monkeypatch.setattr(bqf, "_window_size", lambda D: window)
    assert _decisions(cells) == walked
    # strides settle hits and closed cycles; the walk takes over on fewer cells
    hits, closed, walks = (log.count(name) for name in ("_signed_strides", "closed", "_walk_on"))
    assert hits > 300 and closed > 40 and walks < hits + closed


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
    monkeypatch.setattr(bqf, "_landed", lambda *args: (None, None))
    with pytest.raises(RuntimeError, match="internal error"):
        represents(_minus_two_form(81, 2), -1)


def test_counting_walk_fails_off_the_cycle():
    # the step count from the end of the walk to a target off its cycle: the
    # counting walk closes without meeting it, which is an internal error
    f = _minus_two_form(81, 2)
    start, targets, D, root = _walk_setup(f, -1)
    (target,) = targets
    assert _hit_step(f, -1) is None
    with pytest.raises(RuntimeError, match="internal error"):
        bqf._signed_strides(start, 0, start, [], start, 0, target, [], root)


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
                reach = bqf._reach(form, forms[k], shears[:k], root)
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
