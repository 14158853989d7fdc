import hashlib
import random
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
    pell_fundamental,
    represents,
    represents_zero_nontrivially,
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
    has_zero = represents_zero_nontrivially(f)
    if has_zero:
        w = zero_witness(f)
        assert w is not None and w != (0, 0) and f.evaluate(*w) == 0
    found = brute_find(f, 0, 40)
    if found is not None:
        assert has_zero, (f, found)


@settings(max_examples=150, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30).filter(lambda m: m != 0))
def test_isotropic_constructions_have_witness(a, b, m0):
    # c chosen so that (m0, 1) is a zero; the decision must say yes
    c = -a * m0 * m0 - b * m0
    f = QuadraticForm(a, b, c)
    assert represents_zero_nontrivially(f)
    w = zero_witness(f)
    assert w != (0, 0) and f.evaluate(*w) == 0


# -- modular obstructions -----------------------------------------------------

def test_modular_obstruction_examples():
    assert modular_obstruction(QuadraticForm(3, 12, 12), -1, [3]) == 3
    assert modular_obstruction(QuadraticForm(3, 7, 3), -1, [3, 4, 5]) is None
    assert modular_obstruction(QuadraticForm(1, 0, 1), -1, [4]) == 4


def test_modular_obstruction_rejects_small_modulus():
    with pytest.raises(ValueError):
        modular_obstruction(QuadraticForm(1, 1, 1), 1, [1])


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


# -- Pell fundamental solutions -----------------------------------------------

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


# -- complete representability decision ---------------------------------------

def test_represents_named_examples():
    dec = represents(QuadraticForm(3, 7, 3), -1)
    assert dec.status is DecisionStatus.WITNESS
    assert QuadraticForm(3, 7, 3).evaluate(*dec.witness) == -1
    assert dec.method is DecisionMethod.PELL_SEARCH

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


# -- one-pass cycle walk and streaming witness assembly ------------------------

def _hit_step(f: QuadraticForm, t: int):
    """Steps of rho from reduced f to the first reduced form properly
    equivalent to some (t, B, C), counted by a plain walk; None without a hit."""
    D = f.discriminant()
    root = isqrt(D)
    start, _ = bqf._reduce((f.a, f.b, f.c), D, root)
    targets = {bqf._reduce((t, B, (B * B - D) // (4 * t)), D, root)[0]
               for B in range(2 * abs(t)) if (B * B - D) % (4 * t) == 0}
    current, steps = start, 0
    while current not in targets:
        current, _ = bqf._rho(current, D, root)
        steps += 1
        if current == start:
            return None
    return steps


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


def _sequential_shear_product(shears):
    # independent reference: left-to-right 2x2 products, one shear at a time
    def matmul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])
    return reduce(matmul, [(0, -1, 1, s) for s in shears], (1, 0, 0, 1))


def _streamed_shear_product(shears):
    # leaves of _LEAF shears through the binary-counter stack, as the walk does
    L = bqf._LEAF
    full = len(shears) // L * L
    stack = []
    for i in range(0, full, L):
        bqf._push_leaf(stack, bqf._leaf_product(shears[i:i + L]))
        leaves = i // L + 1
        # balanced: the leaf counts on the stack are the binary digits of `leaves`
        assert [size for size, _ in stack] == [
            1 << k for k in reversed(range(leaves.bit_length())) if leaves >> k & 1]
    return bqf._fold(stack, bqf._leaf_product(shears[full:]))


def test_streaming_shear_product_matches_sequential_fold():
    L = bqf._LEAF
    lengths = [0, 1, L - 1, L, L + 1]
    lengths += [(1 << k) * L + e for k in range(1, 5) for e in (-1, 1)]
    rng = random.Random(4)
    for n in lengths:
        shears = [rng.randint(-40, 40) for _ in range(n)]
        assert _streamed_shear_product(shears) == _sequential_shear_product(shears), n


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
