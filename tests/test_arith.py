"""Oracle and property tests for the exact scalar layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiczeta.arith import (
    CountedRoots,
    CycSum,
    CycValue,
    DepthContext,
    MellinMonomial,
    SqrtRational,
    cyclotomic_poly,
    frac_part,
    psi,
    psi_T,
    rat_to_text,
    valuation,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


# -- valuation / frac_part --------------------------------------------------

def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(1, 5) == 0
    assert valuation(Fraction(3, 8), 2) == -3


def test_valuation_zero_raises():
    with pytest.raises(ZeroDivisionError):
        valuation(0, 2)


@given(x=rationals, y=rationals, p=st.sampled_from([2, 3, 5]))
def test_valuation_multiplicative(x, y, p):
    if x != 0 and y != 0:
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_frac_part_examples():
    assert frac_part(Fraction(7, 8), 2) == Fraction(7, 8)
    assert frac_part(5, 3) == 0
    # solve 3r = 1 mod 2: frac_part(1/6) at p=2 is 1/2, and the difference
    # 1/6 - 1/2 = -1/3 is 2-integral
    assert frac_part(Fraction(1, 6), 2) == Fraction(1, 2)
    assert valuation(Fraction(1, 6) - Fraction(1, 2), 2) >= 0


@given(x=rationals, p=st.sampled_from([2, 3, 5]))
def test_frac_part_defining_property(x, p):
    r = frac_part(x, p)
    assert 0 <= r < 1
    if r != 0:
        assert r.denominator == p ** (-valuation(r, p))
    if x != r:
        assert valuation(x - r, p) >= 0


@given(x=rationals, y=rationals, p=st.sampled_from([2, 3]))
def test_frac_part_additive_mod_1(x, y, p):
    lhs = frac_part(x + y, p)
    rhs = frac_part(x, p) + frac_part(y, p)
    assert (lhs - rhs).denominator == 1  # congruent mod 1


# -- psi, psi_T -------------------------------------------------------------

def test_psi_examples():
    assert psi(0, 2) == CycValue.one
    assert psi(Fraction(1, 2), 2) == CycValue.rational(-1)
    for p in (2, 3, 5):
        total = CycValue.zero
        for j in range(p):
            total = total + psi(Fraction(j, p), p)
        assert total.is_zero()


def test_psi_T_conductor():
    for p, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        ctx = DepthContext(p, m)
        # trivial on q^2 = p^(2m) o
        assert psi_T(p ** (2 * m), ctx) == CycValue.one
        assert psi_T(Fraction(0), ctx) == CycValue.one
        # nontrivial on p^(2m-1)
        assert psi_T(p ** (2 * m - 1), ctx) != CycValue.one


def test_depth_context_T():
    ctx = DepthContext(2, 1)
    assert ctx.T == 4 and ctx.Ttilde == Fraction(1, 4) and ctx.q == 2
    with pytest.raises(ValueError):
        DepthContext(4, 1)
    with pytest.raises(ValueError):
        DepthContext(2, 0)


# -- CycValue ---------------------------------------------------------------

def test_cyc_basic_relations():
    z2 = CycValue.root_of_unity(2, 1)
    assert (CycValue.one + z2).is_zero()
    z4 = CycValue.root_of_unity(4, 1)
    assert z4 * z4 == z2
    z3 = CycValue.root_of_unity(3, 1)
    assert (CycValue.one + z3 + z3 * z3).is_zero()


def test_cyc_orbit_sum_vanishes():
    # sum over j = j0 mod p^(M-1), j mod p^M, of zeta^j is zero
    p, M = 3, 2
    for j0 in range(p ** (M - 1)):
        total = CycValue.zero
        for t in range(p):
            total = total + CycValue.root_of_unity(p ** M, j0 + t * p ** (M - 1))
        assert total.is_zero()


def test_cyc_mixed_order_products():
    z3 = CycValue.root_of_unity(3, 1)
    z4 = CycValue.root_of_unity(4, 1)
    w = z3 * z4
    assert w == CycValue.root_of_unity(12, 7)
    assert (w * w.conj()) == CycValue.one


def test_cyc_rationality():
    z5 = CycValue.root_of_unity(5, 1)
    s = CycValue.zero
    for k in range(5):
        s = s + CycValue.root_of_unity(5, k)
    assert s.as_rational() == 0
    assert z5.as_rational() is None
    assert (z5 + z5.conj()).as_rational() is None


@given(st.integers(min_value=1, max_value=40))
def test_cyclotomic_poly_degree(n):
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    expected = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert deg == expected and phi[-1] == 1


@settings(max_examples=200)
@given(st.integers(0, 23), st.integers(0, 23), st.integers(0, 23))
def test_cyc_ring_laws(a, b, c):
    n = 24
    x = CycValue.root_of_unity(n, a) + CycValue.rational(Fraction(a - b, 7))
    y = CycValue.root_of_unity(n, b)
    z = CycValue.root_of_unity(n, c) * Fraction(1, 3)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)


def _eq_cases():
    z2, z3, z4 = (CycValue.root_of_unity(n, 1) for n in (2, 3, 4))
    w = z3 * Fraction(2, 3) + CycValue.rational(5)
    return [
        # identical dicts, the second a copy of the first
        (w, CycValue(w.order, dict(w.coeffs)), True),
        (w, w, True),
        # one value stored at two orders
        (z2, z4 * z4, True),
        (z4 * z4, CycValue.rational(-1), True),
        (z2, z4, False),
        # cancelled sums against zero
        (CycValue.one + z2, CycValue.zero, True),
        (CycValue.one + z3 + z3 * z3, CycValue.zero, True),
        (CycValue.one + z3 + z3 * z3, 0, True),
        # the same order, different dicts
        (CycValue(3, {0: 1}), CycValue(3, {1: -1, 2: -1}), True),
        (CycValue(3, {1: 1}), CycValue(3, {2: 1}), False),
        (CycValue(4, {1: 1, 2: 1}), CycValue(4, {1: 1, 3: 1}), False),
        # int and Fraction operands
        (CycValue.rational(3), 3, True),
        (CycValue.rational(3), Fraction(3), True),
        (CycValue(1, {0: Fraction(1, 2)}), Fraction(1, 2), True),
        (CycValue(1, {0: Fraction(1, 2)}), 1, False),
        (CycValue(2, {0: 2, 1: 1}), 1, True),
        (z4, 0, False),
    ]


def test_cyc_eq_matches_reduction():
    # equality is decided by reduction mod Phi_order; equal stored forms
    # may answer at once, and the answer is the reduction's either way,
    # from either side
    for a, b, want in _eq_cases():
        assert (a - b).is_zero() is want
        assert (a == b) is want and (a != b) is not want
        assert (b == a) is want


@settings(derandomize=True, max_examples=300)
@given(st.sampled_from([1, 2, 3, 4, 6, 8, 9]),
       st.sampled_from([1, 2, 3, 4, 6, 8, 9]),
       st.dictionaries(st.integers(0, 71), st.integers(-2, 2), max_size=4),
       st.dictionaries(st.integers(0, 71), st.integers(-2, 2), max_size=4),
       st.booleans())
def test_cyc_eq_matches_reduction_on_random_values(n, n2, ca, cb, copy):
    a = CycValue(n, ca)
    b = CycValue(n, dict(a.coeffs)) if copy else CycValue(n2, cb)
    assert (a == b) is (a - b).is_zero() is (b == a)


def _reduces_to_zero(v):
    return all(c == 0 for c in v.reduced())


def test_is_zero_by_the_coset_rule_matches_the_reduction(monkeypatch):
    # at a power p^k of a prime, k >= 1, `is_zero` reads the stored
    # coefficients by the coset rule, with no reduction; random sparse
    # rational values, zeros built from whole cosets of the subgroup of
    # order p, and such zeros one count off are all read as the reduction
    # reads them
    rng = random.Random(37)
    reductions = []
    reduced = CycValue.reduced

    def counted(self):
        reductions.append(self.order)
        return reduced(self)

    counts = [Fraction(c, d) for c in range(-3, 4) if c
              for d in (1, 2, 3)]
    zeros = misses = 0
    for p, ks in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)), (5, (1, 2))):
        for k in ks:
            N = p ** k
            step = N // p
            for trial in range(60):
                coeffs = {}
                if trial % 3:
                    for e in rng.sample(range(step),
                                        rng.randint(1, min(3, step))):
                        c = rng.choice(counts)
                        for j in range(p):
                            coeffs[e + j * step] = c
                    if trial % 3 == 2:
                        e = rng.choice([*coeffs, rng.randrange(N)])
                        coeffs[e] = coeffs.get(e, 0) + rng.choice([1, -1])
                else:
                    coeffs = {rng.randrange(N): rng.choice(counts)
                              for _ in range(rng.randint(0, 2 * p))}
                v = CycValue(N, coeffs)
                want = _reduces_to_zero(v)
                with monkeypatch.context() as patch:
                    patch.setattr(CycValue, "reduced", counted)
                    assert v.is_zero() is want, (N, coeffs)
                zeros += want and trial % 3 == 1
                misses += trial % 3 == 2 and not want
    assert reductions == [] and zeros == 9 * 20 and misses == 9 * 20
    # order 1 and orders that are not prime powers take the reduction
    for N, coeffs, want in ((1, {}, True), (1, {0: 2}, False),
                            (6, {0: 1, 2: 1, 4: 1}, True),
                            (6, {0: 1, 3: 1}, True), (6, {1: 1}, False),
                            (12, {0: 1, 4: 1, 8: 1}, True),
                            (12, {1: 1, 7: 1}, True), (12, {1: 1, 5: 1},
                                                       False)):
        v = CycValue(N, coeffs)
        with monkeypatch.context() as patch:
            patch.setattr(CycValue, "reduced", counted)
            patch.setattr(CycValue, "histogram_is_zero", None)
            assert v.is_zero() is want, (N, coeffs)
        assert reductions[-1] == N


# an addend: a count times a product of roots of unity, one per factor,
# with factor i at order p^k_i for k_i <= 3 and any integer exponent
_counts = st.one_of(st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=4))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from([2, 3]),
       st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.lists(st.tuples(st.tuples(*[st.integers(-26, 26)] * 3), _counts),
                max_size=8),
       st.integers(0, 8), _counts, st.sampled_from(["keys", "dict", "list"]))
def test_from_histogram_prints_as_cyc_sum_of_products(p, ks, addends, cancel,
                                                      weight, form):
    # the order rule of `from_histogram`: products counted under one
    # exponent per factor, each at its own order, print as the chained sum
    # of the products, cancelled addends included.  A single factor may
    # also be counted by its exponent alone, as a dict, which keeps its
    # cancelled keys, or as a list, whose zero counts are no roots
    addends += [(es, -count) for es, count in addends[:cancel]]
    orders = tuple(p ** k for k in ks)
    counts, total = {}, CycSum()
    for es, count in addends:
        key = es[:len(orders)]
        term = CycValue.one
        for e, n in zip(key, orders):
            term = term * CycValue.root_of_unity(n, e)
        counts[key] = counts.get(key, 0) + count
        total.add(term * (count * weight))
    if form == "keys" or len(orders) > 1:
        got = CycValue.from_histogram(counts, weight, orders)
    else:
        (N,) = orders
        hist = {}
        for (e,), count in counts.items():
            hist[e % N] = hist.get(e % N, 0) + count
        if form == "dict":
            got = CycValue.from_histogram(hist, weight, N)
        else:
            got = CycValue.from_histogram([hist.get(e, 0) for e in range(N)],
                                          weight)
            total = CycSum()
            for e, count in hist.items():
                if count:
                    total.add(CycValue.root_of_unity(N, e) * (count * weight))
    assert got.to_json() == total.value().to_json()


def _box_pair(rng, p, T, kind):
    """Two (psi exponent, phase exponent) histograms as `CountedRoots` at
    (p^B, T) for two depths B, each with its own weight.  "equal": one
    histogram read at both depths, its counts times s and its weight over
    s, plus whole cosets of the subgroup of order p (zero sums), so the
    values are equal though the counts differ; "near": the same, one count
    off on one side; "random": two independent histograms."""
    B1, B2 = rng.sample(range(5), 2)
    base = {(rng.randrange(p ** min(B1, B2)), rng.randrange(T)):
            rng.choice([-2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 5))}
    weight = Fraction(rng.choice([1, -1, 2, 3]), p ** rng.randrange(6))
    sides = []
    for B in (B1, B2):
        pB, s = p ** B, rng.randint(1, 4)
        if kind == "random":
            counts = {(rng.randrange(pB), rng.randrange(T)):
                      rng.choice([-1, 1, 2]) for _ in range(rng.randint(0, 5))}
        else:
            lift = pB // p ** min(B1, B2)
            counts = {(x * lift, e): s * c for (x, e), c in base.items()}
        for _ in range(rng.randint(0, 2)):
            x, e = rng.randrange(pB), rng.randrange(T)
            c, by_x = rng.choice([-1, 1, 2]), pB > 1 and rng.random() < 0.5
            for j in range(p):
                key = ((x + j * pB // p) % pB, e) if by_x \
                    else (x, (e + j * T // p) % T)
                counts[key] = counts.get(key, 0) + c
        counts = {key: c for key, c in counts.items() if c}
        sides.append(CountedRoots(counts, weight / s, (pB, T), p))
    if kind == "near":
        counts = sides[1].counts
        key = rng.choice([*counts, (0, rng.randrange(T))])
        counts[key] = counts.get(key, 0) + rng.choice([-1, 1])
    return sides


def test_counted_roots_compare_as_their_values():
    # the integer comparison of two box histograms at different depths
    # and weights answers as `==` of their `from_histogram` values, and as
    # the reduction of the difference, also where only the reduction
    # makes them equal
    rng = random.Random(41)
    seen = {}
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        T = p ** (2 * m)
        for trial in range(150):
            kind = ("equal", "near", "random")[trial % 3]
            one, two = _box_pair(rng, p, T, kind)
            want = _reduces_to_zero(one.value() - two.value())
            assert (one.value() == two.value()) is want
            assert (one == two) is want is (two == one), (p, m, kind)
            assert (one != two) is not want
            seen[kind, want] = seen.get((kind, want), 0) + 1
    assert seen["equal", True] == 4 * 50
    assert seen["near", False] > 150 and seen["random", False] > 150


def test_cyc_numeric_sanity():
    """cyc equality agrees with complex-float evaluation (sanity only)."""
    import cmath
    import random

    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 8, 9, 12])
        a = CycValue(n, {rng.randrange(n): Fraction(rng.randint(-5, 5))
                         for _ in range(3)})
        b = CycValue(n, {rng.randrange(n): Fraction(rng.randint(-5, 5))
                         for _ in range(3)})
        za = sum(c * cmath.exp(2j * cmath.pi * e / n)
                 for e, c in a.coeffs.items())
        zb = sum(c * cmath.exp(2j * cmath.pi * e / n)
                 for e, c in b.coeffs.items())
        assert (a == b) == (abs(za - zb) < 1e-9)


# -- SqrtRational -----------------------------------------------------------

def test_sqrt_rational():
    a = SqrtRational.sqrt(Fraction(2, 3))
    b = SqrtRational.sqrt(Fraction(3, 2))
    assert (a * b).sign == 1 and (a * b).squared() == 1
    c = SqrtRational.of_rational(Fraction(-3, 4))
    assert c.sign == -1 and c.squared() == Fraction(9, 16)
    assert (a * a).squared() == Fraction(4, 9)
    assert SqrtRational.sqrt(5).squared() == 5


# -- MellinMonomial ---------------------------------------------------------

def test_monomial_examples():
    # T^{s1 + 1/2}: exponent 2 in T^(1/2)-units, offset 1
    a = MellinMonomial(1, (2,), 1)
    assert (a.scalar, a.exponents, a.offset) == (Fraction(1), (2,), 1)
    # closed-form zeta exponent at n=2: offset -2 in T^(1/2) units
    zeta_shape = MellinMonomial(Fraction(1), (3, 3), -2)
    assert zeta_shape.offset == -2


def test_text_roundtrip():
    assert rat_to_text(Fraction(-3, 4)) == "-3/4"
