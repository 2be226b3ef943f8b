"""The localized test function: kernel, convolution, closed formula."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta.arith import CycValue, DepthContext, psi_T, valuation
from padiczeta.group import Mat, SubgroupSpec, enumerate_cosets, haar_volume
from padiczeta import testfn
from padiczeta.params import chi_tau_eval, theta_matrix
from padiczeta.testfn import (
    f_convolution,
    f_explicit,
    l2_norm_sq,
    lower_borel_order,
    mellin_component,
    translate_for_H,
)
from paper_checks import base_test_function, l2_norm_report
from twins import J_open_cell, _explicit_exponent_mod, dual_value_parts

CTX21 = DepthContext(2, 1)
CTX31 = DepthContext(3, 1)
CTX22 = DepthContext(2, 2)


# -- the open-cell kernel ---------------------------------------------------

def test_kernel_values():
    assert J_open_cell(Mat.identity(2, 2), CTX21) == CycValue.one
    assert J_open_cell(Mat.diag([2, 1], 2), CTX21).is_zero()
    assert J_open_cell(Mat.from_text("0,1;1,0", 2), CTX21).is_zero()


def test_kernel_rank2_closed_form():
    rng = random.Random(9)
    for _ in range(60):
        a = Fraction(rng.choice([1, 3, 5, 7]))
        b = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4]))
        c = Fraction(rng.randint(-6, 6))
        d = Fraction(rng.randint(-6, 6))
        g = Mat([[a, b], [c, d]], 2)
        if g.det() == 0:
            continue
        expect = psi_T(b / a, CTX21) if valuation(g.det(), 2) == 0 \
            else CycValue.zero
        assert J_open_cell(g, CTX21) == expect


def _rows_in_K(rng, p, n, T):
    """Random integer rows mod T of an element of K."""
    while True:
        rows = [[rng.randrange(T) for _ in range(n)] for _ in range(n)]
        if Mat(rows, p).det() % p:
            return rows


def _inverse_mod(rows, p, T):
    """The inverse mod T of integer rows with a unit determinant, by
    Gauss-Jordan elimination on a unit pivot of each column."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    for j in range(n):
        piv = next(i for i in range(j, n) if aug[i][j] % p)
        aug[j], aug[piv] = aug[piv], aug[j]
        inv = pow(aug[j][j], -1, T)
        aug[j] = [x * inv % T for x in aug[j]]
        for i in range(n):
            if i != j:
                f = aug[i][j]
                aug[i] = [(x - f * y) % T for x, y in zip(aug[i], aug[j])]
    return [row[n:] for row in aug]


def _times_mod(x, y, T):
    return [[sum(a * b for a, b in zip(row, col)) % T for col in zip(*y)]
            for row in x]


def test_explicit_exponent_at_matches_the_full_product():
    # `_explicit_exponent_at` reads the phase of krows k from a prefix of
    # the product; `_explicit_exponent_mod` of the whole product mod q^2
    # is the reference.  On-support pairs are krows = b k^-1 mod q^2, with
    # b lower triangular, or lower triangular times an upper unipotent
    # matrix = 1 mod q; random pairs in K are read off the support
    # exactly where the reference reads None
    rng = random.Random(31)
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        ctx = DepthContext(p, m)
        q, T = ctx.q, ctx.T
        units = [u for u in range(T) if u % p]
        for n in (2, 3, 4):
            hits = misses = 0
            for trial in range(120):
                k = _rows_in_K(rng, p, n, T)
                if trial % 2:
                    krows = _rows_in_K(rng, p, n, T)
                else:
                    b = [[rng.choice(units) if i == j
                          else rng.randrange(T) if j < i else 0
                          for j in range(n)] for i in range(n)]
                    if trial % 4:
                        b = _times_mod(b, [[int(i == j) if j <= i
                                            else q * rng.randrange(q)
                                            for j in range(n)]
                                           for i in range(n)], T)
                    krows = _times_mod(b, _inverse_mod(k, p, T), T)
                want = _explicit_exponent_mod(_times_mod(krows, k, T), ctx)
                got = testfn._explicit_exponent_at(krows, list(zip(*k)),
                                                   ctx)
                assert got == want, (p, m, n, krows, k)
                if trial % 2 == 0:
                    assert want is not None
                hits += want is not None
                misses += want is None
            assert hits >= 60 and misses > 10, (p, m, n, hits, misses)


# -- convolution vs explicit ------------------------------------------------

def test_f_at_identity():
    for ctx, n in [(CTX21, 2), (CTX21, 3), (CTX31, 2), (CTX22, 2)]:
        assert f_explicit(Mat.identity(n, ctx.p), ctx) == CycValue.one
        assert f_convolution(Mat.identity(n, ctx.p), ctx) == CycValue.one


def test_f_convolution_normalized_rational_level():
    # the rational-path sum at an explicit level agrees with the residue
    # fast path on integral points
    g = Mat.from_text("1,2;2,3", 2)
    assert f_convolution(g, CTX21, L=3) == f_convolution(g, CTX21)
    assert f_convolution(g, CTX21, L=2) == f_convolution(g, CTX21)
    with pytest.raises(ValueError):
        f_convolution(g, CTX21, L=1)


def test_agreement_on_K_mod_q2_rank2():
    for ctx in (CTX21, CTX31):
        for k in enumerate_cosets(SubgroupSpec("K", 2, ctx.p), 2 * ctx.m):
            assert f_explicit(k, ctx) == f_convolution(k, ctx)


def test_agreement_off_K_points(monkeypatch):
    monkeypatch.setattr(testfn, "LEVEL_CAP", 3)
    pts = ["1/2,0;1,1", "2,1;1,1", "1,1/2;0,1", "0,1;1,0", "1,0;1/2,1"]
    for text in pts:
        g = Mat.from_text(text, 2)
        assert f_explicit(g, CTX21) == f_convolution(g, CTX21)


def test_rank2_closed_form_of_f():
    # on integral points: unit corner, unit determinant, b in q, value
    # psi_Ttilde(b/a)
    rng = random.Random(13)
    for _ in range(80):
        g = Mat([[Fraction(rng.randint(-8, 8)) for _ in range(2)]
                 for _ in range(2)], 2)
        if g.det() == 0:
            continue
        a, b = g[0, 0], g[0, 1]
        if valuation(g.det(), 2) == 0 and a != 0 and valuation(a, 2) == 0 \
                and (b == 0 or valuation(b, 2) >= 1):
            assert f_explicit(g, CTX21) == psi_T(b / a, CTX21)
        else:
            assert f_explicit(g, CTX21).is_zero()


def test_f_on_a_times_n():
    # f(a n) = [a = units][n congruent] psi_Ttilde(n)
    ctx = CTX21
    for aa in [(1, 1, 1), (3, 5, 7), (2, 1, 1), (1, Fraction(1, 2), 1)]:
        a = Mat.diag([Fraction(x) for x in aa], 2)
        for bvals in [(0, 0, 0), (2, 0, 2), (1, 0, 0), (2, 4, 2),
                      (Fraction(1, 2), 0, 0)]:
            n = Mat([[1, Fraction(bvals[0]), Fraction(bvals[1])],
                     [0, 1, Fraction(bvals[2])],
                     [0, 0, 1]], 2)
            got = f_explicit(a @ n, ctx)
            a_ok = all(valuation(x, 2) == 0 for x in aa)
            n_ok = all(x == 0 or valuation(Fraction(x), 2) >= 1
                       for x in bvals)
            if a_ok and n_ok:
                assert got == psi_T(Fraction(bvals[0]) + Fraction(bvals[2]),
                                    ctx)
            else:
                assert got.is_zero()


def test_left_invariance():
    rng = random.Random(19)
    ctx = CTX21
    for _ in range(40):
        k = _random_k(3, 2, rng)
        u = Mat([[1, 0, 0],
                 [Fraction(rng.randint(-4, 4), rng.choice([1, 2])), 1, 0],
                 [Fraction(rng.randint(-4, 4)),
                  Fraction(rng.randint(-4, 4), rng.choice([1, 4])), 1]], 2)
        z = Mat.diag([Fraction(rng.choice([1, 3, 5])) for _ in range(3)], 2)
        assert f_explicit(u @ z @ k, ctx) == f_explicit(k, ctx)


def test_right_chi_equivariance():
    ctx = CTX21
    theta = theta_matrix(2, ctx)
    reps = enumerate_cosets(SubgroupSpec("Kq", 2, 2, 1), 2)
    for g in [Mat.identity(2, 2), Mat.from_text("3,2;2,3", 2),
              Mat.from_text("1,0;1,1", 2)]:
        base = f_explicit(g, ctx)
        for r in reps:
            assert f_explicit(g @ r, ctx) == base * chi_tau_eval(theta, r)


def _random_k(n, p, rng):
    while True:
        g = Mat([[Fraction(rng.randint(0, p ** 3 - 1)) for _ in range(n)]
                 for _ in range(n)], p)
        if g.det() != 0 and valuation(g.det(), p) == 0:
            return g


# -- the two closed-formula routes -------------------------------------------

def _lower_point(rng, n, p, m, v):
    """u low kq: u lower unipotent over p^v times a unit, low lower
    triangular with unit diagonal and kq in K(q), so that f is a root of
    unity."""
    q, mod = p ** m, p ** (2 * m + 1)
    den = p ** v * rng.choice([u for u in range(1, p * p) if u % p])
    unit = [u for u in range(1, mod) if u % p]
    u = Mat([[Fraction(int(i == j)) if j >= i
              else Fraction(rng.randrange(-mod, mod), den)
              for j in range(n)] for i in range(n)], p)
    low = Mat([[rng.choice(unit) if i == j else rng.randrange(mod) if j < i
                else 0 for j in range(n)] for i in range(n)], p)
    kq = Mat([[int(i == j) + q * rng.randrange(mod) for j in range(n)]
              for i in range(n)], p)
    return u @ low @ kq


@st.composite
def formula_points(draw):
    """(g, ctx) with n = 1..4, p in {2, 3, 5} and m in {1, 2}, of one
    kind: support, a point u low kq of the support; apart, a support
    point under a non-unit diagonal a (p-power exponents in -2..2, not
    all zero); upper, a support point with one upper entry of kq a unit
    times p^(m-1), off the support; random, entries over p^v times a
    unit; singular, a random point with its last row a rational
    combination of the others."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.sampled_from((1, 2)))
    kind = draw(st.sampled_from(("support", "support", "apart", "upper",
                                 "random", "singular")))
    v = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    mod = p ** (2 * m + 1)
    if kind in ("support", "apart", "upper"):
        g = _lower_point(rng, n, p, m, v)
        if kind == "apart":
            exps = [rng.randint(-2, 2) for _ in range(n)]
            exps[rng.randrange(n)] = rng.choice((-1, 1))
            g = Mat.diag([Fraction(p) ** e for e in exps], p) @ g
        if kind == "upper" and n > 1:
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            c = [[int(a == b) for b in range(n)] for a in range(n)]
            c[i][j] = p ** (m - 1) * rng.choice(range(1, p))
            g = g @ Mat(c, p)
        return g, DepthContext(p, m)
    den = p ** v * rng.choice([u for u in range(1, p * p) if u % p])
    rows = [[Fraction(rng.randrange(-mod, mod), den) for _ in range(n)]
            for _ in range(n)]
    if kind == "singular":
        c = [Fraction(rng.randrange(-3, 4), rng.choice((1, p)))
             for _ in range(n - 1)]
        rows[-1] = [sum((ci * r[j] for ci, r in zip(c, rows)), Fraction(0))
                    for j in range(n)]
    return Mat(rows, p), DepthContext(p, m)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(formula_points())
def test_f_explicit_matches_fraction_phase(args):
    # `f_explicit` against the Fraction closed formula that `phase` keeps
    # (Iwasawa decomposition, a = 1, chi_theta of the stripped K-part), by
    # report bytes; a singular point raises on both
    g, ctx = args
    phase = base_test_function(ctx, g.n).phase
    if g.det() == 0:
        for route in (lambda h: f_explicit(h, ctx), phase):
            with pytest.raises(ZeroDivisionError):
                route(g)
        return
    assert f_explicit(g, ctx).to_json() == phase(g).to_json()


# -- L^2 norm ---------------------------------------------------------------

def test_l2_norm_values():
    assert l2_norm_sq(CTX21, 2) == Fraction(1, 3)
    assert lower_borel_order(2, 2, 1) == 2
    val, expo, unit = l2_norm_report(CTX21, 3)
    assert expo == -3
    assert val == unit * Fraction(2) ** expo
    for ctx, n in [(CTX21, 2), (CTX31, 2), (CTX21, 3), (CTX22, 2)]:
        _, expo, _ = l2_norm_report(ctx, n)
        assert expo == -ctx.m * n * (n - 1) // 2


def test_l2_norm_report_raises_when_constant_disagrees(monkeypatch):
    from padiczeta import group

    monkeypatch.setattr(group, "open_cell_density",
                        lambda N, p: Fraction(0))
    with pytest.raises(ArithmeticError):
        l2_norm_report(CTX21, 2)


def test_l2_norm_matches_finite_sum():
    # honest finite check over K/K(q^2)
    for ctx in (CTX21, CTX31):
        vol = haar_volume(SubgroupSpec("Kq", 2, ctx.p, 2 * ctx.m))
        total = Fraction(0)
        for k in enumerate_cosets(SubgroupSpec("K", 2, ctx.p), 2 * ctx.m):
            v = f_explicit(k, ctx)
            total += v.abs_sq().as_rational() * vol
        assert total == l2_norm_sq(ctx, 2)


# -- Mellin components ------------------------------------------------------

def test_mellin_base_function():
    tf = base_test_function(CTX21, 2)
    mono = mellin_component(tf, Mat.identity(2, 2))
    assert (mono.exponents, mono.offset) == ((0, 0), 0)
    assert mono.scalar == CycValue.one
    # support scan on K: nonzero exactly over the lower-triangular residues
    hits = 0
    for k in enumerate_cosets(SubgroupSpec("K", 2, 2), 2):
        mono = mellin_component(tf, k)
        upper = k[0, 1]
        lower_res = upper == 0 or valuation(upper, 2) >= 1
        assert (mono is not None) == lower_res
        hits += mono is not None
    assert hits == lower_borel_order(2, 2, 1) * 2 ** 4


def test_mellin_translated_exponents():
    # H of rank 2 inside G of rank 3: at the descending-powers diagonal the
    # component has uniform exponent (n+1) in half-T units per s-variable
    ctx = CTX21
    tf = translate_for_H(ctx, 2)
    Tt = ctx.Ttilde
    a_T = Mat.diag([Tt ** 2, Tt], 2)
    mono = mellin_component(tf, a_T)
    assert mono is not None
    assert (mono.exponents, mono.offset) == ((3, 3), 0)
    assert mono.scalar == CycValue.one
    # at the concentration point the a-part collapses to zero exponents
    mono0 = mellin_component(tf, tf.shift_mat().inv())
    assert (mono0.exponents, mono0.offset) == ((0, 0), 0)


# -- translated function ----------------------------------------------------

def test_translate_normalization():
    ctx = CTX21
    tf = translate_for_H(ctx, 2)
    assert tf.c1.squared() == Fraction(3, 4)
    c, phase = tf.value_parts(tf.shift_mat().inv())
    assert c == tf.c1 and phase == CycValue.one
    # unit L^2 norm over the concentration slice
    vol = haar_volume(SubgroupSpec("Kq", 2, 2, 2))
    tinv = tf.shift_mat().inv()
    total = Fraction(0)
    for k in enumerate_cosets(SubgroupSpec("K", 2, 2), 2):
        phase = tf.phase(tinv @ k)
        total += phase.abs_sq().as_rational() * vol
    delta_u = Fraction(ctx.T)  # modular factor of the translation, n=2
    assert tf.c1.squared() * delta_u * total == 1


def test_translate_right_KQ_invariance():
    ctx = CTX21
    tf = translate_for_H(ctx, 2)
    tinv = tf.shift_mat().inv()
    qreps = enumerate_cosets(SubgroupSpec("KQ", 2, 2, 1), 2)
    for g in [tinv, tinv @ Mat.from_text("1,0;1,1", 2)]:
        c, base = tf.value_parts(g)
        for q in qreps:
            assert tf.phase(g @ q) == base


def test_translate_conjugates_character():
    # right K(q)-equivariance of the H-side function uses the inverse
    # character
    ctx = CTX21
    tf = translate_for_H(ctx, 2)
    theta = theta_matrix(2, ctx)
    tinv = tf.shift_mat().inv()
    for r in enumerate_cosets(SubgroupSpec("Kq", 2, 2, 1), 2):
        lhs = tf.phase(tinv @ r)
        rhs = tf.phase(tinv) * chi_tau_eval(theta, r).conj()
        assert lhs == rhs


# -- duality ----------------------------------------------------------------

def test_dual_at_weyl():
    tf = base_test_function(CTX21, 2)
    c, phase = dual_value_parts(tf, Mat.longest_weyl(2, 2))
    assert phase == CycValue.one


def test_dual_concentration_and_slice_norm():
    ctx = CTX21
    tf = translate_for_H(ctx, 2)
    tinv = tf.shift_mat().inv()
    rng = random.Random(37)
    ks = [_random_k(2, 2, rng) for _ in range(10)]
    # support concentrates on the same antidominant diagonal as tf itself
    for e1 in range(-2, 3):
        for e2 in range(-2, 3):
            a = Mat.diag([Fraction(2) ** e1, Fraction(2) ** e2], 2)
            if a == tinv:
                continue
            for k in ks:
                _, phase = dual_value_parts(tf, a @ k)
                assert phase.is_zero()
    # equal mass on the concentration slice
    s_dual = Fraction(0)
    s_orig = Fraction(0)
    for k in enumerate_cosets(SubgroupSpec("K", 2, 2), 2):
        _, ph = dual_value_parts(tf, tinv @ k)
        s_dual += ph.abs_sq().as_rational()
        s_orig += tf.phase(tinv @ k).abs_sq().as_rational()
    assert s_dual == s_orig


def test_convolution_stabilization_non_integral(monkeypatch):
    monkeypatch.setattr(testfn, "LEVEL_CAP", 3)
    g = Mat.from_text("1,1/2;0,1", 2)
    # outside the support: both levels give zero, certifying stabilization
    assert f_convolution(g, CTX21).is_zero()
    assert f_explicit(g, CTX21).is_zero()


@pytest.mark.parametrize("text", ["1,1;1,1", "1/2,1;1/2,1"])
def test_singular_argument_raises_on_both_routes(text):
    g = Mat.from_text(text, 2)
    for route in (f_convolution, f_explicit):
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            route(g, CTX21)


def test_shift_mat_is_built_once(monkeypatch):
    tf = translate_for_H(CTX21, 3)
    built = []
    diag = Mat.diag
    monkeypatch.setattr(Mat, "diag",
                        staticmethod(lambda *a: built.append(a) or diag(*a)))
    first = tf.shift_mat()
    assert len(built) <= 1
    for _ in range(3):
        assert tf.shift_mat() is first
    assert len(built) <= 1
    assert first == diag([Fraction(2) ** (-s) for s in tf.shift], 2)
