"""Decompositions, volumes and coset enumeration for GL_N(Q_p)."""

import random
from fractions import Fraction

import pytest

from padiczeta.arith import valuation
from padiczeta.group import (
    Mat,
    SubgroupSpec,
    bruhat_open_cell,
    enumerate_cosets,
    gl_order,
    haar_volume,
    iwasawa_UAK,
    modular_delta,
    modular_delta_half_exponent,
    open_cell_density,
)
from paper_checks import (iwahori_factor, iwasawa_NAK, minor_norm_M,
                          upper_unipotent_in_level)
from twins import delta_product


def random_invertible(n, p, rng, spread=3):
    """Deterministic pseudo-random invertible matrix with entries of
    valuation in roughly [-spread, spread]."""
    while True:
        rows = [[Fraction(rng.randint(-8, 8), rng.choice([1, 1, p, p * p]))
                 * Fraction(p) ** rng.randint(-1, 1)
                 for _ in range(n)] for _ in range(n)]
        g = Mat(rows, p)
        if g.det() != 0:
            return g


# -- basics -----------------------------------------------------------------

def test_mat_basics():
    g = Mat.from_text("1/2,0;1,1", 2)
    assert g.det() == Fraction(1, 2)
    assert (g @ g.inv()) == Mat.identity(2, 2)
    assert Mat.diag([Fraction(1, 2), 1], 2).det() == Fraction(1, 2)
    assert g.to_text() == "1/2,0/1;1/1,1/1"
    assert Mat.from_text(g.to_text(), 2) == g


def test_inverse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([2, 3])
        g = random_invertible(rng.choice([2, 3]), p, rng)
        assert g @ g.inv() == Mat.identity(g.n, p)


def test_longest_weyl():
    w = Mat.longest_weyl(3, 2)
    assert w @ w == Mat.identity(3, 2)
    assert w[0, 2] == 1 and w[1, 1] == 1 and w[2, 0] == 1


# -- Iwasawa ----------------------------------------------------------------

def test_iwasawa_UAK_spec_point():
    g = Mat.from_text("1/2,0;1,1", 2)
    dec = iwasawa_UAK(g)
    assert dec.u.transpose().is_upper_unipotent()
    assert dec.a.is_diagonal()
    for x in dec.a.diagonal():  # pure p-powers
        assert x == Fraction(2) ** valuation(x, 2)
    assert dec.k.in_K()
    assert dec.u @ dec.a @ dec.k == g


def test_iwasawa_identity_cases():
    for n, p in [(2, 2), (3, 3)]:
        a = Mat.diag([p] + [1] * (n - 1), p)
        dec = iwasawa_NAK(a)
        assert dec.n == Mat.identity(n, p)
        assert dec.a == a
        assert dec.k == Mat.identity(n, p)


def test_iwasawa_random_remultiplication():
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice([2, 3])
        g = random_invertible(rng.choice([2, 3]), p, rng)
        for dec, checks in [
            (iwasawa_UAK(g), lambda d: d.u.transpose().is_upper_unipotent()),
            (iwasawa_NAK(g), lambda d: d.n.is_upper_unipotent()),
        ]:
            parts = (dec.u, dec.a, dec.k) if hasattr(dec, "u") \
                else (dec.n, dec.a, dec.k)
            assert checks(dec)
            assert dec.k.in_K()
            assert all(x == Fraction(p) ** valuation(x, p)
                       for x in dec.a.diagonal())
            assert parts[0] @ parts[1] @ parts[2] == g


# -- Bruhat -----------------------------------------------------------------

def test_bruhat_spec_points():
    g = Mat.from_text("1/2,0;1,1", 2)
    dec = bruhat_open_cell(g)
    assert dec.u == Mat.from_text("1,0;2,1", 2)
    assert dec.a == Mat.diag([Fraction(1, 2), 1], 2)
    assert dec.n == Mat.identity(2, 2)
    assert bruhat_open_cell(Mat.from_text("0,1;1,0", 2)) is None


def test_bruhat_2x2_a_part():
    rng = random.Random(5)
    for _ in range(50):
        g = random_invertible(2, 2, rng)
        dec = bruhat_open_cell(g)
        if g[0, 0] == 0:
            assert dec is None
            continue
        assert dec.a.diagonal() == (g[0, 0], g.det() / g[0, 0])
        assert dec.u @ dec.a @ dec.n == g


def test_bruhat_presence_iff_minors_exhaustive():
    # over lifts of GL_2(Z/p^2): presence iff both leading minors nonzero
    p = 2
    for spec_rep in enumerate_cosets(SubgroupSpec("K", 2, p), 2):
        dec = bruhat_open_cell(spec_rep)
        d1 = spec_rep[0, 0]
        assert (dec is not None) == (d1 != 0)
        if dec is not None:
            assert dec.u @ dec.a @ dec.n == spec_rep


# -- Iwahori ----------------------------------------------------------------

def test_iwahori_examples():
    n, p, e = 2, 2, 1
    ident = Mat.identity(n, p)
    assert iwahori_factor(ident, e) == (ident, ident, ident)
    low = Mat.elementary(n, p, 1, 0, p)
    u, a, nn = iwahori_factor(low, e)
    assert (u, a, nn) == (low, ident, ident)
    with pytest.raises(ValueError):
        iwahori_factor(Mat.from_text("0,1;1,0", 2), 1)


def test_iwahori_random():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice([2, 3])
        n = rng.choice([2, 3])
        e = rng.choice([1, 2])
        x = [[Fraction(p ** e * rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(n)]
        k = Mat([[x[i][j] + (1 if i == j else 0) for j in range(n)]
                 for i in range(n)], p)
        u, a, nn = iwahori_factor(k, e)
        assert upper_unipotent_in_level(u.transpose(), e)
        assert upper_unipotent_in_level(nn, e)
        assert u @ a @ nn == k


# -- minors and delta -------------------------------------------------------

def test_minor_norm():
    assert minor_norm_M(Mat.identity(3, 2), 1) == 1
    assert minor_norm_M(Mat.identity(3, 2), 2) == 1
    g = Mat.diag([Fraction(1, 2), 1], 2)
    assert minor_norm_M(g, 1) == 1  # bottom row is (0, 1)


def test_modular_delta():
    ident = Mat.identity(2, 2)
    assert modular_delta(ident) == 1
    a = Mat.diag([2, 1], 2)
    assert modular_delta(a) == Fraction(1, 2)
    rng = random.Random(3)
    for _ in range(30):
        d = Mat.diag([Fraction(2) ** rng.randint(-3, 3) for _ in range(3)], 2)
        he = modular_delta_half_exponent(d)
        assert Fraction(2) ** (2 * he) == modular_delta(d)


def _signed_unit(rng, p):
    while True:
        num, den = rng.randrange(1, 60), rng.randrange(1, 60)
        if num % p and den % p:
            return Fraction(rng.choice((-1, 1)) * num, den)


def test_modular_delta_matches_its_product_twin():
    # delta_N(a) = p^(2 h), h = `modular_delta_half_exponent(a)`, is the
    # product of the absolute values |a_i / a_j|, i < j, at diagonals with
    # unit parts, signs and negative exponents
    rng = random.Random(32)
    for _ in range(300):
        p, n = rng.choice((2, 3, 5, 7)), rng.randrange(1, 5)
        a = Mat.diag([_signed_unit(rng, p) * Fraction(p) ** rng.randint(-5, 5)
                      for _ in range(n)], p)
        got = modular_delta(a)
        assert got == delta_product(a) and type(got) is Fraction


@pytest.mark.parametrize("entries", [(0, 1), (1, 0), (3, 0, 2), (0, 0),
                                     (1, 2, 0)])
def test_modular_delta_of_a_zero_entry_raises(entries):
    # a zero diagonal entry has no valuation; the product twin raises too,
    # dividing by it, except when the first entry is the only zero, where
    # every quotient it enters is 0 and the product is 0
    a = Mat.diag(list(entries), 2)
    with pytest.raises(ZeroDivisionError):
        modular_delta(a)
    if entries.index(0) == 0 and entries.count(0) == 1:
        assert delta_product(a) == 0
    else:
        with pytest.raises(ZeroDivisionError):
            delta_product(a)


# -- volumes ----------------------------------------------------------------

def test_gl_orders():
    assert gl_order(2, 2, 1) == 6
    assert gl_order(2, 3, 1) == 48
    assert gl_order(3, 2, 1) == 168
    assert gl_order(2, 2, 2) == 96


def test_haar_volumes():
    assert haar_volume(SubgroupSpec("K", 2, 3)) == 1
    assert haar_volume(SubgroupSpec("Kq", 2, 3, 1)) == Fraction(1, 48)
    assert haar_volume(SubgroupSpec("KN", 3, 2, 1)) == Fraction(1, 8)
    assert haar_volume(SubgroupSpec("KA", 2, 2, 0)) == 1


def test_open_cell_density_reconciles_iwahori_product():
    """vol(K(q)) equals c0 times the product of the Iwahori piece volumes;
    the product alone is NOT the volume (the open-cell density intervenes)."""
    for N, p, m in [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)]:
        vol_kq = haar_volume(SubgroupSpec("Kq", N, p, m))
        prod = (haar_volume(SubgroupSpec("KU", N, p, m))
                * haar_volume(SubgroupSpec("KA", N, p, m))
                * haar_volume(SubgroupSpec("KN", N, p, m)))
        assert vol_kq == open_cell_density(N, p) * prod


def test_enumerate_cosets_counts():
    reps = enumerate_cosets(SubgroupSpec("Kq", 2, 2, 1), 2)
    assert len(reps) == 16
    reps_n = enumerate_cosets(SubgroupSpec("KN", 2, 2, 1), 2)
    assert len(reps_n) == 2
    # pairwise distinct cosets: r1 r2^{-1} not in level-2 kernel
    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1:]:
            assert not (r1 @ r2.inv()).in_congruence(2)


def test_enumerate_cosets_index_match():
    for p in (2, 3):
        reps = enumerate_cosets(SubgroupSpec("Kq", 2, p, 1), 2)
        assert len(reps) == gl_order(2, p, 2) // gl_order(2, p, 1) \
            == p ** 4
        full = enumerate_cosets(SubgroupSpec("K", 2, p), 1)
        assert len(full) == gl_order(2, p, 1)


def test_enumerate_K_transversal_distinct():
    reps = enumerate_cosets(SubgroupSpec("K", 2, 2), 1)
    assert len(reps) == 6
    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1:]:
            assert not (r1 @ r2.inv()).in_congruence(1)
