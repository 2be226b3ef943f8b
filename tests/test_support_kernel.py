"""The phase on the support of f against the definitional open-cell kernel.

Both local phases of the paper are one number, the sum of
U[i][i+1] / U[i][i] mod q^2 over the rows U = D N of the split L D N of a
matrix that is lower triangular mod q with a unit determinant:

- the closed formula of f, read by `f_explicit` from the K-part of an
  integral point, and by `testfn._explicit_exponent_at` at a K-part and a
  K-point;
- the phase of the Whittaker vector on a_T K(q), read by
  `WhittakerOnH.kq_exponent_mod` from the anti-transpose of a point y of
  K(q) (entry (i, j) = y[n-1-j][n-1-i]).

Each reader is checked here against the twin `_J_exponent_mod` of
`tests/twins.py`, which eliminates all n rows and tests every pivot,
under a support test made in this file (every upper entry 0 mod q).  The
inputs are K-inputs on and off the support and points of K(q), at ranks
2-4, p in {2, 3, 5} and m in {1, 2}, handed over as unreduced integer
lifts: the readers must reduce them mod q^2 themselves, and the exponents
are compared as the integers in [0, q^2) that the readers return.
"""

import random

import pytest

from padiczeta.arith import CycValue, DepthContext
from padiczeta.group import Mat, iwasawa_UAK
from padiczeta.residue import residue_rows
from padiczeta.testfn import _explicit_exponent_at, f_explicit
from padiczeta.whitmodel import WhittakerOnH
from twins import _J_exponent_mod

CASES = [(p, m, n) for p in (2, 3, 5) for m in (1, 2) for n in (2, 3, 4)]


def _on_support(z, q) -> bool:
    return all(z[i][j] % q == 0 for i in range(len(z))
               for j in range(i + 1, len(z)))


def _lift(rng, rows, T):
    """The rows with each entry moved by a random multiple of T, negative
    ones included."""
    return [[x + T * rng.randint(-3, 3) for x in row] for row in rows]


def _times(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)]
            for row in x]


def _k_inputs(rng, p, q, T, n, count):
    """count integer rows mod T of elements of K: a third on the support
    (a lower triangular matrix with a unit diagonal times an upper
    unipotent one = 1 mod q), a third just off it (one upper entry of such
    a matrix moved by a non-multiple of q) and a third drawn at random
    among the rows with a unit determinant."""
    units = [u for u in range(T) if u % p]
    out = []
    for trial in range(count):
        if trial % 3 == 2:
            while True:
                rows = [[rng.randrange(T) for _ in range(n)]
                        for _ in range(n)]
                if Mat(rows, p).det() % p:
                    break
        else:
            while True:
                low = [[rng.choice(units) if i == j
                        else rng.randrange(T) if j < i else 0
                        for j in range(n)] for i in range(n)]
                up = [[int(i == j) if j <= i else q * rng.randrange(q)
                       for j in range(n)] for i in range(n)]
                rows = [[x % T for x in row] for row in _times(low, up)]
                if trial % 3 == 1:
                    i = rng.randrange(n - 1)
                    j = rng.randrange(i + 1, n)
                    rows[i][j] = (rows[i][j] + rng.choice(units)) % T
                if Mat(rows, p).det() % p:
                    break
        out.append(rows)
    return out


def _expected(z, ctx):
    """The test-side reading of rows z of a K-element: None off the
    support, else the twin's exponent."""
    if not _on_support(z, ctx.q):
        return None
    e = _J_exponent_mod(z, ctx)
    assert e is not None, z
    return e


@pytest.mark.parametrize("p, m, n", CASES)
def test_f_side_reader_matches_the_open_cell_twin(p, m, n):
    # f_explicit at an integral point of K reads the phase of its Iwasawa
    # K-part mod q^2 (a = 1), and `_explicit_exponent_at` at a K-part and
    # the identity or a random K-point reads that of their product
    ctx = DepthContext(p, m)
    q, T = ctx.q, ctx.T
    rng = random.Random(1000 * p + 100 * m + n)
    hits = misses = f_hits = 0
    for z in _k_inputs(rng, p, q, T, n, 30):
        g = Mat(_lift(rng, z, T), p)
        want = _expected(residue_rows(iwasawa_UAK(g).k, 2 * m), ctx)
        assert f_explicit(g, ctx) == (
            CycValue.zero if want is None
            else CycValue.root_of_unity(T, want)), (p, m, z)
        f_hits += want is not None
        # pairs (krows, kcols) whose product krows k is z: the identity
        # point, and a random K-point k with krows = z k^-1 mod q^2
        k = _k_inputs(rng, p, q, T, n, 3)[2]
        kinv = residue_rows(Mat(k, p).inv(), 2 * m)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        want = _expected(z, ctx)
        for krows, kpoint in ((z, ident), (_times(z, kinv), k)):
            got = _explicit_exponent_at(_lift(rng, krows, T),
                                        list(zip(*_lift(rng, kpoint, T))),
                                        ctx)
            assert got == want, (p, m, z, kpoint)
        hits += want is not None
        misses += want is None
    assert hits >= 10 and misses >= 10 and f_hits >= 10, (hits, misses,
                                                          f_hits)


@pytest.mark.parametrize("p, m, n", CASES)
def test_kq_reader_matches_the_open_cell_twin(p, m, n):
    # a point y of K(q) puts W on its support: the exponent of W(a_T y) is
    # the twin's exponent of the anti-transpose of y, never None
    ctx = DepthContext(p, m)
    q, T = ctx.q, ctx.T
    W = WhittakerOnH(ctx, n)
    rng = random.Random(2000 * p + 100 * m + n)
    for _ in range(40):
        y = [[int(i == j) + q * rng.randrange(q) for j in range(n)]
             for i in range(n)]
        anti = [[y[n - 1 - j][n - 1 - i] for j in range(n)]
                for i in range(n)]
        want = _J_exponent_mod(anti, ctx)
        assert want is not None
        assert W.kq_exponent_mod(_lift(rng, y, T)) == want, (p, m, y)
