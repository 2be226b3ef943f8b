"""The triangular factorizations that go through the shared kernels,
each against a reference that shares no code with them.

* `WhittakerOnH.support_witness` against the bottom-up elimination of the
  support lemma, written here on Fraction lists: row i is cleared to the
  right of the diagonal by the rows below it, and the point is on the
  support iff the cleared matrix is congruent to 1 mod q;
* `ZMat.inv` against z z^{-1} = z^{-1} z = 1, and a raise on every
  non-unit determinant;
* the phase of the K-sweep `rslocal._transform_values_over_K` (integer
  rows mod q^2) against `testfn._explicit_on_K` (Fractions) on random
  elements of K mod q^2, on and off the support.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiczeta.arith import CycValue, DepthContext
from padiczeta.group import Mat
from padiczeta.params import theta_matrix
from padiczeta.residue import ZMat, residue_rows
from padiczeta.rslocal import (EClassElement, TransformCells,
                               _transform_values_over_K)
from padiczeta.testfn import _explicit_on_K
from padiczeta.whitmodel import WhittakerOnH
from paper_checks import base_test_function

FACTOR_SETTINGS = settings(derandomize=True, max_examples=300,
                           deadline=None)

primes = st.sampled_from([2, 3, 5])
depths = st.integers(1, 2)
ranks = st.integers(1, 4)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def vp(x, p):
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def as_lists(m):
    return [[m[i, j] for j in range(m.n)] for i in range(m.n)]


# -- the support witness ------------------------------------------------------

def ref_solve(a, b):
    """x with a x = b over the Fractions, or None when a is singular."""
    n = len(a)
    work = [list(r) + [y] for r, y in zip(a, b)]
    for i in range(n):
        piv = next((r for r in range(i, n) if work[r][i] != 0), None)
        if piv is None:
            return None
        work[i], work[piv] = work[piv], work[i]
        work[i] = [x / work[i][i] for x in work[i]]
        for r in range(n):
            if r != i:
                f = work[r][i]
                work[r] = [x - f * y for x, y in zip(work[r], work[i])]
    return [r[n] for r in work]


def ref_support_witness(x, p, m):
    """(v, y) with v x = y, v upper unipotent and y lower triangular in
    K(p^m), or None: bottom-up, row i plus a combination of the rows
    below it loses every entry right of the diagonal."""
    n = len(x)
    g = [list(r) for r in x]
    v = identity(n)
    for i in range(n - 1, -1, -1):
        below = range(i + 1, n)
        w = ref_solve([[g[r][c] for r in below] for c in below],
                      [-g[i][c] for c in below])
        if w is None:
            return None
        for wr, r in zip(w, below):
            g[i] = [a + wr * b for a, b in zip(g[i], g[r])]
            v[i] = [a + wr * b for a, b in zip(v[i], v[r])]
    for i in range(n):
        for j in range(n):
            d = g[i][j] - int(i == j)
            if d != 0 and vp(d, p) < m:
                return None
    return v, g


@st.composite
def whittaker_points(draw):
    """(p, m, x, kind) with x = a_T^{-1} h.

    support: x = n y with n upper unipotent over Q_p and y in K(q);
    near: the same with one entry of y moved by p^{m-1}, which leaves the
    support unless the entry is above the diagonal;
    rational: small random rationals, almost always off the support."""
    p, m, n = draw(primes), draw(depths), draw(ranks)
    kind = draw(st.sampled_from(["support", "near", "rational"]))
    if kind == "rational":
        x = [[Fraction(draw(st.integers(-9, 9)),
                       p ** draw(st.integers(0, 2))) for _ in range(n)]
             for _ in range(n)]
        return p, m, x, kind
    q = p ** m
    nn = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            nn[i][j] = Fraction(draw(st.integers(-9, 9)),
                                p ** draw(st.integers(0, 2 * m + 1)))
    y = [[Fraction(int(i == j) + q * draw(st.integers(-4, 4)))
          for j in range(n)] for i in range(n)]
    if kind == "near":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        y[i][j] += p ** (m - 1) * draw(st.sampled_from([1, -1]))
    return p, m, ref_mul(nn, y), kind


@FACTOR_SETTINGS
@given(whittaker_points())
def test_support_witness_matches_bottom_up_reference(point):
    p, m, x, kind = point
    ctx, n = DepthContext(p, m), len(x)
    aT = [ctx.Ttilde ** (n - i) for i in range(n)]
    h = Mat([[aT[i] * e for e in row] for i, row in enumerate(x)], p)
    got = WhittakerOnH(ctx, n).support_witness(h)
    ref = ref_support_witness(x, p, m)
    if kind == "support":
        assert ref is not None
    assert (got is None) == (ref is None)
    if got is not None:
        nwit, y = got
        v, y_ref = ref
        assert as_lists(y) == y_ref
        assert ref_mul(as_lists(nwit), v) == identity(n)


# -- residue inverses ---------------------------------------------------------

@FACTOR_SETTINGS
@given(primes, st.integers(1, 4),
       ranks.flatmap(lambda n: st.lists(st.lists(st.integers(0, 10 ** 4),
                                                 min_size=n, max_size=n),
                                        min_size=n, max_size=n)))
def test_zmat_inverse_is_two_sided(p, e, rows):
    z = ZMat.make(rows, p, e)
    one = ZMat.identity(z.n, p, e)
    if z.is_unit():
        zi = z.inv()
        assert z @ zi == one and zi @ z == one
    else:
        with pytest.raises(ZeroDivisionError, match="non-unit determinant"):
            z.inv()
    # a copy whose last row is divisible by p
    flat = ZMat.make(rows[:-1] + [[p * x for x in rows[-1]]], p, e)
    with pytest.raises(ZeroDivisionError, match="non-unit determinant"):
        flat.inv()


# -- the K-sweep phase --------------------------------------------------------

@st.composite
def k_elements(draw, p, m, n, on_support):
    """Rows of an element of K mod q^2: a unit diagonal and, on the
    support, upper entries divisible by q; off it, one upper entry of
    valuation below m."""
    q, T = p ** m, p ** (2 * m)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                rows[i][j] = draw(st.integers(1, T - 1).filter(
                    lambda u: u % p))
            elif i > j:
                rows[i][j] = draw(st.integers(0, T - 1))
            else:
                rows[i][j] = q * draw(st.integers(0, q - 1))
    if not on_support:
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        rows[i][j] = p ** draw(st.integers(0, m - 1)) * draw(
            st.integers(1, p - 1))
    return rows


@st.composite
def sweep_points(draw):
    p, m, n = draw(primes), draw(depths), draw(ranks)
    on_support = n == 1 or draw(st.booleans())
    cell = draw(k_elements(p, m, n, True))
    k = draw(k_elements(p, m, n, on_support))
    weight = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return p, m, cell, k, weight, draw(st.booleans())


@FACTOR_SETTINGS
@given(sweep_points())
def test_sweep_phase_matches_explicit_on_K(point):
    p, m, cell, k, weight, conjugate = point
    ctx, n = DepthContext(p, m), len(k)
    tf = replace(base_test_function(ctx, n), conjugate=conjugate)
    f = EClassElement(tf, Fraction(1))
    cell_mat, k_mat = Mat(cell, p), Mat(k, p)
    # one cell of volume weight at psi exponent 0 (box depth 0)
    cells = TransformCells(weight, 1,
                           ((residue_rows(cell_mat, 2 * m), ((0, 1),)),))
    [got] = _transform_values_over_K(f, cells, [k_mat])
    ref = _explicit_on_K(cell_mat @ k_mat, ctx, theta_matrix(n, ctx))
    if ref is None:
        assert got == CycValue.zero
    else:
        assert got == weight * (ref.conj() if conjugate else ref)
