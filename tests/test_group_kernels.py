"""The integer kernels of `group.Mat` against a plain-Fraction reference.

The reference below is written here on lists of Fractions, so it shares
no code with the package: schoolbook products, Gaussian elimination with
row swaps for the determinant, and Gauss-Jordan for the inverse.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiczeta.group import Mat, bruhat_open_cell, iwasawa_UAK
from paper_checks import iwahori_factor, upper_unipotent_in_level

KERNEL_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

# denominators mix powers of 2, 3 and 5 so that every p sees non-integral
# entries
entries = st.builds(Fraction,
                    st.integers(-9, 9),
                    st.sampled_from([1, 1, 2, 3, 4, 5, 6, 8, 9, 25, 27]))


@st.composite
def matrices(draw, n=None):
    n = n if n is not None else draw(st.integers(1, 4))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


primes = st.sampled_from([2, 3, 5])


# -- the reference ------------------------------------------------------------

def ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def ref_det(a):
    work = [list(r) for r in a]
    n = len(work)
    d = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if work[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            work[i], work[piv] = work[piv], work[i]
            d = -d
        d *= work[i][i]
        for r in range(i + 1, n):
            f = work[r][i] / work[i][i]
            work[r] = [x - f * y for x, y in zip(work[r], work[i])]
    return d


def ref_inv(a):
    n = len(a)
    work = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(a)]
    for i in range(n):
        piv = next(r for r in range(i, n) if work[r][i] != 0)
        work[i], work[piv] = work[piv], work[i]
        work[i] = [x / work[i][i] for x in work[i]]
        for r in range(n):
            if r != i:
                f = work[r][i]
                work[r] = [x - f * y for x, y in zip(work[r], work[i])]
    return [r[n:] for r in work]


def vp(x, p):
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def as_lists(m):
    return [[m[i, j] for j in range(m.n)] for i in range(m.n)]


# -- products, determinants, inverses -----------------------------------------

@KERNEL_SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(matrices(n),
                                                     matrices(n))),
       primes)
def test_product_matches_reference(ab, p):
    a, b = ab
    assert as_lists(Mat(a, p) @ Mat(b, p)) == ref_mul(a, b)


@KERNEL_SETTINGS
@given(matrices(), primes)
def test_storage_round_trips(a, p):
    g = Mat(a, p)
    assert as_lists(g) == a
    assert g.diagonal() == tuple(a[i][i] for i in range(len(a)))
    assert all(g[i, j] == a[i][j]
               for i in range(len(a)) for j in range(len(a)))
    again = Mat.from_text(g.to_text(), p)
    assert again == g and hash(again) == hash(g)
    assert as_lists(g.transpose()) == [list(c) for c in zip(*a)]


@KERNEL_SETTINGS
@given(matrices(), primes)
def test_det_and_inverse_match_reference(a, p):
    # the drawn matrix, a singular copy whose last row is the sum of the
    # others, and the integral matrix of its numerators
    last = [sum(col[:-1], Fraction(0)) for col in zip(*a)]
    ints = [[Fraction(x.numerator) for x in r] for r in a]
    for m in (a, a[:-1] + [last], ints):
        g = Mat(m, p)
        d = ref_det(m)
        assert g.det() == d
        assert g.in_K() == (all(vp(x, p) >= 0 for r in m for x in r if x)
                            and d != 0 and vp(d, p) == 0)
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                g.inv()
            with pytest.raises(ZeroDivisionError):
                iwasawa_UAK(g)
        else:
            assert as_lists(g.inv()) == ref_inv(m)


# -- decompositions -----------------------------------------------------------

def is_unit_lower(m):
    n = len(m)
    return all(m[i][j] == (1 if i == j else 0)
               for i in range(n) for j in range(i, n))


def is_diagonal(m):
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(len(m))
               if i != j)


@KERNEL_SETTINGS
@given(matrices(), primes)
def test_iwasawa_identities(a, p):
    if ref_det(a) == 0:
        return
    dec = iwasawa_UAK(Mat(a, p))
    u, d, k = as_lists(dec.u), as_lists(dec.a), as_lists(dec.k)
    assert ref_mul(ref_mul(u, d), k) == a
    assert is_unit_lower(u)
    assert is_diagonal(d)
    assert all(x == Fraction(p) ** vp(x, p) for x in
               (d[i][i] for i in range(len(d))))
    assert all(x == 0 or vp(x, p) >= 0 for r in k for x in r)
    assert vp(ref_det(k), p) == 0


@KERNEL_SETTINGS
@given(matrices(), primes)
def test_bruhat_identities(a, p):
    n = len(a)
    cases = [a]
    if n >= 2 and a[0][0] != 0:
        # a copy whose second leading minor vanishes
        b = [list(r) for r in a]
        b[1][1] = a[0][1] * a[1][0] / a[0][0]
        cases.append(b)
    for m in cases:
        minors = [ref_det([r[:i] for r in m[:i]]) for i in range(1, n + 1)]
        dec = bruhat_open_cell(Mat(m, p))
        assert (dec is not None) == all(x != 0 for x in minors)
        if dec is None:
            continue
        lower, diag, upper = (as_lists(dec.u), as_lists(dec.a),
                              as_lists(dec.n))
        assert ref_mul(ref_mul(lower, diag), upper) == m
        assert is_unit_lower(lower)
        assert is_unit_lower([list(c) for c in zip(*upper)])
        assert is_diagonal(diag)


@KERNEL_SETTINGS
@given(matrices(), primes)
def test_flip_is_weyl_conjugation(a, p):
    x = Mat(a, p)
    w = Mat.longest_weyl(x.n, p)
    flipped = x.flip()
    assert flipped == w @ x @ w
    assert as_lists(flipped) == as_lists(w @ x @ w)
    assert flipped.flip() == x


@st.composite
def congruence_elements(draw):
    """(k, p, e) with k = 1 + p^e x / d in K(p^e): d a unit, x integral."""
    n = draw(st.integers(1, 4))
    p = draw(primes)
    e = draw(st.integers(1, 2))
    d = draw(st.integers(1, 30).filter(lambda d: d % p))
    rows = [[Fraction(d * (i == j) + p ** e * draw(st.integers(-9, 9)), d)
             for j in range(n)] for i in range(n)]
    return rows, p, e


@KERNEL_SETTINGS
@given(congruence_elements(), st.data())
def test_iwahori_identities(point, data):
    rows, p, e = point
    k = Mat(rows, p)
    u, a, nn = iwahori_factor(k, e)
    assert u @ a @ nn == k
    assert upper_unipotent_in_level(u.transpose(), e)
    assert upper_unipotent_in_level(nn, e)
    assert a.is_diagonal() and a.in_congruence(e)
    # moving one entry by p^(e-1) leaves K(p^e)
    n = len(rows)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[i][j] += p ** (e - 1)
    with pytest.raises(ValueError):
        iwahori_factor(Mat(rows, p), e)
