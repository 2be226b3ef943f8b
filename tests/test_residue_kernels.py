"""The residue kernels against references written here: the integer
determinant and the characteristic polynomial against Fraction Gaussian
elimination, the inverse over Z/p^e against the unit-determinant rule,
and the lifted centralizer against an exhaustive filter of all matrices
over Z/p^e and against the lists pinned in `tests/golden/centralizers.json`."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta.residue import ZMat, centralizer_in_GL, int_det
from paper_checks import charpoly

GOLDEN_FILE = Path(__file__).parent / "golden" / "centralizers.json"


def fraction_det(rows) -> int:
    """Determinant of an integer matrix by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return int(det)


@st.composite
def int_matrices(draw):
    """Square integer matrices of size 1..5 with entries in [-50, 50],
    and a flag: True for a singular copy, one row repeated or scaled."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    singular = n > 1 and draw(st.booleans())
    if singular:
        src, dst = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-3, 3))  # k = 1 repeats the row
        rows[dst] = [k * x for x in rows[src]]
    return rows, singular


@settings(derandomize=True, deadline=None, max_examples=300)
@given(int_matrices())
def test_int_det_matches_fraction_elimination(case):
    rows, singular = case
    det = int_det(rows)
    assert det == fraction_det(rows)
    if singular:
        assert det == 0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(int_matrices())
def test_charpoly_matches_det_of_xI_minus_A(case):
    rows, _ = case
    n = len(rows)
    coeffs = charpoly(rows)
    assert len(coeffs) == n + 1 and coeffs[n] == 1
    # n + 1 values fix a polynomial of degree n
    for x in range(n + 1):
        shifted = [[x * (i == j) - rows[i][j] for j in range(n)]
                   for i in range(n)]
        assert sum(c * x ** k for k, c in enumerate(coeffs)) == \
            fraction_det(shifted)



@settings(derandomize=True, deadline=None, max_examples=300)
@given(int_matrices(), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_inverse_exists_exactly_at_a_unit_determinant(case, p, e):
    rows, _ = case
    z = ZMat.make(rows, p, e)
    if fraction_det(z.entries) % p:
        assert z @ z.inv() == z.inv() @ z == ZMat.identity(z.n, p, e)
    else:
        with pytest.raises(ZeroDivisionError, match="non-unit determinant"):
            z.inv()

def unit_mod_p(rows, p: int) -> bool:
    """Full rank over F_p, by Gaussian elimination mod p."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return False
        a[i], a[piv] = a[piv], a[i]
        inv = pow(a[i][i], -1, p)
        for r in range(i + 1, n):
            f = a[r][i] * inv
            a[r] = [(x - f * y) % p for x, y in zip(a[r], a[i])]
    return True


def exhaustive_centralizer(tau: ZMat):
    """Entry tuples of every unit over Z/p^e commuting with tau, in
    lexicographic order: the filter over all of M_n(Z/p^e)."""
    n, p, mod, t = tau.n, tau.p, tau.modulus, tau.entries
    out = []
    for vals in itertools.product(range(mod), repeat=n * n):
        x = [vals[i * n:(i + 1) * n] for i in range(n)]
        if all(sum(x[i][k] * t[k][j] - t[i][k] * x[k][j]
                   for k in range(n)) % mod == 0
               for i in range(n) for j in range(n)) \
                and unit_mod_p(x, p):
            out.append(tuple(x))
    return out


def differential_taus():
    """Seeded taus: the identity, 1 + p * (random) when e > 1, and three
    random matrices, at each (n, p, e)."""
    rng = random.Random(9)
    for n, p, e in [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 3, 2),
                    (3, 2, 1), (3, 3, 1)]:
        mod = p ** e
        taus = [ZMat.identity(n, p, e)]
        if e > 1:
            taus.append(ZMat.make(
                [[(i == j) + p * rng.randrange(mod) for j in range(n)]
                 for i in range(n)], p, e))
        taus += [ZMat.make([[rng.randrange(mod) for _ in range(n)]
                            for _ in range(n)], p, e) for _ in range(3)]
        for i, tau in enumerate(taus):
            yield pytest.param(tau, id=f"n{n}-{p}^{e}-{i}")


@pytest.mark.parametrize("tau", differential_taus())
def test_centralizer_matches_exhaustive_filter(tau):
    assert [z.entries for z in centralizer_in_GL(tau)] == \
        exhaustive_centralizer(tau)


def test_centralizers_match_golden():
    cases = json.loads(GOLDEN_FILE.read_text())
    assert cases
    for case in cases:
        tau = ZMat.make(case["tau"], case["p"], case["e"])
        got = [[list(row) for row in z.entries]
               for z in centralizer_in_GL(tau)]
        assert got == case["centralizer"], case["tau"]
