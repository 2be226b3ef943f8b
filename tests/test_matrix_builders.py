"""The matrix builders of `group` and the enumerations built on them,
against references written here on lists of Fractions.

Each enumeration is compared as a list: same matrices, same order, same
hashes.  The order matters beyond the values, because suites slice
prefixes of these lists and the prefixes reach the report bytes.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiczeta.arith import CycValue, DepthContext
from padiczeta.group import (Mat, SubgroupSpec, box_columns, box_histograms,
                             enumerate_cosets, iter_cosets, p_power_diag,
                             unipotent_box)
from padiczeta import nicedomain
from padiczeta.nicedomain import (NiceDomain, _cell_sum, _region_classes,
                                  conj_by_A)
from padiczeta.residue import residue_rows
from padiczeta.rslocal import _cell_levels, _u_cells, standard_E_element
from paper_checks import cell_volume
from twins import sampled_domains

CTX21 = DepthContext(2, 1)


def ref_box(n, p, coords, values, den=1):
    """1 + x / den with x[c] running over values[c], in product order, each
    matrix built from Fraction rows."""
    out = []
    for vals in itertools.product(*values):
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(coords, vals):
            rows[i][j] += Fraction(v, den)
        out.append(Mat(rows, p))
    return out


def assert_same_list(got, want):
    assert len(got) == len(want)
    assert got == want
    assert [hash(g) for g in got] == [hash(w) for w in want]


BUILDER_SETTINGS = settings(derandomize=True, max_examples=150,
                            deadline=None)

entries = st.builds(Fraction, st.integers(-30, 30),
                    st.sampled_from([1, 2, 3, 4, 8, 9, 25]))


@BUILDER_SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)),
    st.sampled_from([2, 3, 5]))
def test_superdiagonal_sum_matches_fraction_sum(rows, p):
    want = sum((rows[i][i + 1] for i in range(len(rows) - 1)), Fraction(0))
    got = Mat(rows, p).superdiagonal_sum()
    assert type(got) is Fraction and got == want


@BUILDER_SETTINGS
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       st.sampled_from([2, 3, 5]))
def test_p_power_diag_matches_fraction_diag(exps, p):
    want = Mat.diag([Fraction(p) ** e for e in exps], p)
    for got in (p_power_diag(exps, p), p_power_diag(iter(exps), p)):
        assert got == want and hash(got) == hash(want)


@st.composite
def boxes(draw):
    n = draw(st.integers(1, 4))
    cells = [(i, j) for i in range(n) for j in range(n)]
    coords = draw(st.lists(st.sampled_from(cells), unique=True,
                           max_size=min(len(cells), 4)))
    values = [draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
              for _ in coords]
    return n, coords, values, draw(st.sampled_from([1, 2, 3, 4, 9]))


@BUILDER_SETTINGS
@given(boxes(), st.sampled_from([2, 3]))
def test_unipotent_box_matches_reference(box, p):
    n, coords, values, den = box
    assert_same_list(list(unipotent_box(n, p, coords, values, den)),
                     ref_box(n, p, coords, values, den))


@st.composite
def column_boxes(draw):
    """(H, den, scale, coords, ranges, weights): an integer H of rank
    n = 1..4 (zeros and negatives allowed), integers den and scale, a
    random subset of the entries in random order, diagonal and lower ones
    included, at least two of them in the column after `empty` and none
    in `empty`, short ranges, some stepped or negative, and weights on a
    random subset of the entries."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-5, 5)
    H = tuple(tuple(draw(ints) for _ in range(n)) for _ in range(n))
    empty = draw(st.integers(0, n - 1))
    cells = [(i, j) for i in range(n) for j in range(n) if j != empty]
    coords = draw(st.lists(st.sampled_from(cells), unique=True,
                           max_size=min(len(cells), 4))) if cells else []
    if n > 1:
        full = (empty + 1) % n
        coords += [(i, full) for i in draw(st.lists(
            st.integers(0, n - 1), unique=True, min_size=2, max_size=2))
            if (i, full) not in coords]
        coords = draw(st.permutations(coords))
    ranges = [range(start, start + size * step, step)
              for start, step, size in (
                  (draw(ints), draw(st.sampled_from([-3, -1, 1, 2, 5])),
                   draw(st.integers(1, 3))) for _ in coords)]
    weights = {c: draw(ints) for c in draw(st.lists(
        st.sampled_from([(i, j) for i in range(n) for j in range(n)]),
        unique=True))}
    return H, draw(ints), [draw(ints) for _ in range(n)], coords, ranges, \
        weights


@BUILDER_SETTINGS
@given(column_boxes())
def test_box_columns_match_exact_product(box):
    # the terms of the product of the column lists are the matrices
    # H (den + X) diag(scale) for X enumerated column by column, and each
    # term's shares sum to sum w X
    H, den, scale, coords, ranges, weights = box
    n = len(H)
    order = sorted(range(len(coords)), key=lambda c: coords[c][1])
    want = []
    for vals in itertools.product(*(ranges[c] for c in order)):
        x = [[den * int(i == j) for j in range(n)] for i in range(n)]
        share = 0
        for c, v in zip(order, vals):
            i, j = coords[c]
            x[i][j] += v
            share += weights.get((i, j), 0) * v
        prod = [[sum(H[i][t] * x[t][j] for t in range(n)) * scale[j]
                 for j in range(n)] for i in range(n)]
        want.append((tuple(zip(*prod)), share))
    got = [(cols, sum(shares)) for cols, shares in
           (zip(*term) for term in itertools.product(
               *box_columns(H, den, scale, coords, ranges, weights)))]
    assert got == want


@BUILDER_SETTINGS
@given(column_boxes(), st.integers(1, 9), st.integers(0, 2))
def test_box_histograms_match_member_loop(box, den, skip):
    # each member of the box counted on its own, as the matrix u of
    # `unipotent_box`: the exact product H (den + X) diag(scale) =
    # den H u diag(scale) is read on its rows (the key is the rows, or None
    # on a class of their sum), and the psi^{-1}(u) exponent is
    # -den (superdiagonal sum of u) mod den
    H, _, scale, coords, ranges, _ = box
    n = len(H)

    def read(rows):
        rows = tuple(map(tuple, rows))
        return None if sum(map(sum, rows)) % 3 == skip else rows

    left, right = Mat(H, 2), Mat.diag(scale, 2)
    want = {}
    for u in unipotent_box(n, 2, coords, ranges, den):
        g = left @ u @ right
        key = read([[int(g[i, j] * den) for j in range(n)]
                    for i in range(n)])
        if key is None:
            continue
        h = want.setdefault(key, {})
        x = int(-u.superdiagonal_sum() * den) % den
        h[x] = h.get(x, 0) + 1
    got = box_histograms(H, den, scale, coords, ranges, read)
    assert got == want


# -- coset transversals -------------------------------------------------------

COSET_COORDS = {
    "Kq": lambda n: [(i, j) for i in range(n) for j in range(n)],
    "KN": lambda n: [(i, j) for i in range(n) for j in range(n) if i < j],
    "KU": lambda n: [(i, j) for i in range(n) for j in range(n) if i > j],
}


@pytest.mark.parametrize("tag", sorted(COSET_COORDS))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e,L", [(1, 2), (2, 3)])
def test_unipotent_cosets_match_reference(tag, n, p, e, L):
    got = enumerate_cosets(SubgroupSpec(tag, n, p, e), L)
    coords = COSET_COORDS[tag](n)
    digits = [c * p ** e for c in range(p ** (L - e))]
    assert type(got) is list
    assert_same_list(got, ref_box(n, p, coords, [digits] * len(coords)))


def ref_det(rows):
    """The Leibniz determinant of a square list of rows."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def ref_k_cosets(n, p, L):
    """Every n x n matrix with entries in [0, p^L), in row-major product
    order, kept when its determinant is a unit mod p."""
    for flat in itertools.product(range(p ** L), repeat=n * n):
        rows = [[Fraction(v) for v in flat[i * n:(i + 1) * n]]
                for i in range(n)]
        if ref_det(rows) % p != 0:
            yield Mat(rows, p)


# count None compares the whole transversal; a count compares the prefix
# that the lazy readers take: the class certificate reads 5 points at
# (p, m, rank) = (3, 2, 2) and the testfn-agreement grid 512 at (3, 1, 2)
@pytest.mark.parametrize("n,p,L,count", [
    (1, 3, 2, None), (2, 2, 1, None), (2, 3, 1, None), (2, 2, 2, None),
    (3, 2, 1, None), (2, 3, 2, 5), (2, 3, 2, 512),
])
def test_k_cosets_match_reference(n, p, L, count):
    spec = SubgroupSpec("K", n, p)
    if count is None:
        got = enumerate_cosets(spec, L)
        want = list(ref_k_cosets(n, p, L))
    else:
        got = list(itertools.islice(iter_cosets(spec, L), count))
        want = list(itertools.islice(ref_k_cosets(n, p, L), count))
    assert_same_list(got, want)


# -- the transform cells of rslocal ------------------------------------------

@pytest.mark.parametrize("n,nprime,B,exps", [
    (2, 0, 2, (0, 0)),
    (2, 0, 3, (-2, 0)),
    (3, 0, 1, (0, 0, 0)),
    (3, 1, 2, (0, -2, 0)),
    (3, 1, 1, (2, 1, 0)),
])
def test_u_cells_match_reference(n, nprime, B, exps):
    p = CTX21.p
    a = Mat.diag([Fraction(p) ** x for x in exps], p)
    coords = [(k, l) for k in range(nprime, n) for l in range(k + 1, n)]
    L = _cell_levels(CTX21, a, B, coords)
    got = list(_u_cells(CTX21, n, a, B, coords))
    want = ref_box(n, p, coords, [range(p ** (B + L[c])) for c in coords],
                   p ** B)
    assert_same_list([u for u, _ in got], want)
    assert {vol for _, vol in got} == {Fraction(p) ** (-sum(L.values()))}


# -- the truncated regions of nicedomain -------------------------------------

@pytest.mark.parametrize("n,p,b", [(2, 2, 0), (2, 3, 1), (3, 2, 0),
                                   (3, 2, 1), (3, 3, 0)])
def test_region_classes_match_reference(n, p, b):
    coords = [(i, j) for i in range(n) for j in range(i + 1, n)]
    want = ref_box(n, p, coords, [range(p ** (n + b))] * len(coords), p ** b)
    assert_same_list(list(_region_classes(n, p, b)), want)


# -- the members a cell sum visits -------------------------------------------

def visited_members(domain, levels, monkeypatch):
    """The u of every term of `_cell_sum` over the cell, in order, read
    from the rows its sweep (`group.box_histograms`) hands to its reader;
    the `_cell_keys` cache must be cold, so that the sweep runs.
    With a = 1 those rows are diag(shift) (den + X) for u = (den + X) /
    den, so row i divided by its diagonal entry is row i of u."""
    n, p = domain.n, domain.p
    sweep = nicedomain.box_histograms
    seen = []

    def record(H, den, scale, coords, ranges, read):
        def reader(rows):
            seen.append(Mat([[Fraction(x, r[i]) for x in r]
                             for i, r in enumerate(rows)], p))
            return read(rows)
        return sweep(H, den, scale, coords, ranges, reader)

    monkeypatch.setattr(nicedomain, "box_histograms", record)
    one = Mat.identity(n, p)
    f = standard_E_element(CTX21, n)
    _, cells = _cell_sum(f, (0,) * n, one, residue_rows(one, 2), domain,
                         levels, {}, {})
    assert cells == len(seen)
    return seen


def ref_members(domain, levels):
    """One matrix per residue class of the cell: at slope 0, N(Z_p) with
    entry (i, j) mod p^(n + levels[i, j]); otherwise the base point plus
    p^n t with t_ij mod p^levels[i, j], conjugated back."""
    n, p, rho = domain.n, domain.p, domain.slope
    coords = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = domain.base or tuple(tuple(int(i == j) for j in range(n))
                                for i in range(n))
    if rho:
        step, ranges = p ** n, [range(p ** levels[c]) for c in coords]
    else:
        step, ranges = 1, [range(p ** (n + levels[c])) for c in coords]
    out = []
    for digits in itertools.product(*ranges):
        rows = [[Fraction(x) for x in r] for r in base]
        for (i, j), t in zip(coords, digits):
            rows[i][j] += step * t
        out.append(conj_by_A(Mat(rows, p), -rho))
    return out


def member_cases():
    for n, p in [(2, 2), (3, 2)]:
        coords = [(i, j) for i in range(n) for j in range(i + 1, n)]
        flat = {c: 1 for c in coords}
        mixed = {(i, j): (j - i) % 2 for i, j in coords}
        yield NiceDomain(n, p, 0, 0, None, None), flat
        yield NiceDomain(n, p, 0, 0, None, None), mixed
        for rho in (1, 3):
            for dom in sampled_domains(n, p, rho):
                yield dom, flat if dom.remainder % 2 else mixed


@pytest.mark.parametrize("domain,levels", list(member_cases()))
def test_cell_sum_members_match_reference(domain, levels, monkeypatch,
                                          cold_cell_keys):
    assert_same_list(visited_members(domain, levels, monkeypatch),
                     ref_members(domain, levels))


@pytest.mark.parametrize("domain,levels", list(member_cases()))
def test_cell_sum_mass_is_cell_volume(domain, levels, monkeypatch,
                                      cold_cell_keys):
    # with a constant integrand, the sum is (number of members) x (volume
    # per member): each member stands for one class of the cell, so this
    # is the volume of the cell.  The integrand is made constant at the
    # sweep's seams: every member is counted under a trivial character,
    # and every (a-part, K-part) key has phase 1 and coefficient 1.  The
    # cache is cold, so the patched sweep runs and its histograms are
    # dropped after the test.
    n = domain.n
    sweep = nicedomain.box_histograms
    monkeypatch.setattr(nicedomain, "box_histograms", lambda *args: {
        key: {0: sum(h.values())} for key, h in sweep(*args).items()})
    monkeypatch.setattr(nicedomain, "_explicit_exponent_at",
                        lambda krows, kcols, ctx: 0)
    monkeypatch.setattr(nicedomain, "_a_coefficient",
                        lambda f, s, exps: (1, 1))
    one = Mat.identity(n, domain.p)
    f = standard_E_element(CTX21, n)
    parts, _ = _cell_sum(f, (0,) * n, one, residue_rows(one, 2), domain,
                         levels, {}, {})
    assert parts == {1: CycValue.rational(cell_volume(domain))}
