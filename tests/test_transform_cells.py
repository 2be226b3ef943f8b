"""The transform W(f, c; g) and the cell data behind it.

The report bytes of `W_fcg(f, c, a, k)` (`phase.to_json()` and `coeff`)
are pinned by `tests/golden/w-fcg.json` at seeded points: rank 2 at
(p, m) = (2,1), (3,1), (2,2), (3,2) and rank 3 at (2,1), with central
c = p^(-m e), e < 3, the pinned outer diagonal a, and k drawn mod q, both
at random and lower triangular (where the transform can be nonzero).
The same file pins the cells of `_w_cell_data(f, c, a, B, nprime)`, each
group as one JSON line of its weight (its psi histogram as a sum of roots
of unity, times the cell volume) and its K-part residue mod q^2, sorted:
pinned and unpinned diagonals (the latter leave no cell), box depths
B = 2 and 3, and the parabolic variants nprime = 1 and 2 at rank 3.  The
transform values of the file must also come out with `root_of_unity` and
`CycSum` made to raise inside `rslocal` and with one `from_histogram`
call per value: each value is counted in one integer histogram.
Regenerate the file (only on purpose) with

    PYTHONPATH=src python tests/test_transform_cells.py \
        > tests/golden/w-fcg.json

The K-sweep `_transform_values_over_K` is checked against the per-group
loop it replaces, written here: each group's weight from its histogram,
times the root of unity of its phase, summed by `CycSum`.  The two are
compared by `to_json()` bytes, so the order of each value is pinned too.

The cells of a box are kept in the bounded cache of `_w_cell_data`,
shared by every `W_fcg` call at the same (f, c, a): a second call at a
new k builds no box, and the golden file prints the same bytes from a
cold and from a warm cache.  Tests that patch what the cell walk calls
start and end with an empty cache (`cold_cells`), so the walk runs
under the patch and what it builds there reaches no later test.

The two integer kernels of the cell sweep are checked against their
references: the early exit of the elimination and its K-part residue
against `iwasawa_UAK`, and the zero test on a histogram of roots of unity
against `CycValue.is_zero`.  So is the reader both share, which gives the
a-part and the K-part residue of any argument.
"""

import functools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from padiczeta import rslocal
from padiczeta.arith import (CycSum, CycValue, DepthContext, SqrtRational,
                             rat_to_text, valuation)
from padiczeta.cli import main
from padiczeta.group import (Mat, _a_k_residue, _eliminate,
                             _least_valuation, _unit_a_k_residue,
                             _unit_a_pivot, iwasawa_UAK, p_power_diag)
from padiczeta.residue import residue_rows
from padiczeta.rslocal import (EClassElement, TransformCells, W_fcg,
                               _outer_diagonals, _transform_values_over_K,
                               _w_cell_data, pinned_outer_diagonal,
                               standard_E_element)
from padiczeta.testfn import translate_for_H
from twins import _explicit_exponent_mod

GOLDEN_FILE = Path(__file__).parent / "golden" / "w-fcg.json"
W_INSTANCES = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 2, 2), (2, 1, 3))
# (p, m, n, nprime, c exponents, a exponents or None for the pinned a)
CELL_CASES = (
    [(p, m, 2, 0, (-m * e,) * 2, None)
     for p, m in ((2, 1), (3, 1), (2, 2)) for e in range(3)]
    # the pinned diagonal (-2, 0) of c = 1/2, and two off it, where no
    # cell survives
    + [(2, 1, 2, 0, (-1, -1), (e, 0)) for e in (-2, 0, 2)]
    + [(2, 1, 3, 0, (-1,) * 3, None)]
    # the live diagonals of the parabolic outer sum at nprime = 1
    + [(2, 1, 3, 1, c, a) for c, a in (((0, 1, 1), (2, 0, 0)),
                                       ((0, 1, 0), (2, -1, 0)),
                                       ((0, 0, 1), (2, -1, 0)),
                                       ((0, 0, 0), (2, -2, 0)))]
    + [(2, 1, 3, 2, c, a) for c, a in (((0, 0, 0), (2, 0, -2)),
                                       ((0, 0, -1), (2, 0, -3)),
                                       ((0, 0, 0), (0, 0, 0)))])


def _draw_k(rng, p, m, n, lower):
    """A random k in K with entries mod q; lower: lower triangular."""
    q = p ** m
    units = [u for u in range(1, q) if u % p]
    while True:
        rows = [[rng.choice(units) if lower and i == j else
                 0 if lower and j > i else rng.randrange(q)
                 for j in range(n)] for i in range(n)]
        k = Mat(rows, p)
        if k.det() % p:
            return k


def cell_weight(cells, psi) -> CycValue:
    """The weight of one group of `_w_cell_data`: its psi histogram as a
    sum of roots of unity, times the cell volume."""
    counts = [0] * cells.pB
    for x, count in psi:
        counts[x] = count
    return CycValue.from_histogram(counts, cells.vol)


def golden_document() -> str:
    rng = random.Random(20261018)
    out = []
    for p, m, n in W_INSTANCES:
        f = standard_E_element(DepthContext(p, m), n)
        for e in range(3):
            c = p_power_diag([-m * e] * n, p)
            a, _ = pinned_outer_diagonal(f, c)
            draws = (False, False, True) if n == 2 else (False, True)
            for lower in draws:
                k = _draw_k(rng, p, m, n, lower)
                val = W_fcg(f, c, a, k)
                out.append({"p": p, "m": m, "n": n, "c": c.to_text(),
                            "a": a.to_text(), "k": k.to_text(),
                            "coeff": {"sign": val.coeff.sign, "radicand":
                                      rat_to_text(val.coeff.radicand)},
                            "phase": val.phase.to_json()})
    for p, m, n, nprime, cexps, aexps in CELL_CASES:
        f = standard_E_element(DepthContext(p, m), n)
        c = p_power_diag(cexps, p)
        a = (pinned_outer_diagonal(f, c)[0] if aexps is None
             else p_power_diag(aexps, p))
        for B in (2, 3):
            data = _w_cell_data(f, c, a, B, nprime)
            cells = sorted(json.dumps([cell_weight(data, psi).to_json(),
                                       krows], sort_keys=True)
                           for krows, psi in data.groups)
            out.append({"p": p, "m": m, "n": n, "nprime": nprime, "B": B,
                        "c": c.to_text(), "a": a.to_text(), "cells": cells})
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


@pytest.fixture
def cold_cells():
    """An empty `_w_cell_data` cache before and after the test.  This is
    the function itself, not the `rslocal` attribute a test may patch."""
    _w_cell_data.cache_clear()
    yield
    _w_cell_data.cache_clear()


def test_transform_report_bytes(cold_cells):
    # the same bytes from a cold cache and from the warm cache it leaves,
    # where every box is a hit
    assert golden_document() == GOLDEN_FILE.read_text()
    built = _w_cell_data.cache_info()
    assert built.hits and built.currsize == built.misses
    assert golden_document() == GOLDEN_FILE.read_text()
    warm = _w_cell_data.cache_info()
    assert warm.misses == built.misses
    assert warm.hits == 2 * built.hits + built.misses


def test_second_transform_reads_the_cached_cells(cold_cells, monkeypatch):
    # the cells of W_fcg(f, c, a, k) do not depend on k: a call at a new
    # k at the same (f, c, a) builds no box, and still reads its own k
    # (the transform vanishes at the first k and not at the second)
    f = standard_E_element(DepthContext(3, 1), 2)
    c = p_power_diag([-1, -1], 3)
    a, _ = pinned_outer_diagonal(f, c)
    first, second = Mat.diag([2, 2], 3), Mat([[1, 0], [1, 2]], 3)
    expected = W_fcg(f, c, a, second)
    assert not expected.is_zero()
    _w_cell_data.cache_clear()
    assert W_fcg(f, c, a, first).is_zero()
    before = _w_cell_data.cache_info()
    built = []
    box_cells = rslocal._box_cells

    def counting(*args):
        built.append(args)
        return box_cells(*args)

    monkeypatch.setattr(rslocal, "_box_cells", counting)
    assert W_fcg(f, c, a, second) == expected
    assert not built
    after = _w_cell_data.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


class _NoRootCyc(CycValue):
    """`CycValue` for `rslocal` with `root_of_unity` removed."""

    @staticmethod
    def root_of_unity(order, exponent):
        raise RuntimeError("root_of_unity in the W_fcg value path")


class _NoCycSum:
    def __init__(self):
        raise RuntimeError("CycSum in the W_fcg value path")


def test_transform_values_need_no_per_group_cyc_values(cold_cells,
                                                       monkeypatch):
    # certify the elements first: certification reads f's own phases
    for p, m, n in W_INSTANCES:
        standard_E_element(DepthContext(p, m), n)
    # every `from_histogram` call, wherever it is made, and every box read
    built, reads = [], []
    from_histogram, phase_at = CycValue.from_histogram, rslocal._phase_at
    w_fcg = rslocal.W_fcg

    def counted(*args):
        built.append(args)
        return from_histogram(*args)

    def read(*args):
        reads.append(args)
        return phase_at(*args)

    # (boxes read, values built) per W_fcg call of the golden document
    calls = []

    def one_value(*args):
        before = len(reads), len(built)
        value = w_fcg(*args)
        calls.append((len(reads) - before[0], len(built) - before[1]))
        return value

    monkeypatch.setattr(CycValue, "from_histogram", staticmethod(counted))
    monkeypatch.setattr(rslocal, "_phase_at", read)
    monkeypatch.setattr(rslocal, "CycValue", _NoRootCyc)
    monkeypatch.setattr(rslocal, "CycSum", _NoCycSum)
    monkeypatch.setitem(golden_document.__globals__, "W_fcg", one_value)
    assert golden_document() == GOLDEN_FILE.read_text()
    # exactly one value per call, the returned box's: the certificate
    # reads at least two boxes and builds none for those it drops, and
    # neither does the cell walk's zero test on a cold cache
    assert calls and all(boxes >= 2 and values == 1
                         for boxes, values in calls)
    # and one per K-point of an integral, one box read at each
    monkeypatch.setattr(rslocal, "CycSum", CycSum)
    f = standard_E_element(DepthContext(2, 1), 2)
    for nprime, c in ((0, p_power_diag([-1, -1], 2)),
                      (1, p_power_diag([0, 1], 2))):
        del built[:], reads[:]
        rslocal.Q_P(f, c, nprime)
        assert reads and len(built) == len(reads)
        assert all(len(args[2]) == f.n for args in reads)


def test_cancelling_group_is_dropped(cold_cells, monkeypatch):
    # with every cell given one K-part, the single group counts psi^{-1}
    # over the whole box, a full character sum, so it cancels and is
    # dropped; the standard K-parts at the same point leave live groups
    f = standard_E_element(DepthContext(3, 1), 2)
    c = p_power_diag([-1, -1], 3)
    a, _ = pinned_outer_diagonal(f, c)
    assert _w_cell_data(f, c, a, 2, 0)
    one = ((1, 0), (0, 1))
    monkeypatch.setattr(rslocal, "_unit_a_k_residue",
                        lambda d, p, e: lambda rows: one)
    _w_cell_data.cache_clear()   # walk the box again, under the patch
    assert not _w_cell_data(f, c, a, 2, 0)


def _reference_values(f, cells, kreps):
    """The K-sweep as a sum of one CycValue per group: the group's psi
    histogram times the cell volume, times the root of unity of the
    explicit phase of krows k, summed by `CycSum`."""
    ctx, n = f.ctx, f.n
    sign = -1 if f.tf.conjugate else 1
    for k in kreps:
        zk = residue_rows(k, 2 * ctx.m)
        total = CycSum()
        for krows, psi in cells.groups:
            prod = [[sum(krows[i][t] * zk[t][j] for t in range(n)) % ctx.T
                     for j in range(n)] for i in range(n)]
            e = _explicit_exponent_mod(prod, ctx)
            if e is not None:
                total.add(cell_weight(cells, psi)
                          * CycValue.root_of_unity(ctx.T, sign * e))
        yield total.value()


def _element(p, m, n, conjugate):
    tf = translate_for_H(DepthContext(p, m), n)
    return EClassElement(replace(tf, conjugate=conjugate), Fraction(1))


@functools.cache
def _real_cells(p, m, n, nprime, e, B):
    """Cells of the transform boxes of the standard element (built here
    without its certification, which the cells do not read): at the
    pinned diagonal of c = p^(-m e) for nprime = 0, and at the live
    diagonals of the parabolic outer sum of c = diag(1, p^(-m e), ...)
    for nprime = 1."""
    f = _element(p, m, n, False)
    if nprime == 0:
        c = p_power_diag([-m * e] * n, p)
        return [_w_cell_data(f, c, pinned_outer_diagonal(f, c)[0], B, 0)]
    c = p_power_diag([0] + [-m * e] * (n - 1), p)
    return [cells for _, cells in
            _outer_diagonals(f, c, nprime, B)]


@st.composite
def k_rows(draw, p, m, n, lower):
    """Rows mod q^2 of an element of K, as the product of a unit lower
    triangular and a unit upper triangular matrix; lower: the upper
    factor is 1 mod q, so the element is lower triangular mod q, where a
    transform value can be nonzero."""
    q, T = p ** m, p ** (2 * m)
    unit = st.integers(1, T - 1).filter(lambda u: u % p)
    low = [[draw(unit) if i == j else draw(st.integers(0, T - 1)) if j < i
            else 0 for j in range(n)] for i in range(n)]
    up = [[int(i == j) if j <= i else
           q * draw(st.integers(0, q - 1)) if lower
           else draw(st.integers(0, T - 1)) for j in range(n)]
          for i in range(n)]
    return tuple(tuple(sum(low[i][t] * up[t][j] for t in range(n)) % T
                       for j in range(n)) for i in range(n))


@st.composite
def psi_histograms(draw, p, pB):
    """A sparse psi histogram mod pB with several cells: kind "multi" has
    two to four exponents with counts 1..3, "zero" is constant on the
    cosets of the subgroup of order p (its roots of unity cancel)."""
    if draw(st.sampled_from(["multi", "zero"])) == "multi":
        xs = draw(st.lists(st.integers(0, pB - 1), min_size=2, max_size=4,
                           unique=True))
        return tuple((x, draw(st.integers(1, 3))) for x in sorted(xs))
    step = pB // p
    base = [0] * step
    for x in draw(st.lists(st.integers(0, step - 1), min_size=1,
                           max_size=3)):
        base[x] += 1
    return tuple((x, base[x % step]) for x in range(pB) if base[x % step])


@st.composite
def sweep_cases(draw):
    """(f, cells, kreps): the cells of a real transform box (rank 2 at
    (p, m) = (2,1), (3,1), (2,2), (3,2) and B = 2..4; rank 3 at (2,1) and
    (2,2) up to B = 4 and at (3,1) up to B = 3, with nprime 0 or 1), plus
    drawn groups holding several cells or a cancelling histogram, under a
    test function conjugated or not, at K-points on and off the support."""
    n = draw(st.sampled_from([2, 3]))
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)] if n == 3 else
                                [(2, 1), (3, 1), (2, 2), (3, 2)]))
    B = draw(st.integers(2, 3 if (p, n) == (3, 3) else 4))
    nprime = draw(st.integers(0, 1)) if n == 3 else 0
    boxes = _real_cells(p, m, n, nprime, draw(st.integers(0, 1)), B)
    real = draw(st.sampled_from(boxes)) if boxes else TransformCells(
        Fraction(1, p ** B), p ** B, (), SqrtRational.of_rational(1))
    extra = tuple(
        (draw(k_rows(p, m, n, draw(st.booleans()))),
         draw(psi_histograms(p, p ** B)))
        for _ in range(draw(st.integers(0, 3))))
    groups = list(real.groups + extra)
    draw(st.randoms(use_true_random=False)).shuffle(groups)
    f = _element(p, m, n, draw(st.booleans()))
    kreps = [Mat(draw(k_rows(p, m, n, draw(st.booleans()))), p)
             for _ in range(draw(st.integers(1, 3)))]
    return f, replace(real, pB=p ** B, groups=tuple(groups)), kreps


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sweep_cases())
def test_sweep_matches_per_group_cycsum(case):
    f, cells, kreps = case
    got = [v.to_json() for v in _transform_values_over_K(f, cells, kreps)]
    assert got == [v.to_json() for v in _reference_values(f, cells, kreps)]


def test_non_diagonal_outer_factor_is_a_config_error(capsys):
    # the cell walk reads only the diagonal of a, so another a is refused
    argv = ["eval", "Wfcg", "--p", "2", "--m", "1", "--c", "1/2,0;0,1/2"]
    assert main(argv + ["--a", "1/4,0;0,1"]) == 0
    capsys.readouterr()
    assert main(argv + ["--a", "1/4,1;0,1"]) == 2
    assert "a must be diagonal" in capsys.readouterr().err


KERNEL_SETTINGS = settings(derandomize=True, max_examples=300,
                           deadline=None)


@st.composite
def iwasawa_arguments(draw):
    """(p, num, d): a random invertible rational matrix g = num / d, with
    num and d scaled by a common factor so that they are not in lowest
    terms.  kind "trivial" builds g = u k (u rational lower unipotent,
    k = P L U in K: a permutation, an integral unit lower triangular and
    an integral upper triangular matrix with unit diagonal), "forced"
    g = u a k with a != 1, and "random" draws every entry."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["trivial", "forced", "random"]))
    entry = st.builds(Fraction, st.integers(-9, 9),
                      st.sampled_from([1, 2, 3, 4, 5, 8, 9, 25, 27]))
    if kind == "random":
        g = Mat([[draw(entry) for _ in range(n)] for _ in range(n)], p)
        assume(g.det() != 0)
    else:
        ints, units = st.integers(-9, 9), st.integers(-9, 9).filter(
            lambda x: x % p)
        perm = draw(st.permutations(range(n)))
        k = (Mat([[int(j == perm[i]) for j in range(n)] for i in range(n)], p)
             @ Mat([[draw(ints) if j < i else int(i == j) for j in range(n)]
                    for i in range(n)], p)
             @ Mat([[draw(units) if i == j else draw(ints) if j > i else 0
                     for j in range(n)] for i in range(n)], p))
        u = Mat([[draw(entry) if j < i else int(i == j) for j in range(n)]
                 for i in range(n)], p)
        exps = [0] * n
        if kind == "forced":
            exps = [draw(st.integers(-2, 2)) for _ in range(n)]
            exps[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from([-2, -1, 1, 2]))
        g = u @ p_power_diag(exps, p) @ k
    scale = draw(st.integers(1, 40))
    return p, [[x * scale for x in r] for r in g.num], g.den * scale


@KERNEL_SETTINGS
@given(iwasawa_arguments())
def test_early_exit_and_k_residue_match_iwasawa(arg):
    p, num, d = arg
    g = Mat._from_ints(tuple(map(tuple, num)), d, p)
    dec = iwasawa_UAK(g)
    trivial = dec.a == Mat.identity(g.n, p)
    out = _eliminate(num, _unit_a_pivot(p, valuation(d, p)))
    assert (out is None) == (not trivial)
    for m in (1, 2):
        got = _unit_a_k_residue(d, p, 2 * m)(num)
        assert got == (residue_rows(dec.k, 2 * m) if trivial else None)


@KERNEL_SETTINGS
@given(iwasawa_arguments())
def test_a_k_reader_matches_iwasawa(arg):
    # the reader under the plain Iwasawa rule, for any a-part
    p, num, d = arg
    g = Mat._from_ints(tuple(map(tuple, num)), d, p)
    dec = iwasawa_UAK(g)
    exps = tuple(valuation(x, p) for x in dec.a.diagonal())
    for e in (1, 2, 4):
        assert _a_k_residue(d, p, e, _least_valuation(p))(num) == (
            exps, residue_rows(dec.k, e))


@st.composite
def histograms(draw):
    """(counts, p): counts of length p^k, k = 1..4; kind "coset" is
    constant on every coset of the subgroup of order p (a zero sum), and
    "perturbed" is such a vector with one count raised."""
    p = draw(st.sampled_from([2, 3, 5]))
    size = p ** draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "coset", "perturbed", "zero"]))
    if kind == "random":
        return [rng.randrange(4) for _ in range(size)], p
    if kind == "zero":
        return [0] * size, p
    counts = [rng.randrange(4) for _ in range(size // p)] * p
    if kind == "perturbed":
        counts[rng.randrange(size)] += 1
    return counts, p


@settings(derandomize=True, max_examples=150, deadline=None)
@given(histograms())
def test_histogram_zero_test_matches_reduction(hist):
    counts, p = hist
    sparse = {e: c for e, c in enumerate(counts) if c}
    assert (CycValue.histogram_is_zero(sparse, p, len(counts))
            == CycValue.from_histogram(counts, 1).is_zero())


if __name__ == "__main__":
    sys.stdout.write(golden_document())
