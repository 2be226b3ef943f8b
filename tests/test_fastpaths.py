"""Each fast evaluation path against its definitional twin, on seeded
inputs: the residue convolution, the grouped transform cells, the merged
mod-q^2 sweep over the K-transversal, the section cache, and the in-place
cyclotomic accumulator.  The grouped cells, the K sweep and the section
cache also have hypothesis twins."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta.arith import CycSum, CycValue, DepthContext, psi
from padiczeta.group import Mat
from padiczeta.rslocal import (
    _any_nonzero_over_K,
    _coeff,
    _k_square_sum,
    _k_transversal,
    _transform_values_over_K,
    _w_cell_data,
    pinned_outer_diagonal,
    standard_E_element,
)
from padiczeta.testfn import _convolution_integral, f_convolution
from twins import section_value, w_direct

CTXS = [DepthContext(2, 1), DepthContext(3, 1)]
ELEMS = {ctx: standard_E_element(ctx, 2) for ctx in CTXS}


def diag_c(ctx, e1, e2):
    p = ctx.p
    return Mat.diag([Fraction(p) ** (-e1), Fraction(p) ** (-e2)], p)


def transform_cases(ctx):
    """(c, a, cells) at box depth 3 for diagonal c with exponents in
    [0, 2]: both vanishing and nonvanishing transforms occur."""
    f = ELEMS[ctx]
    for e1, e2 in itertools.product(range(3), repeat=2):
        c = diag_c(ctx, e1, e2)
        a, _ = pinned_outer_diagonal(f, c)
        yield c, a, _w_cell_data(f, c, a, 3, 0)


# (ctx, rank, seed): the rank-2 contexts above and the benchmark's other
# two instances, (2,2) at rank 2 and (2,1) at rank 3
CONVOLUTION_CASES = [
    pytest.param(ctx, n, seed,
                 id=f"p{ctx.p}m{ctx.m}" + ("" if n == 2 else f"n{n}"))
    for ctx, n, seed in [(CTXS[0], 2, 2), (CTXS[1], 2, 3),
                         (DepthContext(2, 2), 2, 22),
                         (DepthContext(2, 1), 3, 13)]]


@pytest.mark.parametrize("ctx,n,seed", CONVOLUTION_CASES)
def test_convolution_integral_matches_definition(ctx, n, seed):
    rng = random.Random(seed)
    p = ctx.p
    for trial in range(10):
        rows = [[rng.randrange(p ** 3) for _ in range(n)] for _ in range(n)]
        if trial % 2:
            # steer half the points onto the support: unit diagonal and
            # upper entries divisible by q
            for i in range(n):
                rows[i][i] = rows[i][i] * p + 1
                for j in range(i + 1, n):
                    rows[i][j] *= ctx.q
        g = Mat([[Fraction(x) for x in row] for row in rows], p)
        fast = _convolution_integral(g, ctx)
        assert fast == f_convolution(g, ctx, L=2 * ctx.m), g.to_text()


@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}m{c.m}")
def test_grouped_cells_match_direct_transform(ctx):
    f = ELEMS[ctx]
    rng = random.Random(10 + ctx.p)
    kreps = _k_transversal(ctx, 2)
    for c, a, cells in transform_cases(ctx):
        for k in rng.sample(kreps, 2):
            [phase] = _transform_values_over_K(f, cells, [k])
            slow = w_direct(f, c, a, k, 3)
            assert _coeff(f, c) == slow.coeff
            assert phase == slow.phase, (c.to_text(), k.to_text())


@functools.cache
def outer_cells(ctx, e1, e2):
    c = diag_c(ctx, e1, e2)
    a, _ = pinned_outer_diagonal(ELEMS[ctx], c)
    return c, a, _w_cell_data(ELEMS[ctx], c, a, 3, 0)


@functools.cache
def k_transversal(ctx):
    return _k_transversal(ctx, 2)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(CTXS), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 10 ** 6))
def test_grouped_cells_match_direct_transform_hypothesis(ctx, e1, e2, ki):
    f = ELEMS[ctx]
    c, a, cells = outer_cells(ctx, e1, e2)
    kreps = k_transversal(ctx)
    k = kreps[ki % len(kreps)]
    [phase] = _transform_values_over_K(f, cells, [k])
    slow = w_direct(f, c, a, k, 3)
    assert _coeff(f, c) == slow.coeff
    assert phase == slow.phase, (c.to_text(), k.to_text())


def check_k_sweep(f, c, a, cells, kreps):
    """The K-sweep at kreps against the Fraction twin `w_direct`, and
    the K-square sum and nonvanishing test against those values; returns
    whether some value is nonzero."""
    values = [w_direct(f, c, a, k, 3).phase for k in kreps]
    assert list(_transform_values_over_K(f, cells, kreps)) == values
    total = CycValue.zero
    for v in values:
        total = total + v.abs_sq()
    assert _k_square_sum(f, cells, kreps) == total
    nonzero = any(not v.is_zero() for v in values)
    assert _any_nonzero_over_K(f, cells, kreps) == nonzero
    return nonzero


@pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"p{c.p}m{c.m}")
def test_k_sweep_matches_assembled_values(ctx):
    # the whole transversal at (2,1), 16 of its 48 points at (3,1)
    f = ELEMS[ctx]
    kreps = _k_transversal(ctx, 2)
    kreps = random.Random(ctx.p).sample(kreps, min(len(kreps), 16))
    outcomes = {check_k_sweep(f, c, a, cells, kreps)
                for c, a, cells in transform_cases(ctx)}
    assert outcomes == {True, False}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(CTXS), st.integers(0, 3), st.integers(0, 3),
       st.lists(st.integers(0, 47), min_size=1, max_size=8, unique=True))
def test_k_sweep_matches_assembled_values_hypothesis(ctx, e1, e2, kis):
    c, a, cells = outer_cells(ctx, e1, e2)
    allk = k_transversal(ctx)
    check_k_sweep(ELEMS[ctx], c, a, cells,
                  [allk[i % len(allk)] for i in kis])


def test_section_cache_is_transparent():
    ctx = CTXS[0]
    f, p = ELEMS[ctx], ctx.p
    rng = random.Random(5)
    cache = {}
    hits = 0
    for _ in range(40):
        g = Mat([[Fraction(rng.randrange(-8, 9), p ** rng.randrange(3))
                  for _ in range(2)] for _ in range(2)], p)
        if g.det() == 0:
            continue
        s = (rng.randrange(-2, 3), rng.randrange(-2, 3))
        size = len(cache)
        cached = section_value(f, s, g, cache)
        hits += len(cache) == size
        assert cached == section_value(f, s, g, None), g.to_text()
    assert hits > 0


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(CTXS),
       st.lists(st.tuples(st.lists(st.integers(-8, 8), min_size=4,
                                   max_size=4),
                          st.lists(st.integers(0, 2), min_size=4,
                                   max_size=4),
                          st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
                min_size=1, max_size=8))
def test_section_cache_is_transparent_hypothesis(ctx, calls):
    f, p = ELEMS[ctx], ctx.p
    points = []
    for nums, exps, s in calls:
        g = Mat([[Fraction(nums[2 * i + j], p ** exps[2 * i + j])
                  for j in range(2)] for i in range(2)], p)
        if g.det() != 0:
            points.append((g, s))
    cache = {}
    # the second pass, in reverse, reads every phase from the cache
    for g, s in points + points[::-1]:
        assert section_value(f, s, g, cache) == section_value(f, s, g, None)


def chained(values):
    total = CycValue.zero
    for v in values:
        total = total + v
    return total


def test_cyc_sum_matches_chained_sum():
    rng = random.Random(7)
    for _ in range(60):
        values = []
        for _ in range(rng.randrange(1, 12)):
            order = rng.choice([1, 2, 3, 4, 6, 8, 9, 12])
            coeff = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            values.append(CycValue.root_of_unity(order, rng.randrange(order))
                          * coeff)
        if rng.random() < 0.3:
            values.append(rng.randrange(-3, 4))
        acc = CycSum()
        for v in values:
            acc.add(v)
        assert acc.value().to_json() == chained(values).to_json()


def test_cyc_sum_keeps_order_of_cancelled_terms():
    z4 = [CycValue.root_of_unity(4, 1), CycValue.root_of_unity(4, 3)]
    acc = CycSum()
    for v in z4:
        acc.add(v)
    assert acc.value().to_json() == {"order": 4, "coeffs": {}}
    assert acc.value().to_json() == chained(z4).to_json()
    # a full orbit of psi at level p^2 sums to zero at order p^2
    orbit = [psi(Fraction(j, 9), 3) for j in range(9)]
    acc = CycSum()
    for v in orbit:
        acc.add(v)
    assert acc.value().to_json() == {"order": 9, "coeffs": {}}
    assert CycSum().value().to_json() == CycValue.zero.to_json()
