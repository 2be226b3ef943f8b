"""The integral convolution and its mod-q^2 phase kernel.

The report bytes of `_convolution_integral(g, ctx).to_json()` are pinned by
`tests/golden/convolution-integral.json`: seeded integral points at
(p, m, n) = (2,2,2), (2,1,3), (5,1,2) and (3,1,2), on and off the support,
with zero and nonzero values, under the default projector and under
companion parameters tau.  `to_json` prints the stored order, which
equality ignores, so only a byte comparison pins it.  Regenerate the file
(only on purpose) with

    PYTHONPATH=src python tests/test_convolution_kernel.py \
        > tests/golden/convolution-integral.json

The kernel `_J_exponent_mod` is checked against the open-cell kernel
`J_open_cell` on the lifted matrix, including arguments with a non-unit
leading minor, where both vanish.  The column walk of
`_convolution_integral` is checked against a per-term loop over the
product of the column tables, one `_J_exponent_mod` per term, and the
golden points are evaluated once more with the explicit route's code and
the per-term kernel made to raise.

The Crout walk `_crout_walk`, which the column walk and the direct zeta
sum share, is checked leaf call for leaf call against its full twin
`crout_walk_full` (`tests/twins.py`), and its steps are counted: the
depth before the leaves takes no `_crout_column` step and reads one
`_leaf_weights` form per node.
"""

import collections
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padiczeta.arith
import padiczeta.cli
import padiczeta.group
import padiczeta.nicedomain
import padiczeta.params
import padiczeta.residue
import padiczeta.rslocal
import padiczeta.testfn
import padiczeta.whitmodel
import padiczeta.zeta
from padiczeta.arith import CycValue, DepthContext
from padiczeta.group import Mat, box_columns
from padiczeta.params import companion_matrix, theta_matrix
from padiczeta.residue import residue_rows
from padiczeta.testfn import (_congruence_columns, _convolution_integral,
                              _crout_walk, _J_exponent_mod, _unit_inverses)
from twins import J_open_cell, crout_walk_full

GOLDEN_FILE = Path(__file__).parent / "golden" / "convolution-integral.json"
INSTANCES = ((2, 2, 2), (2, 1, 3), (5, 1, 2), (3, 1, 2))
KINDS = ("generic", "open", "support", "rational", "minor", "singular")


def _unit(rng, p, mod):
    return rng.choice([u for u in range(1, mod) if u % p])


def _draw_point(rng, kind, p, m, n):
    """An integral n x n point of the given kind, as rows of Fractions.

    generic: random entries mod p^(2m+1); open: the same with every
    leading minor a unit, so every term of the sum survives; support:
    lower triangular with unit diagonal times an element of K(q), where f
    is a root of unity;
    rational: a support point with entries given over a unit denominator;
    minor: a unit in the corner but row 1 congruent to row 0 mod p, so the
    second leading minor is not a unit; singular: a row that is p times
    another, so the determinant is not a unit."""
    q, mod = p ** m, p ** (2 * m + 1)
    rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
    while kind == "open" and any(
            Mat([r[:k] for r in rows[:k]], p).det() % p == 0
            for k in range(1, n + 1)):
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
    if kind in ("support", "rational"):
        low = [[_unit(rng, p, mod) if i == j else
                rng.randrange(mod) if j < i else 0 for j in range(n)]
               for i in range(n)]
        kq = [[int(i == j) + q * rng.randrange(mod) for j in range(n)]
              for i in range(n)]
        rows = [[sum(low[i][t] * kq[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
    if kind == "minor":
        rows[0][0] = _unit(rng, p, mod)
        rows[1] = [x + p * y for x, y in zip(rows[0], rows[1])]
    if kind == "singular":
        rows[-1] = [p * x for x in rows[0]]
    den = _unit(rng, p, p ** 3) if kind == "rational" else 1
    return [[Fraction(x, den) for x in row] for row in rows]


def golden_points():
    """(p, m, n, rows, tau coefficients or None), in a fixed order."""
    rng = random.Random(20260418)
    for p, m, n in INSTANCES:
        for kind in KINDS:
            for _ in range(2):
                yield p, m, n, _draw_point(rng, kind, p, m, n), None
        # companion parameters: the one of tests/test_zeta.py at (2,1,2),
        # and one seeded polynomial per instance
        coeffs = [1, 1] if (p, m, n) == (2, 1, 2) else \
            [rng.randrange(p ** m) for _ in range(n)]
        for kind in ("generic", "support", "support"):
            yield p, m, n, _draw_point(rng, kind, p, m, n), coeffs
    # the K(q) points of test_twisted_projection_vanishes_on_congruence
    for x in range(4):
        rows = [[1 + 2 * (x & 1), 2 * (x >> 1)], [2, 3]]
        yield 2, 1, 2, [[Fraction(v) for v in row] for row in rows], [1, 1]


def golden_document() -> str:
    out = []
    for p, m, n, rows, coeffs in golden_points():
        ctx = DepthContext(p, m)
        tau = None if coeffs is None else companion_matrix(coeffs, ctx)
        g = Mat(rows, p)
        out.append({"p": p, "m": m, "n": n, "g": g.to_text(), "tau": coeffs,
                    "value": _convolution_integral(g, ctx, tau).to_json()})
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_convolution_integral_report_bytes():
    assert golden_document() == GOLDEN_FILE.read_text()


@st.composite
def kernel_arguments(draw):
    """(z, ctx, k): integer rows mod T, and k the index of a leading minor
    forced to be a non-unit (None when the rows are left as drawn)."""
    n = draw(st.integers(1, 4))
    ctx = DepthContext(draw(st.sampled_from([2, 3, 5])),
                       draw(st.integers(1, 2)))
    p, T = ctx.p, ctx.T
    z = [[draw(st.integers(0, T - 1)) for _ in range(n)] for _ in range(n)]
    k = draw(st.none() | st.integers(0, n - 1))
    if k is not None:
        # row k congruent mod p to a combination of the rows above it
        # (to zero when k = 0) makes every leading minor from k+1 on a
        # non-unit
        c = [draw(st.integers(0, p - 1)) for _ in range(k)]
        z[k] = [(sum(c[r] * z[r][j] for r in range(k)) + p * z[k][j]) % T
                for j in range(n)]
    return z, ctx, k


@settings(derandomize=True, max_examples=400, deadline=None)
@given(kernel_arguments())
def test_J_exponent_kernel_matches_open_cell(args):
    z, ctx, k = args
    e = _J_exponent_mod(z, ctx)
    if k is not None:
        assert e is None
    fast = CycValue.zero if e is None else CycValue.root_of_unity(ctx.T, e)
    assert fast == J_open_cell(Mat(z, ctx.p), ctx)


# -- the column walk against a per-term loop ---------------------------------

# (p, m, n) with at most 2^16 terms q^(n^2), so that the per-term loop
# below stays fast; rank 4, where only (2, 1) fits, gets its own test
WALK_INSTANCES = [(p, m, n) for n in range(1, 4) for p in (2, 3, 5)
                  for m in (1, 2) if (p ** m) ** (n * n) <= 2 ** 16]


def per_term_convolution(g, ctx, tau):
    """The integral convolution term by term: every term z (1 + q off) of
    the product of the column tables of `box_columns` gets its own
    `_J_exponent_mod`, less its shift q tr(off tau), with tau = theta (the
    superdiagonal) for the default projector."""
    n, q, T = g.n, ctx.q, ctx.T
    z = residue_rows(g, 2 * ctx.m)
    t = (tau or theta_matrix(n, ctx)).mat.entries
    coords = [(i, j) for i in range(n) for j in range(n)]
    tables = box_columns(z, 1, [1] * n, coords, [range(0, T, q)] * n * n,
                         {(i, j): t[j][i] for i, j in coords})
    counts = [0] * T
    for terms in itertools.product(*tables):
        cols, shifts = zip(*terms)
        e = _J_exponent_mod(zip(*cols), ctx)
        if e is not None:
            counts[(e - sum(shifts)) % T] += 1
    return CycValue.from_histogram(counts, Fraction(1, q ** (n * n)))


@st.composite
def walk_arguments(draw, instances, shapes=("open", "support", "random",
                                             "minor", "swap")):
    """(g, ctx, tau) at one of the (p, m, n) instances.  g is integral,
    with entries drawn past q^2 and over a unit denominator or none, of
    one of the shapes: open, a lower times an upper triangular matrix
    with unit diagonals (every leading minor a unit, so every term
    survives); support, the same with the upper factor in K(q), where f
    is a root of unity under the default projector; random rows; minor,
    an open point with row k congruent mod p to a combination of the rows
    above it (every leading minor from k+1 on a non-unit, the determinant
    among them); swap, an open point with two rows swapped (most often a
    non-unit leading minor with a unit determinant).  tau is None or a
    companion parameter."""
    p, m, n = draw(st.sampled_from(instances))
    shape = draw(st.sampled_from(shapes))
    ctx = DepthContext(p, m)
    q, mod = ctx.q, p ** (2 * m + 1)
    entry = st.integers(0, mod - 1)
    if shape == "random":
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    else:
        unit = entry.filter(lambda x: x % p)
        low = [[draw(unit) if i == j else draw(entry) if j < i else 0
                for j in range(n)] for i in range(n)]
        if shape == "support":
            up = [[int(i == j) + q * draw(entry) for j in range(n)]
                  for i in range(n)]
        else:
            up = [[draw(unit) if i == j else draw(entry) if j > i else 0
                   for j in range(n)] for i in range(n)]
        rows = [[sum(a * b for a, b in zip(r, c)) for c in zip(*up)]
                for r in low]
    if shape == "minor":
        k = draw(st.integers(0, n - 1))
        c = [draw(st.integers(0, p - 1)) for _ in range(k)]
        rows[k] = [sum(c[r] * rows[r][j] for r in range(k)) + p * rows[k][j]
                   for j in range(n)]
    if shape == "swap" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        rows[i], rows[j] = rows[j], rows[i]
    den = draw(st.sampled_from([1, 1, p + 1]))
    g = Mat([[Fraction(x, den) for x in row] for row in rows], p)
    tau = None
    if draw(st.booleans()):
        tau = companion_matrix([draw(st.integers(0, ctx.q - 1))
                                for _ in range(n)], ctx)
    return g, ctx, tau


def check_walk(g, ctx, tau):
    want = per_term_convolution(g, ctx, tau)
    assert _convolution_integral(g, ctx, tau).to_json() == want.to_json()


CTX31 = DepthContext(3, 1)


# rank 3 at q = 3, where the leaf weights have two components and a
# count of the last column can hold several residues: an open point under
# a companion parameter, where parents with equal last weights count the
# column differently, then a support point under the default projector,
# whose weights recur from the first call with other leaves
@settings(derandomize=True, max_examples=200, deadline=None)
@given(walk_arguments(WALK_INSTANCES))
@example((Mat.from_text("25,0,10;40,1,19;20,1,27", 3), CTX31,
          companion_matrix([0, 2, 0], CTX31)))
@example((Mat.from_text("5,21,3;110,490,78;130,602,158", 3), CTX31, None))
def test_column_walk_matches_per_term_loop(args):
    check_walk(*args)


@pytest.mark.parametrize("shape", ["support", "minor", "swap"])
@settings(derandomize=True, max_examples=2, deadline=None)
@given(data=st.data())
def test_column_walk_matches_per_term_loop_rank4(shape, data):
    check_walk(*data.draw(walk_arguments([(2, 1, 4)], [shape])))


# -- the Crout walk against its full twin, and its step counts ---------------

def _walk_tables(p, m, n, kind, seed):
    """(tables, T) of the Crout walk at a seeded integral point of the
    given `_draw_point` kind: the columns 0..n-2 of the convolution tables
    of `_congruence_columns` under the default projector (kind "conv"), a
    companion parameter ("tau"), or the zero-share cell tables of the
    direct zeta sum (`box_columns(..., {})`, kind "zeta")."""
    ctx = DepthContext(p, m)
    q, T = ctx.q, ctx.T
    rng = random.Random(seed)
    point = _draw_point(rng, rng.choice(["open", "generic"]), p, m, n)
    z = residue_rows(Mat(point, p), 2 * m)
    if kind == "zeta":
        coords = [(i, j) for i in range(n) for j in range(n)]
        tables = box_columns(z, 1, [1] * n, coords,
                             [range(0, T, q)] * len(coords), {})
    else:
        tau = None if kind == "conv" else companion_matrix(
            [rng.randrange(q) for _ in range(n)], ctx)
        tables = _congruence_columns(z, ctx, tau, q)
    return tables[:-1], T


def _leaf_calls(walk, tables, p, T):
    calls = []
    walk(tables, _unit_inverses(p, T), T,
         lambda weights, e, idx: calls.append((list(weights), e, idx)))
    return calls


# (p, m, n) at ranks 1-4 with at most 2^12 parents q^(n(n-1)) of the last
# column
TWIN_INSTANCES = [(p, m, n) for n in range(1, 5)
                  for p, m in ((2, 1), (3, 1), (2, 2), (5, 1))
                  if (p ** m) ** (n * (n - 1)) <= 2 ** 12]


@pytest.mark.parametrize("kind", ["conv", "tau", "zeta"])
@pytest.mark.parametrize("p,m,n", TWIN_INSTANCES)
def test_crout_walk_hands_the_twins_leaf_calls(p, m, n, kind):
    # every leaf call (weights, e, idx), in order, is the full walk's
    for seed in range(2):
        tables, T = _walk_tables(p, m, n, kind, seed)
        want = _leaf_calls(crout_walk_full, tables, p, T)
        assert len(want) == (p ** m) ** (n * (n - 1))
        assert _leaf_calls(_crout_walk, tables, p, T) == want


@pytest.mark.parametrize("p,m,n", [(2, 1, 1), (2, 1, 2), (2, 1, 3),
                                   (2, 1, 4), (3, 1, 2), (3, 1, 3)])
def test_crout_walk_stops_at_the_last_pivot(monkeypatch, p, m, n):
    # with q^n candidates per column, `_crout_column` runs once per node
    # above depth n-2 (sum of q^(nk), k = 1..n-2) and `_leaf_weights` once
    # per node of depth n-2 (q^(n(n-2)); once at rank 1)
    steps = collections.Counter()

    def counted(name):
        func = getattr(padiczeta.testfn, name)

        def wrapper(*args):
            steps[name] += 1
            return func(*args)
        monkeypatch.setattr(padiczeta.testfn, name, wrapper)

    counted("_crout_column")
    counted("_leaf_weights")
    tables, T = _walk_tables(p, m, n, "conv", 0)
    calls = _leaf_calls(_crout_walk, tables, p, T)
    q = p ** m
    assert len(calls) == q ** (n * (n - 1))
    assert steps["_crout_column"] == sum(q ** (n * k)
                                         for k in range(1, n - 1))
    assert steps["_leaf_weights"] == q ** (n * max(n - 2, 0))


# -- the walk runs no explicit-route code and no per-term elimination -------

MODULES = (padiczeta.arith, padiczeta.cli, padiczeta.group,
           padiczeta.nicedomain, padiczeta.params, padiczeta.residue,
           padiczeta.rslocal, padiczeta.testfn, padiczeta.whitmodel,
           padiczeta.zeta)


def _refuse(*args, **kwargs):
    raise RuntimeError("a forbidden kernel ran")


def _forbid(monkeypatch, name):
    """Make every module-level binding of `name` in the package raise."""
    for mod in MODULES:
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, _refuse)


def test_column_walk_runs_no_explicit_route_or_per_term_kernel(monkeypatch):
    for name in ("iwasawa_UAK", "bruhat_open_cell", "_explicit_on_K",
                 "chi_tau_eval", "_J_exponent_mod"):
        _forbid(monkeypatch, name)
    assert golden_document() == GOLDEN_FILE.read_text()


if __name__ == "__main__":
    sys.stdout.write(golden_document())
