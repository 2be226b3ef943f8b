"""The direct zeta route: its pinned values and its mod-q^2 phase kernels.

The values of `zeta_direct(ctx, n)` (exponents, offset, the sign and
radicand of c, and the route) are pinned by
`tests/golden/zeta-direct.json` at ranks 1-3, p in {2, 3, 5} and depth
m in {1, 2}.  Regenerate the file (only on purpose) with

    PYTHONPATH=src python tests/test_zeta_direct.py \
        > tests/golden/zeta-direct.json

Each term of the direct double sum is a root of unity whose exponent is
read mod q^2 by two integer kernels: the W side
`WhittakerOnH.kq_exponent_mod(y)` and the f side
`_explicit_exponent_mod(u y)`.  Both are checked pointwise against the
Fraction routes they replace (`WhittakerOnH.value_parts` and
`mellin_component`).  The route reads the f side by the column walk
`testfn._crout_walk`, which is checked leaf by leaf against
`_explicit_exponent_mod(u y)`, and its histogram is checked int for int
against the per-term twin `tests/twins.py` `zeta_direct_counts`.  The
direct route is checked to run none of the explicit route's code, and the
other way round.
"""

import itertools
import json
import sys
from operator import mul
from pathlib import Path

from hypothesis import given, settings
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
from padiczeta.group import Mat, box_columns, enumerate_cosets
from padiczeta.testfn import (_crout_walk, _explicit_exponent_mod,
                             _unit_inverses, mellin_component,
                             translate_for_H)
from padiczeta.whitmodel import WhittakerOnH
from padiczeta.zeta import (_central_exponents, _direct_counts, zeta_direct,
                            zeta_explicit)

import twins

GOLDEN_FILE = Path(__file__).parent / "golden" / "zeta-direct.json"
# (p, m, n)
INSTANCES = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 1),
             (2, 2, 2), (5, 1, 2), (2, 1, 3))


def golden_document() -> str:
    out = []
    for p, m, n in INSTANCES:
        z = zeta_direct(DepthContext(p, m), n)
        out.append({"p": p, "m": m, "n": n, "exponents": list(z.exponents),
                    "offset": z.offset, "sign": z.c.sign,
                    "radicand": str(z.c.radicand), "route": z.route})
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_zeta_direct_report_bytes():
    assert golden_document() == GOLDEN_FILE.read_text()


# -- the two mod-q^2 kernels against the Fraction routes --------------------

@st.composite
def kernel_points(draw):
    """(ctx, y, u, off): y in K(q) and u in K_N(q) as integer rows, with
    entries drawn past q^2 (the kernels read them mod q^2), and off = (i,
    j, t) a non-multiple t of q for upper entry (i, j) of y, which keeps y
    in K but takes u y off the support of f, or None."""
    n = draw(st.integers(1, 4))
    ctx = DepthContext(draw(st.sampled_from([2, 3, 5])),
                       draw(st.integers(1, 2)))
    q = ctx.q
    digit = st.integers(0, ctx.p * q - 1)
    y = [[int(i == j) + q * draw(digit) for j in range(n)] for i in range(n)]
    u = [[int(i == j) + (q * draw(digit) if i < j else 0) for j in range(n)]
         for i in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    off = None
    if upper and draw(st.booleans()):
        i, j = draw(st.sampled_from(upper))
        off = i, j, draw(st.integers(1, ctx.T).filter(lambda t: t % q))
    return ctx, y, u, off


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kernel_points())
def test_W_kernel_matches_value_parts(args):
    ctx, y, _, _ = args
    W = WhittakerOnH(ctx, len(y))
    coeff, phase = W.value_parts(W.a_T @ Mat(y, ctx.p))
    assert coeff == W.peak
    assert phase == CycValue.root_of_unity(ctx.T, W.kq_exponent_mod(y))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kernel_points())
def test_f_kernel_matches_mellin_component(args):
    ctx, y, u, off = args
    n = len(y)
    if off is not None:
        i, j, t = off
        y[i][j] += t
    uy = [[sum(a * b for a, b in zip(r, c)) for c in zip(*y)] for r in u]
    tf = translate_for_H(ctx, n)
    aT = WhittakerOnH(ctx, n).a_T
    mono = mellin_component(tf, aT @ Mat(uy, ctx.p))
    e = _explicit_exponent_mod(uy, ctx)
    assert (e is None) == (mono is None) == (off is not None)
    if e is not None:
        assert mono.exponents == _central_exponents(tf, aT)
        assert mono.offset == 0
        sign = -1 if tf.conjugate else 1
        assert mono.scalar == CycValue.root_of_unity(ctx.T, sign * e)


# -- the column walk against the per-term double loop ------------------------

def _counts(p, m, n):
    ctx = DepthContext(p, m)
    return _direct_counts(translate_for_H(ctx, n), WhittakerOnH(ctx, n))


def test_direct_counts_match_the_per_term_twin():
    for p, m, n in INSTANCES:
        assert _counts(p, m, n) == twins.zeta_direct_counts(
            DepthContext(p, m), n), (p, m, n)


def test_direct_counts_skip_the_cells_off_the_support(monkeypatch):
    # cells that no transversal of K_N(q) holds: one with a non-unit pivot
    # (p in the last diagonal entry), one off the support (a unit upper
    # corner) and two on the support that are not unipotent (1 + q on the
    # diagonal, and a unit lower corner); the walk skips the first two, as
    # the per-term loop does term by term, and reads the others
    def with_extra_cells(spec, L):
        reps = enumerate_cosets(spec, L)
        if spec.tag != "KN":
            return reps
        n, p, q = spec.N, spec.p, spec.p ** spec.e
        changes = [{(n - 1, n - 1): p}, {(0, 0): 1 + q}]
        if n > 1:
            changes += [{(0, n - 1): 1}, {(0, 0): 1 + q, (n - 1, 0): 1}]
        extra = []
        for change in changes:
            rows = [[change.get((i, j), int(i == j)) for j in range(n)]
                    for i in range(n)]
            extra.append(Mat(rows, p))
        return reps + extra

    monkeypatch.setattr(padiczeta.zeta, "enumerate_cosets", with_extra_cells)
    monkeypatch.setattr(twins, "enumerate_cosets", with_extra_cells)
    for p, m, n in INSTANCES:
        assert _counts(p, m, n) == twins.zeta_direct_counts(
            DepthContext(p, m), n), (p, m, n)


def test_direct_counts_match_the_twin_at_rank_3_and_q_3(monkeypatch):
    # every term exponent is a multiple of q, so its sign is lost mod q^2
    # at q = 2, and at rank 2 the walk's prefix exponent is 0: the sign of
    # the prefix exponent shows only from rank 3 at q >= 3, here on the
    # first cell of K_N(q), the identity, which keeps the per-term loop
    # short
    def first_cell(spec, L):
        reps = enumerate_cosets(spec, L)
        return reps[:1] if spec.tag == "KN" else reps

    monkeypatch.setattr(padiczeta.zeta, "enumerate_cosets", first_cell)
    monkeypatch.setattr(twins, "enumerate_cosets", first_cell)
    assert _counts(3, 1, 3) == twins.zeta_direct_counts(DepthContext(3, 1),
                                                        3)


@st.composite
def walk_points(draw):
    """(ctx, z): a golden instance's context and the integer rows of an
    n x n z on the support of f, upper entries multiples of q and the
    diagonal units, with entries drawn past q^2 (the walk reads them mod
    q^2); the cells u of K_N(q) are among them."""
    p, m, n = draw(st.sampled_from(INSTANCES))
    ctx = DepthContext(p, m)
    q, T = ctx.q, ctx.T
    entry = st.integers(0, p * T - 1)
    z = [[q * draw(entry) if i < j else
          draw(entry.filter(lambda x: x % p)) if i == j else draw(entry)
          for j in range(n)] for i in range(n)]
    return ctx, z


@settings(derandomize=True, max_examples=40, deadline=None)
@given(walk_points())
def test_walk_leaves_match_explicit_exponent(args):
    # each leaf of the column walk over the box z (1 + X), X in q M_n mod
    # q^2, has the exponent of `_explicit_exponent_mod` at its own term,
    # the product of z with the member 1 + X of the identity box at the
    # same index of the itertools.product order
    ctx, z = args
    n, q, T = len(z), ctx.q, ctx.T
    coords = [(i, j) for i in range(n) for j in range(n)]
    ranges = [range(0, T, q)] * len(coords)
    *tables, last = box_columns(z, 1, [1] * n, coords, ranges, {})
    got = {}

    def leaf(weights, e, idx):
        for k, (col, _) in enumerate(last):
            got[idx * len(last) + k] = (
                e + sum(map(mul, weights, col[:n - 1]))) % T

    _crout_walk(tables, _unit_inverses(ctx.p, T), T, leaf)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    members = list(itertools.product(
        *box_columns(ident, 1, [1] * n, coords, ranges, {})))
    assert sorted(got) == list(range(len(members)))
    for idx, member in enumerate(members):
        y = list(zip(*(col for col, _ in member)))
        zy = [[sum(map(mul, r, c)) for c in zip(*y)] for r in z]
        assert got[idx] == _explicit_exponent_mod(zy, ctx), (idx, y)


# -- the two routes share no per-term code -----------------------------------

MODULES = (padiczeta.arith, padiczeta.cli, padiczeta.group,
           padiczeta.nicedomain, padiczeta.params, padiczeta.residue,
           padiczeta.rslocal, padiczeta.testfn, padiczeta.whitmodel,
           padiczeta.zeta)


def _refuse(*args, **kwargs):
    raise RuntimeError("the other route's code ran")


def _forbid(monkeypatch, name):
    """Make every module-level binding of `name` in the package raise."""
    for mod in MODULES:
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, _refuse)


def test_direct_route_runs_no_explicit_route_code(monkeypatch):
    for name in ("mellin_component", "iwasawa_UAK",
                 "whittaker_transform_at_aT"):
        _forbid(monkeypatch, name)
    monkeypatch.setattr(WhittakerOnH, "value_parts", _refuse)
    assert golden_document() == GOLDEN_FILE.read_text()


def test_explicit_route_runs_no_direct_route_kernel(monkeypatch):
    want = {(p, m, n): zeta_explicit(DepthContext(p, m), n)
            for p, m, n in INSTANCES}
    for name in ("_J_exponent_mod", "_crout_column", "_crout_walk"):
        _forbid(monkeypatch, name)
    for (p, m, n), z in want.items():
        assert zeta_explicit(DepthContext(p, m), n).agrees_with(z)


if __name__ == "__main__":
    sys.stdout.write(golden_document())
