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
leading minor, where both vanish.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta.arith import CycValue, DepthContext
from padiczeta.group import Mat
from padiczeta.params import companion_matrix
from padiczeta.testfn import (
    J_open_cell,
    _convolution_integral,
    _J_exponent_mod,
)

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


if __name__ == "__main__":
    sys.stdout.write(golden_document())
