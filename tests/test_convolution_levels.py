"""The convolution at its certified levels, off K and on it.

`f_convolution(g, ctx, L)` walks the columns of d g (1 + x) on the
integers; `coset_sum(g, ctx, L)` (`tests/twins.py`) is its definitional
twin, the sum of J(g r) conj(chi_theta(r)) over the `Mat`
representatives r of K(q)/K(q^L).  The differential test compares the
two byte for byte (`to_json` prints the stored order, which equality
ignores) at integral and non-integral points, with zero and nonzero
level sums.  At integral points the level walk at L = 2m is also
compared, by value, with the default route, the mod-q^2 Crout walk
`_convolution_integral`.

The report bytes of `f_convolution(g, ctx).to_json()` at seeded
non-integral rank-2 points are pinned by
`tests/golden/convolution-offK.json`.  The points are certified by level
stabilization; they are drawn at (p, m) = (2, 1), (2, 2) and (3, 1), with
denominators p, p^2 and p times a unit, and they include the benchmark's
diag(1/2, 2) k shape.  Regenerate the file (only on purpose) with

    PYTHONPATH=src python tests/test_convolution_levels.py \
        > tests/golden/convolution-offK.json
"""

import collections
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from padiczeta.arith import CycValue, DepthContext, valuation
from padiczeta.group import Mat, _diagonal_pivot, _eliminate, box_columns
from padiczeta.testfn import f_convolution
from twins import coset_sum

GOLDEN_FILE = Path(__file__).parent / "golden" / "convolution-offK.json"
# (p, m, kind, v, count): v is the p-adic valuation of the denominator
GOLDEN_PLAN = (
    (2, 1, "weyl", 1, 4), (2, 1, "weyl", 2, 2),
    (2, 1, "lower", 1, 4), (2, 1, "lower", 2, 3),
    (2, 1, "upper", 1, 2), (2, 1, "upper", 2, 2),
    (2, 1, "random", 1, 3), (2, 1, "random", 2, 3),
    (2, 1, "unitden", 1, 3),
    (2, 2, "weyl", 1, 1), (2, 2, "lower", 1, 2), (2, 2, "upper", 1, 1),
    (2, 2, "random", 1, 1),
    (3, 1, "weyl", 1, 1), (3, 1, "lower", 1, 1),
)


def _unit(rng, p, mod):
    return rng.choice([u for u in range(1, mod) if u % p])


def _mul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def _draw_point(rng, kind, p, m, n, v):
    """An n x n point with denominator of valuation v, as rows of
    Fractions (singular draws are redrawn).

    weyl: diag(p^-v, 1, ..., 1, p^v) times an element of K; lower: a
    lower unipotent with entries over p^v times a support point (lower
    triangular with unit diagonal, times K(q)), where f is a root of
    unity; upper: the same with an upper unipotent, where f vanishes;
    random: random numerators over p^v; unitden: a lower point whose
    entries are divided by a unit as well."""
    q, mod = p ** m, p ** (2 * m + 1)
    pv = Fraction(1, p ** v)
    below = kind != "upper"
    while True:
        if kind == "weyl":
            k = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
            if Mat(k, p).det() % p == 0:
                continue
            a = [[pv if i == j == 0 else 1 / pv if i == j == n - 1 else
                  int(i == j) for j in range(n)] for i in range(n)]
            rows = _mul(a, k)
        elif kind == "random":
            rows = [[rng.randrange(mod) * pv for _ in range(n)]
                    for _ in range(n)]
        else:
            low = [[_unit(rng, p, mod) if i == j else
                    rng.randrange(mod) if j < i else 0 for j in range(n)]
                   for i in range(n)]
            kq = [[int(i == j) + q * rng.randrange(mod) for j in range(n)]
                  for i in range(n)]
            unip = [[1 if i == j else
                     rng.randrange(mod) * pv if (j < i) == below else 0
                     for j in range(n)] for i in range(n)]
            i, j = (n - 1, 0) if below else (0, n - 1)
            unip[i][j] = _unit(rng, p, mod) * pv
            rows = _mul(unip, _mul(low, kq))
        if kind == "unitden":
            rows = [[Fraction(x, _unit(rng, p, p * p)) for x in r]
                    for r in rows]
        g = Mat(rows, p)
        if g.det():
            return g


def golden_points():
    """(p, m, g), in a fixed order."""
    rng = random.Random(20261018)
    for p, m, kind, v, count in GOLDEN_PLAN:
        for _ in range(count):
            yield p, m, _draw_point(rng, kind, p, m, 2, v)


def golden_document() -> str:
    out = [{"p": p, "m": m, "g": g.to_text(),
            "value": f_convolution(g, DepthContext(p, m)).to_json()}
           for p, m, g in golden_points()]
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_convolution_offK_report_bytes():
    assert golden_document() == GOLDEN_FILE.read_text()


# (p, m, n, L): n = 2 at L = 2m and 2m+1 for (p, m) = (2, 1) and (3, 1),
# n = 2 at L = 2m for (2, 2), and n = 3 at L = 2m for (2, 1)
LEVEL_CASES = ((2, 1, 2, 2), (2, 1, 2, 3), (3, 1, 2, 2), (3, 1, 2, 3),
               (2, 2, 2, 4), (2, 1, 3, 2))


@st.composite
def level_sums(draw):
    """(g, ctx, L) with g integral (v = 0) or not, of every kind."""
    p, m, n, L = draw(st.sampled_from(LEVEL_CASES))
    kind = draw(st.sampled_from(("weyl", "lower", "upper", "random",
                                 "unitden")))
    v = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return _draw_point(rng, kind, p, m, n, v), DepthContext(p, m), L


@settings(derandomize=True, max_examples=120, deadline=None)
@given(level_sums())
def test_level_walk_matches_coset_sum(args):
    g, ctx, L = args
    assert (f_convolution(g, ctx, L=L).to_json()
            == coset_sum(g, ctx, L).to_json())


# (p, m, n) for the integral points
INTEGRAL_CASES = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(INTEGRAL_CASES),
       st.sampled_from(("weyl", "lower", "upper", "random", "unitden")),
       st.integers(0, 2 ** 32))
def test_level_walk_matches_integral_walk(case, kind, seed):
    # at an integral g, f_convolution's default route is the mod-q^2 Crout
    # walk `_convolution_integral`; the level walk at L = 2m sums the same
    # terms on the integers.  They may store different orders (the Crout
    # walk counts each term's combined exponent, the level walk the pair
    # of factors), so they are compared by value
    p, m, n = case
    g = _draw_point(random.Random(seed), kind, p, m, n, 0)
    assert g.is_integral()
    ctx = DepthContext(p, m)
    assert f_convolution(g, ctx, L=2 * m) == f_convolution(g, ctx)



def per_term_level_sum(g, ctx, L):
    """The level sum of `f_convolution(g, ctx, L=L)` one term at a time:
    every term G (1 + x) (G = d g, x over q M_n mod p^L) gets its own
    fraction-free elimination; J vanishes unless each pivot, the leading
    minor Delta_{i+1}, has valuation exactly (i + 1) v(d), and otherwise
    its exponent mod P = T p^{(n-1) v(d)} is the sum of the eliminated
    superdiagonal over the pivots' units, each lifted to P.  The
    (J, conj chi_theta) exponent pairs are counted as the walk counts
    them."""
    n, p, m, T, q = g.n, ctx.p, ctx.m, ctx.T, ctx.q
    v = valuation(g.den, p)
    P = T * p ** ((n - 1) * v)
    pivots = [p ** ((i + 1) * v) for i in range(n)]
    lifts = [p ** ((n - 2 - i) * v) for i in range(n - 1)]
    coords = [(i, j) for i in range(n) for j in range(n)]
    tables = box_columns(g.num, 1, [1] * n, coords,
                         [range(0, p ** L, q)] * len(coords),
                         {(j - 1, j): 1 for j in range(1, n)})
    pairs = collections.Counter()
    for term in itertools.product(*tables):
        cols, shifts = zip(*term)
        out = _eliminate(list(zip(*cols)), _diagonal_pivot)
        if out is None:
            continue
        work, e = out[0], 0
        for i, row in enumerate(work):
            unit, rest = divmod(row[i], pivots[i])
            if rest or not unit % p:
                break
            if i < n - 1:
                e += row[i + 1] * pow(unit, -1, P) * lifts[i]
        else:
            pairs[e % P, -sum(shifts) % T] += 1
    return CycValue.from_histogram(pairs, Fraction(1, p ** ((L - m) * n * n)),
                                   (P, T))


# (p, m, n, L) with n = 1..3 and L = 2m..2m+2, as far as the per-term
# reference stays under 2^13 terms p^((L-m) n^2)
REFERENCE_CASES = tuple(
    (p, m, n, L) for n in (1, 2, 3) for p in (2, 3, 5) for m in (1, 2)
    for L in range(2 * m, 2 * m + 3) if p ** ((L - m) * n * n) <= 2 ** 13)


@st.composite
def reference_sums(draw):
    """(g, ctx, L) at one of the reference cases, rank 2 drawn twice as
    often as rank 1 or 3: a point of every kind
    of `_draw_point`, integral or not, optionally with two rows swapped
    (a zero or non-unit leading minor in many terms) or with its last
    row replaced by a multiple of the first (singular, every term
    vanishes)."""
    n = draw(st.sampled_from((1, 2, 2, 3)))
    p, m, n, L = draw(st.sampled_from([c for c in REFERENCE_CASES
                                       if c[2] == n]))
    kind = draw(st.sampled_from(("weyl", "lower", "upper", "random",
                                 "unitden")))
    v = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = _draw_point(rng, kind, p, m, n, v)
    edit = draw(st.sampled_from(("none", "none", "swap", "singular")))
    if n > 1 and edit != "none":
        rows = [[g[i, j] for j in range(n)] for i in range(n)]
        if edit == "swap":
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[-1] = [x * rng.choice((1, p, Fraction(1, p)))
                        for x in rows[0]]
        g = Mat(rows, p)
    return g, DepthContext(p, m), L


@settings(derandomize=True, max_examples=150, deadline=None)
@given(reference_sums())
def test_level_walk_matches_per_term_elimination(args):
    g, ctx, L = args
    assert (f_convolution(g, ctx, L=L).to_json()
            == per_term_level_sum(g, ctx, L).to_json())


if __name__ == "__main__":
    sys.stdout.write(golden_document())
