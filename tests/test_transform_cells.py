"""The transform W(f, c; g) and the cell data behind it.

The report bytes of `W_fcg(f, c, a, k)` (`phase.to_json()` and `coeff`)
are pinned by `tests/golden/w-fcg.json` at seeded points: rank 2 at
(p, m) = (2,1), (3,1), (2,2), (3,2) and rank 3 at (2,1), with central
c = p^(-m e), e < 3, the pinned outer diagonal a, and k drawn mod q, both
at random and lower triangular (where the transform can be nonzero).
The same file pins the cells of `_w_cell_data(f, c, a, B, nprime)`, each
as one JSON line of its weight and its K-part residue mod q^2, sorted:
pinned and unpinned diagonals (the latter leave no cell), box depths
B = 2 and 3, and the parabolic variants nprime = 1 and 2 at rank 3.
Regenerate the file (only on purpose) with

    PYTHONPATH=src python tests/test_transform_cells.py \
        > tests/golden/w-fcg.json

The two integer kernels of the cell sweep are checked against their
references: the early exit of the elimination and its K-part residue
against `iwasawa_UAK`, and the zero test on a histogram of roots of unity
against `CycValue.is_zero`.  So is the reader both share, which gives the
a-part and the K-part residue of any argument.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from padiczeta.arith import CycValue, DepthContext, rat_to_text, valuation
from padiczeta.cli import main
from padiczeta.group import (Mat, _a_k_residue, _eliminate,
                             _unit_a_k_residue, _unit_a_pivot, iwasawa_UAK,
                             p_power_diag)
from padiczeta.residue import residue_rows
from padiczeta.rslocal import (W_fcg, _w_cell_data, pinned_outer_diagonal,
                               standard_E_element)

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
            cells = sorted(json.dumps([w.to_json(), krows], sort_keys=True)
                           for w, krows in _w_cell_data(f, c, a, B, nprime))
            out.append({"p": p, "m": m, "n": n, "nprime": nprime, "B": B,
                        "c": c.to_text(), "a": a.to_text(), "cells": cells})
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_transform_report_bytes():
    assert golden_document() == GOLDEN_FILE.read_text()


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
        assert _a_k_residue(d, p, e)(num) == (exps, residue_rows(dec.k, e))


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
    assert (CycValue.histogram_is_zero(counts, p)
            == CycValue.from_histogram(counts, 1).is_zero())


if __name__ == "__main__":
    sys.stdout.write(golden_document())
