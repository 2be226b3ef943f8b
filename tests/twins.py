"""Definitional twins that only the tests call.

Each function here is the slow, definitional form of a fast path in
`padiczeta`, kept as the reference the tests compare it with:

- `J_open_cell(g, ctx)`, the open-cell kernel J on a `Mat`, through the
  Bruhat decomposition; the mod-q^2 kernel `testfn._J_exponent_mod` is
  checked against it.
- `coset_sum(g, ctx, L)`, the normalized sum of J(g r) conj(chi_theta(r))
  over the `Mat` representatives r of K(q)/K(q^L); the level walk of
  `testfn.f_convolution(g, ctx, L=L)` is checked against it byte for byte.

The file is not collected by pytest; the test modules import it.
"""

from fractions import Fraction

from padiczeta.arith import CycSum, CycValue, DepthContext, psi_T, valuation
from padiczeta.group import (Mat, SubgroupSpec, bruhat_open_cell,
                             enumerate_cosets)
from padiczeta.params import chi_tau_eval, theta_matrix


def J_open_cell(g: Mat, ctx: DepthContext) -> CycValue:
    """Open-cell kernel: zero off the big cell or when the cell's diagonal
    is not a unit vector, else the additive character of the superdiagonal
    of the upper-triangular factor."""
    dec = bruhat_open_cell(g)
    if dec is None:
        return CycValue.zero
    for d in dec.a.diagonal():
        if valuation(d, ctx.p) != 0:
            return CycValue.zero
    return psi_T(dec.n.superdiagonal_sum(), ctx)


def coset_sum(g: Mat, ctx: DepthContext, L: int) -> CycValue:
    """The definitional twin of the level walk in `f_convolution`: the
    normalized sum of J(g r) conj(chi_theta(r)) over the `Mat`
    representatives r of K(q)/K(q^L)."""
    n = g.n
    theta = theta_matrix(n, ctx)
    total = CycSum()
    for r in enumerate_cosets(SubgroupSpec("Kq", n, ctx.p, ctx.m), L):
        term = J_open_cell(g @ r, ctx)
        if not term.coeffs:
            continue
        total.add(term * chi_tau_eval(theta, r).conj())
    return total.value() * Fraction(1, ctx.p ** ((L - ctx.m) * n * n))
