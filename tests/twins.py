"""Definitional twins that only the tests call.

Each function here is the slow, definitional form of a fast path in
`padiczeta`, kept as the reference the tests compare it with:

- `J_open_cell(g, ctx)`, the open-cell kernel J on a `Mat`, through the
  Bruhat decomposition; the mod-q^2 kernel `testfn._J_exponent_mod` is
  checked against it.
- `coset_sum(g, ctx, L)`, the normalized sum of J(g r) conj(chi_theta(r))
  over the `Mat` representatives r of K(q)/K(q^L); the level walk of
  `testfn.f_convolution(g, ctx, L=L)` is checked against it byte for byte.
- `zeta_direct_counts(ctx, n)`, the histogram of the direct zeta double
  sum with every term (y, u) evaluated on its own: the product u y formed
  in full and its f exponent read by `testfn._explicit_exponent_mod`; the
  column walk of `zeta._direct_counts` is checked against it int for int.
- `crout_walk_full(tables, inverse, T, leaf)`, the Crout walk that takes
  a full `testfn._crout_column` step at every depth and reads each
  parent's leaf weights by its own `testfn._leaf_weights`; the walk
  `testfn._crout_walk` is checked against it leaf call for leaf call.
- `section_value(f, s, g, cache)`, the induced-model family f[s] at g
  through a full Iwasawa decomposition and the Fraction formula
  `testfn._explicit_on_K`; the integer cell sweep of
  `nicedomain._cell_sum` is checked against its sum over
  `cell_members(domain, levels)`, the members of a cell one `Mat` at a
  time.
- `dual_value_parts(tf, g)`, the dual function at g, which reads f
  through `TestFunction.phase`.

It also holds `sampled_domains(n, p, rho)`, the slope-rho cells of one
base point per (remainder, pivot) class, built from
`nicedomain._base_points` as `nicedomain.rho0_report` builds its cells:
the tests that read a few cells of every class at rank 3 draw from it.

The file is not collected by pytest; the test modules import it.
"""

from fractions import Fraction
from operator import mul

from padiczeta.arith import (CycSum, CycValue, DepthContext, SqrtRational,
                             psi_T, valuation)
from padiczeta.group import (Mat, SubgroupSpec, bruhat_open_cell,
                             enumerate_cosets, iwasawa_UAK,
                             modular_delta_half_exponent, unipotent_box)
from padiczeta.nicedomain import (NiceDomain, _base_points, _sqrt_split,
                                  _upper_coords)
from padiczeta.params import chi_tau_eval, theta_matrix
from padiczeta.residue import residue_rows
from padiczeta.rslocal import EClassElement
from padiczeta.testfn import (TestFunction, _crout_column,
                              _explicit_exponent_mod, _explicit_on_K,
                              _leaf_weights, translate_for_H)
from padiczeta.whitmodel import WhittakerOnH


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


def zeta_direct_counts(ctx: DepthContext, n: int) -> list:
    """The definitional twin of the direct zeta double sum: the histogram
    of T ints of the term exponents w(y) + s(u) -/+ f(u y) mod T, over the
    `Mat` representatives y of K_H(q)/K_H(q^2) and the cells u of
    K_N(q)/K_N(q^2), each term's product u y formed in full and read by
    `_explicit_exponent_mod` (None skips the term)."""
    tf = translate_for_H(ctx, n)
    W = WhittakerOnH(ctx, n)
    T, m = ctx.T, ctx.m
    sign = -1 if tf.conjugate else 1
    cells = [(u.num, int(u.superdiagonal_sum())) for u in enumerate_cosets(
        SubgroupSpec("KN", n, ctx.p, m), 2 * m)]
    counts = [0] * T
    for y in enumerate_cosets(SubgroupSpec("Kq", n, ctx.p, m), 2 * m):
        w = W.kq_exponent_mod(y.num)
        if w is None:
            raise ArithmeticError("K(q) points lie on the support")
        cols = tuple(zip(*y.num))
        for u, s in cells:
            e = _explicit_exponent_mod(
                [[sum(map(mul, r, c)) % T for c in cols] for r in u], ctx)
            if e is not None:
                counts[(w + s + sign * e) % T] += 1
    return counts


def crout_walk_full(tables, inverse, T: int, leaf) -> None:
    """The twin of `testfn._crout_walk`: the same depth-first walk over
    the product of the column tables, with one full left-looking step
    (`_crout_column`: all of column j of U, and column j of L past the
    pivot) per column at every depth, and leaf(weights, e, idx) at each
    parent of the last column, its weights read by `_leaf_weights` from
    its own rows of L and pivot inverse."""
    n = len(tables) + 1

    def walk(j, low, d, e, idx):
        if j == n - 1:
            leaf(_leaf_weights(low, d, T), e, idx)
            return
        table = tables[j]
        for k, (col, s) in enumerate(table, idx * len(table)):
            y, dj, sub = _crout_column(col, low, j, inverse, T)
            walk(j + 1, sub, dj, e + (y[j - 1] * d if j else 0) - s, k)

    walk(0, [()] * n, 0, 0, 0)


def sampled_domains(n: int, p: int, rho: int) -> list:
    """The slope-rho cells of the first admissible base point of each
    (remainder, pivot) class, in the sorted order of `_base_points`."""
    return [NiceDomain(n, p, rho, l, base, pivot)
            for l, pivot, base in _base_points(n, p, 1)]


def section_value(f: EClassElement, s: tuple, g: Mat,
                  cache: dict | None = None) -> dict:
    """The induced-model family through the class element, at g.

    The underlying lower-structured function extends to a family over the
    complex parameter s by giving it full diagonal support: with
    shift * w_G * g = u a k (lower Iwasawa), the value is c1 *
    delta_U^{1/2}(a) * prod |a_i|^{s_i} times the congruence-character
    value on k.  At s integral this is exact; the result is returned as a
    map {squarefree radical -> cyclotomic coefficient} (the value is the
    sum of coeff * sqrt(radical)); the empty map means zero.  The family
    is left-invariant under the upper unipotents and unit diagonals and
    right-invariant under K(q^2), which is what the character-sum
    arguments need."""
    ctx, tf = f.ctx, f.tf
    dec = iwasawa_UAK(tf.shift_weyl @ g)
    cache = {} if cache is None else cache
    key = residue_rows(dec.k, 2 * ctx.m)
    if key in cache:
        phase = cache[key]
    else:
        phase = _explicit_on_K(dec.k, ctx, theta_matrix(f.n, ctx))
        if phase is not None and tf.conjugate:
            phase = phase.conj()
        cache[key] = phase
    if phase is None or phase.is_zero():
        return {}
    # delta_U = delta_N^{-1}
    e2 = -2 * modular_delta_half_exponent(dec.a) - 2 * sum(
        si * valuation(ai, ctx.p)
        for si, ai in zip(s, dec.a.diagonal()))
    coeff = tf.c1 * SqrtRational.sqrt(Fraction(ctx.p) ** e2)
    c, rad = _sqrt_split(coeff.squared())
    return {rad: phase * (c * coeff.sign)}


def cell_members(domain: NiceDomain, levels: dict):
    """One member `Mat` of the cell per residue class of its conjugated
    entries at the per-entry levels (see `NiceDomain.member_grid`)."""
    ranges, den = domain.member_grid(levels)
    return unipotent_box(domain.n, domain.p, _upper_coords(domain.n),
                         ranges, den)


def dual_value_parts(tf: TestFunction, g: Mat):
    """The dual function at g: tf at w_G times inverse-transpose of g."""
    w = Mat.longest_weyl(tf.N, tf.ctx.p)
    return tf.value_parts(w @ g.inv().transpose())
