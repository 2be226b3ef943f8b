"""Definitional twins that only the tests call.

Each function here is the slow, definitional form of a fast path in
`padiczeta`, kept as the reference the tests compare it with:

- `J_open_cell(g, ctx)`, the open-cell kernel J on a `Mat`, through the
  Bruhat decomposition; the mod-q^2 kernel `_J_exponent_mod` is checked
  against it.
- `_J_exponent_mod(z, ctx)`, the exponent of J at integer rows mod q^2:
  one unit-pivot elimination of all n rows that tests every pivot, None
  where J vanishes; and `_explicit_exponent_mod(z, ctx)`, the closed
  formula of f on a K-part's rows: None off the support (an upper entry
  not 0 mod q), else `_J_exponent_mod`.  The package's one reader on the
  support, `testfn._support_exponent` (rows 0..n-2, no test), is checked
  against them through `f_explicit`, `testfn._explicit_exponent_at` and
  `WhittakerOnH.kq_exponent_mod`.
- `coset_sum(g, ctx, L)`, the normalized sum of J(g r) conj(chi_theta(r))
  over the `Mat` representatives r of K(q)/K(q^L); the level walk of
  `testfn.f_convolution(g, ctx, L=L)` is checked against it byte for byte.
- `zeta_direct_counts(ctx, n)`, the histogram of the direct zeta double
  sum with every term (y, u) evaluated on its own: the W exponent of y
  read by `_J_exponent_mod` of its anti-transpose, and the product u y
  formed in full and its f exponent read by `_explicit_exponent_mod`; the
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
- `DualEClassElement`, the dual of a class element (f composed with the
  duality map g -> w_G g^{-T}), which `rslocal.certify_E_class` certifies
  as a member of the class, and `w_direct(f, c, a, k, B)`, the transform
  of any class element at box depth B evaluated cell by cell on the
  `Mat` representatives of `u_cells(ctx, n, a, B, coords)`; `W_fcg` is
  checked against it, and it is the one transform route of the dual.
- `per_term_convolution(g, ctx, tau)`, the integral convolution with
  every term evaluated on its own by `_J_exponent_mod`, under the
  chi_theta projector or a parameter tau; the column walk of
  `testfn._convolution_integral` is checked against it.
- `delta_half_exponent(a)`, log_p of delta_N^{1/2}(a) from the Fraction
  quotients a_j / a_i of the diagonal; the integer form
  `group.modular_delta_half_exponent` is checked against it, and
  `delta_product(a)`, delta_N(a) as the product of the absolute values
  |a_i / a_j|, against `group.modular_delta`.
- `enumerate_matrices(n, p, e)` and `enumerate_GL(n, p, e)`, every n x n
  matrix over Z/p^e and every invertible one, in lexicographic order;
  the K transversal of `group.iter_cosets` is checked against the second.
- `transform_coeff(f, c)`, the coefficient delta_N^{1/2}(c) c1 of the
  transform as the product of two square roots; `rslocal._coeff`, which
  scales the radicand of c1 on the integers, is checked against it.

It also holds `sampled_domains(n, p, rho)`, the slope-rho cells of one
base point per (remainder, pivot) class, built from
`nicedomain._base_points` as `nicedomain.rho0_report` builds its cells:
the tests that read a few cells of every class at rank 3 draw from it.

The file is not collected by pytest; the test modules import it.
"""

import itertools
from fractions import Fraction
from operator import mul

from padiczeta.arith import (CycSum, CycValue, DepthContext, SqrtRational,
                             psi, psi_T, valuation)
from padiczeta.group import (Mat, SubgroupSpec, box_columns, bruhat_open_cell,
                             enumerate_cosets, iwasawa_UAK, unipotent_box)
from padiczeta.nicedomain import (NiceDomain, _base_points, _sqrt_split,
                                  _upper_coords)
from padiczeta.params import chi_tau_eval, theta_matrix
from padiczeta.residue import ZMat, residue_rows
from padiczeta.rslocal import EClassElement, WValue, _box, _coeff
from padiczeta.testfn import (TestFunction, _crout_column, _explicit_on_K,
                              _leaf_weights, _unit_inverses, translate_for_H)


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


def _J_exponent_mod(z, ctx: DepthContext):
    """Exponent numerator e with J(lift(z)) = exp(2 pi i e / T), or None
    when J vanishes, for an integral argument given by integer rows, which
    are read modulo q^2 = T (they need not be reduced).

    One unit-pivot elimination mod T: with z = L D N (N upper unipotent)
    it leaves the rows R = D N, so n_{i,i+1} = R[i][i+1] / R[i][i].  Each
    step reads the pivot row and replaces the rows below it by their Schur
    complement.  A pivot is a non-unit exactly when the matching leading
    minor is, which is where J vanishes.
    """
    p, T = ctx.p, ctx.T
    inverse = _unit_inverses(p, T)
    total = 0
    head, *rest = z
    while True:
        pinv = inverse[head[0] % T]
        if not pinv:
            return None
        if not rest:
            return total % T
        total += head[1] * pinv
        tail = head[1:]
        head, *rest = [[(x - f * y) % T for x, y in zip(row[1:], tail)]
                       for row in rest for f in (row[0] * pinv,)]


def _explicit_exponent_mod(z, ctx: DepthContext):
    """Numerator of the explicit phase exponent (a T-th root of unity) for
    an integral K-element known mod q^2, or None off the support: upper
    entries must vanish mod q, and the phase reads the superdiagonal of
    r = low(z)^{-1} z.

    On the support z = low r with r = 1 mod q, so the pivots of z are units
    and, mod q^2, the superdiagonal of the upper-unipotent LDU factor of z
    equals that of r (a product of two q-multiples vanishes): this is the
    exponent of the open-cell kernel `_J_exponent_mod`.
    """
    n, q = len(z), ctx.q
    if any(z[i][j] % q for i in range(n) for j in range(i + 1, n)):
        return None
    return _J_exponent_mod(z, ctx)


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
    K_N(q)/K_N(q^2): w(y) is `_J_exponent_mod` of the anti-transpose of y
    (entry (i, j) = y[n-1-j][n-1-i]), whose split L D N gives the
    superdiagonal of the unipotent n in W(a_T y) = W(a_T) psi_T(n), and
    each term's product u y is formed in full and read by
    `_explicit_exponent_mod` (None skips the term)."""
    tf = translate_for_H(ctx, n)
    T, m = ctx.T, ctx.m
    sign = -1 if tf.conjugate else 1
    cells = [(u.num, int(u.superdiagonal_sum())) for u in enumerate_cosets(
        SubgroupSpec("KN", n, ctx.p, m), 2 * m)]
    counts = [0] * T
    for y in enumerate_cosets(SubgroupSpec("Kq", n, ctx.p, m), 2 * m):
        w = _J_exponent_mod([c[::-1] for c in zip(*y.num)][::-1], ctx)
        if w is None:
            raise ArithmeticError("K(q) points lie on the support")
        cols = tuple(zip(*y.num))
        for u, s in cells:
            e = _explicit_exponent_mod(
                [[sum(map(mul, r, c)) % T for c in cols] for r in u], ctx)
            if e is not None:
                counts[(w + s + sign * e) % T] += 1
    return counts


def per_term_convolution(g: Mat, ctx: DepthContext, tau) -> CycValue:
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
    e2 = -2 * delta_half_exponent(dec.a) - 2 * sum(
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


class DualEClassElement(EClassElement):
    """The dual of the class element with the same fields: its values
    are those of the element composed with the duality map g -> w_G
    g^{-T}.  It has no cells: its transform is `w_direct`, and it must
    not reach `rslocal._w_cell_data`, `W_fcg` or `Q_P`, which read the
    forward element's cells."""

    def value_parts(self, g: Mat):
        w = Mat.longest_weyl(self.n, self.ctx.p)
        g = w @ g.inv().transpose()
        return self.tf.value_parts(w @ g)


def dual_element(ctx: DepthContext, n: int) -> DualEClassElement:
    """The dual of `rslocal.standard_E_element(ctx, n)`, not certified."""
    return DualEClassElement(translate_for_H(ctx, n), Fraction(1))


def u_cells(ctx: DepthContext, n: int, a: Mat, B: int, coords):
    """(representative, volume) pairs covering the unipotent box of entry
    depth p^{-B} by cells of the computed congruence pattern."""
    ranges, vol = _box(ctx, a, B, coords)
    return ((u, vol) for u in unipotent_box(n, ctx.p, coords, ranges,
                                            ctx.p ** B))


def w_direct(f: EClassElement, c: Mat, a: Mat, k: Mat, B: int) -> WValue:
    """The transform at box depth B, for any class element, the dual
    included: f evaluated cell by cell."""
    ctx, n = f.ctx, f.n
    coords = [(i, l) for i in range(n) for l in range(i + 1, n)]
    wG = Mat.longest_weyl(n, ctx.p)
    total = CycSum()
    for u, vol in u_cells(ctx, n, a, B, coords):
        val = f.phase(c.inv() @ wG @ u @ a @ k)
        if val.is_zero():
            continue
        total.add(psi(-u.superdiagonal_sum(), ctx.p) * vol * val)
    return WValue(_coeff(f, c), total.value())


def delta_half_exponent(a: Mat) -> Fraction:
    """log_p of delta_N^{1/2}(a), half the sum over i < j of the
    valuations of the Fraction quotients a_j / a_i."""
    d = a.diagonal()
    s = 0
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            s += valuation(d[j] / d[i], a.p)
    return Fraction(s, 2)


def delta_product(a: Mat) -> Fraction:
    """delta_N(a) as the product over i < j of the p-adic absolute values
    |a_i / a_j| of the Fraction quotients, |0| = 0."""
    d = a.diagonal()
    out = Fraction(1)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x = d[i] / d[j]
            out *= Fraction(a.p) ** -valuation(x, a.p) if x else Fraction(0)
    return out


def enumerate_matrices(n: int, p: int, e: int):
    """All n x n matrices over Z/p^e (lexicographic order)."""
    mod = p ** e
    for vals in itertools.product(range(mod), repeat=n * n):
        yield ZMat(tuple(tuple(vals[i * n + j] for j in range(n))
                         for i in range(n)), p, e)


def enumerate_GL(n: int, p: int, e: int):
    """All elements of GL_n(Z/p^e) (lexicographic order)."""
    for z in enumerate_matrices(n, p, e):
        if z.is_unit():
            yield z


def transform_coeff(f: EClassElement, c: Mat) -> SqrtRational:
    """delta_N^{1/2}(c) * c1 as the product of the square root of the
    rational p^(2 delta_half_exponent(c)) and c1."""
    e2 = 2 * delta_half_exponent(c)
    return SqrtRational.sqrt(Fraction(f.ctx.p) ** e2) * f.tf.c1
