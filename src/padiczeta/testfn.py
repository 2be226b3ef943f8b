"""The localized test function on GL_N(Q_p), two ways.

The function f is defined by convolving the open-cell kernel J against the
projector onto the chi_theta-isotypic part of K(q), and admits a closed
formula: f(g) vanishes unless the Iwasawa a-part of g is trivial and the
K-part is lower-triangular mod q, in which case f(g) = chi_theta(k') for
the congruence-subgroup remainder k'.  Both routes are implemented and
compared pointwise on exhaustive grids.

The closed formula `f_explicit` runs on the integers: one early-exit
Iwasawa elimination of d g (d the denominator of g) gives the K-part mod
q^2 exactly when a = 1, and the phase is read from it mod q^2.  The
Fraction form of the same formula (Iwasawa decomposition, the a = 1 test,
chi_theta of the stripped K-part) stays as `TestFunction.phase`, the route
that the W_fcg twins and the dual function read, so that no fast path is
checked against code it shares.

Convolution levels.  The sum over K(q)/K(q^L) is exact as soon as J(g .)
is right K(q^L)-invariant.  For integral g this happens already at L = 2m
(leading minors and superdiagonal ratios only move by q^2-multiples), and
the whole term can be evaluated in Z/q^2 integer arithmetic, which is the
fast path: a depth-first walk over the columns of the terms, one
left-looking LU step per column, so terms that share their first columns
share that part of the elimination.  That walk is one helper,
`_crout_walk`, which the direct zeta sum runs too.  It stops at the last
pivot: the column before the last is substituted only down to its pivot,
since the leaves read no row of L below it, and each parent's leaf
weights are its pivot inverse times one linear form per node.  Parents of
the last column with equal leaf weights share one count of it: the count
depends only on the weights mod q^2, and each parent shifts it by its own
prefix exponent.  For non-integral g no level is guaranteed a priori, so
we certify stabilization empirically per point.
Each level is the same kind of walk on the exact integers, over the
columns of d g (1 + x): one left-looking fraction-free (Bareiss) step per
column, so terms that share a column prefix share its pivots and the
units' inverses, and a prefix whose pivot shows that J vanishes is pruned
with all its terms.  Its value is counted (J, chi_theta) exponent pairs
(`CycValue.from_histogram`) and prints as the coset sum it replaces,
the definitional twin that the tests keep (`tests/twins.py`).

The H-side function is the conjugated translate f_H(g) = c1 conj(f0)(t g)
with t the antidominant square-root-of-T diagonal, normalized so that the
L^2-norm over U_H\\H is one; c1 is kept exact as a square root of a
rational and never folded into the cyclotomic phases.
"""

from __future__ import annotations

import collections
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    CycValue,
    DepthContext,
    MellinMonomial,
    SqrtRational,
    certify,
    valuation,
)
from .group import (
    Mat,
    _unit_a_k_residue,
    box_columns,
    iwasawa_UAK,
    p_power_diag,
)
from .params import TauParam, chi_tau_eval, theta_matrix
from .residue import residue_rows

# the last level 2m + LEVEL_CAP of the stabilization certificate of
# `f_convolution` at a non-integral point
LEVEL_CAP = 4


@functools.cache
def _unit_inverses(p: int, T: int) -> tuple:
    """Inverse of each residue mod T, with 0 in place of the non-units."""
    return tuple(pow(u, -1, T) if u % p else 0 for u in range(T))


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


def _explicit_exponent_at(krows, kcols, ctx: DepthContext):
    """`_explicit_exponent_mod` of the K-element krows k mod q^2, for the
    integer rows krows of a K-part and the integer columns kcols of a
    K-point k: the upper entries of the product are tested mod q before
    the rest of it is formed, and `_J_exponent_mod` reads the product mod
    q^2.  So a cell of head u a with the K-part krows is read at a K-point
    k: u' a' k' k, k in K, has the same a-part and the K-part k' k."""
    n, q, T = len(krows), ctx.q, ctx.T
    if any(sum(map(operator.mul, krows[i], kcols[j])) % q
           for i in range(n) for j in range(i + 1, n)):
        return None
    return _J_exponent_mod([[sum(map(operator.mul, row, col)) % T
                             for col in kcols] for row in krows], ctx)


def _congruence_columns(z, ctx: DepthContext, tau, digits: int) -> list:
    """The candidates for each column j of z (1 + q off), one per column
    j of off with entries in range(digits), from `box_columns`: pairs of
    an exact integer column and its shift, the column's share q tr of the
    projecting character's exponent.

    tau=None reads only off[j-1][j] (the superdiagonal); a parameter tau
    reads sum_i off[i][j] tau[j][i].
    """
    n, q = len(z), ctx.q
    coords = [(i, j) for i in range(n) for j in range(n)]
    weights = ({(j - 1, j): 1 for j in range(1, n)} if tau is None
               else {(i, j): tau.mat.entries[j][i] for i, j in coords})
    return box_columns(z, 1, [1] * n, coords,
                       [range(0, q * digits, q)] * len(coords), weights)


def _crout_column(col, low, j: int, inverse, T: int):
    """One step of the left-looking (Crout) LU mod T: given low[i], row i
    of the unit lower factor L up to column min(i, j), and column j of the
    argument, returns (y, d, low').  Forward substitution gives y, whose
    entries 0..j are column j of U and whose entries below are U[j][j]
    times column j of L; d is the inverse of U[j][j] mod T (0 for a
    non-unit) and low' is low extended by column j of L.  `_crout_walk`
    takes this step above depth n-2 only, and `_convolution_integral`
    for its prefix test on z."""
    y = []
    for c, row in zip(col, low):
        y.append((c - sum(map(operator.mul, row, y))) % T)
    d = inverse[y[j]]
    return y, d, [row + (x * d % T,) if i > j else row
                  for i, (row, x) in enumerate(zip(low, y))]


def _leaf_weights(low, d: int, T: int) -> list:
    """d times row n-2 of the inverse of the unit lower L given by the rows
    low, on rows and columns 0..n-2: the linear form that takes entries
    0..n-2 of the last column to d U[n-2][n-1] mod T."""
    m = len(low) - 1
    w = [0] * m
    if m:
        w[-1] = d
    for k in range(m - 2, -1, -1):
        w[k] = -sum(w[i] * low[i][k] for i in range(k + 1, m)) % T
    return w


def _bareiss_column(col, low, piv, j: int) -> list:
    """Column j of the fraction-free (Bareiss) row elimination of an
    integer matrix, left-looking: from the exact column col of the
    argument, low[i], column i of the elimination for i < j (its entries
    below row i are the multiplier numerators), and piv = (1, Delta_1,
    ..., Delta_j), the leading minors that are its pivots.  Step i turns
    entry r > i into (Delta_{i+1} y[r] - low[i][r] y[i]) / Delta_i, an
    exact division, so every entry is a minor: y[i] for i <= j is row i
    of the eliminated upper part, y[j] is Delta_{j+1}, and y[r] for r > j
    is the multiplier numerator of column j.  The caller must not pass a
    zero pivot."""
    y = list(col)
    for i in range(j):
        a, prev, b, c = piv[i + 1], piv[i], low[i], y[i]
        for r in range(i + 1, len(y)):
            y[r] = (a * y[r] - b[r] * c) // prev
    return y


def _crout_walk(tables, inverse, T: int, leaf) -> None:
    """Walk the product of the column tables depth first, one
    left-looking (Crout) LU step mod T per column, and hand each parent
    of the last column to leaf(weights, e, idx).

    tables holds, for the columns 0..n-2 of n x n terms, lists of
    (column, share) pairs; the last column is left to the leaf.  Columns
    0..j of a term fix columns 0..j of L and U, so at depth j < n-2
    forward substitution with the prefix's L gives column j of U and,
    past the pivot, column j of L (`_crout_column`), and the exponent e
    gains U[j-1][j] / U[j-1][j-1] less the column's share.  Terms that
    share a column prefix share only its arithmetic.  At a parent,
    weights is the linear form of `_leaf_weights`, which takes rows
    0..n-2 of a last column to its term's last exponent summand
    U[n-2][n-1] / U[n-2][n-2], and idx is the parent's index in the
    itertools.product order of the tables.

    That form reads only rows 0..n-2 of L, which column n-2 does not
    extend, and it is linear in the pivot inverse d, its last entry d.
    So depth n-2 substitutes each candidate against rows 0..n-2 only,
    stopping at the pivot U[n-2][n-2], and hands each parent d times the
    node's one form `_leaf_weights(low, 1, T)`, reduced mod T.  Rank 1
    has no tables, and its one parent reads `_leaf_weights` directly.
    The walk tests no pivot: the caller makes the unit test once for all
    terms, which agree mod q."""
    n = len(tables) + 1

    def walk(j, low, d, e, idx):
        if j == n - 1:
            leaf(_leaf_weights(low, d, T), e, idx)
            return
        table = tables[j]
        if j < n - 2:
            for k, (col, s) in enumerate(table, idx * len(table)):
                y, dj, sub = _crout_column(col, low, j, inverse, T)
                walk(j + 1, sub, dj, e + (y[j - 1] * d if j else 0) - s, k)
            return
        base = _leaf_weights(low, 1, T)
        rows = low[:j + 1]
        for k, (col, s) in enumerate(table, idx * len(table)):
            y = []
            for c, row in zip(col, rows):
                y.append((c - sum(map(operator.mul, row, y))) % T)
            dj = inverse[y[j]]
            leaf([dj * b % T for b in base],
                 e + (y[j - 1] * d if j else 0) - s, k)

    walk(0, [()] * n, 0, 0, 0)


def _convolution_integral(g: Mat, ctx: DepthContext, tau=None) -> CycValue:
    """Exact convolution at level 2m via residue arithmetic (g integral).

    tau selects the projecting character; None means the subdiagonal
    nilpotent, whose character only reads the superdiagonal.  Column j of
    the term z (1 + q off) mod q^2 depends only on column j of off, so the
    q^n candidates of each column are built once, incrementally, by
    `group.box_columns` (`_congruence_columns`).

    A term is L U mod T with L unit lower triangular, J vanishes on it
    unless every pivot U[i][i] is a unit, and otherwise its exponent is
    sum_i U[i][i+1] / U[i][i].  The q^{n^2} terms are walked depth first
    over the product of the column tables, one left-looking (Crout) LU
    step per column (`_crout_walk`).  Every term is z mod q, so a pivot
    is a unit at every node of a depth or at none: the test is made once,
    on z itself.  The leaves read only U[n-2][n-1], a linear form in the
    last column that the walk hands each parent (`_leaf_weights`, as the
    parent's pivot inverse times one form per node above): a leaf adds
    (weights . leaf - shift) mod T to the parent's prefix exponent e, and
    the weights are reduced mod T.  So parents with equal weights share
    one count of the last column, the histogram ((x, multiplicity), ...)
    of that summand, made when the weights first occur in the call, and
    each parent adds it at offset e, multiplicities included, to a
    histogram of T ints that becomes the value once at the end
    (`CycValue.from_histogram`).
    """
    n, q, T = g.n, ctx.q, ctx.T
    inverse = _unit_inverses(ctx.p, T)
    z = residue_rows(g, 2 * ctx.m)
    counts = [0] * T
    prefix = [()] * n
    for j, col in enumerate(zip(*z)):
        _, d, prefix = _crout_column(col, prefix, j, inverse, T)
        if not d:
            return CycValue.from_histogram(counts, Fraction(1, q ** (n * n)))
    *tables, last = _congruence_columns(z, ctx, tau, q)
    # the leaves keep rows 0..n-2 of the column and the shift
    leaves = [(*col[:n - 1], s) for col, s in last]

    # the count of the last column under each leaf weights tuple
    hists = {}

    def leaf(weights, e, idx):
        key = tuple(weights)
        hist = hists.get(key)
        if hist is None:
            w = (*key, -1)
            hist = hists[key] = tuple(collections.Counter(
                sum(map(operator.mul, w, term)) % T
                for term in leaves).items())
        for x, c in hist:
            counts[(e + x) % T] += c

    _crout_walk(tables, inverse, T, leaf)
    return CycValue.from_histogram(counts, Fraction(1, q ** (n * n)))


def f_convolution(g: Mat, ctx: DepthContext,
                  L: int | None = None) -> CycValue:
    """f(g) by definitional convolution against the chi_theta projector.

    With L=None, integral arguments use the exact residue path at level
    2m; other arguments are certified by stabilization: levels 2m+1,
    2m+2, ... until two consecutive answers agree (`arith.certify`, which
    raises `CertificateCapExceeded` past 2m+LEVEL_CAP).  A singular g
    raises ZeroDivisionError, as in `f_explicit`, and is tested for only
    when no term was counted: on both paths it counts none, since a
    determinant that vanishes mod p leaves a prefix pivot of the integral
    walk a non-unit, and Delta_n = det(G r) = 0 prunes every term of a
    level.

    With L given, returns the normalized sum over K(q)/K(q^L) for any g,
    on the integers.  With d = g.den, v = v_p(d) and G = g.num, the
    representatives are r = 1 + x with x running over q M_n mod p^L
    (those of `enumerate_cosets`), and column j of G r = d g r depends
    only on column j of x, so the p^{(L-m)n} exact candidates of each
    column are built once by `group.box_columns` (`_congruence_columns`).
    The terms are the product of those tables, walked depth first as in
    `_convolution_integral`, with fraction-free (Bareiss) elimination in
    place of LU mod q^2: at depth j, `_bareiss_column` turns the
    candidate into column j of the elimination of G r from the prefix's
    pivots and multiplier columns.  Its pivot is the leading minor
    Delta_{j+1} of G r.  J vanishes when it is zero, and also unless
    v(Delta_{j+1}) = (j+1) v, the test that a_j = Delta_{j+1} / (d
    Delta_j) is a unit; a prefix that fails is pruned with every term
    below it.  Otherwise the phase of J is psi_T of sum_i work[i][i+1] /
    work[i][i], a root of unity of order dividing P = T p^{(n-1)v}: each
    node takes the inverse mod P of its pivot's unit part once, and the
    next depth adds its row-j entry times that inverse, lifted to P.  The
    leaves count the products J root * conj(chi_theta root) under their
    exponent pairs mod (P, T), made the value once
    (`CycValue.from_histogram` at the factor orders (P, T)), so it prints
    as the coset sum it replaces (the tests' twin `coset_sum`).
    """
    n, p, m, T = g.n, ctx.p, ctx.m, ctx.T
    if L is None:
        if g.is_integral():
            value = _convolution_integral(g, ctx)
        else:
            last = 2 * m + LEVEL_CAP
            _, (_, value) = certify(
                ((lev, f_convolution(g, ctx, L=lev))
                 for lev in range(2 * m + 1, last + 1)),
                "convolution level cap exceeded", "cap", LEVEL_CAP, last)
        if not value.coeffs and g.det() == 0:
            raise ZeroDivisionError("singular matrix")
        return value
    if L < 2 * m:
        raise ValueError("level must be at least 2m")
    v = valuation(g.den, p)
    P = T * p ** ((n - 1) * v)
    pivots = [p ** ((i + 1) * v) for i in range(n)]
    lifts = [p ** ((n - 2 - i) * v) for i in range(n - 1)]
    tables = _congruence_columns(g.num, ctx, None, p ** (L - m))
    pairs = collections.Counter()

    def walk(j, low, piv, inv, e, shift):
        for col, s in tables[j]:
            y = _bareiss_column(col, low, piv, j)
            unit, rest = divmod(y[j], pivots[j])
            if rest or not unit % p:
                continue
            ej = e + y[j - 1] * inv * lifts[j - 1] if j else e
            if j == n - 1:
                pairs[ej % P, -(shift + s) % T] += 1
            else:
                walk(j + 1, low + [y], piv + (y[j],), pow(unit, -1, P), ej,
                     shift + s)

    walk(0, [], (1,), 0, 0, 0)
    return CycValue.from_histogram(pairs, Fraction(1, p ** ((L - m) * n * n)),
                                   (P, T))


def f_explicit(g: Mat, ctx: DepthContext) -> CycValue:
    """Closed formula: with g = u a k (a pure p-powers, units folded into
    k), f(g) = 0 unless a = 1 and k is lower-triangular mod q; then the
    value is chi_theta of k stripped of its exact lower part.  The strip
    is well defined because the character ignores lower-triangular
    perturbations.

    On the integers: the early-exit Iwasawa elimination of g.num
    (`group._unit_a_k_residue` over g.den) gives the rows of k mod q^2,
    or None as soon as a pivot shows a != 1, and the phase exponent is
    read from those rows (`_explicit_exponent_mod`).  A singular g has no
    pivot, so it gives None too, and raises ZeroDivisionError as
    `f_convolution` does.  `TestFunction.phase` keeps the same formula on
    Fractions as the twin."""
    rows = _unit_a_k_residue(g.den, ctx.p, 2 * ctx.m)(g.num)
    if rows is None:
        if g.det() == 0:
            raise ZeroDivisionError("singular matrix")
        return CycValue.zero
    e = _explicit_exponent_mod(rows, ctx)
    return CycValue.zero if e is None else CycValue.root_of_unity(ctx.T, e)


def lower_borel_order(N: int, p: int, e: int) -> int:
    """Order of the invertible lower-triangular matrices over Z/p^e."""
    return ((p - 1) * p ** (e - 1)) ** N * p ** (e * N * (N - 1) // 2)


def l2_norm_sq(ctx: DepthContext, N: int) -> Fraction:
    """Exact squared L^2-norm of f over U\\G: the density of the support
    of f|_K, which is the preimage of the lower-triangular invertibles."""
    from .group import gl_order

    return Fraction(lower_borel_order(N, ctx.p, ctx.m),
                    gl_order(N, ctx.p, ctx.m))


@dataclass(frozen=True)
class TestFunction:
    """f with an optional antidominant translation and normalization.

    shift holds the diagonal translation exponents in units of the square
    root of Ttilde (so entry i of the translation is p^{-m shift_i}); c1
    is the exact normalization, and conjugate toggles complex conjugation
    of the underlying phase.
    """

    ctx: DepthContext
    N: int
    shift: tuple
    c1: SqrtRational
    conjugate: bool = False

    def shift_mat(self) -> Mat:
        return self._shift_mat

    @functools.cached_property
    def _shift_mat(self) -> Mat:
        # built once per function; Mat is immutable, so callers share it
        p, m = self.ctx.p, self.ctx.m
        return p_power_diag([-m * s for s in self.shift], p)

    @functools.cached_property
    def shift_weyl(self) -> Mat:
        """shift_mat() @ w_G, built once per function like shift_mat()."""
        return self._shift_mat @ Mat.longest_weyl(self.N, self.ctx.p)

    @functools.cached_property
    def _identity(self) -> Mat:
        # the a-part of a point of the support, built once per function
        return Mat.identity(self.N, self.ctx.p)

    @functools.cached_property
    def theta(self) -> TauParam:
        """theta_matrix(N, ctx), built once per function."""
        return theta_matrix(self.N, self.ctx)

    def phase(self, g: Mat) -> CycValue:
        """The cyclotomic part of the value; the full value is c1 * phase.

        The closed formula of `f_explicit` on Fractions, at the translate
        h = shift_mat() g: the Iwasawa decomposition h = u a k, zero
        unless a = 1, and otherwise chi_theta of k stripped of its exact
        lower part (`_explicit_on_K`).  It shares no integer kernel with
        `f_explicit` or with the W_fcg cell walk, whose twins read f
        through it."""
        dec = iwasawa_UAK(self._shift_mat @ g)
        if dec.a != self._identity:
            return CycValue.zero
        v = _explicit_on_K(dec.k, self.ctx, self.theta)
        if v is None:
            return CycValue.zero
        return v.conj() if self.conjugate else v

    def value_parts(self, g: Mat):
        return self.c1, self.phase(g)


def translate_for_H(ctx: DepthContext, n: int) -> TestFunction:
    """The H-side function: conjugate f0 translated by the antidominant
    half-power diagonal, normalized to unit L^2-norm over U_H\\H.

    The translation multiplies the norm by the U-modular character of the
    translation element, a pure power of T, so c1 is an explicit square
    root of a rational.
    """
    shift = tuple(2 * i - n - 1 for i in range(1, n + 1))
    delta_u = Fraction(ctx.T) ** (n * (n * n - 1) // 6)
    c1 = SqrtRational.sqrt(1 / (delta_u * l2_norm_sq(ctx, n)))
    return TestFunction(ctx, n, shift, c1, conjugate=True)


def mellin_component(tf: TestFunction, g: Mat):
    """The symbolic-in-s component of tf at g, as a monomial in the
    half-powers of T, or None when it vanishes.

    Only one diagonal coset contributes (the support pins the a-part), so
    the a-integral collapses: the monomial records the inverse character
    (delta_U^{1/2} |.|^s)^{-1} at that coset and the cyclotomic phase of
    the function there.  The normalization c1 is *not* folded in; read it
    off tf.c1.
    """
    ctx = tf.ctx
    p, m, n = ctx.p, ctx.m, tf.N
    dec = iwasawa_UAK(tf.shift_mat() @ g)
    kval = _explicit_on_K(dec.k, ctx, tf.theta)
    if kval is None:
        return None
    phase = kval.conj() if tf.conjugate else kval
    vals = [-valuation(d, p) for d in dec.a.diagonal()]
    if any(v % m for v in vals):
        raise ValueError("a-part exponent off the half-power lattice")
    expo = tuple(v // m for v in vals)
    w = -sum(vals[i] - vals[j] for i in range(n) for j in range(i + 1, n))
    if w % (2 * m):
        raise ValueError("modular character off the half-power lattice")
    return MellinMonomial(phase, expo, w // (2 * m))


def _explicit_on_K(k: Mat, ctx: DepthContext, theta) -> CycValue | None:
    n, p, m = k.n, ctx.p, ctx.m
    for i in range(n):
        for j in range(i + 1, n):
            x = k[i, j]
            if x != 0 and valuation(x, p) < m:
                return None
    low = Mat([[k[i, j] if i >= j else Fraction(0) for j in range(n)]
               for i in range(n)], p)
    return chi_tau_eval(theta, low.inv() @ k)
