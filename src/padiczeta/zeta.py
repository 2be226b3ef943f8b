"""The local zeta value of the distinguished pair (W, f[s]) on H = GL_n.

Both sides of the computation are finite and exact.  The unipotent
transform of the translated test function at the antidominant point a_T,

    Wf[s](a_T) = integral over N_H of f[s](n a_T) psi(n) dn,

is a sum over the stretched congruence unipotents a_T K_N(q) a_T^{-1}; on
every cell the two oscillating characters cancel, so the transform equals
the cell count times the cell volume, a pure power of T times the
normalization c1.  The zeta value is then

    Z = Wf[s](a_T) * sqrt(vol(N_H \\ N_H a_T K_H(q))),

a positive constant times T^{(n+1) tr(s)/2 - n^2/4}.

The direct route recomputes Z as the honest double sum over K_H(q)/K_H(q^2)
and the unipotent cells u in K_N(q)/K_N(q^2), pairing the Whittaker vector
against the transform pointwise; the product is N_H-invariant and right
K(q^2)-invariant, so level q^2 is exact.  As y and u y lie in K(q) and the
translated a_T is central, both phases of a term are mod-q^2 eliminations
on integer rows: no Iwasawa, no Fractions, no per-term code shared with
the explicit route.  The W phase is read once per y
(`WhittakerOnH.kq_exponent_mod`) into a table in the order of the
identity box's columns.  The f phase is read by a column walk: column j
of u y = u (1 + q X) depends only on column j of X, so per cell u the
products are walked depth first over their column candidates, one
left-looking (Crout) LU step mod q^2 per column, by the walk that the
convolution at integral points runs (`testfn._crout_walk`), and each
leaf is counted as its own term.  Every u y is u mod q, so the support
test and the unit-pivot test of the f kernel are made once per cell, on
u itself.

The parameter enters through conjugation transport: every uniform tau is
conjugate over the integers to the companion matrix of its characteristic
polynomial, whose upper-left block is the standard nilpotent pattern, and
the whole construction is carried along the conjugation; zeta_for_parameter
certifies the transport and returns the (parameter-free) standard value.
A would-be shortcut -- keeping the standard kernel and merely twisting the
right character to chi_tau -- dies by orthogonality: the projection of the
kernel onto a different congruence character vanishes identically on K(q).

The volume lemma suite records the three volume comparisons feeding the
exponent count: each left side equals its reference T-power times a
constant that is independent of the depth m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arith import (
    CycSum,
    CycValue,
    DepthContext,
    MellinMonomial,
    SqrtRational,
    psi_T,
    valuation,
)
from .group import (
    Mat,
    SubgroupSpec,
    box_columns,
    enumerate_cosets,
    gl_order,
    haar_volume,
    modular_delta,
    open_cell_density,
)
from .params import TauParam
from .testfn import (TestFunction, _crout_walk, _unit_inverses,
                     mellin_component, translate_for_H)
from .whitmodel import WhittakerOnH, a_T_element, vol_support_quotient


def fiber_volume(ctx: DepthContext, n: int) -> Fraction:
    """vol(a_T K_N(q) a_T^{-1}): the stretch multiplies each entry volume
    by a T-power, with total the unipotent modular character at a_T."""
    aT = a_T_element(ctx, n)
    return modular_delta(aT) * haar_volume(
        SubgroupSpec("KN", n, ctx.p, ctx.m))


@dataclass(frozen=True)
class ZetaResult:
    """Z = c * T^{(sum_i exponents[i] s_i + offset)/2}, with c an exact
    positive square root of a rational.  Exponents are in T^{1/2}-units."""

    exponents: tuple
    offset: int
    c: SqrtRational
    route: str

    def closed_form_constant(self, ctx: DepthContext, n: int) -> Fraction:
        """c^2 * T^{n^2/2}: rational, positive, and depth-independent when
        the closed form Z = const * T^{(n+1)tr(s)/2 - n^2/4} holds."""
        return self.c.squared() * Fraction(ctx.p) ** (ctx.m * n * n)

    def agrees_with(self, other: "ZetaResult") -> bool:
        return (self.exponents == other.exponents
                and self.offset == other.offset
                and self.c.sign == other.c.sign
                and self.c.radicand == other.c.radicand)


def _central_exponents(tf: TestFunction, aT: Mat):
    """Exponent data of the a-part of (translation * a_T), which is central;
    this is the only diagonal coset meeting the support of f."""
    ctx = tf.ctx
    d = (tf.shift_mat() @ aT).diagonal()
    if any(x != d[0] for x in d):
        raise ArithmeticError("translated a_T must be central")
    vals = [-valuation(x, ctx.p) for x in d]
    if any(v % ctx.m for v in vals):
        raise ArithmeticError("central exponent off the depth lattice")
    return tuple(v // ctx.m for v in vals)


def whittaker_transform_at_aT(ctx: DepthContext, n: int):
    """The transform at the antidominant point itself, as (monomial, c1).

    Wf[s](a_T) = integral over N_H of f[s](n a_T) psi(n) dn is an exact
    finite sum.  Substituting n = a_T u a_T^{-1} confines u to the
    congruence unipotents, and each level-q^2 cell carries the constant
    value f[s](a_T u) psi(a_T u a_T^{-1}) times the stretched cell volume.
    Conjugation by a_T scales every superdiagonal entry by Ttilde, so
    psi(a_T u a_T^{-1}) = psi_T(u).  Every cell meeting the support has
    the central exponents (and so one offset), so the cells sum to one
    monomial, whose coefficient is collected in one `CycSum`.

    The honest cell sum is evaluated and checked against the closed form:
    scalar = vol(a_T K_N(q) a_T^{-1}), exponent n+1 per Mellin coordinate.
    """
    tf = translate_for_H(ctx, n)
    aT = a_T_element(ctx, n)
    dim_n = n * (n - 1) // 2
    cell = modular_delta(aT) * Fraction(1, ctx.p ** (2 * ctx.m * dim_n))
    exps = _central_exponents(tf, aT)
    total, off = CycSum(), None
    for u in enumerate_cosets(SubgroupSpec("KN", n, ctx.p, ctx.m),
                              2 * ctx.m):
        psi_val = psi_T(u.superdiagonal_sum(), ctx)
        mono = mellin_component(tf, aT @ u)
        if mono is None:
            continue
        if mono.exponents != exps:
            raise ArithmeticError("cell monomial off the central exponents")
        total.add(psi_val * cell * mono.scalar)
        off = mono.offset
    coeff = total.value()
    if coeff.is_zero():  # also when no cell meets the support
        raise ArithmeticError("transform must be a single monomial")
    scalar = coeff.as_rational()
    if scalar is None or scalar != fiber_volume(ctx, n):
        raise ArithmeticError("transform scalar must be the fiber volume")
    if exps != tuple(n + 1 for _ in range(n)) or off != 0:
        raise ArithmeticError("transform exponents must be n + 1, offset 0")
    return MellinMonomial(scalar, exps, off), tf.c1


def zeta_explicit(ctx: DepthContext, n: int) -> ZetaResult:
    """The construction route: transform at a_T times the square root of
    the support volume in N_H\\H."""
    mono, c1 = whittaker_transform_at_aT(ctx, n)
    c = c1 * mono.scalar * SqrtRational.sqrt(vol_support_quotient(ctx, n))
    return ZetaResult(mono.exponents, mono.offset, c, "explicit")


def _direct_counts(tf: TestFunction, W: WhittakerOnH) -> list:
    """The histogram of T = q^2 ints of the direct double sum: one count
    per term (y, u) under its exponent w(y) + s(u) -/+ f(u y) mod T (see
    `zeta_direct`).

    y runs over 1 + X, X in q M_n mod q^2, and column j of u y = u (1 + X)
    depends only on column j of X.  So per cell u the q^n candidates of
    each column of u y are built once (`group.box_columns`, with zero
    shares), and the q^{n^2} products are walked depth first, one
    left-looking LU step mod q^2 per column, by the walk that the
    convolution runs (`testfn._crout_walk`): at each parent of the last
    column it hands over the prefix exponent e and the linear form that
    takes the last column to the last summand, and each leaf is counted
    on its own, e plus that form at the leaf being f(u y) of
    `_explicit_exponent_mod`.  w(y) = `WhittakerOnH.kq_exponent_mod(y)` is
    read once per y, by its own elimination, into a table in the walk's
    product order, built from the identity box's columns.

    Every u y = u mod q, as y = 1 mod q.  So the two tests of
    `_explicit_exponent_mod` are made once per cell, on u itself: its
    support test reads the upper entries of u y mod q, which are those of
    u; and when they vanish, u y is lower triangular mod q, so its pivots
    (each leading minor over the one before) are its diagonal entries mod
    q, which are those of u.  A cell that fails skips all its terms."""
    ctx, n = tf.ctx, tf.N
    p, q, T = ctx.p, ctx.q, ctx.T
    sign = -1 if tf.conjugate else 1
    inverse = _unit_inverses(p, T)
    coords = [(i, j) for i in range(n) for j in range(n)]
    ranges = [range(0, T, q)] * len(coords)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    # the members 1 + X of the identity box as column tuples, in the
    # walk's product order
    ys = [()]
    for table in box_columns(ident, 1, [1] * n, coords, ranges, {}):
        ys = [y + (col,) for y in ys for col, _ in table]
    wy = [W.kq_exponent_mod(list(zip(*y))) for y in ys]
    if None in wy:
        raise ArithmeticError("K(q) points lie on the support")
    counts = [0] * T
    for u in enumerate_cosets(SubgroupSpec("KN", n, p, ctx.m), 2 * ctx.m):
        z = u.num
        if any(z[i][j] % q for i in range(n) for j in range(i + 1, n)) \
                or any(not z[i][i] % p for i in range(n)):
            continue
        s = int(u.superdiagonal_sum())
        *tables, last = box_columns(z, 1, [1] * n, coords, ranges, {})
        leaves = [col[:n - 1] for col, _ in last]

        def leaf(weights, e, idx):
            base = s + sign * e
            at = idx * len(leaves)
            for w, col in zip(wy[at:at + len(leaves)], leaves):
                counts[(w + base + sign * sum(map(mul, weights, col)))
                       % T] += 1

        _crout_walk(tables, inverse, T, leaf)
    return counts


def zeta_direct(ctx: DepthContext, n: int) -> ZetaResult:
    """The definitional route: the pairing of W against the transform over
    N_H\\H, as the exact double sum at level q^2.

    The integrand W(h) Wf[s](h) is N_H-invariant, supported on the image of
    a_T K_H(q), and constant on right K_H(q^2)-cosets, so

        Z = vol(fiber)^{-1} vol(K_H(q^2)) sum_{y in K_H(q)/K_H(q^2)} G(a_T y),

    and the transform at a_T y sums psi_T(u) f[s](a_T u y) over the cells
    u in K_N(q)/K_N(q^2), each of volume vol(fiber) / q^{dim N}.  As y and
    u y lie in K(q) and the translated a_T is central (`_central_exponents`:
    it is the Iwasawa a-part of every term, with trivial modular character,
    so offset 0), each term is a root of unity with exponent mod T = q^2
    w(y) + s(u) -/+ f(u y): w = `WhittakerOnH.kq_exponent_mod`, read once
    per y into a table; s the superdiagonal sum of u (psi_T(u)); and f the
    exponent of `_explicit_exponent_mod` at u y, negated when tf.conjugate.
    f is read by a depth-first column walk over the products u y of each
    cell, with the support and pivot tests made once per cell, on u
    (`_direct_counts`).  Every term is evaluated on its own and counted in
    a histogram of exponents, which becomes one value at the end.
    """
    tf = translate_for_H(ctx, n)
    W = WhittakerOnH(ctx, n)
    exps = _central_exponents(tf, W.a_T)
    counts = _direct_counts(tf, W)
    # vol(K_H(q^2)) / vol(fiber) times the cell volume vol(fiber) / q^{dim N}
    total = CycValue.from_histogram(
        counts, haar_volume(SubgroupSpec("Kq", n, ctx.p, 2 * ctx.m))
        / ctx.q ** (n * (n - 1) // 2))
    if total.is_zero():
        raise ArithmeticError("zeta must be a single monomial")
    scalar = total.as_rational()
    if scalar is None:
        raise ArithmeticError("zeta constant must be rational before roots")
    c = W.peak * tf.c1 * scalar
    return ZetaResult(exps, 0, c, "direct")


def zeta_for_parameter(ctx: DepthContext, tau: TauParam) -> ZetaResult:
    """The zeta value attached to a uniform parameter.

    The parameter is certified uniform and conjugated into companion form;
    the construction transports along the conjugation, so the value is the
    standard one -- in particular the constant depends only on (rank, p, m),
    not on tau.  The transport is re-verified on the returned certificate.
    """
    from .params import conjugate_to_standard_cyclic, is_uniform

    if not is_uniform(tau):
        raise ValueError("parameter must be uniform (cyclic, unit)")
    g, std = conjugate_to_standard_cyclic(tau)
    if g @ tau.mat @ g.inv() != std.mat:
        raise ArithmeticError("conjugation does not transport tau to "
                              "companion form")
    zr = zeta_explicit(ctx, tau.n)
    return ZetaResult(zr.exponents, zr.offset, zr.c, "transported")


def volume_lemma_suite(ctx: DepthContext, n: int) -> dict:
    """The three volume comparisons and the final collapse, each as
    lhs = constant * reference with the constant depth-independent.

    1. the support volume in N_H\\H against delta_N^{-1}(a_T) T^{-n(n+1)/4};
    2. the squared normalization c1^2 against delta_N^{-1} of the
       translation times T^{n(n-1)/4};
    3. the unipotent fiber volume against delta_N(a_T) T^{-n(n-1)/4}
       (constant exactly one);
    finally the zeta constant: c^2 T^{n^2/2} depends only on (n, p).
    """
    p, m = ctx.p, ctx.m
    sqT = Fraction(ctx.q)
    aT = a_T_element(ctx, n)
    tf = translate_for_H(ctx, n)
    items = []

    lhs1 = vol_support_quotient(ctx, n)
    ref1 = (1 / modular_delta(aT)) * sqT ** (-(n * (n + 1)) // 2)
    expect1 = Fraction(p ** (n * n), gl_order(n, p, 1))
    items.append({"name": "support-volume", "lhs": lhs1, "reference": ref1,
                  "constant": lhs1 / ref1,
                  "depth_free": lhs1 / ref1 == expect1})

    lhs2 = tf.c1.squared()
    ref2 = (1 / modular_delta(tf.shift_mat().inv())) \
        * sqT ** (n * (n - 1) // 2)
    expect2 = 1 / open_cell_density(n, p)
    items.append({"name": "normalization", "lhs": lhs2, "reference": ref2,
                  "constant": lhs2 / ref2,
                  "depth_free": lhs2 / ref2 == expect2})

    lhs3 = fiber_volume(ctx, n)
    ref3 = modular_delta(aT) * sqT ** (-(n * (n - 1)) // 2)
    items.append({"name": "fiber-volume", "lhs": lhs3, "reference": ref3,
                  "constant": lhs3 / ref3,
                  "depth_free": lhs3 / ref3 == 1})

    zr = zeta_explicit(ctx, n)
    final = zr.closed_form_constant(ctx, n)
    expect_final = expect1 * expect2
    items.append({"name": "zeta-collapse", "lhs": zr.c.squared(),
                  "reference": Fraction(p) ** (-m * n * n),
                  "constant": final, "depth_free": final == expect_final})

    return {"rank": n, "p": p, "m": m, "items": items,
            "all_ok": all(it["depth_free"] for it in items)}
