"""Two exact routes to the local zeta value, and the volume bookkeeping."""

from fractions import Fraction

import pytest

from padiczeta.arith import CycValue, DepthContext, MellinMonomial
from padiczeta.group import SubgroupSpec, enumerate_cosets, gl_order
from padiczeta.params import companion_matrix, theta_matrix
from padiczeta.zeta import (
    ZetaResult,
    fiber_volume,
    volume_lemma_suite,
    whittaker_transform_at_aT,
    zeta_direct,
    zeta_explicit,
    zeta_for_parameter,
)
from twins import per_term_convolution

CTX21 = DepthContext(2, 1)
CTX31 = DepthContext(3, 1)
CTX22 = DepthContext(2, 2)

INSTANCES = [(CTX21, 1), (CTX21, 2), (CTX31, 1), (CTX31, 2),
             (CTX22, 1), (CTX22, 2)]


def test_fiber_volume_values():
    # rank 2, p=2, m=1: delta_N(a_T) = T = 4, cell 1/2
    assert fiber_volume(CTX21, 2) == 2
    assert fiber_volume(CTX21, 1) == 1
    # p=3, m=1: T = 9, delta_N(a_T) = 9, cell 1/3
    assert fiber_volume(CTX31, 2) == 3


def test_transform_closed_form():
    # the honest cell sum collapses: uniform exponent n+1 per Mellin
    # coordinate and scalar the stretched-unipotent volume
    for ctx, n in INSTANCES:
        mono, c1 = whittaker_transform_at_aT(ctx, n)
        assert mono.exponents == tuple(n + 1 for _ in range(n))
        assert mono.offset == 0
        assert mono.scalar == fiber_volume(ctx, n)
        assert c1.is_positive()


@pytest.mark.parametrize("ctx,n", INSTANCES)
def test_routes_agree_exactly(ctx, n):
    ze = zeta_explicit(ctx, n)
    zd = zeta_direct(ctx, n)
    assert ze.agrees_with(zd)
    assert ze.c.is_positive()


def test_exponent_identity():
    # Z = c T^{(n+1) tr(s)/2 - n^2/4}: per-coordinate exponent n+1 in
    # half-T units, and the constant offset sits inside c as T^{-n^2/4}
    for ctx, n in INSTANCES:
        z = zeta_explicit(ctx, n)
        assert z.exponents == tuple(n + 1 for _ in range(n))
        assert z.offset == 0
        const = z.closed_form_constant(ctx, n)
        assert const > 0


def test_constant_depth_independent():
    # c^2 T^{n^2/2} is the same at depths m = 1 and m = 2
    for n in (1, 2):
        c1 = zeta_explicit(CTX21, n).closed_form_constant(CTX21, n)
        c2 = zeta_explicit(CTX22, n).closed_form_constant(CTX22, n)
        assert c1 == c2


def test_constant_rational_square():
    # c > 0 with c^2 rational; specific values pinned as oracles
    assert zeta_explicit(CTX21, 2).c.squared() == Fraction(1, 4)
    assert zeta_explicit(CTX31, 2).c.squared() == Fraction(1, 36)
    assert zeta_explicit(CTX21, 1).c.squared() == 1
    # rank 2, s = 0, p=2, m=1: the value 1/2 = 2 * T^{-1}, exponent -1
    # in T-units up to the depth-free constant
    z = zeta_explicit(CTX21, 2)
    assert z.c.sign == 1 and z.c.squared() == Fraction(1, 4)


def test_parameter_transport():
    # uniform parameters of either characteristic polynomial transport to
    # the same standard value
    base = zeta_explicit(CTX21, 2)
    for coeffs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        tau = companion_matrix(coeffs, CTX21)
        zt = zeta_for_parameter(CTX21, tau)
        assert zt.agrees_with(base)
        assert zt.route == "transported"
    # non-uniform parameters are refused
    with pytest.raises(ValueError):
        zeta_for_parameter(CTX21, theta_matrix(2, CTX21))


def test_twisted_projection_vanishes_on_congruence():
    # projecting the standard kernel onto a different congruence character
    # kills it on K(q) outright -- this is why the parameter dependence
    # must go through conjugation transport rather than a character swap
    tau = companion_matrix([1, 1], CTX21)
    for k in enumerate_cosets(SubgroupSpec("Kq", 2, 2, 1), 2):
        assert per_term_convolution(k, CTX21, tau).is_zero()


def test_volume_lemma_suite():
    for ctx, n in INSTANCES:
        suite = volume_lemma_suite(ctx, n)
        assert suite["all_ok"]
        by_name = {it["name"]: it for it in suite["items"]}
        assert by_name["fiber-volume"]["constant"] == 1
        assert by_name["support-volume"]["constant"] == \
            Fraction(ctx.p ** (n * n), gl_order(n, ctx.p, 1))
        assert (by_name["support-volume"]["lhs"]
                == by_name["support-volume"]["constant"]
                * by_name["support-volume"]["reference"])


def test_result_value_semantics():
    a = zeta_explicit(CTX21, 2)
    b = ZetaResult(a.exponents, a.offset, a.c, "other")
    assert a.agrees_with(b)


def test_zeta_invariant_raises_when_transform_splits(monkeypatch):
    """An f-side column walk that reaches no term leaves a zero sum, which
    breaks the single-monomial invariant of the direct route; it raises
    ArithmeticError, so it holds even under python -O."""
    from padiczeta import zeta

    monkeypatch.setattr(zeta, "_crout_walk",
                        lambda tables, inverse, T, leaf: None)
    with pytest.raises(ArithmeticError, match="single monomial"):
        zeta_direct(CTX21, 2)


def test_zeta_invariant_raises_when_constant_is_irrational(monkeypatch):
    """An f-side column walk whose one parent gets the prefix exponent 1
    at rank 1, where the leaves add nothing and every W phase is 1, makes
    the sum q zeta_T^{-1}: not rational, so the direct route raises
    ArithmeticError, even under python -O."""
    from padiczeta import zeta

    monkeypatch.setattr(zeta, "_crout_walk",
                        lambda tables, inverse, T, leaf: leaf([], 1, 0))
    with pytest.raises(ArithmeticError, match="rational before roots"):
        zeta_direct(CTX21, 1)


def test_explicit_invariant_raises_when_no_cell_meets_the_support(
        monkeypatch):
    """With no cell on the support the explicit cell sum holds no
    monomial, which breaks its single-monomial invariant; it raises
    ArithmeticError, so it holds even under python -O."""
    from padiczeta import zeta

    monkeypatch.setattr(zeta, "mellin_component", lambda tf, g: None)
    with pytest.raises(ArithmeticError, match="single monomial"):
        whittaker_transform_at_aT(CTX21, 2)
    with pytest.raises(ArithmeticError, match="single monomial"):
        zeta_explicit(CTX21, 2)


def test_explicit_invariant_raises_off_the_central_exponents(monkeypatch):
    """A cell whose monomial has other exponents than the central ones
    would make the cell sum more than one monomial; the explicit route
    raises ArithmeticError on it, even under python -O."""
    from padiczeta import zeta

    monkeypatch.setattr(zeta, "mellin_component",
                        lambda tf, g: MellinMonomial(CycValue.one, (0, 0)))
    with pytest.raises(ArithmeticError, match="central exponents"):
        whittaker_transform_at_aT(CTX21, 2)
