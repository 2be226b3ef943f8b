"""Transform, local integrals, and support laws of the concentrated class."""

from fractions import Fraction

import pytest

from padiczeta.arith import DepthContext, certify
from padiczeta.group import Mat, SubgroupSpec, enumerate_cosets
from padiczeta.rslocal import (
    BOX_CAP,
    BOX_START,
    D_P_exponent,
    D_P_value,
    EClassElement,
    Q_P,
    QP_nonvanishing_check,
    W_fcg,
    abs_det,
    certify_E_class,
    denominator_scan,
    pinned_outer_diagonal,
    qp_bound_rhs,
    standard_E_element,
    support_scan_table,
)
from padiczeta.rslocal import (
    WValue,
    _coeff,
    _transform_values_over_K,
    _w_cell_data,
)
from padiczeta.testfn import translate_for_H
from paper_checks import w_support_violated
from twins import dual_element, w_direct

CTX21 = DepthContext(2, 1)
CTX31 = DepthContext(3, 1)
CTX22 = DepthContext(2, 2)

F2 = standard_E_element(CTX21, 2)
F3 = standard_E_element(CTX21, 3)


def central_c(ctx, n):
    # the central point |c_i| = T^{(n-1)/2} sitting on the support law
    # boundary D |det c| = T^{n(n-1)/2}
    return Mat.diag([Fraction(1, ctx.p ** (ctx.m * (n - 1)))] * n, ctx.p)


def k_transversal(ctx, n):
    return enumerate_cosets(SubgroupSpec("K", n, ctx.p), ctx.m)


def test_class_membership_certified():
    for ctx, n in [(CTX21, 2), (CTX31, 2), (CTX22, 2), (CTX21, 3)]:
        f = standard_E_element(ctx, n)
        assert f.norm_sq == 1
        # the support profile has unit determinant modulus: D = T^0
        assert sum(f.support_profile()) == 0
    # duality preserves the class
    for ctx, n in [(CTX21, 2), (CTX31, 2), (CTX21, 3)]:
        fd = dual_element(ctx, n)
        certify_E_class(fd)
        assert fd.norm_sq == 1
        assert fd != standard_E_element(ctx, n)


def test_class_certification_rejects_bad_norm():
    bad = EClassElement(translate_for_H(CTX21, 2), Fraction(0))
    with pytest.raises(ValueError):
        certify_E_class(bad)


def test_transform_nonzero_on_pinned_coset():
    c = central_c(CTX21, 2)
    a, ev = pinned_outer_diagonal(F2, c)
    assert ev == (-2, 0)
    nz = sum(not W_fcg(F2, c, a, k).is_zero()
             for k in k_transversal(CTX21, 2))
    assert nz == 4
    w = W_fcg(F2, c, a, k_transversal(CTX21, 2)[0])
    assert w.coeff.is_positive()


def test_transform_dual_element_evaluates():
    # the dual has no cells: its transform is the cell-by-cell twin,
    # certified over the unipotent box as `W_fcg` certifies its own
    fd = dual_element(CTX21, 2)
    c = central_c(CTX21, 2)
    a, _ = pinned_outer_diagonal(F2, c)
    vals = [certify(((B, w_direct(fd, c, a, k, B).phase)
                     for B in range(BOX_START, BOX_CAP + 1)),
                    "no stabilization", "box_cap", BOX_CAP, BOX_CAP)[1][1]
            for k in k_transversal(CTX21, 2)]
    assert any(not v.is_zero() for v in vals)


def test_simple_root_support_law_exhaustive():
    # W(f,c,ak) = 0 for every k once some a_i/a_{i+1} leaves q^{-2}:
    # honest transform evaluation, no pruning
    c = central_c(CTX21, 2)
    for e in (-5, -4, -3, 1, 2):
        a = Mat.diag([Fraction(2) ** e, Fraction(1)], 2)
        if e >= -2:
            assert not w_support_violated(CTX21, a)
            continue
        assert w_support_violated(CTX21, a)
        for k in k_transversal(CTX21, 2):
            assert W_fcg(F2, c, a, k).is_zero()


def test_det_matching_and_outer_pinning():
    # nonvanishing forces |det a| = |det c| (D = 1), and in fact the whole
    # outer diagonal is pinned: off the pinned point no cell survives
    c = central_c(CTX21, 2)
    _, ev = pinned_outer_diagonal(F2, c)
    for e in range(-5, 4):
        a = Mat.diag([Fraction(2) ** e, Fraction(1)], 2)
        cells = _w_cell_data(F2, c, a, 4, 0)
        if (e, 0) == ev:
            assert cells
            assert abs_det(CTX21, a) == abs_det(CTX21, c)
        else:
            assert not cells


def test_transform_right_character_equivariance():
    # values on a k r, r in K(q), differ from a k by the congruence
    # character only, so |W|^2 is right K(q)-invariant
    c = central_c(CTX21, 2)
    a, _ = pinned_outer_diagonal(F2, c)
    cells = _w_cell_data(F2, c, a, 3, 0)
    coeff = _coeff(F2, c)
    for k in k_transversal(CTX21, 2)[:3]:
        [phase] = _transform_values_over_K(F2, cells, [k])
        base = WValue(coeff, phase)
        for r in enumerate_cosets(SubgroupSpec("Kq", 2, 2, 1), 2)[:4]:
            [phase] = _transform_values_over_K(F2, cells, [k @ r])
            shifted = WValue(coeff, phase)
            assert (shifted.phase.abs_sq() * shifted.coeff.squared()
                    == base.phase.abs_sq() * base.coeff.squared())


def test_stabilization_certificate_required(monkeypatch):
    from padiczeta import rslocal

    c = central_c(CTX21, 2)
    a, _ = pinned_outer_diagonal(F2, c)
    k = k_transversal(CTX21, 2)[0]
    monkeypatch.setattr(rslocal, "BOX_START", 0)
    monkeypatch.setattr(rslocal, "BOX_CAP", 0)
    with pytest.raises(RuntimeError):
        W_fcg(F2, c, a, k)


def test_transform_refuses_k_outside_K():
    # the cells are read at k mod q^2, which is the transform at k only
    # for k in K: a k of non-unit determinant, or not integral, raises.
    # det 2 is not zero mod q^2 = 4, only mod p; diag(1/2, 2) has det 1
    c = central_c(CTX21, 2)
    a, _ = pinned_outer_diagonal(F2, c)
    for k in (Mat([[6, 7], [4, 6]], 2), Mat([[1, 0], [1, 2]], 2),
              Mat([[Fraction(1, 2), 0], [0, 1]], 2),
              Mat.diag([Fraction(1, 2), Fraction(2)], 2)):
        with pytest.raises(ValueError, match="k must lie in K"):
            W_fcg(F2, c, a, k)


def test_Q_values_rank2():
    c = central_c(CTX21, 2)
    q = Q_P(F2, c, 0)
    assert q == Fraction(1, 2)
    # the bound ratio Q * D * |det c| sits below T^{n(n-1)/2}
    assert q * abs_det(CTX21, c) == 2 <= CTX21.T
    assert Q_P(F2, Mat.identity(2, 2), 0) == 0


def test_Q_rejects_bad_arguments():
    c = central_c(CTX21, 2)
    with pytest.raises(ValueError):
        Q_P(F2, c, nprime=1)


def test_Q_depth_two():
    ctx = CTX22
    f = standard_E_element(ctx, 2)
    c = central_c(ctx, 2)
    q = Q_P(f, c, 0)
    assert q > 0
    assert q * abs_det(ctx, c) <= Fraction(ctx.T)


def test_support_scan_table_rank2():
    tab = support_scan_table(F2, range(-2, 3))
    assert tab["violations"] == []
    assert tab["nonzero"] == 1
    assert tab["ratio_max"] == 2
    assert tab["bound_rhs"] == CTX21.T


def test_support_scan_table_p3():
    ctx = DepthContext(3, 1)
    f = standard_E_element(ctx, 2)
    tab = support_scan_table(f, range(0, 3))
    assert tab["violations"] == []
    assert tab["nonzero"] >= 1
    assert tab["ratio_max"] <= tab["bound_rhs"]


def test_Q_rank3_central():
    c = central_c(CTX21, 3)
    q = Q_P(F3, c, 0)
    assert q == Fraction(1, 16)
    # boundary of the support law: D |det c| = T^3 exactly
    assert abs_det(CTX21, c) == Fraction(CTX21.T) ** 3
    assert q * abs_det(CTX21, c) == 4


def test_D_P_oracles():
    assert D_P_exponent(3, 1) == 2          # D_P = T
    assert D_P_value(CTX21, 3, 1) == CTX21.T
    assert D_P_exponent(3, 3) == 0          # n' = n: empty product
    assert D_P_exponent(2, 0) == 0          # full Weyl at rank 2: T^0
    assert D_P_value(CTX22, 2, 0) == 1
    assert qp_bound_rhs(CTX21, 3, 1) == CTX21.T


def test_QP_nonvanishing_rank3():
    rep = QP_nonvanishing_check(F3, 1, range(-1, 4))
    assert rep["violations"] == []
    assert rep["nonzero_inside"] == 2
    assert rep["D_P"] == CTX21.T
    nz = {r["block_exponents"]: r for r in rep["rows"] if r["value"] != 0}
    # a strictly interior point and the boundary point of the region
    assert nz[(-1, -1)]["value"] == Fraction(1, 4)
    assert nz[(0, 0)]["value"] == Fraction(1, 2)
    assert nz[(0, 0)]["bound_lhs"] == rep["bound_rhs"]


def test_QP_degenerate_block_rank2():
    # lower block of size one: empty unipotent integral, bound T^0
    rep = QP_nonvanishing_check(F2, 1, range(-1, 3))
    assert rep["violations"] == []
    assert rep["bound_rhs"] == 1


def test_denominator_scan_rank2():
    rep = denominator_scan(F2)
    assert rep["max_e"] == 1            # |c_i| up to p^{m(n-1)} only
    assert rep["empirical_d"] == Fraction(1, 2)


def test_denominator_scan_rank3():
    rep = denominator_scan(F3)
    assert rep["max_e"] == 2
    assert rep["empirical_d"] == 1


def test_parabolic_Q_builds_each_cell_set_once(monkeypatch):
    """The outer-diagonal search hands its cells to the box sum instead of
    letting it rebuild them."""
    from padiczeta import rslocal

    built = []
    real = rslocal._w_cell_data

    def counting(f, c, a, B, nprime=0):
        built.append((a.to_text(), B, nprime))
        return real(f, c, a, B, nprime)

    monkeypatch.setattr(rslocal, "_w_cell_data", counting)
    assert Q_P(F3, Mat.identity(3, 2), 1) == Fraction(1, 2)
    assert len(built) == len(set(built)) == 2


def test_standard_element_is_certified_once(monkeypatch):
    from padiczeta import rslocal

    ctx = DepthContext(3, 1)
    certified = []
    real = rslocal.certify_E_class

    def counting(elem):
        certified.append(elem)
        return real(elem)

    rslocal.standard_E_element.cache_clear()
    monkeypatch.setattr(rslocal, "certify_E_class", counting)
    first = standard_E_element(ctx, 2)
    assert standard_E_element(ctx, 2) is first
    assert len(certified) == 1
    assert standard_E_element(CTX21, 2) is not first
    assert len(certified) == 2


def test_failed_certification_is_not_remembered(monkeypatch):
    from padiczeta import rslocal

    ctx = DepthContext(3, 1)
    real = rslocal.certify_E_class

    def failing(elem):
        raise ValueError("injected certification failure")

    rslocal.standard_E_element.cache_clear()
    monkeypatch.setattr(rslocal, "certify_E_class", failing)
    with pytest.raises(ValueError, match="injected"):
        standard_E_element(ctx, 2)
    monkeypatch.setattr(rslocal, "certify_E_class", real)
    assert standard_E_element(ctx, 2).norm_sq == 1
