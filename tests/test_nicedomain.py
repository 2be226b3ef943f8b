"""Slope cells, the two-parameter move, and exact character-sum vanishing."""

from fractions import Fraction

import pytest

from padiczeta import nicedomain
from padiczeta.arith import DepthContext
from padiczeta.group import Mat, SubgroupSpec, enumerate_cosets
from padiczeta.nicedomain import (
    NiceDomain,
    _cell_keys,
    classify,
    conj_by_A,
    decompose_region,
    hypothesis_diagonal,
    rho0_report,
    scan_box_domains,
    vanishing_check,
    verify_partition,
)
from padiczeta.rslocal import standard_E_element
from paper_checks import (
    A_rho,
    cell_volume,
    h_invariance_check,
    h_right_invariance_level,
    iwasawa_minor_bound_check,
    measure_preservation_check,
    minor_bound_sample_suite,
    q1_q2_construct,
    q1_q2_properties,
    representative,
    vanishing_mechanism_report,
)
from twins import sampled_domains

CTX21 = DepthContext(2, 1)
F2 = standard_E_element(CTX21, 2)
F3 = standard_E_element(CTX21, 3)
A2 = hypothesis_diagonal(CTX21, 2)
KREPS2 = enumerate_cosets(SubgroupSpec("K", 2, 2), 1)
SLOPE0_2 = NiceDomain(2, 2, 0, 0, None, None)


def test_dilation_matrix():
    assert A_rho(0, 3, 2) == Mat.identity(3, 2)
    assert A_rho(1, 3, 2) == Mat.diag([Fraction(4), Fraction(2),
                                       Fraction(1)], 2)
    g = Mat([[Fraction(1), Fraction(1, 2), Fraction(3)],
             [Fraction(0), Fraction(1), Fraction(5, 4)],
             [Fraction(0), Fraction(0), Fraction(1)]], 2)
    c = conj_by_A(g, 2)
    for i in range(3):
        for j in range(3):
            assert c[i, j] == g[i, j] * Fraction(2) ** (2 * (j - i))
    assert A_rho(2, 3, 2) @ g @ A_rho(2, 3, 2).inv() == c


def test_classify_integral_is_slope_zero():
    u = Mat([[1, 3, 7], [0, 1, 2], [0, 0, 1]], 2)
    d = classify(u)
    assert (d.slope, d.remainder, d.base, d.pivot) == (0, 0, None, None)
    assert d.contains(u) and cell_volume(d) == 1


def test_classify_staircase_family():
    # entries (p^{-k+1}, p^{-2k+1}; p^{-k+2}) sit at slope k, remainder 1,
    # with the dilated coset pinned at valuations (1, 1; 2)
    p = 2
    for k in (1, 2, 3):
        u = Mat([[1, Fraction(1, p ** (k - 1)), Fraction(1, p ** (2 * k - 1))],
                 [0, 1, Fraction(p ** 2, p ** k)],
                 [0, 0, 1]], p)
        d = classify(u)
        assert (d.slope, d.remainder, d.pivot) == (k, 1, (0, 1))
        assert d.base == ((1, 2, 2), (0, 1, 4), (0, 0, 1))
        assert d.contains(u)


def test_classify_constant_on_cell():
    d = sampled_domains(3, 2, 4)[2]
    n, p = 3, 2
    for digits in [(0, 0, 0), (1, 0, 1), (3, 7, 5)]:
        rows = [list(r) for r in d.base]
        for (i, j), t in zip([(0, 1), (0, 2), (1, 2)], digits):
            rows[i][j] += p ** n * t
        u = conj_by_A(Mat(rows, p), -d.slope)
        assert classify(u) == d


def test_decompose_region_trivial_bound():
    doms = decompose_region(2, 2, 0)
    assert len(doms) == 1 and doms[0].slope == 0
    rep = verify_partition(2, 2, 0)
    assert rep["classes"] == 4 and rep["counts"] == [4]


def test_partition_rank2_bound2():
    rep = verify_partition(2, 2, 2)
    assert rep["disjoint"] and rep["covering"]
    assert rep["classes"] == 16 == sum(rep["counts"])
    assert rep["domain_count"] == 5


def test_partition_rank2_p3():
    rep = verify_partition(2, 3, 1)
    assert rep["classes"] == 27 == sum(rep["counts"])


def test_partition_rank3_bound1():
    rep = verify_partition(3, 2, 1)
    assert rep["disjoint"] and rep["covering"]
    assert rep["classes"] == 4096 == sum(rep["counts"])


def test_move_trivial_at_x_zero():
    d = scan_box_domains(2, 2, 6)[0]
    u = representative(d)
    q1, q2, wp, w = q1_q2_construct(d, u, 0)
    assert q1 == Mat.identity(2, 2) and w == u


def test_move_threshold_enforced():
    d = scan_box_domains(2, 2, 2)[0]  # slope 2 < remainder + 1 + rank
    with pytest.raises(ValueError):
        q1_q2_construct(d, representative(d), 1)


def test_move_congruence_properties():
    for d in (scan_box_domains(2, 2, 7)[0], sampled_domains(3, 2, 7)[3]):
        u = representative(d)
        for x in (1, 3):
            rep = q1_q2_properties(d, u, x)
            assert all(v is True for k, v in rep.items() if k != "q2_level")
            assert rep["q2_level"] == d.slope - d.remainder - 1


def test_move_row_scaling_case():
    # pivot on the superdiagonal: q1 is diagonal and the reduction is a
    # single row scaling; the shifted superdiagonal entry is exact
    d = sampled_domains(3, 2, 8)[0]
    i0, j0 = d.pivot
    assert j0 - i0 == 1
    u = representative(d)
    q1, q2, wp, w = q1_q2_construct(d, u, 1)
    up = conj_by_A(u, d.slope)
    inc = Fraction(2) ** (d.slope - d.remainder - 1) * up[i0, j0]
    assert wp[i0, i0 + 1] == up[i0, i0 + 1] + inc


def test_measure_preservation_finite_quotient():
    for d, x in [(scan_box_domains(2, 2, 7)[1], 1),
                 (sampled_domains(3, 2, 7)[0], 1),
                 (sampled_domains(3, 2, 7)[4], 3)]:
        rep = measure_preservation_check(d, x)
        assert rep["identity_on_residues"] and rep["bijection"]
        assert rep["residues"] == d.p ** (d.n * (d.n - 1) // 2)


def test_h_invariance_both_sides():
    rep = h_invariance_check(F2, (0, 0), A2, KREPS2[2])
    assert rep["left_checked"] == rep["right_checked"] == 5
    assert rep["depth"] == h_right_invariance_level(CTX21, A2) == 4
    h_invariance_check(F2, (1, -1), A2, KREPS2[0])


def test_vanishing_hypotheses_checked():
    bad = Mat.diag([Fraction(1), Fraction(1, 2)], 2)  # |a_n| != 1
    with pytest.raises(ValueError):
        vanishing_check(bad, KREPS2[0], (0, 0), SLOPE0_2, F2)


def test_vanishing_refuses_a_non_diagonal_a():
    # the cells of shift u a are read at k only for a diagonal a; this a
    # passes every other hypothesis
    u = Mat([[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(1)]], 2)
    with pytest.raises(ValueError, match="must be diagonal"):
        vanishing_check(A2 @ u, KREPS2[0], (0, 0), SLOPE0_2, F2)


@pytest.mark.parametrize("k", [
    Mat.diag([Fraction(1), Fraction(2)], 2),      # integral, det not a unit
    Mat.diag([Fraction(1, 2), Fraction(2)], 2),   # det 1, not integral
    Mat([[1, 2], [3, 2]], 2),                     # det -4, zero mod q^2
])
def test_vanishing_refuses_a_k_outside_K(k):
    # a k' k is the Iwasawa form of shift u a k only for k in K
    with pytest.raises(ValueError, match="k must lie in K"):
        vanishing_check(A2, k, (0, 0), SLOPE0_2, F2)


def test_slope_zero_generically_nonzero():
    vals = [vanishing_check(A2, k, (0, 0), SLOPE0_2, F2) for k in KREPS2]
    assert any(not v.is_zero() for v in vals)
    assert all(v.certified for v in vals)


def test_vanishing_rank2_slope5_exact_zero():
    for d in scan_box_domains(2, 2, 5):
        for k in KREPS2:
            cs = vanishing_check(A2, k, (0, 0), d, F2)
            assert cs.is_zero() and cs.certified


def test_rho0_rank2():
    rep = rho0_report(F2, k_count=6)
    assert rep["rho0"] == 3
    assert rep["max_nonzero_slope"] == 2
    assert rep["rho0"] <= 4 * rep["m"] + rep["rank"]
    # every tested cell at or above the threshold summed to exactly zero
    assert all(r["zero"] for r in rep["rows"] if r["slope"] >= rep["rho0"])


def test_rho0_sweeps_each_cell_once_per_level(cold_cell_keys, monkeypatch):
    # rho0_report reads each cell at k_count K-points, and the sweep of a
    # cell at its levels does not depend on k: from a cold cache, it is a
    # miss once per distinct (domain, levels) pair and a hit at every other
    # call, and the warm report equals the cold one
    seen = []

    def record(f, a, domain, levels):
        seen.append((f, a, domain, levels))
        return _cell_keys(f, a, domain, levels)

    monkeypatch.setattr(nicedomain, "_cell_keys", record)
    rep = rho0_report(F2, k_count=6)
    info = _cell_keys.cache_info()
    assert {(f, a) for f, a, _, _ in seen} == {(F2, A2)}
    pairs = {(domain, levels) for _, _, domain, levels in seen}
    assert (info.misses, info.hits) == (len(pairs), len(seen) - len(pairs))
    assert info.hits >= 5 * info.misses
    assert rho0_report(F2, k_count=6) == rep
    assert _cell_keys.cache_info().misses == info.misses


def test_rho0_rank2_p3():
    ctx = DepthContext(3, 1)
    rep = rho0_report(standard_E_element(ctx, 2), k_count=4)
    assert rep["rho0"] == 3 <= 4 * rep["m"] + rep["rank"]


def test_rho0_rank2_depth2():
    ctx = DepthContext(2, 2)
    rep = rho0_report(standard_E_element(ctx, 2), k_count=4)
    assert rep["rho0"] == 5 <= 4 * rep["m"] + rep["rank"]


def test_rho0_rank3():
    rep = rho0_report(F3, domain_cap=1, k_count=2, slope_max=7)
    assert rep["rho0"] == 4 <= 4 * rep["m"] + rep["rank"]
    assert all(r["zero"] for r in rep["rows"] if r["slope"] >= 4)


def test_mechanism_rank2():
    d = scan_box_domains(2, 2, 7)[0]
    rep = vanishing_mechanism_report(A2, KREPS2[2], (0, 0), d, F2)
    assert rep["threshold_ok"] and rep["inner_sum_zero"] and rep["total_zero"]
    assert rep["x_values"] == 2 ** (d.remainder + 1)


def test_mechanism_rank3():
    a3 = hypothesis_diagonal(CTX21, 3)
    k3 = enumerate_cosets(SubgroupSpec("K", 3, 2), 1)[0]
    d3 = sampled_domains(3, 2, 7)[0]
    rep = vanishing_mechanism_report(a3, k3, (0, 0, 0), d3, F3, cell_cap=4)
    assert rep["threshold_ok"] and rep["inner_sum_zero"] and rep["total_zero"]


def test_minor_bound_trivial():
    rep = iwasawa_minor_bound_check(Mat.identity(2, 2), Mat.identity(2, 2),
                                    CTX21)
    assert rep["ok"] and rep["aprime_T_exponents"] == [0, 0]


def test_minor_bound_samples():
    rep = minor_bound_sample_suite(CTX21, 3, count=60)
    assert rep["failures"] == 0
    rep2 = minor_bound_sample_suite(DepthContext(3, 1), 2, count=60, seed=7)
    assert rep2["failures"] == 0
