"""Parameter classification, congruence characters, and the idempotent."""

import random
from fractions import Fraction

import pytest

from padiczeta.arith import CycValue, DepthContext
from padiczeta.group import Mat
from padiczeta.params import (
    TauParam,
    build_omega,
    chi_tau_eval,
    chi_tau_exponent,
    companion_matrix,
    conjugate_to_standard_cyclic,
    enumerate_chi_extensions,
    find_cyclic_vector,
    is_cyclic,
    is_cyclic_wrt,
    is_subcyclic_wrt,
    is_uniform,
    j_tau_membership,
    j_tau_transversal,
    theta_matrix,
)
from padiczeta.residue import (
    ZMat,
    centralizer_in_GL,
    enumerate_GL,
    enumerate_matrices,
)
from paper_checks import (
    charpoly,
    factor_subcyclic,
    generation_criterion,
    is_stable,
    omega_sharp_L1,
    omega_sharp_ratio,
    resultant,
    unique_NF_conjugate_cyclic,
    upper_left_block,
)

CTX21 = DepthContext(2, 1)
CTX31 = DepthContext(3, 1)
CTX22 = DepthContext(2, 2)


# -- residue ring primitives ------------------------------------------------

def test_charpoly_oracles():
    assert charpoly([[0]]) == (0, 1)
    # companion of X^3 - 1
    assert charpoly([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == (-1, 0, 0, 1)
    assert charpoly([[2, 0], [0, 3]]) == (6, -5, 1)


def test_resultant_oracles():
    # Res(X^3 - 1, X^2) = 1
    assert resultant((-1, 0, 0, 1), (0, 0, 1)) == 1
    # Res(X - a, X - b) = a - b  up to sign convention: product of g at
    # roots of f
    assert resultant((-2, 1), (-5, 1)) == -3
    # shared root => 0
    assert resultant((-1, 0, 1), (1, 1)) == 0


def test_zmat_roundtrips():
    z = ZMat.make([[1, 2], [3, 4]], 5, 2)
    assert z.det() == (4 - 6) % 25
    zi = z.inv()
    assert z @ zi == ZMat.identity(2, 5, 2)
    g = Mat.from_text("1,2;3,4", 5)
    assert ZMat.from_mat(g, 2) == z
    assert ZMat.from_mat(z.lift(), 2) == z
    with pytest.raises(ValueError):
        ZMat.from_mat(Mat.from_text("1/5,0;0,1", 5), 2)


def test_enumerate_GL_counts():
    assert sum(1 for _ in enumerate_GL(2, 2, 1)) == 6
    assert sum(1 for _ in enumerate_GL(2, 2, 2)) == 96
    assert sum(1 for _ in enumerate_matrices(2, 3, 1)) == 81


def test_centralizer_of_irreducible_companion():
    # companion of X^2+X+1 over F_2: centralizer is the cyclic group of
    # order 3 (unit group of the quartic field)
    tau = companion_matrix([1, 1], CTX21)
    assert len(centralizer_in_GL(tau.mat)) == 3


# -- cyclic / subcyclic -----------------------------------------------------

def test_theta_shape_and_trace_pairing():
    th = theta_matrix(3, CTX21)
    assert th.mat.entries == ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert theta_matrix(1, CTX21).mat.entries == ((0,),)
    # trace(x theta) picks out the superdiagonal of x
    x = Mat.from_text("0,2,0;0,0,2;0,0,0", 2)
    k = Mat([[x[i, j] + (1 if i == j else 0) for j in range(3)]
             for i in range(3)], 2)
    assert chi_tau_exponent(th, k) == Fraction(0)  # 2+2 = 4 = q^2


def test_cyclic_predicates():
    ident = ZMat.identity(3, 2, 1)
    tau = companion_matrix([1, 0, 0], CTX21)  # X^3 - 1... coeffs (c0,c1,c2)
    assert is_cyclic_wrt(tau, ident)
    assert is_subcyclic_wrt(tau, ident)
    th = theta_matrix(3, CTX21)
    assert is_subcyclic_wrt(th, ident) and is_cyclic_wrt(th, ident)
    diag = TauParam(CTX31, ZMat.make([[1, 0], [0, 2]], 3, 1))
    assert not is_cyclic_wrt(diag, ZMat.identity(2, 3, 1))


def test_find_cyclic_vector():
    tau = companion_matrix([1, 1], CTX21)
    assert find_cyclic_vector(tau) == (0, 1)  # lexicographically first
    th = theta_matrix(3, CTX21)
    assert find_cyclic_vector(th) is not None
    zero = TauParam(CTX21, ZMat.make([[0, 0], [0, 0]], 2, 1))
    assert find_cyclic_vector(zero) is None


def test_conjugate_to_standard_cyclic_roundtrip():
    rng = random.Random(17)
    for ctx in (CTX21, CTX31, CTX22):
        comp = companion_matrix([1, 0, 1], ctx)
        for _ in range(20):
            g = _random_gl(3, ctx, rng)
            tau = TauParam(ctx, g @ comp.mat @ g.inv())
            h, std = conjugate_to_standard_cyclic(tau)
            assert is_cyclic_wrt(std, ZMat.identity(3, ctx.p, ctx.m))
            assert std.mat == h @ tau.mat @ h.inv()
            # upper-left block of the standard form is the theta pattern
            assert upper_left_block(std).entries == \
                theta_matrix(2, ctx).mat.entries


def test_conjugate_to_standard_exhaustive_small():
    # every cyclic tau over Z/2 (3x3) standardizes
    count = 0
    for z in enumerate_matrices(3, 2, 1):
        tau = TauParam(CTX21, z)
        if is_cyclic(tau):
            count += 1
            _, std = conjugate_to_standard_cyclic(tau)
            assert is_cyclic_wrt(std, ZMat.identity(3, 2, 1))
    assert count > 0


def _random_gl(n, ctx, rng):
    while True:
        z = ZMat.make([[rng.randrange(ctx.p ** ctx.m) for _ in range(n)]
                       for _ in range(n)], ctx.p, ctx.m)
        if z.is_unit():
            return z


def _random_subcyclic(n, ctx, rng):
    mod = ctx.p ** ctx.m
    rows = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        rows[j + 1][j] = 1
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rng.randrange(mod)
    return TauParam(ctx, ZMat.make(rows, ctx.p, ctx.m))


def test_unique_NF_conjugate():
    rng = random.Random(29)
    ident3 = ZMat.identity(3, 2, 1)
    for _ in range(30):
        tau = _random_subcyclic(3, CTX22, rng)
        v = unique_NF_conjugate_cyclic(tau, ZMat.identity(3, 2, 2))
        conj = TauParam(CTX22, v @ tau.mat @ v.inv())
        assert is_cyclic_wrt(conj, ZMat.identity(3, 2, 2))
    # cyclic input: v = I
    comp = companion_matrix([1, 0, 0], CTX21)
    assert unique_NF_conjugate_cyclic(comp, ident3) == ident3
    # uniqueness, exhaustively over the unipotent group mod 2
    tau = _random_subcyclic(3, CTX21, rng)
    hits = 0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                v = ZMat.make([[1, a, b], [0, 1, c], [0, 0, 1]], 2, 1)
                if is_cyclic_wrt(TauParam(CTX21, v @ tau.mat @ v.inv()),
                                 ident3):
                    hits += 1
    assert hits == 1


def test_factor_subcyclic_roundtrip():
    rng = random.Random(41)
    for ctx in (CTX21, CTX22):
        basis = ZMat.identity(3, ctx.p, ctx.m)
        tau = companion_matrix([1, 0, 1], ctx)
        cent = centralizer_in_GL(tau.mat)
        for _ in range(25):
            c0 = rng.choice(cent)
            a, b, c = (rng.randrange(ctx.p ** ctx.m) for _ in range(3))
            v0 = ZMat.make([[1, a, b], [0, 1, c], [0, 0, 1]], ctx.p, ctx.m)
            g = v0 @ c0
            v, c1 = factor_subcyclic(tau, g, basis)
            assert v @ c1 == g
            assert c1 @ tau.mat == tau.mat @ c1
            # flag-unipotent factor
            for i in range(3):
                assert v.entries[i][i] == 1
                for j in range(i):
                    assert v.entries[i][j] == 0


def test_factor_subcyclic_identity():
    tau = theta_matrix(2, CTX21)
    v, c = factor_subcyclic(tau, ZMat.identity(2, 2, 1),
                            ZMat.identity(2, 2, 1))
    assert v == ZMat.identity(2, 2, 1) and c == ZMat.identity(2, 2, 1)


# -- stability / uniformity -------------------------------------------------

def test_stability_examples():
    tau = companion_matrix([1, 0, 0], CTX21)  # X^3 + 1 = X^3 - 1 mod 2
    assert is_stable(tau)
    zero = TauParam(CTX21, ZMat.make([[0, 0], [0, 0]], 2, 1))
    assert not is_stable(zero)


def test_stability_matches_generation_criterion_exhaustive():
    for ctx in (CTX21, CTX22):
        for z in enumerate_matrices(2, ctx.p, ctx.m):
            tau = TauParam(ctx, z)
            assert is_stable(tau) == generation_criterion(tau)


def test_uniformity():
    assert is_uniform(companion_matrix([1, 0, 0], CTX21))
    assert not is_uniform(theta_matrix(3, CTX21))  # det 0
    # nilpotent regular plus a unit scalar is uniform
    th = theta_matrix(3, CTX31).mat
    shifted = TauParam(CTX31, ZMat.make(
        [[x + (i == j) for j, x in enumerate(r)]
         for i, r in enumerate(th.entries)], 3, 1))
    assert is_uniform(shifted)


def test_is_cyclic_conjugation_invariant():
    rng = random.Random(53)
    for _ in range(60):
        z = ZMat.make([[rng.randrange(3) for _ in range(2)]
                       for _ in range(2)], 3, 1)
        tau = TauParam(CTX31, z)
        g = _random_gl(2, CTX31, rng)
        conj = TauParam(CTX31, g @ z @ g.inv())
        assert is_cyclic(tau) == is_cyclic(conj)


# -- chi_tau ----------------------------------------------------------------

def test_chi_tau_values():
    th = theta_matrix(2, CTX21)
    assert chi_tau_eval(th, Mat.identity(2, 2)) == CycValue.one
    k = Mat.from_text("1,2;0,1", 2)
    # trace contribution 2, Ttilde = 1/4: psi(1/2) = -1
    assert chi_tau_eval(th, k) == CycValue.rational(-1)
    with pytest.raises(ValueError):
        chi_tau_eval(th, Mat.from_text("1,1;0,1", 2))


def _kq_mod_kq2_reps(n, p, m):
    from padiczeta.group import SubgroupSpec, enumerate_cosets
    return enumerate_cosets(SubgroupSpec("Kq", n, p, m), 2 * m)


def test_chi_tau_well_defined_and_multiplicative_exhaustive_rank2():
    th = theta_matrix(2, CTX21)
    reps = _kq_mod_kq2_reps(2, 2, 1)
    assert len(reps) == 16
    shift = Mat.from_text("5,4;8,1", 2)  # congruent to I mod 4
    for k in reps:
        assert chi_tau_exponent(th, k) == chi_tau_exponent(th, k @ shift)
        for k2 in reps:
            lhs = chi_tau_exponent(th, k @ k2)
            rhs = chi_tau_exponent(th, k) + chi_tau_exponent(th, k2)
            assert (lhs - rhs).denominator == 1


def test_chi_tau_multiplicative_sampled_rank3():
    tau = companion_matrix([1, 0, 0], CTX21)
    reps = _kq_mod_kq2_reps(3, 2, 1)
    rng = random.Random(61)
    for _ in range(10 ** 4):
        k1, k2 = rng.choice(reps), rng.choice(reps)
        lhs = chi_tau_exponent(tau, k1 @ k2)
        rhs = chi_tau_exponent(tau, k1) + chi_tau_exponent(tau, k2)
        assert (lhs - rhs).denominator == 1


# -- J_tau and the character extensions -------------------------------------

def test_j_tau_membership():
    tau = companion_matrix([1, 1], CTX21)
    assert j_tau_membership(tau, Mat.identity(2, 2))
    assert j_tau_membership(tau, tau.mat.lift())  # tau commutes with itself
    assert not j_tau_membership(tau, Mat.from_text("1,1;0,1", 2))
    assert not j_tau_membership(tau, Mat.from_text("1/2,0;0,1", 2))


def test_j_tau_transversal_size():
    tau = companion_matrix([1, 1], CTX21)
    reps = j_tau_transversal(tau)
    assert len(reps) == 3 * 16  # |centralizer| * |K(q)/K(q^2)|
    assert len({z.entries for z in reps}) == len(reps)


def test_chi_extension_count_and_restriction():
    tau = companion_matrix([1, 1], CTX21)
    tables = enumerate_chi_extensions(tau)
    # torsor under the character group of the cyclic centralizer (order 3)
    assert len(tables) == 3
    for table in tables:
        # restricts to chi_tau on the congruence part
        for key, val in table.items():
            z = ZMat(key, 2, 2)
            if z.reduce(1) == ZMat.identity(2, 2, 1):
                assert val == chi_tau_exponent(tau, z.lift())


def test_chi_extension_multiplicative():
    tau = companion_matrix([1, 1], CTX21)
    table = enumerate_chi_extensions(tau)[0]
    keys = sorted(table)
    rng = random.Random(71)
    for _ in range(300):
        k1, k2 = rng.choice(keys), rng.choice(keys)
        z1, z2 = ZMat(k1, 2, 2), ZMat(k2, 2, 2)
        lhs = table[(z1 @ z2).entries]
        rhs = table[k1] + table[k2]
        assert (lhs - rhs).denominator == 1


def test_chi_extension_rank3():
    tau = companion_matrix([1, 0, 0], CTX21)
    tables = enumerate_chi_extensions(tau)
    # centralizer is F_2 x F_4 units: order 3
    assert len(centralizer_in_GL(tau.mat)) == 3
    assert len(tables) == 3
    table = tables[0]
    keys = sorted(table)
    rng = random.Random(73)
    for _ in range(200):
        k1, k2 = rng.choice(keys), rng.choice(keys)
        z1, z2 = ZMat(k1, 2, 2), ZMat(k2, 2, 2)
        assert (table[(z1 @ z2).entries] - table[k1] - table[k2]) \
            .denominator == 1


# -- omega ------------------------------------------------------------------

def test_build_omega_idempotent():
    tau = companion_matrix([1, 1], CTX21)
    om = build_omega(tau)
    assert om.vol_J == Fraction(3, 6)
    # omega * omega = omega, honest convolution at several points
    for g in [Mat.identity(2, 2), tau.mat.lift(),
              Mat.from_text("3,2;2,3", 2)]:
        assert om.convolve_self_at(g) == om.value(g)
    # off J_tau both sides vanish
    off = Mat.from_text("1,1;0,1", 2)
    assert om.value(off).is_zero()
    assert om.convolve_self_at(off).is_zero()


def test_build_omega_requires_uniform():
    with pytest.raises(ValueError):
        build_omega(theta_matrix(2, CTX21))


def test_omega_sharp_mass():
    tau = companion_matrix([1, 1], CTX21)
    om = build_omega(tau)
    mass = omega_sharp_L1(om)
    assert mass == 2  # equals T^{n/2} = 4^{1/2} exactly here
    assert omega_sharp_ratio(om) == 1


def test_omega_sharp_rank3():
    tau = companion_matrix([1, 0, 0], CTX21)
    om = build_omega(tau)
    mass = omega_sharp_L1(om)
    # recorded constant: mass/T^{n/2} = (28/3)/4 = 7/3 at this instance
    assert mass == Fraction(28, 3)
    assert omega_sharp_ratio(om) == Fraction(49, 9)


def test_tau_param_text_roundtrip():
    tau = companion_matrix([1, 0, 1], CTX22)
    assert TauParam.from_text(tau.to_text()) == tau
