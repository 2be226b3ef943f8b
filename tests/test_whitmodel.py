"""Support, values, and concentration of the restricted Whittaker vector."""

import random
from fractions import Fraction

from padiczeta.arith import CycValue, DepthContext, psi_T
from padiczeta.group import Mat, SubgroupSpec, enumerate_cosets
from padiczeta.params import chi_tau_eval, companion_matrix, theta_matrix
from padiczeta.whitmodel import (
    WhittakerOnH,
    a_T_element,
    concentration_check,
    concentration_integral,
    find_contradicting_unipotent,
    vol_support_quotient,
)

CTX21 = DepthContext(2, 1)
CTX31 = DepthContext(3, 1)
CTX22 = DepthContext(2, 2)


def test_a_T_shape():
    a = a_T_element(CTX21, 2)
    assert a.diagonal() == (Fraction(1, 16), Fraction(1, 4))
    assert a_T_element(CTX21, 1).diagonal() == (Fraction(1, 4),)
    # conjugation by a_T turns the plain character into the deep one on
    # each simple-root coordinate
    n = Mat.from_text("1,3;0,1", 2)
    conj = a @ n @ a.inv()
    assert conj[0, 1] == Fraction(3) * CTX21.Ttilde


def test_vol_support_quotient():
    # H = GL_2, p=2, m=1: vol(K(q)) = 1/6, fiber = T * 2^{-1} = 2
    assert vol_support_quotient(CTX21, 2) == Fraction(1, 12)
    assert vol_support_quotient(CTX21, 1) == Fraction(1, 1)


def test_peak_and_norm():
    W = WhittakerOnH(CTX21, 2)
    assert W.peak.squared() == 12
    assert W.peak.is_positive()
    # ||W||^2 = peak^2 * vol(X) = 1 by construction
    assert W.peak.squared() * vol_support_quotient(CTX21, 2) == 1


def test_peak_value_and_support():
    W = WhittakerOnH(CTX21, 2)
    c, phase = W.value_parts(W.a_T)
    assert c == W.peak and phase == CycValue.one
    # off support
    assert W.phase(W.a_T @ Mat.diag([2, 1], 2)).is_zero()
    assert W.phase(Mat.identity(2, 2)).is_zero()


def test_value_on_parametrized_support():
    rng = random.Random(43)
    for ctx, n in [(CTX21, 2), (CTX31, 2), (CTX21, 3)]:
        W = WhittakerOnH(ctx, n)
        aT = W.a_T
        theta = theta_matrix(n, ctx)
        for _ in range(25):
            # n-part with assorted denominators, y in K(q)
            u = Mat([[Fraction(1 if i == j else 0) for j in range(n)]
                     for i in range(n)], ctx.p)
            rows = [[u[i, j] for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = Fraction(rng.randint(-6, 6),
                                          ctx.p ** rng.randint(0, 2))
            u = Mat(rows, ctx.p)
            y = rng.choice(enumerate_cosets(
                SubgroupSpec("Kq", n, ctx.p, ctx.m), 2 * ctx.m))
            h = aT @ u @ y
            c, phase = W.value_parts(h)
            assert c == W.peak
            s = sum(u[i, i + 1] for i in range(n - 1))
            assert phase == psi_T(s, ctx) * chi_tau_eval(theta, y)


def test_left_equivariance_plain_character():
    # W(v h) = psi(v) W(h) with the *unramified* character, after the
    # a_T-twist bookkeeping
    ctx = CTX21
    W = WhittakerOnH(ctx, 2)
    pts = [W.a_T, W.a_T @ Mat.from_text("1,1/2;0,1", 2)]
    for h in pts:
        base = W.phase(h)
        for b in [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)]:
            v = Mat([[1, b], [0, 1]], 2)
            scaled = v @ h
            lhs = W.phase(scaled)
            from padiczeta.arith import psi
            assert lhs == psi(b, 2) * base


def test_support_scan_exhaustive_slice():
    # on a diagonal box times K-residues, nonzero exactly on the a_T coset
    ctx = CTX21
    W = WhittakerOnH(ctx, 2)
    rng = random.Random(47)
    ks = enumerate_cosets(SubgroupSpec("K", 2, 2), 2)
    for e1 in range(-5, 2):
        for e2 in range(-4, 2):
            a = Mat.diag([Fraction(2) ** e1, Fraction(2) ** e2], 2)
            for k in rng.sample(ks, 12):
                got = not W.phase(a @ k).is_zero()
                if (e1, e2) != (-4, -2):
                    assert not got
    # the a_T coset itself meets the support for lower-triangular-mod-q k
    hits = sum(not W.phase(W.a_T @ k).is_zero() for k in ks)
    assert 0 < hits < len(ks)


def test_restriction_to_lower_parabolic_is_indicator():
    # on a_T * (lower-triangular-type K(q) elements) the phase is 1
    ctx = CTX21
    W = WhittakerOnH(ctx, 2)
    for q in enumerate_cosets(SubgroupSpec("KQ", 2, 2, 1), 2):
        c, phase = W.value_parts(W.a_T @ q)
        assert c == W.peak and phase == CycValue.one


def test_concentration_integral_exhaustive():
    # stable subcyclic parameters at both tested primes
    for ctx in (CTX21, CTX31):
        tau = companion_matrix([-1, 0, 0], ctx)  # X^3 - 1
        checked, violations = concentration_integral(tau)
        assert violations == []
        assert checked == (6 if ctx.p == 2 else 48)
    # G-rank 2
    tau2 = companion_matrix([1, 1], CTX21)
    checked, violations = concentration_integral(tau2)
    assert violations == []
    assert checked == 1


def test_concentration_integral_unstable_parameter():
    # stability is what the general argument needs, but at this scale the
    # integral implication happens to hold even for the unstable nilpotent
    # parameter; recorded as an observation, not a counterexample
    tau = theta_matrix(3, CTX21)
    _, violations = concentration_integral(tau)
    assert violations == []


def test_contradicting_unipotent_simple_cases():
    ctx = CTX21
    tau = companion_matrix([-1, 0, 0], ctx)
    # ascending profile: the conjugated-superdiagonal witness
    h = Mat.diag([Fraction(1), Fraction(2), Fraction(1)], 2)
    wit = find_contradicting_unipotent(tau, h)
    assert wit is not None and wit["psi"] != wit["chi"]
    # antidominant profile
    h2 = Mat.diag([Fraction(2), Fraction(1), Fraction(1)], 2)
    assert find_contradicting_unipotent(tau, h2) is not None


def test_concentration_full_report():
    for ctx in (CTX21, CTX31):
        tau = companion_matrix([-1, 0, 0], ctx)
        report = concentration_check(tau)
        assert report["integral_violations"] == []
        assert report["nonintegral_failures"] == []
        assert report["nonintegral_checked"] > 0
