"""The localized Whittaker vector restricted to the mirabolic block.

On H = GL_n (the upper-left block of G = GL_{n+1}) the vector is supported
on the single double coset N_H a_T K_H(q), where a_T is the descending
chain of Ttilde-powers diag(Ttilde^n, ..., Ttilde) (the last, trivial
coordinate of the G-side element is dropped).  On the support,

    W(a_T n y) = psi_Ttilde(n) chi_theta(y) W(a_T),

and W(a_T) is fixed positive by requiring unit L^2-norm over N_H\\H, i.e.
W(a_T) = vol(X)^{-1/2} for X the image of the support in N_H\\H.

Membership in the support is decided constructively: a_T^{-1} h lies in
N(F) K(q) iff its factorization as an upper-unipotent n times a
lower-triangular y exists and y lies in the congruence subgroup.  That
factorization is the Bruhat open cell of the Weyl-flipped matrix, and n
is the witness.  At a point a_T y, y in K(q), the phase is read on the
integers mod T = q^2 (`WhittakerOnH.kq_exponent_mod`), by the
one elimination on the support that the closed formula of f uses
(`testfn._support_exponent`).

The module also verifies the concentration statement behind the support
lemma: integrally, conjugation keeping the parameter subcyclic forces the
conjugator into the unipotent-times-congruence part; non-integrally, an
explicit contradicting unipotent u with psi_Ttilde(u) != chi_tau(h^{-1}uh)
is searched for and reported.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .arith import CycValue, DepthContext, SqrtRational, psi_T, valuation
from .group import (Mat, SubgroupSpec, bruhat_open_cell, iter_cosets,
                    p_power_diag)
from .params import TauParam, chi_tau_eval, is_subcyclic_wrt, theta_matrix
from .residue import ZMat
from .testfn import _support_exponent


def a_T_element(ctx: DepthContext, n: int) -> Mat:
    """diag(Ttilde^n, ..., Ttilde) in GL_n, with Ttilde = p^(-2m)."""
    return p_power_diag([-2 * ctx.m * (n - i) for i in range(n)], ctx.p)


def vol_support_quotient(ctx: DepthContext, n: int) -> Fraction:
    """Volume of the image of N_H a_T K_H(q) in N_H\\H.

    Equals vol(K_H(q)) divided by the volume of the unipotent fiber
    a_T K_N(q) a_T^{-1}, whose shape stretches entry (i,j) by Ttilde^{j-i}.
    """
    from .group import gl_order

    vol_kq = Fraction(1, gl_order(n, ctx.p, ctx.m))
    dim_n = n * (n - 1) // 2
    fiber = Fraction(ctx.T) ** (n * (n * n - 1) // 6) \
        * Fraction(ctx.p) ** (-ctx.m * dim_n)
    return vol_kq / fiber


@dataclass(frozen=True)
class WhittakerOnH:
    """The restriction data: context, rank of H, and the peak value.

    a_T, its inverse and the peak are built once per object, like
    `TestFunction.shift_mat()`; `Mat` and `SqrtRational` are immutable,
    so callers share them."""

    ctx: DepthContext
    n: int

    @functools.cached_property
    def a_T(self) -> Mat:
        return a_T_element(self.ctx, self.n)

    @functools.cached_property
    def _a_T_inv(self) -> Mat:
        return p_power_diag([2 * self.ctx.m * (self.n - i)
                             for i in range(self.n)], self.ctx.p)

    @functools.cached_property
    def peak(self) -> SqrtRational:
        """W(a_T) = vol(X)^{-1/2}, positive."""
        return SqrtRational.sqrt(1 / vol_support_quotient(self.ctx, self.n))

    def support_witness(self, h: Mat):
        """Decompose a_T^{-1} h = n y with n upper-unipotent and y in K(q),
        or return None.

        With w the longest Weyl element, the open cell w x w = u a n' of
        x = a_T^{-1} h gives x = (w u w)(w a n' w): an upper-unipotent
        factor times a lower-triangular one.  That split is unique when it
        exists, and x lies in N K(q) iff it exists with the lower-triangular
        factor in K(q): an element of K(q) splits the same way with both
        factors in K(q) (Iwahori factorization).
        """
        x = self._a_T_inv @ h
        dec = bruhat_open_cell(x.flip())
        if dec is None:
            return None
        y = (dec.a @ dec.n).flip()
        if not y.in_congruence(self.ctx.m):
            return None
        nwit = dec.u.flip()
        if not nwit.is_upper_unipotent():
            raise ArithmeticError("support witness must be upper unipotent")
        return nwit, y

    def kq_exponent_mod(self, y) -> int:
        """The exponent e with W(a_T y) = W(a_T) exp(2 pi i e / T), for y in
        K(q) as integer rows read mod T.  y splits as n y' as in
        `support_witness`, and chi_theta(y') = 1 for the lower-triangular
        y', so the phase is psi_T of n's superdiagonal: the exponent of
        the split L D N of the anti-transpose of y (entry (i, j) =
        y[n-1-j][n-1-i]).  That matrix is 1 mod q, so it is on the support
        of `testfn._support_exponent`, which reads its rows 0..n-2: the
        reversed columns n-1, ..., 1 of y."""
        return _support_exponent([c[::-1] for c in zip(*y)][:0:-1],
                                 self.ctx)

    def value_parts(self, h: Mat):
        """(coefficient, phase) with W(h) = coefficient * phase; the
        coefficient is the peak value or zero."""
        wit = self.support_witness(h)
        if wit is None:
            return SqrtRational.of_rational(Fraction(0)), CycValue.zero
        nwit, y = wit
        phase = psi_T(nwit.superdiagonal_sum(), self.ctx) * chi_tau_eval(
            theta_matrix(self.n, self.ctx), y)
        return self.peak, phase


# -- concentration ----------------------------------------------------------

def concentration_integral(tau: TauParam):
    """Exhaustive check over H(o/q): keeping tau subcyclic under
    conjugation forces the conjugator to be upper-unipotent mod q.
    Returns (checked, violations)."""
    N = tau.n
    n = N - 1
    ctx = tau.ctx
    ident = ZMat.identity(N, ctx.p, ctx.m)
    checked, violations = 0, []
    for k in iter_cosets(SubgroupSpec("K", n, ctx.p), ctx.m):
        h = ZMat.from_mat(k, ctx.m)
        checked += 1
        hg = h.embed(N)
        conj = TauParam(ctx, hg @ tau.mat @ hg.inv())
        if is_subcyclic_wrt(conj, ident):
            uni = all(h.entries[i][j] == (1 if i == j else 0)
                      for i in range(n) for j in range(i + 1))
            if not uni:
                violations.append(h.entries)
    return checked, violations


def _unit_reps(ctx: DepthContext):
    mod = ctx.p ** (2 * ctx.m)
    return [u for u in range(1, mod) if u % ctx.p != 0]


def find_contradicting_unipotent(tau: TauParam, h: Mat):
    """A u = 1 + t pi^r E_{ij} in N(F) with h^{-1} u h in K(q) but
    psi_Ttilde(u) != chi_tau(h^{-1} u h); such a u forces W(h) = 0.

    Returns the witness (i, j, r, t) and both character values, or None.
    """
    ctx = tau.ctx
    N = tau.n
    p, m = ctx.p, ctx.m
    hinv = h.inv()
    # the least entry valuation of h
    lo = (min((valuation(x, p) for r in h.num for x in r if x), default=0)
          - valuation(h.den, p))
    for i in range(N):
        for j in range(i + 1, N):
            for r in range(lo - 1, 2 * m + 1 - lo):
                for t in _unit_reps(ctx):
                    u = Mat.elementary(N, p, i, j,
                                       Fraction(t) * Fraction(p) ** r)
                    conj = hinv @ u @ h
                    if not conj.in_congruence(m):
                        continue
                    lhs = psi_T(u.superdiagonal_sum(), ctx)
                    rhs = chi_tau_eval(tau, conj)
                    if lhs != rhs:
                        return {"i": i, "j": j, "r": r, "t": t,
                                "psi": lhs, "chi": rhs}
    return None


def concentration_check(tau: TauParam):
    """Full report for the support concentration of chi_tau-equivariant
    Whittaker functions restricted to H.

    Part one is the exhaustive integral statement; part two produces, for
    every nontrivial valuation profile in [-1, 1]^n and every residue
    class of K_H mod p, a contradicting unipotent.  tau should be stable
    and subcyclic for part two to succeed.  Part two stays in the unit
    shell because profiles beyond it can land on the support translate
    itself, where no contradicting unipotent exists.
    """
    ctx = tau.ctx
    N = tau.n
    n = N - 1
    checked, violations = concentration_integral(tau)
    report = {
        "integral_checked": checked,
        "integral_violations": violations,
        "nonintegral_failures": [],
        "nonintegral_checked": 0,
    }
    profiles = [prof for prof in
                itertools.product(range(-1, 2), repeat=n)
                if any(prof)]
    kreps = [ZMat.from_mat(k, 1).embed(N).lift()
             for k in iter_cosets(SubgroupSpec("K", n, ctx.p), 1)]
    for prof in profiles:
        a = p_power_diag((*prof, 0), ctx.p)
        for k in kreps:
            report["nonintegral_checked"] += 1
            h = a @ k
            if find_contradicting_unipotent(tau, h) is None:
                report["nonintegral_failures"].append(
                    {"profile": prof, "k": k.to_text()})
    return report
