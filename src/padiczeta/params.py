"""Conjugacy parameters over the residue rings and their characters.

A parameter tau is a matrix over o/q = Z/p^m.  The classification layer
decides whether tau is cyclic (admits a cyclic vector), subcyclic with
respect to a flag (companion-shaped below the diagonal), and uniform
(cyclic with unit determinant).  All conjugations are
constructive: we produce the group element, never just the yes/no answer.

On the character side, tau defines a character chi_tau of K(q)/K(q^2) by
chi_tau(1 + x) = psi_Ttilde(trace(x tau)).  J_tau denotes the inverse image
in K of the centralizer of tau over o/q; chi_tau extends to J_tau, and we
enumerate *all* such extensions by walking a chain of subgroups from
K(q)/K(q^2) up to J_tau/K(q^2), adjoining one generator at a time.  Each
extension yields an idempotent omega = vol(J_tau)^{-1} chibar on J_tau.

Character values inside the extension machinery are kept as exponents:
a Fraction r in [0, 1) stands for exp(2 pi i r).  This makes root
extraction trivial and keeps the recursion exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .arith import CycSum, CycValue, DepthContext, frac_part
from .group import Mat, SubgroupSpec, haar_volume
from .residue import ZMat, centralizer_in_GL


@dataclass(frozen=True)
class TauParam:
    """A parameter matrix over o/q together with its depth context."""

    ctx: DepthContext
    mat: ZMat

    def __post_init__(self):
        if self.mat.p != self.ctx.p or self.mat.e != self.ctx.m:
            raise ValueError("parameter must live over Z/p^m")

    @property
    def n(self) -> int:
        return self.mat.n


def theta_matrix(N: int, ctx: DepthContext) -> TauParam:
    """The nilpotent parameter with ones on the subdiagonal.

    Pairing against it extracts the superdiagonal: trace(x theta) is the
    sum of the entries x[k][k+1].
    """
    rows = [[1 if i == j + 1 else 0 for j in range(N)] for i in range(N)]
    return TauParam(ctx, ZMat.make(rows, ctx.p, ctx.m))


def companion_matrix(coeffs, ctx: DepthContext) -> TauParam:
    """Companion matrix (subdiagonal ones) of the monic polynomial with the
    given low-to-high coefficient list, constant term first."""
    N = len(coeffs)
    rows = [[0] * N for _ in range(N)]
    for i in range(1, N):
        rows[i][i - 1] = 1
    for i in range(N):
        rows[i][N - 1] = -coeffs[i]
    return TauParam(ctx, ZMat.make(rows, ctx.p, ctx.m))


# -- cyclic / subcyclic classification --------------------------------------

def is_cyclic_wrt(tau: TauParam, basis: ZMat) -> bool:
    """tau maps the j-th basis column to the (j+1)-th, for j < N."""
    c = basis.inv() @ tau.mat @ basis
    n = c.n
    for j in range(n - 1):
        for i in range(n):
            if c.entries[i][j] != (1 if i == j + 1 else 0):
                return False
    return True


def is_subcyclic_wrt(tau: TauParam, basis: ZMat) -> bool:
    """In basis coordinates, the part of tau below the diagonal is exactly
    the subdiagonal-ones pattern; entries on and above are unconstrained.
    This only depends on the decorated flag of the basis."""
    c = basis.inv() @ tau.mat @ basis
    n = c.n
    for j in range(n - 1):
        if c.entries[j + 1][j] != 1:
            return False
        for i in range(j + 2, n):
            if c.entries[i][j] != 0:
                return False
    return True


def _krylov_basis(mat: ZMat, vec) -> ZMat:
    """The matrix over the ring of mat with columns vec, mat vec, ...,
    mat^{N-1} vec."""
    cols, cur = [], vec
    for _ in range(mat.n):
        cols.append(cur)
        cur = mat.apply(cur)
    return ZMat.from_columns(cols, mat.p, mat.e)


def find_cyclic_vector(tau: TauParam):
    """Lexicographically first residue-field vector e such that
    e, tau e, ..., tau^{N-1} e is a basis, or None.

    Cyclicity of a lift only depends on the residue mod p, so the search
    runs over F_p^N and the winner is returned as an integer tuple.
    """
    p, n = tau.ctx.p, tau.n
    red = tau.mat.reduce(1)
    for vec in itertools.product(range(p), repeat=n):
        if any(vec) and _krylov_basis(red, vec).is_unit():
            return vec
    return None


def is_cyclic(tau: TauParam) -> bool:
    return find_cyclic_vector(tau) is not None


def is_uniform(tau: TauParam) -> bool:
    """Cyclic with unit determinant (equivalently, unit constant term of
    the characteristic polynomial)."""
    return tau.mat.is_unit() and is_cyclic(tau)


def conjugate_to_standard_cyclic(tau: TauParam):
    """Return (g, tau') with tau' = g tau g^{-1} in companion form.

    g is the inverse of the cyclic-basis matrix [e | tau e | ...]; in the
    new coordinates tau shifts the first N-1 basis vectors down by one, so
    tau' has subdiagonal ones and, by Cayley--Hamilton, last column given
    by the characteristic polynomial.  The upper-left block of tau' is the
    nilpotent theta pattern.
    """
    e = find_cyclic_vector(tau)
    if e is None:
        raise ValueError("parameter is not cyclic")
    g = _krylov_basis(tau.mat, e).inv()
    tau2 = TauParam(tau.ctx, g @ tau.mat @ g.inv())
    if not is_cyclic_wrt(tau2, ZMat.identity(tau.n, tau.ctx.p, tau.ctx.m)):
        raise ArithmeticError("conjugate parameter is not cyclic")
    return g, tau2


# -- characters of congruence subgroups -------------------------------------

def chi_tau_exponent(tau: TauParam, k: Mat) -> Fraction:
    """Exponent r in [0,1) with chi_tau(k) = exp(2 pi i r), for k in K(q)."""
    ctx = tau.ctx
    if not k.in_congruence(ctx.m):
        raise ValueError("argument not in the level-q congruence subgroup")
    # the trace of (k - 1) tau, over the denominator of k
    den, tm = k.den, tau.mat.entries
    t = sum((x - den * (i == j)) * tm[j][i]
            for i, r in enumerate(k.num) for j, x in enumerate(r))
    return frac_part(Fraction(t, den * ctx.T), ctx.p)


def chi_tau_eval(tau: TauParam, k: Mat) -> CycValue:
    r = chi_tau_exponent(tau, k)
    return CycValue.root_of_unity(r.denominator, r.numerator)


def j_tau_membership(tau: TauParam, k: Mat) -> bool:
    """k lies in K and its reduction mod q centralizes tau."""
    if not k.in_K():
        return False
    kbar = ZMat.from_mat(k, tau.ctx.m)
    return kbar @ tau.mat == tau.mat @ kbar


def j_tau_transversal(tau: TauParam):
    """Representatives of J_tau/K(q^2) as ZMat at precision 2m, sorted.

    Every class has a unique representative: a matrix mod q^2 whose
    reduction mod q is an invertible element commuting with tau.
    """
    ctx = tau.ctx
    p, m, n = ctx.p, ctx.m, tau.n
    q = p ** m
    reps = []
    for c in centralizer_in_GL(tau.mat):
        base = c.entries
        for off in itertools.product(range(q), repeat=n * n):
            rows = [[base[i][j] + q * off[i * n + j] for j in range(n)]
                    for i in range(n)]
            reps.append(ZMat.make(rows, p, 2 * m))
    return sorted(reps, key=lambda z: z.entries)


def _congruence_part_table(tau: TauParam):
    """chi_tau as an exponent table on K(q)/K(q^2) representatives."""
    ctx = tau.ctx
    table = {}
    for z in j_tau_transversal(tau):
        red = z.reduce(ctx.m)
        if red == ZMat.identity(tau.n, ctx.p, ctx.m):
            table[z.entries] = chi_tau_exponent(tau, z.lift())
    return table


def enumerate_chi_extensions(tau: TauParam):
    """All characters of J_tau/K(q^2) restricting to chi_tau on K(q)/K(q^2).

    The quotient J_tau/K(q) is the abelian unit group of (o/q)[tau], so
    every intermediate subgroup is normal and the extension problem walks
    up one cyclic step at a time.  At each step we adjoin the smallest
    missing representative t; if t^l is the first power already covered,
    the candidate values at t are the l solutions z of z^l = chi(t^l), and
    each is admissible iff chi is invariant under conjugation by t.  The
    complete tables form a torsor under the character group of the
    centralizer, and all of them are returned (sorted for determinism).
    """
    all_reps = j_tau_transversal(tau)
    universe = {z.entries: z for z in all_reps}
    total = len(all_reps)
    base = _congruence_part_table(tau)

    def extend(table):
        if len(table) == total:
            return [table]
        tkey = min(k for k in universe if k not in table)
        t = universe[tkey]
        power, ell = t, 1
        while power.entries not in table:
            power = (power @ t)
            ell += 1
        r = table[power.entries]  # chi(t^ell)
        # conjugation invariance must hold for any extension through t
        tinv = t.inv()
        for key, val in table.items():
            conj = t @ universe[key] @ tinv
            if table.get(conj.entries) != val:
                return []
        out = []
        for j in range(ell):
            z = Fraction(r.numerator + j * r.denominator,
                         ell * r.denominator)
            z = z - int(z)  # normalize to [0,1)
            bigger = dict(table)
            tp = t
            for a in range(1, ell):
                za = a * z
                za -= int(za)
                for key, val in table.items():
                    prod = tp @ universe[key]
                    w = za + val
                    bigger[prod.entries] = w - int(w)
                tp = tp @ t
            out.extend(extend(bigger))
        return out

    tables = extend(base)
    return sorted(tables, key=lambda tb: sorted(tb.items()))


# -- the idempotent ---------------------------------------------------------

@dataclass
class OmegaIdempotent:
    """omega = vol(J_tau)^{-1} conj(chitilde), supported on J_tau.

    The character table stores exponents r (meaning exp(2 pi i r)) on
    representatives of J_tau/K(q^2).
    """

    tau: TauParam
    table: dict
    vol_J: Fraction

    @property
    def ctx(self) -> DepthContext:
        return self.tau.ctx

    def value(self, g: Mat) -> CycValue:
        """omega(g), zero off J_tau."""
        if not j_tau_membership(self.tau, g):
            return CycValue.zero
        r = self.table[ZMat.from_mat(g, 2 * self.ctx.m).entries]
        phase = CycValue.root_of_unity(r.denominator, -r.numerator)
        return phase * (1 / self.vol_J)

    def convolve_self_at(self, g: Mat) -> CycValue:
        """(omega * omega)(g) as an honest finite sum over J_tau/K(q^2)."""
        ctx = self.ctx
        vol_cell = haar_volume(SubgroupSpec("Kq", self.tau.n, ctx.p, 2 * ctx.m))
        total = CycSum()
        for key in self.table:
            r = ZMat(key, ctx.p, 2 * ctx.m)
            total.add(self.value(r.lift()) * self.value(
                (r.inv() @ ZMat.from_mat(g, 2 * ctx.m)).lift()))
        return total.value() * vol_cell

def build_omega(tau: TauParam) -> OmegaIdempotent:
    """Construct the idempotent from the first character extension.

    All extensions give the same |omega|, hence the same idempotency and
    L^1 statistics; the choice only fixes a phase convention.  Requires
    tau uniform so that the centralizer is as large as the theory
    promises.
    """
    if not is_uniform(tau):
        raise ValueError("parameter must be uniform")
    tables = enumerate_chi_extensions(tau)
    if not tables:
        raise ValueError("no character extension exists (unexpected)")
    ctx = tau.ctx
    cent = centralizer_in_GL(tau.mat)
    vol_J = len(cent) * haar_volume(SubgroupSpec("Kq", tau.n, ctx.p, ctx.m))
    return OmegaIdempotent(tau, tables[0], vol_J)
