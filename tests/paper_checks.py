"""Paper checks that only the tests run.

Each function here certifies one statement of the paper, or builds an
object such a check needs, on finite exact data.  No `padiczeta verify`
suite, `eval` object or benchmark workload reaches them, so they live
next to the tests rather than in the package:

- group: the p-adic absolute value (`norm`), the n a k Iwasawa
  decomposition (`iwasawa_NAK`), the Iwahori factorization of a
  principal congruence element (`iwahori_factor`) and the bottom-row
  minor norms (`minor_norm_M`);
- the slope cells: the dilation `A_rho`, a cell's representative and
  volume, the two-parameter move (`q1_q2_construct`, `q1_q2_properties`,
  `measure_preservation_check`), the invariance of h (`h_invariance_check`),
  the vanishing mechanism step by step (`vanishing_mechanism_report`) and
  the minor bound along the Iwasawa decomposition
  (`iwasawa_minor_bound_check`, `minor_bound_sample_suite`);
- the parameters: stability (`is_stable`, through `charpoly` and
  `resultant`) against its module-theoretic form
  (`generation_criterion`), the flag factorization (`factor_subcyclic`,
  `unique_NF_conjugate_cyclic`) and the omega-sharp mass;
- the test function: the untranslated f (`base_test_function`) and its
  L^2-norm constant (`l2_norm_report`); the simple-root support law of
  the transform (`w_support_violated`).

The file is not collected by pytest; the test modules import it.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from padiczeta.arith import (CycSum, DepthContext, Rat, SqrtRational, psi,
                             valuation)
from padiczeta.group import (Mat, SubgroupSpec, bruhat_open_cell, iter_cosets,
                             iwasawa_UAK, p_power_diag)
from padiczeta.nicedomain import (NiceDomain, _parts_clean, _upper_coords,
                                  conj_by_A, vanishing_check)
from padiczeta.params import (OmegaIdempotent, TauParam, _krylov_basis,
                              is_cyclic_wrt, is_subcyclic_wrt,
                              j_tau_membership)
from padiczeta.residue import ZMat, int_det
from padiczeta.rslocal import EClassElement
from padiczeta.testfn import TestFunction, l2_norm_sq
from twins import cell_members, section_value


def norm(x: Rat, p: int) -> Fraction:
    """p-adic absolute value |x| = p^(-v_p(x)); |0| = 0."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    return Fraction(p) ** (-valuation(x, p))


# -- group: the n a k decomposition, Iwahori factors and minors --------------

@dataclass(frozen=True)
class IwasawaNAK:
    n: Mat  # upper unipotent
    a: Mat
    k: Mat


def iwasawa_NAK(g: Mat) -> IwasawaNAK:
    """g = n a k via the UAK algorithm applied to the Weyl-flipped matrix."""
    dec = iwasawa_UAK(g.flip())
    return IwasawaNAK(dec.u.flip(), dec.a.flip(), dec.k.flip())


def upper_unipotent_in_level(g: Mat, e: int) -> bool:
    """g is upper unipotent and in K_N(p^e); a lower unipotent u is in
    K_U(p^e) when its transpose is."""
    p = g.p
    vden = valuation(g.den, p)
    return g.is_upper_unipotent() and all(
        x == 0 or valuation(x, p) - vden >= e
        for i, r in enumerate(g.num) for x in r[i + 1:])


def iwahori_factor(k: Mat, e: int) -> tuple[Mat, Mat, Mat]:
    """Factor k in K(p^e), e >= 1, as u a n with u in K_U(p^e),
    a in K_A(p^e), n in K_N(p^e)."""
    if not k.in_congruence(e):
        raise ValueError(f"input not in K(p^{e})")
    dec = bruhat_open_cell(k)
    if dec is None:
        raise ArithmeticError("congruence element has a non-unit leading "
                              "minor")
    u, a, nn = dec.u, dec.a, dec.n
    if not (upper_unipotent_in_level(u.transpose(), e)
            and upper_unipotent_in_level(nn, e)
            and all(valuation(x - 1, k.p) >= e
                    for x in a.diagonal() if x != 1)):
        raise ArithmeticError("Iwahori components escaped their levels")
    return u, a, nn


def minor_norm_M(g: Mat, l: int) -> Fraction:
    """max |det| over all l x l minors of the bottom l rows of g."""
    n = g.n
    if not 1 <= l <= n:
        raise ValueError("l out of range")
    rows = g.num[n - l:]
    best = Fraction(0)
    for cols in itertools.combinations(range(n), l):
        sub = Mat._from_ints(tuple(tuple(r[c] for c in cols) for r in rows),
                             g.den, g.p)
        best = max(best, norm(sub.det(), g.p))
    return best


# -- the slope cells: dilation, representative, volume ----------------------

def A_rho(rho: int, n: int, p: int) -> Mat:
    """diag(p^{(n-1)rho}, ..., p^rho, 1)."""
    if rho < 0:
        raise ValueError("slope must be nonnegative")
    return p_power_diag([(n - 1 - i) * rho for i in range(n)], p)


def representative(domain: NiceDomain) -> Mat:
    """A member of the cell: the integral lift of the base point
    conjugated back down (the identity at slope 0)."""
    if domain.slope == 0:
        return Mat.identity(domain.n, domain.p)
    return conj_by_A(Mat(domain.base, domain.p), -domain.slope)


def cell_volume(domain: NiceDomain) -> Fraction:
    """Haar measure of the cell (N(Z_p) has volume 1)."""
    n = domain.n
    e = sum((j - i) * domain.slope - n
            for i in range(n) for j in range(i + 1, n))
    return Fraction(domain.p) ** e if domain.slope else Fraction(1)


# -- the two-parameter family of moves --------------------------------------

def q1_q2_construct(domain: NiceDomain, u: Mat, x) -> tuple:
    """(q1, q2, w', w): the right move q1 = I + p^{rho-l-1} x E_{j0, i0+1}
    on the conjugated coset, the exact row reduction q2 restoring the
    unipotent shape, the reduced matrix w' = q2 u' q1 (the upper-unipotent
    factor of the Bruhat open cell of u' q1), and its conjugate w back in
    the cell.  Requires slope >= remainder + 1 + n so that both
    factors are congruent to I at level n."""
    n, p, rho, l = domain.n, domain.p, domain.slope, domain.remainder
    x = Fraction(x)
    if x != 0 and valuation(x, p) < 0:
        raise ValueError("the move parameter must be integral")
    if rho < l + 1 + n:
        raise ValueError("slope below the two-parameter construction "
                         "threshold")
    if not domain.contains(u):
        raise ValueError("matrix outside the cell")
    i0, j0 = domain.pivot
    up = conj_by_A(u, rho)
    q1_rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
               for i in range(n)]
    q1_rows[j0][i0 + 1] += Fraction(p) ** (rho - l - 1) * x
    q1 = Mat(q1_rows, p)
    m = up @ q1
    dec = bruhat_open_cell(m)
    if dec is None:
        raise ArithmeticError("row reduction failure")
    wp = dec.n
    q2 = wp @ m.inv()
    # at level rho - l - 1 >= n >= 1, K_Q is the lower-triangular part of
    # the principal congruence subgroup
    if (any(x for i, r in enumerate(q2.num) for x in r[i + 1:])
            or not q2.in_congruence(rho - l - 1)):
        raise ArithmeticError("row reduction escaped its congruence level")
    if q2 @ up @ q1 != wp:
        raise ArithmeticError("q2 u q1 does not equal w'")
    return q1, q2, wp, conj_by_A(wp, -rho)


def q1_q2_properties(domain: NiceDomain, u: Mat, x) -> dict:
    """Exact congruence properties of the move: w' matches u' mod p^n;
    the superdiagonal shifts by p^{rho-l-1} (base pivot) x exactly at row
    i0 mod p^rho; w stays in the cell; n(u,x) = u^{-1} w conjugates into
    K_N(p^n); and n'(w,x) = w^{-1} u has the stated superdiagonal profile
    mod Z_p."""
    n, p, rho, l = domain.n, domain.p, domain.slope, domain.remainder
    i0, j0 = domain.pivot
    q1, q2, wp, w = q1_q2_construct(domain, u, x)
    up = conj_by_A(u, rho)
    piv_lift = Fraction(domain.base[i0][j0])
    inc = Fraction(p) ** (rho - l - 1) * piv_lift * Fraction(x)

    def vge(y, e):
        return y == 0 or valuation(y, p) >= e

    mod_n = all(vge(wp[i, j] - up[i, j], n)
                for i in range(n) for j in range(n))
    superdiag = all(
        vge(wp[i, i + 1] - up[i, i + 1] - (inc if i == i0 else 0), rho)
        for i in range(n - 1))
    in_cell = domain.contains(w)
    move = conj_by_A(u.inv() @ w, rho)
    move_in_range = all(
        vge(move[i, j] - (1 if i == j else 0), n)
        for i in range(n) for j in range(n))
    nprime = w.inv() @ u
    profile = all(
        vge(nprime[i, i + 1]
            + (Fraction(p) ** (-l - 1) * piv_lift * Fraction(x)
               if i == i0 else 0), 0)
        for i in range(n - 1))
    return {
        "w_prime_mod_pn": mod_n,
        "superdiagonal_mod_p_rho": superdiag,
        "w_in_cell": in_cell,
        "move_in_congruence_range": move_in_range,
        "inverse_move_profile": profile,
        "q2_level": rho - l - 1,
    }


def measure_preservation_check(domain: NiceDomain, x) -> dict:
    """u -> w on the finite quotient at entry level p^{n+1}: for fixed x
    the move fixes every residue class (w' = u' mod p^{n+1} entrywise),
    so it is a counting-measure-preserving bijection of the quotient."""
    n, p, rho = domain.n, domain.p, domain.slope
    total = 0
    for u in cell_members(domain, dict.fromkeys(_upper_coords(n), 1)):
        _, _, wp, _ = q1_q2_construct(domain, u, x)
        up = conj_by_A(u, rho)
        for i in range(n):
            for j in range(n):
                d = wp[i, j] - up[i, j]
                if d != 0 and valuation(d, p) < n + 1:
                    raise ValueError("move does not fix the residue class")
        total += 1
    return {"residues": total, "identity_on_residues": True,
            "bijection": True, "level": n + 1}


# -- the invariance of h and the vanishing mechanism ------------------------

def h_right_invariance_level(ctx: DepthContext, a: Mat) -> int:
    """Congruence depth d such that a K(q^2) a^{-1} contains the level-d
    lower Borel congruence subgroup: 2m plus the largest downward
    valuation drop along the diagonal of a."""
    d = a.diagonal()
    p = ctx.p
    drop = max((valuation(d[i], p) - valuation(d[j], p)
                for i in range(len(d)) for j in range(i)), default=0)
    return 2 * ctx.m + max(0, drop)


def h_invariance_check(f: EClassElement, s: tuple, a: Mat, k: Mat,
                       trials: int = 5, seed: int = 0) -> dict:
    """h(g) = f[s](w_G g a k) is invariant under left multiplication by
    unit diagonals and integral lower unipotents, and under right
    multiplication by the level-d lower Borel congruence subgroup with
    d = h_right_invariance_level."""
    ctx, n = f.ctx, f.n
    p = ctx.p
    rng = random.Random(seed)
    d = h_right_invariance_level(ctx, a)
    ak = a @ k
    wG = Mat.longest_weyl(n, p)

    def rand_upper():
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = Fraction(rng.randrange(-p ** 3, p ** 3),
                                      p ** rng.randrange(0, 3))
        return Mat(rows, p)

    def h(u):
        return _parts_clean(section_value(f, s, wG @ u @ ak))

    left_ok = right_ok = 0
    for _ in range(trials):
        u = rand_upper()
        base = h(u)
        # left: unit diagonal times integral lower unipotent
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(rng.choice(
                [c for c in range(1, p ** 2) if c % p]))
            for j in range(i):
                rows[i][j] = Fraction(rng.randrange(0, p ** 2))
        q = Mat(rows, p)
        if h(q @ u) != base:
            raise ValueError("left lower-Borel invariance failed")
        left_ok += 1
        # right: level-d lower Borel congruence element (acting on the
        # u-slot of h)
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
        for i in range(n):
            rows[i][i] += Fraction(p ** d * rng.randrange(0, p))
            for j in range(i):
                rows[i][j] = Fraction(p ** d * rng.randrange(0, p ** 2))
        r = Mat(rows, p)
        if h(u @ r) != base:
            raise ValueError("right congruence invariance failed")
        right_ok += 1
    return {"left_checked": left_ok, "right_checked": right_ok, "depth": d}


def vanishing_mechanism_report(a: Mat, k: Mat, s: tuple,
                               domain: NiceDomain, f: EClassElement,
                               cell_cap: int = 12) -> dict:
    """The vanishing mechanism, step by step, as exact finite identities:
    (1) h(u) = h(u n(u,x)) on sampled cells for all x mod p^{l+1};
    (2) the character is multiplicative along the move, psi(w n') =
    psi(w) psi(n'); (3) psi^{-1}(n'(w,x)) equals the pure pivot character
    psi(p^{-l-1} (base pivot) x); (4) the inner sum over x mod p^{l+1} of
    that character is exactly zero; (5) the full cell sum is zero."""
    ctx = f.ctx
    n, p = f.n, ctx.p
    rho, l = domain.slope, domain.remainder
    i0, j0 = domain.pivot
    d = h_right_invariance_level(ctx, a)
    threshold_ok = (rho - l - 1 >= d
                    and (j0 - i0) * rho - l - 1 >= d
                    and rho >= l + 1 + n)
    ak = a @ k
    wG = Mat.longest_weyl(n, p)
    cache: dict = {}

    def h(u):
        return _parts_clean(section_value(f, s, wG @ u @ ak, cache))

    piv = Fraction(domain.base[i0][j0])
    xs = list(range(p ** (l + 1)))
    sampled = 0
    members = cell_members(domain, dict.fromkeys(_upper_coords(n), 1))
    for u in itertools.islice(members, cell_cap):
        hu = h(u)
        for x in xs:
            _, _, _, w = q1_q2_construct(domain, u, x)
            if h(w) != hu:
                raise ValueError("h is not invariant along the move")
            nprime = w.inv() @ u
            sd_w = w.superdiagonal_sum()
            sd_np = nprime.superdiagonal_sum()
            sd_u = u.superdiagonal_sum()
            if psi(sd_u, p) != psi(sd_w, p) * psi(sd_np, p):
                raise ValueError("character not multiplicative on the move")
            if psi(-sd_np, p) != psi(Fraction(p) ** (-l - 1) * piv * x, p):
                raise ValueError("inverse move misses the pivot character")
        sampled += 1
    inner = CycSum()
    for x in xs:
        inner.add(psi(Fraction(p) ** (-l - 1) * piv * x, p))
    if not inner.value().is_zero():
        raise ValueError("inner pivot character sum is nonzero")
    total = vanishing_check(a, k, s, domain, f)
    return {
        "threshold_ok": threshold_ok,
        "invariance_cells": sampled,
        "x_values": len(xs),
        "inner_sum_zero": True,
        "total_zero": total.is_zero(),
        "right_invariance_depth": d,
    }


# -- minors along the Iwasawa decomposition ---------------------------------

def iwasawa_minor_bound_check(u: Mat, a: Mat, ctx: DepthContext,
                              d1: int = 1, d2: int = 1) -> dict:
    """For g = w_G u a with |u_ij| <= T^{d1}, |a_n| = 1 and simple-root
    coordinates of a at most T^{d2}: the bottom-row minor norms M_l of g
    equal those of a' n' from the Iwasawa decomposition g = n'' a' k
    (a' n' = n'' a'), the Laplace inequality M_{l+1} <= M_l * max|g_ij|
    holds, and every |a'_i| is at most T^d for the chain exponent
    d = (rank+1)(d1 + (rank-1) d2) + log_T(1/|det a|)."""
    n, p, m = u.n, ctx.p, ctx.m
    for i in range(n):
        for j in range(i + 1, n):
            x = u[i, j]
            if x != 0 and valuation(x, p) < -2 * m * d1:
                raise ValueError("u exceeds the entry bound T^d1")
    av = [valuation(x, p) for x in a.diagonal()]
    if av[-1] != 0:
        raise ValueError("last diagonal entry must be a unit")
    if any(av[i] - av[i + 1] < -2 * m * d2 for i in range(n - 1)):
        raise ValueError("simple-root coordinates of a exceed T^d2")
    g = Mat.longest_weyl(n, p) @ u @ a
    dec = iwasawa_NAK(g)
    if dec.n @ dec.a @ dec.k != g:
        raise ValueError("decomposition does not re-multiply")
    other = dec.n @ dec.a  # = a' n' with n' = a'^{-1} n'' a'
    emax = max(norm(g[i, j], p) for i in range(n) for j in range(n))
    minors = [minor_norm_M(g, l) for l in range(1, n + 1)]
    for l in range(1, n + 1):
        if minors[l - 1] != minor_norm_M(other, l):
            raise ValueError("minor identity failed")
        if l < n and minors[l] > minors[l - 1] * emax:
            raise ValueError("Laplace inequality failed")
    det_v = sum(av)
    d = (n + 1) * (d1 + (n - 1) * d2) + Fraction(det_v, 2 * m)
    exps = [Fraction(-valuation(x, p), 2 * m) for x in dec.a.diagonal()]
    if any(e > d for e in exps):
        raise ValueError("a'-bound exceeded the chain exponent")
    return {
        "minor_identity": True,
        "laplace": True,
        "chain_exponent": d,
        "aprime_T_exponents": exps,
        "ok": True,
    }


def minor_bound_sample_suite(ctx: DepthContext, n: int, count: int = 1000,
                             d1: int = 1, d2: int = 1,
                             seed: int = 0) -> dict:
    """Randomized sweep of iwasawa_minor_bound_check; raises on the first
    failing instance."""
    p, m = ctx.p, ctx.m
    rng = random.Random(seed)
    worst = Fraction(0)
    for _ in range(count):
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = Fraction(
                    rng.randrange(-p ** (2 * m * d1 + 2),
                                  p ** (2 * m * d1 + 2)),
                    p ** (2 * m * d1))
        u = Mat(rows, p)
        exps = [0]
        for _ in range(n - 1):
            exps.append(exps[-1] + rng.randint(-2 * m * d2, 2 * m * d2))
        exps = exps[::-1]  # exps[-1] = 0 so |a_n| = 1
        a = p_power_diag(exps, p)
        rep = iwasawa_minor_bound_check(u, a, ctx, d1, d2)
        worst = max(worst, max(rep["aprime_T_exponents"]))
    return {"count": count, "failures": 0, "max_aprime_T_exponent": worst}


# -- parameters: stability and the flag factorization -----------------------

def charpoly(rows: list[list[int]]) -> tuple[int, ...]:
    """Coefficients (low to high, monic) of det(x*I - A) over Z, by the
    Faddeev-LeVerrier recurrence: M_k = A M_(k-1) + c_(n-k+1) I from
    M_0 = 0, and c_(n-k) = -tr(A M_k) / k, an exact division."""
    n = len(rows)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]  # A M_(k-1)
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]  # now M_k
        m = [[sum(a * m[t][j] for t, a in enumerate(row))
              for j in range(n)] for row in rows]  # A M_k
        coeffs[n - k], rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("trace recurrence division is not exact")
    return tuple(coeffs)


def resultant(f: tuple[int, ...], g: tuple[int, ...]) -> int:
    """Resultant of two integer polynomials via the Sylvester matrix."""
    df, dg = len(f) - 1, len(g) - 1
    if df < 0 or dg < 0:
        raise ValueError("zero polynomial")
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    size = df + dg
    rows = []
    frev, grev = list(f[::-1]), list(g[::-1])
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (size - dg - 1 - i))
    return int_det(rows)


def upper_left_block(tau: TauParam) -> ZMat:
    """The upper-left (n-1) x (n-1) block of tau."""
    n = tau.n
    return ZMat.make([row[: n - 1] for row in tau.mat.entries[: n - 1]],
                     tau.ctx.p, tau.ctx.m)


def unique_NF_conjugate_cyclic(tau: TauParam, basis: ZMat) -> ZMat:
    """The unique flag-unipotent v with v tau v^{-1} cyclic wrt basis.

    Starting from the first basis vector, e'_j = tau e'_{j-1} rebuilds the
    only basis that induces the same decorated flag and is cyclic for tau;
    v is the change of basis, upper unipotent in flag coordinates.
    """
    if not is_subcyclic_wrt(tau, basis):
        raise ValueError("parameter is not subcyclic for this flag")
    first = tuple(row[0] for row in basis.entries)
    v = basis @ _krylov_basis(tau.mat, first).inv()
    if not is_cyclic_wrt(tau, v.inv() @ basis):
        raise ArithmeticError("rebuilt basis is not cyclic for tau")
    return v


def factor_subcyclic(tau: TauParam, g: ZMat, basis: ZMat):
    """Write g = v c with v flag-unipotent and c centralizing tau.

    Requires tau and g tau g^{-1} both subcyclic with respect to the flag
    of the basis.  Both then have a unique unipotent conjugate cyclic wrt
    the basis, and both of those conjugates equal the companion matrix of
    the common characteristic polynomial, which pins down c.
    """
    gtau = TauParam(tau.ctx, g @ tau.mat @ g.inv())
    v1 = unique_NF_conjugate_cyclic(tau, basis)
    v2 = unique_NF_conjugate_cyclic(gtau, basis)
    c = v1.inv() @ v2 @ g
    if not (c @ tau.mat == tau.mat @ c):
        raise ValueError("factorization failed: preconditions violated?")
    v = v2.inv() @ v1
    if v @ c != g:
        raise ArithmeticError("factorization does not multiply back to g")
    return v, c


def is_stable(tau: TauParam) -> bool:
    """The characteristic polynomials of tau and of its upper-left block
    are coprime modulo p (resultant a unit)."""
    f = charpoly([list(r) for r in tau.mat.entries])
    g = charpoly([list(r) for r in upper_left_block(tau).entries])
    return resultant(f, g) % tau.ctx.p != 0


def generation_criterion(tau: TauParam) -> bool:
    """Direct module-theoretic form of stability, for cross-checking:
    the last basis vector generates the column space and the last dual
    vector generates the row space, under repeated application of tau.
    Over a local ring, generation is a unit-determinant condition."""
    p, m, n = tau.ctx.p, tau.ctx.m, tau.n
    e = tuple(0 for _ in range(n - 1)) + (1,)
    taut = ZMat.make([[tau.mat.entries[j][i] for j in range(n)]
                      for i in range(n)], p, m)
    return (_krylov_basis(tau.mat, e).is_unit()
            and _krylov_basis(taut, e).is_unit())


# -- the omega-sharp mass ---------------------------------------------------

def omega_sharp_L1(om: OmegaIdempotent) -> Fraction:
    """Exact value of the L^1-mass over H of the center-averaged
    idempotent, with the matched central twist, whose average against
    conj(chitilde) over the scalar units is 1.  Support on H meets K
    only inside J_tau, where the absolute value is vol(J_tau)^{-1};
    the h-integral becomes a finite sum over GL_{N-1}(Z/q^2) embedded
    in the upper left block."""
    ctx = om.ctx
    p, m, N = ctx.p, ctx.m, om.tau.n
    n = N - 1
    hits = count = 0
    for k in iter_cosets(SubgroupSpec("K", n, p), 2 * m):
        count += 1
        h = ZMat.from_mat(k, 2 * m)
        if j_tau_membership(om.tau, h.embed(N).lift()):
            hits += 1
    return Fraction(hits, count) / om.vol_J


def omega_sharp_ratio(om: OmegaIdempotent) -> Fraction:
    """omega_sharp L^1-mass divided by T^{(N-1)/2}; the interesting
    scale for the mass.  Only meaningful when N-1 is even or T is a
    perfect square times a power with half-integral exponent, so we
    return the square of the ratio to stay rational."""
    val = omega_sharp_L1(om)
    n = om.tau.n - 1
    return val * val / Fraction(om.ctx.T) ** n


# -- the test function and the transform's support law ---------------------

def base_test_function(ctx: DepthContext, N: int) -> TestFunction:
    return TestFunction(ctx, N, tuple(0 for _ in range(N)),
                        SqrtRational.of_rational(Fraction(1)))


def l2_norm_report(ctx: DepthContext, N: int):
    """(value, p-exponent, constant): value factors as the depth-free
    open-cell density times p to the exponent -m dim(N)."""
    from padiczeta.group import open_cell_density

    val = l2_norm_sq(ctx, N)
    expo = -ctx.m * (N * (N - 1) // 2)
    const = val / Fraction(ctx.p) ** expo
    if const != open_cell_density(N, ctx.p):
        raise ArithmeticError("L2 constant is not the open-cell density")
    return val, expo, const


def w_support_violated(ctx: DepthContext, a: Mat) -> bool:
    """True when some simple-root ratio a_i/a_{i+1} falls outside q^{-2},
    in which case the transform vanishes identically in k."""
    d = a.diagonal()
    return any(valuation(d[i] / d[i + 1], ctx.p) < -2 * ctx.m
               for i in range(len(d) - 1))
