"""Local Rankin--Selberg layer: the unipotent transform W(f,c,g), the
integrals Q and Q_P, and their support laws.

Class elements.  The working class consists of functions on N\\G (N the
upper unipotent) that are left K_A-invariant, right K(q^2)-invariant,
supported on N K_A a0 K for the fixed descending profile |a0_i| =
T^{(2i-1-n)/2}, and of recorded L^2-norm.  Our concentrated function has
left *lower*-unipotent structure, so its class representative is the left
translate by the longest Weyl element.  The tests check that the duality
map g -> w_G g^{-T} preserves the class.

The transform is W(f,c,g) = delta_N^{1/2}(c) * integral over u in N of
f(c^{-1} w_G u g) psi^{-1}(u) du, evaluated as an exact finite sum.  The
unipotent domain is cut into congruence-pattern cells on which the
integrand is provably constant: entry (k,l) is fixed modulo p^{L_kl} with

    L_kl >= 2m + v(a_k) - v(a_l)   (right K(q^2)-invariance after pulling
                                    the cell generator through a),
    L_{i,i+1} >= 0                 (constancy of psi),
    L_kj >= L_ij + B for i < k     (box entries of depth p^{-B} mix columns),

floored at -B so the pattern is a group.  Only the box depth B is
empirical: every reported value carries a stabilization certificate
(unchanged under B -> B+1).

The integral Q(phi,f,c) = integral over N\\G of phi(e_n g)|W(f,c,g)|^2 dg,
with phi the characteristic function of primitive integral rows, factors
through Iwasawa coordinates.  Two structural collapses keep it exact and
small: the support of f pins every leading-minor valuation of the Iwasawa
argument, so for diagonal c the outer a-sum has at most one term; and the
transform values are right chi-equivariant under K(q), so |W|^2 is right
K(q)-invariant and the K-integral is a sum over the mod-q transversal.
The parabolic variant W_P, Q_P replaces w_G by the block Weyl element of
the lower Levi factor and integrates only over its unipotent block; there
the outer sum is windowed with an empty-shell widening certificate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .arith import (CertificateCapExceeded, CountedRoots, CycSum, CycValue,
                    DepthContext, SqrtRational, certify, valuation)
from .group import (
    Mat,
    SubgroupSpec,
    _unit_a_k_residue,
    box_histograms,
    enumerate_cosets,
    haar_volume,
    iter_cosets,
    modular_delta,
    modular_delta_half_exponent,
    p_power_diag,
)
from .residue import residue_rows
from .testfn import TestFunction, _explicit_exponent_at, translate_for_H


# -- the class of concentrated functions ------------------------------------

@dataclass(frozen=True)
class EClassElement:
    """A concentrated element of the N\\G class, with recorded norm.

    The underlying data is the lower-structured test function; values are
    taken after left translation by the longest Weyl element.

    The element keys the cell caches `_w_cell_data` and
    `nicedomain._cell_keys`, which one transform or vanishing call looks
    up at each box or level it draws.  Its hash, that of the fields, is
    computed once, on construction, and kept as a plain attribute, so a
    lookup does not hash the test function and its Fractions again.
    Equality stays field by field.  A pickled element is rebuilt through
    the constructor, so a worker process computes the hash itself rather
    than trusting one made in another process.
    """

    tf: TestFunction
    norm_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.tf, self.norm_sq)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return EClassElement, (self.tf, self.norm_sq)

    @property
    def ctx(self) -> DepthContext:
        return self.tf.ctx

    @property
    def n(self) -> int:
        return self.tf.N

    def value_parts(self, g: Mat):
        return self.tf.value_parts(Mat.longest_weyl(self.n, self.ctx.p) @ g)

    def phase(self, g: Mat) -> CycValue:
        return self.value_parts(g)[1]

    def support_profile(self) -> tuple:
        """Valuations v(a_i) of the unique diagonal coset meeting the
        support: |a_i| = T^{(2i-1-n)/2}."""
        n, m = self.n, self.ctx.m
        return tuple(m * (n + 1 - 2 * i) for i in range(1, n + 1))


def _profile_mat(elem: EClassElement) -> Mat:
    return p_power_diag(elem.support_profile(), elem.ctx.p)


def certify_E_class(elem: EClassElement) -> dict:
    """Machine-check the defining conditions on finite grids.

    (i) left K_A-invariance and right K(q^2)-invariance on unit-diagonal
    and one-level-deep congruence representatives; (ii) support: on a
    diagonal valuation box times K-residues, the value vanishes off the
    recorded profile, and the profile coset is actually hit; (iii) the
    recorded squared norm is positive.  Raises ValueError on failure and
    returns the checked counts.

    The K points are read lazily (`iter_cosets`), as far as the checks
    go: the first five, and then up to the first that hits the support.
    """
    ctx, n = elem.ctx, elem.n
    p, m = ctx.p, ctx.m
    a0 = _profile_mat(elem)
    kreps = iter_cosets(SubgroupSpec("K", n, p), max(m, 1))
    head = list(itertools.islice(kreps, 5))
    base_pts = [a0] + [a0 @ k for k in head]
    right = list(itertools.islice(
        iter_cosets(SubgroupSpec("Kq", n, p, 2 * m), 2 * m + 1), 2 * p ** n))
    checked = {"left_KA": 0, "right_Kq2": 0, "support": 0}
    units = [c for c in range(1, p ** m) if c % p != 0]
    for g in base_pts:
        ref = elem.phase(g)
        for vals in itertools.product(units, repeat=n):
            d = Mat.diag(list(vals), p)
            if elem.phase(d @ g) != ref:
                raise ValueError("not left K_A-invariant")
            checked["left_KA"] += 1
        for r in right:
            if elem.phase(g @ r) != ref:
                raise ValueError("not right K(q^2)-invariant")
            checked["right_Kq2"] += 1
    prof = elem.support_profile()
    lo, hi = min(prof) - m, max(prof) + m
    for vals in itertools.product(range(lo, hi + 1), repeat=n):
        if vals == prof:
            continue
        a = p_power_diag(vals, p)
        for k in head[:4]:
            checked["support"] += 1
            if not elem.phase(a @ k).is_zero():
                raise ValueError(f"support leaks to profile {vals}")
    if not any(not elem.phase(a0 @ k).is_zero()
               for k in itertools.chain(head, kreps)):
        raise ValueError("profile coset not in the support")
    if elem.norm_sq <= 0:
        raise ValueError("norm must be positive")
    return checked


@functools.cache
def standard_E_element(ctx: DepthContext, n: int) -> EClassElement:
    """The unit-norm concentrated element, certified once per (ctx, n) in
    a process; a failed certification raises and is not remembered."""
    elem = EClassElement(translate_for_H(ctx, n), Fraction(1))
    certify_E_class(elem)
    return elem


# -- unipotent cells --------------------------------------------------------

# Truncation caps for the noncompact directions: unipotent entries start
# at depth p^{-BOX_START} and the box grows, up to depth p^{-BOX_CAP},
# until two consecutive values agree (`arith.certify`); the outer diagonal
# windows (parabolic case only) widen, by at most SHELL_CAP shells, until
# two consecutive shells are empty.
BOX_START, BOX_CAP, SHELL_CAP = 2, 6, 8


def _cell_levels(ctx: DepthContext, a: Mat, B: int, coords):
    """Per-entry cell levels making the transform integrand constant."""
    m = ctx.m
    v = [valuation(x, ctx.p) for x in a.diagonal()]
    L = {}
    for (k, l) in coords:
        base = 2 * m + v[k] - v[l]
        if l == k + 1:
            base = max(base, 0)
        L[(k, l)] = max(base, -B)
    changed = True
    while changed:
        changed = False
        for (i, j) in coords:
            for (k, j2) in coords:
                if j2 == j and k > i and (i, k) in L \
                        and L[(k, j)] < L[(i, j)] + B:
                    L[(k, j)] = L[(i, j)] + B
                    changed = True
    return L


def _box(ctx: DepthContext, a: Mat, B: int, coords):
    """The unipotent box of entry depth p^{-B} in cells of the computed
    congruence pattern: the range of each coordinate's numerator over p^B,
    and the volume every cell has."""
    p = ctx.p
    L = _cell_levels(ctx, a, B, coords)
    return ([range(p ** (B + L[c])) for c in coords],
            Fraction(p) ** (-sum(L.values())))


def _block_weyl(n: int, nprime: int, p: int) -> Mat:
    """Longest Weyl element of the lower (n - nprime)-block Levi factor."""
    perm = [*range(nprime), *range(n - 1, nprime - 1, -1)]
    return Mat._from_ints(tuple(tuple(int(j == perm[i]) for j in range(n))
                                for i in range(n)), 1, p)


def _head(f: EClassElement, c: Mat, wM: Mat) -> Mat:
    """shift * w_G * c^{-1} * w_M: the constant left factor so that the
    transform integrand is the explicit value at head * u * a * k."""
    return f.tf.shift_weyl @ c.inv() @ wM


@dataclass(frozen=True)
class TransformCells:
    """The surviving cells of a transform box, grouped by K-part, and the
    coefficient `coeff` of every transform value read from them.

    Every cell of the box has the volume `vol`.  Each group is a pair
    (krows, psi): krows are the integer rows mod q^2 of the K-part shared
    by the group's cells, and psi is the group's histogram of psi^{-1}(u)
    exponents mod pB = p^B, as (exponent, count) pairs with positive
    counts.  A box with no group is false."""

    vol: Fraction
    pB: int
    groups: tuple
    coeff: SqrtRational

    def __bool__(self) -> bool:
        return bool(self.groups)


@functools.lru_cache(maxsize=128)
def _w_cell_data(f: EClassElement, c: Mat, a: Mat, B: int,
                 nprime: int) -> TransformCells:
    """Surviving transform cells at box depth B: `_box_cells` under the
    head shift * w_G * c^{-1} * w_M.  The cells carry integers only, one
    psi histogram per K-part and the common cell volume; the transform
    values are read from them at any k by `_phase_at`, which counts each
    value in one integer histogram.

    The cells depend on (f, c, a, B, nprime) alone, not on the K-point,
    so they are kept in one bounded cache, shared by `W_fcg` (which reads
    them at its own k on every call) and by the integrals Q, Q_P.  Every
    caller passes the five arguments positionally, so each box has one
    key.  `_w_cell_data.cache_info()` gives the hits and misses.
    The coefficient `_coeff(f, c)` of the values, which depends on (f, c)
    alone, travels with the cells, so a cached box carries it too.
    """
    return _box_cells(f, _head(f, c, _block_weyl(f.n, nprime, f.ctx.p)),
                      a, B, nprime, _coeff(f, c))


def _box_cells(f: EClassElement, head: Mat, a: Mat, B: int, nprime: int,
               coeff: SqrtRational) -> TransformCells:
    """The cells of the box of depth B for the constant left factor head:
    the phase at k in K is vol times the sum, over the groups (krows, psi)
    and the cells counted in psi, of psi^{-1}(u) times the phase of
    krows k, and coeff times the phase is the value.

    With head = H / h, u = (p^B + X) / p^B and a = A / a0, the cell's
    argument head u a is the integer matrix H (p^B + X) A over
    d = h p^B a0, and `group.box_histograms` sweeps the cells of the box
    as these matrices.  The integrand f(head u a k) vanishes unless the
    Iwasawa a-part of head u a is 1 (the support of f), and then depends
    on its K-part k' only through k' k mod q^2.  One elimination per cell
    (`_unit_a_k_residue`, which gives up at the first pivot that shows
    a != 1) yields krows = k' mod q^2, and cells with equal krows share
    one integer histogram of their psi^{-1}(u) exponents mod p^B.  A
    group whose roots of unity cancel is dropped
    (`CycValue.histogram_is_zero`).
    """
    ctx, n = f.ctx, f.n
    p, pB = ctx.p, ctx.p ** B
    if not a.is_diagonal():
        raise ValueError("the outer factor a must be diagonal")
    coords = [(k, l) for k in range(nprime, n) for l in range(k + 1, n)]
    ranges, vol = _box(ctx, a, B, coords)
    hists = box_histograms(
        head.num, pB, [a.num[j][j] for j in range(n)], coords, ranges,
        _unit_a_k_residue(head.den * pB * a.den, p, 2 * ctx.m))
    return TransformCells(vol, pB, tuple(
        (krows, tuple(h.items())) for krows, h in hists.items()
        if not CycValue.histogram_is_zero(h, p, pB)), coeff)


def _coeff(f: EClassElement, c: Mat) -> SqrtRational:
    """delta_N^{1/2}(c) * c1, the coefficient of every transform value at
    c: c1 with its radicand times p^e2, for e2 = log_p delta_N(c), which
    `group.modular_delta_half_exponent` reads from the integer diagonal
    of c.  The radicand is formed as one Fraction of integers."""
    h = modular_delta_half_exponent(c)
    e2, p, c1 = 2 * h.numerator // h.denominator, f.ctx.p, f.tf.c1
    num, den = c1.radicand.numerator, c1.radicand.denominator
    return SqrtRational(c1.sign, Fraction(num * p ** e2, den) if e2 >= 0
                        else Fraction(num, den * p ** -e2))


@dataclass(frozen=True)
class WValue:
    """coeff * phase, with coeff a positive square root of a rational (the
    modular normalization delta_N^{1/2}(c) times c1) and phase an exact
    cyclotomic sum carrying the cell volumes."""

    coeff: SqrtRational
    phase: CycValue

    def is_zero(self) -> bool:
        return self.phase.is_zero()


def W_fcg(f: EClassElement, c: Mat, a: Mat, k: Mat) -> WValue:
    """The transform at g = a k (a diagonal, k in K), with a stabilization
    certificate over the unipotent box.  (The parabolic variant W_P is
    reached only through `Q_P`, which reads `_w_cell_data` itself.)

    The value is returned at the first box depth B in BOX_START..BOX_CAP
    whose phase equals that of depth B - 1 (`arith.certify`), compared on
    every call at this k.  Each box is the cells of
    `_w_cell_data(f, c, a, B, 0)`, which do not depend on k: its bounded
    cache shares them with every call at the same (f, c, a) and with Q.
    Only k mod q^2 is built per call, and `_phase_at` reads each box at
    it: one integer histogram of (psi exponent, phase exponent) pairs at
    the factor orders (p^B, T), kept as `arith.CountedRoots`.
    The certificate compares two boxes on those integer counts, so no
    value is built for a box it drops; the returned box alone is made a
    value, by `CycValue.from_histogram`, and its cells carry the
    coefficient `_coeff(f, c)`.  The boxes of one call share most of
    their K-parts (at the points tried, those of box B are all among
    those of box B + 1), so the call keeps one dict from a K-part's rows
    to its phase exponent at k, which every box reads and extends: each
    K-part is read once per call.  c, a and k must have the size of f, c
    must be diagonal (the coefficient reads its diagonal), and k must lie
    in K: the cells are read at k mod q^2 only, reduced once.
    """
    if not c.n == a.n == k.n == f.n:
        raise ValueError("c, a and k must have the size of f")
    if not c.is_diagonal():
        raise ValueError("c must be diagonal")
    if not k.in_K():
        raise ValueError("k must lie in K")
    zk = residue_rows(k, 2 * f.ctx.m)
    phases = {}
    # each step carries its box's cells, for the coefficient
    _, (cells, counts) = certify(
        ((cells, _phase_at(f, cells, zk, phases))
         for cells in (_w_cell_data(f, c, a, B, 0)
                       for B in range(BOX_START, BOX_CAP + 1))),
        "transform box cap exceeded without stabilization", "box_cap",
        BOX_CAP, BOX_CAP)
    return WValue(cells.coeff, counts.value())


# -- support laws -----------------------------------------------------------

def pinned_outer_diagonal(f: EClassElement, c: Mat):
    """The unique diagonal a with W(f,c,ak) possibly nonzero, for diagonal
    c and the full Weyl element.  The support of f demands head * u * a in
    (lower unipotent) * K; bottom-up row elimination only touches columns
    to the right of each leading entry, so row i forces its leading entry
    head_ii * a_i to be a unit: v(a_i) = -v(head_ii) exactly.
    Returns (a, valuations)."""
    ctx, n = f.ctx, f.n
    head = _head(f, c, Mat.longest_weyl(n, ctx.p))
    e = [-valuation(head[i, i], ctx.p) for i in range(n)]
    return p_power_diag(e, ctx.p), tuple(e)


def _pinned_partial(f: EClassElement, c: Mat, nprime: int) -> dict:
    """Partially pinned outer valuations for the parabolic transform.

    head = D * P with D diagonal and P a permutation; in the bottom-up
    elimination of D P u a, the leading entry of row i sits in column
    sigma(i) and is untouchable whenever all lower rows lead strictly to
    the right, i.e. sigma(i) is a suffix-minimum.  Those columns j carry
    v(a_j) = -v(D_i) exactly.
    """
    ctx, n = f.ctx, f.n
    head = _head(f, c, _block_weyl(n, nprime, ctx.p))
    sigma, dvals = [], []
    for i in range(n):
        j = next(j for j in range(n) if head.num[i][j])
        sigma.append(j)
        dvals.append(valuation(head[i, j], ctx.p))
    pinned = {}
    suffix_min = n
    for i in range(n - 1, -1, -1):
        if sigma[i] < suffix_min:
            pinned[sigma[i]] = -dvals[i]
            suffix_min = sigma[i]
    return pinned


def D_P_exponent(n: int, nprime: int) -> int:
    """T^{1/2}-unit exponent of D_P = prod_{n' < i <= n} T^{i-(n+1)/2}."""
    return sum(2 * i - (n + 1) for i in range(nprime + 1, n + 1))


def D_P_value(ctx: DepthContext, n: int, nprime: int) -> Fraction:
    return Fraction(ctx.q) ** D_P_exponent(n, nprime)


def qp_bound_rhs(ctx: DepthContext, n: int, nprime: int) -> Fraction:
    """T^{n''(n''-1)/2} for the lower Levi block size n'' = n - nprime."""
    npp = n - nprime
    return Fraction(ctx.T) ** (npp * (npp - 1) // 2)


def abs_det(ctx: DepthContext, c: Mat) -> Fraction:
    """|det c| as an exact rational p-power (c diagonal)."""
    v = sum(valuation(x, ctx.p) for x in c.diagonal())
    return Fraction(ctx.p) ** (-v)


# -- the local integrals ----------------------------------------------------

def _k_transversal(ctx: DepthContext, n: int):
    """K/K(q): |W|^2 is right K(q)-invariant because the transform values
    are right chi-equivariant under K(q)."""
    return enumerate_cosets(SubgroupSpec("K", n, ctx.p), ctx.m)


def _transform_values_over_K(f: EClassElement, cells: TransformCells,
                             kreps):
    """The transform phase at each point k of kreps, in order: `_phase_at`
    at k mod q^2, one `CycValue.from_histogram` per value.  One box is
    read at each K-point, so no K-part is read twice and no exponent
    dict is kept."""
    for k in kreps:
        yield _phase_at(f, cells, residue_rows(k, 2 * f.ctx.m), None).value()


def _phase_at(f: EClassElement, cells: TransformCells, zk,
              phases: dict | None) -> CountedRoots:
    """The transform phase at the K-point with integer rows zk mod q^2, as
    its counted roots of unity.

    A group (krows, psi) contributes where krows zk lies on the support,
    and then its phase is a T-th root of unity of exponent e, read by
    `testfn._explicit_exponent_at` and negated for a conjugate test
    function.  A caller that reads several boxes at one K-point passes
    one dict phases to all of them, which maps the rows of each K-part
    already read there to e, or to None off the support; a K-part not in
    it is read and added.  A caller that reads one box per K-point
    passes None, which keeps nothing: a dict there would only hash
    K-parts that are never read again (about 15 % of a rank-3 K-sweep
    of `Q_P`).  Each psi exponent x mod p^B with count c counts c
    products (psi root, phase root) under the key (x, e).  The histogram
    at the factor orders (p^B, T), times the cell volume, is returned as
    `CountedRoots`, whose `value()` is `CycValue.from_histogram` of it
    and whose equality is decided on the counts.
    """
    sign = -1 if f.tf.conjugate else 1
    ctx = f.ctx
    kcols = list(zip(*zk))
    hist = {}
    for krows, counts in cells.groups:
        if phases is not None and krows in phases:
            e = phases[krows]
        else:
            e = _explicit_exponent_at(krows, kcols, ctx)
            e = None if e is None else sign * e
            if phases is not None:
                phases[krows] = e
        if e is None:
            continue
        for x, count in counts:
            hist[x, e] = hist.get((x, e), 0) + count
    return CountedRoots(hist, cells.vol, (cells.pB, ctx.T), ctx.p)


def _k_square_sum(f: EClassElement, cells, kreps) -> CycValue:
    total = CycSum()
    for val in _transform_values_over_K(f, cells, kreps):
        total.add(val.abs_sq())
    return total.value()


def _any_nonzero_over_K(f: EClassElement, cells, kreps) -> bool:
    """Whether the transform is nonzero at some point of the K-transversal."""
    return any(not val.is_zero()
               for val in _transform_values_over_K(f, cells, kreps))


def _outer_diagonals(f: EClassElement, c: Mat, nprime: int, B: int):
    """(a, cells) for the diagonal a's feeding the Iwasawa outer sum, with
    |a_n| = 1 and cells = _w_cell_data(f, c, a, B, nprime) nonempty.

    For nprime = 0 the support pins a uniquely.  For nprime > 0 the block
    valuations are windowed, with the simple-root support law inside the
    block and an empty-shell widening certificate for the rest, which
    closes at two consecutive empty shells within SHELL_CAP shells.
    """
    ctx, n = f.ctx, f.n
    m = ctx.m
    if nprime == 0:
        a, e = pinned_outer_diagonal(f, c)
        if e[-1] != 0:
            return []
        cells = _w_cell_data(f, c, a, B, 0)
        return [(a, cells)] if cells else []
    det_v = sum(valuation(x, ctx.p) for x in c.diagonal())
    pinned = _pinned_partial(f, c, nprime)

    def tuples(R):
        # e_n = 0, the total is pinned by det-matching, leading columns at
        # suffix-minima of the head permutation are pinned exactly, and
        # the remaining coordinates are windowed
        out = []
        for vals in itertools.product(range(-R, R + 1), repeat=n - 2):
            e = list(vals) + [det_v - sum(vals), 0]
            if any(e[i] != v for i, v in pinned.items() if i < n):
                continue
            if any(e[i] - e[i + 1] < -2 * m for i in range(nprime, n - 1)):
                continue
            out.append(tuple(e))
        return out

    base = 2 * m * (n - 1) + abs(det_v)
    seen, live, empty_streak = set(), [], 0
    for R in range(base, base + SHELL_CAP + 1):
        shell = [e for e in tuples(R) if e not in seen]
        seen.update(shell)
        hits = 0
        for e in shell:
            a = p_power_diag(e, ctx.p)
            cells = _w_cell_data(f, c, a, B, nprime)
            if cells:
                live.append((a, cells))
                hits += 1
        empty_streak = empty_streak + 1 if hits == 0 else 0
        if empty_streak >= 2:
            return live
    raise CertificateCapExceeded(
        "outer shell cap exceeded without certificate", "shell_cap",
        SHELL_CAP, base + SHELL_CAP)


def _q_single_box(f: EClassElement, c: Mat, nprime: int, B: int,
                  kreps) -> CycValue:
    ctx, n = f.ctx, f.n
    vol_kq = haar_volume(SubgroupSpec("Kq", n, ctx.p, ctx.m))
    total = CycSum()
    for a, cells in _outer_diagonals(f, c, nprime, B):
        inner = _k_square_sum(f, cells, kreps)
        total.add(inner * (vol_kq / modular_delta(a)))
    return total.value() * _coeff(f, c).squared()


def Q_P(f: EClassElement, c: Mat, nprime: int) -> Fraction:
    """The (partial) local Rankin--Selberg integral against the primitive-
    row indicator, for the standard parabolic with Levi blocks
    (nprime, n - nprime); nprime = 0 is the full integral Q(phi, f, c).

    Exact nonnegative rational output with a stabilization certificate on
    the unipotent box: the first box depth B in BOX_START..BOX_CAP whose
    value equals that of depth B - 1 (`arith.certify`).  The K/K(q)
    transversal is built once per call and read at every box.  c must be
    diagonal with first nprime entries 1.
    """
    if any(c[i, i] != 1 for i in range(nprime)):
        raise ValueError(f"the first {nprime} entries of c must be 1")
    kreps = _k_transversal(f.ctx, f.n)
    _, (_, value) = certify(
        ((B, _q_single_box(f, c, nprime, B, kreps))
         for B in range(BOX_START, BOX_CAP + 1)),
        "integral box cap exceeded without stabilization", "box_cap",
        BOX_CAP, BOX_CAP)
    r = value.as_rational()
    if r is None or r < 0:
        raise ArithmeticError("integral must be a nonnegative rational")
    return r


# -- scans and tables -------------------------------------------------------

def support_scan_table(f: EClassElement, window) -> dict:
    """Grid scan of Q over diagonal c = diag(p^{-e_1}, ..., p^{-e_n}),
    e_i in `window`: tabulates |det c|, the value, and the bound ratio
    Q * D * |det c| / ||f||^2 (here D = T^0 = 1, the modulus of det on the
    support of f); checks nonvanishing implies D |det c| <= T^{n(n-1)/2}.
    """
    ctx, n = f.ctx, f.n
    rhs = Fraction(ctx.T) ** (n * (n - 1) // 2)
    rows, violations, ratios = [], [], []
    for es in itertools.product(window, repeat=n):
        c = p_power_diag([-e for e in es], ctx.p)
        val = Q_P(f, c, 0)
        det_c = abs_det(ctx, c)
        ratio = val * det_c / f.norm_sq
        rows.append({"c_exponents": es, "det_abs": det_c, "value": val,
                     "ratio": ratio})
        if val != 0:
            ratios.append(ratio)
            if det_c > rhs:
                violations.append(rows[-1])
    return {"rows": rows, "violations": violations, "bound_rhs": rhs,
            "nonzero": len(ratios),
            "ratio_max": max(ratios) if ratios else None}


def QP_nonvanishing_check(f: EClassElement, nprime: int, det_window) -> dict:
    """Scan Q_P over the lower Levi torus: c with first nprime entries 1
    and the rest p^{-j m}, j from `det_window` in T^{1/2}-units; checks
    zero outside D_P |det c| <= T^{n''(n''-1)/2} and counts the nonzero
    points inside."""
    ctx, n = f.ctx, f.n
    npp = n - nprime
    dp = D_P_value(ctx, n, nprime)
    rhs = qp_bound_rhs(ctx, n, nprime)
    rows, violations, nonzero_inside = [], [], 0
    seen = set()
    for js in itertools.product(det_window, repeat=npp):
        key = tuple(sorted(js))
        if key in seen:
            continue
        seen.add(key)
        c = p_power_diag([0] * nprime + [-j * ctx.m for j in js], ctx.p)
        val = Q_P(f, c, nprime)
        det_c = abs_det(ctx, c)
        inside = dp * det_c <= rhs
        rows.append({"block_exponents": js, "det_abs": det_c,
                     "bound_lhs": dp * det_c, "value": val})
        if val != 0 and not inside:
            violations.append(rows[-1])
        if val != 0 and inside:
            nonzero_inside += 1
    return {"rows": rows, "violations": violations,
            "nonzero_inside": nonzero_inside, "bound_rhs": rhs,
            "D_P": dp}


def denominator_scan(f: EClassElement) -> dict:
    """Empirical denominator control.  Over diagonal c = diag(p^{-e_i})
    with sizes e_i scanned up to 6m (entries below p^{-m} are not
    probed beyond rank 2: tiny |c_i| cannot attain the maximum), keep
    those whose pinned outer diagonal is admissible (|a_n| = 1 and
    simple-root coordinates within T) and test the transform on a
    K-residue sample; report the largest entry size max_i v_p(1/c_i)
    (in T-units) seen nonzero.  Points whose unipotent cell budget would
    exceed the cap are recorded as skipped, not silently dropped.
    """
    ctx, n = f.ctx, f.n
    m = ctx.m
    p = ctx.p
    kreps = _k_transversal(ctx, n)
    lo = -6 * m if n <= 2 else -m
    B = BOX_START + 1
    coords = [(k, l) for k in range(n) for l in range(k + 1, n)]
    best = None
    table, skipped = [], []
    for es in itertools.product(range(lo, 6 * m + 1), repeat=n):
        c = p_power_diag([-e for e in es], p)
        a, ev = pinned_outer_diagonal(f, c)
        if ev[-1] != 0:
            continue
        if any(ev[i + 1] - ev[i] > 2 * m for i in range(n - 1)):
            continue  # a inadmissible: simple-root size beyond T
        L = _cell_levels(ctx, a, B, coords)
        if p ** sum(max(B + lv, 0) for lv in L.values()) > 20000:
            skipped.append(es)
            continue
        cells = _w_cell_data(f, c, a, B, 0)
        hit = bool(cells) and _any_nonzero_over_K(f, cells, kreps)
        size = max(es)
        table.append({"c_exponents": es, "nonzero": hit})
        if hit and (best is None or size > best):
            best = size
    d_emp = Fraction(best, 2 * m) if best is not None else None
    return {"table": table, "max_e": best, "empirical_d": d_emp,
            "skipped": skipped}
