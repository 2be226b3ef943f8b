"""Slope-stratified cells of the upper unipotent group and exact Jacquet
character sums.

The upper unipotent group N over Q_p is partitioned into *cells with a
slope*: the slope-0 cell is N(Z_p), and a cell of slope rho > 0 and
remainder l is a subset whose conjugate by the dilation A(rho) =
diag(p^{(n-1)rho}, ..., p^rho, 1) equals a coset u0 * K_N(p^n) of the
depth-n unipotent congruence subgroup (n = matrix size).  The base point
u0 lives over Z/p^n; its minimal entry valuation is the remainder l, and
the pivot (i0, j0) is the entry achieving l with j0 - i0 minimal and then
i0 maximal.  The slope is minimal: some base entry has valuation below
its distance to the diagonal, so conjugating one dilation step less
already leaves the integral points.  Each unipotent matrix lies in
exactly one cell, and the cells meeting a truncated region {v(u_ij) >=
-b} partition it -- verified here by exact residue-class counting.

On a high-slope cell, the integral of h(u) = f[s](w_G u a k) against the
inverse standard character psi^{-1} vanishes exactly.  The mechanism is a
two-parameter family of moves: for x in Z_p, multiply the conjugated
coset on the right by q1 = I + p^{rho-l-1} x E_{j0, i0+1} and restore the
unipotent shape by an exact row reduction q2 (lower triangular, congruent
to I at level rho-l-1).  Both factors conjugate back into a deep
congruence subgroup of the lower Borel, where h is right invariant, so
h(u) = h(u n(u, x)) while the character picks up a full nontrivial sum
over x mod p^{l+1} -- which is zero.  Everything here is a finite exact
computation: integrals are sums over congruence cells whose level is
certified by a one-step refinement comparison.  The move itself, its
congruence properties and the measure preservation of u -> w are checked
on finite quotients by the paper checks of the tests
(`tests/paper_checks.py`).

A cell sum is one sweep of the members shift u a on integers
(`group.box_histograms`, the sweep of the transform cells in `rslocal`
too), read at k: shift u a k has the a-part of shift u a and the K-part
k' k, so each (a-part, K-part) key's phase is read at k by the kernel
`testfn._explicit_exponent_at` and its coefficient from the a-part.
The sweep does not depend on k, so it is cached (`_cell_keys`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import CycValue, DepthContext, SqrtRational, certify, valuation
from .group import (
    Mat,
    SubgroupSpec,
    _a_k_residue,
    _least_valuation,
    box_histograms,
    iter_cosets,
    p_power_diag,
    unipotent_box,
)
from .residue import residue_rows
from .rslocal import EClassElement
from .testfn import _explicit_exponent_at


# -- the dilation and entrywise conjugation ---------------------------------

def conj_by_A(g: Mat, rho: int) -> Mat:
    """A(rho) g A(rho)^{-1}: entry (i, j) is scaled by p^{(j-i) rho}."""
    exps = [(g.n - 1 - i) * rho for i in range(g.n)]
    return (p_power_diag(exps, g.p) @ g
            @ p_power_diag([-e for e in exps], g.p))


def _upper_coords(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _entry_val(x: int, p: int, cap: int) -> int:
    """Valuation of an integer residue mod p^cap, capped at cap."""
    if x % p ** cap == 0:
        return cap
    return valuation(x, p)


def _base_invariants(n: int, p: int, rows) -> tuple:
    """(remainder, pivot, minimal) of a unipotent base point over Z/p^n:
    the least entry valuation above the diagonal, the 0-based (i0, j0)
    achieving it with j0 - i0 minimal and then i0 maximal, and whether
    some entry has valuation below its distance j - i to the diagonal, so
    that no smaller slope reaches the point."""
    vals = {(i, j): _entry_val(rows[i][j], p, n)
            for i, j in _upper_coords(n)}
    l = min(vals.values())
    pivot = min((j - i, -i, (i, j)) for (i, j), v in vals.items()
                if v == l)[2]
    return l, pivot, any(v < j - i for (i, j), v in vals.items())


# -- the cell type ----------------------------------------------------------

@dataclass(frozen=True)
class NiceDomain:
    """A slope cell of the upper unipotent group of GL_n(Q_p).

    slope 0 is all of N(Z_p) (base and pivot are None).  For slope > 0 the
    cell is {u : A(rho) u A(rho)^{-1} in base * K_N(p^n)} with base a
    unipotent matrix over Z/p^n; remainder = min entry valuation of base,
    pivot = the 0-based (i0, j0) achieving it with j0 - i0 minimal, then
    i0 maximal.  Validity (checked on construction): some base entry has
    valuation < j - i, so the slope cannot be lowered.
    """

    n: int
    p: int
    slope: int
    remainder: int
    base: tuple | None
    pivot: tuple | None

    def __post_init__(self):
        n, p = self.n, self.p
        if self.slope == 0:
            if not (self.base is None and self.pivot is None
                    and self.remainder == 0):
                raise ValueError("slope-0 cell carries no base point")
            return
        if self.base is None or self.pivot is None:
            raise ValueError("positive slope needs a base point and pivot")
        mod = p ** n
        rows = self.base
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("base has wrong shape")
        for i in range(n):
            for j in range(n):
                x = rows[i][j]
                if not 0 <= x < mod:
                    raise ValueError("base entries must be reduced mod p^n")
                if i == j and x != 1:
                    raise ValueError("base must be unipotent")
                if i > j and x != 0:
                    raise ValueError("base must be upper triangular")
        l, pivot, minimal = _base_invariants(n, p, rows)
        if l != self.remainder or l >= n:
            raise ValueError("remainder does not match the base point")
        if pivot != self.pivot:
            raise ValueError("pivot does not match the base point")
        if not minimal:
            raise ValueError("slope is not minimal for this base point")

    # -- geometry ----------------------------------------------------------

    def member_grid(self, levels: dict) -> tuple:
        """(ranges, den): the members of the cell at the per-entry levels
        are the matrices 1 + x / den, with x[c] running over ranges[c] for
        the coordinates c of `_upper_coords`, in itertools.product order.
        At slope 0 the cell is N(Z_p), den = 1 and entry (i, j) runs over
        its residues mod p^{n + levels[i, j]}.  Otherwise a member is the
        base lift plus p^n t, t_ij mod p^{levels[i, j]}, conjugated back
        by A(-rho).  Entry (i, j) is (base_ij + p^n t_ij) / p^{(j-i) rho},
        so every numerator is built over den = p^{(n-1) rho}."""
        n, p, rho = self.n, self.p, self.slope
        coords = _upper_coords(n)
        if rho == 0:
            return [range(p ** (n + levels[c])) for c in coords], 1
        top = (n - 1) * rho
        ranges = []
        for i, j in coords:
            step = p ** (n + top - (j - i) * rho)
            start = self.base[i][j] * p ** (top - (j - i) * rho)
            ranges.append(range(start, start + p ** levels[(i, j)] * step,
                                step))
        return ranges, p ** top

    def contains(self, u: Mat) -> bool:
        n, p = self.n, self.p
        if u.n != n or u.p != p or not u.is_upper_unipotent():
            return False
        up = conj_by_A(u, self.slope)
        if not up.is_integral():
            return False
        if self.slope == 0:
            return True
        return residue_rows(up, n) == self.base

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "remainder": self.remainder,
            "pivot": list(self.pivot) if self.pivot else None,
            "base": [list(r) for r in self.base] if self.base else None,
        }


def classify(u: Mat) -> NiceDomain:
    """The unique slope cell containing the upper unipotent matrix u.

    The slope is the least dilation power making the conjugate integral;
    the base point is the conjugate reduced mod p^n.
    """
    n, p = u.n, u.p
    if not u.is_upper_unipotent():
        raise ValueError("input must be upper unipotent")
    rho = 0
    for i in range(n):
        for j in range(i + 1, n):
            x = u[i, j]
            if x != 0:
                rho = max(rho, -(valuation(x, p) // (j - i)))
    if rho == 0:
        return NiceDomain(n, p, 0, 0, None, None)
    base = residue_rows(conj_by_A(u, rho), n)
    l, pivot, _ = _base_invariants(n, p, base)
    return NiceDomain(n, p, rho, l, base, pivot)


# -- decomposition of truncated regions -------------------------------------

def _region_classes(n: int, p: int, b: int):
    """Residue representatives of {u in N : v(u_ij) >= -b} at entry level
    p^n, on which classification and cell membership are constant."""
    coords = _upper_coords(n)
    return unipotent_box(n, p, coords, [range(p ** (n + b))] * len(coords),
                         p ** b)


def decompose_region(n: int, p: int, b: int) -> list:
    """All slope cells meeting {u : v(u_ij) >= -b}, by exhaustive
    classification of the region's residue classes."""
    if b < 0:
        raise ValueError("truncation bound must be nonnegative")
    found = {}
    for u in _region_classes(n, p, b):
        d = classify(u)
        found[(d.slope, d.base)] = d
    return [found[key] for key in sorted(found, key=lambda t: (t[0], t[1] or ()))]


def verify_partition(n: int, p: int, b: int) -> dict:
    """Exactness of decompose_region: every residue class of the region
    lies in exactly one listed cell, and that cell is its classification.
    Returns the reconciled counts; raises on any failure."""
    domains = decompose_region(n, p, b)
    index = {(d.slope, d.base): i for i, d in enumerate(domains)}
    slopes = sorted({d.slope for d in domains})
    counts = {i: 0 for i in range(len(domains))}
    total = 0
    for u in _region_classes(n, p, b):
        total += 1
        # membership in a slope-s cell forces the conjugate's residues, so
        # hits can be counted with one lookup per slope present
        hits = []
        for sl in slopes:
            up = conj_by_A(u, sl)
            if not up.is_integral():
                continue
            key = (0, None) if sl == 0 else (sl, residue_rows(up, n))
            if key in index:
                hits.append(index[key])
        if len(hits) != 1:
            raise ValueError(f"residue class in {len(hits)} cells")
        if not domains[hits[0]].contains(u):
            raise ValueError("index lookup disagrees with membership")
        if classify(u) != domains[hits[0]]:
            raise ValueError("membership disagrees with classification")
        counts[hits[0]] += 1
    if sum(counts.values()) != total:
        raise ValueError("counts do not reconcile")
    return {
        "classes": total,
        "domain_count": len(domains),
        "counts": [counts[i] for i in range(len(domains))],
        "disjoint": True,
        "covering": True,
    }


def _base_points(n: int, p: int, cap: int | None) -> list:
    """The admissible base points over Z/p^n as (remainder, pivot, base),
    sorted; with cap, a deterministic subsample keeping at most cap base
    points per (remainder, pivot) class.  Nothing here depends on the
    slope."""
    coords = _upper_coords(n)
    out = []
    for u in unipotent_box(n, p, coords, [range(p ** n)] * len(coords)):
        l, pivot, minimal = _base_invariants(n, p, u.num)
        if minimal:  # otherwise a smaller slope reaches the base point
            out.append((l, pivot, u.num))
    out.sort()
    if cap is None:
        return out
    kept, seen = [], {}
    for point in out:
        key = point[:2]
        if seen.get(key, 0) < cap:
            kept.append(point)
            seen[key] = seen.get(key, 0) + 1
    return kept


def scan_box_domains(n: int, p: int, rho: int) -> list:
    """All slope-rho cells (every admissible base point over Z/p^n)."""
    if rho < 1:
        raise ValueError("positive slope required")
    return [NiceDomain(n, p, rho, l, base, pivot)
            for l, pivot, base in _base_points(n, p, None)]


# -- exact character sums over a cell ---------------------------------------

def _sqrt_split(r: Fraction) -> tuple:
    """sqrt(r) = c * sqrt(s) with s squarefree: returns (c, s)."""
    if r == 0:
        return Fraction(0), 1
    m = r.numerator * r.denominator
    c_num, s = 1, 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            c_num *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1
    if m > 1:
        t = math.isqrt(m)
        if t * t == m:
            c_num *= t
        else:
            s *= m
    return Fraction(c_num, r.denominator), s


def _parts_clean(parts: dict) -> dict:
    return {rad: v for rad, v in parts.items() if not v.is_zero()}


def _base_levels(domain: NiceDomain, ctx: DepthContext, a: Mat) -> dict:
    """Initial per-entry refinement levels: the superdiagonal must be
    enumerated to level rho - n for the additive character, and every
    entry to the depth at which pushing the perturbation through a and k
    lands in K(q^2)."""
    n, p, m = domain.n, domain.p, ctx.m
    rho = domain.slope
    av = [valuation(x, p) for x in a.diagonal()]
    lv = {}
    for i in range(n):
        for j in range(i + 1, n):
            need = 2 * m - n - (j - i) * rho - (av[j] - av[i])
            if j == i + 1:
                need = max(need, rho - n)
            lv[(i, j)] = max(0, need)
    return lv


def _a_coefficient(f: EClassElement, s: tuple, exps: tuple) -> tuple:
    """The coefficient of the section f[s] at a g whose shift * w_G * g has
    the Iwasawa a-part diag(p^exps): (radical, c) for c * sqrt(radical),
    c1 * delta_U^{1/2}(a) * prod |a_i|^{s_i} with the square root taken
    out of its square's squarefree part."""
    ctx, tf = f.ctx, f.tf
    n = len(exps)
    e2 = sum(exps[i] - exps[j] for i in range(n) for j in range(i + 1, n)) \
        - 2 * sum(si * ai for si, ai in zip(s, exps))
    coeff = tf.c1 * SqrtRational.sqrt(Fraction(ctx.p) ** e2)
    c, rad = _sqrt_split(coeff.squared())
    return rad, c * coeff.sign


@functools.lru_cache(maxsize=256)
def _cell_keys(f: EClassElement, a: Mat, domain: NiceDomain,
               levels: tuple) -> tuple:
    """(keys, den, vol, cells): the members of the cell at the levels
    (sorted (coordinate, level) pairs), swept once on integers as
    shift u a = H (den I + X) A over h * den * t, for shift = H / h,
    u = (den I + X) / den and a = A / t, with one elimination each
    (`group._a_k_residue`).  keys holds ((exps, krows), ((x, count), ...))
    per key: the a-part exponents, the K-part rows mod q^2 and the
    histogram of psi^{-1}(u) exponents x mod den.  vol is the volume of
    one member and cells the number swept.  Nothing here depends on s or
    k, so the `vanishing_check` calls at one (f, a, domain) share it in
    one bounded cache (`rho0_report` reads each cell at `k_count`
    K-points); every caller passes the four arguments positionally.
    `_cell_keys.cache_info()` gives the hits and misses."""
    n, p, rho = domain.n, domain.p, domain.slope
    ranges, den = domain.member_grid(dict(levels))
    shift = f.tf.shift_mat()
    vol = Fraction(p) ** sum((j - i) * rho - n - l for (i, j), l in levels)
    hists = box_histograms(
        shift.num, den, [a.num[j][j] for j in range(n)], _upper_coords(n),
        ranges, _a_k_residue(shift.den * den * a.den, p, 2 * f.ctx.m,
                             _least_valuation(p)))
    keys = tuple((key, tuple(hist.items())) for key, hist in hists.items())
    return keys, den, vol, math.prod(map(len, ranges))


def _cell_sum(f: EClassElement, s: tuple, a: Mat, zk: tuple,
              domain: NiceDomain, levels: dict, phases: dict,
              coeffs: dict) -> tuple:
    """(parts, cells): the exact sum of f[s](w_G u a k) psi^{-1}(u) du
    over the cell, for the K-point k with integer rows zk mod q^2,
    enumerating the conjugated coordinates to the given per-entry levels.

    This is the sum of f[s](w_G u a k) psi^{-1}(u) vol over the members
    u, swept once on integers (`_cell_keys`) and read at k, of the
    section f[s] whose definitional twin is `section_value` in
    `tests/twins.py`;
    it is sound for three reasons.  (1) The section decomposes
    shift_weyl * w_G u a k = shift * u * a * k, because shift_weyl =
    shift * w_G and w_G^2 = 1.  (2) The sweep reads from each member
    the Iwasawa a-part and the K-part k' mod q^2 of shift u a.  A k in K
    leaves the a-part unchanged and moves the K-part to k' k, as in
    `rslocal._box_cells`: the a-part fixes the coefficient
    (`_a_coefficient`).  (3) k' k mod q^2 fixes the phase:
    `_explicit_on_K(k' k)` is root_of_unity(T,
    `testfn._explicit_exponent_at`(k' mod q^2, k mod q^2)).  Upper
    entries = 0 mod q is the same support test, and the explicit phase
    depends only on k' k mod q^2.

    Members with the same (a-part, K-part) key have the same section
    value, so psi^{-1}(u) enters through one histogram per key.  As in
    `rslocal._phase_at`, each radical counts its keys' products (psi
    root) * (phase root), times the key's coefficient, under their
    exponent pairs, made a value by `CycValue.from_histogram` at the
    factor orders (den, T) times the member volume.

    phases maps the rows of each K-part already read at k to its phase
    exponent, or to None off the support, and coeffs each a-part's
    exponents already read at s to `_a_coefficient`; a key not in them
    is read and added.  Sums at one (s, k) may share the two dicts, and
    `vanishing_check` passes the same ones to every level it sums."""
    ctx, tf = f.ctx, f.tf
    keys, den, vol, cells = _cell_keys(f, a, domain,
                                       tuple(sorted(levels.items())))
    kcols = list(zip(*zk))
    acc: dict = {}
    for (exps, krows), hist in keys:
        if krows not in phases:
            e = _explicit_exponent_at(krows, kcols, ctx)
            phases[krows] = -e if e is not None and tf.conjugate else e
        e = phases[krows]
        if e is None:
            continue
        if exps not in coeffs:
            coeffs[exps] = _a_coefficient(f, s, exps)
        rad, coeff = coeffs[exps]
        counts = acc.setdefault(rad, {})
        for x, count in hist:
            counts[x, e] = counts.get((x, e), 0) + count * coeff
    parts = {rad: CycValue.from_histogram(counts, vol, (den, ctx.T))
             for rad, counts in acc.items()}
    return _parts_clean(parts), cells


@dataclass
class CharacterSumValue:
    """An exact value sum_r coeff_r sqrt(r) with cyclotomic coefficients,
    plus the certification data of the cell enumeration."""

    parts: dict
    levels: dict
    cells: int
    certified: bool

    def is_zero(self) -> bool:
        return not self.parts

    def to_json(self) -> dict:
        return {
            "zero": self.is_zero(),
            "parts": {str(r): v.to_json() for r, v in sorted(
                self.parts.items())},
            "levels": {f"{i},{j}": l for (i, j), l in sorted(
                self.levels.items())},
            "cells": self.cells,
            "certified": self.certified,
        }


# the refinements the certificate of `vanishing_check` may make
MAX_REFINE = 3


def vanishing_check(a: Mat, k: Mat, s: tuple, domain: NiceDomain,
                    f: EClassElement) -> CharacterSumValue:
    """The integral of f[s](w_G u a k) psi^{-1}(u) over the cell, as an
    exact finite character sum.  Hypotheses checked: a is diagonal with
    |a_n| = 1 and every simple-root coordinate |a_i / a_{i+1}| <= T,
    and k lies in K, so that the cells of shift u a are read at k
    (`_cell_sum`).  The enumeration level is certified by a one-step
    refinement comparison (`arith.certify`): the levels are refined, at
    most MAX_REFINE + 1 times, until two consecutive sums agree, and each
    level is summed once.  The levels share most of their keys, so the
    call keeps one dict of phase exponents at k and one of a-part
    coefficients at s, which every level reads and extends: each K-part
    and each a-part is read once per call.  Expected zero whenever the
    slope is large."""
    ctx = f.ctx
    n, p, m = f.n, ctx.p, ctx.m
    if domain.n != n or domain.p != p:
        raise ValueError("cell and function sizes disagree")
    # the cells are read at k as a k' k, which needs a diagonal and k in K
    if not a.is_diagonal():
        raise ValueError("the outer factor a must be diagonal")
    if not k.in_K():
        raise ValueError("k must lie in K")
    av = [valuation(x, p) for x in a.diagonal()]
    if av[-1] != 0:
        raise ValueError("last diagonal entry must be a unit")
    if any(av[i] - av[i + 1] < -2 * m for i in range(n - 1)):
        raise ValueError("simple-root coordinates of a exceed T")
    zk = residue_rows(k, 2 * m)
    phases, coeffs = {}, {}

    def steps(levels):
        # the level of a step is its per-entry levels with the count of
        # cells summed there
        for _ in range(MAX_REFINE + 2):
            parts, cells = _cell_sum(f, s, a, zk, domain, levels, phases,
                                     coeffs)
            yield (levels, cells), parts
            levels = {c: l + 1 for c, l in levels.items()}

    ((levels, cells), parts), ((_, cells2), _) = certify(
        steps(_base_levels(domain, ctx, a)),
        "cell refinement did not certify local constancy", "max_refine",
        MAX_REFINE, MAX_REFINE)
    return CharacterSumValue(parts, levels, cells + cells2, True)


# -- the slope threshold report ---------------------------------------------

def hypothesis_diagonal(ctx: DepthContext, n: int) -> Mat:
    """The canonical diagonal satisfying the character-sum hypotheses with
    every simple-root coordinate exactly T: a_i = p^{-2m (n-i)}."""
    return p_power_diag([-2 * ctx.m * (n - i - 1) for i in range(n)],
                        ctx.p)


def _vanishing_rows(task) -> list:
    """The rows of one cell, in K-point order.  A cell is one task, so
    its K-points share its sweep in one process's `_cell_keys`."""
    f, a, klist, s, dom = task
    rows = []
    for ki, k in enumerate(klist):
        cs = vanishing_check(a, k, s, dom, f)
        rows.append({**dom.to_json(), "k_index": ki, "cells": cs.cells,
                     "zero": cs.is_zero()})
    return rows


def _pmap(fn, tasks, jobs: int) -> list:
    """[fn(t) for t in tasks], over jobs worker processes when jobs > 1."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here, so that runs without --jobs do not load the process
    # pool machinery and pay its resident memory
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def rho0_report(f: EClassElement, slope_max: int | None = None,
                domain_cap: int = 2, k_count: int = 2,
                jobs: int = 1) -> dict:
    """Empirical vanishing threshold: evaluate the cell character sum at
    s = 0 for every scan-box cell of each slope up to slope_max (and the
    slope-0 cell), at the canonical hypothesis diagonal and a few K-coset
    representatives.  rho0 is one past the largest slope with a nonzero
    value; every tested cell of slope >= rho0 summed to exactly zero.
    The rows are computed over `jobs` worker processes and come back in
    the same order for every job count."""
    ctx, n = f.ctx, f.n
    p, m = ctx.p, ctx.m
    s = (0,) * n
    if slope_max is None:
        slope_max = 4 * m + n
    a = hypothesis_diagonal(ctx, n)
    klist = list(itertools.islice(
        iter_cosets(SubgroupSpec("K", n, p), max(m, 1)), k_count))
    bases = _base_points(n, p, domain_cap) if slope_max > 0 else []
    tasks = []
    for rho in range(slope_max + 1):
        if rho == 0:
            domains = [NiceDomain(n, p, 0, 0, None, None)]
        else:
            domains = [NiceDomain(n, p, rho, l, base, pivot)
                       for l, pivot, base in bases]
        tasks += [(f, a, klist, s, d) for d in domains]
    rows = [row for cell in _pmap(_vanishing_rows, tasks, jobs)
            for row in cell]
    max_nonzero = max((r["slope"] for r in rows if not r["zero"]),
                      default=None)
    rho0 = 0 if max_nonzero is None else max_nonzero + 1
    return {
        "rank": n, "p": p, "m": m, "vT": 2 * m,
        "slope_max": slope_max,
        "max_nonzero_slope": max_nonzero,
        "rho0": rho0,
        "rows": rows,
    }
