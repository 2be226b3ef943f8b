"""GL_N over the p-adic rationals with exact arithmetic.

A matrix is stored as integer numerator rows over one common positive
denominator, in lowest terms, with a prime context; `g[i, j]` reads one
entry as a Fraction.  Products, determinants, inverses and the
decompositions below run on the integers and reduce each result once, by
a single gcd; the boxes of matrices that the integrals sum over are built
on the integers too (`unipotent_box`, and `box_columns` column by
column, which `box_histograms` sweeps as the members of head u a, each
read once and counted by its psi^{-1}(u) exponent).  Elimination is fraction-free (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): every intermediate entry is an
integer minor.  The module provides the two decompositions every
integration in the library is built on:

* Iwasawa  g = u a k  (u lower unipotent), computed by row elimination
  with minimal-valuation column pivoting, so the k-factor is genuinely in
  K = GL_N(Z_p) and the a-part is normalized to pure p-powers (units are
  folded into k);
* the Bruhat open cell  g = u a n  (LDU), which exists iff every leading
  principal minor is nonzero, with a_i = Delta_i / Delta_{i-1}.

Haar measure follows the usual local normalizations: K, K_A, N(o), U(o) all
have volume 1, so the volume of a compact open subgroup is the reciprocal of
an index, and every integral over a compact open set in this library is a
finite sum of coset representatives weighted by such volumes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .arith import valuation


class Mat:
    """An invertible-or-not square matrix over Q with a prime context.

    `num` holds the integer numerator rows and `den` the common positive
    denominator, with no factor shared by `den` and every numerator.
    """

    __slots__ = ("p", "n", "num", "den")

    def __init__(self, rows, p: int):
        ents = [[x if type(x) is int else Fraction(x) for x in row]
                for row in rows]
        n = len(ents)
        if any(len(r) != n for r in ents):
            raise ValueError("matrix must be square")
        # the lcm of reduced denominators is already in lowest terms
        den = math.lcm(*(x.denominator for r in ents for x in r))
        self.num = tuple(tuple(x.numerator * (den // x.denominator)
                               for x in r) for r in ents)
        self.den, self.n, self.p = den, n, p

    @classmethod
    def _from_ints(cls, num, den: int, p: int) -> "Mat":
        """num / den for integer rows (tuples) and a nonzero integer den,
        reduced to lowest terms with a positive denominator."""
        g = math.gcd(den, *itertools.chain.from_iterable(num))
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(tuple(x // g for x in r) for r in num)
            den //= g
        m = cls.__new__(cls)
        m.num, m.den, m.n, m.p = num, den, len(num), p
        return m

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(n: int, p: int) -> "Mat":
        return Mat._from_ints(tuple(tuple(int(i == j) for j in range(n))
                                    for i in range(n)), 1, p)

    @staticmethod
    def diag(entries, p: int) -> "Mat":
        entries = list(entries)
        n = len(entries)
        return Mat([[entries[i] if i == j else 0 for j in range(n)]
                    for i in range(n)], p)

    @staticmethod
    def from_text(text: str, p: int) -> "Mat":
        """Rows separated by ';' of entries 'num' or 'num/den' separated by
        ',', parsed straight into numerators over one common
        denominator."""
        ents = [[_text_entry(e) for e in row.split(",")]
                for row in text.split(";")]
        n = len(ents)
        if any(len(r) != n for r in ents):
            raise ValueError("matrix must be square")
        den = math.lcm(*(d for r in ents for _, d in r))
        return Mat._from_ints(tuple(tuple(x * (den // d) for x, d in r)
                                    for r in ents), den, p)

    def to_text(self) -> str:
        """Each entry as 'num/den' in lowest terms (the form `from_text`
        reads back)."""
        den = self.den
        return ";".join(",".join(f"{x // g}/{den // g}"
                                 for x in r for g in (math.gcd(x, den),))
                        for r in self.num)

    @staticmethod
    def longest_weyl(n: int, p: int) -> "Mat":
        """w_G: the antidiagonal permutation matrix."""
        return Mat._from_ints(tuple(tuple(int(i + j == n - 1)
                                          for j in range(n))
                                    for i in range(n)), 1, p)

    @staticmethod
    def elementary(n: int, p: int, i: int, j: int, c) -> "Mat":
        """I + c E_{ij} (0-based indices, i != j)."""
        rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        rows[i][j] = c
        return Mat(rows, p)

    # -- basics -----------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.n != other.n or self.p != other.p:
            raise ValueError("size/context mismatch")
        cols = tuple(zip(*other.num))
        return Mat._from_ints(
            tuple(tuple(sum(map(mul, r, c)) for c in cols)
                  for r in self.num),
            self.den * other.den, self.p)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.p == other.p
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.p, self.den, self.num))

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def transpose(self) -> "Mat":
        return Mat._from_ints(tuple(zip(*self.num)), self.den, self.p)

    def flip(self) -> "Mat":
        """w x w for the longest Weyl element w: rows and columns
        reversed."""
        return Mat._from_ints(tuple(r[::-1] for r in self.num[::-1]),
                              self.den, self.p)

    def det(self) -> Fraction:
        return Fraction(_bareiss_det(self.num), self.den ** self.n)

    def inv(self) -> "Mat":
        """Fraction-free Gauss-Jordan on [num | I]: after step i the left
        block is zero off the diagonal in columns <= i, and at the end it
        is Delta * I for the determinant Delta of num (up to sign), so the
        right block is Delta * num^{-1}."""
        n = self.n
        work = [list(r) + [int(i == j) for j in range(n)]
                for i, r in enumerate(self.num)]
        prev = 1
        for i in range(n):
            piv_row = next((r for r in range(i, n) if work[r][i]), None)
            if piv_row is None:
                raise ZeroDivisionError("singular matrix")
            work[i], work[piv_row] = work[piv_row], work[i]
            top = work[i]
            piv = top[i]
            for r in range(n):
                if r != i:
                    row = work[r]
                    f = row[i]
                    work[r] = [(piv * x - f * y) // prev
                               for x, y in zip(row, top)]
            prev = piv
        den = self.den
        return Mat._from_ints(tuple(tuple(den * x for x in r[n:])
                                    for r in work), prev, self.p)

    # -- valuation-based membership ---------------------------------------

    def is_integral(self) -> bool:
        # in lowest terms, p | den forces an entry of negative valuation
        return self.den % self.p != 0

    def in_K(self) -> bool:
        # with p prime to den, p divides det = D / den^n iff it divides
        # the last Bareiss pivot, which is D up to sign
        if not self.is_integral():
            return False
        out = _eliminate(self.num, _first_nonzero)
        return out is not None and out[0][-1][-1] % self.p != 0

    def in_congruence(self, e: int) -> bool:
        """Membership in K(p^e), e >= 1: congruent to 1 modulo p^e
        entrywise."""
        if not self.is_integral():
            return False
        pe, den = self.p ** e, self.den
        return all((x - den if i == j else x) % pe == 0
                   for i, r in enumerate(self.num)
                   for j, x in enumerate(r))

    def is_upper_unipotent(self) -> bool:
        den = self.den
        for i, r in enumerate(self.num):
            for j, x in enumerate(r):
                if i == j:
                    if x != den:
                        return False
                elif i > j:
                    if x != 0:
                        return False
        return True

    def is_diagonal(self) -> bool:
        return all(x == 0 for i, r in enumerate(self.num)
                   for j, x in enumerate(r) if i != j)

    def superdiagonal_sum(self) -> Fraction:
        """The sum of the entries (i, i + 1)."""
        return Fraction(sum(r[i + 1] for i, r in enumerate(self.num[:-1])),
                        self.den)

    def diagonal(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(r[i], den) for i, r in enumerate(self.num))

    def __repr__(self):
        return f"Mat[{self.to_text()}; p={self.p}]"


def _text_entry(s: str) -> tuple[int, int]:
    """(numerator, denominator) of an entry 'num' or 'num/den'."""
    num, den = s.split("/") if "/" in s else (s, "1")
    num, den = int(num), int(den)
    if den == 0:
        raise ValueError(f"zero denominator in entry {s.strip()!r}")
    return num, den


def _rows_over(rows, dens, p: int) -> Mat:
    """The Mat whose row i is the integer row rows[i] divided by dens[i]."""
    den = math.lcm(*dens)
    return Mat._from_ints(tuple(tuple(x * (den // d) for x in r)
                                for r, d in zip(rows, dens)), den, p)


def p_power_diag(exps, p: int) -> Mat:
    """diag(p^e for e in exps), built on the integers."""
    exps = tuple(exps)
    shift = max(0, -min(exps))
    return Mat._from_ints(tuple(tuple(p ** (e + shift) if i == j else 0
                                      for j in range(len(exps)))
                                for i, e in enumerate(exps)), p ** shift, p)


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------

def _first_nonzero(row, i):
    for j in range(i, len(row)):
        if row[j]:
            return j, None
    return None


def _diagonal_pivot(row, i):
    return (i, None) if row[i] else None


def _least_valuation(p: int):
    """The Iwasawa pivot rule: the entry of least p-adic valuation,
    leftmost on ties, with that valuation.  It is the valuation v of the
    gcd of the entries, and an entry has it exactly when p^(v+1) does not
    divide it."""
    def pick(row, i):
        g = math.gcd(*row[i:])
        if not g:
            return None
        v = valuation(g, p)
        s = p ** (v + 1)
        return next(j for j in range(i, len(row)) if row[j] % s), v
    return pick


def _unit_a_pivot(p: int, vd: int):
    """The Iwasawa pivot rule `_least_valuation` for the integer rows
    d * g of a matrix g over a denominator d with v(d) = vd, with an early
    exit: None (so `_eliminate` gives up) at the first step i whose least
    valuation is not (i + 1) * vd, which is otherwise the pivot's
    valuation.

    Why the exit is sound: the pivot of step i is the leading minor
    Delta_{i+1} of d * g with its columns permuted, and `iwasawa_UAK` reads
    a_i = p^(v(Delta_{i+1}) - v(Delta_i) - vd).  So a = 1 exactly when
    v(Delta_{i+1}) = (i + 1) * vd at every step, and up to the exit both
    rules pick the same column (the leftmost of least valuation).  The
    elimination runs to the end exactly when the a-part of g is 1, and
    then its work and column order are those of `iwasawa_UAK`.
    """
    def pick(row, i):
        v = (i + 1) * vd
        s = p ** v
        if any(x % s for x in row[i:]):
            return None  # a valuation below (i + 1) * vd
        return next(((j, v) for j in range(i, len(row)) if row[j] // s % p),
                    None)
    return pick


def _eliminate(num, pick):
    """Bareiss row elimination, with column pivoting, on a copy of the
    integer rows num.

    Step i takes its pivot in row i at the position j >= i of pick(row,
    i) = (j, v) and swaps that column into position i in every row; v is
    what the rule measured of the pivot (its valuation under the Iwasawa
    rules, None under the others).  pick returns None when there is no
    admissible pivot, and so does this function.  Step i replaces row
    r > i by (piv * row_r - row_r[i] * row_i) / prev, an exact division,
    so every entry stays an integer minor of the column-permuted matrix:
    work[i][i] is its (i+1)-th leading principal minor.
    Returns (work, cols, vals), where cols[c] is the original index of
    column position c and vals[i] is the v of step i.  The upper triangle
    of work holds the eliminated rows and the strict lower triangle the
    multiplier numerators: the LDU multiplier clearing entry (r, i) is
    work[r][i] / work[i][i].
    """
    n = len(num)
    work = [list(r) for r in num]
    cols = list(range(n))
    vals = []
    prev = 1
    for i in range(n):
        picked = pick(work[i], i)
        if picked is None:
            return None
        j, v = picked
        vals.append(v)
        if j != i:
            for row in work:
                row[i], row[j] = row[j], row[i]
            cols[i], cols[j] = cols[j], cols[i]
        top = work[i]
        piv = top[i]
        for r in range(i + 1, n):
            row = work[r]
            f = row[i]
            for c in range(i + 1, n):
                row[c] = (piv * row[c] - f * top[c]) // prev
        prev = piv
    return work, cols, vals


def _bareiss_det(num) -> int:
    """The determinant of the square integer rows num: the last pivot of
    `_eliminate` under `_first_nonzero`, signed by the column order."""
    out = _eliminate(num, _first_nonzero)
    if out is None:
        return 0
    work, cols, _ = out
    n = len(num)
    inversions = sum(cols[a] > cols[b]
                     for a in range(n) for b in range(a + 1, n))
    return (-1) ** inversions * work[-1][-1]


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IwasawaUAK:
    u: Mat  # lower unipotent
    a: Mat  # diagonal, pure p-powers
    k: Mat  # in K


@dataclass(frozen=True)
class BruhatLDU:
    u: Mat  # lower unipotent
    a: Mat  # diagonal
    n: Mat  # upper unipotent


def _unit_lower(work, p: int) -> Mat:
    """The unit lower triangular factor with entries work[r][i] /
    work[i][i] below the diagonal."""
    n = len(work)
    return _rows_over([[work[r][i] if r >= i else 0 for r in range(n)]
                       for i in range(n)],
                      [work[i][i] for i in range(n)], p).transpose()


def iwasawa_UAK(g: Mat) -> IwasawaUAK:
    """g = u a k with u lower unipotent, a diagonal pure p-powers, k in K.

    Row elimination with column pivoting: in each working row the pivot
    is the entry of minimal valuation (ties to the leftmost), so the
    column permutation and the unipotent column operations that clear the
    row to the right of its pivot are p-integral and stay inside K.  The
    row multipliers are u, the pivots t_i = Delta_i / Delta_{i-1} give
    a_i = p^{v(t_i)}, and the eliminated rows, scaled to unit diagonal,
    are the inverse of the accumulated column operations, so
    k = (t / a) * (eliminated rows) with the columns put back in order.
    A singular g has a row without any pivot and raises ZeroDivisionError.
    """
    n, p, d = g.n, g.p, g.den
    out = _eliminate(g.num, _least_valuation(p))
    if out is None:
        raise ZeroDivisionError("singular matrix")
    work, cols, vals = out
    # over the integer matrix d * g, t_i = minor_i / (d * minor_{i-1});
    # the pivot rule measured the valuations of the minors
    minors = [1] + [work[i][i] for i in range(n)]
    vd = valuation(d, p)
    vmin = [0, *vals]
    exps = [vmin[i + 1] - vmin[i] - vd for i in range(n)]
    # row i of k is work[i] / (d * minor_{i-1} * a_i), columns restored
    krows, kdens = [], []
    for i, e in enumerate(exps):
        row = [0] * n
        for c in range(i, n):
            row[cols[c]] = work[i][c] * p ** max(-e, 0)
        krows.append(row)
        kdens.append(d * minors[i] * p ** max(e, 0))
    return IwasawaUAK(_unit_lower(work, p), p_power_diag(exps, p),
                      _rows_over(krows, kdens, p))


def _a_k_residue(d: int, p: int, e: int, pick):
    """The Iwasawa a-part and K-part mod p^e of the matrices g = num / d
    over one positive denominator d (not necessarily in lowest terms), as
    a function of the integer rows num: (exps, rows) with a =
    diag(p^exps) and the rows of k mod p^e in [0, p^e), or None when
    `_eliminate` finds no pivot.

    `_eliminate` runs under pick, the Iwasawa rule `_least_valuation` or
    a rule that agrees with it wherever it does not give up, and hands
    over the valuation of each pivot that the rule measured.  As in
    `iwasawa_UAK`, the pivot work[i][i] is the leading minor Delta_{i+1}
    of num with its columns permuted, so exps[i] = v(Delta_{i+1}) -
    v(Delta_i) - v(d), and row i of k is work[i] /
    (d * Delta_i * p^exps[i]) (Delta_0 = 1) with the columns put back in
    order.  That denominator has valuation v(Delta_{i+1}), the least
    valuation in the row, which is stripped from both sides before the
    unit part of d * Delta_i is inverted mod p^e.  On a multiple c * num
    over c * d the pivot rows and d * Delta_i all scale by c^(i+1), so
    exps and the rows are those of g in lowest terms: they equal the
    exponents of `iwasawa_UAK(g).a` and `residue_rows(iwasawa_UAK(g).k,
    e)`.
    """
    vd = valuation(d, p)
    mod, unit_d = p ** e, d // p ** vd

    def read(num):
        out = _eliminate(num, pick)
        if out is None:
            return None
        work, cols, vals = out
        # the valuation and the unit part of d * Delta_i
        n, vbelow, unit = len(work), vd, unit_d
        exps, rows = [], []
        for i, (r, vpiv) in enumerate(zip(work, vals)):
            exps.append(vpiv - vbelow)
            s = p ** vpiv
            inv = pow(unit, -1, mod)
            row = [0] * n
            for c in range(i, n):
                row[cols[c]] = r[c] // s * inv % mod
            rows.append(tuple(row))
            vbelow, unit = vd + vpiv, unit_d * (r[i] // s)
        return tuple(exps), tuple(rows)
    return read


def _unit_a_k_residue(d: int, p: int, e: int):
    """The Iwasawa K-part mod p^e of g = num / d as a function of num, or
    None when the a-part of g is not 1: the reader `_a_k_residue` under
    the early-exit rule `_unit_a_pivot`, which gives up at the first
    pivot that shows a != 1 and otherwise eliminates as the Iwasawa rule
    does, with the pivot of step i at valuation (i + 1) * v(d).  So the
    rows equal `residue_rows(iwasawa_UAK(g).k, e)`.
    """
    read = _a_k_residue(d, p, e, _unit_a_pivot(p, valuation(d, p)))

    def k_part(num):
        out = read(num)
        return None if out is None else out[1]
    return k_part


def bruhat_open_cell(g: Mat) -> BruhatLDU | None:
    """g = u a n (lower-unipotent, diagonal, upper-unipotent).  Exists iff
    every leading principal minor is nonzero; a_i = Delta_i/Delta_{i-1}."""
    n, p, d = g.n, g.p, g.den
    out = _eliminate(g.num, _diagonal_pivot)
    if out is None:
        return None
    work = out[0]
    minors = [1] + [work[i][i] for i in range(n)]
    a = Mat.diag([Fraction(minors[i + 1], d * minors[i]) for i in range(n)],
                 p)
    upper = _rows_over([[x if c >= i else 0 for c, x in enumerate(r)]
                        for i, r in enumerate(work)], minors[1:], p)
    return BruhatLDU(_unit_lower(work, p), a, upper)


# ---------------------------------------------------------------------------
# modular characters
# ---------------------------------------------------------------------------

def modular_delta(a: Mat) -> Fraction:
    """delta_N(a) = prod_{i<j} |a_i/a_j| = p^(sum_{i<j} v(a_j) - v(a_i))
    (delta_U is its inverse): p to twice `modular_delta_half_exponent`,
    one valuation per diagonal entry.  A zero diagonal entry raises
    ZeroDivisionError."""
    return Fraction(a.p) ** (2 * modular_delta_half_exponent(a))


def modular_delta_half_exponent(a: Mat) -> Fraction:
    """log_p of delta_N^(1/2)(a), an exact (half-)integer p-exponent: half
    the sum over i < j of v(a_j) - v(a_i), in which v(a_j) has the weight
    j - (n - 1 - j).  The entries share the denominator of a, which
    cancels in each difference, so one valuation per integer diagonal
    entry of a.num is taken; a zero diagonal entry raises
    ZeroDivisionError."""
    v = [valuation(r[i], a.p) for i, r in enumerate(a.num)]
    n = len(v)
    return Fraction(sum((2 * j - n + 1) * x for j, x in enumerate(v)), 2)


# ---------------------------------------------------------------------------
# Haar volumes and coset enumeration
# ---------------------------------------------------------------------------

def gl_order(n: int, p: int, e: int) -> int:
    """|GL_n(Z/p^e)| for e >= 1."""
    if e < 1:
        raise ValueError("e must be >= 1")
    base = 1
    for k in range(n):
        base *= p ** n - p ** k
    return p ** ((e - 1) * n * n) * base


@dataclass(frozen=True)
class SubgroupSpec:
    """A symbolic compact open subgroup of GL_N(Q_p).

    tag in {"K", "Kq", "KN", "KU", "KA", "KQ"}; e is the congruence level as
    a p-exponent (so the level-q^j subgroup at depth m has e = j*m).  "K" has
    e = 0; for the unipotent/diagonal families e = 0 means the full integral
    points.  It names the transversals of `enumerate_cosets` and the
    volumes of `haar_volume`.
    """

    tag: str
    N: int
    p: int
    e: int = 0

    def __post_init__(self):
        if self.tag not in {"K", "Kq", "KN", "KU", "KA", "KQ"}:
            raise ValueError(f"unknown subgroup tag {self.tag}")
        if self.tag == "Kq" and self.e < 1:
            raise ValueError("principal congruence subgroup needs e >= 1")


def haar_volume(spec: SubgroupSpec) -> Fraction:
    """Exact volume of spec inside its normalized ambient group."""
    N, p, e = spec.N, spec.p, spec.e
    dim_nilp = N * (N - 1) // 2
    if spec.tag == "K":
        return Fraction(1)
    if spec.tag == "Kq":
        return Fraction(1, gl_order(N, p, e))
    if spec.tag in ("KN", "KU"):
        return Fraction(1, p ** (e * dim_nilp))
    if spec.tag == "KA":
        if e == 0:
            return Fraction(1)
        return Fraction(1, ((p - 1) * p ** (e - 1)) ** N)
    if spec.tag == "KQ":
        return (haar_volume(SubgroupSpec("KA", N, p, e))
                * haar_volume(SubgroupSpec("KU", N, p, e)))
    raise ValueError(f"unknown subgroup tag {spec.tag}")


def open_cell_density(N: int, p: int) -> Fraction:
    """c0 in dg = c0 * delta_N(a) du da dn: the Haar proportion of K lying on
    the open cell, i.e. |U(F_p)| |A(F_p)| |N(F_p)| / |GL_N(F_p)|."""
    cell = (p - 1) ** N * p ** (N * (N - 1))
    return Fraction(cell, gl_order(N, p, 1))


def unipotent_box(n: int, p: int, coords, values, den: int = 1):
    """The matrices 1 + x / den, x zero off coords and x[c] running over
    the integers values[c], in itertools.product order; built on the
    integers."""
    one = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    for vals in itertools.product(*values):
        rows = [r[:] for r in one]
        for (i, j), v in zip(coords, vals):
            rows[i][j] += v
        yield Mat._from_ints(tuple(map(tuple, rows)), den, p)


def box_columns(H, den: int, scale, coords, ranges, weights) -> list:
    """The column candidates of the box of integer matrices
    H (den I + X) diag(scale), X zero off coords and X[c] running over
    the integers ranges[c].

    Column j of a box member depends only on column j of X, so the box is
    the itertools.product of the returned lists: list j holds one
    (column, share) pair per value of the entries X[t][j], (t, j) in
    coords, in itertools.product order, with the exact integer column and
    the share sum weights[c] X[c] over those entries (a coordinate missing
    from the dict weights has weight 0).  The list is built one
    coordinate at a time: each coordinate adds its multiples of the
    scaled column t of H to the candidates of the coordinates before
    it."""
    tables = []
    for j, s in enumerate(scale):
        cands = [(tuple(den * s * r[j] for r in H), 0)]
        for c, values in zip(coords, ranges):
            if c[1] != j:
                continue
            h, w = [s * r[c[0]] for r in H], weights.get(c, 0)
            steps = [(tuple(x * y for y in h), w * x) for x in values]
            cands = [(tuple(map(add, col, dcol)), share + dw)
                     for col, share in cands for dcol, dw in steps]
        tables.append(cands)
    return tables


def box_histograms(H, den: int, scale, coords, ranges, read) -> dict:
    """The members H (den I + X) diag(scale) of the box of `box_columns`,
    counted by read: {key: {x: count}}, with key = read(rows) for each
    member's integer rows (a member whose key is None is skipped) and
    x = -(superdiagonal sum of X) mod den, the exponent of
    psi^{-1}(1 + X / den) as a den-th root of unity.  The members are
    walked in the order of the product of the column tables."""
    tables = box_columns(H, den, scale, coords, ranges,
                         {(j - 1, j): 1 for j in range(1, len(scale))})
    hists: dict = {}
    for member in itertools.product(*tables):
        cols, shares = zip(*member)
        key = read(list(zip(*cols)))
        if key is None:
            continue
        h = hists.setdefault(key, {})
        x = -sum(shares) % den
        h[x] = h.get(x, 0) + 1
    return hists


def iter_cosets(spec: SubgroupSpec, L: int) -> Iterator[Mat]:
    """Representatives of spec modulo its own level-L congruence kernel,
    one at a time.

    L is a p-exponent with L >= spec.e; a lower L or an unknown tag raises
    at the call, not at the first item.  Enumeration order is
    deterministic (lexicographic in entry residues).  For "Kq" the
    representatives are 1 + x with x running over p^e M_N mod p^L, which
    is a genuine transversal because k' k^{-1} in K(p^L) iff
    k' = k + p^L * (integral) for k in K.  A caller that reads a prefix
    builds only that prefix: "K" filters every matrix mod p^L by its
    determinant, p^(L N^2) candidates in all.
    """
    N, p, e = spec.N, spec.p, spec.e
    if L < max(e, 1):
        raise ValueError("L below subgroup level")
    digits = range(0, p ** L, p ** e)
    if spec.tag in ("Kq", "KN", "KU"):
        coords = [(i, j) for i in range(N) for j in range(N)
                  if {"Kq": True, "KN": i < j, "KU": i > j}[spec.tag]]
        return unipotent_box(N, p, coords, [digits] * len(coords))
    if spec.tag == "KA":
        if e == 0:
            units = [c for c in range(1, p ** L) if c % p != 0]
        else:
            units = [1 + v for v in digits]
        return (Mat.diag(list(vals), p)
                for vals in itertools.product(units, repeat=N))
    if spec.tag == "KQ":
        a_reps = enumerate_cosets(SubgroupSpec("KA", N, p, e), L)
        u_reps = enumerate_cosets(SubgroupSpec("KU", N, p, e), L)
        return (a @ u for a in a_reps for u in u_reps)
    if spec.tag == "K":
        # every matrix mod p^L: the diagonal of x starts at -1, so that
        # the diagonal of 1 + x runs over 0, ..., p^L - 1
        pl = p ** L
        coords = [(i, j) for i in range(N) for j in range(N)]
        box = unipotent_box(N, p, coords, [range(-1, pl - 1) if i == j
                                           else range(pl) for i, j in coords])
        return (g for g in box if g.det() % p != 0)
    raise ValueError(f"unknown subgroup tag {spec.tag}")


def enumerate_cosets(spec: SubgroupSpec, L: int) -> list[Mat]:
    """The representatives of `iter_cosets`, as a list in the same order."""
    return list(iter_cosets(spec, L))
