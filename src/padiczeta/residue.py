"""Exact linear algebra over the finite residue rings Z/p^e.

Matrices here are integer tuples reduced mod p^e.  Determinants and
characteristic polynomials are computed over Z on canonical lifts and then
reduced, which keeps everything division-free.  Sizes are tiny (N <= 4), so
cofactor expansion is perfectly adequate and has no failure modes.  An
inverse requires a unit determinant; it is the fraction-free inverse
`Mat.inv` of the lift, reduced mod p^e.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .group import Mat


def int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant by cofactor expansion (small sizes)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * int_det(minor)
    return total


def residue_rows(g: Mat, e: int) -> tuple:
    """The entries of a p-integral Mat reduced modulo p^e, as integer rows
    with canonical entries in [0, p^e)."""
    p, mod = g.p, g.p ** e
    if not g.is_integral():
        raise ValueError("entry not p-integral")
    inv = pow(g.den, -1, mod)
    return tuple(tuple(x * inv % mod for x in row) for row in g.num)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_det(rows) -> list[int]:
    """Determinant of a matrix of integer polynomials (coeff lists)."""
    n = len(rows)
    if n == 1:
        return list(rows[0][0])
    total = [0]
    for j in range(n):
        entry = rows[0][j]
        if not any(entry):
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = _poly_mul(entry, _poly_det(minor))
        sign = (-1) ** j
        total = [x + sign * y for x, y in
                 itertools.zip_longest(total, term, fillvalue=0)]
    return total


def charpoly(rows: list[list[int]]) -> tuple[int, ...]:
    """Coefficients (low to high, monic) of det(x*I - A) over Z."""
    n = len(rows)
    pm = [[([-rows[i][j], 1] if i == j else [-rows[i][j]])
           for j in range(n)] for i in range(n)]
    out = _poly_det(pm)
    out += [0] * (n + 1 - len(out))
    if out[n] != 1:
        raise ArithmeticError("characteristic polynomial is not monic")
    return tuple(out)


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


@dataclass(frozen=True)
class ZMat:
    """A square matrix over Z/p^e with canonical entries in [0, p^e)."""

    entries: tuple
    p: int
    e: int

    @staticmethod
    def make(rows, p: int, e: int) -> "ZMat":
        mod = p ** e
        return ZMat(tuple(tuple(int(x) % mod for x in row) for row in rows),
                    p, e)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def modulus(self) -> int:
        return self.p ** self.e

    @staticmethod
    def identity(n: int, p: int, e: int) -> "ZMat":
        return ZMat.make([[1 if i == j else 0 for j in range(n)]
                          for i in range(n)], p, e)

    @staticmethod
    def from_mat(g: Mat, e: int) -> "ZMat":
        """Reduce an integral Mat modulo p^e."""
        return ZMat(residue_rows(g, e), g.p, e)

    def lift(self) -> Mat:
        """Canonical integral lift with entries in [0, p^e)."""
        return Mat(self.entries, self.p)

    def reduce(self, e: int) -> "ZMat":
        if e > self.e:
            raise ValueError("cannot increase precision")
        return ZMat.make(self.entries, self.p, e)

    def __matmul__(self, other: "ZMat") -> "ZMat":
        n, mod = self.n, self.modulus
        a, b = self.entries, other.entries
        return ZMat(tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % mod
                                for j in range(n)) for i in range(n)),
                    self.p, self.e)

    def add(self, other: "ZMat") -> "ZMat":
        mod = self.modulus
        return ZMat(tuple(tuple((x + y) % mod for x, y in zip(r1, r2))
                          for r1, r2 in zip(self.entries, other.entries)),
                    self.p, self.e)

    def det(self) -> int:
        return int_det([list(r) for r in self.entries]) % self.modulus

    def is_unit(self) -> bool:
        return self.det() % self.p != 0

    def inv(self) -> "ZMat":
        """The inverse of the lift over Q, reduced: its denominator is the
        determinant, a unit mod p."""
        if self.det() % self.p == 0:
            raise ZeroDivisionError("non-unit determinant")
        return ZMat(residue_rows(self.lift().inv(), self.e), self.p, self.e)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.n))

    def apply(self, vec) -> tuple[int, ...]:
        mod = self.modulus
        return tuple(sum(self.entries[i][k] * vec[k]
                         for k in range(self.n)) % mod
                     for i in range(self.n))

    @staticmethod
    def from_columns(cols, p: int, e: int) -> "ZMat":
        n = len(cols)
        return ZMat.make([[cols[j][i] for j in range(n)] for i in range(n)],
                         p, e)

    def __repr__(self):
        return f"ZMat({self.entries}, mod {self.p}^{self.e})"


def enumerate_matrices(n: int, p: int, e: int):
    """All n x n matrices over Z/p^e (lexicographic order)."""
    mod = p ** e
    for vals in itertools.product(range(mod), repeat=n * n):
        yield ZMat(tuple(tuple(vals[i * n + j] for j in range(n))
                         for i in range(n)), p, e)


def enumerate_GL(n: int, p: int, e: int):
    """All elements of GL_n(Z/p^e) (lexicographic order)."""
    for z in enumerate_matrices(n, p, e):
        if z.is_unit():
            yield z


def centralizer_in_GL(tau: ZMat):
    """Elements of GL commuting with tau over Z/p^e (exhaustive)."""
    return [g for g in enumerate_GL(tau.n, tau.p, tau.e)
            if g @ tau == tau @ g]
