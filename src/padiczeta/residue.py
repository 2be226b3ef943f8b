"""Exact linear algebra over the finite residue rings Z/p^e.

Matrices here are integer tuples reduced mod p^e.  Determinants are
computed over Z on canonical lifts and then reduced; every determinant is
the fraction-free (Bareiss) elimination that `Mat.det` uses.  An inverse
is the fraction-free inverse `Mat.inv` of the lift, reduced mod p^e; it
exists exactly when that inverse is p-integral, that is when the
determinant is a unit.  Centralizers in GL are lifted digit by digit
from the residue field, so no enumeration runs over all of M_n(Z/p^e).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .group import Mat, _bareiss_det


def int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant, by the elimination `Mat.det` shares."""
    return _bareiss_det(rows)


def residue_rows(g: Mat, e: int) -> tuple:
    """The entries of a p-integral Mat reduced modulo p^e, as integer rows
    with canonical entries in [0, p^e)."""
    p, mod = g.p, g.p ** e
    if not g.is_integral():
        raise ValueError("entry not p-integral")
    inv = pow(g.den, -1, mod)
    return tuple(tuple(x * inv % mod for x in row) for row in g.num)


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

    def det(self) -> int:
        return int_det(self.entries) % self.modulus

    def is_unit(self) -> bool:
        return self.det() % self.p != 0

    def inv(self) -> "ZMat":
        """The inverse of the lift over Q, reduced, from one elimination:
        a nonsingular lift has a p-integral inverse exactly when its
        determinant is a unit, so p must not divide the inverse's den."""
        try:
            inv = self.lift().inv()
        except ZeroDivisionError:
            inv = None
        if inv is None or not inv.is_integral():
            raise ZeroDivisionError("non-unit determinant")
        return ZMat(residue_rows(inv, self.e), self.p, self.e)

    def embed(self, N: int) -> "ZMat":
        """The block matrix diag(self, 1, ..., 1) of size N: GL_n(Z/p^e)
        in the upper left block of GL_N(Z/p^e)."""
        n = self.n
        return ZMat(tuple(tuple(self.entries[i][j] if i < n and j < n
                                else int(i == j) for j in range(N))
                          for i in range(N)), self.p, self.e)

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


def _commutes(x, t, n: int, mod: int) -> bool:
    """Whether x t = t x mod `mod`, for x given as its n * n entries in
    row order and t as integer rows: entry by entry, up to the first entry
    that differs."""
    for i in range(n):
        row, trow = x[i * n:(i + 1) * n], t[i]
        for j in range(n):
            if (sum(a * r[j] for a, r in zip(row, t))
                    - sum(b * x[k * n + j] for k, b in enumerate(trow))) % mod:
                return False
    return True


def centralizer_in_GL(tau: ZMat):
    """Elements of GL commuting with tau over Z/p^e, in lexicographic
    order, lifted digit by digit: the solutions mod p^(k+1) are the
    x + p^k d, with x a solution mod p^k and d over M_n(Z/p), that commute
    mod p^(k+1).  A matrix commuting mod p^(k+1) commutes mod p^k, and it
    is a unit exactly when it is a unit mod p.  Candidates are flat entry
    tuples tested by `_commutes`, which stops at the first entry of the
    commutator that is nonzero, and only the matrices commuting mod p pay
    for a determinant."""
    n, p, t = tau.n, tau.p, tau.entries
    digits = list(itertools.product(range(p), repeat=n * n))

    def rows(x):
        return tuple(x[i * n:(i + 1) * n] for i in range(n))

    sols = [x for x in digits if _commutes(x, t, n, p)
            and ZMat(rows(x), p, 1).is_unit()]
    for k in range(1, tau.e):
        pk = p ** k
        sols = [y for x in sols for d in digits
                for y in (tuple(a + pk * b for a, b in zip(x, d)),)
                if _commutes(y, t, n, pk * p)]
    return [ZMat(rows(x), p, tau.e) for x in sorted(sols)]
