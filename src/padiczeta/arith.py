"""Exact scalar arithmetic: p-adic valuations, additive characters as exact
roots of unity, cyclotomic sums with decidable equality, and symbolic
monomials in the Mellin variable s.

The additive character psi of Q_p is the standard unramified one: trivial on
Z_p, and on p^{-k} Z_p it takes the value exp(2*pi*i*frac_part(x)), where
frac_part(x) is the p-adic fractional part (a rational in [0,1) with p-power
denominator).  All character values therefore live in cyclotomic rings of
p-power order; we nevertheless allow arbitrary orders, because extending a
congruence character from a principal congruence quotient to its normalizer
can require roots of unity of order prime to p (the centralizer of a cyclic
matrix over F_p can have order p^N - 1).

Equality of cyclotomic values is decided by reduction modulo the cyclotomic
polynomial Phi_n, so `CycValue.__eq__` is exact -- never a numeric
comparison.  Roots of unity counted in a histogram become a value through
`CycValue.from_histogram` alone; sums of arbitrary values are collected in
place by `CycSum`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# valuations and fractional parts
# ---------------------------------------------------------------------------

def valuation(x: Rat, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("valuation of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_part(x: Rat, p: int) -> Fraction:
    """p-adic fractional part: the unique r in [0,1) with p-power denominator
    such that x - r is p-integral."""
    x = Fraction(x)
    den = x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k == 0:
        return Fraction(0)
    pk = p ** k
    # x = num / (den * p^k) with den prime to p; invert den mod p^k.
    r = (x.numerator * pow(den, -1, pk)) % pk
    return Fraction(r, pk)


class CertificateCapExceeded(RuntimeError):
    """A certificate (level stabilization, box, shell or refinement) ran
    out of its cap before it closed.  Carries the cap's name, its value
    and the last level reached; str() is the message alone."""

    def __init__(self, message: str, cap: str, value: int, level: int):
        # every field is an argument, so the exception pickles across
        # worker processes
        super().__init__(message, cap, value, level)
        self.cap, self.value, self.level = cap, value, level

    def __str__(self) -> str:
        return self.args[0]


def certify(steps, message, cap, value, level, /):
    """The one closing rule of the stabilization certificates: draw the
    (level, value) steps in order and return the first two consecutive
    ones with equal values, as (earlier, later), drawing no step past the
    later one; when the steps run out first, raise
    `CertificateCapExceeded(message, cap, value, level)`."""
    prev = None
    for step in steps:
        if prev is not None and step[1] == prev[1]:
            return prev, step
        prev = step
    raise CertificateCapExceeded(message, cap, value, level)


@dataclass(frozen=True)
class DepthContext:
    """The prime p and depth m, with the derived ideal q = (p^m) and the
    fixed translation parameter Ttilde = p^(-2m).

    T = p^(2m) is the cardinality of o/q^2; psi_T(x) := psi(Ttilde * x) has
    conductor exactly q^2.  Ttilde is pinned to the pure power p^(-2m) (no
    unit factor) so that every character value in the library is determined
    by (p, m) alone.
    """

    p: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("depth m must be >= 1")
        if self.p < 2 or any(self.p % d == 0 for d in range(2, int(self.p ** 0.5) + 1)):
            raise ValueError(f"p = {self.p} is not prime")

    @property
    def q(self) -> int:
        return self.p ** self.m

    @property
    def T(self) -> int:
        return self.p ** (2 * self.m)

    @property
    def Ttilde(self) -> Fraction:
        return Fraction(1, self.T)


# ---------------------------------------------------------------------------
# cyclotomic values
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial, computed
    by dividing x^n - 1 by the product of Phi_d over proper divisors d."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_exact_div(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (coefficients low to high)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


class CycValue:
    """An exact element of Q(zeta_n): a rational linear combination of powers
    of a primitive n-th root of unity.

    Coefficients are stored on exponents 0..n-1 and reduced modulo the
    cyclotomic polynomial Phi_n only when equality/zero/rationality is
    queried, keeping addition-heavy workloads cheap.  Values of different
    orders promote to the lcm.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int = 1, coeffs: dict | None = None):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        cleaned: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    e %= order
                    cleaned[e] = cleaned.get(e, Fraction(0)) + c
        self.coeffs = {e: c for e, c in cleaned.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(c: Rat) -> "CycValue":
        return CycValue(1, {0: Fraction(c)})

    @staticmethod
    def root_of_unity(order: int, exponent: int) -> "CycValue":
        g = math.gcd(exponent % order, order) if order > 1 else 1
        # keep the smallest faithful order so unrelated levels do not bloat
        return CycValue(order // g if order > 1 else 1,
                        {(exponent % order) // g if order > 1 else 0: Fraction(1)})

    @staticmethod
    def from_histogram(counts, weight: Rat,
                       order: int | tuple | None = None) -> "CycValue":
        """weight * sum of the counted roots of unity: the one constructor
        for counted roots, and the one place that fixes their order.

        counts is a list of N rational counts, count e for the root
        exp(2 pi i e / N); or a dict {e in 0..N-1: count} with N = order;
        or, for products of k roots, a dict {(e_1, ..., e_k): count} with
        order = (N_1, ..., N_k), the key for the product of the roots
        exp(2 pi i e_i / N_i).  A product is placed at N = lcm(N_i), and
        the value's order is N over the gcd of N and every factor's
        exponent read at N, over every key (zero counts of a list are not
        keys): the order of the chained sum of the roots or products
        (`CycSum`), cancelled ones included (1 if nothing was counted)."""
        if not isinstance(counts, dict):
            order = len(counts)
            counts = {e: c for e, c in enumerate(counts) if c}
        if isinstance(order, tuple):
            N = math.lcm(*order)
            scales = [N // n for n in order]
            d = math.gcd(N, *(s * math.gcd(n, *col) for n, s, col
                              in zip(order, scales, zip(*counts))))
            placed: dict = {}
            for key, c in counts.items():
                e = sum(map(operator.mul, key, scales)) % N
                placed[e] = placed.get(e, 0) + c
            order, counts = N, placed
        else:
            d = math.gcd(order, *counts)
        # the exponents are distinct and reduced, so there is nothing for
        # __init__ to clean but zero counts and a zero weight
        out = CycValue.__new__(CycValue)
        out.order, weight = order // d, Fraction(weight)
        out.coeffs = ({e // d: c * weight for e, c in counts.items() if c}
                      if weight else {})
        return out

    @staticmethod
    def histogram_is_zero(counts: dict, p: int, order: int) -> bool:
        """Whether sum_e counts[e] z^e is zero, z = exp(2 pi i / order), for
        a dict counts of nonzero counts and a power order of the prime p,
        without reduction: exactly when counts is constant on every coset
        of the subgroup of order p, because the integer relations among the
        p^k-th roots of unity are the multiples of
        Phi_{p^k}(z) = sum_{j < p} z^{j p^(k-1)}."""
        # a union of such cosets holds a multiple of p exponents
        if len(counts) % p:
            return False
        step = order // p
        # walking a coset from a nonzero count comes back around it; with
        # no subgroup of order p (step 0) the sum is zero only when empty
        return all(step and counts.get((e + step) % order, 0) == c
                   for e, c in counts.items() if c)

    one = None  # set below
    zero = None

    # -- ring structure ----------------------------------------------------

    def _promote(self, order: int) -> "CycValue":
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote order {self.order} to {order}")
        k = order // self.order
        return CycValue(order, {e * k: c for e, c in self.coeffs.items()})

    def __add__(self, other) -> "CycValue":
        other = _as_cyc(other)
        n = _lcm(self.order, other.order)
        a, b = self._promote(n), other._promote(n)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return CycValue(n, out)

    __radd__ = __add__

    def __neg__(self) -> "CycValue":
        return CycValue(self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "CycValue":
        return self + (-_as_cyc(other))

    def __rsub__(self, other) -> "CycValue":
        return _as_cyc(other) + (-self)

    def __mul__(self, other) -> "CycValue":
        if isinstance(other, (int, Fraction)):
            return CycValue(self.order,
                            {e: c * other for e, c in self.coeffs.items()})
        other = _as_cyc(other)
        n = _lcm(self.order, other.order)
        a, b = self._promote(n), other._promote(n)
        out: dict[int, Fraction] = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = (e1 + e2) % n
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return CycValue(n, out)

    __rmul__ = __mul__

    def conj(self) -> "CycValue":
        """Complex conjugation: zeta -> zeta^(-1)."""
        return CycValue(self.order, {-e: c for e, c in self.coeffs.items()})

    def abs_sq(self) -> "CycValue":
        return self * self.conj()

    # -- decidable equality ------------------------------------------------

    def reduced(self) -> tuple[Fraction, ...]:
        """Canonical form: remainder modulo Phi_order, degree < phi(order)."""
        phi = cyclotomic_poly(self.order)
        deg = len(phi) - 1
        # Phi of a prime power p^k has only p nonzero terms
        terms = [(j - deg, pj) for j, pj in enumerate(phi) if pj]
        poly = [Fraction(0)] * self.order
        for e, c in self.coeffs.items():
            poly[e] += c
        # long division by the monic Phi_order
        for i in range(len(poly) - 1, deg - 1, -1):
            c = poly[i]
            if c:
                for j, pj in terms:
                    poly[i + j] -= c * pj
        return tuple(poly[:deg])

    def is_zero(self) -> bool:
        """Whether the value is zero.  At an order p^k, k >= 1 (every order
        the package builds is a power of its p), the stored coefficients
        decide it by the coset rule of `histogram_is_zero`, which holds
        for rational coefficients too and needs no reduction; at order 1
        or any other order, the reduction decides it."""
        p = _prime_of_power(self.order)
        if p:
            return CycValue.histogram_is_zero(self.coeffs, p, self.order)
        return all(c == 0 for c in self.reduced())

    def __eq__(self, other) -> bool:
        # equal stored forms are equal values; the converse fails across
        # orders and for unreduced forms, which the reduction decides
        if isinstance(other, CycValue) and other.order == self.order \
                and other.coeffs == self.coeffs:
            return True
        if isinstance(other, (int, Fraction, CycValue)):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self):
        # equal values can be stored at different orders with different
        # reduced forms, so only value-invariant data may enter the hash
        r = self.as_rational()
        return hash(r) if r is not None else hash("cyc-irrational")

    def as_rational(self) -> Fraction | None:
        """The value as an exact rational, or None if irrational."""
        red = self.reduced()
        if any(c != 0 for c in red[1:]):
            return None
        return red[0] if red else Fraction(0)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        red = self.reduced()
        return {
            "order": self.order,
            "coeffs": {str(e): f"{c.numerator}/{c.denominator}"
                       for e, c in enumerate(red) if c != 0},
        }

    def __repr__(self):
        if not self.coeffs:
            return "CycValue(0)"
        terms = " + ".join(f"{c}*z{self.order}^{e}"
                           for e, c in sorted(self.coeffs.items()))
        return f"CycValue({terms})"


CycValue.one = CycValue(1, {0: Fraction(1)})
CycValue.zero = CycValue(1, {})


def _prime_of_power(n: int) -> int:
    """The prime p with n = p^k for some k >= 1, or 0 when n is 1 or not
    a prime power."""
    if n < 2:
        return 0
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return p if n == 1 else 0


class CountedRoots:
    """weight times the products of roots of unity counted in counts, at
    factor orders that are powers of the prime p: the arguments of
    `CycValue.from_histogram` for products (a dict {(e_1, ..., e_k):
    count} at the orders (N_1, ..., N_k)), kept as they are until
    `value()` makes them a value by that one call.

    Two of them are equal when their values are, which is decided on the
    counts without building either value.  Both histograms are placed at
    the common order N, the largest N_i (all are powers of p).  The
    weights a/b and a'/b' are cross-multiplied, so that a b' times the
    one side's counts minus a' b times the other's is a histogram of
    integer counts at N (for integer counts), the difference of the
    values times b b'.  It is zero exactly when `CycValue.histogram_is_zero`
    says so: the rule is exact both ways, so a certificate that compares
    these closes where one comparing the values would."""

    __slots__ = ("counts", "weight", "orders", "p")

    def __init__(self, counts: dict, weight: Rat, orders: tuple, p: int):
        self.counts, self.weight, self.orders, self.p = (counts, weight,
                                                         orders, p)

    def value(self) -> CycValue:
        return CycValue.from_histogram(self.counts, self.weight, self.orders)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountedRoots):
            return NotImplemented
        N = max(*self.orders, *other.orders)
        a, b = self.weight, other.weight
        diff: dict = {}
        for side, scale in ((self, a.numerator * b.denominator),
                            (other, -b.numerator * a.denominator)):
            shifts = [N // n for n in side.orders]
            for key, c in side.counts.items():
                e = sum(map(operator.mul, key, shifts)) % N
                diff[e] = diff.get(e, 0) + scale * c
        return CycValue.histogram_is_zero(
            {e: c for e, c in diff.items() if c}, self.p, N)


def _as_cyc(x) -> CycValue:
    if isinstance(x, CycValue):
        return x
    if isinstance(x, (int, Fraction)):
        return CycValue.rational(x)
    raise TypeError(f"cannot coerce {type(x)} to CycValue")


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class CycSum:
    """A running sum of cyclotomic values, collected in place.

    `add` promotes the running order to the lcm with the addend's order and
    adds coefficients into one dict, so a long sum costs no intermediate
    CycValue.  `value()` carries the same order as the chained sum
    `zero + x1 + x2 + ...`: the lcm over every addend, cancelled ones
    included.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self):
        self.order = 1
        self.coeffs: dict[int, Rat] = {}

    def add(self, x) -> None:
        x = _as_cyc(x)
        if self.order % x.order:
            n = _lcm(self.order, x.order)
            k = n // self.order
            self.coeffs = {e * k: c for e, c in self.coeffs.items()}
            self.order = n
        k = self.order // x.order
        coeffs = self.coeffs
        for e, c in x.coeffs.items():
            e *= k
            coeffs[e] = coeffs.get(e, 0) + c

    def value(self) -> CycValue:
        return CycValue(self.order, self.coeffs)


# ---------------------------------------------------------------------------
# additive characters
# ---------------------------------------------------------------------------

def psi(x: Rat, p: int) -> CycValue:
    """The standard unramified additive character of Q_p: psi(x) is the root
    of unity e(frac_part(x)); trivial exactly on Z_p."""
    r = frac_part(x, p)
    if r == 0:
        return CycValue.one
    return CycValue.root_of_unity(r.denominator, r.numerator)


def psi_T(x: Rat, ctx: DepthContext) -> CycValue:
    """psi_T(x) = psi(Ttilde * x); conductor exactly q^2 = p^(2m)."""
    return psi(Fraction(x) * ctx.Ttilde, ctx.p)


# ---------------------------------------------------------------------------
# square roots of rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtRational:
    """sign * sqrt(radicand) for an exact positive rational radicand.

    Only multiplication and positivity are supported -- the zeta pipeline
    never needs to add square roots.  Rational c embeds as sign(c)*sqrt(c^2).
    """

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if self.sign == 0 and self.radicand != 0:
            raise ValueError("zero must have zero radicand")
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")

    @staticmethod
    def of_rational(c: Rat) -> "SqrtRational":
        c = Fraction(c)
        s = (c > 0) - (c < 0)
        return SqrtRational(s, c * c)

    @staticmethod
    def sqrt(r: Rat) -> "SqrtRational":
        r = Fraction(r)
        if r < 0:
            raise ValueError("negative radicand")
        return SqrtRational(1 if r > 0 else 0, r)

    def __mul__(self, other) -> "SqrtRational":
        if isinstance(other, (int, Fraction)):
            other = SqrtRational.of_rational(other)
        return SqrtRational(self.sign * other.sign,
                            self.radicand * other.radicand
                            if self.sign * other.sign else Fraction(0))

    __rmul__ = __mul__

    def is_positive(self) -> bool:
        return self.sign > 0

    def squared(self) -> Fraction:
        return self.radicand if self.sign else Fraction(0)

    def __repr__(self):
        s = {1: "", -1: "-", 0: "0*"}[self.sign]
        return f"{s}sqrt({self.radicand})"


# ---------------------------------------------------------------------------
# Mellin monomials
# ---------------------------------------------------------------------------

class MellinMonomial:
    """scalar * T^(sum_i exponents[i]*s_i / 2) * T^(offset/2).

    Exponents are integers in units of T^(1/2) per coordinate of the Mellin
    variable s = (s_1, ..., s_r); `offset` is the constant half-integer
    T-power, also in T^(1/2) units.  The scalar may be a Fraction, a CycValue
    or a SqrtRational.
    """

    __slots__ = ("scalar", "exponents", "offset")

    def __init__(self, scalar, exponents: tuple[int, ...] = (), offset: int = 0):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        self.scalar = scalar
        self.exponents = tuple(int(e) for e in exponents)
        self.offset = int(offset)

    def __repr__(self):
        return (f"MellinMonomial({self.scalar!r}, "
                f"exps={self.exponents}, offset={self.offset})")


# ---------------------------------------------------------------------------
# serialization helpers (shared text formats)
# ---------------------------------------------------------------------------

def rat_to_text(x: Rat) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
