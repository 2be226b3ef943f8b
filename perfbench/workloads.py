"""Seeded workloads of the padiczeta benchmark.

Each workload is a closed loop with one client: a request is one public
call of the package on generated inputs, and the next request is sent
when the previous one returns.  Requests come in rounds.  A round holds a
fixed number of requests of every kind, shuffled by the seed, and a run
measures whole rounds, so every run sends the same mix and only the
inputs change with the seed.

Inputs are drawn in two steps.  ``draw`` turns the seed into plain data
(integer and rational matrices, command lines) for a fixed pool of rounds,
without touching the package.  ``build`` imports the package afresh and
turns the plain data into requests; that is the set-up a user pays before
the first request.  A run cycles through the pool if it outlasts it.
Requests look package functions up through their module when they run,
so that the span recorder, which rebinds module attributes, sees them.

``convolution-grid``  f by definitional convolution and by the explicit
    formula at integral points of GL_n(Z_p) mod q^2, instances
    (p, m, n) in {(2,2,2), (2,1,3), (5,1,2)} (256, 512 and 625 terms), half
    of them on the support of f, plus one non-integral rank-2 point per
    round.  Time goes to residue minors and cyclotomic accumulation.
``transform-scan``  W(f, c, a, k) at scalar diagonal c, the pinned outer
    diagonal a and random residues k (rank 2, p in {2,3}, m in {1,2}),
    cell character sums over cells from ``scan_box_domains``, and both
    routes of the local zeta value at rank 2.  Time goes to exact rational
    matrices.
``eval-stream``  single-object ``padiczeta eval`` calls through
    ``padiczeta.cli.main`` with stdout captured: f, W, chi, iwasawa,
    bruhat and classify on random rational matrices of rank 2 to 4.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

MODULES = ("arith", "residue", "group", "params", "testfn", "whitmodel",
           "zeta", "rslocal", "nicedomain", "cli")


def load_package() -> SimpleNamespace:
    """Import every module of the package afresh (dropping any earlier
    import), so each set-up pays for the imports and starts with empty
    module-level caches."""
    for name in [n for n in sys.modules
                 if n == "padiczeta" or n.startswith("padiczeta.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"padiczeta.{name}")
        for name in MODULES})


@dataclass
class Request:
    """One call: ``kind`` names the request type, ``data`` holds the plain
    inputs, ``call`` performs the package call."""

    kind: str
    data: Any
    call: Callable[[], Any]


def draw(name: str, seed: int) -> list:
    """The pool of rounds for a seed: lists of (kind, plain data)."""
    cls = WORKLOADS[name]
    rng = random.Random(seed)
    rounds = []
    for _ in range(cls.POOL_ROUNDS):
        rnd = cls.draw_round(rng)
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def build(name: str, plan: list):
    """Import the package and prepare every request of the plan.
    Returns (workload object with check and render, rounds of Request)."""
    workload = WORKLOADS[name](load_package())
    rounds = [[Request(kind, data, workload.call(kind, data))
               for kind, data in rnd] for rnd in plan]
    return workload, rounds


# -- exact matrix helpers, independent of the package ------------------------

def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def det(rows) -> Fraction:
    work = [[Fraction(x) for x in row] for row in rows]
    n, d = len(work), Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if work[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            work[i], work[piv] = work[piv], work[i]
            d = -d
        d *= work[i][i]
        for r in range(i + 1, n):
            f = work[r][i] / work[i][i]
            for c in range(i, n):
                work[r][c] -= f * work[i][c]
    return d


def leading_minors(rows) -> list:
    return [det([row[:k] for row in rows[:k]])
            for k in range(1, len(rows) + 1)]


def vp(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def to_text(rows) -> str:
    return ";".join(",".join(str(Fraction(x)) for x in row) for row in rows)


def parse_text(text: str):
    return [[Fraction(x) for x in row.split(",")] for row in text.split(";")]


def random_gl_mod(rng, n: int, p: int, mod: int, unit_minors: bool = False):
    """A random integral matrix with entries in [0, mod) and unit
    determinant mod p; with unit_minors, every leading minor is a unit."""
    while True:
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
        minors = leading_minors(rows) if unit_minors else [det(rows)]
        if all(m % p for m in minors):
            return rows


# -- convolution-grid --------------------------------------------------------

class ConvolutionGrid:
    INSTANCES = ((2, 2, 2), (2, 1, 3), (5, 1, 2))
    # points per instance and per kind (generic, support) in one round;
    # the cheap (2,2,2) instance is weighted so that the median request
    # sits inside its cost cluster rather than between two clusters
    PER_KIND = {(2, 2, 2): 48, (2, 1, 3): 16, (5, 1, 2): 12}
    POOL_ROUNDS = 6

    @classmethod
    def draw_round(cls, rng) -> list:
        out = []
        for p, m, n in cls.INSTANCES:
            q, q2 = p ** m, p ** (2 * m)
            for _ in range(cls.PER_KIND[(p, m, n)]):
                generic = random_gl_mod(rng, n, p, q2, unit_minors=True)
                # lower triangular times K(q): f is a root of unity there
                low = [[0] * n for _ in range(n)]
                for i in range(n):
                    low[i][i] = rng.choice([u for u in range(1, q2) if u % p])
                    for j in range(i):
                        low[i][j] = rng.randrange(q2)
                kq = [[int(i == j) + q * rng.randrange(q) for j in range(n)]
                      for i in range(n)]
                support = [[x % q2 for x in row] for row in mat_mul(low, kq)]
                out.append((f"generic-{p},{m},{n}", (p, m, generic)))
                out.append((f"support-{p},{m},{n}", (p, m, support)))
        # off K: diag(1/2, 2) times a unit, certified by level stabilization
        k = random_gl_mod(rng, 2, 2, 4)
        g = [[Fraction(x, 2) for x in k[0]], [Fraction(2 * x) for x in k[1]]]
        out.append(("offK-2,1,2", (2, 1, g)))
        return out

    def __init__(self, mods):
        self.mods = mods

    def call(self, kind, data):
        p, m, rows = data
        ctx = self.mods.arith.DepthContext(p, m)
        g = self.mods.group.Mat(rows, p)
        testfn = self.mods.testfn
        return lambda: (testfn.f_convolution(g, ctx),
                        testfn.f_explicit(g, ctx))

    def check(self, kind, data, out):
        conv, expl = out
        if conv != expl:
            return "f_convolution != f_explicit"
        if kind.startswith("support") and expl.is_zero():
            return "f vanishes on its support"
        return None

    def render(self, out) -> bytes:
        return json.dumps([v.to_json() for v in out], sort_keys=True).encode()


# -- transform-scan ----------------------------------------------------------

class TransformScan:
    W_CONTEXTS = ((2, 1), (3, 1), (2, 2), (3, 2))
    W_PER_CONTEXT = 4
    W_SCALES = 3                     # c = p^{-m e} for e < W_SCALES
    VANISHING_SLOPES = {2: (1, 2, 3, 4, 5), 3: (1, 2, 3)}   # m = 1
    VANISHING_PER_SLOPE = 2
    # rank-2, p = 2, m = 1 cell sums vanish from this slope on
    VANISHING_ZERO_FROM = 3
    ZETA_INSTANCES = ((2, 1, 2), (3, 1, 2))
    POOL_ROUNDS = 60

    @classmethod
    def draw_round(cls, rng) -> list:
        out = []
        for p, m in cls.W_CONTEXTS:
            for _ in range(cls.W_PER_CONTEXT):
                out.append((f"W-{p},{m}", (p, m, rng.randrange(cls.W_SCALES),
                                          random_gl_mod(rng, 2, p, p ** m))))
        for p, slopes in cls.VANISHING_SLOPES.items():
            for rho in slopes:
                for _ in range(cls.VANISHING_PER_SLOPE):
                    out.append((f"vanishing-{p},{rho}",
                                (p, rho, rng.randrange(1 << 30),
                                 random_gl_mod(rng, 2, p, p))))
        for p, m, n in cls.ZETA_INSTANCES:
            out.append((f"zeta-{p},{m},{n}", (p, m, n)))
        return out

    def __init__(self, mods):
        self.mods = mods
        ctx = mods.arith.DepthContext
        rs, nd = mods.rslocal, mods.nicedomain
        self.elements = {(p, m): rs.standard_E_element(ctx(p, m), 2)
                         for p, m in self.W_CONTEXTS}
        self.scalars = {}
        for p, m in self.W_CONTEXTS:
            for e in range(self.W_SCALES):
                c = mods.group.Mat.diag([Fraction(p) ** (-m * e)] * 2, p)
                a, _ = rs.pinned_outer_diagonal(self.elements[(p, m)], c)
                self.scalars[(p, m, e)] = (c, a)
        self.diagonals = {p: nd.hypothesis_diagonal(ctx(p, 1), 2)
                          for p in self.VANISHING_SLOPES}
        self.domains = {(p, rho): nd.scan_box_domains(2, p, rho)
                        for p, slopes in self.VANISHING_SLOPES.items()
                        for rho in slopes}

    def call(self, kind, data):
        mods = self.mods
        Mat = mods.group.Mat
        if kind.startswith("W"):
            p, m, e, k = data
            f, (c, a) = self.elements[(p, m)], self.scalars[(p, m, e)]
            k = Mat(k, p)
            return lambda: mods.rslocal.W_fcg(f, c, a, k)
        if kind.startswith("vanishing"):
            p, rho, pick, k = data
            doms = self.domains[(p, rho)]
            dom, k = doms[pick % len(doms)], Mat(k, p)
            f, a = self.elements[(p, 1)], self.diagonals[p]
            return lambda: mods.nicedomain.vanishing_check(a, k, (0, 0),
                                                           dom, f)
        p, m, n = data
        ctx = mods.arith.DepthContext(p, m)
        return lambda: (mods.zeta.zeta_explicit(ctx, n),
                        mods.zeta.zeta_direct(ctx, n))

    def check(self, kind, data, out):
        if kind.startswith("W"):
            if not out.coeff.is_positive():
                return "W coefficient not positive"
            return None
        if kind.startswith("vanishing"):
            if not out.certified:
                return "cell sum not certified"
            p, rho = data[:2]
            if (p == 2 and rho >= self.VANISHING_ZERO_FROM
                    and not out.is_zero()):
                return "cell sum above the vanishing threshold is not zero"
            return None
        explicit, direct = out
        return None if explicit.agrees_with(direct) else "zeta routes disagree"

    def render(self, out) -> bytes:
        if isinstance(out, tuple):
            obj = [{"exponents": z.exponents, "offset": z.offset, "c": z.c,
                    "route": z.route} for z in out]
        elif hasattr(out, "coeff"):
            obj = {"coeff": out.coeff, "phase": out.phase}
        else:
            obj = out
        return self.mods.cli.render_json({"out": obj}).encode()


# -- eval-stream -------------------------------------------------------------

class EvalStream:
    OBJECTS = ("f", "W-support", "W", "chi", "iwasawa", "bruhat", "classify")
    RANKS = (2, 3, 4)
    # (p, m): W phases have order up to p^(2m+1), and reducing a phase
    # costs time linear in its order, so the depths stay small
    CONTEXTS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))
    POOL_ROUNDS = 600

    @staticmethod
    def _rational(rng, p: int) -> Fraction:
        return Fraction(rng.randint(-12, 12),
                        p ** rng.randrange(3) * rng.choice((1, 1, 1, 7)))

    @classmethod
    def _nonintegral_gl(cls, rng, n: int, p: int):
        while True:
            rows = [[cls._rational(rng, p) for _ in range(n)]
                    for _ in range(n)]
            if det(rows) != 0 and any(x.denominator % p == 0
                                      for row in rows for x in row):
                return rows

    @staticmethod
    def _upper_unipotent(rng, n: int, p: int, depth: int):
        return [[Fraction(int(i == j)) if i >= j else
                 Fraction(rng.randint(-20, 20), p ** rng.randrange(depth + 1))
                 for j in range(n)] for i in range(n)]

    @staticmethod
    def _kq_point(rng, n: int, p: int, m: int):
        q = p ** m
        return [[Fraction(int(i == j) + q * rng.randrange(-q, q))
                 for j in range(n)] for i in range(n)]

    @classmethod
    def draw_round(cls, rng) -> list:
        out = []
        for obj in cls.OBJECTS:
            for n in cls.RANKS:
                p, m = rng.choice(cls.CONTEXTS)
                data = {"p": p, "m": m}
                if obj == "W-support":
                    # a_T u y with u upper unipotent and y in K(q) lies on
                    # the support, with phase psi_T(superdiagonal of u)
                    # times chi_theta(y)
                    t = Fraction(1, p ** (2 * m))
                    a_t = [[t ** (n - i) if i == j else Fraction(0)
                            for j in range(n)] for i in range(n)]
                    u = cls._upper_unipotent(rng, n, p, 1)
                    y = cls._kq_point(rng, n, p, m)
                    data.update(u=u, y=y)
                    rows = mat_mul(mat_mul(a_t, u), y)
                elif obj == "chi":
                    rows = cls._kq_point(rng, n, p, m)
                elif obj == "classify":
                    rows = cls._upper_unipotent(rng, n, p, 3)
                else:
                    rows = cls._nonintegral_gl(rng, n, p)
                    if obj == "bruhat" and rng.random() < 0.2:
                        rows[0][0] = Fraction(0)      # off the open cell
                        if det(rows) == 0:
                            rows[0][0] = Fraction(1, p)
                data["g"] = rows
                flag = "--u" if obj == "classify" else "--g"
                data["argv"] = ["eval", obj.split("-")[0], "--p", str(p),
                                "--m", str(m), f"{flag}={to_text(rows)}"]
                out.append((f"{obj}-{n}", data))
        return out

    def __init__(self, mods):
        self.mods = mods

    def call(self, kind, data):
        cli, argv = self.mods.cli, data["argv"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return run

    def check(self, kind, data, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        js = json.loads(text)
        obj = kind.rsplit("-", 1)[0]
        p, g = data["p"], data["g"]
        n = len(g)
        mods = self.mods
        if obj == "iwasawa":
            u, a, k = (parse_text(js[key]) for key in ("u", "a", "k"))
            if mat_mul(mat_mul(u, a), k) != g:
                return "u a k != g"
            if any(u[i][j] != (i == j) for i in range(n) for j in range(i, n)):
                return "u is not lower unipotent"
            if any(a[i][j] != 0 for i in range(n) for j in range(n)
                   if i != j) or any(a[i][i] != Fraction(p) ** vp(a[i][i], p)
                                     for i in range(n)):
                return "a is not a diagonal of p-powers"
            if any(x.denominator % p == 0 for row in k for x in row) \
                    or vp(det(k), p) != 0:
                return "k is not in GL_n(Z_p)"
        elif obj == "bruhat":
            open_cell = all(x != 0 for x in leading_minors(g))
            if js["open_cell"] != open_cell:
                return "open-cell decision disagrees with the leading minors"
            if open_cell:
                lower, diag, upper = (parse_text(js[key])
                                      for key in ("lower", "diag", "upper"))
                if mat_mul(mat_mul(lower, diag), upper) != g:
                    return "lower diag upper != g"
        elif obj == "classify":
            dom = mods.nicedomain.NiceDomain(
                n, p, js["slope"], js["remainder"],
                tuple(map(tuple, js["base"])) if js["base"] else None,
                tuple(js["pivot"]) if js["pivot"] else None)
            if not dom.contains(mods.group.Mat(g, p)):
                return "the classified cell does not contain u"
        elif obj == "W-support":
            if js["coefficient"]["sign"] != 1:
                return "W vanishes on its support"
            ctx = mods.arith.DepthContext(p, data["m"])
            s = sum(data["u"][i][i + 1] for i in range(n - 1))
            expect = mods.arith.psi_T(s, ctx) * mods.params.chi_tau_eval(
                mods.params.theta_matrix(n, ctx), mods.group.Mat(data["y"], p))
            coeffs = js["phase"]["coeffs"]
            phase = mods.arith.CycValue(
                js["phase"]["order"],
                {int(e): Fraction(c) for e, c in coeffs.items()})
            if phase != expect:
                return "W phase differs from psi_T(u) chi_theta(y)"
        return None

    def render(self, out) -> bytes:
        return out[1].encode()


WORKLOADS = {
    "convolution-grid": ConvolutionGrid,
    "transform-scan": TransformScan,
    "eval-stream": EvalStream,
}
