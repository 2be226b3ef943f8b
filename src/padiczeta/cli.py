"""Command-line front end.

`padiczeta verify --suite NAME --p P --m M --rank N` runs one of the
verification suites and writes a deterministic report (JSON or markdown);
the exit code is 0 when every check passes, 1 on a check failure, and 2 on
a configuration error.  `padiczeta eval OBJECT ...` prints the exact value
of a single object (test function, Whittaker restriction, character,
decomposition, cell classification, or transform).

Reports are byte-stable: keys are sorted, rationals are serialized in
lowest terms, and no timestamps enter the payload (timing goes to stderr).
`--jobs` fans the heavy grids out over worker processes; the reduction is
an ordered list concatenation, so the report content never depends on the
job count.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .arith import (CertificateCapExceeded, CycValue, DepthContext,
                    SqrtRational, rat_to_text)
from .group import (
    Mat,
    SubgroupSpec,
    bruhat_open_cell,
    enumerate_cosets,
    iter_cosets,
    iwasawa_UAK,
)
from .nicedomain import classify, rho0_report, verify_partition
from .params import (
    build_omega,
    chi_tau_eval,
    chi_tau_exponent,
    companion_matrix,
    enumerate_chi_extensions,
    theta_matrix,
)
from .residue import ZMat
from .rslocal import (
    QP_nonvanishing_check,
    W_fcg,
    denominator_scan,
    standard_E_element,
    support_scan_table,
)
from .testfn import f_convolution, f_explicit
from .whitmodel import WhittakerOnH, concentration_check
from .zeta import volume_lemma_suite, zeta_explicit, zeta_direct, \
    zeta_for_parameter

SCHEMA = "padiczeta-report/1"

SUITES = ("testfn-agreement", "zeta", "concentration", "rs-support",
          "nicedomain-vanishing", "params-exhaustive", "volumes")

EVAL_OBJECTS = ("f", "W", "chi", "iwasawa", "bruhat", "classify", "Wfcg")


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one suite run."""

    suite: str
    p: int
    m: int
    rank: int
    pair_rank: int = 1
    slope_max: int | None = None
    box: int = 2
    jobs: int = 1

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        DepthContext(self.p, self.m)  # raises on a non-prime p or m < 1
        if self.rank < 2:
            raise ValueError("rank must be >= 2 for group suites")
        if not 1 <= self.pair_rank < self.rank:
            raise ValueError("pair rank must lie strictly below rank")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.box < 0:
            raise ValueError("box must be >= 0")
        if self.slope_max is not None and self.slope_max < 0:
            raise ValueError("slope max must be >= 0")

    @property
    def ctx(self) -> DepthContext:
        return DepthContext(self.p, self.m)


# -- serialization ----------------------------------------------------------

def _canon(x):
    """Canonical JSON-ready form: rationals in lowest terms, cyclotomic
    values by their reduced coefficient table, matrices as row text."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return rat_to_text(x)
    if isinstance(x, CycValue):
        return x.to_json()
    if isinstance(x, SqrtRational):
        return {"sign": x.sign, "radicand": rat_to_text(x.radicand)}
    if isinstance(x, Mat):
        return x.to_text()
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if hasattr(x, "to_json"):
        return _canon(x.to_json())
    raise TypeError(f"cannot serialize {type(x).__name__}")


def render_json(report: dict) -> str:
    return json.dumps(_canon(report), sort_keys=True, indent=2) + "\n"


def render_markdown(report: dict) -> str:
    lines = [f"# suite `{report['suite']}`", ""]
    config = report["config"]
    lines.append("| parameter | value |")
    lines.append("|---|---|")
    for key in sorted(config):
        lines.append(f"| {key} | {config[key]} |")
    lines += ["", "| check | status | detail |", "|---|---|---|"]
    for chk in report["checks"]:
        status = "pass" if chk["ok"] else "FAIL"
        detail = json.dumps(_canon(chk.get("detail")), sort_keys=True)
        lines.append(f"| {chk['name']} | {status} | `{detail}` |")
    lines += ["", f"overall: {'pass' if report['ok'] else 'FAIL'}", ""]
    return "\n".join(lines)


def report_render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "markdown":
        return render_markdown(report)
    raise ValueError(f"unknown format {fmt!r}")


# -- suites -----------------------------------------------------------------

def _check(name: str, ok: bool, detail=None) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _suite_testfn(config: RunConfig) -> list:
    ctx, n = config.ctx, config.rank
    checks = []
    one = f_explicit(Mat.identity(n, ctx.p), ctx)
    checks.append(_check("f(1) = 1", one == CycValue.one
                         and f_convolution(Mat.identity(n, ctx.p), ctx)
                         == CycValue.one))
    # agreement grid modulo level q^2: full K transversal at rank 2, the
    # congruence transversal (the K(q)-part of the support) above that;
    # capped deterministically by enumeration-order prefix
    spec = (SubgroupSpec("K", n, ctx.p) if n == 2
            else SubgroupSpec("Kq", n, ctx.p, ctx.m))
    grid = list(itertools.islice(iter_cosets(spec, 2 * ctx.m), 512))
    mismatches = [g.to_text() for g in grid
                  if f_explicit(g, ctx) != f_convolution(g, ctx)]
    checks.append(_check("explicit = convolution on grid",
                         not mismatches,
                         {"points": len(grid), "mismatches": mismatches}))
    if n == 2:
        # a non-integral spot check: both routes stabilize to the same
        # value (the stabilization levels are only affordable at rank 2)
        g = Mat.elementary(n, ctx.p, 0, n - 1, Fraction(1, ctx.p))
        checks.append(_check("explicit = convolution off K",
                             f_explicit(g, ctx) == f_convolution(g, ctx)))
    return checks


def _suite_zeta(config: RunConfig) -> list:
    ctx, n = config.ctx, config.rank
    ze = zeta_explicit(ctx, n)
    zd = zeta_direct(ctx, n)
    checks = [
        _check("routes agree exactly", ze.agrees_with(zd),
               {"c": ze.c, "exponents": list(ze.exponents)}),
        _check("T-exponent is (n+1) per coordinate",
               ze.exponents == tuple(n + 1 for _ in range(n))
               and ze.offset == 0),
        _check("constant positive", ze.c.is_positive()),
    ]
    consts = []
    for coeffs in ([1] + [0] * (n - 1), [1] + [1] * (n - 1)):
        tau = companion_matrix(coeffs, ctx)
        zt = zeta_for_parameter(ctx, tau)
        consts.append(zt.c)
    checks.append(_check("constant uniform across parameters",
                         all(c.squared() == ze.c.squared()
                             and c.sign == ze.c.sign for c in consts),
                         {"closed_form": ze.closed_form_constant(ctx, n)}))
    return checks


def _suite_concentration(config: RunConfig) -> list:
    ctx, n = config.ctx, config.rank
    coeffs = [1, 1] if n == 2 else [-1] + [0] * (n - 1)
    tau = companion_matrix(coeffs, ctx)
    rep = concentration_check(tau)
    return [
        _check("subcyclic conjugators are integral-unipotent",
               rep["integral_violations"] == [],
               {"checked": rep["integral_checked"]}),
        # part two scans the unit shell of profiles, [-1, 1]^n
        _check("contradicting unipotent found off the integral image",
               rep["nonintegral_failures"] == [],
               {"checked": rep["nonintegral_checked"], "box": 1}),
    ]


def _suite_rs_support(config: RunConfig) -> list:
    ctx, n = config.ctx, config.rank
    f = standard_E_element(ctx, n)
    # at rank 2 the symmetric box catches the single supported profile;
    # above that the support sits on nonnegative exponents only
    window = range(-config.box, config.box + 1) if n == 2 \
        else range(0, 2 * ctx.m + 1)
    table = support_scan_table(f, window)
    checks = [
        _check("nonvanishing within the determinant bound",
               table["violations"] == [],
               {"nonzero": table["nonzero"], "ratio_max": table["ratio_max"],
                "bound_rhs": table["bound_rhs"]}),
        _check("support region met", table["nonzero"] > 0),
    ]
    qp = QP_nonvanishing_check(f, 1, range(-1, config.box + 2))
    checks.append(_check("parabolic scan zero outside its bound",
                         qp["violations"] == [] and qp["nonzero_inside"] > 0,
                         {"nonzero_inside": qp["nonzero_inside"],
                          "D_P": qp["D_P"], "bound_rhs": qp["bound_rhs"]}))
    if config.pair_rank != 1:
        qp2 = QP_nonvanishing_check(f, config.pair_rank,
                                    range(-1, config.box + 2))
        checks.append(_check("parabolic scan at the pair rank",
                             qp2["violations"] == [],
                             {"nonzero_inside": qp2["nonzero_inside"],
                              "D_P": qp2["D_P"]}))
    ds = denominator_scan(f)
    checks.append(_check("denominator threshold", ds["max_e"] is not None,
                         {"max_e": ds["max_e"],
                          "empirical_d": ds["empirical_d"],
                          "skipped": len(ds["skipped"])}))
    return checks


def _suite_nicedomain(config: RunConfig) -> list:
    ctx, n = config.ctx, config.rank
    p, m = ctx.p, ctx.m
    checks = []
    b = 1 if n >= 3 else min(config.box, 2)
    part = verify_partition(n, p, b)
    checks.append(_check("slope cells partition the region",
                         part["disjoint"] and part["covering"],
                         {"classes": part["classes"],
                          "domains": part["domain_count"]}))
    rep = rho0_report(standard_E_element(ctx, n), slope_max=config.slope_max,
                      domain_cap=2 if n == 2 else 1,
                      k_count=6 if n == 2 else 2, jobs=config.jobs)
    rho0, rows = rep["rho0"], rep["rows"]
    bound = 4 * m + n
    checks.append(_check("vanishing threshold within linear bound",
                         rho0 <= bound,
                         {"rho0": rho0, "bound": bound, "vT": 2 * m,
                          "slope_max": rep["slope_max"], "cells": len(rows)}))
    checks.append(_check("exact zero at and above threshold",
                         all(r["zero"] for r in rows
                             if r["slope"] >= rho0),
                         {"rows": rows}))
    return checks


def _suite_params(config: RunConfig) -> list:
    import random

    ctx, n = config.ctx, config.rank
    theta = theta_matrix(n, ctx)
    reps = enumerate_cosets(SubgroupSpec("Kq", n, ctx.p, ctx.m), 2 * ctx.m)
    shift = Mat.elementary(n, ctx.p, n - 1, 0,
                           Fraction(ctx.p ** (2 * ctx.m)))
    checks = []
    if n == 2:
        # streamed: at (3,2,2) the pairs number 6,561^2, about 43M
        pairs = itertools.product(reps, repeat=2)
        npairs, mode = len(reps) ** 2, "exhaustive"
    else:
        rng = random.Random(11)
        pairs = [(rng.choice(reps), rng.choice(reps))
                 for _ in range(10 ** 4)]
        npairs, mode = len(pairs), "sampled"
    well = all(chi_tau_exponent(theta, k) ==
               chi_tau_exponent(theta, k @ shift) for k in reps)
    mult = all((chi_tau_exponent(theta, k1 @ k2)
                - chi_tau_exponent(theta, k1)
                - chi_tau_exponent(theta, k2)).denominator == 1
               for k1, k2 in pairs)
    checks.append(_check("chi well-defined mod level q^2", well,
                         {"reps": len(reps)}))
    checks.append(_check("chi multiplicative", mult,
                         {"pairs": npairs, "mode": mode}))
    tau = companion_matrix([1] + [1] * (n - 1) if n == 2
                           else [1] + [0] * (n - 1), ctx)
    tables = enumerate_chi_extensions(tau)
    ident = ZMat.identity(n, ctx.p, ctx.m)
    ok_restrict = True
    for table in tables:
        for key, val in table.items():
            z = ZMat(key, ctx.p, 2 * ctx.m)
            if z.reduce(ctx.m) == ident:
                if val != chi_tau_exponent(tau, z.lift()):
                    ok_restrict = False
    rng = random.Random(13)
    keys = sorted(tables[0])
    ok_ext_mult = all(
        (tables[0][(ZMat(k1, ctx.p, 2 * ctx.m)
                    @ ZMat(k2, ctx.p, 2 * ctx.m)).entries]
         - tables[0][k1] - tables[0][k2]).denominator == 1
        for k1, k2 in ((rng.choice(keys), rng.choice(keys))
                       for _ in range(200)))
    checks.append(_check("extensions restrict to chi", ok_restrict,
                         {"extensions": len(tables)}))
    checks.append(_check("extension multiplicative", ok_ext_mult))
    if n == 2:
        om = build_omega(tau)
        pts = [Mat.identity(n, ctx.p), tau.mat.lift()]
        ok_om = all(om.convolve_self_at(g) == om.value(g) for g in pts)
        checks.append(_check("omega * omega = omega", ok_om,
                             {"vol_J": om.vol_J}))
    return checks


def _suite_volumes(config: RunConfig) -> list:
    rep = volume_lemma_suite(config.ctx, config.rank)
    return [_check(it["name"], it["depth_free"],
                   {"constant": it["constant"], "lhs": it["lhs"],
                    "reference": it["reference"]})
            for it in rep["items"]]


_SUITE_FNS = {
    "testfn-agreement": _suite_testfn,
    "zeta": _suite_zeta,
    "concentration": _suite_concentration,
    "rs-support": _suite_rs_support,
    "nicedomain-vanishing": _suite_nicedomain,
    "params-exhaustive": _suite_params,
    "volumes": _suite_volumes,
}


def run_suite(config: RunConfig) -> dict:
    try:
        checks = _SUITE_FNS[config.suite](config)
    except CertificateCapExceeded as exc:
        # a certificate cap (stabilization level, box, refinement) ran out
        checks = [_check("certificate cap exceeded", False, str(exc))]
    return {
        "schema": SCHEMA,
        "suite": config.suite,
        # jobs deliberately omitted: report bytes must not depend on the
        # worker count
        "config": {"p": config.p, "m": config.m, "rank": config.rank,
                   "pair_rank": config.pair_rank,
                   "slope_max": config.slope_max, "box": config.box},
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


# -- single-object evaluation -----------------------------------------------

def _eval_object(args) -> dict:
    ctx = DepthContext(args.p, args.m)
    obj = args.object

    def mat(text):
        if text is None:
            raise ValueError(f"object {obj!r} needs a matrix argument")
        g = Mat.from_text(text, args.p)
        if g.det() == 0:
            raise ValueError("matrix is singular")
        return g

    if obj == "f":
        g = mat(args.g)
        return {"object": "f", "value": f_explicit(g, ctx)}
    if obj == "W":
        g = mat(args.g)
        coeff, phase = WhittakerOnH(ctx, g.n).value_parts(g)
        return {"object": "W", "coefficient": coeff, "phase": phase}
    if obj == "chi":
        g = mat(args.g)
        return {"object": "chi",
                "value": chi_tau_eval(theta_matrix(g.n, ctx), g)}
    if obj == "iwasawa":
        g = mat(args.g)
        dec = iwasawa_UAK(g)
        return {"object": "iwasawa", "u": dec.u, "a": dec.a, "k": dec.k}
    if obj == "bruhat":
        g = mat(args.g)
        dec = bruhat_open_cell(g)
        if dec is None:
            return {"object": "bruhat", "open_cell": False}
        return {"object": "bruhat", "open_cell": True,
                "lower": dec.u, "diag": dec.a, "upper": dec.n}
    if obj == "classify":
        u = mat(args.u if args.u is not None else args.g)
        return {"object": "classify", **classify(u).to_json()}
    if obj == "Wfcg":
        c = mat(args.c)
        a = mat(args.a) if args.a else Mat.identity(c.n, args.p)
        k = mat(args.k) if args.k else Mat.identity(c.n, args.p)
        f = standard_E_element(ctx, c.n)
        w = W_fcg(f, c, a, k)
        return {"object": "Wfcg", "coeff": w.coeff, "phase": w.phase,
                "zero": w.is_zero()}
    raise ValueError(f"unknown object {obj!r}")


# -- argument plumbing ------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiczeta",
        description="exact local verification suites and evaluators")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, choices=SUITES)
    ver.add_argument("--p", type=int, required=True)
    ver.add_argument("--m", type=int, default=1)
    ver.add_argument("--rank", type=int, default=2)
    ver.add_argument("--pair-rank", type=int, default=1)
    ver.add_argument("--slope-max", type=int, default=None)
    ver.add_argument("--box", type=int, default=2)
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--out", default=None)
    ver.add_argument("--format", choices=("json", "markdown"),
                     default="json")

    ev = sub.add_parser("eval", help="print one exact value")
    ev.add_argument("object", choices=EVAL_OBJECTS)
    ev.add_argument("--p", type=int, required=True)
    ev.add_argument("--m", type=int, default=1)
    ev.add_argument("--g", default=None, help="matrix, rows ';'-separated")
    ev.add_argument("--u", default=None)
    ev.add_argument("--c", default=None)
    ev.add_argument("--a", default=None)
    ev.add_argument("--k", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        try:
            config = RunConfig(suite=args.suite, p=args.p, m=args.m,
                            rank=args.rank, pair_rank=args.pair_rank,
                            slope_max=args.slope_max, box=args.box,
                            jobs=args.jobs)
        except ValueError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        t0 = time.monotonic()
        report = run_suite(config)
        text = report_render(report, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        print(f"suite {config.suite}: "
              f"{'pass' if report['ok'] else 'FAIL'} "
              f"({time.monotonic() - t0:.2f}s)", file=sys.stderr)
        return 0 if report["ok"] else 1
    if args.command == "eval":
        try:
            value = _eval_object(args)
        except ValueError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(json.dumps(_canon(value), sort_keys=True,
                                    indent=2) + "\n")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
