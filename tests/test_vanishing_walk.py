"""The cell character sums of `nicedomain.vanishing_check`.

The report bytes of `vanishing_check(a, k, s, domain, f).to_json()` are
pinned by `tests/golden/vanishing-check.json` at seeded points: rank 2 at
(p, m) = (2, 1), (3, 1), (2, 2) and rank 3 at (2, 1), (3, 1), with slope
0 and positive slopes, the hypothesis diagonal and the identity for a,
k drawn at random mod q, and s = 0 or a nonzero integral s.  The points
include sums that vanish and sums that do not.  Regenerate the file (only
on purpose) with

    PYTHONPATH=src python tests/test_vanishing_walk.py \
        > tests/golden/vanishing-check.json

`_cell_sum` is compared with a reference sum over the twin
`section_value`, written here, and the same golden points must come out
with `nicedomain` binding no Iwasawa decomposition or per-member section
and with every binding of them in the package and the twins refused.
The sweep of a cell is cached (`_cell_keys`) and read at k, so at the
golden points and at K-points across K/K(q) a call on a warm cache must
give the value of the same call on a cold one.
"""

import functools
import importlib
import json
import pkgutil
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import padiczeta
import twins
from padiczeta import nicedomain
from padiczeta.arith import CycSum, DepthContext, psi
from padiczeta.group import Mat, p_power_diag
from padiczeta.nicedomain import (NiceDomain, _cell_keys, _cell_sum,
                                  _upper_coords, hypothesis_diagonal,
                                  scan_box_domains, vanishing_check)
from padiczeta.residue import residue_rows
from padiczeta.rslocal import _k_transversal, standard_E_element
from twins import cell_members, sampled_domains, section_value

GOLDEN_FILE = Path(__file__).parent / "golden" / "vanishing-check.json"
# (p, m, n, slopes, whether the cells are drawn per slope from one base
# point per class, `twins.sampled_domains`, or from all of them)
INSTANCES = ((2, 1, 2, (0, 1, 2, 3, 5), False),
             (3, 1, 2, (0, 1, 2, 3), False),
             (2, 2, 2, (0, 1, 3, 5), False),
             (2, 1, 3, (0, 1, 2, 4), True),
             (3, 1, 3, (1, 2), True))


def _draw_k(rng, p, mod, n):
    """A random k in K with entries in [0, mod)."""
    while True:
        k = Mat([[rng.randrange(mod) for _ in range(n)] for _ in range(n)], p)
        if k.det() % p:
            return k


@functools.cache
def _scan_box(n, p, rho, sampled):
    return (sampled_domains if sampled else scan_box_domains)(n, p, rho)


def _domain(rng, n, p, rho, sampled):
    if rho == 0:
        return NiceDomain(n, p, 0, 0, None, None)
    return rng.choice(_scan_box(n, p, rho, sampled))


def golden_points():
    """(f, a, k, s, domain) at the seeded golden points, in file order."""
    rng = random.Random(20261019)
    for p, m, n, slopes, sampled in INSTANCES:
        ctx = DepthContext(p, m)
        f = standard_E_element(ctx, n)
        diagonals = (hypothesis_diagonal(ctx, n), Mat.identity(n, p))
        for rho in slopes:
            for a in diagonals:
                s1 = tuple(rng.randrange(-2, 3) for _ in range(n - 1)) + (0,)
                for s in ((0,) * n, s1):
                    k = _draw_k(rng, p, p ** m, n)
                    yield f, a, k, s, _domain(rng, n, p, rho, sampled)


def golden_document() -> str:
    out = []
    for f, a, k, s, dom in golden_points():
        val = vanishing_check(a, k, s, dom, f)
        out.append({"p": f.ctx.p, "m": f.ctx.m, "n": f.n, "a": a.to_text(),
                    "k": k.to_text(), "s": list(s), "domain": dom.to_json(),
                    "value": val.to_json()})
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_vanishing_report_bytes():
    assert golden_document() == GOLDEN_FILE.read_text()


def test_golden_points_cover_both_outcomes():
    doc = json.loads(GOLDEN_FILE.read_text())
    assert len(doc) >= 32
    zero = [row["value"]["zero"] for row in doc]
    assert any(zero) and not all(zero)
    assert {row["n"] for row in doc} == {2, 3}
    assert any(any(row["s"]) for row in doc)


# -- the walk runs no Iwasawa decomposition and no per-member section -------

def _refuse(*args, **kwargs):
    raise RuntimeError("a per-member kernel ran")


PACKAGE = tuple(importlib.import_module(f"padiczeta.{info.name}")
                for info in pkgutil.iter_modules(padiczeta.__path__))


def test_cell_walk_runs_no_iwasawa_or_section(monkeypatch,
                                              cold_cell_keys):
    # the class elements are certified (through `TestFunction.phase`)
    # before the patch; the cells are swept from a cold cache under it
    for p, m, n, _, _ in INSTANCES:
        standard_E_element(DepthContext(p, m), n)
    for name in ("iwasawa_UAK", "section_value", "_explicit_on_K"):
        assert not hasattr(nicedomain, name), name
        bound = [mod for mod in PACKAGE + (twins,) if hasattr(mod, name)]
        assert bound, name
        for mod in bound:
            monkeypatch.setattr(mod, name, _refuse)
    assert golden_document() == GOLDEN_FILE.read_text()


# -- the cell sum against a reference over section_value --------------------

def ref_cell_sum(f, s, a, k, domain, levels):
    """(parts, cells) as the sum over the members u of the cell of
    section_value(w_G u a k) psi^{-1}(u) vol, one member at a time."""
    n, p, rho = domain.n, domain.p, domain.slope
    wG, ak = Mat.longest_weyl(n, p), a @ k
    vol = Fraction(p) ** sum((j - i) * rho - n - levels[(i, j)]
                             for (i, j) in _upper_coords(n))
    acc, cells = {}, 0
    for u in cell_members(domain, levels):
        cells += 1
        parts = section_value(f, s, wG @ u @ ak, {})
        weight = psi(-u.superdiagonal_sum(), p) * vol
        for rad, val in parts.items():
            acc.setdefault(rad, CycSum()).add(val * weight)
    values = {rad: t.value() for rad, t in acc.items()}
    return {rad: v for rad, v in values.items() if not v.is_zero()}, cells


def _parts_json(parts):
    return {str(rad): v.to_json() for rad, v in sorted(parts.items())}


@st.composite
def cell_sum_arguments(draw):
    """(f, s, a, k, domain, levels): rank 2 at (p, m) = (2, 1), (3, 1),
    (2, 2), or rank 3 at (2, 1); slope 0..5 (0..3 at rank 3), a cell
    drawn from the scan box, per-entry levels 0..2 (0..1 at rank 3, and
    0 at slope 0 there), a diagonal a with a unit last entry, k mod q and
    a small integral s."""
    p, m, n = draw(st.sampled_from([(2, 1, 2), (3, 1, 2), (2, 2, 2),
                                    (2, 1, 3)]))
    rho = draw(st.integers(0, 5 if n == 2 else 3))
    if rho == 0:
        domain = NiceDomain(n, p, 0, 0, None, None)
    else:
        cells = _scan_box(n, p, rho, 2)
        domain = cells[draw(st.integers(0, len(cells) - 1))]
    top = 2 if n == 2 else (1 if rho else 0)
    levels = {c: draw(st.integers(0, top)) for c in _upper_coords(n)}
    aexps = [draw(st.integers(-2 * m, 2 * m)) for _ in range(n - 1)] + [0]
    k = _draw_k(random.Random(draw(st.integers(0, 1 << 16))), p, p ** m, n)
    s = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    f = standard_E_element(DepthContext(p, m), n)
    return f, s, p_power_diag(aexps, p), k, domain, levels


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cell_sum_arguments())
def test_cell_sum_matches_section_reference(args):
    f, s, a, k, domain, levels = args
    want, want_cells = ref_cell_sum(f, s, a, k, domain, levels)
    got, cells = _cell_sum(f, s, a, residue_rows(k, 2 * f.ctx.m), domain,
                           levels, {}, {})
    assert cells == want_cells
    assert _parts_json(got) == _parts_json(want)


# -- the cached sweep: a warm cache gives the values of a cold one ----------

@functools.cache
def _k_points(ctx, n):
    """The K-points of the warm and cold calls: all of K/K(q) at rank 2,
    and at rank 3, where K/K(q) has 168 points at p = 2 and 11,232 at
    p = 3 and each cold call sweeps afresh, its first six, the prefix
    that `rho0_report` reads its K-points from."""
    return _k_transversal(ctx, n)[:None if n == 2 else 6]


def test_warm_cells_give_the_cold_values(cold_cell_keys):
    # the sweep is cached on (f, a, domain, levels) and read at k: at each
    # golden point and each of its `_k_points`, the call on a warm cache
    # (where every sweep is a hit) equals the call after cache_clear()
    for f, a, _, s, dom in golden_points():
        ks = _k_points(f.ctx, f.n)
        for k in ks:
            vanishing_check(a, k, s, dom, f)
        misses = _cell_keys.cache_info().misses
        warm = [vanishing_check(a, k, s, dom, f) for k in ks]
        assert _cell_keys.cache_info().misses == misses
        for k, got in zip(ks, warm):
            _cell_keys.cache_clear()
            want = vanishing_check(a, k, s, dom, f)
            assert (got.parts, got.levels, got.cells) == (
                want.parts, want.levels, want.cells)
            assert got.to_json() == want.to_json()


if __name__ == "__main__":
    sys.stdout.write(golden_document())
