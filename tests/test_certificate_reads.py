"""How often the stabilization certificates read each K-part.

`rslocal.W_fcg` sums the transform at box depths BOX_START, BOX_START + 1,
... at one K-point, and `nicedomain.vanishing_check` sums a cell at two or
more refinement levels at one K-point; consecutive steps share most of
their K-parts.  One call reads the phase exponent of each distinct K-part
(`testfn._explicit_exponent_at`) once, and `vanishing_check` reads the
coefficient of each distinct a-part (`_a_coefficient`) once, however many
steps its certificate draws.  The values are pinned by
`tests/golden/w-fcg.json` and `tests/golden/vanishing-check.json`.
"""

import itertools
import random

from padiczeta import nicedomain, rslocal
from padiczeta.arith import DepthContext
from padiczeta.group import Mat, p_power_diag
from padiczeta.nicedomain import (NiceDomain, hypothesis_diagonal,
                                  scan_box_domains, vanishing_check)
from padiczeta.rslocal import W_fcg, pinned_outer_diagonal, standard_E_element

W_CONTEXTS = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 2, 2), (2, 1, 3))
# (p, m, slopes); at slope 0 several K-parts on the support share one
# a-part
VANISHING_CASES = ((2, 1, (0, 1, 2, 3, 4, 5)), (3, 1, (0, 1, 2, 3)),
                   (2, 2, (0, 1, 3)))


def _draw_k(rng, p, mod, n):
    """A random k in K with entries in [0, mod)."""
    while True:
        k = Mat([[rng.randrange(mod) for _ in range(n)] for _ in range(n)], p)
        if k.det() % p:
            return k


def _recording(monkeypatch, module, name, log):
    """Patch module.name to append (args, result) to log on every call."""
    real = getattr(module, name)

    def wrapped(*args):
        out = real(*args)
        log.append((args, out))
        return out

    monkeypatch.setattr(module, name, wrapped)


def test_transform_reads_each_k_part_once_per_call(monkeypatch):
    rng = random.Random(29)
    shared = 0
    for p, m, n in W_CONTEXTS:
        f = standard_E_element(DepthContext(p, m), n)
        for e in range(3):
            c = p_power_diag([-m * e] * n, p)
            a, _ = pinned_outer_diagonal(f, c)
            for _ in range(4):
                k = _draw_k(rng, p, p ** m, n)
                with monkeypatch.context() as patch:
                    boxes, reads = [], []
                    _recording(patch, rslocal, "_w_cell_data", boxes)
                    _recording(patch, rslocal, "_explicit_exponent_at",
                               reads)
                    W_fcg(f, c, a, k)
                parts = [krows for _, cells in boxes
                         for krows, _ in cells.groups]
                read = [args[0] for args, _ in reads]
                # every K-part of the boxes read, each once
                assert sorted(read) == sorted(set(parts))
                shared += len(parts) - len(set(parts))
    # the boxes of one call do share K-parts, so the guard has teeth
    assert shared > 0


def test_vanishing_check_reads_each_key_once_per_call(monkeypatch):
    rng = random.Random(29)
    shared = together = 0
    for p, m, slopes in VANISHING_CASES:
        ctx = DepthContext(p, m)
        f = standard_E_element(ctx, 2)
        for rho, a in itertools.product(
                slopes, (hypothesis_diagonal(ctx, 2), Mat.identity(2, p))):
            domains = ([NiceDomain(2, p, 0, 0, None, None)] if rho == 0
                       else scan_box_domains(2, p, rho))
            for domain in rng.sample(domains, min(3, len(domains))):
                k = _draw_k(rng, p, p ** m, 2)
                with monkeypatch.context() as patch:
                    sweeps, reads, coeffs = [], [], []
                    _recording(patch, nicedomain, "_cell_keys", sweeps)
                    _recording(patch, nicedomain, "_explicit_exponent_at",
                               reads)
                    _recording(patch, nicedomain, "_a_coefficient", coeffs)
                    vanishing_check(a, k, (0, 0), domain, f)
                keys = [key for _, (swept, *_) in sweeps
                        for key, _ in swept]
                phases = {args[0]: e for args, e in reads}
                # one phase read per distinct K-part of the sums drawn
                assert len(reads) == len(phases)
                assert set(phases) == {krows for _, krows in keys}
                # one coefficient per distinct a-part on the support
                read_exps = [args[2] for args, _ in coeffs]
                assert len(read_exps) == len(set(read_exps))
                assert set(read_exps) == {exps for exps, krows in keys
                                          if phases[krows] is not None}
                shared += len(keys) - len(set(keys))
                together += len(read_exps) < len(
                    {krows for exps, krows in keys
                     if phases[krows] is not None})
    # the levels of one call do share keys, and some calls read one
    # a-part for several K-parts, so the guard has teeth
    assert shared > 0 and together > 0
