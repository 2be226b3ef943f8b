"""Every certificate cap that runs out raises `CertificateCapExceeded`.

The exception names the cap, its value and the last level reached, keeps
its message as str() (the report text of a failed check), stays a
`RuntimeError`, and survives pickling, so a `--jobs` worker can return it.
"""

import pickle
from fractions import Fraction

import pytest

from padiczeta import nicedomain
from padiczeta.arith import CertificateCapExceeded, DepthContext
from padiczeta.group import Mat, SubgroupSpec, enumerate_cosets
from padiczeta.nicedomain import NiceDomain, hypothesis_diagonal, vanishing_check
from padiczeta.rslocal import (
    Q_P,
    RSIntegralConfig,
    W_fcg,
    pinned_outer_diagonal,
    standard_E_element,
)
from padiczeta.testfn import f_convolution

CTX21 = DepthContext(2, 1)
F2 = standard_E_element(CTX21, 2)
ONE_BOX = RSIntegralConfig(box_start=0, box_cap=0)
# the central point |c_i| = T^{1/2} of the rank-2 support law
C2 = Mat.diag([Fraction(1, 2)] * 2, 2)


def _raised(fn, *args, **kwargs) -> CertificateCapExceeded:
    with pytest.raises(CertificateCapExceeded) as info:
        fn(*args, **kwargs)
    return info.value


def test_cap_exception_fields_and_pickling():
    exc = CertificateCapExceeded("some cap exceeded", "cap", 4, 6)
    assert isinstance(exc, RuntimeError)
    assert str(exc) == "some cap exceeded"
    back = pickle.loads(pickle.dumps(exc))
    assert (str(back), back.cap, back.value, back.level) == (
        "some cap exceeded", "cap", 4, 6)


def test_convolution_level_cap():
    g = Mat([[Fraction(1, 2), 0], [0, 2]], 2)
    exc = _raised(f_convolution, g, CTX21, cap=1)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "convolution level cap exceeded", "cap", 1, 3)


def test_transform_box_cap():
    a, _ = pinned_outer_diagonal(F2, C2)
    k = enumerate_cosets(SubgroupSpec("K", 2, 2), 1)[0]
    exc = _raised(W_fcg, F2, C2, a, k, cfg=ONE_BOX)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "transform box cap exceeded without stabilization", "box_cap", 0, 0)


def test_integral_box_cap():
    exc = _raised(Q_P, F2, C2, cfg=ONE_BOX)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "integral box cap exceeded without stabilization", "box_cap", 0, 0)


def test_outer_shell_cap():
    cfg = RSIntegralConfig(box_start=0, box_cap=0, shell_cap=0)
    exc = _raised(Q_P, F2, Mat.identity(2, 2), 1, cfg=cfg)
    assert (str(exc), exc.cap, exc.value) == (
        "outer shell cap exceeded without certificate", "shell_cap", 0)


def test_refinement_cap(monkeypatch):
    # a cell sum that changes at every refinement never certifies
    calls = []

    def moving_sum(*args):
        calls.append(None)
        return {len(calls): None}, 1

    monkeypatch.setattr(nicedomain, "_cell_sum", moving_sum)
    a = hypothesis_diagonal(CTX21, 2)
    k = enumerate_cosets(SubgroupSpec("K", 2, 2), 1)[0]
    exc = _raised(vanishing_check, a, k, (0, 0),
                  NiceDomain(2, 2, 0, 0, None, None), F2, max_refine=2)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "cell refinement did not certify local constancy", "max_refine",
        2, 2)
    # max_refine + 2 sums: each failed round's finer sum is reused as the
    # next round's coarse one
    assert len(calls) == 4


def test_refinement_reuses_the_finer_sum(monkeypatch):
    # a cell sum that settles after one refinement certifies in the second
    # round, at the once-refined levels, with the cells of the two sums it
    # compared there; the finer sum of the failed first round is reused,
    # so each level is summed once
    seen = []

    def settling_sum(f, s, a, zk, domain, levels):
        seen.append(levels)
        r = (sum(levels.values()) - sum(seen[0].values())) // len(levels)
        return {min(r, 1): None}, 10 ** r

    monkeypatch.setattr(nicedomain, "_cell_sum", settling_sum)
    a = hypothesis_diagonal(CTX21, 2)
    k = enumerate_cosets(SubgroupSpec("K", 2, 2), 1)[0]
    out = vanishing_check(a, k, (0, 0), NiceDomain(2, 2, 0, 0, None, None),
                          F2)
    assert len(seen) == 3
    assert [sum(lv.values()) - sum(seen[0].values()) for lv in seen] == [
        0, len(seen[0]), 2 * len(seen[0])]
    assert (out.parts, out.levels, out.cells, out.certified) == (
        {1: None}, seen[1], 110, True)
