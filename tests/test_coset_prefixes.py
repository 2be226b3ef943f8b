"""Lazy coset enumeration, and the callers that read only a prefix of it.

`group.iter_cosets` yields the transversals of `enumerate_cosets` one at a
time, in the same order (pinned against a reference in
`test_matrix_builders.py`), and `enumerate_cosets` is its list.  Three
callers read a bounded prefix (or stop at a first hit): the class
certificate `certify_E_class`, `rho0_report` and the agreement grid of
the `testfn-agreement` suite.  They must not build the full K
transversal, which is every matrix mod p^L filtered by its determinant:
the guards below count `Mat.det` calls, one per candidate, and require
fewer than p^(L n^2).  The certificate must check the same points as
before, which its pinned counts record.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from padiczeta import cli, group
from padiczeta.arith import CycValue, DepthContext
from padiczeta.group import Mat, SubgroupSpec, enumerate_cosets, iter_cosets
from padiczeta.nicedomain import rho0_report
from padiczeta.rslocal import (EClassElement, certify_E_class,
                               standard_E_element)
from padiczeta.testfn import translate_for_H


def test_enumerate_cosets_raises_at_the_call():
    for fn in (enumerate_cosets, iter_cosets):
        with pytest.raises(ValueError, match="below subgroup level"):
            fn(SubgroupSpec("Kq", 2, 2, 2), 1)
        with pytest.raises(ValueError, match="below subgroup level"):
            fn(SubgroupSpec("K", 2, 2), 0)
        # SubgroupSpec refuses an unknown tag, so pass a stand-in
        bad = SimpleNamespace(tag="KX", N=2, p=2, e=0)
        with pytest.raises(ValueError, match="unknown subgroup tag"):
            fn(bad, 1)


# checked counts of the class certificate, recorded before its K points
# became lazy: the certificate checks the same points in the same order
CHECKED = {
    (2, 1, 2): {"left_KA": 6, "right_Kq2": 48, "support": 96},
    (3, 1, 2): {"left_KA": 24, "right_Kq2": 108, "support": 96},
    (2, 2, 2): {"left_KA": 24, "right_Kq2": 48, "support": 320},
    (3, 2, 2): {"left_KA": 216, "right_Kq2": 108, "support": 320},
    (2, 1, 3): {"left_KA": 6, "right_Kq2": 96, "support": 1368},
}


@pytest.mark.parametrize("p, m, n", sorted(CHECKED))
def test_certificate_checks_the_pinned_points(p, m, n):
    elem = EClassElement(translate_for_H(DepthContext(p, m), n), Fraction(1))
    assert certify_E_class(elem) == CHECKED[p, m, n]


@pytest.fixture
def det_calls(monkeypatch):
    """The number of `Mat.det` calls made so far, as a one-item list."""
    calls = [0]
    real = Mat.det

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(group.Mat, "det", counting)
    return calls


@pytest.mark.parametrize("p, m, n", [(3, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_certificate_reads_a_prefix_of_the_K_points(det_calls, p, m, n):
    elem = EClassElement(translate_for_H(DepthContext(p, m), n), Fraction(1))
    certify_E_class(elem)
    assert 0 < det_calls[0] < p ** (max(m, 1) * n * n)


@pytest.mark.parametrize("p, m", [(3, 1), (2, 2)])
def test_rho0_report_reads_a_prefix_of_the_K_points(det_calls, p, m):
    f = standard_E_element(DepthContext(p, m), 2)
    det_calls[0] = 0    # count the report only, not a first certificate
    rep = rho0_report(f, slope_max=0)
    assert len(rep["rows"]) == 2
    assert 0 < det_calls[0] < p ** (m * 4)


def test_agreement_grid_reads_a_prefix_of_the_K_points(monkeypatch,
                                                       det_calls):
    # both routes stubbed: the guard counts the grid's enumeration only
    monkeypatch.setattr(cli, "f_explicit", lambda g, ctx: CycValue.one)
    monkeypatch.setattr(cli, "f_convolution", lambda g, ctx: CycValue.one)
    config = cli.RunConfig("testfn-agreement", 3, 1, 2)
    checks = cli._suite_testfn(config)
    assert checks[1]["detail"]["points"] == 512
    assert 0 < det_calls[0] < 3 ** (2 * 4)
