"""Every certificate cap that runs out raises `CertificateCapExceeded`.

The exception names the cap, its value and the last level reached, keeps
its message as str() (the report text of a failed check), stays a
`RuntimeError`, and survives pickling, so a `--jobs` worker can return it.
The stabilization certificates close through the one rule `certify`, and
their caps are module constants, patched here where a test needs a cap
that runs out.
"""

import inspect
import pickle
from fractions import Fraction

import pytest

from padiczeta import nicedomain, rslocal, testfn
from padiczeta.arith import CertificateCapExceeded, DepthContext, certify
from padiczeta.group import Mat, SubgroupSpec, enumerate_cosets
from padiczeta.nicedomain import NiceDomain, hypothesis_diagonal, vanishing_check
from padiczeta.rslocal import (
    Q_P,
    W_fcg,
    pinned_outer_diagonal,
    standard_E_element,
)
from padiczeta.testfn import f_convolution

CTX21 = DepthContext(2, 1)
F2 = standard_E_element(CTX21, 2)
# the central point |c_i| = T^{1/2} of the rank-2 support law
C2 = Mat.diag([Fraction(1, 2)] * 2, 2)


@pytest.fixture
def one_box(monkeypatch):
    """Transform and integral boxes capped at the single depth 0."""
    monkeypatch.setattr(rslocal, "BOX_START", 0)
    monkeypatch.setattr(rslocal, "BOX_CAP", 0)


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


def test_certify_returns_the_first_consecutive_equal_pair():
    # not the repeat of "a" two steps apart, and not the later pair
    steps = [(0, "a"), (1, "b"), (2, "a"), (3, "c"), (4, "c"), (5, "d"),
             (6, "d")]
    assert certify(iter(steps), "m", "cap", 9, 9) == ((3, "c"), (4, "c"))
    assert certify(iter(steps[:2] + steps[5:]), "m", "cap", 9, 9) == (
        (5, "d"), (6, "d"))


def test_certify_draws_no_step_past_the_closing_one():
    drawn = []

    def steps():
        for level, value in [(2, 7), (3, 5), (4, 5)]:
            drawn.append(level)
            yield level, value
        raise RuntimeError("a step past the closing one was drawn")

    assert certify(steps(), "m", "cap", 9, 9) == ((3, 5), (4, 5))
    assert drawn == [2, 3, 4]


@pytest.mark.parametrize("steps", [[], [(0, 1)], [(0, 1), (1, 2), (2, 1)]])
def test_certify_raises_the_given_fields_when_the_steps_run_out(steps):
    exc = _raised(certify, iter(steps), "never closed", "some_cap", 4, 6)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "never closed", "some_cap", 4, 6)


def test_certify_takes_five_positional_arguments_without_defaults():
    params = inspect.signature(certify).parameters.values()
    assert len(params) == 5
    assert all(p.kind is p.POSITIONAL_ONLY and p.default is p.empty
               for p in params)


def test_convolution_level_cap(monkeypatch):
    monkeypatch.setattr(testfn, "LEVEL_CAP", 1)
    g = Mat([[Fraction(1, 2), 0], [0, 2]], 2)
    exc = _raised(f_convolution, g, CTX21)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "convolution level cap exceeded", "cap", 1, 3)


def test_transform_box_cap(one_box):
    a, _ = pinned_outer_diagonal(F2, C2)
    k = enumerate_cosets(SubgroupSpec("K", 2, 2), 1)[0]
    exc = _raised(W_fcg, F2, C2, a, k)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "transform box cap exceeded without stabilization", "box_cap", 0, 0)


def test_integral_box_cap(one_box):
    exc = _raised(Q_P, F2, C2, 0)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "integral box cap exceeded without stabilization", "box_cap", 0, 0)


def test_outer_shell_cap(one_box, monkeypatch):
    monkeypatch.setattr(rslocal, "SHELL_CAP", 0)
    exc = _raised(Q_P, F2, Mat.identity(2, 2), 1)
    assert (str(exc), exc.cap, exc.value) == (
        "outer shell cap exceeded without certificate", "shell_cap", 0)


def test_refinement_cap(monkeypatch):
    # a cell sum that changes at every refinement never certifies
    calls = []

    def moving_sum(*args):
        calls.append(None)
        return {len(calls): None}, 1

    monkeypatch.setattr(nicedomain, "_cell_sum", moving_sum)
    monkeypatch.setattr(nicedomain, "MAX_REFINE", 2)
    a = hypothesis_diagonal(CTX21, 2)
    k = enumerate_cosets(SubgroupSpec("K", 2, 2), 1)[0]
    exc = _raised(vanishing_check, a, k, (0, 0),
                  NiceDomain(2, 2, 0, 0, None, None), F2)
    assert (str(exc), exc.cap, exc.value, exc.level) == (
        "cell refinement did not certify local constancy", "max_refine",
        2, 2)
    # MAX_REFINE + 2 sums: each failed round's finer sum is reused as the
    # next round's coarse one
    assert len(calls) == 4


def test_refinement_reuses_the_finer_sum(monkeypatch):
    # a cell sum that settles after one refinement certifies in the second
    # round, at the once-refined levels, with the cells of the two sums it
    # compared there; the finer sum of the failed first round is reused,
    # so each level is summed once
    seen = []

    def settling_sum(f, s, a, zk, domain, levels, phases, coeffs):
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


def test_transform_builds_no_box_past_the_closing_one(monkeypatch):
    # W_fcg builds the boxes BOX_START, BOX_START + 1, ... and stops at
    # the first whose value equals the one before it
    built = []
    real = rslocal._w_cell_data

    def recording(f, c, a, B, nprime):
        built.append(B)
        return real(f, c, a, B, nprime)

    monkeypatch.setattr(rslocal, "_w_cell_data", recording)
    a, _ = pinned_outer_diagonal(F2, C2)
    k = enumerate_cosets(SubgroupSpec("K", 2, 2), 1)[0]
    W_fcg(F2, C2, a, k)
    assert built == list(range(rslocal.BOX_START, built[-1] + 1))
    zk = rslocal.residue_rows(k, 2)
    phases = [rslocal._phase_at(F2, real(F2, C2, a, B, 0), zk, {})
              for B in built]
    assert phases[-2] == phases[-1]
    assert all(x != y for x, y in zip(phases[:-2], phases[1:-1]))
