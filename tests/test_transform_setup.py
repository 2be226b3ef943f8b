"""The per-call set-up of the transform and of the vanishing sums.

`rslocal.W_fcg` reads its coefficient delta_N^{1/2}(c) c1 from the
integer diagonal of c (`rslocal._coeff`, through the integer
`group.modular_delta_half_exponent`), and both it and
`nicedomain.vanishing_check` test k for membership in K (`Mat.in_K`) and
reduce it mod q^2 once.  The class
element that keys the cell caches hashes its fields once, on
construction.  The Fraction forms are the twins `delta_half_exponent` and
`transform_coeff` in `tests/twins.py`.
"""

import fractions
import pickle
import random
from fractions import Fraction

import pytest

from padiczeta.arith import DepthContext
from padiczeta.group import Mat, modular_delta_half_exponent, p_power_diag
from padiczeta.nicedomain import (NiceDomain, hypothesis_diagonal,
                                  scan_box_domains, vanishing_check)
from padiczeta.rslocal import (EClassElement, W_fcg, _coeff,
                               pinned_outer_diagonal, standard_E_element)
from padiczeta.testfn import translate_for_H
from twins import delta_half_exponent, transform_coeff


def _draw_k(rng, p, mod, n):
    """A random k in K with entries in [0, mod)."""
    while True:
        k = Mat([[rng.randrange(mod) for _ in range(n)] for _ in range(n)], p)
        if k.det() % p:
            return k


def _counting_fraction_hashes(monkeypatch) -> list:
    """Patch `Fraction.__hash__` to log each call; returns the log."""
    real, log = fractions.Fraction.__hash__, []

    def counted(self):
        log.append(self)
        return real(self)

    monkeypatch.setattr(fractions.Fraction, "__hash__", counted)
    return log


def test_warm_requests_hash_no_fraction(monkeypatch):
    # a warm transform or vanishing request finds its cells under keys
    # whose hash is read, not rebuilt from the Fractions of the element
    rng = random.Random(30)
    calls = []
    for p, m in ((2, 1), (3, 2)):
        f = standard_E_element(DepthContext(p, m), 2)
        for e in range(3):
            c = p_power_diag([-m * e] * 2, p)
            a, _ = pinned_outer_diagonal(f, c)
            k = _draw_k(rng, p, p ** m, 2)
            calls.append((W_fcg, (f, c, a, k)))
    ctx = DepthContext(2, 1)
    f = standard_E_element(ctx, 2)
    a = hypothesis_diagonal(ctx, 2)
    for domain in [NiceDomain(2, 2, 0, 0, None, None),
                   *scan_box_domains(2, 2, 1)[:2]]:
        calls.append((vanishing_check,
                      (a, _draw_k(rng, 2, 2, 2), (0, 0), domain, f)))
    for fn, args in calls:
        fn(*args)
    with monkeypatch.context() as patch:
        log = _counting_fraction_hashes(patch)
        # the wrapper is live: it counts a hash
        hash(Fraction(1, 3))
        assert len(log) == 1
        log.clear()
        for fn, args in calls:
            fn(*args)
    assert log == []


def test_class_element_hash_is_the_field_hash():
    ctx = DepthContext(3, 1)
    one = EClassElement(translate_for_H(ctx, 2), Fraction(1))
    two = EClassElement(translate_for_H(ctx, 2), Fraction(1))
    assert one == two and one is not two
    assert hash(one) == hash(two) == hash((one.tf, one.norm_sq))
    other = EClassElement(one.tf, Fraction(2))
    assert other != one and hash(other) == hash((one.tf, Fraction(2)))
    # a pickled element comes back through its constructor, equal and with
    # an equal hash
    back = pickle.loads(pickle.dumps(one))
    assert back == one and hash(back) == hash(one)
    assert one.__reduce__() == (EClassElement, (one.tf, Fraction(1)))


def _unit(rng, p):
    """A random signed p-adic unit, as a rational prime to p."""
    while True:
        num, den = rng.randrange(1, 50), rng.randrange(1, 50)
        if num % p and den % p:
            return Fraction(rng.choice((-1, 1)) * num, den)


def test_coefficient_matches_its_fraction_twin():
    rng = random.Random(31)
    elements = {}
    for _ in range(150):
        p, n = rng.choice((2, 3, 5)), rng.randrange(2, 5)
        if (p, n) not in elements:
            elements[p, n] = EClassElement(
                translate_for_H(DepthContext(p, 1), n), Fraction(1))
        c = Mat.diag([_unit(rng, p) * Fraction(p) ** rng.randint(-6, 6)
                      for _ in range(n)], p)
        half = modular_delta_half_exponent(c)
        assert half == delta_half_exponent(c)
        assert type(half) is Fraction
        f = elements[p, n]
        coeff = _coeff(f, c)
        assert coeff == transform_coeff(f, c)
        assert repr(coeff) == repr(transform_coeff(f, c))


@pytest.mark.parametrize("entries", [(0, 1), (1, 0), (2, 0, 3)])
def test_coefficient_of_a_singular_diagonal_raises_as_its_twin(entries):
    c = Mat.diag(entries, 2)
    f = EClassElement(translate_for_H(DepthContext(2, 1), len(entries)),
                      Fraction(1))
    for fast, twin in ((modular_delta_half_exponent, delta_half_exponent),
                       (lambda c: _coeff(f, c),
                        lambda c: transform_coeff(f, c))):
        with pytest.raises(Exception) as expected:
            twin(c)
        with pytest.raises(expected.type):
            fast(c)
