"""Functions that read `Mat` entries, against references written here on
Fraction rows: the conjugation by the slope dilation, the trace exponent
of the congruence character chi_tau, and the text form of a matrix."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from padiczeta.arith import DepthContext, frac_part
from padiczeta.group import Mat
from padiczeta.nicedomain import conj_by_A
from padiczeta.params import TauParam, chi_tau_exponent
from padiczeta.residue import ZMat

READER_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

entries = st.builds(Fraction, st.integers(-30, 30),
                    st.sampled_from([1, 2, 3, 4, 5, 8, 9, 25, 27]))


@st.composite
def fraction_rows(draw):
    n = draw(st.integers(1, 4))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@READER_SETTINGS
@given(fraction_rows(), st.sampled_from([2, 3, 5]), st.integers(-3, 3))
def test_conj_by_A_matches_fraction_rows(rows, p, rho):
    n = len(rows)
    want = Mat([[rows[i][j] * Fraction(p) ** ((j - i) * rho)
                 for j in range(n)] for i in range(n)], p)
    got = conj_by_A(Mat(rows, p), rho)
    assert got == want and hash(got) == hash(want)


@st.composite
def congruence_points(draw):
    """(ctx, tau rows, k rows): k = 1 + q x / d in K(q) with d a unit."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    q = p ** m
    tau = [[draw(st.integers(0, q - 1)) for _ in range(n)] for _ in range(n)]
    d = draw(st.integers(1, 30).filter(lambda d: d % p))
    x = [[draw(st.integers(-p ** 3, p ** 3)) for _ in range(n)]
         for _ in range(n)]
    k = [[Fraction(d * (i == j) + q * x[i][j], d) for j in range(n)]
         for i in range(n)]
    return DepthContext(p, m), tau, k


@READER_SETTINGS
@given(congruence_points())
def test_chi_tau_exponent_matches_fraction_trace(point):
    ctx, tau, k = point
    n = len(k)
    trace = sum(((k[i][j] - (i == j)) * tau[j][i]
                 for i in range(n) for j in range(n)), Fraction(0))
    want = frac_part(trace / ctx.T, ctx.p)
    param = TauParam(ctx, ZMat.make(tau, ctx.p, ctx.m))
    assert chi_tau_exponent(param, Mat(k, ctx.p)) == want


@st.composite
def matrix_texts(draw):
    """(text, rows): a matrix text with each entry written as an integer
    or as num/den, not in lowest terms and with either sign on den, with
    optional spaces, and the Fraction rows it means."""
    rows = draw(fraction_rows())
    texts = []
    for row in rows:
        words = []
        for x in row:
            scale = draw(st.sampled_from([1, 1, 2, 3, 10])) * draw(
                st.sampled_from([1, -1]))
            word = f"{x.numerator * scale}/{x.denominator * scale}"
            if x.denominator == 1 and draw(st.booleans()):
                word = str(x.numerator)
            words.append(draw(st.sampled_from(["", " "])) + word)
        texts.append(",".join(words))
    return ";".join(texts), rows


@READER_SETTINGS
@given(matrix_texts(), st.sampled_from([2, 3, 5]))
def test_text_round_trip_matches_fraction_reference(point, p):
    text, rows = point
    want = Mat(rows, p)
    got = Mat.from_text(text, p)
    assert got == want
    ref_text = ";".join(",".join(f"{x.numerator}/{x.denominator}"
                                 for x in row) for row in rows)
    assert got.to_text() == ref_text
    assert Mat.from_text(ref_text, p) == got
