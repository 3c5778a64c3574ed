"""Local zeta series, factored smoothed zeta, limits and the local FE."""

import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from f1zeta.errors import ConvergenceError, PreconditionError, SingularityError
from f1zeta.schemes import (
    MonoidScheme,
    TorsionPoint,
    f1_point,
    local_functional_equation,
    projective_space_model,
    torsion_point_model,
    torus_model,
)
from f1zeta.scheme_zeta import zeta_of_scheme
from f1zeta.weil import (
    LocalZetaFactors,
    TruncatedSeries,
    default_base_sequence,
    limit_toward_one,
    local_zeta_series,
    smoothed_local_zeta,
)
from f1zeta.zetas import evaluate_zeta


@st.composite
def torsion_free_schemes(draw, max_points=4, max_rank=3):
    n = draw(st.integers(1, max_points))
    pts = tuple(TorsionPoint(draw(st.integers(0, max_rank))) for _ in range(n))
    return MonoidScheme(pts)


@st.composite
def torsion_schemes(draw, max_points=5, max_rank=4):
    n = draw(st.integers(1, max_points))
    pts = tuple(
        TorsionPoint(draw(st.integers(0, max_rank)),
                     tuple(draw(st.lists(st.integers(2, 6), max_size=2))))
        for _ in range(n)
    )
    return MonoidScheme(pts)


def test_series_examples():
    assert local_zeta_series(f1_point(), 2, 3).coefficients == (1, 1, 1, 1)
    # G_m at p=2: (1-T)/(1-2T) = 1 + T + 2T^2 + ...
    assert local_zeta_series(torus_model(), 2, 2).coefficients == (1, 1, 2)
    # rank 0 with torsion [2] at p=3: counts are constantly 2, (1-T)^-2
    assert local_zeta_series(torsion_point_model([2]), 3, 2).coefficients == (1, 2, 3)


def test_series_rejections():
    with pytest.raises(PreconditionError):
        local_zeta_series(f1_point(), 2, 0)
    with pytest.raises(PreconditionError):
        local_zeta_series(f1_point(), 1, 3)
    with pytest.raises(PreconditionError):
        TruncatedSeries((Fraction(2), Fraction(1)))


def test_smoothed_factored_examples():
    gm = smoothed_local_zeta(torus_model(), 2)
    assert gm.factors == ((0, 1), (1, -1))
    tp = smoothed_local_zeta(torsion_point_model([2]), 3)
    assert tp.factors == ((0, -2),)
    pt = smoothed_local_zeta(f1_point(), 2)
    assert pt.factors == ((0, -1),)
    with pytest.raises(PreconditionError):
        smoothed_local_zeta(f1_point(), 1)


def test_smoothed_evaluation_and_singularities():
    gm = smoothed_local_zeta(torus_model(), 2.0)
    # (1 - p^-s)^1 (1 - p^(1-s))^(-1) at p = 2, s = 2
    expected = (1 - 2.0**-2) / (1 - 2.0**-1)
    assert gm.evaluate_s(2) == pytest.approx(expected)
    with pytest.raises(SingularityError):
        gm.evaluate_s(1)  # 1 - p^(1-s) vanishes


def test_pole_order_examples():
    assert f1_point().counting.value_at_one() == 1
    assert torus_model().counting.value_at_one() == 0
    assert torsion_point_model([2]).counting.value_at_one() == 2


def test_limit_examples():
    seq = default_base_sequence()
    vals = limit_toward_one(torsion_point_model([2]), 2, seq)
    assert abs(vals[-1] - 0.25) < 1e-4
    vals = limit_toward_one(torus_model(), 3, seq)
    assert abs(vals[-1] - 1.5) < 1e-4
    vals = limit_toward_one(f1_point(), 1, seq)
    assert abs(vals[-1] - 1.0) < 1e-4


# exponent sums far past the range where a plain float product of the
# factors (1 - p^(r-s))^(e_r) stays finite
LARGE_EXPONENT_LIMITS = [
    (
        MonoidScheme(
            (
                TorsionPoint(4, (3, 4)),
                TorsionPoint(4, (2,)),
                TorsionPoint(4),
                TorsionPoint(3, (3,)),
            ),
            dimension=5,
        ),
        7.5 + 0j,
    ),
    (MonoidScheme((TorsionPoint(0, (4, 4)),) * 4), 0.5 + 0.25j),
]


def _scaled_product_limit(scheme, s, p):
    """(p-1)^N prod_r (1 - p^(r-s))^(e_r) by repeated multiplication, with
    the running product renormalized by powers of two; exponents come from
    the per-point formula e_r = sum_x T(x) C(R(x), r) (-1)^(R(x)-r-1)."""
    exps: dict[int, int] = {}
    for pt in scheme.points:
        for r in range(pt.rank + 1):
            sign = 1 if (pt.rank - r) % 2 else -1
            exps[r] = exps.get(r, 0) + sign * pt.torsion_cardinality * math.comb(pt.rank, r)
    pole = -sum(exps.values())
    factors = [(p - 1, pole)]
    factors += [(1 - cmath.exp((r - s) * math.log(p)), e) for r, e in exps.items()]
    mantissa, scale = 1 + 0j, 0
    for f, e in factors:
        step = f if e > 0 else 1 / f
        for _ in range(abs(e)):
            _, k = math.frexp(abs(mantissa * step))
            mantissa = mantissa * step / 2.0**k
            scale += k
    return complex(math.ldexp(mantissa.real, scale), math.ldexp(mantissa.imag, scale))


@pytest.mark.parametrize("scheme,s", LARGE_EXPONENT_LIMITS)
def test_limit_with_large_exponents_matches_scaled_product(scheme, s):
    seq = default_base_sequence()
    values = limit_toward_one(scheme, s, seq)
    for p, v in zip(seq, values):
        want = _scaled_product_limit(scheme, s, p)
        assert abs(v - want) <= 1e-11 * abs(want)
    target = evaluate_zeta(zeta_of_scheme(scheme), s)
    assert abs(values[-1] - target) <= 1e-3 * abs(target)


@settings(max_examples=40, deadline=None)
@given(torsion_schemes(), st.floats(0.5, 3), st.floats(-3, 3))
def test_limit_reads_the_per_base_factors(scheme, re, im):
    # one counting-coefficient pass for all bases, bit for bit the value
    # that the factored local zeta at each base gives; Re(s) > max rank
    # keeps every factor 1 - p^(r-s) away from 0
    s = complex(scheme.max_rank + re, im)
    seq = default_base_sequence()
    want = [
        cmath.exp(scheme.counting.value_at_one() * math.log(p - 1)
                  + smoothed_local_zeta(scheme, p).log_evaluate_s(s))
        for p in seq
    ]
    assert limit_toward_one(scheme, s, seq) == want


def test_limit_overflow_is_a_convergence_error():
    # zeta = s^(-2000): 2^2000 at s = 1/2 is beyond float range
    with pytest.raises(ConvergenceError, match="achieved log"):
        limit_toward_one(torsion_point_model([2000]), 0.5)


def test_limit_sequence_validation():
    with pytest.raises(PreconditionError):
        limit_toward_one(f1_point(), 2, [1.01, 1.1])
    with pytest.raises(PreconditionError):
        limit_toward_one(f1_point(), 2, [0.9])


@settings(max_examples=25, deadline=None)
@given(torsion_free_schemes(), st.sampled_from([2, 3, 5]), st.integers(1, 12))
def test_series_matches_factored_expansion(scheme, p, order):
    series = local_zeta_series(scheme, p, order)
    factored = smoothed_local_zeta(scheme, p).series(order)
    assert series.coefficients == factored.coefficients


def _binomial_product_series(z: LocalZetaFactors, order: int) -> tuple[int, ...]:
    # the former expansion: one binomial series (1 - a T)^e per factor,
    # multiplied out by truncated convolution
    out = [1] + [0] * order
    for r, e in z.factors:
        a = z.base**r
        factor = [1]
        binom = 1
        for n in range(1, order + 1):
            binom = binom * (e - n + 1) // n
            factor.append(binom * (-a) ** n)
        out = [sum(out[i] * factor[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(torsion_schemes(), st.sampled_from([2, 3, 5, 7]), st.integers(0, 14))
def test_factored_series_matches_the_binomial_product(scheme, p, order):
    assume(any(a < 0 for a in scheme.coefficients))
    z = smoothed_local_zeta(scheme, p)
    assert z.series(order).coefficients == _binomial_product_series(z, order)


@pytest.mark.parametrize("e", [-1, -40], ids=["passes", "newton"])
def test_factored_series_names_its_first_unprintable_coefficient(e):
    # sum |e_r| = 3 <= 30 expands factor by factor, 42 > 30 by the recurrence
    z = LocalZetaFactors(7, ((0, 2), (40, e)))
    expected = _binomial_product_series(z, 30)
    assert z.series(30).coefficients == expected
    first = next(n for n, c in enumerate(expected) if abs(c) >= 10**640)
    assert 3 <= first < 30  # at order `first` each path stays the one it is at 30
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(PreconditionError, match=f"coefficient {first} of .* 640 decimal"):
            z.series(30)
        # only the last coefficient too long: still named, and one order less passes
        with pytest.raises(PreconditionError, match=f"coefficient {first} of .* 640 decimal"):
            z.series(first)
        assert z.series(first - 1).coefficients == expected[:first]
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("torsion,p", [((2,), 3), ((2, 3), 7), ((4,), 5), ((5, 2), 11)])
def test_series_matches_factored_with_congruent_prime(torsion, p):
    # p = 1 mod every torsion order keeps the gcd factors constant
    scheme = MonoidScheme((TorsionPoint(1, torsion), TorsionPoint(0, torsion[:1])))
    series = local_zeta_series(scheme, p, 8)
    factored = smoothed_local_zeta(scheme, p).series(8)
    assert series.coefficients == factored.coefficients


@pytest.mark.parametrize(
    "scheme,s",
    [
        (torsion_point_model([2]), 2.0),
        (torus_model(), 3.0),
        (projective_space_model(1), 2.5),
    ],
)
def test_limit_differences_decrease(scheme, s):
    target = evaluate_zeta(zeta_of_scheme(scheme), s)
    vals = limit_toward_one(scheme, s)
    errs = [abs(v - target) for v in vals]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def _eval_exact_t(z: LocalZetaFactors, t: Fraction) -> Fraction:
    """Independent exact rational evaluation of prod (1 - p^r T)^e."""
    total = Fraction(1)
    for r, e in z.factors:
        total *= (1 - Fraction(z.base) ** r * t) ** e
    return total


@pytest.mark.parametrize("n,p,chi", [(1, 2, 2), (1, 3, 2), (2, 3, 3), (2, 5, 3)])
def test_local_fe_projective_spaces(n, p, chi):
    scheme = projective_space_model(n)
    report = local_functional_equation(scheme, p)
    assert report.holds
    assert report.chi == chi
    assert not report.squared_form  # d*chi is even here
    # independent oracle: the rational-function identity at exact sample points
    z = smoothed_local_zeta(scheme, p)
    d = scheme.dim
    for t0 in (Fraction(1, 7), Fraction(2, 11), Fraction(5, 3)):
        lhs = _eval_exact_t(z, Fraction(1, p**d) / t0)
        rhs = (
            (-1) ** chi
            * Fraction(p) ** Fraction(d * chi, 2)
            * t0**chi
            * _eval_exact_t(z, t0)
        )
        assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(torsion_schemes(), st.integers(0, 6))
@example(MonoidScheme((TorsionPoint(0),)), 1)  # d chi = 1
def test_squared_form_never_passes_the_bookkeeping_check(scheme, dimension):
    # 2 sum r a_r is even, so an odd d chi fails 2 sum r a_r = d chi
    declared = MonoidScheme(scheme.points, dimension=dimension, smooth_projective=True)
    report = local_functional_equation(declared, 3)
    if report.squared_form:
        assert not report.exponent_ok and not report.holds


def test_local_fe_point():
    report = local_functional_equation(f1_point(), 5)
    assert report.holds and report.chi == 1 and report.dimension == 0
    # Z = 1/(1-T): Z(1/T) = -T Z(T)
    z = smoothed_local_zeta(f1_point(), 5)
    t0 = Fraction(3, 4)
    assert _eval_exact_t(z, 1 / t0) == -t0 * _eval_exact_t(z, t0)


def test_local_fe_failure_reports_mismatch():
    lopsided = MonoidScheme(
        (TorsionPoint(0), TorsionPoint(0), TorsionPoint(0), TorsionPoint(1)),
        dimension=1,
        smooth_projective=True,
    )
    report = local_functional_equation(lopsided, 2)
    assert not report.holds
    assert report.asymmetries  # exponent multiset is not symmetric


def test_local_fe_requires_assertion():
    with pytest.raises(PreconditionError):
        local_functional_equation(torus_model(), 2)


def test_factored_series_requires_integer_base():
    z = smoothed_local_zeta(torus_model(), 2.5)
    with pytest.raises(PreconditionError):
        z.series(4)


def test_base_sequence_stops_where_floats_reach_one():
    assert default_base_sequence(15)[-1] > 1.0
    with pytest.raises(PreconditionError, match="base count 16; at most 15 is supported"):
        default_base_sequence(16)
