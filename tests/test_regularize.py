"""Two-variable zeta regularization and spectral determinants."""

import cmath
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st
from scipy import special

from f1zeta import regularize
from f1zeta.errors import ConvergenceError, PreconditionError, SingularityError
from f1zeta.powerlog import PowerLogSum, parse_power_log
from f1zeta.regularize import (
    Spectrum,
    _complex_quad,
    _em_tail,
    _gamma,
    _power_log_integrand,
    circle_spectrum,
    gamma_ratio_poly,
    log_regularized_det,
    regularized_det,
    shift_spectrum,
    spectral_zeta,
    spectrum_by_name,
    two_variable_zeta_closed,
    two_variable_zeta_numeric,
    zeta_from_regularization,
)
from f1zeta.zetas import log_evaluate_zeta, zeta_of

from test_zetas import product_value


def _circle_det_oracle(s: float) -> float:
    # independent closed form: squared regularized product over n^2 + s
    return 4 * math.sinh(math.pi * math.sqrt(s)) ** 2 / s


@st.composite
def positive_power_log_sums(draw, max_terms=4):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        key = (Fraction(draw(st.integers(-4, 6)), draw(st.integers(1, 2))),
               draw(st.integers(0, 2)))
        terms[key] = terms.get(key, Fraction(0)) + draw(st.integers(1, 5))
    return PowerLogSum.from_dict(terms)


def test_gamma_ratio_poly():
    assert gamma_ratio_poly(0.7, 0) == 1
    assert gamma_ratio_poly(2, 3) == 2 * 3 * 4
    assert gamma_ratio_poly(0, 2) == 0


def test_closed_examples():
    alpha = Fraction(3, 2)
    n = PowerLogSum.power(alpha)
    for w, s in ((0.7, 4.0), (2 + 1j, 3 - 0.5j)):
        assert two_variable_zeta_closed(n, w, s) == pytest.approx(
            (complex(s) - 1.5) ** -complex(w)
        )
    assert two_variable_zeta_closed(PowerLogSum.log_power(), 1, 2) == pytest.approx(0.25)
    # at w = 1 the ratio polynomial is m!, so Z = sum c m! (s-lam)^(-1-m)
    n2 = parse_power_log("2*u + 3*log^2")
    s = 5.0
    assert two_variable_zeta_closed(n2, 1, s) == pytest.approx(
        2 / (s - 1) + 3 * 2 / s**3
    )
    with pytest.raises(SingularityError):
        two_variable_zeta_closed(n, 1.0, 1.5)


def test_closed_at_w_zero_is_value_at_one():
    n = parse_power_log("u^2 - 3 + u*log")
    assert two_variable_zeta_closed(n, 0, 6.0) == pytest.approx(
        float(n.value_at_one())
    )


def test_numeric_examples():
    assert two_variable_zeta_numeric(parse_power_log("u"), 1, 3) == pytest.approx(
        0.5, rel=1e-9
    )
    got = two_variable_zeta_numeric(PowerLogSum.log_power(), 0.5, 2)
    expected = special.gamma(1.5) / special.gamma(0.5) * 2**-1.5
    assert got == pytest.approx(expected, rel=1e-9)
    assert type(got) is complex  # not a numpy scalar
    assert two_variable_zeta_numeric(PowerLogSum.constant(1), 2, 1) == pytest.approx(
        1.0, rel=1e-9
    )
    assert two_variable_zeta_numeric(PowerLogSum.zero(), 2, 1) == 0j


def test_numeric_rejects_divergent_regions():
    n = parse_power_log("u^2")
    with pytest.raises(PreconditionError):
        two_variable_zeta_numeric(n, -0.5, 5)
    with pytest.raises(PreconditionError):
        two_variable_zeta_numeric(n, 1, 2)  # needs Re(s) > 2
    # NaN fails both half-plane tests before any quadrature; inf is no point of them
    for bad in (float("nan"), complex(1, float("nan")), float("inf"), complex(1, float("inf"))):
        with pytest.raises(PreconditionError, match="need a finite w"):
            two_variable_zeta_numeric(n, bad, 5)
        with pytest.raises(PreconditionError, match="need a finite s"):
            two_variable_zeta_numeric(n, 1, 3 + bad)


@settings(max_examples=15, deadline=None)
@given(positive_power_log_sums())
# quad once missed the upper piece of this sum at w = 2, s = 3 (5.9e-8
# relative) while reporting an error estimate of 3e-13
@example(PowerLogSum.from_dict({(Fraction(3, 2), 1): 2, (Fraction(2), 2): 2}))
def test_closed_matches_numeric(n):
    top = float(n.degree)
    for w in (0.5, 1.0, 2.0, 1.5 + 0.7j):
        for s in (top + 1.0, top + 2.5):
            closed = two_variable_zeta_closed(n, w, s)
            numeric = two_variable_zeta_numeric(n, w, s)
            assert abs(numeric - closed) <= 1e-8 * abs(closed)


def test_lanczos_gamma_matches_scipy():
    rng = np.random.default_rng(11)
    z = rng.uniform(-3, 6, 3000) + 1j * rng.uniform(-6, 6, 3000)
    poles = np.array([0, -1, -2, -3])
    z = z[np.abs(z[:, None] - poles[None, :]).min(axis=1) > 0.05]
    assert len(z) >= 2000
    got = np.array([_gamma(complex(x)) for x in z])
    assert np.max(np.abs(got - special.gamma(z)) / np.abs(special.gamma(z))) <= 1e-13
    assert _gamma(5 + 0j) == pytest.approx(24, rel=1e-14)
    assert _gamma(0.5 + 0j) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_far_from_the_real_axis_matches_scipy():
    # |sin(pi z)| is beyond float range here, while Gamma is not
    for z in (0.3 + 300j, 0.3 - 300j, -2.7 + 250j):
        want = complex(special.gamma(z))
        assert 0 < abs(want) < 1e-170
        assert abs(_gamma(z) - want) <= 1e-12 * abs(want)


@st.composite
def power_log_integrand_cases(draw):
    keys = draw(st.lists(st.tuples(st.fractions(-4, 6, max_denominator=4), st.integers(0, 3)),
                         min_size=1, max_size=4, unique=True))
    n = PowerLogSum.from_dict({key: draw(st.fractions(-7, 7, max_denominator=7).filter(bool)) for key in keys})
    t = 10.0 ** draw(st.floats(-3, 3))
    rate = complex(float(n.degree) + draw(st.floats(-0.5, 3)), draw(st.floats(-5, 5)))
    k = draw(st.one_of(st.sampled_from((0, -1)), st.complex_numbers(max_magnitude=3).filter(lambda z: z.imag)))
    return n, rate, k, t


@settings(max_examples=300, deadline=None)
@given(power_log_integrand_cases())
def test_power_log_integrand_matches_the_per_term_definition(case):
    n, rate, k, t = case
    # a float exp of x carries an error of about |x| 2^-52 in either form:
    # keep every exponent where that stays below the 1e-13 compared
    assume(abs((float(n.degree) - rate) * t) <= 300)
    terms = [float(c) * cmath.exp((float(lam) - rate) * t) * t ** (m + k) for lam, m, c in n.terms]
    got = _power_log_integrand(n, rate, k)(t)
    assert abs(got - sum(terms)) <= 1e-13 * sum(map(abs, terms))


def test_power_log_integrand_at_large_t():
    n = parse_power_log("u^3 - 2*u^2*log^2")
    # e^(3 t) alone overflows a float at t = 400; the integrand is e^-200
    got = _power_log_integrand(n, 3.5 + 1j, -1)(400.0)
    want = cmath.exp(-(0.5 + 1j) * 400) / 400 * (1 - 2 * math.exp(-400) * 400**2)
    assert cmath.isfinite(got) and abs(got - want) <= 1e-12 * abs(want)
    # below e^-745 the node underflows to 0 before any power of t
    assert _power_log_integrand(n, 4 + 1j, 2 + 1j)(1e3) == 0j


def test_exp_exp_rule_values_and_estimates():
    xs = []

    def decay(x):
        xs.append(x)
        return complex(math.exp(-x), math.exp(-2 * x))

    value, estimate = _complex_quad(decay, 0.0, 1.0)
    assert abs(value - (1 + 0.5j)) <= 1e-14
    assert 0 < estimate <= 1e-12 * abs(value)
    assert len(set(xs)) == len(xs)  # one evaluation per node
    # the map scales by 1/rate, and stretches to a bulk far past a
    value, estimate = _complex_quad(lambda x: cmath.exp(-(3 + 4j) * x), 0.0, 3.0)
    assert abs(value - 1 / (3 + 4j)) <= 1e-14
    value, estimate = _complex_quad(lambda x: x**20 * math.exp(-x), 0.0, 1.0, 20.0)
    assert value == pytest.approx(math.factorial(20), rel=1e-14)
    assert estimate <= 1e-12 * abs(value)
    # a hump far from a, like Z_N's lower piece: e^(-w x + r (1 - e^-x))
    # peaks at x = log(r / w), and its integral is e^r gamma(w, r) / r^w
    value, estimate = _complex_quad(lambda x: math.exp(-20 * x + 200 * (1 - math.exp(-x))), 0.0,
                                    20.0, math.log(10))
    want = mpmath.exp(200) * mpmath.gammainc(20, 0, 200) / mpmath.mpf(200) ** 20
    assert abs(value - float(want)) <= 1e-13 * float(want)
    assert _complex_quad(lambda x: 0j, 3.0, 1.0) == (0j, 0.0)
    # an offset below the least normal float, or lost in a, is never a node
    for a, rate in ((0.0, 1e300), (1.0, 1e12)):
        xs.clear()
        _complex_quad(lambda x: xs.append(x) or cmath.exp(-rate * (x - a)), a, rate)
        assert xs and min(xs) - a >= sys.float_info.min


def test_exp_exp_rule_raises_when_it_cannot_converge(monkeypatch):
    # an algebraic tail x^-1.1 is far from negligible where the rule ends,
    # and so is x^20 e^-x without its bulk
    for fn in (lambda x: (1 + x) ** -1.1, lambda x: x**20 * math.exp(-x)):
        with pytest.raises(ConvergenceError, match="not negligible at x = 89.02"):
            _complex_quad(fn, 0.0, 1.0)
    # a rate whose reciprocal overflows would put every node at x = inf
    with pytest.raises(ConvergenceError, match="a decay rate of 5e-324 leaves float range"):
        _complex_quad(lambda x: 0j, 0.0, 5e-324)
    # a jump is not smooth: no step brings the trapezoidal sums together
    with pytest.raises(ConvergenceError, match=r"after 15 levels: estimate \S+ > \S+"):
        _complex_quad(lambda x: 1.0 if x < 1 else 0.0, 0.0, 1.0)
    # t0 = 4e200 puts Im(s) t near 4e500: cmath.exp of an infinite phase was a bare ValueError
    with pytest.raises(ConvergenceError, match=r"phase leaves float range at x = \S+"):
        two_variable_zeta_numeric(parse_power_log("1"), 1, 1e-200 + 1e300j)
    # e^-x needs step 2^-3: a table cut after step 2^-2 misses
    monkeypatch.setattr(regularize, "_LEVELS", 3)
    with pytest.raises(ConvergenceError, match="after 3 levels"):
        _complex_quad(lambda x: cmath.exp(-x), 0.0, 1.0)


@pytest.mark.parametrize("expr", ["u^2 - 2*u*log + 1", "3*u^(3/2) - u^-1*log^2"])
@pytest.mark.parametrize("offset", [0.05, 0.5])
@pytest.mark.parametrize("re_w", [0.05, 3.0])
@pytest.mark.parametrize("im_s", [-4.8, 0.0, 5.0])
def test_numeric_at_the_edges_of_convergence(expr, offset, re_w, im_s):
    n = parse_power_log(expr)
    w, s = complex(re_w, 0), complex(float(n.degree) + offset, im_s)
    closed = two_variable_zeta_closed(n, w, s)
    if offset == 0.05 and re_w == 3.0 and im_s:
        # t^2 e^(-(0.05 + 5i) t) turns hundreds of times before it decays:
        # both pieces exceed their sum a thousandfold, and no step brings
        # them to 1e-12 of it (float rounding alone is above that)
        with pytest.raises(ConvergenceError, match="estimate"):
            two_variable_zeta_numeric(n, w, s)
        return
    assert abs(two_variable_zeta_numeric(n, w, s) - closed) <= 1e-12 * abs(closed)


@st.composite
def quadrature_sums(draw):
    """1-3 terms u^lam log^m with m <= 2 and small nonzero coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        key = (Fraction(draw(st.integers(-4, 6)), draw(st.integers(1, 2))), draw(st.integers(0, 2)))
        terms[key] = terms.get(key, Fraction(0)) + draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    assume(any(terms.values()))
    return PowerLogSum.from_dict(terms)


@settings(max_examples=60, deadline=None)
@given(quadrature_sums(), st.floats(0.05, 5), st.floats(-1, 1), st.floats(0.05, 5), st.floats(-5, 5))
def test_numeric_zeta_agrees_with_the_closed_form_or_raises(n, re_w, im_w, offset, im_s):
    w, s = complex(re_w, im_w), complex(float(n.degree) + offset, im_s)
    try:
        got = two_variable_zeta_numeric(n, w, s)
    except ConvergenceError:
        return  # the pieces cancel beyond what the rule resolves
    # the error is charged against the sum of the terms' magnitudes
    size = sum(abs(c) * abs(two_variable_zeta_closed(PowerLogSum.from_dict({(lam, m): 1}), w, s))
               for lam, m, c in n.terms)
    assert abs(got - two_variable_zeta_closed(n, w, s)) <= 1e-11 * size


@settings(max_examples=60, deadline=None)
@given(quadrature_sums(), st.floats(0.05, 5), st.floats(-5, 5))
# the strategy's bounds: u log^2 u at Re s = 1.05 turns too often for the
# rule to resolve, and its estimate ends just above the target
@example(PowerLogSum.from_dict({(Fraction(1), 2): -3}), 0.05, 5.0)
def test_log_zeta_integral_inverts_the_zeta_where_n_vanishes_at_one(n, offset, im_s):
    n = n - PowerLogSum.from_dict({(Fraction(0), 0): n.value_at_one()})  # N(1) = 0
    assume(not n.is_zero)
    s = complex(float(n.degree) + offset, im_s)
    try:
        got = regularize.log_zeta_integral(n, s).value
    except ConvergenceError:
        return  # a rule that misses its tolerance says so, as the numeric zeta does
    # exp(-I) zeta_N(s) = 1, in logs: zeta_N(s) itself may leave float range
    assert abs(cmath.exp(log_evaluate_zeta(zeta_of(n), s) - got) - 1) <= 1e-11 * max(1.0, abs(got))


def test_numeric_where_the_lower_piece_peaks_far_from_zero():
    # e^(-20 x) e^(-60 e^-x) peaks at x = log 3; a rule that ignored that
    # bulk would end at x = 4.45, before the peak's tail is negligible
    n = parse_power_log("1")
    assert abs(two_variable_zeta_numeric(n, 20, 60) - two_variable_zeta_closed(n, 20, 60)) <= 1e-14


def test_numeric_at_large_re_w():
    n = parse_power_log("u")
    closed = two_variable_zeta_closed(n, 100, 3)
    assert closed == pytest.approx(7.8886090522e-31, rel=1e-10)
    assert abs(two_variable_zeta_numeric(n, 100, 3) - closed) <= 1e-12 * abs(closed)
    # t^(w-1) and Gamma(w) leave float range; neither is an OverflowError
    for w, s in ((150, 3), (180, 3), (100, 1.001)):  # t0^w at t0 = 4000 as well
        with pytest.raises(ConvergenceError, match="overflows a float"):
            two_variable_zeta_numeric(n, w, s)
    with pytest.raises(ConvergenceError, match="Gamma overflows a float"):
        _gamma(180 + 0j)


def test_regularized_zeta_examples():
    alpha = 1.0
    assert zeta_from_regularization(PowerLogSum.power(1), 3) == pytest.approx(
        1 / (3 - alpha)
    )
    assert zeta_from_regularization(PowerLogSum.log_power(), 2) == pytest.approx(
        math.exp(0.5)
    )
    n = parse_power_log("1 - 2*u^-1 + u^-2")  # (1 - 1/u)^2
    assert zeta_from_regularization(n, 1) == pytest.approx(4 / 3)


@settings(max_examples=40, deadline=None)
@given(positive_power_log_sums())
def test_w_derivative_agrees_with_factored_evaluation(n):
    s = float(n.degree) + 1.7 + 0.3j
    direct = zeta_from_regularization(n, s)
    factored = product_value(zeta_of(n), s)
    assert abs(direct - factored) <= 1e-12 * abs(factored)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)), st.integers(0, 3)),
        st.integers(-5, 5).filter(bool), min_size=1, max_size=5,
    ).map(PowerLogSum.from_dict),
    st.floats(0.2, 4.0),
    st.floats(-5.0, 5.0),
)
def test_the_w_derivative_of_the_closed_form_is_log_zeta(n, offset, im_s):
    # the regularization identity itself: a 4-point difference in w of
    # Z_N(w, s) at w = 0 against log zeta_N(s) from the factors
    s = complex(float(n.degree) + offset, im_s)
    h = 1e-3
    f = [two_variable_zeta_closed(n, w, s) for w in (h, -h, 2 * h, -2 * h)]
    slope = (8 * (f[0] - f[1]) - (f[2] - f[3])) / (12 * h)
    scale = sum(abs(c) * (abs(cmath.log(s - lam)) if m == 0 else
                          math.factorial(m - 1) * abs(s - lam) ** -m) for lam, m, c in n.terms)
    # the difference quotient rounds each m = 0 term, about |c| at w near
    # 0, 18 times over 12 h: about 1e-12 |c|, which a log(s - lam) near 0
    # leaves uncovered by the scale
    rounding = 1e-12 * sum(abs(c) for _, m, c in n.terms if m == 0)
    assert abs(slope - log_evaluate_zeta(zeta_of(n), s)) <= 1e-9 * scale + rounding


def test_spectral_zeta_circle_values():
    circ = circle_spectrum()
    got = spectral_zeta(circ, 2, 0)
    assert got.value.real == pytest.approx(2 * special.zeta(4), rel=1e-12)
    assert got.error_bound < 1e-10

    # brute-force oracle with an integral tail bound
    ns = np.arange(1, 1_000_001, dtype=np.float64)
    brute = 2 * np.sum((ns**2 + 1) ** -2.0)
    tail = 2 / (3 * 1_000_000**3)
    got1 = spectral_zeta(circ, 2, 1)
    assert got1.error_bound < 1e-10
    assert abs(got1.value.real - brute) <= tail + 1e-10


def test_the_split_at_x_zero_stops_before_a_pole_of_its_tails():
    # at x = 0 the terms k >= 1 vanish; T(w + 1), 2 zeta_R(2w + 2) less
    # its head, has its pole at w = -1/2, where the circle zeta is
    # 2 zeta_R(-1) = -1/6
    circ = circle_spectrum()
    got = spectral_zeta(circ, -0.5, 0)
    assert abs(got.value + 1 / 6) <= got.error_bound < 1e-10
    # log det' of the circle Laplacian is log 4 pi^2
    got = log_regularized_det(circ, 0)
    assert abs(got.value - math.log(4 * math.pi**2)) <= got.error_bound < 1e-11


def test_spectral_zeta_w_zero_continuation():
    circ = circle_spectrum()
    for s in (0.3, 1.0, 2.5):
        got = spectral_zeta(circ, 0, s)
        assert got.value == pytest.approx(-1.0)  # heat-kernel constant, s-free


def test_spectral_zeta_preconditions():
    circ = circle_spectrum()
    with pytest.raises(PreconditionError):
        spectral_zeta(circ, 2, -1)  # Re(s) <= -lambda_1
    # far below -lambda_1 the head would outgrow its cap: the precondition comes first
    with pytest.raises(PreconditionError, match="first shifted eigenvalue"):
        log_regularized_det(circ, -1e12)
    # a non-finite s + shift or w fails before the head grows: inf would double it to the cap
    for bad in (float("nan"), float("inf"), float("-inf"), complex(1, float("nan"))):
        with pytest.raises(PreconditionError, match="need a finite s"):
            spectral_zeta(circ, 2, bad)
        with pytest.raises(PreconditionError, match="need a finite w"):
            spectral_zeta(circ, bad, 1)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(PreconditionError, match="need a finite s"):
            log_regularized_det(circ, bad)


def test_the_circle_zeta_pole_is_a_singularity_error():
    # zeta(w) = 2 zeta_R(2w) + O(s) has its pole at w = 1/2 for every s
    with pytest.raises(SingularityError, match="pole at exponent 1"):
        spectral_zeta(circle_spectrum(), 0.5, 1.0)


def test_a_spectrum_without_eigenvalues_is_a_precondition_error():
    circle = circle_spectrum()
    empty = Spectrum("empty", lambda count: (), circle.continued_tail, circle.continued_slope)
    with pytest.raises(PreconditionError, match="spectrum enumerated no eigenvalues"):
        spectral_zeta(empty, 2, 1.0)
    with pytest.raises(PreconditionError, match="spectrum enumerated no eigenvalues"):
        log_regularized_det(empty, 1.0)


def test_a_constant_spectrum_outgrows_the_head_cap():
    # lam_(j+1) = 1 <= 2 |x| however far the head doubles
    circle = circle_spectrum()
    constant = Spectrum("constant", lambda count: ((1.0, 1),) * count, circle.continued_tail,
                        circle.continued_slope)
    with pytest.raises(ConvergenceError, match="eigenvalue growth too slow against"):
        spectral_zeta(constant, 2, 1.0)
    with pytest.raises(ConvergenceError, match="eigenvalue growth too slow against"):
        log_regularized_det(constant, 1.0)


@pytest.mark.parametrize("terms", [0, -3])
def test_a_head_below_one_term_is_a_precondition_error(terms):
    circ = circle_spectrum()
    with pytest.raises(PreconditionError, match=f"head terms must be >= 1, got {terms}"):
        spectral_zeta(circ, 2, 1, terms=terms)
    with pytest.raises(PreconditionError, match=f"head terms must be >= 1, got {terms}"):
        log_regularized_det(circ, 1.0, terms=terms)


def test_regularized_det_cross_validation():
    circ = circle_spectrum()
    for s in (0.25, 1.0, 4.0):
        got = regularized_det(circ, s)
        want = _circle_det_oracle(s)
        assert abs(got - want) / want <= 1e-6


def test_regularized_det_small_s_limit():
    circ = circle_spectrum()
    s1, s2 = 1e-5, 1e-6
    v1, v2 = regularized_det(circ, s1), regularized_det(circ, s2)
    extrapolated = (s1 * v2 - s2 * v1) / (s1 - s2)
    assert abs(extrapolated - 4 * math.pi**2) <= 1e-4


def test_regularized_det_matches_w_derivative():
    # independent derivative oracle: central finite difference of the
    # continued spectral zeta in w around 0
    circ = circle_spectrum()
    s = 1.0
    h = 1e-4
    plus = spectral_zeta(circ, h, s).value.real
    minus = spectral_zeta(circ, -h, s).value.real
    slope = (plus - minus) / (2 * h)
    assert math.exp(-slope) == pytest.approx(regularized_det(circ, s), rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.0, 4.0))
@example(0.5, 0.0)
@example(1.0, 0.0)
def test_shift_consistency(a, s):
    circ = circle_spectrum()
    shifted = shift_spectrum(circ, a)
    assert regularized_det(shifted, s) == pytest.approx(regularized_det(circ, a + s), rel=1e-9)


def test_shifted_spectral_zeta_consistency():
    circ = circle_spectrum()
    for s0 in (0.5, 1.0):
        shifted = shift_spectrum(circ, s0)
        moved = spectral_zeta(shifted, 2, 0.25).value
        assert moved == pytest.approx(spectral_zeta(circ, 2, 0.25 + s0).value, rel=1e-11)


def _mp_circle_zeta(w, x, j=20):
    # sum_n 2 (n^2 + x)^-w as 20 head terms plus the binomial split
    # sum_k C(-w, k) x^k 2 zeta(2(w + k), 21), with x / 441 < 1/40.  At
    # large Re s mpmath's Hurwitz zeta is good to about 10^-dps absolute,
    # not relative (at 30 digits x^k zeta(2(w + k), 7) drifted by 1e-9):
    # 50 digits and this head keep every term far below any bound.  The
    # split stops on a bound of the true term, never on the computed one:
    # past k = 20 zeta(2(w + k), 21) is that absolute noise, which the
    # weight |C(-w, k) x^k| (up to 1e45 at x = 10) would carry into the sum
    with mpmath.workdps(50):
        w, x = mpmath.mpc(w), mpmath.mpf(x)
        a = mpmath.mpf(j + 1)
        total = mpmath.fsum(2 * (n * n + x) ** -w for n in range(1, j + 1))
        binom = mpmath.mpf(1)
        for k in range(200):
            total += binom * x**k * 2 * mpmath.zeta(2 * (w + k), j + 1)
            # |zeta(b, a)| <= sum_{n >= a} n^-sigma <= a^-sigma + a^(1 - sigma) / (sigma - 1)
            sigma = 2 * (w.real + k)
            if sigma > 1:
                bound = abs(binom) * abs(x) ** k * 2 * (a**-sigma + a ** (1 - sigma) / (sigma - 1))
                if bound < mpmath.mpf(10) ** -34 * max(1, abs(total)):
                    return complex(total)
            binom *= (-w - k) / (k + 1)
    raise AssertionError("oracle split did not converge")


@settings(max_examples=40, deadline=None)
@given(
    st.builds(complex, st.floats(0.6, 4.0), st.floats(-2.0, 2.0)),
    st.floats(0.05, 10.0),
    st.floats(-0.5, 1.0),
    st.sampled_from([1, 2, 3, 48]),
)
@example(2 + 0j, 5.0, 0.0, 48)
@example(0.6 + 2j, 10.0, -0.5, 1)
# the oracle once stopped on its computed terms and drifted 1.6e-12 here
@example(0.625 + 2j, 10.0, 0.0, 48)
def test_spectral_zeta_meets_its_bound_against_mpmath(w, x, shift, terms):
    # the value series stops on its own terms; the bound must still cover
    # what it leaves out, with short heads and complex w alike
    s = x - shift
    got = spectral_zeta(shift_spectrum(circle_spectrum(), shift), w, s, terms=terms)
    assert abs(got.value - _mp_circle_zeta(w, s + shift)) <= got.error_bound


@settings(max_examples=200, deadline=None)
@given(st.floats(1.5, 12, exclude_min=True), st.integers(0, 1000))
def test_em_tail_matches_the_hurwitz_zeta(b, start):
    # for the completely monotone n^-b the first omitted correction bounds
    # the truncation; a^-b = e^(-b log a) rounds to about b log(a) 2^-52
    value, estimate = _em_tail(b, start)
    want = special.zeta(b, start + 1)
    rounding = 2 * (1 + b * math.log(start + 1)) * 2.0**-52
    assert abs(value - want) <= estimate + rounding * want


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.floats(1.5, 40), st.integers(0, 10**5)),
    st.tuples(st.builds(complex, st.floats(1.5, 6), st.floats(-8, 8)), st.integers(0, 1000)),
))
@example((24.0, 999))  # off by 5.8e-15 relative, past a truncation estimate of 4.5e-41
@example((40.0, 99999))  # off by 2.2e-14 relative, past 1.4e-73
@example((26.5, 580))  # 80 flat digits of mpmath put the oracle 3.7e-14 off
def test_em_tail_meets_its_own_bound_against_mpmath(tail):
    # its bound alone covers the rounding of a^-b = exp(-b log a), about
    # b log(a) 2^-52 relative.  mpmath's Hurwitz zeta is good to about
    # 10^-dps absolute, not relative, and |T| is about a^(1 - Re b): the
    # oracle runs at 80 digits beyond that size
    b, start = tail
    value, bound = _em_tail(b, start)
    with mpmath.workdps(80 + int(complex(b).real * math.log10(start + 1))):
        assert abs(mpmath.mpc(value) - mpmath.zeta(mpmath.mpmathify(b), start + 1)) <= bound


# (value, error_bound) as float.hex, recorded with the head evaluated in
# complex logs and exps and every Euler-Maclaurin power by its own exp:
# the real determinant head and the power recurrence leave them unchanged;
# the bounds include each tail's Euler-Maclaurin truncation and the
# rounding of its power a^-b.  The zeta
# bounds are those of a value series that stops on its own terms; mpmath
# puts the w = 2 value 7.5e-18 from the sum
_PINNED_LOG_DETS = {
    (0.0, 0.3): ("0x1.252422e2e5d80p+2", "0x1.9accfc5c11e8ep-40"),
    (0.0, 5): ("0x1.8e16094518a40p+3", "0x1.9eeb54caf6f1fp-40"),
    (0.0, 39): ("0x1.1c996e9e88d00p+5", "0x1.abdb240cb8647p-40"),
    (0.6, 2): ("0x1.259fab330ca00p+3", "0x1.9d30d82e9b4c1p-40"),
}
_PINNED_ZETAS = {
    2: ("0x1.9ba582e599b02p-4", "0x0.0p+0", "0x1.32df28d34bd75p-49"),
    1.5 + 0.5j: ("0x1.c802221eb10f3p-4", "-0x1.0ce83a36eff06p-2", "0x1.7da94f90b9a88p-48"),
}


def test_spectral_outputs_are_pinned_bit_for_bit():
    circle = circle_spectrum()
    for (shift, s), (value, bound) in _PINNED_LOG_DETS.items():
        spectrum = shift_spectrum(circle, shift) if shift else circle
        got = log_regularized_det(spectrum, s)
        assert (got.value.hex(), got.error_bound.hex()) == (value, bound)
    for w, (real, imag, bound) in _PINNED_ZETAS.items():
        got = spectral_zeta(circle, w, 5)
        assert (got.value.real.hex(), got.value.imag.hex(), got.error_bound.hex()) == (real, imag, bound)


# two_variable_zeta_numeric(N, w, s) as float.hex of its real and imaginary
# parts, and log_zeta_integral(N, s) as those of its value and its estimate,
# recorded under the exp-exp rule; each Z_N value is within 1e-12 of the
# closed form and of mpmath, and each log integral I has
# |exp(-I) zeta_N(s) - 1| <= 1e-15.  The "1 - u^-1" input's pieces cancel:
# it reruns both quadratures
_PINNED_INTEGRALS = {
    ("u", 1, 3): ("0x1.ffffffffffffbp-2", "0x0.0p+0"),
    ("u", 1.5 + 0.7j, 4.2): ("0x1.eb2e55921fed8p-4", "-0x1.0429fc0a50918p-3"),
    ("u^2 - 2*u*log + 1", 0.05, 2.5 + 5j): ("0x1.d505eb4f0fbd0p+0", "-0x1.9f3bad55ce64ap-4"),
    ("3*u^(3/2) - u^-1*log^2", 3.0, 2.0): ("0x1.7f35ba781947dp+4", "0x0.0p+0"),
    ("2*u^2 + 2*u^(1/2)", 2.2 - 1.1j, 3.3 + 0.7j): ("0x1.052dbb23c0d3dp-1", "-0x1.b71b074b8b1d0p-3"),
    ("1 - u^-1", 3, 0.1 - 2j): ("0x1.0b99df22f3fbap-4", "-0x1.e2ef5bfbc5bc5p-4"),
    ("u - 1", 2.5 + 1j): ("0x1.9acd28271c73ap-2", "-0x1.a8f3c814a92d6p-3", "0x1.1e3779b97f4a8p-53"),
    ("u^2 - 2*u + 1 - u*log", 3.1): ("-0x1.c091cb0042375p-3", "0x0.0p+0", "0x1.6000000000000p-50"),
    ("-3*u^(1/2) + 3", 1.2 - 0.4j): ("-0x1.59e6eba95b44cp+0", "-0x1.2f3317ab95c8bp-1",
                                     "0x1.8000000000000p-50"),
}


# integrand evaluations over the _PINNED_INTEGRALS inputs under the
# exp-sinh rule x = a + exp(pi/2 sinh t) of commit 75bb8fc, which the
# exp-exp rule replaced
_EXP_SINH_NODES = 35673


def test_quadrature_outputs_are_pinned_bit_for_bit(monkeypatch):
    quadratures = []
    nodes = 0
    quad = regularize._complex_quad

    def counted(fn, *args):
        def counting(x):
            nonlocal nodes
            nodes += 1
            return fn(x)
        quadratures.append(args)
        return quad(counting, *args)

    monkeypatch.setattr(regularize, "_complex_quad", counted)
    for (expr, *args), want in _PINNED_INTEGRALS.items():
        n = parse_power_log(expr)
        quadratures.clear()
        if len(args) == 2:
            value = two_variable_zeta_numeric(n, *args)
            assert len(quadratures) == (4 if expr == "1 - u^-1" else 2)
            got = (value.real.hex(), value.imag.hex())
        else:
            result = regularize.log_zeta_integral(n, *args)
            got = (result.value.real.hex(), result.value.imag.hex(), result.error_estimate.hex())
        assert got == want
    assert nodes <= _EXP_SINH_NODES / 2


# Reference oracles: the two split loops as they stood before `_split`
# served both quantities, each with its own stop rule and bound.  They sum
# magnitudes left to right, as `regularize` does: the builtin `sum` of
# floats is compensated from Python 3.12 on
def _magnitude(values):
    size = 0.0
    for value in values:
        size += abs(value)
    return size


def _own_loop_spectral_zeta(spectrum, w, s, terms):
    x = complex(s) + spectrum.shift
    j, pairs = regularize._head(spectrum, x, terms)
    ww = complex(w)
    guard = pairs[j][0]
    values = [mult * cmath.exp(-ww * cmath.log(lam + x)) for lam, mult in pairs[:j]]
    head = regularize._fsum(values)
    size = _magnitude(values)
    tail = 0j
    truncation = 0.0
    binom = 1.0 + 0j
    for k in range(regularize._SPLIT_TERMS):
        t, err = spectrum.continued_tail(ww + k, j)
        power = x**k
        term = binom * power * t
        tail += term
        size += abs(term)
        truncation += abs(binom) * (abs(power) * err)
        if k and abs(term) / max(1.0, abs(tail)) < 1e-18:
            break
        binom *= (-ww - k) / (k + 1)
    value = head + tail
    rest = 2 * abs(x) / (guard - abs(x))
    reach = max(math.log(guard + abs(x)), -math.log(pairs[0][0] + x.real)) + math.pi
    charge = regularize._ROUNDING * (1 + abs(ww) * reach)
    return value, rest * abs(term) + charge * size + regularize._ROUNDING * abs(value) + truncation, j


def _own_loop_log_det(spectrum, s, terms):
    x = float(s) + spectrum.shift
    j, pairs = regularize._head(spectrum, x, terms)
    guard = pairs[j][0]
    slopes = [-mult * math.log(lam + x) for lam, mult in pairs[:j]]
    head = math.fsum(slopes)
    size = _magnitude(slopes)
    tail, truncation = spectrum.continued_slope(j)
    size += abs(tail)
    term = tail
    coef = -1.0
    for k in range(1, regularize._SPLIT_TERMS):
        t, err = spectrum.continued_tail(float(k), j)
        power = (complex(x) ** k).real
        term = power * (coef * t)
        tail += term
        size += abs(term)
        truncation += abs(coef) * (abs(power) * err)
        if abs(term) / max(1.0, abs(tail)) < 1e-18:
            break
        coef *= -k / (k + 1)
    log_det = -(head + tail).real
    rest = 2 * abs(x) / (guard - abs(x))
    rounding = regularize._ROUNDING
    return log_det, rest * abs(term) + rounding * size + rounding * abs(log_det) + truncation, j, size


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@settings(max_examples=150, deadline=None)
@given(
    st.builds(complex, st.floats(-3.0, 4.0), st.floats(-3.0, 3.0)),
    st.floats(0.05, 30.0),
    st.floats(-5.0, 5.0),
    st.floats(-0.9, 3.0),
    st.integers(1, 128),
)
def test_the_one_split_reproduces_both_loops(w, offset, im_s, shift, terms):
    # Re s = offset above -(lam_1 + shift); a w with 2 (w + k) = 1 is a tail's pole
    assume(all(abs(2 * (w + k) - 1) > 1e-6 for k in range(regularize._SPLIT_TERMS)))
    spectrum = shift_spectrum(circle_spectrum(), shift)
    s = complex(offset - 1 - shift, im_s)
    got = spectral_zeta(spectrum, w, s, terms=terms)
    value, bound, j = _own_loop_spectral_zeta(spectrum, w, s, terms)
    assert (got.value.real.hex(), got.value.imag.hex(), got.error_bound.hex(), got.terms_used) == (
        value.real.hex(), value.imag.hex(), bound.hex(), j)
    got = log_regularized_det(spectrum, s.real, tol=math.inf, terms=terms)
    value, bound, j, size = _own_loop_log_det(spectrum, s.real, terms)
    assert type(got.value) is float and got.terms_used == j
    if terms >= 48:
        assert (got.value.hex(), got.error_bound.hex()) == (value.hex(), bound.hex())
    else:
        # a split term now rounds as (c_k x^k) T, not x^k (c_k T): below 48
        # head terms a value may move by a few ulps (4 seen), inside the
        # rounding that the bound charges for the magnitudes summed
        assert abs(got.value - value) <= regularize._ROUNDING * size
        assert _ulps(got.error_bound, bound) <= 2


def test_the_determinant_asks_its_tails_at_real_exponents():
    circle = circle_spectrum()
    asked = []
    sloped = []

    def continued_tail(b, j):
        asked.append(b)
        return circle.continued_tail(b, j)

    def continued_slope(j):
        sloped.append(j)
        return circle.continued_slope(j)

    spy = Spectrum("circle", circle.eigenvalues, continued_tail, continued_slope)
    got = log_regularized_det(spy, 1.0)
    assert got == log_regularized_det(circle, 1.0)
    # the slope T'(0) once, at the head size; then the values T(k) from k = 1
    assert sloped == [got.terms_used]
    assert asked == [float(k) for k in range(1, len(asked) + 1)] and len(asked) >= 2
    assert {type(b) for b in asked} == {float}
    asked.clear()
    sloped.clear()
    assert spectral_zeta(spy, 2, 1.0) == spectral_zeta(circle, 2, 1.0)
    assert sloped == []
    assert asked == [2 + k for k in range(len(asked))] and len(asked) >= 2
    assert {type(b) for b in asked} == {complex}


def _reference_em_tail(b, start):
    # `_em_tail` as it stood when every tail also returned its d/db
    # derivative: (value, derivative, first omitted correction of both)
    bb = complex(b)
    if abs(bb - 1) < 1e-9:
        raise SingularityError("the continued Dirichlet tail has a pole at exponent 1")
    if bb.imag == 0:
        bb = bb.real
    a = float(start + 1)
    la = math.log(a)
    apow = cmath.exp(-bb * la) if isinstance(bb, complex) else math.exp(-bb * la)
    inv_a2 = 1 / (a * a)
    apk = apow / a
    val = a * apow / (bb - 1) + apow / 2
    der = a * apow / (bb - 1) * (-la - 1 / (bb - 1)) - la * apow / 2
    rise_v, rise_d = bb, 1.0
    for k, coef in enumerate(regularize._EM_COEFFS[: regularize._EM_TERMS], 1):
        val += coef * rise_v * apk
        der += coef * apk * (rise_d - la * rise_v)
        apk *= inv_a2
        for f in (bb + (2 * k - 1), bb + 2 * k):
            rise_v, rise_d = rise_v * f, rise_d * f + rise_v
    coef = regularize._EM_COEFFS[regularize._EM_TERMS]
    return val, der, abs(coef * rise_v * apk) + abs(coef * apk * (rise_d - la * rise_v))


# Oracles: the circle's bare tail 2 T_em(2b), its derivative 4 T_em'(2b)
# and their truncation bound 4 err straight from `_reference_em_tail`,
# and the binomial split of each that a shifted spectrum's own tails once were.
def _oracle_circle_tail(a, j):
    val, _, _ = _reference_em_tail(2 * complex(a), j)
    return 2 * val


def _oracle_circle_tail_deriv(a, j):
    _, der, _ = _reference_em_tail(2 * complex(a), j)
    return 4 * der


def _oracle_circle_tail_err(a, j):
    _, _, err = _reference_em_tail(2 * complex(a), j)
    return 4 * err


def _oracle_circle_tail_bound(a, j):
    # the truncation bound plus the rounding of (j + 1)^-2a = exp(-2a log(j + 1)),
    # (|2a| log(j + 1) + 2) 2^-52 relative in the tail
    b = 2 * complex(a)
    val, _, err = _reference_em_tail(b, j)
    return 4 * (err + (abs(b) * math.log(j + 1) + 2) * 2.0**-52 * abs(val))


def _oracle_shift_tail(shift, a, j, split_order=24):
    total = 0j
    binom = 1.0 + 0j
    for k in range(split_order):
        total += binom * shift**k * _oracle_circle_tail(complex(a) + k, j)
        binom *= (-complex(a) - k) / (k + 1)
    return total


def _oracle_shift_tail_deriv(shift, a, j, split_order=24):
    total = 0j
    bv, bd = 1.0 + 0j, 0j
    for k in range(split_order):
        total += shift**k * (
            bd * _oracle_circle_tail(complex(a) + k, j)
            + bv * _oracle_circle_tail_deriv(complex(a) + k, j)
        )
        f = (-complex(a) - k) / (k + 1)
        bv, bd = bv * f, bd * f + bv * (-1.0 / (k + 1))
    return total


# a nonzero imaginary part keeps a + i off the tails' pole at 1/2
_DYADIC = st.builds(
    lambda x, y: complex(x / 64, y / 64), st.integers(-128, 192), st.integers(-128, 128).filter(bool)
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([0, 1]), _DYADIC),
    st.integers(1, 35),
    st.sampled_from([48, 64, 128]),
)
def test_continued_tail_matches_the_per_exponent_oracle_bit_for_bit(a, count, j):
    # the exponents a, a + 1, ..., a + count - 1, as the binomial split asks for them
    circle = circle_spectrum()
    for m in range(count):
        b = complex(a) + m
        assert circle.continued_tail(b, j) == (_oracle_circle_tail(b, j), _oracle_circle_tail_bound(b, j))
    # the determinant's slope T'(0) and its bound, the derivative at b = 0
    assert circle.continued_slope(j) == (_oracle_circle_tail_deriv(0.0, j), _oracle_circle_tail_err(0.0, j))


def _oracle_shifted_log_det(shift, s, j=64):
    # log det'(Delta + shift + s) from the shifted spectrum's own head
    # lam + shift and the binomial split of its tails, T_mu(0), ..., T_mu(30)
    head = sum(2 * math.log(n * n + shift + s) for n in range(1, j + 1))
    tails = [_oracle_shift_tail(shift, k, j) for k in range(30)]
    series = sum((-1) ** k * s**k * tails[k].real / k for k in range(1, 30))
    return head - _oracle_shift_tail_deriv(shift, 0, j).real - series


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.5, 1.0), st.floats(0.0, 4.0))
@example(-0.5, 0.55)
@example(1.0, 4.0)
def test_shifted_log_det_meets_its_bound_and_the_split_oracle(a, s):
    assume(a + s >= 0.05)
    got = log_regularized_det(shift_spectrum(circle_spectrum(), a), s)
    assert abs(got.value - math.log(_circle_det_oracle(a + s))) <= got.error_bound
    want = _oracle_shifted_log_det(a, s)
    assert abs(got.value - want) <= 1e-12 * abs(want)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(math.log(0.05), math.log(5000)).map(math.exp),
    st.floats(-0.5, 1.0),
    st.sampled_from([None, 1000, 4000]),
)
# split ratio near 1/2 (x = 2100 against lam_65 = 4225): the split runs its full 40 terms
@example(2100.0, 0.0, None)
# a long head: its rounding grows with the head and must stay inside the bound
@example(0.3, 0.0, 65536)
def test_log_det_meets_its_bound_against_the_closed_form(s, shift, terms):
    x = s + shift
    assume(x >= 0.05)
    got = log_regularized_det(shift_spectrum(circle_spectrum(), shift), s, terms=terms)
    assert abs(got.value - _closed_form_log_det(x)) <= got.error_bound


def _closed_form_log_det(x):
    # log det'(Delta + x) = log(4 sinh^2(pi sqrt(x)) / x) for the circle
    root = 2 * math.pi * math.sqrt(x)
    return root + 2 * math.log1p(-math.exp(-root)) - math.log(x)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(math.log(0.05), math.log(5000)).map(math.exp),
    st.floats(-0.5, 1.0),
    st.sampled_from([1, 2, 3, 4, 6]),
)
@example(0.3, 0.0, 1)
@example(0.3, 0.0, 4)
def test_a_short_head_charges_the_tails_truncation_to_its_bound(s, shift, terms):
    # a few head terms leave the Euler-Maclaurin tails far from converged
    # (5.5e-7 off at s = 0.3 after one term); no tolerance is asked, and the
    # bound must still cover the error
    x = s + shift
    assume(x >= 0.05)
    spectrum = shift_spectrum(circle_spectrum(), shift)
    got = log_regularized_det(spectrum, s, tol=math.inf, terms=terms)
    assert abs(got.value - _closed_form_log_det(x)) <= got.error_bound


@settings(max_examples=20, deadline=None)
@given(st.floats(-0.5, 1.0), st.floats(-0.5, 1.0), st.floats(0.0, 4.0))
def test_shifting_twice_is_one_shift_by_the_sum(a, b, s):
    circle = circle_spectrum()
    assume(a + b + s >= 0.05 and a + b > -1)
    twice = shift_spectrum(shift_spectrum(circle, a), b)
    once = shift_spectrum(circle, a + b)
    assert log_regularized_det(twice, s) == log_regularized_det(once, s)
    assert spectral_zeta(twice, 2, s) == spectral_zeta(once, 2, s)
    assert spectral_zeta(twice, 0.5 + 1j, s + 0.5j) == spectral_zeta(once, 0.5 + 1j, s + 0.5j)


def test_a_shift_below_the_first_eigenvalue_is_a_precondition_error():
    circle = circle_spectrum()
    with pytest.raises(PreconditionError, match="shifted eigenvalues must stay positive"):
        regularized_det(shift_spectrum(circle, -1.5), 2.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(PreconditionError, match="need a finite shift"):
            shift_spectrum(circle, bad)
    # the message names the float sum lam_1 + Re(s + shift) found <= 0
    with pytest.raises(PreconditionError, match=r"first shifted eigenvalue, got -0\.5$"):
        spectral_zeta(shift_spectrum(circle, 0.5), 2, -2.0)
    # an s just above -(lam_1 + shift) whose s + shift rounds to -lam_1
    edge = shift_spectrum(circle, -0.9)
    with pytest.raises(PreconditionError, match=r"first shifted eigenvalue, got 0\.0$"):
        log_regularized_det(edge, -0.09999999999999997)
    with pytest.raises(PreconditionError, match=r"first shifted eigenvalue, got 0\.0$"):
        spectral_zeta(edge, 2, -0.09999999999999997)


def test_log_regularized_det():
    circ = circle_spectrum()
    for spectrum, s in ((circ, 1.0), (shift_spectrum(circ, 0.4), 0.6)):
        got = log_regularized_det(spectrum, s)
        assert math.exp(got.value) == regularized_det(spectrum, s)
        assert 0 < got.error_bound <= 1e-8 and got.terms_used == 64
    # beyond float range the log is still a value; the determinant raises with it
    big = log_regularized_det(circ, 1e6)
    assert big.value == pytest.approx(2 * math.pi * 1e3 - math.log(1e6), rel=1e-10)
    with pytest.raises(ConvergenceError, match=f"log det = {big.value!r}"):
        regularized_det(circ, 1e6)
    with pytest.raises(ConvergenceError, match="tail bound not met"):
        log_regularized_det(circ, 4.0, tol=1e-30)
    # a NaN tolerance is the caller's error: refused, never a value passed unchecked
    with pytest.raises(PreconditionError, match="a tolerance must be positive"):
        log_regularized_det(circ, 4.0, tol=float("nan"))


def test_spectral_identity_against_truncated_counting_function():
    # the t-integral of N(u) = sum u^(-lam_j) reproduces the operator zeta
    circ = circle_spectrum()
    cutoff = 30
    n = PowerLogSum.from_dict(
        {(Fraction(-k * k), 0): 2 for k in range(1, cutoff + 1)}
    )
    w, s = 2.0, 1.0
    integral = two_variable_zeta_numeric(n, w, s)
    full = spectral_zeta(circ, w, s)
    # sum_{n>30} 2 (n^2 + 1)^-2 < int_30^oo 2 u^-4 du = 2 / (3 * 30^3)
    omitted = 2 / (3 * cutoff**3)
    assert abs(integral - full.value) <= omitted + full.error_bound + 1e-10


def test_spectrum_registry():
    assert spectrum_by_name("circle").name == "circle"
    with pytest.raises(PreconditionError):
        spectrum_by_name("klein-bottle")


def test_head_terms_above_the_cap_fail_before_enumerating():
    circle = circle_spectrum()
    asked = []

    def eigenvalues(count):
        asked.append(count)
        assert count <= 1 << 20, "enumerated past the cap"
        return circle.eigenvalues(count)

    guarded = Spectrum("circle", eigenvalues, circle.continued_tail, circle.continued_slope)
    with pytest.raises(PreconditionError, match="head terms"):
        log_regularized_det(guarded, 1.0, terms=(1 << 20) + 1)
    assert asked == []
    assert regularize.MAX_HEAD_TERMS == 1 << 20


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-8, -math.inf])
def test_a_tolerance_that_is_not_positive_is_refused_before_the_head(tol):
    circle = circle_spectrum()
    asked = []

    def eigenvalues(count):
        asked.append(count)
        return circle.eigenvalues(count)

    spy = Spectrum("circle", eigenvalues, circle.continued_tail, circle.continued_slope)
    with pytest.raises(PreconditionError, match="a tolerance must be positive"):
        log_regularized_det(spy, 4.0, tol=tol)
    with pytest.raises(PreconditionError, match="a tolerance must be positive"):
        regularized_det(spy, 4.0, tol=tol)
    assert asked == []


def test_the_zero_sum_checks_its_arguments_before_it_returns_zero():
    zero = PowerLogSum.zero()
    nan = float("nan")
    for w, s in ((nan, nan), (nan, 2), (0, 2), (-1, 2), (1, nan), (1, math.inf), (1, complex(2, nan))):
        with pytest.raises(PreconditionError, match=r"need a finite|integral needs Re\(w\) > 0"):
            two_variable_zeta_numeric(zero, w, s)
    for s in (nan, math.inf, complex(2, nan)):
        with pytest.raises(PreconditionError, match="need a finite s"):
            regularize.log_zeta_integral(zero, s)
    # valid arguments still give 0, at any finite s: the zero sum has no edge
    assert two_variable_zeta_numeric(zero, 1.5, -7) == 0j
    assert regularize.log_zeta_integral(zero, -3) == regularize.LogZetaIntegral(0j, 0.0)


_HUGE = 2**2000  # past float range, and 603 digits


@pytest.mark.parametrize("name, call", [
    ("s", lambda: spectral_zeta(circle_spectrum(), 2, _HUGE)),
    ("w", lambda: spectral_zeta(circle_spectrum(), _HUGE, 3)),
    ("s", lambda: log_regularized_det(circle_spectrum(), _HUGE)),
    ("s", lambda: regularized_det(circle_spectrum(), -_HUGE)),
    ("w", lambda: two_variable_zeta_closed(parse_power_log("u - 1"), _HUGE, 2)),
    ("s", lambda: two_variable_zeta_closed(parse_power_log("u - 1"), 1, _HUGE)),
    ("s", lambda: regularize.log_zeta_integral(parse_power_log("u - 1"), _HUGE)),
    ("w", lambda: two_variable_zeta_numeric(parse_power_log("u - 1"), _HUGE, 2)),
    ("s", lambda: two_variable_zeta_numeric(parse_power_log("u - 1"), 1, _HUGE)),
])
def test_an_int_past_float_range_is_named_by_its_bit_length(name, call):
    with pytest.raises(PreconditionError, match=f"need a finite {name}, got an int of 2001 bits") as info:
        call()
    assert str(_HUGE)[:20] not in str(info.value)


@pytest.mark.parametrize("det", [log_regularized_det, regularized_det])
def test_a_determinant_at_a_complex_s_is_a_precondition_error(det):
    with pytest.raises(PreconditionError, match=r"need a real s, got \(1\+2j\)"):
        det(circle_spectrum(), 1 + 2j)


def _clear_circle_caches():
    regularize._circle_tail.cache_clear()
    regularize._circle_slope.cache_clear()
    regularize._circle_table = ()


def test_escaping_inputs_end_in_a_library_error_before_any_tail_is_kept():
    circle = circle_spectrum()
    _clear_circle_caches()
    # a NaN value and bound, and a bare OverflowError from the split
    with pytest.raises(PreconditionError, match=r"need a finite w with \|w\| <= 1e\+06"):
        spectral_zeta(circle, 1e308, 3)
    with pytest.raises(PreconditionError, match=r"need a finite w with \|w\| <= 1e\+06"):
        spectral_zeta(circle, 2**70, 0)
    assert regularize._circle_tail.cache_info().currsize == 0
    # a value beyond float range: the head (lam + x)^-w at w = -200, the split at |w| = 1e6
    for w, s in ((-200, 3), (-1e6, 0), (1e6j, 3e4)):
        with pytest.raises(ConvergenceError, match="spectral zeta at w = .* overflows a float"):
            spectral_zeta(circle, w, s)
    # the largest |w| still gives a finite value with a finite bound
    for w, s in ((1e6, 0), (1e6j, 3), (-1e6j, 1000)):
        got = spectral_zeta(circle, w, s)
        assert cmath.isfinite(got.value) and math.isfinite(got.error_bound)
    n = parse_power_log("u - 1")
    for w, s in ((float("nan"), 1.5), (1, float("nan")), (math.inf, 1.5), (1, complex(2, math.inf))):
        with pytest.raises(PreconditionError, match="need a finite [ws]"):
            two_variable_zeta_closed(n, w, s)
    # (s - 1)^-w = 0.5^-w overflows at w = 1e308, and (s - 0)^-w = 1.5^-w at w = -1e308
    with pytest.raises(ConvergenceError, match="overflows a float"):
        two_variable_zeta_closed(n, 1e308, 1.5)
    with pytest.raises(ConvergenceError, match="overflows a float"):
        two_variable_zeta_closed(n, -1e308, 1.5)
    # Gamma(w + 3)/Gamma(w) is about w^3: past float range at w = 1e200
    with pytest.raises(ConvergenceError, match=r"Gamma\(w \+ 3\)/Gamma\(w\) overflows a float"):
        two_variable_zeta_closed(parse_power_log("u*log^3 - 1"), 1e200, 2.5)
    # each factor is in float range, their product 10^300 * 0.1^-10 is not
    with pytest.raises(ConvergenceError, match=r"Z_N\(w, s\) overflows a float"):
        two_variable_zeta_closed(parse_power_log("1e300"), 10, 0.1)


def _outcome(call):
    # the bits of a result, or the type and text of the error it raised
    try:
        got = call()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc).__name__, str(exc)
    if isinstance(got, float):
        return (got.hex(),)
    value = complex(got.value)
    return value.real.hex(), value.imag.hex(), got.error_bound.hex(), got.terms_used


_CACHED_CALLS = st.tuples(
    st.sampled_from(["zeta", "log det", "det"]),
    st.one_of(st.just(0.0), st.floats(-0.9, 3.0)),
    st.floats(0.05, 40.0),
    st.one_of(st.sampled_from([1, 2, 1.5, 2 + 0j]),
              st.builds(complex, st.floats(-3.0, 4.0), st.floats(-3.0, 3.0))),
    st.one_of(st.none(), st.sampled_from([48, 64]), st.integers(1, 128)),
)


def _cached_call(kind, shift, offset, w, terms):
    spectrum = shift_spectrum(circle_spectrum(), shift) if shift else circle_spectrum()
    s = offset - 1 - shift  # Re s = offset above -(lam_1 + shift)
    if kind == "zeta":
        return lambda: spectral_zeta(spectrum, w, s, terms=terms)
    if kind == "log det":
        return lambda: log_regularized_det(spectrum, s, tol=math.inf, terms=terms)
    return lambda: regularized_det(spectrum, s, tol=math.inf, terms=terms)


@settings(max_examples=60, deadline=None)
@given(st.lists(_CACHED_CALLS, min_size=1, max_size=8))
def test_kept_tails_slopes_and_heads_give_the_bits_of_a_cold_call(calls):
    # a sequence run with the caches kept from call to call, then each call
    # again from cleared caches: the determinant's float exponents b = k and
    # the zeta's complex w + k share keys
    calls = [_cached_call(*args) for args in calls]
    warm = [_outcome(call) for call in calls]
    for call, got in zip(calls, warm):
        _clear_circle_caches()
        assert _outcome(call) == got


def test_a_head_past_the_table_cap_is_not_kept():
    circle = circle_spectrum()
    cap = regularize._TABLED_PAIRS
    _clear_circle_caches()
    # the table grows only to the count asked for, and serves shorter heads as prefixes
    assert circle.eigenvalues(10) == tuple((float(n * n), 2) for n in range(1, 11))
    assert len(regularize._circle_table) == 10
    assert circle.eigenvalues(3) == regularize._circle_table[:3]
    assert circle.eigenvalues(0) == circle.eigenvalues(-2) == ()
    got = log_regularized_det(circle, 1.0, terms=cap + 1)  # asks for cap + 2 pairs
    assert got.terms_used == cap + 1
    assert len(regularize._circle_table) <= cap
    assert abs(got.value - math.log(_circle_det_oracle(1.0))) <= got.error_bound
    longer = circle.eigenvalues(cap + 5)
    assert len(longer) == cap + 5 and longer[-1] == (float((cap + 5) ** 2), 2)
    assert len(regularize._circle_table) <= cap
    # up to the cap the table keeps what it was asked for
    circle.eigenvalues(cap)
    assert len(regularize._circle_table) == cap
