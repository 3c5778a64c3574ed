"""One number rule for every float and complex argument of the library: a
number that is not a bool (a real one where a real belongs) whose float or
complex image is finite, else a PreconditionError naming it
(`powerlog._number`).  Exact data reach floats through one image of the
term map (`TermMap._floats`), where a value past float range is a
ConvergenceError."""

import cmath
import math
import time
from fractions import Fraction

import pytest

from f1zeta.errors import ConvergenceError, F1ZetaError, PreconditionError, SingularityError
from f1zeta.powerlog import PowerLogSum, _number, _shown, parse_power_log
from f1zeta.regularize import (
    LogZetaIntegral, SpectralValue, Spectrum, circle_spectrum, gamma_ratio_poly, log_regularized_det,
    log_zeta_integral, regularized_det, shift_spectrum, spectral_zeta, two_variable_zeta_closed,
    two_variable_zeta_numeric, zeta_from_regularization)
from f1zeta.schemes import projective_space_model, smoothed_count
from f1zeta.weil import LocalZetaFactors, _log, limit_toward_one, smoothed_local_zeta
from f1zeta.zetas import epsilon_factor, evaluate_zeta, log_evaluate_zeta, zeta_of

P1 = projective_space_model(1)
P2 = projective_space_model(2)
CIRCLE = circle_spectrum()
N = parse_power_log("u - 1")


@pytest.mark.parametrize("value, real, message", [
    ("2", False, r"^need a number x, got '2'$"),
    (True, False, r"^need a number x, got True$"),
    (None, False, r"^need a number x, got None$"),
    (1j, True, r"^need a real x, got 1j$"),
    (False, True, r"^need a real x, got False$"),
    (math.nan, False, r"^need a finite x, got nan$"),
    (complex(1, math.inf), False, r"^need a finite x, got \(1\+infj\)$"),
    (-math.inf, True, r"^need a finite x, got -inf$"),
    (2**2000, True, r"^need a finite x, got an int of 2001 bits past float range$"),
    (Fraction(10**400, 3), False, r"^need a finite x, got a value past float range$"),
], ids=["str", "bool", "none", "complex-for-real", "bool-for-real", "nan", "inf-imag", "-inf",
        "huge-int", "huge-fraction"])
def test_the_rule_names_what_failed(value, real, message):
    with pytest.raises(PreconditionError, match=message):
        _number(value, "x", real)


def test_the_rule_returns_the_finite_image():
    assert _number(2, "x") == 2 + 0j and type(_number(2, "x")) is complex
    assert _number(Fraction(1, 4), "x", real=True) == 0.25
    assert _number(-0.0, "x", real=True) == 0.0
    assert _number(1e308 + 1e308j, "x") == 1e308 + 1e308j


@pytest.mark.parametrize("call", [
    lambda n: n.evaluate(2),
    lambda n: evaluate_zeta(zeta_of(n), 3),
    lambda n: log_evaluate_zeta(zeta_of(n), 3),
    epsilon_factor,
    lambda n: zeta_from_regularization(n, 3),
    lambda n: two_variable_zeta_closed(n, 1, 3),
    lambda n: two_variable_zeta_numeric(n, 1, 3),
    lambda n: log_zeta_integral(n, 3),
], ids=["evaluate", "evaluate_zeta", "log_evaluate_zeta", "epsilon_factor",
        "zeta_from_regularization", "closed", "numeric", "log_zeta_integral"])
@pytest.mark.parametrize("expression, what", [
    ("u^1e400 - 1", "term exponent"), ("1e400*u - 1e400", "term coefficient")])
def test_exact_data_past_float_range_is_a_convergence_error(call, expression, what):
    # each raised a bare OverflowError
    with pytest.raises(ConvergenceError, match=f"^{what} of about 2\\^1329 is beyond float range$"):
        call(parse_power_log(expression))


def test_the_float_image_is_each_term_as_a_float():
    n = parse_power_log("3/4*u^{1/2}*log^2 - u^-2")
    assert n._floats() == [(-2.0, 0, -1.0), (0.5, 2, 0.75)]
    assert zeta_of(n)._floats() == n._floats()
    assert PowerLogSum.zero()._floats() == []


def test_exact_bases_stay_exact_at_any_size():
    assert smoothed_local_zeta(P2, 10**400).series(3).coefficients[1] == 1 + 10**400 + 10**800
    assert smoothed_count(P2, 10**400) == 1 + 10**400 + 10**800
    assert smoothed_count(P2, Fraction(1, 2)) == Fraction(7, 4)


def test_an_exact_base_past_float_range_or_next_to_one_has_an_exact_log():
    # log p = log(numerator) - log(denominator): the Fraction's float would
    # overflow, or round p - 1 to 0
    assert smoothed_local_zeta(P2, Fraction(10**500, 3)).evaluate_s(3) == 1
    with pytest.raises(ConvergenceError, match=r"^limit value at p = .* overflows a float"):
        limit_toward_one(P2, 3, [Fraction(10**500, 3)])
    # past the digits `str` converts, the base is named by its size
    for base, shown in ((10**5000, "an int of 16610 bits"),
                        (Fraction(10**5000, 3), "a Fraction holding an int too long to print")):
        with pytest.raises(ConvergenceError, match=f"^limit value at p = {shown} overflows a float"):
            limit_toward_one(P2, 3, [base])
    # log(p - 1) is finite; log p rounds to 0, so a factor vanishes in floats
    with pytest.raises(SingularityError, match=r"vanishes at s = 3$"):
        limit_toward_one(P2, 3, [1 + Fraction(1, 10**400)])
    assert limit_toward_one(P2, 3, [Fraction(3, 2)]) == limit_toward_one(P2, 3, [1.5])
    # within float range log p is read off p's float, whose error next to 1
    # is about 1e-16 / (p - 1); the two integer logs would cancel to 2e-5
    near = Fraction(10**10 + 1, 10**10)
    assert _log(near) == pytest.approx(math.log1p(1e-10), rel=1e-6)
    assert limit_toward_one(P2, 3, [near]) == pytest.approx([1 / 6], rel=1e-6)


def test_a_shift_names_its_spectrum_as_str_does_until_str_fails():
    assert shift_spectrum(CIRCLE, Fraction(1, 2)).name == "circle+1/2"
    assert shift_spectrum(CIRCLE, 0.5).name == "circle+0.5"
    # str(shift) ended in a bare ValueError: more digits than `str` converts
    huge = shift_spectrum(CIRCLE, Fraction(10**5000 + 1, 10**5000))
    assert huge.name == "circle+a Fraction holding an int too long to print"
    assert huge.shift == 1.0


@pytest.mark.parametrize("base, factors, message", [
    (math.inf, ((0, -1), (1, -1)), r"^need a finite p > 1, got inf$"),
    ("2", ((0, -1), (1, -1)), r"^need a real p > 1, got '2'$"),
    (1, ((0, -1), (1, -1)), r"^smoothed local zeta needs p > 1, got 1$"),
    (2, ((0, 1.5),), r"^factor exponent e_r must be an integer, got 1\.5$"),
    (2, ((501, -1),), r"^factor level r 501; at most 500 is supported$"),
    (2, (0, 1), r"^local zeta factors must be \(r, e_r\) pairs, got \(0, 1\)$"),
], ids=["inf", "str", "one", "float-exponent", "level-past-cap", "not-pairs"])
def test_local_zeta_factors_check_their_fields(base, factors, message):
    # inf returned (1+0j) and "2" raised a bare TypeError
    with pytest.raises(PreconditionError, match=message):
        LocalZetaFactors(base, factors).evaluate_s(2)


def test_local_zeta_factors_keep_int_pairs():
    z = LocalZetaFactors(Fraction(5, 2), [[0, -1], [1, -1]])
    assert z.factors == ((0, -1), (1, -1))
    assert hash(z) == hash(LocalZetaFactors(Fraction(5, 2), z.factors))


def test_a_computed_shifted_point_past_float_range_is_still_refused():
    # s and the shift are each finite; their sum is not
    with pytest.raises(PreconditionError, match=r"need a finite s \+ shift"):
        spectral_zeta(shift_spectrum(CIRCLE, 1e308), 2, 1e308)
    with pytest.raises(PreconditionError, match="a shift must be finite"):
        shift_spectrum(shift_spectrum(CIRCLE, 1e308), 1e308)


# per public name and float or complex parameter: the call, and whether the
# parameter is real (a complex is refused) and exact (ints and Fractions
# are taken as they are, at any size)
FLOAT_PARAMETERS = [
    ("evaluate u", lambda v: N.evaluate(v), False, False),
    ("evaluate_zeta s", lambda v: evaluate_zeta(zeta_of(N), v), False, False),
    ("log_evaluate_zeta s", lambda v: log_evaluate_zeta(zeta_of(N), v), False, False),
    ("zeta_from_regularization s", lambda v: zeta_from_regularization(N, v), False, False),
    ("gamma_ratio_poly w", lambda v: gamma_ratio_poly(v, 3), False, False),
    ("two_variable_zeta_closed w", lambda v: two_variable_zeta_closed(N, v, 2), False, False),
    ("two_variable_zeta_closed s", lambda v: two_variable_zeta_closed(N, 1, v), False, False),
    ("two_variable_zeta_numeric w", lambda v: two_variable_zeta_numeric(N, v, 3), False, False),
    ("two_variable_zeta_numeric s", lambda v: two_variable_zeta_numeric(N, 1, v), False, False),
    ("log_zeta_integral s", lambda v: log_zeta_integral(N, v), False, False),
    ("spectral_zeta w", lambda v: spectral_zeta(CIRCLE, v, 1), False, False),
    ("spectral_zeta s", lambda v: spectral_zeta(CIRCLE, 2, v), False, False),
    ("log_regularized_det s", lambda v: log_regularized_det(CIRCLE, v), True, False),
    ("log_regularized_det tol", lambda v: log_regularized_det(CIRCLE, 1.0, v), True, False),
    ("regularized_det tol", lambda v: regularized_det(CIRCLE, 1.0, v), True, False),
    ("shift_spectrum shift", lambda v: shift_spectrum(CIRCLE, v), True, False),
    ("LocalZetaFactors s", lambda v: LocalZetaFactors(2, ((0, -1), (1, -1))).evaluate_s(v), False,
     False),
    ("LocalZetaFactors base", lambda v: LocalZetaFactors(v, ((0, -1), (1, -1))).evaluate_s(2), True,
     True),
    ("limit_toward_one s", lambda v: limit_toward_one(P1, v), False, False),
    ("smoothed_local_zeta p", lambda v: smoothed_local_zeta(P2, v), True, True),
    ("limit_toward_one p", lambda v: limit_toward_one(P2, 3, [v]), True, True),
    ("smoothed_count q", lambda v: smoothed_count(P2, v), True, True),
]
# 10**5000 has more digits than `str` converts: a message must name it by its size
NEAR_NUMBERS = [math.nan, math.inf, -math.inf, 0.0, -0.0, True, 10**400, -10**400, 1e308, -1e308,
                "2", 2 + 1j, 1e308j, 2.5, 3, 10**5000, Fraction(10**5000 + 1, 10**5000)]


def _finite(result):
    if isinstance(result, SpectralValue):
        return cmath.isfinite(result.value) and math.isfinite(result.error_bound)
    if isinstance(result, LogZetaIntegral):
        return cmath.isfinite(result.value) and math.isfinite(result.error_estimate)
    if isinstance(result, Spectrum):
        return math.isfinite(result.shift)
    if isinstance(result, list):
        return all(cmath.isfinite(v) for v in result)
    if isinstance(result, (LocalZetaFactors, Fraction)):
        return True
    return cmath.isfinite(result)


# every pair, about 1 s in all: a sample could miss the one escaping pair
@pytest.mark.parametrize("value", NEAR_NUMBERS, ids=lambda value: _shown(value)[:16])
@pytest.mark.parametrize("case", FLOAT_PARAMETERS, ids=lambda case: case[0])
def test_a_float_parameter_returns_a_finite_value_or_a_library_error(case, value):
    name, call, real, exact = case
    start = time.perf_counter()
    try:
        result = call(value)
    except F1ZetaError:  # a bare TypeError, ValueError or OverflowError fails here
        result = None
    assert time.perf_counter() - start < 5, (name, value)
    if result is None:
        return
    assert _finite(result), (name, value, result)
    # never a str or a bool read as a number, nor a complex where a real belongs
    assert not isinstance(value, (str, bool)), (name, value)
    assert not (real and isinstance(value, complex)), (name, value)
    # an int past float range only where ints are taken exactly; inf only as a tolerance
    if type(value) is int:
        assert exact or abs(value) < 2**1024, (name, value)
    else:
        assert cmath.isfinite(value) or name.endswith("tol") and value == math.inf, (name, value)
