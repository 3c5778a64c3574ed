"""One integer rule for every int argument and int field of the library:
an int that is not a bool, within the name's bounds, else a
PreconditionError naming it (`powerlog._check_integer`)."""

import cmath
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1zeta.errors import ParseError, PreconditionError
from f1zeta.groups import (
    ReductiveGroupData, gl_group_data, group_from_degrees, torus_counting, torus_group_data,
    verify_family_identities)
from f1zeta.powerlog import (
    MAX_COUNTING_DEGREE, FunctionalEquationWitness, PowerLogSum, _check_integer, witness_holds)
from f1zeta.regularize import (
    MAX_HEAD_TERMS, circle_spectrum, log_regularized_det, regularized_det, spectral_zeta)
from f1zeta.schemes import (
    MAX_FOURIER_PERIOD, FourierData, MonoidScheme, TorsionPoint, exact_count,
    fourier_data, gcd_fourier_coefficients, gcd_inner_fourier, local_functional_equation,
    projective_space_model, scheme_from_dict, torsion_point_model, torus_model, totient)
from f1zeta.weil import (
    MAX_SERIES_ORDER, LocalZetaFactors, TruncatedSeries, default_base_sequence, limit_toward_one,
    local_zeta_series, smoothed_local_zeta)

P1 = projective_space_model(1)
P2 = projective_space_model(2)
CIRCLE = circle_spectrum()
SHARED = gcd_fourier_coefficients(3, 2, 2)  # the vector of torsion 3 at p = 2, period 2


@pytest.mark.parametrize("value, least, most, message", [
    (2.0, None, None, r"^n must be an integer, got 2\.0$"),
    (True, None, None, r"^n must be an integer, got True$"),
    (2.5, 1, None, r"^n must be >= 1 and an integer, got 2\.5$"),
    (math.nan, None, 5, r"^n must be an integer, got nan$"),
    (0, 1, None, r"^n must be >= 1, got 0$"),
    (6, 1, 5, r"^n 6; at most 5 is supported$"),
    # more digits than str converts: named by the bit length
    (-2**20000, 1, None, r"^n must be >= 1, got an int of 20001 bits$"),
    (2**20000, None, 5, r"^n an int of 20001 bits; at most 5 is supported$"),
], ids=["float", "bool", "float-least", "nan-most", "below", "above", "huge-below", "huge-above"])
def test_the_rule_names_what_failed(value, least, most, message):
    with pytest.raises(PreconditionError, match=message):
        _check_integer(value, "n", least, most)


# each ended in a bare ValueError from repr: more digits than `str` converts
@pytest.mark.parametrize("call, message", [
    (lambda: scheme_from_dict({"points": [{"rank": -10**5000}]}),
     r"^point rank must be an integer >= 0, got an int of 16610 bits$"),
    (lambda: scheme_from_dict({"points": [[10**5000]]}),
     r"^bad point record a list holding an int too long to print$"),
    (lambda: scheme_from_dict({"points": [{"rank": 1, "torsion": [-10**5000]}]}),
     r"^a torsion entry must be an integer >= 2, got an int of 16610 bits$"),
    (lambda: scheme_from_dict({"points": [{"rank": 1}], "dimension": -10**5000}),
     r"^dimension must be an integer >= 0, got an int of 16610 bits$"),
    (lambda: scheme_from_dict({"points": [{"rank": 1, "multiplicity": -10**5000}]}),
     r"^multiplicity must be an integer >= 1, got an int of 16610 bits$"),
    (lambda: PowerLogSum.from_records([[10**5000, 1, -1, 1, 1]]),
     r"^negative log power in record a list holding an int too long to print$"),
], ids=["rank", "record", "torsion", "dimension", "multiplicity", "term-record"])
def test_a_record_int_too_long_to_print_is_named_by_its_size(call, message):
    with pytest.raises(ParseError, match=message):
        call()


def test_the_rule_returns_an_int_within_its_bounds():
    assert _check_integer(5, "n", 1, 5) == 5
    assert _check_integer(-2**2000, "n") == -2**2000


# each returned a truncated or bool-driven value, or raised a bare error
@pytest.mark.parametrize("call, message", [
    (lambda: totient(2.5), "totient argument"),
    (lambda: totient(True), "totient argument"),
    (lambda: PowerLogSum.log_power(1.5), "log power m"),
    (lambda: PowerLogSum.from_dict({(0, 1.5): 1}), "log power m"),
    (lambda: local_zeta_series(P1, 2, True), "series order"),
    (lambda: smoothed_local_zeta(P1, 2).series(True), "series order"),
    (lambda: smoothed_local_zeta(P1, 2).series(3.0), "series order"),
    (lambda: projective_space_model(2.5), "projective dimension"),
    (lambda: gl_group_data(2.5), "GL rank"),
    (lambda: torus_counting(2.5), "torus rank"),
    (lambda: verify_family_identities(2.5, "gl"), "family rank"),
    (lambda: default_base_sequence(2.5), "base count"),
    (lambda: spectral_zeta(CIRCLE, 2, 1, terms=2.5), "head terms"),
    (lambda: gcd_fourier_coefficients(2, 3, True), "period length"),
    (lambda: gcd_fourier_coefficients(3, 2, -2**20000), "an int of 20001 bits"),
    (lambda: exact_count(P1, -2**20000), "an int of 20001 bits"),
    (lambda: FourierData(2, 1.5), r"^Fourier period must be >= 1 and an integer, got 1\.5$"),
    (lambda: FourierData(2.0, 2), r"^base prime must be >= 2 and an integer, got 2\.0$"),
    (lambda: FourierData(2, 1, ((0, 0, 3.0, (Fraction(1),)),)).verify(),
     r"^a torsion order must be >= 2 and an integer, got 3\.0$"),
    # an order 3.0 beside the 3 it equals, on one shared vector, is still read
    (lambda: FourierData(2, 2, ((0, 0, 3, SHARED), (1, 0, 3.0, SHARED))).verify(),
     r"^a torsion order must be >= 2 and an integer, got 3\.0$"),
    # each ended in a bare ValueError or TypeError from the unpack or the hash
    (lambda: FourierData(2, 1, ((0, 0, 3),)).verify(),
     r"^a Fourier entry is \(point, slot, order, vector\): not enough values"),
    (lambda: FourierData(2, 1, ((0, 0, [3], (Fraction(1),)),)).verify(),
     r"^a Fourier entry is \(point, slot, order, vector\): unhashable type"),
    # a vector with no length: a bare TypeError from len() or from zip()
    (lambda: FourierData(2, 1, ((0, 0, 3, None),)).verify(),
     r"^a Fourier vector must be a sequence, got None$"),
    (lambda: FourierData(2, 1, ((0, 0, 3, 5),)).verify(),
     r"^a Fourier vector must be a sequence, got 5$"),
    # a str vector was parsed character by character: '3' read as (3,), and verify() was True
    (lambda: FourierData(4, 1, ((0, 0, 3, '3'),)).verify(),
     r"^a Fourier vector must be a sequence, got '3'$"),
    # verify() was True: an empty table of period 0
    (lambda: FourierData(2, 0).verify(), r"^Fourier period must be >= 1, got 0$"),
    (lambda: FunctionalEquationWitness(True, 1), r"witness sign c must be an integer, got True"),
    (lambda: FunctionalEquationWitness(2.5, 1), r"witness sign c must be an integer, got 2\.5"),
    # witness_holds read omega's numerator: an AttributeError
    (lambda: witness_holds(PowerLogSum.power(1), FunctionalEquationWitness(1, 0.5)),
     r"witness center omega must be an int or a Fraction, got 0\.5"),
    (lambda: FunctionalEquationWitness(1, True), "witness center omega"),
    # each ended in a bare ValueError from str: more digits than `str` converts
    (lambda: ReductiveGroupData(1, 10**5000, (1,)),
     r"^dimension - rank must be even and nonnegative, got d=an int of 16610 bits, r=1$"),
    (lambda: ReductiveGroupData(1, 3, (10**5000, 1)).coefficients,
     r"^flag Betti numbers a tuple holding an int too long to print are not palindromic$"),
])
def test_an_int_argument_that_breaks_the_rule_is_a_precondition_error(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


# each verify() was True, as for the vector (3,): Fraction(c) parses a str
@pytest.mark.parametrize("coefficient", ["3", " 3 ", "6/2"])
def test_a_str_fourier_coefficient_reads_as_inf(coefficient):
    data = FourierData(4, 1, ((0, 0, 3, (coefficient,)),))
    assert data.reconstruction_error() == math.inf and not data.verify()
    assert FourierData(4, 1, ((0, 0, 3, (3,)),)).verify()


def test_the_number_theory_helpers_are_capped():
    # each ran for seconds of trial division without a cap
    for call in (lambda: totient(2**61 - 1), lambda: gcd_inner_fourier(2**70),
                 lambda: gcd_fourier_coefficients(3, 2, 2**70)):
        with pytest.raises(PreconditionError, match="at most"):
            call()
    assert totient(2 * MAX_FOURIER_PERIOD**2) == MAX_FOURIER_PERIOD**2
    assert len(gcd_inner_fourier(MAX_FOURIER_PERIOD)) == MAX_FOURIER_PERIOD
    assert len(gcd_fourier_coefficients(3, 2, MAX_FOURIER_PERIOD)) == MAX_FOURIER_PERIOD


@pytest.mark.parametrize("call", [
    lambda: smoothed_local_zeta(P1, math.nan),
    lambda: smoothed_local_zeta(P1, math.inf),
    lambda: limit_toward_one(P1, 2, [math.nan]),
    lambda: limit_toward_one(P1, 2, [math.inf, 1.1]),
    lambda: limit_toward_one(P1, math.nan),
    lambda: limit_toward_one(P1, complex(2, math.inf)),
    lambda: smoothed_local_zeta(P1, 2).evaluate_s(math.nan),
    lambda: smoothed_local_zeta(P1, 2).evaluate_s(2**2000),
    lambda: LocalZetaFactors(math.inf, ((0, -1), (1, -1))).evaluate_s(2),
    lambda: LocalZetaFactors(math.nan, ((0, -1), (1, -1))).evaluate_s(2),
])
def test_a_local_zeta_at_a_nan_or_infinite_argument_is_a_precondition_error(call):
    with pytest.raises(PreconditionError):
        call()


def test_a_factor_past_float_range_is_taken_in_logs():
    # p^(r - s) = 10^616 and 10^924 at r = 1, 2: the value underflows to 0
    assert smoothed_local_zeta(P2, 1e308).evaluate_s(-1) == 0
    assert limit_toward_one(P2, -1, [1e308]) == [0]
    # 1/((1 - p) (1 - p^2)) at p = 10^200, whose second factor is past float
    # range: its log is -3 log p, up to a multiple of 2 pi i
    log_value = LocalZetaFactors(1e200, ((0, -1), (1, -1))).log_evaluate_s(-1)
    assert log_value.real == pytest.approx(-3 * math.log(1e200), rel=1e-15)
    assert cmath.exp(1j * log_value.imag) == pytest.approx(1, abs=1e-15)


# per public name and int parameter: the call, and the least and most value it takes
INT_PARAMETERS = [
    ("totient", totient, 1, 2 * MAX_FOURIER_PERIOD**2),
    ("TorsionPoint rank", TorsionPoint, 0, None),
    ("TorsionPoint torsion", lambda v: TorsionPoint(0, (v,)), 2, None),
    ("MonoidScheme dimension", lambda v: MonoidScheme((TorsionPoint(0),), v), 0, MAX_COUNTING_DEGREE),
    ("MonoidScheme run multiplicity", lambda v: MonoidScheme(((TorsionPoint(0), v),)), 1, None),
    ("exact_count q", lambda v: exact_count(P1, v), 2, None),
    ("fourier_data p", lambda v: fourier_data(torsion_point_model([3]), v), 2, None),
    ("gcd_fourier_coefficients t", lambda v: gcd_fourier_coefficients(v, 3, 2), 2, None),
    ("gcd_fourier_coefficients p", lambda v: gcd_fourier_coefficients(3, v, 2), 2, None),
    ("gcd_fourier_coefficients n0", lambda v: gcd_fourier_coefficients(3, 2, v), 1, MAX_FOURIER_PERIOD),
    ("gcd_inner_fourier", gcd_inner_fourier, 1, MAX_FOURIER_PERIOD),
    ("FourierData prime", lambda v: FourierData(v, 1), 2, None),
    ("FourierData period", lambda v: FourierData(2, v), 1, MAX_FOURIER_PERIOD),
    ("FourierData torsion order", lambda v: FourierData(2, 1, ((0, 0, v, (1,)),)).verify(), 2, None),
    ("projective_space_model", projective_space_model, 0, MAX_COUNTING_DEGREE),
    ("torus_model", torus_model, 1, None),
    ("torsion_point_model rank", lambda v: torsion_point_model([3], v), 0, None),
    ("log_power", PowerLogSum.log_power, 0, None),
    ("from_dict m", lambda v: PowerLogSum.from_dict({(0, v): 1}), 0, None),
    ("TruncatedSeries", lambda v: TruncatedSeries((1, v)), None, None),
    ("FunctionalEquationWitness c", lambda v: FunctionalEquationWitness(v, 1), None, None),
    ("local_zeta_series p", lambda v: local_zeta_series(P1, v, 3), 2, None),
    ("local_zeta_series order", lambda v: local_zeta_series(P1, 2, v), 1, MAX_SERIES_ORDER),
    ("LocalZetaFactors.series", lambda v: smoothed_local_zeta(P1, 2).series(v), 0, MAX_SERIES_ORDER),
    ("LocalZetaFactors level r", lambda v: LocalZetaFactors(2, ((v, -1),)), 0, MAX_COUNTING_DEGREE),
    ("LocalZetaFactors exponent e_r", lambda v: LocalZetaFactors(2, ((0, v),)), None, None),
    ("default_base_sequence", default_base_sequence, 0, 15),
    ("local_functional_equation p", lambda v: local_functional_equation(P1, v), 2, None),
    ("ReductiveGroupData rank", lambda v: ReductiveGroupData(v, 3, (1, 1)), 1, None),
    ("ReductiveGroupData dimension", lambda v: ReductiveGroupData(1, v, (1, 1)), 1, None),
    ("ReductiveGroupData flag_betti", lambda v: ReductiveGroupData(1, 3, (v, v)), 0, None),
    ("torus_counting", torus_counting, 0, MAX_COUNTING_DEGREE),
    ("gl_group_data", gl_group_data, 1, None),
    ("torus_group_data", torus_group_data, 1, None),
    # one degree d: counting degree 1 + 3 (d - 1), at most 500 up to d = 167
    ("group_from_degrees degree", lambda v: group_from_degrees((v,)), 1,
     (MAX_COUNTING_DEGREE + 2) // 3),
    ("verify_family_identities gl", lambda v: verify_family_identities(v, "gl"), 1, None),
    ("verify_family_identities gm_power", lambda v: verify_family_identities(v, "gm_power"), 1, None),
    ("spectral_zeta terms", lambda v: spectral_zeta(CIRCLE, 2, 1, terms=v), 1, MAX_HEAD_TERMS),
    # tol = inf asks for no gate, so a head of any size returns
    ("log_regularized_det terms", lambda v: log_regularized_det(CIRCLE, 1.0, math.inf, v), 1,
     MAX_HEAD_TERMS),
    ("regularized_det terms", lambda v: regularized_det(CIRCLE, 1.0, math.inf, v), 1, MAX_HEAD_TERMS),
]
NEAR_INTS = [True, 2.0, 2.5, math.nan, -1, 2**2000, -2**20000]


# True and 1.0 equal 1 as keys: the rule runs before the shared catalog records are looked up
@pytest.mark.parametrize("build, value, message", [
    (gl_group_data, True, r"^GL rank must be >= 1 and an integer, got True$"),
    (gl_group_data, 1.0, r"^GL rank must be >= 1 and an integer, got 1\.0$"),
    (gl_group_data, 10**6, r"^GL:n has a counting polynomial of degree at least its rank 1000000; "),
    (torus_group_data, True, r"^torus rank must be >= 1 and an integer, got True$"),
    (torus_group_data, 1.0, r"^torus rank must be >= 1 and an integer, got 1\.0$"),
    (torus_group_data, 10**6, r"^Gm:n has a counting polynomial of degree at least its rank 1000000; "),
], ids=["gl-bool", "gl-float", "gl-huge", "gm-bool", "gm-float", "gm-huge"])
def test_a_held_catalog_group_keeps_the_rule(build, value, message):
    held = gl_group_data(1), torus_group_data(1)
    with pytest.raises(PreconditionError, match=message):
        build(value)
    assert held[0] is gl_group_data(1) and held[1] is torus_group_data(1)


def _draws(case):
    _, _, least, most = case
    edges = [b + d for b in (least, most) if b is not None for d in (-1, 0, 1)]
    return st.tuples(st.just(case), st.sampled_from(NEAR_INTS + edges))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(INT_PARAMETERS).flatmap(_draws))
def test_an_int_parameter_returns_or_is_a_precondition_error(drawn):
    (name, call, least, most), value = drawn
    start = time.perf_counter()
    try:
        call(value)
        returned = True
    except PreconditionError:
        returned = False
    assert time.perf_counter() - start < 5, (name, value)
    if returned:  # never a truncated float or a bool, never past a bound
        assert type(value) is int, (name, value)
        assert least is None or value >= least, (name, value)
        assert most is None or value <= most, (name, value)
