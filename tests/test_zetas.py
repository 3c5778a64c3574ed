"""Factored zeta calculus: products, duality, epsilon factors, integrals."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from f1zeta.errors import ConvergenceError, ParseError, PreconditionError, SingularityError
from f1zeta.powerlog import (
    FunctionalEquationWitness,
    PowerLogSum,
    detect_functional_equation,
    from_records,
    parse_power_log,
    product_of_reciprocal_powers,
    to_records,
    witness_holds,
)
from f1zeta.regularize import log_zeta_integral
from f1zeta.zetas import (
    FactoredZeta,
    epsilon_factor,
    evaluate_zeta,
    log_evaluate_zeta,
    pretty_zeta,
    reflect_zeta,
    verify_functional_equation,
    zeta_from_records,
    zeta_of,
    zeta_to_records,
)


# Products, powers and shifts of zetas, one term-map call each.  The
# package checks its identities on integer vectors instead; here they
# are oracles.


def multiply_zeta(z1: FactoredZeta, z2: FactoredZeta) -> FactoredZeta:
    return z1 + z2


def power_zeta(z: FactoredZeta, k) -> FactoredZeta:
    return z.scale(k)


def shift_zeta(z: FactoredZeta, a) -> FactoredZeta:
    """Factors of s |-> zeta(s + a)."""
    return z.shift_exponents(-a)


def product_value(z: FactoredZeta, s: complex) -> complex:
    """Oracle: the plain product of the factors, each raised to its
    exponent in floats, with principal powers for rational exponents."""
    ss = complex(s)
    total = 1.0 + 0j
    for lam, m, e in z.factors:
        base = ss - complex(float(lam))
        if m == 0:
            if base == 0:
                if e > 0:
                    raise SingularityError(f"pole of order {e} at s = {lam}")
                total *= 0.0
                continue
            k = -e  # (s - lam)^(-e)
            if k.denominator == 1:
                total *= base ** k.numerator
            else:
                total *= cmath.exp(float(k) * cmath.log(base))
        else:
            if base == 0:
                raise SingularityError(f"essential singularity at s = {lam} (m = {m})")
            total *= cmath.exp(float(e) * math.factorial(m - 1) * base ** (-m))
    return total


@st.composite
def pure_power_sums(draw, max_terms=5):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        lam = Fraction(draw(st.integers(-5, 5)))
        c = draw(st.integers(-4, 4))
        if c:
            terms[(lam, 0)] = terms.get((lam, 0), Fraction(0)) + c
    return PowerLogSum.from_dict(terms)


@st.composite
def power_log_sums(draw, max_terms=5):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        key = (Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 2))),
               draw(st.integers(0, 2)))
        c = draw(st.integers(-4, 4))
        if c:
            terms[key] = terms.get(key, Fraction(0)) + c
    return PowerLogSum.from_dict(terms)


@st.composite
def witnessed_sums(draw, sums):
    """A sum and a candidate witness (c, omega); half the time the sum is
    symmetrized to N + c u^omega N(1/u), which satisfies it."""
    n = draw(sums)
    witness = FunctionalEquationWitness(
        draw(st.sampled_from((1, -1))),
        draw(st.fractions(min_value=-6, max_value=6, max_denominator=2)),
    )
    if draw(st.booleans()):
        n = n + n.dual().shift_exponents(witness.omega).scale(witness.c)
    return n, witness


def _zeta_reflection_holds(n, witness) -> bool:
    """The zeta-level form of the witnessed identity, the re-check that
    verify_functional_equation once made on factor data:
    zeta_N(omega - s) = (-1)^N(1) zeta_N(s)^c."""
    z = zeta_of(n)
    sign, reflected = reflect_zeta(z, witness.omega)
    return reflected == power_zeta(z, witness.c) and sign == (-1) ** (
        n.value_at_one().numerator % 2
    )


def test_zeta_of_examples():
    alpha = Fraction(5, 2)
    z = zeta_of(PowerLogSum.power(alpha))
    assert z == FactoredZeta.from_dict({(alpha, 0): 1})
    assert pretty_zeta(z) == "1/(s-5/2)"

    zlog = zeta_of(PowerLogSum.log_power())
    assert pretty_zeta(zlog) == "exp(1/s)"

    # expansion of (1 - 1/u)(1 - 1/u^2) has coefficients +1, -1, -1, +1
    # at exponents 0, -1, -2, -3, so the zeta is (s+1)(s+2)/(s(s+3))
    prod = product_of_reciprocal_powers([1, 2])
    z2 = zeta_of(prod)
    assert z2 == FactoredZeta.from_dict(
        {(0, 0): 1, (-1, 0): -1, (-2, 0): -1, (-3, 0): 1}
    )
    assert pretty_zeta(z2) == "(s+1)(s+2)/(s(s+3))"


def test_evaluate_examples():
    gm = FactoredZeta.from_dict({(0, 0): -1, (1, 0): 1})  # s/(s-1)
    assert evaluate_zeta(gm, 3) == pytest.approx(1.5)
    assert evaluate_zeta(zeta_of(PowerLogSum.log_power()), 2) == pytest.approx(
        math.exp(0.5)
    )
    assert evaluate_zeta(zeta_of(PowerLogSum.power(0)), 1j) == pytest.approx(-1j)


def test_evaluate_singularities():
    pole = zeta_of(PowerLogSum.power(2))
    with pytest.raises(SingularityError):
        evaluate_zeta(pole, 2)
    zero = power_zeta(pole, -1)
    assert evaluate_zeta(zero, 2) == 0
    with pytest.raises(SingularityError):
        evaluate_zeta(zeta_of(PowerLogSum.log_power(alpha=1)), 1)


@settings(max_examples=80, deadline=None)
@given(power_log_sums(), st.floats(6, 9), st.floats(-3, 3))
def test_log_evaluate_is_a_log_of_the_value(n, re, im):
    z = zeta_of(n)
    s = complex(re, im)  # every factor sits at |s - lam| >= 1
    value = product_value(z, s)
    assert cmath.exp(log_evaluate_zeta(z, s)) == pytest.approx(value, rel=1e-9)
    assert evaluate_zeta(z, s) == pytest.approx(value, rel=1e-9)


def test_log_evaluate_beyond_float_range():
    # (s - 1)^(-100000) underflows a float at s = 2.5 + 0.7i; its log does not
    z = zeta_of(PowerLogSum.power(1, 100000))
    s = 2.5 + 0.7j
    assert log_evaluate_zeta(z, s) == pytest.approx(-100000 * cmath.log(s - 1))
    with pytest.raises(SingularityError):
        log_evaluate_zeta(z, 1)
    with pytest.raises(SingularityError):
        log_evaluate_zeta(power_zeta(z, -1), 1)  # a zero has no log either


def test_evaluate_beyond_float_range_names_its_log():
    # (s - 1)^100000 overflows a float at s = 2.5 + 0.7i
    z = zeta_of(PowerLogSum.power(1, -100000))
    s = 2.5 + 0.7j
    with pytest.raises(ConvergenceError, match=rf"achieved log = \({log_evaluate_zeta(z, s).real!r}"):
        evaluate_zeta(z, s)
    assert evaluate_zeta(z, 1) == 0  # a zero is still 0, not a log
    # its inverse underflows toward 0 instead of raising
    assert evaluate_zeta(power_zeta(z, -1), s) == 0


def test_evaluate_where_partial_products_leave_float_range():
    # (s - 1)^-400 (s - 2)^400 = ((s - 2)/(s - 1))^400 at s = 100.5: each
    # factor is beyond float range, the value (98.5/99.5)^400 is not
    z = FactoredZeta.from_dict({(1, 0): 400, (2, 0): -400})
    with pytest.raises(OverflowError):
        product_value(z, 100.5)
    assert evaluate_zeta(z, 100.5) == pytest.approx((98.5 / 99.5) ** 400, rel=1e-13)


def test_epsilon_residual_is_never_silently_dropped():
    # 1e308-sized log terms: at the first sample both logs overflow to inf
    # and their difference is NaN, which must count as a failed check
    n = parse_power_log(" + ".join(f"1e308*u^{{{k}}}*log" for k in (-3, -2, -1, 0, 1, 2, 3)))
    assert epsilon_factor(n).numeric_residual == math.inf


def test_multiply_examples():
    pole = FactoredZeta.from_dict({(0, 0): 1})   # 1/s
    zero = FactoredZeta.from_dict({(0, 0): -1})  # s
    assert multiply_zeta(pole, zero) == FactoredZeta.one()

    p1 = multiply_zeta(zeta_of(PowerLogSum.power(1)), zeta_of(PowerLogSum.constant(1)))
    assert p1 == FactoredZeta.from_dict({(0, 0): 1, (1, 0): 1})
    assert pretty_zeta(p1) == "1/((s-1)s)"

    e = zeta_of(PowerLogSum.log_power())
    assert multiply_zeta(e, power_zeta(e, -1)) == FactoredZeta.one()


@settings(max_examples=100)
@given(power_log_sums(), power_log_sums())
def test_zeta_of_is_homomorphism(n1, n2):
    assert zeta_of(n1 + n2) == multiply_zeta(zeta_of(n1), zeta_of(n2))


def test_shift_and_reflect_numerics():
    n = parse_power_log("u^2 - u + 1")
    z = zeta_of(n)
    for s in (3.7 + 0.4j, -1.2 + 2j):
        assert evaluate_zeta(shift_zeta(z, 2), s) == pytest.approx(
            evaluate_zeta(z, s + 2)
        )
        sign, refl = reflect_zeta(z, Fraction(5, 2))
        assert sign * evaluate_zeta(refl, s) == pytest.approx(
            evaluate_zeta(z, 2.5 - s)
        )


def test_phi_reflection_ratio_symbolic():
    # phi_m(-(s-lam)) = phi_m(s-lam)^((-1)^m), with a -1 prefactor only
    # for m = 0: visible as pure exponent arithmetic under reflection
    # about omega = 2 lam
    for m in (1, 2, 3):
        z = FactoredZeta.from_dict({(Fraction(2), m): 1})
        sign, reflected = reflect_zeta(z, 4)
        assert sign == 1
        assert reflected == FactoredZeta.from_dict({(Fraction(2), m): (-1) ** m})
    sign, reflected = reflect_zeta(FactoredZeta.from_dict({(Fraction(2), 0): 1}), 4)
    assert sign == -1
    assert reflected == FactoredZeta.from_dict({(Fraction(2), 0): 1})


def test_reflect_handles_log_factors():
    # phi_m(-z)^((-1)^m) = phi_m(z): reflecting twice is the identity
    z = zeta_of(parse_power_log("u^2*log + log^2 - u"))
    sign1, once = reflect_zeta(z, 0)
    sign2, twice = reflect_zeta(once, 0)
    assert twice == z and sign1 == sign2
    for s in (2.3 + 1j,):
        assert sign1 * evaluate_zeta(once, s) == pytest.approx(evaluate_zeta(z, -s))
    # the sign (-1)^(total order-zero exponent) needs an integer total
    with pytest.raises(PreconditionError, match="reflection sign undefined"):
        reflect_zeta(FactoredZeta.from_dict({(1, 0): Fraction(1, 2)}), 0)


def test_epsilon_examples():
    assert epsilon_factor(PowerLogSum.power(Fraction(3, 2))).sign == -1
    assert epsilon_factor(product_of_reciprocal_powers([1, 2, 3])).sign == 1
    assert epsilon_factor(PowerLogSum.log_power()).sign == 1
    with pytest.raises(PreconditionError):
        epsilon_factor(PowerLogSum.power(1, Fraction(1, 2)))


@settings(max_examples=60, deadline=None)
@given(power_log_sums())
def test_epsilon_law(n):
    if n.is_zero:
        return
    eps = epsilon_factor(n)
    expected = -1 if n.value_at_one().numerator % 2 else 1
    assert eps.sign == expected
    assert eps.numeric_residual <= 1e-9


@settings(max_examples=80)
@given(pure_power_sums())
def test_zeta_duality_factor_identity(n):
    # zeta_{N*}(-s) = (-1)^N(1) zeta_N(s) as exact factor data
    if n.is_zero:
        return
    sign, reflected = reflect_zeta(zeta_of(n.dual()), 0)
    expected = -1 if n.value_at_one().numerator % 2 else 1
    assert sign == expected
    assert reflected == zeta_of(n)


def test_verify_fe_torus_powers():
    for r in range(1, 5):
        n = PowerLogSum.constant(1)
        for _ in range(r):
            n = n * (PowerLogSum.power(1) - PowerLogSum.constant(1))
        report = verify_functional_equation(
            n, FunctionalEquationWitness((-1) ** r, Fraction(r))
        )
        assert report.holds
        assert report.prefactor_sign == 1  # N(1) = 0


def test_verify_fe_reciprocal_product():
    omegas = [1, 3, 4]
    n = product_of_reciprocal_powers(omegas)
    w = detect_functional_equation(n)
    assert w == FunctionalEquationWitness(-1, Fraction(-sum(omegas)))
    report = verify_functional_equation(n, w)
    assert report.holds and report.prefactor_sign == 1


def test_fe_numeric_consistency():
    # evaluate both sides of verified identities at 10 non-singular points
    rng_points = [2.8 + 0.9j * k + 0.37 * k for k in range(1, 11)]
    cases = []
    for r in (1, 2, 3):
        n = PowerLogSum.constant(1)
        for _ in range(r):
            n = n * (PowerLogSum.power(1) - PowerLogSum.constant(1))
        cases.append((n, FunctionalEquationWitness((-1) ** r, Fraction(r))))
    cases.append((parse_power_log("u^4 - u^3 - u^2 + u"), FunctionalEquationWitness(1, Fraction(5))))
    for n, w in cases:
        report = verify_functional_equation(n, w)
        assert report.holds
        z = zeta_of(n)
        for s in rng_points:
            lhs = evaluate_zeta(z, complex(w.omega) - s)
            rhs = report.prefactor_sign * evaluate_zeta(z, s) ** w.c
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


@settings(max_examples=300)
@given(witnessed_sums(power_log_sums()))
def test_zeta_reflection_is_the_witnessed_identity(case):
    n, witness = case
    assert _zeta_reflection_holds(n, witness) == witness_holds(n, witness)


@settings(max_examples=200)
@given(witnessed_sums(pure_power_sums()))
def test_verify_fe_agrees_with_the_zeta_reflection(case):
    n, witness = case
    if n.is_zero or not witness_holds(n, witness):
        with pytest.raises(PreconditionError):
            verify_functional_equation(n, witness)
        return
    report = verify_functional_equation(n, witness)
    assert report.holds and _zeta_reflection_holds(n, witness)
    assert (report.center, report.sign) == (witness.omega, witness.c)
    assert report.prefactor_sign == (-1) ** (n.value_at_one().numerator % 2)


def test_poles_and_zeros():
    z = FactoredZeta.from_dict({(2, 0): 3, (-1, 0): -2, (0, 1): 1})
    assert z.poles() == [(Fraction(2), Fraction(3))]
    assert z.zeros() == [(Fraction(-1), Fraction(2))]


def test_verify_fe_rejections():
    with pytest.raises(PreconditionError):
        verify_functional_equation(
            PowerLogSum.log_power(), FunctionalEquationWitness(1, Fraction(0))
        )
    with pytest.raises(PreconditionError):
        verify_functional_equation(
            parse_power_log("u^2 + 2*u"), FunctionalEquationWitness(1, Fraction(3))
        )


def test_log_zeta_integral_upper():
    n = parse_power_log("1 - u^-1")
    got = log_zeta_integral(n, 3)
    # zeta_N(s) = (s+1)/s, so zeta_N(3)^-1 = 3/4
    assert cmath.exp(-got.value) == pytest.approx(0.75, rel=1e-8)

    nlog = PowerLogSum.log_power()
    assert log_zeta_integral(nlog, 2).value == pytest.approx(0.5, rel=1e-10)

    zero = log_zeta_integral(PowerLogSum.zero(), 2)
    assert zero.value == 0


def test_log_zeta_integral_lower():
    # the integral over (0, 1) at s is minus the dual's over (1, oo) at -s
    n = parse_power_log("1 - u^-1")
    got = -log_zeta_integral(n.dual(), 2).value
    # zeta_{N*}(s) = (s-1)/s, so zeta_{N*}(2) = 1/2
    assert cmath.exp(-got) == pytest.approx(0.5, rel=1e-8)

    nlog = PowerLogSum.log_power()
    got2 = -log_zeta_integral(nlog.dual(), 1).value
    assert cmath.exp(-got2) == pytest.approx(math.exp(-1), rel=1e-8)


def test_log_zeta_integral_reports_its_error_estimate():
    n = parse_power_log("u - 2 + u^-1 + u^-1*log")
    for m, s in ((n, 3 + 1j), (n.dual(), 2 + 0.5j)):  # the dual at -s: the lower form
        got = log_zeta_integral(m, s)
        assert 0 < got.error_estimate <= max(1e-12 * abs(got.value), 1e-14)
    assert log_zeta_integral(PowerLogSum.zero(), 2).error_estimate == 0.0


def test_log_zeta_integral_rejections():
    with pytest.raises(PreconditionError):
        log_zeta_integral(PowerLogSum.constant(1), 2)  # N(1) != 0
    n = parse_power_log("1 - u^-1")
    with pytest.raises(PreconditionError):
        log_zeta_integral(n, 0)  # needs Re(s) > 0
    # a NaN fails Re(s) > 0, and an infinite s is no point of the half-plane
    for s in (float("nan"), complex(3, float("nan")), float("inf"), complex(3, float("inf"))):
        with pytest.raises(PreconditionError, match="need a finite s"):
            log_zeta_integral(n, s)
    with pytest.raises(PreconditionError):
        log_zeta_integral(n.dual(), 0)  # the lower form at s = 0 needs Re(s) < -1


def test_pretty_zeta_cases():
    assert pretty_zeta(FactoredZeta.one()) == "1"
    assert pretty_zeta(FactoredZeta.from_dict({(2, 0): 3})) == "1/(s-2)^3"
    assert pretty_zeta(FactoredZeta.from_dict({(-1, 0): -2})) == "(s+1)^2"
    assert (
        pretty_zeta(FactoredZeta.from_dict({(1, 1): 1, (0, 0): 1}))
        == "1/s*exp(1/(s-1))"
    )
    assert pretty_zeta(FactoredZeta.from_dict({(0, 2): -3})) == "exp(-3/s^2)"
    assert pretty_zeta(FactoredZeta.from_dict({(Fraction(1, 2), 0): Fraction(1, 2)})) \
        == "1/(s-1/2)^(1/2)"


def test_zeta_records_round_trip():
    z = zeta_of(parse_power_log("u^{3/2} - u^-1*log + 2"))
    assert zeta_from_records(zeta_to_records(z)) == z
    with pytest.raises(ParseError):
        zeta_from_records([[1, 0, 0, 1, 1]])


@given(power_log_sums(), st.fractions(min_value=-6, max_value=6, max_denominator=4))
def test_reflection_is_the_dual_shifted(n, omega):
    # zeta_N(omega - s): the factors of zeta_{N*} shifted by omega, with
    # the sign (-1)^N(1); the expected factors are built term by term
    sign, reflected = reflect_zeta(zeta_of(n), omega)
    expected = FactoredZeta.from_dict(
        {(omega - lam, m): (-1) ** m * c for lam, m, c in n.terms}
    )
    assert reflected == expected == zeta_of(n.dual()).shift_exponents(omega)
    assert sign == (-1) ** (n.value_at_one().numerator % 2)


@given(power_log_sums())
def test_counting_functions_and_zetas_share_one_term_map(n):
    z = zeta_of(n)
    assert from_records(to_records(n)) == n
    assert zeta_from_records(zeta_to_records(z)) == z
    assert to_records(n) == zeta_to_records(z)
    printed = [[str(v) for v in rec] for rec in to_records(n)]
    assert from_records(printed) == n and zeta_from_records(printed) == z
    # the same terms, but a counting function is never a zeta
    d = n.as_dict()
    assert PowerLogSum.from_dict(d) != FactoredZeta.from_dict(d)
    assert z.factors == n.terms
    with pytest.raises(TypeError):
        n + z
    with pytest.raises(TypeError):
        z * z
