"""Exact power-log algebra, duality and functional-equation detection."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from f1zeta.errors import ParseError, PreconditionError
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
from f1zeta.zetas import zeta_from_records


@st.composite
def power_log_sums(draw, max_terms=5, pure=False, integer_exponents=False):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        num = draw(st.integers(-6, 6))
        den = 1 if integer_exponents else draw(st.integers(1, 3))
        m = 0 if pure else draw(st.integers(0, 2))
        c = draw(st.integers(-5, 5))
        if c:
            key = (Fraction(num, den), m)
            terms[key] = terms.get(key, Fraction(0)) + c
    return PowerLogSum.from_dict(terms)


def _eval_exact(n: PowerLogSum, u: Fraction) -> Fraction:
    """Independent exact evaluator for pure-power sums with integer exponents."""
    total = Fraction(0)
    for lam, m, c in n.terms:
        assert m == 0 and lam.denominator == 1
        total += c * u ** lam.numerator
    return total


def test_evaluate_examples():
    assert PowerLogSum.power(2).evaluate(3) == pytest.approx(9)
    n = PowerLogSum.constant(1) - PowerLogSum.power(-1)
    assert n.evaluate(2) == pytest.approx(0.5)
    assert PowerLogSum.log_power().evaluate(math.e) == pytest.approx(1)
    with pytest.raises(PreconditionError):
        PowerLogSum.power(1).evaluate(0)


def test_algebra_examples():
    one = PowerLogSum.constant(1)
    u_inv = PowerLogSum.power(-1)
    assert (one - u_inv) + u_inv == one
    prod = (one - u_inv) * (one - PowerLogSum.power(-2))
    assert prod == PowerLogSum.from_dict(
        {(0, 0): 1, (-1, 0): -1, (-2, 0): -1, (-3, 0): 1}
    )
    assert (PowerLogSum.power(1) - one).scale(2) == PowerLogSum.from_dict(
        {(1, 0): 2, (0, 0): -2}
    )
    assert (one - u_inv).scale(0) == PowerLogSum.zero()
    with pytest.raises(PreconditionError, match="log power m must be >= 0, got -1"):
        PowerLogSum.from_dict({(0, -1): 1})
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        one.scale(0.5)


def test_dual_examples():
    alpha = Fraction(5, 2)
    assert PowerLogSum.power(alpha).dual() == PowerLogSum.power(-alpha)
    assert PowerLogSum.log_power().dual() == PowerLogSum.log_power(coeff=-1)
    # (1 - 1/u)^r dualizes to (1 - u)^r = (-1)^r (u - 1)^r
    for r in range(1, 5):
        base = PowerLogSum.constant(1) - PowerLogSum.power(-1)
        n = PowerLogSum.constant(1)
        u_minus_1_r = PowerLogSum.constant(1)
        for _ in range(r):
            n = n * base
            u_minus_1_r = u_minus_1_r * (PowerLogSum.power(1) - PowerLogSum.constant(1))
        assert n.dual() == u_minus_1_r.scale((-1) ** r)


def test_value_at_one():
    n = PowerLogSum.from_dict({(2, 0): 3, (1, 1): 7, (0, 0): -1})
    assert n.value_at_one() == 2  # the log term vanishes at u = 1
    # integer coefficients, denominators > 1, and exponents whose only
    # terms carry logs, against a Fraction sum over the m = 0 terms
    for d in (
        {(2, 0): 3, (1, 1): 7, (0, 0): -1},
        {(Fraction(1, 2), 0): Fraction(1, 3), (1, 0): Fraction(-5, 6), (1, 2): 4},
        {(0, 0): Fraction(3, 4), (0, 1): Fraction(1, 4), (-1, 0): Fraction(1, 4)},
        {(1, 1): 2, (Fraction(-3, 2), 3): Fraction(1, 7)},
        {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)},
        {},
    ):
        n = PowerLogSum.from_dict(d)
        got = n.value_at_one()
        assert type(got) is Fraction
        assert got == sum([Fraction(c) for (_, m), c in d.items() if m == 0], Fraction(0))


@settings(max_examples=100)
@given(power_log_sums())
def test_dual_is_involution(n):
    assert n.dual().dual() == n


@settings(max_examples=100)
@given(power_log_sums())
def test_value_at_one_dual_invariant(n):
    assert n.dual().value_at_one() == n.value_at_one()


def test_detect_fe_power_binomials():
    # (u - 1)^r: witness ((-1)^r, r), confirmed by exact evaluation oracle
    for r in range(1, 6):
        n = PowerLogSum.constant(1)
        for _ in range(r):
            n = n * (PowerLogSum.power(1) - PowerLogSum.constant(1))
        w = detect_functional_equation(n)
        assert w == FunctionalEquationWitness((-1) ** r, Fraction(r))
        for u in (Fraction(2), Fraction(3, 2), Fraction(7, 3)):
            lhs = _eval_exact(n, 1 / u)
            rhs = w.c * u**-w.omega * _eval_exact(n, u)
            assert lhs == rhs


def test_detect_fe_gl2_counting():
    n = parse_power_log("u^4 - u^3 - u^2 + u")
    w = detect_functional_equation(n)
    assert w == FunctionalEquationWitness(1, Fraction(5))
    for u in (Fraction(2), Fraction(5, 3)):
        assert _eval_exact(n, 1 / u) == u**-5 * _eval_exact(n, u)


def test_detect_fe_quadratic():
    w = detect_functional_equation(parse_power_log("u^2 + u"))
    assert w == FunctionalEquationWitness(1, Fraction(3))


def test_detect_fe_none_and_errors():
    assert detect_functional_equation(parse_power_log("u^2 + 2*u")) is None
    with pytest.raises(PreconditionError):
        detect_functional_equation(PowerLogSum.zero())


def test_detect_fe_single_power():
    w = detect_functional_equation(PowerLogSum.power(Fraction(3, 2)))
    assert w == FunctionalEquationWitness(1, Fraction(3))


def test_detect_fe_single_log_term():
    # u^2 log u: N(1/u) = -u^-4 N(u)
    w = detect_functional_equation(PowerLogSum.log_power(m=1, alpha=2))
    assert w == FunctionalEquationWitness(-1, Fraction(4))
    assert witness_holds(PowerLogSum.log_power(m=1, alpha=2), w)


@settings(max_examples=100)
@given(power_log_sums(max_terms=4), st.sampled_from([1, -1]))
def test_detected_witness_satisfies_identity(seed, sign):
    # build a sum with the functional equation by symmetrizing
    omega = Fraction(3)
    mirrored = seed.dual().shift_exponents(omega).scale(sign)
    n = seed + mirrored
    if n.is_zero:
        return
    w = detect_functional_equation(n)
    assert w is not None
    assert witness_holds(n, w)
    assert n.dual() == n.shift_exponents(-w.omega).scale(w.c)


def _term_algebra_witness_holds(n, witness) -> bool:
    """Oracle: the witnessed identity N(1/u) = c u^(-omega) N(u) by term
    algebra, the check `witness_holds` made before it compared integers."""
    return n.dual() == n.shift_exponents(-witness.omega).scale(witness.c)


@st.composite
def witness_cases(draw):
    """A candidate witness and a sum: a random one, one symmetric under
    it by construction (N + c u^omega N(1/u)), or that one perturbed by a
    single term, at an exponent of the sum or a fresh one."""
    fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    witness = FunctionalEquationWitness(draw(st.sampled_from((1, -1))), draw(fractions))
    terms = draw(st.dictionaries(
        st.tuples(fractions, st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
        max_size=5,
    ))
    n = PowerLogSum.from_dict(terms)
    shape = draw(st.sampled_from(("random", "symmetric", "perturbed")))
    if shape != "random":
        n = n + n.dual().shift_exponents(witness.omega).scale(witness.c)
    if shape == "perturbed":
        lam = draw(st.sampled_from([t[0] for t in n.terms]) | fractions if n.terms else fractions)
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
        n = n + PowerLogSum.log_power(draw(st.integers(0, 3)), c, lam)
    return n, witness


@settings(max_examples=200)
@given(witness_cases())
@example((PowerLogSum.zero(), FunctionalEquationWitness(1, Fraction(3))))
@example((PowerLogSum.zero(), FunctionalEquationWitness(-1, Fraction(-1, 2))))
# a lone middle group, lam = omega/2: its own mirror, slot by slot
@example((PowerLogSum.from_dict({(Fraction(3, 4), 0): 2, (Fraction(3, 4), 1): -1}),
          FunctionalEquationWitness(1, Fraction(3, 2))))
@example((PowerLogSum.from_dict({(Fraction(3, 4), 1): Fraction(1, 3)}),
          FunctionalEquationWitness(-1, Fraction(3, 2))))
@example((PowerLogSum.from_dict({(Fraction(3, 4), 0): 2, (Fraction(3, 4), 1): -1}),
          FunctionalEquationWitness(-1, Fraction(3, 2))))
# equal numerators over different denominators; a mirror with another log power
@example((parse_power_log("1/2*u + 1/3"), FunctionalEquationWitness(1, Fraction(1))))
@example((parse_power_log("u*log + 1"), FunctionalEquationWitness(1, Fraction(1))))
# a group and its mirror of different sizes
@example((parse_power_log("u*log + u + 1"), FunctionalEquationWitness(1, Fraction(1))))
# a witness with |c| != 1 holds for the zero sum only
@example((PowerLogSum.zero(), FunctionalEquationWitness(2, Fraction(0))))
@example((PowerLogSum.power(0), FunctionalEquationWitness(2, Fraction(0))))
# c = -1 across two groups; equal log powers whose coefficients differ in sign only
@example((parse_power_log("u^2 - u^-1"), FunctionalEquationWitness(-1, Fraction(1))))
@example((parse_power_log("u^2*log - log"), FunctionalEquationWitness(1, Fraction(2))))
# numerators and denominators past a machine word
@example((PowerLogSum.from_dict({(Fraction(10**30, 7), 0): Fraction(10**40, 3),
                                 (Fraction(-10**30, 7), 0): Fraction(10**40, 3)}),
          FunctionalEquationWitness(1, Fraction(0))))
def test_witness_holds_agrees_with_term_algebra(case):
    n, witness = case
    want = _term_algebra_witness_holds(n, witness)
    # a map caches one integer image on first use: check it cold, then warm,
    # then on an equal fresh map
    cold, fresh = PowerLogSum(n.terms), PowerLogSum(n.terms)
    shown = (hash(cold), repr(cold))
    first = (cold.value_at_one(), cold.to_records())
    assert witness_holds(cold, witness) == want
    assert witness_holds(cold, witness) == want
    assert witness_holds(fresh, witness) == want
    assert witness_holds(n, witness) == want
    assert (cold.value_at_one(), cold.to_records()) == first
    assert first == (sum([c for _, m, c in n.terms if m == 0], Fraction(0)),
                     [[lam.numerator, lam.denominator, m, c.numerator, c.denominator]
                      for lam, m, c in n.terms])
    assert cold == fresh == n and (hash(cold), repr(cold)) == shown == (hash(fresh), repr(fresh))
    if n.terms:  # detection reads the sign off the same image: omega is forced
        omega = n.terms[0][0] + n.degree
        signs = [c for c in (1, -1)
                 if _term_algebra_witness_holds(n, FunctionalEquationWitness(c, omega))]
        found = detect_functional_equation(cold)
        assert found == (FunctionalEquationWitness(signs[0], omega) if signs else None)


def _group_loop_witness_holds(n, witness) -> bool:
    """Reference: `witness_holds` before a map kept its verified witness,
    one walk over the integer groups per call."""
    c, e, f = witness.c, witness.omega.numerator, witness.omega.denominator
    if c not in (1, -1):
        return not n.terms
    groups = n._groups
    for (a1, d1, low), (a2, d2, high) in zip(groups[: (len(groups) + 1) // 2], reversed(groups)):
        if len(low) != len(high) or (a1 * d2 + a2 * d1) * f != e * d1 * d2:
            return False
        for (m1, n1, q1), (m2, n2, q2) in zip(low, high):
            if m1 != m2 or q1 != q2 or n1 != (-c if m1 % 2 else c) * n2:
                return False
    return True


@st.composite
def mirror_cases(draw):
    """A map and the witnesses checked on it in turn: the zero map, a
    single term (of odd log power, or any), a map that holds under
    (c, omega) by construction, or that one broken by one more term.  The
    witnesses come from (+-1 or 2, omega or the forced min + max, as a
    Fraction or an int, or off by 1/2), repeats allowed."""
    fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    c, omega = draw(st.sampled_from((1, -1, 2))), draw(fractions)
    shape = draw(st.sampled_from(("zero", "single", "holding", "broken")))
    if shape == "zero":
        n = PowerLogSum.zero()
    elif shape == "single":
        m = draw(st.sampled_from((1, 3)) | st.integers(0, 2))
        n = PowerLogSum.log_power(m, draw(st.integers(-3, 3).filter(bool)), draw(fractions))
    else:
        seed = draw(power_log_sums(max_terms=4))
        n = seed + seed.dual().shift_exponents(omega).scale(c)
        if shape == "broken":
            lam = draw(st.sampled_from([t[0] for t in n.terms]) | fractions if n.terms else fractions)
            n = n + PowerLogSum.log_power(draw(st.integers(0, 2)), draw(st.integers(-2, 2).filter(bool)), lam)
    centers = [omega, omega + Fraction(1, 2)]
    if n.terms:
        centers.append(n.terms[0][0] + n.degree)
    centers += [int(w) for w in centers if w.denominator == 1]
    pool = [FunctionalEquationWitness(s, w) for s in (1, -1, 2) for w in centers]
    return n, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@settings(max_examples=300)
@given(mirror_cases())
# a failing witness twice, then the holding one, then the failing one again
@example((parse_power_log("u^2 + u"), [FunctionalEquationWitness(-1, Fraction(3))] * 2
          + [FunctionalEquationWitness(1, 3), FunctionalEquationWitness(-1, Fraction(3))]))
# the holding witness first: its other sign and another center still fail
@example((parse_power_log("u^3 - 1"), [FunctionalEquationWitness(-1, Fraction(3)),
                                        FunctionalEquationWitness(1, Fraction(3)),
                                        FunctionalEquationWitness(-1, Fraction(5, 2))]))
# a single term of odd log power holds for c = -1 only; the zero map for any c
@example((PowerLogSum.log_power(1, 2, Fraction(1, 2)), [FunctionalEquationWitness(-1, 1),
                                                         FunctionalEquationWitness(1, 1)]))
@example((PowerLogSum.zero(), [FunctionalEquationWitness(2, 0), FunctionalEquationWitness(1, 0),
                               FunctionalEquationWitness(-1, 0)]))
# |c| != 1 after the holding witness on a nonzero map
@example((PowerLogSum.power(1), [FunctionalEquationWitness(1, 2), FunctionalEquationWitness(2, 2)]))
def test_a_kept_mirror_answers_as_the_group_loop(case):
    n, witnesses = case
    fresh = PowerLogSum(n.terms)
    shown, found = (hash(fresh), repr(fresh)), None
    for witness in witnesses:
        want = _group_loop_witness_holds(fresh, witness)
        assert witness_holds(fresh, witness) == want
        assert witness_holds(fresh, witness) == want  # and again, now from what the map keeps
        if fresh.terms:  # detection on the same map reads the same verdicts
            omega = fresh.terms[0][0] + fresh.degree
            signs = [c for c in (1, -1)
                     if _group_loop_witness_holds(fresh, FunctionalEquationWitness(c, omega))]
            found = detect_functional_equation(fresh)
            assert found == (FunctionalEquationWitness(signs[0], omega) if signs else None)
    assert fresh == n and (hash(fresh), repr(fresh)) == shown
    # a nonzero map keeps the one witness that holds for it, which detection finds
    kept = fresh.__dict__.get("_mirror")
    assert kept == (found and (found.c, found.omega.numerator, found.omega.denominator))


def test_product_builder_vanishes_at_one():
    for omegas in ([1], [1, 2, 3], [Fraction(1, 2), 2], [5] * 4):
        n = product_of_reciprocal_powers(omegas)
        assert n.value_at_one() == 0
    assert product_of_reciprocal_powers([]) == PowerLogSum.constant(1)


def test_records_round_trip():
    n = parse_power_log("2*u^{3/2} - u^-1*log + 1/2*log^2")
    assert from_records(to_records(n)) == n


def test_parse_examples():
    assert parse_power_log("1*u^2") == PowerLogSum.power(2)
    assert parse_power_log("u^4 - u^3 - u^2 + u") == PowerLogSum.from_dict(
        {(4, 0): 1, (3, 0): -1, (2, 0): -1, (1, 0): 1}
    )
    assert parse_power_log("3/2*u^{-1/2}") == PowerLogSum.power(Fraction(-1, 2), Fraction(3, 2))
    assert parse_power_log("log") == PowerLogSum.log_power()
    assert parse_power_log("u*log^2 - 1") == PowerLogSum.from_dict(
        {(1, 2): 1, (0, 0): -1}
    )


@pytest.mark.parametrize("bad", ["", "u^", "2**u", "log^-1", "u^a", "+", "u + -", "u*log^x"])
def test_parse_rejections(bad):
    with pytest.raises(ParseError):
        parse_power_log(bad)


@pytest.mark.parametrize(
    "bad",
    [
        [[1, 0, 0, 1, 1]],
        [[1, 1, -1, 1, 1]],
        [[1, 1, 0, 1, 0]],
        [["x", 1, 0, 1, 1]],
        [[1, 1, 0, 1.5, 1]],
        [[1, 1, 0, True, 1]],
        [[1, 1, 0, 1e400, 1]],
        ["11011"],
    ],
)
def test_record_rejections(bad):
    # counting functions and factored zetas share one record decoder
    for decode in (from_records, zeta_from_records):
        with pytest.raises(ParseError):
            decode(bad)


def test_degree_and_min_exponent():
    n = parse_power_log("u^3 + u^-2*log")
    assert n.degree == 3
    assert n.min_exponent == -2
    with pytest.raises(PreconditionError):
        _ = PowerLogSum.zero().degree
    with pytest.raises(PreconditionError, match="min exponent of the zero sum"):
        _ = PowerLogSum.zero().min_exponent


def test_str_is_readable():
    assert str(parse_power_log("u^4 - u^3 - u^2 + u")) == "u^4 - u^3 - u^2 + u"
    assert str(PowerLogSum.zero()) == "0"
