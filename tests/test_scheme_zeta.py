"""Global scheme zeta, Betti profiles and the global functional equation."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from f1zeta.errors import PreconditionError
from f1zeta.powerlog import FEReport, PowerLogSum
from f1zeta.scheme_zeta import (
    betti_profile,
    scheme_counting_function,
    zeta_of_scheme,
)
from f1zeta.schemes import (
    MonoidScheme,
    TorsionPoint,
    global_functional_equation,
    local_functional_equation,
    projective_space_model,
    smoothed_count,
    torsion_point_model,
    torus_model,
)
from f1zeta.weil import (
    limit_toward_one,
    smoothed_local_zeta,
)
from f1zeta.zetas import FactoredZeta, evaluate_zeta, reflect_zeta


@st.composite
def schemes(
    draw, max_points=6, max_rank=4, max_torsion=12, torsion_free=False, declared_dim=False
):
    n = draw(st.integers(1, max_points))
    pts = []
    for _ in range(n):
        rank = draw(st.integers(0, max_rank))
        torsion = () if torsion_free else tuple(
            draw(st.lists(st.integers(2, max_torsion), max_size=3))
        )
        pts.append(TorsionPoint(rank, torsion))
    dimension = draw(st.integers(0, max_rank + 2)) if declared_dim else None
    return MonoidScheme(tuple(pts), dimension=dimension)


@st.composite
def palindromic_schemes(draw, max_dim=5):
    """Disjoint unions of P^a x A^j (a + 2j = d), each times a torsion
    point: counting polynomials palindromic about d, which the declared
    dimension meets, misses by one, or leaves to the maximal rank."""
    d = draw(st.integers(0, max_dim))
    pts = []
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, d // 2))
        torsion = tuple(draw(st.lists(st.integers(2, 6), max_size=1)))
        for r in range(d - 2 * j + 1):  # P^a: C(a + 1, r + 1) points of rank r
            for i in range(j + 1):  # A^j: C(j, i) points of rank i
                count = math.comb(d - 2 * j + 1, r + 1) * math.comb(j, i)
                pts += [TorsionPoint(r + i, torsion)] * count
    dimension = draw(st.sampled_from([None, d, d + 1, max(d - 1, 0)]))
    return MonoidScheme(tuple(pts), dimension=dimension, smooth_projective=True)


def test_betti_examples():
    p1 = betti_profile(projective_space_model(1))
    assert p1.values == (1, 1) and global_functional_equation(projective_space_model(1)).chi == 2
    assert p1.warning is None

    p2 = betti_profile(projective_space_model(2))
    assert p2.values == (1, 1, 1) and global_functional_equation(projective_space_model(2)).chi == 3

    gm = betti_profile(torus_model())
    assert gm.values == (-1, 1)
    assert gm.warning is not None  # not asserted smooth projective


def test_zeta_examples():
    assert zeta_of_scheme(torus_model()) == FactoredZeta.from_dict(
        {(0, 0): -1, (1, 0): 1}
    )
    assert zeta_of_scheme(torsion_point_model([2])) == FactoredZeta.from_dict(
        {(0, 0): 2}
    )
    assert zeta_of_scheme(projective_space_model(1)) == FactoredZeta.from_dict(
        {(0, 0): 1, (1, 0): 1}
    )


def test_global_fe_examples():
    assert global_functional_equation(projective_space_model(1)).holds
    for n in (2, 3):
        report = global_functional_equation(projective_space_model(n))
        assert report.holds
        assert report.chi == n + 1

    lopsided = MonoidScheme(
        (TorsionPoint(0), TorsionPoint(0), TorsionPoint(0), TorsionPoint(1)),
        dimension=1,
        smooth_projective=True,
    )
    report = global_functional_equation(lopsided)
    assert not report.holds
    # counting polynomial is q + 2, so b_0 = 2 against b_2 = 1
    assert report.asymmetries == ((0, 2, 1),)


def test_global_fe_requires_assertion():
    with pytest.raises(PreconditionError):
        global_functional_equation(torus_model())


@settings(max_examples=80)
@given(schemes())
def test_zeta_exponents_are_betti_numbers(scheme):
    profile = betti_profile(scheme)
    z = zeta_of_scheme(scheme)
    for r in range(scheme.dim + 1):
        assert z.exponent(r) == profile.values[r]
    # nothing outside 0..max_rank
    assert all(0 <= lam <= scheme.max_rank for lam, _, _ in z.factors)


@settings(max_examples=80)
@given(schemes())
def test_pole_order_agrees_with_euler_characteristic(scheme):
    # two independent displays of the same quantity
    assert scheme.counting.value_at_one() == sum(betti_profile(scheme).values)


@settings(max_examples=60)
@given(schemes(torsion_free=True))
def test_torsion_free_reduction_to_counting_polynomial(scheme):
    # expand sum_x (q-1)^R(x) = sum_j a_j q^j by hand and build the
    # counting-polynomial zeta prod (s-j)^(-a_j)
    coeffs: dict[int, int] = {}
    for pt in scheme.points:
        for j in range(pt.rank + 1):
            sign = -1 if (pt.rank - j) % 2 else 1
            coeffs[j] = coeffs.get(j, 0) + sign * math.comb(pt.rank, j)
    expected = FactoredZeta.from_dict({(j, 0): a for j, a in coeffs.items()})
    assert zeta_of_scheme(scheme) == expected


@settings(max_examples=40)
@given(schemes(max_points=4, max_rank=3, max_torsion=8), st.integers(2, 9))
def test_counting_function_matches_smoothed_count(scheme, q):
    n = scheme_counting_function(scheme)
    total = Fraction(0)
    for lam, m, c in n.terms:
        assert m == 0 and lam.denominator == 1
        total += c * Fraction(q) ** lam.numerator
    assert total == smoothed_count(scheme, q)


@pytest.mark.parametrize(
    "scheme,s",
    [(torsion_point_model([2]), 2 + 0j), (torus_model(), 3 + 1j)],
)
def test_limit_converges_to_zeta(scheme, s):
    value = limit_toward_one(scheme, s, [1 + 1e-6])[0]
    target = evaluate_zeta(zeta_of_scheme(scheme), s)
    assert abs(value - target) <= 1e-4


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def _per_point_reference(scheme):
    """Each torsion-smoothed quantity summed point by point from its own formula."""
    zeta_exps: dict[int, int] = {}
    local_exps: dict[int, int] = {}
    pole = 0
    counting = PowerLogSum.zero()
    u_minus_1 = PowerLogSum.power(1) - PowerLogSum.constant(1)
    for pt in scheme.points:
        t_card = pt.torsion_cardinality
        for r in range(pt.rank + 1):
            e_r = t_card * math.comb(pt.rank, r) * _sign(pt.rank - r - 1)
            zeta_exps[r] = zeta_exps.get(r, 0) - e_r
            local_exps[r] = local_exps.get(r, 0) + e_r
            pole += t_card * math.comb(pt.rank, r) * _sign(r - pt.rank)
        term = PowerLogSum.constant(t_card)
        for _ in range(pt.rank):
            term = term * u_minus_1
        counting = counting + term
    betti = tuple(
        sum(
            _sign(l + pt.rank) * math.comb(pt.rank, l) * pt.torsion_cardinality
            for pt in scheme.points
        )
        for l in range(max(scheme.dim, scheme.max_rank) + 1)  # padded to d, never cut
    )
    return zeta_exps, betti, counting, local_exps, pole


@settings(max_examples=80, deadline=None)
@given(schemes(declared_dim=True))
@example(MonoidScheme((TorsionPoint(3, (2, 5)), TorsionPoint(1)), dimension=6))
# ranks above d: the Betti values are (7, -20, 22, -12, 3)
@example(MonoidScheme((TorsionPoint(4, (3,)), TorsionPoint(2, (2, 2))), dimension=1))
def test_derived_quantities_match_per_point_formulas(scheme):
    zeta_exps, betti, counting, local_exps, pole = _per_point_reference(scheme)
    assert zeta_of_scheme(scheme) == FactoredZeta.from_dict(
        {(r, 0): e for r, e in zeta_exps.items()}
    )
    assert betti_profile(scheme).values == betti
    assert scheme_counting_function(scheme) == counting
    expected_factors = tuple((r, e) for r, e in sorted(local_exps.items()) if e != 0)
    assert smoothed_local_zeta(scheme, 3).factors == expected_factors
    assert scheme.counting.value_at_one() == pole


def test_counting_coefficients_examples():
    # P^2: 1 + q + q^2
    assert projective_space_model(2).coefficients == (1, 1, 1)
    # T = 6 at rank 1 plus a rank-0 point: 6(q - 1) + 1 = 6q - 5
    scheme = MonoidScheme((TorsionPoint(1, (2, 3)), TorsionPoint(0)))
    assert scheme.coefficients == (-5, 6)
    # zero coefficients below the top stay in the vector: (q-1)^2 + 2(q-1) = q^2 - 1
    scheme = MonoidScheme((TorsionPoint(2), TorsionPoint(1), TorsionPoint(1)))
    assert scheme.coefficients == (-1, 0, 1)


def test_projective_space_p16():
    scheme = projective_space_model(16)
    assert len(scheme.points) == 131071
    assert scheme.coefficients == (1,) * 17
    z = zeta_of_scheme(scheme)
    assert tuple(z.exponent(r) for r in range(17)) == (1,) * 17
    assert len(z.factors) == 17
    assert betti_profile(scheme).values == (1,) * 17
    assert scheme.counting.value_at_one() == 17


def _reflected_zeta_holds(scheme) -> bool:
    """The factored check the global FE once made: the zeta reflected
    about the declared dimension is the zeta itself, with sign (-1)^chi."""
    z = zeta_of_scheme(scheme)
    sign, reflected = reflect_zeta(z, scheme.dim)
    return reflected == z and sign == _sign(scheme.counting.value_at_one())


def _exponent_mismatches(scheme) -> tuple:
    """The local FE's former exponent loop: (r, e_r, e_{d-r}) for r <= d - r."""
    exps = smoothed_local_zeta(scheme, 2).exponents()
    d = scheme.dim
    return tuple(
        (r, exps.get(r, 0), exps.get(d - r, 0))
        for r in sorted(set(exps) | {d - r for r in exps})
        if exps.get(r, 0) != exps.get(d - r, 0) and r <= d - r
    )


# smooth-projective schemes with declared dimensions below, at and above
# the maximal rank
SMOOTH_PROJECTIVE = st.one_of(
    schemes(declared_dim=True).map(
        lambda x: MonoidScheme(x.points, x.dimension, smooth_projective=True, name=x.name)
    ),
    palindromic_schemes(),
)


@settings(max_examples=300, deadline=None)
@given(SMOOTH_PROJECTIVE)
@example(MonoidScheme((TorsionPoint(0), TorsionPoint(2)), dimension=1, smooth_projective=True))
@example(projective_space_model(3))
def test_integer_fe_checks_match_the_reflected_zeta(scheme):
    # the integer palindrome checks against the factored zeta forms they replaced,
    # with declared dimensions below, at and above the maximal rank
    report = global_functional_equation(scheme)
    assert report.holds == _reflected_zeta_holds(scheme)
    assert report.holds == (scheme.max_rank <= scheme.dim and not report.asymmetries)
    local = local_functional_equation(scheme, 2)
    assert tuple([(k, -a, -b) for k, a, b in local.asymmetries]) == _exponent_mismatches(scheme)


@settings(max_examples=300, deadline=None)
@given(SMOOTH_PROJECTIVE)
@example(MonoidScheme((TorsionPoint(0), TorsionPoint(1), TorsionPoint(1), TorsionPoint(2)),
                      dimension=1, smooth_projective=True))  # a rank above d: a = (0, 0, 1)
@example(MonoidScheme((TorsionPoint(0),), dimension=1, smooth_projective=True))  # d chi = 1
@example(projective_space_model(3))  # d at the maximal rank
def test_local_check_is_the_global_palindrome(scheme):
    # the local check reads p only to validate it: its report is the global
    # one field by field, and its derived fields are the direct integer checks
    local, report = local_functional_equation(scheme, 2), global_functional_equation(scheme)
    for field in FEReport._fields:
        assert getattr(local, field) == getattr(report, field), field
    a, d = scheme.coefficients, scheme.dim
    chi = sum(a)
    # the declared dimension pads the coefficients and never cuts them,
    # below, at and above the maximal rank alike
    profile = betti_profile(scheme)
    assert profile.values == a + (0,) * max(0, d + 1 - len(a))
    assert local.chi == chi == scheme.counting.value_at_one() == sum(profile.values)
    assert local.exponent_ok == (2 * sum([r * c for r, c in enumerate(a)]) == d * chi)
    assert local.squared_form == (d * chi % 2 == 1)
