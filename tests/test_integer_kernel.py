"""The integer kernel against the generic Fraction algebra it replaced.

Each oracle below is the Fraction computation that counting polynomials,
reciprocal products and local series went through before they were
expanded in int: products of PowerLogSums, a Fraction Newton recurrence
over per-point counts, and truncated Fraction products of binomial
series.  The kernel must agree with them exactly.
"""

import math
import sys
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
import hypothesis.strategies as st

from f1zeta import weil
from f1zeta.errors import PreconditionError
from f1zeta.groups import (
    ReductiveGroupData,
    gl_group_data,
    group_counting,
    torus_group_data,
    verify_family_identities,
)
from f1zeta.powerlog import (
    PowerLogSum,
    _asymmetries,
    _binomial_row,
    _check_printable,
    _packed_product,
    _reciprocal_power_coefficients,
    product_of_reciprocal_powers,
)
from f1zeta.schemes import MonoidScheme, TorsionPoint, exact_count, projective_space_model
from f1zeta.weil import (
    MAX_SERIES_ORDER,
    LocalZetaFactors,
    local_zeta_series,
    smoothed_local_zeta,
)


# -- Fraction oracles -------------------------------------------------------


def _oracle_reciprocal_product(omegas):
    out = PowerLogSum.constant(1)
    for w in omegas:
        out = out * (PowerLogSum.constant(1) - PowerLogSum.power(-Fraction(w)))
    return out


def _oracle_group_counting(group: ReductiveGroupData) -> PowerLogSum:
    r = group.rank
    torus = PowerLogSum.from_dict(
        {(k, 0): math.comb(r, k) * (-1) ** (r - k) for k in range(r + 1)}
    )
    flag = PowerLogSum.from_dict({(l, 0): b for l, b in enumerate(group.flag_betti)})
    return torus * PowerLogSum.power(group.positive_roots) * flag


def _oracle_count(scheme: MonoidScheme, q: int) -> int:
    # one walk over the points, no point types
    total = 0
    for pt in scheme.points:
        term = (q - 1) ** pt.rank
        for t in pt.torsion_orders:
            term *= math.gcd(t, q - 1)
        total += term
    return total


def _oracle_local_series(scheme: MonoidScheme, p: int, order: int) -> tuple:
    a = [Fraction(0)] + [Fraction(_oracle_count(scheme, p**n), n) for n in range(1, order + 1)]
    e = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        e[n] = sum((k * a[k] * e[n - k] for k in range(1, n + 1)), Fraction(0)) / n
    return tuple(e)


def _oracle_factored_series(base: int, factors, order: int) -> tuple:
    out = [Fraction(1)] + [Fraction(0)] * order
    for r, e in factors:
        fac, c = [Fraction(1)], Fraction(1)
        for n in range(1, order + 1):
            c *= Fraction(e - n + 1, n)
            fac.append(c * (-(base**r)) ** n)
        out = [sum((out[i] * fac[n - i] for i in range(n + 1)), Fraction(0))
               for n in range(order + 1)]
    return tuple(out)


# -- strategies ---------------------------------------------------------------


omegas = st.lists(
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)), max_size=7
)


@st.composite
def palindromic_groups(draw):
    r = draw(st.integers(1, 5))
    p = draw(st.integers(0, 6))
    half = draw(st.lists(st.integers(0, 9), min_size=p // 2 + 1, max_size=p // 2 + 1))
    flag = tuple(half + half[: (p + 1) // 2][::-1])
    return ReductiveGroupData(r, r + 2 * p, flag)


@st.composite
def torsion_schemes(draw):
    pts = draw(st.lists(
        st.builds(TorsionPoint, st.integers(0, 3),
                  st.lists(st.integers(2, 12), max_size=3).map(tuple)),
        min_size=1, max_size=6,
    ))
    return MonoidScheme(tuple(pts))


# -- counting polynomials -----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(omegas)
def test_reciprocal_product_matches_fraction_oracle(ws):
    assert product_of_reciprocal_powers(ws) == _oracle_reciprocal_product(ws)


@pytest.mark.parametrize("ws", [
    [], [1], [-1], [1, 1, 1], [-2, -2], [Fraction(1, 2), -3, Fraction(1, 2), Fraction(-2, 3)],
    [0], [2, 0, -1], list(range(1, 15)), [1] * 40,
])
def test_reciprocal_product_examples(ws):
    assert product_of_reciprocal_powers(ws) == _oracle_reciprocal_product(ws)


@settings(max_examples=100, deadline=None)
@given(palindromic_groups())
def test_group_counting_matches_fraction_oracle(group):
    assert group_counting(group) == _oracle_group_counting(group)


def test_binomial_row_matches_math_comb():
    for r in range(61):
        assert _binomial_row(r) == [(-1) ** (r - k) * math.comb(r, k) for k in range(r + 1)]


# -- the packed product against naive double loops ------------------------------


def _naive_product(base, factors):
    """base(X) prod (X^k - 1)^e for e >= 0, a double loop over the
    coefficients of the product so far and the two terms of each factor."""
    out = list(base)
    for k, e in factors.items():
        for _ in range(e):
            step = [0] * (len(out) + k)
            for i, c in enumerate(out):
                for j, f in ((k, 1), (0, -1)):
                    step[i + j] += f * c
            out = step
    return out


_EDGES = [2**63 - 1, 2**63, -(2**63) + 1, -(2**63), 2**64 + 5, -(2**71)]


@st.composite
def packed_cases(draw):
    """(core, multipliers, divisors): the kernel gets core times the
    divisors as its base and the exponent differences as its factors."""
    width = draw(st.integers(1, 10))  # bytes of the drawn coefficients
    if draw(st.integers(0, 3)):
        coeff = st.integers(-(2 ** (8 * width - 1)), 2 ** (8 * width - 1))
    else:
        coeff = st.sampled_from(_EDGES)
    core = draw(st.lists(coeff, min_size=1, max_size=8))
    exps = st.dictionaries(st.integers(1, 6), st.integers(0, 3), max_size=3)
    return core, draw(exps), draw(exps)


@settings(max_examples=200, deadline=None)
@given(packed_cases())
@example(([2**63 - 1, -(2**63)], {1: 1}, {}))  # one digit across 2^63
@example(([1, 0, 5], {2: 3}, {2: 3}))  # exponent 0: the base back
def test_packed_product_matches_naive_double_loops(case):
    core, mult, divs = case
    base = _naive_product(core, divs)
    want = _naive_product(core, mult)
    factors = {k: mult.get(k, 0) - divs.get(k, 0) for k in mult.keys() | divs.keys()}
    bound = max(map(abs, want))
    nb = (max([bound] + [abs(c) for c in base]).bit_length() + 8) // 8
    nb = 1 << (nb - 1).bit_length() if nb < 8 else nb  # the kernel's digit width
    event(f"{nb} bytes per digit" if nb <= 9 else "more than 9 bytes per digit")
    assert _packed_product(base, factors, bound) == want
    assert _packed_product(base, factors, 2 * bound + 1) == want


def _naive_reciprocal(omegas):
    """(coeffs, top, den) of prod (1 - v^k), k = den omega, from a dict of
    Laurent terms in v with one double loop per factor."""
    den = math.lcm(1, *(Fraction(w).denominator for w in omegas))
    poly = {0: 1}
    for w in omegas:
        k = int(Fraction(w) * den)
        out = {}
        for e, c in poly.items():
            for shift, f in ((0, 1), (k, -1)):
                out[e + shift] = out.get(e + shift, 0) + f * c
        poly = out
    if not any(poly.values()):
        return [], 0, 1
    lo, hi = min(e for e, c in poly.items() if c), max(e for e, c in poly.items() if c)
    return [poly.get(e, 0) for e in range(lo, hi + 1)], hi, den


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]),
                max_size=80))
def test_reciprocal_coefficients_match_naive_double_loops(ws):
    # repeated omegas of both signs; up to 2^80 as the bound, 11 bytes per digit
    assert _reciprocal_power_coefficients(ws) == _naive_reciprocal(ws)


def test_packed_product_examples():
    # zeros inside the base are carried, and division by X - 1 takes them back
    assert _packed_product([4, 0, 5], {1: 1}, 5) == [-4, 4, -5, 5]
    assert _packed_product([-4, 4, -5, 5], {1: -1}, 5) == [4, 0, 5]
    # (1 - X^3)(1 + X + X^2 + X^3 + X^4)
    assert _packed_product([-1] * 5, {3: 1}, 1) == [1, 1, 1, 0, 0, -1, -1, -1]
    assert _packed_product([], {1: 1}, 1) == []


def test_gl_flag_betti_are_the_mahonian_numbers():
    # the coefficients of prod_{i <= r} [i]_q count permutations by inversions
    for r in range(1, 8):
        counts = [0] * (r * (r - 1) // 2 + 1)
        for perm in permutations(range(r)):
            counts[sum(1 for i, j in combinations(perm, 2) if i > j)] += 1
        assert gl_group_data(r).flag_betti == tuple(counts)


def test_gm_power_at_rank_500_is_the_binomial_row():
    row = _binomial_row(500)
    assert torus_group_data(500).coefficients == tuple(row)
    assert _reciprocal_power_coefficients([1] * 500) == (row, 500, 1)
    assert verify_family_identities(500, "gm_power").holds


def test_asymmetries_examples():
    assert _asymmetries([1, 2, 1], 2) == ()
    assert _asymmetries([-1, 0, 1], 2, -1) == ()
    assert _asymmetries([-1, 0, 1], 2) == ((0, -1, 1),)
    assert _asymmetries([2, 1], 1) == ((0, 2, 1),)
    # entries outside the vector read as zero, on either side of it
    assert _asymmetries([0, 1, 1], 3) == ()
    assert _asymmetries([1], 2) == ((0, 1, 0),)
    assert _asymmetries([0, 0, 1, 2], 1) == ((-2, 0, 2), (-1, 0, 1))


@st.composite
def _asymmetry_inputs(draw):
    """(a, center, sign): an int vector of length 0..12, half of them forced to
    palindromes under a mirror sign drawn apart from `sign`, and a center
    from len - 3 to len + 2."""
    a = draw(st.lists(st.integers(-3, 3), max_size=12))
    if draw(st.booleans()):
        mirror = draw(st.sampled_from((1, -1)))
        half = a[: len(a) // 2]
        middle = a[len(a) // 2 : len(a) - len(half)] if mirror == 1 else [0] * (len(a) % 2)
        a = half + middle + [mirror * v for v in reversed(half)]
    center = draw(st.integers(len(a) - 3, len(a) + 2))
    return a, center, draw(st.sampled_from((1, -1)))


@settings(max_examples=300)
@given(_asymmetry_inputs())
@example(([1, 0, 1], 2, -1))  # a palindrome that fails under the sign -1
def test_asymmetries_match_a_reference_enumeration(case):
    a, center, sign = case
    at = dict(enumerate(a))
    # every k <= center - k in a window wider than any index that can differ
    reference = tuple(
        (k, at.get(k, 0), at.get(center - k, 0)) for k in range(-20, 21)
        if 2 * k <= center and at.get(k, 0) != sign * at.get(center - k, 0))
    assert _asymmetries(a, center, sign) == _asymmetries(tuple(a), center, sign) == reference


def test_from_int_coefficients_is_canonical():
    n =PowerLogSum.from_int_coefficients([3, 0, -1, 0, 2], Fraction(-1, 2), Fraction(2, 3))
    assert n == PowerLogSum.from_dict(
        {(Fraction(-1, 2), 0): 3, (Fraction(5, 6), 0): -1, (Fraction(13, 6), 0): 2}
    )
    assert PowerLogSum.from_int_coefficients([0, 0]).is_zero
    with pytest.raises(PreconditionError):
        PowerLogSum.from_int_coefficients([1, 1], 0, 0)


# -- term-map operations without sorting ----------------------------------------


@settings(max_examples=150)
@given(st.dictionaries(
    st.tuples(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)), st.integers(0, 3)),
    st.integers(-4, 4).filter(bool).map(Fraction), max_size=10,
))
def test_dual_support_and_coefficient_match_sorted_forms(d):
    n = PowerLogSum.from_dict(d)
    assert n.dual() == PowerLogSum._canonical(
        {(-lam, m): (-1) ** m * c for (lam, m), c in d.items()}
    )
    assert n.dual().dual() == n
    assert n.support() == sorted({lam for lam, _ in d})
    for (lam, m), c in d.items():
        assert n.coefficient(lam, m) == c
        assert n.coefficient(lam, m + 7) == 0
    assert n.coefficient(Fraction(99), 0) == 0


# -- local series -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(torsion_schemes(), st.sampled_from([2, 3, 4, 6, 7]), st.integers(1, 14))
def test_local_series_matches_fraction_oracle(scheme, p, order):
    series = local_zeta_series(scheme, p, order)
    assert series.coefficients == _oracle_local_series(scheme, p, order)
    assert all(type(c) is int for c in series.coefficients)
    assert exact_count(scheme, p**order) == _oracle_count(scheme, p**order)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 4).filter(bool)),
             max_size=4, unique_by=lambda f: f[0]),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 12),
)
@example([(0, 4), (1, -3), (3, 3)], 3, 10)  # sum |e| = order: the passes
@example([(0, 4), (1, -3), (3, 3)], 3, 9)  # sum |e| = order + 1: the Newton recurrence
def test_factored_series_matches_fraction_oracle(factors, base, order):
    z = LocalZetaFactors(base, tuple(factors))
    series = z.series(order)
    assert series.coefficients == _oracle_factored_series(base, factors, order)
    assert all(type(c) is int for c in series.coefficients)


def test_point_types_collapse_projective_space():
    scheme = projective_space_model(8)
    assert len(scheme.points) == 511
    assert sorted((r, k) for r, types, _ in scheme.count_profile[1] for k, _ in types) == [
        (r, math.comb(9, r + 1)) for r in range(9)
    ]
    for p in (2, 3, 6):
        assert local_zeta_series(scheme, p, 6).coefficients == _oracle_local_series(scheme, p, 6)
        assert smoothed_local_zeta(scheme, p).series(6) == local_zeta_series(scheme, p, 6)


def test_non_integral_step_raises_instead_of_rounding():
    # N_1 = 1, N_2 = 0 is no Dold sequence: 2 e_2 = N_1 e_1 + N_2 e_0 = 1
    with pytest.raises(ArithmeticError, match="e_2 .* not an integer"):
        weil._newton_series([1, 0, 0, 0], "local zeta coefficient e_{} at p = 3")


def _newton_over_counts(scheme: MonoidScheme, p: int, order: int) -> tuple:
    counts = [exact_count(scheme, p**n) for n in range(1, order + 1)]
    return tuple(weil._newton_series(counts, "e_{}"))


@st.composite
def series_cases(draw):
    p = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 11]))
    torsion = st.one_of(st.integers(2, 30), st.integers(1, 6).map(lambda k: k * p),
                        st.integers(10**6, 10**7))
    pts = draw(st.lists(st.builds(TorsionPoint, st.integers(0, 4),
                                  st.lists(torsion, max_size=2).map(tuple)),
                        min_size=1, max_size=3))
    return MonoidScheme(tuple(pts)), p, draw(st.integers(1, 60))


@settings(max_examples=150, deadline=None)
@given(series_cases())
@example((MonoidScheme((TorsionPoint(1, (4, 6)), TorsionPoint(0, (9,)))), 5, 60))  # sum |m| = 31
@example((MonoidScheme((TorsionPoint(4, (30,)),)), 2, 60))  # sum |m| = 80
@example((MonoidScheme((TorsionPoint(0, (1000003,)),)), 7, 60))  # sum |m| = 1
def test_series_sides_of_the_switch_match_newton_over_the_counts(case):
    scheme, p, order = case
    passes = sum(map(abs, weil._orbit_exponents(scheme, p, order).values())) <= order
    event("strided passes" if passes else "Newton over the power sums")
    assert local_zeta_series(scheme, p, order).coefficients == _newton_over_counts(scheme, p, order)


def test_the_switch_takes_the_passes_up_to_the_sum_of_the_exponents(monkeypatch):
    # sum |m| = 12: m_(i,1) = -2, 2 (the rank-1 point and the fixed point of
    # Z/3 x Z/5), m_(i,2) = -1, 1 and m_(i,4) = -3, 3 under doubling
    scheme = MonoidScheme((TorsionPoint(1), TorsionPoint(1, (3, 5))))
    assert weil._orbit_exponents(scheme, 2, 12) == {
        (0, 1): -2, (1, 1): 2, (0, 2): -1, (1, 2): 1, (0, 4): -3, (1, 4): 3}
    want = _newton_over_counts(scheme, 2, 12)
    calls = []
    monkeypatch.setattr(weil, "_newton_series",
                        lambda counts, what, real=weil._newton_series: calls.append(len(counts))
                        or real(counts, what))
    assert local_zeta_series(scheme, 2, 12).coefficients == want
    assert calls == []
    assert local_zeta_series(scheme, 2, 11).coefficients == want[:12]
    assert calls == [11]


def test_orbit_product_at_a_large_order_matches_newton_over_the_counts():
    scheme, p = projective_space_model(6), 5
    assert weil._orbit_exponents(scheme, p, 300) == {(i, 1): 1 for i in range(7)}
    assert local_zeta_series(scheme, p, 300).coefficients == _newton_over_counts(scheme, p, 300)


def test_the_orbit_row_stops_at_its_period_when_p_divides_t(monkeypatch):
    # gcd(12, 2^h - 1) = gcd(3, 2^h - 1): 2^h mod 3 is back at 1 at h = 2,
    # while 2^h mod 12 cycles 4, 8 and never is
    scheme = MonoidScheme((TorsionPoint(1, (12,)), TorsionPoint(0, (12, 8))))
    assert local_zeta_series(scheme, 2, 40).coefficients == _newton_over_counts(scheme, 2, 40)
    gcds = []
    monkeypatch.setattr(weil, "math", SimpleNamespace(
        gcd=lambda a, b: gcds.append(b) or math.gcd(a, b)))
    assert weil._gcd_row(12, 2, 40) == [1, 3] * 20
    assert len(gcds) == 2
    assert weil._gcd_row(8, 2, 40) == [1] * 40  # t' = 1: one residue
    assert len(gcds) == 3


def test_a_torsion_point_of_long_period_adds_one_factor():
    # a rank-0 point of torsion 1000003 is fixed by x -> 7x and by nothing
    # else up to order 500, so it multiplies P10's series by 1 / (1 - T)
    p10 = projective_space_model(10)
    scheme = MonoidScheme(p10.points + (TorsionPoint(0, (1000003,)),))
    assert weil._orbit_exponents(scheme, 7, 500) == {(0, 1): 2, **{(i, 1): 1 for i in range(1, 11)}}
    want = tuple(accumulate(local_zeta_series(p10, 7, 500).coefficients))
    assert local_zeta_series(scheme, 7, 500).coefficients == want


@pytest.mark.parametrize("scheme, p, order", [
    (MonoidScheme((TorsionPoint(4, (30,)),)), 2, 60),  # sum |m| = 80: Newton on the power sums
    (MonoidScheme((TorsionPoint(1, (4, 6)), TorsionPoint(0, (9,)))), 5, 60),  # 31: the passes
])
def test_the_local_series_counts_points_once(monkeypatch, scheme, p, order):
    # only the digit precheck on e_order reads a count
    want = _newton_over_counts(scheme, p, order)
    calls = []
    monkeypatch.setattr(weil, "exact_count", lambda s, q, real=exact_count: calls.append(q) or real(s, q))
    assert local_zeta_series(scheme, p, order).coefficients == want
    assert calls == [p**order]


def test_series_order_cap():
    scheme = projective_space_model(1)
    assert local_zeta_series(scheme, 2, MAX_SERIES_ORDER).order == MAX_SERIES_ORDER
    with pytest.raises(PreconditionError, match="at most"):
        local_zeta_series(scheme, 2, MAX_SERIES_ORDER + 1)
    with pytest.raises(PreconditionError, match="at most"):
        smoothed_local_zeta(scheme, 2).series(MAX_SERIES_ORDER + 1)


# -- integers too long to print ----------------------------------------------


@pytest.fixture()
def digit_limit():
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def test_check_printable_is_exact_at_the_digit_limit(digit_limit):
    digit_limit(700)
    for value in (10**700 - 1, -(10**700 - 1), 2**2100, 0):
        assert _check_printable(value, "x") == value
        str(value)
    for value in (10**700, -(10**700), 2**2400):
        with pytest.raises(PreconditionError, match="x 7 has more than 700 decimal digits"):
            _check_printable(value, "x {}", 7)
        with pytest.raises(ValueError):
            str(value)
    digit_limit(0)  # no limit
    assert _check_printable(10**5000, "x") == 10**5000


def test_series_stop_at_the_first_coefficient_too_long_to_print(digit_limit):
    # for G_m at p = 10^9, e_n = p^n - p^(n-1) has 9n digits and
    # N_72 // 72 has 647: at a limit of 647 digits the bound checked before
    # the expansion passes, and the expansion itself stops at e_72
    torus, p = TorsionPoint(1), 10**9
    scheme = MonoidScheme((torus,))
    assert len(str(exact_count(scheme, p**72) // 72)) == 647
    digit_limit(647)
    assert local_zeta_series(scheme, p, 71).coefficients[71] == p**71 - p**70
    with pytest.raises(PreconditionError, match="e_72 at p = 1000000000 has more than 647"):
        local_zeta_series(scheme, p, 72)
    assert smoothed_local_zeta(scheme, p).series(71) == local_zeta_series(scheme, p, 71)
    with pytest.raises(PreconditionError, match="coefficient 72 .* more than 647"):
        smoothed_local_zeta(scheme, p).series(72)
    # e_72 >= N_72 / 72 has more than 646 digits before any step runs
    digit_limit(646)
    with pytest.raises(PreconditionError, match="e_72 at p = 1000000000 has more than 646"):
        local_zeta_series(scheme, p, 72)


def test_orbit_product_stops_at_the_first_coefficient_too_long_to_print(digit_limit):
    # one rank-1 point of torsion 3 at p = 10^9 + 1 = 2 mod 3 has orbits of
    # lengths 1 and 2 and sum |m| = 4 <= 72; N_72 // 72 has 647 digits, e_71 641
    # and e_72 650, so at a limit of 647 the strided passes run and stop at e_72
    scheme, p = MonoidScheme((TorsionPoint(1, (3,)),)), 10**9 + 1
    assert weil._orbit_exponents(scheme, p, 72) == {(0, 1): -1, (1, 1): 1, (0, 2): -1, (1, 2): 1}
    want = _newton_over_counts(scheme, p, 71)
    assert len(str(exact_count(scheme, p**72) // 72)) == 647 and len(str(want[71])) == 641
    digit_limit(647)
    assert local_zeta_series(scheme, p, 71).coefficients == want
    with pytest.raises(PreconditionError, match="e_72 at p = 1000000001 has more than 647"):
        local_zeta_series(scheme, p, 72)
