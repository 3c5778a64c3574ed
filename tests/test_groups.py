"""Reductive-group counting polynomials and their functional equations."""

import math
import re
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from f1zeta import groups
from f1zeta.errors import ParseError, PreconditionError
from f1zeta.groups import (
    MAX_COUNTING_DEGREE,
    FamilyIdentityReport,
    ReductiveGroupData,
    gl_group_data,
    group_counting,
    group_from_degrees,
    group_from_dict,
    group_from_name,
    group_functional_equation,
    torus_group_data,
    verify_family_identities,
    _CATALOG,
)
from f1zeta.powerlog import (
    FunctionalEquationWitness,
    PowerLogSum,
    _shown,
    detect_functional_equation,
    parse_power_log,
    product_of_reciprocal_powers,
)
from f1zeta.schemes import f1_point, torus_model
from f1zeta.zetas import pretty_zeta, reflect_zeta, zeta_of


def _eval_exact(n: PowerLogSum, q: Fraction) -> Fraction:
    total = Fraction(0)
    for lam, m, c in n.terms:
        assert m == 0 and lam.denominator == 1
        total += c * q ** lam.numerator
    return total


@st.composite
def palindromic_groups(draw):
    r = draw(st.integers(1, 4))
    p = draw(st.integers(0, 4))
    half = draw(st.lists(st.integers(0, 5), min_size=(p + 2) // 2, max_size=(p + 2) // 2))
    betti = half + half[::-1]
    betti = betti[: p + 1] if len(betti) > p + 1 else betti
    # rebuild a palindrome of exact length p + 1
    betti = [half[min(i, p - i)] for i in range(p + 1)]
    return ReductiveGroupData(r, r + 2 * p, tuple(betti))


def test_group_counting_examples():
    gm = torus_group_data(1)
    assert group_counting(gm) == parse_power_log("u - 1")

    gl2 = gl_group_data(2)
    n2 = group_counting(gl2)
    assert n2 == parse_power_log("u^4 - u^3 - u^2 + u")
    # cross-check against the closed product (q^2-1)(q^2-q)
    for q in (Fraction(2), Fraction(3), Fraction(7, 2)):
        assert _eval_exact(n2, q) == (q**2 - 1) * (q**2 - q)

    sl2 = group_from_name("SL2")
    assert group_counting(sl2) == parse_power_log("u^3 - u")


def test_gl_group_data_structure():
    g1 = gl_group_data(1)
    assert (g1.rank, g1.dimension, g1.positive_roots) == (1, 1, 0)
    assert group_counting(g1) == parse_power_log("u - 1")

    g3 = gl_group_data(3)
    assert g3.flag_betti == (1, 2, 2, 1)
    n3 = group_counting(g3)
    for q in (Fraction(2), Fraction(5)):
        assert _eval_exact(n3, q) == (q**3 - 1) * (q**3 - q) * (q**3 - q**2)


@pytest.mark.parametrize("r", range(1, 7))
def test_gl_counting_matches_reciprocal_product(r):
    n = group_counting(gl_group_data(r))
    expected = product_of_reciprocal_powers(range(1, r + 1)).shift_exponents(r * r)
    assert n == expected


def test_group_fe_examples():
    for r in range(1, 5):
        report = group_functional_equation(torus_group_data(r))
        assert report.holds
        assert report.center == r
        assert report.sign == (-1) ** r
        assert report.chi == 0

    gl2 = group_functional_equation(gl_group_data(2))
    assert gl2.holds and gl2.center == 5 and gl2.sign == 1
    assert pretty_zeta(zeta_of(gl_group_data(2).counting)) == "(s-3)(s-2)/((s-4)(s-1))"

    sl2 = group_functional_equation(group_from_name("SL2"))
    assert sl2.holds and sl2.center == 4 and sl2.sign == -1
    # N(1/q) = -q^-4 N(q) for N = q^3 - q, by exact evaluation
    n = group_counting(group_from_name("SL2"))
    for q in (Fraction(2), Fraction(7, 3)):
        assert _eval_exact(n, 1 / q) == -(q**-4) * _eval_exact(n, q)


def test_group_fe_rejects_broken_palindrome():
    # palindromic Betti numbers provably force the functional equation,
    # so the only failure mode for group data is a palindrome violation
    broken = ReductiveGroupData(1, 5, (2, 0, 1))
    with pytest.raises(PreconditionError):
        group_functional_equation(broken)


def _fraction_group_fe(group):
    """The group FE as the Fraction checks once made it: the detected
    witness must be ((-1)^r, d + p), and the zeta reflected about d + p
    must be zeta^((-1)^r) with the sign (-1)^N(1)."""
    n = group_counting(group)
    center = Fraction(group.dimension + group.positive_roots)
    sign = (-1) ** group.rank
    witness = detect_functional_equation(n)
    sign_of_reflection, reflected = reflect_zeta(zeta_of(n), center)
    holds = (
        witness == FunctionalEquationWitness(sign, center)
        and reflected == zeta_of(n).scale(sign)
        and sign_of_reflection == (-1) ** (n.value_at_one().numerator % 2)
    )
    return holds, witness


@settings(max_examples=60)
@given(palindromic_groups())
def test_group_fe_matches_the_fraction_checks(group):
    if group_counting(group).is_zero:
        with pytest.raises(PreconditionError):
            group_functional_equation(group)
        return
    report = group_functional_equation(group)
    assert (report.holds, report.witness) == _fraction_group_fe(group)
    assert report.holds


@pytest.mark.parametrize("family", ["gm_power", "gl"])
@pytest.mark.parametrize("r", range(1, 6))
def test_family_identities(family, r):
    report = verify_family_identities(r, family)
    assert report.holds, report.first_failure
    assert report.first_failure is None
    # (c) against the factored reflection it replaced
    group = gl_group_data(r) if family == "gl" else torus_group_data(r)
    assert report.results[2][1] == _fraction_group_fe(group)[0]
    # a report with one failing identity names it first and marks it in its text
    (shift, _), (dual, _), reflection = report.results
    failing = FamilyIdentityReport(family, r, ((shift, True), (dual, False), reflection))
    assert not failing.holds and failing.first_failure == dual
    assert str(failing).splitlines() == [f"{family} identities at rank {r}:", f"  {shift}: holds",
                                         f"  {dual}: FAILS", f"  {reflection[0]}: holds"]


def _factored_family_identities(r, family):
    """Identities (a) and (b) as factored zetas once compared them:
    zeta_N = zeta_G shifted by d, and zeta_{N*} = zeta_G shifted by p,
    to the power (-1)^r."""
    if family == "gl":
        group, omegas = gl_group_data(r), range(1, r + 1)
    else:
        group, omegas = torus_group_data(r), [1] * r
    zg = zeta_of(PowerLogSum.from_int_coefficients(group.coefficients, group.positive_roots))
    n = product_of_reciprocal_powers(omegas)
    return (
        zeta_of(n) == zg.shift_exponents(-group.dimension),
        zeta_of(n.dual()) == zg.shift_exponents(-group.positive_roots).scale((-1) ** r),
    )


@pytest.mark.parametrize("family", ["gm_power", "gl"])
@pytest.mark.parametrize("r", range(1, 21))
def test_family_shift_and_dual_match_the_factored_zetas(family, r):
    if family == "gl" and r > 18:  # GL(19) is beyond the counting-degree cap
        for check in (verify_family_identities, _factored_family_identities):
            with pytest.raises(PreconditionError, match="counting polynomial of degree"):
                check(r, family)
        return
    report = verify_family_identities(r, family)
    integer = tuple(ok for _, ok in report.results[:2])
    assert integer == _factored_family_identities(r, family) == (True, True)


@pytest.mark.parametrize("family", ["gm_power", "gl"])
@pytest.mark.parametrize("slot", [0, 1, -1])
def test_family_identities_fail_on_a_wrong_coefficient_vector(monkeypatch, family, slot):
    expand = ReductiveGroupData.coefficients.func

    def wrong(group):
        a = list(expand(group))
        a[slot] += 1
        return tuple(a)

    monkeypatch.setattr(ReductiveGroupData, "coefficients", property(wrong))
    for r in (1, 2, 3, 6):
        report = verify_family_identities(r, family)
        integer = tuple(ok for _, ok in report.results[:2])
        assert integer == _factored_family_identities(r, family) == (False, False)
        assert not report.holds


def test_group_coefficients_are_expanded_once():
    group = gl_group_data(4)
    assert group.coefficients is group.coefficients
    assert group_counting(group) is group_counting(group)
    assert group_counting(group) == PowerLogSum.from_int_coefficients(
        group.coefficients, group.positive_roots)
    # a broken palindrome raises on every access: nothing is cached
    broken = ReductiveGroupData(1, 5, (2, 0, 1))
    for _ in range(2):
        with pytest.raises(PreconditionError, match="not palindromic"):
            broken.coefficients
        with pytest.raises(PreconditionError, match="not palindromic"):
            group_counting(broken)
        with pytest.raises(PreconditionError, match="not palindromic"):
            group_functional_equation(broken)


def test_a_catalog_group_is_one_record_while_it_is_held(monkeypatch):
    group = gl_group_data(5)
    assert group is group_from_name("gl:5") is group_from_name(" GL:5 ")
    assert torus_group_data(3) is group_from_name("Gm:3") and group_from_name("SL2") is group_from_name("sl2")
    # the table holds no record that no caller holds: a dropped one is built again
    monkeypatch.setattr(groups, "_HELD", weakref.WeakValueDictionary())
    dropped = weakref.ref(group_from_name("E7"))
    assert dropped() is None and not groups._HELD
    e7 = group_from_name("E7")
    assert dict(groups._HELD) == {("E7", None): e7} and group_from_name("E7") is e7


def test_family_identities_expand_their_product_on_every_call(monkeypatch):
    # the kept counting function is never one side of its own check
    calls = []

    def counted(omegas, expand=groups._reciprocal_power_coefficients):
        calls.append(tuple(omegas))
        return expand(omegas)

    monkeypatch.setattr(groups, "_reciprocal_power_coefficients", counted)
    held = gl_group_data(6), torus_group_data(6)  # both calls get these records
    for family in ("gl", "gm_power"):
        for _ in range(2):
            calls.clear()
            assert verify_family_identities(6, family).holds and len(calls) == 1
    assert held[0] is gl_group_data(6) and held[1] is torus_group_data(6)


def test_family_identities_gl1_reduces_to_torus():
    gl1 = verify_family_identities(1, "gl")
    gm1 = verify_family_identities(1, "gm_power")
    assert gl1.holds and gm1.holds
    assert group_counting(gl_group_data(1)) == torus_model(1).counting


@pytest.mark.parametrize("r", range(0, 7))
def test_torus_model_counting_is_binomial_power(r):
    # the rank-0 torus is the point
    expected = PowerLogSum.constant(1)
    for _ in range(r):
        expected = expected * (PowerLogSum.power(1) - PowerLogSum.constant(1))
    assert (torus_model(r) if r else f1_point()).counting == expected


def test_family_identities_rejections():
    with pytest.raises(PreconditionError):
        verify_family_identities(0, "gl")
    with pytest.raises(PreconditionError):
        verify_family_identities(2, "nonsense")


@settings(max_examples=60)
@given(palindromic_groups())
def test_coefficient_symmetry(group):
    n = group_counting(group)
    if n.is_zero:
        return
    center = group.dimension + group.positive_roots
    sign = (-1) ** group.rank
    for lam, m, c in n.terms:
        assert n.coefficient(center - lam, m) == sign * c


@settings(max_examples=60)
@given(palindromic_groups())
def test_counting_vanishes_at_one(group):
    assert group_counting(group).value_at_one() == 0


@pytest.mark.parametrize("r", range(1, 5))
def test_group_epsilon_factor_is_plus_one(r):
    # N_G(1) = 0 because (q-1)^r divides the counting polynomial
    from f1zeta.zetas import epsilon_factor

    for group in (gl_group_data(r), torus_group_data(r)):
        assert epsilon_factor(group_counting(group)).sign == 1


def test_counting_degree_cap():
    # GL(r) has degree r^2 + r(r-1)/2: 287 at r = 14, 477 at 18, 532 at 19
    assert MAX_COUNTING_DEGREE == 500
    assert gl_group_data(18).dimension == 324
    assert torus_group_data(500).rank == 500
    for build in (lambda: gl_group_data(19), lambda: gl_group_data(500),
                  lambda: torus_group_data(501),
                  lambda: ReductiveGroupData(1, 1001, (1,) * 501),
                  lambda: verify_family_identities(501, "gm_power"),
                  lambda: verify_family_identities(19, "gl")):
        with pytest.raises(PreconditionError, match="counting polynomial of degree"):
            build()


def test_group_data_validation():
    with pytest.raises(PreconditionError):
        ReductiveGroupData(0, 1, (1,))
    with pytest.raises(PreconditionError, match="dimension must be >= 1"):
        ReductiveGroupData(1, 0, ())
    with pytest.raises(PreconditionError):
        ReductiveGroupData(1, 2, (1,))  # d - r odd
    with pytest.raises(PreconditionError):
        ReductiveGroupData(1, 3, (1,))  # wrong flag length
    with pytest.raises(PreconditionError):
        ReductiveGroupData(1, 3, (1, -1))
    with pytest.raises(PreconditionError):
        group_counting(ReductiveGroupData(1, 5, (1, 2, 3)))  # not palindromic


def test_catalog_and_files():
    assert group_from_name("GL:3") == gl_group_data(3)
    assert group_from_name("Gm:2") == torus_group_data(2)
    assert group_from_name("SL2") == ReductiveGroupData(1, 3, (1, 1), name="SL(2)")
    with pytest.raises(ParseError):
        group_from_name("E9")
    with pytest.raises(ParseError):
        group_from_name("GL:x")
    # a name that is no str is an unknown group, named as it was given
    for name in (5, None, b"GL:2", 10**5000):
        with pytest.raises(ParseError, match=re.escape(f"unknown group {_shown(name)} (")):
            group_from_name(name)

    data = {"rank": 1, "dimension": 3, "flag_betti": [1, 1], "name": "SL(2)"}
    assert group_from_dict(data) == group_from_name("SL2")
    with pytest.raises(ParseError):
        group_from_dict({"rank": 1})
    with pytest.raises(ParseError, match="must contain a JSON object"):
        group_from_dict([1, 3, [1, 1]])
    with pytest.raises(ParseError, match="group name must be a string"):
        group_from_dict({**data, "name": 2})
    # a string's characters or an object's keys are no flag Betti numbers: both once read as SL(2)
    for flag in ("11", {"1": 0, "1 ": 0}):
        with pytest.raises(ParseError, match="flag_betti must be a list, got "):
            group_from_dict({**data, "flag_betti": flag})
    for build, message in ((lambda: torus_model(0), "torus rank must be >= 1"),
                           (lambda: torus_group_data(0), "torus rank must be >= 1"),
                           (lambda: gl_group_data(0), "GL rank must be >= 1")):
        with pytest.raises(PreconditionError, match=message):
            build()


# -- one constructor from the Weyl degrees, and the catalog it serves --------


def _mahonian(r):
    """Coefficients of prod_{i<=r} (1 + x + .. + x^(i-1)), by naive products."""
    poly = [1]
    for i in range(1, r + 1):
        out = [0] * (len(poly) + i - 1)
        for k, c in enumerate(poly):
            for j in range(i):
                out[k + j] += c
        poly = out
    return tuple(poly)


def test_the_constructors_keep_their_records():
    # the records GL(r), Gm^r and SL(2) had before they were built from degrees
    for r in range(1, 19):
        assert gl_group_data(r) == ReductiveGroupData(r, r * r, _mahonian(r), name=f"GL({r})")
    for r in range(1, 501):
        name = f"Gm^{r}" if r > 1 else "Gm"
        assert torus_group_data(r) == ReductiveGroupData(r, r, (1,), name=name)
    assert group_from_name("SL2") == ReductiveGroupData(1, 3, (1, 1), name="SL(2)")


def _order(group, q):
    """|G(F_q)| from the counting polynomial."""
    return q**group.positive_roots * sum(a * q**k for k, a in enumerate(group.coefficients))


def _naive_counting(degrees):
    """Coefficients of q^N prod_i (q^(d_i) - 1) from q^0 up, by naive products."""
    poly = [0] * (sum(degrees) - len(degrees)) + [1]
    for d in degrees:
        out = [0] * (len(poly) + d)
        for k, c in enumerate(poly):
            out[k] -= c
            out[k + d] += c
        poly = out
    return poly


# the dimension of each catalog group, from its root system: r + 2N
_DIMENSIONS = {"GL": lambda n: n * n, "Gm": lambda n: n, "A": lambda n: n * (n + 2),
               "B": lambda n: n * (2 * n + 1), "C": lambda n: n * (2 * n + 1),
               "D": lambda n: n * (2 * n - 1), "SL2": 3, "G2": 14, "F4": 52, "E6": 78,
               "E7": 133, "E8": 248}


def _catalog_names():
    """(name, Weyl degrees, dimension): every fixed catalog name, and every
    family at ranks 1..5."""
    for key, entry in _CATALOG.items():
        if callable(entry):
            yield from ((f"{key}:{n}", tuple(entry(n)[1]), _DIMENSIONS[key](n)) for n in range(1, 6))
        else:
            yield key, entry[1], _DIMENSIONS[key]


@pytest.mark.parametrize("name, degrees, dimension", list(_catalog_names()),
                         ids=[name for name, _, _ in _catalog_names()])
def test_every_catalog_group_counts_as_its_degrees_say(name, degrees, dimension):
    group = group_from_name(name)
    assert group.dimension == dimension and group.rank == len(degrees)
    report = group_functional_equation(group)
    assert report.holds and report.chi == 0
    assert report.center == group.dimension + group.positive_roots
    counting = [0] * group.positive_roots + list(group.coefficients)
    assert counting == _naive_counting(degrees)
    assert group_counting(group) == PowerLogSum.from_int_coefficients(
        group.coefficients, group.positive_roots)
    assert sum(group.flag_betti) == math.prod(degrees)  # |W|


@pytest.mark.parametrize("n", range(1, 9))
def test_b_and_c_share_a_counting_polynomial(n):
    b, c = group_from_name(f"B:{n}"), group_from_name(f"C:{n}")
    assert group_counting(b) == group_counting(c) and b.dimension == c.dimension == n * (2 * n + 1)


def test_small_orders_by_brute_force():
    def det3(m):
        a, b, c, d, e, f, g, h, i = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    sl3_f2 = sum(1 for m in product(range(2), repeat=9) if det3(m) % 2 == 1)
    sl2_f3 = sum(1 for a, b, c, d in product(range(3), repeat=4) if (a * d - b * c) % 3 == 1)
    assert sl3_f2 == 168 == _order(group_from_name("A:2"), 2)
    assert sl2_f3 == 24 == _order(group_from_name("SL2"), 3) == _order(group_from_name("A:1"), 3)
    assert _order(gl_group_data(3), 2) == 168  # GL(3, F_2) = SL(3, F_2)


def test_sp4_f2_by_enumerating_every_matrix():
    # the columns of a 4x4 matrix over F_2 as 4-bit ints; the symplectic form
    # w(x, y) = x1 y3 + x3 y1 + x2 y4 + x4 y2 is the parity of x & (y with its halves swapped)
    form = [[bin(x & ((y & 3) << 2 | y >> 2)).count("1") & 1 for y in range(16)] for x in range(16)]
    pairs = [(i, j, form[1 << i][1 << j]) for i in range(4) for j in range(i + 1, 4)]
    count = sum(1 for cols in product(range(16), repeat=4)
                if all(form[cols[i]][cols[j]] == w for i, j, w in pairs))
    assert count == 720 == _order(group_from_name("C:2"), 2) == _order(group_from_name("B:2"), 2)


def test_pinned_exceptional_orders():
    assert _order(group_from_name("G2"), 2) == 12096
    e8 = group_from_name("E8")
    assert (e8.rank, e8.dimension, e8.positive_roots) == (8, 248, 120)
    assert group_functional_equation(e8).center == 368
    assert f"{float(_order(e8, 2)):.4g}" == "3.378e+74"


def test_group_from_degrees_checks_its_degrees():
    assert group_from_degrees([2], "SL(2)") == group_from_name("SL2")
    assert group_from_degrees(range(1, 4)) == ReductiveGroupData(3, 9, (1, 2, 2, 1))
    for degrees, message in (([0], "a Weyl degree must be >= 1, got 0"),
                             ([2.0], "a Weyl degree must be >= 1 and an integer, got 2.0"),
                             ([True], "a Weyl degree must be >= 1 and an integer, got True"),
                             ([], "rank must be >= 1, got 0"),
                             ([168], "the group has a counting polynomial of degree 502")):
        with pytest.raises(PreconditionError, match=message):
            group_from_degrees(degrees)


def test_a_huge_rank_fails_before_any_degree_is_built(monkeypatch):
    def unbuilt(n):
        raise AssertionError(f"degrees built at rank {n}")

    for key in ("GL", "Gm", "D"):
        monkeypatch.setitem(_CATALOG, key, unbuilt)
    for build in (lambda: torus_group_data(10**6), lambda: gl_group_data(10**6),
                  lambda: group_from_name("D:1000000"), lambda: gl_group_data(10**5000),
                  lambda: torus_group_data(501)):
        with pytest.raises(PreconditionError, match="counting polynomial of degree at least its rank"):
            build()
