"""Point counting and Fourier machinery."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from f1zeta import groups
from f1zeta import schemes as schemes_module
from f1zeta.errors import ParseError, PreconditionError
from f1zeta.powerlog import MAX_COUNTING_DEGREE
from f1zeta.schemes import (
    MAX_FOURIER_PERIOD,
    FourierData,
    MonoidScheme,
    TorsionPoint,
    counting_coefficients,
    exact_count,
    f1_point,
    fourier_data,
    fourier_period,
    gcd_fourier_coefficients,
    gcd_inner_fourier,
    projective_space_model,
    scheme_from_dict,
    scheme_to_dict,
    smoothed_count,
    torsion_point_model,
    torus_model,
    totient,
    _divisor_differences,
    _divisors,
)


@st.composite
def schemes(draw, max_points=6, max_rank=4, max_torsion=12, torsion_free=False):
    n = draw(st.integers(1, max_points))
    pts = []
    for _ in range(n):
        rank = draw(st.integers(0, max_rank))
        if torsion_free:
            torsion = ()
        else:
            torsion = tuple(draw(st.lists(st.integers(2, max_torsion), max_size=3)))
        pts.append(TorsionPoint(rank, torsion))
    return MonoidScheme(tuple(pts))


def test_validation():
    with pytest.raises(PreconditionError):
        TorsionPoint(-1)
    with pytest.raises(PreconditionError):
        TorsionPoint(0, (1,))
    with pytest.raises(PreconditionError):
        MonoidScheme(())
    with pytest.raises(PreconditionError):
        MonoidScheme((TorsionPoint(0),), dimension=-1)
    with pytest.raises(PreconditionError, match="torus rank must be >= 1"):
        torus_model(0)
    with pytest.raises(PreconditionError, match="projective dimension must be >= 0"):
        projective_space_model(-1)
    assert TorsionPoint(0, (2, 3)).torsion_cardinality == 6
    assert TorsionPoint(2).torsion_cardinality == 1


def test_rank_cap_is_the_counting_degree_cap():
    # the counting polynomial of a scheme has degree equal to its maximal rank
    assert MAX_COUNTING_DEGREE is groups.MAX_COUNTING_DEGREE
    top = MonoidScheme((TorsionPoint(MAX_COUNTING_DEGREE), TorsionPoint(0)))
    assert top.max_rank == MAX_COUNTING_DEGREE
    with pytest.raises(PreconditionError, match=f"rank {MAX_COUNTING_DEGREE + 1}.*at most"):
        MonoidScheme((TorsionPoint(0), TorsionPoint(MAX_COUNTING_DEGREE + 1)))
    with pytest.raises(PreconditionError, match="at most"):
        scheme_from_dict({"points": [{"rank": 2000}]})
    # and caps the declared dimension, the length of the Betti profile
    assert MonoidScheme((TorsionPoint(1),), dimension=MAX_COUNTING_DEGREE).dim == 500
    with pytest.raises(PreconditionError, match=f"dimension {MAX_COUNTING_DEGREE + 1}.*at most"):
        MonoidScheme((TorsionPoint(1),), dimension=MAX_COUNTING_DEGREE + 1)


def test_dimension_defaults_to_max_rank():
    scheme = MonoidScheme((TorsionPoint(1), TorsionPoint(3)))
    assert scheme.dim == 3
    assert MonoidScheme((TorsionPoint(1),), dimension=5).dim == 5


def test_exact_count_examples():
    assert exact_count(torsion_point_model([2]), 3) == 2
    assert exact_count(projective_space_model(1), 5) == 6
    assert exact_count(torsion_point_model([3], rank=1), 4) == 9


def test_exact_count_rejects_small_q():
    with pytest.raises(PreconditionError):
        exact_count(f1_point(), 1)


def test_smoothed_count_examples():
    tp = torsion_point_model([2])
    assert smoothed_count(tp, 3) == 2
    assert smoothed_count(tp, Fraction(7, 2)) == 2
    t3 = torsion_point_model([3], rank=1)
    assert smoothed_count(t3, 7) == 18
    assert exact_count(t3, 7) == 18  # 7 = 1 mod 3
    assert smoothed_count(projective_space_model(1), 5) == 6
    with pytest.raises(PreconditionError, match="smoothed counts need q > 0"):
        smoothed_count(tp, 0)


# each escaped as a bare IndexError, ValueError, OverflowError or TypeError
@pytest.mark.parametrize("call, message", [
    (lambda: gcd_inner_fourier(1.5), r"modulus must be >= 1 and an integer, got 1\.5"),
    (lambda: smoothed_count(projective_space_model(2), math.nan), "need a finite q > 0, got nan"),
    (lambda: smoothed_count(projective_space_model(2), math.inf), "need a finite q > 0, got inf"),
    (lambda: smoothed_count(projective_space_model(2), -math.inf), "need a finite q > 0, got -inf"),
    (lambda: gcd_fourier_coefficients(3.0, 2, 2), r"torsion order must be >= 2 and an integer, got 3\.0"),
])
def test_a_float_outside_the_domain_is_a_precondition_error(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def test_totient_small_values():
    # phi on 1..12 against the definition
    for n in range(1, 13):
        direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert totient(n) == direct
    with pytest.raises(PreconditionError, match="totient argument must be >= 1, got 0"):
        totient(0)


def test_fourier_period_examples():
    assert fourier_period(torsion_point_model([2])) == 1
    assert fourier_period(torsion_point_model([3, 4])) == 2
    assert fourier_period(torus_model(2)) == 1


def _dft_oracle(seq, n0):
    # independent direct transform: c_nu = (1/n0) sum_n seq[n] xi^(-n nu)
    out = []
    for nu in range(1, n0 + 1):
        acc = sum(
            seq[n - 1] * cmath.exp(-2j * cmath.pi * n * nu / n0)
            for n in range(1, n0 + 1)
        )
        out.append(acc / n0)
    return out


def test_gcd_fourier_examples():
    assert gcd_fourier_coefficients(2, 3, 1) == pytest.approx((2 + 0j,))

    c = gcd_fourier_coefficients(3, 2, 2)
    # gcd(3, 2^n - 1) alternates 1, 3; DFT of the period-2 sequence
    oracle = _dft_oracle([1, 3], 2)
    assert c == pytest.approx(tuple(oracle))
    assert c[0] == pytest.approx(1 + 0j)
    assert c[1] == pytest.approx(2 + 0j)

    c7 = gcd_fourier_coefficients(3, 7, 2)  # 7 = 1 mod 3: constant case
    assert c7[0] == pytest.approx(0j, abs=1e-12)
    assert c7[1] == pytest.approx(3 + 0j)


def test_gcd_fourier_rejects_wrong_period():
    with pytest.raises(PreconditionError):
        gcd_fourier_coefficients(3, 2, 1)  # actual period is 2
    with pytest.raises(PreconditionError, match="torsion order must be >= 2"):
        gcd_fourier_coefficients(1, 2, 1)
    with pytest.raises(PreconditionError, match="period length must be >= 1"):
        gcd_fourier_coefficients(3, 2, 0)


def test_gcd_fourier_reconstruction_sweep():
    for t in range(2, 31):
        for p in (2, 3, 5, 7):
            n0 = totient(t)
            coeffs = gcd_fourier_coefficients(t, p, n0)
            for n in range(1, 3 * n0 + 1):
                val = sum(
                    c * cmath.exp(2j * cmath.pi * n * nu / n0)
                    for nu, c in enumerate(coeffs, start=1)
                )
                expected = math.gcd(t, (pow(p, n, t) - 1) % t)
                assert abs(val - expected) < 1e-10


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 59), st.sampled_from([2, 3, 4, 5, 6, 7]), st.integers(1, 2))
def test_exact_table_matches_dft_oracle(t, p, multiple):
    # composite bases must work too: primes shared with p drop out of t
    n0 = multiple * totient(t)
    coeffs = gcd_fourier_coefficients(t, p, n0)
    assert all(type(c) is Fraction for c in coeffs)
    seq = [math.gcd(t, p**n - 1) for n in range(1, n0 + 1)]
    for ours, oracle in zip(coeffs, _dft_oracle(seq, n0), strict=True):
        assert abs(complex(ours) - oracle) < 1e-9


@pytest.mark.parametrize("torsion,p", [((97, 101), 2), ((802,), 5)])
def test_fourier_data_verifies_where_float_tables_missed(torsion, p):
    # the float DFT tables reconstructed these only to 3.3e-10 and 3e-10,
    # outside the declared 1e-10
    data = fourier_data(torsion_point_model(torsion), p)
    assert data.period == fourier_period(torsion_point_model(torsion))
    assert data.reconstruction_error() == 0.0
    assert data.verify()


def _with_coefficient(data, entry, nu, value):
    x, j, t, coeffs = data.entries[entry]
    changed = coeffs[: nu - 1] + (value,) + coeffs[nu:]
    entries = data.entries[:entry] + ((x, j, t, changed),) + data.entries[entry + 1 :]
    return FourierData(data.prime, data.period, entries)


def test_reconstruction_check_catches_changed_coefficients():
    data = fourier_data(torsion_point_model([5, 7]), 3)  # period 12
    assert data.verify()
    # nu = n0 is alone in its class gcd(nu, n0) = n0: the vector stays a
    # valid class function, and the exact error is the perturbation itself
    c = data.entries[1][3][-1]
    bumped = _with_coefficient(data, 1, 12, c + Fraction(1, 10**6))
    assert bumped.reconstruction_error() == pytest.approx(1e-6)
    assert not bumped.verify()
    # nu = 1 and nu = 5 share the class gcd = 1: changing only one of them
    # leaves a vector no class function matches
    split = _with_coefficient(data, 0, 1, data.entries[0][3][0] + 1)
    assert split.reconstruction_error() == math.inf
    assert not split.verify()
    # moving the whole class gcd = 3 (nu = 3, 9) shifts the series by
    # delta c_4(n): 0 at n = 1 (mu(4) = 0), -2 delta at n = 2
    delta = Fraction(1, 1000)
    c3 = data.entries[0][3][2]
    moved = _with_coefficient(_with_coefficient(data, 0, 3, c3 + delta), 0, 9, c3 + delta)
    assert moved.reconstruction_error() == pytest.approx(2e-3)
    assert not moved.verify()
    short = FourierData(3, 12, ((0, 0, 5, data.entries[0][3][:-1]),))
    assert short.reconstruction_error() == math.inf


def test_reconstruction_check_with_too_short_period():
    # gcd(3, 2^n - 1) alternates 1, 3; no constant matches it, and the
    # check then walks every n instead of one n per class
    data = FourierData(2, 1, ((0, 0, 3, (Fraction(1),)),))
    assert data.reconstruction_error() == 2.0
    assert not data.verify()


def test_inner_fourier_matches_per_alpha_sum():
    # the deleted per-alpha form: d_alpha = sum of phi(e)/e over e | t, (t/e) | alpha
    for t in range(1, 120):
        divisors = [e for e in range(1, t + 1) if t % e == 0]
        want = tuple(
            sum((Fraction(totient(e), e) for e in divisors if alpha % (t // e) == 0), Fraction(0))
            for alpha in range(1, t + 1)
        )
        assert gcd_inner_fourier(t) == want


def test_inner_fourier_examples():
    assert gcd_inner_fourier(1) == (Fraction(1),)
    with pytest.raises(PreconditionError, match="modulus must be >= 1"):
        gcd_inner_fourier(0)
    assert gcd_inner_fourier(2) == (Fraction(1, 2), Fraction(3, 2))
    assert sum(gcd_inner_fourier(3)) == 3


def test_inner_fourier_matches_dft_oracle():
    for t in range(1, 25):
        seq = [math.gcd(t, m) for m in range(1, t + 1)]
        oracle = _dft_oracle(seq, t)
        ours = gcd_inner_fourier(t)
        for a, b in zip(ours, oracle):
            assert abs(complex(a) - b) < 1e-9


def test_inner_fourier_sum_exact():
    for t in range(1, 201):
        coeffs = gcd_inner_fourier(t)
        assert sum(coeffs, Fraction(0)) == t


def test_fourier_data_reconstruction():
    scheme = MonoidScheme(
        (TorsionPoint(1, (3, 4)), TorsionPoint(0, (5,)), TorsionPoint(2))
    )
    data = fourier_data(scheme, 2)
    assert data.period == fourier_period(scheme) == 4
    assert data.reconstruction_error() < 1e-10
    assert data.verify()
    # collapsed case: p = 1 mod every torsion order
    data61 = fourier_data(scheme, 61)  # 61 = 1 mod lcm(3,4,5)
    for _, _, t, coeffs in data61.entries:
        assert coeffs[-1] == pytest.approx(t + 0j)
        assert all(abs(c) < 1e-10 for c in coeffs[:-1])


@settings(max_examples=60, deadline=None)
@given(schemes())
def test_exact_equals_smoothed_at_congruent_q(scheme):
    lcm = 1
    for pt in scheme.points:
        for t in pt.torsion_orders:
            lcm = math.lcm(lcm, t)
    for k in (1, 2):
        q = 1 + k * lcm
        if q < 2:
            continue
        assert smoothed_count(scheme, q) == exact_count(scheme, q)


@settings(max_examples=60, deadline=None)
@given(schemes(torsion_free=True), st.integers(2, 40))
def test_torsion_free_counts_are_polynomial(scheme, q):
    # expand sum_x (q-1)^R into integer coefficients, then evaluate
    coeffs = {}
    for pt in scheme.points:
        for j in range(pt.rank + 1):
            sign = -1 if (pt.rank - j) % 2 else 1
            coeffs[j] = coeffs.get(j, 0) + sign * math.comb(pt.rank, j)
    value = sum(a * q**j for j, a in coeffs.items())
    assert exact_count(scheme, q) == value


def test_scheme_json_round_trip():
    scheme = MonoidScheme(
        (TorsionPoint(2, (3,)), TorsionPoint(0)),
        dimension=2,
        smooth_projective=True,
        name="demo",
    )
    assert scheme_from_dict(scheme_to_dict(scheme)) == scheme


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"points": []},
        {"points": [{"rank": -1, "torsion": []}]},
        {"points": [{"rank": 0, "torsion": [1]}]},
        {"points": [{"rank": 0, "torsion": [2]}], "dimension": -2},
        {"points": [{"rank": "a", "torsion": []}]},
        {"points": [{"rank": 0}], "smooth_projective": "yes"},
        {"points": [[0, [3]]]},
        {"points": [{"rank": 0, "torsion": 3}]},
        {"points": [{"rank": 0}], "name": 3},
    ],
)
def test_scheme_parser_rejections(payload):
    with pytest.raises(ParseError):
        scheme_from_dict(payload)


def test_fourier_data_type_contents():
    data = fourier_data(torsion_point_model([3]), 2)
    assert isinstance(data, FourierData)
    assert data.prime == 2 and data.period == 2
    (entry,) = data.entries
    assert entry[:3] == (0, 0, 3)


# -- the count profile against the per-point formula -------------------------


def _per_point_count(scheme, q):
    # the formula exact_count evaluated before the count profile: a power
    # of q - 1 and fresh gcds for every point
    total = 0
    for pt in scheme.points:
        term = (q - 1) ** pt.rank
        for t in pt.torsion_orders:
            term *= math.gcd(t, q - 1)
        total += term
    return total


# orders that share factors with one another and with the q below
_ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 36, 60, 97, 720)


@st.composite
def count_schemes(draw):
    kind = draw(st.sampled_from(("mixed", "rank gap", "torsion-free", "torsion only")))
    ranks = {"rank gap": st.sampled_from((0, 5)), "torsion only": st.just(0)}.get(
        kind, st.integers(0, 7))
    orders = st.lists(st.sampled_from(_ORDERS), min_size=int(kind == "torsion only"), max_size=3)
    pts = []
    for _ in range(draw(st.integers(1, 10))):
        torsion = () if kind == "torsion-free" else tuple(draw(orders))
        # a repeated point repeats its type, and its orders
        pts.extend([TorsionPoint(draw(ranks), torsion)] * draw(st.integers(1, 3)))
    return MonoidScheme(tuple(pts))


_COUNT_QS = st.one_of(
    st.integers(2, 100),
    st.integers(2, 7**40),
    st.sampled_from((7**40, 2**64 + 1, 2**64, 3**40)),
    st.integers(1, 10**30).map(lambda k: 1 + 720 * k),  # 720 = 2^4 3^2 5 divides q - 1
    st.integers(0, 40).map(lambda n: 7**n + 1),
)


@settings(max_examples=300, deadline=None)
@given(count_schemes(), _COUNT_QS)
def test_exact_count_matches_the_per_point_formula(scheme, q):
    got = exact_count(scheme, q)
    assert type(got) is int and got == _per_point_count(scheme, q)


def test_count_profile_rows_run_from_the_top_rank_down():
    scheme = MonoidScheme((TorsionPoint(5), TorsionPoint(0, (4, 6)), TorsionPoint(0),
                           TorsionPoint(5, (6,)), TorsionPoint(0), TorsionPoint(5, (6,))))
    orders, rows = scheme.count_profile
    assert orders == (4, 6)
    # rank 5: one torsion-free point, two of torsion (6,); rank 0: two and one
    assert rows == ((5, ((2, (1,)), (1, ())), 5), (0, ((1, (0, 1)), (2, ())), 0))
    for q in (2, 5, 7**40, 2**64 + 1):
        assert exact_count(scheme, q) == _per_point_count(scheme, q)
    assert projective_space_model(2).count_profile == (
        (), ((2, ((1, ()),), 1), (1, ((3, ()),), 1), (0, ((3, ()),), 0)))


_SMOOTHED_QS = st.one_of(
    st.integers(1, 10**6),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
    st.floats(min_value=1e-6, max_value=1e6),
)


@settings(max_examples=150, deadline=None)
@given(count_schemes(), _SMOOTHED_QS)
def test_smoothed_count_matches_the_per_type_sum(scheme, q):
    # sum_x T(x) (q-1)^R(x) point by point, independent of the count profile
    qq = Fraction(q)
    want = sum((math.prod(pt.torsion_orders) * (qq - 1) ** pt.rank
                for pt in scheme.points), Fraction(0))
    got = smoothed_count(scheme, q)
    assert type(got) is Fraction and got == want


@settings(max_examples=150, deadline=None)
@given(count_schemes(), _SMOOTHED_QS)
def test_count_profile_holds_each_point_type_once_and_both_smoothed_paths_agree(scheme, q):
    orders, rows = scheme.count_profile
    types = [(rank, tuple(orders[i] for i in indices), k) for rank, row, _ in rows
             for k, indices in row]
    assert sum(k for _, _, k in types) == len(scheme.points)
    assert len({(rank, torsion) for rank, torsion, _ in types}) == len(types)
    top = max(pt.rank for pt in scheme.points)
    assert rows[0][0] == scheme.max_rank == top == sum(drop for _, _, drop in rows)
    # smoothed_count runs the exact count's Horner; counting_coefficients is the other path
    want = Fraction(0)
    for a in reversed(counting_coefficients(scheme)):
        want = want * Fraction(q) + a
    assert smoothed_count(scheme, q) == want


# -- the integer reconstruction check against its Fraction form --------------


def _fraction_reconstruction_error(data):
    # FourierData.reconstruction_error as it was before the integer check:
    # Fraction class values times Ramanujan sums, one float per n
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    def mobius(n):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]
        return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    def ramanujan(q, m):
        return sum(mobius(q // d) * d for d in divisors(math.gcd(q, m)))

    n0, p = data.period, data.prime
    worst = 0.0
    for _, _, t, coeffs in data.entries:
        if len(coeffs) != n0:
            return math.inf
        by_class = {}
        for nu, c in enumerate(coeffs, start=1):
            if by_class.setdefault(math.gcd(nu, n0), c) != c:
                return math.inf
        part = t
        while math.gcd(part, p) > 1:
            part //= math.gcd(part, p)
        if (pow(p, n0, part) - 1) % part == 0:
            ns = divisors(n0)
        else:
            ns = range(1, 3 * n0 + 1)
        for n in ns:
            value = sum(c * ramanujan(n0 // g, n) for g, c in by_class.items() if c)
            worst = max(worst, float(abs(value - math.gcd(t, pow(p, n, t) - 1))))
    return worst


@st.composite
def fourier_tables(draw):
    """fourier_data tables, some with one entry changed: a bumped singleton
    class (nu = n0), a whole class moved, one member of a class split off,
    or a vector cut short; or a table over a period too short for t."""
    how = draw(st.sampled_from(("as built", "bump", "move", "split", "short", "too short")))
    p = draw(st.sampled_from((2, 3, 5, 7, 4, 6)))
    if how == "too short":
        t = draw(st.integers(2, 40))
        n0 = draw(st.integers(1, 6))
        values = {g: draw(st.fractions(max_denominator=50)) for g in range(1, n0 + 1) if n0 % g == 0}
        vec = tuple(values[math.gcd(nu, n0)] for nu in range(1, n0 + 1))
        return FourierData(p, n0, ((0, 0, t, vec),))
    data = fourier_data(draw(schemes(max_points=3, max_torsion=16)), p)
    if how == "as built" or not data.entries:
        return data
    entry = draw(st.integers(0, len(data.entries) - 1))
    x, j, t, coeffs = data.entries[entry]
    n0 = data.period
    # denominators past 2^53 check that the error is rounded once, exactly
    delta = draw(st.one_of(st.fractions(max_denominator=10**6),
                           st.fractions(max_denominator=10**30)).filter(bool))
    if how == "bump":
        coeffs = coeffs[:-1] + (coeffs[-1] + delta,)
    elif how == "move":
        g = draw(st.sampled_from([g for g in range(1, n0 + 1) if n0 % g == 0]))
        coeffs = tuple(c + delta if math.gcd(nu, n0) == g else c
                       for nu, c in enumerate(coeffs, start=1))
    elif how == "split":
        nu = draw(st.integers(1, n0))
        coeffs = coeffs[: nu - 1] + (coeffs[nu - 1] + delta,) + coeffs[nu:]
    else:
        coeffs = coeffs[:-1]
    entries = data.entries[:entry] + ((x, j, t, coeffs),) + data.entries[entry + 1:]
    return FourierData(data.prime, n0, entries)


@settings(max_examples=200, deadline=None)
@given(fourier_tables())
def test_reconstruction_error_is_bit_identical_to_the_fraction_check(data):
    assert data.reconstruction_error() == _fraction_reconstruction_error(data)


def test_reconstruction_error_reads_float_coefficients_exactly():
    data = fourier_data(torsion_point_model([5]), 3)  # period 4
    x, j, t, coeffs = data.entries[0]
    as_floats = FourierData(3, 4, ((x, j, t, tuple(float(c) for c in coeffs)),))
    assert as_floats.reconstruction_error() == 0.0
    # 0.1 on the class gcd(nu, 12) = 1 (nu = 1, 5, 7, 11) of a period-12
    # table moves the series by 0.1 c_12(n), and |c_12(n)| is 4 at most (at
    # n = 6, 12) and 0 at n = 1: the exact error is 4 Fraction(0.1), whose
    # float is 0.4.  Float arithmetic gave 0.40000000000000036
    x, j, t, coeffs = fourier_data(torsion_point_model([5, 7]), 3).entries[0]
    moved = tuple(float(c) + 0.1 if math.gcd(nu, 12) == 1 else c
                  for nu, c in enumerate(coeffs, start=1))
    data = FourierData(3, 12, ((x, j, t, moved),))
    assert data.reconstruction_error() == 0.4 == float(4 * Fraction(0.1))


def test_reconstruction_error_of_a_non_real_coefficient_is_inf():
    # not a rational class function; the imaginary gap is not an error of
    # the real series the check evaluates
    data = fourier_data(torsion_point_model([5, 7]), 3)
    for cast in (complex, lambda c: complex(c) + 1e-3j):
        x, j, t, coeffs = data.entries[1]
        entries = (data.entries[0], (x, j, t, coeffs[:-1] + (cast(coeffs[-1]),)))
        assert FourierData(3, 12, entries).reconstruction_error() == math.inf
    for bad in (math.nan, math.inf):
        x, j, t, coeffs = data.entries[0]
        changed = tuple(bad if math.gcd(nu, 12) == 12 else c for nu, c in enumerate(coeffs, 1))
        assert FourierData(3, 12, ((x, j, t, changed),)).reconstruction_error() == math.inf


def test_fourier_data_shares_one_vector_per_torsion_order():
    data = fourier_data(MonoidScheme((TorsionPoint(0, (263, 263)), TorsionPoint(1, (263,)))), 2)
    vectors = [entry[3] for entry in data.entries]
    assert len(vectors) == 3 and vectors[0] is vectors[1] is vectors[2]
    assert vectors[0] == gcd_fourier_coefficients(263, 2, 262)
    assert data.reconstruction_error() == 0.0


# -- the divisor inversion against the multiplicative-order form -------------


def _order_scan_coefficients(t, p, n0):
    # gcd_fourier_coefficients as it was before the divisor inversion:
    # c_nu = sum of phi(e)/ord_e(p) over the e | t' with (n0/ord_e(p)) | nu,
    # each order found by a scan of the heights h | n0
    part = t
    while math.gcd(part, p) > 1:
        part //= math.gcd(part, p)
    heights = [h for h in range(1, n0 + 1) if n0 % h == 0]
    weights = {}
    for e in (e for e in range(1, part + 1) if part % e == 0):
        order = next(h for h in heights if pow(p, h, e) == 1 % e)
        weights[order] = weights.get(order, 0) + totient(e)
    return tuple(sum((Fraction(w, o) for o, w in weights.items() if nu % (n0 // o) == 0), Fraction(0))
                 for nu in range(1, n0 + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5000), st.integers(2, 12), st.integers(1, 2))
def test_coefficients_match_the_order_scan(t, p, multiple):
    n0 = multiple * totient(t)
    coeffs = gcd_fourier_coefficients(t, p, n0)
    assert all(type(c) is Fraction for c in coeffs)
    assert coeffs == _order_scan_coefficients(t, p, n0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 120), st.integers(2, 12))
def test_coefficients_raise_exactly_off_the_period(t, p):
    part = t
    while math.gcd(part, p) > 1:
        part //= math.gcd(part, p)
    order = next(h for h in range(1, t + 1) if pow(p, h, part) == 1 % part)  # ord_t'(p)
    for n0 in range(1, 2 * totient(t) + 1):
        if n0 % order:
            with pytest.raises(PreconditionError, match="is not a multiple of the period"):
                gcd_fourier_coefficients(t, p, n0)
        else:
            assert len(gcd_fourier_coefficients(t, p, n0)) == n0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2000), st.data())
def test_divisor_differences_invert_the_class_sums(n, data):
    divs = _divisors(n)
    pieces = data.draw(st.lists(st.integers(-10**20, 10**20), min_size=len(divs), max_size=len(divs)))
    sums = [sum(c for q, c in zip(divs, pieces) if g % q == 0) for g in divs]
    assert _divisor_differences(divs, sums) == pieces
    assert _divisor_differences(divs, divs) == [totient(e) for e in divs]


@pytest.mark.parametrize("p", [1, 0, -3, 2.5, 3.0])
def test_fourier_data_rejects_a_base_below_2_for_every_scheme(p):
    for scheme in (torus_model(1), f1_point(), torsion_point_model([3]), torsion_point_model([5])):
        with pytest.raises(PreconditionError, match="base prime must be >= 2"):
            fourier_data(scheme, p)
    with pytest.raises(PreconditionError, match="base prime must be >= 2"):
        gcd_fourier_coefficients(5, p, 4)


def test_fourier_period_cap():
    # the first order past the cap: phi(1048583) = 1048582
    assert MAX_FOURIER_PERIOD < totient(1048583) == 1048582
    with pytest.raises(PreconditionError, match="Fourier period 1048582; at most 1048576"):
        fourier_data(torsion_point_model([1048583]), 2)
    with pytest.raises(PreconditionError, match="Fourier period 499991999982"):
        fourier_data(torsion_point_model([1000003, 999983]), 2)
    # phi(t) >= sqrt(t / 2): past 2 cap^2 an order is rejected without its totient
    for t in (2 * MAX_FOURIER_PERIOD**2 + 1, 10**18 + 3):
        with pytest.raises(PreconditionError, match=f"torsion order {t}: a Fourier period"):
            fourier_data(torsion_point_model([3, t]), 2)
    assert fourier_data(torsion_point_model([4, 1048573]), 3).period == 1048572


def test_fourier_period_stops_at_the_first_order_past_the_cap(monkeypatch):
    # ten primes just below 2^41, each phi past the cap: one totient, not ten
    primes = [2**41 - d for d in (21, 31, 55, 63, 73, 75, 91, 111, 133, 139)]
    calls = []
    real = schemes_module.totient
    monkeypatch.setattr(schemes_module, "totient", lambda t: calls.append(t) or real(t))
    with pytest.raises(PreconditionError, match=f"Fourier period {min(primes) - 1}; at most 1048576"):
        fourier_period(torsion_point_model(primes))
    assert len(calls) <= 1
    assert fourier_period(torsion_point_model([4, 1048573])) == 1048572
