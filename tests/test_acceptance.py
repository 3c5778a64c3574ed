"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from f1zeta.groups import (
    gl_group_data,
    group_counting,
    group_from_name,
    group_zeta,
    torus_group_data,
    verify_family_identities,
)
from f1zeta.powerlog import PowerLogSum, parse_power_log
from f1zeta.regularize import (
    circle_spectrum,
    log_zeta_integral,
    regularized_det,
    two_variable_zeta_closed,
    two_variable_zeta_numeric,
)
from f1zeta.scheme_zeta import (
    betti_profile,
    zeta_of_scheme,
)
from f1zeta.schemes import (
    MonoidScheme,
    TorsionPoint,
    gcd_fourier_coefficients,
    gcd_inner_fourier,
    global_functional_equation,
    local_functional_equation,
    projective_space_model,
    torsion_point_model,
    torus_model,
    totient,
)
from f1zeta.weil import limit_toward_one, smoothed_local_zeta
from f1zeta.zetas import (
    FactoredZeta,
    epsilon_factor,
    evaluate_zeta,
    pretty_zeta,
    zeta_of,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_scheme(rng: random.Random, torsion_free: bool = False) -> MonoidScheme:
    pts = []
    for _ in range(rng.randint(1, 6)):
        rank = rng.randint(0, 4)
        torsion = ()
        if not torsion_free:
            torsion = tuple(
                rng.randint(2, 12) for _ in range(rng.randint(0, 3))
            )
        pts.append(TorsionPoint(rank, torsion))
    return MonoidScheme(tuple(pts))


def test_criterion_1_closed_form_from_betti():
    rng = random.Random(11)
    start = time.perf_counter()
    for _ in range(25):
        scheme = _random_scheme(rng)
        profile = betti_profile(scheme)
        expected = FactoredZeta.from_dict(
            {(l, 0): b for l, b in enumerate(profile.values)}
        )
        assert zeta_of_scheme(scheme) == expected
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 1.0, f"25 schemes, zeta = prod (s-l)^(-b_2l) exactly, {elapsed:.3f}s")


def test_criterion_2_torsion_free_reduction():
    rng = random.Random(23)
    for _ in range(25):
        scheme = _random_scheme(rng, torsion_free=True)
        coeffs: dict[int, int] = {}
        for pt in scheme.points:
            for j in range(pt.rank + 1):
                sign = -1 if (pt.rank - j) % 2 else 1
                coeffs[j] = coeffs.get(j, 0) + sign * math.comb(pt.rank, j)
        expected = FactoredZeta.from_dict({(j, 0): a for j, a in coeffs.items()})
        assert zeta_of_scheme(scheme) == expected
    _report(2, True, "25 torsion-free schemes match the counting-polynomial zeta exactly")


def test_criterion_3_limit_toward_one():
    start = time.perf_counter()
    worst = 0.0
    for scheme in (torsion_point_model([2]), torus_model()):
        z = zeta_of_scheme(scheme)
        for s in (2 + 0j, 3 + 1j):
            value = limit_toward_one(scheme, s, [1 + 1e-6])[0]
            worst = max(worst, abs(value - evaluate_zeta(z, s)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 1.0
    _report(3, ok, f"max |(p-1)^N Z~ - zeta(s)| = {worst:.2e} at p = 1+1e-6, {elapsed:.3f}s")


def test_criterion_4_global_functional_equation():
    for n in range(1, 5):
        report = global_functional_equation(projective_space_model(n))
        assert report.holds and report.chi == n + 1
    _report(4, True, "P^n (n = 1..4): zeta(n-s) = (-1)^(n+1) zeta(s) exactly")


def test_criterion_5_local_functional_equation():
    start = time.perf_counter()
    for n in (1, 2):
        scheme = projective_space_model(n)
        for p in (2, 3, 5):
            report = local_functional_equation(scheme, p)
            assert report.holds and not report.squared_form
            # exact rational-function identity at sample points in T
            z = smoothed_local_zeta(scheme, p)
            chi = report.chi

            def value(t: Fraction) -> Fraction:
                total = Fraction(1)
                for r, e in z.factors:
                    total *= (1 - Fraction(p) ** r * t) ** e
                return total

            for t0 in (Fraction(1, 7), Fraction(3, 5)):
                lhs = value(Fraction(1, p**n) / t0)
                rhs = (-1) ** chi * Fraction(p) ** Fraction(n * chi, 2) * t0**chi * value(t0)
                assert lhs == rhs
    elapsed = time.perf_counter() - start
    _report(5, elapsed < 1.0, f"P1/P2 at p in (2,3,5): exact identity in T, {elapsed:.3f}s")


def test_criterion_6_reductive_groups():
    for r in range(1, 6):
        for group in (gl_group_data(r), torus_group_data(r), group_from_name("SL2")):
            n = group_counting(group)
            center = group.dimension + group.positive_roots
            sign = (-1) ** group.rank
            for lam, m, c in n.terms:
                assert n.coefficient(center - lam, m) == sign * c
        for family in ("gm_power", "gl"):
            report = verify_family_identities(r, family)
            assert report.holds, report.first_failure
    printed = pretty_zeta(group_zeta(gl_group_data(2)))
    assert printed == "(s-3)(s-2)/((s-4)(s-1))"
    _report(6, True, f"r = 1..5 coefficient symmetry + all family identities; GL(2) prints {printed}")


def _random_power_log(rng: random.Random) -> PowerLogSum:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        lam = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
        m = rng.randint(0, 2)
        c = rng.choice([v for v in range(-5, 6) if v])
        terms[(lam, m)] = terms.get((lam, m), 0) + c
    return PowerLogSum.from_dict(terms)


def test_criterion_7_epsilon_law():
    rng = random.Random(37)
    checked = 0
    worst = 0.0
    while checked < 50:
        n = _random_power_log(rng)
        if n.is_zero:
            continue
        eps = epsilon_factor(n)
        expected = -1 if n.value_at_one().numerator % 2 else 1
        assert eps.sign == expected
        worst = max(worst, eps.numeric_residual)
        checked += 1
    _report(7, worst <= 1e-9, f"50 sums: sign = (-1)^N(1), max residual {worst:.2e}")


def test_criterion_8_two_variable_regularization():
    rng = random.Random(41)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            lam = Fraction(rng.randint(-4, 6), rng.choice((1, 2)))
            lam = min(lam, Fraction(3))
            terms[(lam, rng.randint(0, 2))] = rng.randint(1, 5)
        n = PowerLogSum.from_dict(terms)
        top = float(n.degree)
        for w in (0.5, 1.0, 2.0):
            for s in (top + 1.0, top + 2.5):
                closed = two_variable_zeta_closed(n, w, s)
                numeric = two_variable_zeta_numeric(n, w, s)
                worst = max(worst, abs(numeric - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(8, ok, f"20 sums on the (w, s) grid: max relative gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_9_integral_proposition():
    worst = 0.0
    for n in (parse_power_log("1 - u^-1"), PowerLogSum.log_power()):
        z = zeta_of(n)
        for s in (2.0, 3.0):
            integral = log_zeta_integral(n, s).value
            lhs = cmath.exp(-integral)
            rhs = 1 / evaluate_zeta(z, s)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report(9, worst <= 1e-8, f"exp(-integral) vs zeta^-1 at s in (2,3): max gap {worst:.2e}")


def test_criterion_10_regularized_determinant():
    start = time.perf_counter()
    circ = circle_spectrum()
    worst = 0.0
    for s in (0.25, 1.0, 4.0):
        got = regularized_det(circ, s)
        want = 4 * math.sinh(math.pi * math.sqrt(s)) ** 2 / s
        worst = max(worst, abs(got - want) / want)
    s1, s2 = 1e-5, 1e-6
    extrapolated = (s1 * regularized_det(circ, s2) - s2 * regularized_det(circ, s1)) / (s1 - s2)
    zero_gap = abs(extrapolated - 4 * math.pi**2)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and zero_gap <= 1e-4 and elapsed < 30.0
    _report(
        10,
        ok,
        f"det' vs 4 sinh^2(pi sqrt(s))/s: max rel {worst:.2e}; "
        f"s->0 gap {zero_gap:.2e}; {elapsed:.2f}s",
    )


def test_criterion_11_fourier_machinery():
    worst = 0.0
    for t in range(2, 51):
        n0 = totient(t)
        for p in (2, 3, 5, 7):
            coeffs = gcd_fourier_coefficients(t, p, n0)
            for n in range(1, 3 * n0 + 1):
                val = sum(
                    c * cmath.exp(2j * cmath.pi * n * nu / n0)
                    for nu, c in enumerate(coeffs, start=1)
                )
                expected = math.gcd(t, (pow(p, n, t) - 1) % t)
                worst = max(worst, abs(val - expected))
    assert worst <= 1e-10
    for t in range(1, 201):
        assert sum(gcd_inner_fourier(t), Fraction(0)) == t
    _report(11, True, f"gcd reconstruction max error {worst:.2e}; inner sums exact to t = 200")
