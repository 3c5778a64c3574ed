"""Seeded workloads: the ops, the calls into f1zeta and their checks.

Every workload is a cycle of ops with a fixed size schedule; the seed
draws the contents (scheme points, torsion orders, primes, sums,
evaluation points) and the order.  An op's `call` reaches f1zeta only
through module attributes at call time, so the tracer's wrappers see
it.  `canon` turns a result into a plain value (digested and compared);
`check` compares that value with a reference from `reference.py` and
returns a `Verdict`.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import f1zeta as F
from f1zeta import zetas

import reference as ref

RECON_TOL = 1e-9  # Fourier tables must reconstruct gcd(t, p^n - 1) this closely
DECLARED_RECON_TOL = 1e-10  # the tolerance FourierData.verify() declares
NUMERIC_TOL = 1e-8  # relative error allowed on quadrature and spectral values
LIMIT_TOL = 1e-7  # relative error allowed on (p-1)^N Z~(p, p^-s)
RESIDUAL_TOL = 1e-9  # epsilon-factor residual allowed (the CLI default tolerance)
CLI_TIMEOUT_S = 120
CLI_CYCLES = 4  # timed cycles of cli_cold: 60 fresh processes, about 75 s


@dataclass(frozen=True)
class Verdict:
    """`wrong`: an output disagrees with the benchmark's reference.
    `failure`: the op failed without a wrong output: it raised, exited
    nonzero, or missed a tolerance the program declares.  Both count as
    failed ops; only `wrong` makes a run incorrect."""

    wrong: str | None = None
    failure: str | None = None
    rel_err: float | None = None

    @property
    def failed(self) -> bool:
        return self.wrong is not None or self.failure is not None


OK = Verdict()


@dataclass
class Op:
    kind: str
    label: str
    layer: str
    call: Callable[[], object]
    canon: Callable[[object], object]
    check: Callable[[object], Verdict]
    pair: int = 0  # cli records ops run twice: 1 = first run, 2 = rerun
    argv: list[str] | None = None  # cli ops: the f1zeta command line


@dataclass
class Workload:
    name: str
    ops: list[Op]
    sizes: dict
    trace_cycles: int
    subprocess_ops: bool = False
    cycles: int | None = None  # a fixed number of timed cycles instead of --seconds


def _expect(got, want, what: str) -> Verdict:
    return OK if got == want else Verdict(wrong=f"{what}: got {got!r}, want {want!r}")


def _rel(got: complex, want: complex, scale: float | None = None) -> float:
    return abs(got - want) / max(abs(want), scale or 0.0, 1e-300)


def _tol_check(got: complex, want: complex, tol: float, what: str, scale=None) -> Verdict:
    err = _rel(got, want, scale)
    if not err <= tol:
        return Verdict(wrong=f"{what}: relative error {err:.3e} > {tol:.0e}", rel_err=err)
    return Verdict(rel_err=err)


# -- seeded inputs -------------------------------------------------------------


def random_points(rng: random.Random, npoints: int, max_rank: int, torsion: list[int],
                  torsion_prob: float, max_torsion_entries: int = 2) -> ref.Points:
    pts = []
    for _ in range(npoints):
        ts: tuple[int, ...] = ()
        if torsion and rng.random() < torsion_prob:
            ts = tuple(rng.choice(torsion) for _ in range(rng.randint(1, max_torsion_entries)))
        pts.append((rng.randint(0, max_rank), ts))
    return pts


def scheme_dict(points: ref.Points, name: str) -> dict:
    return {"name": name, "points": [{"rank": r, "torsion": list(ts)} for r, ts in points]}


def make_scheme(points: ref.Points, name: str):
    return F.schemes.scheme_from_dict(scheme_dict(points, name))


def pn_points(n: int) -> ref.Points:
    return [(r, ()) for r in range(n + 1) for _ in range(math.comb(n + 1, r + 1))]


def symmetric_sum(rng: random.Random, k: int, pure: bool) -> tuple[dict, int, Fraction]:
    """N = M + c u^omega M(1/u) with M's exponents below omega/2, so that
    N(1/u) = c u^(-omega) N(u) holds and min + max of the support is omega."""
    c = rng.choice((1, -1))
    omega = Fraction(rng.randint(-6, 12), rng.choice((1, 2)))
    terms: dict[tuple[Fraction, int], Fraction] = {}
    while len(terms) < k:
        lam = omega / 2 - Fraction(rng.randint(1, 8 * k), rng.choice((1, 2, 3)))
        m = 0 if pure else rng.randint(0, 3)
        terms[(lam, m)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
    full = dict(terms)
    for (lam, m), a in ref.dual_terms(terms).items():
        full[(lam + omega, m)] = c * a
    return full, c, omega


def random_sum(rng: random.Random, nterms: int, logs: bool, zero_at_one: bool = False,
               lam_range=(-2, 2)) -> dict:
    terms: dict[tuple[Fraction, int], Fraction] = {}
    while len(terms) < nterms:
        lam = Fraction(rng.randint(2 * lam_range[0], 2 * lam_range[1]), 2)
        m = rng.randint(0, 2) if logs else 0
        terms[(lam, m)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3))
    if zero_at_one:
        # pair every pure-power term with an opposite one so that N(1) = 0
        extra = {}
        for (lam, m), c in terms.items():
            if m == 0:
                other = lam - Fraction(rng.randint(1, 4), 2)
                extra[(other, 0)] = extra.get((other, 0), Fraction(0)) - c
        for key, c in extra.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        terms = {key: c for key, c in terms.items() if c}
        if ref.value_at_one(terms) != 0 or not terms:
            return random_sum(rng, nterms, logs, zero_at_one, lam_range)
    return terms


def power_log(terms: dict):
    return F.PowerLogSum.from_dict(terms)


def expression(terms: dict) -> str:
    """Inline power-log syntax, e.g. "3/2*u^{1/2}*log^2 - 2*u^{-1} + 5"."""
    out = ""
    for (lam, m), c in sorted(terms.items()):
        factors = [str(abs(c))]
        if lam:
            factors.append(f"u^{{{lam}}}")
        if m:
            factors.append(f"log^{m}")
        body = "*".join(factors)
        out += ("-" if c < 0 else "+" if out else "") + body
    return out


def _schedule(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _phi_table(limit: int) -> dict[int, list[int]]:
    table: dict[int, list[int]] = {}
    for t in range(2, limit):
        table.setdefault(ref.totient(t), []).append(t)
    return table


# -- canonical forms (evaluated with tracing paused) ----------------------------


def zeta_records(z) -> tuple:
    return tuple(tuple(r) for r in zetas.zeta_to_records(z))


def sum_records(n) -> tuple:
    return tuple(tuple(r) for r in F.powerlog.to_records(n))


def series_pairs(series) -> tuple:
    return tuple((c.numerator, c.denominator) for c in series.coefficients)


def fraction_pairs(values) -> tuple:
    return tuple((Fraction(v).numerator, Fraction(v).denominator) for v in values)


# -- exact_identities ------------------------------------------------------------


def exact_identities(seed: int) -> Workload:
    rng = random.Random(f"exact_identities:{seed}")
    ops: list[Op] = []
    torsion_pool = list(range(2, 13))
    primes = (2, 3, 5, 7)

    def scheme_zeta_op(X, label: str, want) -> Op:
        return Op("scheme_zeta", label, "scheme_zeta",
                  lambda X=X: (F.zeta_of_scheme(X), F.betti_profile(X)),
                  lambda r: (zeta_records(r[0]), r[1].values),
                  lambda got, want=want: _expect(got, want, "factors, betti"))

    def counting_op(X, label: str, want) -> Op:
        return Op("counting_fn", label, "scheme_zeta",
                  lambda X=X: F.scheme_counting_function(X), sum_records,
                  lambda got, want=want: _expect(got, want, "terms"))

    def series_op(X, pts, p: int, order: int, label: str) -> Op:
        return Op("local_series", f"local_zeta_series({label}, p={p}, order={order})", "weil",
                  lambda X=X, p=p, o=order: F.local_zeta_series(X, p, o), series_pairs,
                  lambda got, pts=pts, p=p, o=order: _expect(
                      got, fraction_pairs(ref.local_series(pts, p, o)), "coefficients"))

    for n in (4, 8, 12):
        X = F.projective_space_model(n)
        ops.append(scheme_zeta_op(X, f"zeta_of_scheme+betti_profile(P{n})",
                                  (ref.pn_zeta_records(n), (1,) * (n + 1))))
    for i, n in enumerate((3, 6, 10)):
        X = F.projective_space_model(n)
        p = primes[i]
        ops.append(Op("scheme_fe", f"global+local FE(P{n}, p={p})", "scheme_zeta",
                      lambda X=X, p=p: (F.global_functional_equation(X),
                                        F.local_functional_equation(X, p)),
                      lambda r: (r[0].holds, r[0].chi, r[0].dimension,
                                 r[1].holds, r[1].chi, r[1].exponent_ok),
                      lambda got, n=n: _expect(got, (True, n + 1, n, True, n + 1, True),
                                               "functional equations")))
    for n in (5, 8):
        ops.append(counting_op(F.projective_space_model(n), f"scheme_counting_function(P{n})",
                               ref.poly_records({k: 1 for k in range(n + 1)})))
    for i in range(20):
        npoints = (8, 16, 32, 64)[i % 4]
        pts = random_points(rng, npoints, 6, torsion_pool, 0.5 * (i % 2))
        dim = max(r for r, _ in pts)
        want = (ref.poly_records(ref.counting_coeffs(pts)), ref.betti(pts, dim))
        ops.append(scheme_zeta_op(make_scheme(pts, f"random{npoints}"),
                                  f"zeta_of_scheme+betti_profile({npoints} points #{i})", want))
    for i in range(8):
        npoints = (8, 16)[i % 2]
        pts = random_points(rng, npoints, 5, torsion_pool, 0.5)
        ops.append(counting_op(make_scheme(pts, f"random{npoints}"),
                               f"scheme_counting_function({npoints} points #{i})",
                               ref.poly_records(ref.counting_coeffs(pts))))
    for p in primes:
        for n, order in ((2, 100 if p < 5 else 50), (4, 25)):
            ops.append(series_op(F.projective_space_model(n), pn_points(n), p, order, f"P{n}"))
    for i in range(8):
        pts = random_points(rng, rng.randint(4, 8), 2, torsion_pool, 0.5)
        ops.append(series_op(make_scheme(pts, "random"), pts, primes[i % 4], 25,
                             f"{len(pts)} points #{i}"))
    for family, ranks in (("gl", (2, 4, 6, 8, 9, 10, 11, 12, 14)), ("gm_power", (2, 4, 6, 8, 10, 12, 14))):
        for r in ranks:
            if family == "gl":
                G = F.gl_group_data(r)
                counting = ref.gl_counting(r)
                center = Fraction(r * r + r * (r - 1) // 2)
            else:
                G = F.torus_group_data(r)
                counting = ref.torus_counting(r)
                center = Fraction(r)
            want = (ref.poly_records(counting), True, ((-1) ** r, center), True)
            ops.append(Op("group_fe", f"group FE+families({G.name})", "groups",
                          lambda G=G, r=r, fam=family: (
                              F.group_counting(G), F.group_functional_equation(G),
                              F.verify_family_identities(r, fam)),
                          lambda res: (sum_records(res[0]), res[1].holds,
                                       (res[1].witness.c, res[1].witness.omega)
                                       if res[1].witness else None, res[2].holds),
                          lambda got, want=want: _expect(got, want, "group identities")))
    for i in range(36):
        k = (2, 4, 8, 16, 32, 48)[i % 6]
        pure = i % 2 == 0
        terms, c, omega = symmetric_sum(rng, k, pure)
        N = power_log(terms)
        sign = -1 if ref.value_at_one(terms).numerator % 2 else 1

        def call(N=N, pure=pure):
            w = F.detect_functional_equation(N)
            return w, (F.verify_functional_equation(N, w) if pure and w else None)

        want = (c, omega, (True, sign) if pure else None)
        ops.append(Op("powerlog_fe", f"detect/verify FE({2 * k} terms, logs={not pure} #{i})",
                      "powerlog", call,
                      lambda r: (r[0].c if r[0] else None, r[0].omega if r[0] else None,
                                 (r[1].holds, r[1].prefactor_sign) if r[1] else None),
                      lambda got, want=want: _expect(got, want, "witness and zeta FE")))
    sizes = {"max_n": 12, "max_r": 14, "series_orders": [25, 50, 100],
             "max_points": 64, "powerlog_terms_max": 96}
    return Workload("exact_identities", _schedule(rng, ops), sizes, trace_cycles=2)


# -- torsion_fourier ----------------------------------------------------------------


# (period, torsion entries).  At each of these periods the float table of
# FourierData meets its declared tolerance for every torsion order the
# generator can draw (phi(t) dividing the period, t < 1200) at every prime
# in (2, 3, 5, 7): the worst reconstruction errors are 8e-11 at 180, 4e-11 at
# 210, 2e-11 at 262 and 7e-11 at 330.  Periods such as 200, 240, 300 and 400
# miss it for some draws; known_defects keeps one such case in view.
# The nine tables at period 100 are the twelfth-slowest ops and those next
# to them, so that p90 falls inside one cost class rather than on an edge.
FOURIER_PERIODS = (((20, 2), (40, 1), (60, 2), (80, 1)) + ((100, 1),) * 9
                   + ((120, 1), (150, 2), (180, 1), (210, 1), (262, 2), (330, 1)))


def _fourier_check(got, period: int, tors: tuple[int, ...], p: int) -> Verdict:
    got_period, entries, verified = got
    if got_period != period:
        return Verdict(wrong=f"period {got_period}, want {period}")
    if [e[2] for e in entries] != list(tors):
        return Verdict(wrong=f"entries for torsion {[e[2] for e in entries]}, want {list(tors)}")
    worst = max(ref.gcd_reconstruction_error(e[3], e[2], p) for e in entries)
    if not worst <= RECON_TOL:
        return Verdict(wrong=f"table reconstructs gcd(t, p^n - 1) only to {worst:.3e}")
    if not verified:
        return Verdict(failure=f"verify() is False at period {period}: its float reconstruction "
                            f"misses the declared {DECLARED_RECON_TOL:.0e} (with tabulated roots the "
                            f"table reconstructs to {worst:.1e})")
    return OK


# short enough that every series op is cheaper than a period-100 table
SERIES_ORDERS = (8, 16, 24, 32, 40)


def fourier_op(tors: tuple[int, ...], p: int, period: int) -> Op:
    X = F.torsion_point_model(tors)

    def call():
        fd = F.fourier_data(X, p)
        return fd, fd.verify()

    return Op("fourier", f"fourier_data+verify(torsion {tors}, p={p}, period {period})",
              "schemes", call,
              lambda r: (r[0].period, tuple((x, j, t, tuple(c)) for x, j, t, c in r[0].entries), r[1]),
              lambda got: _fourier_check(got, period, tors, p))


def torsion_fourier(seed: int) -> Workload:
    rng = random.Random(f"torsion_fourier:{seed}")
    phi = _phi_table(1200)
    primes = (2, 3, 5, 7)
    ops: list[Op] = []
    for i, (period, entries) in enumerate(FOURIER_PERIODS):
        tors = (rng.choice(phi[period]),)
        if entries == 2:
            tors += (rng.choice([t for q, ts in phi.items() if period % q == 0 for t in ts]),)
        ops.append(fourier_op(tors, primes[(i + seed) % 4], period))
    for i in range(16):
        lo, hi = ((40, 80), (150, 250), (300, 400), (600, 800))[i % 4]
        t = rng.randint(lo, hi)
        ops.append(Op("inner_fourier", f"gcd_inner_fourier({t})", "schemes",
                      lambda t=t: F.gcd_inner_fourier(t), tuple,
                      lambda got, t=t: OK if ref.inner_fourier_ok(got, t)
                      else Verdict(wrong=f"coefficients do not reconstruct gcd({t}, m)")))
    pool = list(range(2, 61))
    # the point counts are the most numerous ops, so that the median falls
    # inside one cost class rather than on the edge between two
    for i in range(60):
        npoints = 64
        # fixed ranks keep each op's cost independent of the seed
        pts = [(j % 4, ts) for j, (_, ts) in enumerate(random_points(rng, npoints, 3, pool, 0.9))]
        p = primes[i % 4]
        qs = [p**n for n in range(1, 25)]
        ops.append(Op("torsion_count", f"exact_count({npoints} points, q=p^1..p^24, p={p} #{i})",
                      "schemes",
                      lambda X=make_scheme(pts, "torsion"), qs=qs: tuple(F.exact_count(X, q) for q in qs),
                      tuple,
                      lambda got, pts=pts, qs=qs: _expect(
                          got, tuple(ref.point_count(pts, q) for q in qs), "counts")))
    for i in range(24):
        npoints = (2, 4, 8)[i % 3]
        order = SERIES_ORDERS[i % 5]
        pts = [(j % 3, ts) for j, (_, ts) in enumerate(random_points(rng, npoints, 2, pool, 0.9))]
        p = primes[i % 4]
        ops.append(Op("torsion_series",
                      f"local_zeta_series({npoints} torsion points, p={p}, order={order} #{i})",
                      "weil",
                      lambda X=make_scheme(pts, "torsion"), p=p, o=order: F.local_zeta_series(X, p, o),
                      series_pairs,
                      lambda got, pts=pts, p=p, o=order: _expect(
                          got, fraction_pairs(ref.local_series(pts, p, o)), "coefficients")))
    sizes = {"fourier_periods": [pe for pe, _ in FOURIER_PERIODS], "max_period": FOURIER_PERIODS[-1][0],
             "primes": list(primes), "inner_t_max": 800, "series_orders": list(SERIES_ORDERS),
             "count_points": 64}
    return Workload("torsion_fourier", _schedule(rng, ops), sizes, trace_cycles=2)


# -- numeric_validation --------------------------------------------------------------


def numeric_validation(seed: int) -> Workload:
    rng = random.Random(f"numeric_validation:{seed}")
    ops: list[Op] = []
    for _ in range(15):
        terms = random_sum(rng, rng.randint(1, 3), logs=False)
        N = power_log(terms)
        w = complex(round(rng.uniform(0.5, 2.5), 3), rng.choice((0.0, round(rng.uniform(-1, 1), 3))))
        s = complex(float(max(lam for lam, _ in terms)) + round(rng.uniform(0.5, 3), 3),
                    rng.choice((0.0, round(rng.uniform(-2, 2), 3))))
        scale = sum(abs(float(c)) * abs(ref.pure_power_z({k: 1}, w, s)) for k, c in terms.items())
        ops.append(Op("two_variable", f"two_variable_zeta_numeric({len(terms)} terms, w={w}, s={s})",
                      "regularize", lambda N=N, w=w, s=s: F.two_variable_zeta_numeric(N, w, s),
                      complex,
                      lambda got, terms=terms, w=w, s=s, scale=scale: _tol_check(
                          got, ref.pure_power_z(terms, w, s), NUMERIC_TOL, "Z_N(w, s)", scale)))
    for _ in range(15):
        terms = random_sum(rng, rng.randint(1, 2), logs=False, zero_at_one=True)
        N = power_log(terms)
        s = complex(float(max(lam for lam, _ in terms)) + round(rng.uniform(0.5, 3), 3),
                    rng.choice((0.0, round(rng.uniform(-2, 2), 3))))
        ops.append(Op("log_integral", f"log_zeta_integral({len(terms)} terms, s={s})", "zetas",
                      lambda N=N, s=s: F.log_zeta_integral(N, s), lambda r: r.value,
                      lambda got, terms=terms, s=s: _tol_check(
                          cmath.exp(-got), ref.pure_power_inverse_zeta(terms, s),
                          NUMERIC_TOL, "exp(-I)")))
    for _ in range(30):
        s = round(rng.uniform(0.05, 40), 3)
        ops.append(Op("regdet_circle", f"regularized_det(circle, s={s})", "regularize",
                      lambda s=s: F.regularized_det(F.circle_spectrum(), s), float,
                      lambda got, s=s: _tol_check(got, ref.circle_det(s), NUMERIC_TOL, "det")))
    for _ in range(30):
        a = round(rng.uniform(0.1, 0.9), 3)
        s = round(rng.uniform(0.1, 4), 3)
        ops.append(Op("regdet_shifted", f"regularized_det(circle+{a}, s={s})", "regularize",
                      lambda a=a, s=s: F.regularized_det(F.shift_spectrum(F.circle_spectrum(), a), s),
                      float,
                      lambda got, a=a, s=s: _tol_check(got, ref.circle_det(a + s), NUMERIC_TOL, "det")))
    for _ in range(20):
        w = rng.choice((1, 2))
        s = round(rng.uniform(0.1, 10), 3)
        ops.append(Op("spectral_zeta", f"spectral_zeta(circle, w={w}, s={s})", "regularize",
                      lambda w=w, s=s: F.spectral_zeta(F.circle_spectrum(), w, s),
                      lambda r: (r.value, r.error_bound),
                      lambda got, w=w, s=s: _spectral_check(got, ref.circle_zeta(w, s))))
    limit_points = 0
    for _ in range(20):
        pts = limit_scheme_points(rng)
        limit_points = max(limit_points, len(pts))
        top = max(r for r, _ in pts)
        ops.append(limit_op(pts, complex(top + round(rng.uniform(0.2, 2), 3), round(rng.uniform(-1, 1), 3))))
    for _ in range(20):
        terms = random_sum(rng, rng.randint(1, 4), logs=True)
        N = power_log(terms)
        sign = -1 if ref.value_at_one(terms).numerator % 2 else 1
        ops.append(Op("epsilon", f"epsilon_factor({len(terms)} terms)", "zetas",
                      lambda N=N: F.epsilon_factor(N), lambda r: (r.sign, r.numeric_residual),
                      lambda got, sign=sign: _epsilon_check(got, sign)))
    sizes = {"max_terms": 4, "regdet_s_max": 40, "spectral_w": [1, 2],
             "limit_points_max": limit_points, "limit_exponent_sum_max": LIMIT_EXPONENT_SUM_MAX}
    return Workload("numeric_validation", _schedule(rng, ops), sizes, trace_cycles=10)


# limit_toward_one multiplies factors (1 - p^(r-s))^(a_r) in floats.  At
# p = 1 + 1e-6 with Re(s) - r >= 0.2 each |factor| is at least 2e-7, so
# with sum_r |a_r| <= 40 every partial product stays within 1e+-270; past
# about 50 it under- or overflows (known_defects keeps one such case in view).
LIMIT_EXPONENT_SUM_MAX = 40


def limit_scheme_points(rng: random.Random) -> ref.Points:
    """A P^n or a small torsion scheme whose factor exponents a_r satisfy
    sum_r |a_r| <= LIMIT_EXPONENT_SUM_MAX; larger draws are drawn again."""
    while True:
        if rng.random() < 0.5:
            pts = pn_points(rng.randint(1, 4))
        else:
            pts = random_points(rng, rng.randint(2, 6), 3, [2, 3, 4], 0.5)
        if sum(abs(a) for a in ref.counting_coeffs(pts).values()) <= LIMIT_EXPONENT_SUM_MAX:
            return pts


def _spectral_check(got, want: float) -> Verdict:
    value, bound = got
    v = _tol_check(value, want, NUMERIC_TOL, "spectral zeta")
    if v.wrong is None and abs(value - want) > bound + 1e-12 * abs(want):
        return Verdict(failure=f"achieved error {abs(value - want):.2e} exceeds the reported "
                            f"bound {bound:.2e}", rel_err=v.rel_err)
    return v


def limit_op(pts: ref.Points, s: complex) -> Op:
    X = make_scheme(pts, "limit")
    bases = [1 + 10.0**-k for k in range(1, 7)]
    return Op("limit", f"limit_toward_one({len(pts)} points, s={s})", "weil",
              lambda: F.limit_toward_one(X, s), tuple,
              lambda got: _limit_check(got, pts, s, bases))


def _limit_check(got, pts, s, bases) -> Verdict:
    want = ref.limit_values(pts, s, bases)
    if len(got) != len(want):
        return Verdict(wrong=f"{len(got)} values, want {len(want)}")
    worst = max(_rel(g, w) for g, w in zip(got, want))
    if not worst <= LIMIT_TOL:
        return Verdict(wrong=f"relative error {worst:.3e} > {LIMIT_TOL:.0e}", rel_err=worst)
    return Verdict(rel_err=worst)


def _epsilon_check(got, sign: int) -> Verdict:
    got_sign, residual = got
    if got_sign != sign:
        return Verdict(wrong=f"sign {got_sign}, want {sign}")
    if not residual <= RESIDUAL_TOL:
        return Verdict(failure=f"residual {residual:.2e} > {RESIDUAL_TOL:.0e}")
    return OK


# -- cli_cold --------------------------------------------------------------------------


def _cli_lines(got) -> list[str]:
    return got[1].decode().splitlines()


def _cli_check(got, parse: Callable[[list[str]], Verdict]) -> Verdict:
    code, _ = got
    if code != 0:
        return Verdict(failure=f"exit code {code}")
    return parse(_cli_lines(got))


def _lines_equal(want: list[str]) -> Callable[[list[str]], Verdict]:
    return lambda lines: _expect(lines, want, "stdout")


def _records_lines(recs) -> list[str]:
    return ["\t".join(str(v) for v in rec) for rec in recs]


def _parse_local(lines, want) -> Verdict:
    got = [tuple(int(x) for x in line.split("\t")[1].split("/")) for line in lines]
    return _expect(tuple(got), fraction_pairs(want), "series")


def _parse_limit(lines, pts, s) -> Verdict:
    rows = [line.split("\t") for line in lines]
    bases = [float(r[0]) for r in rows]
    got = [complex(float(r[1]), float(r[2])) for r in rows]
    if bases != [1 + 10.0**-k for k in range(1, len(bases) + 1)]:
        return Verdict(wrong=f"bases {bases}")
    return _limit_check(got, pts, s, bases)


def _parse_regdet(lines, s) -> Verdict:
    return _tol_check(float(lines[0]), ref.circle_det(s), NUMERIC_TOL, "det")


def _parse_epsilon(lines, sign) -> Verdict:
    fields = dict(line.split("\t") for line in lines)
    return _epsilon_check((int(fields["sign"]), float(fields["residual"])), sign)


def _parse_group(lines, name, counting, center, sign) -> Verdict:
    fields = {}
    identities = []
    for line in lines:
        key, _, rest = line.partition("\t")
        if key == "identity":
            identities.append(rest.split("\t")[0])
        else:
            fields[key] = rest
    want_fe = f"true\tcenter\t{center}\tsign\t{sign}"
    got = (fields.get("group"), fields.get("counting"), fields.get("fe"), identities)
    return _expect(got, (name, ref.format_poly(counting), want_fe, ["true"] * 3), "group report")


def _parse_fourier(lines, tors, p) -> Verdict:
    period = int(lines[0].split("\t")[1])
    tables: dict[int, list[complex]] = {}
    for line in lines[1:-1]:
        _, j, _, _, re_, im = line.split("\t")
        tables.setdefault(int(j), []).append(complex(float(re_), float(im)))
    want_period = math.lcm(*(ref.totient(t) for t in tors))
    if period != want_period or len(tables) != len(tors):
        return Verdict(wrong=f"period {period} with {len(tables)} tables, want {want_period}")
    worst = max(ref.gcd_reconstruction_error(tables[j], t, p) for j, t in enumerate(tors))
    if not worst <= RECON_TOL:
        return Verdict(wrong=f"table reconstructs gcd(t, p^n - 1) only to {worst:.3e}")
    return OK


def cli_command(python: str, argv: list[str], env: dict, cwd: str) -> Callable[[], object]:
    def call():
        proc = subprocess.run([python, "-m", "f1zeta.cli", *argv], env=env, cwd=cwd,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout

    return call


def cli_cases(seed: int, workdir: str) -> list[tuple[str, list[str], Callable, bool]]:
    """(label, argv, stdout check, records?) for the ten subcommands; writes
    the scheme files the argv lists name into `workdir`."""
    rng = random.Random(f"cli_cold:{seed}")
    os.makedirs(workdir, exist_ok=True)

    def write(name: str, points: ref.Points, **extra) -> str:
        path = os.path.join(workdir, name)
        data = dict(scheme_dict(points, name), **extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    cases = []
    n = rng.randint(1, 6)
    pn = write("pn.json", pn_points(n), dimension=n, smooth_projective=True)
    q = rng.randint(2, 50)
    cases.append((f"count P{n} q={q}", ["count", "--scheme", pn, "--q", str(q)],
                  _lines_equal([str(ref.pn_count(n, q))]), False))
    cases.append((f"fe-check P{n}", ["fe-check", "--scheme", pn, "--format", "records"],
                  _lines_equal(["holds\ttrue", f"chi\t{n + 1}"]), True))

    pts = random_points(rng, rng.randint(4, 10), 4, list(range(2, 13)), 0.5)
    cases.append(("zeta records", ["zeta", "--scheme", write("zeta.json", pts), "--format", "records"],
                  _lines_equal(_records_lines(ref.poly_records(ref.counting_coeffs(pts)))), True))

    pts = random_points(rng, rng.randint(2, 4), 2, list(range(2, 9)), 0.7)
    p = rng.choice((2, 3, 5, 7))
    terms = rng.randint(6, 12)
    want = ref.local_series(pts, p, terms)
    cases.append((f"local(p={p}, terms={terms})",
                  ["local", "--scheme", write("local.json", pts), "--p", str(p), "--terms", str(terms)],
                  lambda lines, want=want: _parse_local(lines, want), False))

    m = rng.randint(1, 3)
    s = complex(m + round(rng.uniform(0.2, 2), 3), round(rng.uniform(-1, 1), 3))
    count = rng.randint(3, 6)
    lim = write("limit.json", pn_points(m), dimension=m, smooth_projective=True)
    cases.append((f"limit P{m} s={s}",
                  ["limit", "--scheme", lim, "--s", f"{s.real}{s.imag:+}i", "--terms", str(count),
                   "--format", "records"],
                  lambda lines, pts=pn_points(m), s=s: _parse_limit(lines, pts, s), True))

    terms_d = random_sum(rng, rng.randint(2, 5), logs=True)
    cases.append(("dual records", ["dual", f"--powers={expression(terms_d)}", "--format", "records"],
                  _lines_equal(_records_lines(ref.records(ref.dual_terms(terms_d)))), True))

    terms_e = random_sum(rng, rng.randint(1, 4), logs=True)
    sign = -1 if ref.value_at_one(terms_e).numerator % 2 else 1
    cases.append(("epsilon records", ["epsilon", f"--powers={expression(terms_e)}", "--format", "records"],
                  lambda lines, sign=sign: _parse_epsilon(lines, sign), True))

    r = rng.randint(2, 6)
    if rng.random() < 0.5:
        group, name, counting, center = f"GL:{r}", f"GL({r})", ref.gl_counting(r), r * r + r * (r - 1) // 2
    else:
        group, name, counting, center = f"Gm:{r}", f"Gm^{r}", ref.torus_counting(r), r
    cases.append((f"group {group}", ["group", "--group", group],
                  lambda lines, a=(name, counting, center, (-1) ** r): _parse_group(lines, *a), False))

    s_det = round(rng.uniform(0.1, 20), 3)
    cases.append((f"regdet s={s_det}", ["regdet", "--spectrum", "circle", "--s", str(s_det)],
                  lambda lines, s=s_det: _parse_regdet(lines, s), False))

    small = [t for t in range(2, 40) if ref.totient(t) in (2, 4, 6, 8, 12)]
    tors = tuple(rng.choice(small) for _ in range(rng.randint(1, 2)))
    p = rng.choice((2, 3, 5, 7))
    fpath = write("fourier.json", [(0, tors)])
    cases.append((f"fourier torsion {tors} p={p}", ["fourier", "--scheme", fpath, "--p", str(p)],
                  lambda lines, tors=tors, p=p: _parse_fourier(lines, tors, p), False))
    return cases


def cli_cold(seed: int, workdir: str, python: str, env: dict, root: str) -> Workload:
    ops = []
    rng = random.Random(f"cli_cold-order:{seed}")
    for label, argv, parse, records in _schedule(rng, cli_cases(seed, workdir)):
        call = cli_command(python, argv, env, root)
        check = (lambda got, parse=parse: _cli_check(got, parse))
        for run in ((1, 2) if records else (0,)):
            layer = "regularize" if argv[0] == "regdet" else "cli"
            ops.append(Op(argv[0], label + (f" run {run}" if run else ""), layer, call,
                          lambda got: got, check, pair=run, argv=argv))
    sizes = {"subcommands": 10, "processes_per_cycle": len(ops), "max_n": 6, "max_r": 6,
             "max_period": 24, "series_orders": [6, 12]}
    return Workload("cli_cold", ops, sizes, trace_cycles=1, subprocess_ops=True, cycles=CLI_CYCLES)


IN_PROCESS = {
    "numeric_validation": numeric_validation,
    "exact_identities": exact_identities,
    "torsion_fourier": torsion_fourier,
}


def known_defects(name: str) -> list[Op]:
    """Fixed inputs just outside a workload's domain on which f1zeta is known
    to fail: float under/overflow in limit_toward_one's factor product
    (ROADMAP item 4) and the float Fourier table missing its declared
    tolerance (ROADMAP item 3).  They run once, untimed, after the timed
    ops; the result lists their outcome and does not count them as ops."""
    if name == "numeric_validation":
        return [limit_op([(0, (4, 4))] * 4, complex(0.5, 0.25))]
    if name == "torsion_fourier":
        return [fourier_op((802,), 5, 400)]
    return []


def child_env(src: str) -> dict:
    """Environment for child processes: the working tree's src, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build(name: str, seed: int, root: str) -> Workload:
    """The workload's inputs for `seed` (cli_cold also writes its input files)."""
    if name == "cli_cold":
        workdir = os.path.join("bench", "out", f"cli-inputs-{seed}")  # relative to root
        return cli_cold(seed, workdir, sys.executable, child_env(os.path.join(root, "src")), root)
    return IN_PROCESS[name](seed)
