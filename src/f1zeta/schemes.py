"""Monoid-scheme point data and its counting functions.

A scheme is encoded by its points, stored as runs of equal points in
point order: at each point the unit group contributes a free rank R(x)
and a list of torsion orders t_{x,j} >= 2 (the torsion cardinality T(x)
is their product).  Over the field with q elements the point count is

    #X(F_q) = sum_x (q-1)^R(x) * prod_j gcd(t_{x,j}, q-1),

evaluated by Horner in q - 1 over the scheme's count profile, the one
derived form of its points; the torsion-smoothed variant is the same
Horner with each gcd replaced by t_{x,j}.  The Fourier machinery expands
n |-> gcd(t, p^n - 1), which is periodic of period phi(t), into its
discrete Fourier series, whose coefficients are exact rationals, divisor
differences of gcd(t, p^h - 1), checked in int.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby, repeat
from typing import Sequence, Union

from .errors import ParseError, PreconditionError
from .powerlog import (
    MAX_COUNTING_DEGREE, FEReport, PowerLogSum, _binomial_row, _check_integer, _exact_or_real,
    _fe_report, _integer, _read_json, _Record, _shown)

COMPLEX_TOLERANCE = 1e-10  # declared tolerance for Fourier reconstruction
MAX_FOURIER_PERIOD = 1 << 20  # coefficients per torsion order in a Fourier table


def totient(n: int) -> int:
    """Euler's phi via trial-division factorization, for n up to
    2 MAX_FOURIER_PERIOD^2, past which `fourier_period` needs no phi."""
    _check_integer(n, "totient argument", 1, 2 * MAX_FOURIER_PERIOD**2)
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


class TorsionPoint(_Record):
    """One scheme point: unit-group rank and torsion orders."""

    rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_integer(self.rank, "rank", 0)
        torsion = self.__dict__["torsion_orders"] = tuple(self.torsion_orders)
        for t in torsion:
            _check_integer(t, "a torsion order", 2)

    @property
    def torsion_cardinality(self) -> int:
        return math.prod(self.torsion_orders)


def _as_run(run: object) -> tuple[TorsionPoint, object]:
    """A run (point, k), its k still unchecked; a plain point is a run of 1."""
    if isinstance(run, TorsionPoint):
        return run, 1
    if isinstance(run, (tuple, list)) and len(run) == 2 and isinstance(run[0], TorsionPoint):
        return run
    raise PreconditionError(
        f"a run must be a TorsionPoint or a pair (TorsionPoint, k), got {_shown(run)}")


class MonoidScheme(_Record):
    """Runs (point, k >= 1) in point order, adjacent equal points merged so that
    equal schemes are equal however written (a plain point is a run of 1), plus
    asserted dimension / projectivity metadata.  No library function reads `points`.

    `smooth_projective` is a caller assertion: it cannot be decided from
    point data, and its observable consequence (Betti symmetry) is
    verified by the functional-equation checks rather than assumed.
    """

    runs: tuple[tuple[TorsionPoint, int], ...]
    dimension: int | None = None
    smooth_projective: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        pairs = [_as_run(run) for run in self.runs]
        runs = self.__dict__["runs"] = tuple(
            (pt, sum(_check_integer(k, "run multiplicity", 1) for _, k in group))
            for pt, group in groupby(pairs, lambda run: run[0]))
        if not runs:
            raise PreconditionError("a scheme needs at least one point")
        if self.dimension is not None:
            # the Betti profile and the zeta tables have an entry per index up to it
            _check_integer(self.dimension, "declared dimension", 0, MAX_COUNTING_DEGREE)
        # the top rank, the counting degree, by a walk that keeps the count profile lazy
        _check_integer(max(pt.rank for pt, _ in runs), "point rank", most=MAX_COUNTING_DEGREE)

    @cached_property
    def points(self) -> tuple[TorsionPoint, ...]:
        """The points one by one, expanded from the runs on first read."""
        return tuple(chain.from_iterable(repeat(pt, k) for pt, k in self.runs))

    @property
    def max_rank(self) -> int:
        return self.count_profile[1][0][0]  # the top row's rank

    @property
    def dim(self) -> int:
        """Declared dimension, defaulting to the maximal rank."""
        return self.max_rank if self.dimension is None else self.dimension

    @cached_property
    def count_profile(self) -> tuple[tuple[int, ...], tuple[tuple[int, tuple, int], ...]]:
        """(orders, rows), built once per scheme from its runs: the distinct
        torsion orders, and per occupied rank R from the top down the row
        (R, (k, indices into orders) per point type of rank R with its
        multiplicity k, R minus the next occupied rank).  Every count
        depends on a point only through its type."""
        types: Counter = Counter()
        for pt, k in self.runs:
            types[pt.rank, pt.torsion_orders] += k
        orders = sorted({t for _, torsion in types for t in torsion})
        index = {t: i for i, t in enumerate(orders)}
        rows: dict[int, list] = {}
        for (rank, torsion), k in sorted(types.items(), reverse=True):
            rows.setdefault(rank, []).append((k, tuple(index[t] for t in torsion)))
        below = [*rows, 0][1:]  # the lowest row drops to rank 0
        return tuple(orders), tuple(
            (r, tuple(typed), r - b) for (r, typed), b in zip(rows.items(), below))

    @cached_property
    def _coefficients(self) -> tuple[int, ...]:
        """`counting_coefficients`, from the count profile's rows."""
        orders, rows = self.count_profile
        coeffs = [0] * (self.max_rank + 1)
        for row in rows:
            w = _count((row,), orders, 1)  # w_R: the row's own count at m = 1
            for j, c in enumerate(_binomial_row(row[0])):
                coeffs[j] += w * c
        return tuple(coeffs)

    @cached_property
    def counting(self) -> PowerLogSum:
        """The smoothed counting function sum_k a_k u^k as a power-log sum,
        built once per scheme from `counting_coefficients` and kept with it."""
        return PowerLogSum.from_int_coefficients(self._coefficients)


# -- counting ----------------------------------------------------------


def _count(rows: Sequence[tuple[int, tuple, int]], values: Sequence,
           m: Union[int, Fraction]) -> Union[int, Fraction]:
    """sum_R w_R m^R over the rows of a count profile, by Horner in m: the
    rank weights w_R = sum k prod_j values[i_j] over the row's types, each
    added to the total once, then one multiply per occupied rank, by
    m^(rank drop)."""
    total = 0
    for _, types, drop in rows:
        weight = 0
        for k, indices in types:
            for i in indices:
                k *= values[i]
            weight += k
        total += weight
        if drop:  # m^drop; a plain multiply for the common drop of 1
            total *= m if drop == 1 else m**drop
    return total


def exact_count(scheme: MonoidScheme, q: int) -> int:
    """#X(F_q) = sum_x (q-1)^R(x) prod_j gcd(t_{x,j}, q-1), in int: one gcd
    per distinct torsion order of `scheme.count_profile`, then `_count` in
    m = q - 1.

    The caller is responsible for q being a prime power when modelling
    an actual finite field; any integer q >= 2 is accepted.
    """
    # `_check_integer(q, "q", 2)` inline, as counts are the hottest op of the
    # torsion_fourier benchmark; a bool is below 2, so this test is the rule
    if not isinstance(q, int) or q < 2:
        _check_integer(q, "q", 2)
    m = q - 1
    orders, rows = scheme.count_profile
    # a torsion-free scheme skips the comprehension, a call of its own
    return _count(rows, [math.gcd(t, m) for t in orders] if orders else orders, m)


def smoothed_count(scheme: MonoidScheme, q: Union[int, Fraction, float]) -> Fraction:
    """Torsion-smoothed count sum_x T(x) (q-1)^R(x), exact in q: the Horner
    of `exact_count` with each gcd(t, q-1) replaced by t.

    Agrees with `exact_count` at integers q = 1 mod every torsion order.
    """
    qq = Fraction(_exact_or_real(q, "q > 0"))
    if qq <= 0:
        raise PreconditionError(f"smoothed counts need q > 0, got {_shown(q)}")
    orders, rows = scheme.count_profile
    return Fraction(_count(rows, orders, qq - 1))  # an int when every point has rank 0


def counting_coefficients(scheme: MonoidScheme) -> tuple[int, ...]:
    """a_0..a_R with sum_x T(x) (q-1)^R(x) = sum_k a_k q^k, the vector behind
    every torsion-smoothed quantity: a_k = sum_R w_R C(R, k) (-1)^(R-k)
    over the rank weights w_R = sum_{x: R(x) = R} T(x).  Built once per
    scheme from its count profile and kept with it."""
    return scheme._coefficients


# -- functional equations ------------------------------------------------


def global_functional_equation(scheme: MonoidScheme) -> FEReport:
    """Exact check of zeta(d - s) = (-1)^chi zeta(s), in integers.

    Reflection sends the factor (s - r)^(-a_r) to (s - d + r)^(-a_r), with
    sign (-1)^N(1), so the identity holds iff the whole counting
    polynomial is a palindrome about d, a_k = a_(d-k); the declared
    dimension pads it with zeros and never cuts it, so a rank R > d shows
    as the asymmetry (d - R, 0, a_R > 0).  chi = N(1).  Requires the
    smooth_projective assertion.
    """
    if not scheme.smooth_projective:
        raise PreconditionError("global functional equation requires smooth_projective")
    return _fe_report(counting_coefficients(scheme), scheme.dim)


def local_functional_equation(scheme: MonoidScheme, p: int) -> FEReport:
    """Exact check of Z(p, 1/(p^d T)) = (-1)^chi p^(d chi/2) T^chi Z(p, T)
    on the smoothed local zeta prod_r (1 - p^r T)^(e_r), e_r = -a_r.

    T -> 1/(p^d T) sends each (1 - p^r T)^e to (-p^(r-d) / T)^e
    (1 - p^(d-r) T)^e, so the identity holds iff e_r = e_(d-r) for every
    r, which also balances the power of p (`exponent_ok`).  That is the
    global check's palindrome of the whole counting polynomial, padded by
    d and never cut: p is only validated, and the report is the global one.
    """
    if not scheme.smooth_projective:
        raise PreconditionError("local functional equation requires smooth_projective")
    _check_integer(p, "base prime", 2)
    return global_functional_equation(scheme)


# -- Fourier expansion of n |-> gcd(t, p^n - 1) -------------------------


def fourier_period(scheme: MonoidScheme) -> int:
    """lcm of phi(t) over all torsion orders; 1 for torsion-free schemes.

    phi(t) is always a multiple of the minimal period, and is used as-is
    (no minimal-period reduction) because it is independent of p.  The
    lcm runs over the distinct orders and raises at the first one taking
    it past MAX_FOURIER_PERIOD; as phi(t) >= sqrt(t / 2), an order past
    2 cap^2 is rejected before any totient runs.
    """
    orders = scheme.count_profile[0]
    if (top := max(orders, default=1)) > 2 * MAX_FOURIER_PERIOD**2:
        raise PreconditionError(f"torsion order {_shown(top)}: a Fourier period of at most "
                                f"{MAX_FOURIER_PERIOD} is supported")
    n0 = 1
    for t in orders:
        n0 = _check_integer(math.lcm(n0, totient(t)), "Fourier period", most=MAX_FOURIER_PERIOD)
    return n0


def _divisors(n: int) -> list[int]:
    """Divisors of n >= 1 in increasing order, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d < n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_to(t: int, p: int) -> int:
    """t', the part of t prime to p: gcd(t, p^h - 1) = gcd(t', p^h - 1), of period ord_t'(p)."""
    while (g := math.gcd(t, p)) > 1:
        t //= g
    return t


def _period_divides(t: int, p: int, n: int) -> bool:
    """ord_t'(p) divides n: gcd(t, p^n - 1), taken in residues, is all of t'."""
    return math.gcd(t, pow(p, n, t) - 1) == _prime_to(t, p)


def _divisor_differences(divs: list[int], values: Sequence[int]) -> list[int]:
    """The P_g with values_g = sum of P_q over the q dividing g, for the
    increasing divisors g of n: Moebius inversion on them, in int."""
    out: list[int] = []
    for g, v in zip(divs, values):  # increasing, so each q | g is done
        out.append(v - sum(c for q, c in zip(divs, out) if g % q == 0))
    return out


def _class_vector(divs: list[int], weights: list[int]) -> tuple[Fraction, ...]:
    """(v_1, ..., v_n), v_nu = sum of weights_o / o over the o | n = divs[-1]
    with (n/o) | nu: over the denominator n, one int sum of the pieces
    weights_o (n/o) and one Fraction per class gcd(nu, n)."""
    n = divs[-1]
    pieces = [(q, w * q) for q, w in zip(divs, reversed(weights)) if w]  # q = n/o
    by_class = {g: Fraction(sum(c for q, c in pieces if g % q == 0), n) for g in divs}
    return tuple([by_class[math.gcd(nu, n)] for nu in range(1, n + 1)])


def gcd_fourier_coefficients(t: int, p: int, n0: int) -> tuple[Fraction, ...]:
    """Coefficients c_nu, nu = 1..n0, of gcd(t, p^n - 1) as a Fourier
    series sum_nu c_nu xi^(n nu) in n, where xi = e^(2 pi i / n0).

    With t' the part of t prime to p, gcd(t, p^n - 1) = gcd(t', p^n - 1)
    = sum_{o | n} W_o, W_o the sum of phi(e) over the e | t' with
    ord_e(p) = o: the W_o are divisor differences over the h | n0.  As
    [o | n] = (1/o) sum over the nu that are multiples of n0/o of
    xi^(n nu), the c_nu = sum of W_o/o over the o | n0 with (n0/o) | nu
    are exact rationals, real and a function of gcd(nu, n0).

    n0 <= MAX_FOURIER_PERIOD must be a multiple of the actual period ord_t'(p)
    (phi(t) always works); other values are rejected since reconstruction would fail.
    """
    _check_integer(t, "torsion order", 2)
    _check_integer(p, "base prime", 2)
    _check_integer(n0, "period length", 1, MAX_FOURIER_PERIOD)
    if not _period_divides(t, p, n0):
        raise PreconditionError(
            f"{n0} is not a multiple of the period of gcd({_shown(t)}, {_shown(p)}^n - 1)")
    heights = _divisors(n0)
    gcds = [math.gcd(t, pow(p, h, t) - 1) for h in heights]  # gcd(t, p^h - 1)
    return _class_vector(heights, _divisor_differences(heights, gcds))


def gcd_inner_fourier(t: int) -> tuple[Fraction, ...]:
    """Fourier coefficients d_alpha of m |-> gcd(t, m) on Z/tZ.

    gcd(t, .) is even mod t, so the coefficients are real; writing
    gcd(t, m) = sum_{e | t, e | m} phi(e) and using orthogonality gives
    the exact rational form d_alpha = sum over e | t with (t/e) | alpha
    of phi(e)/e.  In particular sum_alpha d_alpha = sum_{e|t} phi(e) = t
    holds exactly in rational arithmetic.  One per residue: t <= MAX_FOURIER_PERIOD.
    """
    _check_integer(t, "modulus", 1, MAX_FOURIER_PERIOD)
    divs = _divisors(t)
    return _class_vector(divs, _divisor_differences(divs, divs))  # e = sum_{q | e} phi(q)


class FourierData(_Record):
    """Per-(point, torsion index) Fourier coefficients at a fixed prime.

    Each coefficient vector has length `period` = n0 and expands
    gcd(t, p^n - 1) as sum_nu c_nu xi^(n nu) with xi = e^(2 pi i / n0).
    """

    prime: int
    period: int
    entries: tuple[tuple[int, int, int, tuple[Fraction, ...]], ...] = ()
    # entry layout: (point index, torsion index, torsion order, coefficient vector)

    def __post_init__(self) -> None:
        _check_integer(self.prime, "base prime", 2)
        _check_integer(self.period, "Fourier period", 1, MAX_FOURIER_PERIOD)

    def reconstruction_error(self) -> float:
        """Max |sum_nu c_nu xi^(n nu) - gcd(t, p^n - 1)| over all n, exactly
        at one n per class gcd(n, n0) and once per distinct (torsion order
        t >= 2, vector) pair; inf for a vector that is not constant on the
        classes gcd(nu, n0) (or not of length n0), for a class value that
        is not a real rational, such as a complex one or a str, and for a
        row whose period ord_t'(p) does not divide n0 (`_period_divides`).
        Ints, Fractions and floats are read exactly, as Fraction(c); a
        vector that is a str, or no sequence, is a PreconditionError.

        The inverse of `_class_vector`: the class values, scaled to
        integers by their common denominator D, are split into pieces
        P_q (q | n0) with c_nu = sum of P_q over the q dividing nu, and the
        indicator [q | nu] has the series (n0/q) [(n0/q) | n].  So D times
        the series is an integer at every n, and each pair's error
        max_n |value D - gcd D| / D is rounded once.
        """
        n0, p = self.period, self.prime
        # fourier_data shares one vector per torsion order; the type keeps 3.0 from passing as 3
        try:
            pairs = {(type(t), t, id(c)): (t, c) for _, _, t, c in self.entries}.values()
        except (TypeError, ValueError) as exc:  # not four fields, or an order such as [3]
            raise PreconditionError(f"a Fourier entry is (point, slot, order, vector): {exc}") from None
        for t, coeffs in pairs:
            _check_integer(t, "a torsion order", 2)
            # None or a number has no length to read; a str's characters are no numbers
            if not isinstance(coeffs, Collection) or isinstance(coeffs, str):
                raise PreconditionError(f"a Fourier vector must be a sequence, got {_shown(coeffs)}")
        divs = _divisors(n0)
        classes = [math.gcd(nu, n0) for nu in range(1, n0 + 1)]
        worst = 0.0
        for t, coeffs in pairs:
            # The series depends on n only through gcd(n, n0), and the row does
            # iff ord_t'(p) divides n0: the smallest n in class g is g.
            by_class = dict(zip(classes, coeffs))
            if (len(coeffs) != n0 or list(map(by_class.__getitem__, classes)) != list(coeffs)
                    or not _period_divides(t, p, n0)):
                return math.inf
            try:  # Fraction would parse a str: one is dropped here, so the count falls short
                values = [Fraction(v) for v in map(by_class.__getitem__, divs) if not isinstance(v, str)]
            except (TypeError, ValueError, OverflowError):  # complex, nan, inf
                return math.inf
            if len(values) < len(divs):  # a str class value
                return math.inf
            scale = math.lcm(*[v.denominator for v in values])
            pieces = _divisor_differences(
                divs, [v.numerator * (scale // v.denominator) for v in values])
            terms = [(n0 // q, c * (n0 // q)) for q, c in zip(divs, pieces) if c]
            err = max(abs(sum(c for o, c in terms if g % o == 0)
                          - math.gcd(t, pow(p, g, t) - 1) * scale)  # gcd(t, p^g - 1)
                      for g in divs)
            # int / int is correctly rounded: the float of Fraction(err, scale)
            worst = max(worst, err / scale)
        return worst

    def verify(self) -> bool:
        """The exact error of `reconstruction_error`, one n per class gcd(n, n0),
        is within the declared complex tolerance; an inf table never is."""
        return self.reconstruction_error() <= COMPLEX_TOLERANCE


def fourier_data(scheme: MonoidScheme, p: int) -> FourierData:
    """The table c_{x,j,nu}(p) point by point, its size capped before any vector is built."""
    _check_integer(p, "base prime", 2)
    n0 = fourier_period(scheme)
    rows = n0 * sum(k * len(pt.torsion_orders) for pt, k in scheme.runs)
    if rows > MAX_FOURIER_PERIOD:
        raise PreconditionError(f"a Fourier table of {_shown(rows)} rows (entries times period); "
                                f"at most {MAX_FOURIER_PERIOD} are supported")
    vectors = {t: gcd_fourier_coefficients(t, p, n0) for t in scheme.count_profile[0]}
    entries, start = [], 0
    for pt, k in scheme.runs:  # a run's points take the indices start .. start + k - 1
        if pt.torsion_orders:  # the rows cap bounds these runs; a torsion-free one may be huge
            entries += [(i, j, t, vectors[t]) for i in range(start, start + k)
                        for j, t in enumerate(pt.torsion_orders)]
        start += k
    return FourierData(p, n0, tuple(entries))


# -- ready-made models --------------------------------------------------


def f1_point() -> MonoidScheme:
    """The terminal point: one rank-0 torsion-free point."""
    return MonoidScheme((TorsionPoint(0),), dimension=0, smooth_projective=True, name="point")


def torus_model(r: int = 1) -> MonoidScheme:
    """The r-fold multiplicative group: one point of rank r."""
    _check_integer(r, "torus rank", 1)
    return MonoidScheme((TorsionPoint(r),), name=f"Gm^{r}" if r > 1 else "Gm")


def projective_space_model(n: int) -> MonoidScheme:
    """n-dimensional projective space: a run of C(n+1, r+1) points per rank r.

    The counts reproduce 1 + q + ... + q^n; n <= MAX_COUNTING_DEGREE.
    """
    _check_integer(n, "projective dimension", 0, MAX_COUNTING_DEGREE)
    return MonoidScheme(tuple((TorsionPoint(r), math.comb(n + 1, r + 1)) for r in range(n + 1)),
                        dimension=n, smooth_projective=True, name=f"P{n}")


def torsion_point_model(torsion_orders: Sequence[int], rank: int = 0) -> MonoidScheme:
    """A single point with prescribed rank and torsion."""
    return MonoidScheme(
        (TorsionPoint(rank, tuple(torsion_orders)),),
        name="torsion-point",
    )


# -- scheme file format --------------------------------------------------


def _bounded_integer(value: object, least: int, what: str) -> int:
    """An integer >= least under the record integer rule (`powerlog._integer`):
    a bool, a float or a missing value is a ParseError, never truncated."""
    try:
        n = _integer(value)
    except ValueError:
        n = least - 1
    if n < least:
        raise ParseError(f"{what} must be an integer >= {least}, got {_shown(value)}")
    return n


def scheme_from_dict(data: object) -> MonoidScheme:
    if not isinstance(data, dict):
        raise ParseError("scheme file must contain a JSON object")
    raw_points = data.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ParseError("scheme file needs a nonempty 'points' list")
    runs, key = [], None
    for rec in raw_points:
        if not isinstance(rec, dict):
            raise ParseError(f"bad point record {_shown(rec)}")
        rank = _bounded_integer(rec.get("rank"), 0, "point rank")
        torsion = rec.get("torsion", [])
        if not isinstance(torsion, list):
            raise ParseError(f"torsion must be a list of integers >= 2, got {_shown(torsion)}")
        orders = tuple(_bounded_integer(t, 2, "a torsion entry") for t in torsion)
        k = _bounded_integer(rec["multiplicity"], 1, "multiplicity") if "multiplicity" in rec else 1
        if (rank, orders) != key:  # one point object per run of equal records
            key, pt = (rank, orders), TorsionPoint(rank, orders)
        runs.append((pt, k))
    dimension = data.get("dimension")
    if dimension is not None:
        dimension = _bounded_integer(dimension, 0, "dimension")
    smooth = data.get("smooth_projective", False)
    if not isinstance(smooth, bool):
        raise ParseError("smooth_projective must be a boolean")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    return MonoidScheme(runs, dimension=dimension, smooth_projective=smooth, name=name)


def scheme_to_dict(scheme: MonoidScheme) -> dict:
    out: dict = {
        "name": scheme.name,
        "points": [
            {"rank": pt.rank, "torsion": list(pt.torsion_orders),
             **({"multiplicity": k} if k > 1 else {})} for pt, k in scheme.runs
        ],
    }
    if scheme.dimension is not None:
        out["dimension"] = scheme.dimension
    if scheme.smooth_projective:
        out["smooth_projective"] = True
    return out


def load_scheme(path: str) -> MonoidScheme:
    return scheme_from_dict(_read_json(path))
