"""Monoid-scheme point data and its counting functions.

A scheme is encoded purely by its finite point set: at each point the
unit group contributes a free rank R(x) and a list of torsion orders
t_{x,j} >= 2 (the torsion cardinality T(x) is their product).  Over the
field with q elements the point count is

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
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .errors import ParseError, PreconditionError
from .powerlog import (
    MAX_COUNTING_DEGREE, _binomial_row, _check_integer, _integer, _read_json, _Record, _shown)

COMPLEX_TOLERANCE = 1e-10  # declared tolerance for Fourier reconstruction
MAX_FOURIER_PERIOD = 1 << 20  # coefficients per torsion order in a Fourier table
# P^n lists its 2^(n+1) - 1 points one by one: on a 2-core host P20 is built
# in 0.1 s and counted in 0.3 s, each time doubling per dimension
MAX_PROJECTIVE_DIMENSION = 20


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


class MonoidScheme(_Record):
    """Finite point list plus asserted dimension / projectivity metadata.

    `smooth_projective` is a caller assertion: it cannot be decided from
    point data, and its observable consequence (Betti symmetry) is
    verified by the functional-equation checks rather than assumed.
    """

    points: tuple[TorsionPoint, ...]
    dimension: int | None = None
    smooth_projective: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise PreconditionError("a scheme needs at least one point")
        if self.dimension is not None:
            # the Betti profile and the zeta tables have an entry per index up to it
            _check_integer(self.dimension, "declared dimension", 0, MAX_COUNTING_DEGREE)
        # the top rank, the counting degree, by a walk that keeps the count profile lazy
        _check_integer(max(pt.rank for pt in self.points), "point rank", most=MAX_COUNTING_DEGREE)

    @property
    def max_rank(self) -> int:
        return self.count_profile[1][0][0]  # the top row's rank

    @property
    def dim(self) -> int:
        """Declared dimension, defaulting to the maximal rank."""
        return self.max_rank if self.dimension is None else self.dimension

    @cached_property
    def count_profile(self) -> tuple[tuple[int, ...], tuple[tuple[int, tuple, int], ...]]:
        """(orders, rows), built once per scheme: the distinct torsion orders,
        and per occupied rank R from the top down the row (R, (k, indices
        into orders) per point type of rank R with its multiplicity k, R minus
        the next occupied rank).  Every count depends on a point only through
        its type (P16 has 17 types for 131 071 points)."""
        types = Counter((pt.rank, pt.torsion_orders) for pt in self.points)
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
    if isinstance(q, float) and not math.isfinite(q):
        raise PreconditionError(f"smoothed counts need a finite q > 0, got {q!r}")
    qq = Fraction(q)
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


def _period_divides(t: int, p: int, n: int) -> bool:
    """The part of t prime to p divides p^n - 1, decided in residues: then
    n is a multiple of the period of h |-> gcd(t, p^h - 1)."""
    while (g := math.gcd(t, p)) > 1:
        t //= g
    return (pow(p, n, t) - 1) % t == 0


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

    def reconstruction_error(self) -> float:
        """Max |sum_nu c_nu xi^(n nu) - gcd(t, p^n - 1)| over n = 1..3 n0,
        evaluated exactly; inf for a vector that is not constant on the
        classes gcd(nu, n0) (or not of length n0), and for a class value
        that is not a real rational, such as a complex one.  Ints,
        Fractions and floats are read exactly, as Fraction(c).

        The inverse of `_class_vector`: the class values, scaled to
        integers by their common denominator D, are split into pieces
        P_q (q | n0) with c_nu = sum of P_q over the q dividing nu, and the
        indicator [q | nu] has the series (n0/q) [(n0/q) | n].  So D times
        the series is an integer at every n, and each entry's error
        max_n |value D - gcd D| / D is rounded once.
        """
        n0 = self.period
        divs = _divisors(n0)
        classes = [math.gcd(nu, n0) for nu in range(1, n0 + 1)]
        worst = 0.0
        for _, _, t, coeffs in self.entries:
            if len(coeffs) != n0:
                return math.inf
            by_class = dict(zip(classes, coeffs))
            if list(map(by_class.__getitem__, classes)) != list(coeffs):
                return math.inf
            try:
                values = [Fraction(by_class[g]) for g in divs]
            except (TypeError, ValueError, OverflowError):  # complex, nan, inf
                return math.inf
            scale = math.lcm(*(v.denominator for v in values))
            pieces = _divisor_differences(
                divs, [v.numerator * (scale // v.denominator) for v in values])
            terms = [(n0 // q, c * (n0 // q)) for q, c in zip(divs, pieces) if c]
            # The series depends on n only through gcd(n, n0), and so does
            # gcd(t, p^n - 1) when every ord_e(p) divides n0, i.e. when t's
            # part prime to p divides p^n0 - 1.  Then one n per class
            # suffices, and the smallest n in class g is g.
            if _period_divides(t, self.prime, n0):
                ns = divs
            else:
                ns = range(1, 3 * n0 + 1)
            err = 0
            for n in ns:
                value = sum(c for o, c in terms if n % o == 0)
                exact = math.gcd(t, pow(self.prime, n, t) - 1)  # gcd(t, p^n - 1)
                err = max(err, abs(value - exact * scale))
            # int / int is correctly rounded: the float of Fraction(err, scale)
            worst = max(worst, err / scale)
        return worst

    def verify(self) -> bool:
        """Reconstruction holds within the declared complex tolerance."""
        return self.reconstruction_error() <= COMPLEX_TOLERANCE


def fourier_data(scheme: MonoidScheme, p: int) -> FourierData:
    """The coefficient table c_{x,j,nu}(p) of a scheme; the period is capped first."""
    _check_integer(p, "base prime", 2)
    n0 = fourier_period(scheme)
    vectors = {t: gcd_fourier_coefficients(t, p, n0) for t in scheme.count_profile[0]}
    return FourierData(p, n0, tuple((i, j, t, vectors[t]) for i, pt in enumerate(scheme.points)
                                    for j, t in enumerate(pt.torsion_orders)))


# -- ready-made models --------------------------------------------------


def f1_point() -> MonoidScheme:
    """The terminal point: one rank-0 torsion-free point."""
    return MonoidScheme((TorsionPoint(0),), dimension=0, smooth_projective=True, name="point")


def torus_model(r: int = 1) -> MonoidScheme:
    """The r-fold multiplicative group: one point of rank r."""
    _check_integer(r, "torus rank", 1)
    return MonoidScheme((TorsionPoint(r),), name=f"Gm^{r}" if r > 1 else "Gm")


def projective_space_model(n: int) -> MonoidScheme:
    """n-dimensional projective space: C(n+1, r+1) points of rank r.

    The counts reproduce 1 + q + ... + q^n; n <= MAX_PROJECTIVE_DIMENSION.
    """
    _check_integer(n, "projective dimension", 0, MAX_PROJECTIVE_DIMENSION)
    pts = []
    for r in range(n + 1):
        pts.extend([TorsionPoint(r)] * math.comb(n + 1, r + 1))
    return MonoidScheme(tuple(pts), dimension=n, smooth_projective=True, name=f"P{n}")


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
        raise ParseError(f"{what} must be an integer >= {least}, got {value!r}")
    return n


def scheme_from_dict(data: object) -> MonoidScheme:
    if not isinstance(data, dict):
        raise ParseError("scheme file must contain a JSON object")
    raw_points = data.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ParseError("scheme file needs a nonempty 'points' list")
    points = []
    for rec in raw_points:
        if not isinstance(rec, dict):
            raise ParseError(f"bad point record {rec!r}")
        rank = _bounded_integer(rec.get("rank"), 0, "point rank")
        torsion = rec.get("torsion", [])
        if not isinstance(torsion, list):
            raise ParseError(f"torsion must be a list of integers >= 2, got {torsion!r}")
        orders = tuple(_bounded_integer(t, 2, "a torsion entry") for t in torsion)
        points.append(TorsionPoint(rank, orders))
    dimension = data.get("dimension")
    if dimension is not None:
        dimension = _bounded_integer(dimension, 0, "dimension")
    smooth = data.get("smooth_projective", False)
    if not isinstance(smooth, bool):
        raise ParseError("smooth_projective must be a boolean")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    return MonoidScheme(tuple(points), dimension=dimension, smooth_projective=smooth, name=name)


def scheme_to_dict(scheme: MonoidScheme) -> dict:
    out: dict = {
        "name": scheme.name,
        "points": [
            {"rank": pt.rank, "torsion": list(pt.torsion_orders)}
            for pt in scheme.points
        ],
    }
    if scheme.dimension is not None:
        out["dimension"] = scheme.dimension
    if scheme.smooth_projective:
        out["smooth_projective"] = True
    return out


def load_scheme(path: str) -> MonoidScheme:
    return scheme_from_dict(_read_json(path))
