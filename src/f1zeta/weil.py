"""Local zeta series and the torsion-smoothed local zeta.

The local zeta of a scheme at p is exp(sum_n #X(F_{p^n}) T^n / n); its
torsion-smoothed companion replaces gcd(t, p^n - 1) by t throughout
and factors exactly as

    Z~(p, T) = prod_{r=0}^{R} (1 - p^r T)^(e_r),   e_r = E_r = -a_r = -b_{2r},

with N(q) = sum_r a_r q^r the smoothed counting function, which the
scheme keeps (`MonoidScheme.counting`, on its `coefficients`).
Multiplying by (p-1)^N, N = N(1) the pole order at p = 1 (read as
`scheme.counting.value_at_one()`), and letting p -> 1 along reals gives
the global zeta; the limit probe (in log space) uses the factored form.
Its exact functional equation in T is the palindrome check of
`schemes.local_functional_equation`.

Both series are computed in int and are exact.  For any integer p >= 2,
#X(F_{p^n}) counts the fixed points of the n-th iterate of x -> p x on
(Q/Z)^R(x) x prod_j Z/t_{x,j}, summed over the points: on Q/Z the
solutions of (p^n - 1) x = 0 number p^n - 1, on Z/t they number
gcd(t, p^n - 1).  Grouped into the periodic orbits of that map, the
local zeta is a finite product

    Z(p, T) = prod_{i, o} (1 - p^(i o) T^o)^(-m_(i,o)),

o the orbit lengths on the torsion, with integer m_(i,o).  The product
over o <= order is built from the fixed-point counts and expanded by
`_expand`, which also expands the factored smoothed form and owns the
one switch between two ways: one strided pass per unit of |e| when the
sum of the |e| is at most the order, else the Newton recurrence
n e_n = sum_k N_k e_{n-k} on the product's power sums N_k.
Power sums of a zeta form a Dold sequence, so every division is exact; a
remainder is an ArithmeticError, never rounded.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Sequence, Union

from .errors import PreconditionError, SingularityError
from .powerlog import (MAX_COUNTING_DEGREE, _binomial_row, _check_integer, _check_printable,
                       _exact_or_real, _exp_in_range, _float_exponent, _int_max_str_digits,
                       _number, _Record, _shown)
from .schemes import MonoidScheme, _prime_to, exact_count

# Largest accepted order of an exact series in T.  At order n the
# coefficients of a d-dimensional scheme have about d n log2(p) bits.
# Measured at the cap on a 2-core host at p = 7: the strided passes take
# 0.5 ms on P2, 0.8 ms on P4, 4 ms on P10 (the largest projective space
# printable at p = 7; P11 and above exit at once on the digit limit), 4 ms
# on P10 plus a point of torsion 1000003 and 16 ms on 8 torsion points of
# rank <= 2.  Past sum |m| = n the recurrence makes about n^2/2 products:
# 0.15 s on one rank-2 point of torsion 7^6 - 1, 0.4 s beside P4.
MAX_SERIES_ORDER = 500


class TruncatedSeries(_Record):
    """Exact power-series jet in T: int coefficients, constant term 1."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coefficients = self.__dict__["coefficients"] = tuple(self.coefficients)
        if {*map(type, coefficients)} != {int} or coefficients[0] != 1:
            raise PreconditionError("zeta series are ints with constant coefficient 1")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def local_zeta_series(scheme: MonoidScheme, p: int, order: int) -> TruncatedSeries:
    """exp(sum_{n=1}^{order} #X(F_{p^n}) T^n / n), truncated, exact: the
    orbit product of `_orbit_exponents`, expanded by `_expand` (see the
    module docstring).  A coefficient too long to print is a
    PreconditionError naming the first such e_n."""
    _check_integer(order, "series order", 1, MAX_SERIES_ORDER)
    _check_integer(p, "base prime", 2)
    # every N_k >= 0 makes every e_n >= 0, so e_order >= N_order / order: a last
    # coefficient too long to print shows in N_order, before any factor is made
    what = f"local zeta coefficient e_{{}} at p = {p}"
    _check_printable(exact_count(scheme, p**order) // order, what, order)
    exponents = _orbit_exponents(scheme, p, order)
    return _expand([(p ** (i * o), o, -m) for (i, o), m in exponents.items()], order, what)


def _orbit_exponents(scheme: MonoidScheme, p: int, order: int) -> dict[tuple[int, int], int]:
    """{(i, o): m_(i,o) != 0} for o <= order.  W_(R,o), the points of rank R on orbits
    of length o of x -> p x, is the Moebius inversion over h <= order of the fixed-point
    counts w_R(h) = sum k prod_j gcd(t_j, p^h - 1) of the rank's torsion types, plus k at
    o = 1 for its torsion-free type; m_(i,o) = sum_R C(R, i) (-1)^(R-i) W_(R,o) / o."""
    orders, rows = scheme.count_profile
    gcds = [_gcd_row(t, p, order) for t in orders]
    exponents: dict[tuple[int, int], int] = {}
    for rank, types, _ in rows:
        weights: list[tuple[int, int]] = []  # (o, W_(R,o) / o)
        fixed: list[int] = []  # w_R(1..order) of the rank's torsion types
        for k, indices in types:
            if not indices:
                weights.append((1, k))  # the rank's one torsion-free type
                continue
            w = repeat(k, order)
            for i in indices:
                w = map(mul, w, gcds[i])
            fixed = list(map(add, fixed, w)) if fixed else list(w)
        for o, c in enumerate(fixed, 1):  # c = W_(R,o): its divisors' shares are off
            if c:
                for n in range(2 * o - 1, order, o):
                    fixed[n] -= c
                weights.append((o, c // o))
        binomial = _binomial_row(rank)
        for o, share in weights:
            for i, c in enumerate(binomial):
                exponents[i, o] = exponents.get((i, o), 0) + c * share
    return {key: m for key, m in exponents.items() if m}


def _gcd_row(t: int, p: int, order: int) -> list[int]:
    """gcd(t, p^h - 1) = gcd(t', x - 1) for h = 1..order, x = p^h mod t' (`_prime_to`);
    once t' | x - 1, at h = ord_t'(p), the row repeats with that period."""
    t = _prime_to(t, p)
    x = p % t
    row = [math.gcd(t, x - 1)]
    while row[-1] != t and len(row) < order:
        x = x * p % t
        row.append(math.gcd(t, x - 1))
    return (row * -(-order // len(row)))[:order]


def _expand(factors: Sequence[tuple[int, int, int]], order: int, what: str) -> TruncatedSeries:
    """prod (1 - a T^o)^e over the (a, o, e), truncated at T^order, in int.
    With sum |e| <= order: |e| strided passes of O(order / o) steps per
    factor.  Otherwise the product is exp(sum_n N_n T^n / n) with the
    power sums N_n = -sum_{o | n} e o a^(n/o), expanded by the Newton
    recurrence in O(order^2) steps.  A coefficient too long to print is a
    PreconditionError naming the first such n."""
    if sum(abs(e) for _, _, e in factors) > order:
        counts = [0] * order
        for a, o, e in factors:  # -e o a^k at n = k o, one multiply per k
            v = -e * o
            for n in range(o - 1, order, o):
                v *= a
                counts[n] += v
        return TruncatedSeries(tuple(_newton_series(counts, what)))
    coeffs = [1] + [0] * order
    for a, o, e in factors:
        for _ in range(abs(e)):
            if e > 0:  # times 1 - aT^o, from the top down
                for n in range(order, o - 1, -1):
                    coeffs[n] -= a * coeffs[n - o]
            else:  # over 1 - aT^o: c_n += a c_(n-o), from the bottom up
                for n in range(o, order + 1):
                    coeffs[n] += a * coeffs[n - o]
    # one length test for the whole series; a walk names the first coefficient it fails
    limit = _int_max_str_digits()
    if limit and max(map(int.bit_length, coeffs)) > 3 * limit:
        for n, c in enumerate(coeffs):
            _check_printable(c, what, n)
    return TruncatedSeries(tuple(coeffs))


def _newton_series(counts: Sequence[int], what: str) -> list[int]:
    """e_0, ..., e_len(counts) of exp(sum_k N_k T^k / k), N_k = counts[k-1],
    by the Newton recurrence n e_n = sum_{k=1}^{n} N_k e_{n-k} in int.
    A remainder is an ArithmeticError; a coefficient too long to print is
    a PreconditionError naming `what.format(n)`, raised before the
    recurrence runs on to the next coefficient."""
    e = [1]
    bits = 3 * _int_max_str_digits()  # no int of at most these bits is too long to print
    for n in range(1, len(counts) + 1):
        # reversed(e) is e_{n-1}..e_0, so map pairs it with N_1..N_n
        q, r = divmod(sum(map(mul, counts, reversed(e))), n)
        if r:
            raise ArithmeticError(
                f"{what.format(n)} is not an integer: "
                "the power sums are not a Dold sequence"
            )
        if bits and q.bit_length() > bits:
            _check_printable(q, what, n)
        e.append(q)
    return e


# -- factored smoothed local zeta ----------------------------------------


def _log(x: Union[int, float, Fraction]) -> float:
    """log x of a positive int, float or Fraction.  `math.log` takes an int
    of any size but a Fraction only through its float, which may overflow
    or round to 0; such a Fraction is taken as log(numerator) -
    log(denominator), which would cancel next to 1 where its float does not."""
    try:
        return math.log(x)
    except (OverflowError, ValueError):
        return math.log(x.numerator) - math.log(x.denominator)


def _log_factors(log_base: float, factors: Sequence[tuple[int, int]], s: complex) -> complex:
    """sum_r e_r log(1 - b^(r-s)) at a finite s, with log b = `log_base`:
    a log of prod_r (1 - b^r T)^(e_r) at T = b^(-s) that stays in float
    range where the product of powers would not, and where b^(r-s) itself
    would not."""
    ss = _number(s, "s")
    total = 0j
    for r, e in factors:
        z = (r - ss) * log_base
        try:
            factor = 1 - cmath.exp(z)
        except OverflowError:  # e^z past float range: 1 - e^z = e^z (e^-z - 1)
            total += _float_exponent(e, "exponent e_{}", r) * (z + cmath.log(cmath.exp(-z) - 1))
            continue
        if abs(factor) < 1e-13:
            raise SingularityError(
                f"factor (1 - p^({r}-s))^{_shown(e)} vanishes at s = {_shown(s, str)}"
            )
        total += _float_exponent(e, "exponent e_{}", r) * cmath.log(factor)
    return total


class LocalZetaFactors(_Record):
    """prod_r (1 - base^r T)^(e_r) for a base > 1: an int or a Fraction of
    any size, or a finite real."""

    base: Union[int, Fraction, float]
    factors: tuple[tuple[int, int], ...]  # (level r, exponent e_r), e_r != 0

    def __init__(self, base: Union[int, Fraction, float],
                 factors: tuple[tuple[int, int], ...]) -> None:
        base = _exact_or_real(base, "p > 1")
        if not base > 1:
            raise PreconditionError(f"smoothed local zeta needs p > 1, got {_shown(base)}")
        try:
            factors = tuple([(_check_integer(r, "factor level r", 0, MAX_COUNTING_DEGREE),
                              _check_integer(e, "factor exponent e_r")) for r, e in factors])
        except (TypeError, ValueError):  # not an iterable of pairs
            raise PreconditionError(
                f"local zeta factors must be (r, e_r) pairs, got {_shown(factors)}") from None
        self.__dict__["base"], self.__dict__["factors"] = base, factors

    def exponents(self) -> dict[int, int]:
        return dict(self.factors)

    def log_evaluate_s(self, s: complex) -> complex:
        """sum_r e_r log(1 - base^(r-s)) at a finite s (`_log_factors`)."""
        return _log_factors(_log(self.base), self.factors, s)

    def evaluate_s(self, s: complex) -> complex:
        """Value at T = base^(-s); one beyond float range is a
        ConvergenceError naming its log."""
        return _exp_in_range(self.log_evaluate_s(s), "local zeta value at s = {}", s)

    def series(self, order: int) -> TruncatedSeries:
        """Exact expansion in T by `_expand`; requires an integer base; a
        coefficient too long to print is a PreconditionError."""
        _check_integer(self.base, "exact expansion base", 2)
        _check_integer(order, "series order", 0, MAX_SERIES_ORDER)
        return _expand([(self.base**r, 1, e) for r, e in self.factors], order,
                       "coefficient {} of the factored local zeta series")


def _smoothed_factors(coeffs: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(r, e_r = -a_r) for the nonzero counting coefficients a_r."""
    return tuple([(r, -a) for r, a in enumerate(coeffs) if a])


def smoothed_local_zeta(scheme: MonoidScheme, p: Union[int, float]) -> LocalZetaFactors:
    """Factored form of the torsion-smoothed local zeta at a base p > 1: an
    int or a Fraction of any size, or a finite real (checked by
    `LocalZetaFactors`)."""
    return LocalZetaFactors(p, _smoothed_factors(scheme.coefficients))


def default_base_sequence(count: int = 6) -> list[float]:
    """p = 1 + 10^-k for k = 1..count; from k = 16 on, p rounds to 1.0."""
    _check_integer(count, "base count", 0, 15)
    return [1 + 10.0**-k for k in range(1, count + 1)]


def limit_toward_one(
    scheme: MonoidScheme,
    s: complex,
    base_sequence: Sequence[float] | None = None,
) -> list[complex]:
    """(p-1)^N Z~(p, p^-s) along a sequence of real p decreasing to 1.

    The values converge to the scheme's global zeta at s; singular s
    propagate as evaluation errors, and a value beyond float range
    raises ConvergenceError naming its logarithm.
    """
    seq = default_base_sequence() if base_sequence is None else [
        _exact_or_real(p, "base p > 1") for p in base_sequence]
    if any(not p > 1 for p in seq) or any(a <= b for a, b in zip(seq, seq[1:])):
        raise PreconditionError("base sequence must decrease strictly toward 1")
    n = scheme.counting.value_at_one()
    factors = _smoothed_factors(scheme.coefficients)
    out = []
    for p in seq:
        log_value = (_float_exponent(n, "exponent N(1)") * _log(p - 1)
                     + _log_factors(_log(p), factors, s))
        out.append(_exp_in_range(log_value, "limit value at p = {}", p))
    return out
