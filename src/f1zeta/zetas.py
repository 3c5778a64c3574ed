"""Factored zeta functions and exact functional-equation bookkeeping.

A zeta function is stored as a finite product

    zeta(s) = prod over (lam, m) of  phi_m(s - lam) ^ e(lam, m)

with phi_0(s) = 1/s and phi_m(s) = exp((m-1)! s^-m) for m >= 1.

Exponent orientation: an m = 0 factor with exponent e contributes
(s - lam)^(-e), so e > 0 is a pole at lam of order e and e < 0 a zero
of order -e.  All identity checks (multiplicativity, duality, reflected
functional equations) are performed on the exact factor data; complex
evaluation, always the exp of a sum of logs, is a secondary numeric
check.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConvergenceError, PreconditionError, SingularityError
from .powerlog import (
    FEReport,
    FunctionalEquationWitness,
    PowerLogSum,
    Rational,
    Term,
    TermMap,
    _exp_in_range,
    _fmt_exp,
    _number,
    _parity,
    _Record,
    _shown,
    witness_holds,
)


class FactoredZeta(TermMap):
    """The term map of a counting function read as factors (lam, m, e).

    Not a PowerLogSum: zetas multiply by adding exponents (`+`), and
    are evaluated by `evaluate_zeta`.
    """

    @property
    def factors(self) -> tuple[Term, ...]:
        """The factors (lam, m, e): a read-only alias of `terms`."""
        return self.terms

    @staticmethod
    def one() -> "FactoredZeta":
        return FactoredZeta()

    exponent = TermMap.coefficient

    def poles(self) -> list[tuple[Fraction, Fraction]]:
        return [(lam, e) for lam, m, e in self.factors if m == 0 and e > 0]

    def zeros(self) -> list[tuple[Fraction, Fraction]]:
        return [(lam, -e) for lam, m, e in self.factors if m == 0 and e < 0]


def zeta_of(n: PowerLogSum) -> FactoredZeta:
    """Zeta function of a finite power-log sum: each term (lam, m, c)
    contributes the factor phi_m(s - lam)^c."""
    return FactoredZeta(n.terms)


def reflect_zeta(z: FactoredZeta, omega: Rational) -> tuple[int, FactoredZeta]:
    """Factors of s |-> zeta(omega - s), returned as (sign, factors).

    Uses phi_0(-s) = -phi_0(s) and phi_m(-s) = phi_m(s)^((-1)^m), so
    the reflected function is (-1)^(sum of m = 0 exponents) times a
    genuine factored zeta: the dual term map shifted by omega.  The
    total m = 0 exponent must be an integer for the sign to be defined.
    """
    total = sum((e for lam, m, e in z.factors if m == 0), Fraction(0))
    if total.denominator != 1:
        raise PreconditionError(
            "reflection sign undefined: total order-zero exponent is not an integer"
        )
    return _parity(total.numerator), z.dual().shift_exponents(omega)


def evaluate_zeta(z: FactoredZeta, s: complex) -> complex:
    """Numeric value at s, with principal powers for rational exponents.

    The value is exp(log_evaluate_zeta(z, s)), so a product of factors
    whose partial products leave float range is still evaluated; a value
    beyond float range is a ConvergenceError naming its log, and so is a
    factor's log term beyond it (see `log_evaluate_zeta`).  The relative
    error is about 2^-52 times sum |e log(s - lam)| over the m = 0 factors
    plus sum |e (m-1)! (s - lam)^-m| over the others.  At a zero (only
    m = 0 factors with e < 0 sit at s) the value is 0; at a pole or an
    essential singularity it is a SingularityError.
    """
    ss = _number(s, "s")
    floats = z._floats()
    at_s = [(lam, m, e) for (lam, m, e), (x, _, _) in zip(z.factors, floats) if ss == x]
    for lam, m, e in at_s:
        if m:
            raise SingularityError(f"essential singularity at s = {lam} (log index m = {m})")
        if e > 0:
            raise SingularityError(f"pole of order {e} at s = {lam}")
    if at_s:
        return 0j
    return _exp_in_range(_log_zeta(floats, ss, z.factors), "zeta value at s = {}", s)


def log_evaluate_zeta(z: FactoredZeta, s: complex) -> complex:
    """A logarithm of the value at s: sum of -e log(s - lam) over the m = 0
    factors plus e (m-1)! (s - lam)^(-m) over the others.  It stays in
    float range where the product of factors would over- or underflow.
    A log term e (m-1)! (s - lam)^(-m) beyond float range, or an m beyond
    it, is a ConvergenceError naming its factor, and a sum of finite terms
    beyond it is one naming s."""
    ss = _number(s, "s")
    total = _log_zeta(z._floats(), ss, z.factors)
    if not cmath.isfinite(total):
        raise ConvergenceError(f"the log of zeta at s = {ss} overflows a float: "
                               f"its terms sum to {total!r}")
    return total


# (m-1)! is a float up to m = 171 (170! ~ 7.3e306): up to there a log term
# is e (m-1)! (s - lam)^-m; above it exp(lgamma(m) - m log(s - lam)), so
# that no factorial of a large m is formed
_FLOAT_FACTORIAL_M = 171


def _log_zeta(floats: list[tuple[float, int, float]], ss: complex,
              factors: Sequence[Term] = ()) -> complex:
    """`log_evaluate_zeta` at a checked complex s from `floats`, the float
    image of a factored zeta.  Its exact `factors`, in the same order, are
    read only to name a singular factor or one whose term leaves float
    range; without them (`epsilon_factor`, whose samples sit off the real
    axis, where no factor is singular) the factor is named by its float."""
    total = 0j
    for x, m, e in floats:
        base = ss - x
        if base == 0:
            lam = _exponent(floats, factors, x, m, e)
            raise SingularityError(f"log zeta is singular at s = {lam} (log index m = {m})")
        if m == 0:
            total -= e * cmath.log(base)
            continue
        try:
            if m <= _FLOAT_FACTORIAL_M:
                term = e * math.factorial(m - 1) * base ** (-m)
            else:
                term = e * cmath.exp(math.lgamma(m) - m * cmath.log(base))
            if not cmath.isfinite(term):
                raise OverflowError
        except OverflowError:  # the power, the exp, the product, or m itself
            lam = _exponent(floats, factors, x, m, e)
            raise ConvergenceError(
                f"the log term of the factor at lam = {lam} with log index m = {_shown(m)} "
                f"is beyond float range at s = {ss}") from None
        total += term
    return total


def _exponent(floats: list[tuple[float, int, float]], factors: Sequence[Term],
              x: float, m: int, e: float) -> Rational | float:
    """The exact exponent of the first factor whose float image is
    (x, m, e), or x itself without `factors`."""
    return factors[floats.index((x, m, e))][0] if factors else x


# -- epsilon factor ----------------------------------------------------


class EpsilonFactor(_Record):
    sign: int
    numeric_residual: float
    sample_points: tuple[complex, ...]


def _dual_floats(n: PowerLogSum, floats: list[tuple[float, int, float]]
                 ) -> list[tuple[float, int, float]]:
    """The float image of n.dual(), read off `floats`, n's own: the
    exponent groups of `_groups` in reverse order, each term (x, m, c)
    as (-x, m, (-1)^m c).  Float negation is exact, so each entry is the
    float of the exact dual term; a zero exponent stays +0.0, as
    float(-Fraction(0)) does."""
    out: list[tuple[float, int, float]] = []
    end = len(floats)
    for a, _, group in reversed(n._groups):
        start = end - len(group)
        for x, m, c in floats[start:end]:
            out.append((-x if a else 0.0, m, -c if m % 2 else c))
        end = start
    return out


def epsilon_factor(n: PowerLogSum) -> EpsilonFactor:
    """The constant zeta_{N*}(-s) / zeta_N(s) = (-1)^N(1).

    The sign is computed exactly from N(1); the numeric residual is the
    maximal deviation of the evaluated ratio from it at three sample
    points chosen away from all singularities.  The ratio is the exp of
    a difference of logs, so that large exponents cannot under- or
    overflow a product of factors; a ratio that still leaves float range,
    or a log term that does, counts as an infinite residual.  Both logs
    read floats only: N's float image, and the dual's read off it
    (`_dual_floats`), without forming the exact dual.
    """
    n1 = n.value_at_one()
    if n1.denominator != 1:
        raise PreconditionError(f"epsilon sign undefined: N(1) = {n1} is not an integer")
    sign = _parity(n1.numerator)
    floats = n._floats()
    dual_floats = _dual_floats(n, floats)
    radius = max((abs(lam) for lam, _, _ in floats), default=0.0)
    samples = tuple(radius + 1.5 + k + 0.7j * (k + 1) for k in range(3))
    residual = 0.0
    for s in samples:
        try:
            ratio = cmath.exp(_log_zeta(dual_floats, -s) - _log_zeta(floats, s))
        except (OverflowError, ConvergenceError):
            ratio = complex(math.inf)
        deviation = abs(ratio - sign)
        residual = max(residual, math.inf if math.isnan(deviation) else deviation)
    return EpsilonFactor(sign, residual, samples)


# -- functional equation at the zeta level -----------------------------


def verify_functional_equation(
    n: PowerLogSum, witness: FunctionalEquationWitness
) -> FEReport:
    """zeta_N(omega - s) = (-1)^N(1) zeta_N(s)^c, from the witness.

    Requires a pure-power N (all m = 0), an integer N(1) and a witness of
    N(1/u) = c u^(-omega) N(u), checked once by `witness_holds`: as zeta_of
    keeps the terms of N, the zeta identity is that one shifted by omega,
    with the reflection sign (-1)^N(1) (see `reflect_zeta`).
    """
    if n.is_zero:
        raise PreconditionError("functional equation of the zero sum is vacuous")
    # a sum that is not a pure power fails in _witnessed_report
    if n.is_pure_power and not witness_holds(n, witness):
        raise PreconditionError("witness does not satisfy the counting identity")
    return _witnessed_report(n, witness)


def _witnessed_report(n: PowerLogSum, witness: FunctionalEquationWitness) -> FEReport:
    """`verify_functional_equation` for a nonzero N and a witness that has
    already passed `witness_holds`, as every detected witness has."""
    if not n.is_pure_power:
        raise PreconditionError("zeta functional equations are checked for pure powers")
    n1 = n.value_at_one()
    if n1.denominator != 1:
        raise PreconditionError(f"N(1) = {n1} is not an integer")
    return FEReport(True, witness.omega, witness.c, n1.numerator, ())


# -- display and serialization ------------------------------------------


def _fmt_power(k: Fraction) -> str:
    return "" if k == 1 else "^" + _fmt_exp(k)


def _fmt_linear(lam: Fraction) -> str:
    if lam == 0:
        return "s"
    return f"(s-{lam})" if lam > 0 else f"(s+{-lam})"


def pretty_zeta(z: FactoredZeta) -> str:
    """Human-readable form, e.g. (s-3)(s-2)/((s-4)(s-1)) or exp(1/s)."""
    numerator: list[str] = []
    denominator: list[str] = []
    exponentials: list[str] = []
    for lam, m, e in sorted(z.factors, key=lambda f: (-f[0], f[1])):
        if m == 0:
            target = denominator if e > 0 else numerator
            target.append(_fmt_linear(lam) + _fmt_power(abs(e)))
        else:
            coeff = e * math.factorial(m - 1)
            inner = _fmt_linear(lam) + ("" if m == 1 else f"^{m}")
            if coeff == 1:
                exponentials.append(f"exp(1/{inner})")
            elif coeff == -1:
                exponentials.append(f"exp(-1/{inner})")
            else:
                exponentials.append(f"exp({_fmt_exp(coeff)}/{inner})")
    num = "".join(numerator) or "1"
    if denominator:
        den = "".join(denominator)
        rational = f"{num}/({den})" if len(denominator) > 1 else f"{num}/{den}"
    else:
        rational = num
    parts = ([rational] if rational != "1" or not exponentials else []) + exponentials
    return "*".join(parts) if parts else "1"


def zeta_to_records(z: FactoredZeta) -> list[list[int]]:
    return z.to_records()


def zeta_from_records(records: Iterable[Sequence[int]]) -> FactoredZeta:
    return FactoredZeta.from_records(records)
