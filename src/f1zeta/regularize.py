"""Two-variable zeta regularization and spectral determinants.

The regularizing integral of a counting function N is

    Z_N(w, s) = 1/Gamma(w) int_1^oo N(u) u^-(s+1) (log u)^(w-1) du,

whose w-derivative at 0 defines log zeta_N(s).  For finite power-log
sums the integral has the closed form

    Z_N(w, s) = sum c(lam, m) * w(w+1)...(w+m-1) * (s - lam)^(-w-m),

which provides the continuation to w = 0.  For spectra of Laplacians
the same integral turns N(u) = sum u^(-lam_j) into the operator zeta
sum_j (lam_j + s)^(-w); continuation to w = 0 is done by splitting
(lam + s)^(-w) = lam^-w (1 + s/lam)^-w binomially after finitely many
explicit terms, with the resulting bare Dirichlet tails summed by
Euler-Maclaurin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import ConvergenceError, PreconditionError, SingularityError
from .powerlog import PowerLogSum
from .zetas import log_evaluate_zeta, zeta_of

Complex = Union[complex, float, int]


def _power_log_integrand(n: PowerLogSum, rate: complex, k: int) -> Callable[[float], complex]:
    """t |-> N(e^t) e^(-rate t) t^k for N = sum c u^lam log^m u, assembled
    per term as c e^((lam - rate) t) t^(m + k) so that no power of e^t
    overflows; a term below e^-745 underflows and is skipped."""
    terms = [(float(lam), m, float(c)) for lam, m, c in n.terms]

    def integrand(t: float) -> complex:
        total = 0j
        for lam, m, c in terms:
            expo = (lam - rate) * t
            if expo.real < -745.0:
                continue
            total += c * cmath.exp(expo) * t ** (m + k)
        return total

    return integrand


def _complex_quad(fn: Callable[[float], complex], a: float, b: float) -> complex:
    """Adaptive quadrature of a complex integrand, real and imaginary
    parts separately.  scipy is imported here, on first use, so that the
    exact layers and the CLI start without it."""
    from scipy.integrate import quad

    re, _ = quad(lambda x: fn(x).real, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
    im, _ = quad(lambda x: fn(x).imag, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
    return complex(re, im)


def gamma_ratio_poly(w: Complex, m: int) -> complex:
    """Gamma(w+m)/Gamma(w) = w (w+1) ... (w+m-1), a polynomial in w."""
    out = 1.0 + 0j
    for i in range(m):
        out *= complex(w) + i
    return out


def two_variable_zeta_closed(n: PowerLogSum, w: Complex, s: Complex) -> complex:
    """Closed-form Z_N(w, s); defined for all w, singular only at s = lam."""
    ww = complex(w)
    ss = complex(s)
    total = 0j
    for lam, m, c in n.terms:
        base = ss - float(lam)
        if base == 0:
            raise SingularityError(f"Z_N singular at s = {lam} (term with m = {m})")
        total += float(c) * gamma_ratio_poly(ww, m) * cmath.exp(-(ww + m) * cmath.log(base))
    return total


def two_variable_zeta_numeric(n: PowerLogSum, w: Complex, s: Complex) -> complex:
    """Quadrature evaluation of Z_N(w, s) on its convergence half-planes.

    Substituting u = e^t gives 1/Gamma(w) int_0^oo N(e^t) e^-st t^(w-1) dt,
    split at t0 = max(1, 4 / (Re s - degree)).  The endpoint weight
    t^(w-1) on (0, t0) is removed by t = t0 e^-v, which turns that piece
    into t0^w times a smooth integrand decaying like e^(-Re(w) v).
    """
    if n.is_zero:
        return 0j
    ww = complex(w)
    ss = complex(s)
    if ww.real <= 0:
        raise PreconditionError(f"integral needs Re(w) > 0, got Re(w) = {ww.real}")
    edge = float(n.degree)
    if ss.real <= edge:
        raise PreconditionError(f"integral needs Re(s) > {edge}, got Re(s) = {ss.real}")
    weighted = _power_log_integrand(n, ss, 0)
    # split where the tail e^(-(Re s - degree) t) has fallen by e^-4, so
    # that the upper piece starts near its bulk instead of far before it
    t0 = max(1.0, 4.0 / (ss.real - edge))
    lower = _complex_quad(
        lambda v: weighted(t0 * math.exp(-v)) * cmath.exp(-ww * v), 0.0, math.inf
    ) * cmath.exp(ww * math.log(t0))
    upper = _complex_quad(
        lambda t: weighted(t) * cmath.exp((ww - 1) * math.log(t)), t0, math.inf
    )
    from scipy.special import gamma

    return complex((lower + upper) / gamma(ww))


def zeta_from_regularization(n: PowerLogSum, s: Complex) -> complex:
    """exp(d/dw Z_N(w, s) at w = 0), evaluated from the closed form.

    Term derivatives at w = 0: -c log(s - lam) for m = 0 and
    c (m-1)! (s - lam)^-m for m >= 1, which sum to log_evaluate_zeta.
    """
    return cmath.exp(log_evaluate_zeta(zeta_of(n), s))


# -- Euler-Maclaurin tails of bare Dirichlet sums ------------------------

_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}


# B_2k / (2k)! for k = 1, 2, ..., as floats, built once
_EM_COEFFS = tuple(float(b) / math.factorial(n) for n, b in sorted(_BERNOULLI.items()))


def _em_tail(b: Complex, start: int, terms: int = 8) -> tuple[complex, complex, float]:
    """Continued tail sum_{n > start} n^(-b) with its d/db derivative.

    Euler-Maclaurin with `terms` correction terms at a = start + 1:
        a^(1-b)/(b-1) + a^(-b)/2
        + sum_k B_2k/(2k)! * b(b+1)...(b+2k-2) * a^(-b-2k+1).
    Also returns the magnitude of the first omitted correction as an
    error estimate.  The continued sum has a genuine pole at b = 1.
    """
    bb = complex(b)
    if abs(bb - 1) < 1e-9:
        raise SingularityError("the continued Dirichlet tail has a pole at exponent 1")
    if terms + 1 > len(_EM_COEFFS):
        raise PreconditionError(f"at most {len(_EM_COEFFS) - 1} correction terms supported")
    a = float(start + 1)
    la = math.log(a)
    apow = cmath.exp(-bb * la)  # a^-b
    val = a * apow / (bb - 1) + apow / 2
    der = a * apow / (bb - 1) * (-la - 1 / (bb - 1)) - la * apow / 2
    rise_v, rise_d = 1.0 + 0j, 0j  # rising factorial prod_{i<len}(b+i) and d/db
    length = 0
    for k in range(1, terms + 2):
        while length < 2 * k - 1:
            f = bb + length
            rise_v, rise_d = rise_v * f, rise_d * f + rise_v
            length += 1
        coef = _EM_COEFFS[k - 1]
        apk = cmath.exp(-(bb + 2 * k - 1) * la)
        term = coef * rise_v * apk
        dterm = coef * apk * (rise_d - la * rise_v)
        if k == terms + 1:
            return val, der, abs(term) + abs(dterm)
        val += term
        der += dterm
    raise AssertionError("unreachable")


# -- spectra --------------------------------------------------------------


# continued_tails(a, count, J) -> ((T(a), T'(a)), ..., (T(a+count-1), T'(a+count-1)))
TailTable = Callable[[complex, int, int], tuple[tuple[complex, complex], ...]]


@dataclass(frozen=True)
class Spectrum:
    """Plug-in description of the nonzero eigenvalues of a Laplacian.

    `eigenvalues(count)` yields the first `count` (value, multiplicity)
    pairs in nondecreasing order; `tail_bound(J, w, s)` bounds the
    omitted raw tail |sum_{j>J} mult (lam_j + s)^-w|.  The optional
    `continued_tails(a, count, J)` returns the table
    ((T(a + k), T'(a + k)) for k < count) of the analytically continued
    bare tails T(b) = sum_{j>J} mult lam_j^-b and their b-derivatives;
    it enables continuation to w = 0 (required by log_regularized_det
    and regularized_det).  Callers ask for every exponent they need in
    one table, so a spectrum derived from another (shift_spectrum)
    fetches each base tail once.
    """

    name: str
    eigenvalues: Callable[[int], tuple[tuple[float, int], ...]]
    tail_bound: Callable[[int, complex, complex], float]
    continued_tails: Optional[TailTable] = None


def circle_spectrum() -> Spectrum:
    """Circle of circumference 2 pi: eigenvalues n^2, multiplicity 2, n >= 1.

    Stated explicitly because determinant values depend on this
    normalization.
    """

    def eigenvalues(count: int) -> tuple[tuple[float, int], ...]:
        return tuple((float(n * n), 2) for n in range(1, count + 1))

    def tail_bound(j: int, w: complex, s: complex) -> float:
        rw = complex(w).real
        if rw <= 0.5 or (j + 1) ** 2 <= 2 * abs(s):
            return math.inf
        skew = (1 - abs(s) / (j + 1) ** 2) ** (-max(rw, 0.0))
        wobble = math.exp(math.pi * abs(complex(w).imag))
        return 2 * skew * wobble * (j ** (1 - 2 * rw) / (2 * rw - 1) + (j + 1) ** (-2 * rw))

    def continued_tails(a: complex, count: int, j: int) -> tuple[tuple[complex, complex], ...]:
        # sum_{n>j} 2 (n^2)^-b = 2 T_em(2b), with d/db = 4 T_em'(2b)
        aa = complex(a)
        table = []
        for k in range(count):
            val, der, _ = _em_tail(2 * (aa + k), j)
            table.append((2 * val, 4 * der))
        return tuple(table)

    return Spectrum("circle", eigenvalues, tail_bound, continued_tails)


def shift_spectrum(base: Spectrum, shift: float, split_order: int = 24) -> Spectrum:
    """The spectrum mu_j = lam_j + shift, with continued tails derived
    from the base spectrum by a binomial split (requires shift small
    against the first omitted eigenvalue):

        T_mu(b) = sum_{k < split_order} C(-b, k) shift^k T_lam(b + k).

    A table of `count` exponents reads one base table of
    count + split_order - 1 entries."""

    def eigenvalues(count: int) -> tuple[tuple[float, int], ...]:
        pairs = tuple((lam + shift, m) for lam, m in base.eigenvalues(count))
        if pairs and pairs[0][0] <= 0:
            raise PreconditionError("shifted eigenvalues must stay positive")
        return pairs

    def tail_bound(j: int, w: complex, s: complex) -> float:
        return base.tail_bound(j, w, complex(s) + shift)

    def continued_tails(a: complex, count: int, j: int) -> tuple[tuple[complex, complex], ...]:
        if base.continued_tails is None:
            raise ConvergenceError(f"spectrum {base.name} lacks continued tails")
        aa = complex(a)
        tails = base.continued_tails(aa, count + split_order - 1, j)
        table = []
        for m in range(count):
            b = aa + m
            val = der = 0j
            bv, bd = 1.0 + 0j, 0j  # binom(-b, k) and its d/db
            for k in range(split_order):
                t, dt = tails[m + k]
                sk = shift**k
                val += bv * sk * t
                der += sk * (bd * t + bv * dt)
                f = (-b - k) / (k + 1)
                bv, bd = bv * f, bd * f + bv * (-1.0 / (k + 1))
            table.append((val, der))
        return tuple(table)

    return Spectrum(f"{base.name}+{shift}", eigenvalues, tail_bound, continued_tails)


BUILTIN_SPECTRA: dict[str, Callable[[], Spectrum]] = {"circle": circle_spectrum}


def spectrum_by_name(name: str) -> Spectrum:
    try:
        return BUILTIN_SPECTRA[name]()
    except KeyError as exc:
        raise PreconditionError(
            f"unknown spectrum {name!r} (built-ins: {sorted(BUILTIN_SPECTRA)})"
        ) from exc


# -- spectral zeta and determinant -----------------------------------------


@dataclass(frozen=True)
class SpectralValue:
    value: complex
    error_bound: float
    terms_used: int


def _head_terms(spectrum: Spectrum, count: int, s: complex) -> tuple[tuple[float, int], ...]:
    pairs = spectrum.eigenvalues(count)
    if not pairs:
        raise PreconditionError("spectrum enumerated no eigenvalues")
    if complex(s).real <= -pairs[0][0]:
        raise PreconditionError(
            f"need Re(s) > {-pairs[0][0]} for the first shifted eigenvalue"
        )
    return pairs


def _grow_terms(spectrum: Spectrum, s: complex, start: int) -> int:
    j = start
    while spectrum.eigenvalues(j + 1)[j][0] <= 2 * abs(complex(s)) :
        j *= 2
        if j > 1 << 20:
            raise ConvergenceError("eigenvalue growth too slow against |s|")
    return j


def spectral_zeta(
    spectrum: Spectrum, w: Complex, s: Complex, terms: int | None = None
) -> SpectralValue:
    """sum_j mult_j (lam_j + s)^(-w) with an explicit head plus a
    continued (or rigorously bounded) tail; the achieved bound is
    reported alongside the value."""
    ww = complex(w)
    ss = complex(s)
    j = _grow_terms(spectrum, ss, terms or (48 if spectrum.continued_tails else 512))
    pairs = _head_terms(spectrum, j + 1, ss)
    guard = pairs[j][0]
    head = 0j
    for lam, mult in pairs[:j]:
        base = lam + ss
        if base == 0:
            raise SingularityError(f"eigenvalue shift vanishes: lam = {lam}, s = {s}")
        head += mult * cmath.exp(-ww * cmath.log(base))

    if spectrum.continued_tails is not None:
        x = abs(ss) / guard
        tail = 0j
        binom = 1.0 + 0j
        last = math.inf
        for k in range(40):
            # one exponent per step: the stopping rule decides how many are needed
            term = binom * ss**k * spectrum.continued_tails(ww + k, 1, j)[0][0]
            tail += term
            last = abs(term)
            if k > 0 and last < 1e-18 * max(1.0, abs(tail)):
                break
            binom *= (-ww - k) / (k + 1)
        bound = 2 * last * x / (1 - x) + 1e-14 * (abs(head) + abs(tail))
        return SpectralValue(head + tail, bound, j)

    bound = spectrum.tail_bound(j, ww, ss)
    if math.isinf(bound):
        raise ConvergenceError(
            f"insufficient convergence for Re(w) = {ww.real} after {j} terms (bound achieved: inf)"
        )
    return SpectralValue(head, bound, j)


def log_regularized_det(
    spectrum: Spectrum,
    s: float,
    tol: float = 1e-8,
    terms: int | None = None,
    split_order: int = 30,
) -> SpectralValue:
    """log det'(Delta + s) = -d/dw zeta_{Delta+s}(w) at w = 0, as a
    SpectralValue (log det, achieved bound, head terms used).

    The derivative at 0 is assembled from the explicit head
    -sum mult log(lam + s), the continued bare-tail derivative T'(0),
    and the split series sum_{k>=1} (-1)^k s^k T(k) / k; the first
    omitted term, from T(split_order), bounds the series remainder.  All
    of these come from one tail table T(0), ..., T(split_order).
    Failure to meet `tol` raises with the bound achieved.
    """
    if spectrum.continued_tails is None:
        raise ConvergenceError(
            f"spectrum {spectrum.name} lacks continued tails; cannot reach w = 0"
        )
    ss = float(s)
    j = _grow_terms(spectrum, ss, terms or 64)
    pairs = _head_terms(spectrum, j + 1, ss)
    guard = pairs[j][0]
    head_log = 0.0
    for lam, mult in pairs[:j]:
        if lam + ss <= 0:
            raise PreconditionError(f"shifted eigenvalue {lam} + {s} is not positive")
        head_log += mult * math.log(lam + ss)

    tails = spectrum.continued_tails(0, split_order + 1, j)
    series = 0.0
    for k in range(1, split_order):
        series += (-1) ** k * ss**k * tails[k][0].real / k

    zeta_prime = -head_log + tails[0][1].real + series

    x = abs(ss) / guard
    rem = abs(tails[split_order][0].real)
    bound = rem * abs(ss) ** split_order / (split_order * (1 - x)) + 1e-14 * (
        1 + abs(head_log)
    )
    if bound > tol:
        raise ConvergenceError(f"tail bound not met: achieved {bound:.3e} > {tol:.3e}")
    return SpectralValue(-zeta_prime, bound, j)


def regularized_det(
    spectrum: Spectrum,
    s: float,
    tol: float = 1e-8,
    terms: int | None = None,
    split_order: int = 30,
) -> float:
    """det'(Delta + s) = exp(log_regularized_det(...)); a determinant
    beyond float range raises with its achieved log."""
    log_det = log_regularized_det(spectrum, s, tol, terms, split_order).value
    try:
        return math.exp(log_det)
    except OverflowError:
        raise ConvergenceError(
            f"determinant overflows a float: achieved log det = {log_det!r}"
        ) from None
