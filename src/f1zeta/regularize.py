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

Complex = Union[complex, float, int]


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

    Substituting u = e^t gives 1/Gamma(w) int_0^oo N(e^t) e^-st t^(w-1) dt.
    The endpoint weight t^(w-1) on (0, 1) is removed by t = e^-v, which
    turns that piece into a smooth integrand decaying like e^(-Re(w) v).
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
    terms = [(float(lam), m, float(c)) for lam, m, c in n.terms]

    def weighted(t: float) -> complex:
        # N(e^t) e^(-st) assembled per term in log space to avoid overflow
        total = 0j
        for lam, m, c in terms:
            expo = (lam - ss) * t
            if expo.real < -745.0:
                continue
            total += c * cmath.exp(expo) * t**m
        return total

    lower = _complex_quad(
        lambda v: weighted(math.exp(-v)) * cmath.exp(-ww * v), 0.0, math.inf
    )
    upper = _complex_quad(
        lambda t: weighted(t) * cmath.exp((ww - 1) * math.log(t)), 1.0, math.inf
    )
    from scipy.special import gamma

    return complex((lower + upper) / gamma(ww))


def zeta_from_regularization(n: PowerLogSum, s: Complex) -> complex:
    """exp(d/dw Z_N(w, s) at w = 0), evaluated from the closed form.

    Term derivatives at w = 0: -c log(s - lam) for m = 0 and
    c (m-1)! (s - lam)^-m for m >= 1.
    """
    ss = complex(s)
    deriv = 0j
    for lam, m, c in n.terms:
        base = ss - float(lam)
        if base == 0:
            raise SingularityError(f"singular at s = {lam}")
        if m == 0:
            deriv -= float(c) * cmath.log(base)
        else:
            deriv += float(c) * math.factorial(m - 1) * base ** (-m)
    return cmath.exp(deriv)


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
    if terms + 1 > max(_BERNOULLI) // 2:
        raise PreconditionError(f"at most {max(_BERNOULLI) // 2 - 1} correction terms supported")
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
        coef = float(_BERNOULLI[2 * k]) / math.factorial(2 * k)
        apk = cmath.exp(-(bb + 2 * k - 1) * la)
        term = coef * rise_v * apk
        dterm = coef * apk * (rise_d - la * rise_v)
        if k == terms + 1:
            return val, der, abs(term) + abs(dterm)
        val += term
        der += dterm
    raise AssertionError("unreachable")


# -- spectra --------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Plug-in description of the nonzero eigenvalues of a Laplacian.

    `eigenvalues(count)` yields the first `count` (value, multiplicity)
    pairs in nondecreasing order; `tail_bound(J, w, s)` bounds the
    omitted raw tail |sum_{j>J} mult (lam_j + s)^-w|.  The optional
    `dirichlet_tail(a, J)` / `dirichlet_tail_deriv(a, J)` callbacks
    provide the analytically continued bare tails sum_{j>J} mult lam^-a
    and enable continuation to w = 0 (required by regularized_det).
    """

    name: str
    eigenvalues: Callable[[int], tuple[tuple[float, int], ...]]
    tail_bound: Callable[[int, complex, complex], float]
    dirichlet_tail: Optional[Callable[[complex, int], complex]] = None
    dirichlet_tail_deriv: Optional[Callable[[complex, int], complex]] = None


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

    def dirichlet_tail(a: complex, j: int) -> complex:
        val, _, _ = _em_tail(2 * complex(a), j)
        return 2 * val

    def dirichlet_tail_deriv(a: complex, j: int) -> complex:
        _, der, _ = _em_tail(2 * complex(a), j)
        return 4 * der

    return Spectrum("circle", eigenvalues, tail_bound, dirichlet_tail, dirichlet_tail_deriv)


def shift_spectrum(base: Spectrum, shift: float, split_order: int = 24) -> Spectrum:
    """The spectrum mu_j = lam_j + shift, with continued tails derived
    from the base spectrum by a binomial split (requires shift small
    against the first omitted eigenvalue)."""

    def eigenvalues(count: int) -> tuple[tuple[float, int], ...]:
        pairs = tuple((lam + shift, m) for lam, m in base.eigenvalues(count))
        if pairs and pairs[0][0] <= 0:
            raise PreconditionError("shifted eigenvalues must stay positive")
        return pairs

    def tail_bound(j: int, w: complex, s: complex) -> float:
        return base.tail_bound(j, w, complex(s) + shift)

    def dirichlet_tail(a: complex, j: int) -> complex:
        if base.dirichlet_tail is None:
            raise ConvergenceError(f"spectrum {base.name} lacks continued tails")
        total = 0j
        binom = 1.0 + 0j
        for k in range(split_order):
            total += binom * shift**k * base.dirichlet_tail(complex(a) + k, j)
            binom *= (-complex(a) - k) / (k + 1)
        return total

    def dirichlet_tail_deriv(a: complex, j: int) -> complex:
        if base.dirichlet_tail is None or base.dirichlet_tail_deriv is None:
            raise ConvergenceError(f"spectrum {base.name} lacks continued tails")
        total = 0j
        bv, bd = 1.0 + 0j, 0j  # binom(-a, k) and its d/da
        for k in range(split_order):
            total += shift**k * (
                bd * base.dirichlet_tail(complex(a) + k, j)
                + bv * base.dirichlet_tail_deriv(complex(a) + k, j)
            )
            f = (-complex(a) - k) / (k + 1)
            bv, bd = bv * f, bd * f + bv * (-1.0 / (k + 1))
        return total

    return Spectrum(
        f"{base.name}+{shift}", eigenvalues, tail_bound, dirichlet_tail, dirichlet_tail_deriv
    )


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
    j = _grow_terms(spectrum, ss, terms or (48 if spectrum.dirichlet_tail else 512))
    pairs = _head_terms(spectrum, j + 1, ss)
    guard = pairs[j][0]
    head = 0j
    for lam, mult in pairs[:j]:
        base = lam + ss
        if base == 0:
            raise SingularityError(f"eigenvalue shift vanishes: lam = {lam}, s = {s}")
        head += mult * cmath.exp(-ww * cmath.log(base))

    if spectrum.dirichlet_tail is not None:
        x = abs(ss) / guard
        tail = 0j
        binom = 1.0 + 0j
        last = math.inf
        for k in range(40):
            term = binom * ss**k * spectrum.dirichlet_tail(ww + k, j)
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


def regularized_det(
    spectrum: Spectrum,
    s: float,
    tol: float = 1e-8,
    terms: int | None = None,
    split_order: int = 30,
) -> float:
    """det'(Delta + s) = exp(-d/dw zeta_{Delta+s}(w) at w = 0).

    The derivative at 0 is assembled from the explicit head
    -sum mult log(lam + s), the continued bare-tail derivative, and the
    split series sum_{k>=1} (-1)^k s^k D(k) / k with D(k) the continued
    tails; failure to meet `tol` raises with the bound achieved, and a
    determinant beyond float range raises with its achieved log.
    """
    if spectrum.dirichlet_tail is None or spectrum.dirichlet_tail_deriv is None:
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

    series = 0.0
    for k in range(1, split_order):
        series += (-1) ** k * ss**k * spectrum.dirichlet_tail(k, j).real / k

    zeta_prime = -head_log + spectrum.dirichlet_tail_deriv(0.0, j).real + series

    x = abs(ss) / guard
    rem = abs(spectrum.dirichlet_tail(split_order, j).real)
    bound = rem * abs(ss) ** split_order / (split_order * (1 - x)) + 1e-14 * (
        1 + abs(head_log)
    )
    if bound > tol:
        raise ConvergenceError(f"tail bound not met: achieved {bound:.3e} > {tol:.3e}")
    try:
        return math.exp(-zeta_prime)
    except OverflowError:
        raise ConvergenceError(
            f"determinant overflows a float: achieved log det = {-zeta_prime!r}"
        ) from None
