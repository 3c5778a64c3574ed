"""Two-variable zeta regularization and spectral determinants.

The regularizing integral of a counting function N is

    Z_N(w, s) = 1/Gamma(w) int_1^oo N(u) u^-(s+1) (log u)^(w-1) du,

whose w-derivative at 0 defines log zeta_N(s).  For finite power-log
sums the integral has the closed form

    Z_N(w, s) = sum c(lam, m) * w(w+1)...(w+m-1) * (s - lam)^(-w-m),

which provides the continuation to w = 0.  For spectra of Laplacians
the same integral turns N(u) = sum u^(-lam_j) into the operator zeta
sum_j (lam_j + s)^(-w).  One series continues it to w = 0: explicit
head terms, then the binomial split sum_k C(-w, k) s^k T(w + k) of the
rest into bare tails T(b) = sum lam_j^-b, continued by Euler-Maclaurin.
log det'(Delta + s) = -d/dw zeta(0) is the w-derivative of that series
at w = 0: a head of real logs, T'(0), and the same split at w = 0 from
k = 1 with coefficient -1, the w-derivative of C(-w, 1).  One routine
(`_split`) sums, stops and bounds the split for both.  Each asks the
spectrum only for what it sums: the split for values T(b), the
determinant once more for the slope T'(0).  For N(1) = 0 the
same substitution gives log zeta_N itself as an integral over (1, oo)
(`log_zeta_integral`); the one over (0, 1) is minus that of the dual
N(1/u) at -s.

The numeric core is stdlib only.  Integrals over [a, oo) use the exp-exp
rule x = a + exp(t - e^-t) / rate (`_complex_quad`; Takahasi-Mori 1974,
Mori-Sugihara 2001) at each integral's decay rate: Re w for Z_N's piece
below t0, Re s - degree above it and for the log integral.  It reaches
89/rate past a, or 11 bulk lengths where the peak of t^(Re w - 1 + m)
lies further out.  Its step halves level by level; the difference of the
last two levels is its error estimate, and an estimate above 1e-12
relative (1e-14 absolute) after the last level is a ConvergenceError,
never a returned value.  One routine
(`_power_log_integrand`) forms the integrand N(e^t) e^(-s t) t^k of all
three integrals: Z_N's pieces below and above its split point t0 and the
log integral.  It factors out the top exponent, one complex exp per
node: e^((top - s) t) times a real sum of terms e^((lam - top) t) t^m,
each at most 1; below t0 it takes t = t0 e^-x and folds the weight of
t^(w-1) dt into that exp.  An Euler-Maclaurin tail takes one exp and
steps its correction powers by the real a^-2, in float arithmetic for a
real exponent, and a determinant's head at real s sums real logs.
Bounds sum their magnitudes left to right (`_magnitude`), so they keep
their bits on every interpreter.  Gamma(w) is the exp of a Lanczos
log-Gamma (`_log_gamma`), reflected in logs, so that it is finite
wherever its value is.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import cache, lru_cache
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterator, Optional, Union

from .errors import ConvergenceError, PreconditionError, SingularityError
from .powerlog import PowerLogSum, _check_integer, _exp_in_range, _number, _Record, _shown

Complex = Union[complex, float, int]


def _power_log_integrand(
    n: PowerLogSum, rate: complex, k: complex, t0: Optional[float] = None
) -> Callable[[float], complex]:
    """x |-> N(e^t) e^(-rate t) t^k at t = x > 0 for N = sum c u^lam log^m u
    with real lam.  Given t0, the integrand over x > 0 of
    int_0^t0 N(e^t) e^(-rate t) t^(k-1) dt under t = t0 e^-x, less its
    factor t0^k: N(e^t) e^(-rate t) e^(-k x).  Both by top-exponent
    factoring, one complex exp per node:
        e^((top - rate) t) t^k sum c e^((lam - top) t) t^m,
    with top = n.degree.  Each real exp in the sum is at most 1, so no
    power of e^t overflows, and a top term takes none (c e^0 = c); a node
    where the complex exp's argument is below -745 underflows to 0 before
    any power of t is formed.  Without t0 a real k stays a real power t^k
    and a complex k joins the exponent as k log t; given t0, -k x joins it.
    """
    floats = n._floats()
    top = floats[-1][0]
    terms = [(lam - top, m, c) for lam, m, c in floats]
    lead = top - complex(rate)
    kk = complex(k)
    real_k = kk.real if t0 is None and kk.imag == 0 else None

    def integrand(x: float) -> complex:
        t = x if t0 is None else t0 * math.exp(-x)
        expo = lead * t if t0 is None else lead * t - kk * x
        if expo.real < -745.0:
            return 0j
        total = 0.0
        for gap, m, c in terms:
            term = c * math.exp(gap * t) if gap else c
            total += term * t**m if m else term
        if real_k is not None:
            return cmath.exp(expo) * (total * t**real_k if real_k else total)
        return cmath.exp(expo + kk * math.log(t) if t0 is None else expo) * total

    return integrand


# -- exp-exp quadrature on [a, oo) -----------------------------------------

# The tables hold the rate-free nodes (t, u, du/dt) of the exp-exp map
# x = a + scale * u, u = exp(t - e^-t), t in [-4.5, 4.5] (Takahasi-Mori
# 1974; Mori-Sugihara 2001); a call scales them by its 1/rate, or by
# bulk / _BULK_U, a reach of 11 bulk lengths, where that is larger.  u runs
# from 8e-42 to 89: the rule reaches 89/rate past a.  Level 0 has step 1
# and the nodes at every integer t; level k >= 1 halves the step and adds
# the nodes at the odd multiples of 2^-k, 9 * 2^(k-1) of them.  Levels
# 11-14 serve integrands that turn hundreds of times before they decay,
# such as e^(-(0.05 + 5i) x).
_T_MAX = 4.5
_LEVELS = 15
# the node tables of levels 0-10 are kept (4608 nodes at level 10); the
# deeper levels, 138 240 nodes together, are generated when reached
_TABLED_LEVELS = 11
_EPSREL = 1e-12
_EPSABS = 1e-14
# levels 0 and 1 (step 1/2) decide which right-hand nodes later levels
# skip: those beyond the last term above _NEGLIGIBLE times the largest
_SCOUT_LEVELS = 2
_NEGLIGIBLE = 1e-20
_BULK_U = 8.0  # the bulk sits at u = 8 (t = 2.2) at most


def _exp_exp_nodes(level: int) -> Iterator[tuple[float, float, float]]:
    """(t, u = exp(t - e^-t), du/dt) for the nodes a level adds, in
    increasing t."""
    step = 2.0**-level
    last = int(_T_MAX / step)
    for i in range(-last, last + 1):
        if level and i % 2 == 0:
            continue  # a node of an earlier level
        t = i * step
        fall = math.exp(-t)
        u = math.exp(t - fall)
        yield t, u, (1 + fall) * u


@cache
def _node_table(level: int) -> tuple[tuple[float, float, float], ...]:
    """The nodes of a level below _TABLED_LEVELS, built on the first call
    that reaches it."""
    return tuple(_exp_exp_nodes(level))


def _right_cut(terms: list[tuple[float, complex]]) -> float:
    """The first t beyond which every scouted term is negligible against
    the largest one (inf if the rightmost term is not negligible)."""
    terms.sort(key=lambda item: item[0])
    floor = _NEGLIGIBLE * max((abs(term) for _, term in terms), default=0.0)
    cut = math.inf
    for t, term in reversed(terms):
        if abs(term) > floor:
            break
        cut = t
    return cut


def _complex_quad(
    fn: Callable[[float], complex], a: float, rate: float, bulk: float = 0.0,
    target: Optional[float] = None,
) -> tuple[complex, float]:
    """(value, estimate) of int_a^oo fn(x) dx for a complex integrand whose
    mass sits about `bulk` past a and decays like e^(-rate x) beyond it.

    The exp-exp rule (Takahasi-Mori, Publ. RIMS 9 (1974); Mori-Sugihara,
    J. Comput. Appl. Math. 127 (2001)): x = a + scale exp(t - e^-t), with
    scale = 1/rate, or bulk / _BULK_U if larger, makes such an integrand
    decay double exponentially in t at both ends, so the trapezoidal sum
    over t in [-4.5, 4.5] converges fast as its step halves level by
    level.  `fn` is evaluated once per node, never at a node whose offset
    from a underflows (below the least normal float, or x == a).  Once
    the levels of step 1 and 1/2 show that the terms right of some node
    are negligible, later levels skip the nodes there; if no such node
    exists, the integrand decays too slowly, a ConvergenceError.

    The estimate is the difference of the last two levels.  The rule
    stops at the first level (from the second on) whose estimate is
    within the tolerance: `target` if given, else max(1e-12 |value|,
    1e-14).  A miss after the last level (step 2^-14) is a
    ConvergenceError naming the estimate and the tolerance, and so are an
    integrand that overflows a float or whose phase does (a ValueError
    from cmath.exp), both naming x, and a rate whose 1/rate overflows.
    """
    scale = max(1 / rate, bulk / _BULK_U)
    if scale == math.inf:
        raise ConvergenceError(f"exp-exp quadrature: a decay rate of {rate!r} leaves float range")
    tiny = sys.float_info.min
    total = 0j  # sum of fn(x) du/dt over the nodes of every level so far
    previous = 0j
    estimate = tolerance = math.inf
    scouted: list[tuple[float, complex]] = []
    cut = math.inf
    for level in range(_LEVELS):
        nodes = _node_table(level) if level < _TABLED_LEVELS else _exp_exp_nodes(level)
        for t, u, weight in nodes:
            if t > cut:
                break
            x = a + scale * u
            if x - a < tiny:
                continue
            try:
                term = fn(x) * weight
            except OverflowError:
                raise ConvergenceError(
                    f"exp-exp quadrature: the integrand overflows a float at x = {x!r}"
                ) from None
            except ValueError:  # cmath.exp of an exponent whose imaginary part is inf
                raise ConvergenceError(
                    f"exp-exp quadrature: the integrand's phase leaves float range at x = {x!r}"
                ) from None
            total += term
            if level < _SCOUT_LEVELS:
                scouted.append((t, term))
        if level == _SCOUT_LEVELS - 1:
            cut = _right_cut(scouted)
            if cut == math.inf and scouted:  # u is the last node's, at t = 4.5
                raise ConvergenceError(
                    f"exp-exp quadrature: the integrand is not negligible at x = {a + scale * u!r}; "
                    f"it decays slower than e^(-{rate!r} x)")
        value = total * (scale * 2.0**-level)
        if level:
            estimate = abs(value - previous)
            tolerance = max(_EPSREL * abs(value), _EPSABS) if target is None else target
            if estimate <= tolerance:
                return value, estimate
        previous = value
    raise ConvergenceError(
        f"exp-exp quadrature missed its tolerance after {_LEVELS} levels: "
        f"estimate {estimate:.3e} > {tolerance:.3e}"
    )


def gamma_ratio_poly(w: Complex, m: int) -> complex:
    """Gamma(w+m)/Gamma(w) = w (w+1) ... (w+m-1), a polynomial in w; a
    value beyond float range is a ConvergenceError."""
    ww = _number(w, "w")
    out = 1.0 + 0j
    for i in range(m):
        out *= ww + i
    if not cmath.isfinite(out):
        raise ConvergenceError(f"Gamma(w + {m})/Gamma(w) overflows a float at w = {ww}")
    return out


def two_variable_zeta_closed(n: PowerLogSum, w: Complex, s: Complex) -> complex:
    """Closed-form Z_N(w, s); defined for all finite w, singular only at
    s = lam.  A value beyond float range is a ConvergenceError."""
    ww = _number(w, "w")
    ss = _number(s, "s")
    total = 0j
    for (lam, m, _), (x, _, c) in zip(n.terms, n._floats()):
        base = ss - x
        if base == 0:
            raise SingularityError(f"Z_N singular at s = {lam} (term with m = {m})")
        power = _exp_in_range(-(ww + m) * cmath.log(base), "(s - {})^-(w + {})", lam, m)
        total += c * gamma_ratio_poly(ww, m) * power
    if not cmath.isfinite(total):
        raise ConvergenceError(f"Z_N(w, s) overflows a float at w = {ww}, s = {ss}")
    return total


def _convergent_s(n: PowerLogSum, s: Complex, what: str) -> tuple[complex, float]:
    """(s, edge) for an s with Re s > edge, the degree of n (-inf for the
    zero sum, where every s converges): the half-plane of the integrals
    over u > 1.  Any other s is a PreconditionError saying `what` diverges."""
    ss = _number(s, "s")
    edge = -math.inf if n.is_zero else n._floats()[-1][0]
    if not ss.real > edge:
        raise PreconditionError(f"{what} diverges: need Re(s) > {edge}, got s = {ss}")
    return ss, edge


def two_variable_zeta_numeric(n: PowerLogSum, w: Complex, s: Complex) -> complex:
    """Quadrature evaluation of Z_N(w, s) on its convergence half-planes.

    Substituting u = e^t gives 1/Gamma(w) int_0^oo N(e^t) e^-st t^(w-1) dt,
    split at t0 = max(1, 4 / (Re s - degree)).  The endpoint weight
    t^(w-1) on (0, t0) is removed by t = t0 e^-v, which turns that piece
    into t0^w times a smooth integrand decaying like e^(-Re(w) v).  Either
    piece missing the quadrature tolerance is a ConvergenceError.  When
    the two estimates together miss the tolerance on the sum (the pieces
    cancel), each piece is rerun to half of that tolerance.
    """
    ww = _number(w, "w")
    if not ww.real > 0:
        raise PreconditionError(f"integral needs Re(w) > 0, got w = {ww}")
    ss, edge = _convergent_s(n, s, "integral")
    if n.is_zero:
        return 0j
    # split where the tail e^(-(Re s - degree) t) has fallen by e^-4, so
    # that the upper piece starts near its bulk instead of far before it
    rate = ss.real - edge
    t0 = max(1.0, 4.0 / rate)
    scale = _exp_in_range(ww * math.log(t0), "t0^w at t0 = {}", t0)
    # (integrand, a, rate, bulk) of each piece: e^(-w x) e^(-rate t0 e^-x)
    # peaks at x = log(rate t0 / w), t^(w - 1 + m) e^(-rate t) at
    # t = (w - 1 + m) / rate
    lower_args = (_power_log_integrand(n, ss, ww, t0), 0.0, ww.real,
                  math.log(rate * t0) - math.log(ww.real))
    upper_args = (_power_log_integrand(n, ss, ww - 1), t0, rate,
                  (ww.real - 1 + max(m for _, m, _ in n.terms)) / rate - t0)
    lower, lower_estimate = _complex_quad(*lower_args)
    upper, upper_estimate = _complex_quad(*upper_args)
    total = lower * scale + upper
    tolerance = max(_EPSREL * abs(total), _EPSABS)
    if lower_estimate * abs(scale) + upper_estimate > tolerance:
        # the pieces are far larger than their sum when e^(-st) turns many
        # times over (0, t0): rerun each to half the tolerance on the sum
        lower, lower_estimate = _complex_quad(*lower_args, tolerance / 2 / abs(scale))
        upper, upper_estimate = _complex_quad(*upper_args, tolerance / 2)
        total = lower * scale + upper
    return total / _gamma(ww)


# Lanczos approximation with g = 7 and 9 coefficients
_LANCZOS_G = 7
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _log_gamma(z: complex) -> complex:
    """A logarithm of the complex Gamma by the Lanczos approximation,
    reflected through Gamma(z) Gamma(1 - z) = pi / sin(pi z) for
    Re z < 1/2.  For |Im z| >= 1 the log of the sine is taken as
    -i sg pi z + log(1 - e^(2 i sg pi z)) - log(-2 i sg) with sg the sign
    of Im z, which no |Im z| overflows; |e^(2 i sg pi z)| <= e^-2pi
    there, so nothing cancels."""
    if z.real < 0.5:
        if abs(z.imag) >= 1:
            sg = math.copysign(1.0, z.imag)
            turn = 1j * sg * math.pi * z
            log_sin = -turn + cmath.log(1 - cmath.exp(2 * turn)) - cmath.log(-2j * sg)
        else:
            log_sin = cmath.log(cmath.sin(math.pi * z))
        return math.log(math.pi) - log_sin - _log_gamma(1 - z)
    z -= 1
    x = _LANCZOS[0] + sum(c / (z + i) for i, c in enumerate(_LANCZOS[1:], 1))
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2 * math.pi) + (z + 0.5) * cmath.log(t) - t + cmath.log(x)


def _gamma(z: complex) -> complex:
    """Complex Gamma, exp of `_log_gamma`; a value beyond float range is a
    ConvergenceError, one below it rounds toward 0."""
    return _exp_in_range(_log_gamma(z), "Gamma")


def zeta_from_regularization(n: PowerLogSum, s: Complex) -> complex:
    """exp(d/dw Z_N(w, s) at w = 0), evaluated from the closed form.

    Term derivatives at w = 0: -c log(s - lam) for m = 0 and
    c (m-1)! (s - lam)^-m for m >= 1, which sum to log_evaluate_zeta; a
    value beyond float range is a ConvergenceError naming that log.
    `zetas` is imported here, so that a process that asks no zeta of a
    power-log sum never loads it.
    """
    from .zetas import log_evaluate_zeta, zeta_of

    return _exp_in_range(log_evaluate_zeta(zeta_of(n), s), "zeta value at s = {}", s)


# -- log-integral representation for N(1) = 0 --------------------------


class LogZetaIntegral(_Record):
    value: complex
    error_estimate: float  # the quadrature's own estimate (see _complex_quad)


def log_zeta_integral(n: PowerLogSum, s: complex) -> LogZetaIntegral:
    """The integral I of N(u) / (u^(s+1) log u) over (1, oo).

    It exists only for N(1) = 0 (the integrand is otherwise
    non-integrable at u = 1), converges for Re(s) > max exponent and
    satisfies exp(-I) = zeta_N(s)^(-1).  The integral over (0, 1) is this
    one for the dual N*(u) = N(1/u) at -s, negated (u -> 1/u): it
    converges for Re(s) < min exponent, equals
    -log_zeta_integral(n.dual(), -s).value and yields exp(-I) = zeta_{N*}(-s).
    """
    if n.value_at_one() != 0:
        raise PreconditionError("log-integral form requires N(1) = 0")
    ss, edge = _convergent_s(n, s, "upper integral")
    if n.is_zero:
        return LogZetaIntegral(0j, 0.0)
    # substitution u = e^t maps it to int_0^oo N(e^t) e^(-s t) / t dt, whose
    # t^(m - 1) e^(-(s - degree) t) peaks at t = (m - 1) / (s - degree); the
    # rule never evaluates at t = 0 itself
    rate = ss.real - edge
    value, estimate = _complex_quad(_power_log_integrand(n, ss, -1), 0.0, rate,
                                    (max(m for _, m, _ in n.terms) - 1) / rate)
    return LogZetaIntegral(value, estimate)


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
_EM_TERMS = 8  # Euler-Maclaurin correction terms of a continued tail
# per correction k = 1 .. _EM_TERMS: (B_2k/(2k)!, 2k - 1, 2k), the last two
# the offsets of the factors that extend the rising factorial after it
_EM_STEPS = tuple((coef, float(2 * k - 1), float(2 * k))
                  for k, coef in enumerate(_EM_COEFFS[:_EM_TERMS], 1))
_EM_OMITTED = _EM_COEFFS[_EM_TERMS]  # the first omitted correction, read as the error


def _em_tail(b: Complex, start: float) -> tuple[complex, float]:
    """Continued tail sum_{i >= 0} (a + i)^(-b), a = start + 1, with an
    error estimate; `start` may be any real >= 0.

    Euler-Maclaurin with _EM_TERMS correction terms:
        a^(1-b)/(b-1) + a^(-b)/2
        + sum_k B_2k/(2k)! * b(b+1)...(b+2k-2) * a^(-b-2k+1).
    The estimate is the magnitude of the first omitted correction plus
    that of its b-derivative; at b = 0 the sum is `_em_slope`'s
    estimate.  The continued sum has a genuine pole at b = 1.
    One exp gives a^-b; after each term the power gains a factor a^-2 and
    the rising factorial (b + 2k - 1)(b + 2k).  A b with zero imaginary
    part runs in float arithmetic, which rounds as the complex one does.
    """
    bb = complex(b)
    if abs(bb - 1) < 1e-9:
        raise SingularityError("the continued Dirichlet tail has a pole at exponent 1")
    if bb.imag == 0:
        bb = bb.real
    a = float(start + 1)
    la = math.log(a)
    apow = cmath.exp(-bb * la) if isinstance(bb, complex) else math.exp(-bb * la)
    inv_a2 = 1 / (a * a)
    apk = apow / a  # a^-(b + 2k - 1) for k = 1, times a^-2 per k
    val = a * apow / (bb - 1) + apow / 2
    rise_v, rise_d = bb, 1.0  # b(b+1)...(b+2k-2) for k = 1, and its d/db
    for coef, odd, even in _EM_STEPS:
        val += coef * rise_v * apk
        apk *= inv_a2
        f = bb + odd
        rise_v, rise_d = rise_v * f, rise_d * f + rise_v
        f = bb + even
        rise_v, rise_d = rise_v * f, rise_d * f + rise_v
    return val, abs(_EM_OMITTED * rise_v * apk) + abs(_EM_OMITTED * apk * (rise_d - la * rise_v))


def _em_slope(start: float) -> tuple[float, float]:
    """d/db of `_em_tail`'s continued tail at b = 0, the continued
    -sum_{i >= 0} log(a + i), with the same error estimate as
    `_em_tail(0.0, start)`.  At b = 0, a^-b is 1 and the rising factorial
    b(b+1)...(b+2k-2) vanishes, so each correction's derivative is
    B_2k/(2k)! (2k - 2)! a^(-2k+1) and the estimate that of the first
    omitted one."""
    a = float(start + 1)
    la = math.log(a)
    inv_a2 = 1 / (a * a)
    apk = 1 / a
    der = -a * (1 - la) - la / 2
    rise_d = 1.0  # (2k - 2)!, exact in floats
    for coef, odd, even in _EM_STEPS:
        der += coef * apk * rise_d
        apk *= inv_a2
        rise_d = rise_d * odd * even
    return der, abs(_EM_OMITTED * apk * rise_d)


# -- spectra --------------------------------------------------------------


class Spectrum(_Record):
    """Plug-in description of the nonzero eigenvalues of a Laplacian.

    The callbacks describe a sequence lam_j; the spectrum is
    lam_j + shift.  `eigenvalues(count)` yields the first `count`
    (lam_j, multiplicity) pairs in nondecreasing order.
    `continued_tail(b, J)` returns (T(b), err): the analytically
    continued bare tail T(b) = sum_{j>J} mult lam_j^-b at one exponent
    and a bound on its truncation error.  `continued_slope(J)` returns
    (T'(0), err), the b-derivative of that tail at b = 0 and its bound.
    spectral_zeta asks for T at complex b = w + k; log_regularized_det
    asks once for T'(0) and then for T at the real b = k.  Both evaluate
    the callbacks at s + shift where the caller passed s, so a shifted
    spectrum costs what its base costs.
    """

    name: str
    eigenvalues: Callable[[int], tuple[tuple[float, int], ...]]
    continued_tail: Callable[[complex, int], tuple[complex, float]]
    continued_slope: Callable[[int], tuple[float, float]]
    shift: float = 0.0


# The circle's head pairs are kept up to this count; a longer head is
# built per call and dropped with it.  The tails and slopes are kept per
# (exponent, head size), least recently used first out.  Full, the three
# hold about 0.23 MB.
_TABLED_PAIRS = 512
_circle_table: tuple[tuple[float, int], ...] = ()


def _circle_eigenvalues(count: int) -> tuple[tuple[float, int], ...]:
    """The first `count` pairs (n^2, 2), served from a prefix table that
    grows to the largest count asked for, up to _TABLED_PAIRS.  Two
    threads growing it at once can only leave a shorter correct prefix."""
    global _circle_table
    table = _circle_table
    if count > len(table):
        if count > _TABLED_PAIRS:
            return tuple([(float(n * n), 2) for n in range(1, count + 1)])
        table = _circle_table = table + tuple(
            [(float(n * n), 2) for n in range(len(table) + 1, count + 1)])
    return table if count == len(table) else table[:max(count, 0)]


@lru_cache(maxsize=512)
def _circle_tail(b: complex, j: int) -> tuple[complex, float]:
    # sum_{n>j} 2 (n^2)^-b = 2 T_em(2b); the omitted Euler-Maclaurin
    # correction of T_em and of its derivative, times 4, bounds it.  A
    # real b and the complex b + 0j are one key: both run _em_tail's
    # float path, so either caller gets the same value
    val, err = _em_tail(2 * complex(b), j)
    return 2 * val, 4 * err


@lru_cache(maxsize=64)
def _circle_slope(j: int) -> tuple[float, float]:
    # d/db 2 T_em(2b) at b = 0 is 4 T_em'(0), bounded as its value is
    der, err = _em_slope(j)
    return 4 * der, 4 * err


_CIRCLE = Spectrum("circle", _circle_eigenvalues, _circle_tail, _circle_slope)


def circle_spectrum() -> Spectrum:
    """Circle of circumference 2 pi: eigenvalues n^2, multiplicity 2, n >= 1.

    Stated explicitly because determinant values depend on this
    normalization.  Every call returns the same immutable record, built
    once when the module is imported.  Its callbacks keep what they
    compute: tails and slopes per (exponent, head size), and the head
    pairs up to _TABLED_PAIRS, so every shifted circle reuses them.
    """
    return _CIRCLE


def shift_spectrum(base: Spectrum, shift: float) -> Spectrum:
    """The spectrum lam_j + shift: the base with its shift moved by
    `shift`, evaluated at s + shift wherever the base is evaluated at s.
    The shifted eigenvalues must stay positive."""
    total = base.shift + _number(shift, "shift", real=True)
    if not math.isfinite(total):
        raise PreconditionError(f"a shift must be finite, got {total!r}")
    shifted = Spectrum(f"{base.name}+{_shown(shift, str)}", base.eigenvalues, base.continued_tail,
                       base.continued_slope, total)
    first = shifted.eigenvalues(1)
    if first and not first[0][0] + shifted.shift > 0:
        raise PreconditionError("shifted eigenvalues must stay positive")
    return shifted


BUILTIN_SPECTRA: dict[str, Callable[[], Spectrum]] = {"circle": circle_spectrum}


def spectrum_by_name(name: str) -> Spectrum:
    try:
        return BUILTIN_SPECTRA[name]()
    except KeyError as exc:
        raise PreconditionError(
            f"unknown spectrum {name!r} (built-ins: {sorted(BUILTIN_SPECTRA)})"
        ) from exc


# -- spectral zeta and determinant -----------------------------------------

MAX_HEAD_TERMS = 1 << 20  # explicit eigenvalues summed before a tail
_SPLIT_TERMS = 40  # at most this many terms of the binomial split of the tail
_ROUNDING = 2.0**-50  # rounding charged per unit of magnitude summed: 4 units of 2^-52
# the largest |w| a spectral zeta accepts: the circle tails' rising
# factorials, of degree 17 in w, leave float range near |w| = 6e17 and
# then make NaN values; up to 1e6 they stay far inside it
_MAX_W = 1e6


class SpectralValue(_Record):
    value: complex
    error_bound: float
    terms_used: int

    def __init__(self, value: complex, error_bound: float, terms_used: int) -> None:
        d = self.__dict__
        d["value"], d["error_bound"], d["terms_used"] = value, error_bound, terms_used


def _head(spectrum: Spectrum, x: Complex, start: int) -> tuple[int, tuple[tuple[float, int], ...]]:
    """(j, the first j + 1 eigenvalue pairs) at x = s + shift: j doubles
    from `start` until lam_(j+1) > 2 |x|, so that the binomial split of
    the tail beyond j converges.  lam_1 + Re x <= 0 fails before the head
    grows; above it every lam + Re x is positive, as the eigenvalues are
    nondecreasing and float addition is monotone."""
    _check_integer(start, "head terms", 1, MAX_HEAD_TERMS)
    if not cmath.isfinite(x):
        raise PreconditionError(f"need a finite s + shift, got {x!r}")
    j = start
    pairs = spectrum.eigenvalues(j + 1)
    if not pairs:
        raise PreconditionError("spectrum enumerated no eigenvalues")
    first = pairs[0][0] + x.real
    if not first > 0:
        raise PreconditionError(
            f"need lam_1 + Re(s + shift) > 0 for the first shifted eigenvalue, got {first!r}")
    while pairs[j][0] <= 2 * abs(x):
        j *= 2
        if j > MAX_HEAD_TERMS:
            raise ConvergenceError("eigenvalue growth too slow against |s + shift|")
        pairs = spectrum.eigenvalues(j + 1)
    return j, pairs


def _fsum(terms: list[complex]) -> complex:
    return complex(math.fsum(map(attrgetter("real"), terms)),
                   math.fsum(map(attrgetter("imag"), terms)))


def _magnitude(terms: list) -> float:
    """sum |t| left to right.  The builtin `sum` of floats is compensated
    from Python 3.12 on, which moves a bound's last bits by interpreter."""
    size = 0.0
    for term in terms:
        size += abs(term)
    return size


def _split(spectrum: Spectrum, pairs: tuple[tuple[float, int], ...], j: int, w: Complex,
           x: complex, head: Complex, size: float, start: int = 0, coef: Complex = 1.0 + 0j,
           tail: Complex = 0j, truncation: float = 0.0) -> tuple[complex, float]:
    """(head + tail + sum_{k>=start} c_k x^k T(w + k), its achieved bound):
    the binomial split of the tail beyond pairs[:j] from its term
    k = start, with c_start = coef and c_(k+1) = c_k (-w - k) / (k + 1),
    after a part `tail` already summed with truncation error
    `truncation`; `size` is the magnitude summed before the split.

    The terms are summed until one (from k = 1 on) is below 1e-18 of the
    tail, or for _SPLIT_TERMS terms; a k >= 1 with x^k = 0 ends them as a
    term 0 without asking its tail.  As T(b + 1) <= T(b) / lam_(j+1),
    they shrink by about r = |x| / lam_(j+1) < 1/2 per step, and twice the
    last term times r / (1 - r) bounds the rest.  Each tail's truncation
    error err is charged at its term's weight |c_k x^k|.  Rounding adds
    _ROUNDING times the result and the magnitudes summed, these scaled by
    1 + |w log(lam + x)|.
    """
    guard = pairs[j][0]
    for k in range(start, _SPLIT_TERMS):
        power = x**k
        if k and not power:
            term = 0.0  # x^k = 0: this term and every later one vanish
            break
        t, err = spectrum.continued_tail(w + k, j)
        term = coef * power * t
        tail += term
        size += abs(term)
        truncation += abs(coef) * (abs(power) * err)
        if k and abs(term) / max(1.0, abs(tail)) < 1e-18:
            break
        coef *= (-w - k) / (k + 1)
    value = head + tail
    rest = 2 * abs(x) / (guard - abs(x))  # 2 r / (1 - r)
    # |log z| <= |log|z|| + pi, and _head's lam_1 + Re x > 0 puts every
    # |lam + x| in [lam_1 + Re x, lam_(j+1) + |x|]
    reach = max(math.log(guard + abs(x)), -math.log(pairs[0][0] + x.real)) + math.pi
    charge = _ROUNDING * (1 + abs(w) * reach)
    return value, rest * abs(term) + charge * size + _ROUNDING * abs(value) + truncation


def spectral_zeta(
    spectrum: Spectrum, w: Complex, s: Complex, terms: int | None = None
) -> SpectralValue:
    """zeta(w) = sum mult (lam + x)^-w with x = s + shift, with its
    achieved bound, from a head of `terms` eigenvalues (default 48, grown
    by `_head`).

    math.fsum sums the head terms mult (lam + x)^-w; `_split` sums the
    rest, sum_{k>=0} C(-w, k) x^k T(w + k), and bounds the whole.
    """
    x = _number(s, "s") + spectrum.shift
    ww = _number(w, "w")
    if not abs(ww) <= _MAX_W:
        raise PreconditionError(f"need a finite w with |w| <= {_MAX_W:g}, got {ww!r}")
    j, pairs = _head(spectrum, x, 48 if terms is None else terms)
    try:
        values = [mult * cmath.exp(-ww * cmath.log(lam + x)) for lam, mult in islice(pairs, j)]
        value, bound = _split(spectrum, pairs, j, ww, x, _fsum(values), _magnitude(values))
    except OverflowError:
        value = bound = math.inf
    if not (cmath.isfinite(value) and math.isfinite(bound)):
        raise ConvergenceError(f"spectral zeta at w = {ww!r}, s + shift = {x!r} overflows a float")
    return SpectralValue(value, bound, j)


def log_regularized_det(
    spectrum: Spectrum,
    s: float,
    tol: float = 1e-8,
    terms: int | None = None,
) -> SpectralValue:
    """log det'(Delta + s) = -d/dw zeta_{Delta+s}(w) at w = 0, as a
    SpectralValue (log det, achieved bound, head terms used), from a head
    of `terms` eigenvalues (default 64, grown by `_head`).

    At w = 0 the w-derivative of spectral_zeta's series is real:
        -sum mult log(lam + x) + T'(0) + sum_{k>=1} c_k x^k T(k)
    with x = s + shift and c_k = d/dw C(-w, k) at 0 = (-1)^k / k.  After
    the head of real logs and T'(0), that is `_split` at w = 0 from
    k = 1 and c_1 = -1: its ratio (-w - k) / (k + 1) is then
    -k / (k + 1), and its rounding charge _ROUNDING.  Failure to meet
    `tol` raises with the bound achieved; `tol` must be positive, and inf
    asks for no gate.
    """
    if type(tol) is not float:  # a float is compared as it is: inf asks for no gate
        tol = _number(tol, "tolerance", real=True)
    if not tol > 0:
        raise PreconditionError(f"a tolerance must be positive, got {tol!r}")
    x = _number(s, "s", real=True) + spectrum.shift
    j, pairs = _head(spectrum, x, 64 if terms is None else terms)
    slopes = [-mult * math.log(lam + x) for lam, mult in islice(pairs, j)]
    slope, err = spectrum.continued_slope(j)  # T'(0), its err
    size = _magnitude(slopes) + abs(slope)
    # w = 0.0, not 0j: the tails see the real exponents b = k
    value, bound = _split(spectrum, pairs, j, 0.0, complex(x), math.fsum(slopes), size,
                          1, -1.0, slope, err)
    if not bound <= tol:
        raise ConvergenceError(f"tail bound not met: achieved {bound:.3e} > {tol:.3e}")
    return SpectralValue(-value.real, bound, j)


def regularized_det(
    spectrum: Spectrum,
    s: float,
    tol: float = 1e-8,
    terms: int | None = None,
) -> float:
    """det'(Delta + s) = exp(log_regularized_det(...)); a determinant
    beyond float range raises with its achieved log."""
    log_det = log_regularized_det(spectrum, s, tol, terms).value
    return _exp_in_range(log_det, "determinant", name="log det")
