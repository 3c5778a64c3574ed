"""Reference values for the benchmark, computed without f1zeta.

Everything here uses the standard library only, and where a closed form
exists it is used instead of the defining sum that f1zeta evaluates.
Schemes are plain lists of ``(rank, torsion_orders)`` pairs; power-log
sums are dicts ``{(lam, m): c}`` with ``Fraction`` keys and values.
Records follow the f1zeta file layout
``(lam_num, lam_den, m, c_num, c_den)``, sorted by ``(lam, m)``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product

Points = list[tuple[int, tuple[int, ...]]]


def records(terms: dict[tuple[Fraction, int], Fraction]) -> tuple[tuple[int, ...], ...]:
    return tuple(
        (lam.numerator, lam.denominator, m, c.numerator, c.denominator)
        for (lam, m), c in sorted(terms.items())
        if c != 0
    )


def poly_records(coeffs: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    return records({(Fraction(k), 0): Fraction(c) for k, c in coeffs.items()})


# -- projective space and point data ------------------------------------


def pn_count(n: int, q: int) -> int:
    """#P^n(F_q) = (q^(n+1) - 1)/(q - 1)."""
    return (q ** (n + 1) - 1) // (q - 1)


def pn_zeta_records(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_{P^n}(s) = prod_{l<=n} (s - l)^(-1): a pole of order 1 at each l."""
    return tuple((l, 1, 0, 1, 1) for l in range(n + 1))


def torsion_card(ts: tuple[int, ...]) -> int:
    return math.prod(ts)


def counting_coeffs(points: Points) -> dict[int, int]:
    """Coefficients a_k of sum_x T(x) (u - 1)^R(x), expanded binomially."""
    out: dict[int, int] = {}
    for rank, ts in points:
        card = torsion_card(ts)
        for k in range(rank + 1):
            out[k] = out.get(k, 0) + card * math.comb(rank, k) * (-1) ** (rank - k)
    return {k: c for k, c in out.items() if c}


def betti(points: Points, dim: int) -> tuple[int, ...]:
    """Even Betti numbers b_2l = a_l for l = 0..dim."""
    coeffs = counting_coeffs(points)
    return tuple(coeffs.get(l, 0) for l in range(dim + 1))


def point_count(points: Points, q: int) -> int:
    return sum(
        (q - 1) ** rank * math.prod(math.gcd(t, q - 1) for t in ts) for rank, ts in points
    )


# -- local zeta series as a product of binomial series --------------------


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mult_order(p: int, e: int) -> int:
    """Order of p modulo e (1 for e = 1); requires gcd(p, e) = 1."""
    if e == 1:
        return 1
    k, x = 1, p % e
    while x != 1:
        x = x * p % e
        k += 1
    return k


def _coprime_part(t: int, p: int) -> int:
    while t % p == 0:
        t //= p
    return t


def _binomial_power(k: Fraction, a: int, step: int, order: int) -> list[Fraction]:
    """(1 - a T^step)^k truncated after T^order."""
    out = [Fraction(0)] * (order + 1)
    c = Fraction(1)
    for j in range(order // step + 1):
        if j:
            c *= (k - j + 1) / j
        out[j * step] = c * (-a) ** j
    return out


def _mul_trunc(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(order - i + 1):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def local_series(points: Points, p: int, order: int) -> tuple[Fraction, ...]:
    """exp(sum_n #X(F_{p^n}) T^n / n) without summing point counts.

    gcd(t, p^n - 1) = sum of phi(e) over the divisors e of the p-free part
    of t with ord_e(p) | n, so each point contributes factors
    (1 - p^(r o) T^o)^(-sign C(R, r) prod phi(e_j) / o), o = lcm ord_{e_j}(p).
    """
    exps: dict[tuple[int, int], Fraction] = {}
    for rank, ts in points:
        per_t = [
            [(totient(e), mult_order(p, e)) for e in divisors(_coprime_part(t, p))]
            for t in ts
        ]
        for combo in product(*per_t):
            weight = math.prod(ph for ph, _ in combo)
            o = math.lcm(1, *(od for _, od in combo))
            for r in range(rank + 1):
                c = math.comb(rank, r) * (-1) ** (rank - r) * weight
                key = (p ** (r * o), o)
                exps[key] = exps.get(key, Fraction(0)) - Fraction(c, o)
    out = [Fraction(1)] + [Fraction(0)] * order
    for (a, step), k in sorted(exps.items()):
        if k:
            out = _mul_trunc(out, _binomial_power(k, a, step, order), order)
    return tuple(out)


# -- groups ---------------------------------------------------------------


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def gl_counting(r: int) -> dict[int, int]:
    """#GL_r(F_q) = q^(r(r-1)/2) prod_{i<=r} (q^i - 1), in integers."""
    out = {r * (r - 1) // 2: 1}
    for i in range(1, r + 1):
        out = _poly_mul(out, {i: 1, 0: -1})
    return out


def torus_counting(r: int) -> dict[int, int]:
    return {k: math.comb(r, k) * (-1) ** (r - k) for k in range(r + 1)}


def format_poly(coeffs: dict[int, int]) -> str:
    """The `group` subcommand's display of an integer polynomial in u."""
    parts = []
    for k in sorted(coeffs, reverse=True):
        c = coeffs[k]
        factors = [] if k == 0 else ["u" if k == 1 else f"u^{k}"]
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


# -- Fourier tables -------------------------------------------------------


def gcd_reconstruction_error(coeffs, t: int, p: int) -> float:
    """max_n |sum_nu c_nu xi^(n nu) - gcd(t, p^n - 1)| over one period.

    The right-hand side is computed in integers; the roots of unity are
    tabulated once so that every power is correctly rounded.
    """
    n0 = len(coeffs)
    roots = [cmath.exp(2j * math.pi * k / n0) for k in range(n0)]
    worst = 0.0
    for n in range(1, n0 + 1):
        val = sum(c * roots[n * nu % n0] for nu, c in enumerate(coeffs, start=1))
        worst = max(worst, abs(val - math.gcd(t, p**n - 1)))
    return worst


def _ramanujan_sum(q: int, m: int) -> int:
    """c_q(m) = sum_{d | gcd(q, m)} mu(q/d) d, an integer."""
    return sum(_mobius(q // d) * d for d in divisors(math.gcd(q, m)))


def _mobius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def inner_fourier_ok(coeffs, t: int) -> bool:
    """Exact check that sum_alpha d_alpha e^(2 pi i alpha m / t) = gcd(t, m).

    d_alpha must depend only on g = gcd(alpha, t); grouping the alphas by
    g turns each root-of-unity sum into the Ramanujan sum c_{t/g}(m).
    """
    if len(coeffs) != t:
        return False
    by_g: dict[int, Fraction] = {}
    for alpha, d in enumerate(coeffs, start=1):
        g = math.gcd(alpha, t)
        if by_g.setdefault(g, Fraction(d)) != d:
            return False
    return all(
        sum(d * _ramanujan_sum(t // g, m) for g, d in by_g.items()) == math.gcd(t, m)
        for m in range(1, t + 1)
    )


# -- numeric closed forms ---------------------------------------------------


def pure_power_z(terms: dict[tuple[Fraction, int], Fraction], w: complex, s: complex) -> complex:
    """Z_N(w, s) = sum c (s - lam)^(-w) for a pure-power N."""
    return sum(
        float(c) * cmath.exp(-w * cmath.log(s - float(lam))) for (lam, _), c in terms.items()
    )


def pure_power_inverse_zeta(terms: dict[tuple[Fraction, int], Fraction], s: complex) -> complex:
    """1/zeta_N(s) = prod (s - lam)^c for a pure-power N."""
    return cmath.exp(sum(float(c) * cmath.log(s - float(lam)) for (lam, _), c in terms.items()))


def circle_det(s: float) -> float:
    """det'(Delta + s) on the circle of circumference 2 pi."""
    return 4 * math.sinh(math.pi * math.sqrt(s)) ** 2 / s


def circle_zeta(w: int, s: float) -> float:
    """sum_{n>=1} 2 (n^2 + s)^(-w) for w = 1, 2 in closed form."""
    x = math.pi * math.sqrt(s)
    coth = 1 / math.tanh(x)
    f = (x * coth - 1) / s
    if w == 1:
        return f
    if w == 2:
        csch2 = 1 / math.sinh(x) ** 2
        return -((x * coth - x * x * csch2) / (2 * s * s) - f / s)
    raise ValueError(f"no closed form for w = {w}")


def _one_minus_exp(z: complex) -> complex:
    """1 - e^z without cancellation for small z."""
    if abs(z) < 1e-3:
        return -z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4 * (1 + z / 5))))
    return 1 - cmath.exp(z)


def limit_values(points: Points, s: complex, bases: list[float]) -> list[complex]:
    """(p - 1)^N prod_r (1 - p^(r - s))^(-a_r), N = sum_r a_r."""
    coeffs = counting_coeffs(points)
    pole = sum(coeffs.values())
    out = []
    for p in bases:
        lp = math.log1p(p - 1)
        log_val = pole * math.log(p - 1) - sum(
            a * cmath.log(_one_minus_exp((r - s) * lp)) for r, a in coeffs.items()
        )
        out.append(cmath.exp(log_val))
    return out


def value_at_one(terms: dict[tuple[Fraction, int], Fraction]) -> Fraction:
    return sum((c for (_, m), c in terms.items() if m == 0), Fraction(0))


def dual_terms(terms: dict[tuple[Fraction, int], Fraction]) -> dict[tuple[Fraction, int], Fraction]:
    """N(1/u): u^lam (log u)^m -> (-1)^m u^(-lam) (log u)^m."""
    return {(-lam, m): (-c if m % 2 else c) for (lam, m), c in terms.items()}
