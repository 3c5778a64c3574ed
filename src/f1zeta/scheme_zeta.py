"""Global zeta functions of monoid schemes over the one-element base.

The zeta of a scheme is the zeta of its torsion-smoothed counting
function N(q) = sum_x T(x) (q-1)^R(x) = sum_k a_k q^k (the coefficients
the scheme keeps, `MonoidScheme.coefficients`): the p -> 1 limit of the
smoothed local zeta is the rational function

    zeta(s) = prod_{r=0}^{R} (s - r)^(E_r),   E_r = -a_r,

so the even Betti numbers are b_{2l} = a_l (odd ones vanish in this
class) and the Euler characteristic is N(1) = sum_k a_k.  The declared
dimension d pads the coefficients with zeros and never cuts them: the
global functional equation zeta(d-s) = (-1)^chi zeta(s) holds iff they
are a palindrome about d (`schemes.global_functional_equation`).
"""

from __future__ import annotations

from .powerlog import PowerLogSum, _Record
from .schemes import MonoidScheme
from .zetas import FactoredZeta, zeta_of


class BettiProfile(_Record):
    """Even Betti numbers b_{2l}, l = 0..max(d, R).  Their sum, the Euler
    characteristic N(1), is the global report's `chi` and the kept counting
    function's `value_at_one()`, the pole order at p = 1.

    For inputs that are not asserted smooth projective the formula can
    produce negative values; these are returned with a warning rather
    than rejected, since the zeta formula stays valid regardless.
    """

    values: tuple[int, ...]
    dimension: int
    warning: str | None = None


def betti_profile(scheme: MonoidScheme) -> BettiProfile:
    """b_{2l} = a_l: the counting coefficients padded to d + 1 entries, never cut."""
    d = scheme.dim
    values = scheme.coefficients + (0,) * (d - scheme.max_rank)
    warning = None
    if not scheme.smooth_projective:
        warning = "smooth_projective not asserted; values are formal"
        if any(v < 0 for v in values):
            warning += " (negative entries are not Betti numbers)"
    return BettiProfile(values, d, warning)


def zeta_of_scheme(scheme: MonoidScheme) -> FactoredZeta:
    """The scheme's zeta, the zeta of its smoothed counting function, which
    the scheme keeps (`scheme_counting_function`), so no call rebuilds it.

    In factored-zeta orientation the exponent at s = r is a_r, i.e.
    zeta(s) = prod_r (s - r)^(-a_r) with N(q) = sum_r a_r q^r.
    """
    return zeta_of(scheme_counting_function(scheme))


def scheme_counting_function(scheme: MonoidScheme) -> PowerLogSum:
    """Smoothed counting function sum_x T(x) (u - 1)^R(x) as an exact sum,
    built once per scheme and kept with it: two calls return the same object."""
    return scheme.counting
