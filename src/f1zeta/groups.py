"""Counting polynomials and zeta functions of split reductive groups.

A group is described by its rank r, dimension d, positive-root count
p = (d - r)/2 and the (palindromic) Betti numbers of its flag variety;
the counting polynomial is

    N_G(q) = (q - 1)^r q^p sum_l b_{2l} q^l.

Coefficient symmetry a_k = (-1)^r a_{d+p-k} gives the functional
equation N_G(1/q) = (-1)^r q^(-d-p) N_G(q), equivalently
zeta(d+p-s) = (-1)^chi zeta(s)^((-1)^r) with chi = N_G(1) = 0; both are
checked at once, on the integer coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import ParseError, PreconditionError
from .powerlog import (
    MAX_COUNTING_DEGREE,
    FunctionalEquationWitness,
    PowerLogSum,
    _asymmetries,
    _binomial_row,
    _check_integer,
    _integer,
    _packed_product,
    _parity,
    _read_json,
    _reciprocal_power_coefficients,
    _Record,
)
from .zetas import FactoredZeta, zeta_of

# MAX_COUNTING_DEGREE (shared with the scheme rank cap) bounds the degree
# d + p of a group's counting polynomial: GL(18) (degree 477) and Gm^500
# are accepted, GL(19) (degree 532) is not.  The polynomials are expanded
# and their functional equations and family identities checked in int.
# In-process `cli.main` on a 2-core host, best of 5 (median of 3 such
# runs): `group --group GL:18` takes 0.005 s and `Gm:500` 0.015 s (with
# the cap lifted: GL:40 0.021 s, Gm:1000 0.030 s, Gm:2000 0.056 s).


def _check_counting_degree(degree: int, name: str) -> None:
    if degree > MAX_COUNTING_DEGREE:
        raise PreconditionError(
            f"{name} has a counting polynomial of degree {degree}; "
            f"at most {MAX_COUNTING_DEGREE} is supported"
        )


class ReductiveGroupData(_Record):
    """Rank, dimension and flag Betti numbers of a split reductive group.

    The palindrome condition b_{2l} = b_{2(p-l)} is validated by the
    operations that rely on it, not by the constructor, so that broken
    inputs can be diagnosed rather than silently rejected.
    """

    rank: int
    dimension: int
    flag_betti: tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        _check_integer(self.rank, "rank")
        _check_integer(self.dimension, "dimension")
        self.__dict__["flag_betti"] = tuple(self.flag_betti)
        for b in self.flag_betti:
            _check_integer(b, "a flag Betti number")
        if self.rank < 1:
            raise PreconditionError("rank must be >= 1")
        if self.dimension < 1:
            raise PreconditionError("dimension must be >= 1")
        if (self.dimension - self.rank) % 2 or self.dimension < self.rank:
            raise PreconditionError(
                f"dimension - rank must be even and nonnegative, got d={self.dimension}, r={self.rank}"
            )
        _check_counting_degree(self.dimension + self.positive_roots, self.name or "the group")
        if len(self.flag_betti) != self.positive_roots + 1:
            raise PreconditionError(
                f"flag Betti list must have length p + 1 = {self.positive_roots + 1}"
            )
        if any(b < 0 for b in self.flag_betti):
            raise PreconditionError("flag Betti numbers must be nonnegative")

    @property
    def positive_roots(self) -> int:
        return (self.dimension - self.rank) // 2

    def validate_palindrome(self) -> None:
        if self.flag_betti != self.flag_betti[::-1]:
            raise PreconditionError(
                f"flag Betti numbers {self.flag_betti} are not palindromic"
            )

    @cached_property
    def coefficients(self) -> tuple[int, ...]:
        """Coefficients a_k of N_G(q) / q^p = (q-1)^r sum_l b_{2l} q^l from
        q^0 up; N_G(1/q) = (-1)^r q^(-d-p) N_G(q) iff a_k = (-1)^r a_{r+p-k}.

        Expanded once per group.  Broken (non-palindromic) data raises on
        every access, since a raising property caches nothing."""
        self.validate_palindrome()
        # |a_k| <= 2^r sum b, the L1 norm of (q-1)^r times that of the flag
        bound = (1 << self.rank) * sum(self.flag_betti)
        return tuple(_packed_product(self.flag_betti, {1: self.rank}, bound))


def torus_counting(r: int) -> PowerLogSum:
    """(u - 1)^r, the counting polynomial of the r-fold torus."""
    if r < 0:
        raise PreconditionError("torus rank must be >= 0")
    return PowerLogSum.from_int_coefficients(_binomial_row(r))


def group_counting(group: ReductiveGroupData) -> PowerLogSum:
    """(q-1)^r q^p sum_l b_{2l} q^l expanded exactly, in integers."""
    return PowerLogSum.from_int_coefficients(group.coefficients, group.positive_roots)


def gl_group_data(r: int) -> ReductiveGroupData:
    """GL(r): dimension r^2, with flag Betti numbers from the Gaussian
    q-factorial prod_{i=1}^{r} (1 + q + ... + q^(i-1))."""
    if r < 1:
        raise PreconditionError("GL rank must be >= 1")
    _check_counting_degree(r * r + r * (r - 1) // 2, f"GL({r})")
    # prod_{i=2}^{r} (q^i - 1) / (q - 1)^(r-1): the Mahonian numbers, of sum r!
    factors = {1: 1 - r, **dict.fromkeys(range(2, r + 1), 1)}
    poly = _packed_product([1], factors, math.factorial(r))
    return ReductiveGroupData(r, r * r, tuple(poly), name=f"GL({r})")


def torus_group_data(r: int) -> ReductiveGroupData:
    if r < 1:
        raise PreconditionError("torus rank must be >= 1")
    return ReductiveGroupData(r, r, (1,), name=f"Gm^{r}" if r > 1 else "Gm")


def sl2_group_data() -> ReductiveGroupData:
    return ReductiveGroupData(1, 3, (1, 1), name="SL(2)")


def group_from_name(name: str) -> ReductiveGroupData:
    """Catalog lookup: "GL:r", "Gm:r", "SL2"."""
    key = name.strip()
    if key.lower() == "sl2":
        return sl2_group_data()
    if ":" in key:
        family, _, arg = key.partition(":")
        try:
            r = int(arg)
        except ValueError as exc:
            raise ParseError(f"bad group rank in {name!r}") from exc
        if family.lower() == "gl":
            return gl_group_data(r)
        if family.lower() == "gm":
            return torus_group_data(r)
    raise ParseError(f"unknown group {name!r} (expected GL:r, Gm:r or SL2)")


def group_from_dict(data: object) -> ReductiveGroupData:
    if not isinstance(data, dict):
        raise ParseError("group file must contain a JSON object")
    try:
        rank = _integer(data["rank"])
        dimension = _integer(data["dimension"])
        flag = tuple(_integer(b) for b in data["flag_betti"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"group file needs integer rank, dimension, flag_betti: {exc}") from exc
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("group name must be a string")
    return ReductiveGroupData(rank, dimension, flag, name=name)


def load_group(path: str) -> ReductiveGroupData:
    return group_from_dict(_read_json(path))


def group_zeta(group: ReductiveGroupData) -> FactoredZeta:
    return zeta_of(group_counting(group))


# -- functional equation ---------------------------------------------------


class GroupFEReport(_Record):
    holds: bool
    witness: FunctionalEquationWitness | None
    chi: int
    expected_center: Fraction
    expected_sign: int

    def __str__(self) -> str:
        status = "holds" if self.holds else "FAILS"
        return (
            f"N(1/q) = ({self.expected_sign})*q^(-{self.expected_center}) N(q) and "
            f"zeta({self.expected_center}-s) = zeta(s)^({self.expected_sign}): {status}"
        )


def group_functional_equation(group: ReductiveGroupData) -> GroupFEReport:
    """Verify the counting and zeta functional equations of a group.

    Both hold iff the coefficients are a signed palindrome (see
    `ReductiveGroupData.coefficients`): zeta_of keeps the terms of N_G,
    and the sign (-1)^chi of the reflected zeta is 1, as
    chi = N_G(1) = 0.  The witness is ((-1)^r, d + p) when they hold and
    None otherwise.
    """
    coeffs = group.coefficients
    if not any(coeffs):
        raise PreconditionError("functional equations of the zero sum are vacuous")
    center = Fraction(group.dimension + group.positive_roots)
    sign = _parity(group.rank)
    holds = not _asymmetries(coeffs, len(coeffs) - 1, sign)
    witness = FunctionalEquationWitness(sign, center) if holds else None
    return GroupFEReport(holds, witness, sum(coeffs), center, sign)


# -- shift / duality / reflection identity families -------------------------


class FamilyIdentityReport(_Record):
    family: str
    rank: int
    results: tuple[tuple[str, bool], ...]

    @property
    def holds(self) -> bool:
        return all(ok for _, ok in self.results)

    @property
    def first_failure(self) -> str | None:
        for label, ok in self.results:
            if not ok:
                return label
        return None

    def __str__(self) -> str:
        lines = [f"{self.family} identities at rank {self.rank}:"]
        for label, ok in self.results:
            lines.append(f"  {label}: {'holds' if ok else 'FAILS'}")
        return "\n".join(lines)


def verify_family_identities(r: int, family: str) -> FamilyIdentityReport:
    """Exact verification of the shift, duality and reflection identities
    tying N = prod (1 - u^-omega_i) to the torus-power and general-linear
    zeta functions.

    family "gm_power": N = (1 - 1/u)^r against zeta of the r-fold torus:
      (a) zeta_N(s) = zeta_T(s + r)
      (b) zeta_{N*}(s) = zeta_T(s)^((-1)^r)
      (c) zeta_T(r - s) = zeta_T(s)^((-1)^r)

    family "gl": N = prod_{i<=r} (1 - u^-i) against zeta of GL(r):
      (a) zeta_N(s) = zeta_GL(s + r^2)
      (b) zeta_{N*}(s) = zeta_GL(s + r(r-1)/2)^((-1)^r)
      (c) zeta_GL(r(3r-1)/2 - s) = zeta_GL(s)^((-1)^r)

    i.e. the shifts d and p and the center d + p of the group.  As zeta_of
    keeps the terms of N, all three are checked on integer vectors: v, top
    and den from `_reciprocal_power_coefficients` (den = 1, as the omegas
    are integers) and a = `ReductiveGroupData.coefficients`.  (a) is
    N = u^(-d) N_G: top = d - p and v reversed is a.  (b) is
    N(1/u) = (-1)^r u^(-p) N_G: the lowest power of v is v^0 (for
    len(v) = r + p + 1 again top = d - p) and (-1)^r v is a.  (c) is
    `group_functional_equation`, whose (-1)^chi is 1 as N_G(1) = 0.  Both
    v and a have nonzero ends (b_0 = b_p = 1 here), so equal term maps
    are equal vectors.
    """
    if r < 1:
        raise PreconditionError("family identities need rank >= 1")
    if family == "gm_power":
        return _family_report(torus_group_data(r), family)
    if family == "gl":
        return _family_report(gl_group_data(r), family)
    raise PreconditionError(f"unknown family {family!r} (gm_power or gl)")


def _family_report(group: ReductiveGroupData, family: str) -> FamilyIdentityReport:
    """`verify_family_identities(group.rank, family)` for the group it
    builds (the torus power or GL(r)), passed in by a caller that has it."""
    r = group.rank
    if family == "gm_power":
        omegas = [1] * r
        labels = (
            "shift: zeta_N(s) = zeta_T(s+r)",
            "dual: zeta_{N*}(s) = zeta_T(s)^((-1)^r)",
            "reflection: zeta_T(r-s) = zeta_T(s)^((-1)^r)",
        )
    else:
        omegas = range(1, r + 1)
        labels = (
            "shift: zeta_N(s) = zeta_GL(s+r^2)",
            "dual: zeta_{N*}(s) = zeta_GL(s+r(r-1)/2)^((-1)^r)",
            "reflection: zeta_GL(r(3r-1)/2-s) = zeta_GL(s)^((-1)^r)",
        )
    coeffs = group.coefficients
    v, top, den = _reciprocal_power_coefficients(omegas)
    sign = _parity(r)
    aligned = den == 1 and top == group.dimension - group.positive_roots
    checks = (
        aligned and tuple(v[::-1]) == coeffs,
        aligned and tuple([sign * x for x in v]) == coeffs,
        group_functional_equation(group).holds,
    )
    return FamilyIdentityReport(family, r, tuple(zip(labels, checks)))
