"""Counting polynomials and zeta functions of split reductive groups.

A split group with Weyl group degrees d_1, .., d_r has rank r,
p = sum (d_i - 1) positive roots, dimension d = r + 2p and

    N_G(q) = q^p prod_i (q^(d_i) - 1) = (q - 1)^r q^p sum_l b_{2l} q^l

points over F_q (Chevalley; Carter, Finite Groups of Lie Type, 1985),
the b_{2l} being the (palindromic) Betti numbers of its flag variety,
the coefficients of prod_i (1 + q + .. + q^(d_i - 1)).  A group is
stored as (r, d, b); `group_from_degrees` builds every catalog group.

Coefficient symmetry a_k = (-1)^r a_{d+p-k} gives the functional
equation N_G(1/q) = (-1)^r q^(-d-p) N_G(q), equivalently
zeta(d+p-s) = (-1)^chi zeta(s)^((-1)^r) with chi = N_G(1) = 0; both are
checked at once, on the integer coefficients.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property
from operator import neg
from typing import Sequence

from .errors import ParseError, PreconditionError
from .powerlog import (
    MAX_COUNTING_DEGREE,
    FEReport,
    PowerLogSum,
    _binomial_row,
    _check_integer,
    _fe_report,
    _integer,
    _packed_product,
    _parity,
    _read_json,
    _reciprocal_power_coefficients,
    _Record,
    _shown,
)
from .zetas import FactoredZeta, zeta_of

# MAX_COUNTING_DEGREE (shared with the scheme rank cap) bounds the degree
# d + p = r + 3p of a counting polynomial: GL(18) (477), E8 (368) and
# Gm^500 are accepted, GL(19) (532) is not.  In-process `cli.main` on a
# 2-core host, best of 5: `group --group GL:18` and `E8` take 0.002 s and
# `Gm:500` 0.008 s (with the cap lifted: GL:40 0.012 s, Gm:2000 0.050 s).


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
        _check_integer(self.rank, "rank", 1)
        _check_integer(self.dimension, "dimension", 1)
        self.__dict__["flag_betti"] = tuple(self.flag_betti)
        for b in self.flag_betti:
            _check_integer(b, "a flag Betti number", 0)
        if (self.dimension - self.rank) % 2 or self.dimension < self.rank:
            raise PreconditionError("dimension - rank must be even and nonnegative, got "
                                    f"d={_shown(self.dimension)}, r={_shown(self.rank)}")
        _check_integer(self.dimension + self.positive_roots,
                       f"{self.name or 'the group'} has a counting polynomial of degree",
                       most=MAX_COUNTING_DEGREE)
        if len(self.flag_betti) != self.positive_roots + 1:
            raise PreconditionError(f"flag Betti list must have length p + 1 = {self.positive_roots + 1}")

    @property
    def positive_roots(self) -> int:
        return (self.dimension - self.rank) // 2

    def validate_palindrome(self) -> None:
        if self.flag_betti != self.flag_betti[::-1]:
            raise PreconditionError(f"flag Betti numbers {_shown(self.flag_betti)} are not palindromic")

    @cached_property
    def coefficients(self) -> tuple[int, ...]:
        """Coefficients a_k of N_G(q) / q^p = (q-1)^r sum_l b_{2l} q^l from
        q^0 up; N_G(1/q) = (-1)^r q^(-d-p) N_G(q) iff a_k = (-1)^r a_{r+p-k}.

        Expanded once per group and kept with it; a catalog group is one
        shared record while any caller holds it (`_catalog_group`).
        Broken (non-palindromic) data raises on every access, since a
        raising property caches nothing."""
        self.validate_palindrome()
        # |a_k| <= 2^r sum b, the L1 norm of (q-1)^r times that of the flag
        bound = (1 << self.rank) * sum(self.flag_betti)
        return tuple(_packed_product(self.flag_betti, {1: self.rank}, bound))

    @cached_property
    def counting(self) -> PowerLogSum:
        """N_G(q) = q^p sum_k a_k q^k as a power-log sum, built once per
        group from `coefficients` and kept with it; like them, it raises on
        every access for broken data."""
        return PowerLogSum.from_int_coefficients(self.coefficients, self.positive_roots)


def torus_counting(r: int) -> PowerLogSum:
    """(u - 1)^r, the counting polynomial of the r-fold torus."""
    _check_integer(r, "torus rank", 0, MAX_COUNTING_DEGREE)
    return PowerLogSum.from_int_coefficients(_binomial_row(r))


def group_counting(group: ReductiveGroupData) -> PowerLogSum:
    """(q-1)^r q^p sum_l b_{2l} q^l expanded exactly, in integers: the
    function kept with the group (`ReductiveGroupData.counting`), so every
    call on one record returns the same immutable sum."""
    return group.counting


def group_from_degrees(degrees: Sequence[int], name: str = "") -> ReductiveGroupData:
    """The split group with Weyl degrees d_i (see the module docstring).  The
    flag Betti numbers prod_i (q^d_i - 1) / (q - 1)^r sum to |W| = prod_i d_i;
    the counting degree r + 3p is checked before they are expanded."""
    degrees = tuple(degrees)
    r = len(degrees)
    factors = {1: -r}
    for d in degrees:
        _check_integer(d, "a Weyl degree", 1)
        factors[d] = factors.get(d, 0) + 1
    roots = sum(degrees) - r
    _check_integer(r + 3 * roots, f"{name or 'the group'} has a counting polynomial of degree",
                   most=MAX_COUNTING_DEGREE)
    poly = _packed_product([1], factors, math.prod(degrees))
    return ReductiveGroupData(r, r + 2 * roots, tuple(poly), name)


# catalog name -> the group's name and Weyl degrees, or for a family
# "name:n" a rule taking the rank n to both (n degrees)
_CATALOG = {
    "GL": lambda n: (f"GL({n})", range(1, n + 1)),
    "Gm": lambda n: (f"Gm^{n}" if n > 1 else "Gm", (1,) * n),
    "SL2": ("SL(2)", (2,)),
    "A": lambda n: (f"A{n}", range(2, n + 2)),
    "B": lambda n: (f"B{n}", range(2, 2 * n + 1, 2)),
    "C": lambda n: (f"C{n}", range(2, 2 * n + 1, 2)),
    "D": lambda n: (f"D{n}", (*range(2, 2 * n - 1, 2), n)),
    "G2": ("G2", (2, 6)),
    "F4": ("F4", (2, 6, 8, 12)),
    "E6": ("E6", (2, 5, 6, 8, 9, 12)),
    "E7": ("E7", (2, 6, 8, 10, 12, 14, 18)),
    "E8": ("E8", (2, 8, 12, 14, 18, 20, 24, 30)),
}


# (catalog row, rank or None) -> its group, while any caller holds it
_HELD: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _catalog_group(key: str, n: int | None = None) -> ReductiveGroupData:
    """The group of catalog row `key`, at rank n for a family.  It is one
    shared immutable record, with its coefficients and counting function,
    for as long as any caller holds it, and is built again on the first
    call after none does.  The rank passes the integer rule before the
    lookup: True and 1.0 equal 1 as keys."""
    entry = _CATALOG[key]
    if n is not None:
        _check_integer(n, f"{key} rank", 1)
        # the counting degree is at least the rank: past the cap no degree is built
        _check_integer(n, f"{key}:n has a counting polynomial of degree at least its rank",
                       most=MAX_COUNTING_DEGREE)
    group = _HELD.get((key, n))
    if group is None:
        name, degrees = entry if n is None else entry(n)
        group = _HELD[key, n] = group_from_degrees(degrees, name)
    return group


def gl_group_data(r: int) -> ReductiveGroupData:
    """GL(r): degrees 1..r, dimension r^2, flag Betti numbers the Mahonian numbers."""
    return _catalog_group("GL", r)


def torus_group_data(r: int) -> ReductiveGroupData:
    return _catalog_group("Gm", _check_integer(r, "torus rank", 1))


def _named_group(name: str) -> tuple[ReductiveGroupData, str | None]:
    """The catalog group `name` names, in any letter case, and its identity
    family for `verify_family_identities` (None if it has none); a name
    that is no str is unknown."""
    key = None
    if isinstance(name, str):
        head, colon, arg = name.strip().partition(":")
        key = next((k for k in _CATALOG if k.lower() == head.lower()), None)
    if key is None or callable(_CATALOG[key]) != bool(colon):
        names = ", ".join(k + ":n" * callable(entry) for k, entry in _CATALOG.items())
        raise ParseError(f"unknown group {_shown(name)} (expected one of {names})")
    try:
        n = int(arg) if colon else None
    except ValueError as exc:
        raise ParseError(f"bad group rank in {name!r}") from exc
    family = next((f for f, (k, _) in _IDENTITIES.items() if k == key), None)
    return _catalog_group(key, n), family


def group_from_name(name: str) -> ReductiveGroupData:
    """Catalog lookup: "GL:r", "Gm:r", "SL2", "A:n" .. "D:n", "G2", "F4", "E6", "E7", "E8"."""
    return _named_group(name)[0]


def group_from_dict(data: object) -> ReductiveGroupData:
    if not isinstance(data, dict):
        raise ParseError("group file must contain a JSON object")
    try:
        rank = _integer(data["rank"])
        dimension = _integer(data["dimension"])
        flag = data["flag_betti"]
        # a string or an object would pass its characters or keys as the numbers
        if not isinstance(flag, list):
            raise TypeError(f"flag_betti must be a list, got {_shown(flag)}")
        flag = tuple(_integer(b) for b in flag)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"group file needs integer rank, dimension, flag_betti: {exc}") from exc
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("group name must be a string")
    return ReductiveGroupData(rank, dimension, flag, name=name)


def load_group(path: str) -> ReductiveGroupData:
    return group_from_dict(_read_json(path))


def group_zeta(group: ReductiveGroupData) -> FactoredZeta:
    return zeta_of(group.counting)


# -- functional equation ---------------------------------------------------


def group_functional_equation(group: ReductiveGroupData) -> FEReport:
    """Verify the counting and zeta functional equations of a group.

    Both hold iff the coefficients are a signed palindrome (see
    `ReductiveGroupData.coefficients`): zeta_of keeps the terms of N_G,
    and the sign (-1)^chi of the reflected zeta is 1, as
    chi = N_G(1) = 0.  The stored coefficients of N_G / q^p are checked
    about r + p, and the report is in the exponents of N_G, with center
    d + p, sign (-1)^r and, when they hold, that pair as its witness.
    """
    coeffs = group.coefficients
    if not any(coeffs):
        raise PreconditionError("functional equations of the zero sum are vacuous")
    p = group.positive_roots
    return _fe_report(coeffs, group.dimension + p, _parity(group.rank), p)


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
        return next((label for label, ok in self.results if not ok), None)

    def __str__(self) -> str:
        return "\n".join([f"{self.family} identities at rank {self.rank}:"] + [
            f"  {label}: {'holds' if ok else 'FAILS'}" for label, ok in self.results])


def verify_family_identities(r: int, family: str) -> FamilyIdentityReport:
    """Exact verification of the shift, duality and reflection identities
    tying N = prod_i (1 - u^-d_i), over the Weyl degrees d_i of the r-fold
    torus (family "gm_power", d_i = 1) or of GL(r) ("gl", d_i = i), to the
    zeta of that group G, of dimension d and with p positive roots:
      (a) zeta_N(s) = zeta_G(s + d)
      (b) zeta_{N*}(s) = zeta_G(s + p)^((-1)^r)
      (c) zeta_G(d + p - s) = zeta_G(s)^((-1)^r)
    (d = r, p = 0 for the torus; d = r^2, p = r(r-1)/2 for GL(r)).  As
    zeta_of keeps the terms of N, all three are checked on integer
    vectors: v, top and den from `_reciprocal_power_coefficients` (den = 1)
    and a = `ReductiveGroupData.coefficients`.  (a) is N = u^(-d) N_G:
    top = d - p and v reversed is a.  (b) is N(1/u) = (-1)^r u^(-p) N_G:
    the lowest power of v is v^0 and (-1)^r v is a.  (c) is
    `group_functional_equation`, whose (-1)^chi is 1 as N_G(1) = 0.  Both
    v and a have nonzero ends (b_0 = b_p = 1), so equal term maps are
    equal vectors.
    """
    _check_integer(r, "family rank", 1)
    if family not in tuple(_IDENTITIES):
        raise PreconditionError(f"unknown family {family!r} (gm_power or gl)")
    return _family_report(_catalog_group(_IDENTITIES[family][0], r), family)


# identity family -> its catalog row, whose degrees are the omegas, and labels
_IDENTITIES = {
    "gm_power": ("Gm", ("shift: zeta_N(s) = zeta_T(s+r)",
                        "dual: zeta_{N*}(s) = zeta_T(s)^((-1)^r)",
                        "reflection: zeta_T(r-s) = zeta_T(s)^((-1)^r)")),
    "gl": ("GL", ("shift: zeta_N(s) = zeta_GL(s+r^2)",
                  "dual: zeta_{N*}(s) = zeta_GL(s+r(r-1)/2)^((-1)^r)",
                  "reflection: zeta_GL(r(3r-1)/2-s) = zeta_GL(s)^((-1)^r)")),
}


def _family_report(group: ReductiveGroupData, family: str) -> FamilyIdentityReport:
    """`verify_family_identities(group.rank, family)` for the group it
    builds, passed in by a caller that has it."""
    key, labels = _IDENTITIES[family]
    r, coeffs = group.rank, group.coefficients
    v, top, den = _reciprocal_power_coefficients(_CATALOG[key](r)[1])
    aligned = den == 1 and top == group.dimension - group.positive_roots
    checks = (
        aligned and tuple(reversed(v)) == coeffs,
        aligned and tuple(map(neg, v) if r % 2 else v) == coeffs,
        group_functional_equation(group).holds,
    )
    return FamilyIdentityReport(family, r, tuple(zip(labels, checks)))
