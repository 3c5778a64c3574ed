"""Exact algebra of finite power-log sums.

A counting function is represented as a finite sum

    N(u) = sum over (lam, m) of  c(lam, m) * u^lam * (log u)^m

with rational exponents lam, nonnegative integer log powers m and
rational coefficients c.  All algebra (addition, multiplication,
duality u -> 1/u, functional-equation detection) is exact; floating
point enters only through :meth:`PowerLogSum.evaluate`.

The sparse term map underneath, :class:`TermMap`, is shared with
factored zetas (:class:`f1zeta.zetas.FactoredZeta`), together with its
record codec and the JSON file reader of every input format.

Counting polynomials have integer coefficients on an arithmetic
progression of exponents.  They are expanded by an integer kernel, a
product base(X) prod (X^k - 1)^e packed into one big int at X = 2^B
(`_packed_product`, Kronecker substitution), and one conversion into a
canonical map (`PowerLogSum.from_int_coefficients`), so no product of
them runs through `Fraction` term algebra.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import attrgetter, floordiv, itemgetter, mul, neg
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .errors import ConvergenceError, ParseError, PreconditionError

Rational = Union[int, Fraction]

# Largest accepted degree of a counting polynomial: the degree d + p of a
# group's (groups.py) and the maximal point rank of a scheme (schemes.py),
# which is the degree of its counting polynomial.  Measured with
# in-process `cli.main` on a 2-core host: a scheme with 501 distinct
# ranks up to 500 takes 1.7 s for `zeta` and `fe-check` and 0.9 s for
# `limit`; at ranks up to 2000 each ran for more than 100 s.
MAX_COUNTING_DEGREE = 500

# internal term layout: (exponent lam, log power m, coefficient c)
Term = tuple[Fraction, int, Fraction]
Key = tuple[Fraction, int]

_M = TypeVar("_M", bound="TermMap")


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _parity(n: int) -> int:
    """(-1)^n for an integer n."""
    return -1 if n % 2 else 1


def _integer(value: object) -> int:
    """An int that is not a bool, or a string holding one (records printed
    by the CLI are read back tab-split).  Anything else is a ValueError, so
    1.5 is never truncated to 1."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{_shown(value)} is not an integer")


def _shown(value: object, text: Callable[[object], str] = repr) -> str:
    """text(value), repr by default; an int too long for `str` (past
    sys.get_int_max_str_digits()) is named by its bit length, and any other
    value holding one by its type."""
    try:
        return text(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to print"


def _check_integer(value: object, what: str, least: int | None = None,
                   most: int | None = None) -> int:
    """The library's one rule for an int argument or field: `value` if it is
    an int, not a bool, and within the given bounds; anything else is a
    PreconditionError naming `what`, so 2.7 is never truncated to 2."""
    if isinstance(value, int) and not isinstance(value, bool):
        if least is not None and value < least:
            raise PreconditionError(f"{what} must be >= {least}, got {_shown(value)}")
        if most is not None and value > most:
            raise PreconditionError(f"{what} {_shown(value)}; at most {most} is supported")
        return value
    bound = "" if least is None else f">= {least} and "
    raise PreconditionError(f"{what} must be {bound}an integer, got {_shown(value)}")


def _number(value: object, name: str, real: bool = False) -> complex | float:
    """The library's one rule for a float or complex argument: the complex
    image of `value`, or its float image if `real`, when `value` is a
    number that is not a bool (a real one if `real`) and that image is
    finite.  Anything else is a PreconditionError naming `name`: a str, a
    bool, a complex where a real belongs, NaN, +-inf, or a value past
    float range.  Such an int is named by its bit length: its digits may
    be more than `str` converts (sys.get_int_max_str_digits)."""
    kind = type(value)
    # the exact types first: an isinstance test of every argument costs
    # the hottest numeric callers several percent
    if not (kind is float or kind is int or kind is complex and not real) and (
            kind is bool or not isinstance(value, numbers.Real if real else numbers.Complex)):
        raise PreconditionError(f"need a {'real' if real else 'number'} {name}, got {_shown(value)}")
    try:
        image = float(value) if real else complex(value)
    except OverflowError:
        what = f"an int of {value.bit_length()} bits" if isinstance(value, int) else "a value"
        raise PreconditionError(f"need a finite {name}, got {what} past float range") from None
    if math.isfinite(image) if real else cmath.isfinite(image):
        return image
    raise PreconditionError(f"need a finite {name}, got {_shown(value)}")


def _exact_or_real(value: object, name: str) -> Rational | float:
    """`value` if it is an int (not a bool) or a Fraction, which stay exact
    at any size; any other value by the number rule, as a finite float."""
    kind = type(value)
    return value if kind is int or kind is Fraction else _number(value, name, real=True)


def _float_exponent(e: Rational, what: str, *args: object) -> float:
    """An exact exponent or coefficient as a float; one beyond float range
    is a ConvergenceError naming `what.format(*args)` and its size, as it
    may be too long to print.  The message is formatted only on failure."""
    try:
        return float(e)
    except OverflowError:
        # about 2^size: the numerator's bits less the denominator's (an int's own)
        size = abs(e.numerator).bit_length() - e.denominator.bit_length() + 1
        raise ConvergenceError(
            f"{what.format(*args)} of about 2^{size} is beyond float range") from None


# Pythons before 3.10.7 have neither the function nor a limit (0 means none);
# called per check, so a limit set at run time applies
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _check_printable(value: int, what: str, *args: object) -> int:
    """`value`, if `str` can convert it.  An int of more decimal digits
    than `sys.get_int_max_str_digits()` (0 means no limit) is a
    PreconditionError naming `what.format(*args)`, so that a result too
    large to print stops the computation producing it instead of ending
    in a ValueError.  The message is formatted only on failure."""
    limit = _int_max_str_digits()
    # |value| < 2^bits <= 8^limit < 10^limit needs no decimal comparison
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise PreconditionError(
            f"{what.format(*args)} has more than {limit} decimal digits, the limit "
            "for printing an integer (sys.get_int_max_str_digits())"
        )
    return value


def _exp_in_range(log_value: float | complex, what: str, *args: object,
                  name: str = "log") -> float | complex:
    """exp(log_value): `math.exp` of a real log, `cmath.exp` of a complex
    one.  A value that is not finite (a log too large, or not a number) is
    a ConvergenceError naming `what.format(*args)`, each argument by
    `_shown`, and the achieved log; a value too small for a float rounds
    toward 0.  The message is formatted only on failure."""
    try:
        value = cmath.exp(log_value) if isinstance(log_value, complex) else math.exp(log_value)
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ConvergenceError(
        f"{what.format(*map(_shown, args))} overflows a float: achieved {name} = {log_value!r}")


def _binomial_row(r: int) -> list[int]:
    """Coefficients (-1)^(r-k) C(r, k) of (x - 1)^r from x^0 up, by the
    running product C(r, k + 1) = C(r, k) (r - k) / (k + 1)."""
    row = [_parity(r)]
    for k in range(r):
        row.append(-row[-1] * (r - k) // (k + 1))
    return row


def _packed_product(base: Sequence[int], factors: Mapping[int, int], bound: int) -> list[int]:
    """Coefficients of base(X) prod_k (X^k - 1)^(e_k) from X^0 up, for
    `factors` {k >= 1: e_k} (a negative e_k divides exactly) and a
    `bound` on every |coefficient| of the product.  A constant base times
    one factor is a spread binomial row.  Otherwise the product is one
    int at X = 2^B (Kronecker substitution), B the least multiple of 8
    with |c| < 2^(B-1) for the result and the base, below 64 rounded up
    to 8, 16, 32 or 64 for a memoryview cast: adding 2^(B-1) to every
    digit makes each a B-bit chunk of the int's bytes."""
    if not base:
        return []
    if len(base) == 1 and len(factors) == 1:
        ((k, e),) = factors.items()
        if e >= 0:
            out = [0] * (k * e + 1)
            out[::k] = [base[0] * c for c in _binomial_row(e)]
            return out
    nb = (max(bound, max(base), -min(base)).bit_length() + 8) // 8  # bytes per digit
    nb = 1 << (nb - 1).bit_length() if nb < 8 else nb
    bits, half = 8 * nb, 1 << (8 * nb - 1)
    digit = b"\x00" * (nb - 1) + b"\x80"  # half, as nb little-endian bytes
    value = int.from_bytes(b"".join([(c + half).to_bytes(nb, "little") for c in base]), "little")
    value -= int.from_bytes(digit * len(base), "little")
    den = 1
    for k, e in factors.items():
        for _ in range(e):  # times X^k - 1: a shift and a subtraction
            value = (value << bits * k) - value
        if e < 0:
            den *= ((1 << bits * k) - 1) ** -e
    n = len(base) + sum([k * e for k, e in factors.items()])
    raw = (value // den + int.from_bytes(digit * n, "little")).to_bytes(n * nb, "little")
    if sys.byteorder == "little" and (fmt := {1: "B", 2: "H", 4: "I", 8: "Q"}.get(nb)):
        return [c - half for c in memoryview(raw).cast(fmt)]
    return [int.from_bytes(raw[i : i + nb], "little") - half for i in range(0, n * nb, nb)]


def _asymmetries(a: Sequence[int], center: int, sign: int = 1) -> tuple[tuple[int, int, int], ...]:
    """(k, a_k, a_{center-k}) for each k <= center - k with
    a_k != sign * a_{center-k}, in ascending k, for sign = +-1; entries
    outside `a` are zero.  None means sum a_k x^k = sign x^center sum
    a_k x^-k, the counting identity N(1/u) = sign u^-center N(u) in
    integers."""
    if center == len(a) - 1 and [*a] == [*(reversed(a) if sign > 0 else map(neg, reversed(a)))]:
        return ()  # an aligned palindrome, the common case, in one comparison

    def at(i: int) -> int:
        return a[i] if 0 <= i < len(a) else 0

    return tuple([
        (k, at(k), at(center - k))
        for k in range(min(0, center - len(a) + 1), center // 2 + 1)
        if at(k) != sign * at(center - k)
    ])


def _read_json(path: str) -> object:
    """The JSON value stored in a file.  Bytes that are not UTF-8, malformed
    JSON and nesting too deep for the parser are ParseErrors.  `json` is
    imported here, so that a process that reads no file never loads it."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _decode_record(rec: object) -> tuple[Key, Fraction]:
    if not isinstance(rec, (list, tuple)):
        raise ParseError(f"bad term record {_shown(rec)}: expected a list of five integers")
    try:
        ln, ld, m, cn, cd = (_integer(v) for v in rec)
    except ValueError as exc:
        raise ParseError(f"bad term record {_shown(rec)}: {exc}") from exc
    if m < 0:
        raise ParseError(f"negative log power in record {_shown(rec)}")
    if ld == 0 or cd == 0:
        raise ParseError(f"zero denominator in record {_shown(rec)}")
    return (Fraction(ln, ld), m), Fraction(cn, cd)


class _Record:
    """Base of f1zeta's frozen value classes.

    A subclass declares its fields as annotations, with class-level
    defaults; the fields of its bases come first, in order.  They are read
    once per class, when it is created.  Instances compare equal only to
    instances of the same class with an equal field tuple, hash as that
    tuple and print as `Name(field=value, ...)`.  Assignment and deletion
    raise AttributeError; a `cached_property` still caches, since it
    writes the instance dict directly.

    The generic `__init__` takes the fields by position or by name, fills
    in defaults and then runs `__post_init__`.  A class built many times
    per operation writes its own `__init__`, storing the fields into
    `self.__dict__`; that its parameters and defaults are the fields' own
    is checked when the class is created.
    """

    # set per class: the field names, the defaults by name, and `_key`,
    # the staticmethod giving an instance's field tuple
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        names: list[str] = []
        for klass in reversed(cls.__mro__):
            if issubclass(klass, _Record) and klass is not _Record:
                # a class's own annotations (Python >= 3.10), in declaration order
                names += [n for n in klass.__annotations__ if n not in names]
        defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
        if any(n not in defaults for n in names[len(names) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        init = cls.__init__
        if init is not _Record.__init__:
            params = init.__code__.co_varnames[1 : init.__code__.co_argcount]
            if params != tuple(names) or (init.__defaults__ or ()) != tuple(defaults.values()):
                raise TypeError(f"{cls.__name__}.__init__ must take the fields {names} and their defaults")
        cls._fields = tuple(names)
        cls._defaults = defaults
        get = attrgetter(*names)
        cls._key = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, got {len(args)}")
        values = self.__dict__
        values.update(zip(names, args))
        for field in names[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._defaults:
                values[field] = self._defaults[field]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {field!r}")
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}"
            )
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation run by the generic `__init__`; none by default."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


class TermMap(_Record):
    """Canonical sparse map (lam, m) -> nonzero Fraction, stored as the
    terms (lam, m, value) sorted by (lam, m).

    A counting function N(u) = sum c u^lam (log u)^m and its zeta
    prod phi_m(s - lam)^c are indexed by the same terms, so N -> zeta_N
    is the identity on this map: sums of counting functions are sums of
    factor exponents, u^delta N shifts the factors and N(1/u) reflects
    them.  Subclasses share the map and its operations but never compare
    equal to, or add to, one another.
    """

    terms: tuple[Term, ...] = ()

    def __init__(self, terms: tuple[Term, ...] = ()) -> None:
        self.__dict__["terms"] = terms

    # New term tuples are built from lists: tuple() of a generator grows
    # the tuple by repeated reallocation, and over many calls that churn
    # keeps raising the process's resident memory.  A star-unpacked call
    # argument is a list for the same reason: f(*gen) builds its argument
    # tuple the same way.

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls: type[_M], acc: Mapping[Key, Fraction]) -> _M:
        items = [(lam, m, c) for (lam, m), c in acc.items() if c != 0]
        items.sort()  # keys are distinct, so values are never compared
        return cls(tuple(items))

    @classmethod
    def _collect(cls: type[_M], items: Iterable[tuple[Key, Fraction]]) -> _M:
        acc: dict[Key, Fraction] = {}
        for key, c in items:
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
        return cls._canonical(acc)

    @classmethod
    def from_dict(cls: type[_M], d: Mapping[tuple[Rational, int], Rational]) -> _M:
        """The map with value d[(lam, m)] at (lam, m); equal keys accumulate."""
        return cls._collect(((_frac(lam), _check_integer(m, "log power m", 0)), _frac(c))
                            for (lam, m), c in d.items())

    @classmethod
    def from_records(cls: type[_M], records: Iterable[Sequence[int]]) -> _M:
        """Inverse of `to_records`.  Each field is an integer or a string
        holding one; anything else is a ParseError."""
        return cls._collect(_decode_record(rec) for rec in records)

    def to_records(self) -> list[list[int]]:
        """One record [lam_num, lam_den, m, c_num, c_den] per term, in order."""
        return [[a, d, m, cn, cd] for a, d, group in self._groups for m, cn, cd in group]

    # -- inspection ----------------------------------------------------

    @cached_property
    def _groups(self) -> tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...]:
        """The terms in integers, grouped by exponent: per distinct lam, in
        order, (lam numerator, lam denominator, the (m, c numerator,
        c denominator) of each of its terms).  The one integer image of the
        map, computed once per map and read by witness checks, N(1),
        records and detection.  A holding witness check stores `_mirror`
        beside it (`witness_holds`); `==`, `hash` and `repr` read `terms`."""
        rows = [(lam.numerator, lam.denominator, (m, c.numerator, c.denominator))
                for lam, m, c in self.terms]
        return tuple([(a, d, tuple([row[2] for row in run]))
                      for (a, d), run in groupby(rows, key=itemgetter(0, 1))])

    def _floats(self) -> list[tuple[float, int, float]]:
        """The terms as (float lam, m, float c): the one float image of the
        map, read by every numeric evaluation.  An exponent or coefficient
        beyond float range is a ConvergenceError (`_float_exponent`)."""
        try:
            return [(float(lam), m, float(c)) for lam, m, c in self.terms]
        except OverflowError:  # again, naming the first value past float range
            return [(_float_exponent(lam, "term exponent"), m,
                     _float_exponent(c, "term coefficient")) for lam, m, c in self.terms]

    def as_dict(self) -> dict[Key, Fraction]:
        return {(lam, m): c for lam, m, c in self.terms}

    def coefficient(self, lam: Rational, m: int = 0) -> Fraction:
        key = (_frac(lam), m)
        i = bisect_left(self.terms, key)  # (lam, m) sorts just before (lam, m, c)
        if i < len(self.terms) and self.terms[i][:2] == key:
            return self.terms[i][2]
        return Fraction(0)

    # -- algebra -------------------------------------------------------

    def __add__(self: _M, other: _M) -> _M:
        if type(other) is not type(self):
            return NotImplemented
        return self._collect(((lam, m), c) for lam, m, c in chain(self.terms, other.terms))

    def __neg__(self: _M) -> _M:
        return self.scale(-1)

    def __sub__(self: _M, other: _M) -> _M:
        return self + (-other)

    def scale(self: _M, k: Rational) -> _M:
        kk = _frac(k)
        if kk == 0:
            return type(self)()
        return type(self)(tuple([(lam, m, c * kk) for lam, m, c in self.terms]))

    def shift_exponents(self: _M, delta: Rational) -> _M:
        """Add delta to every exponent lam (for a counting function:
        multiply by u^delta)."""
        dd = _frac(delta)
        return type(self)(tuple([(lam + dd, m, c) for lam, m, c in self.terms]))

    def dual(self: _M) -> _M:
        """Each term (lam, m, c) maps to (-lam, m, (-1)^m c): N*(u) = N(1/u)."""
        return self._canonical({(-lam, m): -c if m % 2 else c for lam, m, c in self.terms})


class PowerLogSum(TermMap):
    """Immutable finite sum of u^lam (log u)^m terms with exact coefficients."""

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "PowerLogSum":
        return PowerLogSum()

    @staticmethod
    def constant(c: Rational) -> "PowerLogSum":
        return PowerLogSum.from_dict({(Fraction(0), 0): c})

    @staticmethod
    def power(alpha: Rational, coeff: Rational = 1) -> "PowerLogSum":
        """c * u^alpha."""
        return PowerLogSum.from_dict({(_frac(alpha), 0): coeff})

    @staticmethod
    def log_power(m: int = 1, coeff: Rational = 1, alpha: Rational = 0) -> "PowerLogSum":
        """c * u^alpha * (log u)^m."""
        return PowerLogSum.from_dict({(_frac(alpha), m): coeff})

    @staticmethod
    def from_int_coefficients(
        coeffs: Sequence[int], offset: Rational = 0, step: Rational = 1
    ) -> "PowerLogSum":
        """sum_k coeffs[k] u^(offset + k step) for integers coeffs[k] and a
        step > 0.  The exponents increase with k, so the terms come out
        canonical in one pass, without a sort or a Fraction comparison."""
        off, st = _frac(offset), _frac(step)
        if st <= 0:
            raise PreconditionError(f"exponent step must be positive, got {st}")
        den = math.lcm(off.denominator, st.denominator)
        a = off.numerator * (den // off.denominator)
        b = st.numerator * (den // st.denominator)
        if den == 1:  # integer exponents: Fraction(n) takes no gcd
            terms = [(Fraction(a + k * b), 0, Fraction(c)) for k, c in enumerate(coeffs) if c]
        else:
            terms = [(Fraction(a + k * b, den), 0, Fraction(c)) for k, c in enumerate(coeffs) if c]
        return PowerLogSum(tuple(terms))

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_pure_power(self) -> bool:
        return all(m == 0 for _, m, _ in self.terms)

    def support(self) -> list[Fraction]:
        """Sorted distinct exponents lam occurring in the sum."""
        return [lam for lam, _ in groupby(t[0] for t in self.terms)]

    @property
    def degree(self) -> Fraction:
        """Largest exponent in the support.

        For sums whose top exponent carries a log power the value is
        still that exponent; boundary behaviour (e.g. convergence tests
        at Re(s) = degree) must treat that case as divergent.
        """
        if self.is_zero:
            raise PreconditionError("degree of the zero sum is undefined")
        return self.terms[-1][0]

    @property
    def min_exponent(self) -> Fraction:
        if self.is_zero:
            raise PreconditionError("min exponent of the zero sum is undefined")
        return self.terms[0][0]

    def value_at_one(self) -> Fraction:
        """N(1): log-carrying terms vanish at u = 1, and an exponent's term
        without a log, if it has one, leads its group in `_groups`.  The
        coefficients are summed as integers over the lcm of their
        denominators; with every denominator 1 the sum is N(1) itself."""
        heads = [group[0] for _, _, group in self._groups if not group[0][0]]
        if not heads:
            return Fraction(0)
        _, nums, dens = zip(*heads)
        den = math.lcm(*dens)
        if den == 1:
            return Fraction(sum(nums))
        return Fraction(sum(map(mul, nums, map(floordiv, repeat(den), dens))), den)

    # -- algebra -------------------------------------------------------

    def __mul__(self, other: "PowerLogSum") -> "PowerLogSum":
        # u^a (log u)^i * u^b (log u)^j = u^(a+b) (log u)^(i+j)
        return PowerLogSum._collect(
            ((la + lb, ma + mb), ca * cb)
            for la, ma, ca in self.terms
            for lb, mb, cb in other.terms
        )

    # -- numeric -------------------------------------------------------

    def evaluate(self, u: complex) -> complex:
        """Numeric value with the principal logarithm at a finite nonzero u;
        a value beyond float range is a ConvergenceError."""
        uu = _number(u, "u")
        if uu == 0:
            raise PreconditionError("counting functions are not defined at u = 0")
        lu = cmath.log(uu)
        total = 0j
        try:
            for lam, m, c in self._floats():
                total += c * cmath.exp(lam * lu) * lu**m
        except OverflowError:
            total = complex(math.inf)
        if not cmath.isfinite(total):
            raise ConvergenceError(f"N(u) overflows a float at u = {_shown(u)}")
        return total

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for lam, m, c in sorted(self.terms, key=lambda t: (-t[0], t[1])):
            factors: list[str] = []
            if lam != 0:
                factors.append("u" if lam == 1 else f"u^{_fmt_exp(lam)}")
            if m:
                factors.append("log(u)" if m == 1 else f"log(u)^{m}")
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _fmt_exp(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"({x})"


class FunctionalEquationWitness(_Record):
    """Witness of N(1/u) = c * u^(-omega) * N(u) with c in {+1, -1}."""

    c: int
    omega: Fraction

    def __init__(self, c: int, omega: Fraction) -> None:
        # the integer rule inline, by exact type first: every detection builds a witness
        if type(c) is not int:
            _check_integer(c, "witness sign c")
        if type(omega) is not Fraction and type(omega) is not int and (
                isinstance(omega, bool) or not isinstance(omega, (int, Fraction))):
            raise PreconditionError(f"witness center omega must be an int or a Fraction, "
                                    f"got {_shown(omega)}")
        self.__dict__["c"], self.__dict__["omega"] = c, omega


class FEReport(_Record):
    """An exact check of N(1/u) = sign u^(-center) N(u), hence of
    zeta(center - s) = (-1)^chi zeta(s)^sign with chi = N(1): on integer
    coefficients, the signed palindrome a_k = sign a_(center-k), broken at
    each asymmetry (k, a_k, a_(center-k))."""

    holds: bool
    center: Rational
    sign: int
    chi: int
    asymmetries: tuple[tuple[int, int, int], ...]

    @property
    def dimension(self) -> Rational:
        """The center: a scheme check's declared dimension."""
        return self.center

    @property
    def exponent_ok(self) -> bool:
        """2 sum_k k a_k = center chi for sign 1: a pair k, center - k adds
        (2k - center)(a_k - a_(center-k))."""
        return not sum([(2 * k - self.center) * (a - b) for k, a, b in self.asymmetries])

    @property
    def squared_form(self) -> bool:
        """center chi is odd, so p^(center chi / 2) is irrational."""
        return self.center * self.chi % 2 == 1

    @property
    def witness(self) -> FunctionalEquationWitness | None:
        """(sign, center) when the check holds, else None."""
        return FunctionalEquationWitness(self.sign, Fraction(self.center)) if self.holds else None

    @property
    def prefactor_sign(self) -> int:
        """(-1)^chi, the sign of the reflected zeta."""
        return _parity(self.chi)


def _fe_report(coeffs: Sequence[int], center: int, sign: int = 1, low: int = 0) -> FEReport:
    """The check of N(1/u) = sign u^(-center) N(u) for N(u) =
    sum_k coeffs[k] u^(low + k), its asymmetries read in the exponents of
    u; it holds when none shows."""
    asymmetries = _asymmetries(coeffs, center - 2 * low, sign)
    asymmetries = tuple([(k + low, a, b) for k, a, b in asymmetries])
    return FEReport(not asymmetries, center, sign, sum(coeffs), asymmetries)


def _mirrors(groups: tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...],
             c: int, e: int, f: int) -> bool:
    """N(1/u) = c u^(-e/f) N(u) on `_groups`, for c = +-1: see `witness_holds`."""
    for (a1, d1, low), (a2, d2, high) in zip(groups[: (len(groups) + 1) // 2], reversed(groups)):
        if len(low) != len(high) or (a1 * d2 + a2 * d1) * f != e * d1 * d2:
            return False
        for (m1, n1, q1), (m2, n2, q2) in zip(low, high):
            if m1 != m2 or q1 != q2 or n1 != (-c if m1 % 2 else c) * n2:
                return False
    return True


def witness_holds(n: PowerLogSum, witness: FunctionalEquationWitness) -> bool:
    """Exact check of N(1/u) = c u^(-omega) N(u), on the map's integer image.

    It says c(lam, m) = c (-1)^m c(omega - lam, m): lam -> omega - lam
    reverses the lam groups, so group g pairs with group G-1-g slot by
    slot.  With lam_i = a_i/d_i and omega = e/f a pair holds iff
    (a1 d2 + a2 d1) f = e d1 d2, the log powers are equal, and the
    coefficients have equal denominators and numerators c1 = c (-1)^m c2.
    For c = +-1 the relation is symmetric, so the first half of the
    groups decides; for any other c only the empty sum holds.

    A nonzero map keeps the witness it was verified for as `_mirror`,
    (c, e, f) beside `_groups`, so a later check of it is one tuple
    comparison.  No other witness can hold for that map: omega is forced
    by the support and c by the first term pair.  A failed check, the zero
    map and |c| != 1 store nothing.
    """
    c, e, f = mirror = (witness.c, witness.omega.numerator, witness.omega.denominator)
    if n.__dict__.get("_mirror") == mirror:
        return True
    if not n.terms or c not in (1, -1):
        return not n.terms
    if not _mirrors(n._groups, c, e, f):
        return False
    n.__dict__["_mirror"] = mirror
    return True


def detect_functional_equation(n: PowerLogSum) -> FunctionalEquationWitness | None:
    """Find (c, omega) with N(1/u) = c u^(-omega) N(u), or None.

    The candidate omega is forced: the exponent support must map onto
    itself under lam -> omega - lam, so omega = min + max of the
    support (for a single exponent alpha this degenerates to 2*alpha).
    The sign c is read off the first terms of the lowest and the highest
    exponent, which the identity pairs, and then the whole identity is
    verified by one `witness_holds` call.  The map keeps a verified
    witness, so checking it again, as `verify_functional_equation` does
    after detection, or detecting on the same map again, walks no group.
    """
    if n.is_zero:
        raise PreconditionError("functional equations of the zero sum are vacuous")
    omega = n.terms[0][0] + n.degree
    groups = n._groups
    (m, num, den), (top_m, top_num, top_den) = groups[0][2][0], groups[-1][2][0]
    if top_m != m or top_den != den:  # the pair has different log powers or coefficients
        return None
    # N(1/u) has (-1)^m top_num/den at (lam - omega, m), matched against num/den
    target = _parity(m) * top_num
    if target == num:
        c = 1
    elif target == -num:
        c = -1
    else:
        return None
    witness = FunctionalEquationWitness(c, omega)
    return witness if witness_holds(n, witness) else None


def _reciprocal_power_coefficients(omegas: Sequence[Rational]) -> tuple[list[int], int, int]:
    """(coeffs, top, den) with prod_i (1 - u^(-omega_i)) =
    sum_i coeffs[i] v^(top - len(coeffs) + 1 + i), v = u^(-1/den).

    With den the lcm of the denominators, every factor is an integer
    polynomial in v: 1 - v^k = -(v^k - 1) for k = den omega > 0, and
    v^k (v^(-k) - 1) for k < 0.  The product of the (v^|k| - 1), of L1
    norm at most 2^len(omegas), is one `_packed_product`.  coeffs has
    nonzero ends; a zero omega gives ([], 0, 1).
    """
    ws = [w if type(w) is int else _frac(w) for w in omegas]  # an int has a denominator, 1
    den = math.lcm(1, *[w.denominator for w in ws])
    powers: dict[int, int] = {}
    sign, shift = 1, 0  # the product is sign v^shift prod (v^|k| - 1)
    for w in ws:
        k = w.numerator * (den // w.denominator)
        if k == 0:
            return [], 0, 1  # 1 - u^0 = 0
        if k > 0:
            sign = -sign
        else:
            k, shift = -k, shift + k
        powers[k] = powers.get(k, 0) + 1
    coeffs = _packed_product([sign], powers, 1 << len(ws))
    return coeffs, shift + len(coeffs) - 1, den


def product_of_reciprocal_powers(omegas: Sequence[Rational]) -> PowerLogSum:
    """Expand prod_i (1 - u^(-omega_i)) exactly, in integers (see
    `_reciprocal_power_coefficients`)."""
    coeffs, top, den = _reciprocal_power_coefficients(omegas)
    # v^(top - j) = u^((j - top)/den) for the reversed coefficients: the exponents increase
    return PowerLogSum.from_int_coefficients(coeffs[::-1], Fraction(-top, den), Fraction(1, den))


# -- file format: list of records [lam_num, lam_den, m, c_num, c_den] --


def to_records(n: PowerLogSum) -> list[list[int]]:
    return n.to_records()


def from_records(records: Iterable[Sequence[int]]) -> PowerLogSum:
    return PowerLogSum.from_records(records)


def load_power_log(path: str) -> PowerLogSum:
    data = _read_json(path)
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected a list of records")
    return from_records(data)


# -- inline expression syntax: terms  c*u^{a/b}*log^m  joined by +/- --


def _strip_braces(s: str) -> str:
    if s.startswith("{") and s.endswith("}") or s.startswith("(") and s.endswith(")"):
        return s[1:-1]
    return s


def _parse_rational(s: str) -> Fraction:
    try:
        return Fraction(_strip_braces(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def _split_terms(s: str) -> list[str]:
    parts: list[str] = []
    cur = ""
    depth = 0
    for i, ch in enumerate(s):
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
        if ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "^*/+-":
            parts.append(cur)
            cur = ch
        else:
            cur += ch
    parts.append(cur)
    return [p for p in parts if p not in ("", "+")]


def parse_power_log(text: str) -> PowerLogSum:
    """Parse inline syntax like "2*u^{3/2} - u^-1*log^2 + 1"."""
    s = text.replace(" ", "")
    terms = _split_terms(s) if s else []
    if not terms:
        raise ParseError("empty power-log expression")
    items: list[tuple[Key, Fraction]] = []
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = Fraction(1)
        lam = Fraction(0)
        m = 0
        for part in term.split("*"):
            if part == "u":
                lam += 1
            elif part.startswith("u^"):
                lam += _parse_rational(part[2:])
            elif part == "log":
                m += 1
            elif part.startswith("log^"):
                try:
                    m += int(_strip_braces(part[4:]))
                except ValueError as exc:
                    raise ParseError(f"bad log power in {part!r}") from exc
            elif part:
                coeff *= _parse_rational(part)
            else:
                raise ParseError(f"empty factor in term {term!r}")
        if m < 0:
            raise ParseError(f"negative log power in term {term!r}")
        items.append(((lam, m), sign * coeff))
    return PowerLogSum._collect(items)
