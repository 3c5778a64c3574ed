"""Command-line surface.

Each command is one row of `_HANDLERS` (name -> handler, help line),
which both `build_parser` and `run` read.  One parser takes the command
as a positional choice and every flag, before or after it; the parsed
`argparse.Namespace`, with `--tol` defaulted and `--tol`/`--terms`
checked by `config_from_args`, is what a handler reads; it prints to
stdout.
Each handler imports the layer modules it uses, so that a fresh process
loads only those of its own subcommand.

Exit codes: 0 success, 2 parse errors, 3 precondition violations,
4 identity-check failures, 5 numeric-tolerance failures.  The
`records` output format is deterministic: identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ConvergenceError, ParseError, PreconditionError

if TYPE_CHECKING:
    from .powerlog import PowerLogSum
    from .schemes import MonoidScheme

DEFAULT_TOL_ENV = "F1ZETA_TOL"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_IDENTITY = 4
EXIT_TOLERANCE = 5


def parse_complex_value(text: str) -> complex:
    """Accept exact rationals ("3", "-5/2") or complex decimals ("2+1i").

    Non-finite values ("nan", "inf", "1e400") are rejected.
    """
    t = text.strip().replace(" ", "")
    try:
        value = complex(Fraction(t))
    except (ValueError, ZeroDivisionError, OverflowError):
        # the imaginary unit can only be the last character
        try:
            value = complex(t[:-1] + "j" if t.endswith("i") else t)
        except ValueError as exc:
            raise ParseError(f"cannot parse complex value {text!r}") from exc
    if not cmath.isfinite(value):
        raise ParseError(f"complex value {text!r} is not finite")
    return value


def _require(config: argparse.Namespace, attr: str, flag: str) -> object:
    value = getattr(config, attr)
    if value is None:
        raise PreconditionError(f"command {config.command!r} requires {flag}")
    return value


def _scheme(config: argparse.Namespace) -> MonoidScheme:
    from .schemes import load_scheme

    return load_scheme(str(_require(config, "scheme_path", "--scheme")))


def _powers(config: argparse.Namespace) -> PowerLogSum:
    """The --powers counting function: a records file, or an expression."""
    from .powerlog import load_power_log, parse_power_log

    arg = str(_require(config, "powers", "--powers"))
    if os.path.exists(arg):
        return load_power_log(arg)
    return parse_power_log(arg)


def _prime_base(config: argparse.Namespace, what: str) -> int:
    """--p as an integer base; `what` names the computation that needs one.
    A finite real is a PreconditionError, any other text a ParseError."""
    text = str(_require(config, "p", "--p"))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"cannot parse base {text!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"base {text!r} is not finite")
    raise PreconditionError(f"{what} need an integer prime base")


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r}\t{z.imag!r}"


def _print_records(records) -> None:
    for rec in records:
        print("\t".join(str(v) for v in rec))


def _cmd_count(config: argparse.Namespace) -> int:
    from .powerlog import _check_printable
    from .schemes import exact_count

    scheme = _scheme(config)
    q = int(_require(config, "q", "--q"))
    print(_check_printable(exact_count(scheme, q), "the point count"))
    return EXIT_OK


def _resolve_zeta(config: argparse.Namespace):
    from .zetas import zeta_of

    if config.group is not None:
        return zeta_of(_resolve_group(config.group)[0].counting)
    if config.powers is not None:
        return zeta_of(_powers(config))
    raise PreconditionError("need one of --scheme, --group, --powers")


def _resolve_group(arg: str):
    """The --group group and its identity family (None for a file, or a
    catalog group without one)."""
    from .groups import _named_group, load_group

    if os.path.exists(arg):
        return load_group(arg), None
    return _named_group(arg)


def _cmd_zeta(config: argparse.Namespace) -> int:
    from .zetas import pretty_zeta, zeta_to_records

    scheme = None
    if config.scheme_path is not None:
        from .scheme_zeta import betti_profile, zeta_of_scheme

        scheme = _scheme(config)
        z = zeta_of_scheme(scheme)
    else:
        z = _resolve_zeta(config)
    if config.fmt == "records":
        _print_records(zeta_to_records(z))
        return EXIT_OK
    print(pretty_zeta(z))
    if scheme is not None:
        # exponent table: level r, factor exponent e_r, Betti number b_2r
        profile = betti_profile(scheme)
        for r, b in enumerate(profile.values):
            print(f"exponent\t{r}\t{-b}\t{b}")
    return EXIT_OK


# fe-check's wording of a report r (`powerlog.FEReport`) per domain: its
# header; the line of one asymmetry (k, a_k, a_(center-k)), where one is
# shown; and, for a scheme, its records: the fields after `holds` and the
# tag and sign of an asymmetry row.  The local check shows the exponents
# e_r = -a_r of the smoothed local zeta.
_FE_WORDING = {
    "global": (lambda r: f"zeta({r.center} - s) = (-1)^{r.chi} zeta(s)",
               lambda r, k, a, b: (f"Betti asymmetry: b_{2 * k} = {a} "
                                   f"but b_{2 * (r.center - k)} = {b}"),
               (("chi",), "asymmetry", 1)),
    "local": (lambda r: (f"Z(p, 1/(p^{r.center} T)) vs (-1)^{r.chi} p^({r.center}*{r.chi}/2) "
                         f"T^{r.chi} Z(p, T)"),
              lambda r, k, a, b: f"exponent mismatch: e_{k} = {-a} but e_{r.center - k} = {-b}",
              (("chi", "squared_form"), "mismatch", -1)),
    "group": (lambda r: (f"N(1/q) = ({r.sign})*q^(-{r.center}) N(q) and "
                         f"zeta({r.center}-s) = zeta(s)^({r.sign})"), None, None),
    "powers": (lambda r: (f"zeta({r.center} - s) = {'-' if r.prefactor_sign < 0 else ''}"
                          f"zeta(s){'^(-1)' if r.sign < 0 else ''}"), None, None),
}


def _cmd_fe_check(config: argparse.Namespace) -> int:
    if config.scheme_path is not None:
        from .schemes import global_functional_equation, local_functional_equation

        scheme = _scheme(config)
        if config.p is not None:
            domain = "local"
            report = local_functional_equation(scheme, _prime_base(config, "local checks"))
        else:
            domain, report = "global", global_functional_equation(scheme)
    elif config.group is not None:
        from .groups import group_functional_equation

        domain, report = "group", group_functional_equation(_resolve_group(config.group)[0])
    elif config.powers is not None:
        from .powerlog import detect_functional_equation
        from .zetas import _witnessed_report

        n = _powers(config)
        witness = detect_functional_equation(n)
        if witness is None:
            print("no functional equation witness")
            return EXIT_IDENTITY
        # detect_functional_equation has checked the witness
        domain, report = "powers", _witnessed_report(n, witness)
    else:
        raise PreconditionError("need one of --scheme, --group, --powers")
    header, asymmetry, records = _FE_WORDING[domain]
    if config.fmt == "records" and records is not None:
        fields, tag, sign = records
        for name in ("holds", *fields):
            print(f"{name}\t{str(getattr(report, name)).lower()}")
        for k, a, b in report.asymmetries:
            print(f"{tag}\t{k}\t{sign * a}\t{sign * b}")
    else:
        print(f"{header(report)}: {'holds' if report.holds else 'FAILS'}")
        for k, a, b in report.asymmetries if asymmetry is not None else ():
            print("  " + asymmetry(report, k, a, b))
        if domain == "local" and not report.exponent_ok:
            print("  p-power bookkeeping fails")
    return EXIT_OK if report.holds else EXIT_IDENTITY


def _cmd_local(config: argparse.Namespace) -> int:
    from .weil import local_zeta_series

    scheme = _scheme(config)
    order = config.terms if config.terms is not None else 8
    series = local_zeta_series(scheme, _prime_base(config, "local series"), order)
    for n, c in enumerate(series.coefficients):
        print(f"{n}\t{c.numerator}/{c.denominator}")
    return EXIT_OK


def _cmd_limit(config: argparse.Namespace) -> int:
    from .weil import default_base_sequence, limit_toward_one

    scheme = _scheme(config)
    s = parse_complex_value(str(_require(config, "s", "--s")))
    count = config.terms if config.terms is not None else 6
    seq = default_base_sequence(count)
    values = limit_toward_one(scheme, s, seq)
    # the target is computed before any row is printed: a failure leaves stdout empty
    target = None
    if config.fmt == "pretty":
        from .scheme_zeta import zeta_of_scheme
        from .zetas import evaluate_zeta

        target = evaluate_zeta(zeta_of_scheme(scheme), s)
    for p, v in zip(seq, values):
        print(f"{p!r}\t{_fmt_complex(v)}")
    if target is not None:
        print(f"target\t{_fmt_complex(target)}")
        print(f"pole_order\t{scheme.counting.value_at_one()}")
    return EXIT_OK


def _cmd_dual(config: argparse.Namespace) -> int:
    from .powerlog import to_records

    n = _powers(config)
    d = n.dual()
    if config.fmt == "records":
        _print_records(to_records(d))
    else:
        print(d)
    return EXIT_OK


def _cmd_epsilon(config: argparse.Namespace) -> int:
    from .zetas import epsilon_factor

    n = _powers(config)
    eps = epsilon_factor(n)
    if config.fmt == "records":
        print(f"sign\t{eps.sign}")
        print(f"residual\t{eps.numeric_residual!r}")
    else:
        print(eps.sign)
    if eps.numeric_residual > config.tol:
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_group(config: argparse.Namespace) -> int:
    from .groups import _family_report, group_counting, group_functional_equation
    from .zetas import pretty_zeta, zeta_of

    name = str(_require(config, "group", "--group"))
    group, family = _resolve_group(name)
    report = group_functional_equation(group)
    print(f"group\t{group.name or name}")
    print(f"counting\t{group_counting(group)}")
    print(f"zeta\t{pretty_zeta(zeta_of(group.counting))}")
    print(f"fe\t{str(report.holds).lower()}\tcenter\t{report.center}\tsign\t{report.sign}")
    results = () if family is None else _family_report(group, family).results
    for label, ok in results:
        print(f"identity\t{str(ok).lower()}\t{label}")
    return EXIT_OK if report.holds and all(ok for _, ok in results) else EXIT_IDENTITY


def _cmd_regdet(config: argparse.Namespace) -> int:
    from .regularize import regularized_det, spectrum_by_name

    spec = spectrum_by_name(config.spectrum)
    s = parse_complex_value(str(_require(config, "s", "--s")))
    if s.imag != 0:
        raise PreconditionError("regularized determinants are evaluated at real s")
    value = regularized_det(spec, s.real, tol=config.tol, terms=config.terms)
    print(repr(value))
    return EXIT_OK


def _cmd_fourier(config: argparse.Namespace) -> int:
    from .schemes import fourier_data

    data = fourier_data(_scheme(config), _prime_base(config, "Fourier coefficients"))
    print(f"period\t{data.period}")
    # the coefficients are exact rationals; the real/imaginary column pair
    # keeps the complex layout of the table.  fourier_data gives each torsion
    # order one vector, whose classes gcd(nu, period) share one Fraction
    # object each: each order's line tails are formatted once, and each
    # distinct object once among them.
    tails: dict[int, list[str]] = {}
    for x, jidx, t, coeffs in data.entries:
        if t not in tails:
            shown = {k: f"{float(c)!r}\t0.0\n" for k, c in {id(c): c for c in coeffs}.items()}
            tails[t] = [f"{nu}\t{shown[id(c)]}" for nu, c in enumerate(coeffs, start=1)]
        head = f"{x}\t{jidx}\t{t}\t"
        sys.stdout.writelines([head + tail for tail in tails[t]])
    err = data.reconstruction_error()
    print(f"reconstruction_error\t{err!r}")
    if err > config.tol:
        return EXIT_TOLERANCE
    return EXIT_OK


_HANDLERS = {
    "count": (_cmd_count, "point count of a scheme over F_q"),
    "zeta": (_cmd_zeta, "factored zeta of a scheme, group or counting function"),
    "fe-check": (_cmd_fe_check, "verify a functional equation exactly"),
    "local": (_cmd_local, "local zeta series coefficients at a prime"),
    "limit": (_cmd_limit, "(p-1)^N Z~(p, p^-s) along p -> 1"),
    "dual": (_cmd_dual, "dual counting function u -> 1/u"),
    "epsilon": (_cmd_epsilon, "epsilon factor of a counting function"),
    "group": (_cmd_group, "reductive-group counting, zeta and identities"),
    "regdet": (_cmd_regdet, "regularized determinant of a spectrum shifted by s"),
    "fourier": (_cmd_fourier, "Fourier coefficients of gcd(t, p^n - 1)"),
}


def run(config: argparse.Namespace) -> int:
    try:
        return _HANDLERS[config.command][0](config)
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def _default_tol() -> float:
    try:
        tol = float(os.environ.get(DEFAULT_TOL_ENV, "1e-9"))
    except ValueError:
        return 1e-9
    return tol if 0 < tol < math.inf else 1e-9


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f1zeta",
        description="Counting functions and zeta functions over the one-element base.",
        epilog="commands:\n" + "\n".join(f"  {name:<9} {helptext}"
                                          for name, (_, helptext) in _HANDLERS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_HANDLERS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--scheme", dest="scheme_path", metavar="FILE")
    parser.add_argument("--powers", metavar="EXPR|FILE")
    parser.add_argument("--group", metavar="NAME|FILE")
    parser.add_argument("--spectrum", default="circle", metavar="NAME")
    parser.add_argument("--q", type=int)
    parser.add_argument("--p", metavar="PRIME")
    parser.add_argument("--s", metavar="COMPLEX")
    parser.add_argument("--terms", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--format", dest="fmt", choices=("pretty", "records"), default="pretty")
    parser.add_argument("--pretty", action="store_const", const="pretty", dest="fmt",
                        help="shorthand for --format pretty")
    return parser


def config_from_args(argv: list[str] | None = None) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    if args.tol is None:
        args.tol = _default_tol()
    if not 0 < args.tol < math.inf:
        raise ParseError(f"tolerances must be positive and finite, got {args.tol!r}")
    if args.terms is not None and args.terms < 1:
        raise ParseError(f"--terms must be at least 1, got {args.terms}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        config = config_from_args(argv)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return run(config)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
