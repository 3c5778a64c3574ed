"""Command-line surface: outputs, formats, exit codes, round-trips."""

import argparse
import cmath
import contextlib
import io
import json
import math
import random
import tempfile
import time
import weakref
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from f1zeta import cli, schemes
from f1zeta.powerlog import from_records, parse_power_log, to_records
from f1zeta.schemes import load_scheme, projective_space_model, scheme_to_dict
from f1zeta.weil import default_base_sequence, limit_toward_one

from test_cold_start import _fresh


@pytest.fixture()
def p1_scheme(tmp_path):
    path = tmp_path / "p1.scheme"
    path.write_text(json.dumps(scheme_to_dict(projective_space_model(1))))
    return str(path)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_count(capsys, p1_scheme):
    code, out = _run(capsys, "count", "--scheme", p1_scheme, "--q", "5")
    assert code == 0 and out == "6\n"


def test_zeta_group_pretty(capsys):
    code, out = _run(capsys, "zeta", "--group", "GL:2", "--pretty")
    assert code == 0 and out == "(s-3)(s-2)/((s-4)(s-1))\n"


def test_epsilon(capsys):
    code, out = _run(capsys, "epsilon", "--powers", "1*u^2")
    assert code == 0 and out == "-1\n"


def test_epsilon_tolerance_failure(capsys):
    # float rounding leaves a tiny but nonzero residual for this sum
    code, _ = _run(capsys, "epsilon", "--powers", "u^3 - u + 1", "--tol", "1e-300")
    assert code == 5


@pytest.mark.parametrize("powers", ["100000*u", "2000*u^{1/2}"])
def test_epsilon_with_large_exponents(capsys, powers):
    # a plain float product of the factors underflows to 0 on both inputs
    code = cli.main(["epsilon", "--powers", powers, "--format", "records"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    fields = dict(line.split("\t") for line in captured.out.strip().splitlines())
    assert fields["sign"] == "1"
    assert 0.0 <= float(fields["residual"]) <= 1e-9


def test_epsilon_beyond_float_range_is_a_tolerance_failure(capsys):
    # 199! does not fit a float, so the log of the zeta cannot be evaluated
    code = cli.main(["epsilon", "--powers", "u*log^200", "--format", "records"])
    captured = capsys.readouterr()
    assert code == 5 and captured.err == ""
    assert captured.out == "sign\t1\nresidual\tinf\n"


@pytest.mark.parametrize("command", ["zeta", "group", "fe-check"])
def test_oversized_group_is_a_precondition_error(capsys, command):
    code = cli.main([command, "--group", "GL:500"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("precondition violated: GL(500) has a counting polynomial")


def test_zeta_records_and_stability(capsys, p1_scheme):
    code, out1 = _run(capsys, "zeta", "--scheme", p1_scheme, "--format", "records")
    code2, out2 = _run(capsys, "zeta", "--scheme", p1_scheme, "--format", "records")
    assert code == code2 == 0
    assert out1 == out2  # byte-identical reruns
    assert out1 == "0\t1\t0\t1\t1\n1\t1\t0\t1\t1\n"


def test_local_series_records(capsys, p1_scheme):
    code, out = _run(capsys, "local", "--scheme", p1_scheme, "--p", "2", "--terms", "3")
    assert code == 0
    assert out == "0\t1/1\n1\t3/1\n2\t7/1\n3\t15/1\n"


def test_fe_check_scheme(capsys, p1_scheme):
    code, out = _run(capsys, "fe-check", "--scheme", p1_scheme)
    assert code == 0 and "holds" in out


def test_zeta_scheme_pretty_prints_exponent_table(capsys, p1_scheme):
    code, out = _run(capsys, "zeta", "--scheme", p1_scheme)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1/((s-1)s)"
    assert lines[1] == "exponent\t0\t-1\t1"
    assert lines[2] == "exponent\t1\t-1\t1"


def test_fe_check_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.scheme"
    path.write_text(json.dumps({
        "points": [{"rank": 0, "torsion": []}] * 3 + [{"rank": 1, "torsion": []}],
        "dimension": 1,
        "smooth_projective": True,
    }))
    code, out = _run(capsys, "fe-check", "--scheme", str(path))
    assert code == 4
    assert "asymmetry" in out.lower()


def test_fe_check_local(capsys, p1_scheme):
    code, out = _run(capsys, "fe-check", "--scheme", p1_scheme, "--p", "3",
                     "--format", "records")
    assert code == 0
    assert "holds\ttrue" in out and "chi\t2" in out


def test_fe_check_powers(capsys):
    code, out = _run(capsys, "fe-check", "--powers", "u^4 - u^3 - u^2 + u")
    assert code == 0 and "holds" in out
    code, _ = _run(capsys, "fe-check", "--powers", "u^2 + 2*u")
    assert code == 4


def test_limit(capsys, p1_scheme):
    code, out = _run(capsys, "limit", "--scheme", p1_scheme, "--s", "3", "--terms", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "pole_order\t2"
    assert lines[-2].startswith("target\t")
    target = float(lines[-2].split("\t")[1])
    assert target == pytest.approx(1 / 6)  # 1/(s(s-1)) at s = 3


def test_dual_records(capsys):
    code, out = _run(capsys, "dual", "--powers", "u - 1", "--format", "records")
    assert code == 0
    assert from_records([line.split("\t") for line in out.strip().splitlines()]) == \
        parse_power_log("u^-1 - 1")


def test_group_command(capsys, monkeypatch):
    from f1zeta import groups

    code, out = _run(capsys, "group", "--group", "SL2")
    assert code == 0
    assert "u^3 - u" in out and "(s-1)/(s-3)" in out
    code, out = _run(capsys, "group", "--group", "GL:2")
    assert code == 0
    assert out.count("identity\ttrue") == 3
    # a failed family identity is an identity-check failure, reported on stdout
    monkeypatch.setattr(groups, "_family_report", lambda group, family: groups.FamilyIdentityReport(
        family, group.rank, (("shift", True), ("dual", False))))
    code, out = _run(capsys, "group", "--group", "GL:2")
    assert code == 4
    assert _identity_lines(out) == ["identity\ttrue\tshift", "identity\tfalse\tdual"]


def test_group_from_file(capsys, tmp_path):
    path = tmp_path / "sl2.group"
    path.write_text(json.dumps({"rank": 1, "dimension": 3, "flag_betti": [1, 1]}))
    code, out = _run(capsys, "zeta", "--group", str(path))
    assert code == 0 and out == "(s-1)/(s-3)\n"


def test_regdet(capsys):
    code, out = _run(capsys, "regdet", "--spectrum", "circle", "--s", "1")
    assert code == 0
    expected = 4 * math.sinh(math.pi) ** 2
    assert float(out.strip()) == pytest.approx(expected, rel=1e-8)


def test_regdet_with_a_long_head_meets_the_default_tolerance(capsys):
    # the rounding charged to a 4000-term head stays below the default 1e-9
    code, out = _run(capsys, "regdet", "--spectrum", "circle", "--s", "1", "--terms", "4000")
    assert code == 0
    assert float(out.strip()) == pytest.approx(4 * math.sinh(math.pi) ** 2, rel=1e-9)


def test_regdet_with_a_one_term_head_fails_its_tolerance(capsys):
    # the tails' Euler-Maclaurin truncation beyond one head term is about
    # 5e-7 of the value and is charged to the bound, so it cannot meet 1e-9
    code = cli.main(["regdet", "--spectrum", "circle", "--s", "0.3", "--terms", "1"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "achieved 2.238e-03" in captured.err


def test_fourier(capsys, tmp_path, monkeypatch):
    path = tmp_path / "t.scheme"
    path.write_text(json.dumps({"points": [{"rank": 0, "torsion": [3]}]}))
    code, out = _run(capsys, "fourier", "--scheme", str(path), "--p", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "period\t2"
    # gcd(3, 2^n - 1) alternates 1, 3 = 2 + (-1)^n: c_1 = 1, c_2 = 2, exactly
    assert lines[1:-1] == ["0\t0\t3\t1\t1.0\t0.0", "0\t0\t3\t2\t2.0\t0.0"]
    assert lines[-1] == "reconstruction_error\t0.0"
    # a reconstruction error above --tol is a tolerance failure after the table
    monkeypatch.setattr(schemes.FourierData, "reconstruction_error", lambda self: 0.5)
    code, out = _run(capsys, "fourier", "--scheme", str(path), "--p", "2")
    assert code == 5 and out.splitlines() == lines[:-1] + ["reconstruction_error\t0.5"]


@pytest.mark.parametrize("points,p,message", [
    ([{"rank": 1}], "1", "base prime must be >= 2, got 1"),
    ([{"rank": 1}], "-3", "base prime must be >= 2, got -3"),
    ([{"rank": 0, "torsion": [1000003, 999983]}], "2", "Fourier period 499991999982"),
    ([{"rank": 0, "torsion": [10**18 + 3]}], "2", "a Fourier period of at most 1048576"),
    # period 1000002 each, but three entries or two points make a table past 2^20 rows
    ([{"rank": 0, "torsion": [1000003, 4, 3]}], "2", "a Fourier table of 3000006 rows"),
    ([{"rank": 0, "torsion": [1000003]}, {"rank": 1, "torsion": [4]}], "2",
     "a Fourier table of 2000004 rows"),
])
def test_fourier_precondition_exits_before_a_table(capsys, tmp_path, monkeypatch, points, p,
                                                    message):
    # the period and the entry count put a table past the cap before any vector is built
    calls = []
    monkeypatch.setattr(schemes, "gcd_fourier_coefficients",
                        lambda *a, real=schemes.gcd_fourier_coefficients: calls.append(a) or real(*a))
    path = tmp_path / "t.scheme"
    path.write_text(json.dumps({"points": points}))
    code = cli.main(["fourier", "--scheme", str(path), "--p", p])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert message in captured.err
    assert calls == []


def test_fourier_period_cap_stops_at_the_first_order_past_it(capsys, tmp_path, monkeypatch):
    # ten primes just below 2^41, each phi past the cap: one totient, not ten
    # (each is a trial division to sqrt(2^41) when it runs)
    primes = [2**41 - d for d in (21, 31, 55, 63, 73, 75, 91, 111, 133, 139)]
    calls = []
    monkeypatch.setattr(schemes, "totient", lambda t, real=schemes.totient: calls.append(t) or real(t))
    path = tmp_path / "t.scheme"
    path.write_text(json.dumps({"points": [{"rank": 0, "torsion": primes}]}))
    code = cli.main(["fourier", "--scheme", str(path), "--p", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"Fourier period {min(primes) - 1}; at most 1048576" in captured.err
    assert calls == [min(primes)]


def test_parse_error_exit_codes(capsys, tmp_path):
    code, _ = _run(capsys, "count", "--scheme", str(tmp_path / "nope"), "--q", "5")
    assert code == 2
    bad = tmp_path / "bad.scheme"
    bad.write_text("{not json")
    code, _ = _run(capsys, "count", "--scheme", str(bad), "--q", "5")
    assert code == 2
    code, _ = _run(capsys, "zeta", "--powers", "u^")
    assert code == 2
    records = tmp_path / "object.powers"  # a records file holds a list
    records.write_text(json.dumps({"terms": []}))
    assert cli.main(["dual", "--powers", str(records)]) == 2
    assert capsys.readouterr() == ("", f"parse error: {records}: expected a list of records\n")


def test_precondition_exit_code(capsys, p1_scheme):
    code, _ = _run(capsys, "count", "--scheme", p1_scheme, "--q", "1")
    assert code == 3
    code, _ = _run(capsys, "zeta")
    assert code == 3
    for argv, err in [(["fe-check"], "need one of --scheme, --group, --powers"),
                      (["regdet", "--s", "1+1i"], "regularized determinants are evaluated at real s"),
                      (["count", "--q", "5"], "command 'count' requires --scheme")]:
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", f"precondition violated: {err}\n")


def test_complex_parsing():
    assert cli.parse_complex_value("3/2") == 1.5
    assert cli.parse_complex_value("2+1i") == 2 + 1j
    assert cli.parse_complex_value("-4") == -4
    with pytest.raises(cli.ParseError):
        cli.parse_complex_value("wat")
    assert cli.parse_complex_value("1i") == 1j
    assert cli.parse_complex_value("1e300") == 1e300
    for value in ("nan", "inf", "-inf", "infi", "1e400"):
        with pytest.raises(cli.ParseError, match=f"{value!r} is not finite"):
            cli.parse_complex_value(value)


def test_tolerance_env_default(monkeypatch):
    monkeypatch.setenv(cli.DEFAULT_TOL_ENV, "1e-5")
    config = cli.config_from_args(["epsilon", "--powers", "u"])
    assert config.tol == 1e-5
    monkeypatch.setenv(cli.DEFAULT_TOL_ENV, "nan")
    config = cli.config_from_args(["epsilon", "--powers", "u"])
    assert config.tol == 1e-9
    monkeypatch.setenv(cli.DEFAULT_TOL_ENV, "abc")
    config = cli.config_from_args(["epsilon", "--powers", "u"])
    assert config.tol == 1e-9
    monkeypatch.delenv(cli.DEFAULT_TOL_ENV)
    config = cli.config_from_args(["epsilon", "--powers", "u"])
    assert config.tol == 1e-9


def test_powers_file_round_trip(capsys, tmp_path):
    n = parse_power_log("2*u^{3/2} - u^-1")
    path = tmp_path / "n.powers"
    path.write_text(json.dumps(to_records(n)))
    code, out = _run(capsys, "dual", "--powers", str(path), "--format", "records")
    assert code == 0
    assert from_records([l.split("\t") for l in out.strip().splitlines()]) == n.dual()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "infi"])
def test_non_finite_s_is_a_parse_error(capsys, p1_scheme, value):
    for argv in (["regdet", "--spectrum", "circle"], ["limit", "--scheme", p1_scheme]):
        code = cli.main([*argv, f"--s={value}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"parse error: complex value {value!r} is not finite\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_p_is_a_parse_error(capsys, p1_scheme, value):
    code = cli.main(["local", "--scheme", p1_scheme, f"--p={value}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"parse error: base {value!r} is not finite\n"


@pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf"])
def test_tolerance_must_be_positive_and_finite(capsys, value):
    # a NaN tolerance would make every `residual > tol` check pass
    code, out = _run(capsys, "epsilon", "--powers", "u^3 - u + 1", f"--tol={value}")
    assert code == 2 and out == ""


def test_regdet_overflow_is_a_tolerance_failure(capsys):
    code = cli.main(["regdet", "--spectrum", "circle", "--s", "1e6"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    # log det'(Delta + s) = 2 pi sqrt(s) - log s + O(e^(-2 pi sqrt(s)))
    reported = float(captured.err.rsplit("log det = ", 1)[1])
    assert reported == pytest.approx(2 * math.pi * 1e3 - math.log(1e6), rel=1e-10)


@pytest.mark.parametrize(
    "points,dimension,s",
    [
        (
            [
                {"rank": 4, "torsion": [3, 4]},
                {"rank": 4, "torsion": [2]},
                {"rank": 4, "torsion": []},
                {"rank": 3, "torsion": [3]},
            ],
            5,
            "7.5",
        ),
        ([{"rank": 0, "torsion": [4, 4]}] * 4, None, "0.5+0.25i"),
    ],
)
def test_limit_with_large_exponents(capsys, tmp_path, points, dimension, s):
    # a plain float product of the factors under- or overflows on both inputs
    data = {"points": points}
    if dimension is not None:
        data["dimension"] = dimension
    path = tmp_path / "big.scheme"
    path.write_text(json.dumps(data))
    code = cli.main(["limit", "--scheme", str(path), "--s", s, "--format", "records"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = [line.split("\t") for line in captured.out.strip().splitlines()]
    want = limit_toward_one(load_scheme(str(path)), cli.parse_complex_value(s))
    assert [float(r[0]) for r in rows] == default_base_sequence()
    got = [complex(float(r[1]), float(r[2])) for r in rows]
    assert got == want and all(cmath.isfinite(v) for v in got)


def test_limit_overflow_is_a_tolerance_failure(capsys, tmp_path):
    path = tmp_path / "huge.scheme"
    path.write_text(json.dumps({"points": [{"rank": 0, "torsion": [2000]}]}))
    code = cli.main(["limit", "--scheme", str(path), "--s", "0.5"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "overflows a float" in captured.err
    # rank 2000 is beyond the scheme rank cap
    path.write_text(json.dumps({"points": [{"rank": 2000, "torsion": [3]}, {"rank": 0}]}))
    code = cli.main(["limit", "--scheme", str(path), "--s", "2100.5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "at most 500" in captured.err
    # factor exponents C(500, r) * 10^200 are themselves beyond float range
    path.write_text(json.dumps({"points": [{"rank": 500, "torsion": [10**200]}, {"rank": 0}]}))
    code = cli.main(["limit", "--scheme", str(path), "--s", "500.5"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "exponent e_" in captured.err and "beyond float range" in captured.err
    # exponents of 10^308 are floats, but their logs sum to inf - inf = nan
    path.write_text(json.dumps({"points": [{"rank": 1, "torsion": [10**308]}]}))
    code = cli.main(["limit", "--scheme", str(path), "--s", "1.5", "--format", "records"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "achieved log = (nan" in captured.err
    # the row at p = 1.1 is in float range, the target (about e^768) is not
    path.write_text(json.dumps({"points": [{"rank": 2, "torsion": [2957]},
                                           {"rank": 1, "torsion": [2423]}]}))
    code = cli.main(["limit", "--scheme", str(path), "--s", "4.84", "--terms", "1"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "zeta value at s = (4.84+0j) overflows a float" in captured.err


def _limit_rows_and_target(out):
    rows = [line.split("\t") for line in out.strip().splitlines()]
    values = [complex(float(r[1]), float(r[2])) for r in rows if r[0] not in ("target", "pole_order")]
    (target,) = [complex(float(r[1]), float(r[2])) for r in rows if r[0] == "target"]
    return values, target


@pytest.mark.parametrize(
    "points,s,coeffs",
    [
        # (s - 1)^-400 s^400: each factor leaves float range, the value does not
        ([{"rank": 1, "torsion": [400]}], "100.5", (-400, 400)),
        # partial products under- and overflow; a float product printed 0.0
        ([{"rank": 4, "torsion": [43]}, {"rank": 4}], "29.62", (44, -176, 264, -176, 44)),
    ],
)
def test_limit_target_where_the_factors_leave_float_range(capsys, tmp_path, points, s, coeffs):
    # the target prod_r (s - r)^(-a_r), exactly in rationals
    want = float(math.prod((Fraction(s) - r) ** -a for r, a in enumerate(coeffs)))
    path = tmp_path / "x.scheme"
    path.write_text(json.dumps({"points": points}))
    code = cli.main(["limit", "--scheme", str(path), "--s", s])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    values, target = _limit_rows_and_target(captured.out)
    assert target == pytest.approx(want, rel=1e-12)
    assert abs(values[-1] - target) <= 1e-3 * abs(target)


def test_limit_on_random_torsion_schemes_ends_in_a_documented_exit(capsys, tmp_path):
    # ranks <= 6, torsion orders <= 60, Re s - max rank in [0.2, 30]
    rng = random.Random(10)
    path = tmp_path / "random.scheme"
    exits = []
    for _ in range(120):
        points = [{"rank": rng.randint(0, 6), "torsion": [rng.randint(2, 60)]}
                  for _ in range(rng.randint(1, 3))]
        re = max(p["rank"] for p in points) + rng.uniform(0.2, 30)
        s = f"{re:.3f}" if rng.random() < 0.5 else f"{re:.3f}{rng.uniform(-3, 3):+.3f}i"
        path.write_text(json.dumps({"points": points}))
        code = cli.main(["limit", "--scheme", str(path), "--s", s])
        captured = capsys.readouterr()
        assert code in (0, 5) and "Traceback" not in captured.err, (points, s)
        exits.append(code)
        if code == 5:
            assert captured.out == "" and "achieved log" in captured.err
            continue
        values, target = _limit_rows_and_target(captured.out)
        assert abs(values[-1] - target) <= 1e-2 * abs(target), (points, s)
    assert exits.count(0) >= 100


def test_zeta_scheme_pretty_loads_the_scheme_once(capsys, monkeypatch, p1_scheme):
    from f1zeta import schemes

    loads = []
    monkeypatch.setattr(schemes, "load_scheme", lambda path: loads.append(path) or load_scheme(path))
    code, out = _run(capsys, "zeta", "--scheme", p1_scheme)
    assert code == 0 and loads == [p1_scheme]
    assert out.splitlines()[1:] == ["exponent\t0\t-1\t1", "exponent\t1\t-1\t1"]


@pytest.mark.parametrize("argv", [["count", "--q", "3", "--scheme"], ["dual", "--powers"],
                                  ["group", "--group"]], ids=["count", "dual", "group"])
@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"points": [{"rank": 1}]}', b"[" * 200_000 + b"]" * 200_000],
    ids=["not-utf8", "nested-200000-deep"],
)
def test_undecodable_input_file_is_a_parse_error(capsys, tmp_path, argv, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code = cli.main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("parse error:")


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--powers", "[[1, 1, 0, 1.5, 1]]"),
        ("--powers", "[[1, 1, 0, true, 1]]"),
        ("--powers", "[[1, 1, 0, 1e400, 1]]"),
        ("--group", '{"rank": 1.9, "dimension": 1, "flag_betti": [1]}'),
        ("--group", '{"rank": 1, "dimension": 1e400, "flag_betti": [1]}'),
    ],
    ids=["record-1.5", "record-true", "record-1e400", "rank-1.9", "dimension-1e400"],
)
def test_non_integer_field_is_a_parse_error(capsys, tmp_path, flag, content):
    # int() would truncate 1.5 to 1 and fail on 1e400 (a float infinity)
    path = tmp_path / "input.json"
    path.write_text(content)
    command = "dual" if flag == "--powers" else "group"
    code = cli.main([command, flag, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("parse error:") and "is not an integer" in captured.err


@pytest.mark.parametrize(
    "content",
    [
        '{"points": [{"rank": true}], "dimension": true}',
        '{"points": [{"rank": 1}], "dimension": true}',
        '{"points": [{"rank": false}]}',
        '{"points": [{"rank": 1, "torsion": [true, 3]}]}',
        '{"points": [{"rank": 1.0}]}',
        '{"points": [{"rank": 1, "torsion": [2.5]}]}',
        '{"points": [{"torsion": [2]}]}',
    ],
    ids=["rank-and-dimension-true", "dimension-true", "rank-false", "torsion-true",
         "rank-1.0", "torsion-2.5", "rank-missing"],
)
def test_non_integer_scheme_field_is_a_parse_error(capsys, tmp_path, content):
    # JSON true passes isinstance(_, int); it must not run as 1
    path = tmp_path / "input.scheme"
    path.write_text(content)
    code = cli.main(["count", "--scheme", str(path), "--q", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("parse error:")


@pytest.mark.parametrize("value", ["0", "-5", "-1"])
@pytest.mark.parametrize("command", ["local", "limit", "regdet"])
def test_terms_below_one_is_a_parse_error(capsys, p1_scheme, command, value):
    argv = {"local": ["local", "--scheme", p1_scheme, "--p", "2"],
            "limit": ["limit", "--scheme", p1_scheme, "--s", "2.5"],
            "regdet": ["regdet", "--s", "1"]}[command]
    code = cli.main([*argv, "--terms", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"parse error: --terms must be at least 1, got {value}\n"


def test_local_series_order_above_the_cap_is_a_precondition_error(capsys, p1_scheme):
    from f1zeta.weil import MAX_SERIES_ORDER

    code = cli.main(["local", "--scheme", p1_scheme, "--p", "2",
                     "--terms", str(MAX_SERIES_ORDER + 1)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "at most" in captured.err


_P12_POINTS = [{"rank": r} for r in range(13) for _ in range(math.comb(13, r + 1))]


@pytest.mark.parametrize(
    "points,argv",
    [
        # e_500 >= N_500 / 500 has more than 4300 decimal digits, known before
        # the recurrence starts (which would pass the limit at e_425, e_11, e_45)
        (_P12_POINTS, ["local", "--p", "7", "--terms", "500"]),
        ([{"rank": 500}], ["local", "--p", "7", "--terms", "500"]),
        ([{"rank": 16}], ["local", "--p", "1000003", "--terms", "500"]),
        # (10^50 - 1)^100 has 5000 digits
        ([{"rank": 100}], ["count", "--q", "1" + "0" * 50]),
        # beyond the scheme rank cap
        ([{"rank": 2000}], ["local", "--p", "3"]),
        ([{"rank": 501}, {"rank": 0}], ["zeta"]),
        ([{"rank": 5000}], ["fe-check"]),
        ([{"rank": r} for r in range(2001)], ["limit", "--s", "2001.5"]),
    ],
    ids=["local-P12", "local-rank-500", "local-p-1000003", "count-q-1e50", "local-rank-2000",
         "zeta-rank-501", "fe-check-rank-5000", "limit-ranks-to-2000"],
)
def test_oversized_results_are_precondition_errors(capsys, tmp_path, points, argv):
    path = tmp_path / "big.scheme"
    path.write_text(json.dumps({"points": points}))
    start = time.perf_counter()
    code = cli.main([argv[0], "--scheme", str(path), *argv[1:]])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "Traceback" not in captured.err
    assert "at most" in captured.err or "decimal digits" in captured.err
    assert elapsed < 5


@pytest.mark.parametrize("argv", [["zeta"], ["zeta", "--pretty"], ["fe-check"],
                                  ["fe-check", "--p", "2"], ["limit", "--s", "3"]])
def test_declared_dimension_above_the_cap_is_a_precondition_error(capsys, tmp_path, argv):
    # a dimension of 10^6 used to print a 19.9 MB exponent table with exit 0
    path = tmp_path / "tall.scheme"
    path.write_text(json.dumps({"points": [{"rank": 1}], "dimension": 1000000}))
    code = cli.main([argv[0], "--scheme", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "Traceback" not in captured.err
    assert "dimension 1000000" in captured.err


# -- the CLI contract table ---------------------------------------------------

# The table's fields are described in the README's "CLI contract".  The
# outputs of the first 91 cases were recorded with the Fraction
# implementation that preceded the integer kernel; they must never change.
_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())

# A nonzero exit that writes to stderr writes one message with the prefix
# of its code.  Exits 0 and 4 write nothing there, and neither does the
# exit 5 of an `epsilon` or `fourier` residual above --tol: it reports on
# stdout.
_STDERR_PREFIXES = {0: (), 2: ("parse error: ", "usage: "), 3: ("precondition violated: ",),
                    4: (), 5: ("numeric failure: ",)}


def _generated_scheme(name):
    """`P<n>` is projective_space_model(n) as scheme_to_dict writes it,
    `P<n>-points` the same scheme one record per point."""
    n, _, form = name.removeprefix("P").partition("-")
    data = scheme_to_dict(projective_space_model(int(n)))
    if form == "points":
        data["points"] = [{"rank": pt["rank"], "torsion": pt["torsion"]}
                          for pt in data["points"] for _ in range(pt.get("multiplicity", 1))]
    return data


@pytest.fixture(scope="module")
def golden_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name in {arg[1:-1] for case in _GOLDEN["cases"] for arg in case["argv"] if arg[:1] == "{"}:
        paths[name] = root / f"{name}.scheme"
        paths[name].write_text(json.dumps(_GOLDEN["schemes"].get(name) or _generated_scheme(name)))
    return {name: str(path) for name, path in paths.items()}


def _in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: --help, or a usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh-process"])
@pytest.mark.parametrize("case", _GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]))
def test_cli_contract_case(capsys, monkeypatch, golden_paths, case, fresh):
    monkeypatch.delenv(cli.DEFAULT_TOL_ENV, raising=False)
    argv = [golden_paths[arg[1:-1]] if arg[:1] == "{" else arg for arg in case["argv"]]
    start = time.perf_counter()
    if fresh:
        proc = _fresh("-m", "f1zeta.cli", *argv, timeout=case.get("timeout", 120))
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, out, err = _in_process(capsys, argv)
    elapsed = time.perf_counter() - start
    assert code == case.get("code", 0), err
    assert "Traceback" not in err
    if err or code in (2, 3):
        assert err.startswith(_STDERR_PREFIXES[code]), err
    assert elapsed <= case.get("timeout", math.inf)
    expectations = [key for key in ("stdout", "lines", "approx") if key in case]
    assert len(expectations) == 1, expectations
    if "stdout" in case:
        assert out == case["stdout"]
    elif "lines" in case:
        assert [line for line in case["lines"] if line not in out.splitlines()] == []
    else:
        value, rel = case["approx"]
        assert abs(float(out) - value) <= rel * abs(value), out


# -- one command table, one parser, one base reader, one group-name parse ---

# every flag with a value other than its default (--pretty after --format records)
_FLAGS = [["--scheme", "x"], ["--powers", "u"], ["--group", "GL:2"], ["--spectrum", "other"],
          ["--q", "5"], ["--p", "3"], ["--s", "2"], ["--terms", "4"], ["--tol", "1e-6"],
          ["--format", "records"], ["--format", "records", "--pretty"]]


def test_every_command_takes_every_flag_before_or_after_it(monkeypatch):
    monkeypatch.delenv(cli.DEFAULT_TOL_ENV, raising=False)
    for name in cli._HANDLERS:
        bare = cli.config_from_args([name])
        assert bare.command == name
        for flag in _FLAGS:
            after = cli.config_from_args([name, *flag])
            assert after == cli.config_from_args([*flag, name]), (name, flag)
            assert after.command == name and (after != bare) == (flag[-1] != "--pretty")
        everything = [arg for flag in _FLAGS[:-1] for arg in flag]
        assert cli.config_from_args([*everything, name]) == cli.config_from_args([name, *everything])


def test_help_lists_every_command_with_its_help_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    for name, (_, helptext) in cli._HANDLERS.items():
        assert f"  {name:<9} {helptext}" in lines
    for flag in _FLAGS:
        assert flag[-1 if flag[-1] == "--pretty" else 0] in out


@pytest.mark.parametrize("argv", [[], ["wat"], ["--q", "7"], ["--q", "7", "wat"], ["count", "zeta"]],
                         ids=["missing", "unknown", "flag-only", "flag-unknown", "two-commands"])
def test_an_unknown_or_missing_command_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: f1zeta")


def test_parsed_arguments_are_the_config(monkeypatch):
    monkeypatch.delenv(cli.DEFAULT_TOL_ENV, raising=False)
    config = cli.config_from_args(["local", "--scheme", "x", "--p", "3", "--terms", "4"])
    assert isinstance(config, argparse.Namespace)
    assert (config.command, config.scheme_path, config.p, config.terms, config.tol, config.fmt) == \
        ("local", "x", "3", 4, 1e-9, "pretty")


@pytest.fixture()
def torsion_scheme(tmp_path):
    path = tmp_path / "t.scheme"
    path.write_text(json.dumps({"points": [{"rank": 0, "torsion": [3]}]}))
    return str(path)


@pytest.mark.parametrize(
    "value,code,err",
    [
        ("7", 0, ""),
        ("2.5", 3, "precondition violated: {what} need an integer prime base\n"),
        ("nan", 2, "parse error: base 'nan' is not finite\n"),
        ("x", 2, "parse error: cannot parse base 'x'\n"),
    ],
)
@pytest.mark.parametrize(
    "command,what",
    [("fe-check", "local checks"), ("local", "local series"), ("fourier", "Fourier coefficients")],
)
def test_integer_base_rule(capsys, p1_scheme, torsion_scheme, command, what, value, code, err):
    scheme = torsion_scheme if command == "fourier" else p1_scheme
    assert cli.main([command, "--scheme", scheme, f"--p={value}"]) == code
    captured = capsys.readouterr()
    assert captured.err == err.format(what=what)
    assert bool(captured.out) == (code == 0)


@pytest.mark.parametrize(
    "powers,code,out,err",
    [
        ("u^2 - 1", 0, "zeta(2 - s) = zeta(s)^(-1): holds\n", ""),
        ("u + 2", 4, "no functional equation witness\n", ""),
        ("log", 3, "", "precondition violated: zeta functional equations are checked for pure powers\n"),
        ("1/3*u + 1/3", 3, "", "precondition violated: N(1) = 2/3 is not an integer\n"),
        ("u - u", 3, "", "precondition violated: functional equations of the zero sum are vacuous\n"),
    ],
)
def test_fe_check_powers_outcomes(capsys, powers, code, out, err):
    assert cli.main(["fe-check", "--powers", powers]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_fe_check_powers_checks_its_witness_once(capsys, monkeypatch):
    from f1zeta import powerlog, zetas

    calls = []

    def counted(n, witness, check=powerlog.witness_holds):
        calls.append(witness)
        return check(n, witness)

    monkeypatch.setattr(powerlog, "witness_holds", counted)
    monkeypatch.setattr(zetas, "witness_holds", counted)
    assert cli.main(["fe-check", "--powers", "u^2 - 1"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_group_builds_its_group_once(capsys, monkeypatch):
    from f1zeta import groups

    builds = []

    def counted(degrees, name, build=groups.group_from_degrees):
        builds.append(name)
        return build(degrees, name)

    monkeypatch.setattr(groups, "group_from_degrees", counted)
    code, out = _run(capsys, "group", "--group", "GL:5")
    assert code == 0 and builds == ["GL(5)"]
    assert _identity_lines(out) == [f"identity\ttrue\t{label}" for label, _ in
                                    groups.verify_family_identities(5, "gl").results]


def test_group_expands_its_counting_polynomial_once(capsys, monkeypatch):
    # counting and zeta both read the function kept with the group
    from f1zeta import groups
    from f1zeta.powerlog import PowerLogSum

    calls = []

    def counted(coeffs, offset=0, step=1, expand=PowerLogSum.from_int_coefficients):
        calls.append(tuple(coeffs))
        return expand(coeffs, offset, step)

    # an empty table: no GL(5) held elsewhere in the process hides the expansion
    monkeypatch.setattr(groups, "_HELD", weakref.WeakValueDictionary())
    monkeypatch.setattr(PowerLogSum, "from_int_coefficients", staticmethod(counted))
    code, out = _run(capsys, "group", "--group", "GL:5")
    assert code == 0 and len(calls) == 1
    assert f"counting\t{groups.group_counting(groups.gl_group_data(5))}" in out.splitlines()


def _identity_lines(out):
    return [line for line in out.splitlines() if line.startswith("identity\t")]


@pytest.mark.parametrize("name", ["SL(2)", "GL(1)"])
def test_group_file_never_prints_identities(capsys, tmp_path, monkeypatch, name):
    # the file name, and in one case the name field, look like GL(1), but the file holds SL(2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gl:1.json").write_text(
        json.dumps({"rank": 1, "dimension": 3, "flag_betti": [1, 1], "name": name}))
    code, out = _run(capsys, "group", "--group", "gl:1.json")
    assert code == 0
    assert out.splitlines()[:3] == [f"group\t{name}", "counting\tu^3 - u", "zeta\t(s-1)/(s-3)"]
    assert _identity_lines(out) == []


@pytest.mark.parametrize("name", [" GL:2", "gl:2 ", " Gm:2 "])
def test_catalog_names_print_identities_in_any_case_and_spacing(capsys, name):
    canonical = "GL:2" if "l" in name.lower() else "Gm:2"
    _, want = _run(capsys, "group", "--group", canonical)
    code, out = _run(capsys, "group", "--group", name)
    assert code == 0 and out == want and len(_identity_lines(out)) == 3


def test_chevalley_catalog_groups(capsys):
    code, out = _run(capsys, "group", "--group", "E8")
    assert code == 0 and "fe\ttrue\tcenter\t368\tsign\t1" in out.splitlines()
    assert out.splitlines()[0] == "group\tE8" and _identity_lines(out) == []
    # B_n and C_n have the same Weyl degrees 2, 4, .., 2n
    counting = [[line for line in _run(capsys, "group", "--group", name)[1].splitlines()
                 if line.startswith("counting\t")] for name in ("B:3", "C:3")]
    assert counting[0] == counting[1] and len(counting[0]) == 1


@pytest.mark.parametrize("name, code, err", [
    ("E9", 2, "parse error: unknown group 'E9'"),
    ("A:0", 3, "precondition violated: A rank must be >= 1, got 0"),
])
def test_an_unknown_or_empty_catalog_name(capsys, name, code, err):
    assert cli.main(["group", "--group", name]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(err)


def test_limit_base_count_above_the_float_range_is_a_precondition_error(capsys, p1_scheme):
    code = cli.main(["limit", "--scheme", p1_scheme, "--s", "3", "--terms", "16"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "base count 16; at most 15 is supported" in captured.err


# -- scheme commands end in a documented exit on near-valid input ------------

_NEAR_POINT = st.fixed_dictionaries(
    {"rank": st.sampled_from((0, 1, 2, 5, 500, 501))},
    optional={"torsion": st.lists(st.sampled_from((1, 2, 3, 4, 12, 60, 97, 1000003, 999983, 10**18 + 3)),
                                  max_size=3)},
)
_NEAR_SCHEME = st.fixed_dictionaries(
    {"points": st.lists(_NEAR_POINT, max_size=4)},
    optional={"dimension": st.sampled_from((0, 3, 500, 501)), "smooth_projective": st.booleans()},
)
_NEAR_Q = st.sampled_from(("1", "2", "0", "-3", "7", "1024", str(7**40), str(2**64 + 1),
                           str(10**400), "2.5", "1e3", "x"))
_NEAR_P = st.sampled_from(("2", "5", "97", "4", "6", "9", "15", "1", "0", "-2", "-3", "2.5", "nan", "x"))
_NEAR_TERMS = st.sampled_from(("4", "1", "8", "15", "16", "500", "501", "0", "2.5"))
_NEAR_S = st.sampled_from(("2", "5/2", "3+1i", "1/2", "0", "1", "-1", "nan", "1e400", "x"))


def _assert_documented_exit(scheme, args, empty=False):
    """Run `args` in process, on `scheme` written as a file unless it is
    None: exit 0 or 4 reports on stdout alone, every other exit is 2, 3 or
    5 with a message under its prefix.  With `empty`, an exit 0 may print
    nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(args)
        if scheme is not None:
            path = Path(tmp) / "near.scheme"
            path.write_text(json.dumps(scheme))
            argv[1:1] = ["--scheme", str(path)]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a non-integer --q or --terms
                code = exc.code
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4, 5), (scheme, args, code)
    assert "Traceback" not in err.getvalue()
    assert elapsed < 5.0, (scheme, args, elapsed)
    if code in (0, 4):  # an identity-check failure prints its report
        assert err.getvalue() == ""
        assert out.getvalue().endswith("\n") or empty and code == 0 and out.getvalue() == ""
    else:
        assert err.getvalue().startswith(_STDERR_PREFIXES[code]), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_NEAR_SCHEME, st.one_of(st.tuples(st.just("count"), st.just("--q"), _NEAR_Q),
                               st.tuples(st.just("fourier"), st.just("--p"), _NEAR_P)))
def test_count_and_fourier_end_in_a_documented_exit(scheme, call):
    _assert_documented_exit(scheme, call)


@settings(max_examples=300, deadline=None)
@given(_NEAR_SCHEME,
       st.one_of(st.tuples(st.just("local"), st.just("--p"), _NEAR_P, st.just("--terms"), _NEAR_TERMS),
                 st.tuples(st.just("limit"), st.just("--s"), _NEAR_S, st.just("--terms"), _NEAR_TERMS),
                 st.tuples(st.just("zeta")),
                 st.tuples(st.just("fe-check")),
                 st.tuples(st.just("fe-check"), st.just("--p"), _NEAR_P)),
       st.sampled_from(("pretty", "records")))
def test_local_limit_zeta_and_fe_check_end_in_a_documented_exit(scheme, call, form):
    _assert_documented_exit(scheme, (*call, "--format", form))


# -- power-log commands end in a documented exit on near-valid input ---------

# exact data past float range, a zero denominator, irrational-free roots,
# a log term and two spellings of the zero sum
_NEAR_POWERS = ("u^1e400", "1e400*u + 1", "u^{1/0}", "u^{-1/3} - u^{1/3}", "u*log", "0", "u - u")


@pytest.mark.parametrize("form", ["pretty", "records"])
@pytest.mark.parametrize("powers", _NEAR_POWERS)
@pytest.mark.parametrize("command", ["dual", "epsilon", "zeta", "fe-check"])
def test_powers_commands_end_in_a_documented_exit(command, powers, form):
    # the records of the zero map are no lines at all
    empty = form == "records" and powers in ("0", "u - u")
    _assert_documented_exit(None, (command, "--powers", powers, "--format", form), empty)


def test_exact_data_past_float_range_is_a_tolerance_failure_only_where_floats_are_formed(capsys):
    # the epsilon residual evaluates the zeta in floats: exit 5 before any output
    code = cli.main(["epsilon", "--powers", "u^1e400"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "numeric failure: term exponent of about 2^1329 is beyond float range\n"
    # the dual is exact
    code, out = _run(capsys, "dual", "--powers", "u^1e400", "--format", "records")
    assert code == 0 and out == f"{-10**400}\t1\t0\t1\t1\n"
