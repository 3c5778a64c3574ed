"""Fresh-process start-up: `import f1zeta` loads no layer module, each
subcommand loads only its own layers, no subcommand and no numeric
integral ever loads scipy or numpy, no subcommand loads `dataclasses` or
`inspect`, and a subcommand that reads no file does not load `json`."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import f1zeta
from f1zeta import cli
from f1zeta.schemes import projective_space_model, scheme_to_dict

SRC = os.path.dirname(os.path.dirname(os.path.abspath(f1zeta.__file__)))

CLI_CHILD = """
import sys
from f1zeta import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print("loaded=" + ",".join(m for m in ("scipy", "numpy", "dataclasses", "inspect", "json")
                           if m in sys.modules), file=sys.stderr)
print("layers=" + ",".join(sorted(m[7:] for m in sys.modules if m.startswith("f1zeta."))),
      file=sys.stderr)
sys.exit(code)
"""

IMPORT_CHILD = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(",".join(sorted(m for m in sys.modules if m.startswith("f1zeta."))) or "-")
"""

NUMERIC_CHILD = """
import cmath, sys
from f1zeta.powerlog import parse_power_log
from f1zeta.regularize import log_zeta_integral, two_variable_zeta_closed, two_variable_zeta_numeric
from f1zeta.zetas import evaluate_zeta, zeta_of
assert "scipy" not in sys.modules
n = parse_power_log("u^2 - 2*u*log + 1")
w, s = 0.7 + 0.2j, 3.5 - 1j
numeric = two_variable_zeta_numeric(n, w, s)
closed = two_variable_zeta_closed(n, w, s)
n0 = parse_power_log("1 - u^-1")
inv = cmath.exp(-log_zeta_integral(n0, 3 + 1j).value)
print(abs(numeric - closed) / abs(closed))
print(abs(inv * evaluate_zeta(zeta_of(n0), 3 + 1j) - 1))
print(",".join(m for m in ("scipy", "numpy") if m in sys.modules) or "-")
"""


def _fresh(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """`python *args` in a fresh process that imports f1zeta from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout, check=False)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    p1 = root / "p1.scheme"
    p1.write_text(json.dumps(scheme_to_dict(projective_space_model(1))))
    torsion = root / "t.scheme"
    torsion.write_text(json.dumps({"points": [{"rank": 0, "torsion": [3]}]}))
    return {"p1": str(p1), "torsion": str(torsion)}


CASES = [
    ("count", "--scheme", "{p1}", "--q", "5"),
    ("fe-check", "--scheme", "{p1}"),
    ("zeta", "--group", "GL:2"),
    ("local", "--scheme", "{p1}", "--p", "2", "--terms", "3"),
    ("limit", "--scheme", "{p1}", "--s", "3", "--terms", "3"),
    ("dual", "--powers", "u - 1"),
    ("epsilon", "--powers", "1*u^2"),
    ("group", "--group", "SL2"),
    ("regdet", "--spectrum", "circle", "--s", "1"),
    ("fourier", "--scheme", "{torsion}", "--p", "2"),
]


# the f1zeta modules each CASES row loads, besides cli and errors
LAYERS = {
    "count": "powerlog schemes",
    "fe-check": "powerlog schemes",
    "zeta": "groups powerlog zetas",
    "local": "powerlog schemes weil",
    "limit": "powerlog scheme_zeta schemes weil zetas",
    "dual": "powerlog",
    "epsilon": "powerlog zetas",
    "group": "groups powerlog zetas",
    "regdet": "powerlog regularize",
    "fourier": "powerlog schemes",
}


def test_cases_cover_every_subcommand():
    assert sorted(case[0] for case in CASES) == sorted(cli._HANDLERS) == sorted(LAYERS)


def _run_case(inputs, argv) -> dict[str, list[str]]:
    """The child's closing stderr lines: which of the watched modules
    (scipy, numpy, dataclasses, inspect, json) and which f1zeta layers it
    loaded."""
    proc = _fresh("-c", CLI_CHILD, *(arg.format(**inputs) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    lines = proc.stderr.strip().splitlines()[-2:]
    return {key: [m for m in value.split(",") if m] for key, value in (line.split("=", 1) for line in lines)}


@pytest.fixture(scope="module")
def child(inputs):
    """`_run_case`, run once per CASES row for all the tests below."""
    runs: dict[str, dict[str, list[str]]] = {}

    def run(argv):
        if argv[0] not in runs:
            runs[argv[0]] = _run_case(inputs, argv)
        return runs[argv[0]]

    return run


@pytest.mark.parametrize("argv", CASES, ids=[case[0] for case in CASES])
def test_subcommand_starts_without_scipy_or_numpy(child, argv):
    loaded = [m for m in child(argv)["loaded"] if m in ("scipy", "numpy")]
    assert loaded == [], f"{argv[0]} {loaded}"


@pytest.mark.parametrize("argv", CASES, ids=[case[0] for case in CASES])
def test_subcommand_loads_neither_dataclasses_nor_inspect(child, argv):
    loaded = [m for m in child(argv)["loaded"] if m in ("dataclasses", "inspect")]
    assert loaded == [], f"{argv[0]} {loaded}"


@pytest.mark.parametrize("argv", [case for case in CASES if not any("{" in arg for arg in case)],
                         ids=lambda case: case[0])
def test_subcommand_without_input_files_loads_no_json(child, argv):
    assert "json" not in child(argv)["loaded"]


@pytest.mark.parametrize("argv", CASES, ids=[case[0] for case in CASES])
def test_subcommand_loads_only_its_layers(child, argv):
    assert child(argv)["layers"] == sorted(["cli", "errors", *LAYERS[argv[0]].split()])


def test_numeric_integrals_never_load_scipy_or_numpy():
    proc = _fresh("-c", NUMERIC_CHILD)
    assert proc.returncode == 0, proc.stderr
    rel_two_variable, rel_log_integral, loaded = proc.stdout.split()
    assert float(rel_two_variable) < 1e-9
    assert float(rel_log_integral) < 1e-8
    assert loaded == "-"


def test_import_loads_no_layer_module():
    proc = _fresh("-c", IMPORT_CHILD, "f1zeta")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "-"


def test_zetas_loads_no_numeric_layer():
    proc = _fresh("-c", IMPORT_CHILD, "f1zeta.zetas")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "f1zeta.errors,f1zeta.powerlog,f1zeta.zetas"


def test_exported_names_are_the_module_objects():
    for name in f1zeta.__all__:
        module = importlib.import_module(f"f1zeta.{f1zeta._MODULE_OF[name]}")
        assert getattr(f1zeta, name) is getattr(module, name), name
    from f1zeta import PowerLogSum, zetas

    assert PowerLogSum is f1zeta.powerlog.PowerLogSum
    assert zetas is importlib.import_module("f1zeta.zetas")
    assert f1zeta.log_zeta_integral is f1zeta.regularize.log_zeta_integral
    assert f1zeta.schemes.scheme_from_dict is importlib.import_module("f1zeta.schemes").scheme_from_dict
    assert set(f1zeta.__all__) <= set(dir(f1zeta))
    for missing in ("shift_zeta", "power_zeta", "multiply_zeta", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(f1zeta, missing)
