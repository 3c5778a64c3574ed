"""The frozen value classes: construction, immutability, equality, hash
and repr of every class built on `powerlog._Record`, and the rule that
builds their tuples from lists."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from f1zeta import schemes
from f1zeta.errors import PreconditionError
from f1zeta.groups import (
    FamilyIdentityReport, ReductiveGroupData, group_functional_equation, sl2_group_data)
from f1zeta.powerlog import (
    FEReport, FunctionalEquationWitness, PowerLogSum, TermMap, _Record, witness_holds)
from f1zeta.regularize import LogZetaIntegral, SpectralValue, Spectrum, circle_spectrum
from f1zeta.scheme_zeta import BettiProfile, betti_profile, scheme_counting_function, zeta_of_scheme
from f1zeta.schemes import (
    FourierData, MonoidScheme, TorsionPoint, counting_coefficients, global_functional_equation,
    local_functional_equation, projective_space_model)
from f1zeta.weil import LocalZetaFactors, TruncatedSeries
from f1zeta.zetas import EpsilonFactor, FactoredZeta, verify_functional_equation

TERMS = ((Fraction(0), 0, Fraction(-1)), (Fraction(1), 0, Fraction(1)))
CIRCLE = circle_spectrum()

# per class: its fields in declaration order, with values its constructor keeps as given
RECORDS = [
    (TermMap, {"terms": TERMS}),
    (PowerLogSum, {"terms": TERMS}),
    (FactoredZeta, {"terms": TERMS}),
    (FunctionalEquationWitness, {"c": -1, "omega": Fraction(1)}),
    (FEReport, {"holds": False, "center": 1, "sign": 1, "chi": 2, "asymmetries": ((0, 1, 2),)}),
    (TorsionPoint, {"rank": 1, "torsion_orders": (2, 3)}),
    (MonoidScheme, {"runs": ((TorsionPoint(1), 1), (TorsionPoint(0), 2)), "dimension": 1,
                    "smooth_projective": True, "name": "P1"}),
    (FourierData, {"prime": 2, "period": 2, "entries": ((0, 0, 3, (Fraction(2), Fraction(-1))),)}),
    (ReductiveGroupData, {"rank": 1, "dimension": 3, "flag_betti": (1, 1), "name": "SL2"}),
    (FamilyIdentityReport, {"family": "GL", "rank": 2, "results": (("fe", True),)}),
    (TruncatedSeries, {"coefficients": (1, 3)}),
    (LocalZetaFactors, {"base": 2, "factors": ((0, -1), (1, -1))}),
    (BettiProfile, {"values": (1, 1), "dimension": 1, "warning": None}),
    (EpsilonFactor, {"sign": 1, "numeric_residual": 0.0, "sample_points": (1.5 + 0.7j,)}),
    (LogZetaIntegral, {"value": 0.5 + 0j, "error_estimate": 1e-15}),
    (Spectrum, {"name": "circle", "eigenvalues": CIRCLE.eigenvalues,
                "continued_tail": CIRCLE.continued_tail, "continued_slope": CIRCLE.continued_slope,
                "shift": 0.25}),
    (SpectralValue, {"value": 1.5 + 0j, "error_bound": 1e-14, "terms_used": 48}),
]


# the report each domain's functional-equation check returns, under the name
# of the class that domain had before one FEReport served all four
FE_DOMAINS = {
    "GroupFEReport": group_functional_equation(sl2_group_data()),
    "LocalFEReport": local_functional_equation(projective_space_model(1), 2),
    "GlobalFEReport": global_functional_equation(
        MonoidScheme(((TorsionPoint(0), 1), (TorsionPoint(1), 2)), 1, True)),
    "ZetaFEReport": verify_functional_equation(
        PowerLogSum.power(1) + PowerLogSum.constant(1), FunctionalEquationWitness(1, Fraction(1))),
}
FE_ROWS = [(FEReport, {name: getattr(report, name) for name in FEReport._fields})
           for report in FE_DOMAINS.values()]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_listed():
    for layer in ("groups", "regularize", "scheme_zeta", "schemes", "weil", "zetas"):
        importlib.import_module(f"f1zeta.{layer}")
    listed = [cls for cls, _ in RECORDS]
    assert len(listed) == len(set(listed)) == 17
    assert {c for c in _subclasses(_Record) if c.__module__.startswith("f1zeta.")} == set(listed)


@pytest.mark.parametrize("cls,fields", RECORDS + FE_ROWS,
                         ids=[cls.__name__ for cls, _ in RECORDS] + list(FE_DOMAINS))
def test_value_class_semantics(cls, fields):
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    assert by_name == by_position and not by_name != by_position
    assert hash(by_name) == hash(by_position) == hash(tuple(fields.values()))
    assert [getattr(by_name, name) for name in fields] == list(fields.values())
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_name) == f"{cls.__name__}({shown})"
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(by_name, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(by_name, name)
    assert [getattr(by_name, name) for name in fields] == list(fields.values())
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)


def test_records_with_a_different_field_differ():
    assert TorsionPoint(1) != TorsionPoint(2)
    assert SpectralValue(1.0, 0.5, 3) != SpectralValue(1.0, 0.5, 4)
    assert MonoidScheme((TorsionPoint(0),)) != MonoidScheme((TorsionPoint(0),), name="pt")
    assert FunctionalEquationWitness(1, Fraction(2)) != FunctionalEquationWitness(-1, Fraction(2))


def test_reprs_read_like_constructor_calls():
    assert repr(TorsionPoint(1, (2,))) == "TorsionPoint(rank=1, torsion_orders=(2,))"
    assert repr(PowerLogSum()) == "PowerLogSum(terms=())"
    assert repr(SpectralValue(1.0, 0.5, 3)) == "SpectralValue(value=1.0, error_bound=0.5, terms_used=3)"


def test_defaults_fill_omitted_fields():
    scheme = MonoidScheme((TorsionPoint(0),))
    assert (scheme.dimension, scheme.smooth_projective, scheme.name) == (None, False, "")
    assert TorsionPoint(2).torsion_orders == ()
    assert FourierData(2, 1).entries == ()
    assert Spectrum("s", CIRCLE.eigenvalues, CIRCLE.continued_tail, CIRCLE.continued_slope).shift == 0.0
    assert PowerLogSum() == PowerLogSum(()) == PowerLogSum.zero()
    with pytest.raises(TypeError, match="missing argument 'dimension'"):
        ReductiveGroupData(1)


def test_post_init_validates_and_normalizes():
    with pytest.raises(PreconditionError):
        TorsionPoint(-1)
    with pytest.raises(PreconditionError):
        TorsionPoint(0, (1,))
    with pytest.raises(PreconditionError):
        TruncatedSeries((2,))
    with pytest.raises(PreconditionError):
        MonoidScheme(())
    with pytest.raises(PreconditionError):
        ReductiveGroupData(1, 2, (1,))
    # an int that is not a bool, as the file readers ask; never truncated
    for build, field in (
        (lambda: TorsionPoint(0, (2.7,)), "a torsion order"),
        (lambda: TorsionPoint(0, (True,)), "a torsion order"),
        (lambda: TorsionPoint(1.5), "rank"),
        (lambda: TorsionPoint(True), "rank"),
        (lambda: ReductiveGroupData(1, 3, (1.9, 1.2)), "a flag Betti number"),
        (lambda: ReductiveGroupData(1, 3, (True, 1)), "a flag Betti number"),
        (lambda: ReductiveGroupData(1.0, 3, (1, 1)), "rank"),
        (lambda: ReductiveGroupData(1, 3.0, (1, 1)), "dimension"),
        (lambda: MonoidScheme((TorsionPoint(0),), dimension=1.5), "dimension"),
        (lambda: MonoidScheme((TorsionPoint(0),), dimension=False), "dimension"),
        (lambda: TruncatedSeries((1, Fraction(2))), "ints"),
        (lambda: TruncatedSeries((True, 2)), "ints"),
        (lambda: TruncatedSeries(()), "ints"),
    ):
        with pytest.raises(PreconditionError, match=field):
            build()
    assert TorsionPoint(0, [3]).torsion_orders == (3,)
    assert MonoidScheme([TorsionPoint(0)]).points == (TorsionPoint(0),)
    assert TruncatedSeries([1, 2]).coefficients == (Fraction(1), Fraction(2))


def test_term_maps_of_different_classes_never_compare_equal():
    assert PowerLogSum(TERMS) != FactoredZeta(TERMS)
    assert not PowerLogSum(TERMS) == FactoredZeta(TERMS)
    assert PowerLogSum(TERMS) != TermMap(TERMS)
    assert PowerLogSum(TERMS) != TERMS


def test_cached_properties_cache_on_frozen_instances(monkeypatch):
    scheme = MonoidScheme((TorsionPoint(1), TorsionPoint(0), TorsionPoint(0)))
    shown = (hash(scheme), repr(scheme))
    assert scheme.count_profile is scheme.count_profile
    assert scheme.count_profile == ((), ((1, ((1, ()),), 1), (0, ((2, ()),), 0)))
    assert counting_coefficients(scheme) is counting_coefficients(scheme) == (1, 1)
    # the scheme keeps its counting function: two calls return one object
    counting = scheme_counting_function(scheme)
    assert counting is scheme_counting_function(scheme)
    assert counting == PowerLogSum.from_int_coefficients(counting_coefficients(scheme))
    # a cached value is not a field: equality, hash and repr stay as they were
    assert scheme == MonoidScheme(scheme.runs) and (hash(scheme), repr(scheme)) == shown
    # the zeta, the Betti profile and both functional equations read one
    # vector, built once: one binomial row per occupied rank
    rows = []
    real = schemes._binomial_row
    monkeypatch.setattr(schemes, "_binomial_row", lambda r: rows.append(r) or real(r))
    line = MonoidScheme(scheme.points, smooth_projective=True)
    zeta_of_scheme(line)
    betti_profile(line)
    assert global_functional_equation(line).holds and local_functional_equation(line, 3).holds
    assert rows == [1, 0]
    group = ReductiveGroupData(1, 3, (1, 1), "SL2")
    assert group.coefficients is group.coefficients == (-1, 0, 1)
    # nor are a group's cached coefficients
    assert group == ReductiveGroupData(1, 3, (1, 1), "SL2")
    assert repr(group) == "ReductiveGroupData(rank=1, dimension=3, flag_betti=(1, 1), name='SL2')"
    # nor is the witness a term map keeps once it holds
    counting = PowerLogSum.from_int_coefficients((1, 0, -1))
    shown = (hash(counting), repr(counting))
    assert witness_holds(counting, FunctionalEquationWitness(-1, Fraction(2)))
    assert counting.__dict__["_mirror"] == (-1, 2, 1)
    assert counting == PowerLogSum.from_int_coefficients((1, 0, -1))
    assert (hash(counting), repr(counting)) == shown


def test_a_class_is_checked_when_it_is_created():
    with pytest.raises(TypeError, match="without a default follows"):
        class Unordered(_Record):
            a: int = 0
            b: int

    with pytest.raises(TypeError, match="must take the fields"):
        class Mismatched(_Record):
            a: int
            b: int = 1

            def __init__(self, a, b=2):
                self.__dict__["a"], self.__dict__["b"] = a, b

    class Extended(TorsionPoint):
        label: str = ""

    assert Extended(1, (2,), "x").label == "x"
    assert repr(Extended(1)) == f"{Extended.__qualname__}(rank=1, torsion_orders=(), label='')"
    with pytest.raises(PreconditionError):
        Extended(-1)


def test_no_call_star_unpacks_a_generator():
    # f(*gen) grows its argument tuple from the generator by repeated
    # reallocation, churn that raises resident memory over many calls; the
    # rule at TermMap builds such tuples from lists
    root = Path(schemes.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and any(isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)
                     for arg in node.args)]
    assert found == []
