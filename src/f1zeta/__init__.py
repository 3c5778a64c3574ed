"""Exact and numerical zeta functions over the one-element base.

Point data of monoid schemes, exact power-log counting functions,
factored zeta functions with exact functional-equation checks, and the
two-variable regularization that defines them, including regularized
determinants of explicit Laplacian spectra.

The names below are loaded on first access (PEP 562), so `import f1zeta`
loads no layer module and each use loads only the layers it needs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": "ConvergenceError F1ZetaError ParseError PreconditionError SingularityError",
    "powerlog": "FEReport FunctionalEquationWitness PowerLogSum detect_functional_equation "
    "parse_power_log product_of_reciprocal_powers witness_holds",
    "schemes": "FourierData MonoidScheme TorsionPoint counting_coefficients exact_count "
    "f1_point fourier_data fourier_period gcd_fourier_coefficients gcd_inner_fourier "
    "global_functional_equation load_scheme local_functional_equation projective_space_model "
    "smoothed_count torsion_point_model torus_model totient",
    "scheme_zeta": "BettiProfile betti_profile scheme_counting_function zeta_of_scheme",
    "weil": "LocalZetaFactors TruncatedSeries default_base_sequence limit_toward_one "
    "local_zeta_series pole_order smoothed_local_zeta",
    "zetas": "EpsilonFactor FactoredZeta epsilon_factor evaluate_zeta pretty_zeta "
    "reflect_zeta verify_functional_equation zeta_of",
    "groups": "ReductiveGroupData gl_group_data group_counting group_from_degrees group_from_name "
    "group_functional_equation group_zeta torus_counting torus_group_data "
    "verify_family_identities",
    "regularize": "Spectrum circle_spectrum log_regularized_det log_zeta_integral "
    "regularized_det shift_spectrum spectral_zeta spectrum_by_name two_variable_zeta_closed "
    "two_variable_zeta_numeric zeta_from_regularization",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """An exported name, loaded from its module and cached here; or a
    submodule, loaded on first access."""
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
