"""Exact and numerical zeta functions over the one-element base.

Point data of monoid schemes, exact power-log counting functions,
factored zeta functions with exact functional-equation checks, and the
two-variable regularization that defines them, including regularized
determinants of explicit Laplacian spectra.
"""

from .errors import (
    ConvergenceError,
    F1ZetaError,
    ParseError,
    PreconditionError,
    SingularityError,
)
from .powerlog import (
    FunctionalEquationWitness,
    PowerLogSum,
    detect_functional_equation,
    parse_power_log,
    product_of_reciprocal_powers,
    witness_holds,
)
from .schemes import (
    FourierData,
    MonoidScheme,
    TorsionPoint,
    counting_coefficients,
    exact_count,
    f1_point,
    fourier_data,
    fourier_period,
    gcd_fourier_coefficients,
    gcd_inner_fourier,
    load_scheme,
    projective_space_model,
    smoothed_count,
    torsion_point_model,
    torus_model,
    totient,
)
from .scheme_zeta import (
    BettiProfile,
    betti_profile,
    global_functional_equation,
    scheme_counting_function,
    zeta_of_scheme,
)
from .weil import (
    LocalZetaFactors,
    TruncatedSeries,
    default_base_sequence,
    limit_toward_one,
    local_functional_equation,
    local_zeta_series,
    pole_order,
    smoothed_local_zeta,
)
from .zetas import (
    EpsilonFactor,
    FactoredZeta,
    epsilon_factor,
    evaluate_zeta,
    log_zeta_integral,
    multiply_zeta,
    power_zeta,
    pretty_zeta,
    reflect_zeta,
    shift_zeta,
    verify_functional_equation,
    zeta_of,
)
from .groups import (
    ReductiveGroupData,
    gl_group_data,
    group_counting,
    group_from_name,
    group_functional_equation,
    group_zeta,
    sl2_group_data,
    torus_counting,
    torus_group_data,
    verify_family_identities,
)
from .regularize import (
    Spectrum,
    circle_spectrum,
    log_regularized_det,
    regularized_det,
    shift_spectrum,
    spectral_zeta,
    spectrum_by_name,
    two_variable_zeta_closed,
    two_variable_zeta_numeric,
    zeta_from_regularization,
)

__version__ = "0.1.0"
