"""Numerical toolkit for regularized Fourier-Wiener transforms of planar
self-intersection local time."""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    DegenerateConfigurationError,
    GridMismatchError,
    SiltError,
    ValidationError,
)
from .function_space import (
    Grid,
    GridFunction,
    KernelOperator,
    inner,
    make_grid,
    operator_norm,
    parse_function,
)
from .gram import (
    GramDecomposition,
    TimeTuple,
    decompose,
    projection_norm_sq,
)
from .nondeterminism import (
    SLNDReport,
    berman_scan,
    berman_stat,
    point_projection_norm_sq,
    projection_decay,
    slnd_ratio,
    slnd_scan,
)
from .process_models import (
    ProcessModel,
    counterexample_model,
    parse_model,
    perturbed_model,
    sturm_liouville_model,
    sturm_liouville_operator,
    wiener_model,
)
from .quadrature import QuadratureSpec, RegularizedValue
from .regularization import (
    divergence_probe,
    iterated_bound_check,
    product_form_wiener,
    regularized_integral,
    regularized_integrand,
    schur_bound_check,
)
from .transform import TransformPoint, fw_eps, fw_limit, fw_wiener, mc_fw_estimate
