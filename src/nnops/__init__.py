"""Sampling and Kantorovich neural network operators with sigmoidal kernels.

The library implements six fixed-formula approximation operators (linear,
max-product, and max-min families, each in a sampling and a Kantorovich
variant), the kernel machinery behind them, error metrology (L^p norms,
modulus of continuity, absolute moments, rate fits, K-functional bounds),
and signal utilities for denoising experiments.
"""

from .kernels import (
    DegenerateKernelError,
    Kernel,
    Sigmoid,
    absolute_moment,
    eval_kernel,
    kernel_to_json,
    make_kernel,
    partition_of_unity_defect,
    phi_floor,
)
from .metrics import (
    ErrorReport,
    KFunctionalConstants,
    KFunctionalEstimate,
    alternative_b,
    fit_rate,
    kantorovich_rate,
    kfunctional_constants,
    kfunctional_upper,
    lp_error,
    make_error_report,
    modulus_of_continuity,
    rate_exponent_holder,
    sup_error,
    sup_error_bound,
)
from .operators import (
    Domain,
    EmptyRangeError,
    NodeData,
    OperatorSpec,
    ZeroDenominatorError,
    brute_force_eval,
    eval_grid,
    eval_operator,
    node_bounds,
    node_range,
    sample_node_values,
)
from .quadrature import (
    QuadratureRule,
    SignalTooCoarseError,
    cell_averages_exact,
    cell_averages_sampled,
    pairmean_order,
)
from .signals import (
    DegenerateRangeError,
    PiecewiseConstant,
    Signal,
    SignalParseError,
    TooFewSamplesError,
    add_gaussian_noise,
    denormalize,
    holder_test_function,
    load_signal_csv,
    normalize_to_unit,
    sample_function,
    signal_to_csv,
    step_test_function,
    synthetic_ecg,
    write_signal_csv,
)

__version__ = "0.1.0"
