"""Sampling and Kantorovich neural network operators with sigmoidal kernels.

The library implements six fixed-formula approximation operators (linear,
max-product, and max-min families, each in a sampling and a Kantorovich
variant), the kernel machinery behind them, node data from functions and
sampled traces on any interval (:mod:`nnops.quadrature`), error metrology
(L^p norms for 1 <= p <= inf in :func:`lp_error`, modulus of continuity,
absolute moments, rate fits, and the a priori bounds of the max-min operator
in :func:`apriori_bounds`), and signal utilities for denoising experiments.
"""

from .kernels import (
    DegenerateKernelError,
    Kernel,
    absolute_moment,
    eval_kernel,
    make_kernel,
    phi_floor,
)
from .metrics import (
    apriori_bounds,
    fit_rate,
    kfunctional_upper,
    lp_error,
    modulus_of_continuity,
    rate_exponent_holder,
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
)
from .quadrature import (
    QuadratureRule,
    cell_averages_exact,
    cell_averages_sampled,
    pairmean_order,
    sample_node_values,
)
from .signals import (
    PiecewiseConstant,
    Signal,
    add_gaussian_noise,
    holder_test_function,
    load_signal_csv,
    normalize_to_unit,
    sample_function,
    step_test_function,
)

__version__ = "0.1.0"
