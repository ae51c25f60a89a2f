"""The experiments, one implementation each, as pure functions.

:func:`error_table` (the L^p error table of the Kantorovich families on the
step function), :func:`denoise_sweep` (L1 distances of the denoising
operators over noise seeds, and the first seed's outputs on a grid) and
:func:`rate_sweep` (errors of one operator over n, with the a priori bound at
each n where one is stated) return frozen dataclasses.  Node values come from
:func:`nnops.quadrature.node_data` and every error, sup norm included, from
:func:`nnops.metrics.lp_error`.  The CLI and the acceptance tests only parse
arguments and format these results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import DegenerateKernelError, Kernel
from .metrics import apriori_bounds, fit_rate, lp_error, rate_exponent_holder
from .operators import Domain, NodeData, OperatorSpec, eval_grid, node_bounds
from .quadrature import QuadratureRule, node_data, pairmean_order
from .signals import (
    Signal,
    add_gaussian_noise,
    sample_function,
    step_test_function,
)

#: column order of the error table
TABLE_FAMILIES = ("linear", "maxmin", "maxprod")


def _operator(spec: OperatorSpec, data: NodeData):
    """The operator as a callable on grids, the form the norms take."""
    return functools.partial(eval_grid, spec, data)


def _fitted_rate(n_values, errors) -> float | None:
    """:func:`fit_rate` once 3+ errors exist, all positive; None before."""
    if len(errors) >= 3 and all(e > 0.0 for e in errors):
        return fit_rate(n_values, errors)
    return None


@dataclass(frozen=True)
class ErrorTable:
    """Errors over ``n_values`` and their fitted rates, keyed by family."""

    n_values: tuple[int, ...]
    errors: dict[str, tuple[float, ...]]
    rates: dict[str, float | None]

    def rows(self):
        """Yield (n, errors in TABLE_FAMILIES order) for each n."""
        return zip(self.n_values, zip(*(self.errors[fam] for fam in TABLE_FAMILIES)))


def error_table(kernel: Kernel, n_values, p: float, domain: Domain,
                grid_points: int) -> ErrorTable:
    """L^p errors of the three Kantorovich operators on the step function
    over ``domain`` from exact cell averages; a family's rate is fitted once
    3+ n exist."""
    f = step_test_function(domain)
    errors: dict[str, list[float]] = {fam: [] for fam in TABLE_FAMILIES}
    for n in n_values:
        specs = [OperatorSpec(fam, "kantorovich", n, domain, kernel) for fam in TABLE_FAMILIES]
        data = node_data(f, specs[0])
        for spec in specs:
            errors[spec.family].append(lp_error(_operator(spec, data), f, p, domain, grid_points))
    rates = {fam: _fitted_rate(n_values, errs) for fam, errs in errors.items()}
    return ErrorTable(tuple(n_values), {fam: tuple(e) for fam, e in errors.items()}, rates)


@dataclass(frozen=True)
class DenoiseSweep:
    """L1 distance to the clean signal of each denoising operator per seed,
    the operator order ``n``, and the first seed's noisy signal and operator
    outputs on the grid (``curves``)."""

    seeds: tuple[int, ...]
    l1: dict[str, tuple[float, ...]]  # kant_maxmin, samp_maxmin, kant_maxprod
    n: int
    curves: dict[str, np.ndarray]  # x, noisy, then the keys of l1

    @property
    def wins(self) -> int:
        """Seeds on which Kantorovich max-min is at least as close as
        sampling max-min (``maxprod_wins``: as Kantorovich max-product)."""
        return self._wins("samp_maxmin")

    @property
    def maxprod_wins(self) -> int:
        return self._wins("kant_maxprod")

    def _wins(self, rival: str) -> int:
        return sum(k <= r for k, r in zip(self.l1["kant_maxmin"], self.l1[rival]))


def denoise_sweep(trace: Signal | None, domain: Domain, n: int | None, kernel: Kernel,
                  rule: QuadratureRule, sigma: float, seeds,
                  grid_points: int) -> DenoiseSweep:
    """Add N(0, sigma^2) noise to ``trace`` with each seed and measure in L1
    over ``grid_points`` cells how close Kantorovich max-min, sampling max-min
    and Kantorovich max-product come to the un-noised trace; ``curves`` holds
    the inclusive uniform grid of ``grid_points`` points (``x``) and the first
    seed's noisy trace and outputs there.  ``n`` defaults to 2000, or to
    :func:`pairmean_order` for a trace under the ``pairmean`` rule.  Without a
    trace, the reference is the step on ``domain`` and the noised trace its
    samples at 2 (``pairmean``) or the rule's refinement points per
    Kantorovich cell of order n."""
    if not seeds:
        raise ValueError("need at least one noise seed")
    if n is None:
        pairmean = trace is not None and rule.kind == "pairmean"
        n = pairmean_order(len(trace), trace.domain) if pairmean else 2000
    clean = trace
    if trace is None:
        clean = step_test_function(domain)
        k_lo, k_hi = node_bounds("kantorovich", n, domain)
        cells = k_hi - k_lo + 1
        per_cell = 2 if rule.kind == "pairmean" else rule.refinement
        if cells * per_cell < 2:
            raise ValueError(f"n={n} under {rule.kind}:{rule.refinement} samples the step "
                             f"at {cells * per_cell} point ({cells} cell x {per_cell}); "
                             f"need at least 2 samples")
        trace = sample_function(clean, domain, cells * per_cell)

    kant_maxmin, samp_maxmin, kant_maxprod = (
        OperatorSpec(family, mode, n, trace.domain, kernel) for family, mode in
        (("maxmin", "kantorovich"), ("maxmin", "sampling"), ("maxprod", "kantorovich")))
    xs = np.linspace(trace.domain.a, trace.domain.b, grid_points)
    l1: dict[str, list[float]] = {}
    curves: dict[str, np.ndarray] = {}
    for seed in seeds:
        noisy = add_gaussian_noise(trace, sigma, seed)
        kant = node_data(noisy, kant_maxmin, rule)  # the Kantorovich pair shares it
        ops = {
            "kant_maxmin": _operator(kant_maxmin, kant),
            "samp_maxmin": _operator(samp_maxmin, node_data(noisy, samp_maxmin)),
            "kant_maxprod": _operator(kant_maxprod, kant),
        }
        if not curves:
            curves = {"x": xs, "noisy": noisy(xs), **{name: op(xs) for name, op in ops.items()}}
        for name, op in ops.items():
            l1.setdefault(name, []).append(lp_error(op, clean, 1.0, trace.domain, grid_points))
    return DenoiseSweep(tuple(seeds), {name: tuple(v) for name, v in l1.items()}, n, curves)


@dataclass(frozen=True)
class RateSweep:
    """L^p errors of one operator over n with their fitted rate, the exponent
    theory predicts for a Hoelder function, and the a priori bounds in the same
    norm (None where none apply; ``no_bound`` says why if past the float range)."""

    operator: str
    p: float
    n_values: tuple[int, ...]
    errors: tuple[float, ...]
    fitted_rate: float | None
    theoretical_exponent: float | None
    bounds: tuple[float, ...] | None
    no_bound: str | None = None


def rate_sweep(label: str, f, family: str, mode: str, kernel: Kernel, domain: Domain,
               n_values, p: float, grid_points: int, beta: float | None) -> RateSweep:
    """Error of the ``family``/``mode`` operator on ``f`` at each n, reported
    under ``label`` with the fitted log-log rate, for a Hoelder-``beta``
    function the theoretical exponent -(1+alpha) beta / (1+alpha+beta), and
    the a priori bounds.  The bound formulas are stated for the Kantorovich
    max-min operator and divide by phi(2), so other operators, and compact
    kernels with phi(2) = 0, get none."""
    errors = []
    for n in n_values:
        spec = OperatorSpec(family, mode, n, domain, kernel)
        errors.append(lp_error(_operator(spec, node_data(f, spec)), f, p, domain, grid_points))
    theoretical = None if beta is None else -rate_exponent_holder(kernel.alpha, beta)
    fitted = _fitted_rate(n_values, errors)
    bounds = no_bound = None
    if (family, mode) == ("maxmin", "kantorovich"):
        try:
            bounds = apriori_bounds(f, kernel, domain, n_values, p)
        except DegenerateKernelError:  # phi(2) = 0
            pass
        except ValueError as exc:  # a constant of the bound is past the float range
            no_bound = str(exc)
    return RateSweep(label, p, tuple(n_values), tuple(errors), fitted, theoretical, bounds,
                     no_bound)
