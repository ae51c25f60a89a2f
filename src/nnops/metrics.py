"""Error norms, modulus of continuity, convergence rates, and a priori bounds.

:func:`lp_error` is the one norm of the measured errors: it decides which
grid measures which p, the sup norm included.  Everything here works on
plain callables that accept an ndarray of points in the domain (operator
outputs are wrapped the same way), so measured errors and theoretical bound
evaluations share one vocabulary.  :func:`apriori_bounds` is the one place
that states the a priori bounds of the Kantorovich max-min operator, with
their delta_n.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import DegenerateKernelError, Kernel, absolute_moment, phi_floor
from .operators import Domain


def _check_grid(grid_points: int) -> None:
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")


def _lp_norm(diff: np.ndarray, p: float, dx: float) -> float:
    """(sum |diff|^p dx)^(1/p) for finite p and diff >= 0.  Where the plain
    sum underflows to 0 or overflows, as it does at large p, max |diff| is
    factored out of it."""
    total = float((diff**p).sum() * dx)
    if total == 0.0 or total == math.inf:
        top = float(diff.max())
        if 0.0 < top < math.inf:
            return top * float(((diff / top) ** p).sum() * dx) ** (1.0 / p)
    return total ** (1.0 / p)


def lp_error(g, h, p: float, domain: Domain, grid_points: int = 100_000) -> float:
    """The L^p distance of g and h on [a, b], for 1 <= p <= inf.

    Finite p: (integral over [a, b] of |g - h|^p)^(1/p) by the composite
    midpoint rule on ``grid_points`` cells; the integrand of the operator
    experiments is piecewise smooth with O(n) kinks, which 1e5 cells resolve
    to published precision.  p = inf: the max of |g - h| over the inclusive
    uniform grid of ``grid_points`` points, end points included.
    """
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    _check_grid(grid_points)
    if math.isinf(p):
        xs = np.linspace(domain.a, domain.b, grid_points)
    else:
        xs = domain.a + (np.arange(grid_points) + 0.5) * (domain.width / grid_points)
    diff = np.abs(np.asarray(g(xs), dtype=float) - np.asarray(h(xs), dtype=float))
    if math.isinf(p):
        return float(diff.max())
    return _lp_norm(diff, p, domain.width / grid_points)


def modulus_of_continuity(
    f, delta: float, domain: Domain, grid_points: int = 2001
) -> float:
    """Largest oscillation sup |f(x) - f(y)| over grid pairs with |x-y| <= delta."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    _check_grid(grid_points)
    xs = np.linspace(domain.a, domain.b, grid_points)
    fs = np.asarray(f(xs), dtype=float)
    h = domain.width / (grid_points - 1)
    max_off = min(grid_points - 1, int(delta / h + 1e-12))
    best = 0.0
    for j in range(1, max_off + 1):
        best = max(best, float(np.abs(fs[j:] - fs[:-j]).max()))
    return best


def rate_exponent_holder(alpha: float, beta: float) -> float:
    """Sup-error decay exponent (1+alpha)*beta / (1+alpha+beta) for
    Hoelder-beta functions under a kernel of tail exponent alpha."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    return (1.0 + alpha) * beta / (1.0 + alpha + beta)


def kfunctional_upper(f, delta: float, p: float, domain: Domain, alpha: float) -> float:
    """Upper estimate of the K-functional K(f, delta)_p.

    The true infimum over C^1 candidates g of
    |f - g|_p^(alpha/(alpha+1)) + delta |g'|_inf is not computable; smoothing
    f with normalized Gaussian windows at a handful of widths gives candidate
    functions whose best score over-estimates the infimum, so bounds priced
    with this estimate remain valid upper bounds.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    grid_points = 4096
    xs = np.linspace(domain.a, domain.b, grid_points)
    dx = domain.width / (grid_points - 1)
    fs = np.asarray(f(xs), dtype=float)

    best = math.inf
    widths = tuple(domain.width * r for r in (1e-3, 4e-3, 1.6e-2, 6.4e-2, 2.56e-1))
    for width in widths:
        # window no longer than the signal, or convolve('same') grows the output
        half = min(max(1, int(4.0 * width / dx)), (grid_points - 1) // 2)
        t = np.arange(-half, half + 1) * dx
        win = np.exp(-0.5 * (t / width) ** 2)
        # renormalized at the edges so the smoothed values stay in [f_min, f_max]
        gs = np.convolve(fs, win, mode="same") / np.convolve(
            np.ones_like(fs), win, mode="same"
        )
        dist = _lp_norm(np.abs(fs - gs), p, dx)
        g_prime = float(np.abs(np.diff(gs)).max() / dx)
        best = min(best, dist ** (alpha / (alpha + 1.0)) + delta * g_prime)
    return best


def apriori_bounds(f, kernel: Kernel, domain: Domain, n_values,
                   p: float) -> tuple[float, ...]:
    """The a priori L^p error bound of the Kantorovich max-min operator on
    ``f`` at each n, for 1 <= p <= inf, stated with constant 1.

    With omega the modulus of continuity, m the absolute moment of order
    1+alpha and M = ``kernel.decay_m``:

    * p = inf, at delta_n = n^-1/2 and omega on 4001 points:
      omega(f, 1/n) + max(omega(f, delta_n), m / (phi(2) (n delta_n)^(1+alpha)));
    * finite p, at delta_n = n^-(1+alpha)/(2+alpha):
      A K(f, B delta_n)_p + (m (b-a)^(1/p) / phi(2)) delta_n, with K from
      :func:`kfunctional_upper`, A = (2M / (alpha phi(2)) + 2)^(1/p) +
      (b-a)^(1/(p(1+alpha))) and B = (3/2) (b-a)^(1/p) / A.

    Raises DegenerateKernelError when phi(2) = 0 (compact kernels), and
    ValueError when m, M, m / phi(2) or A is past the float range.
    """
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    floor = phi_floor(kernel)
    if floor <= 0.0:
        raise DegenerateKernelError(f"the a priori bounds need phi(2) > 0; {kernel} has 0")
    alpha = kernel.alpha
    moment = absolute_moment(kernel, 1.0 + alpha)
    if math.isinf(p):
        bounds = []
        for n in n_values:
            delta_n = n**-0.5
            # a negative power underflows to 0, its limit, where a positive one overflows
            tail = moment / floor * (n * delta_n) ** -(1.0 + alpha)
            if not tail < math.inf:  # NaN fails too
                raise ValueError(f"moment / phi(2) out of float range for alpha={alpha}")
            bounds.append(modulus_of_continuity(f, 1.0 / n, domain, 4001)
                          + max(modulus_of_continuity(f, delta_n, domain, 4001), tail))
        return tuple(bounds)
    width = domain.width
    a_val = ((2.0 * kernel.decay_m / (alpha * floor) + 2.0) ** (1.0 / p)
             + width ** (1.0 / (p * (1.0 + alpha))))
    b_val = 1.5 * width ** (1.0 / p) / a_val
    moment_term = moment * width ** (1.0 / p) / floor
    if not max(a_val, moment_term) < math.inf:
        raise ValueError(f"K-functional constants out of float range for alpha={alpha}")
    deltas = [n ** -((1.0 + alpha) / (2.0 + alpha)) for n in n_values]
    return tuple(a_val * kfunctional_upper(f, b_val * d, p, domain, alpha)
                 + moment_term * d for d in deltas)


def fit_rate(n_values, errors) -> float:
    """Ordinary least-squares slope of log(error) against log(n)."""
    ns = np.asarray(n_values, dtype=float)
    es = np.asarray(errors, dtype=float)
    if len(ns) != len(es) or len(ns) < 3:
        raise ValueError("need at least 3 (n, error) pairs of equal length")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("n values must be strictly increasing")
    if np.any(es <= 0.0):
        raise ValueError("errors must be strictly positive to fit a log-log slope")
    return float(np.polyfit(np.log(ns), np.log(es), 1)[0])
