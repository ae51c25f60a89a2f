"""Sigmoidal activations and the centered bell kernels derived from them.

Five activation variants are supported, all nondecreasing with limits 0 at
-inf and 1 at +inf:

* ``logistic``  1 / (1 + e^-x)
* ``tanh``      (tanh x + 1) / 2
* ``ramp``      piecewise linear, saturating at +-1/2
* ``three``     three-valued step {0, 1/2, 1} with jumps at +-1/2
* ``power``     algebraic tails 1/(|x|^g + 2) and (x^g + 1)/(x^g + 2)
                joined by a linear middle piece, 0 < g <= 1

The kernel built from an activation s is the centered bell

    phi(x) = (s(c*x + 1) - s(c*x - 1)) / 2

with an optional argument scale c > 0.  For ``ramp`` and ``three`` the kernel
is compactly supported on [-3/2, 3/2] / c; the other three have full support
with power-law (or faster) tail decay phi(x) <= M |x|^-(1+alpha) for |x| > L.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

SIGMOID_VARIANTS = ("logistic", "tanh", "ramp", "three", "power")

#: variants whose kernel is compactly supported (before scaling)
COMPACT_VARIANTS = ("ramp", "three")

#: moment/window scans stop once the unscanned tail is below this, relatively
_TAIL_RTOL = 1e-9


class DegenerateKernelError(ValueError):
    """A computation required a positive kernel floor phi(2), but it is zero."""


@dataclass(frozen=True)
class Sigmoid:
    """A nondecreasing activation function on the real line.

    ``gamma`` is only meaningful for the ``power`` variant, where it sets the
    algebraic tail exponent (the kernel then decays like |x|^-(1+gamma)).
    """

    variant: str
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in SIGMOID_VARIANTS:
            raise ValueError(
                f"unknown sigmoid variant {self.variant!r}; "
                f"expected one of {SIGMOID_VARIANTS}"
            )
        if self.variant == "power" and not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"power-tail gamma must be in (0, 1], got {self.gamma}")


def eval_sigmoid(s: Sigmoid, x):
    """Evaluate the activation at ``x`` (scalar or ndarray)."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)

    if s.variant == "logistic":
        # branch on the sign so exp never overflows
        out = np.empty_like(xa)
        pos = xa >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-xa[pos]))
        ex = np.exp(xa[~pos])
        out[~pos] = ex / (1.0 + ex)
    elif s.variant == "tanh":
        out = 0.5 * (np.tanh(xa) + 1.0)
    elif s.variant == "ramp":
        out = np.clip(xa + 0.5, 0.0, 1.0)
    elif s.variant == "three":
        out = np.where(xa < -0.5, 0.0, np.where(xa > 0.5, 1.0, 0.5))
    else:  # power
        g = s.gamma
        t = 2.0 ** (1.0 / g)
        out = np.empty_like(xa)
        left = xa < -t
        right = xa > t
        mid = ~(left | right)
        out[left] = 1.0 / (np.abs(xa[left]) ** g + 2.0)
        out[mid] = 2.0 ** (-1.0 / g - 2.0) * xa[mid] + 0.5
        xg = xa[right] ** g
        out[right] = (xg + 1.0) / (xg + 2.0)

    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Kernel:
    """Centered bell kernel with argument scale and tail-decay metadata.

    ``decay_m`` and ``decay_l`` record the power-law tail bound
    phi(x) <= decay_m * |x|^-(1+alpha) for |x| > decay_l, fitted numerically
    by :func:`fit_decay_constants`.  ``support`` is the closed interval outside
    which the kernel vanishes, present only for compact variants.
    """

    sigmoid: Sigmoid
    scale: float = 1.0
    alpha: float = 1.0
    decay_m: float = 1.0
    decay_l: float = 5.0
    support: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"kernel scale must be finite and positive, got {self.scale}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(
                f"decay exponent alpha must be finite and positive, got {self.alpha}"
            )
        if not (self.decay_m > 0.0 and self.decay_l > 0.0):
            raise ValueError("decay constants must be positive")


def eval_kernel(k: Kernel, x):
    """Evaluate phi(x) = (s(c*x + 1) - s(c*x - 1)) / 2 at ``x``."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    cx = k.scale * np.atleast_1d(xa)
    out = 0.5 * (eval_sigmoid(k.sigmoid, cx + 1.0) - eval_sigmoid(k.sigmoid, cx - 1.0))
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def make_kernel(
    variant: str,
    gamma: float = 1.0,
    scale: float = 1.0,
    alpha: float | None = None,
) -> Kernel:
    """Build a kernel from a catalogue variant, fitting its decay constants.

    ``alpha`` defaults to 1 for the exponentially/compactly decaying variants
    (any positive exponent is admissible for them; 1 is the library default
    used in rate formulas).  For ``power`` the tail decay is exactly
    |x|^-(1+gamma), so alpha is pinned to gamma.
    """
    sig = Sigmoid(variant, gamma)
    if variant == "power":
        if alpha is not None and alpha != gamma:
            raise ValueError(
                f"power-tail kernel decays like |x|^-(1+gamma); alpha must equal "
                f"gamma={gamma}, got {alpha}"
            )
        alpha = gamma
    elif alpha is None:
        alpha = 1.0

    support = None
    if variant in COMPACT_VARIANTS:
        support = (-1.5 / scale, 1.5 / scale)

    k = Kernel(sigmoid=sig, scale=scale, alpha=alpha, support=support)
    m, l = fit_decay_constants(k, alpha)
    return dataclasses.replace(k, decay_m=m, decay_l=l)


def phi_floor(k: Kernel) -> float:
    """The kernel value at 2, used as a positive denominator floor.

    For unit-scale non-compact kernels this is strictly positive (it equals
    (s(3) - s(1))/2 and the catalogue activations are strictly increasing
    there).  Compact kernels at unit scale return exactly 0 because their
    support is [-3/2, 3/2]; consumers that need a positive floor raise
    :class:`DegenerateKernelError` in that case.
    """
    return float(eval_kernel(k, 2.0))


def partition_of_unity_defect(k: Kernel, x: float, window: int) -> float:
    """Deviation of the truncated integer-shift sum from 1 at ``x``.

    Computes |sum_{|j| <= window} phi(x - j) - 1|.  The identity
    sum_j phi(x - j) = 1 holds only for unit-scale kernels (the shifts
    telescope through the activation), so scaled kernels are rejected.
    """
    if k.scale != 1.0:
        raise ValueError("partition of unity holds only for unit-scale kernels")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    js = np.arange(-window, window + 1, dtype=float)
    return abs(float(np.sum(eval_kernel(k, x - js))) - 1.0)


def absolute_moment(k: Kernel, beta: float, resolution: int = 100_000) -> float:
    """Numerical estimate of the generalized absolute moment of order beta.

    The moment is sup_x max_k phi(x - k) |x - k|^beta.  Since the lattice
    {x - k : x in [0,1), k integer} covers the whole line, this equals
    sup_{t >= 0} phi(t) t^beta (phi is even).  The supremand is scanned on a
    uniform grid of spacing 1/resolution over the kernel's central region and
    on a log-spaced tail grid wide enough that the unscanned remainder is
    below 1e-9 relative for every catalogue kernel: past the tail grid the
    supremand is bounded by decay_m * t^(beta-1-alpha), which for
    beta < 1+alpha is negligible beyond 1e9, while for beta = 1+alpha the
    supremand saturates and the log grid samples its plateau directly.
    """
    if not 0.0 < beta <= 1.0 + k.alpha:
        raise ValueError(
            f"moment order must satisfy 0 < beta <= 1 + alpha = {1.0 + k.alpha}, "
            f"got {beta}"
        )
    if resolution < 2:
        raise ValueError("resolution must be >= 2")

    t_central = k.decay_l + 5.0
    best = 0.0
    # central region: uniform grid, chunked to bound memory
    n_pts = int(t_central * resolution) + 1
    chunk = 1_000_000
    for start in range(0, n_pts, chunk):
        t = np.arange(start, min(start + chunk, n_pts), dtype=float) / resolution
        h = eval_kernel(k, t) * t**beta
        best = max(best, float(h.max()))
    # tail: log-spaced out to 1e9
    t = np.logspace(math.log10(t_central), 9.0, 20_000)
    h = eval_kernel(k, t) * t**beta
    return max(best, float(h.max()))


def fit_decay_constants(k: Kernel, alpha: float) -> tuple[float, float]:
    """Fit constants (M, L) of the tail bound phi(x) <= M |x|^-(1+alpha).

    L is fixed at 5/scale, past the central bump of every catalogue variant.
    M is the supremum of phi(x) |x|^(1+alpha) over a uniform grid up to L
    joined with a log-spaced grid out to 1e6, inflated by 10% to cover
    off-grid points.  Scanning from near zero (the supremand vanishes there,
    since phi <= 1/2) makes the bound valid past any positive threshold, not
    just past L, so truncated-tail maxima obey M s^-(1+alpha) for every
    cutoff s > 0.

    Raises ValueError when the requested alpha exceeds the kernel's actual
    decay rate (the scanned supremand then grows without bound).
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if k.sigmoid.variant == "power" and alpha > k.sigmoid.gamma:
        raise ValueError(
            f"power-tail kernel decays like |x|^-(1+gamma) with "
            f"gamma={k.sigmoid.gamma}; alpha={alpha} is too large"
        )

    l = 5.0 / k.scale
    head = np.linspace(1e-6, l, 4000)
    tail = np.logspace(math.log10(l), 6.0, 2400)
    h_head = eval_kernel(k, head) * head ** (1.0 + alpha)
    h_tail = eval_kernel(k, tail) * tail ** (1.0 + alpha)
    h_max = max(float(h_head.max()), float(h_tail.max()))

    # divergence guard: a persistently positive log-log slope over the last
    # decade means the supremand is unbounded, not saturating
    last = tail >= 1e5
    if h_tail[last].min() > 0.0:
        slope = np.polyfit(np.log(tail[last]), np.log(h_tail[last]), 1)[0]
        if slope > 0.05:
            raise ValueError(
                f"phi(x) |x|^(1+alpha) grows without bound for alpha={alpha}; "
                "the kernel decays more slowly than requested"
            )
    return 1.1 * h_max, l


def kernel_to_json(k: Kernel) -> str:
    """Serialize kernel metadata to a JSON object."""
    payload: dict = {"variant": k.sigmoid.variant}
    if k.sigmoid.variant == "power":
        payload["gamma"] = k.sigmoid.gamma
    payload.update(
        scale=k.scale, alpha=k.alpha, decay_M=k.decay_m, decay_L=k.decay_l
    )
    return json.dumps(payload)
