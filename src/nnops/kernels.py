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
A :class:`Kernel` is its variant, gamma, scale and alpha; the support, L and
M are derived from them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

SIGMOID_VARIANTS = ("logistic", "tanh", "ramp", "three", "power")

#: variants whose kernel is compactly supported (before scaling)
COMPACT_VARIANTS = ("ramp", "three")


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
    """Centered bell kernel: a sigmoid (variant, gamma), a scale c and alpha.

    ``alpha`` defaults to 1 (any positive exponent is admissible for the
    exponentially and compactly decaying variants); a ``power`` kernel decays
    exactly like |x|^-(1+gamma), so its alpha defaults to gamma and no other
    is accepted.  Derived: ``support``, outside which a compact kernel
    vanishes (None otherwise), and ``decay_m``, ``decay_l`` of the tail bound
    phi(x) <= decay_m |x|^-(1+alpha) for |x| > decay_l (``decay_m`` is fitted
    by :func:`fit_decay_constants` on first use).
    """

    sigmoid: Sigmoid
    scale: float = 1.0
    alpha: float | None = None

    def __post_init__(self) -> None:
        power = self.sigmoid.variant == "power"
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.sigmoid.gamma if power else 1.0)
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"kernel scale must be finite and positive, got {self.scale}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(
                f"decay exponent alpha must be finite and positive, got {self.alpha}"
            )
        if power and self.alpha != self.sigmoid.gamma:
            raise ValueError(
                f"power-tail kernel decays like |x|^-(1+gamma); alpha must equal "
                f"gamma={self.sigmoid.gamma}, got {self.alpha}"
            )

    @property
    def support(self) -> tuple[float, float] | None:
        if self.sigmoid.variant in COMPACT_VARIANTS:
            return (-1.5 / self.scale, 1.5 / self.scale)
        return None

    @property
    def decay_l(self) -> float:
        """5/scale, past the central bump of every catalogue variant."""
        return 5.0 / self.scale

    @functools.cached_property
    def decay_m(self) -> float:
        return fit_decay_constants(self, self.alpha)[0]


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
    """The kernel of a catalogue variant: ``Kernel(Sigmoid(variant, gamma),
    scale, alpha)``, with alpha defaulting as described there."""
    return Kernel(Sigmoid(variant, gamma), scale, alpha)


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


def _supremum(k: Kernel, beta: float, resolution: int) -> float:
    """sup_{t >= 0} phi(t) t^beta, scanned in the unit kernel's argument u = c*t.

    Scaling law: phi_c(t) = phi_1(c*t), so the supremum is c^-beta times the
    unit kernel's, which is scanned; the cost does not depend on c.  The scan
    evaluates the left side phi_1(-u) (phi is even): there s(1 - u) and
    s(-1 - u) are small and their difference stays accurate, while on the
    right s(u + 1) - s(u - 1) cancels to rounding noise that u^beta magnifies.
    The grid has spacing 1/resolution over u in [0, 10], past every central
    bump, then min(2 resolution, 20000) log-spaced points out to 1e9; beyond,
    the supremand is at most decay_m u^(beta-1-alpha), negligible for
    beta < 1 + alpha.  Power tail limit: at beta = 1 + gamma a ``power``
    kernel's supremand rises towards gamma as u -> inf, so gamma is a
    candidate too.
    """
    unit = Kernel(k.sigmoid, 1.0, k.alpha)
    central, chunk = 10 * resolution + 1, 2**20  # chunks bound the memory
    grids = itertools.chain(
        (np.arange(start, min(start + chunk, central)) / resolution
         for start in range(0, central, chunk)),
        [np.geomspace(10.0, 1e9, min(2 * resolution, 20_000))],
    )
    best = max(float(np.max(eval_kernel(unit, -u) * u**beta)) for u in grids)
    if k.sigmoid.variant == "power" and beta == 1.0 + k.sigmoid.gamma:
        best = max(best, k.sigmoid.gamma)
    return best * k.scale**-beta


def absolute_moment(k: Kernel, beta: float, resolution: int = 100_000) -> float:
    """Numerical estimate of the generalized absolute moment of order beta.

    The moment is sup_x max_k phi(x - k) |x - k|^beta.  Since the lattice
    {x - k : x in [0,1), k integer} covers the whole line, this equals
    sup_{t >= 0} phi(t) t^beta (phi is even), which :func:`_supremum` scans
    with ``resolution`` points per unit of the unit kernel's argument.
    """
    if not 0.0 < beta <= 1.0 + k.alpha:
        raise ValueError(
            f"moment order must satisfy 0 < beta <= 1 + alpha = {1.0 + k.alpha}, "
            f"got {beta}"
        )
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return _supremum(k, beta, resolution)


def fit_decay_constants(k: Kernel, alpha: float) -> tuple[float, float]:
    """Fit constants (M, L) of the tail bound phi(x) <= M |x|^-(1+alpha).

    L is ``k.decay_l``.  M is the supremum of phi(x) |x|^(1+alpha) over the
    scan of :func:`_supremum` at 400 points per unit, inflated by 10% to
    cover off-grid points.  Scanning from zero (the supremand vanishes there,
    since phi <= 1/2) makes the bound valid past any positive threshold, not
    just past L, so truncated-tail maxima obey M s^-(1+alpha) for every
    cutoff s > 0.

    Raises ValueError when alpha exceeds the decay rate of a ``power``
    kernel, |x|^-(1+gamma): the supremum is then infinite.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if k.sigmoid.variant == "power" and alpha > k.sigmoid.gamma:
        raise ValueError(
            f"power-tail kernel decays like |x|^-(1+gamma) with "
            f"gamma={k.sigmoid.gamma}; alpha={alpha} is too large"
        )
    return 1.1 * _supremum(k, 1.0 + alpha, 400), k.decay_l


def kernel_to_json(k: Kernel) -> str:
    """Serialize kernel metadata to a JSON object."""
    payload: dict = {"variant": k.sigmoid.variant}
    if k.sigmoid.variant == "power":
        payload["gamma"] = k.sigmoid.gamma
    payload.update(
        scale=k.scale, alpha=k.alpha, decay_M=k.decay_m, decay_L=k.decay_l
    )
    return json.dumps(payload)
