"""Sigmoidal activations and the centered bell kernels derived from them.

Five activation variants are supported, all nondecreasing with limits 0 at
-inf and 1 at +inf:

* ``logistic``  1 / (1 + e^-x)
* ``tanh``      (tanh x + 1) / 2
* ``ramp``      piecewise linear, saturating at +-1/2
* ``three``     three-valued step {0, 1/2, 1} with jumps at +-1/2
* ``power``     algebraic tails 1/(|x|^g + 2) and (x^g + 1)/(x^g + 2)
                joined at +-T, T = 2^(1/g), by a linear middle piece,
                0 < g <= 1 with T finite (1/g < 1024)

The kernel built from an activation s is the centered bell

    phi(x) = (s(c*x + 1) - s(c*x - 1)) / 2

with an optional argument scale c > 0.  :func:`eval_kernel` does not take
that difference, which cancels in the tails; it evaluates one closed form
of u = |c*x| per variant:

* ``logistic``  sinh 1 / (2 (cosh u + cosh 1)), from the identity
                (1 + e^(-u-1)) (1 + e^(-u+1)) e^u = 2 cosh u + 2 cosh 1
* ``tanh``      sinh 2 / (2 (cosh 2u + cosh 2)), since s(x) is the
                logistic of 2x
* ``ramp``      clip(3/2 - u, 0, 1) / 2
* ``three``     1/2 for u < 1/2, 1/4 for u <= 3/2, else 0
* ``power``     the flat top 2^(-1/g-2) for u + 1 <= T; for u - 1 > T,
                (b - a) / (2 (a + 2)(b + 2)) with a = (u-1)^g, b = (u+1)^g
                and b - a = a expm1(g log1p(2/(u-1))); in between, the sum
                of the nonnegative terms r / (8 (r + 4)) + (T + 1 - u) / (8T),
                r = 2 expm1(g log1p((u + 1 - T)/T))

So the computed kernel is exactly even and non-increasing in |x|; only the
power tail and joint, which mix a rising and a falling factor, can round up
by an ulp between arguments a few ulps apart.  For
``ramp`` and ``three`` it is compactly supported on [-3/2, 3/2] / c; the
other three have full support with power-law (or faster) tail decay
phi(x) <= M |x|^-(1+alpha) for |x| > L.  A :class:`Kernel` is its variant,
gamma, scale and alpha; the support, L and M are derived from them.
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
        # past 1/gamma = 1024 the joint T = 2^(1/gamma) is no longer finite
        if self.variant == "power" and not (0.0 < self.gamma <= 1.0
                                            and 1.0 / self.gamma < 1024.0):
            raise ValueError(
                f"power-tail gamma must be in (0, 1] with 1/gamma < 1024, got {self.gamma}")


@dataclass(frozen=True)
class Kernel:
    """Centered bell kernel: a sigmoid (variant, gamma), a scale c and alpha.

    ``alpha`` defaults to 1 (any positive exponent is admissible for the
    exponentially and compactly decaying variants); a ``power`` kernel decays
    exactly like |x|^-(1+gamma), so its alpha defaults to gamma and no other
    is accepted.  Derived: ``support``, outside which a compact kernel
    vanishes (None otherwise), and ``decay_m``, ``decay_l`` of the tail bound
    phi(x) <= decay_m |x|^-(1+alpha) for |x| > decay_l (``decay_m`` is fitted
    on first use).
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
        """The supremum of phi(x) |x|^(1+alpha), scanned by
        :func:`absolute_moment` at 400 points per unit, inflated by 10% to
        cover off-grid points.  The scan starts at zero (the supremand vanishes
        there, since phi <= 1/2), so the bound holds past any positive
        threshold, not just past decay_l: truncated-tail maxima obey
        decay_m s^-(1+alpha) for every cutoff s > 0."""
        return 1.1 * absolute_moment(self, 1.0 + self.alpha, 400)


def eval_kernel(k: Kernel, x):
    """Evaluate phi(x) = (s(c*x + 1) - s(c*x - 1)) / 2 at ``x`` through the
    closed form of its variant (see the module docstring)."""
    xa = np.asarray(x, dtype=float)
    u = np.abs(k.scale * np.atleast_1d(xa))
    variant = k.sigmoid.variant
    if variant in ("logistic", "tanh"):
        a = 1.0 if variant == "logistic" else 2.0
        # cosh overflows to inf past a*u ~ 710, where phi is below 1e-308
        with np.errstate(over="ignore"):
            out = math.sinh(a) / (2.0 * (np.cosh(a * u) + math.cosh(a)))
    elif variant == "ramp":
        out = 0.5 * np.clip(1.5 - u, 0.0, 1.0)
    elif variant == "three":
        out = np.where(u < 0.5, 0.5, np.where(u <= 1.5, 0.25, 0.0))
    else:
        out = _power_kernel(k.sigmoid.gamma, u)
    return float(out[0]) if xa.ndim == 0 else out.reshape(np.shape(x))


def _power_kernel(g: float, u: np.ndarray) -> np.ndarray:
    """The three pieces of the ``power`` kernel at u >= 0; each piece is
    evaluated only where it applies, so none of them leaves its domain."""
    t = 2.0 ** (1.0 / g)
    out = np.full_like(u, 2.0 ** (-1.0 / g - 2.0))  # flat top, u + 1 <= t
    tail = u - 1.0 > t
    joint = (u + 1.0 > t) & ~tail
    um, up = u[tail] - 1.0, u[tail] + 1.0
    a = um**g
    out[tail] = 0.5 * a * np.expm1(g * np.log1p(2.0 / um)) / ((a + 2.0) * (up**g + 2.0))
    uj = u[joint]
    r = 2.0 * np.expm1(g * np.log1p((uj + 1.0 - t) / t))
    # divide by t before 8: 8t overflows where t nears 2^1024
    out[joint] = r / (8.0 * (r + 4.0)) + (t + 1.0 - uj) / t / 8.0
    return out


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


def absolute_moment(k: Kernel, beta: float, resolution: int = 100_000) -> float:
    """Numerical estimate of the generalized absolute moment of order beta.

    The moment is sup_x max_k phi(x - k) |x - k|^beta.  Since the lattice
    {x - k : x in [0,1), k integer} covers the whole line, this equals
    sup_{t >= 0} phi(t) t^beta (phi is even), scanned with ``resolution``
    points per unit of the unit kernel's argument u = c*t.

    Scaling law: phi_c(t) = phi_1(c*t), so the supremum is c^-beta times the
    unit kernel's, which is scanned; the cost does not depend on c.  The grid
    has spacing 1/resolution over u in [0, 10], past every central bump, then
    min(2 resolution, 20000) log-spaced points out to 1e9; beyond, the
    supremand is at most decay_m u^(beta-1-alpha), negligible for
    beta < 1 + alpha.  A ``power`` kernel's flat top ends at u = T - 1,
    T = 2^(1/gamma), where its supremand peaks near 1/2 for small gamma
    (T - 1 lies past 1e9 for gamma <= 0.03), so [T - 1, T + 1] is scanned at
    spacing 1/resolution too.  Power tail limit: at beta = 1 + gamma a
    ``power`` kernel's supremand rises towards gamma as u -> inf, so gamma
    is a candidate too.
    """
    if not 0.0 < beta <= 1.0 + k.alpha:
        raise ValueError(
            f"moment order must satisfy 0 < beta <= 1 + alpha = {1.0 + k.alpha}, "
            f"got {beta}"
        )
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    unit = Kernel(k.sigmoid, 1.0, k.alpha)
    runs = [(0.0, 10 * resolution + 1)]  # (first u, points) at spacing 1/resolution
    if k.sigmoid.variant == "power":
        runs.append((2.0 ** (1.0 / k.sigmoid.gamma) - 1.0, 2 * resolution + 1))
    chunk = 2**20  # chunks bound the memory
    grids = itertools.chain(
        (first + np.arange(start, min(start + chunk, points)) / resolution
         for first, points in runs for start in range(0, points, chunk)),
        [np.geomspace(10.0, 1e9, min(2 * resolution, 20_000))],
    )
    best = 0.0
    for u in grids:
        # phi h h with h = u^(beta/2): u^beta overflows near the joint of a
        # power kernel whose T nears 2^1024, where phi h h is about 1/2
        h = u ** (beta / 2)
        best = max(best, float(np.max(eval_kernel(unit, u) * h * h)))
    if k.sigmoid.variant == "power" and beta == 1.0 + k.sigmoid.gamma:
        best = max(best, k.sigmoid.gamma)
    return best * k.scale**-beta


def kernel_to_json(k: Kernel) -> str:
    """Serialize kernel metadata to a JSON object."""
    payload: dict = {"variant": k.sigmoid.variant}
    if k.sigmoid.variant == "power":
        payload["gamma"] = k.sigmoid.gamma
    payload.update(
        scale=k.scale, alpha=k.alpha, decay_M=k.decay_m, decay_L=k.decay_l
    )
    return json.dumps(payload)
