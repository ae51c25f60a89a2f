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

The logistic and tanh forms take cosh((a c) x), a = 1 or 2, with no |.|:
cosh is even to the bit, and as a is a power of two, (a c) x equals a (c x)
wherever a c x is normal (below, cosh is 1 either way) while a c is finite;
a scale past half the float range keeps the order a (c x).  The product is
the one array allocated; cosh, + cosh a, * 2 and sinh a / . run in place.

So the computed kernel is exactly even and non-increasing in |x|; only the
power tail and joint, which mix a rising and a falling factor, can round up
by an ulp between arguments a few ulps apart.  For
``ramp`` and ``three`` it is compactly supported on [-3/2, 3/2] / c; the
other three have full support with power-law (or faster) tail decay
phi(x) <= M |x|^-(1+alpha) for |x| > L.  A :class:`Kernel` is its variant,
scale and alpha; a ``power:<gamma>`` kernel's alpha is its gamma.  The
support, L and M are derived from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

SIGMOID_VARIANTS = ("logistic", "tanh", "ramp", "three", "power")

#: variants whose kernel is compactly supported (before scaling)
COMPACT_VARIANTS = ("ramp", "three")

#: elements per chunk of vectorized work, the one memory budget of nnops:
#: kernel scans, weight matrices and node data each hold a bounded number of
#: elements at a time, whatever n, the grid or the resolution
_CHUNK = 2**16


class DegenerateKernelError(ValueError):
    """A computation required a positive kernel floor phi(2), but it is zero."""


@dataclass(frozen=True)
class Kernel:
    """Centered bell kernel: a variant, a scale c and a tail exponent alpha.

    Any positive alpha is admissible for the exponentially and compactly
    decaying variants; a ``power`` kernel decays exactly like |x|^-(1+gamma),
    so its alpha is its gamma.  Derived: ``support``, outside which a compact
    kernel vanishes (None otherwise), and ``decay_m``, ``decay_l`` of the
    tail bound phi(x) <= decay_m |x|^-(1+alpha) for |x| > decay_l
    (``decay_m`` is fitted on first use).
    """

    variant: str
    scale: float = 1.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in SIGMOID_VARIANTS:
            raise ValueError(
                f"unknown sigmoid variant {self.variant!r}; "
                f"expected one of {SIGMOID_VARIANTS}"
            )
        # past 1/gamma = 1024 the joint T = 2^(1/gamma) is no longer finite
        if self.variant == "power" and not (0.0 < self.alpha <= 1.0
                                            and 1.0 / self.alpha < 1024.0):
            raise ValueError(
                f"power-tail gamma must be in (0, 1] with 1/gamma < 1024, got {self.alpha}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"kernel scale must be finite and positive, got {self.scale}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(
                f"decay exponent alpha must be finite and positive, got {self.alpha}"
            )

    @property
    def support(self) -> tuple[float, float] | None:
        if self.variant in COMPACT_VARIANTS:
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
        m = 1.1 * absolute_moment(self, 1.0 + self.alpha, 400)
        if m == math.inf:
            raise ValueError(f"decay_M is not finite for alpha={self.alpha}")
        return m


def eval_kernel(k: Kernel, x):
    """Evaluate phi(x) = (s(c*x + 1) - s(c*x - 1)) / 2 at ``x`` through the
    closed form of its variant (see the module docstring); phi(+-inf) = 0
    for every variant, also where c*x overflows at a huge scale."""
    xa = np.asarray(x, dtype=float)
    if k.variant in ("logistic", "tanh"):
        a = 1.0 if k.variant == "logistic" else 2.0
        # cosh((a*c)*x) = cosh(a*|c*x|) (see the module docstring); cosh
        # overflows to inf past |a*c*x| ~ 710, where phi is below 1e-308
        ac = a * k.scale
        with np.errstate(over="ignore"):
            out = (np.multiply(np.atleast_1d(xa), ac) if ac < math.inf
                   else a * (k.scale * np.atleast_1d(xa)))
            np.cosh(out, out=out)
            out += math.cosh(a)
            out *= 2.0
        np.divide(math.sinh(a), out, out=out)
        return float(out[0]) if xa.ndim == 0 else out.reshape(np.shape(x))
    # |c x| past the float range is inf, and so is the power tail's
    # denominator where phi is below 1e-308; phi(inf) = 0 in every piece
    with np.errstate(over="ignore"):
        u = np.abs(k.scale * np.atleast_1d(xa))
        if k.variant == "ramp":
            out = 0.5 * np.clip(1.5 - u, 0.0, 1.0)
        elif k.variant == "three":
            out = np.where(u < 0.5, 0.5, np.where(u <= 1.5, 0.25, 0.0))
        else:
            out = _power_kernel(k.alpha, u)
    return float(out[0]) if xa.ndim == 0 else out.reshape(np.shape(x))


def _power_kernel(g: float, u: np.ndarray) -> np.ndarray:
    """The three pieces of the ``power`` kernel at u >= 0; each piece is
    evaluated only where it applies, so none of them leaves its domain."""
    t = 2.0 ** (1.0 / g)
    out = np.full_like(u, 2.0 ** (-1.0 / g - 2.0))  # flat top, u + 1 <= t
    tail = u - 1.0 > t
    joint = (u + 1.0 > t) & ~tail
    out[u == math.inf] = 0.0  # phi's limit, which the tail formula reads as 0 inf
    tail &= u < math.inf
    um, up = u[tail] - 1.0, u[tail] + 1.0
    a = um**g
    out[tail] = 0.5 * a * np.expm1(g * np.log1p(2.0 / um)) / ((a + 2.0) * (up**g + 2.0))
    uj = u[joint]
    r = 2.0 * np.expm1(g * np.log1p((uj + 1.0 - t) / t))
    # divide by t before 8: 8t overflows where t nears 2^1024
    out[joint] = r / (8.0 * (r + 4.0)) + (t + 1.0 - uj) / t / 8.0
    return out


def make_kernel(variant: str, scale: float = 1.0, alpha: float = 1.0) -> Kernel:
    """The kernel of a catalogue variant, ``Kernel(variant, scale, alpha)``;
    for ``power``, alpha is the gamma of its tails."""
    return Kernel(variant, scale, alpha)


def phi_floor(k: Kernel) -> float:
    """The kernel value at 2, used as a positive denominator floor.

    For unit-scale non-compact kernels this is strictly positive (it equals
    (s(3) - s(1))/2 and the catalogue activations are strictly increasing
    there).  Compact kernels at unit scale return exactly 0 because their
    support is [-3/2, 3/2]; consumers that need a positive floor raise
    :class:`DegenerateKernelError` in that case.
    """
    return float(eval_kernel(k, 2.0))


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
    is a candidate too.  The scan holds at most ``_CHUNK`` points at a time.
    A moment outside the float range (at alpha = 1000, or alpha = 200 at
    scale 0.01) raises ValueError.
    """
    if not 0.0 < beta <= 1.0 + k.alpha:
        raise ValueError(
            f"moment order must satisfy 0 < beta <= 1 + alpha = {1.0 + k.alpha}, "
            f"got {beta}"
        )
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    unit = Kernel(k.variant, 1.0, k.alpha)
    runs = [(0.0, 10 * resolution + 1)]  # (first u, points) at spacing 1/resolution
    if k.variant == "power":
        runs.append((2.0 ** (1.0 / k.alpha) - 1.0, 2 * resolution + 1))
    grids = itertools.chain(
        (first + np.arange(start, min(start + _CHUNK, points)) / resolution
         for first, points in runs for start in range(0, points, _CHUNK)),
        [np.geomspace(10.0, 1e9, min(2 * resolution, 20_000))],
    )
    best = 0.0
    for u in grids:
        phi = eval_kernel(unit, u)
        # phi h h with h = u^(beta/2): u^beta overflows near the joint of a
        # power kernel whose T nears 2^1024, where phi h h is about 1/2; h = 0
        # where phi has underflowed, as h may be inf there and 0 inf is NaN
        with np.errstate(over="ignore"):
            h = np.where(phi > 0.0, u, 0.0) ** (beta / 2)
            best = max(best, float(np.max(phi * h * h)))
    if k.variant == "power" and beta == 1.0 + k.alpha:
        best = max(best, k.alpha)
    with np.errstate(over="ignore"):  # an overflow is a moment past the float range
        moment = float(best * np.float64(k.scale) ** -beta)
    if not 0.0 < moment < math.inf:
        raise ValueError(f"moment of order {beta} out of float range for alpha={k.alpha}")
    return moment
