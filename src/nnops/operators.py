"""The six neural network operators over a common node/window evaluation core.

Three families combine node values v_k with kernel weights w_k = phi(n*x - k):

* ``linear``   sum_k v_k w_k / sum_k w_k
* ``maxprod``  max_k v_k * (w_k / max_d w_d)
* ``maxmin``   max_k min(v_k, w_k / max_d w_d)

and two modes fix the node set and the meaning of v_k:

* ``sampling``     k in ceil(n*a) .. floor(n*b),     v_k = f(k/n)
* ``kantorovich``  k in ceil(n*a) .. floor(n*b) - 1, v_k = cell average of f
                   over [k/n, (k+1)/n]

All families map node values in [0, 1] to outputs in [0, 1] and reproduce
constants exactly.  The max/min families are nonlinear and not homogeneous.

:func:`eval_grid`, which every evaluation goes through, combines each grid
row only over a window of min(2h + 2, K) of the K nodes around n*x, so a
row's cost follows the kernel's width, not n.  The half-width h comes from
the kernel alone (see :func:`_half_width`).  The computed catalogue kernels
are even and do not grow in |t| from one node to the next (see
:mod:`nnops.kernels`), so every dropped node weighs at most the window's
edge weight on its side.  Each row then carries a certificate:

* ``maxprod``/``maxmin``: the windowed max weight d is positive and the
  result is at least edge / d.  No dropped term can then exceed
  the result, so the row is bitwise equal to the dense evaluation over all K
  nodes.
* ``linear``: K * edge <= 2^-53 * (windowed weight sum).  The dropped nodes
  then hold at most 2^-53 of the weight sum, and with the rounding of sums
  taken in another order the row differs from the dense one by at most
  2^-52 + 2^-45 * |dense|.

A row that fails its certificate (for instance one whose node values vanish
across its window) is evaluated again on all K nodes, as without windowing;
a vanishing denominator there raises :class:`ZeroDenominatorError` with the
row's grid index.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, eval_kernel, phi_floor

FAMILIES = ("linear", "maxprod", "maxmin")
MODES = ("sampling", "kantorovich")

#: weight-matrix elements per chunk of vectorized evaluation; a chunk holds
#: max(1, _CHUNK // width) grid rows, so its memory is bounded for any n
_CHUNK = 2**16


class EmptyRangeError(ValueError):
    """The node index range is empty: n is too small for the domain."""


class ZeroDenominatorError(ArithmeticError):
    """Every kernel weight in the window vanished at some evaluation point.

    Only possible with compact-support kernels on sparse node sets; it means
    n is below the regime where the operator is well defined at that point.
    """


@dataclass(frozen=True)
class Domain:
    """Closed interval [a, b]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"domain requires finite a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class OperatorSpec:
    """Family x mode x n x domain x kernel; immutable evaluation recipe."""

    family: str
    mode: str
    n: int
    domain: Domain
    kernel: Kernel

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")

    def describe(self) -> str:
        return f"{self.family}/{self.mode} n={self.n} kernel={self.kernel.sigmoid.variant}"


@dataclass(frozen=True)
class NodeData:
    """Node values v_k for k in k_lo .. k_hi, all within [0, 1]."""

    k_lo: int
    k_hi: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        expected = self.k_hi - self.k_lo + 1
        if values.ndim != 1 or len(values) != expected:
            raise ValueError(
                f"need {expected} node values for k in {self.k_lo}..{self.k_hi}, "
                f"got {len(values)}"
            )
        if len(values) and not (values.min() >= 0.0 and values.max() <= 1.0):
            raise ValueError("node values must lie in [0, 1]")  # NaN fails too

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_lo, self.k_hi + 1)


def _stable_ceil(t: float) -> int:
    # round to 12 decimals first so e.g. ceil(2.9999999999999996) stays 3
    return math.ceil(round(t, 12))


def _stable_floor(t: float) -> int:
    return math.floor(round(t, 12))


def node_bounds(mode: str, n: int, domain: Domain) -> tuple[int, int]:
    """Node index range for the given mode; raises EmptyRangeError if empty.

    n*a and n*b must lie within +-2^53, where float64 still tells neighbouring
    nodes apart (this also rejects an n*b that overflows to infinity).
    """
    if not (abs(n * domain.a) <= 2.0**53 and abs(n * domain.b) <= 2.0**53):
        raise ValueError(
            f"n*a and n*b must lie within +-2^53, got n={n} on [{domain.a}, {domain.b}]"
        )
    k_lo = _stable_ceil(n * domain.a)
    k_hi = _stable_floor(n * domain.b)
    if mode == "kantorovich":
        k_hi -= 1
    if k_lo > k_hi:
        raise EmptyRangeError(
            f"EmptyRange: no {mode} nodes for n={n} on "
            f"[{domain.a}, {domain.b}] (k_lo={k_lo} > k_hi={k_hi})"
        )
    return k_lo, k_hi


def node_range(spec: OperatorSpec) -> tuple[int, int]:
    """Node index range of ``spec``; see :func:`node_bounds`."""
    return node_bounds(spec.mode, spec.n, spec.domain)


def sample_node_values(f, spec: OperatorSpec) -> NodeData:
    """Sampling-mode node data: f evaluated at the nodes k/n.

    ``f`` must accept an ndarray of points in [a, b] and return values in
    [0, 1]; signals use their nearest-sample lookup.
    """
    if spec.mode != "sampling":
        raise ValueError("sample_node_values is for sampling-mode specs")
    k_lo, k_hi = node_range(spec)
    ks = np.arange(k_lo, k_hi + 1)
    return NodeData(k_lo, k_hi, np.asarray(f(ks / spec.n), dtype=float))


def _combine(family: str, values: np.ndarray, w: np.ndarray):
    """Combine (rows, nodes) node values and kernel weights row by row,
    overwriting ``w``.

    Returns the outputs and the per-row denominators (weight sum for linear,
    max weight otherwise).  Rows whose denominator is 0 get a meaningless
    output; the caller decides what they mean.
    """
    denom = w.sum(axis=1) if family == "linear" else w.max(axis=1)
    safe = np.where(denom > 0.0, denom, 1.0)
    if family == "linear":
        return np.multiply(w, values, out=w).sum(axis=1) / safe, denom
    r = np.divide(w, safe[:, None], out=w)
    if family == "maxmin":
        return np.minimum(values, r, out=r).max(axis=1), denom
    return np.multiply(values, r, out=r).max(axis=1), denom


def _check_data(spec: OperatorSpec, data: NodeData) -> None:
    k_lo, k_hi = node_range(spec)
    if (data.k_lo, data.k_hi) != (k_lo, k_hi):
        raise ValueError(
            f"node data covers k={data.k_lo}..{data.k_hi} but the spec needs "
            f"k={k_lo}..{k_hi}"
        )


def eval_operator(spec: OperatorSpec, data: NodeData, x: float) -> float:
    """Evaluate the operator at a single point x in [a, b]: a one-point grid."""
    return float(eval_grid(spec, data, [float(x)])[0])


def _half_width(spec: OperatorSpec, nodes: int) -> int:
    """Nodes a row's window reaches on each side of n*x, from the kernel alone.

    Compact kernels reach their support; the max families reach decay_l, past
    the central bump; linear reaches the first h at which the kernel, summed
    over every node, falls below 2^-53 of the kernel floor phi(2).  A window's
    edge nodes lie at distance >= h from n*x, and every x has a node within
    distance 2, so such a window passes the linear certificate.  Without an
    h below nodes/2 the window is all nodes.  Bisection finds h in O(log
    nodes) kernel evaluations: the kernel is even and non-increasing in |t|,
    so the test holds from its first h on.
    """
    k = spec.kernel
    if k.support is not None:
        return math.ceil(k.support[1])
    if spec.family != "linear":
        return math.ceil(k.decay_l)
    floor = 2.0**-53 * phi_floor(k)
    hs = range(1, (nodes + 1) // 2)  # h = 1 .. below nodes/2
    i = bisect.bisect_left(hs, True,
                           key=lambda h: nodes * eval_kernel(k, float(h)) <= floor)
    return hs[i] if i < len(hs) else nodes


def _eval_windows(spec, data, xs, half, width):
    """Evaluate every x on the window of ``width`` nodes starting at
    floor(n*x) - ``half``, clipped into k_lo..k_hi, in chunks of at most
    _CHUNK weights.

    Returns the outputs and the indices of the rows that failed their
    certificate (see the module docstring).  A window of every node drops
    nothing, so there only rows whose denominator vanished fail.
    """
    windows = np.lib.stride_tricks.sliding_window_view(data.values, width)
    step = max(1, _CHUNK // width)
    out = np.empty(len(xs))
    failed = [np.empty(0, dtype=np.intp)]
    for start in range(0, len(xs), step):
        sl = slice(start, start + step)
        out[sl], passed = _eval_chunk(spec, data, windows, xs[sl], half)
        failed.append(start + np.flatnonzero(~passed))
    return out, np.concatenate(failed)


def _eval_chunk(spec, data, windows, xs, half):
    """One chunk of :func:`_eval_windows`: outputs and certificate mask."""
    k_lo, k_hi = data.k_lo, data.k_hi
    width = windows.shape[1]
    t = spec.n * xs
    lo = np.clip(np.floor(t) - half, k_lo, k_hi - width + 1)
    # node k = lo + j is exact in float64, so each weight is phi(n*x - k) to
    # the bit, as in the dense evaluation
    w = eval_kernel(spec.kernel,
                    t[:, None] - np.add.outer(lo, np.arange(width, dtype=float)))
    # a bound on every dropped weight: the window's edge weight on that side
    edge = np.maximum(np.where(lo > k_lo, w[:, 0], 0.0),
                      np.where(lo + width - 1 < k_hi, w[:, -1], 0.0))
    y, denom = _combine(spec.family, windows[(lo - k_lo).astype(np.int64)], w)
    if spec.family == "linear":
        passed = len(data.values) * edge <= 2.0**-53 * denom
    else:
        passed = y >= edge / np.where(denom > 0.0, denom, 1.0)
    return y, passed & (denom > 0.0)


def eval_grid(spec: OperatorSpec, data: NodeData, grid) -> np.ndarray:
    """Evaluate the operator at every grid point.

    Each row combines only the nodes its kernel window reaches; a row that
    fails its certificate is evaluated again on every node (see the module
    docstring).  A row's result depends only on its own x, so this is
    bitwise identical to mapping :func:`eval_operator` pointwise.  Errors
    carry the offending grid index.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    d = spec.domain
    inside = (xs >= d.a) & (xs <= d.b)  # NaN is outside
    if not inside.all():
        i = int(np.flatnonzero(~inside)[0])
        raise ValueError(f"grid[{i}]={xs[i]} outside the domain [{d.a}, {d.b}]")
    _check_data(spec, data)
    nodes = len(data.values)
    half = _half_width(spec, nodes)
    width = min(2 * half + 2, nodes)
    out, failed = _eval_windows(spec, data, xs, half, width)
    if width < nodes and len(failed):
        out[failed], still = _eval_windows(spec, data, xs[failed], 0, nodes)
        failed = failed[still]
    if len(failed):
        i = int(failed[0])
        raise ZeroDenominatorError(
            f"ZeroDenominator: all kernel weights vanish at "
            f"x={float(xs[i])!r} (grid index {i})"
        )
    return out


# ---------------------------------------------------------------------------
# independent oracle: literal transcription with scalar arithmetic


def _scalar_sigmoid(variant: str, gamma: float, t: float) -> float:
    if variant == "logistic":
        if t >= 0.0:
            return 1.0 / (1.0 + math.exp(-t))
        e = math.exp(t)
        return e / (1.0 + e)
    if variant == "tanh":
        return 0.5 * (math.tanh(t) + 1.0)
    if variant == "ramp":
        if t < -0.5:
            return 0.0
        if t > 0.5:
            return 1.0
        return t + 0.5
    if variant == "three":
        if t < -0.5:
            return 0.0
        if t > 0.5:
            return 1.0
        return 0.5
    # power
    thr = 2.0 ** (1.0 / gamma)
    if t < -thr:
        return 1.0 / (abs(t) ** gamma + 2.0)
    if t > thr:
        tg = t**gamma
        return (tg + 1.0) / (tg + 2.0)
    return 2.0 ** (-1.0 / gamma - 2.0) * t + 0.5


def _scalar_kernel(k: Kernel, t: float) -> float:
    v = k.sigmoid.variant
    g = k.sigmoid.gamma
    ct = k.scale * t
    return 0.5 * (_scalar_sigmoid(v, g, ct + 1.0) - _scalar_sigmoid(v, g, ct - 1.0))


def brute_force_eval(spec: OperatorSpec, data: NodeData, x: float) -> float:
    """Naive scalar evaluation of the same operator, used as a test oracle.

    Transcribes the defining formulas directly with plain Python loops and
    ``math``-module arithmetic; shares no code with :func:`eval_operator`.
    """
    d = spec.domain
    if not d.a <= x <= d.b:
        raise ValueError(f"x={x} outside the domain [{d.a}, {d.b}]")
    _check_data(spec, data)
    n = spec.n
    ks = list(range(data.k_lo, data.k_hi + 1))
    w = [_scalar_kernel(spec.kernel, n * x - k) for k in ks]
    v = [float(t) for t in data.values]
    if spec.family == "linear":
        denom = 0.0
        numer = 0.0
        for wk, vk in zip(w, v):
            denom += wk
            numer += vk * wk
        if denom == 0.0:
            raise ZeroDenominatorError(f"ZeroDenominator: x={x!r}")
        return numer / denom
    dmax = max(w)
    if dmax == 0.0:
        raise ZeroDenominatorError(f"ZeroDenominator: x={x!r}")
    best = 0.0
    for wk, vk in zip(w, v):
        r = wk / dmax
        term = min(vk, r) if spec.family == "maxmin" else vk * r
        if term > best:
            best = term
    return best
