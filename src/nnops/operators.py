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
row's cost follows the kernel's width, not n.  The kernel caps the
half-width h (see :func:`_half_width`), and the max families narrow it by
the node values (below).  The computed catalogue kernels are even and do
not grow in |t| from one node to the next (see :mod:`nnops.kernels`), so
every dropped node weighs at most the window's edge weight on its side.
Each row then carries a certificate:

* ``maxprod``/``maxmin``: the windowed max weight d is positive and the
  result is at least edge / d.  No dropped term can then exceed
  the result, so the row is bitwise equal to the dense evaluation over all K
  nodes.
* ``linear``: K * edge <= 2^-53 * (windowed weight sum).  The dropped nodes
  then hold at most 2^-53 of the weight sum, and with the rounding of sums
  taken in another order the row differs from the dense one by at most
  2^-52 + 2^-45 * |dense|.

Rows go in ascending x (an unsorted grid is sorted first and its results put
back), and every call cuts its cost by the node values its rows reach in
three steps (all below).  First one node-value rule fills the rows it can
without a window, in chunks of 2^13 rows (eight row arrays to 2^16
elements): the max families' flat rows, or linear rows summed by parts.
Its rows lie together in ascending x, so it leaves the others as stretches
of consecutive rows (a call without a rule is one stretch).  Then each
stretch takes its windows in chunks of as many rows as 2^16 weights hold
at the cap, a max-min or max-product window chunk first narrowing h.  A
row's result depends only on its own x, so neither the order nor the
chunks move a bit; the order keeps each chunk's reach near its rows, where
a chunk of a shuffled grid would reach nearly every node.

A max-min or max-product window chunk whose rows reach fewer than 2^16
nodes at the cap narrows h to the smallest h with phi(h) <= v_floor phi(2),
if that lies below the cap, v_floor the least value of those nodes.  In
exact arithmetic its rows pass their certificate: the max-weight node has
w / d = 1, so the result is at least its value, so at least v_floor; a
dropped node weighs at most phi(h), the kernel being even and
non-increasing; and d >= phi(2), as the window holds a node within
distance 2 of every x.  So edge / d <= v_floor <= result.  A window chunk
of a sparse grid that reaches 2^16 nodes or more keeps the cap without
reading its node values.  The floor of a chunk's own nodes is at least that
of a whole call's, and a row that fails widens from its chunk's h, never
narrowing again.  In the denoising sweep (logistic at
scale 0.1, n = 2000, a cap of 50) the windows are 38 to 102 nodes wide, 67
per row on average.

A max-min or max-product call on more rows than nodes writes v_c to each
row at t = n x within 1/2 of a dominant node c, without a weight.  Node c
is dominant when no node closer than D to it holds a larger value, D >= 1
the least up to the cap h with fl(phi(D - 1/2) / phi(1/2)) <= v_c.  That
is the dense result to the bit.  The nearest node is c, which weighs the
most, d = w_c >= phi(1/2) > 0; its term is min(v_c, d / d) = v_c (d / d) =
v_c.  A node of no larger value gives at most its value, as w / d <= 1.  A
larger node k lies at |t - k| >= |k - c| - 1/2 >= D - 1/2, so it gives at
most fl(w_k / d) <= fl(phi(D - 1/2) / phi(1/2)) <= v_c, as its value is at
most 1 and rounding is monotone (t - k and t - c round alike, and
|t - c| <= 1/2 rounds to at most 1/2).  The rows past an end node c lie up
to 1 from it, or up to 2 past k_hi in Kantorovich mode (n b = 30.8 puts
rows 1.8 past k_hi = 29), so they take d >= phi(2) and
|t - k| >= |k - c| instead: they take v_c if no node closer than E to c
holds more, E >= 1 the least up to h with fl(phi(E) / phi(2)) <= v_c.  So
the rule needs the computed kernel even and non-increasing, which rules
out ``power``, and phi(1/2) > 0, and phi(2) > 0 and h >= 2 for the end
rows.  Values are compared with ``>``, under which -0.0 equals +0.0, and
:class:`NodeData` stores +0.0 for every -0.0, so a flat row's zero has the
dense row's sign.  Adjacent dominant nodes share one value, as D = 1
needs v_c = 1, and each stretch of them, with its end rows, is one pair of
bounds left <= t <= right.  The call finds them once, in O(K D)
comparisons, a cost below the rows'; in ascending t each stretch's rows are
found by two searches over a chunk's rows, and the stretches between them
keep their windows and certificate.  On the error table's step (tanh, 1e5
points) 55, 80, 93, 96 and 98.8 % of the max-family rows are flat at n =
10, 30, 90, 150 and 500: every row nearest a node D or more from a larger
piece.  The denoising sweep (as many rows as nodes) and a sparse grid do
not look.

A row that fails its certificate with a positive denominator (for instance
one whose node values vanish across its window) is evaluated again at once
on a window twice as wide, h -> 2h + 1, in chunks of at most 2^16 weights,
until it passes, as every row does on all K nodes, where nothing is
dropped.  So a max-family row among zero node values widens only until its
window reaches a nonzero value or its edge weights underflow to 0, which a
``power`` tail, decaying as a power of the distance, may not do before all
K nodes (78 MB for one row among zero values at n = 1e6).  A row whose
denominator is 0 on its window is final there: every window holds the node
nearest n*x, which weighs the most by the certificates' premise (the
computed kernel even and non-increasing), so every weight of the dense
evaluation vanishes too.  The row takes NaN, the dense 0/0, and
:func:`eval_grid` raises :class:`ZeroDenominatorError` at the first NaN in
grid order.  On f = 0 over [0.3, 0.7] at n = 1e6 (max families, tanh, 20
points in [0.45, 0.55]) a call takes 3 ms and 0.3 MB, and one that raises
(linear, ``ramp`` at scale 10, the step, 2000 points) 1 ms and 0.3 MB.

Linear rows can instead be summed by parts, at a cost set by the node
values' jumps rather than the window.  The kernel is
phi(x) = (sigma(c x + 1) - sigma(c x - 1)) / 2 (see :mod:`nnops.kernels`), so
when sigma is logistic or tanh and m = 1/c is a whole number
(``m * c == 1.0``), phi(t - k) = (g(k - m) - g(k + m)) / 2 with
g(j) = sigma(c (t - j)), t = n x.  With v zero outside k_lo..k_hi:

    sum_k v_k phi(t - k) = 1/2 sum_j g(j) d_j,    d_j = v_{j+m} - v_{j-m}
    sum_k phi(t - k)     = 1/2 [sum_{j = k_lo-m}^{k_lo+m-1} g(j)
                                - sum_{j = k_hi-m+1}^{k_hi+m} g(j)]

g is computed as (tanh(s (t - j)) + 1) / 2, s = c for tanh and c/2 for
logistic (logistic x = (tanh(x/2) + 1)/2), which float64 rounds to exactly
1 and 0 once |s (t - j)| passes 19.07.  Each call checks that it does at
+-20 and otherwise keeps every row on its window; the check assumes np.tanh
is monotone.  So with R the least whole number with fl(R s) >= 20 (20 for
tanh at c = 1) and L = floor(t) - R, a row sums the 2m node values
v_{L-m+1} .. v_{L+m}, to which the differences at every j <= L telescope
(g(j) = 1 there), then g(j) d_j over the nonzero d_j with L < j <= L + 2R
(g(j) = 0 past them), and takes its denominator from the 4m end terms.
With every g doubled, that denominator is 4 sum_k phi(t - k) >= 4 phi(2),
as every x has a node within distance 2, and 4m rounded terms of a few
ulps each cannot bring it to 0 (for tanh at c = 1, 4 phi(2) = 0.233, and
the denominator tends to 0.274 as a row nears 2 past k_hi), so no row on
this path goes back to a window.  An interior row, with
k_lo + m - 1 <= L and floor(t) + R < k_hi - m + 1, has every left end
term 2g = 2 and every right one 0, so its doubled denominator is 4m
exactly and takes no tanh.  A row costs at most N + 4m tanh evaluations,
N its nonzero differences in reach, against the window's 2h + 2 weights,
and takes this path when 2 (N + 4m) is below the window width: where every
difference is nonzero (noisy data), a term took 1.7 times a weight's time.  A row reads the
2 (R + m) node values v_{L-m+1} .. v_{L+2R+m}, zero outside k_lo..k_hi.
Each run of a chunk's rows whose floors lie at most 2 (R + m) apart takes
one slice, from its lowest row's to its highest row's, the slices laid end
to end beside their node indices, so a chunk reads O(R) node values a row
whatever n (one slice on a dense grid, one a row on a sparse grid at large
n): a 256-point grid at n = 4e6 peaks at 0.79 MB, where one slice from a
chunk's first row to its last would take 196 MB.  A row's path and terms
depend on floor(t) alone, so the rows a chunk leaves to their windows are
stretches of consecutive rows.  A chunk adds its rows' terms one after
another over arrays of its rows, a row past its last term adding exact
zeros, so a row's result depends neither on the rows around it nor on how
its chunk laid out the node values.  A chunk ends early where its reach,
n (x_last - x_first) + 2 (R + m), would pass 2^13 node values, but holds
at least the 2^16 / width rows of one window chunk, so a sparse grid reads
each run's slice as before.

To first order in u = 2^-53, and with tanh within 2 ulps, each doubled
sigma is within 4u, each partial sum of the doubled numerator lies in
[0, 8m] (by Abel summation: g does not increase in j and v is in [0, 1]),
and so a row on this path differs from the dense one by at most
2^-50 m (N + 4m) / d + 2^-45 |dense|, d = sum_k phi(t - k) >= phi(2).
Measured deviations are below 2e-15.  On the error table's step (tanh,
n = 30, 90, 150, 500) N is at most 10, 4, 4 and 2, against windows of 30,
48, 48 and 50 weights, so every row is summed by parts; at n = 10 the
window of all 10 nodes is cheaper.

Rows that repeat a window's arguments share its weights.  A row at t = n x
on the window of nodes lo + j, j = 0 .. width - 1, takes the weights
phi(fl(t - (lo + j))).  lo is a whole number and |t| <= 2^53, so
a = fl(t - lo) is exact where |t - lo| <= |t|, that is where lo t >= 0 and
|lo| <= 2 |t|; then a - j = t - (lo + j) exactly, so fl(a - j) =
fl(t - (lo + j)) for every j, and two rows with one exact a take the same
weights to the bit (a zero's sign aside, which no catalogue kernel reads,
each taking |c x| or cosh(c x)).  In each chunk the consecutive rows with
one a, each exact, form a run, and only a run's first row, its head,
evaluates the kernel; :func:`_eval_chunk` takes each head's denominator
and, for the max families, its w / d once, and spreads them over the run
only for the elementwise min or product and the row reduction, each row
with its own node values and its own window's edge.  Spreading the weights
before normalising saved the kernel's time but spent as much on the
gather.  A max-family chunk spreads its normalised weights and drops the
heads' table before it gathers the rows' node values, so at most two of
the three arrays are alive at once.  A chunk in which no two consecutive
rows share indexes by slice(None), so every step takes a view and the
work is that of one head a row.  The test can fail only for a row within
about h + 1 of t = 0, on a domain that reaches below 0, and such a row
keeps its own weights.  On
the denoising sweep's grid (2000 midpoints at n = 2000) consecutive rows
lie one node apart, so they share a run while fl(n x) errs by the same
amount: a max-product call's 2000 rows form 372 runs on average, and the
sweep's 60 calls evaluate the kernel 1.40M times rather than 8.03M.

Rows are evaluated in chunks laid out (nodes, rows), so every per-row
reduction runs across contiguous rows; numpy reduces that shape an order of
magnitude faster than rows of a dozen nodes.  The max families reduce in this
layout: a max takes no rounding, so its order does not matter.  Linear
computes its weights (heads, nodes), gathers them to (rows, nodes) where
rows share, and combines them through a transposed view, so each row's sum
stays a pairwise sum over contiguous memory.  Summed
in the (nodes, rows) layout it would run one node at a time in a chunk of
many rows but pairwise in a chunk of one, and a row's result would depend on
the chunk it fell into.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .kernels import _CHUNK, Kernel, eval_kernel, phi_floor

FAMILIES = ("linear", "maxprod", "maxmin")
MODES = ("sampling", "kantorovich")


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
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n}")

    def describe(self) -> str:
        return f"{self.family}/{self.mode} n={self.n} kernel={self.kernel.variant}"


@dataclass(frozen=True)
class NodeData:
    """Node values v_k for k in k_lo .. k_hi, all within [0, 1], read-only;
    ``values`` is adopted or copied by :func:`read_only`.  Every -0.0 is
    stored as +0.0 (in a copy, made only when one is found), so no output's
    sign of zero depends on the path that computed it."""

    k_lo: int
    k_hi: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = read_only(self.values)
        expected = self.k_hi - self.k_lo + 1
        if values.ndim != 1 or len(values) != expected:
            raise ValueError(
                f"need {expected} node values for k in {self.k_lo}..{self.k_hi}, "
                f"got {len(values)}"
            )
        least = values.min(initial=1.0)
        if not (least >= 0.0 and values.max(initial=0.0) <= 1.0):
            raise ValueError("node values must lie in [0, 1]")  # NaN fails too
        if least == 0.0 and np.signbit(values).any():
            values = values + 0.0  # -0.0 + 0.0 = +0.0
            values.setflags(write=False)
        object.__setattr__(self, "values", values)


def read_only(a) -> np.ndarray:
    """``a`` itself if it is a read-only float64 array that owns its data
    (its maker gives it up, as the node-data rules do), else a read-only
    float64 copy, so a caller's writable array or a view is never shared."""
    if not (type(a) is np.ndarray and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.setflags(write=False)
    return a


def _first_node(n: int, a: float) -> int:
    """The smallest k with k/n >= a, with k/n as the float division gives it."""
    k = math.ceil(n * a)  # n*a is rounded, so k may be a node off either way
    while (k - 1) / n >= a:
        k -= 1
    while k / n < a:
        k += 1
    return k


def node_bounds(mode: str, n: int, domain: Domain) -> tuple[int, int]:
    """Node index range for the given mode; raises EmptyRangeError if empty.

    Sampling nodes are the k with a <= k/n <= b, Kantorovich nodes the k
    whose cell [k/n, (k+1)/n] lies in [a, b], with k/n as the float division
    gives it.  n*a and n*b must lie within +-2^53, where float64 still tells
    neighbouring nodes apart (this also rejects an n*b that overflows to
    infinity).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n}")
    if not (abs(n * domain.a) <= 2.0**53 and abs(n * domain.b) <= 2.0**53):
        raise ValueError(
            f"n*a and n*b must lie within +-2^53, got n={n} on [{domain.a}, {domain.b}]"
        )
    k_lo = _first_node(n, domain.a)
    k_hi = -_first_node(n, -domain.b)  # -k/n >= -b: division rounds symmetrically
    if mode == "kantorovich":
        k_hi -= 1
    if k_lo > k_hi:
        raise EmptyRangeError(
            f"EmptyRange: no {mode} nodes for n={n} on "
            f"[{domain.a}, {domain.b}] (k_lo={k_lo} > k_hi={k_hi})"
        )
    return k_lo, k_hi


def _check_data(spec: OperatorSpec, data: NodeData) -> None:
    k_lo, k_hi = node_bounds(spec.mode, spec.n, spec.domain)
    if (data.k_lo, data.k_hi) != (k_lo, k_hi):
        raise ValueError(
            f"node data covers k={data.k_lo}..{data.k_hi} but the spec needs "
            f"k={k_lo}..{k_hi}"
        )


def eval_operator(spec: OperatorSpec, data: NodeData, x: float) -> float:
    """Evaluate the operator at a single point x in [a, b]: a one-point grid."""
    return float(eval_grid(spec, data, [float(x)])[0])


def _half_width(spec: OperatorSpec, nodes: int) -> int:
    """The most nodes a row's window reaches on each side of n*x, from the
    kernel alone.

    Compact kernels reach their support; the max families reach decay_l, past
    the central bump (their window chunks may narrow it, see :func:`_certified`);
    linear reaches the first h at which the kernel, summed over every node,
    falls below 2^-53 of the kernel floor phi(2).  A window's edge nodes lie
    at distance >= h from n*x, and every x has a node within distance 2, so
    such a window passes the linear certificate.  A reach of ``nodes`` or
    more (also one past the float range, at a tiny scale), or a linear one
    without an h below nodes/2, is every node.  Bisection finds the linear h
    in O(log nodes) kernel evaluations: the kernel is even and
    non-increasing in |t|, so the test holds from its first h on.
    """
    k = spec.kernel
    if k.support is not None or spec.family != "linear":
        reach = k.decay_l if k.support is None else k.support[1]
        return math.ceil(reach) if reach < nodes else nodes
    floor = 2.0**-53 * phi_floor(k)
    hs = range(1, (nodes + 1) // 2)  # h = 1 .. below nodes/2
    i = bisect.bisect_left(hs, True,
                           key=lambda h: nodes * eval_kernel(k, float(h)) <= floor)
    return hs[i] if i < len(hs) else nodes


#: window weights that one summation-by-parts term costs, rounded up: on
#: noisy data, where every difference in reach is nonzero, a term took 1.7
#: times a weight's time
_TERM_COST = 2

#: |y| from which the computed sigma(y) = (tanh(y) + 1)/2 must be exactly 1 or
#: 0 for :func:`_by_parts`; checked once per call, past 19.07 for float64
_CUT = 20.0


def _twice_sigma(y: np.ndarray) -> np.ndarray:
    """2 sigma(y) = tanh(y) + 1, twice the tanh variant's activation, in place."""
    np.tanh(y, out=y)
    y += 1.0
    return y


def _by_parts(spec: OperatorSpec, width: int):
    """(m, s, reach) of a linear spec whose kernel is logistic or tanh at a
    scale c with m = 1/c whole: g(j) = sigma(s (t - j)), s = c for tanh and
    c/2 for logistic, is exactly 1 at j <= floor(t) - reach and 0 past
    floor(t) + reach.  None for other specs, where the computed sigma is not
    exactly 1 and 0 at +-_CUT, and where no row could cost less than its
    ``width`` weights by parts (see the module docstring)."""
    k = spec.kernel
    if (spec.family != "linear" or k.variant not in ("logistic", "tanh")
            or not 1.0 <= 1.0 / k.scale < width / (4 * _TERM_COST)):
        return None
    m = round(1.0 / k.scale)
    if m * k.scale != 1.0:
        return None
    if not np.array_equal(_twice_sigma(np.array([_CUT, -_CUT])), [2.0, 0.0]):
        return None
    s = k.scale if k.variant == "tanh" else 0.5 * k.scale  # logistic(x) = sigma(x/2)
    reach = math.ceil(_CUT / s)
    while reach * s < _CUT:  # so that fl(t - j) s >= _CUT at j <= floor(t) - reach
        reach += 1
    return m, s, reach


def _eval_by_parts(data: NodeData, parts, t: np.ndarray, width: int, y: np.ndarray):
    """Fill ``y`` at the rows of a chunk at ascending t = n x whose summation
    by parts costs less than their window's ``width`` weights (see the
    module docstring); return the (start, stop) of each stretch of other
    rows, to be taken on windows.  Each sum runs over 1-D arrays of the
    chunk's rows, one term after another, a row past its last term adding
    exact zeros.  Numerator and denominator are both doubled, which rounds
    alike, so that 2g(j) = tanh(s (t - j)) + 1 needs no halving.  The
    denominator, 4 sum_k phi(t - k), is then at least 4 phi(2) > 0 up to a
    few ulps of rounding per end term, since every x has a node within 2,
    so every row this path takes divides by a positive number."""
    m, s, reach = parts
    span = 2 * (reach + m)  # a row reads v_{floor(t)-reach-m+1} .. v_{floor(t)+reach+m}
    # the chunk reads only what its rows reach, v[p] = v_i at i = index[p]
    # (zero past k_lo..k_hi): rows whose floors lie more than span apart share
    # no node value, so v closes each such gap to span, and a row's
    # v_{floor(t)-reach-m+1} lies at v[at], one of 0 .. len(v) - span
    at = np.floor(t).astype(np.intp)  # floor(t), then each row's place in v
    at[1:] -= np.maximum(np.diff(at) - span, 0).cumsum()
    at -= at[0]
    places = np.arange(at[-1] + span)
    row = np.searchsorted(at, places, "right") - 1  # the last row at or before p
    index = places + (np.floor(t[row]).astype(np.intp) - at[row] - (reach + m - 1))
    inside = (index >= data.k_lo) & (index <= data.k_hi)
    v = np.zeros(len(index))
    v[inside] = data.values[index[inside] - data.k_lo]
    keys = places[:len(v) - span + 1]
    # d_j = v_{j+m} - v_{j-m} at diffs[p], j the node at v[p + m] = index[p + m];
    # a row with v_{floor(t)-reach-m+1} at v[key] reads its nonzero ones at
    # p = key .. key + 2 reach - 1, every one within its stretch of v
    diffs = v[2 * m:] - v[:-2 * m]
    nonzero = np.flatnonzero(diffs)
    first = np.searchsorted(nonzero, keys)
    count = np.searchsorted(nonzero, keys + 2 * reach) - first
    cheap = _TERM_COST * (count + 4 * m) < width
    rows, rest = slice(None), []
    if not cheap.all():
        rows = np.flatnonzero(cheap[at])
        if not len(rows):
            return [(0, len(t))]
        # the other rows lie in the gaps between the runs of consecutive
        # rows summed by parts, few as t ascends
        ends = np.flatnonzero(np.diff(rows) > 1)
        rest = _gaps(rows[np.append(0, ends + 1)], rows[np.append(ends, -1)] + 1, len(t))
        t, at = t[rows], at[rows]
    # an interior row's end terms are all 2g = 2 on the left and 0 on the
    # right, so its denominator is 4m; the others, with floor(t) - reach <
    # k_lo + m - 1 or floor(t) + reach >= k_hi - m + 1, sum them
    denom = np.full(len(t), 4.0 * m)
    edge = np.flatnonzero((t < data.k_lo + m - 1 + reach)
                          | (t >= data.k_hi - m + 1 - reach))
    if len(edge):
        denom[edge] = (_sigma_sum(t[edge], data.k_lo - m, 2 * m, s)
                       - _sigma_sum(t[edge], data.k_hi - m + 1, 2 * m, s))
    # the 2m node values v_{L-m+1} .. v_{L+m}, L = floor(t) - reach, whose
    # differences telescope over every j <= L, where g(j) = 1
    numer = v[at]
    for q in range(1, 2 * m):
        numer += v[at + q]
    numer *= 2.0
    first, longest = first[at], count[at].max()
    if longest:
        # past a row's count its terms lie beyond its reach, where g = 0
        # (those of a later stretch of v too), or on the padding at j = inf,
        # where g = d_j = 0
        jumps = np.append(index[m + nonzero], np.full(longest, np.inf))
        d = np.append(diffs[nonzero], np.zeros(longest))
        for q in range(longest):
            g = np.subtract(t, jumps[first])
            g *= s
            g = _twice_sigma(g)
            g *= d[first]
            first += 1
            if q:
                terms += g
            else:
                terms = g
        numer += terms
    numer /= denom
    y[rows] = numer
    return rest


def _sigma_sum(t: np.ndarray, j: int, terms: int, s: float) -> np.ndarray:
    """sum 2 sigma(s (t - k)) over k = j .. j + terms - 1, added one after
    another."""
    acc = _twice_sigma((t - j) * s)
    for k in range(j + 1, j + terms):
        acc += _twice_sigma((t - k) * s)
    return acc


def _dominant_nodes(data: NodeData, halves: np.ndarray, phis: np.ndarray):
    """The bounds left <= t <= right of the max-family rows at t = n x that
    take a dominant node's value (see the module docstring), and that value,
    in ascending t, or None where no row does.  ``halves`` holds phi(1/2),
    phi(3/2), ... with phi(1/2) > 0, and ``phis`` phi(0), phi(1), ...; the
    rows past an end node also need phi(2) > 0."""
    v = data.values
    # each node's D, the least D >= 1 with fl(phi(D - 1/2) / phi(1/2)) <= v,
    # or len(halves) + 1 for none; a node is dominant if no node closer than
    # its D holds a larger value
    reach = np.searchsorted(-halves / halves[0], -v) + 1
    dominant = reach <= len(halves)
    for d in range(1, min(len(halves), len(v))):
        far = dominant & (reach > d)
        if not far.any():
            break
        dominant[d:] &= ~(far[d:] & (v[:-d] > v[d:]))
        dominant[:-d] &= ~(far[:-d] & (v[d:] > v[:-d]))
    low = high = 0
    if len(phis) > 2 and phis[2] > 0.0:
        # each end node's E >= 1, the least with fl(phi(E) / phi(2)) <= v, or
        # len(phis) for none; the rows past it take its value if no node
        # closer than E to it holds a larger one
        e = np.searchsorted(-phis[1:] / phis[2], -v[[0, -1]]) + 1
        low = int(e[0] < len(phis) and v[:e[0]].max() <= v[0])
        high = int(e[1] < len(phis) and v[max(len(v) - e[1], 0):].max() <= v[-1])
    ks = np.flatnonzero(dominant) + data.k_lo
    left = np.concatenate(([-np.inf] * low, ks - 0.5, [data.k_hi] * high))
    right = np.concatenate(([data.k_lo] * low, ks + 0.5, [np.inf] * high))
    value = np.concatenate((v[:low], v[ks - data.k_lo], v[len(v) - high:]))
    if not len(left):
        return None
    # one bound pair for each stretch of touching bounds of one value
    first = np.flatnonzero(np.append(True, (left[1:] > right[:-1])
                                      | (value[1:] != value[:-1])))
    return left[first], right[np.append(first[1:], len(left)) - 1], value[first]


def _eval_flat(flat, t: np.ndarray, y: np.ndarray):
    """Fill ``y`` at the flat rows of a max-family chunk at ascending t = n x,
    on the bounds from :func:`_dominant_nodes`; return the (start, stop) of
    each stretch of other rows."""
    left, right, v = flat
    # the bounds ascend, left[0] <= right[0] < left[1] <= ..., so the
    # stretches i .. j - 1 reach t[0] .. t[-1]
    i, j = np.searchsorted(right, t[0]), np.searchsorted(left, t[-1], "right")
    first, last = np.searchsorted(t, left[i:j]), np.searchsorted(t, right[i:j], "right")
    for a, b, value in zip(first, last, v[i:j]):
        y[a:b] = value
    return _gaps(first, last, len(t))


def _gaps(first: np.ndarray, last: np.ndarray, rows: int):
    """The (start, stop) of each stretch of rows 0 .. rows - 1 that the
    ascending, disjoint stretches first[i] .. last[i] - 1 leave; an empty
    one splits no stretch."""
    full = first < last
    return [(a, b) for a, b in zip([0, *last[full]], [*first[full], rows]) if a < b]


def _eval_windows(spec, data, xs):
    """The one pass of :func:`eval_grid` over ascending ``xs``: every x on
    the window of min(2h + 2, K) of the K nodes starting at floor(n*x) - h,
    clipped into k_lo..k_hi, h at most the cap from :func:`_half_width`.

    A call with a node-value rule (flat max-family rows, or linear rows
    summed by parts) runs it in chunks of _CHUNK // 8 rows, a
    summation-by-parts chunk ending early where its rows' reach of node
    values would pass that count, but never below the _CHUNK // width rows
    of one chunk of windows (see the module docstring).  The rule fills its
    rows, none of which fails, and leaves stretches of rows, which take
    their windows through :func:`_certified`, where only a window's
    certificate can fail; a call without a rule is one stretch.  Returns the
    outputs, NaN at a row whose weights all vanish.
    """
    nodes = len(data.values)
    half = _half_width(spec, nodes)
    width = min(2 * half + 2, nodes)
    parts = _by_parts(spec, width)
    narrow = flat = None
    if spec.family != "linear":
        phis = eval_kernel(spec.kernel, np.arange(min(half + 1, _CHUNK), dtype=float))
        narrow = phis, phi_floor(spec.kernel)
        # found once, at a cost below the rows', where the rows outnumber
        # the nodes
        if len(xs) > nodes and spec.kernel.variant != "power":
            halves = eval_kernel(spec.kernel, np.arange(min(half, _CHUNK)) + 0.5)
            if halves[0] > 0.0:
                flat = _dominant_nodes(data, halves, phis)
    step = _CHUNK // 8 if flat is not None or parts else len(xs)
    out = np.empty(len(xs))
    start = 0
    while start < len(xs):
        rows = xs[start:start + step]
        windowed = [(0, len(rows))]  # the stretches of rows on windows
        if flat is not None:
            windowed = _eval_flat(flat, spec.n * rows, out[start:start + len(rows)])
        elif parts:
            # the rows whose node values, from the first row's reach to the
            # last's, number at most step, and no fewer than a window chunk
            t = spec.n * rows
            span = 2 * (parts[2] + parts[0])
            reached = np.searchsorted(t, t[0] + (step - span), "right")
            t = t[:max(reached, _CHUNK // width, 1)]
            rows = rows[:len(t)]
            windowed = _eval_by_parts(data, parts, t, width, out[start:start + len(t)])
        for a, b in windowed:
            _certified(spec, data, rows[a:b], half, out[start + a:start + b], narrow)
        start += len(rows)
    return out


def _certified(spec, data, xs, half, out, narrow=None):
    """Fill ``out`` with the rows ``xs`` on windows of half-width ``half``, in
    chunks of at most _CHUNK weights, and evaluate each row that fails its
    certificate again on a window twice as wide, half-width 2 h + 1, until
    it passes, as every row does on all K nodes (see the module docstring).

    Given ``narrow``, phi(0) .. phi(half) and phi(2), a max-min or
    max-product chunk first narrows h by the node floor its own rows reach
    (see the module docstring); a retry widens from that h and never
    narrows.
    """
    nodes = len(data.values)
    step = max(1, _CHUNK // min(2 * half + 2, nodes))
    for start in range(0, len(xs), step):
        rows = xs[start:start + step]
        h = half
        if narrow is not None:
            # the nodes lo .. hi - 1 past k_lo that the rows reach at half
            lo = max(math.floor(spec.n * rows[0]) - half - data.k_lo, 0)
            hi = min(math.floor(spec.n * rows[-1]) + half + 2 - data.k_lo, nodes)
            if hi - lo < _CHUNK:
                phis, phi2 = narrow
                below = np.flatnonzero(phis <= data.values[lo:hi].min() * phi2)
                h = int(below[0]) if len(below) else half
        out[start:start + step], bad = _eval_chunk(spec, data, rows, h)
        if len(bad):
            wider = np.empty(len(bad))
            _certified(spec, data, rows[bad], 2 * h + 1, wider)
            out[start + bad] = wider


def _eval_chunk(spec, data, xs, half):
    """Outputs of a chunk of rows on windows of half-width ``half``, and the
    rows with a positive denominator that failed their certificate.

    Only the head of each run of rows that share their weights evaluates the
    kernel (see :func:`_runs` and the module docstring); each head's
    denominator (weight sum for linear, max weight otherwise) and, for the
    max families, its w / d are taken once, and only the elementwise step
    and the row reduction run over every row.  Each row's edge weights, its
    bound on every weight its window drops, are its head's, masked by its
    own window's place among the nodes.  The weights are laid out
    (nodes, heads); linear's are computed (heads, nodes) and combined
    through a transposed view (see the module docstring).  A row whose
    denominator is 0 takes NaN, the dense 0/0, and does not fail: no wider
    window changes it.
    """
    k_lo, k_hi, values = data.k_lo, data.k_hi, data.values
    width = min(2 * half + 2, len(values))
    # row i is the window of nodes k_lo + i onwards, a view of the node values
    # built without sliding_window_view's Python overhead, paid every chunk
    windows = np.ndarray((len(values) - width + 1, width), float, values,
                         strides=values.strides * 2)
    t = spec.n * xs
    lo = np.clip(np.floor(t) - half, k_lo, k_hi - width + 1)
    key, heads = _runs(t, lo)
    th, loh = t[heads], lo[heads]
    j = np.arange(width, dtype=float)
    # node k = lo + j is exact in float64, so each weight is phi(n*x - k) to
    # the bit, as in the dense evaluation
    if spec.family == "linear":
        w = eval_kernel(spec.kernel, th[:, None] - np.add.outer(loh, j)).T
    else:
        w = eval_kernel(spec.kernel, th - np.add.outer(j, loh))
    # a bound on every dropped weight: the window's edge weight on that side
    edge = np.maximum(np.where(lo > k_lo, w[0][key], 0.0),
                      np.where(lo + width - 1 < k_hi, w[-1][key], 0.0))
    denom = w.sum(axis=0) if spec.family == "linear" else w.max(axis=0)
    safe = np.where(denom > 0.0, denom, np.nan)
    if spec.family == "linear":
        v = windows[(lo - k_lo).astype(np.int64)].T
        w = w.T[key].T  # each row's weights stay contiguous (see the module docstring)
        y = np.multiply(w, v, out=w).sum(axis=0) / safe[key]
        passed = len(values) * edge <= 2.0**-53 * denom[key]
    else:
        # the heads' table is dropped before the node values are gathered
        # (see the module docstring)
        r = np.divide(w, safe, out=w)[:, key]
        del w
        op = np.minimum if spec.family == "maxmin" else np.multiply
        y = op(windows[(lo - k_lo).astype(np.int64)].T, r, out=r).max(axis=0)
        passed = y >= edge / safe[key]
    return y, np.flatnonzero(~(passed | (denom[key] <= 0.0)))


def _runs(t: np.ndarray, lo: np.ndarray):
    """(key, heads) of a chunk's rows at t = n x on windows starting at node
    lo: row i shares the weights of row heads[key[i]], the first of its run
    of consecutive rows with one fl(t - lo), each computed exactly (see the
    module docstring).  Both are slice(None) where no row shares, so that
    indexing by them takes views."""
    a = t - lo
    shares = a[1:] == a[:-1]
    if shares.any():
        # lo is whole and |t| <= 2^53, so t - lo is exact where |t - lo| <= |t|
        exact = (lo * t >= 0.0) & (np.abs(lo) <= 2.0 * np.abs(t))
        shares &= exact[1:] & exact[:-1]
        if shares.any():
            head = np.append(True, ~shares)
            return np.cumsum(head) - 1, np.flatnonzero(head)
    return slice(None), slice(None)


def eval_grid(spec: OperatorSpec, data: NodeData, grid) -> np.ndarray:
    """Evaluate the operator at every grid point.

    Each row combines only the nodes its kernel window reaches, or takes a
    node-value rule instead: a flat max-family row its dominant node's
    value, a linear row the jumps of the node values in its reach.  A row
    that fails its certificate is evaluated again on windows twice as wide
    until it passes, and a row whose weights all vanish on its window raises
    (see the module docstring).  Rows go in ascending x, an unsorted grid
    sorted first and its results put back.  A row's result depends only on
    its own x, so this is bitwise identical to mapping :func:`eval_operator`
    pointwise.  Errors carry the smallest offending grid index.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    d = spec.domain
    outside = np.flatnonzero(~((xs >= d.a) & (xs <= d.b)))  # NaN is outside
    if len(outside):
        i = int(outside[0])
        raise ValueError(f"grid[{i}]={xs[i]} outside the domain [{d.a}, {d.b}]")
    _check_data(spec, data)
    # in ascending x each chunk reads only the nodes around its own rows
    order = None if np.all(xs[1:] >= xs[:-1]) else np.argsort(xs)
    ys = xs if order is None else xs[order]
    out = _eval_windows(spec, data, ys)
    if order is not None:  # the sorted copy takes the results in grid order
        ys[order], out = out, ys
    if np.isnan(out.sum()):  # a row whose weights all vanish; the sum takes no mask
        i = int(np.isnan(out).argmax())
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
    v = k.variant
    g = k.alpha  # a power kernel's gamma
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
