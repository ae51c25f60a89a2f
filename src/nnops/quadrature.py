"""Node data: the values v_k an operator combines, on any domain [a, b].

:func:`node_data` decides which rule turns which input into node values,
and every rule is this module's own:

* sampling specs take f at the nodes k/n (:func:`sample_node_values`), and
  no quadrature rule;
* exact piecewise integration for analytic piecewise-constant test functions;
* refined Riemann / trapezoid sums at the sub-cell points k/n + j/(n r),
  evaluated directly for a callable and by nearest-sample lookup for a
  sampled signal;
* the pairwise mean of two consecutive samples (the half-rate shortcut used
  for ECG traces, where the operator order is :func:`pairmean_order`, half
  the sample count on the unit interval).

Kantorovich node values are the cell averages n * integral of f over
[k/n, (k+1)/n].

The rules run over chunks of consecutive cells that hold at most ``_CHUNK``
elements (a cell's r or r + 1 sub-cell values, ``_EXACT_WIDTH`` for the
exact rule's edge and width arrays) and write one output, which
:class:`NodeData` adopts.  Node data peaks at about 8 B * cells +
c2 * _CHUNK, c2 measured at 4-32 B (exact 4, or 20 with 4096 pieces;
riemann:16 11, trapezoid:64 17, trapezoid:15 on a :class:`Signal` 32), plus
what f allocates per point (8.3 MB for the step at n = 1e6 under the exact
rule, 1.9 MB at n = 1e5 under trapezoid:64).  A sub-cell average is a
pairwise sum over its cell's own contiguous row, so no bit depends on where
the chunks start (a BLAS matrix-vector product rounds a row by how many rows
it is given).

The exact rule sums only the cells a breakpoint cuts.  Two searches of a
chunk's cell edges find, for each piece that meets the chunk, the run of
cells wholly inside it; such a cell's average is the piece's value v, and it
takes v itself (the overlap formula's fl(fl(w * v) / w), w = |cell|, can lie
an ulp off, so a constant piece would leave node values that differ: the
step's node data at n = 150 would change value 89 times instead of 3).  The
cut cells, the gaps between runs, are summed pairwise over a row of every
piece and divided by their width, ``_CHUNK`` // pieces rows a block.  The
step takes 0.3-0.5 ms at n = 1e5 and 4 ms at n = 1e6, 4096 pieces
0.04-0.06 s at n = 1e5 (best of 15 calls, two runs, on 2 shared vCPUs,
numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _CHUNK
from .operators import Domain, EmptyRangeError, NodeData, OperatorSpec, node_bounds
from .signals import PiecewiseConstant, Signal

RULE_KINDS = ("riemann", "trapezoid", "pairmean")
_EXACT_WIDTH = 4  # an exact chunk's edge and width arrays then fill half the budget


@dataclass(frozen=True)
class QuadratureRule:
    """Cell-averaging rule; ``refinement`` is sub-samples per cell."""

    kind: str
    refinement: int = 16

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"rule kind must be one of {RULE_KINDS}, got {self.kind!r}")
        if not (isinstance(self.refinement, (int, np.integer)) and self.refinement >= 1):
            raise ValueError(f"refinement must be a positive integer, got {self.refinement}")
        if self.refinement > _CHUNK:
            # one cell's sub-cell row must fit in one chunk of node data
            raise ValueError(f"--quad refinement must be at most {_CHUNK} sub-cells "
                             f"per cell, got {self.refinement}")


def cell_averages_exact(f: PiecewiseConstant, domain: Domain, n: int) -> NodeData:
    """Exact cell averages of a piecewise-constant function.

    A cell inside one piece takes that piece's value; a cell a breakpoint
    cuts, the overlap sum sum_i |piece_i intersect cell| * value_i / |cell|.
    So no quadrature error enters; only the rounding of each cut cell's sum
    remains (see the module docstring).
    """
    k_lo, k_hi = node_bounds("kantorovich", n, domain)
    edges = np.array((domain.a, *f.breakpoints, domain.b))
    values = np.array(f.values)
    rows = max(1, _CHUNK // len(values))  # cut cells per row-sum block

    def averages(k0, k1, out):
        e = np.arange(k0, k1 + 1, dtype=float) / n  # the bits of k / n
        lo, hi = e[:-1], e[1:]
        # pieces p0 .. p1 - 1 meet the chunk, and piece p0 + i holds the run
        # of cells first[i] .. last[i] - 1 whole
        p0 = int(np.searchsorted(edges, lo[0], "right")) - 1
        p1 = int(np.searchsorted(edges, hi[-1]))
        first = np.searchsorted(lo, edges[p0:p1])
        last = np.searchsorted(hi, edges[p0 + 1:p1 + 1], "right")
        cut, end = [], 0  # the cut cells: the gaps between runs
        for v, i, j in zip(values[p0:p1], first, last):
            cut += range(end, i)
            out[i:j] = v
            end = max(i, j)  # a piece narrower than a cell has j < i
        for b in range(0, len(cut), rows):
            c = cut[b:b + rows]
            terms = np.minimum(hi[c, None], edges[1:])
            terms -= np.maximum(lo[c, None], edges[:-1])
            np.clip(terms, 0.0, None, out=terms)
            out[c] = np.multiply(terms, values, out=terms).sum(axis=1) / (hi[c] - lo[c])

    return _by_cells(k_lo, k_hi, _EXACT_WIDTH, averages)


def pairmean_order(num_samples: int, domain: Domain) -> int:
    """Order of the pairmean rule for ``num_samples`` samples on ``domain``:
    the smallest n with exactly half as many Kantorovich cells as samples."""
    cells, odd = divmod(num_samples, 2)
    w = domain.width
    # order n has floor(n b) - ceil(n a) cells, which lies in (n w - 2, n w]
    for n in range(max(1, math.floor(cells / w) - 1), math.ceil((cells + 2) / w) + 2):
        try:
            k_lo, k_hi = node_bounds("kantorovich", n, domain)
        except EmptyRangeError:
            continue
        if not odd and k_hi - k_lo + 1 == cells:
            return n
    raise ValueError(f"pairwise-mean: no order n has 2 samples per Kantorovich cell "
                     f"on [{domain.a}, {domain.b}]; got {num_samples} samples")


def cell_averages_sampled(s: Signal, n: int, rule: QuadratureRule) -> NodeData:
    """Approximate cell averages of a sampled signal.

    ``riemann`` averages the signal at the ``refinement`` left sub-cell
    endpoints of each cell; ``trapezoid`` applies the composite trapezoid
    rule over the same sub-division; ``pairmean`` averages the two
    consecutive samples covering each cell and requires exactly two samples
    per cell.  Sub-sampling uses nearest-sample lookup, never interpolation.
    """
    if not (s.samples.min() >= 0.0 and s.samples.max() <= 1.0):  # NaN fails too
        raise ValueError("signal values must lie in [0, 1]; normalize_to_unit first")
    k_lo, k_hi = node_bounds("kantorovich", n, s.domain)
    n_cells = k_hi - k_lo + 1

    if rule.kind == "pairmean":
        if len(s) != 2 * n_cells:
            raise ValueError(
                f"pairwise-mean needs exactly 2 samples per cell "
                f"({2 * n_cells}), signal has {len(s)}"
            )
        means = s.samples.reshape(n_cells, 2).mean(axis=1)
        means.setflags(write=False)
        return NodeData(k_lo, k_hi, means)

    r = rule.refinement
    if len(s) < n_cells * r:
        raise ValueError(
            f"SignalTooCoarse: {len(s)} samples cannot supply {r} sub-samples "
            f"for each of {n_cells} cells"
        )
    return _sub_cell_averages(s, k_lo, k_hi, n, rule)


def _sub_cell_averages(f, k_lo: int, k_hi: int, n: int, rule: QuadratureRule) -> NodeData:
    """Average of f over each cell [k/n, (k+1)/n] from its r sub-cells: the
    mean at the r left sub-cell points (``riemann``) or the composite
    trapezoid rule over the r + 1 sub-cell edges (``trapezoid``).  The values
    of f must lie in [0, 1]; NaN is rejected too."""
    r = rule.refinement
    m = r if rule.kind == "riemann" else r + 1
    offsets = np.arange(m) / (n * r)
    weights = np.full(m, 1.0 / r)
    weights[0] = weights[-1] = 0.5 / r

    def averages(k0, k1, out):
        sub = np.arange(k0, k1)[:, None] / n + offsets
        vals = np.asarray(f(sub.ravel()), dtype=float).reshape(k1 - k0, m)
        if not (vals.min() >= 0.0 and vals.max() <= 1.0):  # NaN fails too
            raise ValueError("function values must lie in [0, 1]")
        if rule.kind == "riemann":
            vals.mean(axis=1, out=out)
        else:
            np.sum(vals * weights, axis=1, out=out)

    return _by_cells(k_lo, k_hi, m, averages)


def _by_cells(k_lo: int, k_hi: int, width: int, averages) -> NodeData:
    """Node data of the cells k_lo .. k_hi, ``width`` elements per cell:
    ``averages(k0, k1, out)`` writes the averages of the cells k0 .. k1 - 1
    to ``out``, their slice of one output, for chunks of consecutive cells.
    The output is clipped to [0, 1] in place and handed to :class:`NodeData`
    read-only, so it is adopted, not copied."""
    out = np.empty(k_hi - k_lo + 1)
    step = max(1, _CHUNK // width)
    for start in range(0, len(out), step):
        averages(k_lo + start, k_lo + min(start + step, len(out)), out[start:start + step])
    np.clip(out, 0.0, 1.0, out=out)
    out.setflags(write=False)
    return NodeData(k_lo, k_hi, out)


def sample_node_values(f, spec: OperatorSpec) -> NodeData:
    """Sampling-mode node data: f evaluated at the nodes k/n.

    ``f`` must accept an ndarray of points in [a, b] and return values in
    [0, 1]; signals use their nearest-sample lookup.  The node data keep
    their own copy of what ``f`` returns, since ``f`` belongs to the caller
    and may return an array the caller still holds.
    """
    if spec.mode != "sampling":
        raise ValueError("sample_node_values is for sampling-mode specs")
    k_lo, k_hi = node_bounds(spec.mode, spec.n, spec.domain)
    ks = np.arange(k_lo, k_hi + 1)
    return NodeData(k_lo, k_hi, np.asarray(f(ks / spec.n), dtype=float))


def node_data(f, spec: OperatorSpec, rule: QuadratureRule | None = None) -> NodeData:
    """Node data of ``f`` for ``spec`` on any domain; without a rule, an
    exact-grade one.

    Piecewise-constant functions get exact cell averages; other inputs get
    trapezoid sums over 64 sub-cells, which integrate smooth functions to
    near machine accuracy (exactly, for affine pieces).  A callable is
    evaluated at the sub-cell points themselves; a :class:`Signal` is read
    through :func:`cell_averages_sampled`, which alone takes ``pairmean``.
    """
    if spec.mode == "sampling":
        if rule is not None:
            raise ValueError("a quadrature rule is for Kantorovich mode; sampling takes f at k/n")
        return sample_node_values(f, spec)
    if rule is None:
        if isinstance(f, PiecewiseConstant):
            return cell_averages_exact(f, spec.domain, spec.n)
        rule = QuadratureRule("trapezoid", 64)
    if isinstance(f, Signal):
        return cell_averages_sampled(f, spec.n, rule)
    if rule.kind == "pairmean":
        raise ValueError("pairwise-mean averages sample pairs and needs a sampled "
                         "trace (--input), not a function")
    k_lo, k_hi = node_bounds("kantorovich", spec.n, spec.domain)
    return _sub_cell_averages(f, k_lo, k_hi, spec.n, rule)
