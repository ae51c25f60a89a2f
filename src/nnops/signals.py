"""Test functions, sampled signals, noise injection, and CSV ingestion.

The operators expect functions with values in [0, 1]; raw traces (for
instance ECG excerpts in millivolts) are brought into range by the affine
map of :func:`normalize_to_unit`, which returns its (offset, gain) beside the
mapped signal.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .operators import Domain, read_only


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise constant function: value i on the i-th piece.

    Pieces follow the left-closed-first convention: the first piece is
    [a, b_1] and every later piece is (b_i, b_{i+1}], so the value at a
    breakpoint belongs to the piece on its left.
    """

    domain: Domain
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bps) + 1:
            raise ValueError("need exactly one value per piece")
        if not all(0.0 <= v <= 1.0 for v in vals):  # NaN fails too
            raise ValueError("piece values must lie in [0, 1]")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if bps and not (self.domain.a < bps[0] and bps[-1] < self.domain.b):
            raise ValueError("breakpoints must be interior to the domain")

    def __call__(self, x):
        xa = np.asarray(x, dtype=float)
        idx = np.searchsorted(np.array(self.breakpoints), xa, side="left")
        out = np.array(self.values)[idx]
        return float(out) if np.ndim(x) == 0 else out


def step_test_function(domain: Domain = Domain(0.0, 1.0)) -> PiecewiseConstant:
    """The discontinuous four-level step function used throughout the
    experiments: 0.2, 0.9, 0.3, 0.6 with jumps at a + (0.2, 0.5, 0.8)(b - a)
    on the domain [a, b]."""
    jumps = tuple(domain.a + r * domain.width for r in (0.2, 0.5, 0.8))
    return PiecewiseConstant(domain, jumps, (0.2, 0.9, 0.3, 0.6))


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled trace over a closed domain, endpoints inclusive.

    Calling the signal performs nearest-sample lookup (no interpolation).
    ``samples`` are read-only, adopted or copied by :func:`read_only`.
    """

    domain: Domain
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = read_only(self.samples)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or len(samples) < 2:
            raise ValueError("a signal needs at least 2 samples")
        if not np.isfinite(samples).all():
            raise ValueError("signal samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)

    def __call__(self, x):
        d = self.domain
        pos = (np.asarray(x, dtype=float) - d.a) / d.width * (len(self.samples) - 1)
        idx = np.clip(np.rint(pos).astype(int), 0, len(self.samples) - 1)
        out = self.samples[idx]
        return float(out) if np.ndim(x) == 0 else out


def add_gaussian_noise(s: Signal, sigma: float, seed: int) -> Signal:
    """Add independent N(0, sigma^2) noise to every sample, clipped to [0, 1].

    The generator is numpy's PCG64 (``np.random.default_rng``), so the output
    is fully determined by (seed, sigma).  Clipping keeps the noisy signal a
    valid operator input; for sigma around 0.05 it touches only the samples
    already near 0 or 1.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if seed < 0:  # checked at sigma = 0 too, where no generator is made
        raise ValueError(f"seed must be >= 0, got {seed}")
    if sigma == 0.0:
        return s
    z = np.random.default_rng(seed).standard_normal(len(s))
    with np.errstate(over="ignore"):  # a huge sigma gives +-inf, which clips to 1 or 0
        z *= sigma
    z += s.samples  # samples + sigma * z, bit for bit: addition commutes
    np.clip(z, 0.0, 1.0, out=z)
    z.setflags(write=False)
    return Signal(s.domain, z)


def normalize_to_unit(s: Signal) -> tuple[Signal, float, float]:
    """Affinely map the sample range onto [0, 1]; returns the mapped signal,
    the offset and the gain (original values are offset + gain * sample)."""
    lo = float(s.samples.min())
    hi = float(s.samples.max())
    if hi == lo:
        raise ValueError("all samples equal; cannot normalize")
    if not math.isfinite(hi - lo):  # the gain would overflow, every sample 0 or nan
        raise ValueError(f"sample range [{lo!r}, {hi!r}] is wider than the float range")
    z = s.samples - lo
    z /= hi - lo  # (samples - lo) / (hi - lo), bit for bit, in z's own memory
    z.setflags(write=False)
    return Signal(s.domain, z), lo, hi - lo


def load_signal_csv(path, column: str, domain: Domain = Domain(0.0, 1.0)) -> Signal:
    """Load a uniformly sampled signal from a CSV file.

    The first row is the header, and ``column`` names the value column.
    Rows are taken in file order and placed on a uniform grid over
    ``domain``; no resampling is performed.  A file without the column or
    with fewer than 2 rows raises ValueError, and so does a cell that does
    not parse or holds nan/inf, naming its row and column, since one
    non-finite node value poisons every output of the max families.
    """
    with open(path, newline="") as fh:
        # rows are streamed, so only the parsed values are held: 8 B a row
        rows = (r for r in csv.reader(fh) if r and any(cell.strip() for cell in r))
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if column not in header:
            raise ValueError(f"{path}: no column named {column!r}")
        col = header.index(column)
        values = np.fromiter((_csv_value(path, i, row, col) for i, row in enumerate(rows)),
                             dtype=float)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 rows, got {len(values)}")
    values.setflags(write=False)
    return Signal(domain, values)


def _csv_value(path, i: int, row: list, col: int) -> float:
    """The finite value in column ``col`` of data row ``i``; a ValueError
    names the row and column otherwise."""
    if col >= len(row):
        raise ValueError(f"{path}: row {i} has no column {col}")
    try:
        value = float(row[col])
    except ValueError:
        raise ValueError(
            f"{path}: row {i}, column {col}: cannot parse {row[col]!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(
            f"{path}: row {i}, column {col}: non-finite value {row[col]!r}"
        )
    return value


def sample_function(f, domain: Domain, num_samples: int) -> Signal:
    """Sample a callable on the inclusive uniform grid of ``num_samples``.

    The Signal keeps its own copy of what ``f`` returns, since ``f`` belongs
    to the caller and may return an array the caller still holds."""
    if num_samples < 2:
        raise ValueError("need at least 2 samples")
    xs = np.linspace(domain.a, domain.b, num_samples)
    return Signal(domain, np.asarray(f(xs), dtype=float))


def holder_test_function(beta: float, domain: Domain = Domain(0.0, 1.0)):
    """The function ((x - a)/(b - a))^beta, Hoelder continuous of order beta
    on the domain (Lipschitz for beta = 1), with values exactly in [0, 1]."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")

    def f(x):
        t = (np.asarray(x, dtype=float) - domain.a) / domain.width
        out = np.clip(t, 0.0, 1.0) ** beta
        return float(out) if np.ndim(x) == 0 else out

    return f
