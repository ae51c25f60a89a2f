"""Helpers the tests share: a kernel identity check, a CSV writer for
signals, the generator of the bundled ECG-like fixture, and a peak-memory
probe."""

import io
import tracemalloc

import numpy as np

from nnops import Domain, Kernel, Signal, eval_kernel


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


def signal_to_csv(s: Signal) -> str:
    """``x,value`` rows with 17 significant digits, under that header."""
    buf = io.StringIO()
    buf.write("x,value\n")
    xs = np.linspace(s.domain.a, s.domain.b, len(s.samples))
    for x, v in zip(xs, s.samples):
        buf.write(f"{x:.17g},{v:.17g}\n")
    return buf.getvalue()


def synthetic_ecg(num_samples: int = 1600, beats: int = 5) -> Signal:
    """Deterministic ECG-like trace: per beat a tall narrow R spike, small
    Q/S dips, and broader P and T bumps, all Gaussian, on a flat baseline.

    Values stay inside [0, 1]; ``data/ecg_synthetic.csv`` is
    ``signal_to_csv(synthetic_ecg())``.
    """
    if beats < 1:
        raise ValueError("need at least one beat")
    xs = np.linspace(0.0, 1.0, num_samples)
    period = 1.0 / beats
    # (amplitude, center offset within the beat, width), in beat periods
    waves = (
        (0.07, -0.22, 0.045),  # P
        (-0.05, -0.06, 0.012),  # Q
        (0.52, 0.0, 0.016),  # R
        (-0.08, 0.06, 0.014),  # S
        (0.13, 0.26, 0.07),  # T
    )
    out = np.full(num_samples, 0.32)
    wave = np.empty(num_samples)
    for i in range(beats):
        center = (i + 0.5) * period
        for amp, off, width in waves:
            # amp exp(-((xs - mu) / w)^2 / 2), bit for bit, in one array
            np.subtract(xs, center + off * period, out=wave)
            wave /= width * period
            wave *= wave
            wave *= -0.5
            np.exp(wave, out=wave)
            wave *= amp
            out += wave
    np.clip(out, 0.0, 1.0, out=out)
    out.setflags(write=False)
    return Signal(Domain(0.0, 1.0), out)


def traced_peak(make):
    """What ``make()`` returns, and the peak of memory it allocated."""
    tracemalloc.start()
    try:
        out = make()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
