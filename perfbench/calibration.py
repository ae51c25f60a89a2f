"""Scaling measured times by the machine's speed at the moment they were taken.

On a shared machine the speed of all computation drifts by 30-100% over
minutes with the neighbours' load, which would swamp the changes the
benchmark is meant to show.  So a timed pass is cut into units (one noise
seed, one operator, one layer call), and between units, outside the timed
intervals, a fixed probe computation is timed.  Each unit's time is scaled
by the reference probe time over the mean of the probes on either side of
it.  No nnops code runs inside a probe, so a change to nnops moves the
scaled times as much as the raw ones.

Measured over such drifts, numpy-bound passes (``error_table``,
``denoise_sweep``) follow a numpy probe like nnops' hot loops (tanh, exp,
minimum and row maxima over 8 MB), while set-up (imports) and ``large_n``
(a per-cell Python loop and fresh 200 MB arrays) follow a pure-Python probe;
each workload names its probe.
"""

from __future__ import annotations

import time

#: probe repetitions per measurement
REPS = {"numpy": 5, "python": 25}

#: mean time of one probe repetition on the reference machine (2 vCPUs at
#: 2.0 GHz, Python 3.11, numpy 2.4) in a quiet phase
REFERENCE_S = {"numpy": 0.0130, "python": 0.0013}


class Calibration:
    """The probes, and every probe time measured so far."""

    def __init__(self, np) -> None:
        x = np.linspace(-8.0, 8.0, 1 << 20)

        def numpy_probe():
            y = np.tanh(x) + np.exp(-np.abs(x))
            np.minimum(y.reshape(1024, 1024), 0.5).max(axis=1)

        self._probes = {"numpy": numpy_probe,
                        "python": lambda: sum(i * i for i in range(20_000))}
        self.samples: dict[str, list[float]] = {kind: [] for kind in self._probes}

    def measure(self, kind: str) -> float:
        """Mean time of one repetition of the ``kind`` probe."""
        probe = self._probes[kind]
        t0 = time.perf_counter()
        for _ in range(REPS[kind]):
            probe()
        self.samples[kind].append((time.perf_counter() - t0) / REPS[kind])
        return self.samples[kind][-1]


class Stopwatch:
    """Times units of work, probing the machine between them."""

    def __init__(self, calibration: Calibration, kind: str) -> None:
        self._calibration = calibration
        self._kind = kind
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._before = calibration.measure(kind)
        self._t0 = time.perf_counter()

    def resume(self) -> None:
        """Start the next unit now, leaving out what ran since the last lap."""
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        """End one unit, record its time raw and scaled, and start the next."""
        seconds = time.perf_counter() - self._t0
        after = self._calibration.measure(self._kind)
        self.raw.append(seconds)
        self.scaled.append(seconds * REFERENCE_S[self._kind] * 2.0 / (self._before + after))
        self._before = after
        self._t0 = time.perf_counter()
