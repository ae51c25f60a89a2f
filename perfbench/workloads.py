"""The benchmark's three workloads, run against nnops' public API.

Each workload has a set-up, a timed part that returns one :class:`Op` per
``eval_grid`` result and calls ``lap()`` after each unit of its work (see
calibration.py), and checks of those results.  The seed picks the noise seeds and the points at which each
result is compared with the scalar oracle ``brute_force_eval``; nnops only
ever receives the generated inputs.  Why each workload was chosen is in
README.md next to this file.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass

import numpy as np

#: oracle points checked per eval_grid result
ORACLE_POINTS = 3

#: largest |eval_grid - brute_force_eval| accepted, the acceptance tolerance.
#: The scalar oracle uses math.tanh/math.exp, which differ from numpy's in the
#: last bit, so even the max families deviate from it by up to ~3e-16; they
#: must instead agree bitwise with eval_operator, the library's one-point path.
ORACLE_TOL = 1e-12

#: README reference L1 errors of the Kantorovich operators (tanh, step function)
REFERENCE_L1 = {
    10: {"linear": 0.1457, "maxmin": 0.1386, "maxprod": 0.1171},
    30: {"linear": 0.0485, "maxmin": 0.0462, "maxprod": 0.0390},
    90: {"linear": 0.0162, "maxmin": 0.0154, "maxprod": 0.0130},
    150: {"linear": 0.0097, "maxmin": 0.0092, "maxprod": 0.0078},
    500: {"linear": 0.0029, "maxmin": 0.0020, "maxprod": 0.0018},
}


def import_nnops():
    """Import nnops afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "nnops" or m.startswith("nnops.")]:
        del sys.modules[name]
    return importlib.import_module("nnops")


@dataclass
class Op:
    """One eval_grid result: its outputs ``ys`` at the oracle points ``xs``,
    the L1 distance computed from it, and the error it raised, if any."""

    label: str
    spec: object
    data: object
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None
    l1: float | None = None
    reference: float | None = None
    error: str | None = None


def _l1(api, op: Op, f, grid_points: int, picks: np.ndarray) -> Op:
    """L1 distance of one operator to ``f``, keeping its outputs at ``picks``
    (fractions of the norm grid) for the oracle check."""

    def g(xs):
        ys = api.eval_grid(op.spec, op.data, xs)
        idx = (picks * len(xs)).astype(int)
        op.xs, op.ys = xs[idx], ys[idx]
        return ys

    try:
        op.l1 = api.lp_error(g, f, 1.0, op.spec.domain, grid_points)
    except Exception as exc:  # a failed operation is counted, not fatal
        op.error = repr(exc)
    return op


def check_op(op: Op, nnops) -> tuple[bool, float]:
    """Whether ``op`` passes, and its largest deviation from the oracle."""
    if op.error is not None or op.ys is None:
        return False, math.inf
    try:
        oracle = np.array([nnops.brute_force_eval(op.spec, op.data, float(x))
                           for x in op.xs])
        point = np.array([nnops.eval_operator(op.spec, op.data, float(x))
                          for x in op.xs])
    except Exception:  # the checks reject what eval_grid accepted
        return False, math.inf
    dev = np.abs(op.ys - oracle)
    ok = bool(np.all(dev <= ORACLE_TOL))
    if op.spec.family != "linear":
        ok = ok and np.array_equal(op.ys, point)
    if op.reference is not None:
        ok = ok and op.l1 is not None and abs(op.l1 - op.reference) <= max(
            0.05 * op.reference, 0.002
        )
    return ok, float(dev.max(initial=0.0))


class ErrorTable:
    """The paper's headline table: 3 Kantorovich families x 5 orders."""

    name = "error_table"
    probe = "numpy"  # calibration probe whose drift its time follows

    def __init__(self, n_values=(10, 30, 90, 150, 500), grid_points=100_000):
        self.n_values = n_values
        self.grid_points = grid_points

    def ops_per_run(self) -> int:
        return 3 * len(self.n_values)

    def setup(self, api, seed: int) -> dict:
        return {
            "domain": api.Domain(0.0, 1.0),
            "kernel": api.make_kernel("tanh"),
            "f": api.step_test_function(),
        }

    def run(self, api, inputs: dict, picks: np.ndarray, lap=lambda: None) -> list[Op]:
        ops = []
        for n in self.n_values:
            data = api.cell_averages_exact(inputs["f"], inputs["domain"], n)
            for family in ("linear", "maxmin", "maxprod"):
                spec = api.OperatorSpec(family, "kantorovich", n, inputs["domain"],
                                        inputs["kernel"])
                op = Op(f"{family} n={n}", spec, data,
                        reference=REFERENCE_L1.get(n, {}).get(family))
                ops.append(_l1(api, op, inputs["f"], self.grid_points, picks[len(ops)]))
                lap()
        return ops

    def report(self, ops: list[Op]) -> tuple[bool, dict]:
        devs = [abs(op.l1 - op.reference) / op.reference
                for op in ops if op.l1 is not None and op.reference is not None]
        return True, {
            "ref_max_rel_dev": max(devs, default=math.nan),
            "l1": {op.label: op.l1 for op in ops},
        }


class DenoiseSweep:
    """20 noise seeds x {kant maxmin, samp maxmin, kant maxprod}: new data every
    seed, one weight matrix per operator."""

    name = "denoise_sweep"
    probe = "numpy"  # calibration probe whose drift its time follows

    def __init__(self, n=2000, seeds=20, refinement=16, grid_points=2000):
        self.n = n
        self.seeds = seeds
        self.refinement = refinement
        self.grid_points = grid_points

    def ops_per_run(self) -> int:
        return 3 * self.seeds

    def setup(self, api, seed: int) -> dict:
        domain = api.Domain(0.0, 1.0)
        kernel = api.make_kernel("logistic", scale=0.1)
        f = api.step_test_function()
        return {
            "domain": domain,
            "f": f,
            "base": api.sample_function(f, domain, self.n * self.refinement),
            "rule": api.QuadratureRule("riemann", self.refinement),
            "specs": [api.OperatorSpec(family, mode, self.n, domain, kernel)
                      for family, mode in (("maxmin", "kantorovich"),
                                           ("maxmin", "sampling"),
                                           ("maxprod", "kantorovich"))],
            # seed 0 gives noise seeds 0..19, the acceptance sweep
            "noise_seeds": range(seed * self.seeds, (seed + 1) * self.seeds),
        }

    def run(self, api, inputs: dict, picks: np.ndarray, lap=lambda: None) -> list[Op]:
        spec_k, spec_f, spec_m = inputs["specs"]
        ops = []
        for noise_seed in inputs["noise_seeds"]:
            noisy = api.add_gaussian_noise(inputs["base"], 0.05, noise_seed)
            data_k = api.cell_averages_sampled(noisy, self.n, inputs["rule"])
            data_f = api.sample_node_values(noisy, spec_f)
            for spec, data in ((spec_k, data_k), (spec_f, data_f), (spec_m, data_k)):
                op = Op(f"{spec.family}/{spec.mode} noise seed {noise_seed}", spec, data)
                ops.append(_l1(api, op, inputs["f"], self.grid_points, picks[len(ops)]))
            lap()
        return ops

    def report(self, ops: list[Op]) -> tuple[bool, dict]:
        kant, samp = ops[0::3], ops[1::3]
        wins = sum(k.l1 is not None and s.l1 is not None and k.l1 <= s.l1
                   for k, s in zip(kant, samp))
        need = math.ceil(0.9 * self.seeds)
        return wins >= need, {
            "denoise_wins": wins,
            "denoise_wins_needed": need,
            "denoise_l1_mean": float(np.mean([k.l1 if k.l1 is not None else math.nan
                                              for k in kant])),
        }


class LargeN:
    """One Kantorovich max-min evaluation at n = 100000: node data dominates."""

    name = "large_n"
    probe = "python"  # calibration probe whose drift its time follows

    def __init__(self, n=100_000, grid=256):
        self.n = n
        self.grid = grid

    def ops_per_run(self) -> int:
        return 1

    def setup(self, api, seed: int) -> dict:
        domain = api.Domain(0.0, 1.0)
        return {
            "domain": domain,
            "kernel": api.make_kernel("tanh"),
            "f": api.step_test_function(),
            "xs": np.linspace(0.0, 1.0, self.grid),
        }

    def run(self, api, inputs: dict, picks: np.ndarray, lap=lambda: None) -> list[Op]:
        domain = inputs["domain"]
        spec = api.OperatorSpec("maxmin", "kantorovich", self.n, domain, inputs["kernel"])
        op = Op(f"maxmin n={self.n}", spec, None)
        try:
            op.data = api.cell_averages_exact(inputs["f"], domain, self.n)
            lap()
            ys = api.eval_grid(spec, op.data, inputs["xs"])
            idx = (picks[0] * len(ys)).astype(int)
            op.xs, op.ys = inputs["xs"][idx], ys[idx]
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = repr(exc)
        return [op]

    def report(self, ops: list[Op]) -> tuple[bool, dict]:
        return True, {}


WORKLOADS = {w.name: w for w in (ErrorTable(), DenoiseSweep(), LargeN())}
