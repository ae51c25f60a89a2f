"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines and timings.
The published L1 error matrix (three Kantorovich operators on the step
function, tanh kernel) is matched within max(5% relative, 0.002 absolute);
the looser absolute floor absorbs the unknown norm-quadrature grid behind
the published digits.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from nnops import (
    Domain,
    NodeData,
    OperatorSpec,
    QuadratureRule,
    absolute_moment,
    brute_force_eval,
    eval_grid,
    eval_kernel,
    eval_operator,
    fit_rate,
    kfunctional_constants,
    kfunctional_upper,
    lp_error,
    make_kernel,
    node_bounds,
    partition_of_unity_defect,
    phi_floor,
    sample_function,
    step_test_function,
    sup_error,
    sup_error_bound,
)
from nnops.cli import main as cli_main
from nnops.experiments import TABLE_FAMILIES, denoise_sweep, error_table

UNIT = Domain(0.0, 1.0)

PUBLISHED_L1 = {
    10: {"linear": 0.1457, "maxmin": 0.1386, "maxprod": 0.1171},
    30: {"linear": 0.0485, "maxmin": 0.0462, "maxprod": 0.0390},
    90: {"linear": 0.0162, "maxmin": 0.0154, "maxprod": 0.0130},
    150: {"linear": 0.0097, "maxmin": 0.0092, "maxprod": 0.0078},
    500: {"linear": 0.0029, "maxmin": 0.0020, "maxprod": 0.0018},
}


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def error_matrix():
    """Measured L1 errors of the three Kantorovich operators, with timing."""
    kernel = make_kernel("tanh")
    t0 = time.time()
    table = error_table(kernel, tuple(PUBLISHED_L1), 1.0, UNIT, 100_000)
    matrix = {n: dict(zip(TABLE_FAMILIES, errs)) for n, errs in table.rows()}
    return matrix, time.time() - t0


def test_criterion_1_error_table_reproduction(error_matrix):
    matrix, elapsed = error_matrix
    failures = []
    for n, row in PUBLISHED_L1.items():
        for family, want in row.items():
            got = matrix[n][family]
            if abs(got - want) > max(0.05 * want, 0.002):
                failures.append(f"{family} n={n}: got {got:.4f} want {want:.4f}")
    detail = f"15 values within max(5%, 0.002), {elapsed:.1f}s"
    if failures:
        detail = "; ".join(failures)
    _report("error-table-reproduction", not failures and elapsed < 60.0, detail)


def test_criterion_2_constant_reproduction(catalogue):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for kernel in catalogue.values():
        for mode in ("sampling", "kantorovich"):
            for family in ("linear", "maxprod", "maxmin"):
                for n in (5, 17, 100):
                    spec = OperatorSpec(family, mode, n, UNIT, kernel)
                    k_lo, k_hi = node_bounds(mode, n, UNIT)
                    xs = rng.uniform(0.0, 1.0, 100)
                    for c in rng.uniform(0.0, 1.0, 20):
                        data = NodeData(k_lo, k_hi, np.full(k_hi - k_lo + 1, c))
                        out = eval_grid(spec, data, xs)
                        worst = max(worst, float(np.abs(out - c).max()))
    _report(
        "constant-reproduction",
        worst <= 1e-12,
        f"6 operators x 5 kernels x 3 n x 20 constants, worst dev {worst:.2e}",
    )


def test_criterion_3_kernel_invariants(catalogue):
    problems = []
    xs_half = np.linspace(0.0, 20.0, 10_001)
    for name, k in catalogue.items():
        pos = eval_kernel(k, xs_half)
        neg = eval_kernel(k, -xs_half)
        if pos.min() < 0.0 or neg.min() < 0.0:
            problems.append(f"{name}: negative value")
        if max(pos.max(), neg.max()) > 0.5:
            problems.append(f"{name}: exceeds 1/2")
        if np.abs(pos - neg).max() >= 1e-12:
            problems.append(f"{name}: evenness violated")
        if np.any(np.diff(pos) > 1e-12) or np.any(np.diff(neg) > 1e-12):
            problems.append(f"{name}: not unimodal")

    for name in ("logistic", "tanh", "power"):
        if phi_floor(catalogue[name]) <= 0.0:
            problems.append(f"{name}: phi(2) not positive")

    probe_xs = [0.0, 0.1, 0.2, 0.3, 0.37, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for name, window, tol in (
        ("logistic", 50, 1e-9),
        ("tanh", 50, 1e-9),
        ("power", 10_000, 1e-2),
    ):
        worst = max(
            partition_of_unity_defect(catalogue[name], x, window) for x in probe_xs
        )
        if worst >= tol:
            problems.append(f"{name}: partition defect {worst:.2e} >= {tol}")
    for name in ("ramp", "three"):
        defects = [partition_of_unity_defect(catalogue[name], x, 2) for x in probe_xs]
        if any(d != 0.0 for d in defects):
            problems.append(f"{name}: truncated sum not exact")

    # power-law tail bound on an independently spaced scan grid
    for name, k in catalogue.items():
        m, l = k.decay_m, k.decay_l
        scan = np.geomspace(l * 1.003, 9.7e5, 3173)
        if np.any(eval_kernel(k, scan) > m * scan ** -(1.0 + k.alpha)):
            problems.append(f"{name}: tail bound violated on scan grid")

    # truncated-tail maxima: sup over |t| > n*delta of phi(t)
    delta = 0.1
    for name, k in catalogue.items():
        for n in (10, 100, 1000):
            cutoff = n * delta
            ts = np.concatenate(
                [np.linspace(cutoff, cutoff + 50.0, 20_000),
                 np.geomspace(cutoff + 50.0, 1e6, 4000)]
            )
            tail_max = float(eval_kernel(k, ts).max())
            if tail_max > k.decay_m * cutoff ** -(1.0 + k.alpha):
                problems.append(f"{name}: truncated tail at n={n} exceeds bound")

    _report("kernel-invariants", not problems, "; ".join(problems) or
            "nonnegativity, unimodality, evenness, partition, tail bounds")


def test_criterion_4_algebra_and_oracle(catalogue, step):
    rng = np.random.default_rng(77)
    problems = []

    # |max a - max b| <= max |a - b|
    for _ in range(1000):
        m = int(rng.integers(1, 40))
        a, b = rng.uniform(-1, 1, (2, m))
        if abs(a.max() - b.max()) > np.abs(a - b).max() + 1e-15:
            problems.append("max difference inequality")
            break

    # |x^y - x^z| <= x^|y - z| with ^ = min, on [0,1]
    for _ in range(1000):
        x, y, z = rng.uniform(0, 1, 3)
        if abs(min(x, y) - min(x, z)) > min(x, abs(y - z)) + 1e-15:
            problems.append("min contraction inequality")
            break

    # (max a)^p = max a^p and (min a)^p = min a^p for a >= 0
    for _ in range(1000):
        m = int(rng.integers(1, 30))
        a = rng.uniform(0, 2, m)
        p = rng.choice([0.5, 1.0, 2.0, 3.0])
        if abs(a.max() ** p - (a**p).max()) > 1e-12:
            problems.append("max power identity")
            break
        if abs(a.min() ** p - (a**p).min()) > 1e-12:
            problems.append("min power identity")
            break

    # max-min operator: monotone, sublinear, contraction (1000 cases each)
    kernels = list(catalogue.values())

    def random_case():
        mode = ("sampling", "kantorovich")[int(rng.integers(0, 2))]
        n = int(rng.integers(3, 30))
        spec = OperatorSpec("maxmin", mode, n, UNIT, kernels[int(rng.integers(0, 5))])
        k_lo, k_hi = node_bounds(mode, n, UNIT)
        width = k_hi - k_lo + 1
        return spec, k_lo, k_hi, width, float(rng.uniform(0, 1))

    for _ in range(1000):
        spec, k_lo, k_hi, width, x = random_case()
        v = rng.uniform(0, 1, width)
        u = np.minimum(1.0, v + rng.uniform(0, 1, width) * (1.0 - v))
        ev = eval_operator(spec, NodeData(k_lo, k_hi, v), x)
        eu = eval_operator(spec, NodeData(k_lo, k_hi, u), x)
        if ev > eu + 1e-12:
            problems.append("monotonicity")
            break

    for _ in range(1000):
        spec, k_lo, k_hi, width, x = random_case()
        v = rng.uniform(0, 1, width)
        u = rng.uniform(0, 1, width) * (1.0 - v)
        lhs = eval_operator(spec, NodeData(k_lo, k_hi, v + u), x)
        rhs = eval_operator(spec, NodeData(k_lo, k_hi, v), x) + eval_operator(
            spec, NodeData(k_lo, k_hi, u), x
        )
        if lhs > rhs + 1e-12:
            problems.append("sublinearity")
            break

    for _ in range(1000):
        spec, k_lo, k_hi, width, x = random_case()
        v, u = rng.uniform(0, 1, (2, width))
        lhs = abs(
            eval_operator(spec, NodeData(k_lo, k_hi, v), x)
            - eval_operator(spec, NodeData(k_lo, k_hi, u), x)
        )
        rhs = eval_operator(spec, NodeData(k_lo, k_hi, np.abs(v - u)), x)
        if lhs > rhs + 1e-12:
            problems.append("contraction")
            break

    # non-homogeneity: a witness must exist
    spec = OperatorSpec("maxmin", "sampling", 10, UNIT, catalogue["tanh"])
    spike = np.zeros(11)
    spike[0] = 1.0
    found = False
    for x in np.linspace(0.0, 1.0, 101):
        lhs = eval_operator(spec, NodeData(0, 10, 0.5 * spike), float(x))
        rhs = 0.5 * eval_operator(spec, NodeData(0, 10, spike), float(x))
        if abs(lhs - rhs) > 1e-6:
            found = True
            break
    if not found:
        problems.append("no non-homogeneity witness found")

    # oracle equivalence on 1e4 random instances
    worst = 0.0
    for _ in range(250):
        family = ("linear", "maxprod", "maxmin")[int(rng.integers(0, 3))]
        mode = ("sampling", "kantorovich")[int(rng.integers(0, 2))]
        n = int(rng.integers(3, 40))
        spec = OperatorSpec(family, mode, n, UNIT, kernels[int(rng.integers(0, 5))])
        k_lo, k_hi = node_bounds(mode, n, UNIT)
        data = NodeData(k_lo, k_hi, rng.uniform(0, 1, k_hi - k_lo + 1))
        for x in rng.uniform(0, 1, 40):
            worst = max(
                worst,
                abs(
                    eval_operator(spec, data, float(x))
                    - brute_force_eval(spec, data, float(x))
                ),
            )
    if worst > 1e-12:
        problems.append(f"oracle deviation {worst:.2e}")

    _report("algebra-and-oracle", not problems, "; ".join(problems) or
            f"all property suites clean, oracle worst dev {worst:.2e}")


def test_criterion_5_lp_convergence(error_matrix):
    matrix, _ = error_matrix
    ns = sorted(matrix)
    maxmin_errors = [matrix[n]["maxmin"] for n in ns]
    decreasing = all(a > b for a, b in zip(maxmin_errors, maxmin_errors[1:]))

    kernel = make_kernel("tanh")
    sweep = (25, 50, 100, 200, 400)
    sup_errors = []
    for n in sweep:
        spec = OperatorSpec("maxmin", "kantorovich", n, UNIT, kernel)
        k_lo, k_hi = node_bounds("kantorovich", n, UNIT)
        ks = np.arange(k_lo, k_hi + 1)
        data = NodeData(k_lo, k_hi, (ks + 0.5) / n)  # exact averages of x
        sup_errors.append(
            sup_error(lambda xs, s=spec, d=data: eval_grid(s, d, xs),
                      lambda xs: np.asarray(xs), UNIT, 2001)
        )
    slope = fit_rate(np.array(sweep), sup_errors)
    ok = decreasing and slope <= -0.6
    _report(
        "lp-convergence",
        ok,
        f"L1 strictly decreasing: {decreasing}; sup-error slope {slope:.3f} <= -0.6",
    )


def test_criterion_6_bound_validity():
    kernel = make_kernel("tanh")
    alpha = kernel.alpha
    moment = absolute_moment(kernel, 1.0 + alpha, resolution=20_000)
    identity = lambda xs: np.asarray(xs, dtype=float)
    problems = []

    for n in (30, 90, 270):
        spec = OperatorSpec("maxmin", "kantorovich", n, UNIT, kernel)
        k_lo, k_hi = node_bounds("kantorovich", n, UNIT)
        ks = np.arange(k_lo, k_hi + 1)
        data = NodeData(k_lo, k_hi, (ks + 0.5) / n)
        op = lambda xs, s=spec, d=data: eval_grid(s, d, xs)

        measured_sup = sup_error(op, identity, UNIT, 2001)
        bound_sup = sup_error_bound(
            identity, n, n**-0.5, kernel, moment, UNIT, grid_points=4001
        )
        if bound_sup < measured_sup:
            problems.append(
                f"sup bound {bound_sup:.4f} < measured {measured_sup:.4f} at n={n}"
            )

        measured_l1 = lp_error(op, identity, 1.0, UNIT, 10_000)
        kc = kfunctional_constants(1.0, UNIT, kernel, moment)
        delta_n = n ** -((1.0 + alpha) / (2.0 + alpha))
        est = kfunctional_upper(identity, kc.B * delta_n, 1.0, UNIT, alpha)
        bound_l1 = kc.A * est.value + kc.moment_term * delta_n
        if bound_l1 < measured_l1:
            problems.append(
                f"L1 bound {bound_l1:.4f} < measured {measured_l1:.4f} at n={n}"
            )

    _report("bound-validity", not problems, "; ".join(problems) or
            "modulus and K-functional bounds dominate at n in {30, 90, 270}")


def test_criterion_7_denoising_advantage(step):
    t0 = time.time()
    n, sigma, refinement = 2000, 0.05, 16
    kernel = make_kernel("logistic", scale=0.1)
    base = sample_function(step, UNIT, n * refinement)
    rule = QuadratureRule("riemann", refinement)
    sweep = denoise_sweep(base, step, n, kernel, rule, sigma, range(20), 2000)
    wins = sweep.wins
    elapsed = time.time() - t0
    _report(
        "denoising-advantage",
        wins >= 18 and elapsed < 120.0,
        f"Kantorovich max-min won {wins}/20 seeds "
        f"(mean {np.mean(sweep.l1['kant_maxmin']):.4f} vs "
        f"{np.mean(sweep.l1['samp_maxmin']):.4f}; "
        f"max-product {np.mean(sweep.l1['kant_maxprod']):.4f}), {elapsed:.1f}s",
    )


def test_criterion_8_cli_determinism(capsys, tmp_path):
    cases = [
        ["kernel-info", "--kernel", "power:0.5", "--resolution", "5000"],
        ["approximate", "--n", "20", "--fn", "step", "--grid", "200"],
        ["error-table", "--n-list", "10,30", "--grid", "10000"],
        ["rate", "--fn", "identity", "--n-list", "10,20,40", "--grid", "1000"],
        ["denoise", "--n", "200", "--sigma", "0.05", "--seed", "11",
         "--kernel", "logistic", "--scale", "0.1", "--grid", "200"],
    ]
    problems = []
    for argv in cases:
        outs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            if code != 0:
                problems.append(f"{argv[0]}: exit {code}")
            outs.append(captured.out)
        if outs[0] != outs[1]:
            problems.append(f"{argv[0]}: outputs differ between runs")

    # the installed console entry point, twice, byte-compared
    runs = [
        subprocess.run(
            [sys.executable, "-m", "nnops.cli", "kernel-info", "--kernel", "tanh",
             "--resolution", "2000"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    if runs[0].stdout != runs[1].stdout or runs[0].returncode != 0:
        problems.append("subprocess runs differ")

    _report("cli-determinism", not problems, "; ".join(problems) or
            "all 5 subcommands byte-identical across repeated runs")
