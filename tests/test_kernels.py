import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnops import (
    Domain,
    Kernel,
    NodeData,
    OperatorSpec,
    Sigmoid,
    absolute_moment,
    eval_grid,
    eval_kernel,
    kernel_to_json,
    make_kernel,
    partition_of_unity_defect,
    phi_floor,
)
from nnops import kernels, operators
from conftest import NONCOMPACT, VARIANTS


def oracle_sigmoid(s: Sigmoid, x: float) -> float:
    """The activation as the scalar oracle transcribes it; ``eval_kernel``
    uses closed forms of the kernel instead."""
    return operators._scalar_sigmoid(s.variant, s.gamma, float(x))


class TestSigmoidEvaluation:
    def test_ramp_midpoint(self):
        assert oracle_sigmoid(Sigmoid("ramp"), 0.0) == 0.5

    def test_three_step_values(self):
        s = Sigmoid("three")
        assert oracle_sigmoid(s, 0.6) == 1.0
        assert oracle_sigmoid(s, -0.6) == 0.0
        # the middle level is taken on the closed interval
        assert oracle_sigmoid(s, -0.5) == 0.5
        assert oracle_sigmoid(s, 0.5) == 0.5

    def test_power_tail_closed_form(self):
        s = Sigmoid("power", gamma=1.0)
        assert oracle_sigmoid(s, 3.0) == (3.0 + 1.0) / (3.0 + 2.0)  # 4/5
        assert oracle_sigmoid(s, -3.0) == 1.0 / (3.0 + 2.0)

    def test_power_tail_continuous_at_junctions(self):
        for gamma in (0.25, 0.5, 1.0):
            s = Sigmoid("power", gamma=gamma)
            t = 2.0 ** (1.0 / gamma)
            for x in (t, -t):
                lo = oracle_sigmoid(s, x - 1e-9)
                hi = oracle_sigmoid(s, x + 1e-9)
                assert abs(hi - lo) < 1e-6

    def test_limits(self):
        for v in ("logistic", "tanh", "ramp", "three"):
            s = Sigmoid(v)
            assert oracle_sigmoid(s, -1e6) < 1e-3
            assert oracle_sigmoid(s, 1e6) > 1.0 - 1e-3
        # power variant: compare against its own algebraic tails
        for gamma in (0.25, 1.0):
            s = Sigmoid("power", gamma=gamma)
            assert oracle_sigmoid(s, -1e6) == 1.0 / (1e6**gamma + 2.0)
            assert oracle_sigmoid(s, 1e6) == (1e6**gamma + 1.0) / (1e6**gamma + 2.0)

    def test_nondecreasing_and_in_range(self):
        xs = np.linspace(-50.0, 50.0, 20_001)
        for v in VARIANTS:
            ys = np.array([oracle_sigmoid(Sigmoid(v), x) for x in xs])
            assert np.all(np.diff(ys) >= 0.0), v
            assert ys.min() >= 0.0 and ys.max() <= 1.0, v

    def test_separation_assumption(self):
        # sigma(3) > sigma(1) holds strictly for the full-support variants;
        # ramp and three saturate at 1/2 so both values equal 1
        for v in NONCOMPACT:
            s = Sigmoid(v)
            assert oracle_sigmoid(s, 3.0) > oracle_sigmoid(s, 1.0), v
        for v in ("ramp", "three"):
            s = Sigmoid(v)
            assert oracle_sigmoid(s, 3.0) == oracle_sigmoid(s, 1.0) == 1.0

    def test_rejects_bad_variant_and_gamma(self):
        with pytest.raises(ValueError):
            Sigmoid("sine")
        with pytest.raises(ValueError):
            Sigmoid("power", gamma=0.0)
        with pytest.raises(ValueError):
            Sigmoid("power", gamma=1.5)
        # the joint 2^(1/gamma) must be finite
        with pytest.raises(ValueError, match="1/gamma < 1024"):
            Sigmoid("power", gamma=1.0 / 1024.0)


class TestKernelEvaluation:
    def test_ramp_point_values(self, catalogue):
        k = catalogue["ramp"]
        assert eval_kernel(k, 0.0) == 0.5
        assert eval_kernel(k, 1.0) == 0.25
        assert eval_kernel(k, 1.5) == 0.0
        assert eval_kernel(k, 5.0) == 0.0

    def test_tanh_center(self, catalogue):
        assert eval_kernel(catalogue["tanh"], 0.0) == pytest.approx(
            math.tanh(1.0) / 2.0, abs=1e-15
        )

    def test_logistic_center(self, catalogue):
        sig_1 = 1.0 / (1.0 + math.exp(-1.0))
        sig_m1 = 1.0 / (1.0 + math.exp(1.0))
        assert eval_kernel(catalogue["logistic"], 0.0) == pytest.approx(
            (sig_1 - sig_m1) / 2.0, abs=1e-15
        )

    def test_scaled_kernel_is_composition(self, catalogue):
        k = make_kernel("logistic", scale=0.1)
        xs = np.linspace(-30.0, 30.0, 101)
        np.testing.assert_allclose(
            eval_kernel(k, xs), eval_kernel(catalogue["logistic"], 0.1 * xs),
            atol=1e-15,
        )

    def test_bounded_by_half_and_nonnegative(self, catalogue):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-100.0, 100.0, 10_000)
        for v, k in catalogue.items():
            ys = eval_kernel(k, xs)
            assert ys.min() >= 0.0, v
            assert ys.max() <= 0.5, v

    def test_matrix_shape_preserved(self, catalogue):
        x = np.arange(6.0).reshape(2, 3)
        assert eval_kernel(catalogue["tanh"], x).shape == (2, 3)


class TestPhiFloor:
    def test_compact_kernels_floor_zero(self, catalogue):
        assert phi_floor(catalogue["ramp"]) == 0.0
        assert phi_floor(catalogue["three"]) == 0.0

    def test_tanh_floor_closed_form(self, catalogue):
        assert phi_floor(catalogue["tanh"]) == pytest.approx(
            (math.tanh(3.0) - math.tanh(1.0)) / 4.0, abs=1e-15
        )

    def test_full_support_floors_positive(self, catalogue):
        for v in NONCOMPACT:
            assert phi_floor(catalogue[v]) > 0.0, v

    def test_scaled_floor_is_actual_value(self):
        k = make_kernel("logistic", scale=0.1)
        assert phi_floor(k) == pytest.approx(
            float(eval_kernel(k, 2.0)), abs=0
        )


class TestPartitionOfUnity:
    def test_ramp_truncated_sum_exact(self, catalogue):
        # compact support makes the window-2 sum exact
        for x in (0.37, 0.0, 0.123456, 0.875):
            assert partition_of_unity_defect(catalogue["ramp"], x, 2) == 0.0

    def test_tanh_window_50(self, catalogue):
        assert partition_of_unity_defect(catalogue["tanh"], 0.5, 50) < 1e-9
        # widening the window only sharpens the identity
        assert partition_of_unity_defect(catalogue["tanh"], 0.5, 80) < 1e-9

    def test_power_slow_tail(self, catalogue):
        assert partition_of_unity_defect(catalogue["power"], 0.0, 10_000) < 1e-2

    def test_telescoping_oracle(self, catalogue):
        # the truncated shift sum telescopes through the activation:
        # sum_{|j|<=w} phi(x-j) = (s(x+w+1) + s(x+w) - s(x-w) - s(x-w-1)) / 2
        s = Sigmoid("tanh")
        x, w = 0.3, 12
        expected = 0.5 * (
            oracle_sigmoid(s, x + w + 1.0)
            + oracle_sigmoid(s, x + w)
            - oracle_sigmoid(s, x - w)
            - oracle_sigmoid(s, x - w - 1.0)
        )
        got = partition_of_unity_defect(catalogue["tanh"], x, w)
        assert got == pytest.approx(abs(expected - 1.0), abs=1e-14)

    def test_rejects_scaled_kernels(self):
        k = make_kernel("logistic", scale=2.0)
        with pytest.raises(ValueError):
            partition_of_unity_defect(k, 0.0, 10)

    def test_rejects_bad_window(self, catalogue):
        with pytest.raises(ValueError):
            partition_of_unity_defect(catalogue["tanh"], 0.0, 0)


def _moment_bruteforce(kernel, beta, resolution, window):
    """Independent oracle: supremum over an x-grid in [0,1) and a k-window."""
    xs = np.arange(resolution) / resolution
    ks = np.arange(-window, window + 1)
    t = xs[None, :] - ks[:, None]
    h = eval_kernel(kernel, t) * np.abs(t) ** beta
    return float(h.max())


class TestAbsoluteMoment:
    def test_ramp_order_one_bruteforce(self, catalogue):
        k = catalogue["ramp"]
        brute = _moment_bruteforce(k, 1.0, 100_000, 3)
        assert brute == pytest.approx(0.28125, abs=1e-9)  # peak of t(3/2 - t)/2
        assert absolute_moment(k, 1.0) == pytest.approx(brute, abs=1e-9)

    def test_single_term_lower_bound(self, catalogue):
        for v, k in catalogue.items():
            for beta in (0.25, 1.0):
                lower = float(eval_kernel(k, 0.5)) * 0.5**beta
                assert absolute_moment(k, beta, resolution=10_000) >= lower, v

    def test_tanh_order_two_grid_stable(self, catalogue):
        k = catalogue["tanh"]
        coarse = absolute_moment(k, 2.0, resolution=20_000)
        fine = absolute_moment(k, 2.0, resolution=40_000)
        assert coarse == pytest.approx(0.2961571126, abs=1e-6)
        assert abs(coarse - fine) < 1e-6

    def test_matches_bruteforce_across_catalogue(self, catalogue):
        for v, k in catalogue.items():
            got = absolute_moment(k, 1.0, resolution=20_000)
            brute = _moment_bruteforce(k, 1.0, 20_000, 40)
            # the brute window misses slow tails, so it can only be below
            assert got >= brute - 1e-9, v
            if v != "power":
                assert got == pytest.approx(brute, abs=1e-9), v

    def test_rejects_invalid_order(self, catalogue):
        k = catalogue["tanh"]
        for beta in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                absolute_moment(k, beta)

    @pytest.mark.parametrize("gamma, scale", [(1.0, 1.0), (1.0, 3.0), (0.5, 1.0)])
    def test_power_moment_is_tail_limit(self, gamma, scale):
        # phi(t) t^(1+gamma) rises towards gamma c^-(1+gamma) without reaching
        # it; power:1 at order 2 is 1 at c = 1 and 1/9 at c = 3
        k = make_kernel("power", gamma=gamma, scale=scale)
        assert absolute_moment(k, 1.0 + gamma) == pytest.approx(
            gamma * scale ** -(1.0 + gamma), rel=1e-6)

    @pytest.mark.parametrize("gamma", [0.01, 0.02, 0.03, 0.05, 0.1, 0.25])
    def test_power_supremum_at_end_of_flat_top(self, gamma):
        """phi(u) u^(1+gamma) peaks near 1/2 at u = T - 1, T = 2^(1/gamma),
        where the flat top ends: past the log-spaced scan's end (1e9) for
        gamma <= 0.03, between its points for larger gamma."""
        k = make_kernel("power", gamma=gamma)
        t = 2.0 ** (1.0 / gamma)
        peak = eval_kernel(k, t - 1.0) * (t - 1.0) ** (1.0 + gamma)
        # a few ulps for the scan's rounding of u^(1+gamma)
        assert absolute_moment(k, 1.0 + gamma, resolution=2000) >= peak * (1.0 - 2.0**-50)
        for u in (t - 1.0, t + 1.0):
            assert eval_kernel(k, u) <= k.decay_m * u ** -(1.0 + gamma), u

    def test_power_scan_finite_at_largest_joint(self):
        # T = 2^1023.5: u^(1+gamma) overflows at T + 1, phi is subnormal
        k = make_kernel("power", gamma=1.0 / 1023.5)
        assert absolute_moment(k, 1.0 + k.alpha, resolution=100) == pytest.approx(0.5, rel=1e-9)
        assert k.decay_m == pytest.approx(0.55, rel=1e-9)

    @pytest.mark.parametrize("variant, gamma", [(v, 1.0) for v in VARIANTS if v != "power"]
                             + [("power", 0.5)])
    def test_scaling_law_at_constant_cost(self, monkeypatch, variant, gamma):
        evaluated = []

        def counting(k, x):
            evaluated.append(np.size(x))
            return eval_kernel(k, x)

        monkeypatch.setattr(kernels, "eval_kernel", counting)
        beta = 1.5  # 1 + alpha for power:0.5, where its tail limit counts
        unit = absolute_moment(make_kernel(variant, gamma), beta, resolution=2000)
        unit_cost = sum(evaluated)
        for scale in (0.001, 0.1, 3.0):
            evaluated.clear()
            got = absolute_moment(make_kernel(variant, gamma, scale), beta, resolution=2000)
            assert got * scale**beta == pytest.approx(unit, rel=1e-9), scale
            assert sum(evaluated) <= unit_cost, scale


class TestDecayConstants:
    def test_compact_support_trivial(self, catalogue):
        m, l = catalogue["ramp"].decay_m, catalogue["ramp"].decay_l
        assert l == 5.0
        # the kernel vanishes beyond 3/2, so the bound past L holds trivially
        xs = np.logspace(np.log10(l), 6, 500)
        assert np.all(eval_kernel(catalogue["ramp"], xs) <= m * xs ** -2.0)
        # the global constant covers truncated-tail maxima at any cutoff:
        # sup of t^2 (3/2 - t)/2 over the shoulder is 1/4 at t = 1
        assert m == pytest.approx(1.1 * 0.25, abs=1e-6)

    def test_global_constant_valid_below_l(self, catalogue):
        for v, k in catalogue.items():
            xs = np.linspace(0.05, k.decay_l, 1500)
            assert np.all(
                eval_kernel(k, xs) <= k.decay_m * xs ** -(1.0 + k.alpha) + 1e-15
            ), v

    def test_power_tail_bounded(self, catalogue):
        k = catalogue["power"]  # gamma = 1
        m = k.decay_m
        xs = np.logspace(1, 6, 2000)
        assert np.all(eval_kernel(k, xs) * xs**2 <= m)

    def test_exponential_kernels_accept_large_alpha(self):
        for v in ("logistic", "tanh"):
            k = make_kernel(v, alpha=3.0)
            xs = np.logspace(np.log10(k.decay_l), 6, 2000)
            assert np.all(eval_kernel(k, xs) <= k.decay_m * xs ** -4.0), v

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
    def test_power_constant_bounds_tail(self, gamma, scale):
        """Past u = c*t > 1 + 2^(1/gamma) both sigmoid arguments of phi(-t)
        are on the branch 1/(|x|^gamma + 2); there
        phi = (b - a) / (2 (a + 2)(b + 2)) with a = (u - 1)^gamma,
        b = (u + 1)^gamma, and b - a taken without cancellation."""
        k = make_kernel("power", gamma=gamma, scale=scale)
        u = np.geomspace(1.0 + 2.0 ** (1.0 / gamma) + 1e-6, 1e15, 100_000)
        a = (u - 1.0) ** gamma
        b_minus_a = a * np.expm1(gamma * np.log1p(2.0 / (u - 1.0)))
        phi = 0.5 * b_minus_a / ((a + 2.0) * (a + b_minus_a + 2.0))
        assert k.decay_m >= np.max(phi * (u / scale) ** (1.0 + gamma))


class TestKernelConstruction:
    def test_power_alpha_pinned_to_gamma(self):
        k = make_kernel("power", gamma=0.5)
        assert k.alpha == 0.5
        assert Kernel(Sigmoid("power", 0.5)).alpha == 0.5
        with pytest.raises(ValueError):
            make_kernel("power", gamma=0.5, alpha=1.0)
        with pytest.raises(ValueError, match="alpha must equal gamma=0.5"):
            Kernel(Sigmoid("power", 0.5), alpha=0.9)

    def test_hand_built_kernel_is_the_catalogue_kernel(self, monkeypatch):
        built = Kernel(Sigmoid("logistic"), scale=0.1)
        assert built == make_kernel("logistic", scale=0.1)
        evaluated = []

        def counting(k, x):
            evaluated.append(np.size(x))
            return eval_kernel(k, x)

        monkeypatch.setattr(operators, "eval_kernel", counting)
        xs = np.linspace(0.0, 1.0, 200)
        counts = []
        for k in (built, make_kernel("logistic", scale=0.1)):
            spec = OperatorSpec("maxmin", "kantorovich", 2000, Domain(0.0, 1.0), k)
            evaluated.clear()
            eval_grid(spec, NodeData(0, 1999, np.full(2000, 0.5)), xs)
            counts.append(sum(evaluated))
        assert counts[0] == counts[1]

    def test_supports(self, catalogue):
        assert catalogue["ramp"].support == (-1.5, 1.5)
        assert catalogue["three"].support == (-1.5, 1.5)
        assert catalogue["tanh"].support is None
        assert make_kernel("ramp", scale=3.0).support == (-0.5, 0.5)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            make_kernel("tanh", scale=0.0)

    @pytest.mark.parametrize("field", ["scale", "alpha"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_non_finite_scale_and_alpha(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            make_kernel("tanh", **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            Kernel(Sigmoid("tanh"), **{field: value})

    def test_json_round_trip(self, catalogue):
        for v, k in catalogue.items():
            fields = json.loads(kernel_to_json(k))
            gamma = k.sigmoid.gamma if v == "power" else None
            assert fields.pop("gamma", None) == gamma, v
            assert fields == {"variant": v, "scale": k.scale, "alpha": k.alpha,
                              "decay_M": k.decay_m, "decay_L": k.decay_l}, v


_KERNELS = tuple(make_kernel(v) for v in VARIANTS)


@settings(max_examples=100, deadline=None)
@given(st.floats(-40.0, 40.0))
def test_kernel_even_everywhere(x):
    for k in _KERNELS:
        assert eval_kernel(k, x) == eval_kernel(k, -x)


#: |t| in [0, 1e4]: fine near the bump, then coarser
_ABS_T = np.unique(np.concatenate([np.linspace(0.0, 60.0, 600_001),
                                   np.linspace(60.0, 1e4, 200_001)]))


@pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("variant, gamma", [(v, 1.0) for v in VARIANTS if v != "power"]
                         + [("power", g) for g in (0.05, 0.25, 0.5, 1.0)])
def test_kernel_non_increasing_in_abs_t(variant, gamma, scale):
    """The premise of the windowed evaluation's certificate (operators.py):
    a weight farther from the centre never exceeds a nearer one.  A power
    kernel is probed across its joints u = 2^(1/gamma) +- 1 too, where its
    closed form changes pieces.  Arguments within a few ulps of each other
    are not probed: there the power kernel's tail and joint, each combining
    a rising and a falling factor, can round up by one ulp."""
    k = make_kernel(variant, gamma=gamma, scale=scale)
    probes = [_ABS_T]
    if variant == "power":
        t = 2.0 ** (1.0 / gamma)
        probes.append(np.linspace(t - 2.0, t + 2.0, 400_001) / scale)
    for probe in probes:
        assert np.all(np.diff(eval_kernel(k, probe)) <= 0.0)
