import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnops import (
    Kernel,
    Sigmoid,
    absolute_moment,
    eval_kernel,
    eval_sigmoid,
    fit_decay_constants,
    kernel_to_json,
    make_kernel,
    partition_of_unity_defect,
    phi_floor,
)
from nnops.operators import _WIGGLE
from conftest import NONCOMPACT, VARIANTS


class TestSigmoidEvaluation:
    def test_ramp_midpoint(self):
        assert eval_sigmoid(Sigmoid("ramp"), 0.0) == 0.5

    def test_three_step_values(self):
        s = Sigmoid("three")
        assert eval_sigmoid(s, 0.6) == 1.0
        assert eval_sigmoid(s, -0.6) == 0.0
        # the middle level is taken on the closed interval
        assert eval_sigmoid(s, -0.5) == 0.5
        assert eval_sigmoid(s, 0.5) == 0.5

    def test_power_tail_closed_form(self):
        s = Sigmoid("power", gamma=1.0)
        assert eval_sigmoid(s, 3.0) == (3.0 + 1.0) / (3.0 + 2.0)  # 4/5
        assert eval_sigmoid(s, -3.0) == 1.0 / (3.0 + 2.0)

    def test_power_tail_continuous_at_junctions(self):
        for gamma in (0.25, 0.5, 1.0):
            s = Sigmoid("power", gamma=gamma)
            t = 2.0 ** (1.0 / gamma)
            for x in (t, -t):
                lo = eval_sigmoid(s, x - 1e-9)
                hi = eval_sigmoid(s, x + 1e-9)
                assert abs(hi - lo) < 1e-6

    def test_limits(self):
        for v in ("logistic", "tanh", "ramp", "three"):
            s = Sigmoid(v)
            assert eval_sigmoid(s, -1e6) < 1e-3
            assert eval_sigmoid(s, 1e6) > 1.0 - 1e-3
        # power variant: compare against its own algebraic tails
        for gamma in (0.25, 1.0):
            s = Sigmoid("power", gamma=gamma)
            assert eval_sigmoid(s, -1e6) == 1.0 / (1e6**gamma + 2.0)
            assert eval_sigmoid(s, 1e6) == (1e6**gamma + 1.0) / (1e6**gamma + 2.0)

    def test_nondecreasing_and_in_range(self):
        xs = np.linspace(-50.0, 50.0, 20_001)
        for v in VARIANTS:
            ys = eval_sigmoid(Sigmoid(v), xs)
            assert np.all(np.diff(ys) >= 0.0), v
            assert ys.min() >= 0.0 and ys.max() <= 1.0, v

    def test_separation_assumption(self):
        # sigma(3) > sigma(1) holds strictly for the full-support variants;
        # ramp and three saturate at 1/2 so both values equal 1
        for v in NONCOMPACT:
            s = Sigmoid(v)
            assert eval_sigmoid(s, 3.0) > eval_sigmoid(s, 1.0), v
        for v in ("ramp", "three"):
            s = Sigmoid(v)
            assert eval_sigmoid(s, 3.0) == eval_sigmoid(s, 1.0) == 1.0

    def test_rejects_bad_variant_and_gamma(self):
        with pytest.raises(ValueError):
            Sigmoid("sine")
        with pytest.raises(ValueError):
            Sigmoid("power", gamma=0.0)
        with pytest.raises(ValueError):
            Sigmoid("power", gamma=1.5)


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
            eval_sigmoid(s, x + w + 1.0)
            + eval_sigmoid(s, x + w)
            - eval_sigmoid(s, x - w)
            - eval_sigmoid(s, x - w - 1.0)
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


class TestDecayConstants:
    def test_compact_support_trivial(self, catalogue):
        m, l = fit_decay_constants(catalogue["ramp"], 1.0)
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
        m, l = fit_decay_constants(k, 1.0)
        xs = np.logspace(1, 6, 2000)
        assert np.all(eval_kernel(k, xs) * xs**2 <= m)

    def test_alpha_beyond_tail_rejected(self):
        k = make_kernel("power", gamma=0.5)
        with pytest.raises(ValueError):
            fit_decay_constants(k, 0.9)

    def test_exponential_kernels_accept_large_alpha(self, catalogue):
        for v in ("logistic", "tanh"):
            m, l = fit_decay_constants(catalogue[v], 3.0)
            xs = np.logspace(np.log10(l), 6, 2000)
            assert np.all(eval_kernel(catalogue[v], xs) <= m * xs ** -4.0), v

    def test_rejects_nonpositive_alpha(self, catalogue):
        with pytest.raises(ValueError):
            fit_decay_constants(catalogue["tanh"], 0.0)


class TestKernelConstruction:
    def test_power_alpha_pinned_to_gamma(self):
        k = make_kernel("power", gamma=0.5)
        assert k.alpha == 0.5
        with pytest.raises(ValueError):
            make_kernel("power", gamma=0.5, alpha=1.0)

    def test_supports(self, catalogue):
        assert catalogue["ramp"].support == (-1.5, 1.5)
        assert catalogue["three"].support == (-1.5, 1.5)
        assert catalogue["tanh"].support is None
        assert make_kernel("ramp", scale=3.0).support == (-0.5, 0.5)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            make_kernel("tanh", scale=0.0)

    @pytest.mark.parametrize("field", ["scale", "alpha"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
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
        assert abs(eval_kernel(k, x) - eval_kernel(k, -x)) < 1e-12


#: |t| in [0, 1e4]: fine near the bump and where the tails round to 0, then coarser
_ABS_T = np.unique(np.concatenate([np.linspace(0.0, 60.0, 600_001),
                                   np.linspace(60.0, 1e4, 200_001)]))


@pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("variant, gamma", [(v, 1.0) for v in VARIANTS if v != "power"]
                         + [("power", 0.5), ("power", 1.0)])
def test_kernel_non_increasing_in_abs_t(variant, gamma, scale):
    """The premise of the windowed evaluation's certificate (operators.py):
    on each side, a computed weight exceeds any weight nearer the centre by
    at most the rounding wiggle _WIGGLE, and not at all once the kernel has
    fallen below 2^-53 phi(2), where linear windows end (up to the smallest
    subnormal, the rounding of the logistic's far left tail)."""
    k = make_kernel(variant, gamma=gamma, scale=scale)
    ints = np.arange(1.0, 1e4)
    tail = np.maximum(eval_kernel(k, ints), eval_kernel(k, -ints))
    small = np.flatnonzero(tail <= 2.0**-53 * phi_floor(k))
    reach = ints[small[0]] if len(small) else np.inf
    for side in (1.0, -1.0):
        w = eval_kernel(k, side * _ABS_T)
        excess = w - np.minimum.accumulate(w)
        assert excess.max() <= _WIGGLE, side
        assert excess[_ABS_T >= reach].max(initial=0.0) <= np.nextafter(0.0, 1.0), side
