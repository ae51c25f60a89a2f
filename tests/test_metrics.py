import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnops import (
    DegenerateKernelError,
    Domain,
    absolute_moment,
    apriori_bounds,
    fit_rate,
    kfunctional_upper,
    lp_error,
    make_kernel,
    modulus_of_continuity,
    phi_floor,
    rate_exponent_holder,
)
from nnops.experiments import rate_sweep

UNIT = Domain(0.0, 1.0)
TANH = make_kernel("tanh")


def _const(c):
    return lambda xs: np.full_like(np.asarray(xs, dtype=float), c)


class TestNorms:
    def test_identical_functions(self):
        f = lambda xs: np.sin(np.asarray(xs))
        assert lp_error(f, f, 1.0, UNIT, 1000) == 0.0
        assert lp_error(f, f, math.inf, UNIT, 1000) == 0.0

    def test_unit_gap_any_p(self):
        for p in (1.0, 2.0, 3.5):
            assert lp_error(_const(1.0), _const(0.0), p, UNIT, 1000) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_constant_offset_sup(self):
        assert lp_error(_const(0.75), _const(0.5), math.inf, UNIT, 100) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_known_l2_integral(self):
        # integral of x^2 over [0,1] is 1/3; midpoint converges at O(h^2)
        got = lp_error(lambda xs: np.asarray(xs), _const(0.0), 2.0, UNIT, 20_000)
        assert got == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-8)

    def test_scaling_with_domain_width(self):
        wide = Domain(0.0, 4.0)
        assert lp_error(_const(1.0), _const(0.0), 2.0, wide, 1000) == pytest.approx(
            2.0, abs=1e-12
        )

    @pytest.mark.parametrize("p", [1e3, 1e4, 1e300])
    def test_large_p_does_not_underflow(self, p):
        # 0.5^p underflows to 0 from p = 1075 on: the norm factors out max |d|
        assert lp_error(_const(0.5), _const(0.0), p, UNIT) == pytest.approx(0.5, abs=1e-12)
        assert lp_error(_const(0.0), _const(0.0), p, UNIT) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lp_error(_const(0.0), _const(0.0), 0.5, UNIT)
        with pytest.raises(ValueError):
            lp_error(_const(0.0), _const(0.0), math.inf, UNIT, 1)

    def test_sup_norm_grid_holds_end_points(self):
        # g and h differ only at x = b: the sup grid includes the end points,
        # the midpoint grid of finite p does not
        g = lambda xs: np.where(np.asarray(xs) == 1.0, 0.75, 0.5)
        assert lp_error(g, _const(0.5), math.inf, UNIT, 100) == 0.25
        assert lp_error(g, _const(0.5), 1.0, UNIT, 100) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
                    min_size=3, max_size=3))
    def test_metric_surrogate_on_piecewise_linear(self, all_knots):
        def pl(knots):
            xs_k = np.linspace(0.0, 1.0, len(knots))
            return lambda xs: np.interp(xs, xs_k, knots)

        f, g, h = (pl(k) for k in all_knots)
        assert lp_error(f, g, 2.0, UNIT, 2000) == lp_error(g, f, 2.0, UNIT, 2000)
        lhs = lp_error(f, h, 2.0, UNIT, 2000)
        rhs = lp_error(f, g, 2.0, UNIT, 2000) + lp_error(g, h, 2.0, UNIT, 2000)
        assert lhs <= rhs + 1e-10

    def test_grid_refinement_stable_on_operator_output(self, step):
        from nnops import OperatorSpec, cell_averages_exact, eval_grid

        spec = OperatorSpec("maxmin", "kantorovich", 10, UNIT, TANH)
        data = cell_averages_exact(step, UNIT, 10)
        op = lambda xs: eval_grid(spec, data, xs)
        coarse = lp_error(op, step, 1.0, UNIT, 100_000)
        fine = lp_error(op, step, 1.0, UNIT, 200_000)
        assert abs(coarse - fine) / fine < 0.01


class TestModulusOfContinuity:
    def test_identity(self):
        assert modulus_of_continuity(lambda xs: np.asarray(xs), 0.1, UNIT) == (
            pytest.approx(0.1, abs=1e-9)
        )

    def test_constant(self):
        assert modulus_of_continuity(_const(0.4), 0.05, UNIT) == 0.0

    def test_step_function_largest_jump(self, step):
        assert modulus_of_continuity(step, 0.05, UNIT, 4001) == pytest.approx(
            0.7, abs=1e-12
        )

    def test_nondecreasing_in_delta(self, step):
        deltas = (0.01, 0.05, 0.2, 0.5)
        vals = [modulus_of_continuity(step, d, UNIT, 2001) for d in deltas]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=6),
           st.floats(0.01, 0.4), st.floats(0.01, 0.4))
    def test_subadditive_on_piecewise_linear(self, knots, d1, d2):
        xs_k = np.linspace(0.0, 1.0, len(knots))
        f = lambda xs: np.interp(xs, xs_k, knots)
        lhs = modulus_of_continuity(f, d1 + d2, UNIT, 801)
        rhs = (modulus_of_continuity(f, d1, UNIT, 801)
               + modulus_of_continuity(f, d2, UNIT, 801))
        # each grid modulus floors delta/h, losing up to one step of slope
        h = 1.0 / 800
        slack = 2.0 * h * np.abs(np.diff(f(np.linspace(0, 1, 801)))).max() / h
        assert lhs <= rhs + slack + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            modulus_of_continuity(_const(0.0), 0.0, UNIT)

    def test_grid_points_below_two_rejected(self):
        with pytest.raises(ValueError, match="grid_points"):
            modulus_of_continuity(_const(0.0), 0.1, UNIT, grid_points=1)


class TestRateExponents:
    def test_lipschitz_alpha_one(self):
        assert rate_exponent_holder(1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_half_order(self):
        assert rate_exponent_holder(1.0, 0.5) == pytest.approx(0.4, abs=1e-15)

    def test_large_alpha_limit(self):
        assert rate_exponent_holder(1e6, 0.5) == pytest.approx(0.4999998, abs=1e-7)

    def test_kantorovich_rate(self):
        # finite p: delta_n = n^-(1+alpha)/(2+alpha), n^-2/3 at alpha = 1; the
        # zero function smooths to itself, so K(f, .) = 0 and the bound is
        # moment_term * delta_n
        ns = [8, 1000]
        got = apriori_bounds(_const(0.0), TANH, UNIT, ns, 1.0)
        moment_term = absolute_moment(TANH, 2.0) / phi_floor(TANH)
        assert got == pytest.approx([moment_term / 4.0, moment_term / 100.0], rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_exponent_holder(0.0, 0.5)
        with pytest.raises(ValueError):
            rate_exponent_holder(1.0, 1.5)


def _identity(xs):
    return np.asarray(xs, dtype=float)


class TestSupErrorBound:
    # p = inf: omega(f, 1/n) + max(omega(f, n^-1/2), m / (phi(2) n^((1+alpha)/2)))

    def test_constant_function_only_moment_term(self):
        moment = absolute_moment(TANH, 2.0)
        ns = [25, 100]
        got = apriori_bounds(_const(0.3), TANH, UNIT, ns, math.inf)
        want = [moment / (phi_floor(TANH) * n) for n in ns]
        assert got == pytest.approx(want, rel=1e-12)

    def test_identity_function_terms(self):
        moment = absolute_moment(TANH, 2.0)
        n = 100
        dn = n**-0.5
        (got,) = apriori_bounds(_identity, TANH, UNIT, [n], math.inf)
        tail = moment / (phi_floor(TANH) * (n * dn) ** 2)
        assert got == pytest.approx(1.0 / n + max(dn, tail), abs=1e-3)

    def test_rejects_compact_kernel(self):
        with pytest.raises(DegenerateKernelError):
            apriori_bounds(_const(0.3), make_kernel("ramp"), UNIT, [10], math.inf)

    def test_large_alpha_tail_vanishes(self):
        # (n delta_n)^(1+alpha) = 10^353.5 is past the float range; its
        # reciprocal underflows to 0, so only the modulus terms are left: 0
        # for a constant, one step of the 4001-point grid for the identity
        kernel = make_kernel("tanh", alpha=100.0)
        n = 10**7
        assert apriori_bounds(_const(0.3), kernel, UNIT, [n], math.inf) == (0.0,)
        assert apriori_bounds(_identity, kernel, UNIT, [n], math.inf) == (
            pytest.approx(2.5e-4, rel=1e-9),
        )

    def test_moduli_on_4001_points(self):
        # the identity's modulus at delta is delta rounded down to the grid
        # step 1/4000: one step at 1/n = 1/3000, 73 at n^-1/2 = 0.01826; at
        # alpha = 100 the tail, 2.3e-46, is below both
        kernel = make_kernel("tanh", alpha=100.0)
        assert apriori_bounds(_identity, kernel, UNIT, [3000], math.inf) == (
            pytest.approx(74 / 4000, rel=1e-12),
        )

    def test_tail_past_float_range_rejected(self):
        # tanh at alpha = 196: the moment is finite, moment / phi(2) is not,
        # and the bound is not a number, not infinity
        kernel = make_kernel("tanh", alpha=196.0)
        with pytest.raises(ValueError, match="moment / phi\\(2\\) out of float range"):
            apriori_bounds(_const(0.3), kernel, UNIT, [25], math.inf)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            apriori_bounds(_const(0.3), TANH, UNIT, [10], 0.5)


def _kfunctional_bound(f, n, p):
    """The finite-p bound at one n from the closed-form constants on [0, 1]
    at alpha = 1: A = (2M / phi(2) + 2)^(1/p) + 1, B = 3 / (2A) and
    moment_term = m / phi(2); returns (bound, A)."""
    floor = phi_floor(TANH)
    a_val = (2.0 * TANH.decay_m / floor + 2.0) ** (1.0 / p) + 1.0
    d = n ** (-2.0 / 3.0)
    k = kfunctional_upper(f, 1.5 / a_val * d, p, UNIT, 1.0)
    return a_val * k + absolute_moment(TANH, 2.0) / floor * d, a_val


class TestKFunctional:
    def test_constants_closed_form_p1(self):
        # at p = 1, A = 2M / phi(2) + 3
        want, a_val = _kfunctional_bound(_identity, 100, 1.0)
        assert a_val == pytest.approx(2.0 * TANH.decay_m / phi_floor(TANH) + 3.0, abs=1e-12)
        assert apriori_bounds(_identity, TANH, UNIT, [100], 1.0) == (
            pytest.approx(want, rel=1e-12),
        )

    def test_lower_bound_on_a(self, step):
        for p in (1.0, 2.0):
            want, a_val = _kfunctional_bound(step, 50, p)
            assert apriori_bounds(step, TANH, UNIT, [50], p) == (
                pytest.approx(want, rel=1e-12),
            )
            assert a_val >= 2.0 ** (1.0 / p) + 1.0

    def test_rejects_compact_kernel(self):
        with pytest.raises(DegenerateKernelError):
            apriori_bounds(_const(0.3), make_kernel("three"), UNIT, [10], 2.0)

    def test_constants_past_float_range_rejected(self):
        for kernel in (
            make_kernel("tanh", alpha=196.0),  # 2M / (alpha phi(2)) and m / phi(2) overflow
            make_kernel("logistic", 1.5e-154),  # A overflows, m / phi(2) = 9.2e307 does not
        ):
            with pytest.raises(ValueError, match="K-functional constants out of float range"):
                apriori_bounds(_const(0.3), kernel, UNIT, [25], 1.0)

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_non_positive_delta_rejected(self, delta):
        with pytest.raises(ValueError, match=f"delta must be positive, got {delta}"):
            kfunctional_upper(_identity, delta, 1.0, UNIT, 1.0)

    def test_upper_estimate_for_smooth_function(self):
        # the identity is its own best C^1 candidate: the estimate should be
        # close to delta * 1 once a near-identity smoothing width is tried
        assert kfunctional_upper(lambda xs: np.asarray(xs), 0.05, 1.0, UNIT, 1.0) <= 0.08

    @pytest.mark.parametrize("p", [1e3, 1e4, 1e300])
    def test_large_p_does_not_underflow(self, step, p):
        # on a unit interval the distance of each candidate grows with p, and
        # near delta = 0 the estimate is that distance^(1/2); |f - g| < 1
        # underflows in |f - g|^p unless its max is factored out
        low = kfunctional_upper(step, 1e-9, 100.0, UNIT, 1.0)
        assert low > 0.5
        assert kfunctional_upper(step, 1e-9, p, UNIT, 1.0) >= low

    def test_bounds_above_errors_on_step_at_large_p(self, step):
        sweep = rate_sweep("step", step, "maxmin", "kantorovich", TANH, UNIT, [10, 20, 40],
                           1000.0, 100_000, None)
        assert all(b >= e for b, e in zip(sweep.bounds, sweep.errors)), sweep

    def test_upper_estimate_decreases_with_delta(self, step):
        e1 = kfunctional_upper(step, 0.2, 1.0, UNIT, 1.0)
        e2 = kfunctional_upper(step, 0.01, 1.0, UNIT, 1.0)
        assert e2 <= e1 + 1e-12


def _ols_slope(xs, ys):
    """Independent closed-form least squares slope."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    xc = xs - xs.mean()
    return float((xc * (ys - ys.mean())).sum() / (xc * xc).sum())


class TestFitRate:
    def test_exact_power_laws(self):
        ns = np.array([10, 20, 40, 80, 160])
        assert fit_rate(ns, 3.0 / ns) == pytest.approx(-1.0, abs=1e-9)
        assert fit_rate(ns, 2.0 * ns ** (-2.0 / 3.0)) == pytest.approx(
            -2.0 / 3.0, abs=1e-9
        )

    def test_published_maxmin_column(self):
        ns = [10, 30, 90, 150, 500]
        errs = [0.1386, 0.0462, 0.0154, 0.0092, 0.0020]
        got = fit_rate(ns, errs)
        assert got == pytest.approx(_ols_slope(np.log(ns), np.log(errs)), abs=1e-12)
        assert got == pytest.approx(-1.07, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([10, 20], [1.0, 0.5])
        with pytest.raises(ValueError):
            fit_rate([10, 20, 15], [1.0, 0.5, 0.6])
        with pytest.raises(ValueError):
            fit_rate([10, 20, 40], [1.0, 0.0, 0.5])
