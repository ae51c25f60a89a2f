import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnops import (
    Domain,
    EmptyRangeError,
    NodeData,
    OperatorSpec,
    ZeroDenominatorError,
    brute_force_eval,
    cell_averages_exact,
    eval_grid,
    eval_kernel,
    eval_operator,
    make_kernel,
    node_range,
    phi_floor,
    sample_node_values,
)
from nnops import operators

TANH = make_kernel("tanh")
RAMP = make_kernel("ramp")
UNIT = Domain(0.0, 1.0)


def _spec(family="maxmin", mode="kantorovich", n=10, domain=UNIT, kernel=TANH):
    return OperatorSpec(family, mode, n, domain, kernel)


def _const_data(spec, c):
    k_lo, k_hi = node_range(spec)
    return NodeData(k_lo, k_hi, np.full(k_hi - k_lo + 1, c))


class TestDomain:
    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                                      (0.0, np.nan)])
    def test_non_finite_endpoint_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            Domain(a, b)


class TestNodeRange:
    def test_sampling_unit_interval(self):
        assert node_range(_spec(mode="sampling", n=10)) == (0, 10)

    def test_kantorovich_drops_last_node(self):
        assert node_range(_spec(mode="kantorovich", n=10)) == (0, 9)

    def test_empty_range(self):
        with pytest.raises(EmptyRangeError):
            node_range(_spec(mode="kantorovich", n=1, domain=Domain(0.3, 0.9)))

    def test_rounding_guard(self):
        # 3 * 0.9999999999999999 = 2.9999999999999996 must still floor to 3
        spec = _spec(mode="sampling", n=3, domain=Domain(0.0, 0.9999999999999999))
        assert node_range(spec) == (0, 3)

    @pytest.mark.parametrize("n, a, b", [(10, 1e308, 1.5e308), (1, 2.0**62, 2.0**62 + 1e4),
                                         (3, -2.0**52, 0.0)])
    def test_node_positions_beyond_float_integers_rejected(self, n, a, b):
        # n*b overflows, or neighbouring nodes n*x - k are no longer distinct
        with pytest.raises(ValueError, match=f"n={n} on \\["):
            node_range(_spec(n=n, domain=Domain(a, b)))

    def test_fractional_domain(self):
        spec = _spec(mode="sampling", n=10, domain=Domain(0.31, 0.69))
        assert node_range(spec) == (4, 6)


class TestEvalOperator:
    @pytest.mark.parametrize("family", ["linear", "maxprod", "maxmin"])
    @pytest.mark.parametrize("mode", ["sampling", "kantorovich"])
    def test_constant_reproduction(self, family, mode):
        spec = _spec(family=family, mode=mode, n=13)
        data = _const_data(spec, 0.7)
        for x in (0.0, 0.31, 1.0):
            assert eval_operator(spec, data, x) == pytest.approx(0.7, abs=1e-12)

    def test_compact_kernel_inside_flat_region(self, step):
        # every node in the window of x = 0.1 has cell average 0.2 at n = 200
        spec = _spec(n=200, kernel=RAMP)
        data = cell_averages_exact(step, UNIT, 200)
        assert eval_operator(spec, data, 0.1) == 0.2
        assert brute_force_eval(spec, data, 0.1) == 0.2

    def test_output_range(self, step):
        rng = np.random.default_rng(11)
        for family in ("linear", "maxprod", "maxmin"):
            spec = _spec(family=family, n=17)
            data = cell_averages_exact(step, UNIT, 17)
            out = eval_grid(spec, data, rng.uniform(0, 1, 200))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_x_outside_domain_rejected(self):
        spec = _spec(n=5)
        data = _const_data(spec, 0.5)
        with pytest.raises(ValueError):
            eval_operator(spec, data, 1.5)

    def test_mismatched_data_rejected(self):
        spec = _spec(n=5)
        bad = NodeData(0, 7, np.full(8, 0.5))
        with pytest.raises(ValueError):
            eval_operator(spec, bad, 0.5)

    def test_zero_denominator_reported(self):
        # nodes {1, 2} and x = 0.95 puts the window beyond the ramp support
        spec = _spec(n=4, domain=Domain(0.05, 0.95), kernel=RAMP)
        data = _const_data(spec, 0.5)
        with pytest.raises(ZeroDenominatorError):
            eval_operator(spec, data, 0.95)
        with pytest.raises(ZeroDenominatorError):
            brute_force_eval(spec, data, 0.95)


class TestEvalGrid:
    def test_empty_grid(self):
        spec = _spec(n=5)
        assert len(eval_grid(spec, _const_data(spec, 0.3), [])) == 0

    def test_singleton_matches_pointwise(self):
        spec = _spec(n=5)
        data = _const_data(spec, 0.3)
        assert eval_grid(spec, data, [0.4])[0] == eval_operator(spec, data, 0.4)

    def test_bitwise_identical_to_pointwise_loop(self, step):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, 1.0, 300)
        for family in ("linear", "maxprod", "maxmin"):
            spec = _spec(family=family, n=30)
            data = cell_averages_exact(step, UNIT, 30)
            grid = eval_grid(spec, data, xs)
            loop = np.array([eval_operator(spec, data, float(x)) for x in xs])
            assert np.array_equal(grid, loop), family

    def test_memory_bounded_for_large_n(self):
        # chunks hold a bounded number of weights, not a bounded number of
        # rows; zero data fails every window's certificate, so the second case
        # bounds the fallback to all nodes
        spec = _spec(n=20_000)
        xs = np.linspace(0.0, 1.0, 256)
        for value in (0.5, 0.0):
            data = _const_data(spec, value)
            tracemalloc.start()
            try:
                out = eval_grid(spec, data, xs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.all(out == value)
            assert peak < 32 * 2**20, value

    def test_cost_follows_kernel_width(self, monkeypatch):
        evaluated = []

        def counting(k, x):
            evaluated.append(np.size(x))
            return eval_kernel(k, x)

        monkeypatch.setattr(operators, "eval_kernel", counting)
        xs = np.linspace(0.0, 1.0, 256)
        spec = _spec(n=20_000)
        eval_grid(spec, _const_data(spec, 0.5), xs)
        # one window of 2h + 2 nodes per row, h = ceil(decay_l) = 5: 3072 weights
        assert sum(evaluated) == 256 * (2 * math.ceil(TANH.decay_l) + 2)
        evaluated.clear()
        spec = _spec(family="linear", n=20_000)
        eval_grid(spec, _const_data(spec, 0.5), xs)
        # 256 windows of 2h + 2 nodes (h = 20), plus the bisection for h: two
        # weights for each of at most log2(20000) steps
        width = 2 * _half_width_scan(TANH, 20_000) + 2
        assert sum(evaluated) <= 256 * width + 2 * math.ceil(math.log2(20_000))

    def test_out_of_domain_grid_point_named(self):
        spec = _spec(n=5)
        data = _const_data(spec, 0.3)
        with pytest.raises(ValueError, match="grid\\[1\\]"):
            eval_grid(spec, data, [0.5, 1.2])

    def test_nan_grid_point_rejected(self):
        spec = _spec(n=5)
        data = _const_data(spec, 0.3)
        with pytest.raises(ValueError, match="grid\\[2\\]=nan"):
            eval_grid(spec, data, [0.5, 0.7, np.nan])
        with pytest.raises(ValueError):
            eval_operator(spec, data, np.nan)


def _half_width_scan(k, nodes):
    """The linear half-width by a scan of every h below nodes/2."""
    t = np.arange(1.0, (nodes + 1) // 2)
    tail = nodes * np.maximum(eval_kernel(k, t), eval_kernel(k, -t))
    ok = np.flatnonzero(tail <= 2.0**-53 * phi_floor(k))
    return int(t[ok[0]]) if len(ok) else nodes


@pytest.mark.parametrize("variant, gamma", [("logistic", 1.0), ("tanh", 1.0),
                                            ("power", 0.5), ("power", 1.0)])
def test_linear_half_width_search_matches_scan(variant, gamma):
    for scale in (0.1, 0.3, 1.0, 3.0, 10.0):
        k = make_kernel(variant, gamma=gamma, scale=scale)
        spec = _spec(family="linear", kernel=k)
        for nodes in (1, 2, 3, 4, 5, 10, 41, 100, 1000, 20_000, 100_000):
            assert operators._half_width(spec, nodes) == _half_width_scan(k, nodes), (
                scale, nodes)


class TestBruteForceOracle:
    def test_agreement_on_random_instances(self, step):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(60):
            family = rng.choice(["linear", "maxprod", "maxmin"])
            mode = rng.choice(["sampling", "kantorovich"])
            n = int(rng.integers(3, 40))
            kernel = (TANH, RAMP)[int(rng.integers(0, 2))]
            spec = _spec(family=family, mode=mode, n=n, kernel=kernel)
            k_lo, k_hi = node_range(spec)
            data = NodeData(k_lo, k_hi, rng.uniform(0, 1, k_hi - k_lo + 1))
            for x in rng.uniform(0.0, 1.0, 10):
                a = eval_operator(spec, data, float(x))
                b = brute_force_eval(spec, data, float(x))
                worst = max(worst, abs(a - b))
        assert worst < 1e-12

    def test_single_node_window(self):
        spec = _spec(mode="kantorovich", n=10, domain=Domain(0.30, 0.45))
        assert node_range(spec) == (3, 3)
        data = NodeData(3, 3, np.array([0.42]))
        assert brute_force_eval(spec, data, 0.35) == 0.42


class TestNodeData:
    def test_length_validated(self):
        with pytest.raises(ValueError):
            NodeData(0, 4, np.zeros(3))

    def test_range_validated(self):
        with pytest.raises(ValueError):
            NodeData(0, 1, np.array([0.5, 1.2]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            NodeData(0, 1, np.array([np.nan, 0.5]))

    def test_values_immutable(self):
        data = NodeData(0, 2, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            data.values[0] = 0.9

    def test_sampling_values_from_function(self):
        spec = _spec(mode="sampling", n=4)
        data = sample_node_values(lambda xs: xs, spec)
        assert np.array_equal(data.values, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


# --- windowed evaluation against a dense transcription ---------------------


def _dense_eval(spec, data, xs):
    """The module docstring's three formulas over every node, no windows."""
    w = eval_kernel(spec.kernel, spec.n * xs[:, None] - data.ks[None, :])
    v = data.values[None, :]
    denom = w.sum(axis=1) if spec.family == "linear" else w.max(axis=1)
    bad = np.flatnonzero(denom == 0.0)
    if len(bad):
        raise ZeroDenominatorError(int(bad[0]))  # the first grid index
    if spec.family == "linear":
        return (w * v).sum(axis=1) / denom
    r = w / denom[:, None]
    return (np.minimum(v, r) if spec.family == "maxmin" else v * r).max(axis=1)


KERNELS = {(v, g, c): make_kernel(v, gamma=g, scale=c)
           for v, g in [("logistic", 1.0), ("tanh", 1.0), ("ramp", 1.0), ("three", 1.0),
                        ("power", 0.5), ("power", 1.0)]
           for c in (0.1, 1.0, 3.0)}


@settings(max_examples=300, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNELS)),
       family=st.sampled_from(["linear", "maxprod", "maxmin"]),
       mode=st.sampled_from(["sampling", "kantorovich"]),
       n=st.integers(1, 600),
       a=st.floats(-0.5, 0.5), width=st.floats(0.05, 1.5),
       zeros=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_windowed_matches_dense(kernel, family, mode, n, a, width, zeros, seed):
    """Max families bitwise, linear within the module docstring's bound, and
    every family within 1e-12 of the scalar oracle; zero-heavy data forces
    rows back to all nodes, and grid points halfway between nodes make
    compact kernels at scale 3 vanish there."""
    domain = Domain(a, a + width)
    spec = OperatorSpec(family, mode, n, domain, KERNELS[kernel])
    try:
        k_lo, k_hi = node_range(spec)
    except EmptyRangeError:
        return
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, k_hi - k_lo + 1)
    values[rng.uniform(size=len(values)) < zeros] = 0.0
    data = NodeData(k_lo, k_hi, values)
    halfway = (np.arange(k_lo, k_hi + 1) + 0.5) / n
    xs = np.concatenate([rng.uniform(domain.a, domain.b, 40),
                         halfway[(halfway >= domain.a) & (halfway <= domain.b)][:10]])
    rng.shuffle(xs)
    try:
        want = _dense_eval(spec, data, xs)
    except ZeroDenominatorError as exc:
        with pytest.raises(ZeroDenominatorError, match=f"\\(grid index {exc.args[0]}\\)"):
            eval_grid(spec, data, xs)
        return
    got = eval_grid(spec, data, xs)
    if family == "linear":
        assert np.all(np.abs(got - want) <= 2.0**-52 + 2.0**-45 * np.abs(want))
    else:
        assert np.array_equal(got, want)
    for i in rng.choice(len(xs), 3, replace=False):
        assert abs(got[i] - brute_force_eval(spec, data, float(xs[i]))) <= 1e-12


@pytest.mark.parametrize("variant", ["ramp", "three"])
def test_windowed_zero_denominator_named(variant):
    # scale 3 leaves a support of [-1/2, 1/2]; at x = 1 the nearest
    # Kantorovich node is 1 away, so every weight vanishes there, though the
    # window (4 of 20 nodes) is narrower than the node range
    spec = _spec(family="maxmin", n=20, kernel=make_kernel(variant, scale=3.0))
    data = _const_data(spec, 0.0)
    with pytest.raises(ZeroDenominatorError, match="grid index 2"):
        eval_grid(spec, data, [0.1, 0.3, 1.0, 0.7, 1.0])


# --- max-min operator properties -------------------------------------------

node_values = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=12)


def _maxmin_eval(values, x):
    spec = _spec(mode="sampling", n=len(values) - 1)
    data = NodeData(0, len(values) - 1, np.array(values))
    return eval_operator(spec, data, x)


@settings(max_examples=60, deadline=None)
@given(node_values, st.floats(0.0, 1.0), st.data())
def test_maxmin_monotone_in_data(values, x, data):
    upper = [data.draw(st.floats(v, 1.0)) for v in values]
    assert _maxmin_eval(values, x) <= _maxmin_eval(upper, x) + 1e-12


@settings(max_examples=60, deadline=None)
@given(node_values, st.floats(0.0, 1.0), st.data())
def test_maxmin_sublinear(values, x, data):
    other = [data.draw(st.floats(0.0, 1.0 - v)) for v in values]
    total = [v + u for v, u in zip(values, other)]
    lhs = _maxmin_eval(total, x)
    assert lhs <= _maxmin_eval(values, x) + _maxmin_eval(other, x) + 1e-12


@settings(max_examples=60, deadline=None)
@given(node_values, st.data(), st.floats(0.0, 1.0))
def test_maxmin_contraction(values, data, x):
    other = [data.draw(st.floats(0.0, 1.0)) for _ in values]
    gap = [abs(v - u) for v, u in zip(values, other)]
    lhs = abs(_maxmin_eval(values, x) - _maxmin_eval(other, x))
    assert lhs <= _maxmin_eval(gap, x) + 1e-12


def test_maxmin_not_homogeneous():
    # data with one spike: far from the spike node, min(v, r) is capped by the
    # weight ratio, so scaling the data does not scale the output
    spec = _spec(mode="sampling", n=10)
    values = np.zeros(11)
    values[0] = 1.0
    data = NodeData(0, 10, values)
    c = 0.5
    scaled = NodeData(0, 10, c * values)
    witness = None
    for x in np.linspace(0.0, 1.0, 101):
        lhs = eval_operator(spec, scaled, float(x))
        rhs = c * eval_operator(spec, data, float(x))
        if abs(lhs - rhs) > 1e-6:
            witness = (x, lhs, rhs)
            break
    assert witness is not None


def test_continuity_in_x_for_continuous_sigmoid(step):
    spec = _spec(n=30)
    data = cell_averages_exact(step, UNIT, 30)
    rng = np.random.default_rng(9)
    for x in rng.uniform(0.0, 1.0 - 1e-6, 50):
        for h in (1e-4, 1e-6, 1e-8):
            delta = abs(
                eval_operator(spec, data, float(x + h))
                - eval_operator(spec, data, float(x))
            )
            # the weight ratios are Lipschitz in x with constant O(n / phi(2))
            assert delta < 1e3 * h
