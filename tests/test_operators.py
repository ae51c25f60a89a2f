import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnops import (
    Domain,
    EmptyRangeError,
    NodeData,
    OperatorSpec,
    PiecewiseConstant,
    QuadratureRule,
    ZeroDenominatorError,
    add_gaussian_noise,
    brute_force_eval,
    cell_averages_exact,
    eval_grid,
    eval_kernel,
    eval_operator,
    make_kernel,
    node_bounds,
    phi_floor,
    sample_function,
    sample_node_values,
    step_test_function,
)
from nnops import operators
from nnops.quadrature import node_data
from helpers import traced_peak

TANH = make_kernel("tanh")
RAMP = make_kernel("ramp")
UNIT = Domain(0.0, 1.0)


def _spec(family="maxmin", mode="kantorovich", n=10, domain=UNIT, kernel=TANH):
    return OperatorSpec(family, mode, n, domain, kernel)


def _const_data(spec, c):
    k_lo, k_hi = node_bounds(spec.mode, spec.n, spec.domain)
    return NodeData(k_lo, k_hi, np.full(k_hi - k_lo + 1, c))


def _alternating_data(spec, c):
    """Node values c and 1 in turn: node floor c, and no max-family row flat
    but those nearest a node of 1."""
    k_lo, k_hi = node_bounds(spec.mode, spec.n, spec.domain)
    return NodeData(k_lo, k_hi, np.where(np.arange(k_hi - k_lo + 1) % 2, 1.0, c))


class TestDomain:
    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                                      (0.0, np.nan)])
    def test_non_finite_endpoint_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            Domain(a, b)


class TestNodeRange:
    def test_sampling_unit_interval(self):
        assert node_bounds("sampling", 10, UNIT) == (0, 10)

    def test_kantorovich_drops_last_node(self):
        assert node_bounds("kantorovich", 10, UNIT) == (0, 9)

    def test_empty_range(self):
        with pytest.raises(EmptyRangeError):
            node_bounds("kantorovich", 1, Domain(0.3, 0.9))

    @pytest.mark.parametrize("mode, n, a, b, want", [
        ("sampling", 10, 0.30000000000001, 1.0, (4, 10)),  # node 0.3 lies below a
        ("kantorovich", 10, 0.0, 0.79999999999999, (0, 6)),  # cell [0.7, 0.8] ends past b
        ("sampling", 3, 0.0, 0.9999999999999999, (0, 2)),  # node 1 lies an ulp past b
        ("sampling", 10, 0.3, 0.9, (3, 9)),  # 3/10 and 9/10 are the floats 0.3 and 0.9
        ("kantorovich", 10, 0.3, 0.9, (3, 8)),
    ], ids=["a-above-node", "b-below-cell-end", "b-ulp-below-node", "tenths-sampling",
            "tenths-kantorovich"])
    def test_nodes_inside_domain(self, mode, n, a, b, want):
        assert node_bounds(mode, n, Domain(a, b)) == want

    @pytest.mark.parametrize("n, a, b", [(10, 1e308, 1.5e308), (1, 2.0**62, 2.0**62 + 1e4),
                                         (3, -2.0**52, 0.0)])
    def test_node_positions_beyond_float_integers_rejected(self, n, a, b):
        # n*b overflows, or neighbouring nodes n*x - k are no longer distinct
        with pytest.raises(ValueError, match=f"n={n} on \\["):
            node_bounds("kantorovich", n, Domain(a, b))

    def test_fractional_domain(self):
        assert node_bounds("sampling", 10, Domain(0.31, 0.69)) == (4, 6)

    @pytest.mark.parametrize("mode", ["sampling", "kantorovich"])
    @pytest.mark.parametrize("n", [0, -3, 2.5, 2.0])
    def test_non_positive_order_rejected(self, mode, n):
        # n = 0 divided by zero and n = -3 never left the node search; 2.5
        # gave nodes and a spec as if it were whole.  A float is no order
        # even when whole; a numpy integer is one
        for make in (lambda: node_bounds(mode, n, UNIT),
                     lambda: OperatorSpec("maxmin", mode, n, UNIT, TANH)):
            with pytest.raises(ValueError, match=f"n must be a positive integer, got {n}$"):
                make()
        assert node_bounds(mode, np.int64(10), UNIT)[0] == 0
        assert OperatorSpec("maxmin", mode, np.int32(10), UNIT, TANH).n == 10

    def test_unknown_family_or_mode_rejected(self):
        with pytest.raises(ValueError, match="family must be one of .* got 'minmax'"):
            OperatorSpec("minmax", "sampling", 5, UNIT, TANH)
        with pytest.raises(ValueError, match="mode must be one of .* got 'durrmeyer'"):
            OperatorSpec("maxmin", "durrmeyer", 5, UNIT, TANH)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(["sampling", "kantorovich"]), n=st.integers(1, 10**4),
       k=st.integers(-10**4, 10**4), cells=st.integers(1, 10**4),
       ulps=st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
def test_node_bounds_are_exact(mode, n, k, cells, ulps):
    """End points on a node or an ulp either side of one: the range holds
    every node k/n in [a, b] (every cell, in Kantorovich mode) and no other."""
    a, b = (float(np.nextafter(x, u * math.inf)) if u else x
            for x, u in zip((k / n, (k + cells) / n), ulps))
    end = 1 if mode == "kantorovich" else 0  # a cell [j/n, (j+1)/n] ends a node later
    inside = [j for j in range(k - 2, k + cells + 3) if a <= j / n and (j + end) / n <= b]
    try:
        got = node_bounds(mode, n, Domain(a, b))
    except EmptyRangeError:
        got = None
    assert got == ((inside[0], inside[-1]) if inside else None)


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
        with pytest.raises(ValueError, match="x=1.5 outside the domain"):
            brute_force_eval(spec, data, 1.5)

    def test_mismatched_data_rejected(self):
        spec = _spec(n=5)
        bad = NodeData(0, 7, np.full(8, 0.5))
        with pytest.raises(ValueError):
            eval_operator(spec, bad, 0.5)

    def test_zero_denominator_reported(self):
        # nodes {1, 2} and x = 0.95 puts the window beyond the ramp support
        for family in ("maxmin", "linear"):
            spec = _spec(family=family, n=4, domain=Domain(0.05, 0.95), kernel=RAMP)
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
        # linear grids whose rows mix both paths: summation by parts near the
        # step's jumps, the window across the noisy stretch
        for variant in ("logistic", "tanh"):
            for n in (90, 150):
                spec = _spec(family="linear", n=n, kernel=make_kernel(variant))
                data = _step_with_noisy_stretch(step, n)
                by_parts = _by_parts_rows(spec, data, xs)[0]
                assert by_parts.any() and not by_parts.all(), (variant, n)
                grid = eval_grid(spec, data, xs)
                loop = np.array([eval_operator(spec, data, float(x)) for x in xs])
                assert np.array_equal(grid, loop), (variant, n)

    @pytest.mark.parametrize("family", ["linear", "maxprod", "maxmin"])
    def test_row_result_independent_of_chunk(self, step, family):
        # rows on both sides of every end of a node-value rule's chunk
        # (_CHUNK // 8 rows, more than three of them, the last of one row)
        # and of every window chunk (_CHUNK weights at the cap), some of
        # which end inside a stretch of windowed rows, and a shuffled grid
        # that puts every row among other rows; a (nodes, rows) sum would
        # round a one-row chunk differently from a full one.  The linear
        # grids mix both paths; the max families' flat rows split the noisy
        # stretch into short stretches, so they also take rising node
        # values, where only the rows nearest the last node are flat.
        cases = ([(v, n, False) for v in ("logistic", "tanh") for n in (90, 150)]
                 if family == "linear" else [("tanh", 90, False), ("tanh", 90, True)])
        rule = operators._CHUNK // 8
        inside = []
        for variant, n, rising in cases:
            spec = _spec(family=family, n=n, kernel=make_kernel(variant))
            data = _step_with_noisy_stretch(step, n)
            if rising:
                data = NodeData(data.k_lo, data.k_hi, np.linspace(0.2, 0.9, n))
            xs = np.linspace(0.0, 1.0, 3 * rule + 1)
            if family == "linear":
                by_parts = _by_parts_rows(spec, data, xs)[0]
                assert by_parts.any() and not by_parts.all(), (variant, n)
            out, rules, windows = _chunk_starts(spec, data, xs)
            assert rules == list(range(0, len(xs), rule)), (variant, n)
            windowed = _windowed_mask(spec, data, xs)[1]
            inside += [i for i in windows if i not in rules and windowed[i - 1]]
            order = np.random.default_rng(11).permutation(len(xs))
            assert np.array_equal(eval_grid(spec, data, xs[order]), out[order]), (variant, n)
            picks = np.random.default_rng(11).integers(0, len(xs), 50)
            for i in {*rules, *windows, *(i - 1 for i in [*rules, *windows] if i), *picks}:
                assert out[i] == eval_grid(spec, data, xs[i:i + 1])[0], (variant, n, i)
        assert inside

    @pytest.mark.parametrize("points", [10**5, 3 * 10**5])
    def test_by_parts_chunk_ends_at_its_reach(self, step, points):
        # at n = 1e6 the rows lie 10 or 3.3 nodes apart, so a chunk of
        # _CHUNK // 8 rows would read 8e4 or 2.7e4 node values; it ends
        # where its reach, n (x_last - x_first) + 2 (R + m), would pass
        # _CHUNK // 8, but not before the _CHUNK // width rows of one window
        # chunk, which the sparser grid's chunks all take
        n = 10**6
        spec = _spec(family="linear", n=n)
        data = cell_averages_exact(step, UNIT, n)
        xs = np.linspace(0.0, 1.0, points)
        width = min(2 * operators._half_width(spec, n) + 2, n)
        m, _, reach = operators._by_parts(spec, width)
        rule, least, span = operators._CHUNK // 8, operators._CHUNK // width, 2 * (reach + m)
        assert _by_parts_rows(spec, data, xs)[0].all()
        out, rules, _ = _chunk_starts(spec, data, xs)
        sizes = np.diff([*rules, len(xs)])
        assert rules[0] == 0 and sizes[-1] <= max(sizes[:-1])
        for start, size in zip(rules[:-1], sizes[:-1]):
            t = n * xs[start:start + size + 1]
            assert least <= size <= rule
            assert size == least or t[-2] - t[0] + span <= rule < t[-1] - t[0] + span
        assert set(sizes[:-1]) == {least} if points == 10**5 else least < sizes[0] < rule
        for i in {*rules, *(i - 1 for i in rules[1:])}:
            assert out[i] == eval_grid(spec, data, xs[i:i + 1])[0], i

    def test_dense_by_parts_grid_peak(self, step):
        # 1e6 points at n = 500, 2000 rows a node: besides the output's 8 B
        # a point, a chunk of _CHUNK // 8 rows holds at most 12 arrays of
        # 8 B a row at once
        spec = _spec(family="linear", n=500)
        data = cell_averages_exact(step, UNIT, 500)
        xs = np.linspace(0.0, 1.0, 10**6)
        assert _by_parts_rows(spec, data, xs)[0].all()
        out, peak = traced_peak(lambda: eval_grid(spec, data, xs))
        assert peak < 8 * len(xs) + 12 * operators._CHUNK
        for i in (0, 8191, 8192, 500_000, 10**6 - 1):
            assert out[i] == eval_grid(spec, data, xs[i:i + 1])[0], i

    def test_memory_bounded_for_large_n(self):
        # chunks hold a bounded number of weights, not a bounded number of
        # rows; zero data fails every window's certificate, so the second case
        # bounds the widened windows
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

    @pytest.mark.parametrize("family", ["maxprod", "maxmin"])
    def test_rows_in_a_long_zero_stretch_stay_near_their_reach(self, family):
        # f = 0 on [0.3, 0.7] at n = 1e6: a row in [0.45, 0.55] lies 5e4
        # nodes from the nearest nonzero value, where every weight
        # underflows, so its result is 0; its window widens until its edge
        # weight vanishes too, not to all 1e6 nodes
        n = 10**6
        spec = _spec(family=family, n=n)
        data = cell_averages_exact(PiecewiseConstant(UNIT, (0.3, 0.7), (1.0, 0.0, 1.0)),
                                   UNIT, n)
        xs = np.linspace(0.45, 0.55, 20)
        out, peak = traced_peak(lambda: eval_grid(spec, data, xs))
        assert peak < 2 * 2**20
        want = np.concatenate([_dense_eval(spec, data, xs[i:i + 1]) for i in range(len(xs))])
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["maxprod", "maxmin"])
    def test_rows_widen_across_a_zero_stretch(self, monkeypatch, family):
        # 100 zero nodes among values in [0.3, 1]: a row among them gives a
        # tiny positive result, the scaled weight of a nonzero node up to
        # 50 away, which the window at the cap h = 5 cannot certify; it
        # doubles its window, h = 11, 23, 47, 95, until it reaches one
        halves = []

        def recording(spec, data, xs, half):
            halves.append(half)
            return chunk(spec, data, xs, half)

        chunk = operators._eval_chunk
        monkeypatch.setattr(operators, "_eval_chunk", recording)
        spec = _spec(family=family, n=1000)
        values = np.random.default_rng(9).uniform(0.3, 1.0, 1000)
        values[450:550] = 0.0
        data = NodeData(0, 999, values)
        xs = np.linspace(0.455, 0.545, 200)
        want = _dense_eval(spec, data, xs)
        assert np.all(want > 0.0) and want.min() < 1e-40
        assert eval_grid(spec, data, xs).tobytes() == want.tobytes()
        assert sorted(set(halves))[:4] == [5, 11, 23, 47]

    def test_zero_denominator_ends_on_its_window(self, step):
        # ramp at scale 10 weighs only the nodes within 0.15 of n x, so at
        # n = 1e6 the weights of most grid points i/1999 all vanish; the
        # error names the first, as the dense evaluation does, and the call
        # reads only its windows, not all 1e6 nodes
        n = 10**6
        spec = _spec(family="linear", n=n, kernel=make_kernel("ramp", scale=10.0))
        data = cell_averages_exact(step, UNIT, n)
        xs = np.linspace(0.0, 1.0, 2000)
        with pytest.raises(ZeroDenominatorError) as dense:
            _dense_eval(spec, data, xs[:2])
        assert dense.value.args[0] == 1

        def failing():
            with pytest.raises(ZeroDenominatorError) as exc:
                eval_grid(spec, data, xs)
            return str(exc.value)

        text, peak = traced_peak(failing)
        assert text == ("ZeroDenominator: all kernel weights vanish at "
                        f"x={float(xs[1])!r} (grid index 1)")
        assert peak < 2 * 2**20

    def test_one_point_reads_only_its_reach(self, step):
        # summation by parts takes the node values its rows reach, not all
        # 1e5 of them
        spec = _spec(family="linear", n=100_000)
        data = cell_averages_exact(step, UNIT, 100_000)
        assert _by_parts_rows(spec, data, [0.37])[0].all()
        out, peak = traced_peak(lambda: eval_operator(spec, data, 0.37))
        assert out == eval_grid(spec, data, [0.37])[0]
        assert peak < 64 * 2**10

    def test_sparse_grid_reads_only_its_reach(self, step):
        # a chunk whose rows lie far apart reads each row's reach of node
        # values, not every node between its first and last row
        spec = _spec(family="linear", n=10**6)
        data = cell_averages_exact(step, UNIT, 10**6)
        xs = np.linspace(0.0, 1.0, 256)
        assert _by_parts_rows(spec, data, xs)[0].all()
        out, peak = traced_peak(lambda: eval_grid(spec, data, xs))
        assert peak < 2 * 2**20
        for i in (0, 51, 128, 255):
            assert out[i] == eval_grid(spec, data, xs[i:i + 1])[0]

    def test_shuffled_grid_evaluated_in_ascending_x(self, step):
        # a shuffled grid is sorted first, so no chunk reaches the whole node
        # range; each row's bits are those of the sorted grid
        spec = _spec(family="linear", n=10**6)
        data = cell_averages_exact(step, UNIT, 10**6)
        xs = np.linspace(0.0, 1.0, 10**5)
        order = np.random.default_rng(6).permutation(len(xs))
        shuffled = xs[order]
        out, peak = traced_peak(lambda: eval_grid(spec, data, shuffled))
        assert peak < 8 * 2**20
        assert np.array_equal(out, eval_grid(spec, data, xs)[order])

    def test_cost_follows_kernel_width(self, monkeypatch, step):
        evaluated = []

        def counting(k, x):
            evaluated.append(np.size(x))
            return eval_kernel(k, x)

        monkeypatch.setattr(operators, "eval_kernel", counting)
        xs = np.linspace(0.0, 1.0, 256)
        # the window's half-width caps at h = ceil(decay_l) = 5; phi(0..5) are
        # computed once, and at a node floor of 0.5 the first h < 5 with
        # phi(h) <= 0.5 phi(2) is 3, so each row takes 2h + 2 = 8 weights.
        # At n = 100 the grid holds more rows than nodes, so the call also
        # computes phi(1/2 .. 9/2) once and takes the rows nearest the
        # nodes of value 1 without a window; at n = 20_000 it does not look
        assert math.ceil(TANH.decay_l) == 5
        for n in (100, 20_000):
            spec = _spec(n=n)
            data = _alternating_data(spec, 0.5)
            windowed = len(xs) - _dominance_flat(spec, data, xs).sum()
            evaluated.clear()
            eval_grid(spec, data, xs)
            assert sum(evaluated) == (11 if n == 100 else 6) + windowed * 8, n
            assert 0 < windowed < 256 if n == 100 else windowed == 256
        # constant data at n = 100: every node is dominant, so every row is
        # flat and takes no weight; at n = 20_000 the grid holds fewer rows
        # than nodes and keeps its windows
        evaluated.clear()
        eval_grid(_spec(n=100), _const_data(_spec(n=100), 0.5), xs)
        assert sum(evaluated) == 11
        evaluated.clear()
        spec = _spec(n=20_000)
        eval_grid(spec, _const_data(spec, 0.5), xs)
        assert sum(evaluated) == 6 + 256 * 8
        evaluated.clear()
        # one zero node within the chunk's reach keeps h at 5
        values = np.full(20_000, 0.5)
        values[10_000] = 0.0
        eval_grid(spec, NodeData(0, 19_999, values), xs)
        assert sum(evaluated) == 6 + 256 * 12
        # linear rows summed by parts evaluate sigma, not the kernel: each
        # row its nonzero differences in reach, padded to its chunk's
        # longest row, plus, if it lies within reach + m - 1 of an end node,
        # the 4m = 4 end terms of its denominator (an interior row's is 4m
        # exactly); 2 more check once per call that sigma saturates.  The
        # kernel is evaluated only by the bisection for h: two weights for
        # each of at most log2(20000) steps
        sigmas = []

        def counting_sigma(y):
            sigmas.append(np.size(y))
            return twice_sigma(y)

        twice_sigma = operators._twice_sigma
        monkeypatch.setattr(operators, "_twice_sigma", counting_sigma)
        bisection = 2 * math.ceil(math.log2(20_000))
        spec = _spec(family="linear", n=20_000)
        # constant data: its nonzero differences lie at the ends, out of reach
        inner = np.linspace(0.3, 0.7, 256)
        assert not _edge_rows(spec, inner).any()
        sigmas.clear()
        evaluated.clear()
        eval_grid(spec, _const_data(spec, 0.5), inner)
        assert sum(sigmas) == 2
        assert sum(evaluated) <= bisection
        # the step: near its jumps a row has nonzero differences in reach;
        # the grid's first and last rows lie within reach of an end node
        data = cell_averages_exact(step, UNIT, 20_000)
        by_parts, count, m = _by_parts_rows(spec, data, xs)
        assert by_parts.all() and m == 1 and count.max() > 0
        ends = 4 * _edge_rows(spec, xs).sum()
        assert ends == 8
        sigmas.clear()
        evaluated.clear()
        eval_grid(spec, data, xs)
        assert 2 + np.sum(count) + ends <= sum(sigmas) <= 2 + 256 * count.max() + ends
        assert sum(evaluated) <= bisection
        # noisy data: every difference in reach is nonzero, so each row keeps
        # its window of 2h + 2 weights (h = 26) and evaluates no sigma past
        # the check (a row within reach of an end has fewer differences, as
        # the zeros past the end have none, and may be summed by parts)
        noisy = NodeData(0, 19_999, np.random.default_rng(8).uniform(0.2, 0.8, 20_000))
        assert not _by_parts_rows(spec, noisy, inner)[0].any()
        sigmas.clear()
        evaluated.clear()
        eval_grid(spec, noisy, inner)
        width = 2 * _half_width_scan(TANH, 20_000) + 2
        assert width == 54 and sum(sigmas) == 2
        assert 256 * width <= sum(evaluated) <= 256 * width + bisection

    @pytest.mark.parametrize("family", ["maxmin", "maxprod"])
    def test_repeated_windows_share_weights(self, monkeypatch, family):
        # the denoising configuration: n = 2000 on its 2000-point midpoint
        # grid puts consecutive rows one node apart, most of them with one
        # fl(n x - lo), so a call computes the weights of few rows and
        # shares them; without sharing it computes every row's, bitwise alike
        evaluated = []

        def counting(k, x):
            evaluated.append(np.size(x))
            return eval_kernel(k, x)

        monkeypatch.setattr(operators, "eval_kernel", counting)
        spec = _spec(family=family, n=2000, kernel=make_kernel("logistic", scale=0.1))
        data = _denoising_data(spec)
        xs = (np.arange(2000) + 0.5) * (1.0 / 2000)
        evaluated.clear()
        shared = eval_grid(spec, data, xs)
        computed = sum(evaluated)
        monkeypatch.setattr(operators, "_runs", lambda t, lo: (slice(None), slice(None)))
        evaluated.clear()
        assert np.array_equal(eval_grid(spec, data, xs), shared)
        assert 0 < computed <= sum(evaluated) / 4

    def test_shared_weights_table_dropped_before_node_values(self):
        # the denoising configuration: a maxmin window chunk gathers its
        # rows' normalised weights to (nodes, rows) and drops the heads'
        # (nodes, heads) table before it gathers the node values, so the
        # call holds at most two (nodes, rows) arrays of its largest chunk,
        # beside the output and arrays of 8 B a row; with the table alive
        # as well it would pass the bound
        spec = _spec(n=2000, kernel=make_kernel("logistic", scale=0.1))
        data = _denoising_data(spec)
        xs = (np.arange(2000) + 0.5) * (1.0 / 2000)
        blocks = []
        chunk = operators._eval_chunk

        def recording(spec, data, rows, half):
            blocks.append(8 * len(rows) * min(2 * half + 2, len(data.values)))
            return chunk(spec, data, rows, half)

        with mock.patch.object(operators, "_eval_chunk", recording):
            want = eval_grid(spec, data, xs)
        out, peak = traced_peak(lambda: eval_grid(spec, data, xs))
        assert out.tobytes() == want.tobytes()
        assert peak < 2 * max(blocks) + 64 * 2**10

    def test_noisy_rows_test_summation_by_parts_once_a_rule_chunk(self, monkeypatch):
        # logistic at scale 0.1 (m = 10) on noisy node data at n = 2000: no
        # row but those near the ends costs less summed by parts than on its
        # window of 922 weights, so the test reads each chunk's reach for
        # nothing; it runs once for each chunk of _CHUNK // 8 rows, 13 times
        # on 1e5 points, not once for each window chunk of 71 rows
        calls = []
        by_parts = operators._eval_by_parts

        def counting(data, parts, t, width, y):
            calls.append(len(t))
            return by_parts(data, parts, t, width, y)

        monkeypatch.setattr(operators, "_eval_by_parts", counting)
        spec = _spec(family="linear", n=2000, kernel=make_kernel("logistic", scale=0.1))
        data = _denoising_data(spec)
        xs = np.linspace(0.0, 1.0, 10**5)
        inner = xs[(xs > 0.3) & (xs < 0.7)]
        assert not _by_parts_rows(spec, data, inner)[0].any()
        out = eval_grid(spec, data, xs)
        assert len(calls) == math.ceil(len(xs) / (operators._CHUNK // 8)) == 13
        for i in np.random.default_rng(12).integers(0, len(xs), 20):
            assert out[i] == eval_grid(spec, data, xs[i:i + 1])[0], i

    @pytest.mark.parametrize("family", ["maxprod", "maxmin"])
    @pytest.mark.parametrize("mode", ["sampling", "kantorovich"])
    @pytest.mark.parametrize("variant", ["logistic", "tanh"])
    def test_window_narrows_to_node_floor(self, monkeypatch, variant, mode, family):
        # every row takes 2h + 2 nodes, h the first h below ceil(decay_l)
        # with phi(h) <= c phi(2) on node values c and 1 in turn and a grid
        # of fewer rows than nodes, which does not look for flat rows, and
        # none widens its window; on constant data c and a grid of
        # more rows than nodes the rows are flat, every node being dominant,
        # and take no weight
        shapes = []

        def counting(k, x):
            shapes.append(np.shape(x))
            return eval_kernel(k, x)

        monkeypatch.setattr(operators, "eval_kernel", counting)
        domain = Domain(0.013, 0.97)
        xs = np.linspace(domain.a, domain.b, 300)
        dense = np.linspace(domain.a, domain.b, 3000)
        for scale in (0.1, 1.0, 3.0):
            k = make_kernel(variant, scale=scale)
            cap = math.ceil(k.decay_l)
            spec = _spec(family=family, mode=mode, n=500, domain=domain, kernel=k)
            for c in (0.2, 0.5, 0.9):
                h = next((h for h in range(cap) if eval_kernel(k, float(h)) <= c * phi_floor(k)),
                         cap)
                shapes.clear()
                data = _alternating_data(spec, c)
                assert np.array_equal(eval_grid(spec, data, xs), _dense_eval(spec, data, xs))
                assert shapes[0] == (cap + 1,)  # phi(0), ..., phi(cap)
                assert {s[0] for s in shapes[1:]} == {2 * h + 2}, (scale, c)
                assert sum(s[1] for s in shapes[1:]) == len(xs), (scale, c)
                assert not _dominance_flat(spec, data, xs).any()
                shapes.clear()
                data = _const_data(spec, c)
                assert np.all(eval_grid(spec, data, dense) == c)
                # phi(1/2), ..., phi(cap - 1/2) are computed once; at scale 3
                # the cap is 2, and phi(1) / phi(2) and phi(2) / phi(2) = 1
                # both exceed c, so no end node has an E, and the rows more
                # than 1/2 past an end node keep their windows
                assert shapes[1] == (cap,)
                windowed = sum(s[1] for s in shapes[2:])
                assert windowed == len(dense) - _dominance_flat(spec, data, dense).sum()
                t = 500 * dense
                ends = np.sum((t < data.k_lo - 0.5) | (t > data.k_hi + 0.5))
                assert windowed == (0 if cap > 2 else ends), (scale, c)
                assert (ends > 0) == (mode == "kantorovich")

    @pytest.mark.parametrize("family", ["maxprod", "maxmin"])
    def test_narrowed_rows_that_fail_widen(self, monkeypatch, family):
        # logistic at scale 0.1 reaches past all 30 nodes, so the cap is every
        # node; a node floor 50 times too high narrows each chunk to h = 0,
        # every row on a window (all but those nearest a dominant node)
        # fails its certificate there and is evaluated again on windows
        # twice as wide, h = 1, 3, 7, ..., each level on the rows the one
        # before failed, until none fails, as every row does by h = 15,
        # whose window holds all 30 nodes
        spec = _spec(family=family, n=30, kernel=make_kernel("logistic", scale=0.1))
        assert operators._half_width(spec, 30) == 30
        data = NodeData(0, 29, np.random.default_rng(4).uniform(0.3, 1.0, 30))
        xs = np.linspace(0.0, 1.0, 501)
        calls = {}  # h: [rows, failed rows]

        def recording(spec, data, xs, half):
            out, bad = chunk(spec, data, xs, half)
            rows, failed = calls.get(half, (0, 0))
            calls[half] = [rows + len(xs), failed + len(bad)]
            return out, bad

        chunk = operators._eval_chunk
        monkeypatch.setattr(operators, "_eval_chunk", recording)
        windowed = 501 - _dominance_flat(spec, data, xs).sum()
        assert 0 < windowed < 501
        monkeypatch.setattr(operators, "phi_floor", lambda k: 50.0 * phi_floor(k))
        assert np.array_equal(eval_grid(spec, data, xs), _dense_eval(spec, data, xs))
        hs = sorted(calls)
        assert hs == [0, 1, 3, 7, 15][:len(hs)] and len(hs) > 1, hs
        assert calls[0] == [windowed, windowed]
        for wide, wider in zip(hs, hs[1:]):
            assert calls[wider][0] == calls[wide][1] <= calls[wide][0], calls
        assert calls[hs[-1]][1] == 0

    @pytest.mark.parametrize("family", ["maxprod", "maxmin"])
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_power_kernels_take_no_flat_row(self, family, gamma):
        # a power kernel's tail can round up by an ulp, so no D is certain:
        # on constant data every row takes its window, and a logistic kernel
        # none
        spec = _spec(family=family, n=100, kernel=make_kernel("power", alpha=gamma))
        data = _const_data(spec, 0.5)
        xs = np.linspace(0.0, 1.0, 2001)
        out, windowed = _windowed_mask(spec, data, xs)
        assert np.all(out == 0.5) and windowed.all()
        logistic = _spec(family=family, n=100, kernel=make_kernel("logistic"))
        out, windowed = _windowed_mask(logistic, data, xs)
        assert np.all(out == 0.5) and not windowed.any()

    def test_sign_of_zero_independent_of_path(self):
        # -0.0 on half the nodes: a linear row summed by parts whose reach
        # holds only zeros kept -0.0 alone but took +0.0 from the padding of
        # a chunk whose other rows had terms; NodeData stores +0.0
        spec = _spec(family="linear", n=500)
        data = NodeData(0, 499, np.where(np.arange(500) < 250, -0.0, 1.0))
        assert not np.signbit(data.values).any()
        xs = np.sort(np.append(np.linspace(0.0, 1.0, 1001), 0.3))
        assert _by_parts_rows(spec, data, xs)[0].all()
        got = eval_grid(spec, data, xs)[np.searchsorted(xs, 0.3)]
        assert got == 0.0 and np.signbit(got) == np.signbit(eval_operator(spec, data, 0.3))

    @pytest.mark.parametrize("family", ["maxprod", "maxmin"])
    def test_runs_of_signed_zeros(self, family):
        # runs of +-0.0 among runs of 0.6 and 1, under a kernel whose
        # support (3 nodes each side) a run of zeros can cover: the rows give
        # zeros without a sign bit, as the dense evaluation and
        # eval_operator do, whether they are flat (in the runs of 1) or not
        spec = _spec(family=family, n=100, kernel=make_kernel("ramp", scale=0.5))
        rng = np.random.default_rng(7)
        values = np.repeat(rng.choice([0.0, 0.6, 1.0], 10), 10)
        zeros = values == 0.0
        values[zeros] = rng.choice([-0.0, 0.0], zeros.sum())
        data = NodeData(0, 99, values)
        assert not np.signbit(data.values).any()
        xs = np.linspace(0.0, 1.0, 2001)
        got, windowed = _windowed_mask(spec, data, xs)
        assert 0 < windowed.sum() < len(xs)
        assert got.tobytes() == _dense_eval(spec, data, xs).tobytes()
        assert not np.signbit(got).any() and (got == 0.0).any()
        for x in xs[got == 0.0][::10]:
            assert not np.signbit(eval_operator(spec, data, float(x)))

    @pytest.mark.parametrize("family", ["linear", "maxprod", "maxmin"])
    @pytest.mark.parametrize("variant, scale", [("ramp", 1e-320), ("three", 1e-309),
                                                ("logistic", 1e-320), ("tanh", 1e-320),
                                                ("power", 1e-320)])
    def test_reach_past_float_range_is_every_node(self, variant, scale, family):
        # 1.5/c and 5/c overflow to inf: the window is every node
        spec = _spec(family=family, n=5, kernel=make_kernel(variant, scale=scale, alpha=0.5))
        data = NodeData(0, 4, np.random.default_rng(2).uniform(0.0, 1.0, 5))
        xs = np.linspace(0.0, 1.0, 7)
        got, want = eval_grid(spec, data, xs), _dense_eval(spec, data, xs)
        if family == "linear":
            assert np.all(np.abs(got - want) <= 2.0**-52 + 2.0**-45 * np.abs(want))
        else:
            assert np.array_equal(got, want)

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

    def test_two_dimensional_grid_rejected(self):
        spec = _spec(n=5)
        with pytest.raises(ValueError, match="grid must be one-dimensional"):
            eval_grid(spec, _const_data(spec, 0.3), [[0.2, 0.4]])

    def test_fractional_m_keeps_windows(self, step):
        # at scale 0.3, m = 1/c is not whole, so no row is summed by parts
        # though the window is wide enough for it; every row keeps its
        # window and the window's bound
        spec = _spec(family="linear", n=200, kernel=make_kernel("tanh", scale=0.3))
        data = cell_averages_exact(step, UNIT, 200)
        width = min(2 * operators._half_width(spec, 200) + 2, 200)
        assert 1.0 / 0.3 < width / (4 * operators._TERM_COST)
        assert operators._by_parts(spec, width) is None
        xs = np.linspace(0.0, 1.0, 501)
        got, want = eval_grid(spec, data, xs), _dense_eval(spec, data, xs)
        assert np.all(np.abs(got - want) <= 2.0**-52 + 2.0**-45 * np.abs(want))


def _denoising_data(spec):
    """The denoising sweep's node data for ``spec``: the step sampled 16
    times a cell with noise of deviation 0.05 (seed 0), averaged by
    riemann:16."""
    base = sample_function(step_test_function(), UNIT, spec.n * 16)
    return node_data(add_gaussian_noise(base, 0.05, 0), spec, QuadratureRule("riemann", 16))


def _windowed_mask(spec, data, xs):
    """eval_grid's outputs on an ascending grid of distinct points, and which
    rows it evaluated on windows; the others were flat or summed by parts."""
    rows = []
    chunk = operators._eval_chunk

    def recording(spec, data, xs, half):
        rows.append(xs)
        return chunk(spec, data, xs, half)

    with mock.patch.object(operators, "_eval_chunk", recording):
        out = eval_grid(spec, data, xs)
    return out, np.isin(xs, np.concatenate(rows or [[]]))


def _chunk_starts(spec, data, xs):
    """eval_grid's outputs on an ascending grid of distinct points, the first
    row of each chunk its node-value rule took, and the first row of each
    window chunk of the first pass, whose rows are views of the grid (a
    retry's are a copy)."""
    rules, windows = [], []
    flat, by_parts, chunk = operators._eval_flat, operators._eval_by_parts, operators._eval_chunk

    def flat_rule(flats, t, y):
        rules.append(len(t))
        return flat(flats, t, y)

    def by_parts_rule(data, parts, t, width, y):
        rules.append(len(t))
        return by_parts(data, parts, t, width, y)

    def recording(spec, data, rows, half):
        if np.shares_memory(rows, xs):
            windows.append(rows[0])
        return chunk(spec, data, rows, half)

    with mock.patch.object(operators, "_eval_flat", flat_rule), \
            mock.patch.object(operators, "_eval_by_parts", by_parts_rule), \
            mock.patch.object(operators, "_eval_chunk", recording):
        out = eval_grid(spec, data, xs)
    starts = np.cumsum([0, *rules[:-1]]).tolist()
    return out, starts, sorted(set(np.searchsorted(xs, windows).tolist()))


def _clear(values, k_lo, c, radius):
    """Whether no node closer than ``radius`` to node c holds more than it."""
    near = values[max(c - radius + 1, k_lo) - k_lo:c + radius - k_lo]
    return bool(np.all(near <= values[c - k_lo]))


def _least(ratios, v, first):
    """The first index, counted from ``first``, whose ratio is at most v."""
    return next((i for i, r in enumerate(ratios, first) if r <= v), None)


def _dominance_flat(spec, data, xs):
    """Which rows of a max-family call the dominance rule, checked node by
    node and row by row, takes without a window; none on a grid of no more
    rows than nodes.

    Node c is dominant if no node closer than D to it holds more, D >= 1
    the least up to the cap h with fl(phi(D - 1/2) / phi(1/2)) <= v_c; a row
    at t = n x with |t - c| <= 1/2 then takes v_c.  A row past an end node c
    takes v_c if no node closer than E to c holds more, E >= 1 the least
    up to h with fl(phi(E) / phi(2)) <= v_c.  No row for ``power`` or for
    phi(1/2) = 0, and no end row for h < 2 or phi(2) = 0."""
    k, values, k_lo, k_hi = spec.kernel, data.values, data.k_lo, data.k_hi
    t = spec.n * np.asarray(xs)
    flat = np.zeros(len(t), dtype=bool)
    cap = operators._half_width(spec, len(values))
    halves = eval_kernel(k, np.arange(cap) + 0.5)
    phis = eval_kernel(k, np.arange(cap + 1.0))
    if len(t) <= len(values) or k.variant == "power" or not halves[0] > 0.0:
        return flat
    for c in range(k_lo, k_hi + 1):
        d = _least(halves / halves[0], values[c - k_lo], 1)
        if d is not None and _clear(values, k_lo, c, d):
            flat |= (c - 0.5 <= t) & (t <= c + 0.5)
    if cap >= 2 and phis[2] > 0.0:
        for c, past in ((k_lo, t <= k_lo), (k_hi, t >= k_hi)):
            e = _least(phis[1:] / phis[2], values[c - k_lo], 1)
            if e is not None and _clear(values, k_lo, c, e):
                flat |= past
    return flat


def _run_flat(spec, data, xs):
    """Which rows the rule for runs of equal node values took without a
    window: a row at t = n x whose nodes within distance D of t (clipped
    into k_lo..k_hi) all hold the value v at clip(floor(t)), D >= 2 the
    least below the cap with fl(phi(D) / phi(2)) <= v."""
    k, values, k_lo, k_hi = spec.kernel, data.values, data.k_lo, data.k_hi
    t = spec.n * np.asarray(xs)
    cap = operators._half_width(spec, len(values))
    ratios = eval_kernel(k, np.arange(2.0, cap)) / phi_floor(k)
    at = np.clip(np.floor(t), k_lo, k_hi).astype(int) - k_lo
    reach = np.array([_least(ratios, v, 2) or 0 for v in values])[at]
    run = np.append(0, np.cumsum(values[1:] != values[:-1]))
    lo = np.clip(np.ceil(t) - reach, k_lo, k_hi).astype(int) - k_lo
    hi = np.clip(np.floor(t) + reach, k_lo, k_hi).astype(int) - k_lo
    return (reach > 0) & (run[lo] == run[hi])


def _step_with_noisy_stretch(step, n):
    """The step's exact cell averages at n, with noise on the cells in
    [0.55, 0.95): rows near the noise keep their windows, and the others
    are summed by parts."""
    data = cell_averages_exact(step, UNIT, n)
    values = data.values.copy()
    k = np.arange(data.k_lo, data.k_hi + 1)
    noisy = (k >= 0.55 * n) & (k < 0.95 * n)
    values[noisy] = np.random.default_rng(5).uniform(0.2, 0.8, noisy.sum())
    return NodeData(data.k_lo, data.k_hi, values)


def _by_parts_rows(spec, data, xs):
    """Which rows eval_grid sums by parts, each row's nonzero differences in
    reach, and m = 1/c; no row where the spec cannot be summed by parts.
    The differences d_j = v_{j+m} - v_{j-m}, v zero outside k_lo..k_hi, are
    counted over every node, independently of eval_grid's chunks."""
    nodes = len(data.values)
    width = min(2 * operators._half_width(spec, nodes) + 2, nodes)
    parts = operators._by_parts(spec, width)
    if parts is None:
        return np.zeros(len(xs), dtype=bool), np.zeros(len(xs), dtype=int), 0
    m, _, reach = parts
    padded = np.concatenate([np.zeros(2 * m), data.values, np.zeros(2 * m)])
    jumps = data.k_lo - m + np.flatnonzero(padded[2 * m:] - padded[:-2 * m])
    ft = np.floor(spec.n * np.asarray(xs))
    count = (np.searchsorted(jumps, ft + reach, side="right")
             - np.searchsorted(jumps, ft - (reach - 1)))
    return operators._TERM_COST * (count + 4 * m) < width, count, m


def _edge_rows(spec, xs):
    """Which linear rows summed by parts lie within reach + m - 1 of an end
    node, whose denominators take their 4m end terms."""
    k_lo, k_hi = node_bounds(spec.mode, spec.n, spec.domain)
    nodes = k_hi - k_lo + 1
    width = min(2 * operators._half_width(spec, nodes) + 2, nodes)
    m, _, reach = operators._by_parts(spec, width)
    floor = np.floor(spec.n * np.asarray(xs))
    return (floor - reach < k_lo + m - 1) | (floor + reach >= k_hi - m + 1)


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
        k = make_kernel(variant, scale=scale, alpha=gamma)
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
            k_lo, k_hi = node_bounds(spec.mode, spec.n, spec.domain)
            data = NodeData(k_lo, k_hi, rng.uniform(0, 1, k_hi - k_lo + 1))
            for x in rng.uniform(0.0, 1.0, 10):
                a = eval_operator(spec, data, float(x))
                b = brute_force_eval(spec, data, float(x))
                worst = max(worst, abs(a - b))
        assert worst < 1e-12

    def test_single_node_window(self):
        spec = _spec(mode="kantorovich", n=10, domain=Domain(0.30, 0.45))
        assert node_bounds(spec.mode, spec.n, spec.domain) == (3, 3)
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

    def test_writable_array_copied(self):
        given = np.array([0.1, 0.2, 0.3])
        data = NodeData(0, 2, given)
        given[0] = 0.9
        assert data.values[0] == 0.1 and not np.shares_memory(data.values, given)

    def test_read_only_view_copied(self):
        base = np.array([0.1, 0.2, 0.3, 0.4])
        view = base[1:]
        view.setflags(write=False)
        data = NodeData(0, 2, view)
        base[1] = 0.9
        assert data.values[0] == 0.2 and not np.shares_memory(data.values, base)

    @pytest.mark.parametrize("given", [[0.1, 0.2, 0.3], np.array([0.1, 0.2, 0.3], np.float32)])
    def test_list_or_other_dtype_converted(self, given):
        data = NodeData(0, 2, given)
        assert data.values.dtype == np.float64 and not data.values.flags.writeable

    def test_negative_zero_stored_as_positive(self):
        given = np.array([0.5, -0.0, 0.0, 1.0])
        given.setflags(write=False)
        data = NodeData(0, 3, given)
        assert np.array_equal(np.signbit(data.values), [False] * 4)
        assert not data.values.flags.writeable and np.signbit(given[1])
        # without a -0.0 the array is adopted as it is
        given = np.array([0.5, 0.0, 1.0])
        given.setflags(write=False)
        assert NodeData(0, 2, given).values is given

    def test_read_only_owner_adopted(self):
        given = np.array([0.1, 0.2, 0.3])
        given.setflags(write=False)
        data = NodeData(0, 2, given)
        assert np.shares_memory(data.values, given)
        with pytest.raises(ValueError):
            data.values[0] = 0.9

    def test_sampling_values_from_function(self):
        spec = _spec(mode="sampling", n=4)
        data = sample_node_values(lambda xs: xs, spec)
        assert np.array_equal(data.values, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))

    def test_sampling_values_need_a_sampling_spec(self):
        with pytest.raises(ValueError, match="sample_node_values is for sampling-mode specs"):
            sample_node_values(lambda xs: xs, _spec(mode="kantorovich", n=4))


# --- windowed evaluation against a dense transcription ---------------------


def _dense_eval(spec, data, xs):
    """The module docstring's three formulas over every node, no windows."""
    ks = np.arange(data.k_lo, data.k_hi + 1)
    w = eval_kernel(spec.kernel, spec.n * xs[:, None] - ks[None, :])
    v = data.values[None, :]
    denom = w.sum(axis=1) if spec.family == "linear" else w.max(axis=1)
    bad = np.flatnonzero(denom == 0.0)
    if len(bad):
        raise ZeroDenominatorError(int(bad[0]))  # the first grid index
    if spec.family == "linear":
        return (w * v).sum(axis=1) / denom
    r = w / denom[:, None]
    return (np.minimum(v, r) if spec.family == "maxmin" else v * r).max(axis=1)


KERNELS = {(v, g, c): make_kernel(v, scale=c, alpha=g)
           for v, g in [("logistic", 1.0), ("tanh", 1.0), ("ramp", 1.0), ("three", 1.0),
                        ("power", 0.5), ("power", 1.0)]
           for c in (0.1, 1.0, 3.0)}


@settings(max_examples=300, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNELS)),
       family=st.sampled_from(["linear", "maxprod", "maxmin"]),
       mode=st.sampled_from(["sampling", "kantorovich"]),
       n=st.integers(1, 600),
       a=st.floats(-0.5, 0.5), width=st.floats(0.05, 1.5),
       floor=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]),
       zeros=st.sampled_from([0.0, 0.01, 0.5, 0.95, 1.0]),
       layout=st.sampled_from(["random", "sorted", "shuffled"]),
       seed=st.integers(0, 2**32 - 1))
# linear rows summed by parts near k_hi, off by more than the window's bound
@example(kernel=("logistic", 1.0, 1.0), family="linear", mode="sampling", n=282, a=0.0,
         width=0.296875, floor=0.05, zeros=0.5, layout="random", seed=973365823)
@example(kernel=("tanh", 1.0, 1.0), family="linear", mode="kantorovich", n=211, a=0.0,
         width=1.1033954566225035, floor=0.9, zeros=0.5, layout="random", seed=29)
def test_windowed_matches_dense(kernel, family, mode, n, a, width, floor, zeros, layout,
                                seed):
    """Max families bitwise, linear within the module docstring's bounds
    (by parts for the rows summed so, else the window's), and every family
    within 1e-12 of the scalar oracle; zero-heavy data makes rows fail
    their certificate and widen their windows, and grid points halfway
    between nodes make compact kernels at scale 3 vanish there.  Node values
    above a floor let the max families narrow their windows: a sorted grid
    of several chunks (of 2^10 weights here, so the dense evaluation stays
    small) narrows each chunk by the nodes it reaches, a shuffled one by
    every node."""
    domain = Domain(a, a + width)
    spec = OperatorSpec(family, mode, n, domain, KERNELS[kernel])
    try:
        k_lo, k_hi = node_bounds(spec.mode, spec.n, spec.domain)
    except EmptyRangeError:
        return
    rng = np.random.default_rng(seed)
    values = floor + (1.0 - floor) * rng.uniform(0.0, 1.0, k_hi - k_lo + 1)
    values[rng.uniform(size=len(values)) < zeros] = 0.0
    data = NodeData(k_lo, k_hi, values)
    halfway = (np.arange(k_lo, k_hi + 1) + 0.5) / n
    chunk = operators._CHUNK if layout == "random" else 2**10
    points = 40
    if layout != "random":
        nodes = len(values)
        points = 2 * chunk // min(2 * operators._half_width(spec, nodes) + 2, nodes) + 7
    xs = np.concatenate([rng.uniform(domain.a, domain.b, points),
                         halfway[(halfway >= domain.a) & (halfway <= domain.b)][:10]])
    if layout == "sorted":
        xs.sort()
    else:
        rng.shuffle(xs)
    with mock.patch.object(operators, "_CHUNK", chunk):
        try:
            want = _dense_eval(spec, data, xs)
        except ZeroDenominatorError as exc:
            with pytest.raises(ZeroDenominatorError,
                               match=f"\\(grid index {exc.args[0]}\\)"):
                eval_grid(spec, data, xs)
            return
        got = eval_grid(spec, data, xs)
    if family == "linear":
        by_parts, count, m = _by_parts_rows(spec, data, xs)
        d = eval_kernel(spec.kernel, n * xs[:, None] - np.arange(k_lo, k_hi + 1)).sum(axis=1)
        bound = np.where(by_parts, 2.0**-50 * m * (count + 4 * m) / d, 2.0**-52)
        assert np.all(np.abs(got - want) <= bound + 2.0**-45 * np.abs(want))
    else:
        assert np.array_equal(got, want)
    for i in rng.choice(len(xs), 3, replace=False):
        assert abs(got[i] - brute_force_eval(spec, data, float(xs[i]))) <= 1e-12


def test_repeating_grids_match_pointwise():
    """Grids of q n (b - a) cells, q in {1, 2, 3}, midpoints or cell edges,
    give bitwise the pointwise results, for every family, mode and catalogue
    kernel: at q = 1 consecutive rows lie one node apart and mostly share
    their weights, on domains across 0 some rows have an inexact
    fl(n x - lo) and must not, and a one-row chunk never shares.  Zero-heavy
    data make rows fail their certificate and widen."""
    shared = []
    runs = operators._runs

    def counting(t, lo):
        key, heads = runs(t, lo)
        shared.append(0 if isinstance(heads, slice) else len(t) - len(heads))
        return key, heads

    @settings(max_examples=150, deadline=None)
    @given(kernel=st.sampled_from(sorted(KERNELS)),
           family=st.sampled_from(["linear", "maxprod", "maxmin"]),
           mode=st.sampled_from(["sampling", "kantorovich"]),
           n=st.integers(1, 400), a=st.integers(-8, 4), width=st.integers(1, 12),
           q=st.sampled_from([1, 2, 3]), midpoints=st.booleans(),
           zeros=st.sampled_from([0.0, 0.5, 0.95]), seed=st.integers(0, 2**32 - 1))
    # rows just below 0 whose fl(n x - lo) are equal but inexact
    @example(kernel=("tanh", 1.0, 1.0), family="maxmin", mode="sampling", n=144, a=-1,
             width=3, q=1, midpoints=False, zeros=0.0, seed=0)
    @example(kernel=("tanh", 1.0, 3.0), family="linear", mode="kantorovich", n=200, a=-4,
             width=6, q=1, midpoints=True, zeros=0.0, seed=0)
    def check(kernel, family, mode, n, a, width, q, midpoints, zeros, seed):
        domain = Domain(a / 8, (a + width) / 8)  # eighths, so that n (b - a) may be whole
        spec = OperatorSpec(family, mode, n, domain, KERNELS[kernel])
        try:
            k_lo, k_hi = node_bounds(mode, n, domain)
        except EmptyRangeError:
            return
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, k_hi - k_lo + 1)
        values[rng.uniform(size=len(values)) < zeros] = 0.0
        data = NodeData(k_lo, k_hi, values)
        cells = max(1, q * n * width // 8)
        xs = (domain.a + (np.arange(cells) + 0.5) * (domain.width / cells) if midpoints
              else np.linspace(domain.a, domain.b, cells + 1))
        want = []
        for i, x in enumerate(xs):
            try:
                want.append(eval_operator(spec, data, float(x)))
            except ZeroDenominatorError:
                with pytest.raises(ZeroDenominatorError, match=f"\\(grid index {i}\\)"):
                    eval_grid(spec, data, xs)
                return
        with mock.patch.object(operators, "_runs", counting):
            got = eval_grid(spec, data, xs)
        assert np.array_equal(got, want)

    check()
    assert sum(shared) > 0


BY_PARTS_INPUTS = dict(variant=st.sampled_from(["logistic", "tanh"]),
                       scale=st.sampled_from([1.0, 0.5, 0.1]),
                       mode=st.sampled_from(["sampling", "kantorovich"]),
                       n=st.integers(1, 600),
                       a=st.floats(-0.5, 0.5), width=st.floats(0.05, 1.5),
                       runs=st.integers(1, 8),
                       ulps=st.sampled_from([0.0, 0.1, 0.5]),
                       noisy=st.booleans(),
                       seed=st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(**BY_PARTS_INPUTS)
def test_by_parts_matches_dense(variant, scale, mode, n, a, width, runs, ulps, noisy, seed):
    """Linear rows summed by parts lie within the module docstring's bound
    of the dense evaluation, 2^-50 m (N + 4m) / d + 2^-45 |dense|, and
    within 1e-12 of the scalar oracle; the other rows within the window's
    bound.  Node data are runs of equal values, some moved by an ulp as the
    exact rule leaves them, or noise, on which every row whose reach lies
    among the nodes keeps its window."""
    _check_by_parts(variant, scale, mode, n, a, width, runs, ulps, noisy, seed, 200)


@settings(max_examples=150, deadline=None)
@given(**BY_PARTS_INPUTS)
def test_by_parts_matches_dense_far_apart(variant, scale, mode, n, a, width, runs, ulps,
                                          noisy, seed):
    """As :func:`test_by_parts_matches_dense`, on five points at 100 times
    the drawn order: they lie far apart, so a chunk lays several runs of
    rows' reach end to end."""
    _check_by_parts(variant, scale, mode, 100 * n, a, width, runs, ulps, noisy, seed, 5)


def _check_by_parts(variant, scale, mode, n, a, width, runs, ulps, noisy, seed, points):
    domain = Domain(a, a + width)
    kernel = make_kernel(variant, scale=scale)
    spec = OperatorSpec("linear", mode, n, domain, kernel)
    try:
        k_lo, k_hi = node_bounds(mode, n, domain)
    except EmptyRangeError:
        return
    rng = np.random.default_rng(seed)
    nodes = k_hi - k_lo + 1
    if noisy:
        values = rng.uniform(0.0, 1.0, nodes)
    else:
        cuts = np.sort(rng.integers(0, nodes + 1, runs - 1))
        values = np.repeat(rng.uniform(0.0, 1.0, runs), np.diff([0, *cuts, nodes]))
        moved = rng.uniform(size=nodes) < ulps
        values[moved] = np.nextafter(values[moved], 0.5)
    data = NodeData(k_lo, k_hi, values)
    xs = np.concatenate([rng.uniform(domain.a, domain.b, points), [domain.a, domain.b]])
    by_parts, count, m = _by_parts_rows(spec, data, xs)
    if noisy:
        reach = math.ceil(20.0 / (scale if variant == "tanh" else scale / 2))
        floor = np.floor(n * xs)
        inside = (floor - reach > k_lo + m) & (floor + reach < k_hi - m)
        assert not by_parts[inside].any()
    got = eval_grid(spec, data, xs)
    w = eval_kernel(kernel, n * xs[:, None] - np.arange(k_lo, k_hi + 1)[None, :])
    d = w.sum(axis=1)
    want = (w * values).sum(axis=1) / d
    bound = np.where(by_parts, 2.0**-50 * m * (count + 4 * m) / d, 2.0**-52)
    assert np.all(np.abs(got - want) <= bound + 2.0**-45 * np.abs(want))
    picks = np.flatnonzero(by_parts)[:4].tolist() + [int(rng.integers(len(xs)))]
    for i in picks:
        assert abs(got[i] - brute_force_eval(spec, data, float(xs[i]))) <= 1e-12


FLAT_KERNELS = {(v, c): make_kernel(v, scale=c)
                for v in ("logistic", "tanh", "ramp", "three") for c in (0.1, 0.5, 1.0, 3.0)}


@settings(max_examples=300, deadline=None)
@given(kernel=st.sampled_from(sorted(FLAT_KERNELS)),
       family=st.sampled_from(["maxprod", "maxmin"]),
       mode=st.sampled_from(["sampling", "kantorovich"]),
       n=st.integers(1, 300),
       kinds=st.lists(st.sampled_from(["zero", "one", "uniform"]), min_size=1, max_size=3),
       longest=st.sampled_from([1, 3, 40]),
       rows_per_node=st.integers(2, 6),
       small_chunks=st.booleans(),
       shuffled=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_flat_rows_match_dense(kernel, family, mode, n, kinds, longest, rows_per_node,
                               small_chunks, shuffled, seed):
    """Max-family rows on run-structured node data (runs of 1 to 40 nodes,
    each 0, 1 or uniform; all of one node, as noise is, when ``longest`` is
    1) are bitwise equal to the dense evaluation, whether they are flat or
    take their windows.  The grids hold more rows than nodes, so the call
    looks for flat rows; chunks of 2^10 weights split a sorted grid into
    several."""
    domain = Domain(-0.3, 0.77)
    spec = OperatorSpec(family, mode, n, domain, FLAT_KERNELS[kernel])
    try:
        k_lo, k_hi = node_bounds(mode, n, domain)
    except EmptyRangeError:
        return
    rng = np.random.default_rng(seed)
    nodes = k_hi - k_lo + 1
    lengths = rng.integers(1, longest + 1, nodes)
    pick = {"zero": lambda: 0.0, "one": lambda: 1.0, "uniform": rng.uniform}
    values = np.repeat([pick[kinds[i % len(kinds)]]() for i in range(nodes)], lengths)[:nodes]
    data = NodeData(k_lo, k_hi, values)
    xs = rng.uniform(domain.a, domain.b, rows_per_node * nodes + 1)
    if shuffled:
        rng.shuffle(xs)
    else:
        xs.sort()
    with mock.patch.object(operators, "_CHUNK", 2**10 if small_chunks else operators._CHUNK):
        try:
            want = _dense_eval(spec, data, xs)
        except ZeroDenominatorError as exc:
            with pytest.raises(ZeroDenominatorError,
                               match=f"\\(grid index {exc.args[0]}\\)"):
                eval_grid(spec, data, xs)
            return
        got = eval_grid(spec, data, xs)
    assert got.tobytes() == want.tobytes()


def test_flat_rows_occur_on_the_step(step):
    # on the error table's 1e5-point norm grid the share of flat rows grows
    # with n, as the step's pieces hold more nodes: the rows on windows are
    # those the dominance rule leaves, no more than the bounds below, and
    # among those the rule for runs of equal values left
    xs = (np.arange(100_000) + 0.5) / 100_000
    bounds = {10: 45_000, 30: 20_000, 90: 6_667, 150: 4_001, 500: 1_200}
    shares = []
    for n, most in bounds.items():
        spec = _spec(n=n)
        data = cell_averages_exact(step, UNIT, n)
        out, windowed = _windowed_mask(spec, data, xs)
        assert np.array_equal(out[::5], _dense_eval(spec, data, xs[::5]))
        assert np.array_equal(windowed, ~_dominance_flat(spec, data, xs))
        assert windowed.sum() <= most and not (windowed & _run_flat(spec, data, xs)).any()
        shares.append(1.0 - windowed.mean())
    assert shares[0] > 0.5 and np.all(np.diff(shares) > 0.0) and shares[-1] > 0.95


def test_nodes_that_dominate_no_row_are_not_kept(step):
    # on the step at n = 10 the pieces of 0.9 and 0.6 dominate their rows,
    # the latter with the rows past k_hi, while the nodes of 0.2 and 0.3
    # lie within D of a larger node; at n = 30 every piece dominates some.
    # Scaled by 1e-3 every value lies below phi(9/2) / phi(1/2) and
    # phi(5) / phi(2), so no node has a D or an E and none is kept, and no
    # chunk searches.  A grid of no more rows than nodes does not look
    xs = np.linspace(0.0, 1.0, 2001)
    scaled = NodeData(0, 29, 1e-3 * cell_averages_exact(step, UNIT, 30).values)
    cases = [(10, cell_averages_exact(step, UNIT, 10), [0.9, 0.6]),
             (30, cell_averages_exact(step, UNIT, 30), [0.2, 0.9, 0.3, 0.6]),
             (30, scaled, None)]
    for n, data, kept in cases:
        spec = _spec(n=n)
        cap = operators._half_width(spec, n)
        halves = eval_kernel(TANH, np.arange(cap) + 0.5)
        phis = eval_kernel(TANH, np.arange(cap + 1.0))
        flat = operators._dominant_nodes(data, halves, phis)
        assert (flat if flat is None else flat[2].tolist()) == kept
        t = n * xs
        covered = np.zeros(len(xs), dtype=bool) if flat is None else np.any(
            (flat[0][:, None] <= t) & (t <= flat[1][:, None]), axis=0)
        assert np.array_equal(covered, _dominance_flat(spec, data, xs))
    searched = []

    def recording(flat, t, y):
        searched.append(len(t))
        return found(flat, t, y)

    found = operators._eval_flat
    with mock.patch.object(operators, "_eval_flat", recording):
        for (n, data, kept), grid in zip(cases + cases[1:2], [xs, xs, xs, xs[:30]]):
            eval_grid(_spec(n=n), data, grid)
            assert sum(searched) == (len(xs) if kept and len(grid) > n else 0)
            searched.clear()


@pytest.mark.parametrize("layout", ["noise", "noise ending in 1", "runs"])
@pytest.mark.parametrize("variant", ["tanh", "ramp"])
def test_every_flat_row_takes_no_window(variant, layout):
    # one chunk, of more rows than nodes: the rows on windows are exactly
    # those the dominance rule, checked row by row, leaves; n b = 30.8 puts
    # rows up to 1.8 past k_hi = 29, which take node 29's value only if no
    # node closer than its E holds more.  Noise has flat rows nearest its
    # local maxima, and a last node of 1 adds those past k_hi, as do the
    # runs, which end in 0.3, 0.8, 0.8.  For ramp at scale 0.5 the cap h
    # is 3 and phi(3) = 0, so node 29's E is at most h
    domain = Domain(-0.3, 0.77)
    kernel = make_kernel(variant, scale=0.5)
    spec = OperatorSpec("maxmin", "kantorovich", 40, domain, kernel)
    k_lo, k_hi = node_bounds("kantorovich", 40, domain)
    assert k_hi == 29
    rng = np.random.default_rng(12)
    if layout == "runs":
        values = np.repeat(rng.choice([0.3, 0.8, 1.0], 10), 5)[:k_hi - k_lo + 1]
    else:
        values = rng.uniform(0.2, 0.8, k_hi - k_lo + 1)
        values[-1] = 1.0 if layout == "noise ending in 1" else values[-1]
    data = NodeData(k_lo, k_hi, values)
    xs = np.linspace(domain.a, domain.b, 4001)
    flat = _dominance_flat(spec, data, xs)
    out, windowed = _windowed_mask(spec, data, xs)
    assert np.array_equal(out, _dense_eval(spec, data, xs))
    assert np.array_equal(windowed, ~flat)
    past = 40 * xs > k_hi + 0.5
    assert flat.any() and past.sum() == 122
    assert flat[past].all() if layout != "noise" else not flat[past].any()


@settings(max_examples=200, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNELS)),
       mode=st.sampled_from(["sampling", "kantorovich"]),
       n=st.integers(1, 600),
       a=st.floats(-0.5, 0.5), width=st.floats(0.05, 1.5),
       zeros=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_maxmin_dominates_maxprod(kernel, mode, n, a, width, zeros, seed):
    """min(v, r) >= v r for v, r in [0, 1], and rounding keeps it, so on the
    same spec and node data max-min is at least max-product at every point;
    both divide by the same max weight, so both fail where it vanishes."""
    domain = Domain(a, a + width)
    try:
        k_lo, k_hi = node_bounds(mode, n, domain)
    except EmptyRangeError:
        return
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, k_hi - k_lo + 1)
    values[rng.uniform(size=len(values)) < zeros] = 0.0
    data = NodeData(k_lo, k_hi, values)
    xs = rng.uniform(domain.a, domain.b, 64)
    maxmin, maxprod = (OperatorSpec(family, mode, n, domain, KERNELS[kernel])
                       for family in ("maxmin", "maxprod"))
    try:
        got = eval_grid(maxmin, data, xs)
    except ZeroDenominatorError:
        with pytest.raises(ZeroDenominatorError):
            eval_grid(maxprod, data, xs)
        return
    assert np.all(got >= eval_grid(maxprod, data, xs))


@pytest.mark.parametrize("family", ["maxprod", "maxmin"])
def test_end_rows_reach_two_nodes_past_k_hi(family):
    # at n = 40 on [-0.3, 0.77] the Kantorovich nodes end at k_hi = 29 and
    # n b = 30.8, so rows lie up to 1.8 past k_hi: their max weight is only
    # known to be at least phi(2), not phi(1)
    domain = Domain(-0.3, 0.77)
    k_lo, k_hi = node_bounds("kantorovich", 40, domain)
    values = np.random.default_rng(3).uniform(0.2, 0.8, k_hi - k_lo + 1)
    values[-3:] = 0.9
    data = NodeData(k_lo, k_hi, values)
    xs = np.linspace(domain.a, domain.b, 2001)
    t = 40 * xs
    past = t > k_hi + 0.5
    assert k_hi == 29 and t[-1] > k_hi + 1.75
    # tanh: phi(2) > 0 and fl(phi(3) / phi(2)) <= 0.9, and nodes 27 and 28
    # hold no more than node 29, so the rows past k_hi take 0.9 unwindowed
    spec = OperatorSpec(family, "kantorovich", 40, domain, TANH)
    out, windowed = _windowed_mask(spec, data, xs)
    assert out.tobytes() == _dense_eval(spec, data, xs).tobytes()
    assert not windowed[past].any() and np.all(out[past] == 0.9)
    # ramp at scale 1 vanishes from distance 3/2 on, so phi(2) = 0: the rows
    # past k_hi keep their windows, though node 29 holds 1, the most any
    # node can, and those 3/2 or more past it, where every weight vanishes,
    # raise as the dense evaluation does
    spec = OperatorSpec(family, "kantorovich", 40, domain, RAMP)
    assert phi_floor(RAMP) == 0.0
    data = NodeData(k_lo, k_hi, np.append(values[:-1], 1.0))
    defined = t < k_hi + 1.5
    out, windowed = _windowed_mask(spec, data, xs[defined])
    assert out.tobytes() == _dense_eval(spec, data, xs[defined]).tobytes()
    assert windowed[past[defined]].all() and past[defined].sum() > 0
    assert not windowed[~past[defined]][-10:].any()  # up to 1/2 past node 29
    with pytest.raises(ZeroDenominatorError) as dense:
        _dense_eval(spec, data, xs)
    with pytest.raises(ZeroDenominatorError, match=f"\\(grid index {dense.value.args[0]}\\)"):
        eval_grid(spec, data, xs)


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
