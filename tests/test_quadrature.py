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
    PiecewiseConstant,
    QuadratureRule,
    Signal,
    cell_averages_exact,
    cell_averages_sampled,
    holder_test_function,
    make_kernel,
    node_bounds,
    pairmean_order,
    sample_function,
    step_test_function,
)
from nnops import quadrature
from nnops.quadrature import node_data

UNIT = Domain(0.0, 1.0)


def _per_cell_loop(f, domain, n, ks=None):
    """Reference: the rule of cell_averages_exact, one cell at a time, for
    every cell or for the cells ``ks``: a cell inside one piece takes that
    piece's value, a cut cell the overlap formula."""
    k_lo, k_hi = node_bounds("kantorovich", n, domain)
    ks = range(k_lo, k_hi + 1) if ks is None else ks
    edges = np.array((domain.a, *f.breakpoints, domain.b))
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        lo, hi = k / n, (k + 1) / n
        inside = [v for a, b, v in zip(edges[:-1], edges[1:], f.values) if a <= lo and hi <= b]
        if inside:
            out[i] = inside[0]
            continue
        overlap = np.clip(np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1]), 0.0, None)
        out[i] = (overlap * np.array(f.values)).sum() / (hi - lo)
    return np.clip(out, 0.0, 1.0)


def _smooth(xs):
    return 0.5 + 0.4 * np.sin(7.0 * xs)


class TestExactCellAverages:
    def test_cell_inside_constant_piece(self, step):
        data = cell_averages_exact(step, UNIT, 10)
        # cell [0.1, 0.2] sits inside the first piece and takes its value
        assert data.values[1] == 0.2

    @pytest.mark.parametrize("n", [10, 30, 90, 150, 500, 100_000])
    def test_step_changes_value_only_at_its_jumps(self, step, n):
        # (w v) / w would leave some cells of a piece an ulp off its value,
        # 89 value changes at n = 150 instead of 3
        values = cell_averages_exact(step, UNIT, n).values
        assert np.count_nonzero(np.diff(values)) == 3
        assert np.array_equal(np.unique(values), sorted(step.values))

    def test_cell_straddling_breakpoint(self, step):
        data = cell_averages_exact(step, UNIT, 4)
        # [0, 0.25] mixes 0.2 over 0.2 of it and 0.9 over 0.05
        assert data.values[0] == pytest.approx(
            (0.2 * 0.2 + 0.05 * 0.9) / 0.25, abs=1e-15
        )
        assert data.values[0] == pytest.approx(0.34, abs=1e-12)

    def test_constant_function(self):
        f = PiecewiseConstant(UNIT, (), (0.42,))
        data = cell_averages_exact(f, UNIT, 7)
        np.testing.assert_allclose(data.values, 0.42, atol=1e-15)

    def test_domain_off_the_node_lattice(self, step):
        # n*a = 0.091 is not an integer: nodes k = 1..5, cells [k/7, (k+1)/7]
        data = cell_averages_exact(step, Domain(0.013, 0.97), 7)
        assert (data.k_lo, data.k_hi) == (1, 5)
        want = [
            7 * (0.2 * (0.2 - 1 / 7) + 0.9 * (2 / 7 - 0.2)),  # 0.62
            0.9,
            (0.9 + 0.3) / 2,  # the jump at 0.5 halves [3/7, 4/7]
            0.3,
            7 * (0.3 * (0.8 - 5 / 7) + 0.6 * (6 / 7 - 0.8)),  # 0.42
        ]
        np.testing.assert_allclose(data.values, want, atol=1e-15)
        np.testing.assert_allclose(data.values, [0.62, 0.9, 0.6, 0.3, 0.42], atol=1e-12)

    def test_bitwise_equal_to_per_cell_loop(self, step):
        rng = np.random.default_rng(5)
        many = PiecewiseConstant(UNIT, tuple(np.linspace(0.01, 0.99, 40)),
                                 tuple(rng.uniform(0, 1, 41)))
        for f in (step, many):
            for domain in (UNIT, Domain(0.013, 0.97)):
                for n in (7, 10, 30, 150, 2000):
                    got = cell_averages_exact(f, domain, n)
                    assert np.array_equal(got.values, _per_cell_loop(f, domain, n))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_per_cell_loop_any_pieces(self, data):
        # breakpoints on the node lattice, one ulp either side of it, or
        # anywhere in a few cells, so that some pieces are narrower than a cell
        n = data.draw(st.integers(1, 2000), label="n")
        a = data.draw(st.floats(-2.0, 2.0), label="a")
        width = data.draw(st.floats(3.0 / n, max(1.0, 3.0 / n)), label="width")
        domain = Domain(a, a + width)
        k_lo, k_hi = node_bounds("kantorovich", n, domain)
        cells = st.integers(k_lo, k_hi + 1)
        on_lattice = st.one_of(
            cells.map(lambda k: k / n),
            st.tuples(cells, st.sampled_from([-math.inf, math.inf])).map(
                lambda kd: float(np.nextafter(kd[0] / n, kd[1]))),
        )
        crowded = data.draw(st.lists(cells, min_size=1, max_size=3), label="crowded")
        in_crowded = st.tuples(st.sampled_from(crowded), st.floats(0.0, 1.0)).map(
            lambda kt: (kt[0] + kt[1]) / n)
        points = (data.draw(st.lists(on_lattice, max_size=39), label="on lattice")
                  + data.draw(st.lists(in_crowded, max_size=20), label="in crowded cells"))
        breakpoints = sorted({x for x in points if domain.a < x < domain.b})
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(breakpoints) + 1,
                                    max_size=len(breakpoints) + 1), label="values")
        f = PiecewiseConstant(domain, tuple(breakpoints), tuple(values))
        got = cell_averages_exact(f, domain, n)
        assert np.array_equal(got.values, _per_cell_loop(f, domain, n))

    def test_matches_midpoint_quadrature_oracle(self, step):
        # dense midpoint sums converge to the closed-form overlap averages
        n = 13
        data = cell_averages_exact(step, UNIT, n)
        m = 4001
        for i, k in enumerate(range(data.k_lo, data.k_hi + 1)):
            us = k / n + (np.arange(m) + 0.5) / (m * n)
            assert data.values[i] == pytest.approx(step(us).mean(), abs=1e-3)


class TestSampledCellAverages:
    def test_constant_signal_any_rule(self):
        s = sample_function(lambda xs: np.full_like(xs, 0.6), UNIT, 3200)
        for rule in (QuadratureRule("riemann", 8), QuadratureRule("trapezoid", 8)):
            data = cell_averages_sampled(s, 100, rule)
            np.testing.assert_allclose(data.values, 0.6, atol=1e-15)
        pair = cell_averages_sampled(
            sample_function(lambda xs: np.full_like(xs, 0.6), UNIT, 200),
            100,
            QuadratureRule("pairmean"),
        )
        np.testing.assert_allclose(pair.values, 0.6, atol=1e-15)

    def test_trapezoid_exact_on_affine(self):
        # sub-samples aligned with the signal grid integrate x exactly,
        # giving the cell midpoints
        n, r = 25, 8
        s = sample_function(lambda xs: xs, UNIT, n * r + 1)
        data = cell_averages_sampled(s, n, QuadratureRule("trapezoid", r))
        ks = np.arange(n)
        np.testing.assert_allclose(data.values, (ks + 0.5) / n, atol=1e-12)

    def test_riemann_approaches_exact(self, step):
        s = sample_function(step, UNIT, 100_000)
        exact = cell_averages_exact(step, UNIT, 150)
        approx = cell_averages_sampled(s, 150, QuadratureRule("riemann", 666))
        assert np.abs(approx.values - exact.values).max() < 1e-3

    def test_riemann_error_halves_with_refinement(self):
        g = lambda xs: 0.5 + 0.4 * np.sin(2 * np.pi * np.asarray(xs))
        n = 150
        s = sample_function(g, UNIT, 100_001)
        ks = np.arange(n)
        exact = (
            -0.4 / (2 * np.pi) * (np.cos(2 * np.pi * (ks + 1) / n)
                                  - np.cos(2 * np.pi * ks / n))
            + 0.5 / n
        ) * n
        errs = []
        for r in (8, 16, 32):
            data = cell_averages_sampled(s, n, QuadratureRule("riemann", r))
            errs.append(np.abs(data.values - exact).max())
        assert errs[1] <= 0.7 * errs[0]
        assert errs[2] <= 0.7 * errs[1]

    def test_pairwise_mean_values(self):
        s = Signal(UNIT, np.array([0.1, 0.3, 0.5, 0.7, 0.2, 0.4]))
        data = cell_averages_sampled(s, 3, QuadratureRule("pairmean"))
        np.testing.assert_allclose(data.values, [0.2, 0.6, 0.3], atol=1e-15)

    def test_pairwise_mean_needs_two_per_cell(self):
        s = sample_function(lambda xs: xs, UNIT, 7)
        with pytest.raises(ValueError):
            cell_averages_sampled(s, 3, QuadratureRule("pairmean"))

    def test_too_coarse_signal_rejected(self):
        s = sample_function(lambda xs: xs, UNIT, 50)
        with pytest.raises(ValueError, match="50 samples cannot supply 16 sub-samples "
                           "for each of 10 cells"):
            cell_averages_sampled(s, 10, QuadratureRule("riemann", 16))

    def test_out_of_range_signal_rejected(self):
        s = sample_function(lambda xs: 2.0 * xs, UNIT, 100)
        with pytest.raises(ValueError):
            cell_averages_sampled(s, 5, QuadratureRule("riemann", 4))

    def test_nan_signal_never_averaged(self):
        # Signal rejects NaN itself; the range check here must not rely on that
        s = Signal(UNIT, np.array([0.1, 0.2, 0.3, 0.4]))
        object.__setattr__(s, "samples", np.array([0.1, np.nan, 0.3, 0.4]))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            cell_averages_sampled(s, 2, QuadratureRule("pairmean"))

    def test_averages_within_sample_range(self):
        rng = np.random.default_rng(2)
        s = sample_function(lambda xs: 0.2 + 0.6 * rng.random(len(xs)), UNIT, 3200)
        for rule in (QuadratureRule("riemann", 16), QuadratureRule("trapezoid", 16)):
            data = cell_averages_sampled(s, 200, rule)
            assert data.values.min() >= s.samples.min() - 1e-15
            assert data.values.max() <= s.samples.max() + 1e-15


def _kantorovich(n, domain):
    return OperatorSpec("maxmin", "kantorovich", n, domain, make_kernel("tanh"))


class TestNodeData:
    @pytest.mark.parametrize("a, b", [(0.3, 0.9), (0.0, 2.0), (2.0, 3.0)])
    @pytest.mark.parametrize("n", [10, 37])
    def test_identity_cell_averages_on_any_domain(self, a, b, n):
        # the default trapezoid sums integrate the affine (x - a)/(b - a)
        # exactly over each cell [k/n, (k+1)/n]: its value at the midpoint
        domain = Domain(a, b)
        data = node_data(holder_test_function(1.0, domain), _kantorovich(n, domain))
        ks = np.arange(data.k_lo, data.k_hi + 1)
        exact = ((ks + 0.5) / n - a) / (b - a)
        np.testing.assert_allclose(data.values, exact, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("f", [lambda xs: 2.0 * xs, lambda xs: xs - 0.5,
                                   lambda xs: np.full_like(xs, np.nan)],
                             ids=["above-1", "below-0", "nan"])
    @pytest.mark.parametrize("rule", [None, QuadratureRule("riemann", 4)])
    def test_values_outside_unit_interval_rejected(self, f, rule):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            node_data(f, _kantorovich(10, UNIT), rule)

    @pytest.mark.parametrize("rule", [QuadratureRule("riemann", 4), QuadratureRule("pairmean")])
    def test_sampling_takes_no_rule(self, step, rule):
        spec = OperatorSpec("maxmin", "sampling", 10, UNIT, make_kernel("tanh"))
        with pytest.raises(ValueError, match="rule is for Kantorovich mode"):
            node_data(step, spec, rule)

    @pytest.mark.parametrize("f, rule", [
        (step_test_function(), None),
        (_smooth, QuadratureRule("riemann", 4)),
        (_smooth, QuadratureRule("trapezoid", 4)),
        (Signal(UNIT, np.linspace(0.0, 1.0, 200)), QuadratureRule("trapezoid", 4)),
        (Signal(UNIT, np.linspace(0.0, 1.0, 100)), QuadratureRule("pairmean")),
    ], ids=["exact", "riemann", "trapezoid", "signal-trapezoid", "pairmean"])
    def test_rules_hand_over_read_only_output(self, monkeypatch, f, rule):
        # NodeData adopts each rule's output instead of copying it
        given = []
        monkeypatch.setattr(quadrature, "NodeData",
                            lambda k_lo, k_hi, v: given.append(v) or NodeData(k_lo, k_hi, v))
        data = node_data(f, _kantorovich(50, UNIT), rule)
        assert data.values is given[0] and not data.values.flags.writeable


TWO_PIECES = PiecewiseConstant(UNIT, (0.37,), (0.2, 0.9))
# four breakpoints in each of the cells [0.2, 0.3] and [0.3, 0.4] at n = 10
NARROW = PiecewiseConstant(UNIT, (0.21, 0.23, 0.25, 0.27, 0.31, 0.33, 0.35, 0.37),
                           tuple(np.random.default_rng(3).uniform(0.0, 1.0, 9)))
# at n = 41, 5 cells a chunk: the middle pieces run whole over cells 5-23 and
# 26-40, across several seams, and the cells 24 and 25, either side of a seam,
# are each cut by a breakpoint
RUNS = PiecewiseConstant(UNIT, (4.3 / 41, 24.6 / 41, 25.2 / 41),
                         tuple(np.random.default_rng(7).uniform(0.0, 1.0, 4)))
# at n = 31, 10 cells a chunk and 40 // 8 = 5 cut cells a row-sum block: the
# chunk of cells 10-19 has the 6 cut cells 11-16, so its cells 11-15 fill one
# block and the crowded cell 16 opens a second
BLOCKS = PiecewiseConstant(UNIT, tuple((k + t) / 31 for k, t in (
    (11, 0.3), (12, 0.3), (13, 0.3), (14, 0.3), (15, 0.3), (16, 0.3), (16, 0.7))),
    tuple(np.random.default_rng(13).uniform(0.0, 1.0, 8)))
STEP_DOMAIN = Domain(0.013, 0.97)
NOISE = Signal(UNIT, np.random.default_rng(11).uniform(0.0, 1.0, 4001))


class TestChunkedCells:
    """Node data is computed over chunks of at most ``_CHUNK`` elements, a
    cell's ``width`` of them for the sub-cell rules and ``_EXACT_WIDTH`` for
    the exact rule; where the seams between chunks fall changes no bit."""

    # (budget, compute, opens): each leaves a one-cell last chunk, and the
    # cells ``opens`` each open a chunk
    CASES = {
        # 3 cells a chunk: the cut cell 3 opens the second
        "exact": (12, lambda: cell_averages_exact(TWO_PIECES, UNIT, 10), (3,)),
        # 3 cells a chunk: the two crowded cells fall either side of a seam
        "exact-narrow": (12, lambda: cell_averages_exact(NARROW, UNIT, 10), (3,)),
        "exact-runs": (20, lambda: cell_averages_exact(RUNS, UNIT, 41), (25,)),
        # 256 cells a chunk from cell 21: the jump in cell 789 opens one
        "exact-step": (2**10, lambda: cell_averages_exact(
            step_test_function(STEP_DOMAIN), STEP_DOMAIN, 1607), (789,)),
        "exact-blocks": (40, lambda: cell_averages_exact(BLOCKS, UNIT, 31), (10, 20)),
        "riemann:1": (7, lambda: node_data(
            _smooth, _kantorovich(15, UNIT), QuadratureRule("riemann", 1)), ()),
        "riemann:3": (7, lambda: node_data(
            _smooth, _kantorovich(11, UNIT), QuadratureRule("riemann", 3)), ()),
        "riemann:16": (2**12, lambda: node_data(
            _smooth, _kantorovich(1025, UNIT), QuadratureRule("riemann", 16)), ()),
        "trapezoid:1": (7, lambda: node_data(
            _smooth, _kantorovich(10, UNIT), QuadratureRule("trapezoid", 1)), ()),
        "trapezoid:2": (7, lambda: node_data(
            _smooth, _kantorovich(11, UNIT), QuadratureRule("trapezoid", 2)), ()),
        "trapezoid:64": (2**12, lambda: node_data(
            _smooth, _kantorovich(1009, UNIT), QuadratureRule("trapezoid", 64)), ()),
        "signal-riemann:3": (7, lambda: cell_averages_sampled(
            NOISE, 11, QuadratureRule("riemann", 3)), ()),
        "signal-trapezoid:15": (2**12, lambda: cell_averages_sampled(
            NOISE, 257, QuadratureRule("trapezoid", 15)), ()),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_seams_change_no_bit(self, monkeypatch, case):
        budget, compute, opens = self.CASES[case]
        chunks = []
        by_cells = quadrature._by_cells

        def recorded(k_lo, k_hi, width, averages):
            def chunk(k0, k1, out):
                chunks.append((k0, k1))
                averages(k0, k1, out)
            return by_cells(k_lo, k_hi, width, chunk)

        monkeypatch.setattr(quadrature, "_by_cells", recorded)
        monkeypatch.setattr(quadrature, "_CHUNK", budget)
        chunked = compute()
        assert len(chunks) > 1 and chunks[-1] == (chunked.k_hi, chunked.k_hi + 1)
        assert set(opens) <= {k0 for k0, _ in chunks}
        monkeypatch.setattr(quadrature, "_CHUNK", 2**40)  # one chunk
        assert np.array_equal(chunked.values, compute().values)

    def test_trapezoid_within_rounding_of_exact_sum(self):
        # a cell's weighted row is summed pairwise; over 65 terms numpy's
        # pairwise sum rounds at most 12 times in a row, each by 2^-53 of a
        # sum below 1, so 2^-49 bounds its distance to the exactly rounded sum
        n, r = 101, 64
        got = node_data(_smooth, _kantorovich(n, UNIT), QuadratureRule("trapezoid", r)).values
        weights = [0.5 / r] + [1.0 / r] * (r - 1) + [0.5 / r]
        for k in range(n):
            sub = k / n + np.arange(r + 1) / (n * r)
            want = math.fsum(w * v for w, v in zip(weights, _smooth(sub)))
            assert abs(got[k] - want) <= 2.0**-49, k

    @pytest.mark.parametrize("n, rule, make_f", [
        (10**6, None, step_test_function),
        (10**5, QuadratureRule("riemann", 16), lambda: lambda xs: xs),
        (10**5, QuadratureRule("trapezoid", 64), lambda: lambda xs: xs),
        (10**5, QuadratureRule("trapezoid", 15),
         lambda: Signal(UNIT, np.linspace(0.0, 1.0, 1_500_001))),
    ], ids=["exact", "riemann:16", "trapezoid:64", "signal-trapezoid:15"])
    def test_memory_bounded(self, n, rule, make_f):
        # 8 B per cell are the output, which NodeData adopts; the rest is one
        # chunk's work, measured at 4-32 B per element
        f = make_f()
        tracemalloc.start()
        try:
            data = node_data(f, _kantorovich(n, UNIT), rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data.values) == n
        assert peak <= 8 * n + 64 * quadrature._CHUNK

    def test_memory_bounded_for_thousands_of_pieces(self):
        # 4096 breakpoints: a row-sum block holds 16 cut cells, and each
        # crowded cell's pairwise sum runs over a row of every piece
        n = 10**5
        rng = np.random.default_rng(17)
        breakpoints = np.unique(rng.uniform(0.0, 1.0, 4096))
        f = PiecewiseConstant(UNIT, tuple(breakpoints), tuple(rng.uniform(0.0, 1.0, 4097)))
        tracemalloc.start()
        try:
            data = cell_averages_exact(f, UNIT, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 64 * quadrature._CHUNK
        # every crowded cell (two breakpoints or more), some other cut cells
        # and some whole ones
        cut = np.floor(breakpoints * n).astype(int)
        crowded = cut[1:][np.diff(cut) == 0]
        assert len(crowded)
        ks = np.unique(np.concatenate([crowded, rng.choice(cut, 300), rng.integers(0, n, 300)]))
        assert np.array_equal(data.values[ks], _per_cell_loop(f, UNIT, n, ks))


def _cells(n, domain):
    k_lo, k_hi = node_bounds("kantorovich", n, domain)
    return k_hi - k_lo + 1


class TestPairmeanOrder:
    def test_half_the_samples_on_the_unit_interval(self):
        assert [pairmean_order(2 * m, UNIT) for m in (1, 7, 800)] == [1, 7, 800]

    def test_off_the_unit_interval(self):
        assert pairmean_order(12, Domain(0.3, 0.9)) == 10  # cells 3..8
        # n = 40 and n = 41 both have 40 cells on [0.5, 1.5]; the smaller wins
        assert pairmean_order(80, Domain(0.5, 1.5)) == 40

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="got 13 samples"):
            pairmean_order(13, UNIT)

    def test_no_order_fits(self):
        # on [0, 3] every order has a multiple of 3 cells
        with pytest.raises(ValueError, match="\\[0.0, 3.0\\].*got 8 samples"):
            pairmean_order(8, Domain(0.0, 3.0))

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-2.0, 2.0), width=st.floats(0.05, 3.0),
           cells=st.integers(1, 150))
    def test_smallest_order_with_half_the_samples_as_cells(self, a, width, cells):
        domain = Domain(a, a + width)
        try:
            n = pairmean_order(2 * cells, domain)
        except ValueError:
            n = None
        for m in range(1, (n or int((cells + 2) / width) + 3)):
            try:
                assert _cells(m, domain) != cells
            except EmptyRangeError:
                pass
        if n is not None:
            assert _cells(n, domain) == cells


class TestQuadratureRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule("simpson")
        # exact cell averages are node_data's default, not a rule
        with pytest.raises(ValueError, match="rule kind must be one of"):
            QuadratureRule("exact")
        for refinement in (0, 2.5, 4.0):
            with pytest.raises(ValueError, match="refinement must be a positive integer"):
                QuadratureRule("riemann", refinement)
        assert QuadratureRule("riemann", np.int64(4)).refinement == 4

    def test_refinement_at_most_one_chunk(self):
        # one cell's sub-cell row must fit one chunk of node-data work
        for kind in ("riemann", "trapezoid"):
            assert QuadratureRule(kind, quadrature._CHUNK).refinement == quadrature._CHUNK
            with pytest.raises(ValueError, match="--quad refinement must be at most 65536"):
                QuadratureRule(kind, quadrature._CHUNK + 1)
