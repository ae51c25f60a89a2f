from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nnops import (
    Domain,
    PiecewiseConstant,
    Signal,
    add_gaussian_noise,
    holder_test_function,
    load_signal_csv,
    normalize_to_unit,
    sample_function,
    step_test_function,
)
from nnops import signals
from nnops.kernels import _CHUNK
from helpers import signal_to_csv, synthetic_ecg, traced_peak

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
UNIT = Domain(0.0, 1.0)


class TestStepTestFunction:
    def test_piece_values(self, step):
        assert step(0.1) == 0.2
        assert step(0.35) == 0.9
        assert step(0.65) == 0.3
        assert step(1.0) == 0.6

    def test_breakpoints_belong_to_left_piece(self, step):
        assert step(0.2) == 0.2
        assert step(0.2 + 1e-12) == 0.9
        assert step(0.5) == 0.9
        assert step(0.8) == 0.3

    def test_vectorized(self, step):
        np.testing.assert_array_equal(
            step(np.array([0.0, 0.3, 0.6, 0.9])), [0.2, 0.9, 0.3, 0.6]
        )

    def test_domain_places_jumps(self, step):
        assert step.domain == UNIT and step.breakpoints == (0.2, 0.5, 0.8)
        shifted = step_test_function(Domain(2.0, 4.0))
        assert shifted.domain == Domain(2.0, 4.0)
        assert shifted.breakpoints == (2.4, 3.0, 3.6)
        np.testing.assert_array_equal(
            shifted(np.array([2.0, 2.6, 3.2, 3.8])), [0.2, 0.9, 0.3, 0.6]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant(UNIT, (0.5, 0.4), (0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            PiecewiseConstant(UNIT, (0.5,), (0.1, 1.2))
        with pytest.raises(ValueError):
            PiecewiseConstant(UNIT, (1.5,), (0.1, 0.2))

    def test_nan_piece_value_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            PiecewiseConstant(UNIT, (0.5,), (0.1, np.nan))

    def test_one_value_per_piece(self):
        with pytest.raises(ValueError, match="need exactly one value per piece"):
            PiecewiseConstant(UNIT, (0.5,), (0.1, 0.2, 0.3))


class TestGaussianNoise:
    def test_zero_sigma_identity(self):
        s = Signal(UNIT, np.linspace(0.2, 0.8, 100))
        noisy = add_gaussian_noise(s, 0.0, seed=1)
        assert np.array_equal(noisy.samples, s.samples)

    def test_same_seed_same_output(self):
        s = Signal(UNIT, np.full(1000, 0.5))
        a = add_gaussian_noise(s, 0.05, seed=42)
        b = add_gaussian_noise(s, 0.05, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = add_gaussian_noise(s, 0.05, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_sample_standard_deviation(self):
        # constant 0.5 keeps clipping out of play at 10 sigma
        s = Signal(UNIT, np.full(1_000_000, 0.5))
        noisy = add_gaussian_noise(s, 0.05, seed=7)
        assert 0.049 <= (noisy.samples - 0.5).std() <= 0.051

    def test_clipped_to_unit_range(self):
        s = Signal(UNIT, np.full(10_000, 0.01))
        noisy = add_gaussian_noise(s, 0.2, seed=3)
        assert noisy.samples.min() >= 0.0 and noisy.samples.max() <= 1.0

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40])
    @pytest.mark.parametrize("sigma", [1e-3, 0.05, 0.3, 2.0])
    def test_bitwise_the_clipped_sum(self, seed, sigma):
        s = Signal(UNIT, np.random.default_rng(99).uniform(0.0, 1.0, 5000))
        noise = np.random.default_rng(seed).standard_normal(len(s))
        want = np.clip(s.samples + sigma * noise, 0, 1)
        got = add_gaussian_noise(s, sigma, seed).samples
        assert got.tobytes() == want.tobytes()

    def test_output_read_only_and_adopted(self, monkeypatch):
        given = []
        real = signals.Signal
        monkeypatch.setattr(signals, "Signal", lambda d, x: given.append(x) or real(d, x))
        noisy = add_gaussian_noise(real(UNIT, np.full(100, 0.5)), 0.05, seed=2)
        assert noisy.samples is given[0] and not noisy.samples.flags.writeable

    def test_negative_sigma_rejected(self):
        s = Signal(UNIT, np.array([0.1, 0.9]))
        with pytest.raises(ValueError):
            add_gaussian_noise(s, -0.1, seed=0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        s = Signal(UNIT, np.array([0.1, 0.9]))
        with pytest.raises(ValueError, match="sigma"):
            add_gaussian_noise(s, sigma, seed=0)

    def test_huge_sigma_clips_without_warning(self):
        # sigma * z overflows to +-inf for |z| > 1.8, which clips to 1 or 0;
        # the suite turns a RuntimeWarning into an error
        s = Signal(UNIT, np.random.default_rng(99).uniform(0.0, 1.0, 5000))
        noise = np.random.default_rng(4).standard_normal(len(s))
        got = add_gaussian_noise(s, 1e308, seed=4).samples
        assert np.array_equal(got, (noise > 0.0).astype(float))


class TestNormalization:
    def test_basic_map(self):
        s = Signal(UNIT, np.array([0.0, 5.0, 10.0]))
        np.testing.assert_array_equal(
            normalize_to_unit(s)[0].samples, [0.0, 0.5, 1.0]
        )

    def test_records_offset_gain(self):
        s = Signal(UNIT, np.array([2.0, 4.0]))
        assert normalize_to_unit(s)[1:] == (2.0, 2.0)

    def test_memory_bounded(self):
        # 8 B a sample are the output, mapped in its own memory and adopted
        # by the Signal, bit for bit the plain formula
        n = 10**6
        s = Signal(UNIT, np.random.default_rng(6).uniform(-3.0, 5.0, n))
        (mapped, lo, gain), peak = traced_peak(lambda: normalize_to_unit(s))
        assert peak <= 8 * n + 64 * _CHUNK
        assert mapped.samples.tobytes() == ((s.samples - lo) / gain).tobytes()

    def test_degenerate_range(self):
        s = Signal(UNIT, np.full(5, 3.0))
        with pytest.raises(ValueError, match="all samples equal; cannot normalize"):
            normalize_to_unit(s)

    def test_range_past_the_float_range(self):
        # hi - lo overflows: no gain maps the samples, so no warning and no
        # signal of zeros and NaN
        s = Signal(UNIT, np.array([-1e308, 0.0, 1e308]))
        with pytest.raises(ValueError, match=r"sample range \[-1e\+308, 1e\+308\] is wider "
                                             "than the float range"):
            normalize_to_unit(s)

    def test_order_statistics_preserved(self):
        rng = np.random.default_rng(0)
        s = Signal(UNIT, rng.normal(size=500))
        norm = normalize_to_unit(s)[0]
        assert np.array_equal(np.argsort(s.samples), np.argsort(norm.samples))

    @settings(max_examples=80, deadline=None)
    @given(
        arrays(
            float,
            st.integers(2, 60),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ).filter(lambda a: a.max() - a.min() > 1e-6)
    )
    def test_round_trip_identity(self, samples):
        norm, offset, gain = normalize_to_unit(Signal(UNIT, samples))
        back = offset + gain * norm.samples
        scale = max(1.0, np.abs(samples).max())
        assert np.abs(back - samples).max() <= 1e-12 * scale


class TestSignalLookup:
    def test_nearest_sample(self):
        s = Signal(UNIT, np.array([0.0, 0.5, 1.0]))
        assert s(0.0) == 0.0
        assert s(0.2) == 0.0
        assert s(0.3) == 0.5
        assert s(0.76) == 1.0

    def test_writable_array_copied(self):
        given = np.array([0.1, 0.2, 0.3])
        s = Signal(UNIT, given)
        given[0] = 0.9
        assert s.samples[0] == 0.1 and not np.shares_memory(s.samples, given)

    def test_read_only_view_copied(self):
        base = np.array([0.1, 0.2, 0.3, 0.4])
        view = base[1:]
        view.setflags(write=False)
        s = Signal(UNIT, view)
        base[1] = 0.9
        assert s.samples[0] == 0.2 and not np.shares_memory(s.samples, base)

    def test_read_only_owner_adopted(self):
        given = np.array([0.1, 0.2, 0.3])
        given.setflags(write=False)
        s = Signal(UNIT, given)
        assert np.shares_memory(s.samples, given)
        with pytest.raises(ValueError):
            s.samples[0] = 0.9

    def test_samples_immutable(self):
        s = Signal(UNIT, [0.1, 0.2, 0.3])
        assert s.samples.dtype == np.float64
        with pytest.raises(ValueError):
            s.samples[0] = 0.9

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="a signal needs at least 2 samples"):
            Signal(UNIT, np.array([0.5]))

    def test_sample_function_needs_two_samples(self):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            sample_function(lambda xs: xs, UNIT, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Signal(UNIT, np.array([0.2, bad, 0.4]))


class TestCsvLoader:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_signal_csv(tmp_path / "nope.csv", column="value")

    def test_parse_error_names_row_and_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n0.1\nabc\n0.3\n")
        with pytest.raises(ValueError, match="row 1, column 0: cannot parse 'abc'"):
            load_signal_csv(p, column="value")

    def test_non_finite_cell_names_row_and_column(self, tmp_path):
        for cell in ("nan", "inf", "-inf"):
            p = tmp_path / "s.csv"
            p.write_text(f"x,value\n0,0.1\n0.5,0.2\n1,{cell}\n")
            with pytest.raises(ValueError, match=f"row 2, column 1: non-finite value '{cell}'"):
                load_signal_csv(p, column="value")

    def test_named_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,value\n0,0.25\n1,0.75\n")
        s = load_signal_csv(p, column="value")
        np.testing.assert_array_equal(s.samples, [0.25, 0.75])

    def test_unknown_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,value\n0,0.25\n1,0.75\n")
        with pytest.raises(ValueError, match="no column named 'volts'"):
            load_signal_csv(p, column="volts")

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n0.5\n")
        with pytest.raises(ValueError, match="need at least 2 rows, got 1"):
            load_signal_csv(p, column="value")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("\n  \n")
        with pytest.raises(ValueError, match="s.csv: empty file"):
            load_signal_csv(p, column="value")

    def test_short_row_names_row_and_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,value\n0,0.25\n1\n")
        with pytest.raises(ValueError, match="row 1 has no column 1"):
            load_signal_csv(p, column="value")

    def test_memory_bounded(self, tmp_path):
        # rows are streamed, so 8 B a row are the parsed values, adopted by
        # the Signal; 1e5 rows, as parsing is slow under tracemalloc
        n = 10**5
        values = np.random.default_rng(7).uniform(0.0, 1.0, n)
        p = tmp_path / "big.csv"
        p.write_text("x,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist())))
        s, peak = traced_peak(lambda: load_signal_csv(p, column="value"))
        assert peak <= 8 * n + 64 * _CHUNK
        assert np.array_equal(s.samples, values)

    def test_ecg_fixture_has_1600_samples(self):
        s = load_signal_csv(DATA_DIR / "ecg_synthetic.csv", column="value")
        assert len(s) == 1600
        assert s.samples.min() >= 0.0 and s.samples.max() <= 1.0

    def test_write_read_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        s = Signal(UNIT, rng.uniform(0, 1, 64))
        p = tmp_path / "rt.csv"
        p.write_text(signal_to_csv(s))
        back = load_signal_csv(p, column="value")
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(back.samples, s.samples)

    def test_emit_parse_emit_idempotent(self, tmp_path):
        s = synthetic_ecg(128, 2)
        p = tmp_path / "e.csv"
        p.write_text(signal_to_csv(s))
        text = p.read_text()
        back = load_signal_csv(p, column="value")
        assert signal_to_csv(back) == text


class TestSyntheticEcg:
    def test_deterministic(self):
        a = synthetic_ecg(400, 3)
        b = synthetic_ecg(400, 3)
        assert np.array_equal(a.samples, b.samples)

    def test_regenerates_bundled_fixture(self):
        want = (DATA_DIR / "ecg_synthetic.csv").read_bytes()
        assert signal_to_csv(synthetic_ecg()).encode() == want

    def test_memory_bounded(self):
        # 8 B a sample each for the grid, the output (adopted by the Signal)
        # and the one wave added at a time
        n = 10**6
        _, peak = traced_peak(lambda: synthetic_ecg(n))
        assert peak <= 3 * 8 * n + 64 * _CHUNK

    def test_unit_range_and_beats(self):
        s = synthetic_ecg(1600, 5)
        assert s.samples.min() >= 0.0 and s.samples.max() <= 1.0
        # five R spikes: five local maxima above 0.7
        tall = s.samples > 0.7
        runs = np.diff(tall.astype(int))
        assert (runs == 1).sum() == 5


class TestHolderFunction:
    def test_identity_case(self):
        f = holder_test_function(1.0)
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(f(xs), xs, atol=1e-15)

    def test_holder_bound_sampled(self):
        beta = 0.5
        f = holder_test_function(beta)
        rng = np.random.default_rng(8)
        xs, ys = rng.uniform(0, 1, (2, 400))
        lhs = np.abs(f(xs) - f(ys))
        assert np.all(lhs <= np.abs(xs - ys) ** beta + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            holder_test_function(0.0)
        with pytest.raises(ValueError):
            holder_test_function(1.5)
