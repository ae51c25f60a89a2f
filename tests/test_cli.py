import argparse
import dataclasses
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from nnops import (
    Domain,
    NodeData,
    OperatorSpec,
    QuadratureRule,
    Signal,
    brute_force_eval,
    cell_averages_exact,
    cell_averages_sampled,
    eval_grid,
    fit_rate,
    holder_test_function,
    load_signal_csv,
    make_kernel,
    normalize_to_unit,
    rate_exponent_holder,
    lp_error,
    step_test_function,
)
from nnops.cli import build_parser, main
from nnops.experiments import RateSweep, denoise_sweep, rate_sweep
from helpers import signal_to_csv

GOLDEN = Path(__file__).resolve().parent / "data" / "approximate_golden.csv"
ECG = Path(__file__).resolve().parent.parent / "data" / "ecg_synthetic.csv"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelInfo:
    def test_fields_and_values(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "tanh")
        assert code == 0
        info = json.loads(out)
        assert info["variant"] == "tanh"
        assert info["phi_zero"] == pytest.approx(math.tanh(1.0) / 2.0, abs=1e-12)
        assert info["phi_floor"] == pytest.approx(
            (math.tanh(3.0) - math.tanh(1.0)) / 4.0, abs=1e-12
        )
        assert info["moment_1_plus_alpha"] == pytest.approx(0.29616, abs=1e-4)
        assert "gamma" not in info

    def test_power_kernel_includes_gamma(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "power:0.5")
        assert code == 0
        info = json.loads(out)
        assert info["gamma"] == 0.5
        assert info["alpha"] == 0.5

    def test_power_one_moment_is_tail_limit(self, capsys):
        # the closed-form tail stays below the limit 1 instead of 7.8e-8 above
        code, out, _ = run(capsys, "kernel-info", "--kernel", "power:1")
        info = json.loads(out)
        assert (code, info["moment_1_plus_alpha"], info["decay_M"]) == (0, 1.0, 1.1)

    def test_small_gamma_flat_top(self, capsys):
        # power:0.01 is flat at 2^-102 for |x| <= 2^100 - 1, where its
        # difference-of-sigmoids form rounds to 0; its moment peaks there
        code, out, _ = run(capsys, "kernel-info", "--kernel", "power:0.01")
        info = json.loads(out)
        assert (code, info["phi_zero"], info["phi_floor"]) == (0, 2.0**-102, 2.0**-102)
        assert info["moment_1_plus_alpha"] == pytest.approx(0.5, rel=1e-12)

    def test_bad_kernel_exits_2(self, capsys):
        code, _, err = run(capsys, "kernel-info", "--kernel", "gauss")
        assert code == 2
        assert "gauss" in err


class TestApproximate:
    def test_row_count_and_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "approximate", "--family", "maxmin",
                           "--mode", "kantorovich", "--n", "30",
                           "--kernel", "tanh", "--fn", "step", "--grid", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,f,Kf"
        assert len(lines) == 201
        spec = OperatorSpec("maxmin", "kantorovich", 30, Domain(0.0, 1.0),
                            make_kernel("tanh"))
        data = cell_averages_exact(step_test_function(), Domain(0.0, 1.0), 30)
        for ln in lines[1:: 40]:
            x, f, kf = (float(t) for t in ln.split(","))
            assert kf == pytest.approx(brute_force_eval(spec, data, x), abs=1e-12)

    def test_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, "approximate", "--family", "maxmin",
                           "--mode", "kantorovich", "--n", "30",
                           "--kernel", "tanh", "--fn", "step", "--grid", "2000")
        assert code == 0
        got = out.strip().splitlines()
        want = GOLDEN.read_text().strip().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        # value comparison at 10 significant digits; byte identity would pin
        # one platform's libm
        for g, w in zip(got[1:], want[1:]):
            for a, b in zip(g.split(","), w.split(",")):
                assert float(a) == pytest.approx(float(b), rel=1e-10, abs=1e-12)

    def test_small_gamma_linear_is_node_mean(self, capsys):
        # power:0.01 weighs every node by its flat top 2^-102, so each row is
        # the mean of the node values
        code, out, _ = run(capsys, "approximate", "--family", "linear", "--n", "20",
                           "--kernel", "power:0.01", "--grid", "50")
        kf = np.array([float(ln.split(",")[2]) for ln in out.strip().splitlines()[1:]])
        mean = cell_averages_exact(step_test_function(), Domain(0.0, 1.0), 20).values.mean()
        assert code == 0 and len(kf) == 50
        np.testing.assert_allclose(kf, mean, rtol=1e-15)

    def test_constant_signal_input(self, capsys, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text(signal_to_csv(Signal(Domain(0.0, 1.0), np.full(400, 0.55))))
        code, out, _ = run(capsys, "approximate", "--n", "20", "--input", str(p),
                           "--quad", "riemann:16", "--grid", "50")
        assert code == 0
        for ln in out.strip().splitlines()[1:]:
            assert float(ln.split(",")[2]) == pytest.approx(0.55, abs=1e-12)

    def test_csv_parses_back_through_loader(self, capsys, tmp_path):
        p = tmp_path / "out.csv"
        code, _, _ = run(capsys, "approximate", "--n", "10", "--fn", "step",
                         "--grid", "60", "--out", str(p))
        assert code == 0
        s = load_signal_csv(p, column="Kf")
        assert len(s) == 60

    def test_out_of_range_input_normalized(self, capsys, tmp_path):
        raw = np.array([-0.4, 1.1, 0.2, 0.5, 2.6, -0.1, 0.7, 0.3])
        p = tmp_path / "raw.csv"
        p.write_text(signal_to_csv(Signal(Domain(0.0, 1.0), raw)))
        code, out, err = run(capsys, "approximate", "--n", "2", "--input", str(p),
                             "--quad", "riemann:4", "--grid", "8")
        assert code == 0
        assert "offset=-0.40000000000000002 gain=3" in err
        # the output grid is the sample grid, so column f is the mapped trace
        f = [float(ln.split(",")[1]) for ln in out.splitlines()[1:]]
        want = normalize_to_unit(Signal(Domain(0.0, 1.0), raw))[0].samples
        np.testing.assert_array_equal(f, want)
        assert want.min() == 0.0 and want.max() == 1.0

    def test_identity_follows_domain(self, capsys):
        # ((x - a)/(b - a))^beta on [a, b], not the unit-interval identity
        # clipped to 1 there
        code, out, _ = run(capsys, "approximate", "--domain=2,3", "--n", "10",
                           "--fn", "identity", "--grid", "3")
        assert code == 0
        assert [ln.split(",")[1] for ln in out.splitlines()[1:]] == ["0", "0.5", "1"]

    def test_step_follows_domain(self, capsys):
        # the step's jumps sit at a + (0.2, 0.5, 0.8)(b - a), not at 0.2, 0.5
        # and 0.8, which would leave a constant 0.6 on [2, 3]
        argv = ["approximate", "--n", "10", "--fn", "step", "--grid", "3"]
        unit = [ln.split(",")[1:] for ln in run(capsys, *argv)[1].splitlines()[1:]]
        code, out, _ = run(capsys, *argv, "--domain=2,3")
        shifted = [ln.split(",")[1:] for ln in out.splitlines()[1:]]
        assert code == 0
        assert [f for f, _ in shifted] == [f for f, _ in unit] == [
            "0.20000000000000001", "0.90000000000000002", "0.59999999999999998"]
        np.testing.assert_allclose([float(kf) for _, kf in shifted],
                                   [float(kf) for _, kf in unit], rtol=1e-9)

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "approximate", "--n", "10", "--fn", "step",
                           "--grid", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"operator", "x", "f", "Kf"}
        assert len(payload["x"]) == 8


class TestErrorTable:
    def test_single_row(self, capsys):
        code, out, err = run(capsys, "error-table", "--n-list", "10",
                             "--grid", "20000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,linear,maxmin,maxprod"
        assert len(lines) == 2
        vals = [float(t) for t in lines[1].split(",")[1:]]
        assert vals == pytest.approx([0.1457, 0.1386, 0.1171], abs=2e-3)
        assert "linear" in err  # aligned text view goes to stderr

    def test_p2_errors_decrease(self, capsys):
        code, out, _ = run(capsys, "error-table", "--n-list", "10,40,160",
                           "--p", "2", "--grid", "20000")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        for col in (1, 2, 3):
            errs = [float(r[col]) for r in rows]
            assert all(e > 0 for e in errs)
            assert errs[0] > errs[1] > errs[2]

    def test_p_inf_is_sup_norm(self, capsys):
        code, out, _ = run(capsys, "error-table", "--p", "inf",
                           "--n-list", "10,30", "--grid", "1000")
        assert code == 0
        step, unit, tanh = step_test_function(), Domain(0.0, 1.0), make_kernel("tanh")
        for ln in out.strip().splitlines()[1:]:
            n, *vals = ln.split(",")
            data = cell_averages_exact(step, unit, int(n))
            for family, got in zip(("linear", "maxmin", "maxprod"), vals):
                spec = OperatorSpec(family, "kantorovich", int(n), unit, tanh)
                want = lp_error(lambda xs: eval_grid(spec, data, xs), step, math.inf, unit, 1000)
                assert float(got) == want

    def test_rate_row_on_stderr(self, capsys):
        code, _, err = run(capsys, "error-table", "--n-list", "10,20,40",
                           "--grid", "2000")
        assert code == 0
        assert err.splitlines()[-1].split()[0] == "rate"
        code, _, err = run(capsys, "error-table", "--n-list", "40,20,10",
                           "--grid", "2000")
        assert code == 2
        assert "increasing" in err

    def test_step_follows_domain(self, capsys):
        argv = ["error-table", "--n-list", "10,90", "--grid", "20000", "--json"]
        unit = json.loads(run(capsys, *argv)[1])["errors"]
        code, out, _ = run(capsys, *argv, "--domain=2,3")
        assert code == 0
        shifted = json.loads(out)["errors"]
        for family in ("linear", "maxmin", "maxprod"):
            np.testing.assert_allclose(shifted[family], unit[family], rtol=1e-9)

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "error-table", "--n-list", "10",
                           "--grid", "5000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_values"] == [10]
        assert set(payload["errors"]) == {"linear", "maxmin", "maxprod"}


class TestRate:
    def test_report_fit_and_theoretical_exponent(self):
        ns = np.array([10.0, 20.0, 40.0, 80.0])
        assert fit_rate(ns, 2.0 * ns**-0.75) == pytest.approx(-0.75, abs=1e-9)
        alpha = make_kernel("tanh").alpha
        assert -rate_exponent_holder(alpha, 1.0) == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_identity_sweep(self, capsys):
        code, out, _ = run(capsys, "rate", "--fn", "identity",
                           "--n-list", "25,50,100", "--grid", "1000")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["operator", "p", "n_values", "errors", "fitted_rate",
                                 "theoretical_exponent", "bounds"]
        # the payload is the RateSweep record less the reason for a missing bound
        assert list(payload) == [f.name for f in dataclasses.fields(RateSweep)
                                 if f.name != "no_bound"]
        assert payload["operator"] == "maxmin/kantorovich kernel=tanh"
        assert payload["p"] == "inf"
        assert payload["fitted_rate"] < -0.6
        assert payload["theoretical_exponent"] == pytest.approx(-2.0 / 3.0)

    def test_fitted_rate_present_with_three_points(self):
        identity, tanh = holder_test_function(1.0), make_kernel("tanh")
        for ns, fitted in (((10, 20, 40), True), ((10, 20), False)):
            sweep = rate_sweep("op", identity, "maxmin", "kantorovich", tanh, Domain(0.0, 1.0),
                               ns, 1.0, 200, 1.0)
            assert (sweep.fitted_rate is not None) == fitted
            if fitted:
                assert sweep.fitted_rate == fit_rate(ns, sweep.errors) < 0.0

    def test_lipschitz_theoretical_exponent(self, capsys):
        code, out, _ = run(capsys, "rate", "--fn", "lipschitz:0.5",
                           "--n-list", "10,20,40", "--grid", "200")
        assert code == 0
        payload = json.loads(out)
        assert payload["theoretical_exponent"] == pytest.approx(-0.4, abs=1e-12)
        assert payload["n_values"] == [10, 20, 40]
        assert payload["fitted_rate"] < 0.0

    def test_identity_follows_domain(self, capsys):
        # on [2, 3] the sweep measures the same rate as on [0, 1], not the
        # zero error of a constant
        argv = ["rate", "--n-list", "10,20,40", "--grid", "200"]
        unit = json.loads(run(capsys, *argv)[1])
        code, out, _ = run(capsys, *argv, "--domain=2,3")
        shifted = json.loads(out)
        assert code == 0 and shifted["fitted_rate"] < -0.6
        np.testing.assert_allclose(shifted["errors"], unit["errors"], rtol=1e-13)

    def test_default_prints_bounds_above_errors(self, capsys):
        code, out, err = run(capsys, "rate")
        payload = json.loads(out)
        assert (code, err, list(payload)[-1]) == (0, "", "bounds")
        assert len(payload["bounds"]) == len(payload["errors"]) == 5
        assert all(b >= e for b, e in zip(payload["bounds"], payload["errors"]))

    def test_no_bounds_for_linear_family(self, capsys):
        code, out, err = run(capsys, "rate", "--family", "linear",
                             "--n-list", "10,20,40", "--grid", "200")
        assert (code, json.loads(out)["bounds"], err) == (0, None, "")

    @pytest.mark.parametrize("alpha, p", [("200", "inf"), ("196", "inf"), ("196", "1")])
    def test_bound_past_float_range_is_null(self, capsys, alpha, p):
        # alpha 200: the moment overflows; 196: the moment fits, moment / phi(2)
        # does not
        code, out, err = run(capsys, "rate", "--n-list", "10,20,40", "--grid", "200",
                             "--alpha", alpha, "--p", p)
        assert (code, json.loads(out)["bounds"]) == (0, None)
        assert err.startswith("no a priori bound: ") and err.count("\n") == 1


class TestDenoise:
    def test_columns_and_distances(self, capsys):
        code, out, err = run(capsys, "denoise", "--n", "200", "--sigma", "0.05",
                             "--seed", "1", "--kernel", "logistic",
                             "--scale", "0.1", "--grid", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,noisy,kant_maxmin,samp_maxmin,kant_maxprod"
        assert len(lines) == 101
        assert "kant_maxmin" in err  # distance summary on stderr

    def test_seed_sweep(self, capsys):
        argv = ["denoise", "--n", "200", "--sigma", "0.05", "--kernel", "logistic",
                "--scale", "0.1", "--grid", "100", "--seed", "4"]
        code, out, err = run(capsys, *argv, "--seeds", "3")
        assert code == 0
        assert out == run(capsys, *argv)[1]  # stdout: the curves of --seed only
        rows = [ln.split() for ln in err.splitlines() if ln[:5].strip().isdigit()]
        assert [int(r[0]) for r in rows] == [4, 5, 6]
        assert all(len(r) == 4 and all(0.0 < float(v) < 1.0 for v in r[1:])
                   for r in rows)
        wins = sum(float(r[1]) <= float(r[2]) for r in rows)
        assert f"won {wins}/3 seeds" in err

    def test_sigma_zero_reduces_to_noiseless(self, capsys):
        code, out, _ = run(capsys, "denoise", "--n", "100", "--sigma", "0",
                           "--seed", "5", "--grid", "40", "--json")
        assert code == 0
        payload = json.loads(out)
        clean = step_test_function()
        spec = OperatorSpec("maxmin", "kantorovich", 100, Domain(0.0, 1.0),
                            make_kernel("tanh"))
        base = cell_averages_exact(clean, Domain(0.0, 1.0), 100)
        want = eval_grid(spec, base, np.array(payload["x"]))
        # the CLI averages 16 noiseless sub-samples per cell; agreement is up
        # to the sub-sampling quadrature, not bitwise
        assert np.abs(np.array(payload["kant_maxmin"]) - want).max() < 0.05
        assert payload["n"] == 100

    def test_step_follows_domain(self, capsys):
        # order 50 on [0, 2] has the 100 cells of order 100 on [0, 1], and the
        # step is sampled 16 times per cell on both: the same curves, and L1
        # distances doubled by the width
        argv = ["denoise", "--grid", "50", "--json"]
        unit = json.loads(run(capsys, *argv, "--n", "100")[1])
        code, out, err = run(capsys, *argv, "--n", "50", "--domain", "0,2")
        assert code == 0, err
        wide = json.loads(out)
        for name in ("noisy", "kant_maxmin", "samp_maxmin", "kant_maxprod"):
            np.testing.assert_allclose(wide[name], unit[name], rtol=1e-12)
        for name, l1 in unit["l1_distances"].items():
            assert wide["l1_distances"][name] == pytest.approx(2.0 * l1, rel=1e-12)

    def test_pairmean_input_halves_node_count(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        # (domain, samples, order): on [0.3, 0.9] n = 10 has the 6 cells 3..8
        for a, b, size, n in ((0.0, 1.0, 80, 40), (0.3, 0.9, 12, 10)):
            domain = Domain(a, b)
            sig = Signal(domain, rng.uniform(0.2, 0.8, size))
            p = tmp_path / "sig.csv"
            p.write_text(signal_to_csv(sig))
            code, out, err = run(capsys, "denoise", "--input", str(p),
                                 "--quad", "pairmean", "--sigma", "0",
                                 "--domain", f"{a},{b}", "--grid", "20", "--json")
            assert code == 0, err
            payload = json.loads(out)
            assert payload["n"] == n
            # the operator applied is the half-rate Kantorovich max-min
            data = cell_averages_sampled(sig, n, QuadratureRule("pairmean"))
            spec = OperatorSpec("maxmin", "kantorovich", n, domain, make_kernel("tanh"))
            want = eval_grid(spec, data, np.array(payload["x"]))
            np.testing.assert_allclose(payload["kant_maxmin"], want, atol=1e-12)

    def test_input_seed_sweep(self, capsys):
        """--seeds sweeps an --input trace against its un-noised self."""
        argv = ["denoise", "--input", str(ECG), "--quad", "pairmean", "--sigma", "0.05",
                "--kernel", "logistic", "--scale", "2", "--grid", "400", "--seed", "2"]
        code, out, err = run(capsys, *argv, "--seeds", "3", "--json")
        assert code == 0, err
        signal = load_signal_csv(ECG, column="value")
        sweep = denoise_sweep(signal, Domain(0.0, 1.0), 800,
                              make_kernel("logistic", scale=2.0), QuadratureRule("pairmean"),
                              0.05, range(2, 5), 400)
        rows = [ln.split() for ln in err.splitlines() if ln[:5].strip().isdigit()]
        assert [int(r[0]) for r in rows] == [2, 3, 4]
        assert [[float(v) for v in r[1:]] for r in rows] == [
            [round(l1[i], 6) for l1 in sweep.l1.values()] for i in range(3)]
        payload = json.loads(out)
        assert payload["l1_distances"] == {name: l1[0] for name, l1 in sweep.l1.items()}
        assert payload["x"] == sweep.curves["x"].tolist()
        assert f"won {sweep.wins}/3 seeds" in err
        assert f"Kantorovich max-product: {sweep.maxprod_wins}/3 seeds" in err

    def test_explicit_order_for_pairmean_input(self, capsys):
        # 1600 samples: the default order is pairmean_order, 800; an explicit
        # --n is used as given, and a wrong one exits 2
        argv = ["denoise", "--input", str(ECG), "--quad", "pairmean", "--sigma", "0",
                "--grid", "50"]
        default = run(capsys, *argv)
        assert default[0] == 0
        assert run(capsys, *argv, "--n", "800") == default
        code, out, err = run(capsys, *argv, "--n", "799")
        assert (code, out) == (2, "")
        assert "pairwise-mean needs exactly 2 samples per cell" in err

    def test_ecg_recipe(self, capsys):
        """Pairwise-mean smoothing of the bundled ECG fixture, the paper's last
        application: the half-rate Kantorovich operators of a wide logistic
        kernel, printed bit for bit as the library computes them."""
        code, out, _ = run(capsys, "denoise", "--input", str(ECG), "--quad", "pairmean",
                           "--sigma", "0", "--kernel", "logistic", "--scale", "2",
                           "--grid", "1600")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,noisy,kant_maxmin,samp_maxmin,kant_maxprod"
        cols = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]]).T
        assert cols.shape == (5, 1600)
        signal = load_signal_csv(ECG, column="value")
        data = cell_averages_sampled(signal, 800, QuadratureRule("pairmean"))
        kernel = make_kernel("logistic", scale=2.0)
        np.testing.assert_array_equal(cols[1], signal(cols[0]))
        for col, family in ((cols[2], "maxmin"), (cols[4], "maxprod")):
            spec = OperatorSpec(family, "kantorovich", 800, Domain(0.0, 1.0), kernel)
            np.testing.assert_array_equal(col, eval_grid(spec, data, cols[0]))


class TestMainEntry:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_every_command_deterministic(self, capsys):
        cases = [
            ["kernel-info", "--kernel", "logistic"],
            ["approximate", "--n", "10", "--fn", "step", "--grid", "50"],
            ["error-table", "--n-list", "10", "--grid", "2000"],
            ["rate", "--fn", "identity", "--n-list", "10,20,40", "--grid", "400"],
            ["denoise", "--n", "50", "--sigma", "0.05", "--seed", "9",
             "--grid", "30"],
        ]
        for argv in cases:
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2, argv


#: CSV inputs of the exit-code table, written to the test's temporary directory
INPUTS = {
    "nan.csv": "x,value\n0,0.1\n0.5,nan\n1,0.3\n",
    "odd.csv": "x,value\n" + "".join(f"{i / 4},0.5\n" for i in range(5)),
    "eight.csv": "x,value\n" + "".join(f"{i / 7},0.5\n" for i in range(8)),
    "raw.csv": "x,value\n" + "".join(f"{i / 7},{v}\n" for i, v in
                                     enumerate((-3, 1, 4, -1, 5, 9, -2, 6))),
    "bare.csv": "0.1\n0.9\n",
    "wide.csv": "x,value\n0,-1e308\n0.5,0\n1,1e308\n",
}


@pytest.mark.parametrize("argv, code, fragment", [
    pytest.param(["approximate", "--n", "1", "--domain", "0.3,0.9", "--fn", "step",
                  "--grid", "10"], 2, "EmptyRange", id="empty-range"),
    pytest.param(["approximate", "--n", "4", "--kernel", "ramp", "--domain",
                  "0.05,0.95", "--fn", "step", "--grid", "10"], 3, "ZeroDenominator",
                 id="zero-denominator"),
    # the weights of grid point 1 of 2000 all vanish, found on its window
    # of a few nodes, not on all 1e6
    pytest.param(["approximate", "--n", "1000000", "--family", "linear", "--kernel", "ramp",
                  "--scale", "10", "--grid", "2000"], 3, "(grid index 1)",
                 id="zero-denominator-large-n"),
    pytest.param(["approximate", "--n", "2", "--input", "{dir}/nan.csv",
                  "--quad", "riemann:1", "--grid", "5"], 2, "row 1, column 1",
                 id="non-finite-input"),
    pytest.param(["approximate", "--n", "10", "--input", "{dir}/missing.csv"], 2,
                 "missing.csv", id="missing-input"),
    pytest.param(["approximate", "--n", "10", "--kernel", "bogus"], 2, "bogus",
                 id="unknown-kernel"),
    pytest.param(["approximate", "--n", "10", "--domain", "0,inf"], 2, "finite",
                 id="infinite-domain"),
    pytest.param(["denoise", "--n", "50", "--sigma", "nan", "--grid", "5"], 2, "sigma",
                 id="nan-sigma"),
    pytest.param(["denoise", "--n", "50", "--seeds", "0", "--grid", "5"], 2,
                 "at least one noise seed", id="zero-seeds"),
    pytest.param(["denoise", "--input", "{dir}/raw.csv", "--quad", "pairmean",
                  "--sigma", "0.05", "--grid", "5"], 0, "offset=-3 gain=12",
                 id="out-of-range-input-normalized"),
    pytest.param(["denoise", "--input", "{dir}/odd.csv", "--quad", "pairmean",
                  "--sigma", "0", "--grid", "5"], 2, "got 5 samples",
                 id="pairmean-odd-length"),
    pytest.param(["denoise", "--input", "{dir}/eight.csv", "--quad", "pairmean",
                  "--sigma", "0", "--domain", "0,3", "--grid", "5"], 2,
                 "[0.0, 3.0]", id="pairmean-no-order-fits"),
    pytest.param(["rate", "--n-list", "40,20,10", "--grid", "200"], 2, "increasing",
                 id="decreasing-n-list"),
    pytest.param(["kernel-info", "--alpha", "inf"], 2, "alpha must be finite",
                 id="infinite-alpha"),
    pytest.param(["kernel-info", "--scale", "inf"], 2, "scale must be finite",
                 id="infinite-scale"),
    pytest.param(["kernel-info", "--domain", "0,1"], 2, "unrecognized arguments: --domain",
                 id="kernel-info-domain"),
    pytest.param(["rate", "--json"], 2, "unrecognized arguments: --json", id="rate-json"),
    pytest.param(["kernel-info", "--kernel", "power:0.5", "--alpha", "0.9"], 2,
                 "alpha must equal gamma=0.5", id="power-alpha-not-gamma"),
    pytest.param(["approximate", "--n", "10", "--domain", "1e308,1.5e308", "--grid", "5"],
                 2, "n=10 on [1e+308, 1.5e+308]", id="overflowing-domain"),
    pytest.param(["kernel-info", "--kernel", "power:0.0009"], 2, "1/gamma < 1024",
                 id="power-joint-not-finite"),
    pytest.param(["approximate", "--family", "linear", "--n", "20", "--kernel", "power:0.01",
                  "--grid", "5"], 0, "", id="power-flat-top"),
    pytest.param(["approximate", "--n", "20", "--grid", "0"], 2, "--grid", id="approximate-grid-0"),
    pytest.param(["approximate", "--n", "20", "--grid", "-3"], 2, "--grid",
                 id="approximate-grid-negative"),
    pytest.param(["denoise", "--input", str(ECG), "--quad", "pairmean", "--sigma", "0",
                  "--grid", "0"], 2, "--grid", id="denoise-grid-0"),
    pytest.param(["kernel-info", "--alpha", "1000"], 2, "float range for alpha=1000.0",
                 id="moment-past-float-range"),
    pytest.param(["kernel-info", "--scale", "0.1", "--alpha", "400"], 2,
                 "float range for alpha=400.0", id="scaled-moment-past-float-range"),
    pytest.param(["kernel-info", "--scale", "0.01", "--alpha", "200"], 2,
                 "float range for alpha=200.0", id="small-scale-moment-past-float-range"),
    pytest.param(["rate", "--n-list", "10,20,40", "--grid", "200", "--alpha", "200"], 0,
                 "no a priori bound", id="rate-moment-past-float-range"),
    pytest.param(["rate", "--kernel", "ramp", "--n-list", "10,20,40", "--grid", "200"], 0,
                 "", id="rate-compact-kernel"),
    pytest.param(["approximate", "--n", "10", "--input", "{dir}/bare.csv", "--grid", "5"],
                 2, "no column named 'value'", id="header-less-input"),
    pytest.param(["approximate", "--n", "30", "--fn", "identity", "--quad", "pairmean"], 2,
                 "needs a sampled trace (--input)", id="pairmean-function"),
    pytest.param(["approximate", "--n", "10", "--domain", "0,2", "--fn", "identity",
                  "--grid", "3"], 0, "", id="identity-on-0-2"),
    pytest.param(["rate", "--domain", "0,2", "--p", "1", "--n-list", "10,20,40",
                  "--grid", "200"], 0, "", id="rate-on-0-2"),
    # at c = 1e308 only a node itself carries weight (c x overflows from |x| = 2 on, with
    # no warning), and x = 1 is no Kantorovich node
    pytest.param(["approximate", "--kernel", "ramp", "--scale", "1e308", "--n", "10",
                  "--grid", "3"], 3, "ZeroDenominator", id="ramp-scale-past-float-range"),
    pytest.param(["approximate", "--kernel", "power:0.5", "--scale", "1e308", "--n", "10",
                  "--grid", "3"], 3, "ZeroDenominator", id="power-scale-past-float-range"),
    # at a tiny scale the kernel's reach, 1.5/c or 5/c, overflows to inf: every node
    pytest.param(["approximate", "--kernel", "ramp", "--scale", "1e-320", "--n", "5",
                  "--grid", "3"], 0, "", id="ramp-reach-past-float-range"),
    pytest.param(["approximate", "--kernel", "three", "--scale", "1e-309", "--n", "5",
                  "--grid", "3"], 0, "", id="three-reach-past-float-range"),
    pytest.param(["approximate", "--kernel", "logistic", "--scale", "1e-320", "--n", "5",
                  "--grid", "3"], 0, "", id="logistic-reach-past-float-range"),
    # alpha is read by the moment and the bounds, which only kernel-info and rate print
    pytest.param(["approximate", "--n", "10", "--alpha", "2"], 2,
                 "unrecognized arguments: --alpha", id="approximate-alpha"),
    pytest.param(["error-table", "--n-list", "10", "--alpha", "2"], 2,
                 "unrecognized arguments: --alpha", id="error-table-alpha"),
    pytest.param(["denoise", "--n", "20", "--alpha", "2"], 2,
                 "unrecognized arguments: --alpha", id="denoise-alpha"),
    pytest.param(["kernel-info", "--resolution", "2000"], 2,
                 "unrecognized arguments: --resolution", id="kernel-info-resolution"),
    pytest.param(["approximate", "--n", "10", "--quad", "exact"], 2,
                 "unknown quadrature rule 'exact'", id="exact-rule"),
    pytest.param(["approximate", "--n", "10", "--fn", "step", "--input", "{dir}/eight.csv"], 2,
                 "argument --input: not allowed with argument --fn", id="fn-and-input"),
    pytest.param(["approximate", "--n", "10", "--mode", "sampling", "--quad", "riemann:4"], 2,
                 "rule is for Kantorovich mode", id="sampling-with-rule"),
    pytest.param(["denoise", "--input", str(ECG), "--quad", "pairmean", "--n", "7",
                  "--sigma", "0", "--grid", "5"], 2,
                 "pairwise-mean needs exactly 2 samples per cell", id="pairmean-wrong-n"),
    pytest.param(["error-table", "--n-list", "0"], 2, "n must be a positive integer, got 0",
                 id="error-table-n-0"),
    pytest.param(["error-table", "--n-list", "-3"], 2, "n must be a positive integer, got -3",
                 id="error-table-n-negative"),
    pytest.param(["denoise", "--n", "0", "--quad", "pairmean"], 2,
                 "n must be a positive integer, got 0", id="denoise-pairmean-n-0"),
    pytest.param(["denoise", "--n", "0"], 2, "n must be a positive integer, got 0",
                 id="denoise-n-0"),
    pytest.param(["denoise", "--n", "-3"], 2, "n must be a positive integer, got -3",
                 id="denoise-n-negative"),
    # order 1 has one cell, and one sub-sample per cell samples the step once
    pytest.param(["denoise", "--n", "1", "--quad", "riemann:1", "--grid", "5"], 2,
                 "n=1 under riemann:1 samples the step at 1 point (1 cell x 1)",
                 id="denoise-one-sample-riemann"),
    pytest.param(["denoise", "--n", "1", "--quad", "trapezoid:1", "--grid", "5"], 2,
                 "n=1 under trapezoid:1 samples the step at 1 point (1 cell x 1)",
                 id="denoise-one-sample-trapezoid"),
    # the L1 sweep takes --grid as its cell count, and a cell sum needs 2
    pytest.param(["denoise", "--n", "20", "--grid", "1"], 2,
                 "--grid must be at least 2, got 1", id="denoise-grid-1"),
    pytest.param(["approximate", "--n", "10", "--quad", "riemann:x"], 2,
                 "--quad refinement must be an integer, got 'riemann:x'",
                 id="non-integer-refinement"),
    # one cell's sub-cells must fit one node-data chunk; rejected before sampling
    pytest.param(["denoise", "--n", "20", "--grid", "5", "--quad", "riemann:100000000000"], 2,
                 "--quad refinement must be at most 65536 sub-cells per cell, "
                 "got 100000000000", id="denoise-refinement-above-chunk"),
    # a negative seed is rejected whether or not noise is drawn
    pytest.param(["denoise", "--seed", "-1", "--n", "20", "--grid", "5"], 2,
                 "seed must be >= 0, got -1", id="negative-seed"),
    pytest.param(["denoise", "--seed", "-1", "--sigma", "0", "--n", "20", "--grid", "5"], 2,
                 "seed must be >= 0, got -1", id="negative-seed-sigma-0"),
    pytest.param(["error-table", "--n-list", "10,x"], 2,
                 "--n-list must be comma-separated integers, got '10,x'",
                 id="error-table-non-integer-n"),
    pytest.param(["rate", "--n-list", "10,x"], 2,
                 "--n-list must be comma-separated integers, got '10,x'",
                 id="rate-non-integer-n"),
    pytest.param(["kernel-info", "--kernel", "power:x"], 2,
                 "--kernel gamma must be a number, got 'power:x'", id="non-numeric-gamma"),
    pytest.param(["rate", "--fn", "lipschitz:x"], 2,
                 "--fn beta must be a number, got 'lipschitz:x'", id="non-numeric-beta"),
    pytest.param(["approximate", "--n", "10", "--domain", "0"], 2,
                 "domain must be 'a,b', got '0'", id="one-number-domain"),
    # a spaced value that starts with '-' is the domain, not an option
    pytest.param(["approximate", "--n", "10", "--domain", "-1,1", "--grid", "3"], 0, "",
                 id="negative-domain-spaced"),
    pytest.param(["approximate", "--n", "10", "--dom", "-1,1", "--grid", "3"], 0, "",
                 id="negative-domain-abbreviated"),
    pytest.param(["approximate", "--n", "10", "--domain", "-1"], 2,
                 "domain must be 'a,b', got '-1'", id="negative-one-number-domain"),
    pytest.param(["approximate", "--n", "10", "--fn", "bogus"], 2,
                 "unknown function 'bogus'", id="unknown-function"),
    # sigma * z overflows to +-inf, which clips to 1 or 0
    pytest.param(["denoise", "--n", "20", "--grid", "5", "--sigma", "1e308"], 0, "",
                 id="sigma-near-float-max"),
    # hi - lo overflows, so no affine map brings the trace onto [0, 1]
    pytest.param(["approximate", "--n", "2", "--input", "{dir}/wide.csv", "--quad",
                  "riemann:1", "--grid", "5"], 2,
                 "sample range [-1e+308, 1e+308] is wider than the float range",
                 id="input-range-past-float-range"),
    # 64 and 71 PiB of node data or grid, which the allocator refuses at once
    pytest.param(["approximate", "--n", "9007199254740993", "--grid", "2"], 2,
                 "Unable to allocate", id="node-data-past-memory"),
    pytest.param(["approximate", "--n", "10", "--grid", "10000000000000000"], 2,
                 "Unable to allocate", id="grid-past-memory"),
])
def test_exit_codes(capsys, tmp_path, argv, code, fragment):
    """Each row: argv -> documented exit code (0, 2 validation, 3 numeric),
    and a fragment of stderr; a failed run writes nothing to stdout, and no
    run prints a warning."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    got, out, err = run(capsys, *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert (got, fragment in err) == (code, True), err
    assert got == 0 or out == ""
    assert "Warning" not in err


#: per subcommand, a base argv as {flag: value} and one alternative value for
#: every flag it registers (None: a switch); "{out}" is a file in the test's
#: temporary directory
FLAG_TABLE = {
    "kernel-info": ({}, {"--kernel": "logistic", "--scale": "2", "--alpha": "2",
                         "--out": "{out}"}),
    # at 5 points (0, 0.25, ..., 1) orders 10 and 20 print the same values
    "approximate": ({"--n": "10", "--grid": "7"}, {
        "--kernel": "logistic", "--scale": "2", "--domain": "0,2", "--out": "{out}",
        "--json": None, "--family": "linear", "--mode": "sampling", "--n": "20",
        "--fn": "identity", "--input": str(ECG), "--grid": "6", "--quad": "riemann:4"}),
    "error-table": ({"--n-list": "10", "--grid": "200"}, {
        "--kernel": "logistic", "--scale": "2", "--domain": "0,2", "--out": "{out}",
        "--json": None, "--n-list": "20", "--p": "2", "--grid": "300"}),
    "rate": ({"--n-list": "10,20", "--grid": "100"}, {
        "--kernel": "logistic", "--scale": "2", "--alpha": "2", "--domain": "0,2",
        "--out": "{out}", "--family": "linear", "--mode": "sampling", "--fn": "step",
        "--n-list": "10,30", "--p": "1", "--grid": "200"}),
    "denoise": ({"--n": "20", "--grid": "10"}, {
        "--kernel": "logistic", "--scale": "2", "--domain": "0,2", "--out": "{out}",
        "--json": None, "--n": "30", "--sigma": "0.1", "--seed": "1", "--seeds": "2",
        "--input": str(ECG), "--grid": "11", "--quad": "trapezoid:16"}),
}


def _argv(command, flags, out):
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value.replace("{out}", out)]
    return argv


def test_every_flag_is_read(capsys, tmp_path):
    """Each registered flag is in FLAG_TABLE, and its alternative value changes
    the exit code, stdout or stderr of the base run: no flag is accepted and
    then ignored."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    registered = {name: {s for a in p._actions if a.dest != "help" for s in a.option_strings}
                  for name, p in subparsers.choices.items()}
    assert registered == {name: set(alt) for name, (_, alt) in FLAG_TABLE.items()}
    out = str(tmp_path / "out.txt")
    for command, (base, alternatives) in FLAG_TABLE.items():
        want = run(capsys, *_argv(command, base, out))
        assert want[0] == 0, (command, want[2])
        for flag, value in alternatives.items():
            got = run(capsys, *_argv(command, {**base, flag: value}, out))
            assert got != want, (command, flag)


def _readme_commands():
    """The ``nnops`` command lines of the README's ``sh`` blocks, with
    continuations joined and comments and ``> /dev/null`` dropped."""
    text = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S))
    lines = text.replace("\\\n", " ").replace("> /dev/null", "").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines]
    return [argv[1:] for argv in argvs if argv[:1] == ["nnops"]]


def test_readme_commands_run(capsys, monkeypatch):
    """Every ``nnops`` command the README shows exits 0 from the repo root."""
    monkeypatch.chdir(README.parent)
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "kernel-info", "approximate", "error-table", "rate", "denoise"}
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
