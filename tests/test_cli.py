import json
import math
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
    load_signal_csv,
    make_error_report,
    make_kernel,
    normalize_to_unit,
    rate_exponent_holder,
    step_test_function,
    sup_error,
    write_signal_csv,
)
from nnops.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "approximate_golden.csv"
ECG = Path(__file__).resolve().parent.parent / "data" / "ecg_synthetic.csv"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelInfo:
    def test_fields_and_values(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "tanh",
                           "--resolution", "5000")
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
        code, out, _ = run(capsys, "kernel-info", "--kernel", "power:0.5",
                           "--resolution", "2000")
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
        code, out, _ = run(capsys, "kernel-info", "--kernel", "power:0.01",
                           "--resolution", "2000")
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
        write_signal_csv(Signal(Domain(0.0, 1.0), np.full(400, 0.55)), p)
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
        write_signal_csv(Signal(Domain(0.0, 1.0), raw), p)
        code, out, err = run(capsys, "approximate", "--n", "2", "--input", str(p),
                             "--quad", "riemann:4", "--grid", "8")
        assert code == 0
        assert "offset=-0.40000000000000002 gain=3" in err
        # the output grid is the sample grid, so column f is the mapped trace
        f = [float(ln.split(",")[1]) for ln in out.splitlines()[1:]]
        want = normalize_to_unit(Signal(Domain(0.0, 1.0), raw)).samples
        np.testing.assert_array_equal(f, want)
        assert want.min() == 0.0 and want.max() == 1.0

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
                want = sup_error(lambda xs: eval_grid(spec, data, xs), step, unit, 1000)
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
        report = make_error_report("maxmin/kantorovich", math.inf, ns, 2.0 * ns**-0.75)
        assert report.fitted_rate == pytest.approx(-0.75, abs=1e-9)
        alpha = make_kernel("tanh").alpha
        assert -rate_exponent_holder(alpha, 1.0) == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_identity_sweep(self, capsys):
        code, out, _ = run(capsys, "rate", "--fn", "identity",
                           "--n-list", "25,50,100", "--grid", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == "inf"
        assert payload["fitted_rate"] < -0.6
        assert payload["theoretical_exponent"] == pytest.approx(-2.0 / 3.0)

    def test_lipschitz_theoretical_exponent(self, capsys):
        code, out, _ = run(capsys, "rate", "--fn", "lipschitz:0.5",
                           "--n-list", "10,20,40", "--grid", "200")
        assert code == 0
        payload = json.loads(out)
        assert payload["theoretical_exponent"] == pytest.approx(-0.4, abs=1e-12)
        assert payload["n_values"] == [10, 20, 40]
        assert payload["fitted_rate"] < 0.0


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

    def test_pairmean_input_halves_node_count(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        # (domain, samples, order): on [0.3, 0.9] n = 10 has the 6 cells 3..8
        for a, b, size, n in ((0.0, 1.0, 80, 40), (0.3, 0.9, 12, 10)):
            domain = Domain(a, b)
            sig = Signal(domain, rng.uniform(0.2, 0.8, size))
            p = tmp_path / "sig.csv"
            write_signal_csv(sig, p)
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
            ["kernel-info", "--kernel", "logistic", "--resolution", "2000"],
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
}


@pytest.mark.parametrize("argv, code, fragment", [
    pytest.param(["approximate", "--n", "1", "--domain", "0.3,0.9", "--fn", "step",
                  "--grid", "10"], 2, "EmptyRange", id="empty-range"),
    pytest.param(["approximate", "--n", "4", "--kernel", "ramp", "--domain",
                  "0.05,0.95", "--fn", "step", "--grid", "10"], 3, "ZeroDenominator",
                 id="zero-denominator"),
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
])
def test_exit_codes(capsys, tmp_path, argv, code, fragment):
    """Each row: argv -> documented exit code (0, 2 validation, 3 numeric),
    and a fragment of stderr; a failed run writes nothing to stdout."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    got, out, err = run(capsys, *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert (got, fragment in err) == (code, True), err
    assert got == 0 or out == ""
