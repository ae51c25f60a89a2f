"""Command-line front end: kernel-info, approximate, error-table, rate, denoise.

Exit codes: 0 on success, 2 on flag/validation problems, 3 on numeric
failures (zero kernel denominator).  Default output is CSV on stdout;
``--json`` switches to a JSON envelope and ``--out`` writes to a file.
All results are deterministic given the flags (including ``--seed``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .experiments import (
    TABLE_FAMILIES,
    denoise_curves,
    denoise_sweep,
    error_table,
    node_data,
    rate_sweep,
)
from .kernels import (
    Kernel,
    absolute_moment,
    eval_kernel,
    kernel_to_json,
    make_kernel,
    phi_floor,
)
from .metrics import report_to_json
from .operators import (
    Domain,
    OperatorSpec,
    ZeroDenominatorError,
    eval_grid,
    node_bounds,
)
from .quadrature import QuadratureRule, pairmean_order
from .signals import (
    Signal,
    add_gaussian_noise,
    holder_test_function,
    load_signal_csv,
    normalize_to_unit,
    sample_function,
    step_test_function,
)


def _parse_kernel(text: str, scale: float, alpha: float | None) -> Kernel:
    if text.startswith("power:"):
        gamma = float(text.split(":", 1)[1])
        return make_kernel("power", gamma=gamma, scale=scale, alpha=alpha)
    return make_kernel(text, scale=scale, alpha=alpha)


def _parse_quad(text: str) -> QuadratureRule:
    if text in ("exact", "pairmean"):
        return QuadratureRule(text)
    kind, _, r = text.partition(":")
    if kind not in ("riemann", "trapezoid"):
        raise ValueError(f"unknown quadrature rule {text!r}")
    return QuadratureRule(kind, int(r) if r else 16)


def _parse_domain(text: str) -> Domain:
    try:
        a, b = (float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"domain must be 'a,b', got {text!r}") from None
    return Domain(a, b)


def _parse_fn(text: str):
    """Named test function -> (callable with values in [0, 1], its Hoelder
    order, or None for the discontinuous step)."""
    if text == "step":
        return step_test_function(), None
    if text == "identity":
        return holder_test_function(1.0), 1.0
    if text.startswith("lipschitz:"):
        beta = float(text.split(":", 1)[1])
        return holder_test_function(beta), beta
    raise ValueError(f"unknown function {text!r}; use step, identity or lipschitz:<beta>")


def _load_input(path: str, domain: Domain) -> Signal:
    """The ``--input`` trace, mapped onto [0, 1] by :func:`normalize_to_unit`
    (offset and gain on stderr) if any sample lies outside."""
    signal = load_signal_csv(path, column="value", domain=domain)
    if signal.samples.min() < 0.0 or signal.samples.max() > 1.0:
        signal = normalize_to_unit(signal)
        offset, gain = signal.normalization
        print(f"normalized {path} to [0, 1]: value = offset + gain * sample, "
              f"offset={offset:.17g} gain={gain:.17g}", file=sys.stderr)
    return signal


def _emit(text: str, out: str | None) -> int:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _emit_columns(args, columns: dict, **meta) -> int:
    """Equal-length columns as CSV with 17 significant digits or, with
    ``--json``, as one object of ``meta`` and a list per column."""
    if args.json:
        payload = dict(meta)
        payload.update((name, np.asarray(col).tolist()) for name, col in columns.items())
        return _emit(json.dumps(payload) + "\n", args.out)
    lines = [",".join(columns)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in zip(*columns.values())]
    return _emit("\n".join(lines) + "\n", args.out)


def _add_shared(p: argparse.ArgumentParser, with_domain: bool = True,
                with_json: bool = True) -> None:
    p.add_argument("--kernel", default="tanh",
                   help="logistic|tanh|ramp|three|power:<gamma> (default tanh)")
    p.add_argument("--scale", type=float, default=1.0, help="kernel argument scale c")
    p.add_argument("--alpha", type=float, default=None,
                   help="tail decay exponent (default 1; power kernels pin it to gamma)")
    if with_domain:
        p.add_argument("--domain", default="0,1", help="interval as 'a,b' (default 0,1)")
    p.add_argument("--out", default=None, help="write output to this file")
    if with_json:
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnops",
        description="Sampling and Kantorovich neural network operators "
                    "(linear, max-product, max-min) with sigmoidal kernels.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("kernel-info", help="kernel metadata, floor value and moment")
    _add_shared(p, with_domain=False, with_json=False)
    p.add_argument("--resolution", type=int, default=100_000,
                   help="moment scan resolution")
    p.set_defaults(func=cmd_kernel_info)

    p = sub.add_parser("approximate", help="evaluate one operator on one function")
    _add_shared(p)
    p.add_argument("--family", default="maxmin", choices=("linear", "maxprod", "maxmin"))
    p.add_argument("--mode", default="kantorovich", choices=("sampling", "kantorovich"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fn", default="step", help="step|identity|lipschitz:<beta>")
    p.add_argument("--input", default=None, help="CSV signal instead of --fn")
    p.add_argument("--grid", type=int, default=2000, help="output grid points")
    p.add_argument("--quad", default=None,
                   help="exact|riemann:<r>|trapezoid:<r>|pairmean (default: exact-grade)")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("error-table",
                       help="L^p errors of the three Kantorovich operators on the step function")
    _add_shared(p)
    p.add_argument("--n-list", default="10,30,90,150,500")
    p.add_argument("--p", type=float, default=1.0,
                   help="norm order, or 'inf' for the sup norm")
    p.add_argument("--grid", type=int, default=100_000, help="norm quadrature cells")
    p.set_defaults(func=cmd_error_table)

    p = sub.add_parser("rate", help="empirical vs theoretical convergence exponent")
    _add_shared(p, with_json=False)
    p.add_argument("--family", default="maxmin", choices=("linear", "maxprod", "maxmin"))
    p.add_argument("--mode", default="kantorovich", choices=("sampling", "kantorovich"))
    p.add_argument("--fn", default="identity", help="step|identity|lipschitz:<beta>")
    p.add_argument("--n-list", default="25,50,100,200,400")
    p.add_argument("--p", type=float, default=math.inf,
                   help="norm order, or 'inf' for the sup norm (default)")
    p.add_argument("--grid", type=int, default=10_000)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("denoise",
                       help="compare Kantorovich and sampling operators on a noisy signal")
    _add_shared(p)
    p.add_argument("--n", type=int, default=2000, help="operator order")
    p.add_argument("--sigma", type=float, default=0.05, help="noise standard deviation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1,
                   help="L1 sweep over noise seeds seed..seed+K-1 (built-in step only)")
    p.add_argument("--input", default=None, help="CSV signal instead of the built-in step")
    p.add_argument("--grid", type=int, default=2000, help="output grid points")
    p.add_argument("--quad", default="riemann:16")
    p.set_defaults(func=cmd_denoise)

    return parser


def cmd_kernel_info(args) -> int:
    kernel = _parse_kernel(args.kernel, args.scale, args.alpha)
    info = json.loads(kernel_to_json(kernel))
    info["phi_zero"] = eval_kernel(kernel, 0.0)
    info["phi_floor"] = phi_floor(kernel)
    info["moment_1_plus_alpha"] = absolute_moment(
        kernel, 1.0 + kernel.alpha, resolution=args.resolution
    )
    return _emit(json.dumps(info) + "\n", args.out)


def cmd_approximate(args) -> int:
    domain = _parse_domain(args.domain)
    kernel = _parse_kernel(args.kernel, args.scale, args.alpha)
    spec = OperatorSpec(args.family, args.mode, args.n, domain, kernel)
    rule = _parse_quad(args.quad) if args.quad else None
    f = _load_input(args.input, domain) if args.input else _parse_fn(args.fn)[0]
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    data = node_data(f, spec, rule)
    xs = np.linspace(domain.a, domain.b, args.grid)
    fx = np.asarray(f(xs), dtype=float)
    return _emit_columns(args, {"x": xs, "f": fx, "Kf": eval_grid(spec, data, xs)},
                         operator=spec.describe())


def cmd_error_table(args) -> int:
    kernel = _parse_kernel(args.kernel, args.scale, args.alpha)
    n_values = [int(t) for t in args.n_list.split(",")]
    table = error_table(kernel, n_values, args.p, _parse_domain(args.domain), args.grid)
    # aligned text view on stderr; stdout stays machine readable
    print(f"{'n':>6} {'linear':>10} {'maxmin':>10} {'maxprod':>10}", file=sys.stderr)
    for n, errs in table.rows():
        print(f"{n:>6} " + " ".join(f"{e:>10.4f}" for e in errs), file=sys.stderr)
    rates = [table.reports[fam].fitted_rate for fam in TABLE_FAMILIES]
    if None not in rates:
        print(f"{'rate':>6} " + " ".join(f"{r:>10.3f}" for r in rates), file=sys.stderr)
    if args.json:
        payload = {
            "p": "inf" if math.isinf(args.p) else args.p,
            "kernel": args.kernel,
            "n_values": list(table.n_values),
            "errors": {fam: list(r.errors) for fam, r in table.reports.items()},
        }
        return _emit(json.dumps(payload) + "\n", args.out)
    errors = {fam: table.reports[fam].errors for fam in TABLE_FAMILIES}
    return _emit_columns(args, {"n": table.n_values, **errors})


def cmd_rate(args) -> int:
    """Fit the empirical convergence exponent over a sweep of n."""
    f, beta = _parse_fn(args.fn)
    sweep = rate_sweep(
        f"{args.family}/{args.mode} kernel={args.kernel}", f, args.family, args.mode,
        _parse_kernel(args.kernel, args.scale, args.alpha), _parse_domain(args.domain),
        [int(t) for t in args.n_list.split(",")], args.p, args.grid, beta,
    )
    payload = json.loads(report_to_json(sweep.report))
    payload["theoretical_exponent"] = sweep.theoretical_exponent
    return _emit(json.dumps(payload) + "\n", args.out)


def cmd_denoise(args) -> int:
    domain = _parse_domain(args.domain)
    kernel = _parse_kernel(args.kernel, args.scale, args.alpha)
    rule = _parse_quad(args.quad)

    clean, n = None, args.n
    if args.input:
        signal = _load_input(args.input, domain)
        if rule.kind == "pairmean":
            n = pairmean_order(len(signal), domain)
    else:
        clean = step_test_function()
        if rule.kind == "pairmean":
            k_lo, k_hi = node_bounds("kantorovich", n, domain)
            samples = 2 * (k_hi - k_lo + 1)
        else:
            samples = n * rule.refinement
        signal = sample_function(clean, domain, samples)
    noisy = add_gaussian_noise(signal, args.sigma, args.seed)

    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    xs = np.linspace(domain.a, domain.b, args.grid)
    columns = {"x": xs, "noisy": noisy(xs)}
    columns.update(denoise_curves(noisy, n, kernel, rule, xs))

    meta: dict = {"n": n}
    if clean is not None:
        seeds = range(args.seed, args.seed + args.seeds)
        sweep = denoise_sweep(signal, clean, n, kernel, rule, args.sigma, seeds,
                              args.grid)
        meta["l1_distances"] = {name: l1[0] for name, l1 in sweep.l1.items()}
        print("L1 distance to clean reference", file=sys.stderr)
        print(f"{'seed':>5}" + "".join(f"{name:>13}" for name in sweep.l1),
              file=sys.stderr)
        for i, seed in enumerate(sweep.seeds):
            cells = "".join(f"{l1[i]:>13.6f}" for l1 in sweep.l1.values())
            print(f"{seed:>5}{cells}", file=sys.stderr)
        print(f"Kantorovich max-min beat sampling max-min: "
              f"won {sweep.wins}/{len(sweep.seeds)} seeds", file=sys.stderr)
    return _emit_columns(args, columns, **meta)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ZeroDenominatorError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
