"""Command-line front end: kernel-info, approximate, error-table, rate, denoise.

Exit codes: 0 on success, 2 on flag/validation problems, 3 on numeric
failures (zero kernel denominator).  Default output is CSV on stdout;
``--json`` switches to a JSON envelope and ``--out`` writes to a file.
All results are deterministic given the flags (including ``--seed``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .experiments import denoise_sweep, error_table, rate_sweep
from .kernels import (
    Kernel,
    absolute_moment,
    eval_kernel,
    make_kernel,
    phi_floor,
)
from .operators import Domain, OperatorSpec, ZeroDenominatorError, eval_grid
from .quadrature import QuadratureRule, node_data
from .signals import (
    Signal,
    holder_test_function,
    load_signal_csv,
    normalize_to_unit,
    step_test_function,
)


def _parse_as(kind, value: str, text: str, what: str):
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{what}, got {text!r}") from None


def _parse_kernel(text: str, scale: float, alpha: float | None) -> Kernel:
    # power:<gamma> (bare power: gamma 1) has alpha = gamma; --alpha may only repeat it
    variant, colon, gamma = text.partition(":")
    if variant != "power":
        return make_kernel(text, scale, 1.0 if alpha is None else alpha)
    gamma = _parse_as(float, gamma, text, "--kernel gamma must be a number") if colon else 1.0
    if alpha is not None and alpha != gamma:
        raise ValueError(f"power-tail kernel decays like |x|^-(1+gamma); alpha must "
                         f"equal gamma={gamma}, got {alpha}")
    return make_kernel("power", scale, gamma)


def _parse_quad(text: str) -> QuadratureRule:
    if text == "pairmean":
        return QuadratureRule(text)
    kind, _, r = text.partition(":")
    if kind not in ("riemann", "trapezoid"):
        raise ValueError(f"unknown quadrature rule {text!r}")
    refinement = _parse_as(int, r, text, "--quad refinement must be an integer") if r else 16
    return QuadratureRule(kind, refinement)


def _parse_domain(text: str) -> Domain:
    try:
        a, b = (float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"domain must be 'a,b', got {text!r}") from None
    return Domain(a, b)


def _parse_fn(text: str, domain: Domain):
    """Named test function -> (callable with values in [0, 1], its Hoelder
    order, or None for the discontinuous step), each on ``domain``; identity
    and lipschitz:<beta> are ((x - a)/(b - a))^beta."""
    if text == "step":
        return step_test_function(domain), None
    if text == "identity":
        return holder_test_function(1.0, domain), 1.0
    if text.startswith("lipschitz:"):
        beta = _parse_as(float, text.split(":", 1)[1], text, "--fn beta must be a number")
        return holder_test_function(beta, domain), beta
    raise ValueError(f"unknown function {text!r}; use step, identity or lipschitz:<beta>")


def _parse_n_list(text: str) -> list[int]:
    return [_parse_as(int, t, text, "--n-list must be comma-separated integers")
            for t in text.split(",")]


def _load_input(path: str, domain: Domain) -> Signal:
    """The ``--input`` trace, mapped onto [0, 1] by :func:`normalize_to_unit`
    (offset and gain on stderr) if any sample lies outside."""
    signal = load_signal_csv(path, column="value", domain=domain)
    if signal.samples.min() < 0.0 or signal.samples.max() > 1.0:
        signal, offset, gain = normalize_to_unit(signal)
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
                with_json: bool = True, with_alpha: bool = False) -> None:
    p.add_argument("--kernel", default="tanh",
                   help="logistic|tanh|ramp|three|power:<gamma> (default tanh)")
    p.add_argument("--scale", type=float, default=1.0, help="kernel argument scale c")
    if with_alpha:
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
    _add_shared(p, with_domain=False, with_json=False, with_alpha=True)
    p.set_defaults(func=cmd_kernel_info)

    p = sub.add_parser("approximate", help="evaluate one operator on one function")
    _add_shared(p)
    p.add_argument("--family", default="maxmin")
    p.add_argument("--mode", default="kantorovich")
    p.add_argument("--n", type=int, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--fn", help="step|identity|lipschitz:<beta> (default step)")
    source.add_argument("--input", help="CSV signal instead of --fn")
    p.add_argument("--grid", type=int, default=2000, help="output grid points")
    p.add_argument("--quad", help="riemann:<r>|trapezoid:<r>|pairmean (default: exact-grade)")
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
    _add_shared(p, with_json=False, with_alpha=True)
    p.add_argument("--family", default="maxmin")
    p.add_argument("--mode", default="kantorovich")
    p.add_argument("--fn", default="identity", help="step|identity|lipschitz:<beta>")
    p.add_argument("--n-list", default="25,50,100,200,400")
    p.add_argument("--p", type=float, default=math.inf,
                   help="norm order, or 'inf' for the sup norm (default)")
    p.add_argument("--grid", type=int, default=10_000)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("denoise",
                       help="compare Kantorovich and sampling operators on a noisy signal")
    _add_shared(p)
    p.add_argument("--n", type=int,
                   help="operator order (default 2000; pairmean_order for a pairmean --input)")
    p.add_argument("--sigma", type=float, default=0.05, help="noise standard deviation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1,
                   help="L1 sweep over noise seeds seed..seed+K-1")
    p.add_argument("--input", default=None, help="CSV signal instead of the built-in step")
    p.add_argument("--grid", type=int, default=2000, help="output grid points")
    p.add_argument("--quad", default="riemann:16")
    p.set_defaults(func=cmd_denoise)

    return parser


def cmd_kernel_info(args) -> int:
    kernel = _parse_kernel(args.kernel, args.scale, args.alpha)
    info: dict = {"variant": kernel.variant}
    if kernel.variant == "power":
        info["gamma"] = kernel.alpha
    # decay_M before the moment: of two values past the float range, its error wins
    info.update(
        scale=kernel.scale, alpha=kernel.alpha, decay_M=kernel.decay_m,
        decay_L=kernel.decay_l, phi_zero=eval_kernel(kernel, 0.0),
        phi_floor=phi_floor(kernel),
        moment_1_plus_alpha=absolute_moment(kernel, 1.0 + kernel.alpha),
    )
    return _emit(json.dumps(info) + "\n", args.out)


def cmd_approximate(args) -> int:
    domain = _parse_domain(args.domain)
    kernel = _parse_kernel(args.kernel, args.scale, None)
    spec = OperatorSpec(args.family, args.mode, args.n, domain, kernel)
    rule = _parse_quad(args.quad) if args.quad else None
    fn = "step" if args.fn is None else args.fn
    f = _load_input(args.input, domain) if args.input else _parse_fn(fn, domain)[0]
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    data = node_data(f, spec, rule)
    xs = np.linspace(domain.a, domain.b, args.grid)
    fx = np.asarray(f(xs), dtype=float)
    return _emit_columns(args, {"x": xs, "f": fx, "Kf": eval_grid(spec, data, xs)},
                         operator=spec.describe())


def cmd_error_table(args) -> int:
    kernel = _parse_kernel(args.kernel, args.scale, None)
    table = error_table(kernel, _parse_n_list(args.n_list), args.p,
                        _parse_domain(args.domain), args.grid)
    # aligned text view on stderr; stdout stays machine readable
    print(f"{'n':>6} {'linear':>10} {'maxmin':>10} {'maxprod':>10}", file=sys.stderr)
    for n, errs in table.rows():
        print(f"{n:>6} " + " ".join(f"{e:>10.4f}" for e in errs), file=sys.stderr)
    rates = list(table.rates.values())
    if None not in rates:
        print(f"{'rate':>6} " + " ".join(f"{r:>10.3f}" for r in rates), file=sys.stderr)
    if args.json:
        payload = {
            "p": "inf" if math.isinf(args.p) else args.p,
            "kernel": args.kernel,
            "n_values": list(table.n_values),
            "errors": table.errors,
        }
        return _emit(json.dumps(payload) + "\n", args.out)
    return _emit_columns(args, {"n": table.n_values, **table.errors})


def cmd_rate(args) -> int:
    """Fit the empirical convergence exponent over a sweep of n."""
    domain = _parse_domain(args.domain)
    f, beta = _parse_fn(args.fn, domain)
    sweep = rate_sweep(
        f"{args.family}/{args.mode} kernel={args.kernel}", f, args.family, args.mode,
        _parse_kernel(args.kernel, args.scale, args.alpha), domain,
        _parse_n_list(args.n_list), args.p, args.grid, beta,
    )
    payload = dataclasses.asdict(sweep)
    payload["p"] = "inf" if math.isinf(sweep.p) else sweep.p
    if payload.pop("no_bound"):
        print(f"no a priori bound: {sweep.no_bound}", file=sys.stderr)
    return _emit(json.dumps(payload) + "\n", args.out)


def cmd_denoise(args) -> int:
    domain = _parse_domain(args.domain)
    kernel = _parse_kernel(args.kernel, args.scale, None)
    rule = _parse_quad(args.quad)
    if args.grid < 2:  # the L1 sweep takes --grid as its cell count too
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    trace = _load_input(args.input, domain) if args.input else None
    sweep = denoise_sweep(trace, domain, args.n, kernel, rule, args.sigma,
                          range(args.seed, args.seed + args.seeds), args.grid)
    print("L1 distance to clean reference", file=sys.stderr)
    print(f"{'seed':>5}" + "".join(f"{name:>13}" for name in sweep.l1), file=sys.stderr)
    for i, seed in enumerate(sweep.seeds):
        cells = "".join(f"{l1[i]:>13.6f}" for l1 in sweep.l1.values())
        print(f"{seed:>5}{cells}", file=sys.stderr)
    print(f"Kantorovich max-min beat sampling max-min: "
          f"won {sweep.wins}/{len(sweep.seeds)} seeds", file=sys.stderr)
    print(f"Kantorovich max-min at least as close as Kantorovich max-product: "
          f"{sweep.maxprod_wins}/{len(sweep.seeds)} seeds", file=sys.stderr)
    return _emit_columns(args, sweep.curves, n=sweep.n,
                         l1_distances={name: l1[0] for name, l1 in sweep.l1.items()})


def _join_domain(argv: list[str]) -> list[str]:
    """``argv`` with each ``--domain`` (or a prefix argparse reads as it)
    whose value starts with '-' and holds a comma, such as ``-1,1``, joined
    into one token, ``--domain=-1,1``: argparse takes a token that starts
    with '-' for an option unless it is a plain negative number, and no
    option holds a comma."""
    out = []
    for token in argv:
        if (out and len(out[-1]) > 2 and "--domain".startswith(out[-1])
                and token.startswith("-") and "," in token):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_domain(sys.argv[1:] if argv is None else argv))
    if not hasattr(args, "func"):
        parser.print_help(file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ZeroDenominatorError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
