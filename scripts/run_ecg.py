#!/usr/bin/env python3
"""Pairwise-mean smoothing of an ECG trace.

Takes an ECG signal with n time samples (the bundled synthetic fixture by
default, or any CSV with an x,value layout, for instance an exported excerpt
of record 101 from a public arrhythmia database), forms Kantorovich cell
averages from the means of consecutive sample pairs, and applies the
half-rate max-min and max-product operators with a wide logistic kernel.
Emits x,input,kant_maxmin,kant_maxprod CSV on stdout.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from nnops import Domain, load_signal_csv, make_kernel, normalize_to_unit
from nnops.experiments import ecg_smooth

DEFAULT_INPUT = Path(__file__).resolve().parent.parent / "data" / "ecg_synthetic.csv"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", default=str(DEFAULT_INPUT))
    ap.add_argument("--column", default="value")
    ap.add_argument("--scale", type=float, default=2.0,
                    help="kernel argument scale (2 smooths strongly)")
    ap.add_argument("--grid", type=int, default=1600)
    args = ap.parse_args()

    domain = Domain(0.0, 1.0)
    signal = load_signal_csv(args.input, column=args.column, domain=domain)
    if signal.samples.min() < 0.0 or signal.samples.max() > 1.0:
        signal = normalize_to_unit(signal)
    if len(signal) % 2:
        raise SystemExit("need an even number of samples for pairwise means")

    xs = np.linspace(domain.a, domain.b, args.grid)
    out = {"input": signal(xs)}
    out.update(ecg_smooth(signal, make_kernel("logistic", scale=args.scale), xs))

    print("x,input,kant_maxmin,kant_maxprod")
    for i, x in enumerate(xs):
        print(f"{x:.17g},{out['input'][i]:.17g},"
              f"{out['kant_maxmin'][i]:.17g},{out['kant_maxprod'][i]:.17g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
