"""Smoke tests of the scripts under ``scripts/``, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nnops import Domain, load_signal_csv, make_kernel
from nnops.experiments import ecg_smooth

ROOT = Path(__file__).resolve().parent.parent


def test_run_ecg_on_bundled_fixture():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_ecg.py"), "--grid", "400"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "x,input,kant_maxmin,kant_maxprod"
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (400, 4)
    assert rows[:, 1:].min() >= 0.0 and rows[:, 1:].max() <= 1.0
    # the script prints the library's smoothing of the fixture, unchanged
    signal = load_signal_csv(ROOT / "data" / "ecg_synthetic.csv", column="value",
                             domain=Domain(0.0, 1.0))
    want = ecg_smooth(signal, make_kernel("logistic", scale=2.0), rows[:, 0])
    np.testing.assert_array_equal(rows[:, 2], want["kant_maxmin"])
    np.testing.assert_array_equal(rows[:, 3], want["kant_maxprod"])
