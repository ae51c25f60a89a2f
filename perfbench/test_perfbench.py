"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from workloads import DenoiseSweep, ErrorTable, LargeN

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "error_table": ErrorTable(n_values=(10, 30), grid_points=4000),
    "denoise_sweep": DenoiseSweep(n=200, seeds=4, grid_points=400),
    "large_n": LargeN(n=2000, grid=16),
}


def _run(capsys, workload, trace, workloads=TINY):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01",
            "--trace", str(trace)]
    assert run.main(argv, workloads) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    figures, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        layers = sum(values[f"{layer}.self_s"] for layer in
                     ("kernels", "operators", "quadrature", "metrics", "signals"))
        assert layers + values["trace.unattributed_s"] == pytest.approx(
            values["trace.wall_s"])
        assert values["kernels.evals"] > 0
        assert (ROOT / figures["trace_file"]).is_file()
    else:
        assert values["ok_ratio"] == 1.0
        assert all(values[name] > 0 for name in ("setup_s", "wall_s", "peak_mem_mb"))


class PerturbedErrorTable(ErrorTable):
    """The error table run against an eval_grid whose output is off by 1e-9."""

    def run(self, api, inputs, picks, lap=lambda: None):
        shifted = types.SimpleNamespace(**vars(api))
        shifted.eval_grid = lambda spec, data, xs: api.eval_grid(spec, data, xs) + 1e-9
        return super().run(shifted, inputs, picks, lap)


def test_perturbed_operator_output_counts_as_failure(capsys):
    workloads = {"error_table": PerturbedErrorTable(n_values=(10, 30), grid_points=4000)}
    _, result = _run(capsys, "error_table", 0, workloads)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_n", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
