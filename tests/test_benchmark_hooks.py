"""The hooks the benchmark relies on: ``perfbench/`` calls nnops by name,
``perfbench/tracing.py`` wraps each name in its ``WRAPPED`` table on the
nnops package, and swaps the ``eval_kernel`` that ``nnops.operators`` calls
through its module global.  A rename or a direct import there would leave
the benchmark failing or the traced run counting nothing."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

import nnops
from nnops import kernels, operators

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py`` loaded from its path, writing no bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_are_nnops_functions(tracing):
    assert tracing.WRAPPED
    for name in tracing.WRAPPED:
        assert getattr(nnops, name).__name__ == name


def test_operators_reaches_eval_kernel_through_its_global():
    assert operators.eval_kernel is kernels.eval_kernel


def test_names_perfbench_calls_exist():
    """Every ``api.<name>`` and ``nnops.<name>`` in perfbench's sources,
    where ``api`` is a namespace of the nnops package, is an nnops name."""
    text = "".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    names = set(re.findall(r"\b(?:api|nnops)\.([A-Za-z_]\w*)", text))
    assert len(names) >= 15
    assert [name for name in sorted(names) if not hasattr(nnops, name)] == []
