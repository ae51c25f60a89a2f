import pytest
from hypothesis import settings

from nnops import Domain, make_kernel, step_test_function

# a failing draw prints its @reproduce_failure blob, so it can be replayed
# once the example database has lost it; on CI Hypothesis loads its own "ci"
# profile, which prints it already, and that profile stays in force
if not settings().print_blob:
    settings.register_profile("local", print_blob=True)
    settings.load_profile("local")

VARIANTS = ("logistic", "tanh", "ramp", "three", "power")
NONCOMPACT = ("logistic", "tanh", "power")


@pytest.fixture(scope="session")
def catalogue():
    """The five unit-scale catalogue kernels, alpha defaults."""
    return {v: make_kernel(v) for v in VARIANTS}


@pytest.fixture(scope="session")
def unit_domain():
    return Domain(0.0, 1.0)


@pytest.fixture(scope="session")
def step():
    return step_test_function()
