import pytest

from frontlab import Coupling, SystemParams
from frontlab.verify import reference_parameter_sets


@pytest.fixture
def one_slow():
    return SystemParams(epsilon=0.1, tau=(1.0,), d=(1.0,))


@pytest.fixture(scope="session")     # frozen data; a module fixture builds on it
def cusp_setup():
    """N = 1 cubic-coupling setup with three front speeds {-2.289, 0, 2.289}."""
    params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
    coupling = Coupling(0.0, (2.0,), (0.0,), higher=(-1.0,))
    return params, coupling


@pytest.fixture
def transcritical_set():
    return reference_parameter_sets()[0][1:3]


@pytest.fixture
def pitchfork_set():
    return reference_parameter_sets()[1][1:3]


@pytest.fixture
def maximal_set():
    return reference_parameter_sets()[2][1:3]

