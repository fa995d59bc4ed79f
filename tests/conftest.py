import numpy as np
import pytest

from frontlab import Coupling, SystemParams
from frontlab.evans import evans_pair

SQRT2 = np.sqrt(2.0)


@pytest.fixture
def one_slow():
    return SystemParams(epsilon=0.1, tau=(1.0,), d=(1.0,))


@pytest.fixture(scope="session")     # frozen data; a module fixture builds on it
def cusp_setup():
    """N = 1 cubic-coupling setup with three front speeds {-2.289, 0, 2.289}."""
    params = SystemParams(epsilon=0.2, tau=(1.0,), d=(1.0,))
    coupling = Coupling(0.0, (2.0,), (0.0,), higher=(-1.0,))
    return params, coupling


def reference_sets():
    from frontlab.verify import reference_parameter_sets
    return reference_parameter_sets()


@pytest.fixture
def transcritical_set():
    return reference_sets()[0][1:3]


@pytest.fixture
def pitchfork_set():
    return reference_sets()[1][1:3]


@pytest.fixture
def maximal_set():
    return reference_sets()[2][1:3]


def hausdorff(a, b):
    a = [complex(z) for z in a]
    b = [complex(z) for z in b]
    if not a or not b:
        return np.inf
    d1 = max(min(abs(x - y) for y in b) for x in a)
    d2 = max(min(abs(x - y) for y in a) for x in b)
    return max(d1, d2)


def deflated_evans(ctx):
    """fdf of E0(lambda)/lambda, the translation root removed, for
    holomorphic_roots: arrays (f, f') at an array of points."""
    def fdf(z):
        e0, de0 = evans_pair(ctx, z)
        return e0 / z, (de0 * z - e0) / z ** 2
    return fdf
