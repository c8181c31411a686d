import numpy as np
import pytest

from mongelab import GaussianSpace, gaussian_target


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) replaces owner.name, for this test only, by a
    wrapper that calls it and records the positional arguments of each call;
    it returns the list the records go to."""
    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return install


@pytest.fixture(scope="session")
def line60():
    return GaussianSpace.tensor_hermite(1, 60)


@pytest.fixture(scope="session")
def line80():
    return GaussianSpace.tensor_hermite(1, 80)


@pytest.fixture(scope="session")
def plane20():
    return GaussianSpace.tensor_hermite(2, 20)


@pytest.fixture(scope="session")
def plane40():
    return GaussianSpace.tensor_hermite(2, 40)


@pytest.fixture(scope="session")
def target_21():
    """N(1, 4) against N(0, 1): the worked example throughout."""
    return gaussian_target([1.0], 2.0)


def l2_mu_error(space, field_a, field_b):
    """L2(mu) distance between two gradient fields on the quadrature."""
    ga = field_a.grad(space.nodes)
    gb = field_b.grad(space.nodes)
    return float(np.sqrt(np.sum(space.weights * np.sum((ga - gb) ** 2, axis=1))))
