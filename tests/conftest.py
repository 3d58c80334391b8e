import pytest

from ginfield import ginibre
from ginfield.bessel import build_root_table


@pytest.fixture(scope="session")
def table():
    """Shared root table large enough for every non-acceptance test."""
    return build_root_table(70, 70)


@pytest.fixture(scope="session")
def small_table():
    return build_root_table(16, 16)


@pytest.fixture
def cold_kernel(monkeypatch):
    """An empty cache of rho_N and the radial kernel factors; returns it."""
    monkeypatch.setattr(ginibre, "_KERNEL", {})
    return ginibre._KERNEL
