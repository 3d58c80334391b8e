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
def cold_kernel():
    """ginibre._plane_rule, the per-N cache of the plane rule, rho_N and the
    radial kernel factors, emptied before and after the test."""
    ginibre._plane_rule.cache_clear()
    yield ginibre._plane_rule
    ginibre._plane_rule.cache_clear()
