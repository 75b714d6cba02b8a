import pytest

from mocklab import reference_context


@pytest.fixture(scope="session")
def ctx():
    """Reference configuration: 256 bits, series 1e-40, quadrature 1e-30."""
    return reference_context()
