import pytest
from hypothesis import settings

from neckflow.surface import SurfaceProfile

# every property test draws the same examples on every run and host, and
# the slow oracles some of them call are not held to a per-example deadline
settings.register_profile("neckflow", derandomize=True, deadline=None)
settings.load_profile("neckflow")


@pytest.fixture(scope="session")
def prof4():
    return SurfaceProfile(r=4.0, eps0=1.0)


@pytest.fixture(scope="session")
def prof6():
    return SurfaceProfile(r=6.0, eps0=1.0)


@pytest.fixture(scope="session")
def prof_narrow():
    """A narrower neck; a = 1 + 0.5^4 = 1.0625 is exactly representable."""
    return SurfaceProfile(r=4.0, eps0=0.5)
