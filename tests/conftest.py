import pytest
from hypothesis import settings

from helpers import abc_poset, diamond_poset

# one profile for every property: reproducible draws, no example database
# and no per-example deadline (seeded sizes make some examples slow)
settings.register_profile("posetlin", derandomize=True, database=None, deadline=None)
settings.load_profile("posetlin")


@pytest.fixture
def abc_lattice():
    """Five-element lattice whose two maximal chains have lengths 4 and 3."""
    return abc_poset()


@pytest.fixture
def diamond():
    """Four-element lattice with one incomparable pair."""
    return diamond_poset()
