import pytest
from hypothesis import settings

import cct

# Property tests draw the same examples on every run and leave no example
# database behind; group operations vary too much in time for a deadline.
settings.register_profile("cct", derandomize=True, database=None, deadline=None)
settings.load_profile("cct")


@pytest.fixture(scope="session")
def catalog8():
    return cct.build_small_catalog(8)


@pytest.fixture(scope="session")
def catalog24():
    return cct.build_small_catalog(24)


@pytest.fixture(scope="session")
def standard_groups():
    return {
        "z1": cct.cyclic(1),
        "z2": cct.cyclic(2),
        "z3": cct.cyclic(3),
        "z4": cct.cyclic(4),
        "z6": cct.cyclic(6),
        "v4": cct.abelian([2, 2]),
        "s3": cct.symmetric(3),
        "s4": cct.symmetric(4),
        "d8": cct.dihedral(8),
        "q8": cct.quaternion(),
        "a4": cct.alternating(4),
    }
