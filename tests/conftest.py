import pytest
from hypothesis import settings

from qfab.fixtures import fixture
from qfab.algebra import build_algebra

# Property tests draw the same examples on every run, and timing never fails
# them: the suite must give the same verdict on a loaded machine.
settings.register_profile("qfab", derandomize=True, deadline=None)
settings.load_profile("qfab")


@pytest.fixture(scope="session")
def double_triangle():
    return build_algebra(fixture("double-triangle"))


@pytest.fixture(scope="session")
def two_ag():
    return build_algebra(fixture("two-ag-square"))


@pytest.fixture(scope="session")
def preproj_a2():
    return build_algebra(fixture("preprojective-a2"))


@pytest.fixture(scope="session")
def preproj_a3():
    return build_algebra(fixture("preprojective-a3"))


@pytest.fixture(scope="session")
def nak_4333():
    from qfab.nakayama import higher_nakayama
    A, pres = higher_nakayama(2, (4, 3, 3, 3))
    return A
