import pytest

from slicegap.targets import gaussian_pair, twin_triangles


@pytest.fixture(scope="session")
def t1():
    return twin_triangles()


@pytest.fixture(scope="session")
def t2():
    return gaussian_pair()
