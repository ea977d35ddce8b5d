import pytest

from arithmos.core import build_sieve


# arithmos.core owns one sieve; these fixtures only grow it, so that per-n factorize calls of a
# test walk the sieve rather than trial-divide. Each returns the shared smallest-prime-factor list.
@pytest.fixture(scope="session")
def sieve10k():
    return build_sieve(10**4)


@pytest.fixture(scope="session")
def sieve100k():
    return build_sieve(10**5)
