"""Shared fixtures for the test suite."""

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

import numpy as np
import pytest

import tvarseq as tv
from tvarseq.pipeline import make_context


BASE_SEED = 12345


@pytest.fixture(scope="session")
def s1():
    return tv.signal_s1()


@pytest.fixture(scope="session")
def s2():
    return tv.signal_s2()


@pytest.fixture(scope="session")
def gaussian():
    return tv.NoiseSpec("gaussian_std")


@pytest.fixture(scope="session")
def uniform_noise():
    return tv.NoiseSpec("uniform_unit_variance")


@pytest.fixture(scope="session")
def ctx_200(s1):
    return make_context(s1, 200)


@pytest.fixture(scope="session")
def ctx_1000(s1):
    return make_context(s1, 1000)


@pytest.fixture(scope="session")
def ctx_10000(s1):
    return make_context(s1, 10000)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(BASE_SEED)
