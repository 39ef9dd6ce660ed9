"""Shared fixtures."""

import numpy as np
import pytest

# The lint fixture corpus contains deliberate rule violations (and fake
# test files for the trip-point rule); it is analyzer input, not tests.
collect_ignore = ["lint_fixtures"]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
