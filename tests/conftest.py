"""Shared fixtures.

``class_poly_divisor`` memoizes exact divisors per process, so a test that
patches theta evaluation or plan building would otherwise receive a divisor
an earlier test cached.  Every test starts with an empty memo.
"""

import pytest

from cmforge import classpoly


@pytest.fixture(autouse=True)
def cold_divisor_memo():
    classpoly._DIVISORS.clear()
