"""Fixtures shared by the test modules."""

import pytest

from qdcsim import experiments


@pytest.fixture
def fresh_programs():
    """Empty the sweep's memo of compiled programs, so a test sees its own compiles and plan builds.

    A program kept from an earlier test keeps its plans, and a sweep that
    finds it compiles and plans nothing.
    """
    experiments._compiled.cache_clear()
