"""Fixtures shared by the test modules."""

import pytest

from qinfty import rigor


@pytest.fixture()
def clear_memos():
    """Empty every memo of the package now, and return the function that
    empties them again, so a test's "cold" call computes afresh."""
    def clear():
        for cached in rigor.MEMOS:
            cached.cache_clear()

    clear()
    return clear
