"""Isolation for chaos tests: no policy, cold caches."""

from __future__ import annotations

import pytest

from repro.chaos import hooks
from repro.kernel.builder import reset_program_cache


@pytest.fixture(autouse=True)
def clean_chaos_state():
    """Every test starts and ends with no policy and a cold build cache."""
    hooks.uninstall()
    reset_program_cache()
    yield
    hooks.uninstall()
    reset_program_cache()
