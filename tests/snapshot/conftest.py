"""Isolation for checkpoint tests: a fresh program cache per test."""

from __future__ import annotations

import pytest

from repro.kernel.builder import reset_program_cache


@pytest.fixture(autouse=True)
def fresh_program_cache():
    reset_program_cache()
    yield
    reset_program_cache()
