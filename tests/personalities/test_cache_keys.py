"""Personality separation in every content-addressed cache.

The regression this file pins: two personalities may render *different*
kernels for the *same* config letters and workload, so any cache keyed
without the kernel could serve one personality's results to another.
The DSE result cache keys on
:func:`repro.personalities.kernel_fingerprint`; the kernel build cache
keys on the rendered source text.
"""

import itertools

import pytest

from repro.dse.cache import point_key
from repro.dse.executor import GridPoint
from repro.kernel.builder import (
    _PROGRAM_CACHE,
    KernelBuilder,
    assemble_cached,
    reset_program_cache,
)
from repro.personalities import personality_names
from repro.rtosunit.config import parse_config
from repro.workloads import ladder_switch


def _qualified(personality: str, base: str = "vanilla") -> str:
    return base if personality == "freertos" else f"{base}@{personality}"


class TestPointKeys:
    def test_personalities_never_collide(self):
        keys = {}
        for personality in personality_names():
            point = GridPoint(core="cv32e40p",
                              config=_qualified(personality),
                              workload="ladder_switch", iterations=4,
                              seed=0)
            keys[personality] = point_key(point, fingerprint="fixed")
        for a, b in itertools.combinations(keys, 2):
            assert keys[a] != keys[b], (a, b)

    def test_same_personality_same_key(self):
        point = GridPoint(core="cv32e40p", config="vanilla@scm",
                          workload="ladder_switch", iterations=4, seed=0)
        assert point_key(point, "fixed") == point_key(point, "fixed")

    def test_kernel_fingerprint_participates(self, monkeypatch):
        # Even with an identical logical point, a changed kernel
        # fingerprint must change the key: the kernel dimension is part
        # of the address, not advisory metadata.
        import repro.personalities as personalities

        point = GridPoint(core="cv32e40p", config="vanilla",
                          workload="ladder_switch", iterations=4, seed=0)
        before = point_key(point, "fixed")
        monkeypatch.setattr(personalities, "kernel_fingerprint_for_name",
                            lambda name: "0" * 16)
        assert point_key(point, "fixed") != before


def _build(config_name: str, tick_period=None):
    """Assemble (cached) one ladder kernel; returns its program and blob."""
    workload = ladder_switch(4)
    builder = KernelBuilder(config=parse_config(config_name),
                            objects=workload.objects,
                            tick_period=tick_period or workload.tick_period)
    return assemble_cached(builder.source(), builder.layout.text_base)


class TestBuildKeys:
    @pytest.fixture(autouse=True)
    def cold_build_cache(self):
        reset_program_cache()
        yield
        reset_program_cache()

    def test_personalities_never_collide(self):
        blobs = {personality: _build(_qualified(personality))[1]
                 for personality in personality_names()}
        assert len(_PROGRAM_CACHE) == len(blobs)
        for a, b in itertools.combinations(blobs, 2):
            assert blobs[a] != blobs[b], (a, b)

    def test_same_inputs_share_one_build(self):
        # Two builders rendered independently from equal inputs land on
        # the same entry and load the very same image.
        first = _build("vanilla@scm")
        second = _build("vanilla@scm")
        assert len(_PROGRAM_CACHE) == 1
        assert second[0] is first[0] and second[1] is first[1]

    def test_workload_params_split_builds(self):
        # The tick period is rendered into the kernel, so it is part of
        # the build's address like every other input.
        period = ladder_switch(4).tick_period
        _build("vanilla", period)
        _build("vanilla", period + 1000)
        assert len(_PROGRAM_CACHE) == 2
