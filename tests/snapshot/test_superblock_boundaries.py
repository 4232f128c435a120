"""Snapshot boundaries taken while blocks are chaining.

The block interpreter (docs/PERF.md) keeps no architectural state of
its own — cached blocks are pure caches over predecoded records, and
chaining only probes that cache — so a ``System.capture()`` taken
mid-run, with blocks already chaining, must restore to a state whose
continued run is byte-identical to an uninterrupted cold run. These
tests pin that contract on all three cores, including the OoO model,
whose window the block executor keeps in locals only while it runs and
writes back to the core on every exit.

Two workloads chain differently. ``yield_pingpong`` chains
straight-line kernel blocks. In ``interrupt_response`` the background
task spins in a two-instruction self-loop that chains into itself until
an external interrupt lands. Each checkpoint is taken at the first
context switch after some block has chained.
"""

import pytest

from tests.snapshot.test_capture_restore import _build, _observable
from repro.workloads import interrupt_response, yield_pingpong

CORES = ("cv32e40p", "cva6", "naxriscv")

#: Enough loop trips for chained blocks well before the end.
ITERATIONS = 24


def _has_chained(engine):
    return engine.chained > 0


#: name -> (workload, predicate on the block engine that says the tier
#: is warm enough to checkpoint).
WARM_TIERS = {
    "yield_pingpong": (yield_pingpong(iterations=ITERATIONS), _has_chained),
    "interrupt_response": (interrupt_response(iterations=4), _has_chained),
}


def _checkpoint_with_warm_tier(system, warm):
    """Run *system*, capturing at the first switch once *warm* holds.

    Returns the snapshot; asserts the run completed and that blocks
    really had chained at capture time — a checkpoint taken before any
    chaining would test nothing.
    """
    checkpoints = []

    def hook(cpu):
        engine = cpu.block_engine
        if engine is not None and not checkpoints and warm(engine):
            checkpoints.append((system.capture(), engine.chained))
            cpu.switch_hook = None

    system.core.switch_hook = hook
    assert system.run(1_000_000) == 0
    assert checkpoints, "no block chained before any switch"
    snapshot, chained = checkpoints[0]
    assert chained > 0
    return snapshot


def _assert_capture_resumes(core, config_name, name):
    """Clone from a warm-tier checkpoint finishes byte-identical to cold."""
    workload, warm = WARM_TIERS[name]
    reference = _build(core, config_name, workload)
    assert reference.run(workload.max_cycles) == 0

    system = _build(core, config_name, workload)
    snapshot = _checkpoint_with_warm_tier(system, warm)
    # Capturing must not have perturbed the donor run.
    assert _observable(system) == _observable(reference)

    clone = snapshot.materialize()
    assert not clone.core.halted
    assert clone.run(workload.max_cycles) == 0
    assert _observable(clone) == _observable(reference)
    # The clone re-warms its own tier while finishing the trace.
    assert warm(clone.core.block_engine)


def _assert_restore_rewinds(core, name):
    """Rewinding a finished system onto a mid-run checkpoint replays it.

    The restore path must invalidate every cached block covering
    memory the rewind dirties (the lockstep contract) — a chain would
    otherwise re-enter stale blocks of the pre-rewind program.
    """
    workload, warm = WARM_TIERS[name]
    reference = _build(core, "SLT", workload)
    assert reference.run(workload.max_cycles) == 0

    system = _build(core, "SLT", workload)
    snapshot = _checkpoint_with_warm_tier(system, warm)
    system.restore(snapshot)
    assert not system.core.halted
    assert system.run(workload.max_cycles) == 0
    assert _observable(system) == _observable(reference)


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("config_name", ("vanilla", "SLT"))
def test_mid_superblock_capture_resumes_identically(core, config_name):
    _assert_capture_resumes(core, config_name, "yield_pingpong")


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("config_name", ("vanilla", "SLT"))
def test_mid_loop_superblock_capture_resumes_identically(core, config_name):
    _assert_capture_resumes(core, config_name, "interrupt_response")


@pytest.mark.parametrize("core", CORES)
def test_restore_rewinds_live_warm_tier(core):
    _assert_restore_rewinds(core, "yield_pingpong")


@pytest.mark.parametrize("core", CORES)
def test_restore_rewinds_live_loop_superblock(core):
    _assert_restore_rewinds(core, "interrupt_response")
