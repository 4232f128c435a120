"""The assembler's per-process memo is invisible.

Every kernel source the repo renders must assemble to the same
:class:`Program` whatever the memo holds: empty, warmed by the other
sources, or filled in the opposite order.
"""

import pytest

from repro.errors import ConfigurationError, KernelError
from repro.fuzz import ScenarioSpec, family_names
from repro.isa import assembler
from repro.isa.assembler import assemble, reset_memo
from repro.kernel.builder import KernelBuilder, reset_program_cache
from repro.personalities import personality_names
from repro.rtosunit.config import EVALUATED_CONFIGS, parse_config
from repro.wcet.analyzer import analysis_source
from repro.workloads import RTOSBENCH_WORKLOADS

_MEMOS = (assembler._LINES, assembler._EXPRS, assembler._ENCODED)


def _kernel_sources() -> list[tuple[str, str, int]]:
    """(label, source, origin) of every distinct kernel the repo renders."""
    sources = []

    def add(label, config, workload):
        try:
            builder = KernelBuilder(config=config, objects=workload.objects,
                                    tick_period=workload.tick_period)
        except KernelError:  # a task set the personality cannot express
            return
        sources.append((label, builder.source(), builder.layout.text_base))

    for personality in personality_names():
        for name in EVALUATED_CONFIGS:
            qualified = (name if personality == "freertos"
                         else f"{name}@{personality}")
            try:
                config = parse_config(qualified)
            except ConfigurationError:
                continue
            for factory in RTOSBENCH_WORKLOADS:
                workload = factory(4)
                add(f"{qualified}/{workload.name}", config, workload)
    for family in family_names():
        workload = ScenarioSpec(family=family, seed=1).workload(iterations=4)
        for name in ("vanilla", "SLT"):
            add(f"{name}/{workload.name}", parse_config(name), workload)
    for name in EVALUATED_CONFIGS:
        for delayed in (2, 8):
            source, origin = analysis_source(parse_config(name), delayed)
            sources.append((f"wcet/{name}/{delayed}", source, origin))
    distinct = {}
    for label, text, origin in sources:
        distinct.setdefault((text, origin), label)
    return [(label, text, origin)
            for (text, origin), label in distinct.items()]


def _fields(program):
    return (program.words, program.symbols, program.annotations,
            program.source_map, program.entry)


@pytest.fixture(scope="module")
def sources():
    return _kernel_sources()


@pytest.fixture(scope="module")
def cold(sources):
    """Each source assembled with an empty memo."""
    programs = []
    for _, text, origin in sources:
        reset_memo()
        programs.append(_fields(assemble(text, origin=origin)))
    reset_memo()
    return programs


@pytest.fixture(autouse=True)
def empty_memo():
    reset_memo()
    yield
    reset_memo()


class TestMemoIsInvisible:
    def test_corpus_covers_every_source_kind(self, sources):
        labels = [label for label, _, _ in sources]
        for personality in personality_names():
            if personality != "freertos":
                assert any(f"@{personality}/" in label for label in labels)
        assert any(label.startswith("wcet/") for label in labels)
        assert any(":" in label for label in labels)  # fuzz scenarios

    def test_warmed_by_preceding_sources(self, sources, cold):
        for (label, text, origin), expected in zip(sources, cold):
            assert _fields(assemble(text, origin=origin)) == expected, label

    def test_reverse_order_on_a_warm_memo(self, sources, cold):
        for _, text, origin in sources:
            assemble(text, origin=origin)
        for (label, text, origin), expected in reversed(
                list(zip(sources, cold))):
            assert _fields(assemble(text, origin=origin)) == expected, label

    @pytest.mark.parametrize("where", ("first", "middle", "last"))
    def test_warmed_by_every_other_source(self, sources, cold, where):
        index = {"first": 0, "middle": len(sources) // 2,
                 "last": len(sources) - 1}[where]
        for position, (_, text, origin) in enumerate(sources):
            if position != index:
                assemble(text, origin=origin)
        label, text, origin = sources[index]
        assert _fields(assemble(text, origin=origin)) == cold[index], label


class TestMemoHygiene:
    def test_programs_share_no_mutable_state(self, sources):
        _, text, origin = sources[0]
        first = assemble(text, origin=origin)
        second = assemble(text, origin=origin)
        assert first.annotations, "corpus source carries #@ annotations"
        for attr in ("words", "symbols", "annotations", "source_map"):
            assert getattr(first, attr) is not getattr(second, attr)
        for addr, notes in first.annotations.items():
            assert notes is not second.annotations[addr]
        addr = next(iter(first.annotations))
        first.annotations[addr]["bound"] = "999"
        first.words[origin] ^= 1
        assert _fields(assemble(text, origin=origin)) == _fields(second)

    def test_memo_stays_at_its_bound(self, monkeypatch):
        sources = [f".equ V{n}, {n * 977}\n"
                   f"start: li a0, V{n}\n"
                   f"    addi a1, a1, {n}\n"
                   f"    j start\n"
                   f"    .word V{n} + {n}\n" for n in range(40)]
        cold = []
        for source in sources:
            reset_memo()
            cold.append(_fields(assemble(source, origin=0x100)))
        reset_memo()
        evictions = [memo.evictions for memo in _MEMOS]
        for memo in _MEMOS:
            monkeypatch.setattr(memo, "capacity", 8)
        for source, expected in zip(sources, cold):
            assert _fields(assemble(source, origin=0x100)) == expected
            assert all(len(memo) <= 8 for memo in _MEMOS)
        assert all(memo.evictions > before
                   for memo, before in zip(_MEMOS, evictions))

    def test_reset_program_cache_clears_the_memo(self):
        assemble("li a0, 5\n.word 1 + 2\n")
        assert all(len(memo) for memo in _MEMOS)
        reset_program_cache()
        assert not any(len(memo) for memo in _MEMOS)
