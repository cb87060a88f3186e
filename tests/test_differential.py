"""Randomized differential testing: the incremental vm against the
brute-force reference interpreter, on the generator's documented safe
subset.  The acceptance suite runs the full 1000-seed corpus; this module
keeps a faster rotation for everyday runs."""

import pytest

from declc import trace as tr
from declc.checker import check_or_raise
from declc.oracle import Oracle, diff_memory, diff_traces
from declc.parser import parse_source
from declc.randgen import GenConfig, generate
from declc.vm import load_source


# More constructs, writes and objects per program than the default: the
# object-cell and update-hook paths of the vm.
CLASS_HEAVY = GenConfig(max_constraints=10, max_monitors=5, max_preconds=4,
                        max_writes=60, class_prob=0.6)


def run_pair(seed: int, config: GenConfig | None = None):
    source = generate(seed, config)
    m = load_source(source, tr.TraceSink())
    m.call_function("main", [])
    unit = parse_source(source)
    o = Oracle(unit, check_or_raise(unit))
    o.load()
    o.run()
    return source, m, o


@pytest.mark.parametrize("seed", range(0, 200))
def test_vm_matches_reference(seed):
    source, m, o = run_pair(seed)
    dt = diff_traces(m.trace.events, o.trace.events)
    dm = diff_memory(m.memory_snapshot(), o.memory_snapshot())
    assert dt.ok and dm.ok, (
        f"seed {seed} diverged: {dt.message or dm.message}\n{source}")


@pytest.mark.parametrize("seed", range(0, 150))
def test_vm_matches_reference_on_class_heavy_programs(seed):
    source, m, o = run_pair(seed, CLASS_HEAVY)
    dt = diff_traces(m.trace.events, o.trace.events)
    dm = diff_memory(m.memory_snapshot(), o.memory_snapshot())
    assert dt.ok and dm.ok, (
        f"seed {seed} diverged: {dt.message or dm.message}\n{source}")
    m.teardown()
    assert m.registration_count() == 0, f"seed {seed}"


def test_generator_is_deterministic():
    assert generate(123) == generate(123)
    assert generate(123) != generate(124)


def test_generated_programs_have_constructs():
    with_constructs = sum(
        1 for seed in range(50)
        if any(op in generate(seed) for op in (":=", "::=", "??")))
    assert with_constructs >= 45


def test_vm_teardown_conserves_on_random_programs():
    for seed in range(40):
        m = load_source(generate(seed), tr.TraceSink())
        m.call_function("main", [])
        m.teardown()
        assert m.registration_count() == 0, f"seed {seed}"
