"""The benchmark's per-layer spans (perfbench/spans.py) still see the write
path: a shortcut that stops calling through a wrapped name would read as a
layer that costs nothing."""

import sys
from pathlib import Path

import pytest

from declc import trace as tr

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

WRITE_PATH = ["vm.store", "runtime.after_change", "runtime.resolve",
              "runtime.fire", "trace.emit"]


@pytest.mark.parametrize("program", [
    workloads.ChainProgram(2, 5), workloads.RebindProgram("value", 4, 2),
], ids=["chain", "rebind.value"])
def test_every_request_is_seen_on_the_write_path(program):
    """Each request of these workloads writes a cell with dependency edges,
    so each layer below is entered at least once per request."""
    tracer = spans.Tracer()
    plain, res, _ = workloads.ProgramWorkload("tiny", program, 20, 5).traced(1, tracer)
    assert plain.failed == res.failed == 0
    assert len(res.latency) == 5
    for name in WRITE_PATH:
        assert tracer.calls[name] >= len(res.latency), name


def test_every_rebinding_request_is_seen_by_the_step_loop_and_the_handlers():
    """Each `retarget` request moves a pointer or an index under a fan of
    constraints.  By then its `redef_*` steps are bound to their owner's
    registrants, yet each request still enters `vm.run_genfn` and the
    engine's handlers through their wrapped names, and its Install and
    Cancel events are counted through `trace.emit`: a bound step holding an
    unwrapped handler would read as a layer that costs nothing."""
    tracer = spans.Tracer()
    program = workloads.RebindProgram("retarget", 4, 2)
    plain, res, _ = workloads.ProgramWorkload("tiny", program, 20, 5).traced(1, tracer)
    assert plain.failed == res.failed == 0
    n = len(res.latency)
    assert n == 5
    for name in ("vm.run_genfn", "runtime.handle"):
        assert tracer.calls[name] >= n, name
    assert tracer.events[tr.INSTALL] >= n and tracer.events[tr.CANCEL] >= n


FRONT_END = ["lexer", "parser", "checker", "lvgraph", "codegen"]


def test_the_front_end_is_seen_by_the_spans():
    """Set-up compiles the program through each wrapped front-end name."""
    tracer = spans.Tracer()
    program = workloads.ChainProgram(2, 5)
    plain, res, _ = workloads.ProgramWorkload("tiny", program, 20, 5).traced(1, tracer)
    assert plain.failed == res.failed == 0
    for name in FRONT_END:
        assert name in tracer.names, name
