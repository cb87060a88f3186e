import gc
import io
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import machine
from declc import cli, trace as tr, values, vm
from declc.errors import RuntimeFault
from declc.runtime import ConstraintEntry
from declc.values import value_str

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _streamed(source: str) -> list[tr.TraceEvent]:
    """The events of `main` with a stream attached, i.e. built at emit."""
    sink = tr.TraceSink(stream=io.StringIO())
    m = vm.load_source(source, sink)
    m.call_function("main", [])
    return sink.events


def test_stores_build_and_format_nothing_until_events_are_read(monkeypatch):
    src = "int x; int y;\ny := x + 1;\nvoid main() { x = 1; x = 2; }"
    calls = {"value_str": 0}
    real_value_str = values.value_str

    def counting_value_str(v):
        calls["value_str"] += 1
        return real_value_str(v)

    monkeypatch.setattr(values, "value_str", counting_value_str)
    m = machine(src)
    m.call_function("main", [])
    assert calls["value_str"] == 0 and m.trace._built == []
    events = m.trace.events
    assert calls["value_str"] > 0 and m.trace._built is events
    monkeypatch.undo()
    assert events == _streamed(src)
    assert [e.seq for e in events] == list(range(len(events)))


def test_values_render_as_they_were_at_emit():
    src = """
int x; int a; int b;
int *p;
void main() { x = 1; x = 2; p = &a; p = &b; }
"""
    m = machine(src)
    m.call_function("main", [])
    changes = [(e.cell, e.detail) for e in m.trace.events
               if e.kind in (tr.BEFORE_CHANGE, tr.AFTER_CHANGE)]
    assert changes == [
        ("x", "old:0"), ("x", "new:1"), ("x", "old:1"), ("x", "new:2"),
        ("p", "old:null"), ("p", "new:&a"), ("p", "old:&a"), ("p", "new:&b"),
    ]


def test_reading_between_emits_keeps_numbering():
    """A STORE record reads as its two events; numbering and warnings count
    both."""
    sink = tr.TraceSink()
    sink.emit(tr.BEFORE_CHANGE, "", "x", ("old:", str), 1)
    first = sink.events
    sink.emit(tr.WARNING, "x", "", "skipped")
    sink.emit(tr.AFTER_CHANGE, "", "x", ("new:", str), 2)
    sink.emit(tr.STORE, 2, "x", str, 3)
    sink.emit(tr.WARNING, "y", "x", "again")
    assert sink.warnings() == [tr.TraceEvent(1, tr.WARNING, "x", "", "skipped"),
                               tr.TraceEvent(5, tr.WARNING, "y", "x", "again")]
    assert sink.events is first
    assert [(e.seq, e.kind, e.cell, e.detail) for e in first] == [
        (0, tr.BEFORE_CHANGE, "x", "old:1"), (1, tr.WARNING, "", "skipped"),
        (2, tr.AFTER_CHANGE, "x", "new:2"), (3, tr.BEFORE_CHANGE, "x", "old:2"),
        (4, tr.AFTER_CHANGE, "x", "new:3"), (5, tr.WARNING, "x", "again")]


def test_kept_records_add_no_gc_tracked_objects():
    """A kept record is slots in one flat list, not an object the cyclic GC
    tracks, so requests grow the trace but not the GC's work."""
    prog = workloads.ChainProgram(2, 20)
    m = machine(prog.source())
    m.call_function("main", [])
    rng = random.Random(3)
    for _ in range(5):  # right sides are compiled at their second evaluation
        m.call_function(*_request(prog, rng))
    emitted = len(m.trace.events)
    gc.collect()
    tracked = len(gc.get_objects())
    for _ in range(50):
        m.call_function(*_request(prog, rng))
    gc.collect()
    tracked = len(gc.get_objects()) - tracked
    emitted = len(m.trace.events) - emitted
    assert emitted > 50 * 60
    assert tracked < emitted / 50


def _request(prog, rng):
    driver, arg = prog.request(rng)
    return driver, [arg]


class _ReadingSink(tr.TraceSink):
    """Reads `events` after every emit, so also between the two events of a
    store on a redefined cell."""

    def emit(self, *args):
        super().emit(*args)
        self.events


# a program's final call, and whether it faults; `p` has redefinitions (the
# right sides read `*p`), so a store of `p` has Cancel/Install between its
# BeforeChange and AfterChange
READ_PROGRAMS = {
    "stores": ("""
int a[2]; int b; int *p = &a[0]; int x; int y; int src; int n;
x := *p + src;
y := x * 2 given x > 3;
x ::= { n = n + 1; }
y > 10 ?? { b = y; }
void main() { src = 1; a[0] = 2; p = &a[1]; a[1] = 5; src = 3; p = &b; }
""", False),
    "fault": ("""
int a[2]; int *p = &a[1]; int x; int src;
x := *p + src;
void main() { src = 1; src = 2; p = p + 5; src = 3; }
""", True),
}


@pytest.mark.parametrize("name", list(READ_PROGRAMS))
def test_events_read_mid_run_equal_one_read_and_the_stream(name):
    source, faults = READ_PROGRAMS[name]
    stream = io.StringIO()
    sinks = [tr.TraceSink(), _ReadingSink(), tr.TraceSink(stream=stream)]
    for sink in sinks:
        m = vm.load_source(source, sink)
        if faults:
            with pytest.raises(RuntimeFault):
                m.call_function("main", [])
        else:
            m.call_function("main", [])
    once, mid, streamed = (sink.events for sink in sinks)
    assert mid == once
    assert [tr.TraceEvent(**json.loads(line)) for line in stream.getvalue().splitlines()] \
        == once
    assert [e.seq for e in once] == list(range(len(once)))
    kinds = [e.kind for e in once]
    assert tr.BEFORE_CHANGE in kinds and tr.CONSTRAINT_APPLIED in kinds
    if not faults:  # `p = &a[1]`: Cancel between its two events, Install after
        i = [(e.kind, e.detail) for e in once].index((tr.BEFORE_CHANGE, "old:&a[0]"))
        j = kinds.index(tr.AFTER_CHANGE, i)
        assert once[j].cell == "p" and kinds[i + 1:j] == (j - i - 1) * [tr.CANCEL] != []
        assert kinds[j + 1] == tr.INSTALL


def test_warnings_are_read_without_building_the_trace():
    m = machine("int a; int b;\na := b + 1;\nb := a + 1;\n"
                "int c[2]; int i; int s;\nc[i] := s;\n"
                "void main() { a = 1; i = 5; s = 1; b = 2; }")
    m.call_function("main", [])
    warnings = m.trace.warnings()
    assert len(warnings) >= 3 and m.trace._built == []
    assert warnings == tr.filtered(m.trace.events, (tr.WARNING,))


def test_a_run_nobody_traces_keeps_its_warnings_only():
    """`declc run` without `--trace` writes to a `WarningSink`: a loop of
    200 000 stores leaves it holding the slots of its warnings alone, the
    same as 2 stores do, and the warnings `run` prints read the same."""
    kept = {}
    for n in (2, 200_000):
        src = ("int a; int b;\na := b + 1;\nb := a + 1;\nint x;\n"
               f"void main() {{ a = 1; while (x < {n}) {{ x = x + 1; }} b = 2; }}")
        sink = tr.WarningSink()
        m = vm.load_source(src, sink)
        m.call_function("main", [])
        assert m.memory_snapshot()["x"] == str(n)
        kept[n] = (len(sink._slots), [(w.kind, w.lvalue, w.cell, w.detail)
                                      for w in sink.warnings()])
    full = machine(src)
    full.call_function("main", [])
    assert kept[2] == kept[200_000] == (
        2 * tr.STRIDE, [(w.kind, w.lvalue, w.cell, w.detail) for w in full.trace.warnings()])
    assert isinstance(cli._make_sink(None)[0], tr.WarningSink)


def _applications(sink: tr.TraceSink, fused: bool):
    """Two applications of one constraint among stores and warnings, each
    emitted as one fused record or as the three records it stands for."""
    en = ConstraintEntry("assign_y", None, lvalue="*p", construct=3)
    sink.emit(tr.STORE, 0, "x", value_str, 1)
    sink.emit(tr.WARNING, "a", "", "first")
    for old, new in ((0, 2), (None, True)):
        if fused:
            sink.emit(tr.CONSTRAINT_APPLIED, old, "y", en, new)
        else:
            sink.emit(tr.CONSTRAINT_APPLIED, en.lvalue, "y", en.detail)
            sink.emit(tr.BEFORE_CHANGE, "", "y", ("old:", value_str), old)
            sink.emit(tr.AFTER_CHANGE, "", "y", ("new:", value_str), new)
        sink.emit(tr.WARNING, "b", "y", "after an application")
    return sink


def test_a_fused_application_reads_as_its_three_records():
    fused, split = (_applications(tr.TraceSink(), f) for f in (True, False))
    assert len(fused._slots) == len(split._slots) - 4 * tr.STRIDE
    assert fused.warnings() == split.warnings() == tr.filtered(split.events, (tr.WARNING,))
    assert [w.seq for w in fused.warnings()] == [2, 6, 10]
    assert fused.events == split.events
    assert [(e.seq, e.kind, e.lvalue, e.cell, e.detail) for e in fused.events[3:6]] == [
        (3, tr.CONSTRAINT_APPLIED, "*p", "y", "construct:3"),
        (4, tr.BEFORE_CHANGE, "", "y", "old:0"), (5, tr.AFTER_CHANGE, "", "y", "new:2")]
    assert [e.detail for e in fused.events[8:10]] == ["old:null", "new:true"]
    streams = io.StringIO(), io.StringIO()
    for stream, f in zip(streams, (True, False)):
        _applications(tr.TraceSink(stream=stream), f)
    assert streams[0].getvalue() == streams[1].getvalue() \
        == "".join(e.to_json() + "\n" for e in split.events)
