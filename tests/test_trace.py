import gc
import io
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import machine
from test_differential import CLASS_HEAVY
from declc import cli, trace as tr, values, vm
from declc.errors import RuntimeFault
from declc.randgen import generate
from declc.runtime import ConstraintEntry
from declc.values import value_str

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _lines(stream: io.StringIO) -> list[tr.TraceEvent]:
    return [tr.TraceEvent(**json.loads(line)) for line in stream.getvalue().splitlines()]


def _streamed(source: str) -> list[tr.TraceEvent]:
    """The events of `main` as a `WarningSink` streams them, i.e. built at
    emit."""
    stream = io.StringIO()
    m = vm.load_source(source, tr.WarningSink(stream))
    m.call_function("main", [])
    return _lines(stream)


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
    assert tr.filtered(sink.events, (tr.WARNING,)) == [
        tr.TraceEvent(1, tr.WARNING, "x", "", "skipped"),
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
    sinks = [tr.TraceSink(), _ReadingSink(), tr.WarningSink(stream)]
    for sink in sinks:
        m = vm.load_source(source, sink)
        if faults:
            with pytest.raises(RuntimeFault):
                m.call_function("main", [])
        else:
            m.call_function("main", [])
    once, mid = sinks[0].events, sinks[1].events
    assert mid == once
    assert _lines(stream) == once
    assert [e.seq for e in once] == list(range(len(once)))
    kinds = [e.kind for e in once]
    assert tr.BEFORE_CHANGE in kinds and tr.CONSTRAINT_APPLIED in kinds
    if not faults:  # `p = &a[1]`: Cancel between its two events, Install after
        i = [(e.kind, e.detail) for e in once].index((tr.BEFORE_CHANGE, "old:&a[0]"))
        j = kinds.index(tr.AFTER_CHANGE, i)
        assert once[j].cell == "p" and kinds[i + 1:j] == (j - i - 1) * [tr.CANCEL] != []
        assert kinds[j + 1] == tr.INSTALL


def _loop(n: int) -> str:
    """Two warnings around a loop of n stores of x."""
    return ("int a; int b;\na := b + 1;\nb := a + 1;\nint x;\n"
            f"void main() {{ a = 1; while (x < {n}) {{ x = x + 1; }} b = 2; }}")


def _kept(n: int, stream=None) -> tuple[int, list[tuple]]:
    """What a `WarningSink` holds after `_loop(n)`: its slot count and its
    warnings."""
    sink = tr.WarningSink(stream)
    m = vm.load_source(_loop(n), sink)
    m.call_function("main", [])
    assert m.memory_snapshot()["x"] == str(n)
    return len(sink._slots), _warnings(sink)


def _warnings(sink: tr.TraceSink) -> list[tuple]:
    """The sink's warnings, without their numbers: a `WarningSink` numbers
    them among themselves."""
    return [(w.kind, w.lvalue, w.cell, w.detail)
            for w in tr.filtered(sink.events, (tr.WARNING,))]


def _full(n: int) -> tr.TraceSink:
    m = machine(_loop(n))
    m.call_function("main", [])
    return m.trace


def test_a_run_nobody_traces_keeps_its_warnings_only():
    """`declc run` without `--trace` writes to a `WarningSink`: a loop of
    200 000 stores leaves it holding the slots of its warnings alone, the
    same as 2 stores do, and the warnings `run` prints read the same."""
    assert _kept(2) == _kept(200_000) == (2 * tr.STRIDE, _warnings(_full(2)))
    assert isinstance(cli._make_sink(None)[0], tr.WarningSink)


class _LineCount:
    """A stream that counts the lines written to it and keeps none."""

    def __init__(self):
        self.lines = 0

    def write(self, text: str):
        self.lines += text.count("\n")

    def flush(self):
        pass


def test_a_streamed_run_keeps_its_warnings_only():
    """`declc run --trace` streams to a `WarningSink`: a loop of 200 000
    stores writes two events per store and leaves the sink holding the
    slots of its warnings alone, the same as 2 stores do."""
    short, long = _LineCount(), _LineCount()
    full = _full(2)
    assert _kept(2, short) == _kept(200_000, long) == (2 * tr.STRIDE, _warnings(full))
    assert short.lines == len(full.events)
    assert long.lines - short.lines == 2 * (200_000 - 2)


def _applications(sink: tr.TraceSink, fused: bool):
    """Two applications of one constraint among stores and warnings, each
    emitted as one fused record or as the three records it stands for."""
    en = ConstraintEntry("assign_y", None, lvalue="*p", construct=3)
    sink.emit(tr.STORE, 0, "x", value_str, 1)
    sink.emit(tr.WARNING, "a", "", "first")
    for old, new in ((0, 2), (None, True)):
        if fused:
            sink.emit(tr.CONSTRAINT_APPLIED, old, "y", en.applied, new)
        else:
            sink.emit(tr.CONSTRAINT_APPLIED, en.lvalue, "y", en.detail)
            sink.emit(tr.BEFORE_CHANGE, "", "y", ("old:", value_str), old)
            sink.emit(tr.AFTER_CHANGE, "", "y", ("new:", value_str), new)
        sink.emit(tr.WARNING, "b", "y", "after an application")
    return sink


def test_a_fused_application_reads_as_its_three_records():
    fused, split = (_applications(tr.TraceSink(), f) for f in (True, False))
    assert len(fused._slots) == len(split._slots) - 4 * tr.STRIDE
    assert fused.events == split.events
    assert [w.seq for w in tr.filtered(fused.events, (tr.WARNING,))] == [2, 6, 10]
    assert [(e.seq, e.kind, e.lvalue, e.cell, e.detail) for e in fused.events[3:6]] == [
        (3, tr.CONSTRAINT_APPLIED, "*p", "y", "construct:3"),
        (4, tr.BEFORE_CHANGE, "", "y", "old:0"), (5, tr.AFTER_CHANGE, "", "y", "new:2")]
    assert [e.detail for e in fused.events[8:10]] == ["old:null", "new:true"]
    streams = io.StringIO(), io.StringIO()
    for stream, f in zip(streams, (True, False)):
        _applications(tr.WarningSink(stream), f)
    assert streams[0].getvalue() == streams[1].getvalue() \
        == "".join(e.to_json() + "\n" for e in split.events)


@pytest.mark.parametrize("config", ["default", "class-heavy"])
def test_a_stream_writes_the_events_the_full_sink_keeps(config):
    """Over 100 generated programs, run from load to teardown, the lines a
    `WarningSink` streams are the full sink's events as JSON.  No generated
    program faults, so the default case adds `READ_PROGRAMS`, one of which
    does: both runs end in the same fault, with the same lines up to it."""
    sources = [generate(seed, CLASS_HEAVY if config == "class-heavy" else None)
               for seed in range(100)]
    if config == "default":
        sources += [source for source, _ in READ_PROGRAMS.values()]
    faulted = 0
    for source in sources:
        gen, info = vm.compile_source(source)
        stream, faults = io.StringIO(), []
        sinks = tr.TraceSink(), tr.WarningSink(stream)
        for sink in sinks:
            try:
                vm.Machine(gen, info, sink).run()
                faults.append(None)
            except RuntimeFault as f:
                faults.append(str(f))
        assert faults[0] == faults[1], source
        assert stream.getvalue() == "".join(e.to_json() + "\n" for e in sinks[0].events), \
            source
        faulted += faults[0] is not None
    assert faulted == (config == "default")
