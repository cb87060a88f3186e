import io

from conftest import machine
from declc import trace as tr, vm


def _streamed(source: str) -> list[tr.TraceEvent]:
    """The events of `main` with a stream attached, i.e. built at emit."""
    sink = tr.TraceSink(stream=io.StringIO())
    m = vm.load_source(source, sink)
    m.call_function("main", [])
    return sink.events


def test_stores_build_and_format_nothing_until_events_are_read(monkeypatch):
    src = "int x; int y;\ny := x + 1;\nvoid main() { x = 1; x = 2; }"
    m = machine(src)
    calls = {"value_str": 0, "TraceEvent": 0}
    real_value_str, real_event = vm.value_str, tr.TraceEvent

    def counting_value_str(v):
        calls["value_str"] += 1
        return real_value_str(v)

    def counting_event(*args):
        calls["TraceEvent"] += 1
        return real_event(*args)

    monkeypatch.setattr(vm, "value_str", counting_value_str)
    monkeypatch.setattr(tr, "TraceEvent", counting_event)
    m.call_function("main", [])
    assert calls == {"value_str": 0, "TraceEvent": 0}
    events = m.trace.events
    assert calls["value_str"] > 0 and calls["TraceEvent"] == len(events)
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
    sink = tr.TraceSink()
    sink.emit(tr.BEFORE_CHANGE, "", "x", ("old:", str, 1))
    first = sink.events
    sink.emit(tr.WARNING, "x", "", "skipped")
    sink.emit(tr.AFTER_CHANGE, "", "x", ("new:", str, 2))
    assert sink.events is first
    assert [(e.seq, e.kind, e.detail) for e in first] == [
        (0, tr.BEFORE_CHANGE, "old:1"), (1, tr.WARNING, "skipped"),
        (2, tr.AFTER_CHANGE, "new:2")]
