import random

import pytest

from declc import trace as tr
from declc.contract import Wave, c_div, c_mod
from declc.errors import RuntimeFault
from declc.runtime import (Cell, ConstraintEntry, DepEdge, DependencyGraph,
                           Engine, Entry, ObjectHeader)


def engine():
    return Engine(tr.TraceSink())


def applying(effect):
    """The right-side slot of an entry whose application runs effect()."""
    return [lambda frame: effect()]


def entry(fn, owner=None):
    return Entry(fn, owner, invoke=lambda *a: None)


def edges_of(*entries, ordinals=1):
    """One edge per (entry, ordinal), made once, as the vm makes them."""
    return {(en, j): DepEdge(en, j) for en in entries for j in range(ordinals)}


# ------------------------------------------------------------ c arithmetic

@pytest.mark.parametrize("a,b", [(7, 2), (-7, 2), (7, -2), (-7, -2),
                                 (9, 3), (0, 5), (1, -1)])
def test_division_truncates_toward_zero(a, b):
    q, r = c_div(a, b), c_mod(a, b)
    assert q == int(a / b)
    assert q * b + r == a


def test_division_by_zero_faults():
    with pytest.raises(RuntimeFault):
        c_div(1, 0)
    with pytest.raises(RuntimeFault):
        c_mod(1, 0)


# ---------------------------------------------------------- stacking rules

def test_top_entry_is_last_registered():
    """The last registered monitor is the top one; cancelling it makes the
    one registered before it the top again."""
    e, c = engine(), Cell("x")
    fired = []
    a = Entry("f1", None, invoke=lambda: fired.append("f1"))
    b = Entry("f2", None, invoke=lambda: fired.append("f2"))
    e.handle_monitor(c, a, True)
    e.handle_monitor(c, b, True)
    e.actions_after_change(c)
    e.handle_monitor(c, b, False)
    e.actions_after_change(c)
    assert fired == ["f2", "f1"]


def test_cancel_removes_topmost_matching():
    """A cancel removes the topmost registration of the entry it is given, by
    identity, so nested install/cancel pairs of one entry balance and an
    entry of the same function stays."""
    e, c = engine(), Cell("x")
    first, other = entry("f"), entry("f")
    e.handle_monitor(c, first, True)
    e.handle_monitor(c, other, True)
    e.handle_monitor(c, first, True)
    e.handle_monitor(c, first, False)
    assert c.monitors == [first, other]
    e.handle_monitor(c, first, False)
    assert c.monitors == [other] and first.registered == 0


def test_cancel_of_unregistered_entry_faults():
    e, c = engine(), Cell("x")
    with pytest.raises(RuntimeFault):
        e.handle_monitor(c, entry("ghost"), False)


def test_owner_distinguishes_registrations():
    e, c = engine(), Cell("x")
    o1, o2 = object(), object()
    f1, f2 = entry("f", o1), entry("f", o2)
    e.handle_monitor(c, f1, True)
    e.handle_monitor(c, f2, True)
    e.handle_monitor(c, f1, False)
    assert [m.owner for m in c.monitors] == [o2]
    with pytest.raises(RuntimeFault):
        e.handle_monitor(c, f1, False)


def test_stack_against_list_model():
    """Random install/cancel sequences of a few entries across the four
    registration lists behave like a plain list with remove-topmost
    semantics, each cancel naming the entry object it installed."""
    rng = random.Random(42)
    e, c = engine(), Cell("x")
    handlers = [e.handle_monitor, e.handle_precondition,
                e.handle_redefinition, e.handle_constraint]
    lists = ["monitors", "preconditions", "redefinitions", "constraints"]
    models = [[], [], [], []]
    made = [[(ConstraintEntry if which == 3 else Entry)(f"f{k}", None, invoke=lambda *a: None)
             for k in range(4)] for which in range(4)]
    for _ in range(500):
        which = rng.randrange(4)
        en = rng.choice(made[which])
        model = models[which]
        if rng.random() < 0.55:
            handlers[which](c, en, True)
            model.append(en.fn)
        else:
            should_fault = en.fn not in model
            if should_fault:
                with pytest.raises(RuntimeFault):
                    handlers[which](c, en, False)
            else:
                handlers[which](c, en, False)
                for i in range(len(model) - 1, -1, -1):
                    if model[i] == en.fn:
                        del model[i]
                        break
        assert [x.fn for x in getattr(c, lists[which])] == model


# ------------------------------------------------------------- dependencies

def test_dependency_graph_orders_by_instantiation():
    """Edges live on their constraining cell in (seq, l-value ordinal) order,
    whatever order they were added in."""
    g = DependencyGraph()
    c1, c2 = Cell("a"), Cell("a2")
    c2.dependencies = []
    e1 = ConstraintEntry("f1", None, seq=2)
    e2 = ConstraintEntry("f2", None, seq=1)
    edges = edges_of(e1, e2, ordinals=2)
    g.add(c1, edges[e1, 0])
    g.add(c1, edges[e2, 1])
    g.add(c1, edges[e2, 0])
    assert [(d.entry.fn, d.order[1]) for d in c1.dependencies] == \
        [("f2", 0), ("f2", 1), ("f1", 0)]
    assert c2.dependencies == []
    assert len(g) == 3


def test_dependency_double_add_and_missing_remove_fault():
    g = DependencyGraph()
    c, other = Cell("a"), Cell("b")
    other.dependencies = []
    edge = DepEdge(ConstraintEntry("f", None, seq=0), 0)
    g.add(c, edge)
    with pytest.raises(RuntimeFault):
        g.add(c, edge)
    with pytest.raises(RuntimeFault):
        g.add(other, edge)        # one edge per (constraint, ordinal) overall
    g.remove(edge)
    with pytest.raises(RuntimeFault):
        g.remove(edge)
    assert len(g) == 0
    assert c.dependencies == [] and other.dependencies == []


def test_dependency_reinstall_mid_list_keeps_order():
    """A reinstall keeps its constraint's seq, so a cancelled-then-reinstalled
    edge goes back to its place in the middle of the list, not the end."""
    g = DependencyGraph()
    c = Cell("a")
    entries = [ConstraintEntry(f"f{k}", None, seq=k) for k in range(5)]
    edges = edges_of(*entries, ordinals=2)
    for en in entries:
        g.add(c, edges[en, 0])
        g.add(c, edges[en, 1])
    old = c.dependencies[5]
    g.remove(edges[entries[2], 1])
    g.remove(edges[entries[2], 0])
    assert old.live is False
    g.add(c, edges[entries[2], 1])
    g.add(c, edges[entries[2], 0])
    assert [d.order for d in c.dependencies] == \
        [(k, j) for k in range(5) for j in (0, 1)]
    assert c.dependencies[5] is old and c.dependencies[5].live


def test_dependency_edge_moved_away_and_back_keeps_its_place():
    """An edge is one object for its (constraint, ordinal): moved A -> B -> A
    it goes back to its place among A's edges, and `len` counts only the
    live edges."""
    g = DependencyGraph()
    a, b = Cell("a"), Cell("b")
    entries = [ConstraintEntry(f"f{k}", None, seq=k) for k in range(3)]
    edges = edges_of(*entries)
    for en in entries:
        g.add(a, edges[en, 0])
    edge = a.dependencies[1]
    g.remove(edges[entries[1], 0])
    assert len(g) == 2 and not edge.live
    g.add(b, edges[entries[1], 0])
    assert b.dependencies == [edge] and edge.from_cell is b and edge.live
    assert [d.entry.fn for d in a.dependencies] == ["f0", "f2"]
    g.remove(edges[entries[1], 0])
    g.remove(edges[entries[2], 0])
    assert len(g) == 1 and b.dependencies == []
    g.add(a, edges[entries[1], 0])
    assert a.dependencies == [edges[entries[0], 0], edge] and edge.from_cell is a
    g.add(a, edges[entries[2], 0])
    assert [d.entry.fn for d in a.dependencies] == ["f0", "f1", "f2"]
    assert a.dependencies[1] is edge and edges[entries[1], 0] is edge
    assert len(g) == 3


def test_dependency_lists_against_sorted_model():
    """Random add/remove sequences over several cells keep each cell's list
    equal to the sorted set of its live (seq, ordinal) pairs."""
    rng = random.Random(7)
    g = DependencyGraph()
    cells = [Cell(f"c{k}") for k in range(3)]
    entries = [ConstraintEntry(f"f{k}", None, seq=k) for k in range(8)]
    edges = edges_of(*entries, ordinals=2)
    model: dict[tuple, Cell] = {}
    for _ in range(400):
        en, j = rng.choice(entries), rng.randrange(2)
        key = (en.seq, j)
        if key in model:
            del model[key]
            g.remove(edges[en, j])
        else:
            model[key] = rng.choice(cells)
            g.add(model[key], edges[en, j])
        for c in cells:
            assert [d.order for d in c.dependencies] == \
                sorted(k for k, mc in model.items() if mc is c)
    assert len(g) == len(model)


def _dep_constraint(e, name, seq, fired, effect=None):
    """The edge of a constraint on a fresh cell `name` whose application
    records its name and then runs `effect`, made once for its ordinal 0."""
    dst = Cell(name, 0)

    def apply():
        fired.append(name)
        if effect is not None:
            effect()

    en = ConstraintEntry(f"assign_{name}", None, seq=seq, target=lambda: dst,
                         rhs=applying(apply))
    e.handle_constraint(dst, en, True)
    return DepEdge(en, 0)


def test_resolve_skips_edges_cancelled_earlier_in_the_wave():
    """An edge cancelled by an earlier firing of the same resolve does not
    fire, and neither does an edge added by it; an edge it cancelled and
    reinstalled on the same cell fires at its turn."""
    e = engine()
    src = Cell("src", 0)
    fired = []
    gone = _dep_constraint(e, "gone", 1, fired)
    moved = _dep_constraint(e, "moved", 2, fired)
    kept = _dep_constraint(e, "kept", 3, fired)
    late = _dep_constraint(e, "late", 4, fired)

    def rebind():
        if fired.count("first") > 1:
            return                 # only the first wave rebinds
        e.handle_dependency(src, gone, False)
        e.handle_dependency(src, moved, False)
        e.handle_dependency(src, moved, True)
        e.handle_dependency(src, late, True)

    first = _dep_constraint(e, "first", 0, fired, effect=rebind)
    for en in (first, gone, moved, kept):
        e.handle_dependency(src, en, True)
    e.wave.enter()
    e.resolve(src)
    e.wave.exit()
    assert fired == ["first", "moved", "kept"]
    assert [d.entry.fn for d in src.dependencies] == \
        ["assign_first", "assign_moved", "assign_kept", "assign_late"]
    e.wave.enter()
    e.resolve(src)             # a later wave fires the added edge too
    e.wave.exit()
    assert fired == ["first", "moved", "kept", "first", "moved", "kept", "late"]


def test_resolve_skips_an_edge_an_earlier_firing_moved_away():
    """An edge cancelled and reinstalled on another cell by an earlier firing
    no longer depends on the resolved cell: it does not fire there."""
    e = engine()
    src, other = Cell("src", 0), Cell("other", 0)
    fired = []
    away = _dep_constraint(e, "away", 1, fired)

    def move():
        e.handle_dependency(src, away, False)
        e.handle_dependency(other, away, True)

    first = _dep_constraint(e, "first", 0, fired, effect=move)
    for en in (first, away):
        e.handle_dependency(src, en, True)
    e.wave.enter()
    e.resolve(src)
    e.wave.exit()
    assert fired == ["first"]
    assert [d.entry.fn for d in other.dependencies] == ["assign_away"]


def test_resolve_fires_only_the_written_cells_edges():
    """Resolution walks the written cell's own edges: with 1000 edges on
    other cells, a write fires exactly the written cell's edges, in order."""
    e = engine()
    src, elsewhere = Cell("src", 0), [Cell(f"o{k}", 0) for k in range(10)]
    fired = []
    for k in range(1000):
        en = _dep_constraint(e, f"x{k}", 10 + k, fired)
        e.handle_dependency(elsewhere[k % 10], en, True)
    own = [_dep_constraint(e, f"own{k}", 2000 - k, fired) for k in range(3)]
    for en in own:
        e.handle_dependency(src, en, True)
    calls = []
    real_fire = e.fire

    def counting_fire(en, via_resolution):
        calls.append(en.fn)
        real_fire(en, via_resolution)

    e.fire = counting_fire
    e.wave.enter()
    e.resolve(src)
    e.wave.exit()
    assert calls == ["assign_own2", "assign_own1", "assign_own0"]
    assert fired == ["own2", "own1", "own0"]
    assert len(e.deps) == 1003


# -------------------------------------------------------------------- waves

def test_wave_marks_clear_at_outermost_exit():
    w = Wave()
    c = Cell("x")
    w.enter()
    w.enter()
    w.mark(c)
    assert w.skip(c)
    w.exit()
    assert w.skip(c)          # still inside the outer wave
    w.exit()
    w.enter()
    assert not w.skip(c)      # a new wave starts clean
    w.exit()


def test_resolution_applies_once_per_wave():
    """A cell assigned by resolution is skipped by later edges in the same
    wave, so constraint cycles degrade to a single application."""
    e = engine()
    src, dst = Cell("src", 0), Cell("dst", 0)
    fired = []
    en = ConstraintEntry("assign_0", None, seq=0,
                         target=lambda: dst,
                         rhs=applying(lambda: fired.append("hit")))
    e.handle_constraint(dst, en, True)
    e.deps.add(src, DepEdge(en, 0))
    e.wave.enter()
    e.resolve(src)
    e.resolve(src)            # second trigger in the same wave
    e.wave.exit()
    assert fired == ["hit"]


def test_fire_respects_top_constraint():
    e = engine()
    dst = Cell("dst", 0)
    fired = []
    older = ConstraintEntry("assign_0", None, seq=0, target=lambda: dst,
                            rhs=applying(lambda: fired.append("old")))
    newer = ConstraintEntry("assign_1", None, seq=1, target=lambda: dst,
                            rhs=applying(lambda: fired.append("new")))
    dst.constraints = [older, newer]
    e.wave.enter()
    e.fire(older, via_resolution=True)
    e.fire(newer, via_resolution=True)
    e.wave.exit()
    assert fired == ["new"]


def test_fire_with_unresolvable_target_warns():
    e = engine()

    def target():
        raise RuntimeFault("null pointer dereference")

    en = ConstraintEntry("assign_0", None, seq=0, target=target)
    e.fire(en, via_resolution=False)
    assert [ev.kind for ev in e.trace.events] == [tr.WARNING]


def test_false_guard_blocks_application():
    e = engine()
    dst = Cell("dst", 0)
    fired = []
    en = ConstraintEntry("assign_0", None, seq=0, target=lambda: dst,
                         guard=lambda: False,
                         rhs=applying(lambda: fired.append("hit")))
    e.handle_constraint(dst, en, True)
    e.fire(en, via_resolution=False)
    assert fired == []


def test_fire_hands_apply_the_resolved_target():
    """An unguarded constraint resolves its target once and applies there; a
    guarded one resolves it again after the guard, which may rebind it.  By
    resolution, the cell written is the one handed back to `resolve`."""
    e = engine()
    first, second = Cell("first", 0), Cell("second", 0)
    denoted = [first]
    resolved = []

    def target():
        resolved.append(denoted[0].name)
        return denoted[0]

    def rebinding_guard():
        denoted[0] = second
        return True

    for via_resolution in (False, True):
        for guard in (None, rebinding_guard):
            denoted[0] = first
            resolved.clear()
            first.value = second.value = 0
            en = ConstraintEntry("assign_0", None, seq=0, target=target,
                                 guard=guard, rhs=applying(lambda: 1))
            first.constraints = [en]
            e.wave.enter()
            written = e.fire(en, via_resolution)
            e.wave.exit()
            assert resolved == (["first"] if guard is None else ["first", "second"])
            applied = first if guard is None else second
            assert (first.value, second.value) == ((1, 0) if guard is None else (0, 1))
            assert written is (applied if via_resolution else None)


# --------------------------------------------------------------- work stack

def _pure(e, dst, seq, order, value):
    """A pure constraint on dst whose right side records dst's name."""
    en = ConstraintEntry(f"assign_{dst.name}", None, lvalue=dst.name, seq=seq,
                         target=lambda: dst, pure=True,
                         rhs=[lambda frame: order.append(dst.name) or value])
    e.handle_constraint(dst, en, True)
    return en


def _fan_with_a_subtree():
    """src has edges to a, then b; a has an edge to c and a precondition."""
    e, order = engine(), []
    src, a, b, c = Cell("src", 0), Cell("a", 0), Cell("b", 0), Cell("c", 0)
    to_a, to_b, to_c = (_pure(e, a, 0, order, 1), _pure(e, b, 1, order, 2),
                        _pure(e, c, 2, order, 3))
    e.handle_dependency(src, DepEdge(to_a, 0), True)
    e.handle_dependency(src, DepEdge(to_b, 0), True)
    e.handle_dependency(a, DepEdge(to_c, 0), True)
    e.handle_precondition(a, Entry("test_a", None, invoke=lambda: order.append("pre a")),
                          True)
    return e, order, src, (a, b, c)


def test_a_pure_cascade_runs_depth_first_from_one_loop():
    """Each application is written by `fire` and is a level of the same
    loop: the first target's subtree and then its precondition run before
    the second edge.  Each pure application is one record read as three
    events."""
    e, order, src, (a, b, c) = _fan_with_a_subtree()
    e.wave.enter()
    e.resolve(src)
    e.wave.exit()
    assert order == ["a", "c", "pre a", "b"]
    assert (a.value, b.value, c.value) == (1, 2, 3)
    assert [(ev.kind, ev.cell) for ev in e.trace.events] == [
        (k, cell) for cell in "acb"
        for k in (tr.CONSTRAINT_APPLIED, tr.BEFORE_CHANGE, tr.AFTER_CHANGE)]
    assert len(e.trace._slots) == 3 * tr.STRIDE
    assert e.wave.depth == 0 and not e.wave.in_flight


def test_each_application_of_a_resolution_outside_a_wave_is_a_wave():
    """At depth 0 (a resolution entered from `Engine.resume`) the loop runs
    the same levels, but each application of the changed cell's edges opens
    a wave that ends when its level is done: b's wave holds b only."""
    e, order, src, (a, b, c) = _fan_with_a_subtree()
    waves = []
    for cell in (a, b):
        e.handle_precondition(cell, Entry(f"wave_{cell.name}", None, invoke=lambda: waves.append(
            (e.wave.depth, sorted(x.name for x in (a, b, c) if id(x) in e.wave.in_flight)))),
            True)
    e.resolve(src)
    assert order == ["a", "c", "pre a", "b"]
    assert waves == [(1, ["a", "c"]), (1, ["b"])]
    assert e.wave.depth == 0 and not e.wave.in_flight


def test_a_target_with_phase_1_and_2_work_is_a_level_of_the_loop():
    """a has a redefinition and a monitor.  Its pure application records the
    split form (the application, `BeforeChange`, the cancel run, the write,
    `AfterChange`), then a's level reinstalls (phase 1) and runs the monitor
    (phase 2) before its edge to c fires, all from the one loop."""
    e, order, src, (a, b, c) = _fan_with_a_subtree()
    e.handle_redefinition(a, Entry("redef_a", None, invoke=lambda fns, add: order.append(
        ("redef", list(fns), add))), True)
    e.handle_monitor(a, Entry("m", None, lvalue="a", invoke=lambda: order.append("m")), True)
    e.wave.enter()
    e.resolve(src)
    e.wave.exit()
    assert order == ["a", ("redef", ["redef_a"], False), ("redef", ["redef_a"], True), "m",
                     "c", "pre a", "b"]
    assert (a.value, b.value, c.value) == (1, 2, 3)
    applied = (tr.CONSTRAINT_APPLIED, tr.BEFORE_CHANGE, tr.AFTER_CHANGE)
    assert [(ev.kind, ev.cell) for ev in e.trace.events] == [
        (k, "a") for k in applied + (tr.MONITOR_FIRED,)] + [
        (k, cell) for cell in "cb" for k in applied]
    assert len(e.trace._slots) == 6 * tr.STRIDE   # a's application is three records


def test_a_faulting_pure_right_side_emits_its_application():
    """The right side is evaluated before anything is emitted; when it
    faults, the application's own event is emitted before the fault goes
    up, as when the right side ran after it."""
    e = engine()
    src, dst = Cell("src", 0), Cell("dst", 0)

    def fault(frame):
        raise RuntimeFault("division by zero")

    en = ConstraintEntry("assign_dst", None, lvalue="dst", construct=4, seq=0,
                         target=lambda: dst, rhs=[fault], pure=True)
    e.handle_constraint(dst, en, True)
    e.handle_dependency(src, DepEdge(en, 0), True)
    e.wave.enter()
    with pytest.raises(RuntimeFault):
        e.resolve(src)
    e.wave.exit()
    assert e.trace.events == [(0, tr.CONSTRAINT_APPLIED, "dst", "dst", "construct:4")]
    assert dst.value == 0


# ----------------------------------------------------------- change protocol

def test_only_top_monitor_fires():
    e = engine()
    c = Cell("x", 0)
    fired = []
    e.handle_monitor(c, Entry("m0", None, invoke=lambda: fired.append("m0")), True)
    e.handle_monitor(c, Entry("m1", None, invoke=lambda: fired.append("m1")), True)
    e.actions_after_change(c)
    assert fired == ["m1"]


def test_monitor_not_reentrant():
    e = engine()
    c = Cell("x", 0)
    fired = []

    def body():
        fired.append("m")
        if len(fired) < 5:
            e.actions_after_change(c)   # a monitor body writing its own cell

    e.handle_monitor(c, Entry("m", None, invoke=body), True)
    e.actions_after_change(c)
    assert fired == ["m"]


def test_preconditions_all_fire_in_order():
    e = engine()
    c = Cell("x", 0)
    fired = []
    e.handle_precondition(c, Entry("t0", None, invoke=lambda: fired.append(0)), True)
    e.handle_precondition(c, Entry("t1", None, invoke=lambda: fired.append(1)), True)
    e.actions_after_change(c)
    assert fired == [0, 1]


@pytest.mark.parametrize("add", [False, True])
def test_change_phases_skip_redefinitions_cancelled_earlier(add):
    """A redefinition cancelled by an earlier one of the same cell in the same
    before- or after-change phase does not run from the phase's snapshot."""
    e = engine()
    c = Cell("x", 0)
    ran = []

    def run(fns, b):  # the vm side of a run: both entries have one owner
        for fn in fns:
            ran.append((fn, b))
            if fn == "redef_outer":
                e.handle_redefinition(c, inner, False)

    inner = Entry("redef_inner", None, invoke=run)
    e.handle_redefinition(c, Entry("redef_outer", None, invoke=run), True)
    e.handle_redefinition(c, inner, True)
    (e.actions_after_change if add else e.actions_before_change)(c)
    assert ran == [("redef_outer", add)]
    assert [r.fn for r in c.redefinitions] == ["redef_outer"]


# ------------------------------------------------------------ object protocol

def test_suspend_resume_accumulates():
    """N suspends require N resumes before the deferred notification runs."""
    e = engine()
    h, c = ObjectHeader(), Cell("obj")
    notified = []
    e.handle_monitor(c, Entry("m", None, invoke=lambda: notified.append(1)), True)
    e.suspend(h, c)
    e.suspend(h, c)
    e.set_updated(h, c)
    e.set_updated(h, c)       # repeated updates coalesce
    e.resume(h, c)
    assert notified == []
    e.resume(h, c)
    assert notified == [1]
    assert h.updated is False


def test_resume_without_update_is_silent():
    e = engine()
    h, c = ObjectHeader(), Cell("obj")
    notified = []
    e.handle_monitor(c, Entry("m", None, invoke=lambda: notified.append(1)), True)
    e.suspend(h, c)
    e.resume(h, c)
    assert notified == []


def test_resume_unbalanced_faults():
    e = engine()
    h, c = ObjectHeader(), Cell("obj")
    with pytest.raises(RuntimeFault):
        e.resume(h, c)


def test_set_updated_emits_before_change_once():
    e = engine()
    h, c = ObjectHeader(), Cell("obj")
    e.suspend(h, c)
    e.set_updated(h, c)
    e.set_updated(h, c)
    befores = [ev for ev in e.trace.events if ev.kind == tr.BEFORE_CHANGE]
    assert len(befores) == 1 and befores[0].detail == "object-update"
