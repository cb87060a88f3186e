"""Deterministic pseudo-C++ rendering of lowered units.

The output shows what the compiler generates for each declarative construct:
registration calls on the affected l-values plus the action functions, in a
readable C-like surface.  It is documentation/debug output: the vm runs the
same registrations as step tuples it lowers from the GenUnit (see vm.py).
Every registration prints as `(lv).Handle<Kind>(fn, b, owner);` but a
dependency, which is registered on the constrained side from the
constraining l-value.
"""

from __future__ import annotations

from . import codegen
from .codegen import CallGen, GenFunction, GenUnit
from .printer import construct_lines, expr_str, stmt_lines


def _instr_line(gen: GenUnit, fn: GenFunction, ins) -> str:
    if ins.__class__ is CallGen:
        return f"{ins.fn}(b, owner);"
    if ins.kind == "apply":
        guard = gen.plans[fn.construct].guard_fn
        return (f"if (b && {guard}(owner)) {ins.fn}(owner);" if guard
                else f"if (b) {ins.fn}(owner);")
    if ins.kind == "dependency":  # on the constrained side, from the constraining
        lhs = gen.graph.constructs[fn.construct].lhs
        return f"({lhs.str}).HandleDependency(&({ins.lv.str}), b, owner);"
    return f"({ins.lv.str}).Handle{ins.kind.capitalize()}({ins.fn}, b, owner);"


def _fn_lines(gen: GenUnit, fn: GenFunction) -> list[str]:
    if fn.kind == codegen.ASSIGN:
        return [f"void {fn.name}(void* owner) {{",
                f"    {fn.lhs.str} = {expr_str(fn.expr)};",
                "}"]
    if fn.kind == codegen.GUARD_TESTER:
        return [f"bool {fn.name}(void* owner) {{",
                f"    return {expr_str(fn.expr)};",
                "}"]
    if fn.kind == codegen.MONITOR_BODY:
        lines = [f"void {fn.name}(void* owner)"]
        lines.extend(stmt_lines(fn.stmts))
        return lines
    if fn.kind == codegen.PRECOND_TESTER:
        lines = [f"void {fn.name}(void* owner) {{",
                 f"    if ({expr_str(fn.expr)})"]
        lines.extend("    " + ln for ln in stmt_lines(fn.stmts, 1))
        lines.append("}")
        return lines
    # Init / Redef / UnitInit bodies
    lines = [f"void {fn.name}(bool b, void* owner) {{"]
    lines.extend("    " + _instr_line(gen, fn, ins) for ins in fn.instrs)
    lines.append("}")
    return lines


def render(gen: GenUnit) -> str:
    """Full lowered-unit listing, grouped per construct, then per scope."""
    out: list[str] = []

    def emit_fn(name: str):
        out.extend(_fn_lines(gen, gen.functions[name]))
        out.append("")

    for ordinal in sorted(gen.plans):
        plan = gen.plans[ordinal]
        c = gen.graph.constructs[ordinal].construct
        header = construct_lines(c)
        out.append(f"// construct {ordinal}"
                   + (f" (class {c.scope})" if c.scope else ""))
        out.extend("// " + ln for ln in header)
        for fname in [plan.assign_fn, plan.guard_fn, plan.monitor_fn,
                      plan.tester_fn]:
            if fname:
                emit_fn(fname)
        for fname in plan.init_fns + sorted(plan.redef_fns):
            emit_fn(fname)

    for cls_name in sorted(gen.classes):
        out.append(f"// class {cls_name} unit init")
        emit_fn(gen.classes[cls_name])
    out.append("// file scope unit init")
    emit_fn(gen.unit_init)
    return "\n".join(out).rstrip() + "\n"

