"""Deterministic pseudo-C++ rendering of lowered units.

The output shows what the compiler generates for each declarative construct:
its action functions (`assign_N` and `guard_N` of a constraint, `monitor_N`,
`tester_N`), printed from the construct's sides in the redefinition graph,
then the registration calls of its init and redef functions, in a readable
C-like surface.  It is documentation/debug output: the vm runs the same
registrations as step tuples it lowers from the GenUnit (see vm.py).
Every registration prints as `(lv).Handle<Kind>(fn, b, owner);` but a
dependency, which is registered on the constrained side from the
constraining l-value.
"""

from __future__ import annotations

from . import ast
from .codegen import INIT, REDEF, CallGen, GenFunction, GenUnit
from .printer import construct_lines, expr_str, stmt_lines


def _instr_line(gen: GenUnit, fn: GenFunction, ins) -> str:
    if ins.__class__ is CallGen:
        return f"{ins.fn}(b, owner);"
    if ins.kind == "apply":
        c = gen.graph.constructs[fn.construct].construct
        return (f"if (b && guard_{c.ordinal}(owner)) {ins.fn}(owner);" if c.guard is not None
                else f"if (b) {ins.fn}(owner);")
    if ins.kind == "dependency":  # on the constrained side, from the constraining
        lhs = gen.graph.constructs[fn.construct].lhs
        return f"({lhs.str}).HandleDependency(&({ins.lv.str}), b, owner);"
    return f"({ins.lv.str}).Handle{ins.kind.capitalize()}({ins.fn}, b, owner);"


def _fn_lines(gen: GenUnit, fn: GenFunction) -> list[str]:
    """An init, redef or unit init function, then a blank line."""
    return [f"void {fn.name}(bool b, void* owner) {{",
            *("    " + _instr_line(gen, fn, ins) for ins in fn.instrs), "}", ""]


def _action_lines(info) -> list[str]:
    """The action functions of a construct, each followed by a blank line."""
    c, n = info.construct, info.construct.ordinal
    if isinstance(c, ast.Constraint):
        lines = [f"void assign_{n}(void* owner) {{",
                 f"    {info.lhs.str} = {expr_str(c.rhs)};", "}", ""]
        if c.guard is not None:
            lines += [f"bool guard_{n}(void* owner) {{",
                      f"    return {expr_str(c.guard)};", "}", ""]
        return lines
    if isinstance(c, ast.Monitor):
        return [f"void monitor_{n}(void* owner)", *stmt_lines(c.body), ""]
    return [f"void tester_{n}(void* owner) {{", f"    if ({expr_str(c.cond)})",
            *("    " + ln for ln in stmt_lines(c.body, 1)), "}", ""]


def render(gen: GenUnit) -> str:
    """Full lowered-unit listing, grouped per construct, then per scope."""
    out: list[str] = []
    inits: dict[int, list[GenFunction]] = {}
    redefs: dict[int, list[GenFunction]] = {}
    for fn in gen.functions.values():
        if fn.kind in (INIT, REDEF):
            (inits if fn.kind == INIT else redefs).setdefault(fn.construct, []).append(fn)

    for ordinal in sorted(gen.graph.constructs):
        info = gen.graph.constructs[ordinal]
        c = info.construct
        out.append(f"// construct {ordinal}"
                   + (f" (class {c.scope})" if c.scope else ""))
        out.extend("// " + ln for ln in construct_lines(c))
        out.extend(_action_lines(info))
        for fn in inits.get(ordinal, []) + sorted(redefs.get(ordinal, []),
                                                   key=lambda f: f.name):
            out += _fn_lines(gen, fn)

    for cls_name in sorted(gen.classes):
        out.append(f"// class {cls_name} unit init")
        out += _fn_lines(gen, gen.functions[gen.classes[cls_name]])
    out.append("// file scope unit init")
    out += _fn_lines(gen, gen.functions[gen.unit_init])
    return "\n".join(out).rstrip() + "\n"
