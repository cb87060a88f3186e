"""Command line driver.

Exit codes: 0 success, 1 source errors (lexing/parsing/checking),
2 runtime fault, 3 differential divergence found by `check`.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import trace as tr
from .checker import check_or_raise
from .errors import CheckError, Diagnostic, LexError, ParseError, RuntimeFault
from .parser import parse_source
from .vm import Machine, compile_source

EXIT_OK = 0
EXIT_SOURCE_ERROR = 1
EXIT_RUNTIME_FAULT = 2
EXIT_DIVERGENCE = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def cmd_parse(args) -> int:
    from .printer import unit_str

    unit = parse_source(_read(args.file))
    check_or_raise(unit)
    sys.stdout.write(unit_str(unit))
    return EXIT_OK


def cmd_graph(args) -> int:
    from .lvgraph import build_graph, to_dot

    unit = parse_source(_read(args.file))
    check_or_raise(unit)
    graph = build_graph(unit)
    if args.dot:
        sys.stdout.write(to_dot(graph))
    else:
        for src, dst in graph.edges():
            print(f"{src.str} -> {dst.str}")
    return EXIT_OK


def cmd_emit(args) -> int:
    from .render import render

    text = render(compile_source(_read(args.file))[0])
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _make_sink(trace_arg) -> tuple[tr.WarningSink, object]:
    """The sink of `run` and the file to close after it.  It keeps only the
    warnings `run` prints; with `--trace` it also streams every event, to
    stdout for `-`, so the run keeps no record per store either way."""
    if trace_arg is None:
        return tr.WarningSink(), None
    if trace_arg == "-":
        return tr.WarningSink(sys.stdout), None
    close = open(trace_arg, "w", encoding="utf-8")
    return tr.WarningSink(close), close


def _runtime(step):
    """Run a runtime step of a route (load, run, final memory).  Python's
    recursion limit, reached by user recursion or by a deep cascade, and
    running out of memory, by a huge array say, are its runtime faults."""
    try:
        return step()
    except RecursionError:
        raise RuntimeFault("recursion limit exceeded") from None
    except MemoryError:
        raise RuntimeFault("out of memory") from None


def cmd_run(args) -> int:
    gen, info = compile_source(_read(args.file))
    sink, close = _make_sink(args.trace)
    try:
        machine = Machine(gen, info, sink)
        _runtime(machine.run)
        for name, value in _runtime(lambda: sorted(machine.memory_snapshot().items())):
            print(f"{name} = {value}")
        _print_warnings(sink, args.file)
        return EXIT_OK
    except RuntimeFault as f:
        _print_warnings(sink, args.file)
        print(f"{args.file}: runtime fault: {f}", file=sys.stderr)
        return EXIT_RUNTIME_FAULT
    finally:
        if close is not None:
            close.close()


def _print_warnings(sink: tr.WarningSink, filename: str):
    """Warnings (cycle skips, unresolvable constrained l-values) are shown
    whether or not a trace is written."""
    for e in tr.filtered(sink.events, (tr.WARNING,)):
        where = e.lvalue if e.cell in ("", e.lvalue) else f"{e.lvalue} ({e.cell})"
        print(f"{filename}: warning: {where}: {e.detail}", file=sys.stderr)


def _fault(route) -> str | None:
    """Run one route of `check`; the text of the runtime fault that ended
    it, or None when it ran to the end."""
    try:
        _runtime(route)
    except RuntimeFault as f:
        return str(f)
    return None


def _check_program(label: str, source: str, verbose: bool) -> bool:
    """Run one program through the vm and the reference and report what
    differs under `label`; True when the two agree."""
    from .oracle import Oracle, diff_memory, diff_traces

    gen, info = compile_source(source)
    m = Machine(gen, info)
    m_fault = _fault(m.run)
    o = Oracle(gen.unit, info)
    o_fault = _fault(lambda: (o.load(), o.run()))
    dt = diff_traces(m.trace.events, o.trace.events)
    dm = diff_memory(m.memory_snapshot(), o.memory_snapshot())
    if not dt.ok or not dm.ok or m_fault != o_fault:
        print(f"{label}: DIVERGENCE")
        for r in (dt, dm):
            if not r.ok:
                print("  " + r.message)
        if m_fault != o_fault:
            print(f"  runtime faults differ: {m_fault or 'none'}|{o_fault or 'none'}")
        for a, b in zip(dt.left, dt.right):
            print(f"    compiled: {a.to_json()}")
            print(f"    reference: {b.to_json()}")
        return False
    if verbose:
        ended = "" if m_fault is None else f", both fault: {m_fault}"
        print(f"{label}: ok "
              f"({len(tr.filtered(m.trace.events))} visible events{ended})")
    return True


def cmd_check(args) -> int:
    """Check the FILEs given, or else `--count` generated programs.  A file
    with a source error is reported under its own name, the rest are still
    checked, and the exit code is then 1."""
    if args.files:
        failures = errors = 0
        for path in args.files:
            try:
                failures += not _check_program(path, _read(path), args.verbose)
            except (LexError, ParseError, CheckError) as e:
                errors += 1
                _source_error(e, path)
        total = len(args.files)
        print(f"{total - failures - errors}/{total} files agree")
        if errors:
            return EXIT_SOURCE_ERROR
        return EXIT_OK if failures == 0 else EXIT_DIVERGENCE

    from .randgen import generate

    failures = 0
    for k in range(args.count):
        seed = args.seed + k
        source = generate(seed)
        if not _check_program(f"seed {seed}", source, args.verbose):
            failures += 1
            if args.save_dir:
                os.makedirs(args.save_dir, exist_ok=True)
                path = os.path.join(args.save_dir, f"seed{seed}.hc")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(source)
                print(f"  program saved to {path}")
    total = args.count
    print(f"{total - failures}/{total} seeds agree")
    return EXIT_OK if failures == 0 else EXIT_DIVERGENCE


def _source_error(e, filename: str) -> int:
    """Print a lex, parse or check error's diagnostics under `filename`."""
    diagnostics = e.diagnostics if isinstance(e, CheckError) else [Diagnostic(e.pos, e.msg)]
    for d in diagnostics:
        print(d.render(filename), file=sys.stderr)
    return EXIT_SOURCE_ERROR


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="declc",
        description="Compiler and runtime for a C-like language with "
                    "declarative constructs (constraints, monitors, "
                    "preconditional statements).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and pretty-print a program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("graph", help="print the l-value redefinition graph")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="Graphviz output")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("emit", help="print the lowered pseudo-C++ functions")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="output file ('-' = stdout)")
    p.set_defaults(fn=cmd_emit)

    p = sub.add_parser("run", help="compile and execute a program")
    p.add_argument("file")
    p.add_argument("--trace", metavar="FILE",
                   help="write the JSON-lines event trace ('-' = stdout)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "check", help="differential testing against the reference interpreter")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="programs to check (default: generated ones)")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--count", type=int, default=50, help="number of seeds")
    p.add_argument("--save-dir", help="save diverging generated programs here")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_check)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (LexError, ParseError, CheckError) as e:
        return _source_error(e, getattr(args, "file", "<input>"))
    except OSError as e:
        print(str(e), file=sys.stderr)
        return EXIT_SOURCE_ERROR


if __name__ == "__main__":
    sys.exit(main())
