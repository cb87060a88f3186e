"""The benchmark's workloads: programs, request streams, correctness gates.

Every input is generated here from the seed.  The program is driven only
through its public entry points: `vm.compile_source`, `Machine(gen,
info).load()`, `Machine.call_function(driver, [arg])` for one closed-loop
request (one client, one thread), and the steps of `declc check`.  Every
request is checked: against a model of the expected memory for the chain and
rebind programs, plus an oracle replay of a request prefix; against the
reference interpreter for the corpus.
"""

from __future__ import annotations

import contextlib
import gc
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

from declc import checker, oracle, parser, randgen, vm
from declc.lexer import tokenize

clock = time.perf_counter

WARMUP_REQUESTS = 10  # untimed requests at the end of each set-up
RUN_PATHS = 3         # extra compile/load/main samples per round
REPLAY_PRIME = 4      # oracle replay: main, this many prime requests, then ...
REPLAY_REQUESTS = 4   # ... this many requests of the workload's kind
ROUND_PROGRAMS = 20   # corpus programs generated per set-up


# ------------------------------------------------------------------ programs

def _main(calls) -> str:
    return "void main() { " + " ".join(f"{d}({a});" for d, a in calls) + " }"


class ChainProgram:
    """G independent chains `c{g}_{k+1} := c{g}_{k} + 1` of L links, each
    tail watched by a monitor and a precondition.  A request writes one head
    through `set{g}(v)`, so it cascades through L constraints of one chain
    while the program holds G times as many edges.  No redefining variable is
    ever written, so requests never rebind."""

    def __init__(self, groups: int = 8, links: int = 40):
        self.groups, self.links = groups, links
        self.threshold = links + 50

    def source(self) -> str:
        G, L = self.groups, self.links
        out = []
        for g in range(G):
            out += [f"int c{g}_{k};" for k in range(L + 1)]
            out += [f"int mon{g};", f"int pre{g};"]
        for g in range(G):
            out += [f"c{g}_{k + 1} := c{g}_{k} + 1;" for k in range(L)]
            out.append(f"c{g}_{L} ::= {{ mon{g} = mon{g} + 1; }}")
            out.append(f"c{g}_{L} > {self.threshold} ?? {{ pre{g} = pre{g} + 1; }}")
            out.append(f"void set{g}(int v) {{ c{g}_0 = v; }}")
        out.append(_main(self.main_calls()))
        return "\n".join(out) + "\n"

    def main_calls(self) -> list[tuple[str, int]]:
        return [(f"set{g}", g) for g in range(self.groups)]

    def initial(self) -> dict[str, str]:
        """Memory after load: every constraint applied once on install; the
        monitors and preconditions install after their chain and stay quiet."""
        mem = {}
        for g in range(self.groups):
            for k in range(self.links + 1):
                mem[f"c{g}_{k}"] = str(k)
            mem[f"mon{g}"] = mem[f"pre{g}"] = "0"
        return mem

    def prime(self, rng) -> list[tuple[str, int]]:
        return []

    def request(self, rng) -> tuple[str, int]:
        return f"set{rng.randrange(self.groups)}", rng.randrange(100)

    def expect(self, mem: dict, driver: str, v: int):
        g = int(driver[3:])
        for k in range(self.links + 1):
            mem[f"c{g}_{k}"] = str(v + k)
        mem[f"mon{g}"] = str(int(mem[f"mon{g}"]) + 1)
        if v + self.links > self.threshold:
            mem[f"pre{g}"] = str(int(mem[f"pre{g}"]) + 1)


class RebindProgram:
    """A fan of F constraints `f{k} := *p + arr[i] + k`, a monitor on `*p`, a
    constrained `**x`, and K instances of a class with a class-scope
    constraint, read directly (`r{k} := w{k}.get0() + w{k}.get1()`) and
    through the object pointer `q` (`viaq := q->get1()`).

    Requests are of one kind per workload:
      value     `value(v)` writes `*p` (v even) or `arr[i]` (v odd); the fan fires;
      retarget  `retarget(v)` moves `p` or `i`, then `y` and `q`; the fan is
                cancelled and reinstalled, and `**x` re-applied;
      method    `method{k}(v)` calls `w{k}.set0(v)`: suspend, member update,
                resume, object update.
    Each constrained left side has its own rebindable family (`**x` only).
    """

    SLOTS = 4   # targets of p (s[]) and of i (arr[])

    def __init__(self, kind: str, fan: int = 64, instances: int = 8):
        self.kind, self.fan, self.instances = kind, fan, instances

    def source(self) -> str:
        F, K, S = self.fan, self.instances, self.SLOTS
        out = [
            "class W {", "private:", "    int m0;", "    int m1;", "public:",
            "    void set0(int v) { m0 = v; }",
            "    int get0() { return m0; }",
            "    int get1() { return m1; }",
            "    m1 := m0 + 1;",
            "};",
        ]
        out += [f"W w{k};" for k in range(K)]
        out += [f"int s[{S}];", "int *p = &s[0];", f"int arr[{S}];", "int i = 0;",
                "int t[2];", "int *y = &t[0];", "int **x = &y;", "W *q = &w0;",
                "int pmon;", "int viaq;"]
        out += [f"int f{k};" for k in range(F)]
        out += [f"int r{k};" for k in range(K)]
        out += [f"f{k} := *p + arr[i] + {k};" for k in range(F)]
        out.append("*p ::= { pmon = pmon + 1; }")
        out.append("**x := *p * 2;")
        out += [f"r{k} := w{k}.get0() + w{k}.get1();" for k in range(K)]
        out.append("viaq := q->get1();")
        out.append("void value(int v) { if (v % 2 == 0) { *p = v; } "
                   "else { arr[i] = v; } }")
        out.append(f"void retarget(int v) {{ if (v % 2 == 0) {{ p = &s[(v / 2) % {S}]; }} "
                   f"else {{ i = (v / 2) % {S}; }} y = &t[(v / {2 * S}) % 2]; "
                   f"if ((v / {4 * S}) % 2 == 0) {{ q = &w0; }} else {{ q = &w1; }} }}")
        out += [f"void method{k}(int v) {{ w{k}.set0(v); }}" for k in range(K)]
        out.append(_main(self.main_calls()))
        return "\n".join(out) + "\n"

    def main_calls(self) -> list[tuple[str, int]]:
        return [("value", 2), ("retarget", 5), ("method0", 3)]

    def initial(self) -> dict[str, str]:
        mem = {}
        for k in range(self.instances):
            mem[f"w{k}.m0"], mem[f"w{k}.m1"], mem[f"r{k}"] = "0", "1", "1"
        for j in range(self.SLOTS):
            mem[f"s[{j}]"] = mem[f"arr[{j}]"] = "0"
        mem.update({"p": "&s[0]", "i": "0", "t[0]": "0", "t[1]": "0", "y": "&t[0]",
                    "x": "&y", "q": "&w0", "pmon": "0", "viaq": "1"})
        for k in range(self.fan):
            mem[f"f{k}"] = str(k)
        return mem

    def prime(self, rng) -> list[tuple[str, int]]:
        """Point p and i at every slot in turn and write it, so that later
        requests move bindings between cells holding distinct values."""
        out = []
        for j in range(self.SLOTS):
            out += [("retarget", 2 * j), ("value", 2 * rng.randrange(1, 500)),
                    ("retarget", 2 * j + 1), ("value", 2 * rng.randrange(500) + 1)]
        return out

    def request(self, rng) -> tuple[str, int]:
        if self.kind == "value":
            return "value", rng.randrange(1000)
        if self.kind == "retarget":
            return "retarget", rng.randrange(8 * self.SLOTS)
        return f"method{rng.randrange(self.instances)}", rng.randrange(1000)

    def expect(self, mem: dict, driver: str, v: int):
        S = self.SLOTS
        ps, ai = mem["p"][1:], f"arr[{mem['i']}]"
        yt = mem["y"][1:]
        if driver == "value":
            if v % 2 == 0:
                mem[ps] = str(v)
                mem["pmon"] = str(int(mem["pmon"]) + 1)
                mem[yt] = str(2 * v)
            else:
                mem[ai] = str(v)
            base = int(mem[ps]) + int(mem[ai])
            for k in range(self.fan):
                mem[f"f{k}"] = str(base + k)
        elif driver == "retarget":
            if v % 2 == 0:
                mem["p"] = f"&s[{v // 2 % S}]"
            else:
                mem["i"] = str(v // 2 % S)
            # storing y reinstalls `**x`, which re-applies; moving the right
            # side of a constraint (p, i, q) only moves its dependency edges
            mem["y"] = f"&t[{v // (2 * S) % 2}]"
            mem[mem["y"][1:]] = str(2 * int(mem[mem["p"][1:]]))
            mem["q"] = "&w0" if v // (4 * S) % 2 == 0 else "&w1"
        else:
            k = int(driver[6:])
            mem[f"w{k}.m0"], mem[f"w{k}.m1"] = str(v), str(v + 1)
            mem[f"r{k}"] = str(2 * v + 1)
            if mem["q"] == f"&w{k}":
                mem["viaq"] = str(v + 1)


# ---------------------------------------------------------------- results

@dataclass
class Result:
    """Raw samples of one run; run.py turns them into metrics."""

    latency: list = field(default_factory=list)   # s per timed request
    compile: list = field(default_factory=list)   # s per compile_source
    load: list = field(default_factory=list)      # s per Machine.load
    run: list = field(default_factory=list)       # s per compile + load + main
    setup: list = field(default_factory=list)     # s per set-up repetition
    attempted: int = 0
    failed: int = 0
    vm_s: float = 0.0       # vm side of the differential work
    oracle_s: float = 0.0   # reference side of the same work

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _stream_rng(name: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{rnd}")


# ------------------------------------------------------ program workloads

class ProgramWorkload:
    """One program and a closed-loop stream of requests of one kind.

    The timed section runs rounds.  Each round sets up afresh (generate,
    compile, load, run `main`, prime, warm up: the set-up samples) and then
    sends up to `round_requests` timed requests.  Set-up samples are thus
    spread over the run like the requests, and fresh machines keep the
    retained trace, and so memory, independent of how many requests fit."""

    def __init__(self, name: str, program, round_requests: int,
                 trace_requests: int):
        self.name = name
        self.program = program
        self.round_requests = round_requests
        self.trace_requests = trace_requests

    @staticmethod
    def run_path(src: str, res: Result):
        """The vm route of `declc run`, timed: compile, load, `main`."""
        t0 = clock()
        gen, info = vm.compile_source(src)
        t1 = clock()
        m = vm.Machine(gen, info).load()
        t2 = clock()
        m.call_function("main", [])
        t3 = clock()
        res.compile.append(t1 - t0)
        res.load.append(t2 - t1)
        res.run.append(t3 - t0)
        return m

    def setup(self, rng, res: Result):
        """One timed set-up; returns the source, the machine and the model
        of its memory."""
        prog = self.program
        t0 = clock()
        src = prog.source()
        calls = prog.prime(rng) + [prog.request(rng)
                                   for _ in range(WARMUP_REQUESTS)]
        m = self.run_path(src, res)
        for driver, arg in calls:
            m.call_function(driver, [arg])
        res.setup.append(clock() - t0)
        mem = prog.initial()
        for driver, arg in prog.main_calls() + calls:
            prog.expect(mem, driver, arg)
        res.record(m.memory_snapshot() == mem, "memory after set-up")
        return src, m, mem

    def requests(self, m, mem: dict, rng, res: Result, limit: int,
                 deadline=None, tracer=None):
        """Up to `limit` timed requests, memory checked after each."""
        prog = self.program
        for n in range(limit):
            if deadline is not None and n and clock() >= deadline:
                return
            driver, arg = prog.request(rng)
            try:
                with tracer.in_request(n) if tracer else contextlib.nullcontext():
                    t = clock()
                    m.call_function(driver, [arg])
                    res.latency.append(clock() - t)
            except Exception:   # a request that raises is a failed operation
                traceback.print_exc(file=sys.stderr)
                res.record(False, f"{driver}({arg}) raised")
                return
            prog.expect(mem, driver, arg)
            ok = m.memory_snapshot() == mem
            res.record(ok, f"{driver}({arg}): memory differs from the model")
            if not ok:
                return

    def replay(self, src: str, seed: int, res: Result):
        """Run `main`, a few prime requests and a few requests of round 0 on
        a fresh machine and on the reference interpreter, then compare
        traces and memory."""
        rng = _stream_rng(self.name, seed, 0)
        calls = [("main", [])]
        calls += [(d, [a]) for d, a in self.program.prime(rng)[:REPLAY_PRIME]]
        calls += [(d, [a]) for d, a in (self.program.request(rng)
                                        for _ in range(REPLAY_REQUESTS))]
        t0 = clock()
        gen, info = vm.compile_source(src)
        m = vm.Machine(gen, info).load()
        t1 = clock()
        unit = parser.parse_source(src)
        o = oracle.Oracle(unit, checker.check_or_raise(unit))
        o.load()
        t2 = clock()
        res.vm_s += t1 - t0
        res.oracle_s += t2 - t1
        for driver, args in calls:
            t0 = clock()
            m.call_function(driver, args)
            t1 = clock()
            o.call_function(driver, args)
            res.vm_s += t1 - t0
            res.oracle_s += clock() - t1
        dt = oracle.diff_traces(m.trace.events, o.trace.events)
        dm = oracle.diff_memory(m.memory_snapshot(), o.memory_snapshot())
        res.record(dt.ok and dm.ok, f"oracle replay: {dt.message} {dm.message}")

    def measure(self, seed: int, seconds: float) -> Result:
        res = Result()
        deadline = clock() + seconds
        rnd = 0
        while clock() < deadline:
            gc.collect()
            rng = _stream_rng(self.name, seed, rnd)
            src, m, mem = self.setup(rng, res)
            self.requests(m, mem, rng, res, self.round_requests, deadline)
            for _ in range(RUN_PATHS):
                if clock() < deadline:
                    gc.collect()   # a sample starts on a clean heap, as in a fresh process
                    self.run_path(src, res)
            rnd += 1
        self.replay(src, seed, res)
        return res

    def traced(self, seed: int, tracer):
        """Round 0 cut to `trace_requests`, plus the oracle replay: once
        untraced, then once with every layer traced."""
        plain, res = Result(), Result()
        for r, t in ((plain, None), (res, tracer)):
            gc.collect()
            with tracer.installed() if t else contextlib.nullcontext():
                rng = _stream_rng(self.name, seed, 0)
                src, m, mem = self.setup(rng, r)
                self.requests(m, mem, rng, r, self.trace_requests, tracer=t)
                self.replay(src, seed, r)
        return plain, res, program_sizes([src])


# -------------------------------------------------------------- the corpus

class CorpusWorkload:
    """Default-`GenConfig` randgen programs, one request per program: the
    steps of `declc check` (vm route: compile, load, main; reference route:
    parse, check, Oracle load and run; then the trace and memory diffs)."""

    def __init__(self, name: str, trace_requests: int):
        self.name = name
        self.trace_requests = trace_requests

    @staticmethod
    def first_seed(seed: int) -> int:
        return seed * 100_000

    def check_one(self, source: str, res: Result, tracer=None, index=0):
        try:
            with tracer.in_request(index) if tracer else contextlib.nullcontext():
                self._check(source, res)
        except Exception:   # a program that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            res.record(False, "program raised")

    def _check(self, source: str, res: Result):
        t0 = clock()
        gen, info = vm.compile_source(source)
        t1 = clock()
        m = vm.Machine(gen, info).load()
        t2 = clock()
        m.call_function("main", [])
        t3 = clock()
        unit = parser.parse_source(source)
        o = oracle.Oracle(unit, checker.check_or_raise(unit))
        o.load()
        o.run()
        t4 = clock()
        dt = oracle.diff_traces(m.trace.events, o.trace.events)
        dm = oracle.diff_memory(m.memory_snapshot(), o.memory_snapshot())
        res.latency.append(clock() - t0)
        res.compile.append(t1 - t0)
        res.load.append(t2 - t1)
        res.run.append(t3 - t0)
        res.vm_s += t3 - t0
        res.oracle_s += t4 - t3
        res.record(dt.ok and dm.ok, f"divergence: {dt.message} {dm.message}")

    def measure(self, seed: int, seconds: float) -> Result:
        """Rounds of ROUND_PROGRAMS programs; a round's set-up generates
        them."""
        res = Result()
        deadline = clock() + seconds
        k = self.first_seed(seed)
        while clock() < deadline:
            gc.collect()
            t0 = clock()
            sources = [randgen.generate(k + j) for j in range(ROUND_PROGRAMS)]
            res.setup.append(clock() - t0)
            for j, src in enumerate(sources):
                if j and clock() >= deadline:
                    break
                self.check_one(src, res)
            k += ROUND_PROGRAMS
        return res

    def traced(self, seed: int, tracer):
        """The first `trace_requests` programs, untraced then traced."""
        first = self.first_seed(seed)
        sources = [randgen.generate(first + k) for k in range(self.trace_requests)]
        plain, res = Result(), Result()
        for src in sources:
            self.check_one(src, plain)
        gc.collect()
        with tracer.installed():
            for k, src in enumerate(sources):
                self.check_one(src, res, tracer, k)
        return plain, res, program_sizes(sources)


def program_sizes(sources) -> dict[str, float]:
    """Sizes of the compiled programs, mean per program."""
    sizes = dict.fromkeys(["lexer.tokens", "lvgraph.edges", "codegen.functions",
                           "codegen.instrs", "vm.registrations"], 0)
    for src in sources:
        gen, info = vm.compile_source(src)
        sizes["lexer.tokens"] += len(tokenize(src))
        sizes["lvgraph.edges"] += len(gen.graph.edges())
        sizes["codegen.functions"] += len(gen.functions)
        sizes["codegen.instrs"] += sum(len(f.instrs) for f in gen.functions.values())
        sizes["vm.registrations"] += vm.Machine(gen, info).load().registration_count()
    return {k: v / len(sources) for k, v in sizes.items()}


def make(name: str):
    """The workloads at their benchmark sizes."""
    if name == "chain":
        return ProgramWorkload(name, ChainProgram(8, 40), 200, 100)
    if name.startswith("rebind."):
        kind = name.split(".", 1)[1]
        sizes = {"value": (150, 60), "retarget": (300, 150), "method": (1000, 500)}
        if kind in sizes:
            return ProgramWorkload(name, RebindProgram(kind, 64, 8), *sizes[kind])
    if name == "corpus":
        return CorpusWorkload(name, 60)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ["chain", "rebind.value", "rebind.retarget", "rebind.method", "corpus"]
