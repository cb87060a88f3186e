"""Print one hash of what the vm does, to compare two checkouts.

    python tests/same_behaviour.py

Stdlib only; it imports this checkout's `declc` and `perfbench/workloads.py`.
For each `randgen` program of seeds 0-799, under the default and the
class-heavy `GenConfig` of `tests/test_differential.py`, it loads the
program on the vm, runs `main` and tears the machine down.  Then it loads
the `rebind.retarget` program of the benchmark, runs `main`, its prime
requests and 300 `retarget` requests of a fixed stream, and tears it down.
The hash covers, per program: every trace event as JSON, the final memory,
the fault text of the run and of the teardown (if any), and
`registration_count` after the teardown.  Two checkouts that print the same
hash did the same on all of them.  The exit status is 0: this is a report,
not a gate.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from declc import trace as tr  # noqa: E402
from declc.errors import RuntimeFault  # noqa: E402
from declc.randgen import GenConfig, generate  # noqa: E402
from declc.vm import Machine, compile_source  # noqa: E402

SEEDS = range(800)
CLASS_HEAVY = GenConfig(max_constraints=10, max_monitors=5, max_preconds=4,
                        max_writes=60, class_prob=0.6)  # as in test_differential.py
RETARGET_REQUESTS = 300


def _fault(run) -> str:
    try:
        run()
    except RuntimeFault as f:
        return str(f)
    return ""


def behaviour(source: str, calls) -> list[str]:
    """The lines one program contributes to the hash: `calls` are
    (function, args) pairs run after `main`."""
    m = Machine(*compile_source(source), tr.TraceSink())

    def run():
        m.load()
        m.call_function("main", [])
        for fn, args in calls:
            m.call_function(fn, args)

    fault = _fault(run)
    lines = [e.to_json() for e in m.trace.events]
    lines += [f"{k}={v}" for k, v in sorted(m.memory_snapshot().items())]
    lines += [f"fault:{fault}", f"teardown:{_fault(m.teardown)}",
              f"registrations:{m.registration_count()}"]
    return lines


def main() -> int:
    import workloads

    h = hashlib.sha256()
    for config in (None, CLASS_HEAVY):
        for seed in SEEDS:
            for line in behaviour(generate(seed, config), ()):
                h.update(line.encode() + b"\n")
    program, rng = workloads.RebindProgram("retarget"), random.Random(0)
    calls = program.prime(rng) + [program.request(rng) for _ in range(RETARGET_REQUESTS)]
    for line in behaviour(program.source(), [(fn, [v]) for fn, v in calls]):
        h.update(line.encode() + b"\n")
    print(f"same-behaviour hash {h.hexdigest()[:16]} ({2 * len(SEEDS)} randgen programs, "
          f"rebind.retarget with {RETARGET_REQUESTS} requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
