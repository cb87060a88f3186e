"""Benchmark of declc: closed-loop requests against lowered HybridC programs.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

Workloads: chain, rebind.value, rebind.retarget, rebind.method, corpus (see
perfbench/README.md).  `--trace 0` measures for `--seconds` with tracing off
and reports the end-to-end metrics; `--trace 1` runs a fixed request stream
once untraced and once with spans around every layer, reports the per-layer
metrics and the tracing overhead, and writes the spans to perfbench/out/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def quantile(samples, q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(res) -> dict:
    lat = res.latency
    return {
        "req_p90_us": (quantile(lat, 90) * 1e6, "us"),
        "compile_p90_ms": (quantile(res.compile, 90) * 1e3, "ms"),
        "load_p90_ms": (quantile(res.load, 90) * 1e3, "ms"),
        "run_p90_ms": (quantile(res.run, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "setup_s": (statistics.median(res.setup), "s"),
    }


SELF_MS = [
    "runtime.resolve", "runtime.fire", "vm.run_genfn", "runtime.handle",
    "runtime.before_change", "runtime.after_change", "vm.store", "trace.emit",
    "lexer", "parser", "checker", "lvgraph", "codegen", "vm.load",
    "oracle.load", "oracle.run", "oracle.react", "oracle.diff",
]
EVENT_COUNTS = {
    "trace.installs": "Install", "trace.cancels": "Cancel",
    "trace.applied": "ConstraintApplied", "trace.monitors": "MonitorFired",
    "trace.preconds": "PrecondEval", "trace.guards": "GuardEval",
    "trace.dormant": "Dormant", "trace.warnings": "Warning",
}


def per_layer(tracer, plain, res, sizes) -> dict:
    n = len(res.latency)
    calls = tracer.calls
    self_ms = tracer.self_ms()
    out = {f"{name}.self_ms": (self_ms.get(name, 0.0), "ms") for name in SELF_MS}
    out.update({
        "runtime.resolve.calls": (calls["runtime.resolve"], "count"),
        "runtime.fire.calls": (calls["runtime.fire"], "count"),
        "runtime.fire.applied_ratio": (
            tracer.events["ConstraintApplied"] / max(calls["runtime.fire"], 1),
            "ratio"),
        "vm.run_genfn.calls_per_write": (calls["vm.run_genfn"] / n, "count"),
        "runtime.handle.calls": (calls["runtime.handle"], "count"),
        "vm.lv_cell.calls_per_write": (calls["vm.lv_cell"] / n, "count"),
        "runtime.object.calls": (calls["runtime.object"], "count"),
        "vm.store.calls_per_write": (calls["vm.store"] / n, "count"),
        "vm.store.max_depth": (tracer.max_depth("vm.store"), "count"),
        "trace.events_per_write": (calls["trace.emit"] / n, "count"),
        "oracle.vm_ratio": (plain.oracle_s / plain.vm_s, "ratio"),
        "trace.overhead": (sum(res.latency) / sum(plain.latency), "ratio"),
        "requests": (n, "count"),
    })
    out.update({name: (tracer.events[kind], "count")
                for name, kind in EVENT_COUNTS.items()})
    out.update({name: (v, "count") for name, v in sizes.items()})
    return out


def loop_shares(tracer) -> str:
    """Self time inside requests per layer, as shares of request time."""
    inside = tracer.self_ms(requests_only=True)
    total = sum(inside.values())
    parts = sorted(inside.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in parts if v > 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "declc", "__init__.py")):
        print(f"declc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads
    from spans import Tracer

    try:
        wl = workloads.make(args.workload)
    except ValueError as e:
        ap.error(str(e))

    if args.trace:
        tracer = Tracer()
        plain, res, sizes = wl.traced(args.seed, tracer)
        metrics = per_layer(tracer, plain, res, sizes)
        attempted = plain.attempted + res.attempted
        failed = plain.failed + res.failed
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"{args.workload} seed {args.seed}: {len(res.latency)} traced "
              f"requests, {len(tracer.names)} spans written to {path}")
        print(f"self time inside requests: {loop_shares(tracer)}")
    else:
        res = wl.measure(args.seed, args.seconds)
        metrics = end_to_end(res)
        attempted, failed = res.attempted, res.failed
        print(f"{args.workload} seed {args.seed}: {len(res.latency)} timed "
              f"requests, {len(res.setup)} set-ups, {len(res.compile)} "
              f"compile/load/run samples, fail_ratio {failed / max(attempted, 1)}")
        print("  medians: " + ", ".join(
            f"{k} {statistics.median(v) * 1e3:.4g} ms" for k, v in
            (("request", res.latency), ("compile", res.compile),
             ("load", res.load), ("run", res.run)))
            + f"; {len(res.latency) / sum(res.latency):.4g} requests/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
