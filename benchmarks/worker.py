"""One benchmark process: set up a workload, then run passes over its ops.

Started by run.py, never by hand.  It prints ``READY <monotonic time>`` once
set-up (import and input generation) is done, so the parent can time
set-up from process start, then one ``RESULT <json>`` line and exits.

Modes:
  setup    set up, then exit
  plain    run passes until --seconds have gone by since the first op,
           at most --max-passes of them (0: no limit)
  inproc   one pass; cli commands call cli.main in this process
  traced   like inproc, with every layer's public functions traced
  sample   cli only: one pass over every fourth command, verify left out
           (its process start is a negligible share of its time)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True,
                   choices=["setup", "plain", "inproc", "traced", "sample"])
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--max-passes", type=int, default=0)
    return p.parse_args(argv)


def _setup(args) -> list[list[wl.Op]]:
    "Import the package and build every pass's ops; returns the op lists."
    import char2orbits.cli  # noqa: F401  (every workload pays the full import)
    if args.workload == "census":
        return [wl.census_ops()]
    if args.workload == "classify":
        return wl.classify_inputs(args.seed)
    work = wl.WORK / f"seed{args.seed}"
    wl.write_cli_inputs(args.seed, work)
    cmds = wl.cli_commands(work)
    if args.mode == "sample":
        cmds = [c for c in cmds if c.argv[0] != "verify"][::4]
    return [wl.cli_ops(cmds, in_process=args.mode in ("inproc", "traced"))]


def _run_pass(ops: list[wl.Op], tracer=None) -> dict:
    records = []
    t_pass = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            res = op.run()
        except Exception as exc:          # a failed op, not a failed run
            res = wl.OpResult(False, type(exc).__name__,
                              f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(op.name, dt)
        records.append([op.name, dt, res.ok, op.malformed, res.reason,
                        res.digest])
    return {"wall_s": time.perf_counter() - t_pass, "ops": records}


def main(argv=None) -> int:
    args = _args(argv)
    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    passes_ops = _setup(args)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        return 0
    out = {"passes": []}
    t_first = time.perf_counter()
    k = 0
    while True:
        out["passes"].append(_run_pass(passes_ops[k % len(passes_ops)], tracer))
        k += 1
        if args.mode != "plain" or k == args.max_passes:
            break
        if time.perf_counter() - t_first >= args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = _trace_report(tracer)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


def _trace_report(t) -> dict:
    ops = t.report("ops")
    return {**ops,
            "setup_layer_self_s": t.report("setup")["layer_self_s"],
            "counts": dict(t.counts),
            "times": dict(t.times),
            "op_checks": t.op_checks}


if __name__ == "__main__":
    sys.exit(main())
