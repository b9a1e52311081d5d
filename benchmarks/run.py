"""Benchmark for char2orbits: oracle census, rational classification, CLI.

    python3 benchmarks/run.py                      # all workloads, untraced
    python3 benchmarks/run.py --trace 1            # per-layer figures
    python3 benchmarks/run.py --workload classify --seed 7 --seconds 25

Each workload runs in worker processes (worker.py), so every set-up is
timed from process start.  The untraced run reports the end-to-end
metrics, the traced run (--trace 1) the per-layer ones.  Human-readable
lines come first; a result file with the environment record goes to
benchmarks/out/; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

An op fails on a wrong answer, an exception, a wrong exit code, a wrong
number of stderr lines or stdout that is not byte-identical to the
golden file.  "correct" is false when an op on well-formed input fails;
failures on the deliberately malformed cli inputs count in "failed" and
error_rate but are a broken exit-code contract, not a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 3       # set-ups timed per untraced run; setup_s is their median
RUN_BUDGET_S = 170.0    # a run must end within 180 s


# Per-layer times that are zero on some workload by construction (no
# census runs in classify, no verify or cli.main outside cli).  They are
# printed and saved, but kept out of the result line, whose times must be
# measured values that vary from run to run.
REPORT_ONLY = frozenset({
    "classical.pairing_vector.self_s", "classical.canonical_rep.self_s",
    "oracle.group.s", "oracle.census.self_s", "oracle.adjoint.s",
    "oracle.classify.s", "centralizers.self_s", "verify.warm.s",
    "verify.check_s", "cli.process_s", "cli.main.self_s"})


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# worker processes


def spawn(workload: str, seed: int, mode: str, deadline: float,
          seconds: float = 0.0, max_passes: int = 0) -> tuple[float, dict]:
    """Run one worker; returns (set-up seconds, its RESULT object or {}).

    Set-up runs from just before the process is started to the monotonic
    time the worker stamps on its READY line.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--max-passes", str(max_passes)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker ran out of time")
    setup_s, result = None, {}
    for line in out.splitlines():
        if line.startswith("READY "):
            setup_s = float(line.split()[1]) - t0
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or setup_s is None or (mode != "setup" and not result):
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    return setup_s, result


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics


def quantile(values: list[float], p: int) -> float:
    "The p-th percentile, linear between order statistics (inclusive method)."
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_untraced(workload: str, seed: int, seconds: float,
                 deadline: float) -> dict:
    setups, passes, peaks = [], [], []
    if workload == "census":
        # a fresh interpreter per pass: the group build is paid every time
        t_first = None
        while True:
            s, res = spawn(workload, seed, "plain", deadline, max_passes=1)
            setups.append(s)
            passes += res["passes"]
            peaks.append(res["peak_rss_mb"])
            t_first = t_first or time.monotonic() - res["passes"][0]["wall_s"]
            if time.monotonic() - t_first >= seconds:
                break
    else:
        s, res = spawn(workload, seed, "plain", deadline, seconds=seconds)
        setups.append(s)
        passes += res["passes"]
        peaks.append(res["peak_rss_mb"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline)[0])

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op[2]]
    if workload == "census":
        # Every pass repeats the same eight fixed ops, so an op's latency is
        # its mean over the run's passes and the percentiles are taken over
        # the ops.  Pooled samples would put the median on the two short
        # F_4 censuses alone, and a 60 ms op lands wholly inside one of the
        # host's fast or slow spells, so their median jumps between the two.
        lat = [statistics.fmean(v) for v in _by_op(passes).values()]
    else:
        lat = [op[1] for op in ops]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (quantile(lat, 90), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(peaks), "MB"),
    }
    res = {
        "workload": workload,
        "trace": 0,
        "metrics": metrics,
        "error_rate": len(failed) / len(ops),
        "attempted": len(ops),
        "failed": len(failed),
        "wrong": sum(1 for op in failed if not op[3]),
        "failed_ops": sorted({f"{op[0]}: {op[4]}" for op in failed}),
        "samples": {"passes": len(passes), "ops": len(lat),
                    "beyond_p90": sum(x > metrics["op_p90_s"][0] for x in lat),
                    "setups": len(setups)},
        "setup_samples_s": setups,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "per_op_s": {k: statistics.median(v)
                     for k, v in _by_op(passes).items()},
    }
    if workload == "classify":
        res["slowest_by_field"] = slowest_by_field(res["per_op_s"])
    return res


def slowest_by_field(per_op: dict) -> dict:
    "For classify: the slowest label over each field, by median seconds."
    out = {}
    for name, sec in per_op.items():
        field = name.split()[1]                    # "q2" or "q4"
        if sec > out.get(field, ("", -1.0))[1]:
            out[field] = (name, sec)
    return out


def _by_op(passes: list[dict]) -> dict[str, list[float]]:
    "The seconds of each named op over the run's passes."
    by_name: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            by_name.setdefault(op[0], []).append(op[1])
    return by_name


# ----------------------------------------------------------------------
# traced run: per-layer metrics

def run_traced(workload: str, seed: int, deadline: float) -> dict:
    """A traced pass between two untraced passes, each in a fresh worker.

    The untraced passes bracket the traced one so that a drift in machine
    speed cancels from tracing_overhead_s.  For cli every pass calls
    cli.main in-process, so the traced one shows its spans; one more
    worker runs a sample of the commands as subprocesses, for the time a
    command spends outside cli.main.
    """
    inproc = workload == "cli"
    mode = "inproc" if inproc else "plain"
    _, ref = spawn(workload, seed, mode, deadline, max_passes=1)
    _, traced = spawn(workload, seed, "traced", deadline)
    _, ref2 = spawn(workload, seed, mode, deadline, max_passes=1)
    sample = spawn(workload, seed, "sample", deadline)[1] if inproc else None

    p_ref, p_tr, p_ref2 = ref["passes"][0], traced["passes"][0], ref2["passes"][0]
    problems = []
    ref_digest = {op[0]: op[5] for op in p_ref["ops"]}
    for op in p_tr["ops"]:
        if ref_digest.get(op[0]) != op[5]:
            problems.append(f"traced output differs: {op[0]}")
    for name, wall, own in traced["trace"]["op_checks"]:
        if own > wall + 1e-6:
            problems.append(f"span self times exceed op wall: {name}")

    overhead = p_tr["wall_s"] - (p_ref["wall_s"] + p_ref2["wall_s"]) / 2
    metrics = layer_metrics(traced["trace"], p_ref, p_tr,
                            sample["passes"][0] if sample else None, overhead)
    ops = p_ref["ops"] + p_tr["ops"] + p_ref2["ops"]
    failed = [op for op in ops if not op[2]]
    return {
        "workload": workload,
        "trace": 1,
        "metrics": metrics,
        "attempted": len(ops),
        "failed": len(failed),
        "wrong": sum(1 for op in failed if not op[3]) + len(problems),
        "failed_ops": sorted({f"{op[0]}: {op[4]}" for op in failed}),
        "self_check": problems or "ok",
        "pass_walls_s": {"untraced": [p_ref["wall_s"], p_ref2["wall_s"]],
                         "traced": p_tr["wall_s"]},
        "layer_self_s": traced["trace"]["layer_self_s"],
        "setup_layer_self_s": traced["trace"]["setup_layer_self_s"],
        "span_calls": traced["trace"]["calls"],
        "span_self_s": traced["trace"]["self_s"],
    }


def layer_metrics(tr: dict, p_ref: dict, p_tr: dict, p_sample,
                  overhead: float) -> dict:
    "The per-layer table; p_sample is the cli subprocess sample, else None."
    calls, own, counts, times = tr["calls"], tr["self_s"], tr["counts"], tr["times"]
    layer = tr["layer_self_s"]
    n_ops = len(p_tr["ops"])

    def c(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    main_s = {op[0]: op[1] for op in p_ref["ops"]}
    process = [op[1] - main_s[op[0]] for op in p_sample["ops"]] \
        if p_sample else [0.0]
    contract = [op for op in p_ref["ops"] if op[3] and not op[2]] \
        if p_sample else []
    golden = [op for op in p_ref["ops"] if "golden" in op[4]] \
        if p_sample else []
    finds = c("isometry.find_module_map")
    hits = counts.get("isometry.find_module_map.hits", 0)
    walked = c("oracle.coadjoint_orbit")
    candidates = counts.get("oracle.group.candidates", 0)
    rows = [
        ("finite_field.self_s", layer["finite_field"], "s"),
        ("linalg.mat_mul.calls", c("linalg.mat_mul"), "count"),
        ("linalg.mat_mul.self_s", own.get("linalg.mat_mul", 0.0), "s"),
        ("linalg.rref.calls", c("linalg.rref"), "count"),
        ("linalg.rref.self_s", own.get("linalg.rref", 0.0), "s"),
        ("linalg.self_s", layer["linalg"], "s"),
        ("classical.pairing_vector.calls", c("classical.pairing_vector"), "count"),
        ("classical.pairing_vector.self_s",
         own.get("classical.pairing_vector", 0.0), "s"),
        ("classical.canonical_rep.calls", c("classical.canonical_rep"), "count"),
        ("classical.canonical_rep.self_s",
         own.get("classical.canonical_rep", 0.0), "s"),
        ("classical.preserves_form.calls", c("classical.preserves_form"), "count"),
        ("classical.self_s", layer["classical"], "s"),
        ("oracle.group.s", times.get("oracle.group.s", 0.0), "s"),
        ("oracle.group.candidates", candidates, "count"),
        ("oracle.group.yield",
         ratio(counts.get("oracle.group.elements", 0), candidates), "ratio"),
        ("oracle.orbits_walked", walked, "count"),
        ("oracle.nilpotent_yield",
         ratio(counts.get("oracle.nilpotent_orbits", 0), walked), "ratio"),
        ("oracle.points", counts.get("oracle.points", 0), "count"),
        ("oracle.census.self_s", times.get("oracle.census.self_s", 0.0), "s"),
        ("oracle.adjoint.s", times.get("oracle.adjoint.s", 0.0), "s"),
        ("oracle.classify.s", times.get("oracle.classify.s", 0.0), "s"),
        ("form_modules.classify_closed.self_s",
         own.get("form_modules.classify_closed", 0.0), "s"),
        ("form_modules.classify_fq.calls", c("form_modules.classify_fq"), "count"),
        ("form_modules.classify_fq.self_s",
         own.get("form_modules.classify_fq", 0.0), "s"),
        ("form_modules.classify_orth_fq.calls",
         c("form_modules.classify_orth_fq"), "count"),
        ("form_modules.build_normal_form.calls",
         c("form_modules.build_normal_form"), "count"),
        ("form_modules.candidates_per_op", ratio(finds, n_ops), "ratio"),
        ("isometry.find_module_map.calls", finds, "count"),
        ("isometry.find_module_map.hits", hits, "count"),
        ("isometry.hit_ratio", ratio(hits, finds), "ratio"),
        ("isometry.hit_s", times.get("isometry.hit_s", 0.0), "s"),
        ("isometry.miss_s", times.get("isometry.miss_s", 0.0), "s"),
        ("isometry.levels", counts.get("isometry.levels", 0), "count"),
        ("isometry.too_large", counts.get("isometry.too_large", 0), "count"),
        ("odd_split.split.calls", c("odd_split.split_odd_functional"), "count"),
        ("odd_split.split.self_s",
         own.get("odd_split.split_odd_functional", 0.0), "s"),
        ("odd_split.rational_odd_label.self_s",
         own.get("odd_split.rational_odd_label", 0.0), "s"),
        ("odd_split.search_fallbacks", c("odd_split.odd_label_by_search"), "count"),
        ("combinatorics.self_s", layer["combinatorics"], "s"),
        ("centralizers.calls",
         sum(v for k, v in calls.items() if k.startswith("centralizers.")), "count"),
        ("centralizers.self_s", layer["centralizers"], "s"),
        ("verify.checks", counts.get("verify.checks", 0), "count"),
        ("verify.checks_failed", counts.get("verify.checks_failed", 0), "count"),
        ("verify.warm.s", times.get("verify.warm.s", 0.0), "s"),
        ("verify.check_s", times.get("verify.check_s", 0.0), "s"),
        ("cli.process_s", statistics.median(process), "s"),
        ("cli.main.self_s", own.get("cli.main", 0.0), "s"),
        ("cli.contract_failures", len(contract), "count"),
        ("cli.golden_mismatches", len(golden), "count"),
        ("tracing_overhead_s", overhead, "s"),
    ]
    return {name: (value, unit) for name, value, unit in rows}


# ----------------------------------------------------------------------
# reporting


def environment(seed: int) -> dict:
    import numpy
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"seed": seed, "commit": commit,
            "nproc": len(os.sched_getaffinity(0)),
            "os_cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "verify_workers": wl.verify_workers(),
            "machine": platform.machine(),
            "platform": platform.platform()}


def print_report(res: dict) -> None:
    w = res["workload"]
    print(f"== {w} (trace {res['trace']})")
    for name, (value, unit) in res["metrics"].items():
        note = "  (report only)" if name in REPORT_ONLY else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    if res["trace"] == 0:
        s = res["samples"]
        print(f"  {'error_rate':40s} {res['error_rate']:14.6g} ratio "
              f"({res['failed']} of {res['attempted']} ops)")
        how = "each the mean of" if w == "census" else "over"
        print(f"  samples: {s['ops']} op latencies {how} {s['passes']} passes, "
              f"{s['beyond_p90']} beyond p90; {s['setups']} set-ups")
        if w == "census":
            for name, sec in res["per_op_s"].items():
                print(f"  op {name:36s} {sec:14.6g} s")
        if w == "classify":
            for field, (name, sec) in res["slowest_by_field"].items():
                print(f"  slowest {field}: {name} {sec:.6g} s")
    else:
        print(f"  self-check: {res['self_check']}")
    for line in res["failed_ops"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("all",) + wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "char2orbits" / "__init__.py").is_file():
        print("benchmarks/run.py: no package source at src/char2orbits; "
              "run from the root of a char2orbits checkout", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    results = []
    for w in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            if args.trace:
                res = run_traced(w, args.seed, deadline)
            else:
                res = run_untraced(w, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"benchmarks/run.py: {exc}", file=sys.stderr)
            return 1
        print_report(res)
        results.append(res)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {"environment": env, "seconds": args.seconds, "results": results},
        indent=1) + "\n")
    print(f"environment: {json.dumps(env)}")

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, (value, unit) in res["metrics"].items():
            if name not in REPORT_ONLY:
                metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": all(r["wrong"] == 0 for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
