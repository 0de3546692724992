"""Benchmark of polykernel: one workload per run, result as a JSON last line.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; it imports the program from ``src``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the timed calls once untraced and once more with every layer wrapped,
and reports the per-layer metrics.  ``--workload all`` runs every workload
in both modes, each in its own process, and prints every metric.
See perfbench/README.md for the metric definitions.
"""

import os
import sys
import time

START = time.perf_counter()
LOAD_AT_START = os.getloadavg()
import hostspeed  # noqa: E402

PROBE = hostspeed.HostSpeed()
PROBE.start()
# One BLAS thread: the program's matrix products are small, and with the
# interpreter's own thread the run stays within nproc and steadier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

OUT_DIR = ".perfbench"
BUILD_REPEATS = 3
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 50.0)
# A round that runs far longer than expected stops the run mid-round.
LATEST = lambda seconds: 3.0 * seconds + 30.0

E2E_UNITS = {"setup_s": "s", "op_s": "s", "digits": "digits"}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def import_program():
    """Import polykernel from ./src, never from anywhere else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "polykernel", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {src}/polykernel; "
                         "run from the root of a checkout")
    sys.path.insert(0, src)
    import polykernel
    import polykernel.cli
    if not os.path.abspath(polykernel.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported polykernel from {polykernel.__file__}")
    return polykernel, polykernel.cli


def execute(call, stats, tally) -> None:
    """Run one call, time it, check its output; failures count, never stop."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        result = call.run()
    except Exception:
        tally.failed += 1
        print(f"perfbench: {call.kind} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return
    stats[call.kind].append((t0, time.perf_counter()))
    try:
        call.check(result)
    except CheckFailed as exc:
        tally.failed += 1
        print(f"perfbench: {call.kind} failed its check: {exc}", file=sys.stderr)


def timed_segment(workload, seconds, stats, tally, tracer=None, rounds=None):
    """Run whole rounds 0, 1, ... and then the workload's closing calls.

    Stops at the end of a round once ``seconds`` have passed, so every kind
    of call has as many samples as rounds ran, or mid-round after
    LATEST(seconds); with ``rounds`` set, runs exactly that many rounds
    instead.  Returns (rounds, wall seconds).
    """
    t0 = time.perf_counter()
    i = 0
    while rounds is None or i < rounds:
        for call in workload.round(i):
            if tracer is not None:
                tracer.op = i
            execute(call, stats, tally)
            if rounds is None and time.perf_counter() - t0 >= LATEST(seconds):
                break
        i += 1
        elapsed = time.perf_counter() - t0
        if rounds is None and elapsed >= seconds:
            break
    for call in workload.finish():
        execute(call, stats, tally)
    return i, time.perf_counter() - t0


def op_seconds(workload, stats) -> float:
    """One round's time: each call's median scaled latency times its count."""
    return sum(count * statistics.median(PROBE.scaled(*span) for span in stats[kind])
               for kind, count in workload.per_round().items() if stats[kind])


def durations(stats) -> dict:
    return {kind: [t1 - t0 for t0, t1 in runs] for kind, runs in stats.items()}


def tail(samples):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    for pct in PERCENTILES:
        beyond = len(ordered) * (1.0 - pct / 100.0)
        if beyond >= 10.0 or pct == PERCENTILES[-1]:
            index = min(len(ordered) - 1, int(math.ceil(len(ordered) * pct / 100.0)) - 1)
            return pct, ordered[max(index, 0)]


def call_latencies(stats) -> dict:
    """Latencies of the calls the eval and sample workloads time one by one."""
    stats = durations(stats)
    out = {}
    pair = stats.get("pair", [])
    pct, value = tail(pair) if pair else (0.0, 0.0)
    med = lambda kind: statistics.median(stats[kind]) if stats.get(kind) else 0.0
    inverse = lambda x, scale=1.0: scale / x if x else 0.0
    out["kernel.pair_p50_ms"] = 1e3 * med("pair")
    out["kernel.pair_tail_ms"] = 1e3 * value
    out["kernel.pair_tail_pct"] = pct
    out["kernel.pair_calls"] = len(pair)
    out["kernel.intensity_pts_s"] = inverse(med("intensity"), 10_000)
    out["kernel.kpoint_ms"] = 1e3 * med("kpoint")
    out["kernel.joint_ms"] = 1e3 * med("joint")
    out["kernel.residual_ms"] = 1e3 * med("residual")
    out["sampling.cfg40_per_s"] = inverse(med("cfg40"), 10)
    out["sampling.cfg120_per_s"] = inverse(med("cfg120"))
    return out


def traced_run(workload, seconds, tally, path):
    """Untraced half, then the same calls traced; per-layer metrics."""
    untraced = defaultdict(list)
    rounds, plain_wall = timed_segment(workload, seconds / 2.0, untraced, tally)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.active = True
        root = tracer.begin("bench.segment", spans.BENCH_LAYER)
        timed_segment(workload, 0.0, defaultdict(list), tally, tracer, rounds)
        tracer.end(root)
        tracer.active = False
    finally:
        uninstall()
    tracer.write(path)
    metrics = spans.layer_metrics(tracer.spans)
    wall = tracer.spans[root].end - tracer.spans[root].start
    accounted = sum(spans.layer_self_times(tracer.spans).values())
    tally.attempted += 1
    if abs(accounted - wall) > 1e-9 * max(wall, 1.0):
        tally.failed += 1
        print(f"perfbench: self times sum to {accounted!r} s, traced wall {wall!r} s",
              file=sys.stderr)
    metrics["kernel.trace_misses"] = sum(
        1 for s in tracer.spans
        if s.name == "kernel.KernelEvaluator.total_intensity"
        and s.attrs and s.attrs.get("defect", 0.0) > 1e-8)
    metrics["kernel.hermitian_defect"] = max(workload.hermitian, default=0.0)
    metrics["bench.traced_wall_s"] = wall
    metrics["bench.trace_overhead_s"] = wall - plain_wall
    metrics.update(call_latencies(untraced))
    return metrics


def run_one(args) -> int:
    pk, cli = import_program()
    imported = time.perf_counter()
    scratch = os.path.join(OUT_DIR, f"scratch-{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tally = Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](pk, cli, args.seed, scratch)
        builds = []
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            workload.build()
            builds.append((t0, time.perf_counter()))
        t0 = time.perf_counter()
        workload.prepare()
        warmup = defaultdict(list)
        for call in workload.round(0):  # untimed first call of every timed call
            execute(call, warmup, tally)
        setup = {"import": (START, imported), "builds": builds,
                 "warmup": (t0, time.perf_counter())}
        for call in workload.untimed():
            execute(call, defaultdict(list), tally)
        if args.trace:
            PROBE.stop()
            path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            metrics = traced_run(workload, args.seconds, tally, path)
            units = LAYER_UNITS
        else:
            stats = defaultdict(list)
            timed_segment(workload, args.seconds, stats, tally)
            PROBE.stop()
            setup_s = (PROBE.scaled(*setup["import"]) + PROBE.scaled(*setup["warmup"])
                       + statistics.median(PROBE.scaled(*b) for b in builds))
            metrics = {"setup_s": setup_s, "op_s": op_seconds(workload, stats),
                       "digits": workload.digits()}
            units = E2E_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    raw = {"import_s": imported - START, "builds_s": [t1 - t0 for t0, t1 in builds],
           "warmup_s": setup["warmup"][1] - setup["warmup"][0]}
    if not args.trace:
        raw["calls_ms"] = {k: [round(1e3 * x, 3) for x in v]
                           for k, v in durations(stats).items()}
        raw["probe_us"] = {"min": 1e6 * min(PROBE.seconds),
                           "median": 1e6 * statistics.median(PROBE.seconds)}
    env = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "loadavg_at_start": list(LOAD_AT_START),
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "env": env, "raw": raw}))
    for name, value in metrics.items():
        print(f"{args.workload:>7} {name:<32} {value:>14.6g} {units[name]}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{name:>7} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"{name:>7} {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    return 0 if ok else 1


LAYER_UNITS = {
    "weights.self_s": "s",
    "quadrature.moments": "count",
    "quadrature.self_s": "s",
    "quadrature.ms_per_moment": "ms",
    "kernel.builds": "count",
    "kernel.factor_self_s": "s",
    "kernel.escalations": "count",
    "kernel.escalation_s": "s",
    "kernel.max_block_cond": "ratio",
    "kernel.eval_calls": "count",
    "kernel.eval_points": "count",
    "kernel.eval_self_s": "s",
    "kernel.ns_per_point_block": "ns",
    "kernel.trace_defect": "abs",
    "kernel.trace_misses": "count",
    "kernel.reproducing_residual": "abs",
    "kernel.hermitian_defect": "rel",
    "kernel.pair_p50_ms": "ms",
    "kernel.pair_tail_ms": "ms",
    "kernel.pair_tail_pct": "%",
    "kernel.pair_calls": "count",
    "kernel.intensity_pts_s": "points/s",
    "kernel.kpoint_ms": "ms",
    "kernel.joint_ms": "ms",
    "kernel.residual_ms": "ms",
    "localexpansion.self_s": "s",
    "asymptotics.self_s": "s",
    "sampling.self_s": "s",
    "sampling.configs": "count",
    "sampling.proposals_per_config": "count",
    "sampling.accept_ratio": "ratio",
    "sampling.s_per_config": "s",
    "sampling.cfg40_per_s": "configs/s",
    "sampling.cfg120_per_s": "configs/s",
    "sampling.validate_s": "s",
    "sampling.max_standardized": "sigma",
    "reporting.bytes": "bytes",
    "reporting.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        if args.workload == "all":
            PROBE.stop()
            return run_all(args)
        return run_one(args)
    finally:
        PROBE.stop()


if __name__ == "__main__":
    sys.exit(main())
