"""gammares benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload ray_resum --seed 2112 --seconds 30 --trace 0

Single process, single compute thread, one client: each op starts when
the previous one returns.  Ops come from the seeded generators in
workloads.py and every result is checked against oracle.py after the
timed loop.

--trace 0 runs whole rounds of ops until --seconds have passed (and at
least 100 ops ran), then prints the end-to-end metrics.  --trace 1 runs
a fixed number of rounds, set per workload, once untraced and once with
spans around every layer; the results must be bit-identical, and it
prints the per-layer metrics plus the tracing overhead.  Each metric is
printed on its own line with its unit; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  `correct` is false
when an op raised or returned a wrong answer, when the oracle's
self-test disagrees, or when traced results differ from untraced ones.
A workload with a known defect also runs, untimed, a few ops on which
the program is known to fail; those are printed, and count in neither
`failed` nor `correct`.  A record and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array

import bootstrap

DEFAULT_SEED = 2112
MIN_OPS = 100
# fresh interpreters timed before the timed loop, and as many after it
SETUP_PROBES = 7
# ops whose latency and result fit in the storage a Run allocates up front
CAPACITY = 1 << 16
# floats in an op's result: value real, imaginary and est_error
WIDTH = 3
OUT = bootstrap.ROOT / "perfbench" / "out"


class Run:
    """Latencies and results of one pass over ops.  Storage for CAPACITY
    ops is allocated and written before timing starts, so peak_rss_mb does
    not grow with the number of ops a faster program completes."""

    def __init__(self):
        self.latency = array("d", bytes(8 * CAPACITY))
        self.result = array("d", bytes(8 * WIDTH * CAPACITY))
        self.raised = {}  # op index -> (exception type, message)
        self.count = 0
        self.elapsed = 0.0

    def execute(self, workload, op):
        t0 = time.perf_counter()
        try:
            result = workload.execute(op)
        except Exception as exc:  # a raised op is a failed op, recorded by type
            result = (float("nan"),) * WIDTH
            self.raised[self.count] = (type(exc).__name__, str(exc))
        latency = time.perf_counter() - t0
        i = self.count
        if i == len(self.latency):
            self.latency.extend(self.latency)
            self.result.extend(self.result)
        self.latency[i] = latency
        self.result[i * WIDTH:(i + 1) * WIDTH] = array("d", result)
        self.count += 1

    def results(self):
        return [tuple(self.result[i * WIDTH:(i + 1) * WIDTH]) for i in range(self.count)]

    def same_results(self, other: "Run") -> bool:
        n = self.count * WIDTH
        return (self.count == other.count and self.raised == other.raised
                and self.result[:n].tobytes() == other.result[:n].tobytes())


def timed_rounds(workload, rounds, seconds: float, cap: float) -> Run:
    """Whole rounds until `seconds` have passed and MIN_OPS ran; stop
    mid-round only past `cap` seconds."""
    run = Run()
    t0 = time.perf_counter()
    while run.elapsed < seconds or run.count < MIN_OPS:
        for op in next(rounds):
            run.execute(workload, op)
            run.elapsed = time.perf_counter() - t0
            if run.elapsed >= cap:
                return run
    return run


def replay(workload, ops, cap: float = float("inf"), tracer=None) -> Run:
    run = Run()
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op_id = run.count
        run.execute(workload, op)
        run.elapsed = time.perf_counter() - t0
        if run.elapsed >= cap:
            break
    return run


def setup_seconds(workload_name: str) -> list:
    """Set-up times of SETUP_PROBES fresh interpreters."""
    probe = bootstrap.ROOT / "perfbench" / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(probe), workload_name],
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def check(ops, run: Run, oracle_module) -> tuple:
    """Failure counts by reason ('wrong' or the exception type) and by op
    kind, and the oracle."""
    oracle = oracle_module.Oracle()
    by_reason, by_op = {}, {}
    for i, (op, result) in enumerate(zip(ops, run.results())):
        if i in run.raised:
            reason = run.raised[i][0]
        elif oracle_module.is_wrong(op, result, oracle.truth(op)):
            reason = "wrong"
        else:
            continue
        by_reason[reason] = by_reason.get(reason, 0) + 1
        by_op[op.kind] = by_op.get(op.kind, 0) + 1
    return by_reason, by_op, oracle


def defect_probe(workload, seed: int, oracle_module) -> dict:
    """Attempted and failed counts of the workload's untimed known-defect ops."""
    ops = workload.defect_probe(random.Random(seed))
    run = replay(workload, ops)
    by_reason, _, _ = check(ops, run, oracle_module)
    return {"attempted": run.count, "failed": sum(by_reason.values()),
            "failures_by_reason": by_reason}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, failed: int, setup: list, peak_rss_mb: float) -> tuple:
    """Metrics as name -> (value, unit), and notes printed beside them."""
    lat_ms = [1e3 * t for t in run.latency[:run.count]]
    p90 = percentile(lat_ms, 90)
    metrics = {
        "ops_per_s": ((run.count - failed) / run.elapsed, "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "ops_per_s": f"{run.count - failed} passed ops in {run.elapsed:.3f} s",
        "latency_p50_ms": f"n={run.count}",
        "latency_p90_ms": f"n={run.count}, {sum(x > p90 for x in lat_ms)} above",
        "setup_s": f"median of {len(setup)} fresh interpreters: "
                   + " ".join(f"{t:.4f}" for t in setup),
    }
    return metrics, notes


def environment(gammares, oracle_module) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, **oracle_module.versions(),
            "gammares.BACKEND": gammares.BACKEND,
            "threads": {v: os.environ[v] for v in bootstrap.THREAD_VARS}}


def report(record: dict, notes: dict, oracle) -> None:
    print("env " + json.dumps(record["env"]))
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"seconds {record['seconds']:g} trace {record['trace']}: "
          f"attempted {attempted}, failed {failed}")
    print(f"metric fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for reason, count in sorted(record["failures_by_reason"].items()):
        print(f"failures reason={reason} {count}")
    for kind, count in sorted(record["failures_by_op"].items()):
        print(f"failures op={kind} {count}")
    probe = record.get("defect_probe")
    if probe:
        print(f"known-defect probe (untimed, outside `failed`): attempted "
              f"{probe['attempted']}, failed {probe['failed']} "
              + " ".join(f"reason={r}:{n}" for r, n in sorted(probe["failures_by_reason"].items())))
    print(f"oracle self-test worst relative gap {oracle.self_test_worst:.3g}, "
          f"{oracle.self_test_third} points needed a third ray angle")
    for name, m in record["metrics"].items():
        note = notes.get(name)
        print(f"metric {name} {m['value']!r} {m['unit']}" + (f" ({note})" if note else ""))
    for problem in record["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap.prepare()
    import gammares
    import workloads

    bootstrap.check_import(gammares)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setup = [] if args.trace else setup_seconds(workload.name)
    workload.execute(workload.warmup)
    cap = 1.5 * args.seconds
    tracer = None
    if not args.trace:
        run = timed_rounds(workload, workload.rounds(random.Random(args.seed)),
                           args.seconds, cap)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # host speed drifts over minutes; probes on both sides of the timed
        # loop sample it at two times
        setup += setup_seconds(workload.name)
        # the generator is deterministic: the same seed yields the same ops
        ops = list(itertools.islice(itertools.chain.from_iterable(
            workload.rounds(random.Random(args.seed))), run.count))
    else:
        from spans import Tracer, layer_metrics

        rounds = workload.rounds(random.Random(args.seed))
        # one untimed round first, so the untraced pass is not the colder one
        for op in next(rounds):
            with contextlib.suppress(Exception):  # failures count in the passes below
                workload.execute(op)
        ops = [op for _ in range(workload.traced_rounds) for op in next(rounds)]
        run = replay(workload, ops, cap=cap / 2)
        ops = ops[:run.count]
        tracer = Tracer()
        tracer.install()
        try:
            traced = replay(workload, ops, tracer=tracer)
        finally:
            tracer.uninstall()

    # everything below is outside the timed regions; the oracle is imported
    # only now so that peak_rss_mb excludes mpmath and scipy
    import oracle as oracle_module

    by_reason, by_op, oracle = check(ops, run, oracle_module)
    failed = sum(by_reason.values())
    problems = [f"oracle self-test: no two ray angles agree at {f}"
                for f in oracle.self_test_failures]
    if failed:
        problems.append(f"{failed} of {run.count} ops failed: {by_reason}")
    if not args.trace:
        metrics, notes = end_to_end(run, failed, setup, peak_rss_mb)
    else:
        if not run.same_results(traced):
            problems.append("traced results differ from untraced ones")
        metrics = layer_metrics(tracer)
        idle = [name for name in workload.active_layers
                if metrics[f"{name}.calls"][0] == 0]
        if idle:
            raise RuntimeError(f"traced layers recorded no calls: {', '.join(idle)}")
        metrics["trace.overhead"] = (traced.elapsed / run.elapsed - 1.0, "ratio")
        notes = {"trace.overhead": f"traced {traced.elapsed:.3f} s vs "
                                   f"untraced {run.elapsed:.3f} s, same {run.count} ops"}

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(gammares, oracle_module),
              "attempted": run.count, "failed": failed,
              "failures_by_reason": by_reason, "failures_by_op": by_op,
              "problems": problems,
              "defect_probe": (defect_probe(workload, args.seed, oracle_module)
                               if workload.defect_probe and not args.trace else None),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report(record, notes, oracle)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.save(OUT / f"{workload.name}-spans.npz")
    print(json.dumps({"correct": not problems, "attempted": run.count, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
