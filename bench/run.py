"""k3cone benchmark: run one workload and print its result as JSON.

    python3 bench/run.py --workload chamber --seed 1 --seconds 15 --trace 0

Workloads: chamber, walks, domains, cli (see README.md).  The run sets up
(imports, inputs, per-lattice preparation), then runs whole rounds of
operations until ``--seconds`` have passed, checking every output with the
independent checkers.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
result is also written to ``bench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import checkers as ck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 3  # set-ups per run (this process and two fresh ones); the median is reported
WORKLOAD_NAMES = ("chamber", "walks", "domains", "cli")
REFERENCE_SPEED_S = 0.0075  # machine_speed() at which reported times are real seconds
SPEED_EVERY_S = 0.2  # operation wall time between two machine_speed measurements
LAYER_COUNTS = (  # per-layer counters reported as they are (see layertrace.py)
    "enumeration.degrees_scanned", "enumeration.vectors_returned",
    "cones.normals_in", "cones.facets_out", "weyl.nef_tests", "weyl.walk_steps",
    "sterk.orbit_points", "sterk.reductions", "sterk.translates",
    "groups.descend_steps", "orbits.classes_reduced", "orbits.merge_pairs",
    "problem.nef_walls_calls", "lattice.pairings",
)


def _cpu_so_far() -> float:
    """CPU seconds of this process and its reaped children since they started."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup_in_fresh_process(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("a set-up process failed")
    return usage.ru_utime + usage.ru_stime


def machine_speed() -> float:
    """Seconds of CPU a fixed pure-Python loop (fractions, tuples, a dict)
    takes now, the median of three tries: this VM's speed drifts by 20 % and
    more within seconds, and the loop slows with it."""
    tries = []
    for _ in range(3):
        start = time.process_time()
        acc, table = Fraction(0), {}
        for i in range(1, 1500):
            acc += Fraction(i % 97, i % 89 + 1)
            table[(i * 7919) % 1009] = tuple((i * j) % 13 for j in range(5))
        tries.append(time.process_time() - start)
    return statistics.median(tries)


class Run:
    """Operations, failures and check results of one run.

    Between operations, about every ``SPEED_EVERY_S`` of operation time, the
    run measures ``machine_speed``; each operation's times are scaled by
    ``REFERENCE_SPEED_S`` over the mean of the measurements just before and
    just after it, i.e. reported in seconds at a fixed machine speed.
    """

    def __init__(self):
        self.rounds = []  # per round: (cpu seconds, wall seconds) of the operations that did not fail, scaled
        self.op_ms = []  # scaled CPU milliseconds of each operation that did not fail
        self.speeds = []  # every machine_speed measurement
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rss_kb = 0

    def round(self, ops, before=None, after=None) -> float:
        """Run and check one round; returns its scaled wall seconds."""
        timings = []  # (cpu, wall, ok, index of the speed measured before)
        self.speeds.append(machine_speed())
        since = 0.0
        for index, op in enumerate(ops):
            self.attempted += 1
            if before is not None:
                before(index)
            try:
                result, cpu, wall, ok = op.execute()
            except Exception:
                print(f"[{op.label}] raised:\n{traceback.format_exc()}", file=sys.stderr)
                result, cpu, wall, ok = None, 0.0, 0.0, False
            if after is not None:
                after(index, op, ok, result)
            timings.append((cpu, wall, ok, len(self.speeds) - 1))
            self.rss_kb = max(self.rss_kb, getattr(op, "rss_kb", 0))
            since += wall
            if since >= SPEED_EVERY_S:
                self.speeds.append(machine_speed())
                since = 0.0
            if not ok:
                self.failed += 1
                if not op.failed_expected:
                    print(f"[{op.label}] failed", file=sys.stderr)
                continue
            try:
                op.check(result)
            except ck.CheckFailure as e:
                self.correct = False
                print(f"[{op.label}] wrong output: {e}", file=sys.stderr)
            except Exception:  # a result the checker cannot read is wrong too
                self.correct = False
                print(f"[{op.label}] unreadable output:\n{traceback.format_exc()}", file=sys.stderr)
        self.speeds.append(machine_speed())
        cpu_total = wall_total = 0.0
        for cpu, wall, ok, at in timings:
            if not ok:  # left out: the cli fault's time is its deadline, not work
                continue
            scale = 2 * REFERENCE_SPEED_S / (self.speeds[at] + self.speeds[at + 1])
            cpu_total += cpu * scale
            wall_total += wall * scale
            self.op_ms.append(cpu * scale * 1000)
        self.rounds.append((cpu_total, wall_total))
        return wall_total

    def rounds_for(self, workload, seconds: float, first: int = 0) -> None:
        """Whole rounds from ``first`` on until ``seconds`` have passed (at least one)."""
        from workloads import Exhausted

        start = time.perf_counter()
        index = first
        while True:
            try:
                ops = workload.round(index)
            except Exhausted:
                if index == first:
                    raise
                return
            self.round(ops)
            index += 1
            if time.perf_counter() - start >= seconds:
                return


def end_to_end(args) -> tuple[Run, dict]:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT)
    setups = [_cpu_so_far()]
    setups += [_setup_in_fresh_process(args) for _ in range(SETUP_RUNS - 1)]
    workload.verify_setup()
    run = Run()
    run.rounds_for(workload, args.seconds)
    if workload.in_process:
        run.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = run.op_ms
    speed = statistics.median(run.speeds)
    scale = REFERENCE_SPEED_S / speed
    print(f"machine speed: the calibration loop took {speed * 1000:.3f} ms CPU (median of "
          f"{len(run.speeds)}); times are scaled to {REFERENCE_SPEED_S * 1000:.1f} ms")
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "wall_s": (statistics.median(w for _, w in run.rounds), "s"),
        "cpu_s": (statistics.median(c for c, _ in run.rounds), "s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1], "ms"),
        "peak_rss_mb": (run.rss_kb / 1024, "MB"),
    }
    return run, metrics


def per_layer(args) -> tuple[Run, dict]:
    """Set-up and round 0 traced, then untraced rounds for the overhead."""
    start = time.perf_counter()
    import k3cone.cli  # noqa: F401 - timed: the import every command pays

    import_s = time.perf_counter() - start
    from layertrace import LAYERS, Tracer, write_spans
    from workloads import WORKLOADS, CliOp

    tracer = Tracer()
    tracer.install()
    workload = WORKLOADS[args.workload](args.seed, OUT)
    workload.verify_setup()
    tracer.reset_figures()
    child_file = OUT / "cli" / "trace.json"
    children = {"import_s": [], "bytes": 0, "traces": []}

    def before(index):
        tracer.op = index

    def after(index, op, ok, result):
        if not isinstance(op, CliOp) or not child_file.exists():
            return
        state = json.loads(child_file.read_text())
        child_file.unlink()
        children["import_s"].append(state["import_s"])
        children["bytes"] += len(result[1].encode()) if ok else 0
        children["traces"].append((index, state))

    if not workload.in_process:
        child_file.parent.mkdir(parents=True, exist_ok=True)
        CliOp.trace_file = child_file
    run = Run()
    try:
        traced_wall = run.round(workload.round(0), before, after)
    finally:
        CliOp.trace_file = None
        tracer.uninstall()
    untraced = Run()
    untraced.rounds_for(workload, args.seconds - (time.perf_counter() - start), first=1)
    untraced_wall = statistics.median(w for _, w in untraced.rounds)
    run.attempted += untraced.attempted
    run.failed += untraced.failed
    run.correct = run.correct and untraced.correct

    layers = Counter(tracer.layer_metrics())
    for _, state in children["traces"]:
        layers.update(state["layers"])
    metrics = {f"{layer}.self_s": (layers[f"{layer}.self_s"], "s") for layer in LAYERS}
    for layer in ("enumeration", "cones", "linalg"):
        metrics[f"{layer}.calls"] = (layers[f"{layer}.spans"], "count")
    for key in LAYER_COUNTS:
        metrics[key] = (layers[key], "count")
    metrics.update({
        "enumeration.repeat_share": (_share(layers["enumeration.repeats"], layers["enumeration.queries"]), "ratio"),
        "cones.facet_yield": (_share(layers["cones.facets_out"], layers["cones.normals_in"]), "ratio"),
        "report.bytes": (children["bytes"], "bytes"),
        "cli.import_s": (statistics.median(children["import_s"] or [import_s]), "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
    })
    overhead = traced_wall / untraced_wall
    print(f"tracing overhead on {args.workload}: traced wall_s {traced_wall:.3f} s / "
          f"untraced wall_s {untraced_wall:.3f} s = {overhead:.2f}x")
    spans = [(None, tracer.state())] if workload.in_process else []
    write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                spans + children["traces"])
    return run, metrics


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a table
    and, as the last line, the results keyed by workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:30} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; the run times this to measure set-up")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "k3cone" / "__init__.py").is_file():
        print(f"error: no k3cone package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, OUT)
        return 0
    run, metrics = (per_layer if args.trace else end_to_end)(args)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
