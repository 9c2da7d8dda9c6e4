"""Run one mapcalc benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0

The program is imported from src/ of the checkout this file sits in.  Set-up
(import mapcalc, then build the workload's inputs from the seed) runs
SETUP_REPS times and setup_s is its median.  With --trace 0 the pool is
swept in whole passes for about --seconds, and the end-to-end metrics are
printed.  Every end-to-end time is in reference seconds: wall time scaled
by the pace of a fixed reference loop that runs every 25 ms (pace.py).
With --trace 1 the pool is swept untraced, then with a span around every
public library function, then untraced again, and the per-layer metrics
are printed, in wall seconds; the spans go to bench/out/.  Metric names and
units come from BENCHMARK.json.  Every output is checked outside the timed region; the last
stdout line is {"correct", "attempted", "failed", "metrics"} and the exit
code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from pace import Pacer
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7
SPAN_ALIASES = {"search.enumerate": "search.enumerate_maps"}


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_mapcalc():
    """Import mapcalc afresh from this checkout's src/."""
    for key in [k for k in sys.modules if k == "mapcalc" or k.startswith("mapcalc.")]:
        del sys.modules[key]
    lib = importlib.import_module("mapcalc")
    if Path(lib.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"mapcalc imported from {lib.__file__}, not from {ROOT / 'src'}")
    return lib


def setup(workload, seed: int):
    spans = []
    with Pacer() as pacer:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            lib = import_mapcalc()
            inputs = workload.build(lib, seed)
            spans.append((t0, time.perf_counter()))
    return statistics.median(pacer.convert(*span)[1] for span in spans), lib, inputs


class Sweep:
    """What a sweep keeps.  Outputs are checked pass by pass and dropped,
    except the first pass's, which every later pass must repeat; so memory
    does not grow with the number of passes.  Per pass, `walls` sums the
    items' wall seconds and `paced` their recorded seconds (reference
    seconds in a paced sweep); `times` holds each item's recorded seconds."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.times: dict[object, list[float]] = {}
        self.walls: list[float] = []
        self.paced: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.solved = 0
        self.candidates = 0

    def add_pass(self, workload, lib, inputs, records, wall: float) -> None:
        self.walls.append(wall)
        self.paced.append(sum(dt for _, dt, _ in records))
        bad = workload.check(lib, inputs, records)
        if self.reference is None:
            self.reference = {key: out for key, _, out in records}
        for i, (key, dt, out) in enumerate(records):
            self.times.setdefault(key, []).append(dt)
            if i not in bad and out != self.reference.get(key):
                bad[i] = f"item {key}: output differs from the first pass"
            if i in bad:
                self.failures.append(bad[i])
            else:
                self.solved += workload.solved(out)
                self.candidates += workload.candidates(out)
        self.attempted += len(records)


def sweep(workload, lib, inputs, seconds: float, tracer: Tracer | None = None,
          reference: dict | None = None, paced: bool = True) -> Sweep:
    """Whole passes over the pool: as many as fit in `seconds` at the first
    pass's pace, rounded, and at least one.  Only the items are timed, in
    reference seconds under a Pacer if `paced`, else in wall seconds.  Only
    run_pass is traced when a tracer is given."""
    result = Sweep(reference)
    call = tracer.item if tracer else lambda fn, *args: fn(*args)
    passes = 1
    while len(result.walls) < passes:
        spans = []
        undo = tracer.install() if tracer else []
        try:
            t0 = time.perf_counter()
            with Pacer() if paced else contextlib.nullcontext() as pacer:
                workload.run_pass(lib, inputs, call,
                                  lambda key, start, end, out: spans.append((key, start, end, out)))
            elapsed = time.perf_counter() - t0
        finally:
            Tracer.uninstall(undo)
        records, wall = [], 0.0
        for key, start, end, out in spans:
            dt, ref_s = pacer.convert(start, end) if pacer else (end - start,) * 2
            records.append((key, ref_s, out))
            wall += dt
        result.add_pass(workload, lib, inputs, records, wall)
        if len(result.walls) == 1:
            passes = max(1, round(seconds / elapsed))
    return result


def median_hd(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all values
    in order, the weights being the Beta((n+1)/2, (n+1)/2) probability of
    each rank's slice of [0, 1], here in its normal approximation.  Unlike
    the middle value alone, it does not jump when values near the middle
    trade places."""
    ordered = sorted(values)
    n = len(ordered)
    dist = statistics.NormalDist(0.5, 0.5 / math.sqrt(n + 2))
    cdf = [dist.cdf(i / n) for i in range(n + 1)]
    weights = [b - a for a, b in zip(cdf, cdf[1:])]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 values beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def end_to_end(run: Sweep, setup_s: float) -> tuple[dict, dict]:
    """An item's time is its median over the run's passes; items_per_s is
    the median over passes of items / the pass's summed item times.  All
    times are in reference seconds."""
    times = [statistics.median(v) for v in run.times.values()]
    percentile, tail_s = tail(times)
    values = {
        "setup_s": setup_s,
        "items_per_s": run.attempted / len(run.paced) / statistics.median(run.paced),
        "item_p50_s": median_hd(times),
        "item_tail_s": tail_s,
        "solved_frac": run.solved / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"items": len(times), "passes": len(run.walls), "tail_percentile": percentile,
             "fail_frac": len(run.failures) / run.attempted, "pass_wall_s": run.walls,
             "pass_ref_s": run.paced}
    return values, notes


def per_layer(names, tracer: Tracer, traced: Sweep, before: Sweep, after: Sweep) -> dict:
    """From one traced pass between two untraced passes over the same pool;
    the untraced figures average the two, which cancels a steady drift of
    the machine's speed."""
    totals = tracer.totals()
    items = traced.attempted
    t_wall = traced.walls[0]
    u_wall = (before.walls[0] + after.walls[0]) / 2
    values = {}
    for name in names:
        layer, _, rest = name.partition(".")
        if name == "trace.overhead_frac":
            values[name] = (t_wall - u_wall) / u_wall
        elif name == "search.candidates_per_item":
            values[name] = traced.candidates / items
        elif name == "search.candidates_per_s":
            values[name] = (before.candidates + after.candidates) / (2 * u_wall)
        elif rest == "self_frac" and layer in LAYERS:
            values[name] = sum(s for span, (_, s) in totals.items()
                               if span.startswith(layer + ".")) / t_wall
        else:
            fn, _, stat = name.rpartition(".")
            span = SPAN_ALIASES.get(fn, fn)
            if span not in tracer.names:
                print(f"warning: no traced function {span}; {name} reads 0", file=sys.stderr)
            calls, self_s = totals.get(span, (0, 0.0))
            values[name] = {"calls_per_item": calls, "self_s_per_item": self_s}[stat] / items
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    env = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "commit": git_commit(),
           "python": platform.python_version(), "cpu": cpu_model(),
           "nproc": len(os.sched_getaffinity(0))}
    sys.path.insert(0, str(ROOT / "src"))
    try:
        setup_s, lib, inputs = setup(workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import mapcalc: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": env}))

    if args.trace:
        # Wall seconds throughout: a Pacer's slices would land in the spans.
        before = sweep(workload, lib, inputs, 0, paced=False)
        tracer = Tracer()
        traced = sweep(workload, lib, inputs, 0, tracer, before.reference, paced=False)
        after = sweep(workload, lib, inputs, 0, reference=before.reference, paced=False)
        metrics = spec["per_layer"]
        values = per_layer([m["name"] for m in metrics], tracer, traced, before, after)
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{workload.name}-seed{args.seed}.spans"
        tracer.write(spans_path, {"environment": env, "items": traced.attempted,
                                  "traced_wall_s": traced.walls[0],
                                  "untraced_wall_s": [before.walls[0], after.walls[0]]})
        failures = before.failures + traced.failures + after.failures
        attempted = before.attempted + traced.attempted + after.attempted
        notes = {"items": traced.attempted, "spans": len(tracer.start),
                 "spans_file": str(spans_path.relative_to(ROOT)),
                 "fail_frac": len(failures) / attempted}
    else:
        run = sweep(workload, lib, inputs, args.seconds)
        metrics = spec["end_to_end"]
        values, notes = end_to_end(run, setup_s)
        failures, attempted = run.failures, run.attempted

    for message in failures[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    for m in metrics:
        print(f"{m['name']:36} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"run": notes}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
