"""Benchmark for subgraph-sentinel: four workloads, timed end to end and,
in a separate traced run, per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, one line each
    python3 bench/run.py --quick         # toy sizes, every check on

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are end to
end (wall_s, replicates_per_s, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer metrics of one traced round.  Progress and the layer
report go to standard error.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import LAYERS, Tracer, install, layer_metrics
from workloads import WORKLOADS, child_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 5
SETUP_CODE = "from subgraph_sentinel import cli; cli.build_parser()"
IMPORT_CODE = ("import time; t = time.perf_counter(); "
               "import subgraph_sentinel.cli; print(time.perf_counter() - t)")


def fresh_interpreter(code, src):
    """Wall seconds and stdout of one fresh interpreter running code."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(src),
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=60)
    return time.perf_counter() - t0, proc.stdout


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def finish(wl, outputs, round_failures, extra_problems):
    """(correct, attempted, failed) from the failure flags of every round
    and the checks of the first round's outputs."""
    try:
        per_op, whole = wl.check(outputs)
    except Exception:                # output too broken to check
        traceback.print_exc()
        per_op, whole = [], ["the checks raised on this output"]
    whole = list(extra_problems) + whole
    for problem in [p for ops in per_op for p in ops] + whole:
        print(f"{wl.name}: CHECK FAILED: {problem}", file=sys.stderr)
    bad = [bool(p) for p in per_op]
    bad += [False] * (wl.ops - len(bad))
    failed = sum(f or b for flags in round_failures
                 for f, b in zip(flags, bad))
    return not whole, wl.ops * len(round_failures), failed


def measure(wl, seconds):
    """Untraced rounds for `seconds`, then set-up time and the checks."""
    walls, flags, first, extra = [], [], None, []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        flags.append(wl.run_round())
        walls.append(time.perf_counter() - t0)
        out = wl.collect()
        if first is None:
            first = out
        elif out != first:
            extra.append(f"round {len(walls)} output differs from round 1")
        # start another round only if it should end within the budget
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    peak = peak_rss_mb(wl.uses_cli)
    setup = statistics.median(fresh_interpreter(SETUP_CODE, SRC)[0]
                              for _ in range(SETUP_RUNS))
    correct, attempted, failed = finish(wl, first, flags, extra)
    # the first round fills caches and starts BLAS threads: a warm-up,
    # whenever there is a later round to report instead
    wall = statistics.median(walls[1:] or walls)
    print(f"{wl.name}: round walls " + " ".join(f"{w:.3f}" for w in walls),
          file=sys.stderr)
    metrics = {
        "wall_s": (wall, "s"),
        "replicates_per_s": (wl.replicates / wall, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return correct, attempted, failed, metrics


def traced(wl):
    """One untraced and one traced round in this process, serially, plus a
    round with worker processes that only counts pools where the workload
    uses them."""
    from subgraph_sentinel.detectors import DETECTORS

    flags, extra = [], []
    t0 = time.perf_counter()
    flags.append(wl.run_round(in_process=True, workers=1))
    plain = time.perf_counter() - t0
    first = wl.collect()

    tracer = Tracer()
    install(tracer)
    try:
        tracer.begin("bench.round", "bench")
        t0 = time.perf_counter()
        flags.append(wl.run_round(in_process=True, workers=1))
        wall = time.perf_counter() - t0
        tracer.end()
    finally:
        tracer.restore()
    if wl.collect() != first:
        extra.append("traced round output differs from the untraced round")

    pools = Tracer()
    if wl.pool_round:
        install(pools, spans=False)
        try:
            flags.append(wl.run_round(in_process=True))
        finally:
            pools.restore()
        if wl.collect() != first:
            extra.append("round with workers differs from the serial round")

    metrics = layer_metrics(tracer, pools, sorted(DETECTORS))
    imports = [float(fresh_interpreter(IMPORT_CODE, SRC)[1])
               for _ in range(3)] if wl.uses_cli else [0.0]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    overhead = wall - plain
    metrics["trace.overhead_s"] = (overhead, "s")

    selfs = tracer.self_times()
    report = ", ".join(f"{k} {selfs[k]:.3f}" for k in LAYERS if k in selfs)
    top = max((k for k in selfs if k != "bench"), key=selfs.get,
              default="none")
    print(f"{wl.name}: traced {wall:.3f} s, untraced {plain:.3f} s; "
          f"self seconds: {report}; largest {top} "
          f"(expected {wl.dominant})", file=sys.stderr)
    # the layers' self times cover the round, except for the harness's own
    # loop, which the tracing overhead bounds
    unattributed = selfs.get("bench", 0.0)
    if unattributed > max(overhead, 0.0) + 0.02 * wall + 0.02:
        extra.append(f"layer self times leave {unattributed:.3f} s of "
                     f"{wall:.3f} s unattributed")
    correct, attempted, failed = finish(wl, first, flags, extra)
    return correct, attempted, failed, metrics


def run_one(name, args, work):
    wdir = tempfile.mkdtemp(prefix=name + "-", dir=work)
    wl = WORKLOADS[name](args.seed, wdir, SRC, args.quick)
    if args.trace:
        result = traced(wl)
    else:
        result = measure(wl, args.seconds)
    correct, attempted, failed, metrics = result
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes and one round of each workload")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    if not (SRC / "subgraph_sentinel" / "__init__.py").is_file():
        print(f"bench: no package at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    ok = True
    try:
        for name in names:
            result = run_one(name, args, work)
            ok = ok and result["correct"] and not result["failed"]
            if len(names) > 1:
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0 if ok or not args.quick else 1


if __name__ == "__main__":
    sys.exit(main())
