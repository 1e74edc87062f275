"""Run one benchmark workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload pack_delaunay --seed 1 --seconds 25 --trace 0

Run from a source checkout: the library is imported from ./src.  One
client in one process starts each op when the previous one ends, each on a
fresh input generated from the seed, until the timed op seconds reach
--seconds and the current unit of ops is done.  With --trace 0 the last line
of standard output reports the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it reports the per-layer metrics and the spans are written to
perfbench/out/.  Earlier lines describe the environment, the inputs and the
failures by class.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the op is one client on one core, and the pin keeps
# dense linear algebra from competing with it.  Set before numpy loads.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Imports happen once per process; the rest of set-up is repeated this
# many times and its median taken.
SETUP_REPEATS = 3
# Between two ops, the workload's reference loop is timed at least once and
# until the samples add up to this share of the op just ended, so that a
# long op gets as many speed samples per second as a run of short ones.
PROBE_SHARE = 0.1
# op_s_p90 needs ten samples above it.
P90_MIN_SAMPLES = 100


def reference_solve() -> float:
    """A fixed computation in the style of the radius solve.

    Pure Python over a dict of floats with sqrt and acos.  Its run time
    follows the machine's speed, not the library's code.
    """
    radii = {f"v{i:03d}": 0.5 + (i * 37 % 101) / 67.0 for i in range(96)}
    ids = list(radii)
    total = 0.0
    for sweep in range(1000):
        for i, v in enumerate(ids):
            r, ru, rw = radii[v], radii[ids[i - 1]], radii[ids[i - 2]]
            a, b, c = r + ru, r + rw, ru + rw
            total += math.acos((a * a + b * b - c * c) / (2.0 * a * b))
            radii[v] = r * (1.0 + math.sqrt(sweep + 1.0) * 1e-6)
    return total


@dataclass(frozen=True)
class _Relation:
    meets: bool
    d: float


def _relate(a, b) -> _Relation:
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    return _Relation(d <= a[2] + b[2], d)


def reference_pairs() -> int:
    """A fixed computation in the style of the pair analyses.

    A frozen dataclass built for each pair of 220 disks, an n-by-n table of
    lists, and a scan of it for triples.  Calls and allocation weigh more
    here than in reference_solve, and the machine's slow state slows them
    less.
    """
    n = 220
    disks = [((i * 37 % 101) / 10.0, (i * 53 % 97) / 10.0, 0.6) for i in range(n)]
    meets = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            meets[i][j] = _relate(disks[i], disks[j]).meets
    triples = 0
    for i in range(n):
        for j in range(i + 1, n):
            if meets[i][j]:
                for k in range(j + 1, n):
                    triples += meets[i][k] and meets[j][k]
    return triples


# Each workload's reference loop, named by Workload.reference, with its
# seconds on the 2-core VM the benchmark was built on, in its fast state:
# 0.039 s for reference_solve, and for reference_pairs 0.633 times that, the
# ratio of their medians timed side by side.  ops_per_s and setup_s are
# scaled to that speed: see main.
REFERENCES = {"solve": (reference_solve, 0.039), "pairs": (reference_pairs, 0.633 * 0.039)}


def probe_seconds(work) -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def probe_gap(work, after_s: float) -> list:
    """Speed samples taken between two ops, the first of which took after_s."""
    samples = [probe_seconds(work)]
    while sum(samples) < PROBE_SHARE * after_s:
        samples.append(probe_seconds(work))
    return samples


def since_process_start() -> float:
    """Seconds since this process was started, from the kernel's record."""
    stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    start = int(stat[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_op(wl, item, tr):
    """Time one op, then check it; returns (seconds, end, failure, exception, out).

    The check judges whatever the op produced before any raise; only when
    it finds nothing wrong is a raising op classed by its exception.
    """
    out = SimpleNamespace()
    exc = None
    t0 = time.perf_counter()
    try:
        wl.op(item, tr, out)
    except Exception as e:  # the op boundary: a raise is a failed op
        exc = e
    end = time.perf_counter()
    try:
        failure = wl.check(item, out)
    except Exception as e:  # a check that cannot read the output fails the op
        return end - t0, end, f"check.{type(e).__name__}", e, out
    if failure is None and exc is not None:
        failure = f"raise.{tr.last_call}.{type(exc).__name__}"
    return end - t0, end, failure, exc, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diskpack" / "__init__.py").is_file():
        print(f"error: no diskpack sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    import numpy

    import diskpack
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, properties, summarize

    if Path(diskpack.__file__).resolve().parent != SRC / "diskpack":
        print(f"error: imported diskpack from {diskpack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Set-up: the imports above, then the seeded inputs of the first unit
    # and one untimed warm-up op.  The second part runs SETUP_REPEATS times
    # from the same seed and the last run's inputs are kept.  The warm-up
    # input is the same for every seed, so that set-up does the same work
    # in every run.
    import_s = since_process_start()
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        units = wl.units(random.Random(f"{wl.name}/{args.seed}"))
        unit = next(units)
        run_op(wl, wl.warmup(random.Random(f"{wl.name}/warmup")), NullTracer())
        reps.append(time.perf_counter() - t0)

    tr = Tracer() if args.trace else NullTracer()
    latencies = []
    props = []
    failures = Counter()
    first_error = {}
    cli_tol_misses = 0
    work, reference_s = REFERENCES[wl.reference]
    gaps = [probe_gap(work, 0.0)]
    while True:
        for item in unit:
            props.append(properties(item))
            tr.begin_op(len(latencies))
            dt, end, failure, exc, out = run_op(wl, item, tr)
            tr.end_op(end, failure)
            latencies.append(dt)
            gaps.append(probe_gap(work, dt))
            cli_tol_misses += getattr(out, "cli_tol_ok", True) is False
            if failure:
                failures[failure] += 1
                if exc is not None and failure not in first_error:
                    first_error[failure] = "".join(traceback.format_exception(exc))
        if sum(latencies) >= args.seconds:
            break
        unit = next(units)  # generated outside the timed spans
    for text in first_error.values():
        print(text, file=sys.stderr)

    timed = sum(latencies)
    attempted = len(latencies)
    failed = sum(failures.values())
    correct = not failures
    # The VM the benchmark was built on changes speed by up to 1.7 times,
    # from one run to the next and within a run.  The workload's reference
    # loop, timed between the ops, measures the speed the run saw: each op
    # is given the mean of the samples on both sides of it, weighted by its
    # time.  ops_per_s and setup_s are scaled to the loop's fast-state time,
    # which takes most of that swing out of the differences between runs.
    speed = [statistics.mean(before + after) for before, after in zip(gaps, gaps[1:])]
    slowdown = sum(dt * s for dt, s in zip(latencies, speed)) / timed / reference_s
    setup = import_s + statistics.median(reps)
    env = environment(numpy)
    print("env: " + json.dumps(env))
    print("inputs: " + json.dumps(summarize(props)))
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "samples": attempted,
        "failed_frac": failed / attempted,
        "op_s_p50": statistics.median(latencies),
        "op_s_p90": statistics.quantiles(latencies, n=10)[-1] if attempted >= P90_MIN_SAMPLES else None,
        "failures": dict(sorted(failures.items())),
        "misses_at_1e-9_frac": cli_tol_misses / attempted,
        "setup_import_s": import_s,
        "setup_repeats_s": reps,
        "slowdown": slowdown,
        "ops_per_s_unscaled": attempted / timed,
        "setup_s_unscaled": setup,
    }
    print("summary: " + json.dumps(summary))

    if args.trace:
        measured = tr.metrics()
        measured["bench.op.s"] = timed
        measured["layout.misses_at_1e-9"] = cli_tol_misses
        measured["bench.ops_per_s_traced"] = attempted / timed * slowdown
    else:
        measured = {
            "ops_per_s": attempted / timed * slowdown,
            "setup_s": setup / slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    # A layer the workload never calls reads 0; an end-to-end metric must be measured.
    value = (lambda name: measured.get(name, 0.0)) if args.trace else measured.__getitem__
    metrics = {m["name"]: {"value": float(value(m["name"])), "unit": m["unit"]} for m in wanted}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{wl.name}-{args.seed}.json"
        path.write_text(json.dumps({"env": env, "summary": summary, "inputs": props,
                                    "metrics": metrics, "spans": tr.spans}) + "\n")
        print(f"spans: {len(tr.spans)} written to {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
