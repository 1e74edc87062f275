"""Run every workload untraced and traced, and print one table.

    python3 perfbench/suite.py [--seed 1] [--seconds 25]

For each workload this prints the end-to-end metrics of the untraced run
(with op_s_p50, op_s_p90, failed_frac, the unscaled rate and the slowdown
from its summary line), the per-layer metrics of the traced run, and the
tracing overhead: traced against untraced ops_per_s.  Runs go one at a time, each in its own process.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(next(line for line in lines if line.startswith("summary: "))[len("summary: "):])
    return summary, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    workloads = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
    for workload in workloads:
        summary, plain = run_one(workload, args.seed, args.seconds, 0)
        _, traced = run_one(workload, args.seed, args.seconds, 1)
        print(f"== {workload}  (seed {args.seed}, {plain['attempted']} ops, correct {plain['correct']})")
        rows = [(name, m["value"], m["unit"]) for name, m in plain["metrics"].items()]
        rows.append(("op_s_p50", summary["op_s_p50"], "s"))
        p90 = summary["op_s_p90"]
        rows.append(("op_s_p90", p90 if p90 is not None else f"omitted: {summary['samples']} samples < 100", "s"))
        rows.append(("failed_frac", summary["failed_frac"], "1"))
        rows.append(("ops_per_s_unscaled", summary["ops_per_s_unscaled"], "1/s"))
        rows.append(("slowdown", summary["slowdown"], "1"))
        for name, value, unit in rows:
            print(f"  {name:40s} {value if isinstance(value, str) else format(value, '.6g')} {unit}")
        print(f"  failures: {summary['failures']}")
        tm = traced["metrics"]
        op_s = tm["bench.op.s"]["value"]
        for name, m in tm.items():
            share = f"  ({m['value'] / op_s:.1%} of op time)" if m["unit"] == "s" and name != "bench.op.s" else ""
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}{share}")
        overhead = 1.0 - tm["bench.ops_per_s_traced"]["value"] / plain["metrics"]["ops_per_s"]["value"]
        print(f"  {'tracing overhead':40s} {overhead:.2%} of untraced ops_per_s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
