"""Run the benchmark over several seeds and summarise it in a BENCH file.

    python3 perfbench/collect.py --label seed [--seeds 1,2,...]

From the repository root: runs each workload once per seed untraced and,
on the first ``TRACED_SEEDS`` seeds, once traced, each for BENCHMARK.json's
run_seconds.  Writes ``perfbench/BENCH_<label>.json`` with the machine, every
run's result line and op samples, and for each workload and end-to-end
metric the median, quartiles and spread (quartile distance over the median)
next to the metric's bound, and whether the spread is within it.
Per-layer metrics are the medians over the traced runs.  The tracing
overhead is 1 - traced ops/s over untraced ops/s on the traced seeds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from run import MIN_OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED_SEEDS = 2


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def _stats(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0,
            "values": values}


def summarize(workload: str, seeds: list[int]) -> dict:
    runs, layer_runs = [], []
    for seed in seeds:
        result, details = _run(workload, seed, 0)
        runs.append({"seed": seed, "result": result, "setup_samples_s": details["setup_samples_s"],
                     "ops": details["ops"], "machine": details["machine"]})
        print(workload, seed, json.dumps(result["metrics"]), flush=True)
    for seed in seeds[:TRACED_SEEDS]:
        result, details = _run(workload, seed, 1)
        layer_runs.append({"seed": seed, "result": result})
    e2e = {}
    for metric in SPEC["end_to_end"]:
        stats = _stats([r["result"]["metrics"][metric["name"]]["value"] for r in runs])
        stats["bound"] = metric["bound"]
        stats["within_bound"] = stats["spread"] <= metric["bound"]
        e2e[metric["name"]] = stats
    per_layer = {
        m["name"]: median(r["result"]["metrics"][m["name"]]["value"] for r in layer_runs)
        for m in SPEC["per_layer"]
    }
    # raw draws per op repeat exactly: the traced run of a seed must report
    # what the untraced run of that seed drew over the same op prefix
    repeats = all(
        r["result"]["metrics"]["raw_draws_per_op"]["value"]
        == sum(o["draws"] for o in u["ops"][:MIN_OPS]) / MIN_OPS
        for r, u in zip(layer_runs, runs)
    )
    overhead = 1.0 - (
        median(r["result"]["metrics"]["trace.ops_per_s"]["value"] for r in layer_runs)
        / median(u["result"]["metrics"]["ops_per_s"]["value"] for u in runs[:len(layer_runs)])
    )
    return {
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "correct": all(r["result"]["correct"] for r in runs + layer_runs),
        "raw_draws_repeat": repeats,
        "trace_overhead_frac": overhead,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "runs": runs,
        "traced_runs": layer_runs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"label": args.label, "run_seconds": SPEC["run_seconds"], "seeds": seeds,
           "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        out["workloads"][workload] = summarize(workload, seeds)
        out["machine"] = out["workloads"][workload]["runs"][0]["machine"]
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    report(out)
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def report(out: dict) -> None:
    for workload, summary in out["workloads"].items():
        print(f"{workload}: correct={summary['correct']} failed={summary['failed']}/"
              f"{summary['attempted']} raw_draws_repeat={summary['raw_draws_repeat']} "
              f"trace_overhead_frac={summary['trace_overhead_frac']}")
        for name, stats in summary["end_to_end"].items():
            print(f"  {name:12s} median {stats['median']:.6g} spread {stats['spread']:.3f} "
                  f"(bound {stats['bound']}{'' if stats['within_bound'] else ', EXCEEDED'})")


if __name__ == "__main__":
    sys.exit(main())
