"""juntalab's benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; juntalab is imported from its ``src/``.
Ops run one after another (the next starts when the previous one ends)
until starting another would pass ``--seconds``; at least two ops always
run.  Every op's output is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the machine, the set-up samples, and every op's wall
time, draws and error, if any; the same details, with the spans of a traced
run, go to ``perfbench/out/``.

With ``--trace 1`` every op is traced.  The tracing overhead is the traced
run's ``trace.ops_per_s`` against the untraced run's ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Fresh processes start slower for the first second or two after the machine
# was idle, so set-up probes run uncounted for this long before the timed ones.
SETUP_WARMUP_S = 2.0
# Set-up probes before the ops and as many after them: the machine's speed
# holds for seconds at a time, so two moments of the run vary less than one.
SETUP_REPEATS = 5
MIN_OPS = 2
WORKLOADS = ("learn_gate", "scan_level2", "exact_analysis", "cli_replay")

END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

_LAYERS_TIMED = [
    "measure.sample_batch", "boolfn.eval_batch", "sampling.Oracle.draw_batch",
    "sampling.estimate_coefficient", "learner.RestrictedOracle.draw_batch",
    "learner.check_constant", "learner.find_one_relevant", "learner.learn_junta",
    "boolfn.walsh_numerators", "fourier.biased_spectrum", "fourier.biased_coefficient",
    "fourier.expectation_polynomial", "russo.root_set", "russo.theorem1_witness",
    "sampling.dump_examples_csv", "sampling.load_examples_csv",
]
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _LAYERS_TIMED},
    "sampling.estimate_coefficient.calls": "count",
    "sampling.estimate_coefficient.coeffs_per_s": "1/s",
    "sampling.estimate_coefficient.op_share": "fraction",
    "measure.sample_batch.draws_per_s": "1/s",
    "sampling.Oracle.draw_batch.calls": "count",
    "sampling.Oracle.draw_batch.draws": "count",
    "raw_draws_per_op": "count",
    "learner.RestrictedOracle.draw_batch.raw": "count",
    "learner.RestrictedOracle.draw_batch.accepted": "count",
    "learner.RestrictedOracle.draw_batch.accept_ratio": "fraction",
    "learner.draws.bias_estimation": "count",
    "learner.draws.constancy": "count",
    "learner.draws.coefficients": "count",
    "learner.find_one_relevant.ms_n20": "ms",
    "learner.find_one_relevant.ms_n40": "ms",
    "learner.find_one_relevant.ms_n80": "ms",
    "learner.find_one_relevant.ratio_n40_n20": "ratio",
    "learner.find_one_relevant.ratio_n80_n40": "ratio",
    "boolfn.walsh_numerators.calls": "count",
    "fourier.biased_coefficient.calls": "count",
    "fourier.calls": "count",
    "russo.calls": "count",
    "sampling.dump_examples_csv.bytes": "B",
    "sampling.load_examples_csv.rows_per_s": "1/s",
    "cli.import_s": "s",
    "cli.process_s": "s",
    "trace.ops_per_s": "1/s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None,
                   help="stop after this many ops (smoke testing)")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def _setup(args):
    """Import juntalab, build the workload's targets and warm up BLAS."""
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warm_blas()
    return wl


def _time_setup(args) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


def _machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}


def _loop(wl, seconds, tracer, max_ops):
    """Run ops back to back; return one sample dict per op and the wall time."""
    samples = []
    begin = time.perf_counter()
    last = 0.0
    i = 0
    while True:
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i >= MIN_OPS and time.perf_counter() - begin + last > seconds:
            break
        sample = {"op": i, "draws": 0, "error": None}
        start = time.perf_counter()
        span = tracer.begin("op", i, start) if tracer is not None else None
        try:
            sample["draws"] = wl.op(i, tracer)
        except Exception as exc:  # a failed op is counted and the run goes on
            traceback.print_exc()
            sample["error"] = f"{type(exc).__name__}: {exc}"
        stop = time.perf_counter()
        if tracer is not None:
            tracer.end(span, stop)
        last = stop - start
        sample["ms"] = last * 1000.0
        samples.append(sample)
        i += 1
    return samples, time.perf_counter() - begin


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "juntalab" / "__init__.py").is_file():
        print(f"error: no juntalab sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup(args).close()
        print("ready", flush=True)
        return 0

    warm = time.perf_counter()
    while time.perf_counter() - warm < SETUP_WARMUP_S:
        _time_setup(args)
    setup_samples = [_time_setup(args) for _ in range(SETUP_REPEATS)]
    wl = _setup(args)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        samples, wall = _loop(wl, args.seconds, tracer, args.max_ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()
    setup_samples += [_time_setup(args) for _ in range(SETUP_REPEATS)]

    ok = [s for s in samples if s["error"] is None]
    failed = len(samples) - len(ok)
    counted = samples[:MIN_OPS]  # a fixed prefix, so the count repeats for a seed
    draws_per_op = sum(s["draws"] for s in counted) / len(counted)
    if tracer is not None:
        values = tracing.layer_metrics(tracer.spans, len(samples), _LAYERS_TIMED)
        values["raw_draws_per_op"] = draws_per_op
        values["trace.ops_per_s"] = len(ok) / wall
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, wl.peak_rss_kb)
        values = {
            "ops_per_s": len(ok) / wall,
            "op_ms_p50": median(s["ms"] for s in (ok or samples)),
            "setup_s": median(setup_samples),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": _machine(), "setup_samples_s": setup_samples, "wall_s": wall,
        "ops": samples,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(details))
    if tracer is not None:
        Path(f"{stem}_spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
