"""In-memory spans around juntalab's public functions.

Spans are recorded from outside the package.  ``Tracer.install`` rebinds
each traced function, in every module that calls it, to a wrapper that
records one span: name, start, end, parent span, op id and optional counts.
``uninstall`` restores the original bindings.  Self time is a span's
duration minus the time covered by its child spans; the program is single
threaded, so children never overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import os
import time
from statistics import median

from juntalab import boolfn, cli, fourier, learner, russo, sampling


def _rows(args, result, counts):
    return {"rows": int(result.shape[0])}


def _draws(args, result, counts):
    return {"draws": int(result.m)}


def _start_draws(args):
    return {"start": args[0].draws}


def _rejection(args, result, counts):
    return {"raw": int(args[0].draws - counts["start"]), "accepted": int(result.m)}


def _scan_width(args):
    return {"n": int(args[0][0].n)}


def _phases(args, result, counts):
    return {phase: sum(per.values()) for phase, per in result.samples.items()}


def _file_bytes(args, result, counts):
    return {"bytes": os.path.getsize(args[1])}


# (owner, attribute, span name, counts known at the call, counts after it
# returns).  Counts from ``before`` are kept when the call raises.
TARGETS = [
    (sampling, "sample_batch", "measure.sample_batch", None, _rows),
    (boolfn.Junta, "eval_batch", "boolfn.eval_batch", None, None),
    (sampling.Oracle, "draw_batch", "sampling.Oracle.draw_batch", None, _draws),
    (learner, "estimate_coefficient", "sampling.estimate_coefficient", None, None),
    (learner, "estimate_bias", "sampling.estimate_bias", None, None),
    (learner.RestrictedOracle, "draw_batch", "learner.RestrictedOracle.draw_batch",
     _start_draws, _rejection),
    (learner, "check_constant", "learner.check_constant", None, None),
    (learner, "find_one_relevant", "learner.find_one_relevant", _scan_width, None),
    (learner, "learn_junta", "learner.learn_junta", None, _phases),
    (cli, "learn_junta", "learner.learn_junta", None, _phases),
    (boolfn, "walsh_numerators", "boolfn.walsh_numerators", None, None),
    (fourier, "walsh_numerators", "boolfn.walsh_numerators", None, None),
    (fourier, "biased_spectrum", "fourier.biased_spectrum", None, None),
    (fourier, "biased_coefficient", "fourier.biased_coefficient", None, None),
    (fourier, "expectation_polynomial", "fourier.expectation_polynomial", None, None),
    (russo, "expectation_polynomial", "fourier.expectation_polynomial", None, None),
    (russo, "root_set", "russo.root_set", None, None),
    (russo, "theorem1_witness", "russo.theorem1_witness", None, None),
    (cli, "dump_examples_csv", "sampling.dump_examples_csv", None, _file_bytes),
    (cli, "load_examples_csv", "sampling.load_examples_csv", None, _draws),
]


class Tracer:
    """Collects spans as lists [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   before(args) if before is not None else None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                rec[5] = after(args, result, rec[5])
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, before, after in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin(self, name: str, op: int, start: float) -> int:
        """Open a span from the benchmark itself (an op, a child process)."""
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, start, start, self._stack[-1] if self._stack else -1, op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, stop: float, counts: dict | None = None) -> None:
        self._stack.pop()
        self.spans[idx][2] = stop
        self.spans[idx][5] = counts

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process under span ``parent``."""
        base = len(self.spans)
        op = self.spans[parent][4]
        for name, start, stop, par, _, counts in child_spans:
            self.spans.append([name, start, stop, parent if par < 0 else base + par, op, counts])


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counts."""
    covered = [0.0] * len(spans)
    for name, start, stop, parent, op, counts in spans:
        if parent >= 0:
            covered[parent] += stop - start
    out: dict[str, dict] = {}
    for i, (name, start, stop, parent, op, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["total_s"] += stop - start
        agg["self_s"] += stop - start - covered[i]
        for key, val in (counts or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
    return out


def layer_metrics(spans: list[list], ops: int, timed: list[str]) -> dict[str, float]:
    """Per-layer figures, per traced op unless the name says otherwise;
    ``timed`` names the spans that get ``.calls`` and ``.self_s``."""
    agg = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}

    def get(name):
        return agg.get(name, empty)

    def per_op(value):
        return value / ops if ops else 0.0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for name in timed:
        out[f"{name}.calls"] = per_op(get(name)["calls"])
        out[f"{name}.self_s"] = per_op(get(name)["self_s"])

    est = get("sampling.estimate_coefficient")
    op_total = get("op")["total_s"]
    out["sampling.estimate_coefficient.coeffs_per_s"] = rate(est["calls"], est["self_s"])
    out["sampling.estimate_coefficient.op_share"] = est["self_s"] / op_total if op_total else 0.0
    smp = get("measure.sample_batch")
    out["measure.sample_batch.draws_per_s"] = rate(smp["counts"].get("rows", 0), smp["self_s"])
    out["sampling.Oracle.draw_batch.draws"] = per_op(
        get("sampling.Oracle.draw_batch")["counts"].get("draws", 0))

    rej = get("learner.RestrictedOracle.draw_batch")["counts"]
    raw, accepted = rej.get("raw", 0), rej.get("accepted", 0)
    out["learner.RestrictedOracle.draw_batch.raw"] = per_op(raw)
    out["learner.RestrictedOracle.draw_batch.accepted"] = per_op(accepted)
    out["learner.RestrictedOracle.draw_batch.accept_ratio"] = accepted / raw if raw else 0.0

    phases = get("learner.learn_junta")["counts"]
    for phase in ("bias_estimation", "constancy", "coefficients"):
        out[f"learner.draws.{phase}"] = per_op(phases.get(phase, 0))

    scans: dict[int, list[float]] = {}
    for name, start, stop, parent, op, counts in spans:
        if name == "learner.find_one_relevant":
            scans.setdefault(counts["n"], []).append((stop - start) * 1000.0)
    ms = {n: median(scans[n]) if n in scans else 0.0 for n in (20, 40, 80)}
    for n, value in ms.items():
        out[f"learner.find_one_relevant.ms_n{n}"] = value
    out["learner.find_one_relevant.ratio_n40_n20"] = ms[40] / ms[20] if ms[20] else 0.0
    out["learner.find_one_relevant.ratio_n80_n40"] = ms[80] / ms[40] if ms[40] else 0.0

    out["fourier.calls"] = per_op(sum(a["calls"] for n, a in agg.items() if n.startswith("fourier.")))
    out["russo.calls"] = per_op(sum(a["calls"] for n, a in agg.items() if n.startswith("russo.")))

    dump = get("sampling.dump_examples_csv")
    out["sampling.dump_examples_csv.bytes"] = per_op(dump["counts"].get("bytes", 0))
    load = get("sampling.load_examples_csv")
    out["sampling.load_examples_csv.rows_per_s"] = rate(load["counts"].get("draws", 0), load["self_s"])
    imports = get("cli.import")
    out["cli.import_s"] = imports["total_s"] / imports["calls"] if imports["calls"] else 0.0
    procs = get("cli.process")
    out["cli.process_s"] = procs["total_s"] / procs["calls"] if procs["calls"] else 0.0
    return out
