"""The benchmark's workloads: targets built from a seed, one op each, and
the check of every op's output.

One op is one pass over a workload's cases (two learns, three scans, seven
analyses, one dump and replay), so every op of a workload does the same
work on fresh inputs derived from the seed and the op's index.  ``op(i)``
returns the op's raw oracle draws and raises ``OpFailed`` when an output is
wrong.  Every call into juntalab goes through a module attribute
(``learner.learn_junta``, ``russo.root_set``, ...), so a tracer that
rebinds those names sees it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from juntalab import boolfn, fourier, learner, russo, sampling
from juntalab.errors import ConstantFunctionError, NoCoefficientFoundError

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


class OpFailed(Exception):
    """An op returned a wrong result."""


class Workload:
    key: int
    peak_rss_kb = 0  # peak of the child processes that did the work, if any

    def __init__(self, seed: int):
        self.seed = seed

    def close(self) -> None:
        """Remove what set-up left behind."""


def _seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a key path."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _parity_core(k: int) -> tuple[int, ...]:
    return tuple(-1 if (k - idx.bit_count()) % 2 else 1 for idx in range(1 << k))


def warm_blas() -> None:
    a = np.random.default_rng(0).random((512, 512))
    for _ in range(3):
        a @ a


# Release-gate targets and settings (criterion 8 of tests/test_acceptance.py).
PAR3_100 = boolfn.Junta(100, (11, 47, 83), _parity_core(3))
AND2_50 = boolfn.Junta(50, (7, 23), (-1, -1, -1, 1))
GATE_8A = learner.LearnerParams(
    k=3, s=1, alpha=0.5, gamma=0.5, delta=0.1, threshold=0.05, samples_per_coeff=50_000
)
GATE_8D = learner.LearnerParams(
    k=3, s=1, alpha=0.5, gamma=0.5, delta=0.1, threshold=0.05, samples_per_coeff=50_000,
    unknown_biases=True,
)
# Criterion 10's scan settings.
SCAN = learner.LearnerParams(
    k=3, s=2, alpha=1.0, gamma=0.5, delta=0.1, threshold=0.5, samples_per_coeff=20_000
)


class LearnGate(Workload):
    """learn_junta on PAR3_100 at -0.5/0/0.5: known (8a), then unknown (8d) bias."""

    key = 1
    cases = (GATE_8A, GATE_8D)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.truth = tuple(sorted(boolfn.relevant_variables_bruteforce(PAR3_100)))

    def op(self, i: int, tracer=None) -> int:
        draws = 0
        for c, params in enumerate(self.cases):
            master = _seed(self.seed, self.key, i, c)
            oracles = [
                sampling.Oracle(PAR3_100, r, master_seed=master, oracle_id=j)
                for j, r in enumerate((-0.5, 0.0, 0.5))
            ]
            report = learner.learn_junta(oracles, params)
            draws += sum(o.draws for o in oracles)
            extra = sorted(set(report.relevant) - set(self.truth))
            if extra:
                raise OpFailed(f"unsound: reported {extra} outside {self.truth}")
            if (report.status is not learner.LearnStatus.EXACT_SUCCESS
                    or report.relevant != self.truth or report.table != PAR3_100.core):
                raise OpFailed(f"status {report.status.value}, relevant {report.relevant}, "
                               f"table {report.table}")
        return draws


class ScanLevel2(Workload):
    """find_one_relevant at s=2, r=0, m=20000 on PAR3 embedded at n=20, 40, 80."""

    key = 2
    widths = (20, 40, 80)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(_seed(seed, self.key))
        self.targets = [
            boolfn.Junta(n, tuple(sorted(int(v) for v in rng.choice(n, 3, replace=False))),
                         _parity_core(3))
            for n in self.widths
        ]

    def op(self, i: int, tracer=None) -> int:
        draws = 0
        for c, f in enumerate(self.targets):
            oracle = sampling.Oracle(f, 0.0, master_seed=_seed(self.seed, self.key, i, c))
            try:
                found = learner.find_one_relevant([oracle], SCAN)
            except NoCoefficientFoundError:
                draws += oracle.draws
                continue
            raise OpFailed(f"scan at n={f.n} reported variable {found}; parity-3 has no "
                           "weight at levels 1 and 2")
        return draws


class ExactAnalysis(Workload):
    """The exact engine on fresh random k-juntas, k = 8..14, n = k + 20.

    One op analyses one junta of each k.  A single k would make the median op
    a k = 11 analysis of about 300 ms, short enough that the machine's
    second-to-second speed swings set it (a spread of 0.20 over ten seeds).
    """

    key = 3
    arities = range(8, 15)
    spectrum_biases = (-0.5, 0.0, 0.5)
    coefficient_bias = 0.5

    def op(self, i: int, tracer=None) -> int:
        for k in self.arities:
            self._analyse(k, _seed(self.seed, self.key, i, k))
        return 0

    def _analyse(self, k: int, seed: int) -> None:
        f = boolfn.random_junta(k + 20, k, seed, require_nonconstant=True)
        boolfn.walsh_numerators(f.core)
        spectra = {r: fourier.biased_spectrum(f, r) for r in self.spectrum_biases}
        r = self.coefficient_bias
        coeffs = [(S, fourier.biased_coefficient(f, S, r)) for S in fourier.relevant_subsets(f, 2)]
        poly = fourier.expectation_polynomial(f)
        roots = {}
        for s in (1, 2):
            try:
                roots[s] = russo.root_set(f, s)
            except ConstantFunctionError:
                if poly.degree >= 1:
                    raise
        deg = boolfn.degree(f)
        rng = np.random.default_rng(seed)
        count = math.ceil(deg / 2) + 1
        # distinct multiples of 1/64 keep the exact rational scan cheap
        biases = [float(v) / 64.0 for v in rng.choice(np.arange(-60, 61), count, replace=False)]
        witness = russo.theorem1_witness(f, 2, biases)
        total = fourier.parseval_sum(f, r)

        if abs(total - 1.0) > 1e-9:
            raise OpFailed(f"parseval sum {total!r} at k={k}")
        pos = {var: b for b, var in enumerate(f.relevant)}
        for S, value in coeffs:
            mask = sum(1 << pos[v] for v in S)
            if abs(spectra[r][mask] - value) > 1e-9:
                raise OpFailed(f"biased_coefficient{S} = {value!r} but spectrum has "
                               f"{spectra[r][mask]!r}")
        if poly(0) != Fraction(sum(f.core), 1 << k):
            raise OpFailed(f"E_0[f] = {poly(0)} is not the uniform mean")
        for s, rs in roots.items():
            if any(p.multiplicity < s for p in rs.points):
                raise OpFailed(f"root_set(s={s}) has a point of multiplicity below {s}")
        if witness.value == 0.0:
            raise OpFailed("witness coefficient is zero")


# Criterion 8(c)'s settings as `juntalab learn` flags.
LEARN_ARGS = ["learn", "--biases=-0.3,0.3", "--k", "2", "--s", "1", "--alpha", "0.7",
              "--gamma", "0.5", "--delta", "0.1", "--samples-per-coeff", "50000",
              "--threshold", "0.05"]


class CliReplay(Workload):
    """`juntalab learn --dump` on AND2_50, then the same learn with --replay."""

    key = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tmp = OUT / f"cli_{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.fn = self.tmp / "and2_50.json"
        self.fn.write_text(AND2_50.to_json())
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _run(self, argv: list[str], tracer, name: str) -> int:
        if tracer is None:
            cmd = [sys.executable, "-m", "juntalab.cli", *argv]
        else:
            spans_path = self.tmp / f"{name}_spans.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
            span = tracer.begin("cli.process", tracer.op, time.perf_counter())
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        # reap with wait4 to get this child's own peak memory
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if tracer is not None:
            tracer.end(span, time.perf_counter())
            if spans_path.exists():
                tracer.adopt(json.loads(spans_path.read_text()), span)
                spans_path.unlink()
        if proc.returncode not in (0, 1):
            raise OpFailed(f"{name} exited {proc.returncode}: {err.decode(errors='replace')}")
        return proc.returncode

    def op(self, i: int, tracer=None) -> int:
        prefix = str(self.tmp / f"op{i}")
        dump_report, replay_report = Path(prefix + "_dump.json"), Path(prefix + "_replay.json")
        try:
            code_dump = self._run(
                LEARN_ARGS + ["--fn", str(self.fn), "--seed", str(_seed(self.seed, self.key, i)),
                                 "--dump", prefix, "--report", str(dump_report)], tracer, "dump")
            code_replay = self._run(
                LEARN_ARGS + ["--replay", prefix, "--report", str(replay_report)],
                tracer, "replay")
            first = json.loads(dump_report.read_text())
            again = json.loads(replay_report.read_text())
        finally:
            for path in self.tmp.glob(f"op{i}_*"):
                path.unlink()
        first.pop("wall_ms")
        again.pop("wall_ms")
        if code_dump != code_replay or first != again:
            raise OpFailed(f"replay differs: exit {code_dump} vs {code_replay}, "
                           f"{first} vs {again}")
        return sum(first["samples"].values())

    def close(self) -> None:
        for path in self.tmp.iterdir():
            path.unlink()
        self.tmp.rmdir()


WORKLOADS = {
    "learn_gate": LearnGate,
    "scan_level2": ScanLevel2,
    "exact_analysis": ExactAnalysis,
    "cli_replay": CliReplay,
}
