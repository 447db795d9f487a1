"""Command line front end.

Subcommands: gen (random target to JSON), spectrum (biased coefficients and
level weights), russo-check (derivative identity residuals), roots (critical
biases of the expectation curve), learn (run the learner against synthetic
oracles, with optional stream dump or replay), bench (parameter grid
to CSV).

Exit codes: 0 success, 1 the learner finished without recovering the target,
2 invalid input, 3 file I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from .boolfn import Junta, _is_json_int, random_junta
from .errors import JuntaLabError
from .fourier import (
    _level_weight,
    _subset_mask,
    biased_spectrum,
    expectation_polynomial,
    relevant_subsets,
)
from .learner import LearnerParams, LearnReport, LearnStatus, learn_junta
from .russo import _russo_rhs, poly_derivative, root_set
from .sampling import (
    ExampleBatch,
    Oracle,
    ReplayOracle,
    dump_examples_csv,
    load_examples_csv,
)

__all__ = ["entry", "main"]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _load_junta(path: str) -> Junta:
    return Junta.from_json_dict(json.loads(Path(path).read_text()))


def _parse_biases(text: str) -> list[float]:
    try:
        biases = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise JuntaLabError(f"could not parse bias list {text!r}") from None
    return _check_biases(biases)


def _check_biases(biases: list[float]) -> list[float]:
    """Oracle biases must be a non-empty list of distinct values in (-1, 1)."""
    if not biases:
        raise JuntaLabError("empty bias list")
    for b in biases:
        if not -1.0 < b < 1.0:
            raise JuntaLabError(f"bias {b} outside (-1, 1)")
    if len(set(biases)) != len(biases):
        raise JuntaLabError(f"biases must be pairwise distinct, got {biases}")
    return biases


def _stream_path(prefix: str, j: int) -> str:
    return f"{prefix}_oracle{j}.csv"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    f = random_junta(args.n, args.k, args.seed, require_nonconstant=not args.allow_constant)
    _emit(_json_text(f.to_json_dict()), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    f = _load_junta(args.fn)
    r = float(args.bias)
    top = f.k if args.max_level is None else args.max_level
    if top < 0:
        raise JuntaLabError(f"--max-level must be nonnegative, got {top}")
    spec = biased_spectrum(f, r)
    coeffs = [(S, float(spec[_subset_mask(f, S)])) for S in relevant_subsets(f, top)]
    if args.csv:
        lines = ["S,value"]
        lines += [f"{'|'.join(str(i) for i in S)},{v!r}" for S, v in coeffs]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    poly = expectation_polynomial(f)
    payload = {
        "bias": r,
        "coefficients": [{"S": list(S), "value": v} for S, v in coeffs],
        "weights": [_level_weight(poly, s, r) for s in range(min(top, f.k) + 1)],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_russo_check(args) -> int:
    f = _load_junta(args.fn)
    biases = _parse_biases(args.bias)
    max_s = args.max_order if args.max_order is not None else max(f.k, 1)
    if max_s < 1:
        raise JuntaLabError(f"--max-order must be positive, got {max_s}")
    poly = expectation_polynomial(f)
    rows = []
    worst = 0.0
    for s in range(1, max_s + 1):
        deriv = poly_derivative(poly, s)
        for r in biases:
            lhs = float(deriv(Fraction(r)))
            rhs = _russo_rhs(poly, s, r)
            res = abs(lhs - rhs)
            worst = max(worst, res)
            rows.append(f"{s:>2}  {r:>9.4f}  {lhs:> .12e}  {rhs:> .12e}  {res:.3e}")
    header = f"{'s':>2}  {'bias':>9}  {'derivative':>19}  {'level formula':>19}  residual"
    _emit("\n".join([header] + rows) + "\n", args.out)
    return 0 if worst <= args.tol else 1


def _cmd_roots(args) -> int:
    f = _load_junta(args.fn)
    rs = root_set(f, args.s)
    payload = {
        "s": rs.level,
        "points": [{"re": p.re, "multiplicity": p.multiplicity} for p in rs.points],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _replay_oracles(prefix: str, biases: list[float]) -> list[ReplayOracle]:
    """Load dumped streams; a stream left empty (its oracle was never
    consulted) replays as an empty source that fails on any draw."""
    batches = []
    for j in range(len(biases)):
        path = Path(_stream_path(prefix, j))
        if path.stat().st_size == 0:
            batches.append(None)
        else:
            batches.append(load_examples_csv(path))
    widths = {b.n for b in batches if b is not None}
    if not widths:
        raise JuntaLabError(f"all replay streams under prefix {prefix!r} are empty")
    if len(widths) > 1:
        raise JuntaLabError(
            f"replay streams under prefix {prefix!r} have different widths {sorted(widths)}"
        )
    (n,) = widths
    empty = ExampleBatch(np.empty((0, n), dtype=np.int8), np.empty(0, dtype=np.int8))
    return [ReplayOracle(b if b is not None else empty, r) for b, r in zip(batches, biases)]


def _report_payload(report: LearnReport) -> dict:
    table = None
    if report.table is not None:
        table = "".join("1" if v == 1 else "0" for v in report.table)
    return {
        "status": report.status.value,
        "relevant": list(report.relevant),
        "table": table,
        "samples": {f"oracle_{j}": c for j, c in sorted(report.total_samples().items())},
        "wall_ms": report.wall_ms,
    }


def _cmd_learn(args) -> int:
    biases = _parse_biases(args.biases)
    params = LearnerParams(
        k=args.k,
        s=args.s,
        alpha=args.alpha,
        gamma=args.gamma,
        delta=args.delta,
        threshold=args.threshold,
        samples_per_coeff=args.samples_per_coeff,
        unknown_biases=args.unknown_biases,
    )
    if args.replay is not None:
        oracles = _replay_oracles(args.replay, biases)
    else:
        if args.fn is None:
            raise JuntaLabError("--fn is required unless --replay is given")
        f = _load_junta(args.fn)
        oracles = [
            Oracle(f, b, master_seed=args.seed, oracle_id=j) for j, b in enumerate(biases)
        ]
    report = learn_junta(oracles, params)
    if args.dump is not None:
        # each oracle served one seeded stream, the same however the calls
        # split it, so a fresh oracle re-draws exactly the rows the run saw
        for j, o in enumerate(oracles):
            stream = Oracle(f, o.bias, master_seed=args.seed, oracle_id=j).draw_batch(o.draws)
            dump_examples_csv(stream, _stream_path(args.dump, j))
    _emit(_json_text(_report_payload(report)), args.report)
    ok = report.status in (LearnStatus.EXACT_SUCCESS, LearnStatus.CONSTANT_FUNCTION)
    return 0 if ok else 1


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _json_int(value, key: str) -> int:
    if not _is_json_int(value):
        raise JuntaLabError(f"bench {key} must be a JSON integer, got {value!r}")
    return value


def _json_number(value, key: str) -> float:
    if not (_is_json_int(value) or isinstance(value, float)):
        raise JuntaLabError(f"bench {key} must be a JSON number, got {value!r}")
    return float(value)


def _cmd_bench(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise JuntaLabError("bench config must be a JSON object")
    try:
        ns = [_json_int(v, "n") for v in _as_list(cfg["n"])]
        ks = [_json_int(v, "k") for v in _as_list(cfg["k"])]
        ss = [_json_int(v, "s") for v in _as_list(cfg["s"])]
        biases = [_json_number(b, "biases") for b in cfg["biases"]]
        trials = _json_int(cfg["trials"], "trials")
        master = _json_int(cfg["master_seed"], "master_seed")
        alpha = _json_number(cfg["alpha"], "alpha")
        gamma = _json_number(cfg["gamma"], "gamma")
        delta = _json_number(cfg["delta"], "delta")
        spc = cfg.get("samples_per_coeff")
        spc = None if spc is None else _json_int(spc, "samples_per_coeff")
        thr = cfg.get("threshold")
        thr = None if thr is None else _json_number(thr, "threshold")
    except KeyError as exc:
        raise JuntaLabError(f"bench config is missing key {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:
        raise JuntaLabError(f"malformed bench config: {exc}") from None
    unknown = cfg.get("unknown_biases", False)
    if not isinstance(unknown, bool):
        raise JuntaLabError(f"bench unknown_biases must be true or false, got {unknown!r}")
    _check_biases(biases)
    cells = []
    for n, k, s in product(ns, ks, ss):
        params = LearnerParams(
            k=k,
            s=s,
            alpha=alpha,
            gamma=gamma,
            delta=delta,
            threshold=thr,
            samples_per_coeff=spc,
            unknown_biases=unknown,
        )
        # fail before touching the output file
        params.validate(len(biases), require_coverage=True)
        if k > n:
            raise JuntaLabError(f"bench cell has k={k} > n={n}")
        cells.append((n, k, s, params))

    out = Path(args.out)
    header = "n,k,s,trial,status,relevant,samples,wall_ms\n"
    done = 0
    if out.exists() and out.stat().st_size > 0:
        text = out.read_text()
        existing = text.splitlines()
        if existing and existing[0] != header.strip():
            raise JuntaLabError(f"{out} exists but is not a bench output file")
        if not text.endswith("\n"):
            # the last row was cut short by an interrupted run: rerun it
            existing.pop()
            out.write_text(text[: text.rfind("\n") + 1])
        done = max(len(existing) - 1, 0)
    with out.open("a") as fh:
        if done == 0 and fh.tell() == 0:
            fh.write(header)
            fh.flush()
        row_idx = 0
        for ci, (n, k, s, params) in enumerate(cells):
            for trial in range(trials):
                if row_idx < done:
                    row_idx += 1
                    continue
                row_idx += 1
                target_seed = int(
                    np.random.SeedSequence(master, spawn_key=(ci, trial, 0)).generate_state(1)[0]
                )
                oracle_seed = int(
                    np.random.SeedSequence(master, spawn_key=(ci, trial, 1)).generate_state(1)[0]
                )
                f = random_junta(n, k, target_seed, require_nonconstant=True)
                oracles = [
                    Oracle(f, b, master_seed=oracle_seed, oracle_id=j)
                    for j, b in enumerate(biases)
                ]
                report = learn_junta(oracles, params)
                rel = "|".join(str(i) for i in report.relevant)
                total = sum(report.total_samples().values())
                fh.write(
                    f"{n},{k},{s},{trial},{report.status.value},{rel},"
                    f"{total},{report.wall_ms:.3f}\n"
                )
                fh.flush()
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="juntalab",
        description="biased-spectrum analysis and exact learning of juntas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random junta as JSON")
    p.add_argument("--n", type=int, required=True, help="ambient variable count")
    p.add_argument("--k", type=int, required=True, help="number of relevant variables")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--allow-constant", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spectrum", help="biased coefficients and level weights")
    p.add_argument("--fn", required=True, help="junta JSON file")
    p.add_argument("--bias", type=float, required=True)
    p.add_argument("--max-level", type=int, default=None, help="largest |S| to emit (default: k)")
    p.add_argument("--csv", action="store_true", help="emit S,value rows instead of JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("russo-check", help="derivative-identity residual table")
    p.add_argument("--fn", required=True)
    p.add_argument("--bias", required=True, help="bias, or a comma-separated list, in (-1,1)")
    p.add_argument("--max-order", type=int, default=None, help="highest order (default: k)")
    p.add_argument("--tol", type=float, default=1e-9, help="failure threshold for residuals")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_russo_check)

    p = sub.add_parser("roots", help="critical biases of the expectation curve")
    p.add_argument("--fn", required=True)
    p.add_argument("--s", type=int, required=True, help="multiplicity level")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("learn", help="run the learner against synthetic oracles")
    p.add_argument("--fn", default=None, help="target junta JSON (unused with --replay)")
    p.add_argument("--biases", required=True, help="comma-separated oracle biases")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--samples-per-coeff", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--unknown-biases", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write the report JSON here")
    streams = p.add_mutually_exclusive_group()
    streams.add_argument("--dump", default=None, metavar="PREFIX", help="write raw oracle streams")
    streams.add_argument("--replay", default=None, metavar="PREFIX", help="serve dumped streams")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("bench", help="parameter-grid runs appended to a CSV")
    p.add_argument("--config", required=True, help="grid description JSON")
    p.add_argument("--out", required=True, help="CSV path (resumes by row count)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.func(args)
    except JuntaLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
