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
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, islice, product
from pathlib import Path

import numpy as np

from .boolfn import MAX_AMBIENT_VARS, Junta, _is_strict_int, random_junta
from .errors import JuntaLabError
from .fourier import _level_weight, biased_spectrum, expectation_polynomial
from .learner import LearnerParams, LearnReport, LearnStatus, _learn_scan_caps, learn_junta
from .measure import _check_bias
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


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError:
        raise JuntaLabError(f"{path} is not UTF-8 text") from None


def _load_junta(path: str) -> Junta:
    return Junta.from_json_dict(json.loads(_read_text(path)))


def _check_seed(seed: int, what: str) -> None:
    # numpy's seed sequences take only non-negative integers
    if seed < 0:
        raise JuntaLabError(f"{what} must be a non-negative integer, got {seed}")


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
        _check_bias(b)
    if len(set(biases)) != len(biases):
        raise JuntaLabError(f"biases must be pairwise distinct, got {biases}")
    return biases


def _stream_path(prefix: str, j: int) -> str:
    return f"{prefix}_oracle{j}.csv"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    _check_seed(args.seed, "--seed")
    f = random_junta(args.n, args.k, args.seed, require_nonconstant=not args.allow_constant)
    _emit(_json_text(f.to_json_dict()), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    f = _load_junta(args.fn)
    r = float(args.bias)
    top = f.k if args.max_level is None else args.max_level
    if top < 0:
        raise JuntaLabError(f"--max-level must be nonnegative, got {top}")
    spec = biased_spectrum(f, r).tolist()
    # both combinations run over the same positions, so they stay in step:
    # each relevant subset S, smallest first, beside the bits of its mask
    bits = [1 << b for b in range(f.k)]
    coeffs = [
        (S, spec[sum(mask_bits)])
        for size in range(min(top, f.k) + 1)
        for S, mask_bits in zip(combinations(f.relevant, size), combinations(bits, size))
    ]
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
    # a NaN or negative tolerance would fail every residual, even 0.0
    if not args.tol >= 0.0:
        raise JuntaLabError(f"--tol must be a non-negative number, got {args.tol}")
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


def _learner_params(values, **grid) -> LearnerParams:
    """LearnerParams from the entries of values, and of grid over them, named
    after its fields; the learn flags and the bench keys use those names."""
    values = {**values, **grid}
    return LearnerParams(**{field.name: values[field.name] for field in fields(LearnerParams)})


def _oracles(f: Junta, biases: list[float], seed: int) -> list[Oracle]:
    """One oracle per bias; oracle j serves the seeded stream (seed, j)."""
    return [Oracle(f, b, master_seed=seed, oracle_id=j) for j, b in enumerate(biases)]


def _cmd_learn(args) -> int:
    _check_seed(args.seed, "--seed")
    biases = _parse_biases(args.biases)
    params = _learner_params(vars(args))
    if args.replay is not None:
        oracles = _replay_oracles(args.replay, biases)
    else:
        if args.fn is None:
            raise JuntaLabError("--fn is required unless --replay is given")
        f = _load_junta(args.fn)
        oracles = _oracles(f, biases, args.seed)
    report = learn_junta(oracles, params)
    if args.dump is not None:
        # each oracle served one seeded stream, the same however the calls
        # split it, so a fresh oracle re-draws exactly the rows the run saw
        for j, (o, fresh) in enumerate(zip(oracles, _oracles(f, biases, args.seed))):
            dump_examples_csv(fresh.draw_batch(o.draws), _stream_path(args.dump, j))
    _emit(_json_text(_report_payload(report)), args.report)
    ok = report.status in (LearnStatus.EXACT_SUCCESS, LearnStatus.CONSTANT_FUNCTION)
    return 0 if ok else 1


# every key a bench config may hold, with its JSON kind and, for an optional
# key, the default that an absent key or a null stands for (... marks a
# required key).  Any other key is an error, so that a misspelled optional key
# cannot silently run at its default.  A "list" is a JSON list of the kind; a
# "grid" is one value or a list, and the grid keys' cells run in product order.
_BENCH_KEYS = {
    "n": ("integer grid", ...),
    "k": ("integer grid", ...),
    "s": ("integer grid", ...),
    "biases": ("number list", ...),
    "trials": ("integer", ...),
    "master_seed": ("integer", ...),
    "alpha": ("number", ...),
    "gamma": ("number", ...),
    "delta": ("number", ...),
    "samples_per_coeff": ("integer", None),
    "threshold": ("number", None),
    "unknown_biases": ("boolean", False),
}

_JSON_KINDS = {
    "integer": _is_strict_int,
    "number": lambda v: _is_strict_int(v) or isinstance(v, float),
    "boolean": lambda v: isinstance(v, bool),
}


def _bench_value(key: str, value, kind: str):
    item, _, shape = kind.partition(" ")
    items = value if shape == "list" or (shape == "grid" and isinstance(value, list)) else [value]
    if not isinstance(items, list) or not all(_JSON_KINDS[item](v) for v in items):
        raise JuntaLabError(f"bench {key} must be a JSON {kind}, got {value!r}")
    if item == "number":
        try:
            items = [float(v) for v in items]
        except OverflowError:
            raise JuntaLabError(f"bench {key} is out of float range: {value!r}") from None
    return items if shape else items[0]


def _bench_config(path) -> dict:
    cfg = json.loads(_read_text(path))
    if not isinstance(cfg, dict):
        raise JuntaLabError("bench config must be a JSON object")
    unknown_keys = sorted(set(cfg) - set(_BENCH_KEYS))
    if unknown_keys:
        raise JuntaLabError(f"bench config has unknown keys: {', '.join(map(repr, unknown_keys))}")
    out = {}
    for key, (kind, default) in _BENCH_KEYS.items():
        if cfg.get(key) is not None:
            out[key] = _bench_value(key, cfg[key], kind)
        elif default is ...:
            raise JuntaLabError(f"bench config is missing key {key!r}")
        else:
            out[key] = default
    _check_biases(out["biases"])
    _check_seed(out["master_seed"], "bench master_seed")
    if out["trials"] < 0:
        raise JuntaLabError(f"bench trials must be non-negative, got {out['trials']}")
    return out


def _cmd_bench(args) -> int:
    cfg = _bench_config(args.config)
    cells = []
    for n, k, s in product(cfg["n"], cfg["k"], cfg["s"]):
        params = _learner_params(cfg, k=k, s=s)
        # fail before touching the output file
        params.validate(len(cfg["biases"]), require_coverage=True)
        if not k <= n <= MAX_AMBIENT_VARS:
            raise JuntaLabError(f"bench cell needs k <= n <= {MAX_AMBIENT_VARS}, got k={k}, n={n}")
        _learn_scan_caps(params, n, cfg["biases"])
        cells.append((n, params))

    out = Path(args.out)
    header = "n,k,s,trial,status,relevant,samples,wall_ms\n"
    text = _read_text(out) if out.exists() else ""
    if text and text.splitlines()[0] != header.strip():
        raise JuntaLabError(f"{out} exists but is not a bench output file")
    # drop a last row cut short by an interrupted run; each whole row skips a run
    kept = text[: text.rfind("\n") + 1]
    if kept != text:
        out.write_text(kept)
    runs = product(enumerate(cells), range(cfg["trials"]))
    with out.open("a") as fh:
        if not kept:
            fh.write(header)
            fh.flush()
        for (ci, (n, params)), trial in islice(runs, max(kept.count("\n") - 1, 0), None):
            target_seed, oracle_seed = (
                int(np.random.SeedSequence(cfg["master_seed"], spawn_key=(ci, trial, j))
                    .generate_state(1)[0])
                for j in (0, 1)
            )
            f = random_junta(n, params.k, target_seed, require_nonconstant=True)
            report = learn_junta(_oracles(f, cfg["biases"], oracle_seed), params)
            rel = "|".join(str(i) for i in report.relevant)
            total = sum(report.total_samples().values())
            fh.write(
                f"{n},{params.k},{params.s},{trial},{report.status.value},{rel},"
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
