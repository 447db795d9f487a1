import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parity_core
from juntalab import (
    MAX_AMBIENT_VARS,
    Junta,
    JuntaLabError,
    Oracle,
    level_weight,
    load_examples_csv,
    random_junta,
    russo_rhs,
)
from juntalab.cli import main

# bytes that cannot start a UTF-8 sequence, after a valid first line
NOT_UTF8 = b"1,-1,1\n\xff\xfe\x00\x80,1\n"


@pytest.fixture
def and2_path(tmp_path):
    f = Junta(5, (0, 2), (-1, -1, -1, 1))
    path = tmp_path / "and2.json"
    path.write_text(f.to_json())
    return str(path)


@pytest.fixture
def par3_path(tmp_path):
    f = Junta(3, (0, 1, 2), parity_core(3))
    path = tmp_path / "par3.json"
    path.write_text(f.to_json())
    return str(path)


@pytest.fixture
def and2_12_path(tmp_path):
    f = Junta(12, (3, 9), (-1, -1, -1, 1))
    path = tmp_path / "and2_12.json"
    path.write_text(f.to_json())
    return str(path)


@pytest.fixture
def rand6():
    return random_junta(9, 6, 61, require_nonconstant=True)


class TestGen:
    def test_format(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["gen", "--n", "100", "--k", "4", "--seed", "7", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 100
        assert len(data["relevant"]) == 4
        assert len(data["core"]) == 16
        Junta.from_json_dict(data)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--n", "40", "--k", "3", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cap(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["gen", "--n", "30", "--k", "25", "--seed", "0", "--out", str(out)]) == 2

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "f.json"
        proc = subprocess.run(
            [sys.executable, "-m", "juntalab.cli", "gen", "--n", "6", "--k", "2",
             "--seed", "3", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["n"] == 6

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2


class TestSpectrum:
    def test_and2_json(self, and2_path, capsys):
        assert main(["spectrum", "--fn", and2_path, "--bias", "0.5", "--max-level", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bias"] == 0.5
        by_subset = {tuple(c["S"]): c["value"] for c in data["coefficients"]}
        assert set(by_subset) == {(), (0,), (2,)}
        assert by_subset[(0,)] == pytest.approx(0.6495190528383290, abs=1e-9)
        assert len(data["weights"]) == 2

    def test_weights_are_level_weights(self, rand6, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(rand6.to_json())
        assert main(["spectrum", "--fn", str(path), "--bias", "-0.35"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["weights"] == [level_weight(rand6, s, -0.35) for s in range(7)]

    def test_par3_level_one_vanishes(self, par3_path, capsys):
        assert main(["spectrum", "--fn", par3_path, "--bias", "0", "--max-level", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        for c in data["coefficients"]:
            if len(c["S"]) == 1:
                assert c["value"] == 0.0

    def test_csv_format(self, and2_path, capsys):
        assert main(["spectrum", "--fn", and2_path, "--bias", "0.25", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "S,value"
        assert lines[1].startswith(",")
        assert any(line.startswith("0|2,") for line in lines)
        # every value cell must round-trip as a plain float literal
        for line in lines[1:]:
            cell = line.rsplit(",", 1)[1]
            assert repr(float(cell)) == cell

    def test_bad_bias(self, and2_path):
        assert main(["spectrum", "--fn", and2_path, "--bias", "1.5"]) == 2

    def test_bad_level(self, and2_path):
        assert main(["spectrum", "--fn", and2_path, "--bias", "0", "--max-level", "-1"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["spectrum", "--fn", str(tmp_path / "nope.json"), "--bias", "0"]) == 3

    def test_malformed_junta(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["spectrum", "--fn", str(bad), "--bias", "0"]) == 2
        good = {"n": 3, "relevant": [0, 2], "core": "0001"}
        for field, value in [("n", "abc"), ("relevant", 3), ("n", 2.7), ("n", True)]:
            bad.write_text(json.dumps({**good, field: value}))
            capsys.readouterr()
            assert main(["roots", "--fn", str(bad), "--s", "1"]) == 2, (field, value)
            assert capsys.readouterr().err.startswith("error: ")


class TestRussoCheck:
    def test_residual_table(self, and2_path, capsys):
        code = main(["russo-check", "--fn", and2_path, "--bias", "0.5,-0.25", "--max-order", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            assert float(line.split()[-1]) <= 1e-10

    def test_rhs_column_is_russo_rhs(self, rand6, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(rand6.to_json())
        main(["russo-check", "--fn", str(path), "--bias", "0.6,-0.2"])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        want = [f"{russo_rhs(rand6, s, r):> .12e}" for s in range(1, 7) for r in (0.6, -0.2)]
        assert [row.split()[3] for row in rows] == [w.strip() for w in want]

    def test_default_order_covers_k(self, par3_path, capsys):
        assert main(["russo-check", "--fn", par3_path, "--bias", "0.3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3

    def test_duplicate_biases(self, and2_path):
        assert main(["russo-check", "--fn", and2_path, "--bias", "0.5,0.5"]) == 2

    def test_empty_bias_list(self, and2_path):
        assert main(["russo-check", "--fn", and2_path, "--bias", ","]) == 2

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_bad_order(self, and2_path, order, capsys):
        code = main(["russo-check", "--fn", and2_path, "--bias", "0.5", "--max-order", order])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1e-9"])
    def test_bad_tol(self, and2_path, tol, capsys):
        # glued with "=": argparse reads a bare "-1e-9" as an option
        code = main(["russo-check", "--fn", and2_path, "--bias", "0.5", f"--tol={tol}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestRoots:
    def test_par3(self, par3_path, capsys):
        assert main(["roots", "--fn", par3_path, "--s", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["s"] == 1
        assert len(data["points"]) == 1
        assert data["points"][0]["re"] == pytest.approx(0.0, abs=1e-8)
        assert data["points"][0]["multiplicity"] == 2

    def test_and2_empty(self, and2_path, capsys):
        assert main(["roots", "--fn", and2_path, "--s", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["points"] == []

    def test_constant_is_invalid_input(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(Junta(2, (), (1,)).to_json())
        assert main(["roots", "--fn", str(path), "--s", "1"]) == 2


LEARN_ARGS = [
    "--biases=-0.3,0.3", "--k", "2", "--s", "1",
    "--alpha", "0.6", "--gamma", "0.2", "--delta", "0.1",
    "--samples-per-coeff", "8000", "--threshold", "0.08",
]

# (target, biases, the other learn flags, the oracles the run consults)
DUMP_CASES = {
    # AND2's level-1 coefficients are 0.334 at bias -0.3 and 0.62 at 0.3.
    # The first checkpoint's radius is 0.21 at either bias, so at threshold
    # 0.2 oracle 0 cannot certify there and oracle 1 can: both are consulted
    "and2_both_oracles": (
        Junta(12, (3, 9), (-1, -1, -1, 1)), (-0.3, 0.3), [*LEARN_ARGS[1:-1], "0.2"], (0, 1),
    ),
    # OR2's level-1 coefficients at bias -0.3 are 0.62, and the restricted
    # dictator's is 0.95: oracle 0 certifies at its first checkpoint in every
    # round, so oracle 1 is never consulted and dumps an empty file
    "or2_one_oracle_unused": (
        Junta(12, (3, 9), (-1, 1, 1, 1)), (-0.3, 0.3), LEARN_ARGS[1:], (0,),
    ),
    "par3_unknown_biases": (
        Junta(6, (0, 2, 5), parity_core(3)),
        (-0.5, 0.0, 0.5),
        ["--k", "3", "--s", "1", "--alpha", "0.5", "--gamma", "0.2", "--delta", "0.1",
         "--samples-per-coeff", "4000", "--threshold", "0.1", "--unknown-biases"],
        (0, 1, 2),
    ),
}


class TestLearn:
    def test_success_and_report(self, and2_12_path, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            ["learn", "--fn", and2_12_path, *LEARN_ARGS, "--seed", "42",
             "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["status"] == "ExactSuccess"
        assert report["relevant"] == [3, 9]
        assert report["table"] == "0001"
        # only consulted oracles appear, and oracle 0 is always consulted
        assert "oracle_0" in report["samples"]
        assert set(report["samples"]) <= {"oracle_0", "oracle_1"}
        assert all(v > 0 for v in report["samples"].values())
        assert report["wall_ms"] > 0

    def test_failure_exit_code(self, par3_path, tmp_path):
        # a single uniform oracle cannot see a parity at level 1
        report_path = tmp_path / "report.json"
        code = main(
            ["learn", "--fn", par3_path, "--biases", "0", "--k", "1", "--s", "1",
             "--alpha", "0.5", "--gamma", "0.2", "--delta", "0.1",
             "--samples-per-coeff", "8000", "--threshold", "0.08",
             "--report", str(report_path)]
        )
        assert code == 1
        assert json.loads(report_path.read_text())["status"] == "BudgetExhausted"

    def test_dump_then_replay_reproduces(self, and2_12_path, tmp_path):
        prefix = str(tmp_path / "streams")
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert main(
            ["learn", "--fn", and2_12_path, *LEARN_ARGS, "--seed", "7",
             "--dump", prefix, "--report", str(r1)]
        ) == 0
        assert (tmp_path / "streams_oracle0.csv").exists()
        assert (tmp_path / "streams_oracle1.csv").exists()
        assert main(
            ["learn", "--replay", prefix, *LEARN_ARGS, "--report", str(r2)]
        ) == 0
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        a.pop("wall_ms")
        b.pop("wall_ms")
        assert a == b

    @pytest.mark.parametrize("case", sorted(DUMP_CASES))
    def test_dump_is_each_oracles_seeded_prefix(self, case, tmp_path):
        f, biases, args, used = DUMP_CASES[case]
        fn = tmp_path / "f.json"
        fn.write_text(f.to_json())
        prefix = str(tmp_path / "streams")
        report = tmp_path / "report.json"
        assert main(
            ["learn", "--fn", str(fn), f"--biases={','.join(map(str, biases))}", *args,
             "--seed", "7", "--dump", prefix, "--report", str(report)]
        ) == 0
        samples = json.loads(report.read_text())["samples"]
        assert sorted(samples) == [f"oracle_{j}" for j in used]
        for j, b in enumerate(biases):
            want = tmp_path / f"want{j}.csv"
            fresh = Oracle(f, b, master_seed=7, oracle_id=j)
            batch = fresh.draw_batch(samples.get(f"oracle_{j}", 0))
            np.savetxt(want, np.column_stack([batch.xs, batch.labels]), fmt="%d", delimiter=",")
            got = Path(f"{prefix}_oracle{j}.csv").read_bytes()
            assert got == want.read_bytes(), j

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_calibrated_defaults_learn_from_few_draws(self, tmp_path, seed):
        # without --samples-per-coeff or --threshold the cap is the
        # calibrated Hoeffding size, tens of millions of rows per scan here;
        # the certified checkpoints stop each scan after a few hundred
        fn, report = tmp_path / "f.json", tmp_path / "report.json"
        assert main(["gen", "--n", "10", "--k", "2", "--seed", "5", "--out", str(fn)]) == 0
        f = Junta.from_json_dict(json.loads(fn.read_text()))
        assert main(
            ["learn", "--fn", str(fn), "--biases=-0.3,0.3", "--k", "2", "--s", "1",
             "--alpha", "0.6", "--gamma", "0.2", "--delta", "0.1", "--seed", str(seed),
             "--report", str(report)]
        ) == 0
        got = json.loads(report.read_text())
        assert got["status"] == "ExactSuccess"
        assert got["relevant"] == list(f.relevant)
        assert sum(got["samples"].values()) < 10_000

    def test_dump_and_replay_exclude_each_other(self, and2_12_path, tmp_path):
        prefix = str(tmp_path / "streams")
        assert main(["learn", "--fn", and2_12_path, *LEARN_ARGS, "--dump", prefix]) == 0
        again = str(tmp_path / "again")
        assert main(["learn", "--replay", prefix, *LEARN_ARGS, "--dump", again]) == 2
        assert not list(tmp_path.glob("again_*"))

    def test_fn_required_without_replay(self):
        assert main(["learn", *LEARN_ARGS]) == 2

    def test_replay_streams_of_different_widths(self, tmp_path, capsys):
        (tmp_path / "mixed_oracle0.csv").write_text("1,-1,1\n-1,1,-1\n")
        (tmp_path / "mixed_oracle1.csv").write_text("1,-1,1,1,-1\n-1,1,-1,1,1\n")
        assert main(["learn", "--replay", str(tmp_path / "mixed"), *LEARN_ARGS]) == 2
        assert "different widths" in capsys.readouterr().err

    def test_replay_stream_with_non_sign_entries(self, tmp_path, capsys):
        (tmp_path / "bad_oracle0.csv").write_text("1,0,5\n")
        (tmp_path / "bad_oracle1.csv").write_text("1,-1,1\n")
        assert main(["learn", "--replay", str(tmp_path / "bad"), *LEARN_ARGS]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_streams_missing(self, tmp_path):
        assert main(["learn", "--replay", str(tmp_path / "ghost"), *LEARN_ARGS]) == 3

    def test_coverage_checked(self, par3_path):
        code = main(
            ["learn", "--fn", par3_path, "--biases", "0.5", "--k", "3", "--s", "1",
             "--alpha", "0.5", "--gamma", "0.2", "--delta", "0.1"]
        )
        assert code == 2


class TestBench:
    @staticmethod
    def config(tmp_path, **over):
        cfg = {
            "n": 10,
            "k": 2,
            "s": 1,
            "biases": [-0.3, 0.3],
            "trials": 2,
            "master_seed": 5,
            "alpha": 0.6,
            "gamma": 0.2,
            "delta": 0.1,
            "samples_per_coeff": 4000,
            "threshold": 0.08,
        }
        cfg.update(over)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_grid_rows(self, tmp_path):
        out = tmp_path / "runs.csv"
        cfg = self.config(tmp_path, n=[8, 10])
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,k,s,trial,status,relevant,samples,wall_ms"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] in ("8", "10")
            assert cells[4] in ("ExactSuccess", "ConstantFunction", "BudgetExhausted", "Inconsistent")
            assert int(cells[6]) > 0

    def test_resume_appends_identical_rows(self, tmp_path):
        cfg = self.config(tmp_path)
        full = tmp_path / "full.csv"
        assert main(["bench", "--config", cfg, "--out", str(full)]) == 0
        want = full.read_text().splitlines()

        # a clean cut after a row, and a last row cut short mid-write
        clean = "\n".join(want[:2]) + "\n"
        for head in [clean, clean + want[2][:12]]:
            partial = tmp_path / "partial.csv"
            partial.write_text(head)
            assert main(["bench", "--config", cfg, "--out", str(partial)]) == 0
            got = partial.read_text().splitlines()
            assert [row.rsplit(",", 1)[0] for row in got] == [
                row.rsplit(",", 1)[0] for row in want
            ]

    def test_foreign_file_rejected(self, tmp_path):
        out = tmp_path / "notes.csv"
        for foreign in (b"something else\n", NOT_UTF8):
            out.write_bytes(foreign)
            assert main(["bench", "--config", self.config(tmp_path), "--out", str(out)]) == 2
            assert out.read_bytes() == foreign

    def test_bad_grid(self, tmp_path):
        out = tmp_path / "runs.csv"
        cfg = self.config(tmp_path, k=5, n=3)
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("unknown", [False, True])
    def test_scan_size_overflow_leaves_no_file(self, tmp_path, capsys, unknown):
        # only a scan sees the calibrated cap, which needs n and the biases;
        # bench sizes every cell's scans before it opens the CSV
        out = tmp_path / "runs.csv"
        cfg = self.config(
            tmp_path, threshold=1e-300, samples_per_coeff=None, unknown_biases=unknown
        )
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert "sample size too large" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_key(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"n": 5}))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text("{")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        out = tmp_path / "o.csv"
        valid = json.loads(Path(self.config(tmp_path)).read_text())
        for bad in [
            [1],
            {**valid, "trials": "x"},
            {**valid, "biases": 0.3},
            {**valid, "n": 8.9},
            {**valid, "unknown_biases": "false"},
            {**valid, "biases": [-0.3, 1.5]},
            {**valid, "biases": []},
            # JSON true/false load as bool, a subclass of int
            {**valid, "trials": True},
            {**valid, "n": [8, True]},
            {**valid, "master_seed": False},
            {**valid, "samples_per_coeff": True},
            # float fields need a JSON number: no bool, no string
            {**valid, "alpha": True},
            {**valid, "biases": [False, 0.5]},
            {**valid, "delta": "0.1"},
            {**valid, "gamma": "0.2"},
            {**valid, "threshold": False},
            {**valid, "alpha": 10**400},
            # a misspelled optional key would run at its default
            {**valid, "treshold": 0.08},
            {**valid, "samples_per_coef": 4000},
            {**valid, "trials": -1},
            {**valid, "biases": "0.3"},
        ]:
            cfg.write_text(json.dumps(bad))
            capsys.readouterr()
            assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2, bad
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()

    @pytest.mark.parametrize(
        "key, over",
        # a null samples_per_coeff calibrates the scan, which a high threshold keeps small
        [("samples_per_coeff", {"threshold": 0.5}), ("threshold", {}), ("unknown_biases", {})],
    )
    def test_null_optional_key_means_default(self, tmp_path, key, over):
        rows = []
        for null in (True, False):
            path = Path(self.config(tmp_path, **over))
            cfg = json.loads(path.read_text())
            if null:
                cfg[key] = None
            else:
                cfg.pop(key, None)
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"null_{null}.csv"
            assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
            rows.append([row.rsplit(",", 1)[0] for row in out.read_text().splitlines()])
        assert len(rows[0]) == 1 + 2
        assert rows[0] == rows[1]

    def test_missing_config(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--config", missing, "--out", str(tmp_path / "o.csv")]) == 3


@pytest.mark.parametrize("command", ["gen", "spectrum", "learn", "bench"])
def test_huge_n_exits_2(tmp_path, capsys, command):
    huge = 10**20
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": huge, "relevant": [0, 1], "core": "0001"}))
    out = tmp_path / "out"
    argv = {
        "gen": ["gen", "--n", str(huge), "--k", "2", "--seed", "0", "--out", str(out)],
        "spectrum": ["spectrum", "--fn", str(fn), "--bias", "0.2", "--out", str(out)],
        "learn": ["learn", "--fn", str(fn), *LEARN_ARGS, "--report", str(out)],
        "bench": ["bench", "--config", TestBench.config(tmp_path, n=huge), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "learn", "bench"])
def test_negative_seed_exits_2(and2_12_path, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "gen": ["gen", "--n", "6", "--k", "2", "--seed", "-1", "--out", str(out)],
        "learn": ["learn", "--fn", and2_12_path, *LEARN_ARGS, "--seed", "-1",
                  "--report", str(out)],
        "bench": ["bench", "--config", TestBench.config(tmp_path, master_seed=-1),
                  "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1.0", "1.0", "1.5"])
@pytest.mark.parametrize("command", ["learn", "bench", "russo-check", "spectrum"])
def test_bias_outside_the_domain_exits_2(and2_12_path, tmp_path, capsys, command, value):
    out = tmp_path / "out"
    argv = {
        "learn": ["learn", "--fn", and2_12_path, f"--biases=0.3,{value}", *LEARN_ARGS[1:],
                  "--report", str(out)],
        "bench": ["bench", "--config", TestBench.config(tmp_path, biases=[0.3, float(value)]),
                  "--out", str(out)],
        "russo-check": ["russo-check", "--fn", and2_12_path, f"--bias=0.3,{value}",
                        "--out", str(out)],
        "spectrum": ["spectrum", "--fn", and2_12_path, f"--bias={value}", "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# sample sizes past float range, and a k whose table cannot be held
OVERFLOW_LEARN_ARGS = {
    "constancy": ["--k", "2", "--s", "1", "--alpha", "1e-300", "--gamma", "0.5",
                  "--samples-per-coeff", "100", "--threshold", "0.1"],
    "hoeffding": ["--k", "2", "--s", "1", "--alpha", "0.7", "--gamma", "0.5",
                  "--threshold", "1e-300"],
    "huge_k": ["--k", "2000", "--s", "1000", "--alpha", "0.6", "--gamma", "0.2",
               "--samples-per-coeff", "100", "--threshold", "0.08"],
    "huge_n_to_the_s": ["--k", "2", "--s", "300", "--alpha", "0.6", "--gamma", "0.2",
                        "--threshold", "0.08"],
}


@pytest.mark.parametrize("case", [*OVERFLOW_LEARN_ARGS, "bench"])
def test_sample_size_overflow_exits_2(tmp_path, capsys, case):
    fn = tmp_path / "f.json"
    assert main(["gen", "--n", "12", "--k", "2", "--seed", "5", "--out", str(fn)]) == 0
    out = tmp_path / "out"
    if case == "bench":
        argv = ["bench", "--config", TestBench.config(tmp_path, alpha=1e-300), "--out", str(out)]
    else:
        argv = ["learn", "--fn", str(fn), "--biases=-0.3,0.3", "--delta", "0.1",
                *OVERFLOW_LEARN_ARGS[case], "--report", str(out)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "russo-check"])
def test_unparsable_bias_list_exits_2(and2_12_path, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "learn": ["learn", "--fn", and2_12_path, "--biases=0.3,abc", *LEARN_ARGS[1:],
                  "--report", str(out)],
        "russo-check": ["russo-check", "--fn", and2_12_path, "--bias", "x", "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: could not parse bias list")
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "bench", "learn"])
def test_input_not_utf8_exits_2(tmp_path, capsys, command):
    binary = tmp_path / "binary"
    binary.write_bytes(NOT_UTF8)
    (tmp_path / "streams_oracle0.csv").write_bytes(NOT_UTF8)
    (tmp_path / "streams_oracle1.csv").write_text("1,-1,1\n")
    out = tmp_path / "out"
    argv = {
        "spectrum": ["spectrum", "--fn", str(binary), "--bias", "0.2", "--out", str(out)],
        "bench": ["bench", "--config", str(binary), "--out", str(out)],
        "learn": ["learn", "--replay", str(tmp_path / "streams"), *LEARN_ARGS,
                  "--report", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(2, 8),
    k=st.integers(1, 2),
    target_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    unknown=st.booleans(),
)
def test_dump_then_replay_reproduces_any_run(n, k, target_seed, seed, unknown):
    f = random_junta(n, k, target_seed, require_nonconstant=True)
    args = LEARN_ARGS + (["--unknown-biases"] if unknown else [])
    with tempfile.TemporaryDirectory() as tmp:
        fn, prefix = Path(tmp) / "f.json", str(Path(tmp) / "streams")
        r1, r2 = Path(tmp) / "r1.json", Path(tmp) / "r2.json"
        fn.write_text(f.to_json())
        code = main(["learn", "--fn", str(fn), *args, "--seed", str(seed),
                     "--dump", prefix, "--report", str(r1)])
        assert code in (0, 1)
        assert main(["learn", "--replay", prefix, *args, "--report", str(r2)]) == code
        a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
    a.pop("wall_ms")
    b.pop("wall_ms")
    assert a == b


# one oracle with k = 1, and so few rows per coefficient that a stream that
# loads can also run the learner
REPLAY_ARGS = [
    "--biases=0.3", "--k", "1", "--s", "1", "--alpha", "0.6", "--gamma", "0.2",
    "--delta", "0.1", "--samples-per-coeff", "20", "--threshold", "0.08",
]
STREAM_BYTES = list(b"-10,\n\r #+.\xff")


@st.composite
def _replay_streams(draw):
    """Byte strings over STREAM_BYTES: a table of -1/1 rows, then a few
    insertions that may break it."""
    width = draw(st.integers(1, 5))
    row = st.lists(st.sampled_from([b"1", b"-1"]), min_size=width, max_size=width)
    data = bytearray(b"".join(b",".join(r) + b"\n" for r in draw(st.lists(row, max_size=12))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.lists(st.sampled_from(STREAM_BYTES), min_size=1, max_size=20))
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(_replay_streams())
def test_replay_of_any_stream_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp) / "streams")
        path = Path(f"{prefix}_oracle0.csv")
        path.write_bytes(data)
        try:
            load_examples_csv(path)
            rejected = False
        except JuntaLabError:
            rejected = True
        code = main(["learn", "--replay", prefix, *REPLAY_ARGS,
                     "--report", str(Path(tmp) / "report.json")])
    assert code in (0, 1, 2)
    if rejected:
        assert code == 2


# JSON values that no integer, number or boolean field accepts, and the wrong
# kinds for integer and number fields
NEVER_VALID = st.one_of(
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.text(max_size=2), min_size=1, max_size=2),
)
NON_INT = st.one_of(NEVER_VALID, st.booleans(), st.floats())
NON_NUMBER = st.one_of(NEVER_VALID, st.booleans())
NOT_AN_OBJECT = st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text(), st.none())
NOT_IN_UNIT = st.one_of(  # outside (0, 1]
    st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
    st.just(float("nan")), st.integers(max_value=0), st.integers(min_value=2),
)


def _cut_or_dump(draw, data, how):
    text = json.dumps(data)
    return text[: draw(st.integers(0, len(text) - 1))] if how == "cut" else text


@st.composite
def _malformed_juntas(draw, how):
    """Junta JSON with k <= 4, broken one way: how drops a key, cuts the text
    short, puts no object at the top, or breaks one field."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers({"entry": 1, "range": 1, "order": 2}.get(how, 0), min(4, n)))
    rel = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    data = {"n": n, "relevant": rel, "core": draw(st.text("01", min_size=1 << k, max_size=1 << k))}
    if how == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif how == "n":
        data["n"] = draw(st.one_of(
            NON_INT, st.none(), st.integers(-1, max(rel, default=-1)),
            st.integers(min_value=MAX_AMBIENT_VARS + 1),
        ))
    elif how == "relevant":
        data["relevant"] = draw(st.one_of(st.integers(), st.text(max_size=3), st.none()))
    elif how == "extra":  # one entry more than the core covers
        rel.insert(draw(st.integers(0, k)), draw(st.one_of(st.integers(), NON_INT, st.none())))
    elif how == "entry":
        rel[draw(st.integers(0, k - 1))] = draw(st.one_of(NON_INT, st.none()))
    elif how == "range":  # still increasing, but not all below n
        if draw(st.booleans()):
            rel[-1] = draw(st.integers(min_value=n))
        else:
            rel[0] = draw(st.integers(max_value=-1))
    elif how == "order":
        rel.reverse()
    elif how == "core":
        data["core"] = draw(st.one_of(
            st.text("01", max_size=20).filter(lambda c: len(c) != 1 << k),
            st.text(min_size=1, max_size=20).filter(lambda c: set(c) - set("01")),
            st.integers(), st.none(), st.lists(st.text("01", max_size=2), max_size=2),
        ))
    elif how == "top":
        data = draw(NOT_AN_OBJECT)
    return _cut_or_dump(draw, data, how)


# runs no learn; each grid key may also hide a bad value in a list
BENCH_VALID = {
    "n": [8, 10], "k": 2, "s": 1, "biases": [-0.3, 0.3], "trials": 0, "master_seed": 5,
    "alpha": 0.6, "gamma": 0.2, "delta": 0.1, "samples_per_coeff": 4000, "threshold": 0.08,
}
GRID_CELL = {"n": 10, "k": 2, "s": 1}
# per key, values that break a config that is otherwise BENCH_VALID
BENCH_BREAKERS = {
    "n": st.one_of(NON_INT, st.none(), st.integers(max_value=1),
                   st.integers(min_value=MAX_AMBIENT_VARS + 1)),
    "k": st.one_of(NON_INT, st.none(), st.integers(max_value=-1), st.integers(min_value=3)),
    "s": st.one_of(NON_INT, st.none(), st.integers(max_value=0)),
    "biases": st.one_of(
        NON_NUMBER, st.none(), st.floats(), st.just([]),
        st.floats(-0.99, 0.99).map(lambda b: [b, b]),
        st.one_of(NON_NUMBER, st.none(), st.floats(min_value=1.0), st.floats(max_value=-1.0),
                  st.just(float("nan"))).map(lambda b: [0.3, b]),
    ),
    "trials": st.one_of(NON_INT, st.none(), st.integers(max_value=-1)),
    "master_seed": st.one_of(NON_INT, st.none(), st.integers(max_value=-1)),
    "alpha": st.one_of(NON_NUMBER, st.none(), NOT_IN_UNIT),
    "gamma": st.one_of(NON_NUMBER, st.none(), NOT_IN_UNIT),
    "delta": st.one_of(NON_NUMBER, st.none(), NOT_IN_UNIT, st.just(1), st.just(1.0)),
    "samples_per_coeff": st.one_of(NON_INT, st.integers(max_value=0)),
    "threshold": st.one_of(NON_NUMBER, st.floats(max_value=0.0), st.just(float("nan"))),
    "unknown_biases": st.one_of(st.integers(), st.floats(), st.text(max_size=4)),
}


@st.composite
def _malformed_bench_configs(draw, how):
    """BENCH_VALID broken one way: how drops or adds a key, cuts the text
    short, puts no object at the top, or names the key to set to a value
    from BENCH_BREAKERS."""
    data = dict(BENCH_VALID)
    if how == "top":
        data = draw(NOT_AN_OBJECT)
    elif how == "drop":
        del data[draw(st.sampled_from(sorted(set(data) - {"samples_per_coeff", "threshold"})))]
    elif how == "add":
        data[draw(st.text(max_size=6).filter(lambda key: key not in BENCH_BREAKERS))] = 1
    elif how in BENCH_BREAKERS:
        bad = draw(BENCH_BREAKERS[how])
        data[how] = [GRID_CELL[how], bad] if how in GRID_CELL and draw(st.booleans()) else bad
    return _cut_or_dump(draw, data, how)


def _assert_rejected(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.json", Path(tmp) / "out"
        path.write_text(text)
        argv = {
            "spectrum": ["spectrum", "--fn", str(path), "--bias", "0.2", "--out", str(out)],
            "bench": ["bench", "--config", str(path), "--out", str(out)],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2, text
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize(
    "how", ["drop", "n", "relevant", "extra", "entry", "range", "order", "core", "cut", "top"]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malformed_junta_json_exits_2(how, data):
    _assert_rejected("spectrum", data.draw(_malformed_juntas(how)))


@pytest.mark.parametrize("how", ["drop", "add", "cut", "top", *sorted(BENCH_BREAKERS)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malformed_bench_json_exits_2(how, data):
    _assert_rejected("bench", data.draw(_malformed_bench_configs(how)))
