import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hermfair
import hermfair.cli
import hermfair.scenarios
from hermfair.cli import main
from hermfair.model import ConstraintSet, ModelParams
from hermfair.population import population_from_csv, population_to_csv
from hermfair.solver import SolveRequest, solve
from hermfair.stats import chi2_independence, table_from_csv, wilson_interval

EXPOSURE_TABLE = ",not_exposed,exposed\nany_same_sex,883,219\nopposite_sex_only,1975,122\n"


def write(path, text):
    path.write_text(text)
    return str(path)


class TestAllocate:
    def test_threshold_decisions_gamma_zero(self, tmp_path, capsys):
        # gamma 0: show iff p >= beta_g / alpha; A: 0.15, B: 0.25
        pop_csv = write(tmp_path / "pop.csv",
                        "group,p,rho\nA,0.2,0.5\nA,0.1,0.5\nB,0.3,0.5\nB,0.2,0.5\n")
        out = tmp_path / "out"
        rc = main(["allocate", pop_csv, "--gamma", "0", "--out", str(out)])
        assert rc == 0
        with open(out / "allocation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["decision"] for r in rows] == ["1", "0", "1", "0"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "optimal"
        assert summary["constraints"] == []

    def test_constrained_allocation_summary(self, tmp_path):
        pop_csv = write(tmp_path / "pop.csv",
                        "group,p,rho\nA,0.9,0.5\nA,0.5,0.4\nB,0.1,0.8\nB,0.05,0.7\n")
        out = tmp_path / "out"
        rc = main(["allocate", pop_csv, "--parity", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["constraints"] == ["parity_exposure"]
        assert abs(summary["parity_gap"]) <= summary["tolerance"] + 1e-8

    def test_undefined_gap_written_as_null(self, tmp_path):
        # group A never clicks, so the EO gap has no denominator
        pop_csv = write(tmp_path / "pop.csv",
                        "group,p,rho\nA,0,0.5\nA,0,0.4\nB,0.1,0.8\nB,0.05,0.7\n")
        out = tmp_path / "out"
        assert main(["allocate", pop_csv, "--parity", "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["eo_gap"] is None
        assert summary["parity_gap"] is not None

    @pytest.mark.parametrize("mode", ["fractional", "binary-exact"])
    @pytest.mark.parametrize("flag, rows", [
        ("--eo", "A,0,0.5\nA,0,0.4\nB,0.3,0.5\nB,0.1,0.2\n"),  # group A's p sums to 0
        ("--eho", "A,0.5,0\nA,0.4,0\nB,0.3,0.5\nB,0.1,0.2\n"),  # group A's rho sums to 0
    ], ids=["eo", "eho"])
    def test_zero_weight_group_exits_1(self, tmp_path, capsys, mode, flag, rows):
        pop_csv = write(tmp_path / "pop.csv", "group,p,rho\n" + rows)
        rc = main(["allocate", pop_csv, flag, "--mode", mode, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a group has zero total ") and "Traceback" not in err

    def test_byte_order_mark_accepted(self, tmp_path):
        # as spreadsheet "CSV UTF-8" exports write it
        pop_csv = tmp_path / "bom.csv"
        pop_csv.write_bytes(b"\xef\xbb\xbfgroup,p,rho\r\nA,0.5,0.5\r\nB,0.25,0.75\r\n")
        assert main(["allocate", str(pop_csv), "--parity", "--out", str(tmp_path / "o")]) == 0

    def test_empty_population_exits_1(self, tmp_path):
        pop_csv = write(tmp_path / "pop.csv", "")
        assert main(["allocate", pop_csv, "--out", str(tmp_path)]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["allocate", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 1

    def test_binary_exact_cap_exits_1(self, tmp_path, capsys):
        lines = ["group,p,rho"] + [f"A,0.5,0.5" for _ in range(15)] + ["B,0.5,0.5"] * 15
        pop_csv = write(tmp_path / "pop.csv", "\n".join(lines) + "\n")
        rc = main(["allocate", pop_csv, "--mode", "binary-exact", "--out", str(tmp_path)])
        assert rc == 1
        assert "enumeration cap" in capsys.readouterr().err

    def test_invalid_params_exit_1(self, tmp_path):
        pop_csv = write(tmp_path / "pop.csv", "group,p,rho\nA,0.5,0.5\nB,0.5,0.5\n")
        assert main(["allocate", pop_csv, "--alpha", "0", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance_exits_1(self, tmp_path, capsys, monkeypatch, tol):
        monkeypatch.setattr(hermfair.cli, "solve", fail_if_called)
        pop_csv = write(tmp_path / "pop.csv", "group,p,rho\nA,0.5,0.5\nB,0.5,0.5\n")
        rc = main(["allocate", pop_csv, "--parity", "--tol", tol, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "tolerance must be finite and non-negative" in capsys.readouterr().err


    def test_allocation_csv_bytes(self, tmp_path):
        pop = population_from_csv(io.StringIO(
            "group,p,rho\nA,0.1,0.5\nA,0.7,0.3\nA,0,1\nB,0.9,0.2\nB,0.05,0.95\nB,1,0\n"))
        pop_csv = tmp_path / "pop.csv"
        population_to_csv(pop, pop_csv)
        out = tmp_path / "out"
        assert main(["allocate", str(pop_csv), "--parity", "--out", str(out)]) == 0
        result = solve(SolveRequest(pop, ModelParams.default(), ConstraintSet.parity(1e-6)))
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["group", "p", "rho", "decision"])
        for g, p, r, d in zip(pop.groups, pop.p, pop.rho, result.allocation.values):
            writer.writerow([g, format(p, ".17g"), format(r, ".17g"), format(d, ".17g")])
        assert (out / "allocation.csv").read_bytes() == buf.getvalue().encode()
        assert 0 < result.n_fractional  # the file carries a fraction, not only 0 and 1


def fail_if_called(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


class TestCeilings:
    """Each ceiling exits 1 before any work starts."""

    def test_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hermfair.cli, "population_from_csv", fail_if_called)
        pop_csv = write(tmp_path / "pop.csv", "group,p,rho\nA,0.5,0.5\nB,0.5,0.5\n")
        rc = main(["allocate", pop_csv, "--mode", "binary-exact", "--cap", "31",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "--cap 31 exceeds the ceiling 30" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--jobs", "65"], "65 is greater than the maximum of 64"),
        (["--grid", "0:1:1e-5"], "--grid: grid 0.0:1.0:1e-05 has more than 10000 points"),
        (["--grid", "0:1:0"], "--grid: step must be positive"),
        (["--grid", ",".join(["0.1"] * 10001)], "grid has 10001 points, more than 10000"),
        (["--na", "1000001"], "ceiling of 1000000 users per group"),
        (["--nb", str(10**12)], "ceiling of 1000000 users per group"),
        (["--reps", "100000"], "14 grid points x 100000 replications is 1400000 cells"),
        (["--grid", "0.05", "--reps", "100001"], "is 100001 cells, more than 100000"),
        (["--grid", "1:0:0.1"], "--grid: grid stop 0.0 is below its start 1.0"),
    ])
    def test_sweep_flags(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(hermfair.cli, "run_sweep", fail_if_called)
        rc = main(["sweep", "--scenario", "A", *argv, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"jobs": 65}, "65 is greater than the maximum of 64"),
        ({"grid": {"start": 0, "stop": 1, "step": 1e-5}}, "config grid: grid 0:1:1e-05 has more"),
        ({"grid": [0.1] * 10001}, "grid has 10001 points, more than 10000"),
        ({"n_a": 1000001}, "ceiling of 1000000 users per group"),
        ({"reps": 10**9}, "cells, more than 100000"),
        ({"grid": {"start": 1, "stop": 0, "step": 0.1}}, "config grid: grid stop 0 is below"),
    ])
    def test_sweep_config(self, tmp_path, capsys, monkeypatch, config, message):
        monkeypatch.setattr(hermfair.cli, "run_sweep", fail_if_called)
        cfg = write(tmp_path / "cfg.json", json.dumps({"scenario": "A", **config}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("flag", ["--na", "--nb"])
    def test_export_group_size(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.setattr(hermfair.cli, "sample_population", fail_if_called)
        out = tmp_path / "pop.csv"
        assert main(["export-population", flag, "1000001", "--out", str(out)]) == 1
        assert "ceiling of 1000000 users per group" in capsys.readouterr().err
        assert not out.exists()


class TestConfigTypes:
    """Each value of the wrong JSON type exits 1 before the sweep runs."""

    @pytest.mark.parametrize("config, message", [
        ({"reps": 1.0}, "reps must be an integer, got 1.0"),
        ({"n_a": 10.0}, "n_a must be an integer, got 10.0"),
        ({"jobs": 2.0}, "jobs must be an integer, got 2.0"),
        ({"seed": 3.0}, "seed must be an integer, got 3.0"),
        ({"reps": True}, "reps must be an integer, got True"),
        ({"tolerance": float("nan")}, "tolerance must be a finite number, got nan"),
        ({"tolerance": True}, "tolerance must be a finite number, got True"),
        ({"tolerance": 10 ** 400}, "tolerance must be a finite number"),
        ({"scenario": "Z"}, "scenario must be one of"),
        ({"uptake": 3}, "uptake must be one of"),
        ({"grid": []}, "grid must be a non-empty list"),
        ({"grid": [0.1, "x"]}, "grid must be a non-empty list"),
        ({"grid": {"start": 0, "stop": 1}}, "{start, stop, step} object"),
        ({"grid": {"start": 0, "stop": 1, "step": 0.5, "x": 1}}, "{start, stop, step} object"),
        ({"grid": {"start": 0, "stop": 1, "step": 0}}, "config grid: step must be positive"),
        ({"repz": 5}, "unknown run configuration keys: ['repz']"),
    ])
    def test_config(self, tmp_path, capsys, monkeypatch, config, message):
        monkeypatch.setattr(hermfair.cli, "run_sweep", fail_if_called)
        cfg = write(tmp_path / "cfg.json", json.dumps({"scenario": "A", **config}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "config must be a JSON object"),
        ("{", "config is not valid JSON"),
    ])
    def test_config_not_a_json_object(self, tmp_path, capsys, monkeypatch, text, message):
        monkeypatch.setattr(hermfair.cli, "run_sweep", fail_if_called)
        cfg = write(tmp_path / "cfg.json", text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--tol", "nan"], "tolerance must be a finite number, got nan"),
        (["--tol", "inf"], "tolerance must be a finite number, got inf"),
        (["--tol", "-1"], "tolerance must be finite and non-negative, got -1.0"),
        (["--na", "0"], "group sizes must be at least 1"),
        (["--reps", "0"], "replications must be at least 1"),
    ])
    def test_flags(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(hermfair.cli, "run_sweep", fail_if_called)
        rc = main(["sweep", "--scenario", "A", *argv, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "base seed must be non-negative"),
        (["--jobs", "0"], "jobs must be at least 1"),
    ])
    def test_run_arguments(self, tmp_path, capsys, monkeypatch, argv, message):
        # checked by run_sweep itself, before any cell runs
        monkeypatch.setattr(hermfair.scenarios, "_run_cell", fail_if_called)
        rc = main(["sweep", "--scenario", "A", *argv, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_flag_replaces_bad_config_value(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps(
            {"scenario": "A", "reps": 1.0, "n_a": 10, "n_b": 10, "grid": [0.05]}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--reps", "1", "--out", str(out)]) == 0
        assert json.loads((out / "metadata.json").read_text())["replications"] == 1


def test_config_sweep_without_jsonschema(tmp_path):
    """A `--config` sweep needs no jsonschema: the import is blocked outright."""
    cfg = write(tmp_path / "cfg.json", json.dumps(
        {"scenario": "B", "reps": 1, "n_a": 10, "n_b": 10,
         "grid": {"start": 0.01, "stop": 0.05, "step": 0.02}}))
    out = tmp_path / "o"
    code = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        f"sys.path.insert(0, {str(Path(hermfair.__file__).parents[1])!r})\n"
        "from hermfair.cli import main\n"
        f"sys.exit(main(['sweep', '--config', {cfg!r}, '--out', {str(out)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "metadata.json").read_text())["grid"] == [0.01, 0.03, 0.05]


def test_files_are_utf8_in_any_locale(tmp_path):
    """A fresh interpreter in the C locale, with UTF-8 mode off and a warning
    made an error wherever a file is opened in the locale's encoding: files
    are read and written as UTF-8 all the same."""
    # U+00A0 is whitespace, so its line is skipped: the file holds 2 users
    pop = tmp_path / "pop.csv"
    pop.write_bytes("group,p,rho\nA,0.5,0.5\n\u00a0\nB,0.3,0.6\n".encode())
    cfg = write(tmp_path / "cfg.json", json.dumps(
        {"scenario": "A", "reps": 1, "n_a": 10, "n_b": 10, "grid": [0.05]}))
    runs = [
        ["allocate", str(pop), "--eho", "--out", str(tmp_path / "alloc")],
        ["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")],
        ["stats", "chi2", write(tmp_path / "t.csv", EXPOSURE_TABLE),
         "--out", str(tmp_path / "c.json")],
    ]
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(hermfair.__file__).parents[1])!r})\n"
        "from hermfair.cli import main\n"
        "from hermfair.population import population_from_csv, population_to_csv\n"
        f"pop = population_from_csv({str(pop)!r})\n"
        f"population_to_csv(pop, {str(tmp_path / 'copy.csv')!r})\n"
        f"same = population_from_csv({str(tmp_path / 'copy.csv')!r}) == pop\n"
        f"print(json.dumps([pop.size, same, [main(argv) for argv in {runs!r}]]))\n"
    )
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONWARNDEFAULTENCODING="1", PYTHONWARNINGS="error::EncodingWarning")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [2, True, [0, 0, 0]]
    assert json.loads((tmp_path / "c.json").read_text(encoding="utf-8"))["dof"] == 1


def test_cold_start_loads_scipy_only_where_it_computes(tmp_path):
    """A fresh interpreter: the CLI, an export and a one-row allocate load no
    scipy and no ``multiprocessing``; survey statistics load
    ``scipy.special`` alone."""
    pop, table = tmp_path / "pop.csv", write(tmp_path / "t.csv", EXPOSURE_TABLE)
    runs = {
        "export": ["export-population", "--na", "20", "--nb", "20", "--out", str(pop)],
        "allocate": ["allocate", str(pop), "--parity", "--out", str(tmp_path / "alloc")],
        "wilson": ["stats", "wilson", "--successes", "3", "--n", "10",
                   "--out", str(tmp_path / "w.json")],
        "chi2": ["stats", "chi2", table, "--out", str(tmp_path / "c.json")],
    }
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(hermfair.__file__).parents[1])!r})\n"
        "def loaded(top):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == top)\n"
        "from hermfair.cli import main\n"
        "seen = {'import': (0, loaded('scipy'), loaded('multiprocessing'))}\n"
        f"for stage, argv in {runs!r}.items():\n"
        "    seen[stage] = (main(argv), loaded('scipy'), loaded('multiprocessing'))\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert {stage: rc for stage, (rc, *_) in seen.items()} == dict.fromkeys(seen, 0)
    for stage in ("import", "export", "allocate"):
        assert seen[stage][1:] == [[], []], stage
    loaded = seen["chi2"][1]
    assert "scipy.special" in loaded
    assert [m for m in loaded if m.split(".")[1:2] in (["stats"], ["optimize"])] == []


def test_builtin_sweep_needs_no_lp_solver(tmp_path):
    """A fresh interpreter: every cell of a built-in scenario-A sweep ends on
    a numpy engine, so ``scipy.optimize`` is never imported."""
    out = tmp_path / "sweep"
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(hermfair.__file__).parents[1])!r})\n"
        "from hermfair.cli import main\n"
        f"rc = main(['sweep', '--scenario', 'A', '--reps', '1', '--na', '100', '--nb', '100',"
        f" '--out', {str(out)!r}])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('scipy.optimize'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    assert json.loads((out / "metadata.json").read_text())["n_failed"] == 0


class TestSweep:
    def run_tiny(self, tmp_path, name, extra=()):
        out = tmp_path / name
        rc = main(["sweep", "--scenario", "A", "--grid", "0.05,0.2", "--reps", "2",
                   "--na", "25", "--nb", "25", "--seed", "7", "--out", str(out), *extra])
        assert rc == 0
        return out

    def test_outputs_exist(self, tmp_path):
        out = self.run_tiny(tmp_path, "s1")
        for name in ("records.csv", "aggregates.csv", "aggregates.json", "metadata.json"):
            assert (out / name).exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["scenario"] == "A"
        assert meta["base_seed"] == 7
        assert meta["rng_stream"] == "numpy-pcg64"
        assert meta["n_failed"] == 0
        assert "wall_time_s" in meta and "numpy_version" in meta

    def test_byte_identical_reruns(self, tmp_path):
        a = self.run_tiny(tmp_path, "a")
        b = self.run_tiny(tmp_path, "b")
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "aggregates.csv").read_bytes() == (b / "aggregates.csv").read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        a = self.run_tiny(tmp_path, "serial")
        b = self.run_tiny(tmp_path, "parallel", extra=("--jobs", "2"))
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_scenario_d_varies_xi(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["sweep", "--scenario", "D", "--grid", "0.02,0.5", "--reps", "1",
                   "--na", "20", "--nb", "20", "--out", str(out)])
        assert rc == 0
        with open(out / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["param_name"] for r in rows} == {"xi"}
        assert {float(r["param_value"]) for r in rows} == {0.02, 0.5}

    def test_gamma_scenario_default_grid(self, tmp_path):
        out = tmp_path / "g"
        rc = main(["sweep", "--scenario", "gamma", "--reps", "1",
                   "--na", "10", "--nb", "10", "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["param_name"] == "gamma"
        assert meta["grid"][0] == 0.0 and meta["grid"][-1] == 1.0

    def test_colon_grid_syntax(self, tmp_path):
        out = tmp_path / "colon"
        rc = main(["sweep", "--scenario", "A", "--grid", "0.04:0.1:0.03", "--reps", "1",
                   "--na", "10", "--nb", "10", "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["grid"] == [0.04, 0.07, 0.1]

    def test_requires_scenario(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "x")]) == 1

    def test_config_file(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "scenario": "B", "reps": 1, "n_a": 15, "n_b": 15,
            "grid": {"start": 0.01, "stop": 0.05, "step": 0.02}, "seed": 3,
        }))
        out = tmp_path / "cfg-out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["scenario"] == "B"
        assert meta["grid"] == [0.01, 0.03, 0.05]

    def test_config_rejects_unknown_keys(self, tmp_path):
        cfg = write(tmp_path / "bad.json", json.dumps({"scenario": "A", "repz": 5}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_config_rejects_bad_types(self, tmp_path):
        cfg = write(tmp_path / "bad.json", json.dumps({"scenario": "A", "reps": "ten"}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_flags_override_config(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps(
            {"scenario": "A", "reps": 5, "n_a": 10, "n_b": 10, "grid": [0.05]}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--reps", "1", "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["replications"] == 1


class TestStats:
    def test_chi2_golden(self, tmp_path, capsys):
        table = write(tmp_path / "t.csv", EXPOSURE_TABLE)
        assert main(["stats", "chi2", table]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == pytest.approx(148.37, abs=0.01)
        assert payload["dof"] == 1
        assert payload["cramers_v"] == pytest.approx(0.215, abs=0.001)
        assert len(payload["expected"]) == 2

    def test_wilson_golden(self, capsys):
        assert main(["stats", "wilson", "--successes", "219", "--n", "1102"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert round(payload["lo"], 3) == 0.176
        assert round(payload["hi"], 3) == 0.223

    def test_proportions(self, tmp_path, capsys):
        table = write(tmp_path / "t.csv", EXPOSURE_TABLE)
        assert main(["stats", "proportions", table, "--axis", "rows"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert round(payload["cells"][0][1]["point"], 3) == 0.199

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    def test_proportions_confidence(self, tmp_path, capsys, axis):
        table = write(tmp_path / "t.csv", ",yes,no\nA,12,30\nB,25,18\n")
        assert main(["stats", "proportions", table, "--axis", axis, "--confidence", "0.5"]) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0][0]
        assert cell["confidence"] == 0.5
        ref = wilson_interval(12, 42 if axis == "rows" else 37, 0.5)
        assert (cell["lo"], cell["hi"]) == (ref.lo, ref.hi)
        if axis == "rows":
            assert (round(cell["lo"], 4), round(cell["hi"], 4)) == (0.2412, 0.3348)

    @pytest.mark.parametrize("confidence", ["0", "1", "1.5", "nan"])
    def test_proportions_bad_confidence_exits_1(self, tmp_path, capsys, confidence):
        table = write(tmp_path / "t.csv", EXPOSURE_TABLE)
        assert main(["stats", "proportions", table, "--confidence", confidence]) == 1
        assert "confidence must lie in (0, 1)" in capsys.readouterr().err

    def test_too_small_table_exits_1(self, tmp_path):
        table = write(tmp_path / "t.csv", ",a,b\nonly_row,1,2\n")
        assert main(["stats", "chi2", table]) == 1

    def test_wilson_requires_counts(self):
        assert main(["stats", "wilson"]) == 1

    @pytest.mark.parametrize("argv", [
        ["proportions", "--axis", "cols", "--confidence", "0.5", "TABLE"],
        ["proportions", "TABLE", "--axis", "cols", "--confidence", "0.5"],
        ["proportions", "--confidence", "0.5", "TABLE", "--axis", "cols"],
        ["chi2", "--correction", "never", "TABLE"],
        ["chi2", "TABLE", "--correction", "never"],
    ])
    def test_flags_before_or_after_the_table(self, tmp_path, capsys, argv):
        table = write(tmp_path / "t.csv", ",yes,no\nA,12,30\nB,25,18\n")
        assert main(["stats", *(table if a == "TABLE" else a for a in argv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        if argv[0] == "proportions":
            assert payload["axis"] == "cols"
            assert payload["cells"][0][0]["confidence"] == 0.5
        else:
            uncorrected = chi2_independence(table_from_csv(table), correction=False)
            assert payload["statistic"] == uncorrected.statistic

    @pytest.mark.parametrize("argv", [
        ["chi2", "TABLE", "--confidence", "0.5"],
        ["chi2", "TABLE", "--axis", "cols"],
        ["chi2", "--confidence", "0.5", "--axis", "cols", "TABLE"],
        ["proportions", "TABLE", "--correction", "never"],
        ["proportions", "TABLE", "--successes", "3"],
        ["wilson", "--successes", "3", "--n", "10", "--axis", "rows"],
        ["wilson", "--successes", "3", "--n", "10", "--correction", "never"],
        ["wilson", "TABLE", "--successes", "3", "--n", "10"],
        ["chi2"],
        [],
    ])
    def test_a_flag_the_test_does_not_read_is_a_usage_error(self, tmp_path, capsys, argv):
        table = write(tmp_path / "t.csv", EXPOSURE_TABLE)
        with pytest.raises(SystemExit) as exc:
            main(["stats", *(table if a == "TABLE" else a for a in argv)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: hermfair" in captured.err

    @pytest.mark.parametrize("count", [2**63 - 1, 4 * 10**18, 10**29, 2**53])
    def test_grand_total_above_2_53_exits_1(self, tmp_path, capsys, count):
        # four equal cells: the int64 total of 2**63 - 1 wraps, that of 4e18
        # wraps negative, 10**29 is beyond int64, and 4 * 2**53 is exact
        table = write(tmp_path / "t.csv", f",a,b\nx,{count},{count}\ny,{count},{count}\n")
        assert main(["stats", "chi2", table]) == 1
        assert "is above 2**53" in capsys.readouterr().err

    def test_output_file(self, tmp_path):
        table = write(tmp_path / "t.csv", EXPOSURE_TABLE)
        out = tmp_path / "res.json"
        assert main(["stats", "chi2", table, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dof"] == 1

    def test_closed_stdout_exits_1_quietly(self, tmp_path, monkeypatch):
        # stdout is a pipe whose reader has gone, as under `| head`
        table = write(tmp_path / "t.csv", EXPOSURE_TABLE)
        read_end, write_end = os.pipe()
        os.close(read_end)
        stderr = io.StringIO()
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            monkeypatch.setattr(sys, "stderr", stderr)
            rc = main(["stats", "proportions", table])
            stdout.write("x" * 4096)  # stdout now leads to devnull
            stdout.flush()
        assert rc == 1
        assert stderr.getvalue() == ""


class TestExportPopulation:
    def test_export_then_reload(self, tmp_path):
        out = tmp_path / "pop.csv"
        rc = main(["export-population", "--na", "12", "--nb", "8", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        from hermfair.population import population_from_csv

        pop = population_from_csv(out)
        assert pop.n_a == 12 and pop.n_b == 8

    def test_export_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["export-population", "--na", "5", "--nb", "5", "--seed", "11",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_shapes(self, tmp_path):
        out = tmp_path / "pop.csv"
        rc = main(["export-population", "--na", "2000", "--nb", "5", "--seed", "0",
                   "--beta-a", "8,2", "--beta-b", "3,7", "--out", str(out)])
        assert rc == 0
        from hermfair.population import population_from_csv

        pop = population_from_csv(out)
        # Beta(8,2) mean is 0.8
        assert abs(pop.rho[:2000].mean() - 0.8) < 0.02

    def test_shapes_must_come_in_pairs(self, tmp_path):
        rc = main(["export-population", "--beta-a", "8,2", "--out", str(tmp_path / "p.csv")])
        assert rc == 1

    @pytest.mark.parametrize("beta_a, message", [
        ("0,1", "beta_a[0] must be a positive finite shape"),
        ("1,nan", "beta_a[1] must be a positive finite shape"),
    ])
    def test_invalid_shapes_exit_1(self, tmp_path, capsys, beta_a, message):
        rc = main(["export-population", "--beta-a", beta_a, "--beta-b", "2,2",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_roundtrip_through_allocate(self, tmp_path):
        pop_csv = tmp_path / "pop.csv"
        assert main(["export-population", "--na", "6", "--nb", "6", "--seed", "2",
                     "--out", str(pop_csv)]) == 0
        out = tmp_path / "alloc"
        assert main(["allocate", str(pop_csv), "--eho", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] in ("optimal", "tolerance_relaxed")


@pytest.mark.parametrize("command", ["allocate", "sweep", "stats", "export-population"])
def test_unwritable_out_exits_1(tmp_path, capsys, command):
    # allocate and sweep want a directory where a file stands; stats and
    # export-population write a file into a directory that does not exist
    taken = write(tmp_path / "taken", "")
    missing = str(tmp_path / "missing" / "out")
    pop = tmp_path / "pop.csv"
    assert main(["export-population", "--na", "5", "--nb", "5", "--out", str(pop)]) == 0
    argv = {
        "allocate": ["allocate", str(pop), "--parity", "--out", taken],
        "sweep": ["sweep", "--scenario", "A", "--reps", "1", "--grid", "0.05",
                  "--na", "5", "--nb", "5", "--out", taken],
        "stats": ["stats", "chi2", write(tmp_path / "t.csv", EXPOSURE_TABLE), "--out", missing],
        "export-population": ["export-population", "--na", "5", "--nb", "5", "--out", missing],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
