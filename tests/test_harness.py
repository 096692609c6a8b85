import json
import math
import os
import subprocess
import sys

import pytest

import shrinktargets
from shrinktargets import cli
from shrinktargets.harness import (
    ConfigError,
    emit_report,
    parse_config,
    run,
)

GAUSS_H = math.pi ** 2 / (6 * math.log(2))


def _strip_timestamp(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc.get("provenance", {}).pop("timestamp", None)
    return doc


class TestConfig:
    def test_roundtrip(self):
        doc = {"experiment": "classify", "map": {"kind": "gauss"},
               "x0": {"word": [1]}, "schedule": {"kind": "radii_power", "alpha": 2.0},
               "seed": 5, "trials": 3, "horizons": [10, 100]}
        cfg = parse_config(doc)
        assert parse_config(cfg.to_json()) == cfg

    def test_all_violations_reported(self):
        with pytest.raises(ConfigError) as ei:
            parse_config({"experiment": "simulate", "trials": 0,
                          "seed": "x", "horizons": [0]})
        msgs = ei.value.violations
        assert len(msgs) >= 4  # trials, seed, horizons, map, schedule...

    def test_empty_horizons_rejected_for_simulate(self):
        with pytest.raises(ConfigError, match="horizons"):
            parse_config({"experiment": "simulate",
                          "map": {"kind": "dary", "D": 2},
                          "schedule": {"kind": "depth_const", "t": 0}})


class TestRunExperiments:
    def test_entropy_birkhoff_gauss(self):
        cfg = parse_config({"experiment": "entropy", "map": {"kind": "gauss"},
                            "trials": 10, "seed": 7,
                            "params": {"method": "birkhoff", "n_iter": 10 ** 5}})
        rs = run(cfg)
        assert abs(rs.summary["value"] - GAUSS_H) < 0.05
        assert rs.summary["method"] == "birkhoff"
        assert rs.summary["seed"] == 7

    def test_classify_gauss_full_measure(self):
        cfg = parse_config({"experiment": "classify", "map": {"kind": "gauss"},
                            "x0": {"word": [1]},
                            "schedule": {"kind": "radii_power", "alpha": 2.0}})
        rs = run(cfg)
        assert rs.verdicts["borel_cantelli"] == "FullMeasure"

    def test_simulate_symbolic(self):
        cfg = parse_config({"experiment": "simulate",
                            "map": {"kind": "dary", "D": 2},
                            "x0": {"word": [0, 1]},
                            "schedule": {"kind": "depth_log_floor", "base": 2},
                            "horizons": [1000, 5000], "trials": 4, "seed": 3})
        rs = run(cfg)
        assert len(rs.records) == 8
        assert {r["n"] for r in rs.records} == {1000, 5000}
        assert rs.ratio_trace[-1]["n"] == 5000

    def test_bounds_table(self):
        evals = [{"formula": "radii_lower", "h": GAUSS_H, "delta_bar": 1.0,
                  "ell_bar": k, "tau_bar": 0.0, "log_beta": math.log(2)}
                 for k in (0.5, 1.0, 2.0)]
        cfg = parse_config({"experiment": "bounds", "params": {"evaluations": evals}})
        rs = run(cfg)
        for rec, k in zip(rs.records, (0.5, 1.0, 2.0)):
            assert rec["grid_lower"] == pytest.approx(
                math.pi ** 2 / (math.pi ** 2 + 6 * k * math.log(2)))

    def test_cantor_experiment(self, tmp_path):
        cfg = parse_config({"experiment": "cantor",
                            "map": {"kind": "dary", "D": 2},
                            "x0": {"word": [0, 1]},
                            "schedule": {"kind": "depth_const", "t": 0},
                            "out": str(tmp_path),
                            "params": {"levels": 2, "level_sizes": [4, 5]}})
        rs = run(cfg)
        assert rs.summary["nu_level_sums_exact_one"]
        assert rs.summary["nesting_violations"] == 0
        assert (tmp_path / "stage.json").exists()

    def test_summary_recomputable_from_records(self):
        cfg = parse_config({"experiment": "simulate",
                            "map": {"kind": "dary", "D": 2},
                            "x0": {"word": [0, 1]},
                            "schedule": {"kind": "depth_const", "t": 1},
                            "horizons": [500], "trials": 6, "seed": 1})
        rs = run(cfg)
        finals = [r["ratio"] for r in rs.records if r["n"] == 500]
        assert sum(finals) / len(finals) == pytest.approx(rs.summary["mean_ratio"])

    def test_gridprobe_experiment(self):
        cfg = parse_config({"experiment": "gridprobe",
                            "params": {"grid": {"kind": "interval"},
                                       "balls": {"kind": "shrinking_intervals",
                                                 "kmax": 12}}})
        rs = run(cfg)
        assert rs.summary["max_C"] <= 3.0


class TestDeterminism:
    def test_identical_configs_identical_outputs(self, tmp_path):
        doc = {"experiment": "simulate", "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]},
               "schedule": {"kind": "depth_log_floor", "base": 2},
               "horizons": [2000], "trials": 5, "seed": 42}
        out = []
        for sub in ("a", "b"):
            rs = run(parse_config(doc))
            d = tmp_path / sub
            emit_report(rs, str(d))
            js = _strip_timestamp(json.loads((d / "results.json").read_text()))
            csv_text = (d / "records.csv").read_text()
            out.append((json.dumps(js, sort_keys=True), csv_text))
        assert out[0] == out[1]

    def test_seed_changes_output(self):
        doc = {"experiment": "simulate", "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]},
               "schedule": {"kind": "depth_log_floor", "base": 2},
               "horizons": [2000], "trials": 5, "seed": 43}
        rs1 = run(parse_config(doc))
        rs2 = run(parse_config(dict(doc, seed=44)))
        assert rs1.records != rs2.records


class TestReports:
    def test_emit_formats(self, tmp_path):
        cfg = parse_config({"experiment": "classify", "map": {"kind": "gauss"},
                            "x0": {"word": [1]},
                            "schedule": {"kind": "radii_power", "alpha": 0.5}})
        rs = run(cfg)
        paths = emit_report(rs, str(tmp_path))
        names = {os.path.basename(p) for p in paths}
        assert names == {"results.json", "records.csv", "summary.txt"}
        assert "MeasureZero" in (tmp_path / "summary.txt").read_text()

    def test_unknown_format(self, tmp_path):
        cfg = parse_config({"experiment": "classify", "map": {"kind": "gauss"},
                            "x0": {"word": [1]},
                            "schedule": {"kind": "radii_power", "alpha": 0.5}})
        rs = run(cfg)
        with pytest.raises(ConfigError):
            emit_report(rs, str(tmp_path), formats=("yaml",))

    def test_ratio_trace_plot_data(self, tmp_path):
        doc = {"experiment": "simulate", "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]},
               "schedule": {"kind": "depth_const", "t": 1},
               "horizons": [100, 1000], "trials": 2, "seed": 0}
        rs = run(parse_config(doc))
        emit_report(rs, str(tmp_path))
        lines = (tmp_path / "ratio_trace.dat").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 3


class TestCLI:
    def _run(self, args):
        # the child finds the package where this process found it
        src = os.path.dirname(os.path.dirname(shrinktargets.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "shrinktargets.cli"] + args,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})

    def test_classify_ok(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "classify", "map": {"kind": "gauss"},
            "x0": {"word": [1]},
            "schedule": {"kind": "radii_power", "alpha": 2.0}}))
        r = self._run(["classify", "--config", str(cfgp)])
        assert r.returncode == 0
        assert "FullMeasure" in r.stdout

    def test_validation_error_exit_2(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": {"kind": "dary", "D": 2},
            "x0": {"word": [0, 1]},
            "schedule": {"kind": "depth_const", "t": 0}}))
        r = self._run(["simulate", "--config", str(cfgp)])
        assert r.returncode == 2
        assert "horizons" in r.stderr

    @pytest.mark.parametrize("base", [1, "x"])
    def test_bad_log_base_exit_2(self, tmp_path, base):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "classify", "map": {"kind": "dary", "D": 2},
            "x0": {"word": [0, 1]},
            "schedule": {"kind": "depth_log_floor", "base": base}}))
        r = self._run(["classify", "--config", str(cfgp)])
        assert r.returncode == 2
        assert "depth_log_floor" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("map_spec, key", [
        ({"kind": "dary"}, "D"),
        ({"kind": "markov", "p": ["2/3", "1/3"]}, "M"),
        ({"kind": "markov", "M": [["3/4", "1/4"], ["1/2", "1/2"]]}, "p"),
        ({"kind": "blaschke"}, "zeros"),
    ])
    def test_map_missing_parameter_exit_2(self, tmp_path, capsys, map_spec, key):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": map_spec, "x0": {"decimal": 0.3},
            "schedule": {"kind": "radii_power", "alpha": 2.0}, "horizons": [100]}))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 2
        assert f"missing parameter '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("x0", [{"rational": "3/2"}, {"decimal": -0.1},
                                    {"rational": "1/0"}, {"decimal": "nan"}])
    def test_bad_x0_exit_2(self, tmp_path, capsys, x0):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": {"kind": "dary", "D": 2}, "x0": x0,
            "schedule": {"kind": "radii_power", "alpha": 2.0}, "horizons": [100]}))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 2
        assert "config error: x0" in capsys.readouterr().err

    @pytest.mark.parametrize("change, argv", [
        ({"map": {"kind": "dary", "D": "x"}}, []),
        ({"map": 3}, []),
        ({"x0": 0.3}, []),
        ({}, ["--horizon", "x"]),
        ({"map": {"kind": "tent"}}, []),
        ({"x0": {"word": [0, 5]}}, []),
        ([1, 2], []),
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, change, argv):
        doc = {"experiment": "classify", "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]}, "schedule": {"kind": "radii_power", "alpha": 2.0}}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({**doc, **change} if isinstance(change, dict) else change))
        assert cli.main(["classify", "--config", str(cfgp), *argv]) == 2
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, change, code", [
        ("simulate", {"schedule": {"kind": "radii_power", "alpha": math.nan}}, 2),
        ("classify", {"schedule": {"kind": "radii_power", "alpha": math.nan}}, 2),
        ("simulate", {"schedule": {"kind": "radii_exp", "kappa": math.nan}}, 2),
        ("classify", {"schedule": {"kind": "radii_exp", "kappa": math.nan}}, 2),
        ("simulate", {"schedule": {"kind": "radii_const", "r": math.nan}}, 2),
        ("classify", {"schedule": {"kind": "radii_const", "r": math.nan}}, 2),
        ("classify", {"schedule": {"kind": "depth_power_floor", "kappa": math.nan}}, 2),
        ("classify", {"schedule": {"kind": "radii_power", "alpha": math.inf}}, 2),
        ("classify", {"schedule": {"kind": "radii_const", "r": -0.5}}, 2),
        ("classify", {"schedule": {"kind": "depth_power_floor", "kappa": -1}}, 2),
        ("classify", {"schedule": {"kind": "depth_log_floor", "base": math.inf}}, 2),
        ("entropy", {"measure": {"kind": "foo"}}, 2),
        ("entropy", {"params": {"method": "smb"}}, 0),
        ("entropy", {"params": {"method": "smb"}, "x0": None}, 2),
        ("cantor", {"x0": {"word": [7, 1]}, "params": {"levels": 2, "level_sizes": [4, 5]}}, 2),
        ("cantor", {"schedule": {"kind": "radii_exp", "kappa": math.log(2)},
                    "params": {"levels": 2, "level_sizes": [4, 5]}}, 0),
        ("classify", {"x0": {"word": 3}}, 2),
        ("classify", {"x0": {"word": None}}, 2),
        ("classify", {"x0": {"word": []}}, 2),
        ("entropy", {"x0": {"word": []}, "params": {"method": "smb"}}, 2),
        *[("entropy", {"params": {"method": "smb", "depth": v}}, 2)
          for v in ("x", math.nan, math.inf)],
        *[("cantor", {"params": {"levels": v, "level_sizes": [4, 5]}}, 2)
          for v in ("x", math.nan, math.inf)],
        ("entropy", {"params": {"method": "birkhoff", "n_iter": "x"}}, 2),
        ("classify", {"map": {"kind": "dary", "D": math.inf}}, 2),
        ("classify", {"schedule": {"kind": "depth_const", "t": math.inf}}, 2),
    ])
    def test_domain_of_every_block_checked(self, tmp_path, capsys, experiment, change, code):
        doc = {"experiment": experiment, "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]}, "schedule": {"kind": "radii_power", "alpha": 2.0},
               "horizons": [100], **change}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        assert cli.main([experiment, "--config", str(cfgp)]) == code
        assert ("config error: " in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("experiment, block, needs", [
        ("classify", "map", "classify needs a map block"),
        ("simulate", "schedule", "simulate needs a schedule block"),
        ("cantor", "params", "cantor needs params.level_sizes"),
    ])
    def test_null_block_is_missing(self, tmp_path, capsys, experiment, block, needs):
        doc = {"experiment": experiment, "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]}, "schedule": {"kind": "radii_power", "alpha": 2.0},
               "horizons": [100], block: None}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(doc))
        assert cli.main([experiment, "--config", str(cfgp)]) == 2
        assert needs in capsys.readouterr().err

    @pytest.mark.parametrize("map_spec, word", [({"kind": "dary", "D": 2}, [0, 1]),
                                                ({"kind": "gauss"}, [1, 2])])
    def test_underflowed_radii_run_quietly(self, tmp_path, capsys, map_spec, word):
        # r_n = 2^-n is 0 in double precision past n = 1075
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": map_spec, "x0": {"word": word},
            "schedule": {"kind": "radii_exp", "kappa": math.log(2)},
            "horizons": [1200], "trials": 2}))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 0
        assert capsys.readouterr().err == ""

    def test_smb_word_matches_its_point(self):
        def value(x0):
            return run(parse_config({"experiment": "entropy", "map": {"kind": "dary", "D": 2},
                                     "x0": x0, "params": {"method": "smb"}})).summary
        assert value({"word": [0, 1]}) == value({"rational": "1/3"})

    def test_in_process_calls_match_fresh_runs(self, tmp_path, capsys):
        # main builds its parser once per process; repeated calls, also
        # right after an argparse exit, behave as fresh processes do
        docs = {
            "classify": {"experiment": "classify", "map": {"kind": "dary", "D": 2},
                         "x0": {"word": [0, 1]},
                         "schedule": {"kind": "depth_log_floor", "base": 2}},
            "simulate": {"experiment": "simulate", "map": {"kind": "dary", "D": 2},
                         "x0": {"word": [0, 1]}, "schedule": {"kind": "depth_const", "t": 1},
                         "horizons": [200], "trials": 2, "seed": 3},
            "entropy": {"experiment": "entropy", "map": {"kind": "dary"}},
        }
        calls = [["classify"], ["classify", "--config", "classify.json"],
                 ["simulate", "--config", "simulate.json", "--trials", "x"],
                 ["simulate", "--config", "simulate.json", "--horizon", "50,200"],
                 ["entropy", "--config", "entropy.json"],
                 ["classify", "--config", "classify.json"]]
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        calls = [[str(tmp_path / a) if a.endswith(".json") else a for a in argv]
                 for argv in calls]
        fresh = []
        for argv in calls:
            r = self._run(argv)
            fresh.append((r.returncode, r.stdout))
        for argv, want in zip(calls, fresh):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            assert (code, capsys.readouterr().out) == want
        assert [c for c, _ in fresh] == [2, 0, 2, 0, 2, 0]

    def test_numerical_failure_exit_3(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "entropy",
            "map": {"kind": "markov", "M": [["0", "1"], ["1", "0"]],
                    "p": ["1/2", "1/2"]},
            "params": {"method": "closed_form"}}))
        r = self._run(["entropy", "--config", str(cfgp)])
        assert r.returncode == 3
        assert "primitive" in r.stderr

    def test_zero_diagonal_chain_simulates(self, tmp_path):
        # no self-transitions: 1/2 lies in the block of digit 1, whose branch
        # 1->1 does not exist, so a window may not end on digit_of(1/2)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate",
            "map": {"kind": "markov", "M": [["0", "1/2", "1/2"], ["1/2", "0", "1/2"],
                                            ["1/2", "1/2", "0"]],
                    "p": ["1/3", "1/3", "1/3"]},
            "x0": {"word": [0, 1, 2]},
            "schedule": {"kind": "radii_power", "alpha": 2.0},
            "horizons": [1000, 5000], "trials": 4, "seed": 1}))
        outd = tmp_path / "out"
        r = self._run(["simulate", "--config", str(cfgp), "--out", str(outd)])
        assert r.returncode == 0, r.stderr
        summary = json.loads((outd / "results.json").read_text())["summary"]
        # compound-Poisson band: 5 deviations, variance inflated by at most 4
        half = 5 * math.sqrt(4 / (4 * summary["normalizer"][-1]))
        assert abs(summary["mean_ratio"] - 1) <= half

    def test_flag_overrides_and_out(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": {"kind": "dary", "D": 2},
            "x0": {"word": [0, 1]},
            "schedule": {"kind": "depth_const", "t": 0}}))
        outd = tmp_path / "out"
        r = self._run(["simulate", "--config", str(cfgp), "--horizon", "100,400",
                       "--trials", "2", "--seed", "9", "--out", str(outd)])
        assert r.returncode == 0
        doc = json.loads((outd / "results.json").read_text())
        assert doc["config"]["horizons"] == [100, 400]
        assert doc["config"]["seed"] == 9

    def test_report_subcommand(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "classify", "map": {"kind": "gauss"},
            "x0": {"word": [1]},
            "schedule": {"kind": "radii_power", "alpha": 0.5},
            "out": str(tmp_path / "o1")}))
        r = self._run(["classify", "--config", str(cfgp)])
        assert r.returncode == 0
        r2 = self._run(["report", "--config", str(tmp_path / "o1" / "results.json"),
                        "--out", str(tmp_path / "o2")])
        assert r2.returncode == 0
        assert (tmp_path / "o2" / "summary.txt").exists()
