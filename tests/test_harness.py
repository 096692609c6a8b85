import json
import math
import os
import subprocess
import sys

import pytest

import shrinktargets
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
