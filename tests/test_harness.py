import collections
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shrinktargets
from shrinktargets import cli, harness, recurrence
from shrinktargets.dimension import (BOUNDS, DimensionError, IntervalSplitGrid,
                                     ProductSplitGrid, grid_regularity_probe)
from shrinktargets.harness import (
    ConfigError,
    emit_report,
    parse_config,
    run,
)
from shrinktargets.maps import MAP_KINDS, MapError
from conftest import regular_states

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

    def test_cylinder_code_filter_leaves_results_bytes(self, tmp_path, monkeypatch):
        """An in-process D = 2 simulate with horizons past one WINDOW_BLOCK writes
        the same results.json bytes, the provenance timestamp aside, with the
        cylinder-code filter of the metric engine as with it off (every block on
        the full scan); the filter keeps its rows in each block past the first."""
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
            "schedule": {"kind": "radii_power", "alpha": 2.0}, "horizons": [40000, 70000],
            "trials": 2, "seed": 5}))
        near, kept = recurrence._near_rows, []
        monkeypatch.setattr(recurrence, "_near_rows", lambda *a: kept.append(near(*a)) or kept[-1])
        out = []
        for _ in ("on", "off"):         # one --out, which the config records
            assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
            text = (tmp_path / "o" / "results.json").read_bytes()
            out.append(re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', text))
            monkeypatch.setattr(recurrence, "_near_rows", lambda *a: None)
        assert len(kept) == 4 and all(rows is not None for rows in kept)
        assert out[0] == out[1] and b'"timestamp": ""' in out[0]

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

    def test_huge_D_exits_2_before_any_map_is_built(self, tmp_path, capsys, monkeypatch):
        # DAryShift(D) holds D partition blocks: D = 2^40 would exhaust memory
        built = []
        monkeypatch.setattr(harness, "make_map", lambda spec: built.append(spec))
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": {"kind": "dary", "D": 2 ** 40},
            "x0": {"rational": "1/3"}, "schedule": {"kind": "radii_power", "alpha": 2.0},
            "horizons": [100]}))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 2
        assert "config error: map.D: " in capsys.readouterr().err and built == []

    def test_largest_D_runs(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": {"kind": "dary", "D": 2 ** 16},
            "x0": {"rational": "1/3"}, "schedule": {"kind": "radii_power", "alpha": 2.0},
            "horizons": [100], "trials": 2}))
        assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("x0", [{"rational": "3/2"}, {"decimal": -0.1},
                                    {"rational": "1/0"}, {"decimal": "nan"}])
    def test_bad_x0_exit_2(self, tmp_path, capsys, x0):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": {"kind": "dary", "D": 2}, "x0": x0,
            "schedule": {"kind": "radii_power", "alpha": 2.0}, "horizons": [100]}))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 2
        assert "config error: x0" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, word, schedule, where", [
        ("classify", [0, 0, 1], {"kind": "radii_power", "alpha": 2.0}, ["x0.word.0:"]),
        ("simulate", [0, 1, 1, 0], {"kind": "radii_exp", "kappa": 0.5},
         ["x0.word.1:", "x0.word.3:"]),        # 1 -> 1, and the closing 0 -> 0
        ("classify", [2], {"kind": "radii_const", "r": 0.1}, ["x0.word.0:"]),
        ("classify", [0, 0, 1], {"kind": "depth_const", "t": 2}, []),
    ])
    def test_forbidden_markov_word(self, tmp_path, capsys, experiment, word, schedule, where):
        """No point has an itinerary with a forbidden transition, so a radii
        schedule rejects the word as a config error; a depth schedule reads
        it as a cylinder target of mass 0."""
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": experiment,
            "map": {"kind": "markov", "M": [["0", "1/2", "1/2"], ["1/2", "0", "1/2"],
                                            ["1/2", "1/2", "0"]],
                    "p": ["1/3", "1/3", "1/3"]},
            "x0": {"word": word}, "schedule": schedule, "horizons": [100]}))
        code = cli.main([experiment, "--config", str(cfgp)])
        out, err = capsys.readouterr()
        if where:
            assert code == 2
            assert [v.split()[2] for v in err.splitlines()] == where
        else:
            assert code == 0 and "MeasureZero" in out

    @pytest.mark.parametrize("change, argv", [
        ({"map": {"kind": "dary", "D": "x"}}, []),
        ({"map": 3}, []),
        ({"x0": 0.3}, []),
        ({}, ["--horizon", "x"]),
        ({"map": {"kind": "tent"}}, []),
        ({"x0": {"word": [0, 5]}}, []),
        ([1, 2], []),
        # a map brings its own measure: there is no measure block
        ({"measure": {"kind": "lebesgue"}}, []),
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, change, argv):
        doc = {"experiment": "classify", "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]}, "schedule": {"kind": "radii_power", "alpha": 2.0}}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({**doc, **change} if isinstance(change, dict) else change))
        assert cli.main(["classify", "--config", str(cfgp), *argv]) == 2
        err = capsys.readouterr().err
        assert "config error: " in err
        if "measure" in change:
            assert err == "config error: measure: unknown field for classify\n"

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
        ("cantor", {"x0": {"word": [7, 1]}, "params": {"levels": 2, "level_sizes": [4, 5]}}, 2),
        ("cantor", {"schedule": {"kind": "radii_exp", "kappa": math.log(2)},
                    "params": {"levels": 2, "level_sizes": [4, 5]}}, 0),
        ("classify", {"x0": {"word": 3}}, 2),
        ("classify", {"x0": {"word": None}}, 2),
        ("classify", {"x0": {"word": []}}, 2),
        *[("cantor", {"params": {"levels": v, "level_sizes": [4, 5]}}, 2)
          for v in ("x", math.nan, math.inf)],
        ("entropy", {"params": {"method": "birkhoff", "n_iter": "x"}}, 2),
        ("classify", {"map": {"kind": "dary", "D": math.inf}}, 2),
        ("classify", {"schedule": {"kind": "depth_const", "t": math.inf}}, 2),
        # 1/100 splits put more than 10^4 level leaves in the ball, measured as one band
        ("gridprobe", {"params": {"grid": {"kind": "interval", "split": "1/100"},
                                  "balls": {"kind": "table", "balls": [["1/2", "1/4"]]}}}, 0),
    ])
    def test_domain_of_every_block_checked(self, tmp_path, capsys, experiment, change, code):
        doc = {"experiment": experiment, "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]}, "schedule": {"kind": "radii_power", "alpha": 2.0},
               "horizons": [100], **change}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        assert cli.main([experiment, "--config", str(cfgp)]) == code
        assert ("config error: " in capsys.readouterr().err) == (code == 2)

    def test_entropy_method_outside_the_table_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"map": {"kind": "dary", "D": 2}, "params": {"method": "smb"}}))
        assert cli.main(["entropy", "--config", str(cfgp)]) == 2
        assert "params.method: must be one of ('closed_form', 'birkhoff')" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("experiment, doc, seconds", [
        # e^(-0.7 d) underflows to 0.0 at the second level's depths
        ("cantor", {"map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
                    "schedule": {"kind": "radii_exp", "kappa": 0.7},
                    "params": {"level_sizes": [8, 1100]}}, 2.0),
        # pi r^2 is 0.0 in double precision from k = 406 on, the clipped length from k = 1075
        ("gridprobe", {"params": {"grid": {"kind": "rectangle", "a": "7/10", "b": "6/10"},
                                  "balls": {"kind": "corner_discs", "kmax": 500}}}, 2.0),
        ("gridprobe", {"params": {"grid": {"kind": "interval", "split": "1/2"},
                                  "balls": {"kind": "shrinking_intervals", "kmax": 1100}}},
         2.0),
        # a depth schedule needs a digit stream, which a Blaschke map does not have
        ("simulate", {"map": {"kind": "blaschke", "zeros": [0, 0.5]}, "x0": {"word": [0, 1]},
                      "schedule": {"kind": "depth_const", "t": 3}, "horizons": [100],
                      "trials": 2}, 2.0),
    ])
    def test_numerical_failure_exits_3_quietly(self, tmp_path, capsys, experiment, doc, seconds):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"experiment": experiment, **doc}))
        t0 = time.perf_counter()
        assert cli.main([experiment, "--config", str(cfgp)]) == 3
        assert time.perf_counter() - t0 < seconds
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "Traceback" not in err

    @pytest.mark.parametrize("evaluation, field, want", [
        # h^2 underflows, ell^2 overflows, (h + L)^2 overflows
        ({"formula": "radii_lower", "h": 1e-300, "delta_bar": 1, "ell_bar": 1, "log_beta": 1},
         ("grid_lower", "hausdorff_lower"), 1e-300),
        ({"formula": "radii_lower", "h": 1, "delta_bar": 1, "ell_bar": 1e200, "log_beta": 1},
         ("grid_lower", "hausdorff_lower"), 1e-200),
        ({"formula": "hoeffding", "p": [0.5, 0.5], "L_lower": 1e300},
         ("upper",), math.log(2) / (math.log(2) + 1e300)),
        # 1/a overflows; the sum in the denominator overflows
        ({"formula": "grid_transfer", "a_n": [0.25, 0.0625, 1e-310], "b_n": [0.5, 0.25, 0.125],
          "grid_dim": 1.0}, ("hausdorff_lower",), 1.0),
        ({"formula": "cantor_lambda", "a": 1.7e308, "b": 1.7e308, "c": 1.7e308, "delta": 0.5,
          "N_js": [1]}, ("grid_lower",), 0.5),
        ({"formula": "code_lower", "h": 1.7e308, "L_bar": 1.7e308}, ("grid_lower",), 0.5),
        ({"formula": "radii_lower", "h": 1.7e308, "delta_bar": 1, "ell_bar": 1.7e308,
          "tau_bar": 0, "log_beta": 1}, ("grid_lower",), 0.5),
        # h + L and delta * ell overflow
        ({"formula": "upper_finite", "D": 2, "h": 1.7e308, "L_lower": 1.7e308}, ("upper",),
         2.0386681781174870e-309),
        ({"formula": "upper_finite", "D": 2, "h": 1, "delta_lower": 1e200, "ell_lower": 1e200},
         ("upper",), 0.0),
    ])
    def test_bounds_at_the_ends_of_the_float_range(self, tmp_path, evaluation, field, want):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"experiment": "bounds",
                                    "params": {"evaluations": [evaluation]}}))
        assert cli.main(["bounds", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "results.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        rec, = json.loads(text)["records"]
        assert all(rec[f] == pytest.approx(want, rel=1e-12, abs=0) for f in field)

    @pytest.mark.parametrize("base, code", [(2, 3), (3, 0)])
    def test_gauss_decimal_classify_reads_its_exact_digits(self, tmp_path, capsys, base, code):
        # the double 0.41 is a rational whose continued fraction ends at depth 10;
        # floor(log_2 10^4) = 13 reads past it, floor(log_3 10^4) = 8 does not
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "classify", "map": {"kind": "gauss"}, "x0": {"decimal": 0.41},
            "schedule": {"kind": "depth_log_floor", "base": base}}))
        assert cli.main(["classify", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == code
        assert "Traceback" not in capsys.readouterr().err
        if code == 0:
            record, = json.loads((tmp_path / "o" / "results.json").read_text())["records"]
            assert record["heuristic"] is True

    def test_custom_depths_classify_reads_the_tail(self, tmp_path):
        # the table [60] repeats depth 60 for ever: 2^-61 per term, a divergent series
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "classify", "map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
            "schedule": {"kind": "custom_depths", "table": [60]}}))
        assert cli.main(["classify", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "results.json").read_text())
        assert doc["records"][0]["heuristic"] is False
        assert doc["summary"] == {"verdict": "FullMeasure", "heuristic": False}
        assert "heuristic" in (tmp_path / "o" / "summary.txt").read_text()

    @pytest.mark.parametrize("map_spec, x0", [
        ({"kind": "dary", "D": 2}, {"word": [0, 1]}),
        ({"kind": "markov", "M": [["3/4", "1/4"], ["1/2", "1/2"]], "p": ["2/3", "1/3"]},
         {"word": [0, 1]}),
        ({"kind": "gauss"}, {"word": [1]}),
        ({"kind": "blaschke", "zeros": [0, 0.5]}, {"decimal": 0.3}),
    ], ids=["dary2", "chain", "gauss", "blaschke"])
    def test_reciprocal_radii_classify_full_measure(self, tmp_path, map_spec, x0):
        # r_n = 1/n: sum r_n diverges, and the dynamical Borel-Cantelli lemma
        # gives an exact FullMeasure on every map kind
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"experiment": "classify", "map": map_spec, "x0": x0,
                                    "schedule": {"kind": "radii_power", "alpha": 1}}))
        assert cli.main(["classify", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "results.json").read_text())
        record, = doc["records"]
        assert record["verdict"] == "FullMeasure" and record["heuristic"] is False
        assert "exponent" not in record
        assert doc["summary"] == {"verdict": "FullMeasure", "heuristic": False}

    @pytest.mark.parametrize("experiment", ["classify", "simulate"])
    @pytest.mark.parametrize("schedule, field", [
        ({"kind": "depth_const", "t": 10 ** 30}, "schedule.t"),
        ({"kind": "custom_depths", "table": [1, 10 ** 30]}, "schedule.table.1"),
        ({"kind": "depth_const", "t": 2 ** 62}, None),
    ])
    def test_depth_bounded_at_max_depth(self, tmp_path, capsys, experiment, schedule, field):
        # a depth past int64 is a config error; MAX_DEPTH = 2^62 itself runs
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": experiment, "map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
            "schedule": schedule, "horizons": [100]}))
        code = cli.main([experiment, "--config", str(cfgp), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == (0 if field is None else 2) and "Traceback" not in err
        if field is not None:
            assert err.startswith("config error: ") and f"{field}: must be an integer in" in err

    @pytest.mark.parametrize("change", [
        {"map": {"kind": "markov", "M": [["1/2", "1/2"], ["1", "0"]], "p": ["2/3", "1/3"]}},
        {"map": {"kind": "gauss"}, "x0": {"word": [1, 2]}},
    ], ids=["golden-mean", "gauss"])
    def test_map_simulates_under_its_own_measure(self, tmp_path, capsys, change):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "simulate", "map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
            "schedule": {"kind": "depth_const", "t": 1}, "horizons": [2000], "trials": 4,
            **change}))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 0
        assert capsys.readouterr().err == ""

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
        # a hypothesis of the construction fails at the given size
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "cantor", "map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
            "params": {"levels": 1, "level_sizes": [2]}}))
        r = self._run(["cantor", "--config", str(cfgp)])
        assert r.returncode == 3
        assert "SMB regularity window empty" in r.stderr

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


FUZZ_CONFIGS = {
    "simulate": {"experiment": "simulate",
                 "map": {"kind": "markov", "M": [["3/4", "1/4"], ["1/2", "1/2"]],
                         "p": ["2/3", "1/3"]},
                 "x0": {"word": [0, 1]}, "schedule": {"kind": "radii_power", "alpha": 2.0},
                 "horizons": [20, 60], "trials": 2, "seed": 1},
    "classify": {"experiment": "classify", "map": {"kind": "dary", "D": 2},
                 "x0": {"rational": "1/3"}, "schedule": {"kind": "depth_log_floor", "base": 2}},
    "entropy": {"experiment": "entropy", "map": {"kind": "dary", "D": 3},
                "x0": {"word": [0, 2]}, "params": {"method": "birkhoff", "n_iter": 8}},
    "bounds": {"experiment": "bounds", "params": {"evaluations": [
        {"formula": "radii_lower", "h": 0.7, "delta_bar": 1.0, "ell_bar": 0.5,
         "log_beta": 0.7},
        {"formula": "hoeffding", "p": [0.5, 0.5], "L_lower": 0.7},
        {"formula": "cantor_lambda", "a": 2, "b": 1, "c": 1, "delta": 0.5,
         "N_js": [2, 4, 8]}]}},
    "cantor": {"experiment": "cantor", "map": {"kind": "dary", "D": 2},
               "x0": {"word": [0, 1]}, "schedule": {"kind": "radii_exp", "kappa": 0.7},
               "params": {"levels": 2, "level_sizes": [4, 5]}},
    "gridprobe": {"experiment": "gridprobe",
                  "params": {"grid": {"kind": "rectangle", "a": "7/10", "b": "6/10"},
                             "balls": {"kind": "corner_discs", "kmax": 5}}},
}
DELETE = object()
JUNK = [None, 3, -1, 0, 1.5, "x", "1/0", "-1/2", [], [0, 5], {}, {"kind": "tent"}, True,
        math.nan, 7, DELETE]


def _paths(node, path=()):
    """Every key and list index below node, as a path of keys."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _mutate(doc, path, junk):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if junk is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return doc


MUTATIONS = [(name, path, junk) for name, doc in FUZZ_CONFIGS.items()
             for path in _paths(doc) for junk in JUNK]


def _cli_outcome(name, doc, tmp_dir):
    """Exit code of cli.main on doc, which must be 0, 2 or 3 with no
    traceback, and 0 only for a document that parse_config accepts."""
    cfgp = os.path.join(tmp_dir, "fuzz.json")
    with open(cfgp, "w") as fh:
        json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([name, "--config", cfgp])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:       # accepted: the schema must accept the document too
        parse_config(doc if doc.get("experiment") is not None else {**doc, "experiment": name})
    return code


class TestConfigFuzz:
    """Single-field mutations of one small valid config per experiment: set
    a field to a junk value or delete it.  cli.main never raises, exits in
    {0, 2, 3}, and exits 0 only for a document the schema accepts."""

    def test_fuzz_configs_are_valid(self, tmp_path):
        for name, doc in FUZZ_CONFIGS.items():
            assert _cli_outcome(name, doc, str(tmp_path)) == 0, name

    @settings(max_examples=200)
    @given(st.sampled_from(MUTATIONS))
    def test_mutation_exits_cleanly(self, mutation):
        name, path, junk = mutation
        with tempfile.TemporaryDirectory() as tmp:
            _cli_outcome(name, _mutate(FUZZ_CONFIGS[name], path, junk), tmp)

    def test_every_mutation_exits_cleanly(self, tmp_path):
        codes = collections.Counter(
            _cli_outcome(name, _mutate(FUZZ_CONFIGS[name], path, junk), str(tmp_path))
            for name, path, junk in MUTATIONS)
        assert codes[0] and codes[2] and codes[3]     # the sweep reaches every outcome

    @pytest.mark.parametrize("name, path, value", [
        # an int past the float range is refused, not an OverflowError
        *[("classify", ("map", "D"), v) for v in (-1, 0, 1.5, True, 10 ** 400)],
        ("classify", ("schedule",), {"kind": "depth_const", "t": 10 ** 400}),
        ("classify", ("schedule",), {"kind": "radii_power", "alpha": 10 ** 400}),
        ("simulate", ("map", "M"), [["3/4", "1/4"], ["1/2"]]),
        ("simulate", ("map", "M"), [["3/4", "1/4", "0"], ["1/2", "1/2", "0"]]),
        ("entropy", ("params",), {"method": "birkhoff", "n_iter": 0}),
        *[("bounds", ("params", "evaluations", 0, k), math.nan)
          for k in ("h", "delta_bar", "ell_bar", "log_beta")],
        ("bounds", ("params", "evaluations", 1, "p", 0), math.nan),
        ("simulate", ("trials",), True),
        ("simulate", ("horizons", 0), True),
        ("cantor", ("params", "level_sizes", 0), 1.5),
        ("cantor", ("params", "levels"), True),
        ("classify", ("schedule",), {"kind": "custom_depths", "table": [0, 1.5]}),
        ("classify", ("schedule",), {"kind": "custom_radii", "table": [0.5, 0.7]}),
        ("simulate", ("trial",), 100),
        ("gridprobe", ("params", "grid"), {"kind": "interval"}),
    ])
    def test_config_domain_exits_2(self, tmp_path, name, path, value):
        assert _cli_outcome(name, _mutate(FUZZ_CONFIGS[name], path, value), str(tmp_path)) == 2

    def test_every_violation_listed(self, tmp_path, capsys):
        doc = dict(FUZZ_CONFIGS["simulate"], trials=0, map={"kind": "dary", "D": 1.5},
                   schedule={"kind": "radii_power", "alpha": math.nan})
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(cfgp)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3 and all(line.startswith("config error: ") for line in lines)
        assert [line.split()[2] for line in lines] == ["map.D:", "schedule.alpha:", "trials:"]

    def test_chain_faults_exit_2(self, tmp_path, capsys):
        # row 0 sums to 3/4, and p M = (1/2, 3/8) is not p
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "experiment": "entropy", "params": {"method": "closed_form"},
            "map": {"kind": "markov", "M": [["1/2", "1/4"], ["1/2", "1/2"]],
                    "p": ["1/2", "1/2"]}}))
        assert cli.main(["entropy", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: map: ") and "Traceback" not in err
        assert "row 0 of M is not a probability vector" in err and "p is not stationary" in err


class TestOutputErrors:
    @pytest.mark.parametrize("name", ["simulate", "cantor"])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_cannot_be_made_exit_2(self, tmp_path, capsys, name, under):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(FUZZ_CONFIGS[name]))
        out = blocker / "sub" if under else blocker
        assert cli.main([name, "--config", str(cfgp), "--out", str(out)]) == 2
        assert "output error: " in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"records": 3}, {"records": [3]}, {"summary": []}, {"config": 3},
        {"verdicts": []}, {"summary": {"value": None}},
    ])
    def test_malformed_results_exit_2(self, tmp_path, capsys, change):
        doc = {"config": {"experiment": "entropy"}, "records": [{"value": 1.0}],
               "summary": {"value": 1.0}, "verdicts": {}, "provenance": {}, **change}
        resp = tmp_path / "results.json"
        resp.write_text(json.dumps(doc))
        argv = ["report", "--config", str(resp), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "config error: " in capsys.readouterr().err
        del doc[next(iter(change))]
        resp.write_text(json.dumps(doc))
        assert cli.main(argv) == 0


CHAIN_CANTOR = {"experiment": "cantor", "x0": {"word": [0, 1]},
                "map": {"kind": "markov", "M": [["3/4", "1/4"], ["1/2", "1/2"]],
                        "p": ["2/3", "1/3"]},
                "schedule": {"kind": "depth_power_floor", "kappa": 1},
                "params": {"levels": 2, "level_sizes": [6, 60], "epsilon": 0.05}}


def _exact(s):
    """A number of stage.json: "0x..." as an int, "0x.../0x..." as a Fraction."""
    num, _, den = s.partition("/")
    return Fraction(int(num, 16), int(den, 16)) if den else int(num, 16)


class TestStageFile:
    """stage.json lists a stage's classes and type tables, so its size
    follows the types, and no level is too large to write."""

    def _cantor(self, tmp_path, doc, out=True):
        tmp_path.mkdir(exist_ok=True)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(doc))
        argv = ["cantor", "--config", str(cfgp)] + (["--out", str(tmp_path / "o")] if out else [])
        return cli.main(argv)

    def test_deep_cantor_level_reports_and_dumps(self, tmp_path, capsys):
        # level 2 holds 2^76 blocks, more than len() can return
        doc = {**FUZZ_CONFIGS["cantor"], "params": {"levels": 2, "level_sizes": [8, 70]}}
        assert self._cantor(tmp_path, doc, out=False) == 0
        assert self._cantor(tmp_path, doc) == 0
        results = json.loads((tmp_path / "o" / "results.json").read_text())
        assert results["summary"]["level_sizes"] == [128, 2 ** 76]
        levels = json.loads((tmp_path / "o" / "stage.json").read_text())["levels"]
        assert sum(_exact(c[3]) for c in levels[1]["classes"]) == 2 ** 76

    def test_sharp_stages_write_their_results(self, tmp_path):
        # the chain [[3/4,1/4],[1/2,1/2]] at t_n = n: 2.5e16 level-2 blocks
        t0 = time.perf_counter()
        assert self._cantor(tmp_path / "chain", CHAIN_CANTOR) == 0
        results = json.loads((tmp_path / "chain" / "o" / "results.json").read_text())
        assert results["summary"]["frostman"]["gamma"] == 0.3444688317797823
        assert results["summary"]["level_sizes"][1] == 24724286902010975
        assert os.path.getsize(tmp_path / "chain" / "o" / "stage.json") <= 2 * 10 ** 6
        # 262,144 level-2 blocks in a few classes
        doc = {"experiment": "cantor", "map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
               "schedule": {"kind": "radii_exp", "kappa": math.log(2)},
               "params": {"levels": 2, "level_sizes": [8, 12]}}
        assert self._cantor(tmp_path / "dary", doc) == 0
        assert os.path.getsize(tmp_path / "dary" / "o" / "stage.json") < 10 ** 5
        assert time.perf_counter() - t0 < 2

    def test_counts_past_the_int_digit_limit(self, tmp_path, capsys):
        # level 2 holds 2^2206 blocks, 665 decimal digits: past a limit of 640
        doc = {"experiment": "cantor", "map": {"kind": "dary", "D": 2}, "x0": {"word": [0, 1]},
               "schedule": {"kind": "depth_const", "t": 3},
               "params": {"levels": 2, "level_sizes": [8, 2200]}}
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert self._cantor(tmp_path, doc, out=False) == 0
            assert f"level_sizes: [128, '{2 ** 2206:#x}']" in capsys.readouterr().out
            assert self._cantor(tmp_path, doc) == 0
            results = json.loads((tmp_path / "o" / "results.json").read_text())
            stage = json.loads((tmp_path / "o" / "stage.json").read_text())
        finally:
            sys.set_int_max_str_digits(limit)
        summary = results["summary"]
        assert summary["level_sizes"] == [128, hex(2 ** 2206)]
        assert _exact(summary["frostman"]["blocks"]) == 2 * (128 + 2 ** 2206)
        built = shrinktargets.build_cantor_stage(
            shrinktargets.DAryShift(2), (0, 1), shrinktargets.Schedule.depth_const(3), 2, [8, 2200])
        for lvl, want in zip(stage["levels"], built.levels):
            assert [tuple(map(_exact, c)) for c in lvl["classes"]] == want.classes
            finals = {(d, _exact(P)): _exact(m) for d, P, m in lvl["finals"]}
            assert finals == want.family.finals
            assert regular_states(want.family.scaled, lvl["first"], lvl["N"], finals) == \
                want.family.states


def _bounds(**ev):
    return {"experiment": "bounds", "params": {"evaluations": [ev]}}


def _probe(grid, balls):
    return {"experiment": "gridprobe", "params": {"grid": grid, "balls": balls}}


def _on_map(kind, x0, schedule, experiment="classify", **params):
    return {"experiment": experiment, "map": {"kind": kind, **params}, "x0": x0,
            "schedule": schedule, "horizons": [100]}


RADII = {"formula": "radii_lower", "h": 0.7, "delta_bar": 1.0, "ell_bar": 0.5, "log_beta": 0.7}
LAMBDA = {"formula": "cantor_lambda", "a": 2, "b": 1, "c": 1, "delta": 0.5, "N_js": [2, 4, 8]}
ENVELOPE = {"formula": "grid_transfer", "a_n": [0.25, 0.0625, 0.015625],
            "b_n": [0.5, 0.25, 0.125], "grid_dim": 0.5}
DEPTH3, SQRT = {"kind": "depth_const", "t": 3}, {"kind": "radii_power", "alpha": 2.0}
CHAIN = {"M": [["3/4", "1/4"], ["1/2", "1/2"]], "p": ["2/3", "1/3"]}
E0 = "params.evaluations.0"


class TestOneCheckPerRule:
    """Each hypothesis on an input is one rule of its table, so a config that
    breaks it exits 2 naming the field, and the API raises for the same
    values with the same field."""

    @pytest.mark.parametrize("doc, field", [
        (_on_map("blaschke", {"decimal": 0.3}, SQRT, zeros=[[0.5, 0], [0.2, 0]]), "map"),
        (_on_map("blaschke", {"decimal": 0.3}, SQRT, zeros=[[0, 0]]), "map"),
        ({"experiment": "entropy",
          "map": {"kind": "markov", "M": [["0", "1"], ["1", "0"]], "p": ["1/2", "1/2"]}}, "map"),
        ({"experiment": "entropy", "map": {"kind": "markov", "M": [["1"]], "p": ["1"]}}, "map"),
        (_bounds(**{**RADII, "h": -1}), f"{E0}.h"),
        (_bounds(**{**RADII, "log_beta": 0}), f"{E0}.log_beta"),
        (_bounds(**{**RADII, "tau_bar": -0.5}), f"{E0}.tau_bar"),
        (_bounds(formula="doubling", delta_bar=1, ell_bar=0.5, s=0, log_beta=0.7), f"{E0}.s"),
        (_bounds(formula="doubling", delta_bar=-1, ell_bar=0.5, s=1, log_beta=0.7),
         f"{E0}.delta_bar"),
        (_bounds(formula="code_lower", h=0.7, L_bar=-0.1), f"{E0}.L_bar"),
        (_bounds(formula="code_w", w_bar=-1), f"{E0}.w_bar"),
        (_bounds(formula="upper_finite", D=1, h=0.7, L_lower=0.7), f"{E0}.D"),
        (_bounds(formula="upper_finite", D=2, h=0.7, L_lower=-0.7), f"{E0}.L_lower"),
        (_bounds(formula="upper_finite", D=2, h=0.7), E0),
        (_bounds(formula="upper_finite", D=2, h=0.7, delta_lower=1), E0),
        (_bounds(formula="hoeffding", p=[0.5, 0.6], L_lower=0.7), E0),
        (_bounds(formula="hoeffding", p=[1, 0], L_lower=0.7), f"{E0}.p.1"),
        (_bounds(**{**LAMBDA, "a": -1}), E0),
        (_bounds(**{**LAMBDA, "delta": 2}), E0),
        (_bounds(**{**LAMBDA, "delta": 0}), f"{E0}.delta"),
        (_bounds(**{**LAMBDA, "N_js": [8, 4, 2]}), E0),
        (_bounds(**{**ENVELOPE, "a_n": [0.25, 0.0625]}), E0),
        (_bounds(**{**ENVELOPE, "a_n": [0.25, 0.0625], "b_n": [0.5, 0.25]}), E0),
        (_bounds(**{**ENVELOPE, "a_n": [0.25, 0.5, 0.015625]}), E0),
        (_bounds(**{**ENVELOPE, "b_n": [0.5, 0.5, 0.125]}), E0),
        (_bounds(**{**ENVELOPE, "grid_dim": 2}), f"{E0}.grid_dim"),
        # x0 outside the domain of its map
        (_on_map("dary", {"rational": "1"}, DEPTH3, D=2), "x0.rational"),
        (_on_map("dary", {"rational": "1"}, {"kind": "radii_const", "r": 0.1}, D=2),
         "x0.rational"),
        (_on_map("dary", {"rational": "1"}, {"kind": "radii_const", "r": 0.1}, "simulate", D=2),
         "x0.rational"),
        (_on_map("markov", {"rational": "1"}, DEPTH3, **CHAIN), "x0.rational"),
        (_on_map("markov", {"decimal": 1.0}, DEPTH3, **CHAIN), "x0.decimal"),
        (_on_map("gauss", {"decimal": 0.0}, SQRT), "x0.decimal"),
        # a gridprobe ball or grid outside its table
        (_probe({"kind": "interval"}, {"kind": "table", "balls": [["1/2", "1/2", "1/4"]]}),
         "params.balls.balls.0"),
        (_probe({"kind": "square"}, {"kind": "table", "balls": [["1/2", "1/4"]]}),
         "params.balls.balls.0"),
        (_probe({"kind": "interval"}, {"kind": "table", "balls": [["1/2", "0"]]}),
         "params.balls.balls.0.1"),
        (_probe({"kind": "interval", "split": "0"}, {"kind": "shrinking_intervals"}),
         "params.grid.split"),
        (_probe({"kind": "rectangle", "a": "3/2", "b": "6/10"}, {"kind": "corner_discs"}),
         "params.grid.a"),
    ])
    def test_violated_hypothesis_exits_2(self, tmp_path, capsys, doc, field):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(doc))
        assert cli.main([doc["experiment"], "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line.split()[2] for line in err.splitlines()] == [f"{field}:"]

    @pytest.mark.parametrize("experiment, schedule", [("classify", DEPTH3), ("simulate", SQRT)])
    def test_blaschke_angle_one_is_angle_zero(self, tmp_path, experiment, schedule):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(_on_map("blaschke", {"decimal": 1.0}, schedule, experiment,
                                           zeros=[0, 0.5])))
        assert cli.main([experiment, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0


# values at and around the edges of every range: 0, negatives, NaN, inf, bools
EDGES = [0, 0.0, -0.0, 1e-9, -1e-9, 0.5, 1, 1.0, -1, 2, 3, 1.5, math.nan, math.inf, -math.inf,
         True]
SIZES = [-1, 0, 1, 2, 3, 4, 8, 1.5, 2.0, math.nan, True]
RANKS = [1e-9, 0.015625, 0.0625, 0.125, 0.25, 0.5, 0.9, 0, 1, -0.25, math.nan]
_NUM, _SIZE, _RANK = (st.sampled_from(v) for v in (EDGES, SIZES, RANKS))
VALID_BOUNDS = {   # a valid evaluation of each formula, fields by argument name
    "radii_lower": {"h": 0.7, "delta_bar": 1.0, "ell_bar": 0.5, "tau_bar": 0.1, "log_beta": 0.7},
    "doubling": {"delta_bar": 1.0, "ell_bar": 0.5, "s": 1.0, "log_beta": 0.7},
    "code_lower": {"h": 0.7, "L_bar": 0.3},
    "code_w": {"w_bar": 1.0},
    "upper_finite": {"D": 2, "h": 0.7, "L_lower": 0.7, "delta_lower": 1.0, "ell_lower": 0.5},
    "hoeffding": {"p": [0.25, 0.75], "L_lower": 0.7},
    "cantor_lambda": {"a": 2, "b": 1, "c": 1, "delta": 0.5, "N_js": [2, 4, 8]},
    "grid_transfer": {"a_n": [0.0625, 0.015625, 1e-9], "b_n": [0.5, 0.25, 0.125],
                      "grid_dim": 0.5},
}
LISTS = {"p": _NUM, "N_js": _SIZE, "a_n": _RANK, "b_n": _RANK}
OPTIONAL = {"L_lower", "delta_lower", "ell_lower"}      # of upper_finite, whose default is None
FRACTIONS = [Fraction(k, 4) for k in range(-1, 6)] + [Fraction(1, 3), Fraction(2, 3)]


@st.composite
def _evaluation(draw, formula):
    """(formula, args): each argument valid, an edge value, a list of them
    (short, unsorted), or for an optional one absent (None)."""
    args = {}
    for key, good in VALID_BOUNDS[formula].items():
        bad = st.lists(LISTS[key], max_size=5) if key in LISTS else _NUM
        absent = [st.none()] if formula == "upper_finite" and key in OPTIONAL else []
        args[key] = draw(st.one_of(st.just(good), bad, *absent))
    return formula, args


@st.composite
def _map_args(draw, kind):
    """(kind, config fields, the constructor's arguments) of a map, drawn
    around the edges of its table."""
    if kind == "dary":
        D = draw(st.sampled_from([-1, 0, 1, 2, 3, 2 ** 16, 2 ** 16 + 1, 2.0, 1.5, math.nan,
                                  math.inf, True]))
        return kind, {"D": D}, {"D": D}
    if kind == "markov":
        n = draw(st.integers(1, 3))
        rows = draw(st.one_of(
            st.sampled_from([[[Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 2), Fraction(1, 2)]],
                             [[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [Fraction(1, 2)] * 2],
                             [[Fraction(1, 3)] * 3] * 3]),
            st.lists(st.lists(st.sampled_from(FRACTIONS), min_size=n, max_size=n),
                     min_size=n, max_size=n + 1)))
        p = draw(st.one_of(st.sampled_from([[Fraction(2, 3), Fraction(1, 3)],
                                            [Fraction(1, 2)] * 2, [Fraction(1, 3)] * 3]),
                           st.lists(st.sampled_from(FRACTIONS), min_size=1, max_size=3)))
        return kind, {"M": [[str(x) for x in row] for row in rows], "p": [str(x) for x in p]}, \
            {"M": rows, "p": p}
    zeros = draw(st.lists(st.sampled_from(
        [0, 0.0, [0, 0], [0.5, 0], [0.2, -0.3], 0.5, -0.99, [0, 0.999], 1, [1, 0], [0.8, 0.6],
         math.nan, [math.nan, 0], math.inf, -1.5]), max_size=4))
    return kind, {"zeros": zeros}, {"zeros": zeros}


# grid ratios at and around 0 and 1, negatives, floats and "num/den" strings
RATIOS = st.one_of(
    st.sampled_from([0, 1, -1, 2, "0", "1", "1/2", "3/2", "-1/2", "1/0", "x", 0.5, 0.0, 1.0,
                     -0.5, True]),
    st.tuples(st.integers(-2, 12), st.integers(1, 10)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.floats(-1, 2))
ENTRIES = st.integers(0, 8).map(lambda k: Fraction(k, 8))      # in [0, 1]
RADII = st.integers(1, 8).map(lambda k: Fraction(k, 8))


@st.composite
def _balls(draw):
    """(grid kind, balls): valid balls, or one fault in one ball: a wrong
    arity, a radius 0 or < 0, or an entry that is not a rational."""
    grid = draw(st.sampled_from(["interval", "square", "rectangle"]))
    dim = 1 if grid == "interval" else 2
    balls = draw(st.lists(st.tuples(*[ENTRIES] * dim, RADII), min_size=1, max_size=3))
    i = draw(st.integers(0, len(balls) - 1))
    ball = list(balls[i])
    fault = draw(st.sampled_from(["none", "arity", "radius", "entry"]))
    if fault == "arity":
        ball = draw(st.lists(ENTRIES, max_size=4).filter(lambda b: len(b) != dim + 1))
    elif fault == "radius":
        ball[-1] = draw(st.sampled_from([Fraction(0), Fraction(-1, 4), -1]))
    elif fault == "entry":
        ball[draw(st.integers(0, dim))] = draw(st.sampled_from([0.5, 1.0, True, "x", None]))
    balls[i] = tuple(ball)
    return grid, balls


def _fields(message, block=""):
    """Per violation in message, the field it names below the block at path
    `block` (the text before its first ": "), or for a rule of the whole block
    its reason."""
    return [m.removeprefix(block).lstrip(".:").strip().split(": ")[0]
            for m in message.split("; ")]


class TestSchemaMatchesAPI:
    """parse_config rejects an input exactly when the API call raises, and
    both name the same field: there is one check, in the table."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(VALID_BOUNDS)).flatmap(_evaluation))
    def test_bounds(self, evaluation):
        formula, args = evaluation
        doc = _bounds(formula=formula, **{k: v for k, v in args.items() if v is not None})
        config = api = None             # the fields named, None when accepted
        try:
            parse_config(doc)
        except ConfigError as e:
            config = _fields("; ".join(e.violations), E0)
        try:
            BOUNDS[formula][0](**args)
        except DimensionError as e:
            api = _fields(str(e))
        assert config == api

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["dary", "markov", "blaschke"]).flatmap(_map_args))
    def test_maps(self, drawn):
        kind, fields, args = drawn
        config = api = None             # the fields named, None when accepted
        try:
            parse_config({"experiment": "entropy", "map": {"kind": kind, **fields}})
        except ConfigError as e:
            config = re.findall(r"(?:^|; )(map[\w.]*): ", "; ".join(e.violations))
        try:
            MAP_KINDS[kind][0](**args)
        except MapError as e:
            api = re.findall(r"(?:^|; )(map[\w.]*): ", str(e))
        assert config == api

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["interval", "rectangle"]), RATIOS, RATIOS)
    def test_grids(self, kind, x, y):
        fields = {"split": x} if kind == "interval" else {"a": x, "b": y}
        balls = {"kind": "shrinking_intervals" if kind == "interval" else "corner_discs",
                 "kmax": 3}
        config = api = None             # the fields named, None when accepted
        try:
            parse_config({"experiment": "gridprobe",
                          "params": {"grid": {"kind": kind, **fields}, "balls": balls}})
        except ConfigError as e:
            config = re.findall(r"(?:^|; )(params\.grid[\w.]*): ", "; ".join(e.violations))
        try:
            (IntervalSplitGrid if kind == "interval" else ProductSplitGrid)(**fields)
        except DimensionError as e:
            api = re.findall(r"(?:^|; )(params\.grid[\w.]*): ", str(e))
        assert config == api

    @settings(max_examples=200, deadline=None)
    @given(_balls())
    def test_balls(self, drawn):
        kind, balls = drawn
        rows = [[f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else x
                 for x in ball] for ball in balls]
        grid = {"kind": kind, **({"a": "7/10", "b": "6/10"} if kind == "rectangle" else {})}
        config = api = None             # the fields named below the balls block
        try:
            parse_config({"experiment": "gridprobe",
                          "params": {"grid": grid, "balls": {"kind": "table", "balls": rows}}})
        except ConfigError as e:
            config = re.findall(r"(?:^|; )params\.balls\.(balls[\w.]*): ",
                                "; ".join(e.violations))
        try:
            grid_regularity_probe(IntervalSplitGrid() if kind == "interval" else
                                  ProductSplitGrid(*(Fraction(grid[k]) for k in "ab" if k in grid)),
                                  balls)
        except DimensionError as e:
            api = re.findall(r"(?:^|; )(balls[\w.]*): ", str(e))
        assert config == api
