import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuelspatial import cli, geo
from fuelspatial import gwr as gwrmod
from fuelspatial import ingest as ing
from fuelspatial.errors import FuelSpatialError, StoreWriteError
from fuelspatial.geo import Bandwidth, GeoPoint, KernelShape, build_weights, distance_matrix
from fuelspatial.ingest import ObservationStore, filter_observations, read_store
from fuelspatial.spatial_stats import moran_index


def run(*argv):
    return cli.execute(list(argv))


def run_chain(root: Path, extra_gwr=()):
    """Full subcommand chain with paths relative to `root`."""
    root.mkdir(parents=True, exist_ok=True)
    prev = os.getcwd()
    os.chdir(root)
    try:
        assert run("synth", "--out", "data", "--seed", "5") == 0
        assert run("ingest", "--out", "run", "--pages", "data/pages",
                   "--store", "run/store.psv") == 0
        common = ["--out", "run", "--store", "run/store.psv",
                  "--stations", "data/stations.csv",
                  "--covariates", "data/covariates.csv"]
        assert run("stats", *common) == 0
        assert run("moran", *common) == 0
        assert run("gwr", *common, "--kernel", "gaussian", *extra_gwr) == 0
        assert run("fe", *common) == 0
        assert run("report", "--out", "run") == 0
    finally:
        os.chdir(prev)
    return root / "run"


@pytest.fixture(scope="session")
def chain_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    return run_chain(root)


# The artifacts each subcommand of the chain records in run/manifest.json.
_CHAIN_ENTRIES = {
    "ingest": ["ingest_report.json"],
    "stats": ["descriptives.csv", "variance_decomposition.csv"],
    "moran": ["moran_sweep.csv"],
    "gwr": ["gwr_fit.csv", "gwr_fit.geojson", "neighbor_scale.csv"],
    "fe": ["fe_table.csv", "fe_table.txt", "fe_variance.csv"],
}
_CHAIN_ARTIFACTS = {name for names in _CHAIN_ENTRIES.values() for name in names}


class TestConfig:
    def test_load_config_parses_flat_pairs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\nkernel=step  # trailing comment\n\n# note\n")
        assert cli.load_config(path) == {"seed": "7", "kernel": "step"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(FuelSpatialError):
            cli.load_config(path)

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed=7\nd0_grid = 5, 50\nkernel = Bisquare\n")
        parser = cli.make_parser()

        def typed(*argv):
            cfg = cli.build_config(parser.parse_args(list(argv)))
            return cfg["seed"], cfg["d0_grid"], cfg["kernel"]

        assert typed("synth", "--out", "x") == (
            42, (10.0, 30.0, 100.0, 300.0, 1000.0), KernelShape.GAUSSIAN)
        assert typed("--config", str(cfg_file), "synth", "--out", "x") == (
            7, (5.0, 50.0), KernelShape.BISQUARE)
        assert typed("--config", str(cfg_file), "synth", "--out", "x", "--seed", "9",
                     "--d0-grid", "20", "--kernel", "all") == (9, (20.0,), "all")

    def test_empty_value_leaves_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed =\nbandwidth_k =\n")
        args = cli.make_parser().parse_args(["--config", str(cfg_file), "gwr",
                                             "--out", "x", "--kernel", ""])
        cfg = cli.build_config(args)
        assert (cfg["seed"], cfg["bandwidth_k"], cfg["kernel"]) == (
            42, None, KernelShape.GAUSSIAN)

    def test_config_seed_reaches_manifest(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"seed=7\nout={tmp_path / 'out'}\n")
        assert run("--config", str(cfg_file), "synth") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["synth"]["seed"] == 7

    def test_flag_before_subcommand_is_accepted(self, tmp_path):
        out = tmp_path / "out"
        assert run("--seed", "7", "--out", str(out), "synth") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["synth"]["seed"] == 7
        assert manifest["synth"]["config"] == {"out": str(out), "seed": "7"}

    def test_stats_accepts_covariates_flag(self, tmp_path, chain_dir):
        # The benchmark chain and scripts/run_pipeline.py pass --covariates to
        # stats, which does not read it.
        out = tmp_path / "out"
        assert run("stats", *_inputs(chain_dir, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "covariates" in manifest["stats"]["config"]


# Table cells each loader rejects: (table, column, value, error message).
_BAD_CELLS = [
    ("covariates", "income", "abc",
     "county_fips {key}: income must be a finite number, got 'abc'"),
    ("covariates", "income", "nan",
     "county_fips {key}: income must be a finite number, got 'nan'"),
    ("covariates", "density", "nan",
     "county_fips {key}: density must be a finite number, got 'nan'"),
    ("covariates", "lat", "95",
     "county_fips {key}: lat must be a finite number in [-90, 90], got '95'"),
    ("covariates", "lat", "inf",
     "county_fips {key}: lat must be a finite number in [-90, 90], got 'inf'"),
    ("covariates", "lon", "-180.5",
     "county_fips {key}: lon must be a finite number in [-180, 180], got '-180.5'"),
    ("stations", "lat", "x",
     "station_id {key}: lat must be a finite number in [-90, 90], got 'x'"),
    ("stations", "county_fips", "99001",
     "station_id {key}: county_fips 99001 does not belong to state {state}"),
    # A value in _SHAPES reshapes the table instead: one cell more or one
    # fewer in the first row (line 2), or ``column`` dropped from every row.
    ("covariates", "vote_gop", "extra-cell", "line 2: 17 cells where the header has 16"),
    ("covariates", "vote_gop", "short-row", "line 2: 15 cells where the header has 16"),
    ("covariates", "county_fips", "no-column", "header has no column 'county_fips'"),
    ("stations", "state_id", "extra-cell", "line 2: 7 cells where the header has 6"),
    ("stations", "state_id", "short-row", "line 2: 5 cells where the header has 6"),
    ("stations", "city", "no-column", "header has no column 'city'"),
]
_SHAPES = ("extra-cell", "short-row", "no-column")


class TestExitCodes:
    def test_no_command_is_one(self):
        assert run() == 1

    def test_missing_out_is_one(self):
        assert run("synth") == 1

    def test_missing_input_path_is_one(self, tmp_path):
        assert run("stats", "--out", str(tmp_path),
                   "--store", str(tmp_path / "absent.psv"),
                   "--stations", str(tmp_path / "absent.csv")) == 1

    def test_nan_decay_distance_is_one(self, tmp_path, chain_dir, capsys):
        argv = _inputs(chain_dir, tmp_path / "out")
        assert run("moran", *argv, "--d0-grid", "10,nan") == 1
        assert "fixed bandwidth must be finite and > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "moran_sweep.csv").exists()

    def test_infinite_decay_distance_is_one(self, tmp_path, chain_dir, capsys):
        argv = _inputs(chain_dir, tmp_path / "out")
        assert run("moran", *argv, "--d0-grid", "10,inf") == 1
        assert "fixed bandwidth must be finite and > 0, got inf" in capsys.readouterr().err
        assert not (tmp_path / "out" / "moran_sweep.csv").exists()

    @pytest.mark.parametrize("grid", ["10,abc", "10,,30"])
    def test_malformed_decay_grid_is_one(self, tmp_path, chain_dir, capsys, grid):
        argv = _inputs(chain_dir, tmp_path / "out")
        assert run("moran", *argv, "--d0-grid", grid) == 1
        assert "config value 'd0_grid' is not a valid float" in capsys.readouterr().err
        assert not (tmp_path / "out" / "moran_sweep.csv").exists()

    @pytest.mark.parametrize("command, key", [("synth", "seed"), ("ingest", "max_in_flight"),
                                              ("ingest", "per_host_delay_ms"),
                                              ("gwr", "bandwidth_k")])
    def test_malformed_numeric_config_value_is_one(self, tmp_path, chain_dir, capsys,
                                                   command, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = x\n")
        argv = _inputs(chain_dir, tmp_path / "out")
        if command == "ingest":
            argv = ["--out", str(tmp_path / "out"), "--store", str(tmp_path / "s.psv"),
                    "--pages", str(chain_dir.parent / "data" / "pages")]
        assert run("--config", str(cfg_file), command, *argv) == 1
        assert f"config value {key!r} is not a valid" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_max_in_flight_is_one(self, tmp_path, chain_dir, capsys, value):
        store = tmp_path / "s.psv"
        assert run("ingest", "--out", str(tmp_path / "out"), "--store", str(store),
                   "--pages", str(chain_dir.parent / "data" / "pages"),
                   "--max-in-flight", value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--max-in-flight" in err
        assert not store.exists()

    @pytest.mark.parametrize("argv", [["stats", "--enumerate"], ["stats", "--bogus", "1"],
                                      ["regress"]], ids=["enumerate", "flag", "subcommand"])
    def test_usage_error_is_two(self, tmp_path, chain_dir, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*argv, *_inputs(chain_dir, out))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: fuelspatial")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, names", [
        ("gwr", "--gwr-covariates", "income,foo"),
        ("fe", "--fe-covariates", "density,foo"),
    ])
    def test_unknown_covariate_is_one(self, tmp_path, chain_dir, capsys, command, flag,
                                      names):
        assert run(command, *_inputs(chain_dir, tmp_path / "out"), flag, names) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'foo'" in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command, key, value", [("moran", "window", "monthly"),
                                                     ("gwr", "criterion", "aic")])
    def test_config_value_outside_flag_choices_is_one(self, tmp_path, chain_dir, capsys,
                                                      command, key, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        argv = _inputs(chain_dir, tmp_path / "out")
        assert run("--config", str(cfg_file), command, *argv) == 1
        err = capsys.readouterr().err
        assert f"config value {key!r} must be one of" in err and repr(value) in err

    @pytest.mark.parametrize("command, source, key, value", [
        ("stats", "file", "seed", "x"),
        ("stats", "file", "seed", "-3"),
        ("synth", "flag", "seed", "-1"),
        ("synth", "flag", "seed", "abc"),
        ("ingest", "flag", "retries", "-1"),
        ("ingest", "flag", "per_host_delay_ms", "-5"),
        ("moran", "flag", "window", "monthly"),
        ("fe", "flag", "fe_covariates", "income,income"),
        ("moran", "flag", "d0_grid", "10,30,10"),
        ("moran", "file", "d0_grid", "10,10.0"),
        ("stats", "flag", "fuel", "Foo"),
        ("gwr", "file", "fuel", "Foo"),
    ])
    def test_invalid_value_is_one_before_any_work(self, tmp_path, chain_dir, capsys,
                                                  command, source, key, value):
        out = tmp_path / "out"
        if command == "synth":
            argv = ["--out", str(out)]
        elif command == "ingest":
            argv = ["--out", str(out), "--store", str(out / "store.psv"),
                    "--pages", str(chain_dir.parent / "data" / "pages")]
        else:
            argv = _inputs(chain_dir, out)
        if source == "flag":
            argv = [command, *argv, "--" + key.replace("_", "-"), value]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"{key} = {value}\n")
            argv = ["--config", str(cfg_file), command, *argv]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"config value {key!r}" in err
        assert not (out / "descriptives.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize("search", [["--enumerate"], ["--kernel", "all"]],
                             ids=["enumerate", "kernel-all"])
    def test_bandwidth_k_with_search_is_one_before_any_work(self, tmp_path, chain_dir,
                                                             capsys, monkeypatch, search):
        def unread(*args):
            raise AssertionError("gwr loaded data")

        monkeypatch.setattr(cli, "_county_dataset", unread)
        out = tmp_path / "out"
        assert run("gwr", *_inputs(chain_dir, out), *search, "--bandwidth-k", "5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config value 'bandwidth_k' cannot be combined with "
                              + ("--enumerate" if search == ["--enumerate"] else "kernel 'all'"))
        assert list(out.iterdir()) == []

    def test_unknown_config_key_is_one(self, tmp_path, chain_dir, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kernal = bisquare\n")
        out = tmp_path / "out"
        assert run("--config", str(cfg_file), "gwr", *_inputs(chain_dir, out)) == 1
        assert "unknown config key 'kernal'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, table, column, value, message", [
        pytest.param(command, *case, id="-".join([command, *case[:3]]))
        for case in _BAD_CELLS for command in ("stats", "moran", "gwr", "fe")
        if command != "stats" or case[0] == "stations"])
    def test_bad_table_cell_is_one_before_any_work(self, tmp_path, chain_dir, capsys,
                                                   command, table, column, value, message):
        path = tmp_path / f"{table}.csv"
        edit = _reshaped_csv if value in _SHAPES else _edited_csv
        row = edit(chain_dir.parent / "data" / path.name, path, lambda rows: rows[0],
                   column, value)
        out = tmp_path / "out"
        assert run(command, *_inputs(chain_dir, out, **{table: path})) == 1
        key = row["station_id" if table == "stations" else "county_fips"]
        want = message.format(key=key, state=row.get("state_id"))
        assert capsys.readouterr().err == f"error: {want} (source: {path})\n"
        assert list(out.iterdir()) == []

    def test_duplicate_station_id_is_one(self, tmp_path, chain_dir, capsys):
        lines = (chain_dir.parent / "data" / "stations.csv").read_text().splitlines()
        registry = tmp_path / "stations.csv"
        registry.write_text("\n".join(lines + [lines[1]]) + "\n")
        out = tmp_path / "out"
        assert run("stats", *_inputs(chain_dir, out, stations=registry)) == 1
        station = lines[1].split(",")[0]
        assert capsys.readouterr().err == (f"error: duplicate station_id {station} "
                                           f"in {registry}\n")
        assert list(out.iterdir()) == []

    def test_runtime_error_is_two(self, tmp_path, chain_dir, monkeypatch, capsys):
        def unreadable(path):
            raise OSError(f"cannot read {path}")

        monkeypatch.setattr(ing, "read_store", unreadable)
        assert run("stats", *_inputs(chain_dir, tmp_path / "out")) == 2
        assert "runtime error: OSError: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()


class TestChainArtifacts:
    def test_all_artifacts_present(self, chain_dir):
        manifest = json.loads((chain_dir / "manifest.json").read_text())
        recorded = {name for entry in manifest.values() for name in entry["artifacts"]}
        assert recorded == _CHAIN_ARTIFACTS
        for name in recorded:
            assert (chain_dir / name).exists(), name
        assert (chain_dir / "summary.txt").exists()
        synth = json.loads((chain_dir.parent / "data" / "manifest.json").read_text())
        assert set(synth["synth"]["artifacts"]) == {"stations.csv", "covariates.csv",
                                                    "synth_truth.json"}

    def test_manifest_checksums_match(self, chain_dir):
        manifest = json.loads((chain_dir / "manifest.json").read_text())
        for entry in manifest.values():
            for name, digest in entry["artifacts"].items():
                assert cli._sha256(chain_dir / name) == digest
            assert "timestamp" not in entry
        assert "timestamp" not in manifest

    def test_ingest_report_consistent_with_truth(self, chain_dir):
        truth = json.loads((chain_dir.parent / "data" / "synth_truth.json").read_text())
        report = json.loads((chain_dir / "ingest_report.json").read_text())
        assert report["stored"] == truth["unique_records"]
        assert report["duplicates_dropped"] == truth["planted_duplicates"]
        assert report["quarantined"] == truth["quarantined"]
        assert report["failed"] == 0

    def test_ingest_reports_and_cuts_torn_tail(self, chain_dir, tmp_path, capsys):
        store = tmp_path / "store.psv"
        torn = "st1|2017-01-05T08:0"
        store.write_text(torn)
        assert run("ingest", "--out", str(tmp_path / "run"),
                   "--pages", str(chain_dir.parent / "data" / "pages"),
                   "--store", str(store)) == 0
        assert f"torn final line of {len(torn)} bytes" in capsys.readouterr().out
        truth = json.loads((chain_dir.parent / "data" / "synth_truth.json").read_text())
        reopened = ObservationStore(store)
        assert reopened.torn_bytes == 0
        assert reopened.load().price.size == len(reopened) == truth["unique_records"]

    def test_fe_variance_nested_groupings_monotone(self, chain_dir):
        with open(chain_dir / "fe_variance.csv", newline="") as fh:
            r2 = {row["level"]: float(row["r_squared"]) for row in csv.DictReader(fh)}
        assert r2["state"] <= r2["county"] + 1e-12
        assert r2["county"] <= r2["station"] + 1e-12
        assert 0.0 <= r2["state"] and r2["station"] <= 1.0

    def test_moran_sweep_covers_grid(self, chain_dir):
        with open(chain_dir / "moran_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert {float(r["d0_km"]) for r in rows} <= {10.0, 30.0, 100.0, 300.0, 1000.0}
        for r in rows:
            assert int(r["n"]) >= 3
            assert abs(float(r["moran_i"])) < 10

    def test_gwr_geojson_is_feature_collection(self, chain_dir):
        doc = json.loads((chain_dir / "gwr_fit.geojson").read_text())
        assert doc["type"] == "FeatureCollection"
        feature = doc["features"][0]
        assert feature["geometry"]["type"] == "Point"
        assert "local_r2" in feature["properties"]

    def test_stats_and_fe_read_every_fuel(self, chain_dir, tmp_path, capsys):
        store = read_store(chain_dir / "store.psv")
        every = filter_observations(store, None).price.size
        assert every > filter_observations(store).price.size
        out = tmp_path / "all"
        for command in ("stats", "fe"):
            assert run(command, *_inputs(chain_dir, out), "--fuel", "all") == 0
        assert f"stats: {every} observations" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["config"]["fuel"] == manifest["fe"]["config"]["fuel"] == "all"
        for name in ("descriptives.csv", "fe_variance.csv", "fe_table.csv"):
            assert (out / name).read_text() != (chain_dir / name).read_text()

    def test_report_flags_missing_artifacts(self, tmp_path):
        assert run("report", "--out", str(tmp_path)) == 0
        assert (tmp_path / "summary.txt").read_text().endswith(
            f"no artifacts recorded in {tmp_path / 'manifest.json'}\n")
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"fe": {"artifacts": {"fe_table.csv": "0" * 64}, "config": {}, "seed": 42}}))
        assert run("report", "--out", str(tmp_path)) == 0
        assert "missing artifacts: fe_table.csv" in (tmp_path / "summary.txt").read_text()


class TestRunManifest:
    def test_chain_records_every_subcommand(self, chain_dir):
        manifest = json.loads((chain_dir / "manifest.json").read_text())
        assert list(manifest) == sorted(_CHAIN_ENTRIES)
        for command, names in _CHAIN_ENTRIES.items():
            entry = manifest[command]
            assert sorted(entry) == ["artifacts", "config", "seed"]
            assert list(entry["artifacts"]) == sorted(names)
            for name, digest in entry["artifacts"].items():
                assert cli._sha256(chain_dir / name) == digest, name
        assert manifest["gwr"]["config"]["kernel"] == "gaussian"
        assert manifest["ingest"]["config"] == {"out": "run", "pages": "data/pages",
                                                "store": "run/store.psv"}

    def test_rerun_replaces_only_its_entry(self, chain_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        before = json.loads((out / "manifest.json").read_text())
        assert run("gwr", *_inputs(chain_dir, out), "--kernel", "bisquare") == 0
        after = json.loads((out / "manifest.json").read_text())
        assert {c: e for c, e in after.items() if c != "gwr"} == \
            {c: e for c, e in before.items() if c != "gwr"}
        assert after["gwr"]["config"]["kernel"] == "bisquare"
        assert after["gwr"]["artifacts"] != before["gwr"]["artifacts"]
        for name, digest in after["gwr"]["artifacts"].items():
            assert cli._sha256(out / name) == digest, name

    def test_enumerate_is_recorded_and_rerun_removes_its_files(self, chain_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        assert run("gwr", *_inputs(chain_dir, out), "--kernel", "gaussian") == 0
        default = json.loads((out / "manifest.json").read_text())["gwr"]
        assert run("gwr", *_inputs(chain_dir, out), "--kernel", "gaussian",
                   "--enumerate") == 0
        enumerated = json.loads((out / "manifest.json").read_text())["gwr"]
        assert enumerated["enumerate"] is True and "enumerate" not in default
        assert enumerated["config"] == default["config"]
        assert "model_selection.csv" in enumerated["artifacts"]
        assert run("gwr", *_inputs(chain_dir, out), "--kernel", "gaussian") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gwr"] == default
        assert not (out / "model_selection.csv").exists()
        assert run("report", "--out", str(out)) == 0
        summary = (out / "summary.txt").read_text()
        assert "model_selection" not in summary and "artifacts:" not in summary

    def test_rerun_deletes_only_files_no_entry_keeps(self, chain_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        manifest = json.loads((out / "manifest.json").read_text())
        for name in ("stale.csv", "shared.csv"):
            (out / name).write_text("x\n")
        (tmp_path / "outside.csv").write_text("x\n")
        (out / "sub").mkdir()
        manifest["gwr"]["artifacts"].update(
            {name: "0" * 64 for name in ("stale.csv", "shared.csv", "../outside.csv",
                                         "sub", "gone.csv")})
        manifest["fe"]["artifacts"]["shared.csv"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run("gwr", *_inputs(chain_dir, out), "--kernel", "gaussian") == 0
        assert not (out / "stale.csv").exists()
        assert (out / "shared.csv").exists() and (tmp_path / "outside.csv").exists()
        assert (out / "sub").is_dir()
        after = json.loads((out / "manifest.json").read_text())
        assert sorted(after["gwr"]["artifacts"]) == sorted(_CHAIN_ENTRIES["gwr"])
        for name in _CHAIN_ARTIFACTS:
            assert (out / name).is_file(), name

    def test_report_flags_edited_and_deleted_artifacts(self, chain_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        manifest = (out / "manifest.json").read_bytes()
        with open(out / "descriptives.csv", "a") as fh:
            fh.write("edited\n")
        (out / "moran_sweep.csv").unlink()
        assert run("report", "--out", str(out)) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[-2:] == ["missing artifacts: moran_sweep.csv",
                                "changed artifacts: descriptives.csv"]
        listed = {line.split()[1] for line in summary[2:-2]}
        assert listed == _CHAIN_ARTIFACTS - {"moran_sweep.csv"}
        assert (out / "manifest.json").read_bytes() == manifest

    def test_clean_chain_report_flags_nothing(self, chain_dir):
        summary = (chain_dir / "summary.txt").read_text().splitlines()
        assert {line.split()[1] for line in summary[2:]} == _CHAIN_ARTIFACTS
        assert not any("artifacts:" in line for line in summary)

    @pytest.mark.parametrize("text", ["{", "[]", '{"stats": []}',
                                      '{"stats": {"artifacts": ["x.csv"]}}'],
                             ids=["truncated", "list", "entry", "artifacts"])
    def test_corrupt_manifest_is_one_and_writes_nothing(self, chain_dir, tmp_path, capsys,
                                                         text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        assert run("stats", *_inputs(chain_dir, out)) == 1
        assert capsys.readouterr().err.startswith(f"error: corrupt manifest {out}")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == text

    def test_aborted_ingest_records_its_report(self, chain_dir, tmp_path, monkeypatch):
        def full(store, records):
            raise StoreWriteError("disk full")

        monkeypatch.setattr(ing.ObservationStore, "add", full)
        out = tmp_path / "run"
        assert run("ingest", "--out", str(out), "--store", str(out / "store.psv"),
                   "--pages", str(chain_dir.parent / "data" / "pages")) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["ingest"]
        assert list(manifest["ingest"]["artifacts"]) == ["ingest_report.json"]

    def test_single_entry_manifest_is_replaced(self, chain_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps(
            {"artifacts": {"fe_table.csv": "0" * 64}, "config": {"out": str(out)},
             "seed": 42}))
        assert run("stats", *_inputs(chain_dir, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["stats"]
        assert sorted(manifest["stats"]["artifacts"]) == ["descriptives.csv",
                                                         "variance_decomposition.csv"]


def _inputs(chain_dir, out, store=None, stations=None, covariates=None):
    data = chain_dir.parent / "data"
    return ["--out", str(out), "--store", str(store or chain_dir / "store.psv"),
            "--stations", str(stations or data / "stations.csv"),
            "--covariates", str(covariates or data / "covariates.csv")]


def _edited_csv(src, dst, pick, column, value) -> dict:
    """Copy a CSV table with ``value`` in ``column`` of the row that ``pick``
    chooses from the list of rows; returns that row as it was."""
    with open(src, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    row = pick(rows)
    original = dict(row)
    row[column] = value
    with open(dst, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fields, lineterminator="\n")
        wr.writeheader()
        wr.writerows(rows)
    return original


def _reshaped_csv(src, dst, pick, column, shape) -> dict:
    """Copy a CSV table with the row that ``pick`` chooses given one cell more
    after ``column`` or without that cell (``shape`` "extra-cell" or
    "short-row"), or with ``column`` dropped from every row ("no-column");
    returns that row as it was."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    target, at = pick(rows[1:]), rows[0].index(column)
    original = dict(zip(rows[0], target))
    if shape == "no-column":
        for cells in rows:
            del cells[at]
    elif shape == "short-row":
        del target[at]
    else:
        target.insert(at + 1, "1")
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return original


def _in_station_county(chain_dir):
    """A row picker for ``_edited_csv``: the first covariate row of a county
    that has stations."""
    with open(chain_dir.parent / "data" / "stations.csv", newline="") as fh:
        counties = {row["county_fips"] for row in csv.DictReader(fh)}
    return lambda rows: next(r for r in rows if r["county_fips"] in counties)


class TestStoreInput:
    @pytest.mark.parametrize("command", ["stats", "moran", "gwr", "fe"])
    def test_orphan_records_reported(self, chain_dir, tmp_path, capsys, command):
        lines = (chain_dir.parent / "data" / "stations.csv").read_text().splitlines()
        removed = lines.pop(1).split(",")[0]
        registry = tmp_path / "stations.csv"
        registry.write_text("\n".join(lines) + "\n")
        records = filter_observations(read_store(chain_dir / "store.psv"))
        dropped = int(np.sum(records.station == records.station_ids.index(removed)))
        assert dropped > 0
        assert run(command, *_inputs(chain_dir, tmp_path / "out", stations=registry)) == 0
        out = capsys.readouterr().out
        assert f"{command}: dropping {dropped} records of 1 station ids missing from " \
               f"{registry}" in out
        assert run(command, *_inputs(chain_dir, tmp_path / "full")) == 0
        assert "dropping" not in capsys.readouterr().out

    def test_malformed_store_line_is_a_validation_error(self, chain_dir, tmp_path, capsys):
        lines = (chain_dir / "store.psv").read_text().splitlines()
        station, _, *rest = lines[5].split("|")
        bad = lines[5] = "|".join([station, "2017-01-10 noon", *rest])
        store = tmp_path / "store.psv"
        store.write_text("\n".join(lines) + "\n")
        assert run("stats", *_inputs(chain_dir, tmp_path / "out", store=store)) == 1
        err = capsys.readouterr().err
        assert f"bad field in line {bad!r}" in err and str(store) in err

    def test_malformed_store_line_stops_ingest(self, chain_dir, tmp_path, capsys):
        lines = (chain_dir / "store.psv").read_text().splitlines()
        bad = lines[5] = lines[5].rpartition("|")[0]
        store = tmp_path / "store.psv"
        store.write_text("\n".join(lines) + "\n")
        data = store.read_bytes()
        assert run("ingest", "--out", str(tmp_path / "out"), "--store", str(store),
                   "--pages", str(chain_dir.parent / "data" / "pages")) == 1
        err = capsys.readouterr().err
        assert f"expected 5 fields, got 4: {bad!r} (source: {store})" in err
        assert store.read_bytes() == data

    @pytest.mark.parametrize("command", ["ingest", "stats"])
    def test_non_utf8_store_is_a_validation_error(self, chain_dir, tmp_path, capsys,
                                                  command):
        data = (chain_dir / "store.psv").read_bytes()
        at = data.index(b"|") + 1
        store = tmp_path / "store.psv"
        store.write_bytes(data[:at] + b"\xff" + data[at:])
        if command == "ingest":
            argv = ["--out", str(tmp_path / "out"), "--store", str(store),
                    "--pages", str(chain_dir.parent / "data" / "pages")]
        else:
            argv = _inputs(chain_dir, tmp_path / "out", store=store)
        assert run(command, *argv) == 1
        err = capsys.readouterr().err
        assert f"byte {at} is not UTF-8 (source: {store})" in err
        assert store.read_bytes()[at:at + 1] == b"\xff"

    @pytest.mark.parametrize("command", ["stats", "moran", "gwr", "fe"])
    def test_reads_through_the_public_names(self, chain_dir, tmp_path, monkeypatch,
                                            command):
        calls = {}

        def counted(name):
            inner = getattr(ing, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)
            return wrapper

        names = ["read_store", "filter_observations", "aggregate_daily", "aggregate_county"]
        for name in names:
            monkeypatch.setattr(ing, name, counted(name))
        assert run(command, *_inputs(chain_dir, tmp_path / "out")) == 0
        county = 1 if command in ("gwr", "fe") else 0
        assert [calls.get(name, 0) for name in names] == [1, 1, 1, county]

    def test_moran_leaves_out_a_county_without_longitude(self, chain_dir, tmp_path, capsys):
        # The sweep must be the one of a store without that county's stations,
        # byte for byte, for daily and weekly windows.
        data = chain_dir.parent / "data"
        covariates = tmp_path / "covariates.csv"
        fips = _edited_csv(data / "covariates.csv", covariates,
                           _in_station_county(chain_dir), "lon", "")["county_fips"]
        with open(data / "stations.csv", newline="") as fh:
            gone = {r["station_id"] for r in csv.DictReader(fh) if r["county_fips"] == fips}
        lines = (chain_dir / "store.psv").read_text().splitlines(keepends=True)
        kept = [line for line in lines if line.split("|")[0] not in gone]
        assert len(kept) < len(lines)
        store = tmp_path / "store.psv"
        store.write_text("".join(kept))
        argv = _inputs(chain_dir, tmp_path / "out", covariates=covariates)
        for window in ("daily", "weekly"):
            assert run("moran", *argv, "--window", window) == 0
            assert "1 counties left out without coordinates" in capsys.readouterr().out
            assert run("moran", *_inputs(chain_dir, tmp_path / "without", store=store),
                       "--window", window) == 0
            sweep = (tmp_path / "out" / "moran_sweep.csv").read_bytes()
            assert sweep.count(b"\n") > 1
            assert sweep == (tmp_path / "without" / "moran_sweep.csv").read_bytes()
        assert run("gwr", *argv) == 0

    def test_mixed_naive_and_aware_timestamps_are_a_runtime_error(self, chain_dir, tmp_path,
                                                                   capsys):
        lines = (chain_dir / "store.psv").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if "|Regular|Credit|" in line)
        station, ts, *rest = lines[i].split("|")
        lines[i] = "|".join([station, ts + "+00:00", *rest])
        store = tmp_path / "store.psv"
        store.write_text("\n".join(lines) + "\n")
        assert run("stats", *_inputs(chain_dir, tmp_path / "out", store=store)) == 2
        assert "runtime error: TypeError" in capsys.readouterr().err

    @pytest.mark.parametrize("command, column, argv, pattern, change", [
        ("gwr", "income", [], r"gwr: (\d+) counties", -1),
        ("fe", "income", ["--fe-covariates", "income,density"], r", N (\d+),", -1),
        ("gwr", "lon", [], r"gwr: (\d+) counties", -1),
        ("gwr", "lon", [], r"(\d+) counties left out", 1),
        ("moran", "lon", [], r"(\d+) counties left out", 1),
    ], ids=["gwr", "fe", "gwr-lon", "gwr-lon-reported", "moran-lon"])
    def test_blank_covariate_cell_leaves_county_out(self, chain_dir, tmp_path, capsys,
                                                     command, column, argv, pattern, change):
        data = chain_dir.parent / "data"
        covariates = tmp_path / "covariates.csv"
        _edited_csv(data / "covariates.csv", covariates, _in_station_county(chain_dir),
                    column, "")
        counts = []
        for name, table in (("blank", covariates), ("full", data / "covariates.csv")):
            assert run(command, *_inputs(chain_dir, tmp_path / name, covariates=table),
                       *argv) == 0
            counts.append(int(re.search(pattern, capsys.readouterr().out).group(1)))
        assert counts[0] == counts[1] + change

    def test_equal_prices_give_nan_between_share(self, chain_dir, tmp_path):
        lines = [line for line in (chain_dir / "store.psv").read_text().splitlines()
                 if "|Regular|Credit|" in line]
        first = lines[0].split("|")[0]
        other = next(line for line in lines if line.split("|")[0] != first)
        store = tmp_path / "store.psv"
        store.write_text("".join(line.rpartition("|")[0] + "|2.500\n"
                                 for line in (lines[0], other)))
        out = tmp_path / "out"
        assert run("stats", *_inputs(chain_dir, out, store=store)) == 0
        with open(out / "variance_decomposition.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["grouping"] for row in rows] == ["station", "county", "state"]
        assert {(row["total"], row["between_share"]) for row in rows} == {("0", "nan")}
        manifest = json.loads((out / "manifest.json").read_text())
        assert "variance_decomposition.csv" in manifest["stats"]["artifacts"]

    def test_empty_store_has_no_observations(self, chain_dir, tmp_path, capsys):
        store = tmp_path / "store.psv"
        store.write_text("")
        assert run("stats", *_inputs(chain_dir, tmp_path / "out", store=store)) == 1
        assert "no observations after filtering" in capsys.readouterr().err


class TestMoranCrossCheck:
    @pytest.mark.parametrize("window", ["daily", "weekly"])
    def test_sweep_cell_matches_direct_index(self, tmp_path, window):
        # Four counties of two or three stations over two days of one week.
        # A county's last station reports on the first day only, so its
        # weekly cell, the mean of its two daily county means, is not the
        # mean of its station-days.
        rng = np.random.default_rng(3)
        stations, lines, daily = [], [], {10: {}, 12: {}}
        for c in range(4):
            n = 2 + c % 2
            for j in range(n):
                stations.append(f"s{c}{j},{40 + c * 0.2},-100,c,10{c:03d},10\n")
                for day in (10, 12) if j < n - 1 else (10,):
                    price = round(float(rng.uniform(1.9, 2.9)), 3)
                    lines.append(f"s{c}{j}|2017-01-{day}T12:00:00|Regular|Credit|{price:.3f}\n")
                    daily[day].setdefault(c, []).append(price)
        (tmp_path / "stations.csv").write_text(
            "station_id,lat,lon,city,county_fips,state_id\n" + "".join(stations))
        (tmp_path / "covariates.csv").write_text(
            "county_fips,lat,lon\n" + "".join(
                f"10{c:03d},{40 + c * 0.2},-100\n" for c in range(4)))
        (tmp_path / "store.psv").write_text("".join(lines))
        assert run("moran", "--out", str(tmp_path),
                   "--store", str(tmp_path / "store.psv"),
                   "--stations", str(tmp_path / "stations.csv"),
                   "--covariates", str(tmp_path / "covariates.csv"),
                   "--d0-grid", "100", "--window", window) == 0
        with open(tmp_path / "moran_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))

        points = [GeoPoint(40 + c * 0.2, -100) for c in range(4)]
        w = build_weights(points, KernelShape.EXPONENTIAL,
                          Bandwidth.fixed_distance(100.0))
        means = {day: [np.mean(by_county[c]) for c in range(4)]
                 for day, by_county in daily.items()}
        if window == "daily":
            cells = [means[10], means[12]]
        else:
            cells = [np.mean([means[10], means[12]], axis=0)]
            pooled = [np.mean(daily[10][c] + daily[12][c]) for c in range(4)]
            assert abs(moran_index(pooled, w).index - moran_index(cells[0], w).index) > 1e-6
        assert [(r["window_kind"], int(r["n"])) for r in rows] == [(window, 4)] * len(cells)
        for row, cell in zip(rows, cells):
            expected = moran_index(np.array(cell), w)
            assert float(row["moran_i"]) == pytest.approx(expected.index, abs=1e-10)


class TestGwrModes:
    def test_step_kernel_global_bandwidth_is_constant_ols(self, chain_dir, tmp_path):
        # k = n-1 under a step kernel weights every pair equally, so every
        # location must report the same coefficients.
        data = chain_dir.parent / "data"
        out = tmp_path / "gwr"
        with open(data / "covariates.csv", newline="") as fh:
            n = sum(1 for _ in csv.DictReader(fh))
        assert run("gwr", "--out", str(out),
                   "--store", str(chain_dir / "store.psv"),
                   "--stations", str(data / "stations.csv"),
                   "--covariates", str(data / "covariates.csv"),
                   "--kernel", "step", "--bandwidth-k", str(n - 1)) == 0
        with open(out / "gwr_fit.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cols = [c for c in rows[0] if c.endswith("_norm") or c == "intercept_raw"]
        for col in cols:
            values = np.array([float(r[col]) for r in rows])
            assert np.ptp(values) < 1e-8, col

    def test_run_builds_one_distance_matrix(self, chain_dir, tmp_path, monkeypatch):
        calls = []

        def counted(points):
            calls.append(len(points))
            return distance_matrix(points)

        for module in (geo, gwrmod):
            monkeypatch.setattr(module, "distance_matrix", counted)
        out = tmp_path / "gwr"
        assert run("gwr", *_inputs(chain_dir, out), "--kernel", "gaussian") == 0
        assert (out / "neighbor_scale.csv").exists()
        assert len(calls) == 1

    def test_fixed_kernel_run_writes_neighbor_scale(self, chain_dir):
        scale_path = chain_dir / "neighbor_scale.csv"
        assert scale_path.exists()
        with open(scale_path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["median_km"]) > 0
        assert int(row["k"]) >= 1

    def test_cv_criterion_run(self, chain_dir, tmp_path):
        data = chain_dir.parent / "data"
        out = tmp_path / "gwr"
        assert run("gwr", "--out", str(out),
                   "--store", str(chain_dir / "store.psv"),
                   "--stations", str(data / "stations.csv"),
                   "--covariates", str(data / "covariates.csv"),
                   "--criterion", "cv") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "gwr_fit.csv" in manifest["gwr"]["artifacts"]
        for name, digest in manifest["gwr"]["artifacts"].items():
            assert cli._sha256(out / name) == digest, name

    def test_enumerate_bisquare_byte_identical(self, chain_dir, tmp_path):
        data = chain_dir.parent / "data"
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run("gwr", "--out", str(out),
                       "--store", str(chain_dir / "store.psv"),
                       "--stations", str(data / "stations.csv"),
                       "--covariates", str(data / "covariates.csv"),
                       "--kernel", "bisquare", "--enumerate") == 0
        with open(outs[0] / "model_selection.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["kernel"] for r in rows} == {"bisquare"}
        assert rows[0]["rank"] == "1"
        for name in ("model_selection.csv", "gwr_fit.csv", "neighbor_scale.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestDeterminism:
    def test_pipeline_passes_an_encoding_on_every_text_file(self, tmp_path):
        # Under warn_default_encoding, an open() or read_text() that leaves
        # the encoding to the locale raises EncodingWarning, here an error.
        repo = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             str(repo / "scripts" / "run_pipeline.py"), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "run" / "run" / "summary.txt").is_file()

    def test_two_runs_byte_identical(self, tmp_path):
        run_a = run_chain(tmp_path / "a" / "work")
        run_b = run_chain(tmp_path / "b" / "work")
        for name in ("descriptives.csv", "variance_decomposition.csv",
                     "moran_sweep.csv", "gwr_fit.csv", "gwr_fit.geojson",
                     "fe_variance.csv", "fe_table.csv", "manifest.json", "store.psv"):
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
