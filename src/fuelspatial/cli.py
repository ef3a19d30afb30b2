"""Command-line entry point: reproducible analysis runs driven by a flat
key=value config file, with flags overriding file values.

Subcommands: synth, ingest, stats, moran, gwr, fe, report.
Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import econometrics as econ
from . import gwr as gwrmod
from . import ingest as ing
from . import spatial_stats as stats
from . import synth
from .errors import FuelSpatialError
from .geo import Bandwidth, GeoPoint, KernelShape
from .groups import cell_means

# ---------------------------------------------------------------------------
# Config keys. A parser takes a key and its text and returns the typed value,
# or raises FuelSpatialError naming the key.

def _invalid(key: str, problem: str) -> FuelSpatialError:
    return FuelSpatialError(f"config value {key!r} {problem}")


def _cast(kind, key: str, text: str):
    try:
        return kind(text)
    except ValueError:
        raise _invalid(key, f"is not a valid {kind.__name__}: {text!r}") from None


def _at_least(kind, low, key: str, text: str):
    value = _cast(kind, key, text)
    if not low <= value < np.inf:
        raise _invalid(key, f"(--{key.replace('_', '-')}) must be a finite "
                            f"{kind.__name__} >= {low}, got {text!r}")
    return value


def _one_of(allowed, key: str, text: str) -> str:
    if text not in allowed:
        raise _invalid(key, f"must be one of {', '.join(allowed)}, got {text!r}")
    return text


def _kernel_or_all(key: str, text: str):
    name = _one_of([k.value for k in KernelShape] + ["all"], key, text.lower())
    return name if name == "all" else KernelShape(name)


def _d0_grid(key: str, text: str) -> tuple:
    grid = tuple(Bandwidth.fixed_distance(_cast(float, key, d0)).value
                 for d0 in text.split(","))
    if len(set(grid)) < len(grid):
        raise _invalid(key, f"must list distinct distances, got {text!r}")
    return grid


def _names(key: str, text: str) -> tuple:
    names = tuple(name.strip() for name in text.split(","))
    if "" in names or len(set(names)) < len(names):
        raise _invalid(key, f"must list distinct, non-empty covariate names, got {text!r}")
    return names


def _gwr_names(key: str, text: str) -> tuple:
    return econ.GWR_COVARIATES if text == "all" else _names(key, text)


# Every key a config file may set, each also a flag of every subcommand: its
# parser and default text. An empty value is unset; unset with no default is None.
KEYS = {
    "out": (partial(_cast, Path), None),
    "seed": (partial(_at_least, int, 0), "42"),
    "fuel": (partial(_one_of, (*ing.FUEL_TYPES, "all")), "Regular"),
    "d0_grid": (_d0_grid, "10,30,100,300,1000"),
    "kernel": (_kernel_or_all, "gaussian"),
    "criterion": (partial(_one_of, ("aicc", "cv")), "aicc"),
    "stations": (partial(_cast, Path), None),
    "covariates": (partial(_cast, Path), None),
    "store": (partial(_cast, Path), None),
    "pages": (partial(_cast, Path), None),
    "window": (partial(_one_of, ("daily", "weekly")), "daily"),
    "gwr_covariates": (_gwr_names, "all"),
    "fe_covariates": (_names, "density,log_population,log_total_income,unemployment,"
                              "poverty,pct_black,vote_gop"),
    "bandwidth_k": (partial(_at_least, int, 1), None),
    "max_in_flight": (partial(_at_least, int, 1), "4"),
    "per_host_delay_ms": (partial(_at_least, float, 0), "0"),
    "retries": (partial(_at_least, int, 0), "2"),
}


@dataclass(frozen=True)
class RunConfig:
    """Every key's parsed value, and the text of each key that was set."""

    values: dict
    typed: dict

    def __getitem__(self, key: str):
        return self.typed[key]

    def path(self, key: str, must_exist: bool = False) -> Path:
        p = self[key]
        if p is None:
            raise FuelSpatialError(f"missing required config value {key!r}")
        if must_exist and not p.exists():
            raise FuelSpatialError(f"path for {key!r} does not exist: {p}")
        return p


def load_config(path) -> dict:
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FuelSpatialError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def build_config(args) -> RunConfig:
    """Flag over file over default, every key parsed before any work."""
    values = load_config(args.config) if args.config else {}
    for key in values:
        if key not in KEYS:
            raise FuelSpatialError(f"unknown config key {key!r} in {args.config}")
    values.update((key, getattr(args, key)) for key in KEYS
                  if getattr(args, key, None) is not None)
    typed = {}
    for key, (parse, default) in KEYS.items():
        text = values.get(key) or default
        typed[key] = None if text is None else parse(key, text)
    return RunConfig(values, typed)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_manifest(path: Path) -> dict:
    """The subcommand entries of the manifest at ``path`` ({} if there is
    none), each with its artifacts table; a top-level key that names no
    subcommand is dropped. Any other content raises FuelSpatialError."""
    try:
        doc = json.loads(path.read_bytes()) if path.exists() else {}
    except ValueError as exc:
        raise FuelSpatialError(f"corrupt manifest {path}: {exc}") from None
    if not isinstance(doc, dict) or not all(
            isinstance(entry, dict) and isinstance(entry.get("artifacts"), dict)
            for command, entry in doc.items() if command in COMMANDS):
        raise FuelSpatialError(f"corrupt manifest {path}: not an object of subcommand entries")
    return {command: entry for command, entry in doc.items() if command in COMMANDS}


class Run:
    """One subcommand's run in its output directory, which it creates: the
    files it writes there, each recorded by name, and the directory's
    manifest, which keeps one entry per subcommand. ``enumerate_all`` is the
    ``--enumerate`` flag of ``gwr``."""

    def __init__(self, command: str, cfg: RunConfig, enumerate_all: bool = False):
        self.command, self.cfg, self.enumerate_all = command, cfg, enumerate_all
        self.out = cfg.path("out")
        self.manifest = _read_manifest(self.out / "manifest.json")
        self.out.mkdir(parents=True, exist_ok=True)
        self.artifacts: set[str] = set()

    def path(self, name: str) -> Path:
        """The path of artifact ``name``, recorded for the manifest."""
        self.artifacts.add(name)
        return self.out / name

    def write_csv(self, name: str, rows) -> None:
        with open(self.path(name), "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def write_json(self, name: str, doc) -> None:
        self.path(name).write_text(_json_text(doc), encoding="utf-8")


def write_manifest(run: Run) -> None:
    """Store ``run``'s entry in its directory's manifest, keeping every other
    subcommand's: the config values set, the seed, ``"enumerate": true`` if
    the flag was given, and each artifact's sha256.

    A file that the entry it replaces records, that this run did not write
    and that no other entry records is deleted, so that no earlier run's
    output is left behind unrecorded. Only a plain file name in the output
    directory is deleted.
    """
    old = run.manifest.get(run.command, {"artifacts": {}})["artifacts"]
    entry = {"config": run.cfg.values, "seed": run.cfg["seed"]}
    if run.enumerate_all:
        entry["enumerate"] = True
    entry["artifacts"] = {name: _sha256(run.out / name) for name in run.artifacts}
    run.manifest[run.command] = entry
    kept = set().union(*(e["artifacts"] for e in run.manifest.values()))
    for name in sorted(set(old) - kept):
        path = run.out / name
        if path.name == name and path.is_file():
            path.unlink()
    (run.out / "manifest.json").write_text(_json_text(run.manifest), encoding="utf-8")


def _load_panel(cfg: RunConfig, command: str):
    """The store's filtered records as columns in (station, timestamp, fuel,
    mode) order, their station-day panel and the station registry."""
    store_path = cfg.path("store", must_exist=True)
    stations = ing.load_station_registry(cfg.path("stations", must_exist=True))
    fuel = cfg["fuel"]
    records = ing.filter_observations(ing.read_store(store_path),
                                      None if fuel == "all" else fuel)
    # One crawl appends in plan order, but a store written by several crawls
    # or by hand need not be sorted; sorting fixes the downstream float
    # accumulation order (and raises where naive and aware timestamps mix).
    records = records.take(records.sort_order())
    panel, orphan = ing.aggregate_daily(records, stations)
    if orphan.any():
        print(f"{command}: dropping {int(orphan.sum())} records of "
              f"{np.unique(records.station[orphan]).size} station ids missing from "
              f"{cfg.path('stations')}")
    return records, panel, stations


def _group_codes(panel, stations) -> dict:
    """Each panel row's station, county and state code, codes in id order."""
    return {"station": panel.station,
            "county": panel.station_codes(stations, "county_fips")[1],
            "state": panel.station_codes(stations, "state_id")[1]}


def _covariate_table(cfg: RunConfig, key: str) -> dict:
    """The covariate table, once it is known to hold every covariate that
    config value ``key`` names."""
    table = ing.load_covariate_table(cfg.path("covariates", must_exist=True))
    columns = set().union(*table.values())
    for name in cfg[key]:
        if name not in columns:
            raise FuelSpatialError(f"config value {key!r} names covariate {name!r}, "
                                   f"which {cfg.path('covariates')} does not have")
    return table


def _counties_with(table: dict, fips: list, names) -> list:
    """The positions in ``fips`` of the counties whose covariate row has a
    value for each of ``names``; the one rule for which counties ``moran``,
    ``gwr`` and ``fe`` use."""
    return [i for i, f in enumerate(fips) if all(name in table.get(f, ()) for name in names)]


def _county_dataset(cfg: RunConfig):
    """County mean prices joined with covariates, each county at its
    covariate row's ``lat`` and ``lon``, as a GWR dataset; and the number of
    counties left out."""
    names = cfg["gwr_covariates"]
    table = _covariate_table(cfg, "gwr_covariates")
    _, panel, stations = _load_panel(cfg, "gwr")
    fips, means = ing.aggregate_county(panel, stations)
    keep = _counties_with(table, fips, (*names, "lat", "lon"))
    if not keep:
        raise FuelSpatialError("no counties with coordinates and complete covariates")
    rows = [table[fips[i]] for i in keep]
    data = gwrmod.GwrDataset(
        ids=[fips[i] for i in keep],
        points=[GeoPoint(row["lat"], row["lon"]) for row in rows],
        covariates={n: np.array([row[n] for row in rows]) for n in names},
        response=means[keep],
    )
    return data, len(fips) - len(keep), names


# ---------------------------------------------------------------------------
# Subcommands

def cmd_synth(cfg: RunConfig, run: Run) -> int:
    truth = synth.make_mock_corpus(cfg["seed"], run.out)
    for name in ("stations.csv", "covariates.csv"):  # written by make_mock_corpus
        run.path(name)
    run.write_json("synth_truth.json", {key: getattr(truth, key) for key in (
        "n_pages", "total_records", "unique_records", "planted_duplicates", "quarantined",
        "credit_regular")})
    print(f"synth: wrote {truth.n_pages} pages, {truth.unique_records} unique records")
    return 0


def cmd_ingest(cfg: RunConfig, run: Run) -> int:
    source = ing.MockSource.from_directory(cfg.path("pages", must_exist=True))
    plan = ing.CollectionPlan(urls=sorted(source.pages), max_in_flight=cfg["max_in_flight"],
                              per_host_delay_ms=cfg["per_host_delay_ms"],
                              retries=cfg["retries"])
    store = ing.ObservationStore(cfg.path("store"))
    if store.torn_bytes:
        print(f"ingest: ignoring a torn final line of {store.torn_bytes} bytes "
              f"in {store.path}; the next append cuts it")
    pool = ing.ProxyPool([ing.ProxyEndpoint("localhost:0")])
    report = ing.run_collection(plan, source, pool, store)
    run.write_json("ingest_report.json", {key: getattr(report, key) for key in (
        "fetched", "parsed", "stored", "failed", "duplicates_dropped", "quarantined")})
    print(f"ingest: fetched {report.fetched}, stored {report.stored}, "
          f"failed {report.failed}, duplicates {report.duplicates_dropped}")
    return 2 if report.aborted else 0


def cmd_stats(cfg: RunConfig, run: Run) -> int:
    records, panel, stations = _load_panel(cfg, "stats")
    if not records.price.size:
        raise FuelSpatialError("no observations after filtering")
    desc = ing.descriptive_stats(records.price)
    run.write_csv("descriptives.csv", [sorted(desc), [f"{desc[k]:.6g}" for k in sorted(desc)]])
    rows = [["grouping", "total", "between", "within", "between_share"]]
    for level, groups in _group_codes(panel, stations).items():
        vd = stats.variance_decomposition(panel.price, groups, grouping=level)
        rows.append([level, f"{vd.total:.10g}", f"{vd.between:.10g}", f"{vd.within:.10g}",
                     f"{vd.between / vd.total if vd.total else np.nan:.10g}"])
    run.write_csv("variance_decomposition.csv", rows)
    print(f"stats: {records.price.size} observations, mean {desc['mean']:.3f}")
    return 0


def cmd_moran(cfg: RunConfig, run: Run) -> int:
    _, panel, stations = _load_panel(cfg, "moran")
    table = ing.load_covariate_table(cfg.path("covariates", must_exist=True))

    # County-day means of the station-day prices, stations in id order within
    # a cell, for the counties whose covariate row gives their location,
    # coded by their position among those (FIPS order).
    fips, county = panel.station_codes(stations, "county_fips")
    keep = _counties_with(table, fips, ("lat", "lon"))
    rows = np.isin(county, keep)
    cells, means, _ = cell_means(panel.price[rows], np.searchsorted(keep, county[rows]),
                                 panel.day[rows])
    points = [GeoPoint(table[fips[i]]["lat"], table[fips[i]]["lon"]) for i in keep]

    sweep = stats.moran_sweep((*cells, means), points, cfg["window"], cfg["d0_grid"])
    sweep.to_csv(run.path("moran_sweep.csv"))
    print(f"moran: {len(sweep.rows)} (window, d0) cells, {len(sweep.skipped)} skipped, "
          f"{len(fips) - len(keep)} counties left out without coordinates")
    return 0


def cmd_gwr(cfg: RunConfig, run: Run) -> int:
    kernel = cfg["kernel"]
    searching = run.enumerate_all or kernel == "all"
    if searching and cfg["bandwidth_k"] is not None:
        clash = "--enumerate" if run.enumerate_all else "kernel 'all'"
        raise FuelSpatialError(f"config value 'bandwidth_k' cannot be combined with {clash}, "
                               "which searches every k")
    data, left_out, names = _county_dataset(cfg)
    if searching:
        kernels = list(KernelShape) if kernel == "all" else [kernel]
        report = gwrmod.enumerate_models(data, names, kernels, criterion=cfg["criterion"])
        report.to_csv(run.path("model_selection.csv"))
        best = report.best_entry()
        spec = gwrmod.GwrSpec(covariates=best.covariates, kernel=best.kernel,
                              bandwidth=best.bandwidth)
        fit = gwrmod.gwr_fit(data, spec)
        print(f"gwr: {data.n} counties, best model {'+'.join(best.covariates)} "
              f"kernel {best.kernel.value} aicc {best.aicc:.2f} "
              f"(median gap {report.median_aicc_gap:.2f}), "
              f"{left_out} counties left out without coordinates or covariates")
    else:
        if cfg["bandwidth_k"] is not None:
            bw = Bandwidth.adaptive_knn(cfg["bandwidth_k"])
        else:
            bw = gwrmod.optimize_bandwidth(data, names, kernel,
                                           criterion=cfg["criterion"]).bandwidth
        spec = gwrmod.GwrSpec(covariates=names, kernel=kernel, bandwidth=bw)
        fit = gwrmod.gwr_fit(data, spec)
        print(f"gwr: {data.n} counties, kernel {kernel.value}, bandwidth {bw.mode} "
              f"{bw.value:g}, aicc {fit.aicc:.2f}, global R2 {fit.global_r2:.3f}, "
              f"{left_out} counties left out without coordinates or covariates")
    gwrmod.fit_to_csv(fit, data, run.path("gwr_fit.csv"))
    gwrmod.fit_to_geojson(fit, data, run.path("gwr_fit.geojson"))
    # Every bandwidth chosen or set here is adaptive.
    k = int(fit.spec.bandwidth.value)
    scale = gwrmod.nearest_neighbor_scale(data.neighbors, k)
    run.write_csv("neighbor_scale.csv", [["k", "median_km", "interquartile_km"], [
        k, f"{scale.median:.6g}", f"{scale.interquartile:.6g}"]])
    return 0


def cmd_fe(cfg: RunConfig, run: Run) -> int:
    covariate_set = cfg["fe_covariates"]
    table = _covariate_table(cfg, "fe_covariates")
    _, panel, stations = _load_panel(cfg, "fe")
    groups = _group_codes(panel, stations)

    rows = [["level", "r_squared", "n_groups"]]
    for level in ("state", "county", "station"):
        res = econ.fe_r_squared(panel.price, groups[level], level)
        rows.append([level, f"{res['r_squared']:.10g}", res["n_groups"]])
    run.write_csv("fe_variance.csv", rows)

    fips, means = ing.aggregate_county(panel, stations)
    rows = [econ.CountyModelRow(
        county_fips=fips[i], log_mean_price=float(np.log(means[i])),
        state_id=fips[i][:2], covariates=table[fips[i]])
        for i in _counties_with(table, fips, covariate_set)]
    fit = econ.county_regression(rows, covariate_set)
    econ.fe_table_to_csv(fit, run.path("fe_table.csv"))
    run.path("fe_table.txt").write_text(econ.render_fe_table(fit), encoding="utf-8")
    print(f"fe: county regression R2 {fit.r_squared:.3f}, N {fit.n_observations}, "
          f"{fit.n_clusters} state clusters")
    return 0


def cmd_report(cfg: RunConfig, run: Run) -> int:
    """List every artifact the manifest records, flagging a missing file and
    one whose checksum changed; records nothing and never recomputes."""
    lines = ["run summary", "==========="]
    flagged = {"missing": [], "changed": []}
    for command, entry in sorted(run.manifest.items()):
        for name, digest in sorted(entry["artifacts"].items()):
            path = run.out / name
            if not path.is_file():
                flagged["missing"].append(name)
                continue
            actual = _sha256(path)
            if actual != digest:
                flagged["changed"].append(name)
            lines.append(f"{command}: {name} {actual[:16]} ({path.stat().st_size} bytes)")
    if not any(entry["artifacts"] for entry in run.manifest.values()):
        lines.append(f"no artifacts recorded in {run.out / 'manifest.json'}")
    lines += [f"{problem} artifacts: {', '.join(names)}"
              for problem, names in flagged.items() if names]
    (run.out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


COMMANDS = {"synth": cmd_synth, "ingest": cmd_ingest, "stats": cmd_stats,
            "moran": cmd_moran, "gwr": cmd_gwr, "fe": cmd_fe, "report": cmd_report}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuelspatial",
                                     description="Spatial fuel-price analysis chain")
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    for key, (_, default) in KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=None if default is None else f"default {default}")
    parser.add_argument("--enumerate", action="store_true", dest="enumerate_all",
                        help="gwr only: enumerate every covariate subset")
    return parser


def execute(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage()
        return 1
    if args.enumerate_all and args.command != "gwr":
        parser.error(f"--enumerate applies only to gwr, not {args.command}")
    try:
        cfg = build_config(args)
        run = Run(args.command, cfg, args.enumerate_all)
        code = COMMANDS[args.command](cfg, run)
        if run.artifacts:
            write_manifest(run)
        return code
    except FuelSpatialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(execute())


if __name__ == "__main__":
    main()
