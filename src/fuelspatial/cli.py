"""Command-line entry point: reproducible analysis runs driven by a flat
key=value config file, with flags overriding file values.

Subcommands: synth, ingest, stats, moran, gwr, fe, report.
Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
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
from .groups import run_means, run_starts

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
    return tuple(Bandwidth.fixed_distance(_cast(float, key, d0)).value
                 for d0 in text.split(","))


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
    for raw in Path(path).read_text().splitlines():
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


def _outdir(cfg: RunConfig) -> Path:
    out = cfg.path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(cfg: RunConfig, out: Path, artifacts) -> None:
    manifest = {
        "config": dict(sorted(cfg.values.items())),
        "seed": cfg["seed"],
        "artifacts": {p.name: _sha256(p) for p in sorted(artifacts) if p.exists()},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_panel(cfg: RunConfig, command: str):
    """The store's filtered records as columns in (station, timestamp, fuel,
    mode) order, their station-day panel and the station registry."""
    store_path = cfg.path("store", must_exist=True)
    stations = ing.load_station_registry(cfg.path("stations", must_exist=True))
    fuel = cfg["fuel"]
    records = ing.filter_observations(ing.read_store(store_path),
                                      None if fuel == "all" else fuel)
    # Store line order depends on worker interleaving; sort for reproducible
    # float accumulation downstream.
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

def cmd_synth(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    truth = synth.make_mock_corpus(cfg["seed"], out)
    summary = {
        "n_pages": truth.n_pages, "total_records": truth.total_records,
        "unique_records": truth.unique_records,
        "planted_duplicates": truth.planted_duplicates,
        "quarantined": truth.quarantined, "credit_regular": truth.credit_regular,
    }
    with open(out / "synth_truth.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(cfg, out, [out / "stations.csv", out / "covariates.csv",
                              out / "synth_truth.json"])
    print(f"synth: wrote {truth.n_pages} pages, {truth.unique_records} unique records")
    return 0


def cmd_ingest(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    pages = cfg.path("pages", must_exist=True)
    source = ing.MockSource.from_directory(pages)
    plan = ing.CollectionPlan(urls=sorted(source.pages), max_in_flight=cfg["max_in_flight"],
                              per_host_delay_ms=cfg["per_host_delay_ms"],
                              retries=cfg["retries"])
    store = ing.ObservationStore(cfg.path("store"))
    if store.torn_bytes:
        print(f"ingest: ignoring a torn final line of {store.torn_bytes} bytes "
              f"in {store.path}; the next append cuts it")
    pool = ing.ProxyPool([ing.ProxyEndpoint("localhost:0")])
    report = ing.run_collection(plan, source, pool, store)
    with open(out / "ingest_report.json", "w") as fh:
        json.dump({
            "fetched": report.fetched, "parsed": report.parsed,
            "stored": report.stored, "failed": report.failed,
            "duplicates_dropped": report.duplicates_dropped,
            "quarantined": report.quarantined,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(cfg, out, [out / "ingest_report.json"])
    print(f"ingest: fetched {report.fetched}, stored {report.stored}, "
          f"failed {report.failed}, duplicates {report.duplicates_dropped}")
    return 2 if report.aborted else 0


def cmd_stats(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    records, panel, stations = _load_panel(cfg, "stats")
    if not records.price.size:
        raise FuelSpatialError("no observations after filtering")
    desc = ing.descriptive_stats(records.price)
    with open(out / "descriptives.csv", "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(sorted(desc))
        wr.writerow([f"{desc[k]:.6g}" for k in sorted(desc)])

    with open(out / "variance_decomposition.csv", "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["grouping", "total", "between", "within", "between_share"])
        for level, groups in _group_codes(panel, stations).items():
            vd = stats.variance_decomposition(panel.price, groups, grouping=level)
            wr.writerow([level, f"{vd.total:.10g}", f"{vd.between:.10g}",
                         f"{vd.within:.10g}",
                         f"{vd.between / vd.total if vd.total else np.nan:.10g}"])
    write_manifest(cfg, out, [out / "descriptives.csv",
                              out / "variance_decomposition.csv"])
    print(f"stats: {records.price.size} observations, mean {desc['mean']:.3f}")
    return 0


def cmd_moran(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    _, panel, stations = _load_panel(cfg, "moran")
    table = ing.load_covariate_table(cfg.path("covariates", must_exist=True))

    # County-day means of the station-day prices, stations in id order within
    # a cell; county location comes from the covariate table.
    fips, county = panel.station_codes(stations, "county_fips")
    order = np.lexsort((panel.station, panel.day, county))
    county, day = county[order], panel.day[order]
    starts = run_starts(county, day)
    means = run_means(panel.price[order], starts)
    locations = {fips[i]: GeoPoint(table[fips[i]]["lat"], table[fips[i]]["lon"])
                 for i in _counties_with(table, fips, ("lat", "lon"))}
    dates = {d: dt.date.fromordinal(d) for d in np.unique(panel.day).tolist()}
    observations = [(fips[c], dates[d], m) for c, d, m in
                    zip(county[starts].tolist(), day[starts].tolist(), means.tolist())
                    if fips[c] in locations]

    sweep = stats.moran_sweep(observations, locations, cfg["window"], cfg["d0_grid"])
    sweep.to_csv(out / "moran_sweep.csv")
    write_manifest(cfg, out, [out / "moran_sweep.csv"])
    print(f"moran: {len(sweep.rows)} (window, d0) cells, {len(sweep.skipped)} skipped, "
          f"{len(fips) - len(locations)} counties left out without coordinates")
    return 0


def cmd_gwr(cfg: RunConfig, enumerate_all: bool = False) -> int:
    out = _outdir(cfg)
    data, left_out, names = _county_dataset(cfg)
    kernel = cfg["kernel"]
    artifacts = []
    if enumerate_all or kernel == "all":
        kernels = list(KernelShape) if kernel == "all" else [kernel]
        report = gwrmod.enumerate_models(data, names, kernels, criterion=cfg["criterion"])
        report.to_csv(out / "model_selection.csv")
        artifacts.append(out / "model_selection.csv")
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
    gwrmod.fit_to_csv(fit, data, out / "gwr_fit.csv")
    gwrmod.fit_to_geojson(fit, data, out / "gwr_fit.geojson")
    if fit.spec.bandwidth.is_adaptive:
        scale = gwrmod.nearest_neighbor_scale(data.neighbors,
                                              int(fit.spec.bandwidth.value))
        with open(out / "neighbor_scale.csv", "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["k", "median_km", "interquartile_km"])
            wr.writerow([int(fit.spec.bandwidth.value), f"{scale.median:.6g}",
                         f"{scale.interquartile:.6g}"])
        artifacts.append(out / "neighbor_scale.csv")
    artifacts += [out / "gwr_fit.csv", out / "gwr_fit.geojson"]
    write_manifest(cfg, out, artifacts)
    return 0


def cmd_fe(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    covariate_set = cfg["fe_covariates"]
    table = _covariate_table(cfg, "fe_covariates")
    _, panel, stations = _load_panel(cfg, "fe")
    groups = _group_codes(panel, stations)

    with open(out / "fe_variance.csv", "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["level", "r_squared", "n_groups"])
        for level in ("state", "county", "station"):
            res = econ.fe_r_squared(panel.price, groups[level], panel.day,
                                    econ.FixedEffectSpec(level))
            wr.writerow([level, f"{res['r_squared']:.10g}", res["n_groups"]])

    fips, means = ing.aggregate_county(panel, stations)
    rows = [econ.CountyModelRow(
        county_fips=fips[i], log_mean_price=float(np.log(means[i])),
        state_id=fips[i][:2], covariates=table[fips[i]])
        for i in _counties_with(table, fips, covariate_set)]
    fit = econ.county_regression(rows, covariate_set)
    econ.fe_table_to_csv([fit], out / "fe_table.csv")
    (out / "fe_table.txt").write_text(econ.render_fe_table([fit]))
    write_manifest(cfg, out, [out / "fe_variance.csv", out / "fe_table.csv",
                              out / "fe_table.txt"])
    print(f"fe: county regression R2 {fit.r_squared:.3f}, N {fit.n_observations}, "
          f"{fit.n_clusters} state clusters")
    return 0


EXPECTED_ARTIFACTS = [
    "synth_truth.json", "ingest_report.json", "descriptives.csv",
    "variance_decomposition.csv", "moran_sweep.csv", "gwr_fit.csv",
    "gwr_fit.geojson", "fe_variance.csv", "fe_table.csv",
]


def cmd_report(cfg: RunConfig) -> int:
    """Bundle prior artifacts into one summary; never recomputes."""
    out = _outdir(cfg)
    lines = ["run summary", "==========="]
    gaps = []
    for name in EXPECTED_ARTIFACTS:
        path = out / name
        if path.exists():
            lines.append(f"{name}: {_sha256(path)[:16]} ({path.stat().st_size} bytes)")
        else:
            gaps.append(name)
    if gaps:
        lines.append("missing artifacts: " + ", ".join(gaps))
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


COMMANDS = {"synth": cmd_synth, "ingest": cmd_ingest, "stats": cmd_stats,
            "moran": cmd_moran, "gwr": cmd_gwr, "fe": cmd_fe, "report": cmd_report}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuelspatial",
                                     description="Spatial fuel-price analysis chain")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        for key, (_, default) in KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=None if default is None else f"default {default}")
        if name == "gwr":
            p.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    return parser


def execute(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage()
        return 1
    try:
        cfg = build_config(args)
        if args.command == "gwr":
            return cmd_gwr(cfg, enumerate_all=args.enumerate_all)
        return COMMANDS[args.command](cfg)
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
