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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import econometrics as econ
from . import gwr as gwrmod
from . import ingest as ing
from . import spatial_stats as stats
from . import synth
from .errors import FuelSpatialError
from .geo import Bandwidth, GeoPoint, KernelShape

DEFAULTS = {
    "seed": "42",
    "fuel": "Regular",
    "d0_grid": "10,30,100,300,1000",
    "window": "daily",
    "kernel": "gaussian",
    "criterion": "aicc",
    "gwr_covariates": "all",
    "fe_covariates": "density,log_population,log_total_income,unemployment,poverty,pct_black,vote_gop",
    "max_in_flight": "4",
    "per_host_delay_ms": "0",
    "retries": "2",
    "bandwidth_k": "",
}

GWR_ALL = list(econ.GWR_COVARIATES)


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        v = self.values.get(key, DEFAULTS.get(key, default))
        return v

    def get_int(self, key: str):
        return int(self.get(key))

    def get_float(self, key: str):
        return float(self.get(key))

    def path(self, key: str, must_exist: bool = False) -> Path:
        v = self.get(key)
        if v is None:
            raise FuelSpatialError(f"missing required config value {key!r}")
        p = Path(v)
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
    values = {}
    if args.config:
        values.update(load_config(args.config))
    for key in ("out", "seed", "fuel", "d0_grid", "kernel", "criterion", "stations",
                "covariates", "store", "pages", "window", "gwr_covariates",
                "fe_covariates", "bandwidth_k", "max_in_flight", "per_host_delay_ms",
                "retries"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    return RunConfig(values)


def _outdir(cfg: RunConfig) -> Path:
    out = cfg.path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(cfg: RunConfig, out: Path, artifacts) -> None:
    manifest = {
        "config": dict(sorted(cfg.values.items())),
        "seed": cfg.get_int("seed"),
        "artifacts": {p.name: _sha256(p) for p in sorted(artifacts) if p.exists()},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _kernel(name: str) -> KernelShape:
    try:
        return KernelShape(name.lower())
    except ValueError:
        raise FuelSpatialError(f"unknown kernel {name!r}") from None


def _load_filtered(cfg: RunConfig):
    store_path = cfg.path("store", must_exist=True)
    stations = ing.load_station_registry(cfg.path("stations", must_exist=True))
    fuel = cfg.get("fuel")
    obs = ing.filter_observations(ing.read_store(store_path), None if fuel == "all" else fuel)
    # Store line order depends on worker interleaving; sort for reproducible
    # float accumulation downstream.
    obs.sort(key=lambda o: (o.station_id, o.timestamp, o.fuel_type, o.payment_mode))
    return obs, stations


def _county_dataset(cfg: RunConfig):
    """County aggregates joined with covariates, as a GWR dataset."""
    obs, stations = _load_filtered(cfg)
    panel, _ = ing.aggregate_daily(obs, stations)
    table = ing.load_covariate_table(cfg.path("covariates", must_exist=True))
    aggs = [a for a in ing.aggregate_county(panel, stations, table) if not a.incomplete]
    if not aggs:
        raise FuelSpatialError("no counties with complete covariates")
    names = cfg.get("gwr_covariates")
    names = GWR_ALL if names == "all" else [n.strip() for n in names.split(",")]
    data = gwrmod.GwrDataset(
        ids=[a.county_fips for a in aggs],
        points=[a.point for a in aggs],
        covariates={n: np.array([a.covariates[n] for a in aggs]) for n in names},
        response=np.array([a.mean_price for a in aggs]),
    )
    return data, aggs, stations, names


# ---------------------------------------------------------------------------
# Subcommands

def cmd_synth(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    truth = synth.make_mock_corpus(cfg.get_int("seed"), out)
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
    plan = ing.CollectionPlan(
        urls=sorted(source.pages),
        max_in_flight=cfg.get_int("max_in_flight"),
        per_host_delay_ms=cfg.get_float("per_host_delay_ms"),
        retries=cfg.get_int("retries"),
    )
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
    obs, stations = _load_filtered(cfg)
    if not obs:
        raise FuelSpatialError("no observations after filtering")
    desc = ing.descriptive_stats([o.price for o in obs])
    with open(out / "descriptives.csv", "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(sorted(desc))
        wr.writerow([f"{desc[k]:.6g}" for k in sorted(desc)])

    panel, _ = ing.aggregate_daily(obs, stations)
    values = np.array([r.price for r in panel])
    with open(out / "variance_decomposition.csv", "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["grouping", "total", "between", "within", "between_share"])
        for level, key in (("station", lambda r: r.station_id),
                           ("county", lambda r: stations[r.station_id].county_fips),
                           ("state", lambda r: stations[r.station_id].state_id)):
            groups = [key(r) for r in panel]
            vd = stats.variance_decomposition(values, groups, grouping=level)
            wr.writerow([level, f"{vd.total:.10g}", f"{vd.between:.10g}",
                         f"{vd.within:.10g}", f"{vd.between / vd.total:.10g}"])
    write_manifest(cfg, out, [out / "descriptives.csv",
                              out / "variance_decomposition.csv"])
    print(f"stats: {len(obs)} observations, mean {desc['mean']:.3f}")
    return 0


def cmd_moran(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    obs, stations = _load_filtered(cfg)
    panel, _ = ing.aggregate_daily(obs, stations)
    table = ing.load_covariate_table(cfg.path("covariates", must_exist=True))

    # County-day values; county location comes from the covariate table.
    observations = []
    locations = {}
    cells = {}
    for r in panel:
        fips = stations[r.station_id].county_fips
        cells.setdefault((fips, r.day), []).append(r.price)
    for (fips, day), prices in sorted(cells.items()):
        if fips not in locations:
            cov = table.get(fips)
            if cov is None or "lat" not in cov:
                continue
            locations[fips] = GeoPoint(cov["lat"], cov["lon"])
        observations.append((fips, day, float(np.mean(prices))))

    d0_grid = [float(v) for v in cfg.get("d0_grid").split(",")]
    sweep = stats.moran_sweep(observations, locations, cfg.get("window"), d0_grid)
    sweep.to_csv(out / "moran_sweep.csv")
    write_manifest(cfg, out, [out / "moran_sweep.csv"])
    print(f"moran: {len(sweep.rows)} (window, d0) cells, {len(sweep.skipped)} skipped")
    return 0


def cmd_gwr(cfg: RunConfig, enumerate_all: bool = False) -> int:
    out = _outdir(cfg)
    data, aggs, _, names = _county_dataset(cfg)
    kernel_cfg = cfg.get("kernel")
    criterion = cfg.get("criterion")
    artifacts = []
    if enumerate_all or kernel_cfg == "all":
        kernels = list(KernelShape) if kernel_cfg == "all" else [_kernel(kernel_cfg)]
        report = gwrmod.enumerate_models(data, names, kernels, criterion=criterion)
        report.to_csv(out / "model_selection.csv")
        artifacts.append(out / "model_selection.csv")
        best = report.best_entry()
        spec = gwrmod.GwrSpec(covariates=best.covariates, kernel=best.kernel,
                              bandwidth=best.bandwidth)
        data_best = data if set(best.covariates) == set(names) else gwrmod.GwrDataset(
            ids=data.ids, points=data.points,
            covariates={n: data.covariates[n] for n in best.covariates},
            response=data.response)
        fit = gwrmod.gwr_fit(data_best, spec)
        export_data = data_best
        print(f"gwr: best model {'+'.join(best.covariates)} kernel {best.kernel.value} "
              f"aicc {best.aicc:.2f} (median gap {report.median_aicc_gap:.2f})")
    else:
        kernel = _kernel(kernel_cfg)
        k_cfg = cfg.get("bandwidth_k")
        if k_cfg:
            bw = Bandwidth.adaptive_knn(int(k_cfg))
        else:
            search = gwrmod.optimize_bandwidth(data, names, kernel, criterion=criterion)
            bw = search.bandwidth
        spec = gwrmod.GwrSpec(covariates=tuple(names), kernel=kernel, bandwidth=bw)
        fit = gwrmod.gwr_fit(data, spec)
        export_data = data
        print(f"gwr: kernel {kernel.value}, bandwidth {bw.mode} {bw.value:g}, "
              f"aicc {fit.aicc:.2f}, global R2 {fit.global_r2:.3f}")
    gwrmod.fit_to_csv(fit, export_data, out / "gwr_fit.csv")
    gwrmod.fit_to_geojson(fit, export_data, out / "gwr_fit.geojson")
    if fit.spec.bandwidth.is_adaptive:
        scale = gwrmod.nearest_neighbor_scale(export_data.points,
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
    obs, stations = _load_filtered(cfg)
    panel_rows, _ = ing.aggregate_daily(obs, stations)
    panel = [econ.PanelObservation(
        station_id=r.station_id,
        state_id=stations[r.station_id].state_id,
        county_fips=stations[r.station_id].county_fips,
        day=r.day, price=r.price) for r in panel_rows]

    with open(out / "fe_variance.csv", "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["level", "r_squared", "n_groups"])
        for level in ("state", "county", "station"):
            res = econ.fe_variance_explained(panel, econ.FixedEffectSpec(level))
            wr.writerow([level, f"{res['r_squared']:.10g}", res["n_groups"]])

    table = ing.load_covariate_table(cfg.path("covariates", must_exist=True))
    aggs = [a for a in ing.aggregate_county(panel_rows, stations, table)
            if not a.incomplete]
    covariate_set = [n.strip() for n in cfg.get("fe_covariates").split(",")]
    rows = [econ.CountyModelRow(
        county_fips=a.county_fips, log_mean_price=float(np.log(a.mean_price)),
        state_id=a.county_fips[:2], covariates=a.covariates) for a in aggs]
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuelspatial",
                                     description="Spatial fuel-price analysis chain")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command")
    for name in ("synth", "ingest", "stats", "moran", "gwr", "fe", "report"):
        p = sub.add_parser(name)
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--fuel")
        p.add_argument("--d0-grid", dest="d0_grid")
        p.add_argument("--kernel", help="kernel name or 'all'")
        p.add_argument("--criterion", choices=["aicc", "cv"])
        p.add_argument("--stations")
        p.add_argument("--covariates")
        p.add_argument("--store")
        p.add_argument("--pages")
        p.add_argument("--window", choices=["daily", "weekly"])
        p.add_argument("--gwr-covariates", dest="gwr_covariates")
        p.add_argument("--fe-covariates", dest="fe_covariates")
        p.add_argument("--bandwidth-k", dest="bandwidth_k", type=int)
        p.add_argument("--max-in-flight", dest="max_in_flight", type=int)
        p.add_argument("--per-host-delay-ms", dest="per_host_delay_ms", type=float)
        p.add_argument("--retries", type=int)
        if name == "gwr":
            p.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    "moran": cmd_moran,
    "fe": cmd_fe,
    "report": cmd_report,
}


def execute(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage()
        return 1
    try:
        cfg = build_config(args)
        if cfg.get("out") is None:
            raise FuelSpatialError("an output directory is required (--out or out=...)")
        if args.command == "gwr":
            return cmd_gwr(cfg, enumerate_all=getattr(args, "enumerate_all", False))
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
