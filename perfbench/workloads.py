"""The three benchmark workloads and their correctness checks.

Each workload generates its inputs from the seed with ``fuelspatial.synth``
(set-up), runs a timed body of calls into the package's public functions
(``run_pass``), and checks the pass's outputs afterwards (``check``), outside
the timed and traced region.

* ``select``: GWR model enumeration. The gwr layer does almost all the work.
* ``chain``: the CLI chain over a mock crawl. The only workload that ingests
  and uses the store, both for appends and for full reloads.
* ``panel``: fixed-effect group algebra plus a Moran sweep. No ingest, no GWR.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fuelspatial import cli
from fuelspatial import econometrics as econ
from fuelspatial import gwr
from fuelspatial import ingest as ing
from fuelspatial import spatial_stats as stats
from fuelspatial import synth
from fuelspatial.geo import Bandwidth, KernelShape

clock = time.perf_counter


class Tally:
    """Attempted and failed operations; a failed check counts as both."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed}/{attempted} failed: {what}")

    def check(self, ok: bool, what: str) -> bool:
        self.ops(1, 0 if ok else 1, what)
        return ok

    def check_identical(self, first: dict, outputs: dict) -> None:
        """Every artifact of a pass must equal the first pass's byte for byte."""
        for name in sorted(first):
            self.check(outputs.get(name) == first[name], f"{name} differs from the first pass")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class PassResult:
    wall_s: float
    work: float            # units of the workload's throughput metric
    work_s: float          # seconds of the stage that did that work
    raw: dict = field(default_factory=dict)   # what ``check`` inspects

    @property
    def rate(self) -> float:
        """Throughput; 0 when the stage did not run, whose failure the
        checks already count."""
        return self.work / self.work_s if self.work_s > 0 else 0.0


def _mark(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


# ---------------------------------------------------------------------------
# select

SELECT_N = 100
SELECT_KERNELS = (KernelShape.GAUSSIAN, KernelShape.BISQUARE)


class Select:
    """``enumerate_models`` over all 31 subsets of 5 covariates x 2 kernels,
    adaptive bandwidth, AICc."""

    throughput_name = "configs_per_s"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.data = synth.make_model_selection_dataset(self.seed, n=SELECT_N)
        self.covariates = list(self.data.covariates)
        gwr.gwr_fit(self.data, gwr.GwrSpec(tuple(self.covariates), KernelShape.GAUSSIAN,
                                           Bandwidth.adaptive_knn(SELECT_N // 2)))

    def sizes(self) -> dict:
        return {"n": self.data.n, "covariates": len(self.covariates),
                "kernels": [k.value for k in SELECT_KERNELS],
                "configs": ((1 << len(self.covariates)) - 1) * len(SELECT_KERNELS)}

    def run_pass(self, tracer) -> PassResult:
        t0 = clock()
        report = gwr.enumerate_models(self.data, self.covariates, SELECT_KERNELS,
                                      criterion="aicc", mode="adaptive")
        wall = clock() - t0
        done = len(report.entries) - report.n_failed
        return PassResult(wall, done, wall, {"report": report})

    def check(self, result: PassResult, tally: Tally) -> dict:
        report = result.raw["report"]
        path = self.work / "model_selection.csv"
        report.to_csv(path)
        self.check_report(report, tally)
        return {"model_selection.csv": path.read_bytes()}

    def check_report(self, report, tally: Tally) -> None:
        expected = self.sizes()["configs"]
        tally.ops(len(report.entries), report.n_failed, "model configurations")
        tally.check(len(report.entries) == expected,
                    f"report has {len(report.entries)} entries, expected {expected}")
        best = report.best_entry()
        spec = gwr.GwrSpec(best.covariates, best.kernel, best.bandwidth)
        refit = gwr.gwr_fit(self.data, spec).aicc
        tally.check(abs(refit - best.aicc) <= 1e-9 * abs(best.aicc),
                    f"refit of the best spec gives AICc {refit!r}, report has {best.aicc!r}")


# ---------------------------------------------------------------------------
# chain

CHAIN_CORPUS = dict(n_pages=400, n_days=28, n_states=10, counties_per_state=20,
                    stations_per_county=5)
CHAIN_ARTIFACTS = ["descriptives.csv", "variance_decomposition.csv", "moran_sweep.csv",
                   "gwr_fit.csv", "gwr_fit.geojson", "neighbor_scale.csv",
                   "fe_variance.csv", "fe_table.csv"]


def check_ingest(report: dict, truth, tally: Tally, recrawl: bool) -> None:
    """The ingest report against the corpus ground truth."""
    if recrawl:
        expected = {"stored": 0,
                    "duplicates_dropped": truth.total_records + truth.planted_duplicates,
                    "failed": 0}
    else:
        expected = {"stored": truth.unique_records,
                    "duplicates_dropped": truth.planted_duplicates,
                    "quarantined": truth.quarantined, "failed": 0}
    phase = "re-crawl" if recrawl else "fresh ingest"
    for key, want in expected.items():
        tally.check(report.get(key) == want, f"{phase}: {key} {report.get(key)} != {want}")


class Chain:
    """The CLI chain: ingest, stats, moran, gwr, fe, report, re-ingest."""

    throughput_name = "ingest_records_per_s"

    def __init__(self, seed: int, work: Path, max_in_flight: int):
        self.seed, self.work, self.max_in_flight = seed, work, max_in_flight
        self.data_dir = work / "data"
        self.passes = 0

    def setup(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.truth = synth.make_mock_corpus(self.seed, self.data_dir, **CHAIN_CORPUS)
        ing.parse_price_record((self.data_dir / "pages" / "page_000.txt").read_text())

    def sizes(self) -> dict:
        t = self.truth
        return {**CHAIN_CORPUS, "stations": len(t.stations), "counties": len(t.county_fips),
                "total_records": t.total_records, "unique_records": t.unique_records,
                "planted_duplicates": t.planted_duplicates, "quarantined": t.quarantined,
                "max_in_flight": self.max_in_flight}

    def steps(self, run: Path) -> list:
        data = self.data_dir
        ingest = ["ingest", "--out", str(run), "--pages", str(data / "pages"),
                  "--store", str(run / "store.psv"),
                  "--max-in-flight", str(self.max_in_flight)]
        common = ["--out", str(run), "--store", str(run / "store.psv"),
                  "--stations", str(data / "stations.csv"),
                  "--covariates", str(data / "covariates.csv")]
        return [("ingest", ingest), ("stats", ["stats", *common]),
                ("moran", ["moran", *common]),
                ("gwr", ["gwr", *common, "--kernel", "gaussian"]),
                ("fe", ["fe", *common]), ("report", ["report", "--out", str(run)]),
                ("reingest", ingest)]

    def run_pass(self, tracer) -> PassResult:
        """Runs the steps; keeps exit codes, logs and the ingest reports (the
        re-crawl overwrites the first one) for ``check``."""
        self.passes += 1
        run = self.work / f"pass{self.passes}"
        shutil.rmtree(run, ignore_errors=True)
        wall = ingest_s = 0.0
        exits, reports = [], {}
        for label, argv in self.steps(run):
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                with _mark(tracer, f"cli.{label}"):
                    t0 = clock()
                    code = cli.execute(argv)
                    elapsed = clock() - t0
            wall += elapsed
            exits.append((label, code, log.getvalue()[-500:]))
            if label in ("ingest", "reingest"):
                report_path = run / "ingest_report.json"
                reports[label] = (json.loads(report_path.read_text())
                                  if report_path.is_file() else None)
                if label == "ingest":
                    ingest_s = elapsed
        stored = (reports["ingest"] or {}).get("stored", 0)
        return PassResult(wall, stored, ingest_s,
                          {"run": run, "exits": exits, "reports": reports})

    def check(self, result: PassResult, tally: Tally) -> dict:
        for label, code, log in result.raw["exits"]:
            tally.check(code == 0, f"{label} exited {code}: {log!r}")
        for label, report in result.raw["reports"].items():
            if tally.check(report is not None, f"{label} wrote no report"):
                tally.ops(report["fetched"] + report["failed"], report["failed"],
                          f"{label} fetches")
                check_ingest(report, self.truth, tally, recrawl=label == "reingest")
        run = result.raw["run"]
        outputs = {name: (run / name).read_bytes() for name in CHAIN_ARTIFACTS
                   if tally.check((run / name).is_file(), f"missing artifact {name}")}
        shutil.rmtree(run)
        return outputs


# ---------------------------------------------------------------------------
# panel

PANEL_STATIONS, PANEL_DAYS, PANEL_COUNTIES, PANEL_STATES, PANEL_KEEP = 1500, 25, 40, 50, 0.7
ROWS_STATES, ROWS_COUNTIES = 50, 60
ROWS_EFFECTS = {"density": 0.02, "unemployment": -0.5, "poverty": 0.2, "vote_gop": 0.1}
MORAN_COUNTIES, MORAN_DAYS = 1500, 10
MORAN_D0 = (10.0, 30.0, 100.0, 300.0, 1000.0)
LEVELS = (("state", "state_id"), ("county", "county_fips"), ("station", "station_id"))


def dummy_ols(rows, names) -> np.ndarray:
    """Oracle for ``county_regression``: OLS with explicit state dummies."""
    y = np.array([r.log_mean_price for r in rows])
    states = np.array([r.state_id for r in rows])
    x = np.column_stack([[r.covariates[n] for r in rows] for n in names])
    dummies = (states[:, None] == np.unique(states)[None, :]).astype(float)
    beta, *_ = np.linalg.lstsq(np.column_stack([x, dummies]), y, rcond=None)
    return beta[: len(names)]


def _demean(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    _, inverse = np.unique(labels, return_inverse=True)
    inverse = inverse.ravel()
    means = np.bincount(inverse, weights=values) / np.bincount(inverse)
    return values - means[inverse]


def two_way_r2(y: np.ndarray, groups: np.ndarray, days: np.ndarray) -> float:
    """Oracle for the two-way FE R^2, solved directly: by Frisch-Waugh-Lovell
    the residual of ``y`` on group and day dummies is the residual of the
    group-demeaned ``y`` on the group-demeaned day dummies."""
    dummies = days[:, None] == np.unique(days)[None, 1:]
    d = np.column_stack([_demean(col.astype(float), groups) for col in dummies.T])
    target = _demean(y, groups)
    beta, *_ = np.linalg.lstsq(d, target, rcond=None)
    resid = target - d @ beta
    centred = y - y.mean()
    return 1.0 - float(resid @ resid) / float(centred @ centred)


def check_panel(out: dict, oracle: dict, tally: Tally) -> None:
    """Criterion-7 identity, two-way FE R^2 against its direct solve and not
    below the one-way R^2, county regression against dummy OLS, and the
    criterion-10 ordering of the Moran decay curve."""
    fe, fe2, vd = out["fe"], out["fe_two_way"], out["vd"]
    for level, _ in LEVELS:
        gap = abs(fe[level] - (1.0 - vd[level].within / vd[level].total))
        tally.check(gap <= 1e-10, f"{level}: FE R^2 vs variance decomposition gap {gap:.3g}")
        want = oracle["fe_two_way"][level]
        tally.check(abs(fe2[level] - want) <= 1e-10,
                    f"{level}: two-way FE R^2 {fe2[level]!r} vs direct solve {want!r}")
        tally.check(fe2[level] >= fe[level] - 1e-12,
                    f"{level}: two-way FE R^2 {fe2[level]!r} below one-way {fe[level]!r}")
    for name, want in oracle["coefficients"].items():
        got = out["coefficients"].get(name, float("nan"))
        tally.check(abs(got - want) <= 1e-8 * max(1.0, abs(want)),
                    f"county_regression {name} {got!r} vs dummy OLS {want!r}")
    curve = out["curve"]
    ordered = curve.get(100.0, -1) > curve.get(300.0, 0) > curve.get(1000.0, 1)
    tally.check(ordered, f"Moran curve not decreasing over 100/300/1000 km: {curve}")


class Panel:
    """Fixed effects, variance decomposition and the county regression on an
    unbalanced panel, plus a Moran sweep."""

    throughput_name = "fe_rows_per_s"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        full = synth.make_random_panel(self.seed, n_stations=PANEL_STATIONS,
                                       n_days=PANEL_DAYS, n_counties=PANEL_COUNTIES,
                                       n_states=PANEL_STATES)
        keep = synth.rng_for(self.seed, "perfbench-keep").random(len(full)) < PANEL_KEEP
        self.panel = [o for o, k in zip(full, keep) if k]
        self.prices = np.array([o.price for o in self.panel])
        self.groups = {level: [getattr(o, key) for o in self.panel] for level, key in LEVELS}
        self.rows, _ = synth.make_county_rows(self.seed, n_states=ROWS_STATES,
                                              counties_per_state=ROWS_COUNTIES,
                                              covariate_effects=ROWS_EFFECTS)
        self.locations, self.county_obs = synth.make_county_panel(
            self.seed, n_counties=MORAN_COUNTIES, n_days=MORAN_DAYS)
        self.oracle = None
        stats.variance_decomposition(self.prices[:100], self.groups["state"][:100])

    def sizes(self) -> dict:
        return {"panel_rows": len(self.panel),
                "stations": len(set(self.groups["station"])),
                "counties": len(set(self.groups["county"])),
                "states": len(set(self.groups["state"])),
                "days": PANEL_DAYS, "county_rows": len(self.rows),
                "moran_counties": MORAN_COUNTIES, "moran_days": MORAN_DAYS,
                "moran_d0_km": list(MORAN_D0)}

    def run_pass(self, tracer) -> PassResult:
        fe, fe2, vd = {}, {}, {}
        group_s = 0.0
        for level, _ in LEVELS:
            for day_effect, into in ((False, fe), (True, fe2)):
                t0 = clock()
                res = econ.fe_variance_explained(self.panel,
                                                 econ.FixedEffectSpec(level, day_effect))
                group_s += clock() - t0
                into[level] = res["r_squared"]
            t0 = clock()
            vd[level] = stats.variance_decomposition(self.prices, self.groups[level],
                                                     grouping=level)
            group_s += clock() - t0
        t0 = clock()
        fit = econ.county_regression(self.rows, econ.COUNTY_COVARIATES, cluster="state")
        regression_s = clock() - t0
        t0 = clock()
        sweep = stats.moran_sweep(self.county_obs, self.locations, "daily", MORAN_D0)
        moran_s = clock() - t0
        self.moran_share = moran_s / (group_s + regression_s + moran_s)
        rows_absorbed = len(self.panel) * len(LEVELS) * 3
        return PassResult(group_s + regression_s + moran_s, rows_absorbed, group_s,
                          {"fe": fe, "fe_two_way": fe2, "vd": vd, "fit": fit,
                           "sweep": sweep})

    def make_oracle(self) -> dict:
        """Reference values, computed once: dummy-variable OLS for the county
        regression and the direct two-way solve at each level."""
        beta = dummy_ols(self.rows, econ.COUNTY_COVARIATES)
        days = np.array([o.day.toordinal() for o in self.panel])
        return {"coefficients": dict(zip(econ.COUNTY_COVARIATES, beta.tolist())),
                "fe_two_way": {level: two_way_r2(self.prices, np.array(self.groups[level]),
                                                 days)
                               for level, _ in LEVELS}}

    def check(self, result: PassResult, tally: Tally) -> dict:
        raw = result.raw
        tally.ops(len(LEVELS) * 3 + 2, 0, "panel operations")
        if self.oracle is None:
            self.oracle = self.make_oracle()
        by_d0: dict[float, list] = {}
        for row in raw["sweep"].rows:
            by_d0.setdefault(row.d0_km, []).append(row.result.index)
        curve = {d0: float(np.mean(v)) for d0, v in by_d0.items()}
        fit = raw["fit"]
        check_panel({"fe": raw["fe"], "fe_two_way": raw["fe_two_way"], "vd": raw["vd"],
                     "coefficients": fit.coefficients, "curve": curve},
                    self.oracle, tally)
        return {"fe": json.dumps(raw["fe"], sort_keys=True).encode(),
                "fe_two_way": json.dumps(raw["fe_two_way"], sort_keys=True).encode(),
                "coefficients": json.dumps(fit.coefficients, sort_keys=True).encode(),
                "standard_errors": json.dumps(fit.standard_errors, sort_keys=True).encode(),
                "moran": json.dumps(sorted(curve.items())).encode()}


WORKLOADS = ("select", "chain", "panel")


def make(name: str, seed: int, work: Path, max_in_flight: int):
    if name == "select":
        return Select(seed, work)
    if name == "chain":
        return Chain(seed, work, max_in_flight)
    if name == "panel":
        return Panel(seed, work)
    raise ValueError(f"unknown workload {name!r}")
