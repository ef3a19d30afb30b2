"""Deterministic synthetic fixtures: mock source corpus, station registry,
county covariate tables, and the generator-backed datasets used by tests.

All randomness flows from a single integer seed through tag-based stream
splitting, so parallel consumers never perturb each other's draws.
"""

from __future__ import annotations

import datetime as dt
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import linalg

from .econometrics import CountyModelRow, PanelObservation
from .geo import GeoPoint, distance_matrix
from .gwr import GwrDataset
from .ingest import Station, record_line, save_station_registry

START_DAY = dt.date(2017, 1, 10)


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Independent RNG stream for (seed, tags); stable across runs and
    execution order."""
    spawn_key = tuple(zlib.crc32(str(t).encode()) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


# ---------------------------------------------------------------------------
# Mock collection corpus

@dataclass
class CorpusTruth:
    """Generator-side ground truth for the mock corpus."""

    n_pages: int
    total_records: int          # parseable record lines across all pages
    unique_records: int         # distinct dedup keys
    planted_duplicates: int
    quarantined: int            # implausible price or unknown fuel entries
    credit_regular: int         # records passing the analysis filter
    stations: list = field(default_factory=list)
    county_fips: list = field(default_factory=list)


def _make_stations(rng: np.random.Generator, n_states: int, counties_per_state: int,
                   stations_per_county: int):
    stations = []
    county_points = {}
    sid = 0
    for s in range(n_states):
        state_id = f"{s + 10:02d}"
        for c in range(counties_per_state):
            fips = f"{state_id}{c + 1:03d}"
            lat = float(rng.uniform(30.0, 46.0))
            lon = float(rng.uniform(-120.0, -75.0))
            county_points[fips] = GeoPoint(lat, lon)
            for _ in range(stations_per_county):
                sid += 1
                stations.append(Station(
                    station_id=f"st{sid:05d}",
                    point=GeoPoint(lat + float(rng.uniform(-0.2, 0.2)),
                                   lon + float(rng.uniform(-0.2, 0.2))),
                    city=f"city{sid:05d}",
                    county_fips=fips,
                    state_id=state_id,
                ))
    return stations, county_points


def make_mock_corpus(seed: int, out_dir, n_pages: int = 120, n_days: int = 14,
                     n_states: int = 4, counties_per_state: int = 5,
                     stations_per_county: int = 2,
                     planted_duplicates: int = 6,
                     planted_bad: int = 5) -> CorpusTruth:
    """Write a mock source corpus (pages/, stations.csv, covariates.csv) and
    return its ground truth.

    Prices carry a state-level shift plus county covariate effects, so the
    downstream statistics have real structure to find.
    """
    out_dir = Path(out_dir)
    pages_dir = out_dir / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)

    rng = rng_for(seed, "corpus")
    stations, county_points = _make_stations(rng, n_states, counties_per_state,
                                             stations_per_county)
    state_effect = {f"{s + 10:02d}": float(rng.normal(0.0, 0.15)) for s in range(n_states)}

    covariates = {}
    for fips, pt in county_points.items():
        covariates[fips] = {
            "lat": pt.lat, "lon": pt.lon,
            "income": float(rng.uniform(30.0, 90.0)),
            "population": float(rng.uniform(5.0, 500.0)),
            "wage_per_job": float(rng.uniform(25.0, 70.0)),
            "jobs_per_capita": float(rng.uniform(0.2, 0.8)),
            "jobs": float(rng.uniform(2.0, 300.0)),
            "density": float(rng.uniform(1.0, 2000.0)),
            "unemployment": float(rng.uniform(0.02, 0.12)),
            "poverty": float(rng.uniform(0.05, 0.30)),
            "pct_black": float(rng.uniform(0.0, 40.0)),
            "vote_gop": float(rng.uniform(0.2, 0.8)),
            "state_tax": float(rng.uniform(0.2, 0.6)),
        }
        covariates[fips]["log_population"] = float(np.log(covariates[fips]["population"]))
        covariates[fips]["log_total_income"] = float(
            np.log(covariates[fips]["income"] * covariates[fips]["population"]))

    station_by_id = {s.station_id: s for s in stations}
    fuel_p = [0.18, 0.34, 0.24, 0.24]
    fuels = ["Diesel", "Regular", "Midgrade", "Premium"]
    modes = ["Credit", "Cash", "Other"]
    mode_p = [0.92, 0.05, 0.03]

    lines = []
    truth = CorpusTruth(n_pages=n_pages, total_records=0, unique_records=0,
                        planted_duplicates=planted_duplicates, quarantined=0,
                        credit_regular=0,
                        stations=stations, county_fips=sorted(county_points))
    seen_keys = set()
    for st in stations:
        cov = covariates[st.county_fips]
        base = (2.28 + state_effect[st.state_id]
                + 0.002 * (cov["income"] - 60.0) - 0.0008 * (cov["wage_per_job"] - 45.0))
        for d in range(n_days):
            if rng.random() < 0.3:  # unbalanced panel
                continue
            day = START_DAY + dt.timedelta(days=d)
            for _ in range(int(rng.integers(1, 3))):
                fuel = fuels[int(rng.choice(4, p=fuel_p))]
                mode = modes[int(rng.choice(3, p=mode_p))]
                hour = int(rng.integers(0, 24))
                ts = dt.datetime(day.year, day.month, day.day, hour,
                                 int(rng.integers(0, 60)))
                price = base + (0.25 if fuel == "Diesel" else 0.0) \
                    + (0.12 if fuel == "Midgrade" else 0.0) \
                    + (0.24 if fuel == "Premium" else 0.0) \
                    + float(rng.normal(0.0, 0.04))
                line = record_line(st.station_id, ts, fuel, mode, round(price, 3))
                key = line.rpartition("|")[0]
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                lines.append(line)
                truth.total_records += 1
                if mode == "Credit" and fuel == "Regular":
                    truth.credit_regular += 1
    truth.unique_records = len(seen_keys)

    # Planted duplicates: re-emit existing records on other pages.
    dup_idx = rng.choice(len(lines), size=planted_duplicates, replace=False)
    dup_lines = [lines[i] for i in dup_idx]
    # Planted quarantine entries: implausible prices and an unknown fuel type.
    bad_lines = []
    for i in range(planted_bad):
        st = stations[int(rng.integers(0, len(stations)))]
        ts = dt.datetime(2017, 1, 10 + i, 12, 0)
        if i % 2 == 0:
            bad_lines.append(f"{st.station_id}|{ts.isoformat()}|Regular|Credit|0.050")
        else:
            bad_lines.append(f"{st.station_id}|{ts.isoformat()}|Jetfuel|Credit|2.100")
    truth.quarantined = len(bad_lines)

    all_lines = lines + dup_lines + bad_lines
    order = rng.permutation(len(all_lines))
    per_page = [[] for _ in range(n_pages)]
    for rank, idx in enumerate(order):
        per_page[rank % n_pages].append(all_lines[idx])
    for p, page_lines in enumerate(per_page):
        (pages_dir / f"page_{p:03d}.txt").write_text("\n".join(page_lines) + "\n")

    save_station_registry(stations, out_dir / "stations.csv")
    cov_names = ["lat", "lon", "income", "population", "wage_per_job", "jobs_per_capita",
                 "jobs", "density", "log_population", "log_total_income", "unemployment",
                 "poverty", "pct_black", "vote_gop", "state_tax"]
    with open(out_dir / "covariates.csv", "w", newline="") as fh:
        fh.write("county_fips," + ",".join(cov_names) + "\n")
        for fips in sorted(covariates):
            row = covariates[fips]
            fh.write(fips + "," + ",".join(f"{row[c]:.8g}" for c in cov_names) + "\n")
    return truth


# ---------------------------------------------------------------------------
# GWR fixtures

def make_grid_dataset(seed: int, side: int = 15, noise_sd: float = 0.1):
    """Grid dataset with a slope that varies smoothly in longitude.

    y = (2 + lon/10) * x + noise. Returns (dataset, true_slopes).
    """
    rng = rng_for(seed, "grid")
    points, lons = [], []
    for i in range(side):
        for j in range(side):
            lat, lon = 38.0 + 0.5 * i, -100.0 + 0.5 * j
            points.append(GeoPoint(lat, lon))
            lons.append(lon)
    n = side * side
    lons = np.array(lons)
    x = rng.normal(0.0, 1.0, size=n)
    true_slope = 2.0 + lons / 10.0
    y = true_slope * x + rng.normal(0.0, noise_sd, size=n)
    data = GwrDataset(ids=list(range(n)), points=points, covariates={"x": x}, response=y)
    return data, true_slope


def make_model_selection_dataset(seed: int, n: int = 60, noise_sd: float = 0.05):
    """Five candidate covariates, response driven by income and wage_per_job
    only (with mild spatial variation in the coefficients)."""
    rng = rng_for(seed, "modelsel")
    lat = rng.uniform(32.0, 45.0, size=n)
    lon = rng.uniform(-115.0, -80.0, size=n)
    points = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
    cov = {name: rng.normal(0.0, 1.0, size=n)
           for name in ("income", "population", "wage_per_job", "jobs_per_capita", "jobs")}
    b_income = 1.0 + 0.01 * (lon + 100.0)
    b_wage = -0.8 + 0.01 * (lat - 38.0)
    y = (2.3 + b_income * cov["income"] + b_wage * cov["wage_per_job"]
         + rng.normal(0.0, noise_sd, size=n))
    return GwrDataset(ids=list(range(n)), points=points, covariates=cov, response=y)


def make_random_gwr_dataset(seed: int, n: int = 100, p: int = 3, noise_sd: float = 0.2):
    """Stationary linear data: the same coefficients everywhere."""
    rng = rng_for(seed, "randgwr")
    lat = rng.uniform(32.0, 45.0, size=n)
    lon = rng.uniform(-115.0, -80.0, size=n)
    points = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
    cov = {f"x{j}": rng.normal(0.0, 1.0, size=n) for j in range(p)}
    beta = rng.normal(0.0, 1.0, size=p)
    y = 1.0 + sum(beta[j] * cov[f"x{j}"] for j in range(p)) + rng.normal(0.0, noise_sd, size=n)
    return GwrDataset(ids=list(range(n)), points=points, covariates=cov, response=y)


# ---------------------------------------------------------------------------
# Spatially correlated county panel

def cholesky_in_place(a: np.ndarray, band: int = 128) -> np.ndarray:
    """Lower Cholesky factor of the symmetric, C-ordered ``a``, written over
    ``a`` and returned; equal bit for bit to ``np.linalg.cholesky(a)``.

    ``np.linalg.cholesky`` holds three n x n arrays at once (the input, its
    Fortran-ordered copy and the result); this holds only ``a``. ``a.T`` is
    ``a``'s Fortran-ordered view, so LAPACK factors it without a copy and
    leaves ``a`` holding the factor's transpose. Moving it across the
    diagonal one band of columns at a time makes ``a`` the C-ordered factor,
    so products with it sum in the same order as with numpy's.
    """
    n = a.shape[0]
    factor = linalg.cholesky(a.T, lower=True, overwrite_a=True, check_finite=False)
    if not np.shares_memory(factor, a):
        a[...] = factor.T
    for i0 in range(0, n, band):
        i1 = min(i0 + band, n)
        # Columns i0:i1 of the factor sit in rows i0:i1 of a; later bands
        # read only rows and columns from i1 on.
        a[i0:, i0:i1] = a[i0:i1, i0:].T
        a[i0:i1, i1:] = 0.0
    return a


def make_county_panel(seed: int, n_counties: int = 300, corr_length_km: float = 100.0,
                      n_days: int = 5, base: float = 2.28, amplitude: float = 0.2):
    """County locations with a planted spatially correlated price field.

    The field is a Gaussian random field with covariance exp(-d/L); values are
    constant in time with small day-level noise. Returns ``(points,
    (location, day, value))``, the ``moran_sweep`` input: one ``GeoPoint``
    per county and one row per (day, county), days in order and counties in
    code order within a day.
    """
    rng = rng_for(seed, "countypanel")
    lat = rng.uniform(30.0, 47.0, size=n_counties)
    lon = rng.uniform(-120.0, -75.0, size=n_counties)
    points = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
    # cov = exp(-d / L) + 1e-8 I, built in place in the distance matrix.
    cov = distance_matrix(points)
    np.negative(cov, out=cov)
    cov /= corr_length_km
    np.exp(cov, out=cov)
    cov.flat[::n_counties + 1] += 1e-8
    chol = cholesky_in_place(cov)
    field_values = base + amplitude * (chol @ rng.normal(0.0, 1.0, size=n_counties))

    noise = rng.normal(0.0, 0.005, size=(n_days, n_counties))
    location = np.tile(np.arange(n_counties), n_days)
    day = np.repeat(START_DAY.toordinal() + np.arange(n_days), n_counties)
    return points, (location, day, (field_values + noise).ravel())


# ---------------------------------------------------------------------------
# Econometrics fixtures

def make_random_panel(seed: int, n_stations: int = 20, n_days: int = 4,
                      n_counties: int = 5, n_states: int = 3):
    """Unstructured random panel for cross-module identity checks."""
    rng = rng_for(seed, "randpanel")
    panel = []
    for i in range(n_stations):
        state = int(rng.integers(0, n_states))
        state_id = f"{state + 10:02d}"
        county = f"{state_id}{int(rng.integers(1, n_counties + 1)):03d}"
        for d in range(n_days):
            panel.append(PanelObservation(
                station_id=f"st{i:05d}", state_id=state_id, county_fips=county,
                day=START_DAY + dt.timedelta(days=d),
                price=float(2.0 + rng.normal(0.0, 0.3))))
    return panel


def make_county_rows(seed: int, n_states: int = 10, counties_per_state: int = 20,
                     covariate_effects: dict | None = None,
                     state_effect_sd: float = 0.2, noise_sd: float = 0.05):
    """CountyModelRow fixture: log price = state effect + covariate effects +
    noise. Returns (rows, true_effects)."""
    rng = rng_for(seed, "countyrows")
    effects = covariate_effects or {}
    rows = []
    state_effects = rng.normal(0.0, state_effect_sd, size=n_states)
    for s in range(n_states):
        state_id = f"{s + 10:02d}"
        for c in range(counties_per_state):
            cov = {
                "density": float(rng.uniform(1.0, 2000.0)) / 1000.0,
                "log_population": float(rng.normal(10.0, 1.0)),
                "log_total_income": float(rng.normal(13.0, 1.0)),
                "unemployment": float(rng.uniform(0.02, 0.12)),
                "poverty": float(rng.uniform(0.05, 0.30)),
                "pct_black": float(rng.uniform(0.0, 40.0)),
                "vote_gop": float(rng.uniform(0.2, 0.8)),
                "state_tax": float(rng.uniform(0.2, 0.6)),
            }
            log_price = float(np.log(2.28)) + state_effects[s] + float(rng.normal(0, noise_sd))
            for name, eff in effects.items():
                log_price += eff * cov[name]
            rows.append(CountyModelRow(
                county_fips=f"{state_id}{c + 1:03d}", log_mean_price=log_price,
                state_id=state_id, covariates=cov))
    return rows, dict(effects)
