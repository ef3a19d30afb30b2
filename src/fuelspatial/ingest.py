"""Data collection and dataset construction: proxy pool, bounded-concurrency
collection manager, record parsing, deduplicating append-only store, filtering
and aggregation into analysis-ready panels.

Record wire format (one price entry per line, pipe-separated, UTF-8, LF):

    station_id|iso8601_timestamp|fuel_type|payment_mode|price

The store is one file of such lines and nothing else. A record's dedup key is
its line up to the last ``|``, so the set of stored keys is rebuilt from the
file on open. Only LF-terminated lines count: an unterminated final line (a
crash mid-append) is ignored when reading and cut by the next append.
"""

from __future__ import annotations

import csv
import datetime as dt
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlparse

import numpy as np

from .errors import (
    DuplicateKeyError,
    EmptyInputError,
    ParseError,
    PoolExhaustedError,
    StoreWriteError,
)
from .geo import GeoPoint

FUEL_TYPES = ("Diesel", "Regular", "Midgrade", "Premium")
PAYMENT_MODES = ("Credit", "Cash", "Other")
PRICE_BAND = (0.5, 10.0)


@dataclass(frozen=True)
class PriceObservation:
    station_id: str
    timestamp: dt.datetime
    fuel_type: str
    payment_mode: str
    price: float
    source_url: str = ""

    def dedup_key(self) -> str:
        return "|".join([self.station_id, self.timestamp.isoformat(),
                         self.fuel_type, self.payment_mode])

    def to_line(self) -> str:
        return "|".join([self.station_id, self.timestamp.isoformat(),
                         self.fuel_type, self.payment_mode, f"{self.price:.3f}"])


@dataclass(frozen=True)
class Station:
    station_id: str
    point: GeoPoint
    city: str
    county_fips: str
    state_id: str

    def __post_init__(self):
        if len(self.county_fips) != 5 or not self.county_fips.isdigit():
            raise ValueError(f"county_fips must be a 5-digit code, got {self.county_fips!r}")
        if self.county_fips[:2] != self.state_id:
            raise ValueError(
                f"county_fips {self.county_fips} does not belong to state {self.state_id}")


# ---------------------------------------------------------------------------
# Proxy pool

IDLE, IN_USE, FAILED = "Idle", "InUse", "Failed"


@dataclass
class ProxyEndpoint:
    address: str
    status: str = IDLE
    failure_count: int = 0


class ProxyPool:
    """Round-robin pool of socket-proxy endpoints; Failed endpoints are skipped
    until reset."""

    def __init__(self, endpoints, failure_threshold: int = 3):
        self._endpoints = list(endpoints)
        self._threshold = failure_threshold
        self._cursor = 0
        self._lock = threading.Lock()

    def next(self) -> ProxyEndpoint:
        with self._lock:
            n = len(self._endpoints)
            for _ in range(n):
                ep = self._endpoints[self._cursor % n]
                self._cursor += 1
                if ep.status != FAILED:
                    ep.status = IN_USE
                    return ep
            raise PoolExhaustedError("all proxy endpoints have failed")

    def release(self, ep: ProxyEndpoint, success: bool = True) -> None:
        with self._lock:
            if not success:
                ep.failure_count += 1
                if ep.failure_count >= self._threshold:
                    ep.status = FAILED
                    return
            ep.status = IDLE

    def reset(self) -> None:
        with self._lock:
            for ep in self._endpoints:
                ep.status = IDLE
                ep.failure_count = 0


# ---------------------------------------------------------------------------
# Parsing

def parse_price_record(raw: str, source_url: str = ""):
    """Parse a fetched document into observations.

    Returns (observations, quarantined) where quarantined is a list of
    (line, reason) pairs. Structural problems raise ParseError.
    """
    observations: list[PriceObservation] = []
    quarantined: list[tuple[str, str]] = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split("|")
        if len(parts) != 5:
            raise ParseError(source_url, f"expected 5 fields, got {len(parts)}: {line!r}")
        station_id, ts, fuel, mode, price_s = parts
        try:
            timestamp = dt.datetime.fromisoformat(ts)
            price = float(price_s)
        except ValueError as exc:
            raise ParseError(source_url, f"bad field in line {line!r}: {exc}") from exc
        if fuel not in FUEL_TYPES:
            quarantined.append((line, f"unknown fuel type {fuel!r}"))
            continue
        if mode not in PAYMENT_MODES:
            quarantined.append((line, f"unknown payment mode {mode!r}"))
            continue
        if not PRICE_BAND[0] < price < PRICE_BAND[1]:
            side = "below" if price <= PRICE_BAND[0] else "above"
            quarantined.append((line, f"{side} plausibility band"))
            continue
        observations.append(PriceObservation(station_id, timestamp, fuel, mode, price,
                                             source_url))
    return observations, quarantined


# ---------------------------------------------------------------------------
# Observation store

def _complete_bytes(path: Path) -> tuple[bytes, int]:
    """A store file's bytes and the offset just past its last LF."""
    data = path.read_bytes() if path.exists() else b""
    return data, data.rfind(b"\n") + 1


def read_store(path) -> list[PriceObservation]:
    """The observations on a store file's LF-terminated lines, read once; a
    torn final line is ignored and an absent file holds none."""
    path = Path(path)
    data, end = _complete_bytes(path)
    obs, _ = parse_price_record(data[:end].decode(), str(path))
    return obs


class ObservationStore:
    """Append-only file of record lines, deduplicated on the record key.

    The file is the only state: the dedup key of a line is the line up to its
    last ``|`` (``PriceObservation.dedup_key``), and only LF-terminated lines
    count. ``torn_bytes`` is the size of the unterminated tail found on open;
    ``load`` ignores it and the next append cuts it. The first-seen price
    wins. Appends are serialized across threads, not across instances or
    processes: only one open store may write a file, since each append
    truncates the file to the end this instance last wrote.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        data, self._end = _complete_bytes(self.path)
        self.torn_bytes = len(data) - self._end
        self._seen = {line.rpartition("|")[0]
                      for line in data[:self._end].decode().splitlines()}

    def add(self, *observations: PriceObservation) -> int:
        """Append the observations with new keys in one write; returns how
        many were new (duplicates within the call count once).

        Each write first truncates the file to the end of its last complete
        line, which cuts a torn tail and any bytes of an earlier write that
        raised ``StoreWriteError``.
        """
        lines = [obs.to_line() for obs in observations]
        with self._lock:
            fresh = {}
            for line in lines:
                key = line.rpartition("|")[0]
                if key not in self._seen:
                    fresh.setdefault(key, line)
            if not fresh:
                return 0
            data = "".join(line + "\n" for line in fresh.values()).encode()
            try:
                with open(self.path, "ab") as fh:
                    fh.truncate(self._end)
                    fh.write(data)
            except OSError as exc:
                raise StoreWriteError(str(exc)) from exc
            self._end += len(data)
            self._seen.update(fresh)
            return len(fresh)

    def __len__(self) -> int:
        return len(self._seen)

    def load(self) -> list[PriceObservation]:
        return read_store(self.path)


# ---------------------------------------------------------------------------
# Collection manager

@dataclass
class CollectionPlan:
    urls: list
    max_in_flight: int = 4
    per_host_delay_ms: float = 0.0
    retries: int = 0

    def __post_init__(self):
        seen, deduped = set(), []
        for url in self.urls:
            url = url.strip()
            if url and url not in seen:
                seen.add(url)
                deduped.append(url)
        self.urls = deduped
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")


@dataclass
class CollectionReport:
    fetched: int = 0
    parsed: int = 0
    stored: int = 0
    failed: int = 0
    duplicates_dropped: int = 0
    quarantined: int = 0
    peak_in_flight: int = 0
    aborted: bool = False
    attempts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


class MockSource:
    """In-process source client serving pre-built pages, with configurable
    transient and permanent failures (counted per URL)."""

    def __init__(self, pages: dict, transient_failures: dict | None = None,
                 always_fail: set | None = None):
        self.pages = dict(pages)
        self.transient = dict(transient_failures or {})
        self.always_fail = set(always_fail or ())
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_directory(cls, directory, scheme: str = "mock://pages/") -> "MockSource":
        pages = {}
        for path in sorted(Path(directory).iterdir()):
            if path.is_file():
                pages[scheme + path.name] = path.read_text()
        return cls(pages)

    def fetch(self, url: str, proxy: ProxyEndpoint | None = None) -> str:
        with self._lock:
            self._attempts[url] = self._attempts.get(url, 0) + 1
            attempt = self._attempts[url]
        if url in self.always_fail:
            raise IOError(f"server error for {url}")
        if attempt <= self.transient.get(url, 0):
            raise IOError(f"transient error for {url} (attempt {attempt})")
        if url not in self.pages:
            raise IOError(f"not found: {url}")
        return self.pages[url]


class _HostThrottle:
    def __init__(self, delay_s: float):
        self.delay = delay_s
        self._last: dict[str, float] = {}
        self._lock = threading.Lock()

    def wait(self, host: str) -> None:
        if self.delay <= 0:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                last = self._last.get(host, -float("inf"))
                if now - last >= self.delay:
                    self._last[host] = now
                    return
                pause = self.delay - (now - last)
            time.sleep(pause)


def run_collection(plan: CollectionPlan, source, pool: ProxyPool,
                   store: ObservationStore) -> CollectionReport:
    """Run a collection plan with bounded concurrency.

    Worker tasks share a URL queue; each URL is attempted up to retries+1
    times; per-host delay is enforced across workers; each parsed page goes
    to the deduplicating store in one append.
    """
    report = CollectionReport()
    throttle = _HostThrottle(plan.per_host_delay_ms / 1000.0)
    url_queue: queue.Queue = queue.Queue()
    for url in plan.urls:
        url_queue.put(url)

    lock = threading.Lock()
    in_flight = [0]
    stop = threading.Event()

    def handle(url: str) -> None:
        host = urlparse(url).netloc or url
        for attempt in range(plan.retries + 1):
            with lock:
                report.attempts[url] = report.attempts.get(url, 0) + 1
            throttle.wait(host)
            proxy = pool.next()
            with lock:
                in_flight[0] += 1
                report.peak_in_flight = max(report.peak_in_flight, in_flight[0])
            try:
                page = source.fetch(url, proxy=proxy)
            except Exception as exc:
                pool.release(proxy, success=False)
                with lock:
                    in_flight[0] -= 1
                if attempt == plan.retries:
                    with lock:
                        report.failed += 1
                        report.errors.append((url, str(exc)))
                    return
                continue
            pool.release(proxy, success=True)
            with lock:
                in_flight[0] -= 1
                report.fetched += 1
            try:
                observations, quarantined = parse_price_record(page, url)
            except ParseError as exc:
                with lock:
                    report.failed += 1
                    report.errors.append((url, str(exc)))
                return
            try:
                stored = store.add(*observations)
            except StoreWriteError as exc:
                with lock:
                    report.aborted = True
                    report.errors.append((url, str(exc)))
                stop.set()
                return
            with lock:
                report.parsed += len(observations)
                report.quarantined += len(quarantined)
                report.stored += stored
                report.duplicates_dropped += len(observations) - stored
            return

    def worker() -> None:
        while not stop.is_set():
            try:
                url = url_queue.get_nowait()
            except queue.Empty:
                return
            try:
                handle(url)
            finally:
                url_queue.task_done()

    threads = [threading.Thread(target=worker) for _ in range(plan.max_in_flight)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return report


# ---------------------------------------------------------------------------
# Filtering and aggregation

def filter_observations(obs, fuel_type: str | None = "Regular"):
    """Keep credit-card observations, optionally restricted to one fuel type."""
    out = [o for o in obs if o.payment_mode == "Credit"]
    if fuel_type is not None:
        out = [o for o in out if o.fuel_type == fuel_type]
    return out


@dataclass(frozen=True)
class StationDay:
    station_id: str
    day: dt.date
    price: float
    n_prices: int


def aggregate_daily(obs, stations: dict):
    """Station-day panel: the mean of each station's prices within a day.

    Returns (rows, orphans); observations whose station_id is missing from the
    registry are skipped and reported.
    """
    cells: dict[tuple[str, dt.date], list[float]] = {}
    orphans: list[str] = []
    for o in obs:
        if o.station_id not in stations:
            orphans.append(o.station_id)
            continue
        cells.setdefault((o.station_id, o.timestamp.date()), []).append(o.price)
    rows = [StationDay(sid, day, float(np.mean(prices)), len(prices))
            for (sid, day), prices in sorted(cells.items())]
    return rows, orphans


@dataclass
class CountyAggregate:
    county_fips: str
    period: tuple
    mean_price: float
    n_observations: int
    n_stations: int
    point: GeoPoint
    covariates: dict | None = None
    incomplete: bool = False


def aggregate_county(panel, stations: dict, covariate_table: dict,
                     period: tuple | None = None,
                     station_means: bool = False) -> list:
    """County mean prices over a period with covariates joined by FIPS.

    Every station-day row weighs equally by default; ``station_means``
    switches to the mean of per-station means. Counties with no covariate row
    are flagged incomplete (kept for maps, excluded from regressions).
    """
    by_county: dict[str, list[StationDay]] = {}
    for row in panel:
        st = stations.get(row.station_id)
        if st is None:
            continue
        if period is not None and not (period[0] <= row.day <= period[1]):
            continue
        by_county.setdefault(st.county_fips, []).append(row)

    out = []
    for fips in sorted(by_county):
        rows = by_county[fips]
        if station_means:
            per_station: dict[str, list[float]] = {}
            for r in rows:
                per_station.setdefault(r.station_id, []).append(r.price)
            mean_price = float(np.mean([np.mean(v) for v in per_station.values()]))
        else:
            mean_price = float(np.mean([r.price for r in rows]))
        station_ids = {r.station_id for r in rows}
        cov = covariate_table.get(fips)
        if cov is not None and "lat" in cov and "lon" in cov:
            point = GeoPoint(cov["lat"], cov["lon"])
        else:
            pts = [stations[s].point for s in station_ids]
            point = GeoPoint(float(np.mean([p.lat for p in pts])),
                             float(np.mean([p.lon for p in pts])))
        days = [r.day for r in rows]
        out.append(CountyAggregate(
            county_fips=fips,
            period=period or (min(days), max(days)),
            mean_price=mean_price,
            n_observations=len(rows),
            n_stations=len(station_ids),
            point=point,
            covariates=cov,
            incomplete=cov is None,
        ))
    return out


def descriptive_stats(values) -> dict:
    """Table-1 style summary: mean, sample sd, percentiles (linear
    interpolation) and the p99/p1 concentration ratio."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise EmptyInputError("empty price vector")
    p = np.percentile(x, [1, 10, 25, 50, 75, 90, 99])
    return {
        "mean": float(x.mean()),
        "sd": float(x.std(ddof=1)) if x.size > 1 else 0.0,
        "p10": float(p[1]), "p25": float(p[2]), "p50": float(p[3]),
        "p75": float(p[4]), "p90": float(p[5]),
        "p99_over_p1": float(p[6] / p[0]) if p[0] != 0 else float("inf"),
    }


# ---------------------------------------------------------------------------
# CSV interfaces

def load_station_registry(path) -> dict:
    stations: dict[str, Station] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            st = Station(
                station_id=row["station_id"],
                point=GeoPoint(float(row["lat"]), float(row["lon"])),
                city=row["city"],
                county_fips=row["county_fips"],
                state_id=row["state_id"],
            )
            stations[st.station_id] = st
    return stations


def save_station_registry(stations, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["station_id", "lat", "lon", "city", "county_fips", "state_id"])
        for st in stations:
            wr.writerow([st.station_id, f"{st.point.lat:.8g}", f"{st.point.lon:.8g}",
                         st.city, st.county_fips, st.state_id])


def load_covariate_table(path) -> dict:
    """Covariate rows keyed by county FIPS; duplicate keys are an error."""
    table: dict[str, dict] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            fips = row.pop("county_fips")
            if fips in table:
                raise DuplicateKeyError(f"duplicate county_fips {fips}")
            table[fips] = {k: float(v) for k, v in row.items() if v != ""}
    return table
