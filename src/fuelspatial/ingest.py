"""Data collection and dataset construction: proxy pool, bounded-concurrency
collection manager, record parsing, deduplicating append-only store, filtering
and aggregation into analysis-ready panels.

Record wire format (one price entry per line, pipe-separated, UTF-8, LF):

    station_id|iso8601_timestamp|fuel_type|payment_mode|price

Fetched pages and the store go through one parser, ``parse_price_record``,
into ``ObservationColumns``; ``record_line`` writes a record's canonical line.
The store is one file of such lines and nothing else. A record's dedup key is
its canonical line up to the last ``|``, so the set of stored keys is rebuilt
from the file on open. A page line that is already canonical (a naive
timestamp to the second, a price to three decimals) is stored as received;
any other is written by ``record_line``. On open, a store whose lines are all
canonical is keyed from its text; otherwise it is parsed and each record is
keyed by its canonical line. Only LF-terminated lines count: an unterminated
final line (a crash mid-append) is ignored when reading and cut by the next
append. A collection run's pool threads only fetch; the calling thread parses
the pages and appends them in plan order, so a run's store bytes repeat.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import compress, repeat
from pathlib import Path
from urllib.parse import urlparse

import numpy as np

from .errors import (
    DuplicateKeyError,
    EmptyInputError,
    ParseError,
    PoolExhaustedError,
    ProxyError,
    StoreWriteError,
)
from .geo import GeoPoint
from .groups import label_codes, run_means, run_starts

FUEL_TYPES = ("Diesel", "Regular", "Midgrade", "Premium")
PAYMENT_MODES = ("Credit", "Cash", "Other")
PRICE_BAND = (0.5, 10.0)


def record_line(station_id: str, timestamp: dt.datetime, fuel: str, mode: str,
                price: float) -> str:
    """A record's canonical line: ``isoformat()`` timestamp, price to three
    decimals, no line end."""
    return f"{station_id}|{timestamp.isoformat()}|{fuel}|{mode}|{price:.3f}"


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

@dataclass
class ProxyEndpoint:
    address: str
    failure_count: int = 0


class ProxyPool:
    """Round-robin pool of socket-proxy endpoints; an endpoint has failed, and
    is skipped, once its failure count reaches the threshold."""

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
                if ep.failure_count < self._threshold:
                    return ep
            raise PoolExhaustedError("all proxy endpoints have failed")

    def fail(self, ep: ProxyEndpoint) -> None:
        """Count a failed fetch against its endpoint."""
        with self._lock:
            ep.failure_count += 1


# ---------------------------------------------------------------------------
# Parsing

# Fuel and mode codes index the sorted names, so code order is name order.
_FUEL_NAMES, _MODE_NAMES = sorted(FUEL_TYPES), sorted(PAYMENT_MODES)
_FUEL_CODE = {name: i for i, name in enumerate(_FUEL_NAMES)}
_MODE_CODE = {name: i for i, name in enumerate(_MODE_NAMES)}
_BLOCK_LINES = 4096
# Quarantine reasons by rule, in priority order (known fuel, known mode, not
# below the price band, under its top); formatted with the line's fields.
_REASONS = ("unknown fuel type {2!r}", "unknown payment mode {3!r}",
            "below plausibility band", "above plausibility band")
# The fixed forms of a canonical timestamp field (a naive ``isoformat()`` to
# the second) and price field (``:.3f`` below 10), each digit written as 0.
_STAMP_FORM, _PRICE_FORM = "0000-00-00T00:00:00", "0.000"
_ZERO_DIGITS = str.maketrans("123456789", "000000000")


def _record_lines(raw: str) -> list:
    """A document's lines as records are read from it: stripped, blank lines
    dropped."""
    return [line for line in map(str.strip, raw.splitlines()) if line]


def _fixed_form(fields: list, form: str) -> bool:
    """Whether every field (none holding ``|``) is ``form`` with each 0 read
    as any ASCII digit: one join, one translation and one comparison, no
    per-field Python code."""
    return "|".join(fields).translate(_ZERO_DIGITS) == "|".join([form] * len(fields))


def _canonical(lines: list, parsed: bool = True) -> bool:
    """Whether every line is in canonical form: five fields, the timestamp
    and the price in their fixed forms (``_STAMP_FORM``, ``_PRICE_FORM``).

    A ``parsed`` line is one ``parse_price_record`` kept, so ``fromisoformat``
    has read its timestamp; then the line equals ``record_line`` of its
    record, since such a timestamp is its own ``isoformat()`` and a ``D.DDD``
    price its own ``:.3f``. Lines not ``parsed`` have their field counts and
    timestamps checked here too.
    """
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        if not parsed and list(map(str.count, block, repeat("|"))).count(4) != len(block):
            return False
        fields = "|".join(block).split("|")
        stamps = fields[1::5]
        if not (_fixed_form(stamps, _STAMP_FORM) and _fixed_form(fields[4::5], _PRICE_FORM)):
            return False
        if not parsed:
            try:
                deque(map(dt.datetime.fromisoformat, stamps), 0)
            except ValueError:
                return False
    return True


@dataclass(frozen=True)
class ObservationColumns:
    """Observations as columns, one row per record.

    ``station`` indexes ``station_ids`` (sorted; a label may have no row),
    ``timestamp`` holds the parsed datetimes, ``fuel`` and ``mode`` index the
    sorted ``FUEL_TYPES`` and ``PAYMENT_MODES`` and ``day`` is the ordinal of
    the timestamp's own calendar date. ``source`` is the list of the rows'
    lines as ``parse_price_record`` read them (the parser's own list when it
    kept every line); ``take`` drops it.
    """

    station_ids: list
    station: np.ndarray
    timestamp: np.ndarray
    day: np.ndarray
    fuel: np.ndarray
    mode: np.ndarray
    price: np.ndarray
    source: list | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return self.price.size

    def take(self, rows) -> "ObservationColumns":
        return ObservationColumns(self.station_ids, self.station[rows], self.timestamp[rows],
                                  self.day[rows], self.fuel[rows], self.mode[rows],
                                  self.price[rows])

    def sort_order(self) -> np.ndarray:
        """Row order by station id, timestamp, fuel type and payment mode,
        ties in row order. Equal instants tie; timestamps that mix naive and
        offset-aware datetimes raise TypeError."""
        time_rank = np.unique(self.timestamp, return_inverse=True)[1]
        return np.lexsort((self.mode, self.fuel, time_rank, self.station))

    def lines(self) -> list:
        """Each row's canonical line, in row order: the ``source`` list itself
        when every line in it is canonical (``_canonical``), else each row
        written by ``record_line``."""
        if self.source is not None and _canonical(self.source):
            return self.source
        return list(map(record_line, map(self.station_ids.__getitem__, self.station.tolist()),
                        self.timestamp, map(_FUEL_NAMES.__getitem__, self.fuel.tolist()),
                        map(_MODE_NAMES.__getitem__, self.mode.tolist()),
                        self.price.tolist()))


def parse_price_record(raw: str, source_url: str = ""):
    """Parse a fetched document or store text into columns.

    Returns (records, quarantined): the kept rows as ``ObservationColumns``
    and the (line, reason) pairs of lines with an unknown fuel type, an
    unknown payment mode or a price outside ``PRICE_BAND`` (the first rule
    that fails names the reason), in line order. Blank lines are skipped. A
    line without 5 fields or with an unreadable timestamp or price raises
    ParseError naming the first such line.
    """
    lines = _record_lines(raw)
    n = len(lines)
    station, stamps, fuel, mode, price = [], [], [], [], []
    try:
        if list(map(str.count, lines, repeat("|"))).count(4) != n:
            raise ValueError("a line without 5 fields")
        # One split per block of lines bounds the field strings alive at once.
        for start in range(0, n, _BLOCK_LINES):
            fields = "|".join(lines[start:start + _BLOCK_LINES]).split("|")
            station += fields[0::5]
            stamps += map(dt.datetime.fromisoformat, fields[1::5])
            fuel += map(_FUEL_CODE.get, fields[2::5], repeat(-1))
            mode += map(_MODE_CODE.get, fields[3::5], repeat(-1))
            price += map(float, fields[4::5])
    except ValueError:
        for line in lines:
            parts = line.split("|")
            if len(parts) != 5:
                raise ParseError(source_url,
                                 f"expected 5 fields, got {len(parts)}: {line!r}") from None
            try:
                dt.datetime.fromisoformat(parts[1])
                float(parts[4])
            except ValueError as exc:
                raise ParseError(source_url, f"bad field in line {line!r}: {exc}") from exc
        raise
    station_ids, station = label_codes(station)
    fuel, mode = np.array(fuel, dtype=np.intp), np.array(mode, dtype=np.intp)
    price = np.array(price, dtype=float)
    cols = ObservationColumns(
        station_ids, station, np.fromiter(stamps, object, n),
        np.fromiter(map(dt.datetime.toordinal, stamps), np.intp, n), fuel, mode, price,
        lines)
    # One mask per rule of _REASONS; a row's reason is the first rule it
    # fails, so a NaN price, which fails only the last, is above the band.
    passed = np.array([fuel >= 0, mode >= 0, ~(price <= PRICE_BAND[0]),
                       price < PRICE_BAND[1]])
    keep, rule = passed.all(axis=0), passed.argmin(axis=0)
    quarantined = [(lines[i], _REASONS[rule[i]].format(*lines[i].split("|")))
                   for i in np.flatnonzero(~keep).tolist()]
    if quarantined:
        cols = replace(cols.take(keep), source=list(compress(lines, keep.tolist())))
    return cols, quarantined


# ---------------------------------------------------------------------------
# Observation store

def _store_text(path: Path) -> tuple[str, int, int]:
    """A store file's LF-terminated lines, decoded, with the offset just past
    its last LF and the size of the unterminated tail after it. Raises
    ParseError naming the file and the offset of a byte that is not UTF-8."""
    data = path.read_bytes() if path.exists() else b""
    end = data.rfind(b"\n") + 1
    try:
        return data[:end].decode(), end, len(data) - end
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), f"byte {exc.start} is not UTF-8") from None


def read_store(path) -> ObservationColumns:
    """The records on a store file's LF-terminated lines as columns, parsed by
    ``parse_price_record``: a malformed line raises its ``ParseError`` and a
    record it would quarantine is dropped. A torn final line is ignored and an
    absent file holds none."""
    return parse_price_record(_store_text(Path(path))[0], str(path))[0]


class ObservationStore:
    """Append-only file of record lines, deduplicated on the record key.

    The file is the only state: the dedup key of a record is its canonical
    line (``record_line``) up to the last ``|``, and only LF-terminated lines
    count. On open, the lines are keyed from their text when all of them are
    canonical (``_canonical``); else the file is parsed as ``read_store``
    parses it (a malformed line raises its ``ParseError``), each record is
    keyed by its canonical line and each line the parser quarantines by its
    text. ``torn_bytes`` is the size of the unterminated tail found on open;
    ``load`` ignores it and the next append cuts it. The first-seen price
    wins, so the file's line order is the order of the ``add`` calls (plan
    order, under ``run_collection``). The lock serializes ``add`` calls made
    on one instance from several threads; ``run_collection`` adds from its
    calling thread only, so there it is never contended. Only one open store
    may write a file, across instances or processes, since each append
    truncates the file to the end this instance last wrote.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        text, self._end, self.torn_bytes = _store_text(self.path)
        lines = _record_lines(text)
        if not _canonical(lines, parsed=False):
            records, quarantined = parse_price_record(text, str(self.path))
            lines = records.lines() + [line for line, _ in quarantined]
        self._seen = {line.rpartition("|")[0] for line in lines}

    def add(self, records: ObservationColumns) -> int:
        """Append the canonical lines of the records with new keys in one
        write; returns how many were new (duplicates within the call count
        once). Canonical source lines are written as received.

        Each write first truncates the file to the end of its last complete
        line, which cuts a torn tail and any bytes of an earlier write that
        raised ``StoreWriteError``.
        """
        lines = records.lines()
        keys = [line.rpartition("|")[0] for line in lines]
        with self._lock:
            if self._seen.issuperset(keys):
                return 0
            fresh = {}
            for key, line in zip(keys, lines):
                if key not in self._seen:
                    fresh.setdefault(key, line)
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

    def load(self) -> ObservationColumns:
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
        if self.retries < 0:
            raise ValueError("retries must be non-negative")


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
    """Run a collection plan with bounded concurrency and one store writer.

    ``plan.max_in_flight`` pool threads fetch the URLs in order; each URL is
    attempted up to retries+1 times, only a ``ProxyError`` counts against
    the proxy endpoint, and the per-host delay holds across threads. The
    calling thread parses the pages in plan order and adds each one to the
    store in one append, so the store's lines and ``report.errors`` follow
    the plan. A failed append or an exhausted proxy pool aborts the run: no
    later page is stored and URLs not yet started are skipped. Any other
    exception is raised from here.
    """
    report = CollectionReport()
    throttle = _HostThrottle(plan.per_host_delay_ms / 1000.0)
    lock = threading.Lock()
    in_flight = [0]
    stop = threading.Event()

    def fetch(url: str):
        """The page text, else the error that ended the last attempt, or None
        if the run stopped before the URL started (after an earlier abort)."""
        if stop.is_set():
            return None
        host = urlparse(url).netloc or url
        for _ in range(plan.retries + 1):
            with lock:
                report.attempts[url] = report.attempts.get(url, 0) + 1
            throttle.wait(host)
            try:
                proxy = pool.next()
            except PoolExhaustedError as exc:
                stop.set()
                return exc
            with lock:
                in_flight[0] += 1
                report.peak_in_flight = max(report.peak_in_flight, in_flight[0])
            try:
                return source.fetch(url, proxy=proxy)
            except Exception as exc:
                if isinstance(exc, ProxyError):
                    pool.fail(proxy)
                error = exc
            finally:
                with lock:
                    in_flight[0] -= 1
        return error

    with ThreadPoolExecutor(plan.max_in_flight) as executor:
        for url, outcome in zip(plan.urls, executor.map(fetch, plan.urls)):
            if isinstance(outcome, str):
                report.fetched += 1
                try:
                    records, quarantined = parse_price_record(outcome, url)
                    stored = store.add(records)
                except (ParseError, StoreWriteError) as exc:
                    outcome = exc
                else:
                    report.parsed += len(records)
                    report.quarantined += len(quarantined)
                    report.stored += stored
                    report.duplicates_dropped += len(records) - stored
                    continue
            report.errors.append((url, str(outcome)))
            if isinstance(outcome, (PoolExhaustedError, StoreWriteError)):
                report.aborted = True
                stop.set()
                break
            report.failed += 1
    return report


# ---------------------------------------------------------------------------
# Filtering and aggregation

def filter_observations(records: ObservationColumns,
                        fuel_type: str | None = "Regular") -> ObservationColumns:
    """Keep credit-card rows, optionally restricted to one fuel type."""
    keep = records.mode == _MODE_CODE["Credit"]
    if fuel_type is not None:
        keep &= records.fuel == _FUEL_CODE.get(fuel_type, -1)
    return records.take(keep)


@dataclass(frozen=True)
class StationDayColumns:
    """The station-day panel as columns, one row per (station, day) cell in
    (station, day) order. ``station`` indexes ``station_ids``, the sorted ids
    of the registered stations seen; ``day`` is a date ordinal."""

    station_ids: list
    station: np.ndarray
    day: np.ndarray
    price: np.ndarray
    n_prices: np.ndarray

    def station_codes(self, stations: dict, attribute: str) -> tuple[list, np.ndarray]:
        """The sorted distinct values of a ``Station`` attribute (such as
        ``county_fips``) over the panel's stations, and each row's index
        among them."""
        labels, of_station = label_codes([getattr(stations[s], attribute)
                                          for s in self.station_ids])
        return labels, of_station[self.station]


def aggregate_daily(records: ObservationColumns,
                    stations: dict) -> tuple[StationDayColumns, np.ndarray]:
    """Station-day panel: the mean of each station's prices within a day,
    taken in row order within each cell, and the mask of rows whose station
    is missing from the registry (those rows are skipped)."""
    station_ids, station, day = records.station_ids, records.station, records.day
    registered = np.array([s in stations for s in station_ids], dtype=bool)
    orphan = ~registered[station]
    known = np.flatnonzero(~orphan)
    order = known[np.lexsort((day[known], station[known]))]
    recode = np.cumsum(registered) - 1
    cell_station, cell_day = recode[station[order]], day[order]
    starts = run_starts(cell_station, cell_day)
    panel = StationDayColumns(
        [s for s, ok in zip(station_ids, registered) if ok],
        cell_station[starts], cell_day[starts], run_means(records.price[order], starts),
        np.diff(np.append(starts, order.size)))
    return panel, orphan


def aggregate_county(panel: StationDayColumns, stations: dict) -> tuple[list, np.ndarray]:
    """The sorted FIPS codes of the panel's counties and each county's mean
    price; every station-day row weighs equally and each county's rows are
    averaged in panel order."""
    fips, county = panel.station_codes(stations, "county_fips")
    rows = np.argsort(county, kind="stable")
    return fips, run_means(panel.price[rows], run_starts(county[rows]))


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

# The station registry's columns, in the order they are saved.
_STATION_COLUMNS = ("station_id", "lat", "lon", "city", "county_fips", "state_id")
# The bounds of the coordinate columns; any other number need only be finite.
_LIMITS = {"lat": 90.0, "lon": 180.0}


def _number(path, key: str, column: str, text: str) -> float:
    """A table cell as a finite float, ``lat`` and ``lon`` within their
    bounds; else ParseError naming the file, the row's key, the column and
    the text."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    limit = _LIMITS.get(column, math.inf)
    if not (math.isfinite(value) and abs(value) <= limit):
        bounds = f" in [-{limit:g}, {limit:g}]" if column in _LIMITS else ""
        raise ParseError(str(path), f"{key}: {column} must be a finite number{bounds}, "
                                    f"got {text!r}")
    return value


def _table_rows(path, required):
    """A CSV table's rows as dicts keyed by its header, once the header has
    every ``required`` column; a missing column, or a row with more or fewer
    cells than the header, raises ParseError naming the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [column for column in required if column not in header]
        if missing:
            raise ParseError(str(path), f"header has no column {', '.join(map(repr, missing))}")
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise ParseError(str(path), f"line {reader.line_num}: {len(cells)} cells "
                                            f"where the header has {len(header)}")
            yield dict(zip(header, cells))


def load_station_registry(path) -> dict:
    """Stations keyed by id; a duplicate id raises DuplicateKeyError, and a
    bad coordinate or FIPS code ParseError, each naming the file; so does a
    bad table shape (``_table_rows``)."""
    stations: dict[str, Station] = {}
    for row in _table_rows(path, _STATION_COLUMNS):
        sid = row["station_id"]
        if sid in stations:
            raise DuplicateKeyError(f"duplicate station_id {sid} in {path}")
        key = f"station_id {sid}"
        point = GeoPoint(_number(path, key, "lat", row["lat"]),
                         _number(path, key, "lon", row["lon"]))
        try:
            stations[sid] = Station(sid, point, row["city"], row["county_fips"],
                                    row["state_id"])
        except ValueError as exc:
            raise ParseError(str(path), f"{key}: {exc}") from None
    return stations


def save_station_registry(stations, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(_STATION_COLUMNS)
        for st in stations:
            wr.writerow([st.station_id, f"{st.point.lat:.8g}", f"{st.point.lon:.8g}",
                         st.city, st.county_fips, st.state_id])


def load_covariate_table(path) -> dict:
    """Covariate rows keyed by county FIPS, a blank cell left out of its row;
    a duplicate FIPS raises DuplicateKeyError, and a cell that is not a finite
    number (or a coordinate out of bounds) ParseError, each naming the file;
    so does a bad table shape (``_table_rows``)."""
    table: dict[str, dict] = {}
    for row in _table_rows(path, ("county_fips",)):
        fips = row.pop("county_fips")
        if fips in table:
            raise DuplicateKeyError(f"duplicate county_fips {fips} in {path}")
        key = f"county_fips {fips}"
        table[fips] = {k: _number(path, key, k, v) for k, v in row.items() if v != ""}
    return table
