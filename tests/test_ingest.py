import datetime as dt
import sys
import threading
import time
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuelspatial import ingest
from fuelspatial.errors import (
    DuplicateKeyError,
    EmptyInputError,
    ParseError,
    PoolExhaustedError,
    ProxyError,
    StoreWriteError,
)
from fuelspatial.geo import GeoPoint
from fuelspatial.ingest import (
    FUEL_TYPES,
    PAYMENT_MODES,
    PRICE_BAND,
    CollectionPlan,
    MockSource,
    ObservationStore,
    ProxyEndpoint,
    ProxyPool,
    Station,
    StationDayColumns,
    aggregate_county,
    aggregate_daily,
    descriptive_stats,
    filter_observations,
    load_covariate_table,
    load_station_registry,
    parse_price_record,
    read_store,
    record_line,
    run_collection,
)
from fuelspatial.synth import make_mock_corpus

# A station-day cell, as the per-record oracles below build them.
Cell = namedtuple("Cell", "station_id day price n_prices")


class Record(namedtuple("Record", "station_id timestamp fuel_type payment_mode price")):
    """One record, as the reference parser makes it."""

    def line(self) -> str:
        return record_line(*self)


def _reference_parse(raw, source_url=""):
    """The per-line parser ``parse_price_record`` replaced, kept as its
    oracle: (records, quarantined) with the same rules, reasons and errors."""
    records, quarantined = [], []
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
        records.append(Record(station_id, timestamp, fuel, mode, price))
    return records, quarantined


def obs(station="st1", day=10, hour=12, fuel="Regular", mode="Credit", price=2.3):
    return Record(station, dt.datetime(2017, 1, day, hour), fuel, mode, price)


def _records(*records):
    """The records as ``parse_price_record`` columns, in the given order."""
    return parse_price_record("\n".join(r.line() for r in records))[0]


def _text(records):
    """The records' lines, each LF-terminated."""
    return "".join(r.line() + "\n" for r in records)


def _columns(path, records):
    """``read_store`` of a store file holding the records' lines in order."""
    path.write_text(_text(records))
    return read_store(path)


def _rows(cols):
    """The columns' rows as (station id, timestamp, day ordinal, fuel, mode,
    price)."""
    fuels, modes = sorted(FUEL_TYPES), sorted(PAYMENT_MODES)
    return list(zip([cols.station_ids[s] for s in cols.station.tolist()],
                    cols.timestamp.tolist(), cols.day.tolist(),
                    [fuels[f] for f in cols.fuel.tolist()],
                    [modes[m] for m in cols.mode.tolist()], cols.price.tolist()))


def _record_rows(records):
    """The same rows of records."""
    return [(r.station_id, r.timestamp, r.timestamp.toordinal(), r.fuel_type,
             r.payment_mode, r.price) for r in records]


def _parsed(path):
    """The reference parser's records of a store file's complete lines."""
    return _reference_parse(_complete_text(path), str(path))[0]


def _complete_text(path):
    """A store file's complete lines, decoded."""
    text = path.read_bytes().decode()
    return text[:text.rfind("\n") + 1]


def _cells(panel):
    """The station-day panel's rows as cells."""
    return [Cell(panel.station_ids[s], dt.date.fromordinal(d), p, n)
            for s, d, p, n in zip(panel.station.tolist(), panel.day.tolist(),
                                  panel.price.tolist(), panel.n_prices.tolist())]


def _panel(cells, stations):
    """The registered stations' cells as a station-day panel, in the given
    order."""
    cells = [c for c in cells if c.station_id in stations]
    ids = sorted({c.station_id for c in cells})
    return StationDayColumns(
        ids, np.array([ids.index(c.station_id) for c in cells], dtype=np.intp),
        np.array([c.day.toordinal() for c in cells], dtype=np.int64),
        np.array([c.price for c in cells], dtype=float),
        np.array([c.n_prices for c in cells], dtype=np.int64))


class TestProxyPool:
    def test_round_robin(self):
        a, b = ProxyEndpoint("a:1"), ProxyEndpoint("b:1")
        pool = ProxyPool([a, b])
        order = [pool.next().address for _ in range(3)]
        assert order == ["a:1", "b:1", "a:1"]

    def test_skips_failed(self):
        a = ProxyEndpoint("a:1", failure_count=3)
        b = ProxyEndpoint("b:1")
        pool = ProxyPool([a, b])
        for _ in range(4):
            assert pool.next().address == "b:1"

    def test_even_split_over_healthy_pool(self):
        eps = [ProxyEndpoint(f"p{i}:1") for i in range(4)]
        pool = ProxyPool(eps)
        counts = {ep.address: 0 for ep in eps}
        for _ in range(100):
            counts[pool.next().address] += 1
        assert set(counts.values()) == {25}

    def test_failure_threshold_then_exhausted(self):
        a = ProxyEndpoint("a:1")
        pool = ProxyPool([a], failure_threshold=2)
        for _ in range(2):
            pool.fail(pool.next())
        with pytest.raises(PoolExhaustedError):
            pool.next()


class TestParse:
    def test_happy_path(self):
        raw = "\n".join([obs(price=2.1).line(), obs(hour=13).line(),
                         obs(day=11).line()])
        records, quarantined = parse_price_record(raw, "mock://p")
        assert len(records) == 3
        assert not quarantined
        assert records.price[0] == 2.1
        with pytest.raises(ParseError, match="mock://p"):
            parse_price_record(raw + "\nst1|only|three", "mock://p")

    def test_price_below_band_quarantined(self):
        records, quarantined = parse_price_record(obs(price=0.05).line())
        assert not len(records)
        assert quarantined[0][1] == "below plausibility band"

    def test_unknown_fuel_quarantined(self):
        line = "st1|2017-01-10T12:00:00|Jetfuel|Credit|2.100"
        records, quarantined = parse_price_record(line)
        assert not len(records)
        assert "unknown fuel type" in quarantined[0][1]

    @pytest.mark.parametrize("fields, reason", [
        ("Jetfuel|Credit|2.100", "unknown fuel type 'Jetfuel'"),
        ("Regular|Barter|2.100", "unknown payment mode 'Barter'"),
        ("Jetfuel|Barter|2.100", "unknown fuel type 'Jetfuel'"),
        ("Jetfuel|Credit|99.0", "unknown fuel type 'Jetfuel'"),
        ("Regular|Barter|0.05", "unknown payment mode 'Barter'"),
        ("Regular|Credit|0.500", "below plausibility band"),
        ("Regular|Credit|-inf", "below plausibility band"),
        ("Regular|Credit|10.000", "above plausibility band"),
        ("Regular|Credit|inf", "above plausibility band"),
        ("Regular|Credit|nan", "above plausibility band"),
    ])
    def test_quarantine_reason(self, fields, reason):
        line = "st1|2017-01-10T12:00:00|" + fields
        kept = obs().line()
        records, quarantined = parse_price_record(f"{kept}\n {line} \n{kept}")
        assert quarantined == [(line, reason)] == _reference_parse(line)[1]
        assert records.price.tolist() == [2.3, 2.3]

    def test_structural_error_raises(self):
        with pytest.raises(ParseError):
            parse_price_record("st1|only|three")
        with pytest.raises(ParseError):
            parse_price_record("st1|notadate|Regular|Credit|2.1")

    def test_corpus_count_matches_generator(self, tmp_path):
        truth = make_mock_corpus(1, tmp_path)
        total = 0
        quarantined = 0
        for page in sorted((tmp_path / "pages").iterdir()):
            recs, quar = parse_price_record(page.read_text(), page.name)
            total += len(recs)
            quarantined += len(quar)
        assert total == truth.total_records + truth.planted_duplicates
        assert quarantined == truth.quarantined

    def test_lines_are_canonical(self):
        records = parse_price_record("st1|2017-01-10 12:00|Regular|Credit|2.1\n"
                                     "st2|2017-01-10T12:00:00+01:00|Diesel|Cash|2.25")[0]
        assert records.lines() == ["st1|2017-01-10T12:00:00|Regular|Credit|2.100",
                                   "st2|2017-01-10T12:00:00+01:00|Diesel|Cash|2.250"]

    def test_mixed_naive_and_aware_timestamps_fail_to_sort(self):
        records = parse_price_record("st1|2017-01-10T12:00:00|Regular|Credit|2.1\n"
                                     "st1|2017-01-10T13:00:00+00:00|Regular|Credit|2.2")[0]
        assert len(records) == 2
        with pytest.raises(TypeError):
            records.sort_order()


class TestStore:
    def test_dedup_first_seen_wins(self, tmp_path):
        store = ObservationStore(tmp_path / "s.psv")
        assert store.add(_records(obs(price=2.0)))
        assert not store.add(_records(obs(price=9.0)))  # same key, different price
        assert _rows(store.load()) == _record_rows([obs(price=2.0)])

    def test_persistent_index(self, tmp_path):
        store = ObservationStore(tmp_path / "s.psv")
        store.add(_records(obs()))
        reopened = ObservationStore(tmp_path / "s.psv")
        assert not reopened.add(_records(obs()))
        assert len(reopened) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["s.psv"]

    def test_page_dedup_within_and_across_calls(self, tmp_path):
        store = ObservationStore(tmp_path / "s.psv")
        assert store.add(_records(obs(price=2.0), obs(hour=13), obs(price=9.0))) == 2
        assert store.add(_records(obs(hour=13), obs(hour=14))) == 1
        assert store.add(_records()) == 0
        assert _rows(store.load()) == _record_rows([obs(price=2.0), obs(hour=13),
                                                    obs(hour=14)])
        assert len(store) == 3

    def test_non_canonical_spelling_stored_canonically(self, tmp_path):
        path = tmp_path / "s.psv"
        store = ObservationStore(path)
        page = "st1|2017-01-10 12:00:00|Regular|Credit|2.1\n"
        assert store.add(parse_price_record(page)[0]) == 1
        canonical = "st1|2017-01-10T12:00:00|Regular|Credit|2.100\n"
        assert path.read_text() == canonical
        assert store.add(parse_price_record(canonical)[0]) == 0
        assert ObservationStore(path).add(parse_price_record(canonical)[0]) == 0
        assert path.read_text() == canonical

    def test_non_canonical_store_line_not_stored_again(self, tmp_path):
        path = tmp_path / "s.psv"
        path.write_text("st1|2017-01-10 12:00:00|Regular|Credit|2.1\n")
        store = ObservationStore(path)
        assert store.add(_records(obs(price=2.1))) == 0
        assert read_store(path).price.size == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_open_keys_each_line_by_its_canonical_key(self, tmp_path, seed):
        path = tmp_path / "s.psv"
        _random_store(path, seed, _stations())
        records, quarantined = _reference_parse(_complete_text(path))
        store = ObservationStore(path)
        assert store._seen == ({r.line().rpartition("|")[0] for r in records}
                               | {line.rpartition("|")[0] for line, _ in quarantined})
        data = path.read_bytes()
        assert store.add(_records(*records)) == 0
        assert path.read_bytes() == data

    @pytest.mark.parametrize("bad", ["st1|2017-01-10T12:00:00|Regular|Credit",
                                     "st1|2017-01-10T12:00:00|Regular|Credit|2.100|x",
                                     "st1|2017-13-10T12:00:00|Regular|Credit|2.100",
                                     "st1|2017-01-10T12:00:00|Jetfuel|Credit|two"])
    def test_open_raises_the_parse_error_of_a_malformed_line(self, tmp_path, bad):
        path = tmp_path / "s.psv"
        text = obs().line() + "\n" + bad + "\n" + obs(hour=13).line() + "\n"
        path.write_text(text)
        with pytest.raises(ParseError) as expected:
            read_store(path)
        with pytest.raises(ParseError) as got:
            ObservationStore(path)
        assert str(got.value) == str(expected.value)
        assert path.read_text() == text

    def test_torn_tail_ignored_then_cut(self, tmp_path):
        path = tmp_path / "s.psv"
        complete = obs().line() + "\n" + obs(hour=13).line() + "\n"
        tail = obs(hour=14).line()[:17]
        path.write_text(complete + tail)
        store = ObservationStore(path)
        assert store.torn_bytes == len(tail)
        assert len(store) == 2
        assert _rows(store.load()) == _record_rows([obs(), obs(hour=13)])
        assert store.add(_records(obs(hour=13), obs(hour=15))) == 1
        assert path.read_text() == complete + obs(hour=15).line() + "\n"
        assert ObservationStore(path).torn_bytes == 0

    def test_read_store_matches_load_on_torn_tail(self, tmp_path):
        path = tmp_path / "s.psv"
        path.write_text(obs().line() + "\n" + obs(hour=13).line() + "\n"
                        + obs(hour=14).line()[:17])
        assert _rows(read_store(path)) == _rows(ObservationStore(path).load()) \
            == _record_rows([obs(), obs(hour=13)])
        assert read_store(tmp_path / "absent.psv").price.size == 0

    def test_failed_write_is_undone_by_next_add(self, tmp_path, monkeypatch):
        class TornFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def truncate(self, size):
                return self.fh.truncate(size)

            def write(self, data):
                self.fh.write(data[:10])
                raise OSError("disk full")

        store = ObservationStore(tmp_path / "s.psv")
        store.add(_records(obs()))
        monkeypatch.setattr(ingest, "open", lambda *a: TornFile(open(*a)), raising=False)
        with pytest.raises(StoreWriteError):
            store.add(_records(obs(hour=13), obs(hour=14)))
        monkeypatch.delattr(ingest, "open")
        assert (tmp_path / "s.psv").stat().st_size == len(obs().line()) + 1 + 10
        assert store.add(_records(obs(hour=14))) == 1
        lines = (tmp_path / "s.psv").read_text().split("\n")
        assert lines == [obs().line(), obs(hour=14).line(), ""]
        assert _rows(store.load()) == _record_rows([obs(), obs(hour=14)])


def _readable(stamp: str) -> bool:
    """Whether this Python's ``fromisoformat`` reads the timestamp."""
    try:
        dt.datetime.fromisoformat(stamp)
    except ValueError:
        return False
    return True


def _stamp_spellings(ts: dt.datetime) -> list:
    """A timestamp spelled canonically (first) and in the other ways this
    Python's ``fromisoformat`` reads (3.11 reads more than 3.10), some of
    them 19 characters long."""
    year, week, weekday = ts.isocalendar()
    minutes = ts.isoformat(timespec="minutes")
    spellings = [ts.isoformat(), ts.isoformat(sep=" "), minutes, ts.isoformat() + "Z",
                 ts.isoformat() + "+01:00", minutes + "+01",
                 ts.isoformat(timespec="microseconds"),
                 f"{year:04d}-W{week:02d}-{weekday}T{ts.time().isoformat()}"]
    return [spelling for spelling in spellings if _readable(spelling)]


def _price_spellings(thousandths: int) -> list:
    """A price in the band spelled canonically (first) and in other ways
    ``float`` reads, some of them 5 characters long."""
    canonical = f"{thousandths / 1000:.3f}"
    arabic = canonical.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return [canonical, f"{thousandths / 1000:.1f}", "0" + canonical, canonical + "0", arabic,
            f"{round(thousandths / 1000)}e000", f"0{thousandths / 1000:.2f}"]


_records_to_spell = st.lists(st.tuples(
    st.sampled_from(["st1", "st2", "st 3"]),
    st.datetimes(dt.datetime(1990, 1, 1), dt.datetime(2030, 12, 31)).map(
        lambda ts: ts.replace(microsecond=0)),
    st.sampled_from(FUEL_TYPES), st.sampled_from(PAYMENT_MODES),
    st.integers(501, 9999), st.booleans()), max_size=20)
# Which spelling the odd rows of a page take: (timestamp, price), as indexes
# into the spelling lists, 0 for canonical.
_spellings = st.one_of(st.tuples(st.integers(0, 7), st.just(0)),
                       st.tuples(st.just(0), st.integers(0, 6)),
                       st.tuples(st.integers(0, 7), st.integers(0, 6)))
_ONE_ODD_ROW = [("st1", dt.datetime(2017, 1, 17, 6, 50), "Regular", "Credit", 2617, True)]


def _each_odd_spelling(test):
    """Runs the test on one odd row in each spelling, then on random pages."""
    for spelling in [(i, 0) for i in range(1, 8)] + [(0, j) for j in range(1, 7)]:
        test = example(_ONE_ODD_ROW, spelling)(test)
    return test


class TestCanonicalLines:
    """``lines`` reuses a page's own lines only when they are canonical."""

    @_each_odd_spelling
    @given(_records_to_spell, _spellings)
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_record_line_of_each_row(self, tmp_path_factory, records, spelling):
        """Each page spells the timestamps and prices of some rows one way
        (if this Python reads it) and every other row canonically."""
        lines, canonical = [], True
        stamp, price = spelling
        for station, ts, fuel, mode, thousandths, odd in records:
            stamps, prices = _stamp_spellings(ts), _price_spellings(thousandths)
            spelled = (stamps[stamp % len(stamps)], prices[price]) if odd else \
                (stamps[0], prices[0])
            if PRICE_BAND[0] < float(spelled[1]) < PRICE_BAND[1]:  # a kept row
                canonical &= spelled == (stamps[0], prices[0])
            lines.append("|".join([station, spelled[0], fuel, mode, spelled[1]]))
        cols = parse_price_record("\n".join(lines))[0]
        expected = [record_line(*row[:2], *row[3:]) for row in _rows(cols)]
        assert cols.lines() == expected
        assert (cols.lines() is cols.source) == canonical
        path = tmp_path_factory.mktemp("store") / "s.psv"
        path.touch()
        first = {}
        for line in expected:
            first.setdefault(line.rpartition("|")[0], line)
        assert ObservationStore(path).add(cols) == len(first)
        assert path.read_text() == "".join(line + "\n" for line in first.values())
        assert ObservationStore(path).add(cols) == 0

    def test_mock_corpus_ingest_formats_no_line(self, tmp_path, monkeypatch):
        truth = make_mock_corpus(3, tmp_path / "data")
        source = MockSource.from_directory(tmp_path / "data" / "pages")
        plan = CollectionPlan(urls=sorted(source.pages))
        calls = []
        monkeypatch.setattr(ingest, "record_line",
                            lambda *row: calls.append(row) or record_line(*row))
        path = tmp_path / "s.psv"
        stored = [run_collection(plan, source, ProxyPool([ProxyEndpoint("a:1")]),
                                 ObservationStore(path)).stored for _ in range(2)]
        assert stored == [truth.unique_records, 0]
        assert calls == []

        page = obs(hour=15).line() + "\nst1|2017-01-10 16:00|Regular|Credit|2.3\n"
        end = path.stat().st_size
        assert ObservationStore(path).add(parse_price_record(page)[0]) == 2
        assert len(calls) == 2
        assert path.read_text()[end:] == _text([obs(hour=15), obs(hour=16)])

    def test_source_lines_are_the_kept_lines_until_take(self):
        kept = [obs().line(), obs(hour=13).line()]
        page = "\n".join([kept[0], "st1|2017-01-10T14:00:00|Jetfuel|Credit|2.100", kept[1]])
        records, quarantined = parse_price_record(page)
        assert records.source == kept and len(quarantined) == 1
        assert records.take(np.arange(2)).source is None
        assert filter_observations(records).source is None


class _ProxyDown:
    """Wraps a source whose proxy fails every fetch of the given URLs."""

    def __init__(self, inner, urls):
        self.inner, self.urls = inner, urls

    def fetch(self, url, proxy=None):
        if url in self.urls:
            raise ProxyError(f"proxy {proxy.address} dropped {url}")
        return self.inner.fetch(url, proxy=proxy)


class _SlowSource:
    """Wraps a source with latency and records concurrent fetches."""

    def __init__(self, inner, delay=0.02):
        self.inner = inner
        self.delay = delay
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0

    def fetch(self, url, proxy=None):
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        try:
            time.sleep(self.delay)
            return self.inner.fetch(url, proxy=proxy)
        finally:
            with self._lock:
                self._active -= 1


class _LateFirstSource:
    """Wraps a source so that the first ``width`` plan URLs return in reverse
    order: each one's fetch returns only after the next one's has returned.
    They must all be in flight at once."""

    def __init__(self, inner, urls, width=4):
        self.inner = inner
        self.next_url = dict(zip(urls[:width - 1], urls[1:width]))
        self.returned = {url: threading.Event() for url in urls[:width]}

    def fetch(self, url, proxy=None):
        try:
            if url in self.next_url:
                assert self.returned[self.next_url[url]].wait(10)
            return self.inner.fetch(url, proxy=proxy)
        finally:
            if url in self.returned:
                self.returned[url].set()


class _FailingStore(ObservationStore):
    """A store whose ``fail_at``-th append raises StoreWriteError."""

    def __init__(self, path, fail_at):
        super().__init__(path)
        self.fail_at, self.calls = fail_at, 0

    def add(self, records):
        self.calls += 1
        if self.calls == self.fail_at:
            raise StoreWriteError("disk full")
        return super().add(records)


class TestRunCollection:
    def _pool(self):
        return ProxyPool([ProxyEndpoint("a:1"), ProxyEndpoint("b:1")],
                         failure_threshold=1000)

    def _pages(self, n=10):
        return {f"mock://h/p{i}": obs(station=f"st{i}").line() + "\n"
                for i in range(n)}

    @pytest.mark.parametrize("setting", [{"max_in_flight": 0}, {"retries": -1}],
                             ids=["max_in_flight", "retries"])
    def test_plan_rejects_out_of_range_setting(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            CollectionPlan(urls=["mock://h/p0"], **setting)

    def _late_first(self, store, pages=None, always_fail=()):
        """Collect 8 pages of two records each at max_in_flight=4, the first
        four returning in reverse order (``pages`` overrides some); returns
        the report, the URLs in plan order and each URL's records."""
        urls = [f"mock://h/p{i}" for i in range(8)]
        records = {url: [obs(station=f"st{i}"), obs(station=f"st{i}", hour=13)]
                   for i, url in enumerate(urls)}
        source = MockSource({**{url: _text(records[url]) for url in urls}, **(pages or {})},
                            always_fail=set(always_fail))
        report = run_collection(CollectionPlan(urls=urls, max_in_flight=4),
                                _LateFirstSource(source, urls), self._pool(), store)
        return report, urls, records

    def test_store_lines_in_plan_order(self, tmp_path):
        report, urls, records = self._late_first(ObservationStore(tmp_path / "s.psv"))
        assert (report.fetched, report.stored) == (8, 16)
        assert (tmp_path / "s.psv").read_bytes() == "".join(
            _text(records[u]) for u in urls).encode()

    def test_errors_in_plan_order(self, tmp_path):
        report, urls, _ = self._late_first(
            ObservationStore(tmp_path / "s.psv"),
            pages={"mock://h/p2": "not|a record\n"}, always_fail={"mock://h/p1"})
        assert report.failed == 2
        assert [url for url, _ in report.errors] == urls[1:3]
        assert "server error" in report.errors[0][1]
        assert "expected 5 fields" in report.errors[1][1]

    def test_failed_append_stores_a_prefix(self, tmp_path):
        report, urls, records = self._late_first(_FailingStore(tmp_path / "s.psv", fail_at=3))
        assert report.aborted
        assert (report.fetched, report.stored) == (3, 4)
        assert report.errors == [(urls[2], "disk full")]
        assert (tmp_path / "s.psv").read_bytes() == "".join(
            _text(records[u]) for u in urls[:2]).encode()

    def test_all_pages_stored_concurrency_bounded(self, tmp_path):
        source = _SlowSource(MockSource(self._pages(10)))
        plan = CollectionPlan(urls=sorted(source.inner.pages), max_in_flight=3)
        report = run_collection(plan, source, self._pool(),
                                ObservationStore(tmp_path / "s.psv"))
        assert report.fetched == 10
        assert report.stored == 10
        assert source.peak <= 3
        assert report.peak_in_flight <= 3
        assert [p.name for p in tmp_path.iterdir()] == ["s.psv"]

    def test_retry_contract(self, tmp_path):
        pages = self._pages(10)
        bad = sorted(pages)[7]
        source = MockSource(pages, always_fail={bad})
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=2, retries=2)
        report = run_collection(plan, source, self._pool(),
                                ObservationStore(tmp_path / "s.psv"))
        assert report.failed == 1
        assert report.attempts[bad] == 3
        assert report.fetched == 9

    def test_transient_failure_recovers(self, tmp_path):
        pages = self._pages(5)
        flaky = sorted(pages)[2]
        source = MockSource(pages, transient_failures={flaky: 1})
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=2, retries=2)
        report = run_collection(plan, source, self._pool(),
                                ObservationStore(tmp_path / "s.psv"))
        assert report.failed == 0
        assert report.fetched == 5
        assert report.attempts[flaky] == 2

    def test_cross_page_duplicate_dropped(self, tmp_path):
        record = obs().line() + "\n"
        pages = {"mock://h/a": record, "mock://h/b": record}
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=1)
        report = run_collection(plan, MockSource(pages), self._pool(),
                                ObservationStore(tmp_path / "s.psv"))
        assert report.duplicates_dropped == 1
        assert report.stored == 1

    def test_idempotent_rerun(self, tmp_path):
        pages = self._pages(6)
        store = ObservationStore(tmp_path / "s.psv")
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=2)
        run_collection(plan, MockSource(pages), self._pool(), store)
        first = (tmp_path / "s.psv").read_bytes()
        report = run_collection(plan, MockSource(pages), self._pool(), store)
        assert report.stored == 0
        assert report.duplicates_dropped == 6
        assert (tmp_path / "s.psv").read_bytes() == first

    def test_per_host_delay_enforced(self, tmp_path):
        pages = self._pages(4)
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=4,
                              per_host_delay_ms=30)
        t0 = time.monotonic()
        run_collection(plan, MockSource(pages), self._pool(),
                       ObservationStore(tmp_path / "s.psv"))
        assert time.monotonic() - t0 >= 0.09  # 4 same-host requests, 3 gaps

    def test_store_write_failure_aborts(self, tmp_path):
        class BrokenStore(ObservationStore):
            def add(self, records):
                raise StoreWriteError("disk full")

        pages = self._pages(5)
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=2)
        report = run_collection(plan, MockSource(pages), self._pool(),
                                BrokenStore(tmp_path / "s.psv"))
        assert report.aborted

    def test_counts_hold_with_more_workers_than_cores(self, tmp_path):
        pages = {f"mock://h{i % 3}/p{i}": obs(station=f"st{i}").line() + "\n"
                 + obs(station=f"st{i % 7}", hour=3).line() + "\n" for i in range(120)}
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_collection(plan, MockSource(pages), self._pool(),
                                    ObservationStore(tmp_path / "s.psv"))
        finally:
            sys.setswitchinterval(interval)
        assert (report.fetched, report.parsed, report.stored) == (120, 240, 127)
        assert report.duplicates_dropped == 113
        assert sum(report.attempts.values()) == 120
        assert len(ObservationStore(tmp_path / "s.psv")) == 127

    def test_url_failures_spare_the_proxy(self, tmp_path):
        pages = self._pages(5)
        bad = sorted(pages)[0]
        endpoint = ProxyEndpoint("a:1")
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=1, retries=2)
        report = run_collection(plan, MockSource(pages, always_fail={bad}),
                                ProxyPool([endpoint]), ObservationStore(tmp_path / "s.psv"))
        assert not report.aborted
        assert (report.fetched, report.failed, report.attempts[bad]) == (4, 1, 3)
        assert endpoint.failure_count == 0

    def test_exhausted_pool_aborts(self, tmp_path):
        pages = self._pages(20)
        urls = sorted(pages)
        source = _ProxyDown(MockSource(pages), set(urls[:3]))
        plan = CollectionPlan(urls=urls, max_in_flight=4, retries=0)
        report = run_collection(plan, source, ProxyPool([ProxyEndpoint("a:1")]),
                                ObservationStore(tmp_path / "s.psv"))
        assert report.aborted
        assert str(PoolExhaustedError("all proxy endpoints have failed")) in \
            [message for _, message in report.errors]
        assert len(report.attempts) < len(urls)

    def test_unexpected_store_error_propagates(self, tmp_path):
        class FaultyStore(ObservationStore):
            def add(self, records):
                raise RuntimeError("store bug")

        pages = self._pages(5)
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=2)
        with pytest.raises(RuntimeError, match="store bug"):
            run_collection(plan, MockSource(pages), self._pool(),
                           FaultyStore(tmp_path / "s.psv"))

    def test_duplicate_urls_normalized(self):
        plan = CollectionPlan(urls=["u1", "u2", "u1", " u2 "])
        assert plan.urls == ["u1", "u2"]


class TestFilterAndAggregate:
    def test_mode_filter(self, tmp_path):
        records = [obs(hour=h) for h in range(10)] + [obs(mode="Cash", hour=11)]
        assert filter_observations(_columns(tmp_path / "s.psv", records), None).price.size == 10

    def test_all_cash_empty(self, tmp_path):
        cash = _columns(tmp_path / "s.psv", [obs(mode="Cash")])
        assert filter_observations(cash).price.size == 0

    def test_fuel_filter_default_regular(self, tmp_path):
        records = [obs(fuel="Regular"), obs(fuel="Diesel", hour=13)]
        kept = _rows(filter_observations(_columns(tmp_path / "s.psv", records)))
        assert len(kept) == 1 and kept[0][3] == "Regular"

    def test_generator_counts(self, tmp_path):
        truth = make_mock_corpus(2, tmp_path)
        store = ObservationStore(tmp_path / "s.psv")
        for page in (tmp_path / "pages").iterdir():
            recs, _ = parse_price_record(page.read_text())
            store.add(recs)  # dedup as ingest does
        assert filter_observations(store.load()).price.size == truth.credit_regular


def _stations():
    return {
        "st1": Station("st1", GeoPoint(40.0, -100.0), "c", "10001", "10"),
        "st2": Station("st2", GeoPoint(40.1, -100.1), "c", "10001", "10"),
        "st3": Station("st3", GeoPoint(44.0, -90.0), "c", "11001", "11"),
    }


class TestAggregateDaily:
    def test_mean_of_two(self, tmp_path):
        cols = _columns(tmp_path / "s.psv", [obs(price=2.00), obs(price=2.10, hour=14)])
        panel, orphan = aggregate_daily(cols, _stations())
        assert not orphan.any()
        (cell,) = _cells(panel)
        assert cell.price == pytest.approx(2.05)
        assert cell.n_prices == 2

    def test_single_observation_identity(self, tmp_path):
        panel, _ = aggregate_daily(_columns(tmp_path / "s.psv", [obs(price=2.34)]), _stations())
        assert panel.price.tolist() == [2.34]

    def test_orphan_station_skipped(self, tmp_path):
        cols = _columns(tmp_path / "s.psv", [obs(station="ghost")])
        panel, orphan = aggregate_daily(cols, _stations())
        assert panel.price.size == 0
        assert [cols.station_ids[s] for s in cols.station[orphan]] == ["ghost"]

    def test_matches_group_by_oracle(self, tmp_path):
        rng = np.random.default_rng(7)
        records = []
        for _ in range(200):
            records.append(obs(station=f"st{rng.integers(1, 4)}",
                               day=int(rng.integers(10, 15)),
                               hour=int(rng.integers(0, 24)),
                               price=float(f"{rng.uniform(2, 3):.3f}")))
        # drop key collisions the store would have removed
        unique = {}
        for r in records:
            unique.setdefault(r.line().rpartition("|")[0], r)
        records = list(unique.values())
        panel, _ = aggregate_daily(_columns(tmp_path / "s.psv", records), _stations())
        oracle = {}
        for r in records:
            oracle.setdefault((r.station_id, r.timestamp.date()), []).append(r.price)
        cells = _cells(panel)
        assert {(c.station_id, c.day) for c in cells} == set(oracle)
        for cell in cells:
            assert cell.price == pytest.approx(
                np.mean(oracle[(cell.station_id, cell.day)]), abs=1e-12)

    def test_order_invariance(self, tmp_path):
        rng = np.random.default_rng(8)
        records = [obs(station=f"st{1 + i % 3}", day=10 + i % 3, hour=i % 24,
                       price=float(rng.uniform(2, 3))) for i in range(50)]
        cells_a = _cells(aggregate_daily(_columns(tmp_path / "a.psv", records),
                                         _stations())[0])
        shuffled = [records[i] for i in rng.permutation(len(records))]
        cells_b = _cells(aggregate_daily(_columns(tmp_path / "b.psv", shuffled),
                                         _stations())[0])
        assert len(cells_a) == len(cells_b)
        for a, b in zip(cells_a, cells_b):
            assert a.station_id == b.station_id and a.day == b.day
            assert a.price == pytest.approx(b.price, abs=1e-12)


class TestAggregateCounty:
    def _aggregate(self, cells):
        return aggregate_county(_panel(cells, _stations()), _stations())

    def test_flat_mean(self):
        fips, means = self._aggregate([Cell("st1", dt.date(2017, 1, 10), 2.0, 1),
                                       Cell("st2", dt.date(2017, 1, 10), 3.0, 1)])
        assert fips == ["10001"] and means.tolist() == [2.5]

    def test_county_without_stations_absent(self):
        fips, means = self._aggregate([Cell("st1", dt.date(2017, 1, 10), 2.0, 1)])
        assert fips == ["10001"] and means.size == 1

    def test_mean_matches_panel_restriction(self):
        rng = np.random.default_rng(9)
        panel = [Cell(f"st{1 + i % 3}", dt.date(2017, 1, 10 + i % 4),
                      float(rng.uniform(2, 3)), 1) for i in range(40)]
        fips, means = self._aggregate(panel)
        stations = _stations()
        assert fips == ["10001", "11001"]
        for code, mean in zip(fips, means.tolist()):
            prices = [r.price for r in panel if stations[r.station_id].county_fips == code]
            assert mean == pytest.approx(np.mean(prices), abs=1e-12)


def _record_order(o):
    return (o.station_id, o.timestamp, o.fuel_type, o.payment_mode)


def _object_daily(obs, stations):
    """The per-record station-day means: a dict of price lists and one
    ``np.mean`` per cell; the oracle for the columnar path."""
    cells, orphans = {}, []
    for o in obs:
        if o.station_id not in stations:
            orphans.append(o.station_id)
            continue
        cells.setdefault((o.station_id, o.timestamp.date()), []).append(o.price)
    rows = [Cell(sid, day, float(np.mean(prices)), len(prices))
            for (sid, day), prices in sorted(cells.items())]
    return rows, orphans


def _object_county(panel, stations):
    """The per-row county means, grouped with dicts; the oracle for
    ``aggregate_county``: (fips, mean, number of rows) per county."""
    by_county = {}
    for row in panel:
        if row.station_id in stations:
            by_county.setdefault(stations[row.station_id].county_fips, []).append(row.price)
    return [(fips, float(np.mean(prices)), len(prices))
            for fips, prices in sorted(by_county.items())]


def _random_store(path, seed, registered):
    """A store file as ingest and crashes leave it: shuffled lines, blank and
    padded lines, CRLF endings, records to quarantine, unregistered stations,
    one timestamp in three spellings, a busy station-day of 12 prices and a
    torn final line."""
    rng = np.random.default_rng(seed)
    ids = list(registered) + ["ghost1", "ghost2"]
    fuels, modes = list(FUEL_TYPES) + ["Jetfuel"], list(PAYMENT_MODES) + ["Barter"]
    lines = {}

    def add(station, ts, fuel, mode, price):
        lines.setdefault(f"{station}|{ts}|{fuel}|{mode}", f"{price:.3f}")

    for _ in range(400):
        ts = dt.datetime(2017, 1, int(rng.integers(10, 14)), int(rng.integers(0, 24)),
                         int(rng.integers(0, 60)), int(rng.choice([0, 30])))
        add(ids[rng.integers(len(ids))], ts.isoformat(), fuels[rng.integers(5)],
            modes[rng.integers(4)], float(rng.uniform(0.3, 10.5)))
    noon = dt.datetime(2017, 1, 12, 12)
    for spelling in (noon.isoformat(), noon.isoformat(timespec="minutes"),
                     noon.isoformat(sep=" ")):
        add(ids[0], spelling, "Regular", "Credit", float(rng.uniform(2, 3)))
    for minute in range(12):
        add(ids[1], noon.replace(minute=minute).isoformat(), "Regular", "Credit",
            float(rng.uniform(2, 3)))
    text = [key + "|" + price for key, price in lines.items()]
    text = [text[i] for i in rng.permutation(len(text))]
    text = [pad for i, line in enumerate(text)
            for pad in ([" "] if i % 29 == 0 else []) + [f"  {line} " if i % 17 == 0 else line]]
    ends = ["\r\n" if i % 13 == 0 else "\n" for i in range(len(text))]
    path.write_text("".join(line + end for line, end in zip(text, ends)) + "st1|2017-01-1",
                    newline="")


class TestReadStoreColumns:
    """The columnar parse, read, filter and station-day means against the
    records the reference parser makes of the file's complete lines,
    filtered, sorted and averaged with a dict of lists."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("block", [7, 4096])
    def test_parse_matches_reference(self, tmp_path, monkeypatch, seed, block):
        monkeypatch.setattr(ingest, "_BLOCK_LINES", block)
        path = tmp_path / "s.psv"
        _random_store(path, seed, _stations())
        text = path.read_bytes().decode()
        text = text[:text.rfind("\n") + 1]
        records, quarantined = _reference_parse(text, "mock://p")
        got, got_quarantined = parse_price_record(text, "mock://p")
        assert _rows(got) == _rows(read_store(path)) == _record_rows(records)
        assert got_quarantined == quarantined
        reasons = {reason.split(" '")[0] for _, reason in quarantined}
        assert reasons == {"unknown fuel type", "unknown payment mode",
                           "below plausibility band", "above plausibility band"}
        assert any("|Jetfuel|Barter|" in line for line, _ in quarantined)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fuel", ["Regular", None])
    def test_matches_object_path(self, tmp_path, seed, fuel):
        stations = _stations()
        path = tmp_path / "s.psv"
        _random_store(path, seed, stations)
        obs = sorted((o for o in _parsed(path)
                      if o.payment_mode == "Credit" and fuel in (None, o.fuel_type)),
                     key=_record_order)
        cols = filter_observations(read_store(path), fuel)
        cols = cols.take(cols.sort_order())
        assert [cols.station_ids[s] for s in cols.station] == [o.station_id for o in obs]
        assert cols.timestamp.tolist() == [o.timestamp for o in obs]
        assert cols.day.tolist() == [o.timestamp.toordinal() for o in obs]
        assert cols.price.tolist() == [o.price for o in obs]

        panel, orphan = aggregate_daily(cols, stations)
        rows, orphans = _object_daily(obs, stations)
        assert max(r.n_prices for r in rows) >= 8
        assert orphans and [cols.station_ids[s] for s in cols.station[orphan]] == orphans
        assert _cells(panel) == rows

    def test_equal_instants_keep_store_order(self, tmp_path):
        path = tmp_path / "s.psv"
        path.write_text("st1|2017-01-10T13:00:00+01:00|Regular|Credit|2.100\n"
                        "st1|2017-01-10T11:30:00+00:00|Regular|Credit|2.200\n"
                        "st1|2017-01-10T12:00:00+00:00|Regular|Credit|2.300\n")
        cols = read_store(path)
        cols = cols.take(cols.sort_order())
        obs = sorted(_parsed(path), key=_record_order)
        assert cols.price.tolist() == [o.price for o in obs] == [2.2, 2.1, 2.3]

    @pytest.mark.parametrize("bad", ["st1|2017-01-10T12:00:00|Regular|Credit",
                                     "st1|2017-01-10T12:00:00|Regular|Credit|2.1|x",
                                     "st1|2017-13-10T12:00:00|Regular|Credit|2.1",
                                     "st1|2017-01-10T12:00:00|Jetfuel|Credit|two"])
    def test_malformed_line_raises_the_same_parse_error(self, tmp_path, bad):
        path = tmp_path / "s.psv"
        path.write_text(obs().line() + "\n" + bad + "\n" + obs(hour=13).line()
                        + "\n")
        with pytest.raises(ParseError) as expected:
            _parsed(path)
        with pytest.raises(ParseError) as got:
            read_store(path)
        with pytest.raises(ParseError) as page:
            parse_price_record(path.read_text(), str(path))
        assert str(got.value) == str(page.value) == str(expected.value)
        assert repr(bad) in str(got.value) and str(path) in str(got.value)

    def test_first_bad_line_is_named(self):
        text = "\n".join([obs().line(), "st1|2017-13-10T12:00:00|Regular|Credit|2.1",
                          "st1|2017-01-10T12:00:00|Regular"])
        with pytest.raises(ParseError) as expected:
            _reference_parse(text)
        with pytest.raises(ParseError) as got:
            parse_price_record(text)
        assert str(got.value) == str(expected.value)
        assert "bad field in line 'st1|2017-13-10T12:00:00" in str(got.value)

    def test_empty_and_absent_store(self, tmp_path):
        (tmp_path / "s.psv").write_text("st1|2017-01-1")
        for path in (tmp_path / "s.psv", tmp_path / "absent.psv"):
            cols = read_store(path)
            assert cols.price.size == 0 and cols.station_ids == []
            panel, orphan = aggregate_daily(cols, _stations())
            assert panel.price.size == 0 and orphan.size == 0


class TestCountyMeans:
    """``aggregate_county`` against dict grouping."""

    def test_matches_dict_grouping(self):
        rng = np.random.default_rng(11)
        stations = {f"s{i:02d}": Station(f"s{i:02d}", GeoPoint(40 + i / 10, -100), "c",
                                         f"1000{i % 3}", "10") for i in range(20)}
        panel = [Cell(f"s{rng.integers(0, 22):02d}",
                      dt.date(2017, 1, int(rng.integers(10, 15))),
                      float(rng.uniform(2, 3)), 1) for _ in range(300)]
        fips, means = aggregate_county(_panel(panel, stations), stations)
        want = _object_county(panel, stations)
        # Cells of 8 or more rows take cell_means' np.mean branch.
        assert want and min(n for _, _, n in want) >= 8
        assert list(zip(fips, means.tolist())) == [(f, m) for f, m, _ in want]

    def test_columns_in_panel_order(self):
        panel = StationDayColumns(["st1", "st3"], np.array([0, 1, 0]),
                                  np.array([736339, 736339, 736340]),
                                  np.array([2.0, 3.0, 2.5]), np.ones(3, dtype=int))
        fips, means = aggregate_county(panel, _stations())
        assert (fips, means.tolist()) == (["10001", "11001"], [2.25, 3.0])

    def test_county_without_rows_left_out(self, tmp_path):
        # st3 sells no Diesel, so the Diesel panel keeps its station id but
        # has no row of its county, 11001.
        records = [obs(price=2.1), obs(fuel="Diesel", price=2.4),
                   obs(station="st2", fuel="Diesel", price=2.6), obs(station="st3")]
        diesel = filter_observations(_columns(tmp_path / "s.psv", records), "Diesel")
        panel, _ = aggregate_daily(diesel, _stations())
        assert panel.station_ids == ["st1", "st2", "st3"]
        fips, means = aggregate_county(panel, _stations())
        assert (fips, means.tolist()) == (["10001"], [2.5])


class TestDescriptiveStats:
    def test_constant_vector(self):
        stats = descriptive_stats([2.28] * 100)
        assert stats["mean"] == pytest.approx(2.28)
        assert stats["sd"] == pytest.approx(0.0, abs=1e-12)
        assert stats["p50"] == pytest.approx(2.28)
        assert stats["p99_over_p1"] == pytest.approx(1.0)

    def test_linear_interpolation_median(self):
        stats = descriptive_stats(np.arange(1.0, 101.0))
        assert stats["p50"] == pytest.approx(50.5)

    def test_percentiles_monotone(self):
        rng = np.random.default_rng(10)
        stats = descriptive_stats(rng.lognormal(0.8, 0.1, 500))
        assert stats["p10"] <= stats["p25"] <= stats["p50"] \
            <= stats["p75"] <= stats["p90"]

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            descriptive_stats([])


class TestCsvInterfaces:
    def test_station_registry_round_trip(self, tmp_path):
        truth = make_mock_corpus(3, tmp_path)
        registry = load_station_registry(tmp_path / "stations.csv")
        assert len(registry) == len(truth.stations)
        first = truth.stations[0]
        assert registry[first.station_id].county_fips == first.county_fips

    def test_covariate_table(self, tmp_path):
        make_mock_corpus(4, tmp_path)
        table = load_covariate_table(tmp_path / "covariates.csv")
        row = next(iter(table.values()))
        for name in ("income", "density", "vote_gop", "lat", "lon"):
            assert name in row

    def test_duplicate_fips_rejected(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("county_fips,poverty\n10001,0.1\n10001,0.2\n")
        with pytest.raises(DuplicateKeyError):
            load_covariate_table(path)

    def test_station_fips_state_consistency(self):
        with pytest.raises(ValueError):
            Station("s", GeoPoint(0, 0), "c", "10001", "11")
