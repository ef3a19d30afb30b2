import datetime as dt
import threading
import time

import numpy as np
import pytest

from fuelspatial import ingest
from fuelspatial.errors import (
    DuplicateKeyError,
    EmptyInputError,
    ParseError,
    PoolExhaustedError,
    StoreWriteError,
)
from fuelspatial.geo import GeoPoint
from fuelspatial.ingest import (
    FUEL_TYPES,
    PAYMENT_MODES,
    CollectionPlan,
    MockSource,
    ObservationStore,
    PriceObservation,
    ProxyEndpoint,
    ProxyPool,
    Station,
    StationDay,
    StationDayColumns,
    aggregate_county,
    aggregate_daily,
    county_means,
    descriptive_stats,
    filter_observations,
    load_covariate_table,
    load_station_registry,
    parse_price_record,
    read_store,
    read_store_columns,
    run_collection,
)
from fuelspatial.synth import make_mock_corpus


def obs(station="st1", day=10, hour=12, fuel="Regular", mode="Credit", price=2.3):
    return PriceObservation(station, dt.datetime(2017, 1, day, hour), fuel, mode, price)


class TestProxyPool:
    def test_round_robin(self):
        a, b = ProxyEndpoint("a:1"), ProxyEndpoint("b:1")
        pool = ProxyPool([a, b])
        order = []
        for _ in range(3):
            ep = pool.next()
            order.append(ep.address)
            pool.release(ep)
        assert order == ["a:1", "b:1", "a:1"]

    def test_skips_failed(self):
        a = ProxyEndpoint("a:1", status="Failed", failure_count=3)
        b = ProxyEndpoint("b:1")
        pool = ProxyPool([a, b])
        for _ in range(4):
            ep = pool.next()
            assert ep.address == "b:1"
            pool.release(ep)

    def test_even_split_over_healthy_pool(self):
        eps = [ProxyEndpoint(f"p{i}:1") for i in range(4)]
        pool = ProxyPool(eps)
        counts = {ep.address: 0 for ep in eps}
        for _ in range(100):
            ep = pool.next()
            counts[ep.address] += 1
            pool.release(ep)
        assert set(counts.values()) == {25}

    def test_failure_threshold_then_exhausted(self):
        a = ProxyEndpoint("a:1")
        pool = ProxyPool([a], failure_threshold=2)
        for _ in range(2):
            ep = pool.next()
            pool.release(ep, success=False)
        with pytest.raises(PoolExhaustedError):
            pool.next()
        pool.reset()
        assert pool.next().address == "a:1"


class TestParse:
    def test_happy_path(self):
        raw = "\n".join([obs(price=2.1).to_line(), obs(hour=13).to_line(),
                         obs(day=11).to_line()])
        records, quarantined = parse_price_record(raw, "mock://p")
        assert len(records) == 3
        assert not quarantined
        assert records[0].price == 2.1
        assert records[0].source_url == "mock://p"

    def test_price_below_band_quarantined(self):
        records, quarantined = parse_price_record(obs(price=0.05).to_line())
        assert not records
        assert quarantined[0][1] == "below plausibility band"

    def test_unknown_fuel_quarantined(self):
        line = "st1|2017-01-10T12:00:00|Jetfuel|Credit|2.100"
        records, quarantined = parse_price_record(line)
        assert not records
        assert "unknown fuel type" in quarantined[0][1]

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


class TestStore:
    def test_dedup_first_seen_wins(self, tmp_path):
        store = ObservationStore(tmp_path / "s.psv")
        assert store.add(obs(price=2.0))
        assert not store.add(obs(price=9.0))  # same key, different price
        loaded = store.load()
        assert len(loaded) == 1
        assert loaded[0].price == 2.0

    def test_persistent_index(self, tmp_path):
        store = ObservationStore(tmp_path / "s.psv")
        store.add(obs())
        reopened = ObservationStore(tmp_path / "s.psv")
        assert not reopened.add(obs())
        assert len(reopened) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["s.psv"]

    def test_page_dedup_within_and_across_calls(self, tmp_path):
        store = ObservationStore(tmp_path / "s.psv")
        assert store.add(obs(price=2.0), obs(hour=13), obs(price=9.0)) == 2
        assert store.add(obs(hour=13), obs(hour=14)) == 1
        assert store.add() == 0
        assert [o.price for o in store.load()] == [2.0, 2.3, 2.3]
        assert len(store) == 3

    def test_torn_tail_ignored_then_cut(self, tmp_path):
        path = tmp_path / "s.psv"
        complete = obs().to_line() + "\n" + obs(hour=13).to_line() + "\n"
        tail = obs(hour=14).to_line()[:17]
        path.write_text(complete + tail)
        store = ObservationStore(path)
        assert store.torn_bytes == len(tail)
        assert len(store) == 2
        assert [o.timestamp.hour for o in store.load()] == [12, 13]
        assert store.add(obs(hour=13), obs(hour=15)) == 1
        assert path.read_text() == complete + obs(hour=15).to_line() + "\n"
        assert ObservationStore(path).torn_bytes == 0

    def test_read_store_matches_load_on_torn_tail(self, tmp_path):
        path = tmp_path / "s.psv"
        path.write_text(obs().to_line() + "\n" + obs(hour=13).to_line() + "\n"
                        + obs(hour=14).to_line()[:17])
        loaded = read_store(path)
        assert loaded == ObservationStore(path).load()
        assert [o.timestamp.hour for o in loaded] == [12, 13]
        assert read_store(tmp_path / "absent.psv") == []

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
        store.add(obs())
        monkeypatch.setattr(ingest, "open", lambda *a: TornFile(open(*a)), raising=False)
        with pytest.raises(StoreWriteError):
            store.add(obs(hour=13), obs(hour=14))
        monkeypatch.delattr(ingest, "open")
        assert (tmp_path / "s.psv").stat().st_size == len(obs().to_line()) + 1 + 10
        assert store.add(obs(hour=14)) == 1
        lines = (tmp_path / "s.psv").read_text().split("\n")
        assert lines == [obs().to_line(), obs(hour=14).to_line(), ""]
        assert [o.timestamp.hour for o in store.load()] == [12, 14]


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


class TestRunCollection:
    def _pool(self):
        return ProxyPool([ProxyEndpoint("a:1"), ProxyEndpoint("b:1")],
                         failure_threshold=1000)

    def _pages(self, n=10):
        return {f"mock://h/p{i}": obs(station=f"st{i}").to_line() + "\n"
                for i in range(n)}

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
        record = obs().to_line() + "\n"
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
        first = sorted((tmp_path / "s.psv").read_text().splitlines())
        report = run_collection(plan, MockSource(pages), self._pool(), store)
        assert report.stored == 0
        assert report.duplicates_dropped == 6
        assert sorted((tmp_path / "s.psv").read_text().splitlines()) == first

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
            def add(self, *records):
                raise StoreWriteError("disk full")

        pages = self._pages(5)
        plan = CollectionPlan(urls=sorted(pages), max_in_flight=2)
        report = run_collection(plan, MockSource(pages), self._pool(),
                                BrokenStore(tmp_path / "s.psv"))
        assert report.aborted

    def test_duplicate_urls_normalized(self):
        plan = CollectionPlan(urls=["u1", "u2", "u1", " u2 "])
        assert plan.urls == ["u1", "u2"]


class TestFilterAndAggregate:
    def test_mode_filter(self):
        records = [obs(hour=h) for h in range(10)] + [obs(mode="Cash", hour=11)]
        assert len(filter_observations(records, None)) == 10

    def test_all_cash_empty(self):
        assert filter_observations([obs(mode="Cash")]) == []

    def test_fuel_filter_default_regular(self):
        records = [obs(fuel="Regular"), obs(fuel="Diesel", hour=13)]
        kept = filter_observations(records)
        assert len(kept) == 1 and kept[0].fuel_type == "Regular"

    def test_generator_counts(self, tmp_path):
        truth = make_mock_corpus(2, tmp_path)
        records = []
        for page in (tmp_path / "pages").iterdir():
            recs, _ = parse_price_record(page.read_text())
            records.extend(recs)
        store_like = {}
        for r in records:  # dedup as the store would
            store_like.setdefault(r.dedup_key(), r)
        kept = filter_observations(list(store_like.values()))
        assert len(kept) == truth.credit_regular


def _stations():
    return {
        "st1": Station("st1", GeoPoint(40.0, -100.0), "c", "10001", "10"),
        "st2": Station("st2", GeoPoint(40.1, -100.1), "c", "10001", "10"),
        "st3": Station("st3", GeoPoint(44.0, -90.0), "c", "11001", "11"),
    }


class TestAggregateDaily:
    def test_mean_of_two(self):
        rows, orphans = aggregate_daily(
            [obs(price=2.00), obs(price=2.10, hour=14)], _stations())
        assert not orphans
        assert len(rows) == 1
        assert rows[0].price == pytest.approx(2.05)
        assert rows[0].n_prices == 2

    def test_single_observation_identity(self):
        rows, _ = aggregate_daily([obs(price=2.34)], _stations())
        assert rows[0].price == 2.34

    def test_orphan_station_skipped(self):
        rows, orphans = aggregate_daily([obs(station="ghost")], _stations())
        assert not rows
        assert orphans == ["ghost"]

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(7)
        records = []
        for _ in range(200):
            records.append(obs(station=f"st{rng.integers(1, 4)}",
                               day=int(rng.integers(10, 15)),
                               hour=int(rng.integers(0, 24)),
                               price=float(rng.uniform(2, 3))))
        # drop key collisions the store would have removed
        unique = {}
        for r in records:
            unique.setdefault(r.dedup_key(), r)
        records = list(unique.values())
        rows, _ = aggregate_daily(records, _stations())
        oracle = {}
        for r in records:
            oracle.setdefault((r.station_id, r.timestamp.date()), []).append(r.price)
        for row in rows:
            assert row.price == pytest.approx(
                np.mean(oracle[(row.station_id, row.day)]), abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        records = [obs(station=f"st{1 + i % 3}", day=10 + i % 3, hour=i % 24,
                       price=float(rng.uniform(2, 3))) for i in range(50)]
        rows_a, _ = aggregate_daily(records, _stations())
        shuffled = [records[i] for i in rng.permutation(len(records))]
        rows_b, _ = aggregate_daily(shuffled, _stations())
        for a, b in zip(rows_a, rows_b):
            assert a.station_id == b.station_id and a.day == b.day
            assert a.price == pytest.approx(b.price, abs=1e-12)


class TestAggregateCounty:
    def _cov(self):
        return {"10001": {"lat": 40.0, "lon": -100.0, "poverty": 0.1},
                "11001": {"lat": 44.0, "lon": -90.0, "poverty": 0.2}}

    def test_flat_mean(self):
        panel = [StationDay("st1", dt.date(2017, 1, 10), 2.0, 1),
                 StationDay("st2", dt.date(2017, 1, 10), 3.0, 1)]
        aggs = aggregate_county(panel, _stations(), self._cov())
        assert len(aggs) == 1
        assert aggs[0].mean_price == pytest.approx(2.5)
        assert aggs[0].n_stations == 2

    def test_county_without_stations_absent(self):
        panel = [StationDay("st1", dt.date(2017, 1, 10), 2.0, 1)]
        aggs = aggregate_county(panel, _stations(), self._cov())
        assert [a.county_fips for a in aggs] == ["10001"]

    def test_missing_covariates_flagged(self):
        panel = [StationDay("st3", dt.date(2017, 1, 10), 2.0, 1)]
        aggs = aggregate_county(panel, _stations(), {})
        assert aggs[0].incomplete

    def test_mean_matches_panel_restriction(self):
        rng = np.random.default_rng(9)
        panel = [StationDay(f"st{1 + i % 3}", dt.date(2017, 1, 10 + i % 4),
                            float(rng.uniform(2, 3)), 1) for i in range(40)]
        aggs = aggregate_county(panel, _stations(), self._cov())
        stations = _stations()
        for agg in aggs:
            prices = [r.price for r in panel
                      if stations[r.station_id].county_fips == agg.county_fips]
            assert agg.mean_price == pytest.approx(np.mean(prices), abs=1e-12)
            assert agg.n_observations >= agg.n_stations >= 1

    def test_station_mean_of_means_option(self):
        panel = [StationDay("st1", dt.date(2017, 1, 10), 2.0, 1),
                 StationDay("st1", dt.date(2017, 1, 11), 2.2, 1),
                 StationDay("st2", dt.date(2017, 1, 10), 3.0, 1)]
        flat = aggregate_county(panel, _stations(), self._cov())[0]
        nested = aggregate_county(panel, _stations(), self._cov(),
                                  station_means=True)[0]
        assert flat.mean_price == pytest.approx((2.0 + 2.2 + 3.0) / 3)
        assert nested.mean_price == pytest.approx((2.1 + 3.0) / 2)


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
    rows = [StationDay(sid, day, float(np.mean(prices)), len(prices))
            for (sid, day), prices in sorted(cells.items())]
    return rows, orphans


def _object_county(panel, stations, table, period=None, station_means=False):
    """The per-row county means, grouped with dicts; the oracle for
    ``county_means`` (its fallback point averages stations in id order)."""
    by_county = {}
    for row in panel:
        if row.station_id in stations and (period is None
                                           or period[0] <= row.day <= period[1]):
            by_county.setdefault(stations[row.station_id].county_fips, []).append(row)
    out = []
    for fips in sorted(by_county):
        rows = by_county[fips]
        per_station = {}
        for r in rows:
            per_station.setdefault(r.station_id, []).append(r.price)
        if station_means:
            mean = float(np.mean([np.mean(v) for v in per_station.values()]))
        else:
            mean = float(np.mean([r.price for r in rows]))
        cov = table.get(fips)
        if cov is not None and "lat" in cov and "lon" in cov:
            point = GeoPoint(cov["lat"], cov["lon"])
        else:
            pts = [stations[s].point for s in sorted(per_station)]
            point = GeoPoint(float(np.mean([p.lat for p in pts])),
                             float(np.mean([p.lon for p in pts])))
        days = [r.day for r in rows]
        out.append((fips, period or (min(days), max(days)), mean, len(rows),
                    len(per_station), point, cov is None))
    return out


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
    """The columnar path against the per-record one it replaced: read_store,
    filter_observations, the record sort and dict-of-lists means."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fuel", ["Regular", None])
    def test_matches_object_path(self, tmp_path, seed, fuel):
        stations = _stations()
        _random_store(tmp_path / "s.psv", seed, stations)
        obs = filter_observations(read_store(tmp_path / "s.psv"), fuel)
        obs.sort(key=_record_order)
        cols = read_store_columns(tmp_path / "s.psv")
        cols = cols.take(cols.filter_mask(fuel))
        cols = cols.take(cols.sort_order())
        assert [cols.station_ids[s] for s in cols.station] == [o.station_id for o in obs]
        assert cols.day.tolist() == [o.timestamp.toordinal() for o in obs]
        assert cols.price.tolist() == [o.price for o in obs]

        panel, orphan = cols.station_days(stations)
        rows, orphans = _object_daily(obs, stations)
        assert max(r.n_prices for r in rows) >= 8
        assert orphans and [cols.station_ids[s] for s in cols.station[orphan]] == orphans
        assert [StationDay(panel.station_ids[s], dt.date.fromordinal(d), p, n)
                for s, d, p, n in zip(panel.station.tolist(), panel.day.tolist(),
                                      panel.price.tolist(), panel.n_prices.tolist())
                ] == rows
        assert aggregate_daily(obs, stations) == (rows, orphans)

    def test_equal_instants_keep_store_order(self, tmp_path):
        path = tmp_path / "s.psv"
        path.write_text("st1|2017-01-10T13:00:00+01:00|Regular|Credit|2.100\n"
                        "st1|2017-01-10T11:30:00+00:00|Regular|Credit|2.200\n"
                        "st1|2017-01-10T12:00:00+00:00|Regular|Credit|2.300\n")
        cols = read_store_columns(path)
        cols = cols.take(cols.sort_order())
        obs = sorted(read_store(path), key=_record_order)
        assert cols.price.tolist() == [o.price for o in obs] == [2.2, 2.1, 2.3]

    @pytest.mark.parametrize("bad", ["st1|2017-01-10T12:00:00|Regular|Credit",
                                     "st1|2017-01-10T12:00:00|Regular|Credit|2.1|x",
                                     "st1|2017-13-10T12:00:00|Regular|Credit|2.1",
                                     "st1|2017-01-10T12:00:00|Jetfuel|Credit|two"])
    def test_malformed_line_raises_the_same_parse_error(self, tmp_path, bad):
        path = tmp_path / "s.psv"
        path.write_text(obs().to_line() + "\n" + bad + "\n" + obs(hour=13).to_line()
                        + "\n")
        with pytest.raises(ParseError) as expected:
            read_store(path)
        with pytest.raises(ParseError) as got:
            read_store_columns(path)
        assert str(got.value) == str(expected.value)
        assert repr(bad) in str(got.value) and str(path) in str(got.value)

    def test_empty_and_absent_store(self, tmp_path):
        (tmp_path / "s.psv").write_text("st1|2017-01-1")
        for path in (tmp_path / "s.psv", tmp_path / "absent.psv"):
            cols = read_store_columns(path)
            assert cols.price.size == 0 and cols.station_ids == []
            panel, orphan = cols.station_days(_stations())
            assert panel.price.size == 0 and orphan.size == 0


class TestCountyMeans:
    """``county_means`` and ``aggregate_county`` against dict grouping."""

    @pytest.mark.parametrize("station_means", [False, True])
    @pytest.mark.parametrize("period", [None, (dt.date(2017, 1, 11), dt.date(2017, 1, 13))])
    def test_matches_dict_grouping(self, period, station_means):
        rng = np.random.default_rng(11)
        stations = {f"s{i:02d}": Station(f"s{i:02d}", GeoPoint(40 + i / 10, -100), "c",
                                         f"1000{i % 3}", "10") for i in range(20)}
        panel = [StationDay(f"s{rng.integers(0, 22):02d}",
                            dt.date(2017, 1, int(rng.integers(10, 15))),
                            float(rng.uniform(2, 3)), 1) for _ in range(300)]
        table = {"10000": {"lat": 40.0, "lon": -100.0}, "10001": {"lat": 41.0}}
        got = [(a.county_fips, a.period, a.mean_price, a.n_observations, a.n_stations,
                a.point, a.incomplete)
               for a in aggregate_county(panel, stations, table, period, station_means)]
        want = _object_county(panel, stations, table, period, station_means)
        assert [g[3] for g in got] and min(g[3] for g in got) >= 8
        assert got == want

    def test_columns_in_panel_order(self):
        panel = StationDayColumns(["st1", "st3"], np.array([0, 1, 0]),
                                  np.array([736339, 736339, 736340]),
                                  np.array([2.0, 3.0, 2.5]), np.ones(3, dtype=int))
        aggs = county_means(panel, _stations(), {})
        assert [(a.county_fips, a.mean_price, a.n_observations) for a in aggs] == [
            ("10001", 2.25, 2), ("11001", 3.0, 1)]


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
