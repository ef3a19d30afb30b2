"""Correctness checks: a corrupted output must trip its check and raise the
fail ratio."""

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import workloads
from fuelspatial import gwr, synth
from fuelspatial.geo import Bandwidth, KernelShape
from fuelspatial.spatial_stats import VarianceDecomposition
from workloads import Tally

BENCH = Path(__file__).resolve().parents[1]


def test_flipped_byte_in_an_artifact_fails_identity():
    first = {"gwr_fit.csv": b"a,b\n1,2\n", "moran_sweep.csv": b"x\n"}
    tally = Tally()
    tally.check_identical(first, dict(first))
    assert (tally.attempted, tally.failed) == (2, 0)
    flipped = bytearray(first["gwr_fit.csv"])
    flipped[4] ^= 0x01
    tally.check_identical(first, {**first, "gwr_fit.csv": bytes(flipped)})
    assert tally.failed == 1 and tally.fail_ratio == pytest.approx(1 / 4)
    assert "gwr_fit.csv" in tally.problems[0]


TRUTH = SimpleNamespace(unique_records=100, planted_duplicates=6, quarantined=5,
                        total_records=100)
FRESH = {"stored": 100, "duplicates_dropped": 6, "quarantined": 5, "failed": 0}
RECRAWL = {"stored": 0, "duplicates_dropped": 106, "quarantined": 5, "failed": 0}


def test_ingest_reports_matching_the_truth_pass():
    tally = Tally()
    workloads.check_ingest(FRESH, TRUTH, tally, recrawl=False)
    workloads.check_ingest(RECRAWL, TRUTH, tally, recrawl=True)
    assert tally.failed == 0 and tally.attempted == 7


@pytest.mark.parametrize("report,recrawl", [
    ({**FRESH, "stored": 99}, False),
    ({**FRESH, "duplicates_dropped": 5}, False),
    ({**FRESH, "failed": 1}, False),
    ({**RECRAWL, "stored": 1}, True),
])
def test_wrong_stored_count_fails(report, recrawl):
    tally = Tally()
    workloads.check_ingest(report, TRUTH, tally, recrawl=recrawl)
    assert tally.failed == 1 and tally.fail_ratio > 0


def _panel_inputs():
    levels = [level for level, _ in workloads.LEVELS]
    vd = {level: VarianceDecomposition(total=4.0, between=1.0, within=3.0, grouping=level)
          for level in levels}
    out = {"fe": {level: 0.25 for level in levels},
           "fe_two_way": {level: 0.3 for level in levels}, "vd": vd,
           "coefficients": {"a": 1.0},
           "curve": {10.0: 0.9, 30.0: 0.7, 100.0: 0.4, 300.0: 0.2, 1000.0: 0.05}}
    oracle = {"coefficients": {"a": 1.0}, "fe_two_way": {level: 0.3 for level in levels}}
    return out, oracle


def test_panel_checks_pass_on_consistent_outputs():
    tally = Tally()
    workloads.check_panel(*_panel_inputs(), tally)
    assert tally.failed == 0 and tally.attempted == 3 * 3 + 2


@pytest.mark.parametrize("corrupt,failures", [
    ("fe", 1), ("two_way", 1), ("two_way_below_one_way", 2), ("coefficient", 1),
    ("curve", 1)])
def test_panel_checks_catch_each_corruption(corrupt, failures):
    out, oracle = _panel_inputs()
    if corrupt == "fe":
        out["fe"]["county"] += 1e-9
    elif corrupt == "two_way":
        out["fe_two_way"]["station"] += 1e-9
    elif corrupt == "two_way_below_one_way":
        out["fe_two_way"]["state"] = 0.2
    elif corrupt == "coefficient":
        out["coefficients"] = {"a": 1.0 + 1e-7}
    else:
        out["curve"][300.0] = 0.5
    tally = Tally()
    workloads.check_panel(out, oracle, tally)
    assert tally.failed == failures


def test_two_way_oracle_matches_full_dummy_ols():
    from fuelspatial import econometrics as econ

    panel = synth.make_random_panel(5, n_stations=60, n_days=6, n_counties=4, n_states=5)
    panel = panel[::2] + panel[1::7]    # unbalanced
    y = np.array([o.price for o in panel])
    days = np.array([o.day.toordinal() for o in panel])
    for level, key in workloads.LEVELS:
        groups = np.array([getattr(o, key) for o in panel])
        dummies = [(lab[:, None] == np.unique(lab)[None, :]).astype(float)
                   for lab in (groups, days)]
        x = np.column_stack([dummies[0], dummies[1][:, 1:]])
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ beta
        full = 1.0 - resid @ resid / np.sum((y - y.mean()) ** 2)
        assert workloads.two_way_r2(y, groups, days) == pytest.approx(full, abs=1e-12)
        fitted = econ.fe_variance_explained(panel, econ.FixedEffectSpec(level, True))
        assert fitted["r_squared"] == pytest.approx(full, abs=1e-10)


def test_dummy_ols_oracle_matches_county_regression():
    from fuelspatial import econometrics as econ

    rows, _ = synth.make_county_rows(3, n_states=4, counties_per_state=12,
                                     covariate_effects={"density": 0.05})
    fit = econ.county_regression(rows, econ.COUNTY_COVARIATES)
    beta = workloads.dummy_ols(rows, econ.COUNTY_COVARIATES)
    np.testing.assert_allclose([fit.coefficients[n] for n in econ.COUNTY_COVARIATES], beta,
                               atol=1e-8)


def _report(aicc):
    entry = gwr.ModelEntry(("income",), KernelShape.GAUSSIAN, Bandwidth.adaptive_knn(12),
                           aicc, None, 0.5)
    return gwr.ModelSelectionReport(entries=[entry] * 62, best=0, median_aicc_gap=0.0,
                                    n_failed=0)


def test_select_refit_check_catches_a_wrong_best_aicc(tmp_path):
    select = workloads.Select(0, tmp_path)
    select.data = synth.make_model_selection_dataset(0, n=30)
    select.covariates = list(select.data.covariates)
    spec = gwr.GwrSpec(("income",), KernelShape.GAUSSIAN, Bandwidth.adaptive_knn(12))
    true_aicc = gwr.gwr_fit(select.data, spec).aicc

    tally = Tally()
    select.check_report(_report(true_aicc), tally)
    assert tally.failed == 0
    select.check_report(_report(true_aicc * (1 + 1e-6)), tally)
    assert tally.failed == 1 and "refit" in tally.problems[0]


class _ProbeWorkload:
    """Records whether ``gwr.gwr_fit`` is patched while a pass runs and while
    it is checked."""

    def __init__(self):
        self.original = gwr.gwr_fit
        self.patched = {"run": [], "check": []}

    def run_pass(self, tracer):
        self.patched["run"].append(gwr.gwr_fit is not self.original)
        return workloads.PassResult(1.0, 0, 0.0)

    def check(self, result, tally):
        self.patched["check"].append(gwr.gwr_fit is not self.original)
        return {}


def test_checks_run_outside_the_traced_region():
    import run
    import spans

    probe = _ProbeWorkload()
    plain, traced = run.measure(probe, Tally(), 0.0, True, spans.Tracer())
    assert (len(plain), len(traced)) == (1, 1)
    assert probe.patched == {"run": [False, True], "check": [False, False]}
    assert plain[0].rate == 0.0


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "select",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no package source" in done.stderr
