#!/usr/bin/env python3
"""Check the Gram-table bandwidth search against the QR objective.

For every seed, size, kernel, bandwidth mode and criterion, runs the searches
of all covariate subsets through the lockstep driver that ``enumerate_models``
calls (one set of Gram tables per dataset, kernel and criterion, shared by
every subset, and each round scored in one batched call), and for each subset
the same golden section on the QR objective, ``gwr_fit(...).aicc`` or ``gwr_cv_score``, with
inf where they raise. The two must visit the same bandwidths in the same
order, be infeasible at the same ones, and pick the same bandwidth with the
same score, bit for bit. Prints one summary line per size and criterion and
exits 1 on any difference.

Usage:
    python3 scripts/search_battery.py --seeds 101,7 --n 60
"""

import argparse
import math
import sys

import numpy as np

from fuelspatial import gwr
from fuelspatial.errors import NoFeasibleBandwidthError
from fuelspatial.geo import Bandwidth, KernelShape
from fuelspatial.synth import make_model_selection_dataset

BANDWIDTH = {"adaptive": Bandwidth.adaptive_knn, "fixed": Bandwidth.fixed_distance}


def qr_search(data, covs, kernel, criterion, mode):
    """(best value, best score, evaluations) of the golden section on the QR
    objective."""
    def objective(value):
        spec = gwr.GwrSpec(covs, kernel, BANDWIDTH[mode](value))
        try:
            return (gwr.gwr_fit(data, spec).aicc if criterion == "aicc"
                    else gwr.gwr_cv_score(data, spec))
        except gwr.INFEASIBLE:
            return math.inf

    if mode == "adaptive":
        section = gwr._integer_section(len(covs) + 2, data.n - 1)
    else:
        d = data.distances[~np.eye(data.n, dtype=bool)]
        section = gwr._continuous_section(float(d[d > 0].min()), float(d.max()))
    return gwr._minimize(section, objective)


def compare(tables, covs, mode, outcome):
    """Differences between one subset's Gram search ``outcome``, as the
    lockstep driver returns it, and the QR search of that subset, and the
    largest relative gap between their finite evaluations."""
    data, criterion = tables.data, "cv" if tables.cv else "aicc"
    best, value, qr_evals = qr_search(data, covs, tables.kernel, criterion, mode)
    if isinstance(outcome, NoFeasibleBandwidthError):
        return ([] if math.isinf(value) else ["Gram search infeasible"]), 0.0
    if isinstance(outcome, Exception):
        raise outcome
    result = outcome[0]
    problems, gap = [], 0.0
    if [v for v, _ in result.evaluations] != [v for v, _ in qr_evals]:
        problems.append("evaluation sequence")
    else:
        for (v, g), (_, q) in zip(result.evaluations, qr_evals):
            if math.isinf(g) or math.isinf(q):
                if g != q:
                    problems.append(f"inf at {v} on one side only")
            else:
                gap = max(gap, abs(g - q) / abs(q))
    if result.bandwidth != BANDWIDTH[mode](best):
        problems.append(f"bandwidth {result.bandwidth.value} vs {best}")
    elif result.score != value:
        problems.append(f"score {result.score!r} vs {value!r}")
    return problems, gap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101,7,102,301,302,303,304,305")
    parser.add_argument("--n", default="100,60", help="comma-separated dataset sizes")
    parser.add_argument("--criteria", default="aicc,cv")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    sizes = [int(n) for n in args.n.split(",")]

    # A QR fallback is a QR score taken inside ``_GramTables.scores``; the
    # rescore of each chosen bandwidth and ``gwr_cv_score`` are not counted.
    fallbacks = []
    qr_score, gram_scores = gwr._qr_score, gwr._GramTables.scores

    def counted(*a):
        fallbacks.append(a[2])
        return qr_score(*a)

    def scores(tables, requests):
        gwr._qr_score = counted
        try:
            return gram_scores(tables, requests)
        finally:
            gwr._qr_score = qr_score

    gwr._GramTables.scores = scores
    failed = 0
    for n in sizes:
        for criterion in args.criteria.split(","):
            searches, differ, gap = 0, 0, 0.0
            fallbacks.clear()
            for seed in seeds:
                data = make_model_selection_dataset(seed, n=n)
                names = list(data.covariates)
                for kernel in KernelShape:
                    for mode in ("adaptive", "fixed"):
                        tables = gwr._GramTables(data, names, kernel, criterion)
                        subsets = gwr._subsets(names)
                        outcomes = gwr._searches(tables, subsets, mode)
                        for covs, outcome in zip(subsets, outcomes):
                            problems, g = compare(tables, covs, mode, outcome)
                            searches += 1
                            gap = max(gap, g)
                            if problems:
                                differ += 1
                                print(f"DIFF seed {seed} n {n} {criterion} {kernel.value} "
                                      f"{mode} {'+'.join(covs)}: {'; '.join(problems)}")
            failed += differ
            print(f"n {n} {criterion}: {searches} searches, {differ} differ, "
                  f"{len(fallbacks)} QR fallbacks, largest evaluation gap {gap:.2g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
