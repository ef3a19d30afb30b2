#!/usr/bin/env python3
"""Moran's I decay curve on a synthetic county panel.

Plants a spatially correlated price field with a known correlation
length, sweeps Moran's I over a grid of decay distances, and prints the
resulting curve (mean over daily windows). The curve should peak at or
below the planted length and decay beyond it: the script exits 1 unless
every grid d0 has sweep rows and the mean I strictly decreases over the
grid values at or above the planted length.

Usage:
    python3 scripts/decay_curve.py --length-km 100 --counties 300
"""

import argparse
import sys

import numpy as np

from fuelspatial.spatial_stats import moran_sweep
from fuelspatial.synth import make_county_panel


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--counties", type=int, default=300)
    parser.add_argument("--length-km", type=float, default=100.0)
    parser.add_argument("--grid", default="10,30,100,300,1000")
    args = parser.parse_args()

    grid = [float(v) for v in args.grid.split(",")]
    points, panel = make_county_panel(args.seed, n_counties=args.counties,
                                      corr_length_km=args.length_km)
    sweep = moran_sweep(panel, points, "daily", grid)

    by_d0 = {d0: [] for d0 in grid}
    for row in sweep.rows:
        by_d0[row.d0_km].append(row.result.index)
    print(f"planted correlation length {args.length_km:g} km, "
          f"{args.counties} counties, {len(sweep.rows)} sweep cells")
    print(f"{'d0 (km)':>10s} {'mean I':>8s}")
    curve = {d0: float(np.mean(v)) for d0, v in by_d0.items() if v}
    for d0 in grid:
        if d0 in curve:
            print(f"{d0:10g} {curve[d0]:8.3f}  {'#' * max(0, int(round(40 * curve[d0])))}")
        else:
            print(f"{d0:10g} {'no rows':>8s}")

    if len(curve) < len(by_d0):
        print("FAIL: some decay distances have no sweep rows")
        return 1
    tail = [curve[d0] for d0 in sorted(curve) if d0 >= args.length_km]
    if not all(a > b for a, b in zip(tail, tail[1:])):
        print(f"FAIL: mean I does not strictly decrease over d0 >= {args.length_km:g} km")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
