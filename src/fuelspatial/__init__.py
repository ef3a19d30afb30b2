"""Spatial analysis of station-level fuel prices: ingestion, spatial
statistics, geographically weighted regression, and fixed-effect
econometrics."""

from .geo import (
    Bandwidth,
    GeoPoint,
    KernelShape,
    SpatialWeights,
    build_weights,
    haversine_distance,
    kernel_weight,
)
from .spatial_stats import (
    moran_index,
    moran_sweep,
    variance_decomposition,
)
from .gwr import (
    GwrDataset,
    GwrFit,
    GwrSpec,
    enumerate_models,
    gwr_cv_score,
    gwr_fit,
    nearest_neighbor_scale,
    optimize_bandwidth,
)
from .econometrics import (
    cluster_robust_se,
    county_regression,
    fe_variance_explained,
    ols,
)

__all__ = [
    "Bandwidth", "GeoPoint", "KernelShape", "SpatialWeights", "build_weights",
    "haversine_distance", "kernel_weight",
    "moran_index", "moran_sweep", "variance_decomposition",
    "GwrDataset", "GwrFit", "GwrSpec", "enumerate_models", "gwr_cv_score",
    "gwr_fit", "nearest_neighbor_scale", "optimize_bandwidth",
    "cluster_robust_se", "county_regression", "fe_variance_explained", "ols",
]

__version__ = "0.1.0"
