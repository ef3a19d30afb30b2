"""Exception hierarchy shared across the analysis modules."""


class FuelSpatialError(Exception):
    """Base class for all errors raised by this package."""


class InvalidBandwidthError(FuelSpatialError):
    pass


class DegenerateBandwidthError(FuelSpatialError):
    """Adaptive bandwidth collapsed to zero (duplicate coordinates)."""

    def __init__(self, location, message=None):
        self.location = location
        super().__init__(message or f"degenerate bandwidth at location {location}")


class ZeroVarianceError(FuelSpatialError):
    pass


class EmptyWeightsError(FuelSpatialError):
    pass


class EmptyInputError(FuelSpatialError):
    pass


class SingularFitError(FuelSpatialError):
    """Local or global design matrix is rank deficient."""

    def __init__(self, location=None, message=None):
        self.location = location
        super().__init__(message or f"singular fit at location {location}")


class SingularDesignError(FuelSpatialError):
    def __init__(self, columns, message=None):
        self.columns = list(columns)
        super().__init__(message or f"collinear design columns: {self.columns}")


class OversaturatedModelError(FuelSpatialError):
    """Effective parameters too close to n; bandwidth too small for AICc."""


class InsufficientSupportError(FuelSpatialError):
    """A compact kernel leaves some location with too few in-range neighbors."""


class NoFeasibleBandwidthError(FuelSpatialError):
    pass


class EmptyReportError(FuelSpatialError):
    pass


class InvalidKError(FuelSpatialError):
    pass


class DegenerateGroupingError(FuelSpatialError):
    pass


class AbsorbedCovariateError(FuelSpatialError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"covariate {name!r} is constant within every group (absorbed)")


class InsufficientClustersError(FuelSpatialError):
    pass


class PerfectFitError(FuelSpatialError):
    """All residuals are zero; standard errors are undefined."""


class PoolExhaustedError(FuelSpatialError):
    pass


class ProxyError(FuelSpatialError):
    """A source's proxy endpoint failed a fetch: counted against the
    endpoint, not the URL."""


class ParseError(FuelSpatialError):
    def __init__(self, source_url, message):
        self.source_url = source_url
        super().__init__(f"{message} (source: {source_url})")


class DuplicateKeyError(FuelSpatialError):
    pass


class StoreWriteError(FuelSpatialError):
    pass
