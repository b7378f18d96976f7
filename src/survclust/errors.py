"""Exception types raised across the toolkit."""


class SurvClustError(Exception):
    """Base class for all survclust errors."""


class EmptySampleError(SurvClustError):
    """A sample that must be non-empty is empty."""


class NoEventsError(SurvClustError):
    """A sample contains no observed events, so nothing can be estimated."""


class InvalidEventCountError(SurvClustError):
    """An event count passed to a test is below one."""


class InvalidCountError(SurvClustError):
    """A test count below one."""


class NoEventsAtRootError(SurvClustError):
    """Tree growth needs at least one observed event in the training data."""


class SchemaMismatchError(SurvClustError):
    """A subject does not conform to the feature schema in use."""


class NonConvergenceError(SurvClustError):
    """An iterative procedure hit its iteration cap before converging."""


class UnreachableKError(SurvClustError):
    """The requested number of clusters cannot be produced."""


class InvalidHorizonsError(SurvClustError):
    """Label horizons must satisfy 0 < t0 < t1."""


class SingleClassError(SurvClustError):
    """Binary classification requires both label classes to be present."""


class InvalidCutoffError(SurvClustError):
    """Inactivity cutoff must be positive."""


class InvalidConfigError(SurvClustError):
    """A configuration object violates its invariants."""
