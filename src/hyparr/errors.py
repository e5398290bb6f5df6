"""Exception hierarchy shared across the package."""


class HyparrError(Exception):
    """Base class for errors raised by hyparr."""


class ParseError(HyparrError):
    """Malformed expression, arrangement file or spec, or an unusable path."""


class RefusalError(HyparrError):
    """A computation was declined (precondition not met, guard exceeded)."""


class InvalidHyperplaneError(HyparrError):
    """An input form cannot define a hyperplane (e.g. it is zero)."""


class InternalInconsistencyError(HyparrError):
    """A guaranteed property failed to hold; indicates a bug, not bad input."""
