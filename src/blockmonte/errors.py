"""Exception types shared across the estimators and the CLI.

Invalid inputs raise plain ValueError; the classes here mark runs that were
configured legally but produced no usable estimate (CLI exit status 1).
"""


class DegenerateResultError(RuntimeError):
    """An experiment ran but cannot yield an estimate."""


class DegenerateSampleError(DegenerateResultError):
    """A count that is divided by came out zero (no successes observed)."""


class DegenerateCourseError(DegenerateResultError):
    """A timing course too short to register a single timer item."""


class DegenerateRegionError(DegenerateResultError):
    """A sampling box whose area, or the interval built on it, is not a
    finite double."""
