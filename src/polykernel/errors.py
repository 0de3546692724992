"""Exception hierarchy shared by all polykernel modules.

Two failure categories matter operationally: configuration problems
(bad flags, weight strings, preconditions) and numerical degeneracy
(a singular Gram block, vanishing denominators, sampler stalls).  The CLI
maps them to exit codes 1 and 2 respectively.

Every integer a caller may choose (node counts, seeds, sample counts, the
order q and degree count n of a space, a power weight's p, Laguerre degrees)
passes one check, require_integer, which refuses bools, non-integers and
values outside a range (worded by integer_range, as in the CLI), and names
the parameter; every real that must be finite and > 0 (m, a grid radius,
r_max) passes require_positive, and every evaluation point
require_finite_points.  An unweighted value formed from a log-scale
(e^{mQ(z, w)}, K(z, w)) passes require_finite, which names the log-scale
that left double range.
"""

import sys

import numpy as np


class PolykernelError(Exception):
    """Base class for all library errors."""


class ConfigurationError(PolykernelError):
    """Invalid parameters, weight strings, or violated preconditions."""


class NumericalDegeneracyError(PolykernelError):
    """A computation lost numerical meaning (conditioning, positivity)."""


class SingularExpansionError(NumericalDegeneracyError):
    """Local-expansion denominator b(z,w) vanished at the requested point."""


class SamplerError(NumericalDegeneracyError):
    """Rejection sampling stalled; carries diagnostics in the message."""


def integer_range(low: int, high: int | None = None) -> str:
    """The words for an integer >= ``low`` and, if given, < ``high``."""
    return f"an integer >= {low}" if high is None else f"an integer in [{low}, {high})"


def require_integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int >= ``low`` and, if given, < ``high``; else a
    ConfigurationError that names the parameter ``name``.

    Python and numpy integers pass; bools, floats and everything else do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < low or (high is not None and value >= high):
        raise ConfigurationError(f"{name} must be {integer_range(low, high)}, got {value!r}")
    return int(value)


def require_positive(value, name: str):
    """``value`` unchanged if it is a Python or numpy real, not a bool, in
    (0, largest double]; else a ConfigurationError that names ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if not 0 < value <= sys.float_info.max:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
    return value


def require_finite_points(points: np.ndarray, what: str) -> None:
    """A ConfigurationError naming ``what`` and its first non-finite entry, if any."""
    finite = np.isfinite(points)
    if not finite.all():
        raise ConfigurationError(f"{what} must be finite, got {points[~finite].flat[0]}")


def require_finite(value, log_scale, what: str, m) -> None:
    """A NumericalDegeneracyError naming ``what``, its largest ``log_scale``
    and m, unless every entry of ``value`` is finite."""
    if not np.all(np.isfinite(value)):
        raise NumericalDegeneracyError(f"{what} reaches {np.max(log_scale):.4g} at m={m}: "
                                       "the unweighted value is past double range")
