"""Exception hierarchy shared by all polykernel modules.

Two failure categories matter operationally: configuration problems
(bad flags, weight strings, preconditions) and numerical degeneracy
(a singular Gram block, vanishing denominators, sampler stalls).  The CLI
maps them to exit codes 1 and 2 respectively.

Every integer a caller may choose (node counts, seeds, sample counts, the
order q and degree count n of a space, a power weight's p, Laguerre degrees)
passes one check, require_integer, which refuses bools, non-integers and
values outside a range, and names the parameter; every real that must be
finite and > 0 (m, a grid radius, r_max) passes one too, require_positive.
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


def require_integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int >= ``low`` and, if given, < ``high``; else a
    ConfigurationError that names the parameter ``name``.

    Python and numpy integers pass; bools, floats and everything else do not.
    """
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < low or (high is not None and value >= high):
        raise ConfigurationError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def require_positive(value, name: str):
    """``value`` unchanged if it is a Python or numpy real, not a bool, in
    (0, largest double]; else a ConfigurationError that names ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if not 0 < value <= sys.float_info.max:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
    return value
