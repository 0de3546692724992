"""Exception hierarchy shared by all polykernel modules.

Two failure categories matter operationally: configuration problems
(bad flags, weight strings, preconditions) and numerical degeneracy
(a singular Gram block, vanishing denominators, sampler stalls).  The CLI
maps them to exit codes 1 and 2 respectively.
"""


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
