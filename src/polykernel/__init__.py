"""Weighted polyanalytic polynomial kernels and their determinantal processes.

Numerically constructs reproducing kernels of the spaces
span{conj(z)^r z^j : r < q, j < n} in L^2(e^{-mQ}) for radial weights Q,
exposes the derived point-process statistics, the near-diagonal expansion
kernels, exact samplers, and desk-scale checks of the bulk universality,
off-diagonal decay, and droplet concentration behaviour.
"""

from .errors import (ConfigurationError, NumericalDegeneracyError,
                     PolykernelError, SamplerError, SingularExpansionError)
from .weights import RadialEquilibrium, WeightModel, droplet_radius, parse_weight
from .quadrature import integrate_polar_grid
from .kernel import GramFactorization, KernelEvaluator, SpaceSpec, build_space
from .localexpansion import (laguerre_assoc1, local_kernel_leading,
                             local_kernel_q1, local_kernel_q2, r_qm_density)
from .asymptotics import (LadderReport, blowup_compare, blowup_ladder,
                          bulk_limit_profile, decay_ladder, diagonal_bound_check,
                          offdiagonal_scan, offdroplet_margins, rate_fit)
from .sampling import (PointConfiguration, empirical_intensity,
                       sample_batch, sample_configuration)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "GramFactorization", "KernelEvaluator", "LadderReport",
    "NumericalDegeneracyError",
    "PointConfiguration", "PolykernelError", "RadialEquilibrium", "SamplerError",
    "SingularExpansionError", "SpaceSpec", "WeightModel", "blowup_compare",
    "blowup_ladder", "build_space", "bulk_limit_profile", "decay_ladder",
    "diagonal_bound_check", "droplet_radius", "empirical_intensity",
    "integrate_polar_grid", "laguerre_assoc1",
    "local_kernel_leading", "local_kernel_q1", "local_kernel_q2",
    "offdiagonal_scan", "offdroplet_margins",
    "parse_weight", "r_qm_density", "rate_fit",
    "sample_batch", "sample_configuration",
]
