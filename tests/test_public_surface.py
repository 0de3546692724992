"""The public surface in ``polykernel.__all__`` may stay the same or shrink."""

import dataclasses

import polykernel as pk

PUBLIC = {
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
}


def test_public_surface_does_not_grow():
    assert len(PUBLIC) == 32
    assert len(pk.__all__) == len(set(pk.__all__))
    assert set(pk.__all__) <= PUBLIC, sorted(set(pk.__all__) - PUBLIC)
    assert all(hasattr(pk, name) for name in pk.__all__)


def test_weight_model_keeps_its_coefficients():
    # the polarization, b and theta live in localexpansion, their one consumer
    assert [f.name for f in dataclasses.fields(pk.WeightModel)] == ["coeffs", "label"]
    gone = {"family", "spec_string", "polarize", "hermitian_b", "phase_theta",
            "dbar_theta", "_dpolarize", "_theta"}
    assert not gone & set(dir(pk.WeightModel))
