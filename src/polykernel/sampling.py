"""Exact sampling of the determinantal process and empirical statistics.

The correlation kernel is a projection onto an nq-dimensional space, so the
process can be sampled exactly by sequential peeling: draw a point from the
current normalized diagonal, orthogonally project the frame against the
drawn point's feature vector, repeat nq times.  The features

    Phi_a(z) = e_a(z) e^{-mQ(z)/2}

are the evaluator's own feature map (the weighted orthonormal basis, solved
through the scaled Cholesky factors of all Gram blocks at once), so
||Phi(z)||^2 is the one-point intensity and after t draws the current
diagonal is ||Phi(z)||^2 - sum_i |<u_i, Phi(z)>|^2 with u_i the
orthonormalized features of the accepted points.

Each draw uses rejection sampling: a radially binned envelope of the current
diagonal (the diagonal stays smooth and nearly radial at every step) with a
uniform-on-annulus proposal.  The sampling disk has radius R + 6 m^{-1/2} +
0.5; the mass outside it decays exponentially and is far below 1e-8 at desk
scale.

Randomness comes from numpy's Philox counter-based generator.  A batch of
configurations derives one 64-bit child seed per configuration index through
numpy's SeedSequence(master, index) spawning, so results are reproducible
regardless of how the batch is split across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SamplerError
from .kernel import KernelEvaluator
from .weights import RadialEquilibrium

ENVELOPE_BINS = 256
ENVELOPE_ANGLES = 8
ENVELOPE_SAFETY = 1.5
PROPOSAL_BATCH = 64
MAX_PROPOSALS = 10**6


@dataclass(frozen=True)
class PointConfiguration:
    """One sampled configuration of exactly nq points."""

    points: np.ndarray
    seed: int
    q: int
    n: int
    m: float
    weight: str
    proposals_used: int

    def __post_init__(self):
        if self.points.size != self.q * self.n:
            raise ConfigurationError(
                f"configuration must hold {self.q * self.n} points, got {self.points.size}"
            )


def seed_for_index(master_seed: int, index: int) -> int:
    """Documented per-configuration split of a master seed."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_configuration(K: KernelEvaluator, eq: RadialEquilibrium | None,
                         seed: int) -> PointConfiguration:
    """Draw one exact configuration of the nq-point process."""
    eq = eq or K.equilibrium
    spec = K.spec
    nq = spec.dim
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    features = K._features.weighted
    r_max = eq.droplet_radius + 6.0 / math.sqrt(spec.m) + 0.5

    edges = np.linspace(0.0, r_max, ENVELOPE_BINS + 1)
    probe_r = np.concatenate([
        edges[:-1] + (edges[1:] - edges[:-1]) * frac for frac in (0.25, 0.5, 0.75)
    ])
    probe_ang = np.exp(2j * np.pi * np.arange(ENVELOPE_ANGLES) / ENVELOPE_ANGLES)
    probes = (probe_r[:, None] * probe_ang[None, :]).ravel()

    phi_probes = features(probes)
    diag_probes = np.sum(np.abs(phi_probes) ** 2, axis=0)

    frame = np.zeros((0, nq), dtype=complex)
    points = np.empty(nq, dtype=complex)
    proposals = 0

    def current_diagonal(z: np.ndarray) -> np.ndarray:
        phi = features(z)
        diag = np.sum(np.abs(phi) ** 2, axis=0)
        if frame.shape[0]:
            proj = frame.conj() @ phi
            diag = diag - np.sum(np.abs(proj) ** 2, axis=0)
        return np.maximum(diag, 0.0)

    for t in range(nq):
        diag_grid = np.maximum(diag_probes, 0.0).reshape(3 * ENVELOPE_BINS,
                                                         ENVELOPE_ANGLES)
        per_bin = diag_grid.max(axis=1).reshape(3, ENVELOPE_BINS).max(axis=0)
        envelope = ENVELOPE_SAFETY * np.maximum(per_bin, 1e-300)
        bin_mass = envelope * (edges[1:] ** 2 - edges[:-1] ** 2)
        bin_prob = bin_mass / bin_mass.sum()

        accepted = None
        draw_proposals = 0
        while accepted is None:
            idx = rng.choice(ENVELOPE_BINS, size=PROPOSAL_BATCH, p=bin_prob)
            u1 = rng.random(PROPOSAL_BATCH)
            radii = np.sqrt(edges[idx] ** 2 + u1 * (edges[idx + 1] ** 2 - edges[idx] ** 2))
            angles = 2.0 * np.pi * rng.random(PROPOSAL_BATCH)
            cand = radii * np.exp(1j * angles)
            dvals = current_diagonal(cand)
            ratio = dvals / envelope[idx]
            # a rare envelope violation is accepted outright and the bin raised
            hits = rng.random(PROPOSAL_BATCH) < ratio
            draw_proposals += PROPOSAL_BATCH
            proposals += PROPOSAL_BATCH
            over = ratio > 1.0
            if np.any(over):
                envelope[idx[over]] = ENVELOPE_SAFETY * dvals[over]
            if np.any(hits):
                accepted = cand[int(np.argmax(hits))]
            elif draw_proposals > MAX_PROPOSALS:
                raise SamplerError(
                    f"rejection sampling stalled at draw {t + 1}/{nq}: "
                    f"{draw_proposals} proposals without acceptance "
                    f"(weight {K.weight.spec_string()}, q={spec.q}, n={spec.n}, m={spec.m})"
                )

        points[t] = accepted
        g = features(np.array([accepted]))[:, 0]
        if frame.shape[0]:
            g = g - (frame.conj() @ g) @ frame
            # second orthogonalization pass controls roundoff growth
            g = g - (frame.conj() @ g) @ frame
        norm = np.linalg.norm(g)
        if norm <= 0.0:
            raise SamplerError(f"degenerate frame update at draw {t + 1}/{nq}")
        u_new = g / norm
        frame = np.vstack([frame, u_new])
        # fold the new direction into the cached probe diagonal
        diag_probes = diag_probes - np.abs(u_new.conj() @ phi_probes) ** 2

    return PointConfiguration(points=points, seed=int(seed), q=spec.q, n=spec.n,
                              m=spec.m, weight=K.weight.spec_string(),
                              proposals_used=proposals)


def sample_batch(K: KernelEvaluator, count: int, master_seed: int,
                 eq: RadialEquilibrium | None = None,
                 workers: int = 1) -> list[PointConfiguration]:
    """Sample independent configurations with documented seed splitting."""
    eq = eq or K.equilibrium
    seeds = [seed_for_index(master_seed, i) for i in range(count)]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda s: sample_configuration(K, eq, s), seeds))
    return [sample_configuration(K, eq, s) for s in seeds]


@dataclass
class IntensityComparison:
    bin_edges: np.ndarray
    observed_mean: np.ndarray
    observed_std: np.ndarray
    predicted: np.ndarray
    standardized: np.ndarray
    exterior_mean: float
    n_samples: int

    @property
    def max_standardized(self) -> float:
        return float(np.max(np.abs(self.standardized)))


def empirical_intensity(K: KernelEvaluator, samples: list[PointConfiguration],
                        bin_edges) -> IntensityComparison:
    """Per-annulus empirical counts against the integrated intensity."""
    if len(samples) < 100:
        raise ConfigurationError("empirical intensity needs at least 100 samples")
    spec = K.spec
    for s in samples:
        if (s.q, s.n, s.m, s.weight) != (spec.q, spec.n, spec.m, K.weight.spec_string()):
            raise ConfigurationError(
                "sample was drawn from a different space than the evaluator"
            )
    edges = np.asarray(bin_edges, dtype=float)
    counts = np.array([
        np.histogram(np.abs(s.points), bins=edges)[0] for s in samples
    ], dtype=float)
    observed = counts.mean(axis=0)
    std = counts.std(axis=0, ddof=1)
    x, v = np.polynomial.legendre.leggauss(160)
    predicted = np.empty(edges.size - 1)
    for i in range(edges.size - 1):
        r = 0.5 * (edges[i + 1] - edges[i]) * (x + 1.0) + edges[i]
        wq = 0.5 * (edges[i + 1] - edges[i]) * v
        gamma = np.asarray(K.one_point_intensity(r.astype(complex)))
        predicted[i] = 2.0 * np.sum(wq * gamma * r)
    sem = np.maximum(std, 1e-12) / math.sqrt(len(samples))
    standardized = (observed - predicted) / sem
    exterior = float(np.mean([
        np.sum(np.abs(s.points) >= edges[-1]) for s in samples
    ]))
    return IntensityComparison(bin_edges=edges, observed_mean=observed,
                               observed_std=std, predicted=predicted,
                               standardized=standardized, exterior_mean=exterior,
                               n_samples=len(samples))


def export_configuration(path_csv: str, path_json: str,
                         config: PointConfiguration) -> None:
    """CSV of re,im rows plus a JSON sidecar with the run metadata."""
    from .reporting import atomic_write_text, format_float, json_dumps

    lines = ["re,im"]
    for z in config.points:
        lines.append(f"{format_float(float(z.real))},{format_float(float(z.imag))}")
    atomic_write_text(path_csv, "\n".join(lines) + "\n")
    sidecar = {
        "seed": config.seed,
        "q": config.q,
        "n": config.n,
        "m": float(config.m),
        "weight": config.weight,
        "proposals_used": config.proposals_used,
    }
    atomic_write_text(path_json, json_dumps(sidecar) + "\n")
