"""Exact sampling of the determinantal process and empirical statistics.

The correlation kernel is a projection onto an nq-dimensional space, so the
process is sampled exactly by sequential peeling (Hough, Krishnapur, Peres,
Virag, Probab. Surveys 3 (2006), Alg. 18): draw a point from the current
normalized diagonal, orthogonally project the frame against the drawn
point's feature vector, repeat nq times.  The features

    Phi_a(z) = e_a(z) e^{-mQ(z)/2}

are the evaluator's own feature map, so gamma(z) = ||Phi(z)||^2 is the
one-point intensity and after t draws the diagonal is
gamma(z) - sum_i |<u_i, Phi(z)>|^2, with u_i the orthonormalized features of
the accepted points.  By Bessel's inequality that never exceeds gamma, and
gamma is exactly radial for every catalog weight, so one envelope serves
every draw and every configuration: per radial bin, ENVELOPE_MARGIN times the
largest gamma at the bin's two edges and midpoint, over ENVELOPE_BINS bins.
The maxima are tabulated once per evaluator, and the margin is applied on
each use.  Proposals are uniform on a bin's annulus, bins drawn in
proportion to their envelope mass, and accepted with probability
diagonal / envelope.  A proposal whose gamma exceeds its bin's envelope
raises SamplerError.  The sampling disk has radius R + 6 m^{-1/2} + 0.5; the
mass outside it decays exponentially and is far below 1e-8 at desk scale.

Because the envelope does not change from draw to draw, proposals are drawn
ahead in blocks.  With envelope mass M, draw t takes M / (nq - t) proposals
on average, so a block drawn at draw t holds M (1/(nq - t) + ... + 1/1), the
proposals expected for every remaining draw, but at most PAIR_CHUNK feature
entries and never fewer than M / (nq - t).  The features and the residual
diagonal of a block are evaluated once; each acceptance then downdates the
diagonal of the block's pending proposals by |<u_t, Phi>|^2 of the new frame
vector alone.  A configuration at nq = 40 usually takes one or two blocks.

Randomness comes from numpy's Philox counter-based generator, keyed by a
seed that must be an integer in [0, 2^64).  A batch of configurations
derives one 64-bit child seed per configuration index through numpy's
SeedSequence(master, index) spawning, so a configuration depends
only on the master seed and its index, not on the batch it is drawn in.
Proposal k of a configuration uses row k of the uniforms drawn from its
stream, so the points do not depend on how the proposals are blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SamplerError
from .kernel import PAIR_CHUNK, KernelEvaluator
from .quadrature import gauss_legendre_on
from .reporting import atomic_write_text, json_dumps, write_csv

ENVELOPE_BINS = 256
ENVELOPE_MARGIN = 1.02
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


def _seed(seed, name: str) -> int:
    """``seed`` as an integer in [0, 2^64), else a ConfigurationError naming it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= int(seed) < 2**64:
        raise ConfigurationError(f"{name} must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _radial_envelope(K: KernelEvaluator) -> tuple[np.ndarray, np.ndarray]:
    """Bin edges of the sampling disk and a per-bin bound on gamma.

    The bound is ENVELOPE_MARGIN times the largest gamma at the bin's edges
    and midpoint.  Those maxima depend only on the space, so they are
    tabulated once per evaluator; the margin is applied on every call.
    Concurrent first calls may tabulate them twice, with identical results.
    """
    cached = K._derived.get("radial_envelope")
    if cached is None:
        r_max = K.equilibrium.droplet_radius + 6.0 / math.sqrt(K.spec.m) + 0.5
        edges = np.linspace(0.0, r_max, ENVELOPE_BINS + 1)
        probes = np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])
        gamma = np.sum(np.abs(K._features.weighted(probes)) ** 2, axis=0)
        at_edges, at_mid = gamma[:edges.size], gamma[edges.size:]
        cached = edges, np.maximum(np.maximum(at_edges[:-1], at_edges[1:]), at_mid)
        K._derived["radial_envelope"] = cached
    edges, per_bin = cached
    return edges, ENVELOPE_MARGIN * per_bin


def sample_configuration(K: KernelEvaluator, seed: int) -> PointConfiguration:
    """Draw one exact configuration of the nq-point process.

    ``seed`` must be an integer in [0, 2^64); it keys the Philox stream.
    """
    seed = _seed(seed, "seed")
    spec = K.spec
    nq = spec.dim
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    edges, envelope = _radial_envelope(K)
    area = edges[1:] ** 2 - edges[:-1] ** 2
    cdf = np.cumsum(envelope * area)
    mass = cdf[-1]  # integral of the envelope against dA = d^2z / pi
    cdf /= mass

    frame = np.zeros((nq, nq), dtype=complex)  # conjugated orthonormal rows
    points = np.empty(nq, dtype=complex)
    proposals = 0
    space = f"weight {K.weight.spec_string()}, q={spec.q}, n={spec.n}, m={spec.m}"

    # A block's residual diagonal is projected once, against frame[:t], and
    # then downdated by the one new frame row after each acceptance, so it
    # always holds the diagonal of the current draw; proposals left in a
    # block carry over to the next draw.
    cap = PAIR_CHUNK // K._features.p.size  # proposals per block, by entries
    taken = size = 0  # proposals of the current block consumed, and drawn
    for t in range(nq):
        draw_start = proposals
        while True:
            if taken == size:
                # proposals per acceptance is mass / (nq - s) on average at draw s
                expected = mass * sum(1.0 / r for r in range(1, nq - t + 1))
                size = max(math.ceil(mass / (nq - t)), min(math.ceil(expected), cap))
                taken = 0
                u = rng.random((size, 4))
                idx = np.searchsorted(cdf, u[:, 0], side="right")
                cand = np.sqrt(edges[idx] ** 2 + u[:, 1] * area[idx]) \
                    * np.exp(2j * np.pi * u[:, 2])
                phi = K._features.weighted(cand)
                gamma = np.sum(np.abs(phi) ** 2, axis=0)
                bound = envelope[idx]
                worst = int(np.argmax(gamma / bound))
                if gamma[worst] > bound[worst]:
                    b = int(idx[worst])
                    raise SamplerError(
                        f"envelope violated at draw {t + 1}/{nq}: gamma/envelope = "
                        f"{gamma[worst] / bound[worst]:.4f} in radial bin {b} "
                        f"[{edges[b]:.6g}, {edges[b + 1]:.6g}] ({space})"
                    )
                threshold = u[:, 3] * bound
                diag = gamma - np.sum(np.abs(frame[:t] @ phi) ** 2, axis=0)
            hits = np.flatnonzero(threshold[taken:] < diag[taken:])
            consumed = int(hits[0]) + 1 if hits.size else size - taken
            taken += consumed
            proposals += consumed
            if hits.size:
                break
            if proposals - draw_start > MAX_PROPOSALS:
                raise SamplerError(
                    f"rejection sampling stalled at draw {t + 1}/{nq}: "
                    f"{proposals - draw_start} proposals without acceptance ({space})"
                )

        hit = taken - 1
        points[t] = cand[hit]
        g = phi[:, hit]
        # two passes of g -= sum_i <u_i, g> u_i; the second controls roundoff
        for _ in range(2):
            g = g - ((frame[:t] @ g).conj() @ frame[:t]).conj()
        norm = np.linalg.norm(g)
        if norm <= 0.0:
            raise SamplerError(f"degenerate frame update at draw {t + 1}/{nq}")
        frame[t] = g.conj() / norm
        proj = frame[t] @ phi[:, taken:]
        diag[taken:] -= proj.real ** 2 + proj.imag ** 2

    return PointConfiguration(points=points, seed=seed, q=spec.q, n=spec.n,
                              m=spec.m, weight=K.weight.spec_string(),
                              proposals_used=proposals)


def sample_batch(K: KernelEvaluator, count: int,
                 master_seed: int) -> list[PointConfiguration]:
    """Sample independent configurations with documented seed splitting.

    ``count`` must be an integer >= 0 and ``master_seed`` one in [0, 2^64).
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise ConfigurationError(f"count must be an integer >= 0, got {count!r}")
    master_seed = _seed(master_seed, "master_seed")
    return [sample_configuration(K, seed_for_index(master_seed, i)) for i in range(count)]


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
    if not (edges.ndim == 1 and edges.size >= 2 and np.all(np.isfinite(edges))
            and edges[0] >= 0.0 and np.all(np.diff(edges) > 0.0)):
        raise ConfigurationError(
            "bin_edges must be at least 2 finite, nonnegative, strictly increasing "
            f"radii, got {bin_edges!r}")
    counts = np.array([
        np.histogram(np.abs(s.points), bins=edges)[0] for s in samples
    ], dtype=float)
    observed = counts.mean(axis=0)
    std = counts.std(axis=0, ddof=1)
    r, wq = gauss_legendre_on(160, edges[:-1], edges[1:])  # (bins, 160)
    gamma = K.one_point_intensity(r.astype(complex))
    predicted = 2.0 * np.sum(wq * gamma * r, axis=1)
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
    write_csv(path_csv, ["re", "im"], zip(config.points.real, config.points.imag))
    sidecar = {
        "seed": config.seed,
        "q": config.q,
        "n": config.n,
        "m": float(config.m),
        "weight": config.weight,
        "proposals_used": config.proposals_used,
    }
    atomic_write_text(path_json, json_dumps(sidecar) + "\n")
