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
Proposals are uniform on a bin's annulus, bins drawn in proportion to their
envelope mass, and accepted with probability diagonal / envelope.  The
envelope, this law and the block and group sizes below are one table,
_ProposalLaw, tabulated once per evaluator and freed with it.  A proposal
whose gamma exceeds its bin's envelope raises SamplerError.  The sampling
disk is the disk of the evaluator's trace, of radius R + 12 m^{-1/2}, so the
trace is gamma's mass inside it, and a trace more than DISK_MASS_TOL nq off
nq raises SamplerError: it is when n is well above m, whose points fill a
droplet wider than the disk.

Because the envelope does not change from draw to draw, proposals are drawn
ahead in blocks.  With envelope mass M, draw t takes M / (nq - t) proposals
on average, so a block drawn at draw t holds M (1/(nq - t) + ... + 1/1), the
proposals expected for every remaining draw, but at most PAIR_CHUNK feature
entries.  A block's features are evaluated once.  Its residual diagonal is
projected on the frame when the search first reaches it, in steps of
PAIR_CHUNK / 8 feature entries, and from then on each acceptance downdates
it by |<u_t, Phi>|^2 of the new frame vector alone.  A configuration at
nq = 40 usually takes one or two blocks.

Configurations are drawn in groups, in lockstep: the frames and pending
blocks of a group are stacked, and the search, the two Gram-Schmidt passes,
the norm and the downdate of each draw run once for the whole group.  The
first blocks of a group come from one feature call, so sample_batch groups
as many consecutive configurations as keep those blocks within PAIR_CHUNK
feature entries: 17 at ginibre q = 2, n = m = 20 (nq = 40), and one at
n = m = 60 (nq = 120).  A block that runs out is redrawn for its configuration alone.
sample_configuration is a group of one.

Randomness comes from numpy's Philox counter-based generator, keyed by a
seed that must be an integer in [0, 2^64).  A batch of configurations
derives one 64-bit child seed per configuration index through numpy's
SeedSequence(master, index) spawning, so a configuration depends
only on the master seed and its index, not on the batch it is drawn in.
Proposal k of a configuration uses row k of the uniforms drawn from its
stream, so the points do not depend on how the proposals are blocked or
grouped.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SamplerError, require_integer
from .kernel import PAIR_CHUNK, KernelEvaluator
from .quadrature import gauss_legendre_on

ENVELOPE_BINS = 256
ENVELOPE_MARGIN = 1.02
MAX_PROPOSALS = 10**6
DISK_MASS_TOL = 1e-6  # largest mass of gamma outside the sampling disk, per point
_LAWS = weakref.WeakKeyDictionary()  # K -> its _ProposalLaw, which holds no reference to K


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


class _ProposalLaw:
    """The radial envelope, its proposal law and block and group sizes,
    shared by a space's draws.

    ``edges`` are the bin edges of K's disk, and ``envelope`` bounds gamma
    per bin: ENVELOPE_MARGIN times the largest gamma at the bin's edges and
    midpoint.  A trace more than DISK_MASS_TOL nq off nq raises
    SamplerError; ``space`` names the space in every such error.
    """

    def __init__(self, K: KernelEvaluator):
        spec = K.spec
        edges = self.edges = np.linspace(0.0, K._disk_radius, ENVELOPE_BINS + 1)
        self.space = f"weight {K.weight.label}, q={spec.q}, n={spec.n}, m={spec.m}"
        missing = spec.dim - K.total_intensity()
        if abs(missing) > DISK_MASS_TOL * spec.dim:
            raise SamplerError(f"the sampling disk of radius {edges[-1]:.6g} misses mass "
                               f"{missing:.4g} of {spec.dim} ({self.space})")
        probes = np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])
        gamma = np.sum(np.abs(K._features.weighted(probes)) ** 2, axis=0)
        at_edges, at_mid = gamma[:edges.size], gamma[edges.size:]
        self.envelope = ENVELOPE_MARGIN * np.maximum(
            np.maximum(at_edges[:-1], at_edges[1:]), at_mid)
        self.area = edges[1:] ** 2 - edges[:-1] ** 2
        cdf = np.cumsum(self.envelope * self.area)
        mass = cdf[-1]  # integral of the envelope against dA = d^2z / pi
        self.cdf = cdf / mass
        self.cap = PAIR_CHUNK // K._features.p.size  # proposals per block, by entries
        # block[r]: the size of a block drawn with r draws to go, the proposals
        # expected for all of them (draw s takes mass / (nq - s) on average),
        # at most cap
        self.block = [1]
        harmonic = 0.0
        for r in range(1, spec.dim + 1):
            harmonic += 1.0 / r
            self.block.append(max(1, min(math.ceil(mass * harmonic), self.cap)))
        self.group = max(1, self.cap // self.block[spec.dim])  # configurations per group

    @staticmethod
    def of(K: KernelEvaluator) -> "_ProposalLaw":
        """K's law, tabulated once per evaluator and freed with it.
        Concurrent first calls may tabulate it twice, with identical results."""
        law = _LAWS.get(K)
        if law is None:
            law = _LAWS[K] = _ProposalLaw(K)
        return law


def _sample_group(K: KernelEvaluator, law: _ProposalLaw,
                  seeds: list[int]) -> list[PointConfiguration]:
    """Draw one configuration per seed, all of them together, draw by draw.

    Row g of every stacked array belongs to seeds[g], and its block fills the
    first columns.  Columns [0, split) are open: their residual diagonal is
    projected on every frame row so far, and each acceptance downdates it by
    the new row.  Later columns hold gamma until a search reaches split; then
    the next columns are projected on the frame at once and opened.  The
    search reads ``threshold``: +inf at closed and accepted columns and past
    a block, -inf at the sentinel column ``width``, where a search without an
    acceptance ends.  A rejected proposal stays rejected, since downdates
    only lower the diagonal, so every search may start at column 0 and the
    downdate at the group's smallest next column.
    """
    spec = K.spec
    nq, count = spec.dim, len(seeds)
    rngs = [np.random.Generator(np.random.Philox(key=np.uint64(s))) for s in seeds]
    # columns opened at a time: PAIR_CHUNK / 8 feature entries across the
    # group (256 kB), so that a small group opens its blocks whole at once
    step = max(1, PAIR_CHUNK // 8 // (count * nq))

    def fail(g: int, message: str):
        raise SamplerError(f"{message} ({law.space}, seed {seeds[g]})")

    def propose(group, t: int):
        """Fresh blocks for the configurations in ``group`` at draw t: their
        points, features (config, dim, size), thresholds and gamma."""
        u = np.empty((len(group), law.block[nq - t], 4))
        for i, g in enumerate(group):
            rngs[g].random(out=u[i])
        idx = np.searchsorted(law.cdf, u[..., 0], side="right")
        cand = np.sqrt(law.edges[idx] ** 2 + u[..., 1] * law.area[idx]) \
            * np.exp(2j * np.pi * u[..., 2])
        phi = K._features.weighted(cand)
        gamma = np.sum(np.abs(phi) ** 2, axis=0).reshape(idx.shape)
        bound = law.envelope[idx]
        over = gamma > bound
        if over.any():
            i = int(over.any(axis=1).argmax())
            ratio = gamma[i] / bound[i]
            b = int(idx[i, ratio.argmax()])
            fail(group[i], f"envelope violated at draw {t + 1}/{nq}: gamma/envelope = "
                           f"{ratio.max():.4f} in radial bin {b} "
                           f"[{law.edges[b]:.6g}, {law.edges[b + 1]:.6g}]")
        return cand, phi.reshape(-1, *idx.shape).transpose(1, 0, 2), u[..., 3] * bound, gamma

    cand, phi, limit, gamma = propose(range(count), 0)  # limit: the blocks' thresholds
    width = cand.shape[1]
    diag = np.concatenate([gamma, np.zeros((count, 1))], axis=1)
    threshold = np.full((count, width + 1), np.inf)
    threshold[:, width] = -np.inf
    split = 0
    size = [width] * count   # proposals in each configuration's block
    spent = [0] * count      # proposals of its earlier blocks
    frame = np.zeros((count, nq, nq), dtype=complex)  # conjugated orthonormal rows
    points = np.empty((count, nq), dtype=complex)
    at = np.arange(count)

    def reach(t: int):
        """Project the next ``step`` columns on frame rows [0, t) and open them."""
        nonlocal split
        stop = min(width, split + step)
        if t:
            proj = frame[:, :t] @ phi[:, :, split:stop]
            diag[:, split:stop] -= np.sum(np.abs(proj) ** 2, axis=1)
        threshold[:, split:stop] = limit[:, split:stop]
        split = stop

    def refill(g: int, t: int):
        """A fresh block for configuration g at draw t, its open columns
        projected on frame rows [0, t)."""
        spent[g] += size[g]
        c, p, lim, gam = propose([g], t)
        s = size[g] = c.shape[1]
        near = min(s, split)
        cand[g, :s], phi[g, :, :s], limit[g, :s], diag[g, :s] = c[0], p[0], lim[0], gam[0]
        limit[g, s:] = np.inf
        threshold[g, :near] = lim[0, :near]
        threshold[g, near:width] = np.inf
        diag[g, :near] -= np.sum(np.abs(frame[g, :t] @ p[0, :, :near]) ** 2, axis=0)

    def settle(last: list[int], t: int):
        """Resolve the searches that ended at the sentinel: open more columns,
        or give a new block to a configuration that has searched all of its
        own, until every search finds an acceptance.  ``last`` holds each
        configuration's acceptance at the previous draw."""
        drawn = {}  # proposals spent at this draw without an acceptance
        while True:
            found = (threshold < diag).argmax(axis=1)
            short = [g for g, f in enumerate(found.tolist()) if f == width]
            if not short:
                return found
            for g in short:
                if size[g] <= split:
                    drawn[g] = drawn[g] + size[g] if g in drawn else size[g] - last[g] - 1
                    if drawn[g] > MAX_PROPOSALS:
                        fail(g, f"rejection sampling stalled at draw {t + 1}/{nq}: "
                                f"{drawn[g]} proposals without acceptance")
                    refill(g, t)
            if any(size[g] > split for g in short):
                reach(t)

    reach(0)
    last = [-1] * count
    for t in range(nq):
        found = (threshold < diag).argmax(axis=1)
        hits = found.tolist()
        if max(hits) == width:
            found = settle(last, t)
            hits = found.tolist()
        points[:, t] = cand[at, found]
        threshold[at, found] = np.inf
        last = hits
        lo = min(hits) + 1

        g = phi[at, :, found][:, :, None]
        # two passes of g -= sum_i <u_i, g> u_i; the second controls roundoff
        earlier = frame[:, :t]
        for _ in range(2):
            g -= ((earlier @ g).conj().mT @ earlier).conj().mT
        norm = np.sqrt(np.vecdot(g, g, axis=1).real)
        for i, x in enumerate(norm[:, 0].tolist()):
            if not x > 0.0:
                fail(i, f"degenerate frame update at draw {t + 1}/{nq}")
        np.divide(g[:, :, 0].conj(), norm, out=frame[:, t])
        # the rank-one downdate |<u_t, Phi>|^2 of the open diagonals
        proj = (frame[:, t, None] @ phi[:, :, lo:split]).view(float)
        np.square(proj, out=proj)
        diag[:, lo:split] -= proj[:, 0, 0::2] + proj[:, 0, 1::2]

    return [PointConfiguration(points=points[g], seed=seeds[g], q=spec.q, n=spec.n,
                               m=spec.m, weight=K.weight.label,
                               proposals_used=spent[g] + last[g] + 1)
            for g in range(count)]


def sample_configuration(K: KernelEvaluator, seed: int) -> PointConfiguration:
    """Draw one exact configuration of the nq-point process.

    ``seed`` must be an integer in [0, 2^64); it keys the Philox stream.
    """
    return _sample_group(K, _ProposalLaw.of(K), [require_integer(seed, "seed", 0, 2**64)])[0]


def sample_batch(K: KernelEvaluator, count: int,
                 master_seed: int) -> list[PointConfiguration]:
    """Sample independent configurations with documented seed splitting.

    ``count`` must be an integer >= 0 (0 returns [] at once) and
    ``master_seed`` one in [0, 2^64).
    Consecutive configurations are drawn together, as many as keep their
    first blocks within PAIR_CHUNK feature entries.
    """
    count = require_integer(count, "count", 0)
    master_seed = require_integer(master_seed, "master_seed", 0, 2**64)
    if not count:
        return []
    law = _ProposalLaw.of(K)
    seeds = [seed_for_index(master_seed, i) for i in range(count)]
    return [cfg for lo in range(0, count, law.group)
            for cfg in _sample_group(K, law, seeds[lo:lo + law.group])]


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
        if (s.q, s.n, s.m, s.weight) != (spec.q, spec.n, spec.m, K.weight.label):
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
