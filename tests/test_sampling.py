"""Exact determinantal sampler: determinism, marginals, repulsion, rings."""

import functools
import gc
import math
import weakref

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

import polykernel as pk
from polykernel import sampling
from polykernel.cli import run
from polykernel.errors import ConfigurationError, SamplerError
from polykernel.kernel import PAIR_CHUNK
from polykernel.sampling import seed_for_index

from conftest import block_grams, disk_points


def test_point_count_and_determinism(spaces):
    K = spaces("ginibre", 2, 8, 8.0)
    a = pk.sample_configuration(K, 99)
    b = pk.sample_configuration(K, 99)
    c = pk.sample_configuration(K, 100)
    assert a.points.size == 16
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_configuration_refuses_a_wrong_point_count():
    with pytest.raises(ConfigurationError, match="configuration must hold 4 points, got 3"):
        pk.PointConfiguration(points=np.zeros(3, dtype=complex), seed=0, q=2, n=2, m=2.0,
                              weight="ginibre", proposals_used=3)


@pytest.mark.parametrize("weight, q, n", [("ginibre", 2, 20), ("power:p=2", 3, 12)])
def test_sampler_features_reproduce_the_kernel(spaces, weight, q, n):
    # the sampler peels directions off the evaluator's feature map, so
    # ||Phi(z)||^2 is the one-point intensity and Phi(z)^T conj(Phi(w)) is
    # the correlation kernel, relative to sqrt(gamma(z) gamma(w))
    K = spaces(weight, q, n, float(n))
    rng = np.random.default_rng(12)
    R = K.equilibrium.droplet_radius
    z = np.concatenate([[0.0], disk_points(rng, 30, 1.4 * R)])
    w = disk_points(rng, 31, 1.4 * R)
    phi_z, phi_w = K._features.weighted(z), K._features.weighted(w)
    assert phi_z.shape == (K.spec.dim, z.size)
    gz, gw = K.one_point_intensity(z), K.one_point_intensity(w)
    np.testing.assert_allclose(np.sum(np.abs(phi_z) ** 2, axis=0), gz, rtol=1e-12)
    cross = np.sum(phi_z * phi_w.conj(), axis=0)
    err = np.abs(cross - K.weighted_kernel(z, w)) / np.sqrt(gz * gw)
    assert np.max(err) < 1e-12


@pytest.mark.parametrize("weight, q, n", [("ginibre", 2, 20), ("power:p=3", 3, 12),
                                           ("ginibre", 6, 12)])
def test_envelope_bounds_gamma(spaces, weight, q, n):
    # by Bessel's inequality every draw's diagonal is at most gamma, so the
    # radial envelope must bound gamma everywhere on the sampling disk,
    # inside the droplet and far beyond it
    K = spaces(weight, q, n, float(n))
    law = sampling._ProposalLaw.of(K)
    edges, envelope = law.edges, law.envelope
    r_max = edges[-1]
    assert r_max == K._disk_radius
    rng = np.random.default_rng(61)
    R = K.equilibrium.droplet_radius
    z = np.concatenate([disk_points(rng, 3000, 1.2 * R), disk_points(rng, 3000, r_max)])
    assert np.any(np.abs(z) > 2.0 * R)
    bins = np.clip(np.searchsorted(edges, np.abs(z), side="right") - 1,
                   0, envelope.size - 1)
    gamma, bound = K.one_point_intensity(z), envelope[bins]
    assert np.all(gamma <= bound)  # far bins where gamma underflows hold 0
    assert np.max(gamma[bound > 0] / bound[bound > 0]) > 0.9  # tight, not just large
    assert pk.sample_configuration(K, 3).points.size == K.spec.dim


def test_broken_envelope_fails_loudly(monkeypatch, tmp_path):
    # an envelope below gamma must raise, never accept the proposal, and name
    # the seed of the configuration, so that a failure in a batch replays;
    # the space is its own, since a space keeps the law of its first draw
    monkeypatch.setattr(sampling, "ENVELOPE_MARGIN", 0.5)
    K = pk.build_space(pk.parse_weight("ginibre"), pk.SpaceSpec(2, 8, 8.0))
    with pytest.raises(SamplerError, match=r"draw 1/16: gamma/envelope = \d.*seed 99\)"):
        pk.sample_configuration(K, 99)
    seed = seed_for_index(7, 0)
    with pytest.raises(SamplerError, match=rf"draw 1/16: gamma/envelope = \d.*seed {seed}\)"):
        pk.sample_batch(K, 3, 7)
    argv = ["sample", "--weight", "ginibre", "--q", "2", "--n", "8", "--m", "8",
            "--count", "1", "--seed", "7", "--outdir", str(tmp_path / "out")]
    assert run(argv) == 2


@pytest.mark.parametrize("count, seed", [(1, -1), (1, 1.5), (1, 2**64), (1, True),
                                         (-1, 0), (1.5, 0)])
def test_bad_seeds_and_counts_are_refused(spaces, count, seed):
    K = spaces("ginibre", 2, 8, 8.0)
    name = "count" if count != 1 else "seed"
    with pytest.raises(ConfigurationError, match=name):
        pk.sample_batch(K, count, seed)
    if count == 1:
        with pytest.raises(ConfigurationError, match=name):
            pk.sample_configuration(K, seed)


def test_seed_split_documented_and_stable():
    s0 = seed_for_index(7, 0)
    s1 = seed_for_index(7, 1)
    assert s0 != s1
    assert s0 == seed_for_index(7, 0)  # stable across calls and processes


def test_batch_matches_per_index_sampling(spaces):
    K = spaces("ginibre", 2, 8, 8.0)
    batch = pk.sample_batch(K, 3, 123)
    for i, cfg in enumerate(batch):
        solo = pk.sample_configuration(K, seed_for_index(123, i))
        assert np.array_equal(cfg.points, solo.points)


def _reference_configuration(K, seed):
    """One proposal at a time from the same Philox stream, each diagonal
    gamma - sum_i |<u_i, Phi>|^2 by a fresh projection on the frame."""
    nq = K.spec.dim
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    law = sampling._ProposalLaw.of(K)
    edges, envelope = law.edges, law.envelope
    area = edges[1:] ** 2 - edges[:-1] ** 2
    cdf = np.cumsum(envelope * area)
    cdf /= cdf[-1]
    frame = np.zeros((nq, nq), dtype=complex)  # conjugated orthonormal rows
    points = np.empty(nq, dtype=complex)
    proposals = 0
    for t in range(nq):
        while True:
            u = rng.random((1, 4))
            proposals += 1
            idx = np.searchsorted(cdf, u[:, 0], side="right")
            z = np.sqrt(edges[idx] ** 2 + u[:, 1] * area[idx]) * np.exp(2j * np.pi * u[:, 2])
            phi = K._features.weighted(z)
            gamma = np.sum(np.abs(phi) ** 2, axis=0)
            assert gamma[0] <= envelope[idx[0]]
            diag = gamma - np.sum(np.abs(frame[:t] @ phi) ** 2, axis=0)
            if u[0, 3] * envelope[idx[0]] < diag[0]:
                break
        points[t] = z[0]
        g = phi[:, 0]
        for _ in range(2):
            g = g - ((frame[:t] @ g).conj() @ frame[:t]).conj()
        frame[t] = g.conj() / np.linalg.norm(g)
    return points, proposals


@pytest.mark.parametrize("weight, q, n", [("ginibre", 2, 20), ("power:p=2", 3, 30),
                                           ("ginibre", 1, 60)])
def test_block_sampler_matches_one_proposal_at_a_time(spaces, weight, q, n):
    # blocks of proposals and rank-one downdates of their residual diagonal
    # change neither the points nor the proposal count of any configuration
    K = spaces(weight, q, n, float(n))
    for i in range(10):
        seed = seed_for_index(404, i)
        cfg = pk.sample_configuration(K, seed)
        points, proposals = _reference_configuration(K, seed)
        assert cfg.points.tobytes() == points.tobytes()
        assert cfg.proposals_used == proposals


def test_stalled_draw_names_its_seed(monkeypatch):
    # with blocks of one proposal every rejection exhausts a block, so a
    # limit of 0 proposals per draw stalls at the first rejection: the
    # first configuration's, at its third draw, after its one proposal there
    K = pk.build_space(pk.parse_weight("ginibre"), pk.SpaceSpec(2, 8, 8.0))
    monkeypatch.setattr(sampling, "PAIR_CHUNK", 1)
    monkeypatch.setattr(sampling, "MAX_PROPOSALS", 0)
    seed = seed_for_index(5, 0)
    with pytest.raises(SamplerError, match=r"^rejection sampling stalled at draw 3/16: 1 proposals "
                       rf"without acceptance \(weight ginibre, q=2, n=8, m=8\.0, seed {seed}\)$"):
        pk.sample_batch(K, 2, 5)


@pytest.mark.parametrize("weight, q, n, count, group", [
    ("ginibre", 1, 60, 9, 7), ("power:p=2", 3, 30, 3, 2), ("ginibre", 8, 12, 2, 1),
    ("ginibre", 1, 1, 5, 65536)])
def test_batch_groups_match_each_configuration_alone(spaces, weight, q, n, count, group):
    # sample_batch draws `group` consecutive configurations in lockstep; each
    # is bitwise the one drawn alone and the one drawn a proposal at a time
    K = spaces(weight, q, n, float(n))
    law = sampling._ProposalLaw.of(K)
    assert law.group == group
    assert count > group or K.spec.dim == 1  # two groups, the last one short
    for i, cfg in enumerate(pk.sample_batch(K, count, 31)):
        seed = seed_for_index(31, i)
        solo = pk.sample_configuration(K, seed)
        points, proposals = _reference_configuration(K, seed)
        assert cfg.seed == seed
        assert cfg.points.tobytes() == solo.points.tobytes() == points.tobytes()
        assert cfg.proposals_used == solo.proposals_used == proposals


def _count_feature_calls(K, monkeypatch):
    sampling._ProposalLaw.of(K)  # the envelope's own probes are not a block
    sizes = []
    weighted = K._features.weighted

    def wrapped(z):
        sizes.append(np.size(z))
        return weighted(z)

    monkeypatch.setattr(K._features, "weighted", wrapped)
    return sizes


def test_blocks_respect_the_entry_bound(spaces, monkeypatch):
    # nq = 200: the proposals expected for a whole configuration would exceed
    # PAIR_CHUNK feature entries, so blocks stop at the bound
    K = spaces("ginibre", 2, 100, 100.0)
    nq, entries = K.spec.dim, K._features.p.size
    law = sampling._ProposalLaw.of(K)
    edges, envelope = law.edges, law.envelope
    mass = np.sum(envelope * (edges[1:] ** 2 - edges[:-1] ** 2))
    assert nq * mass * sum(1.0 / r for r in range(1, nq + 1)) > PAIR_CHUNK
    assert mass < PAIR_CHUNK // entries  # so no per-draw batch exceeds it
    sizes = _count_feature_calls(K, monkeypatch)
    cfgs = pk.sample_batch(K, 2, 8)
    assert max(sizes) * entries <= PAIR_CHUNK
    assert max(sizes) == PAIR_CHUNK // entries
    assert sum(sizes) >= sum(c.proposals_used for c in cfgs)
    # a block cut at the bound leaves the stream as it was
    points, proposals = _reference_configuration(K, seed_for_index(8, 0))
    assert cfgs[0].points.tobytes() == points.tobytes()
    assert cfgs[0].proposals_used == proposals


def test_groups_respect_the_entry_bound(spaces, monkeypatch):
    # nq = 40: 17 first blocks fit in PAIR_CHUNK feature entries, so 20
    # configurations are two groups, each with its first blocks in one call
    K = spaces("ginibre", 2, 20, 20.0)
    entries, first = K._features.p.size, sampling._ProposalLaw.of(K).block[K.spec.dim]
    group = PAIR_CHUNK // entries // first
    assert group == 17
    sizes = _count_feature_calls(K, monkeypatch)
    pk.sample_batch(K, 20, 12)
    assert max(sizes) * entries <= PAIR_CHUNK
    assert sizes[0] == group * first and (20 - group) * first in sizes
    assert all(s <= first for s in sizes if s not in (group * first, (20 - group) * first))


def test_a_law_lives_as_long_as_its_evaluator(monkeypatch):
    # tabulated once per evaluator, shared by its draws, not by an equal
    # space's evaluator, for no batch of no configurations, and freed with
    # the evaluator: a law holds no reference back to it
    monkeypatch.setattr(sampling, "_LAWS", weakref.WeakKeyDictionary())
    tabulated = []
    init = sampling._ProposalLaw.__init__
    monkeypatch.setattr(sampling._ProposalLaw, "__init__",
                        lambda law, K: tabulated.append(K.spec) or init(law, K))
    weight, spec = pk.parse_weight("ginibre"), pk.SpaceSpec(2, 8, 8.0)
    K = pk.build_space(weight, spec)
    assert pk.sample_batch(K, 0, 0) == [] and not tabulated and not sampling._LAWS
    pk.sample_batch(K, 20, 3)
    pk.sample_configuration(K, 4)
    law = sampling._ProposalLaw.of(K)
    assert tabulated == [spec] and sampling._LAWS[K] is law
    twin = pk.build_space(weight, spec)
    assert sampling._ProposalLaw.of(twin) is not law and tabulated == [spec, spec]
    alive = weakref.ref(K), weakref.ref(twin)
    del K, twin
    gc.collect()
    assert alive[0]() is None and alive[1]() is None and not sampling._LAWS


def test_a_configuration_takes_few_feature_calls(spaces, monkeypatch):
    # one call per block, not one per accepted point (about 39 at nq = 40)
    K = spaces("ginibre", 2, 20, 20.0)
    sizes = _count_feature_calls(K, monkeypatch)
    calls = []
    for i in range(20):
        before = len(sizes)
        pk.sample_configuration(K, seed_for_index(77, i))
        calls.append(len(sizes) - before)
    assert calls[0] <= 3
    assert np.median(calls) <= 2 and np.mean(calls) <= 3


def test_points_inside_sampling_disk(spaces):
    K = spaces("ginibre", 2, 12, 12.0)
    r_max = K._disk_radius
    for cfg in pk.sample_batch(K, 5, 31):
        assert np.all(np.abs(cfg.points) <= r_max)


def test_single_point_marginal_mean(spaces):
    # q = n = m = 1: the single point has density e^{-|z|^2}, so E|z|^2 = 1
    K = spaces("ginibre", 1, 1, 1.0)
    vals = np.array([
        pk.sample_configuration(K, seed_for_index(2024, i)).points[0]
        for i in range(10_000)
    ])
    r2 = np.abs(vals) ** 2
    se = r2.std(ddof=1) / math.sqrt(r2.size)
    assert abs(r2.mean() - 1.0) < 3.0 * se


def test_exchangeability_of_joint_density(spaces):
    K = spaces("ginibre", 2, 4, 4.0)
    for i in range(5):
        cfg = pk.sample_configuration(K, seed_for_index(55, i))
        fwd = K.joint_density(cfg.points)
        rev = K.joint_density(cfg.points[::-1])
        assert fwd > 0.0
        assert rev == pytest.approx(fwd, rel=1e-10)


def test_short_range_repulsion(spaces):
    # pair density at separation < 0.2 m^{-1/2} is far below its value at
    # 3 m^{-1/2}; compare per-area pair counts in the two annuli
    m = 20.0
    K = spaces("ginibre", 1, 20, m)
    near_edge = 0.2 / math.sqrt(m)
    ref_lo, ref_hi = 2.5 / math.sqrt(m), 3.5 / math.sqrt(m)
    near_count = ref_count = 0
    configs = pk.sample_batch(K, 1000, 808)
    for cfg in configs:
        pts = cfg.points
        sep = np.abs(pts[:, None] - pts[None, :])
        iu = np.triu_indices(pts.size, k=1)
        sep = sep[iu]
        near_count += int(np.sum(sep < near_edge))
        ref_count += int(np.sum((sep >= ref_lo) & (sep < ref_hi)))
    near_density = near_count / near_edge**2
    ref_density = ref_count / (ref_hi**2 - ref_lo**2)
    assert ref_count > 100  # enough statistics for the comparison
    assert near_density < 0.2 * ref_density


def _anchored_pair_counts(K, anchor_cut, edges, m):
    """Expected pairs per configuration: anchor |z| < anchor_cut, sqrt(m)|z-w| binned.

    The two-point intensity gamma(z)gamma(w) - |K(z,w)|^2, and also the
    uncorrelated gamma(z)gamma(w), integrated over w in each annulus around
    z and over the anchor disk.  The weight is radial, so anchors are taken
    on the positive axis with area weight 2r dr.
    """
    x, v = np.polynomial.legendre.leggauss(24)
    r = 0.5 * anchor_cut * (x + 1.0)
    wr = anchor_cut * v * r
    xs, vs = np.polynomial.legendre.leggauss(6)
    lo, hi = edges[:-1, None] / math.sqrt(m), edges[1:, None] / math.sqrt(m)
    s = 0.5 * (hi - lo) * (xs + 1.0) + lo
    ws = 0.5 * (hi - lo) * vs * s
    theta = 2.0 * np.pi * np.arange(64) / 64
    z = np.broadcast_to(r[:, None, None, None].astype(complex), (r.size,) + s.shape + (64,))
    w = z + s[None, :, :, None] * np.exp(1j * theta)
    both = K.one_point_intensity(r.astype(complex))[:, None, None, None] \
        * K.one_point_intensity(w)
    exact = both - np.abs(K.weighted_kernel(z, w)) ** 2
    anchors = float(np.sum(wr * K.one_point_intensity(r.astype(complex))))
    return [np.einsum("i,ijkl,jk->j", wr, f, ws) * (2.0 / 64) for f in (exact, both)], anchors


def test_ring_structure_q3(spaces):
    # Same-configuration pair counts around anchors |z| < 0.6, binned in the
    # rescaled separation sqrt(m)|z - w|, against the exact two-point
    # intensity gamma(z)gamma(w) - |K(z,w)|^2, whose profile dips at the
    # Laguerre zeros sqrt(3 -+ sqrt(3)).  Standard errors come from the
    # spread across configurations.  Each count has the expected anchor
    # count subtracted in proportion (a control variate with mean zero),
    # which removes the shared noise of the number of anchors.
    m = 16.0
    K = spaces("ginibre", 3, 16, m)
    anchor_cut = 0.6
    edges = np.linspace(0.0, 3.2, 17)
    (expect, uncorrelated), anchors = _anchored_pair_counts(K, anchor_cut, edges, m)
    configs = pk.sample_batch(K, 300, 910)
    counts = np.empty((len(configs), edges.size - 1))
    held = np.empty(len(configs))
    for i, cfg in enumerate(configs):
        keep = np.abs(cfg.points) < anchor_cut
        sep = (np.abs(cfg.points[keep][:, None] - cfg.points[None, :]) * math.sqrt(m)).ravel()
        counts[i] = np.histogram(sep[sep > 1e-9], bins=edges)[0]
        held[i] = np.sum(keep)

    def standardized(prediction):
        resid = counts - np.outer(held, prediction / anchors)
        return resid.mean(axis=0) / (resid.std(axis=0, ddof=1) / math.sqrt(len(configs)))

    assert np.max(np.abs(standardized(expect))) < 4.0
    # the same statistic sees the correlation hole far beyond its noise
    assert np.max(np.abs(standardized(uncorrelated))) > 20.0


def test_empirical_intensity_small_run(spaces):
    K = spaces("ginibre", 2, 12, 12.0)
    samples = pk.sample_batch(K, 150, 4242)
    comp = pk.empirical_intensity(K, samples, np.linspace(0.0, 1.4, 8))
    assert comp.max_standardized < 5.0
    # count conservation: binned plus exterior equals nq for every sample
    for cfg in samples[:10]:
        inside = np.sum(np.abs(cfg.points) < 1.4)
        outside = np.sum(np.abs(cfg.points) >= 1.4)
        assert inside + outside == 24


def test_empty_bin_beyond_twice_radius(spaces):
    K = spaces("ginibre", 2, 12, 12.0)
    samples = pk.sample_batch(K, 150, 4242)
    R = K.equilibrium.droplet_radius
    # predicted mass beyond 2R is negligible and nothing lands there
    x, v = np.polynomial.legendre.leggauss(96)
    r = 2.0 * R + 0.5 * 2.0 * (x + 1.0)
    wq = v * 1.0
    tail = float(np.sum(wq * 2.0 * r * K.one_point_intensity(r.astype(complex))))
    assert tail < 1e-4 * K.spec.dim
    beyond = [np.sum(np.abs(c.points) > 2.0 * R) for c in samples]
    assert np.mean([b == 0 for b in beyond]) >= 0.99


def test_empirical_intensity_guards(spaces):
    K = spaces("ginibre", 2, 12, 12.0)
    other = spaces("ginibre", 2, 8, 8.0)
    samples = pk.sample_batch(other, 100, 1)
    with pytest.raises(ConfigurationError):
        pk.empirical_intensity(K, samples, np.linspace(0.0, 1.4, 8))
    with pytest.raises(ConfigurationError):
        pk.empirical_intensity(K, pk.sample_batch(K, 2, 1), np.linspace(0.0, 1.4, 8))


@pytest.mark.parametrize("edges", [[1.0, 0.5, 2.0], [0.0, np.nan, 1.0], [1.0],
                                   [-0.5, 0.5, 1.0]],
                         ids=["decreasing", "nan", "single", "negative"])
def test_empirical_intensity_refuses_bad_bin_edges(spaces, edges):
    # each list breaks one condition on the radii: order, finiteness, count, sign
    K = spaces("ginibre", 1, 4, 4.0)
    samples = pk.sample_batch(K, 100, 3)
    with pytest.raises(ConfigurationError, match="bin_edges"):
        pk.empirical_intensity(K, samples, edges)


def test_configuration_export(tmp_path, spaces):
    K = spaces("ginibre", 2, 8, 8.0)
    cfg = pk.sample_configuration(K, 77)
    csv = tmp_path / "cfg.csv"
    sidecar = tmp_path / "cfg.json"
    from polykernel.cli import export_configuration

    export_configuration(str(csv), str(sidecar), cfg)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "re,im" and len(lines) == 17
    meta = sidecar.read_text()
    assert '"seed": 77' in meta and '"weight": "ginibre"' in meta


@pytest.mark.parametrize("q, n, m, radius, missing", [
    (1, 400, 20.0, r"3\.68328", r"128\.7"),
    (2, 400, 40.0, r"2\.89737", r"128\.4"),
], ids=["q1-n400-m20", "q2-n400-m40"])
def test_a_disk_that_misses_mass_is_refused(tmp_path, q, n, m, radius, missing):
    # n = 20 m and 10 m fill droplets of radius sqrt(20) R and sqrt(10) R,
    # past the sampling disk R + 12 m^{-1/2}; a batch of no configurations
    # draws nothing, so it needs no disk and tabulates no law
    K = pk.build_space(pk.parse_weight("ginibre"), pk.SpaceSpec(q, n, m))
    assert pk.sample_batch(K, 0, 0) == [] and K not in sampling._LAWS
    with pytest.raises(SamplerError, match=rf"sampling disk of radius {radius} misses mass "
                                           rf"{missing}\d* of {q * n} \(weight ginibre, q={q}"):
        pk.sample_configuration(K, 0)
    argv = ["sample", "--weight", "ginibre", "--q", str(q), "--n", str(n), "--m", str(m),
            "--count", "1", "--seed", "7", "--outdir", str(tmp_path / "out")]
    assert run(argv) == 2


def test_a_droplet_inside_the_disk_samples():
    # n = 10 m fills a droplet of radius sqrt(10) R = 3.162, inside the disk
    # R + 12 m^{-1/2} = 3.683, which misses 8.7e-6 of the 200 points
    K = pk.build_space(pk.parse_weight("ginibre"), pk.SpaceSpec(1, 200, 20.0))
    points = pk.sample_configuration(K, 0).points
    assert points.size == 200 and np.all(np.isfinite(points))
    assert np.any(np.abs(points) > K.equilibrium.droplet_radius)


# For a radial weight at q = 1 the squared moduli of the points are independent
# (Kostlan; Hough-Krishnapur-Peres-Virag, Thm 4.7.1), the j-th with density
# proportional to t^j e^{-mQ} dt in t = |z|^2.  So N(r), the number of points
# in |z| < r, is Poisson-binomial over the F_j(r) = P(|z_j| <= r), and
# P(max |z| <= r) is the product of the F_j(r).  Each test below rejects the
# sampler at significance EXACT_ALPHA, on one fixed batch per weight.
EXACT_ALPHA = 1e-3
EXACT_CDFS = {
    # Q = |z|^2: m t is Gamma(j + 1); Q = |z|^4: m t^2 is Gamma((j + 1) / 2)
    "ginibre": lambda j, m, r: gammainc(j + 1, m * r ** 2),
    "power:p=2": lambda j, m, r: gammainc((j + 1) / 2, m * r ** 4),
}


@functools.lru_cache(maxsize=None)
def _q1_batch(weight: str):
    K = pk.build_space(pk.parse_weight(weight), pk.SpaceSpec(1, 40, 40.0))
    return K, pk.sample_batch(K, 2000, 11)


@pytest.mark.parametrize("weight", sorted(EXACT_CDFS))
def test_q1_count_in_disk_follows_its_exact_law(weight):
    K, batch = _q1_batch(weight)
    r = 0.7 * K.equilibrium.droplet_radius
    pmf = np.ones(1)
    for p in EXACT_CDFS[weight](np.arange(K.spec.n), K.spec.m, r):
        pmf = np.convolve(pmf, [1.0 - p, p])
    observed = np.bincount([np.sum(np.abs(c.points) < r) for c in batch], minlength=pmf.size)
    expected = len(batch) * pmf
    # chi-squared over the counts expected >= 5 times, each tail merged into its edge
    keep = np.flatnonzero(expected >= 5.0)
    lo, hi = keep[0], keep[-1]
    merge = lambda x: np.concatenate([[x[:lo + 1].sum()], x[lo + 1:hi], [x[hi:].sum()]])
    obs, exp = merge(observed), merge(expected)
    chi2 = np.sum((obs - exp) ** 2 / exp)
    assert stats.chi2.sf(chi2, obs.size - 1) > EXACT_ALPHA, (chi2, obs.size - 1)


@pytest.mark.parametrize("weight", sorted(EXACT_CDFS))
def test_q1_largest_modulus_follows_its_exact_law(weight):
    # the outer edge: a disk cut short, or a wrong frame, moves max |z|
    K, batch = _q1_batch(weight)
    top = np.array([np.abs(c.points).max() for c in batch])
    u = np.prod(EXACT_CDFS[weight](np.arange(K.spec.n)[:, None], K.spec.m, top), axis=0)
    assert stats.kstest(u, "uniform").pvalue > EXACT_ALPHA


# At q >= 2 block d holds up to min(q, n) rows.  The kernel restricted to the
# disk |z| < r is block-diagonal (the angle integrates the cross-block terms
# away), with blocks G_d(r) = int_0^r 2 rho phi_d(rho) phi_d(rho)^T d rho over
# the real radial features phi_d of block d.  So N(r) is Poisson-binomial over
# the eigenvalues of the G_d(r), and P(max |z| <= r) = prod_d det G_d(r)
# (Hough-Krishnapur-Peres-Virag, Thm 4.5.3).  These laws see the rows k >= 1
# of a block, which the q = 1 laws above cannot: there every block has one row.
# Each test rejects the sampler at EXACT_ALPHA, on one fixed batch per space.
BLOCK_SPACES = [("ginibre", 2, 20), ("power:p=2", 3, 12)]


def _count_law(K, r) -> np.ndarray:
    """P(N(r) = k) for k = 0, 1, ...: Poisson-binomial over the eigenvalues of
    the G_d(r) (a padded row adds an eigenvalue 0, which changes nothing)."""
    pmf = np.ones(1)
    for lam in np.clip(np.linalg.eigvalsh(block_grams(K, [r])[0]).ravel(), 0.0, 1.0):
        pmf = np.convolve(pmf, [1.0 - lam, lam])
    return pmf


@functools.lru_cache(maxsize=None)
def _block_batch(weight: str, q: int, n: int):
    K = pk.build_space(pk.parse_weight(weight), pk.SpaceSpec(q, n, float(n)))
    return K, pk.sample_batch(K, 2000, 13)


@pytest.mark.parametrize("weight, q, n, mean, variance", [
    ("ginibre", 2, 20, 19.5653, 3.0249), ("power:p=2", 3, 12, 12.0633, 2.7817)])
def test_block_gram_oracle(spaces, weight, q, n, mean, variance):
    # the oracle of the laws below: on gamma's disk the traces of the G_d sum to
    # nq, and at r = 0.7 R the law of N(r) has the moments measured when the
    # laws were first derived (a Poisson count of that mean has variance ~ mean)
    K = spaces(weight, q, n, float(n))
    assert abs(np.trace(block_grams(K, [K._disk_radius])[0], axis1=1, axis2=2).sum()
               - K.spec.dim) <= 1e-12
    pmf = _count_law(K, 0.7 * K.equilibrium.droplet_radius)
    k = np.arange(pmf.size)
    assert abs(pmf @ k - mean) < 1e-4
    assert abs(pmf @ k ** 2 - (pmf @ k) ** 2 - variance) < 1e-4


@pytest.mark.parametrize("weight, q, n", BLOCK_SPACES)
def test_block_count_in_disk_follows_its_exact_law(weight, q, n):
    K, batch = _block_batch(weight, q, n)
    r = 0.7 * K.equilibrium.droplet_radius
    pmf = _count_law(K, r)
    observed = np.bincount([np.sum(np.abs(c.points) < r) for c in batch], minlength=pmf.size)
    expected = len(batch) * pmf
    # chi-squared over the counts expected >= 5 times, each tail merged into its edge
    keep = np.flatnonzero(expected >= 5.0)
    lo, hi = keep[0], keep[-1]
    merge = lambda x: np.concatenate([[x[:lo + 1].sum()], x[lo + 1:hi], [x[hi:].sum()]])
    obs, exp = merge(observed), merge(expected)
    chi2 = np.sum((obs - exp) ** 2 / exp)
    assert stats.chi2.sf(chi2, obs.size - 1) > EXACT_ALPHA, (chi2, obs.size - 1)


@pytest.mark.parametrize("weight, q, n", BLOCK_SPACES)
def test_block_largest_modulus_follows_its_exact_law(weight, q, n):
    K, batch = _block_batch(weight, q, n)
    top = np.sort([np.abs(c.points).max() for c in batch])
    grams = block_grams(K, top)
    rows = np.arange(grams.shape[-1])
    grams[..., rows, rows] += ~K._features.mask  # a padded row's determinant factor is 1
    u = np.prod(np.linalg.det(grams), axis=1)
    assert stats.kstest(u, "uniform").pvalue > EXACT_ALPHA
