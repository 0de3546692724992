"""Kernel evaluator against closed-form oracles and structural invariants."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import gammaln

import polykernel as pk
from polykernel.cli import run
from polykernel.errors import ConfigurationError, NumericalDegeneracyError

from conftest import disk_points

GINIBRE = pk.parse_weight("ginibre")
POWER2 = pk.parse_weight("power:p=2")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_spacespec_guards():
    with pytest.raises(ConfigurationError):
        pk.SpaceSpec(0, 3, 1.0)
    with pytest.raises(ConfigurationError):
        pk.SpaceSpec(1, 0, 1.0)
    with pytest.raises(ConfigurationError):
        pk.SpaceSpec(1, 1, -2.0)


def test_block_structure_q1(spaces):
    K = spaces("ginibre", 1, 3, 1.0)
    blocks = K.factorization.blocks
    assert len(blocks) == 3
    for blk in blocks:
        assert blk.chol.shape == (1, 1)
        assert blk.chol[0, 0] == pytest.approx(1.0, abs=1e-13)  # scaled diag


def test_block_structure_q2_n1(spaces):
    K = spaces("ginibre", 2, 1, 1.0)
    ds = sorted(blk.d for blk in K.factorization.blocks)
    assert ds == [-1, 0]
    assert all(blk.chol.shape == (1, 1) for blk in K.factorization.blocks)


def test_block_count_covers_dimension(spaces):
    K = spaces("power:p=2", 2, 4, 5.0)
    total = sum(blk.p_values.size for blk in K.factorization.blocks)
    assert total == 8


def test_condition_report_power2(spaces):
    K = spaces("power:p=2", 2, 4, 5.0)
    assert all(c < 1e3 for c in K.factorization.condition_report.values())


def test_trace_identity_past_1e12_condition(spaces):
    # power:p=3 at q = 8 has scaled Gram blocks of condition above 1e12;
    # the QR factors of their node matrices keep criterion 7's trace bound
    K = spaces("power:p=3", 8, 20, 20.0)
    assert max(K.factorization.condition_report.values()) > 1e12
    assert abs(K.total_intensity() - K.spec.dim) <= 1e-8


@pytest.mark.parametrize("weight", ["ginibre", "power:p=3"])
@pytest.mark.parametrize("q", [4, 6, 8, 10])
def test_high_q_sweep(spaces, weight, q):
    # n = m = 40: block conditions reach 1e11-1e18 as q grows
    K = spaces(weight, q, 40, 40.0)
    probe = 0.3 * K.equilibrium.droplet_radius * np.exp(0.7j)
    assert K.reproducing_residual(probe) <= 1e-7
    assert abs(K.total_intensity() - K.spec.dim) <= (1e-8 if q <= 8 else 1e-6)


@pytest.mark.parametrize("spoil", [0.0, np.nan])
def test_degenerate_block_is_refused_by_name(monkeypatch, spoil, tmp_path):
    # spoil the last diagonal entry of the third block's QR factor (d = 1)
    real_qr = np.linalg.qr
    calls = []

    def qr(a, mode="reduced"):
        r = real_qr(a, mode=mode)
        calls.append(r.shape)
        if len(calls) == 3:
            r[-1, -1] = spoil
        return r

    monkeypatch.setattr(np.linalg, "qr", qr)
    with pytest.raises(NumericalDegeneracyError,
                       match=r"block d=1 .*condition inf; weight ginibre, q=2, n=4, m=4\.0"):
        pk.build_space(GINIBRE, pk.SpaceSpec(2, 4, 4.0))
    assert calls[2] == (2, 2)
    calls.clear()
    argv = ["intensity", "--weight", "ginibre", "--q", "2", "--n", "4", "--m", "4",
            "--out", str(tmp_path / "gamma.csv")]
    assert run(argv) == 2


@pytest.mark.parametrize("weight, q, n", [("ginibre", 4, 3), ("power:p=3", 8, 20)])
def test_feature_map_padding_matches_per_block_solve(spaces, weight, q, n):
    # mixed block sizes (1,2,3,3,2,1 for q=4, n=3) and, for power:p=3 at q=8,
    # blocks of condition above 1e12: the padded batched solve must match a
    # per-block triangular solve and leave the padded rows at zero
    K = spaces(weight, q, n, float(n))
    fact = K.factorization
    if q == 4:
        assert [blk.p_values.size for blk in fact.blocks] == [1, 2, 3, 3, 2, 1]
    else:
        assert max(fact.condition_report.values()) > 1e12
    rng = np.random.default_rng(41)
    R = K.equilibrium.droplet_radius
    z = np.concatenate([[0.0, 0.5 * R, -1.5j * R], disk_points(rng, 40, 1.3 * R)])
    shift, mant, ang = K._features(z, 0.5)
    assert np.array_equal(ang, np.angle(z))
    logr = np.log(np.where(z == 0, 1.0, np.abs(z)))
    damp = -0.5 * K.spec.m * K.weight.eval_weight(z)
    for i, blk in enumerate(fact.blocks):
        p = blk.p_values
        lt = p[:, None] * logr[None, :] - 0.5 * fact.log_moments[p][:, None] + damp
        lt[(p[:, None] > 0) & (z == 0)[None, :]] = -np.inf
        top = lt.max(axis=0)
        ref = solve_triangular(blk.chol, np.exp(lt - np.where(np.isfinite(top), top, 0.0)),
                               lower=True)
        np.testing.assert_allclose(shift[i], top, rtol=1e-14, atol=1e-14)
        # rounding differs by up to ~6e-13 in the blocks of condition up to 1.6e12
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.abs(mant[i, :p.size] - ref) <= 1e-9 * scale)
        assert not np.any(mant[i, p.size:])
    # the dense Phi^T conj(Phi) matrix against pairwise kernel evaluations
    pts = z[:12]
    zz, ww = np.meshgrid(pts, pts, indexing="ij")
    pairwise = K.weighted_kernel(zz, ww)
    gamma = np.sqrt(K.one_point_intensity(pts))
    err = np.abs(K._weighted_matrix(pts) - pairwise) / np.outer(gamma, gamma)
    assert np.max(err) < 1e-12


# ---------------------------------------------------------------------------
# closed-form kernel oracles
# ---------------------------------------------------------------------------

def test_kernel_eval_examples(spaces):
    assert spaces("ginibre", 1, 2, 1.0).kernel(1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert spaces("ginibre", 2, 1, 1.0).kernel(1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    # single basis element: K = m for any arguments
    K = spaces("ginibre", 1, 1, 7.0)
    assert K.kernel(0.3 + 1j, -0.2) == pytest.approx(7.0, rel=1e-12)


def _ginibre_q1_oracle(m: float, n: int, u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    term = np.ones_like(u)
    for j in range(n):
        if j:
            term = term * (m * u) / j
        out = out + term
    return m * out


def test_ginibre_q1_closed_form(spaces):
    rng = np.random.default_rng(21)
    for m in (1.0, 20.0):
        n = int(m)
        K = spaces("ginibre", 1, n, m)
        z, v = disk_points(rng, 200, 1.5), disk_points(rng, 200, 1.5)
        got = K.kernel(z, v)
        oracle = _ginibre_q1_oracle(m, n, z * np.conj(v))
        rel = np.abs(got - oracle) / np.abs(oracle)
        assert np.max(rel) < 1e-10


def test_weighted_kernel_fock_example(spaces):
    # large n: weighted kernel approaches m e^{m z wbar} with symmetric damping
    m = 20.0
    K = spaces("ginibre", 1, 120, m)
    z, v = 0.1, 0.2
    expect = m * math.exp(m * z * v) * math.exp(-0.5 * m * (z * z + v * v))
    assert K.weighted_kernel(z, v) == pytest.approx(expect, rel=1e-12)


def test_weighted_kernel_cauchy_schwarz(spaces):
    rng = np.random.default_rng(22)
    K = spaces("ginibre", 2, 20, 20.0)
    z, v = disk_points(rng, 100, 1.4), disk_points(rng, 100, 1.4)
    lhs = np.abs(K.weighted_kernel(z, v))
    rhs = np.sqrt(K.one_point_intensity(z) * K.one_point_intensity(v))
    assert np.all(lhs <= rhs * (1.0 + 1e-10))
    # a scalar side has its features computed once and broadcast
    full = np.full(v.shape, z[0])
    np.testing.assert_allclose(K.weighted_kernel(z[0], v), K.weighted_kernel(full, v),
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(K.log_abs_weighted_kernel(v, z[0]),
                               K.log_abs_weighted_kernel(v, full), rtol=1e-14, atol=0.0)


def test_one_point_intensity_examples(spaces):
    assert spaces("ginibre", 2, 1, 1.0).one_point_intensity(0.0) == pytest.approx(1.0)
    K = spaces("ginibre", 1, 1, 3.0)
    z = 0.4 - 0.7j
    assert K.one_point_intensity(z) == pytest.approx(
        3.0 * math.exp(-3.0 * abs(z) ** 2), rel=1e-12)


def test_hermitian_symmetry_and_positivity(spaces):
    rng = np.random.default_rng(23)
    for wtext, q in (("ginibre", 1), ("ginibre", 2), ("power:p=2", 2)):
        K = spaces(wtext, q, 20, 20.0)
        z, v = disk_points(rng, 200, 1.2), disk_points(rng, 200, 1.2)
        a = K.weighted_kernel(z, v)
        b = K.weighted_kernel(v, z)
        rel = np.abs(a - np.conj(b)) / np.maximum(np.abs(a), 1e-300)
        assert np.max(rel) < 1e-12
        assert np.all(K.one_point_intensity(z) > 0.0)


def test_trace_identity(spaces):
    for wtext in ("ginibre", "power:p=2"):
        for q in (1, 2):
            K = spaces(wtext, q, 20, 20.0)
            assert K.total_intensity() == pytest.approx(q * 20, abs=1e-8)


def test_projection_idempotence(spaces):
    # int K(z,w) K(w,u) e^{-mQ(w)} dA(w) = K(z,u)
    rng = np.random.default_rng(24)
    K = spaces("ginibre", 2, 20, 20.0)
    m = 20.0
    r_max = K.equilibrium.droplet_radius + 10.0 / math.sqrt(m)
    x, gl_w = np.polynomial.legendre.leggauss(320)
    r = 0.5 * r_max * (x + 1.0)
    wr = 0.5 * r_max * gl_w
    phi = 2.0 * np.pi * np.arange(128) / 128
    grid = (r[:, None] * np.exp(1j * phi[None, :])).ravel()
    area = np.repeat(wr * r, 128) * (2.0 / 128)
    for _ in range(10):
        z0, u0 = disk_points(rng, 2, 0.8)
        left = K.kernel(np.full(grid.shape, z0), grid)
        right = K.kernel(grid, np.full(grid.shape, u0))
        damp = np.exp(-m * K.weight.eval_weight(grid))
        integral = np.sum(area * left * right * damp)
        target = K.kernel(z0, u0)
        assert abs(integral - target) / abs(target) < 1e-7


def test_k_point_intensity(spaces):
    K = spaces("ginibre", 1, 2, 1.0)
    z = 0.3 + 0.2j
    assert K.k_point_intensity([z]) == pytest.approx(K.one_point_intensity(z), rel=1e-12)
    assert K.k_point_intensity([z, z]) <= 1e-12
    # closed-form oracle for n=2, m=1: K(z,w) = 1 + z wbar
    g0, g1 = K.one_point_intensity(0.0), K.one_point_intensity(1.0)
    kw01 = (1.0 + 0.0) * math.exp(-0.5 * 1.0)  # weighted kernel at (0, 1)
    expect = g0 * g1 - kw01 **  2
    assert K.k_point_intensity([0.0, 1.0]) == pytest.approx(expect, rel=1e-10)


def test_k_point_psd_random_triples(spaces):
    rng = np.random.default_rng(25)
    K = spaces("ginibre", 2, 20, 20.0)
    for _ in range(100):
        pts = disk_points(rng, 3, 1.1)
        assert K.k_point_intensity(pts) >= 0.0


def test_k_point_guards(spaces):
    K = spaces("ginibre", 1, 2, 1.0)
    with pytest.raises(ConfigurationError):
        K.k_point_intensity(np.zeros(3, dtype=complex))  # k > nq


def test_joint_density_q1_n1(spaces):
    K = spaces("ginibre", 1, 1, 1.0)
    z = 0.4 + 0.1j
    assert K.joint_density([z]) == pytest.approx(K.one_point_intensity(z), rel=1e-12)
    mass = pk.integrate_polar_grid(
        lambda zz: np.vectorize(lambda p: K.joint_density([p]))(zz), 8.0, 128, 16)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_joint_density_guards_and_repeats(spaces):
    K = spaces("ginibre", 2, 1, 1.0)
    with pytest.raises(ConfigurationError):
        K.joint_density([0.1 + 0j])
    assert K.joint_density([0.3, 0.3]) == 0.0


def test_joint_density_normalization_q2_n1(spaces):
    # nq = 2: tensor polar quadrature of the 2-point density integrates to 1
    K = spaces("ginibre", 2, 1, 1.0)
    x, gl_w = np.polynomial.legendre.leggauss(48)
    r_max = 7.0
    r = 0.5 * r_max * (x + 1.0)
    wr = 0.5 * r_max * gl_w
    n_phi = 24
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    pts = (r[:, None] * np.exp(1j * phi[None, :])).ravel()
    area = np.repeat(wr * r, n_phi) * (2.0 / n_phi)
    g = K._weighted_matrix(pts)  # all pairwise weighted kernel values
    diag = np.real(np.diag(g))
    det2 = diag[:, None] * diag[None, :] - np.abs(g) ** 2
    total = 0.5 * float(area @ det2 @ area)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_berezin_density(spaces):
    K = spaces("ginibre", 1, 1, 1.0)
    rng = np.random.default_rng(26)
    wpts = disk_points(rng, 50, 2.0)
    got = K.berezin_density(0.0, wpts)
    assert np.max(np.abs(got - np.exp(-np.abs(wpts) ** 2))) < 1e-12
    K2 = spaces("ginibre", 2, 20, 20.0)
    z = 0.3 + 0.2j
    assert K2.berezin_density(z, z) == pytest.approx(K2.one_point_intensity(z), rel=1e-10)
    mass = pk.integrate_polar_grid(lambda zz: K2.berezin_density(z, zz), 4.0, 300, 64)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_reproducing_residual(spaces):
    K = spaces("ginibre", 1, 2, 1.0)
    assert K.reproducing_residual(0.3) < 1e-8
    # the constant monomial alone reproduces as well
    res = []
    for n_r in (64, 128, 256):
        res.append(K.reproducing_residual(0.3, n_r=n_r))
    assert res[2] <= res[0] + 1e-12  # refinement does not degrade


@pytest.mark.parametrize("weight,q,n", [("ginibre", 2, 20), ("power:p=3", 8, 20),
                                        ("ginibre", 8, 40)])
def test_reproducing_residual_matches_polar_grid(spaces, weight, q, n):
    # the radial rule equals the full polar grid: n_phi > n+q-2 angles
    # integrate every Fourier mode of conj(w)^r w^j K(z,w) exactly
    K = spaces(weight, q, n, float(n))
    m = float(n)
    z = 0.3 * K.equilibrium.droplet_radius * np.exp(0.7j)
    n_r, n_phi = max(128, 3 * (n + q)), 2 * (n + q) + 16
    r_max = K.equilibrium.droplet_radius + 10.0 / math.sqrt(m)
    x, gl_w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (x + 1.0)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    grid = (r[:, None] * np.exp(1j * phi[None, :])).ravel()
    area = np.repeat(0.5 * r_max * gl_w * r, n_phi) * (2.0 / n_phi)
    # K(z,w) e^{-mQ(w)} from the correlation kernel K(z,w) e^{-m(Q(z)+Q(w))/2}
    half = 0.5 * m * (K.weight.eval_weight(np.array([z])) - K.weight.eval_weight(grid))
    dens = K.weighted_kernel(np.full(grid.shape, z), grid) * np.exp(half) * area
    ref = (np.vander(np.conj(grid), q, increasing=True).T * dens) \
        @ np.vander(grid, n, increasing=True)
    got = K._reproduced_monomials(z)
    assert got.shape == (q, n)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_diagonal_path_matches_general_path(spaces):
    # z is w takes the real diagonal path; a copy goes through the phases
    rng = np.random.default_rng(29)
    for wtext, q, n in (("ginibre", 2, 20), ("power:p=2", 3, 30)):
        K = spaces(wtext, q, n, float(n))
        z = disk_points(rng, 300, 1.2 * K.equilibrium.droplet_radius)
        diag = K.one_point_intensity(z)
        general = np.real(K.weighted_kernel(z, z.copy()))
        assert np.max(np.abs(diag - general) / diag) <= 1e-14


def test_diagonal_bound_on_built_q2_spaces(spaces):
    for wtext in ("ginibre", "power:p=2"):
        K = spaces(wtext, 2, 20, 20.0)
        assert pk.diagonal_bound_check(K) < 1.0


def test_extreme_scale_contract(spaces):
    # the log-domain pipeline must stay inside double range up to m = 200,
    # n = 400; the weighted value still matches the full-plane closed form
    K = spaces("ginibre", 1, 400, 200.0)
    z, v = 0.3, 0.35
    expect = 200.0 * math.exp(200.0 * z * v) * math.exp(-100.0 * (z * z + v * v))
    assert K.weighted_kernel(z, v) == pytest.approx(expect, rel=1e-12)
    assert math.isfinite(K.log_abs_weighted_kernel(1.4, -1.4))


def test_kernel_csv_export(tmp_path, spaces):
    K = spaces("ginibre", 1, 2, 1.0)
    path = tmp_path / "grid.csv"
    z = np.array([0.1 + 0.2j, 0.5, 1.0j])
    pk.export_kernel_grid_csv(str(path), K, z, np.zeros(3, dtype=complex))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re_z,im_z,re_w,im_w,re_K,im_K,weighted_abs"
    assert len(lines) == 4
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.1 and first[1] == 0.2
    # K(z, 0) = 1 for the n=2 Ginibre space at m=1
    assert first[4] == pytest.approx(1.0, rel=1e-12)
