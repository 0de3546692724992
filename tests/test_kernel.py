"""Kernel evaluator against closed-form oracles and structural invariants."""

import math
import os
import select
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln
from scipy.special import gamma as gamma_function

import polykernel as pk
from polykernel import kernel as kernel_module
from polykernel.cli import export_kernel_grid_csv, run
from polykernel.errors import ConfigurationError, NumericalDegeneracyError
from polykernel.kernel import PAIR_CHUNK, _block_phases, _buffer
from polykernel.quadrature import MomentRule

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
    # a bool or a float is not an order or a degree count, even when it equals one
    with pytest.raises(ConfigurationError, match="q must be an integer"):
        pk.SpaceSpec(True, 5, 1.0)
    with pytest.raises(ConfigurationError, match="q must be an integer"):
        pk.SpaceSpec(1.5, 5, 1.0)
    with pytest.raises(ConfigurationError, match="n must be an integer"):
        pk.SpaceSpec(2, True, 1.0)
    with pytest.raises(ConfigurationError, match="n must be an integer"):
        pk.SpaceSpec(2, 4.0, 1.0)
    # before, a bool m built a space and a string m died with a bare TypeError
    with pytest.raises(ConfigurationError, match="m must be a real number"):
        pk.SpaceSpec(2, 5, True)
    with pytest.raises(ConfigurationError, match="m must be a real number"):
        pk.SpaceSpec(2, 5, "5")
    # before, an integer past double range raised OverflowError
    with pytest.raises(ConfigurationError, match="m must be finite and > 0"):
        pk.SpaceSpec(2, 5, 10**400)


def test_block_structure_q1(spaces):
    # one row per block: pi_0 = 1 needs no recurrence coefficients
    F = spaces("ginibre", 1, 3, 1.0).factorization
    assert F.d.tolist() == [0, 1, 2] and F.size.tolist() == [1, 1, 1]
    assert F.alpha.shape == F.beta.shape == (3, 0)
    assert all(F.condition_report[d] == 1.0 for d in F.d.tolist())


def test_block_structure_q2_n1(spaces):
    F = spaces("ginibre", 2, 1, 1.0).factorization
    assert F.d.tolist() == [-1, 0] and F.size.tolist() == [1, 1]
    assert not F.alpha.any() and not F.beta.any()


def test_block_recurrence_is_laguerre(spaces):
    # ginibre block d: pi_k(t) is L_k^{(|d|)}(mt) up to normalization, whose
    # Jacobi matrix has alpha_k = (2k+|d|+1)/m and beta_k = sqrt(k(k+|d|))/m;
    # at q = 2, n = m = 160 the batched blocks read 3.3e-16 (alpha) and
    # 6.7e-16 (beta), the blocks factored one by one 4.4e-16 and 4.4e-16
    for q, n, m in [(3, 4, 4.0), (2, 160, 160.0)]:
        F = spaces("ginibre", q, n, m).factorization
        for d, s, alpha, beta in zip(F.d, F.size, F.alpha, F.beta):
            a, k = abs(d), np.arange(s - 1)
            np.testing.assert_allclose(alpha[:s - 1], (2 * k + a + 1) / m, rtol=1e-15)
            np.testing.assert_allclose(beta[:s - 1], np.sqrt((k + 1) * (k + 1 + a)) / m,
                                       rtol=1e-15)
            assert not alpha[s - 1:].any() and not beta[s - 1:].any()


@pytest.mark.parametrize("steps", [20, 30, 40])
def test_lanczos_keeps_its_basis_orthonormal(steps):
    # Strakos's diagonal (Linear Algebra Appl. 154-156, 1991): eigenvalues
    # clustered at 0.1 and spread towards 100, where Lanczos that
    # orthogonalizes only against the two previous vectors reads
    # max|VV^T - I| = 0.61 and a single reorthogonalization pass 6.9e-10 at
    # 30 steps.  It runs alone and batched with an unrelated problem padded
    # with zeros past its 44 nodes.
    i = np.arange(1, 49)
    t = 0.1 + (i - 1) / 47 * 99.9 * 0.8 ** (48 - i)
    other_t = np.linspace(0.5, 3.0, 48)
    other = np.where(i <= 44, np.exp(-other_t), 0.0)
    alone = pk.kernel._lanczos(t[None, :], np.ones((1, 48)), steps)
    batched = pk.kernel._lanczos(np.stack([t, other_t]), np.stack([np.ones(48), other]), steps)
    for alpha, beta, basis in (alone, batched):
        for v in basis:
            assert np.max(np.abs(v @ v.T - np.eye(steps + 1))) <= 1e-13
    np.testing.assert_allclose(batched[0][0], alone[0][0], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(batched[1][0], alone[1][0], rtol=1e-15, atol=0.0)
    assert not batched[2][1][:, 44:].any()


def test_block_count_covers_dimension(spaces):
    K = spaces("power:p=2", 2, 4, 5.0)
    assert K.factorization.size.sum() == 8


def test_condition_report_power2(spaces):
    K = spaces("power:p=2", 2, 4, 5.0)
    assert all(c < 1e3 for c in K.factorization.condition_report.values())


def test_trace_identity_past_1e12_condition(spaces):
    # power:p=3 at q = 8 has scaled Gram blocks of condition above 1e12; the
    # recurrences never form them, so criterion 7's trace bound holds
    K = spaces("power:p=3", 8, 20, 20.0)
    assert max(K.factorization.condition_report.values()) > 1e12
    assert abs(K.total_intensity() - K.spec.dim) <= 1e-8


@pytest.mark.parametrize("weight", ["ginibre", "power:p=3"])
@pytest.mark.parametrize("q", [4, 6, 8, 10, 12, 16])
def test_high_q_sweep(spaces, weight, q):
    # n = m = 40: block conditions reach 1e11-1e20 and more as q grows
    K = spaces(weight, q, 40, 40.0)
    probe = 0.3 * K.equilibrium.droplet_radius * np.exp(0.7j)
    assert K.reproducing_residual(probe) <= 1e-7
    assert abs(K.total_intensity() - K.spec.dim) <= 1e-10


def test_narrow_blocks_grow_their_grid(spaces):
    # power:p=3, q = 30, n = m = 100: in the narrow blocks of large |d| the
    # polynomials of degree 29 have not decayed at the first left end of the
    # node grid, where the trace would read 1.5e-7; the grid must grow
    K = spaces("power:p=3", 30, 100, 100.0)
    assert abs(K.total_intensity() - K.spec.dim) <= 1e-13 * K.spec.dim


def test_trace_radii_scale_with_the_space(spaces):
    # power:p=6, q = 16, n = m = 140: gamma has degree 2(n+q-2) = 308 in rho,
    # and on a fixed 400 radii the trace reads 1.1e-9 off nq; the default
    # 3(n+q) = 468 radii read 3e-12
    K = spaces("power:p=6", 16, 140, 140.0)
    assert abs(K.total_intensity() - K.spec.dim) <= 1e-13 * K.spec.dim


def test_trace_radii_scale_with_the_weight_degree(spaces):
    # power:p=8, q = 20, n = m = 10: gamma's edge is steep, and the
    # max(400, 3(n+q)) = 400 radii of a degree-blind count read 8.0e-12 nq off
    # nq; the default 28(K + sqrt(Kq)) = 579 radii read 1.6e-14 nq
    K = spaces("power:p=8", 20, 10, 10.0)
    assert abs(K.total_intensity() - K.spec.dim) <= 1e-13 * K.spec.dim


def test_residual_radii_scale_with_the_weight_degree(spaces):
    # the reproducing check runs on the trace's radii: at power:p=8, q = 20,
    # n = m = 10 a degree-blind max(128, 3(n+q)) = 128 radii read 2.6e-4, and
    # the default 28(K + sqrt(Kq)) = 579 read 7e-14
    K = spaces("power:p=8", 20, 10, 10.0)
    probe = 0.3 * K.equilibrium.droplet_radius * np.exp(0.7j)
    assert K.reproducing_residual(probe) <= 1e-12


def test_steep_weight_builds_hold_the_trace(spaces):
    # power:p=40, q = 2, n = m = 10: with the moment and Gram grids at a step
    # of sigma_p / 8 whatever the degree, the trace read 3.0e-7 off nq and the
    # residual 7.4e-8, with no refusal; the step that shrinks with K reads
    # 2.6e-12 and 3.1e-14
    K = spaces("power:p=40", 2, 10, 10.0)
    assert abs(K.total_intensity() - K.spec.dim) <= 1e-10 * K.spec.dim
    probe = 0.3 * K.equilibrium.droplet_radius * np.exp(0.7j)
    assert K.reproducing_residual(probe) <= 1e-12


def _ginibre_features(q, n, m, z):
    # block d of the ginibre space has the orthonormal basis
    # |z|^{|d|} e^{i d arg z} L_k^{(|d|)}(m|z|^2) sqrt(m^{|d|+1} k! / (k+|d|)!)
    # (Haimi and Hedenmalm, J. Stat. Phys. 153 (2013)); rows in block order,
    # weighted by e^{-m|z|^2/2}
    t = np.abs(z) ** 2
    with np.errstate(divide="ignore"):
        logr = np.log(np.abs(z))
    out = []
    for d in range(1 - q, n):
        a = abs(d)
        phase = np.exp(1j * d * np.angle(z))
        for k in range(min(q - 1, n - 1 - d) - max(0, -d) + 1):
            log_norm = 0.5 * ((a + 1) * math.log(m) + gammaln(k + 1) - gammaln(k + a + 1)
                              - m * t) + (a * logr if a else 0.0)
            out.append(eval_genlaguerre(k, a, m * t) * np.exp(log_norm) * phase)
    return np.array(out)


@pytest.mark.parametrize("q", [2, 8, 10, 12, 16])
def test_ginibre_laguerre_oracle(spaces, q):
    n, m = 40, 40.0
    K = spaces("ginibre", q, n, m)
    rho = np.linspace(0.0, 1.3, 27)
    ref = _ginibre_features(q, n, m, rho.astype(complex))
    gamma_ref = np.sum(np.abs(ref) ** 2, axis=0)
    gamma = K.one_point_intensity(rho.astype(complex))
    assert np.max(np.abs(gamma - gamma_ref) / gamma_ref) <= 1e-13
    phi = K._features.weighted(rho)
    assert phi.shape == ref.shape
    assert np.max(np.abs(np.abs(phi) - np.abs(ref)) / np.sqrt(gamma_ref)) <= 1e-13


def _power2_q2_kernel(n, m, z, w):
    # Q = |z|^4 at q = 2: block d spans |z|^{|d|} t^k e^{i d arg z}, t = |z|^2,
    # for its rows k < 2 (one row at d = -1 and d = n - 1), with Gram entries
    # M_{|d|+k+l}, M_p = int_0^inf t^p e^{-m t^2} dt = Gamma((p+1)/2) / (2 m^{(p+1)/2})
    def log_moment(p):
        return gammaln((p + 1) / 2) - math.log(2.0) - (p + 1) / 2 * math.log(m)

    out = 0.0
    for d in range(-1, n):
        a = abs(d)
        # u_k = |z|^a t^k e^{-m Q/2} / sqrt(M_{a+2k}): the scaled Gram block is
        # [[1, rho], [rho, 1]], rho^2 = Gamma(x + 1/2)^2 / (Gamma(x) Gamma(x + 1))
        u = [np.exp((a + 2 * k) * np.log(np.abs(v)) - m * np.abs(v) ** 4 / 2
                    - log_moment(a + 2 * k) / 2 + 1j * d * np.angle(v))
             for v in (z, w) for k in range(2)]
        if d in (-1, n - 1):
            out = out + u[0] * np.conj(u[2])
            continue
        x = (a + 1) / 2
        rho2 = gamma_function(x + 0.5) ** 2 / (gamma_function(x) * gamma_function(x + 1))
        rho = math.sqrt(rho2)
        out = out + (u[0] * np.conj(u[2]) + u[1] * np.conj(u[3])
                     - rho * (u[0] * np.conj(u[3]) + u[1] * np.conj(u[2]))) / (1 - rho2)
    return out


@pytest.mark.parametrize("weight,q", [("ginibre", 2), ("ginibre", 3), ("ginibre", 8),
                                      ("power:p=2", 2)])
def test_off_diagonal_kernel_oracle(spaces, weight, q):
    # K(z, w) at complex pairs against closed-form block sums, relative to
    # sqrt(gamma(z) gamma(w)): every block phase e^{i d (arg z - arg w)} is
    # read, unlike on the diagonal
    n, m = 40, 40.0
    K = spaces(weight, q, n, m)
    rng = np.random.default_rng(q)
    radius = 1.1 * K.equilibrium.droplet_radius
    z = disk_points(rng, 200, radius)
    w = np.concatenate([disk_points(rng, 100, radius),
                        z[100:] + 0.3 / math.sqrt(n) * np.exp(2j * np.pi * rng.uniform(size=100))])
    if weight == "ginibre":
        fz, fw = _ginibre_features(q, n, m, z), _ginibre_features(q, n, m, w)
        ref = np.sum(fz * np.conj(fw), axis=0)
        scale = np.sqrt(np.sum(np.abs(fz) ** 2, axis=0) * np.sum(np.abs(fw) ** 2, axis=0))
    else:
        ref = _power2_q2_kernel(n, m, z, w)
        scale = np.sqrt(np.real(_power2_q2_kernel(n, m, z, z) * _power2_q2_kernel(n, m, w, w)))
    assert np.max(np.abs(K.weighted_kernel(z, w) - ref) / scale) <= 1e-13


@pytest.mark.parametrize("spoil", [0.0, np.nan])
def test_degenerate_block_is_refused_by_name(monkeypatch, spoil, tmp_path):
    # spoil the last beta of block d = 1 (two rows) inside its batch; of the
    # two-row blocks d = 0, 1, 2, only d = 1 has beta_1 = sqrt(1 * 2)/m
    real_lanczos = pk.kernel._lanczos
    batches = []

    def lanczos(t, start, steps):
        alpha, beta, basis = real_lanczos(t, start, steps)
        hit = np.isclose(beta[:, -1], math.sqrt(2.0) / 4.0, rtol=1e-12, atol=0.0)
        beta[hit, -1] = spoil
        batches.extend([beta.shape[0]] * int(hit.sum()))
        return alpha, beta, basis

    monkeypatch.setattr(pk.kernel, "_lanczos", lanczos)
    with pytest.raises(NumericalDegeneracyError,
                       match=r"block d=1 .*condition inf; weight ginibre, q=2, n=4, m=4\.0"):
        pk.build_space(GINIBRE, pk.SpaceSpec(2, 4, 4.0))
    assert len(batches) == 1 and batches[0] >= 2
    argv = ["intensity", "--weight", "ginibre", "--q", "2", "--n", "4", "--m", "4",
            "--out", str(tmp_path / "gamma.csv")]
    assert run(argv) == 2


def test_a_vanishing_beta_is_refused_by_name(tmp_path, capsys):
    # Q = 1e300 |z|^2 at q = 2, n = m = 10: block d = 0 has beta 0, and the
    # division by it warned "divide by zero", which the suite's warning filter
    # raised in place of this refusal; under that filter a warning cannot reach
    # stderr either, it would escape run()
    spec = pk.SpaceSpec(2, 10, 10.0)
    with pytest.raises(NumericalDegeneracyError,
                       match="Gram block d=0 is numerically degenerate"):
        pk.build_space(pk.parse_weight("radialpoly:c=1e300"), spec)
    argv = ["intensity", "--weight", "radialpoly:c=1e300", "--q", "2", "--n", "10",
            "--m", "10", "--out", str(tmp_path / "gamma.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical degeneracy: Gram block d=0 ") and err.count("\n") == 1


@pytest.mark.parametrize("weight, q, n", [("power:p=3", 8, 20), ("power:p=3", 30, 100)])
def test_batched_blocks_match_blocks_alone(monkeypatch, weight, q, n):
    # every block, taken from its measure's recurrence in the one batch of all
    # measures, padded to its chunk's longest grid (and, at q = 30, grown with
    # the others), equals that measure run alone on the rows |d| + 2k,
    # k < need(|d|), that blocks d and -d use; a node outside a measure's grid
    # stays zero in its Lanczos vectors
    real_lanczos = pk.kernel._lanczos

    def lanczos(t, start, steps):
        alpha, beta, basis = real_lanczos(t, start, steps)
        assert not basis[np.broadcast_to(start[:, None, :] == 0.0, basis.shape)].any()
        return alpha, beta, basis

    monkeypatch.setattr(pk.kernel, "_lanczos", lanczos)
    weight = pk.parse_weight(weight)
    F = pk.GramFactorization(weight, pk.SpaceSpec(q, n, float(n)))
    rule = MomentRule(weight, float(n), np.arange(n + q - 1))
    need = {}
    for d, s in zip(np.abs(F.d).tolist(), F.size.tolist()):
        need[d] = max(need.get(d, 0), s)
    for i in np.flatnonzero(F.size > 1):
        s, a = F.size[i], abs(F.d[i])
        alpha, beta = pk.kernel._recurrences(rule, a + 2 * np.arange(need[a])[None, :])
        np.testing.assert_allclose(F.alpha[i, :s - 1], alpha[0, :s - 1], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(F.beta[i, :s - 1], beta[0, :s - 1], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("weight", ["ginibre", "power:p=3"])
def test_mirror_blocks_share_their_measure(weight):
    # blocks d and -d hold orthonormal polynomials of one measure t^{|d|} e^{-mQ},
    # so the smaller block -a (q - a rows when n >= q) is the prefix of block +a
    F = pk.GramFactorization(pk.parse_weight(weight), pk.SpaceSpec(8, 20, 20.0))
    row = {d: i for i, d in enumerate(F.d.tolist())}
    for a in range(1, 8):
        minus, plus = row[-a], row[a]
        s = F.size[minus]
        assert s == 8 - a and F.size[plus] == 8
        assert np.array_equal(F.alpha[minus, :s - 1], F.alpha[plus, :s - 1])
        assert np.array_equal(F.beta[minus, :s - 1], F.beta[plus, :s - 1])


def test_one_lanczos_batch_per_build(monkeypatch):
    # ginibre q = 8, n = m = 40 runs its 40 measures as one batch, split only
    # by _chunks and grown grids: 5 passes (17 with one batch per row count)
    real_lanczos = pk.kernel._lanczos
    passes = []

    def lanczos(t, start, steps):
        passes.append(start.shape[0])
        return real_lanczos(t, start, steps)

    monkeypatch.setattr(pk.kernel, "_lanczos", lanczos)
    pk.GramFactorization(GINIBRE, pk.SpaceSpec(8, 40, 40.0))
    assert 1 <= len(passes) <= 6


def _unpadded_condition(alpha, beta, s):
    # the s x s stack of normalized J^r e_0, r < s, built row by row
    b = beta[:s - 1]
    J = np.diag(np.append(alpha[:s - 1], 0.0)) + np.diag(b, 1) + np.diag(b, -1)
    rows = [np.eye(s)[0]]
    for _ in range(1, s):
        v = J @ rows[-1]
        rows.append(v / np.linalg.norm(v))
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return (sv[0] / sv[-1]) ** 2


@pytest.mark.parametrize("weight, q, n", [("ginibre", 8, 40), ("power:p=3", 8, 20),
                                          ("ginibre", 12, 5)])
def test_padded_conditions_match_each_block_alone(weight, q, n):
    # the stacked SVD pads each block's stack to q x q with identity rows; with
    # unit rows that leaves sigma_max >= 1 >= sigma_min, so the condition is
    # each block's own
    F = pk.GramFactorization(pk.parse_weight(weight), pk.SpaceSpec(q, n, float(n)))
    checked = 0
    for i, d in enumerate(F.d.tolist()):
        cond = F.condition_report[d]
        if cond < 1e12:
            alone = _unpadded_condition(F.alpha[i], F.beta[i], F.size[i])
            assert cond == pytest.approx(alone, rel=1e-12, abs=0.0)
            checked += 1
    assert checked >= n


def test_conditions_are_computed_on_first_read(monkeypatch):
    # no build runs the stacked SVD of _conditions, direct or re-based, and no
    # evaluation reads it; condition_report computes it on its first read
    real_conditions = pk.kernel._conditions

    def conditions(alpha, beta, size):
        raise AssertionError("_conditions ran before condition_report was read")

    monkeypatch.setattr(pk.kernel, "_conditions", conditions)
    direct = pk.build_space(GINIBRE, pk.SpaceSpec(8, 40, 40.0))
    ladder = [K for _, K in pk.kernel._ladder_spaces(GINIBRE, 2, [40.0, 80.0, 160.0],
                                                      [40, 80, 160])]
    for K in (direct, *ladder):
        R = K.equilibrium.droplet_radius
        assert abs(K.total_intensity() - K.spec.dim) <= 1e-8 * K.spec.dim
        assert K.reproducing_residual(0.3 * R * np.exp(0.7j)) <= 1e-10
        assert np.isfinite(K.weighted_kernel(0.3 * R, 0.5j * R))
    monkeypatch.setattr(pk.kernel, "_conditions", real_conditions)
    for K in (direct, *ladder):
        F = K.factorization
        cond = real_conditions(F.alpha, F.beta, F.size)
        assert F.condition_report == dict(zip(F.d.tolist(), cond.tolist()))


def _two_reduction_lanczos(t, start, steps):
    # the reference: _lanczos with alpha_k and beta_{k+1}^2 summed in two
    # long-double reductions a step, on arrays of its own
    def norm(x):
        return np.sqrt(np.sum(x * x, axis=-1, dtype=np.longdouble)).astype(float)

    nb, size = start.shape
    basis = np.empty((nb, steps + 1, size))
    basis[:, 0] = start / norm(start)[:, None]
    alpha, beta = np.empty((nb, steps)), np.empty((nb, steps))
    for k in range(steps):
        v = t * basis[:, k]
        alpha[:, k] = np.sum(basis[:, k] * v, axis=-1, dtype=np.longdouble)
        done = basis[:, :k + 1]
        for _ in range(2):
            v -= np.matmul(np.matmul(done, v[:, :, None]).transpose(0, 2, 1), done)[:, 0]
        beta[:, k] = norm(v)
        basis[:, k + 1] = v / beta[:, k, None]
    return alpha, beta, basis


@pytest.mark.parametrize("weight, q, n", [("ginibre", 8, 40), ("power:p=3", 8, 20)])
def test_stacked_lanczos_sums_keep_every_bit(monkeypatch, weight, q, n):
    # one stacked reduction of alpha_k's and beta_{k+1}^2's products per step
    # gives the bits of two separate reductions, on every padded batch of a build
    real_lanczos = pk.kernel._lanczos
    batches = []

    def lanczos(t, start, steps):
        out = real_lanczos(t, start, steps)
        batches.append((t.copy(), start.copy(), steps, *(a.copy() for a in out)))
        return out

    monkeypatch.setattr(pk.kernel, "_lanczos", lanczos)
    pk.GramFactorization(pk.parse_weight(weight), pk.SpaceSpec(q, n, float(n)))
    assert any((start == 0.0).any() for _, start, *_ in batches)  # padded grids
    for t, start, steps, *got in batches:
        for a, b in zip(got, _two_reduction_lanczos(t, start, steps)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("weight, q, ns, top", [("ginibre", 2, [40, 80], 160),
                                                ("power:p=2", 2, [40, 80], 160),
                                                ("power:p=3", 8, [20], 40)])
def test_rebased_rung_matches_its_build(spaces, weight, q, ns, top):
    # a one-term weight's measures are m-free in s = (mc)^{1/K} t, so a rung
    # re-based on a larger build is the rung's own build up to rounding
    built = pk.GramFactorization(pk.parse_weight(weight), pk.SpaceSpec(q, top, float(top)))
    rng = np.random.default_rng(17)
    for n in ns:
        K = pk.KernelEvaluator(built._rebased(pk.SpaceSpec(q, n, float(n))))
        direct = spaces(weight, q, n, float(n))
        R = direct.equilibrium.droplet_radius
        z, w = disk_points(rng, 2000, R), disk_points(rng, 2000, R)
        gamma_z, gamma_w = direct.one_point_intensity(z), direct.one_point_intensity(w)
        assert np.max(np.abs(K.one_point_intensity(z) / gamma_z - 1.0)) <= 1e-14
        gap = np.abs(K.weighted_kernel(z, w) - direct.weighted_kernel(z, w))
        assert np.max(gap / np.sqrt(gamma_z * gamma_w)) <= 1e-14
        assert abs(K.total_intensity() - q * n) <= 1e-12 * q * n
        assert K.reproducing_residual(0.3 * R) <= 1e-13


def test_a_spoiled_moment_table_is_refused_on_every_path():
    # log_moments is the one path to a table: a direct build and a re-based
    # rung both run its log-convexity check.  Before, _rebased read the table
    # unchecked and built the rung
    built = pk.GramFactorization(GINIBRE, pk.SpaceSpec(2, 20, 20.0))
    spoiled = built._rule._log_sums.copy()
    spoiled[5] += 1.0
    built._rule.__dict__["_log_sums"] = spoiled
    for path in (built._rule.log_moments,
                 lambda: built._rebased(pk.SpaceSpec(2, 10, 40.0))):
        with pytest.raises(NumericalDegeneracyError,
                           match=r"^log-moment convexity violated near p=5 \(weight ginibre"):
            path()


def test_rebase_needs_one_term_and_no_more_rows():
    built = pk.GramFactorization(pk.parse_weight("radialpoly:c=1,0.5"), pk.SpaceSpec(2, 30, 30.0))
    with pytest.raises(ConfigurationError, match="cannot re-base"):
        built._rebased(pk.SpaceSpec(2, 20, 20.0))
    built = pk.GramFactorization(GINIBRE, pk.SpaceSpec(2, 30, 30.0))
    for spec in (pk.SpaceSpec(2, 31, 30.0), pk.SpaceSpec(3, 20, 20.0)):
        with pytest.raises(ConfigurationError, match="cannot re-base"):
            built._rebased(spec)


def test_a_rebased_build_is_not_rebased_again():
    # a re-based factorization keeps no moment rule; before, a second re-base
    # raised AttributeError: '_one_term'
    (m, K), _ = pk.kernel._ladder_spaces(GINIBRE, 2, [40.0, 80.0], [40, 80])
    with pytest.raises(ConfigurationError, match="cannot re-base q=2, n=40 of weight ginibre"):
        K.factorization._rebased(pk.SpaceSpec(2, 20, 20.0))


@pytest.mark.parametrize("q, n, rebase", [(40, 3, None), (3, 40, None), (5, 5, None),
                                          (5, 20, 3), (40, 3, 2)])
def test_every_block_array_is_min_q_n_rows_wide(spaces, q, n, rebase):
    # block d holds at most min(q, n) rows, so alpha, beta and the feature
    # tables are that wide, not q; a re-base to n' < q cuts them to min(q, n')
    if rebase is None:
        K = spaces("ginibre", q, n, 10.0)
    else:
        built = pk.GramFactorization(GINIBRE, pk.SpaceSpec(q, n, 10.0))
        n = rebase
        K = pk.KernelEvaluator(built._rebased(pk.SpaceSpec(q, n, 20.0)))
        direct = pk.build_space(GINIBRE, pk.SpaceSpec(q, n, 20.0))
        z = disk_points(np.random.default_rng(5), 200, 1.5)
        np.testing.assert_allclose(K.one_point_intensity(z), direct.one_point_intensity(z),
                                   rtol=1e-13, atol=0.0)
    rows = min(q, n)
    f, fm = K.factorization, K._features
    assert f.alpha.shape == f.beta.shape == (q + n - 1, rows - 1)
    assert fm.mask.shape == fm.p.shape == (q + n - 1, rows)
    assert fm.center.shape == fm.gain.shape == fm.back.shape == (rows, q + n - 1, 1)
    assert fm(np.array([0.3 + 0.1j]), 0.5)[1].shape == (rows, q + n - 1, 1)
    assert fm.d[fm.origin] == 0


def test_points_past_double_range_are_refused_or_weighted_to_zero(spaces):
    # |z|^2 or the recurrence past double range: named refusal; before, the
    # features overflowed with a RuntimeWarning.  m Q past double range: the
    # weight e^{-m Q} is 0, so gamma is 0 and a Berezin centre there is refused
    K = spaces("ginibre", 2, 10, 10.0)
    for z in (1e200, np.array([0.1, -1e200j])):
        with pytest.raises(NumericalDegeneracyError,
                           match=r"^features at \|z\| up to 1e\+200 leave double range "
                                 r"\(weight ginibre\)$"):
            K.one_point_intensity(z)
    with pytest.raises(NumericalDegeneracyError, match="leave double range"):
        spaces("ginibre", 10, 10, 10.0).one_point_intensity(1e40)
    L = spaces("ginibre", 1, 4, 4.0)
    assert L.one_point_intensity(1e154) == 0.0
    assert L.weighted_kernel(1e154, 0.1) == 0.0
    with pytest.raises(NumericalDegeneracyError,
                       match=r"^berezin centre z=1e\+154 has vanishing diagonal kernel$"):
        L.berezin_density(1e154, 0.1)


# ---------------------------------------------------------------------------
# closed-form kernel oracles
# ---------------------------------------------------------------------------

def test_kernel_eval_examples(spaces):
    assert spaces("ginibre", 1, 2, 1.0).kernel(1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert spaces("ginibre", 2, 1, 1.0).kernel(1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    # single basis element: K = m for any arguments
    K = spaces("ginibre", 1, 1, 7.0)
    assert K.kernel(0.3 + 1j, -0.2) == pytest.approx(7.0, rel=1e-12)


def test_plain_kernel_past_double_range_is_refused():
    # K(0.9, 0.9) ~ 2m e^{0.81 m}; before, it came back inf with only a
    # RuntimeWarning.  The weighted kernel cannot overflow and stays finite
    K = pk.build_space(GINIBRE, pk.SpaceSpec(2, 1000, 1000.0))
    with pytest.raises(NumericalDegeneracyError,
                       match=r"log-scale of K\(z, w\) reaches 81\d\.?\d* at m=1000\.0"):
        K.kernel(0.9, 0.9)
    with pytest.raises(NumericalDegeneracyError, match="past double range"):
        K.kernel(np.array([0.1, 0.9]), 0.9)
    assert K.weighted_kernel(0.9, 0.9) == pytest.approx(2000.0, rel=1e-8)


@pytest.mark.parametrize("point", [math.nan, math.inf, complex(0.1, math.nan)],
                         ids=["nan", "inf", "nan-imag"])
@pytest.mark.parametrize("call", [
    lambda K, p: K.kernel(0.1, p), lambda K, p: K.kernel(p, 0.1),
    lambda K, p: K.weighted_kernel(p, 0.1), lambda K, p: K.log_abs_weighted_kernel(0.1, p),
    lambda K, p: K.one_point_intensity(p), lambda K, p: K.log_one_point_intensity(p),
    lambda K, p: K.one_point_intensity(np.array([0.1, p, 0.2])),
    lambda K, p: K.k_point_intensity([0.1, p]), lambda K, p: K.joint_density([p] * 20),
    lambda K, p: K.berezin_density(p, 0.1), lambda K, p: K.berezin_density(0.1, p),
    lambda K, p: K.reproducing_residual(p),
], ids=["kernel-w", "kernel-z", "weighted", "log-weighted", "intensity", "log-intensity",
        "intensity-array", "k-point", "joint", "berezin-centre", "berezin-w", "residual"])
def test_non_finite_points_are_refused_by_name(spaces, call, point):
    # before, the intensity and the residual at nan returned nan, the joint
    # density of 20 NaN points 0.0, the intensity at inf nan with a
    # RuntimeWarning, and K(0.1, nan) blamed its log-scale for leaving double range
    with pytest.raises(ConfigurationError, match="evaluation points must be finite"):
        call(spaces("ginibre", 2, 10, 10.0), point)


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


@pytest.mark.parametrize("weight, q, n", [("ginibre", 3, 7), ("ginibre", 10, 40),
                                          ("power:p=3", 2, 30), ("radialpoly:c=1,0.5", 5, 12),
                                          ("power:p=2", 4, 1)])
def test_conjugation_swaps_q_and_n(spaces, weight, q, n):
    # f -> conj(f) maps A^2_{q,mQ,n} onto A^2_{n,mQ,q} and keeps the inner
    # product of L^2(e^{-mQ}), so K_{q,n}(z, w) = conj K_{n,q}(z, w); on 50
    # pairs in a square 1.6 times the droplet the defect reads at most 3.3e-16
    # of sqrt(gamma(z) gamma(w)), and the intensity ratio at most 8.9e-16
    rng = np.random.default_rng(11)
    K, L = spaces(weight, q, n, 10.0), spaces(weight, n, q, 10.0)
    z, w = 1.6 * K.equilibrium.droplet_radius * (rng.uniform(-1, 1, (2, 50))
                                                 + 1j * rng.uniform(-1, 1, (2, 50)))
    gz, gw = K.one_point_intensity(z), K.one_point_intensity(w)
    defect = np.abs(K.weighted_kernel(z, w) - np.conj(L.weighted_kernel(z, w)))
    assert np.max(defect / np.sqrt(gz * gw)) <= 1e-13
    assert np.max(np.abs(L.one_point_intensity(z) / gz - 1.0)) <= 1e-13


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


@pytest.mark.parametrize("mat, warns", [([[1.0, 1.0], [1.0, 1.0 - 1e-13]], False),
                                        ([[1.0, 2.0], [2.0, 1.0]], True)],
                         ids=["roundoff", "beyond-roundoff"])
def test_a_negative_k_point_determinant_is_clamped(monkeypatch, spaces, mat, warns):
    # a kernel matrix is positive semidefinite, so a negative determinant is
    # roundoff (clamped to 0 in silence) unless it passes 1e-10 of the
    # diagonal's product; no natural kernel matrix was found to pass it (the
    # worst over 900 clustered sets read -1.3e-26), so a stub stands in
    K = spaces("ginibre", 1, 2, 1.0)
    monkeypatch.setattr(K, "_weighted_matrix", lambda pts: np.array(mat, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if warns:
            with pytest.warns(UserWarning, match=r"^2-point intensity determinant -3\.000e\+00 "
                                                 r"is negative beyond roundoff \(scale "
                                                 r"1\.000e\+00\); clamping to 0$"):
                assert K.k_point_intensity([0.1, 0.2]) == 0.0
        else:
            assert K.k_point_intensity([0.1, 0.2]) == 0.0


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
    # joint_density is the same determinant over (nq)! = 2
    for a, b in ((100, 130), (250, 290)):
        assert K.joint_density(pts[[a, b]]) == pytest.approx(0.5 * det2[a, b], rel=1e-12)


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


@pytest.mark.parametrize("weight,q,n", [("ginibre", 2, 20), ("power:p=3", 8, 20),
                                        ("ginibre", 8, 40)])
def test_reproducing_residual_matches_polar_grid(spaces, weight, q, n):
    # the radial rule equals the full polar grid: n_phi > n+q-2 angles
    # integrate every Fourier mode of conj(w)^r w^j K(z,w) exactly
    K = spaces(weight, q, n, float(n))
    m = float(n)
    z = 0.3 * K.equilibrium.droplet_radius * np.exp(0.7j)
    n_phi = 2 * (n + q) + 16
    r, wr = K._radial_rule(128)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    grid = (r[:, None] * np.exp(1j * phi[None, :])).ravel()
    area = np.repeat(wr * r, n_phi) * (2.0 / n_phi)
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
        # the dense Phi^T conj(Phi) matrix against pairwise kernel values, with
        # blocks of 1, 2 and 3 rows and the origin, where blocks d != 0 vanish
        pts = np.concatenate([[0.0], z[:11]])
        zz, ww = np.meshgrid(pts, pts, indexing="ij")
        gamma = np.sqrt(K.one_point_intensity(pts))
        err = np.abs(K._weighted_matrix(pts) - K.weighted_kernel(zz, ww)) \
            / np.outer(gamma, gamma)
        assert np.max(err) < 1e-12


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
    export_kernel_grid_csv(str(path), K, z, np.zeros(3, dtype=complex))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re_z,im_z,re_w,im_w,re_K,im_K,weighted_abs"
    assert len(lines) == 4
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.1 and first[1] == 0.2
    # K(z, 0) = 1 for the n=2 Ginibre space at m=1
    assert first[4] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the in-place feature pass and its block phases
# ---------------------------------------------------------------------------

def _phase_angles(rng, count):
    # angles of a whole turn, then small ones, where the bound is 8 eps
    # absolute, then the quarter turns, where tan(d theta / 2) is 1 at d = 1
    # and at its pole at d = 2
    return np.concatenate([rng.uniform(-2 * np.pi, 2 * np.pi, count),
                           [0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi],
                           rng.uniform(-1e-3, 1e-3, 50), rng.uniform(-1e-9, 1e-9, 50),
                           [np.pi / 2, -np.pi / 2]])


@pytest.mark.parametrize("q", [1, 2, 8, 100])
@pytest.mark.parametrize("nb", [1, 2, 21, 61, 81, 647, 2561])
def test_block_phase_tables_match_complex_exp(nb, q):
    # the offsets of nb blocks from d = -(q - 1), so negative d is covered;
    # np.exp carries the rounding of d theta, up to |d theta| ulp / 2; nb = 21
    # and 61 are the sample workload's spaces
    theta = _phase_angles(np.random.default_rng(1000 * nb + q), 300)
    d = np.arange(nb) - (q - 1)
    dtheta = d[:, None] * theta[None, :]
    got = _block_phases(d, theta)
    assert got.shape == (nb, theta.size)
    err = np.abs(got - np.exp(1j * dtheta))
    assert np.all(err <= 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(dtheta)))
    assert np.all(got[d == 0] == 1.0)


@pytest.mark.parametrize("nb,q", [(1, 100), (21, 2), (61, 2), (81, 2), (647, 8), (2561, 100)])
def test_block_phases_of_negated_angles_are_conjugate(nb, q):
    # exactly equal; an exact zero, such as the imaginary part at d = 0, may
    # differ in sign
    d = np.arange(nb) - (q - 1)
    theta = _phase_angles(np.random.default_rng(nb + q), 400)
    assert np.array_equal(_block_phases(d, -theta), np.conj(_block_phases(d, theta)))


@pytest.mark.parametrize("weight,q,n", [("ginibre", 2, 80), ("power:p=2", 3, 60),
                                        ("ginibre", 8, 40)])
def test_hermitian_symmetry_is_exact(spaces, weight, q, n):
    K = spaces(weight, q, n, float(n))
    rng = np.random.default_rng(31)
    radius = 1.1 * K.equilibrium.droplet_radius
    a, b = disk_points(rng, 200, radius), disk_points(rng, 200, radius)
    assert np.array_equal(K.weighted_kernel(a, b), np.conj(K.weighted_kernel(b, a)))
    # a scalar side has its features computed once and broadcast
    assert np.array_equal(K.weighted_kernel(a[0], b), np.conj(K.weighted_kernel(b, a[0])))


@pytest.mark.parametrize("weight,q,n", [("ginibre", 1, 12), ("ginibre", 3, 2),
                                        ("power:p=2", 3, 30), ("ginibre", 12, 6)])
def test_weighted_rows_follow_block_order(spaces, weight, q, n):
    # row k of block d, in block order, against the features of __call__; the
    # spaces have blocks of one row count only, and of several
    K = spaces(weight, q, n, float(n))
    fm = K._features
    rng = np.random.default_rng(41)
    z = np.concatenate([[0.0], disk_points(rng, 60, 1.2 * K.equilibrium.droplet_radius)])
    shift, x, ang = fm(z, 0.5)
    phase = np.exp(shift + 1j * fm.d[:, None] * ang[None, :])
    ref = (x.transpose(1, 0, 2) * phase[:, None, :])[fm.mask]
    got = fm.weighted(z)
    assert got.shape == (K.spec.dim, z.size)
    scale = np.sqrt(K.one_point_intensity(z))
    assert np.max(np.abs(got - ref) / scale) <= 1e-13


def in_fresh_thread(call):
    """call() in a new thread, whose buffer pool starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(call).result(timeout=120)


def test_weighted_has_no_full_complex_intermediate():
    # in a fresh thread, so that the pooled buffers of its first call count too
    K = pk.build_space(GINIBRE, pk.SpaceSpec(2, 60, 60.0))
    z = disk_points(np.random.default_rng(37), 700, K.equilibrium.droplet_radius)
    tracemalloc.start()
    try:
        phi = in_fresh_thread(lambda: K._features.weighted(z))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.shape == (120, 700)
    assert peak < 3 * phi.nbytes


def test_pooled_buffers_keep_their_dtype():
    # a key asked for with another dtype gets an array of its own, not a
    # view of the other dtype's memory
    def check():
        real = _buffer("test", "a", (4, 3))
        cplx = _buffer("test", "a", (2, 3), complex)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert not np.shares_memory(real, cplx)
        again = _buffer("test", "a", (3,))
        assert again.dtype == np.float64 and np.shares_memory(again, real)
        assert _buffer("test", "a", (1,), complex).base is cplx.base
        assert not np.shares_memory(_buffer(None, "a", (3,)), real)

    in_fresh_thread(check)


def test_a_new_evaluator_reuses_the_pooled_buffers(spaces):
    # a fresh space finds the working memory of the last one, of its thread
    def features():
        z = disk_points(np.random.default_rng(47), 300, 1.0)
        big, small = spaces("ginibre", 2, 40, 40.0), pk.build_space(
            POWER2, pk.SpaceSpec(3, 12, 12.0))
        return big._features(z, 0.5, "z")[1], small._features(z, 0.5, "z")[1]

    first, second = in_fresh_thread(features)
    assert np.shares_memory(first, second)


POOL_SPACES = [("ginibre", 2, 40, 40.0), ("power:p=2", 3, 30, 30.0),
               ("ginibre", 1, 60, 60.0), ("ginibre", 8, 20, 20.0)]


def pool_build(i):
    weight, q, n, m = POOL_SPACES[i]
    return pk.build_space(pk.parse_weight(weight), pk.SpaceSpec(q, n, m))


def pool_results(K, seed):
    """Outputs of every path that works in the pool, on points that span
    several chunks of PAIR_CHUNK entries."""
    z = disk_points(np.random.default_rng(seed), 3500, 1.1 * K.equilibrium.droplet_radius)
    f = K.factorization
    return (f.log_moments, f.alpha, f.beta, K.one_point_intensity(z),
            K.weighted_kernel(z, z[::-1].copy()), K.weighted_kernel(z, z[0]),
            K._features.weighted(z[:300]), K._reproduced_monomials(0.1))


def pool_job(i, seed):
    return pool_results(pool_build(i), seed)


def test_pooled_evaluators_match_fresh_ones():
    # evaluators of different shapes, called in turn with builds between
    # them, in one thread and across threads: every result equals the
    # result of a fresh build in a fresh thread, whose pool starts empty
    jobs = [(i, 50 + r) for r in range(2) for i in range(len(POOL_SPACES))]
    expect = {job: in_fresh_thread(lambda job=job: pool_job(*job)) for job in jobs}
    spaces = [pool_build(i) for i in range(len(POOL_SPACES))]
    got = {}
    for i, seed in jobs:
        got[i, seed] = pool_results(spaces[i], seed)
        spaces[(i + 1) % len(spaces)] = pool_build((i + 1) % len(spaces))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [(job, pool.submit(pool_job, *job)) for job in jobs * 2]
            threaded = [(job, f.result(timeout=120)) for job, f in futures]
    finally:
        sys.setswitchinterval(interval)
    for job, values in [*got.items(), *threaded]:
        assert all(np.array_equal(a, b) for a, b in zip(values, expect[job])), job


def test_concurrent_evaluation_matches_serial(spaces):
    # every thread works in scratch buffers of its own; shared ones would mix
    # the chunks of concurrent calls
    K = spaces("ginibre", 2, 40, 40.0)
    rng = np.random.default_rng(43)
    step = PAIR_CHUNK // K._features.p.size
    jobs = [disk_points(rng, 3 * step, K.equilibrium.droplet_radius) for _ in range(6)]

    def evaluate(z):
        return (K.one_point_intensity(z), K.weighted_kernel(z, z[::-1].copy()),
                K._features.weighted(z[:100]))

    expect = [evaluate(z) for z in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(evaluate, z) for z in jobs * 3]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for values, reference in zip(got, expect * 3):
        assert all(np.array_equal(a, b) for a, b in zip(values, reference))


# ---------------------------------------------------------------------------
# chunks dealt across threads
# ---------------------------------------------------------------------------

DEAL_SPACES = [("ginibre", 2, 80, 80.0), ("power:p=3", 8, 20, 20.0)]
# point counts in chunks of ``step``: one whole chunk and a tail, two whole,
# two and a one-point tail, three and a one-point tail, and many
DEAL_COUNTS = {"2step-1": (2, -1), "2step": (2, 0), "2step+1": (2, 1),
               "3step+1": (3, 1), "10000": (0, 10000)}


def deal_points(K, label, seed=61):
    step = PAIR_CHUNK // K._features.p.size
    whole, extra = DEAL_COUNTS[label]
    return disk_points(np.random.default_rng(seed), whole * step + extra,
                       1.1 * K.equilibrium.droplet_radius), step


def deal_results(K, z):
    w = z[::-1].copy()
    return [K.one_point_intensity(z), K.log_one_point_intensity(z), K.weighted_kernel(z, w),
            K.weighted_kernel(z, w[0]), K.weighted_kernel(w[:1], z),
            K.log_abs_weighted_kernel(z, w), K.kernel(z, w)]


@pytest.fixture
def feature_calls(monkeypatch):
    """(thread, np.geterr()) of every feature-map call, as it starts."""
    seen = []
    call = kernel_module._FeatureMap.__call__

    def spy(self, *args, **kwargs):
        seen.append((threading.get_ident(), np.geterr()))
        return call(self, *args, **kwargs)

    monkeypatch.setattr(kernel_module._FeatureMap, "__call__", spy)
    return seen


@pytest.mark.parametrize("label", list(DEAL_COUNTS))
@pytest.mark.parametrize("space", DEAL_SPACES, ids=lambda s: f"{s[0]}-{s[1]}-{s[2]}")
def test_dealt_chunks_match_the_serial_loop(spaces, monkeypatch, feature_calls, space, label):
    # the same chunks, on the same boundaries, give the same bytes on one
    # thread, on two, and on up to four; a one-point tail chunk is summed
    # pairwise, as serially
    K = spaces(*space)
    z, step = deal_points(K, label)
    runs = {}
    for workers in (0, 1, 3):
        monkeypatch.setattr(kernel_module, "_workers", lambda workers=workers: workers)
        feature_calls.clear()
        runs[workers] = [a.tobytes() for a in deal_results(K, z)]
        # with two whole chunks or more, some run on the pool's workers
        threads = len({ident for ident, _ in feature_calls})
        assert (threads > 1) == (workers > 0 and z.size >= 2 * step)
    assert runs[1] == runs[0] and runs[3] == runs[0]


def test_a_dealt_call_raises_what_the_serial_loop_raises(spaces, monkeypatch):
    # bad points in chunks 1 and 3: the error names chunk 1's, whichever
    # thread runs it, whichever side holds it and whichever fails first
    K = spaces("ginibre", 2, 80, 80.0)
    step = PAIR_CHUNK // K._features.p.size
    z = disk_points(np.random.default_rng(67), 5 * step, K.equilibrium.droplet_radius)
    w = z[::-1].copy()
    z[3 * step + 7] = complex(2.0, np.inf)
    w[step + 5] = complex(np.inf, 1.0)
    call = kernel_module._FeatureMap.__call__
    for slow in (z[3 * step + 7], w[step + 5]):
        def late(self, points, *args, slow=slow, **kwargs):
            if slow in points:
                time.sleep(0.05)
            return call(self, points, *args, **kwargs)

        monkeypatch.setattr(kernel_module._FeatureMap, "__call__", late)
        for workers in (0, 1, 3):
            monkeypatch.setattr(kernel_module, "_workers", lambda workers=workers: workers)
            with pytest.raises(ConfigurationError, match=r"got \(2\+infj\)"):
                K.one_point_intensity(z)
            with pytest.raises(ConfigurationError, match=r"got \(inf\+1j\)"):
                K.weighted_kernel(z, w)


def test_dealt_chunks_see_the_callers_errstate(spaces, monkeypatch, feature_calls):
    K = spaces("ginibre", 2, 80, 80.0)
    z, _ = deal_points(K, "10000")
    monkeypatch.setattr(kernel_module, "_workers", lambda: 3)
    with np.errstate(over="raise"):
        caller = np.geterr()
        K.one_point_intensity(z)
    assert len({ident for ident, _ in feature_calls}) > 1
    assert all(state == caller for _, state in feature_calls)
    assert caller != np.geterr()


def test_one_usable_cpu_starts_no_thread(spaces, monkeypatch):
    K = spaces("ginibre", 2, 80, 80.0)
    z, step = deal_points(K, "10000")
    monkeypatch.setattr(kernel_module, "_DEAL_POOL", kernel_module._DealPool())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    before = threading.active_count()
    K.one_point_intensity(z)
    # nor does a call of one whole chunk, however many CPUs
    monkeypatch.setattr(kernel_module, "_workers", lambda: 3)
    K.one_point_intensity(z[:2 * step - 1])
    assert kernel_module._DEAL_POOL.threads == 0 and threading.active_count() == before


@pytest.mark.parametrize("cpus, workers", [(4, 3), (1, 0), (None, 0)])
def test_workers_fall_back_to_the_cpu_count(monkeypatch, cpus, workers):
    # without an affinity set (macOS, Windows) the usable CPUs are
    # os.cpu_count(), and one when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert kernel_module._workers() == workers


def test_the_cpu_count_fallback_deals_the_serial_bytes(spaces, monkeypatch, feature_calls):
    K = spaces("ginibre", 2, 80, 80.0)
    z, _ = deal_points(K, "10000")
    workers = kernel_module._workers
    monkeypatch.setattr(kernel_module, "_workers", lambda: 0)
    serial = K.one_point_intensity(z).tobytes()
    monkeypatch.setattr(kernel_module, "_workers", workers)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    feature_calls.clear()
    assert K.one_point_intensity(z).tobytes() == serial
    assert len({ident for ident, _ in feature_calls}) == 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_deals_its_own_chunks(spaces, monkeypatch):
    # the parent's worker threads do not exist in a forked child, so the
    # child starts a pool of its own rather than wait on the parent's
    K = spaces("ginibre", 2, 80, 80.0)
    z, step = deal_points(K, "3step+1")
    monkeypatch.setattr(kernel_module, "_workers", lambda: 1)
    want = K.one_point_intensity(z).tobytes()  # the parent's pool is running
    assert kernel_module._DEAL_POOL.threads > 0
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 and later warn that a fork of a threaded process may
        # deadlock in the child, which is what this test looks for
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            got = K.one_point_intensity(z).tobytes()
            with os.fdopen(write, "wb") as out:
                out.write(got)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    got, deadline = b"", time.monotonic() + 30.0
    with os.fdopen(read, "rb", buffering=0) as pipe:
        while time.monotonic() < deadline:
            if select.select([pipe], [], [], max(0.0, deadline - time.monotonic()))[0]:
                part = pipe.read(1 << 16)
                if not part:
                    break
                got += part
        else:
            os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == want
