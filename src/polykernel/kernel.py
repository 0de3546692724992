"""Gram factorization and evaluation of polyanalytic polynomial kernels.

The space span{conj(z)^r z^j : 0 <= r < q, 0 <= j < n} carries the inner
product of L^2(e^{-mQ} dA).  For a radial weight the monomial Gram matrix is
block diagonal: <conj(z)^s z^k, conj(z)^r z^j> vanishes unless j - r = k - s,
and within the degree-offset-d block the entry is the radial moment
M_{r+s+d}.  Scaled to unit diagonal by D^{-1/2} G D^{-1/2}, with D from the
log-moment table, the nq-dimensional ill-conditioned problem becomes at most
n+q-1 blocks of size at most q.  A block is factored without being formed:
its monomials |z|^p e^{-mQ/2}, sampled on one trapezoid grid in
u = log |z|^2 (quadrature.MomentRule) and normalized to unit norm, are the
columns of a node matrix whose Gram matrix is the scaled block, and the R of
its QR factorization gives the lower factor R^T.  Orthogonal factorization
does not square the block's condition number, so blocks of condition 1e15
(q = 10) need no extended precision, and the log domain keeps m ~ 200
inside double range.

Every quantity comes from one feature map Phi_a(z) = e_a(z) e^{-mQ(z)/2} over
an orthonormal basis e_a: the correlation kernel is sum_a Phi_a(z) conj(Phi_a(w)).
The map never exponentiates a large log: the monomials of block d share the
phase e^{i d arg z}, so each block reduces to a real vector of scaled
log-magnitudes, shifted by its maximum before exponentiation, and all blocks
are solved at once by forward substitution on identity-padded Cholesky
factors.  Pair evaluation recombines the blocks under a global running scale;
the weight factors e^{-mQ/2} fold into the per-monomial logs.

A KernelEvaluator is immutable after construction, apart from tables derived
from the space on first use (concurrent first uses compute the same table),
and safe for concurrent evaluation from many threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigurationError, NumericalDegeneracyError
from .quadrature import (RULE_STEP, MomentRule, gauss_legendre, integrate_polar_grid,
                         log_moment_table)
from .reporting import write_csv
from .weights import RadialEquilibrium, WeightModel

# Least log-drop of the integrand of a block's lowest row at the left end of
# the block's node grid.  Far left only that row survives, and the inverse
# factor amplifies its truncated tail by up to the block's condition number
# (1e15 at q = 10), so the grid reaches twice as far down as a moment rule.
GRAM_LEFT_TAIL = 80.0
NEGATIVE_DET_CLAMP = 1e-10
LOG_FLOOR = -745.0  # double underflow boundary for logged magnitudes
PAIR_CHUNK = 1 << 17  # about 1 MB per float64 working array


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters (q, n, m): polyanalytic order, degree count, scaling."""

    q: int
    n: int
    m: float

    def __post_init__(self):
        if not (isinstance(self.q, (int, np.integer)) and self.q >= 1):
            raise ConfigurationError(f"SpaceSpec needs integer q >= 1, got {self.q!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ConfigurationError(f"SpaceSpec needs integer n >= 1, got {self.n!r}")
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ConfigurationError(f"SpaceSpec needs m > 0, got {self.m!r}")

    @property
    def dim(self) -> int:
        return self.q * self.n


@dataclass(frozen=True)
class _Block:
    """One degree-offset block of the Gram factorization."""

    d: int
    r_values: np.ndarray      # basis rows (r, j=r+d) present in this block
    p_values: np.ndarray      # magnitude exponents 2r + d
    chol: np.ndarray          # lower Cholesky factor of the scaled block


class GramFactorization:
    """Log-moment table plus per-offset factors of the scaled Gram blocks."""

    def __init__(self, weight: WeightModel, spec: SpaceSpec):
        self.weight = weight
        self.spec = spec
        q, n, m = spec.q, spec.n, spec.m
        rule = MomentRule(weight, m, np.arange(n + q - 1))
        self.log_moments = log_moment_table(weight, m, n + q - 2, rule)
        self.blocks: list[_Block] = []
        self.condition_report: dict[int, float] = {}
        total = 0
        for d in range(-(q - 1), n):
            r_lo, r_hi = max(0, -d), min(q - 1, n - 1 - d)
            r = np.arange(r_lo, r_hi + 1)
            p = 2 * r + d
            chol, self.condition_report[d] = self._factor(d, rule, p)
            self.blocks.append(_Block(d, r, p, chol))
            total += r.size
        if total != spec.dim:
            raise NumericalDegeneracyError(
                f"block index sets cover {total} basis elements, expected {spec.dim}"
            )

    def _factor(self, d: int, rule: MomentRule, p: np.ndarray) -> tuple[np.ndarray, float]:
        """Lower factor of block d and the condition number of the scaled block.

        ``rule`` holds the exponents 0..n+q-2 in order, so the rows of the
        block's exponents ``p`` are ``p`` themselves.  The node matrix holds one column per scaled monomial
        |z|^p e^{-mQ/2}, sampled on one trapezoid grid in u that covers the
        rules of every row, so its Gram matrix is the block's, up to the
        column scales.  With unit columns, R of its QR factorization has
        R^T R equal to the scaled block, so chol = R^T is found without
        forming the block and squaring its condition number.
        """
        step = RULE_STEP * np.min(rule.width[p])
        left, right = rule.reach(p, GRAM_LEFT_TAIL)
        lo, hi = np.min(left), np.max(right)
        u = lo + step * np.arange(int(np.ceil((hi - lo) / step)) + 1)
        nodes = np.exp(0.5 * rule.log_integrand(p[None, :], u[:, None]))
        nodes /= np.linalg.norm(nodes, axis=0)
        r_fac = np.linalg.qr(nodes, mode="r")
        r_fac *= np.where(np.diagonal(r_fac) < 0.0, -1.0, 1.0)[:, None]
        diag = np.diagonal(r_fac)
        if not (np.all(np.isfinite(r_fac)) and np.all(diag > 0.0)):
            raise NumericalDegeneracyError(
                f"Gram block d={d} is numerically degenerate: its QR factor has "
                f"diagonal {np.array2string(diag, precision=3)} (condition "
                f"{self._condition(r_fac):.3e}; weight {self.weight.spec_string()}, "
                f"q={self.spec.q}, n={self.spec.n}, m={self.spec.m})"
            )
        return np.ascontiguousarray(r_fac.T), self._condition(r_fac)

    @staticmethod
    def _condition(r_fac: np.ndarray) -> float:
        """cond(R)^2, the condition number of the scaled block R^T R."""
        if not np.all(np.isfinite(r_fac)):
            return math.inf
        with np.errstate(divide="ignore"):
            return float(np.linalg.cond(r_fac)) ** 2


class _FeatureMap:
    """Weighted orthonormal features of every Gram block, batched over points.

    The feature of basis row r in block d at z is
    Phi(z) = e^{shift} * mantissa * e^{i d arg z}, with one real log shift per
    (block, point).  The lower Cholesky factors are padded with the identity
    to an (n+q-1, q, q) tensor and the exponents p = 2r + d to an (n+q-1, q)
    array; padded rows carry an infinite half log-moment, so they
    exponentiate to zero.  One forward substitution over the q rows, each
    step vectorized over blocks x points, then solves every block at once.
    """

    def __init__(self, factorization: GramFactorization):
        blocks = factorization.blocks
        q, nb = factorization.spec.q, len(blocks)
        self.weight, self.m = factorization.weight, factorization.spec.m
        self.d = np.array([blk.d for blk in blocks])
        self.chol = np.tile(np.eye(q), (nb, 1, 1))
        self.p = np.zeros((nb, q), dtype=int)
        self.mask = np.zeros((nb, q), dtype=bool)
        for i, blk in enumerate(blocks):
            size = blk.p_values.size
            self.chol[i, :size, :size] = blk.chol
            self.p[i, :size] = blk.p_values
            self.mask[i, :size] = True
        self.half_logm = np.where(self.mask, 0.5 * factorization.log_moments[self.p],
                                  np.inf)

    def __call__(self, z: np.ndarray, weight_power: float):
        """(shift, mantissa, angles) at flat points z, weighted by e^{-power mQ}.

        Each block's log-magnitudes are shifted by their maximum over the
        block's rows before exponentiation; a block that vanishes at z has
        shift -inf and a zero mantissa.
        """
        with np.errstate(divide="ignore"):
            logr = np.log(np.abs(z))
        p = self.p[:, :, None]
        lt = np.zeros(p.shape[:2] + z.shape)
        np.multiply(p, logr, out=lt, where=p > 0)  # z^0 stays 1 at the origin
        lt -= self.half_logm[:, :, None]
        if weight_power:
            lt -= weight_power * self.m * self.weight.eval_weight(z)
        shift = np.max(lt, axis=1)
        lt -= np.where(np.isfinite(shift), shift, 0.0)[:, None, :]
        x = np.exp(lt, out=lt)
        for k in range(self.chol.shape[1]):
            x[:, k] /= self.chol[:, k, k, None]
            x[:, k + 1:] -= self.chol[:, k + 1:, k, None] * x[:, k, None]
        return shift, x, np.angle(z)

    def weighted(self, z) -> np.ndarray:
        """(dim, N) correlation-kernel features Phi(z), rows in block order.

        A scaled monomial has unit norm, so every e^{shift} is at most
        sqrt(one-point intensity) and the dense form cannot overflow.
        """
        shift, x, ang = self(np.asarray(z, dtype=complex).ravel(), 0.5)
        phase = np.exp(shift + 1j * self.d[:, None] * ang[None, :])
        return (x * phase[:, None, :])[self.mask]


class KernelEvaluator:
    """Evaluates the reproducing kernel and derived statistical quantities.

    Immutable; all evaluation paths stay in the log domain until the final
    recombination, so weighted quantities survive separations where the
    plain kernel would overflow or underflow doubles.
    """

    def __init__(self, factorization: GramFactorization):
        self.factorization = factorization
        self.weight = factorization.weight
        self.spec = factorization.spec
        self.equilibrium = RadialEquilibrium.solve(self.weight)
        self._features = _FeatureMap(factorization)
        # tables that other modules derive from the space alone (the sampler's
        # radial profile of gamma), filled on first use
        self._derived: dict = {}

    def _pair_eval(self, z, w, zw_power: float, ww_power: float):
        """Pairwise kernel values as (log_scale, complex mantissa) arrays.

        Points are taken in chunks of about PAIR_CHUNK (block, row, point)
        entries, so that the working arrays stay in cache.  The features are
        computed once on the diagonal (z is w, equal powers) and once for a
        side holding a single point, which is then broadcast.  On the
        diagonal every block phase is e^0 = 1, so the blocks are summed as
        reals; the mantissa stays complex with a zero imaginary part.
        """
        same = z is w and zw_power == ww_power
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        once_z = z.size == 1 and self._features(z.ravel(), zw_power)
        once_w = w.size == 1 and not same and self._features(w.ravel(), ww_power)
        z, w = np.broadcast_arrays(z, w)
        shape = z.shape
        zf, wf = z.ravel(), w.ravel()
        top = np.empty(zf.size)
        mant = np.empty(zf.size, dtype=complex)
        step = max(1, PAIR_CHUNK // self._features.p.size)
        for lo in range(0, zf.size, step):
            part = slice(lo, lo + step)
            sz, az, ang_z = once_z or self._features(zf[part], zw_power)
            sw, aw, ang_w = (sz, az, ang_z) if same \
                else once_w or self._features(wf[part], ww_power)
            logs = sz + sw
            vals = np.einsum("bri,bri->bi", az, aw)
            if not same:
                vals = vals * np.exp(1j * self._features.d[:, None]
                                     * (ang_z - ang_w)[None, :])
            elif vals.shape[1] == 1:
                # numpy sums a lone column pairwise, grouped differently for
                # real and complex data; summed as complex it keeps the bits
                # of the general path
                vals = vals.astype(complex)
            t = np.max(logs, axis=0)
            t = np.where(np.isfinite(t), t, 0.0)
            top[part] = t
            mant[part] = np.sum(vals * np.exp(logs - t[None, :]), axis=0)
        return top.reshape(shape), mant.reshape(shape)

    # -- public evaluation --------------------------------------------------

    def kernel(self, z, w):
        """Plain kernel value; may overflow doubles for large m Q."""
        scale, mant = self._pair_eval(z, w, 0.0, 0.0)
        out = mant * np.exp(scale)
        return out if out.shape else complex(out)

    def weighted_kernel(self, z, w):
        """Correlation kernel: weight factors e^{-mQ/2} folded per side."""
        scale, mant = self._pair_eval(z, w, 0.5, 0.5)
        out = mant * np.exp(scale)
        return out if out.shape else complex(out)

    def log_abs_weighted_kernel(self, z, w):
        """log |weighted kernel|; -inf where the value is an exact zero."""
        scale, mant = self._pair_eval(z, w, 0.5, 0.5)
        with np.errstate(divide="ignore"):
            out = scale + np.log(np.abs(mant))
        return out if out.shape else float(out)

    def one_point_intensity(self, z):
        """Expected point density K(z,z) e^{-mQ(z)} >= 0."""
        scale, mant = self._pair_eval(z, z, 0.5, 0.5)
        out = np.maximum(np.real(mant), 0.0) * np.exp(scale)
        return out if out.shape else float(out)

    def log_one_point_intensity(self, z):
        scale, mant = self._pair_eval(z, z, 0.5, 0.5)
        with np.errstate(divide="ignore"):
            out = scale + np.log(np.maximum(np.real(mant), 0.0))
        return out if out.shape else float(out)

    def _weighted_matrix(self, points: np.ndarray) -> np.ndarray:
        """All pairwise weighted kernel values, Phi^T conj(Phi)."""
        phi = self._features.weighted(points)
        return phi.T @ phi.conj()

    def k_point_intensity(self, points) -> float:
        """Determinant of the weighted kernel matrix at the given points."""
        pts = np.asarray(points, dtype=complex).ravel()
        k = pts.size
        if not (1 <= k <= self.spec.dim):
            raise ConfigurationError(
                f"k-point intensity needs 1 <= k <= {self.spec.dim}, got {k}"
            )
        mat = self._weighted_matrix(pts)
        det = float(np.real(np.linalg.det(mat)))
        scale = float(np.prod(np.maximum(np.real(np.diag(mat)), 0.0)))
        if det < 0.0:
            if det < -NEGATIVE_DET_CLAMP * max(scale, 1e-300):
                warnings.warn(
                    f"{k}-point intensity determinant {det:.3e} is negative beyond "
                    f"roundoff (scale {scale:.3e}); clamping to 0",
                    stacklevel=2,
                )
            det = 0.0
        return det

    def joint_density(self, points) -> float:
        """Symmetric density of the full nq-point configuration."""
        pts = np.asarray(points, dtype=complex).ravel()
        if pts.size != self.spec.dim:
            raise ConfigurationError(
                f"joint density needs exactly {self.spec.dim} points, got {pts.size}"
            )
        mat = self._weighted_matrix(pts)
        sign, logabs = np.linalg.slogdet(mat)
        if not np.isfinite(logabs) or np.real(sign) <= 0.0:
            return 0.0
        return float(np.real(sign) * np.exp(logabs - gammaln(self.spec.dim + 1)))

    def berezin_density(self, z, w):
        """Probability density |K(w,z)|^2 e^{-mQ(w)} / K(z,z) centred at z."""
        log_gamma = self.log_one_point_intensity(z)
        if not np.all(np.isfinite(np.atleast_1d(log_gamma))):
            raise NumericalDegeneracyError(
                f"berezin centre z={z} has vanishing diagonal kernel"
            )
        log_k = self.log_abs_weighted_kernel(w, z)
        out = np.exp(2.0 * np.asarray(log_k) - log_gamma)
        return out if out.shape else float(out)

    def _reproduced_monomials(self, z: complex, n_r: int | None = None) -> np.ndarray:
        """(q, n) table of int conj(w)^r w^j K(z,w) e^{-mQ(w)} dA(w), w on a disk.

        The disk has radius R + 10 m^{-1/2}.  In polar coordinates the block
        d part of K(z,w) carries the phase e^{i d (arg z - arg w)} and the
        monomial the phase e^{i (j-r) arg w}, so the angular integral keeps
        block d = j - r alone and is exact.  A polar grid gives the same
        numbers: the integrand's Fourier modes in arg w lie in
        [-(n+q-2), n+q-2], and the trapezoid rule on n_phi > n+q-2 angles
        integrates each of them exactly (Trefethen and Weideman, SIAM
        Review 56 (2014)).  What is left is one radial integral per basis
        monomial, on n_r Gauss-Legendre radii on the positive real axis:

            e^{i d arg z} sum_k 2 w_k rho_k rho_k^{2r+d}
                          sum_s e_s(z) e_s(rho_k) e^{-mQ(rho_k)},

        contracted in the log domain over the features of block d.
        """
        q, n, m = self.spec.q, self.spec.n, self.spec.m
        fm = self._features
        n_r = n_r or max(128, 3 * (n + q))
        r_max = self.equilibrium.droplet_radius + 10.0 / math.sqrt(m)
        x, v = gauss_legendre(n_r)
        rho = 0.5 * r_max * (x + 1.0)
        w_rho = 0.5 * r_max * v
        sz, az, ang_z = fm(np.array([z], dtype=complex), 0.0)
        sr, ar, _ = fm(rho.astype(complex), 1.0)
        mant = np.einsum("bs,bsk->bk", az[:, :, 0], ar)
        # log of e^{shifts} * 2 w_k rho_k * rho_k^p, for every (block, row, radius)
        logs = (sz + sr + np.log(2.0 * w_rho * rho))[:, None, :] \
            + fm.p[:, :, None] * np.log(rho)
        t = np.max(logs, axis=2)
        t = np.where(np.isfinite(t), t, 0.0)
        vals = np.exp(t) * np.sum(mant[:, None, :] * np.exp(logs - t[:, :, None]), axis=2)
        vals = vals * np.exp(1j * fm.d * ang_z)[:, None]
        blocks = self.factorization.blocks
        r_idx = np.concatenate([blk.r_values for blk in blocks])
        j_idx = np.concatenate([blk.r_values + blk.d for blk in blocks])
        table = np.empty((q, n), dtype=complex)
        table[r_idx, j_idx] = vals[fm.mask]
        return table

    def reproducing_residual(self, z: complex, n_r: int | None = None) -> float:
        """Worst basis-monomial reproduction defect at the probe point.

        max over basis monomials phi of
        | int phi(w) K(z,w) e^{-mQ(w)} dA(w) - phi(z) | / (1 + |phi(z)|),
        with the integrals of ``_reproduced_monomials``: exact in the angle,
        n_r = max(128, 3(n+q)) Gauss-Legendre radii on the disk of radius
        R + 10 m^{-1/2}.
        """
        q, n = self.spec.q, self.spec.n
        vals = self._reproduced_monomials(z, n_r)
        phi_z = np.outer(np.conjugate(z) ** np.arange(q), z ** np.arange(n))
        return float(np.max(np.abs(vals - phi_z) / (1.0 + np.abs(phi_z))))

    def total_intensity(self, n_r: int = 400, n_phi: int = 64) -> float:
        """Quadrature of the one-point intensity; equals nq by orthonormality.

        gamma is radial, so one angle would give the same integral in exact
        arithmetic.  But |r e^{i phi}| rounds to a slightly different radius
        at each angle, so the n_phi angles average the evaluation noise of
        gamma: at ginibre q=8 n=m=40 the per-angle trace defects scatter
        with standard deviation 4.0e-11 around a mean of -4.6e-11, while
        the positive real axis alone reads -8.7e-11.  So the trace keeps its
        full polar grid.
        """
        r_max = self.equilibrium.droplet_radius + 12.0 / math.sqrt(self.spec.m)
        return integrate_polar_grid(
            lambda zz: self.one_point_intensity(zz), r_max, n_r, n_phi
        )


def build_space(weight: WeightModel, spec: SpaceSpec) -> KernelEvaluator:
    """Assemble moments, blocks, and their factors for one space."""
    return KernelEvaluator(GramFactorization(weight, spec))


def export_kernel_grid_csv(path: str, evaluator: KernelEvaluator, z_points,
                           w_points) -> None:
    """Write kernel evaluations as CSV rows in full double precision."""
    z = np.asarray(z_points, dtype=complex).ravel()
    w = np.asarray(w_points, dtype=complex).ravel()
    z, w = np.broadcast_arrays(z, w)
    plain = np.atleast_1d(evaluator.kernel(z, w))
    wabs = np.exp(np.atleast_1d(evaluator.log_abs_weighted_kernel(z, w)))
    write_csv(path, ["re_z", "im_z", "re_w", "im_w", "re_K", "im_K", "weighted_abs"],
              zip(z.real, z.imag, w.real, w.imag, plain.real, plain.imag, wabs))
