"""Radial weight catalog: Q, its polarization, b-derivatives, and droplet geometry.

Every weight in the catalog is radial with an entire polarization,

    Q(r) = sum_k c_k r^(2k)   <->   Q(z, w) = sum_k c_k (z * conj(w))^k,

so the three families (ginibre, power, radialpoly) share one coefficient
engine.  The polarization is analytic in z, anti-analytic in w, and restricts
to Q on the diagonal.  From it we derive

    b(z, w)      = d_z dbar_w Q(z, w) = sum_k c_k k^2 (z conj(w))^(k-1),
    theta(z, w)  = (Q(w) - Q(z, w)) / (w - z),

with all mixed derivatives of b in closed form (monomial calculus), and the
removable diagonal singularity of theta handled by a terminating Taylor
series.  b restricted to the diagonal equals the quarter-Laplacian dQ of Q,
which must be strictly positive on (0, r_max] for every catalog member: that
makes the droplet a disk and every radial bisection monotone.

Droplet geometry: the equilibrium density is dQ restricted to the disk of
radius R, where R solves R * Q'(R) = 2 (unit total mass).  The equilibrium
potential equals Q inside the disk and Q(R) + 2 log(|z|/R) outside, matching
C^1 across the boundary by the definition of R.

All objects here are immutable after construction and every function is pure,
so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Orders of theta's Taylor series kept in the near-diagonal branch.  For a
# catalog weight of polynomial degree K the series terminates exactly at
# order K-1, so 8 is only a cap for unusually long coefficient lists.
THETA_SERIES_ORDER = 8

# Crossover separation between the series and quotient branches of theta.
# The quotient loses ~3 digits at separation 1e-3 while the series is exact
# (or has error far below 1e-16) there.
def _h_switch(z: complex | np.ndarray) -> float | np.ndarray:
    return 1e-3 * np.maximum(1.0, np.abs(z))


def _falling(k: np.ndarray, d: int) -> np.ndarray:
    """Falling factorial k(k-1)...(k-d+1), zero when k < d."""
    out = np.ones_like(k, dtype=float)
    for i in range(d):
        out = out * np.maximum(k - i, 0)
    return out


@dataclass(frozen=True)
class WeightModel:
    """A catalog weight Q(r) = sum_k coeffs[k-1] * r^(2k).

    ``family`` is one of "ginibre", "power", "radialpoly"; ``coeffs`` holds
    c_1..c_K.  ``growth_epsilon`` records the epsilon of the growth bound
    Q(z) >= (1+eps) log|z|^2 for large |z|; every catalog weight grows at
    least quadratically so eps = 1 always works (the corresponding radius C
    is finite but unused beyond documentation).
    """

    family: str
    coeffs: tuple[float, ...]
    growth_epsilon: float = 1.0
    label: str = field(default="", compare=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def ginibre() -> "WeightModel":
        return WeightModel("ginibre", (1.0,), label="ginibre")

    @staticmethod
    def power(p: int) -> "WeightModel":
        if not (isinstance(p, (int, np.integer)) and p >= 1):
            raise ConfigurationError(f"power weight needs integer p >= 1, got {p!r}")
        c = [0.0] * p
        c[p - 1] = 1.0
        return WeightModel("power", tuple(c), label=f"power:p={int(p)}")

    @staticmethod
    def radialpoly(coeffs) -> "WeightModel":
        c = tuple(float(x) for x in coeffs)
        if len(c) == 0:
            raise ConfigurationError("radialpoly weight needs at least one coefficient")
        if not all(math.isfinite(x) for x in c):
            raise ConfigurationError(f"radialpoly coefficients must be finite, got {c}")
        if c[-1] <= 0:
            raise ConfigurationError(
                f"radialpoly leading coefficient must be positive, got {c[-1]}"
            )
        w = WeightModel(
            "radialpoly", c,
            label="radialpoly:c=" + ",".join(format(x, ".17g") for x in c),
        )
        w._validate_subharmonicity()
        return w

    def _validate_subharmonicity(self) -> None:
        # dQ > 0 on 256 log-spaced radii up to ten times a crude droplet
        # radius guess; mixed-sign coefficient lists are rejected here.
        r_guess = 1.0
        for _ in range(200):
            if r_guess * self.q_prime(r_guess) >= 2.0:
                break
            r_guess *= 1.5
        radii = np.geomspace(1e-6, 10.0 * r_guess, 256)
        dq = self.delta_q(radii)
        if np.any(dq <= 0.0):
            bad = radii[np.argmin(dq)]
            raise ConfigurationError(
                f"radialpoly weight is not strictly subharmonic: "
                f"quarter-Laplacian {self.delta_q(bad):.6g} <= 0 at r = {bad:.6g}"
            )

    # -- scalar weight data ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def eval_weight(self, z) -> float | np.ndarray:
        """Q(z); depends only on |z| for the radial catalog."""
        r2 = np.abs(np.asarray(z)) ** 2
        out = np.zeros_like(r2, dtype=float)
        for k in range(self.degree, 0, -1):
            out = out * r2 + self.coeffs[k - 1]
        out = out * r2
        return out if out.shape else float(out)

    def q_prime(self, r) -> float | np.ndarray:
        """Radial derivative Q'(r) = sum_k 2 k c_k r^(2k-1)."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for k in range(self.degree, 0, -1):
            out = out * r * r + 2.0 * k * self.coeffs[k - 1]
        out = out * r
        return out if out.shape else float(out)

    def delta_q(self, z) -> float | np.ndarray:
        """Quarter-Laplacian of Q; equals b on the diagonal."""
        r2 = np.abs(np.asarray(z)) ** 2
        out = np.zeros_like(r2, dtype=float)
        for k in range(self.degree, 0, -1):
            out = out * r2 + k * k * self.coeffs[k - 1]
        return out if out.shape else float(out)

    # -- polarization and derived objects -----------------------------------

    def polarize(self, z, wc) -> complex | np.ndarray:
        """Q(z, wc) = sum_k c_k (z conj(wc))^k, entire in (z, conj(wc))."""
        u = np.asarray(z, dtype=complex) * np.conjugate(np.asarray(wc, dtype=complex))
        out = np.zeros_like(u)
        for k in range(self.degree, 0, -1):
            out = out * u + self.coeffs[k - 1]
        out = out * u
        return out if out.shape else complex(out)

    def _polarize_dz(self, z, wc, order: int) -> np.ndarray:
        """d_z^order of the polarization (order >= 1)."""
        z = np.asarray(z, dtype=complex)
        wb = np.conjugate(np.asarray(wc, dtype=complex))
        out = np.zeros(np.broadcast(z, wb).shape, dtype=complex)
        for k in range(order, self.degree + 1):
            fall = 1.0
            for i in range(order):
                fall *= k - i
            out = out + self.coeffs[k - 1] * fall * z ** (k - order) * wb**k
        return out

    def b_deriv(self, z, wc, dz: int = 0, dw: int = 0) -> complex | np.ndarray:
        """d_z^dz dbar_w^dw of b(z, wc), closed form.

        The public contract needs orders at most (2, 2); higher orders are
        valid for the catalog and used internally by the theta series.
        """
        z = np.asarray(z, dtype=complex)
        wb = np.conjugate(np.asarray(wc, dtype=complex))
        out = np.zeros(np.broadcast(z, wb).shape, dtype=complex)
        for k in range(1, self.degree + 1):
            e = k - 1
            if e < dz or e < dw:
                continue
            fz = 1.0
            for i in range(dz):
                fz *= e - i
            fw = 1.0
            for i in range(dw):
                fw *= e - i
            out = out + self.coeffs[k - 1] * (k * k) * fz * fw * z ** (e - dz) * wb ** (e - dw)
        return out if out.shape else complex(out)

    def hermitian_b(self, z, wc, dz: int = 0, dw: int = 0) -> complex | np.ndarray:
        if not (0 <= dz <= 2 and 0 <= dw <= 2):
            raise ConfigurationError(
                f"hermitian_b supports derivative orders 0..2, got ({dz}, {dw})"
            )
        return self.b_deriv(z, wc, dz, dw)

    def phase_theta(self, z, wc) -> complex | np.ndarray:
        """theta(z, wc) = (Q(wc) - Q(z, wc)) / (wc - z), diagonal-regular.

        Near the diagonal (separation below the crossover) the terminating
        Taylor series in (w - z) is used; away from it the literal quotient.
        """
        z = np.asarray(z, dtype=complex)
        w = np.asarray(wc, dtype=complex)
        z, w = np.broadcast_arrays(z, w)
        near = np.abs(w - z) < _h_switch(z)
        out = np.empty(z.shape, dtype=complex)
        if np.any(near):
            out[near] = self._theta_series(z[near], w[near])
        far = ~near
        if np.any(far):
            zf, wf = z[far], w[far]
            out[far] = (self.eval_weight(wf) - self.polarize(zf, wf)) / (wf - zf)
        return out if out.shape else complex(out)

    def _theta_series(self, z, w) -> np.ndarray:
        h = w - z
        jmax = min(THETA_SERIES_ORDER, self.degree - 1)
        out = np.zeros_like(np.asarray(z, dtype=complex))
        hp = np.ones_like(out)
        for j in range(jmax + 1):
            out = out + hp / math.factorial(j + 1) * self._polarize_dz(z, w, j + 1)
            hp = hp * h
        return out

    def dbar_theta(self, z, wc, order: int = 0) -> complex | np.ndarray:
        """dbar_w^(order+1) theta(z, wc); orders 0..2.

        Near branch: dbar_w^(s) theta = sum_j (w-z)^j / (j+1)! *
        d_z^j dbar_w^(order) b, the term-by-term anti-holomorphic derivative
        of theta's Taylor series.  Far branch: exact differentiation of the
        quotient using (w^k - z^k)/(w - z) = sum_i w^i z^(k-1-i).
        """
        if not (0 <= order <= 2):
            raise ConfigurationError(f"dbar_theta supports orders 0..2, got {order}")
        z = np.asarray(z, dtype=complex)
        w = np.asarray(wc, dtype=complex)
        z, w = np.broadcast_arrays(z, w)
        near = np.abs(w - z) < _h_switch(z)
        out = np.empty(z.shape, dtype=complex)
        if np.any(near):
            zn, wn = z[near], w[near]
            h = wn - zn
            jmax = min(THETA_SERIES_ORDER, self.degree - 1)
            acc = np.zeros_like(zn)
            hp = np.ones_like(zn)
            for j in range(jmax + 1):
                acc = acc + hp / math.factorial(j + 1) * self.b_deriv(zn, wn, j, order)
                hp = hp * h
            out[near] = acc
        far = ~near
        if np.any(far):
            out[far] = self._dbar_theta_quotient(z[far], w[far], order + 1)
        return out if out.shape else complex(out)

    def _dbar_theta_quotient(self, z, w, s: int) -> np.ndarray:
        wb = np.conjugate(w)
        out = np.zeros_like(np.asarray(z, dtype=complex))
        for k in range(s, self.degree + 1):
            fall = 1.0
            for i in range(s):
                fall *= k - i
            gk = np.zeros_like(out)
            for i in range(k):  # (w^k - z^k)/(w - z)
                gk = gk + w**i * z ** (k - 1 - i)
            out = out + self.coeffs[k - 1] * fall * wb ** (k - s) * gk
        return out

    # -- misc ---------------------------------------------------------------

    def spec_string(self) -> str:
        return self.label

    def positivity_radius(self) -> float:
        """Largest r below which dQ may vanish (0 except for power p >= 2)."""
        return 0.0 if self.delta_q(0.0) > 0.0 else np.inf


def parse_weight(text: str) -> WeightModel:
    """Parse a weight specification string.

    Grammar: "ginibre" | "power:p=<int>" | "radialpoly:c=<float>,<float>,...".
    Unknown or malformed tokens raise ConfigurationError naming the token.
    """
    s = text.strip()
    head, _, rest = s.partition(":")
    fam = head.strip().lower()
    if fam == "ginibre":
        if rest:
            raise ConfigurationError(f"unexpected parameters for ginibre: '{rest}'")
        return WeightModel.ginibre()
    if fam == "power":
        kv = _parse_params(rest, s)
        if set(kv) != {"p"}:
            raise ConfigurationError(f"power weight requires exactly 'p=<int>' in '{s}'")
        try:
            p = int(kv["p"])
        except ValueError:
            raise ConfigurationError(f"invalid integer for token 'p={kv['p']}'") from None
        return WeightModel.power(p)
    if fam == "radialpoly":
        kv = _parse_params(rest, s)
        if set(kv) != {"c"}:
            raise ConfigurationError(
                f"radialpoly weight requires exactly 'c=<floats>' in '{s}'"
            )
        try:
            coeffs = [float(tok) for tok in kv["c"].split(",")]
        except ValueError:
            raise ConfigurationError(f"invalid float in token 'c={kv['c']}'") from None
        return WeightModel.radialpoly(coeffs)
    raise ConfigurationError(f"unknown weight family '{head}'")


def _parse_params(rest: str, full: str) -> dict[str, str]:
    if not rest:
        raise ConfigurationError(f"missing parameters in weight string '{full}'")
    out: dict[str, str] = {}
    for tok in rest.split(";"):
        key, eq, val = tok.partition("=")
        if not eq or not key.strip():
            raise ConfigurationError(f"invalid weight parameter token '{tok}'")
        out[key.strip()] = val.strip()
    return out


# ---------------------------------------------------------------------------
# Droplet geometry
# ---------------------------------------------------------------------------


def _bisect_increasing(g, lo: float, hi: float, close_enough, what: str) -> float:
    """Root of an increasing g: widen [lo, hi] to a sign bracket, then bisect.

    ``close_enough(lo, hi)`` is the caller's stopping rule.
    """
    grow = 0
    while g(hi) < 0.0:
        hi *= 2.0
        grow += 1
        if grow > 600:
            raise ConfigurationError(f"{what} found no upper bracket")
    while g(lo) > 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ConfigurationError(f"{what} found no lower bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if close_enough(lo, hi):
            break
    return 0.5 * (lo + hi)


def droplet_radius(w: WeightModel, tol: float = 1e-14) -> float:
    """Radius R of the droplet disk, solving R Q'(R) = 2 by bisection.

    The map r -> r Q'(r) is strictly increasing (its derivative is 4 r dQ),
    so the root is unique.  Equivalent statement: the equilibrium measure
    dQ 1_{|z|<=R} dA has total mass R Q'(R) / 2 = 1.
    """
    return _bisect_increasing(lambda r: r * w.q_prime(r) - 2.0, 1e-12, 1.0,
                              lambda lo, hi: hi - lo < tol * max(1.0, hi),
                              "droplet radius bisection")


@dataclass(frozen=True)
class RadialEquilibrium:
    """Droplet radius plus the equilibrium potential of a radial weight."""

    weight: WeightModel
    droplet_radius: float

    @staticmethod
    def solve(w: WeightModel) -> "RadialEquilibrium":
        return RadialEquilibrium(w, droplet_radius(w))

    def equilibrium_potential(self, z) -> float | np.ndarray:
        """Q(z) inside the droplet, Q(R) + 2 log(|z|/R) outside; C^1 at R."""
        r = np.abs(np.asarray(z, dtype=complex))
        R = self.droplet_radius
        inside = self.weight.eval_weight(r)
        with np.errstate(divide="ignore"):
            outside = self.weight.eval_weight(R) + 2.0 * np.log(
                np.maximum(r, 1e-300) / R
            )
        out = np.where(r <= R, inside, outside)
        return out if out.shape else float(out)

    def equilibrium_gap(self, z) -> float | np.ndarray:
        """Q(z) - equilibrium potential; zero on the droplet, > 0 outside."""
        r = np.abs(np.asarray(z, dtype=complex))
        gap = self.weight.eval_weight(r) - self.equilibrium_potential(r)
        return np.maximum(gap, 0.0)

    def radial_density(self, r) -> np.ndarray:
        """Density of the equilibrium measure in the radius variable, 2 r dQ(r)."""
        r = np.asarray(r, dtype=float)
        return 2.0 * r * self.weight.delta_q(r) * (r <= self.droplet_radius)

    def weighted_energy(self, n_quad: int = 512) -> float:
        """Weighted logarithmic energy of the equilibrium measure.

        The double planar integral reduces to a double radial integral via
        the circular mean of log|z - w|^2, which equals 2 log max(|z|, |w|):

            energy = -2 int_0^R mu(t) log t [int_0^t mu(s) ds] dt
                     + int_0^R Q(t) mu(t) dt,        mu(t) = 2 t dQ(t).

        Both levels use Gauss-Legendre rules with n_quad points.
        """
        if n_quad < 64:
            raise ConfigurationError(f"weighted_energy needs n_quad >= 64, got {n_quad}")
        R = self.droplet_radius
        x, v = np.polynomial.legendre.leggauss(n_quad)
        t = 0.5 * R * (x + 1.0)
        vt = 0.5 * R * v
        mu_t = 2.0 * t * self.weight.delta_q(t)
        # inner cumulative mass P(t) = int_0^t mu, one Gauss-Legendre rule per node
        xi, vi = np.polynomial.legendre.leggauss(min(n_quad, 128))
        s = 0.5 * t[:, None] * (xi[None, :] + 1.0)
        ws = 0.5 * t[:, None] * vi[None, :]
        P = np.sum(ws * 2.0 * s * self.weight.delta_q(s), axis=1)
        log_energy = -2.0 * np.sum(vt * mu_t * np.log(t) * P)
        field_energy = np.sum(vt * self.weight.eval_weight(t) * mu_t)
        return float(log_energy + field_energy)
