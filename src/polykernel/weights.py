"""Radial weight catalog: Q, its radial derivatives, and droplet geometry.

Every weight in the catalog is radial with an entire polarization,

    Q(r) = sum_k c_k r^(2k)   <->   Q(z, w) = sum_k c_k (z * conj(w))^k,

so the three families (ginibre, power, radialpoly) are one coefficient list
c_1..c_K.  The polarization and the objects built from it (b and theta) live
in ``localexpansion``, their one consumer.  The quarter-Laplacian dQ of Q,
which is b on the diagonal, must be strictly positive on (0, r_max] for
every catalog member: that makes the droplet a disk and every radial
bisection monotone.

Droplet geometry: the equilibrium density is dQ restricted to the disk of
radius R, where R solves R * Q'(R) = 2 (unit total mass).  The equilibrium
potential equals Q inside the disk and Q(R) + 2 log(|z|/R) outside, matching
C^1 across the boundary by the definition of R.

All objects here are immutable after construction and every function is pure,
so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, require_integer
from .quadrature import gauss_legendre_on


@dataclass(frozen=True)
class WeightModel:
    """A catalog weight Q(r) = sum_k coeffs[k-1] * r^(2k).

    ``coeffs`` holds c_1..c_K; ``label`` is the catalog string, which
    ``parse_weight`` reads back to an equal weight.  Equality is by
    coefficients alone.  Every catalog weight grows at least quadratically,
    so the growth bound Q(z) >= (1 + eps) log|z|^2 for large |z| holds with
    eps = 1.
    """

    coeffs: tuple[float, ...]
    label: str = field(default="", compare=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def ginibre() -> "WeightModel":
        return WeightModel((1.0,), label="ginibre")

    @staticmethod
    def power(p: int) -> "WeightModel":
        p = require_integer(p, "power weight p", 1)
        c = [0.0] * p
        c[p - 1] = 1.0
        return WeightModel(tuple(c), label=f"power:p={p}")

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
        w = WeightModel(c, label="radialpoly:c=" + ",".join(format(x, ".17g") for x in c))
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
        key = key.strip()
        if not eq or not key:
            raise ConfigurationError(f"invalid weight parameter token '{tok}'")
        if key in out:
            raise ConfigurationError(f"repeated weight parameter '{key}' in '{full}'")
        out[key] = val.strip()
    return out


# ---------------------------------------------------------------------------
# Droplet geometry
# ---------------------------------------------------------------------------


def droplet_radius(w: WeightModel) -> float:
    """Radius R of the droplet disk, solving R Q'(R) = 2 by bisection.

    The map r -> r Q'(r) is strictly increasing (its derivative is 4 r dQ),
    so the root is unique.  Equivalent statement: the equilibrium measure
    dQ 1_{|z|<=R} dA has total mass R Q'(R) / 2 = 1.  The bracket [1e-12, 1]
    is widened until it holds the root, then bisected to a relative width
    of 1e-14.
    """
    def g(r):
        return r * w.q_prime(r) - 2.0

    lo, hi = 1e-12, 1.0
    while g(hi) < 0.0:
        hi *= 2.0
        if hi > 2.0**600:
            raise ConfigurationError("droplet radius bisection found no upper bracket")
    while g(lo) > 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ConfigurationError("droplet radius bisection found no lower bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=64)
def _droplet_radius_of(w: WeightModel) -> float:
    """droplet_radius, solved once per weight: equal weights (same
    coefficients) share it, and every build and ladder asks for it."""
    return droplet_radius(w)


@dataclass(frozen=True)
class RadialEquilibrium:
    """Droplet radius plus the equilibrium potential of a radial weight."""

    weight: WeightModel
    droplet_radius: float

    @staticmethod
    def solve(w: WeightModel) -> "RadialEquilibrium":
        return RadialEquilibrium(w, _droplet_radius_of(w))

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

    def weighted_energy(self, n_quad: int = 512) -> float:
        """Weighted logarithmic energy of the equilibrium measure.

        The double planar integral reduces to a double radial integral via
        the circular mean of log|z - w|^2, which equals 2 log max(|z|, |w|):

            energy = -2 int_0^R mu(t) log t [int_0^t mu(s) ds] dt
                     + int_0^R Q(t) mu(t) dt,        mu(t) = 2 t dQ(t).

        The outer rule has n_quad >= 64 points, the inner min(n_quad, 128).
        """
        n_quad = require_integer(n_quad, "n_quad", 64)
        t, vt = gauss_legendre_on(n_quad, 0.0, self.droplet_radius)
        mu_t = 2.0 * t * self.weight.delta_q(t)
        # inner cumulative mass P(t) = int_0^t mu, one Gauss-Legendre rule per node
        s, ws = gauss_legendre_on(min(n_quad, 128), 0.0, t)
        P = np.sum(ws * 2.0 * s * self.weight.delta_q(s), axis=1)
        log_energy = -2.0 * np.sum(vt * mu_t * np.log(t) * P)
        field_energy = np.sum(vt * self.weight.eval_weight(t) * mu_t)
        return float(log_energy + field_energy)
