"""Radial weight catalog: Q, its radial derivatives, and droplet geometry.

Every weight in the catalog is radial with an entire polarization,

    Q(r) = sum_k c_k r^(2k)   <->   Q(z, w) = sum_k c_k (z * conj(w))^k,

so the three families (ginibre, power, radialpoly) are one coefficient list
c_1..c_K.  The polarization and the objects built from it (b and theta) live
in ``localexpansion``, their one consumer.  The quarter-Laplacian dQ of Q,
which is b on the diagonal, must be strictly positive for every catalog
member: that makes the droplet a disk and every radial bisection monotone.
``radialpoly`` checks dQ finite and > 0 on 256 log-spaced radii from 1e-6 R
to 10 R, R the droplet radius: the radii scale with the weight, so c_k s^k
gets the verdict of c_k for every s > 0.

Droplet geometry: the equilibrium density is dQ restricted to the disk of
radius R, where R solves R * Q'(R) = 2 (unit total mass).  The equilibrium
potential equals Q inside the disk and Q(R) + 2 log(|z|/R) outside, matching
C^1 across the boundary by the definition of R.  The disk of radius t carries
the mass t Q'(t) / 2, a polynomial in t, so the weighted logarithmic energy
of the equilibrium measure is a finite sum over pairs of coefficients, with
no quadrature: this module imports nothing of the package but ``errors``.

All objects here are immutable after construction and every function is pure,
so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, require_integer


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
        # on the droplet's own scale (module docstring); mixed-sign lists fail here
        with np.errstate(over="ignore", invalid="ignore"):
            radii = droplet_radius(self) * np.geomspace(1e-6, 10.0, 256)
            dq = self.delta_q(radii)
        if not np.all(np.isfinite(dq)):
            raise ConfigurationError(f"radialpoly weight's quarter-Laplacian is past "
                                     f"double range within r = {radii[-1]:.6g}")
        if np.any(dq <= 0.0):
            raise ConfigurationError(
                f"radialpoly weight is not strictly subharmonic: quarter-Laplacian "
                f"{dq.min():.6g} <= 0 at r = {radii[np.argmin(dq)]:.6g}")

    # -- scalar weight data ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @np.errstate(over="ignore")
    def eval_weight(self, z) -> float | np.ndarray:
        """Q(z), inf past double range; depends only on |z| for the radial catalog."""
        r2 = np.abs(np.asarray(z)) ** 2
        out = np.full_like(r2, self.coeffs[-1], dtype=float)
        for k in range(self.degree - 1, 0, -1):
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


@functools.lru_cache(maxsize=64)
def droplet_radius(w: WeightModel) -> float:
    """Radius R of the droplet disk, solving R Q'(R) = 2 by bisection.

    The map r -> r Q'(r) is strictly increasing (its derivative is 4 r dQ),
    so the root is unique.  Equivalent statement: the equilibrium measure
    dQ 1_{|z|<=R} dA has total mass R Q'(R) / 2 = 1.  The bracket [1e-12, 1]
    is widened until it holds the root, then bisected to a relative width
    of 1e-14, once per weight: equal weights (same coefficients) share it.
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
    for _ in range(1100):  # about 47 + log2(1/R) halvings, and lo >= 1e-300
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


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

    def weighted_energy(self) -> float:
        """Weighted logarithmic energy of the equilibrium measure, in closed form.

        The double planar integral reduces to a double radial integral via
        the circular mean of log|z - w|^2, which equals 2 log max(|z|, |w|):

            energy = -2 int_0^R mu(t) log t P(t) dt + int_0^R Q(t) mu(t) dt,

        with density mu(t) = 2 t dQ(t) = sum_j 2 j^2 c_j t^(2j-1) and mass
        P(t) = int_0^t mu = t Q'(t) / 2 = sum_k k c_k t^(2k).  Every term is
        a power of t, and int_0^R t^(2n-1) log t dt = R^(2n) (log R / (2n) -
        1 / (4 n^2)), so with a_k = c_k R^(2k) and n = j + k

            energy = sum_{j,k} 2 j^2 a_j a_k
                         (1 / (2n) - 2k (log R / (2n) - 1 / (4 n^2))).
        """
        R = self.droplet_radius
        log_r = math.log(R)
        a = [c * R ** (2 * k) for k, c in enumerate(self.weight.coeffs, start=1)]
        energy = 0.0
        for j, aj in enumerate(a, start=1):
            for k, ak in enumerate(a, start=1):
                n = j + k
                energy += 2.0 * j * j * aj * ak * (
                    1.0 / (2 * n) - 2.0 * k * (log_r / (2 * n) - 1.0 / (4 * n * n)))
        return energy
