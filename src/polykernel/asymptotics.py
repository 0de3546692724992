"""Desk-scale verification harnesses for the bulk and off-diagonal limits.

Four measurements, all deterministic given their parameters:

* blow-up comparison: rescaled weighted kernel modulus at a bulk point
  against the Laguerre bulk profile |L^1_{q-1}(|xi - lambda|^2)| e^{-|xi-lambda|^2/2},
  with a log-log rate fit of the sup error over an m ladder;
* off-diagonal decay scans of log |weighted kernel|^2 along rays, with the
  per-m slope reported in units of sqrt(m) (separations are chosen
  proportional to m^{-1/2} so the rescaled slope is comparable across the
  ladder);
* outside-droplet decay margins log G(z) + m (Q - Qhat)(z) - 2 log m, which
  must stay bounded by a constant calibrated at a reference m;
* the droplet diagonal bound G(z) <= m (8 + 48 A^2) e^A with
  A = sup of the quarter-Laplacian within distance 1 of the droplet (q = 2).

A ladder checks all its arguments before its first build (``_ladder``).  Its
rungs come from ``kernel._ladder_spaces``: for a weight of one term,
Q = c |z|^{2K} (ginibre, power), the block measures t^{|d|} e^{-mQ} dt are
m-free in s = (mc)^{1/K} t, so every rung is its top rung's build rescaled
and cut to its rows.  Other weights build every rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, require_integer, require_positive
from .kernel import LOG_FLOOR, KernelEvaluator, _ladder_spaces
from .localexpansion import _laguerre1
from .weights import RadialEquilibrium, WeightModel

DECAY_U_RANGE = (0.3, 1.25)  # microscopic separations sqrt(m) s of a decay scan
BLOWUP_GRID = (2.5, 17)  # default (grid_radius, grid_n) of a blow-up comparison
DECAY_SCAN = (4, 12)  # default (n_directions, n_separations) of a decay ladder
LADDER_RULE = "at least 2 distinct m, none repeated, each finite and > 0"


def _require_bulk(eq: RadialEquilibrium, z0: complex) -> float:
    """The quarter-Laplacian at z0, which must lie in the open droplet with
    a positive quarter-Laplacian."""
    R = eq.droplet_radius
    if not (abs(z0) < R):
        raise ConfigurationError(f"z0 = {z0} is outside the open droplet (R = {R:.6g})")
    dq = eq.weight.delta_q(z0)
    if not (dq > 0.0):
        raise ConfigurationError(f"quarter-Laplacian at z0 = {z0} is not positive")
    return float(dq)


@np.errstate(over="ignore", invalid="ignore")
def bulk_limit_profile(q: int, t):
    """|L^1_{q-1}(t^2)| e^{-t^2/2}: modulus of the universal bulk kernel, q >= 1.
    It is 0 where e^{-t^2/2} is, which is wherever L^1_{q-1}(t^2) overflows."""
    q = require_integer(q, "q", 1)
    t = np.asarray(t, dtype=float)
    damp = np.exp(-0.5 * t * t)
    return np.where(damp == 0.0, 0.0, np.abs(_laguerre1(q - 1, t * t)) * damp)


@dataclass
class BlowupResult:
    """Error field of one blow-up comparison at a single m."""

    m: float
    n: int
    xi: np.ndarray
    lam: np.ndarray
    errors: np.ndarray
    sup_error: float


def _square_grid(center: complex, radius: float, n: int) -> np.ndarray:
    """center + x + iy, x (slow) and y over linspace(-radius, radius, n), flat."""
    side = np.linspace(-radius, radius, n)
    return (center + side[:, None] + 1j * side[None, :]).ravel()


def blowup_grid(grid_radius: float, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Default comparison set: (xi, 0) plane plus the diagonal slice (xi, -xi)."""
    xi = _square_grid(0.0, grid_radius, grid_n)
    return np.concatenate([xi, xi]), np.concatenate([np.zeros_like(xi), -xi])


def _require_grid(grid_radius: float, grid_n: int) -> None:
    """The checks of a blow-up grid: grid_radius finite and > 0, grid_n an
    integer >= 1."""
    require_positive(grid_radius, "grid_radius")
    require_integer(grid_n, "grid_n", 1)


def blowup_compare(K: KernelEvaluator, z0: complex, grid_radius: float = BLOWUP_GRID[0],
                   grid_n: int = BLOWUP_GRID[1]) -> BlowupResult:
    """Rescaled weighted kernel modulus versus the Laguerre bulk profile on
    ``blowup_grid(grid_radius, grid_n)``, grid_radius finite and > 0 and
    grid_n >= 1."""
    _require_grid(grid_radius, grid_n)
    dq = _require_bulk(K.equilibrium, z0)
    m = K.spec.m
    xi, lam = blowup_grid(grid_radius, grid_n)
    scale = 1.0 / math.sqrt(m * dq)
    z = z0 + xi * scale
    w = z0 + lam * scale
    # the first half is the (xi, 0) plane, where every w is w[0]: one point,
    # whose features are computed once
    half = xi.size // 2
    log_k = np.concatenate([K.log_abs_weighted_kernel(z[:half], w[0]),
                            K.log_abs_weighted_kernel(z[half:], w[half:])])
    measured = np.exp(log_k) / (m * dq)
    target = bulk_limit_profile(K.spec.q, np.abs(xi - lam))
    errors = np.abs(measured - target)
    return BlowupResult(m=m, n=K.spec.n, xi=xi, lam=lam, errors=errors,
                        sup_error=float(errors.max()))


def rate_fit(ms, sup_errors) -> tuple[float, str]:
    """Least-squares slope of log(sup error) against log(m).

    Each m must be finite and > 0, with at least two distinct, and each
    error finite and >= 0, one per m.  Returns (-inf, "zero-errors") when
    any error vanishes exactly, which happens only for degenerate synthetic
    inputs.
    """
    ms = [require_positive(m, "m") for m in ms]
    if len(set(ms)) < 2:
        raise ConfigurationError(f"rate_fit needs at least 2 distinct m, got {ms}")
    ms, errs = np.asarray(ms, dtype=float), np.asarray(sup_errors, dtype=float)
    if errs.shape != ms.shape:
        raise ConfigurationError(
            f"rate_fit needs one sup error per m, got {errs.size} for {ms.size}")
    if not np.all(np.isfinite(errs) & (errs >= 0.0)):
        raise ConfigurationError(f"sup errors must be finite and >= 0, got {errs.tolist()}")
    if np.any(errs == 0.0):
        return float("-inf"), "zero-errors"
    slope = float(np.polyfit(np.log(ms), np.log(errs), 1)[0])
    return slope, ""


@dataclass
class LadderReport:
    """An m ladder at the bulk point z0: ``fields``, the file's entries after
    weight, q and z0 in write order, and ``rungs``, one observation per m."""

    weight: str
    q: int
    z0: complex
    fields: dict
    rungs: list = field(repr=False)

    def to_dict(self) -> dict:
        return {"weight": self.weight, "q": self.q, "z0": [self.z0.real, self.z0.imag],
                **self.fields}


def _require_ladder(ms) -> list:
    """``ms`` as a list if it is an m ladder (LADDER_RULE), else a ConfigurationError."""
    ms = [require_positive(m, "m") for m in ms]
    if len(ms) < 2 or len(set(ms)) < len(ms):
        raise ConfigurationError(f"a ladder needs {LADDER_RULE}, got {ms}")
    return ms


def _ladder(weight: WeightModel, q: int, z0: complex, ms, ns, observe) -> list:
    """``observe(K, m)`` for each rung (m, K) of an m ladder on ``weight`` at the
    bulk point z0, in the order of ms.

    A ladder needs ``ms`` that pass ``_require_ladder``, one n per m (``ns``,
    by default round(m)) and z0 in the bulk, or raises ConfigurationError
    before any build.  K is from ``kernel._ladder_spaces``."""
    eq = RadialEquilibrium.solve(weight)
    ms = _require_ladder(ms)
    ns = [int(round(m)) for m in ms] if ns is None else ns
    if len(ns) != len(ms):
        raise ConfigurationError(f"a ladder needs one n per m, got {len(ns)} for {len(ms)}")
    ns = [require_integer(n, "n", 1) for n in ns]
    _require_bulk(eq, z0)
    return [observe(K, m) for m, K in _ladder_spaces(weight, q, ms, ns)]


def blowup_ladder(weight: WeightModel, q: int, z0: complex, ms, ns=None,
                  grid_radius: float = BLOWUP_GRID[0],
                  grid_n: int = BLOWUP_GRID[1]) -> LadderReport:
    """Blow-up comparison over an m ladder plus the fitted log-log rate.

    ``ms`` is a ladder (LADDER_RULE) and ``ns`` holds one n per m (by default
    n = round(m)).  Every argument is checked before the first build.  A rung
    whose errors all vanish (a grid where the kernel and the profile both
    underflow) has no rate: ConfigurationError.  Rungs: BlowupResults.
    """
    _require_grid(grid_radius, grid_n)
    rungs = _ladder(weight, q, z0, ms, ns,
                    lambda K, m: blowup_compare(K, z0, grid_radius, grid_n))
    sup = [r.sup_error for r in rungs]
    slope, flag = rate_fit(ms, sup)
    if flag:
        raise ConfigurationError(f"blow-up errors vanish on the grid of radius "
                                 f"{grid_radius:g}: sup errors {sup}")
    return LadderReport(weight.label, q, complex(z0), {
        "grid": {"radius": grid_radius, "n": grid_n},
        "m": [float(r.m) for r in rungs],
        "n": [int(r.n) for r in rungs],
        "errors": [list(map(float, r.errors)) for r in rungs],
        "sup_error": sup,
        "slope": slope, "slope_flag": flag,
    }, rungs)


# ---------------------------------------------------------------------------
# Off-diagonal decay
# ---------------------------------------------------------------------------


def bulk_clearance(eq: RadialEquilibrium, z0: complex) -> float:
    """Quarter of the distance from z0 to the complement of the bulk: the
    droplet's edge and, where the quarter-Laplacian vanishes at the origin,
    the origin.  z0 must lie in the bulk (``_require_bulk``)."""
    _require_bulk(eq, z0)
    dist = eq.droplet_radius - abs(z0)
    if eq.weight.delta_q(0.0) <= 0.0:
        dist = min(dist, abs(z0))
    return 0.25 * dist


def _unit_directions(directions, name: str) -> np.ndarray:
    """``directions`` flattened and divided by their moduli; a ConfigurationError
    naming ``name`` unless there is one or more and each is finite and nonzero."""
    dirs = np.asarray(directions, dtype=complex).ravel()
    if not (dirs.size and np.all(np.isfinite(dirs) & (dirs != 0))):
        raise ConfigurationError(
            f"{name} must be one or more finite nonzero numbers, got {dirs.tolist()}")
    return dirs / np.abs(dirs)


@dataclass
class DecayScan:
    """One off-diagonal scan of log |weighted kernel|^2 at a single m."""

    m: float
    n: int
    separations: np.ndarray
    log_values: np.ndarray    # (n_directions, n_separations), floored at LOG_FLOOR
    beta: float               # slope of direction-averaged log value vs s
    beta_over_sqrt_m: float


def offdiagonal_scan(K: KernelEvaluator, z0: complex, directions,
                     separations) -> DecayScan:
    """log |weighted kernel|^2 between z0 and z0 + s dir, for each direction
    (finite and nonzero, normalized here) and each separation s (finite and
    >= 0), and the slope beta of its direction average against s."""
    _require_bulk(K.equilibrium, z0)
    R = K.equilibrium.droplet_radius
    dirs = _unit_directions(directions, "directions")
    seps = np.asarray(separations, dtype=float).ravel()
    if not np.all(np.isfinite(seps) & (seps >= 0)):
        raise ConfigurationError(f"separations must be finite and >= 0, got {seps.tolist()}")
    targets = z0 + seps[None, :] * dirs[:, None]
    if np.any(np.abs(targets) > R * (1.0 + 1e-12)):
        raise ConfigurationError("a scan point z0 + s*dir leaves the droplet")
    logs = 2.0 * np.asarray(K.log_abs_weighted_kernel(z0, targets))
    floored = ~np.isfinite(logs) | (logs < LOG_FLOOR)
    logs = np.where(floored, LOG_FLOOR, logs)
    mean_logs = np.mean(logs, axis=0)
    keep = ~np.any(floored, axis=0)
    if keep.sum() < 2:
        raise ConfigurationError("too few unfloored separations for a decay fit")
    beta = float(np.polyfit(seps[keep], mean_logs[keep], 1)[0])
    return DecayScan(m=K.spec.m, n=K.spec.n, separations=seps, log_values=logs,
                     beta=beta, beta_over_sqrt_m=beta / math.sqrt(K.spec.m))


def decay_ladder(weight: WeightModel, q: int, z0: complex, ms,
                 n_directions: int = DECAY_SCAN[0],
                 n_separations: int = DECAY_SCAN[1]) -> LadderReport:
    """Off-diagonal scans over an m ladder with microscopically scaled steps.

    ``ms`` is a ladder (LADDER_RULE), and n = round(m).  Separations are
    u / sqrt(m) for a fixed grid of n_separations >= 2 values u in
    DECAY_U_RANGE (capped at the bulk clearance radius), along
    n_directions >= 1 rays, so the fitted slope divided by sqrt(m) measures
    the decay rate in microscopic units and is comparable across m.  Every
    argument is checked before the first build.  The rungs are DecayScans,
    and ``stability`` is the largest relative spread of beta/sqrt(m).
    """
    n_directions = require_integer(n_directions, "n_directions", 1)
    n_separations = require_integer(n_separations, "n_separations", 2)
    dirs = np.exp(2j * np.pi * np.arange(n_directions) / n_directions)

    def observe(K: KernelEvaluator, m) -> DecayScan:
        # keep every ray within the clearance radius, which lies inside the
        # droplet, for every m on the ladder: one u grid, scaled by m^{-1/2},
        # never clipped
        r0 = bulk_clearance(K.equilibrium, z0)
        u_hi = min(DECAY_U_RANGE[1], 0.95 * r0 * math.sqrt(min(ms)))
        u_lo = min(DECAY_U_RANGE[0], u_hi / 3.0)
        u = np.linspace(u_lo, u_hi, n_separations)
        return offdiagonal_scan(K, z0, dirs, u / math.sqrt(m))

    rungs = _ladder(weight, q, z0, ms, None, observe)
    ratios = np.array([s.beta_over_sqrt_m for s in rungs])
    center = np.mean(ratios)
    return LadderReport(weight.label, q, complex(z0), {
        "m": [s.m for s in rungs],
        "n": [s.n for s in rungs],
        "separations": [list(map(float, s.separations)) for s in rungs],
        "log_values": [[list(map(float, row)) for row in s.log_values] for s in rungs],
        "beta": [s.beta for s in rungs],
        "beta_over_sqrt_m": [s.beta_over_sqrt_m for s in rungs],
        "stability": float(np.max(np.abs(ratios - center)) / max(abs(center), 1e-300)),
    }, rungs)


# ---------------------------------------------------------------------------
# Outside-droplet decay and diagonal bound
# ---------------------------------------------------------------------------


def offdroplet_margins(K: KernelEvaluator, direction: complex, radii) -> np.ndarray:
    """log G(z) + m (Q - Qhat)(z) - 2 log m along a ray outside the droplet.

    Bounded above by a weight-dependent constant when n <= m; the caller
    compares against a constant calibrated at a reference m.
    """
    eq = K.equilibrium
    m, n = K.spec.m, K.spec.n
    if n > m:
        raise ConfigurationError(f"outside-droplet bound requires n <= m (n={n}, m={m})")
    radii = np.asarray(radii, dtype=float).ravel()
    if not np.all(np.isfinite(radii) & (radii > eq.droplet_radius)):
        raise ConfigurationError(
            f"all radii must be finite and exceed the droplet radius {eq.droplet_radius:.6g}"
        )
    z = _unit_directions(direction, "direction") * radii
    gap = np.asarray(eq.equilibrium_gap(z))
    if not np.all(np.isfinite(gap)):
        raise ConfigurationError(f"Q is past double range within radius {radii.max():.6g}")
    log_gamma = np.asarray(K.log_one_point_intensity(z))
    return log_gamma + m * gap - 2.0 * math.log(m)


def diagonal_bound_check(K: KernelEvaluator) -> float:
    """Worst ratio of the intensity to m (8 + 48 A^2) e^A over the droplet,
    on 64 radii, with A the sup of the quarter-Laplacian within distance 1 of
    the droplet, on 512 radii."""
    if K.spec.q != 2:
        raise ConfigurationError("diagonal bound check applies to q = 2 only")
    eq = K.equilibrium
    a_sup = float(np.max(eq.weight.delta_q(np.linspace(0.0, eq.droplet_radius + 1.0, 512))))
    bound = K.spec.m * (8.0 + 48.0 * a_sup**2) * math.exp(a_sup)
    r = np.linspace(0.0, eq.droplet_radius, 64)
    gamma = np.asarray(K.one_point_intensity(r.astype(complex)))
    return float(np.max(gamma) / bound)
