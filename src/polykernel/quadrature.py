"""Log-domain radial moments and polar-grid integration.

The Gram matrices of the polynomial spaces are assembled from the radial
moments

    M_p = int |z|^(2p) e^(-m Q(z)) dA(z) = 2 int_0^inf r^(2p+1) e^(-m Q(r)) dr,

whose dynamic range for m, p up to a few hundred far exceeds double range, so
every moment is carried as a natural log.  The integrand mode r* solves
(2p+1)/r = m Q'(r); panels of adaptive Gauss-Kronrod 15-point quadrature sweep
outward from the mode on the shifted integrand exp(f(r) - f(r*)) until a panel
contributes less than 1e-18 of the accumulated total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalDegeneracyError
from .weights import WeightModel, _bisect_increasing

# 15-point Kronrod nodes with embedded 7-point Gauss rule (QUADPACK constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_KRONROD_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_WEIGHTS = np.zeros(15)
_GAUSS_WEIGHTS[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])
_GAUSS_WEIGHTS[7] = _WG[3]


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """Kronrod value and |K15 - G7| error estimate on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = f(mid + half * _KRONROD_NODES)
    k15 = half * float(np.dot(_KRONROD_WEIGHTS, y))
    g7 = half * float(np.dot(_GAUSS_WEIGHTS, y))
    return k15, abs(k15 - g7)


def _adaptive_panel(f, a: float, b: float, rel_tol: float, abs_floor: float,
                    depth: int = 0) -> float:
    value, err = _gk15(f, a, b)
    if err <= rel_tol * abs(value) + abs_floor or depth >= 40:
        return value
    mid = 0.5 * (a + b)
    return (_adaptive_panel(f, a, mid, rel_tol, abs_floor, depth + 1)
            + _adaptive_panel(f, mid, b, rel_tol, abs_floor, depth + 1))


@dataclass(frozen=True)
class LogMoment:
    """Natural log of the radial moment M_p for scaling parameter m."""

    log_value: float
    p: int
    m: float


def _moment_mode(w: WeightModel, m: float, p: int) -> float:
    """Root of m r Q'(r) = 2p + 1; unique since r Q'(r) is increasing."""
    target = 2.0 * p + 1.0
    return _bisect_increasing(lambda r: m * r * w.q_prime(r) - target, 1.0, 1.0,
                              lambda lo, hi: hi - lo < 1e-14 * hi,
                              "moment mode search")


def radial_log_moment(w: WeightModel, m: float, p: int) -> LogMoment:
    """log M_p by mode-centred adaptive Gauss-Kronrod in the log domain."""
    if m <= 0.0:
        raise ConfigurationError(f"radial moment needs m > 0, got {m}")
    if p < 0:
        raise ConfigurationError(f"radial moment needs p >= 0, got {p}")
    r_star = _moment_mode(w, m, p)
    peak_log = (2.0 * p + 1.0) * math.log(r_star) - m * w.eval_weight(r_star)

    def shifted(r):
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, -np.inf)
        pos = r > 0.0
        out[pos] = (2.0 * p + 1.0) * np.log(r[pos]) - m * w.eval_weight(r[pos]) - peak_log
        return np.exp(out)

    # curvature of the log integrand at the mode is -4 m dQ(r*): local width
    sigma = 1.0 / math.sqrt(4.0 * m * w.delta_q(r_star))
    total = 0.0
    for direction in (+1.0, -1.0):
        edge = r_star
        width = 2.0 * sigma
        for _ in range(100000):
            if direction > 0:
                a, b = edge, edge + width
            else:
                a, b = max(edge - width, 0.0), edge
            if b <= a:
                break
            part = _adaptive_panel(shifted, a, b, 1e-15, 1e-18 * max(total, 1.0))
            total += part
            edge = b if direction > 0 else a
            if direction < 0 and edge <= 0.0:
                break
            if abs(part) < 1e-18 * total and total > 0.0:
                break
            width *= 2.0
        else:
            raise NumericalDegeneracyError(
                f"moment sweep failed to converge for p={p}, m={m}"
            )
    if not (total > 0.0) or not math.isfinite(total):
        raise NumericalDegeneracyError(f"degenerate radial moment p={p}, m={m}")
    return LogMoment(log_value=peak_log + math.log(2.0 * total), p=p, m=m)


def log_moment_table(w: WeightModel, m: float, p_max: int) -> np.ndarray:
    """log M_p for p = 0..p_max, checked for moment log-convexity.

    Moment sequences are log-convex (Cauchy-Schwarz), so the increments of
    log M_p must be nondecreasing; a violation indicates a quadrature failure
    and aborts Gram assembly.
    """
    logs = np.array([radial_log_moment(w, m, p).log_value for p in range(p_max + 1)])
    if p_max >= 2:
        inc = np.diff(logs)
        if np.any(np.diff(inc) < -1e-10):
            worst = int(np.argmin(np.diff(inc)))
            raise NumericalDegeneracyError(
                f"log-moment convexity violated near p={worst + 1} "
                f"(weight {w.spec_string()}, m={m}); aborting Gram assembly"
            )
    return logs


def integrate_polar_grid(f, r_max: float, n_r: int, n_phi: int) -> float:
    """Integral of f over the plane in the normalized area measure.

    Gauss-Legendre radii on [0, r_max], uniform angles (the trapezoid rule is
    spectrally accurate for smooth periodic integrands).  ``f`` must accept a
    complex ndarray.  Truncation beyond r_max is the caller's concern.
    """
    if r_max <= 0.0:
        raise ConfigurationError(f"integrate_polar_grid needs r_max > 0, got {r_max}")
    if n_r < 16 or n_phi < 16:
        raise ConfigurationError("integrate_polar_grid needs n_r, n_phi >= 16")
    x, v = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (x + 1.0)
    wr = 0.5 * r_max * v
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    z = r[:, None] * np.exp(1j * phi[None, :])
    vals = np.asarray(f(z))
    return float(np.real(np.sum((wr * r)[:, None] * vals)) * 2.0 / n_phi)
