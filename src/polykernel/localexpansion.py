"""Near-diagonal kernel approximations built from theta and b.

Everything here is a closed-form expression in the derivatives of
b(z, w) = d_z dbar_w Q(z, w):

* the reproducing density R_{q,m} for q in {1, 2}, straight from the
  anti-holomorphic derivatives of theta;
* the two-term analytic (q = 1) local kernel  [m b + (1/2) dbar(d b / b)];
* the three-term bianalytic (q = 2) local kernel whose order-one coefficient
  combines mixed log-b derivatives with a nine-term rational correction;
* the leading term for every q, m b L^1_{q-1}(m b |z - w|^2), where L^1_k is
  the associated Laguerre polynomial with parameter 1.

Mixed derivatives of log b are expanded as rational combinations of b
derivatives (e.g. dbar d log b = dbar d b / b - d b dbar b / b^2) so no
complex logarithm, hence no branch cut, is ever taken.  All functions are
pure and stateless.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, SingularExpansionError, require_integer, require_positive
from .weights import WeightModel

LAGUERRE_MAX_DEGREE = 64


def _laguerre1(degree: int, x):
    """Parameter-1 associated Laguerre by the three-term recurrence."""
    x = np.asarray(x)
    prev = np.ones_like(x)
    if degree == 0:
        return prev
    cur = 2.0 - x
    for k in range(1, degree):
        prev, cur = cur, ((2 * k + 2 - x) * cur - (k + 1) * prev) / (k + 1)
    return cur


def laguerre_assoc1(degree: int, x):
    """L^1_degree(x); L^1_k(0) = k + 1, for degrees 0..LAGUERRE_MAX_DEGREE."""
    degree = require_integer(degree, "degree", 0, LAGUERRE_MAX_DEGREE + 1)
    out = _laguerre1(degree, np.asarray(x, dtype=float))
    return out if out.shape else float(out)


def _check_b(b):
    if np.any(b == 0):
        raise SingularExpansionError("b(z, w) vanishes at an evaluation point")


def r_qm_density(w: WeightModel, q: int, m: float, z, wc):
    """Reproducing density R_{q,m}(z, wc) for q in {1, 2} and m finite and > 0."""
    require_positive(m, "m")
    if q == 1:
        return m * w.dbar_theta(z, wc, 0)
    if q == 2:
        z = np.asarray(z, dtype=complex)
        wc = np.asarray(wc, dtype=complex)
        dt = w.dbar_theta(z, wc, 0)
        dt2 = w.dbar_theta(z, wc, 1)
        sep2 = np.abs(z - wc) ** 2
        out = 2.0 * m * dt - m * np.conjugate(z - wc) * dt2 - m * m * sep2 * dt * dt
        return out if np.asarray(out).shape else complex(out)
    raise ConfigurationError(f"r_qm_density supports q in {{1, 2}}, got {q}")


def _exponent(w: WeightModel, m: float, z, wc, weighted: bool):
    e = m * w.polarize(z, wc)
    if weighted:
        e = e - 0.5 * m * (w.eval_weight(z) + w.eval_weight(wc))
    return e


def local_kernel_q1(w: WeightModel, m: float, z, wc, terms: int = 2,
                    weighted: bool = False):
    """Two-term analytic local kernel [m b + (1/2) dbar(d b / b)] e^{mQ(z,wc)},
    m finite and > 0."""
    require_positive(m, "m")
    if terms not in (1, 2):
        raise ConfigurationError(f"local_kernel_q1 supports terms in {{1, 2}}, got {terms}")
    z = np.asarray(z, dtype=complex)
    wc = np.asarray(wc, dtype=complex)
    b = w.hermitian_b(z, wc, 0, 0)
    _check_b(b)
    pref = m * np.asarray(b, dtype=complex)
    if terms >= 2:
        db = w.hermitian_b(z, wc, 1, 0)
        dbbar = w.hermitian_b(z, wc, 0, 1)
        ddbar = w.hermitian_b(z, wc, 1, 1)
        pref = pref + 0.5 * (ddbar / b - db * dbbar / (b * b))
    out = pref * np.exp(_exponent(w, m, z, wc, weighted))
    return out if np.asarray(out).shape else complex(out)


def _log_b_derivatives(w: WeightModel, z, wc):
    """Mixed log-b derivatives as rational combinations of b derivatives."""
    b = w.hermitian_b(z, wc, 0, 0)
    _check_b(b)
    d = {(i, j): w.hermitian_b(z, wc, i, j) for i in range(3) for j in range(3)}
    b2, b3 = b * b, b * b * b
    log_11 = d[1, 1] / b - d[1, 0] * d[0, 1] / b2
    log_12 = (d[1, 2] / b - 2.0 * d[1, 1] * d[0, 1] / b2
              - d[1, 0] * d[0, 2] / b2 + 2.0 * d[1, 0] * d[0, 1] ** 2 / b3)
    log_21 = (d[2, 1] / b - 2.0 * d[1, 0] * d[1, 1] / b2
              - d[2, 0] * d[0, 1] / b2 + 2.0 * d[1, 0] ** 2 * d[0, 1] / b3)
    return b, d, log_11, log_12, log_21


def _order_one_correction(b, d):
    """Nine-term rational coefficient multiplying |z - w|^2 at order one."""
    b2 = b * b
    b3 = b2 * b
    b4 = b2 * b2
    return (1.5 * d[1, 2] * d[1, 0] / b2
            - 6.5 * d[1, 0] * d[1, 1] * d[0, 1] / b3
            + 1.5 * d[1, 1] ** 2 / b2
            - d[1, 0] ** 2 * d[0, 2] / b3
            + 4.25 * d[1, 0] ** 2 * d[0, 1] ** 2 / b4
            - (2.0 / 3.0) * d[2, 2] / b
            + 1.5 * d[2, 1] * d[0, 1] / b2
            - d[2, 0] * d[0, 1] ** 2 / b3
            + (1.0 / 3.0) * d[0, 2] * d[2, 0] / b2)


def local_kernel_q2(w: WeightModel, m: float, z, wc, terms: int = 3,
                    weighted: bool = False):
    """Bianalytic local kernel with up to three coefficient orders.

    Coefficients of m^2, m^1 and m^0 respectively:
        C0 = -|z-w|^2 b^2
        C1 = 2b + (z-w) d b - conj(z-w) dbar b
             + |z-w|^2 (-(3/2) dbar d b + d b dbar b / b)
        C2 = 2 dbar d log b + conj(w-z) dbar^2 d log b + (z-w) dbar d^2 log b
             + |z-w|^2 M,
    with M the nine-term rational correction in b derivatives, for m finite
    and > 0.
    """
    require_positive(m, "m")
    if terms not in (1, 2, 3):
        raise ConfigurationError(f"local_kernel_q2 supports terms in 1..3, got {terms}")
    z = np.asarray(z, dtype=complex)
    wc = np.asarray(wc, dtype=complex)
    b, d, log_11, log_12, log_21 = _log_b_derivatives(w, z, wc)
    h = z - wc
    hbar = np.conjugate(h)
    sep2 = np.abs(h) ** 2
    pref = m * m * (-sep2 * b * b)
    if terms >= 2:
        c1 = (2.0 * b + h * d[1, 0] - hbar * d[0, 1]
              + sep2 * (-1.5 * d[1, 1] + d[1, 0] * d[0, 1] / b))
        pref = pref + m * c1
    if terms >= 3:
        c2 = (2.0 * log_11 - hbar * log_12 + h * log_21
              + sep2 * _order_one_correction(b, d))
        pref = pref + c2
    out = pref * np.exp(_exponent(w, m, z, wc, weighted))
    return out if np.asarray(out).shape else complex(out)


def local_kernel_leading(w: WeightModel, q: int, m: float, z, wc,
                         weighted: bool = False):
    """Leading term m b L^1_{q-1}(m b |z - wc|^2) e^{mQ(z,wc)}, for
    q = 1..LAGUERRE_MAX_DEGREE + 1 and m finite and > 0."""
    q = require_integer(q, "q", 1, LAGUERRE_MAX_DEGREE + 2)
    require_positive(m, "m")
    z = np.asarray(z, dtype=complex)
    wc = np.asarray(wc, dtype=complex)
    b = np.asarray(w.hermitian_b(z, wc, 0, 0), dtype=complex)
    _check_b(b)
    arg = m * b * np.abs(z - wc) ** 2
    out = m * b * _laguerre1(q - 1, arg) * np.exp(_exponent(w, m, z, wc, weighted))
    return out if np.asarray(out).shape else complex(out)
