"""Near-diagonal kernel approximations built from the polarization, b and theta.

Every catalog weight has an entire polarization,
Q(z, w) = sum_k c_k (z conj(w))^k, analytic in z, anti-analytic in w, and
equal to Q on the diagonal.  From it come

    b(z, w)      = d_z dbar_w Q(z, w) = sum_k c_k k^2 (z conj(w))^(k-1),
    theta(z, w)  = (Q(w) - Q(z, w)) / (w - z),

and every derivative of b, like every coefficient of theta's series, is
some d_z^a dbar_w^b Q(z, w), which one routine, _polarization, evaluates in
closed form.  With conj(w) held fixed, Q(., w) is a polynomial of degree K,
so theta equals its Taylor series in w - z, which stops after K terms
(_theta): one series, exact at every separation, the diagonal included,
with no quotient to lose digits to cancellation.  b on the diagonal is the
quarter-Laplacian dQ of Q.

Everything below is a closed-form expression in these:

* the reproducing density R_{q,m} for q in {1, 2}, straight from the
  anti-holomorphic derivatives of theta;
* the two-term analytic (q = 1) local kernel  [m b + (1/2) dbar(d b / b)];
* the three-term bianalytic (q = 2) local kernel whose order-one coefficient
  combines mixed log-b derivatives with a nine-term rational correction;
* the leading term for every q, m b L^1_{q-1}(m b |z - w|^2), where L^1_k is
  the associated Laguerre polynomial with parameter 1.

The three local kernels are one path, _local_kernel, with one order table,
ORDERS, and one tail e^{mQ(z, w)}; an unweighted value past double range
raises NumericalDegeneracyError instead of returning inf or NaN.

Mixed derivatives of log b are expanded as rational combinations of b
derivatives (e.g. dbar d log b = dbar d b / b - d b dbar b / b^2) so no
complex logarithm, hence no branch cut, is ever taken.  All functions are
pure and stateless.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ConfigurationError, NumericalDegeneracyError, SingularExpansionError,
                     require_finite, require_finite_points, require_integer,
                     require_positive)
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
    """L^1_degree(x); L^1_k(0) = k + 1, for degrees 0..LAGUERRE_MAX_DEGREE and
    finite x.  A value past double range raises NumericalDegeneracyError."""
    degree = require_integer(degree, "degree", 0, LAGUERRE_MAX_DEGREE + 1)
    x = np.asarray(x, dtype=float)
    require_finite_points(x, "x")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _laguerre1(degree, x)
    if not np.all(np.isfinite(out)):
        raise NumericalDegeneracyError(f"L^1_{degree}(x) is past double range at |x| up "
                                       f"to {np.max(np.abs(x)):.4g}")
    return out if out.shape else float(out)


def _polarization(w: WeightModel, z, wc, dz: int, dw: int):
    """d_z^dz dbar_w^dw Q(z, wc) = sum_k c_k (k)_dz (k)_dw z^(k-dz) conj(wc)^(k-dw).

    (k)_d is the falling factorial ``math.perm(k, d)``, zero for k < d.
    Horner's rule in u = z conj(wc) over k >= lo = max(dz, dw, 1) leaves
    the factor z^(lo-dz) conj(wc)^(lo-dw): u when dz = dw = 0, else a
    power of whichever variable was differentiated fewer times.  b and its
    derivatives are (dz, dw) = (i + 1, j + 1).  A Python complex at scalars.
    """
    z = np.asarray(z, dtype=complex)
    wb = np.conjugate(np.asarray(wc, dtype=complex))
    u = z * wb
    lo = max(dz, dw, 1)
    out = np.zeros(u.shape, dtype=complex)
    for k in range(w.degree, lo - 1, -1):
        out = out * u + w.coeffs[k - 1] * (math.perm(k, dz) * math.perm(k, dw))
    if dz > dw:
        out = out * wb ** (dz - dw)
    elif dw > dz:
        out = out * z ** (dw - dz)
    elif dz == 0:
        out = out * u
    return out if out.shape else complex(out)


def _theta(w: WeightModel, z, wc, s: int) -> np.ndarray:
    """dbar_w^s theta(z, wc) = sum_{j<K} h^j / (j+1)! d_z^(j+1) dbar_w^s Q(z, wc).

    With conj(wc) held fixed, Q(., wc) is a polynomial of degree K, so
    Q(wc, wc) - Q(z, wc) = sum_{j=1..K} h^j / j! d_z^j Q(z, wc) with
    h = wc - z holds exactly; h is holomorphic in wc, so dbar_w passes
    onto the coefficients.  Summed by Horner's rule in h, over 0-d arrays
    at scalars; on the diagonal s = 1 gives b(z, z) bit for bit.
    """
    h = np.asarray(wc, dtype=complex) - np.asarray(z, dtype=complex)
    out = np.zeros(h.shape, dtype=complex)
    for j in range(w.degree - 1, -1, -1):
        coeff = np.asarray(_polarization(w, z, wc, j + 1, s))
        out = out * h + coeff / math.factorial(j + 1)
    return out


ORDERS = {1: 2, 2: 3}  # expansion orders (powers of m) known per q; any other q: 1


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # require_finite refuses
def r_qm_density(w: WeightModel, q: int, m: float, z, wc):
    """Reproducing density R_{q,m}(z, wc) for q in {1, 2} and m finite and > 0;
    a value past double range raises NumericalDegeneracyError."""
    require_positive(m, "m")
    if require_integer(q, "q", 1) not in ORDERS:
        raise ConfigurationError(f"r_qm_density supports q in {set(ORDERS)}, got {q}")
    z = np.asarray(z, dtype=complex)
    wc = np.asarray(wc, dtype=complex)
    require_finite_points(z, "z")
    require_finite_points(wc, "w")
    dt = _theta(w, z, wc, 1)
    out = m * dt if q == 1 else (2.0 * m * dt - m * np.conjugate(z - wc) * _theta(w, z, wc, 2)
                                 - m * m * np.abs(z - wc) ** 2 * dt * dt)
    require_finite(out, np.log(np.abs(z)) + np.log(np.abs(wc)), "log|z w|", m)
    return out if out.shape else complex(out)


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


@np.errstate(over="ignore", invalid="ignore")  # require_finite refuses what leaves range
def _local_kernel(w: WeightModel, q: int, m: float, z, wc, terms, weighted: bool):
    """pref e^{mQ(z,wc)} [e^{-m(Q(z) + Q(wc))/2}]: for q in ORDERS, pref keeps
    ``terms`` powers of m from the top; None, and any other q, is the leading
    Laguerre term.  The sums keep b as _polarization returns it (a Python
    complex at scalars), since a 0-d array divides with other rounding."""
    q = require_integer(q, "q", 1, LAGUERRE_MAX_DEGREE + 2)
    require_positive(m, "m")
    if terms is not None:
        terms = require_integer(terms, f"terms at q={q}", 1, ORDERS.get(q, 1) + 1)
    z = np.asarray(z, dtype=complex)
    wc = np.asarray(wc, dtype=complex)
    require_finite_points(z, "z")
    require_finite_points(wc, "w")
    b = _polarization(w, z, wc, 1, 1)
    if np.any(b == 0):
        raise SingularExpansionError("b(z, w) vanishes at an evaluation point")
    h = z - wc
    sep2 = np.abs(h) ** 2
    if terms is None or q not in ORDERS:
        b = np.asarray(b, dtype=complex)
        pref = m * b * _laguerre1(q - 1, m * b * sep2)
    else:
        if terms >= 2:
            d = {(i, j): _polarization(w, z, wc, i + 1, j + 1)
                 for i in range(q + 1) for j in range(q + 1)}
            b2 = b * b
            log_11 = d[1, 1] / b - d[1, 0] * d[0, 1] / b2  # dbar d log b
        if q == 1:
            pref = m * np.asarray(b, dtype=complex)
            if terms >= 2:
                pref = pref + 0.5 * log_11
        else:
            hbar = np.conjugate(h)
            pref = m * m * (-sep2 * b * b)
            if terms >= 2:
                c1 = (2.0 * b + h * d[1, 0] - hbar * d[0, 1]
                      + sep2 * (-1.5 * d[1, 1] + d[1, 0] * d[0, 1] / b))
                pref = pref + m * c1
            if terms >= 3:
                b3 = b2 * b
                log_12 = (d[1, 2] / b - 2.0 * d[1, 1] * d[0, 1] / b2
                          - d[1, 0] * d[0, 2] / b2 + 2.0 * d[1, 0] * d[0, 1] ** 2 / b3)
                log_21 = (d[2, 1] / b - 2.0 * d[1, 0] * d[1, 1] / b2
                          - d[2, 0] * d[0, 1] / b2 + 2.0 * d[1, 0] ** 2 * d[0, 1] / b3)
                c2 = (2.0 * log_11 - hbar * log_12 + h * log_21
                      + sep2 * _order_one_correction(b, d))
                pref = pref + c2
    e = m * _polarization(w, z, wc, 0, 0)
    if weighted:
        e = e - 0.5 * m * (w.eval_weight(z) + w.eval_weight(wc))
    out = pref * np.exp(e)
    require_finite(out, np.real(e), "m Re[Q(z, w) - (Q(z) + Q(w))/2]" if weighted
                   else "m Re Q(z, w)", m)
    return out if np.asarray(out).shape else complex(out)


def local_kernel_q1(w: WeightModel, m: float, z, wc, terms: int = 2,
                    weighted: bool = False):
    """Two-term analytic local kernel [m b + (1/2) dbar(d b / b)] e^{mQ(z,wc)},
    m finite and > 0."""
    return _local_kernel(w, 1, m, z, wc, terms, weighted)


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
    return _local_kernel(w, 2, m, z, wc, terms, weighted)


def local_kernel_leading(w: WeightModel, q: int, m: float, z, wc,
                         weighted: bool = False):
    """Leading term m b L^1_{q-1}(m b |z - wc|^2) e^{mQ(z,wc)}, for
    q = 1..LAGUERRE_MAX_DEGREE + 1 and m finite and > 0."""
    return _local_kernel(w, q, m, z, wc, None, weighted)
