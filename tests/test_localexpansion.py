"""Near-diagonal expansions: Laguerre, density, and local kernels."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

import polykernel as pk
from polykernel.errors import ConfigurationError, NumericalDegeneracyError, SingularExpansionError
from polykernel.localexpansion import (ORDERS, _laguerre1, _order_one_correction,
                                       _polarization)

from conftest import disk_points

GINIBRE = pk.parse_weight("ginibre")
POWER2 = pk.parse_weight("power:p=2")
RPOLY = pk.parse_weight("radialpoly:c=1,1")


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------

def _laguerre_series(degree: int, x: float) -> float:
    # exact rational series; float inputs on a dyadic grid stay exact
    from fractions import Fraction

    xf = Fraction(x)
    total = sum(
        Fraction((-1) ** i * math.comb(degree + 1, degree - i)) * xf**i
        / math.factorial(i)
        for i in range(degree + 1)
    )
    return float(total)


def test_laguerre_low_degrees():
    xs = np.linspace(0.0, 20.0, 41)
    assert np.all(pk.laguerre_assoc1(0, xs) == 1.0)
    assert np.max(np.abs(pk.laguerre_assoc1(1, xs) - (2.0 - xs))) == 0.0
    assert pk.laguerre_assoc1(2, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_laguerre_recurrence_vs_series():
    # difference below 1e-12 in units of the value's own magnitude (a pure
    # absolute bound would sit below double resolution for |L| > ~2000)
    for degree in range(11):
        for x in np.linspace(0.0, 20.0, 81):
            exact = _laguerre_series(degree, float(x))
            diff = abs(pk.laguerre_assoc1(degree, float(x)) - exact)
            assert diff < 1e-12 * max(1.0, abs(exact))


def test_laguerre_vs_scipy():
    xs = np.linspace(0.0, 30.0, 50)
    for degree in (3, 7, 15, 40):
        ours = pk.laguerre_assoc1(degree, xs)
        ref = eval_genlaguerre(degree, 1, xs)
        assert np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-10


def test_laguerre_value_at_zero():
    for degree in range(0, 64, 7):
        assert pk.laguerre_assoc1(degree, 0.0) == pytest.approx(degree + 1, rel=1e-13)


def test_laguerre_degree_guard():
    with pytest.raises(ConfigurationError):
        pk.laguerre_assoc1(65, 1.0)
    with pytest.raises(ConfigurationError):
        pk.laguerre_assoc1(-1, 1.0)
    # before, 1.5 died inside range() with a bare TypeError, and True passed
    with pytest.raises(ConfigurationError, match="degree"):
        pk.laguerre_assoc1(1.5, 1.0)
    with pytest.raises(ConfigurationError, match="degree"):
        pk.laguerre_assoc1(True, 1.0)


@pytest.mark.parametrize("degree, x", [(5, 1e200), (64, 1e10), (5, 1e70)])
def test_laguerre_past_double_range_is_refused(degree, x):
    # before, (5, 1e200) and (64, 1e10) returned nan and (5, 1e70) -inf, each
    # after RuntimeWarnings, which fail any test here
    words = re.escape(f"L^1_{degree}(x) is past double range at |x| up to {x:.4g}")
    for point in (x, np.array([0.5, -x])):
        with pytest.raises(NumericalDegeneracyError, match=f"^{words}$"):
            pk.laguerre_assoc1(degree, point)
    with pytest.raises(ConfigurationError, match="^x must be finite, got nan"):
        pk.laguerre_assoc1(degree, [1.0, math.nan])


@pytest.mark.parametrize("q", [0, 2.5, True, 66])
def test_leading_term_q_guard(q):
    with pytest.raises(ConfigurationError, match="q must be an integer"):
        pk.local_kernel_leading(pk.parse_weight("ginibre"), q, 10.0, 0.1, 0.2)


# ---------------------------------------------------------------------------
# reproducing density
# ---------------------------------------------------------------------------

def test_r_qm_ginibre():
    rng = np.random.default_rng(31)
    z, v = disk_points(rng, 40, 1.0), disk_points(rng, 40, 1.0)
    m = 17.0
    assert np.max(np.abs(pk.r_qm_density(GINIBRE, 1, m, z, v) - m)) < 1e-12
    got = pk.r_qm_density(GINIBRE, 2, m, z, v)
    expect = m * pk.laguerre_assoc1(1, m * np.abs(z - v) ** 2)
    assert np.max(np.abs(got - expect)) < 1e-9


def test_r_qm_diagonal_any_weight():
    rng = np.random.default_rng(32)
    for w in (GINIBRE, POWER2, RPOLY):
        z = disk_points(rng, 30, 0.9)
        got = pk.r_qm_density(w, 2, 11.0, z, z)
        assert np.max(np.abs(got - 2.0 * 11.0 * w.delta_q(z))) < 1e-10


def test_r_qm_unsupported_q():
    with pytest.raises(ConfigurationError):
        pk.r_qm_density(GINIBRE, 3, 1.0, 0.0, 0.1)
    # q is checked as an integer first: a list is refused by name, not hashed
    for q in ([2], True, 1.5):
        with pytest.raises(ConfigurationError, match="q must be an integer"):
            pk.r_qm_density(GINIBRE, q, 1.0, 0.0, 0.1)


@pytest.mark.parametrize("q, point, reach", [(2, 1e100, "460.5"), (1, 1e200, "921")])
def test_r_qm_past_double_range_is_refused(q, point, reach):
    # b = 9 |z|^4 overflows at |z| = 1e100, and z conj(w) at |z| = 1e200;
    # before, both returned nan+nanj after RuntimeWarnings
    with pytest.raises(NumericalDegeneracyError,
                       match=rf"^log\|z w\| reaches {reach} at m=10\.0: the unweighted"):
        pk.r_qm_density(pk.parse_weight("power:p=3"), q, 10.0, point, point)


# ---------------------------------------------------------------------------
# finite-difference oracles for b calculus
# ---------------------------------------------------------------------------

def _fd_dbar_w(f, z, w, h=1e-5):
    """dbar_w of f(z, w) when f depends on w only through conj(w)."""
    return (-f(z, w + 2 * h) + 8 * f(z, w + h) - 8 * f(z, w - h) + f(z, w - 2 * h)) / (12 * h)


def test_q1_second_term_fd_oracle():
    # the q=1 correction is (1/2) dbar_w (d_z b / b); check against finite
    # differences for a weight with genuinely nonconstant log b
    w = RPOLY
    z0, w0 = 0.9 + 0.1j, 0.8 - 0.2j
    ratio = lambda zz, ww: _polarization(w, zz, ww, 2, 1) / _polarization(w, zz, ww, 1, 1)
    fd = 0.5 * _fd_dbar_w(ratio, z0, w0)
    closed = pk.local_kernel_q1(w, 1.0, z0, w0, terms=2) \
        / np.exp(_polarization(w, z0, w0, 0, 0)) - 1.0 * _polarization(w, z0, w0, 1, 1)
    assert abs(closed - fd) < 1e-8


def test_q1_power2_value_from_oracle():
    # for a pure power weight d_z b / b = p / z is anti-holomorphically
    # constant, so the correction vanishes; frozen from the oracle above
    z0 = w0 = 1.0
    ratio = lambda zz, ww: (_polarization(POWER2, zz, ww, 2, 1)
                            / _polarization(POWER2, zz, ww, 1, 1))
    fd = 0.5 * _fd_dbar_w(ratio, z0, w0)
    assert abs(fd) < 1e-9
    m = 3.0
    got = pk.local_kernel_q1(POWER2, m, 1.0, 1.0, terms=2)
    assert got == pytest.approx(4.0 * m * math.exp(m), rel=1e-12)


def test_q1_ginibre_and_diagonal():
    rng = np.random.default_rng(33)
    z, v = disk_points(rng, 30, 1.0), disk_points(rng, 30, 1.0)
    m = 9.0
    got = pk.local_kernel_q1(GINIBRE, m, z, v, terms=2)
    assert np.max(np.abs(got - m * np.exp(m * z * np.conj(v)))) < 1e-9
    for w in (POWER2, RPOLY):
        zd = disk_points(rng, 20, 0.9) + 1.1  # avoid the b zero of the power family
        lead = pk.local_kernel_q1(w, m, zd, zd, terms=1)
        expect = m * w.delta_q(zd) * np.exp(m * w.eval_weight(zd))
        assert np.max(np.abs(lead - expect) / np.abs(expect)) < 1e-12


def test_q2_ginibre_collapse_and_vanishing_correction():
    rng = np.random.default_rng(34)
    z, v = disk_points(rng, 40, 1.0), disk_points(rng, 40, 1.0)
    m = 21.0
    full = pk.local_kernel_q2(GINIBRE, m, z, v, terms=3)
    two = pk.local_kernel_q2(GINIBRE, m, z, v, terms=2)
    target = m * pk.laguerre_assoc1(1, m * np.abs(z - v) ** 2) * np.exp(m * z * np.conj(v))
    assert np.max(np.abs(two - target) / np.abs(target)) < 1e-12
    assert np.max(np.abs(full - two)) == 0.0  # constant-b correction is exactly zero


def test_q2_diagonal_values():
    rng = np.random.default_rng(35)
    for w in (POWER2, RPOLY):
        z = disk_points(rng, 20, 0.8) + 0.15
        got = pk.local_kernel_q2(w, 5.0, z, z, terms=2)
        expect = 2.0 * 5.0 * w.delta_q(z) * np.exp(5.0 * w.eval_weight(z))
        assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-12


def test_q2_order_one_log_derivative_fd_oracle():
    # at the diagonal the order-one coefficient reduces to 2 dbar d log b
    w = RPOLY
    z0 = 0.7 + 0.3j
    logb = lambda zz, ww: np.log(_polarization(w, zz, ww, 1, 1))
    dz_logb = lambda zz, ww: (
        -logb(zz + 2e-4, ww) + 8 * logb(zz + 1e-4, ww)
        - 8 * logb(zz - 1e-4, ww) + logb(zz - 2e-4, ww)) / (12e-4)
    fd = 2.0 * _fd_dbar_w(dz_logb, z0, z0, h=1e-4)
    diff = (pk.local_kernel_q2(w, 4.0, z0, z0, terms=3)
            - pk.local_kernel_q2(w, 4.0, z0, z0, terms=2))
    got = diff / np.exp(4.0 * w.eval_weight(z0))
    assert abs(got - fd) < 1e-6


def test_q2_off_diagonal_coefficients_fd_oracle():
    # full order-one coefficient off the diagonal, against finite differences
    # of log b in both slots plus the nine-term correction assembled from
    # direct b-derivative finite differences
    w = RPOLY
    z0, w0 = 0.8 + 0.2j, 0.7 - 0.1j
    m = 6.0
    diff = (pk.local_kernel_q2(w, m, z0, w0, terms=3)
            - pk.local_kernel_q2(w, m, z0, w0, terms=2))
    got = complex(diff / np.exp(m * _polarization(w, z0, w0, 0, 0)))

    logb = lambda zz, ww: np.log(_polarization(w, zz, ww, 1, 1))
    h = 1e-3  # third-order nesting: roundoff scales as eps/h^3
    def dz(f):
        return lambda zz, ww: (-f(zz + 2 * h, ww) + 8 * f(zz + h, ww)
                               - 8 * f(zz - h, ww) + f(zz - 2 * h, ww)) / (12 * h)
    def dw(f):
        return lambda zz, ww: (-f(zz, ww + 2 * h) + 8 * f(zz, ww + h)
                               - 8 * f(zz, ww - h) + f(zz, ww - 2 * h)) / (12 * h)
    log_11 = dw(dz(logb))(z0, w0)
    log_12 = dw(dw(dz(logb)))(z0, w0)
    log_21 = dw(dz(dz(logb)))(z0, w0)
    b = _polarization(w, z0, w0, 1, 1)
    d = {(i, j): _polarization(w, z0, w0, i + 1, j + 1) for i in range(3) for j in range(3)}
    sep = z0 - w0
    expect = (2.0 * log_11 - np.conj(sep) * log_12 + sep * log_21
              + abs(sep) ** 2 * _order_one_correction(b, d))
    assert abs(got - expect) < 1e-5


def test_q2_matches_true_kernel_power2():
    # cross-module oracle: weighted local kernel against the true kernel in
    # the bulk at microscopic separation (error dominated by O(m^{-1/2}))
    m = 80.0
    R = pk.droplet_radius(POWER2)
    z0 = 0.6 * R
    K = pk.build_space(POWER2, pk.SpaceSpec(2, 80, m))
    offset = 0.9 / math.sqrt(m)
    z, v = z0 + offset, z0 - offset * 1j
    local = pk.local_kernel_q2(POWER2, m, z, v, terms=3, weighted=True)
    true = K.weighted_kernel(z, v)
    assert abs(abs(local) - abs(true)) / abs(true) < 3.0 / math.sqrt(m)


def test_q2_order_one_correction_improves_kernel():
    # for a pure power weight the mixed log-b derivatives vanish, so the
    # order-one coefficient is |z-w|^2 M alone; including it must shrink the
    # gap to the true kernel (a wrong M could not improve the expansion)
    m = 160.0
    R = pk.droplet_radius(POWER2)
    z0 = 0.6 * R
    K = pk.build_space(POWER2, pk.SpaceSpec(2, int(m), m))
    dq = POWER2.delta_q(z0)
    u = np.linspace(-2.0, 2.0, 9)
    xi = (u[:, None] + 1j * u[None, :]).ravel() / math.sqrt(m * dq)
    z = z0 + xi
    v = np.full_like(z, z0)
    true = np.abs(K.weighted_kernel(z, v))
    d2 = np.max(np.abs(np.abs(pk.local_kernel_q2(POWER2, m, z, v, 2, weighted=True)) - true))
    d3 = np.max(np.abs(np.abs(pk.local_kernel_q2(POWER2, m, z, v, 3, weighted=True)) - true))
    assert d3 < 0.75 * d2
    assert d3 < 0.1


def test_leading_term_consistency():
    rng = np.random.default_rng(36)
    z, v = disk_points(rng, 25, 0.9) + 0.2, disk_points(rng, 25, 0.9) + 0.2
    m = 7.0
    for w in (GINIBRE, POWER2, RPOLY):
        lead = pk.local_kernel_leading(w, 1, m, z, v)
        q1 = pk.local_kernel_q1(w, m, z, v, terms=1)
        assert np.max(np.abs(lead - q1) / np.abs(q1)) < 1e-12
    lead2 = pk.local_kernel_leading(GINIBRE, 2, m, z, v)
    q2 = pk.local_kernel_q2(GINIBRE, m, z, v, terms=2)
    assert np.max(np.abs(lead2 - q2) / np.abs(q2)) < 1e-12
    z0 = 0.4 + 0.1j
    got = pk.local_kernel_leading(GINIBRE, 3, m, z0, z0)
    assert got == pytest.approx(3.0 * m * math.exp(m * abs(z0) ** 2), rel=1e-12)


def test_weighted_gauge_symmetry():
    rng = np.random.default_rng(37)
    z, v = disk_points(rng, 40, 0.8) + 0.2, disk_points(rng, 40, 0.8) + 0.2
    for w in (POWER2, RPOLY):
        a = np.abs(pk.local_kernel_leading(w, 2, 13.0, z, v, weighted=True))
        b = np.abs(pk.local_kernel_leading(w, 2, 13.0, v, z, weighted=True))
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-10


def test_vanishing_b_raises():
    with pytest.raises(SingularExpansionError):
        pk.local_kernel_q1(POWER2, 1.0, 0.0, 0.5, terms=2)
    with pytest.raises(SingularExpansionError):
        pk.local_kernel_q2(POWER2, 1.0, 0.0, 0.5, terms=3)


@pytest.mark.parametrize("m", [-5.0, 0.0, math.nan, math.inf, True, "5"],
                         ids=["negative", "zero", "nan", "inf", "bool", "string"])
@pytest.mark.parametrize("call", [
    lambda m: pk.local_kernel_q1(GINIBRE, m, 0.1, 0.2),
    lambda m: pk.local_kernel_q2(GINIBRE, m, 0.1, 0.2),
    lambda m: pk.local_kernel_leading(GINIBRE, 2, m, 0.1, 0.2),
    lambda m: pk.r_qm_density(GINIBRE, 2, m, 0.1, 0.2),
], ids=["q1", "q2", "leading", "density"])
def test_local_expansions_refuse_bad_m(call, m):
    # before, q2 at m = -5 gave -3.568+0j, leading at m = 0 gave 0j and the
    # density at m = nan gave nan+nanj, all without an error
    with pytest.raises(ConfigurationError, match="m must be"):
        call(m)


@pytest.mark.parametrize("point", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call, name", [
    (lambda p: pk.local_kernel_q1(GINIBRE, 10.0, p, 0.1), "z"),
    (lambda p: pk.local_kernel_q2(GINIBRE, 10.0, 0.1, p), "w"),
    (lambda p: pk.local_kernel_q2(GINIBRE, 10.0, p, 0.1, weighted=True), "z"),
    (lambda p: pk.local_kernel_leading(GINIBRE, 3, 10.0, np.array([0.1, p]), 0.1), "z"),
    (lambda p: pk.r_qm_density(GINIBRE, 2, 10.0, p, 0.1), "z"),
    (lambda p: pk.r_qm_density(GINIBRE, 1, 10.0, 0.1, p), "w"),
], ids=["q1", "q2", "q2-weighted", "leading", "density-q2", "density-q1"])
def test_local_expansions_refuse_non_finite_points(call, name, point):
    # before, local_kernel_q2(ginibre, 10, nan, 0.1) blamed "m Re Q(z, w)
    # reaches nan" for leaving double range, and r_qm_density returned
    # nan+nanj (at q = 1 and w = inf with a RuntimeWarning)
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
        call(point)


def test_terms_guards():
    with pytest.raises(ConfigurationError):
        pk.local_kernel_q1(GINIBRE, 1.0, 0.1, 0.2, terms=3)
    with pytest.raises(ConfigurationError):
        pk.local_kernel_q2(GINIBRE, 1.0, 0.1, 0.2, terms=4)
    with pytest.raises(ConfigurationError):
        pk.local_kernel_leading(GINIBRE, 0, 1.0, 0.1, 0.2)


@pytest.mark.parametrize("call, weighted_value", [
    (lambda weighted: pk.local_kernel_q1(GINIBRE, 1000.0, 0.9, 0.9, weighted=weighted), 1000.0),
    (lambda weighted: pk.local_kernel_q2(GINIBRE, 1000.0, 0.9, 0.9, weighted=weighted), 2000.0),
    (lambda weighted: pk.local_kernel_leading(GINIBRE, 3, 1000.0, 0.9, 0.9, weighted=weighted),
     3000.0),
], ids=["q1", "q2", "leading"])
def test_unweighted_values_past_double_range_are_refused(call, weighted_value):
    # e^{m Q(z, w)} = e^{810}; before, each returned inf+nanj with only a
    # RuntimeWarning.  The weighted value is (q m) e^0 and stays
    with pytest.raises(NumericalDegeneracyError,
                       match=r"m Re Q\(z, w\) reaches 810 at m=1000\.0"):
        call(False)
    assert call(True) == pytest.approx(weighted_value, rel=1e-12)


POWER3 = pk.parse_weight("power:p=3")


@pytest.mark.parametrize("call, point, reach", [
    (lambda z: pk.local_kernel_q2(POWER3, 10.0, z, z, weighted=True), 1e60, "276.3"),
    (lambda z: pk.local_kernel_q2(POWER3, 10.0, z, z), 1e60, "276.3"),
    (lambda z: pk.local_kernel_q2(POWER3, 10.0, z, z, weighted=True), [1e60], "276.3"),
    (lambda z: pk.local_kernel_q1(POWER3, 10.0, z, z, weighted=True), 1e60, "276.3"),
    (lambda z: pk.local_kernel_leading(POWER3, 3, 10.0, z, z, weighted=True), 1e60, "276.3"),
    (lambda z: pk.local_kernel_q2(POWER3, 10.0, z, z, weighted=True), 1e30, "138.2"),
], ids=["q2-weighted", "q2", "q2-array", "q1-weighted", "leading-weighted", "q2-b-powers"])
def test_local_kernels_past_double_range_name_log_zw(call, point, reach):
    # at |z| = 1e60 Q = |z|^6 overflows, and so do products of b-derivatives:
    # before, local_kernel_q2 raised a bare OverflowError (Python complex ** at
    # scalars), and the other calls said "... reaches nan at m=10.0"; at
    # |z| = 1e30 b^3 = 729 |z|^12 overflows in the weighted q = 2 term, whose
    # exponent is 0, and the refusal said "... reaches 0"
    with pytest.raises(NumericalDegeneracyError,
                       match=rf"^log\|z w\| reaches {reach} at m=10\.0: the unweighted"):
        call(point)


def test_an_exponent_below_the_overflow_bound_still_names_itself():
    # m Q(z, w) = 709.6 is below log(largest double) = 709.78, but the
    # prefactor m b = 1000 carries the product past double range: b and Q
    # are finite, so the exponent is the cause named, not log|z w|
    with pytest.raises(NumericalDegeneracyError,
                       match=r"^m Re Q\(z, w\) reaches 709\.6 at m=1000\.0: the unweighted"):
        pk.local_kernel_q1(GINIBRE, 1000.0, 0.8424, 0.8424)


@pytest.mark.parametrize("call, point, power", [
    (lambda z: pk.local_kernel_q2(POWER3, 10.0, z, z, weighted=True), 1e-30, 4),
    (lambda z: pk.local_kernel_q2(POWER3, 10.0, z, z, weighted=True), [1e-30], 4),
    (lambda z: pk.local_kernel_q2(POWER3, 10.0, z, z), 1e-60, 4),
    (lambda z: pk.local_kernel_q1(POWER3, 10.0, z, z), 1e-60, 2),
    (lambda z: pk.local_kernel_q1(POWER3, 10.0, z, z, weighted=True), [1e-60], 2),
], ids=["q2-weighted", "q2-array", "q2", "q1", "q1-array"])
def test_local_kernels_name_an_underflowing_power_of_b(call, point, power):
    # at |z| = 1e-30, b^3 = 729 |z|^12 is 0 in double; before, a scalar
    # call raised a bare ZeroDivisionError, and an array call printed
    # "divide by zero" RuntimeWarnings and said "log|z w| reaches -138.2"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularExpansionError,
                           match=rf"^b\(z, w\)\^{power} underflows at \|b\| = 9e-"):
            call(point)


def test_a_term_that_needs_no_small_power_of_b_is_computed():
    # two q = 2 terms divide by b alone: b^2 = 0 at |z| = 1e-60 raised a bare
    # ZeroDivisionError at scalars, and the array call gave the value
    value = pk.local_kernel_q2(POWER3, 10.0, 1e-60, 1e-60, terms=2)
    array = pk.local_kernel_q2(POWER3, 10.0, [1e-60], [1e-60], terms=2)
    assert type(value) is complex and value == array[0] and value != 0


def _reference_local(w, q, m, z, wc, terms, weighted):
    """The q = 1, q = 2 and leading-term formulas written out apart, each
    with b typed as _polarization returns it or as a complex array."""
    z = np.asarray(z, dtype=complex)
    wc = np.asarray(wc, dtype=complex)
    b = _polarization(w, z, wc, 1, 1)
    d = {(i, j): _polarization(w, z, wc, i + 1, j + 1) for i in range(3) for j in range(3)}
    h = z - wc
    sep2 = np.abs(h) ** 2
    if terms is None:
        ba = np.asarray(b, dtype=complex)
        pref = m * ba * _laguerre1(q - 1, m * ba * np.abs(z - wc) ** 2)
    elif q == 1:
        pref = m * np.asarray(b, dtype=complex)
        if terms >= 2:
            pref = pref + 0.5 * (d[1, 1] / b - d[1, 0] * d[0, 1] / (b * b))
    else:
        b2, b3 = b * b, b * b * b
        log_11 = d[1, 1] / b - d[1, 0] * d[0, 1] / b2
        log_12 = (d[1, 2] / b - 2.0 * d[1, 1] * d[0, 1] / b2
                  - d[1, 0] * d[0, 2] / b2 + 2.0 * d[1, 0] * d[0, 1] ** 2 / b3)
        log_21 = (d[2, 1] / b - 2.0 * d[1, 0] * d[1, 1] / b2
                  - d[2, 0] * d[0, 1] / b2 + 2.0 * d[1, 0] ** 2 * d[0, 1] / b3)
        pref = m * m * (-sep2 * b * b)
        if terms >= 2:
            pref = pref + m * (2.0 * b + h * d[1, 0] - np.conjugate(h) * d[0, 1]
                               + sep2 * (-1.5 * d[1, 1] + d[1, 0] * d[0, 1] / b))
        if terms >= 3:
            pref = pref + (2.0 * log_11 - np.conjugate(h) * log_12 + h * log_21
                           + sep2 * _order_one_correction(b, d))
    e = m * _polarization(w, z, wc, 0, 0)
    if weighted:
        e = e - 0.5 * m * (w.eval_weight(z) + w.eval_weight(wc))
    out = pref * np.exp(e)
    return out if np.asarray(out).shape else complex(out)


@pytest.mark.parametrize("weight", ["ginibre", "power:p=2", "power:p=3", "radialpoly:c=1,1",
                                    "radialpoly:c=0.5,0,0.25"])
def test_local_path_matches_separate_formulas_bitwise(weight):
    # every expansion order of ORDERS and the leading term at four q, at
    # array and at scalar inputs: one path gives the separate formulas' bits
    w = pk.parse_weight(weight)
    rng = np.random.default_rng(38)
    z = 0.3 + 0.5 * (rng.random(12) + 1j * rng.random(12))
    v = z + 0.05 * (rng.random(12) - 0.5 + 1j * (rng.random(12) - 0.5))
    calls = [(q, terms) for q, top in ORDERS.items() for terms in range(1, top + 1)]
    calls += [(q, None) for q in (1, 2, 3, 7)]
    public = {1: pk.local_kernel_q1, 2: pk.local_kernel_q2}
    for m in (7.0, 60.0):
        for weighted in (False, True):
            for q, terms in calls:
                for a, c in [(z, v), (z, z)] + [(complex(z[i]), complex(v[i])) for i in range(3)]:
                    got = (pk.local_kernel_leading(w, q, m, a, c, weighted=weighted)
                           if terms is None else
                           public[q](w, m, a, c, terms=terms, weighted=weighted))
                    ref = _reference_local(w, q, m, a, c, terms, weighted)
                    assert type(got) is type(ref)
                    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
