"""Blow-up, decay, and bound harnesses on small deterministic instances."""

import json
import math

import numpy as np
import pytest
from scipy import special

import polykernel as pk
from polykernel import asymptotics as asym
from polykernel.asymptotics import (blowup_compare, blowup_grid, bulk_clearance,
                                    bulk_limit_profile)
from polykernel.errors import ConfigurationError

from conftest import block_grams

GINIBRE = pk.parse_weight("ginibre")
POWER2 = pk.parse_weight("power:p=2")


def test_rate_fit_synthetic():
    ms = [40.0, 80.0, 160.0]
    slope, flag = pk.rate_fit(ms, [m ** -0.5 for m in ms])
    assert flag == "" and slope == pytest.approx(-0.5, abs=1e-12)
    slope, flag = pk.rate_fit(ms, [0.7, 0.7, 0.7])
    assert slope == pytest.approx(0.0, abs=1e-12)
    slope, flag = pk.rate_fit(ms, [0.1, 0.0, 0.1])
    assert slope == float("-inf") and flag == "zero-errors"
    with pytest.raises(ConfigurationError):
        pk.rate_fit([40.0], [0.1])
    with pytest.raises(ConfigurationError, match="distinct m"):
        pk.rate_fit([40.0, 40.0], [0.1, 0.2])
    # before, a bad m raised LinAlgError after LAPACK wrote to stderr, a nan or
    # negative error gave (nan, ""), and mismatched lengths a bare TypeError
    for ms in ([-40.0, 80.0], [math.inf, 80.0], [True, 80.0]):
        with pytest.raises(ConfigurationError, match="m must be"):
            pk.rate_fit(ms, [0.1, 0.2])
    for errs in ([math.nan, 0.1], [-0.1, 0.1], [math.inf, 0.1]):
        with pytest.raises(ConfigurationError, match="sup errors must be finite and >= 0"):
            pk.rate_fit([40.0, 80.0], errs)
    with pytest.raises(ConfigurationError, match="one sup error per m"):
        pk.rate_fit([40.0, 80.0, 160.0], [0.1, 0.2])


def test_bulk_limit_profile_values():
    assert bulk_limit_profile(2, 0.0) == pytest.approx(2.0)  # L^1_1(0) = 2
    assert bulk_limit_profile(1, 1.3) == pytest.approx(math.exp(-0.5 * 1.69))
    assert bulk_limit_profile(2, math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-14)
    # where L^1_{q-1}(t^2) or t^2 overflows, e^{-t^2/2} is 0 and so is the
    # profile; before, these read nan with a RuntimeWarning
    np.testing.assert_array_equal(bulk_limit_profile(65, [1e6, 1e200]), [0.0, 0.0])
    assert math.isnan(bulk_limit_profile(2, math.nan))


def test_blowup_preconditions(spaces):
    K = spaces("ginibre", 2, 20, 20.0)
    with pytest.raises(ConfigurationError):
        blowup_compare(K, 1.5)  # outside the droplet
    Kp = spaces("power:p=2", 2, 20, 20.0)
    with pytest.raises(ConfigurationError):
        blowup_compare(Kp, 0.0)  # quarter-Laplacian vanishes at the origin


@pytest.mark.parametrize("weight, q, n, z0", [("power:p=2", 2, 40, 0.5),
                                          ("ginibre", 3, 30, 0.2 - 0.3j)])
def test_blowup_compare_is_one_pair_call(spaces, weight, q, n, z0):
    # the (xi, 0) plane is evaluated against its one w, the rest pair by pair,
    # with the errors of one call over all pairs, bit for bit
    K = spaces(weight, q, n, float(n))
    dq = K.weight.delta_q(z0)
    xi, lam = blowup_grid(2.5, 17)
    scale = 1.0 / math.sqrt(n * dq)
    measured = np.exp(K.log_abs_weighted_kernel(z0 + xi * scale, z0 + lam * scale))
    target = bulk_limit_profile(q, np.abs(xi - lam))
    errors = np.abs(measured / (n * dq) - target)
    assert np.array_equal(blowup_compare(K, z0).errors, errors)


@pytest.mark.parametrize("call, name", [
    (lambda K: bulk_limit_profile(0, 1.0), "q"),
    (lambda K: bulk_limit_profile(1.5, 1.0), "q"),
    (lambda K: blowup_compare(K, 0.3, 2.5, 0), "grid_n"),
    (lambda K: blowup_compare(K, 0.3, 2.5, 4.0), "grid_n"),
    (lambda K: pk.decay_ladder(GINIBRE, 2, 0.0, [20.0, 30.0], n_directions=0), "n_directions"),
    (lambda K: pk.decay_ladder(GINIBRE, 2, 0.0, [20.0, 30.0], n_directions=True),
     "n_directions"),
    (lambda K: pk.decay_ladder(GINIBRE, 2, 0.0, [20.0, 30.0], n_separations=1),
     "n_separations"),
], ids=["profile-q-zero", "profile-q-float", "blowup-grid-n-zero", "blowup-grid-n-float",
        "decay-directions-zero", "decay-directions-bool", "decay-separations-one"])
def test_harness_integer_inputs_are_refused(spaces, call, name):
    # before, bulk_limit_profile(0, .) returned the q = 2 profile, grid_n = 0
    # raised IndexError and n_directions = 0 returned NaN with warnings
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        call(spaces("ginibre", 2, 20, 20.0))


@pytest.mark.parametrize("ms, ns, blowup, decay, match", [
    ([20.0], None, {}, {}, "2 distinct"), ([20.0, 20.0], None, {}, {}, "2 distinct"),
    ([20.0, 20.0, 30.0], None, {}, {}, "2 distinct m, none repeated"),
    ([-1.0, 20.0], None, {}, {}, "m must be finite and > 0"),
    ([float("nan"), 20.0], None, {}, {}, "m must be finite and > 0"),
    ([True, 20.0], None, {}, {}, "m must be a real number"),
    (["40", "80"], None, {}, {}, "m must be a real number"),
    ([20.0, 30.0], [20], {}, None, "one n per m"),
    ([20.0, 30.0], [20, 0], {}, None, "n must be an integer"),
    ([20.0, 30.0], None, {"grid_n": 0}, None, "grid_n must be an integer"),
    ([20.0, 30.0], None, None, {"n_directions": 0}, "n_directions must be an integer"),
    ([20.0, 30.0], None, None, {"n_separations": 1}, "n_separations must be an integer"),
    ([20.0, 30.0], None, {"z0": 1.5}, {"z0": 1.5}, "outside the open droplet"),
    ([20.0, 30.0], None, {"grid_radius": float("nan")}, None, "grid_radius must be finite"),
    ([20.0, 30.0], None, {"grid_radius": float("inf")}, None, "grid_radius must be finite"),
    ([20.0, 30.0], None, {"grid_radius": 0.0}, None, "grid_radius must be finite"),
    ([20.0, 30.0], None, {"grid_radius": -1.0}, None, "grid_radius must be finite"),
], ids=["one-m", "repeated-m", "repeated-m-of-three", "negative-m", "nan-m", "bool-m",
        "string-m", "short-n", "n-zero", "grid-n-zero", "directions-zero", "separations-one",
        "z0-outside", "grid-radius-nan", "grid-radius-inf", "grid-radius-zero",
        "grid-radius-negative"])
def test_ladders_refuse_before_any_build(monkeypatch, ms, ns, blowup, decay, match):
    # a ladder is checked whole, with its grid and z0, before its first rung is
    # built; before, a repeated m built every rung and then failed in rate_fit,
    # a bad grid_n or z0 failed only after the first build, a bool m built a
    # space and a string m died with a bare TypeError; [20, 20, 30] built
    # m = 20 twice and fitted a slope
    real_init = pk.kernel.GramFactorization.__init__
    built = []

    def init(self, weight, spec):
        built.append(spec)
        real_init(self, weight, spec)

    monkeypatch.setattr(pk.kernel.GramFactorization, "__init__", init)
    if blowup is not None:
        with pytest.raises(ConfigurationError, match=match):
            pk.blowup_ladder(GINIBRE, 2, ms=ms, ns=ns, **{"z0": 0.3, "grid_n": 5, **blowup})
    if decay is not None:
        with pytest.raises(ConfigurationError, match=match):
            pk.decay_ladder(GINIBRE, 2, ms=ms, **{"z0": 0.0, **decay})
    assert built == []


@pytest.mark.parametrize("weight, builds", [("ginibre", 1), ("power:p=2", 1),
                                            ("radialpoly:c=1,0.5", 3)])
def test_one_term_ladders_make_one_build(monkeypatch, weight, builds):
    # a one-term weight's ladder builds its top rung and re-bases the others;
    # any other weight builds every rung
    real_recurrences = pk.kernel._recurrences
    calls = []

    def recurrences(rule, p):
        calls.append(rule.m)
        return real_recurrences(rule, p)

    monkeypatch.setattr(pk.kernel, "_recurrences", recurrences)
    w = pk.parse_weight(weight)
    z0 = 0.5 * pk.droplet_radius(w)
    pk.blowup_ladder(w, 2, z0, [20.0, 40.0, 30.0], grid_n=5)
    assert len(calls) == builds
    del calls[:]
    pk.decay_ladder(w, 2, z0, [20.0, 40.0, 30.0], n_directions=2, n_separations=4)
    assert len(calls) == builds


def _direct(monkeypatch):
    # every rung a build of its own: re-basing builds the rung it is asked for
    monkeypatch.setattr(pk.kernel.GramFactorization, "_rebased",
                        lambda self, spec: pk.GramFactorization(self.weight, spec))


@pytest.mark.parametrize("weight, z0, ms, ns", [
    ("power:p=2", 0.5, [40.0, 80.0, 160.0], None),
    ("power:p=2", 0.5, [80.0, 40.0, 20.0], [60, 70, 20]),
    ("power:p=3", 0.4, [30.0, 20.0], [24, 24])], ids=["readme", "top-first", "tie"])
def test_shared_blowup_ladders_match_direct_builds(monkeypatch, weight, z0, ms, ns):
    # re-based rungs move the sup errors and the slope by rounding only (ginibre
    # is left out: its sup errors are rounding themselves)
    w = pk.parse_weight(weight)
    shared = pk.blowup_ladder(w, 2, z0, ms, ns)
    _direct(monkeypatch)
    own = pk.blowup_ladder(w, 2, z0, ms, ns)
    assert own.fields["n"] == shared.fields["n"]
    np.testing.assert_allclose(shared.fields["sup_error"], own.fields["sup_error"],
                               rtol=1e-14, atol=0.0)
    assert shared.fields["slope"] == pytest.approx(own.fields["slope"], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("weight, z0", [("ginibre", 0.0), ("power:p=2", 0.5)])
def test_shared_decay_ladders_match_direct_builds(monkeypatch, weight, z0):
    w = pk.parse_weight(weight)
    shared = pk.decay_ladder(w, 2, z0, [40, 80, 160])
    _direct(monkeypatch)
    own = pk.decay_ladder(w, 2, z0, [40, 80, 160])
    np.testing.assert_allclose([s.beta_over_sqrt_m for s in shared.rungs],
                               [s.beta_over_sqrt_m for s in own.rungs], rtol=1e-14, atol=0.0)


def test_blowup_ginibre_exact_collapse():
    # above the truncation threshold the rescaled comparison is exact
    for q in (1, 2):
        m = 40.0
        grid_radius = 2.0
        r_eff = 0.5 + grid_radius / math.sqrt(m)
        n = int(math.ceil(m * r_eff**2 + 12.0 * math.sqrt(m) * r_eff + 40.0))
        K = pk.build_space(GINIBRE, pk.SpaceSpec(q, n, m))
        res = blowup_compare(K, 0.5, grid_radius=grid_radius, grid_n=9)
        assert res.sup_error < 1e-9


def test_blowup_report_serialization():
    rep = pk.blowup_ladder(GINIBRE, 2, 0.3, [20.0, 40.0], grid_radius=1.5, grid_n=7)
    d = rep.to_dict()
    assert d["weight"] == "ginibre" and d["q"] == 2
    assert len(d["sup_error"]) == 2 and d["n"] == [20, 40]
    assert isinstance(d["slope"], float)


def test_bulk_clearance_geometry():
    eq = pk.RadialEquilibrium.solve(GINIBRE)
    assert bulk_clearance(eq, 0.0) == pytest.approx(0.25)
    eq2 = pk.RadialEquilibrium.solve(POWER2)
    z0 = 0.6 * eq2.droplet_radius
    # the quarter-Laplacian vanishes at the origin, so the origin bounds the bulk
    expect = 0.25 * min(eq2.droplet_radius - z0, z0)
    assert bulk_clearance(eq2, z0) == pytest.approx(expect)
    with pytest.raises(ConfigurationError, match="outside the open droplet"):
        bulk_clearance(eq, 1.2)


def test_offdiagonal_scan_consistency(spaces):
    K = spaces("ginibre", 2, 20, 20.0)
    seps = np.array([1e-9, 0.05, 0.1, 0.15, 0.2])
    scan = pk.offdiagonal_scan(K, 0.0, [1.0, 1j], seps)
    # s ~ 0 recovers twice the log intensity at the centre
    expect = 2.0 * math.log(K.one_point_intensity(0.0))
    assert scan.log_values[0, 0] == pytest.approx(expect, rel=1e-9)
    assert scan.beta < 0.0


def test_offdiagonal_scan_gaussian_oracle():
    # full-space analytic case: log |weighted|^2 = 2 log m - m s^2
    m = 40.0
    K = pk.build_space(GINIBRE, pk.SpaceSpec(1, 140, m))
    seps = np.linspace(0.02, 0.2, 6)
    scan = pk.offdiagonal_scan(K, 0.0, [1.0], seps)
    expect = 2.0 * math.log(m) - m * seps**2
    assert np.max(np.abs(scan.log_values[0] - expect)) < 1e-8


def test_offdiagonal_scan_preconditions(spaces):
    K = spaces("ginibre", 2, 20, 20.0)
    with pytest.raises(ConfigurationError):
        pk.offdiagonal_scan(K, 0.9, [1.0], [0.3])  # ray exits the droplet


@pytest.mark.parametrize("m, separations", [(20.0, [0.1]), (1000.0, [0.88, 0.9])],
                         ids=["one-separation", "all-floored"])
def test_offdiagonal_scan_needs_two_unfloored_separations(m, separations):
    # at q = n = 1, log |weighted K(0, s)|^2 = 2 log m - m s^2, which is below
    # the log floor -745 past s = 0.87 at m = 1000
    K = pk.build_space(GINIBRE, pk.SpaceSpec(1, 1, m))
    with pytest.raises(ConfigurationError,
                       match="^too few unfloored separations for a decay fit$"):
        pk.offdiagonal_scan(K, 0.0, [1.0, 1j], separations)


def test_a_blowup_grid_where_every_error_vanishes_is_refused():
    # at microscopic radius 1e43 the kernel and the profile both underflow to
    # 0 at every point; before, the ladder reported slope -inf with exit 0
    with pytest.raises(ConfigurationError,
                       match=r"^blow-up errors vanish on the grid of radius 1e\+43"):
        pk.blowup_ladder(GINIBRE, 2, 0.3, [10.0, 20.0], grid_radius=1e43, grid_n=4)


def test_far_points_are_refused_before_q_overflows(spaces):
    # before, Delta Q(z0) and Q on the ray overflowed with a RuntimeWarning
    with pytest.raises(ConfigurationError, match=r"^z0 = 1e\+200 is outside the open droplet"):
        pk.decay_ladder(POWER2, 2, 1e200, [10.0, 20.0])
    with pytest.raises(ConfigurationError,
                       match=r"^Q is past double range within radius 1e\+200$"):
        pk.offdroplet_margins(spaces("ginibre", 2, 20, 20.0), 1.0, [2.0, 1e200])


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_blowup_compare_refuses_bad_grid_radius(spaces, radius):
    # before, nan gave a nan sup error and 0 compared one point many times over
    with pytest.raises(ConfigurationError, match="grid_radius must be finite"):
        blowup_compare(spaces("ginibre", 2, 20, 20.0), 0.3, radius, 5)


@pytest.mark.parametrize("directions, separations, name", [
    ([1.0], [0.05, float("nan"), 0.1], "separations"),
    ([1.0], [0.05, float("inf"), 0.1], "separations"),
    ([1.0], [-0.05, 0.05, 0.1], "separations"),
    ([0.0], [0.05, 0.1], "directions"),
    ([1.0, complex("nan")], [0.05, 0.1], "directions"),
    ([1.0, float("inf")], [0.05, 0.1], "directions"),
    ([], [0.05, 0.1], "directions"),
], ids=["separation-nan", "separation-inf", "separation-negative", "direction-zero",
        "direction-nan", "direction-inf", "no-direction"])
def test_offdiagonal_scan_refuses_bad_rays(spaces, directions, separations, name):
    # before, a nan separation was dropped from the fit without a word, and a
    # zero direction failed as too few unfloored separations
    with pytest.raises(ConfigurationError, match=f"{name} must be"):
        pk.offdiagonal_scan(spaces("ginibre", 2, 20, 20.0), 0.0, directions, separations)


def test_blowup_slope_band_power2():
    weight = POWER2
    z0 = 0.6 * pk.droplet_radius(weight)
    rep = pk.blowup_ladder(weight, 2, z0, [40.0, 80.0, 160.0],
                           grid_radius=2.0, grid_n=9)
    assert -1.2 <= rep.fields["slope"] <= -0.4


@pytest.mark.parametrize("weight, q", [("power:p=2", 1), ("power:p=2", 2), ("power:p=2", 3),
                                       ("power:p=2", 4), ("radialpoly:c=1,0.5", 2),
                                       ("radialpoly:c=1,0.5", 3)])
def test_blowup_rate_is_one_half_where_asymptotic(weight, q):
    # the paper's bulk rate, sup error ~ m^{-1/2}, at m = 640..2560, where the
    # fit is asymptotic: the slopes read -0.509, -0.509, -0.515, -0.505 on
    # power:p=2 q = 1..4 and -0.521, -0.512 on radialpoly:c=1,0.5 q = 2, 3;
    # the margin 0.03 is about 1.5 times the largest distance from -1/2
    w = pk.parse_weight(weight)
    rep = pk.blowup_ladder(w, q, 0.6 * pk.droplet_radius(w), [640.0, 1280.0, 2560.0],
                           grid_radius=2.0, grid_n=17)
    assert rep.fields["slope"] == pytest.approx(-0.5, abs=0.03)


@pytest.mark.parametrize("tau, sup_2560", [(0.5, 3.7169413463699064e-3),
                                           (1.0, 2.628268742494999e-3),
                                           (2.0, 1.8584646369265156e-3)])
def test_edge_profile_ginibre_q1(tau, sup_2560):
    # across the edge of the droplet of mass tau = n/m, |z| = sqrt(tau), the
    # intensity is m erfc(sqrt(2) xi) / 2 at z = sqrt(tau) + xi / sqrt(m), with
    # a first correction (xi^2 - 1) e^(-2 xi^2) / (3 sqrt(2 pi n)): the sup error
    # sits at xi = 0 and falls like m^(-1/2) (the slopes read -0.50002 or
    # closer), and what the correction leaves is about 0.0123 / n
    xi = np.linspace(-3.0, 3.0, 25)
    ms = [160.0, 640.0, 2560.0]
    sups = []
    for m in ms:
        n = int(tau * m)
        K = pk.build_space(GINIBRE, pk.SpaceSpec(1, n, m))
        gamma = np.asarray(K.one_point_intensity(math.sqrt(tau) + xi / math.sqrt(m) + 0j))
        error = gamma / m - 0.5 * special.erfc(math.sqrt(2.0) * xi)
        sups.append(float(np.max(np.abs(error))))
        first = (xi**2 - 1.0) * np.exp(-2.0 * xi**2) / (3.0 * math.sqrt(2.0 * math.pi * n))
        assert np.max(np.abs(error - first)) <= 0.02 / n
    assert pk.rate_fit(ms, sups)[0] == pytest.approx(-0.5, abs=0.005)
    assert sups[-1] == pytest.approx(sup_2560, rel=1e-8)


@pytest.mark.parametrize("q, tau, change_2560", [
    (2, 0.5, 8.118040448010788e-3), (2, 1.0, 5.692151134777168e-3),
    (2, 2.0, 4.001248620552067e-3), (3, 0.5, 1.672395925380199e-2),
    (3, 1.0, 1.1826404744681884e-2), (3, 2.0, 8.362806463035888e-3)])
def test_edge_profile_ginibre_converges_at_higher_q(q, tau, change_2560):
    # at q >= 2 no closed form of the edge profile is claimed, so the test is
    # Cauchy: gamma / m at z = sqrt(tau) + xi / sqrt(m) moves by a sup over xi
    # that falls like m^(-1/2) from rung to rung (the slopes read -0.516 to
    # -0.533 at q = 2 and -0.4993 to -0.4998 at q = 3).  Past m = 2560 those
    # moves sum to about the last one, and gamma / m at xi = 0 sits within
    # 0.92-0.93 (q = 2) and 1.0001 (q = 3) times it of its limit q / 2
    xi = np.linspace(-3.0, 3.0, 25)
    ms = [40.0, 160.0, 640.0, 2560.0]
    profiles = asym._ladder(
        GINIBRE, q, 0.0, ms, [int(tau * m) for m in ms],
        lambda K, m: np.asarray(K.one_point_intensity(math.sqrt(tau) + xi / math.sqrt(m) + 0j)) / m)
    changes = [float(np.max(np.abs(b - a))) for a, b in zip(profiles, profiles[1:])]
    assert pk.rate_fit(ms[1:], changes)[0] == pytest.approx(-0.5, abs=0.05)
    assert changes[-1] == pytest.approx(change_2560, rel=1e-8)
    assert abs(profiles[-1][12] - q / 2) <= 1.05 * changes[-1]


def _laguerre_constant(q: int) -> float:
    """c_q = (2 / pi^2) int_0^inf L^1_{q-1}(rho^2)^2 e^(-rho^2) rho^2 d rho, by
    q-node Gauss-Laguerre in u = rho^2 with weight u^(1/2) e^(-u), exact here."""
    u, v = special.roots_genlaguerre(q, 0.5)
    return float(np.sum(v * special.eval_genlaguerre(q - 1, 1, u) ** 2)) / math.pi**2


@pytest.mark.parametrize("weight, q, gap_40", [
    ("ginibre", 1, -3.216141898858438e-3), ("ginibre", 2, -5.245122009505887e-3),
    ("ginibre", 3, -8.36413860007268e-3), ("power:p=2", 2, -2.572365347985961e-2),
    ("power:p=2", 3, -3.484153475268048e-2)])
def test_number_variance_meets_the_bulk_limit(weight, q, gap_40):
    # Var N(r) = sum of lam (1 - lam) over the eigenvalues of the G_d(r), which
    # is tr G - |G|_F^2, exactly and with no sampling.  The paper's bulk limit,
    # integrated across the circle |z| = r in microscopic units, predicts
    # 2 pi r sqrt(m dQ(r)) c_q (r sqrt(m / pi) at q = 1).  At r = 0.7 R, n = m,
    # Var / prediction - 1 falls like 1/m: the slopes over m = 40..640 read
    # -0.957 to -1.080, so the margin 0.1 is 1.25 times the largest distance
    w = pk.parse_weight(weight)
    r = 0.7 * pk.droplet_radius(w)

    def gap(K, m):
        G = block_grams(K, [r])[0]
        variance = np.trace(G, axis1=1, axis2=2).sum() - np.sum(G * G)
        return variance / (2.0 * math.pi * r * math.sqrt(m * w.delta_q(r))
                           * _laguerre_constant(q)) - 1.0

    ms = [40.0, 160.0, 640.0]
    gaps = asym._ladder(w, q, r, ms, None, gap)
    assert gaps[0] == pytest.approx(gap_40, rel=1e-9)
    assert pk.rate_fit(ms, np.abs(gaps))[0] == pytest.approx(-1.0, abs=0.1)


def test_fixed_separation_sqrtm_correlation():
    # at the droplet centre the analytic-family kernel column is closed form,
    # so log |weighted|^2 = 2 log m - m s^2 exactly at any truncation; over a
    # geometric ladder the fit against sqrt(m) is strongly linear
    s = 0.245
    ms = [100.0, 140.0, 196.0, 274.0]
    ys = []
    for m in ms:
        K = pk.build_space(GINIBRE, pk.SpaceSpec(1, int(m), m))
        scan = pk.offdiagonal_scan(K, 0.0, [1.0], [s, 0.999 * s])
        ys.append(scan.log_values[0, 0])
        assert ys[-1] == pytest.approx(2.0 * math.log(m) - m * s * s, abs=1e-10)
    corr = float(np.corrcoef(np.sqrt(ms), ys)[0, 1])
    assert corr < -0.99


def test_decay_ladder_stability_small():
    rep = pk.decay_ladder(GINIBRE, 2, 0.0, [40.0, 80.0], n_directions=2,
                          n_separations=8)
    assert all(s.beta_over_sqrt_m < 0.0 for s in rep.rungs)
    assert rep.fields["stability"] < 0.3
    d = rep.to_dict()
    assert len(d["beta_over_sqrt_m"]) == 2


def test_decay_ladder_stability_ginibre_q2():
    # the ladder workload's decay ladder: for ginibre, beta/sqrt(m) does not
    # move with m, so its spread is rounding; it reads 6.1e-16, and 1.0e-15
    # when the block recurrences sum alpha_k and beta_k in double
    rep = pk.decay_ladder(GINIBRE, 2, 0.0, [40, 80, 160])
    assert rep.fields["stability"] <= 1e-15


def test_offdroplet_margins_bounded(spaces):
    radii = np.array([1.1, 1.3, 1.6, 2.0])
    cal = pk.offdroplet_margins(spaces("ginibre", 2, 20, 20.0), 1.0, radii).max()
    margins40 = pk.offdroplet_margins(spaces("ginibre", 2, 40, 40.0), 1.0, radii)
    assert margins40.max() <= cal + 0.1 * abs(cal)
    # the admissible constant is the calibrated one plus log 10
    assert np.all(margins40 - (cal + math.log(10.0)) <= 0.0)


def test_offdroplet_preconditions(spaces):
    K = spaces("ginibre", 2, 20, 20.0)
    with pytest.raises(ConfigurationError):
        pk.offdroplet_margins(K, 1.0, [0.9])  # inside the droplet
    Kbad = pk.build_space(GINIBRE, pk.SpaceSpec(2, 22, 20.0))  # n > m
    with pytest.raises(ConfigurationError):
        pk.offdroplet_margins(Kbad, 1.0, [1.5])


@pytest.mark.parametrize("direction, radii", [
    (1.0, [2.0, np.inf]), (1.0, [np.nan, 2.0]), (1.0, [-np.inf]),
    (0.0, [2.0]), (complex(np.nan, 1.0), [2.0]), (np.inf, [2.0]),
], ids=["radius-inf", "radius-nan", "radius-minus-inf", "direction-zero",
        "direction-nan", "direction-inf"])
def test_offdroplet_refuses_non_finite_input(spaces, direction, radii):
    # before, [2.0, inf] returned [-1.7365, nan] without an error
    K = spaces("ginibre", 2, 20, 20.0)
    with pytest.raises(ConfigurationError, match="radii|direction"):
        pk.offdroplet_margins(K, direction, radii)


def test_diagonal_bound(spaces):
    ratio = pk.diagonal_bound_check(spaces("ginibre", 2, 40, 40.0))
    assert ratio < 1.0
    # bulk density 2m against m (8 + 48) e for unit quarter-Laplacian
    assert ratio == pytest.approx(2.0 / (56.0 * math.e), rel=0.05)
    assert pk.diagonal_bound_check(spaces("power:p=2", 2, 20, 20.0)) < 1.0
    assert pk.diagonal_bound_check(spaces("ginibre", 2, 1, 1.0)) < 1.0
    with pytest.raises(ConfigurationError):
        pk.diagonal_bound_check(spaces("ginibre", 1, 2, 1.0))


def test_harness_determinism():
    a = pk.blowup_ladder(GINIBRE, 2, 0.3, [20.0, 30.0], grid_radius=1.0, grid_n=5)
    b = pk.blowup_ladder(GINIBRE, 2, 0.3, [20.0, 30.0], grid_radius=1.0, grid_n=5)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
