"""Weight catalog and droplet geometry, and the polarization, b and theta
that ``localexpansion`` builds from each weight's coefficients."""

import math
import re

import numpy as np
import pytest

import polykernel as pk
from polykernel.errors import ConfigurationError
from polykernel.localexpansion import _polarization, _theta

from conftest import disk_points

GINIBRE = pk.parse_weight("ginibre")
POWER2 = pk.parse_weight("power:p=2")
RPOLY = pk.parse_weight("radialpoly:c=1,0.5")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_families():
    assert GINIBRE.label == "ginibre" and GINIBRE.coeffs == (1.0,)
    assert POWER2.label == "power:p=2" and POWER2.coeffs == (0.0, 1.0)
    assert RPOLY.coeffs == (1.0, 0.5)


@pytest.mark.parametrize("bad,token", [
    ("gaussian", "gaussian"),
    ("power", "power"),
    ("power:p=two", "p=two"),
    ("power:q=2", "p="),
    ("radialpoly:c=1,x", "c=1,x"),
    ("radialpoly:c", "c"),
])
def test_parse_rejects_with_token(bad, token):
    with pytest.raises(ConfigurationError) as err:
        pk.parse_weight(bad)
    assert token.split("=")[0] in str(err.value)


@pytest.mark.parametrize("make, message", [
    (lambda: pk.parse_weight("ginibre:p=2"), "unexpected parameters for ginibre: 'p=2'"),
    (lambda: pk.parse_weight("radialpoly:p=2"), "requires exactly 'c=<floats>'"),
    (lambda: pk.WeightModel.radialpoly([]), "needs at least one coefficient"),
], ids=["ginibre-parameters", "radialpoly-key", "radialpoly-empty"])
def test_catalog_refusals_name_their_cause(make, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("text, key", [("radialpoly:c=1;c=2", "c"), ("power:p=2; p=3", "p")])
def test_parse_refuses_a_repeated_parameter(text, key):
    # before, the last token won: radialpoly:c=1;c=2 was radialpoly:c=2
    with pytest.raises(ConfigurationError, match=f"repeated weight parameter '{key}'"):
        pk.parse_weight(text)


@pytest.mark.parametrize("p", [0, True, 1.5, "2"])
def test_power_weight_needs_an_integer_p(p):
    with pytest.raises(ConfigurationError, match="power weight p must be an integer"):
        pk.WeightModel.power(p)


def test_radialpoly_rejects_nonsubharmonic():
    # quarter-Laplacian 1 - 4 r^2 + 0.9 r^4 dips negative near r = 1
    with pytest.raises(ConfigurationError):
        pk.parse_weight("radialpoly:c=1,-1,0.1")


def test_spec_string_roundtrip():
    for w in (GINIBRE, POWER2, RPOLY):
        again = pk.parse_weight(w.label)
        assert again.coeffs == w.coeffs


# ---------------------------------------------------------------------------
# weight values and polarization
# ---------------------------------------------------------------------------

def test_eval_weight_examples():
    assert GINIBRE.eval_weight(1 + 1j) == pytest.approx(2.0, abs=1e-14)
    assert POWER2.eval_weight(2.0) == pytest.approx(16.0, rel=1e-14)
    assert RPOLY.eval_weight(1.0) == pytest.approx(1.5, rel=1e-14)
    assert pk.parse_weight("radialpoly:c=1,1").eval_weight(1.0) == pytest.approx(2.0)


def test_polarize_examples():
    assert _polarization(GINIBRE, 2.0, 3.0, 0, 0) == pytest.approx(6.0)
    # direct expansion of z^2 conj(w)^2 at z = 1+i, w = 1
    assert _polarization(POWER2, 1 + 1j, 1.0, 0, 0) == pytest.approx(2j)


def test_polarization_diagonal_and_hermitian():
    rng = np.random.default_rng(11)
    for w in (GINIBRE, POWER2, RPOLY):
        R = pk.droplet_radius(w)
        z = disk_points(rng, 100, 2.0 * R)
        v = disk_points(rng, 100, 2.0 * R)
        diag = np.abs(_polarization(w, z, z, 0, 0) - w.eval_weight(z))
        assert np.max(diag) < 1e-12
        herm = np.abs(_polarization(w, z, v, 0, 0) - np.conj(_polarization(w, v, z, 0, 0)))
        assert np.max(herm) < 1e-12


def test_growth_bound():
    # Q(z) >= (1 + eps) log |z|^2 for |z| beyond a family radius (here 2)
    r = np.linspace(2.0, 50.0, 200)
    for w in (GINIBRE, POWER2, RPOLY):
        eps = 1.0
        assert np.all(w.eval_weight(r) >= (1.0 + eps) * np.log(r**2))


# ---------------------------------------------------------------------------
# b and its derivatives
# ---------------------------------------------------------------------------

def test_hermitian_b_examples():
    assert _polarization(GINIBRE, 0.3 + 1j, -2.0, 1, 1) == pytest.approx(1.0)
    assert _polarization(POWER2, 1.0, 1.0, 1, 1) == pytest.approx(4.0)  # = dQ(1)
    assert _polarization(POWER2, 1.0, 1.0, 2, 1) == pytest.approx(4.0)  # d_z(4 z wbar)


def _laplacian_fd(w, z, h=1e-4):
    """4th-order central finite-difference quarter-Laplacian of Q."""
    def q(x, y):
        return w.eval_weight(x + 1j * y)

    x, y = z.real, z.imag
    c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    off = np.array([-2, -1, 0, 1, 2]) * h
    qxx = sum(ci * q(x + oi, y) for ci, oi in zip(c, off))
    qyy = sum(ci * q(x, y + oi) for ci, oi in zip(c, off))
    return 0.25 * (qxx + qyy)


def test_b_matches_fd_laplacian():
    rng = np.random.default_rng(5)
    for w in (GINIBRE, POWER2, RPOLY):
        R = pk.droplet_radius(w)
        z = disk_points(rng, 100, 2.0 * R)
        for zz in z:
            fd = _laplacian_fd(w, zz)
            assert abs(_polarization(w, zz, zz, 1, 1) - fd) < 1e-6
            assert abs(_polarization(w, zz, zz, 1, 1) - w.delta_q(zz)) < 1e-10


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_phase_theta_ginibre_closed_form():
    rng = np.random.default_rng(6)
    z, v = disk_points(rng, 50, 2.0), disk_points(rng, 50, 2.0)
    assert np.max(np.abs(_theta(GINIBRE, z, v, 0) - np.conj(v))) < 1e-13


def test_phase_theta_diagonal_is_weight_derivative():
    # theta(z, z) equals the holomorphic derivative of Q along the diagonal
    rng = np.random.default_rng(7)
    for w in (GINIBRE, POWER2, RPOLY):
        z = disk_points(rng, 40, 1.5)
        expected = _polarization(w, z, z, 1, 0)
        assert np.max(np.abs(_theta(w, z, z, 0) - expected)) < 1e-12


def test_phase_theta_power2_example():
    # (w^2 wbar^2 - z^2 wbar^2)/(w - z) = wbar^2 (w + z) -> 1 at (0, 1)
    assert _theta(POWER2, 0.0, 1.0, 0) == pytest.approx(1.0)


def test_theta_branch_agreement():
    rng = np.random.default_rng(8)
    for w in (GINIBRE, POWER2, RPOLY):
        z = disk_points(rng, 100, 1.5)
        h = 1e-3 * np.maximum(1.0, np.abs(z))
        sep = rng.uniform(0.5, 2.0, size=100) * h
        v = z + sep * np.exp(2j * np.pi * rng.uniform(size=100))
        series = _theta(w, z, v, 0)
        quotient = (w.eval_weight(v) - _polarization(w, z, v, 0, 0)) / (v - z)
        rel = np.abs(series - quotient) / np.maximum(np.abs(series), 1e-30)
        assert np.max(rel) < 1e-9


def test_dbar_theta_examples():
    rng = np.random.default_rng(9)
    z, v = disk_points(rng, 30, 2.0), disk_points(rng, 30, 2.0)
    assert np.max(np.abs(_theta(GINIBRE, z, v, 1) - 1.0)) < 1e-13
    assert np.max(np.abs(_theta(GINIBRE, z, v, 2))) < 1e-13


def test_dbar_theta_power2_both_branches():
    # Both branches and the brute-force series oracle agree on the value 4
    # at (1, 1): the quotient form dbar_w[wbar^2 (w+z)] = 2 wbar (w+z) gives
    # 4, and the series b + (w-z)(...) collapses to b(1,1) = dQ(1) = 4.
    direct = 2.0 * 1.0 * (1.0 + 1.0)
    series_oracle = sum(
        (1.0 - 1.0) ** j / math.factorial(j + 1) * _polarization(POWER2, 1.0, 1.0, j + 1, 1)
        for j in range(2)
    )
    assert direct == pytest.approx(4.0)
    assert series_oracle == pytest.approx(4.0)
    assert _theta(POWER2, 1.0, 1.0, 1) == pytest.approx(4.0)
    # at a separated pair: the closed form, and the series oracle summed by
    # increasing powers of h
    z, w = 1.0, 1.3 + 0.2j
    far = _theta(POWER2, z, w, 1)
    h = w - z
    near = sum(h**j / math.factorial(j + 1) * _polarization(POWER2, z, w, j + 1, 1)
               for j in range(2))
    assert far == pytest.approx(2.0 * np.conj(w) * (w + z), rel=1e-12)
    assert far == pytest.approx(near, rel=1e-12)


def _theta_divided_difference(w, z, v, s):
    """dbar_w^s theta by exact differentiation of the quotient, using
    (v^k - z^k) / (v - z) = sum_i v^i z^(k-1-i): no cancellation in h."""
    out = np.zeros_like(z)
    for k in range(max(s, 1), w.degree + 1):
        gk = sum(v**i * z ** (k - 1 - i) for i in range(k))
        out = out + w.coeffs[k - 1] * math.perm(k, s) * np.conj(v) ** (k - s) * gk
    return out


@pytest.mark.parametrize("spec", [
    "ginibre", "power:p=2", "power:p=3", "radialpoly:c=1,0.5",
    "radialpoly:c=1,1", "radialpoly:c=0.5,0.2,0.1",
])
def test_theta_matches_divided_difference(spec):
    # pairs within 2R: separated, in the band 0.5..2 x 1e-3 max(1, |z|)
    # where a near/far branch switch would sit, and on the diagonal
    w = pk.parse_weight(spec)
    R = pk.droplet_radius(w)
    rng = np.random.default_rng(12)
    z, v = disk_points(rng, 60, 2.0 * R), disk_points(rng, 60, 2.0 * R)
    sep = 1e-3 * np.maximum(1.0, np.abs(z[:20])) * rng.uniform(0.5, 2.0, size=20)
    v[:20] = z[:20] + sep * np.exp(2j * np.pi * rng.uniform(size=20))
    v[20:30] = z[20:30]
    for s in range(4):
        got = _theta(w, z, v, s)
        ref = _theta_divided_difference(w, z, v, s)
        assert np.all(np.abs(got - ref) <= 5e-14 * np.maximum(1.0, np.abs(ref))), s


def test_dbar_theta_diagonal_equals_b():
    rng = np.random.default_rng(10)
    for w in (GINIBRE, POWER2, RPOLY):
        z = disk_points(rng, 50, 1.5)
        lhs = _theta(w, z, z, 1)
        rhs = _polarization(w, z, z, 1, 1)
        assert np.max(np.abs(lhs - rhs)) == 0.0


# ---------------------------------------------------------------------------
# droplet geometry
# ---------------------------------------------------------------------------

def test_droplet_radius_values():
    assert abs(pk.droplet_radius(GINIBRE) - 1.0) < 1e-12
    assert abs(pk.droplet_radius(POWER2) - 2.0 ** (-0.25)) < 1e-12
    assert abs(pk.droplet_radius(pk.parse_weight("radialpoly:c=1")) - 1.0) < 1e-12


def test_droplet_radius_defining_equation():
    for w in (GINIBRE, POWER2, RPOLY):
        R = pk.droplet_radius(w)
        assert abs(R * w.q_prime(R) - 2.0) < 1e-12


def test_equilibrium_solves_each_weight_once(monkeypatch):
    # every build and ladder asks for its weight's droplet: equal weights
    # share one bisection, and the radius is bitwise droplet_radius's
    from polykernel import weights

    solved = []
    bisect = weights.droplet_radius
    monkeypatch.setattr(weights, "droplet_radius", lambda w: solved.append(w) or bisect(w))
    weights._droplet_radius_of.cache_clear()
    w = pk.parse_weight("radialpoly:c=1,0.0625,0.03125")
    first = pk.RadialEquilibrium.solve(w)
    again = pk.RadialEquilibrium.solve(pk.parse_weight(w.label))
    assert first.droplet_radius == again.droplet_radius == bisect(w)
    assert len(solved) == 1


def test_equal_weights_keep_their_own_labels():
    # equality is by coefficients: these three share one droplet bisection,
    # and each equilibrium still carries its own weight and label
    texts = ["ginibre", "power:p=1", "radialpoly:c=1"]
    weights = [pk.parse_weight(t) for t in texts]
    assert weights[0] == weights[1] == weights[2]
    assert [pk.RadialEquilibrium.solve(w).weight.label for w in weights] == texts


def test_droplet_mass_is_one():
    # 2 int_0^R dQ(r) r dr = 1
    x, v = np.polynomial.legendre.leggauss(200)
    for w in (GINIBRE, POWER2, RPOLY):
        R = pk.droplet_radius(w)
        r = 0.5 * R * (x + 1.0)
        mass = float(np.sum(0.5 * R * v * 2.0 * r * w.delta_q(r)))
        assert abs(mass - 1.0) < 1e-10


def test_equilibrium_potential_profile():
    eq = pk.RadialEquilibrium.solve(GINIBRE)
    assert eq.equilibrium_potential(0.5) == pytest.approx(0.25)
    assert eq.equilibrium_potential(math.exp(0.5)) == pytest.approx(2.0)
    eq2 = pk.RadialEquilibrium.solve(POWER2)
    R2 = eq2.droplet_radius
    assert eq2.equilibrium_potential(R2) == pytest.approx(0.5, rel=1e-10)


def test_equilibrium_potential_c1_at_boundary():
    for w in (GINIBRE, POWER2, RPOLY):
        eq = pk.RadialEquilibrium.solve(w)
        R = eq.droplet_radius
        # inside derivative Q'(R) must equal outside derivative 2/R
        assert abs(w.q_prime(R) - 2.0 / R) < 1e-10


def test_equilibrium_potential_log_growth():
    for w in (GINIBRE, POWER2, RPOLY):
        eq = pk.RadialEquilibrium.solve(w)
        r = np.linspace(2.0 * eq.droplet_radius, 100.0, 50)
        diff = eq.equilibrium_potential(r) - np.log(r**2)
        assert np.max(diff) - np.min(diff) < 1e-12  # exactly constant outside


def test_weighted_energy_ginibre_closed_form():
    eq = pk.RadialEquilibrium.solve(GINIBRE)
    assert eq.weighted_energy(512) == pytest.approx(0.75, abs=1e-9)
    assert eq.weighted_energy(64) == pytest.approx(0.75, abs=1e-6)


def _mc_energy(w: pk.WeightModel, n_pairs: int, seed: int):
    """Monte Carlo oracle: independent pairs from the equilibrium measure."""
    eq = pk.RadialEquilibrium.solve(w)
    R = eq.droplet_radius
    rng = np.random.default_rng(seed)
    # inverse-CDF sampling of the radial mass 2 r dQ(r) dr via a fine table
    grid = np.linspace(0.0, R, 4001)
    pdf = 2.0 * grid * w.delta_q(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    def draw(count):
        u = rng.uniform(size=count)
        r = np.interp(u, cdf, grid)
        return r * np.exp(2j * np.pi * rng.uniform(size=count))
    z1, z2 = draw(n_pairs), draw(n_pairs)
    log_term = -0.5 * np.log(np.abs(z1 - z2) ** 2)
    q_term = w.eval_weight(z1)
    est = log_term.mean() + q_term.mean()
    se = math.sqrt(log_term.var() / n_pairs + q_term.var() / n_pairs)
    return est, se


def test_weighted_energy_power2_vs_mc_oracle():
    eq = pk.RadialEquilibrium.solve(POWER2)
    quad = eq.weighted_energy(512)
    assert math.isfinite(quad)
    mc, se = _mc_energy(POWER2, 10**6, seed=404)
    assert abs(quad - mc) < 3.0 * se


def test_weighted_energy_finite_all_catalog():
    for w in (GINIBRE, POWER2, RPOLY):
        val = pk.RadialEquilibrium.solve(w).weighted_energy(128)
        assert math.isfinite(val)


def test_weighted_energy_nquad_guard():
    with pytest.raises(ConfigurationError):
        pk.RadialEquilibrium.solve(GINIBRE).weighted_energy(32)
    with pytest.raises(ConfigurationError, match="n_quad"):
        pk.RadialEquilibrium.solve(GINIBRE).weighted_energy(100.5)
