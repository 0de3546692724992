"""Radial log-moments against closed forms and brute-force oracles."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

import polykernel as pk
from polykernel import quadrature
from polykernel.errors import ConfigurationError, NumericalDegeneracyError
from polykernel.quadrature import NEWTON_STEPS, RULE_STEP, MomentRule, gauss_legendre

GINIBRE = pk.parse_weight("ginibre")
POWER2 = pk.parse_weight("power:p=2")


def _table(w: pk.WeightModel, m: float, p_max: int) -> np.ndarray:
    """log M_p for p = 0..p_max, by the one table path, MomentRule.log_moments."""
    return MomentRule(w, m, np.arange(p_max + 1)).log_moments()


def _trapezoid_moment_oracle(w: pk.WeightModel, m: float, p: int) -> float:
    """Brute-force log moment: 1e6-point trapezoid over a generous range."""
    r_star = math.exp(0.5 * MomentRule(w, m, [p]).mode[0])
    hi = r_star
    def f_log(r):
        return (2 * p + 1) * np.log(r) - m * w.eval_weight(r)
    peak = f_log(r_star)
    while f_log(hi) - peak > -60 * math.log(10):
        hi *= 1.5
    r = np.linspace(1e-12, hi, 10**6)
    vals = np.exp(f_log(r) - peak)
    return peak + math.log(2.0 * np.trapezoid(vals, r))


class _ReferenceRule:
    """The mode solve and moment grid of MomentRule as first written: every
    term of the weight on every row, one (rows, degree) array per Newton
    step, and the moment grid gathered through a per-node row index."""

    def __init__(self, w, m, p):
        self.weight, self.m, self.p = w, m, np.asarray(p)
        self.mode = self._solve_modes()
        self.terms = self._terms(self.mode)
        self.width = 1.0 / np.sqrt(self._slopes(self.terms)[1])
        self.peak_weight = np.zeros(self.p.size)
        for k in range(self.terms.shape[1]):
            self.peak_weight += self.terms[:, k]

    def _terms(self, u):
        k = np.arange(1, self.weight.degree + 1)
        return self.m * np.asarray(self.weight.coeffs) * np.exp(u[:, None] * k)

    def _slopes(self, a):
        s1, s2 = np.zeros(a.shape[0]), np.zeros(a.shape[0])
        for k in range(1, a.shape[1] + 1):
            s1 += k * a[:, k - 1]
            s2 += k * k * a[:, k - 1]
        return s1, s2

    def _solve_modes(self):
        target = self.p + 1.0
        lead = self.weight.degree
        guess = np.log(target / (self.m * lead * self.weight.coeffs[-1])) / lead

        def bracket(u, move):
            step = np.ones(u.shape)
            for _ in range(NEWTON_STEPS):
                out = move * (self._slopes(self._terms(u))[0] - target) < 0.0
                if not out.any():
                    return u
                u = np.where(out, u + move * step, u)
                step = np.where(out, 2.0 * step, step)
            raise AssertionError("no bracket")

        hi = bracket(guess, 1.0)
        lo = bracket(hi - 1.0, -1.0)
        u = hi.copy()
        active = np.arange(u.size)
        for _ in range(NEWTON_STEPS):
            if not active.size:
                return u
            ua = u[active]
            s1, s2 = self._slopes(self._terms(ua))
            f = s1 - target[active]
            lo[active] = np.where(f < 0.0, ua, lo[active])
            hi[active] = np.where(f > 0.0, ua, hi[active])
            new = ua - f / s2
            new = np.where((new > lo[active]) & (new < hi[active]), new,
                           0.5 * (lo[active] + hi[active]))
            u[active] = new
            active = active[np.abs(new - ua) > 1e-13 * np.maximum(1.0, np.abs(ua))]
        raise AssertionError("no convergence")

    def log_moments(self, rule):
        """log M_p on the grids of ``rule`` (whose reach this shares)."""
        h = RULE_STEP * self.width
        left, right = rule.reach(slice(None))
        below = np.ceil((self.mode - left) / h).astype(int)
        above = np.ceil((right - self.mode) / h).astype(int)
        count = below + above + 1
        rows = np.repeat(np.arange(self.p.size), count)
        starts = np.concatenate([[0], np.cumsum(count)[:-1]])
        j = np.arange(rows.size) - starts[rows] - below[rows]
        u = self.mode[rows] + j * h[rows]
        x = u - self.mode[rows]
        a = self.terms[rows]
        f = (self.p[rows] + 1.0) * x
        for k in range(1, a.shape[-1] + 1):
            f -= a[..., k - 1] * np.expm1(k * x)
        sums = np.add.reduceat(np.exp(f), starts)
        mode = self.mode.astype(np.longdouble)
        peak = (self.p + 1) * mode
        for k, c in enumerate(self.weight.coeffs, start=1):
            peak -= np.longdouble(self.m) * np.longdouble(c) * np.exp(k * mode)
        return (peak + np.log(h * sums)).astype(float)


_RULE_WEIGHTS = ["ginibre", "power:p=2", "power:p=3", "radialpoly:c=1,0.5",
                 "radialpoly:c=0.5,0,0.25"]


@pytest.mark.parametrize("text", _RULE_WEIGHTS)
def test_moment_rule_matches_reference_bits(text):
    # the compacted solve on the nonzero terms takes the reference's steps
    # bit for bit, and so does the moment grid built by repetition
    w = pk.parse_weight(text)
    p = np.arange(161)
    for m in (1.0, 40.0, 160.0, 1e4):
        rule, ref = MomentRule(w, m, p), _ReferenceRule(w, m, p)
        for name in ("mode", "width", "peak_weight", "terms"):
            assert np.array_equal(getattr(rule, name), getattr(ref, name)), (m, name)
        assert np.array_equal(_table(w, m, 160), ref.log_moments(rule)), m


def test_ginibre_moment_examples():
    assert _table(GINIBRE, 1.0, 3)[3] == pytest.approx(
        math.log(6.0), abs=1e-13)
    assert _table(GINIBRE, 50.0, 0)[0] == pytest.approx(
        math.log(1.0 / 50.0), abs=1e-13)


def test_ginibre_moments_closed_form_sweep():
    # log M_p = lgamma(p+1) - (p+1) log m, for p <= 200 and m in {1, 50, 200}
    for m in (1.0, 50.0, 200.0):
        for p in range(0, 201, 10):
            got = _table(GINIBRE, m, p)[p]
            expect = float(gammaln(p + 1) - (p + 1) * math.log(m))
            assert abs(got - expect) < 1e-12, (m, p)


@pytest.mark.parametrize("text, k", [("ginibre", 1), ("power:p=2", 2), ("power:p=3", 3)])
def test_moment_table_closed_forms(text, k):
    # Q = |z|^(2k): M_p = Gamma((p+1)/k) / (k m^((p+1)/k)), for every p <= 400
    w = pk.parse_weight(text)
    p = np.arange(401)
    for m in (1.0, 50.0, 200.0):
        expect = gammaln((p + 1) / k) - math.log(k) - (p + 1) / k * math.log(m)
        err = np.abs(_table(w, m, 400) - expect)
        assert np.max(err) < 1e-12, (m, int(np.argmax(err)))


@pytest.mark.parametrize("text", ["ginibre", "power:p=3", "radialpoly:c=1,0.5"])
def test_single_moment_matches_table_bits(text):
    # every moment has its own rule, so it does not depend on the table's size
    w = pk.parse_weight(text)
    for m in (1.0, 37.0):
        table = _table(w, m, 300)
        for p in (0, 1, 2, 17, 150, 299, 300):
            assert _table(w, m, p)[p] == table[p], (m, p)
        assert np.array_equal(_table(w, m, 40), table[:41])


def test_ginibre_moment_ratio():
    for p in (0, 3, 17):
        a = _table(GINIBRE, 7.0, p)[p]
        b = _table(GINIBRE, 7.0, p + 1)[p + 1]
        assert math.exp(b - a) == pytest.approx((p + 1) / 7.0, rel=1e-12)


def test_power2_moment_vs_trapezoid_oracle():
    got = _table(POWER2, 10.0, 0)[0]
    oracle = _trapezoid_moment_oracle(POWER2, 10.0, 0)
    assert got == pytest.approx(oracle, abs=5e-9)
    # closed form for this case: M_0 = Gamma(3/2)/(2 ...) via u = r^4:
    # 2 int r e^{-10 r^4} dr = (1/2) 10^{-1/2} Gamma(1/2) = sqrt(pi/10)/2
    assert got == pytest.approx(math.log(math.sqrt(math.pi / 10.0) / 2.0), abs=1e-13)


def test_radialpoly_moment_vs_trapezoid_oracle():
    w = pk.parse_weight("radialpoly:c=1,0.5")
    for m, p in ((5.0, 0), (20.0, 7)):
        got = _table(w, m, p)[p]
        assert got == pytest.approx(_trapezoid_moment_oracle(w, m, p), abs=5e-9)


def test_moment_log_convexity():
    logs = _table(POWER2, 30.0, 60)
    inc = np.diff(logs)
    assert np.all(np.diff(inc) > -1e-12)


def test_moment_guards():
    with pytest.raises(ConfigurationError):
        _table(GINIBRE, 0.0, 1)
    with pytest.raises(ConfigurationError, match="p >= 0"):
        MomentRule(GINIBRE, 1.0, [-1])


@pytest.mark.parametrize("text", ["ginibre", "radialpoly:c=1,0.5"])
def test_sparse_exponents_match_the_full_table(text):
    # the convexity check reads slopes between the given exponents; before,
    # it read second differences as if they were 0..P, and [0, 2, 4, 5]
    # raised "log-moment convexity violated near p=4"
    w = pk.parse_weight(text)
    p = [0, 2, 4, 5]
    assert np.array_equal(MomentRule(w, 1.0, p).log_moments(), _table(w, 1.0, 5)[p])


@pytest.mark.parametrize("p", [[0, 10, 1], [3, 3]], ids=["unordered", "repeated"])
def test_moment_exponents_must_increase(p):
    with pytest.raises(ConfigurationError,
                       match=r"exponents p must be strictly increasing, got \[" + str(p[0])):
        MomentRule(GINIBRE, 1.0, p)


def test_polar_grid_gaussian():
    val = pk.integrate_polar_grid(lambda z: np.exp(-np.abs(z) ** 2), 10.0, 200, 32)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_polar_grid_smooth_indicator():
    # smooth unit-disk indicator: the analytic radial limit is
    # 2 int r e^{-r^40} dr = Gamma(1 + 1/20) = 0.97350..., close to 1
    from scipy.special import gamma

    val = pk.integrate_polar_grid(lambda z: np.exp(-np.abs(z) ** 40), 3.0, 400, 32)
    assert val == pytest.approx(float(gamma(1.05)), abs=1e-10)
    assert val == pytest.approx(1.0, abs=3e-2)


def test_polar_grid_zero():
    assert pk.integrate_polar_grid(lambda z: np.zeros_like(z, dtype=float), 2.0, 32, 32) == 0.0


def test_polar_grid_refinement_convergence():
    f = lambda z: np.exp(-np.abs(z) ** 2) * (1.0 + np.real(z) ** 2)
    coarse = pk.integrate_polar_grid(f, 8.0, 128, 32)
    fine = pk.integrate_polar_grid(f, 8.0, 256, 64)
    assert abs(coarse - fine) < 1e-8


def test_polar_grid_guards():
    with pytest.raises(ConfigurationError):
        pk.integrate_polar_grid(lambda z: z, -1.0, 32, 32)
    with pytest.raises(ConfigurationError):
        pk.integrate_polar_grid(lambda z: z, 1.0, 8, 32)
    for r_max in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="r_max"):
            pk.integrate_polar_grid(lambda z: z, r_max, 32, 32)
    # before, True integrated over the unit disk
    with pytest.raises(ConfigurationError, match="r_max must be a real number"):
        pk.integrate_polar_grid(lambda z: z, True, 32, 32)
    for n_r, n_phi, name in ((20.5, 32, "n_r"), (True, 32, "n_r"), (32, 8, "n_phi"),
                             (32, 20.5, "n_phi")):
        with pytest.raises(ConfigurationError, match=name):
            pk.integrate_polar_grid(lambda z: z, 1.0, n_r, n_phi)


@pytest.mark.parametrize("n", [16, 160, 400, 1000, 1600])
def test_gauss_legendre_is_exact_on_even_powers(n):
    # an n-point rule integrates x^(2j) exactly for 2j < 2n; the nodes near
    # +-1 carry the high powers, so only their rounding is left.  numpy's
    # leggauss misses x^2 alone by 1.5e-13 at n = 1000.
    x, v = gauss_legendre(n)
    assert not x.flags.writeable and not v.flags.writeable
    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(v, v[::-1])
    worst = max(abs(math.fsum(v * x ** (2 * j)) - 2.0 / (2 * j + 1)) for j in range(n))
    assert worst <= 4 * np.finfo(float).eps


def test_a_mode_search_that_does_not_converge_is_refused(monkeypatch):
    # no catalog weight in double range needs MODE_STEPS Newton steps, so a
    # small cap stands in: at m = 1e40 the modes of Q = t - 0.3 t^2 + 0.05 t^3
    # take about 110 steps
    monkeypatch.setattr(quadrature, "MODE_STEPS", NEWTON_STEPS)
    with pytest.raises(NumericalDegeneracyError,
                       match=r"^moment mode search did not converge \(weight radialpoly:c=1,"):
        MomentRule(pk.parse_weight("radialpoly:c=1,-0.3,0.05"), 1e40, np.arange(40))


@pytest.mark.parametrize("text", ["radialpoly:c=1,-0.3,0.05", "radialpoly:c=1,0.5"])
@pytest.mark.parametrize("m", [1e36, 1e48, 1e100, 1e300])
def test_multi_term_moments_at_large_m_closed_form(text, m):
    # at large m the moments see Q near 0 only, where Q = t + O(t^2):
    # M_p = p! / m^(p+1) to O(p/m).  The mode solve creeps from the leading
    # term's root for hundreds of steps, and was refused past NEWTON_STEPS
    p = np.arange(40)
    expect = gammaln(p + 1) - (p + 1) * math.log(m)
    logs = MomentRule(pk.parse_weight(text), m, p).log_moments()
    assert np.max(np.abs(logs - expect) / np.abs(expect)) <= 1e-14


@pytest.mark.parametrize("weight, m, match", [
    ("radialpoly:c=1e300", 1e20, r"^degenerate radial moment p=0, m=1e\+20 "),
    ("radialpoly:c=1e-300", 1e-20, r"^moment mode search found no lower bracket "),
    ("radialpoly:c=1e300", 1e10, r"^degenerate radial moment p=0, m=10000000000.0 "),
], ids=["degenerate-moment", "no-lower-bracket", "degenerate-moment-1e10"])
def test_moment_rules_past_double_range_are_refused(weight, m, match):
    # m c past double range: the mode search overflows first, silently, and
    # the refusal names the cause; before, RuntimeWarnings preceded it
    with pytest.raises(NumericalDegeneracyError, match=match):
        MomentRule(pk.parse_weight(weight), m, np.arange(1)).log_moments()


@pytest.mark.parametrize("K, m", [(8, 10.0), (12, 10.0), (16, 10.0), (24, 10.0),
                                  (40, 10.0), (40, 1e-300)])
def test_steep_weight_moments_closed_form(K, m):
    # Q = |z|^(2K): M_p = Gamma((p+1)/K) / (K m^((p+1)/K)).  exp(f_p) is analytic
    # in |Im u| < pi/(2K) only, so a step of RULE_STEP sigma_p missed by 1.8e-11
    # at K = 12 and 1.5e-7 at K = 40; m = 1e-300 overflowed the mode search
    # with RuntimeWarnings before it returned
    p = np.arange(11)
    expect = gammaln((p + 1) / K) - math.log(K) - (p + 1) / K * math.log(m)
    assert np.max(np.abs(_table(pk.WeightModel.power(K), m, 10) - expect)) <= 1e-13


@pytest.mark.parametrize("text", ["ginibre", "power:p=2", "power:p=3", "power:p=4",
                                  "radialpoly:c=0.5,0,0.25", "power:p=8"])
def test_rule_step_shrinks_only_for_steep_weights(text):
    # the step is RULE_STEP sigma_p exactly wherever K <= 4(p+1), so every
    # weight of degree <= 4 keeps its rules bit for bit
    w = pk.parse_weight(text)
    rule = MomentRule(w, 40.0, np.arange(60))
    flat = 4 * (rule.p + 1) >= w.degree
    assert np.array_equal(rule.step[flat], RULE_STEP * rule.width[flat])
    assert np.all(rule.step[~flat] < RULE_STEP * rule.width[~flat])
    assert flat.all() == (w.degree <= 4)
