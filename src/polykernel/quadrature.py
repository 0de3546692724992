"""Log-domain radial moments on one trapezoid rule, and the package's radial rule.

The Gram matrices of the polynomial spaces are assembled from the radial
moments

    M_p = int |z|^(2p) e^(-m Q(z)) dA(z) = int exp(f_p(u)) du,
    f_p(u) = (p + 1) u - m sum_k c_k e^(k u),     u = log |z|^2,

whose dynamic range for m, p up to a few hundred far exceeds double range, so
every moment is carried as a natural log.  In u the integrand is smooth and
unimodal; it decays like e^((p+1) u) on the left and doubly exponentially on
the right, so the trapezoid rule converges exponentially in the step
(Trefethen and Weideman, SIAM Review 56 (2014)).  The rule of M_p has nodes
u*_p + j h_p around the mode u*_p, the root of m sum_k k c_k e^(k u) = p + 1,
found for every p at once by Newton steps kept in a bracket.  For a weight of
one term (ginibre, power) the closed-form first guess is already the root, so
the first step lands on the bracket's edge and each row bisects a unit bracket
for about 45 steps.  That solve is kept step for step, because the q = 2
ladders' digits and the ginibre decay stability (bound 1e-15) sit at one or
two ulps, and an exact root moves them.  The step (MomentRule.step, which the
Gram recurrences' grids read too) is RULE_STEP sigma_p min(1, 2 sqrt((p+1)/K)),
where sigma_p = (m sum_k k^2 c_k e^(k u*_p))^(-1/2) is the width of the peak
and K the weight's degree.  The integrand is analytic only in the strip
|Im u| < pi / (2K), so at a step of RULE_STEP sigma_p the rule's error is
about exp(-8 pi^2 sqrt((p+1)/K)); the factor holds it near exp(-4 pi^2), and
it is 1 wherever K <= 4(p+1).  The rule reaches RIGHT_TAIL sigma_p to the
right, and to the left at least as far and until the integrand has fallen by
e^(-LEFT_TAIL) (a bound from Q >= 0 places that point).  Each p has its own
nodes, so a moment does not depend on which other moments are computed with
it.  An integrand still above TAIL_BOUND of its peak at either end of its rule
raises NumericalDegeneracyError, and so does a table of log M_p that is not
log-convex: MomentRule.log_moments is the one path to a table, for a direct
build and for every re-based ladder rung alike.  Integrands are evaluated
relative to the peak as (p+1) x - sum_k a_k expm1(k x), with x = u - u*_p
and a_k = m c_k e^(k u*_p), so no large logs cancel.

Every other radial integral of the package (the trace of a kernel, which is
also the sampler's mass check, and its reproducing residual, on the one disk
and node count of KernelEvaluator._radial_rule; the binned intensities of the
sampler's validation, and integrate_polar_grid) is one Gauss-Legendre rule:
gauss_legendre(n), computed once per n, mapped to its interval by
gauss_legendre_on.  Every node count a caller may choose, like
integrate_polar_grid's n_r and n_phi, passes the package's one integer check,
errors.require_integer.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError, NumericalDegeneracyError, require_integer, require_positive

RULE_STEP = 1.0 / 8.0   # trapezoid step, in units of the peak width sigma_p
RIGHT_TAIL = 12.0       # reach of a rule beyond its mode, in units of sigma_p
LEFT_TAIL = 40.0        # least log-drop of the integrand at the left end
TAIL_BOUND = 1e-15      # largest integrand at either end, relative to the peak
NEWTON_STEPS = 100      # doubling moves of a bracket search
# Newton steps of a mode solve (see _solve_modes).  A creep of 1/k0 a step
# from the leading term's root, |log((p+1) / (K m c_K))| / K, to the lowest
# term's, |log((p+1) / (k0 m c_k0))| / k0, takes at most the sum of the two
# logs, under 2 * 760 while every m c_k is in double range.  Weights of up to
# 40 terms at m = 1e-300 ... 1e300 took at most 767 slope evaluations
# (radialpoly:c=1e300,0,...,0,1e-300 at m = 1).
MODE_STEPS = 2000
MIN_NODES = 16          # least Gauss-Legendre node count a caller may choose
SUM_NODES = 1 << 13     # about the most nodes _log_sums evaluates at once: 64 KB arrays


class MomentRule:
    """Peaks of the log integrands f_p for the exponents p, and their rules.

    ``mode`` holds u*_p, ``width`` sigma_p, ``step`` the trapezoid step h_p
    and ``terms`` the (p, k) array of a_k = m c_k e^(k u*_p).  Only the terms
    with c_k != 0 are ever summed: adding a zero term is exact, so skipping it
    changes no finite value.
    """

    def __init__(self, w: WeightModel, m: float, p):
        require_positive(m, "m")
        self.p = np.atleast_1d(np.asarray(p))
        if self.p.size and self.p.min() < 0:
            raise ConfigurationError(f"radial moment needs p >= 0, got {self.p.min()}")
        if np.any(np.diff(self.p) <= 0):
            raise ConfigurationError("radial moment exponents p must be strictly "
                                     f"increasing, got {self.p.tolist()}")
        self.weight, self.m = w, m
        # (k, m c_k) of the nonzero terms
        self._mc = [(k, m * c) for k, c in enumerate(w.coeffs, start=1) if c != 0.0]
        # m c_k or e^(k u) past double range gives inf or NaN: a Newton step that
        # is not finite fails the bracket test and bisects, a bracket search
        # that runs off to inf raises "found no ... bracket", and log_moments'
        # finiteness check ("degenerate radial moment") refuses a mode, term or
        # width left inf or NaN
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self.mode = self._solve_modes()
            self.terms = np.zeros((self.p.size, w.degree))
            self.peak_weight = np.zeros(self.p.size)  # m Q at the mode, sum_k a_k
            for k, mc in self._mc:
                self.terms[:, k - 1] = mc * np.exp(k * self.mode)
                self.peak_weight += self.terms[:, k - 1]
            self.width = 1.0 / np.sqrt(self._slopes(self.mode)[1])
        # exp(f_p) is analytic in the strip |Im u| < pi / (2K) only, so a steep
        # weight shrinks the step below RULE_STEP sigma_p
        self.step = self.width * (RULE_STEP * np.minimum(
            1.0, 2.0 * np.sqrt((self.p + 1.0) / w.degree)))

    def _slopes(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_k k a_k(u) and sum_k k^2 a_k(u), a_k(u) = m c_k e^(k u), i.e.
        (p+1) - f_p'(u) and -f_p''(u).

        Summed term by term, so a point does not depend on the other points.
        """
        s1 = np.zeros(u.shape)
        s2 = np.zeros(u.shape)
        for k, mc in self._mc:
            a = mc * np.exp(k * u)
            s1 += k * a
            s2 += k * k * a
        return s1, s2

    def _solve_modes(self) -> np.ndarray:
        """Roots of sum_k k a_k(u) = p + 1 by Newton steps kept in a bracket.

        The left side is increasing in u (its derivative is m t dQ(t) > 0).
        A step that leaves the bracket is replaced by the bracket's midpoint.
        Each root stops at its own convergence, independently of the others,
        and only the unconverged rows are carried from step to step.  For a
        weight of one term the closed-form guess is already the root, so the
        first step lands on the bracket's edge and the solve bisects a unit
        bracket, about 45 steps a row.  It is kept step for step:
        test_decay_ladder_stability_ginibre_q2 and the ladders' digits depend
        on its last bits.  For several terms at large m the guess, the
        leading term's root, lies far right of the root, where the lowest
        term k0 dominates; there each Newton step moves about 1/k0, so the
        solve may take hundreds of steps, within MODE_STEPS.
        """
        target = self.p + 1.0
        lead = self.weight.degree
        guess = np.log(target / (self.m * lead * self.weight.coeffs[-1])) / lead

        def bracket(u, move, what):
            """Step u by doubling moves until move * excess(u) >= 0."""
            step = np.ones(u.shape)
            for _ in range(NEWTON_STEPS):
                out = move * (self._slopes(u)[0] - target) < 0.0
                if not out.any():
                    return u
                u = np.where(out, u + move * step, u)
                step = np.where(out, 2.0 * step, step)
            raise NumericalDegeneracyError(
                f"moment mode search found no {what} bracket "
                f"(weight {self.weight.label}, m={self.m})")

        hi = bracket(guess, 1.0, "upper")
        lo = bracket(hi - 1.0, -1.0, "lower")
        u = hi.copy()
        # the unconverged rows: their indices, points, brackets and targets
        rows, ua, goal = np.arange(u.size), hi, target
        for _ in range(MODE_STEPS):
            if not rows.size:
                return u
            s1, s2 = self._slopes(ua)
            f = s1 - goal
            lo = np.where(f < 0.0, ua, lo)
            hi = np.where(f > 0.0, ua, hi)
            new = ua - f / s2
            new = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
            moving = np.abs(new - ua) > 1e-13 * np.maximum(1.0, np.abs(ua))
            if moving.all():
                ua = new
                continue
            u[rows[~moving]] = new[~moving]
            rows, ua, lo, hi, goal = (rows[moving], new[moving], lo[moving],
                                      hi[moving], goal[moving])
        raise NumericalDegeneracyError(
            f"moment mode search did not converge (weight {self.weight.label}, "
            f"m={self.m})")

    def reach(self, rows, left_tail: float = LEFT_TAIL) -> tuple[np.ndarray, np.ndarray]:
        """Ends in u of the rules of ``rows``.

        Q is nonnegative and increasing, so f_p(u* - x) - f_p(u*) is at most
        m Q(t*) - (p+1) x: the left end lies where the integrand has fallen
        by at least e^(-left_tail).
        """
        p, mode, width = self.p[rows], self.mode[rows], self.width[rows]
        left = (left_tail + self.peak_weight[rows]) / (p + 1.0)
        return mode - np.maximum(RIGHT_TAIL * width, left), mode + RIGHT_TAIL * width

    def log_integrand(self, rows, u: np.ndarray) -> np.ndarray:
        """f_p(u) - f_p(u*_p) for the rule rows ``rows`` (broadcast against u)."""
        return self._relative(u - self.mode[rows], self.p[rows] + 1.0,
                              [self.terms[rows, k - 1] for k, _ in self._mc])

    def _relative(self, x: np.ndarray, slope: np.ndarray, a: list) -> np.ndarray:
        """(p+1) x - sum_k a_k expm1(k x), which is f_p(u*_p + x) - f_p(u*_p).

        ``slope`` holds p + 1 and ``a`` the a_k of the nonzero terms, in the
        order of ``_mc``, each broadcast against x.
        """
        out = slope * x
        for (k, _), ak in zip(self._mc, a):
            out -= ak * np.expm1(k * x)
        return out

    @functools.cached_property
    def _log_sums(self) -> np.ndarray:
        """log(h_p sum_j e^(f_p(u_j) - f_p(u*_p))) of every row: the trapezoid
        part of log M_p, computed once per rule.

        The rules are evaluated in groups, the rules whose first node falls in
        one block of SUM_NODES nodes of all the rules' nodes in order, so that
        the node arrays stay small; each rule is still summed on its own nodes
        alone."""
        h = self.step
        left, right = self.reach(slice(None))
        below = np.ceil((self.mode - left) / h).astype(int)
        above = np.ceil((right - self.mode) / h).astype(int)
        count = below + above + 1
        offset = np.concatenate([[0], np.cumsum(count)])
        cuts = [0, *(np.flatnonzero(np.diff(offset[:-1] // SUM_NODES)) + 1).tolist(),
                count.size]
        sums, ends = np.empty(count.size), np.empty(count.size)
        for first, last in zip(cuts[:-1], cuts[1:]):
            rows = slice(first, last)
            starts = offset[rows] - offset[first]
            cnt = count[rows]
            # every rule's value per node, repeated over the rule's nodes
            j = np.arange(cnt.sum()) - np.repeat(starts + below[rows], cnt)
            mode = np.repeat(self.mode[rows], cnt)
            u = mode + j * np.repeat(h[rows], cnt)
            vals = np.exp(self._relative(u - mode, np.repeat(self.p[rows] + 1.0, cnt),
                                         [np.repeat(self.terms[rows, k - 1], cnt)
                                          for k, _ in self._mc]))
            sums[rows] = np.add.reduceat(vals, starts)
            ends[rows] = np.maximum(vals[starts], vals[starts + cnt - 1])
        if np.any(ends > TAIL_BOUND):
            bad = int(np.argmax(ends))
            raise NumericalDegeneracyError(
                f"moment rule p={self.p[bad]}, m={self.m} ends at {ends[bad]:.1e} of its "
                f"peak (weight {self.weight.label})")
        return np.log(h * sums)

    def log_moments(self, shift=0) -> np.ndarray:
        """log M_p of every row, each by its own trapezoid rule, checked for
        log-convexity.

        Moment sequences are log-convex (Cauchy-Schwarz), so the slopes of
        log M_p between consecutive exponents, which increase strictly, must be
        nondecreasing (on 0..P, the increments); a violation indicates a
        quadrature failure and aborts Gram assembly.

        For a weight of one term c t^K, f_p at m' = m e^(-K shift) is f_p at m
        moved right by ``shift``, plus (p+1) shift: the modes move by shift
        and every rule keeps its shape.  So a long double shift gives the
        log M_p at m' from this rule: its peak (p+1)(u*_p + shift) - m c e^(K u*_p)
        plus this rule's trapezoid part.  Re-basing the rounded log M_p instead
        would carry their rounding, about 1.4e-14 near -167, into every m'.
        """
        # f_p(u*) is a difference of terms up to ~(p+1) |u*|; summed in extended
        # precision, log M_p is rounded once.  A mode, width or sum that is not
        # finite, or a sum that underflows to 0, leaves a log M_p that is not
        # finite, and the finiteness check below refuses it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mode = self.mode.astype(np.longdouble)
            peak = (self.p + 1) * (mode + shift)
            for k, _ in self._mc:
                c = np.longdouble(self.weight.coeffs[k - 1])
                peak -= np.longdouble(self.m) * c * np.exp(k * mode)
            logs = (peak + self._log_sums).astype(float)
        if not np.all(np.isfinite(logs)):
            bad = int(self.p[np.argmin(np.isfinite(logs))])
            raise NumericalDegeneracyError(
                f"degenerate radial moment p={bad}, m={self.m} "
                f"(weight {self.weight.label})")
        curve = np.diff(np.diff(logs) / np.diff(self.p))
        if np.any(curve < -1e-10):
            bad = int(self.p[np.argmin(curve) + 1])
            raise NumericalDegeneracyError(
                f"log-moment convexity violated near p={bad} "
                f"(weight {self.weight.label}, m={self.m}); aborting Gram assembly")
        return logs


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}."""
    p, prev = np.ones_like(x), np.zeros_like(x)
    for j in range(n):
        p, prev = ((2 * j + 1) * x * p - j * prev) / (j + 1), p
    return p, n * (prev - x * p) / (1.0 - x * x)


@functools.lru_cache(maxsize=16)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    Four Newton steps on P_n from the ascending guesses
    x_k = -cos(pi (4k - 1) / (4n + 2)) reach every node to rounding (checked
    up to n = 1600); the weights are 2 / ((1 - x^2) P_n'(x)^2) at the
    converged nodes.
    """
    k = np.arange(1, n + 1)
    x = -np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(4):
        p, dp = _legendre(n, x)
        x = x - p / dp
    dp = _legendre(n, x)[1]
    v = 2.0 / ((1.0 - x * x) * dp * dp)
    x, v = 0.5 * (x - x[::-1]), 0.5 * (v + v[::-1])  # exact symmetry
    x.flags.writeable = False
    v.flags.writeable = False
    return x, v


def gauss_legendre_on(n: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``gauss_legendre(n)`` mapped to [a, b].

    a and b may be arrays; the n nodes of each interval run along a new last
    axis.  The nodes are h (x + 1) + a and the weights h v, with h = (b - a) / 2.
    """
    x, v = gauss_legendre(n)
    half = 0.5 * (np.asarray(b, dtype=float) - a)[..., None]
    return half * (x + 1.0) + np.asarray(a, dtype=float)[..., None], half * v


def integrate_polar_grid(f, r_max: float, n_r: int, n_phi: int) -> float:
    """Integral of f over the plane in the normalized area measure.

    Gauss-Legendre radii on [0, r_max], uniform angles (the trapezoid rule is
    spectrally accurate for smooth periodic integrands).  ``f`` must accept a
    complex ndarray.  Truncation beyond r_max is the caller's concern.
    """
    require_positive(r_max, "r_max")
    n_r = require_integer(n_r, "n_r", MIN_NODES)
    n_phi = require_integer(n_phi, "n_phi", MIN_NODES)
    r, wr = gauss_legendre_on(n_r, 0.0, r_max)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    z = r[:, None] * np.exp(1j * phi[None, :])
    vals = np.asarray(f(z))
    return float(np.real(np.sum((wr * r)[:, None] * vals)) * 2.0 / n_phi)
