"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every tolerance is pinned here.  Two criteria compare against closed-form
sums whose floating-point condition number can exceed the double-precision
information content at adversarial argument pairs (phase-cancelling sums);
at such pairs NO double implementation can meet a plain relative tolerance,
including the oracle compared against a re-rounded copy of itself.  Those
comparisons therefore enforce the stated relative tolerance wherever the
sum is resolvable and a noise-floor bound (difference divided by the sum of
term magnitudes, resp. the Cauchy-Schwarz ceiling) everywhere else.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

import polykernel as pk
from polykernel.asymptotics import blowup_grid, bulk_limit_profile

from conftest import disk_points

_RNG_SEED = 20260810


def _check(num: int, description: str, ok: bool, detail: str, elapsed: float,
           budget: float) -> None:
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {description} "
          f"[{detail}; {elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {description} ({detail})"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_ginibre_q1_oracle(spaces):
    t0 = time.monotonic()
    rng = np.random.default_rng(_RNG_SEED)
    worst_rel = 0.0
    worst_floor = 0.0
    min_resolvable = 1.0
    for m in (1.0, 20.0, 100.0):
        n = int(m)
        K = spaces("ginibre", 1, n, m)
        z = disk_points(rng, 200, 1.5)
        v = disk_points(rng, 200, 1.5)
        u = z * np.conj(v)
        oracle = np.zeros_like(u)
        term = np.ones_like(u)
        for j in range(n):
            if j:
                term = term * (m * u) / j
            oracle = oracle + term
        oracle *= m
        got = K.kernel(z, v)
        j = np.arange(n)
        with np.errstate(divide="ignore"):
            logs = ((j[None, :] + 1) * math.log(m) - gammaln(j[None, :] + 1)
                    + j[None, :] * np.log(np.abs(u))[:, None])
        top = logs.max(axis=1)
        noise_scale = np.exp(top) * np.sum(np.exp(logs - top[:, None]), axis=1)
        cond = noise_scale / np.abs(oracle)
        resolvable = cond <= 1e4
        min_resolvable = min(min_resolvable, resolvable.mean())
        rel = np.abs(got - oracle) / np.abs(oracle)
        worst_rel = max(worst_rel, float(rel[resolvable].max()))
        worst_floor = max(worst_floor, float((np.abs(got - oracle) / noise_scale).max()))
    ok = worst_rel < 1e-10 and worst_floor < 1e-10 and min_resolvable > 0.5
    _check(1, "analytic-family closed-form kernel oracle, m in {1,20,100}", ok,
           f"worst rel {worst_rel:.2e} (tol 1e-10), noise-floor ratio "
           f"{worst_floor:.2e}, resolvable share >= {min_resolvable:.2f}",
           time.monotonic() - t0, 10.0)


def test_criterion_2_bianalytic_fock_collapse(spaces):
    t0 = time.monotonic()
    rng = np.random.default_rng(_RNG_SEED + 1)
    worst_rel = 0.0
    worst_floor = 0.0
    for m in (10.0, 30.0, 50.0):
        n = int(math.ceil(m + 12.0 * math.sqrt(m) + 40.0))  # r_eff = 1
        K = spaces("ginibre", 2, n, m)
        z = disk_points(rng, 200, 1.0)
        v = disk_points(rng, 200, 1.0)
        s2 = np.abs(z - v) ** 2
        lag = np.abs(pk.laguerre_assoc1(1, m * s2))
        target = m * lag * np.exp(-0.5 * m * s2)
        got = np.abs(K.weighted_kernel(z, v))
        ceiling = np.sqrt(K.one_point_intensity(z) * K.one_point_intensity(v))
        keep = (lag > 2e-3) & (target / ceiling > 1e-6)
        worst_rel = max(worst_rel, float(
            (np.abs(got - target)[keep] / target[keep]).max()))
        worst_floor = max(worst_floor, float((np.abs(got - target) / ceiling).max()))
    ok = worst_rel < 1e-8 and worst_floor < 1e-12
    _check(2, "bianalytic full-plane collapse of the weighted kernel, m <= 50", ok,
           f"worst rel {worst_rel:.2e} (tol 1e-8), ceiling-floor {worst_floor:.2e}",
           time.monotonic() - t0, 30.0)


def test_criterion_3_bulk_blowup_rate():
    t0 = time.monotonic()
    weight = pk.parse_weight("power:p=2")
    z0 = 0.6 * pk.droplet_radius(weight)
    ms = [40.0, 80.0, 160.0]
    report = pk.blowup_ladder(weight, 2, z0, ms, grid_radius=2.0, grid_n=17)
    ok = report.fields["slope"] <= -0.4
    _check(3, "bulk blow-up error decays with log-log slope <= -0.4", ok,
           f"slope {report.fields['slope']:.3f}, sup errors "
           + "/".join(f"{e:.3f}" for e in report.fields["sup_error"]),
           time.monotonic() - t0, 300.0)


def test_criterion_4_bulk_berezin_profile(spaces):
    t0 = time.monotonic()
    m = 60.0
    z0 = 0.3
    radii = np.linspace(0.0, 3.0, 61)
    angles = np.exp(2j * np.pi * np.arange(16) / 16)
    worst = 0.0
    ring_locations = []
    for q in (2, 3):
        K = spaces("ginibre", q, 60, m)
        xi = radii[:, None] * angles[None, :]
        dens = K.berezin_density(z0, z0 + xi / math.sqrt(m)) / m
        target = (pk.laguerre_assoc1(q - 1, radii**2) ** 2
                  * np.exp(-(radii**2)) / q)
        worst = max(worst, float(np.abs(dens - target[:, None]).max()))
        if q == 3:
            profile = dens.mean(axis=1)
            ring_locations = [
                radii[i] for i in range(1, radii.size - 1)
                if profile[i] < profile[i - 1] and profile[i] < profile[i + 1]
                and 0.4 < radii[i] < 2.9]
    targets = (math.sqrt(3.0 - math.sqrt(3.0)), math.sqrt(3.0 + math.sqrt(3.0)))
    rings_ok = (len(ring_locations) >= 2
                and any(abs(x - targets[0]) <= 0.2 for x in ring_locations)
                and any(abs(x - targets[1]) <= 0.2 for x in ring_locations))
    ok = worst < 0.15 and rings_ok
    _check(4, "rescaled bulk density matches the Laguerre profile, q in {2,3}", ok,
           f"max abs error {worst:.4f} (tol 0.15), ring minima "
           + ",".join(f"{x:.3f}" for x in ring_locations),
           time.monotonic() - t0, 120.0)


def test_criterion_5_offdiagonal_decay():
    t0 = time.monotonic()
    ms = [40.0, 80.0, 160.0]
    details = []
    ok = True
    for wtext, z0 in (("ginibre", 0.0),
                      ("power:p=2", 0.6 * pk.droplet_radius(pk.parse_weight("power:p=2")))):
        report = pk.decay_ladder(pk.parse_weight(wtext), 2, z0, ms)
        ratios = [s.beta_over_sqrt_m for s in report.rungs]
        ok = ok and all(r < 0.0 for r in ratios) and report.fields["stability"] < 0.30
        details.append(f"{wtext}: beta/sqrt(m) "
                       + "/".join(f"{r:.2f}" for r in ratios)
                       + f", spread {report.fields['stability'] * 100:.0f}%")
    _check(5, "off-diagonal decay rate negative and stable across the ladder", ok,
           "; ".join(details), time.monotonic() - t0, 300.0)


def test_criterion_6_outside_droplet_decay(spaces):
    t0 = time.monotonic()
    ratios = np.linspace(1.1, 2.0, 10)
    margins = {}
    for m in (20, 40, 80):
        K = spaces("ginibre", 2, m, float(m))
        radii = ratios * K.equilibrium.droplet_radius
        margins[m] = pk.offdroplet_margins(K, 1.0, radii)
    calibration = float(margins[20].max())
    bound = calibration + 0.1 * abs(calibration)
    worst = max(float(margins[m].max()) for m in (40, 80))
    ok = worst <= bound
    _check(6, "outside-droplet intensity margins bounded by the m=20 calibration",
           ok, f"calibration {calibration:.3f}, bound {bound:.3f}, worst {worst:.3f}",
           time.monotonic() - t0, 60.0)


def test_criterion_7_structural_invariants(spaces):
    t0 = time.monotonic()
    rng = np.random.default_rng(_RNG_SEED + 7)
    failures = []
    for wtext in ("ginibre", "power:p=2"):
        for q in (1, 2):
            for nm in (20, 40):
                K = spaces(wtext, q, nm, float(nm))
                label = f"{wtext} q={q} n=m={nm}"
                R = K.equilibrium.droplet_radius
                z = disk_points(rng, 200, 1.2 * R)
                v = disk_points(rng, 200, 1.2 * R)
                a = K.weighted_kernel(z, v)
                b = K.weighted_kernel(v, z)
                herm = np.max(np.abs(a - np.conj(b)) / np.maximum(np.abs(a), 1e-300))
                if herm > 1e-12:
                    failures.append(f"{label}: hermitian {herm:.1e}")
                if not np.all(K.one_point_intensity(z) > 0.0):
                    failures.append(f"{label}: diagonal positivity")
                trace = K.total_intensity()
                if abs(trace - q * nm) > 1e-8:
                    failures.append(f"{label}: trace {trace - q * nm:.1e}")
                center = 0.25 * R + 0.1j * R
                mass = pk.integrate_polar_grid(
                    lambda zz: K.berezin_density(center, zz),
                    R + 12.0 / math.sqrt(nm), 320, 64)
                if abs(mass - 1.0) > 1e-6:
                    failures.append(f"{label}: berezin mass {mass - 1.0:.1e}")
                residual = K.reproducing_residual(center)
                if residual > 1e-7:
                    failures.append(f"{label}: reproducing {residual:.1e}")
                psd_min = min(K.k_point_intensity(disk_points(rng, 3, R))
                              for _ in range(100))
                if psd_min < 0.0:
                    failures.append(f"{label}: k-point PSD {psd_min:.1e}")
                if q == 2 and pk.diagonal_bound_check(K) >= 1.0:
                    failures.append(f"{label}: diagonal bound")
    ok = not failures
    _check(7, "structural invariant suite on the weight/order/size matrix", ok,
           "all clean" if ok else "; ".join(failures),
           time.monotonic() - t0, 120.0)


def test_criterion_8_sampler_statistics(spaces):
    t0 = time.monotonic()
    K = spaces("ginibre", 2, 20, 20.0)
    samples = pk.sample_batch(K, 500, 20202)
    counts_ok = all(cfg.points.size == 40 for cfg in samples)
    comparison = pk.empirical_intensity(K, samples, np.linspace(0.0, 1.3, 9))
    ok = counts_ok and comparison.max_standardized < 4.0
    _check(8, "sampler point counts exact and radial intensity within 4 sigma",
           ok, f"max standardized deviation {comparison.max_standardized:.2f}",
           time.monotonic() - t0, 180.0)


def test_criterion_9_equilibrium(spaces):
    t0 = time.monotonic()
    r_gin = abs(pk.droplet_radius(pk.parse_weight("ginibre")) - 1.0)
    r_pow = abs(pk.droplet_radius(pk.parse_weight("power:p=2")) - 2.0 ** (-0.25))
    eq = pk.RadialEquilibrium.solve(pk.parse_weight("ginibre"))
    quad_energy = eq.weighted_energy()
    rng = np.random.default_rng(_RNG_SEED + 9)
    n_pairs = 4_000_000
    r1 = np.sqrt(rng.uniform(size=n_pairs))
    r2 = np.sqrt(rng.uniform(size=n_pairs))
    z1 = r1 * np.exp(2j * np.pi * rng.uniform(size=n_pairs))
    z2 = r2 * np.exp(2j * np.pi * rng.uniform(size=n_pairs))
    log_term = -0.5 * np.log(np.abs(z1 - z2) ** 2)
    mc = float(log_term.mean() + (r1**2).mean())
    ok = r_gin < 1e-12 and r_pow < 1e-12 and abs(quad_energy - mc) < 1e-3 \
        and abs(quad_energy - 0.75) < 1e-6
    _check(9, "droplet radii exact and equilibrium energy matches Monte Carlo",
           ok, f"radius errors {r_gin:.1e}/{r_pow:.1e}, energy {quad_energy:.6f} "
           f"vs MC {mc:.6f}", time.monotonic() - t0, 30.0)
