"""Command-line front end: every computation as a subcommand emitting CSV/JSON.

JSON files are ``json.dumps`` output, and every float of a CSV cell or a
summary line is ``repr(float(x))`` (see ``reporting``); every file is written
by ``reporting.atomic_write_text``.  The files of ``kernel`` and ``sample``
are written by this module's exporters, export_kernel_grid_csv and
export_configuration.

Each subparser's ``handler`` default is its cmd_ function, which returns
nothing; ``run`` calls it and owns the exit codes: 0 success, 1 configuration
error, 2 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys

import numpy as np

from . import asymptotics as asym
from .errors import ConfigurationError, NumericalDegeneracyError, integer_range
from .kernel import KernelEvaluator, SpaceSpec, build_space
from .localexpansion import ORDERS, _local_kernel
from .quadrature import integrate_polar_grid
from .reporting import atomic_write_text, write_csv
from .sampling import PointConfiguration, sample_batch
from .weights import RadialEquilibrium, parse_weight


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise ConfigurationError(message)


def _value(parse, what: str, ok):
    """argparse type: ``parse(text)`` if it parses and passes ``ok``; else
    "expected {what}, got '{text}'" (argparse names the flag)."""
    def value(text: str):
        try:
            out = parse(text)
        except (ValueError, argparse.ArgumentTypeError):
            pass
        else:
            if ok(out):
                return out
        raise argparse.ArgumentTypeError(f"expected {what}, got '{text}'")
    return value


def _integer(low: int, high: int | None = None):
    """argparse type: an integer >= ``low`` and, if given, < ``high``."""
    return _value(int, integer_range(low, high),
                  lambda v: v >= low and (high is None or v < high))


def _finite(low: float, strict: bool):
    """argparse type: a finite float > ``low`` if ``strict``, else >= ``low``."""
    return _value(float, f"a finite number {'>' if strict else '>='} {low:g}",
                  lambda v: math.isfinite(v) and (v > low if strict else v >= low))


def _complex(nonzero: bool):
    """argparse type: a finite complex number, nonzero if ``nonzero``."""
    return _value(lambda text: complex(text.replace(" ", "")),
                  f"a finite {'nonzero ' if nonzero else ''}complex number",
                  lambda v: cmath.isfinite(v) and not (nonzero and v == 0))


def _list_of(kind, what: str):
    """argparse type: a non-empty comma-separated list of ``kind`` values."""
    return _value(lambda text: [kind(tok) for tok in text.split(",") if tok],
                  f"a comma-separated list of {what}", bool)


_count = _integer(1)
_positive = _finite(0.0, strict=True)
_nonnegative = _finite(0.0, strict=False)
_point = _complex(nonzero=False)


def _ladder(text: str) -> list:
    """argparse type: an m ladder, under the library's rule (``asym._require_ladder``)."""
    try:
        return asym._require_ladder(_list_of(float, "numbers")(text))
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_space_flags(p: argparse.ArgumentParser):
    p.add_argument("--weight", required=True,
                   help="weight string: ginibre | power:p=<int> | radialpoly:c=<floats>")
    p.add_argument("--q", type=_count, default=1, help="polyanalytic order (q >= 1)")
    p.add_argument("--n", type=_count, required=True, help="analytic degree count")
    p.add_argument("--m", type=_positive, required=True, help="scaling parameter")


def _add_ladder_flags(p: argparse.ArgumentParser):
    p.add_argument("--weight", required=True)
    p.add_argument("--q", type=_count, default=2)
    p.add_argument("--z0", type=_point, default="0")
    p.add_argument("--m", type=_ladder, required=True,
                   help=f"comma-separated m ladder: {asym.LADDER_RULE}")


def _add_grid_flags(p: argparse.ArgumentParser, radius: float, n: int):
    p.add_argument("--grid-radius", type=_positive, default=radius)
    p.add_argument("--grid-n", type=_count, default=n)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="polykernel",
                  description="Weighted polyanalytic polynomial kernels, their "
                              "determinantal point processes, and bulk-limit checks.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("droplet", cmd_droplet, "droplet radius R solving "
                "R*Q'(R)=2 and the equilibrium-potential profile")
    p.add_argument("--weight", required=True)
    p.add_argument("--out", help="optional CSV of r, Q(r), equilibrium potential")
    p.add_argument("--r-max", type=_nonnegative, default=0.0,
                   help="largest radius (default 0: automatic)")
    p.add_argument("--n-grid", type=_count, default=200)

    p = command("energy", cmd_energy, "weighted logarithmic energy of the "
                "equilibrium measure")
    p.add_argument("--weight", required=True)

    p = command("kernel", cmd_kernel, "grid of kernel values around a centre, "
                "CSV with plain and weighted magnitudes")
    _add_space_flags(p)
    p.add_argument("--w0", type=_point, default="0", help="fixed second argument (complex)")
    p.add_argument("--center", type=_point, default="0", help="grid centre (complex)")
    _add_grid_flags(p, 1.0, 17)
    p.add_argument("--out", required=True)

    p = command("berezin", cmd_berezin, "normalized squared weighted kernel "
                "density around a centre")
    _add_space_flags(p)
    p.add_argument("--z0", type=_point, default="0", help="centre (complex)")
    _add_grid_flags(p, 1.0, 33)
    p.add_argument("--out", required=True)

    p = command("intensity", cmd_intensity, "radial profile of the one-point intensity")
    _add_space_flags(p)
    p.add_argument("--r-max", type=_nonnegative, default=0.0,
                   help="largest radius (default 0: automatic)")
    p.add_argument("--n-grid", type=_count, default=200)
    p.add_argument("--out", required=True)

    p = command("blowup", cmd_blowup, "rescaled bulk kernel against the "
                "Laguerre profile over an m ladder, with rate fit")
    _add_ladder_flags(p)
    p.add_argument("--n", type=_list_of(_count, "integers >= 1"),
                   help="optional comma-separated n per m (default n=m)")
    _add_grid_flags(p, 2.5, 17)
    p.add_argument("--out", required=True)
    p.add_argument("--csv-prefix", default="", help="optional per-m error-grid CSVs")

    p = command("decay", cmd_decay, "off-diagonal decay scans of the weighted "
                "kernel over an m ladder")
    _add_ladder_flags(p)
    p.add_argument("--directions", type=_count, default=4)
    p.add_argument("--separations", type=_integer(2), default=12)
    p.add_argument("--out", required=True)

    p = command("offdroplet", cmd_offdroplet, "outside-droplet decay margins along a ray")
    _add_space_flags(p)
    p.add_argument("--ratios", type=_list_of(_finite(1.0, strict=True), "finite numbers > 1"),
                   default="1.1,1.2,1.35,1.5,1.75,2.0",
                   help="radii as multiples of the droplet radius")
    p.add_argument("--direction", type=_complex(nonzero=True), default="1")
    p.add_argument("--out", required=True)

    p = command("local", cmd_local, "near-diagonal expansion values on a grid")
    p.add_argument("--weight", required=True)
    p.add_argument("--q", type=_count, default=2)
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--z0", type=_point, default="0.5")
    p.add_argument("--terms", type=_count, default=None,
                   help=f"expansion orders (powers of m) by q, {ORDERS}, and 1 for "
                   "any other q (default: at most 2)")
    _add_grid_flags(p, 0.2, 17)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--out", required=True)

    p = command("sample", cmd_sample, "exact determinantal configurations, "
                "CSV per configuration plus JSON sidecar")
    _add_space_flags(p)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--seed", type=_integer(0, 2**64), default=0)
    p.add_argument("--outdir", required=True)

    p = command("selftest", cmd_selftest, "run the structural invariant suite "
                "on a small space matrix")
    p.add_argument("--fast", action="store_true")

    return top


def _space(args):
    """The evaluator of the space that --weight, --q, --n and --m name."""
    return build_space(parse_weight(args.weight), SpaceSpec(args.q, args.n, args.m))


def cmd_droplet(args) -> None:
    weight = parse_weight(args.weight)
    eq = RadialEquilibrium.solve(weight)
    if args.out:
        r_max = args.r_max or 2.5 * eq.droplet_radius
        r = np.linspace(0.0, r_max, args.n_grid)
        q_r = np.atleast_1d(weight.eval_weight(r))
        if not np.isfinite(q_r[-1]):
            raise ConfigurationError(f"Q({r_max:.6g}) is past double range")
        write_csv(args.out, ["r", "Q", "equilibrium_potential"],
                  zip(r, q_r, np.atleast_1d(eq.equilibrium_potential(r))))
    print(f"R = {eq.droplet_radius:.12f}")


def cmd_energy(args) -> None:
    weight = parse_weight(args.weight)
    eq = RadialEquilibrium.solve(weight)
    print(f"I = {eq.weighted_energy():.12f}")


def export_kernel_grid_csv(path: str, evaluator: KernelEvaluator, z_points,
                           w_points) -> None:
    """Write kernel evaluations as CSV rows in full double precision."""
    z = np.asarray(z_points, dtype=complex).ravel()
    w = np.asarray(w_points, dtype=complex).ravel()
    z, w = np.broadcast_arrays(z, w)
    plain = np.atleast_1d(evaluator.kernel(z, w))
    wabs = np.exp(np.atleast_1d(evaluator.log_abs_weighted_kernel(z, w)))
    write_csv(path, ["re_z", "im_z", "re_w", "im_w", "re_K", "im_K", "weighted_abs"],
              zip(z.real, z.imag, w.real, w.imag, plain.real, plain.imag, wabs))


def cmd_kernel(args) -> None:
    K = _space(args)
    z = asym._square_grid(args.center, args.grid_radius, args.grid_n)
    export_kernel_grid_csv(args.out, K, z, np.full_like(z, args.w0))
    print(f"wrote {z.size} kernel rows to {args.out}")


def cmd_berezin(args) -> None:
    K = _space(args)
    grid = asym._square_grid(args.z0, args.grid_radius, args.grid_n)
    dens = np.atleast_1d(K.berezin_density(args.z0, grid))
    write_csv(args.out, ["re_w", "im_w", "berezin"],
              zip(grid.real, grid.imag, dens))
    print(f"wrote {grid.size} berezin rows to {args.out}")


def cmd_intensity(args) -> None:
    K = _space(args)
    r_max = args.r_max or K.equilibrium.droplet_radius + 8.0 / math.sqrt(args.m)
    r = np.linspace(0.0, r_max, args.n_grid)
    gamma = np.atleast_1d(K.one_point_intensity(r.astype(complex)))
    write_csv(args.out, ["r", "gamma1"], zip(r, gamma))
    print(f"wrote {r.size} intensity rows to {args.out}")


def cmd_blowup(args) -> None:
    weight = parse_weight(args.weight)
    report = asym.blowup_ladder(weight, args.q, args.z0, args.m, args.n,
                                grid_radius=args.grid_radius, grid_n=args.grid_n)
    atomic_write_text(args.out, json.dumps(report.to_dict()) + "\n")
    if args.csv_prefix:
        for res in report.rungs:
            write_csv(f"{args.csv_prefix}-m{res.m:g}.csv",
                      ["re_xi", "im_xi", "re_lambda", "im_lambda", "error"],
                      zip(res.xi.real, res.xi.imag, res.lam.real, res.lam.imag,
                          res.errors))
    print(f"slope = {report.fields['slope']:.6f} (sup errors: "
          + ", ".join(repr(float(e)) for e in report.fields["sup_error"]) + ")")


def cmd_decay(args) -> None:
    weight = parse_weight(args.weight)
    report = asym.decay_ladder(weight, args.q, args.z0, args.m,
                               n_directions=args.directions,
                               n_separations=args.separations)
    atomic_write_text(args.out, json.dumps(report.to_dict()) + "\n")
    ratios = ", ".join(repr(float(s.beta_over_sqrt_m)) for s in report.rungs)
    print(f"beta/sqrt(m) = [{ratios}], stability = {report.fields['stability']:.3f}")


def cmd_offdroplet(args) -> None:
    K = _space(args)
    with np.errstate(over="ignore"):  # offdroplet_margins refuses a radius of inf
        radii = np.array(args.ratios) * K.equilibrium.droplet_radius
    margins = asym.offdroplet_margins(K, args.direction, radii)
    write_csv(args.out, ["r", "r_over_R", "margin"], zip(radii, args.ratios, margins))
    print(f"max margin = {margins.max():.6f}")


def cmd_local(args) -> None:
    weight = parse_weight(args.weight)
    grid = asym._square_grid(args.z0, args.grid_radius, args.grid_n)
    terms = min(2, ORDERS.get(args.q, 1)) if args.terms is None else args.terms
    vals = np.atleast_1d(_local_kernel(weight, args.q, args.m, np.full_like(grid, args.z0),
                                       grid, terms, args.weighted))
    write_csv(args.out, ["re_w", "im_w", "re_value", "im_value", "abs_value"],
              zip(grid.real, grid.imag, vals.real, vals.imag, np.abs(vals)))
    print(f"wrote {grid.size} local-expansion rows to {args.out}")


def export_configuration(path_csv: str, path_json: str,
                         config: PointConfiguration) -> None:
    """CSV of re,im rows plus a JSON sidecar with the run metadata."""
    write_csv(path_csv, ["re", "im"], zip(config.points.real, config.points.imag))
    sidecar = {
        "seed": config.seed,
        "q": config.q,
        "n": config.n,
        "m": float(config.m),
        "weight": config.weight,
        "proposals_used": config.proposals_used,
    }
    atomic_write_text(path_json, json.dumps(sidecar) + "\n")


def cmd_sample(args) -> None:
    K = _space(args)
    configs = sample_batch(K, args.count, args.seed)
    os.makedirs(args.outdir, exist_ok=True)
    for i, cfg in enumerate(configs):
        base = os.path.join(args.outdir, f"config-{i:04d}")
        export_configuration(base + ".csv", base + ".json", cfg)
    print(f"wrote {len(configs)} configurations to {args.outdir}")


def cmd_selftest(args) -> None:
    specs = [("ginibre", 1), ("ginibre", 2)] if args.fast else \
        [("ginibre", 1), ("ginibre", 2), ("power:p=2", 1), ("power:p=2", 2)]
    nm = 12 if args.fast else 20
    failures = 0
    for wtext, q in specs:
        weight = parse_weight(wtext)
        K = build_space(weight, SpaceSpec(q, nm, float(nm)))
        checks = {
            "trace": abs(K.total_intensity() - q * nm) < 1e-6,
            "hermitian": _hermitian_ok(K),
            "berezin_mass": _berezin_mass_ok(K),
            "reproducing": K.reproducing_residual(0.3 + 0.1j) < 1e-7,
        }
        if q == 2:
            checks["diagonal_bound"] = asym.diagonal_bound_check(K) < 1.0
        for name, ok in checks.items():
            tag = "PASS" if ok else "FAIL"
            print(f"[{tag}] {wtext} q={q} n=m={nm}: {name}")
            failures += 0 if ok else 1
    if failures:
        raise NumericalDegeneracyError(f"selftest: {failures} checks failed")
    print("selftest: all checks passed")


def _hermitian_ok(K) -> bool:
    rng = np.random.default_rng(7)
    R = K.equilibrium.droplet_radius
    z = R * (rng.random(50) + 1j * rng.random(50) - 0.5 - 0.5j)
    w = R * (rng.random(50) + 1j * rng.random(50) - 0.5 - 0.5j)
    a = np.atleast_1d(K.weighted_kernel(z, w))
    b = np.atleast_1d(K.weighted_kernel(w, z))
    return bool(np.max(np.abs(a - np.conj(b)) / np.maximum(np.abs(a), 1e-30)) < 1e-10)


def _berezin_mass_ok(K) -> bool:
    mass = integrate_polar_grid(lambda zz: K.berezin_density(0.2 + 0.1j, zz),
                                K._disk_radius, 320, 64)
    return abs(mass - 1.0) < 1e-6


@functools.lru_cache(maxsize=1)
def _run_parser() -> argparse.ArgumentParser:
    """The parser of ``run``, built once per process: parsing never changes it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _run_parser().parse_args(argv)
        args.handler(args)
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
