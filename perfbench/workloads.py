"""The benchmark's workloads: ladder, eval, sample and highq.

A workload builds in set-up whatever it holds fixed, then runs rounds of
program calls.  The inputs of round i come only from the workload seed and
i, so a round replays exactly; the traced run relies on that.  Each call has
a check on the program's output.  A check records accuracy defects for the
``digits`` metric and raises ``CheckFailed`` when an output is wrong.

Why each workload exists:

* ladder: the paper's verification loop (``blowup`` and ``decay`` over an m
  ladder, through ``cli.run``).  Six fresh builds per ladder, so moment
  tables dominate; the only workload where ``quadrature``, ``asymptotics``,
  ``reporting`` and ``cli`` do their work.
* eval: spaces built in set-up, then kernel evaluation only.  Scalar calls
  are dominated by per-call overhead in the loop over the n+q-1 blocks,
  the 10^4-point calls by per-point arithmetic.
* sample: exact determinantal sampling, where the sampler's own feature map
  does the work rather than the evaluator.  Its statistical check runs on
  criterion 8's fixed batch, so that no seed fails it by chance.
* highq: q up to 8, the only workload where Gram blocks pass the 1e12
  condition limit and the 40-digit escalation runs, and where the trace
  identity drifts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

DIGITS_FLOOR = 1e-16


class CheckFailed(Exception):
    """A program output missed its check."""


@dataclass
class Call:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def disk(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Uniform draws from the disk of the given radius."""
    r = radius * np.sqrt(rng.uniform(size=count))
    return r * np.exp(2j * np.pi * rng.uniform(size=count))


def square_grid(center: complex, radius: float, n: int) -> np.ndarray:
    side = np.linspace(-radius, radius, n)
    return (center + side[:, None] + 1j * side[None, :]).ravel()


def _finite(values, nonnegative: bool = False) -> None:
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite output")
    if nonnegative and np.any(np.real(values) < 0.0):
        raise CheckFailed("negative output where the value is a density")


class Workload:
    name = ""

    def __init__(self, pk, cli, seed: int, scratch: str):
        self.pk = pk
        self.cli = cli
        self.seed = seed
        self.scratch = scratch
        self.defects: list[float] = []
        self.hermitian: list[float] = []
        self.kinds = None

    def build(self) -> None:
        """Build what the workload holds fixed; set-up runs it several times."""

    def prepare(self) -> None:
        """Once, after the builds: inputs and checks that need the built spaces."""

    def round(self, i: int) -> list[Call]:
        raise NotImplementedError

    def untimed(self) -> list[Call]:
        """Calls run once after set-up and before timing; no metric counts them."""
        return []

    def finish(self) -> list[Call]:
        """Calls that close a timed segment; they do not count in op_s."""
        return []

    def per_round(self) -> Counter:
        if self.kinds is None:
            self.kinds = Counter(c.kind for c in self.round(0))
        return self.kinds

    def digits(self) -> float:
        worst = max(self.defects, default=0.0)
        return -math.log10(max(worst, DIGITS_FLOOR))

    def record(self, defect: float, limit: float, what: str) -> None:
        if not math.isfinite(defect):
            raise CheckFailed(f"{what} is not finite")
        self.defects.append(defect)
        if defect > limit:
            raise CheckFailed(f"{what} {defect:.3e} exceeds {limit:.0e}")

    def _space(self, weight: str, q: int, n: int):
        pk = self.pk
        return pk.build_space(pk.parse_weight(weight), pk.SpaceSpec(q, n, float(n)))


class Ladder(Workload):
    """``blowup`` and ``decay`` ladders through the in-process CLI."""

    name = "ladder"
    COMMANDS = {
        "blowup": ["blowup", "--weight", "power:p=2", "--q", "2", "--z0", "0.5",
                   "--m", "40,80,160"],
        "decay": ["decay", "--weight", "ginibre", "--q", "2", "--z0", "0",
                  "--m", "40,80,160"],
    }

    def __init__(self, *args):
        super().__init__(*args)
        self.reference: dict[str, bytes] = {}

    def round(self, i: int) -> list[Call]:
        return [Call(kind, lambda kind=kind: self._run(kind, i),
                     lambda result, kind=kind: self._check(kind, result))
                for kind in self.COMMANDS]

    def _run(self, kind: str, i: int):
        path = os.path.join(self.scratch, f"round-{i}", f"{kind}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.run(self.COMMANDS[kind] + ["--out", path])
        return code, path

    def _check(self, kind: str, result) -> None:
        code, path = result
        if code != 0:
            raise CheckFailed(f"{kind} exited with code {code}")
        with open(path, "rb") as handle:
            data = handle.read()
        os.remove(path)
        if data != self.reference.setdefault(kind, data):
            raise CheckFailed(f"{kind}.json differs from the first run's bytes")
        report = json.loads(data)
        if kind == "blowup" and not report["slope"] <= -0.4:
            raise CheckFailed(f"blow-up slope {report['slope']:.4f} > -0.4")
        if kind == "decay":
            if not all(b < 0.0 for b in report["beta_over_sqrt_m"]):
                raise CheckFailed("a decay rate beta/sqrt(m) is not negative")
            # For ginibre at z0 = 0, beta/sqrt(m) is the same for every m up to
            # terms far below roundoff, so its spread is an accuracy defect.
            self.record(report["stability"], 0.30, "decay stability")


class Eval(Workload):
    """Kernel evaluation on three spaces built in set-up."""

    name = "eval"
    SPACES = {"G80": ("ginibre", 2, 80), "G40": ("ginibre", 2, 40),
              "P60": ("power:p=2", 3, 60)}
    PAIRS = 20
    KPOINTS = 5
    INTENSITY_POINTS = 10_000

    def build(self) -> None:
        self.spaces = {key: self._space(*spec) for key, spec in self.SPACES.items()}

    def prepare(self) -> None:
        self.local_weight = self.pk.parse_weight("power:p=2")
        self.local_radius = self.pk.droplet_radius(self.local_weight)

    def round(self, i: int) -> list[Call]:
        pk = self.pk
        rng = np.random.default_rng([self.seed, i])
        g80, g40, p60 = (self.spaces[k] for k in ("G80", "G40", "P60"))
        r80 = g80.equilibrium.droplet_radius
        calls = []
        for z, w in disk(rng, 2 * self.PAIRS, r80).reshape(self.PAIRS, 2):
            calls.append(Call("pair", lambda z=complex(z), w=complex(w):
                              g80.weighted_kernel(z, w), _finite))
        pts = disk(rng, self.INTENSITY_POINTS, r80)
        calls.append(Call("intensity", lambda: g80.one_point_intensity(pts),
                          lambda out: _finite(out, nonnegative=True)))
        for _ in range(self.KPOINTS):
            k3 = disk(rng, 3, r80)
            calls.append(Call("kpoint", lambda k3=k3: g80.k_point_intensity(k3),
                              lambda out: _finite(out, nonnegative=True)))
        n80 = disk(rng, g40.spec.dim, g40.equilibrium.droplet_radius)
        calls.append(Call("joint", lambda: g40.joint_density(n80),
                          lambda out: _finite(out, nonnegative=True)))
        centre = complex(disk(rng, 1, 0.5 * r80)[0])
        grid = square_grid(centre, 0.25 * r80, 33)
        calls.append(Call("berezin", lambda: g80.berezin_density(centre, grid),
                          lambda out: _finite(out, nonnegative=True)))
        probe = complex(disk(rng, 1, 0.5 * r80)[0])
        calls.append(Call("residual", lambda: g80.reproducing_residual(probe),
                          lambda out: self.record(float(out), 1e-7, "reproducing residual")))
        for key, K in self.spaces.items():
            calls.append(Call(f"trace_{key}", K.total_intensity,
                              lambda out, K=K: self.record(abs(out - K.spec.dim), 1e-8,
                                                           "trace defect")))
        for key, K in self.spaces.items():
            R = K.equilibrium.droplet_radius
            a, b = disk(rng, 200, R), disk(rng, 200, R)
            calls.append(Call(f"hermitian_{key}",
                              lambda K=K, a=a, b=b: (K.weighted_kernel(a, b),
                                                     K.weighted_kernel(b, a)),
                              self._check_hermitian))
        # b(z, w) of power:p=2 vanishes at the origin, so the centre keeps away
        radius = self.local_radius * rng.uniform(0.3, 0.6)
        c2 = complex(radius * np.exp(2j * np.pi * rng.uniform()))
        local = square_grid(c2, 0.1, 17)
        fixed = np.full_like(local, c2)
        calls.append(Call("local_q2", lambda: pk.local_kernel_q2(
            self.local_weight, 60.0, fixed, local, terms=3), _finite))
        calls.append(Call("local_leading", lambda: pk.local_kernel_leading(
            self.local_weight, 3, 60.0, fixed, local), _finite))
        return calls

    def _check_hermitian(self, out) -> None:
        a, b = out
        _finite(a)
        _finite(b)
        defect = float(np.max(np.abs(a - np.conj(b)) / np.maximum(np.abs(a), 1e-300)))
        self.hermitian.append(defect)
        self.record(defect, 1e-12, "hermitian defect")


class Sample(Workload):
    """Exact sampling at nq = 40 and nq = 120, and criterion 8's check.

    The timed configurations come from the workload seed; each is checked
    for its point count, finite points and identical bytes when its round
    repeats.  The radial-intensity check is statistical: at 4 sigma over 8
    bins it fails on some seeds even for an exact sampler, so it runs on a
    fixed batch instead, the first VALIDATION_COUNT configurations of
    criterion 8's (master seed 20202), drawn once after set-up and before
    timing.
    """

    name = "sample"
    SPACES = {"cfg40": ("ginibre", 2, 20), "cfg120": ("ginibre", 2, 60)}
    BATCH = {"cfg40": 10, "cfg120": 1}
    BINS = np.linspace(0.0, 1.3, 9)
    VALIDATION_SEED = 20202
    VALIDATION_COUNT = 100

    def __init__(self, *args):
        super().__init__(*args)
        self.reference: dict[tuple[str, int], bytes] = {}
        self.validation = []

    def build(self) -> None:
        self.spaces = {key: self._space(*spec) for key, spec in self.SPACES.items()}

    def prepare(self) -> None:
        # the sampler draws from these spaces: their trace identity is the
        # accuracy this workload reports
        for K in self.spaces.values():
            self.record(abs(K.total_intensity() - K.spec.dim), 1e-8, "trace defect")

    def untimed(self) -> list[Call]:
        return [Call("draw_validation", lambda: self.pk.sample_batch(
            self.spaces["cfg40"], self.VALIDATION_COUNT, self.VALIDATION_SEED),
                     self._keep_validation)]

    def _keep_validation(self, configs) -> None:
        if len(configs) != self.VALIDATION_COUNT:
            raise CheckFailed(f"cfg40: {len(configs)} validation configurations returned")
        self._check_points("cfg40", configs)
        self.validation = configs

    def round(self, i: int) -> list[Call]:
        masters = np.random.SeedSequence([self.seed, i]).generate_state(2, np.uint64)
        return [Call(kind, lambda kind=kind, master=int(master): self.pk.sample_batch(
                    self.spaces[kind], self.BATCH[kind], master),
                     lambda configs, kind=kind: self._check(kind, i, configs))
                for kind, master in zip(self.SPACES, masters)]

    def _check_points(self, kind: str, configs) -> None:
        nq = self.spaces[kind].spec.dim
        for cfg in configs:
            if cfg.points.size != nq:
                raise CheckFailed(f"{kind}: {cfg.points.size} points, expected {nq}")
            _finite(cfg.points)

    def _check(self, kind: str, i: int, configs) -> None:
        if len(configs) != self.BATCH[kind]:
            raise CheckFailed(f"{kind}: {len(configs)} configurations returned")
        self._check_points(kind, configs)
        data = b"".join(cfg.points.tobytes() for cfg in configs)
        if data != self.reference.setdefault((kind, i), data):
            raise CheckFailed(f"{kind} round {i}: configurations differ between repeats")

    def finish(self) -> list[Call]:
        return [Call("validate", lambda: self.pk.empirical_intensity(
            self.spaces["cfg40"], self.validation, self.BINS), self._check_intensity)]

    def _check_intensity(self, comparison) -> None:
        if not comparison.max_standardized < 4.0:
            raise CheckFailed(f"max standardized deviation "
                              f"{comparison.max_standardized:.2f} >= 4")


class HighQ(Workload):
    """High-order builds, each followed by the trace and reproducing checks.

    A ``NumericalDegeneracyError`` that names its cause is a correct
    refusal.  The trace identity drifts at high q (defects up to ~1e-4 at
    the time this benchmark was written), so the check bounds the drift
    relative to nq and ``digits`` reports it.
    """

    name = "highq"
    CONFIGS = [("ginibre", 4, 40), ("ginibre", 6, 40), ("ginibre", 8, 40),
               ("power:p=2", 7, 40), ("power:p=3", 8, 20)]
    TRACE_RELATIVE = 1e-6

    def prepare(self) -> None:
        pk = self.pk
        self.radius = {w: pk.droplet_radius(pk.parse_weight(w)) for w, _, _ in self.CONFIGS}

    def round(self, i: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, i])
        calls = []
        for weight, q, n in self.CONFIGS:
            probe = complex(disk(rng, 1, 0.5 * self.radius[weight])[0])
            calls.append(Call(f"{weight.replace(':p=', '')}_q{q}_n{n}",
                              lambda w=weight, q=q, n=n, z=probe: self._run(w, q, n, z),
                              self._check))
        return calls

    def _run(self, weight: str, q: int, n: int, probe: complex):
        try:
            K = self._space(weight, q, n)
        except self.pk.NumericalDegeneracyError as exc:
            return exc
        return K.spec.dim, K.total_intensity(), K.reproducing_residual(probe)

    def _check(self, result) -> None:
        if isinstance(result, self.pk.NumericalDegeneracyError):
            if not str(result).strip():
                raise CheckFailed("degeneracy refusal without a named cause")
            return
        nq, trace, residual = result
        self.record(abs(trace - nq), self.TRACE_RELATIVE * nq, "trace defect")
        self.record(float(residual), 1e-7, "reproducing residual")


WORKLOADS = {w.name: w for w in (Ladder, Eval, Sample, HighQ)}
