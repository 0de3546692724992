"""A seeded random sweep of CLI arguments: the robustness floor of ``run``.

Each argv names one of the ten subcommands other than ``selftest``, with
flag values drawn from the box below and, now and then, one value replaced
by a malformed or out-of-range token.  Every argv must exit 0, 1 or 2 with
no other exception and no RuntimeWarning; exits 1 and 2 must start stderr
with their named prefix; and at exit 0 no stdout line and no file written
may hold a non-finite number.
"""

import re
import warnings

import numpy as np

from polykernel.cli import run

SEED = 20131
COUNT = 300

# the box
WEIGHTS = ("ginibre", "power:p=2", "power:p=3", "power:p=8", "radialpoly:c=1,0.5",
           "radialpoly:c=0.01", "radialpoly:c=1,-0.3,0.05", "radialpoly:c=100",
           "radialpoly:c=1e300", "radialpoly:c=1e-300", "gaussian", "power:p=0",
           "radialpoly:c=nan", "radialpoly:c=1,-1", "ginibre:p=2", "")
SMALL_Q, SMALL_N = 8, 60           # q <= 8 with n <= 60, or
WIDE_Q, WIDE_N = (40, 200, 1000), 10  # q >> n: one of these q with n <= 10
WIDE_SHARE = 0.3
LOG10_M = (-3.0, 5.0)              # m = 10^U(-3, 5)
GRID_N = 20                        # kernel, berezin and local grids: at most 20 x 20
N_GRID = 300                       # droplet and intensity radii
SAMPLE_POINTS = 48                 # sample: nq <= 48, at most 3 configurations
LADDER_Q = 6                       # blowup and decay: q <= 6, 2-3 rungs of LADDER_M
LADDER_M = (8, 10, 16, 20, 32, 40, 64)
FAR_SHARE, LOG10_FAR = 0.1, (1.0, 200.0)  # a point or radius of modulus 10^U(1, 200)
BAD = ("nan", "inf", "-inf", "-1", "0", "1e400", "1e-400", "0x10", "", "1,2", "abc", "-0.0")
BAD_SHARE = 0.3

COMMANDS = ("droplet", "energy", "kernel", "berezin", "intensity", "blowup", "decay",
            "offdroplet", "local", "sample")
PREFIX = {1: "configuration error: ", 2: "numerical degeneracy: "}
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _real(rng, lo, hi) -> str:
    if rng.uniform() < FAR_SHARE:
        return f"{10 ** rng.uniform(*LOG10_FAR):.4g}"
    return f"{rng.uniform(lo, hi):.4g}"


def _point(rng, radius) -> str:
    if rng.uniform() < FAR_SHARE:
        radius = 10 ** rng.uniform(*LOG10_FAR)
    z = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return f"{z.real:.3g}{z.imag:+.3g}j"


def _space(rng, max_points=None) -> dict:
    if rng.uniform() < WIDE_SHARE:
        q, n = int(rng.choice(WIDE_Q)), int(rng.integers(1, WIDE_N + 1))
    else:
        q, n = int(rng.integers(1, SMALL_Q + 1)), int(rng.integers(1, SMALL_N + 1))
    if max_points is not None:
        q = min(q, max_points)
        n = min(n, max(1, max_points // q))
    return {"--weight": str(rng.choice(WEIGHTS)), "--q": q, "--n": n,
            "--m": f"{10 ** rng.uniform(*LOG10_M):.4g}"}


def _argv(index: int, tmp) -> list:
    """The argv of sweep point ``index``, writing into directory ``tmp``.  Every
    value is joined to its flag by "=", so that a value such as "-1" reaches
    the flag's own check."""
    rng = np.random.default_rng([SEED, index])
    command = str(rng.choice(COMMANDS))
    weight = {"--weight": str(rng.choice(WEIGHTS))}
    grid = {"--grid-n": rng.integers(1, GRID_N + 1)}
    ladder = ",".join(str(m) for m in sorted(rng.choice(LADDER_M, rng.integers(2, 4),
                                                        replace=False)))
    if command == "droplet":
        args = weight | {"--n-grid": rng.integers(1, N_GRID + 1)}
        if rng.uniform() < 0.5:
            args |= {"--r-max": _real(rng, 0.0, 5.0)}
    elif command == "energy":
        args = weight
    elif command == "kernel":
        args = _space(rng) | {"--w0": _point(rng, 1.5), "--center": _point(rng, 1.0),
                              "--grid-radius": _real(rng, 0.01, 2.0)} | grid
    elif command == "berezin":
        args = _space(rng) | {"--z0": _point(rng, 1.5),
                              "--grid-radius": _real(rng, 0.01, 2.0)} | grid
    elif command == "intensity":
        args = _space(rng) | {"--n-grid": rng.integers(1, N_GRID + 1),
                              "--r-max": _real(rng, 0.0, 4.0)}
    elif command == "blowup":
        args = weight | {"--q": rng.integers(1, LADDER_Q + 1), "--z0": _point(rng, 1.2),
                         "--m": ladder, "--grid-radius": _real(rng, 0.1, 3.0)} | grid
        if rng.uniform() < 0.3:
            args |= {"--n": ",".join(str(rng.integers(1, 80)) for _ in ladder.split(","))}
    elif command == "decay":
        args = weight | {"--q": rng.integers(1, LADDER_Q + 1), "--z0": _point(rng, 1.2),
                         "--m": ladder, "--directions": rng.integers(1, 5),
                         "--separations": rng.integers(2, 13)}
    elif command == "offdroplet":
        ratios = ",".join(_real(rng, 1.01, 3.0) for _ in range(rng.integers(1, 5)))
        args = _space(rng) | {"--ratios": ratios, "--direction": _point(rng, 2.0)}
    elif command == "local":
        q = rng.choice(WIDE_Q) if rng.uniform() < WIDE_SHARE else rng.integers(1, SMALL_Q + 1)
        args = weight | {"--q": q, "--m": f"{10 ** rng.uniform(*LOG10_M):.4g}",
                         "--z0": _point(rng, 1.2), "--terms": rng.integers(1, 5),
                         "--grid-radius": _real(rng, 0.01, 1.0)} | grid
    else:
        args = _space(rng, SAMPLE_POINTS) | {"--count": rng.integers(1, 4),
                                             "--seed": rng.integers(0, 2**63)}
    if rng.uniform() < BAD_SHARE:
        args[str(rng.choice(list(args)))] = str(rng.choice(BAD))
    argv = [command] + [f"{flag}={value}" for flag, value in args.items()]
    if command == "local" and rng.uniform() < 0.5:
        argv.append("--weighted")
    if command == "blowup" and rng.uniform() < 0.3:
        argv.append(f"--csv-prefix={tmp / 'grid'}")
    if command == "droplet" and "--r-max" in args:
        argv.append(f"--out={tmp / 'out'}")
    elif command == "sample":
        argv.append(f"--outdir={tmp / 'configs'}")
    elif command != "energy":
        argv.append(f"--out={tmp / 'out'}")
    return argv


def test_cli_sweep(tmp_path, capsys):
    failures = []
    codes = {}
    for index in range(COUNT):
        tmp = tmp_path / str(index)
        tmp.mkdir()
        argv = _argv(index, tmp)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = run(argv)
            except Exception as exc:  # any exception that escapes run() fails the sweep
                failures.append(f"{argv}: {type(exc).__name__}: {exc}")
                capsys.readouterr()
                continue
        out, err = capsys.readouterr()
        codes[code] = codes.get(code, 0) + 1
        if code in PREFIX:
            if not err.startswith(PREFIX[code]):
                failures.append(f"{argv}: exit {code} with stderr {err!r}")
        elif code != 0:
            failures.append(f"{argv}: exit {code}")
        else:
            texts = [("stdout", out)] + [(p.name, p.read_text())
                                         for p in sorted(tmp.rglob("*")) if p.is_file()]
            for name, text in texts:
                bad = [line for line in text.splitlines() if NON_FINITE.search(line)]
                if bad:
                    failures.append(f"{argv}: exit 0 with a non-finite number in "
                                    f"{name}: {bad[0]!r}")
    assert not failures, "\n".join(failures)
    # the sweep reaches every exit code
    assert set(codes) == {0, 1, 2}, codes
