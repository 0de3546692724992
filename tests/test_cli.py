"""CLI: subcommand outputs, exit codes, and byte-identical determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polykernel import cli
from polykernel.asymptotics import LADDER_RULE
from polykernel.cli import run
from polykernel.reporting import atomic_write_text


def test_droplet_prints_radius(capsys):
    assert run(["droplet", "--weight", "ginibre"]) == 0
    out = capsys.readouterr().out
    assert "R = 1.000000000000" in out


def test_droplet_profile_csv(tmp_path, capsys):
    out = tmp_path / "droplet.csv"
    assert run(["droplet", "--weight", "power:p=2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r,Q,equilibrium_potential"
    assert len(lines) == 201


def test_droplet_widens_its_bracket(capsys):
    # Q = 0.01 |z|^2 puts R = 10 past the bisection's first bracket [1e-12, 1]
    assert run(["droplet", "--weight", "radialpoly:c=0.01"]) == 0
    assert capsys.readouterr().out == "R = 10.000000000000\n"


def test_energy_ginibre(capsys):
    assert run(["energy", "--weight", "ginibre"]) == 0
    assert "I = 0.750000000" in capsys.readouterr().out


def test_bad_weight_exit_code_and_diagnostic(capsys):
    assert run(["droplet", "--weight", "gaussian"]) == 1
    err = capsys.readouterr().err
    assert "gaussian" in err


@pytest.mark.parametrize("argv, flag", [
    (["kernel", "--weight", "ginibre", "--q", "0", "--n", "4", "--m", "1"], "--q"),
    (["blowup", "--weight", "ginibre", "--m", "10,20", "--n", "10,x"], "--n"),
    (["decay", "--weight", "ginibre", "--m", ","], "--m"),
    (["kernel", "--weight", "ginibre", "--n", "4", "--m", "1", "--grid-n", "-1"],
     "--grid-n"),
    (["intensity", "--weight", "ginibre", "--n", "4", "--m", "1", "--n-grid", "-2"],
     "--n-grid"),
    (["offdroplet", "--weight", "ginibre", "--n", "4", "--m", "1", "--direction", "0"],
     "--direction"),
    (["local", "--weight", "ginibre", "--q", "3", "--m", "8", "--terms", "3"],
     "terms at q=3 must be an integer in [1, 2), got 3"),
    (["local", "--weight", "ginibre", "--q", "0", "--m", "8"], "--q"),
    (["blowup", "--weight", "ginibre", "--q", "0", "--m", "10,20"], "--q"),
    (["decay", "--weight", "ginibre", "--q", "0", "--m", "10,20"], "--q"),
    (["intensity", "--weight", "ginibre", "--n", "0", "--m", "1"], "--n"),
    (["blowup", "--weight", "ginibre", "--m", "10,20", "--n", "0,5"], "--n"),
    (["blowup", "--weight", "ginibre", "--m", "10,10", "--n", "5,6"], "--m"),
    (["blowup", "--weight", "ginibre", "--m", "inf"], "--m"),
    (["blowup", "--weight", "ginibre", "--m", "0,40"], "--m"),
    (["decay", "--weight", "ginibre", "--m", "20,nan"], "--m"),
    (["intensity", "--weight", "ginibre", "--n", "4", "--m", "0"], "--m"),
    (["local", "--weight", "ginibre", "--m", "-8"], "--m"),
    (["droplet", "--weight", "ginibre", "--r-max", "-1"], "--r-max"),
    (["intensity", "--weight", "ginibre", "--n", "4", "--m", "1", "--r-max", "-2"],
     "--r-max"),
    (["kernel", "--weight", "ginibre", "--n", "4", "--m", "1", "--grid-radius", "0"],
     "--grid-radius"),
    (["blowup", "--weight", "ginibre", "--m", "10,20", "--grid-radius", "-1"],
     "--grid-radius"),
    (["offdroplet", "--weight", "ginibre", "--n", "4", "--m", "4", "--ratios", "2,inf"],
     "--ratios"),
    (["offdroplet", "--weight", "ginibre", "--n", "4", "--m", "4", "--ratios", "0.5"],
     "--ratios"),
    (["offdroplet", "--weight", "ginibre", "--n", "4", "--m", "4", "--direction", "nan"],
     "--direction"),
    (["decay", "--weight", "ginibre", "--m", "10,20", "--separations", "-3"],
     "--separations"),
    (["decay", "--weight", "ginibre", "--m", "10,20", "--separations", "1"],
     "--separations"),
    (["kernel", "--weight", "ginibre", "--n", "4", "--m", "4", "--w0", "nan"], "--w0"),
    (["kernel", "--weight", "ginibre", "--n", "4", "--m", "4", "--center", "nan"],
     "--center"),
    (["kernel", "--weight", "ginibre", "--n", "4", "--m", "4", "--center", "1+infj"],
     "--center"),
    (["berezin", "--weight", "ginibre", "--n", "4", "--m", "4", "--z0", "nan"], "--z0"),
    (["blowup", "--weight", "ginibre", "--m", "10,20", "--z0", "nan"], "--z0"),
    (["decay", "--weight", "ginibre", "--m", "10,20", "--z0", "inf"], "--z0"),
    (["local", "--weight", "ginibre", "--m", "8", "--z0", "nan"], "--z0"),
    (["sample", "--weight", "ginibre", "--n", "4", "--m", "4", "--seed", "-1",
      "--outdir", "x"], "--seed"),
    (["sample", "--weight", "ginibre", "--n", "4", "--m", "4", "--seed",
      "18446744073709551616", "--outdir", "x"], "--seed"),
    (["decay", "--weight", "ginibre", "--m", "40,40"], "--m"),
    (["decay", "--weight", "ginibre", "--m", "40"], "--m"),
    (["blowup", "--weight", "ginibre", "--m", "40"], "--m"),
    (["blowup", "--weight", "ginibre", "--m", "10,20", "--n", "10"],
     "a ladder needs one n per m, got 1 for 2"),
    (["blowup", "--weight", "ginibre", "--m", "20,30", "--n", "20,30,40"],
     "a ladder needs one n per m, got 3 for 2"),
    (["droplet", "--weight", "radialpoly:c=nan"], "coefficients must be finite"),
    (["droplet", "--weight", "radialpoly:c=1,-1"], "leading coefficient must be positive"),
], ids=["q-zero", "blowup-n-list", "decay-empty-m", "kernel-grid-n",
        "intensity-n-grid", "offdroplet-direction", "local-terms-q3", "local-q-zero",
        "blowup-q-zero", "decay-q-zero", "intensity-n-zero", "blowup-n-zero",
        "blowup-repeated-m", "blowup-m-inf", "blowup-m-zero", "decay-m-nan",
        "intensity-m-zero", "local-m-negative", "droplet-r-max-negative",
        "intensity-r-max-negative", "kernel-grid-radius-zero",
        "blowup-grid-radius-negative", "offdroplet-ratios-inf",
        "offdroplet-ratios-below-one", "offdroplet-direction-nan",
        "decay-separations-negative", "decay-separations-one", "kernel-w0-nan",
        "kernel-center-nan", "kernel-center-inf", "berezin-z0-nan", "blowup-z0-nan",
        "decay-z0-inf", "local-z0-nan", "sample-seed-negative", "sample-seed-2-64",
        "decay-repeated-m", "decay-single-m", "blowup-single-m",
        "blowup-n-length", "blowup-n-long", "radialpoly-nan", "radialpoly-negative-leading"])
def test_bad_flag_exit_code(tmp_path, capsys, argv, flag):
    assert run(argv + ["--out", str(tmp_path / "x.out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and flag in err


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--weight", "ginibre", "--q", "0", "--n", "4", "--m", "4"],
     "argument --q: expected an integer >= 1, got '0'"),
    (["sample", "--weight", "ginibre", "--n", "4", "--m", "4", "--seed", "-1"],
     "argument --seed: expected an integer in [0, 18446744073709551616), got '-1'"),
    (["kernel", "--weight", "ginibre", "--n", "4", "--m", "4", "--grid-radius", "0"],
     "argument --grid-radius: expected a finite number > 0, got '0'"),
    (["droplet", "--weight", "ginibre", "--r-max", "-1"],
     "argument --r-max: expected a finite number >= 0, got '-1'"),
    (["berezin", "--weight", "ginibre", "--n", "4", "--m", "4", "--z0", "1+nanj"],
     "argument --z0: expected a finite complex number, got '1+nanj'"),
    (["offdroplet", "--weight", "ginibre", "--n", "4", "--m", "4", "--direction", "0"],
     "argument --direction: expected a finite nonzero complex number, got '0'"),
    (["offdroplet", "--weight", "ginibre", "--n", "4", "--m", "4", "--ratios", "2,0.5"],
     "argument --ratios: expected a comma-separated list of finite numbers > 1, got '2,0.5'"),
    (["blowup", "--weight", "ginibre", "--m", "10,20", "--n", "10,x"],
     "argument --n: expected a comma-separated list of integers >= 1, got '10,x'"),
    (["local", "--weight", "ginibre", "--m", "8", "--terms", "abc"],
     "argument --terms: expected an integer >= 1, got 'abc'"),
], ids=["integer", "integer-range", "finite-strict", "finite", "complex", "complex-nonzero",
        "list-of-finite", "list-of-integers", "terms"])
def test_flag_refusals_read_in_full(tmp_path, capsys, argv, message):
    # one bad value per kind of flag value, with its whole diagnostic
    assert run(argv + ["--out", str(tmp_path / "x.out")]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("command", ["blowup", "decay"])
def test_m_ladders_follow_the_library_rule(tmp_path, capsys, command):
    # --m refuses what blowup_ladder and decay_ladder refuse, in their words;
    # before, the CLI refused a repeated m that the library built twice
    assert run([command, "--weight", "ginibre", "--m", "20,20,30",
                "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == (
        "configuration error: argument --m: a ladder needs at least 2 distinct m, "
        "none repeated, each finite and > 0, got [20.0, 20.0, 30.0]\n")
    with pytest.raises(SystemExit):
        run([command, "--help"])
    assert LADDER_RULE in " ".join(capsys.readouterr().out.split())


def test_readme_cli_block_parses():
    # every command of the README's CLI block parses under the current flags,
    # and the block shows every subcommand, each parsed to a handler of its
    # own; a missing block fails, not passes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line interface", 1)[1].split("```")[1]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("polykernel ")]
    parser = cli.build_parser()
    handlers = {argv[0]: parser.parse_args(argv).handler for argv in commands}
    assert set(handlers.values()) == {f for name, f in vars(cli).items()
                                      if name.startswith("cmd_")}
    assert len(set(handlers.values())) == len(handlers)


def test_readme_python_blocks_run():
    # every python block of the README runs as written; a missing block fails
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_numerical_degeneracy_exit_code(tmp_path, capsys):
    # power-family b(z, w) vanishes when the expansion centre is the origin
    out = tmp_path / "l.csv"
    code = run(["local", "--weight", "power:p=2", "--q", "2", "--m", "10",
                "--z0", "0", "--grid-n", "5", "--out", str(out)])
    assert code == 2
    assert "degenerac" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["local", "--weight", "ginibre", "--q", "2", "--m", "1000", "--z0", "0.9"],
    ["kernel", "--weight", "ginibre", "--q", "2", "--n", "1000", "--m", "1000",
     "--center", "0.9", "--w0", "0.9", "--grid-n", "5", "--grid-radius", "0.05"],
], ids=["local", "kernel"])
def test_unweighted_values_past_double_range_exit_2(tmp_path, capsys, argv):
    # before, local wrote 221 of 289 rows as inf or NaN and kernel wrote
    # +-Infinity on all 25 rows, both exiting 0
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical degeneracy:") and "at m=1000.0" in err
    assert "past double range" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["droplet", "--weight", "ginibre", "--r-max=1e200"], 1,
     "configuration error: Q(1e+200) is past double range"),
    (["offdroplet", "--weight", "ginibre", "--q", "2", "--n", "4", "--m", "4",
      "--ratios=2,1e200"], 1, "configuration error: Q is past double range within radius 1e+200"),
    (["intensity", "--weight", "ginibre", "--q", "2", "--n", "4", "--m", "4",
      "--r-max=1e200"], 2,
     "numerical degeneracy: features at |z| up to 1e+200 leave double range (weight ginibre)"),
    (["berezin", "--weight", "ginibre", "--n", "4", "--m", "4", "--z0=1e154"], 2,
     "numerical degeneracy: berezin centre z=(1e+154+0j) has vanishing diagonal kernel"),
    (["blowup", "--weight", "ginibre", "--m", "10,20", "--grid-radius=1e43", "--grid-n", "4"],
     1, "configuration error: blow-up errors vanish on the grid of radius 1e+43: "
        "sup errors [0.0, 0.0]"),
    (["decay", "--weight", "power:p=2", "--z0=1e200", "--m", "10,20"], 1,
     "configuration error: z0 = (1e+200+0j) is outside the open droplet (R = 0.840896)"),
    (["kernel", "--weight", "radialpoly:c=1e300", "--q", "7", "--n", "55", "--m", "0.5",
      "--grid-n", "2"], 2, "numerical degeneracy: Gram block d=-5 is numerically degenerate"),
    (["kernel", "--weight", "radialpoly:c=1e-300", "--q", "3", "--n", "11", "--m", "0.7713",
      "--grid-n", "2"], 2, "numerical degeneracy: Gram block d=-1 is numerically degenerate"),
    (["local", "--weight", "radialpoly:c=1e300", "--q", "40", "--m", "1734",
      "--z0=-0.48-0.958j", "--grid-n", "3"], 2,
     "numerical degeneracy: m Re Q(z, w) reaches 2.49e+303 at m=1734.0"),
], ids=["droplet-r-max", "offdroplet-ratio", "intensity-r-max", "berezin-z0", "blowup-grid",
        "decay-z0", "lanczos-zero-beta", "lanczos-overflow", "local-laguerre"])
def test_values_past_double_range_are_refused_by_name(tmp_path, capsys, argv, code, message):
    # found by test_cli_sweep's box: each printed a RuntimeWarning, or wrote
    # inf, NaN or a -inf slope with exit 0
    out = tmp_path / "x.out"
    assert run(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_a_failed_selftest_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_hermitian_ok", lambda K: False)
    assert run(["selftest", "--fast"]) == 2
    captured = capsys.readouterr()
    assert "[FAIL] ginibre q=1 n=m=12: hermitian" in captured.out
    assert "[PASS] ginibre q=1 n=m=12: trace" in captured.out
    assert "all checks passed" not in captured.out
    assert captured.err == "numerical degeneracy: selftest: 2 checks failed\n"


def test_kernel_csv(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert run(["kernel", "--weight", "ginibre", "--q", "1", "--n", "4",
                "--m", "2", "--grid-n", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "re_z,im_z,re_w,im_w,re_K,im_K,weighted_abs"
    assert len(lines) == 26


def test_berezin_readme_command(tmp_path, capsys):
    # the README's berezin command: a 33 x 33 grid, the same bytes every run
    outs = [tmp_path / "b1.csv", tmp_path / "b2.csv"]
    for out in outs:
        assert run(["berezin", "--weight", "ginibre", "--q", "3", "--n", "60", "--m", "60",
                    "--z0", "0.3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 1089 berezin rows to {out}\n"
    lines = outs[0].read_text().strip().split("\n")
    assert lines[0] == "re_w,im_w,berezin" and len(lines) == 1090
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_intensity_and_local_csv(tmp_path):
    out = tmp_path / "i.csv"
    assert run(["intensity", "--weight", "ginibre", "--q", "2", "--n", "6",
                "--m", "6", "--out", str(out)]) == 0
    assert out.read_text().startswith("r,gamma1")
    out2 = tmp_path / "l.csv"
    assert run(["local", "--weight", "power:p=2", "--q", "2", "--m", "10",
                "--z0", "0.5", "--terms", "3", "--grid-n", "5",
                "--out", str(out2)]) == 0
    assert out2.read_text().startswith("re_w,im_w,re_value,im_value,abs_value")


def test_local_leading_any_q(tmp_path):
    out = tmp_path / "l3.csv"
    assert run(["local", "--weight", "ginibre", "--q", "3", "--m", "8",
                "--z0", "0.3", "--grid-n", "5", "--out", str(out)]) == 0


def test_offdroplet_csv(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert run(["offdroplet", "--weight", "ginibre", "--q", "2", "--n", "10",
                "--m", "10", "--out", str(out)]) == 0
    assert out.read_text().startswith("r,r_over_R,margin")


def test_blowup_json_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    args = ["blowup", "--weight", "ginibre", "--q", "2", "--z0", "0.3",
            "--m", "10,20", "--grid-radius", "1.0", "--grid-n", "5"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["weight"] == "ginibre"
    assert len(report["sup_error"]) == 2
    assert "slope" in report


def _same_leaves(parsed, memory, where="$"):
    """Every leaf of ``parsed`` (read back from a file) is the in-memory value:
    a float bit for bit, -0.0 included, and an int or text exactly."""
    if isinstance(memory, dict):
        assert list(parsed) == list(memory), where
        for key in memory:
            _same_leaves(parsed[key], memory[key], f"{where}.{key}")
    elif isinstance(memory, (list, tuple)):
        assert len(parsed) == len(memory), where
        for i, (a, b) in enumerate(zip(parsed, memory)):
            _same_leaves(a, b, f"{where}[{i}]")
    elif isinstance(memory, float):
        assert type(parsed) is float, where
        assert np.float64(parsed).view(np.int64) == np.float64(memory).view(np.int64), where
    else:
        assert type(parsed) is type(memory) and parsed == memory, where


def _csv_rows(path: Path) -> list[list[float]]:
    return [[float(cell) for cell in line.split(",")]
            for line in path.read_text().splitlines()[1:]]


def test_artifacts_read_back_bit_for_bit(tmp_path, monkeypatch, capsys):
    # blowup, decay and sample through cli.run: every JSON leaf and CSV cell
    # parses back to the double in memory, and a second run writes the same
    # bytes.  z0's real part is -0.0, which a file must keep.
    memory = {}

    def spy(name, call):
        def wrapped(*args, **kwargs):
            memory[name] = call(*args, **kwargs)
            return memory[name]
        return wrapped

    for owner, name in ((cli.asym, "blowup_ladder"), (cli.asym, "decay_ladder"),
                        (cli, "sample_batch")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        out.mkdir()
        assert run(["blowup", "--weight", "power:p=2", "--q", "2", "--z0=-0.0+0.3j",
                    "--m", "10,20", "--grid-radius", "1.0", "--grid-n", "5",
                    "--out", str(out / "blowup.json"),
                    "--csv-prefix", str(out / "grid")]) == 0
        assert run(["decay", "--weight", "ginibre", "--q", "2", "--z0=-0.0+0.2j",
                    "--m", "20,40", "--directions", "2", "--separations", "6",
                    "--out", str(out / "decay.json")]) == 0
        assert run(["sample", "--weight", "ginibre", "--q", "2", "--n", "6",
                    "--m", "6", "--count", "2", "--seed", "5",
                    "--outdir", str(out / "samples")]) == 0
        runs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                     if p.is_file()})
        blowup, decay = memory["blowup_ladder"], memory["decay_ladder"]
        assert math.copysign(1.0, blowup.z0.real) == -1.0
        _same_leaves(json.loads((out / "blowup.json").read_text()), blowup.to_dict())
        _same_leaves(json.loads((out / "decay.json").read_text()), decay.to_dict())
        for res in blowup.rungs:
            _same_leaves(_csv_rows(out / f"grid-m{res.m:g}.csv"),
                         [list(map(float, row)) for row in zip(
                             res.xi.real, res.xi.imag, res.lam.real, res.lam.imag,
                             res.errors)])
        for i, cfg in enumerate(memory["sample_batch"]):
            base = out / "samples" / f"config-{i:04d}"
            _same_leaves(_csv_rows(base.with_suffix(".csv")),
                         [[float(z.real), float(z.imag)] for z in cfg.points])
            _same_leaves(json.loads(base.with_suffix(".json").read_text()),
                         {"seed": cfg.seed, "q": cfg.q, "n": cfg.n, "m": float(cfg.m),
                          "weight": cfg.weight, "proposals_used": cfg.proposals_used})
    assert len(runs[0]) == 8 and runs[0] == runs[1]


def test_blowup_csv_prefix_writes_the_error_grids(tmp_path, capsys):
    # one CSV per m, whose error column is that m's row of the JSON's errors
    out, prefix = tmp_path / "b.json", tmp_path / "grid"
    assert run(["blowup", "--weight", "ginibre", "--q", "2", "--z0", "0.3",
                "--m", "10,20", "--grid-radius", "1.0", "--grid-n", "5",
                "--out", str(out), "--csv-prefix", str(prefix)]) == 0
    report = json.loads(out.read_text())
    assert sorted(p.name for p in tmp_path.glob("grid-*.csv")) == ["grid-m10.csv",
                                                                   "grid-m20.csv"]
    for m, errors in zip(report["m"], report["errors"]):
        lines = (tmp_path / f"grid-m{m:g}.csv").read_text().strip().split("\n")
        assert lines[0] == "re_xi,im_xi,re_lambda,im_lambda,error"
        assert [float(line.split(",")[-1]) for line in lines[1:]] == errors


def test_decay_json(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run(["decay", "--weight", "ginibre", "--q", "2", "--z0", "0",
                "--m", "20,40", "--directions", "2", "--separations", "6",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["m"] == [20.0, 40.0]
    assert all(b < 0 for b in report["beta_over_sqrt_m"])
    assert "stability" in report


def test_sample_outputs(tmp_path, capsys):
    outdir = tmp_path / "samples"
    assert run(["sample", "--weight", "ginibre", "--q", "2", "--n", "20",
                "--m", "20", "--count", "3", "--seed", "7",
                "--outdir", str(outdir)]) == 0
    csvs = sorted(outdir.glob("*.csv"))
    assert len(csvs) == 3
    for path in csvs:
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 41  # header + 40 points
    sidecar = json.loads((outdir / "config-0000.json").read_text())
    assert sidecar["q"] == 2 and sidecar["n"] == 20 and sidecar["weight"] == "ginibre"


def test_a_failed_write_keeps_the_old_file(tmp_path):
    # the text goes to a temporary file first: a write that fails leaves
    # the old file whole and no temporary file behind
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        atomic_write_text(str(path), 123)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_sample_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(["sample", "--weight", "ginibre", "--q", "1", "--n", "6",
                    "--m", "6", "--count", "2", "--seed", "11",
                    "--outdir", str(d)]) == 0
    assert (d1 / "config-0001.csv").read_bytes() == (d2 / "config-0001.csv").read_bytes()


def test_runtime_imports_neither_scipy_nor_mpmath(tmp_path):
    # a fresh interpreter: the package and three subcommands load numpy and the
    # standard library only; before, np.unique in rate_fit loaded numpy.ma too
    script = f"""
import sys
import polykernel, polykernel.cli
out = {str(tmp_path)!r}
assert polykernel.cli.run(["intensity", "--weight", "ginibre", "--q", "2", "--n", "6",
                           "--m", "6", "--out", out + "/i.csv"]) == 0
assert polykernel.cli.run(["sample", "--weight", "ginibre", "--n", "4", "--m", "4",
                           "--outdir", out]) == 0
assert polykernel.cli.run(["blowup", "--weight", "ginibre", "--q", "2", "--z0", "0.1",
                           "--m", "10,20", "--out", out + "/b.json"]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("scipy", "mpmath") or name == "numpy.ma"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_selftest_fast(capsys):
    assert run(["selftest", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


@pytest.mark.parametrize("argv, code", [
    (["selftest", "--fast"], 0),
    (["kernel", "--weight", "ginibre", "--n", "4", "--m", "0", "--out", "x.csv"], 1),
], ids=["selftest", "bad-flag"])
def test_main_exits_with_the_code_of_run(monkeypatch, capsys, argv, code):
    # main is the console script's entry point: it reads sys.argv
    monkeypatch.setattr(sys, "argv", ["polykernel"] + argv)
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == code


def test_run_builds_its_parser_once():
    assert cli._run_parser() is cli._run_parser()
    assert cli.build_parser() is not cli.build_parser()
