"""Rewrite the golden artifacts of the README's CLI block.

Runs every ``polykernel ...`` line of the README's "Command-line interface"
block in-process through ``cli.run``, in a fresh directory, and stores each
command's files and its stdout (as ``<subcommand>.stdout``) next to this
script.  ``tests/test_golden.py`` reruns the same commands and compares.

A change that moves bits on purpose runs this script, so the move shows in
its git diff:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
REPO = GOLDEN.parents[1]
KEEP = {"regenerate.py", "__pycache__"}  # not artifacts


def readme_commands() -> list[list[str]]:
    """The argv of every command in the README's CLI block, in order."""
    readme = (REPO / "README.md").read_text()
    block = readme.split("## Command-line interface", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("polykernel ")]


def run_commands(workdir: Path) -> dict[str, int]:
    """Run the README commands in ``workdir``; write each one's stdout there
    as ``<subcommand>.stdout`` and return each one's exit code."""
    from polykernel import cli

    codes = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in readme_commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes[argv[0]] = cli.run(argv)
            Path(f"{argv[0]}.stdout").write_text(out.getvalue())
    finally:
        os.chdir(previous)
    return codes


def artifacts(root: Path) -> list[Path]:
    """Every artifact under ``root``, as sorted paths relative to it."""
    return sorted(p.relative_to(root) for p in root.rglob("*")
                  if p.is_file() and not KEEP & set(p.relative_to(root).parts))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        codes = run_commands(Path(tmp))
        failed = {name: code for name, code in codes.items() if code != 0}
        if failed:
            print(f"commands failed, goldens left as they were: {failed}",
                  file=sys.stderr)
            return 1
        for old in artifacts(GOLDEN):
            (GOLDEN / old).unlink()
        for new in artifacts(Path(tmp)):
            (GOLDEN / new).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / new, GOLDEN / new)
    for path in artifacts(GOLDEN):
        print(path)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
