"""Golden artifacts: the README's CLI block reproduces ``tests/golden/``.

Every command of the README's CLI block runs in-process through ``cli.run``
in a fresh directory, and each file it writes, and its stdout, is compared
with the committed copy.  Headers, text and integers must match exactly.
Floats may move by ``ULP_BUDGET`` units in the last place of the largest
magnitude in their column: a CSV column, a JSON key path, or the k-th
number of a stdout line.  A float column is one whose golden cells hold a
float that is not an integer.  ``tests/golden/regenerate.py`` rewrites the
files; a change that moves bits past the budget runs it, so the move shows
in the diff.
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).resolve().parent / "golden" / "regenerate.py")
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)

ULP_BUDGET = 16  # units in the last place of a column's largest magnitude
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity")


def _csv_cells(text: str):
    """(row, column, token) of a CSV file; the header is row 0, column "header"."""
    lines = text.splitlines()
    header = lines[0].split(",")
    yield 0, "header", lines[0]
    for row, line in enumerate(lines[1:], start=1):
        tokens = line.split(",")
        if len(tokens) != len(header):
            yield row, "width", f"{len(tokens)} fields"
        for column, token in zip(header, tokens):
            yield row, column, token


def _json_leaves(node, path: str, index: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, f"{path}.{key}", index)
        yield index, f"{path}{{}}", ",".join(node)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_leaves(value, f"{path}[]", f"{index}[{i}]")
        yield index, f"{path}[]#", str(len(node))
    else:
        yield index, path, json.dumps(node)


def _json_cells(text: str):
    """(row, column, token) of a JSON file: the column is the key path with
    list indices collapsed to [], the row is the list indices."""
    yield from _json_leaves(json.loads(text), "$", "")


def _text_cells(text: str):
    """(row, column, token) of stdout: each line is a row, its k-th number is
    column "number k", and the text between numbers is column "text"."""
    for row, line in enumerate(text.splitlines(), start=1):
        for k, token in enumerate(_NUMBER.findall(line)):
            yield row, f"number {k}", token
        yield row, "text", _NUMBER.sub("#", line)
    yield 0, "lines", str(len(text.splitlines()))


def _cells(path: Path, text: str):
    suffix = path.suffix
    reader = _csv_cells if suffix == ".csv" else _json_cells if suffix == ".json" else _text_cells
    return list(reader(text))


def _as_float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _float_columns(cells) -> dict:
    """Largest finite magnitude of each column that holds a non-integer float."""
    columns = {}
    for _, column, token in cells:
        x = _as_float(token)
        if x is not None and not (math.isfinite(x) and x == int(x) and "." not in token
                                  and "e" not in token.lower()):
            columns[column] = 0.0
    for _, column, token in cells:
        x = _as_float(token)
        if column in columns and x is not None and math.isfinite(x):
            columns[column] = max(columns[column], abs(x))
    return columns


def compare(name: str, golden: str, fresh: str) -> list[str]:
    """Every mismatch of ``fresh`` against ``golden``, naming file, row and column."""
    path = Path(name)
    old, new = _cells(path, golden), _cells(path, fresh)
    scale = _float_columns(old)
    problems = []
    if len(old) != len(new):
        problems.append(f"{name}: {len(old)} cells golden, {len(new)} fresh")
    for (row, column, want), (new_row, new_column, got) in zip(old, new):
        if (row, column) != (new_row, new_column):
            problems.append(f"{name} row {row} column {column!r}: layout differs, "
                            f"fresh has row {new_row} column {new_column!r}")
            break
        if want == got:
            continue
        a, b = _as_float(want), _as_float(got)
        if column in scale and a is not None and b is not None:
            if math.isfinite(a) and math.isfinite(b):
                ulps = abs(a - b) / np.spacing(scale[column])
                if ulps <= ULP_BUDGET:
                    continue
                why = f"{ulps:.3g} ulps of the column's largest magnitude {scale[column]:.17g}"
            else:
                why = "non-finite value changed"
        else:
            why = "must match exactly"
        problems.append(f"{name} row {row} column {column!r}: golden {want!r}, "
                        f"got {got!r} ({why})")
    return problems


def test_readme_cli_block_matches_goldens(tmp_path):
    codes = regenerate.run_commands(tmp_path)
    assert codes == {name: 0 for name in codes}
    golden_files = regenerate.artifacts(regenerate.GOLDEN)
    fresh_files = regenerate.artifacts(tmp_path)
    assert golden_files, "no golden artifacts: run tests/golden/regenerate.py"
    assert fresh_files == golden_files
    problems = []
    for rel in golden_files:
        problems += compare(str(rel), (regenerate.GOLDEN / rel).read_text(),
                            (tmp_path / rel).read_text())
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize("name, golden, fresh, moved", [
    ("a.csv", "x,y\n1,0.5\n2,0.25\n", "x,y\n1,0.5\n2,0.25000000000000006\n", None),
    ("a.csv", "x,y\n1,0.5\n2,0.25\n", "x,y\n1,0.5\n2,0.25000000000001\n", "row 2 column 'y'"),
    ("a.csv", "x,y\n1,0.5\n2,0.25\n", "x,y\n1,0.5\n3,0.25\n", "row 2 column 'x'"),
    ("a.csv", "x,y\n1,0.5\n", "x,z\n1,0.5\n", "row 0 column 'header'"),
    ("a.json", '{"m": [40, 80], "e": [0.5, 1.5]}',
     '{"m": [40, 80], "e": [0.5, 1.5000000000000002]}', None),
    ("a.json", '{"m": [40, 80], "e": [0.5, 1.5]}', '{"m": [40, 81], "e": [0.5, 1.5]}',
     "row [1] column '$.m[]'"),
    ("a.stdout", "slope = -0.25 (n=3)\n", "slope = -0.25000000000000006 (n=3)\n", None),
    ("a.stdout", "[PASS] q=1: trace\n", "[FAIL] q=1: trace\n", "row 1 column 'text'"),
])
def test_compare_names_file_row_and_column(name, golden, fresh, moved):
    # the budget admits a move of a few ulps and names anything else
    problems = compare(name, golden, fresh)
    if moved is None:
        assert problems == []
    else:
        assert problems[0].startswith(f"{name} {moved}:")
