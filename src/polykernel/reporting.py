"""Deterministic serialization helpers shared by the report-producing modules.

JSON artifacts are ``json.dumps`` output (insertion order, NaN and Infinity
spelled as Python's json module does), and every float of a CSV cell or a
summary line is ``repr(float(x))``: the shortest text that reads back as the
same double, so identical runs produce byte-identical files.  All file writes
go through a temp-file-plus-rename so readers never observe partial output.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    """Rows of numbers, each cell ``repr(float(x))``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
