"""Deterministic serialization helpers shared by the report-producing modules.

JSON output keeps dict insertion order and prints floats with 17 significant
digits so identical runs produce byte-identical files; all file writes go
through a temp-file-plus-rename so readers never observe partial output.
"""

from __future__ import annotations

import math
import os
import tempfile


def format_float(x: float) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    return repr(x)


def json_dumps(obj) -> str:
    """Minimal JSON writer with fixed float formatting and field order."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        items = [f"{json_dumps(str(k))}: {json_dumps(v)}" for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return "[" + ", ".join(map(format_float, obj)) + "]"
        return "[" + ", ".join(json_dumps(v) for v in obj) + "]"
    if hasattr(obj, "tolist"):
        return json_dumps(obj.tolist())
    if hasattr(obj, "item"):
        return json_dumps(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(float(x)) if isinstance(x, (float, int)) and not isinstance(x, bool)
            else str(x)
            for x in row
        ))
    atomic_write_text(path, "\n".join(lines) + "\n")
