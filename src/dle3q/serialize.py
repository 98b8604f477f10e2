"""Deterministic JSON / CSV emission.

Floats are always printed in scientific notation with 10 significant digits
so that identical inputs produce byte-identical output across runs.
"""
from __future__ import annotations

import io
import math


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.9e}"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"unsupported scalar {value!r}")


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize nested dicts/lists/scalars with fixed float formatting."""
    out = io.StringIO()

    def emit(node, depth: int) -> None:
        pad = " " * (indent * depth)
        child_pad = " " * (indent * (depth + 1))
        if isinstance(node, dict):
            if not node:
                out.write("{}")
                return
            out.write("{\n")
            for i, (key, value) in enumerate(node.items()):
                out.write(f'{child_pad}"{key}": ')
                emit(value, depth + 1)
                out.write(",\n" if i < len(node) - 1 else "\n")
            out.write(pad + "}")
        elif isinstance(node, (list, tuple)):
            if not node:
                out.write("[]")
                return
            out.write("[\n")
            for i, value in enumerate(node):
                out.write(child_pad)
                emit(value, depth + 1)
                out.write(",\n" if i < len(node) - 1 else "\n")
            out.write(pad + "]")
        else:
            out.write(_format_value(node))

    emit(obj, 0)
    out.write("\n")
    return out.getvalue()


def csv_lines(header: list[str], rows: list[list]) -> str:
    """CSV with the same scalar formatting as the JSON emitter (no quoting needed).

    None becomes an empty cell and strings are written as they are.
    """
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join("" if v is None else v if isinstance(v, str) else _format_value(v)
                           for v in row) + "\n")
    return out.getvalue()
