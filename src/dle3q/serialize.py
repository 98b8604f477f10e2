"""Deterministic JSON / CSV emission.

Floats are always printed in scientific notation with 10 significant digits
so that identical inputs produce byte-identical output across runs.

A ``Table`` of equal-length numpy columns (float or bool) is emitted without
building a Python object per row. ``json_dumps`` accepts it anywhere in a
document and writes it as the list of row objects the generic emitter would
write at that depth; ``csv_lines`` accepts it as its rows. Each row goes
through one ``%`` template built from the column names, the depth and the
dtypes, so the checks ``format_float`` makes per value are made per column
instead: ``np.isfinite`` must hold over every float column (the same
``ValueError`` otherwise), and ``+ 0.0`` folds -0.0 to 0.0.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True, eq=False)
class Table:
    """Named, equal-length 1-D numpy columns of dtype float or bool; row i is index i."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("a table needs at least one column")
        shapes = {np.shape(values) for values in self.columns.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"table columns must be 1-D and of equal length, got {shapes}")


def _table_cells(columns) -> tuple[list[str], list[list]]:
    """The % conversion and the Python values of each column, all checked."""
    specs, cells = [], []
    for values in columns:
        values = np.asarray(values)
        if values.dtype.kind == "b":
            specs.append("%s")
            cells.append(np.where(values, "true", "false").tolist())
        elif values.dtype.kind == "f":
            finite = np.isfinite(values)
            if not finite.all():
                bad = float(values[~finite][0])
                raise ValueError(f"refusing to serialize non-finite value {bad!r}")
            specs.append("%.9e")
            cells.append((values + 0.0).tolist())  # + 0.0 folds -0.0
        else:
            raise TypeError(f"unsupported column dtype {values.dtype}")
    return specs, cells


def _json_table(table: Table, pad: str, child_pad: str, field_pad: str) -> str:
    specs, cells = _table_cells(table.columns.values())
    if not cells[0]:
        return "[]"
    fields = ",\n".join(f'{field_pad}"{name.replace("%", "%%")}": {spec}'
                        for name, spec in zip(table.columns, specs))
    template = f"{child_pad}{{\n{fields}\n{child_pad}}}"
    return "[\n" + ",\n".join([template % row for row in zip(*cells)]) + "\n" + pad + "]"


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize nested dicts/lists/Tables/scalars with fixed float formatting."""
    out = io.StringIO()

    def emit(node, depth: int) -> None:
        pad = " " * (indent * depth)
        child_pad = " " * (indent * (depth + 1))
        if isinstance(node, Table):
            out.write(_json_table(node, pad, child_pad, " " * (indent * (depth + 2))))
        elif isinstance(node, dict):
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


def csv_lines(header: list[str], rows: list[list] | Table) -> str:
    """CSV with the same scalar formatting as the JSON emitter (no quoting needed).

    None becomes an empty cell and strings are written as they are.  A Table
    as rows gives its columns in header order.
    """
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    if isinstance(rows, Table):
        specs, cells = _table_cells(rows.columns[name] for name in header)
        template = ",".join(specs) + "\n"
        out.write("".join([template % row for row in zip(*cells)]))
    else:
        for row in rows:
            out.write(",".join("" if v is None else v if isinstance(v, str) else _format_value(v)
                               for v in row) + "\n")
    return out.getvalue()
