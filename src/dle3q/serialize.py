"""Deterministic JSON / CSV emission.

Floats are always printed in scientific notation with 10 significant digits
(``format_float``) so that identical inputs produce byte-identical output
across runs.

Both formats are produced as a sequence of text parts: ``json_dumps`` and
``csv_lines`` join them, and ``sweep`` writes them out as they come, so a
table's text is never held whole.

A ``Table`` of equal-length numpy columns (float or bool) is emitted without
building a Python object per row or per value. ``json_dumps`` accepts it
anywhere in a document and writes it as the list of row objects the generic
emitter would write at that depth; ``csv_lines`` accepts it as its rows. A
table is formatted ``TABLE_CHUNK_ROWS`` rows at a time, each chunk as one
``uint8`` matrix with one row per table row: the literal pieces between
values (the JSON row separator and field prefixes, the CSV commas and
newline) fill fixed columns, and each value fills a fixed-width slot of
ASCII codes. The matrix is a view of one ``bytearray``; unused slot bytes
are NUL, and one ``bytearray.replace`` on it drops them, which leaves the
UTF-8 text of one part to decode.
``_float_codes`` fills the float slots as a vectorized ``%.9e``; the few
values it cannot round with certainty go through ``format_float``, so the
bytes are those of the per-value emitter that ``report`` and ``validate``
use. Those are the near-ties, subnormals and extremes, and also the rows
whose exponent estimate misses or whose rounding carries into an eleventh
digit. The checks ``format_float`` makes per value are made per column
chunk: ``np.isfinite`` must hold over every float column (the same
``ValueError`` otherwise), and -0.0 prints as 0.0.
"""
from __future__ import annotations

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


#: Bytes in a float slot: sign, digit, '.', nine digits, 'e', exponent sign and 3 digits.
_FLOAT_WIDTH = 17


def _put_digits(q: np.ndarray, out: np.ndarray, places: tuple[int, ...]) -> None:
    """Write the last len(places) decimal digits of q as ASCII into out[:, places]."""
    for place in reversed(places):
        rest = q // 10
        out[:, place] = q - rest * 10 + ord("0")
        q = rest


def _float_codes(x: np.ndarray) -> np.ndarray:
    """The ASCII codes of format_float(v) for every v of a finite 1-D float64 array.

    Row i of the (len(x), 17) result holds the sign, first digit, '.', nine
    digits, 'e', exponent sign and three exponent digits of x[i], with NUL
    for a plus sign and for the hundreds digit of a two-digit exponent; or
    format_float's text, padded with NUL.
    """
    a = np.abs(x)
    nonzero = a > 0
    # e estimates the decimal exponent and d the ten mantissa digits; a zero
    # keeps e = 0. log10 can miss by one next to a power of ten, and rint can
    # round s up to 1e10: the rows where s = a * 10**k or d falls outside
    # [1e9, 1e10) are sent to format_float below.
    e = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.int64)
    k = 9 - e
    s = a * np.power(10.0, np.clip(k, -300, 300))
    d = np.rint(s)
    out = np.empty((x.size, _FLOAT_WIDTH), dtype=np.uint8)
    out[:, 0] = np.where(x < 0, ord("-"), 0)
    out[:, 2] = ord(".")
    out[:, 12] = ord("e")
    out[:, 13] = np.where(e < 0, ord("-"), ord("+"))
    # the ten mantissa digits as two int32 halves of five
    head = np.floor(d / 1e5)
    _put_digits(head.astype(np.int32), out, (1, 3, 4, 5, 6))
    _put_digits((d - head * 1e5).astype(np.int32), out, (7, 8, 9, 10, 11))
    exponent = np.abs(e).astype(np.int32)
    _put_digits(exponent, out, (14, 15, 16))
    out[:, 14] *= exponent >= 100
    # np.power is within 1 ulp of 10**k for |k| <= 300 and the product rounds
    # once, so s is within a few ulp of the exact a * 10**k: under 1e-5 for
    # s < 1e10. Where s is in [1e9, 1e10), d < 1e10 and frac(s) is more than
    # 1e-4 from 1/2, rint therefore rounds as %.9e rounds the exact value,
    # with e its exponent. Every other row goes through format_float: a missed
    # exponent, a d rounded up to 1e10, a near-tie, or a 10**k out of range
    # (subnormals, extremes).
    slow = np.flatnonzero((np.abs(s - np.floor(s) - 0.5) <= 1e-4) | (np.abs(k) > 300)
                          | ((s < 1e9) & nonzero) | (d >= 1e10))
    text = [format_float(v) for v in x[slow].tolist()]
    out[slow] = np.array(text, dtype=f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(-1, _FLOAT_WIDTH)
    return out


def _cell_codes(values: np.ndarray) -> np.ndarray:
    """The (rows, slot width) ASCII codes of one table column, checked."""
    if values.dtype.kind == "b":
        return np.frombuffer(b"false\0true", dtype=np.uint8).reshape(2, 5)[values.astype(np.intp)]
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[~finite][0])
            raise ValueError(f"refusing to serialize non-finite value {bad!r}")
        return _float_codes(values)
    raise TypeError(f"unsupported column dtype {values.dtype}")


#: Rows of a Table formatted into one part of its text.
TABLE_CHUNK_ROWS = 4096


def _table_parts(columns, pieces: list[str]):
    """Every row as pieces[0], cell 0, pieces[1], ..., cell k-1, pieces[k], in parts.

    Each part holds the text of TABLE_CHUNK_ROWS rows, fewer in the last. Its
    rows are one uint8 matrix over a bytearray: every row starts as a copy of
    one template row that holds the pieces and a NUL slot per cell, and each
    column's codes then fill its slots. Dropping every NUL from the bytearray
    leaves the text.
    """
    if any("\0" in piece for piece in pieces):
        raise ValueError("table column names must not contain NUL")
    # an empty table still has its column types checked, as one empty part
    for start in range(0, len(columns[0]) or 1, TABLE_CHUNK_ROWS):
        cells = [_cell_codes(np.asarray(values)[start:start + TABLE_CHUNK_ROWS])
                 for values in columns]
        template, slots = bytearray(pieces[0].encode()), []
        for cell, piece in zip(cells, pieces[1:]):
            slots.append(slice(len(template), len(template) + cell.shape[1]))
            template += bytes(cell.shape[1]) + piece.encode()
        text = bytearray(len(cells[0]) * len(template))
        matrix = np.frombuffer(text, dtype=np.uint8).reshape(len(cells[0]), len(template))
        matrix[:] = np.frombuffer(template, dtype=np.uint8)
        for cell, slot in zip(cells, slots):
            matrix[:, slot] = cell
        yield text.replace(b"\0", b"").decode()


def _json_table(table: Table, pad: str, child_pad: str, field_pad: str):
    """The parts of a Table's JSON text at one nesting depth."""
    first, *rest = table.columns
    pieces = ([f',\n{child_pad}{{\n{field_pad}"{first}": ']
              + [f',\n{field_pad}"{name}": ' for name in rest]
              + [f"\n{child_pad}}}"])
    parts = _table_parts(list(table.columns.values()), pieces)
    head = next(parts)  # empty only for an empty table, which is written []
    yield "[" + head[1:]  # the first row has no separator: "[\n" opens it
    yield from parts
    yield f"\n{pad}]" if head else "]"


#: One level of JSON nesting.
_INDENT = "  "


def _emit(node, depth: int):
    """The parts of node's JSON text, nested depth levels deep."""
    pad = _INDENT * depth
    child_pad = _INDENT * (depth + 1)
    if isinstance(node, Table):
        yield from _json_table(node, pad, child_pad, _INDENT * (depth + 2))
    elif isinstance(node, (dict, list)):
        if isinstance(node, dict):
            brackets, items = "{}", [(f'"{key}": ', value) for key, value in node.items()]
        else:
            brackets, items = "[]", [("", value) for value in node]
        if not items:
            yield brackets
            return
        for i, (prefix, value) in enumerate(items):
            yield (",\n" if i else brackets[0] + "\n") + child_pad + prefix
            yield from _emit(value, depth + 1)
        yield f"\n{pad}{brackets[1]}"
    else:
        yield _format_value(node)


def _json_parts(obj):
    """The parts of json_dumps(obj), in order."""
    yield from _emit(obj, 0)
    yield "\n"


def json_dumps(obj) -> str:
    """Serialize nested dicts/lists/Tables/scalars with fixed float formatting."""
    return "".join(_json_parts(obj))


def _csv_parts(header: list[str], rows: list[list] | Table):
    """The parts of csv_lines(header, rows), in order."""
    yield ",".join(header) + "\n"
    if isinstance(rows, Table):
        yield from _table_parts([rows.columns[name] for name in header],
                                ["", *[","] * (len(header) - 1), "\n"])
    else:
        yield from (",".join("" if v is None else v if isinstance(v, str) else _format_value(v)
                             for v in row) + "\n" for row in rows)


def csv_lines(header: list[str], rows: list[list] | Table) -> str:
    """CSV with the same scalar formatting as the JSON emitter (no quoting needed).

    None becomes an empty cell and strings are written as they are.  A Table
    as rows gives its columns in header order.
    """
    return "".join(_csv_parts(header, rows))
