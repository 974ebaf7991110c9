"""CSV emission/ingestion: '#'-prefixed metadata, then header, then rows.

Floats are written with 17 significant digits, so round-tripping is exact
and deterministic runs produce byte-identical files.  Text that is empty
or holds a comma, a quote or a line break is quoted, its quotes doubled.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    """One field; text that is empty (a lone empty field would be an empty
    line) or holds a comma, a quote or a line break is quoted, its quotes
    doubled (``csv.QUOTE_MINIMAL``)."""
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if not text or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# rows formatted per write: keeps the Python floats and row strings alive
# at once to a few hundred kB; batches of 4096 rows (~4 MB) fragmented the
# heap and raised the peak RSS of the commands run after them
ROWS_PER_WRITE = 256


def _column(a):
    """printf format of one column and its converter to Python values;
    ``_fmt`` decides everything that is not a float or integer array."""
    if a.dtype.kind == "f":
        return FLOAT_FMT, np.ndarray.tolist
    if a.dtype.kind in "iu":
        return "%d", np.ndarray.tolist
    return "%s", lambda part: [_fmt(v) for v in part]


def write_csv(path, columns: dict, metadata: dict | None = None) -> None:
    """Write named columns (equal-length 1-d arrays) with metadata header."""
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValueError("all CSV columns must have equal length")
    formats, converters = zip(*map(_column, arrays))
    row = ",".join(formats) + "\n"
    with path.open("w", encoding="utf-8") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key} = {json.dumps(value)}\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, length, ROWS_PER_WRITE):
            parts = [conv(a[lo:lo + ROWS_PER_WRITE])
                     for conv, a in zip(converters, arrays)]
            fh.write("".join(row % cells for cells in zip(*parts)))


def read_csv(path):
    """Inverse of write_csv: (metadata dict, {name: array}).

    Columns parse as float arrays where possible and stay as string arrays
    otherwise (e.g. status or mode tags).
    """
    meta = {}
    with Path(path).open(encoding="utf-8", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = json.loads(value.strip())
            line = fh.readline()
        reader = csv.reader([line, *fh])
        header = next(reader, [])
        rows = [r for r in reader if r]
    columns = {}
    for i, name in enumerate(header):
        raw_col = [r[i] for r in rows]
        try:
            columns[name] = np.asarray(raw_col, dtype=float)
        except ValueError:
            columns[name] = np.asarray(raw_col, dtype=object)
    return meta, columns
