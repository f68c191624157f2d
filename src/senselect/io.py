"""File formats: CSV and raw binary matrices, loss vectors, sample CSVs, and
JSON run reports.

Binary matrix layout: magic b"CSEL1", then two little-endian u64 (n, d),
then n*d little-endian float64 values row-major.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .core import Dataset, LossTable
from .selection import WeightedSample

MAGIC = b"CSEL1"
REPORT_SCHEMA_VERSION = 1


class DataFormatError(ValueError):
    """Malformed or inconsistent input file."""


def _is_binary(path: Path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(len(MAGIC)) == MAGIC


def load_matrix(path) -> Dataset:
    """Load a dataset from CSV (optional header row) or the binary format."""
    path = Path(path)
    if _is_binary(path):
        with open(path, "rb") as fh:
            fh.read(len(MAGIC))
            header = fh.read(16)
            if len(header) != 16:
                raise DataFormatError(f"{path}: truncated binary header")
            n, d = struct.unpack("<QQ", header)
            payload = np.fromfile(fh, dtype="<f8")
        if payload.size != n * d:
            raise DataFormatError(
                f"{path}: expected {n * d} values, found {payload.size}")
        rows = payload.reshape(n, d)
    else:
        rows = _load_csv_matrix(path)
    try:
        return Dataset(rows)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _load_csv_matrix(path: Path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    # line 1 is a header only when none of its fields is a number; a partly
    # numeric line is a garbled data row and is rejected below
    start = 0 if any(_is_number(tok) for tok in lines[0].split(",")) else 1
    rows = []
    width = None
    for ln in lines[start:]:
        try:
            row = [float(tok) for tok in ln.split(",")]
        except ValueError as exc:
            raise DataFormatError(f"{path}: unparsable row {ln!r}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataFormatError(f"{path}: ragged rows")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.asarray(rows)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def save_matrix(data: Dataset, path, binary: bool = False):
    path = Path(path)
    if binary:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<QQ", data.n, data.d))
            np.ascontiguousarray(data.rows, dtype="<f8").tofile(fh)
    else:
        with open(path, "w") as fh:
            for row in data.rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_vector(path, n: int | None = None,
                column: str | None = None) -> np.ndarray:
    """Read a vector of floats, any sign: one value per line, or a named CSV
    column.  With ``n``, it must hold exactly n values."""
    path = Path(path)
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    if column is not None:
        header = [h.strip() for h in lines[0].split(",")]
        if column not in header:
            raise DataFormatError(f"{path}: no column named {column!r}")
        col = header.index(column)
        raw = []
        for ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) <= col:
                raise DataFormatError(
                    f"{path}: row {ln!r} has no {column!r} column")
            raw.append(fields[col])
    else:
        raw = lines
    try:
        values = np.asarray([float(v) for v in raw])
    except ValueError as exc:
        raise DataFormatError(f"{path}: unparsable value") from exc
    if n is not None and values.size != n:
        raise DataFormatError(
            f"{path}: {values.size} values but dataset has {n} rows")
    return values


def load_losses(path, n: int | None = None, column: str | None = None):
    """Load a loss vector (finite, >= 0) as `read_vector` reads it."""
    values = read_vector(path, n, column)
    try:
        return LossTable(values)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_sample(sample: WeightedSample, path):
    """Sample CSV: one `index,weight` line per drawn point, weights written
    with the shortest round-tripping representation."""
    with open(path, "w") as fh:
        fh.write("index,weight\n")
        for i, w in zip(sample.indices, sample.weights):
            fh.write(f"{int(i)},{float(w)!r}\n")


def load_sample(path, n: int | None = None) -> WeightedSample:
    """Load a sample CSV; with ``n``, every index must be a row of an
    n-row dataset."""
    path = Path(path)
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "index,weight":
        raise DataFormatError(f"{path}: not a sample CSV")
    idx, w = [], []
    for ln in lines[1:]:
        try:
            a, b = ln.split(",")
            idx.append(int(a))
            w.append(float(b))
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad sample row {ln!r}") from exc
        if idx[-1] < 0 or (n is not None and idx[-1] >= n):
            rows = "" if n is None else f" for {n} rows"
            raise DataFormatError(
                f"{path}: sample index {idx[-1]} out of range{rows}")
    return WeightedSample(np.asarray(idx, dtype=np.intp), np.asarray(w))


def save_report(report: dict, path):
    doc = {"schema_version": REPORT_SCHEMA_VERSION, **report}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
