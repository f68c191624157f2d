"""File formats: CSV and raw binary matrices, loss vectors, sample CSVs, and
JSON run reports.

Binary matrix layout: magic b"CSEL1", then two little-endian u64 (n, d),
then n*d little-endian float64 values row-major.

Every CSV matrix and every loss or target vector is parsed by one helper,
`_parse_rows`: the stripped, non-blank lines go to numpy's C reader
(`np.loadtxt`), which rounds each field to the nearest double as Python's
``float`` does.  It strips whitespace around fields, so CRLF endings and
padded fields read as before.  Unlike ``float``, it rejects underscore
digit groups (``1_000``) and non-ASCII digits, and it strips the ASCII
separator controls U+001C..U+001F around a field.  When the reader fails
on a matrix, the lines are checked again, in blocks and then one by one
inside the failing block, to name the first offending one in file order.
"""

from __future__ import annotations

import json
import math
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
    data_lines = lines[start:]
    if not data_lines:
        raise DataFormatError(f"{path}: no data rows")
    try:
        return _parse_rows(data_lines)
    except ValueError as exc:
        _raise_first_bad_row(path, data_lines)
        # the line check finds every failure the reader reports; this keeps
        # any other one a DataFormatError
        raise DataFormatError(f"{path}: {exc}") from exc


def _parse_rows(lines: list[str]) -> np.ndarray:
    """Comma-separated ``lines`` (stripped, none blank) as an n x d float64
    array; ValueError when a field is not a number or the rows differ in
    width.  A blank string would be skipped, as a blank line is."""
    if not lines:  # loadtxt would warn that the input held no data
        return np.empty((0, 1))
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                      dtype=np.float64)


def _raise_first_bad_row(path: Path, lines: list[str]):
    """Raise the error for the first line, in file order, that does not
    parse or differs in width from the first line.

    The lines are parsed in blocks of about sqrt(len(lines)), and only the
    block that fails is parsed line by line, so about 2 sqrt(len(lines))
    reader calls find the line.  A block that parses has one width, that
    of its first line."""
    def parse_line(ln: str) -> np.ndarray:
        try:
            return _parse_rows([ln])
        except ValueError as exc:
            raise DataFormatError(f"{path}: unparsable row {ln!r}") from exc

    width = None
    step = max(1, math.isqrt(len(lines)))
    for start in range(0, len(lines), step):
        block = lines[start:start + step]
        try:
            parsed = [_parse_rows(block)]
        except ValueError:
            parsed = map(parse_line, block)
        for rows in parsed:
            width = rows.shape[1] if width is None else width
            if rows.shape[1] != width:
                raise DataFormatError(f"{path}: ragged rows")


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


def read_vector(path, n: int | None = None) -> np.ndarray:
    """Read a vector of floats, any sign, one value per line.  With ``n``,
    it must hold exactly n values."""
    path = Path(path)
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    try:
        values = _parse_rows(lines)
    except ValueError as exc:
        raise DataFormatError(f"{path}: unparsable value") from exc
    if values.shape[1] != 1:  # a value line holding a comma
        raise DataFormatError(f"{path}: unparsable value")
    values = values.ravel()
    if n is not None and values.size != n:
        raise DataFormatError(
            f"{path}: {values.size} values but dataset has {n} rows")
    return values


def load_losses(path, n: int | None = None):
    """Load a loss vector (finite, >= 0) as `read_vector` reads it."""
    values = read_vector(path, n)
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
    """Load a sample CSV; every weight must be finite (of any sign), and
    with ``n`` every index a row of an n-row dataset."""
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
        if not math.isfinite(w[-1]):
            raise DataFormatError(f"{path}: non-finite weight in row {ln!r}")
        if idx[-1] < 0 or (n is not None and idx[-1] >= n):
            rows = "" if n is None else f" for {n} rows"
            raise DataFormatError(
                f"{path}: sample index {idx[-1]} out of range{rows}")
    return WeightedSample(np.asarray(idx, dtype=np.intp), np.asarray(w))


def to_json(value, **kwargs) -> str:
    """Strict JSON text of ``value``: a float that is not finite, at any
    depth, is written as null, since JSON has no Infinity or NaN."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {key: finite(item) for key, item in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(item) for item in v]
        return v
    return json.dumps(finite(value), allow_nan=False, **kwargs)


def save_report(report: dict, path):
    """Write a run report, tagged with the schema version, by `to_json`."""
    doc = {"schema_version": REPORT_SCHEMA_VERSION, **report}
    with open(path, "w") as fh:
        fh.write(to_json(doc, indent=2, sort_keys=True) + "\n")


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
