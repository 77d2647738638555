"""CSV ingestion and emission for samples and result tables.

Format: UTF-8, comma separated, header row, one column per feature, optional
final column named ``target``.  Floats are written with 17 significant digits
so values round-trip exactly.

Reading parses every data row in one call of numpy's C text reader
(``np.loadtxt``), which reads the cells it accepts to the same floats as
``float()``.  Where that call fails, finds no rows or a width other than the
header's, the table is read again by a per-row walk (``csv.reader``, then
``float()`` on every cell), which names the first bad line.  The walk also
reads the cells only ``float()`` accepts, such as ``1_0`` or non-ASCII digits,
so both paths accept the same files and return the same arrays.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .core import LabelledSample, UnlabelledSample
from .errors import InvalidParameterError, MissingInputError

TARGET_COLUMN = "target"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _read_table(path: str | Path, what: str) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a CSV; every row must match the header width."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"{what} file not found: {path}", path=str(path))
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
            rest = fh.read()
        # loadtxt warns on a file with no data rows, and strips the ASCII
        # separators \x1c-\x1f around a number, which float() refuses
        if rest.strip("\r\n") and not any(c in rest for c in "\x1c\x1d\x1e\x1f"):
            data = np.loadtxt(io.StringIO(rest), delimiter=",", comments=None, quotechar='"',
                              ndmin=2, dtype=float)
            if data.shape[0] and data.shape[1] == len(header):
                return header, data
    except (StopIteration, ValueError):  # UnicodeDecodeError is a ValueError
        pass
    return _walk_table(path, what)


def _walk_table(path: Path, what: str) -> tuple[list[str], np.ndarray]:
    """``_read_table`` row by row, naming the first bad line."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = [(reader.line_num, row) for row in reader if row]
        except StopIteration:
            raise InvalidParameterError(f"empty CSV file: {path}") from None
        except UnicodeDecodeError as exc:
            raise InvalidParameterError(f"{what} file is not UTF-8 text: {path}: {exc}") from exc
    if not rows:
        raise InvalidParameterError(f"CSV file has a header but no data rows: {path}")
    data = np.empty((len(rows), len(header)))
    for i, (line, row) in enumerate(rows):
        if len(row) != len(header):
            raise InvalidParameterError(
                f"line {line} has {len(row)} cells but the header has {len(header)}: {path}"
            )
        try:
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise InvalidParameterError(f"non-numeric cell on line {line} of {path}: {exc}") from exc
    return header, data


def read_sample_csv(path: str | Path) -> LabelledSample | UnlabelledSample:
    """Load a sample; the presence of a final ``target`` column decides its kind."""
    path = Path(path)
    header, data = _read_table(path, "sample")
    if header[-1] == TARGET_COLUMN:
        if data.shape[1] < 2:
            raise InvalidParameterError(f"labelled CSV needs at least one feature column: {path}")
        return LabelledSample(inputs=data[:, :-1], targets=data[:, -1], source_id=str(path))
    return UnlabelledSample(inputs=data, source_id=str(path))


def write_sample_csv(sample: LabelledSample | UnlabelledSample, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    labelled = isinstance(sample, LabelledSample)
    header = [f"x{i}" for i in range(sample.dim)]
    if labelled:
        header.append(TARGET_COLUMN)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(sample.m):
            row = [format_float(v) for v in sample.inputs[i]]
            if labelled:
                row.append(format_float(sample.targets[i]))
            writer.writerow(row)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Load a plain numeric matrix CSV (header row, no target column)."""
    return _read_table(path, "matrix")[1]


def append_csv_row(path: str | Path, header: list[str], row: list[str]) -> None:
    """Append one row, writing the header first on a fresh file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists()
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        writer.writerow(row)
