"""The CSV reader against a per-row reference: same arrays, same errors."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from approx_sense.dataio import _read_table
from approx_sense.errors import ApproxSenseError, InvalidParameterError, MissingInputError


def reference_read_table(path: str | Path, what: str) -> tuple[list[str], np.ndarray]:
    """The reader as a per-row walk: csv.reader, then float() on every cell."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"{what} file not found: {path}", path=str(path))
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


def _outcome(read, path):
    try:
        header, data = read(path, "sample")
    except ApproxSenseError as exc:
        return ("error", exc.code, exc.message)
    return ("table", header, data.shape, data.dtype.str, data.flags.c_contiguous, data.tobytes())


# cells float() reads, and cells near them that it refuses; quotes, '#', NUL,
# underscores, non-ASCII digits and spaces, and the ASCII separators \x1c-\x1f
# sit where a faster parser could differ
CELLS = ["0", "0.5", "-1.25", "1e-300", "1e400", "-0.0", " 2.5 ", "\t3", "+7", ".5", "5.",
         "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1_0", "1__0", "\u0661", "\xa01",
         "1\x0b", "0\x1e", "\x1c1", "", " ", "abc", "0x1p3", "1d5", "#1", "1#", "0\x00",
         '"0.5"', '"1"2', '1"2"', ' "1"', '"1" ', '"1,5"', '"1\n"', '""', '"', "1 2"]
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 3))
    ending = draw(st.sampled_from(ENDINGS))
    numbers = st.floats(allow_nan=False, width=64).map(lambda x: format(x, ".17g"))
    cell = st.one_of(numbers, numbers, st.sampled_from(CELLS))
    lines = [",".join(f"x{j}" for j in range(width))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row", "row", "row", "ragged", "blank", "spaces"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" " * draw(st.integers(1, 3)))
        else:
            n = width if kind == "row" else draw(st.integers(1, width + 2))
            lines.append(",".join(draw(st.lists(cell, min_size=n, max_size=n))))
    text = ending.join(lines) + draw(st.sampled_from(["", ending, ending * 2]))
    data = text.encode()
    if draw(st.integers(0, 19)) == 0:  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
@example(b"")
@example(b"x0,x1\n")
@example(b"x0,x1\r\n\r\n")
@example(b"x0,x1\n1_0,\xd9\xa1\n")  # cells only float() reads
@example(b"x0,x1\n0.5,0.25,\n")
@example(b"x0\n0\x1e\n")  # float() refuses the separator that numpy strips
@example(b"x0\n0.5,0.25\n")
@example(b"\xef\xbb\xbfx0\n0.5\n")  # a BOM stays part of the first header cell
def test_reader_matches_the_per_row_reference(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    assert _outcome(_read_table, path) == _outcome(reference_read_table, path)


def test_missing_file_is_missing_input(tmp_path):
    path = tmp_path / "absent.csv"
    assert _outcome(_read_table, path) == _outcome(reference_read_table, path)
    assert _outcome(_read_table, path)[1] == "missing_input"
