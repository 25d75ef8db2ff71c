"""The CSV codec shared by the homodyne and Wigner files: one header line,
then one LF-terminated line of numbers per row, written and parsed in
blocks of rows so that memory stays bounded whatever the file size."""

from __future__ import annotations

import warnings
from itertools import islice

import numpy as np

from .errors import MalformedInputError

#: CSV number format, 17 significant digits, which round-trips every double
_NUMBER = "%.17g"
#: rows formatted or parsed together
_BLOCK = 8192


def _write_csv(path: str, header, fields, blocks) -> None:
    """Write a CSV file: the header, then one LF-terminated line per row.

    ``fields`` are the %-formats of the columns; ``blocks`` yields blocks of
    row tuples, each formatted by a single join, so memory stays bounded by
    one block whatever the file size.
    """
    line = ",".join(fields) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for rows in blocks:
            fh.write("".join(map(line.__mod__, rows)))


def _row_blocks(*columns: np.ndarray):
    """Rows of equal-length columns as tuples of Python scalars, _BLOCK at a time."""
    for first in range(0, len(columns[0]), _BLOCK):
        part = slice(first, first + _BLOCK)
        yield zip(*(column[part].tolist() for column in columns))


def _parse_block(lines: list[str], width: int, lineno: int) -> np.ndarray:
    """One block of CSV lines as a (rows, width) float array; blank lines are
    skipped.  ``lineno`` is the file line number of ``lines[0]``."""
    try:
        with warnings.catch_warnings():
            # a block of blank lines holds no data; that is not an error here
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] == width or rows.size == 0:
            return rows.reshape(-1, width)
    except ValueError:
        pass
    # scan this block only, line by line, for the first bad line
    for offset, line in enumerate(lines):
        text = line.rstrip("\n")
        if not text:
            continue
        fields = text.count(",") + 1
        if fields != width:
            raise MalformedInputError(
                f"line {lineno + offset}: expected {width} fields, got {fields}: {text!r}"
            )
        try:
            np.loadtxt([text], delimiter=",", comments=None)
        except ValueError:
            raise MalformedInputError(f"line {lineno + offset}: cannot parse {text!r}") from None
    raise MalformedInputError(f"lines {lineno}-{lineno + len(lines) - 1}: cannot parse")


def _read_csv(path: str, header, what: str) -> list[np.ndarray]:
    """Columns of a CSV file written by _write_csv, as float arrays.

    Lines are read and parsed _BLOCK at a time, so no more than one block of
    text is held; the parsed blocks take as much memory as the columns
    returned, until they are joined.  CRLF line ends and blank lines are accepted;
    a wrong header, a row without exactly one field per header column, or a
    file without data rows raises MalformedInputError naming the line.
    """
    width = len(header)
    blocks = []
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if first.rstrip("\n").split(",") != header:
            raise MalformedInputError(
                f"line 1: expected header {','.join(header)}, got {first.rstrip()!r}"
            )
        lineno = 2
        while lines := list(islice(fh, _BLOCK)):
            blocks.append(_parse_block(lines, width, lineno))
            lineno += len(lines)
    if not sum(len(block) for block in blocks):
        raise MalformedInputError(f"no data rows in {what} file")
    return [np.concatenate([block[:, j] for block in blocks]) for j in range(width)]
