"""The contract of cvsim's CSV files: one header line, then one LF-terminated
line per row of ``,``-separated numbers, each of which float() reads back as
the double that was written, nan, inf and -inf for the non-finite ones.  The
spelling of a number is not part of it: '%.17g' and orjson's shortest digits
write one file alike under it."""

import hashlib
import re

import numpy as np

#: a number token of a data line: digits, or a non-finite double
_NUMBER = re.compile(r"-?(?:[0-9][0-9.eE+-]*|inf)|nan")


def read_back(text: str) -> tuple[str, np.ndarray]:
    """The header and the (rows, columns) doubles of a CSV file's text, each
    cell read by float(); every line, the last too, ends in LF, and every
    row has one cell per header column."""
    header, _, body = text.partition("\n")
    width = header.count(",") + 1
    lines = body.split("\n")
    assert lines.pop() == "", "the last line does not end in LF"
    assert all(line.count(",") == width - 1 for line in lines), "a row is not as wide as the header"
    cells = ",".join(lines).split(",") if lines else []
    values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    return header, values.reshape(-1, width)


def masked(text: str) -> str:
    """``text`` with each number token past the header replaced by 0."""
    header, _, body = text.partition("\n")
    return header + "\n" + _NUMBER.sub("0", body)


def csv_digests(text: str) -> tuple[str, str]:
    """SHA-256 of what a CSV file promises: the doubles it reads back as,
    row by row, and its layout, number tokens masked."""
    _, values = read_back(text)
    return (hashlib.sha256(values.astype("<f8").tobytes()).hexdigest(),
            hashlib.sha256(masked(text).encode()).hexdigest())
