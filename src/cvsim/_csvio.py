"""The CSV codec shared by the homodyne and Wigner files: one header line,
then one LF-terminated line of numbers per row, written and parsed in
blocks of rows so that memory stays bounded whatever the file size.

Numbers are written as '%.17g' writes them, byte for byte, but without
formatting each float in Python: '%.17g' % x is the integer D = |x| * 10**(16-k)
rounded half-even to 17 digits, with k the decimal exponent, plus a sign, a
decimal point, trailing zeros dropped and an exponent for k < -4 or k > 16.
D and k are computed for a whole block in numpy (`_decimal_digits`), and the
block is written by one %-format of a template of integer fields.  The few
cells whose digits cannot be certain that way go through '%.17g' itself.
"""

from __future__ import annotations

import functools
import sys
import warnings
from itertools import islice

import numpy as np

from .errors import MalformedInputError

#: CSV number format, 17 significant digits, which round-trips every double
_NUMBER = "%.17g"
#: rows parsed together
_BLOCK = 8192
#: rows formatted together; with 8192-row blocks the writer's buffers left the
#: heap such that a later 1e6-row read in the same process peaked 8 MB higher
#: in 4 of 14 benchmark runs (homodyne-gaussian-1e6, seed 9001, 2-vCPU VM),
#: in 0 of 22 with 4096, which costs 5-8% of the writer's time
_WRITE_BLOCK = 4096

#: 10**0 .. 10**17, exact in int64
_POW10 = np.array([10**i for i in range(18)], dtype=np.int64)
#: decimal scalings q = 16 - k of the normal doubles, k from 308 down to -308
_Q_MIN, _Q_MAX = -292, 324
#: how close to a rounding tie a scaled value may come before it is left to
#: Python; the double-double product errs by less than 2**-47 (see below)
_TIE_MARGIN = 2.0**-30
#: Veltkamp's splitting constant 2**27 + 1
_SPLIT = 134217729.0
#: a cell's template is _pieces()[((2 * sign + exponent form) * _HEADS + head)
#: * _ZEROS + zeros]: head 0-9 is that integer part, _HEAD_INT a %d of it;
#: zeros counts the fraction's leading zeros, _NO_FRACTION drops the point
_HEAD_INT, _HEADS = 10, 11
_NO_FRACTION, _ZEROS = 16, 17


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """10**q = (th + tl) * 2**s for q in [_Q_MIN, _Q_MAX], th in [1, 2].

    th is the double nearest 10**q * 2**-s and tl the double nearest the
    rest, both rounded by Python's exact int division, so th + tl is within
    2**-106 * th of 10**q * 2**-s; tl is 0 for q in [0, 22], where 10**q
    is itself a double.  th comes also as Veltkamp's split thh + thl.
    Returns (th, thh, thl, tl, s), indexed by q - _Q_MIN.
    """
    rows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            s = (10**q).bit_length() - 1
            num, den = 10**q, 1 << s
        else:
            s = -(10**-q).bit_length()
            num, den = 1 << -s, 10**-q
        th = num / den
        tl = ((num << 52) - int(th * 2**52) * den) / (den << 52)
        c = _SPLIT * th
        thh = c - (c - th)
        rows.append((th, thh, th - thh, tl, s))
    table = np.array(rows)
    return (*(np.ascontiguousarray(table[:, j]) for j in range(4)), table[:, 4].astype(np.int64))


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, certain): |x| rounded half-even to 17 significant digits is
    D * 10**(k-16) with 10**16 < D < 10**17, where `certain`; elsewhere D and
    k are junk.

    With |x| = m * 2**e (frexp) and q = 16 - k, the scaled value is
    y = |x| * 10**q = m * (th + tl) * 2**(e+s).  Dekker's TwoProduct gives
    m * th = p + err exactly (Numer. Math. 18, 224 (1971)); err + m * tl is
    rounded twice, each time by at most 2**-53 of a term below 2**-52 * y,
    and th + tl errs by 2**-106 * y, so hi + lo, the two scaled by 2**(e+s),
    is y to within 2**-104 * y < 2**-47 for y < 2**57.  Where tl == 0 (q in
    [0, 22], |x| in [1e-6, 1e17)) hi + lo is y exactly.  D = hi + rint(lo)
    is then y rounded half-even, unless tl != 0 and lo lies within
    _TIE_MARGIN of a tie: hi < 2**53 gives |lo| < 2 and D < 10**16, so
    D > 10**16 holds only where hi >= 2**53 is an even integer.  k comes
    from log10, which may be one off next to a power of ten; D then falls
    out of (10**16, 10**17), a test that also leaves powers of ten and values
    that round up to one to Python, with zeros, subnormals, infinities and
    NaN.
    """
    ax = np.abs(x)
    certain = (ax >= sys.float_info.min) & (ax <= sys.float_info.max)
    ax[~certain] = 1.5  # any normal double; these cells are not used
    # log10 of a normal double lies in [-307.66, 308.26], so row is in the table
    k = np.floor(np.log10(ax)).astype(np.int64)
    row = 16 - _Q_MIN - k
    th, thh, thl, tl, s = (column[row] for column in _pow10_table())
    m, e = np.frexp(ax)
    c = _SPLIT * m
    mh = c - (c - m)
    ml = m - mh
    p = m * th
    err = ((mh * thh - p) + mh * thl + ml * thh) + ml * thl + m * tl
    e += s
    hi = np.ldexp(p, e)
    lo = np.ldexp(err, e)
    rounded = np.rint(lo)
    certain &= (tl == 0) | (np.abs(np.abs(lo - rounded) - 0.5) > _TIE_MARGIN)
    # hi < 2**60 as k is at most one off, so the cast is exact where it counts
    digits = hi.astype(np.int64) + rounded.astype(np.int64)
    certain &= (digits > _POW10[16]) & (digits < _POW10[17])
    return digits, k, certain


@functools.cache
def _pieces() -> np.ndarray:
    """The %-template of each cell code (see _HEADS): sign, integer part,
    point, leading zeros of the fraction, its %d, and the exponent."""
    heads = [str(d) for d in range(10)] + ["%d"]
    return np.array(
        [
            sign + head + ("" if zeros == _NO_FRACTION else "." + "0" * zeros + "%d") + tail
            for sign in ("", "-")
            for tail in ("", "e%+03d")
            for head in heads
            for zeros in range(_ZEROS)
        ],
        dtype=object,
    )


def _float_cells(x: np.ndarray, args: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Templates of a block of doubles as '%.17g' writes them; fills the
    (rows, 3) `args` with their %-arguments (integer part, fraction,
    exponent) and `used` with which of the three each template takes.

    The positional form (-4 <= k <= 16) has cut = 16 - k digits after the
    point, the exponent form 16.  The fraction is written as an integer
    after its leading zeros, without its trailing ones; an integer part of
    one digit is part of the template.
    """
    digits, k, certain = _decimal_digits(x)
    positional = (k >= -4) & (k <= 16)
    cut = np.where(positional, 16 - k, 16)
    scale = _POW10[np.minimum(cut, 17)]
    whole = digits // scale
    fraction = digits - whole * scale
    zeros = cut - np.searchsorted(_POW10, fraction, side="right")
    zeros[fraction == 0] = _NO_FRACTION
    # drop the fraction's trailing zeros; about one cell in ten has any
    tens = np.flatnonzero(fraction // 10 * 10 == fraction)
    for step in (16, 8, 4, 2, 1):
        part = fraction[tens]
        shorter = part // _POW10[step]
        fraction[tens] = np.where(shorter * _POW10[step] == part, shorter, part)
    head = np.minimum(whole, _HEAD_INT)
    code = ((2 * np.signbit(x) + ~positional) * _HEADS + head) * _ZEROS + zeros
    args[:, 0], args[:, 1], args[:, 2] = whole, fraction, k
    used[:, 0] = head == _HEAD_INT
    used[:, 1] = zeros != _NO_FRACTION
    used[:, 2] = ~positional
    used[~certain] = False
    cells = _pieces()[np.where(certain, code, 0)]
    for i in np.flatnonzero(~certain).tolist():
        cells[i] = _NUMBER % x[i]
    return cells


def _format_block(part: list[np.ndarray]) -> str:
    """One block of rows as text: a template joined from each cell's piece,
    filled by one %-format of all the cells' integer arguments."""
    rows, width = part[0].size, len(part)
    template = np.empty((rows, 2 * width), dtype=object)
    template[:, 1::2] = ","
    template[:, -1] = "\n"
    args = np.zeros((rows, width, 3), dtype=np.int64)
    used = np.zeros((rows, width, 3), dtype=bool)
    for j, cells in enumerate(part):
        if cells.dtype.kind == "f":
            cells = cells.astype(np.float64, copy=False)
            template[:, 2 * j] = _float_cells(cells, args[:, j], used[:, j])
        elif cells.dtype.kind in "iu":
            template[:, 2 * j] = "%d"
            args[:, j, 0] = cells
            used[:, j, 0] = True
        else:
            template[:, 2 * j] = cells
    values = tuple(args[used].tolist())
    del args, used  # keep only the template and the values while formatting
    return "".join(template.ravel().tolist()) % values


def _write_csv(path: str, header, columns) -> None:
    """Write a CSV file: the header, then one LF-terminated line per row.

    ``columns`` are arrays of one shape, read in C order (broadcast views
    too): float arrays are written as '%.17g' writes each number, integer
    arrays as '%d' and object arrays of labels verbatim (they must not hold
    '%').  Rows are formatted _WRITE_BLOCK at a time, so memory stays
    bounded by one block whatever the file size.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for first in range(0, columns[0].size, _WRITE_BLOCK):
            part = slice(first, first + _WRITE_BLOCK)
            fh.write(_format_block([column.flat[part] for column in columns]))


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
