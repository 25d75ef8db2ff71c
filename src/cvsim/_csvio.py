"""The CSV codec shared by the homodyne and Wigner files: one header line,
then one LF-terminated line of numbers per row, written in blocks of rows
and read in chunks of bytes, so that memory stays bounded whatever the file
size.

Numbers are written as '%.17g' writes them, byte for byte, but without
formatting each float in Python: '%.17g' % x is the integer D = |x| * 10**(16-k)
rounded half-even to 17 digits, with k the decimal exponent, plus a sign, a
decimal point, trailing zeros dropped and an exponent for k < -4 or k > 16.
D and k are computed for a whole block in numpy (`_decimal_digits`), and the
block is written by one %-format of a template of integer fields, each
exponent's text ('e-05', 'e+308') gathered from a table into the template.
The few cells whose digits cannot be certain that way go through '%.17g'
itself.

A file is read in binary, _CHUNK bytes at a time; each read is cut after its
last LF, or after its last CR that is not its final byte, and CRLF and lone
CR line ends become LF, so that its lines are those of text mode's universal
newlines.  A chunk that holds only JSON numbers, commas and LF line ends, as
the writer's lines do, is read by orjson, whose parser rounds correctly
(Lemire, Softw. Pract. Exper. 51, 1700 (2021)) in under half of np.loadtxt's
time; every other chunk, with NaN, blanks or a bad line, is decoded, split at
LF alone and read by np.loadtxt.  orjson is imported by the reader, so that
importing cvsim does not load it.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
import warnings
from contextlib import contextmanager, suppress

import numpy as np

from .errors import MalformedInputError

#: CSV number format, 17 significant digits, which round-trips every double
_NUMBER = "%.17g"
#: rows written together; 8192 peaked 1.8 MB higher on
#: homodyne-gaussian-1e6 (6 pairs, 2-vCPU VM), its time within the spread
_BLOCK = 4096
#: bytes read at a time: a 1e6-row read took the same time from 32 KiB to
#: 1 MiB (medians of 5, 2-vCPU VM); 64 KiB keeps each buffer under glibc's
#: 128 KiB mmap threshold and a read's memory small
_CHUNK = 1 << 16
#: the bytes of a number in a canonical chunk (see _parse_canonical)
_NUMBER_BYTES = b"0123456789.-+eE"

#: 10**0 .. 10**17, exact in int64
_POW10 = np.array([10**i for i in range(18)], dtype=np.int64)
#: decimal scalings q = 16 - k of the normal doubles, k from _K_MAX down to -_K_MAX
_K_MAX = 308
_Q_MIN, _Q_MAX = 16 - _K_MAX, 16 + _K_MAX
#: how close to a rounding tie a scaled value may come before it is left to
#: Python; the double-double product errs by less than 2**-47 (see below)
_MARGIN = 2.0**-30
#: Veltkamp's splitting constant 2**27 + 1
_SPLIT = 134217729.0
#: a cell's template is _pieces()[(sign * _HEADS + head) * _ZEROS + zeros]:
#: head 0-9 is that integer part, _HEAD_INT a %d of it; zeros counts the
#: fraction's leading zeros, _NO_FRACTION drops the point.  Its exponent
#: text comes from _exponents, so the template holds only %d fields
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


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(D, k, certain): |x| rounded half-even to 17 significant digits is
    D * 10**(k-16) with 10**16 < D < 10**17, where `certain`; elsewhere all
    three are junk.

    With |x| = m * 2**e (frexp) and q = 16 - k, the scaled value is
    y = |x| * 10**q = m * (th + tl) * 2**(e+s).  Dekker's TwoProduct gives
    m * th = p + err exactly (Numer. Math. 18, 224 (1971)); err + m * tl is
    rounded twice, each time by at most 2**-53 of a term below 2**-52 * y,
    and th + tl errs by 2**-106 * y, so hi + lo, the two scaled by 2**(e+s),
    is y to within 2**-104 * y < 2**-47 for y < 2**57.  Where tl == 0 (q in
    [0, 22], k in [-6, 16]) hi + lo is exact.
    D = hi + rint(lo) is then y rounded half-even, unless tl != 0 and lo lies
    within _MARGIN of a tie: hi < 2**53 gives |lo| < 2 and D < 10**16, so
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
    # each temporary is dropped once used: the peak is ~15 doubles a cell
    del ax, row
    mh = _SPLIT * m
    mh -= mh - m
    ml = m - mh
    p = m * th
    err = ((mh * thh - p) + mh * thl + ml * thh) + ml * thl + m * tl
    del m, mh, ml, thh, thl
    e += s
    hi = np.ldexp(p, e)
    residual = np.ldexp(err, e)
    del p, err
    rounded = np.rint(residual)
    residual -= rounded
    certain &= (tl == 0) | (np.abs(np.abs(residual) - 0.5) > _MARGIN)
    # hi < 2**60 as k is at most one off, so the cast is exact where it counts
    digits = hi.astype(np.int64) + rounded.astype(np.int64)
    del hi, rounded
    certain &= (digits > _POW10[16]) & (digits < _POW10[17])
    return digits, k, certain


@functools.cache
def _pieces() -> np.ndarray:
    """The %-template of each cell code (see _HEADS): sign, integer part,
    point, leading zeros of the fraction and its %d.  An exponent is not
    part of it: _exponents gives its text."""
    heads = [str(d) for d in range(10)] + ["%d"]
    return np.array(
        [
            sign + head + ("" if zeros == _NO_FRACTION else "." + "0" * zeros + "%d")
            for sign in ("", "-")
            for head in heads
            for zeros in range(_ZEROS)
        ],
        dtype=object,
    )


@functools.cache
def _exponents(end: str) -> np.ndarray:
    """The text after a cell in exponent form, indexed by its decimal exponent
    k + _K_MAX: the exponent as '%.17g' writes it ('e-05', 'e+17', 'e-308'),
    then `end`, the separator or line end that follows the cell."""
    return np.array(["e%+03d" % k + end for k in range(-_K_MAX, _K_MAX + 1)], dtype=object)


def _float_cells(x: np.ndarray, args: np.ndarray, used: np.ndarray,
                 after: np.ndarray) -> np.ndarray:
    """Templates of a block of doubles as '%.17g' writes them.  Fills the
    (cells, 2) `args` with their %-arguments (integer part, fraction), `used`
    with which of the two each template takes, and `after`, the text that
    follows each cell, with the exponent of each cell in exponent form put
    before the separator or line end that `after` holds.

    The positional form, for -4 <= k <= 16, has cut = 16 - k digits after
    the point, the exponent form 16.  The fraction is written as an integer
    after its leading zeros, without its trailing ones.  An integer part of
    one digit is part of the template.  Cells whose digits are not certain
    are written by '%.17g' itself, exponent included.
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
    args[:, 0], args[:, 1] = whole, fraction
    used[:, 0] = head == _HEAD_INT
    used[:, 1] = zeros != _NO_FRACTION
    used[~certain] = False
    code = (np.signbit(x) * _HEADS + head) * _ZEROS + zeros
    cells = _pieces()[np.where(certain, code, 0)]
    for i in np.flatnonzero(~certain).tolist():
        cells[i] = _NUMBER % x[i]
    form = np.flatnonzero(certain & ~positional)
    if form.size:
        after[form] = _exponents(after[0])[k[form] + _K_MAX]
    return cells


def _format_block(part: list[np.ndarray]) -> str:
    """One block of rows as text: a template joined from each cell's piece
    and the text after it, filled by one %-format of all the cells' integer
    arguments."""
    rows, width = part[0].size, len(part)
    template = np.empty((rows, 2 * width), dtype=object)
    template[:, 1::2] = ","
    template[:, -1] = "\n"
    args = np.zeros((rows, width, 2), dtype=np.int64)
    used = np.zeros((rows, width, 2), dtype=bool)
    for j, cells in enumerate(part):
        if cells.dtype == object:
            template[:, 2 * j] = cells
        else:
            cells = cells.astype(np.float64, copy=False)
            template[:, 2 * j] = _float_cells(cells, args[:, j], used[:, j], template[:, 2 * j + 1])
    values = tuple(args[used].tolist())
    del args, used  # keep only the template and the values while formatting
    return "".join(template.ravel().tolist()) % values


@contextmanager
def _overwrite(path: str):
    """The descriptor of ``path`` opened for writing, without truncating on
    open: an existing regular file is written over in place and, when the
    block ends (by an exception too), cut to the bytes written; a device or
    pipe such as /dev/null or /dev/stdout, which refuses a truncate, is only
    written.  The inode, its mode and its links stay as with ``open``, and a
    symlink is followed.  A buffered file over the descriptor must be flushed
    before the block ends.

    A truncate frees the file's blocks, which on ext4 mounted with
    ``discard`` made rewriting 3 KB take 103-132 us and 356 KB ~440 us,
    against 16 us and 33-39 us for writing over the old bytes.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        try:
            yield fd
        except BaseException:
            with suppress(OSError):  # the error that ended the block is the one to report
                _cut(fd)
            raise
        _cut(fd)
    finally:
        os.close(fd)


def _cut(fd: int) -> None:
    """Cut a regular file to the bytes written through ``fd``."""
    if stat.S_ISREG(os.fstat(fd).st_mode):
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` over ``path`` (see _overwrite) by os.write calls on its
    descriptor, each of the bytes that the ones before it left."""
    with _overwrite(path) as fd:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]


def _write_csv(path: str, header, columns) -> None:
    """Write a CSV file: the header, then one LF-terminated line per row.

    ``columns`` are arrays of one shape, read in C order (broadcast views
    too): object arrays of labels are written verbatim (they must not hold
    '%'), every other array as '%.17g' writes each of its numbers as a
    double, which for an integer below 2**53 is its '%d'.  Rows are
    formatted _BLOCK at a time, so memory stays bounded by one block
    whatever the file size.
    """
    with _overwrite(path) as fd, open(fd, "w", newline="", encoding="utf-8", closefd=False) as fh:
        fh.write(",".join(header) + "\n")
        for first in range(0, columns[0].size, _BLOCK):
            part = slice(first, first + _BLOCK)
            fh.write(_format_block([column.flat[part] for column in columns]))


def _parse_canonical(chunk: bytes, width: int) -> np.ndarray | None:
    """One chunk of CSV lines as a (rows, width) float array, by orjson, or
    None where the chunk is not canonical: ASCII digits, '.-+eE' and width - 1
    commas on each LF-terminated line, no bare -0 (which orjson reads as the
    integer 0) and no token that is not a JSON number ('1.', '.5', '+1',
    '01', an empty field and the overflowing '1e400' are not)."""
    import orjson

    separators = chunk.translate(None, _NUMBER_BYTES)
    lines = len(separators) // width
    if not chunk.endswith(b"\n") or separators != (b"," * (width - 1) + b"\n") * lines:
        return None
    try:
        values = orjson.loads(b"[" + chunk[:-1].replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:
        return None
    if len(values) != lines * width:  # one blank line of a 1-column file reads as []
        return None
    rows = np.fromiter(values, dtype=float, count=len(values)).reshape(lines, width)
    # a bare -0 reads as 0, so look for one only where a zero was read; an
    # exponent -0 matches too and sends its rare chunk to np.loadtxt
    if not rows.all() and (b"-0," in chunk or b"-0\n" in chunk):
        return None
    return rows


def _parse_block(lines: list[str], width: int, lineno: int) -> np.ndarray:
    """One block of CSV lines, without their line ends, as a (rows, width)
    float array; blank lines are skipped.  ``lineno`` is the file line
    number of ``lines[0]``."""
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
    for offset, text in enumerate(lines):
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


def _max_lines(path: str) -> int:
    """An upper bound on the lines of a file: one more than its LF and CR
    bytes, counted in numpy a chunk at a time (CRLF counts twice)."""
    count = 1
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            codes = np.frombuffer(chunk, dtype=np.uint8)
            count += np.count_nonzero(codes == ord("\n")) + np.count_nonzero(codes == ord("\r"))
    return count


def _line_chunks(fh):
    """The bytes of a binary file in chunks of whole lines with LF line ends,
    cut as the module docstring says: a final CR may be the first half of a
    CRLF.  The rest of a read opens the next chunk, so a line longer than a
    read spans several; the last chunk ends where the file does."""
    parts = []
    while read := fh.read(_CHUNK):
        cut = max(read.rfind(b"\n"), read.rfind(b"\r", 0, len(read) - 1)) + 1
        if cut:
            yield _to_lf(b"".join([*parts, memoryview(read)[:cut]]))
            parts = []
        parts.append(read[cut:])
    if rest := b"".join(parts):
        yield _to_lf(rest)


def _to_lf(chunk: bytes) -> bytes:
    """``chunk`` with its CRLF and lone CR line ends turned into LF."""
    return chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in chunk else chunk


def _read_csv(path: str, header, what: str) -> list[np.ndarray]:
    """Columns of a CSV file written by _write_csv, as float arrays.

    The file is read in chunks of whole lines (_line_chunks), each parsed at
    once into columns allocated once, from a count of a regular file's line
    ends, so that no more than one chunk of text is held besides the columns;
    the columns double in place where they fill up, as for a pipe, so that
    they are never held twice.  (Joining parsed blocks at the end held the
    columns twice; with orjson's 8 MiB parse buffer in the heap as well, a
    1e6-row read after a 1e6-row sample in one process peaked 10% higher.)
    A chunk that orjson does not take is decoded with its bytes that are not
    UTF-8 as lone surrogates, which do not parse, and split at LF alone for
    np.loadtxt.  CRLF and CR line ends and blank lines are accepted; a wrong
    header, a row without exactly one field per header column, bytes that
    are not UTF-8, or a file without data rows raises MalformedInputError
    naming the line.
    """
    width = len(header)
    capacity = _max_lines(path) if os.path.isfile(path) else 0
    columns = [np.empty(capacity) for _ in range(width)]
    rows = 0
    with open(path, "rb") as fh:
        chunks = _line_chunks(fh)
        chunk = next(chunks, b"")
        end = chunk.find(b"\n") + 1 or len(chunk)
        first = chunk[:end].decode("utf-8", "surrogateescape")
        if first.rstrip("\n").split(",") != header:
            raise MalformedInputError(
                f"line 1: expected header {','.join(header)}, got {first.rstrip()!r}"
            )
        lineno = 2
        chunk = chunk[end:] or next(chunks, b"")
        while chunk:
            block = _parse_canonical(chunk, width)
            if block is None:
                # str.splitlines would split at \x0c, \x85 and more as well
                lines = chunk.decode("utf-8", "surrogateescape").split("\n")
                if not lines[-1]:
                    lines.pop()
                block = _parse_block(lines, width, lineno)
                lineno += len(lines)
            else:
                lineno += len(block)
            if rows + len(block) > capacity:
                capacity = 2 * capacity + len(block)
                for column in columns:  # in place: no view of a column is held
                    column.resize(capacity, refcheck=False)
            for column, values in zip(columns, block.T):
                column[rows : rows + len(block)] = values
            rows += len(block)
            chunk = next(chunks, b"")
    if not rows:
        raise MalformedInputError(f"no data rows in {what} file")
    for column in columns:  # cut to the rows read, in place, as they grew
        column.resize(rows, refcheck=False)
    return columns
