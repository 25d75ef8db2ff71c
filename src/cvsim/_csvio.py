"""The CSV codec shared by the homodyne and Wigner files: one header line,
then one LF-terminated line of numbers per row, written in blocks of rows
and read in chunks of bytes, so that memory stays bounded whatever the file
size.

Each number is written in the shortest digits that read back as its double
(Ryu: Adams, PLDI 2018).  A block whose columns are all native float64 and
finite is written by one orjson.dumps of its cells, row by row, with every
row's last comma and the closing bracket made LF in numpy; any other block,
an integer column, a NaN or an infinity, or another dtype, goes row by row
through repr, which writes an integer as its digits and a non-finite double
as nan, inf or -inf.

A file is read in binary, _CHUNK bytes at a time; each read is cut after its
last LF, or after its last CR that is not its final byte, and CRLF and lone
CR line ends become LF, so that its lines are those of text mode's universal
newlines.  A chunk that holds only JSON numbers, commas and LF line ends, as
the writer's lines do, is read by orjson, whose parser rounds correctly
(Lemire, Softw. Pract. Exper. 51, 1700 (2021)) in under half of np.loadtxt's
time; every other chunk, with NaN, blanks or a bad line, is decoded, split at
LF alone and read by np.loadtxt.  orjson is imported where a block is
written or read with it, so that importing cvsim does not load it.
"""

from __future__ import annotations

import os
import stat
import warnings
from contextlib import contextmanager, suppress

import numpy as np

from .errors import MalformedInputError

#: rows written together; 8192 peaked 1.8 MB higher on
#: homodyne-gaussian-1e6 (6 pairs, 2-vCPU VM), its time within the spread
_BLOCK = 4096
#: bytes read at a time: a 1e6-row read took the same time from 32 KiB to
#: 1 MiB (medians of 5, 2-vCPU VM); 64 KiB keeps each buffer under glibc's
#: 128 KiB mmap threshold and a read's memory small
_CHUNK = 1 << 16
#: the bytes of a number in a canonical chunk (see _parse_canonical)
_NUMBER_BYTES = b"0123456789.-+eE"


def _block_bytes(part: list[np.ndarray]) -> memoryview | bytes:
    """One block of rows, given as its columns, as CSV lines written as the
    module docstring says."""
    width = len(part)
    if all(cells.dtype == np.float64 for cells in part):  # native byte order only
        flat = np.column_stack(part).ravel()
        if np.isfinite(flat).all():
            import orjson

            text = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY))
            codes = np.frombuffer(text, dtype=np.uint8)
            codes[np.flatnonzero(codes == ord(","))[width - 1 :: width]] = ord("\n")
            codes[-1] = ord("\n")  # the closing bracket
            return memoryview(text)[1:]  # after the opening one
    rows = zip(*(cells.tolist() for cells in part))
    return "".join([",".join(map(repr, row)) + "\n" for row in rows]).encode()


@contextmanager
def _overwrite(path: str):
    """The descriptor of ``path`` opened for writing, without truncating on
    open: an existing regular file is written over in place and, when the
    block ends (by an exception too), cut to the bytes written; a device or
    pipe such as /dev/null or /dev/stdout, which refuses a truncate, is only
    written.  The inode, its mode and its links stay as with ``open``, and a
    symlink is followed.

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


def _write_all(fd: int, data) -> None:
    """Write ``data`` to ``fd`` by os.write calls, each of the bytes that the
    ones before it left."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` over ``path`` (see _overwrite)."""
    with _overwrite(path) as fd:
        _write_all(fd, data)


def _write_csv(path: str, header, columns) -> None:
    """Write a CSV file over ``path`` (see _overwrite): the header, then one
    LF-terminated line per row.

    ``columns`` are numeric arrays of one shape, read in C order (broadcast
    views too); each number is written in the shortest digits that read back
    as it (see the module docstring), an integer as its digits.  Rows are
    written _BLOCK at a time, so memory stays bounded by one block whatever
    the file size.
    """
    with _overwrite(path) as fd:
        _write_all(fd, (",".join(header) + "\n").encode())
        for first in range(0, columns[0].size, _BLOCK):
            part = slice(first, first + _BLOCK)
            _write_all(fd, _block_bytes([column.flat[part] for column in columns]))


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
