"""The contract of cvsim's JSON result files: json.loads gives the payload
back bit for bit, and the text, with every number token masked, is
``json.dumps(payload, indent=2)`` plus one LF masked the same way."""

import json
import re
from itertools import chain

import numpy as np

#: a string token
_STRING = re.compile(r'("(?:[^"\\]|\\.)*")')
#: a number token, outside a string
_NUMBER = re.compile(r"-?[0-9][0-9.eE+-]*")


def masked(text: str) -> str:
    """`text` with each number token outside a string replaced by 0."""
    pieces = _STRING.split(text)  # the strings at odd positions
    pieces[::2] = [_NUMBER.sub("0", piece) for piece in pieces[::2]]
    return "".join(pieces)


def significant_digits(token: str) -> str:
    """The significant digits of a number's text: 2.5e-07 and 0.00000025 -> "25"."""
    return token.lstrip("-").lower().split("e")[0].replace(".", "").strip("0") or "0"


def first_difference(got: str, want: str):
    """The first few lines in which two texts differ, for an assertion message."""
    wrong = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
    return wrong[:5] or (len(got), len(want))


def _is_floats(items) -> bool:
    return bool(items) and set(map(type, items)) == {float}


def _floats(items):
    """`items` as a float64 array if it is a list of floats, or a list of
    lists of floats all of one length; else None."""
    if _is_floats(items):
        return np.array(items)
    if (items and set(map(type, items)) == {list} and len(set(map(len, items))) == 1
            and _is_floats(list(chain.from_iterable(items)))):
        return np.array(items)
    return None


def assert_same(got, want, path="$") -> None:
    """`got`, as json.loads reads it, is `want`: the same types (1 is not
    1.0, nor True), the same keys in the same order, and every double bit
    for bit, -0.0 apart from 0.0.  Arrays are taken as their tolist() and
    tuples as lists; a list of floats, or of rows of floats, is compared as
    one array of bits."""
    if isinstance(want, np.ndarray):
        want = want.tolist()
    if isinstance(want, (list, tuple)):
        assert type(got) is list and len(got) == len(want), (path, type(got), len(want))
        g, w = _floats(got), _floats(want)
        if g is not None and w is not None and g.shape == w.shape:
            wrong = np.argwhere(g.view(np.int64) != w.view(np.int64))
            assert not wrong.size, (path, *wrong[0], g[tuple(wrong[0])], w[tuple(wrong[0])])
        else:
            for i, (item, expected) in enumerate(zip(got, want)):
                assert_same(item, expected, f"{path}/{i}")
    elif isinstance(want, dict):
        assert type(got) is dict and list(got) == list(want), (path, type(got), list(want))
        for key, expected in want.items():
            assert_same(got[key], expected, f"{path}/{key}")
    elif isinstance(want, float):
        assert type(got) is float and repr(got) == repr(float(want)), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


#: json.dumps's text of a homogeneous float list that _skeleton stands in
#: for: a string of the list's length, at the line where the list opens
_FLOAT_LIST = re.compile(r'(?m)^( *)(.*)"\\uffff([0-9]+)"(,?)$')


def _float_list(n: int) -> str:
    """What _skeleton writes in place of a homogeneous list of n floats; the
    payload's strings, which are ASCII, cannot hold it."""
    return f"\uffff{n}"


def _skeleton(value):
    """`value` with every number made 0, and each homogeneous float list,
    1-D or a row of a 2-D array, made a _float_list of its length: json.dumps
    writes it as the masked text of `value` without writing those lists."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.ndim == 1:
            return _float_list(value.size)
        if value.dtype.kind == "f" and value.ndim == 2:
            return [_float_list(value.shape[1])] * value.shape[0]
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _skeleton(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return _float_list(len(value)) if _is_floats(value) else [_skeleton(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return 0
    return value


def _expanded(match) -> str:
    """The masked text of the float list whose _float_list `match` holds: its
    items one indent deeper than the line on which it opens."""
    indent, before, n, comma = match.groups()
    items = ",\n".join([indent + "  0"] * int(n))
    return f"{indent}{before}[\n{items}\n{indent}]{comma}" if items else f"{indent}{before}[]{comma}"


def layout(payload) -> str:
    """``json.dumps(payload, indent=2)`` with every number token masked."""
    return _FLOAT_LIST.sub(_expanded, json.dumps(_skeleton(payload), indent=2))


def assert_reads_back(text: bytes, payload) -> None:
    """`text` is a JSON result file of `payload` under the contract above,
    strings in ASCII without DEL, which json.dumps escapes and orjson does
    not."""
    text = text.decode()
    assert_same(json.loads(text), payload)
    got = masked(text)
    want = layout(payload) + "\n"
    assert got == want, first_difference(got, want)
