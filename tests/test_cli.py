import gc
import hashlib
import importlib.metadata
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import cvsim
from cvsim import cli
from cvsim.cli import _fock_bs_json, _json_bytes, main
from cvsim import (
    CVSimError,
    SampleSet,
    bs_output_from_angle,
    photon_number_distribution,
    read_samples_csv,
    read_wigner_csv,
    write_samples_csv,
)
from cvsim.homodyne import DEFAULT_TOL, read_variance_csv
from csv_readback import csv_digests
from json_readback import assert_reads_back, masked


class Result(NamedTuple):
    exit_code: int
    output: str
    exception: SystemExit | None


def run_cli(args):
    """Run ``main(args)`` as the ``cvsim`` console script runs it, with
    stdout and stderr captured together; any other exception propagates."""
    output = io.StringIO()
    with redirect_stdout(output), redirect_stderr(output):
        try:
            main(args)
        except SystemExit as exc:
            return Result(exc.code or 0, output.getvalue(), exc)
    return Result(0, output.getvalue(), None)


def test_sample_writes_csv_and_summary(tmp_path):
    out = tmp_path / "s.csv"
    result = run_cli(
        ["sample", "--state", "squeezed", "--r", "1", "--count", "5000",
         "--seed", "42", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "5000 records" in result.output
    ss = read_samples_csv(str(out))
    assert len(ss) == 5000
    # phase-averaged squeezed variance is cosh(2r)
    assert np.var(ss.values, ddof=1) == pytest.approx(np.cosh(2.0), rel=0.1)


def test_sample_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--state", "vacuum", "--count", "10", "--seed", "7"]
    assert run_cli(args + ["--out", str(a)]).exit_code == 0
    assert run_cli(args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of what a CSV output promises (tests/csv_readback.py): the doubles
# float() reads back, and the layout, number tokens masked.  The bytes are
# not pinned, since each number is spelled as the writer spells it; the
# digests are those of the files that '%.17g' wrote before, which read back
# as the same doubles in the same layout.  16389 = 2 * 8192 + 5 records
# cross block edges, and the 1000-bin analyses of 16389 and of 1500 records
# (empty and singleton bins, so NaN rows) cover the variance writer.  A
# Fock(3) or cat record is any x within tol of its quantile, so those two
# digests follow the start of the Newton iteration; test_inversion_properties
# checks their records against the tolerance certificate at 50 digits.
SAMPLES_LAYOUT = "a4d7ab6a1b99bde9baf09ac18c3d60b5b385ddaca54b0732ed174a4a8ca4bbbe"
SAMPLE_GOLDENS = {
    ("squeezed", "--r", "1"):
        ("6461d0e380da2508e4402e6d13b3e8d9c9acc253dd86b79a27168cd01f2ae620", SAMPLES_LAYOUT),
    ("fock", "--n", "3"):
        ("46b421158e1d6931c8fa37e1932ab17e6cb6b3f91a769c456a59ad3c282e31f6", SAMPLES_LAYOUT),
    ("cat", "--alpha-re", "2", "--alpha-im", "0", "--theta", "0"):
        ("87ad238f9d225dbd751ba76223e3f53f49163923797ebd63b32ad169259982be", SAMPLES_LAYOUT),
}
VARIANCE_LAYOUT = "96cedc620c618472a476050523ea2b119da8f2b057eae563867255886116d9e8"
ANALYZE_GOLDENS = {
    16389: (SAMPLE_GOLDENS["squeezed", "--r", "1"],
            ("9a066dcb86f684033c97072e073dcb75dbeb30eb659eff25d0a213ecfd3e46d9", VARIANCE_LAYOUT)),
    1500: (("1ba471f39ddaad8530045ef7c82110ee133abf48c8643530aca8f8ac41de87f0",
            "d108628475df8cb142e287c8cb1dd37c223a44b66f6082268fb06c7e07c96b7a"),
           ("9dff19059c679bfc3c022726696932967a7c8fcba389be8fc9a8f89e3fc980bb", VARIANCE_LAYOUT)),
}
WIGNER_GOLDENS = {
    ("--r", "0.5", "--theta", "0.3", "--nx", "37", "--np", "23"):
        ("64ec507c878c1a2f6468dd03ef2293a967d906444c9885e1f3d31419df1d15e5",
         "03d0724b770ebcc1a71ad59d320a2ea624f1760c53277d866b7932a9e9d6204c"),
    # a wide grid, whose W tails hold cells in [1e-99, 1e-9) and below 1e-99,
    # which are written with two- and three-digit negative exponents
    ("--r", "0.4", "--xmin", "-30", "--xmax", "30", "--pmin", "-30", "--pmax", "30",
     "--nx", "61", "--np", "61"):
        ("34cb0f81e27d124264feeb148a66e4a089f44617362cd45544f5b4d2982575d5",
         "0bbe5f2e30647d49e8cfe7dcb64c80f0be77fc1a3cb400f3156a98a258c15000"),
}


def file_digests(path):
    return csv_digests(path.read_text(encoding="ascii"))


@pytest.mark.parametrize("flags", list(SAMPLE_GOLDENS))
def test_sample_output_matches_golden_digest(tmp_path, flags):
    out = tmp_path / "s.csv"
    run_cli(["sample", "--state", *flags, "--count", "16389", "--out", str(out)])
    assert file_digests(out) == SAMPLE_GOLDENS[flags]


@pytest.mark.parametrize("count", list(ANALYZE_GOLDENS))
def test_analyze_output_matches_golden_digest(tmp_path, count):
    data, rep = tmp_path / "s.csv", tmp_path / "v.csv"
    model = ["--state", "squeezed", "--r", "1"]
    run_cli(["sample", *model, "--count", str(count), "--out", str(data)])
    run_cli(["analyze", "--in", str(data), "--bins", "1000", *model, "--out", str(rep)])
    assert (file_digests(data), file_digests(rep)) == ANALYZE_GOLDENS[count]
    # the count column is written as integers
    counts = [line.split(",")[1] for line in rep.read_text().splitlines()[1:]]
    assert all(re.fullmatch("[0-9]+", count) for count in counts)
    if count == 1500:
        assert np.isnan(read_variance_csv(str(rep)).estimated_variance).any()


@pytest.mark.parametrize("flags", list(WIGNER_GOLDENS))
def test_wigner_output_matches_golden_digest(tmp_path, flags):
    out = tmp_path / "w.csv"
    run_cli(["wigner", "--state", "squeezed", *flags, "--out", str(out)])
    assert file_digests(out) == WIGNER_GOLDENS[flags]


README_NETWORK = {
    "modes": 4,
    "hbar": 2.0,
    "gates": [
        {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
        {"kind": "squeeze", "modes": [1], "params": {"r": 0.5, "theta": 3.141592653589793}},
        {"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": 0.7853981633974483, "phi": 0.0}},
        {"kind": "beamsplitter", "modes": [0, 2], "params": {"theta": 0.7853981633974483, "phi": 0.0}},
        {"kind": "beamsplitter", "modes": [1, 3], "params": {"theta": 0.7853981633974483, "phi": 0.0}},
    ],
    "analyses": [
        {"type": "simon", "modes": [0, 3]},
        {"type": "log_negativity", "part_a": [0], "part_b": [3]},
        {"type": "reduced", "modes": [0]},
        {"type": "wigner", "mode": 0, "grid": {"nx": 101, "np": 101}},
    ],
}


def chain16_network():
    """16 modes: a thermal mode, squeezers, two beam-splitter layers, rotations
    and displacements, and all four analyses.  The stdlib generator keeps the
    parameters the same on every platform."""
    rng = random.Random(16)
    u = rng.uniform
    gates = [{"kind": "prepare_thermal", "modes": [5], "params": {"n_bar": u(0.1, 1.0)}}]
    gates += [{"kind": "squeeze", "modes": [m], "params": {"r": u(0.1, 0.6), "theta": u(0, 6.28)}}
              for m in range(16)]
    for start in (0, 1):
        gates += [{"kind": "beamsplitter", "modes": [m, m + 1],
                   "params": {"theta": u(0, 1.57), "phi": u(0, 6.28)}}
                  for m in range(start, 15, 2)]
    gates += [{"kind": "rotate", "modes": [m], "params": {"phi": u(0, 6.28)}} for m in (2, 9)]
    gates += [{"kind": "displace", "modes": [m],
               "params": {"alpha_mag": u(0, 1), "alpha_phase": u(0, 6.28)}} for m in (4, 13)]
    analyses = [
        {"type": "reduced", "modes": [3]},
        {"type": "simon", "modes": [7, 8]},
        {"type": "log_negativity", "part_a": list(range(8)), "part_b": list(range(8, 16))},
        {"type": "wigner", "mode": 11, "grid": {"nx": 101, "np": 101}},
    ]
    return {"modes": 16, "hbar": 2.0, "gates": gates, "analyses": analyses}


# SHA-256 of what a JSON output promises, which no admitted orjson version
# changes: its values, as json.dumps writes what json.loads reads back, and
# its layout, number tokens masked.  The bytes are not pinned, since each
# number is spelled as orjson spells it.  The digests are those of the files
# that repr's spelling wrote before, which read back as the same values in
# the same layout.  The fock-bs amplitudes are those that tests/test_fock.py
# checks against a 50-digit reference.
NETWORK_GOLDENS = {
    "readme": ("3454f6f38da9f7acb2954a161b0ea85d28fd6797dc934fc5a40e4cc811548083",
               "a49a97839457f7d9d002701ac9813fd2eb954d493d7c68b7cb6c20bcb9c550e8"),
    "chain16": ("a63648ca835b7443e6d95197e89ad0a4ec491c30539896b65a7a54e190bad0c2",
                "05e945dbba5307cce2c0d622f34732c05d1780b99680532b985e2d67b5f8898b"),
}
FOCK_BS_GOLDENS = {
    ("--n1", "1", "--n2", "1"):
        ("0181111c0a429daa66fcc166d26b147b19fb5efd839ed44494802dac82ebacae",
         "ef601c4b08f15ee7c61ccfdb8ce317388ebfc7c17f24840c14b0c5eb919da84c"),
    ("--n1", "15", "--n2", "16", "--theta", "0.8853981633974483", "--phi", "0.3"):
        ("5cd114447b96166924360b1adc9851be7f9497fda6b8bfd12df2efeba320e42a",
         "35bc7893ba5fb0b7f0a963f06e0a1d5a8bbd6617a6c761a5a74889ba81f3f98c"),
    # both marginals hold 2.49997916673611e-05, which orjson 3.8.3 writes
    # without an exponent
    ("--n1", "1", "--n2", "0", "--theta", "0.005"):
        ("9588d625881d3e8ab2f82a11513548b87a4706208cc9cace24f174cbc912fba8",
         "d760d3c02ccb1ccfe400829fd2ce6977aca6f22a31d93bd17d962696307618b0"),
}


def json_digests(path):
    """SHA-256 of the values and of the masked layout of a JSON output."""
    text = path.read_text()
    return (hashlib.sha256(json.dumps(json.loads(text)).encode()).hexdigest(),
            hashlib.sha256(masked(text).encode()).hexdigest())


@pytest.mark.parametrize("name", list(NETWORK_GOLDENS))
def test_network_output_matches_golden_digest(tmp_path, name):
    config, out = tmp_path / "net.json", tmp_path / "o.json"
    config.write_text(json.dumps(README_NETWORK if name == "readme" else chain16_network()))
    run_cli(["network", "--config", str(config), "--out", str(out)])
    assert json_digests(out) == NETWORK_GOLDENS[name]


@pytest.mark.parametrize("flags", list(FOCK_BS_GOLDENS))
def test_fock_bs_output_matches_golden_digest(tmp_path, flags):
    out = tmp_path / "f.json"
    run_cli(["fock-bs", *flags, "--out", str(out)])
    assert json_digests(out) == FOCK_BS_GOLDENS[flags]


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-5,
               9.999999999999999e-05, 2.5e-7]
JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
#: strings that orjson escapes as json.dumps does (not DEL, nothing past
#: ASCII), so that the layout holds them as json.dumps writes them; the
#: sweep keeps the domain it had when the writer refused a string whose
#: text held "null" or a one-digit negative exponent, and such strings are
#: read back in test_json_bytes_writes_any_string_as_it_reads_back
JSON_TEXT = (st.text(st.characters(max_codepoint=126), max_size=8)
             | st.text(st.sampled_from('a"\\/\x00\x1f\n\tule-5'), max_size=8)).filter(
    lambda s: "null" not in json.dumps(s) and not re.search(r"e-[0-9]\b", json.dumps(s)))
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**63, 2**64 - 1) | JSON_FLOATS
                | JSON_TEXT)
#: values from every decade, subnormals included
DECADE_FLOATS = st.builds(lambda m, d: m * 10.0**d, st.floats(-9.99, 9.99), st.integers(-323, 307))


def dense_array(seed, shape, zero_runs):
    """Nonzero values from every decade, then runs of 0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-320, 308, shape)
    flat = a.reshape(-1)
    for start, length, sign in zero_runs:
        flat[start % flat.size:][:length] = sign * 0.0
    return a


#: large arrays: sparse ones with a zero fill, and dense ones
LARGE_SHAPES = st.integers(600, 5000).map(lambda n: (n,)) | st.tuples(st.integers(1, 90),
                                                                      st.integers(9, 90))
LARGE_ARRAYS = (
    arrays(np.float64, LARGE_SHAPES, elements=JSON_FLOATS | DECADE_FLOATS,
           fill=st.sampled_from([0.0, -0.0]))
    | st.builds(dense_array, st.integers(0, 2**32 - 1), LARGE_SHAPES,
                st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 3000),
                                   st.sampled_from([1.0, -1.0])), max_size=4))
)
FLOAT_ARRAYS = arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0),
                      elements=JSON_FLOATS) | LARGE_ARRAYS
#: finite float32 cells: json.dumps writes inf and NaN as Infinity and NaN,
#: which _json_bytes refuses
OTHER_ARRAYS = (arrays(st.sampled_from([np.int64, np.bool_]),
                       array_shapes(min_dims=1, max_dims=2, min_side=0))
                | arrays(np.float32, array_shapes(min_dims=1, max_dims=2, min_side=0),
                         elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
JSON_TREES = st.recursive(
    JSON_SCALARS | st.lists(JSON_FLOATS, min_size=1) | FLOAT_ARRAYS | OTHER_ARRAYS,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_TEXT, children)),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(JSON_TREES)
@example([1.5, [], {}, [2.0, -0.0], {"k": (1, [-0.0])}, "x", None, True, 3])
@example({"cov": [[1.0, 5e-324], [-1e300, 1.7976931348623157e308]], "n": 2**64 - 1,
          "m": -2**63})
@example({"cov": np.array([[1.0, 3e-5], [-0.0, 5e-324]]), "empty": np.zeros((2, 0))})
@example(np.array(2.0))
@example({"w": dense_array(1, (101, 101), [(0, 3000, -1.0)]), "v": dense_array(2, (4097,), [])})
@example([dense_array(3, (1, 2500), []), dense_array(4, (2500, 1), [(7, 2048, 1.0)])])
@example(np.where(np.arange(3000.0) % 7 == 0, np.arange(3000.0) * 0.1, 0.0).reshape(30, 100))
@example(dense_array(6, (30, 40), [(0, 500, 1.0)]).T)
@example(-np.zeros((40, 30)))
@example({"k": [dense_array(7, (20, 20), []), dense_array(8, (384,), [(5, 50, -1.0)])],
          "w": dense_array(9, (12, 40), []), "s": ["nul", "e-12", "\\u", "%s", "1e-05"]})
@example([0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
@example([9.999999999999999e-10, 1e-9, 9.999999999999999e-06, 1e-5, 9.999999999999999e-05, 1e-4])
@example([9999999999999998.0, 1e16, -1e-5, -9.999999999999999e-05, 2.5e-7, 0.1])
def test_json_bytes_reads_back_in_json_dumps_layout(obj):
    assert_reads_back(_json_bytes(obj), obj)


def deeply_nested(depth):
    """`depth` lists, each the only item of the one before."""
    outer = inner = []
    for _ in range(depth - 1):
        inner.append([])
        inner = inner[0]
    return outer


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, np.float64(math.nan), np.array([1.0, math.nan]),
    np.array([[2.0], [-math.inf]]), np.array([math.inf], np.float32), [1.0, math.inf],
    2**64, -2**63 - 1, np.int64(3), {1: 2.0}, {1.0}, 1j, "\ud800", np.float32(1.5),
    np.bool_(True), deeply_nested(300),
])
def test_json_bytes_refuses_what_json_cannot_read_back(value):
    with pytest.raises(CVSimError, match="cannot write .* in a JSON result file"):
        _json_bytes({"modes": 2, "analyses": [{"type": "reduced", "value": value}]})


@pytest.mark.parametrize("value", ["\u00e9", "\x7f", "null", "\null", "e-5", "\x1e-5",
                                   {"null": "1e-05", "\u00e9": ["e-5"]}])
def test_json_bytes_writes_any_string_as_it_reads_back(value):
    payload = {"modes": 2, "analyses": [{"type": "reduced", "value": value}]}
    assert json.loads(_json_bytes(payload)) == payload


def read_only(a):
    a.flags.writeable = False
    return a


#: float64 arrays in every memory layout, which orjson is given C-contiguous,
#: and arrays of other dtypes, which it is given as their tolist()
ARRAY_LAYOUTS = {
    "big-endian": np.array([[1.5, -0.0], [3e-5, 5e-324]], ">f8"),
    "fortran": np.asfortranarray(dense_array(10, (3, 4), [(0, 2, -1.0)])),
    "transposed": dense_array(11, (4, 3), []).T,
    "strided": dense_array(12, (20,), [])[::3],
    "reversed": dense_array(13, (5,), [(1, 1, -1.0)])[::-1],
    "broadcast": np.broadcast_to(np.array([2.5e-7, -1e16]), (3, 2)),
    "read-only": read_only(dense_array(14, (2, 2), [])),
    "3-d": dense_array(15, (2, 3, 4), [(5, 3, 1.0)]),
    "empty rows": np.zeros((0, 3)),
    "empty columns": np.zeros((3, 0)),
    "float16": np.array([1.5, 0.1, -0.0, 6e-8], np.float16),
    "int32": np.array([[1, -2], [2**31 - 1, -2**31]], np.int32),
    "uint64": np.array([0, 2**64 - 1], np.uint64),
    "object": np.array([1.0, None, "x"], object),
}


@pytest.mark.parametrize("a", list(ARRAY_LAYOUTS.values()), ids=list(ARRAY_LAYOUTS))
def test_json_bytes_writes_every_array_layout_as_it_reads_back(a):
    assert_reads_back(_json_bytes({"cov": a, "rows": [a, a]}), {"cov": a, "rows": [a, a]})


def test_json_bytes_frees_its_arrays_without_the_garbage_collector():
    array = dense_array(10, (32, 32), [])
    alive = weakref.ref(array)
    payload = {"cov": array}
    del array
    gc.disable()
    try:
        _json_bytes(payload)
        del payload
        assert alive() is None
    finally:
        gc.enable()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda total: st.tuples(st.integers(0, total),
                                                          st.just(total))),
       st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
@example((1, 2), math.pi / 4, math.pi)
@example((0, 0), 0.0, 0.0)
@example((20, 40), math.pi / 2, -math.pi)
def test_fock_bs_json_reads_back_in_json_dumps_layout(pair, theta, phi):
    n1, total = pair
    state = bs_output_from_angle(n1, total - n1, theta, phi)
    assert_reads_back(_fock_bs_json(state), fock_bs_payload(state))


def fock_bs_payload(state) -> dict:
    """The fock-bs payload of `state`, built from the library's marginals."""
    return {
        "total_photons": state.total_photons,
        "amplitudes": [{"basis": [k, m], "re": amp.real, "im": amp.imag}
                       for (k, m), amp in sorted(state.amplitudes.items())],
        "marginal_mode0": photon_number_distribution(state, 0).tolist(),
        "marginal_mode1": photon_number_distribution(state, 1).tolist(),
    }


@pytest.mark.parametrize("theta, phi", [(math.pi / 4, math.pi), (0.8853981633974483, 0.3)])
def test_fock_bs_json_reads_back_for_every_input_under_the_cap(theta, phi):
    for total in range(41):
        for n1 in range(total + 1):
            state = bs_output_from_angle(n1, total - n1, theta, phi)
            assert_reads_back(_fock_bs_json(state), fock_bs_payload(state))


@pytest.mark.parametrize("command", ["sample", "analyze", "network", "fock-bs", "wigner"])
def test_unwritable_out_exits_1_with_one_line(tmp_path, command):
    data, config = tmp_path / "s.csv", tmp_path / "net.json"
    run_cli(["sample", "--state", "vacuum", "--count", "100", "--out", str(data)])
    config.write_text(json.dumps(README_NETWORK))
    args = {
        "sample": ["--state", "vacuum", "--count", "10"],
        "analyze": ["--in", str(data)],
        "network": ["--config", str(config)],
        "fock-bs": ["--n1", "1", "--n2", "1"],
        "wigner": ["--state", "vacuum"],
    }[command]
    out = tmp_path / "missing" / "out"
    result = run_cli([command, *args, "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a handled error, not a traceback
    assert result.output.strip().splitlines() == [
        f"Error: cannot write {out}: No such file or directory"
    ]


def long_and_short_args(tmp_path, command):
    """Arguments of `command` (no --out) that write a long and a short file."""
    data, config, small = tmp_path / "s.csv", tmp_path / "net.json", tmp_path / "one.json"
    run_cli(["sample", "--state", "vacuum", "--count", "3000", "--out", str(data)])
    config.write_text(json.dumps(chain16_network()))
    small.write_text(json.dumps({"modes": 1}))
    return {
        "sample": (["--state", "vacuum", "--count", "20000"], ["--state", "vacuum", "--count", "10"]),
        "analyze": (["--in", str(data), "--bins", "200"], ["--in", str(data), "--bins", "4"]),
        "wigner": (["--state", "vacuum", "--nx", "80", "--np", "80"],
                   ["--state", "vacuum", "--nx", "2", "--np", "2"]),
        "network": (["--config", str(config)], ["--config", str(small)]),
        "fock-bs": (["--n1", "20", "--n2", "20"], ["--n1", "1", "--n2", "0"]),
    }[command]


@pytest.mark.parametrize("command", ["sample", "analyze", "wigner", "network", "fock-bs"])
def test_out_over_a_longer_or_shorter_file_holds_a_new_file_s_bytes(tmp_path, command):
    long, short = long_and_short_args(tmp_path, command)
    fresh = {}
    for name, args in (("long", long), ("short", short)):
        fresh[name] = tmp_path / f"fresh_{name}"
        assert run_cli([command, *args, "--out", str(fresh[name])]).exit_code == 0
    out = tmp_path / "out"
    for name, args in (("long", long), ("short", short), ("long", long)):
        assert run_cli([command, *args, "--out", str(out)]).exit_code == 0
        assert out.read_bytes() == fresh[name].read_bytes()
    assert fresh["short"].stat().st_size < fresh["long"].stat().st_size


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("command", ["sample", "network", "fock-bs"])
def test_out_to_the_null_device_exits_0(tmp_path, command):
    args = long_and_short_args(tmp_path, command)[0]
    result = run_cli([command, *args, "--out", "/dev/null"])
    assert result.exit_code == 0, result.output
    assert "/dev/null" in result.output


@pytest.mark.parametrize("command", ["network", "fock-bs"])
def test_short_writes_still_write_the_whole_file(tmp_path, monkeypatch, command):
    long, short = long_and_short_args(tmp_path, command)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    run_cli([command, *long, "--out", str(fresh)])
    run_cli([command, *short, "--out", str(out)])
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(write(fd, data[:1000]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    assert run_cli([command, *long, "--out", str(out)]).exit_code == 0
    monkeypatch.undo()
    assert out.read_bytes() == fresh.read_bytes()
    assert len(sizes) == -(-len(fresh.read_bytes()) // 1000) > 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("command", ["network", "fock-bs"])
def test_out_to_a_named_pipe_writes_the_file_s_bytes(tmp_path, command):
    long = long_and_short_args(tmp_path, command)[0]
    fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
    run_cli([command, *long, "--out", str(fresh)])
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert run_cli([command, *long, "--out", str(fifo)]).exit_code == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive() and read == [fresh.read_bytes()]


@pytest.mark.parametrize("command", ["sample", "network", "fock-bs"])
def test_symlinked_out_rewrites_its_target(tmp_path, command):
    long, short = long_and_short_args(tmp_path, command)
    target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
    run_cli([command, *long, "--out", str(target)])
    link.symlink_to(target)
    run_cli([command, *short, "--out", str(fresh)])
    assert run_cli([command, *short, "--out", str(link)]).exit_code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", ["sample", "network", "fock-bs"])
def test_hard_linked_out_shows_the_new_bytes_through_each_link(tmp_path, command):
    long, short = long_and_short_args(tmp_path, command)
    out, other, fresh = tmp_path / "out", tmp_path / "other", tmp_path / "fresh"
    run_cli([command, *short, "--out", str(out)])
    os.link(out, other)
    run_cli([command, *long, "--out", str(fresh)])
    assert run_cli([command, *long, "--out", str(out)]).exit_code == 0
    assert other.read_bytes() == out.read_bytes() == fresh.read_bytes()
    assert other.stat().st_ino == out.stat().st_ino and out.stat().st_nlink == 2


@pytest.mark.parametrize("args", [
    ["fock-bs", "--n1", "1", "--n2", "1"],
    ["sample", "--state", "vacuum", "--count", "5"],
])
def test_closed_stdout_ends_the_console_script_with_exit_1_and_no_traceback(tmp_path, args):
    done = run_with_closed_stdout([*args, "--out", str(tmp_path / "out")])
    assert (done.returncode, done.stderr) == (1, b"")
    assert (tmp_path / "out").stat().st_size


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_to_a_closed_stdout_ends_the_console_script_with_exit_1_and_no_message():
    done = run_with_closed_stdout(["sample", "--state", "vacuum", "--count", "50000",
                                   "--out", "/dev/stdout"])
    assert (done.returncode, done.stderr) == (1, b"")


def run_with_closed_stdout(args) -> subprocess.CompletedProcess:
    """Run the console script on `args` with a stdout pipe whose reader has
    gone before the child writes a byte."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "cvsim.cli", *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=child_env(), timeout=60)
    finally:
        os.close(write_end)


def child_env() -> dict:
    """The environment of a child process whose Python imports this checkout's cvsim."""
    return dict(os.environ, PYTHONPATH=str(Path(cvsim.__file__).resolve().parents[1]))


def test_installed_console_script_runs_cli_main(tmp_path):
    try:
        dist = importlib.metadata.distribution("cvsim")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("no cvsim distribution is installed, so there is no console script to run")
    [entry] = dist.entry_points.select(group="console_scripts", name="cvsim")
    assert entry.load() is main
    script = shutil.which("cvsim")
    assert script is not None, "the cvsim console script is not on PATH"
    words = ["fock-bs", "--n1", "3", "--n2", "2", "--out"]
    want, got, bogus = tmp_path / "want.json", tmp_path / "got.json", tmp_path / "bogus.json"
    assert run_cli([*words, str(want)]).exit_code == 0
    done = subprocess.run([script, *words, str(got)], env=child_env(), capture_output=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert got.read_bytes() == want.read_bytes()
    done = subprocess.run([script, *words, str(bogus), "--bogus", "1"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1] == "Error: unrecognized arguments: --bogus 1"
    assert not bogus.exists()


def test_closed_stdout_raises_without_standalone_mode(tmp_path):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with redirect_stdout(ClosedPipe()), pytest.raises(BrokenPipeError):
        main(["fock-bs", "--n1", "1", "--n2", "1", "--out", str(tmp_path / "f.json")],
             standalone_mode=False)


def test_sample_rejects_out_of_range_fock(tmp_path):
    result = run_cli(
        ["sample", "--state", "fock", "--n", "12", "--count", "10",
         "--out", str(tmp_path / "x.csv")],
    )
    assert result.exit_code == 2


def test_sample_with_nan_cdf_exits_1_naming_the_record(tmp_path):
    # at |alpha| = 20 the cat's cross term is 0 * inf = NaN on part of the line
    out = tmp_path / "cat.csv"
    result = run_cli(
        ["sample", "--state", "cat", "--alpha-re", "20", "--alpha-im", "0", "--theta", "0",
         "--count", "2000", "--out", str(out)],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    number = r"[-+.e\d]+"
    assert re.fullmatch(rf"Error: CDF is NaN for record \d+ \(u={number}, phi={number}\)", lines[0])
    assert not out.exists()


def test_sample_requires_model_params(tmp_path):
    result = run_cli(
        ["sample", "--state", "squeezed", "--count", "10", "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2


SAMPLE = ["sample", "--count", "5", "--state"]
CAT_REQUIRED = "--alpha-re, --alpha-im and --theta are required for --state cat"


@pytest.mark.parametrize("args, message", [
    (["fock"], "--n is required for --state fock"),
    (["spats"], "--nbar is required for --state spats"),
    (["squeezed"], "--r is required for --state squeezed"),
    (["thermal"], "--nbar is required for --state thermal"),
    (["cat", "--alpha-im", "0", "--theta", "0"], CAT_REQUIRED),
    (["cat", "--alpha-re", "1", "--theta", "0"], CAT_REQUIRED),
    (["cat", "--alpha-re", "1", "--alpha-im", "0"], CAT_REQUIRED),
])
def test_sample_names_each_missing_model_option(tmp_path, args, message):
    out = tmp_path / "x.csv"
    result = run_cli([*SAMPLE, *args, "--out", str(out)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert errors == [f"Error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (SAMPLE + ["spats", "--nbar", "nan"], "SPATS n_bar must be finite"),
    (SAMPLE + ["spats", "--nbar", "2e300"], "SPATS n_bar must be finite and in (0, 1e+300]"),
    (SAMPLE + ["thermal", "--nbar", "inf"], "thermal n_bar must be finite"),
    (SAMPLE + ["squeezed", "--r", "nan"], "squeezing r must be finite"),
    (SAMPLE + ["cat", "--alpha-re", "nan", "--alpha-im", "0", "--theta", "0"], "cat alpha"),
    (SAMPLE + ["cat", "--alpha-re", "1", "--alpha-im", "0", "--theta", "nan"],
     "cat alpha and theta must be finite"),
    (SAMPLE + ["vacuum", "--tol", "inf"], "--tol must be finite, got inf"),
    (SAMPLE + ["fock", "--n", "2", "--tol", "nan"], "--tol must be finite, got nan"),
    (SAMPLE + ["fock", "--n", "2", "--tol", "0"], "--tol must be > 0, got 0.0"),
    (SAMPLE + ["vacuum", "--tol", "-1"], "--tol must be > 0, got -1.0"),
    (SAMPLE + ["vacuum", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (SAMPLE + ["vacuum", "--count", "0"], "--count must be >= 1, got 0"),
    (["wigner", "--state", "vacuum", "--hbar", "0"], "--hbar must be > 0, got 0.0"),
    (["wigner", "--state", "vacuum", "--hbar", "-2"], "--hbar must be > 0, got -2.0"),
    (["wigner", "--state", "coherent", "--alpha-mag", "nan"], "--alpha-mag must be finite"),
    (["wigner", "--state", "vacuum", "--xmax", "inf"], "--xmax must be finite"),
    (["analyze", "--in", "{data}", "--sigma-level", "-3"], "--sigma-level must be >= 0"),
    (["analyze", "--in", "{data}", "--sigma-level", "nan"], "--sigma-level must be finite"),
    (["analyze", "--in", "{data}", "--bins", "3"], "--bins must be >= 4, got 3"),
    (["fock-bs", "--n1", "-1", "--n2", "1"], "--n1 must be >= 0, got -1"),
    (["wigner", "--state", "squeezed", "--r", "-1"], "--r must be >= 0, got -1.0"),
    (["wigner", "--state", "vacuum", "--nx", "1"], "--nx must be >= 2, got 1"),
    (["wigner", "--state", "vacuum", "--xmin", "1", "--xmax", "0"],
     "grid bounds must satisfy x_min < x_max"),
    # an option that the chosen --state does not read
    (SAMPLE + ["vacuum", "--r", "5"], "--r is not read by --state vacuum"),
    (SAMPLE + ["squeezed", "--r", "1", "--theta", "0.5"],
     "--theta is not read by --state squeezed"),
    (["analyze", "--in", "{data}", "--r", "1"], "--r is not read without --state"),
    (["wigner", "--state", "vacuum", "--r", "5"], "--r is not read by --state vacuum"),
    (["wigner", "--state", "squeezed", "--nbar", "1"], "--nbar is not read by --state squeezed"),
])
def test_out_of_domain_option_exits_2_with_one_line(tmp_path, args, message):
    data, out = tmp_path / "s.csv", tmp_path / "out"
    run_cli(["sample", "--state", "squeezed", "--r", "1", "--count", "100",
             "--out", str(data)])
    args = [arg.format(data=data) for arg in args]
    result = run_cli([*args, "--out", str(out)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert len(errors) == 1 and message in errors[0]
    assert "usage:" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("state, variance", [
    (["squeezed", "--r", "6"], (np.exp(-12.0) + np.exp(12.0)) / 2.0),
    (["thermal", "--nbar", "1e5"], 200001.0),
    (["spats", "--nbar", "1e6"], 4e6 + 3.0),
], ids=["squeezed-r6", "thermal-1e5", "spats-1e6"])
def test_sample_reaches_quantiles_far_past_the_first_bracket(tmp_path, state, variance):
    out = tmp_path / "s.csv"
    result = run_cli(["sample", "--state", *state, "--count", "100000", "--out", str(out)])
    assert result.exit_code == 0
    values = read_samples_csv(str(out)).values
    assert values.size == 100_000
    assert np.var(values, ddof=1) == pytest.approx(variance, rel=0.03)


def test_analyze_squeezed_run(tmp_path):
    data = tmp_path / "s.csv"
    rep = tmp_path / "v.csv"
    run_cli(
        ["sample", "--state", "squeezed", "--r", "1", "--count", "40000",
         "--seed", "42", "--out", str(data)],
    )
    result = run_cli(
        ["analyze", "--in", str(data), "--bins", "20", "--sigma-level", "3",
         "--state", "squeezed", "--r", "1", "--out", str(rep)],
    )
    assert result.exit_code == 0
    assert "heisenberg violations: 0" in result.output
    assert "squeezing certified" in result.output
    report = read_variance_csv(str(rep))
    assert len(report.bin_centers) == 20
    assert report.counts.sum() == 40000


def test_analyze_vacuum_certifies_nothing(tmp_path):
    data = tmp_path / "v.csv"
    rep = tmp_path / "r.csv"
    run_cli(["sample", "--state", "vacuum", "--count", "20000", "--out", str(data)])
    result = run_cli(
        ["analyze", "--in", str(data), "--bins", "16", "--state", "vacuum", "--out", str(rep)],
    )
    assert result.exit_code == 0
    assert "heisenberg violations: 0" in result.output
    assert "certified in 0 bins" in result.output


def test_analyze_empty_file_fails(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    result = run_cli(
        ["analyze", "--in", str(bad), "--state", "vacuum", "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 1


@pytest.mark.parametrize("records", [
    "0.1,inf\n0.2,1.0\n",
    "0.1,1e308\n0.2,-1e308\n",
    "0.1,1e160\n0.2,-1.2e160\n",
    "0.1,1e100\n0.2,-1e100\n1.7,1e90\n1.8,-1e90\n",
], ids=["inf-record", "1e308", "1e160", "product"])
def test_analyze_non_finite_variance_exits_1_with_one_line(tmp_path, records):
    data, out = tmp_path / "s.csv", tmp_path / "o.csv"
    data.write_text("phase,x\n" + records)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(["analyze", "--in", str(data), "--bins", "4", "--out", str(out)])
    assert result.exit_code == 1
    assert re.fullmatch(r"Error: the variance( product)? of the phase bin at phi = "
                        r"0\.7853981633974483 is not finite\n", result.output)
    assert not out.exists()


def test_analyze_without_model_flags(tmp_path):
    data = tmp_path / "s.csv"
    rep = tmp_path / "v.csv"
    run_cli(["sample", "--state", "vacuum", "--count", "8000", "--out", str(data)])
    result = run_cli(["analyze", "--in", str(data), "--bins", "8", "--out", str(rep)])
    assert result.exit_code == 0
    report = read_variance_csv(str(rep))
    assert np.isnan(report.theoretical_variance).all()
    assert np.isfinite(report.estimated_variance).all()


def test_analyze_malformed_line_names_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("phase,x\n0.0,1.0\noops,2\n")
    result = run_cli(
        ["analyze", "--in", str(bad), "--state", "vacuum", "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 1
    assert "line 3" in result.output


# line 5000 starts past the reader's first 64 KiB chunk
@pytest.mark.parametrize("lineno", [3, 5000])
def test_analyze_input_not_utf8_names_line(tmp_path, lineno):
    bad = tmp_path / "latin1.csv"
    lines = [b"phase,x", *[b"-0.7853981633974483,1.2345678901234567"] * (lineno - 2),
             b"0.5,\xe91.0", b""]
    bad.write_bytes(b"\n".join(lines))
    assert (len(b"\n".join(lines[:lineno - 1])) + 1 > 65536) == (lineno == 5000)
    result = run_cli(
        ["analyze", "--in", str(bad), "--state", "vacuum", "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a handled error, not a traceback
    assert result.output.strip().splitlines() == [
        f"Error: line {lineno}: cannot parse '0.5,\\udce91.0'"
    ]


def test_network_config_not_utf8_exits_2_with_one_line(tmp_path):
    config = tmp_path / "latin1.json"
    config.write_bytes(b'{"modes": 1, "gates": [], "analyses": [], "hbar": 2.0, "note": "\xe9"}')
    result = run_cli(["network", "--config", str(config),
                      "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines()[-1].startswith("Error: config is not valid JSON: ")


@pytest.mark.parametrize(
    "text",
    ["1" * 5000, "[" * 100_000 + "]" * 100_000],
    ids=["int-past-the-digit-limit", "array-nested-too-deep"],
)
def test_network_config_json_load_failure_exits_2_with_one_line(tmp_path, text):
    config = tmp_path / "bad.json"
    config.write_text(text)
    result = run_cli(["network", "--config", str(config),
                      "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: config is not valid JSON: ")


def test_network_three_bs_config(tmp_path):
    config = tmp_path / "net.json"
    config.write_text(
        json.dumps(
            {
                "modes": 4,
                "hbar": 2.0,
                "gates": [
                    {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
                    {"kind": "squeeze", "modes": [1], "params": {"r": 0.5, "theta": np.pi}},
                    {"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": np.pi / 4, "phi": 0.0}},
                    {"kind": "beamsplitter", "modes": [0, 2], "params": {"theta": np.pi / 4, "phi": 0.0}},
                    {"kind": "beamsplitter", "modes": [1, 3], "params": {"theta": np.pi / 4, "phi": 0.0}},
                ],
                "analyses": [
                    {"type": "log_negativity", "part_a": [0], "part_b": [3]},
                    {"type": "simon", "modes": [0, 2]},
                ],
            }
        )
    )
    out = tmp_path / "out.json"
    result = run_cli(["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["analyses"][0]["value"] == pytest.approx(0.5480589169169516, abs=1e-9)
    assert doc["analyses"][1]["verdict"] == "separable"
    # display threshold applied: exact zeros, not 1e-17 dust
    flat = [v for row in doc["cov"] for v in row]
    assert 0.0 in flat
    assert all(v == 0.0 or abs(v) > 1e-11 for v in flat)


def test_network_simon_pair(tmp_path):
    config = tmp_path / "pair.json"
    config.write_text(
        json.dumps(
            {
                "modes": 2,
                "gates": [
                    {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
                    {"kind": "squeeze", "modes": [1], "params": {"r": 0.5, "theta": np.pi}},
                    {"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": np.pi / 4, "phi": 0.0}},
                ],
                "analyses": [
                    {"type": "simon", "modes": [0, 1]},
                    {"type": "log_negativity", "part_a": [0], "part_b": [1]},
                ],
            }
        )
    )
    out = tmp_path / "o.json"
    assert run_cli(["network", "--config", str(config), "--out", str(out)]).exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["analyses"][0]["verdict"] == "entangled"
    assert doc["analyses"][1]["value"] == pytest.approx(1.4426950408889623, abs=1e-9)


def test_network_output_byte_identical(tmp_path):
    config = tmp_path / "net.json"
    config.write_text(
        json.dumps(
            {
                "modes": 2,
                "gates": [
                    {"kind": "squeeze", "modes": [0], "params": {"r": 0.3, "theta": 0.1}},
                    {"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": 0.6, "phi": 0.2}},
                ],
                "analyses": [{"type": "log_negativity", "part_a": [0], "part_b": [1]}],
            }
        )
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["network", "--config", str(config), "--out", str(a)])
    run_cli(["network", "--config", str(config), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_network_zero_gates_identity(tmp_path):
    config = tmp_path / "id.json"
    config.write_text(json.dumps({"modes": 2, "gates": []}))
    out = tmp_path / "o.json"
    assert run_cli(["network", "--config", str(config), "--out", str(out)]).exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["cov"] == np.eye(4).tolist()


def test_network_schema_violation_exit2(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"modes": 2, "gates": [{"kind": "squeeze", "modes": [0], "params": {"r": -1, "theta": 0}}]}))
    result = run_cli(["network", "--config", str(config), "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 2
    assert "/gates/0/params/r" in result.output


def one_gate(kind, modes, **params):
    return {"modes": 2, "gates": [{"kind": kind, "modes": modes, "params": params}],
            "analyses": [{"type": "log_negativity", "part_a": [0], "part_b": [1]}]}


def one_wigner(**grid):
    return {"modes": 1, "analyses": [{"type": "wigner", "mode": 0, "grid": grid}]}


@pytest.mark.parametrize("config, pointer", [
    (one_gate("displace", [0], alpha_mag=1.0, alpha_phase=math.nan), "/gates/0/params/alpha_phase"),
    (one_gate("displace", [0], alpha_mag=math.inf, alpha_phase=0.0), "/gates/0/params/alpha_mag"),
    (one_gate("squeeze", [0], r=0.5, theta=math.nan), "/gates/0/params/theta"),
    (one_gate("squeeze", [0], r=math.inf, theta=0.0), "/gates/0/params/r"),
    (one_gate("rotate", [1], phi=math.nan), "/gates/0/params/phi"),
    (one_gate("beamsplitter", [0, 1], theta=0.5, phi=math.nan), "/gates/0/params/phi"),
    (one_gate("prepare_thermal", [1], n_bar=math.inf), "/gates/0/params/n_bar"),
    ({"modes": 1, "hbar": math.inf}, "/hbar"),
    ({"modes": 1, "hbar": 10**400}, "/hbar"),  # an int that float() cannot hold
    (one_wigner(x_max=math.inf), "/analyses/0/grid/x_max"),
    (one_wigner(p_min=-math.inf), "/analyses/0/grid/p_min"),
])
def test_network_non_finite_number_exits_2_naming_it(tmp_path, config, pointer):
    path, out = tmp_path / "net.json", tmp_path / "o.json"
    path.write_text(json.dumps(config))  # NaN and Infinity, which json.load reads
    result = run_cli(["network", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert line.startswith(f"Error: {pointer}: expected a finite number, got ")
    assert not out.exists()


def test_network_runtime_failure_names_gate_exit1(tmp_path):
    config = tmp_path / "used.json"
    config.write_text(json.dumps({"modes": 1, "gates": [
        {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
        {"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 1.0}},
    ]}))
    out = tmp_path / "o.json"
    result = run_cli(["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a handled error, not a traceback
    assert result.output.strip().splitlines() == [
        "Error: /gates/1: mode 0 is not in the vacuum state"
    ]
    assert not out.exists()


def test_network_reads_the_vacuum_in_vacuum_units(tmp_path):
    # prepare_thermal's vacuum test scales with hbar: at 1e-12 it refuses a
    # squeezed mode, at 1e8 it accepts the rounding of gates on vacuum modes
    config, out = tmp_path / "net.json", tmp_path / "o.json"
    config.write_text(json.dumps({"modes": 1, "hbar": 1e-12, "gates": [
        {"kind": "squeeze", "modes": [0], "params": {"r": 1.0, "theta": 0.0}},
        {"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 0.5}},
    ]}))
    result = run_cli(["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [
        "Error: /gates/1: mode 0 is not in the vacuum state"
    ]
    assert not out.exists()
    config.write_text(json.dumps({"modes": 2, "hbar": 1e8, "gates": [
        {"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": 0.3, "phi": 0.7}},
        {"kind": "rotate", "modes": [0], "params": {"phi": 0.3}},
        {"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 0.5}},
    ]}))
    result = run_cli(["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["cov"][0][0] == 1e8


def test_network_writes_a_small_hbar_vacuum(tmp_path):
    # the display threshold of cov and mean is in vacuum units, so at
    # hbar = 1e-12 the vacuum's hbar/2 is written, not zeroed
    config, out = tmp_path / "net.json", tmp_path / "o.json"
    config.write_text(json.dumps({"modes": 1, "hbar": 1e-12, "gates": [
        {"kind": "displace", "modes": [0], "params": {"alpha_mag": 1e-6, "alpha_phase": 0.0}},
    ], "analyses": [{"type": "reduced", "modes": [0]}]}))
    result = run_cli(["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    for written in (doc, doc["analyses"][0]):
        assert written["cov"] == [[5e-13, 0.0], [0.0, 5e-13]]
        assert written["mean"][0] > 0.0 and written["mean"][1] == 0.0


@pytest.mark.parametrize("hbar", [1e-3, 1e-6])
def test_network_simon_verdict_holds_at_small_hbar(tmp_path, hbar):
    # both sides of the Simon inequality scale as (hbar/2)^4, and an absolute
    # tolerance read this entangled pair as separable next to E_N = 0.548
    config, out = tmp_path / "net.json", tmp_path / "o.json"
    config.write_text(json.dumps(dict(README_NETWORK, hbar=hbar)))
    result = run_cli(["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    simon, negativity = json.loads(out.read_text())["analyses"][:2]
    assert simon["verdict"] == "entangled"
    assert negativity["value"] == pytest.approx(0.548, abs=1e-3)


@pytest.mark.parametrize("hbar", [1e8, 1e10])
def test_network_reads_physicality_in_vacuum_units(tmp_path, hbar):
    # rounding in cov + i(hbar/2)Omega grows with hbar; an absolute tolerance
    # of 1e-9 read this 16-mode state as unphysical from hbar = 1e7
    config, out = tmp_path / "net.json", tmp_path / "o.json"
    config.write_text(json.dumps(dict(chain16_network(), hbar=hbar)))
    result = run_cli(["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["analyses"][2]["value"] > 0


def squeezes(r, count):
    return {"modes": 1, "gates": [{"kind": "squeeze", "modes": [0], "params": {"r": r, "theta": 0.0}}] * count}


@pytest.mark.parametrize("config, line", [
    (squeezes(800.0, 1), "Error: /gates/0: matrix is not symplectic (||S Omega S^T - Omega||_F = nan)"),
    (one_gate("displace", [0], alpha_mag=1e308, alpha_phase=0.3),
     "Error: /gates/0: shift [inf inf] is not finite"),
    (squeezes(6.0, 70), "Error: /gates/59: the gate's output is not finite"),
    (one_gate("prepare_thermal", [1], n_bar=1e308), "Error: /gates/0: the gate's output is not finite"),
], ids=["squeeze-r800", "displace-1e308", "70-squeezes-r6", "thermal-1e308"])
def test_network_non_finite_gate_exits_1_naming_it(tmp_path, config, line):
    path, out = tmp_path / "net.json", tmp_path / "o.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second stderr line
        result = run_cli(["network", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [line]
    assert not out.exists()


@pytest.mark.parametrize("args, line", [
    (["--state", "thermal", "--nbar", "1e308"], "Error: the gate's output is not finite"),
    (["--state", "squeezed", "--r", "800"],
     "Error: matrix is not symplectic (||S Omega S^T - Omega||_F = nan)"),
    (["--state", "coherent", "--alpha-mag", "1e308"], "Error: shift [inf nan] is not finite"),
], ids=["thermal-1e308", "squeeze-r800", "coherent-1e308"])
def test_wigner_non_finite_state_exits_1_with_one_line(tmp_path, args, line):
    out = tmp_path / "w.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second stderr line
        result = run_cli(["wigner", *args, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [line]  # the spec's /gates/0 is not shown
    assert not out.exists()


@pytest.mark.parametrize("r, theta", [(8.0, 0.7), (8.0, 0.0), (10.0, 0.0), (15.0, 0.0)])
def test_wigner_strong_squeezer_exits_0(tmp_path, r, theta):
    out = tmp_path / "w.csv"
    result = run_cli(["wigner", "--state", "squeezed", "--r", str(r), "--theta", str(theta),
                      "--nx", "21", "--np", "21", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert np.isfinite(read_wigner_csv(str(out)).values).all()


# a squeezer at an angle: rounding in the covariance's entries, ~eps e^{2r},
# no longer resolves det sigma = 1, so the grid is refused, not printed wrong
@pytest.mark.parametrize("r", [9.0, 10.0, 15.0])
def test_wigner_unresolved_rotated_squeezer_exits_1_with_one_line(tmp_path, r):
    out = tmp_path / "w.csv"
    result = run_cli(["wigner", "--state", "squeezed", "--r", str(r), "--theta", "0.7",
                      "--out", str(out)])
    assert result.exit_code == 1
    [line] = result.output.strip().splitlines()
    assert line.startswith(("Error: covariance is singular", "Error: cov is too ill-conditioned"))
    assert not out.exists()


# a product of a rotated r = 9.3 squeezer and the vacuum, which is pure: its
# rounded covariance gave nu_tilde [1.0, 1.121] and purity 1.077 with exit 0
@pytest.mark.parametrize("analysis", [
    {"type": "log_negativity", "part_a": [0], "part_b": [1]},
    {"type": "simon", "modes": [0, 1]},
])
def test_network_unresolved_rotated_squeezer_exits_1_with_one_line(tmp_path, analysis):
    path, out = tmp_path / "net.json", tmp_path / "o.json"
    gate = {"kind": "squeeze", "modes": [0], "params": {"r": 9.3, "theta": 0.7}}
    path.write_text(json.dumps({"modes": 2, "gates": [gate], "analyses": [analysis]}))
    result = run_cli(["network", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 1
    [line] = result.output.strip().splitlines()
    assert line.startswith("Error: /analyses/0: cov is too ill-conditioned")
    assert not out.exists()


def thermal_pair(n_bar):
    return [{"kind": "prepare_thermal", "modes": [m], "params": {"n_bar": n_bar}} for m in (0, 1)]


# a product of two thermal states (E_N = 0) whose Simon sides overflow: it wrote
# Infinity for them and "entangled", with exit 0 and a numpy warning.  The
# sides are reported in hbar units, (hbar/2)^4 times those in vacuum units,
# so at hbar = 1e200 those of the vacuum overflow
@pytest.mark.parametrize("spec, rhs", [
    ({"gates": thermal_pair(1e154)}, "inf"),
    ({"gates": thermal_pair(1e150)}, r"7\.99\d*e\+300"),
    ({"hbar": 1e200}, "inf"),
], ids=["n_bar-1e154", "n_bar-1e150", "vacuum-hbar-1e200"])
def test_network_simon_overflow_exits_1_with_one_line(tmp_path, spec, rhs):
    path, out = tmp_path / "net.json", tmp_path / "o.json"
    path.write_text(json.dumps({"modes": 2, **spec,
                                "analyses": [{"type": "simon", "modes": [0, 1]}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second stderr line
        result = run_cli(["network", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 1
    [line] = result.output.strip().splitlines()
    assert re.fullmatch(r"Error: /analyses/0: the Simon criterion overflows float64 "
                        rf"\(lhs = inf, rhs = {rhs}\)", line)
    assert not out.exists()


# a grid whose cell area overflows wrote NaN axis labels and values with exit 0,
# a state whose det sigma overflows was called singular after a warning,
# and a grid whose W peak times cell area overflows printed an infinite
# normalization after a warning, with exit 0
@pytest.mark.parametrize("args, code, line", [
    (["wigner", "--state", "squeezed", "--r", "0", "--xmin", "-1e308", "--xmax", "1e308",
      "--pmin", "-1e308", "--pmax", "1e308", "--nx", "3", "--np", "3"], 2,
     "Error: grid cell area overflows float64: the bounds are too far apart"),
    (["wigner", "--state", "thermal", "--nbar", "1e160"], 1,
     "Error: the covariance determinant overflows float64"),
    (["wigner", "--state", "vacuum", "--hbar", "1e-100", "--xmin", "-1e154", "--xmax", "1e154",
      "--pmin", "-1e154", "--pmax", "1e154", "--nx", "3", "--np", "3"], 1,
     "Error: the Riemann sum of the Wigner grid is not finite (inf)"),
], ids=["grid-1e308", "det-overflow", "riemann-inf"])
def test_wigner_overflow_exits_with_one_line(tmp_path, args, code, line):
    out = tmp_path / "w.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli([*args, "--out", str(out)])
    assert result.exit_code == code
    assert result.output.strip().splitlines() == [line]
    assert not out.exists()


@pytest.mark.parametrize("config, code, line", [
    (one_wigner(x_min=-1e308, x_max=1e308, p_min=-1e308, p_max=1e308, nx=3, np=3), 2,
     "Error: /analyses/0/grid: grid cell area overflows float64: the bounds are too far apart"),
    ({"modes": 1, "gates": [{"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 1e160}}],
      "analyses": [{"type": "wigner", "mode": 0}]}, 1,
     "Error: /analyses/0: the covariance determinant overflows float64"),
    ({**one_wigner(x_min=-1e154, x_max=1e154, p_min=-1e154, p_max=1e154, nx=3, np=3),
      "hbar": 1e-100}, 1,
     "Error: /analyses/0: the Riemann sum of the Wigner grid is not finite (inf)"),
], ids=["grid-1e308", "det-overflow", "riemann-inf"])
def test_network_wigner_overflow_exits_with_one_line(tmp_path, config, code, line):
    path, out = tmp_path / "net.json", tmp_path / "o.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(["network", "--config", str(path), "--out", str(out)])
    assert result.exit_code == code
    assert result.output.strip().splitlines() == [line]
    assert not out.exists()


def test_wigner_writes_0_where_the_quadratic_form_overflows(tmp_path):
    # the corners of this grid wrote w = nan: inf - inf in the form
    out = tmp_path / "w.csv"
    bounds = ["--xmin", "-1.3e154", "--xmax", "1.3e154", "--pmin", "-1.3e154", "--pmax", "1.3e154"]
    result = run_cli(["wigner", "--state", "squeezed", "--r", "1", "--theta", "0.7", *bounds,
                      "--nx", "3", "--np", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    values = read_wigner_csv(str(out)).values
    assert values[1, 1] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
    assert np.count_nonzero(values) == 1


@pytest.mark.parametrize("before", [None, b"an earlier result\n"], ids=["new", "existing"])
def test_network_result_json_cannot_read_back_exits_1_leaving_out_as_it_was(tmp_path,
                                                                         monkeypatch, before):
    run = cli.run_network

    def run_with_a_nan(spec):
        result = run(spec)
        result.analyses.append({"type": "reduced", "value": math.nan})
        return result

    monkeypatch.setattr(cli, "run_network", run_with_a_nan)
    path, out = tmp_path / "net.json", tmp_path / "o.json"
    path.write_text(json.dumps(README_NETWORK))
    if before is not None:
        out.write_bytes(before)
    result = run_cli(["network", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == ["Error: cannot write nan in a JSON result file"]
    assert (out.read_bytes() if out.exists() else None) == before


def test_network_simon_of_subnormal_correlations_prints_no_warning(tmp_path):
    # a beam splitter at theta = 5e-324 leaves cross entries of ~5e-324,
    # whose det divided by zero inside numpy and warned on stderr
    path, out = tmp_path / "net.json", tmp_path / "o.json"
    path.write_text(json.dumps({"modes": 2, "gates": [
        {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.3}},
        {"kind": "squeeze", "modes": [1], "params": {"r": 0.2, "theta": 1.0}},
        {"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": 5e-324, "phi": math.pi / 2}},
    ], "analyses": [{"type": "simon", "modes": [0, 1]}]}))
    done = subprocess.run([sys.executable, "-m", "cvsim.cli", "network", "--config", str(path),
                           "--out", str(out)], env=child_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(out.read_text())["analyses"][0]["verdict"] == "separable"


@pytest.mark.parametrize("r", [8.0, 9.0, 10.0, 15.0])
def test_network_strong_squeezer_exits_0(tmp_path, r):
    path, out = tmp_path / "net.json", tmp_path / "o.json"
    gate = {"kind": "squeeze", "modes": [0], "params": {"r": r, "theta": 0.7}}
    path.write_text(json.dumps({"modes": 1, "gates": [gate]}))
    result = run_cli(["network", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["cov"][1][1] > 1e6


@pytest.mark.parametrize("command", ["sample", "analyze"])
@pytest.mark.parametrize("state, line", [
    (["squeezed", "--r", "400"], "Error: --state squeezed: mean and cov must be finite"),
    (["thermal", "--nbar", "1e308"], "Error: --state thermal: mean and cov must be finite"),
], ids=["squeezed-r400", "thermal-1e308"])
def test_overflowing_gaussian_source_exits_1_with_one_line(tmp_path, command, state, line):
    data, out = tmp_path / "s.csv", tmp_path / "o.csv"
    assert run_cli(["sample", "--state", "vacuum", "--count", "10", "--out", str(data)]).exit_code == 0
    given = {"sample": ["--count", "10"], "analyze": ["--in", str(data)]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second stderr line
        result = run_cli([command, *given, "--state", *state, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [line]
    assert not out.exists()


def test_fock_bs_hom(tmp_path):
    out = tmp_path / "f.json"
    result = run_cli(
        ["fock-bs", "--n1", "1", "--n2", "1", "--theta", str(np.pi / 4),
         "--phi", str(np.pi), "--out", str(out)],
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    bases = [tuple(a["basis"]) for a in doc["amplitudes"]]
    assert (1, 1) not in bases
    assert doc["marginal_mode0"] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)


def test_fock_bs_single_photon(tmp_path):
    out = tmp_path / "f.json"
    run_cli(["fock-bs", "--n1", "1", "--n2", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    amps = {tuple(a["basis"]): complex(a["re"], a["im"]) for a in doc["amplitudes"]}
    assert amps[(0, 1)] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amps[(1, 0)] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert [tuple(a["basis"]) for a in doc["amplitudes"]] == [(0, 1), (1, 0)]


def test_fock_bs_vacuum(tmp_path):
    out = tmp_path / "f.json"
    run_cli(["fock-bs", "--n1", "0", "--n2", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert len(doc["amplitudes"]) == 1
    assert doc["amplitudes"][0]["re"] == pytest.approx(1.0)


@pytest.mark.parametrize("option, value", [
    ("--theta", "nan"), ("--theta", "inf"), ("--phi", "nan"), ("--phi", "inf"), ("--phi", "-inf"),
])
def test_fock_bs_non_finite_angle_exit2(tmp_path, option, value):
    out = tmp_path / "f.json"
    result = run_cli(["fock-bs", "--n1", "2", "--n2", "1", option, value,
                      "--out", str(out)])
    assert result.exit_code == 2
    assert f"{option} must be finite" in result.output
    assert not out.exists()


def test_fock_bs_cap_exit2(tmp_path):
    result = run_cli(
        ["fock-bs", "--n1", "30", "--n2", "20", "--out", str(tmp_path / "f.json")]
    )
    assert result.exit_code == 2


FOCK_BS = ["fock-bs", "--n1", "1", "--n2", "1"]
OUT = ["--out", "{out}"]


@pytest.mark.parametrize("args, code, error", [
    (["fock-bs", "--n1", "x", "--n2", "1", *OUT], 2, "--n1"),
    ([*SAMPLE, "vacuum", "--seed", "-1", *OUT], 2, "--seed"),
    ([*SAMPLE, "bogus", *OUT], 2, "--state"),
    (FOCK_BS, 2, "--out"),
    ([*FOCK_BS, "--out", "{dir}"], 2, "--out"),
    (["analyze", "--in", "{missing}", *OUT], 2, "--in"),
    (["analyze", "--in", "{dir}", *OUT], 2, "--in"),
    (["network", "--config", "{missing}", *OUT], 2, "--config"),
    (["network", "--config", "{dir}", *OUT], 2, "--config"),
    ([*FOCK_BS, "--bogus", "1", *OUT], 2, "--bogus"),
    (["fock-bs", "--n2", "1", *OUT, "--n1"], 2, "--n1"),
    ([*FOCK_BS, "--th", "0.3", *OUT], 2, "--th"),
    (["bogus", *OUT], 2, "bogus"),
    ([], 2, None),
    # a value that starts with "-" is the option's value
    (["wigner", "--state", "vacuum", "--xmin", "-1e-3", "--nx", "3", "--np", "3", *OUT], 0, None),
    ([*FOCK_BS, "--phi", "-2.5e-05", *OUT], 0, None),
    (["wigner", "--state", "vacuum", "--xmin", "-inf", *OUT], 2,
     "Error: --xmin must be finite, got -inf"),
])
def test_command_line_that_does_not_parse_exits_2_naming_the_option(tmp_path, args, code, error):
    paths = {"out": tmp_path / "o", "dir": tmp_path / "d", "missing": tmp_path / "missing.csv"}
    paths["dir"].mkdir()
    result = run_cli([arg.format(**paths) for arg in args])
    assert result.exit_code == code
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    if code == 0:
        assert errors == [] and paths["out"].exists()
        return
    assert list(tmp_path.rglob("*")) == [paths["dir"]]
    if error is not None:
        assert len(errors) == 1 and error in errors[0]


MODEL_OPTIONS = ["--state", "--n", "--nbar", "--r", "--alpha-re", "--alpha-im", "--theta"]
#: command -> (its options, the defaults its help shows)
HELP = {
    "sample": (MODEL_OPTIONS + ["--count", "--seed", "--tol", "--out"],
               {"--seed": "42", "--tol": repr(DEFAULT_TOL)}),
    "analyze": (["--in", "--bins", "--sigma-level", *MODEL_OPTIONS, "--out"],
                {"--bins": "50", "--sigma-level": "3.0"}),
    "network": (["--config", "--out"], {}),
    "fock-bs": (["--n1", "--n2", "--theta", "--phi", "--out"],
                {"--theta": repr(math.pi / 4), "--phi": repr(math.pi)}),
    "wigner": (["--state", "--alpha-mag", "--alpha-phase", "--r", "--theta", "--nbar", "--hbar",
                "--xmin", "--xmax", "--pmin", "--pmax", "--nx", "--np", "--out"],
               {"--xmin": "-5.0", "--xmax": "5.0", "--pmin": "-5.0", "--pmax": "5.0",
                "--nx": "100", "--np": "100"}),
}


def option_entries(text):
    """Option -> its entry in the options section of a help text, with the
    whitespace of wrapped lines collapsed."""
    entries, name = {}, None
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.lower() == "options:")
    for line in lines[start + 1:]:
        if line.lstrip().startswith("--"):
            name = line.split()[0].rstrip(",")
            entries[name] = ""
        if name is not None:
            entries[name] += " " + line
    return {name: " ".join(entry.split()) for name, entry in entries.items()}


@pytest.mark.parametrize("command", list(HELP))
def test_help_lists_every_option_and_its_default(command):
    options, defaults = HELP[command]
    result = run_cli([command, "--help"])
    assert result.exit_code == 0
    entries = option_entries(result.output)
    assert set(options) <= set(entries)
    for option, default in defaults.items():
        assert f"default: {default}" in entries[option]


def test_top_level_help_lists_every_command():
    result = run_cli(["--help"])
    assert result.exit_code == 0
    assert all(command in result.output for command in HELP)


#: command -> the option pairs of a well-formed line
WELL_FORMED = {
    "sample": [("--state", "cat"), ("--alpha-re", "2"), ("--alpha-im", "0"), ("--theta", "0"),
               ("--count", "10"), ("--out", "{out}")],
    "analyze": [("--in", "{file}"), ("--state", "squeezed"), ("--r", "1"), ("--bins", "8"),
                ("--out", "{out}")],
    "network": [("--config", "{file}"), ("--out", "{out}")],
    "fock-bs": [("--n1", "1"), ("--n2", "2"), ("--theta", "0.3"), ("--out", "{out}")],
    "wigner": [("--state", "squeezed"), ("--r", "0.5"), ("--nx", "3"), ("--np", "3"),
               ("--out", "{out}")],
}
#: command -> an option pair with a negative value
NEGATIVE = {"sample": ("--alpha-re", "-2"), "analyze": ("--theta", "-1e-3"),
            "network": ("--out", "-o.json"), "fock-bs": ("--phi", "-2.5e-05"),
            "wigner": ("--xmin", "-1e-3")}
#: command -> an option pair whose value cvsim's type refuses, with no usage
#: where it can
OUT_OF_RANGE = {"sample": ("--count", "0"), "analyze": ("--in", "{missing}"),
                "network": ("--config", "{missing}"), "fock-bs": ("--n1", "-1"),
                "wigner": ("--nx", "1")}
#: command -> an option pair whose value argparse refuses
INVALID = {"sample": ("--count", "x"), "analyze": ("--bins", "x"), "network": ("--out", "{dir}"),
           "fock-bs": ("--n1", "x"), "wigner": ("--nx", "x")}


def command_lines(command):
    """(id, words, exit code) of the lines that the dispatch test reads for
    `command`: well-formed lines in several spellings, and lines that fail."""
    pairs = WELL_FORMED[command]
    words = [command, *(word for pair in pairs for word in pair)]
    first, value = pairs[0]
    return [
        ("as written", words, 0),
        ("reversed", [command, *(word for pair in pairs[::-1] for word in pair)], 0),
        ("--opt=value", [command, *(f"{flag}={value}" for flag, value in pairs)], 0),
        ("negative", [*words, *NEGATIVE[command]], 0),
        ("negative=", [*words, "=".join(NEGATIVE[command])], 0),
        ("repeated", [*words, first, value], 0),
        ("--help", [command, "--help"], 0),
        ("--help after", [*words, "--help"], 0),
        ("--help=", [*words, "--help=1"], 2),
        ("missing value", [*words, first], 2),
        ("missing option", words[:-2], 2),
        ("unknown", [*words, "--bogus", "1"], 2),
        ("unknown first", [command, "--bogus", "1", *words[1:]], 2),
        ("abbreviated", [command, first[:3], value, *words[3:]], 2),
        ("extra word", [*words, "extra"], 2),
        ("extra words", [command, "extra", *words[1:], "more"], 2),
        ("-- at the end", [*words, "--"], 2),
        ("-- word", [*words, "--", "extra"], 2),
        ("-- option", [command, "--", *words[1:]], 2),
        ("-h", [*words, "-h"], 2),
        ("out of range", [*words, *OUT_OF_RANGE[command]], 2),
        ("invalid", [*words, *INVALID[command]], 2),
    ]


#: lines whose first word is not a command
NOT_COMMANDS = [("no words", [], 2), ("--help", ["--help"], 0),
                ("--help command", ["--help", "fock-bs"], 0), ("-h", ["-h"], 2),
                ("typo", ["fock", "--n1", "1"], 2), ("bogus", ["bogus", "--out", "{out}"], 2),
                ("command=", ["fock-bs=1"], 2), ("--", ["--", "fock-bs"], 2),
                ("option first", ["--n1", "1", "fock-bs"], 2)]


def parse_outcome(parse, words):
    """What `parse` makes of `words`, as ``main`` joins them: (0, the
    options without "command", output), (the exit code of --help, None,
    its text) or (2, the usage and ``Error:`` line, output)."""
    output = io.StringIO()
    with redirect_stdout(output), redirect_stderr(output):
        try:
            options = parse(cli._joined(words))
        except cli.CLIError as exc:
            return exc.exit_code, f"{exc.usage}Error: {exc}", output.getvalue()
        except SystemExit as exc:
            return exc.code, None, output.getvalue()
    options.pop("command", None)
    return 0, options, output.getvalue()


@pytest.mark.parametrize("args, code", [
    *(pytest.param(args, code, id=f"{command} {name}") for command in WELL_FORMED
      for name, args, code in command_lines(command)),
    *(pytest.param(args, code, id=name) for name, args, code in NOT_COMMANDS),
])
def test_a_command_s_own_parser_reads_a_line_as_the_cvsim_parser_does(tmp_path, args, code):
    paths = {"out": tmp_path / "o", "file": tmp_path / "in", "missing": tmp_path / "missing",
             "dir": tmp_path}
    paths["file"].write_text("")
    words = [arg.format(**paths) for arg in args]
    outcome = parse_outcome(cli._options, words)
    assert outcome == parse_outcome(lambda words: vars(cli._parser().parse_args(words)), words)
    assert outcome[0] == code
    if code == 2:  # a usage, but not for a value out of range, then one Error: line
        *usage, error = outcome[1].split("\n")
        assert error.startswith("Error: ") and "Error: " not in "".join(usage)
        assert not usage or usage[0].startswith("usage: cvsim")
    assert not paths["out"].exists()


@pytest.mark.parametrize("words", [["--n1", "1", "--n2", "1", "--out", "{out}"],
                                   ["--out={out}", "--n2=1", "--n1=1"]],
                         ids=["as written", "--opt=value"])
def test_a_well_formed_command_line_is_read_without_argparse(tmp_path, monkeypatch, words):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a well-formed command line")

    parser = cli._parser()
    for each in (parser, *parser.commands.values()):
        monkeypatch.setattr(each, "parse_args", refuse)
        monkeypatch.setattr(each, "parse_known_args", refuse)
    out = tmp_path / "f.json"
    assert run_cli(["fock-bs", *(word.format(out=out) for word in words)]).exit_code == 0
    assert json_digests(out) == FOCK_BS_GOLDENS["--n1", "1", "--n2", "1"]


#: (a line that gives a lone "--" as an option's value, the option)
DASHES_AS_VALUE = [
    (["fock-bs", "--n1", "1", "--n2", "1", "--out", "--"], "--out"),
    (["fock-bs", "--n1", "1", "--n2", "1", "--out=--"], "--out"),
    (["wigner", "--state=--", "--out", "w.csv"], "--state"),
    (["sample", "--state=--", "--count", "5", "--out", "s.csv"], "--state"),
    (["network", "--config", "--", "--out", "n.json"], "--config"),
    (["analyze", "--in", "--", "--out", "a.csv"], "--in"),
]


@pytest.mark.parametrize("args, flag", DASHES_AS_VALUE,
                         ids=[" ".join(args) for args, _ in DASHES_AS_VALUE])
def test_dashes_as_an_option_value_fail_as_a_missing_value(tmp_path, monkeypatch, args, flag):
    # argparse stored [] as the value, and the command ended in a TypeError traceback
    monkeypatch.chdir(tmp_path)
    result = run_cli(args)
    assert result.exit_code == 2
    *usage, error = result.output.strip().splitlines()
    assert usage[0].startswith(f"usage: cvsim {args[0]} ")
    assert error == f"Error: argument {flag}: expected one argument"
    # the line with the option moved to the end and no value gives the same lines
    missing = [word for word in args if word not in ("--", flag, f"{flag}=--")] + [flag]
    assert run_cli(missing).output == result.output
    assert parse_outcome(cli._options, args) == parse_outcome(
        lambda words: vars(cli._parser().parse_args(words)), args)
    assert not any(tmp_path.iterdir())


INT_OPTIONS = {"--n", "--count", "--seed", "--bins", "--n1", "--n2", "--nx", "--np"}
#: kind of option -> (values its type takes, values that it or a range refuses)
SWEEP_VALUES = {
    "int": (["5", "12"], ["-3", "0", "x", "2.5", "1e3", ""]),
    "float": (["0.3", "2", "-0.7", "-2.5e-05", "1e-3"], ["inf", "-nan", "x", "1e400", ""]),
    "--in": (["{file}"], ["{missing}", "{dir}", "{out}"]),
    "--config": (["{file}"], ["{missing}", "{dir}"]),
    "--out": (["{out}", "{missing}", "-o.json"], ["{dir}"]),
}


def sweep_line(rng, command):
    """A random command line over `command`'s declared options: a random
    subset in random order, each as ``--opt value`` or ``--opt=value``, and
    at times a repeated option, an unknown or abbreviated flag, --help, -h,
    --, a trailing flag without a value or an extra word."""
    declared = HELP[command][0]
    sub = cli._parser().commands[command]
    required = {"--out", "--n1", "--n2", "--count", "--in", "--config"}
    required |= {"--state"} if command in ("sample", "wigner") else set()

    def pair(flag, refused=False):
        if flag in SWEEP_VALUES:
            values = SWEEP_VALUES[flag]
        elif flag == "--state":
            values = list(sub.flags[flag].choices), ["bogus", "Fock"]
        else:
            values = SWEEP_VALUES["int" if flag in INT_OPTIONS else "float"]
        text = str(rng.choice([*values[1], "--"] if refused else values[0]))
        return [f"{flag}={text}"] if rng.random() < 0.5 else [flag, text]

    chosen = [flag for flag in declared if rng.random() < (0.95 if flag in required else 0.3)]
    pairs = [pair(chosen[i]) for i in rng.permutation(len(chosen))]
    for _ in range(rng.choice(3, p=[0.5, 0.35, 0.15])):
        flag = str(rng.choice(declared))
        kind = rng.integers(9)
        if kind == 0:  # repeated
            pairs.append(pair(str(rng.choice(chosen or declared))))
        elif kind == 1:  # a value refused by the option's type or range
            if pairs:
                at = rng.integers(len(pairs))
                pairs[at] = pair(pairs[at][0].partition("=")[0], refused=True)
        elif kind == 2:
            pairs.insert(rng.integers(len(pairs) + 1), pair("--bogus"))
        elif kind == 3:  # abbreviated
            pairs.insert(rng.integers(len(pairs) + 1), pair(flag[:rng.integers(2, len(flag))]))
        elif kind == 4:  # a trailing flag without a value
            pairs.append([flag])
        else:
            word = {5: "--help", 6: "-h", 7: "--", 8: "extra"}[kind]
            pairs.insert(rng.integers(len(pairs) + 1), [word])
    return [command, *(word for words in pairs for word in words)]


def shown(outcome):
    """`outcome` with its options as the repr of their sorted items, in
    which a NaN value equals a NaN."""
    code, options, output = outcome
    return code, repr(sorted(options.items())) if isinstance(options, dict) else options, output


@pytest.mark.parametrize("seed", range(10))
def test_flag_table_reads_random_lines_as_the_cvsim_parser_does(tmp_path, seed):
    command = list(HELP)[seed % len(HELP)]
    paths = {"out": tmp_path / "o", "file": tmp_path / "in", "missing": tmp_path / "missing",
             "dir": tmp_path / "d"}
    paths["file"].write_text("")
    paths["dir"].mkdir()
    rng = np.random.default_rng(seed)
    read = 0
    for _ in range(220):
        words = [word.format(**paths) for word in sweep_line(rng, command)]
        outcome = parse_outcome(cli._options, words)
        expected = parse_outcome(lambda words: vars(cli._parser().parse_args(words)), words)
        assert shown(outcome) == shown(expected), words
        read += isinstance(outcome[1], dict)
    # well-formed lines and lines that fail each make a good share of the sweep
    assert 40 <= read <= 180
    assert sorted(tmp_path.iterdir()) == sorted([paths["file"], paths["dir"]])


def test_sample_of_one_record_prints_nan_variance_without_warnings(tmp_path):
    out = tmp_path / "one.csv"
    code = (
        "import sys\n"
        "sys.stderr = sys.stdout\n"
        "from cvsim.cli import main\n"
        f"main(['sample', '--state', 'vacuum', '--count', '1', '--out', {str(out)!r}])\n"
    )
    lines = run_fresh(code).splitlines()
    assert lines[0] == f"wrote 1 records to {out}"
    assert re.fullmatch(r"mean \S+  variance nan", lines[1])
    assert len(lines) == 2  # no RuntimeWarning from a one-record variance


def test_wigner_vacuum(tmp_path):
    out = tmp_path / "w.csv"
    result = run_cli(
        ["wigner", "--state", "vacuum", "--xmin", "-5", "--xmax", "5",
         "--pmin", "-5", "--pmax", "5", "--nx", "101", "--np", "101", "--out", str(out)],
    )
    assert result.exit_code == 0
    fld = read_wigner_csv(str(out))
    assert fld.riemann_sum() == pytest.approx(1.0, abs=1e-3)
    assert fld.values.max() == pytest.approx(1 / (2 * np.pi), abs=1e-9)


def test_wigner_coherent_peak(tmp_path):
    out = tmp_path / "w.csv"
    run_cli(
        ["wigner", "--state", "coherent", "--alpha-mag", "1.6", "--xmin", "-2",
         "--xmax", "8", "--pmin", "-5", "--pmax", "5", "--nx", "101", "--np", "101",
         "--out", str(out)],
    )
    fld = read_wigner_csv(str(out))
    i, j = np.unravel_index(np.argmax(fld.values), fld.values.shape)
    assert fld.grid.x_axis()[i] == pytest.approx(3.2, abs=0.06)
    assert fld.grid.p_axis()[j] == pytest.approx(0.0, abs=0.06)


def test_wigner_squeezed_marginal_variance(tmp_path):
    out = tmp_path / "w.csv"
    run_cli(
        ["wigner", "--state", "squeezed", "--r", "0.5", "--xmin", "-4", "--xmax", "4",
         "--pmin", "-8", "--pmax", "8", "--nx", "161", "--np", "161", "--out", str(out)],
    )
    fld = read_wigner_csv(str(out))
    x = fld.grid.x_axis()
    px = fld.values.sum(axis=1)
    var_x = float(np.sum(px * x**2) / px.sum())
    assert var_x == pytest.approx(0.36787944, rel=1e-3)


def test_wigner_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["wigner", "--state", "thermal", "--nbar", "1.0", "--nx", "21", "--np", "21"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter that imports
    this checkout's cvsim."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    return done.stdout


# only the validation oracle integrates, and only homodyne evaluates the
# special functions; each imports its scipy module itself.  Numbers are
# written and read by orjson and numpy, without fractions or decimal.  The
# command line is parsed by argparse.
@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special", "fractions", "decimal",
                                    "click"])
def test_cli_import_leaves_out(module):
    code = f"import sys, cvsim.cli; print({module!r} in sys.modules)"
    assert run_fresh(code).strip() == "False"


def test_commands_other_than_sample_leave_out_scipy_special(tmp_path):
    config = tmp_path / "net.json"
    config.write_text(json.dumps(README_NETWORK))
    rng = np.random.default_rng(0)
    write_samples_csv(SampleSet(rng.uniform(-np.pi, np.pi, 400), rng.normal(size=400), None),
                      str(tmp_path / "s.csv"))
    commands = [
        ["fock-bs", "--n1", "3", "--n2", "2", "--out", str(tmp_path / "f.json")],
        ["network", "--config", str(config), "--out", str(tmp_path / "n.json")],
        ["wigner", "--state", "squeezed", "--r", "0.5", "--out", str(tmp_path / "w.csv")],
        ["analyze", "--in", str(tmp_path / "s.csv"), "--state", "squeezed", "--r", "1",
         "--out", str(tmp_path / "v.csv")],
    ]
    code = (
        "import sys\n"
        "from cvsim.cli import main\n"
        f"for args in {commands!r}:\n"
        "    main(args, standalone_mode=False)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    assert run_fresh(code).splitlines()[-1] == "False"
    outputs = ("f.json", "n.json", "w.csv", "v.csv")
    assert all((tmp_path / name).stat().st_size for name in outputs)


def test_orjson_is_loaded_by_the_commands_that_write_or_read_with_it(tmp_path):
    """orjson is loaded by each command, which writes or reads its file with
    it, and not by import cvsim or import cvsim.cli."""
    config = tmp_path / "net.json"
    config.write_text(json.dumps(README_NETWORK))
    commands = {
        "wigner": ["wigner", "--state", "squeezed", "--r", "0.5", "--out", str(tmp_path / "w.csv")],
        "sample": ["sample", "--state", "vacuum", "--count", "50",
                   "--out", str(tmp_path / "s.csv")],
        "analyze": ["analyze", "--in", str(tmp_path / "s.csv"), "--bins", "4",
                    "--out", str(tmp_path / "v.csv")],
        "network": ["network", "--config", str(config), "--out", str(tmp_path / "n.json")],
        "fock-bs": ["fock-bs", "--n1", "3", "--n2", "2", "--out", str(tmp_path / "f.json")],
    }

    def loaded(args):
        code = ("import sys\nimport cvsim\nprint('orjson' in sys.modules)\n"
                "from cvsim.cli import main\nprint('orjson' in sys.modules)\n"
                f"main({args!r}, standalone_mode=False)\nprint('orjson' in sys.modules)\n")
        return [line for line in run_fresh(code).splitlines() if line in ("True", "False")]

    for name, args in commands.items():  # sample writes the file that analyze reads
        assert loaded(args) == ["False", "False", "True"], name


def test_commands_run_without_click(tmp_path):
    config = tmp_path / "net.json"
    config.write_text(json.dumps(README_NETWORK))
    commands = [
        ["sample", "--state", "vacuum", "--count", "50", "--out", str(tmp_path / "s.csv")],
        ["analyze", "--in", str(tmp_path / "s.csv"), "--bins", "4", "--out", str(tmp_path / "v.csv")],
        ["network", "--config", str(config), "--out", str(tmp_path / "n.json")],
        ["fock-bs", "--n1", "3", "--n2", "2", "--out", str(tmp_path / "f.json")],
        ["wigner", "--state", "squeezed", "--r", "0.5", "--out", str(tmp_path / "w.csv")],
    ]
    code = (
        "import sys\n"
        "sys.modules['click'] = None  # import click raises ImportError\n"
        "from cvsim.cli import main\n"
        f"for args in {commands!r}:\n"
        "    main(args, standalone_mode=False)\n"
    )
    run_fresh(code)
    outputs = ("s.csv", "v.csv", "n.json", "f.json", "w.csv")
    assert all((tmp_path / name).stat().st_size for name in outputs)
