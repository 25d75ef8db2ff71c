import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import cvsim
from cvsim.cli import _fock_bs_json, _json_chunks, main
from cvsim import (
    SampleSet,
    bs_output_from_angle,
    photon_number_distribution,
    read_samples_csv,
    read_wigner_csv,
    write_samples_csv,
)
from cvsim.homodyne import read_variance_csv


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_sample_writes_csv_and_summary(runner, tmp_path):
    out = tmp_path / "s.csv"
    result = invoke(
        runner,
        ["sample", "--state", "squeezed", "--r", "1", "--count", "5000",
         "--seed", "42", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "5000 records" in result.output
    ss = read_samples_csv(str(out))
    assert len(ss) == 5000
    # phase-averaged squeezed variance is cosh(2r)
    assert np.var(ss.values, ddof=1) == pytest.approx(np.cosh(2.0), rel=0.1)


def test_sample_is_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--state", "vacuum", "--count", "10", "--seed", "7"]
    assert invoke(runner, args + ["--out", str(a)]).exit_code == 0
    assert invoke(runner, args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of CLI outputs, pinned before the CSV writers and readers became
# block-wise: 16389 = 2 * 8192 + 5 records cross block edges, and the
# 1000-bin analyses of 16389 and of 1500 records (empty and singleton bins,
# so NaN rows) cover the variance writer.  A Fock(3) or cat record is any x
# within tol of its quantile, so those two digests follow the start of the
# Newton iteration; test_inversion_properties checks their records against
# the tolerance certificate at 50 digits.
SAMPLE_GOLDENS = {
    ("squeezed", "--r", "1"): "f4dbec924aa9dd4fbfba9a23c455c566a87285a1b24b8d9c01b7bfcc425bf58f",
    ("fock", "--n", "3"): "d53dd8ba078e1dcb9b7f20a1314138a7be6f83e5f9807aa5cd88f35360b641af",
    ("cat", "--alpha-re", "2", "--alpha-im", "0", "--theta", "0"):
        "699724b935becf3ec37214aad32e7c3ced03df8f0ca18726a4880f1cbf8f0227",
}
ANALYZE_GOLDENS = {
    16389: ("f4dbec924aa9dd4fbfba9a23c455c566a87285a1b24b8d9c01b7bfcc425bf58f",
            "eb51bfe06c741ecb331af5fe6ee625814f629a0883bb665371501ea6a5999a0d"),
    1500: ("dfbef927ba326397701f03f4def4d3f267604a4e7d4dfc37ab7d088e334674a2",
           "d2393eb9b8bffab11659db2ea3324665ce70446ce82ab8de497ed47c6ddf306e"),
}
WIGNER_GOLDEN = "c469dbf8811fb4eb58964a52e86e0294019ff145aa267bb5f89bc007c2ebe564"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("flags", list(SAMPLE_GOLDENS))
def test_sample_output_matches_golden_digest(runner, tmp_path, flags):
    out = tmp_path / "s.csv"
    invoke(runner, ["sample", "--state", *flags, "--count", "16389", "--out", str(out)])
    assert sha256(out) == SAMPLE_GOLDENS[flags]


@pytest.mark.parametrize("count", list(ANALYZE_GOLDENS))
def test_analyze_output_matches_golden_digest(runner, tmp_path, count):
    data, rep = tmp_path / "s.csv", tmp_path / "v.csv"
    model = ["--state", "squeezed", "--r", "1"]
    invoke(runner, ["sample", *model, "--count", str(count), "--out", str(data)])
    invoke(runner, ["analyze", "--in", str(data), "--bins", "1000", *model, "--out", str(rep)])
    assert (sha256(data), sha256(rep)) == ANALYZE_GOLDENS[count]
    if count == 1500:
        assert np.isnan(read_variance_csv(str(rep)).estimated_variance).any()


def test_wigner_output_matches_golden_digest(runner, tmp_path):
    out = tmp_path / "w.csv"
    invoke(runner, ["wigner", "--state", "squeezed", "--r", "0.5", "--theta", "0.3",
                    "--nx", "37", "--np", "23", "--out", str(out)])
    assert sha256(out) == WIGNER_GOLDEN


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


# SHA-256 of the JSON outputs, pinned while they were written by
# json.dump(payload, indent=2); the fock-bs amplitudes are those that
# tests/test_fock.py checks against a 50-digit reference
NETWORK_GOLDENS = {
    "readme": "759c10b82ee1217a78dd33661a294d7d2236a261c7ff7af8eda1e21e52feb154",
    "chain16": "86e909a6063a2e7a3da0e8ff9535d05464e2b2d065823059b0056613bd6965d4",
}
FOCK_BS_GOLDENS = {
    ("--n1", "1", "--n2", "1"):
        "5d5ca0011b02ace264d6afcae44931fe9d1159d10a006e6abd4f3d3ce3b803d6",
    ("--n1", "15", "--n2", "16", "--theta", "0.8853981633974483", "--phi", "0.3"):
        "e1dcfe4862e52bd0d30e82f3dafcf269aae40678e0f7ebade2d6bf61e06b7d27",
}


@pytest.mark.parametrize("name", list(NETWORK_GOLDENS))
def test_network_output_matches_golden_digest(runner, tmp_path, name):
    config, out = tmp_path / "net.json", tmp_path / "o.json"
    config.write_text(json.dumps(README_NETWORK if name == "readme" else chain16_network()))
    invoke(runner, ["network", "--config", str(config), "--out", str(out)])
    assert sha256(out) == NETWORK_GOLDENS[name]


@pytest.mark.parametrize("flags", list(FOCK_BS_GOLDENS))
def test_fock_bs_output_matches_golden_digest(runner, tmp_path, flags):
    out = tmp_path / "f.json"
    invoke(runner, ["fock-bs", *flags, "--out", str(out)])
    assert sha256(out) == FOCK_BS_GOLDENS[flags]


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308]
JSON_FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
JSON_TEXT = st.text(max_size=8) | st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7fé€中😀'), max_size=8)
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**200, 2**200) | JSON_FLOATS
                | JSON_TEXT)
FLOAT_ARRAYS = arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0),
                      elements=JSON_FLOATS)
JSON_TREES = st.recursive(
    JSON_SCALARS | st.lists(JSON_FLOATS, min_size=1) | FLOAT_ARRAYS,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_TEXT, children)),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(JSON_TREES)
@example([1.5, [], {}, [2.0, math.nan], {"k": (1, [-0.0])}, "x", None, True, 3])
@example({"cov": [[1.0, 5e-324], [-math.inf, 1.7976931348623157e308]], "n": 2**100})
@example({"cov": np.array([[1.0, math.nan], [-0.0, 5e-324]]), "empty": np.zeros((2, 0))})
def test_json_chunks_match_json_dumps(obj):
    expected = json.dumps(obj, indent=2, default=np.ndarray.tolist)
    assert "".join(_json_chunks(obj)) == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda total: st.tuples(st.integers(0, total),
                                                          st.just(total))),
       st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
@example((1, 2), math.pi / 4, math.pi)
@example((0, 0), 0.0, 0.0)
@example((20, 40), math.pi / 2, -math.pi)
def test_fock_bs_json_matches_json_dumps(pair, theta, phi):
    n1, total = pair
    state = bs_output_from_angle(n1, total - n1, theta, phi)
    payload = {
        "total_photons": state.total_photons,
        "amplitudes": [{"basis": [k, m], "re": amp.real, "im": amp.imag}
                       for (k, m), amp in sorted(state.amplitudes.items())],
        "marginal_mode0": photon_number_distribution(state, 0).tolist(),
        "marginal_mode1": photon_number_distribution(state, 1).tolist(),
    }
    assert _fock_bs_json(state) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("command", ["sample", "analyze", "network", "fock-bs", "wigner"])
def test_unwritable_out_exits_1_with_one_line(runner, tmp_path, command):
    data, config = tmp_path / "s.csv", tmp_path / "net.json"
    invoke(runner, ["sample", "--state", "vacuum", "--count", "100", "--out", str(data)])
    config.write_text(json.dumps(README_NETWORK))
    args = {
        "sample": ["--state", "vacuum", "--count", "10"],
        "analyze": ["--in", str(data)],
        "network": ["--config", str(config)],
        "fock-bs": ["--n1", "1", "--n2", "1"],
        "wigner": ["--state", "vacuum"],
    }[command]
    out = tmp_path / "missing" / "out"
    result = runner.invoke(main, [command, *args, "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a handled error, not a traceback
    assert result.output.strip().splitlines() == [
        f"Error: cannot write {out}: No such file or directory"
    ]


def test_sample_rejects_out_of_range_fock(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sample", "--state", "fock", "--n", "12", "--count", "10",
         "--out", str(tmp_path / "x.csv")],
    )
    assert result.exit_code == 2


def test_sample_with_nan_cdf_exits_1_naming_the_record(runner, tmp_path):
    # at |alpha| = 20 the cat's cross term is 0 * inf = NaN on part of the line
    out = tmp_path / "cat.csv"
    result = runner.invoke(
        main,
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


def test_sample_requires_model_params(runner, tmp_path):
    result = runner.invoke(
        main, ["sample", "--state", "squeezed", "--count", "10", "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2


SAMPLE = ["sample", "--count", "5", "--state"]


@pytest.mark.parametrize("args, message", [
    (SAMPLE + ["spats", "--nbar", "nan"], "SPATS n_bar must be finite"),
    (SAMPLE + ["thermal", "--nbar", "inf"], "thermal n_bar must be finite"),
    (SAMPLE + ["squeezed", "--r", "nan"], "squeezing r must be finite"),
    (SAMPLE + ["cat", "--alpha-re", "nan", "--alpha-im", "0", "--theta", "0"], "cat alpha"),
    (SAMPLE + ["cat", "--alpha-re", "1", "--alpha-im", "0", "--theta", "nan"],
     "cat alpha and theta must be finite"),
    (SAMPLE + ["vacuum", "--tol", "inf"], "--tol must be finite, got inf"),
    (SAMPLE + ["fock", "--n", "2", "--tol", "nan"], "--tol must be finite, got nan"),
    (SAMPLE + ["fock", "--n", "2", "--tol", "0"], "--tol must be > 0, got 0.0"),
    (SAMPLE + ["vacuum", "--tol", "-1"], "--tol must be > 0, got -1.0"),
    (SAMPLE + ["vacuum", "--seed", "-1"], "'--seed'"),
    (["wigner", "--state", "vacuum", "--hbar", "0"], "--hbar must be > 0, got 0.0"),
    (["wigner", "--state", "vacuum", "--hbar", "-2"], "--hbar must be > 0, got -2.0"),
    (["wigner", "--state", "coherent", "--alpha-mag", "nan"], "--alpha-mag must be finite"),
    (["wigner", "--state", "vacuum", "--xmax", "inf"], "--xmax must be finite"),
    (["analyze", "--in", "{data}", "--sigma-level", "-3"], "--sigma-level must be >= 0"),
    (["analyze", "--in", "{data}", "--sigma-level", "nan"], "--sigma-level must be finite"),
])
def test_out_of_domain_option_exits_2_with_one_line(runner, tmp_path, args, message):
    data, out = tmp_path / "s.csv", tmp_path / "out"
    invoke(runner, ["sample", "--state", "squeezed", "--r", "1", "--count", "100",
                    "--out", str(data)])
    args = [arg.format(data=data) for arg in args]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert len(errors) == 1 and message in errors[0]
    assert not out.exists()


def test_analyze_squeezed_run(runner, tmp_path):
    data = tmp_path / "s.csv"
    rep = tmp_path / "v.csv"
    invoke(
        runner,
        ["sample", "--state", "squeezed", "--r", "1", "--count", "40000",
         "--seed", "42", "--out", str(data)],
    )
    result = invoke(
        runner,
        ["analyze", "--in", str(data), "--bins", "20", "--sigma-level", "3",
         "--state", "squeezed", "--r", "1", "--out", str(rep)],
    )
    assert result.exit_code == 0
    assert "heisenberg violations: 0" in result.output
    assert "squeezing certified" in result.output
    report = read_variance_csv(str(rep))
    assert len(report.bin_centers) == 20
    assert report.counts.sum() == 40000


def test_analyze_vacuum_certifies_nothing(runner, tmp_path):
    data = tmp_path / "v.csv"
    rep = tmp_path / "r.csv"
    invoke(runner, ["sample", "--state", "vacuum", "--count", "20000", "--out", str(data)])
    result = invoke(
        runner,
        ["analyze", "--in", str(data), "--bins", "16", "--state", "vacuum", "--out", str(rep)],
    )
    assert result.exit_code == 0
    assert "heisenberg violations: 0" in result.output
    assert "certified in 0 bins" in result.output


def test_analyze_empty_file_fails(runner, tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    result = runner.invoke(
        main,
        ["analyze", "--in", str(bad), "--state", "vacuum", "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 1


def test_analyze_without_model_flags(runner, tmp_path):
    data = tmp_path / "s.csv"
    rep = tmp_path / "v.csv"
    invoke(runner, ["sample", "--state", "vacuum", "--count", "8000", "--out", str(data)])
    result = invoke(runner, ["analyze", "--in", str(data), "--bins", "8", "--out", str(rep)])
    assert result.exit_code == 0
    report = read_variance_csv(str(rep))
    assert np.isnan(report.theoretical_variance).all()
    assert np.isfinite(report.estimated_variance).all()


def test_analyze_malformed_line_names_line(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("phase,x\n0.0,1.0\noops,2\n")
    result = runner.invoke(
        main,
        ["analyze", "--in", str(bad), "--state", "vacuum", "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 1
    assert "line 3" in result.output


def test_network_three_bs_config(runner, tmp_path):
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
    result = invoke(runner, ["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["analyses"][0]["value"] == pytest.approx(0.5480589169169516, abs=1e-9)
    assert doc["analyses"][1]["verdict"] == "separable"
    # display threshold applied: exact zeros, not 1e-17 dust
    flat = [v for row in doc["cov"] for v in row]
    assert 0.0 in flat
    assert all(v == 0.0 or abs(v) > 1e-11 for v in flat)


def test_network_simon_pair(runner, tmp_path):
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
    assert invoke(runner, ["network", "--config", str(config), "--out", str(out)]).exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["analyses"][0]["verdict"] == "entangled"
    assert doc["analyses"][1]["value"] == pytest.approx(1.4426950408889623, abs=1e-9)


def test_network_output_byte_identical(runner, tmp_path):
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
    invoke(runner, ["network", "--config", str(config), "--out", str(a)])
    invoke(runner, ["network", "--config", str(config), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_network_zero_gates_identity(runner, tmp_path):
    config = tmp_path / "id.json"
    config.write_text(json.dumps({"modes": 2, "gates": []}))
    out = tmp_path / "o.json"
    assert invoke(runner, ["network", "--config", str(config), "--out", str(out)]).exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["cov"] == np.eye(4).tolist()


def test_network_schema_violation_exit2(runner, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"modes": 2, "gates": [{"kind": "squeeze", "modes": [0], "params": {"r": -1, "theta": 0}}]}))
    result = runner.invoke(main, ["network", "--config", str(config), "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 2
    assert "/gates/0/params/r" in result.output


def test_network_runtime_failure_names_gate_exit1(runner, tmp_path):
    config = tmp_path / "used.json"
    config.write_text(json.dumps({"modes": 1, "gates": [
        {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
        {"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 1.0}},
    ]}))
    out = tmp_path / "o.json"
    result = runner.invoke(main, ["network", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a handled error, not a traceback
    assert result.output.strip().splitlines() == [
        "Error: /gates/1: mode 0 is not in the vacuum state"
    ]
    assert not out.exists()


def test_fock_bs_hom(runner, tmp_path):
    out = tmp_path / "f.json"
    result = invoke(
        runner,
        ["fock-bs", "--n1", "1", "--n2", "1", "--theta", str(np.pi / 4),
         "--phi", str(np.pi), "--out", str(out)],
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    bases = [tuple(a["basis"]) for a in doc["amplitudes"]]
    assert (1, 1) not in bases
    assert doc["marginal_mode0"] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)


def test_fock_bs_single_photon(runner, tmp_path):
    out = tmp_path / "f.json"
    invoke(runner, ["fock-bs", "--n1", "1", "--n2", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    amps = {tuple(a["basis"]): complex(a["re"], a["im"]) for a in doc["amplitudes"]}
    assert amps[(0, 1)] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amps[(1, 0)] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert [tuple(a["basis"]) for a in doc["amplitudes"]] == [(0, 1), (1, 0)]


def test_fock_bs_vacuum(runner, tmp_path):
    out = tmp_path / "f.json"
    invoke(runner, ["fock-bs", "--n1", "0", "--n2", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert len(doc["amplitudes"]) == 1
    assert doc["amplitudes"][0]["re"] == pytest.approx(1.0)


@pytest.mark.parametrize("option, value", [
    ("--theta", "nan"), ("--theta", "inf"), ("--phi", "nan"), ("--phi", "inf"), ("--phi", "-inf"),
])
def test_fock_bs_non_finite_angle_exit2(runner, tmp_path, option, value):
    out = tmp_path / "f.json"
    result = runner.invoke(main, ["fock-bs", "--n1", "2", "--n2", "1", option, value,
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert f"{option} must be finite" in result.output
    assert not out.exists()


def test_fock_bs_cap_exit2(runner, tmp_path):
    result = runner.invoke(
        main, ["fock-bs", "--n1", "30", "--n2", "20", "--out", str(tmp_path / "f.json")]
    )
    assert result.exit_code == 2


def test_wigner_vacuum(runner, tmp_path):
    out = tmp_path / "w.csv"
    result = invoke(
        runner,
        ["wigner", "--state", "vacuum", "--xmin", "-5", "--xmax", "5",
         "--pmin", "-5", "--pmax", "5", "--nx", "101", "--np", "101", "--out", str(out)],
    )
    assert result.exit_code == 0
    fld = read_wigner_csv(str(out))
    assert fld.riemann_sum() == pytest.approx(1.0, abs=1e-3)
    assert fld.values.max() == pytest.approx(1 / (2 * np.pi), abs=1e-9)


def test_wigner_coherent_peak(runner, tmp_path):
    out = tmp_path / "w.csv"
    invoke(
        runner,
        ["wigner", "--state", "coherent", "--alpha-mag", "1.6", "--xmin", "-2",
         "--xmax", "8", "--pmin", "-5", "--pmax", "5", "--nx", "101", "--np", "101",
         "--out", str(out)],
    )
    fld = read_wigner_csv(str(out))
    i, j = np.unravel_index(np.argmax(fld.values), fld.values.shape)
    assert fld.grid.x_axis()[i] == pytest.approx(3.2, abs=0.06)
    assert fld.grid.p_axis()[j] == pytest.approx(0.0, abs=0.06)


def test_wigner_squeezed_marginal_variance(runner, tmp_path):
    out = tmp_path / "w.csv"
    invoke(
        runner,
        ["wigner", "--state", "squeezed", "--r", "0.5", "--xmin", "-4", "--xmax", "4",
         "--pmin", "-8", "--pmax", "8", "--nx", "161", "--np", "161", "--out", str(out)],
    )
    fld = read_wigner_csv(str(out))
    x = fld.grid.x_axis()
    px = fld.values.sum(axis=1)
    var_x = float(np.sum(px * x**2) / px.sum())
    assert var_x == pytest.approx(0.36787944, rel=1e-3)


def test_wigner_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["wigner", "--state", "thermal", "--nbar", "1.0", "--nx", "21", "--np", "21"]
    invoke(runner, args + ["--out", str(a)])
    invoke(runner, args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter that imports
    this checkout's cvsim."""
    env = dict(os.environ, PYTHONPATH=str(Path(cvsim.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


# only the validation oracle integrates, and only homodyne evaluates the
# special functions; each imports its scipy module itself.  The CSV writer's
# power-of-ten table is built from ints, without fractions or decimal.
@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special", "fractions", "decimal"])
def test_cli_import_leaves_out(module):
    code = f"import sys, cvsim.cli; print({module!r} in sys.modules)"
    assert run_fresh(code).strip() == "False"


def test_csv_power_table_is_built_on_first_write_not_at_import(tmp_path):
    out = str(tmp_path / "s.csv")
    code = (
        "from cvsim.cli import main\n"
        "from cvsim._csvio import _pow10_table\n"
        "print('tables', _pow10_table.cache_info().currsize)\n"
        f"main(['sample', '--state', 'vacuum', '--count', '3', '--out', {out!r}],"
        " standalone_mode=False)\n"
        "print('tables', _pow10_table.cache_info().currsize)\n"
    )
    counts = [line.split()[1] for line in run_fresh(code).splitlines() if line.startswith("tables")]
    assert counts == ["0", "1"]


def test_commands_other_than_sample_leave_out_scipy_special(tmp_path):
    config = tmp_path / "net.json"
    config.write_text(json.dumps(README_NETWORK))
    rng = np.random.default_rng(0)
    write_samples_csv(SampleSet(rng.uniform(-np.pi, np.pi, 400), rng.normal(size=400), None, 0),
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
