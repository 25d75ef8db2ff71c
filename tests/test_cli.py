import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cvsim
from cvsim.cli import main
from cvsim import read_samples_csv, read_wigner_csv
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
# so NaN rows) cover the variance writer.
SAMPLE_GOLDENS = {
    ("squeezed", "--r", "1"): "f4dbec924aa9dd4fbfba9a23c455c566a87285a1b24b8d9c01b7bfcc425bf58f",
    ("fock", "--n", "3"): "4204ec9319a86a418bc5576c6f5cdb58501b65f6c1db9aaa7f0de609ff1fbf3a",
    ("cat", "--alpha-re", "2", "--alpha-im", "0", "--theta", "0"):
        "0070f766f3c3d774b4f638b742bd650d21d441202d9ff622e59dd4d8f196f975",
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


def test_sample_rejects_out_of_range_fock(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sample", "--state", "fock", "--n", "12", "--count", "10",
         "--out", str(tmp_path / "x.csv")],
    )
    assert result.exit_code == 2


def test_sample_requires_model_params(runner, tmp_path):
    result = runner.invoke(
        main, ["sample", "--state", "squeezed", "--count", "10", "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2


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


def test_cli_import_leaves_out_scipy_integrate():
    # only the validation oracle integrates; it imports scipy.integrate itself
    code = "import sys, cvsim.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cvsim.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
