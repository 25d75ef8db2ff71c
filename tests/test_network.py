import numpy as np
import pytest

from cvsim import (
    AnalysisRequest,
    NetworkRuntimeError,
    NetworkSpec,
    SpecValidationError,
    apply_gate,
    check_physicality,
    parse_network_spec,
    purity,
    run_network,
    squeeze_gate,
    symplectic_eigenvalues,
    vacuum_state,
)

BS = {"kind": "beamsplitter", "params": {"theta": np.pi / 4, "phi": 0.0}}


def three_bs_doc(analyses=()):
    return {
        "modes": 4,
        "hbar": 2.0,
        "gates": [
            {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
            {"kind": "squeeze", "modes": [1], "params": {"r": 0.5, "theta": np.pi}},
            {**BS, "modes": [0, 1]},
            {**BS, "modes": [0, 2]},
            {**BS, "modes": [1, 3]},
        ],
        "analyses": list(analyses),
    }


def test_empty_network_is_vacuum():
    result = run_network(parse_network_spec({"modes": 3, "hbar": 2.0}))
    assert np.array_equal(result.state.cov, np.eye(6))
    assert np.array_equal(result.state.mean, np.zeros(6))


def test_three_bs_network_covariance_pattern():
    result = run_network(parse_network_spec(three_bs_doc()))
    c, s = np.cosh(1.0), np.sinh(1.0)
    d, off, cross = (c + 1) / 2, s / 2, (c - 1) / 2
    expected = np.zeros((8, 8))
    x = [0, 2, 4, 6]
    p = [1, 3, 5, 7]
    # diagonal blocks
    for k in range(4):
        expected[x[k], x[k]] = expected[p[k], p[k]] = d
    # mode pairs sharing the first splitter's correlation (scaled by later BSs)
    for (i, j) in [(0, 1), (0, 3), (2, 1), (2, 3)]:
        expected[x[i], x[j]] = expected[x[j], x[i]] = -off
        expected[p[i], p[j]] = expected[p[j], p[i]] = off
    for (i, j) in [(0, 2), (1, 3)]:
        expected[x[i], x[j]] = expected[x[j], x[i]] = cross
        expected[p[i], p[j]] = expected[p[j], p[i]] = cross
    assert np.allclose(result.state.cov, expected, atol=1e-6)


def test_network_analyses_wire_format():
    doc = three_bs_doc(
        [
            {"type": "simon", "modes": [0, 2]},
            {"type": "simon", "modes": [0, 3]},
            {"type": "log_negativity", "part_a": [0], "part_b": [3]},
            {"type": "log_negativity", "part_a": [0], "part_b": [2]},
            {"type": "reduced", "modes": [0]},
            {"type": "wigner", "mode": 0, "grid": {"nx": 21, "np": 21}},
        ]
    )
    result = run_network(parse_network_spec(doc))
    simon02, simon03, en03, en02, red, wig = result.analyses
    assert simon02["verdict"] == "separable"
    assert {"type", "lhs", "rhs", "verdict"} <= set(simon02)
    assert simon03["verdict"] == "entangled"
    assert en03["value"] == pytest.approx(0.5480589169169516, abs=1e-9)
    assert len(en03["nu_tilde"]) == 2
    assert en02["value"] == 0.0
    assert red["cov"][0][0] == pytest.approx(1.27154, abs=1e-5)
    assert red["mean"].tolist() == [0.0, 0.0]
    assert wig["normalization"] == pytest.approx(1.0, abs=0.05)
    assert len(wig["values"]) == 21


def test_simon_pair_beamsplitter_network():
    doc = {
        "modes": 2,
        "hbar": 2.0,
        "gates": [
            {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
            {"kind": "squeeze", "modes": [1], "params": {"r": 0.5, "theta": np.pi}},
            {**BS, "modes": [0, 1]},
        ],
        "analyses": [
            {"type": "simon", "modes": [0, 1]},
            {"type": "log_negativity", "part_a": [0], "part_b": [1]},
        ],
    }
    result = run_network(parse_network_spec(doc))
    assert result.analyses[0]["verdict"] == "entangled"
    assert result.analyses[1]["value"] == pytest.approx(1.4426950408889623, abs=1e-9)


def test_network_with_thermal_and_displacement():
    doc = {
        "modes": 2,
        "hbar": 2.0,
        "gates": [
            {"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 1.0}},
            {"kind": "displace", "modes": [1], "params": {"alpha_mag": 1.6, "alpha_phase": 0.0}},
            {"kind": "rotate", "modes": [1], "params": {"phi": np.pi / 2}},
        ],
    }
    result = run_network(parse_network_spec(doc))
    assert np.allclose(result.state.cov[:2, :2], 3.0 * np.eye(2))
    assert np.allclose(result.state.mean, [0, 0, 0, 3.2], atol=1e-12)


def test_pure_networks_have_vacuum_symplectic_spectrum():
    result = run_network(parse_network_spec(three_bs_doc()))
    assert np.allclose(symplectic_eigenvalues(result.state.cov), np.ones(4), atol=1e-9)
    assert purity(result.state) == pytest.approx(1.0, abs=1e-9)
    assert check_physicality(result.state).physical


def test_commuting_gates_order_invariance():
    base = {
        "modes": 4,
        "gates": [
            {"kind": "squeeze", "modes": [0], "params": {"r": 0.4, "theta": 0.2}},
            {"kind": "squeeze", "modes": [2], "params": {"r": 0.9, "theta": -1.0}},
            {**BS, "modes": [0, 1]},
            {**BS, "modes": [2, 3]},
        ],
    }
    swapped = {
        "modes": 4,
        "gates": [base["gates"][1], base["gates"][0], base["gates"][3], base["gates"][2]],
    }
    a = run_network(parse_network_spec(base)).state
    b = run_network(parse_network_spec(swapped)).state
    assert np.allclose(a.cov, b.cov, atol=1e-12)
    assert np.allclose(a.mean, b.mean, atol=1e-12)


def test_network_determinism():
    doc = three_bs_doc([{"type": "log_negativity", "part_a": [0], "part_b": [3]}])
    a = run_network(parse_network_spec(doc))
    b = run_network(parse_network_spec(doc))
    assert np.array_equal(a.state.cov, b.state.cov)
    np.testing.assert_equal(a.analyses, b.analyses)


def one_gate(fields):
    """A one-mode network of one rotate gate, with `fields` replaced."""
    gate = {"kind": "rotate", "modes": [0], "params": {"phi": 0.1}, **fields}
    return {"modes": 1, "gates": [gate]}


def one_wigner(fields):
    """A one-mode network of one wigner analysis, with `fields` replaced."""
    return {"modes": 1, "analyses": [{"type": "wigner", "mode": 0, **fields}]}


@pytest.mark.parametrize(
    "doc, pointer",
    [
        ({"modes": 0}, "/modes"),
        ({"modes": 2, "hbar": -1.0}, "/hbar"),
        ({"modes": 2, "gates": [{"kind": "warp", "modes": [0], "params": {}}]}, "/gates/0/kind"),
        ({"modes": 2, "gates": [{"kind": ["squeeze"], "modes": [0], "params": {}}]}, "/gates/0/kind"),
        (
            {"modes": 2, "gates": [{"kind": "squeeze", "modes": [5], "params": {"r": 1, "theta": 0}}]},
            "/gates/0/modes/0",
        ),
        (
            {"modes": 2, "gates": [{"kind": "squeeze", "modes": [0], "params": {"theta": 0.0}}]},
            "/gates/0/params/r",
        ),
        (
            {"modes": 2, "gates": [{"kind": "beamsplitter", "modes": [0, 0], "params": {"theta": 0.1, "phi": 0}}]},
            "/gates/0/modes",
        ),
        (
            {"modes": 2, "gates": [{"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": 3.0, "phi": 0}}]},
            "/gates/0/params/theta",
        ),
        ({"modes": 2, "analyses": [{"type": "bogus"}]}, "/analyses/0/type"),
        ({"modes": 2, "analyses": [{"type": "simon", "modes": [0]}]}, "/analyses/0/modes"),
        (
            {"modes": 2, "analyses": [{"type": "log_negativity", "part_a": [0], "part_b": [0]}]},
            "/analyses/0/part_b",
        ),
        ({"modes": 2, "analyses": [{"type": "wigner", "mode": 9}]}, "/analyses/0/mode"),
        ({"modes": 2, "extra": 1}, "/extra"),
        (
            {"modes": 2, "gates": [{"kind": "rotate", "modes": [0], "params": {"phi": 0.1}, "mode": 1}]},
            "/gates/0/mode",
        ),
        (
            {"modes": 2, "analyses": [{"type": "wigner", "mode": 0, "gird": {"nx": 5, "np": 5}}]},
            "/analyses/0/gird",
        ),
        (
            {"modes": 2, "analyses": [{"type": "simon", "modes": [0, 1], "grid": {"nx": 5}}]},
            "/analyses/0/grid",
        ),
        # RFC 6901 escapes "~" as "~0" and "/" as "~1"
        ({"modes": 1, "a/b": 1}, "/a~1b"),
        (one_gate({"params": {"phi": 0.1, "x~y": 1}}), "/gates/0/params/x~0y"),
        ([], ""),
        ({"modes": 1, "gates": {}}, "/gates"),
        ({"modes": 1, "analyses": {}}, "/analyses"),
        ({"modes": 1, "gates": [1]}, "/gates/0"),
        (one_gate({"params": [0.1]}), "/gates/0/params"),
        ({"modes": 1, "analyses": [1]}, "/analyses/0"),
        (one_gate({"params": {"phi": "0.1"}}), "/gates/0/params/phi"),
        (one_gate({"modes": []}), "/gates/0/modes"),
        (one_gate({"modes": 0}), "/gates/0/modes"),
        (one_gate({"modes": [0.0]}), "/gates/0/modes/0"),
        (one_gate({"params": {"phi": 0.1, "psi": 0.2}}), "/gates/0/params/psi"),
        (one_wigner({"mode": 0.0}), "/analyses/0/mode"),
        (one_wigner({"grid": [5, 5]}), "/analyses/0/grid"),
        (one_wigner({"grid": {"nz": 5}}), "/analyses/0/grid/nz"),
        (one_wigner({"grid": {"nx": 1}}), "/analyses/0/grid/nx"),
        (one_wigner({"grid": {"x_min": 1.0, "x_max": 0.0}}), "/analyses/0/grid"),
    ],
)
def test_validation_reports_json_pointer(doc, pointer):
    with pytest.raises(SpecValidationError) as err:
        parse_network_spec(doc)
    assert err.value.pointer == pointer


def test_unknown_analysis_built_in_code_reports_its_pointer():
    spec = NetworkSpec(num_modes=1, analyses=(AnalysisRequest("bogus"),))
    with pytest.raises(NetworkRuntimeError, match="unknown analysis type 'bogus'") as err:
        run_network(spec)
    assert err.value.pointer == "/analyses/0"


def test_thermal_prepare_on_used_mode_fails():
    doc = {
        "modes": 1,
        "gates": [
            {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
            {"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 1.0}},
        ],
    }
    with pytest.raises(ValueError):
        run_network(parse_network_spec(doc))


def test_runtime_failure_reports_gate_pointer():
    doc = {
        "modes": 2,
        "gates": [
            {"kind": "prepare_thermal", "modes": [1], "params": {"n_bar": 1.0}},
            {**BS, "modes": [0, 1]},
            {"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 1.0}},
        ],
    }
    with pytest.raises(NetworkRuntimeError) as err:
        run_network(parse_network_spec(doc))
    assert err.value.pointer == "/gates/2"
    assert "not in the vacuum state" in str(err.value)


@pytest.mark.parametrize("r", [8.0, 10.0, 15.0])
def test_strong_squeezer_runs_in_a_network(r):
    gate = {"kind": "squeeze", "modes": [0], "params": {"r": r, "theta": 0.7}}
    state = run_network(parse_network_spec({"modes": 1, "gates": [gate]})).state
    expected = apply_gate(squeeze_gate(r, 0.7, 0, 1), vacuum_state(1)).cov
    assert np.array_equal(state.cov, expected)
