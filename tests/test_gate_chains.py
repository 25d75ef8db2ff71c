"""Property tests: random chains of all five gate kinds, applied as local
blocks, against the dense 2N x 2N products they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsim import (
    NetworkRuntimeError,
    apply_gate,
    beamsplitter_gate,
    check_physicality,
    displacement_gate,
    parse_network_spec,
    purity,
    rotation_gate,
    run_network,
    squeeze_gate,
    thermal_prepare,
    vacuum_state,
)

KINDS = ("displace", "squeeze", "rotate", "beamsplitter", "prepare_thermal")
angle = st.floats(-np.pi, np.pi)


@st.composite
def chains(draw, min_modes=1, max_modes=40):
    """(N, gate descriptors) in the network wire format.  prepare_thermal
    targets only modes no earlier gate touched, so every chain is valid.
    Up to 60 gates on up to 40 modes, so that the runner builds many gates
    of a kind as one stack, beam splitters on non-adjacent and reversed
    mode pairs among them."""
    n = draw(st.integers(min_modes, max_modes))
    touched = set()
    gates = []
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(KINDS if n > 1 else KINDS[:3] + KINDS[4:]))
        mode = draw(st.integers(0, n - 1))
        if kind == "displace":
            params = {"alpha_mag": draw(st.floats(0, 2)), "alpha_phase": draw(angle)}
            modes = [mode]
        elif kind == "squeeze":
            params = {"r": draw(st.floats(0, 0.4)), "theta": draw(angle)}
            modes = [mode]
        elif kind == "rotate":
            params = {"phi": draw(angle)}
            modes = [mode]
        elif kind == "beamsplitter":
            other = (mode + draw(st.integers(1, n - 1))) % n
            params = {"theta": draw(st.floats(0, np.pi / 2)), "phi": draw(angle)}
            modes = [mode, other]
        else:
            if mode in touched:
                continue
            params = {"n_bar": draw(st.floats(0, 3))}
            modes = [mode]
        touched.update(modes)
        gates.append({"kind": kind, "modes": modes, "params": params})
    return n, gates


def _gate(desc, n):
    p, m = desc["params"], desc["modes"]
    if desc["kind"] == "displace":
        return displacement_gate(p["alpha_mag"], p["alpha_phase"], m[0], n)
    if desc["kind"] == "squeeze":
        return squeeze_gate(p["r"], p["theta"], m[0], n)
    if desc["kind"] == "rotate":
        return rotation_gate(p["phi"], m[0], n)
    return beamsplitter_gate(p["theta"], p["phi"], tuple(m), n)


def _close(actual, expected):
    scale = max(1.0, np.abs(expected).max())
    return np.abs(actual - expected).max() <= 1e-12 * scale


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(chains())
def test_block_gates_match_dense_products(chain):
    n, gates = chain
    state = vacuum_state(n)
    unitary = True
    for desc in gates:
        if desc["kind"] == "prepare_thermal":
            state = thermal_prepare(desc["params"]["n_bar"], desc["modes"][0], state)
            unitary = False
        else:
            gate = _gate(desc, n)
            S, d = gate.matrix, gate.displacement
            dense_cov = S @ state.cov @ S.T
            dense_mean = S @ state.mean + d
            state = apply_gate(gate, state)
            assert _close(state.cov, dense_cov)
            assert _close(state.mean, dense_mean)
        assert np.array_equal(state.cov, state.cov.T)
        assert check_physicality(state).physical
    if unitary:
        assert abs(purity(state) - 1.0) < 1e-9

    result = run_network(parse_network_spec({"modes": n, "gates": gates}))
    assert np.array_equal(result.state.cov, state.cov)
    assert np.array_equal(result.state.mean, state.mean)


def test_runner_names_the_first_failing_gate_across_kinds():
    """/gates/3 fails when its kind's stack is checked, before any gate
    runs; /gates/1 fails only when it runs.  The earlier one is named."""
    squeeze = lambda r: {"kind": "squeeze", "modes": [0], "params": {"r": r, "theta": 0.0}}
    gates = [squeeze(0.5), {"kind": "prepare_thermal", "modes": [0], "params": {"n_bar": 1.0}},
             {"kind": "rotate", "modes": [1], "params": {"phi": 0.3}}, squeeze(800.0)]
    with pytest.raises(NetworkRuntimeError) as err:
        run_network(parse_network_spec({"modes": 2, "gates": gates}))
    assert err.value.pointer == "/gates/1"
    assert "not in the vacuum state" in str(err.value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chains(2, 4), st.floats(-3, 3), st.data())
def test_network_scales_with_hbar(chain, log_hbar, data):
    """At any hbar the state is the hbar = 2 state with cov scaled by hbar/2
    and mean by sqrt(hbar/2), and E_N, its spectrum and the purity are the
    same numbers."""
    n, gates = chain
    hbar = 10.0 ** log_hbar
    modes = data.draw(st.permutations(range(n)))
    split = data.draw(st.integers(1, n - 1))
    analyses = [{"type": "log_negativity", "part_a": modes[:split], "part_b": modes[split:]}]
    at = {h: run_network(parse_network_spec({"modes": n, "hbar": h, "gates": gates,
                                             "analyses": analyses}))
          for h in (2.0, hbar)}
    assert _close(at[hbar].state.cov * (2.0 / hbar), at[2.0].state.cov)
    assert _close(at[hbar].state.mean * np.sqrt(2.0 / hbar), at[2.0].state.mean)
    (scaled,), (reference,) = at[hbar].analyses, at[2.0].analyses
    assert abs(scaled["value"] - reference["value"]) <= 1e-10
    assert np.abs(scaled["nu_tilde"] - reference["nu_tilde"]).max() <= 1e-10
    assert abs(purity(at[hbar].state) - purity(at[2.0].state)) <= 1e-10
