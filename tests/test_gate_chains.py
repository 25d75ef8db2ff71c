"""Property tests: random chains of all five gate kinds, applied as local
blocks, against the dense 2N x 2N products they replace; and the runner's
stacked runs against the one-gate-at-a-time kernel, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvsim import (
    Bipartition,
    CVSimError,
    GaussianState,
    MalformedInputError,
    NetworkRuntimeError,
    PhaseSpaceGrid,
    apply_gate,
    beamsplitter_gate,
    check_physicality,
    displacement_gate,
    log_negativity,
    parse_network_spec,
    ptranspose_symplectic_spectrum,
    purity,
    reduced_state,
    rotation_gate,
    run_network,
    s_quasiprob_gaussian,
    simon_criterion,
    squeeze_gate,
    thermal_prepare,
    vacuum_state,
    wigner_gaussian,
)
from cvsim.gates import _prepare_thermal_in_place, _quadratures
from cvsim.network import MAX_RUN, _gate_stacks, _runs

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


def apply_in_place(block, shift, idx, cov, mean):
    """Overwrite cov with S cov S^T and mean with S mean + d, where S embeds
    ``block`` at the rows ``idx`` (a slice or an index array): one gate at a
    time, the reference that the runner's stacked runs must equal bit for bit.

    Only the touched rows and columns change.  They are written from one
    array into both triangles, with the touched diagonal block symmetrised,
    so a symmetric cov stays exactly symmetric.
    """
    rows = block @ cov[idx]
    inner = rows[:, idx] @ block.T
    rows[:, idx] = (inner + inner.T) / 2.0
    cov[idx] = rows
    cov[:, idx] = rows.T
    mean[idx] = block @ mean[idx] + shift


def one_at_a_time(doc):
    """(cov, mean) of ``run_network``'s state for ``doc``, from the blocks the
    runner builds applied one gate at a time by ``apply_in_place``; or the
    NetworkRuntimeError it raises, naming the first gate that fails."""
    spec = parse_network_spec(doc)
    stacks, position = _gate_stacks(spec)
    cov, mean = np.eye(2 * spec.num_modes), np.zeros(2 * spec.num_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, desc in enumerate(spec.gates):
            try:
                rows = _quadratures(desc.modes)
                if desc.kind == "prepare_thermal":
                    _prepare_thermal_in_place(desc.params["n_bar"], desc.modes[0], cov, mean)
                else:
                    blocks, shifts, bad = stacks[desc.kind]
                    if bad is not None and bad[0] == i:
                        raise MalformedInputError(bad[1])
                    apply_in_place(blocks[position[i]], shifts[position[i]], rows, cov, mean)
                if not (np.isfinite(cov[rows]).all() and np.isfinite(mean[rows]).all()):
                    raise MalformedInputError("the gate's output is not finite")
            except (ValueError, CVSimError) as exc:
                return NetworkRuntimeError(f"/gates/{i}", str(exc))
    return cov * (spec.hbar / 2.0), mean * np.sqrt(spec.hbar / 2.0)


@st.composite
def runs(draw):
    """(N, gate descriptors) of 1-12 modes, in runs: gates of one kind on
    distinct modes in any order, beam splitters on any pairs, each run
    sometimes broken by a gate on one of its modes.  Later runs reuse the
    modes of earlier ones; prepare_thermal targets only untouched modes."""
    n = draw(st.integers(1, 12))
    touched = set()
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(KINDS if n > 1 else KINDS[:3] + KINDS[4:]))
        order = draw(st.permutations(range(n)))
        if kind == "prepare_thermal":
            order = [m for m in order if m not in touched]
        width = 2 if kind == "beamsplitter" else 1
        count = draw(st.integers(0, len(order) // width))
        groups = [order[width * i:width * (i + 1)] for i in range(count)]
        if groups and kind != "prepare_thermal" and draw(st.booleans()):
            groups.insert(draw(st.integers(1, len(groups))), groups[0])  # an overlap
        for modes in groups:
            if kind == "displace":
                params = {"alpha_mag": draw(st.floats(0, 2)), "alpha_phase": draw(angle)}
            elif kind == "squeeze":
                params = {"r": draw(st.floats(0, 1.5)), "theta": draw(angle)}
            elif kind == "rotate":
                params = {"phi": draw(angle)}
            elif kind == "beamsplitter":
                params = {"theta": draw(st.floats(0, np.pi / 2)), "phi": draw(angle)}
            else:
                params = {"n_bar": draw(st.floats(0, 3))}
            touched.update(modes)
            gates.append({"kind": kind, "modes": list(modes), "params": params})
    return n, gates


#: the README's network: its last run holds the beam splitters (0, 2) and (1, 3)
README_GATES = [
    {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
    {"kind": "squeeze", "modes": [1], "params": {"r": 0.5, "theta": np.pi}},
    {"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": np.pi / 4, "phi": 0.0}},
    {"kind": "beamsplitter", "modes": [0, 2], "params": {"theta": np.pi / 4, "phi": 0.0}},
    {"kind": "beamsplitter", "modes": [1, 3], "params": {"theta": np.pi / 4, "phi": 0.0}},
]


def test_the_readme_network_has_three_runs():
    spec = parse_network_spec({"modes": 4, "gates": README_GATES})
    assert _runs(spec.gates) == [range(0, 2), range(2, 3), range(3, 5)]


def test_a_run_holds_at_most_max_run_gates():
    n = 2 * MAX_RUN + 5
    squeezers = [{"kind": "squeeze", "modes": [m], "params": {"r": 0.1 + m / n, "theta": m}}
                 for m in range(n)]
    doc = {"modes": n, "gates": squeezers}
    assert _runs(parse_network_spec(doc).gates) == [
        range(0, MAX_RUN), range(MAX_RUN, 2 * MAX_RUN), range(2 * MAX_RUN, n)]
    cov, mean = one_at_a_time(doc)
    state = run_network(parse_network_spec(doc)).state
    assert np.array_equal(state.cov, cov) and np.array_equal(state.mean, mean)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(runs())
@example((4, README_GATES))
@example((3, [{"kind": "beamsplitter", "modes": [2, 0], "params": {"theta": 0.4, "phi": -2.0}},
              {"kind": "beamsplitter", "modes": [1, 0], "params": {"theta": 1.1, "phi": 0.3}}]))
def test_runs_equal_one_gate_at_a_time_bit_for_bit(chain):
    n, gates = chain
    for hbar in (0.5, 2.0, 7.0):
        doc = {"modes": n, "hbar": hbar, "gates": gates}
        cov, mean = one_at_a_time(doc)
        state = run_network(parse_network_spec(doc)).state
        assert np.array_equal(state.cov, cov)
        assert np.array_equal(state.mean, mean)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(runs())
def test_apply_gate_is_the_reference_kernel_bit_for_bit(chain):
    n, gates = chain
    state = vacuum_state(n, 7.0)
    for desc in gates:
        if desc["kind"] == "prepare_thermal":
            state = thermal_prepare(desc["params"]["n_bar"], desc["modes"][0], state)
            continue
        gate = _gate(desc, n)
        cov, mean = (state.cov + state.cov.T) / 2.0, np.array(state.mean)
        apply_in_place(gate.block, gate.shift, gate._idx, cov, mean)
        state = apply_gate(gate, state)
        assert np.array_equal(state.cov, cov)
        assert np.array_equal(state.mean, mean)


def _squeeze(mode, r):
    return {"kind": "squeeze", "modes": [mode], "params": {"r": r, "theta": 0.0}}


def _displace(mode, alpha):
    return {"kind": "displace", "modes": [mode], "params": {"alpha_mag": alpha, "alpha_phase": 0.0}}


def _rotate(mode):
    return {"kind": "rotate", "modes": [mode], "params": {"phi": 0.3}}


# each network fails inside a run of several gates; the gate named is the
# first that fails in spec order, as when the gates run one at a time
FAILING_RUNS = {
    "r=800 third of four squeezers": (
        [_squeeze(0, 0.5), _squeeze(1, 0.5), _squeeze(2, 800.0), _squeeze(3, 0.5)],
        "/gates/2", "matrix is not symplectic (||S Omega S^T - Omega||_F = nan)"),
    "alpha 1e308 after finite displacements": (
        [_displace(0, 1.0), _displace(1, 1.0), _displace(2, 1e308), _displace(3, 1.0)],
        "/gates/2", "shift [inf nan] is not finite"),
    "a mean that overflows mid-run": (
        [_displace(1, 4e307), _rotate(0), _displace(0, 1.0), _displace(1, 5e307), _displace(2, 1.0)],
        "/gates/3", "the gate's output is not finite"),
    "an output that overflows before an invalid block": (
        [_squeeze(0, 300.0), _rotate(1), _squeeze(0, 300.0), _squeeze(1, 800.0)],
        "/gates/2", "the gate's output is not finite"),
    "prepare_thermal on a mode of the previous run": (
        [_squeeze(0, 0.5), _squeeze(1, 0.5),
         {"kind": "prepare_thermal", "modes": [1], "params": {"n_bar": 1.0}}],
        "/gates/2", "mode 1 is not in the vacuum state"),
}


@pytest.mark.parametrize("name", list(FAILING_RUNS))
def test_a_run_names_its_first_failing_gate(name):
    gates, pointer, message = FAILING_RUNS[name]
    doc = {"modes": 4, "gates": gates}
    assert len(_runs(parse_network_spec(doc).gates)) < len(gates)
    with pytest.raises(NetworkRuntimeError) as err:
        run_network(parse_network_spec(doc))
    assert err.value.pointer == pointer
    assert str(err.value) == f"{pointer}: {message}"
    assert str(err.value) == str(one_at_a_time(doc))
    assert isinstance(err.value.__cause__, (MalformedInputError, ValueError))
    assert str(err.value.__cause__) == message


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


#: hbar values of the scaling sweep: (hbar/2)^4 and (hbar/2)^200 lie far
#: outside the float range at both ends
SCALING_HBARS = (1e-200, 1e-12, 0.5, 2.0, 1e8, 1e200)


def _seeded_state(seed, n, hbar):
    """A state of n modes at hbar from numpy seed `seed`: thermal inputs on
    about half the modes, then 1-8 displacements, squeezers, rotations and
    beam splitters.  The draws do not depend on hbar."""
    rng = np.random.default_rng(seed)
    state = vacuum_state(n, hbar)
    for mode in range(n):
        if rng.random() < 0.5:
            state = thermal_prepare(rng.uniform(0, 1), mode, state)
    for _ in range(rng.integers(1, 9)):
        kind, mode = rng.integers(4 if n > 1 else 3), int(rng.integers(n))
        if kind == 0:
            gate = displacement_gate(rng.uniform(0, 2), rng.uniform(-np.pi, np.pi), mode, n, hbar)
        elif kind == 1:
            gate = squeeze_gate(rng.uniform(0, 1.5), rng.uniform(-np.pi, np.pi), mode, n)
        elif kind == 2:
            gate = rotation_gate(rng.uniform(-np.pi, np.pi), mode, n)
        else:
            other = int((mode + rng.integers(1, n)) % n)
            gate = beamsplitter_gate(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi),
                                     (mode, other), n)
        state = apply_gate(gate, state)
    return state


@pytest.mark.parametrize("seed", range(24))
def test_every_result_in_vacuum_units_is_the_same_at_any_hbar(seed):
    """A state built at any hbar is the hbar = 2 state scaled, and purity,
    physicality, E_N and its spectrum, the Simon verdict, the Wigner and
    Husimi values in the alpha measure and W on a grid in vacuum units are
    the hbar = 2 numbers, to within 64 eps cond(sigma).  Simon's sides in
    hbar units overflow at hbar = 1e200 and underflow at hbar = 1e-200, and
    raise CVSimError."""
    n = 1 + seed % 4
    at = {hbar: _seeded_state(seed, n, hbar) for hbar in SCALING_HBARS}
    ref = at[2.0]
    tol = 64 * np.finfo(float).eps * np.linalg.cond(ref.cov)
    # a point within one standard deviation of each mode's mean, d sigma^-1 d <= 2
    offsets = np.random.default_rng(1000 + seed).uniform(-1, 1, (n, 2))
    rows = [slice(2 * m, 2 * m + 2) for m in range(n)]
    alphas = [(ref.mean[r] + np.linalg.cholesky(ref.cov[r, r]) @ u) @ [0.5, 0.5j]
              for r, u in zip(rows, offsets)]
    for hbar, state in at.items():
        half = hbar / 2.0
        assert _close(state.cov / half, ref.cov) and _close(state.mean / np.sqrt(half), ref.mean)
        assert abs(purity(state) - purity(ref)) <= tol
        for scale in (1.0, 0.6):  # as built, and shrunk below the uncertainty bound at times
            assert (check_physicality(GaussianState(state.mean, state.cov * scale, hbar)).physical
                    == check_physicality(GaussianState(ref.mean, ref.cov * scale)).physical)
        for mode, alpha in enumerate(alphas):
            one, one_ref = reduced_state(state, [mode]), reduced_state(ref, [mode])
            for s in (0.0, -1.0):
                expected = s_quasiprob_gaussian(one_ref, alpha, s)
                assert s_quasiprob_gaussian(one, alpha, s) == pytest.approx(expected, rel=tol)
            # a 3 x 3 grid about the point 2 alpha in vacuum units, and in hbar
            # units, where W is 1 / (hbar/2) times W in vacuum units
            bounds = [2.0 * alpha.real - 1.0, 2.0 * alpha.real + 1.0,
                      2.0 * alpha.imag - 1.0, 2.0 * alpha.imag + 1.0]
            w_ref = wigner_gaussian(ref, PhaseSpaceGrid(*bounds, 3, 3), mode).values
            grid = PhaseSpaceGrid(*(np.sqrt(half) * np.array(bounds)), 3, 3)
            assert wigner_gaussian(state, grid, mode).values * half == pytest.approx(w_ref, rel=tol)
        if n == 1:
            continue
        split = Bipartition(range(n // 2), range(n // 2, n))
        assert abs(log_negativity(state, split) - log_negativity(ref, split)) <= tol
        nu, nu_ref = (ptranspose_symplectic_spectrum(st_, split) for st_ in (state, ref))
        assert np.abs(nu - nu_ref).max() <= tol
        pair, pair_ref = reduced_state(state, [0, 1]), reduced_state(ref, [0, 1])
        if hbar in (1e200, 1e-200):
            flow = "overflows" if hbar > 1 else "underflows"
            with pytest.raises(CVSimError, match=f"the Simon criterion {flow} float64"):
                simon_criterion(pair)
            continue
        expected = simon_criterion(pair_ref)
        if abs(expected.margin) > 1e-8:  # within rounding of 0 either verdict is right
            assert simon_criterion(pair).verdict == expected.verdict


def test_purity_of_200_modes_is_the_same_at_any_hbar():
    """(hbar/2)^200 underflows or overflows at every hbar of the sweep but 2
    and 0.5; purity works in vacuum units."""
    rng = np.random.default_rng(200)
    gates = [{"kind": "prepare_thermal", "modes": [m], "params": {"n_bar": rng.uniform(0, 0.05)}}
             for m in range(0, 200, 2)]
    gates += [{"kind": "squeeze", "modes": [m], "params": {"r": rng.uniform(0, 1), "theta": 0.3}}
              for m in range(200)]
    gates += [{"kind": "beamsplitter", "modes": [m, m + 1], "params": {"theta": 0.6, "phi": 0.2}}
              for m in range(0, 199, 3)]
    expected = np.prod([1.0 / (2.0 * g["params"]["n_bar"] + 1.0) for g in gates[:100]])
    for hbar in SCALING_HBARS:
        state = run_network(parse_network_spec({"modes": 200, "hbar": hbar, "gates": gates})).state
        assert purity(state) == pytest.approx(expected, rel=1e-12)
