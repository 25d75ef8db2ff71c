"""Declarative optical networks: a JSON-friendly description of modes, gates
and analyses, plus the deterministic runner that executes it.

Wire format (field names are fixed for cross-implementation compatibility):

    {
      "modes": int,
      "hbar": float,
      "gates": [{"kind": str, "modes": [int, ...], "params": {...}}, ...],
      "analyses": [
        {"type": "reduced", "modes": [int, ...]},
        {"type": "simon", "modes": [int, int]},
        {"type": "log_negativity", "part_a": [int, ...], "part_b": [int, ...]},
        {"type": "wigner", "mode": int, "grid": {...}},
        ...
      ]
    }

Gate kinds and their params: displace {alpha_mag, alpha_phase},
squeeze {r, theta}, rotate {phi}, beamsplitter {theta, phi},
prepare_thermal {n_bar}.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .entanglement import (
    Bipartition,
    _log_negativity_and_spectrum,
    reduced_state,
    simon_criterion,
)
from .errors import CVSimError, NetworkRuntimeError, SpecValidationError
from .gates import (
    _apply_in_place,
    _prepare_thermal_in_place,
    beamsplitter_gate,
    displacement_gate,
    rotation_gate,
    squeeze_gate,
)
from .phase_space import PhaseSpaceGrid, wigner_gaussian
from .states import GaussianState, clean_tiny

#: gate kind -> (parameter names, number of modes)
GATES = {
    "displace": (("alpha_mag", "alpha_phase"), 1),
    "squeeze": (("r", "theta"), 1),
    "rotate": (("phi",), 1),
    "beamsplitter": (("theta", "phi"), 2),
    "prepare_thermal": (("n_bar",), 1),
}
#: parameters that must be >= 0
NON_NEGATIVE = ("alpha_mag", "r", "n_bar")
ANALYSIS_TYPES = ("reduced", "simon", "log_negativity", "wigner")

DEFAULT_GRID = {"x_min": -5.0, "x_max": 5.0, "p_min": -5.0, "p_max": 5.0, "nx": 100, "np": 100}


@dataclass(frozen=True)
class GateDescriptor:
    kind: str
    modes: tuple[int, ...]
    params: dict[str, float]


@dataclass(frozen=True)
class AnalysisRequest:
    type: str
    modes: tuple[int, ...] = ()
    part_a: tuple[int, ...] = ()
    part_b: tuple[int, ...] = ()
    mode: int = 0
    grid: PhaseSpaceGrid | None = None


@dataclass(frozen=True)
class NetworkSpec:
    num_modes: int
    hbar: float = 2.0
    gates: tuple[GateDescriptor, ...] = ()
    analyses: tuple[AnalysisRequest, ...] = ()


def _expect(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise SpecValidationError(pointer, message)


def _number(value, pointer: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            pointer, f"expected a number, got {value!r}")
    # json.load reads NaN, Infinity and -Infinity; an int past the float range
    # would overflow float()
    _expect(abs(value) <= sys.float_info.max, pointer, f"expected a finite number, got {value!r}")
    return float(value)


def _mode_list(value, pointer: str, num_modes: int, length: int | None = None) -> tuple[int, ...]:
    _expect(isinstance(value, list) and value, pointer, "expected a non-empty list of mode indices")
    modes = []
    for i, m in enumerate(value):
        _expect(isinstance(m, int) and not isinstance(m, bool),
                f"{pointer}/{i}", f"expected an integer mode index, got {m!r}")
        _expect(0 <= m < num_modes, f"{pointer}/{i}",
                f"mode {m} out of range for {num_modes} modes")
        modes.append(m)
    _expect(len(set(modes)) == len(modes), pointer, f"duplicate modes in {modes}")
    if length is not None:
        _expect(len(modes) == length, pointer, f"expected exactly {length} modes, got {len(modes)}")
    return tuple(modes)


def _parse_gate(entry, idx: int, num_modes: int) -> GateDescriptor:
    ptr = f"/gates/{idx}"
    _expect(isinstance(entry, dict), ptr, "expected an object")
    kind = entry.get("kind")
    _expect(kind in GATES, f"{ptr}/kind",
            f"unknown gate kind {kind!r}; expected one of {sorted(GATES)}")
    names, mode_count = GATES[kind]
    modes = _mode_list(entry.get("modes"), f"{ptr}/modes", num_modes, mode_count)
    raw = entry.get("params")
    _expect(isinstance(raw, dict), f"{ptr}/params", "expected an object")
    params: dict[str, float] = {}
    for name in names:
        _expect(name in raw, f"{ptr}/params/{name}", "missing required parameter")
        params[name] = _number(raw[name], f"{ptr}/params/{name}")
    for name in raw:
        _expect(name in names, f"{ptr}/params/{name}", f"unexpected parameter for kind {kind!r}")
    for name, value in params.items():
        _expect(name not in NON_NEGATIVE or value >= 0, f"{ptr}/params/{name}", "must be >= 0")
    if kind == "beamsplitter":
        _expect(0 <= params["theta"] <= np.pi / 2, f"{ptr}/params/theta",
                "must lie in [0, pi/2]")
    return GateDescriptor(kind=kind, modes=modes, params=params)


def _parse_analysis(entry, idx: int, num_modes: int) -> AnalysisRequest:
    ptr = f"/analyses/{idx}"
    _expect(isinstance(entry, dict), ptr, "expected an object")
    kind = entry.get("type")
    _expect(kind in ANALYSIS_TYPES, f"{ptr}/type",
            f"unknown analysis type {kind!r}; expected one of {ANALYSIS_TYPES}")
    if kind == "reduced":
        return AnalysisRequest(type=kind, modes=_mode_list(entry.get("modes"), f"{ptr}/modes", num_modes))
    if kind == "simon":
        return AnalysisRequest(
            type=kind, modes=_mode_list(entry.get("modes"), f"{ptr}/modes", num_modes, 2)
        )
    if kind == "log_negativity":
        part_a = _mode_list(entry.get("part_a"), f"{ptr}/part_a", num_modes)
        part_b = _mode_list(entry.get("part_b"), f"{ptr}/part_b", num_modes)
        _expect(not set(part_a) & set(part_b), f"{ptr}/part_b",
                "part_a and part_b must be disjoint")
        return AnalysisRequest(type=kind, part_a=part_a, part_b=part_b)
    # wigner
    mode = entry.get("mode")
    _expect(isinstance(mode, int) and not isinstance(mode, bool), f"{ptr}/mode",
            f"expected an integer mode index, got {mode!r}")
    _expect(0 <= mode < num_modes, f"{ptr}/mode", f"mode {mode} out of range")
    raw_grid = entry.get("grid", {})
    _expect(isinstance(raw_grid, dict), f"{ptr}/grid", "expected an object")
    grid_kwargs = dict(DEFAULT_GRID)
    for key, value in raw_grid.items():
        _expect(key in DEFAULT_GRID, f"{ptr}/grid/{key}", "unknown grid field")
        if key in ("nx", "np"):
            _expect(isinstance(value, int) and not isinstance(value, bool) and value >= 2,
                    f"{ptr}/grid/{key}", "expected an integer >= 2")
            grid_kwargs[key] = value
        else:
            grid_kwargs[key] = _number(value, f"{ptr}/grid/{key}")
    try:
        grid = PhaseSpaceGrid(**grid_kwargs)
    except ValueError as exc:
        raise SpecValidationError(f"{ptr}/grid", str(exc)) from None
    return AnalysisRequest(type=kind, mode=mode, grid=grid)


def parse_network_spec(doc) -> NetworkSpec:
    """Validate a decoded JSON document; raises SpecValidationError with a
    JSON-pointer path on the first violation."""
    _expect(isinstance(doc, dict), "", "top-level document must be an object")
    for key in doc:
        _expect(key in ("modes", "hbar", "gates", "analyses"), f"/{key}", "unknown field")
    modes = doc.get("modes")
    _expect(isinstance(modes, int) and not isinstance(modes, bool) and modes >= 1,
            "/modes", f"expected a positive integer, got {modes!r}")
    hbar = _number(doc.get("hbar", 2.0), "/hbar")
    _expect(hbar > 0, "/hbar", "must be positive")
    raw_gates = doc.get("gates", [])
    _expect(isinstance(raw_gates, list), "/gates", "expected a list")
    gates = tuple(_parse_gate(g, i, modes) for i, g in enumerate(raw_gates))
    raw_analyses = doc.get("analyses", [])
    _expect(isinstance(raw_analyses, list), "/analyses", "expected a list")
    analyses = tuple(_parse_analysis(a, i, modes) for i, a in enumerate(raw_analyses))
    return NetworkSpec(num_modes=modes, hbar=hbar, gates=gates, analyses=analyses)


def _run_gate(desc: GateDescriptor, cov: np.ndarray, mean: np.ndarray, hbar: float) -> None:
    """Apply one gate to the network's covariance/mean buffer in place."""
    n = mean.size // 2
    p = desc.params
    if desc.kind == "prepare_thermal":
        _prepare_thermal_in_place(p["n_bar"], desc.modes[0], cov, mean, hbar)
        return
    if desc.kind == "displace":
        gate = displacement_gate(p["alpha_mag"], p["alpha_phase"], desc.modes[0], n, hbar)
    elif desc.kind == "squeeze":
        gate = squeeze_gate(p["r"], p["theta"], desc.modes[0], n)
    elif desc.kind == "rotate":
        gate = rotation_gate(p["phi"], desc.modes[0], n)
    elif desc.kind == "beamsplitter":
        gate = beamsplitter_gate(p["theta"], p["phi"], desc.modes, n)
    else:  # unreachable after validation
        raise ValueError(f"unknown gate kind {desc.kind!r}")
    _apply_in_place(gate, cov, mean)


def _run_analysis(state: GaussianState, req: AnalysisRequest) -> dict:
    if req.type == "reduced":
        red = reduced_state(state, list(req.modes))
        return {
            "type": "reduced",
            "modes": list(req.modes),
            "mean": clean_tiny(red.mean),
            "cov": clean_tiny(red.cov),
        }
    if req.type == "simon":
        red = reduced_state(state, list(req.modes))
        report = simon_criterion(red)
        return {
            "type": "simon",
            "modes": list(req.modes),
            "lhs": report.lhs,
            "rhs": report.rhs,
            "verdict": report.verdict,
        }
    if req.type == "log_negativity":
        kept = sorted(req.part_a + req.part_b)
        red = reduced_state(state, kept)
        positions = {m: i for i, m in enumerate(kept)}
        bipartition = Bipartition(
            [positions[m] for m in req.part_a], [positions[m] for m in req.part_b]
        )
        value, nu = _log_negativity_and_spectrum(red, bipartition)
        return {
            "type": "log_negativity",
            "part_a": list(req.part_a),
            "part_b": list(req.part_b),
            "value": value,
            "nu_tilde": nu,
        }
    if req.type == "wigner":
        fld = wigner_gaussian(state, req.grid, req.mode)
        return {
            "type": "wigner",
            "mode": req.mode,
            "grid": asdict(req.grid),
            "normalization": fld.riemann_sum(),
            "values": fld.values,
        }
    raise ValueError(f"unknown analysis type {req.type!r}")


@dataclass(frozen=True)
class NetworkResult:
    state: GaussianState
    analyses: list[dict] = field(default_factory=list)


def run_network(spec: NetworkSpec) -> NetworkResult:
    """Start from the N-mode vacuum, apply the gates in order and evaluate
    every requested analysis.  Fully deterministic.

    The gates update one covariance/mean buffer in place; the validated
    state is built once, after the last gate.

    Raises:
        NetworkRuntimeError: a gate or an analysis failed; its ``pointer``
            names it, e.g. "/gates/1".
    """
    mean = np.zeros(2 * spec.num_modes)
    cov = (spec.hbar / 2.0) * np.eye(2 * spec.num_modes)
    for i, desc in enumerate(spec.gates):
        try:
            _run_gate(desc, cov, mean, spec.hbar)
        except (ValueError, CVSimError) as exc:
            raise NetworkRuntimeError(f"/gates/{i}", str(exc)) from exc
    state = GaussianState(mean=mean, cov=cov, hbar=spec.hbar)
    analyses = []
    for i, req in enumerate(spec.analyses):
        try:
            analyses.append(_run_analysis(state, req))
        except (ValueError, CVSimError) as exc:
            raise NetworkRuntimeError(f"/analyses/{i}", str(exc)) from exc
    return NetworkResult(state=state, analyses=analyses)
