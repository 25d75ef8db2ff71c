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
prepare_thermal {n_bar}.  Every object refuses a field that it does not declare.
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
from .errors import CVSimError, MalformedInputError, NetworkRuntimeError, SpecValidationError
from .gates import (
    _apply_in_place,
    _beamsplitter_blocks,
    _displacement_blocks,
    _first_invalid,
    _prepare_thermal_in_place,
    _quadratures,
    _rotation_blocks,
    _squeeze_blocks,
)
from .phase_space import PhaseSpaceGrid, wigner_gaussian
from .states import GaussianState, clean_tiny

#: gate kind -> (parameter names, number of modes, formula of its blocks)
GATES = {
    "displace": (("alpha_mag", "alpha_phase"), 1, _displacement_blocks),
    "squeeze": (("r", "theta"), 1, _squeeze_blocks),
    "rotate": (("phi",), 1, _rotation_blocks),
    "beamsplitter": (("theta", "phi"), 2, _beamsplitter_blocks),
    "prepare_thermal": (("n_bar",), 1, None),
}
#: parameters that must be >= 0
NON_NEGATIVE = ("alpha_mag", "r", "n_bar")
#: analysis type -> its fields besides "type": each mode list's field maps to
#: the number of modes it must hold (None: any), wigner's fields to None
ANALYSES = {
    "reduced": {"modes": None},
    "simon": {"modes": 2},
    "log_negativity": {"part_a": None, "part_b": None},
    "wigner": {"mode": None, "grid": None},
}

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


# The checks below format a pointer or a message only to report a failure:
# a pointer is passed as the tuple of its segments, which _fail escapes as
# RFC 6901 asks ("~" as "~0", then "/" as "~1") and joins.

def _fail(pointer: tuple, message: str) -> SpecValidationError:
    segments = (str(s).replace("~", "~0").replace("/", "~1") for s in pointer)
    return SpecValidationError("/".join(segments), message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, pointer: tuple) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _fail(pointer, f"expected a number, got {value!r}")
    # json.load reads NaN, Infinity and -Infinity; an int past the float range
    # would overflow float()
    if not abs(value) <= sys.float_info.max:
        raise _fail(pointer, f"expected a finite number, got {value!r}")
    return float(value)


def _known_keys(obj: dict, pointer: tuple, keys) -> None:
    for key in obj:
        if key not in keys:
            raise _fail(pointer + (key,), "unknown field")


def _mode_list(value, pointer: tuple, num_modes: int, length: int | None = None) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise _fail(pointer, "expected a non-empty list of mode indices")
    for i, m in enumerate(value):
        if not _is_int(m):
            raise _fail(pointer + (i,), f"expected an integer mode index, got {m!r}")
        if not 0 <= m < num_modes:
            raise _fail(pointer + (i,), f"mode {m} out of range for {num_modes} modes")
    if len(set(value)) != len(value):
        raise _fail(pointer, f"duplicate modes in {value}")
    if length is not None and len(value) != length:
        raise _fail(pointer, f"expected exactly {length} modes, got {len(value)}")
    return tuple(value)


def _parse_gate(entry, idx: int, num_modes: int) -> GateDescriptor:
    ptr = ("", "gates", idx)
    if not isinstance(entry, dict):
        raise _fail(ptr, "expected an object")
    _known_keys(entry, ptr, ("kind", "modes", "params"))
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in GATES:
        raise _fail(ptr + ("kind",), f"unknown gate kind {kind!r}; expected one of {sorted(GATES)}")
    names, mode_count, _ = GATES[kind]
    modes = _mode_list(entry.get("modes"), ptr + ("modes",), num_modes, mode_count)
    raw = entry.get("params")
    if not isinstance(raw, dict):
        raise _fail(ptr + ("params",), "expected an object")
    params: dict[str, float] = {}
    for name in names:
        if name not in raw:
            raise _fail(ptr + ("params", name), "missing required parameter")
        params[name] = _number(raw[name], ptr + ("params", name))
    if len(raw) != len(names):
        extra = next(name for name in raw if name not in names)
        raise _fail(ptr + ("params", extra), f"unexpected parameter for kind {kind!r}")
    for name, value in params.items():
        if value < 0 and name in NON_NEGATIVE:
            raise _fail(ptr + ("params", name), "must be >= 0")
    if kind == "beamsplitter" and not 0 <= params["theta"] <= np.pi / 2:
        raise _fail(ptr + ("params", "theta"), "must lie in [0, pi/2]")
    return GateDescriptor(kind=kind, modes=modes, params=params)


def _parse_analysis(entry, idx: int, num_modes: int) -> AnalysisRequest:
    ptr = ("", "analyses", idx)
    if not isinstance(entry, dict):
        raise _fail(ptr, "expected an object")
    kind = entry.get("type")
    if not isinstance(kind, str) or kind not in ANALYSES:
        raise _fail(ptr + ("type",),
                    f"unknown analysis type {kind!r}; expected one of {tuple(ANALYSES)}")
    _known_keys(entry, ptr, ("type", *ANALYSES[kind]))
    if kind != "wigner":
        lists = {name: _mode_list(entry.get(name), ptr + (name,), num_modes, length)
                 for name, length in ANALYSES[kind].items()}
        if kind == "log_negativity" and set(lists["part_a"]) & set(lists["part_b"]):
            raise _fail(ptr + ("part_b",), "part_a and part_b must be disjoint")
        return AnalysisRequest(type=kind, **lists)
    mode = entry.get("mode")
    if not _is_int(mode):
        raise _fail(ptr + ("mode",), f"expected an integer mode index, got {mode!r}")
    if not 0 <= mode < num_modes:
        raise _fail(ptr + ("mode",), f"mode {mode} out of range")
    raw_grid = entry.get("grid", {})
    if not isinstance(raw_grid, dict):
        raise _fail(ptr + ("grid",), "expected an object")
    grid_kwargs = dict(DEFAULT_GRID)
    for key, value in raw_grid.items():
        if key not in DEFAULT_GRID:
            raise _fail(ptr + ("grid", key), "unknown grid field")
        if key in ("nx", "np"):
            if not (_is_int(value) and value >= 2):
                raise _fail(ptr + ("grid", key), "expected an integer >= 2")
            grid_kwargs[key] = value
        else:
            grid_kwargs[key] = _number(value, ptr + ("grid", key))
    try:
        grid = PhaseSpaceGrid(**grid_kwargs)
    except ValueError as exc:
        raise _fail(ptr + ("grid",), str(exc)) from None
    return AnalysisRequest(type=kind, mode=mode, grid=grid)


def parse_network_spec(doc) -> NetworkSpec:
    """Validate a decoded JSON document; raises SpecValidationError with a
    JSON-pointer path on the first violation."""
    if not isinstance(doc, dict):
        raise _fail(("",), "top-level document must be an object")
    _known_keys(doc, ("",), ("modes", "hbar", "gates", "analyses"))
    modes = doc.get("modes")
    if not (_is_int(modes) and modes >= 1):
        raise _fail(("", "modes"), f"expected a positive integer, got {modes!r}")
    hbar = _number(doc.get("hbar", 2.0), ("", "hbar"))
    if not hbar > 0:
        raise _fail(("", "hbar"), "must be positive")
    raw_gates = doc.get("gates", [])
    if not isinstance(raw_gates, list):
        raise _fail(("", "gates"), "expected a list")
    gates = tuple(_parse_gate(g, i, modes) for i, g in enumerate(raw_gates))
    raw_analyses = doc.get("analyses", [])
    if not isinstance(raw_analyses, list):
        raise _fail(("", "analyses"), "expected a list")
    analyses = tuple(_parse_analysis(a, i, modes) for i, a in enumerate(raw_analyses))
    return NetworkSpec(num_modes=modes, hbar=hbar, gates=gates, analyses=analyses)


def _gate_steps(spec: NetworkSpec) -> list:
    """What ``_apply_in_place`` takes for each gate in vacuum units, (block,
    shift, rows); None for prepare_thermal; and, for the first gate of each
    kind whose block or shift fails ``_first_invalid``, the reason as a string.

    The gates of one kind are built in one numpy pass from their parameter
    arrays and checked as one stack.
    """
    by_kind: dict[str, list[int]] = {}
    for i, desc in enumerate(spec.gates):
        by_kind.setdefault(desc.kind, []).append(i)
    steps: list = [None] * len(spec.gates)
    for kind, where in by_kind.items():
        names, _, formula = GATES[kind]
        if formula is None:
            continue
        blocks, shifts = formula(*(np.array([spec.gates[i].params[name] for i in where])
                                   for name in names))
        for i, block, shift in zip(where, blocks, shifts):
            steps[i] = (block, shift, _quadratures(spec.gates[i].modes))
        bad = _first_invalid(blocks, shifts)
        if bad is not None:
            steps[where[bad[0]]] = bad[1]
    return steps


def _run_analysis(state: GaussianState, req: AnalysisRequest) -> dict:
    if req.type == "reduced":
        mean, cov = clean_tiny(reduced_state(state, list(req.modes)))
        return {"type": "reduced", "modes": list(req.modes), "mean": mean, "cov": cov}
    if req.type == "simon":
        report = simon_criterion(reduced_state(state, list(req.modes)))
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


@dataclass(frozen=True, eq=False)
class NetworkResult:
    state: GaussianState
    analyses: list[dict] = field(default_factory=list)


def run_network(spec: NetworkSpec) -> NetworkResult:
    """Start from the N-mode vacuum, apply the gates in order and evaluate
    every requested analysis.  Fully deterministic.

    The gates of each kind are built and checked as one stack, then update
    one covariance/mean buffer in vacuum units in place, in spec order; after
    the last gate it is scaled to hbar units and the validated state is built.

    Raises:
        NetworkRuntimeError: a gate or an analysis failed; its ``pointer``
            names the first that did, e.g. "/gates/1".  A gate fails when its
            block is not symplectic, its block or shift is not finite,
            prepare_thermal finds its mode not in the vacuum, or its output
            is not finite; "/hbar" when the state overflows in hbar units.
    """
    mean = np.zeros(2 * spec.num_modes)
    cov = np.eye(2 * spec.num_modes)
    steps = _gate_steps(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (desc, step) in enumerate(zip(spec.gates, steps)):
            try:
                if isinstance(step, str):
                    raise MalformedInputError(step)
                if step is None:
                    _prepare_thermal_in_place(desc.params["n_bar"], desc.modes[0], cov, mean)
                    rows = _quadratures(desc.modes)
                else:
                    _apply_in_place(*step, cov, mean)
                    rows = step[2]
                # count_nonzero is cheaper than .all() on arrays this small
                out_cov, out_mean = cov[rows], mean[rows]
                if (np.count_nonzero(np.isfinite(out_cov)) + np.count_nonzero(np.isfinite(out_mean))
                        != out_cov.size + out_mean.size):
                    raise MalformedInputError("the gate's output is not finite")
            except (ValueError, CVSimError) as exc:
                raise NetworkRuntimeError(f"/gates/{i}", str(exc)) from exc
        cov *= spec.hbar / 2.0
        mean *= np.sqrt(spec.hbar / 2.0)
    try:
        state = GaussianState(mean=mean, cov=cov, hbar=spec.hbar)
    except MalformedInputError as exc:  # finite in vacuum units, not in hbar units
        raise NetworkRuntimeError("/hbar", str(exc)) from exc
    del mean, cov  # the state holds frozen copies
    analyses = []
    for i, req in enumerate(spec.analyses):
        try:
            analyses.append(_run_analysis(state, req))
        except (ValueError, CVSimError) as exc:
            raise NetworkRuntimeError(f"/analyses/{i}", str(exc)) from exc
    return NetworkResult(state=state, analyses=analyses)
