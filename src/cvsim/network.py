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
    _apply_run,
    _beamsplitter_blocks,
    _displacement_blocks,
    _first_invalid,
    _prepare_thermal_in_place,
    _quadratures,
    _rotation_blocks,
    _squeeze_blocks,
    _write_rows,
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

#: the most gates in one run.  A run's cross block and its fresh temporaries
#: grow as its square: past ~32 gates they cost more than the numpy calls that
#: stacking saves.  Gates-only run_network of a network-chain spec at N = 192
#: (minima, one CPU): 5.5-6.2 ms at 32, 9.5-14 ms with no bound, 9.0-14.6 ms
#: one gate at a time; at N = 64, 1.0-1.3 ms either way against 2.1-2.7 ms.
MAX_RUN = 32
#: the failure of a gate whose block and shift pass but whose output overflows
_NOT_FINITE = "the gate's output is not finite"

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


def _gate_stacks(spec: NetworkSpec) -> tuple[dict, list[int]]:
    """Each gate kind's blocks and shifts in vacuum units, built in one numpy
    pass from its parameter arrays in spec order and checked as one stack,
    with the spec index and reason of its first gate that fails
    ``_first_invalid`` (None if none does); and each gate's position in its
    kind's stack."""
    by_kind: dict[str, list[int]] = {}
    position = []
    for i, desc in enumerate(spec.gates):
        where = by_kind.setdefault(desc.kind, [])
        position.append(len(where))
        where.append(i)
    stacks = {}
    for kind, where in by_kind.items():
        names, _, formula = GATES[kind]
        if formula is not None:
            blocks, shifts = formula(*(np.array([spec.gates[i].params[name] for i in where])
                                       for name in names))
            bad = _first_invalid(blocks, shifts)
            stacks[kind] = blocks, shifts, None if bad is None else (where[bad[0]], bad[1])
    return stacks, position


def _runs(gates: tuple[GateDescriptor, ...]) -> list[range]:
    """The gates split into runs: up to ``MAX_RUN`` consecutive gates of one
    kind whose modes are pairwise disjoint.  A prepare_thermal is a run of
    its own."""
    runs: list[range] = []
    touched: set[int] = set()
    for i, desc in enumerate(gates):
        if (runs and desc.kind == gates[i - 1].kind != "prepare_thermal"
                and touched.isdisjoint(desc.modes) and len(runs[-1]) < MAX_RUN):
            runs[-1] = range(runs[-1].start, i + 1)
        else:
            runs.append(range(i, i + 1))
            touched = set()
        touched.update(desc.modes)
    return runs


def _finite(cov_rows: np.ndarray, mean_rows: np.ndarray) -> bool:
    return bool(np.isfinite(cov_rows).all() and np.isfinite(mean_rows).all())


def _apply_gates(spec: NetworkSpec, gates: range, stacks: dict, position: list[int],
                 cov: np.ndarray, mean: np.ndarray) -> bool:
    """Apply ``gates``, a run or a part of one, in one stacked pass, and write
    the result into cov and mean if it is finite; return whether it is."""
    blocks, shifts, _ = stacks[spec.gates[gates.start].kind]
    rows = _quadratures(tuple(m for i in gates for m in spec.gates[i].modes))
    at = slice(position[gates.start], position[gates.start] + len(gates))
    new_rows, new_mean = _apply_run(blocks[at], shifts[at], rows, cov, mean)
    if not _finite(new_rows, new_mean):
        return False
    _write_rows(rows, new_rows, new_mean, cov, mean)
    return True


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

    The gates of each kind are built and checked as one stack.  They update
    one covariance/mean buffer in vacuum units in runs: up to ``MAX_RUN``
    consecutive gates of one kind whose modes are pairwise disjoint, a
    prepare_thermal a run of its own.  Each run is computed in one stacked pass and written once its
    output is finite, bit for bit what applying its gates one at a time in
    spec order gives.  A run that fails is applied one gate at a time, so
    the first failing gate in spec order is named.  After the last run the
    buffer is scaled to hbar units and the validated state is built.

    Raises:
        NetworkRuntimeError: a gate or an analysis failed; its ``pointer``
            names the first that did, e.g. "/gates/1".  A gate fails when its
            block is not symplectic, its block or shift is not finite,
            prepare_thermal finds its mode not in the vacuum, or its output
            is not finite; "/hbar" when the state overflows in hbar units.
    """
    mean = np.zeros(2 * spec.num_modes)
    cov = np.eye(2 * spec.num_modes)
    stacks, position = _gate_stacks(spec)
    i = 0  # the gate that runs, named if it fails
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for run in _runs(spec.gates):
                i = run.start
                desc = spec.gates[i]
                if desc.kind == "prepare_thermal":
                    _prepare_thermal_in_place(desc.params["n_bar"], desc.modes[0], cov, mean)
                    rows = _quadratures(desc.modes)
                    if not _finite(cov[rows], mean[rows]):
                        raise MalformedInputError(_NOT_FINITE)
                    continue
                bad = stacks[desc.kind][2]
                if (bad is not None and bad[0] in run
                        or not _apply_gates(spec, run, stacks, position, cov, mean)):
                    # a gate of the run fails: apply it one gate at a time to name the first
                    for i in run:
                        if bad is not None and bad[0] == i:
                            raise MalformedInputError(bad[1])
                        if not _apply_gates(spec, range(i, i + 1), stacks, position, cov, mean):
                            raise MalformedInputError(_NOT_FINITE)
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
