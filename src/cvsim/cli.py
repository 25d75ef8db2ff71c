"""Command-line front end.

Exit codes: 0 success, 1 runtime/numerical failure, 2 usage or validation
failure; ``main`` maps each failure to its code.  All outputs are data files
(CSV/JSON, UTF-8, LF line endings); plotting is deliberately out of scope.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from math import isfinite

import numpy as np

from . import homodyne
from ._csvio import _repr_cells
from .errors import CVSimError, SpecValidationError
from .fock import MAX_TOTAL_PHOTONS, bs_output_from_angle
from .network import GateDescriptor, NetworkSpec, parse_network_spec, run_network
from .phase_space import PhaseSpaceGrid, wigner_gaussian, write_wigner_csv
from .states import clean_tiny


class CLIError(Exception):
    """A failed command: one ``Error:`` line and exit code 1 (a runtime or
    numerical failure) or 2 (a usage or validation failure)."""

    usage = ""  # printed before the error line, for a command line that did not parse

    def __init__(self, message: str, exit_code: int) -> None:
        super().__init__(message)
        self.exit_code = exit_code


@contextmanager
def _writing(path: str):
    """Turn an OSError raised while writing ``path`` into a one-line exit 1."""
    try:
        yield
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc.strerror}", 1) from None


#: nonzero cells per call of the digit kernel: a call costs ~150 us plus
#: ~0.1 us a cell, and its temporaries peak at ~110 bytes a cell
_KERNEL_CELLS = 2048
#: cells per block of text, and per scan for nonzero cells; writing the
#: N=192 network-chain output peaks at 0.4 MB of traced allocations
_TEXT_CELLS = 1024
#: arrays with fewer cells are written through float.__repr__: through the
#: kernel a 256-cell array took 1.2x as long, a 384-cell one 0.83x and a
#: 32x32 one 0.64x (medians of 400 alternated runs, 2-vCPU VM)
_KERNEL_MIN_CELLS = 384


def _nonzero_batches(flat: np.ndarray):
    """Yield (positions, end): the positions of the nonzero cells of `flat`,
    _KERNEL_CELLS at a time, and the end of the cells that each batch
    covers, one past its last position and flat.size for the last batch."""
    found, count = [], 0
    for first in range(0, flat.size, _TEXT_CELLS):
        found.append(np.flatnonzero(flat[first:first + _TEXT_CELLS]) + first)
        count += found[-1].size
        while count >= _KERNEL_CELLS:
            pending = np.concatenate(found)
            batch = pending[:_KERNEL_CELLS]
            found, count = [pending[_KERNEL_CELLS:]], count - _KERNEL_CELLS
            yield batch, int(batch[-1]) + 1
    yield np.concatenate(found), flat.size


def _json_float_array(a: np.ndarray, indent: str):
    """Yield the text of ``json.dumps(a.tolist(), indent=2)`` nested at
    `indent`, for a C-contiguous array of finite doubles with one or two
    dimensions and at least one column.

    The text is written in blocks of _TEXT_CELLS cells: a template of each
    cell's separator and piece, filled by one %-format of the block's
    integer fields, then cut to its length.  Zeros are the pieces "0.0" and
    "-0.0"; the nonzero cells are formatted by the digit kernel,
    _KERNEL_CELLS at a time.
    """
    inner = indent + "  "
    cell_indent = inner + "  " if a.ndim == 2 else inner
    cols = a.shape[-1]
    separator = ",\n" + cell_indent
    row_break = "\n" + inner + "],\n" + inner + "[\n" + cell_indent
    opening = "[\n" + (inner + "[\n" + cell_indent if a.ndim == 2 else cell_indent)
    flat = a.reshape(-1)
    start = 0
    for positions, end in _nonzero_batches(flat):
        args = np.zeros((positions.size, 3), dtype=np.int64)
        used = np.zeros((positions.size, 3), dtype=bool)
        cells = _repr_cells(flat[positions], args, used)
        for first in range(start, end, _TEXT_CELLS):
            last = min(first + _TEXT_CELLS, end)
            i, j = np.searchsorted(positions, (first, last)).tolist()
            values = flat[first:last]
            fields = tuple(args[i:j][used[i:j]].tolist())
            template = np.empty(2 * (last - first) + 1, dtype=object)
            template[0::2] = separator
            template[2 * (-first % cols)::2 * cols] = row_break
            if first == 0:
                template[0] = opening
            # a field takes 2 to 6 characters of the template and writes at
            # most 17: with room for them at its end, the %-format fills one
            # buffer instead of growing it, whose reallocations raised the
            # peak RSS of two network-chain rounds by ~1.1 MB
            room = 15 * len(fields)
            template[-1] = " " * room
            pieces = template[1::2]
            pieces.fill("0.0")  # np.full takes ~10x as long
            pieces[np.signbit(values) & (values == 0)] = "-0.0"
            pieces[positions[i:j] - first] = cells[i:j]
            text = "".join(template.tolist()) % fields
            del template, pieces, fields  # while the block is written
            yield text[:len(text) - room]
        start = end
        del cells, args, used  # before the next batch is formatted
    yield ("\n" + inner + "]" if a.ndim == 2 else "") + "\n" + indent + "]"


#: the JSON string that stands for an array written by _json_float_array;
#: no network payload string holds a NUL
_ARRAY_MARK = "\0cvsim array\0"


def _json_text(payload):
    """Yield the text of ``json.dumps(payload, indent=2, default=np.ndarray.tolist)``.

    A C-contiguous array of finite doubles with one or two dimensions and at
    least _KERNEL_MIN_CELLS cells is written by _json_float_array, at the
    indent of the line that it starts on: json.dumps writes _ARRAY_MARK in
    its place, and its text is cut at each mark.
    """
    taken = []

    def default(a):
        if (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim <= 2
                and a.size >= _KERNEL_MIN_CELLS and a.flags.c_contiguous
                and np.isfinite(a.min()) and np.isfinite(a.max())):
            taken.append(a)
            return _ARRAY_MARK
        return np.ndarray.tolist(a)

    pieces = json.dumps(payload, indent=2, default=default).split(json.dumps(_ARRAY_MARK))
    # the encoder's closures hold `default` in a reference cycle, which only
    # the cyclic garbage collector frees: empty `taken` so that the arrays go
    # with the payload
    arrays = taken.copy()
    taken.clear()
    if len(arrays) != len(pieces) - 1:
        raise ValueError(f"{len(pieces) - 1} array marks in the JSON text of {len(arrays)} arrays")
    yield pieces[0]
    for a, head, tail in zip(arrays, pieces, pieces[1:]):
        line = head[head.rfind("\n") + 1:]
        yield from _json_float_array(a, line[:len(line) - len(line.lstrip(" "))])
        yield tail


_FOCK_BS_DOCUMENT = (
    '{\n  "total_photons": %d,\n  "amplitudes": [\n%s\n  ],\n'
    '  "marginal_mode0": [\n    %s\n  ],\n  "marginal_mode1": [\n    %s\n  ]\n}\n'
)
_FOCK_BS_AMPLITUDE = ('    {\n      "basis": [\n        %d,\n        %d\n      ],\n'
                      '      "re": %r,\n      "im": %r\n    }')


def _fock_bs_json(state) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` of the fock-bs payload of a
    (finite, ascending-k) ``bs_output`` state: its {basis, re, im} records,
    then the marginals |c_k|^2 of mode 0 and, reversed, of mode 1."""
    probs = [0.0] * (state.total_photons + 1)
    records = []
    for (k, m), amp in state.amplitudes.items():
        probs[k] = abs(amp) ** 2
        records.append(_FOCK_BS_AMPLITUDE % (k, m, amp.real, amp.imag))
    marginals = [",\n    ".join(map(float.__repr__, p)) for p in (probs, probs[::-1])]
    return _FOCK_BS_DOCUMENT % (state.total_photons, ",\n".join(records), *marginals)


def _require_finite(**options: float) -> None:
    """Exit 2 naming the first option whose value is NaN or infinite."""
    for name, value in options.items():
        if not isfinite(value):
            raise CLIError(f"--{name.replace('_', '-')} must be finite, got {value!r}", 2)


#: --state -> (source model constructor, the options it takes in order)
_MODELS = {
    "fock": (homodyne.Fock, ("n",)),
    "spats": (homodyne.Spats, ("nbar",)),
    "squeezed": (homodyne.SqueezedVacuum, ("r",)),
    "cat": (lambda re, im, theta: homodyne.CatState(complex(re, im), theta),
            ("alpha_re", "alpha_im", "theta")),
    "thermal": (homodyne.Thermal, ("nbar",)),
    "vacuum": (homodyne.Vacuum, ()),
}


def _build_model(state, n, nbar, r, alpha_re, alpha_im, theta) -> homodyne.SourceModel:
    build, names = _MODELS[state]
    given = dict(n=n, nbar=nbar, r=r, alpha_re=alpha_re, alpha_im=alpha_im, theta=theta)
    values = [given[name] for name in names]
    if None in values:
        flags = ["--" + name.replace("_", "-") for name in names]
        if len(flags) == 1:
            raise CLIError(f"{flags[0]} is required for --state {state}", 2)
        listed = ", ".join(flags[:-1]) + " and " + flags[-1]
        raise CLIError(f"{listed} are required for --state {state}", 2)
    try:
        return build(*values)
    except ValueError as exc:
        raise CLIError(str(exc), 2) from None
    except CVSimError as exc:  # a state that overflows, as squeezing r = 400 does
        raise CLIError(f"--state {state}: {exc}", 1) from None


def cmd_sample(state, n, nbar, r, alpha_re, alpha_im, theta, count, seed, tol, out):
    """Generate homodyne records by inverse-CDF sampling and write phase,x CSV."""
    if seed < 0:
        raise CLIError(f"Invalid value for '--seed': {seed} is not in the range x>=0.", 2)
    model = _build_model(state, n, nbar, r, alpha_re, alpha_im, theta)
    if count < 1:
        raise CLIError("--count must be >= 1", 2)
    _require_finite(tol=tol)
    if tol <= 0:
        raise CLIError(f"--tol must be > 0, got {tol!r}", 2)
    samples = homodyne.sample(model, count, seed=seed, tol=tol)
    with _writing(out):
        homodyne.write_samples_csv(samples, out)
    print(f"wrote {len(samples)} records to {out}")
    # one record has no sample variance; np.var would warn on stderr
    variance = np.var(samples.values, ddof=1) if len(samples) > 1 else np.nan
    print(f"mean {np.mean(samples.values):.6g}  variance {variance:.6g}")


def cmd_analyze(in_path, bins, sigma_level, state, n, nbar, r, alpha_re, alpha_im, theta, out):
    """Bin a phase,x CSV, test the Heisenberg product and certify squeezing.

    Model flags are optional; without them the theory column is NaN."""
    model = None
    if state is not None:
        model = _build_model(state, n, nbar, r, alpha_re, alpha_im, theta)
    if bins < 4:
        raise CLIError("--bins must be >= 4", 2)
    _require_finite(sigma_level=sigma_level)
    if sigma_level < 0:
        raise CLIError(f"--sigma-level must be >= 0, got {sigma_level!r}", 2)
    samples = homodyne.read_samples_csv(in_path, model=model)
    report = homodyne.binned_variance(samples, bins)
    with _writing(out):
        homodyne.write_variance_csv(report, out)
    violations = homodyne.heisenberg_violations(report, sigma_level)
    certified = homodyne.squeezing_certificate(report, sigma_level)
    print(f"heisenberg violations: {int(violations.sum())}")
    idx = np.flatnonzero(certified)
    if idx.size:
        centers = ", ".join(f"{report.bin_centers[i]:.4f}" for i in idx)
        print(f"squeezing certified in {idx.size} bins at phi = {centers}")
    else:
        print("squeezing certified in 0 bins")


def cmd_network(config, out):
    """Run a JSON network description and write the final state + analyses."""
    with open(config, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax, bytes or int; deep nesting
            raise CLIError(f"config is not valid JSON: {exc}", 2) from None
    spec = parse_network_spec(doc)
    result = run_network(spec)
    payload = {
        "modes": spec.num_modes,
        "hbar": spec.hbar,
        "mean": clean_tiny(result.state.mean),
        "cov": clean_tiny(result.state.cov),
        "analyses": result.analyses,
    }
    with _writing(out), open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_text(payload))
        fh.write("\n")
    print(f"wrote network result to {out}")


def cmd_fock_bs(n1, n2, theta, phi, out):
    """Fock-basis beam-splitter output amplitudes and marginals."""
    if n1 < 0 or n2 < 0:
        raise CLIError("photon numbers must be non-negative", 2)
    if n1 + n2 > MAX_TOTAL_PHOTONS:
        raise CLIError(f"n1 + n2 must not exceed {MAX_TOTAL_PHOTONS}", 2)
    _require_finite(theta=theta, phi=phi)
    result = bs_output_from_angle(n1, n2, theta, phi)
    with _writing(out), open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_fock_bs_json(result))
    print(f"wrote {len(result.amplitudes)} amplitudes to {out}")


def cmd_wigner(state, alpha_mag, alpha_phase, r, theta, nbar, hbar,
               xmin, xmax, pmin, pmax, nx, npts, out):
    """Evaluate a single-mode Gaussian Wigner function on a grid, write x,p,w CSV."""
    _require_finite(alpha_mag=alpha_mag, alpha_phase=alpha_phase, r=r, theta=theta, nbar=nbar,
                    hbar=hbar, xmin=xmin, xmax=xmax, pmin=pmin, pmax=pmax)
    if hbar <= 0:
        raise CLIError(f"--hbar must be > 0, got {hbar!r}", 2)
    try:
        grid = PhaseSpaceGrid(x_min=xmin, x_max=xmax, p_min=pmin, p_max=pmax, nx=nx, np=npts)
    except ValueError as exc:
        raise CLIError(str(exc), 2) from None
    if r < 0 or nbar < 0 or alpha_mag < 0:
        raise CLIError("state parameters must be non-negative", 2)
    gate = {
        "vacuum": None,
        "coherent": ("displace", {"alpha_mag": alpha_mag, "alpha_phase": alpha_phase}),
        "squeezed": ("squeeze", {"r": r, "theta": theta}),
        "thermal": ("prepare_thermal", {"n_bar": nbar}),
    }[state]
    gates = () if gate is None else (GateDescriptor(gate[0], (0,), gate[1]),)
    try:
        fld = wigner_gaussian(run_network(NetworkSpec(1, hbar, gates)).state, grid)
    except CVSimError as exc:
        # the message of a failed gate, without the spec's "/gates/0" pointer
        raise CLIError(str(exc.__cause__ or exc), 1) from None
    with _writing(out):
        write_wigner_csv(fld, out)
    print(f"riemann normalization: {fld.riemann_sum():.6f}")
    print(f"wrote {grid.nx * grid.np} grid points to {out}")


def _file(path: str) -> str:
    """--out: a path that is not a directory."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file '{path}' is a directory")
    return path


def _existing_file(path: str) -> str:
    """--in and --config: a readable path that is not a directory."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file '{path}' does not exist")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file '{path}' is not readable")
    return _file(path)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Raise CLIError with the usage, in place of printing and exiting 2."""
        exc = CLIError(message, 2)
        exc.usage = self.format_usage()
        raise exc


#: the help of an option whose default is shown
_DEFAULT = "[default: %(default)s]"


@cache
def _parser() -> _Parser:
    """The cvsim parser, built on the first command of a process (~4 ms)."""
    parser = _Parser(prog="cvsim", description="Gaussian-optics simulation toolkit.",
                     add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(name: str, run) -> _Parser:
        sub = commands.add_parser(name, help=run.__doc__.split("\n")[0], description=run.__doc__,
                                  add_help=False, allow_abbrev=False)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=run)
        return sub

    sample, analyze, network, fock_bs, wigner = (
        command("sample", cmd_sample), command("analyze", cmd_analyze),
        command("network", cmd_network), command("fock-bs", cmd_fock_bs),
        command("wigner", cmd_wigner))
    for sub, required in ((sample, True), (analyze, False)):
        sub.add_argument("--state", choices=tuple(_MODELS), required=required, help="source family")
        sub.add_argument("--n", type=int, help="Fock photon number (0..10)")
        sub.add_argument("--nbar", type=float, help="mean photon number")
        sub.add_argument("--r", type=float, help="squeezing parameter")
        sub.add_argument("--alpha-re", type=float, help="cat Re(alpha)")
        sub.add_argument("--alpha-im", type=float, help="cat Im(alpha)")
        sub.add_argument("--theta", type=float, help="cat superposition phase")
    sample.add_argument("--count", type=int, required=True, help="number of records")
    sample.add_argument("--seed", type=int, default=42, help=_DEFAULT)
    sample.add_argument("--tol", type=float, default=homodyne.DEFAULT_TOL, help=_DEFAULT)

    analyze.add_argument("--in", type=_existing_file, dest="in_path", metavar="IN", required=True)
    analyze.add_argument("--bins", type=int, default=50, help=_DEFAULT)
    analyze.add_argument("--sigma-level", type=float, default=3.0, help=_DEFAULT)

    network.add_argument("--config", type=_existing_file, required=True)

    fock_bs.add_argument("--n1", type=int, required=True)
    fock_bs.add_argument("--n2", type=int, required=True)
    fock_bs.add_argument("--theta", type=float, default=np.pi / 4, help=_DEFAULT)
    fock_bs.add_argument("--phi", type=float, default=np.pi, help=_DEFAULT)

    wigner.add_argument("--state", choices=("vacuum", "coherent", "squeezed", "thermal"),
                        required=True)
    for flag, default in (("--alpha-mag", 0.0), ("--alpha-phase", 0.0), ("--r", 0.0),
                          ("--theta", 0.0), ("--nbar", 0.0), ("--hbar", 2.0), ("--xmin", -5.0),
                          ("--xmax", 5.0), ("--pmin", -5.0), ("--pmax", 5.0)):
        wigner.add_argument(flag, type=float, default=default, help=_DEFAULT)
    wigner.add_argument("--nx", type=int, default=100, help=_DEFAULT)
    wigner.add_argument("--np", type=int, dest="npts", metavar="NP", default=100, help=_DEFAULT)
    for sub in (sample, analyze, network, fock_bs, wigner):
        sub.add_argument("--out", type=_file, required=True)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with each option joined to a next word that starts with "-", as
    in ``--xmin=-1e-3``: every option but --help takes one value, and
    argparse would read such a word as an option."""
    joined = []
    for word in argv:
        last = joined[-1] if joined else ""
        if word.startswith("-") and last.startswith("--") and "=" not in last and last != "--help":
            joined[-1] = f"{last}={word}"
        else:
            joined.append(word)
    return joined


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line, ``sys.argv[1:]`` by default.  A failure raises
    CLIError: a CVSimError from a command becomes one with exit code 2 for a
    SpecValidationError and 1 for any other.  In standalone mode (the
    ``cvsim`` console script) it prints one ``Error:`` line on stderr, after
    the usage of a command line that did not parse, and exits with the
    error's code."""
    try:
        options = vars(_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv)))
        del options["command"]
        try:
            options.pop("run")(**options)
        except CVSimError as exc:
            raise CLIError(str(exc), 2 if isinstance(exc, SpecValidationError) else 1) from None
    except CLIError as exc:
        if not standalone_mode:
            raise
        print(f"{exc.usage}Error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    main()
