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
from ._csvio import _write_bytes
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
    """Turn an OSError raised while writing ``path`` into a one-line exit 1;
    a BrokenPipeError passes through to ``main``."""
    try:
        yield
    except BrokenPipeError:  # a reader that has gone: main ends it as for stdout
        raise
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc.strerror}", 1) from None


def _json_ready(value):
    """`value` as orjson is to write it: a float64 array as it is, made
    C-contiguous, and any other array as its tolist(), so that a float32
    cell is written as the double it reads as.  A value that a JSON result
    file cannot hold as it reads back raises CVSimError: a float that is not
    finite, an int beyond 64 bits, a key that is not a str, or a type that
    is not JSON's."""
    if isinstance(value, float):
        if isfinite(value):
            return value
    elif isinstance(value, (str, bool)) or value is None:
        return value
    elif isinstance(value, int):
        if -2**63 <= value < 2**64:
            return value
    elif isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            return {key: _json_ready(v) for key, v in value.items()}
    elif isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    elif isinstance(value, np.ndarray):
        if value.dtype != np.float64 or not value.ndim:
            return _json_ready(value.tolist())
        finite = np.isfinite(value)
        if finite.all():
            return np.ascontiguousarray(value)
        value = value[~finite][0]
    raise CVSimError(f"cannot write {value!r} in a JSON result file")


def _dumps(payload) -> bytes:
    """``json.dumps(payload, indent=2)``'s layout plus one LF, from one
    orjson.dumps: each float in the shortest digits that read back as it
    (Ryu; Adams, PLDI 2018).  `payload` holds only what _json_ready passes."""
    import orjson

    try:
        return orjson.dumps(payload, option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY
                            | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError as exc:  # a str that is not UTF-8, or nesting too deep
        raise CVSimError(f"cannot write the payload in a JSON result file: {exc}") from None


def _json_bytes(payload) -> bytes:
    """The JSON result file of `payload`, checked by _json_ready and written
    by _dumps."""
    return _dumps(_json_ready(payload))


def _fock_bs_json(state) -> bytes:
    """The fock-bs file of a ``bs_output`` state (ascending k): its {basis,
    re, im} records, then the marginals |c_k|^2 of mode 0 and, reversed, of
    mode 1.  Every value is finite, as the state's norm check holds, so the
    payload goes to _dumps unchecked."""
    probs = [0.0] * (state.total_photons + 1)
    records = []
    for ((k, m), amp), p in zip(state.amplitudes.items(), state.probabilities):
        probs[k] = p
        records.append({"basis": [k, m], "re": amp.real, "im": amp.imag})
    return _dumps({"total_photons": state.total_photons, "amplitudes": records,
                   "marginal_mode0": probs, "marginal_mode1": probs[::-1]})


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


def _refuse_unread(options: dict, state) -> None:
    """Refuse the first of `options` that is given, since --state `state`
    (None: no --state) does not read it."""
    for name, value in options.items():
        if value is not None:
            reader = f"by --state {state}" if state else "without --state"
            raise CLIError(f"--{name.replace('_', '-')} is not read {reader}", 2)


def _build_model(state, **model) -> homodyne.SourceModel | None:
    """The source model of --state and its options; None without --state."""
    build, names = _MODELS.get(state, (None, ()))
    values = [model.pop(name) for name in names]
    _refuse_unread(model, state)
    if state is None:
        return None
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


def cmd_sample(count, seed, tol, out, **model):
    """Generate homodyne records by inverse-CDF sampling and write phase,x CSV."""
    samples = homodyne.sample(_build_model(**model), count, seed=seed, tol=tol)
    with _writing(out):
        homodyne.write_samples_csv(samples, out)
    print(f"wrote {len(samples)} records to {out}")
    # one record has no sample variance; np.var would warn on stderr
    variance = np.var(samples.values, ddof=1) if len(samples) > 1 else np.nan
    print(f"mean {np.mean(samples.values):.6g}  variance {variance:.6g}")


def cmd_analyze(in_path, bins, sigma_level, out, **model):
    """Bin a phase,x CSV, test the Heisenberg product and certify squeezing.

    Model flags are optional; without them the theory column is NaN."""
    source = _build_model(**model)
    samples = homodyne.read_samples_csv(in_path, model=source)
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
    mean, cov = clean_tiny(result.state)
    payload = {"modes": spec.num_modes, "hbar": spec.hbar, "mean": mean, "cov": cov,
               "analyses": result.analyses}
    text = _json_bytes(payload)
    with _writing(out):
        _write_bytes(out, text)
    print(f"wrote network result to {out}")


def cmd_fock_bs(n1, n2, theta, phi, out):
    """Fock-basis beam-splitter output amplitudes and marginals."""
    if n1 + n2 > MAX_TOTAL_PHOTONS:
        raise CLIError(f"n1 + n2 must not exceed {MAX_TOTAL_PHOTONS}", 2)
    result = bs_output_from_angle(n1, n2, theta, phi)
    text = _fock_bs_json(result)
    with _writing(out):
        _write_bytes(out, text)
    print(f"wrote {len(result.amplitudes)} amplitudes to {out}")


#: wigner --state -> (gate kind, {gate parameter: the option it reads})
_WIGNER_GATES = {
    "vacuum": (None, {}),
    "coherent": ("displace", {"alpha_mag": "alpha_mag", "alpha_phase": "alpha_phase"}),
    "squeezed": ("squeeze", {"r": "r", "theta": "theta"}),
    "thermal": ("prepare_thermal", {"n_bar": "nbar"}),
}


def cmd_wigner(state, hbar, xmin, xmax, pmin, pmax, nx, npts, out, **options):
    """Evaluate a single-mode Gaussian Wigner function on a grid, write x,p,w CSV."""
    kind, reads = _WIGNER_GATES[state]
    params = {name: options.pop(option) for name, option in reads.items()}
    params = {name: 0.0 if value is None else value for name, value in params.items()}
    _refuse_unread(options, state)
    try:
        grid = PhaseSpaceGrid(x_min=xmin, x_max=xmax, p_min=pmin, p_max=pmax, nx=nx, np=npts)
    except ValueError as exc:
        raise CLIError(str(exc), 2) from None
    gates = () if kind is None else (GateDescriptor(kind, (0,), params),)
    try:
        fld = wigner_gaussian(run_network(NetworkSpec(1, hbar, gates)).state, grid)
    except CVSimError as exc:
        # the message of a failed gate, without the spec's "/gates/0" pointer
        raise CLIError(str(exc.__cause__ or exc), 1) from None
    normalization = fld.riemann_sum()
    with _writing(out):
        write_wigner_csv(fld, out)
    print(f"riemann normalization: {normalization:.6f}")
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
    #: of the cvsim parser: each command's name -> its parser
    commands: dict[str, _Parser]

    def __init__(self, *args, **kwargs) -> None:
        #: each option string of a one-value option -> its action
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        """Add an argument as argparse does, and enter an option that stores
        one value in `flags` under each of its option strings."""
        action = super().add_argument(*args, **kwargs)
        if "action" not in kwargs and "nargs" not in kwargs:
            self.flags.update(dict.fromkeys(action.option_strings, action))
        return action

    def _get_values(self, action: argparse.Action, arg_strings: list[str]):
        """The value of `action` as argparse reads it; a lone "--" as a one-value
        option's value, which argparse strips to store [], fails as no value does."""
        if arg_strings == ["--"] and action.nargs is None and action.option_strings:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)

    def error(self, message: str):
        """Raise CLIError with the usage, in place of printing and exiting 2."""
        exc = CLIError(message, 2)
        exc.usage = self.format_usage()
        raise exc


def _option(sub: argparse.ArgumentParser, flag: str, kind=float, least=None, above=None,
            **kwargs) -> None:
    """Add `flag` to `sub`, read as `kind`.  A value that is NaN or infinite,
    below `least` or not above `above` fails as argparse reads it, with one
    ``Error:`` line and exit code 2: argparse passes on the CLIError that the
    type function raises, with no usage."""
    def parse(text: str):
        value = kind(text)
        if kind is float and not isfinite(value):
            rule = "finite"
        elif least is not None and value < least:
            rule = f">= {least}"
        elif above is not None and not value > above:
            rule = f"> {above}"
        else:
            return value
        raise CLIError(f"{flag} must be {rule}, got {value!r}", 2)

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    sub.add_argument(flag, type=parse, **kwargs)


#: the help of an option whose default is shown
_DEFAULT = "[default: %(default)s]"


@cache
def _parser() -> _Parser:
    """The cvsim parser, built on the first command of a process (~4 ms);
    each command parser's flag table is filled as its options are declared."""
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
    _option(sample, "--count", int, least=1, required=True, help="number of records")
    _option(sample, "--seed", int, least=0, default=42, help=_DEFAULT)
    _option(sample, "--tol", above=0, default=homodyne.DEFAULT_TOL, help=_DEFAULT)

    analyze.add_argument("--in", type=_existing_file, dest="in_path", metavar="IN", required=True)
    _option(analyze, "--bins", int, least=4, default=50, help=_DEFAULT)
    _option(analyze, "--sigma-level", least=0, default=3.0, help=_DEFAULT)

    network.add_argument("--config", type=_existing_file, required=True)

    _option(fock_bs, "--n1", int, least=0, required=True)
    _option(fock_bs, "--n2", int, least=0, required=True)
    _option(fock_bs, "--theta", default=np.pi / 4, help=_DEFAULT)
    _option(fock_bs, "--phi", default=np.pi, help=_DEFAULT)

    wigner.add_argument("--state", choices=tuple(_WIGNER_GATES), required=True)
    # None where not given, so that a state refuses an option it does not read
    for flag, least in (("--alpha-mag", 0), ("--alpha-phase", None), ("--r", 0),
                        ("--theta", None), ("--nbar", 0)):
        _option(wigner, flag, least=least, help="[default: 0]")
    _option(wigner, "--hbar", above=0, default=2.0, help=_DEFAULT)
    for flag, default in (("--xmin", -5.0), ("--xmax", 5.0), ("--pmin", -5.0), ("--pmax", 5.0)):
        _option(wigner, flag, default=default, help=_DEFAULT)
    _option(wigner, "--nx", int, least=2, default=100, help=_DEFAULT)
    _option(wigner, "--np", int, least=2, dest="npts", metavar="NP", default=100, help=_DEFAULT)
    for sub in (sample, analyze, network, fock_bs, wigner):
        sub.add_argument("--out", type=_file, required=True)
    parser.commands = commands.choices
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


def _read(sub: _Parser, words: list[str]) -> dict | None:
    """The options of `sub`'s command, `run` among them, read from its flag
    table left to right, as argparse reads them: each word ``--flag=value``,
    or ``--flag`` and the next word, for an option not yet read; the value
    through the option's type and choices.  The words are as _joined leaves
    them, so that a next word does not start with "-".  None for any other
    line: an unknown, abbreviated or repeated flag, --help, -h or --, a
    missing value, one that the type refuses or out of the choices, or a
    required option missing.  A CLIError of a type function propagates.  A
    default is taken as it is: argparse reads a string default through the
    type, and no option has one."""
    read = {}
    at = 0
    while at < len(words):
        flag, eq, value = words[at].partition("=")
        at += 1
        if not eq:
            if at == len(words):
                return None
            value = words[at]
            at += 1
        action = sub.flags.get(flag)
        if action is None or action.dest in read or value == "--":
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        read[action.dest] = value
    actions = sub.flags.values()
    if any(action.required and action.dest not in read for action in actions):
        return None
    return {"run": sub.get_default("run"), **{a.dest: a.default for a in actions}, **read}


def _options(words: list[str]) -> dict:
    """The options of a command line, `run` among them.  A well-formed line
    is read from its command's flag table (_read); every other line goes to
    the cvsim parser, which writes its help, usage and Error: line."""
    parser = _parser()
    sub = parser.commands.get(words[0]) if words else None
    # speed only: a fock-bs line reads in 9.1 us, 98.0 us via argparse; job 90.9 us (2-vCPU VM)
    options = None if sub is None else _read(sub, words[1:])
    if options is None:
        options = vars(parser.parse_args(words))
        del options["command"]
    return options


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line, ``sys.argv[1:]`` by default.  A failure raises
    CLIError: a CVSimError from a command becomes one with exit code 2 for a
    SpecValidationError and 1 for any other.  In standalone mode (the
    ``cvsim`` console script) it prints one ``Error:`` line on stderr, after
    the usage of a command line that did not parse, and exits with the
    error's code; a stdout whose reader has gone before a write, as a
    ``head -1`` may have, ends it with exit code 1 and no message."""
    try:
        options = _options(_joined(sys.argv[1:] if argv is None else argv))
        try:
            options.pop("run")(**options)
        except CVSimError as exc:
            raise CLIError(str(exc), 2 if isinstance(exc, SpecValidationError) else 1) from None
        if standalone_mode:
            sys.stdout.flush()  # so that a closed pipe fails here, not at exit
    except CLIError as exc:
        if not standalone_mode:
            raise
        print(f"{exc.usage}Error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except BrokenPipeError:
        if not standalone_mode:
            raise
        # Python flushes stdout again at exit; point it at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
