"""Seeded job lists for the four benchmark workloads.

A *round* is one pass over a workload's job list.  Every input of a round
(sampler seeds, network specs, the beam-splitter angle, the Wigner state)
is drawn from ``numpy.random.default_rng(seed)``, so one seed always gives
the same jobs and a different seed gives different outputs.  The job list
itself (kinds, sizes, order) does not depend on the seed, so every seed
does the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("homodyne-nongaussian", "homodyne-gaussian-1e6", "network-chain", "short-commands")

#: the README's 4-mode network and its golden E_N(0|3) from the acceptance tests
README_NETWORK = {
    "modes": 4,
    "hbar": 2.0,
    "gates": [
        {"kind": "squeeze", "modes": [0], "params": {"r": 0.5, "theta": 0.0}},
        {"kind": "squeeze", "modes": [1], "params": {"r": 0.5, "theta": math.pi}},
        {"kind": "beamsplitter", "modes": [0, 1], "params": {"theta": math.pi / 4, "phi": 0.0}},
        {"kind": "beamsplitter", "modes": [0, 2], "params": {"theta": math.pi / 4, "phi": 0.0}},
        {"kind": "beamsplitter", "modes": [1, 3], "params": {"theta": math.pi / 4, "phi": 0.0}},
    ],
    "analyses": [
        {"type": "simon", "modes": [0, 3]},
        {"type": "log_negativity", "part_a": [0], "part_b": [3]},
        {"type": "reduced", "modes": [0]},
        {"type": "wigner", "mode": 0, "grid": {"nx": 101, "np": 101}},
    ],
}
README_LOG_NEGATIVITY = 0.5480589169169516

#: network-chain round: (modes, specs per round, runs of each spec per
#: round); more small specs than large, enough that the median falls well
#: inside the N=16 specs and the tail (10 jobs beyond) well inside the N=64
#: ones.  Each N=16 spec runs three times per round, so that its median
#: comes from six runs in a two-round run; one spec each at N=128 and N=192
#: keeps a round near 12 s.
CHAIN_SIZES = ((16, 32, 3), (64, 16, 1), (128, 1, 1), (192, 1, 1))
FOCK_MAX_TOTAL = 40
WIGNER_POINTS = 500
WIGNER_HALF_WIDTH = 10.0


@dataclass(frozen=True)
class Job:
    """One CLI command plus what its output check needs to know."""

    kind: str  # sample | analyze | network | fock-bs | wigner
    label: str
    args: tuple[str, ...]
    out: str
    info: dict = field(default_factory=dict)


def _f(x: float) -> str:
    return repr(float(x))


# (label, CLI model flags, check-side model description, analyze bin counts)
_NONGAUSSIAN = (
    ("fock10", ("--state", "fock", "--n", "10"), {"family": "fock", "n": 10}, (50,)),
    ("spats3", ("--state", "spats", "--nbar", "3"), {"family": "spats", "nbar": 3.0}, (50,)),
    ("cat2-theta0", ("--state", "cat", "--alpha-re", "2", "--alpha-im", "0", "--theta", "0"),
     {"family": "cat", "alpha": 2.0, "theta": 0.0}, (50,)),
    ("cat0.7-theta-pi/2",
     ("--state", "cat", "--alpha-re", "0.7", "--alpha-im", "0", "--theta", _f(math.pi / 2)),
     {"family": "cat", "alpha": 0.7, "theta": math.pi / 2}, (50,)),
)
# one source, analyzed at both bin counts, keeps the round near 12 s
_GAUSSIAN = (
    ("squeezed1", ("--state", "squeezed", "--r", "1"), {"family": "squeezed", "r": 1.0}, (1000, 50)),
)


def _homodyne_jobs(rng, workdir, sources, count):
    jobs = []
    for label, flags, model, bin_list in sources:
        csv_path = os.path.join(workdir, f"{label.replace('/', '_')}.csv")
        seed = int(rng.integers(0, 2**31 - 1))
        jobs.append(Job(
            "sample", f"sample {label} n={count}",
            ("sample", *flags, "--count", str(count), "--seed", str(seed), "--out", csv_path),
            csv_path, {"count": count},
        ))
        for bins in bin_list:
            var_path = csv_path[:-4] + f"_var{bins}.csv"
            jobs.append(Job(
                "analyze", f"analyze {label} bins={bins}",
                ("analyze", "--in", csv_path, "--bins", str(bins), *flags, "--out", var_path),
                var_path, {"model": model, "bins": bins, "count": count},
            ))
    return jobs


def chain_spec(rng, n: int) -> dict:
    """Squeezer on every mode, one thermal mode, a two-layer nearest-neighbour
    beam-splitter brickwork, n/8 rotations and n/8 displacements, and the
    four analyses (half/half E_N, one Simon pair, one reduced mode, one
    101x101 Wigner grid)."""
    thermal_mode = int(rng.integers(n))
    gates = [{"kind": "prepare_thermal", "modes": [thermal_mode],
              "params": {"n_bar": float(rng.uniform(0.1, 1.0))}}]
    gates += [{"kind": "squeeze", "modes": [m],
               "params": {"r": float(rng.uniform(0.1, 0.6)),
                          "theta": float(rng.uniform(0, 2 * math.pi))}}
              for m in range(n)]

    def layer(start):
        return [{"kind": "beamsplitter", "modes": [m, m + 1],
                 "params": {"theta": float(rng.uniform(0, math.pi / 2)),
                            "phi": float(rng.uniform(0, 2 * math.pi))}}
                for m in range(start, n - 1, 2)]

    gates += layer(0)
    gates += [{"kind": "rotate", "modes": [int(m)], "params": {"phi": float(rng.uniform(0, 2 * math.pi))}}
              for m in rng.choice(n, n // 8, replace=False)]
    gates += layer(1)
    gates += [{"kind": "displace", "modes": [int(m)],
               "params": {"alpha_mag": float(rng.uniform(0, 1)),
                          "alpha_phase": float(rng.uniform(0, 2 * math.pi))}}
              for m in rng.choice(n, n // 8, replace=False)]
    pair = int(rng.integers(n - 1))
    analyses = [
        {"type": "log_negativity", "part_a": list(range(n // 2)), "part_b": list(range(n // 2, n))},
        {"type": "simon", "modes": [pair, pair + 1]},
        {"type": "reduced", "modes": [int(rng.integers(n))]},
        {"type": "wigner", "mode": int(rng.integers(n)), "grid": {"nx": 101, "np": 101}},
    ]
    return {"modes": n, "hbar": 2.0, "gates": gates, "analyses": analyses}


def _network_job(workdir, label, spec, extra=None):
    cfg = os.path.join(workdir, f"{label}.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    thermal = [g["params"]["n_bar"] for g in spec["gates"] if g["kind"] == "prepare_thermal"]
    info = {"purity": float(np.prod([1.0 / (2.0 * nb + 1.0) for nb in thermal])),
            "hbar": spec["hbar"], **(extra or {})}
    out = os.path.join(workdir, f"{label}.out.json")
    return Job("network", f"network {label}", ("network", "--config", cfg, "--out", out), out, info)


def _fock_jobs(workdir, tag, angle_args):
    jobs = []
    for total in range(FOCK_MAX_TOTAL + 1):
        for n1 in range(total + 1):
            n2 = total - n1
            out = os.path.join(workdir, f"fock_{tag}_{n1}_{n2}.json")
            jobs.append(Job("fock-bs", f"fock-bs {tag} n1={n1} n2={n2}",
                            ("fock-bs", "--n1", str(n1), "--n2", str(n2), *angle_args, "--out", out),
                            out, {"total": total}))
    return jobs


def _spread(jobs: list[Job]) -> list[Job]:
    """A fixed order, the same for every seed, that spreads each kind of job
    over the round.  Back-to-back runs of one small job share the same few
    hundred milliseconds of machine speed; spread out, they sample the
    whole round, which steadies the per-job statistics."""
    return [jobs[i] for i in np.random.default_rng(0).permutation(len(jobs))]


def build_round(workload: str, seed: int, workdir: str) -> list[Job]:
    """Generate the inputs of one round in ``workdir`` and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "homodyne-nongaussian":
        return _homodyne_jobs(rng, workdir, _NONGAUSSIAN, 100_000)
    if workload == "homodyne-gaussian-1e6":
        return _homodyne_jobs(rng, workdir, _GAUSSIAN, 1_000_000)
    if workload == "network-chain":
        specs = [(_network_job(workdir, f"chain{n}_{i}", chain_spec(rng, n)), runs)
                 for n, copies, runs in CHAIN_SIZES for i in range(copies)]
        return _spread([job for job, runs in specs for _ in range(runs)])
    # short-commands; the seeded angle stays near balanced so that few
    # amplitudes fall below the output's pruning threshold and every seed
    # writes about the same amount of JSON
    theta = float(rng.uniform(math.pi / 4 - 0.15, math.pi / 4 + 0.15))
    phi = float(rng.uniform(-math.pi, math.pi))
    jobs = _fock_jobs(workdir, "default", ())
    jobs += _fock_jobs(workdir, "seeded", ("--theta", _f(theta), "--phi", _f(phi)))
    r, sq_theta = float(rng.uniform(0.2, 0.5)), float(rng.uniform(0, 2 * math.pi))
    w_out = os.path.join(workdir, "wigner.csv")
    h = WIGNER_HALF_WIDTH
    jobs.append(Job("wigner", f"wigner squeezed r={r:.4f} {WIGNER_POINTS}x{WIGNER_POINTS}",
                    ("wigner", "--state", "squeezed", "--r", _f(r), "--theta", _f(sq_theta),
                     "--xmin", _f(-h), "--xmax", _f(h), "--pmin", _f(-h), "--pmax", _f(h),
                     "--nx", str(WIGNER_POINTS), "--np", str(WIGNER_POINTS), "--out", w_out),
                    w_out, {"points": WIGNER_POINTS, "half_width": h}))
    jobs.append(_network_job(workdir, "readme4", README_NETWORK,
                             {"log_negativity": README_LOG_NEGATIVITY}))
    return _spread(jobs)
