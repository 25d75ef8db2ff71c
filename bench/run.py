"""cvsim benchmark: real CLI jobs, end-to-end metrics and a per-layer trace.

    python3 bench/run.py --workload <name> --seed 42 --seconds 20 --trace 0

Run from the repository root.  Each run starts fresh interpreters: several
set-up samples (interpreter start, ``import cvsim.cli`` and input
generation, until the first job could start) and one worker that runs whole
rounds of the workload's jobs through ``cvsim.cli.main(..., standalone_mode=False)``
and checks every output.  The worker also times a fixed speed probe between
jobs, and the job times behind the end-to-end metrics are scaled by it to a
reference machine speed (see ``_speed_factors``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs untraced rounds and then traced
rounds and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full record (the environment, every job run with its SHA-256, the probes,
the spans) is written to ``.bench_results/``.

``--check-determinism`` runs one traced round at --seed twice and at
--seed + 1 once, and compares every job's output digest and every count.

See bench/README.md for the workloads, metrics and the per-layer map.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import counts
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: fresh interpreters timed per run for setup_s (the worker is one of them)
SETUP_SAMPLES = 3
#: a run must end within this many seconds
DEADLINE_S = 170.0
#: job_tail_s is taken at the highest percentile with this many jobs beyond it
TAIL_BEYOND = 10
#: the speed probe's time (worker.py) at the fast level of the 2-vCPU Xeon VM
#: that measured the baseline; job times are scaled to this probe time
PROBE_REF_S = 5e-4
#: seconds of --seconds that one round costs: a run makes
#: max(1, round(seconds / ROUND_COST_S)) rounds.  A constant, so both sides
#: of a comparison run the same rounds whatever their speed.  At --seconds 20
#: that is 2, 2, 2 and 5 rounds, about 20-25 s of job time per run on the
#: 2-vCPU Xeon VM that measured the baseline.
ROUND_COST_S = {"homodyne-nongaussian": 10.5, "homodyne-gaussian-1e6": 12.5,
                "network-chain": 12.0, "short-commands": 4.0}

END_TO_END = (
    ("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
    ("cpu_per_job_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction"),
)
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("homodyne.cdf.calls", "count"), ("homodyne.cdf.self_s", "s"),
    ("homodyne.cdf.passes_per_sample", "count"),
    ("homodyne.sample.calls", "count"), ("homodyne.sample.self_s", "s"),
    ("homodyne.binning.self_s", "s"),
    ("homodyne.csv_write.self_s", "s"), ("homodyne.csv_write.bytes", "B"),
    ("homodyne.csv_read.self_s", "s"), ("homodyne.other.self_s", "s"),
    ("network.parse.self_s", "s"), ("network.run.self_s", "s"),
    ("gates.build.calls", "count"), ("gates.build.self_s", "s"),
    ("gates.apply.calls", "count"), ("gates.apply.self_s", "s"),
    ("gates.apply.flops_computed", "flop"), ("gates.apply.bytes_computed", "B"),
    ("gates.other.self_s", "s"),
    ("states.spectrum.self_s", "s"), ("states.physicality.self_s", "s"),
    ("states.symplectic_form.calls", "count"), ("states.symplectic_form.self_s", "s"),
    ("states.other.self_s", "s"),
    ("entanglement.calls", "count"), ("entanglement.self_s", "s"),
    ("phase_space.wigner.self_s", "s"), ("phase_space.csv_write.self_s", "s"),
    ("phase_space.csv_write.bytes", "B"), ("phase_space.other.self_s", "s"),
    ("fock.bs.calls", "count"), ("fock.bs.self_s", "s"), ("fock.bs.failed", "count"),
    ("fock.other.self_s", "s"),
    ("trace.job_wall_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_frac", "fraction"),
)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _spawn(argv: list[str], env: dict, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    start = time.monotonic()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr}")
    return start, proc


def _worker_argv(args, workdir: Path, extra: list[str]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir), *extra]


def _run_worker(args, workdir: Path, env: dict, deadline: float, extra: list[str]) -> tuple[float, dict]:
    record_path = workdir / "record.json"
    start, _ = _spawn(_worker_argv(args, workdir / "jobs", ["--record", str(record_path), *extra]),
                      env, deadline - time.monotonic())
    with open(record_path, encoding="utf-8") as fh:
        return start, json.load(fh)


def _speed_factors(record: dict) -> list[float]:
    """For each job run, PROBE_REF_S over the machine's speed probe around
    it: the mean of the last probe before the run and the first after it.

    The shared VM's CPU speed swings by up to 1.7x, in phases from a tenth
    of a second to tens of minutes long, and the slow phases slow the jobs
    and the probe alike.  A run's time times its factor is the time it
    would have taken at the probe's reference speed."""
    stamps = [t for t, _ in record["probes"]]
    probes = [p for _, p in record["probes"]]
    factors = []
    for j in record["jobs"]:
        before = max(bisect.bisect_right(stamps, j["t"]) - 1, 0)
        after = min(bisect.bisect_left(stamps, j["t"] + j["wall_s"]), len(probes) - 1)
        factors.append(PROBE_REF_S / ((probes[before] + probes[after]) / 2))
    return factors


def _job_times(jobs: list[dict], factors: list[float], key: str) -> list[float]:
    """Each distinct job's median over its runs of the speed-scaled time.  A
    job that runs more than once per round (the N=16 specs of
    network-chain) is one job."""
    times: dict[str, list[float]] = {}
    for j, factor in zip(jobs, factors):
        times.setdefault(j["label"], []).append(j[key] * factor)
    return [statistics.median(runs) for runs in times.values()]


def _tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND jobs beyond it; the maximum
    when there are too few jobs for that."""
    ordered = sorted(times)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[index], (index + 1) / len(ordered), len(ordered) - 1 - index


def _end_to_end(record: dict, setups: list[float]) -> tuple[dict, list[str]]:
    jobs = record["jobs"]
    rounds = len({j["round"] for j in jobs})
    factors = _speed_factors(record)
    walls = _job_times(jobs, factors, "wall_s")
    tail, p, beyond = _tail(walls)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "cpu_per_job_s": sum(_job_times(jobs, factors, "cpu_s")) / len(walls),
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_frac": sum(j["ok"] for j in jobs) / len(jobs),
    }
    unscaled = len(jobs) / sum(j["wall_s"] for j in jobs)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, not scaled",
        "jobs_per_s": (f"{len(walls)} jobs over {rounds} rounds; unscaled {unscaled:.6g}/s, "
                       f"speed factors {min(factors):.3f}-{max(factors):.3f}"),
        "job_tail_s": f"p{100 * p:.2f} of {len(walls)} jobs, {beyond} beyond it",
        "ok_frac": f"{len(jobs)} job runs attempted, failed_frac {1 - values['ok_frac']:.6f}",
    }
    lines = [f"  {name:<16} {values[name]:>14.6g} {unit:<8} {notes.get(name, '')}"
             for name, unit in END_TO_END]
    return values, lines


def _round_walls(jobs: list[dict], traced: bool, factors: list[float] | None = None) -> dict[int, float]:
    walls: dict[int, float] = {}
    for j, factor in zip(jobs, factors or [1.0] * len(jobs)):
        if j["traced"] == traced:
            walls[j["round"]] = walls.get(j["round"], 0.0) + j["wall_s"] * factor
    return walls


def _per_layer(record: dict, imports: list[float]) -> tuple[dict, list[str]]:
    """The split of the fastest traced round (one round, so the layer self
    times and the unattributed remainder add up to its job time)."""
    traced = _round_walls(record["jobs"], True)
    best = min(traced, key=traced.get)
    stats = record["rounds"][sorted(traced).index(best)]
    groups, counters = stats["groups"], stats["counters"]
    job_wall = traced[best]
    values = {}
    for name, _unit in PER_LAYER:
        group, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "failed"):
            values[name] = groups.get(group, {}).get(stat, 0)
        else:
            values[name] = counters.get(name, 0)
    sample_calls = values["homodyne.sample.calls"]
    values["homodyne.cdf.passes_per_sample"] = (
        values["homodyne.cdf.calls"] / sample_calls if sample_calls else 0)
    values["cli.import_s"] = statistics.median(imports)
    values["trace.job_wall_s"] = job_wall
    values["trace.unattributed_s"] = job_wall - sum(v["self_s"] for v in groups.values())
    # jobs_per_s is inversely proportional to a round's job time; the rounds
    # are compared at the probe's reference speed, as jobs_per_s is
    factors = _speed_factors(record)
    untraced = _round_walls(record["jobs"], False, factors)
    scaled = _round_walls(record["jobs"], True, factors)
    values["trace.overhead_frac"] = min(untraced.values()) / min(scaled.values()) - 1.0

    lines = [f"  per-layer split of the fastest of {len(traced)} traced rounds "
             f"({job_wall:.4f} s of job time):"]
    for g, v in sorted(groups.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"    {g:<28} self {v['self_s']:>10.4f} s  {100 * v['self_s'] / job_wall:6.2f} %"
                     f"  calls {v['calls']}" + (f"  failed {v['failed']}" if v["failed"] else ""))
    lines.append(f"    {'(unattributed)':<28} self {values['trace.unattributed_s']:>10.4f} s  "
                 f"{100 * values['trace.unattributed_s'] / job_wall:6.2f} %")
    lines += [f"  {name:<36} {values[name]:>14.6g} {unit}" for name, unit in PER_LAYER]
    return values, lines


def _failures(jobs: list[dict]) -> list[str]:
    failed = Counter((j["label"], j["reason"]) for j in jobs if not j["ok"])
    return [f"  FAILED x{count}: {label}: {reason}" for (label, reason), count in sorted(failed.items())]


def _check_determinism(args, workdir: Path, env: dict, deadline: float) -> int:
    def one(seed: int, tag: str) -> dict:
        run_args = argparse.Namespace(**{**vars(args), "seed": seed})
        _, record = _run_worker(run_args, workdir / tag, env, deadline,
                                ["--untraced-rounds", "0", "--traced-rounds", "1"])
        return {"digests": [j["sha256"] for j in record["jobs"]],
                "counts": [counts(r) for r in record["rounds"]]}

    first, second, other = one(args.seed, "a"), one(args.seed, "b"), one(args.seed + 1, "c")
    same = first == second
    pairs = list(zip(first["digests"], other["digests"]))
    changed = sum(a != b for a, b in pairs)
    failed_both = sum(a is None and b is None for a, b in pairs)
    print(f"{args.workload}: seed {args.seed} twice: digests and counts "
          f"{'identical' if same else 'DIFFER'}; seed {args.seed + 1}: {changed} of {len(pairs)} "
          f"job outputs changed ({failed_both} jobs failed at both seeds)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "repeatable": same,
                      "changed_with_seed": changed, "failed_at_both": failed_both,
                      "jobs": len(pairs)}))
    return 0 if same and changed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cvsim" / "cli.py").is_file():
        return _fail(f"no cvsim sources under {ROOT / 'src'}; run from a checkout of the repository")

    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        if args.check_determinism:
            return _check_determinism(args, workdir, env, deadline)
        setups, imports = [], []
        for i in range(SETUP_SAMPLES - 1):
            start, proc = _spawn(_worker_argv(args, workdir / f"setup{i}", ["--setup-only"]),
                                 env, deadline - time.monotonic())
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
            setups.append(sample["ready"] - start)
            imports.append(sample["import_s"])
        rounds = max(1, round(args.seconds / ROUND_COST_S[args.workload]))
        # a traced run needs an untraced round to measure the tracing overhead
        plan = [rounds, 0] if not args.trace else [max(rounds // 2, 1), max(rounds - rounds // 2, 1)]
        start, record = _run_worker(args, workdir, env, deadline,
                                    ["--untraced-rounds", str(plan[0]), "--traced-rounds", str(plan[1])])
        setups.append(record["setup"]["ready"] - start)
        imports.append(record["setup"]["import_s"])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    jobs = record["jobs"]
    if args.trace:
        metrics, lines = _per_layer(record, imports)
        units = dict(PER_LAYER)
    else:
        metrics, lines = _end_to_end(record, setups)
        units = dict(END_TO_END)
    rounds = max(j["round"] for j in jobs) + 1
    failed = sum(not j["ok"] for j in jobs)
    print(f"cvsim benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs in {rounds} rounds, {failed} failed")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("\n".join(_failures(jobs) + lines))

    record["metrics"] = metrics
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": bool(record["consistent"]),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
