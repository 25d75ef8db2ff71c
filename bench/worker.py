"""One benchmark process: set up, run whole rounds of CLI jobs in-process,
check every output and write the raw record as JSON.

Started by run.py in a fresh interpreter, so the import of ``cvsim.cli``
is part of the measured set-up.  With ``--setup-only`` it stops when the
first job could start and prints its set-up timestamps instead.
"""

import os

# pin BLAS/OpenMP threads before numpy can load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    import platform

    import click
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": click.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": "unknown",
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


#: a speed probe runs between jobs when this long has passed since the last
PROBE_EVERY_S = 0.2


def _make_probe():
    """A fixed piece of work that times the machine's current speed: a
    pure-Python loop, vectorised special functions on a 0.16 MB array and
    small dense products, the three kinds of work the CLI jobs do.  Returns
    a function that runs it twice and gives the faster time, in seconds."""
    import numpy as np
    from scipy.special import erf

    x = np.linspace(-4.0, 4.0, 20_000)
    m = np.random.default_rng(0).standard_normal((48, 48))

    def once() -> float:
        t = time.perf_counter()
        s = 0
        for i in range(4000):
            s += i * i
        erf(x)
        np.exp(-x * x)
        for _ in range(8):
            m @ m
        return time.perf_counter() - t

    def probe() -> float:
        return min(once(), once())

    return probe


def _run_job(main, click, job) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns (exit code, error, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            main(list(job.args))
        return 0, "", out.getvalue()
    except click.ClickException as exc:
        return exc.exit_code, exc.format_message(), out.getvalue()
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return 1, f"uncaught {tb}", out.getvalue()


def main() -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--untraced-rounds", type=int, default=1)
    parser.add_argument("--traced-rounds", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", help="where to write the JSON record")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import cvsim.cli

    import_s = time.perf_counter() - t0
    import click

    import checks
    from tracer import ROOT, Tracer, counts
    from workloads import build_round

    jobs = build_round(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    setup = {"start": t_start, "ready": ready, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = Tracer()
    root = tracer.wrap(ROOT, lambda argv: cvsim.cli.main(argv, standalone_mode=False))
    records = []
    digests = {}
    verdicts = {}
    round_stats = []
    consistent = True
    probe = _make_probe()
    probes = []  # (time, seconds)

    def take_probe() -> None:
        probes.append((time.perf_counter(), probe()))

    def run_round(index: int, traced: bool) -> None:
        nonlocal consistent
        tracer.active = False
        tracer.reset_stats()
        take_probe()
        for j, job in enumerate(jobs):
            if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                take_probe()
            tracer.job = len(records)
            tracer.active = traced
            cpu0 = _cpu_seconds()
            t_job = time.perf_counter()
            rc, error, printed = _run_job(root, click, job)
            wall = time.perf_counter() - t_job
            cpu = _cpu_seconds() - cpu0
            tracer.active = False
            digest = None
            if rc == 0:
                try:
                    ok, reason, digest = checks.check(job, printed, verdicts)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    ok, reason = False, f"output check could not read the output: {exc!r}"
                if digests.setdefault(j, digest) != digest:
                    consistent = False
                    reason = (reason + "; " if reason else "") + "output differs from round 1"
            else:
                ok, reason = False, f"exit {rc}: {error}"
            records.append({"round": index, "traced": traced, "job": j, "t": t_job, "kind": job.kind,
                            "label": job.label, "wall_s": wall, "cpu_s": cpu, "rc": rc,
                            "ok": ok, "reason": reason, "sha256": digest})
        take_probe()
        if traced:
            round_stats.append(tracer.snapshot())

    for index in range(args.untraced_rounds):
        run_round(index, traced=False)
    if args.traced_rounds:
        tracer.install()
    for index in range(args.untraced_rounds, args.untraced_rounds + args.traced_rounds):
        run_round(index, traced=True)

    # every count must repeat exactly from round to round
    if any(counts(s) != counts(round_stats[0]) for s in round_stats[1:]):
        consistent = False

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": setup,
        "environment": _environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "consistent": consistent,
        "jobs": records,
        "rounds": round_stats,
        "probes": probes,
        "spans": tracer.spans,
    }
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
