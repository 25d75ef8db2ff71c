"""Output checks, one per job kind.

Each check reads the file a job wrote (and, for ``wigner``, what it
printed) and returns ``(ok, reason)``.  The checks use two library
functions, ``quadrature_pdf`` (for numeric moments) and
``check_physicality``; everything else is recomputed here.
The functions are bound at import time, before the tracer wraps the
library, so checks never show up in the trace.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

from cvsim.homodyne import CatState, Fock, Spats, SqueezedVacuum, Thermal, quadrature_pdf
from cvsim.states import GaussianState, check_physicality

#: var_est may miss the bin's numeric variance by this many standard errors
VAR_SIGMA = 6.0
#: relative tolerance of var_theory against the numeric variance at the bin centre
THEORY_RTOL = 1e-6
#: numeric moments: x grid on [-30, 30] (9 sigma of the widest source) and
#: Gauss-Legendre nodes per phase bin
X_GRID = np.linspace(-30.0, 30.0, 3001)
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
PDF_MASS_TOL = 1e-8
FOCK_NORM_TOL = 1e-11
NETWORK_SYMMETRY_TOL = 1e-12
PURITY_LOG_TOL = 1e-8
LOG_NEGATIVITY_TOL = 1e-9
WIGNER_NORM_TOL = 1e-6


def digest_and_lines(path: str) -> tuple[str, int]:
    """SHA-256 of a file and its number of newline characters."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def _model(desc: dict):
    family = desc["family"]
    if family == "fock":
        return Fock(desc["n"])
    if family == "spats":
        return Spats(desc["nbar"])
    if family == "cat":
        return CatState(complex(desc["alpha"], 0.0), desc["theta"])
    if family == "squeezed":
        return SqueezedVacuum(desc["r"])
    if family == "thermal":
        return Thermal(desc["nbar"])
    raise ValueError(f"unknown model family {family!r}")


def _raw_moments(model, phis: np.ndarray) -> np.ndarray:
    """Rows (m0, m1, m2, m3, m4) of quadrature_pdf at each phase, by the
    Riemann sum on X_GRID (spectrally accurate for these smooth densities)."""
    dx = X_GRID[1] - X_GRID[0]
    powers = X_GRID[None, :] ** np.arange(5)[:, None]
    out = np.empty((phis.size, 5))
    for start in range(0, phis.size, 256):
        chunk = phis[start:start + 256]
        pdf = np.broadcast_to(quadrature_pdf(model, X_GRID[None, :], chunk[:, None]),
                              (chunk.size, X_GRID.size))
        out[start:start + chunk.size] = pdf @ powers.T * dx
    return out


def check_sample(job, lines: int) -> tuple[bool, str]:
    with open(job.out, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if header != "phase,x":
        return False, f"header {header!r}"
    if lines != job.info["count"] + 1:
        return False, f"{lines - 1} records, expected {job.info['count']}"
    return True, ""


def check_analyze(job) -> tuple[bool, str]:
    with open(job.out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bins, count = job.info["bins"], job.info["count"]
    if len(rows) != bins:
        return False, f"{len(rows)} bins, expected {bins}"
    counts = np.array([int(r["count"]) for r in rows])
    if counts.sum() != count:
        return False, f"bin counts sum to {counts.sum()}, expected {count}"
    model = _model(job.info["model"])
    centers = np.array([float(r["phi"]) for r in rows])
    var_est = np.array([float(r["var_est"]) for r in rows])
    var_theory = np.array([float(r["var_theory"]) for r in rows])

    at_center = _raw_moments(model, centers)
    mass_error = np.abs(at_center[:, 0] - 1.0).max()
    if mass_error > PDF_MASS_TOL:
        return False, f"quadrature_pdf mass off by {mass_error:.3e}"
    v_center = at_center[:, 2] - at_center[:, 1] ** 2
    theory_error = np.abs(var_theory - v_center) / np.maximum(1.0, v_center)
    i = int(np.argmax(theory_error))
    if not theory_error[i] <= THEORY_RTOL:
        return False, (f"var_theory {var_theory[i]:.6g} vs numeric {v_center[i]:.6g} "
                       f"at phi={centers[i]:.4f} ({int((theory_error > THEORY_RTOL).sum())} bins)")

    # records are uniform in phase within a bin: average the moments over it
    edges = np.linspace(-np.pi, np.pi, bins + 1)
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * GL_NODES[None, :]
    raw = _raw_moments(model, nodes.ravel()).reshape(bins, GL_NODES.size, 5)
    m1, m2, m3, m4 = (raw[:, :, k] @ GL_WEIGHTS / 2.0 for k in range(1, 5))
    var = m2 - m1**2
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    se = np.sqrt(np.maximum(mu4 - var**2, 0.0) / np.maximum(counts - 1, 1))
    z = np.abs(var_est - var) / se
    i = int(np.argmax(z))
    if not z[i] <= VAR_SIGMA:
        return False, (f"var_est {var_est[i]:.6g} vs numeric {var[i]:.6g} at "
                       f"phi={centers[i]:.4f} ({z[i]:.1f} standard errors)")
    return True, ""


def check_network(job) -> tuple[bool, str]:
    with open(job.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    cov = np.array(doc["cov"])
    asym = np.abs(cov - cov.T).max()
    if asym > NETWORK_SYMMETRY_TOL:
        return False, f"covariance asymmetry {asym:.3e}"
    hbar = job.info["hbar"]
    report = check_physicality(GaussianState(mean=np.array(doc["mean"]), cov=cov, hbar=hbar))
    if not report.physical:
        return False, f"unphysical covariance (margin {report.margin:.3e})"
    sign, logdet = np.linalg.slogdet(cov)
    log_purity = cov.shape[0] / 2 * math.log(hbar / 2.0) - logdet / 2.0
    expected = math.log(job.info["purity"])
    if sign <= 0 or abs(log_purity - expected) > PURITY_LOG_TOL:
        return False, f"purity {math.exp(log_purity):.12g}, expected {job.info['purity']:.12g}"
    if "log_negativity" in job.info:
        values = [a["value"] for a in doc["analyses"] if a["type"] == "log_negativity"]
        if len(values) != 1 or abs(values[0] - job.info["log_negativity"]) > LOG_NEGATIVITY_TOL:
            return False, f"log-negativity {values} vs golden {job.info['log_negativity']!r}"
    return True, ""


def check_fock(job) -> tuple[bool, str]:
    with open(job.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    total = job.info["total"]
    if doc["total_photons"] != total or any(sum(a["basis"]) != total for a in doc["amplitudes"]):
        return False, "amplitude outside the input photon-number sector"
    norm = sum(a["re"] ** 2 + a["im"] ** 2 for a in doc["amplitudes"])
    if abs(norm - 1.0) > FOCK_NORM_TOL:
        return False, f"sum |c|^2 = {norm!r}"
    for arm in ("marginal_mode0", "marginal_mode1"):
        marginal = doc[arm]
        if len(marginal) != total + 1 or abs(math.fsum(marginal) - 1.0) > FOCK_NORM_TOL:
            return False, f"{arm} sums to {math.fsum(marginal)!r} over {len(marginal)} entries"
    return True, ""


def check_wigner(job, lines: int, printed: str) -> tuple[bool, str]:
    points, h = job.info["points"], job.info["half_width"]
    if lines != points * points + 1:
        return False, f"{lines - 1} rows, expected {points * points}"
    values = np.loadtxt(job.out, delimiter=",", skiprows=1, usecols=2)
    cell = (2.0 * h / (points - 1)) ** 2
    total = float(values.sum() * cell)
    if abs(total - 1.0) > WIGNER_NORM_TOL:
        return False, f"Riemann normalization of the CSV is {total!r}"
    reported = [line for line in printed.splitlines() if line.startswith("riemann normalization:")]
    if len(reported) != 1 or abs(float(reported[0].split(":")[1]) - total) > WIGNER_NORM_TOL:
        return False, f"printed normalization {reported} disagrees with the CSV ({total!r})"
    return True, ""


def check(job, printed: str, verdicts: dict | None = None) -> tuple[bool, str, str]:
    """Check a job that exited 0; returns (ok, reason, sha256 of its output).

    A check is a function of the job, its output file and what it printed,
    so ``verdicts`` keeps each verdict by those: a later run of the same
    job with byte-identical output gets the same verdict without checking
    it again."""
    digest, lines = digest_and_lines(job.out)
    key = (job.label, digest, printed)
    if verdicts is not None and key in verdicts:
        return (*verdicts[key], digest)
    if job.kind == "sample":
        ok, reason = check_sample(job, lines)
    elif job.kind == "analyze":
        ok, reason = check_analyze(job)
    elif job.kind == "network":
        ok, reason = check_network(job)
    elif job.kind == "fock-bs":
        ok, reason = check_fock(job)
    else:
        ok, reason = check_wigner(job, lines, printed)
    if verdicts is not None:
        verdicts[key] = (ok, reason)
    return ok, reason, digest
