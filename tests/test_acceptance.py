"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they execute; deterministic criteria finish in about a second,
statistical ones sample 1e5 records per model at seed 42.
"""

import numpy as np

import cvsim
from cvsim import (
    Bipartition,
    CatState,
    Fock,
    GaussianSource,
    GaussianState,
    PhaseSpaceGrid,
    Spats,
    SqueezedVacuum,
    UnsupportedOrderingError,
    apply_gate,
    beamsplitter_gate,
    binned_variance,
    bs_output,
    bs_output_from_angle,
    check_physicality,
    displacement_gate,
    heisenberg_violations,
    log_negativity,
    partial_transpose_cov,
    quadrature_cdf,
    quadrature_pdf,
    reduced_state,
    s_quasiprob_gaussian,
    sample,
    simon_criterion,
    squeeze_gate,
    squeezing_certificate,
    vacuum_state,
    wigner_gaussian,
    write_samples_csv,
)

from quadrature_oracle import pdf_numeric_oracle

BAL = np.pi / 4


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def tmsv(r=0.5):
    st = vacuum_state(2)
    st = apply_gate(squeeze_gate(r, 0.0, 0, 2), st)
    st = apply_gate(squeeze_gate(r, np.pi, 1, 2), st)
    return apply_gate(beamsplitter_gate(BAL, 0.0, (0, 1), 2), st)


def three_bs_network():
    st = vacuum_state(4)
    st = apply_gate(squeeze_gate(0.5, 0.0, 0, 4), st)
    st = apply_gate(squeeze_gate(0.5, np.pi, 1, 4), st)
    for pair in [(0, 1), (0, 2), (1, 3)]:
        st = apply_gate(beamsplitter_gate(BAL, 0.0, pair, 4), st)
    return st


def network_log_negativity(net, part_a, part_b):
    kept = sorted(part_a + part_b)
    red = reduced_state(net, kept)
    pos = {m: i for i, m in enumerate(kept)}
    return log_negativity(red, Bipartition([pos[m] for m in part_a], [pos[m] for m in part_b]))


def test_criterion_1_gaussian_golden_outputs():
    tol = 1e-6
    sq = apply_gate(squeeze_gate(0.5, 0.0, 0, 1), vacuum_state(1))
    ok = np.allclose(sq.cov, np.diag([0.36787944, 2.71828183]), atol=tol)

    ds = apply_gate(displacement_gate(1.6, np.pi / 4, 0, 1), vacuum_state(1))
    ds = apply_gate(squeeze_gate(0.5, np.pi / 2, 0, 1), ds)
    ok &= np.allclose(ds.mean, [1.37242222, 1.37242222], atol=tol)
    ok &= np.allclose(
        ds.cov, [[1.54308063, -1.17520119], [-1.17520119, 1.54308063]], atol=tol
    )

    mixed = apply_gate(squeeze_gate(0.5, 0.0, 0, 2), vacuum_state(2))
    mixed = apply_gate(beamsplitter_gate(BAL, 0.0, (0, 1), 2), mixed)
    expected = np.array(
        [
            [0.68393972, 0.0, -0.31606028, 0.0],
            [0.0, 1.85914091, 0.0, 0.85914091],
            [-0.31606028, 0.0, 0.68393972, 0.0],
            [0.0, 0.85914091, 0.0, 1.85914091],
        ]
    )
    ok &= np.allclose(mixed.cov, expected, atol=tol)

    coh = apply_gate(displacement_gate(1.6, 0.0, 0, 1), vacuum_state(1))
    ok &= np.allclose(coh.mean, [3.2, 0.0], atol=tol)
    ok &= np.allclose(coh.cov, np.eye(2), atol=tol)
    report("criterion 1: gaussian golden outputs", bool(ok))


def test_criterion_2_entanglement_golden_outputs():
    net = three_bs_network()
    ok = simon_criterion(tmsv()).verdict == "entangled"
    ok &= simon_criterion(reduced_state(net, [0, 2])).verdict == "separable"
    ok &= simon_criterion(reduced_state(net, [1, 3])).verdict == "separable"
    en_tmsv = log_negativity(tmsv(), Bipartition([0], [1]))
    en_net = network_log_negativity(net, [0], [3])
    ok &= abs(en_tmsv - 1.4426950408889623) < 1e-9
    ok &= abs(en_net - 0.5480589169169516) < 1e-9
    report(
        "criterion 2: entanglement golden outputs",
        bool(ok),
        f"E_N(tmsv)={en_tmsv:.16f}, E_N(0|3)={en_net:.16f}",
    )


def test_criterion_3_reduced_tmsv_thermality():
    st = tmsv()
    ok = True
    for mode in (0, 1):
        red = reduced_state(st, [mode])
        ok &= np.allclose(red.cov, 1.54308063 * np.eye(2), atol=1e-6)
        ok &= np.allclose(red.mean, [0.0, 0.0], atol=1e-6)
    report("criterion 3: reduced TMSV modes are thermal", bool(ok))


def test_criterion_4_log_negativity_analytic_identity():
    worst = 0.0
    for r in (0.1, 0.5, 1.0):
        en = log_negativity(tmsv(r), Bipartition([0], [1]))
        worst = max(worst, abs(en - 2.0 * r / np.log(2.0)))
    report("criterion 4: E_N = 2r/ln2 for TMSV", worst < 1e-9, f"worst dev {worst:.2e}")


def test_criterion_5_fock_interference():
    bal = 1.0 / np.sqrt(2.0)
    split = bs_output(1, 0, bal, bal, np.pi)
    ok = abs(split.amplitude(0, 1) - bal) < 1e-9
    ok &= abs(split.amplitude(1, 0) - bal) < 1e-9

    hom = bs_output(1, 1, bal, bal, np.pi)
    ok &= abs(hom.amplitude(1, 1)) < 1e-12

    rng = np.random.default_rng(42)
    worst = 0.0
    angles = [(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi)) for _ in range(100)]
    for n1 in range(0, 21):
        for n2 in range(0, 21 - n1):
            theta, phi = angles[(n1 * 21 + n2) % 100]
            st = bs_output_from_angle(n1, n2, theta, phi)
            norm = sum(abs(a) ** 2 for a in st.amplitudes.values())
            worst = max(worst, abs(norm - 1.0))
    ok &= worst < 1e-12
    report("criterion 5: fock interference", bool(ok), f"worst norm dev {worst:.2e}")


def test_criterion_6_homodyne_closed_form_validation():
    from scipy.integrate import quad

    rng = np.random.default_rng(42)
    models = [Fock(3), Spats(3.0), SqueezedVacuum(1.0), CatState(2.0 + 0.0j, 0.0)]
    ok = True
    worst_pdf = 0.0
    for model in models:
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0)
            phi = rng.uniform(-np.pi, np.pi)
            dev = abs(quadrature_pdf(model, x, phi) - pdf_numeric_oracle(model, x, phi))
            worst_pdf = max(worst_pdf, dev)
        for phi in (0.0, np.pi / 3):
            total, _ = quad(lambda t: quadrature_pdf(model, t, phi), -50, 50, limit=400)
            ok &= abs(total - 1.0) < 1e-6
        xs = np.sort(rng.uniform(-10, 10, 10_000))
        cdf = quadrature_cdf(model, xs, np.full_like(xs, rng.uniform(-np.pi, np.pi)))
        ok &= bool((np.diff(cdf) >= -1e-15).all())
    ok &= worst_pdf < 1e-8
    report(
        "criterion 6: homodyne closed forms vs oracle",
        bool(ok),
        f"worst pdf dev {worst_pdf:.2e}",
    )


def test_criterion_7_homodyne_statistics():
    ok = True
    details = []
    for model in (Fock(3), Spats(3.0), SqueezedVacuum(1.0)):
        ss = sample(model, 100_000, seed=42)
        rep = binned_variance(ss, 50)
        se = rep.theoretical_variance * np.sqrt(2.0 / np.maximum(rep.counts - 1, 1))
        dev = np.nanmax(np.abs(rep.estimated_variance - rep.theoretical_variance) / se)
        ok &= dev < 5.0
        ok &= int(heisenberg_violations(rep, 3.0).sum()) == 0
        cert = squeezing_certificate(rep, 3.0)
        if isinstance(model, GaussianSource):
            near_zero = np.abs(rep.bin_centers) <= np.pi / 8
            ok &= bool(cert[near_zero].all())
        if isinstance(model, Spats):
            ok &= int(cert.sum()) == 0
        details.append(f"{type(model).__name__}: max dev {dev:.2f} SE")
    report("criterion 7: homodyne statistics", bool(ok), "; ".join(details))


def test_criterion_8_wigner_properties():
    vac = vacuum_state(1)
    grid6 = PhaseSpaceGrid(-6.0, 6.0, -6.0, 6.0, 200, 200)
    fld = wigner_gaussian(vac, grid6)
    ok = abs(fld.riemann_sum() - 1.0) < 1e-2
    ok &= bool((fld.values > 0.0).all())
    # peak value at the origin (grid containing the origin exactly)
    origin = wigner_gaussian(vac, PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)).values[1, 1]
    ok &= abs(origin - 1.0 / (2.0 * np.pi)) < 1e-9
    husimi = s_quasiprob_gaussian(vac, 0j, -1.0)
    ok &= abs(husimi - 1.0 / np.pi) < 1e-9
    sq = apply_gate(squeeze_gate(0.5, 0.0, 0, 1), vac)
    try:
        s_quasiprob_gaussian(sq, 0j, 1.0)
        raised = False
    except UnsupportedOrderingError:
        raised = True
    ok &= raised
    report(
        "criterion 8: wigner and quasiprobability properties",
        bool(ok),
        f"norm {fld.riemann_sum():.4f}, W(0)={origin:.10f}, Q(0)={husimi:.10f}",
    )


def test_criterion_9_physicality_suite():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(15):
        n = int(rng.integers(1, 5))
        st = vacuum_state(n)
        for _ in range(int(rng.integers(1, 8))):
            kind = rng.integers(0, 4)
            mode = int(rng.integers(0, n))
            if kind == 0:
                g = displacement_gate(rng.uniform(0, 2), rng.uniform(-np.pi, np.pi), mode, n)
            elif kind == 1:
                g = squeeze_gate(rng.uniform(0, 1.5), rng.uniform(-np.pi, np.pi), mode, n)
            elif kind == 2:
                g = cvsim.rotation_gate(rng.uniform(-np.pi, np.pi), mode, n)
            elif n > 1:
                other = int((mode + 1) % n)
                g = beamsplitter_gate(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), (mode, other), n)
            else:
                continue
            st = apply_gate(g, st)
        ok &= check_physicality(st).physical

    corrupted = GaussianState(mean=np.zeros(2), cov=0.5 * np.eye(2))
    ok &= not check_physicality(corrupted).physical

    pt_cov = partial_transpose_cov(tmsv().cov, [1])
    pt_state = GaussianState(mean=np.zeros(4), cov=pt_cov)
    ok &= not check_physicality(pt_state).physical
    report("criterion 9: physicality suite", bool(ok))


def test_criterion_10_determinism(tmp_path):
    paths = []
    for tag in ("a", "b"):
        ss = sample(SqueezedVacuum(1.0), 5000, seed=42)
        path = tmp_path / f"{tag}.csv"
        write_samples_csv(ss, str(path))
        paths.append(path)
    ok = paths[0].read_bytes() == paths[1].read_bytes()

    covs = []
    for _ in range(2):
        covs.append(three_bs_network().cov)
    ok &= bool(np.array_equal(covs[0], covs[1]))
    report("criterion 10: determinism", bool(ok))
