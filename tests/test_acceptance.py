"""Acceptance gate: every shipped claim re-checked at its stated tolerance.

Each test prints exactly one `[criterion NN] PASS/FAIL label` line (visible
under `pytest -s` or in failure output), then asserts, so a red run names the
broken criterion directly.
"""

import time

import numpy as np

from oracle import canonical_initial_state, columns, random_density
from subdyn.classify import classify, fidelity_trace
from subdyn.config import load_config
from subdyn.gates import build_cnot_rls, calibrate_timing, verify_closure
from subdyn.models import ModelSpec, block_eigensolve, build_model
from subdyn.report import REPORT_NAME
from subdyn.runner import run
from subdyn.subdynamics import decompose, decompose_model, \
    kinetic_consistency_residual, project_density, similarity_residual
from subdyn.turing import TuringMachine, biorthonormality_residual, \
    bloch_circle_residual, bloch_head, decompose_entangled, isometry_residual, \
    recompose_bloch, rotation_step, shear_step, tape_state, trajectory

DIAG = ModelSpec(kind="diagonal", omega0=1.0, omega=1.3, g=0.5, lam=1.0,
                 fock_cutoff=2)
TRI = ModelSpec(kind="triangular", omega0=1.0, omega=1.3, g=0.4, lam=1.0,
                fock_cutoff=2, diagonal_in_free=True)
GEN = ModelSpec(kind="general", omega_atoms=(1.0, 1.0), omega=1.0, g=0.5,
                lam=0.05, bath=((0.9, 0.6),), fock_cutoff=1, bath_cutoff=1)

EXPECTED_TABLE = {
    "diagonal": ("DF", "DF", "DF", "PE"),
    "triangular": ("DF", "DF", "DF", "DF"),
    "general": ("D", "D", "DF", "PE"),
}


def _criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _verdict_backed(verdict: str, evidence: dict, cell: str, tol: float) -> bool:
    drift_key = {"stationary_total": "population_drift",
                 "evolution_total": "coherence_modulus_drift"}.get(cell)
    if drift_key is not None:
        drift = evidence[drift_key]
        return drift > tol if verdict == "D" else drift <= tol
    shift_key = {"stationary_proj": "population_dyad_shift",
                 "evolution_proj": "coherence_dyad_shift"}[cell]
    decay_key = {"stationary_proj": "population_dyad_decay",
                 "evolution_proj": "coherence_dyad_decay"}[cell]
    shift, decay = evidence[shift_key], evidence[decay_key]
    if verdict == "D":
        return decay > tol
    if verdict == "PE":
        return decay <= tol and shift > tol
    return decay <= tol and shift <= tol


def test_criterion_01_classification_table():
    started = time.perf_counter()
    ok = True
    details = []
    for spec in (DIAG, TRI, GEN):
        report = classify(build_model(spec), np.linspace(0.0, 20.0, 81))
        want = EXPECTED_TABLE[spec.kind]
        row_ok = report.table_row() == want
        backed = all(_verdict_backed(report.verdicts[c], report.evidence, c,
                                     report.tol) for c in report.verdicts)
        ok = ok and row_ok and backed
        details.append(f"{spec.kind}={'|'.join(report.table_row())}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _criterion(1, "classification table on the three reference models", ok,
               f"{'; '.join(details)}; {elapsed:.2f}s < 30s")


def test_criterion_02_kinetic_equation_oracle():
    started = time.perf_counter()
    ops = build_model(GEN)
    assert ops.dim <= 16 and GEN.lam <= 0.1
    decomp = decompose_model(ops, order="exact")
    h_full = ops.hamiltonian()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        rho0 = random_density(rng, ops.dim)
        t = float(rng.uniform(0.0, 5.0))
        worst = max(worst, kinetic_consistency_residual(decomp, h_full, rho0, t)[1])
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    _criterion(2, "projected evolution matches exact evolution per dyad", ok,
               f"max residual {worst:.3e} <= 1e-6 over 20 samples; "
               f"{elapsed:.2f}s < 60s")


def test_criterion_03_similarity_relation():
    worst = 0.0
    for spec in (DIAG, TRI, GEN):
        worst = max(worst, similarity_residual(decompose_model(build_model(spec))))
    ok = worst <= 1e-8
    _criterion(3, "similarity relation between full and kinetic generators", ok,
               f"max relative residual {worst:.3e} <= 1e-8")


def test_criterion_04_unit_trace_fidelity():
    times = np.linspace(0.0, 10.0, 101)
    worst = 0.0
    real_spectrum = True
    for spec in (DIAG, TRI, GEN):
        ops = build_model(spec)
        decomp = decompose_model(ops)
        real_spectrum &= float(np.max(np.abs(decomp.energies.imag))) <= 1e-12
        coeff = project_density(decomp, canonical_initial_state(ops))
        trace = fidelity_trace(decomp.energies, coeff, times)
        worst = max(worst, trace.max_deviation)
    ok = real_spectrum and worst <= 1e-9
    _criterion(4, "kinetic trace fidelity pinned at one on the 101-point grid",
               ok, f"max |F-1| {worst:.3e} <= 1e-9, spectra real")


def test_criterion_05_perturbative_convergence():
    rng = np.random.default_rng(123)
    h0 = np.diag([0.0, 1.1, 2.7, 4.6])
    h1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h1 = h1 + h1.conj().T
    c_gaps, e_gaps = [], []
    for lam in (1e-2, 5e-3, 2.5e-3):
        exact = decompose(h0, h1, lam=lam, order="exact")
        first = decompose(h0, h1, lam=lam, order="1")
        c_gaps.append(float(np.linalg.norm(columns(exact)[0] - columns(first)[0])))
        # order 1's C already yields the second-order kinetic eigenvalues
        e_gaps.append(float(np.max(np.abs(first.energies - exact.energies))))
    c_ratios = [a / b for a, b in zip(c_gaps, c_gaps[1:])]
    e_ratios = [a / b for a, b in zip(e_gaps, e_gaps[1:])]
    ok = all(3.5 <= r <= 4.5 for r in c_ratios) \
        and all(6.0 <= r <= 10.0 for r in e_ratios)
    _criterion(5, "halving lam shrinks truncation errors at the right rate", ok,
               f"C ratios {[f'{r:.2f}' for r in c_ratios]} in [3.5,4.5], "
               f"E ratios {[f'{r:.2f}' for r in e_ratios]} in [6,10]")


def test_criterion_06_block_closed_form():
    rng = np.random.default_rng(44)
    worst_val = 0.0
    worst_vec = 0.0
    target = np.array([0.0, -1.0, 1.0]) / np.sqrt(2.0)
    for _ in range(100):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(-1.5, 1.5))
        solved = block_eigensolve(a, b, gamma)
        numeric = np.sort(np.linalg.eigvalsh(solved.matrix))
        worst_val = max(worst_val, float(np.max(np.abs(
            numeric - np.sort(solved.values.real)))))
        v0 = solved.vectors[:, 0]
        worst_vec = max(worst_vec,
                        float(np.linalg.norm(solved.matrix @ v0 - b * v0)),
                        float(abs(abs(np.vdot(v0, target)) - 1.0)))
    ok = worst_val <= 1e-10 and worst_vec <= 1e-10
    _criterion(6, "three-state block closed form matches the eigensolver", ok,
               f"value gap {worst_val:.3e}, antisymmetric vector gap "
               f"{worst_vec:.3e} <= 1e-10 over 100 draws")


def test_criterion_07_swap_calibration():
    rng = np.random.default_rng(7)
    worst_res = 0.0
    worst_gap = 0.0
    for _ in range(100):
        e0 = rng.uniform(-5.0, 5.0, size=rng.integers(2, 8))
        ratio = rng.uniform(1.5, 60.0)
        energies = e0 * (1.0 + 1.0 / ratio)
        t_sw = float(rng.uniform(0.2, 4.0))
        cal = calibrate_timing((e0, [0.0]), (energies, [0.0]), t_sw=t_sw)
        worst_res = max(worst_res, cal.residual)
        worst_gap = max(worst_gap, cal.phase_gap)
    ok = worst_res <= 1e-8 and worst_gap <= 1e-10
    _criterion(7, "swap timing correction cancels homogeneous phase shifts", ok,
               f"residual {worst_res:.3e} <= 1e-8, phase congruence "
               f"{worst_gap:.3e} <= 1e-10")


def test_criterion_08_cnot_closure():
    rng = np.random.default_rng(99)
    families = [None]
    right = np.eye(4, dtype=complex) + 0.3 * (rng.standard_normal((4, 4))
                                              + 1j * rng.standard_normal((4, 4)))
    assert abs(np.linalg.det(right)) > 0.1
    families.append(right)
    worst = 0.0
    closed = True
    for fam in families:
        gate = build_cnot_rls(fam)
        perm = np.zeros((4, 4))
        for a, image in enumerate(gate.permutation):
            perm[image, a] = 1.0
        # eight relations: four ket images, four dual images
        worst = max(
            worst,
            float(np.max(np.abs(gate.matrix @ gate.right_states
                                - gate.right_states @ perm))),
            float(np.max(np.abs(gate.left_states @ gate.matrix
                                - perm @ gate.left_states))),
            float(np.max(np.abs(gate.matrix @ gate.matrix - np.eye(4)))))
        closed = closed and verify_closure(gate)
    ok = closed and worst <= 1e-10
    _criterion(8, "controlled-NOT closes over orthonormal and skewed bases", ok,
               f"worst relation residual {worst:.3e} <= 1e-10")


def _skewed_machine(rng, n_tape):
    factors = []
    while len(factors) < n_tape + 1:
        s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(s)) > 0.2:
            factors.append(s)
    return TuringMachine(factors=tuple(factors))


def test_criterion_09_turing_machine():
    rng = np.random.default_rng(5150)
    worst_biorth = 0.0
    worst_iso = 0.0
    worst_circle = 0.0
    worst_recomp = 0.0
    for n_tape in (1, 2, 3, 4):
        m = _skewed_machine(rng, n_tape)
        worst_biorth = max(worst_biorth, biorthonormality_residual(m))

        head = np.asarray(m.factors[0], dtype=complex)
        t_ket, t_bra = tape_state(m, (0,) * n_tape)
        psi = np.kron(head[:, 0], t_ket)
        dual = np.kron(m.inverses()[0][0, :], t_bra)
        for op in (rotation_step(m, 0.7), shear_step(m, 0.5)):
            worst_iso = max(worst_iso, isometry_residual(psi, dual, op))
        points = trajectory(m, psi, dual, [rotation_step(m, 0.9)] * 4)
        worst_circle = max(worst_circle, bloch_circle_residual(points))

        amps = rng.standard_normal(2 ** n_tape) + 1j * rng.standard_normal(2 ** n_tape)
        psi_e = np.kron(head[:, 0], sum(
            a * tape_state(m, bits)[0]
            for a, bits in zip(amps, _bitstrings(n_tape))))
        dual_e = rng.standard_normal(psi_e.size) + 1j * rng.standard_normal(psi_e.size)
        branches = decompose_entangled(psi_e, dual_e, m)
        got = recompose_bloch(branches)
        want = bloch_head(psi_e, dual_e, m)
        worst_recomp = max(worst_recomp, abs(got.x - want.x),
                           abs(got.y - want.y), abs(got.z - want.z))
    ok = (worst_biorth <= 1e-12 and worst_iso <= 1e-10
          and worst_circle <= 1e-10 and worst_recomp <= 1e-10)
    _criterion(9, "biorthonormal machine invariants up to four tape spins", ok,
               f"biorth {worst_biorth:.2e} <= 1e-12, isometry {worst_iso:.2e}"
               f" <= 1e-10, circle {worst_circle:.2e} <= 1e-10, "
               f"recomposition {worst_recomp:.2e} <= 1e-10")


def _bitstrings(n):
    import itertools

    return list(itertools.product((0, 1), repeat=n))


def test_criterion_10_deterministic_reports(tmp_path):
    ok = True
    details = []
    for scenario in ("classify", "evolve", "cnot-demo", "turing-demo"):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / scenario / tag
            cfg = load_config({"scenario": scenario,
                               "model": {"kind": "diagonal", "omega0": 1.0,
                                         "omega": 1.3, "g": 0.5, "lam": 1.0,
                                         "fock_cutoff": 2},
                               "seed": 42})
            run(cfg, out)
            blobs.append((out / REPORT_NAME).read_bytes())
        same = blobs[0] == blobs[1]
        ok = ok and same
        details.append(f"{scenario}={'identical' if same else 'DIFFERS'}")
    _criterion(10, "identical config and seed give byte-identical reports", ok,
               "; ".join(details))
