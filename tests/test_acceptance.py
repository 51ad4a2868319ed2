"""Acceptance suite: one check per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Two references are derived rather than tabulated, and each
has a provenance test that re-derives it:

* criterion 1, weak-coupling row: the target (1.546, 1.546, 3.092) is the
  box-converged solve at beta = 0.25 (30x40 and 60x90 boxes agree to 0.006).
  The earlier target (1.50, 1.44, 2.94) is what the same operator gives on a
  truncated 24x24 box, whose (4.4, 3.2) windings of margin are below
  ``MIN_MARGIN_WINDINGS``.  Its 1.50 vs 1.44 asymmetry is impossible for the
  exact problem: the reduced potential is even, so the mirror phi -> -phi
  combined with the swap 1 <-> 3 maps the ordered wedge onto itself and
  exchanges <phi12> with <phi23>.
* criterion 3a, peak location: in an anharmonic well the ground-state
  maximum is not at the potential minimum phi0.  Expanding the well as
  w^2 xi^2 / 2 + lam xi^3 with w^2 = beta V''(phi0) and
  lam = beta V'''(phi0) / 6, first-order perturbation theory puts the
  maximum at xi = -lam / w^3 (+0.035 at beta = 1, i.e. 3.5 cells of the
  default grid), so the grid peak is compared with phi0 plus that shift.
"""

import math

import numpy as np
import pytest

from helixdipoles.analysis import (
    build_size_scan,
    expectation_phi2,
    fit_harmonic_size,
    size_energy_product,
)
from helixdipoles.cli import RunConfig, run
from helixdipoles.linalg import lowest_eigenpairs
from helixdipoles.potential import (
    find_minima,
    reduced_potential,
    reduced_potential_derivative,
)
from helixdipoles.threebody import (
    EXCHANGE_GROUP,
    WedgeGrid2D,
    assemble_hamiltonian_2d,
    solve_three_body,
    symmetrize_wavefunction,
)
from helixdipoles.twobody import Grid1D, assemble_hamiltonian_1d, solve_two_body

TWO_PI = 2.0 * math.pi

TARGET_DISTANCES = {
    1.0: ((1.01, 1.01, 2.03), 0.02),
    2.0: ((1.00, 1.00, 2.00), 0.02),
    0.25: ((1.546, 1.546, 3.092), 0.07),
}

#: The beta = 0.25 target before it was corrected: a 24x24-box solve.
TRUNCATED_BOX_DISTANCES_025 = (1.50, 1.44, 2.94)


def report(label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


# --- 1. ground-state pair distances ----------------------------------------

@pytest.mark.parametrize("beta", [1.0, 2.0, 0.25])
def test_criterion_01_pair_distances(beta, request):
    fixture = {1.0: "three_body_beta1", 2.0: "three_body_beta2",
               0.25: "three_body_beta025"}[beta]
    sol = request.getfixturevalue(fixture)
    target, tolerance = TARGET_DISTANCES[beta]
    measured = sol.distances
    deviations = [abs(m - t) for m, t in zip(measured, target)]
    ok = max(deviations) <= tolerance
    report(f"1 (distances beta={beta})", ok,
           f"measured ({measured[0]:.4f}, {measured[1]:.4f}, {measured[2]:.4f}) "
           f"vs target {target} +-{tolerance}")
    assert ok, f"deviations {deviations} exceed {tolerance}"


def max_deviation(measured, target) -> float:
    return max(abs(m - t) for m, t in zip(measured, target))


def test_criterion_01_weak_target_provenance(three_body_beta025):
    target, tolerance = TARGET_DISTANCES[0.25]
    phi = np.linspace(0.1, 3.0 * TWO_PI, 301)
    even = np.array_equal(reduced_potential(-phi, 1.0), reduced_potential(phi, 1.0))

    truncated = solve_three_body(WedgeGrid2D(x_max=24.0, y_max=24.0, spacing=0.15),
                                 0.25, 1.0, 1, allow_small_box=True).distances
    reproduces_old = max_deviation(truncated, TRUNCATED_BOX_DISTANCES_025) <= 0.01
    rejects_truncated = max_deviation(truncated, target) > tolerance

    smaller = solve_three_body(WedgeGrid2D(x_max=30.0, y_max=40.0, spacing=0.15),
                               0.25, 1.0, 1).distances
    converged = three_body_beta025.distances
    box_converged = max_deviation(smaller, converged) <= 0.01
    mirror = abs(converged[0] - converged[1])

    ok = (even and reproduces_old and rejects_truncated and box_converged
          and mirror <= 0.01)
    report("1 (beta=0.25 target provenance)", ok,
           f"24x24 box ({truncated[0]:.4f}, {truncated[1]:.4f}, "
           f"{truncated[2]:.4f}) vs old target {TRUNCATED_BOX_DISTANCES_025}; "
           f"30x40 ({smaller[0]:.4f}, {smaller[1]:.4f}, {smaller[2]:.4f}) "
           f"vs 60x90 ({converged[0]:.4f}, {converged[1]:.4f}, "
           f"{converged[2]:.4f}); |<phi12> - <phi23>| = {mirror:.4f}")
    assert ok


# --- 2. two-body bound-state count ------------------------------------------

def test_criterion_02_bound_count(two_body_beta1):
    energies = two_body_beta1.energies
    bound = energies[energies < -1e-3]
    near_threshold = energies[(energies >= -1e-3) & (energies < 0.0)]
    ok = len(bound) == 3 and np.all(np.abs(near_threshold) < 1e-3)
    report("2 (bound count)", ok,
           f"{len(bound)} states below -1e-3; energies {np.round(energies, 6)}")
    assert ok


# --- 3. ground-state peak location -------------------------------------------

def anharmonic_peak_shift(beta: float, ratio: float, phi0: float) -> float:
    """First-order displacement -V'''/(6 sqrt(beta) V''^(3/2)) of the
    ground-state maximum from the potential minimum ``phi0``; V'' and V'''
    are central differences of the analytic derivative."""
    step = 1e-4
    dm, d0, dp = (reduced_potential_derivative(phi0 + s * step, ratio)
                  for s in (-1.0, 0.0, 1.0))
    v2 = (dp - dm) / (2.0 * step)
    v3 = (dp - 2.0 * d0 + dm) / step**2
    return -v3 / (6.0 * math.sqrt(beta) * v2**1.5)


def test_criterion_03a_peak_within_one_cell(two_body_beta1):
    grid = two_body_beta1.grid
    peak = grid.nodes[int(np.argmax(np.abs(two_body_beta1.wavefunction(0))))]
    phi0 = find_minima(1.0, 1)[0].phi_k
    shift = anharmonic_peak_shift(1.0, 1.0, phi0)
    offset = abs(peak - (phi0 + shift))
    ok = offset <= grid.spacing
    report("3a (peak within one cell of the anharmonic prediction)", ok,
           f"peak {peak:.4f}, predicted {phi0 + shift:.4f} (minimum "
           f"{phi0:.4f} + shift {shift:.4f}), offset {offset:.4f} "
           f"= {offset / grid.spacing:.2f} cells")
    assert ok


def test_criterion_03a_shift_provenance():
    phi0 = find_minima(1.0, 1)[0].phi_k
    grid = Grid1D()
    errors = {}
    for beta in (1.0, 2.0, 5.0, 20.0):
        psi = np.abs(solve_two_body(grid, beta, 1.0, 1).wavefunction(0))
        i = int(np.argmax(psi))
        a, b, c = psi[i - 1:i + 2]
        refined = grid.nodes[i] + 0.5 * grid.spacing * (a - c) / (a - 2.0 * b + c)
        shift = anharmonic_peak_shift(beta, 1.0, phi0)
        errors[beta] = (refined - phi0) / shift - 1.0
    # the residual (~2%) is the beta-independent second-order term
    agrees = max(abs(e) for e in errors.values()) <= 0.05
    # a peak sitting exactly on the minimum must fail criterion 3a
    discriminates = anharmonic_peak_shift(1.0, 1.0, phi0) > grid.spacing
    ok = agrees and discriminates
    report("3a (peak-shift provenance)", ok,
           "refined peak shift vs first-order prediction: "
           + ", ".join(f"beta={b:g} {e:+.1%}" for b, e in errors.items()))
    assert ok


def test_criterion_03b_minimum_slightly_below_winding():
    phi0 = find_minima(1.0, 1)[0].phi_k
    ok = TWO_PI - 0.5 < phi0 < TWO_PI
    report("3b (minimum slightly below one winding)", ok,
           f"phi0 = {phi0:.6f}, below 2 pi by {TWO_PI - phi0:.4f} rad")
    assert ok


# --- 4. three-body ground-state peak -----------------------------------------

def test_criterion_04_three_body_peak(three_body_beta1):
    grid = three_body_beta1.grid
    peak = int(np.argmax(np.abs(three_body_beta1.wavefunction(0))))
    px, py = grid.x[peak], grid.y[peak]
    ok = abs(px - 4.44) <= grid.spacing and abs(py - 7.70) <= grid.spacing
    report("4 (three-body peak)", ok,
           f"peak at ({px:.2f}, {py:.2f}), target (4.44, 7.70) "
           f"+-{grid.spacing}")
    assert ok


# --- 5. harmonic size scaling -------------------------------------------------

def test_criterion_05_harmonic_scaling():
    betas = (5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)
    rows = build_size_scan(betas, Grid1D(), 1.0)
    fit = fit_harmonic_size(rows)
    phi2 = [r.phi2 for r in rows]
    rel_rms = fit.residual_rms / np.mean(phi2)
    decreasing = all(a > b for a, b in zip(phi2, phi2[1:]))
    ok = rel_rms < 0.01 and decreasing
    report("5 (harmonic scaling)", ok,
           f"relative rms {rel_rms:.2e}, strictly decreasing: {decreasing}")
    assert ok


# --- 6. asymptotic size-energy identity ---------------------------------------

def test_criterion_06_asymptotic_identity():
    # closed-form check on manufactured exponential states
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        grid = Grid1D(phi_max=50.0 / kappa, n_points=200_000)
        psi = np.exp(-kappa * grid.nodes)
        psi /= math.sqrt(grid.spacing * np.sum(psi**2))
        worst = max(worst, abs(expectation_phi2(psi, grid) * 2.0 * kappa**2 - 1.0))
    synthetic_ok = worst < 1e-3

    # solver data: plateau over a weak-binding window, then growth toward 0-
    grid = Grid1D()
    window = build_size_scan((0.16, 0.18, 0.20, 0.22), grid, 1.0)
    plateau = size_energy_product(window)[:, 1]
    variation = (plateau.max() - plateau.min()) / abs(plateau.mean())
    plateau_ok = variation < 0.15

    growth_rows = build_size_scan((0.10, 0.12, 0.14), grid, 1.0)
    growth = size_energy_product(growth_rows)
    # sorted ascending in E: the shallowest state is the last row
    shallow_product = growth[np.argmax(growth[:, 0]), 1]
    rising = np.all(np.diff(growth[:, 1]) > 0.0)
    growth_ok = bool(rising and shallow_product > plateau.mean() * (1.0 - 0.05))

    ok = synthetic_ok and plateau_ok and growth_ok
    report("6 (asymptotic identity)", ok,
           f"synthetic worst deviation {worst:.2e}; plateau variation "
           f"{variation:.2%}; product rises from {plateau.mean():.3f} to "
           f"{shallow_product:.3f} toward E->0-")
    assert ok


# --- 7. eigensolver oracle equivalence ----------------------------------------

def test_criterion_07_oracle_equivalence(mini_wedge_solves):
    def compare(op, k, weight, method="lanczos"):
        dense = lowest_eigenpairs(op, k, 1e-12, method="dense",
                                  quadrature_weight=weight)
        iterative = lowest_eigenpairs(op, k, 1e-12, method=method,
                                      quadrature_weight=weight)
        dv = float(np.abs(dense.values - iterative.values).max())
        scale = math.sqrt(weight)
        vv = max(
            min(np.linalg.norm((dense.vectors[:, i] - iterative.vectors[:, i]) * scale),
                np.linalg.norm((dense.vectors[:, i] + iterative.vectors[:, i]) * scale))
            for i in range(k)
        )
        return dv, vv

    grid1d = Grid1D.from_spacing(100.0, 0.05)
    dv1, vv1 = compare(assemble_hamiltonian_1d(grid1d, 2.0, 1.0), 3, grid1d.spacing)

    wedge, dense2, lanczos2 = mini_wedge_solves
    dv2 = float(np.abs(dense2.values - lanczos2.values).max())
    w = wedge.spacing
    vv2 = max(
        min(np.linalg.norm((dense2.vectors[:, i] - lanczos2.vectors[:, i]) * w),
            np.linalg.norm((dense2.vectors[:, i] + lanczos2.vectors[:, i]) * w))
        for i in range(4)
    )

    # the shift-invert path against the same dense oracle
    dv1s, vv1s = compare(assemble_hamiltonian_1d(grid1d, 2.0, 1.0), 3, grid1d.spacing,
                         "shift-invert")
    dv2s, vv2s = compare(assemble_hamiltonian_2d(wedge, 1.0, 1.0, allow_small_box=True),
                         4, w**2, "shift-invert")

    ok = max(dv1, dv2) <= 1e-9 and max(vv1, vv2) <= 1e-6
    ok &= max(dv1s, dv2s) <= 1e-9 and max(vv1s, vv2s) <= 1e-6
    report("7 (oracle equivalence)", ok,
           f"1d coarse: values {dv1:.2e}, vectors {vv1:.2e}; "
           f"mini wedge: values {dv2:.2e}, vectors {vv2:.2e}; "
           f"shift-invert 1d: values {dv1s:.2e}, vectors {vv1s:.2e}; "
           f"shift-invert mini wedge: values {dv2s:.2e}, vectors {vv2s:.2e}")
    assert ok


# --- 8. analytic box spectra ---------------------------------------------------

def test_criterion_08_analytic_spectra():
    length = 10.0
    exact = np.array([m**2 * math.pi**2 / (2.0 * length**2) for m in range(1, 6)])
    errors = {}
    for dx in (0.05, 0.025, 0.0125):
        grid = Grid1D.from_spacing(length, dx)
        res = lowest_eigenpairs(assemble_hamiltonian_1d(grid, 0.0, 1.0), 5, 1e-12)
        errors[dx] = np.abs(res.values - exact)
    orders = np.concatenate([
        np.log2(errors[0.05] / errors[0.025]),
        np.log2(errors[0.025] / errors[0.0125]),
    ])
    ok = bool(np.all(np.abs(orders - 2.0) <= 0.3))
    report("8 (analytic spectra)", ok,
           f"measured orders {np.round(orders, 3)} (target 2.0 +- 0.3)")
    assert ok


# --- 9. symmetry and exactness properties ---------------------------------------

def test_criterion_09_symmetry_exactness(three_body_beta1, three_body_beta2,
                                         three_body_beta025):
    additivity = max(
        abs(sol.distances[2] - sol.distances[0] - sol.distances[1])
        for sol in (three_body_beta1, three_body_beta2, three_body_beta025)
    )

    rng = np.random.default_rng(23)
    pts = rng.uniform(-15.0, 15.0, size=(2, 500))
    base = np.diagonal(symmetrize_wavefunction(
        three_body_beta1, "boson", pts[0], pts[1])[0])
    invariance = 0.0
    for mat, _ in EXCHANGE_GROUP[1:]:
        gx, gy = mat @ pts
        moved = np.diagonal(symmetrize_wavefunction(
            three_body_beta1, "boson", gx, gy)[0])
        invariance = max(invariance, float(np.max(np.abs(moved - base))))

    grid = Grid1D()
    delta = 1e-3
    e_plus = solve_two_body(grid, 1.0 + delta, 1.0, 1).energies[0]
    e_minus = solve_two_body(grid, 1.0 - delta, 1.0, 1).energies[0]
    sol = solve_two_body(grid, 1.0, 1.0, 1)
    v_exp = grid.spacing * float(
        np.sum(reduced_potential(grid.nodes, 1.0) * sol.wavefunction(0) ** 2))
    hf_rel = abs((e_plus - e_minus) / (2.0 * delta) - v_exp) / abs(v_exp)

    ok = additivity <= 1e-10 and invariance <= 1e-6 and hf_rel <= 1e-3
    report("9 (symmetry & exactness)", ok,
           f"distance additivity {additivity:.1e}; exchange invariance "
           f"{invariance:.1e}; Hellmann-Feynman relative {hf_rel:.1e}")
    assert ok


# --- 10. deterministic golden outputs -------------------------------------------

def test_criterion_10_determinism(tmp_path):
    pinned = [
        dict(problem="potential", ratio=1.0, phi_max=3.0 * TWO_PI, n_samples=600),
        dict(problem="two-body", beta=1.0, box_length=60.0, spacing_1d=0.05,
             k_states=4),
        dict(problem="three-body", beta=1.0, x_max=12.0, y_max=16.0,
             spacing_2d=0.4, k_states=2, allow_small_box=True, solver="lanczos"),
        dict(problem="three-body", beta=1.0, x_max=12.0, y_max=16.0,
             spacing_2d=0.4, k_states=2, allow_small_box=True, solver="shift-invert"),
    ]
    stable = True
    details = []
    for idx, pinned_kwargs in enumerate(pinned):
        digests = []
        for label in ("a", "b"):
            out = tmp_path / f"{idx}{label}"
            assert run(RunConfig(out_dir=str(out), **pinned_kwargs)) == 0
            blob = b"".join(p.read_bytes()
                            for p in sorted(out.glob("*.csv")))
            digests.append(blob)
        same = digests[0] == digests[1]
        stable &= same
        details.append(f"{pinned_kwargs['problem']}: {'stable' if same else 'DIFFERS'}")
    report("10 (determinism)", stable, "; ".join(details))
    assert stable
