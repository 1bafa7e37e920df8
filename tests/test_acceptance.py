"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins.  Tolerances are pinned here and nowhere else.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as adaptive_quad

import gweyl.quantize
from gweyl import (
    FunctionRep,
    HermiteBasis,
    IndexLadder,
    LowConfidenceWarning,
    PhasePoint,
    antiwick_equals_smoothed_weyl_check,
    antiwick_matrix,
    bargmann_isometry_defect,
    basis_element,
    decomposition_check,
    ell_abs_moment,
    exp_integral,
    gauss_quadrature,
    heat_full,
    ladder_run,
    make_exponential,
    make_fourier_measure,
    make_lattice,
    make_quadratic,
    mc_integral,
    operator_norm,
    oracle_U,
    verify_class,
    weyl_matrix,
    weyl_matrix_classical,
    wick_moment,
    wick_symbol,
    wigner_gauss,
    wigner_grid,
    wigner_via_bargmann,
)
from gweyl.gaussian import tensor_rule
from gweyl.symbols import LatticeSymbolParams

H = 0.5
SEED = 20240817


def _trig(rng, dim=1, n_atoms=4, freq=2.0, positive=False):
    atoms = []
    for _ in range(n_atoms):
        c = rng.uniform(0.05, 0.4) if positive else \
            rng.normal() * np.exp(1j * rng.uniform(0, 2 * math.pi))
        atoms.append((c, rng.uniform(-freq, freq, dim),
                      rng.uniform(-freq, freq, dim)))
    return make_fourier_measure(atoms)


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    basis = HermiteBasis(1, H, 16)
    worst = 0.0
    for _ in range(10):
        a = rng.uniform(-2, 2, 1)
        b = rng.uniform(-2, 2, 1)
        M = weyl_matrix(make_exponential(a, b), basis)
        U = oracle_U(a, b, H, basis)
        rel = operator_norm(M.entries - U.entries) / operator_norm(U)
        worst = max(worst, rel)
        assert rel <= 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 01 oracle-equivalence: PASS "
          f"(worst relative {worst:.2e} <= 1e-4, {elapsed:.1f} s)")


def test_criterion_02_classical_kernel_cross_check():
    rng = np.random.default_rng(SEED + 1)
    basis = HermiteBasis(1, H, 8)
    worst = 0.0
    for _ in range(5):
        F = _trig(rng)
        Mc = weyl_matrix_classical(F, basis)
        Mq = weyl_matrix(F, basis)
        diff = float(np.abs(Mc.entries - Mq.entries).max())
        worst = max(worst, diff)
        assert diff <= 1e-4
    print(f"ACCEPTANCE 02 classical-kernel cross-check: PASS "
          f"(worst entry diff {worst:.2e} <= 1e-4)")


def test_criterion_03_norm_bound_on_lattice_ladder():
    t0 = time.monotonic()
    g = tuple(0.5 * 0.7**j for j in range(4))  # geometric couplings
    F = make_lattice(LatticeSymbolParams(d=1, g=g, t=1.0, V="cos"), 2)
    basis = HermiteBasis(4, H, 3)
    ladder = IndexLadder(4, ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)))
    rep = ladder_run(F, ladder, basis)
    for step in rep.steps:
        if step.diff_norm is not None:
            assert step.diff_norm <= step.diff_bound
    assert rep.final_norm <= rep.final_bound
    # each rung is one hybrid matrix; the first matches its subset expansion
    assert rep.route_residual < 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"ACCEPTANCE 03 norm bound: PASS (norm {rep.final_norm:.4f} <= "
          f"bound {rep.final_bound:.3e}; diffs "
          f"{[f'{s.diff_norm:.2e}' for s in rep.steps[1:]]} below bounds; "
          f"error bar {rep.norm_error_bar:.2e}, route residual "
          f"{rep.route_residual:.2e} < 1e-12, {elapsed:.1f} s)")


def test_criterion_04_positive_quantization_contraction():
    rng = np.random.default_rng(SEED + 2)
    basis = HermiteBasis(1, H, 12)
    worst = -np.inf
    for k in range(20):
        if k % 5 == 4:
            T = np.abs(rng.normal()) * np.eye(2)
            F = make_quadratic(T, 1.0)
        else:
            F = _trig(rng, positive=True)
        excess = operator_norm(antiwick_matrix(F, basis)) - F.sup_norm
        worst = max(worst, excess)
        assert excess <= 1e-6
    print(f"ACCEPTANCE 04 positive-quantization contraction: PASS "
          f"(worst excess {worst:.2e} <= 1e-6)")


def test_criterion_05_positive_equals_smoothed_symmetric():
    rng = np.random.default_rng(SEED + 3)
    basis = HermiteBasis(1, H, 10)
    worst_exp = 0.0
    for _ in range(3):
        F = make_exponential(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        worst_exp = max(worst_exp, antiwick_equals_smoothed_weyl_check(F, basis))
    assert worst_exp < 1e-4
    worst_trig = 0.0
    for _ in range(3):
        G = _trig(rng)
        worst_trig = max(worst_trig, antiwick_equals_smoothed_weyl_check(G, basis))
    assert worst_trig < 1e-3
    print(f"ACCEPTANCE 05 positive = smoothed symmetric: PASS "
          f"(exponential {worst_exp:.2e} < 1e-4, trig {worst_trig:.2e} < 1e-3)")


def test_criterion_06_coherent_diagonal_identity():
    rng = np.random.default_rng(SEED + 4)
    basis = HermiteBasis(1, H, 16)
    worst = 0.0
    for _ in range(5):
        F = _trig(rng)
        op = weyl_matrix(F, basis)
        for _ in range(20):
            X = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
            scale = math.sqrt(H) / max(1.0, math.sqrt(X.norm_sq))
            X = PhasePoint(X.x * scale, X.xi * scale)
            resid = abs(wick_symbol(op, X) - heat_full(F, 0.5 * H, X))
            worst = max(worst, resid)
            assert resid <= 1e-3
    print(f"ACCEPTANCE 06 coherent-diagonal identity: PASS "
          f"(worst residual {worst:.2e} <= 1e-3)")


def test_criterion_07_isometry_and_pair_transform_bounds():
    worst_defect = 0.0
    for dim in (1, 2):
        basis = HermiteBasis(dim, H, 6)
        for k in range(basis.size):
            f = FunctionRep(basis, np.eye(basis.size, dtype=complex)[k])
            worst_defect = max(worst_defect, bargmann_isometry_defect(f))
    assert worst_defect < 1e-6
    rng = np.random.default_rng(SEED + 5)
    basis = HermiteBasis(1, 1.0, 5)
    worst_factor = 0.0
    worst_route = 0.0
    checked = 0
    nodes, w = tensor_rule([0.25, 0.25], 48)
    for _ in range(5):
        f = FunctionRep(basis, rng.normal(size=basis.size)
                        + 1j * rng.normal(size=basis.size))
        g = FunctionRep(basis, rng.normal(size=basis.size)
                        + 1j * rng.normal(size=basis.size))
        vals = wigner_grid(f, g, nodes[:, :1], nodes[:, 1:]).values
        norm = math.sqrt(float(w @ np.abs(vals) ** 2))
        worst_factor = max(worst_factor, norm / (f.norm * g.norm))
        assert norm <= f.norm * g.norm * (1 + 1e-6)
        # the closed form against the defining quadrature, wherever the
        # quadrature does not flag its own rounding
        for n, val in zip(nodes, vals):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", LowConfidenceWarning)
                direct = wigner_gauss(f, g, PhasePoint(n[:1], n[1:]))
            if not caught:
                checked += 1
                worst_route = max(worst_route,
                                  abs(direct - val) / (f.norm * g.norm))
    assert worst_route <= 1e-9
    print(f"ACCEPTANCE 07 isometry/pair-transform bounds: PASS "
          f"(worst defect {worst_defect:.2e} < 1e-6, worst norm factor "
          f"{worst_factor:.9f} <= 1+1e-6, closed form vs quadrature "
          f"{worst_route:.2e} <= 1e-9 on {checked} unflagged nodes)")


def test_criterion_08_decomposition_identity():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    F = make_exponential(rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3))
    G = make_fourier_measure(
        [(rng.uniform(0.2, 0.8), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
         for _ in range(3)]
    )
    for sym in (F, G):
        for lam in ([0], [0, 2], [0, 1, 2]):
            Z = PhasePoint(rng.normal(size=3), rng.normal(size=3))
            lhs, rhs = decomposition_check(sym, lam, H, Z)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-8
    print(f"ACCEPTANCE 08 decomposition identity: PASS "
          f"(worst defect {worst:.2e} <= 1e-8)")


def test_criterion_09_gaussian_calculus():
    h = H
    n = 10**5
    # exponential integral: quadrature, closed form, and Monte Carlo
    rule = gauss_quadrature(2, h, 60)
    worst_quad = 0.0
    a_real = np.array([1.1, -0.7])
    a_imag = 1j * np.array([0.9, 0.4])
    for a in (a_real, a_imag):
        quadv = rule.integrate(lambda x: np.exp(x @ a))
        worst_quad = max(worst_quad, abs(quadv - exp_integral(a, h)))
    assert worst_quad <= 1e-8
    est, se = mc_integral(lambda x: np.exp(x @ a_real), 2, h, n, seed=SEED)
    assert abs(est - exp_integral(a_real, h).real) <= 4 * se
    # absolute moments: adaptive quadrature handles the |.|^p kink
    worst_mom = 0.0
    for p in (1, 2, 3, 4):
        na = float(np.linalg.norm(a_real))
        val, _ = adaptive_quad(
            lambda u: abs(u) ** p * math.exp(-u * u / (2 * h * na * na))
            / math.sqrt(2 * math.pi * h * na * na),
            -40, 40, points=[0.0], limit=200, epsabs=1e-12,
        )
        worst_mom = max(worst_mom, abs(val - ell_abs_moment(a_real, p, h)))
    assert worst_mom <= 1e-8
    est, se = mc_integral(lambda x: np.abs(x @ a_real) ** 3, 2, h, n, seed=SEED + 1)
    assert abs(est - ell_abs_moment(a_real, 3, h)) <= 4 * se
    # pairing sums: exact polynomial quadrature and Monte Carlo
    us = [np.array([1.0, 0.2]), np.array([0.4, -0.8]),
          np.array([-0.3, 0.6]), np.array([0.9, 0.1])]
    quadv = rule.integrate(
        lambda x: (x @ us[0]) * (x @ us[1]) * (x @ us[2]) * (x @ us[3])
    )
    assert abs(quadv - wick_moment(us, h)) <= 1e-8
    est, se = mc_integral(
        lambda x: (x @ us[0]) * (x @ us[1]) * (x @ us[2]) * (x @ us[3]),
        2, h, n, seed=SEED + 2,
    )
    assert abs(est - wick_moment(us, h)) <= 4 * se
    print(f"ACCEPTANCE 09 Gaussian calculus: PASS "
          f"(quadrature defects {max(worst_quad, worst_mom):.2e} <= 1e-8, "
          f"MC within 4 sigma at n = 1e5)")


def test_criterion_10_ladder_independence():
    g = (0.45, 0.3, 0.2)
    F = make_lattice(LatticeSymbolParams(d=1, g=g, t=1.0, V="cos"), 2)
    basis = HermiteBasis(3, H, 2)
    lad1 = IndexLadder(3, ((0,), (0, 1), (0, 1, 2)))
    lad2 = IndexLadder(3, ((1,), (1, 2), (0, 1, 2)))
    rep1 = ladder_run(F, lad1, basis)
    rep2 = ladder_run(F, lad2, basis)
    quad_tol = 1e-8
    diff = operator_norm(rep1.final.entries - rep2.final.entries)
    assert diff <= 2 * quad_tol
    print(f"ACCEPTANCE 10 ladder independence: PASS "
          f"(final operators differ by {diff:.2e} <= {2 * quad_tol:.0e})")


def test_criterion_11_negative_controls(monkeypatch):
    rng = np.random.default_rng(SEED + 7)
    basis = HermiteBasis(1, H, 10)
    a, b = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
    F = make_exponential(a, b)
    U = oracle_U(a, b, H, basis)

    # control A: flipped kernel sign must break the oracle equivalence
    monkeypatch.setattr(gweyl.quantize, "_MUTATE_TABLE_SIGN", -1.0)
    M_bad = weyl_matrix(F, basis)
    rel_bad = operator_norm(M_bad.entries - U.entries) / operator_norm(U)
    assert rel_bad > 1e-2, "sign-flip mutation went undetected"
    monkeypatch.setattr(gweyl.quantize, "_MUTATE_TABLE_SIGN", 1.0)
    M_ok = weyl_matrix(F, basis)
    rel_ok = operator_norm(M_ok.entries - U.entries) / operator_norm(U)
    assert rel_ok <= 1e-4

    # the same flip applied to the pointwise kernel breaks the two-route
    # pair-transform agreement
    import sys

    wigner_mod = sys.modules["gweyl.wigner"]
    orig = sys.modules["gweyl.bargmann"].weyl_kernel_grid

    def flipped(wX, wY, wZ, h):
        return orig(np.conj(wX), wY, wZ, h)

    monkeypatch.setattr(wigner_mod, "weyl_kernel_grid", flipped)
    f = basis_element(basis, [2])
    g = basis_element(basis, [1])
    Z = PhasePoint([0.4], [-0.3])
    bad = abs(wigner_via_bargmann(f, g, Z) - wigner_gauss(f, g, Z))
    assert bad > 1e-3, "kernel mutation went undetected in the pair transform"
    monkeypatch.setattr(wigner_mod, "weyl_kernel_grid", orig)
    good = abs(wigner_via_bargmann(f, g, Z) - wigner_gauss(f, g, Z))
    assert good < 1e-5

    # control B: mis-declared derivative radii must fail the class check
    G = make_exponential([1.2, -0.7], [-1.2, 0.7])
    report = verify_class(G, 2, 1.0, G.class_eps / 2, sample_count=30)
    assert not report.passed, "mis-declared radii went undetected"
    ok_report = verify_class(G, 2, 1.0, G.class_eps, sample_count=30)
    assert ok_report.passed
    print(f"ACCEPTANCE 11 negative controls: PASS "
          f"(sign flip residual {rel_bad:.2e} vs {rel_ok:.2e}; kernel flip "
          f"defect {bad:.2e} vs {good:.2e}; radii ratio "
          f"{report.worst_ratio:.1f} rejected)")
