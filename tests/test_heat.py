import math

import numpy as np
import pytest

from gweyl import (
    CoordinateSplit,
    InputError,
    PhasePoint,
    ResourceError,
    SymbolDescriptor,
    decomposition_check,
    heat_adjoint_M,
    heat_full,
    make_exponential,
    make_fourier_measure,
    make_lattice,
    make_quadratic,
    norm_NIm,
    op_T_I,
    smooth_symbol,
)
from gweyl.gaussian import bilinear_sq, tensor_rule
from gweyl.symbols import LatticeSymbolParams
from conftest import quadrature_smoothed


def real_exp_symbol(u, v):
    """F(z, zeta) = exp(u.z + v.zeta) for complex u, v (no closed structure)."""
    u = np.asarray(u, complex)
    v = np.asarray(v, complex)
    return SymbolDescriptor(
        u.shape[0],
        lambda z, zeta: np.exp(z @ u + zeta @ v),
        name="exp(l)",
        growth="polynomial",
        poly_degree=0,
    )


def test_heat_full_constant_and_linear_exponential():
    F = make_fourier_measure([(2.5, np.zeros(2), np.zeros(2))])
    Z = PhasePoint([0.1, -0.4], [0.3, 0.2])
    assert heat_full(F, 0.3, Z) == pytest.approx(2.5)
    # F = exp(l_a), complex a: smoothing multiplies by exp(t a^2 / 2)
    u = np.array([0.5 + 0.2j, -0.3 + 0.1j])
    v = np.array([0.1 - 0.4j, 0.2 + 0.3j])
    G = real_exp_symbol(u, v)
    t = 0.4
    got = quadrature_smoothed(G, range(2), t, order=48).value_at(Z)
    a_sq = bilinear_sq(u) + bilinear_sq(v)
    want = np.exp(0.5 * t * a_sq) * G.value_at(Z)
    assert got == pytest.approx(want, rel=1e-9)


def test_heat_full_eigenaction_of_oscillating_symbol():
    a, b = np.array([1.2, -0.4]), np.array([0.3, 0.9])
    F = make_exponential(a, b)
    h = 0.5
    Z = PhasePoint([0.2, 0.6], [-0.1, 0.4])
    got = heat_full(F, h / 2, Z)
    want = math.exp(-0.25 * h * (a @ a + b @ b)) * F.value_at(Z)
    assert got == pytest.approx(want, rel=1e-13)
    # quadrature cross-check of the closed eigen-action
    G = SymbolDescriptor(2, F.func, name="generic")
    got = quadrature_smoothed(G, range(2), h / 2, order=40).value_at(Z)
    assert got == pytest.approx(want, rel=1e-10)


def test_heat_partial_full_split_and_unaffected_coordinates():
    F = make_exponential([1.0, 0.5], [0.2, -0.3])
    Z = PhasePoint([0.4, -0.2], [0.1, 0.5])
    t = 0.3
    split_all = CoordinateSplit(2, (0, 1))
    assert smooth_symbol(F, split_all.selected, t).value_at(Z) == pytest.approx(
        heat_full(F, t, Z), rel=1e-13
    )
    # symbol independent of coordinate 1: smoothing the complement is a no-op
    F0 = make_exponential([1.0, 0.0], [0.2, 0.0])
    split0 = CoordinateSplit(2, (0,))
    assert smooth_symbol(F0, split0.complement, t).value_at(Z) == pytest.approx(
        F0.value_at(Z), rel=1e-13
    )


def test_partial_smoothing_composes_over_disjoint_sets():
    rng = np.random.default_rng(31)
    F = make_fourier_measure(
        [(rng.uniform(0.2, 1.0), rng.normal(size=3), rng.normal(size=3))
         for _ in range(3)]
    )
    Z = PhasePoint(rng.normal(size=3), rng.normal(size=3))
    t = 0.4
    one_then_other = smooth_symbol(smooth_symbol(F, [0], t), [2], t)
    joint = smooth_symbol(F, [0, 2], t)
    assert one_then_other.value_at(Z) == pytest.approx(joint.value_at(Z), rel=1e-7)


def test_semigroup_law():
    F = make_exponential([0.8, -0.5], [0.4, 0.1])
    Z = PhasePoint([0.3, 0.0], [-0.2, 0.6])
    lhs = smooth_symbol(smooth_symbol(F, [0, 1], 0.2), [0, 1], 0.3).value_at(Z)
    rhs = smooth_symbol(F, [0, 1], 0.5).value_at(Z)
    assert lhs == pytest.approx(rhs, rel=1e-7)


def test_heat_adjoint_constant_and_closed_form():
    split = CoordinateSplit(2, (0,))
    Z = PhasePoint([0.4, -0.1], [0.2, 0.7])
    const = lambda z, zeta: np.full(z.shape[0], 3.0 + 0.0j)
    assert heat_adjoint_M(const, split, 0.3, 0.5, 0.5, Z) == pytest.approx(3.0)
    # G = exp(l_a) on the complement coordinate: closed Gaussian integral
    a, b = 0.7, -0.4
    t, h1, h2 = 0.3, 0.5, 0.5
    G = lambda z, zeta: np.exp(a * z[:, 1] + b * zeta[:, 1])
    got = heat_adjoint_M(G, split, t, h1, h2, Z)
    var = t * h2 / (t + h2)
    shrink = h2 / (t + h2)
    want = math.exp(0.5 * var * (a * a + b * b)) * math.exp(
        a * shrink * Z.x[1] + b * shrink * Z.xi[1]
    )
    assert got == pytest.approx(want, rel=1e-7)


def test_heat_adjoint_duality(rng):
    # int (H_t F) G dnu_{h1,h2} = int F (M_{t,h1,h2} G) dnu_{h1,h2+t}
    t, h1, h2 = 0.4, 0.6, 0.5
    split = CoordinateSplit(2, (0,))
    aF = rng.normal(size=2) * 0.8
    bF = rng.normal(size=2) * 0.8
    F = make_exponential(aF, bF)
    aG = rng.normal(size=2) * 0.8
    bG = rng.normal(size=2) * 0.8
    G = make_exponential(aG, bG)
    HF = smooth_symbol(F, split.complement, t)

    def integrate(sym_vals, variances, order=28):
        nodes, w = tensor_rule(variances, order)
        z = nodes[:, :2]
        zeta = nodes[:, 2:]
        return complex(w @ sym_vals(z, zeta))

    # variance layout (z0, z1, zeta0, zeta1): selected block h1, complement h2
    lhs = integrate(lambda z, zeta: HF(z, zeta) * G(z, zeta),
                    [h1, h2, h1, h2])
    # order 12 of the adjoint's rule is resolved: over seeds 0-7 and the
    # fixture's seed it moves the right side by at most 4.5e-16 from order 32
    # (the default), and |lhs - rhs| stays at most 1.9e-15
    MG_vals = lambda z, zeta: heat_adjoint_M(G, split, t, h1, h2, (z, zeta),
                                             order=12)
    rhs = integrate(lambda z, zeta: F(z, zeta) * MG_vals(z, zeta),
                    [h1, h2 + t, h1, h2 + t], order=20)
    assert abs(lhs - rhs) < 1e-5


def test_contraction_in_split_lp_norms(rng):
    # ||H_t F||_{L^p(nu_{h1,h2})} <= ||F||_{L^p(nu_{h1,h2+t})}, p in {1, 2}
    t, h1, h2 = 0.5, 0.7, 0.4
    split = CoordinateSplit(2, (0,))
    for _ in range(3):
        F = make_fourier_measure(
            [(rng.uniform(0.2, 1.0), rng.normal(size=2), rng.normal(size=2))
             for _ in range(3)]
        )
        HF = smooth_symbol(F, split.complement, t)
        for p in (1, 2):
            n1, w1 = tensor_rule([h1, h2, h1, h2], 24)
            lhs = float(w1 @ np.abs(HF(n1[:, :2], n1[:, 2:])) ** p) ** (1 / p)
            n2, w2 = tensor_rule([h1, h2 + t, h1, h2 + t], 24)
            rhs = float(w2 @ np.abs(F(n2[:, :2], n2[:, 2:])) ** p) ** (1 / p)
            assert lhs <= rhs * (1 + 1e-6)


def test_op_T_I_basics():
    h = 0.5
    F = make_exponential([1.1, 0.3], [0.7, -0.2])
    Z = PhasePoint([0.2, -0.5], [0.4, 0.1])
    assert op_T_I(F, [], h).value_at(Z) == pytest.approx(F.value_at(Z))
    one_site = op_T_I(F, [0], h)
    lam = math.exp(-0.25 * h * (1.1**2 + 0.7**2))
    assert one_site.value_at(Z) == pytest.approx((1 - lam) * F.value_at(Z),
                                                 rel=1e-12)
    # eigen-action route against quadrature inclusion-exclusion
    G = SymbolDescriptor(2, F.func, name="generic")
    TG = G.value_at(Z) - quadrature_smoothed(G, [0], h / 2).value_at(Z)
    assert TG == pytest.approx(one_site.value_at(Z), rel=1e-6)


def test_op_T_I_gaussian_is_inclusion_exclusion_of_smoothings():
    # T_I F = sum_{J subset I} (-1)^|J| S_J F for a coupled Gaussian: one
    # signed Gaussian term per J, each the closed-form smoothing over J
    import itertools

    h = 0.5
    A = np.random.default_rng(4).normal(size=(6, 6))
    F = make_quadratic(A @ A.T / 6 + 0.1 * np.eye(6), 0.7)
    I = (0, 2)
    T = op_T_I(F, I, h)
    assert T.quad is not None and len(T.quad) == 4
    pts = np.random.default_rng(9).normal(size=(12, 6))
    z, zeta = pts[:, :3], pts[:, 3:]
    want = sum((-1.0) ** len(J) * smooth_symbol(F, J, h / 2)(z, zeta)
               for r in range(len(I) + 1) for J in itertools.combinations(I, r))
    assert np.abs(T(z, zeta) - want).max() <= 1e-14
    assert np.abs(want).max() > 1e-3


def test_op_T_I_subset_cap(monkeypatch):
    monkeypatch.setenv("GW_MAX_SUBSETS", "2")
    F = make_exponential([1.0, 0.5, 0.2], [0.0, 0.1, 0.3])
    with pytest.raises(ResourceError):
        op_T_I(F, [0, 1, 2], 0.5)


def test_decomposition_identity_sizes_1_and_2():
    h = 0.5
    F = make_exponential([1.0, -0.5], [0.2, 0.8])
    Z = PhasePoint([0.3, -0.1], [0.5, 0.2])
    for lam in ([0], [0, 1]):
        lhs, rhs = decomposition_check(F, lam, h, Z)
        assert abs(lhs - rhs) < 1e-8


def test_decomposition_identity_lattice():
    p = LatticeSymbolParams(d=1, g=(0.5, 0.3, 0.2), t=1.0, V="cos")
    L = make_lattice(p, 2)
    Z = PhasePoint([0.3, -0.5, 0.1], [0.2, 0.0, -0.4])
    lhs, rhs = decomposition_check(L, [0, 1], 0.5, Z)
    assert abs(lhs - rhs) < 1e-5


def test_smoothing_commutes_with_finite_rank_projection():
    # (H_{E,t} F) o pi_En = H_{E,t} (F o pi_En) when E is inside En
    F = make_exponential([0.9, -0.4, 0.3], [0.2, 0.5, -0.1])
    t = 0.3
    En = [0, 1]
    E = [0]
    lhs = smooth_symbol(F, E, t).restricted(En)
    rhs = smooth_symbol(F.restricted(En), E, t)
    rng = np.random.default_rng(2)
    z = rng.normal(size=(6, 3))
    zeta = rng.normal(size=(6, 3))
    np.testing.assert_allclose(lhs(z, zeta), rhs(z, zeta), rtol=0, atol=1e-14)


def test_difference_product_derivative_norm_bound():
    # N^(2)_{I,h}(T_I F) <= M (18 S_eps h)^{|I|} prod eps_j^2 on a 3-site chain
    h = 0.5
    p = LatticeSymbolParams(d=1, g=(0.4, 0.25, 0.15), t=1.0, V="cos")
    F = make_lattice(p, 2)
    eps = F.class_eps
    S = max(1.0, float(np.max(eps**2)))
    for I in ([0], [0, 2]):
        TF = op_T_I(F, I, h)
        measured = norm_NIm(TF, I, 2, h, n_samples=200, seed=5)
        bound = F.class_M * (18 * S * h) ** len(I) * float(np.prod(eps[list(I)] ** 2))
        assert measured <= bound


def test_coordinate_split_validation():
    s = CoordinateSplit(3, (2, 0))
    assert s.selected == (0, 2)
    assert s.complement == (1,)
    with pytest.raises(InputError):
        CoordinateSplit(2, (3,))
