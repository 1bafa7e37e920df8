import math

import numpy as np
import pytest

from gweyl import (
    BargmannFn,
    FunctionRep,
    HermiteBasis,
    PhasePoint,
    aw_kernel,
    bargmann,
    bargmann_isometry_defect,
    basis_element,
    coherent_state,
    constant_rep,
    gamma_map,
    leb_coherent_state,
    reproducing_eval,
    seminorm_I,
    weyl_kernel,
    wigner_coherent,
)
from gweyl.bargmann import transform_exact_on_nodes
from gweyl.gaussian import tensor_rule
from conftest import trapezoid_1d


@pytest.mark.parametrize("dim,deg", [(1, 30), (2, 12), (3, 6)])
def test_exact_transform_matches_monomial_sum(dim, deg):
    # the monomial sum prod_j (wbar_j/sqrt(2h))^alpha_j / sqrt(alpha_j!) with
    # powers by repeated products and factorials divided out at the end;
    # float64 rounding over ~deg products: 1e-14 relative is fixed up front
    h = 0.5
    rng = np.random.default_rng(10 + dim)
    basis = HermiteBasis(dim, h, deg)
    f = FunctionRep(basis, rng.normal(size=basis.size)
                    + 1j * rng.normal(size=basis.size))
    nodes = rng.normal(size=(9, 2 * dim))
    wbar = (nodes[:, :dim] - 1j * nodes[:, dim:]) / math.sqrt(2.0 * h)
    sf = np.array([math.sqrt(math.factorial(k)) for k in range(deg + 1)])
    mono = np.ones((basis.size, nodes.shape[0]), dtype=complex)
    for j, alpha in enumerate(basis.indices.T):
        powers = wbar[:, j][None, :] ** np.arange(deg + 1)[:, None]
        mono = mono * (powers / sf[:, None])[alpha]
    want = f.coeffs @ mono
    got = transform_exact_on_nodes(f, nodes)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_transform_of_constant_is_one():
    basis = HermiteBasis(1, 0.5, 8)
    one = constant_rep(basis)
    for Z in [PhasePoint([0.0], [0.0]), PhasePoint([1.5], [-0.7]),
              PhasePoint([-2.0], [1.0])]:
        assert bargmann(one, Z) == pytest.approx(1.0, abs=1e-10)


def test_transform_against_lebesgue_coherent_pairing():
    # T f(Z) e^{-|Z|^2/(4h)} = <gamma f, Psi^Leb_Z> in L^2(lambda)
    h = 1.0
    basis = HermiteBasis(1, h, 10)
    f = coherent_state(PhasePoint([0.3], [0.4]), h, basis)
    for Z in [PhasePoint([0.8], [0.2]), PhasePoint([-0.5], [1.1])]:
        lhs = bargmann(f, Z) * math.exp(-Z.norm_sq / (4 * h))
        psi = leb_coherent_state(Z, h)
        rhs = trapezoid_1d(
            lambda u: np.asarray(gamma_map(f, u)) * np.conj(psi(u)), 12.0, 8001
        )
        assert abs(lhs - rhs) < 1e-6


def test_transform_hermite_frozen_value():
    # first basis element at Z=(1,0), h=1: 30-digit quadrature gives 1/sqrt(2)
    basis = HermiteBasis(1, 1.0, 6)
    val = bargmann(basis_element(basis, [1]), PhasePoint([1.0], [0.0]))
    assert val == pytest.approx(0.70710678118654752, abs=1e-12)


def test_isometry_defects():
    basis = HermiteBasis(1, 1.0, 12)
    assert bargmann_isometry_defect(constant_rep(basis)) < 1e-10
    rng = np.random.default_rng(4)
    coeffs = np.zeros(basis.size, complex)
    coeffs[:5] = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert bargmann_isometry_defect(FunctionRep(basis, coeffs)) < 1e-6
    cs = coherent_state(PhasePoint([0.3], [-0.2]), 1.0, basis)
    assert bargmann_isometry_defect(cs) < 1e-5


def test_isometry_defect_all_elements_dims_1_2():
    for dim, deg in [(1, 6), (2, 6)]:
        basis = HermiteBasis(dim, 0.5, deg)
        for k in range(basis.size):
            f = FunctionRep(basis, np.eye(basis.size, dtype=complex)[k])
            assert bargmann_isometry_defect(f) < 1e-6


def test_reproducing_identity():
    basis = HermiteBasis(1, 0.5, 8)
    one = constant_rep(basis)
    Z = PhasePoint([0.4], [0.9])
    assert reproducing_eval(one, Z) == pytest.approx(1.0, abs=1e-8)
    rng = np.random.default_rng(6)
    for _ in range(3):
        k = int(rng.integers(0, 7))
        Z = PhasePoint(rng.normal(size=1), rng.normal(size=1))
        f = basis_element(basis, [k])
        assert abs(reproducing_eval(f, Z) - bargmann(f, Z)) < 1e-6


def test_split_space_reproducing_dim2():
    # partial reproducing over the first coordinate block, dim 2
    h = 0.5
    basis = HermiteBasis(2, h, 4)
    rng = np.random.default_rng(8)
    cf = rng.normal(size=basis.size)
    cg = rng.normal(size=basis.size)
    f = FunctionRep(basis, cf)
    g = FunctionRep(basis, cg)
    Z1 = np.array([0.3, -0.4])   # (z_1, zeta_1)
    X2 = np.array([0.2, 0.6])    # (x_2, xi_2)
    Y2 = np.array([-0.5, 0.1])
    nodes, w = tensor_rule([h] * 4, 24)   # (x_1, y_1) block pairs
    # lay out full phase nodes (x1, x2 | xi1, xi2)
    fx = np.column_stack([nodes[:, 0], np.full(len(w), X2[0]),
                          nodes[:, 1], np.full(len(w), X2[1])])
    gy = np.column_stack([nodes[:, 2], np.full(len(w), Y2[0]),
                          nodes[:, 3], np.full(len(w), Y2[1])])
    tf = transform_exact_on_nodes(f, fx)
    tg = transform_exact_on_nodes(g, gy)
    wX = nodes[:, 0] + 1j * nodes[:, 1]
    wY = nodes[:, 2] + 1j * nodes[:, 3]
    wZ = Z1[0] + 1j * Z1[1]
    kern = np.exp((wX * np.conj(wZ) + np.conj(wY) * wZ) / (2 * h))
    lhs = complex(w @ (kern * tf * np.conj(tg)))
    zf = np.array([[Z1[0], X2[0], Z1[1], X2[1]]])
    zg = np.array([[Z1[0], Y2[0], Z1[1], Y2[1]]])
    rhs = complex(
        transform_exact_on_nodes(f, zf)[0] * np.conj(transform_exact_on_nodes(g, zg)[0])
    )
    assert abs(lhs - rhs) < 1e-5


def test_kernels_hand_expanded():
    h = 1.0
    Z0 = PhasePoint.zero(1)
    assert weyl_kernel(Z0, Z0, Z0, h) == pytest.approx(1.0)
    assert aw_kernel(Z0, Z0, Z0, h) == pytest.approx(1.0)
    X = PhasePoint([1.0], [0.0])
    assert weyl_kernel(X, X, X, h) == pytest.approx(math.exp(1.5), rel=1e-13)
    assert aw_kernel(X, X, X, h) == pytest.approx(math.exp(1.0), rel=1e-13)
    # mixed phase check in dim 1: exponent assembled by hand
    Xp = PhasePoint([0.3], [0.5])
    Yp = PhasePoint([-0.2], [0.1])
    Zp = PhasePoint([0.7], [-0.4])
    wx, wy, wz = 0.3 + 0.5j, -0.2 + 0.1j, 0.7 - 0.4j
    want = np.exp(
        (wx * np.conj(wz) + np.conj(wy) * wz - 0.5 * wx * np.conj(wy)) / h
    )
    assert weyl_kernel(Xp, Yp, Zp, h) == pytest.approx(want, rel=1e-13)


def test_aw_kernel_is_heat_average_of_weyl_kernel():
    # averaging the symmetric kernel over Z + V/..., V of variance h/4,
    # produces the projection kernel (dim 1)
    h = 0.8
    X = PhasePoint([0.5], [-0.3])
    Y = PhasePoint([0.1], [0.7])
    Zc = PhasePoint([0.4], [0.2])
    nodes, w = tensor_rule([h / 4, h / 4], 48)
    vals = np.array([
        weyl_kernel(X, Y, PhasePoint([v[0] + 0.5 * Zc.x[0]],
                                     [v[1] + 0.5 * Zc.xi[0]]), h)
        for v in nodes
    ])
    avg = complex(w @ vals)
    assert abs(avg - aw_kernel(X, Y, Zc, h)) < 1e-6


def test_weyl_kernel_coherent_wigner_relation():
    h = 0.5
    X = PhasePoint([0.4], [0.2])
    Y = PhasePoint([-0.1], [0.6])
    Z = PhasePoint([0.3], [-0.5])
    lhs = math.exp(-(X.norm_sq + Y.norm_sq) / (4 * h)) * weyl_kernel(X, Y, Z, h)
    assert lhs == pytest.approx(wigner_coherent(X, Y, Z, h), rel=1e-13)


def test_anti_holomorphy_residual():
    basis = HermiteBasis(1, 1.0, 8)
    rng = np.random.default_rng(12)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    fn = BargmannFn(FunctionRep(basis, coeffs))
    grid = rng.normal(size=(12, 2))
    assert fn.cr_residual(grid) < 1e-6


def test_seminorm_values_and_properties():
    basis = HermiteBasis(1, 0.5, 8)
    one = constant_rep(basis)
    assert seminorm_I(one, 0) == pytest.approx(2.0, rel=1e-10)
    b2 = HermiteBasis(2, 0.5, 4)
    assert seminorm_I(constant_rep(b2), 0) == pytest.approx(4.0, rel=1e-8)
    f = basis_element(basis, [3])
    assert seminorm_I(f, 0) <= seminorm_I(f, 1) <= seminorm_I(f, 2)
    assert seminorm_I(f.scaled(-2.5), 1) == pytest.approx(2.5 * seminorm_I(f, 1),
                                                          rel=1e-12)


def test_coherent_expansion_reconstructs_coefficients():
    # f = (2 pi h)^-d int e^{-|X|^2/4h} (T f)(X) Psi_X dX, checked on coefficients
    import warnings

    from gweyl import TruncationWarning

    h = 1.0
    basis = HermiteBasis(1, h, 6)
    rng = np.random.default_rng(23)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    f = FunctionRep(basis, coeffs)
    nodes, w = tensor_rule([2 * h, 2 * h], 60)
    tf = transform_exact_on_nodes(f, nodes)
    rec = np.zeros(basis.size, dtype=complex)
    with warnings.catch_warnings():
        # far-node coherent coefficients are tiny against the weights; the
        # truncation flag is expected there
        warnings.simplefilter("ignore", TruncationWarning)
        for X, wt, tv in zip(nodes, w, tf):
            cs = coherent_state(PhasePoint(X[:1], X[1:]), h, basis)
            rec += wt * tv * cs.coeffs
    rec *= 2.0  # Lebesgue-to-Gaussian conversion factor 2^d
    assert np.abs(rec - coeffs).max() < 1e-4
