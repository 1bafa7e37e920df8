import math

import numpy as np
import pytest

from gweyl import (
    FunctionRep,
    HermiteBasis,
    LowConfidenceWarning,
    PhasePoint,
    WignerGrid,
    basis_element,
    coherent_state,
    constant_rep,
    wigner_coherent,
    wigner_gauss,
    wigner_grid,
    wigner_leb_relation_check,
    wigner_via_bargmann,
)
from gweyl.gaussian import tensor_rule


def test_pair_transform_of_constants_is_one():
    basis = HermiteBasis(1, 1.0, 6)
    one = constant_rep(basis)
    for Z in [PhasePoint([0.0], [0.0]), PhasePoint([1.2], [-0.8]),
              PhasePoint([-0.5], [2.0])]:
        assert wigner_gauss(one, one, Z) == pytest.approx(1.0, abs=1e-10)


def test_pair_transform_coherent_diagonal():
    h = 1.0
    basis = HermiteBasis(1, h, 40)
    X = PhasePoint([0.6], [0.4])
    cs = coherent_state(X, h, basis)
    val = wigner_gauss(cs, cs, X)
    assert val == pytest.approx(math.exp(X.norm_sq / h), rel=1e-8)


def test_pair_transform_frozen_high_precision_values():
    # 30-digit quadrature of the defining oscillatory integral at
    # h = 1/2, Z = (0.8, -0.6), frozen here; both the direct quadrature and
    # the closed-form table must reproduce it
    from gweyl._kernels import wigner_pair_table

    h = 0.5
    Z = PhasePoint([0.8], [-0.6])
    want = {
        (3, 5): 0.16695974231998429733 - 0.57243340223994616228j,
        (2, 2): 1.0 + 0.0j,
    }
    s = np.array([math.sqrt(2 / h) * (Z.x[0] + 1j * Z.xi[0])])
    W = wigner_pair_table(s, 5)
    basis = HermiteBasis(1, h, 5)
    for (k, l), val in want.items():
        assert abs(W[k, l, 0] - val) < 1e-12
        direct = wigner_gauss(basis_element(basis, [k]),
                              basis_element(basis, [l]), Z)
        assert abs(direct - val) < 1e-10


def test_tables_match_quadrature_definition():
    # the closed-form pair table equals the direct oscillatory quadrature
    from gweyl._kernels import wigner_pair_table

    h = 0.5
    basis = HermiteBasis(1, h, 5)
    Z = PhasePoint([0.7], [-0.4])
    s = np.array([math.sqrt(2 / h) * (Z.x[0] + 1j * Z.xi[0])])
    W = wigner_pair_table(s, 5)
    for k, l in [(0, 0), (1, 3), (4, 2)]:
        direct = wigner_gauss(basis_element(basis, [k]),
                              basis_element(basis, [l]), Z)
        assert abs(direct - W[k, l, 0]) < 1e-10


def test_pair_transform_matches_kernel_route(rng):
    basis = HermiteBasis(1, 0.5, 6)
    for _ in range(3):
        cf = rng.normal(size=basis.size)
        cg = rng.normal(size=basis.size)
        f, g = FunctionRep(basis, cf), FunctionRep(basis, cg)
        Z = PhasePoint(rng.normal(size=1), rng.normal(size=1))
        direct = wigner_gauss(f, g, Z)
        kernel = wigner_via_bargmann(f, g, Z)
        assert abs(direct - kernel) < 1e-5


def test_lebesgue_relation():
    h = 1.0
    basis = HermiteBasis(1, h, 6)
    one = constant_rep(basis)
    lhs, rhs = wigner_leb_relation_check(one, one, PhasePoint.zero(1))
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert rhs == pytest.approx(1.0, abs=1e-6)
    rng = np.random.default_rng(17)
    coeffs_f = np.zeros(basis.size, complex)
    coeffs_g = np.zeros(basis.size, complex)
    coeffs_f[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeffs_g[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
    f, g = FunctionRep(basis, coeffs_f), FunctionRep(basis, coeffs_g)
    for _ in range(20):
        Z = PhasePoint(rng.uniform(-1.2, 1.2, 1), rng.uniform(-1.2, 1.2, 1))
        lhs, rhs = wigner_leb_relation_check(f, g, Z)
        assert abs(lhs - rhs) < 1e-5


def test_lebesgue_relation_coherent_states():
    h = 1.0
    basis = HermiteBasis(1, h, 30)
    X = PhasePoint([0.5], [-0.3])
    cs = coherent_state(X, h, basis)
    Z = PhasePoint([0.2], [0.4])
    lhs, rhs = wigner_leb_relation_check(cs, cs, Z)
    closed = wigner_coherent(X, X, Z, h)
    assert abs(lhs - closed) < 1e-6
    assert abs(rhs - closed) < 1e-5


def test_wigner_coherent_closed_values():
    h = 1.0
    Z0 = PhasePoint.zero(1)
    assert wigner_coherent(Z0, Z0, Z0, h) == pytest.approx(1.0)
    X = PhasePoint([1.0], [0.0])
    assert wigner_coherent(X, X, X, h) == pytest.approx(math.e, rel=1e-13)


def test_wigner_coherent_l2_norm_is_one():
    # quadrature L^2(mu_{2, h/4}) norm over Z equals 1
    h = 0.5
    X = PhasePoint([0.4], [0.3])
    Y = PhasePoint([-0.2], [0.6])
    nodes, w = tensor_rule([h / 4, h / 4], 60)
    vals = np.array([
        wigner_coherent(X, Y, PhasePoint(n[:1], n[1:]), h) for n in nodes
    ])
    norm = math.sqrt(float(w @ np.abs(vals) ** 2))
    assert norm == pytest.approx(1.0, abs=1e-5)


def test_via_bargmann_constant_and_bilinearity():
    basis = HermiteBasis(1, 0.5, 5)
    one = constant_rep(basis)
    Z = PhasePoint([0.3], [0.1])
    assert wigner_via_bargmann(one, one, Z) == pytest.approx(1.0, abs=1e-7)
    f = basis_element(basis, [2])
    doubled = f.scaled(2.0)
    assert wigner_via_bargmann(doubled, one, Z) == pytest.approx(
        2.0 * wigner_via_bargmann(f, one, Z), rel=1e-10
    )


def test_pointwise_growth_bound(rng):
    basis = HermiteBasis(1, 0.7, 8)
    cf = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    cg = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    f, g = FunctionRep(basis, cf), FunctionRep(basis, cg)
    for _ in range(10):
        Z = PhasePoint(rng.normal(size=1), rng.normal(size=1))
        val = abs(wigner_gauss(f, g, Z))
        assert val <= math.exp(Z.norm_sq / 0.7) * f.norm * g.norm * (1 + 1e-9)


def test_l2_norm_bound(rng):
    # || W(f,g) ||_{L^2(mu_{2d, h/4})} <= ||f|| ||g||
    h = 1.0
    basis = HermiteBasis(1, h, 5)
    cf = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    cg = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    f, g = FunctionRep(basis, cf), FunctionRep(basis, cg)
    nodes, w = tensor_rule([h / 4, h / 4], 48)
    vals = wigner_grid(f, g, nodes[:, :1], nodes[:, 1:]).values
    norm = math.sqrt(float(w @ np.abs(vals) ** 2))
    assert norm <= f.norm * g.norm * (1 + 1e-6)


def test_l1_norm_finite_and_stable():
    h = 1.0
    basis = HermiteBasis(1, h, 4)
    f = basis_element(basis, [2])
    g = basis_element(basis, [3])

    def l1(order):
        nodes, w = tensor_rule([h / 2, h / 2], order)
        vals = wigner_grid(f, g, nodes[:, :1], nodes[:, 1:]).values
        return float(w @ np.abs(vals))

    a, b = l1(48), l1(64)
    assert math.isfinite(a)
    assert abs(a - b) < 0.01 * abs(b)


def test_sesquilinearity():
    basis = HermiteBasis(1, 0.5, 4)
    f = basis_element(basis, [1])
    g = basis_element(basis, [2])
    alpha = 0.7 - 1.3j
    Z = PhasePoint([0.2], [0.5])
    lhs = wigner_gauss(f, g.scaled(alpha), Z)
    rhs = np.conj(alpha) * wigner_gauss(f, g, Z)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_low_confidence_warning_on_extreme_oscillation():
    basis = HermiteBasis(1, 0.1, 3)
    one = constant_rep(basis)
    Z = PhasePoint([0.0], [6.0])  # |zeta|^2/h = 360: eps e^360 swamps the value
    with pytest.warns(LowConfidenceWarning):
        wigner_gauss(one, one, Z)
    from gweyl.wigner import oscillation_order

    assert oscillation_order(100.0, cap=500) == 500
    assert oscillation_order(1.0) == 64


def test_quadrature_warns_where_cancellation_swamps_it():
    # coherent f = g at X = (0.3, -0.2), h = 1/2, degree 30, on the
    # `gweyl wigner` grid (21 x 21, zmax 2): at zetamax 4 the quadrature is
    # off by up to 4e-2 of the grid maximum, and must say so on the edge
    # rows |zeta| = 4; at the default zetamax 2 it is good to 2e-13 of the
    # maximum and must stay silent everywhere
    import warnings

    h = 0.5
    cs = coherent_state(PhasePoint([0.3], [-0.2]), h, HermiteBasis(1, h, 30))
    for z in np.linspace(-2, 2, 21):
        for zeta in (-4.0, 4.0):
            with pytest.warns(LowConfidenceWarning):
                wigner_gauss(cs, cs, PhasePoint([z], [zeta]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", LowConfidenceWarning)
        for z in np.linspace(-2, 2, 21):
            for zeta in np.linspace(-2, 2, 21):
                wigner_gauss(cs, cs, PhasePoint([z], [zeta]))


def test_grid_csv_roundtrip(tmp_path):
    basis = HermiteBasis(1, 0.5, 3)
    f = basis_element(basis, [1])
    zs = np.linspace(-1, 1, 5)[:, None]
    zetas = np.zeros((5, 1))
    grid = wigner_grid(f, f, zs, zetas)
    assert isinstance(grid, WignerGrid)
    assert np.all(grid.bound_defects(f.norm, f.norm) <= 1e-9)
    path = tmp_path / "grid.csv"
    grid.to_csv(path, {"seed": 0})
    text = path.read_text().splitlines()
    assert text[0].startswith("# seed=")
    assert text[1].split(",") == ["z0", "zeta0", "re", "im"]
    data = np.array([[float(v) for v in row.split(",")] for row in text[2:]])
    np.testing.assert_allclose(data[:, 2] + 1j * data[:, 3], grid.values,
                               rtol=0, atol=1e-15)
