import json
import math

import numpy as np
import pytest

from gweyl import (
    FunctionRep,
    HermiteBasis,
    InputError,
    PhasePoint,
    TruncationWarning,
    basis_element,
    coherent_overlap,
    coherent_state,
    constant_rep,
    gamma_map,
    gauss_quadrature,
    leb_coherent_state,
    multi_indices,
    project,
)
from conftest import trapezoid_1d


def gram(basis, order=None):
    rule = basis.default_rule(order)
    tab = basis.eval_table(rule.nodes)
    return (tab * rule.weights) @ tab.T


def test_orthonormality_dims_1_and_2():
    for dim, h, deg in [(1, 1.0, 16), (1, 0.5, 12), (2, 0.5, 6)]:
        basis = HermiteBasis(dim, h, deg)
        G = gram(basis, 48 if dim == 2 else None)
        off = np.abs(G - np.eye(basis.size)).max()
        assert off < 1e-8


def test_scaled_powers():
    from gweyl._kernels import _scaled_powers

    s = np.array([1.0, -0.5 + 2.0j, 0.0])
    want = [s**k / math.sqrt(math.factorial(k)) for k in range(6)]
    np.testing.assert_allclose(_scaled_powers(s, 5), want, rtol=1e-14, atol=0)


def test_graded_lex_ordering():
    idx = multi_indices(2, 2)
    totals = idx.sum(axis=1)
    assert np.all(np.diff(totals) >= 0)
    assert idx[0].tolist() == [0, 0]
    # within a degree block, lexicographic
    assert idx[1].tolist() == [0, 1] and idx[2].tolist() == [1, 0]


def test_gamma_map_constant_at_zero():
    basis = HermiteBasis(1, 1.0, 4)
    f = constant_rep(basis)
    assert gamma_map(f, [[0.0]]) == pytest.approx(math.pi ** -0.25, rel=1e-14)


def test_gamma_map_isometry():
    basis = HermiteBasis(1, 0.8, 8)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    f = FunctionRep(basis, coeffs)
    leb = trapezoid_1d(lambda x: np.abs(np.asarray(gamma_map(f, x))) ** 2, 14.0, 8001)
    assert math.sqrt(leb) == pytest.approx(f.norm, abs=1e-8)


def test_gamma_of_basis_is_classical_hermite_function():
    # gamma e_k (x) = h^(-1/4) psi_k(x / sqrt(h)) with the physicists' Hermite
    # functions psi_k(t) = (2^k k! sqrt(pi))^(-1/2) H_k(t) e^(-t^2/2), k <= 4
    H = [
        lambda t: np.ones_like(t),
        lambda t: 2 * t,
        lambda t: 4 * t**2 - 2,
        lambda t: 8 * t**3 - 12 * t,
        lambda t: 16 * t**4 - 48 * t**2 + 12,
    ]
    h = 0.7
    basis = HermiteBasis(1, h, 4)
    xs = np.linspace(-3, 3, 41)[:, None]
    for k in range(5):
        got = np.asarray(gamma_map(basis_element(basis, [k]), xs))
        t = xs[:, 0] / math.sqrt(h)
        psi = (2**k * math.factorial(k) * math.sqrt(math.pi)) ** -0.5 \
            * H[k](t) * np.exp(-t * t / 2)
        want = h ** -0.25 * psi
        np.testing.assert_allclose(got.real, want, atol=1e-12)


def test_project_recovers_basis_and_constant():
    basis = HermiteBasis(1, 1.0, 10)
    f3 = basis_element(basis, [3])
    rep = project(lambda x: np.asarray(f3(x)), basis)
    np.testing.assert_allclose(rep.coeffs, f3.coeffs, atol=1e-8)
    repc = project(lambda x: 2.5 * np.ones(x.shape[0]), basis)
    want = np.zeros(basis.size, complex)
    want[0] = 2.5
    np.testing.assert_allclose(repc.coeffs, want, atol=1e-10)


def test_project_exponential_generating_expansion():
    # coefficients of e^{a u} in the orthonormal family: e^{a^2 v/2} (a sqrt(v))^k / sqrt(k!)
    h, a = 1.0, 0.8
    v = h / 2
    basis = HermiteBasis(1, h, 6)
    rep = project(lambda x: np.exp(a * x[:, 0]), basis)
    want = np.array([
        math.exp(a * a * v / 2) * (a * math.sqrt(v)) ** k / math.sqrt(math.factorial(k))
        for k in range(7)
    ])
    np.testing.assert_allclose(rep.coeffs.real, want, atol=1e-10)


def test_parseval_at_truncation():
    basis = HermiteBasis(2, 1.0, 8)
    rng = np.random.default_rng(9)
    coeffs = np.zeros(basis.size, complex)
    low = basis.indices.max(axis=1) <= 4
    coeffs[low] = rng.normal(size=low.sum()) + 1j * rng.normal(size=low.sum())
    f = FunctionRep(basis, coeffs)
    rec = project(lambda x: np.asarray(f(x)), basis, basis.default_rule(40))
    assert np.abs(rec.coeffs - coeffs).max() < 1e-8


def test_coherent_state_zero_is_constant():
    basis = HermiteBasis(2, 0.5, 5)
    cs = coherent_state(PhasePoint.zero(2), 0.5, basis)
    want = np.zeros(basis.size, complex)
    want[0] = 1.0
    np.testing.assert_allclose(cs.coeffs, want, atol=1e-15)
    assert not cs.underresolved


def test_coherent_state_norm_and_overlap():
    h = 0.5
    basis = HermiteBasis(1, h, 24)
    rng = np.random.default_rng(3)
    for _ in range(4):
        X = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
        scale = 2 * math.sqrt(h) / max(1.0, math.sqrt(X.norm_sq))
        X = PhasePoint(X.x * scale, X.xi * scale)
        cs = coherent_state(X, h, basis)
        assert cs.norm == pytest.approx(1.0, abs=1e-7)
    U = PhasePoint([0.4], [-0.3])
    V = PhasePoint([-0.2], [0.5])
    cu = coherent_state(U, h, basis)
    cv = coherent_state(V, h, basis)
    assert abs(cu.inner(cv) - coherent_overlap(U, V, h)) < 1e-6


def test_coherent_state_matches_quadrature_projection():
    h = 1.0
    basis = HermiteBasis(1, h, 18)
    X = PhasePoint([0.5], [-0.8])
    w = X.x[0] + 1j * X.xi[0]
    phase = -0.5 * X.x[0] ** 2 / h - 0.5j * X.x[0] * X.xi[0] / h
    rep = project(lambda u: np.exp(u[:, 0] * w / h + phase), basis)
    cs = coherent_state(X, h, basis)
    np.testing.assert_allclose(cs.coeffs, rep.coeffs, atol=1e-10)


def _coherent_reference(X, h, basis):
    # per coordinate e^{-|X_j|^2/(4h)} (w_j/sqrt(2h))^k / sqrt(k!) by
    # recurrence in k, then the product over the basis multi-degrees
    per_coord = []
    for a, b in zip(X.x, X.xi):
        c = np.empty(basis.max_degree + 1, dtype=complex)
        c[0] = math.exp(-(a * a + b * b) / (4.0 * h))
        for k in range(basis.max_degree):
            c[k + 1] = c[k] * complex(a, b) / math.sqrt(2.0 * h) / math.sqrt(k + 1)
        per_coord.append(c)
    out = np.ones(basis.size, dtype=complex)
    for j, alpha in enumerate(basis.indices.T):
        out = out * per_coord[j][alpha]
    return out


@pytest.mark.filterwarnings("ignore::gweyl.hermite.TruncationWarning")
@pytest.mark.parametrize("dim,deg", [(1, 30), (2, 12), (3, 6)])
def test_coherent_state_matches_recurrence(dim, deg):
    # float64 rounding over ~deg products: 1e-14 relative is fixed up front
    rng = np.random.default_rng(dim)
    basis = HermiteBasis(dim, 0.5, deg)
    for _ in range(4):
        X = PhasePoint(rng.normal(size=dim), rng.normal(size=dim))
        got = coherent_state(X, 0.5, basis).coeffs
        want = _coherent_reference(X, 0.5, basis)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_coherent_overlap_closed_forms():
    h = 0.5
    U = PhasePoint([0.7], [0.1])
    assert coherent_overlap(U, U, h) == pytest.approx(1.0)
    a = np.array([0.9])
    A = PhasePoint(a, [0.0])
    Z0 = PhasePoint.zero(1)
    assert coherent_overlap(A, Z0, h) == pytest.approx(
        math.exp(-float(a @ a) / (4 * h))
    )


def test_coherent_overlap_positivity(rng):
    h = 0.7
    for _ in range(20):
        U = PhasePoint(rng.normal(size=2), rng.normal(size=2))
        V = PhasePoint(rng.normal(size=2), rng.normal(size=2))
        val = abs(coherent_overlap(U, V, h))
        assert val <= 1.0 + 1e-14
    assert abs(coherent_overlap(U, U, h)) == pytest.approx(1.0)


def test_truncation_warning_for_large_center():
    basis = HermiteBasis(1, 0.5, 6)
    X = PhasePoint([3.0], [0.0])
    with pytest.warns(TruncationWarning):
        cs = coherent_state(X, 0.5, basis)
    assert cs.underresolved


def test_leb_coherent_norm_and_gamma_relation(rng):
    h = 0.8
    X = PhasePoint([0.4], [-0.6])
    psi = leb_coherent_state(X, h)
    nrm = trapezoid_1d(lambda u: np.abs(psi(u)) ** 2, 12.0, 8001)
    assert nrm == pytest.approx(1.0, abs=1e-8)
    # gamma(coherent expansion) equals the Lebesgue coherent state pointwise
    basis = HermiteBasis(1, h, 60)
    cs = coherent_state(X, h, basis)
    pts = rng.normal(size=(100, 1)) * math.sqrt(h)
    lhs = np.asarray(gamma_map(cs, pts))
    rhs = psi(pts)
    assert np.abs(lhs - rhs).max() < 1e-8


def test_leb_coherent_resolution_of_identity():
    # (2 pi h)^-1 int <f, Psi_X><Psi_X, g> dX = <f, g> for low-degree pairs
    h = 1.0
    basis = HermiteBasis(1, h, 3)
    rule = gauss_quadrature(1, h / 2, 80)

    def leb_inner(u_fun, v_fun, half=10.0, n=301):
        xs = np.linspace(-half, half, n)
        vals = np.asarray(u_fun(xs[:, None])) * np.conj(np.asarray(v_fun(xs[:, None])))
        return np.trapezoid(vals, xs)

    reps = [basis_element(basis, [k]) for k in range(3)]
    half = 6.0
    npts = 61
    grid = np.linspace(-half, half, npts)
    dA = (grid[1] - grid[0]) ** 2
    for f in reps[:2]:
        for g in reps[:2]:
            total = 0.0
            for a in grid:
                for bb in grid:
                    psi = leb_coherent_state(PhasePoint([a], [bb]), h)
                    fa = leb_inner(lambda u: np.asarray(gamma_map(f, u)), psi)
                    ag = leb_inner(psi, lambda u: np.asarray(gamma_map(g, u)))
                    total += fa * ag
            total *= dA / (2 * math.pi * h)
            want = f.inner(g)
            assert abs(total - want) < 1e-4


def test_function_rep_json_roundtrip():
    basis = HermiteBasis(2, 0.5, 3)
    rng = np.random.default_rng(2)
    f = FunctionRep(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size))
    f.coeffs[:3] = [-0.0, complex(0.0, -0.0), complex(-0.0, 1e-300)]
    text = f.to_json()
    g = FunctionRep.from_json(text)
    assert g.basis == basis
    # exact round trip, signed zeros included
    assert g.coeffs.tobytes() == f.coeffs.tobytes()
    payload = json.loads(text)
    assert set(payload) == {"dim", "h", "max_degree", "coeffs"}
    per_entry = json.dumps({"dim": 2, "h": 0.5, "max_degree": 3, "coeffs": [
        [float(z.real), float(z.imag)] for z in f.coeffs]})
    assert text == per_entry


def test_function_rep_shape_validation():
    basis = HermiteBasis(1, 1.0, 3)
    with pytest.raises(InputError):
        FunctionRep(basis, np.ones(7))
