import itertools
import json
import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from gweyl import (
    CoordinateSplit,
    HermiteBasis,
    IndexLadder,
    InputError,
    OperatorMatrix,
    PhasePoint,
    antiwick_equals_smoothed_weyl_check,
    antiwick_matrix,
    coherent_overlap,
    coherent_state,
    constant_rep,
    cv_bound,
    heat_full,
    hybrid_matrix,
    ladder_run,
    make_constant,
    make_exponential,
    make_fourier_measure,
    make_lattice,
    norm_NIm,
    operator_norm,
    oracle_U,
    quantize_fourier_measure,
    seminorm_I,
    smooth_symbol,
    weyl_form,
    weyl_matrix,
    weyl_matrix_classical,
    wick_symbol,
)
from gweyl import quantize
from gweyl.heat import op_T_I
from gweyl.quantize import _reindex
from gweyl.symbols import LatticeSymbolParams, SymbolDescriptor
from gweyl.gaussian import tensor_rule

H = 0.5


def random_trig_symbol(rng, dim=1, n_atoms=4, freq=2.0, positive=True):
    atoms = []
    for _ in range(n_atoms):
        c = rng.uniform(0.05, 0.4) if positive else rng.normal()
        a = rng.uniform(-freq, freq, dim)
        atoms.append((c, a, rng.uniform(-freq, freq, dim)))
    return make_fourier_measure(atoms)


def real_trig_symbol(rng, dim=1, n_atoms=3, freq=2.0):
    """Real-valued bounded symbol: conjugate-symmetric atom pairs."""
    atoms = []
    for _ in range(n_atoms):
        c = rng.uniform(0.1, 0.5)
        a = rng.uniform(-freq, freq, dim)
        b = rng.uniform(-freq, freq, dim)
        atoms.append((0.5 * c, a, b))
        atoms.append((0.5 * c, -a, -b))
    return make_fourier_measure(atoms)


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

def test_weyl_form_of_one_is_inner_product(rng):
    basis = HermiteBasis(1, H, 8)
    one = make_constant(1.0, 1)
    cf = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    cg = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    from gweyl import FunctionRep

    f, g = FunctionRep(basis, cf), FunctionRep(basis, cg)
    assert weyl_form(one, f, g) == pytest.approx(f.inner(g), rel=1e-7)


def test_weyl_form_linear_symbol_odd_moment():
    basis = HermiteBasis(1, H, 6)
    lin = SymbolDescriptor(
        1, lambda z, zeta: (1.7 * z[:, 0]).astype(complex), name="a.z",
        growth="polynomial", poly_degree=1,
    )
    one = constant_rep(basis)
    assert abs(weyl_form(lin, one, one)) < 1e-12


def test_weyl_form_exponential_matches_oracle_pairing(rng):
    basis = HermiteBasis(1, H, 12)
    a, b = [1.2], [-0.9]
    F = make_exponential(a, b)
    U = oracle_U(a, b, H, basis)
    from gweyl import FunctionRep

    for _ in range(3):
        cf = rng.normal(size=basis.size)
        cg = rng.normal(size=basis.size)
        f, g = FunctionRep(basis, cf), FunctionRep(basis, cg)
        lhs = weyl_form(F, f, g)
        rhs = complex(np.conj(cg) @ U.entries @ cf)
        assert abs(lhs - rhs) < 1e-5


def test_undeclared_growth_rejected():
    basis = HermiteBasis(1, H, 4)
    bad = SymbolDescriptor(1, lambda z, zeta: np.ones(z.shape[0], complex),
                           name="bad", growth="wild")
    one = constant_rep(basis)
    with pytest.raises(InputError):
        weyl_form(bad, one, one)


# ---------------------------------------------------------------------------
# classical-kernel oracle
# ---------------------------------------------------------------------------

def test_classical_identity():
    basis = HermiteBasis(1, H, 8)
    M = weyl_matrix_classical(make_constant(1.0, 1), basis)
    assert np.abs(M.entries - np.eye(basis.size)).max() < 1e-6


def test_classical_linear_symbol_is_multiplier_plus_derivative():
    # Op(a z + b zeta) = l_{a+ib} . + (h/i) b d/du in the Gaussian basis
    h = H
    basis = HermiteBasis(1, h, 8)
    a, b = 0.9, -0.6
    lin = SymbolDescriptor(
        1, lambda z, zeta: (a * z[:, 0] + b * zeta[:, 0]).astype(complex),
        name="linear", growth="polynomial", poly_degree=1,
    )
    M = weyl_matrix_classical(lin, basis)
    v = h / 2
    n = basis.size
    want = np.zeros((n, n), complex)
    for l in range(n):
        if l + 1 < n:
            want[l + 1, l] += (a + 1j * b) * math.sqrt(v) * math.sqrt(l + 1)
        if l - 1 >= 0:
            want[l - 1, l] += (a + 1j * b) * math.sqrt(v) * math.sqrt(l)
            want[l - 1, l] += (h / 1j) * b * math.sqrt(l / v)
    assert np.abs(M.entries - want).max() < 1e-5
    # dual-path: the quadratic-form route agrees
    Mw = weyl_matrix(lin, basis)
    assert np.abs(Mw.entries - want).max() < 1e-8


def test_classical_vs_form_random_bounded(rng):
    basis = HermiteBasis(1, H, 8)
    for _ in range(2):
        F = random_trig_symbol(rng, positive=False)
        Mc = weyl_matrix_classical(F, basis)
        Mw = weyl_matrix(F, basis)
        assert np.abs(Mc.entries - Mw.entries).max() < 1e-4


def _classical_1d_xi_loop(F, basis, xs, wx, xis, wxi):
    # brute-force reference: F and the phase at every (x, y, xi) triple
    from gweyl.hermite import FunctionRep, gamma_map

    h = basis.h
    gb = np.array([
        np.asarray(gamma_map(FunctionRep(basis, np.eye(basis.size)[k]),
                             xs[:, None]))
        for k in range(basis.size)
    ])
    mid = 0.5 * (xs[:, None] + xs[None, :])
    diff = xs[:, None] - xs[None, :]
    M1 = np.zeros((xs.size, xs.size), dtype=complex)
    flat_mid = mid.reshape(-1, 1)
    for k, xi in enumerate(xis):
        fv = F(flat_mid, np.full_like(flat_mid, xi)).reshape(mid.shape)
        M1 += (wxi[k] * fv) * np.exp(1j * diff * xi / h)
    gw = gb * wx[None, :]
    return (gw.conj() @ M1 @ gw.T) / (2.0 * math.pi * h)


def test_classical_factored_kernel_matches_xi_loop(rng):
    from gweyl.quantize import _classical_1d, _simpson_weights

    basis = HermiteBasis(1, H, 6)
    xs, xis = np.linspace(-6.0, 6.0, 41), np.linspace(-5.0, 5.0, 61)
    wx = _simpson_weights(xs.size, xs[1] - xs[0])
    wxi = _simpson_weights(xis.size, xis[1] - xis[0])
    quad = SymbolDescriptor(
        1, lambda z, zeta: np.exp(-0.3 * z[:, 0] ** 2 - 0.4 * z[:, 0] * zeta[:, 0]
                                  - 0.5 * zeta[:, 0] ** 2 + 0.7j * z[:, 0]),
        name="quadratic",
    )
    for F in (random_trig_symbol(rng, positive=False), quad):
        got = _classical_1d(F, basis, xs, wx, xis, wxi)
        want = _classical_1d_xi_loop(F, basis, xs, wx, xis, wxi)
        assert np.abs(got - want).max() < 1e-12


def test_classical_matches_weyl_at_degree_16():
    basis = HermiteBasis(1, H, 16)
    F = make_exponential([0.7], [-0.4])
    Mc = weyl_matrix_classical(F, basis)
    Mw = weyl_matrix(F, basis)
    assert np.abs(Mc.entries - Mw.entries).max() < 1e-10


def test_classical_identity_cache_is_bounded(monkeypatch):
    import gweyl.quantize as q

    monkeypatch.setattr(q, "_DIAG_CACHE", {})
    monkeypatch.setattr(q, "_DIAG_CACHE_CAP", 2)
    one = make_constant(1.0, 1)
    grids = []
    for deg in (1, 2, 3):
        M = weyl_matrix_classical(one, HermiteBasis(1, H, deg), oversample=1.5)
        grids.append(M.meta["grid"])
    assert len(q._DIAG_CACHE) == 2
    assert sorted(key[4] for key in q._DIAG_CACHE) == \
        sorted(g[1] for g in grids[1:])


def test_classical_resolution_diagnostic(monkeypatch):
    from gweyl.errors import NumericalError
    import gweyl.quantize as q

    basis = HermiteBasis(1, H, 8)
    monkeypatch.setattr(q, "_DIAG_CACHE", {})
    with pytest.raises(NumericalError):
        weyl_matrix_classical(make_constant(1.0, 1), basis, oversample=0.6)


def test_classical_dim2_atoms_kron():
    basis = HermiteBasis(2, H, 4)
    F = make_exponential([1.1, 0.4], [0.7, -0.3])
    Mc = weyl_matrix_classical(F, basis)
    Mw = weyl_matrix(F, basis)
    assert np.abs(Mc.entries - Mw.entries).max() < 1e-4


# ---------------------------------------------------------------------------
# positive quantization
# ---------------------------------------------------------------------------

def test_antiwick_identity_and_quadratic_moment():
    basis = HermiteBasis(1, H, 10)
    Ma = antiwick_matrix(make_constant(1.0, 1), basis)
    assert np.abs(Ma.entries - np.eye(basis.size)).max() < 1e-6
    zsq = SymbolDescriptor(
        1, lambda z, zeta: (z[:, 0] ** 2).astype(complex), name="z^2",
        growth="polynomial", poly_degree=2,
    )
    M = antiwick_matrix(zsq, basis)
    assert M.entries[0, 0] == pytest.approx(H, rel=1e-10)


def test_antiwick_spectral_contraction(rng):
    basis = HermiteBasis(1, H, 10)
    for _ in range(5):
        F = random_trig_symbol(rng, positive=True)
        assert operator_norm(antiwick_matrix(F, basis)) <= F.sup_norm + 1e-6


def test_antiwick_equals_smoothed_weyl():
    basis = HermiteBasis(1, H, 10)
    assert antiwick_equals_smoothed_weyl_check(make_constant(1.0, 1), basis) < 1e-8
    F = make_exponential([1.3], [-0.8])
    assert antiwick_equals_smoothed_weyl_check(F, basis) < 1e-5
    rng = np.random.default_rng(41)
    G = random_trig_symbol(rng, positive=False)
    assert antiwick_equals_smoothed_weyl_check(G, basis) < 1e-4


# ---------------------------------------------------------------------------
# hybrid operators
# ---------------------------------------------------------------------------

def test_hybrid_edge_splits(rng):
    basis = HermiteBasis(1, H, 10)
    F = random_trig_symbol(rng)
    Mw = weyl_matrix(F, basis)
    Ma = antiwick_matrix(F, basis)
    assert np.array_equal(
        hybrid_matrix(F, CoordinateSplit(1, (0,)), basis).entries, Mw.entries
    )
    assert np.array_equal(
        hybrid_matrix(F, CoordinateSplit(1, ()), basis).entries, Ma.entries
    )


def test_dense_dim2_blocks_match_kron_of_dim1():
    # a separable generic symbol: the blocked dim-2 grid must reproduce the
    # tensor product of the two dim-1 dense matrices; order 10 gives 100
    # first-coordinate nodes, so the last block of rows is partial
    f1 = lambda z, zeta: np.exp(-0.3 * z**2 - 0.2 * z * zeta - 0.6 * zeta**2)
    f2 = lambda z, zeta: np.exp(-0.5 * z**2 + 0.1 * z * zeta - 0.4 * zeta**2
                                + 0.8j * zeta)
    F = SymbolDescriptor(2, lambda z, zeta: f1(z[:, 0], zeta[:, 0])
                         * f2(z[:, 1], zeta[:, 1]), name="separable")
    F1 = SymbolDescriptor(1, lambda z, zeta: f1(z[:, 0], zeta[:, 0]))
    F2 = SymbolDescriptor(1, lambda z, zeta: f2(z[:, 0], zeta[:, 0]))
    basis, b1 = HermiteBasis(2, H, 3), HermiteBasis(1, H, 3)
    M = hybrid_matrix(F, CoordinateSplit(2, (0,)), basis, order=10)
    want = _reindex(np.kron(weyl_matrix(F1, b1, order=10).entries,
                            antiwick_matrix(F2, b1, order=10).entries), basis)
    assert np.abs(M.entries - want).max() < 1e-13


def _site_table_grid_sweep(entries, mode, h, deg, moff, nmax):
    # brute-force reference: every frequency's site factor on the whole
    # q x q grid, contracted against the pair table
    import gweyl.quantize as q
    from gweyl.symbols import _chain_site_factor

    order = q._grid_order(mode, h, 64, float(nmax + 6))
    nodes, w = q._coord_grid(h, mode, order)
    tbl = q._coord_table(h, mode, deg, nodes)
    facs = np.stack([_chain_site_factor(entries, m, nodes[:, 0], nodes[:, 1])
                     for m in range(-moff, moff + 1)])
    return np.einsum("mi,lki->mkl", facs * w[None, :], tbl, optimize=True)


@pytest.mark.parametrize("mode", ["weyl", "aw"])
@pytest.mark.parametrize("degree", [3, 8])
def test_chain_site_table_matches_grid_sweep(monkeypatch, mode, degree):
    import gweyl.quantize as q
    from gweyl.heat import op_T_I

    monkeypatch.setattr(q, "_SITE_TABLE_CACHE", {})
    F = make_lattice(LatticeSymbolParams(d=1, g=(0.5, 0.35, 0.25), t=1.0,
                                         V="cos"), 2)
    one = F.chain
    two = op_T_I(F, (1,), H).chain       # Id - smoothing: two entries at site 1
    for data, j, n_entries in ((one, 1, 1), (two, 1, 2)):
        entries = data.site[j]
        assert len(entries) == n_entries
        got = q._chain_site_table(entries, mode, H, degree, data.mrange,
                                  data.nmax, None)
        want = _site_table_grid_sweep(entries, mode, H, degree, data.mrange,
                                      data.nmax)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_chain_site_table_cache_is_bounded(monkeypatch):
    import gweyl.quantize as q

    monkeypatch.setattr(q, "_SITE_TABLE_CACHE", {})
    monkeypatch.setattr(q, "_SITE_TABLE_CACHE_CAP", 2)
    data = make_lattice(LatticeSymbolParams(d=1, g=(0.3, 0.2), t=0.5, V="cos"),
                        2).chain
    first = q._chain_site_table(data.site[0], "weyl", H, 1, data.mrange,
                                data.nmax, None)
    for deg in (2, 3):
        q._chain_site_table(data.site[0], "weyl", H, deg, data.mrange,
                            data.nmax, None)
    assert len(q._SITE_TABLE_CACHE) == 2
    assert sorted(key[3] for key in q._SITE_TABLE_CACHE) == [2, 3]
    again = q._chain_site_table(data.site[0], "weyl", H, 1, data.mrange,
                                data.nmax, None)
    assert np.array_equal(again, first)


def test_chain_contract_rejects_a_narrow_site_axis():
    # bond index n in [-1, 1] reaches site frequencies in [-2, 2]; a site
    # axis of [-1, 1] must raise rather than wrap a negative index
    from gweyl._kernels import chain_contract

    U = np.ones((2, 3, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        chain_contract(U, np.ones((1, 3)))
    assert chain_contract(U, np.ones((1, 1))).shape == (4, 4)


@pytest.mark.parametrize("selected", [(0, 1), (), (0,)])
def test_chain_route_matches_dense_route(selected):
    # A weak coupling keeps the Bessel series short (nmax = 7), so the dense
    # order-48 grid resolves the symbol; measured max entry difference
    # 8.3e-15 (Weyl), 1.3e-15 (anti-Wick), 4.6e-15 (hybrid) on entries <= 0.94.
    # The 1-site lattice (no bonds) takes the same chain_contract route.
    import dataclasses

    for g in ((0.3, 0.2), (0.3,)):
        D = len(g)
        F = make_lattice(LatticeSymbolParams(d=1, g=g, t=0.5, V="cos"), 2)
        dense = dataclasses.replace(F, chain=None)
        basis = HermiteBasis(D, H, 3)
        split = CoordinateSplit(D, tuple(j for j in selected if j < D))
        got = hybrid_matrix(F, split, basis).entries
        want = hybrid_matrix(dense, split, basis).entries
        assert np.abs(got - want).max() < 1e-12


def test_hybrid_tensor_factorization():
    basis2 = HermiteBasis(2, H, 5)
    basis1 = HermiteBasis(1, H, 5)
    F2 = make_exponential([1.1, 0.4], [0.7, -0.3])
    Mh = hybrid_matrix(F2, CoordinateSplit(2, (0,)), basis2)
    w0 = weyl_matrix(make_exponential([1.1], [0.7]), basis1).entries
    a1 = antiwick_matrix(make_exponential([0.4], [-0.3]), basis1).entries
    want = _reindex(np.kron(w0, a1), basis2)
    assert np.abs(Mh.entries - want).max() < 1e-5


def test_hybrid_nesting(rng):
    # hybrid on E1 equals hybrid on E2 of the symbol smoothed over E2 - E1
    basis = HermiteBasis(2, H, 5)
    F = random_trig_symbol(rng, dim=2)
    lhs = hybrid_matrix(F, CoordinateSplit(2, (0,)), basis)
    G = smooth_symbol(F, [1], H / 2)
    rhs = hybrid_matrix(G, CoordinateSplit(2, (0, 1)), basis)
    assert np.abs(lhs.entries - rhs.entries).max() < 1e-5


def test_hermiticity_of_real_symbols(rng):
    basis = HermiteBasis(1, H, 10)
    F = real_trig_symbol(rng)
    assert weyl_matrix(F, basis).hermiticity_defect() < 1e-6
    assert antiwick_matrix(F, basis).hermiticity_defect() < 1e-6


# ---------------------------------------------------------------------------
# translation-phase oracle and Fourier measures
# ---------------------------------------------------------------------------

def test_oracle_U_identity_and_unitarity():
    basis = HermiteBasis(1, H, 24)
    U0 = oracle_U([0.0], [0.0], H, basis)
    assert np.abs(U0.entries - np.eye(basis.size)).max() < 1e-12
    # compressed unitarity on the low block: U*U = I up to truncation leakage
    U = oracle_U([0.4], [0.3], H, basis)
    prod = U.entries.conj().T @ U.entries
    low = 12
    assert np.abs(prod[:low, :low] - np.eye(low)).max() < 1e-5


def test_oracle_U_frozen_high_precision_entry():
    # 30-digit quadrature of <U e_1, e_2> at a=0.7, b=-0.5, h=1/2
    U = oracle_U([0.7], [-0.5], H, HermiteBasis(1, H, 4))
    want = 0.29250237763311261722 + 0.4095033286863576641j
    assert abs(U.entries[2, 1] - want) < 1e-12


@pytest.mark.parametrize("degree", [16, 24, 30, 64, 100])
def test_weyl_exponential_matches_oracle_at_high_degree(degree):
    # the pair table must stay exact where an alternating sum over the
    # Laguerre coefficients would cancel catastrophically, and the atom
    # closed form where a fixed quadrature grid would under-resolve it
    rng = np.random.default_rng(degree)
    basis = HermiteBasis(1, H, degree)
    for _ in range(3):
        a, b = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)
        F = make_exponential(a, b)
        U = oracle_U(a, b, H, basis).entries
        assert np.abs(weyl_matrix(F, basis).entries - U).max() < 1e-10
        damp = math.exp(-0.25 * H * float(a @ a + b @ b))
        assert np.abs(antiwick_matrix(F, basis).entries - damp * U).max() < 1e-10


def test_oracle_U_coherent_matrix_elements():
    h = H
    basis = HermiteBasis(1, h, 40)
    a, b = np.array([0.7]), np.array([-0.5])
    U = oracle_U(a, b, h, basis)
    X = PhasePoint([0.3], [0.2])
    Y = PhasePoint([-0.1], [0.4])
    cx = coherent_state(X, h, basis)
    cy = coherent_state(Y, h, basis)
    got = complex(np.conj(cy.coeffs) @ U.entries @ cx.coeffs)
    shifted = PhasePoint(X.x - h * b, X.xi + h * a)
    want = np.exp(0.5j * float(a @ X.x + b @ X.xi)) * coherent_overlap(shifted, Y, h)
    assert abs(got - want) < 1e-5


def test_quantize_fourier_measure_norm_and_aw_damping(rng):
    basis = HermiteBasis(1, H, 10)
    atoms = [(rng.uniform(0.1, 0.5) * np.exp(1j * rng.uniform(0, 6.28)),
              rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)) for _ in range(4)]
    M = quantize_fourier_measure(atoms, H, basis)
    mass = sum(abs(c) for c, _, _ in atoms)
    assert operator_norm(M) <= mass + 1e-6
    single = quantize_fourier_measure(atoms[:1], H, basis)
    U = oracle_U(atoms[0][1], atoms[0][2], H, basis)
    assert np.abs(single.entries - atoms[0][0] * U.entries).max() < 1e-12
    # positive-quantization route equals the damped-atom operator sum
    F = make_fourier_measure(atoms)
    damped = [
        (c * math.exp(-0.25 * H * float(a @ a + b @ b)), a, b)
        for c, a, b in atoms
    ]
    lhs = antiwick_matrix(F, basis)
    rhs = quantize_fourier_measure(damped, H, basis)
    assert np.abs(lhs.entries - rhs.entries).max() < 1e-5


# ---------------------------------------------------------------------------
# coherent-diagonal symbol of an operator
# ---------------------------------------------------------------------------

def test_wick_symbol_identity_operator():
    basis = HermiteBasis(1, H, 16)
    I = OperatorMatrix(basis, np.eye(basis.size))
    for X in [PhasePoint([0.0], [0.0]), PhasePoint([0.4], [-0.3])]:
        assert wick_symbol(I, X) == pytest.approx(1.0, abs=1e-10)


def test_wick_symbol_of_weyl_operator_is_smoothed_symbol(rng):
    basis = HermiteBasis(1, H, 16)
    F = random_trig_symbol(rng, positive=False)
    op = weyl_matrix(F, basis)
    for _ in range(5):
        X = PhasePoint(rng.uniform(-0.7, 0.7, 1) * math.sqrt(H),
                       rng.uniform(-0.7, 0.7, 1) * math.sqrt(H))
        left = wick_symbol(op, X)
        right = heat_full(F, 0.5 * H, X)
        assert abs(left - right) < 1e-4


def test_wick_symbol_of_oracle_U():
    basis = HermiteBasis(1, H, 18)
    a, b = np.array([0.8]), np.array([0.5])
    U = oracle_U(a, b, H, basis)
    X = PhasePoint([0.2], [-0.1])
    want = math.exp(-0.25 * H * float(a @ a + b @ b)) * np.exp(
        1j * float(a @ X.x + b @ X.xi)
    )
    assert abs(wick_symbol(U, X) - want) < 1e-4


# ---------------------------------------------------------------------------
# spectral norm estimation
# ---------------------------------------------------------------------------

def test_operator_norm_basics():
    basis = HermiteBasis(1, 1.0, 2)
    assert operator_norm(OperatorMatrix(basis, np.eye(3))) == pytest.approx(1.0)
    assert operator_norm(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0, rel=1e-6)
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_matches_dense_eigensolver(rng):
    for n in (4, 6, 8):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Aherm = 0.5 * (A + A.conj().T)
        want = float(np.max(np.abs(np.linalg.eigvalsh(Aherm))))
        assert operator_norm(Aherm) == pytest.approx(want, rel=1e-6)
        want_svd = float(np.linalg.svd(A, compute_uv=False)[0])
        assert operator_norm(A) == pytest.approx(want_svd, rel=1e-6)


def _random_hermitian(n, seed):
    A = np.random.default_rng(seed).normal(size=(n, n, 2)).view(complex)[..., 0]
    return 0.5 * (A + A.conj().T)


def _odd_top_hermitian(n=301):
    # commutes with the reflection J e_k = e_{n-1-k}; the top eigenvector is
    # J-odd, so it is orthogonal to every J-even start such as all ones
    A = 0.1 * _random_hermitian(n, 5)
    A = 0.5 * (A + A[::-1, ::-1])
    u = np.exp(-np.abs(np.arange(n) - n // 2) / 40.0)
    u[n // 2:] *= -1.0
    u[n // 2] = 0.0
    u /= np.linalg.norm(u)
    return A + 5.0 * np.outer(u, u)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(quantize, name)

    def wrapped(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(quantize, name, wrapped)
    return calls


@pytest.mark.parametrize("case", ["dense-100", "lanczos-625", "lanczos-odd-top"])
def test_operator_norm_hermitian_branches_are_exact(monkeypatch, case):
    M = {"dense-100": lambda: _random_hermitian(100, 1),
         "lanczos-625": lambda: _random_hermitian(625, 2),
         "lanczos-odd-top": _odd_top_hermitian}[case]()
    if case == "lanczos-odd-top":
        w, V = np.linalg.eigh(M)
        top = V[:, np.argmax(np.abs(w))]
        assert np.abs(top + top[::-1]).max() < 1e-12
    lanczos = _counting(monkeypatch, "eigsh")
    dense = _counting(monkeypatch, "eigvalsh")
    want = float(np.linalg.norm(M, 2))
    got = operator_norm(M)
    assert got == pytest.approx(want, rel=1e-12)
    n = M.shape[0]
    assert (lanczos, dense) == (([n], []) if n > 128 else ([], [n]))
    assert operator_norm(M) == got   # bit-identical from the seeded start


def test_operator_norm_non_hermitian_takes_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("non-Hermitian input reached an eigensolver")

    monkeypatch.setattr(quantize, "eigsh", refuse)
    monkeypatch.setattr(quantize, "eigvalsh", refuse)
    for n in (50, 300):
        A = _random_hermitian(n, 3)
        A[0, 1] += 1e-6
        assert operator_norm(A) == float(np.linalg.norm(A, 2))


def test_operator_norm_falls_back_when_lanczos_does_not_converge(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(quantize, "eigsh", no_convergence)
    M = _random_hermitian(300, 4)
    assert operator_norm(M) == pytest.approx(float(np.linalg.norm(M, 2)),
                                             rel=1e-12)


# ---------------------------------------------------------------------------
# norm bound and ladder
# ---------------------------------------------------------------------------

def test_cv_bound_values():
    assert cv_bound(2.0, [0.0, 0.0], 0.5) == pytest.approx(2.0)
    # single eps = 1, h = 1, M = 1: 1 + 81 pi evaluated to 12 digits
    assert cv_bound(1.0, [1.0], 1.0) == pytest.approx(255.469004941, rel=1e-11)
    assert cv_bound(1.0, [0.5, 0.7], 0.5) <= cv_bound(1.0, [0.6, 0.7], 0.5)
    with pytest.raises(InputError):
        cv_bound(1.0, [1.0], 1.5)


def test_index_ladder_validation():
    IndexLadder(3, ((0,), (0, 1), (0, 1, 2)))
    with pytest.raises(InputError):
        IndexLadder(3, ((0, 1), (0,)))
    with pytest.raises(InputError):
        IndexLadder(3, ((0,), (0, 1)))


def _const_with_class(dim):
    F = make_constant(1.0, dim)
    F.class_M = 1.0
    F.class_eps = np.zeros(dim)
    return F


def test_ladder_constant_symbol():
    basis = HermiteBasis(2, H, 3)
    ladder = IndexLadder(2, ((0,), (0, 1)))
    rep = ladder_run(_const_with_class(2), ladder, basis)
    assert rep.steps[1].diff_norm < 1e-12
    assert rep.final_norm == pytest.approx(1.0, abs=1e-7)
    assert rep.final_bound == pytest.approx(1.0)
    assert rep.ok


def test_ladder_supported_symbol_stabilizes_after_first_rung():
    basis = HermiteBasis(3, H, 2)
    F = make_exponential([1.1, 0.0, 0.0], [0.4, 0.0, 0.0])
    F.class_M = 1.0
    ladder = IndexLadder(3, ((0,), (0, 1), (0, 1, 2)))
    rep = ladder_run(F, ladder, basis)
    assert rep.steps[1].diff_norm < 1e-7
    assert rep.steps[2].diff_norm < 1e-7


def test_ladder_lattice_bounds_hold():
    p = LatticeSymbolParams(d=1, g=(0.5, 0.35, 0.25, 0.18), t=1.0, V="cos")
    F = make_lattice(p, 2)
    basis = HermiteBasis(4, H, 3)
    ladder = IndexLadder(4, ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)))
    rep = ladder_run(F, ladder, basis)
    assert rep.ok
    tails = [s.tail for s in rep.steps]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert rep.final_norm <= rep.final_bound
    assert rep.norm_error_bar is not None


@pytest.mark.parametrize("case", ["lattice-3site", "exp-3d"])
def test_ladder_final_rung_is_weyl(case):
    # anti-Wick of F is Weyl of its half-heat smoothing and
    # F = sum_I T_I S_{Lambda \ I} F, so the full rung is exactly Op^W(F)
    if case == "lattice-3site":
        p = LatticeSymbolParams(d=1, g=(0.4, 0.3, 0.2), t=1.0, V="cos")
        F, degree = make_lattice(p, 2), 2
    else:
        F, degree = make_exponential([1.0, -0.5, 0.3], [0.2, 0.8, -0.4]), 3
    basis = HermiteBasis(3, H, degree)
    ladder = IndexLadder(3, ((0,), (0, 1), (0, 1, 2)))
    rep = ladder_run(F, ladder, basis)
    W = weyl_matrix(F, basis).entries
    assert np.abs(rep.final.entries - W).max() < 1e-12
    up = weyl_matrix(F, HermiteBasis(3, H, degree + 1))
    assert rep.norm_error_bar == pytest.approx(abs(up.norm() - rep.final_norm),
                                               abs=1e-12)


@pytest.mark.parametrize("case", ["lattice-4site", "exp-3d"])
def test_ladder_rungs_equal_subset_expansion(case):
    # the paper's rung sum_{I subset Lambda_n} Op^{hyb,I}(T_I F), assembled
    # subset by subset, against each rung of the ladder
    if case == "lattice-4site":   # criterion 03's lattice
        g = tuple(0.5 * 0.7**j for j in range(4))
        F, dim = make_lattice(LatticeSymbolParams(d=1, g=g, t=1.0, V="cos"), 2), 4
    else:
        F, dim = make_exponential([1.0, -0.5, 0.3], [0.2, 0.8, -0.4]), 3
    basis = HermiteBasis(dim, H, 3)
    ladder = IndexLadder(dim, tuple(tuple(range(k + 1)) for k in range(dim)))
    rep = ladder_run(F, ladder, basis)
    assert rep.route_residual < 1e-12
    mats = {}
    for r in range(dim + 1):
        for I in itertools.combinations(range(dim), r):
            split = CoordinateSplit(dim, I)
            mats[I] = hybrid_matrix(op_T_I(F, I, H), split, basis).entries
    prev = None
    for step, lam in zip(rep.steps, ladder.subsets):
        rung = sum(m for I, m in mats.items() if set(I) <= set(lam))
        hyb = hybrid_matrix(F, CoordinateSplit(dim, lam), basis).entries
        assert np.abs(rung - hyb).max() < 1e-12
        assert step.norm == pytest.approx(np.linalg.norm(rung, 2), rel=1e-12)
        if prev is not None:
            assert step.diff_norm == pytest.approx(
                np.linalg.norm(rung - prev, 2), rel=1e-12, abs=1e-12)
        prev = rung
    assert np.abs(rep.final.entries - prev).max() < 1e-12


@pytest.mark.parametrize("case", ["lattice-3site", "exp-3d"])
def test_route_residual_catches_dropped_antiwick_damping(monkeypatch, case):
    # anti-Wick measured with the Weyl variance h/2 loses its damping, so the
    # first rung no longer equals its subset expansion
    if case == "lattice-3site":
        p = LatticeSymbolParams(d=1, g=(0.4, 0.3, 0.2), t=1.0, V="cos")
        F = make_lattice(p, 2)
    else:
        F = make_exponential([1.0, -0.5, 0.3], [0.2, 0.8, -0.4])
    basis = HermiteBasis(3, H, 2)
    ladder = IndexLadder(3, ((0,), (0, 1), (0, 1, 2)))
    assert ladder_run(F, ladder, basis).route_residual < 1e-12
    monkeypatch.setattr(quantize, "_SITE_TABLE_CACHE", {})
    monkeypatch.setattr(quantize, "_mode_variance", lambda mode, h: 0.5 * h)
    rep = ladder_run(F, ladder, basis)
    assert rep.route_residual > 1e-8


def test_ladder_report_ratios_and_vacuous_flag():
    p = LatticeSymbolParams(d=1, g=(0.4, 0.3, 0.2), t=1.0, V="cos")
    basis = HermiteBasis(3, H, 2)
    ladder = IndexLadder(3, ((0,), (0, 1), (0, 1, 2)))
    rep = ladder_run(make_lattice(p, 2), ladder, basis)
    want = [s.diff_norm / s.diff_bound for s in rep.steps[1:]]
    assert rep.bound_ratios == want
    assert 0.0 < max(want) < 1e-6 and rep.vacuous_bound
    const = ladder_run(_const_with_class(2), IndexLadder(2, ((0,), (0, 1))),
                       HermiteBasis(2, H, 2))
    assert const.bound_ratios == [None] and not const.vacuous_bound


@pytest.mark.parametrize("case", ["lattice-4site", "exp-small-freq"])
def test_ladder_diff_bound_is_fresh_subset_sum(case):
    # each rung difference is bounded by the sum over the fresh subsets I of
    # M prod_{j in I} x_j; with frequencies near 1e-4 the x_j are ~1e-6 and
    # the subtraction cv_n - cv_{n-1} misses this sum by ~5e-11 relative
    if case == "lattice-4site":   # criterion 03's lattice
        g = tuple(0.5 * 0.7**j for j in range(4))
        F = make_lattice(LatticeSymbolParams(d=1, g=g, t=1.0, V="cos"), 2)
        ladder = IndexLadder(4, ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)))
    else:
        F = make_exponential([1e-4, -2e-5, 3e-5], [2e-5, 1e-4, -4e-5])
        ladder = IndexLadder(3, ((2,), (0, 2), (0, 1, 2)))
    dim = ladder.ambient_dim
    rep = ladder_run(F, ladder, HermiteBasis(dim, H, 1))
    M, eps = F.class_M, np.asarray(F.class_eps, dtype=float)
    S = max(1.0, float(np.max(eps**2)))
    x = [81.0 * math.pi * H * S * e**2 for e in eps]
    for step, prev, lam in zip(rep.steps[1:], ladder.subsets, ladder.subsets[1:]):
        want = sum(M * math.prod(x[j] for j in I)
                   for r in range(1, len(lam) + 1)
                   for I in itertools.combinations(lam, r)
                   if not set(I) <= set(prev))
        assert step.diff_bound == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rep.final_bound == cv_bound(M, eps, H)


def test_ladder_independence_of_ordering():
    basis = HermiteBasis(3, H, 2)
    p = LatticeSymbolParams(d=1, g=(0.4, 0.3, 0.2), t=1.0, V="cos")
    F = make_lattice(p, 2)
    lad1 = IndexLadder(3, ((0,), (0, 1), (0, 1, 2)))
    lad2 = IndexLadder(3, ((2,), (0, 2), (0, 1, 2)))
    rep1 = ladder_run(F, lad1, basis)
    rep2 = ladder_run(F, lad2, basis)
    assert np.abs(rep1.final.entries - rep2.final.entries).max() < 2e-8


def test_ladder_requires_metadata_and_h_range():
    basis = HermiteBasis(2, H, 2)
    ladder = IndexLadder(2, ((0,), (0, 1)))
    with pytest.raises(InputError):
        ladder_run(make_constant(1.0, 2), ladder, basis)
    basis_big_h = HermiteBasis(2, 1.5, 2)
    with pytest.raises(InputError):
        ladder_run(_const_with_class(2), ladder, basis_big_h)


def test_report_csv_format(tmp_path):
    basis = HermiteBasis(2, H, 2)
    ladder = IndexLadder(2, ((0,), (0, 1)))
    rep = ladder_run(_const_with_class(2), ladder, basis)
    path = tmp_path / "report.csv"
    rep.to_csv(path, {"seed": 1})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1].split(",") == [
        "n", "lambda_size", "diff_norm", "diff_bound", "tail", "final_norm",
        "cv_bound",
    ]
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# quadratic-form bounds through the transform seminorms
# ---------------------------------------------------------------------------

def test_weyl_form_seminorm_bound():
    # |Q(F)(f,g)| <= I_m(f) I_m(g) N_m(F) on a linear monomial symbol
    from scipy.stats import norm as normal
    from gweyl import FunctionRep

    h = H
    a = 1.1
    basis = HermiteBasis(1, h, 8)
    F = SymbolDescriptor(
        1, lambda z, zeta: (a * z[:, 0]).astype(complex), name="l_a",
        growth="polynomial", poly_degree=1,
    )
    s = abs(a) * math.sqrt(h / 2)

    def quot(y):
        mu = a * y
        e = s * math.sqrt(2 / math.pi) * math.exp(-mu * mu / (2 * s * s)) \
            + mu * (1 - 2 * normal.cdf(-mu / s))
        return e / (1 + abs(y))

    Nm = max(quot(y) for y in np.linspace(-40, 40, 8001))
    rng = np.random.default_rng(3)
    for _ in range(4):
        f = FunctionRep(basis, rng.normal(size=basis.size))
        g = FunctionRep(basis, rng.normal(size=basis.size))
        lhs = abs(weyl_form(F, f, g))
        rhs = seminorm_I(f, 1) * seminorm_I(g, 1) * Nm
        assert lhs <= rhs * (1 + 1e-9)


def test_weyl_form_derivative_norm_bound(rng):
    # |Q(H)(f,g)| <= (9 pi / 2)^{|I|} N^(2)_{I,h}(H) ||f|| ||g||, dim-1 block
    from gweyl import FunctionRep

    basis = HermiteBasis(1, H, 8)
    for _ in range(3):
        Hsym = random_trig_symbol(rng, positive=False, freq=1.5)
        NI = norm_NIm(Hsym, [0], 2, H, n_samples=400, seed=8)
        f = FunctionRep(basis, rng.normal(size=basis.size))
        g = FunctionRep(basis, rng.normal(size=basis.size))
        lhs = abs(weyl_form(Hsym, f, g))
        assert lhs <= (4.5 * math.pi) * NI * f.norm * g.norm * (1 + 1e-9)


def test_form_agrees_with_explicit_kernel_integral(rng):
    # the triple-integral kernel route (transform values against the
    # three-point exponential kernel) reproduces the assembled entries
    h = H
    basis = HermiteBasis(1, h, 4)
    F = random_trig_symbol(rng, positive=False, freq=1.2)
    M = weyl_matrix(F, basis)
    nodesXY, wXY = tensor_rule([h, h], 24)
    nodesZ, wZ = tensor_rule([h / 2, h / 2], 32)
    wX = nodesXY[:, 0] + 1j * nodesXY[:, 1]
    wZv = nodesZ[:, 0] + 1j * nodesZ[:, 1]
    sf = [math.sqrt(math.factorial(k)) for k in range(basis.max_degree + 1)]
    fvals = F(nodesZ[:, :1], nodesZ[:, 1:]) * wZ
    cross = np.exp(-0.5 * np.outer(wX, np.conj(wX)) / h)       # Z-independent
    EX = np.exp(np.outer(wX, np.conj(wZv)) / h)                # exp(wX conj(wZ)/h)
    EY = np.exp(np.outer(np.conj(wX), wZv) / h)                # exp(conj(wY) wZ/h)
    for k, l in [(0, 0), (1, 2), (3, 1)]:
        tf = ((np.conj(wX) / math.sqrt(2 * h)) ** l) / sf[l]
        tg = ((np.conj(wX) / math.sqrt(2 * h)) ** k) / sf[k]
        U = (wXY * tf)[:, None] * EX
        V = (wXY * np.conj(tg))[:, None] * EY
        inner_z = np.einsum("iz,ij,jz->z", U, cross, V, optimize=True)
        got = complex(fvals @ inner_z)
        assert abs(got - M.entries[k, l]) < 1e-5


def test_operator_matrix_json_roundtrip(rng):
    basis = HermiteBasis(1, H, 5)
    M = weyl_matrix(random_trig_symbol(rng), basis)
    M2 = OperatorMatrix.from_json(M.to_json())
    np.testing.assert_allclose(M2.entries, M.entries, rtol=0, atol=1e-16)
    payload = json.loads(M.to_json())
    assert payload["basis"] == {"dim": 1, "h": H, "max_degree": 5}
    assert len(payload["entries"]) == basis.size**2
    # one [re, im] pair per entry, and the round trip is exact, signed zeros
    # included
    M.entries[0, 1] = complex(-0.0, -0.0)
    text = M.to_json()
    assert text == json.dumps({
        "basis": payload["basis"], "meta": M.meta,
        "entries": [[float(z.real), float(z.imag)] for z in M.entries.ravel()],
    })
    back = OperatorMatrix.from_json(text)
    assert back.entries.tobytes() == M.entries.tobytes()
    assert back.to_json() == text
