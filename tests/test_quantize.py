import itertools
import json
import math

import numpy as np
import pytest

from gweyl import (
    CoordinateSplit,
    HermiteBasis,
    IndexLadder,
    InputError,
    OperatorMatrix,
    PhasePoint,
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
    make_quadratic,
    norm_NIm,
    norm_Nm,
    operator_norm,
    oracle_U,
    seminorm_I,
    smooth_symbol,
    weyl_matrix,
    weyl_matrix_classical,
    wick_symbol,
)
from gweyl import quantize
from gweyl.heat import op_T_I
from gweyl.symbols import LatticeSymbolParams, SymbolDescriptor
from gweyl.gaussian import tensor_rule
import conftest
from conftest import (
    EDGE_FLOATS, assemble_dense, coord_grid, json_per_entry, quadrature_smoothed,
)

H = 0.5


def random_trig_symbol(rng, dim=1, n_atoms=4, freq=2.0, positive=True):
    atoms = []
    for _ in range(n_atoms):
        c = rng.uniform(0.05, 0.4) if positive else rng.normal()
        a = rng.uniform(-freq, freq, dim)
        atoms.append((c, a, rng.uniform(-freq, freq, dim)))
    return make_fourier_measure(atoms)


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

def weyl_form(M, f, g):
    """Quadratic form <Op(F) f, g> = conj(g) M f of the matrix M of Op(F)."""
    return complex(np.conj(g.coeffs) @ M @ f.coeffs)


def dense_weyl(F, basis):
    # a symbol with no structure (a linear monomial) on the reference grid:
    # 80 nodes per variable in dim 1, as the dense route had at degree <= 16
    return assemble_dense(F, basis, ["weyl"], 80)


def test_weyl_form_of_one_is_inner_product(rng):
    basis = HermiteBasis(1, H, 8)
    one = make_constant(1.0, 1)
    cf = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    cg = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    from gweyl import FunctionRep

    f, g = FunctionRep(basis, cf), FunctionRep(basis, cg)
    M = weyl_matrix(one, basis).entries
    assert weyl_form(M, f, g) == pytest.approx(f.inner(g), rel=1e-7)


def test_weyl_form_linear_symbol_odd_moment():
    basis = HermiteBasis(1, H, 6)
    lin = SymbolDescriptor(
        1, lambda z, zeta: (1.7 * z[:, 0]).astype(complex), name="a.z",
        growth="polynomial", poly_degree=1,
    )
    one = constant_rep(basis)
    assert abs(weyl_form(dense_weyl(lin, basis), one, one)) < 1e-12


def test_weyl_form_exponential_matches_oracle_pairing(rng):
    basis = HermiteBasis(1, H, 12)
    a, b = [1.2], [-0.9]
    F = make_exponential(a, b)
    U = oracle_U(a, b, H, basis)
    from gweyl import FunctionRep

    M = weyl_matrix(F, basis).entries
    for _ in range(3):
        cf = rng.normal(size=basis.size)
        cg = rng.normal(size=basis.size)
        f, g = FunctionRep(basis, cf), FunctionRep(basis, cg)
        lhs = weyl_form(M, f, g)
        rhs = complex(np.conj(cg) @ U.entries @ cf)
        assert abs(lhs - rhs) < 1e-5


def test_undeclared_growth_rejected():
    bad = SymbolDescriptor(1, lambda z, zeta: np.ones(z.shape[0], complex),
                           name="bad", growth="wild")
    with pytest.raises(InputError):
        norm_Nm(bad, 1, H)


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
    assert M.meta["route"] == "dense" and "atoms" not in M.meta
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
    # dual-path: the quadratic-form quadrature agrees
    assert np.abs(dense_weyl(lin, basis) - want).max() < 1e-8


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
    from gweyl.quantize import (
        _classical_1d, _classical_dense, _classical_tables, _simpson_weights,
    )

    basis = HermiteBasis(1, H, 6)
    xs, xis = np.linspace(-6.0, 6.0, 41), np.linspace(-5.0, 5.0, 61)
    wx = _simpson_weights(xs.size, xs[1] - xs[0])
    wxi = _simpson_weights(xis.size, xis[1] - xis[0])
    grid = (xs, xis, wxi, _classical_tables(basis, xs, wx, xis))
    quad = SymbolDescriptor(
        1, lambda z, zeta: np.exp(-0.3 * z[:, 0] ** 2 - 0.4 * z[:, 0] * zeta[:, 0]
                                  - 0.5 * zeta[:, 0] ** 2 + 0.7j * z[:, 0]),
        name="quadratic",
    )
    want = _classical_1d_xi_loop(quad, basis, xs, wx, xis, wxi)
    assert np.abs(_classical_dense(quad, H, grid) - want).max() < 1e-12
    # complex weights with nonzero a and b: the per-atom Hankel-Toeplitz
    # stack, contracted with c, and the weighted sum on the lattice, both
    # against F evaluated point by point in the reference
    complex_atoms = make_fourier_measure([
        (complex(*rng.normal(size=2)), rng.uniform(-1.5, 1.5, 1),
         rng.uniform(-1.5, 1.5, 1)) for _ in range(5)])
    for F in (random_trig_symbol(rng, positive=False), complex_atoms):
        c, a, b = (np.array(v) for v in zip(*F.atoms))
        stack = _classical_1d(a[:, 0], b[:, 0], H, grid)
        summed = _classical_1d(a[:, 0], b[:, 0], H, grid, c)
        assert stack.shape == (c.size, basis.size, basis.size)
        assert np.abs(np.tensordot(c, stack, axes=1) - summed).max() < 1e-12
        want = _classical_1d_xi_loop(F, basis, xs, wx, xis, wxi)
        assert np.abs(summed - want).max() < 1e-12


def test_classical_phase_table_matches_direct_exponential():
    from gweyl.errors import InputError
    from gweyl.quantize import _classical_grid, _classical_tables

    # the benchmark's grid (degree 4, oversample 1.5, shift 1/2) and the
    # default grid at degree 16
    for deg, shift, oversample in ((4, 0.5, 1.5), (16, 0.0, 3.5)):
        basis = HermiteBasis(1, H, deg)
        xs, wx, xis, _ = _classical_grid(basis, shift, oversample)
        _, phase, _, _ = _classical_tables(basis, xs, wx, xis)
        diffs = (xs[1] - xs[0]) * np.arange(1 - xs.size, xs.size)
        want = np.exp(1j * xis[:, None] * diffs[None, :] / H)
        assert phase.shape == want.shape
        assert np.abs(phase - want).max() <= 1e-10
    basis = HermiteBasis(1, H, 4)
    xs = np.linspace(-6.0, 6.0, 41)
    wx = np.ones(xs.size)
    for xis in (np.linspace(-5.0, 5.0, 60), np.linspace(-4.0, 5.0, 61)):
        with pytest.raises(InputError):
            _classical_tables(basis, xs, wx, xis)


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


def _complex_atoms(rng, dim, n_atoms, freq=1.3):
    return make_fourier_measure([
        (complex(*rng.normal(size=2)), rng.uniform(-freq, freq, dim),
         rng.uniform(-freq, freq, dim)) for _ in range(n_atoms)])


def test_classical_atom_chunks_match_one_chunk(rng, monkeypatch):
    basis = HermiteBasis(2, H, 2)
    F = _complex_atoms(rng, 2, 7)
    whole = weyl_matrix_classical(F, basis, oversample=1.5)
    # per atom about 16 (nx (nx + n) + 2 n^2 + n^2) bytes, so a budget of
    # two atoms takes the seven in four chunks, the last one partial
    nx, n = whole.meta["grid"][0], 3
    monkeypatch.setattr(quantize, "_ATOM_CHUNK_BYTES",
                        2 * 16 * (nx * (nx + n) + 3 * n * n))
    calls = []
    kernel = quantize._classical_1d
    monkeypatch.setattr(quantize, "_classical_1d",
                        lambda *args: calls.append(args[0].size) or kernel(*args))
    chunked = weyl_matrix_classical(F, basis, oversample=1.5)
    assert calls == [2, 2, 2, 2, 2, 2, 1, 1]
    assert np.abs(chunked.entries - whole.entries).max() < 1e-13


def test_classical_generic_symbol_above_dim_1_is_refused():
    from gweyl.errors import ResourceError

    F = SymbolDescriptor(2, lambda z, zeta: np.exp(-z[:, 0] ** 2 - zeta[:, 1] ** 2),
                         name="generic")
    with pytest.raises(ResourceError):
        weyl_matrix_classical(F, HermiteBasis(2, H, 2))


# ---------------------------------------------------------------------------
# Gaussian symbols in closed form
# ---------------------------------------------------------------------------

def _mehler_diagonal(amp, t, h, degree):
    # Op^W(amp e^{-t(z^2 + zeta^2)}) is diagonal in the Hermite basis
    th = t * h
    return amp / (1 + th) * ((1 - th) / (1 + th)) ** np.arange(degree + 1)


def _odd_block(M, basis):
    # entries [k, l] with |k| + |l| odd
    p = basis.indices.sum(axis=1) % 2
    return M[p[:, None] != p[None, :]]


@pytest.mark.parametrize("degree", [16, 64, 100])
def test_gaussian_route_matches_mehler(degree):
    # anti-Wick of e^{-t|X|^2} is Weyl of its half-heat smoothing,
    # amp e^{-t'|X|^2} with t' = t/(1+th) and amp = 1/(1+th)
    import tracemalloc

    t = 0.3
    F = make_quadratic(np.eye(2), t)
    basis = HermiteBasis(1, H, degree)
    tracemalloc.start()
    try:
        W = weyl_matrix(F, basis)
        A = antiwick_matrix(F, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.meta["route"] == A.meta["route"] == "gaussian"
    assert "nodes" not in W.meta and "nodes" not in A.meta
    assert peak < 1 << 30
    amp = 1.0 / (1.0 + t * H)
    for M, want in ((W, _mehler_diagonal(1.0, t, H, degree)),
                    (A, _mehler_diagonal(amp, t * amp, H, degree))):
        assert np.abs(M.entries - np.diag(want)).max() < 1e-12
        assert not _odd_block(M.entries, basis).any()


def _random_psd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T / n + 0.1 * np.eye(n)


def test_gaussian_route_degenerate_forms():
    # T = 0: R pairs s with t only, so the recurrence writes the identity
    I = weyl_matrix(make_quadratic(np.zeros((2, 2)), 1.0), HermiteBasis(1, H, 6))
    assert "nodes" not in I.meta
    assert np.array_equal(I.entries, np.eye(7))
    # rank 1 in dim 1: F = e^{-z^2}
    F = make_quadratic(np.diag([1.0, 0.0]), 1.0)
    basis = HermiteBasis(1, H, 6)
    M = weyl_matrix(F, basis)
    assert "nodes" not in M.meta
    want = assemble_dense(F, basis, ["weyl"], 120)
    assert np.abs(M.entries - want).max() < 1e-13
    assert not _odd_block(M.entries, basis).any()
    # rank 2 in dim 2, on coordinate 0 only: Op(F) = Op_1(F_1) (x) I
    F2 = make_quadratic(np.diag([1.0, 0.0, 0.5, 0.0]), 0.7)
    F1 = make_quadratic(np.diag([1.0, 0.5]), 0.7)
    b2, b1 = HermiteBasis(2, H, 4), HermiteBasis(1, H, 4)
    M2 = hybrid_matrix(F2, CoordinateSplit(2, (1,)), b2)
    assert "nodes" not in M2.meta
    want = np.kron(antiwick_matrix(F1, b1).entries, np.eye(5))
    assert np.abs(M2.entries - want).max() < 1e-14
    assert not _odd_block(M2.entries, b2).any()


def test_gaussian_route_matches_dense_dim2_degree_20():
    # the dense grid at order 60 resolves this symbol to about 1e-15: it
    # differs from order 72 by at most 9.7e-16, 103x under the bound, and
    # the reference takes 2.9 s against 4.1 s at order 72 (2 CPUs)
    F = make_quadratic(_random_psd(np.random.default_rng(5), 4), 0.5)
    basis = HermiteBasis(2, H, 20)
    M = hybrid_matrix(F, CoordinateSplit(2, (1,)), basis)
    want = assemble_dense(F, basis, ["aw", "weyl"], 60)
    assert M.meta["route"] == "gaussian"
    assert np.abs(M.entries - want).max() < 1e-13


def _separable_diagonal(lam, t, selected, degree):
    # per coordinate the Mehler diagonal, half-heat smoothed off the block
    out = np.ones(1)
    for j, lj in enumerate(lam):
        if j in selected:
            w = _mehler_diagonal(1.0, t * lj, H, degree)
        else:
            amp = 1.0 / (1.0 + t * lj * H)
            w = _mehler_diagonal(amp, t * lj * amp, H, degree)
        out = np.kron(out, w)
    return out


@pytest.mark.parametrize("lam, degree", [((0.4, 1.0, 0.7), 5),
                                         ((0.4, 1.0, 0.7, 0.25), 4)])
@pytest.mark.parametrize("split", ["weyl", "antiwick", "mixed"])
def test_gaussian_route_separable_forms_in_dims_3_and_4(lam, degree, split):
    D, t = len(lam), 0.3
    selected = {"weyl": tuple(range(D)), "antiwick": (), "mixed": (0, 2)}[split]
    F = make_quadratic(np.diag(np.tile(lam, 2)), t)
    basis = HermiteBasis(D, H, degree)
    M = hybrid_matrix(F, CoordinateSplit(D, selected), basis)
    want = np.diag(_separable_diagonal(lam, t, selected, degree))
    assert M.meta["route"] == "gaussian"
    assert np.abs(M.entries - want).max() < 1e-14


def test_gaussian_route_block_diagonal_form_dim3():
    # coordinates 0 and 1 coupled, coordinate 2 apart: the hybrid matrix is
    # the Kronecker product of the blocks' own hybrid matrices
    Ta = _random_psd(np.random.default_rng(8), 4)     # (z0, z1, zeta0, zeta1)
    Tb = np.array([[0.9, 0.3], [0.3, 0.6]])            # (z2, zeta2)
    T = np.zeros((6, 6))
    T[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = Ta
    T[np.ix_([2, 5], [2, 5])] = Tb
    t = 0.6
    M = hybrid_matrix(make_quadratic(T, t), CoordinateSplit(3, (0, 2)),
                      HermiteBasis(3, H, 4))
    Ma = hybrid_matrix(make_quadratic(Ta, t), CoordinateSplit(2, (0,)),
                       HermiteBasis(2, H, 4))
    Mb = weyl_matrix(make_quadratic(Tb, t), HermiteBasis(1, H, 4))
    assert M.meta["route"] == "gaussian"
    assert np.abs(M.entries - np.kron(Ma.entries, Mb.entries)).max() < 1e-14


def test_restricted_gaussian_stays_closed_form():
    # F o P_E is the Gaussian with A's z- and zeta-rows and columns outside E
    # set to zero; on E = {0} it is a function of (z_0, zeta_0) alone, so its
    # Weyl matrix is the dim-1 one of T's E-block, tensored with the identity
    T = _random_psd(np.random.default_rng(10), 4)      # (z0, z1, zeta0, zeta1)
    F = make_quadratic(T, 0.5)
    G = F.restricted([0])
    M = weyl_matrix(G, HermiteBasis(2, H, 4))
    assert M.meta["route"] == "gaussian"
    z, zeta = np.random.default_rng(11).normal(size=(2, 40, 2))
    mask = np.array([1.0, 0.0])
    assert np.abs(G(z, zeta) - F(z * mask, zeta * mask)).max() <= 1e-14
    E = [0, 2]
    F1 = make_quadratic(T[np.ix_(E, E)], 0.5)
    want = np.kron(weyl_matrix(F1, HermiteBasis(1, H, 4)).entries, np.eye(5))
    assert np.abs(M.entries - want).max() < 1e-14


def test_smoothed_gaussian_stays_closed_form():
    # hybrid on {0} equals Weyl of the symbol smoothed over coordinate 1,
    # and both sides take the Gaussian route
    F = make_quadratic(_random_psd(np.random.default_rng(6), 4), 0.6)
    G = smooth_symbol(F, [1], H / 2)
    assert G.quad is not None
    basis = HermiteBasis(2, H, 4)
    lhs = hybrid_matrix(F, CoordinateSplit(2, (0,)), basis)
    rhs = weyl_matrix(G, basis)
    assert lhs.meta["route"] == rhs.meta["route"] == "gaussian"
    assert np.abs(lhs.entries - rhs.entries).max() < 1e-13
    # the closed-form smoothing agrees with quadrature pointwise
    Q = quadrature_smoothed(F, [1], H / 2, order=24)
    pts = np.random.default_rng(7).normal(size=(6, 4))
    assert np.abs(G(pts[:, :2], pts[:, 2:]) - Q(pts[:, :2], pts[:, 2:])).max() < 1e-13


def test_hybrid_meta_records_route():
    basis = HermiteBasis(1, H, 4)
    F = make_lattice(LatticeSymbolParams(d=1, g=(0.3,), t=0.5, V="cos"), 2)
    chain = weyl_matrix(F, basis).meta
    assert chain["route"] == "chain" and chain["order"] > 64
    atoms = weyl_matrix(make_exponential([0.3], [0.2]), basis).meta
    assert atoms["route"] == "atoms" and atoms["atoms"] == 1
    assert "order" not in atoms


def test_no_public_quantize_callable_takes_an_order():
    # routes size their own quadrature, and smoothing is closed-form; only
    # the translation-phase oracle and the adjoint smoothing set their rule
    import inspect

    from gweyl import heat

    def takes_order(module):
        return sorted(
            name for name, obj in vars(module).items()
            if callable(obj) and not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
            and "order" in inspect.signature(obj).parameters)

    assert takes_order(quantize) == ["oracle_U"]
    assert takes_order(heat) == ["heat_adjoint_M"]


def test_symbol_without_structure_is_refused():
    # atoms, chains and Gaussians are the only quantizable and smoothable
    # families; a func-only symbol has no route and no closed smoothing
    F = SymbolDescriptor(2, lambda z, zeta: np.exp(-z[:, 0] ** 2 - zeta[:, 1] ** 2),
                         name="func-only")
    with pytest.raises(InputError, match="func-only"):
        hybrid_matrix(F, CoordinateSplit(2, (0,)), HermiteBasis(2, H, 2))
    with pytest.raises(InputError, match="func-only"):
        smooth_symbol(F, [1], H / 2)
    with pytest.raises(InputError, match="func-only"):
        op_T_I(F, [0], H)
    with pytest.raises(InputError, match="func-only"):
        heat_full(F, H / 2, PhasePoint([0.1, 0.2], [0.3, 0.4]))


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
    M = assemble_dense(zsq, basis, ["aw"], 80)
    assert M[0, 0] == pytest.approx(H, rel=1e-10)


# ---------------------------------------------------------------------------
# hybrid operators
# ---------------------------------------------------------------------------

def test_dense_dim2_blocks_match_kron_of_dim1(monkeypatch):
    # a separable generic symbol: the blocked dim-2 grid must reproduce the
    # tensor product of the two dim-1 dense matrices; order 10 gives 100
    # first-coordinate nodes, and a budget of 30 of them per block leaves
    # the last block partial
    f1 = lambda z, zeta: np.exp(-0.3 * z**2 - 0.2 * z * zeta - 0.6 * zeta**2)
    f2 = lambda z, zeta: np.exp(-0.5 * z**2 + 0.1 * z * zeta - 0.4 * zeta**2
                                + 0.8j * zeta)
    F = SymbolDescriptor(2, lambda z, zeta: f1(z[:, 0], zeta[:, 0])
                         * f2(z[:, 1], zeta[:, 1]), name="separable")
    F1 = SymbolDescriptor(1, lambda z, zeta: f1(z[:, 0], zeta[:, 0]))
    F2 = SymbolDescriptor(1, lambda z, zeta: f2(z[:, 0], zeta[:, 0]))
    basis, b1 = HermiteBasis(2, H, 3), HermiteBasis(1, H, 3)
    want = np.kron(assemble_dense(F1, b1, ["weyl"], 10),
                   assemble_dense(F2, b1, ["aw"], 10))
    # per first-coordinate node: 2 d^2 table and 8 q2 point entries of 16 bytes
    monkeypatch.setattr(conftest, "DENSE_CHUNK_BYTES", 30 * 16 * (2 * 16 + 8 * 100))
    M = assemble_dense(F, basis, ["weyl", "aw"], 10)
    assert np.abs(M - want).max() < 1e-13


def _site_table_grid_sweep(entries, mode, h, deg, moff, nmax):
    # brute-force reference: every frequency's site factor on the whole
    # q x q grid, contracted against the pair table
    import gweyl.quantize as q
    from gweyl.symbols import _chain_site_factor

    order = q._site_order(mode, h, nmax, deg)
    nodes, w = coord_grid(h, mode, order)
    tbl = q._coord_table(h, mode, deg, nodes)
    facs = np.stack([_chain_site_factor(entries, m, nodes[:, 0], nodes[:, 1])
                     for m in range(-moff, moff + 1)])
    return np.einsum("mi,lki->mkl", facs * w[None, :], tbl, optimize=True)


@pytest.mark.parametrize("mode", ["weyl", "aw"])
@pytest.mark.parametrize("degree", [3, 8, 16])
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
                                  data.nmax)
        want = _site_table_grid_sweep(entries, mode, H, degree, data.mrange,
                                      data.nmax)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# the 1-site cosine lattice's symbol, e^{-0.25 zeta^2}, on the Gaussian route
_ONE_SITE_GAUSSIAN = make_quadratic(np.diag([0.0, 0.25]), 1.0)


def _peak_and_result(f, *args):
    # the tracemalloc peak of f(*args) above what was allocated before it
    import tracemalloc

    tracemalloc.start()
    try:
        out = f(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", [weyl_matrix, antiwick_matrix])
@pytest.mark.parametrize("degree", [64, 100])
def test_chain_route_resolved_at_high_degree(monkeypatch, method, degree):
    # the zeta rule is exact and the z rule grows with the degree, so the
    # chain route matches the exact Gaussian route of the same symbol; the
    # q x q grid of the same base order was off by 8.4e-3 of the largest
    # entry at degree 64 under Weyl
    monkeypatch.setattr(quantize, "_SITE_TABLE_CACHE", {})
    F = make_lattice(LatticeSymbolParams(d=1, g=(0.5,), t=1.0, V="cos"), 2)
    basis = HermiteBasis(1, H, degree)
    peak, M = _peak_and_result(method, F, basis)
    ref = method(_ONE_SITE_GAUSSIAN, basis)
    assert M.meta["route"] == "chain" and ref.meta["route"] == "gaussian"
    assert peak < 1 << 30
    assert np.abs(M.entries - ref.entries).max() <= 1e-12 * np.abs(ref.entries).max()


def test_chain_frequency_band_beyond_the_z_rule_is_harmless(monkeypatch):
    # the z rule resolves frequencies to nmax + 6 only; site-table entries
    # past that band are inexact by design, and must reach no matrix entry
    # through the bonds: resolving every frequency changes nothing
    F = make_lattice(LatticeSymbolParams(d=1, g=(3.0, 3.0, 3.0), t=1.0, V="cos"), 2)
    assert F.chain.nmax == 38
    basis = HermiteBasis(3, H, 12)
    monkeypatch.setattr(quantize, "_SITE_TABLE_CACHE", {})
    base = [weyl_matrix(F, basis), antiwick_matrix(F, basis)]
    monkeypatch.setattr(quantize, "_SITE_Z_BASE", quantize._SITE_Z_BASE + 300)
    monkeypatch.setattr(quantize, "_SITE_TABLE_CACHE", {})
    for M, method in zip(base, [weyl_matrix, antiwick_matrix]):
        ref = method(F, basis)
        assert ref.meta["order"] == M.meta["order"] + 300
        assert np.abs(M.entries - ref.entries).max() <= 1e-12 * np.abs(ref.entries).max()


def test_chain_route_node_budget(monkeypatch):
    # a site table takes q_z x (deg + 1) nodes per entry; past the budget
    # the route raises before building any table
    from gweyl.errors import ResourceError

    monkeypatch.setattr(quantize, "_SITE_TABLE_CACHE", {})
    F = make_lattice(LatticeSymbolParams(d=1, g=(0.5,), t=1.0, V="cos"), 2)
    basis = HermiteBasis(1, H, 8)
    qz = weyl_matrix(F, basis).meta["order"]
    monkeypatch.setenv("GW_MAX_NODES", str(qz * 9))
    weyl_matrix(F, basis)
    monkeypatch.setenv("GW_MAX_NODES", str(qz * 9 - 1))
    monkeypatch.setattr(quantize, "_SITE_TABLE_CACHE", {})
    monkeypatch.setattr(quantize, "_coord_table",
                        lambda *args: pytest.fail("table built past the budget"))
    with pytest.raises(ResourceError):
        weyl_matrix(F, basis)


def test_chain_site_table_cache_is_bounded(monkeypatch):
    import gweyl.quantize as q

    monkeypatch.setattr(q, "_SITE_TABLE_CACHE", {})
    monkeypatch.setattr(q, "_SITE_TABLE_CACHE_CAP", 2)
    data = make_lattice(LatticeSymbolParams(d=1, g=(0.3, 0.2), t=0.5, V="cos"),
                        2).chain
    first = q._chain_site_table(data.site[0], "weyl", H, 1, data.mrange,
                                data.nmax)
    for deg in (2, 3):
        q._chain_site_table(data.site[0], "weyl", H, deg, data.mrange,
                            data.nmax)
    assert len(q._SITE_TABLE_CACHE) == 2
    assert sorted(key[3] for key in q._SITE_TABLE_CACHE) == [2, 3]
    again = q._chain_site_table(data.site[0], "weyl", H, 1, data.mrange,
                                data.nmax)
    assert np.array_equal(again, first)


def test_chain_contract_rejects_a_narrow_site_axis():
    # bond index n in [-1, 1] reaches site frequencies in [-2, 2]; a site
    # axis of [-1, 1] must raise rather than wrap a negative index
    from gweyl._kernels import chain_contract

    U = np.ones((2, 3, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        chain_contract(U, np.ones((1, 3)))
    assert chain_contract(U, np.ones((1, 1))).shape == (4, 4)


def test_chain_contract_keeps_real_inputs_real():
    from gweyl._kernels import chain_contract

    rng = np.random.default_rng(8)
    U = rng.normal(size=(3, 5, 2, 2))
    out = chain_contract(U, rng.normal(size=(2, 3)))
    assert out.dtype == np.float64 and out.shape == (8, 8)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("D, noff, d", [(2, 2, 3), (3, 2, 3), (4, 1, 3), (5, 1, 2)])
def test_chain_contract_matches_brute_force(D, noff, d, kind):
    # A direct sum over every bond index: the term of (n_0, ..., n_{D-2}) is
    # prod_b a[b, n_b] times the Kronecker product of the site tables at
    # m_0 = n_0, m_j = n_j - n_{j-1}, m_{D-1} = -n_{D-2}.  The lattice's chain
    # matrices are symmetric, so only site-distinct, non-symmetric tables and
    # non-palindromic bonds can tell k from l or one site from another.
    from gweyl._kernels import chain_contract

    rng = np.random.default_rng([D, noff, d])
    moff = 2 * noff + 1
    U = rng.normal(size=(D, 2 * moff + 1, d, d))
    if kind == "complex":
        U = U + 1j * rng.normal(size=U.shape)
    a = rng.normal(size=(D - 1, 2 * noff + 1))
    ref = np.zeros((d**D, d**D), dtype=U.dtype)
    for n in itertools.product(range(-noff, noff + 1), repeat=D - 1):
        ms = [n[0], *(n[j] - n[j - 1] for j in range(1, D - 1)), -n[-1]]
        term = np.prod([a[b, n[b] + noff] for b in range(D - 1)])
        for j, m in enumerate(ms):
            term = np.kron(term, U[j, m + moff])
        ref += term
    out = chain_contract(U, a)
    assert out.dtype == U.dtype
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_chain_contract_holds_about_its_output(monkeypatch):
    # criterion 03's lattice at 4 sites, degree 4 (n = 625, 21 bond
    # frequencies): the contraction holds its output, the state before the
    # last bond (21 x 5^4) and one closing slice (5^6 entries), never the
    # state after the last bond (21 x 5^6) or a transposed copy of the output
    real = quantize.chain_contract
    peaks = []

    def traced(U, a):
        peak, out = _peak_and_result(real, U, a)
        peaks.append((peak, out.nbytes))
        return out

    monkeypatch.setattr(quantize, "chain_contract", traced)
    _criterion03_weyl(4)
    [(peak, nbytes)] = peaks
    assert nbytes == 625 * 625 * 8
    assert peak <= 1.25 * nbytes


def _reference_chain(F, basis, modes):
    # the complex chain, contracted term by term over the bond indices of a
    # 4-site lattice from the complex site tables
    data, deg = F.chain, basis.max_degree
    U = [quantize._chain_site_table(data.site[j], modes[j], basis.h, deg,
                                    data.mrange, data.nmax) for j in range(4)]
    ns = np.arange(-data.nmax, data.nmax + 1)
    diff = ns[None, :] - ns[:, None] + data.mrange
    a0, a1, a2 = (np.asarray(c, dtype=complex) for c in data.bond_c)
    K = np.einsum("a,b,c,aij,abkl,bcmn,cop->ikmojlnp", a0, a1, a2,
                  U[0][ns + data.mrange], U[1][diff], U[2][diff],
                  U[3][data.mrange - ns], optimize=True)
    d = deg + 1
    return K.reshape(d**4, d**4)


@pytest.mark.parametrize("degree", [3, 4])
def test_chain_route_is_real_with_an_exact_zero_odd_block(degree):
    # criterion 03's lattice is real and even in each zeta_j and under
    # X -> -X, so every chain matrix is real with a zero parity-odd block
    g = tuple(0.5 * 0.7**j for j in range(4))
    F = make_lattice(LatticeSymbolParams(d=1, g=g, t=1.0, V="cos"), 2)
    basis = HermiteBasis(4, H, degree)
    p = basis.indices.sum(axis=1) % 2
    odd = p[:, None] != p[None, :]
    for selected in [(0, 1, 2, 3), (), (0, 1)]:
        M = hybrid_matrix(F, CoordinateSplit(4, selected), basis)
        assert M.meta["route"] == "chain"
        assert M.entries.dtype == np.float64
        assert not M.entries[odd].any()
        modes = ["weyl" if j in selected else "aw" for j in range(4)]
        assert np.abs(M.entries - _reference_chain(F, basis, modes)).max() <= 1e-15


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


def _oracle_U_tensor(a, b, h, basis, order):
    # reference: the defining quadrature on the full dim-D tensor rule
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rule = basis.default_rule(order)
    pref = math.exp(-0.5 * h * float(b @ b)) * np.exp(0.5j * h * float(a @ b))
    phase = np.exp(1j * (rule.nodes @ a) - rule.nodes @ b)
    tk = basis.eval_table(rule.nodes)
    tsh = basis.eval_table(rule.nodes + h * b[None, :])
    return pref * ((tk * (rule.weights * phase)) @ tsh.T)


@pytest.mark.parametrize("dim, degree, order", [(2, 6, 60), (3, 3, 40)])
def test_oracle_U_separable_matches_tensor_rule(dim, degree, order):
    rng = np.random.default_rng(dim)
    a, b = rng.uniform(-1.5, 1.5, dim), rng.uniform(-1.5, 1.5, dim)
    basis = HermiteBasis(dim, H, degree)
    got = oracle_U(a, b, H, basis, order).entries
    assert np.abs(got - _oracle_U_tensor(a, b, H, basis, order)).max() < 1e-14


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


# ---------------------------------------------------------------------------
# coherent-diagonal symbol of an operator
# ---------------------------------------------------------------------------

def test_wick_symbol_identity_operator():
    basis = HermiteBasis(1, H, 16)
    I = OperatorMatrix(basis, np.eye(basis.size))
    for X in [PhasePoint([0.0], [0.0]), PhasePoint([0.4], [-0.3])]:
        assert wick_symbol(I, X) == pytest.approx(1.0, abs=1e-10)


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


def _parity_block_operator(seed=6):
    # real symmetric and zero where |k| + |l| is odd, on the 4-site degree-4
    # basis (n = 625): the parity blocks have 313 (even) and 312 (odd) rows
    basis = HermiteBasis(4, H, 4)
    M = _random_hermitian(basis.size, seed).real
    p = basis.indices.sum(axis=1) % 2
    M[p[:, None] != p[None, :]] = 0.0
    return OperatorMatrix(basis, M)


def _negative_top_hermitian(n=301):
    # the eigenvalue of largest modulus, about -5, is the most negative one;
    # the largest is about 3.5
    u = np.random.default_rng(7).normal(size=n)
    u /= np.linalg.norm(u)
    return 0.1 * _random_hermitian(n, 7) - 5.0 * np.outer(u, u)


def _counting(monkeypatch, name, key):
    # record key(*args) of each call to quantize.<name>
    calls = []
    real = getattr(quantize, name)

    def wrapped(*args, **kwargs):
        calls.append(key(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(quantize, name, wrapped)
    return calls


def _solver_calls(monkeypatch):
    # the (size, dtype kind) of each Lanczos run and each dense eigensolve
    lanczos = _counting(monkeypatch, "_lanczos_norm",
                        lambda matvec, n, dtype: (n, np.dtype(dtype).kind))
    dense = _counting(monkeypatch, "eigvalsh", lambda M: (M.shape[0], M.dtype.kind))
    return lanczos, dense


# per case: the (size, dtype kind) of each Lanczos and each dense eigensolve
_NORM_BRANCHES = {
    "dense-100": ([], [(100, "c")]),
    "lanczos-625": ([(625, "c")], []),
    "lanczos-odd-top": ([(301, "c")], []),
    "lanczos-negative-top": ([(301, "c")], []),
    "real-symmetric-625": ([(625, "f")], []),
    "parity-blocks-625": ([(313, "f"), (312, "f")], []),
}


@pytest.mark.parametrize("case", list(_NORM_BRANCHES))
def test_operator_norm_hermitian_branches_are_exact(monkeypatch, case):
    M = {"dense-100": lambda: _random_hermitian(100, 1),
         "lanczos-625": lambda: _random_hermitian(625, 2),
         "lanczos-odd-top": _odd_top_hermitian,
         "lanczos-negative-top": _negative_top_hermitian,
         "real-symmetric-625": lambda: _random_hermitian(625, 2).real,
         "parity-blocks-625": _parity_block_operator}[case]()
    if case == "lanczos-odd-top":
        w, V = np.linalg.eigh(M)
        top = V[:, np.argmax(np.abs(w))]
        assert np.abs(top + top[::-1]).max() < 1e-12
    if case == "lanczos-negative-top":
        w = np.linalg.eigvalsh(M)
        assert w[0] < -1.3 * w[-1] < 0.0
    lanczos, dense = _solver_calls(monkeypatch)
    entries = M.entries if isinstance(M, OperatorMatrix) else M
    want = float(np.linalg.norm(entries, 2))
    got = operator_norm(M)
    assert got == pytest.approx(want, rel=1e-12)
    assert (lanczos, dense) == _NORM_BRANCHES[case]
    assert operator_norm(M) == got   # bit-identical from the seeded start


def test_operator_norm_splits_only_an_exactly_zero_odd_block(monkeypatch):
    # one nonzero parity-odd entry: the matrix no longer commutes with the
    # parity, so its norm is the full matrix's, not the larger block's
    A = _parity_block_operator()
    blocks = operator_norm(A)
    p = A.basis.indices.sum(axis=1) % 2
    k, l = int(np.argmax(p == 0)), int(np.argmax(p == 1))
    entries = A.entries.copy()
    entries[k, l] = 10.0 * blocks
    B = OperatorMatrix(A.basis, entries)
    lanczos, dense = _solver_calls(monkeypatch)
    want = float(np.linalg.norm(entries, 2))
    assert want > 9.0 * blocks
    assert operator_norm(B) == pytest.approx(want, rel=1e-12)
    assert (lanczos, dense) == ([], [])    # not Hermitian: one dense SVD


def test_operator_norm_non_hermitian_takes_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("non-Hermitian input reached an eigensolver")

    monkeypatch.setattr(quantize, "_lanczos_norm", refuse)
    monkeypatch.setattr(quantize, "eigvalsh", refuse)
    for n in (50, 300):
        A = _random_hermitian(n, 3)
        A[0, 1] += 1e-6
        assert operator_norm(A) == float(np.linalg.norm(A, 2))


def test_operator_norm_falls_back_when_lanczos_does_not_converge(monkeypatch):
    def no_convergence(matvec, n, dtype):
        return None

    monkeypatch.setattr(quantize, "_lanczos_norm", no_convergence)
    M = _random_hermitian(300, 4)
    assert operator_norm(M) == pytest.approx(float(np.linalg.norm(M, 2)),
                                             rel=1e-12)


def test_operator_norm_holds_one_parity_block():
    # criterion 03's Weyl matrix at 4 sites, degree 4 (n = 625, parity blocks
    # of 313 and 312): the blocks are copied out one after the other and the
    # zero and Hermitian tests scan bands of rows, so the norm holds at most
    # one block, what Lanczos allocates on it (basis and working vectors),
    # and the parity vector, its index arrays and their temporaries
    A = _criterion03_weyl(4)
    p = A.basis.indices.sum(axis=1) % 2
    block = A.entries[np.ix_(p == 0, p == 0)]
    lanczos, _ = _peak_and_result(quantize._lanczos_norm, lambda v: block @ v,
                                  block.shape[0], block.dtype)
    peak, got = _peak_and_result(operator_norm, A)
    assert got == pytest.approx(float(np.linalg.norm(A.entries, 2)), rel=1e-12)
    assert peak <= block.nbytes + lanczos + 4 * p.nbytes


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


def test_norm_error_bar_floor_separates_rounding_from_truncation():
    # the constant symbol is the identity at every degree, so its bar is
    # rounding alone; criterion 03's lattice grows with the degree
    rep = ladder_run(_const_with_class(2), IndexLadder(2, ((0,), (0, 1))),
                     HermiteBasis(2, H, 3))
    assert rep.norm_error_bar <= rep.norm_error_bar_floor
    assert rep.norm_error_bar_floor == pytest.approx(quantize.NORM_ROUNDING)
    g = tuple(0.5 * 0.7**j for j in range(4))
    F = make_lattice(LatticeSymbolParams(d=1, g=g, t=1.0, V="cos"), 2)
    ladder = IndexLadder(4, ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)))
    rep = ladder_run(F, ladder, HermiteBasis(4, H, 2))
    assert rep.norm_error_bar > rep.norm_error_bar_floor > 0.0


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
    assert [s.route for s in rep.steps] == ["chain"] * 4
    assert rep.error_bar_route == "chain"
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


@pytest.mark.parametrize("case", ["lattice-4site", "lattice-two-step", "exp-small-freq"])
def test_ladder_diff_bound_is_fresh_subset_sum(case):
    # each rung difference is bounded by the sum over the fresh subsets I of
    # M prod_{j in I} x_j; with frequencies near 1e-4 the x_j are ~1e-6 and
    # the subtraction cv_n - cv_{n-1} misses this sum by ~5e-11 relative.
    # A step that adds two coordinates has the fresh subset {j, k}, so its
    # bound is not the sum of the fresh x_j.  Each rung's tail is the sum of
    # eps_j^2 over the coordinates outside it.
    if case == "exp-small-freq":
        F = make_exponential([1e-4, -2e-5, 3e-5], [2e-5, 1e-4, -4e-5])
        ladder = IndexLadder(3, ((2,), (0, 2), (0, 1, 2)))
    else:   # criterion 03's lattice
        g = tuple(0.5 * 0.7**j for j in range(4))
        F = make_lattice(LatticeSymbolParams(d=1, g=g, t=1.0, V="cos"), 2)
        steps = (((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)) if case == "lattice-4site"
                 else ((0,), (0, 1, 2), (0, 1, 2, 3)))
        ladder = IndexLadder(4, steps)
    dim = ladder.ambient_dim
    rep = ladder_run(F, ladder, HermiteBasis(dim, H, 1))
    M, eps = F.class_M, np.asarray(F.class_eps, dtype=float)
    tails = [sum(eps[j] ** 2 for j in range(dim) if j not in lam)
             for lam in ladder.subsets]
    if case == "exp-small-freq":   # eps = (1e-4, 1e-4, 4e-5)
        assert tails == pytest.approx([2e-8, 1e-8, 0.0], rel=1e-12, abs=0.0)
    assert [s.tail for s in rep.steps] == pytest.approx(tails, rel=1e-12, abs=0.0)
    S = max(1.0, float(np.max(eps**2)))
    x = [81.0 * math.pi * H * S * e**2 for e in eps]
    for step, prev, lam in zip(rep.steps[1:], ladder.subsets, ladder.subsets[1:]):
        want = sum(M * math.prod(x[j] for j in I)
                   for r in range(1, len(lam) + 1)
                   for I in itertools.combinations(lam, r)
                   if not set(I) <= set(prev))
        assert step.diff_bound == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rep.final_bound == cv_bound(M, eps, H)


def _gaussian_with_class(T, t, eps):
    F = make_quadratic(T, t)
    F.class_M = 1.0
    F.class_eps = np.asarray(eps, dtype=float)
    return F


def test_gaussian_ladder_coupled_3_sites_stays_closed_form():
    # every T_I of a Gaussian is a signed sum of smoothed Gaussians, so the
    # first rung's subset expansion, each rung and the error bar all take
    # the Gaussian route, and the expansion matches its rung to rounding
    D = 3
    F = _gaussian_with_class(_random_psd(np.random.default_rng(5), 2 * D), 0.5,
                             [0.3, 0.3, 0.3])
    ladder = IndexLadder(D, ((0,), (0, 1), (0, 1, 2)))
    basis = HermiteBasis(D, H, 3)
    rep = ladder_run(F, ladder, basis)
    assert [s.route for s in rep.steps] == ["gaussian"] * D
    assert rep.error_bar_route == "gaussian"
    assert rep.route_residual <= 1e-13
    assert np.abs(rep.final.entries - weyl_matrix(F, basis).entries).max() < 1e-13
    # the expansion of the second rung too, T_I F for every I inside {0, 1}
    mats = [hybrid_matrix(op_T_I(F, I, H), CoordinateSplit(D, I), basis).entries
            for I in ((), (0,), (1,), (0, 1))]
    rung = hybrid_matrix(F, CoordinateSplit(D, (0, 1)), basis).entries
    assert np.abs(sum(mats) - rung).max() <= 1e-13


def test_gaussian_ladder_separable_norms_match_closed_form():
    # F = exp(-sum_j lam_j (z_j^2 + zeta_j^2)): per coordinate the Weyl
    # matrix has top entry 1/(1 + lam h) and the anti-Wick one 1/(1 + 2 lam h)
    # (the Mehler diagonals), so rung n has norm
    # prod_{j < n} (1 + lam_j h)^-1 prod_{j >= n} (1 + 2 lam_j h)^-1
    D = 4
    lam = 0.5 * 0.7 ** np.arange(D)
    F = _gaussian_with_class(np.diag(np.tile(lam, 2)), 1.0, np.sqrt(lam))
    ladder = IndexLadder(D, tuple(tuple(range(k + 1)) for k in range(D)))
    rep = ladder_run(F, ladder, HermiteBasis(D, H, 2))
    assert [s.route for s in rep.steps] == ["gaussian"] * D
    for n, step in enumerate(rep.steps, start=1):
        want = np.prod(1.0 / (1.0 + lam[:n] * H)) * np.prod(1.0 / (1.0 + 2.0 * lam[n:] * H))
        assert abs(step.norm - want) <= 1e-13
    assert rep.route_residual <= 1e-13


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
    M = dense_weyl(F, basis)
    rng = np.random.default_rng(3)
    for _ in range(4):
        f = FunctionRep(basis, rng.normal(size=basis.size))
        g = FunctionRep(basis, rng.normal(size=basis.size))
        lhs = abs(weyl_form(M, f, g))
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
        lhs = abs(weyl_form(weyl_matrix(Hsym, basis).entries, f, g))
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


def _criterion03_weyl(degree):
    g = tuple(0.5 * 0.7**j for j in range(4))
    F = make_lattice(LatticeSymbolParams(d=1, g=g, t=1.0, V="cos"), 2)
    return weyl_matrix(F, HermiteBasis(4, H, degree))


@pytest.mark.parametrize("case", ["edges-complex", "edges-real", "repeated",
                                  "n1-complex", "n1-real", "lattice-625"])
def test_operator_matrix_writer_matches_the_standard_encoder(case):
    m = EDGE_FLOATS.size
    meta = {"symbol": "s", "ladder": [[0], [0, 1]], "h": H}
    if case == "edges-complex":   # every edge value against every other
        basis = HermiteBasis(1, H, m - 1)
        entries = np.empty((m, m), dtype=complex)
        entries.real, entries.imag = EDGE_FLOATS[:, None], EDGE_FLOATS[None, :]
    elif case == "edges-real":
        basis = HermiteBasis(1, H, m - 1)
        entries = EDGE_FLOATS[np.add.outer(np.arange(m), np.arange(m)) % m]
    elif case == "repeated":
        basis = HermiteBasis(2, H, 7)
        rng = np.random.default_rng(3)
        values = np.array([0.5, -0.0, 0.0, 1.0 / 3.0, -5e-324])
        entries = (rng.choice(values, (basis.size, basis.size))
                   + 1j * rng.choice(values, (basis.size, basis.size)))
    elif case.startswith("n1"):
        basis = HermiteBasis(1, H, 0)
        entries = np.array([[-1e-5]]) if case == "n1-real" else np.array([[-0.0j]])
    else:
        op = _criterion03_weyl(4)
        basis, entries, meta = op.basis, op.entries, op.meta
    M = OperatorMatrix(basis, entries, meta)
    assert M.entries.dtype == entries.dtype
    text = M.to_json()
    header = {"basis": {"dim": basis.dim, "h": basis.h,
                        "max_degree": basis.max_degree}, "meta": meta}
    assert text == json_per_entry(header, "entries", M.entries)
    back = OperatorMatrix.from_json(text)
    assert back.entries.dtype == complex
    assert back.entries.tobytes() == M.entries.astype(complex).tobytes()


def test_real_operator_summary_numbers_match_complex_copy():
    # float64 entries are kept as they are; the norm and the hermiticity
    # defect read the same as on the complex128 copy, bit for bit
    op = _criterion03_weyl(3)
    assert op.entries.dtype == np.float64
    cop = OperatorMatrix(op.basis, op.entries.astype(complex))
    assert operator_norm(op) == operator_norm(cop)
    assert op.hermiticity_defect() == cop.hermiticity_defect()
