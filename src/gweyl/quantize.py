"""Quantization of phase-space symbols in the truncated Hermite basis.

Three quantizations share one assembly scheme.  For basis elements e_k the
matrix entry of a symbol F is

    M[k, l] = int F(Z) G_{l,k}(Z) dnu(Z)

where per coordinate the pair factor G and the measure nu are

  * symmetric ("weyl") coordinates: the pair transform W[l_j, k_j](Z_j)
    against the Gaussian of variance h/2,
  * projection ("aw") coordinates: the anti-holomorphic diagonal
    B[l_j, k_j](Z_j) = (T e_{l_j})(Z_j) conj((T e_{k_j})(Z_j)) against the
    Gaussian of variance h.

A hybrid operator uses "weyl" on a selected coordinate block and "aw" on the
complement; the all-selected and none-selected cases are the symmetric and
the positive quantization.  A Fourier atom e^{i(a z + b zeta)} needs no
quadrature: per coordinate it quantizes to a displacement operator, the
symmetric pair table at the single point (-h b/2, -h a/2) with column parity
(-1)^l, times exp(-v (a^2 + b^2) / 2) for the coordinate's variance v, so
Fourier-measure symbols assemble in closed form at any dimension and degree.
Nearest-neighbour chain symbols assemble from per-site quadrature tables at
any dimension; generic symbols use a dense tensor grid (dim <= 2).  A chain
site factor is a sum of separable terms e^{imz} g(zeta) on the q x q tensor
grid, so a site table contracts the pair table over zeta once per term and
then over z for every frequency m at once: one pass over the q^2 grid per
term instead of one per frequency.

The independent oracle ``weyl_matrix_classical`` builds the operator from
the oscillatory integral

    (Op F) f(x) = (2 pi h)^(-d) int exp(i (x-y).xi / h) F((x+y)/2, xi) f(y)
                  dy dxi

on a uniform Simpson grid, conjugated into the Gaussian-measure basis by the
gamma map, and validates its own resolution on F = 1 before every run.  On
that grid the midpoints (x+y)/2 and the differences x-y each take 2nx - 1
lattice values, so the xi-integral is one matrix product of F on the
(midpoint, xi) lattice against exp(i xi (x-y) / h) on the (xi, difference)
lattice, read back at (i+j, i-j): O(nx nxi) symbol values and phases instead
of nx^2 nxi.

The truncation ladder runs over an increasing coordinate family Lambda_n.
Per coordinate anti-Wick(G) = Weyl(H_{h/2} G), and G = sum_{I subset of
Lambda} T_I S_{Lambda \\ I} G, so the paper's rung sum_{I subset of
Lambda_n} Op^{hyb,I}(T_I F) is one hybrid matrix of F: symmetric on
Lambda_n, positive elsewhere.  Each rung is assembled that way, and the
subset expansion is kept as a route check on the first rung only (2^|Lambda_1|
matrices, 2 on a nested-prefix ladder), reported as the largest entry of the
difference.  The paper bounds each subset's term by

    ||Op^{hyb,I}(T_I F)|| <= M prod_{j in I} x_j,  x_j = 81 pi h S_eps eps_j^2,

for h in (0, 1] (S_eps = sup_j max(1, eps_j^2)).  Summed over I subset of
Lambda_n these give the rung bound cv_n = M prod_{j in Lambda_n} (1 + x_j),
and summed over the fresh subsets (those not inside Lambda_{n-1}) they give
the bound on the n-th spectral-norm difference,

    cv_{n-1} (prod_{fresh j} (1 + x_j) - 1),

evaluated as cv_{n-1} expm1(sum log1p(x_j)): the subtraction cv_n - cv_{n-1}
loses the small fresh factors to rounding.  The report gives each rung's
difference-to-bound ratio and flags the bounds as vacuous when one exceeds
its difference by more than 1e6.  The full rung is the Weyl matrix of F, so
one Weyl matrix one degree up gives the truncation error bar.  Rungs of a
real symbol are Hermitian, and their norms are taken by Lanczos (see
``operator_norm``).
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigvalsh
from scipy.linalg.blas import zgemv
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from ._kernels import bargmann_pair_table, chain_contract, wigner_pair_table
from .errors import InputError, NumericalError, ResourceError
from .gaussian import PhasePoint, gauss_hermite_1d, tensor_rule
from .heat import CoordinateSplit, max_subset_size, op_T_I, smooth_symbol
from .hermite import (
    MAX_STABLE_DEGREE, FunctionRep, HermiteBasis, coherent_state,
    complex_from_pairs, complex_pairs, gamma_map,
)
from .symbols import SymbolDescriptor, make_fourier_measure

# flipped by the mutation fixtures in the test suite; any value other than
# +1.0 corrupts the symmetric-kernel sign and must trip the oracle checks
_MUTATE_TABLE_SIGN = 1.0


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

@dataclass
class OperatorMatrix:
    """Matrix of an operator in the truncated Hermite basis."""

    basis: HermiteBasis
    entries: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        n = self.basis.size
        if e.shape != (n, n):
            raise InputError(f"entries must be {n} x {n}")
        if not np.all(np.isfinite(e.view(float))):
            raise InputError("matrix entries must be finite")
        self.entries = e

    def norm(self) -> float:
        return operator_norm(self)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "basis": {
                    "dim": self.basis.dim,
                    "h": self.basis.h,
                    "max_degree": self.basis.max_degree,
                },
                "meta": self.meta,
                "entries": complex_pairs(self.entries),
            }
        )

    @staticmethod
    def from_json(text: str) -> "OperatorMatrix":
        data = json.loads(text)
        basis = HermiteBasis(**data["basis"])
        n = basis.size
        flat = complex_from_pairs(data["entries"])
        return OperatorMatrix(basis, flat.reshape(n, n), data.get("meta", {}))


_HERMITIAN_TOL = 1e-13   # defect relative to max |entry| treated as Hermitian
_LANCZOS_MIN_N = 128     # above this size Lanczos beats the dense eigensolver


def operator_norm(A) -> float:
    """Spectral norm (largest singular value); 0.0 if empty.

    Hermitian input has norm max |eigenvalue|: dense ``eigvalsh`` up to
    n = 128, above that one Lanczos eigenpair (ARPACK ``eigsh``) from a fixed
    seeded start, so the result is bit-reproducible, falling back to the
    dense eigensolver if ARPACK does not converge.  Anything else takes a
    dense SVD.
    """
    M = A.entries if isinstance(A, OperatorMatrix) else np.asarray(A, dtype=complex)
    if M.size == 0:
        return 0.0
    n = M.shape[0]
    if M.shape != (n, n) or (np.max(np.abs(M - M.conj().T))
                             > _HERMITIAN_TOL * np.max(np.abs(M))):
        return float(np.linalg.norm(M, 2))
    if n > _LANCZOS_MIN_N:
        # ARPACK runs on scipy's BLAS, so the matvec does too: a numpy matvec
        # alternates between two OpenBLAS thread pools, which made eigsh about
        # 50x slower at n = 256 under default threading on 2 CPUs.  Mt is M^T
        # in Fortran order (no copy), and trans=1 applies its transpose, M.
        Mt = np.asfortranarray(M.T)
        op = LinearOperator((n, n), dtype=complex,
                            matvec=lambda x: zgemv(1.0, Mt, np.ravel(x), trans=1))
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            top = eigsh(op, k=1, which="LM", v0=v0, return_eigenvectors=False)
            return float(abs(top[0]))
        except ArpackNoConvergence:
            pass
    return float(np.max(np.abs(eigvalsh(M))))


# ---------------------------------------------------------------------------
# per-coordinate grids and tables
# ---------------------------------------------------------------------------

def _mode_variance(mode: str, h: float) -> float:
    if mode == "weyl":
        return 0.5 * h
    if mode == "aw":
        return h
    raise InputError(f"unknown coordinate mode {mode!r}")


def _coord_grid(h: float, mode: str, order: int):
    v = _mode_variance(mode, h)
    nodes, w = tensor_rule([v, v], order)
    return nodes, w


def _coord_table(h: float, mode: str, deg: int, nodes: np.ndarray) -> np.ndarray:
    wz = nodes[:, 0] + 1j * _MUTATE_TABLE_SIGN * nodes[:, 1]
    if mode == "weyl":
        return wigner_pair_table(math.sqrt(2.0 / h) * wz, deg)
    return bargmann_pair_table(wz / math.sqrt(2.0 * h), deg)


def _grid_order(mode: str, h: float, base: int, max_freq: float) -> int:
    """Order needed to resolve exp(i m z) against the mode's Gaussian."""
    v = _mode_variance(mode, h)
    return base + int(math.ceil(0.75 * max_freq**2 * v))


def _kron_positions(basis: HermiteBasis) -> np.ndarray:
    d = basis.max_degree + 1
    idx = basis.indices
    strides = d ** np.arange(basis.dim - 1, -1, -1)
    return idx @ strides


def _reindex(kron_matrix: np.ndarray, basis: HermiteBasis) -> np.ndarray:
    pos = _kron_positions(basis)
    return kron_matrix[np.ix_(pos, pos)]


# ---------------------------------------------------------------------------
# assembly paths
# ---------------------------------------------------------------------------

_DENSE_BLOCK = 64     # first-coordinate nodes per block of the dim-2 grid


def _assemble_dense(F: SymbolDescriptor, basis: HermiteBasis, modes,
                    order: int | None) -> np.ndarray:
    D, h, deg = basis.dim, basis.h, basis.max_degree
    if D > 2:
        raise ResourceError("dense quantization grids are limited to dim <= 2")
    base = order if order is not None else (80 if D == 1 else 48)
    grids = [_coord_grid(h, modes[j], base) for j in range(D)]
    tables = [_coord_table(h, modes[j], deg, grids[j][0]) for j in range(D)]
    if D == 1:
        nodes, w = grids[0]
        vals = F(nodes[:, :1], nodes[:, 1:])
        kron = np.einsum("i,lki->kl", w * vals, tables[0])
    else:
        (n1, w1), (n2, w2) = grids
        q1, q2 = n1.shape[0], n2.shape[0]
        # F is evaluated and contracted against the second coordinate's table
        # a block of first-coordinate nodes at a time, which bounds the
        # memory of the q1 x q2 tensor grid.
        A = np.empty((q1, deg + 1, deg + 1), dtype=complex)
        for x0 in range(0, q1, _DENSE_BLOCK):
            x1 = min(x0 + _DENSE_BLOCK, q1)
            z = np.empty((x1 - x0, q2, 2))
            ze = np.empty((x1 - x0, q2, 2))
            z[..., 0] = n1[x0:x1, 0][:, None]
            ze[..., 0] = n1[x0:x1, 1][:, None]
            z[..., 1] = n2[:, 0][None, :]
            ze[..., 1] = n2[:, 1][None, :]
            vals = F(z.reshape(-1, 2), ze.reshape(-1, 2)).reshape(x1 - x0, q2)
            G = (w1[x0:x1, None] * w2[None, :]) * vals
            A[x0:x1] = np.einsum("xy,aby->xab", G, tables[1], optimize=True)
        K = np.einsum("abx,xcd->bdac", tables[0], A, optimize=True)
        dd = deg + 1
        kron = K.reshape(dd * dd, dd * dd)
    return _reindex(kron, basis)


def _assemble_atoms(F: SymbolDescriptor, basis: HermiteBasis, modes) -> np.ndarray:
    # closed form per coordinate: see the module docstring
    D, h, deg = basis.dim, basis.h, basis.max_degree
    c, a, b = zip(*F.atoms)
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    parity = (-1.0) ** np.arange(deg + 1)
    factors = []
    for j in range(D):
        v = _mode_variance(modes[j], h)
        node = np.stack([-0.5 * h * b[:, j], -0.5 * h * a[:, j]], axis=1)
        tbl = _coord_table(h, "weyl", deg, node) * parity[None, :, None]
        factors.append(np.moveaxis(
            tbl * np.exp(-0.5 * v * (a[:, j] ** 2 + b[:, j] ** 2)), 2, 0))
    return _kron_sum(c, factors, basis)


def _kron_sum(c, factors, basis: HermiteBasis) -> np.ndarray:
    """sum_n c_n factors[0][n] (x) ... (x) factors[D-1][n], in basis order."""
    out = None
    for n, cn in enumerate(c):
        term = factors[0][n]
        for f in factors[1:]:
            term = np.kron(term, f[n])
        out = cn * term if out is None else out + cn * term
    return _reindex(out, basis)


_SITE_TABLE_CACHE = {}     # per-site tables, oldest evicted first
_SITE_TABLE_CACHE_CAP = 64


def _chain_site_table(entries, mode: str, h: float, deg: int, moff: int,
                      nmax: int, order: int | None) -> np.ndarray:
    """Reduced per-site factor tables over the frequency axis, memoized.

    Frequencies beyond nmax + 6 only pair with negligible bond coefficients,
    so the grid is sized for that effective band.
    """
    key = (entries, mode, h, deg, moff, nmax, order, _MUTATE_TABLE_SIGN)
    if key in _SITE_TABLE_CACHE:
        return _SITE_TABLE_CACHE[key]
    base = order if order is not None else 64
    q = _grid_order(mode, h, base, float(nmax + 6))
    nodes, _ = _coord_grid(h, mode, q)
    # The grid is the q x q tensor rule in (z, zeta) and every site entry is
    # coef e^{-zvar m^2/2} e^{imz} times amp e^{-alpha zeta^2}, so each entry
    # contracts the table over zeta once, then over z for all m at once.
    tbl = _coord_table(h, mode, deg, nodes).reshape(deg + 1, deg + 1, q, q)
    x, wx = gauss_hermite_1d(q, _mode_variance(mode, h))
    m = np.arange(-moff, moff + 1, dtype=float)
    wave = np.exp(1j * m[:, None] * x[None, :]) * wx[None, :]
    out = sum(
        np.einsum("mz,lkz->mkl",
                  e.coef * np.exp(-0.5 * e.zvar * m**2)[:, None] * wave,
                  tbl @ (e.amp * np.exp(-e.alpha * x**2) * wx), optimize=True)
        for e in entries
    )
    _SITE_TABLE_CACHE[key] = out
    if len(_SITE_TABLE_CACHE) > _SITE_TABLE_CACHE_CAP:
        del _SITE_TABLE_CACHE[next(iter(_SITE_TABLE_CACHE))]
    return out


def _assemble_chain(F: SymbolDescriptor, basis: HermiteBasis, modes,
                    order: int | None) -> np.ndarray:
    data = F.chain
    D, h, deg = basis.dim, basis.h, basis.max_degree
    if data.nsites != D:
        raise InputError("chain symbol does not match the basis dimension")
    moff = data.mrange
    U = np.stack([
        _chain_site_table(data.site[j], modes[j], h, deg, moff, data.nmax, order)
        for j in range(D)
    ])
    a = np.reshape(data.bond_c, (D - 1, 2 * data.nmax + 1))
    return _reindex(chain_contract(U, a), basis)


def hybrid_matrix(F: SymbolDescriptor, split: CoordinateSplit,
                  basis: HermiteBasis, order: int | None = None) -> OperatorMatrix:
    """Matrix acting symmetrically on the selected block, positively elsewhere.

    ``order`` sets the quadrature order of the chain and dense grids only;
    Fourier-atom symbols are assembled in closed form and ignore it.
    """
    if split.ambient_dim != basis.dim or F.dim != basis.dim:
        raise InputError("symbol, split and basis dimensions must agree")
    modes = ["weyl" if j in split.selected else "aw" for j in range(basis.dim)]
    if F.atoms is not None:
        kron = _assemble_atoms(F, basis, modes)
    elif F.chain is not None:
        kron = _assemble_chain(F, basis, modes, order)
    else:
        kron = _assemble_dense(F, basis, modes, order)
    meta = {"symbol": F.name, "method": "hybrid", "h": basis.h,
            "selected": list(split.selected), "order": order}
    return OperatorMatrix(basis, kron, meta)


def weyl_matrix(F: SymbolDescriptor, basis: HermiteBasis,
                order: int | None = None) -> OperatorMatrix:
    """Symmetric quantization matrix (quadratic-form route)."""
    split = CoordinateSplit(basis.dim, tuple(range(basis.dim)))
    out = hybrid_matrix(F, split, basis, order)
    out.meta["method"] = "weyl"
    return out


def antiwick_matrix(F: SymbolDescriptor, basis: HermiteBasis,
                    order: int | None = None) -> OperatorMatrix:
    """Positive quantization matrix (anti-holomorphic diagonal route)."""
    split = CoordinateSplit(basis.dim, ())
    out = hybrid_matrix(F, split, basis, order)
    out.meta["method"] = "antiwick"
    return out


def weyl_form(F: SymbolDescriptor, f: FunctionRep, g: FunctionRep,
              order: int | None = None) -> complex:
    """Quadratic form <Op(F) f, g> = int F(Z) W_h(f, g)(Z) dmu_{h/2}(Z)."""
    if F.growth not in ("bounded", "polynomial"):
        raise InputError(f"undeclared growth class {F.growth!r}")
    if f.basis != g.basis:
        raise InputError("f and g must share a basis")
    M = weyl_matrix(F, f.basis, order)
    return complex(np.conj(g.coeffs) @ M.entries @ f.coeffs)


# ---------------------------------------------------------------------------
# classical-kernel oracle
# ---------------------------------------------------------------------------

def _simpson_weights(n: int, step: float) -> np.ndarray:
    if n < 3 or n % 2 == 0:
        raise InputError("Simpson grids need an odd number of points >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def _classical_grid(basis: HermiteBasis, shift: float, oversample: float):
    from .gaussian import max_nodes

    h, deg = basis.h, basis.max_degree
    spread = math.sqrt(h * (2 * deg + 1))
    L = spread + 7.0 * math.sqrt(h) + shift
    Lxi = spread + 6.0 * math.sqrt(h) + shift
    freq_x = Lxi / h + math.sqrt((2 * deg + 1) / h)
    freq_xi = 2.0 * L / h
    nx = int(2 * L / (math.pi / (oversample * freq_x)))
    nxi = int(2 * Lxi / (math.pi / (oversample * freq_xi)))
    nx += 1 - nx % 2
    nxi += 1 - nxi % 2
    if nx * nx * nxi > 200 * max_nodes():
        raise ResourceError(
            f"classical-kernel grid {nx}x{nx}x{nxi} exceeds the node budget"
        )
    xs = np.linspace(-L, L, nx)
    xis = np.linspace(-Lxi, Lxi, nxi)
    return xs, _simpson_weights(nx, xs[1] - xs[0]), xis, \
        _simpson_weights(nxi, xis[1] - xis[0])


def _classical_1d(F, basis: HermiteBasis, xs, wx, xis, wxi) -> np.ndarray:
    # On the uniform grid xs the midpoints (x_i + x_j)/2 sit on a lattice of
    # 2nx - 1 points indexed by i + j, and the differences x_i - x_j on one
    # indexed by i - j + nx - 1.  The xi-quadrature of the kernel is then one
    # product G = (F(mids, xi) w_xi) @ exp(i xi diffs / h), and the kernel is
    # the gather M1[i, j] = G[i + j, i - j + nx - 1].  gb[k, i] = (gamma e_k)(x_i).
    h, nx = basis.h, xs.size
    gb = gamma_map(basis.eval_table, xs[:, None], h)
    mids = np.linspace(xs[0], xs[-1], 2 * nx - 1)
    diffs = (xs[1] - xs[0]) * np.arange(1 - nx, nx)
    z = np.repeat(mids, xis.size)[:, None]
    zeta = np.tile(xis, mids.size)[:, None]
    fv = F(z, zeta).reshape(mids.size, xis.size)
    G = (fv * wxi[None, :]) @ np.exp(1j * xis[:, None] * diffs[None, :] / h)
    i = np.arange(nx)
    M1 = G[i[:, None] + i[None, :], i[:, None] - i[None, :] + nx - 1]
    gw = gb * wx[None, :]
    return (gw.conj() @ M1 @ gw.T) / (2.0 * math.pi * h)


_DIAG_CACHE = {}      # identity residual per grid, oldest evicted first
_DIAG_CACHE_CAP = 16
_DIAG_TOL = 5e-6      # largest identity residual on F = 1 the oracle accepts


def weyl_matrix_classical(F: SymbolDescriptor, basis: HermiteBasis,
                          oversample: float = 3.5) -> OperatorMatrix:
    """Independent symmetric-quantization oracle via the oscillatory kernel.

    dim 1: dense Simpson grids, with an identity diagnostic on F = 1 that
    aborts (NumericalError) when its residual exceeds 5e-6, i.e. when the
    resolution is insufficient.  dim 2 is available for Fourier-atom symbols
    only: each atom's 1-dim oracle matrices per coordinate, joined by the
    same Kronecker sum as the closed-form atom assembly.
    """
    d = basis.dim
    if d == 1:
        shift = 0.0
        if F.atoms is not None:
            shift = max(
                max(abs(float(b[0])), abs(float(a[0]))) * basis.h
                for _, a, b in F.atoms
            )
        shift = 0.5 * math.ceil(2.0 * shift)  # quantized so grids cache-share
        xs, wx, xis, wxi = _classical_grid(basis, shift, oversample)
        key = (basis.dim, basis.h, basis.max_degree, xs.size, xis.size,
               round(float(xs[-1]), 9), round(float(xis[-1]), 9))
        if key not in _DIAG_CACHE:
            one = SymbolDescriptor(1, lambda z, zeta: np.ones(z.shape[0], complex),
                                   name="1")
            ident = _classical_1d(one, basis, xs, wx, xis, wxi)
            resid = float(np.max(np.abs(ident - np.eye(basis.size))))
            _DIAG_CACHE[key] = resid
            if len(_DIAG_CACHE) > _DIAG_CACHE_CAP:
                del _DIAG_CACHE[next(iter(_DIAG_CACHE))]
        resid = _DIAG_CACHE[key]
        if resid > _DIAG_TOL:
            raise NumericalError(
                f"classical-kernel resolution check failed: identity residual "
                f"{resid:.3e} > {_DIAG_TOL:.1e} on grid {xs.size} x {xis.size}"
            )
        entries = _classical_1d(F, basis, xs, wx, xis, wxi)
        meta = {"symbol": F.name, "method": "weyl-classical", "h": basis.h,
                "grid": [int(xs.size), int(xis.size)],
                "identity_residual": resid}
        return OperatorMatrix(basis, entries, meta)
    if d == 2 and F.atoms is not None:
        b1 = HermiteBasis(1, basis.h, basis.max_degree)
        factors = [[weyl_matrix_classical(
            make_fourier_measure([(1.0, a[j:j + 1], b[j:j + 1])], name="atom"),
            b1, oversample).entries for _, a, b in F.atoms] for j in range(2)]
        entries = _kron_sum([c for c, _, _ in F.atoms], factors, basis)
        meta = {"symbol": F.name, "method": "weyl-classical", "h": basis.h}
        return OperatorMatrix(basis, entries, meta)
    raise ResourceError(
        "classical-kernel oracle supports dim 1, or dim 2 Fourier-atom symbols"
    )


def antiwick_equals_smoothed_weyl_check(F: SymbolDescriptor, basis: HermiteBasis,
                                        order: int | None = None) -> float:
    """Spectral norm of antiwick(F) - classical(half-heat-smoothed F), dim 1."""
    if basis.dim != 1:
        raise InputError("the smoothed-symbol check runs in dim 1")
    aw = antiwick_matrix(F, basis, order)
    smoothed = smooth_symbol(F, range(F.dim), 0.5 * basis.h)
    cl = weyl_matrix_classical(smoothed, basis)
    return operator_norm(aw.entries - cl.entries)


# ---------------------------------------------------------------------------
# translation-phase oracle operators
# ---------------------------------------------------------------------------

def oracle_U(a, b, h: float, basis: HermiteBasis,
             order: int | None = None) -> OperatorMatrix:
    """Matrix of (U f)(u) = e^{-h|b|^2/2 + i h a.b/2 + i l_{a+ib}(u)} f(u + h b).

    Entries are quadratures of the defining expression; U is unitary, so the
    compression has norm <= 1 up to quadrature error.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape[0] != basis.dim or b.shape[0] != basis.dim:
        raise InputError("vector dimensions must match the basis")
    q = order if order is not None else max(96, 2 * basis.max_degree + 40)
    rule = basis.default_rule(q)
    pref = math.exp(-0.5 * h * float(b @ b)) * np.exp(0.5j * h * float(a @ b))
    phase = np.exp(1j * (rule.nodes @ a) - rule.nodes @ b)
    tk = basis.eval_table(rule.nodes)
    tsh = basis.eval_table(rule.nodes + h * b[None, :])
    entries = pref * ((tk * (rule.weights * phase)) @ tsh.T)
    return OperatorMatrix(basis, entries,
                          {"method": "oracle-U", "a": a.tolist(), "b": b.tolist(),
                           "h": h})


def quantize_fourier_measure(points, h: float, basis: HermiteBasis,
                             order: int | None = None) -> OperatorMatrix:
    """Operator of a finitely supported Fourier measure: sum c_k U(a_k, b_k)."""
    total = None
    mass = 0.0
    for c, a, b in points:
        U = oracle_U(a, b, h, basis, order)
        term = complex(c) * U.entries
        total = term if total is None else total + term
        mass += abs(complex(c))
    if total is None:
        raise InputError("need at least one atom")
    return OperatorMatrix(basis, total,
                          {"method": "fourier-measure", "abs_mass": mass, "h": h})


def wick_symbol(A: OperatorMatrix, X: PhasePoint) -> complex:
    """Coherent-state diagonal <A Psi_X, Psi_X> through the matrix."""
    cs = coherent_state(X, A.basis.h, A.basis)
    c = cs.coeffs
    return complex(np.conj(c) @ A.entries @ c)


# ---------------------------------------------------------------------------
# norm bound and the truncation ladder
# ---------------------------------------------------------------------------

def _bound_factors(eps, h: float) -> np.ndarray:
    """Per-coordinate factors x_j = 81 pi h S_eps eps_j^2, h in (0, 1]."""
    if not (0.0 < h <= 1.0):
        raise InputError(f"the norm bound requires h in (0, 1], got {h}")
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    S = float(max(1.0, np.max(eps**2))) if eps.size else 1.0
    return 81.0 * math.pi * h * S * eps**2


def cv_bound(M: float, eps, h: float) -> float:
    """Operator-norm bound M prod_j (1 + x_j); see ``_bound_factors``."""
    return float(M * np.prod(1.0 + _bound_factors(eps, h)))


@dataclass(frozen=True)
class IndexLadder:
    """Strictly increasing coordinate subsets ending at the full index set."""

    ambient_dim: int
    subsets: tuple

    def __post_init__(self):
        subs = tuple(tuple(sorted(set(int(j) for j in s))) for s in self.subsets)
        if not subs:
            raise InputError("ladder needs at least one rung")
        for s in subs:
            if any(j < 0 or j >= self.ambient_dim for j in s):
                raise InputError("ladder subset outside the ambient index set")
        for lo, hi in zip(subs, subs[1:]):
            if not set(lo) < set(hi):
                raise InputError("ladder subsets must be strictly increasing")
        if set(subs[-1]) != set(range(self.ambient_dim)):
            raise InputError("the last rung must be the full index set")
        object.__setattr__(self, "subsets", subs)


@dataclass
class LadderStep:
    n: int
    lambda_size: int
    diff_norm: float | None
    diff_bound: float | None
    tail: float
    norm: float
    cv_bound: float


VACUOUS_RATIO = 1e-6   # diff/bound below this flags the bound as vacuous


@dataclass
class ConvergenceReport:
    """Per-rung ladder records plus the final operator and its checks."""

    steps: list
    final: OperatorMatrix
    norm_error_bar: float | None
    route_residual: float

    @property
    def final_norm(self) -> float:
        return self.steps[-1].norm

    @property
    def final_bound(self) -> float:
        return self.steps[-1].cv_bound

    @property
    def bound_ratios(self) -> list:
        """diff_norm / diff_bound per rung after the first (None if bound 0)."""
        return [float(s.diff_norm / s.diff_bound) if s.diff_bound > 0 else None
                for s in self.steps if s.diff_norm is not None]

    @property
    def vacuous_bound(self) -> bool:
        """True when some rung's bound exceeds its difference by > 1e6x."""
        return any(r is not None and r < VACUOUS_RATIO for r in self.bound_ratios)

    @property
    def ok(self) -> bool:
        return all(
            s.diff_norm is None or s.diff_norm <= s.diff_bound * (1 + 1e-9)
            for s in self.steps
        ) and self.final_norm <= self.final_bound * (1 + 1e-9)

    def to_csv(self, path, metadata: dict | None = None):
        with open(path, "w", newline="") as fh:
            for key, val in (metadata or {}).items():
                fh.write(f"# {key}={val}\n")
            writer = csv.writer(fh)
            writer.writerow(["n", "lambda_size", "diff_norm", "diff_bound",
                             "tail", "final_norm", "cv_bound"])
            for s in self.steps:
                writer.writerow([
                    s.n, s.lambda_size,
                    "" if s.diff_norm is None else f"{s.diff_norm:.17g}",
                    "" if s.diff_bound is None else f"{s.diff_bound:.17g}",
                    f"{s.tail:.17g}", f"{s.norm:.17g}", f"{s.cv_bound:.17g}",
                ])


def ladder_run(F: SymbolDescriptor, ladder: IndexLadder, basis: HermiteBasis,
               order: int | None = None) -> ConvergenceReport:
    """Assemble the hybrid-operator ladder of F and audit it against the bounds.

    Rung n is the single hybrid matrix of F with symmetric block Lambda_n,
    which equals the sum over I subset of Lambda_n of the hybrid matrices of
    T_I F with symmetric block I; successive differences are therefore the
    fresh-subset contributions, compared with the closed-form sum of their
    bounds (see the module docstring).  That subset expansion is assembled
    for the first rung only, capped by GW_MAX_SUBSETS on |Lambda_1|, and its
    largest entry against the rung is ``route_residual``.  ``norm_error_bar``
    is the change of the final norm at degree + 1, ``None`` at the largest
    stable degree.
    """
    if F.class_eps is None or F.class_M is None:
        raise InputError("ladder symbols need derivative-class metadata (M, eps)")
    h = basis.h
    x = _bound_factors(F.class_eps, h)
    if ladder.ambient_dim != basis.dim:
        raise InputError("ladder and basis dimensions must agree")
    first = ladder.subsets[0]
    if len(first) > max_subset_size():
        raise ResourceError(
            f"2^{len(first)} first-rung subset expansion exceeds the cap "
            f"(GW_MAX_SUBSETS)"
        )
    eps = np.asarray(F.class_eps, dtype=float)
    M0 = float(F.class_M)

    def hybrid(G, block):
        return hybrid_matrix(G, CoordinateSplit(basis.dim, block), basis,
                             order).entries

    steps = []
    running = None
    for n, lam in enumerate(ladder.subsets, start=1):
        current = hybrid(F, lam)
        if running is None:
            expansion = sum(hybrid(op_T_I(F, I, h), I)
                            for r in range(len(lam) + 1)
                            for I in itertools.combinations(lam, r))
            route_residual = float(np.max(np.abs(expansion - current)))
            diff_norm = None
            diff_bound = None
        else:
            fresh = [j for j in lam if j not in prev]
            diff_norm = operator_norm(current - running)
            diff_bound = steps[-1].cv_bound * math.expm1(np.sum(np.log1p(x[fresh])))
        tail = float(np.sum(eps[[j for j in range(basis.dim) if j not in lam]] ** 2))
        cv_n = float(M0 * np.prod(1.0 + x[list(lam)]))
        steps.append(LadderStep(n, len(lam), diff_norm, diff_bound, tail,
                                operator_norm(current), cv_n))
        prev = lam
        running = current

    final = OperatorMatrix(basis, running,
                           {"symbol": F.name, "method": "ladder", "h": h,
                            "ladder": [list(s) for s in ladder.subsets]})
    # The ladder's full rung is Op^W(F), so the truncation error bar needs
    # only the Weyl matrix one degree up.
    error_bar = None
    if basis.max_degree < MAX_STABLE_DEGREE:
        up = weyl_matrix(F, HermiteBasis(basis.dim, h, basis.max_degree + 1), order)
        error_bar = abs(up.norm() - steps[-1].norm)
    return ConvergenceReport(steps, final, error_bar, route_residual)
