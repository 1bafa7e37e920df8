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
Fourier-measure symbols assemble in closed form at any dimension and degree;
all atoms are contracted in one matrix product over the atom axis.

A Gaussian symbol amp exp(-<A X, X>) is amp E e^{i omega.X} with omega =
(a | b) ~ N(0, Sigma), Sigma = 2A.  An atom's matrix on a coordinate of
variance v has, with r = sqrt(h/2), the generating function

    sum M[k, l] s^k t^l / sqrt(k! l!)
        = exp(-(v/2)(a^2 + b^2) + i r a (s + t) + r b (t - s) + s t).

With u = (s | t), the linear part omega^T B u and C = diag(kappa, kappa),
kappa = v / 2, the average over omega is C_0 exp(u^T R u / 2): K = I +
2 Sigma C, C_0 = amp det(K)^(-1/2), R = J + B^T K^(-1) Sigma B, J pairing s_j
with t_j (a singular Sigma needs no special case).  The table N_gamma =
sqrt(gamma!) [u^gamma] of it, which is the matrix, satisfies

    sqrt(gamma_i + 1) N_{gamma + e_i} = sum_j R_ij sqrt(gamma_j) N_{gamma - e_j},

Mehler's formula in general form and the recurrence of Fock amplitudes of
Gaussian states (Miatto and Quesada, Quantum 4, 366, 2020).  It is filled
from N_0 = C_0 one axis of u at a time, exactly and with no nodes.  The
exponential is even, so its odd-degree coefficients, the parity-odd block
(|k| + |l| odd), are sums of zeros: exactly 0.

Nearest-neighbour chain symbols assemble from per-site quadrature tables at
any dimension, on a rule sized from the degree.  No other symbol has a
route: every family is Fourier atoms, a chain or a sum of Gaussians.  A
chain site factor is a sum of separable terms e^{imz} amp e^{-alpha zeta^2},
and the pair table is a polynomial of degree <= 2 deg in zeta, so the zeta
integral of a term is exact on deg + 1 Gauss-Hermite nodes of the Gaussian
narrowed by e^{-alpha zeta^2}.  Only z needs a quadrature order that
resolves the frequency waves: 64 nodes plus a frequency term, grown by one
node per degree above 16, as the table's z-degree 2 deg grows.  (Projecting
e^{imz} on the Hermite polynomials of degree <= 2 deg would be exact, but
its terms cancel: it lost 3e-9 of the largest entry at degree 16, all of it
at 40.)  The zeta nodes pair as +-y and G(z, -zeta) = conj G(z, zeta)
(below), so one node of each pair is evaluated.  A site table contracts the
pair table over zeta once per term, a chunk of zeta nodes at a time under a
fixed memory budget, then over z for every frequency m at once: about
(deg + 1) q_z / 2 table points per term instead of the q^2 of a tensor grid.

The chain route runs in real arithmetic.  A site factor e^{imz} g(zeta) has
g real and even, and both pair tables satisfy G(z, -zeta) = conj G(z, zeta)
and G(-Z) = (-1)^(k+l) G(Z), so a site table U[m, k, l] is real where k + l
is even and imaginary where it is odd: in the rotated basis i^k e_k the
table V[m, k, l] = i^(k-l) U[m, k, l] is real.  The bonds are real, so the
chain of the V is a real matrix M~ = i^(|k|-|l|) M.  The symbol is also even
under X -> -X (real palindromic bonds, even sites), so M commutes with the
parity (-1)^|k|: its parity-odd block (|k| + |l| odd) is exactly 0, and
elsewhere M = i^(|l|-|k|) M~ = sigma_k sigma_l M~ with sigma = (-1)^floor(|k|/2).
So the chain matrix is real symmetric, written with exact zeros, and its
norm is taken one real parity block at a time (see ``operator_norm``).

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
of nx^2 nxi, and a (2nx - 1) x nxi x (2nx - 1) product.  The phase table
depends on the grid alone: with xi = m dxi and x - y = n dx it is E[|m n|],
conjugated where m n < 0, for E[j] = exp(i dxi dx j / h), so it takes
(nxi - 1)(nx - 1)/2 + 1 exponentials.  Each symbol takes one dim-1 grid,
sized for the largest frequency of any atom and coordinate; its tables,
with the gamma-map table, are built once and shared by the F = 1 check and
the symbol.  A Fourier atom e^{i(a z + b zeta)} is rank 1 on the lattice,
so its kernel is a Hankel matrix of e^{i a mid} times a Toeplitz matrix of
(e^{i b xi} w_xi) @ phase, both read as views of two vectors.  A Fourier
measure runs at any dimension: each atom's 1-dim matrices per coordinate
are joined by the Kronecker sum of the closed-form atom route.  In dim 1
the K atoms (F = 1 of the resolution check included) are summed on the
lattice instead, by one K-row product before a single read-back.  Generic
symbols keep the full lattice, in dim 1 only; ``meta`` records the grid,
its identity residual and the route, "atoms" (with the atom count) or
"dense".

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
real symbol are Hermitian, and their norms above n = 128 are taken by a
numpy Lanczos that reads the operator only through a matvec (see
``operator_norm``), one parity block at a time.
"""

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg import eigvalsh

from ._kernels import bargmann_pair_table, chain_contract, wigner_pair_table
from .errors import InputError, NumericalError, ResourceError
from .gaussian import PhasePoint, gauss_hermite_1d, max_nodes
from .heat import CoordinateSplit, max_subset_size, op_T_I, smooth_symbol
from .hermite import (
    MAX_STABLE_DEGREE, HermiteBasis, coherent_state,
    complex_from_pairs, dumps_with_pairs, gamma_map, write_csv,
)
from .symbols import SymbolDescriptor

# flipped by the mutation fixtures in the test suite; any value other than
# +1.0 corrupts the symmetric-kernel sign and must trip the oracle checks
_MUTATE_TABLE_SIGN = 1.0


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

@dataclass
class OperatorMatrix:
    """Matrix of an operator in the truncated Hermite basis, float64 or complex128."""

    basis: HermiteBasis
    entries: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        e = np.asarray(self.entries)
        e = e.astype(complex if np.iscomplexobj(e) else float, copy=False)
        n = self.basis.size
        if e.shape != (n, n):
            raise InputError(f"entries must be {n} x {n}")
        if not np.all(np.isfinite(e)):
            raise InputError("matrix entries must be finite")
        self.entries = e

    def norm(self) -> float:
        return operator_norm(self)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def to_json(self) -> str:
        b = self.basis
        doc = {"basis": {"dim": b.dim, "h": b.h, "max_degree": b.max_degree},
               "meta": self.meta}
        return dumps_with_pairs(doc, "entries", self.entries)

    @staticmethod
    def from_json(text: str) -> "OperatorMatrix":
        data = json.loads(text)
        basis = HermiteBasis(**data["basis"])
        n = basis.size
        flat = complex_from_pairs(data["entries"])
        return OperatorMatrix(basis, flat.reshape(n, n), data.get("meta", {}))


_HERMITIAN_TOL = 1e-13   # defect relative to max |entry| treated as Hermitian
_LANCZOS_MIN_N = 128     # above this size Lanczos beats the dense eigensolver
_BAND_ROWS = 16          # rows per temporary in the Hermitian and parity scans
_LANCZOS_CHECK = 8       # Lanczos steps between convergence checks


def _parity(basis: HermiteBasis) -> np.ndarray:
    """Parity |k| mod 2 of each basis element."""
    return basis.indices.sum(axis=1) % 2


def _bands(n: int):
    """Slices of at most _BAND_ROWS consecutive rows covering 0..n-1."""
    return (slice(i, i + _BAND_ROWS) for i in range(0, n, _BAND_ROWS))


def operator_norm(A) -> float:
    """Spectral norm (largest singular value); 0.0 if empty.

    An ``OperatorMatrix`` whose parity-odd block (|k| + |l| odd) is exactly
    zero commutes with the parity (-1)^|k|, so its norm is the larger of its
    two parity blocks' norms, each block about n/2; the blocks are copied
    out one after the other, and the zero test and the Hermitian test scan
    bands of rows, so the norm holds one block and band-sized temporaries.
    A matrix whose imaginary part is exactly zero is taken in float64.
    Hermitian input has norm max |eigenvalue|: dense ``eigvalsh`` up to
    n = 128, above that ``_lanczos_norm`` from a fixed seeded start, so the
    result is bit-reproducible, falling back to the dense eigensolver if
    Lanczos does not converge.  Anything else takes a dense SVD.
    """
    M = A.entries if isinstance(A, OperatorMatrix) else np.asarray(A)
    if not np.iscomplexobj(M):
        M = M.astype(float, copy=False)
    elif not M.imag.any():
        M = M.real
    if isinstance(A, OperatorMatrix):
        p = _parity(A.basis)
        even, odd = np.flatnonzero(p == 0), np.flatnonzero(p)
        if not any(M[rows[r]][:, cols].any() for rows, cols in ((even, odd), (odd, even))
                   for r in _bands(rows.size)):
            return max(_dense_norm(M[np.ix_(idx, idx)]) for idx in (even, odd))
    return _dense_norm(M)


def _dense_norm(M: np.ndarray) -> float:
    """``operator_norm`` of one dense float64 or complex128 matrix.

    The Hermitian test and Lanczos hold band- and basis-sized temporaries;
    only the dense solvers (n <= 128, a Lanczos fallback, or the SVD of a
    non-Hermitian matrix) copy the whole matrix.
    """
    if M.size == 0:
        return 0.0
    n = M.shape[0]
    if M.shape != (n, n) or not _hermitian(M):
        return float(np.linalg.norm(M, 2))
    if n > _LANCZOS_MIN_N:
        top = _lanczos_norm(lambda v: M @ v, n, M.dtype)
        if top is not None:
            return top
    return float(np.max(np.abs(eigvalsh(M))))


def _hermitian(M: np.ndarray) -> bool:
    """max |M - M^H| <= _HERMITIAN_TOL max |M|, one temporary band of rows at a time."""
    defect = scale = 0.0
    for r in _bands(M.shape[0]):
        band = M[r] - M[:, r].T.conj()
        defect = max(defect, np.abs(band, out=band).real.max())
        scale = max(scale, np.abs(M[r], out=band).real.max())
    return defect <= _HERMITIAN_TOL * scale


def _lanczos_norm(matvec, n: int, dtype):
    """Largest |eigenvalue| of a Hermitian n x n operator, or None.

    Lanczos with full reorthogonalisation (Gram-Schmidt twice per step) from
    the start ``default_rng(0).standard_normal(n)``, applying the operator
    only through ``matvec``.  Every _LANCZOS_CHECK steps the Ritz value theta
    of largest modulus, at either end of the tridiagonal's spectrum, is
    accepted once its residual |beta_j s_j| (s the Ritz vector's last
    component) is at most n eps |theta|: for a Hermitian operator that bounds
    the distance from theta to an eigenvalue.  The Krylov space is exhausted
    after n steps (beta = 0 sooner on an invariant subspace), so that is the
    cap; None means it was reached unconverged.
    """
    tol = n * np.finfo(float).eps
    Q = np.empty((min(n, 64), n), dtype)   # orthonormal basis, one row per step
    q = np.random.default_rng(0).standard_normal(n)
    Q[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    for j in range(n):
        basis = Q[:j + 1]
        w = matvec(Q[j])
        c = (basis @ w.conj()).conj()
        w -= c @ basis
        w -= (basis @ w.conj()).conj() @ basis
        alpha.append(c[j].real)
        b = float(np.linalg.norm(w))
        if b == 0.0 or (j + 1) % _LANCZOS_CHECK == 0 or j + 1 == n:
            # the tridiagonal's lower triangle, all eigh reads
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
            top = np.argmax(np.abs(theta))
            if b * abs(s[-1, top]) <= tol * abs(theta[top]):
                return float(abs(theta[top]))
            if j + 1 == n:
                return None
        if j + 1 == len(Q):
            Q = np.concatenate((Q, np.empty((min(len(Q), n - len(Q)), n), dtype)))
        beta.append(b)
        Q[j + 1] = w / b
    return None


# ---------------------------------------------------------------------------
# per-coordinate grids and tables
# ---------------------------------------------------------------------------

def _mode_variance(mode: str, h: float) -> float:
    if mode == "weyl":
        return 0.5 * h
    if mode == "aw":
        return h
    raise InputError(f"unknown coordinate mode {mode!r}")


def _coord_table(h: float, mode: str, deg: int, nodes: np.ndarray) -> np.ndarray:
    wz = nodes[:, 0] + 1j * _MUTATE_TABLE_SIGN * nodes[:, 1]
    if mode == "weyl":
        return wigner_pair_table(math.sqrt(2.0 / h) * wz, deg)
    return bargmann_pair_table(wz / math.sqrt(2.0 * h), deg)


# ---------------------------------------------------------------------------
# assembly paths
# ---------------------------------------------------------------------------

_ATOM_CHUNK_BYTES = 1 << 27   # tables held at once by the atom and chain routes


def _assemble_atoms(c, a, b, basis: HermiteBasis, modes) -> np.ndarray:
    """sum_n c_n Op(e^{i(a_n.z + b_n.zeta)}) in closed form.

    Each atom is a displacement per coordinate (see the module docstring).
    Its damping is a scalar per atom and its parity (-1)^|l| a sign per
    column, so both are applied outside the tables.  Atoms are taken a chunk at a time,
    so the tables held at once stay near _ATOM_CHUNK_BYTES.
    """
    D, h, deg = basis.dim, basis.h, basis.max_degree
    d = deg + 1
    v = np.array([_mode_variance(m, h) for m in modes])
    c = c * np.exp(-0.5 * (a**2 + b**2) @ v)
    # per atom: D tables and their temporaries, and the Kronecker tail
    step = max(1, _ATOM_CHUNK_BYTES // (16 * (2 * D * d * d + d ** (2 * D - 2))))
    M = np.zeros((d ** D, d ** D), dtype=complex)
    for lo in range(0, c.size, step):
        part = slice(lo, lo + step)
        nodes = [np.stack([-0.5 * h * b[part, j], -0.5 * h * a[part, j]], axis=1)
                 for j in range(D)]
        M += _kron_sum(c[part], [_coord_table(h, "weyl", deg, x) for x in nodes])
    return M * (-1.0) ** basis.indices.sum(axis=1)


def _kron_sum(c, factors) -> np.ndarray:
    """sum_n c_n factors[0][..., n] (x) ... (x) factors[D-1][..., n].

    factors[j] has shape (p_j, q_j, atoms); the result is (prod p_j, prod q_j).
    The later factors are joined atom by atom, then one matrix product over
    the atom axis does the sum.
    """
    c = np.asarray(c, dtype=complex)
    head = factors[0]
    p, q, n = head.shape
    if len(factors) == 1:
        return (head.reshape(p * q, n) @ c).reshape(p, q)
    tail = factors[-1]
    for f in reversed(factors[1:-1]):
        (fp, fq, _), (r, s, _) = f.shape, tail.shape
        tail = np.einsum("pqn,rsn->prqsn", f, tail).reshape(fp * r, fq * s, n)
    r, s, _ = tail.shape
    out = (head * c).reshape(p * q, n) @ tail.reshape(r * s, n).T
    return out.reshape(p, q, r, s).transpose(0, 2, 1, 3).reshape(p * r, q * s)


def _gaussian_table(quad, basis: HermiteBasis, modes) -> np.ndarray:
    """The sum of the terms' tables, from the first one: 0 + (-0.0) is +0.0,
    so a single term keeps its signed zeros."""
    return functools.reduce(operator.add, (_gaussian_term(amp, A, basis, modes)
                                           for amp, A in quad))


def _gaussian_term(amp, A, basis: HermiteBasis, modes) -> np.ndarray:
    """amp exp(-<A X, X>) by the generating-function recurrence (module docstring)."""
    D, h, d = basis.dim, basis.h, basis.max_degree + 1
    kappa = np.tile([0.5 * _mode_variance(m, h) for m in modes], 2)
    I, O = np.eye(D), np.zeros((D, D))
    B = math.sqrt(0.5 * h) * np.block([[1j * I, 1j * I], [-I, I]])
    Sigma = 2.0 * A
    K = np.eye(2 * D) + 2.0 * Sigma * kappa
    S = np.linalg.solve(K, Sigma)
    R = np.block([[O, I], [I, O]]) + B.T @ (0.5 * (S + S.T)) @ B
    N = np.zeros((d,) * (2 * D), dtype=complex)
    N[(0,) * (2 * D)] = amp / math.sqrt(np.linalg.det(K))
    root = np.sqrt(np.arange(d))
    for i in range(2 * D):
        # axis i with the later axes at 0, so only R[i, :i + 1] reaches it
        P = N[(slice(None),) * (i + 1) + (0,) * (2 * D - 1 - i)]
        for n in range(d - 1):
            nxt = P[..., n + 1]
            if n:
                nxt += R[i, i] * root[n] * P[..., n - 1]
            for j in range(i):
                # sqrt(gamma_j) N_{gamma - e_j}: layer n shifted up along axis j
                below = (slice(None),) * j + (slice(None, -1),)
                above = (slice(None),) * j + (slice(1, None),)
                w = root[1:].reshape((-1,) + (1,) * (i - 1 - j))
                nxt[above] += R[i, j] * w * P[..., n][below]
            nxt /= root[n + 1]
    return N.reshape(d ** D, d ** D)


_SITE_TABLE_CACHE = {}     # per-site tables, oldest evicted first
_SITE_TABLE_CACHE_CAP = 64
_SITE_Z_BASE = 64          # z rule's base order at degree <= 16


def _site_order(mode: str, h: float, nmax: int, deg: int) -> int:
    """z order of a chain site table: exp(i m z) resolved to |m| = nmax + 6
    against the mode's Gaussian, on _SITE_Z_BASE nodes plus one per degree
    above 16, as the pair table's degree grows."""
    freq = 0.75 * (nmax + 6) ** 2 * _mode_variance(mode, h)
    return _SITE_Z_BASE + max(0, deg - 16) + int(math.ceil(freq))


def _chain_site_table(entries, mode: str, h: float, deg: int, moff: int,
                      nmax: int) -> np.ndarray:
    """Reduced per-site factor tables over the frequency axis, memoized.

    Every site entry is coef e^{-zvar m^2/2} e^{imz} times amp e^{-alpha zeta^2}
    and the pair table is a polynomial of degree <= 2 deg in zeta, so the zeta
    integral is exact on deg + 1 Gauss-Hermite nodes of N(0, v / (1 + 2 alpha v))
    with weights scaled by amp / sqrt(1 + 2 alpha v), v the mode's variance.
    Only z takes the ``_site_order`` rule, and the budget (GW_MAX_NODES)
    caps q_z (deg + 1).  Each entry's pair table is evaluated on the z nodes
    times a chunk of zeta nodes at a time, so the tables held at once stay
    near _ATOM_CHUNK_BYTES, and contracted over zeta, then over z for every
    frequency m at once in one matrix product.  Frequencies beyond nmax + 6
    only pair with negligible bond coefficients, so the z rule is sized for
    that effective band.
    """
    d = deg + 1
    qz = _site_order(mode, h, nmax, deg)
    if qz * d > max_nodes():
        raise ResourceError(
            f"chain site table needs {qz} x {d} nodes at degree {deg}, "
            f"budget is {max_nodes()} (GW_MAX_NODES)"
        )
    key = (entries, mode, h, deg, moff, nmax, _MUTATE_TABLE_SIGN)
    if key in _SITE_TABLE_CACHE:
        return _SITE_TABLE_CACHE[key]
    v = _mode_variance(mode, h)
    x, wx = gauss_hermite_1d(qz, v)
    m = np.arange(-moff, moff + 1, dtype=float)
    wave = np.exp(1j * m[:, None] * x[None, :]) * wx[None, :]
    # the zeta nodes pair as +-y with equal weights and G(z, -y) = conj G(z, y),
    # so one node of each pair is evaluated with its weight doubled (the
    # centre node of an odd rule once) and the real part kept
    half = (d + 1) // 2
    fold = np.where(np.arange(half) == d // 2, 1.0, 2.0)
    step = max(1, _ATOM_CHUNK_BYTES // (16 * d * d * qz))
    out = np.zeros((m.size, d * d), dtype=complex)
    for e in entries:
        den = 1.0 + 2.0 * e.alpha * v
        y, wy = gauss_hermite_1d(d, v / den)
        wy = fold * wy[:half] * (e.amp / math.sqrt(den))
        A = np.zeros(d * d * qz)
        for lo in range(0, half, step):
            yc = y[lo:min(lo + step, half)]
            pts = np.stack([np.repeat(x, yc.size), np.tile(yc, qz)], axis=1)
            tbl = _coord_table(h, mode, deg, pts).reshape(-1, yc.size)
            A += (tbl @ wy[lo:lo + yc.size]).real
        damp = e.coef * np.exp(-0.5 * e.zvar * m**2)
        out += (damp[:, None] * wave) @ A.reshape(d * d, qz).T
    # A is indexed [l, k]; the table is U[m, k, l]
    out = np.ascontiguousarray(out.reshape(m.size, d, d).transpose(0, 2, 1))
    _SITE_TABLE_CACHE[key] = out
    if len(_SITE_TABLE_CACHE) > _SITE_TABLE_CACHE_CAP:
        del _SITE_TABLE_CACHE[next(iter(_SITE_TABLE_CACHE))]
    return out


def _assemble_chain(F: SymbolDescriptor, basis: HermiteBasis, modes):
    """Chain symbol from per-site tables; returns (matrix, largest order used)."""
    data = F.chain
    D, h, deg = basis.dim, basis.h, basis.max_degree
    if data.nsites != D:
        raise InputError("chain symbol does not match the basis dimension")
    moff = data.mrange
    U = np.stack([
        _chain_site_table(data.site[j], modes[j], h, deg, moff, data.nmax)
        for j in range(D)
    ])
    # rotated tables i^(k-l) U are real (see the module docstring); their
    # chain is M~ = i^(|k|-|l|) M, and M vanishes where |l| - |k| is odd.
    # Where it is even, i^(|l|-|k|) = sigma_k sigma_l, sigma = (-1)^floor(|k|/2).
    k = np.arange(deg + 1)
    V = (U * np.array([1, 1j, -1, -1j])[(k[:, None] - k[None, :]) % 4]).real
    a = np.reshape(data.bond_c, (D - 1, 2 * data.nmax + 1))
    sigma = 1.0 - 2.0 * (basis.indices.sum(axis=1) // 2 % 2)
    M = chain_contract(V, a)
    M *= sigma[:, None]
    M *= sigma
    even = _parity(basis) == 0
    M[np.ix_(even, ~even)] = 0.0
    M[np.ix_(~even, even)] = 0.0
    q = max(_site_order(m, h, data.nmax, deg) for m in modes)
    return M, q


ROUTE_KEYS = ("route", "atoms", "order")   # hybrid_matrix's route record


def hybrid_matrix(F: SymbolDescriptor, split: CoordinateSplit,
                  basis: HermiteBasis) -> OperatorMatrix:
    """Matrix acting symmetrically on the selected block, positively elsewhere.

    Routes, first match: Fourier atoms and sums of Gaussians in closed form,
    chain symbols from per-site tables (an exact zeta rule, and a z rule of
    64 nodes plus the frequency term, grown by one node per degree above
    16).  Any other symbol raises InputError.  ``meta`` records the route
    and its size: the atom count, or the largest z order used (the Gaussian
    route has none).
    """
    if split.ambient_dim != basis.dim or F.dim != basis.dim:
        raise InputError("symbol, split and basis dimensions must agree")
    modes = ["weyl" if j in split.selected else "aw" for j in range(basis.dim)]
    meta = {"symbol": F.name, "method": "hybrid", "h": basis.h,
            "selected": list(split.selected)}
    if F.atoms is not None:
        c, a, b = (np.array(v) for v in zip(*F.atoms))
        M = _assemble_atoms(c, a, b, basis, modes)
        meta.update(route="atoms", atoms=int(c.size))
    elif F.chain is not None:
        M, q = _assemble_chain(F, basis, modes)
        meta.update(route="chain", order=q)
    elif F.quad is not None:
        M = _gaussian_table(F.quad, basis, modes)
        meta.update(route="gaussian")
    else:
        raise InputError(f"symbol {F.name!r} is not Fourier atoms, a chain or "
                         "a Gaussian, so it has no quantization route")
    return OperatorMatrix(basis, M, meta)


def weyl_matrix(F: SymbolDescriptor, basis: HermiteBasis) -> OperatorMatrix:
    """Symmetric quantization matrix (quadratic-form route)."""
    split = CoordinateSplit(basis.dim, tuple(range(basis.dim)))
    out = hybrid_matrix(F, split, basis)
    out.meta["method"] = "weyl"
    return out


def antiwick_matrix(F: SymbolDescriptor, basis: HermiteBasis) -> OperatorMatrix:
    """Positive quantization matrix (anti-holomorphic diagonal route)."""
    split = CoordinateSplit(basis.dim, ())
    out = hybrid_matrix(F, split, basis)
    out.meta["method"] = "antiwick"
    return out


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


def _classical_tables(basis: HermiteBasis, xs, wx, xis):
    # The tables of one grid, shared by its F = 1 check and every symbol on
    # it: gw[k, i] = (gamma e_k)(x_i) wx_i, the phase exp(i xi diffs / h) on
    # the (xi, difference) lattice, and the gather indices of _classical_1d.
    # With xis = m dxi (|m| <= P) and diffs = n dx (|n| < nx) the phase is
    # E[|m n|], conjugated where m n < 0, for E[j] = exp(i theta j) and
    # theta = dxi dx / h: P (nx - 1) + 1 exponentials and one gather of the
    # m, n >= 0 quarter, in place of nxi (2nx - 1).
    h, nx, nxi = basis.h, xs.size, xis.size
    P = (nxi - 1) // 2
    dxi = (xis[-1] - xis[0]) / (nxi - 1)
    if nxi % 2 == 0 or abs(xis[P]) > 1e-9 * dxi:
        raise InputError("the classical-kernel xi grid must have odd length "
                         "and be centred on 0")
    theta = dxi * (xs[1] - xs[0]) / h
    E = np.exp(1j * theta * np.arange(P * (nx - 1) + 1))
    Q = E[np.arange(P + 1)[:, None] * np.arange(nx)[None, :]]
    phase = np.empty((nxi, 2 * nx - 1), dtype=complex)
    phase[P:, nx - 1:] = Q
    phase[P:, :nx - 1] = Q[:, :0:-1].conj()
    phase[:P] = phase[:P:-1, ::-1]      # phase[-m, -n] = phase[m, n]
    i = np.arange(nx)
    gw = gamma_map(basis.eval_table, xs[:, None], h) * wx[None, :]
    return gw, phase, i[:, None] + i[None, :], i[:, None] - i[None, :] + nx - 1


def _classical_1d(a, b, h: float, grid, c=None) -> np.ndarray:
    # On the uniform grid xs the midpoints (x_i + x_j)/2 sit on a lattice of
    # 2nx - 1 points indexed by i + j, and the differences x_i - x_j on one
    # indexed by i - j + nx - 1.  An atom e^{i(a z + b zeta)} is rank 1 on the
    # (mids, xi) lattice, so its xi-quadrature against the grid's phase table
    # exp(i xi diffs / h) is wz[i + j] v[i - j + nx - 1], wz = e^{i a mids}
    # and v = (e^{i b xi} w_xi) @ phase: a Hankel times a Toeplitz matrix,
    # both views of the two vectors.  Returns the (K, n, n) per-atom stack,
    # or with weights c their sum, taken on the lattice as the rank-K product
    # G = (wz c) @ v before one gather M1[i, j] = G[i + j, i - j + nx - 1].
    xs, xis, wxi, (gw, phase, rows, cols) = grid
    mids = np.linspace(xs[0], xs[-1], 2 * xs.size - 1)
    V = (np.exp(1j * np.outer(b, xis)) * wxi) @ phase
    if c is not None:
        M1 = ((np.exp(1j * np.outer(mids, a)) * c) @ V)[rows, cols]
    else:
        nx = xs.size
        hankel = sliding_window_view(np.exp(1j * np.outer(a, mids)), nx, axis=1)
        M1 = hankel * sliding_window_view(V, nx, axis=1)[..., ::-1]
    return (gw.conj() @ M1 @ gw.T) / (2.0 * math.pi * h)


def _classical_dense(F, h: float, grid) -> np.ndarray:
    # a generic dim-1 symbol on the full (mids, xi) lattice, the same product
    # and gather as the weighted atom sum of _classical_1d
    xs, xis, wxi, (gw, phase, rows, cols) = grid
    mids = np.linspace(xs[0], xs[-1], 2 * xs.size - 1)
    z = np.repeat(mids, xis.size)[:, None]
    zeta = np.tile(xis, mids.size)[:, None]
    fv = F(z, zeta).reshape(mids.size, xis.size)
    G = (fv * wxi[None, :]) @ phase
    return (gw.conj() @ G[rows, cols] @ gw.T) / (2.0 * math.pi * h)


_DIAG_CACHE = {}      # identity residual per grid, oldest evicted first
_DIAG_CACHE_CAP = 16
_DIAG_TOL = 5e-6      # largest identity residual on F = 1 the oracle accepts


def _classical_shift(a, b, h: float) -> float:
    # grid shift for the frequencies a, b: h max(|a|, |b|), rounded up to a
    # multiple of 1/2 so that nearby symbols share a grid and its check
    return 0.5 * math.ceil(2.0 * h * max(np.abs(a).max(), np.abs(b).max()))


def _classical_setup(basis: HermiteBasis, shift: float, oversample: float):
    """(grid, identity residual) of one dim-1 oracle grid.

    The grid is (xs, xis, wxi, tables).  Builds the grid's tables once and
    runs its F = 1 check, the atom a = b = 0 of weight 1, on them, unless
    ``_DIAG_CACHE`` holds the grid's residual; raises NumericalError when the
    residual exceeds ``_DIAG_TOL``.
    """
    xs, wx, xis, wxi = _classical_grid(basis, shift, oversample)
    grid = (xs, xis, wxi, _classical_tables(basis, xs, wx, xis))
    key = (basis.dim, basis.h, basis.max_degree, xs.size, xis.size,
           round(float(xs[-1]), 9), round(float(xis[-1]), 9))
    if key not in _DIAG_CACHE:
        zero = np.zeros(1)
        ident = _classical_1d(zero, zero, basis.h, grid, np.ones(1))
        _DIAG_CACHE[key] = float(np.max(np.abs(ident - np.eye(basis.size))))
        if len(_DIAG_CACHE) > _DIAG_CACHE_CAP:
            del _DIAG_CACHE[next(iter(_DIAG_CACHE))]
    resid = _DIAG_CACHE[key]
    if resid > _DIAG_TOL:
        raise NumericalError(
            f"classical-kernel resolution check failed: identity residual "
            f"{resid:.3e} > {_DIAG_TOL:.1e} on grid {xs.size} x {xis.size}"
        )
    return grid, resid


def weyl_matrix_classical(F: SymbolDescriptor, basis: HermiteBasis,
                          oversample: float = 3.5) -> OperatorMatrix:
    """Independent symmetric-quantization oracle via the oscillatory kernel.

    One dense dim-1 Simpson grid per symbol, sized for the largest frequency
    of any atom and coordinate, with an identity diagnostic on F = 1 that
    aborts (NumericalError) when its residual exceeds 5e-6, i.e. when the
    resolution is insufficient.  Fourier-atom symbols run at any dimension:
    each atom's 1-dim oracle matrices per coordinate, joined by the same
    Kronecker sum as the closed-form atom assembly, a chunk of atoms at a
    time.  Generic symbols run in dim 1 only.
    """
    D, h = basis.dim, basis.h
    b1 = HermiteBasis(1, h, basis.max_degree)
    if F.atoms is not None:
        c, a, b = (np.array(v) for v in zip(*F.atoms))
        shift = _classical_shift(a, b, h)
    elif D == 1:
        shift = 0.0
    else:
        raise ResourceError(
            "classical-kernel oracle supports dim 1, or Fourier-atom symbols"
        )
    grid, resid = _classical_setup(b1, shift, oversample)
    meta = {"symbol": F.name, "method": "weyl-classical", "h": h,
            "grid": [int(grid[0].size), int(grid[1].size)],
            "identity_residual": resid}
    if F.atoms is None:
        meta.update(route="dense")
        return OperatorMatrix(basis, _classical_dense(F, h, grid), meta)
    meta.update(route="atoms", atoms=int(c.size))
    if D == 1:
        return OperatorMatrix(basis, _classical_1d(a[:, 0], b[:, 0], h, grid, c),
                              meta)
    # per atom: one coordinate's (nx, nx) kernel and its half-conjugated copy,
    # the D (n, n) matrices and the Kronecker tail
    nx, n = grid[0].size, b1.size
    step = max(1, _ATOM_CHUNK_BYTES
               // (16 * (nx * (nx + n) + D * n * n + n ** (2 * D - 2))))
    entries = np.zeros((basis.size, basis.size), dtype=complex)
    for lo in range(0, c.size, step):
        part = slice(lo, lo + step)
        entries += _kron_sum(c[part], [
            np.moveaxis(_classical_1d(a[part, j], b[part, j], h, grid), 0, -1)
            for j in range(D)])
    return OperatorMatrix(basis, entries, meta)


def antiwick_equals_smoothed_weyl_check(F: SymbolDescriptor,
                                        basis: HermiteBasis) -> float:
    """Spectral norm of antiwick(F) - classical(half-heat-smoothed F), dim 1."""
    if basis.dim != 1:
        raise InputError("the smoothed-symbol check runs in dim 1")
    aw = antiwick_matrix(F, basis)
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
    compression has norm <= 1 up to quadrature error.  The expression is a
    product over coordinates, so each coordinate's 1-dim quadrature is taken
    at the same order and the matrix is their Kronecker product.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape[0] != basis.dim or b.shape[0] != basis.dim:
        raise InputError("vector dimensions must match the basis")
    q = order if order is not None else max(96, 2 * basis.max_degree + 40)
    b1 = HermiteBasis(1, basis.h, basis.max_degree)
    rule = b1.default_rule(q)
    x = rule.nodes[:, 0]
    tk = b1.eval_table(rule.nodes)
    factors = []
    for aj, bj in zip(a, b):
        pref = math.exp(-0.5 * h * (bj * bj)) * np.exp(0.5j * h * (aj * bj))
        phase = np.exp(1j * (x * aj) - x * bj)
        tsh = b1.eval_table(rule.nodes + h * bj)
        factors.append(pref * ((tk * (rule.weights * phase)) @ tsh.T))
    entries = factors[0]
    for f in factors[1:]:
        entries = np.kron(entries, f)
    return OperatorMatrix(basis, entries,
                          {"method": "oracle-U", "a": a.tolist(), "b": b.tolist(),
                           "h": h})


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
    route: str         # hybrid_matrix's route for the rung


VACUOUS_RATIO = 1e-6   # diff/bound below this flags the bound as vacuous
# A norm moves by up to 3.4e-15 of itself when its matrix's rows and columns
# are reordered with every entry bit-identical; the error bar is a difference
# of two norms, so below this share of the larger one it is rounding.
NORM_ROUNDING = 1e-14


@dataclass
class ConvergenceReport:
    """Per-rung ladder records plus the final operator and its checks."""

    steps: list
    final: OperatorMatrix
    norm_error_bar: float | None
    norm_error_bar_floor: float | None
    route_residual: float
    error_bar_route: str | None

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
        write_csv(path, metadata,
                  ["n", "lambda_size", "diff_norm", "diff_bound", "tail",
                   "final_norm", "cv_bound"],
                  [(s.n, s.lambda_size, s.diff_norm, s.diff_bound, s.tail, s.norm,
                    s.cv_bound) for s in self.steps])


def ladder_run(F: SymbolDescriptor, ladder: IndexLadder,
               basis: HermiteBasis) -> ConvergenceReport:
    """Assemble the hybrid-operator ladder of F and audit it against the bounds.

    Rung n is the single hybrid matrix of F with symmetric block Lambda_n,
    which equals the sum over I subset of Lambda_n of the hybrid matrices of
    T_I F with symmetric block I; successive differences are therefore the
    fresh-subset contributions, compared with the closed-form sum of their
    bounds (see the module docstring).  That subset expansion is assembled
    for the first rung only, capped by GW_MAX_SUBSETS on |Lambda_1|, and its
    largest entry against the rung is ``route_residual``.  ``norm_error_bar``
    is the change of the final norm at degree + 1, ``None`` at the largest
    stable degree; ``norm_error_bar_floor`` is ``NORM_ROUNDING`` times the
    larger of the two norms, the size of a bar that is only rounding.  Each
    step keeps its rung's route, and ``error_bar_route`` is the route of the
    degree + 1 matrix.
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
        return hybrid_matrix(G, CoordinateSplit(basis.dim, block), basis)

    steps = []
    running = None
    for n, lam in enumerate(ladder.subsets, start=1):
        rung = hybrid(F, lam)
        current = rung.entries
        if running is None:
            expansion = sum(hybrid(op_T_I(F, I, h), I).entries
                            for r in range(len(lam) + 1)
                            for I in itertools.combinations(lam, r))
            route_residual = float(np.max(np.abs(expansion - current)))
            diff_norm = None
            diff_bound = None
        else:
            fresh = [j for j in lam if j not in prev]
            diff_norm = operator_norm(OperatorMatrix(basis, current - running))
            diff_bound = steps[-1].cv_bound * math.expm1(np.sum(np.log1p(x[fresh])))
        tail = float(np.sum(eps[[j for j in range(basis.dim) if j not in lam]] ** 2))
        cv_n = float(M0 * np.prod(1.0 + x[list(lam)]))
        steps.append(LadderStep(n, len(lam), diff_norm, diff_bound, tail,
                                operator_norm(rung), cv_n, rung.meta["route"]))
        prev = lam
        running = current

    final = OperatorMatrix(basis, running,
                           {"symbol": F.name, "method": "ladder", "h": h,
                            "ladder": [list(s) for s in ladder.subsets]})
    # The ladder's full rung is Op^W(F), so the truncation error bar needs
    # only the Weyl matrix one degree up.
    error_bar = error_bar_floor = error_bar_route = None
    if basis.max_degree < MAX_STABLE_DEGREE:
        up = weyl_matrix(F, HermiteBasis(basis.dim, h, basis.max_degree + 1))
        up_norm = up.norm()
        error_bar = abs(up_norm - steps[-1].norm)
        error_bar_floor = NORM_ROUNDING * max(up_norm, steps[-1].norm)
        error_bar_route = up.meta["route"]
    return ConvergenceReport(steps, final, error_bar, error_bar_floor,
                             route_residual, error_bar_route)
