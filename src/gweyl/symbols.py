"""Symbol families on phase space R^D x R^D with smoothness-class metadata.

A symbol is a function F(z, zeta) together with optional structure:

  * ``atoms``: finitely many Fourier atoms c_k exp(i(a_k.z + b_k.zeta));
    Gaussian smoothing acts by closed-form per-atom damping.
  * ``chain``: a nearest-neighbour product form used by the lattice family
    with cosine coupling,
        F(z, zeta) = prod_j A_j(zeta_j) * prod_b exp(-c_b cos(z_b - z_{b+1})),
    stored exactly as a Bessel-Fourier series in z (I_n expansion, truncated
    at machine precision) times per-site Gaussian mixtures in zeta.  Gaussian
    smoothing acts closed-form on both factors.
  * ``quad``: F(X) = sum_i amp_i exp(-<A_i X, X>) for symmetric psd A_i
    (the quadratic family exp(-t <T X, X>), its smoothings and its
    difference products T_I); smoothing over any coordinate block has a
    closed Gaussian-integral form term by term, and so has the quantized
    matrix.

Class metadata (m, M, eps) asserts the product derivative bound

    |prod_j d_{u_j}^{alpha_j} d_{v_j}^{beta_j} F| <= M prod_j eps_j^(alpha_j+beta_j)

for all multi-indices with entries <= m.  ``verify_class`` checks the bound
by closed-form derivatives when the family has them and by high-order
central differences otherwise; ``norm_NIm`` sums h^((|alpha|+|beta|)/2)
times sampled sups of those derivatives.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, ResourceError
from .gaussian import GaussianMeasure, PhasePoint, sample as gaussian_sample, tensor_rule

BESSEL_TOL = 1e-15
MAX_CLASS_INDICES = 8192
FD_MAX_TOTAL_ORDER = 12


# ---------------------------------------------------------------------------
# chain structure (nearest-neighbour Fourier form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaGauss:
    """One mixture entry: coef * amp * exp(-alpha zeta^2), with an extra
    exp(-zvar m^2 / 2) damping on the Fourier side (accumulated z-smoothing)."""

    coef: float
    amp: float
    alpha: float
    zvar: float

    def __post_init__(self):
        if np.imag(self.coef) != 0:
            raise InputError("chain site coefficients must be real")
        object.__setattr__(self, "coef", float(np.real(self.coef)))

    def smoothed(self, s: float) -> "ZetaGauss":
        den = 1.0 + 2.0 * s * self.alpha
        return ZetaGauss(self.coef, self.amp / math.sqrt(den), self.alpha / den,
                         self.zvar + s)


@dataclass(frozen=True)
class ChainData:
    """Exact Fourier-in-z, Gaussian-mixture-in-zeta form of a chain symbol.

    Bond vectors must be real and palindromic (c_n = c_{-n}), so each bond
    factor is real and even in z_b - z_{b+1}: with the real, even site
    mixtures the symbol is real and even under X -> -X, which the chain
    quantization route relies on (see ``quantize``).
    """

    nsites: int
    nmax: int
    bond_c: tuple          # per bond: real palindromic array of length 2*nmax+1
    site: tuple            # per site: tuple of ZetaGauss entries

    def __post_init__(self):
        for c in self.bond_c:
            if np.any(np.imag(c) != 0) or not np.array_equal(c, c[::-1]):
                raise InputError("bond vectors must be real and palindromic")
        object.__setattr__(self, "bond_c",
                           tuple(np.real(c).astype(float) for c in self.bond_c))

    @property
    def mrange(self):
        """Frequency axis half-width; site frequencies lie in [-2 nmax, 2 nmax]."""
        return 2 * self.nmax

    def apply_site_ops(self, ops: dict, s: float) -> "ChainData":
        """Apply per-site operators: 'smooth' or 'id_minus_smooth' at variance s."""
        new_site = []
        for j, entries in enumerate(self.site):
            op = ops.get(j)
            if op is None:
                new_site.append(entries)
            elif op == "smooth":
                new_site.append(tuple(e.smoothed(s) for e in entries))
            elif op == "id_minus_smooth":
                smoothed = [e.smoothed(s) for e in entries]
                sm = tuple(replace(e, coef=-e.coef) for e in smoothed)
                new_site.append(entries + sm)
            else:
                raise InputError(f"unknown site op {op!r}")
        return ChainData(self.nsites, self.nmax, self.bond_c, tuple(new_site))


def _hermite_phys(k: int, x):
    """Physicists' Hermite polynomial H_k(x)."""
    h0 = np.ones_like(x)
    if k == 0:
        return h0
    h1 = 2.0 * x
    for j in range(1, k):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * j * h0
    return h1


def _chain_site_factor(entries, m: int, zj, zej, az: int = 0, bz: int = 0):
    """Site factor at frequency m with derivative orders (az in z, bz in zeta)."""
    out = np.zeros(zj.shape, dtype=complex)
    for e in entries:
        damp = e.coef * math.exp(-0.5 * e.zvar * m * m) * (1j * m) ** az
        if bz == 0:
            gpart = e.amp * np.exp(-e.alpha * zej**2)
        else:
            r = math.sqrt(e.alpha)
            gpart = (
                e.amp
                * (-r) ** bz
                * _hermite_phys(bz, r * zej)
                * np.exp(-e.alpha * zej**2)
            )
        out += damp * np.exp(1j * m * zj) * gpart
    return out


def chain_eval(data: ChainData, z, zeta, alpha=None, beta=None):
    """Evaluate a chain symbol (or a closed-form mixed derivative of it)."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    zeta = np.atleast_2d(np.asarray(zeta, dtype=float))
    D = data.nsites
    if alpha is None:
        alpha = [0] * D
    if beta is None:
        beta = [0] * D
    npts = z.shape[0]
    N = data.nmax
    ns = np.arange(-N, N + 1)
    # per-site factors for every frequency actually reachable
    if D == 1:
        return _chain_site_factor(data.site[0], 0, z[:, 0], zeta[:, 0],
                                  alpha[0], beta[0])
    site_vals = []
    for j in range(D):
        ms = np.arange(-data.mrange, data.mrange + 1)
        vals = np.stack(
            [_chain_site_factor(data.site[j], int(m), z[:, j], zeta[:, j],
                                alpha[j], beta[j]) for m in ms]
        )
        site_vals.append(vals)  # (4N+1, npts)
    off = data.mrange
    # left-to-right contraction over bond indices
    state = site_vals[0][ns + off] * data.bond_c[0][:, None]       # (2N+1, npts)
    for j in range(1, D - 1):
        diff = ns[None, :] - ns[:, None]                            # n_j - n_{j-1}
        bridge = site_vals[j][diff + off]                           # (2N+1, 2N+1, npts)
        state = np.einsum("ap,abp->bp", state, bridge)
        state = state * data.bond_c[j][:, None]
    closing = site_vals[D - 1][-ns + off]
    out = np.einsum("ap,ap->p", state, closing)
    return out


# ---------------------------------------------------------------------------
# the symbol descriptor
# ---------------------------------------------------------------------------

@dataclass
class SymbolDescriptor:
    """Phase-space function with evaluation, structure and class metadata."""

    dim: int
    func: object                      # callable (z, zeta) -> complex array
    name: str = "symbol"
    growth: str = "bounded"           # "bounded" | "polynomial"
    poly_degree: int = 0
    sup_norm: float | None = None     # exact sup |F| when known
    class_m: int | None = None
    class_M: float | None = None
    class_eps: np.ndarray | None = None
    atoms: list | None = None         # [(weight, a, b)]
    chain: ChainData | None = None
    quad: list | None = None          # [(amp, A)]: sum amp exp(-<A X, X>)
    deriv: object | None = None       # callable (alpha, beta, z, zeta)
    oracle: dict | None = None
    meta: dict = field(default_factory=dict)

    def __call__(self, z, zeta):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        zeta = np.atleast_2d(np.asarray(zeta, dtype=float))
        if z.shape[1] != self.dim or zeta.shape[1] != self.dim:
            raise InputError("symbol evaluated at points of wrong dimension")
        return np.asarray(self.func(z, zeta))

    def value_at(self, Z: PhasePoint) -> complex:
        return complex(self(Z.x[None, :], Z.xi[None, :])[0])

    def eval_nodes(self, nodes) -> np.ndarray:
        """Evaluate on phase nodes laid out as (n, 2*dim) = (z | zeta)."""
        nodes = np.asarray(nodes)
        return self(nodes[:, : self.dim], nodes[:, self.dim:])

    # -- closed-form structure hooks ------------------------------------

    def smoothed(self, coords, t: float):
        """Closed-form Gaussian smoothing over (z_j, zeta_j), j in coords.

        Returns a new descriptor, or None when no closed form is available.
        """
        coords = tuple(sorted(set(int(c) for c in coords)))
        if any(c < 0 or c >= self.dim for c in coords):
            raise InputError("smoothing coordinates out of range")
        if not coords:
            return self
        if self.atoms is not None:
            new_atoms = []
            for c, a, b in self.atoms:
                damp = math.exp(
                    -0.5 * t * sum(a[j] ** 2 + b[j] ** 2 for j in coords)
                )
                new_atoms.append((c * damp, a, b))
            return make_fourier_measure(new_atoms, dim=self.dim,
                                        name=f"H[{self.name}]")
        if self.chain is not None:
            data = self.chain.apply_site_ops({j: "smooth" for j in coords}, t)
            return chain_descriptor(data, name=f"H[{self.name}]",
                                    template=self)
        if self.quad is not None:
            return _gaussian_smoothed(self, coords, t)
        return None

    def restricted(self, coords):
        """F composed with the projection onto the listed coordinates.

        Fourier atoms and Gaussians keep their structure, so their
        restrictions still quantize in closed form: an atom loses its
        frequencies outside the coordinates, a Gaussian the rows and columns
        of each A outside them.  Any other symbol becomes a function only.
        """
        coords = tuple(sorted(set(int(c) for c in coords)))
        if self.atoms is not None:
            new_atoms = []
            for c, a, b in self.atoms:
                a2 = np.zeros_like(a)
                b2 = np.zeros_like(b)
                a2[list(coords)] = a[list(coords)]
                b2[list(coords)] = b[list(coords)]
                new_atoms.append((c, a2, b2))
            return make_fourier_measure(new_atoms, dim=self.dim,
                                        name=f"{self.name}|E")
        mask = np.zeros(self.dim)
        mask[list(coords)] = 1.0
        if self.quad is not None:
            # <A PX, PX> = <PAP X, X>, P the projection on (z_E, zeta_E)
            P = np.concatenate([mask, mask])
            return _gaussian_symbol([(amp, P[:, None] * A * P) for amp, A in self.quad],
                                    name=f"{self.name}|E", meta=self.meta)
        base = self.func

        def f(z, zeta):
            return base(z * mask, zeta * mask)

        return SymbolDescriptor(self.dim, f, name=f"{self.name}|E",
                                growth=self.growth, poly_degree=self.poly_degree,
                                sup_norm=self.sup_norm, meta=dict(self.meta))

    def derivative(self, alpha, beta, z, zeta):
        """Closed-form mixed derivative, or None when unavailable."""
        if self.chain is not None:
            return chain_eval(self.chain, z, zeta, list(alpha), list(beta))
        if self.deriv is not None:
            return self.deriv(alpha, beta, np.atleast_2d(z), np.atleast_2d(zeta))
        return None


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def make_constant(value, dim: int) -> SymbolDescriptor:
    a = np.zeros(dim)
    return make_fourier_measure([(value, a, a)], dim=dim, name=f"const({value})")


def make_exponential(a, b) -> SymbolDescriptor:
    """F(z, zeta) = exp(i (a.z + b.zeta)) with eps_j = max(|a_j|, |b_j|)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise InputError("a and b must have the same length")
    sym = make_fourier_measure([(1.0, a, b)], dim=a.shape[0], name="exp(i(a.z+b.zeta))")
    sym.class_m = None  # the derivative bound holds for every m
    sym.class_M = 1.0
    sym.class_eps = np.maximum(np.abs(a), np.abs(b))
    sym.sup_norm = 1.0
    sym.oracle = {"kind": "U", "a": a, "b": b}
    sym.meta["active"] = [int(j) for j in np.nonzero((a != 0) | (b != 0))[0]]
    return sym


def make_fourier_measure(atoms, dim: int | None = None, name="fourier") -> SymbolDescriptor:
    """Finitely supported Fourier measure sum_k c_k exp(i(a_k.z + b_k.zeta))."""
    norm_atoms = []
    for c, a, b in atoms:
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            raise InputError("atom vectors must have equal lengths")
        norm_atoms.append((complex(c), a, b))
    if not norm_atoms:
        raise InputError("need at least one atom")
    if dim is None:
        dim = norm_atoms[0][1].shape[0]
    if any(a.shape[0] != dim for _, a, _ in norm_atoms):
        raise InputError("atoms must share the symbol dimension")

    def f(z, zeta):
        out = np.zeros(z.shape[0], dtype=complex)
        for c, a, b in norm_atoms:
            out += c * np.exp(1j * (z @ a + zeta @ b))
        return out

    def deriv(alpha, beta, z, zeta):
        out = np.zeros(z.shape[0], dtype=complex)
        for c, a, b in norm_atoms:
            factor = np.prod((1j * a) ** np.asarray(alpha)) * np.prod(
                (1j * b) ** np.asarray(beta)
            )
            out += c * factor * np.exp(1j * (z @ a + zeta @ b))
        return out

    weights = np.array([c for c, _, _ in norm_atoms])
    total = float(np.sum(np.abs(weights)))
    positive = bool(np.all(np.abs(weights.imag) == 0.0) and np.all(weights.real >= 0))
    sym = SymbolDescriptor(
        dim=int(dim),
        func=f,
        name=name,
        sup_norm=total if positive else None,
        atoms=norm_atoms,
        deriv=deriv,
        meta={"abs_mass": total},
    )
    return sym


def _gaussian_symbol(terms, name: str, meta: dict | None = None) -> SymbolDescriptor:
    """F(X) = sum_i amp_i exp(-<A_i X, X>) for symmetric positive semidefinite A_i.

    Closed forms, term by term: derivatives to order 2, Gaussian smoothing,
    and (in ``quantize``) the quantized matrix.  A single term has sup |F| =
    |amp|; a sum leaves ``sup_norm`` unset.  Sums start from the first term,
    not from 0 (0 + (-0.0) is +0.0), so a single term is returned bit for bit.
    """
    terms = [(amp, np.asarray(A, dtype=float)) for amp, A in terms]
    D = terms[0][1].shape[0] // 2

    def term(amp, A, X, dirs):
        val = amp * np.exp(-np.einsum("ni,ij,nj->n", X, A, X))
        if dirs:
            grad = -2.0 * (X @ A)          # (n, 2D)
            if len(dirs) == 1:
                val = grad[:, dirs[0]] * val
            else:
                i, j = dirs
                val = (grad[:, i] * grad[:, j] - 2.0 * A[i, j]) * val
        return val.astype(complex)

    def deriv(alpha, beta, z, zeta):
        dirs = ([j for j, aj in enumerate(alpha) for _ in range(int(aj))]
                + [j + D for j, bj in enumerate(beta) for _ in range(int(bj))])
        if len(dirs) > 2:
            return None
        X = np.concatenate([np.atleast_2d(z), np.atleast_2d(zeta)], axis=1)
        return functools.reduce(operator.add, (term(amp, A, X, dirs) for amp, A in terms))

    def f(z, zeta):
        return deriv((0,) * D, (0,) * D, z, zeta)

    sup = abs(terms[0][0]) if len(terms) == 1 else None
    return SymbolDescriptor(dim=D, func=f, name=name, sup_norm=sup,
                            quad=terms, deriv=deriv, meta=dict(meta or {}))


def _gaussian_smoothed(sym, coords, s):
    # per term, int amp exp(-<A(X + PY), X + PY>) dN(Y; 0, s I)
    #   = amp det(M)^(-1/2) exp(-<(A - 2s AP M^-1 P^T A) X, X>),
    # with P the inclusion of the smoothed (z_j, zeta_j) and M = I + 2s P^T A P
    idx = list(coords) + [j + sym.dim for j in coords]
    terms = []
    for amp, A in sym.quad:
        AP = A[:, idx]
        M = np.eye(len(idx)) + 2.0 * s * A[np.ix_(idx, idx)]
        A2 = A - 2.0 * s * AP @ np.linalg.solve(M, AP.T)
        terms.append((amp / math.sqrt(np.linalg.det(M)), 0.5 * (A2 + A2.T)))
    return _gaussian_symbol(terms, name=f"H[{sym.name}]", meta=sym.meta)


def make_quadratic(T, t: float) -> SymbolDescriptor:
    """F(X) = exp(-t <T X, X>) for a symmetric positive semidefinite T."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] % 2 != 0:
        raise InputError("T must be a square matrix on phase space (even size)")
    if not np.allclose(T, T.T, atol=1e-12):
        raise InputError("T must be symmetric")
    if t <= 0:
        raise InputError("t must be positive")
    eigs = np.linalg.eigvalsh(T)
    if eigs.min() < -1e-10:
        raise InputError("T must be positive semidefinite")
    return _gaussian_symbol([(1.0, t * T)], name="exp(-t<TX,X>)")


@dataclass(frozen=True)
class LatticeSymbolParams:
    """Coupled-oscillator chain parameters.

    ``g`` are per-site couplings, ``V`` the bond potential (the string "cos"
    selects the exact Bessel-Fourier path), ``v_bounds[k-1]`` bounds
    sup |V^(k)| for k = 1..2m, ``v_min`` is inf V, and t the overall scale.
    """

    d: int
    g: tuple
    t: float
    V: object = "cos"
    v_bounds: tuple | None = None
    v_min: float | None = None

    @property
    def nsites(self):
        return len(self.g)


def _bessel_coeffs(c: float, bond: int) -> np.ndarray:
    """Fourier coefficients of exp(-c cos(theta)): a_n = (-1)^n I_n(c).

    I_n(c) from Miller's recurrence I_(n-1) = I_(n+1) + (2n/c) I_n, started
    above the cut, divided by 1e100 wherever it passes 1e100 and normalised
    in logs by I_0 + 2 sum I_n = e^c.  The series stops at the first I_n(c)
    below BESSEL_TOL * max(I_0(c), 1), about sqrt(2 c ln(1/BESSEL_TOL)) terms.
    """
    if c < 2e-15:  # I_1(c) ~ c/2 is below BESSEL_TOL: the series is I_0 = 1
        return np.ones(1)
    log_i0 = math.inf
    if c < 720.0:  # above, I_0(c) ~ e^c / sqrt(2 pi c) overflows; False for nan
        top = int(c + 60.0 + 10.0 * math.sqrt(c + 1.0))
        r = np.zeros(top + 2)
        r[top] = 1.0
        for n in range(top, 0, -1):
            r[n - 1] = r[n + 1] + 2.0 * n / c * r[n]
            if r[n - 1] > 1e100:
                r[n - 1:] *= 1e-100
        log_i0 = c + math.log(r[0] / (r[0] + 2.0 * r[1:].sum()))
    if log_i0 > np.log(np.finfo(float).max):
        raise InputError(f"bond {bond}: coupling 2 t g_j g_(j+1) = {c} overflows I_0")
    i_n = math.exp(log_i0) * (r / r[0])
    nmax = int(np.argmax(i_n < BESSEL_TOL * max(i_n[0], 1.0))) - 1
    k = np.arange(-nmax, nmax + 1)
    return (-1.0) ** k * i_n[np.abs(k)]


def _zeta_sup_deriv_const(m: int) -> float:
    """C'_m = max_{1<=k<=m} sup_x |d^k/dx^k exp(-x^2)|^(1/k)."""
    xs = np.linspace(-6.0, 6.0, 20001)
    best = 0.0
    for k in range(1, m + 1):
        vals = np.abs(_hermite_phys(k, xs) * np.exp(-xs * xs))
        best = max(best, float(np.max(vals) ** (1.0 / k)))
    return best


def make_lattice(params: LatticeSymbolParams, m: int) -> SymbolDescriptor:
    """Chain symbol exp(-t (sum_j g_j^2 zeta_j^2 + sum_{|j-k|=1} g_j g_k V(z_j - z_k))).

    The derivative-class radii are assembled from the explicit per-site
    constants: with V_m = max_{1<=k<=2m} sup|V^(k)|^(1/k) and K0 the largest
    neighbour ratio of the couplings,

        lam_j  = 2 * 3^d * K0 * max(g_j^2, g_j^(1/m)) * V_m
        eps'_j = m! (m+1)^(3^d m^2) max(1, t^m) lam_j      (z-side)
        eps''_j = C'_m g_j sqrt(t)                          (zeta-side)
        eps_j  = max(eps'_j, eps''_j),

    and M = exp(-2 t inf(V) sum_bonds g_j g_{j+1}) bounds sup |F|.
    """
    g = np.asarray(params.g, dtype=float)
    if np.any(g < 0):
        raise InputError("couplings must be nonnegative")
    t = float(params.t)
    if t <= 0:
        raise InputError("t must be positive")
    if m < 1:
        raise InputError("m must be >= 1")
    if params.d != 1:
        raise InputError("only 1-dim chains are supported")
    D = params.nsites
    is_cos = isinstance(params.V, str) and params.V == "cos"
    if is_cos:
        Vfun = np.cos
        v_bounds = tuple([1.0] * (2 * m))
        v_min = -1.0
    else:
        Vfun = params.V
        if params.v_bounds is None or len(params.v_bounds) < 2 * m:
            raise InputError("v_bounds up to order 2m are required for a custom V")
        v_bounds = tuple(float(v) for v in params.v_bounds[: 2 * m])
        if params.v_min is None:
            raise InputError("v_min (inf V) is required for a custom V")
        v_min = float(params.v_min)

    gg = g[:-1] * g[1:] if D > 1 else np.zeros(0)

    def f(z, zeta):
        z = np.atleast_2d(z)
        zeta = np.atleast_2d(zeta)
        expo = (zeta**2) @ (g**2)
        for b in range(D - 1):
            expo = expo + 2.0 * gg[b] * Vfun(z[:, b] - z[:, b + 1])
        return np.exp(-t * expo).astype(complex)

    chain = None
    if is_cos:
        bond_c = [_bessel_coeffs(2.0 * t * gg[b], b) for b in range(D - 1)]
        nmax = max((len(c) // 2 for c in bond_c), default=0)
        padded = []
        for c in bond_c:
            k = len(c) // 2
            p = np.zeros(2 * nmax + 1)
            p[nmax - k: nmax + k + 1] = c
            padded.append(p)
        site = tuple(
            (ZetaGauss(1.0, 1.0, t * g[j] ** 2, 0.0),) for j in range(D)
        )
        chain = ChainData(D, nmax, tuple(padded), site)

    # class radii from the explicit constants
    if D > 1:
        ratios = [max(g[j] / g[j + 1], g[j + 1] / g[j]) for j in range(D - 1)
                  if g[j] > 0 and g[j + 1] > 0]
        K0 = max(ratios) if ratios else 1.0
    else:
        K0 = 1.0
    Vm = max(v_bounds[k - 1] ** (1.0 / k) for k in range(1, 2 * m + 1))
    lam = 2.0 * 3.0**params.d * K0 * np.maximum(g**2, g ** (1.0 / m)) * Vm
    eps_z = math.factorial(m) * (m + 1) ** (3**params.d * m * m) * max(1.0, t**m) * lam
    eps_zeta = _zeta_sup_deriv_const(m) * g * math.sqrt(t)
    eps = np.maximum(eps_z, eps_zeta)
    eps = np.where(g == 0, 0.0, eps)
    coupling = -2.0 * t * v_min * float(np.sum(gg))
    try:
        M = math.exp(coupling)
    except OverflowError:
        raise InputError(f"coupling sum -2 t inf(V) sum_b g_b g_(b+1) = {coupling} "
                         "overflows the sup bound M = exp(coupling sum)") from None

    sym = SymbolDescriptor(
        dim=D,
        func=f,
        name=f"lattice(V={'cos' if is_cos else 'custom'},{D} sites)",
        sup_norm=M,
        class_m=m,
        class_M=M,
        class_eps=eps,
        chain=chain,
        meta={"active": list(range(D)), "t": t, "g": [float(x) for x in g]},
    )
    return sym


def chain_descriptor(data: ChainData, name: str,
                     template: SymbolDescriptor | None = None) -> SymbolDescriptor:
    """Wrap ChainData as a SymbolDescriptor (evaluation via the Fourier form)."""

    def f(z, zeta):
        return chain_eval(data, z, zeta)

    sym = SymbolDescriptor(dim=data.nsites, func=f, name=name, chain=data)
    if template is not None:
        sym.sup_norm = template.sup_norm
        sym.class_m = template.class_m
        sym.class_M = template.class_M
        sym.class_eps = template.class_eps
        sym.meta = dict(template.meta)
    return sym


# ---------------------------------------------------------------------------
# sampled sups, norms, class verification
# ---------------------------------------------------------------------------

def _first_primes(d: int) -> list:
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _scrambled_halton(n: int, d: int, seed: int) -> np.ndarray:
    """The first n points of the Owen-scrambled Halton sequence in [0, 1)^d.

    Owen (arXiv:1706.02808), Algorithm 1: coordinate c uses the c-th prime
    base b and one random permutation of the digits 0..b-1 per digit
    position j while b^-(j+1) > 2^-54.  Point i has coordinate
    sum_j perm_j[digit_j(i)] s_j with s_0 = 1/b and s_(j+1) = s_j / b.
    The permutations are shuffled base by base, row by row, from one
    ``default_rng(seed)``, and the terms are added left to right, so the
    points are those of scipy's ``qmc.Halton(d, scramble=True,
    seed=seed).random(n)`` bit for bit.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.int64)
    u = np.empty((n, d))
    for col, base in enumerate(_first_primes(d)):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for row in perms:
            rng.shuffle(row)
        digits = idx // base ** np.arange(count, dtype=np.int64)[:, None] % base
        scales = np.empty(count)
        s = 1.0
        for j in range(count):  # repeated division: powers of 1/b round differently
            s /= base
            scales[j] = s
        terms = np.take_along_axis(perms, digits, axis=1) * scales[:, None]
        u[:, col] = np.cumsum(terms, axis=0)[-1]  # in order; sum() may pair terms
    return u


def quasi_ball(n: int, dim: int, radius: float, seed: int = 0) -> np.ndarray:
    """n quasi-random points in the ball of the given radius.

    The points come from the Owen-scrambled Halton sequence in dim + 1
    coordinates (``_scrambled_halton``, identical to scipy's for the same
    seed): dim Gaussian coordinates, the normal quantiles of the first dim,
    give the direction, the last one the radius.
    """
    from statistics import NormalDist  # with decimal and fractions: a few ms

    u = _scrambled_halton(n, dim + 1, seed)
    quantile = np.frompyfunc(NormalDist().inv_cdf, 1, 1)
    dirs = quantile(np.clip(u[:, :dim], 1e-12, 1 - 1e-12)).astype(float)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radial = radius * u[:, dim:] ** (1.0 / dim)
    return dirs / norms * radial


@dataclass
class NormEstimate:
    value: float
    unbounded: bool
    meta: dict

    def __float__(self):
        return float(self.value)


def norm_Nm(F: SymbolDescriptor, m: int, h: float, Y_samples=None,
            order: int | None = None, n_samples: int = 1000,
            radius: float | None = None, seed: int = 0) -> NormEstimate:
    """Sampled sup over Y of ||F(. + Y)||_{L^1(mu_{2D, h/2})} / (1 + |Y|)^m."""
    if F.growth not in ("bounded", "polynomial"):
        raise InputError(f"undeclared growth class {F.growth!r}")
    D = F.dim
    if order is None:
        order = 40 if D == 1 else (24 if D == 2 else 8)
    nodes, weights = tensor_rule([0.5 * h] * (2 * D), order)
    if radius is None:
        radius = 5.0 * math.sqrt(h)
    if Y_samples is None:
        Y_samples = quasi_ball(n_samples, 2 * D, radius, seed)
    Y_samples = np.vstack([np.zeros((1, 2 * D)), np.atleast_2d(Y_samples)])
    best = 0.0
    inner_best = 0.0
    outer_best = 0.0
    for Y in Y_samples:
        r = float(np.linalg.norm(Y))
        vals = np.abs(F.eval_nodes(nodes + Y))
        quot = float(weights @ vals) / (1.0 + r) ** m
        best = max(best, quot)
        if r <= 0.7 * radius:
            inner_best = max(inner_best, quot)
        else:
            outer_best = max(outer_best, quot)
    # still growing at the sample boundary -> the sup is not trusted
    unbounded = outer_best > 1.02 * inner_best
    return NormEstimate(best, unbounded,
                        {"radius": radius, "n_samples": len(Y_samples), "order": order})


_STENCILS = {
    0: (np.array([0]), np.array([1.0]), 0),
    1: (np.array([-2, -1, 1, 2]), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0, 1),
    2: (np.array([-2, -1, 0, 1, 2]), np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, 2),
}


def _fd_step(total_order: int, scale: float) -> float:
    if total_order == 0:
        return 1.0
    # balance O(step^4) truncation against eps_mach / step^order round-off
    return scale * (1e-16 * 5.0**total_order) ** (1.0 / (total_order + 4))


def _fd_mixed(F: SymbolDescriptor, alpha, beta, pts_z, pts_zeta):
    """Mixed central difference of total order sum(alpha)+sum(beta)."""
    D = F.dim
    dirs = []
    for j in range(D):
        if alpha[j] > 0:
            dirs.append(("z", j, int(alpha[j])))
        if beta[j] > 0:
            dirs.append(("zeta", j, int(beta[j])))
    total = sum(o for _, _, o in dirs)
    if total > FD_MAX_TOTAL_ORDER:
        raise InputError(f"finite differences unsupported at order {total}")
    if any(o > 2 for _, _, o in dirs):
        raise InputError("finite differences support per-direction order <= 2")
    npts = pts_z.shape[0]
    if not dirs:
        return F(pts_z, pts_zeta)
    scale = max(1.0, float(np.max(np.abs(np.concatenate([pts_z, pts_zeta],
                                                        axis=1)))))
    step = _fd_step(total, scale)
    grids = [_STENCILS[o] for _, _, o in dirs]
    out = np.zeros(npts, dtype=complex)
    for combo in itertools.product(*[range(len(g[0])) for g in grids]):
        zs = pts_z.copy()
        zetas = pts_zeta.copy()
        wprod = 1.0
        for (kind, j, o), (offs, ws, _), pick in zip(dirs, grids, combo):
            shift = offs[pick] * step
            wprod *= ws[pick]
            if kind == "z":
                zs[:, j] = zs[:, j] + shift
            else:
                zetas[:, j] = zetas[:, j] + shift
        out += wprod * F(zs, zetas)
    return out / step**total


def _derivative_sweep(F: SymbolDescriptor, support, m: int, pts_z, pts_zeta):
    """Yield (alpha, beta, values, closed) for every multi-index with entries
    <= m on the support coordinates (zero elsewhere): the sampled derivative
    in closed form when the family has one (closed = True), else by central
    differences.  Raises ResourceError past MAX_CLASS_INDICES indices."""
    count = (m + 1) ** (2 * len(support))
    if count > MAX_CLASS_INDICES:
        raise ResourceError(f"{count} multi-indices exceed the cap {MAX_CLASS_INDICES}")
    for combo in itertools.product(range(m + 1), repeat=2 * len(support)):
        alpha = np.zeros(F.dim, dtype=int)
        beta = np.zeros(F.dim, dtype=int)
        for pos, j in enumerate(support):
            alpha[j] = combo[2 * pos]
            beta[j] = combo[2 * pos + 1]
        closed = F.derivative(alpha, beta, pts_z, pts_zeta)
        if closed is None:
            yield alpha, beta, _fd_mixed(F, alpha, beta, pts_z, pts_zeta), False
        else:
            yield alpha, beta, np.asarray(closed), True


def norm_NIm(F: SymbolDescriptor, I, m: int, h: float, n_samples: int = 1000,
             radius: float | None = None, seed: int = 0) -> float:
    """Sum over multi-indices on I of h^((|a|+|b|)/2) * sampled sup |d^a d^b F|."""
    I = sorted(set(int(j) for j in I))
    if radius is None:
        radius = 5.0 * math.sqrt(h)
    pts = quasi_ball(n_samples, 2 * F.dim, radius, seed)
    pts = np.vstack([np.zeros((1, 2 * F.dim)), pts])
    pz, pzeta = pts[:, : F.dim].copy(), pts[:, F.dim:].copy()
    total = 0.0
    for alpha, beta, vals, _ in _derivative_sweep(F, I, m, pz, pzeta):
        sup = float(np.max(np.abs(vals)))
        total += h ** (0.5 * (alpha.sum() + beta.sum())) * sup
    return total


@dataclass
class ClassReport:
    worst_ratio: float
    passed: bool
    n_indices: int
    n_points: int
    method: str
    worst_index: tuple


def verify_class(F: SymbolDescriptor, m: int, M: float, eps,
                 sample_count: int = 60, radius: float | None = None,
                 seed: int = 0, tol: float = 1e-3,
                 support=None) -> ClassReport:
    """Check |d^alpha d^beta F| <= M prod eps_j^(alpha_j+beta_j) (1 + tol).

    Derivatives come from the closed-form evaluator when the family has one
    and from high-order central differences otherwise; the worst ratio over
    sampled points and admitted multi-indices is reported.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape[0] != F.dim:
        raise InputError("eps must have one entry per coordinate")
    if support is None:
        support = F.meta.get("active")
    if support is None:
        support = list(range(F.dim))
    support = sorted(set(int(j) for j in support))
    if radius is None:
        radius = 5.0
    pts = quasi_ball(sample_count, 2 * F.dim, radius, seed)
    pz, pzeta = pts[:, : F.dim].copy(), pts[:, F.dim:].copy()
    worst = 0.0
    worst_index = ((), ())
    method = "closed"
    for alpha, beta, vals, closed in _derivative_sweep(F, support, m, pz, pzeta):
        if not closed:
            method = "finite-difference"
        sup = float(np.max(np.abs(vals)))
        bound = M * float(np.prod(eps ** (alpha + beta)))
        if bound == 0.0:
            ratio = math.inf if sup > 1e-9 * max(M, 1.0) else 0.0
        else:
            ratio = sup / bound
        if ratio > worst:
            worst = ratio
            worst_index = (tuple(alpha), tuple(beta))
    return ClassReport(worst, worst <= 1.0 + tol, (m + 1) ** (2 * len(support)),
                       sample_count, method, worst_index)


def stochastic_ext_defect(F: SymbolDescriptor, inner, outer, h: float,
                          n_samples: int, seed: int, p: float | None = None) -> float:
    """Monte Carlo L^p distance between F o pi_inner and F o pi_outer.

    Samples the ambient Gaussian of variance h on phase space; p defaults to
    2 for Fourier-measure symbols and 1 otherwise.
    """
    inner = sorted(set(int(j) for j in inner))
    outer = sorted(set(int(j) for j in outer))
    if not set(inner) <= set(outer):
        raise InputError("inner coordinate set must be contained in the outer one")
    if p is None:
        p = 2.0 if F.atoms is not None else 1.0
    mu = GaussianMeasure(2 * F.dim, h)
    pts = gaussian_sample(mu, n_samples, seed)
    Fi = F.restricted(inner)
    Fo = F.restricted(outer)
    vi = Fi(pts[:, : F.dim], pts[:, F.dim:])
    vo = Fo(pts[:, : F.dim], pts[:, F.dim:])
    return float(np.mean(np.abs(vi - vo) ** p) ** (1.0 / p))
