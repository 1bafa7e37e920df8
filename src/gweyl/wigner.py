"""Gaussian-measure phase-space pair transform of two functions.

For f, g on R^d the transform at Z = (z, zeta) is

    W_h(f, g)(Z) = exp(|zeta|^2/h) int exp(-2i zeta.t/h) f(z+t) conj(g(z-t))
                   dmu_{d, h/2}(t).

For truncated f and g this is the finite sum, exact at every Z,

    W_h(f, g)(Z) = sum_{alpha, beta} f_alpha conj(g_beta)
                   prod_j W[alpha_j, beta_j](sqrt(2/h) (z_j + i zeta_j))

with W the Laguerre pair table of ``_kernels.wigner_pair_table``; this is
``wigner_grid``.  ``wigner_gauss`` keeps the defining integral as an
independent check that flags its own rounding.  The transform relates to
the Lebesgue-measure pair transform of the gamma-images by

    W_h(f, g)(Z) = 2^(-d) exp(|Z|^2/h) W^Leb_h(gamma f, gamma g)(Z),
    W^Leb_h(u, v)(Z) = int exp(-i t.zeta/h) u(z + t/2) conj(v(z - t/2)) dt,

and admits the kernel representation

    W_h(f, g)(Z) = int weyl_kernel(X, Y, Z) (T f)(X) conj((T g)(Y))
                   dmu_{2d x 2d, h}(X, Y).

For coherent states the closed form is
exp(-(|X|^2+|Y|^2)/(4h)) weyl_kernel(X, Y, Z).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import wigner_pair_table
from .errors import InputError, ResourceError
from .gaussian import PhasePoint, tensor_rule
from .hermite import FunctionRep, contract_kron, gamma_map, write_csv
from .bargmann import transform_exact_on_nodes, weyl_kernel, weyl_kernel_grid

MAX_OSC_ORDER = 2400
# wigner_gauss warns above this rounding estimate per ||f|| ||g||: node and
# phase rounding put its error up to ~170x over the estimate, so ~1e-9 is kept
CANCELLATION_TOL = 1e-11


class LowConfidenceWarning(UserWarning):
    """Rounding in the oscillatory quadrature may swamp the value; returned anyway."""


def oscillation_order(zeta_sq_over_h: float, cap: int = MAX_OSC_ORDER) -> int:
    """Quadrature order for oscillation exp(-2i zeta.t/h): 40 + 10 |zeta|^2/h.

    Orders round up to multiples of 16, so the cached root tables are
    reused, and are clamped at ``cap``.
    """
    need = 40 + int(math.ceil(10.0 * zeta_sq_over_h))
    return min(16 * ((need + 15) // 16), cap)


def _pair_space(f: FunctionRep, g: FunctionRep, dim: int):
    """(h, d) shared by f, g and phase points of dimension ``dim``."""
    basis = f.basis
    if g.basis.dim != basis.dim or abs(g.basis.h - basis.h) > 1e-12:
        raise InputError("f and g must live on the same space")
    if dim != basis.dim:
        raise InputError("phase point dimension mismatch")
    return basis.h, basis.dim


def wigner_gauss(f: FunctionRep, g: FunctionRep, Z: PhasePoint,
                 order: int | None = None) -> complex:
    """Pair transform W_h(f, g)(Z) by oscillation-adapted quadrature.

    The sum cancels before exp(|zeta|^2/h) scales it up, so its rounding is
    about eps exp(|zeta|^2/h) sum w |f(z+t) conj(g(z-t))|; past
    CANCELLATION_TOL ||f|| ||g|| a LowConfidenceWarning is raised.
    """
    h, d = _pair_space(f, g, Z.dim)
    z, zeta = Z.x, Z.xi
    if order is None:
        order = oscillation_order(float(zeta @ zeta) / h)
    nodes, weights = tensor_rule([0.5 * h] * d, order)
    phase = np.exp(-2j * (nodes @ zeta) / h)
    vals = f(z[None, :] + nodes) * np.conj(g(z[None, :] - nodes))
    growth = math.exp(float(zeta @ zeta) / h)
    rounding = np.finfo(float).eps * growth * float(weights @ np.abs(vals))
    if rounding > CANCELLATION_TOL * f.norm * g.norm:
        warnings.warn(f"pair-transform quadrature may carry rounding error "
                      f"{rounding:.2e}; value is low-confidence", LowConfidenceWarning)
    return complex(growth * (weights @ (phase * vals)))


def _leb_pair_transform(u, v, Z: PhasePoint, h: float, half_width: float,
                        n_grid: int) -> complex:
    """W^Leb_h(u, v)(Z) on a uniform trapezoid grid (independent oracle path)."""
    d = Z.dim
    if d != 1:
        raise InputError("the Lebesgue pair transform oracle is 1-dim")
    ts = np.linspace(-half_width, half_width, n_grid)
    dt = ts[1] - ts[0]
    pts_p = Z.x[None, :] + 0.5 * ts[:, None]
    pts_m = Z.x[None, :] - 0.5 * ts[:, None]
    vals = np.asarray(u(pts_p)) * np.conj(np.asarray(v(pts_m)))
    phase = np.exp(-1j * ts * Z.xi[0] / h)
    return complex(np.sum(vals * phase) * dt)


def wigner_leb_relation_check(f: FunctionRep, g: FunctionRep, Z: PhasePoint,
                              n_grid: int = 2001):
    """Both sides of the Gaussian/Lebesgue pair-transform relation.

    Returns (W_h(f,g)(Z), 2^(-d) exp(|Z|^2/h) W^Leb(gamma f, gamma g)(Z)),
    each by an independent quadrature (Gauss-Hermite vs uniform trapezoid).
    """
    basis = f.basis
    h, d = basis.h, basis.dim
    lhs = wigner_gauss(f, g, Z)
    spread = math.sqrt(h * (2 * basis.max_degree + 1)) + 8.0 * math.sqrt(h)
    width = 2.0 * (spread + float(np.linalg.norm(Z.x)))
    rhs_leb = _leb_pair_transform(
        lambda p: np.asarray(gamma_map(f, p)),
        lambda p: np.asarray(gamma_map(g, p)),
        Z, h, width, n_grid,
    )
    rhs = 2.0 ** (-d) * math.exp(Z.norm_sq / h) * rhs_leb
    return lhs, rhs


def wigner_coherent(X: PhasePoint, Y: PhasePoint, Z: PhasePoint, h: float) -> complex:
    """Closed form exp(-(|X|^2+|Y|^2)/(4h)) weyl_kernel(X, Y, Z)."""
    return math.exp(-(X.norm_sq + Y.norm_sq) / (4.0 * h)) * weyl_kernel(X, Y, Z, h)


def wigner_via_bargmann(f: FunctionRep, g: FunctionRep, Z: PhasePoint,
                        order: int | None = None) -> complex:
    """Kernel representation of the pair transform (4d-dim quadrature)."""
    basis = f.basis
    d, h = basis.dim, basis.h
    if d > 2:
        raise ResourceError("kernel representation is limited to dim <= 2")
    q = order if order is not None else (32 if d == 1 else 10)
    nodes, weights = tensor_rule([h] * (2 * d), q)
    tf = transform_exact_on_nodes(f, nodes)
    tg = transform_exact_on_nodes(g, nodes)
    wn = nodes[:, :d] + 1j * nodes[:, d:]
    kern = weyl_kernel_grid(wn, wn, Z.w, h)
    return complex((weights * tf) @ kern @ (weights * np.conj(tg)))


@dataclass
class WignerGrid:
    """Pair-transform values on an evaluation set."""

    zs: np.ndarray       # (n, d)
    zetas: np.ndarray    # (n, d)
    values: np.ndarray   # (n,) complex
    h: float

    def bound_defects(self, f_norm: float, g_norm: float) -> np.ndarray:
        """values against the growth bound exp(|Z|^2/h) |f| |g|; <= 0 means ok."""
        r2 = np.sum(self.zs**2, axis=1) + np.sum(self.zetas**2, axis=1)
        return np.abs(self.values) - np.exp(r2 / self.h) * f_norm * g_norm

    def to_csv(self, path, metadata: dict | None = None):
        d = self.zs.shape[1]
        columns = ([f"z{j}" for j in range(d)] + [f"zeta{j}" for j in range(d)]
                   + ["re", "im"])
        rows = np.column_stack([self.zs, self.zetas, self.values.real,
                                self.values.imag]).tolist()
        write_csv(path, metadata, columns, rows)


def wigner_grid(f: FunctionRep, g: FunctionRep, zs, zetas) -> WignerGrid:
    """Evaluate the pair transform on a point set by its closed form."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    zetas = np.atleast_2d(np.asarray(zetas, dtype=float))
    h, d = _pair_space(f, g, zs.shape[1])
    nf, ng = f.basis.max_degree + 1, g.basis.max_degree + 1
    s = math.sqrt(2.0 / h) * (zs + 1j * zetas)
    tables = [
        wigner_pair_table(s[:, j], max(nf, ng) - 1)[:nf, :ng].reshape(nf * ng, -1)
        for j in range(d)
    ]
    # pair tensor P[(a_1, b_1), ..., (a_d, b_d)] = F[a] conj(G[b])
    pair = np.multiply.outer(f.coeffs.reshape(f.basis.shape),
                             np.conj(g.coeffs.reshape(g.basis.shape)))
    pair = pair.transpose(np.arange(2 * d).reshape(2, d).T.ravel())
    values = contract_kron(pair.reshape((nf * ng,) * d), tables)
    return WignerGrid(zs, zetas, values, h)
