"""Phase-space transform onto anti-holomorphic functions, kernels, seminorms.

The transform of f in L^2(mu_{h/2}) is

    (T f)(x, xi) = exp(-(x - i xi)^2 / (4h)) int f(y) exp(y.(x - i xi)/h) dmu_{h/2}(y)

with the bilinear square (x - i xi)^2 = |x|^2 - |xi|^2 - 2i x.xi.  It is a
partial isometry into L^2(mu_{2d, h}) whose image consists of functions
anti-holomorphic in x + i xi, and it satisfies the reproducing identity

    (T f)(Z) = int exp((x + i xi).(z - i zeta)/(2h)) (T f)(X) dmu_{2d,h}(X).

Two exponential kernels drive the quantizations downstream:

    weyl_kernel(X,Y,Z) = exp([ (x+i xi).(z-i zeta) + (y-i eta).(z+i zeta)
                               - (x+i xi).(y-i eta)/2 ] / h)
    aw_kernel(X,Y,Z)   = exp([ (x+i xi).(z-i zeta) + (y-i eta).(z+i zeta) ] / (2h))

(all dot products bilinear).  The growth-weighted seminorm of f is

    I_m(f) = (2 pi h)^(-d) int |(T f)(X)| (1 + |X|)^m exp(-|X|^2/(4h)) dX,

computed here as 2^d times a Gaussian expectation of variance 2h; the
quadrature reach substitutes for the nominal cutoff radius 8 sqrt(h).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _scaled_powers
from .errors import InputError
from .gaussian import PhasePoint, bilinear_dot, tensor_rule
from .hermite import FunctionRep

SEMINORM_ORDER_BUMP = 8
SEMINORM_CUTOFF_FACTOR = 8.0  # nominal support radius, units of sqrt(h)


def transform_on_nodes(f: FunctionRep, nodes: np.ndarray,
                       order: int | None = None) -> np.ndarray:
    """Evaluate (T f) on phase nodes laid out as (n, 2d) = (x | xi).

    The y-quadrature order adapts to the farthest node: the integrand
    exp(y.(x - i xi)/h) against mu_{h/2} peaks at y ~ |x - i xi|/2 and the
    rule must reach it.
    """
    basis = f.basis
    h, d = basis.h, basis.dim
    nodes = np.atleast_2d(np.asarray(nodes))
    wbar = nodes[:, :d] - 1j * nodes[:, d:]
    if order is None:
        far = float(np.max(np.abs(wbar))) if wbar.size else 0.0
        sigma = math.sqrt(0.5 * h)
        need = int(math.ceil((0.5 * far + 6.0 * sigma + 2.0) ** 2 / h))
        order = min(max(64, need), 400)
    rule = basis.default_rule(order)
    fvals = f(rule.nodes)
    with np.errstate(divide="ignore"):  # underflowed tail weights -> -inf is fine
        logw = np.log(rule.weights)[:, None]
    inner = np.empty(nodes.shape[0], dtype=complex)
    step = max(1, int(2e7) // max(1, rule.nodes.shape[0]))
    # fold the weights into the exponent and peak-shift so the largest
    # retained term is O(1): far targets would otherwise overflow
    shift = np.empty(nodes.shape[0])
    for lo in range(0, nodes.shape[0], step):
        hi = min(lo + step, nodes.shape[0])
        expo = logw + rule.nodes @ wbar[lo:hi].T / h
        m = np.max(expo.real, axis=0)
        inner[lo:hi] = fvals @ np.exp(expo - m[None, :])
        shift[lo:hi] = m
    return np.exp(shift - bilinear_sq_rows(wbar) / (4.0 * h)) * inner


def transform_exact_on_nodes(f: FunctionRep, nodes: np.ndarray) -> np.ndarray:
    """Exact transform of a truncated representation on phase nodes.

    T maps the basis element of multi-degree alpha to the anti-holomorphic
    monomial prod_j (wbar_j / sqrt(2h))^(alpha_j) / sqrt(alpha_j!), so the
    transform of a FunctionRep is a finite monomial sum.
    """
    basis = f.basis
    h, d = basis.h, basis.dim
    nodes = np.atleast_2d(np.asarray(nodes))
    wbar = (nodes[:, :d] - 1j * nodes[:, d:]) / math.sqrt(2.0 * h)
    tables = [_scaled_powers(wbar[:, j], basis.max_degree) for j in range(d)]
    return f.coeffs @ basis.tensor(tables)


def bilinear_sq_rows(v: np.ndarray) -> np.ndarray:
    return np.sum(v * v, axis=-1)


def bargmann(f: FunctionRep, Z: PhasePoint, order: int | None = None) -> complex:
    """(T f)(Z) by quadrature."""
    if Z.dim != f.basis.dim:
        raise InputError("phase point dimension does not match the representation")
    return complex(transform_on_nodes(f, Z.as_array()[None, :], order)[0])


@dataclass
class BargmannFn:
    """Transform of a FunctionRep with pointwise evaluation on phase points."""

    rep: FunctionRep
    order: int | None = None

    @property
    def h(self):
        return self.rep.basis.h

    def __call__(self, Z):
        if isinstance(Z, PhasePoint):
            return bargmann(self.rep, Z, self.order)
        return transform_on_nodes(self.rep, Z, self.order)

    def cr_residual(self, points: np.ndarray, step: float = 1e-5) -> float:
        """Max discrete Cauchy-Riemann residual |d/dw (T f)| on a test grid.

        Anti-holomorphy in w = x + i xi means (d_x - i d_xi)(T f) = 0; the
        residual is normalized by the holomorphic-derivative magnitude.
        """
        points = np.atleast_2d(points)
        d = self.rep.basis.dim
        res = 0.0
        scale = 0.0
        for j in range(d):
            ex = np.zeros(2 * d)
            ex[j] = step
            exi = np.zeros(2 * d)
            exi[d + j] = step
            dx = (self(points + ex) - self(points - ex)) / (2 * step)
            dxi = (self(points + exi) - self(points - exi)) / (2 * step)
            res = max(res, float(np.max(np.abs(0.5 * (dx - 1j * dxi)))))
            scale = max(scale, float(np.max(np.abs(0.5 * (dx + 1j * dxi)))))
        return res / max(1.0, scale)


def bargmann_isometry_defect(f: FunctionRep, order: int | None = None) -> float:
    """| ||T f||_{L^2(mu_{2d,h})} - ||f||_{L^2(mu_{d,h/2})} |, both by quadrature.

    In dim 1 the transform values come from the adaptive quadrature; in
    higher dimension from the closed monomial form (the outer phase-space
    quadrature is the measured quantity either way).
    """
    basis = f.basis
    d, h = basis.dim, basis.h
    rule_f = basis.default_rule(order)
    norm_f = math.sqrt(float(rule_f.weights @ np.abs(f(rule_f.nodes)) ** 2))
    outer_order = order if order is not None else (64 if d == 1 else 20)
    nodes, weights = tensor_rule([h] * (2 * d), outer_order)
    if d == 1:
        tf = transform_on_nodes(f, nodes)
    else:
        tf = transform_exact_on_nodes(f, nodes)
    norm_tf = math.sqrt(float(weights @ np.abs(tf) ** 2))
    return abs(norm_tf - norm_f)


def reproducing_eval(Tf, Z: PhasePoint, order: int | None = None) -> complex:
    """int exp((x+i xi).(z - i zeta)/(2h)) Tf(X) dmu_{2d,h}(X); equals Tf(Z)."""
    if isinstance(Tf, FunctionRep):
        Tf = BargmannFn(Tf)
    h = Tf.h
    d = Z.dim
    q = order if order is not None else (48 if d == 1 else 16)
    nodes, weights = tensor_rule([h] * (2 * d), q)
    w_nodes = nodes[:, :d] + 1j * nodes[:, d:]
    wbar_z = Z.w.conj()
    kern = np.exp((w_nodes @ wbar_z) / (2.0 * h))
    vals = Tf(nodes)
    return complex(weights @ (kern * vals))


def weyl_kernel(X: PhasePoint, Y: PhasePoint, Z: PhasePoint, h: float) -> complex:
    """Quantization kernel exp([wX.conj(wZ) + conj(wY).wZ - wX.conj(wY)/2]/h)."""
    if not (X.dim == Y.dim == Z.dim):
        raise InputError("phase points must share a dimension")
    expo = (
        bilinear_dot(X.w, np.conj(Z.w))
        + bilinear_dot(np.conj(Y.w), Z.w)
        - 0.5 * bilinear_dot(X.w, np.conj(Y.w))
    )
    return complex(np.exp(expo / h))


def aw_kernel(X: PhasePoint, Y: PhasePoint, Z: PhasePoint, h: float) -> complex:
    """Projection kernel exp([wX.conj(wZ) + conj(wY).wZ] / (2h))."""
    if not (X.dim == Y.dim == Z.dim):
        raise InputError("phase points must share a dimension")
    expo = bilinear_dot(X.w, np.conj(Z.w)) + bilinear_dot(np.conj(Y.w), Z.w)
    return complex(np.exp(expo / (2.0 * h)))


def weyl_kernel_grid(wX: np.ndarray, wY: np.ndarray, wZ: np.ndarray,
                     h: float) -> np.ndarray:
    """weyl_kernel over arrays of complexified points, broadcast (nX, nY) per wZ."""
    tX = wX @ np.conj(wZ)
    tY = np.conj(wY) @ wZ
    cross = wX @ np.conj(wY).T
    return np.exp((tX[:, None] + tY[None, :] - 0.5 * cross) / h)


def seminorm_I(f: FunctionRep, m: int, order: int | None = None) -> float:
    """Growth-weighted transform seminorm I_m(f); see module docstring."""
    if m < 0:
        raise InputError("m must be >= 0")
    basis = f.basis
    d, h = basis.dim, basis.h
    base = order if order is not None else (64 if d == 1 else 20)
    q = base + SEMINORM_ORDER_BUMP
    nodes, weights = tensor_rule([2.0 * h] * (2 * d), q)
    tf = transform_exact_on_nodes(f, nodes)
    r = np.linalg.norm(nodes, axis=1)
    val = float(weights @ (np.abs(tf) * (1.0 + r) ** m)) * 2.0**d
    if not math.isfinite(val):
        raise InputError("seminorm integral did not evaluate to a finite value")
    return val
