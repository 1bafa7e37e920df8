"""Centered Gaussian measures and the closed-form integral calculus.

A measure mu_{d,h} on R^d has density (2*pi*h)^(-d/2) exp(-|x|^2/(2h)).
This module provides that density, tensor-product Gauss-Hermite quadrature
rescaled to mu_{d,h}, the exponential integral

    int exp(l_a(x)) dmu_h(x) = exp(h * a^2 / 2),   a^2 = |u|^2 - |v|^2 + 2i u.v

for complex a = u + iv (the square is bilinear, not sesquilinear), absolute
moments of the linear functionals l_a, Wick pairing sums for products of
l_u's, the translation identity for shifts along a, and reproducible
counter-based sampling.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, ResourceError

DEFAULT_MAX_NODES = 6_000_000
SAMPLE_CHUNK = 1 << 16


def max_nodes():
    """Quadrature node budget, overridable through GW_MAX_NODES."""
    return int(os.environ.get("GW_MAX_NODES", DEFAULT_MAX_NODES))


def bilinear_dot(a, b):
    """Bilinear dot product sum_j a_j b_j, no conjugation.

    All kernel exponents in the package are built from this single helper;
    the sign conventions are pinned by hand-expanded dim-1 unit tests.
    """
    return np.sum(np.asarray(a) * np.asarray(b), axis=-1)


def bilinear_sq(a):
    """Bilinear square a.a (complex for complex a)."""
    return bilinear_dot(a, a)


@dataclass(frozen=True)
class GaussianMeasure:
    """Centered Gaussian measure on R^dim with variance h per coordinate."""

    dim: int
    h: float

    def __post_init__(self):
        if self.dim < 1 or int(self.dim) != self.dim:
            raise InputError(f"dim must be a positive integer, got {self.dim}")
        if not self.h > 0:
            raise InputError(f"h must be positive, got {self.h}")


@dataclass(frozen=True)
class PhasePoint:
    """Point X = (x, xi) of phase space R^dim x R^dim."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        if x.shape != xi.shape or x.ndim != 1:
            raise InputError("configuration and momentum parts must be equal-length vectors")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            raise InputError("phase point has non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)

    @property
    def dim(self):
        return self.x.shape[0]

    @property
    def norm_sq(self):
        """|X|^2 = |x|^2 + |xi|^2."""
        return float(self.x @ self.x + self.xi @ self.xi)

    @property
    def w(self):
        """Complexified coordinates x + i xi."""
        return self.x + 1j * self.xi

    def as_array(self):
        return np.concatenate([self.x, self.xi])

    @staticmethod
    def zero(dim):
        return PhasePoint(np.zeros(dim), np.zeros(dim))


def symplectic(X: PhasePoint, Y: PhasePoint) -> float:
    """Symplectic form sigma(X, Y) = y . xi - x . eta."""
    return float(Y.x @ X.xi - X.x @ Y.xi)


def density(mu: GaussianMeasure, x) -> float:
    """Density (2*pi*h)^(-dim/2) exp(-|x|^2/(2h)) of mu at x."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != mu.dim:
        raise InputError(f"point has dim {x.shape[-1]}, measure has dim {mu.dim}")
    norm = (2.0 * math.pi * mu.h) ** (-0.5 * mu.dim)
    return norm * np.exp(-np.sum(x * x, axis=-1) / (2.0 * mu.h))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and probability weights approximating integration against mu_{dim,h}.

    Exact for polynomials of per-coordinate degree <= 2*order - 1.
    """

    nodes: np.ndarray   # (n, dim)
    weights: np.ndarray  # (n,)
    order: int
    h: float

    @property
    def dim(self):
        return self.nodes.shape[1]

    def integrate(self, f):
        """Integrate a vectorized callable f(nodes) against the rule."""
        return self.weights @ np.asarray(f(self.nodes))


@functools.lru_cache(maxsize=256)
def _hermite_roots(order: int):
    """Gauss-Hermite nodes and weights for exp(-t^2), weights summing to 1.

    Nodes >= 0 take Newton steps on the orthonormal e_n, e_n' = sqrt(2n)
    e_(n-1), from Tricomi's asymptotic formula until each moves s <= 1e-8 /
    sqrt(n).  The weights 1 / (n e_(n-1)^2) at each node's last point, moved
    onto it to first order (e_(n-1)' = 2t e_(n-1) at a root of e_n), are
    formed in logs; the node is then off by about |t| s^2, its log weight by
    2 n s^2.  The recurrence is divided by 1e100 wherever it passes 1e100 (a
    step grows it at most 1 + sqrt(2)|t| fold).  O(n) memory, O(n^2) time.
    """
    nu = 2.0 * order + 1.0
    c = (4.0 * np.arange(order // 2, 0, -1) - 1.0) * math.pi / nu
    tau = np.cbrt(6.0 * c)  # tau - sin(tau) = c, from below the root
    for _ in range(12):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    s = np.cos(tau / 2.0) ** 2
    t = np.sqrt(nu * s - (1.25 / (1.0 - s) ** 2 - 1.0 / (1.0 - s) - 0.25) / (3.0 * nu))
    t = np.concatenate([np.zeros(order % 2), t])
    log_w = np.empty_like(t)
    todo = np.arange(t.size)
    for _ in range(10):
        x = t[todo]
        prev, cur, log_s = np.zeros_like(x), np.full_like(x, math.pi ** -0.25), np.zeros_like(x)
        for k in range(order):
            prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
            if k % 8 == 0:
                big = np.maximum(np.abs(prev), np.abs(cur)) > 1e100
                prev[big] *= 1e-100
                cur[big] *= 1e-100
                log_s[big] += 100.0 * math.log(10.0)
        step = cur / (math.sqrt(2.0 * order) * prev)
        t[todo] = x - step
        log_w[todo] = -2.0 * (np.log(np.abs(prev)) + log_s - 2.0 * x * step)
        todo = todo[np.abs(step) > 1e-8 / math.sqrt(order)]
        if todo.size == 0:
            break
    if todo.size or not np.all(np.diff(t) > 0):
        raise NumericalError(f"Gauss-Hermite nodes of order {order} did not converge")
    w = np.exp(log_w - log_w.max())
    t = np.concatenate([-t[order % 2:][::-1], t])
    w = np.concatenate([w[order % 2:][::-1], w])
    return t, w / w.sum()


def gauss_hermite_1d(order: int, variance: float):
    """1-dim Gauss-Hermite nodes/weights for the N(0, variance) expectation."""
    if order < 1:
        raise InputError("quadrature order must be >= 1")
    t, w = _hermite_roots(int(order))
    return t * math.sqrt(2.0 * variance), w.copy()


def tensor_rule(variances, orders):
    """Tensor rule for a product Gaussian with per-coordinate variances.

    Returns (nodes, weights) with nodes of shape (prod(orders), dim).
    """
    variances = np.atleast_1d(np.asarray(variances, dtype=float))
    if np.isscalar(orders) or np.ndim(orders) == 0:
        orders = [int(orders)] * len(variances)
    total = 1
    for q in orders:
        total *= int(q)
    if total > max_nodes():
        raise ResourceError(
            f"tensor rule needs {total} nodes, budget is {max_nodes()} (GW_MAX_NODES)"
        )
    axes = [gauss_hermite_1d(int(q), v) for q, v in zip(orders, variances)]
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = axes[0][1]
    for _, w in axes[1:]:
        weights = np.multiply.outer(weights, w)
    return nodes, np.asarray(weights).ravel()


def default_order(dim: int) -> int:
    """Default quadrature order: 64 in dim 1-2, 20 in dim 3, 12 above."""
    if dim <= 2:
        return 64
    if dim == 3:
        return 20
    return 12


def gauss_quadrature(dim: int, h: float, order: int | None = None) -> QuadratureRule:
    """Tensor-product Gauss-Hermite rule rescaled so sum w_i f(n_i) ~ int f dmu_{dim,h}."""
    GaussianMeasure(dim, h)  # validates
    if order is None:
        order = default_order(dim)
    nodes, weights = tensor_rule([h] * dim, order)
    return QuadratureRule(nodes=nodes, weights=weights, order=int(order), h=float(h))


def exp_integral(a, h: float) -> complex:
    """Closed form int exp(l_a) dmu_h = exp(h * a^2 / 2) for complex vectors a."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    return complex(np.exp(0.5 * h * bilinear_sq(a)))


def ell_abs_moment(a, p: float, h: float) -> float:
    """Closed form int |l_a|^p dmu_h = (2h)^(p/2) pi^(-1/2) |a|^p Gamma((p+1)/2)."""
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    norm = float(np.linalg.norm(a))
    return (2.0 * h) ** (0.5 * p) / math.sqrt(math.pi) * norm**p * math.gamma(0.5 * (p + 1))


def _pairings(indices):
    """All perfect pairings of an even-length index tuple."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for i, second in enumerate(rest):
        remainder = rest[:i] + rest[i + 1:]
        for tail in _pairings(remainder):
            yield [(first, second)] + tail


def wick_moment(u_list, h: float) -> float:
    """Gaussian moment int l_{u_1} ... l_{u_k} dmu_h by the pairing sum.

    Zero for odd k; for k = 2p it is h^p times the sum over perfect pairings
    of products of pairwise inner products.  The empty product convention
    gives 1 for an empty list.
    """
    if len(u_list) == 0:
        return 1.0
    if len(u_list) % 2 == 1:
        return 0.0
    us = [np.atleast_1d(np.asarray(u, dtype=float)) for u in u_list]
    d = us[0].shape[0]
    if any(u.shape[0] != d for u in us):
        raise InputError("all vectors must share one dimension")
    p = len(us) // 2
    total = 0.0
    for pairing in _pairings(tuple(range(len(us)))):
        prod = 1.0
        for i, j in pairing:
            prod *= float(us[i] @ us[j])
        total += prod
    return h**p * total


def cameron_martin_check(g, a, mu: GaussianMeasure, rule: QuadratureRule):
    """Both sides of the translation identity for a shift along a.

    lhs = int g dmu_h,
    rhs = exp(-|a|^2/(2h)) int g(x+a) exp(-l_a(x)/h) dmu_h(x).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape[0] != mu.dim:
        raise InputError("translation vector dimension mismatch")
    lhs = rule.integrate(g)
    shifted = rule.integrate(
        lambda x: np.asarray(g(x + a)) * np.exp(-(x @ a) / mu.h)
    )
    rhs = math.exp(-float(a @ a) / (2.0 * mu.h)) * shifted
    return lhs, rhs


def sample(mu: GaussianMeasure, n: int, seed: int, chunk: int = SAMPLE_CHUNK):
    """n i.i.d. draws from mu, deterministic given (seed, chunk size).

    Chunk c is generated by a counter-based Philox stream keyed by (seed, c),
    so parallel generation and sequential generation agree.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    out = np.empty((n, mu.dim))
    scale = math.sqrt(mu.h)
    start = 0
    c = 0
    while start < n:
        take = min(chunk, n - start)
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, c], dtype=np.uint64))
        )
        out[start:start + take] = gen.normal(0.0, scale, size=(take, mu.dim))
        start += take
        c += 1
    return out
