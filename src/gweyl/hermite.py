"""Orthonormal Hermite basis of L^2(R^d, mu_{d, h/2}) and coherent states.

Basis elements are tensor products e_alpha(x) = prod_j e_{alpha_j}(x_j),
orthonormal under the Gaussian measure of variance h/2 per coordinate, with
multi-degrees alpha capped per coordinate and ordered graded-lexicographically
(total degree first, then lexicographic).  The map

    (gamma f)(x) = (pi h)^(-d/4) f(x) exp(-|x|^2 / (2h))

is a unitary from L^2(mu_{h/2}) onto L^2(lambda); gamma e_k equals the k-th
classical Hermite function rescaled, gamma e_k(x) = h^(-1/4) psi_k(x/sqrt(h)).

Coherent states come in two flavours: the Gaussian one

    Psi_{X,h}(u) = exp(u.(a+ib)/h - |a|^2/(2h) - i a.b/(2h)),  X = (a, b),

whose exact expansion coefficients in the basis are
exp(-|X|^2/(4h)) prod_j (w_j/sqrt(2h))^(alpha_j) / sqrt(alpha_j!) with
w = a + ib, and the Lebesgue-normalized one used on the gamma side.
"""

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import _scaled_powers, hermite_table
from .errors import InputError
from .gaussian import (
    GaussianMeasure,
    PhasePoint,
    QuadratureRule,
    gauss_quadrature,
    symplectic,
)

MAX_STABLE_DEGREE = 200


class TruncationWarning(UserWarning):
    """A coherent state (or similar object) is under-resolved at this truncation."""


def multi_indices(dim: int, max_degree: int) -> np.ndarray:
    """All multi-degrees with per-coordinate cap, graded-lex ordered."""
    idx = sorted(
        itertools.product(range(max_degree + 1), repeat=dim),
        key=lambda a: (sum(a), a),
    )
    return np.array(idx, dtype=np.int64).reshape(len(idx), dim)


@dataclass(frozen=True)
class HermiteBasis:
    """Truncated tensor Hermite basis of L^2(mu_{dim, h/2})."""

    dim: int
    h: float
    max_degree: int

    def __post_init__(self):
        GaussianMeasure(self.dim, self.h)
        if not (0 <= self.max_degree <= MAX_STABLE_DEGREE):
            raise InputError(
                f"max_degree must be in [0, {MAX_STABLE_DEGREE}], got {self.max_degree}"
            )

    @property
    def variance(self):
        """Variance h/2 of the orthogonality measure."""
        return 0.5 * self.h

    @property
    def indices(self) -> np.ndarray:
        return multi_indices(self.dim, self.max_degree)

    @property
    def size(self) -> int:
        return (self.max_degree + 1) ** self.dim

    def index_of(self, alpha) -> int:
        alpha = tuple(int(a) for a in alpha)
        rows = self.indices
        hits = np.nonzero((rows == np.array(alpha)).all(axis=1))[0]
        if hits.size == 0:
            raise InputError(f"multi-degree {alpha} outside basis")
        return int(hits[0])

    def coordinate_tables(self, points: np.ndarray) -> list[np.ndarray]:
        """Per-coordinate orthonormal Hermite tables at the given points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise InputError("point dimension does not match basis")
        scale = 1.0 / math.sqrt(self.variance)
        return [
            hermite_table(points[:, j] * scale, self.max_degree)
            for j in range(self.dim)
        ]

    def tensor(self, tables) -> np.ndarray:
        """Rows prod_j tables[j][alpha_j], one per basis multi-degree alpha."""
        idx = self.indices
        out = tables[0][idx[:, 0]]
        for j in range(1, self.dim):
            out = out * tables[j][idx[:, j]]
        return out

    def eval_table(self, points: np.ndarray) -> np.ndarray:
        """Matrix of basis values, shape (size, n_points)."""
        return self.tensor(self.coordinate_tables(points))

    def default_rule(self, order: int | None = None) -> QuadratureRule:
        return gauss_quadrature(self.dim, self.variance, order)


@dataclass
class FunctionRep:
    """Function on R^d given by coefficients in a truncated Hermite basis."""

    basis: HermiteBasis
    coeffs: np.ndarray
    underresolved: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).ravel()
        if c.shape[0] != self.basis.size:
            raise InputError(
                f"coefficient vector has {c.shape[0]} entries, basis has {self.basis.size}"
            )
        self.coeffs = c

    def __call__(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.coeffs @ self.basis.eval_table(points)

    @property
    def norm(self) -> float:
        """L^2(mu_{h/2}) norm at truncation."""
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "FunctionRep") -> complex:
        """Inner product <self, other>, conjugate-linear in other."""
        if other.basis != self.basis:
            raise InputError("FunctionRep inner product needs a shared basis")
        return complex(np.sum(self.coeffs * np.conj(other.coeffs)))

    def scaled(self, c) -> "FunctionRep":
        return FunctionRep(self.basis, c * self.coeffs, self.underresolved)

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.basis.dim,
            "h": self.basis.h,
            "max_degree": self.basis.max_degree,
            "coeffs": complex_pairs(self.coeffs),
        })

    @staticmethod
    def from_json(text: str) -> "FunctionRep":
        data = json.loads(text)
        basis = HermiteBasis(data["dim"], data["h"], data["max_degree"])
        return FunctionRep(basis, complex_from_pairs(data["coeffs"]))


def complex_pairs(values) -> list:
    """JSON form of a complex array: flattened [re, im] rows."""
    return np.stack([np.real(values), np.imag(values)], axis=-1).reshape(-1, 2).tolist()


def complex_from_pairs(rows) -> np.ndarray:
    """Flat complex array from [re, im] rows; inverse of ``complex_pairs``."""
    pairs = np.asarray(rows, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError("complex values must be given as [re, im] pairs")
    return pairs.view(complex).ravel()


def constant_rep(basis: HermiteBasis, value=1.0) -> FunctionRep:
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[0] = value
    return FunctionRep(basis, coeffs)


def basis_element(basis: HermiteBasis, alpha) -> FunctionRep:
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of(alpha)] = 1.0
    return FunctionRep(basis, coeffs)


def gamma_map(f, x, h: float | None = None):
    """Evaluate (gamma_{h/2} f)(x) = (pi h)^(-d/4) f(x) exp(-|x|^2/(2h)).

    For a FunctionRep the variance parameter comes from its basis; a bare
    callable needs h passed explicitly.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(f, FunctionRep):
        h = f.basis.h
        if x.shape[1] != f.basis.dim:
            raise InputError("point dimension does not match basis")
    elif h is None:
        raise InputError("gamma_map of a bare callable needs h")
    d = x.shape[1]
    vals = np.asarray(f(x))
    weight = (math.pi * h) ** (-0.25 * d) * np.exp(-np.sum(x * x, axis=-1) / (2.0 * h))
    out = vals * weight
    return out if out.size > 1 else complex(out.reshape(-1)[0])


def project(f, basis: HermiteBasis, rule: QuadratureRule | None = None) -> FunctionRep:
    """Coefficients <f, e_alpha> in L^2(mu_{h/2}) by quadrature."""
    if rule is None:
        rule = basis.default_rule()
    values = np.asarray(f(rule.nodes))
    table = basis.eval_table(rule.nodes)
    coeffs = table @ (rule.weights * values)
    return FunctionRep(basis, coeffs)


def coherent_state(X: PhasePoint, h: float, basis: HermiteBasis) -> FunctionRep:
    """Expansion of Psi_{X,h} in the basis (exact projection, closed form).

    Flags the result as under-resolved when |X|^2/(2h) > max_degree/4, i.e.
    when the Poisson weight profile of the coefficients keeps significant
    mass beyond the truncation degree.
    """
    if X.dim != basis.dim:
        raise InputError("phase point dimension does not match basis")
    if abs(h - basis.h) > 1e-12 * max(1.0, h):
        raise InputError("coherent state h must match the basis h")
    powers = _scaled_powers(X.w / math.sqrt(2.0 * h), basis.max_degree)
    coeffs = math.exp(-X.norm_sq / (4.0 * h)) * basis.tensor(powers.T)
    flagged = X.norm_sq / (2.0 * h) > basis.max_degree / 4.0
    if flagged:
        warnings.warn(
            f"coherent state at |X|^2={X.norm_sq:.3g} under-resolved at degree "
            f"{basis.max_degree}",
            TruncationWarning,
        )
    return FunctionRep(basis, coeffs, underresolved=flagged)


def coherent_overlap(U: PhasePoint, V: PhasePoint, h: float) -> complex:
    """Closed form <Psi_U, Psi_V> = exp(-|U-V|^2/(4h) + i sigma(U,V)/(2h))."""
    if U.dim != V.dim:
        raise InputError("phase points must share a dimension")
    du = U.as_array() - V.as_array()
    return complex(
        np.exp(-float(du @ du) / (4.0 * h) + 0.5j * symplectic(U, V) / h)
    )


def leb_coherent_state(X: PhasePoint, h: float):
    """Lebesgue-normalized coherent state at X = (a, b) as a callable.

    u -> (pi h)^(-d/4) exp(-|u-a|^2/(2h)) exp(i u.b/h - i a.b/(2h)),
    unit norm in L^2(lambda).
    """
    a, b = X.x, X.xi
    d = X.dim
    norm = (math.pi * h) ** (-0.25 * d)
    phase0 = -0.5j * float(a @ b) / h

    def psi(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        du = u - a
        return norm * np.exp(
            -np.sum(du * du, axis=-1) / (2.0 * h) + 1j * (u @ b) / h + phase0
        )

    return psi
