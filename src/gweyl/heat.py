"""Phase-space Gaussian smoothing operators and the coordinate decomposition.

For a symbol F on R^D x R^D and t > 0 the full smoothing is

    (H_t F)(Z) = int F(Z + Y) dmu_{2D, t}(Y),

and the partial version averages only over the (z_j, zeta_j) pairs of a
coordinate subset.  Per coordinate j set A_j = Id - H_{j, h/2}; products

    T_I = prod_{j in I} (Id - H_{j, h/2}),    S_I = prod_{j in I} H_{j, h/2}

satisfy the exact decomposition G = sum_{I subset of Lambda} T_I S_{Lambda \\ I} G
for any finite coordinate set Lambda.  Symbols with closed smoothing
(Fourier atoms, chains, Gaussian quadratic forms) are transformed exactly;
anything else falls back to tensor quadrature.

The adjoint smoothing operator with respect to the split product measure
nu_{h1, h2} = mu_{E^2, h1} (x) mu_{complement^2, h2} is

    (M_{t,h1,h2} G)(Z) = int G(Z_E, Y + h2/(t+h2) Z_perp)
                          dmu_{perp^2, t h2/(t+h2)}(Y),

dual to H_t acting on the complement block.
"""

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError
from .gaussian import PhasePoint, tensor_rule
from .symbols import SymbolDescriptor

DEFAULT_MAX_SUBSET = 12


def max_subset_size():
    """Cap on |I| for 2^|I| expansions, overridable through GW_MAX_SUBSETS."""
    return int(os.environ.get("GW_MAX_SUBSETS", DEFAULT_MAX_SUBSET))


@dataclass(frozen=True)
class CoordinateSplit:
    """A subset of the coordinate index set {0, ..., ambient_dim - 1}."""

    ambient_dim: int
    selected: tuple

    def __post_init__(self):
        sel = tuple(sorted(set(int(j) for j in self.selected)))
        if any(j < 0 or j >= self.ambient_dim for j in sel):
            raise InputError("selected coordinates outside the ambient index set")
        object.__setattr__(self, "selected", sel)

    @property
    def complement(self):
        return tuple(j for j in range(self.ambient_dim) if j not in self.selected)


_POINT_BLOCK = 100_000   # (point, node) pairs evaluated per block


def _gauss_average(F, z, zeta, coords, nodes, weights, shrink=1.0):
    """Per point, sum_q w_q F with (z_j, zeta_j) -> shrink (z_j, zeta_j) + node_q.

    The (z_j, zeta_j) of each coordinate j in ``coords`` are moved; the first
    len(coords) node columns hold the z offsets, the rest the zeta offsets.
    Points are evaluated in blocks, so memory stays bounded.
    """
    k = len(coords)
    n, q = z.shape[0], nodes.shape[0]
    out = np.empty(n, dtype=complex)
    step = max(1, _POINT_BLOCK // q)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        m = hi - lo
        zz = np.repeat(z[lo:hi, None, :], q, axis=1)
        ze = np.repeat(zeta[lo:hi, None, :], q, axis=1)
        for pos, j in enumerate(coords):
            zz[:, :, j] = shrink * zz[:, :, j] + nodes[:, pos]
            ze[:, :, j] = shrink * ze[:, :, j] + nodes[:, k + pos]
        vals = np.asarray(F(zz.reshape(m * q, -1), ze.reshape(m * q, -1)))
        out[lo:hi] = vals.reshape(m, q) @ weights
    return out


def _quadrature_smoothed(F: SymbolDescriptor, coords, t: float,
                         order: int | None = None) -> SymbolDescriptor:
    coords = tuple(sorted(set(int(c) for c in coords)))
    k = len(coords)
    if order is None:
        order = 32 if k == 1 else (16 if k == 2 else 8)
    nodes, weights = tensor_rule([t] * (2 * k), order)

    def f(z, zeta):
        return _gauss_average(F, np.atleast_2d(z), np.atleast_2d(zeta), coords,
                              nodes, weights)

    return SymbolDescriptor(F.dim, f, name=f"H[{F.name}]", growth=F.growth,
                            poly_degree=F.poly_degree, sup_norm=F.sup_norm,
                            meta=dict(F.meta))


def smooth_symbol(F: SymbolDescriptor, coords, t: float,
                  order: int | None = None) -> SymbolDescriptor:
    """Partially smoothed symbol, closed-form when the family allows it."""
    coords = tuple(sorted(set(int(c) for c in coords)))
    if not coords:
        return F
    closed = F.smoothed(coords, t)
    if closed is not None:
        return closed
    return _quadrature_smoothed(F, coords, t, order)


def heat_full(F: SymbolDescriptor, t: float, Z: PhasePoint,
              order: int | None = None) -> complex:
    """(H_t F)(Z), exact when F carries a closed heat action."""
    if t <= 0:
        raise InputError("t must be positive")
    G = smooth_symbol(F, range(F.dim), t, order)
    return G.value_at(Z)


def heat_adjoint_M(G, split: CoordinateSplit, t: float, h1: float, h2: float,
                   Z: PhasePoint | tuple, order: int = 32) -> complex | np.ndarray:
    """Adjoint smoothing (M_{t,h1,h2} G)(Z); see module docstring.

    ``Z`` is a PhasePoint, giving a complex number, or a pair (z, zeta) of
    (n, dim) arrays, giving the n values; the tensor rule is built once.
    """
    if min(t, h1, h2) <= 0:
        raise InputError("t, h1, h2 must be positive")
    single = isinstance(Z, PhasePoint)
    z, zeta = (Z.x[None, :], Z.xi[None, :]) if single else Z
    z, zeta = np.atleast_2d(z), np.atleast_2d(zeta)
    comp = split.complement
    if not comp:
        vals = np.asarray(G(z, zeta), dtype=complex)
    else:
        k = len(comp)
        var = t * h2 / (t + h2)
        nodes, weights = tensor_rule([var] * (2 * k), order)
        vals = _gauss_average(G, z, zeta, comp, nodes, weights,
                              shrink=h2 / (t + h2))
    return complex(vals[0]) if single else vals


def op_T_I(F: SymbolDescriptor, I, h: float) -> SymbolDescriptor:
    """The difference product T_I F = prod_{j in I} (Id - H_{j, h/2}) F.

    Fourier atoms and chain symbols transform exactly (per-atom damping, or
    per-site mixtures); the generic path expands by inclusion-exclusion into
    2^|I| partial smoothings, capped by GW_MAX_SUBSETS.
    """
    I = tuple(sorted(set(int(j) for j in I)))
    if any(j < 0 or j >= F.dim for j in I):
        raise InputError("index set outside the symbol coordinates")
    if len(I) > max_subset_size():
        raise ResourceError(
            f"|I| = {len(I)} exceeds the subset cap {max_subset_size()} (GW_MAX_SUBSETS)"
        )
    if not I:
        return F
    s = 0.5 * h
    if F.atoms is not None:
        from .symbols import make_fourier_measure

        new_atoms = []
        for c, a, b in F.atoms:
            factor = 1.0
            for j in I:
                factor *= 1.0 - math.exp(-0.5 * s * (a[j] ** 2 + b[j] ** 2))
            new_atoms.append((c * factor, a, b))
        out = make_fourier_measure(new_atoms, dim=F.dim, name=f"T_I[{F.name}]")
        out.sup_norm = None
        out.meta["abs_mass"] = float(sum(abs(c) for c, _, _ in new_atoms))
        return out
    if F.chain is not None:
        from .symbols import chain_descriptor

        data = F.chain.apply_site_ops({j: "id_minus_smooth" for j in I}, s)
        out = chain_descriptor(data, name=f"T_I[{F.name}]", template=F)
        out.sup_norm = None if F.sup_norm is None else 2.0 ** len(I) * F.sup_norm
        return out
    terms = []
    for r in range(len(I) + 1):
        for J in itertools.combinations(I, r):
            terms.append(((-1.0) ** len(J), smooth_symbol(F, J, s)))

    def f(z, zeta):
        out = np.zeros(np.atleast_2d(z).shape[0], dtype=complex)
        for sign, G in terms:
            out += sign * G(z, zeta)
        return out

    sup = None if F.sup_norm is None else 2.0 ** len(I) * F.sup_norm
    return SymbolDescriptor(F.dim, f, name=f"T_I[{F.name}]", growth=F.growth,
                            poly_degree=F.poly_degree, sup_norm=sup,
                            meta=dict(F.meta))


def op_S_I(F: SymbolDescriptor, I, h: float) -> SymbolDescriptor:
    """The smoothing product S_I F = prod_{j in I} H_{j, h/2} F."""
    I = tuple(sorted(set(int(j) for j in I)))
    return smooth_symbol(F, I, 0.5 * h)


def decomposition_check(G: SymbolDescriptor, Lam, h: float, Z: PhasePoint):
    """Return (G(Z), sum over I of (T_I S_{Lambda-I} G)(Z)); the two agree."""
    Lam = tuple(sorted(set(int(j) for j in Lam)))
    if len(Lam) > max_subset_size():
        raise ResourceError(
            f"|Lambda| = {len(Lam)} exceeds the subset cap (GW_MAX_SUBSETS)"
        )
    lhs = G.value_at(Z)
    rhs = 0.0 + 0.0j
    for r in range(len(Lam) + 1):
        for I in itertools.combinations(Lam, r):
            rest = tuple(j for j in Lam if j not in I)
            term = op_T_I(op_S_I(G, rest, h), I, h)
            rhs += term.value_at(Z)
    return lhs, rhs
