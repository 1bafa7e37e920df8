"""Phase-space Gaussian smoothing operators and the coordinate decomposition.

For a symbol F on R^D x R^D and t > 0 the full smoothing is

    (H_t F)(Z) = int F(Z + Y) dmu_{2D, t}(Y),

and the partial version averages only over the (z_j, zeta_j) pairs of a
coordinate subset.  Per coordinate j set A_j = Id - H_{j, h/2}; products

    T_I = prod_{j in I} (Id - H_{j, h/2}),    S_I = prod_{j in I} H_{j, h/2}

satisfy the exact decomposition G = sum_{I subset of Lambda} T_I S_{Lambda \\ I} G
for any finite coordinate set Lambda.  Smoothing and T_I are closed-form
for the structured families only (Fourier atoms, chains, sums of Gaussian
quadratic forms); any other symbol raises InputError.

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
from .symbols import SymbolDescriptor, _gaussian_symbol

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


def smooth_symbol(F: SymbolDescriptor, coords, t: float) -> SymbolDescriptor:
    """Partially smoothed symbol in closed form; InputError if F has none."""
    coords = tuple(sorted(set(int(c) for c in coords)))
    if not coords:
        return F
    closed = F.smoothed(coords, t)
    if closed is None:
        raise InputError(f"symbol {F.name!r} has no closed-form smoothing")
    return closed


def heat_full(F: SymbolDescriptor, t: float, Z: PhasePoint) -> complex:
    """(H_t F)(Z) in closed form."""
    if t <= 0:
        raise InputError("t must be positive")
    return smooth_symbol(F, range(F.dim), t).value_at(Z)


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
    per-site mixtures); a Gaussian expands by inclusion-exclusion into the
    2^|I| terms (-1)^|J| S_J F, J subset of I, each a closed-form smoothed
    Gaussian.  |I| is capped by GW_MAX_SUBSETS; any other symbol raises
    InputError.
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
    sup = None if F.sup_norm is None else 2.0 ** len(I) * F.sup_norm
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
        out.sup_norm = sup
        return out
    if F.quad is not None:
        terms = [((-1.0) ** len(J) * amp, A)
                 for r in range(len(I) + 1) for J in itertools.combinations(I, r)
                 for amp, A in F.smoothed(J, s).quad]
        out = _gaussian_symbol(terms, name=f"T_I[{F.name}]", meta=F.meta)
        out.sup_norm = sup
        return out
    raise InputError(f"symbol {F.name!r} has no closed-form difference product T_I")


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
