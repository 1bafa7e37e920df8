"""Closed-form operators that the benchmark checks gweyl's outputs against.

Nothing here imports gweyl.  In the Hermite basis of L^2(mu_{h/2}) the Weyl
quantization of the Fourier atom e^{i(a z + b zeta)} in one coordinate is the
displacement operator D(alpha) with alpha = sqrt(h/2) (-b + i a):

    <m|D(alpha)|n> = sqrt(n!/m!) alpha^(m-n) e^{-|alpha|^2/2}
                     L_n^(m-n)(|alpha|^2)                          (m >= n),
    <m|D(alpha)|n> = sqrt(m!/n!) (-conj alpha)^(n-m) e^{-|alpha|^2/2}
                     L_m^(n-m)(|alpha|^2)                          (m < n).

Anti-Wick quantization of the same atom is D(alpha) e^{-h(a^2+b^2)/4}; a
hybrid operator is the per-coordinate tensor product of the two, and a
finitely supported Fourier measure quantizes to the weighted sum of its atoms.
"""

import math

import numpy as np
from scipy.special import eval_genlaguerre, gammaln


def displacement(alpha: complex, deg: int) -> np.ndarray:
    """Matrix <m|D(alpha)|n>, 0 <= m, n <= deg, of the displacement operator."""
    x = abs(alpha) ** 2
    out = np.empty((deg + 1, deg + 1), dtype=complex)
    pref = math.exp(-0.5 * x)
    for m in range(deg + 1):
        for n in range(deg + 1):
            lo, hi = min(m, n), max(m, n)
            ratio = math.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
            base = alpha if m >= n else -np.conj(alpha)
            out[m, n] = (ratio * base ** (hi - lo) * pref
                         * eval_genlaguerre(lo, hi - lo, x))
    return out


def atom_factor(a: float, b: float, h: float, deg: int, weyl: bool) -> np.ndarray:
    """One coordinate of the quantized atom e^{i(a z + b zeta)}."""
    D = displacement(math.sqrt(0.5 * h) * complex(-b, a), deg)
    if weyl:
        return D
    return D * math.exp(-0.25 * h * (a * a + b * b))


def fourier_operator(atoms, h: float, indices: np.ndarray, selected=None) -> np.ndarray:
    """Quantized Fourier measure sum_k c_k e^{i(a_k.z + b_k.zeta)}.

    ``atoms`` holds (weight, a, b) triples, ``indices`` the basis multi-degrees
    in the basis order (rows), and ``selected`` the coordinates quantized by
    Weyl; the others are anti-Wick.  None selects every coordinate.
    """
    indices = np.asarray(indices)
    dim = indices.shape[1]
    deg = int(indices.max()) if indices.size else 0
    weyl = [selected is None or j in selected for j in range(dim)]
    total = np.zeros((indices.shape[0], indices.shape[0]), dtype=complex)
    for c, a, b in atoms:
        term = np.ones_like(total)
        for j in range(dim):
            f = atom_factor(float(a[j]), float(b[j]), h, deg, weyl[j])
            term *= f[np.ix_(indices[:, j], indices[:, j])]
        total += complex(c) * term
    return total


def smoothed_atom(a, b, h: float, x, xi) -> complex:
    """Half-heat-smoothed atom e^{i(a.x + b.xi)} e^{-h(|a|^2 + |b|^2)/4}."""
    a, b, x, xi = (np.asarray(v, dtype=float) for v in (a, b, x, xi))
    return complex(np.exp(1j * (a @ x + b @ xi) - 0.25 * h * (a @ a + b @ b)))
