"""Hot numerical kernels, vectorized over the evaluation points.

Kernels:
  * hermite_table        -- orthonormal Hermite values by three-term recurrence
  * wigner_pair_table    -- pair transform table W[k,l] in Laguerre closed form
  * bargmann_pair_table  -- closed-form anti-holomorphic pair table B[k,l]
  * chain_contract       -- nearest-neighbour Fourier chain contraction
"""

import math

import numpy as np


def _scaled_powers(s, deg):
    """Rows s^p / sqrt(p!) for p = 0..deg."""
    out = np.empty((deg + 1, s.shape[0]), dtype=np.complex128)
    out[0] = 1.0
    for p in range(deg):
        out[p + 1] = out[p] * s / math.sqrt(p + 1)
    return out


# ---------------------------------------------------------------------------
# Orthonormal Hermite recurrence (probabilists', unit-normal weight).
# e_0 = 1, e_1 = t, e_{k+1} = (t e_k - sqrt(k) e_{k-1}) / sqrt(k+1).
# ---------------------------------------------------------------------------

def hermite_table(t, deg: int) -> np.ndarray:
    """Values e_k(t_i), shape (deg+1, len(t)), unit-normal orthonormal family."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty((deg + 1, t.shape[0]))
    out[0] = 1.0
    if deg >= 1:
        out[1] = t
    for k in range(1, deg):
        out[k + 1] = (t * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    return out


# ---------------------------------------------------------------------------
# Pair transform table: the Fock-state Wigner function.  With
# s = sqrt(2/h) (z + i zeta), x = |s|^2 and offset d = l - k >= 0,
#   W[k, l](s) = (-1)^k sqrt(k!/l!) s^d L_k^(d)(x),   W[l, k] = conj(W[k, l]).
# Q_k^(d) = (-1)^k sqrt(k! d!/(k+d)!) L_k^(d)(x) obeys the Laguerre three-term
# recurrence in k, normalised so that Q_0 = 1:
#   Q_{k+1} = ((x - 2k - 1 - d) Q_k - sqrt(k (k+d)) Q_{k-1})
#             / sqrt((k+1) (k+1+d)),
# and W[k, k+d] = Q_k^(d) s^d / sqrt(d!).  All offsets advance together, so
# the table costs O(deg^2) vector operations and has no alternating sum.
# ---------------------------------------------------------------------------

def wigner_pair_table(s, deg: int) -> np.ndarray:
    """W[k, l] on a flat grid of scaled phase points s; shape (deg+1, deg+1, n)."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    x = s.real**2 + s.imag**2
    powers = _scaled_powers(s, deg)
    d = np.arange(deg + 1, dtype=np.float64)[:, None]
    out = np.empty((deg + 1, deg + 1, s.shape[0]), dtype=np.complex128)
    prev = np.zeros((deg + 1, s.shape[0]))
    cur = np.ones((deg + 1, s.shape[0]))
    for k in range(deg + 1):
        row = cur * powers[: deg + 1 - k]      # W[k, k+d] for d = 0..deg-k
        out[k, k:] = row
        out[k:, k] = row.conj()
        m = deg - k                            # offsets still needed at k+1
        dm = d[:m]
        nxt = ((x - (2 * k + 1) - dm) * cur[:m]
               - np.sqrt(k * (k + dm)) * prev[:m]) / np.sqrt((k + 1) * (k + 1 + dm))
        prev, cur = cur, nxt
    return out


# ---------------------------------------------------------------------------
# Anti-holomorphic pair table.  With tau = (z + i zeta) / sqrt(2h),
#   B[k, l](tau) = conj(tau)^k tau^l / sqrt(k! l!).
# ---------------------------------------------------------------------------

def bargmann_pair_table(tau, deg: int) -> np.ndarray:
    """B[k, l] on a flat grid of scaled phase points tau; shape (deg+1, deg+1, n)."""
    tau = np.ascontiguousarray(tau, dtype=np.complex128)
    powers = _scaled_powers(tau, deg)
    return np.conj(powers)[:, None, :] * powers[None, :, :]


# ---------------------------------------------------------------------------
# Nearest-neighbour chain contraction.
#
# Sites j = 0..D-1 carry tables U[j, m, k, l] over an integer frequency axis
# m = -moff..moff, bonds b = 0..D-2 coefficient vectors a[b, n] over
# n = -noff..noff; both offsets are read off the array shapes.  The
# contraction evaluates
#
#   out[kvec, lvec] = sum_{n_0..n_{D-2}} prod_b a[b, n_b]
#                     prod_j U[j, m_j, k_j, l_j]
#
# with site frequencies m_0 = n_0, m_j = n_j - n_{j-1}, m_{D-1} = -n_{D-2},
# so every m_j lies in [-2 noff, 2 noff], inside the site axis when
# moff >= 2 noff.  A single site (D = 1) is its m = 0 table.  The output is
# the (d^D, d^D) matrix, row-major over the sites.  It is staged as a
# tensor train with state S[n_j, (k_j, l_j), ..., (k_0, l_0)], a C-ordered
# (N, rest) array that starts as a single 1 at n_{-1} = 0: site j < D - 2
# is one matrix product with its bridge, which puts its (k, l) pair in
# front of the rest, so the state is never transposed.  The last bridge and
# the last site (m = -n_{D-2}) are first contracted with each other into a
# small closing operator; each of its d^2 slices, one (k_{D-1}, l_{D-1})
# pair, then takes one product with the state and is written through a
# transposed view into the output's (k_0..k_{D-1}, l_0..l_{D-1}) order.
# So neither the state after the last bond nor a transposed copy of the
# output is ever whole: the contraction holds the output, the state before
# the last bond and one slice.  The inputs keep their dtype: chain symbols
# pass real tables (the rotated basis of ``quantize``), so the whole train
# runs in float64.
# ---------------------------------------------------------------------------

def chain_contract(U, a) -> np.ndarray:
    """Contract site tables along the bond chain; see the comment above."""
    U = np.ascontiguousarray(U)
    D, d = U.shape[0], U.shape[2]
    moff = (U.shape[1] - 1) // 2
    if D == 1:
        return U[0, moff].copy()
    a = np.ascontiguousarray(a)
    noff = (a.shape[1] - 1) // 2
    if moff < 2 * noff:
        raise ValueError(f"site tables reach |m| <= {moff}, bonds need {2 * noff}")
    ns = np.arange(-noff, noff + 1)
    N = ns.size

    def bridge(j, prev):
        # bridge[n_{j-1}, n_j, (k_j, l_j)] = U[j, n_j - n_{j-1} + moff] a[j, n_j]
        B = U[j, ns[None, :] - prev[:, None] + moff] * a[j][:, None, None]
        return B.reshape(prev.size, N, d * d)

    S = np.ones((1, 1), dtype=np.result_type(U, a))
    prev = np.zeros(1, dtype=ns.dtype)
    for j in range(D - 2):
        S = (bridge(j, prev).reshape(prev.size, -1).T @ S).reshape(N, -1)
        prev = ns
    # close[(k_{D-1}, l_{D-1}), (k_{D-2}, l_{D-2}), n_{D-3}]
    close = (bridge(D - 2, prev).transpose(0, 2, 1)
             @ U[D - 1, moff - ns].reshape(N, d * d)).transpose(2, 1, 0)
    full = d ** D
    out = np.empty((full, full), dtype=S.dtype)
    grid = out.reshape((d,) * (2 * D))
    # slice axes (k_{D-2}, l_{D-2}, ..., k_0, l_0) to (k_0..k_{D-2}, l_0..l_{D-2})
    perm = [2 * (D - 2 - j) + kl for kl in (0, 1) for j in range(D - 1)]
    lead = (slice(None),) * (D - 1)
    for r in range(d * d):
        k, l = divmod(r, d)
        grid[(*lead, k, *lead, l)] = (close[r] @ S).reshape(
            (d,) * (2 * D - 2)).transpose(perm)
    return out
