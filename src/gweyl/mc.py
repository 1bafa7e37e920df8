"""Monte Carlo models of concrete Gaussian path and sequence spaces.

Brownian paths on [0, 1] are sampled by exact Gaussian increments on a
uniform grid (variance h/K per step), so grid-point marginals carry no
discretization error.  The weighted-sup sequence space check estimates

    mu( sup_{j in Gamma_p} |x_j| / b_j <= eps )

along a ladder of finite site sets and compares with the exact product

    prod_j erf(b_j eps / sqrt(2 h)) = prod_j (1 - erfc(b_j eps / sqrt(2 h))),

whose infinite-site limit is positive whenever the erfc terms are summable.

All sampling is chunked and counter-based (see gaussian.sample), reductions
run in fixed chunk order, and the suite treats 4 sigma as failure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .gaussian import GaussianMeasure, sample
from .hermite import write_csv

SIGMA_FAIL = 4.0


@dataclass
class BrownianGrid:
    """Ensemble of Brownian paths at uniform grid times 0 = t_0 < ... < t_K = 1."""

    times: np.ndarray    # (K+1,)
    paths: np.ndarray    # (n, K+1), paths[:, 0] = 0
    h: float

    def increments(self) -> np.ndarray:
        return np.diff(self.paths, axis=1)

    def ito_sum(self, uprime: np.ndarray) -> np.ndarray:
        """Discrete stochastic integral sum_i u'(t_i) dB_i per path.

        uprime holds the (piecewise-constant) derivative values on the K
        subintervals; the result has the law of the pairing of the path with
        the primitive of uprime, variance h int (u')^2.
        """
        up = np.asarray(uprime, dtype=float)
        if up.shape[0] != self.paths.shape[1] - 1:
            raise InputError("uprime must have one value per subinterval")
        return self.increments() @ up

    def to_csv(self, path, metadata: dict | None = None):
        write_csv(path, metadata, [f"t={t:.17g}" for t in self.times.tolist()],
                  self.paths.tolist())


def sample_brownian(K: int, h: float, n: int, seed: int) -> BrownianGrid:
    """n paths with i.i.d. increments of variance h/K on K uniform steps."""
    if K < 1:
        raise InputError("K must be >= 1")
    incs = sample(GaussianMeasure(K, h / K), n, seed)
    paths = np.concatenate([np.zeros((n, 1)), np.cumsum(incs, axis=1)], axis=1)
    return BrownianGrid(np.linspace(0.0, 1.0, K + 1), paths, h)


def sup_ball_probability_exact(b_weights, eps: float, h: float) -> float:
    """Exact product formula for mu( sup_j |x_j|/b_j <= eps ) over the sites."""
    prob = 1.0
    c = eps / math.sqrt(h)
    for b in np.atleast_1d(np.asarray(b_weights, dtype=float)):
        prob *= math.erf(c * float(b) / math.sqrt(2.0))
    return prob


def lattice_norm_probability(b_weights, eps: float, h: float, site_ladder,
                             n: int, seed: int):
    """MC and exact estimates of the sup-ball probability along a site ladder.

    Returns a list of (site_count, mc_estimate, mc_stderr, exact_product).
    """
    b = np.atleast_1d(np.asarray(b_weights, dtype=float))
    if np.any(b <= 0):
        raise InputError("weights must be positive")
    ladder = [int(p) for p in site_ladder]
    if any(p < 1 or p > b.shape[0] for p in ladder):
        raise InputError("site ladder outside the weight family")
    pts = sample(GaussianMeasure(b.shape[0], h), n, seed)
    ratios = np.abs(pts) / b[None, :]
    out = []
    for p in ladder:
        hit = np.all(ratios[:, :p] <= eps, axis=1)
        mc = float(np.mean(hit))
        stderr = math.sqrt(max(mc * (1.0 - mc), 1e-300) / n)
        out.append((p, mc, stderr, sup_ball_probability_exact(b[:p], eps, h)))
    return out


def mc_integral(f, dim: int, h: float, n: int, seed: int):
    """Sample mean and standard error of f against mu_{dim,h}."""
    pts = sample(GaussianMeasure(dim, h), n, seed)
    vals = np.asarray(f(pts))
    mean = complex(np.mean(vals))
    if np.all(np.abs(vals.imag if np.iscomplexobj(vals) else 0.0) == 0.0):
        mean = mean.real
        stderr = float(np.std(np.real(vals), ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return mean, stderr
    stderr = float(
        math.sqrt(np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)) / math.sqrt(n)
    ) if n > 1 else 0.0
    return mean, stderr
