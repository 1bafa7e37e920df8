"""Seeded request mixes for the two benchmark workloads.

A workload is a list of requests that the benchmark sends, in order, through
``gweyl.cli.main``; one pass over the list is a round.  The seed draws symbol
coefficients, couplings and the order of the requests; the number of
requests of each kind and their truncation degrees are fixed, so every seed
asks for about the same amount of work.  gweyl receives only the config
files written from these requests.

Requests whose inputs do not depend on the seed carry ``fixed=True``: they
are the single-atom exponentials in dim >= 2, on which the block power
iteration in ``quantize.operator_norm`` fails today (exit code 3).  They stay
in the mix, with their closed-form checks, so that a mend shows as fewer
failed operations.
"""

from dataclasses import dataclass

import numpy as np

H = 0.5
ORACLE_OVERSAMPLE = 1.5


@dataclass
class Request:
    """One CLI call: a command, its JSON config and what to check it against."""

    command: str
    config: dict
    check: str
    fixed: bool = False

    @property
    def label(self) -> str:
        cfg = self.config
        sym = cfg.get("symbol", {})
        parts = [self.command, cfg.get("method"), sym.get("family"),
                 cfg.get("degree")]
        return " ".join(str(p) for p in parts if p is not None)


def _atoms(rng, dim, n, freq=2.0):
    return [
        {"weight": [float(rng.normal()), float(rng.normal())],
         "a": [float(v) for v in rng.uniform(-freq, freq, dim)],
         "b": [float(v) for v in rng.uniform(-freq, freq, dim)]}
        for _ in range(n)
    ]


def _exponential(rng, dim, freq=2.0):
    return {"family": "exponential",
            "a": [float(v) for v in rng.uniform(-freq, freq, dim)],
            "b": [float(v) for v in rng.uniform(-freq, freq, dim)]}


def _quadratic(rng, dim):
    n = 2 * dim
    A = rng.normal(size=(n, n))
    T = A @ A.T / n + 0.1 * np.eye(n)
    return {"family": "quadratic", "T": T.round(12).tolist(),
            "t": float(rng.uniform(0.3, 1.0))}


def _lattice(rng, sites):
    g = 0.5 * 0.8 ** np.arange(sites) * rng.uniform(0.97, 1.03, sites)
    return {"family": "lattice", "g": [float(v) for v in g],
            "t": float(rng.uniform(0.97, 1.03)), "V": "cos", "m": 2}


def _quantize(symbol, method, degree, check, **extra):
    cfg = {"symbol": symbol, "method": method, "h": H, "degree": degree}
    cfg.update(extra)
    return Request("quantize", cfg, check)


# Single-atom exponentials in dim >= 2, under Weyl and anti-Wick: the block
# power iteration in operator_norm does not converge on any of them.
FAILING_EXPONENTIALS = (
    ({"family": "exponential", "a": [1.1, 0.4], "b": [-0.6, 0.3]}, 10),
    ({"family": "exponential", "a": [1.0, -0.5, 0.3], "b": [0.2, 0.8, -0.4]}, 3),
)


def requests_mix(seed: int) -> list:
    """About a hundred small quantize / wick / verify requests of mixed kinds."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for deg in (8, 9, 10, 11, 12, 13, 14, 15, 16) * 2:
        for method in ("weyl", "antiwick"):
            out.append(_quantize(_exponential(rng, 1), method, deg, "fourier"))
    for deg in (8, 10, 12, 14, 16):
        out.append(_quantize(_exponential(rng, 1), "hybrid", deg, "fourier",
                             split=[0]))
        out.append(_quantize(_exponential(rng, 1), "hybrid", deg, "fourier",
                             split=[]))
    # the atom count is fixed per request, not drawn: a Weyl request's cost
    # grows with it, and the slowest dim-1 requests set request_p90_s
    for k, deg in enumerate((8, 10, 12, 14, 16) * 2):
        for method in ("weyl", "antiwick"):
            sym = {"family": "fourier_measure", "atoms": _atoms(rng, 1, 2 + k % 3)}
            out.append(_quantize(sym, method, deg, "fourier"))
    for dim, deg in ((2, 4), (2, 5), (2, 6), (3, 2), (3, 3)):
        for method, split in (("weyl", None), ("antiwick", None),
                              ("hybrid", [0]), ("hybrid", [dim - 1])):
            sym = {"family": "fourier_measure", "atoms": _atoms(rng, dim, 3)}
            extra = {} if split is None else {"split": split}
            out.append(_quantize(sym, method, deg, "fourier", **extra))
    for deg in (8, 10, 12):
        for method in ("weyl", "antiwick"):
            out.append(_quantize(_quadratic(rng, 1), method, deg, "quadratic"))
    # the dim-2 dense grid costs about a second, more than all dim-1 requests
    out.append(_quantize(_quadratic(rng, 2), "antiwick", 3, "quadratic"))
    for dim, deg in ((1, 12), (1, 14), (1, 16), (2, 6), (2, 7)):
        cfg = {"symbol": _exponential(rng, dim, 1.5), "h": H, "degree": deg,
               "points": 20, "seed": int(rng.integers(1 << 30))}
        out.append(Request("wick", cfg, "wick"))
    out.append(Request("verify", {"seed": int(rng.integers(1 << 30))}, "verify"))
    order = rng.permutation(len(out))
    out = [out[i] for i in order]
    # one failing request per dimension and method; each burns 0.5-0.9 s
    for (sym, deg), method in zip(FAILING_EXPONENTIALS, ("weyl", "antiwick")):
        req = _quantize(dict(sym), method, deg, "fourier")
        req.fixed = True
        out.append(req)
    return out


def oracle_mix(seed: int) -> list:
    """Three classical-kernel oracle requests at degree 4 on 4-atom symbols,
    each paired with Weyl on the same symbol.

    Every symbol has one frequency of size in [0.6, 1] and none above 1, so
    all oracle calls use the same grid (its shift is h/2 times the largest
    frequency, rounded up to a multiple of 1/2) and only the first one of a
    round runs the F = 1 resolution check.  The grid is sampled at 1.5 times
    the Nyquist rate instead of the default 3.5: a call then takes about a
    second instead of 20, and the oracle still matches Weyl to 1e-12.
    """
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(3):
        atoms = _atoms(rng, 1, 4, freq=1.0)
        atoms[0]["b"] = [float(rng.choice((-1, 1)) * rng.uniform(0.6, 1.0))]
        sym = {"family": "fourier_measure", "atoms": atoms}
        out += [_quantize(sym, "weyl_classical", 4, "classical",
                          oversample=ORACLE_OVERSAMPLE),
                _quantize(sym, "weyl", 4, "fourier")]
    return out


def ladder_mix(seed: int) -> list:
    """Ladders on a 4-site lattice at degree 3 and a 5-site one at degree 1,
    a quantize of the 4-site lattice (n = 256), and the 3-site exponential
    ladder on which operator_norm fails today."""
    rng = np.random.default_rng([seed, 3])
    out = []
    big = _lattice(rng, 4)
    for sym, deg in ((big, 3), (_lattice(rng, 5), 1)):
        out.append(Request("converge", {"symbol": sym, "h": H, "degree": deg},
                           "ladder"))
    out.append(_quantize(big, "weyl", 3, "lattice"))
    sym, deg = FAILING_EXPONENTIALS[1]
    out.append(Request("converge", {"symbol": dict(sym), "h": H, "degree": deg},
                       "ladder", fixed=True))
    return out


def oracle_ladder_mix(seed: int) -> list:
    """The oracle pairs, then the ladders, as one round.

    One workload rather than two, so that their long requests are timed over
    the longest runs the benchmark's time limit allows.
    """
    return oracle_mix(seed) + ladder_mix(seed)


WORKLOADS = {
    "requests": requests_mix,
    "oracle_ladder": oracle_ladder_mix,
}

# Seconds one round takes on the reference machine (see README.md).  A run
# of --seconds S makes round(S / ROUND_SECONDS) rounds whatever the speed of
# the program, so every run attempts the same operations.
ROUND_SECONDS = {
    "requests": 6.5,
    "oracle_ladder": 7.7,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return WORKLOADS[workload](seed)


def atoms_of(symbol: dict):
    """(weight, a, b) triples of an exponential or Fourier-measure config."""
    if symbol["family"] == "exponential":
        return [(1.0, symbol["a"], symbol["b"])]
    return [(complex(*at["weight"]), at["a"], at["b"]) for at in symbol["atoms"]]


def abs_mass(symbol: dict) -> float:
    return sum(abs(c) for c, _, _ in atoms_of(symbol))

