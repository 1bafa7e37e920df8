"""One seeded sweep over the identities that tie the quantization routes together.

Each case (a symbol, a degree and a split E) is checked against every
identity of ``BOUND`` that applies to its family.  Fixed cases are the
inputs of earlier single-case tests; seeded cases come from ``SEEDS``.  A
residual is the largest entry difference over min(1, largest reference
entry); the worst per identity and family is printed at the end of the run.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import ROUTE_WORST, assemble_dense
from gweyl import (
    CoordinateSplit, HermiteBasis, PhasePoint, antiwick_matrix, heat_full,
    hybrid_matrix, make_constant, make_exponential, make_fourier_measure,
    make_lattice, make_quadratic, oracle_U, smooth_symbol, weyl_matrix,
    weyl_matrix_classical, wick_symbol,
)
from gweyl.heat import op_T_I
from gweyl.symbols import LatticeSymbolParams

H = 0.5
# "mass" bounds ||M|| / sum |c_k| - 1 and "wick" an absolute difference; a
# fixed dense reference keeps the bound of the test it came from
BOUND = {"oracle_U": 1e-12, "classical": 1e-12, "mass": 1e-13, "hermitian": 1e-13,
         "smoothed": 1e-12, "subsets": 1e-12, "kron": 1e-13, "dense": 1e-12,
         "wick": 1e-13}
FIXTURE, SEEDS = 20240817, range(110, 134)   # FIXTURE: conftest's rng seed
POSITIVE, NORMAL = (lambda r: r.uniform(0.05, 0.4)), (lambda r: r.normal())
COMPLEX = lambda r: complex(*r.normal(size=2))


def _atoms(rng, dim, n, freq, weight, real=False):
    # n atoms, each drawn as weight, a, b; real: with its mirror atom
    atoms = []
    for _ in range(n):
        c, a, b = weight(rng), rng.uniform(-freq, freq, dim), rng.uniform(-freq, freq, dim)
        atoms += [(0.5 * c, a, b), (0.5 * c, -a, -b)] if real else [(c, a, b)]
    return make_fourier_measure(atoms)


def _nth(k, *args):
    # the k-th symbol drawn from the rng fixture
    rng = np.random.default_rng(FIXTURE)
    return [_atoms(rng, *args) for _ in range(k + 1)][-1]


def _psd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T / n + 0.1 * np.eye(n)


def _lattice(g, t):
    return make_lattice(LatticeSymbolParams(d=1, g=tuple(g), t=t, V="cos"), 2)


def _points(rng, n):
    return [rng.uniform(-0.7, 0.7, 2) * math.sqrt(H) for _ in range(n)]


_WICK = np.random.default_rng(FIXTURE)
# name, symbol, degree, splits, options: "dense" (order, bound), "imag" (a
# floor on the reference's largest imaginary part), "real", "wick" (points),
# "factors" (of a product symbol, one per coordinate)
FIXED = [
    ("classical-degree-16", make_exponential([0.7], [-0.4]), 16, [(0,)], {}),
    ("classical-kron", _nth(0, 2, 4, 1.3, COMPLEX), 4, [(0, 1)], {}),
    ("classical-kron", _nth(0, 3, 2, 1.3, COMPLEX), 3, [(0, 1, 2)], {}),
    *[(f"classical-trig-{k}", _nth(k, 1, 4, 2.0, NORMAL), 8, [(0,)], {}) for k in (0, 1)],
    ("smoothed-constant", make_constant(1.0, 1), 10, [()], {}),
    ("smoothed-exponential", make_exponential([1.3], [-0.8]), 10, [()], {}),
    ("smoothed-trig", _atoms(np.random.default_rng(41), 1, 4, 2.0, NORMAL), 10, [()], {}),
    ("gaussian-dense", make_quadratic(_psd(np.random.default_rng(5), 4), 0.5), 3,
     [(0, 1), (), (0,), (1,)], {"dense": (40, 1e-13)}),
    ("gaussian-coupled", make_quadratic([[1.0, 0.4], [0.4, 0.8]], 0.5), 8, [(0,), ()],
     {"dense": (120, 1e-13), "imag": 1e-2}),
    ("chain-dense", _lattice((0.3, 0.2), 0.5), 3, [(0, 1), (), (0,)], {"dense": (48, 1e-12)}),
    ("chain-dense", _lattice((0.3,), 0.5), 3, [(0,), ()], {"dense": (80, 1e-12)}),
    ("edge-splits", _nth(0, 1, 4, 2.0, POSITIVE), 10, [(0,)], {}),
    ("tensor-factorization", make_exponential([1.1, 0.4], [0.7, -0.3]), 5, [(0,)],
     {"factors": [make_exponential([1.1], [0.7]), make_exponential([0.4], [-0.3])]}),
    ("nesting", _nth(0, 2, 4, 2.0, POSITIVE), 5, [(0,)], {}),
    ("hermitian", _nth(0, 1, 3, 2.0, lambda r: r.uniform(0.1, 0.5), True), 10,
     [(0,), ()], {"real": 1}),
    *[(f"contraction-{k}", _nth(k, 1, 4, 2.0, POSITIVE), 10, [()], {}) for k in range(5)],
    ("fourier-measure", _nth(0, 1, 4, 2.0, lambda r: r.uniform(0.1, 0.5)
                             * np.exp(1j * r.uniform(0, 6.28))), 10, [(0,), ()], {}),
    ("wick", _atoms(_WICK, 1, 4, 2.0, NORMAL), 16, [(0,)], {"wick": _points(_WICK, 5)}),
]


def _seeded(seed):
    rng = np.random.default_rng(seed)
    family = ("atoms", "gaussian", "lattice")[rng.integers(3)]
    dim = int(rng.integers(1, 4))
    degree = min(int(rng.integers(2, 9)), (8, 6, 3)[dim - 1])
    split = tuple(j for j in range(dim) if rng.random() < 0.5)
    coin = rng.random() < 0.5   # atoms: real (mirror pairs); Gaussians: uncoupled
    opts = {"real": 1} if coin and family == "atoms" else {}
    if family == "atoms":
        F = _atoms(rng, dim, int(rng.integers(1, 4)), 1.5, NORMAL if coin else COMPLEX, coin)
        if len(F.atoms) == 1:
            (c, a, b), = F.atoms
            opts["factors"] = [make_fourier_measure([(1.0 if j else c, a[j:j + 1], b[j:j + 1])])
                               for j in range(dim)]
    elif family == "gaussian":
        T = _psd(rng, 2 * dim) * (np.kron(np.ones((2, 2)), np.eye(dim)) if coin else 1.0)
        F = make_quadratic(T, t := rng.uniform(0.3, 1.0))
        if coin:
            opts["factors"] = [make_quadratic(T[np.ix_([j, dim + j], [j, dim + j])], t)
                               for j in range(dim)]
    else:
        F = _lattice(rng.uniform(0.1, 0.5, dim), rng.uniform(0.5, 1.0))
    if dim == 1:   # dense references are cheap in dim 1 only.  At order 120
        # they differ from order 160 by at most 6.4e-15, 157x under the bound
        opts["wick"] = _points(rng, 3)
        if family != "atoms":
            opts["dense"] = (120, BOUND["dense"])
    return f"seed{seed}", F, degree, [split], opts


def _family(F):
    return "atoms" if F.atoms else "lattice" if F.chain else "gaussian"


CASES = [pytest.param(F, degree, split, opts, id=f"{name}-{_family(F)}-dim{F.dim}-"
                      f"deg{degree}-E{''.join(map(str, split)) or '-'}")
         for name, F, degree, splits, opts in FIXED + [_seeded(s) for s in SEEDS]
         for split in splits]


def _residual(got, want):
    return np.abs(got - want).max() / min(1.0, np.abs(want).max())


def _check(identity, family, residual, bound=None):
    bound = bound or BOUND[identity]
    worst = ROUTE_WORST.get((identity, family), (-math.inf,))
    ROUTE_WORST[identity, family] = max(worst, (residual / bound, residual, bound))
    assert residual <= bound, (identity, residual)


@pytest.mark.parametrize("F, degree, split, opts", CASES)
def test_route_identities(F, degree, split, opts):
    family, D = _family(F), F.dim
    basis, E = HermiteBasis(D, H, degree), CoordinateSplit(D, split)
    M = hybrid_matrix(F, E, basis)
    assert M.meta["route"] == {"lattice": "chain"}.get(family, family) and "nodes" not in M.meta
    for edge, method in ((tuple(range(D)), weyl_matrix), ((), antiwick_matrix)):
        edge_matrix = hybrid_matrix(F, CoordinateSplit(D, edge), basis).entries
        assert np.array_equal(edge_matrix, method(F, basis).entries)
    smoothed = smooth_symbol(F, E.complement, H / 2)
    _check("smoothed", family, _residual(M.entries, weyl_matrix(smoothed, basis).entries))
    terms = [hybrid_matrix(op_T_I(F, I, H), CoordinateSplit(D, I), basis).entries
             for r in range(len(split) + 1) for I in itertools.combinations(split, r)]
    _check("subsets", family, _residual(sum(terms), M.entries))
    if "factors" in opts:
        want = np.ones((1, 1))
        for j, G in enumerate(opts["factors"]):
            mode = weyl_matrix if j in split else antiwick_matrix
            want = np.kron(want, mode(G, HermiteBasis(1, H, degree)).entries)
        _check("kron", family, _residual(M.entries, want))
    if family == "atoms":
        want = sum(c * math.exp(-0.25 * H * sum(a[j] ** 2 + b[j] ** 2 for j in E.complement))
                   * oracle_U(a, b, H, basis).entries for c, a, b in F.atoms)
        _check("oracle_U", family, _residual(M.entries, want))
        mass = sum(abs(c) for c, _, _ in F.atoms)
        _check("mass", family, np.linalg.norm(M.entries, 2) / mass - 1.0)
        C = weyl_matrix_classical(smoothed, basis)   # on the full split, smoothed is F
        assert (C.meta["route"], C.meta["atoms"]) == ("atoms", len(F.atoms))
        assert len(C.meta["grid"]) == 2 and C.meta["identity_residual"] <= 5e-6
        _check("classical", family, _residual(C.entries, M.entries))
    else:
        p = basis.indices.sum(axis=1) % 2
        assert not M.entries[p[:, None] != p].any()
        assert family == "gaussian" or M.entries.dtype == np.float64
    if family != "atoms" or "real" in opts:
        _check("hermitian", family, _residual(M.entries, M.entries.conj().T))
    if "dense" in opts:
        modes = ["weyl" if j in split else "aw" for j in range(D)]
        want = assemble_dense(replace(F, chain=None), basis, modes, opts["dense"][0])
        assert np.abs(want.imag).max() > opts.get("imag", -1.0)
        _check("dense", family, _residual(M.entries, want), opts["dense"][1])
    if "wick" in opts:   # at degree 16 the coherent states at these points are resolved
        op = weyl_matrix(F, HermiteBasis(1, H, 16))
        for X in (PhasePoint(p[:1], p[1:]) for p in opts["wick"]):
            _check("wick", family, abs(wick_symbol(op, X) - heat_full(F, H / 2, X)))
