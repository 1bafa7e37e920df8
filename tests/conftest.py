import json

import numpy as np
import pytest

from gweyl import quantize
from gweyl.gaussian import tensor_rule
from gweyl.heat import _gauss_average
from gweyl.symbols import SymbolDescriptor


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def trapezoid_1d(f, half_width, n=4001):
    """Wide uniform-grid Lebesgue integral for cross-checks."""
    xs = np.linspace(-half_width, half_width, n)
    vals = np.asarray(f(xs[:, None]))
    return np.trapezoid(vals, xs)


# signed zeros, the smallest subnormals, and the places where repr switches
# between positional and exponent notation (1e16, 1e-4) with their neighbours
EDGE_FLOATS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, np.nextafter(1e16, 0.0),
    1e-4, np.nextafter(1e-4, 0.0), 1e-5, -1e-5, 0.1, 1.0 / 3.0, 2.0 ** 52 + 0.5,
])


def json_per_entry(doc: dict, key: str, values) -> str:
    """Reference for the [re, im] writer: the standard encoder on one list per entry."""
    pairs = [[float(z.real), float(z.imag)] for z in np.ravel(values)]
    return json.dumps({**doc, key: pairs})


# ---------------------------------------------------------------------------
# quadrature references for symbols with no closed form
# ---------------------------------------------------------------------------

DENSE_CHUNK_BYTES = 1 << 27   # tables held at once by assemble_dense


def coord_grid(h, mode, order):
    """Tensor Gauss-Hermite rule on one coordinate's (z, zeta) under ``mode``."""
    v = quantize._mode_variance(mode, h)
    return tensor_rule([v, v], order)


def assemble_dense(F, basis, modes, order):
    """Hybrid matrix of any symbol by tensor-grid quadrature, dim <= 2.

    ``order`` nodes per variable.  F on a block of first-coordinate nodes
    times the second coordinate's grid is contracted against both pair
    tables, so about DENSE_CHUNK_BYTES are held at once.
    """
    D, h, deg = basis.dim, basis.h, basis.max_degree
    assert D <= 2, "dense quadrature grids are limited to dim <= 2"
    d = deg + 1
    n1, w1 = coord_grid(h, modes[0], order)
    if D == 2:
        n2, w2 = coord_grid(h, modes[1], order)
        T2 = (quantize._coord_table(h, modes[1], deg, n2) * w2).reshape(d * d, -1)
    else:
        # one node of weight 1 with a 1 x 1 table: no second coordinate
        n2, T2 = np.zeros((1, 0)), np.ones((1, 1))
    q2 = n2.shape[0]
    # per first-coordinate node: its table and temporaries, and F's points
    step = max(1, DENSE_CHUNK_BYTES // (16 * (2 * d * d + 8 * q2)))
    P = np.zeros((d * d, T2.shape[0]), dtype=complex)   # [(l1, k1), (l2, k2)]
    for lo in range(0, n1.shape[0], step):
        x = n1[lo:lo + step]
        z, ze = np.empty((2, len(x), q2, D))
        z[..., 0], ze[..., 0] = x[:, None, 0], x[:, None, 1]
        z[..., 1:], ze[..., 1:] = n2[:, :1], n2[:, 1:]
        vals = F(z.reshape(-1, D), ze.reshape(-1, D)).reshape(len(x), q2)
        vals *= w1[lo:lo + step, None]
        P += quantize._coord_table(h, modes[0], deg, x).reshape(d * d, -1) @ (vals @ T2.T)
    # P is indexed [l1, k1, l2, k2]; the matrix is [(k1, k2), (l1, l2)]
    axes = list(range(1, 2 * D, 2)) + list(range(0, 2 * D, 2))
    return P.reshape((d, d) * D).transpose(axes).reshape(d**D, d**D)


def quadrature_smoothed(F, coords, t, order=None):
    """F smoothed over the (z_j, zeta_j) of ``coords`` by tensor quadrature.

    ``order`` nodes per variable: 32 for one coordinate, 16 for two and 8
    for more unless given.
    """
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


# (identity, family): (residual / bound, residual, bound) of the worst case,
# filled by test_routes.py
ROUTE_WORST = {}


def pytest_terminal_summary(terminalreporter):
    if ROUTE_WORST:
        terminalreporter.section("worst route-identity residuals")
        for (identity, family), (_, worst, bound) in sorted(ROUTE_WORST.items()):
            terminalreporter.write_line(f"{identity:10s} {family:9s} {worst:9.2e} "
                                        f"(bound {bound:.0e})")
