import json

import numpy as np
import pytest


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
