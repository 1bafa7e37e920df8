import math

import numpy as np
import pytest

from gweyl import (
    GaussianMeasure,
    InputError,
    PhasePoint,
    ResourceError,
    cameron_martin_check,
    density,
    ell_abs_moment,
    exp_integral,
    gauss_quadrature,
    sample,
    symplectic,
    wick_moment,
)
from gweyl.gaussian import _hermite_roots, bilinear_sq, tensor_rule


def test_density_standard_normal_at_zero():
    mu = GaussianMeasure(1, 1.0)
    assert density(mu, [0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)


def test_density_normalization_by_quadrature():
    for dim, h in [(1, 1.0), (2, 0.5), (3, 2.0)]:
        rule = gauss_quadrature(dim, h, 24)
        total = rule.integrate(lambda x: np.ones(x.shape[0]))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_density_dim2_frozen_value():
    # (2 pi 0.5)^-1 exp(-2), evaluated with 30-digit arithmetic
    mu = GaussianMeasure(2, 0.5)
    assert density(mu, [1.0, 1.0]) == pytest.approx(0.04307855860369726, rel=1e-14)


def test_density_dimension_mismatch():
    with pytest.raises(InputError):
        density(GaussianMeasure(2, 1.0), [1.0])


def test_density_lebesgue_mass_is_one():
    mu = GaussianMeasure(1, 0.7)
    xs = np.linspace(-12, 12, 20001)
    vals = density(mu, xs[:, None])
    assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-10)


def test_quadrature_polynomial_exactness():
    # an order-q rule integrates per-coordinate monomials up to degree 2q-1
    h = 0.9
    rule = gauss_quadrature(1, h, 3)
    # degree 4 moment of N(0, h): 3 h^2 (degree 5 odd term vanishes)
    assert rule.integrate(lambda x: x[:, 0] ** 4) == pytest.approx(
        3 * h * h, rel=1e-13
    )
    assert rule.integrate(lambda x: x[:, 0] ** 5) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_probability_and_moments():
    rule = gauss_quadrature(1, 0.7, 40)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
    assert rule.integrate(lambda x: x[:, 0] ** 2) == pytest.approx(0.7, rel=1e-12)
    rule1 = gauss_quadrature(1, 1.0, 40)
    assert rule1.integrate(lambda x: x[:, 0] ** 4) == pytest.approx(3.0, rel=1e-12)


def test_quadrature_budget(monkeypatch):
    monkeypatch.setenv("GW_MAX_NODES", "1000")
    with pytest.raises(ResourceError):
        gauss_quadrature(3, 1.0, 11)


def test_exp_integral_closed_forms():
    assert exp_integral([0.0], 1.0) == pytest.approx(1.0)
    assert exp_integral([1.0], 1.0).real == pytest.approx(math.exp(0.5), rel=1e-14)
    assert exp_integral([1j], 1.0).real == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_exp_integral_vs_quadrature_imaginary():
    h = 1.0
    rule = gauss_quadrature(1, h, 60)
    quad = rule.integrate(lambda x: np.exp(1j * x[:, 0]))
    assert abs(quad - exp_integral([1j], h)) < 1e-8


def test_exp_integral_vs_quadrature_radius_three():
    h = 0.8
    rule = gauss_quadrature(2, h, 48)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        a *= 3.0 / max(3.0, np.linalg.norm(a))
        quad = rule.integrate(lambda x: np.exp(x @ a))
        assert abs(quad - exp_integral(a, h)) < 1e-8


def test_ell_abs_moment_values():
    assert ell_abs_moment([0.6, 0.8], 2, 0.5) == pytest.approx(0.5, rel=1e-13)
    assert ell_abs_moment([1.0], 4, 1.0) == pytest.approx(3.0, rel=1e-13)
    assert ell_abs_moment([0.0, 0.0], 3, 1.0) == 0.0
    with pytest.raises(InputError):
        ell_abs_moment([1.0], 0.5, 1.0)


def _pairings_brute(indices):
    """Independent pairing enumeration (iterative, partner-array based)."""
    if len(indices) % 2:
        return []
    if not indices:
        return [[]]
    out = []
    first = indices[0]
    for i in range(1, len(indices)):
        rest = indices[1:i] + indices[i + 1:]
        for tail in _pairings_brute(rest):
            out.append([(first, indices[i])] + tail)
    return out


def test_wick_moment_pairs_and_quadruple():
    u1, u2 = np.array([1.0, 2.0]), np.array([-0.5, 0.3])
    assert wick_moment([u1, u2], 0.7) == pytest.approx(0.7 * float(u1 @ u2))
    u = np.array([1.0])
    assert wick_moment([u] * 4, 1.0) == pytest.approx(3.0)
    assert wick_moment([u] * 3, 1.0) == 0.0
    assert wick_moment([], 1.0) == 1.0


def test_wick_moment_against_independent_enumeration(rng):
    h = 0.6
    us = [rng.normal(size=3) for _ in range(6)]
    expected = 0.0
    for pairing in _pairings_brute(tuple(range(6))):
        prod = 1.0
        for i, j in pairing:
            prod *= float(us[i] @ us[j])
        expected += prod
    expected *= h**3
    assert wick_moment(us, h) == pytest.approx(expected, rel=1e-12)


def test_wick_vs_quadrature_dim3():
    h = 0.5
    rule = gauss_quadrature(3, h, 16)
    rng = np.random.default_rng(11)
    us = [rng.normal(size=3) for _ in range(6)]
    quad = rule.integrate(
        lambda x: np.prod(np.stack([x @ u for u in us]), axis=0)
    )
    assert abs(quad - wick_moment(us, h)) < 1e-8


def test_cameron_martin_constant_and_exponential():
    h = 1.0
    mu = GaussianMeasure(1, h)
    rule = gauss_quadrature(1, h, 80)
    lhs, rhs = cameron_martin_check(lambda x: np.ones(x.shape[0]), [0.7], mu, rule)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-8)
    # g = exp(l_b), both sides must equal exp(h |b|^2 / 2) = e^(1/2)
    lhs, rhs = cameron_martin_check(
        lambda x: np.exp(x[:, 0]), [1.0], mu, rule
    )
    assert lhs == pytest.approx(math.exp(0.5), rel=1e-12)
    assert rhs == pytest.approx(math.exp(0.5), rel=1e-7)


def test_cameron_martin_quadratic(rng):
    h = 0.8
    mu = GaussianMeasure(2, h)
    rule = gauss_quadrature(2, h, 48)
    a = rng.normal(size=2)
    b = rng.normal(size=2)
    lhs, rhs = cameron_martin_check(lambda x: np.abs(x @ b) ** 2, a, mu, rule)
    assert rhs == pytest.approx(lhs, rel=1e-7)


def test_exp_difference_inequalities(rng):
    # quadrature of |e^{l_a} - e^{l_b}|^2 stays below both closed bounds
    h = 0.5
    for _ in range(8):
        a = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        b = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        # exact via the exponential integral: |e^u - e^v|^2 expands into
        # three exponential integrals
        val = (
            exp_integral(a + np.conj(a), h)
            + exp_integral(b + np.conj(b), h)
            - 2 * np.real(exp_integral(a + np.conj(b), h))
        ).real
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        ra = np.linalg.norm(np.real(a))
        rb = np.linalg.norm(np.real(b))
        d = np.linalg.norm(a - b)
        bound1 = 4 * h * d * (na + nb) * math.exp(2 * h * max(ra, rb) ** 2)
        bound2 = (
            math.exp(2 * h * max(ra, rb) ** 2)
            * h * d**2 * (1 + 4 * h * max(ra, rb) ** 2)
        )
        assert val <= bound1 * (1 + 1e-12)
        assert val <= bound2 * (1 + 1e-12)


def test_exponential_weighted_abs_moment_reduction(rng):
    # int e^{l_b} |l_a|^p dmu_h = e^{h|b|^2/2} int_R |sqrt(h)|a| v + h a.b|^p dmu_{R,1}(v);
    # the |.|^p kink defeats Gauss-Hermite, so both sides use adaptive quadrature
    from scipy.integrate import dblquad, quad

    h = 0.7
    a = rng.normal(size=2)
    b = rng.normal(size=2)
    L = 10 * math.sqrt(h)
    na = np.linalg.norm(a)
    ab = float(a @ b)
    for p in (1, 2, 3):
        def integrand(y, x):
            dens = (2 * math.pi * h) ** -1 * math.exp(-(x * x + y * y) / (2 * h))
            return math.exp(b[0] * x + b[1] * y) * abs(a[0] * x + a[1] * y) ** p * dens

        lhs, _ = dblquad(integrand, -L, L, -L, L, epsabs=1e-10, epsrel=1e-10)
        kink = -h * ab / (math.sqrt(h) * na)

        def reduced(v):
            return (
                abs(math.sqrt(h) * na * v + h * ab) ** p
                * math.exp(-v * v / 2) / math.sqrt(2 * math.pi)
            )

        rhs_i, _ = quad(reduced, -12, 12, points=[kink], epsabs=1e-12, limit=200)
        rhs = math.exp(0.5 * h * float(b @ b)) * rhs_i
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_sample_statistics_and_determinism():
    mu = GaussianMeasure(2, 0.5)
    n = 10**6
    pts = sample(mu, n, seed=123)
    band = 4.0 * math.sqrt(0.5 / n)
    assert np.all(np.abs(pts.mean(axis=0)) < band)
    a = np.array([0.6, -0.8])
    va = np.var(pts @ a)
    sigma = 0.5 * float(a @ a) * math.sqrt(2.0 / n)  # var of the variance estimate
    assert abs(va - 0.5 * float(a @ a)) < 4 * sigma
    again = sample(mu, n, seed=123)
    assert np.array_equal(pts, again)
    # chunked stream: a shorter draw is a prefix of a longer one
    short = sample(mu, 70000, seed=123)
    assert np.array_equal(short, pts[:70000])


def test_hermite_roots_agree_with_scipy_roots_hermite():
    # scipy is the reference, to bounds set from the measured worst cases over
    # these orders: nodes 7.8e-16 of the largest node (the Tricomi start
    # alone is 4.6e-4 off), weights 9.7e-16 absolute and 2.9e-12 relative
    # above 1e-200, even moments to degree 78 exact to 6.7e-15 relative
    # (scipy's own rule: 1.5e-13)
    from scipy.special import roots_hermite

    for n in [*range(1, 152), 160, 200, 300, 440]:
        t, w = _hermite_roots(n)
        t_ref, w_ref = roots_hermite(n)
        w_ref /= math.sqrt(math.pi)
        assert np.abs(t - t_ref).max() <= 2e-15 * np.abs(t_ref).max(), n
        assert np.abs(w - w_ref).max() <= 2e-15, n
        big = w_ref > 1e-200
        assert np.all(np.abs(w - w_ref)[big] <= 1e-11 * w_ref[big]), n
        for k in range(min(n, 40)):
            exact = math.prod(range(1, 2 * k, 2)) / 2**k  # int t^2k e^(-t^2) dt / sqrt(pi)
            assert abs(w @ t ** (2 * k) - exact) <= 2e-14 * exact, (n, k)


def test_hermite_roots_at_high_order_stay_in_linear_memory():
    # the chain route's z rule asks for orders in the thousands; a dense
    # Jacobi matrix of order 4000 alone would take 128 MB (measured peak of
    # the rule: 0.25 MB)
    import tracemalloc

    from scipy.special import roots_hermite

    tracemalloc.start()
    try:
        t, w = _hermite_roots.__wrapped__(4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    t_ref, w_ref = roots_hermite(4000)
    w_ref /= math.sqrt(math.pi)
    assert np.abs(t - t_ref).max() <= 2e-15 * np.abs(t_ref).max()
    assert np.abs(w - w_ref).max() <= 2e-15
    big = w_ref > 1e-200
    assert np.all(np.abs(w - w_ref)[big] <= 1e-11 * w_ref[big])


def test_tensor_rule_mixed_variances():
    nodes, w = tensor_rule([0.5, 2.0], 32)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w @ nodes[:, 0] ** 2 == pytest.approx(0.5, rel=1e-12)
    assert w @ nodes[:, 1] ** 2 == pytest.approx(2.0, rel=1e-12)


def test_phase_point_and_symplectic():
    X = PhasePoint([1.0, 0.0], [0.0, 2.0])
    Y = PhasePoint([0.0, 1.0], [3.0, 0.0])
    assert X.norm_sq == pytest.approx(5.0)
    assert symplectic(X, Y) == -symplectic(Y, X)
    # sigma(X, Y) = y.xi - x.eta
    assert symplectic(X, Y) == pytest.approx(
        float(Y.x @ X.xi - X.x @ Y.xi)
    )
    with pytest.raises(InputError):
        PhasePoint([1.0], [1.0, 2.0])
    assert bilinear_sq(np.array([1.0 + 1j, 0.0])) == pytest.approx(2j)
