import math

import numpy as np
import pytest
from scipy.special import iv

from gweyl import (
    InputError,
    SymbolDescriptor,
    make_constant,
    make_exponential,
    make_fourier_measure,
    make_lattice,
    make_quadratic,
    norm_NIm,
    norm_Nm,
    smooth_symbol,
    stochastic_ext_defect,
    verify_class,
)
from gweyl.gaussian import tensor_rule
from gweyl.symbols import (
    BESSEL_TOL, ChainData, LatticeSymbolParams, ZetaGauss, _bessel_coeffs, _scrambled_halton,
    quasi_ball,
)
from conftest import quadrature_smoothed


def test_exponential_metadata():
    F0 = make_exponential([0.0], [0.0])
    assert np.all(F0.class_eps == 0.0)
    z = np.zeros((3, 1))
    np.testing.assert_allclose(F0(z, z), 1.0)
    F = make_exponential([1.0, 0.0], [0.0, 2.0])
    np.testing.assert_allclose(F.class_eps, [1.0, 2.0])
    assert F.sup_norm == 1.0
    assert F.oracle["kind"] == "U"


def test_exponential_first_derivative_band(rng):
    # |d_{u_j} F| = |a_j| <= eps_j estimated by finite differences
    a, b = np.array([0.8, -1.4]), np.array([0.3, 0.9])
    F = make_exponential(a, b)
    bare = SymbolDescriptor(2, F.func, name="bare")  # force the FD route
    pts = rng.normal(size=(100, 4))
    from gweyl.symbols import _fd_mixed

    for j in range(2):
        alpha = np.zeros(2, int)
        alpha[j] = 1
        vals = _fd_mixed(bare, alpha, np.zeros(2, int), pts[:, :2], pts[:, 2:])
        sup = np.abs(vals).max()
        assert sup == pytest.approx(abs(a[j]), abs=1e-7)
        assert sup <= F.class_eps[j] + 1e-7


def test_quadratic_symbol():
    with pytest.raises(InputError):
        make_quadratic(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)
    Q0 = make_quadratic(np.zeros((2, 2)), 1.0)
    z = np.linspace(-1, 1, 5)[:, None]
    np.testing.assert_allclose(Q0(z, z), 1.0)
    # moment identity: int <TX, X> dmu_{2D, h/2} = (h/2) trace(T)
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4))
    T = A @ A.T / 4
    h = 0.7
    nodes, w = tensor_rule([h / 2] * 4, 16)
    quad = float(w @ np.einsum("ni,ij,nj->n", nodes, T, nodes))
    assert quad == pytest.approx(0.5 * h * np.trace(T), rel=1e-12)


def test_quadratic_growth_norm_is_bounded():
    # N_2 of the quadratic polynomial X -> <TX, X> stays bounded over the
    # sampled translates; N_1 of the same symbol is flagged as growing
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2))
    T = A @ A.T / 2
    phi = SymbolDescriptor(
        1,
        lambda z, zeta: np.einsum(
            "ni,ij,nj->n", np.concatenate([z, zeta], 1), T,
            np.concatenate([z, zeta], 1)
        ).astype(complex),
        name="quadratic-poly",
        growth="polynomial",
        poly_degree=2,
    )
    # the m=2 quotient flattens only for |Y| >> 1, so sample a wide ball
    est2 = norm_Nm(phi, 2, 0.5, n_samples=500, radius=150.0, seed=2)
    assert math.isfinite(est2.value) and not est2.unbounded
    # the top eigenvalue of T is the asymptotic quotient along its eigenvector
    top = float(np.linalg.eigvalsh(T)[-1])
    assert est2.value <= top * (1 + 0.05)
    est1 = norm_Nm(phi, 1, 0.5, n_samples=300, seed=2)
    assert est1.unbounded


def test_lattice_zero_coupling_is_constant():
    p = LatticeSymbolParams(d=1, g=(0.0, 0.0), t=1.0, V="cos")
    F = make_lattice(p, 2)
    z = np.random.default_rng(0).normal(size=(4, 2))
    np.testing.assert_allclose(F(z, z), 1.0)
    assert np.all(F.class_eps == 0.0)


def test_lattice_class_verification_three_sites():
    p = LatticeSymbolParams(d=1, g=(0.4, 0.25, 0.15), t=1.0, V="cos")
    F = make_lattice(p, 2)
    report = verify_class(F, 2, F.class_M, F.class_eps, sample_count=25, seed=3)
    assert report.passed
    assert report.n_indices == 3**6


def test_lattice_eps_monotone_in_coupling():
    base = (0.3, 0.2, 0.1)
    bigger = (0.35, 0.2, 0.1)
    e1 = make_lattice(LatticeSymbolParams(1, base, 1.0, "cos"), 2).class_eps
    e2 = make_lattice(LatticeSymbolParams(1, bigger, 1.0, "cos"), 2).class_eps
    assert e2[0] >= e1[0]


def test_lattice_custom_potential_requires_bounds():
    with pytest.raises(InputError):
        make_lattice(LatticeSymbolParams(1, (0.3, 0.2), 1.0, V=np.sin), 2)
    F = make_lattice(
        LatticeSymbolParams(1, (0.3, 0.2), 1.0, V=np.sin,
                            v_bounds=(1.0, 1.0, 1.0, 1.0), v_min=-1.0), 2
    )
    assert F.chain is None  # no closed Fourier route for a custom potential
    z = np.zeros((1, 2))
    assert F(z, z)[0] == pytest.approx(1.0)


@pytest.mark.parametrize("c", [0.0, 1e-120, 1e-20, 1.9e-15, 3e-15, 1e-10, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 60.0,
                               90.0, 120.0, 200.0, 300.0, 450.0, 600.0, 700.0])
def test_bessel_series_stops_on_the_tolerance(c):
    # scipy's iv is the reference: the same cut, I_0 to 2e-13 and every kept
    # coefficient to 1e-12 relative (measured worst: 5.4e-14 and 2.3e-13)
    coeffs = _bessel_coeffs(c, 0)
    nmax = len(coeffs) // 2
    ref = np.array([iv(abs(k), c) * (-1.0) ** k for k in range(-nmax, nmax + 1)])
    assert abs(coeffs[nmax] - ref[nmax]) <= 2e-13 * ref[nmax]
    assert np.all(np.abs(coeffs - ref) <= 1e-12 * np.abs(ref))
    assert iv(nmax, c) >= BESSEL_TOL * iv(0, c) > iv(nmax + 1, c)


def test_lattice_bond_overflowing_i0_is_an_input_error():
    # c = 2 t g_1 g_2 = 800 on bond 1, and I_0(800) overflows float64
    with pytest.raises(InputError, match="bond 1"):
        make_lattice(LatticeSymbolParams(1, (0.1, 20.0, 20.0), 1.0, "cos"), 2)


def test_chain_data_requires_real_palindromic_bonds():
    # the chain quantization route needs each bond factor real and even
    F = make_lattice(LatticeSymbolParams(d=1, g=(0.5, 0.35, 0.25), t=1.0, V="cos"), 2)
    data = F.chain
    assert all(c.dtype == np.float64 for c in data.bond_c)
    assert isinstance(data.site[0][0].coef, float)
    c = data.bond_c[0].copy()
    c[0] += 1e-3
    for bad in (c, data.bond_c[0] * (1 + 1e-3j)):
        with pytest.raises(InputError):
            ChainData(data.nsites, data.nmax, (bad, data.bond_c[1]), data.site)
    with pytest.raises(InputError):
        ZetaGauss(1j, 1.0, 1.0, 0.0)
    same = ChainData(data.nsites, data.nmax, tuple(b.astype(complex) for b in data.bond_c),
                     data.site)
    assert all(c.dtype == np.float64 for c in same.bond_c)


def test_norm_Nm_values():
    one = make_constant(1.0, 1)
    for m in (0, 1, 3):
        est = norm_Nm(one, m, 0.5, n_samples=100, seed=1)
        assert est.value == pytest.approx(1.0, rel=1e-9)
        assert not est.unbounded
    F = make_fourier_measure([(0.5, np.array([1.0]), np.array([0.0])),
                              (0.25, np.array([0.0]), np.array([2.0]))])
    est = norm_Nm(F, 0, 0.5, n_samples=100, seed=1)
    assert est.value <= 0.75 + 1e-9


def test_norm_Nm_linear_monomial_matches_exact():
    # F = l_a on configuration space: || F(. + Y) ||_{L^1} has the closed form
    # E|N(mu, s^2)| = s sqrt(2/pi) exp(-mu^2/2s^2) + mu (1 - 2 Phi(-mu/s))
    from scipy.stats import norm as normal

    h, a = 0.5, 1.3
    F = SymbolDescriptor(
        1, lambda z, zeta: (a * z[:, 0]).astype(complex), name="l_a",
        growth="polynomial", poly_degree=1,
    )
    s = abs(a) * math.sqrt(h / 2)

    def exact_quot(y):
        mu = a * y
        e = s * math.sqrt(2 / math.pi) * math.exp(-mu * mu / (2 * s * s)) \
            + mu * (1 - 2 * normal.cdf(-mu / s))
        return e / (1 + abs(y))

    exact = max(exact_quot(y) for y in np.linspace(-10, 10, 4001))
    est = norm_Nm(F, 1, h, n_samples=800, radius=10.0, seed=4)
    assert est.value <= exact * (1 + 1e-6)
    assert est.value >= 0.8 * exact


def test_norm_NIm_values():
    h = 0.5
    one = make_constant(1.0, 1)
    assert norm_NIm(one, [0], 2, h, n_samples=50) == pytest.approx(1.0, abs=1e-12)
    a, b = np.array([1.1, 0.4]), np.array([0.6, -0.9])
    F = make_exponential(a, b)
    m = 2
    got = norm_NIm(F, [0, 1], m, h, n_samples=50, seed=2)
    want = 1.0
    for j in range(2):
        want *= sum((math.sqrt(h) * abs(a[j])) ** k for k in range(m + 1)) * \
            sum((math.sqrt(h) * abs(b[j])) ** k for k in range(m + 1))
    assert got == pytest.approx(want, rel=1e-10)
    assert norm_NIm(F, [0], 1, h, n_samples=50) * 2.0 == pytest.approx(
        norm_NIm(make_fourier_measure([(2.0, a, b)]), [0], 1, h, n_samples=50),
        rel=1e-10,
    )


def test_verify_class_constant_and_exponential():
    one = make_constant(1.0, 2)
    rep = verify_class(one, 2, 1.0, np.zeros(2), sample_count=20)
    assert rep.passed
    F = make_exponential([1.2, -0.7], [0.5, 0.3])
    rep = verify_class(F, 2, 1.0, F.class_eps, sample_count=40)
    assert rep.passed
    assert rep.worst_ratio <= 1 + 1e-3


def test_verify_class_misdeclared_radii_fail():
    # |a_j| = |b_j| so every fully loaded direction sits on the max component
    F = make_exponential([1.2, -0.7], [-1.2, 0.7])
    rep = verify_class(F, 2, 1.0, F.class_eps / 2, sample_count=40)
    assert not rep.passed
    # the worst violation is 2^(|alpha|+|beta|) at the fully loaded index
    assert rep.worst_ratio == pytest.approx(2.0 ** (4 * F.dim), rel=1e-6)
    assert rep.worst_index == ((2, 2), (2, 2))


def test_verify_class_finite_difference_route():
    F = make_exponential([0.9], [0.4])
    bare = SymbolDescriptor(1, F.func, name="bare")
    rep = verify_class(bare, 2, 1.0, F.class_eps, sample_count=20,
                       support=[0], tol=5e-3)
    assert rep.method == "finite-difference"
    assert rep.passed


def test_stochastic_defect_cylinder_is_zero():
    F = make_exponential([1.0, 0.0, 0.0], [0.5, 0.0, 0.0])
    assert stochastic_ext_defect(F, [0], [0, 1, 2], 0.5, 2000, 7) == 0.0


def test_stochastic_defect_exponential_closed_form():
    h = 0.5
    a = np.array([0.8, -0.5, 0.3])
    b = np.array([0.2, 0.7, -0.4])
    F = make_exponential(a, b)
    inner, outer = [0], [0, 1, 2]
    keep = [1, 2]
    du = np.concatenate([a[keep], b[keep]])
    closed_sq = 2.0 - 2.0 * math.exp(-0.5 * h * float(du @ du))
    n = 200000
    mc = stochastic_ext_defect(F, inner, outer, h, n, seed=11)
    # empirical 4-sigma band from an independent replication spread
    reps = [stochastic_ext_defect(F, inner, outer, h, 20000, seed=s)
            for s in range(5)]
    spread = np.std(reps) / math.sqrt(n / 20000)
    assert abs(mc**2 - closed_sq) < 4 * max(2 * mc * spread, 1e-4)
    assert closed_sq <= min(2.0, h * float(du @ du)) + 1e-12


def test_stochastic_defect_lattice_tail_bound():
    h = 0.5
    t = 1.0
    g = np.array([0.5, 0.35, 0.25, 0.18])
    F = make_lattice(LatticeSymbolParams(1, tuple(g), t, "cos"), 2)
    inner, outer = [0, 1], [0, 1, 2, 3]
    n = 100000
    mc = stochastic_ext_defect(F, inner, outer, h, n, seed=13, p=1.0)
    gg = g[:-1] * g[1:]
    Msup = math.exp(2 * t * float(np.sum(gg)))
    mean_abs = math.sqrt(2 * h / math.pi)
    # zeta part: 1 - e^{-x} <= x, E zeta^2 = h; z part: Lipschitz bond flips
    dropped = [2, 3]
    zeta_part = t * h * float(np.sum(g[dropped] ** 2))
    z_part = 0.0
    for bnd, (j, k) in enumerate([(0, 1), (1, 2), (2, 3)]):
        endpoints = (j in dropped) + (k in dropped)
        z_part += 2 * gg[bnd] * endpoints * mean_abs
    bound = Msup * t * (zeta_part + z_part)
    reps = [stochastic_ext_defect(F, inner, outer, h, 10000, seed=s, p=1.0)
            for s in range(5)]
    spread = np.std(reps) / math.sqrt(n / 10000)
    assert mc <= bound + 3 * spread


def test_stochastic_defect_monotone_along_ladder():
    h = 0.5
    F = make_lattice(LatticeSymbolParams(1, (0.5, 0.35, 0.25, 0.18), 1.0, "cos"), 2)
    full = [0, 1, 2, 3]
    vals = [stochastic_ext_defect(F, list(range(k + 1)), full, h, 40000,
                                  seed=17, p=1.0)
            for k in range(3)]
    assert vals[0] >= vals[1] >= vals[2]


def test_eigen_actions_match_quadrature_at_random_points(rng):
    h = 0.5
    F = make_exponential([1.3, -0.6], [0.4, 0.8])
    closed = smooth_symbol(F, [0, 1], h / 2)
    generic = SymbolDescriptor(2, F.func, name="generic")
    quad = quadrature_smoothed(generic, [0, 1], h / 2, order=32)
    z = rng.normal(size=(20, 2))
    zeta = rng.normal(size=(20, 2))
    np.testing.assert_allclose(closed(z, zeta), quad(z, zeta), atol=1e-6)


def test_quasi_ball_is_deterministic_and_bounded():
    pts = quasi_ball(64, 4, 2.5, seed=9)
    again = quasi_ball(64, 4, 2.5, seed=9)
    np.testing.assert_array_equal(pts, again)
    assert np.all(np.linalg.norm(pts, axis=1) <= 2.5 + 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 11, 13])
def test_scrambled_halton_matches_scipy_bit_for_bit(d):
    # scipy's Owen-scrambled Halton is the reference the points reproduce
    from scipy.stats import qmc

    for n in (1, 5, 20, 64, 1000, 4097):
        for seed in (0, 9, 12345, 2**29 + 7):
            want = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            got = _scrambled_halton(n, d, seed)
            assert got.shape == (n, d)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
