import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbeckner import kernels as kn
from qbeckner import linalg as la
from qbeckner import semigroup as sg
from qbeckner import transport as tp

import oracles


def test_stable_powdiff_matches_naive_when_separated():
    x = np.array([3.0, 0.2, 7.5])
    y = np.array([1.0, 5.0, 0.01])
    for a in (0.5, -1.0, 1.7):
        naive = (x**a - y**a) / (x - y)
        assert np.allclose(kn.stable_powdiff(a, x, y), naive, rtol=1e-13)


def test_stable_powdiff_degenerate_rule():
    out = kn.stable_powdiff(0.5, np.array(4.0), np.array(4.0))
    assert out == pytest.approx(0.5 * 4.0 ** (-0.5), abs=0)
    # tiny separation stays accurate (expm1/log1p path, no cancellation)
    out = kn.stable_powdiff(0.5, np.array(4.0 + 1e-7), np.array(4.0))
    assert out == pytest.approx(0.5 * 4.0 ** (-0.5), rel=1e-7)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_kappa_alpha_bounds_and_normalization(alpha):
    xs = np.linspace(0.05, 8.0, 60)
    vals = kn.kappa_alpha(alpha, xs)
    assert np.all(vals >= 2.0 / (1.0 + xs) - 1e-12)
    assert np.all(vals <= (1.0 + xs) / (2.0 * xs) + 1e-12)
    assert kn.kappa_alpha(alpha, np.array(1.0)) == pytest.approx(1.0, abs=1e-12)
    # symmetry x kappa(x) = kappa(1/x)
    assert np.allclose(xs * vals, kn.kappa_alpha(alpha, 1.0 / xs), rtol=1e-10)


def test_kappa_special_orders():
    # alpha = 1 is the logarithmic-mean kernel, alpha = 2 the arithmetic one
    assert kn.kappa_alpha(1.0, np.array(2.0)) == pytest.approx(np.log(2.0))
    assert kn.kappa_alpha(2.0, np.array(3.0)) == pytest.approx(
        2.0 / 3.0 * (3.0 - 1.0) / (9.0 - 1.0) * 3, rel=1e-12)


def test_phi_p_equals_shifted_power_difference():
    # x^{-1} phi_p(x) = kappa_{1/p}(x); the two are implemented independently
    xs = np.linspace(0.05, 6.0, 37)
    for p in (1.2, 1.5, 1.9):
        lhs = kn.phi_p(p, xs) / xs
        rhs = kn.kappa_alpha(1.0 / p, xs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_phi_2_is_square_root():
    xs = np.linspace(0.1, 5.0, 21)
    assert np.allclose(kn.phi_p(2.0, xs), np.sqrt(xs), rtol=1e-10)


def test_theta_p_reciprocal_and_diagonal():
    fp = oracles.fp_divdiff_kernel(1.5)
    xs = np.linspace(0.2, 5.0, 9)
    ys = np.linspace(0.3, 4.0, 9)
    assert np.max(np.abs(oracles.theta_p_xy(1.5, xs, ys)[0] * fp.f(xs, ys) - 1.0)) <= 1e-13
    assert oracles.theta_p_xy(1.5, np.array(3.0), np.array(3.0))[0] == pytest.approx(3.0**0.5)


def _h_grid(kind, rng):
    """Half log-ratios (2, 3, 3): none within NEAR_TOL ("far"), all within it
    ("near", with h = 0, a near tie and both ends), or both ("mixed")."""
    tol = kn.NEAR_TOL
    if kind == "far":
        return rng.choice([-1.0, 1.0], (2, 3, 3)) * rng.uniform(1.0001 * tol, 3.0, (2, 3, 3))
    if kind == "near":
        h = rng.uniform(-tol, tol, (2, 3, 3))
        h[0, 0, 0], h[1, 1, 1], h[0, 1, 2], h[1, 2, 0] = 0.0, 3e-9, tol, -tol
        return h
    h = rng.uniform(-3.0, 3.0, (2, 3, 3))
    h[0, 0, 0], h[1, 1, 1], h[0, 1, 2] = 0.0, 3e-9, 0.1  # h = 0, a near tie, within NEAR_TOL
    return h


@pytest.mark.parametrize("kind", ["far", "near", "mixed"])
@pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
def test_theta_p_log_broadcasts(p, kind):
    # h on a (J, d, d) grid against m on (1, d, d), as the frame calls it,
    # and m on (2, J, d, d), of higher rank than h: each entry is the value
    # at that pair alone, bit for bit, on either branch of the partials
    rng = np.random.default_rng(7)
    h = _h_grid(kind, rng)
    assert (np.abs(h) <= kn.NEAR_TOL).any() == (kind != "far")
    assert (np.abs(h) <= kn.NEAR_TOL).all() == (kind == "near")
    for m in (rng.uniform(-12.0, 2.0, (1, 3, 3)), rng.uniform(-12.0, 2.0, (2, 2, 3, 3))):
        grid = kn.theta_p_log(p, h, m)
        shape = np.broadcast_shapes(h.shape, m.shape)
        assert all(g.shape == shape for g in grid)
        hb, mb = np.broadcast_to(h, shape), np.broadcast_to(m, shape)
        for i in np.ndindex(shape):
            one = kn.theta_p_log(p, hb[i], mb[i])
            assert all(g[i] == o for g, o in zip(grid, one)), i


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_theta_partials_match_finite_differences(p):
    def theta(x, y):
        return oracles.theta_p_xy(p, x, y)[0]

    h = 1e-7
    for (x, y) in [(2.3, 0.9), (0.4, 1.7), (1.0, 1.0 + 3e-7), (2.0, 2.0)]:
        x, y = np.array(x), np.array(y)
        fd_x = (theta(x + h, y) - theta(x - h, y)) / (2 * h)
        fd_y = (theta(x, y + h) - theta(x, y - h)) / (2 * h)
        _, dx, dy = oracles.theta_p_xy(p, x, y)
        assert dx == pytest.approx(float(fd_x), rel=2e-5)
        assert dy == pytest.approx(float(fd_y), rel=2e-5)
        # theta_p is symmetric: its y-partial is its x-partial at (y, x)
        assert dy == pytest.approx(float(oracles.theta_p_xy(p, y, x)[1]), rel=1e-14)


@pytest.mark.parametrize("p", [1.05, 1.5, 1.9])
def test_theta_partials_match_mpmath_near_ties(p):
    # relative separations 1e-8 to 1e-1 on both sides of x, at three scales:
    # both partials to 1e-13 of their own mpmath values. The quotient rule
    # theta (1 - theta x^(p-2)) / (x - y) loses about eps / separation there
    # (2.5e-10 at separation 3e-6); the series branch measured 8e-16
    for x in (0.02, 1.3, 70.0):
        for t in np.logspace(-8.0, -1.0, 15):
            for y in (x * (1.0 + t), x * (1.0 - t)):
                _, dx, dy = oracles.theta_p_xy(p, np.array(x), np.array(y))
                for got, e in zip((dx, dy), _exact_kernels(p, x, y)[3:]):
                    assert abs(float(got) - float(e)) <= 1e-13 * abs(float(e)), (x, y, got, e)


def test_generic_divided_difference_chain_rule_value():
    dd = oracles.divided_difference(lambda x: x ** 2.0, lambda x: 2.0 * x)
    assert dd.f(np.array(3.0), np.array(1.0)) == pytest.approx(4.0)
    assert dd.f(np.array(2.0), np.array(2.0)) == pytest.approx(4.0)


def test_theta_log_is_logarithmic_mean():
    th = oracles.theta_log_kernel()
    assert th.f(np.array(4.0), np.array(1.0)) == pytest.approx(3.0 / np.log(4.0))
    assert th.f(np.array(2.5), np.array(2.5)) == pytest.approx(2.5)


def _exact_kernels(p, x, y, t=0.0):
    """stable_powdiff(p - 1), f_p^[1], and theta_p with its partials at the
    float inputs (x, y), in 100-digit mpmath; with a tilt t, at (e^t x,
    e^-t y), the partials weighted by e^t and e^-t as the frame's are. When
    a = p - 1 and x/y - 1 are both near 1e-16, the partials lose about 48
    digits to cancellation, in x^a - y^a and then in the quotient rule: at
    50 digits the reference partial at p = 1 + 4e-16, x = 10, y = x (1 +
    1e-15) is off by 3e-6."""
    import mpmath as mp

    with mp.workdps(100):
        a, up = mp.mpf(p) - 1, mp.exp(mp.mpf(t))
        x, y = mp.mpf(x) * up, mp.mpf(y) / up
        if x == y:
            th_d = (1 - a) * x ** (-a) / 2
            return (a * x ** (a - 1), x ** (a - 1), x ** (1 - a), up * th_d, th_d / up)
        D = x ** a - y ** a
        return (D / (x - y), D / (a * (x - y)),
                a * (x - y) / D,
                up * a * (D - (x - y) * a * x ** (a - 1)) / D ** 2,
                a * ((x - y) * a * y ** (a - 1) - D) / D ** 2 / up)


_LOG_SEP = st.one_of(st.just(None), st.floats(-16.0, 12.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 2.0, exclude_min=True),
       log_scale=st.floats(-12.0, 2.0), log_sep=_LOG_SEP, swap=st.booleans())
def test_kernels_match_mpmath_at_every_scale(p, log_scale, log_sep, swap):
    # x = 10^log_scale and y = x (1 + 10^log_sep), y = x when log_sep is None:
    # scales 1e-12 to 1e2, separations 0 to 1e12. Bounds: 1e-12 relative on
    # values, and 1e-13 on partials relative to max(|partial|, |value| / max(x, y)),
    # the scale of a derivative (at p = 2 the theta partials vanish). Over 3,000
    # random cases the largest errors were 4.1e-16 on stable_powdiff and f_p^[1],
    # 3.9e-15 on theta, which carries the rounding of log x and log y, and
    # 4.0e-15 on partials; the quotient rule alone, used down to a relative
    # separation of 1e-6, reached 3.8e-10 there. With the old scale floor
    # max(1, |x|, |y|) values were off by up to 33% and partials by 67% below
    # scale 1e-8. Separations beyond 2x take stable_powdiff's log(lo/hi)
    # branch: log1p((lo - hi)/hi) was off by 1.9e-9 at a = 0.05, x = 1, y = 1e-10.
    x = 10.0 ** log_scale
    y = x if log_sep is None else x * (1.0 + 10.0 ** log_sep)
    if swap:
        x, y = y, x
    X, Y = np.array(x), np.array(y)
    got = [kn.stable_powdiff(p - 1.0, X, Y), oracles.fp_divdiff_kernel(p).f(X, Y),
           *oracles.theta_p_xy(p, X, Y)]
    exact = [float(v) for v in _exact_kernels(p, x, y)]
    for i, (g, e) in enumerate(zip(got, exact)):
        if i < 3:
            assert abs(float(g) - e) <= 1e-12 * abs(e), (i, float(g), e)
        else:
            ref = max(abs(e), abs(exact[2]) / max(x, y))
            assert abs(float(g) - e) <= 1e-13 * ref, (i, float(g), e)


@pytest.fixture(scope="module")
def wide_tilts():
    """A qutrit model with sigma ratio 1e10: Bohr frequencies up to log 1e10,
    tilts w/2p up to 11.5 as p -> 1."""
    sigma = np.diag([1.0, 1e-5, 1e-10]).astype(complex) / (1.0 + 1e-5 + 1e-10)
    return sg.random_dbc(sigma, 3, 1, seed=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.floats(1.0, 2.0, exclude_min=True), log_scale=st.floats(-12.0, 2.0),
       log_seps=st.tuples(_LOG_SEP, _LOG_SEP))
def test_frame_kernels_match_mpmath_with_wide_tilts(wide_tilts, p, log_scale, log_seps):
    # the frame's theta and tilt-weighted partials at a state whose lam =
    # 10^log_scale (1, 1 + 10^s1, 1 / (1 + 10^s2)): scales 1e-12 to 1e2,
    # separations up to 1e12 and tilts up to 11.5, against theta_p at the
    # tilted pairs (e^t lam_x, e^-t lam_y) in mpmath. Bounds: 1e-13 relative
    # on theta, and on partials relative to max(|partial|, theta / lam), the
    # scale of the log-partial lam d/dlam theta. Over 3,000 random tilted
    # pairs in the frame's arithmetic the largest errors were 4.3e-15 on theta
    # and 4.1e-15 on partials; theta_p_grid, which theta_p_log replaced,
    # failed these bounds on the tilted pairs (theta 1.5e-11 off).
    L = wide_tilts
    s1, s2 = (0.0 if s is None else 10.0 ** s for s in log_seps)
    lam = 10.0 ** log_scale * np.array([1.0, 1.0 + s1, 1.0 / (1.0 + s2)])
    s = (p - 1.0) / (2.0 * p)
    fr = tp._Frame(L, la.herm(L.sigma_power(s) @ np.diag(lam) @ L.sigma_power(s)), p)
    d1, d2 = fr.partials
    for (j, x, y), th in np.ndenumerate(fr.theta):
        t = L.jump_stack[1][j] / (2.0 * p)
        exact = [float(v) for v in _exact_kernels(p, fr.lam[x], fr.lam[y], t)[2:]]
        assert abs(th - exact[0]) <= 1e-13 * exact[0], (j, x, y, th, exact)
        for got, e, lx in ((d1[j, x, y], exact[1], fr.lam[x]), (d2[j, x, y], exact[2], fr.lam[y])):
            assert abs(got - e) <= 1e-13 * max(abs(e), exact[0] / lx), (j, x, y, got, e)


def test_theta_p_log_partials_vanish_at_p_2():
    # theta_2 = 1: both partials are exactly 0, inside NEAR_TOL and outside
    h = np.array([0.0, 1e-9, -0.1, kn.NEAR_TOL, 0.2, -3.0, 25.0])
    theta, dx, dy = kn.theta_p_log(2.0, h, np.linspace(-20.0, 5.0, h.size))
    assert np.all(theta == 1.0)
    assert np.all(dx == 0.0) and np.all(dy == 0.0)
