"""Scalar kernels and their divided differences.

The one-variable kernels kappa_alpha and phi_p are plain functions of
eigenvalue ratios, which the weighted inner products and the chi^2
divergence evaluate on sigma's ratio grid; the two-variable kernels,
stable_powdiff and theta_p_log, are values on grids. All power-difference
quotients are evaluated through ``expm1``/``log1p`` so they stay accurate
when the two arguments nearly coincide, and every kernel carries an exact
degenerate branch. theta_p, the metric kernel whose inverse the Dirichlet
form pairs with the jump gradients and whose state derivative drives the
transport gradient, geodesics and Hessian, is one grid function of half
log-ratios (theta_p_log) that returns the kernel with both of its
log-partials: the tilts of the metric kernels cancel from all but the half
log-ratio, so a spectral frame (transport._Frame) makes one call for every
jump.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

# Degenerate-pair threshold for divided differences: below this relative
# separation the derivative branch is used (balances cancellation error
# against derivative-branch bias at double precision).
SAME_TOL = 1e-9

# Half log-ratio |log(x/y)| / 2, about a relative separation of 0.25, within
# which the partials of theta_p are summed from a series instead of the
# quotient rule, which loses about eps / separation to cancellation.
NEAR_TOL = 0.144


def _is_same(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(x - y) <= SAME_TOL * np.maximum(np.abs(x), np.abs(y))


def stable_powdiff(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x^a - y^a) / (x - y) for x, y > 0, with the a*m^(a-1) degenerate rule.

    Computed as hi^a * expm1(a*ell) / (lo-hi), free of cancellation at any
    separation: ell = log(lo/hi) is log1p((lo-hi)/hi) where lo >= hi/2 and
    lo - hi is exact, and log(lo/hi) below, where lo - hi loses lo.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    same = _is_same(x, y)
    m = 0.5 * (x + y)
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = lo - hi
        ell = np.where(lo < 0.5 * hi, np.log(lo / hi),
                       np.log1p(np.where(same, 0.0, diff) / np.where(hi > 0, hi, 1.0)))
        far = hi**a * np.expm1(a * ell) / np.where(same, 1.0, diff)
        deg = a * m ** (a - 1.0) if a != 1.0 else np.ones_like(m)
    return np.where(same, deg, far)


# ---------------------------------------------------------------------------
# One-variable kernels
# ---------------------------------------------------------------------------


def kappa_alpha(alpha: float, x: np.ndarray) -> np.ndarray:
    """Power-difference mean kernel on (0, inf), normalized to kappa(1) = 1.

    kappa_alpha(x) = [alpha/(alpha-1)] * (x^(alpha-1) - 1)/(x^alpha - 1),
    with the alpha in {0, 1} and x -> 1 limits filled in analytically.
    """
    alpha = float(alpha)
    x = np.asarray(x, dtype=float)
    ell = np.log(x)
    near = np.abs(ell) < 1e-8
    safe = np.where(near, 1.0, ell)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if alpha == 0.0:
            far = -np.expm1(-safe) / safe
        elif alpha == 1.0:
            far = safe / np.expm1(safe)
        else:
            far = (alpha / (alpha - 1.0)) * np.expm1((alpha - 1.0) * safe) / np.expm1(alpha * safe)
    return np.where(near, 1.0 - 0.5 * ell, far)


def phi_p(p: float, x: np.ndarray) -> np.ndarray:
    """phi_p(x) = (x - x^(1/p)) / ((p-1)(x^(1/p) - 1)) on (0, inf).

    Implemented from its own defining quotient (not via the power-difference
    identity) so the two stay independent cross-checks.
    """
    p = float(p)
    x = np.asarray(x, dtype=float)
    ell = np.log(x)
    near = np.abs(ell) < 1e-8
    safe = np.where(near, 1.0, ell)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        far = (x ** (1.0 / p) / (p - 1.0)) * np.expm1((1.0 - 1.0 / p) * safe) / np.expm1(safe / p)
    return np.where(near, 1.0 + 0.5 * ell, far)


# Taylor coefficients c_n = 2^(2n) B_2n / (2n)! of coth(h) - 1/h = h/3 - h^3/45
# + ..., so that coth h - a coth(a h) = sum_n c_n (1 - a^2n) h^(2n-1); six terms
# reach double precision for |h| <= NEAR_TOL.
_COTH = (1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0, -1.0 / 4725.0, 2.0 / 93555.0,
         -1382.0 / 638512875.0)
# theta_p_log's grids at h and at -h, stacked on a new first axis
_MIRROR = np.array([1.0, -1.0])


@lru_cache(maxsize=None)
def _theta_p_series(p: float) -> Tuple[float, ...]:
    """The weights c_n (1 - a^2n) / 2, a = p - 1, of theta_p_log's series for
    g / 2: fixed by p, so they are made once per p."""
    a = p - 1.0
    return tuple(0.5 * c * (1.0 - a ** (2 * n)) for n, c in enumerate(_COTH, 1))


def theta_p_log(p: float, h: np.ndarray,
                m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, x d/dx theta, y d/dy theta) of theta_p at x = e^(m+h), y = e^(m-h),
    on broadcastable h and m.

    theta_p(x, y) = (p-1)(x - y)/(x^(p-1) - y^(p-1)), the reciprocal of
    f_p^[1], is e^((1-a) m) q with a = p - 1 and q = a sinh h / sinh(a h),
    or its limit sinh h / h at p = 1 (theta_1 is the logarithmic mean), so
    tilting (x, y) to (e^t x, e^-t y) moves h alone. 2x d/dx theta =
    theta (1 - a + g) and 2y d/dy theta = theta (1 - a - g), g = coth h -
    a coth(a h). Within |h| <= NEAR_TOL g is summed from its odd Taylor
    series, and no digit is lost to cancellation; outside it x d/dx theta
    = theta (q e^((a-1) h) - 1) / expm1(-2h), the quotient rule in h, and
    y d/dy theta is the same expression at -h (1 - a - g cancels as |h|
    grows). Both partials come from one pass over the grids at h and -h,
    and g, odd in h, from one series over both.
    """
    p = float(p)
    a = p - 1.0
    b = 1.0 - a
    k = _theta_p_series(p)
    # both quotients are 0 / 0 at h = 0: q is 1 there, and the series below
    # gives the partials, so the quotient rule is not evaluated
    nz = h != 0.0
    top, bottom = (np.sinh(h), h) if a == 0.0 else (a * np.sinh(h), np.sinh(a * h))
    q = np.divide(top, bottom, out=np.ones_like(h, dtype=float), where=nz)
    theta = np.exp(b * m) * q
    # h, then -h, on a new first axis before all of theta's: the x- and the
    # y-partial
    hs = _MIRROR.reshape((2,) + (1,) * theta.ndim) * h
    far = np.divide(theta * (q * np.exp(-b * hs) - 1.0), np.expm1(-2.0 * hs), out=None, where=nz)
    h2 = h * h
    g = k[-1] * h2 + k[-2]
    for c in k[-3::-1]:
        g *= h2
        g += c
    g = (g * hs + 0.5 * b) * theta  # theta (1 - a +- g) / 2
    partials = np.where(np.abs(h) <= NEAR_TOL, g, far)
    return theta, partials[0], partials[1]
