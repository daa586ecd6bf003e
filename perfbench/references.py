"""Reference values computed apart from qbeckner, for the outputs checks.

Everything here uses numpy or mpmath directly on the model data (sigma and
the jump operators); nothing calls into the library's estimators, kernels or
solvers.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues of the generator below this share of its largest modulus are
# taken as its kernel.
KERNEL_TOL = 1e-9
# Decimal digits of the two-point reduction's mpmath search.
DIGITS = 30


def spectral_gap(generator: np.ndarray) -> float:
    """Smallest -Re(lambda) over the nonzero eigenvalues of the generator."""
    lam = np.linalg.eigvals(generator)
    scale = float(np.max(np.abs(lam)))
    rest = lam[np.abs(lam) > KERNEL_TOL * scale]
    return float(np.min(-rest.real))


def trace_norm(A: np.ndarray) -> float:
    H = 0.5 * (A + A.conj().T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(H))))


def _sigma_power(sigma: np.ndarray, s: float) -> np.ndarray:
    w, U = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    return (U * w ** s) @ U.conj().T


def _vec_left_minus_right(V: np.ndarray) -> np.ndarray:
    """Matrix of X -> V X - X V on column-stacked vectors."""
    eye = np.eye(V.shape[0])
    return np.kron(eye, V) - np.kron(V.T, eye)


def w22(sigma: np.ndarray, jumps, rho0: np.ndarray, rho1: np.ndarray) -> float:
    """W_{2,2}(rho0, rho1) = sqrt(<Delta, D^+ Delta>) with
    D = sum_j dj^dagger (sigma^(1/2) . sigma^(1/2)) dj and dj X = V_j X - X V_j.

    At p = 2 the multiplication kernel is the constant Gamma_sigma, so the
    geodesic action is this quadratic form and needs no optimizer.
    """
    half = _sigma_power(sigma, 0.5)
    K = np.kron(half.T, half)
    D = sum(dj.conj().T @ K @ dj
            for dj in (_vec_left_minus_right(V) for V, _ in jumps))
    delta = (rho1 - rho0).reshape(-1, order="F")
    U = np.linalg.pinv(0.5 * (D + D.conj().T), rcond=1e-12, hermitian=True) @ delta
    return float(np.sqrt(max(np.real(np.vdot(delta, U)), 0.0)))


def p_divergence(rho: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """F_p(rho) = (tr (sigma^((1-p)/2p) rho sigma^((1-p)/2p))^p - 1) / (p (p-1))."""
    g = _sigma_power(sigma, (1.0 - p) / (2.0 * p))
    rho = rho / np.trace(rho).real
    A = g @ rho @ g
    w = np.clip(np.linalg.eigvalsh(0.5 * (A + A.conj().T)), 0.0, None)
    return float((np.sum(w ** p) - 1.0) / (p * (p - 1.0)))


def two_point_beckner(p: float, d: int) -> float:
    """Beckner constant of the flat depolarizing semigroup (sigma = I/d,
    unit rate) through its two-point reduction, in mpmath.

    The constant is the infimum over theta in {1/d, ..., (d-1)/d} and x in
    [0, 1/theta] of (p^2/4) theta (x-1)(x^(p-1) - y^(p-1)) / (theta psi(x)
    + (1-theta) psi(y)), with y = (1 - theta x)/(1 - theta) and
    psi(u) = u^p - 1 - p(u-1). The ratio tends to p/2 at x = 1.
    """
    # imported here, not at the top, so that set-up time counts only what a
    # user of the library pays
    import mpmath

    with mpmath.workdps(DIGITS):
        P = mpmath.mpf(p)

        def psi(u):
            return u ** P - 1 - P * (u - 1)

        def ratio(x, theta):
            y = (1 - theta * x) / (1 - theta)
            den = theta * psi(x) + (1 - theta) * psi(y)
            num = theta * (x - 1) * (x ** (P - 1) - y ** (P - 1))
            return P * P / 4 * num / den

        best = P / 2
        for k in range(1, d):
            theta = mpmath.mpf(k) / d
            hi = 1 / theta
            grid = [hi * i / 400 for i in range(401)]
            vals = [(ratio(x, theta), x) for x in grid if abs(x - 1) > mpmath.mpf(10) ** -6]
            _, x0 = min(vals)
            lo_x, hi_x = max(x0 - hi / 400, 0), min(x0 + hi / 400, hi)
            # golden-section refinement of the bracketing grid cell
            g = (mpmath.sqrt(5) - 1) / 2
            a, b = lo_x, hi_x
            c, e = b - g * (b - a), a + g * (b - a)
            fc, fe = ratio(c, theta), ratio(e, theta)
            for _ in range(120):
                if fc < fe:
                    b, e, fe = e, c, fc
                    c = b - g * (b - a)
                    fc = ratio(c, theta)
                else:
                    a, c, fc = c, e, fe
                    e = a + g * (b - a)
                    fe = ratio(e, theta)
            best = min(best, fc, fe, min(vals)[0])
        return float(best)
