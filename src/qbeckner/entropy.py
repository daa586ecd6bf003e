"""Weighted norms, power operators, entropies, divergences and variances.

The sigma-weighted p-norm is ||X||_{p,sigma} = tr(|sigma^(1/2p) X sigma^(1/2p)|^p)^(1/p);
everything else in this module is built on top of it and on the powers and
the logarithm of sigma. Each public function decomposes sigma once
(linalg.full_rank_eigh, which raises SingularState for a sigma that is not
faithful) and reads every function of sigma off those eigenpairs. Every
scalar evaluator returns a plain float.
F_p, chi^2, the Umegaki entropy, the sandwiched entropy at p > 1, the
entropy functional and the q-variance clamp a round-off value in
[-1e-10, 0) to 0. `umegaki` is the Umegaki relative entropy;
`relative_entropies` gives the sandwiched Renyi ("sandwiched", order p) and
the max ("max") relative entropies.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import linalg as la
from .errors import ZeroExponent
from .kernels import kappa_alpha

P_ONE_BRANCH = 1e-4  # |p-1| below this uses the analytic p -> 1 limits

Eig = Tuple[np.ndarray, np.ndarray]  # sigma's eigenvalues w and eigenvectors U


def _clamp(value: float) -> float:
    if value < -1e-10:
        return value  # caller decides; genuine negativity is a bug upstream
    return max(value, 0.0)


def _power(eig: Eig, r: float) -> np.ndarray:
    """sigma^r = U w^r U† from sigma's eigenpairs."""
    w, U = eig
    return (U * w**r) @ U.conj().T


def _norm(X: np.ndarray, eig: Eig, p: float) -> float:
    """||X||_{p,sigma} for finite p from sigma's eigenpairs."""
    if p <= 0:
        raise ZeroExponent("p must be positive")
    half = _power(eig, 1.0 / (2.0 * p))
    sv = np.linalg.svd(half @ X @ half, compute_uv=False)
    return float(np.sum(sv**p) ** (1.0 / p))


def _density(rho: np.ndarray, eig: Eig) -> np.ndarray:
    """Gamma_sigma^{-1}(rho) from sigma's eigenpairs."""
    ihalf = _power(eig, -0.5)
    return ihalf @ rho @ ihalf


def weighted_p_norm(X: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """sigma-weighted p-(quasi)norm; p = inf gives the operator norm."""
    if np.isinf(p):
        return float(np.max(np.linalg.svd(np.asarray(X, dtype=complex),
                                          compute_uv=False)))
    return _norm(X, la.full_rank_eigh(sigma), p)


def relative_density(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Gamma_sigma^{-1}(rho) = sigma^(-1/2) rho sigma^(-1/2)."""
    return _density(rho, la.full_rank_eigh(sigma))


def power_operator(X: np.ndarray, sigma: np.ndarray, q: float, p: float) -> np.ndarray:
    """I_{q,p}(X) = Gamma^(-1/q)(|Gamma^(1/p) X|^(p/q))."""
    if p == 0 or q == 0:
        raise ZeroExponent("power operator needs nonzero exponents")
    eig = la.full_rank_eigh(sigma)
    gp = _power(eig, 1.0 / (2.0 * p))
    gq = _power(eig, -1.0 / (2.0 * q))
    inner = la.abs_power(gp @ X @ gp, p / q)
    return gq @ inner @ gq


def entropy_functional(X: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Ent_{p,sigma}(X) for X >= 0 and p >= 1: the weighted-norm entropy

    tr(A^p (log A^p - log sigma)) - ||X||^p log ||X||^p with A = Gamma^(1/p) X.
    """
    w, U = eig = la.full_rank_eigh(sigma)
    half = _power(eig, 1.0 / (2.0 * p))
    A = half @ X @ half
    a, V = la.herm_eigh(A)
    a = np.maximum(a, 0.0)
    pos = a > 0.0
    norm_p = float(np.sum(a**p))
    # tr(A^p log A^p) = p * sum a^p log a
    term1 = p * float(np.sum(a[pos] ** p * np.log(a[pos])))
    log_sigma = (U * np.log(w)) @ U.conj().T
    Ap = (V * a**p) @ V.conj().T
    term2 = float(np.real(np.trace(Ap @ log_sigma)))
    ent = term1 - term2 - (norm_p * np.log(norm_p) if norm_p > 0 else 0.0)
    return _clamp(ent)


def umegaki(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr(rho log rho - rho log sigma)."""
    w, U = la.full_rank_eigh(sigma)
    r, _ = la.herm_eigh(rho)
    r = np.maximum(r, 0.0)
    pos = r > 0.0
    s_log = (U * np.log(w)) @ U.conj().T
    return _clamp(float(np.sum(r[pos] * np.log(r[pos])) - np.real(np.trace(rho @ s_log))))


def relative_entropies(rho: np.ndarray, sigma: np.ndarray, kind: str,
                       p: float | None = None) -> float:
    """Sandwiched Renyi entropy of order p (p = inf is the max entropy), or
    max-relative entropy."""
    eig = la.full_rank_eigh(sigma)
    if kind == "sandwiched":
        if p is None or p <= 0 or p == 1.0:
            raise ValueError("sandwiched entropy needs p in (0,1) or (1,inf)")
        if not np.isinf(p):
            phat = p / (p - 1.0)
            val = phat * np.log(_norm(_density(rho, eig), eig, p))
            return _clamp(val) if p > 1 else val
    elif kind != "max":
        raise ValueError(f"unknown relative entropy kind {kind!r}")
    rel = _density(rho, eig)
    return float(np.log(np.max(np.linalg.eigvalsh(la.herm(rel)))))


def p_divergence(rho: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Normalized noncommutative L_p divergence

    F_{p,sigma}(rho) = (||Gamma^{-1} rho||_{p,sigma}^p - 1) / (p (p - 1)),
    interpolating the variance (p = 2) and relative entropy (p -> 1).
    """
    if abs(p - 1.0) < P_ONE_BRANCH:
        return umegaki(rho, sigma)
    eig = la.full_rank_eigh(sigma)
    norm = _norm(_density(rho, eig), eig, p)
    return _clamp((norm**p - 1.0) / (p * (p - 1.0)))


def q_variance(Y: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """Var_{q,sigma}(Y) = ||Y||_{2,sigma}^2 - ||Y||_{q,sigma}^2 for q in [1,2)."""
    if not 1.0 <= q < 2.0:
        raise ValueError("q must lie in [1, 2)")
    eig = la.full_rank_eigh(sigma)
    return _clamp(_norm(Y, eig, 2.0) ** 2 - _norm(Y, eig, q) ** 2)


def chi2_power_difference(rho: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Quadratic divergence <rho - sigma, R_sigma^{-1} kappa(Delta)(rho - sigma)>
    with kappa the power-difference kernel of exponent 1/p."""
    w, U = la.full_rank_eigh(sigma)
    D = U.conj().T @ (rho - sigma) @ U
    weights = kappa_alpha(1.0 / p, w[:, None] / w[None, :]) / w[None, :]
    return _clamp(float(np.real(np.sum(weights * np.abs(D) ** 2))))


def sandwich_constant(p: float, c: float) -> float:
    """k_p(c) = (c^p - 1 - p(c-1)) / (p (c-1)^2 (p-1)) of the two-sided chi^2
    comparison, evaluated by series for c near 1 (the limit is 1/2 for every p)."""
    h = c - 1.0
    if abs(h) < 1e-6:
        kp = 0.5 + (p - 2.0) * h / 6.0 + (p - 2.0) * (p - 3.0) * h * h / 24.0
    else:
        kp = (c**p - 1.0 - p * h) / (p * h * h * (p - 1.0))
    return float(kp)
