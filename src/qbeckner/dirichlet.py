"""p-Dirichlet (entropy-production) forms and the carre du champ.

Both routes to E_p return a plain float: finite, not below
-1e-9 max(1, |E_p|) (else NotPsd), and clamped at 0.
"""

from __future__ import annotations

import numpy as np

from . import entropy as ent
from . import linalg as la
from . import transport as tp
from .errors import NotPsd, NotSymmetric
from .semigroup import DbcLindbladian

P_ONE_BRANCH = ent.P_ONE_BRANCH
NEG_TOL = 1e-9


def _check_psd(X: np.ndarray) -> None:
    w = np.linalg.eigvalsh(la.herm(X))
    if np.min(w) < -1e-10 * max(1.0, np.max(np.abs(w))):
        raise NotPsd(f"argument has eigenvalue {np.min(w):.3e}")


def _finalize(value: float) -> float:
    if not np.isfinite(value):
        raise NotPsd(f"Dirichlet form is not finite: {value}")
    if value < -NEG_TOL * max(1.0, abs(value)):
        raise NotPsd(f"Dirichlet form came out negative: {value:.3e}")
    return max(value, 0.0)


def dirichlet_form(L: DbcLindbladian, X: np.ndarray, p: float) -> float:
    """Entropy-production form E_{p,L}(X) for X >= 0 and p >= 1.

    For p > 1 this is -(phat p / 4) <I_{phat,p}(X), L X>_KMS with
    phat = p/(p-1); at p = 1 (|p-1| below the branch cut) the analytic limit
    -(1/4) <log Gamma X - log sigma, L X>_KMS is used instead.
    """
    _check_psd(X)
    LX = L.apply(X)
    # sigma's powers are read off the generator's sigma_eig; they
    # equal the ones ent.power_operator would recompute
    half = L.sigma_power(0.5)
    if abs(p - 1.0) < P_ONE_BRANCH:
        # log(Gamma_sigma X) with an eigenvalue floor: boundary zeros of X
        # contribute 0 * log 0 terms that are paired against L X below.
        GX = la.herm(half @ X @ half)
        g, Vg = la.herm_eigh(GX)
        g = np.maximum(g, 1e-300)
        log_GX = (Vg * np.log(g)) @ Vg.conj().T
        val = -0.25 * np.real(_kms(half, log_GX - L.sigma_log, LX))
        return _finalize(float(val))
    phat = p / (p - 1.0)
    # I_{phat,p}(X) = Gamma^(-1/phat)(|Gamma^(1/p) X|^(p/phat))
    gp = L.sigma_power(1.0 / (2.0 * p))
    gq = L.sigma_power(-1.0 / (2.0 * phat))
    I_phat_p = gq @ la.abs_power(gp @ X @ gp, p / phat) @ gq
    val = -(phat * p / 4.0) * np.real(_kms(half, I_phat_p, LX))
    return _finalize(float(val))


def _kms(half: np.ndarray, X: np.ndarray, Y: np.ndarray) -> complex:
    """KMS inner product tr(sigma^(1/2) X† sigma^(1/2) Y), given sigma^(1/2)."""
    return complex(np.trace(half @ X.conj().T @ half @ Y))


def dirichlet_form_representation(L: DbcLindbladian, X: np.ndarray,
                                  p: float) -> float:
    """E_{p,L}(X) = (p^2/4) sum_j <dj X, [rho]_j^-1 dj X> for X > 0 and p in
    (1, 2], rho = sigma^(1/2) X sigma^(1/2), on the spectral frame: its Y is
    sigma^(1/2p) X sigma^(1/2p), and its theta is 1/f_p^[1] on the tilted spectra."""
    L.require_jumps()
    if np.linalg.eigvalsh(la.herm(X))[0] <= 0:
        raise NotPsd("representation route needs strictly positive X")
    half = L.sigma_power(0.5)
    fr = tp._Frame(L, half @ X @ half, p)
    C = fr.eig(fr.grad(X), L.sigma_power(1.0 / (2.0 * p)))
    val = (p * p / 4.0) * np.sum(np.abs(C) ** 2 / fr.theta)
    return _finalize(float(val))


def representation_check(L: DbcLindbladian, X: np.ndarray, p: float) -> float:
    """Relative gap between the defining and jump-representation routes."""
    d_def = dirichlet_form(L, X, p)
    d_rep = dirichlet_form_representation(L, X, p)
    return abs(d_def - d_rep) / (1.0 + d_def)


def _check_symmetric(L: DbcLindbladian) -> None:
    if not L.tracial:
        raise NotSymmetric("carre du champ machinery needs sigma = I/d")


def carre_du_champ(L: DbcLindbladian, X: np.ndarray,
                   Y: np.ndarray | None = None) -> np.ndarray:
    """Gradient form of a symmetric semigroup,
    Gamma(X, Y) = (L(X†Y) - X† L(Y) - (L X)† Y) / 2."""
    _check_symmetric(L)
    if Y is None:
        Y = X
    Xd = X.conj().T
    return 0.5 * (L.apply(Xd @ Y) - Xd @ L.apply(Y) - L.apply(X).conj().T @ Y)
