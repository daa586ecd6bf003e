"""Reference formulas that only the tests use: each is a direct, slower or
independent form of something the library computes another way."""

import numpy as np

from qbeckner import linalg as la
from qbeckner import transport as tp
from qbeckner.errors import SingularState
from qbeckner.kernels import Kernel2, _is_same


def onsager_tensor(L, rho, p, nu1, nu2) -> float:
    """Riemannian metric g_{p,rho}(nu1, nu2) = <D^+ nu1, nu2> on tangents."""
    U1 = tp.onsager_pinv_apply(L, rho, p, nu1)
    return float(np.real(la.hs_inner(U1, nu2)))


def geodesic_hamiltonian(L, rho, U, p) -> float:
    """Half the kinetic form <U, D_{p,rho} U>, conserved along geodesics."""
    return 0.5 * float(np.real(la.hs_inner(tp.onsager_apply(L, rho, p, U), U)))


def theta_log_kernel() -> Kernel2:
    """Logarithmic mean (x - y)/(log x - log y), equal to x on the diagonal."""

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        same = _is_same(x, y)
        m = 0.5 * (x + y)
        hi = np.maximum(x, y)
        lo = np.minimum(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            ell = np.log1p(np.where(same, 0.0, lo - hi) / hi)
            far = (lo - hi) / np.where(same, 1.0, ell)
        return np.where(same, m, far)

    return Kernel2("theta_log", f=f, domain_min=0.0, allow_boundary=False)


def carlen_maas_apply(rho, omega, A):
    """Logarithmic-mean multiplication kernel (the p -> 1 limit object)."""
    lam, V = la.herm_eigh(rho)
    if np.min(lam) <= 0:
        raise SingularState("logarithmic-mean kernel needs a full-rank state")
    th = theta_log_kernel()
    a = np.exp(omega / 2.0) * lam
    b = np.exp(-omega / 2.0) * lam
    F = th.f(a[:, None], b[None, :])
    return V @ (F * (V.conj().T @ A @ V)) @ V.conj().T
