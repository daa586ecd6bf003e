"""Entropic curvature: Hessian of the p-divergence, curvature estimation,
and the interpolation/transport/contraction inequality chain."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from . import linalg as la
from . import transport as tp
from .dirichlet import dirichlet_form
from .entropy import p_divergence, relative_density
from .errors import NonPositiveCurvature
from .semigroup import DbcLindbladian, evolve


def _traceless_hermitian_basis(d: int) -> List[np.ndarray]:
    """Orthonormal basis of trace-free Hermitian matrices (d^2 - 1 elements)."""
    basis = []
    for a in range(d):
        for b in range(a + 1, d):
            X = np.zeros((d, d), dtype=complex)
            X[a, b] = X[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(X)
            Y = np.zeros((d, d), dtype=complex)
            Y[a, b] = -1j / np.sqrt(2.0)
            Y[b, a] = 1j / np.sqrt(2.0)
            basis.append(Y)
    for k in range(1, d):
        Z = np.zeros((d, d), dtype=complex)
        for a in range(k):
            Z[a, a] = 1.0
        Z[k, k] = -float(k)
        basis.append(Z / np.sqrt(k * (k + 1.0)))
    return basis


def hessian_form(L: DbcLindbladian, rho: np.ndarray, p: float, U: np.ndarray) -> float:
    """Riemannian Hessian quadratic form of the p-divergence at rho.

    Hess[U, U] = sum_j <dj U, K_{rho, L† rho}^j [dj U]> - <U, L†(D_{p,rho} U)>,
    where K_{rho,A}^j is the derivative of [rho]_{p,w_j} along A, averaged
    over its two partial sides.
    """
    fr = tp._Frame(L, rho, p)
    C = fr.eig(fr.grad(U), fr.P)
    first = 0.5 * float(np.real(la.hs_inner(fr.state_derivative(C), L.apply_dual(rho))))
    second = float(np.real(la.hs_inner(U, L.apply_dual(fr.onsager(U)))))
    return first - second


def hessian_matrix(L: DbcLindbladian, rho: np.ndarray,
                   p: float) -> Tuple[np.ndarray, np.ndarray]:
    """(H, G): Hessian and metric Gram matrices on the trace-free Hermitian
    basis, so that generalized eigenvalues of (H, G) bound the curvature."""
    basis = np.array(_traceless_hermitian_basis(L.d))
    fr = tp._Frame(L, rho, p)
    C = fr.eig(fr.grad(basis), fr.P)
    # the bilinear form of hessian_form's first term on every basis pair
    A = la.dagger(fr.V) @ fr.Q @ L.apply_dual(rho) @ fr.Q @ fr.V
    first = 0.5 * np.einsum("mnab,ab->mn", fr.dd(fr.kernel, C[:, None], C[None, :]), A)
    Phi = la.vec_columns(basis)
    DPhi = la.vec_columns(fr.onsager(basis))
    H = first - Phi.conj().T @ L.dual_generator @ DPhi
    G = Phi.conj().T @ DPhi
    # the tangent space is the REAL span of the Hermitian basis, so only the
    # real symmetric parts of the forms act on it
    return np.real(la.herm(H)), np.real(la.herm(G))


@dataclass(frozen=True)
class RicciEstimate:
    kappa: float
    samples: int
    worst_state: np.ndarray
    worst_direction: np.ndarray

    def rayleigh(self, L: DbcLindbladian, p: float) -> float:
        num = hessian_form(L, self.worst_state, p, self.worst_direction)
        den = float(np.real(la.hs_inner(
            self.worst_direction,
            tp.onsager_apply(L, self.worst_state, p, self.worst_direction))))
        return num / den


def ricci_estimate(L: DbcLindbladian, p: float, num_states: int = 64,
                   seed: int = 0) -> RicciEstimate:
    """Sampled lower-bound estimate of the entropic curvature.

    For each sampled full-rank state (Hilbert-Schmidt random, mixed toward
    sigma with weights 0, .25, .5, .75) the minimal generalized eigenvalue of
    the Hessian against the metric on trace-free directions is computed; the
    reported kappa is the minimum over samples, an upper bound on the true
    curvature infimum.
    """
    L.require_jumps()
    rng = np.random.default_rng(seed)
    weights = (0.0, 0.25, 0.5, 0.75)
    d = L.d
    basis = _traceless_hermitian_basis(d)
    kappa = np.inf
    worst = None
    samples = [L.sigma]  # the invariant state often carries the infimum
    for i in range(max(num_states - 1, 0)):
        w = weights[i % len(weights)]
        rho = la.herm((1.0 - w) * la.random_density(rng, d) + w * L.sigma)
        lam_min = np.min(np.linalg.eigvalsh(rho))
        if lam_min < 1e-8:
            rho = 0.98 * rho + 0.02 * np.eye(d) / d
        samples.append(rho)
    for rho in samples:
        H, G = hessian_matrix(L, rho, p)
        vals, vecs = scipy.linalg.eigh(H, G)
        if vals[0] < kappa:
            kappa = float(vals[0])
            direction = sum(float(c) * T for c, T in zip(vecs[:, 0], basis))
            worst = (rho, la.herm(direction))
    return RicciEstimate(kappa, num_states, worst[0], worst[1])


# ---------------------------------------------------------------------------
# Inequality chain driven by a curvature lower bound
# ---------------------------------------------------------------------------


def inequality_checks(L: DbcLindbladian, p: float, kappa: float,
                      states: Sequence[np.ndarray],
                      checks: Sequence[str] = ("hwi", "tcp", "diameter"),
                      alpha_p: Optional[float] = None,
                      w_opts: tp.W2Opts = tp.W2Opts()) -> Dict[str, list]:
    """Evaluate curvature-driven inequalities on a list of states.

    Every W-dependent check inherits the transport solver's discretization
    tolerance; slacks (rhs - lhs) are reported, not asserted.
    """
    if any(c in ("tcp", "diameter", "beckner_from_ricci") for c in checks) \
            and kappa <= 0:
        raise NonPositiveCurvature("checks need kappa > 0")
    report: Dict[str, list] = {c: [] for c in checks}
    smin = L.sigma_min
    for rho in states:
        W, _ = tp.w2p_solve(L, rho, L.sigma, p, w_opts)
        F = p_divergence(rho, L.sigma, p).value
        if "hwi" in checks:
            E = dirichlet_form(L, relative_density(rho, L.sigma), p).value
            rhs = (2.0 / p) * W * np.sqrt(max(E, 0.0)) - 0.5 * kappa * W * W
            report["hwi"].append({"lhs": F, "rhs": rhs, "slack": rhs - F})
        if "tcp" in checks:
            alpha = kappa * p / 2.0
            rhs = np.sqrt((p / alpha) * F)
            report["tcp"].append({"lhs": W, "rhs": rhs, "slack": rhs - W})
        if "diameter" in checks:
            bound = 8.0 * (smin ** (1.0 - p) - 1.0) / (kappa * p * (p - 1.0))
            report["diameter"].append({"lhs": W * W, "rhs": bound,
                                       "slack": bound - W * W})
    if "beckner_from_ricci" in checks:
        if alpha_p is None:
            raise NonPositiveCurvature("beckner_from_ricci needs alpha_p")
        report["beckner_from_ricci"].append(
            {"lhs": kappa * p / 2.0, "rhs": alpha_p,
             "slack": alpha_p - kappa * p / 2.0})
    return report


def dynamic_checks(L: DbcLindbladian, p: float, kappa: float, mode: str,
                   states: Sequence[np.ndarray] = (),
                   directions: Sequence[np.ndarray] = (),
                   times: Sequence[float] = (0.1, 0.5, 1.0),
                   w_opts: tp.W2Opts = tp.W2Opts()) -> List[dict]:
    """Semigroup-dynamics consequences of the curvature bound.

    contraction       : W(P_t† rho0, P_t† rho1) <= e^(-kappa t) W(rho0, rho1)
    gradient_estimate : ||grad P_t U||^2_{p,rho} <= e^(-2 kappa t)
                        ||grad U||^2_{p, P_t† rho}
    intertwining      : residual ||dj P_t - e^(-kappa t) P_t dj|| per jump j
    """
    out: List[dict] = []
    if mode == "contraction":
        pairs = [(states[i], states[i + 1]) for i in range(0, len(states) - 1, 2)]
        for rho0, rho1 in pairs:
            W0, _ = tp.w2p_solve(L, rho0, rho1, p, w_opts)
            for t in times:
                r0t = evolve(L, t, "schrodinger", rho0)
                r1t = evolve(L, t, "schrodinger", rho1)
                Wt, _ = tp.w2p_solve(L, r0t, r1t, p, w_opts)
                rhs = np.exp(-kappa * t) * W0
                out.append({"t": t, "lhs": Wt, "rhs": rhs, "slack": rhs - Wt})
        return out
    if mode == "gradient_estimate":
        for rho in states:
            for U in directions:
                for t in times:
                    PtU = evolve(L, t, "heisenberg", U)
                    rho_t = evolve(L, t, "schrodinger", rho)
                    lhs = tp.gradient_norm_sq(L, rho, p, PtU)
                    rhs = np.exp(-2.0 * kappa * t) * tp.gradient_norm_sq(L, rho_t, p, U)
                    out.append({"t": t, "lhs": lhs, "rhs": rhs,
                                "slack": rhs - lhs})
        return out
    if mode == "intertwining":
        for t in times:
            Pt = L.heisenberg_propagator(t)
            for j, (V, _) in enumerate(L.jumps):
                Dj = la.left_super(V) - la.right_super(V)
                resid = la.frob(Dj @ Pt - np.exp(-kappa * t) * Pt @ Dj)
                out.append({"t": t, "j": j, "residual": float(resid)})
        return out
    raise ValueError(f"unknown mode {mode!r}")
