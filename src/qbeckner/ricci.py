"""Entropic curvature: Hessian of the p-divergence, curvature estimation,
and the interpolation/transport/contraction inequality chain."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import linalg as la
from . import transport as tp
from .dirichlet import dirichlet_form
from .entropy import p_divergence, relative_density
from .errors import NonPositiveCurvature, OptimizerDiverged
from .semigroup import DbcLindbladian, evolve


# Samples whose lowest generalized eigenvalues lie within TIE_TOL * max(1,
# |min|) of the minimum tie; the first of them is the worst sample. Its
# eigenvalues within the same band of kappa give the multiplicity.
TIE_TOL = 1e-12


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
    basis U_1..U_n, n = d^2 - 1, so that generalized eigenvalues of (H, G)
    bound the curvature.

    rho is one state (d, d), giving (n, n) matrices, or a stack of states
    (S, d, d), giving (S, n, n). The tangent space is the REAL span of the
    basis, so only the real symmetric part of each form acts on it. With the
    eigenframe gradients C_m = V† P [V_j, U_m] P V of the basis and
    <X, Y> = Re sum conj(X) Y over (j, a, c), every array here stays in the
    layout of transport._basis_rows, (S, a, m, j, c): row a of every C_mj
    side by side. Each form is one real product of float views
    (transport._real_gram) per row a, summed over the rows, and the frame's
    grids (theta, D, d1, d2) are laid out once per state to match:
      G      = <C_m, theta o C_n>, the Gram matrix <U_m, D_{p,rho} U_n>
               (as transport._basis_gram forms it for the path energy);
      second = Re(Phi† L_dual Phi) G: D U_n is trace-free, so it lies in the
               span of the basis, and <U_m, L†(D U_n)> needs only G;
      first  = the Daleckii-Krein contraction of theta_p with
               A = V† Q (L† rho) Q V, as matrix products: with the
               anti-Hermitian IA = inv o A (_Frame.gaps) and the tilted
               partials (d1, d2) of theta_p, its symmetric part is that of
               <C_m, theta o [IA, C_n] + D o C_n>, D = (d1 A_aa + d2 A_cc) / 2.
               At the near-ties, TA = ties o A adds
               (d1 o (TA C_n) + d2 o (C_n TA)) / 2: the mean of the partials
               at the pair's two ends. At p = 2, theta_2 = 1 has no state
               derivative, and this term is not formed: H = -second.
    The arrays take three slots of the workspace (a fourth at near-ties), each
    written in the order of the expressions above; H and G are new arrays.
    """
    d = L.d
    states = np.reshape(rho, (-1, d, d))
    fr, rows, R, Z = tp._basis_rows(L, states, p, count=3)  # Z: the product slot
    S, n = len(states), rows.shape[2]

    def laid(X):  # a frame grid (S, 1, K, a, c) in the rows' layout (S, a, 1, K, c)
        return np.ascontiguousarray(np.moveaxis(X, 3, 1))

    def gram(Y):  # <C_m, Y_n>, one real product per row a, summed over the rows
        return tp._real_gram(rows.reshape(S * d, n, -1),
                             Y.reshape(S * d, n, -1)).reshape(S, d, n, n).sum(axis=1)

    # M C_mj and C_mj M for every m and j, each one product per state into
    # out: the rows, or the columns, of all C_mj side by side
    def left(M, out):
        return np.matmul(M, rows.reshape(S, d, -1), out=out.reshape(S, d, -1)).reshape(rows.shape)

    def right(M, out):
        return np.matmul(rows.reshape(S, -1, d), M, out=out.reshape(S, -1, d)).reshape(rows.shape)

    theta = laid(fr.theta)
    G = gram(np.multiply(theta, rows, out=Z))
    Phi = tp._basis_frame(d)[1]
    H = -(np.real(Phi.conj().T @ L.dual_generator @ Phi) @ G)
    if fr.p != 2.0:  # theta_2 has no state derivative: at p = 2 first = 0 is not formed
        vecs = np.swapaxes(states, -1, -2).reshape(S, d * d)  # la.vec of each state
        Lrho = np.swapaxes((vecs @ L.dual_generator.T).reshape(S, d, d), -1, -2)
        QV = fr.Q @ fr.V[:, 0]
        A = la.dagger(QV) @ Lrho @ QV
        (ties, inv), (d1, d2) = fr.gaps, fr.partials
        IA = inv[:, 0] * A
        left(IA, R)
        R -= right(IA, Z)
        R *= theta
        Aii = np.diagonal(A, axis1=-2, axis2=-1).real[:, None, None]
        R += np.multiply(laid(0.5 * (d1 * Aii[..., :, None] + d2 * Aii[..., None, :])), rows,
                         out=Z)
        if ties.any():  # the two terms at once take a fourth slot
            TA, T = np.where(ties[:, 0], A, 0.0), tp._slots(4, rows.shape)[3]
            np.multiply(laid(d1), left(TA, Z), out=Z)
            Z += np.multiply(laid(d2), right(TA, T), out=T)
            R += np.multiply(0.5, Z, out=Z)
        H += gram(R)  # = first - second, bit for bit
    H, G = 0.5 * (H + np.swapaxes(H, -1, -2)), 0.5 * (G + np.swapaxes(G, -1, -2))
    return (H, G) if np.ndim(rho) == 3 else (H[0], G[0])


def _cholesky_reduce(H: np.ndarray, G: np.ndarray,
                     first: int) -> Tuple[np.ndarray, np.ndarray]:
    """(R^-1, R^-1 H R^-T) for each pair (H[i], G[i]), with G[i] = R R^T from
    one batched Cholesky factorization: the eigenpairs (lam, w) of the
    reduced matrix give the generalized eigenpairs (lam, R^-T w) of (H, G),
    normalized to v^T G v = 1. first is the sample index of H[0] in error
    messages."""
    R = tp._gram_cholesky(G, lambda i: f"sample {first + i}")
    Rinv = np.linalg.inv(R)
    return Rinv, Rinv @ H @ np.swapaxes(Rinv, -1, -2)


@dataclass(frozen=True)
class RicciEstimate:
    kappa: float
    samples: int
    worst_state: np.ndarray
    worst_direction: np.ndarray
    cond_G: float  # 2-norm cond(G) = cond(R^-1)^2 of the Gram matrix at worst_state
    # generalized eigenvalues at worst_state that tie kappa (TIE_TOL); above 1,
    # worst_direction is one of several that round-off chooses between
    multiplicity: int


def _samples(L: DbcLindbladian, num_states: int, seed: int) -> np.ndarray:
    """The states ricci_estimate samples, as a read-only stack drawn once per
    generator, num_states and seed: sigma first, then Hilbert-Schmidt random
    states mixed toward sigma with weights 0, .25, .5, .75 in turn."""
    return L.derived(("ricci_samples", num_states, seed),
                     lambda: _draw_samples(L, num_states, seed))


def _draw_samples(L: DbcLindbladian, num_states: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    weights = (0.0, 0.25, 0.5, 0.75)
    d = L.d
    samples = [L.sigma]  # the invariant state often carries the infimum
    for i in range(num_states - 1):
        w = weights[i % len(weights)]
        rho = la.herm((1.0 - w) * la.random_density(rng, d) + w * L.sigma)
        lam_min = np.min(np.linalg.eigvalsh(rho))
        if lam_min < 1e-8:
            rho = 0.98 * rho + 0.02 * np.eye(d) / d
        samples.append(rho)
    return np.array(samples)


def ricci_estimate(L: DbcLindbladian, p: float, num_states: int = 64,
                   seed: int = 0) -> RicciEstimate:
    """Sampled lower-bound estimate of the entropic curvature.

    For each sampled full-rank state (see _samples) the minimal generalized
    eigenvalue of the Hessian against the metric on trace-free directions is
    computed; the reported kappa is the minimum over samples, an upper bound
    on the true curvature infimum. Samples are evaluated in the blocks of
    transport._blocks, one hessian_matrix call each (48 samples at d = 4 make
    one block). The worst sample is the first whose eigenvalue ties the
    minimum (TIE_TOL), and its kappa, direction and multiplicity come from a
    full eigensolve of its Cholesky-reduced pair.
    """
    if num_states < 1:
        raise ValueError(f"num_states must be at least 1, got {num_states}")
    L.require_jumps()
    samples = _samples(L, num_states, seed)
    span, blocks = tp._blocks(L, num_states), []
    for start in span:
        H, G = hessian_matrix(L, samples[start:start + span.step], p)
        blocks.append(_cholesky_reduce(H, G, start))
    Rinv, M = (np.concatenate(parts) for parts in zip(*blocks))
    lowest = np.linalg.eigvalsh(M)[:, 0]
    floor = lowest.min()
    i = int(np.argmax(lowest <= floor + TIE_TOL * max(1.0, abs(floor))))
    vals, W = np.linalg.eigh(M[i])
    direction = np.tensordot(Rinv[i].T @ W[:, 0], tp._basis_frame(L.d)[0], axes=1)
    ties = int(np.sum(vals <= vals[0] + TIE_TOL * max(1.0, abs(vals[0]))))
    return RicciEstimate(float(vals[0]), num_states, samples[i].copy(), la.herm(direction),
                         float(np.linalg.cond(Rinv[i]) ** 2), ties)


# ---------------------------------------------------------------------------
# Inequality chain driven by a curvature lower bound
# ---------------------------------------------------------------------------


def _distance(L: DbcLindbladian, rho0: np.ndarray, rho1: np.ndarray, p: float,
              w_opts: tp.W2Opts, pair: str) -> float:
    """W_{2,p}(rho0, rho1), or OptimizerDiverged naming the pair and p."""
    W, path = tp.w2p_solve(L, rho0, rho1, p, w_opts)
    if not path.converged:
        raise OptimizerDiverged(f"W_{{2,p}} solve for {pair} at p = {p} stopped on {path.stop}")
    return W


def inequality_checks(L: DbcLindbladian, p: float, kappa: float,
                      states: Sequence[np.ndarray],
                      w_opts: tp.W2Opts = tp.W2Opts()) -> Dict[str, list]:
    """Evaluate the curvature-driven inequalities hwi, tcp and diameter on
    a list of states; they need kappa > 0.

    Every W-dependent check inherits the transport solver's discretization
    tolerance; slacks (rhs - lhs) are reported, not asserted. A solve that
    does not converge raises OptimizerDiverged.
    """
    if kappa <= 0:
        raise NonPositiveCurvature("checks need kappa > 0")
    report: Dict[str, list] = {"hwi": [], "tcp": [], "diameter": []}
    smin = L.sigma_min
    for i, rho in enumerate(states):
        W = _distance(L, rho, L.sigma, p, w_opts, f"state {i} and sigma")
        F = p_divergence(rho, L.sigma, p)
        E = dirichlet_form(L, relative_density(rho, L.sigma), p)
        rhs = (2.0 / p) * W * np.sqrt(max(E, 0.0)) - 0.5 * kappa * W * W
        report["hwi"].append({"lhs": F, "rhs": rhs, "slack": rhs - F})
        alpha = kappa * p / 2.0
        rhs = np.sqrt((p / alpha) * F)
        report["tcp"].append({"lhs": W, "rhs": rhs, "slack": rhs - W})
        bound = 8.0 * (smin ** (1.0 - p) - 1.0) / (kappa * p * (p - 1.0))
        report["diameter"].append({"lhs": W * W, "rhs": bound, "slack": bound - W * W})
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
        for i in range(0, len(states) - 1, 2):
            rho0, rho1 = states[i], states[i + 1]
            W0 = _distance(L, rho0, rho1, p, w_opts, f"states {i} and {i + 1}")
            for t in times:
                r0t = evolve(L, t, "schrodinger", rho0)
                r1t = evolve(L, t, "schrodinger", rho1)
                Wt = _distance(L, r0t, r1t, p, w_opts, f"states {i} and {i + 1} at t = {t}")
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
