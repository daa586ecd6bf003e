"""Transport metric: multiplication kernels, Onsager operator, distances.

The metric kernel of a full-rank state is the noncommutative analog of
multiplication by the relative density to the power 2 - p. It defines the
Onsager operator D_{p,rho} = sum_j dj† ([rho]_{p,w_j} dj .), the Riemannian
tensor on traceless directions, a Benamou-Brenier style discretized distance,
and Hamiltonian geodesic shooting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np
from scipy.optimize import minimize

from . import linalg as la
from .errors import KernelComponent, LeftPositiveCone, NoJumps, SingularState
from .kernels import (
    Kernel2,
    fp_divdiff_kernel,
    theta_log_kernel,
    theta_p_kernel,
)
from .semigroup import DbcLindbladian

TRACE_TOL = 1e-10


def _hconj(p: float) -> float:
    """Holder conjugate p / (p - 1)."""
    return p / (p - 1.0)


class MetricKernel:
    """Multiplication kernel [rho]_{p,w} and its inverse, evaluated spectrally.

    apply(A)  = Gamma^(1/phat) theta_p(e^(w/2p) Y, e^(-w/2p) Y)[Gamma^(1/phat) A]
    with Y = Gamma^(-1/phat)(rho); solve(A) inverts apply exactly through the
    reciprocal divided-difference kernel. At p = 2 this is Gamma_sigma.
    """

    def __init__(self, rho: np.ndarray, sigma: np.ndarray, p: float,
                 omega: float = 0.0):
        la.check_full_rank(sigma)
        self.p = float(p)
        self.omega = float(omega)
        phat = _hconj(self.p)
        s, U = la.herm_eigh(sigma)
        self._s_pow = (U * s ** (1.0 / (2.0 * phat))) @ U.conj().T
        self._s_ipow = (U * s ** (-1.0 / (2.0 * phat))) @ U.conj().T
        Y = la.herm(self._s_ipow @ rho @ self._s_ipow)
        lam, V = la.herm_eigh(Y)
        if np.min(lam) <= 0.0:
            raise SingularState("metric kernel needs a full-rank state")
        self.lam = lam
        self.V = V
        self._theta = theta_p_kernel(self.p)
        self._fp = fp_divdiff_kernel(self.p)
        a = np.exp(self.omega / (2.0 * self.p)) * lam
        b = np.exp(-self.omega / (2.0 * self.p)) * lam
        self._F = self._theta.f(a[:, None], b[None, :])
        self._a, self._b = a, b

    def apply(self, A: np.ndarray) -> np.ndarray:
        inner = self._s_pow @ A @ self._s_pow
        tilted = self.V.conj().T @ inner @ self.V
        out = self.V @ (self._F * tilted) @ self.V.conj().T
        return self._s_pow @ out @ self._s_pow

    def solve(self, A: np.ndarray) -> np.ndarray:
        inner = self._s_ipow @ A @ self._s_ipow
        tilted = self.V.conj().T @ inner @ self.V
        out = self.V @ (tilted / self._F) @ self.V.conj().T
        return self._s_ipow @ out @ self._s_ipow

    def quad_inverse(self, A: np.ndarray) -> float:
        """<A, [rho]^{-1} A>, the single-jump action density."""
        inner = self._s_ipow @ A @ self._s_ipow
        tilted = self.V.conj().T @ inner @ self.V
        return float(np.real(np.sum(np.abs(tilted) ** 2 / self._F)))

    def matrix(self) -> np.ndarray:
        """Dense superoperator of apply()."""
        G = la.sandwich_super(self._s_pow, self._s_pow)
        W = np.kron(self.V.conj(), self.V)
        mid = (W * self._F.flatten(order="F")) @ W.conj().T
        return G @ mid @ G


def carlen_maas_apply(rho: np.ndarray, omega: float, A: np.ndarray) -> np.ndarray:
    """Logarithmic-mean multiplication kernel (the p -> 1 limit object)."""
    lam, V = la.herm_eigh(rho)
    if np.min(lam) <= 0:
        raise SingularState("logarithmic-mean kernel needs a full-rank state")
    th = theta_log_kernel()
    a = np.exp(omega / 2.0) * lam
    b = np.exp(-omega / 2.0) * lam
    F = th.f(a[:, None], b[None, :])
    return V @ (F * (V.conj().T @ A @ V)) @ V.conj().T


# ---------------------------------------------------------------------------
# Onsager operator
# ---------------------------------------------------------------------------


def _kernels_for(L: DbcLindbladian, rho: np.ndarray, p: float) -> List[MetricKernel]:
    L.require_jumps()
    return [MetricKernel(rho, L.sigma, p, omega) for (_, omega) in L.jumps]


def onsager_apply(L: DbcLindbladian, rho: np.ndarray, p: float,
                  U: np.ndarray) -> np.ndarray:
    """D_{p,rho} U = sum_j dj† ([rho]_{p,w_j} dj U)."""
    kernels = _kernels_for(L, rho, p)
    out = np.zeros((L.d, L.d), dtype=complex)
    for (V, _), K in zip(L.jumps, kernels):
        dU = V @ U - U @ V
        KdU = K.apply(dU)
        Vd = V.conj().T
        out += Vd @ KdU - KdU @ Vd
    return out


def onsager_matrix(L: DbcLindbladian, rho: np.ndarray, p: float) -> np.ndarray:
    """Dense superoperator of the Onsager operator."""
    kernels = _kernels_for(L, rho, p)
    eye = np.eye(L.d)
    M = np.zeros((L.d ** 2, L.d ** 2), dtype=complex)
    for (V, _), K in zip(L.jumps, kernels):
        Dj = la.left_super(V) - la.right_super(V)
        M += Dj.conj().T @ K.matrix() @ Dj
    return M


def onsager_pinv_apply(L: DbcLindbladian, rho: np.ndarray, p: float,
                       nu: np.ndarray, check_trace: bool = True) -> np.ndarray:
    """Solve D_{p,rho} U = nu on the trace-free subspace."""
    if check_trace and abs(np.trace(nu)) > TRACE_TOL * max(1.0, la.frob(nu)):
        raise KernelComponent(f"input has trace component {np.trace(nu):.3e}")
    M = onsager_matrix(L, rho, p)
    w, Q = la.herm_eigh(la.herm(M), check=False)
    cutoff = 1e-12 * max(float(np.max(w)), 1e-300)
    winv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    x = Q @ (winv * (Q.conj().T @ la.vec(nu)))
    U = la.unvec(x, L.d)
    return la.traceless_part(la.herm(U)) if la.hermiticity_residual(nu) < 1e-9 else la.traceless_part(U)


def onsager_tensor(L: DbcLindbladian, rho: np.ndarray, p: float,
                   nu1: np.ndarray, nu2: np.ndarray) -> float:
    """Riemannian metric g_{p,rho}(nu1, nu2) = <D^+ nu1, nu2> on tangents."""
    U1 = onsager_pinv_apply(L, rho, p, nu1)
    return float(np.real(la.hs_inner(U1, nu2)))


def grad_flow_residual(L: DbcLindbladian, rho: np.ndarray, p: float) -> float:
    """Relative residual of D_{p,rho}(dF_p/drho) + L† rho = 0.

    Zero residual certifies that the dual semigroup is the gradient flow of
    the p-divergence in the metric induced by the Onsager operator.
    """
    phat = _hconj(p)
    s, U = la.herm_eigh(L.sigma)
    s_ipow = (U * s ** (-1.0 / (2.0 * phat))) @ U.conj().T
    Y = la.herm(s_ipow @ rho @ s_ipow)
    Ypow = la.matrix_power_hermitian(Y, p - 1.0)
    dF = (1.0 / (p - 1.0)) * (s_ipow @ Ypow @ s_ipow)
    lhs = onsager_apply(L, rho, p, dF)
    rhs = -la.apply_super(L.dual_generator, rho)
    return la.frob(lhs - rhs) / max(la.frob(rhs), 1e-300)


# ---------------------------------------------------------------------------
# Momentum-field parameterization with adjoint pairing built in
# ---------------------------------------------------------------------------


def _pairing(jumps) -> List[int]:
    out = []
    for j, (V, om) in enumerate(jumps):
        match = None
        for k, (W, nu) in enumerate(jumps):
            if abs(nu + om) <= 1e-9 * (1.0 + abs(om)) and \
                    la.frob(W - V.conj().T) <= 1e-9 * (1.0 + la.frob(V)):
                match = k
                break
        if match is None:
            raise NoJumps("jump list lacks adjoint pairing")
        out.append(match)
    return out


class _FieldCodec:
    """Packs a pairing-symmetric momentum field (N steps x J jumps) into a
    real vector. Pair slots carry one free complex matrix (the partner is
    -B†); self-paired slots carry an anti-Hermitian matrix iH."""

    def __init__(self, jumps, N: int, d: int):
        self.N = N
        self.d = d
        self.J = len(jumps)
        self.pair = _pairing(jumps)
        self.free_pairs = [j for j in range(self.J) if self.pair[j] > j]
        self.selfs = [j for j in range(self.J) if self.pair[j] == j]
        self.per_step = 2 * d * d * len(self.free_pairs) + d * d * len(self.selfs)
        self.size = N * self.per_step

    def _herm_unpack(self, x: np.ndarray) -> np.ndarray:
        d = self.d
        H = np.zeros((d, d), dtype=complex)
        H[np.diag_indices(d)] = x[:d]
        idx = d
        for a in range(d):
            for b in range(a + 1, d):
                H[a, b] = x[idx] + 1j * x[idx + 1]
                H[b, a] = x[idx] - 1j * x[idx + 1]
                idx += 2
        return H

    def _herm_pack(self, H: np.ndarray) -> np.ndarray:
        d = self.d
        x = np.zeros(d * d)
        x[:d] = np.real(np.diag(H))
        idx = d
        for a in range(d):
            for b in range(a + 1, d):
                x[idx] = H[a, b].real
                x[idx + 1] = H[a, b].imag
                idx += 2
        return x

    def _herm_pack_grad(self, M: np.ndarray) -> np.ndarray:
        """Gradient components for df = tr(dH M): off-diagonal basis matrices
        touch two entries of M, hence the factor 2."""
        d = self.d
        x = np.zeros(d * d)
        x[:d] = np.real(np.diag(M))
        idx = d
        for a in range(d):
            for b in range(a + 1, d):
                x[idx] = 2.0 * M[a, b].real
                x[idx + 1] = 2.0 * M[a, b].imag
                idx += 2
        return x

    def decode(self, x: np.ndarray) -> np.ndarray:
        d, J = self.d, self.J
        B = np.zeros((self.N, J, d, d), dtype=complex)
        for k in range(self.N):
            chunk = x[k * self.per_step:(k + 1) * self.per_step]
            off = 0
            for j in self.free_pairs:
                n = d * d
                P = (chunk[off:off + n] + 1j * chunk[off + n:off + 2 * n]).reshape(d, d)
                B[k, j] = P
                B[k, self.pair[j]] = -P.conj().T
                off += 2 * n
            for j in self.selfs:
                H = self._herm_unpack(chunk[off:off + d * d])
                B[k, j] = 1j * H
                off += d * d
        return B

    def encode(self, B: np.ndarray) -> np.ndarray:
        d = self.d
        x = np.zeros(self.size)
        for k in range(self.N):
            off = k * self.per_step
            for j in self.free_pairs:
                n = d * d
                x[off:off + n] = B[k, j].real.ravel()
                x[off + n:off + 2 * n] = B[k, j].imag.ravel()
                off += 2 * n
            for j in self.selfs:
                x[off:off + d * d] = self._herm_pack(la.herm(-1j * B[k, j]))
                off += d * d
        return x

    def gradient(self, G: np.ndarray) -> np.ndarray:
        """Real gradient from full-field Wirtinger gradients G[k, j]
        (df = sum 2 Re tr(dB† G) over unconstrained variations)."""
        d = self.d
        out = np.zeros(self.size)
        for k in range(self.N):
            off = k * self.per_step
            for j in self.free_pairs:
                Geff = G[k, j] - G[k, self.pair[j]].conj().T
                n = d * d
                out[off:off + n] = 2.0 * Geff.real.ravel()
                out[off + n:off + 2 * n] = 2.0 * Geff.imag.ravel()
                off += 2 * n
            for j in self.selfs:
                K = G[k, j]
                # df = 2 Im tr(dH K) = tr(dH M) with M = -i (K - K†) Hermitian
                M = -1j * (K - K.conj().T)
                out[off:off + d * d] = self._herm_pack_grad(M)
                off += d * d
        return out


# ---------------------------------------------------------------------------
# Discretized Benamou-Brenier distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class W2Opts:
    N: int = 20
    max_iters: int = 5000
    tol: float = 1e-7
    floor: float = 1e-10
    penalty0: float = 1e4
    endpoint_tol: float = 1e-6
    selftest: bool = True


@dataclass(frozen=True)
class TransportPath:
    states: Tuple[np.ndarray, ...]
    momenta: np.ndarray  # (N, J, d, d)
    action_per_step: Tuple[float, ...]
    action: float
    endpoint_residual: float
    continuity_residual: float
    converged: bool


class _ActionProblem:
    def __init__(self, L: DbcLindbladian, rho0: np.ndarray, rho1: np.ndarray,
                 p: float, opts: W2Opts):
        L.require_jumps()
        self.L = L
        self.rho0 = la.herm(rho0)
        self.rho1 = la.herm(rho1)
        self.p = float(p)
        self.opts = opts
        self.N = opts.N
        self.h = 1.0 / opts.N
        self.d = L.d
        self.codec = _FieldCodec(L.jumps, self.N, self.d)
        phat = _hconj(self.p)
        s, U = la.herm_eigh(L.sigma)
        self.s_pow = (U * s ** (1.0 / (2.0 * phat))) @ U.conj().T
        self.s_ipow = (U * s ** (-1.0 / (2.0 * phat))) @ U.conj().T
        self.fp = fp_divdiff_kernel(self.p)
        self.weight = opts.penalty0

    def march(self, B: np.ndarray) -> List[np.ndarray]:
        gammas = [self.rho0]
        g = self.rho0
        for k in range(self.N):
            step = np.zeros((self.d, self.d), dtype=complex)
            for j, (V, _) in enumerate(self.L.jumps):
                Vd = V.conj().T
                step += Vd @ B[k, j] - B[k, j] @ Vd
            g = la.herm(g + self.h * step)
            gammas.append(g)
        return gammas

    def _floored(self, g: np.ndarray) -> np.ndarray:
        w, V = la.herm_eigh(g, check=False)
        return (V * np.maximum(w, self.opts.floor)) @ V.conj().T

    def value_and_grad(self, x: np.ndarray):
        L, d, h = self.L, self.d, self.h
        B = self.codec.decode(x)
        gammas = self.march(B)
        value = 0.0
        G = np.zeros_like(B)          # Wirtinger gradients per (k, j)
        S = [None] * self.N           # d(action_k)/d(gamma_bar_k)
        for k in range(self.N):
            gbar = self._floored(0.5 * (gammas[k] + gammas[k + 1]))
            Y = la.herm(self.s_ipow @ gbar @ self.s_ipow)
            lam, V = la.herm_eigh(Y, check=False)
            lam = np.maximum(lam, 1e-300)
            Sk = np.zeros((d, d), dtype=complex)
            for j, (Vj, omega) in enumerate(L.jumps):
                a = np.exp(omega / (2.0 * self.p)) * lam
                b = np.exp(-omega / (2.0 * self.p)) * lam
                F = self.fp.f(a[:, None], b[None, :])
                C = self.s_ipow @ B[k, j] @ self.s_ipow
                Ct = V.conj().T @ C @ V
                value += h * float(np.real(np.sum(F * np.abs(Ct) ** 2)))
                # direct momentum gradient: h [gbar]^{-1} B
                inv = V @ (F * Ct) @ V.conj().T
                G[k, j] += h * (self.s_ipow @ inv @ self.s_ipow)
                # kernel state-derivative, via partial divided differences
                W1 = la.partial_dd_tensor(self.fp, 1, a, b)
                W2 = la.partial_dd_tensor(self.fp, 2, a, b)
                G1 = np.einsum("abc,bc,ac->ab", W1, Ct, Ct.conj())
                G2 = np.einsum("abc,ab,ac->bc", W2, Ct, Ct.conj())
                M1 = V @ G1.T @ V.conj().T
                M2 = V @ G2.T @ V.conj().T
                Sk += np.exp(omega / (2.0 * self.p)) * (self.s_ipow @ M1 @ self.s_ipow)
                Sk += np.exp(-omega / (2.0 * self.p)) * (self.s_ipow @ M2 @ self.s_ipow)
            S[k] = la.herm(Sk)
        gap = gammas[self.N] - self.rho1
        value += self.weight * la.frob(gap) ** 2
        # accumulate d(value)/d(gamma_l) and chain back to the momenta
        T = [np.zeros((d, d), dtype=complex) for _ in range(self.N + 1)]
        for k in range(self.N):
            T[k] += 0.5 * h * S[k]
            T[k + 1] += 0.5 * h * S[k]
        T[self.N] += 2.0 * self.weight * gap
        # d(gamma_l)/d(B_kj) chain: per unconstrained slot the Hermitized
        # march contributes (h/2) [V_j, .]; the codec folds in the partner.
        suffix = np.zeros((d, d), dtype=complex)
        for k in range(self.N - 1, -1, -1):
            suffix += T[k + 1]
            for j, (Vj, _) in enumerate(L.jumps):
                G[k, j] += 0.5 * h * (Vj @ suffix - suffix @ Vj)
        return value, self.codec.gradient(G)

    def initial_field(self) -> np.ndarray:
        """Linear state path with Riemannian-optimal momenta per step."""
        B = np.zeros((self.N, self.codec.J, self.d, self.d), dtype=complex)
        delta = self.rho1 - self.rho0
        for k in range(self.N):
            t = (k + 0.5) / self.N
            gbar = self._floored((1.0 - t) * self.rho0 + t * self.rho1)
            try:
                U = onsager_pinv_apply(self.L, gbar, self.p,
                                       la.traceless_part(delta), check_trace=False)
                kernels = _kernels_for(self.L, gbar, self.p)
                for j, (Vj, _) in enumerate(self.L.jumps):
                    B[k, j] = kernels[j].apply(Vj @ U - U @ Vj)
            except SingularState:
                pass
        return self.codec.encode(B)


def w2p_solve(L: DbcLindbladian, rho0: np.ndarray, rho1: np.ndarray, p: float,
              opts: W2Opts = W2Opts()) -> Tuple[float, TransportPath]:
    """Transport distance W_{2,p} by minimizing the discretized action.

    States are eliminated: the curve is marched from rho0 through the
    discrete continuity equation, endpoint matching is enforced by an
    escalating quadratic penalty, and interior states are eigenvalue-floored.
    Returns (distance, path); convexity of the underlying problem makes the
    accepted iterates monotone in the action.
    """
    problem = _ActionProblem(L, rho0, rho1, p, opts)
    x = problem.initial_field()
    if opts.selftest:
        la.check_gradient(problem.value_and_grad, x, "action")
    converged = False
    for _ in range(8):
        res = minimize(problem.value_and_grad, x, jac=True, method="L-BFGS-B",
                       options={"maxiter": opts.max_iters, "ftol": opts.tol * 1e-3,
                                "gtol": 1e-12})
        x = res.x
        B = problem.codec.decode(x)
        gammas = problem.march(B)
        endpoint = la.frob(gammas[-1] - problem.rho1)
        if endpoint <= opts.endpoint_tol:
            converged = True
            break
        problem.weight *= 10.0
    actions = []
    continuity = 0.0
    h = problem.h
    for k in range(problem.N):
        gbar = problem._floored(0.5 * (gammas[k] + gammas[k + 1]))
        a_k = 0.0
        div = np.zeros((problem.d, problem.d), dtype=complex)
        for j, ((Vj, omega)) in enumerate(L.jumps):
            K = MetricKernel(gbar, L.sigma, p, omega)
            a_k += K.quad_inverse(B[k, j])
            Vd = Vj.conj().T
            div -= Vd @ B[k, j] - B[k, j] @ Vd
        actions.append(a_k)
        continuity = max(continuity,
                         la.frob((gammas[k + 1] - gammas[k]) / h + div))
    action = float(np.sum(actions) / problem.N)
    path = TransportPath(
        states=tuple(gammas),
        momenta=B,
        action_per_step=tuple(float(a) for a in actions),
        action=action,
        endpoint_residual=float(endpoint),
        continuity_residual=float(continuity),
        converged=bool(converged),
    )
    return float(np.sqrt(max(action, 0.0))), path


def trace_distance_prefactor(L: DbcLindbladian, p: float) -> float:
    """Constant C with ||rho1 - rho0||_1 <= C W_{2,p}(rho0, rho1).

    Built from the integral lower bound on the inverse multiplication kernel;
    the normalization constant sin((p-1)pi)/pi * int s^(p-2) 2/(1+2s) ds has
    the closed form 2^(2-p). Uniformly bounded over p in (1, 2].
    """
    L.require_jumps()
    phat = _hconj(p)
    C_p = 2.0 ** (2.0 - p)
    s = np.linalg.eigvalsh(la.herm(L.sigma))
    tr_term = float(np.sum(s ** ((p - 2.0) / phat)))
    sig_inf = float(np.max(s)) ** (2.0 / phat)
    jump_term = 0.0
    for (V, omega) in L.jumps:
        vnorm = float(np.max(np.linalg.svd(V, compute_uv=False))) ** 2
        jump_term += (np.exp((2.0 - p) * omega / (2.0 * p))
                      + np.exp((p - 2.0) * omega / (2.0 * p))) * vnorm
    return float(np.sqrt(4.0 / C_p * tr_term * sig_inf * jump_term))


def flat_w22(L: DbcLindbladian, rho0: np.ndarray, rho1: np.ndarray) -> float:
    """Closed-form W_{2,2}: the kernel is the constant Gamma_sigma, so the
    squared distance is <drho, D_2^+ drho>."""
    L.require_jumps()
    delta = la.traceless_part(la.herm(rho1 - rho0))
    if la.frob(delta) == 0.0:
        return 0.0
    U = onsager_pinv_apply(L, L.sigma, 2.0, delta)
    return float(np.sqrt(max(np.real(la.hs_inner(delta, U)), 0.0)))


# ---------------------------------------------------------------------------
# Geodesic shooting
# ---------------------------------------------------------------------------


class GeodesicState(NamedTuple):
    rho: np.ndarray
    U: np.ndarray


def _metric_frame(L: DbcLindbladian, rho: np.ndarray, p: float):
    """Shared spectral data for kernel evaluations at a state."""
    phat = _hconj(p)
    s, Us = la.herm_eigh(L.sigma)
    s_pow = (Us * s ** (1.0 / (2.0 * phat))) @ Us.conj().T
    s_ipow = (Us * s ** (-1.0 / (2.0 * phat))) @ Us.conj().T
    Y = la.herm(s_ipow @ rho @ s_ipow)
    lam, V = la.herm_eigh(Y, check=False)
    if np.min(lam) <= 0:
        raise SingularState("state left the positive cone")
    return s_pow, s_ipow, lam, V


def _state_derivative_matrix(L: DbcLindbladian, rho: np.ndarray, U: np.ndarray,
                             p: float, kernel_choice: str = "sym") -> np.ndarray:
    """Hermitian matrix M with <M, A> = sum_j <dj U, K_{rho,A}^j [dj U]> for
    Hermitian A: the state derivative of the kinetic form (twice the
    Hamiltonian) at fixed momentum field grad U."""
    d = L.d
    s_pow, s_ipow, lam, V = _metric_frame(L, rho, p)
    theta = theta_p_kernel(p)
    dH = np.zeros((d, d), dtype=complex)
    for (Vj, omega) in L.jumps:
        a = np.exp(omega / (2.0 * p)) * lam
        b = np.exp(-omega / (2.0 * p)) * lam
        dU = Vj @ U - U @ Vj
        Ct = V.conj().T @ (s_pow @ dU @ s_pow) @ V
        terms = []
        if kernel_choice in ("1", "sym"):
            W1 = la.partial_dd_tensor(theta, 1, a, b)
            G1 = np.einsum("abc,bc,ac->ab", W1, Ct, Ct.conj())
            M1 = V @ G1.T @ V.conj().T
            terms.append(np.exp(omega / (2.0 * p)) * (s_ipow @ M1 @ s_ipow))
        if kernel_choice in ("2", "sym"):
            W2 = la.partial_dd_tensor(theta, 2, a, b)
            G2 = np.einsum("abc,ab,ac->bc", W2, Ct, Ct.conj())
            M2 = V @ G2.T @ V.conj().T
            terms.append(np.exp(-omega / (2.0 * p)) * (s_ipow @ M2 @ s_ipow))
        dH += terms[0] if len(terms) == 1 else 0.5 * (terms[0] + terms[1])
    return la.herm(dH)


def gradient_norm_sq(L: DbcLindbladian, rho: np.ndarray, p: float,
                     U: np.ndarray) -> float:
    """||grad U||^2_{p,rho} = sum_j <dj U, [rho]_{p,w_j} dj U>."""
    d = L.d
    s_pow, _, lam, V = _metric_frame(L, rho, p)
    theta = theta_p_kernel(p)
    total = 0.0
    for (Vj, omega) in L.jumps:
        a = np.exp(omega / (2.0 * p)) * lam
        b = np.exp(-omega / (2.0 * p)) * lam
        F = theta.f(a[:, None], b[None, :])
        dU = Vj @ U - U @ Vj
        Ct = V.conj().T @ (s_pow @ dU @ s_pow) @ V
        total += float(np.real(np.sum(F * np.abs(Ct) ** 2)))
    return total


def _geodesic_rhs(L: DbcLindbladian, rho: np.ndarray, U: np.ndarray, p: float,
                  kernel_choice: str):
    """(rho_dot, U_dot) of the Hamiltonian geodesic flow."""
    d = L.d
    s_pow, s_ipow, lam, V = _metric_frame(L, rho, p)
    theta = theta_p_kernel(p)
    rho_dot = np.zeros((d, d), dtype=complex)
    for (Vj, omega) in L.jumps:
        a = np.exp(omega / (2.0 * p)) * lam
        b = np.exp(-omega / (2.0 * p)) * lam
        F = theta.f(a[:, None], b[None, :])
        dU = Vj @ U - U @ Vj
        Ct = V.conj().T @ (s_pow @ dU @ s_pow) @ V
        KdU = s_pow @ (V @ (F * Ct) @ V.conj().T) @ s_pow
        Vd = Vj.conj().T
        rho_dot += Vd @ KdU - KdU @ Vd
    dH = _state_derivative_matrix(L, rho, U, p, kernel_choice)
    U_dot = -la.traceless_part(dH)
    return la.herm(rho_dot), U_dot


def geodesic_hamiltonian(L: DbcLindbladian, rho: np.ndarray, U: np.ndarray,
                         p: float) -> float:
    return 0.5 * float(np.real(la.hs_inner(onsager_apply(L, rho, p, U), U)))


def geodesic_shoot(L: DbcLindbladian, rho0: np.ndarray, U0: np.ndarray,
                   p: float, T: float, steps: int,
                   kernel_choice: str = "sym",
                   floor: float = 1e-10) -> List[GeodesicState]:
    """Integrate the constant-speed geodesic equations from (rho0, U0).

    Classical fourth-order one-step integration on a fixed grid; steps whose
    end state dips below the positivity floor are halved and retried (at most
    20 halvings before giving up).
    """
    L.require_jumps()
    if abs(np.trace(U0)) > 1e-12 * max(1.0, la.frob(U0)):
        raise KernelComponent("initial cotangent must be traceless")
    rho = la.herm(rho0)
    U = la.herm(U0)
    out = [GeodesicState(rho, U)]
    dt_macro = T / steps
    for _ in range(steps):
        remaining = dt_macro
        dt = dt_macro
        halvings = 0
        while remaining > 1e-15 * dt_macro:
            dt_try = min(dt, remaining)
            try:
                rho_new, U_new = _rk4(L, rho, U, p, dt_try, kernel_choice)
                if np.min(np.linalg.eigvalsh(la.herm(rho_new))) < floor:
                    raise SingularState("below floor")
            except SingularState:
                halvings += 1
                if halvings > 20:
                    raise LeftPositiveCone(
                        "geodesic left the positive cone after 20 halvings")
                dt /= 2.0
                continue
            rho, U = rho_new, U_new
            remaining -= dt_try
        out.append(GeodesicState(rho, U))
    return out


def _rk4(L, rho, U, p, dt, kernel_choice):
    k1r, k1u = _geodesic_rhs(L, rho, U, p, kernel_choice)
    k2r, k2u = _geodesic_rhs(L, rho + 0.5 * dt * k1r, U + 0.5 * dt * k1u, p, kernel_choice)
    k3r, k3u = _geodesic_rhs(L, rho + 0.5 * dt * k2r, U + 0.5 * dt * k2u, p, kernel_choice)
    k4r, k4u = _geodesic_rhs(L, rho + dt * k3r, U + dt * k3u, p, kernel_choice)
    rho_new = rho + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
    U_new = U + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
    return la.herm(rho_new), la.herm(U_new)
