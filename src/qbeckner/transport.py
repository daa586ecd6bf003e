"""Transport metric: multiplication kernels, Onsager operator, distances.

The metric kernel of a full-rank state is the noncommutative analog of
multiplication by the relative density to the power 2 - p. It defines the
Onsager operator D_{p,rho} = sum_j dj† ([rho]_{p,w_j} dj .), the Riemannian
tensor on traceless directions, a Benamou-Brenier style discretized distance,
and Hamiltonian geodesic shooting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Tuple

import numpy as np
from scipy.optimize import minimize

from . import linalg as la
from .errors import KernelComponent, LeftPositiveCone, NoJumps, SingularState
from .kernels import Kernel2, fp_divdiff_kernel, theta_log_kernel, theta_p_kernel
from .semigroup import DbcLindbladian, _pair_index

TRACE_TOL = 1e-10
# Eigenvalue floor of the interior states of a transport path and of the
# states a geodesic step may reach.
FLOOR = 1e-10
# w2p_solve: L-BFGS-B iterations per round, the endpoint penalty weight of
# the first round (ten times larger each further round), the number of
# rounds, and the endpoint mismatch at which a solve counts as converged.
MAX_ITERS = 5000
PENALTY0 = 1e4
PENALTY_ROUNDS = 8
ENDPOINT_TOL = 1e-6


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
# Spectral frame of the metric kernels
# ---------------------------------------------------------------------------


class _Frame:
    """Every metric kernel [rho]_{p,w_j} at a state, or at each state of a stack.

    With s = 1/(2 phat), Y = sigma^-s rho sigma^-s = V diag(lam) V† and the
    tilted spectra a_j = e^(w_j/2p) lam, b_j = e^(-w_j/2p) lam,
    [rho]_j X = sigma^s V (theta_p(a_j, b_j) o V† sigma^s X sigma^s V) V† sigma^s.
    Fields over the jumps are arrays (..., J, d, d), where ... are the
    leading axes of rho.
    """

    def __init__(self, L: DbcLindbladian, rho: np.ndarray, p: float):
        L.require_jumps()
        self.p = float(p)
        s = 1.0 / (2.0 * _hconj(self.p))
        self.P = L.sigma_power(s)
        self.Q = L.sigma_power(-s)
        self.lam, self.V = la.herm_eigh(self.Q @ rho @ self.Q, check=False)
        if np.min(self.lam) <= 0.0:
            raise SingularState("metric kernel needs a full-rank state")
        self.jumps, omega = L.jump_stack
        self.up = np.exp(omega / (2.0 * self.p))
        self.down = np.exp(-omega / (2.0 * self.p))
        self.a = self.up[:, None] * self.lam[..., None, :]
        self.b = self.down[:, None] * self.lam[..., None, :]
        self.kernel = theta_p_kernel(self.p)

    def weights(self, k: Kernel2) -> np.ndarray:
        """k(a_j[x], b_j[y]) for every jump, (..., J, d, d)."""
        return k.f(self.a[..., :, None], self.b[..., None, :])

    @cached_property
    def theta(self) -> np.ndarray:
        return self.weights(self.kernel)

    def grad(self, U: np.ndarray) -> np.ndarray:
        """dj U = [V_j, U] for every jump."""
        U = U[..., None, :, :]
        return self.jumps @ U - U @ self.jumps

    def div(self, X: np.ndarray) -> np.ndarray:
        """-sum_j [V_j†, X_j], the adjoint of -grad."""
        Vd = la.dagger(self.jumps)
        return np.sum(X @ Vd - Vd @ X, axis=-3)

    def eig(self, X: np.ndarray, S: np.ndarray) -> np.ndarray:
        """V† S X_j S V for every jump component, S = P or Q."""
        V = self.V[..., None, :, :]
        return la.dagger(V) @ (S @ X @ S) @ V

    def uneig(self, Xt: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Inverse of eig when S is replaced by its inverse."""
        V = self.V[..., None, :, :]
        return S @ (V @ Xt @ la.dagger(V)) @ S

    def apply(self, X: np.ndarray) -> np.ndarray:
        """[rho]_j X_j for every jump."""
        return self.uneig(self.theta * self.eig(X, self.P), self.P)

    def onsager(self, U: np.ndarray) -> np.ndarray:
        """D_{p,rho} U = sum_j dj† ([rho]_j dj U)."""
        return -self.div(self.apply(self.grad(U)))

    def dk_tensors(self, k: Kernel2) -> Tuple[np.ndarray, np.ndarray]:
        """Daleckii-Krein tensors (W1, W2) of k, (..., J, d, d, d): its first
        and second partial divided differences on the tilted spectra, each
        weighted by its tilt."""
        return (self.up[:, None, None, None] * la.partial_dd_tensor(k, 1, self.a, self.b),
                self.down[:, None, None, None] * la.partial_dd_tensor(k, 2, self.a, self.b))

    def dd(self, k: Kernel2, Cl: np.ndarray, Cr: np.ndarray) -> np.ndarray:
        """State-derivative contraction in the eigenbasis of Y.

        Returns G with sum_ab G[a,b] E[a,b] = d/dt sum_j <Cl_j, k(a_j, b_j) o Cr_j>
        along Y + t V E V†, for fields Cl, Cr held fixed in the basis of Y
        (Daleckii-Krein: both partial divided differences of k, each side
        weighted by its tilt).
        """
        W1, W2 = self.dk_tensors(k)
        Cl = Cl.conj()
        return (np.einsum("...jabc,...jbc,...jac->...ab", W1, Cr, Cl)
                + np.einsum("...jabc,...jab,...jac->...bc", W2, Cr, Cl))

    def state_derivative(self, C: np.ndarray, k: Kernel2 | None = None) -> np.ndarray:
        """Hermitian M with <M, H> the derivative of sum_j <C_j, k(a_j, b_j) o C_j>
        along rho + tH, where C = eig(X, S) for fixed X and S; k defaults to
        theta_p."""
        G = self.dd(self.kernel if k is None else k, C, C)
        return la.herm(self.Q @ self.V @ np.swapaxes(G, -1, -2) @ la.dagger(self.V) @ self.Q)


def _floored(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of each Hermitian matrix raised to at least FLOOR."""
    w, V = la.herm_eigh(g, check=False)
    return (V * np.maximum(w, FLOOR)[..., None, :]) @ la.dagger(V)


# ---------------------------------------------------------------------------
# Onsager operator
# ---------------------------------------------------------------------------


def onsager_apply(L: DbcLindbladian, rho: np.ndarray, p: float,
                  U: np.ndarray) -> np.ndarray:
    """D_{p,rho} U = sum_j dj† ([rho]_{p,w_j} dj U)."""
    return _Frame(L, rho, p).onsager(U)


def onsager_matrix(L: DbcLindbladian, rho: np.ndarray, p: float) -> np.ndarray:
    """Dense superoperator of the Onsager operator: column k is the image of
    the matrix unit with vec index k."""
    d = L.d
    units = np.swapaxes(np.eye(d * d).reshape(d * d, d, d), 1, 2)
    return la.vec_columns(_Frame(L, rho, p).onsager(units))


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
    fr = _Frame(L, rho, p)
    Ypow = (fr.V * fr.lam ** (p - 1.0)) @ la.dagger(fr.V)
    dF = (1.0 / (p - 1.0)) * (fr.Q @ Ypow @ fr.Q)
    lhs = fr.onsager(dF)
    rhs = -la.apply_super(L.dual_generator, rho)
    return la.frob(lhs - rhs) / max(la.frob(rhs), 1e-300)


# ---------------------------------------------------------------------------
# Momentum-field parameterization with adjoint pairing built in
# ---------------------------------------------------------------------------


class _FieldCodec:
    """Packs a pairing-symmetric momentum field (N steps x J jumps) into a
    real vector. Pair slots carry one free complex matrix (the partner is
    -B†); self-paired slots carry an anti-Hermitian matrix iH, stored as the
    real diagonal of H followed by (Re, Im) of its upper triangle, row by row."""

    def __init__(self, L: DbcLindbladian, N: int):
        pair = [_pair_index(L.jumps, j) for j in range(L.num_jumps)]
        if None in pair:
            raise NoJumps("jump list lacks adjoint pairing")
        self.N, self.d, self.J = N, L.d, L.num_jumps
        self.free = [j for j in range(self.J) if pair[j] > j]
        self.partner = [pair[j] for j in self.free]
        self.selfs = [j for j in range(self.J) if pair[j] == j]
        self.upper = np.triu_indices(self.d, 1)
        self.n_free = 2 * self.d * self.d * len(self.free)
        self.n_self = self.d * self.d * len(self.selfs)

    def _unpack(self, h: np.ndarray) -> np.ndarray:
        d = self.d
        i, k = self.upper
        H = np.zeros(h.shape[:-1] + (d, d), dtype=complex)
        H[..., np.arange(d), np.arange(d)] = h[..., :d]
        H[..., i, k] = h[..., d::2] + 1j * h[..., d + 1::2]
        H[..., k, i] = h[..., d::2] - 1j * h[..., d + 1::2]
        return H

    def _pack(self, H: np.ndarray, off: float = 1.0) -> np.ndarray:
        """Inverse of _unpack; off = 2 gives the gradient components of
        df = tr(dH M), since an off-diagonal coordinate touches two entries."""
        d = self.d
        i, k = self.upper
        h = np.empty(H.shape[:-2] + (d * d,))
        h[..., :d] = H[..., np.arange(d), np.arange(d)].real
        h[..., d::2] = off * H[..., i, k].real
        h[..., d + 1::2] = off * H[..., i, k].imag
        return h

    def _join(self, free: np.ndarray, selfs: np.ndarray) -> np.ndarray:
        return np.concatenate([free.reshape(self.N, self.n_free),
                               selfs.reshape(self.N, self.n_self)], axis=1).ravel()

    def decode(self, x: np.ndarray) -> np.ndarray:
        N, d = self.N, self.d
        x = x.reshape(N, self.n_free + self.n_self)
        P = x[:, :self.n_free].reshape(N, len(self.free), 2, d, d)
        P = P[:, :, 0] + 1j * P[:, :, 1]
        B = np.zeros((N, self.J, d, d), dtype=complex)
        B[:, self.free] = P
        B[:, self.partner] = -la.dagger(P)
        h = x[:, self.n_free:].reshape(N, len(self.selfs), d * d)
        B[:, self.selfs] = 1j * self._unpack(h)
        return B

    def encode(self, B: np.ndarray) -> np.ndarray:
        P = B[:, self.free]
        return self._join(np.stack([P.real, P.imag], axis=2),
                          self._pack(la.herm(-1j * B[:, self.selfs])))

    def gradient(self, G: np.ndarray) -> np.ndarray:
        """Real gradient from full-field Wirtinger gradients G[k, j]
        (df = sum 2 Re tr(dB† G) over unconstrained variations)."""
        Geff = G[:, self.free] - la.dagger(G[:, self.partner])
        K = G[:, self.selfs]
        # df = 2 Im tr(dH K) = tr(dH M) with M = -i (K - K†) Hermitian
        return self._join(2.0 * np.stack([Geff.real, Geff.imag], axis=2),
                          self._pack(-1j * (K - la.dagger(K)), 2.0))


# ---------------------------------------------------------------------------
# Discretized Benamou-Brenier distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class W2Opts:
    N: int = 20
    tol: float = 1e-7


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
                 p: float, N: int):
        L.require_jumps()
        self.L = L
        self.rho0 = la.herm(rho0)
        self.rho1 = la.herm(rho1)
        self.p = float(p)
        self.N = N
        self.h = 1.0 / N
        self.codec = _FieldCodec(L, N)
        self.fp = fp_divdiff_kernel(self.p)
        self.weight = PENALTY0

    def march(self, B: np.ndarray) -> np.ndarray:
        """States gamma_0..gamma_N of the discrete continuity equation."""
        Vd = la.dagger(self.L.jump_stack[0])
        step = la.herm(np.sum(Vd @ B - B @ Vd, axis=1))
        return np.concatenate([self.rho0[None],
                               self.rho0 + self.h * np.cumsum(step, axis=0)])

    def steps(self, B: np.ndarray, gammas: np.ndarray):
        """Frame at the floored step midpoints, the momenta in its eigenbasis
        and the inverse-kernel weights f_p^[1]: step k's action is
        sum F[k] |C[k]|^2."""
        fr = _Frame(self.L, _floored(0.5 * (gammas[:-1] + gammas[1:])), self.p)
        return fr, fr.eig(B, fr.Q), fr.weights(self.fp)

    def value_and_grad(self, x: np.ndarray):
        h = self.h
        B = self.codec.decode(x)
        gammas = self.march(B)
        fr, C, F = self.steps(B, gammas)
        gap = gammas[-1] - self.rho1
        value = h * float(np.sum(F * np.abs(C) ** 2)) + self.weight * la.frob(gap) ** 2
        # direct momentum gradient h [gbar]^{-1} B
        G = h * fr.uneig(F * C, fr.Q)
        # d(value)/d(gamma_l): each step's kernel sits at the midpoint
        S = 0.5 * h * fr.state_derivative(C, self.fp)
        T = np.zeros_like(gammas)
        T[:-1] += S
        T[1:] += S
        T[-1] += 2.0 * self.weight * gap
        # B_kj moves every gamma_l with l > k by (h/2)[V_j, .] per
        # unconstrained slot; the codec folds in the partner
        suffix = np.cumsum(T[:0:-1], axis=0)[::-1, None]
        Vs = self.L.jump_stack[0]
        G += 0.5 * h * (Vs @ suffix - suffix @ Vs)
        return value, self.codec.gradient(G)

    def initial_field(self) -> np.ndarray:
        """Linear state path with Riemannian-optimal momenta per step."""
        t = ((np.arange(self.N) + 0.5) / self.N)[:, None, None]
        gbar = _floored((1.0 - t) * self.rho0 + t * self.rho1)
        nu = la.traceless_part(self.rho1 - self.rho0)
        U = np.array([onsager_pinv_apply(self.L, g, self.p, nu, check_trace=False)
                      for g in gbar])
        fr = _Frame(self.L, gbar, self.p)
        return self.codec.encode(fr.apply(fr.grad(U)))


def w2p_solve(L: DbcLindbladian, rho0: np.ndarray, rho1: np.ndarray, p: float,
              opts: W2Opts = W2Opts()) -> Tuple[float, TransportPath]:
    """Transport distance W_{2,p} by minimizing the discretized action.

    States are eliminated: the curve is marched from rho0 through the
    discrete continuity equation, endpoint matching is enforced by an
    escalating quadratic penalty, and interior states are eigenvalue-floored.
    The action gradient is self-tested once per solve. Returns (distance,
    path); convexity of the underlying problem makes the accepted iterates
    monotone in the action.
    """
    problem = _ActionProblem(L, rho0, rho1, p, opts.N)
    x = problem.initial_field()
    la.check_gradient(problem.value_and_grad, x, "action")
    converged = False
    for _ in range(PENALTY_ROUNDS):
        res = minimize(problem.value_and_grad, x, jac=True, method="L-BFGS-B",
                       options={"maxiter": MAX_ITERS, "ftol": opts.tol * 1e-3,
                                "gtol": 1e-12})
        x = res.x
        B = problem.codec.decode(x)
        gammas = problem.march(B)
        endpoint = la.frob(gammas[-1] - problem.rho1)
        if endpoint <= ENDPOINT_TOL:
            converged = True
            break
        problem.weight *= 10.0
    fr, C, F = problem.steps(B, gammas)
    actions = np.sum(F * np.abs(C) ** 2, axis=(1, 2, 3))
    flow = (gammas[1:] - gammas[:-1]) / problem.h + fr.div(B)
    path = TransportPath(
        states=tuple(gammas),
        momenta=B,
        action_per_step=tuple(float(a) for a in actions),
        action=float(np.sum(actions) / problem.N),
        endpoint_residual=float(endpoint),
        continuity_residual=float(np.max(np.linalg.norm(flow, axis=(1, 2)))),
        converged=bool(converged),
    )
    return float(np.sqrt(max(path.action, 0.0))), path


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


def gradient_norm_sq(L: DbcLindbladian, rho: np.ndarray, p: float,
                     U: np.ndarray) -> float:
    """||grad U||^2_{p,rho} = sum_j <dj U, [rho]_{p,w_j} dj U>."""
    fr = _Frame(L, rho, p)
    return float(np.sum(fr.theta * np.abs(fr.eig(fr.grad(U), fr.P)) ** 2))


def _geodesic_rhs(L: DbcLindbladian, rho: np.ndarray, U: np.ndarray, p: float):
    """(rho_dot, U_dot) of the Hamiltonian geodesic flow, whose Hamiltonian is
    half the kinetic form sum_j <dj U, [rho]_j dj U>."""
    fr = _Frame(L, rho, p)
    C = fr.eig(fr.grad(U), fr.P)
    rho_dot = -fr.div(fr.uneig(fr.theta * C, fr.P))
    U_dot = -la.traceless_part(0.5 * fr.state_derivative(C))
    return la.herm(rho_dot), U_dot


def geodesic_hamiltonian(L: DbcLindbladian, rho: np.ndarray, U: np.ndarray,
                         p: float) -> float:
    return 0.5 * float(np.real(la.hs_inner(onsager_apply(L, rho, p, U), U)))


def geodesic_shoot(L: DbcLindbladian, rho0: np.ndarray, U0: np.ndarray,
                   p: float, T: float, steps: int) -> List[GeodesicState]:
    """Integrate the constant-speed geodesic equations from (rho0, U0).

    Classical fourth-order one-step integration on a fixed grid; steps whose
    end state dips below the eigenvalue floor FLOOR are halved and retried
    (at most 20 halvings before giving up).
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
                rho_new, U_new = _rk4(L, rho, U, p, dt_try)
                if np.min(np.linalg.eigvalsh(la.herm(rho_new))) < FLOOR:
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


def _rk4(L, rho, U, p, dt):
    k1r, k1u = _geodesic_rhs(L, rho, U, p)
    k2r, k2u = _geodesic_rhs(L, rho + 0.5 * dt * k1r, U + 0.5 * dt * k1u, p)
    k3r, k3u = _geodesic_rhs(L, rho + 0.5 * dt * k2r, U + 0.5 * dt * k2u, p)
    k4r, k4u = _geodesic_rhs(L, rho + dt * k3r, U + dt * k3u, p)
    rho_new = rho + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
    U_new = U + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
    return la.herm(rho_new), la.herm(U_new)
