"""Transport metric: multiplication kernels, Onsager operator, distances.

The metric kernel of a full-rank state is the noncommutative analog of
multiplication by the relative density to the power 2 - p. It defines the
Onsager operator D_{p,rho} = sum_j dj† ([rho]_{p,w_j} dj .), the Riemannian
tensor on traceless directions, a Benamou-Brenier style discretized distance,
and Hamiltonian geodesic shooting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from . import linalg as la
from .errors import KernelComponent, LeftPositiveCone, SingularMetric, SingularState
from .kernels import _is_same, theta_p_log
from .linalg import minimize
from .semigroup import DbcLindbladian

TRACE_TOL = 1e-10
# Eigenvalue floor of the interior states of a transport path and of the
# states a geodesic step may reach.
FLOOR = 1e-10


def _hconj(p: float) -> float:
    """Holder conjugate p / (p - 1)."""
    return p / (p - 1.0)


def _metric_p(p: float) -> float:
    """p as a float, or ValueError unless p is in (1, 2], the metric kernel's range."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"the metric kernel needs p in (1, 2], got {p}")
    return float(p)


# ---------------------------------------------------------------------------
# Spectral frame of the metric kernels
# ---------------------------------------------------------------------------


class _FrameConstants(NamedTuple):
    """What every frame of one generator at one p reads off it, built once
    per (generator, p) and held read-only by DbcLindbladian.derived. The K
    folded jumps and their adjoints are held stacked, (K d, d), and side by
    side, (d, K d), so that each sum over the jumps is one product of
    O(K d^3) work. The layouts do not depend on p, and every p shares one
    copy."""

    P: np.ndarray  # sigma^s, s = 1 / (2 phat)
    Q: np.ndarray  # sigma^-s
    jumps: np.ndarray  # (K d, d), the V_j stacked
    jumps_side: np.ndarray  # (d, K d), the V_j side by side
    adjoints: np.ndarray  # (K d, d), the V_j† stacked
    adjoints_side: np.ndarray  # (d, K d), the V_j† side by side
    tilt: np.ndarray  # w_j / 2p, (K, 1, 1)
    offdiag: np.ndarray  # (d, d), True off the diagonal


def _jump_layouts(L: DbcLindbladian) -> Tuple[np.ndarray, ...]:
    """(jumps, jumps_side, adjoints, adjoints_side) of _FrameConstants."""
    jumps = L.jump_stack[0]
    K, d, _ = jumps.shape
    out = []
    for A in (jumps, la.dagger(jumps)):
        out += [A.reshape(K * d, d), np.ascontiguousarray(A.swapaxes(0, 1)).reshape(d, K * d)]
    return tuple(out)


def _frame_constants(L: DbcLindbladian, p: float) -> _FrameConstants:
    def build() -> _FrameConstants:
        L.require_jumps()
        s = 1.0 / (2.0 * _hconj(p))
        return _FrameConstants(L.sigma_power(s), L.sigma_power(-s),
                               *L.derived(("jump_layouts",), lambda: _jump_layouts(L)),
                               (L.jump_stack[1] / (2.0 * p))[:, None, None],
                               ~np.eye(L.d, dtype=bool))

    return L.derived(("frame", p), build)


def _diagonal(A: np.ndarray) -> np.ndarray:
    """The diagonals of a contiguous stack of square matrices, as a writable view."""
    d = A.shape[-1]
    return A.reshape(A.shape[:-2] + (d * d,))[..., ::d + 1]


class _Frame:
    """Every metric kernel [rho]_{p,w_j} at a state, or at each state of a stack.

    With s = 1/(2 phat), Y = sigma^-s rho sigma^-s = V diag(lam) V† and the
    tilted spectra a_j = e^(w_j/2p) lam, b_j = e^(-w_j/2p) lam,
    [rho]_j X = sigma^s V (theta_p(a_j, b_j) o V† sigma^s X sigma^s V) V† sigma^s.
    The jumps are the folded stack of DbcLindbladian.jump_stack: one
    sqrt(2) V_j per exact adjoint pair, the other jumps as they are. Fields
    over them are arrays (..., K, d, d), where ... are the leading axes of
    rho. Every contraction here is for Hermitian directions U, where both
    jumps of a pair add the same real part, and onsager returns the Hermitian
    part; a per-jump field (grad, apply) is of the folded jumps, not of
    L.jumps. p must lie in (1, 2], as for estimate_constant; every solver,
    Hessian and flow of the metric builds its kernels here.
    The tilts cancel from a_j[x] b_j[y] = lam_x lam_y: one kernels.theta_p_log
    call on h_j[x, y] = w_j/2p + (log lam_x - log lam_y)/2 gives theta and
    the partials. Everything fixed by the generator and p is one record
    (_FrameConstants, one cache lookup), so a frame computes only its
    eigendecomposition and that one grid. The jump sums (grad, div) are one
    product per side of the commutator against the record's layouts; eig
    and uneig by P are two batched products with W = P V. Every product is
    of d x d blocks, O(K d^3) work per state.
    At p = 2, theta_2 = 1 and [rho]_j X = P X P at every state: the frame is
    the identity frame (lam = 1, V = I, zero partials, no ties; not Y's
    spectrum) with a Cholesky test of full rank. Its read-only broadcasts
    are built once per generator and shape of rho (_identity_frame), and
    its state derivative is not formed: theta_2 does not depend on rho.
    """

    def __init__(self, L: DbcLindbladian, rho: np.ndarray, p: float):
        self.p = _metric_p(p)
        self._c = c = _frame_constants(L, self.p)
        self.P, self.Q = c.P, c.Q
        if self.p == 2.0:  # theta_2 = 1: the identity frame, the same at every state
            try:
                np.linalg.cholesky(rho)
            except np.linalg.LinAlgError:
                raise SingularState("metric kernel needs a full-rank state") from None
            (self.lam, self.W, self.V, self.theta, self._log_partials,
             self.gaps) = L.derived(("identity_frame", rho.shape),
                                    lambda: _identity_frame(c, rho.shape))
            return
        self.lam, self.V = la.herm_eigh(c.Q @ rho @ c.Q, check=False)
        if self.lam.min() <= 0.0:
            raise SingularState("metric kernel needs a full-rank state")
        self.W = c.P @ self.V[..., None, :, :]  # P V: eig and uneig by P in two products
        # theta_p(a_j[x], b_j[y]), (..., K, d, d), and its log-partials
        half = 0.5 * np.log(self.lam)
        x, y = half[..., None, :, None], half[..., None, None, :]
        self.theta, dx, dy = theta_p_log(self.p, (x - y) + c.tilt, x + y)
        self._log_partials = dx, dy

    def __getitem__(self, index) -> _Frame:
        """The frame of the states rho[index] of the first leading axis,
        sliced from this one, so that nothing is computed again."""
        fr = object.__new__(_Frame)
        fr.p, fr._c, fr.P, fr.Q = self.p, self._c, self.P, self.Q
        fr.lam, fr.V, fr.W, fr.theta = (a[index] for a in (self.lam, self.V, self.W, self.theta))
        fr._log_partials = tuple(a[index] for a in self._log_partials)
        if "gaps" in self.__dict__:  # preset at p = 2, or computed
            fr.gaps = tuple(a[index] for a in self.gaps)
        return fr

    @cached_property
    def partials(self) -> Tuple[np.ndarray, np.ndarray]:
        """The partials of theta_p(a_j, b_j) in the untilted lam_x and lam_y,
        each weighted by its tilt e^(+-w_j/2p), (..., K, d, d)."""
        dx, dy = self._log_partials
        return dx / self.lam[..., None, :, None], dy / self.lam[..., None, None, :]

    def grad(self, U: np.ndarray) -> np.ndarray:
        """dj U = [V_j, U] for every jump: V_j U from the stacked jumps, U V_j
        from the side-by-side ones."""
        c, d, lead = self._c, U.shape[-1], U.shape[:-2]
        right = (U @ c.jumps_side).reshape(lead + (d, -1, d)).swapaxes(-3, -2)
        return (c.jumps @ U).reshape(lead + (-1, d, d)) - right

    def div(self, X: np.ndarray) -> np.ndarray:
        """-sum_j [V_j†, X_j], the adjoint of -grad: sum_j V_j† X_j against X
        stacked, sum_j X_j V_j† against X side by side."""
        c, d = self._c, X.shape[-1]
        side = X.swapaxes(-3, -2).reshape(X.shape[:-3] + (d, -1))
        return side @ c.adjoints - c.adjoints_side @ X.reshape(X.shape[:-3] + (-1, d))

    def eig(self, X: np.ndarray, S: np.ndarray) -> np.ndarray:
        """V† S X_j S V for every jump component, S = P or Q."""
        SV = self.W if S is self.P else S @ self.V[..., None, :, :]
        return la.dagger(SV) @ X @ SV

    def uneig(self, Xt: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Inverse of eig when S is replaced by its inverse."""
        SV = self.W if S is self.P else S @ self.V[..., None, :, :]
        return SV @ Xt @ la.dagger(SV)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """[rho]_j X_j for every jump."""
        return self.uneig(self.theta * self.eig(X, self.P), self.P)

    def onsager(self, U: np.ndarray) -> np.ndarray:
        """D_{p,rho} U = sum_j dj† ([rho]_j dj U) for Hermitian U: the
        Hermitian part of the folded sum, which the pair's two terms make."""
        return la.herm(-self.div(self.apply(self.grad(U))))

    @cached_property
    def gaps(self) -> Tuple[np.ndarray, np.ndarray]:
        """(ties, inv), (..., d, d): the near-ties of lam off the diagonal
        (_is_same), and 1 / (lam_x - lam_y) at the other pairs, 0 on ties and
        on the diagonal. The tilts cancel from the partial divided differences
        of theta_p on (a_j, b_j), so these serve every jump and both partials;
        at a tie each quotient is the mean of the partials at the pair's ends."""
        u, v = self.lam[..., :, None], self.lam[..., None, :]
        same = _is_same(u, v)
        return same & self._c.offdiag, 1.0 / np.where(same, np.inf, u - v)

    def state_derivative(self, C: np.ndarray) -> np.ndarray:
        """Hermitian M with <M, H> the derivative of
        sum_j <C_j, theta_p(a_j, b_j) o C_j> along rho + tH, where C = eig(X, P)
        for fixed X: the Daleckii-Krein contraction G in the eigenbasis of Y,
        by matrix products. With T = theta o C and Z = sum_j conj(T_j) C_j^T +
        T_j^T conj(C_j), G = inv o (Z - Z†), and the partials against |C_j|^2
        on the diagonal. At the near-ties G = (Z + Z†) / 2 with (d1, d2) o C in
        place of T in Z's two terms: the mean of the partials at both ends.
        M = Q V G^T V† Q. At p = 2, M = 0 and is not formed."""
        if self.p == 2.0:
            return np.zeros(C.shape[:-3] + C.shape[-2:], dtype=complex)
        (ties, inv), (dx, dy) = self.gaps, self._log_partials
        Cc = C.conj()
        T = self.theta * C
        Z = _contract(T, T, C, Cc)
        Gt = inv * (Z.conj() - Z.swapaxes(-1, -2))  # G^T
        C2 = (C * Cc).real
        _diagonal(Gt)[...] = (dx * C2 + (dy * C2).swapaxes(-1, -2)).sum(axis=(-3, -1)) / self.lam
        if ties.any():
            d1, d2 = self.partials
            Z = _contract(d1 * C, d2 * C, C, Cc)
            Gt = np.where(ties, 0.5 * (Z.swapaxes(-1, -2) + Z.conj()), Gt)
        QV = self.Q @ self.V
        return la.herm(QV @ Gt @ la.dagger(QV))


def _identity_frame(c: _FrameConstants, shape: Tuple[int, ...]) -> tuple:
    """(lam, W, V, theta, log-partials, gaps) of the p = 2 frame of states of
    shape (..., d, d): zero-stride views of O(d^2) memory."""
    lead, d = shape[:-2], shape[-1]
    grid = lead + (len(c.tilt), d, d)
    return (np.broadcast_to(1.0, lead + (d,)), np.broadcast_to(c.P, lead + (1, d, d)),
            np.broadcast_to(np.eye(d, dtype=complex), shape), np.broadcast_to(1.0, grid),
            (np.broadcast_to(0.0, grid),) * 2,
            (np.broadcast_to(False, shape), np.broadcast_to(0.0, shape)))


def _contract(A: np.ndarray, B: np.ndarray, C: np.ndarray, Cc: np.ndarray) -> np.ndarray:
    """sum_j conj(A_j) C_j^T + B_j^T Cc_j over the jump axis -3, Cc = conj(C),
    one batched product per term."""
    return (A.conj() @ C.swapaxes(-1, -2) + B.swapaxes(-1, -2) @ Cc).sum(axis=-3)


def _floored(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of each Hermitian matrix of a stack raised to at least
    FLOOR: g itself when every g_i - FLOOR I has a Cholesky factor, else the
    whole stack eigendecomposed and floored."""
    try:
        np.linalg.cholesky(g - FLOOR * np.eye(g.shape[-1]))
        return g
    except np.linalg.LinAlgError:
        w, V = la.herm_eigh(g, check=False)
        return (V * np.maximum(w, FLOOR)[..., None, :]) @ la.dagger(V)


def _gram_cholesky(G: np.ndarray, where: Callable[[int], str]) -> np.ndarray:
    """Cholesky factors R, G_i = R_i R_i^T, of a stack of metric Gram matrices
    (S, n, n): the one positive-definiteness test of them. If a G_i is not
    positive definite, SingularMetric names the first whose lowest eigenvalue
    (eigvalsh) is not positive, as where(i), with that eigenvalue; if round-off
    failed the factorization alone, the one with the lowest eigenvalue."""
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(G)[:, 0]
        i = int(np.argmax(low <= max(0.0, low.min())))
        raise SingularMetric(f"metric Gram matrix of {where(i)} is not positive definite "
                             f"(lowest eigenvalue {low[i]:.3e})")


# ---------------------------------------------------------------------------
# Onsager operator
# ---------------------------------------------------------------------------


def onsager_matrix(L: DbcLindbladian, rho: np.ndarray, p: float) -> np.ndarray:
    """Dense superoperator of the Onsager operator: column k is the image of
    the matrix unit with vec index k. The frame applies D to Hermitian
    directions, so D is taken on the trace-free Hermitian basis U_m, with
    vecs Phi, and mapped to the matrix units by complex linearity,
    [vec D U_m] Phi†: D 1 = 0, so the identity adds nothing."""
    basis, Phi = _basis_frame(L.d)
    return la.vec_columns(_Frame(L, rho, p).onsager(basis)) @ Phi.conj().T


def onsager_pinv_apply(L: DbcLindbladian, rho: np.ndarray, p: float,
                       nu: np.ndarray) -> np.ndarray:
    """Solve D_{p,rho} U = nu on the trace-free subspace."""
    if abs(np.trace(nu)) > TRACE_TOL * max(1.0, la.frob(nu)):
        raise KernelComponent(f"input has trace component {np.trace(nu):.3e}")
    M = onsager_matrix(L, rho, p)
    w, Q = la.herm_eigh(la.herm(M), check=False)
    cutoff = 1e-12 * max(float(np.max(w)), 1e-300)
    winv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    x = Q @ (winv * (Q.conj().T @ la.vec(nu)))
    U = la.unvec(x, L.d)
    return la.traceless_part(la.herm(U)) if la.hermiticity_residual(nu) < 1e-9 else la.traceless_part(U)


def grad_flow_residual(L: DbcLindbladian, rho: np.ndarray, p: float) -> float:
    """Relative residual of D_{p,rho}(dF_p/drho) + L† rho = 0.

    Zero residual certifies that the dual semigroup is the gradient flow of
    the p-divergence in the metric induced by the Onsager operator.
    dF_p is a power of Y = Q rho Q, decomposed here: a p = 2 frame's is not Y's.
    """
    fr = _Frame(L, rho, p)
    lam, V = la.herm_eigh(fr.Q @ rho @ fr.Q, check=False)
    Ypow = (V * lam ** (p - 1.0)) @ la.dagger(V)
    dF = (1.0 / (p - 1.0)) * (fr.Q @ Ypow @ fr.Q)
    lhs = fr.onsager(dF)
    rhs = -la.apply_super(L.dual_generator, rho)
    return la.frob(lhs - rhs) / max(la.frob(rhs), 1e-300)


# ---------------------------------------------------------------------------
# Metric Gram matrix on the trace-free Hermitian basis
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=None)
def _basis_frame(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """The trace-free Hermitian basis as a stack (n, d, d), and its vecs as
    the columns of Phi (d^2, n)."""
    basis = np.array(_traceless_hermitian_basis(d))
    Phi = la.vec_columns(basis)
    basis.flags.writeable = Phi.flags.writeable = False
    return basis, Phi


# Bytes of the rows of _basis_rows in one block (_blocks), d^2 (d^2 - 1) K
# complex numbers a state: 48 samples at d = 5 in one 2.8 MB block ran slower
# than three of 16 on a 2 MB L2 cache.
BLOCK_BYTES = 5 << 19  # 2.5 MiB
# Kept between calls, so that none faults fresh pages in: the block arrays of
# _basis_gram (two slots of a block's rows) and ricci.hessian_matrix (three,
# four at near-ties), about 3 x BLOCK_BYTES. No view of it leaves the layer,
# and one thread at a time may run the layer.
_workspace = np.empty(0, dtype=complex)


def _slots(count: int, shape: Tuple[int, ...]) -> np.ndarray:
    """count disjoint complex arrays of shape, stacked, a view of the
    workspace, grown to hold them (views taken before keep the old buffer)."""
    global _workspace
    size = count * math.prod(shape)
    if _workspace.size < size:
        _workspace = np.empty(size, dtype=complex)
    return _workspace[:size].reshape((count,) + shape)


def _blocks(L: DbcLindbladian, count: int) -> range:
    """The starts of the fewest blocks of count states whose rows fit in
    BLOCK_BYTES, of equal size (the step) but the last."""
    per_state = 16 * L.d ** 2 * (L.d ** 2 - 1) * len(L.jump_pairs)
    blocks = -(-count * per_state // BLOCK_BYTES)  # ceil: the fewest blocks
    return range(0, count, -(-count // blocks))


def _basis_rows(L: DbcLindbladian, rho: np.ndarray, p: float, fr: _Frame | None = None,
                count: int = 2) -> tuple:
    """The frame fr of a stack rho (S, d, d), built unless given, with the
    basis U_1..U_n, n = d^2 - 1, on its own axis (leading axes (S, 1)); the
    eigenframe gradients C_m = V† P [V_j, U_m] P V over the K folded jumps as
    rows (S, d, n, K, d), the rows of all C_mj side by side; then the other
    count - 1 _slots of their shape, the first of which held the left factor."""
    basis, _ = _basis_frame(L.d)
    S, n, d = len(rho), len(basis), L.d
    fr = _Frame(L, rho[:, None], p) if fr is None else fr
    # P [V_j, U_m] P does not depend on the state: it is cached side by side,
    # (d, n K d), per generator and p, and taken to each state's eigenframe
    # by two batched products, V† from the left, then V from the right: the
    # two sums of V† (P X P) V, grouped as there; C is contiguous in that order.
    X = L.derived(("basis_gradients", fr.p),
                  lambda: np.moveaxis(fr.P @ fr.grad(basis) @ fr.P, 2, 0).reshape(d, -1))
    V = fr.V[:, 0]
    rows, left, *spare = _slots(count, (S, d, n, X.shape[1] // (n * d), d))  # (S, i, m, j, b)
    np.matmul(la.dagger(V), X, out=left.reshape(S, d, -1))  # (S, i, (m, j, l))
    np.matmul(left.reshape(S, -1, d), V, out=rows.reshape(S, -1, d))
    return (fr, rows, left, *spare)


def _basis_gram(L: DbcLindbladian, rho: np.ndarray, p: float,
                fr: _Frame | None = None) -> Tuple[_Frame, np.ndarray, np.ndarray]:
    """The frame of _basis_rows, its C_m made contiguous, (S, n, K, d, d), and
    the real G = Re conj(C) (theta o C)^T flattened over (j, a, c), (S, n, n):
    the metric Gram matrices <U_m, D_{p,rho} U_n>. D maps the real span of the
    basis into itself, so Im G is round-off, and G is symmetric up to it. C
    is a view of the workspace, in the left factor's slot; theta o C is in the rows'."""
    fr, rows, C = _basis_rows(L, rho, p, fr)
    moved = rows.transpose(0, 2, 3, 1, 4)  # (S, m, j, a, c)
    C = C.reshape(moved.shape)
    C[...] = moved
    return fr, C, _real_gram(C, np.multiply(fr.theta, C, out=rows.reshape(C.shape)))


def _real_gram(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Re <X_m, Y_n> = Re sum conj(X_m) Y_n for contiguous complex stacks
    (S, n, ...), shape (S, n, n): one real product of their float views,
    half the flops of the complex product."""
    S, n = X.shape[:2]
    return X.reshape(S, n, -1).view(float) @ np.swapaxes(Y.reshape(S, n, -1).view(float), -1, -2)


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
    momenta: np.ndarray  # (N, J, d, d), over L.jumps
    action_per_step: Tuple[float, ...]
    action: float
    endpoint_residual: float
    continuity_residual: float
    converged: bool
    steps: int
    evaluations: int
    stop: str
    gradient_gap: float  # largest relative gap of the energy gradient self-test


class _PathEnergy:
    """Discrete path energy over the interior states of a path rho0 -> rho1.

    State k is the linear interpolant plus sum_m x[k, m] U_m over the
    trace-free Hermitian basis, with x = 0 at both ends, so the endpoints are
    exact and step k moves by b_k = delta + x[k+1] - x[k] in basis
    coordinates. For a fixed path the best momenta of step k are
    [gbar_k]_j dj U_k with D_{p,gbar_k} U_k = (gamma_{k+1} - gamma_k) / h at
    the floored midpoint gbar_k, so the action is sum_k b_k^T G_k^-1 b_k / h
    with G_k the metric Gram matrix (_basis_gram) at gbar_k.
    """

    def __init__(self, L: DbcLindbladian, rho0: np.ndarray, rho1: np.ndarray,
                 p: float, N: int):
        L.require_jumps()  # before the basis, which d = 1 does not have
        self.L, self.p, self.N, self.h = L, float(p), N, 1.0 / N
        self.basis, _ = _basis_frame(L.d)
        t = (np.arange(N + 1) / N)[:, None, None]
        rho0, rho1 = la.herm(rho0), la.herm(rho1)
        self.linear = (1.0 - t) * rho0 + t * rho1
        self.delta = self.coords(rho1 - rho0) / N
        self.last = (None, None)  # (bytes of y, what evaluate returned) of its last call
        self.start = None  # what selftest keeps of the linear path

    def coords(self, X: np.ndarray) -> np.ndarray:
        """Re <U_m, X> for each Hermitian matrix of a stack."""
        n, d = len(self.basis), self.L.d
        return np.real(X.reshape(-1, d * d) @ self.basis.reshape(n, d * d).conj().T)

    def evaluate(self, y: np.ndarray, paths: int | None = None):
        """For K paths y (K, n), or one (n,) as K = 1: the states (K, N+1, d, d),
        the step coordinates b and the coefficients c_k = G_k^-1 b_k of U_k,
        (K, N, n), the frame of the K N midpoints, CU_k = sum_n c_kn C_kn over
        the eigenframe gradients C of the basis (_basis_gram) on the first
        paths, all K by default, and the K N Gram matrices G_k. The frame is
        built once, then each block of midpoints (_blocks) goes from C to G,
        a Cholesky test of G_k > 0 (_gram_cholesky, which names a failing step
        and path), the solve for c_k and CU; C does not leave the block."""
        N, n, K, d = self.N, len(self.basis), 1 if np.ndim(y) == 1 else len(y), self.L.d
        x = np.zeros((K, N + 1, n))
        x[:, 1:-1] = np.reshape(y, (K, N - 1, n))
        gammas = self.linear + (x @ self.basis.reshape(n, d * d)).reshape(K, N + 1, d, d)
        b = self.delta + x[:, 1:] - x[:, :-1]
        mid = _floored((0.5 * (gammas[:, :-1] + gammas[:, 1:])).reshape(K * N, d, d))
        fr, span = _Frame(self.L, mid[:, None], self.p), _blocks(self.L, K * N)
        G, c, CU = np.empty((K * N, n, n)), np.empty((K * N, n, 1)), []
        for lo in span:  # r: the block's midpoints on the first paths
            hi, r = lo + span.step, max(0, min(lo + span.step, N * (paths or K)) - lo)
            _, C, G[lo:hi] = _basis_gram(self.L, mid[lo:hi], self.p, fr[lo:hi])
            _gram_cholesky(G[lo:hi], lambda i: f"step {(lo + i) % N}"
                           + (f" of path {(lo + i) // N}" if K > 1 else ""))
            c[lo:hi] = np.linalg.solve(G[lo:hi], b.reshape(K * N, n, 1)[lo:hi])
            CU.append(c[lo:lo + r].reshape(r, 1, n) @ C.reshape(len(C), n, -1)[:r])
        CU = np.concatenate(CU).reshape((-1, 1) + fr.theta.shape[2:])
        out = gammas, b, c.reshape(K, N, n), fr, CU, G
        self.last = (np.asarray(y, dtype=float).tobytes(), out)
        return out

    def _energy(self, out):
        """Energies (K,) of the K paths of an evaluation, and the gradients
        (P, (N-1) n) of the P paths whose CU it holds."""
        h = self.h
        _, b, c, fr, CU, _ = out
        value = np.sum((b * c).reshape(len(b), -1), axis=1) / h
        c = c[:len(CU) // self.N]
        # d(value)/d(gbar_k) = -(1/h) d/dgbar <U_k, D U_k> at fixed U_k, the
        # state derivative of the kinetic form
        M = fr[:len(CU)].state_derivative(CU)[:, 0]
        S = (-0.5 / h * self.coords(M)).reshape(c.shape)
        grad = 2.0 / h * (c[:, :-1] - c[:, 1:]) + S[:, :-1] + S[:, 1:]
        return value, grad.reshape(len(c), -1)

    def value_and_grad(self, y: np.ndarray):
        """Energies (K,) and gradients (K, n) at a stack of paths y (K, n),
        or a float and (n,) at one path (n,)."""
        value, grad = self._energy(self.evaluate(y))
        return (float(value[0]), grad[0]) if np.ndim(y) == 1 else (value, grad)

    def path(self, out):
        """(states, b, c, B) of the first path of an evaluation, as copies:
        its N + 1 states, its step coordinates and coefficients, and its
        momenta B_k = [gbar_k]_j dj U_k over the folded jumps, (N, J', d, d)."""
        gammas, b, c, fr, CU, _ = out
        N = self.N
        W = fr.W[:N]
        B = (W @ (fr.theta[:N] * CU[:N]) @ la.dagger(W))[:, 0] / self.h
        return gammas[0].copy(), b[0].copy(), c[0].copy(), B

    def selftest(self) -> float:
        """la.check_gradient at the linear path y = 0, where the descent
        starts; returns the largest relative gap. The check's first path is
        y = 0 itself, and the check reads the gradient there alone, so of the
        seven paths only that one's gradient is formed: the other six give
        their values. Of the evaluation the energy keeps only the first
        path's value, gradient, Gram matrices and path (self.start), which
        serve the descent's first call, the preconditioner and, for a
        descent that stops at its start, the rebuild."""
        def checked(ys):
            out = self.evaluate(ys, paths=1)
            value, grad = self._energy(out)
            self.start = value[0], grad[0], out[-1][:self.N].copy(), self.path(out)
            self.last = (None, None)  # release the seven paths
            return value, grad

        return la.check_gradient(checked, np.zeros((self.N - 1) * len(self.basis)),
                                 "path energy")

    def preconditioner(self, G: np.ndarray) -> np.ndarray:
        """T = L^-T, upper triangular, with H = L L^T factored block by block,
        so that T T^T = H^-1 for H = (2/h) D^T blockdiag(G_k^-1) D: the Hessian
        with the Gram matrices G (N, n, n) of the linear path held fixed, D
        the step-difference map y -> b - delta; exact at p = 2, where the G_k
        do not depend on the state. H is block tridiagonal: L takes one
        Cholesky factor per interior state, of its Schur complement S, and an
        S with none raises SingularMetric naming the step that made it so."""
        N, n = self.N, len(self.basis)
        Ginv = 2.0 / self.h * np.linalg.inv(G)
        Linv = np.zeros(((N - 1) * n, (N - 1) * n))
        B = np.zeros((n, n))
        for k in range(N - 1):
            S = Ginv[k] + Ginv[k + 1] - B @ B.T
            try:
                Li = np.linalg.inv(np.linalg.cholesky(S))
            except np.linalg.LinAlgError:
                raise SingularMetric(f"path Hessian is not positive definite once step {k + 1} "
                                     f"is added (Schur complement at path state {k + 1})")
            r = k * n
            if k:  # row k of L^-1 is [Li B (row k - 1), Li]
                Linv[r:r + n, :r] = (Li @ B) @ Linv[r - n:r, :r]
            Linv[r:r + n, r:r + n] = Li
            B = Ginv[k + 1] @ Li.T
        return Linv.T


def w2p_solve(L: DbcLindbladian, rho0: np.ndarray, rho1: np.ndarray, p: float,
              opts: W2Opts = W2Opts()) -> Tuple[float, TransportPath]:
    """Transport distance W_{2,p} by minimizing the discrete path energy.

    The unknowns are the interior states of an N-step path; the endpoints
    are rho0 and rho1 exactly, and the momenta of each step are eliminated in
    closed form (see _PathEnergy). The energy gradient is self-tested once
    per solve, at the linear path, whose evaluation answers the descent's
    first call when it is made at z = 0. One start of the shared BFGS
    (linalg.minimize, ftol = tol * 1e-3, whitened) descends z -> E(T z) from
    z = 0, where T T^T is the inverse Hessian (_PathEnergy.preconditioner),
    so its first trial is the Newton step -T^T grad E, capped at length 1,
    and its gtol test bounds a Newton decrement. Another such T rotates z,
    which only gtol's max |g| sees; at p = 2 the whitened start gradient is
    round-off (about 3e-16; GTOL is 1e-12). Midpoints are eigenvalue-floored.
    Returns (distance, path), with the momenta rebuilt as
    B_k = [gbar_k]_j dj U_k on the jumps of L (_unfold) and the continuity
    residual taken over them; the path is converged when the start stopped on
    "ftol" or "gtol", and carries its steps, evaluations (the served first
    call among them), stop and the self-test's largest relative gradient gap.
    """
    problem = _PathEnergy(L, rho0, rho1, p, opts.N)
    y = np.zeros((opts.N - 1) * len(problem.basis))
    steps, evaluations, stop, gap = 0, 0, "gtol", 0.0  # an empty gradient is 0
    if y.size:  # a one-step path has no interior state to optimize
        gap = problem.selftest()
        value0, grad0, G0, start = problem.start
        T = problem.preconditioner(G0)
        served = [(np.array([value0]), grad0[None] @ T)]

        def energy(z):  # E(T z) and its gradient T^T grad E, for a stack z
            if served and not z.any():  # the first call, at the start z = 0
                return served.pop()
            value, grad = problem.value_and_grad(z @ T.T)
            return value, grad @ T

        res = minimize(energy, y[None], ftol=opts.tol * 1e-3, whitened=True)
        y, stop = (res.x @ T.T)[0], res.stops[0]
        steps, evaluations = int(res.iterations[0]), int(res.evaluations[0])
    h = problem.h
    key, last = problem.last  # the optimizer's, when made at the point it returned
    if y.size and not y.any():  # the descent stopped at its start
        gammas, b, c, B = start
    else:
        gammas, b, c, B = problem.path(last if key == y.tobytes() else problem.evaluate(y))
    B = _unfold(L, B)
    actions = np.sum(b * c, axis=1) / h ** 2
    Vd = L.derived(("adjoint_jumps",), lambda: la.dagger(np.array([V for V, _ in L.jumps])))
    flow = (gammas[1:] - gammas[:-1]) / h + np.sum(B @ Vd - Vd @ B, axis=-3)  # + div B
    path = TransportPath(
        states=tuple(gammas),
        momenta=B,
        action_per_step=tuple(float(a) for a in actions),
        action=float(np.sum(actions) * h),
        endpoint_residual=la.frob(gammas[-1] - la.herm(rho1)),
        continuity_residual=float(np.max(np.linalg.norm(flow, axis=(1, 2)))),
        converged=stop in ("ftol", "gtol"),
        steps=steps, evaluations=evaluations, stop=stop, gradient_gap=gap,
    )
    return float(np.sqrt(max(path.action, 0.0))), path


def _unfold(L: DbcLindbladian, B: np.ndarray) -> np.ndarray:
    """Momenta (..., K, d, d) of the folded jumps as momenta (..., J, d, d)
    of L.jumps, in their order: for an exact pair (j, k) of L.jump_pairs,
    B_j = B / sqrt(2) and B_k = -B_j†, since dk U = -(dj U)† and [rho]_{-w}
    X† = ([rho]_w X)†; every other jump keeps its B."""
    out = np.empty(B.shape[:-3] + (len(L.jumps),) + B.shape[-2:], dtype=B.dtype)
    for i, (j, k) in enumerate(L.jump_pairs):
        if k is None:
            out[..., j, :, :] = B[..., i, :, :]
        else:
            out[..., j, :, :] = B[..., i, :, :] / np.sqrt(2.0)
            out[..., k, :, :] = -la.dagger(out[..., j, :, :])
    return out


def trace_distance_prefactor(L: DbcLindbladian, p: float) -> float:
    """Constant C with ||rho1 - rho0||_1 <= C W_{2,p}(rho0, rho1).

    Built from the integral lower bound on the inverse multiplication kernel;
    the normalization constant sin((p-1)pi)/pi * int s^(p-2) 2/(1+2s) ds has
    the closed form 2^(2-p). Uniformly bounded over p in (1, 2], and
    ValueError for any other p. C sums the squared operator norms of L.jumps:
    a function of the jump set, not of the generator alone.
    """
    p = _metric_p(p)
    L.require_jumps()
    phat = _hconj(p)
    C_p = 2.0 ** (2.0 - p)
    s = L.sigma_eig[0]
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
    """||grad U||^2_{p,rho} = sum_j <dj U, [rho]_{p,w_j} dj U> for Hermitian U."""
    fr = _Frame(L, rho, p)
    return float(np.sum(fr.theta * np.abs(fr.eig(fr.grad(U), fr.P)) ** 2))


def _geodesic_rhs(L: DbcLindbladian, rho: np.ndarray, U: np.ndarray, p: float):
    """(rho_dot, U_dot) of the Hamiltonian geodesic flow, whose Hamiltonian is
    half the kinetic form sum_j <dj U, [rho]_j dj U>. U_dot is made trace-free
    on its diagonal."""
    fr = _Frame(L, rho, p)
    C = fr.eig(fr.grad(U), fr.P)
    div = fr.div(fr.uneig(fr.theta * C, fr.P))
    rho_dot = (div + la.dagger(div)) * -0.5  # the Hermitian part of -div
    U_dot = fr.state_derivative(C) * -0.5
    diag = _diagonal(U_dot)
    diag -= diag.sum(axis=-1, keepdims=True) / U.shape[-1]
    return rho_dot, U_dot


def geodesic_shoot(L: DbcLindbladian, rho0: np.ndarray, U0: np.ndarray,
                   p: float, T: float, steps: int) -> List[GeodesicState]:
    """Integrate the constant-speed geodesic equations from (rho0, U0):
    classical fourth-order one-step integration, steps steps of length
    T / steps over T > 0 (ValueError otherwise). A step with a stage outside
    the positive cone, or that ends below the eigenvalue floor FLOOR, raises
    LeftPositiveCone naming the step and the lowest eigenvalue.
    """
    if not (T > 0.0 and steps >= 1):
        raise ValueError(f"geodesic_shoot needs T > 0 and steps >= 1, "
                         f"got T = {T}, steps = {steps}")
    L.require_jumps()
    if abs(np.trace(U0)) > 1e-12 * max(1.0, la.frob(U0)):
        raise KernelComponent("initial cotangent must be traceless")
    rho = la.herm(rho0)
    U = la.herm(U0)
    out = [GeodesicState(rho, U)]
    dt = T / steps
    for step in range(1, steps + 1):
        try:
            rho, U = _rk4(L, rho, U, p, dt)
        except SingularState:  # rho is still the step's start
            raise LeftPositiveCone(
                f"geodesic left the positive cone in step {step} of {steps}: an RK4 stage from "
                f"lowest eigenvalue {np.linalg.eigvalsh(rho)[0]:.3e} is not full rank") from None
        lam = np.linalg.eigvalsh(rho)[0]
        if lam < FLOOR:
            raise LeftPositiveCone(
                f"geodesic left the positive cone in step {step} of {steps}: lowest "
                f"eigenvalue {lam:.3e} below FLOOR = {FLOOR:.0e}")
        out.append(GeodesicState(rho, U))
    return out


def _rk4(L, rho, U, p, dt):
    """One classical RK4 step of the geodesic flow. The right-hand side is
    Hermitian bit for bit, so Hermitian (rho, U) stay so with no projection."""
    half = 0.5 * dt
    k1r, k1u = _geodesic_rhs(L, rho, U, p)
    k2r, k2u = _geodesic_rhs(L, rho + half * k1r, U + half * k1u, p)
    k3r, k3u = _geodesic_rhs(L, rho + half * k2r, U + half * k2u, p)
    k4r, k4u = _geodesic_rhs(L, rho + dt * k3r, U + dt * k3u, p)
    return (rho + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r),
            U + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u))
