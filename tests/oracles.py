"""Reference formulas that only the tests use.

Each is a direct, slower or independent form of something the library
computes another way, or a textbook quantity that a test states an identity
with: Kernel2 and double_sum_apply are the generic Daleckii-Krein double
operator sum, with fp_divdiff_kernel = 1/theta_p, and dirichlet_form_per_jump
the Dirichlet form's jump representation through them, one jump at a time,
which dirichlet_form_representation computes on the spectral frame;
MetricKernel is the single-jump form of the spectral frame
transport._Frame, and onsager_apply its sum over every jump of a model; theta_p_xy is the frame's grid function kernels.theta_p_log
on (x, y), with the frame's tilt, and theta_p_kernel the same as a
two-variable kernel; dk_tensors forms the Daleckii-Krein tensors that
the library contracts by matrix products; divided_difference is the
generic first divided difference of a one-variable kernel; the s-inner
products, the weighted kernel superoperator, the variance, the entropy production, Gamma_2 and the
KMS adjoint of a derivation are the objects the tested identities are
written in;
unfolded is a model on which the frame contracts over every jump, and
onsager_matrix_units the Onsager operator on the matrix units over them;
check_gradient_sequential is linalg.check_gradient one point per call;
path_hessian is the path energy's Hessian assembled densely, whose inverse
transport._PathEnergy.preconditioner factors block by block;
ratio_of_witness and ricci_rayleigh evaluate an estimate's witness afresh;
two_point_beckner is the tilted two-point Beckner constant in mpmath;
product_model is the tensor product of models, built from their jumps;
alicki_decompose extracts jumps from a generator alone, independently of
the closed-form jumps semigroup.depolarizing writes down;
psd_project builds positive semidefinite test inputs.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from qbeckner import constants as ct
from qbeckner import dirichlet as dh
from qbeckner import entropy as ent
from qbeckner import linalg as la
from qbeckner import ricci as rc
from qbeckner import semigroup as sg
from qbeckner import transport as tp
from qbeckner.errors import (DomainViolation, GradientCheckFailed, NotPsd, ResidualTooLarge,
                             SingularState)
from qbeckner.kernels import _is_same, stable_powdiff, theta_p_log


# ---------------------------------------------------------------------------
# Two-variable kernels and double operator sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel2:
    """A two-variable scalar kernel with an optional partial derivative in x.

    ``f`` and ``dx`` are vectorized over broadcastable arrays and are
    responsible for their own degenerate branches; dx may take F = f(x, y).
    ``domain_min`` is the largest value that must stay strictly below the
    spectrum (``-inf`` disables the check); ``allow_boundary`` admits
    eigenvalues equal to ``domain_min``.
    """

    name: str
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dx: Optional[Callable[..., np.ndarray]] = None
    domain_min: float = -np.inf
    allow_boundary: bool = True

    def check_domain(self, eigenvalues: np.ndarray) -> None:
        """DomainViolation unless the spectrum lies in the kernel's domain."""
        lo = float(np.min(eigenvalues))
        if not (lo >= self.domain_min if self.allow_boundary else lo > self.domain_min):
            raise DomainViolation(
                f"kernel {self.name}: eigenvalue {lo:.3e} outside domain "
                f"(min {self.domain_min}, boundary allowed: {self.allow_boundary})"
            )


def fp_divdiff_kernel(p) -> Kernel2:
    """f_p^[1](x, y), the divided difference of x^(p-1)/(p-1), on (0, inf):
    the reciprocal of theta_p."""
    a = float(p) - 1.0
    return Kernel2(f"fp_dd({p})", f=lambda x, y: stable_powdiff(a, x, y) / a,
                   domain_min=0.0, allow_boundary=False)


def double_sum_apply(k2: Kernel2, A, B, X):
    """Sum_{i,k} f(a_i, b_k) P_i X Q_k over the eigenprojections of A and B."""
    wA, VA = la.herm_eigh(A)
    wB, VB = la.herm_eigh(B)
    k2.check_domain(np.concatenate([wA, wB]))
    F = np.asarray(k2.f(wA[:, None], wB[None, :]), dtype=float)
    Xt = VA.conj().T @ X @ VB
    return VA @ (F * Xt) @ VB.conj().T


def dirichlet_form_per_jump(L, X, p) -> float:
    """(p^2/4) sum_j <C_j, f_p^[1](A_j, B_j)[C_j]> over every jump of L.jumps,
    unfolded, with GX = sigma^(1/2p) X sigma^(1/2p), C_j = sigma^(1/2p) dj X
    sigma^(1/2p) and the tilted A_j = e^(w_j/2p) GX, B_j = e^(-w_j/2p) GX:
    one pair of eigendecompositions per jump, the Dirichlet form's jump
    representation before it moved to the spectral frame."""
    half = la.matrix_power_hermitian(L.sigma, 1.0 / (2.0 * p))
    GX = la.herm(half @ X @ half)
    fp = fp_divdiff_kernel(p)
    total = 0.0
    for V, omega in L.jumps:
        C = half @ (V @ X - X @ V) @ half
        A, B = np.exp(omega / (2.0 * p)) * GX, np.exp(-omega / (2.0 * p)) * GX
        total += np.real(la.hs_inner(C, double_sum_apply(fp, A, B, C)))
    return (p * p / 4.0) * total


# ---------------------------------------------------------------------------
# Metric kernel, one jump at a time
# ---------------------------------------------------------------------------


class MetricKernel:
    """Multiplication kernel [rho]_{p,w} and its inverse, evaluated spectrally.

    apply(A)  = Gamma^(1/phat) theta_p(e^(w/2p) Y, e^(-w/2p) Y)[Gamma^(1/phat) A]
    with Y = Gamma^(-1/phat)(rho); solve(A) inverts apply exactly through the
    reciprocal divided-difference kernel. At p = 2 this is Gamma_sigma.
    """

    def __init__(self, rho, sigma, p, omega=0.0):
        la.full_rank_eigh(sigma)
        s = 1.0 / (2.0 * tp._hconj(p))
        self._s_pow = la.matrix_power_hermitian(sigma, s)
        self._s_ipow = la.matrix_power_hermitian(sigma, -s)
        lam, self.V = la.herm_eigh(la.herm(self._s_ipow @ rho @ self._s_ipow))
        if np.min(lam) <= 0.0:
            raise SingularState("metric kernel needs a full-rank state")
        a = np.exp(omega / (2.0 * p)) * lam
        b = np.exp(-omega / (2.0 * p)) * lam
        self._F = theta_p_xy(p, a[:, None], b[None, :])[0]

    def _schur(self, S, A, F):
        tilted = self.V.conj().T @ (S @ A @ S) @ self.V
        return S @ (self.V @ (F * tilted) @ self.V.conj().T) @ S

    def apply(self, A):
        return self._schur(self._s_pow, A, self._F)

    def solve(self, A):
        return self._schur(self._s_ipow, A, 1.0 / self._F)


def theta_p_xy(p, x, y, t=0.0):
    """theta_p(e^t x, e^-t y) and its partials in x and in y, on broadcastable
    x, y > 0 and t: kernels.theta_p_log at h = (log x - log y)/2 + t and m =
    (log x + log y)/2, with its log-partials divided by x and y. These are the
    frame's arguments for lam_x, lam_y and t = w_j/2p, bit for bit, and they
    make theta_p(x, y) = theta_p(y, x) bit for bit at t = 0."""
    hx, hy = 0.5 * np.log(x), 0.5 * np.log(y)
    theta, dx, dy = theta_p_log(p, (hx - hy) + t, hx + hy)
    return theta, dx / x, dy / y


def theta_p_kernel(p) -> Kernel2:
    """theta_p as a two-variable kernel with its d/dx rule (theta_p_xy), for
    double_sum_apply and linalg.partial_dd_tensor."""
    return Kernel2(f"theta({p})", f=lambda x, y: theta_p_xy(p, x, y)[0],
                   dx=lambda x, y: theta_p_xy(p, x, y)[1],
                   domain_min=0.0, allow_boundary=False)


def dk_tensors(fr):
    """Daleckii-Krein tensors (W1, W2) of theta_p at a spectral frame,
    (..., J, d, d, d): its first and second partial divided differences on
    the tilted spectra, each weighted by its tilt, W1[j,a,b,c] =
    (theta[a,c] - theta[b,c]) / (lam_a - lam_b) and W2[j,a,b,c] =
    (theta[a,b] - theta[a,c]) / (lam_b - lam_c), with the frame's partials on
    the diagonals a = b and b = c and their mean over the pair's two ends at
    the near-ties (_Frame.gaps). hessian_matrix and _Frame.state_derivative
    contract them by matrix products instead."""
    th, (ties, inv), (d1, d2) = fr.theta, fr.gaps, fr.partials
    W1 = (th[..., :, None, :] - th[..., None, :, :]) * inv[..., None, :, :, None]
    W2 = (th[..., :, :, None] - th[..., :, None, :]) * inv[..., None, None, :, :]
    i = np.arange(inv.shape[-1])
    W1[..., i, i, :], W2[..., :, i, i] = d1, d2
    if ties.any():
        (*at, x, y), j = np.nonzero(ties), slice(None)
        W1[(*at, j, x, y)] = 0.5 * (d1[(*at, j, x)] + d1[(*at, j, y)])
        W2[(*at, j, j, x, y)] = 0.5 * (d2[(*at, j, j, x)] + d2[(*at, j, j, y)])
    return W1, W2


def divided_difference(k, dk) -> Kernel2:
    """First divided difference k^[1](x, y) of a one-variable function k,
    from two evaluations of k, with the derivative rule dk at the mean when
    |x - y| <= SAME_TOL * scale; the constants evaluator forms the same
    quotient from the f(a) it holds."""

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        same = _is_same(x, y)
        m = 0.5 * (x + y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            far = (k(x) - k(y)) / np.where(same, 1.0, x - y)
        return np.where(same, dk(m), far)

    return Kernel2("divided difference", f=f)


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


def kernel_matrices(L, rho, p):
    """Dense superoperator of X -> [rho]_{p,w_j} X for every jump of the
    folded stack L.jump_stack, (K, d^2, d^2): the spectral frame applied to
    every matrix unit."""
    d, K = L.d, len(L.jump_stack[1])
    units = np.swapaxes(np.eye(d * d).reshape(d * d, d, d), 1, 2)
    fr = tp._Frame(L, rho, p)
    out = fr.apply(np.broadcast_to(units[:, None], (d * d, K, d, d)))
    return np.array([la.vec_columns(out[:, j]) for j in range(K)])


# ---------------------------------------------------------------------------
# The metric over every jump, unfolded
# ---------------------------------------------------------------------------


def unfolded(L):
    """A copy of L whose jump stack is all of L.jumps, each jump its own
    entry of jump_pairs: every frame, Gram matrix, Hessian, path energy and
    solve on it contracts over the J jumps as they are, the sums that the
    folded stack (DbcLindbladian.jump_stack) must reproduce."""
    U = sg.DbcLindbladian(sigma=L.sigma, sigma_eig=L.sigma_eig, jumps=L.jumps,
                          generator=L.generator)
    U.__dict__["jump_pairs"] = tuple((j, None) for j in range(len(L.jumps)))
    U.__dict__["jump_stack"] = (np.array([V for V, _ in L.jumps]),
                                np.array([omega for _, omega in L.jumps]))
    return U


def onsager_matrix_units(L, rho, p):
    """Dense superoperator of the Onsager operator with column k the image of
    the matrix unit with vec index k under sum_j dj† ([rho]_j dj .) over
    every jump of L: the complex-linear form, with no Hermitian part taken."""
    d = L.d
    units = np.swapaxes(np.eye(d * d).reshape(d * d, d, d), 1, 2)
    fr = tp._Frame(unfolded(L), rho, p)
    return la.vec_columns(-fr.div(fr.apply(fr.grad(units))))


# ---------------------------------------------------------------------------
# Onsager operator and geodesics
# ---------------------------------------------------------------------------


def onsager_apply(L, rho, p, U):
    """D_{p,rho} U = sum_j dj† ([rho]_{p,w_j} dj U) with dj U = [V_j, U] and
    dj† X = [V_j†, X], one MetricKernel per jump of L.jumps, unfolded, and
    the Hermitian part taken, as _Frame.onsager takes it on the folded
    stack: no product of the frame's layouts enters it."""
    out = np.zeros((L.d, L.d), dtype=complex)
    for V, omega in L.jumps:
        X = MetricKernel(rho, L.sigma, p, omega).apply(V @ U - U @ V)
        Vd = V.conj().T
        out += Vd @ X - X @ Vd
    return la.herm(out)


def onsager_tensor(L, rho, p, nu1, nu2) -> float:
    """Riemannian metric g_{p,rho}(nu1, nu2) = <D^+ nu1, nu2> on tangents."""
    U1 = tp.onsager_pinv_apply(L, rho, p, nu1)
    return float(np.real(la.hs_inner(U1, nu2)))


def geodesic_hamiltonian(L, rho, U, p) -> float:
    """Half the kinetic form <U, D_{p,rho} U>, conserved along geodesics."""
    return 0.5 * float(np.real(la.hs_inner(onsager_apply(L, rho, p, U), U)))


# ---------------------------------------------------------------------------
# Weighted inner products and kernels
# ---------------------------------------------------------------------------


def s_inner(X, Y, sigma, s) -> complex:
    """tr(sigma^s X† sigma^(1-s) Y) for full-rank sigma."""
    la.full_rank_eigh(sigma)
    ss = la.matrix_power_hermitian(sigma, s)
    s1 = la.matrix_power_hermitian(sigma, 1.0 - s)
    return complex(np.trace(ss @ X.conj().T @ s1 @ Y))


def kms_inner(X, Y, sigma) -> complex:
    return s_inner(X, Y, sigma, 0.5)


def gns_inner(X, Y, sigma) -> complex:
    return s_inner(X, Y, sigma, 1.0)


def f_norm_sq(X, sigma, f) -> float:
    """<X, R_sigma f(Delta_sigma) X>."""
    return float(np.real(la.f_inner(X, X, la.full_rank_eigh(sigma), f)))


def j_kernel_super(sigma, f):
    """Weighted kernel operator R_sigma f(Delta_sigma) as a superoperator."""
    w, V = la.full_rank_eigh(sigma)
    weights = f(w[:, None] / w[None, :]) * w[None, :]
    W = np.kron(V.conj(), V)
    return (W * weights.flatten(order="F")) @ W.conj().T


# ---------------------------------------------------------------------------
# Variance, entropy production and the Gamma calculus
# ---------------------------------------------------------------------------


def variance(X, sigma) -> float:
    """Var_sigma(X) = ||X||_{2,sigma}^2 - ||X||_{1,sigma}^2."""
    return ent._clamp(ent.weighted_p_norm(X, sigma, 2.0) ** 2
                      - ent.weighted_p_norm(X, sigma, 1.0) ** 2)


def entropy_production(L, rho, p) -> float:
    """(4/p^2) E_{p,L}(Gamma^{-1} rho) = -d/dt F_{p,sigma}(rho_t) at t = 0."""
    w = np.linalg.eigvalsh(la.herm(rho))
    if np.min(w) < la.FULL_RANK_FLOOR:
        raise SingularState("entropy production needs a full-rank state")
    X = ent.relative_density(rho, L.sigma)
    return (4.0 / p**2) * dh.dirichlet_form(L, X, p)


def carre_du_champ_2(L, X, Y=None):
    """Gamma_2(X, Y) = -(Gamma(X, L Y) + Gamma(L X, Y) - L Gamma(X, Y)) / 2."""
    if Y is None:
        Y = X
    return -0.5 * (dh.carre_du_champ(L, X, L.apply(Y))
                   + dh.carre_du_champ(L, L.apply(X), Y)
                   - L.apply(dh.carre_du_champ(L, X, Y)))


def kms_adjoint_derivation(V, omega, X):
    """e^(-w/2) V† X - e^(w/2) X V†, the KMS adjoint of X -> [V, X]."""
    Vd = V.conj().T
    return np.exp(-omega / 2.0) * Vd @ X - np.exp(omega / 2.0) * X @ Vd


# ---------------------------------------------------------------------------
# Gradient self-test, one point per call
# ---------------------------------------------------------------------------


def check_gradient_sequential(fun_and_grad, x, what) -> float:
    """linalg.check_gradient with its seven points evaluated one at a time:
    fun_and_grad maps one point (n,) to a float and a gradient (n,)."""
    rng = np.random.default_rng(0)
    _, g0 = fun_and_grad(x)
    eps = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    worst = 0.0
    for _ in range(3):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        fp, _ = fun_and_grad(x + eps * v)
        fm, _ = fun_and_grad(x - eps * v)
        fd = (fp - fm) / (2.0 * eps)
        an = float(g0 @ v)
        scale = max(1.0, abs(fd), abs(an))
        if abs(fd - an) > 1e-4 * scale:
            raise GradientCheckFailed(
                f"{what} gradient self-test failed: fd={fd:.6e} an={an:.6e}")
        worst = max(worst, abs(fd - an) / scale)
    return worst


# ---------------------------------------------------------------------------
# Witnesses of estimates, and test inputs
# ---------------------------------------------------------------------------


def path_hessian(problem, G):
    """H = (2/h) D^T blockdiag(G_k^-1) D of a transport._PathEnergy, with
    its Gram matrices G (N, n, n) held fixed, as a dense ((N-1) n, (N-1) n)
    matrix: D is the step-difference map, so H is block tridiagonal, with
    (2/h) (G_k^-1 + G_k+1^-1) on the diagonal and -(2/h) G_k+1^-1 beside it."""
    N, n = problem.N, len(problem.basis)
    Ginv = 2.0 / problem.h * np.linalg.inv(G)
    H = np.zeros((N - 1, n, N - 1, n))
    i = np.arange(N - 1)
    H[i, :, i] = Ginv[:-1] + Ginv[1:]
    H[i[:-1], :, i[1:]] = H[i[1:], :, i[:-1]] = -Ginv[1:-1]
    return H.reshape((N - 1) * n, -1)


def ratio_of_witness(L, est) -> float:
    """The Rayleigh ratio of an uncapped constant estimate's witness."""
    return ct._ratio_and_grad(L, [(est.kind, est.param)])(est.witness)[0]


def ricci_rayleigh(L, est, p) -> float:
    """Hess[U, U] / <U, D_{p,rho} U> at a ricci estimate's worst state and
    direction."""
    U, rho = est.worst_direction, est.worst_state
    den = float(np.real(la.hs_inner(U, onsager_apply(L, rho, p, U))))
    return rc.hessian_form(L, rho, p, U) / den


# ---------------------------------------------------------------------------
# Two-point Beckner constant
# ---------------------------------------------------------------------------


def two_point_beckner(pi, p, dps=40) -> float:
    """alpha_p of the two-point chain with weights (pi, 1 - pi), in units of
    its spectral gap: the minimum over x of (p^2/4)(m_p - m_{p-1}) / (m_p - 1),
    m_r = pi x^r + (1 - pi) y^r, on the densities pi x + (1 - pi) y = 1.

    With x = 1 + h, h runs over [-1, (1 - pi)/pi], the ends included (a
    density may vanish at one point); h = 0 is the removable singularity
    with limit p/2. A scan of the closed interval brackets the least grid
    value and golden-section search in dps-digit mpmath narrows it to
    10^(-dps/2). The ratio is evaluated with 3 dps digits, since m_p - 1 and
    m_p - m_{p-1} cancel to O(h^2) as h -> 0.
    """
    import mpmath as mp

    with mp.workdps(dps):
        pi, p = mp.mpf(pi), mp.mpf(p)

        def ratio(h):
            if h == 0:
                return p / 2
            with mp.workdps(3 * dps):
                x, y = 1 + h, max(1 - pi * h / (1 - pi), 0)  # y = 0 at the right end
                m_p = pi * x ** p + (1 - pi) * y ** p
                m_q = pi * x ** (p - 1) + (1 - pi) * y ** (p - 1)
                return p * p / 4 * (m_p - m_q) / (m_p - 1)

        grid = mp.linspace(-1, (1 - pi) / pi, 401)
        i = min(range(len(grid)), key=lambda k: ratio(grid[k]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        g = (mp.sqrt(5) - 1) / 2
        u, v = hi - g * (hi - lo), lo + g * (hi - lo)
        fu, fv = ratio(u), ratio(v)
        while hi - lo > mp.mpf(10) ** (-dps // 2):
            if fu <= fv:
                hi, v, fv = v, u, fu
                u = hi - g * (hi - lo)
                fu = ratio(u)
            else:
                lo, u, fu = u, v, fv
                v = lo + g * (hi - lo)
                fv = ratio(v)
        return float(min(fu, fv, ratio(grid[i])))


PSD_FLOOR = 1e-10


def product_model(factors):
    """The generator of the product semigroup of factors on the tensor
    product of their spaces, sum_i I ⊗ .. ⊗ L_i ⊗ .. ⊗ I, built by
    build_from_jumps with each factor's jumps lifted to the product and
    sigma the product of theirs."""
    dims = [F.d for F in factors]
    jumps, sigma = [], np.eye(1)
    for i, F in enumerate(factors):
        before, after = np.eye(int(np.prod(dims[:i]))), np.eye(int(np.prod(dims[i + 1:])))
        jumps += [sg.JumpTerm(np.kron(np.kron(before, V), after), w) for V, w in F.jumps]
        sigma = np.kron(sigma, F.sigma)
    return sg.build_from_jumps(sigma, jumps)


def psd_project(A, floor=PSD_FLOOR):
    """Clamp eigenvalues in (-floor, 0) to zero; deeper negatives are errors."""
    w, V = la.herm_eigh(A)
    if np.min(w) < -floor:
        raise NotPsd(f"eigenvalue {np.min(w):.3e} below -{floor:.1e}")
    w = np.maximum(w, 0.0)
    return (V * w) @ V.conj().T


# ---------------------------------------------------------------------------
# Jump extraction from a generator (the inverse of build_from_jumps)
# ---------------------------------------------------------------------------


def _reshuffle(L, d):
    """Coefficient matrix C[(a,b),(c,e)] of L(X) = sum C E_ab X E_ce†."""
    L4 = L.reshape(d, d, d, d)
    return np.transpose(L4, (1, 3, 0, 2)).reshape(d * d, d * d)


def _modular_groups(s, d):
    """Group matrix-unit indices by the modular frequency w(E_ab) = log(s_b/s_a).

    A frequency within MODULAR_EIG_TOL / 2 of zero becomes zero, and one
    within MODULAR_EIG_TOL / 2 of a group's first frequency joins that
    group. A jump from a group, labelled with its first frequency nu, then
    has a modular residual of at most e^(-nu) |w - nu| (1 + |w - nu|) per
    unit norm, so it and its adjoint pass validate_jump with room left for
    rounding. Returns a list of (nu, pair_list); the zero group carries
    nu = 0.0 exactly.
    """
    merge = sg.MODULAR_EIG_TOL / 2.0
    logs = np.log(s)
    entries = []
    for a in range(d):
        for b in range(d):
            nu = float(logs[b] - logs[a])
            entries.append((0.0 if abs(nu) <= merge else nu, (a, b)))
    groups = []
    for nu, ab in sorted(entries):
        if groups and abs(groups[-1][0] - nu) <= merge:
            groups[-1][1].append(ab)
        else:
            groups.append((nu, [ab]))
    return groups


def _unit_vector(d, a, b):
    v = np.zeros(d * d, dtype=complex)
    v[a * d + b] = 1.0
    return v


def _zero_group_basis(members, d):
    """Hermitian, trace-free orthonormal basis of the frequency-zero sector.

    Matrix-unit pairs between degenerate levels become (E_ab + E_ba)/sqrt(2)
    and i(E_ab - E_ba)/sqrt(2); diagonal units are replaced by the d - 1
    traceless diagonal combinations (the identity direction is dropped, which
    removes the non-sandwich multiplier part of the generator).
    """
    vectors = []
    offdiag = sorted({tuple(sorted(ab)) for ab in members if ab[0] != ab[1]})
    for (a, b) in offdiag:
        e_ab, e_ba = _unit_vector(d, a, b), _unit_vector(d, b, a)
        vectors.append((e_ab + e_ba) / np.sqrt(2.0))
        vectors.append(1j * (e_ab - e_ba) / np.sqrt(2.0))
    diag = sorted(a for (a, b) in members if a == b)
    for k in range(1, len(diag)):
        v = np.zeros(d * d, dtype=complex)
        for a in diag[:k]:
            v[a * d + a] = 1.0
        v[diag[k] * d + diag[k]] = -float(k)
        vectors.append(v / np.linalg.norm(v))
    return vectors


def alicki_decompose(L):
    """Extract trace-free modular-eigenvector jumps reproducing L.generator,
    after checking it for detailed balance; L's own jumps are not read.

    Works in the eigenbasis of sigma, L.sigma_eig: the matrix-unit basis is
    grouped by modular frequency, the within-group sandwich-coefficient block
    of the generator is projected to its PSD part, and weighted eigenvectors
    are emitted as jump operators, each V next to its V† (none at d = 1). The
    jump set is not unique; only reconstruction is guaranteed.
    """
    (s, U), d, generator = L.sigma_eig, L.d, L.generator
    scale = max(la.frob(generator), 1e-300)
    sg.validate_dbc(L, tol=sg.DECOMPOSE_TOL)

    basis_change = la.sandwich_super(U.conj().T, U)       # X -> U† X U
    basis_back = la.sandwich_super(U, U.conj().T)
    Lt = basis_change @ generator @ basis_back
    C = _reshuffle(Lt, d)

    groups = _modular_groups(s, d)

    jumps = []
    discarded = 0.0
    for nu, members in groups:
        if nu < 0.0:
            continue  # handled with its positive partner
        if nu == 0.0:
            vectors = _zero_group_basis(members, d)
            if not vectors:
                continue
            Q = np.column_stack(vectors)
            block = Q.conj().T @ C @ Q
            block = 0.5 * (block + block.conj().T)
            # DBC makes this block real symmetric in the Hermitian basis
            block = 0.5 * (block + block.T).real
            target = 0.5 * block
        else:
            # not averaged with the adjoint block, e^-nu times this one: e^nu
            # is off by eps |sigma| / s_min relative when sigma is rotated
            Qp = np.column_stack([_unit_vector(d, a, b) for (a, b) in members])
            block = Qp.conj().T @ C @ Qp
            block = 0.5 * (block + block.conj().T)
            target = 0.5 * np.exp(-nu / 2.0) * block
            Q = Qp
        w, W = np.linalg.eigh(target)
        neg = w[w < 0.0]
        discarded += float(np.sum(-neg))
        for k in range(len(w)):
            if w[k] <= 1e-14 * scale:
                continue
            full = Q @ (np.sqrt(w[k]) * W[:, k])
            V = full.reshape(d, d)  # row-major: entry (a, b) multiplies E_ab
            V = U @ V @ U.conj().T
            if nu == 0.0:
                jumps.append(sg.JumpTerm(la.herm(V), 0.0))
            else:
                jumps.append(sg.JumpTerm(V, float(nu)))
                jumps.append(sg.JumpTerm(V.conj().T, float(-nu)))
    if not discarded <= sg.DECOMPOSE_TOL * scale:
        raise ResidualTooLarge(
            f"PSD projection discarded weight {discarded:.3e} "
            "(coherent part is incompatible with detailed balance)"
        )

    rebuilt = sg.generator_from_jumps(jumps, d)
    resid = la.frob(rebuilt - generator) / scale
    if not resid <= sg.DECOMPOSE_TOL:
        raise ResidualTooLarge(f"reconstruction residual {resid:.3e}")
    return jumps
