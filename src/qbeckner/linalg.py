"""Dense Hermitian linear algebra, superoperators, inner products and BFGS.

Conventions used throughout the package:

* superoperators are (d^2 x d^2) complex matrices acting on column-stacked
  vectorizations, so ``vec(A X B) = kron(B.T, A) @ vec(X)``;
* eigenvalues are returned ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import (
    DomainViolation,
    GradientCheckFailed,
    NonHermitian,
    SingularState,
)
from .kernels import _is_same

HERM_TOL = 1e-12
FULL_RANK_FLOOR = 1e-12


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return A.swapaxes(-1, -2).conj()


def herm(A: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2, matrix by matrix over leading axes."""
    return 0.5 * (A + dagger(A))


def hermiticity_residual(A: np.ndarray) -> float:
    return float(np.max(np.abs(A - dagger(A))))


def check_hermitian(A: np.ndarray) -> None:
    scale = 1.0 + float(np.max(np.abs(A))) if A.size else 1.0
    if not hermiticity_residual(A) <= HERM_TOL * scale:  # NaN fails too
        raise NonHermitian(
            f"symmetry residual {hermiticity_residual(A):.3e} exceeds {HERM_TOL:.1e} * {scale:.3e}"
        )


def herm_eigh(A: np.ndarray, check: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    A = np.asarray(A, dtype=complex)
    if check:
        check_hermitian(A)
    w, V = np.linalg.eigh(herm(A))
    return w, V


def matrix_power_hermitian(A: np.ndarray, r: float) -> np.ndarray:
    """A^r for Hermitian PSD A (strictly PD required when r < 0)."""
    w, V = herm_eigh(A)
    if r < 0 and np.min(w) <= 0:
        raise SingularState(f"negative power {r} of a singular matrix")
    w = np.maximum(w, 0.0) if r >= 0 else w
    return (V * w**r) @ V.conj().T


def abs_power(A: np.ndarray, r: float) -> np.ndarray:
    """|A|^r via the spectrum of |A| = (A†A)^(1/2).

    Hermitian inputs use |eigenvalues| directly and general inputs the
    singular values, so the dynamic range is never squared; forming A†A
    first underflows for the large power chains of the p < 1 branches.
    """
    A = np.asarray(A, dtype=complex)
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if hermiticity_residual(A) <= 1e-12 * (1.0 + scale):
        w, V = herm_eigh(herm(A), check=False)
        s = np.abs(w)
    else:
        _, s, vh = np.linalg.svd(A)
        V = vh.conj().T
        s = s[::-1].copy()
        V = V[:, ::-1]
    if r < 0 and np.min(s) <= 0.0:
        raise DomainViolation(f"negative power {r} of a singular modulus")
    return (V * s**r) @ V.conj().T


def full_rank_eigh(sigma: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """herm_eigh of a full-rank state sigma, SingularState when an eigenvalue
    is below FULL_RANK_FLOOR: the one decomposition that every function of
    sigma is read off."""
    w, V = herm_eigh(sigma)
    if not w[0] >= FULL_RANK_FLOOR:
        raise SingularState(f"minimum eigenvalue {w[0]:.3e} below {FULL_RANK_FLOOR:.1e}")
    return w, V


# ---------------------------------------------------------------------------
# Vectorization and superoperators (column-stacking convention)
# ---------------------------------------------------------------------------


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def vec_columns(X: np.ndarray) -> np.ndarray:
    """Matrix whose column k is vec(X[k]) for a stack of matrices."""
    return np.swapaxes(X, 1, 2).reshape(len(X), -1).T


def apply_super(S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """S applied to X, or to each matrix of a stack X of shape (..., d, d)."""
    X = np.asarray(X)
    v = X.swapaxes(-1, -2).reshape(X.shape[:-2] + (-1, 1))
    return (S @ v).reshape(X.shape).swapaxes(-1, -2)


def left_super(A: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X."""
    return sandwich_super(A, np.eye(np.shape(A)[0]))


def right_super(B: np.ndarray) -> np.ndarray:
    """Superoperator of X -> X B."""
    return sandwich_super(np.eye(np.shape(B)[0]), B)


def sandwich_super(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B: kron(B^T, A), one product per entry."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    n = A.shape[0] * B.shape[0]
    return (B.T[:, None, :, None] * A[None, :, None, :]).reshape(n, n)


# ---------------------------------------------------------------------------
# Partial divided differences
# ---------------------------------------------------------------------------


def partial_dd_tensor(f: Callable, dx: Callable, wA: np.ndarray, wB: np.ndarray,
                      F: np.ndarray | None = None) -> np.ndarray:
    """Weight tensor of the first partial divided difference of a two-variable
    kernel f with partial dx in x, both vectorized over broadcastable arrays,
    W[..., a, b, c] = (F[a,c] - F[b,c]) / (wA_a - wA_b), with dx at the
    midpoint for coincident pairs (_is_same, the diagonal a == b included).
    The numerators come from the kernel grid F[..., x, y] = f(wA_x, wB_y),
    computed here unless given. Leading axes of wA and wB broadcast; W has
    shape (..., d, d, d). The second partial of a symmetric kernel is this
    tensor on (wB, wA, F^T) with its last axis moved first. No library code
    calls it (transport._Frame forms its own tensors): the tests use it as a
    reference, and the benchmark's tracer (perfbench/tracing.py) patches it.
    """
    if F is None:
        F = f(wA[..., :, None], wB[..., None, :])
    u, v = wA[..., :, None, None], wA[..., None, :, None]
    same = _is_same(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        W = (F[..., :, None, :] - F[..., None, :, :]) / np.where(same, 1.0, u - v)
    at = np.nonzero(np.broadcast_to(same, W.shape))
    mid = np.broadcast_to(0.5 * (u + v), W.shape)[at]
    W[at] = dx(mid, np.broadcast_to(wB[..., None, None, :], W.shape)[at])
    return W


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------


def hs_inner(X: np.ndarray, Y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(X† Y)."""
    return complex(np.trace(X.conj().T @ Y))


def f_inner(X: np.ndarray, Y: np.ndarray, sigma_eig: Tuple[np.ndarray, np.ndarray],
            f: Callable) -> complex:
    """Weighted inner product <X, R_sigma f(Delta_sigma) Y>, with f a scalar
    function of the eigenvalue ratios of sigma_eig = full_rank_eigh(sigma)."""
    w, V = sigma_eig
    F = f(w[:, None] / w[None, :]) * w[None, :]
    Yt = V.conj().T @ Y @ V
    JY = V @ (F * Yt) @ V.conj().T
    return complex(np.trace(X.conj().T @ JY))


# ---------------------------------------------------------------------------
# Norms, Choi matrix, randomness
# ---------------------------------------------------------------------------


def frob(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def trace_norm(A: np.ndarray):
    """Trace norm of A, or the array of trace norms of a stack (..., d, d).
    A matrix that passes the Hermiticity test gives the sum of its
    |eigenvalues|, all of them from one batched eigvalsh; any other gives the
    sum of its singular values."""
    A = np.asarray(A)
    X = A.reshape((-1,) + A.shape[-2:])
    tol = 1e-10 * (1.0 + np.max(np.abs(X), axis=(1, 2)))
    hermitian = np.max(np.abs(X - dagger(X)), axis=(1, 2)) <= tol
    norms = np.empty(len(X))
    if hermitian.any():
        norms[hermitian] = np.abs(np.linalg.eigvalsh(herm(X[hermitian]))).sum(axis=-1)
    if not hermitian.all():
        norms[~hermitian] = np.linalg.svd(X[~hermitian], compute_uv=False).sum(axis=-1)
    return float(norms[0]) if A.ndim == 2 else norms.reshape(A.shape[:-2])


def choi_matrix(S: np.ndarray) -> np.ndarray:
    """Choi matrix sum_{ij} |i><j| (x) Phi(|i><j|) of a superoperator."""
    d = int(round(np.sqrt(S.shape[0])))
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            C[i * d:(i + 1) * d, j * d:(j + 1) * d] = apply_super(S, E)
    return C


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * herm(G)


def random_density(rng: np.random.Generator, d: int, floor: float = 0.0) -> np.ndarray:
    """Hilbert-Schmidt random state, optionally mixed toward I/d by floor*d."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    rho = rho / np.trace(rho).real
    if floor > 0.0:
        rho = (1.0 - floor * d) * rho + floor * np.eye(d)
    return herm(rho)


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def traceless_part(A: np.ndarray) -> np.ndarray:
    d = A.shape[0]
    return A - (np.trace(A) / d) * np.eye(d)


def check_gradient(fun_and_grad: Callable, x: np.ndarray, what) -> float:
    """Compare an analytic gradient with central differences along three
    seeded random unit directions; raise GradientCheckFailed on a relative
    disagreement above 1e-4, else return the largest relative disagreement.
    x is one point (n,) named what, or K points (K, n) named by the sequence
    what, checked in order, so that the first failing one is named.
    fun_and_grad maps a stack (k, n) to values (k,) and gradients, as in
    minimize; it is called once, on the (7K, n) stack that holds
    [x, x + eps v, x - eps v, ...] for each point in turn. Only the
    gradients at the points x, rows 7k of the stack, are read, so fun_and_grad
    may return the gradients of a leading part of the stack that holds those
    rows: for one point, its first row (1, n) alone."""
    rng = np.random.default_rng(0)
    xs, names = (x[None], [what]) if np.ndim(x) == 1 else (x, what)
    vs = [v / np.linalg.norm(v) for v in rng.standard_normal((3, xs.shape[1]))]
    epss = [1e-6 * max(1.0, float(np.linalg.norm(y))) for y in xs]
    f, g = fun_and_grad(np.array([z for y, eps in zip(xs, epss) for z in
                                  [y] + [y + s * eps * v for v in vs for s in (1.0, -1.0)]]))
    worst = 0.0
    for k, (name, eps) in enumerate(zip(names, epss)):
        for i, v in enumerate(vs):
            fd = float(f[7 * k + 2 * i + 1] - f[7 * k + 2 * i + 2]) / (2.0 * eps)
            an = float(g[7 * k] @ v)
            scale = max(1.0, abs(fd), abs(an))
            if abs(fd - an) > 1e-4 * scale:
                raise GradientCheckFailed(
                    f"{name} gradient self-test failed: fd={fd:.6e} an={an:.6e}")
            worst = max(worst, abs(fd - an) / scale)
    return worst


# ---------------------------------------------------------------------------
# Batched quasi-Newton minimization
# ---------------------------------------------------------------------------

# Sufficient-decrease constant, trial cap and gradient stop of minimize().
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 10
GTOL = 1e-12
# Longest step, relative to max(|x|, 1), so that a start at the origin moves.
# The constant ratios are invariant under x -> c x, so a longer step mostly
# rescales the point; uncapped, one start of dual_beckner[1.8] on depol3 leaps
# far out and takes 126 steps, not 46.
MAX_STEP = 1.0
# Relative gap within which a start that stopped on ftol or gtol agrees with
# the lowest value any start of its group holds; minimize() cuts the group's
# running starts once max(2, ceil(S_g / 4)) of its S_g starts agree.
AGREE_RTOL = 1e-9
# minimize() stop codes and the reasons they stand for; "agreed" marks a
# start that was still running when enough others had stopped and agreed
_RUNNING, _FTOL, _GTOL, _MAX_ITERS, _LINE_SEARCH, _AGREED = range(6)
STOPS = ("running", "ftol", "gtol", "max_iters", "line_search", "agreed")


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of :func:`minimize` on a stack of S starts: per start the end
    point x (S, n), its value fun (S,), the accepted steps, the objective
    evaluations and the stop reason; nit is the most steps any start took
    and nfev the number of (batched) objective calls."""

    x: np.ndarray
    fun: np.ndarray
    iterations: np.ndarray
    evaluations: np.ndarray
    stops: Tuple[str, ...]
    nit: int
    nfev: int


def minimize(fun: Callable, x0: np.ndarray, max_iters: int = 2000,
             ftol: float = 1e-8, groups: np.ndarray | None = None,
             whitened: bool = False) -> MinimizeResult:
    """Dense BFGS on a stack of starts x0 (S, n), each start with its own
    inverse Hessian (Nocedal & Wright, Numerical Optimization, 2nd ed.,
    ch. 3 and 6).

    fun maps a stack (k, n) to values (k,) and gradients (k, n). groups
    (S,), if given, labels each start with the problem it belongs to; fun
    then takes the labels of the stack's rows as a second argument,
    fun(x, labels), and the agreement cut below runs per group. Each call
    evaluates one trial point for every running start, whatever stage of
    its own line search that start is in, so a start that backtracks costs
    no extra call. A start steps along -H g and backtracks (safeguarded
    quadratic interpolation) until the Armijo condition holds, then applies
    the BFGS update where the curvature y^T s is positive; before its first
    update H is scaled by y^T s / y^T y. The first trial is 1 long, or, with
    whitened set, the full step -g, the Newton step of a caller whose
    coordinates make the identity the inverse Hessian at x0; every step is at
    most MAX_STEP * max(|x|, 1) long. A start stops ("ftol") when a step
    lowers its value by at most ftol * max(|f_old|, |f_new|, 1), a
    relative-decrease test; ("gtol") when max |g| <= GTOL; ("max_iters")
    after max_iters steps; ("line_search") when MAX_BACKTRACKS trials in a
    row fail. A stopped start keeps its point while the others go on, and no
    start's path depends on the others.

    After each call, for each group of S_g starts (all S starts are one
    group by default), with k = max(2, ceil(S_g / 4)) and best the lowest
    value any start of the group holds (stopped or running), once k of its
    starts have stopped on ftol or gtol at a value within
    AGREE_RTOL * |best| of best, every running start of the group stops
    ("agreed") at its current point and value. Line search and max_iters
    stops do not count. As values only fall and stopped values are fixed,
    the test runs only after a call at which a start newly stopped on ftol
    or gtol, or on gtol at x0. Every returned value is still the objective
    at the returned point, and whether the cut happens depends on the
    group's set of starts, not on their order or on the other groups; with
    S_g <= 2 it needs every start of the group stopped, so it never happens.
    So when fun evaluates each row on its own, every start ends, after the
    same steps and evaluations, where it would in a call on its group alone.
    """
    x = np.array(x0, dtype=float)
    S, n = x.shape
    groups = None if groups is None else np.asarray(groups)
    label = np.zeros(S, dtype=int) if groups is None else np.unique(
        groups, return_inverse=True)[1].ravel()
    sizes = np.bincount(label)
    quorum = np.maximum(2, -(-sizes // 4))
    cuttable = bool((sizes > quorum).any())  # else no group has a start to cut

    def call(z, rows):
        return fun(z) if groups is None else fun(z, groups[rows])

    f, g = call(x, np.arange(S))
    nfev = 1
    out_x, out_f = x.copy(), f.copy()
    out_iters, out_evals = np.zeros(S, dtype=int), np.ones(S, dtype=int)
    out_stop = np.where(np.abs(g).max(axis=1) <= GTOL, _GTOL, _RUNNING)
    # the running starts; rows are dropped when their start stops. Every
    # call evaluates every running start, so a start's evaluation count is
    # nfev when it stops.
    ids = np.flatnonzero(out_stop == _RUNNING)
    x, f, g = x[ids], f[ids], g[ids]
    H = np.tile(np.eye(n), (ids.size, 1, 1))
    iters = np.zeros(ids.size, dtype=int)
    fails = np.zeros(ids.size, dtype=int)

    def directions(H, g, x, first):
        d = -(H @ g[:, :, None])[:, :, 0]
        slope = (g * d).sum(axis=1)
        uphill = slope >= 0.0
        if uphill.any():  # H lost positive definiteness: restart from -g
            H = np.where(uphill[:, None, None], np.eye(n), H)
            d = np.where(uphill[:, None], -g, d)
            slope = np.where(uphill, -(g * g).sum(axis=1), slope)
        norm = np.maximum(np.sqrt((d * d).sum(axis=1)), np.finfo(float).tiny)
        with np.errstate(over="ignore"):  # at g = 0, d = 0 and the cap may be inf
            cap = MAX_STEP * np.maximum(np.sqrt((x * x).sum(axis=1)), 1.0) / norm
        return H, d, slope, np.minimum(1.0 / norm if first and not whitened else 1.0, cap)

    def agreed(stop):
        """Which starts of the stack (their stop codes in stop, the last step's
        stops included) are in a group that agrees; None if no group can."""
        codes = out_stop.copy()
        codes[ids] = stop
        settled = (codes == _FTOL) | (codes == _GTOL)
        ready = (np.bincount(label[settled], minlength=quorum.size) >= quorum)[label[ids]]
        if not ready.any():
            return None
        held = out_f.copy()
        held[ids] = f
        best = np.full(quorum.size, np.inf)
        np.minimum.at(best, label, held)
        best = best[label]
        agree = settled & (held <= best + AGREE_RTOL * np.abs(best))
        return (np.bincount(label[agree], minlength=quorum.size) >= quorum)[label[ids]]

    H, step, slope, alpha = directions(H, g, x, True)
    # stop is None while no start stops; pending: a start has taken no step
    stop, settled, pending = np.full(ids.size, _RUNNING), ids.size < S, True
    while True:
        if settled and cuttable and (cut := agreed(stop)) is not None:
            stop[cut & (stop == _RUNNING)] = _AGREED
        if stop is not None:
            done = stop != _RUNNING
            j = ids[done]
            out_x[j], out_f[j], out_stop[j] = x[done], f[done], stop[done]
            out_iters[j], out_evals[j] = iters[done], nfev
            keep = ~done
            ids, x, f, g, H, step, slope, alpha, iters, fails = (
                a[keep] for a in (ids, x, f, g, H, step, slope, alpha, iters, fails))
        if not ids.size:
            break
        trial = x + alpha[:, None] * step
        ft, gt = call(trial, ids)
        nfev += 1
        descent = alpha * slope
        ok = ft <= f + ARMIJO_C1 * descent
        every = ok.all()
        if not every:
            # Armijo failed (so descent < 0 and the excess is positive):
            # shrink to the minimizer of the quadratic through f, slope, ft
            excess = np.where(ok, -descent, ft - f - descent)
            shrunk = np.minimum(np.maximum(-descent * alpha / (2.0 * excess), 0.1 * alpha),
                                0.5 * alpha)
        fails = fails * 0 if every else (fails + 1) * ~ok

        # Armijo held: update the inverse Hessian as a rank-2 correction
        # [s, Hy] M [s, Hy]^T, move, and test the stop rules
        U = np.empty((len(x), n, 2))
        U[:, :, 0] = s = trial - x
        y = gt - g
        yy = (y * y).sum(axis=1)
        ys = (y * s).sum(axis=1)
        curved = ok & (ys > 1e-12 * np.sqrt(yy * (s * s).sum(axis=1)))
        rho = curved / np.where(curved, ys, 1.0)
        if pending and (initial := curved & (iters == 0)).any():
            H = H * np.where(initial, ys / np.where(initial, yy, 1.0), 1.0)[:, None, None]
        pending = pending and not every
        U[:, :, 1] = Hy = (H @ y[:, :, None])[:, :, 0]
        M = np.zeros((len(x), 2, 2))
        M[:, 0, 0] = rho * (1.0 + rho * (y * Hy).sum(axis=1))
        M[:, 0, 1] = M[:, 1, 0] = -rho
        H = H + U @ M @ U.transpose(0, 2, 1)
        scale = np.maximum(np.maximum(np.abs(f), np.abs(ft)), 1.0)
        fstop = ok & (f - ft <= ftol * scale)
        x, f, g = (trial, ft, gt) if every else (
            np.where(ok[:, None], trial, x), np.where(ok, ft, f), np.where(ok[:, None], gt, g))
        iters = iters + ok
        gstop = ok & (np.abs(g).max(axis=1) <= GTOL)
        settled = bool((fstop | gstop).any())
        stop = None  # while no start stops; as iters < nfev, none reaches max_iters sooner
        if settled or nfev > max_iters or (fails >= MAX_BACKTRACKS).any():
            stop = np.where(fstop, _FTOL, np.where(gstop, _GTOL, _RUNNING))
            stop[(stop == _RUNNING) & (iters >= max_iters)] = _MAX_ITERS
            stop[fails >= MAX_BACKTRACKS] = _LINE_SEARCH

        # a start that backtracks keeps H and g, so its direction comes out
        # the same as before; only its step length changes
        H, step, slope, alpha_new = directions(H, g, x, False)
        alpha = alpha_new if every else np.where(ok, alpha_new, shrunk)
    return MinimizeResult(out_x, out_f, out_iters, out_evals,
                          tuple(STOPS[c] for c in out_stop), int(out_iters.max()), nfev)


# ---------------------------------------------------------------------------
# Matrix JSON serialization: nested arrays of [re, im] pairs, row-major
# ---------------------------------------------------------------------------


def matrix_to_json(A: np.ndarray) -> list:
    A = np.asarray(A, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def matrix_from_json(obj: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    rows = []
    for row in obj:
        rows.append([complex(pair[0], pair[1]) for pair in row])
    return np.array(rows, dtype=complex)
