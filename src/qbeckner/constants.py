"""Estimation of functional-inequality constants and their bound ledger.

Every optimized constant is a minimum of a Rayleigh-type ratio over the
feasible cone, so the reported value is an upper bound on the true constant;
analytic caps and exact spectral anchors bound it from the other side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dirichlet as dh
from . import entropy as ent
from . import linalg as la
from .errors import (
    IncompatibleJumps,
    MissingEstimate,
    NotSymmetric,
    OptimizerDiverged,
)
from .kernels import SAME_TOL
from .linalg import minimize
from .semigroup import DbcLindbladian

HARD_TOL = 1e-4
SOFT_TOL = 1e-3
BIG = 1e300
# Denominators below this sit in the near-identity 0/0 region, where the
# ratio is dominated by cancellation noise; the region's limit value enters
# through the analytic cap instead.
RIDGE_FLOOR = 1e-8


@dataclass(frozen=True)
class EstimateOpts:
    num_starts: int = 32
    seed: int = 0


@dataclass(frozen=True)
class EstimateDiagnostics:
    """What the optimizer did for one estimate, per start in start order:
    accepted steps, objective evaluations, stop reason (linalg.STOPS) and
    the start's final ratio. A start that reads "agreed" was cut while still
    running, at the call given by its evaluations, because enough other
    starts of the same estimate had settled on its lowest ratio
    (linalg.minimize, one group per estimate); its ratio is that of the
    point it held then. Nothing here depends on wall-clock time,
    so reports stay reproducible."""

    iterations: Tuple[int, ...]
    evaluations: Tuple[int, ...]
    stops: Tuple[str, ...]
    values: Tuple[float, ...]


@dataclass(frozen=True)
class ConstantEstimate:
    kind: str
    param: Optional[float]
    value: float
    witness: Optional[np.ndarray]
    num_starts: int
    best_residual: float
    capped: bool
    diagnostics: Optional[EstimateDiagnostics] = None


def _tr(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re tr(A B), matrix by matrix over leading axes."""
    return np.einsum("...ij,...ji->...", A, B).real


KINDS = ("beckner", "mlsi", "lsi", "dual_beckner")
POWER_KINDS = ("beckner", "dual_beckner")
UNIT_MEAN = ("beckner", "mlsi")  # the kinds whose witnesses have tr(sigma X) = 1

Spec = Tuple[str, Optional[float]]  # kind, with p for beckner, q for dual_beckner


def spec_name(kind: str, param: Optional[float]) -> str:
    """The report name of an estimate: its kind, then [p] or [q] if it has one."""
    return kind if param is None else f"{kind}[{param}]"


def _ratio_and_grad(L: DbcLindbladian, specs: Sequence[Spec]) -> Callable:
    """Rayleigh ratios whose infima over the feasible cone are the constants
    of specs, with their gradients: (X, rows) -> (R(X), G), dR = Re tr(G dX),
    where rows holds the index into specs of each matrix of X. With E_p the
    p-Dirichlet form (dirichlet.dirichlet_form) and the sigma-weighted norm,
    entropy and q-variance of entropy.py, R(X) is

    - beckner:      (p - 1) E_p(X) / (||X||_{p,sigma}^p - 1), on tr(sigma X) = 1;
    - mlsi:         E_1(X) / Ent_{1,sigma}(X), on tr(sigma X) = 1;
    - lsi:          E_2(X) / Ent_{2,sigma}(X), on ||X||_{2,sigma} = 1;
    - dual_beckner: (2 - q) E_2(X) / Var_{q,sigma}(X), on ||X||_{2,sigma} = 1.

    X is one matrix (d, d), giving a float and (d, d), or a stack (R, d, d),
    giving (R,) and (R, d, d); a single matrix is a stack of one, and rows
    defaults to spec 0 throughout. specs come in KINDS order and the rows of
    each call in spec order, else ValueError, so that each kind and each
    spec is one contiguous slice of the stack. One pass serves every row:
    one batched eigendecomposition of A = sigma^(1/2r) X sigma^(1/2r)
    (r = p, q, 1 for mlsi, 2 for lsi), one L(X) and one dual-generator
    product; the Dirichlet forms of beckner and mlsi, E_2 of lsi and
    dual_beckner, tr(A f(A)) and the numerators' scales are each formed once
    over the rows that share them, and a block without rows is not formed.
    Each power a^e takes its exponent as a scalar, once per spec, so that a
    row's value and gradient do not depend on the rows beside it. Gradients
    of trace functions tr f(A) are first order, f'(A); the forms tr(f(A) B),
    with B the sandwiched L(X), add the Daleckii-Krein term D f(A)[B]
    (Bhatia, Matrix Analysis, ch. V), from divided differences of the f(a)
    at hand, and the dual generator applied to the sandwiched f(A). On the
    near-identity ridge, where the denominator is at most RIDGE_FLOOR, the
    evaluator returns (BIG, 0).
    """
    log_sigma = L.sigma_log
    dag = la.dagger
    half, quarter = L.sigma_power(0.5), L.sigma_power(0.25)
    sls = L.sigma @ log_sigma  # S log(sigma) S for S = half, as S commutes with sigma

    kinds = [KINDS.index(kind) for kind, _ in specs]
    if kinds != sorted(kinds):
        raise ValueError(f"specs not in KINDS order: {list(specs)}")
    cuts = np.searchsorted(kinds, np.arange(1, len(KINDS))).tolist()  # where kinds 1-3 begin
    sandwiches = np.array([half if kind == "mlsi" else quarter if kind == "lsi"
                           else L.sigma_power(1.0 / (2.0 * float(r))) for kind, r in specs])
    param = np.array([np.nan if r is None else float(r) for _, r in specs])
    num_scale = np.array([-r * r / 4.0 if kind == "beckner" else -0.25 if kind == "mlsi" else
                          1.0 if kind == "lsi" else 2.0 - r for (kind, _), r in zip(specs, param)])
    # f(a) on the spectrum of A is a^e, e = r - 1, for the power kinds, and
    # log a else; the forms take f' at ties, e a^(e - 1) or 1 / a
    exps = [float(r) - 1.0 if kind in POWER_KINDS else None for kind, r in specs]

    def evaluate(X: np.ndarray, rows=None):
        single = np.ndim(X) == 2
        X = np.asarray(X).reshape(-1, L.d, L.d)
        rows = np.zeros(len(X), dtype=int) if rows is None else np.asarray(rows)
        if (rows[1:] < rows[:-1]).any():
            raise ValueError("rows not in spec order")
        ends = rows.searchsorted(np.arange(len(specs) + 1)).tolist()  # each spec's first row
        live = [(k, i, j) for k, (i, j) in enumerate(zip(ends, ends[1:])) if i < j]
        # rows [:nf]: forms tr(f(A) B), mlsi from m0; [nf:]: E_2, dual_beckner from d0
        n, (m0, nf, d0) = len(X), (ends[c] for c in cuts)
        S = sandwiches[rows]
        a, V = la.herm_eigh(S @ X @ S, check=False)
        f = np.empty_like(a)
        f[m0:d0] = np.log(np.maximum(a[m0:d0], 1e-300, out=a[m0:d0]))
        for k, i, j in live:
            if exps[k] is not None:
                f[i:j] = np.abs(a[i:j], out=a[i:j]) ** exps[k]
        fa = f * a
        tr_af = fa.sum(axis=1)  # tr(A f(A)), for all kinds but lsi
        T = S @ V
        Th = dag(T)
        LX = L.apply(X)
        F = (T * f[:, None, :]) @ Th  # S f(A) S
        # what the dual generator acts on: S f(A) S (less S log(sigma) S for
        # mlsi) in the forms tr(f(A) B), the sandwiched X in E_2
        M = np.empty(X.shape, complex)
        M[:nf] = F[:nf]
        M[m0:nf] -= sls
        if nf < n:
            M[nf:] = H = half @ X[nf:] @ half
        LM = L.apply_dual(M)
        num, den, c = np.empty(n), np.empty(n), num_scale[rows]
        g_num, g_den = np.empty(X.shape, complex), np.empty(X.shape, complex)
        if nf:
            # the forms' divided differences (f_i - f_j) / (a_i - a_j) from the f(a)
            # at hand, f' at the mean where a_i, a_j agree to SAME_TOL (_is_same, a >= 0)
            x, y = a[:nf, :, None], a[:nf, None, :]
            diff = x - y
            same = np.abs(diff) <= SAME_TOL * np.maximum(x, y)
            dfm = 0.5 * (x + y)
            for k, i, j in live:
                if i < nf:
                    e = exps[k]
                    dfm[i:j] = 1.0 / dfm[i:j] if e is None else e * dfm[i:j] ** (e - 1.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                DF = np.divide(f[:nf, :, None] - f[:nf, None, :], diff, out=dfm, where=~same)
            Tf, Thf = T[:nf], Th[:nf]
            Bt = Thf @ LX[:nf] @ Tf
            # with W = log A - log sigma for mlsi: tr(S L(X) S W) and tr(A W)
            num[:nf] = (f[:nf] * Bt.diagonal(0, 1, 2).real).sum(axis=1)
            num[m0:nf] -= _tr(LX[m0:nf], sls)
            num[:nf] *= c[:nf]
            g_num[:nf] = (Tf @ (DF * Bt) @ Thf + LM[:nf]) * c[:nf, None, None]
            den[:m0] = tr_af[:m0] - 1.0
            g_den[:m0] = param[rows[:m0], None, None] * F[:m0]
            if m0 < nf:
                N = a[m0:nf].sum(axis=1)
                logN = np.log(N)
                den[m0:nf] = tr_af[m0:nf] - _tr(X[m0:nf], sls) - N * logN
                g_den[m0:nf] = M[m0:nf] - logN[:, None, None] * L.sigma
        if nf < n:
            # E_2(X) = -tr(sigma^(1/2) X sigma^(1/2) L(X)), a bilinear form
            num[nf:] = -_tr(H, LX[nf:]) * c[nf:]
            g_num[nf:] = -(half @ LX[nf:] @ half + LM[nf:])
            Z, P = np.empty((n - nf, L.d, L.d), complex), np.empty((2, n - d0))
            if nf < d0:
                al, alog, Vl = a[nf:d0], fa[nf:d0], V[nf:d0]
                Vh = dag(Vl)
                A = (Vl * al[:, None, :]) @ Vh
                AL = A @ log_sigma
                N = (al * al).sum(axis=1)
                logN = np.log(N)
                # Ent_2 = tr(A^2 (log A^2 - log sigma)) - N log N, N = tr A^2
                den[nf:d0] = 2.0 * (al * alog).sum(axis=1) - _tr(A, AL) - N * logN
                Z[:d0 - nf] = (4.0 * (Vl * alog[:, None, :]) @ Vh - AL - dag(AL)
                               - (2.0 * logN)[:, None, None] * A)
            if d0 < n:
                # Var_q = tr(A_2^2) - (tr A_q^q)^(2/q), the powers taken spec by spec
                A2 = np.matmul(quarter @ X[d0:], quarter, out=Z[d0 - nf:])
                for k, i, j in live:
                    if i >= d0:
                        q = float(specs[k][1])
                        P[:, i - d0:j - d0] = tr_af[i:j] ** (2.0 / q), tr_af[i:j] ** (2.0 / q - 1.0)
                den[d0:] = (np.abs(A2) ** 2).sum(axis=(1, 2)) - P[0]
                g_num[d0:] *= c[d0:, None, None]
            W = np.matmul(quarter @ Z, quarter, out=g_den[nf:])  # one sandwich for both kinds
            g_den[d0:] = 2.0 * W[d0 - nf:] - (2.0 * P[1])[:, None, None] * F[d0:]
        # the ratio and its gradient, with (BIG, 0) on the ridge
        ridge = den <= RIDGE_FLOOR
        if ridge.any():
            den = np.where(ridge, 1.0, den)
        R = num / den
        G = (g_num - R[:, None, None] * g_den) / den[:, None, None]
        if ridge.any():
            R, G = np.where(ridge, BIG, R), np.where(ridge[:, None, None], 0.0, G)
        return (float(R[0]), G[0]) if single else (R, G)

    return evaluate


def _unpack(y: np.ndarray, d: int) -> np.ndarray:
    """Witness matrices from their real coordinates, which hold the real
    and imaginary part of each entry in turn (row-major)."""
    y = np.ascontiguousarray(y)
    return y.view(complex).reshape(y.shape[:-1] + (d, d))


def _pack(Y: np.ndarray) -> np.ndarray:
    Y = np.ascontiguousarray(Y, dtype=complex)
    return Y.reshape(Y.shape[:-2] + (-1,)).view(float)


def _normalize(L: DbcLindbladian, mean: int, Y: np.ndarray):
    """Feasible-cone witnesses X = Y†Y / m of a stack of unconstrained
    matrices Y (S, d, d), with the scale m (S,) and the Hermitian D,
    dm = Re tr(D d(Y†Y)): m is the sigma-mean tr(sigma Y†Y) on the first
    mean rows (the unit-mean kinds), the 2-norm ||Y†Y||_{2,sigma} on the
    rest. A zero Y maps to the identity (m = 1), which lies on the ridge."""
    X0 = la.dagger(Y) @ Y
    m, D = np.empty(len(Y)), np.empty(X0.shape, complex)
    m[:mean], D[:mean] = _tr(L.sigma, X0[:mean]), L.sigma
    if mean < len(Y):
        K = L.sigma_power(0.5) @ X0[mean:] @ L.sigma_power(0.5)
        m[mean:] = np.sqrt(np.maximum(_tr(K, X0[mean:]), 0.0))
        D[mean:] = K / np.maximum(m[mean:], 1e-300)[:, None, None]
    zero = m <= 1e-300
    if zero.any():
        m = np.where(zero, 1.0, m)
        X0 = np.where(zero[:, None, None], np.eye(L.d), X0)
    return X0 / m[:, None, None], m, D


def _objective(L: DbcLindbladian, specs: Sequence[Spec]) -> Callable:
    """(y, rows) -> (ratio, gradient in y) over the real parameterization
    Y = unpack(y), X = Y†Y / m of :func:`_normalize`, each row for the spec
    of specs that rows gives (spec 0 throughout by default), finite or not.

    y is one point (2d^2,), giving a float and (2d^2,), or a stack
    (S, 2d^2), giving (S,) and (S, 2d^2), from one batched evaluation of
    :func:`_ratio_and_grad`, whose two orders it needs: specs in KINDS
    order, and the rows of every call in spec order, so that the unit-mean
    rows lead for the normalization too."""
    fused = _ratio_and_grad(L, specs)
    means = sum(kind in UNIT_MEAN for kind, _ in specs)  # the unit-mean specs lead
    d = L.d

    def objective(y: np.ndarray, rows=None):
        Y = _unpack(np.asarray(y).reshape(-1, 2 * d * d), d)
        rows = np.zeros(len(Y), dtype=int) if rows is None else np.asarray(rows)
        X, m, D = _normalize(L, int(rows.searchsorted(means)), Y)
        val, G = fused(X, rows)
        # dX = (dX0 - X dm) / m, and dX0 = dY† Y + Y† dY
        G = la.herm(G - _tr(G, X)[:, None, None] * D) / m[:, None, None]
        grad = 2.0 * _pack(Y @ G)
        return (float(val[0]), grad[0]) if np.ndim(y) == 1 else (val, grad)

    return objective


def _seed_starts(L: DbcLindbladian, num_starts: int, seed: int) -> List[np.ndarray]:
    """Unconstrained start matrices, the same for every kind: random, plus
    near-identity directions along the spectral-gap eigenvector (the
    linearization regime)."""
    d = L.d
    starts = [np.eye(d) + 0.5 * eps * L.gap_eigenvector for eps in (3e-2, 3e-3)]
    children = np.random.SeedSequence(seed).spawn(max(num_starts - len(starts), 0))
    for child in children:
        rng = np.random.default_rng(child)
        Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        starts.append(np.eye(d) + 0.7 * Y)
    return starts[:max(num_starts, 1)]


def estimate_constants(L: DbcLindbladian, specs: Sequence[Spec],
                       opts: EstimateOpts = EstimateOpts()) -> List[ConstantEstimate]:
    """Estimate functional-inequality constants of a primitive generator: one
    ConstantEstimate per spec (kind, p or q or None), in the order of specs,
    whatever that order is.

    kind 'poincare' is read off the spectrum exactly. The others minimize
    their defining ratio over the unconstrained parameterization
    X = Y†Y / tr(sigma Y†Y) (or / ||Y†Y||_{2,sigma} for lsi and dual_beckner),
    and report min(best ratio, analytic cap); the cap is the linearization
    value on the unreachable X -> 1 ridge. The distinct optimized specs are
    put in KINDS order once, stably, for the stacked evaluator. One batched
    call self-tests every analytic gradient against central differences,
    raising GradientCheckFailed on the first spec in that order that fails,
    and serves the descent's first call: the opts.num_starts starts of each
    spec form one group of a single linalg.minimize call (the batched BFGS
    the transport solver also uses) through one stacked evaluator; a group's
    running starts stop once enough of its stopped ones agree on its lowest ratio.
    Each start's path is its own, so every estimate is the one it would be
    alone, and the starts of a group are reduced by a minimum, so it does
    not depend on their order. beckner needs p in (1, 2] and dual_beckner q
    in [1, 2), the ranges of the config's p_grid and q_grid; anything else
    raises ValueError.
    """
    for kind, param in specs:
        if kind == "beckner" and (param is None or not 1.0 < param <= 2.0):
            raise ValueError(f"beckner needs p in (1, 2], got {param}")
        if kind == "dual_beckner" and (param is None or not 1.0 <= param < 2.0):
            raise ValueError(f"dual_beckner needs q in [1, 2), got {param}")
        if kind != "poincare" and kind not in KINDS:
            raise ValueError(f"no ratio for kind {kind!r}")
    if not specs:
        return []
    lam = L.require_primitive().spectral_gap
    todo = sorted(dict.fromkeys((kind, param) for kind, param in specs if kind != "poincare"),
                  key=lambda spec: KINDS.index(spec[0]))
    estimates = {}
    if todo:
        d, K = L.d, len(todo)
        objective = _objective(L, todo)
        rng = np.random.default_rng(opts.seed)
        check_at = np.eye(d) + 0.5 * (rng.standard_normal((d, d))
                                      + 1j * rng.standard_normal((d, d)))
        checks = np.repeat(np.arange(K), 7)  # check_gradient's seven points per spec
        starts = _pack(np.array(_seed_starts(L, opts.num_starts, opts.seed)))
        groups = np.repeat(np.arange(K), len(starts))
        x0 = np.tile(starts, (K, 1))
        # the self-test's call also evaluates the starts x0, each spec's after
        # its check points, and serves them to the descent's first call, so
        # that a start's non-finite row raises there, after the self-test
        stacked = np.concatenate([checks, groups])
        order = np.argsort(stacked, kind="stable")
        check, served = order < checks.size, []

        def finite(val, grad, rows):  # else name the first non-finite row's kind
            if not (np.isfinite(val).all() and np.isfinite(grad).all()):
                bad = ~(np.isfinite(val) & np.isfinite(grad).all(axis=1))
                raise OptimizerDiverged(f"non-finite ratio or gradient for kind "
                                        f"{todo[rows[np.argmax(bad)]][0]}")
            return val, grad

        def checked(ys):
            val, grad = objective(np.concatenate([ys, x0])[order], stacked[order])
            served.append((val[~check], grad[~check]))
            return finite(val[check], grad[check], checks)

        la.check_gradient(checked, np.tile(_pack(check_at), (K, 1)),
                          [spec_name(kind, param) for kind, param in todo])
        res = minimize(lambda y, rows: finite(*(served.pop() if served else objective(y, rows)),
                                              rows), x0, groups=groups)
        # each start's ratio is the value the optimizer holds at its end
        # point; the first of the smallest wins. The witnesses come from one
        # stacked normalization, whose unit-mean rows lead as in todo
        n = len(starts)
        fun, its, evs = (v.reshape(K, n) for v in (res.fun, res.iterations, res.evaluations))
        best = np.argmin(fun, axis=1)
        witnesses = _normalize(L, sum(kind in UNIT_MEAN for kind, _ in todo),
                               _unpack(res.x[np.arange(K) * n + best], d))[0]
        for k, (kind, param) in enumerate(todo):
            best_val = float(fun[k, best[k]])
            cap = (float(param) * lam / 2.0 if kind == "beckner"
                   else np.inf if kind == "dual_beckner" else lam / 2.0)
            capped = best_val > cap
            second = np.sort(fun[k])[1] if n > 1 else best_val
            residual = float(abs(second - best_val) / max(best_val, 1e-300))
            diagnostics = EstimateDiagnostics(tuple(its[k].tolist()), tuple(evs[k].tolist()),
                                              res.stops[k * n:(k + 1) * n], tuple(fun[k].tolist()))
            estimates[kind, param] = ConstantEstimate(
                kind, param, float(min(best_val, cap)), None if capped else witnesses[k], n,
                residual, bool(capped), diagnostics)
    return [ConstantEstimate("poincare", None, lam, L.gap_eigenvector, 0, 0.0, False)
            if kind == "poincare" else estimates[kind, param] for kind, param in specs]


def estimate_constant(L: DbcLindbladian, kind: str, p: float | None = None,
                      q: float | None = None,
                      opts: EstimateOpts = EstimateOpts()) -> ConstantEstimate:
    """estimate_constants on the one spec (kind, p for beckner, q for
    dual_beckner, None else)."""
    param = p if kind == "beckner" else (q if kind == "dual_beckner" else None)
    return estimate_constants(L, [(kind, param)], opts)[0]


# ---------------------------------------------------------------------------
# Classical reduction for the depolarizing semigroup with sigma = I/d
# ---------------------------------------------------------------------------


def _two_point_ratio(h: np.ndarray, theta: float, p: float) -> np.ndarray:
    """(p^2/4) (m_p - m_{p-1}) / (m_p - 1) on the two-point space with
    masses theta, 1 - theta and mean 1, elementwise over h.

    The points are x = 1 + h and y = 1 + k with k = -theta h / (1 - theta)
    taken exactly. With E(u) = (1 + u)^(p-1) - 1, the numerator reduces to
    theta h (E(h) - E(k)), whose terms have opposite signs, and the
    denominator to theta psi(h) + (1 - theta) psi(k) with the nonnegative
    psi(u) = (1 + u)^p - 1 - p u = (1 + u) E(u) - (p - 1) u. Below
    |u| = 1/8, where that difference cancels, psi is summed as its binomial
    series, whose terms shrink by at least 1/8 each. Points off the domain
    (x or y negative) and the 0/0 point h = 0 give BIG.
    """
    u = np.stack([h, -theta * h / (1.0 - theta)])
    binom = np.cumprod((p - np.arange(19)) / np.arange(1, 20))  # C(p, 1..19)
    with np.errstate(all="ignore"):
        E = np.expm1((p - 1.0) * np.log1p(u))
        psi = np.where(np.abs(u) < 0.125, u * u * np.polyval(binom[:0:-1], u),
                       (1.0 + u) * E - (p - 1.0) * u)
        den = theta * psi[0] + (1.0 - theta) * psi[1]
        ratio = (p * p / 4.0) * theta * h * (E[0] - E[1]) / den
    return np.where(np.isfinite(ratio) & (den > 0.0), ratio, BIG)


def depol_classical(p: float, d: int) -> float:
    """Two-point-chain value of the p-Beckner constant of the depolarizing
    semigroup with the maximally mixed invariant state and unit rate.

    Minimizes the two-point ratio over the occupation fractions
    theta in {1/d, ..., (d-1)/d}: on a 10,000-point grid of h over the
    domain, then three times on a grid of the same size over the two
    intervals around the previous argmin. At p = 2 the ratio is identically
    p^2/4 = 1.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    p = float(p)
    if p == 2.0:
        return 1.0
    best = np.inf
    for k in range(1, d):
        theta = k / d
        lo, hi = -1.0, (1.0 - theta) / theta
        for _ in range(4):
            hs = np.linspace(lo, hi, 10_000)
            vals = _two_point_ratio(hs, theta, p)
            i = int(np.argmin(vals))
            best = min(best, float(vals[i]))
            lo, hi = hs[max(i - 1, 0)], hs[min(i + 1, len(hs) - 1)]
    return best


def certified_alpha_lower(lam: float, sigma_min: float, p: float) -> float:
    """Spectral-gap lower bound max(lam (p-1), p^2 sigma_min^(2-p) lam / 4)."""
    return max(lam * (p - 1.0), p * p * sigma_min ** (2.0 - p) * lam / 4.0)


def alpha_lower(L: DbcLindbladian, p: float) -> float:
    """The lower bound on the p-Beckner constant of L that decay, mixing
    and verify use: gamma depol_classical(p, d) on the flat depolarizing
    semigroup of rate gamma (DbcLindbladian.flat_depolarizing_rate), the
    certified spectral-gap bound otherwise. NotPrimitive when L has no
    spectral gap to bound with, as on a one-dimensional model."""
    rate = L.flat_depolarizing_rate
    if rate is not None:
        return rate * depol_classical(p, L.d)
    return certified_alpha_lower(L.require_primitive().spectral_gap, L.sigma_min, p)


def certified_uniform_alpha(lam: float, sigma_min: float) -> float:
    """A p-uniform certified lower bound on the Beckner constants.

    Both branches of certified_alpha_lower increase in p, so the infimum over
    p in (1, 2] is the p -> 1 limit lam * sigma_min / 4.
    """
    return lam * sigma_min / 4.0


# ---------------------------------------------------------------------------
# Bound ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    hard: bool


@dataclass(frozen=True)
class BoundLedger:
    entries: Tuple[LedgerEntry, ...]

    @property
    def hard_pass(self) -> bool:
        return all(e.passed for e in self.entries if e.hard)


def _entry(name: str, lhs: float, rhs: float, hard: bool) -> LedgerEntry:
    tol = HARD_TOL if hard else SOFT_TOL
    slack = rhs - lhs
    passed = slack >= -tol * max(1.0, abs(lhs), abs(rhs))
    return LedgerEntry(name, float(lhs), float(rhs), float(slack), passed, hard)


def bound_ledger(estimates: Dict, sigma_min: float,
                 p_grid: Sequence[float]) -> BoundLedger:
    """Evaluate the closed-form inequalities between stored estimates.

    ``estimates`` maps the specs ('poincare', None), ('beckner', p),
    ('mlsi', None), ('lsi', None) and ('dual_beckner', q) of
    estimate_constants to ConstantEstimate. Inequalities that stay valid
    when both sides are over-estimated are asserted hard; cross-estimate
    inequalities are soft and logged, never dropped.
    """

    def get(key) -> ConstantEstimate:
        if key not in estimates:
            raise MissingEstimate(f"{key} missing from estimates")
        return estimates[key]

    lam = get(("poincare", None)).value
    entries: List[LedgerEntry] = []
    alphas = {}
    for p in p_grid:
        a = get(("beckner", p)).value
        alphas[p] = a
        entries.append(_entry(f"beckner({p}) <= p*lambda/2", a, p * lam / 2.0, True))
        entries.append(_entry(f"beckner({p}) >= lambda*(p-1)", lam * (p - 1.0), a, True))
        entries.append(_entry(
            f"beckner({p}) >= p^2 sigma_min^(2-p) lambda/4",
            p * p * sigma_min ** (2.0 - p) * lam / 4.0, a, True))
    ps = sorted(alphas)
    if ("mlsi", None) in estimates:
        a1 = get(("mlsi", None)).value
        entries.append(_entry("mlsi <= lambda/2", a1, lam / 2.0, True))
        if ps:
            entries.append(_entry("mlsi >= beckner(p_min) limit",
                                  alphas[ps[0]], a1 + (ps[0] - 1.0) * lam, False))
    if ("lsi", None) in estimates:
        b = get(("lsi", None)).value
        entries.append(_entry("lsi <= lambda/2", b, lam / 2.0, True))
        if ("mlsi", None) in estimates:
            entries.append(_entry("lsi <= mlsi", b, a1, False))
    qs = sorted(q for (k, q) in estimates if k == "dual_beckner")
    betas = {q: get(("dual_beckner", q)).value for q in qs}
    for q1, q2 in zip(qs, qs[1:]):
        entries.append(_entry(
            f"beta_q/(2-q) nondecreasing [{q1},{q2}]",
            betas[q1] / (2.0 - q1), betas[q2] / (2.0 - q2), False))
        entries.append(_entry(
            f"beta_q/q nonincreasing [{q1},{q2}]",
            betas[q2] / q2, betas[q1] / q1, False))
    for p in ps:
        q = 2.0 / p
        for qq in qs:
            if abs(qq - q) < 1e-12:
                entries.append(_entry(
                    f"beckner({p}) >= p beta_(2/p)/2",
                    p * betas[qq] / 2.0, alphas[p], False))
    return BoundLedger(tuple(entries))


# ---------------------------------------------------------------------------
# Stability of the Beckner constant under a change of invariant state
# ---------------------------------------------------------------------------


def stability_factor(L_sigma: DbcLindbladian, L_sigma_prime: DbcLindbladian,
                     p: float) -> float:
    """Comparison factor between Beckner constants of two generators that
    share matrix-unit jump operators but have different commuting diagonal
    invariant states:

    factor = (Lambda_min / Lambda_max) * min_j exp(-|w_j - v_j| (2-p) / (2p)),
    with Lambda_min/max the extreme eigenvalue ratios sigma_k / sigma'_k.
    """
    L_sigma.require_jumps()
    L_sigma_prime.require_jumps()
    s, U = L_sigma.sigma_eig
    sp_mat = U.conj().T @ L_sigma_prime.sigma @ U
    if la.frob(sp_mat - np.diag(np.diag(sp_mat))) > 1e-9:
        raise IncompatibleJumps("invariant states do not commute")
    sp = np.real(np.diag(sp_mat))
    ratios = s / sp
    lam_min, lam_max = float(np.min(ratios)), float(np.max(ratios))

    freq_gap = []
    used = set()
    for (V, omega) in L_sigma.jumps:
        Vt = U.conj().T @ V @ U
        match = None
        for k, (W, nu) in enumerate(L_sigma_prime.jumps):
            if k in used:
                continue
            Wt = U.conj().T @ W @ U
            overlap = abs(la.hs_inner(Vt, Wt))
            if overlap >= (1.0 - 1e-8) * la.frob(Vt) * la.frob(Wt):
                match = (k, nu)
                break
        if match is None:
            raise IncompatibleJumps("jump supports differ")
        used.add(match[0])
        freq_gap.append(abs(omega - match[1]))
    factor = min(np.exp(-g * (2.0 - p) / (2.0 * p)) for g in freq_gap)
    return (lam_min / lam_max) * factor


# ---------------------------------------------------------------------------
# Mixing times
# ---------------------------------------------------------------------------


def mixing_bound(p: float, sigma_min: float, eps: float, alpha_p: float) -> float:
    """h(p, sigma_min, eps): mixing-time bound from the p-Beckner constant."""
    inner = (2.0 / (p * (p - 1.0))) * (sigma_min ** (2.0 / p - 2.0)
                                       - sigma_min ** (p + 2.0 / p - 3.0))
    return (p / (2.0 * alpha_p)) * np.log(np.sqrt(inner) / eps)


def mixing_time(L: DbcLindbladian, eps: float, seed: int = 0) -> float:
    """Empirical trace-distance mixing time: the crossing time of the max
    over a witness set (the eigenstates of sigma plus 8 seeded random pure
    states) of ||P_t† rho - sigma||_1 against eps, bisected to 1% and
    reported from below, so the returned value never exceeds the true
    mixing time."""
    if not 0.0 < eps < 2.0:
        raise ValueError("eps must lie in (0, 2)")
    rep = L.require_primitive()
    d = L.d
    _, U = L.sigma_eig
    rng = np.random.default_rng(seed)
    witnesses = np.array([np.outer(U[:, k], U[:, k].conj()) for k in range(d)]
                         + [la.random_pure(rng, d) for _ in range(8)])

    def worst(t: float) -> float:
        """The largest trace distance to sigma over the witnesses at time t:
        one propagator product and one batched eigensolve for all of them."""
        moved = la.apply_super(L.schrodinger_propagator(t), witnesses)
        return float(np.max(la.trace_norm(moved - L.sigma)))

    if worst(0.0) <= eps:
        return 0.0
    t_hi = 40.0 / rep.spectral_gap
    ts = np.logspace(-3, np.log10(t_hi), 64)
    hit = None
    for t in ts:
        if worst(float(t)) <= eps:
            hit = float(t)
            break
    if hit is None:
        raise OptimizerDiverged("no mixing within the search window")
    lo = 0.0 if hit == ts[0] else float(ts[max(np.searchsorted(ts, hit) - 1, 0)])
    hi = hit
    while hi - lo > 0.01 * hi:
        mid = 0.5 * (lo + hi)
        if worst(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return lo


# ---------------------------------------------------------------------------
# Moment and concentration checks for symmetric semigroups
# ---------------------------------------------------------------------------


def moment_concentration_check(L: DbcLindbladian, X: np.ndarray, r: float,
                               a: float, s: float = 0.0,
                               t: float | None = None) -> Dict[str, float]:
    """Slack report for the moment, exponential-moment and tail inequalities
    of a symmetric semigroup whose Beckner constants satisfy
    alpha_p >= a (p-1)^s.

    Returns rhs - lhs for each checked inequality (nonnegative = pass).
    """
    d = L.d
    if not L.tracial:
        raise NotSymmetric("moment estimates need sigma = I/d")
    if r < 2:
        raise ValueError("r must be at least 2")
    tracial = np.eye(d) / d
    m = ent.weighted_p_norm(X, tracial, 1.0)
    Xc = X - m * np.eye(d)
    Gamma = dh.carre_du_champ(L, X)
    kappa_s = 1.0 / (1.0 - np.exp(-(s + 1.0) / 2.0))
    lhs_m = ent.weighted_p_norm(Xc, tracial, r) ** 2
    rhs_m = (r ** (s + 1.0) * kappa_s / a) * ent.weighted_p_norm(Gamma, tracial, r / 2.0)
    out = {"moment": float(rhs_m - lhs_m)}

    kappa0 = 1.0 / (1.0 - np.exp(-0.5))
    gamma_inf = ent.weighted_p_norm(Gamma, tracial, np.inf)
    absXc = la.abs_power(Xc, 1.0)
    w = np.linalg.eigvalsh(la.herm(absXc))
    lhs_e = float(np.mean(np.exp(w)))
    rhs_e = 2.0 * np.exp(np.e * kappa0 * gamma_inf / (2.0 * a))
    out["exp_int"] = float(rhs_e - lhs_e)

    if t is not None:
        lhs_t = float(np.sum(w >= t)) / d
        if gamma_inf == 0.0:  # X is a multiple of the identity
            rhs_t = 0.0 if t > 0 else 2.0
        else:
            rhs_t = 2.0 * np.exp(-a * t * t / (2.0 * np.e * kappa0 * gamma_inf))
        out["concentration"] = float(rhs_t - lhs_t)
    return out
