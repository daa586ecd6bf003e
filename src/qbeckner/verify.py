"""Executable invariant suite: every structural identity and inequality the
library relies on, runnable at a configurable dimension and seed.

Each check returns a CheckResult; `verify_suite` aggregates them and is the
backend of the CLI `verify` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import constants as ct
from . import dirichlet as dh
from . import entropy as ent
from . import kernels as kn
from . import linalg as la
from . import ricci as rc
from . import transport as tp
from .config import ExperimentConfig
from .errors import NotPrimitive
from .semigroup import DbcLindbladian, JumpTerm, _pair_index, build_from_jumps, evolve


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    lhs: float = 0.0
    rhs: float = 0.0
    slack: float = 0.0
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _random_pd(rng: np.random.Generator, d: int, shift: float = 0.5) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return la.herm(G @ G.conj().T / d + shift * np.eye(d))


def _result(name: str, ok: bool, lhs: float = 0.0, rhs: float = 0.0,
            detail: str = "") -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", float(lhs), float(rhs),
                       float(rhs - lhs), detail)


def _tightest(name: str, cases: List[tuple]) -> CheckResult:
    """Passes when lhs <= rhs in every (lhs, rhs) case, margins included,
    and records the case with the least slack."""
    lhs, rhs = min(cases, key=lambda c: c[1] - c[0])
    return _result(name, all(a <= b for a, b in cases), lhs, rhs)


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, "skip", detail=why)


# ---------------------------------------------------------------------------
# Operator inequalities
# ---------------------------------------------------------------------------


def check_operator_inequalities(d: int, rng: np.random.Generator) -> List[CheckResult]:
    out = []
    Apd = _random_pd(rng, d, shift=0.2)
    Bpd = la.random_density(rng, d, floor=0.05) * d
    cases = []
    for r in (0.3, 0.5, 0.9):
        for q in (1.0, 2.0):
            Ar = la.matrix_power_hermitian(Apd, r)
            Br = la.matrix_power_hermitian(Bpd, r)
            lhs_alt = np.real(np.trace(la.matrix_power_hermitian(
                la.herm(Br @ Ar @ Br), q)))
            rhs_alt = np.real(np.trace(la.matrix_power_hermitian(
                la.herm(Bpd @ Apd @ Bpd), r * q)))
            cases.append((lhs_alt, rhs_alt * (1.0 + 1e-10) + 1e-12))
    out.append(_tightest("araki-lieb-thirring", cases))

    # divided-difference monotonicity under operator domination: <Am,
    # f_p^[1](A, B)[Am]>, f_p(x) = x^(p-1)/(p-1), in the eigenbases of A and B
    p = 1.5
    c = 1.7
    X1 = _random_pd(rng, d)
    X2 = _random_pd(rng, d)
    S1 = _random_pd(rng, d)
    S2 = _random_pd(rng, d)
    Y1, Y2 = (X1 + S1) / c, (X2 + S2) / c
    Am = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    def fp_form(A, B):
        (wA, VA), (wB, VB) = la.herm_eigh(A), la.herm_eigh(B)
        F = kn.stable_powdiff(p - 1.0, wA[:, None], wB[None, :]) / (p - 1.0)
        return np.real(la.hs_inner(Am, VA @ (F * (VA.conj().T @ Am @ VB)) @ VB.conj().T))

    lhs_m = fp_form(Y1, Y2)
    rhs_m = c ** (2.0 - p) * fp_form(X1, X2)
    out.append(_result("divided-difference-monotonicity",
                       lhs_m <= rhs_m * (1 + 1e-10), lhs_m, rhs_m))
    return out


# ---------------------------------------------------------------------------
# Semigroup invariants
# ---------------------------------------------------------------------------


def _mixed_jumps(L: DbcLindbladian) -> Tuple[List[JumpTerm], List[int]]:
    """A second jump set for L's generator, and the sizes of its mixed groups.

    Within each frequency, one jump of each exact adjoint pair is mixed by a
    unitary and the self-adjoint jumps by a real orthogonal matrix, drawn
    from a fixed seed of their own; build_from_jumps adds back the mixed
    pairs' adjoints. Each term of the generator is V† . V or V . V† in its
    jump, so the mix leaves it unchanged. A jump of a pair equal only to
    round-off is kept as it is.
    """
    rng = np.random.default_rng(0)
    groups: dict = {}
    kept = []
    for j, k in L.jump_pairs:
        V, omega = L.jumps[j]
        if k is not None or _pair_index(L.jumps, j) == j:
            groups.setdefault((omega, k is None), []).append(V)
        else:
            kept.append(L.jumps[j])
    mixed = []
    for (omega, real), Vs in groups.items():
        n = len(Vs)
        Z = rng.standard_normal((n, n)) + (0.0 if real else 1j * rng.standard_normal((n, n)))
        mixed += [JumpTerm(W, omega) for W in np.tensordot(np.linalg.qr(Z)[0], np.array(Vs), 1)]
    return mixed + kept, [len(Vs) for Vs in groups.values()]


def check_semigroup(L: DbcLindbladian, rng: np.random.Generator) -> List[CheckResult]:
    out = []
    d = L.d
    X = la.random_hermitian(rng, d)
    Y = la.random_hermitian(rng, d)
    for name, f in (("sqrt", lambda r: r ** 0.5), ("identity", lambda r: r ** 1.0),
                    ("phi_1.5", lambda r: kn.phi_p(1.5, r))):
        lhs = la.f_inner(L.apply(X), Y, L.sigma_eig, f)
        rhs = la.f_inner(X, L.apply(Y), L.sigma_eig, f)
        resid = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        out.append(_result(f"weighted-self-adjointness[{name}]",
                           resid <= 1e-9, resid, 1e-9))

    if L.jumps:
        for s in (0.3, 0.7):
            lhs = -la.f_inner(Y, L.apply(X), L.sigma_eig, lambda r: r ** s)
            rhs = 0.0
            for (V, omega) in L.jumps:
                a, b = np.exp(omega / 2.0), np.exp(-omega / 2.0)
                dX = V @ X - X @ V
                dY = V @ Y - Y @ V
                rhs += la.f_inner(dY, dX, L.sigma_eig, lambda r: b * (a * r / b) ** s)
            resid = abs(lhs - rhs) / max(abs(lhs), 1e-300)
            out.append(_result(f"jump-weighted-dirichlet[s={s}]",
                               resid <= 1e-9, resid, 1e-9))
    else:
        out.append(_skip("jump-weighted-dirichlet", "no jumps"))

    for t in (0.1, 1.0):
        C = la.choi_matrix(L.schrodinger_propagator(t))
        lam_min = float(np.min(np.linalg.eigvalsh(la.herm(C))))
        out.append(_result(f"choi-complete-positivity[t={t}]",
                           lam_min >= -1e-8, -lam_min, 1e-8))

    if L.jumps:
        jumps2, sizes = _mixed_jumps(L)
        L2 = build_from_jumps(L.sigma, jumps2)
        Xp = _random_pd(rng, d)
        rho = la.random_density(rng, d, floor=0.05)
        vals1 = [dh.dirichlet_form_representation(L, Xp, 1.5),
                 tp.gradient_norm_sq(L, rho, 1.5, X)]
        vals2 = [dh.dirichlet_form_representation(L2, Xp, 1.5),
                 tp.gradient_norm_sq(L2, rho, 1.5, X)]
        resid = max(abs(a - b) / max(abs(a), 1e-300) for a, b in zip(vals1, vals2))
        detail = ("every frequency group has one member: the mix is only a phase"
                  if max(sizes) == 1 else f"jumps mixed in frequency groups of {sizes}")
        out.append(_result("decomposition-independence",  # and the rebuild added no jump
                           resid <= 1e-8 and len(L2.jumps) == len(L.jumps), resid, 1e-8, detail))
    else:
        out.append(_skip("decomposition-independence", "no jumps"))
    return out


# ---------------------------------------------------------------------------
# Entropy invariants
# ---------------------------------------------------------------------------


def check_entropy(L: DbcLindbladian, rng: np.random.Generator) -> List[CheckResult]:
    out = []
    d = L.d
    sigma = L.sigma
    for p in (1.3, 2.0):
        # data processing under partial trace on a random bipartite embedding
        rho2 = la.random_density(rng, d * 2, floor=0.02)
        sig2 = la.random_density(rng, d * 2, floor=0.02)
        rho_r = _partial_trace(rho2, d, 2)
        sig_r = _partial_trace(sig2, d, 2)
        lhs = ent.p_divergence(rho_r, sig_r, p)
        rhs = ent.p_divergence(rho2, sig2, p)
        out.append(_result(f"data-processing-partial-trace[p={p}]",
                           lhs <= rhs + 1e-10, lhs, rhs))
        rho = la.random_density(rng, d, floor=0.05)
        lhs = ent.p_divergence(evolve(L, 0.7, "schrodinger", rho), sigma, p)
        rhs = ent.p_divergence(rho, sigma, p)
        out.append(_result(f"data-processing-semigroup[p={p}]",
                           lhs <= rhs + 1e-10, lhs, rhs))

    p = 1.6
    r1, r2 = la.random_density(rng, d, floor=0.03), la.random_density(rng, d, floor=0.03)
    s1, s2 = la.random_density(rng, d, floor=0.05), la.random_density(rng, d, floor=0.05)
    t = 0.4
    lhs = ent.p_divergence(t * r1 + (1 - t) * r2, t * s1 + (1 - t) * s2, p)
    rhs = t * ent.p_divergence(r1, s1, p) + (1 - t) * ent.p_divergence(r2, s2, p)
    out.append(_result("joint-convexity", lhs <= rhs + 1e-10, lhs, rhs))

    Yh = la.random_hermitian(rng, d)
    p0, h = 1.7, 1e-5
    fd = (ent.weighted_p_norm(Yh, sigma, p0 + h) - ent.weighted_p_norm(Yh, sigma, p0 - h)) / (2 * h)
    an = (ent.weighted_p_norm(Yh, sigma, p0) ** (1.0 - p0) / p0**2
          * ent.entropy_functional(ent.power_operator(Yh, sigma, p0, p0), sigma, p0))
    resid = abs(fd - an) / max(abs(an), 1e-300)
    out.append(_result("norm-p-derivative", resid <= 1e-6, resid, 1e-6))

    xs = np.linspace(0.05, 6.0, 41)
    p = 1.45
    gap = float(np.max(np.abs(kn.phi_p(p, xs) / xs - kn.kappa_alpha(1.0 / p, xs))))
    out.append(_result("power-difference-identity", gap <= 1e-12, gap, 1e-12))

    rho = la.random_density(rng, d, floor=0.03)
    p = 1.7
    kp = ent.sandwich_constant(p, np.exp(ent.relative_entropies(rho, sigma, "max")))
    chi = ent.chi2_power_difference(rho, sigma, p)
    F = ent.p_divergence(rho, sigma, p)
    ok = (kp * chi <= F + 1e-9) and (F <= chi / p + 1e-9)
    out.append(_result("two-sided-chi2-sandwich", ok, kp * chi, chi / p,
                       detail=f"F={F:.6e}"))
    return out


def _partial_trace(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    return np.einsum("ikjk->ij", rho.reshape(d1, d2, d1, d2))


# ---------------------------------------------------------------------------
# Dirichlet invariants
# ---------------------------------------------------------------------------


def check_dirichlet(L: DbcLindbladian, rng: np.random.Generator) -> List[CheckResult]:
    out = []
    d = L.d
    X = _random_pd(rng, d)
    cases = []
    for (p, q) in ((0.5, 1.5), (0.8, 2.0), (1.2, 1.8), (1.0, 2.0)):
        Ep = dh.dirichlet_form(L, ent.power_operator(X, L.sigma, p, 2.0), p)
        Eq = dh.dirichlet_form(L, ent.power_operator(X, L.sigma, q, 2.0), q)
        cases.append((Eq - 1e-9, Ep))  # Ep >= Eq - 1e-9
    out.append(_tightest("stroock-varopoulos", cases))

    cases = []
    for p in (1.25, 1.5, 1.75):
        E2 = dh.dirichlet_form(L, ent.power_operator(X, L.sigma, 2.0, p), 2.0)
        Ep = dh.dirichlet_form(L, X, p)
        cases += [(E2, Ep + 1e-9), (Ep, p * p / (4 * (p - 1)) * E2 + 1e-9)]
    out.append(_tightest("lp-regularity", cases))

    vals = [dh.dirichlet_form(L, _random_pd(rng, d), p)
            for p in (1.0, 1.4, 2.0)]
    out.append(_result("dirichlet-nonnegativity", min(vals) >= 0.0, -min(vals), 0.0))

    if L.jumps:
        resid = dh.representation_check(L, X, 1.5)
        out.append(_result("dirichlet-representation", resid <= 1e-8, resid, 1e-8))
    else:
        out.append(_skip("dirichlet-representation", "no jumps"))
    return out


# ---------------------------------------------------------------------------
# Transport and curvature invariants
# ---------------------------------------------------------------------------


def check_transport(L: DbcLindbladian, rng: np.random.Generator) -> List[CheckResult]:
    out = []
    d = L.d
    if not L.jumps:
        return [_skip("transport", "no jumps")]
    rho = la.random_density(rng, d, floor=0.05)
    worst = max(tp.grad_flow_residual(L, rho, p) for p in (1.3, 1.7, 2.0))
    out.append(_result("gradient-flow-identity", worst <= 1e-8, worst, 1e-8))

    r0 = la.random_density(rng, d, floor=0.05)
    r1 = la.random_density(rng, d, floor=0.05)
    p = 1.5
    try:
        L.require_primitive()
    except NotPrimitive as exc:
        # W_{2,p} is a distance only on a primitive model: on a reducible one
        # the metric Gram matrices are singular up to round-off
        out += [_skip(name, f"not primitive: {exc}") for name in
                ("transport-converged", "distance-symmetry", "trace-distance-lower-bound")]
    else:
        opts = tp.W2Opts(N=10)
        dist, path = tp.w2p_solve(L, r0, r1, p, opts)
        dist_rev, path_rev = tp.w2p_solve(L, r1, r0, p, opts)
        out.append(_result("transport-converged", path.converged and path_rev.converged,
                           detail=f"stops: {path.stop}, {path_rev.stop}"))
        # the discrete path energy is symmetric under reversal of the path
        out.append(_tightest("distance-symmetry",
                             [(abs(dist - dist_rev), 1e-6 * max(dist, 1e-12))]))
        C = tp.trace_distance_prefactor(L, p)
        tn = la.trace_norm(r1 - r0)
        out.append(_result("trace-distance-lower-bound", tn <= C * dist * (1 + 1e-9),
                           tn, C * dist))

    # the kernel field [rho]_j dj A on the model's own jumps, at two nearby p
    A = la.random_hermitian(rng, d)
    K1, K2 = tp._Frame(L, rho, p), tp._Frame(L, rho, p + 1e-4)
    base = K1.apply(K1.grad(A))
    gap = la.frob(base - K2.apply(K2.grad(A))) / max(la.frob(base), 1e-300)
    out.append(_result("kernel-p-continuity", gap <= 1e-3, gap, 1e-3))

    # joint convexity of sum_j <Z_j, [rho]_j^-1 Z_j> along segments, with
    # Z = dj of the interpolated direction
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    r2 = la.random_density(rng, d, floor=0.05)

    def f(s):
        fr = tp._Frame(L, (1 - s) * rho + s * r2, p)
        Z = fr.grad((1 - s) * X + s * Y)
        return float(np.sum(np.abs(fr.eig(Z, fr.Q)) ** 2 / fr.theta))

    mid = f(0.5)
    ends = 0.5 * (f(0.0) + f(1.0))
    out.append(_result("inverse-kernel-joint-convexity", mid <= ends + 1e-9,
                       mid, ends))
    return out


def check_ricci(L: DbcLindbladian, rng: np.random.Generator) -> List[CheckResult]:
    out = []
    if not L.jumps:
        return [_skip("ricci", "no jumps")]
    d = L.d
    rho = la.random_density(rng, d, floor=0.1)
    H, G = rc.hessian_matrix(L, rho, 1.5)
    sym = float(np.max(np.abs(H - H.T)))
    out.append(_result("hessian-symmetry", sym <= 1e-9 * max(1.0, np.max(np.abs(H))),
                       sym, 1e-9))

    if L.flat_depolarizing_rate is None:
        out.append(_skip("curvature-implies-beckner",
                         "the two-point constant needs the flat depolarizing model"))
    else:
        p = 1.5
        est = rc.ricci_estimate(L, p, num_states=8, seed=3)
        alpha = ct.alpha_lower(L, p)
        out.append(_result("curvature-implies-beckner",
                           alpha >= est.kappa * p / 2.0 - 1e-4,
                           est.kappa * p / 2.0, alpha))
    return out


def check_decay(L: DbcLindbladian, rng: np.random.Generator) -> List[CheckResult]:
    out = []
    d = L.d
    if L.flat_depolarizing_rate is None:
        return [_skip("classical-decay-certificate",
                      "closed-form constants need the flat depolarizing model")]
    rho0 = la.random_density(rng, d, floor=0.02)
    rhos = {t: evolve(L, t, "schrodinger", rho0) for t in (0.5, 2.0, 5.0)}  # for every p
    X = ent.relative_density(rho0, L.sigma)
    Xs = {t: evolve(L, t, "heisenberg", X) for t in (0.5, 2.0)}
    cases = []
    for p in (1.25, 1.75):
        alpha = ct.alpha_lower(L, p)
        F0 = ent.p_divergence(rho0, L.sigma, p)
        for t, rho_t in rhos.items():
            Ft = ent.p_divergence(rho_t, L.sigma, p)
            cases.append((Ft, np.exp(-4.0 * alpha * t / p) * F0 * (1.0 + 1e-6)))
        # p-norm convergence bound along the same trajectory
        for t, Xt in Xs.items():
            lhs = ent.weighted_p_norm(Xt - np.eye(d), L.sigma, p)
            np_ = ent.weighted_p_norm(X, L.sigma, p)
            rhs = np.exp(-2 * alpha * t / p) * np_ ** (1 - p / 2.0) * np.sqrt(
                2.0 / (p * (p - 1.0)) * (np_**p - ent.weighted_p_norm(X, L.sigma, 1.0) ** p))
            cases.append((lhs, rhs * (1 + 1e-9)))
    out.append(_tightest("classical-decay-certificate", cases))
    return out


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------


def verify_suite(cfg: ExperimentConfig, L: DbcLindbladian) -> List[CheckResult]:
    """Run the invariant suite on the configuration's model L, at its
    dimension and seed."""
    rng = np.random.default_rng(cfg.seed("master"))
    d = cfg.dimension
    if d < 2:
        return [_skip("suite", "dimension 1 is degenerate: all gaps undefined")]
    results = check_operator_inequalities(d, rng)
    results += check_semigroup(L, rng)
    results += check_entropy(L, rng)
    results += check_dirichlet(L, rng)
    results += check_transport(L, rng)
    results += check_ricci(L, rng)
    results += check_decay(L, rng)
    return results
