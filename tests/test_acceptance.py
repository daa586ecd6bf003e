"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json

import numpy as np
import pytest

from qbeckner import cli
from qbeckner import config as cf
from qbeckner import constants as ct
from qbeckner import dirichlet as dh
from qbeckner import entropy as ent
from qbeckner import linalg as la
from qbeckner import ricci as rc
from qbeckner import semigroup as sg
from qbeckner import transport as tp

import oracles
from conftest import SIGMA_STAR, random_pd


def _line(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


@pytest.fixture(scope="module")
def depol_flat():
    return sg.depolarizing(np.eye(2) / 2, 1.0)


@pytest.fixture(scope="module")
def depol_pauli():
    jumps = [sg.JumpTerm(np.sqrt(1.0 / 8.0) * P, 0.0)
             for P in (np.array([[0, 1], [1, 0]], dtype=complex),
                       np.array([[0, -1j], [1j, 0]]),
                       np.diag([1.0, -1.0]).astype(complex))]
    return sg.build_from_jumps(np.eye(2) / 2, jumps)


@pytest.fixture(scope="module")
def depol2():
    return sg.depolarizing(SIGMA_STAR, 1.0)


@pytest.fixture(scope="module")
def flat_pairs_solved(depol_pauli):
    """Ten qubit state pairs solved at p = 2, N = 20 (shared by 8 and 9)."""
    rng = np.random.default_rng(2024)
    pairs = [(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))]
    pairs += [(la.random_density(rng, 2, floor=0.02), la.random_density(rng, 2, floor=0.02))
              for _ in range(9)]
    opts = tp.W2Opts(N=20)
    out = []
    for (r0, r1) in pairs:
        dist, path = tp.w2p_solve(depol_pauli, r0, r1, 2.0, opts)
        out.append((r0, r1, dist, path))
    return out


def test_criterion_01_structure_round_trip(depol2):
    worst = 0.0
    models = [depol2]
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        models.append(sg.depolarizing(la.random_density(rng, d, floor=0.05), 1.3))
        for seed in range(10):
            sigma = la.random_density(np.random.default_rng(100 + seed), d, floor=0.05)
            models.append(sg.random_dbc(sigma, d, 1, seed=seed))
    for L in models:
        jumps = sg.alicki_decompose(L)
        rebuilt = sg.generator_from_jumps(jumps, L.d)
        worst = max(worst, la.frob(rebuilt - L.generator) / la.frob(L.generator))
    _line(1, worst <= 1e-8,
          f"jump decomposition round-trip over {len(models)} generators, "
          f"worst residual {worst:.2e} <= 1e-8")


def test_criterion_02_spectral_anchors():
    ok = True
    details = []
    for sigma, gamma in ((SIGMA_STAR, 1.0), (np.eye(3) / 3, 2.5)):
        L = sg.depolarizing(sigma, gamma)
        gap = L.primitivity.spectral_gap
        ok &= abs(gap - gamma) <= 1e-10
        est = ct.estimate_constant(L, "beckner", p=2.0,
                                   opts=ct.EstimateOpts(num_starts=8, seed=1))
        ok &= abs(est.value - gamma) <= 1e-6
        details.append(f"gamma={gamma}: lambda={gap:.12f}, alpha_2={est.value:.8f}")
    _line(2, ok, "; ".join(details))


def test_criterion_03_classical_cross_oracle(depol_flat):
    assert ct.depol_classical(2.0, 2) == 1.0
    worst = 0.0
    for p in (1.1, 1.25, 1.5, 1.75):
        est = ct.estimate_constant(depol_flat, "beckner", p=p,
                                   opts=ct.EstimateOpts(num_starts=16, seed=2))
        classical = ct.depol_classical(p, 2)
        worst = max(worst, abs(est.value - classical) / classical)
    _line(3, worst <= 1e-3,
          f"optimizer vs two-point reduction, worst relative gap {worst:.2e} <= 1e-3")


def test_criterion_04_two_sided_bounds():
    ok = True
    worst = 0.0
    cases = []
    for d in (2, 3):
        L = sg.depolarizing(np.eye(d) / d, 1.0)
        lam = 1.0
        smin = 1.0 / d
        for p in (1.1, 1.25, 1.5, 1.75, 2.0):
            alpha = ct.depol_classical(p, d)
            lower1 = p * p * smin ** (2.0 - p) * lam / 4.0
            lower2 = max(lam * (p - 1.0), lower1)
            upper = p * lam / 2.0
            slack = min(alpha - lower2, upper - alpha)
            worst = min(worst, slack) if cases else slack
            worst = min(worst, slack)
            ok &= slack >= -1e-6
            cases.append((d, p))
    # exact p = 2 anchor on the tilted fixture: alpha_2 = lambda
    L2 = sg.depolarizing(SIGMA_STAR, 1.0)
    alpha2 = ct.estimate_constant(L2, "beckner", p=2.0,
                                  opts=ct.EstimateOpts(num_starts=6, seed=1)).value
    smin = 0.25
    ok &= alpha2 >= max(1.0, 4 * smin**0 / 4.0) - 1e-6 and alpha2 <= 1.0 + 1e-6
    _line(4, ok, f"{len(cases)} classical cases + exact p=2 anchor, "
                 f"worst slack {worst:.2e} >= -1e-6")


def test_criterion_05_stroock_varopoulos_and_regularity():
    rng = np.random.default_rng(5)
    count = 0
    worst = np.inf
    models = {d: [sg.random_dbc(la.random_density(np.random.default_rng(40 + k), d,
                                                  floor=0.05), d, 1, seed=k)
                  for k in range(3)] for d in (2, 3)}
    while count < 200:
        d = 2 if count % 2 == 0 else 3
        L = models[d][count % 3]
        X = random_pd(rng, d)
        p = float(rng.uniform(0.3, 2.0))
        q = float(rng.uniform(p, 2.0))
        if abs(p - 1.0) < 1e-3 or abs(q - 1.0) < 1e-3 or q - p < 1e-3:
            continue
        Ep = dh.dirichlet_form(L, ent.power_operator(X, L.sigma, p, 2.0), p)
        Eq = dh.dirichlet_form(L, ent.power_operator(X, L.sigma, q, 2.0), q)
        worst = min(worst, Ep - Eq)
        pr = float(rng.uniform(1.05, 2.0))
        E2 = dh.dirichlet_form(L, ent.power_operator(X, L.sigma, 2.0, pr), 2.0)
        Epr = dh.dirichlet_form(L, X, pr)
        worst = min(worst, Epr - E2,
                    pr * pr / (4 * (pr - 1.0)) * E2 - Epr)
        count += 1
    _line(5, worst >= -1e-9,
          f"200 comparison instances at d in {{2,3}}, worst slack {worst:.2e} >= -1e-9")


def test_criterion_06_sandwich():
    rng = np.random.default_rng(6)
    worst = np.inf
    for k in range(100):
        d = 2 if k % 2 == 0 else 3
        sigma = la.random_density(rng, d, floor=0.05)
        rho = la.random_density(rng, d, floor=0.01)
        p = float(rng.uniform(1.05, 2.0))
        kp = ent.sandwich_constant(p, np.exp(ent.relative_entropies(rho, sigma, "max")))
        chi = ent.chi2_power_difference(rho, sigma, p)
        F = ent.p_divergence(rho, sigma, p)
        worst = min(worst, F - kp * chi, chi / p - F)
    _line(6, worst >= -1e-9,
          f"100 two-sided divergence comparisons, worst slack {worst:.2e} >= -1e-9")


def test_criterion_07_gradient_flow_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for k in range(50):
        d = 2 if k % 2 == 0 else 3
        sigma = la.random_density(rng, d, floor=0.05)
        L = sg.random_dbc(sigma, d, 1, seed=k)
        rho = la.random_density(rng, d, floor=0.03)
        p = float(rng.uniform(1.05, 2.0))
        worst = max(worst, tp.grad_flow_residual(L, rho, p))
    _line(7, worst <= 1e-8,
          "50 random gradient-flow assemblies, worst residual <= 1e-8")


def test_criterion_08_flat_metric_anchor(depol_pauli, flat_pairs_solved):
    worst = 0.0
    for (r0, r1, dist, _) in flat_pairs_solved:
        flat = tp.flat_w22(depol_pauli, r0, r1)
        worst = max(worst, abs(dist - flat) / flat)
    r0, r1, dist, _ = flat_pairs_solved[0]
    antipodal_ok = abs(dist - 2.0) <= 0.02
    _line(8, worst <= 0.01 and antipodal_ok,
          "10 solver-vs-closed-form pairs, worst gap <= 1e-2; "
          f"antipodal distance {dist:.4f} = 2 +/- 0.02")


def test_criterion_09_geodesic_property(depol_pauli, flat_pairs_solved):
    worst_uniformity = 0.0
    lower_ok = True
    for (r0, r1, dist, path) in flat_pairs_solved:
        ratio = max(path.action_per_step) / min(path.action_per_step) - 1.0
        worst_uniformity = max(worst_uniformity, ratio)
        C = tp.trace_distance_prefactor(depol_pauli, 2.0)
        lower_ok &= la.trace_norm(r1 - r0) <= C * dist * (1 + 1e-9)
    _line(9, worst_uniformity <= 0.02 and lower_ok,
          "per-step action uniformity <= 2e-2, "
          "trace-distance lower bound holds on all solved pairs")


def test_criterion_10_curvature_anchor(depol_flat):
    ok = True
    kappas = {}
    for p in (1.25, 1.5, 2.0):
        est = rc.ricci_estimate(depol_flat, p, num_states=64, seed=10)
        kappas[p] = est.kappa
        ok &= est.kappa >= p / 2.0 - 1e-6
    # Hessian quadratic form vs second differences of F along shot geodesics
    rng = np.random.default_rng(11)
    worst_fd = 0.0
    for p in (1.25, 2.0):
        rho = la.random_density(rng, 2, floor=0.2)
        U = 0.3 * la.traceless_part(la.random_hermitian(rng, 2))
        hess = rc.hessian_form(depol_flat, rho, p, U)
        h, steps = 1e-3, 8
        up = tp.geodesic_shoot(depol_flat, rho, U, p, T=h, steps=steps)[-1].rho
        dn = tp.geodesic_shoot(depol_flat, rho, -U, p, T=h, steps=steps)[-1].rho
        F = lambda r: ent.p_divergence(la.herm(r) / np.trace(r).real,
                                       depol_flat.sigma, p)
        fd = (F(up) - 2 * F(rho) + F(dn)) / h**2
        worst_fd = max(worst_fd, abs(hess - fd) / abs(fd))
    ok &= worst_fd <= 1e-3
    # the gap is round-off of F divided by h^2, so the line prints the bound
    # kappa is 1 to round-off, so it prints to 6 digits
    shown = ", ".join(f"{p}: {k:#.6g}" for p, k in kappas.items())
    _line(10, ok, f"kappa estimates {{{shown}}} all >= gamma p/2 - 1e-6; "
                  "Hessian-vs-finite-difference gap <= 1e-3")


def test_criterion_11_curvature_chain(depol_flat):
    rng = np.random.default_rng(12)
    states = [la.random_density(rng, 2, floor=0.05) for _ in range(2)]
    tol = 0.02
    ok = True
    msgs = []
    for p in (1.5, 2.0):
        kappa = p / 2.0  # gamma p / 2 with gamma = 1
        rep = rc.inequality_checks(depol_flat, p, kappa, states,
                                   w_opts=tp.W2Opts(N=12))
        for name in ("hwi", "tcp", "diameter"):
            for e in rep[name]:
                scale = max(abs(e["lhs"]), abs(e["rhs"]), 1e-6)
                ok &= e["slack"] >= -tol * scale
        msgs.append(f"p={p}: hwi/tcp/diameter hold")
    # contraction with equality at p = 2
    out = rc.dynamic_checks(depol_flat, 2.0, 1.0, "contraction", states=states,
                            times=(0.1, 0.5, 1.0), w_opts=tp.W2Opts(N=12))
    for e in out:
        ok &= abs(e["lhs"] - e["rhs"]) <= 0.01 * max(e["rhs"], 1e-9)
    msgs.append("contraction equality at p=2 within 1%")
    dirs = [0.4 * la.traceless_part(la.random_hermitian(rng, 2))]
    out = rc.dynamic_checks(depol_flat, 1.5, 0.75, "gradient_estimate",
                            states=states[:1], directions=dirs, times=(0.2, 0.8))
    for e in out:
        ok &= e["slack"] >= -1e-8
    msgs.append("gradient estimate holds")
    _line(11, ok, "; ".join(msgs))


def test_criterion_12_mixing(depol_flat, depol2):
    anchor = ct.mixing_bound(2.0, 0.25, 0.01, 1.0)
    ok = abs(anchor - np.log(100.0 * np.sqrt(3.0))) <= 1e-10
    # the certified constants on the tilted model, the two-point ones on the flat
    for L in (depol2, depol_flat):
        for eps in (0.1, 0.01):
            emp = ct.mixing_time(L, eps, seed=3)
            bound = min(ct.mixing_bound(p, L.sigma_min, eps, ct.alpha_lower(L, p))
                        for p in (1.05, 1.1, 1.25, 1.5, 1.75, 2.0))
            ok &= emp <= bound
    _line(12, ok, f"h(2,1/4,0.01) = log(100 sqrt 3) to 1e-10; empirical mixing "
                  f"below the bound for both fixtures at eps in {{0.1, 0.01}}")


def test_criterion_13_moments_and_concentration():
    rng = np.random.default_rng(13)
    worst = np.inf
    for d in (2, 3):
        L = sg.depolarizing(np.eye(d) / d, 1.0)
        a = ct.certified_uniform_alpha(1.0, 1.0 / d)
        for k in range(25):
            X = la.random_hermitian(rng, d)
            for r in (2.0, 3.0, 4.0, 6.0):
                rep = ct.moment_concentration_check(L, X, r=r, a=a, s=0.0, t=1.0)
                worst = min(worst, rep["moment"], rep["exp_int"],
                            rep["concentration"])
    _line(13, worst >= -1e-8,
          f"moment/exponential/tail inequalities on 50 observables x 4 orders, "
          f"worst slack {worst:.2e} >= -1e-8")


def test_criterion_14_limit_consistency(depol_flat, depol2):
    ok = True
    msgs = []
    opts = ct.EstimateOpts(num_starts=12, seed=4)
    for L, name in ((depol_flat, "flat"), (depol2, "tilted")):
        mlsi = ct.estimate_constant(L, "mlsi", opts=opts).value
        worst = 0.0
        for p in (1.05, 1.02, 1.01):
            alpha = ct.estimate_constant(L, "beckner", p=p, opts=opts).value
            # relative to the larger constant: at p = 1.05 the true limit gap
            # is ~(p-1) and slightly exceeds 5e-2 when normalized by alpha_1
            worst = max(worst, abs(alpha - mlsi) / max(alpha, mlsi))
        ok &= worst <= 5e-2
        msgs.append(f"{name}: max relative gap alpha_p vs alpha_1 = {worst:.4f}")
    rng = np.random.default_rng(14)
    rho = la.random_density(rng, 3, floor=0.05)
    sigma = la.random_density(rng, 3, floor=0.05)
    A = la.random_hermitian(rng, 3)
    # the library kernel on every jump of a model with nonzero frequencies
    L = sg.random_dbc(sigma, 3, 1, seed=14)
    fr = tp._Frame(L, rho, 1.001)
    X = fr.grad(A)
    ref = np.array([oracles.carlen_maas_apply(rho, omega, Xj)
                    for Xj, omega in zip(X, L.jump_stack[1])])
    gap = la.frob(fr.apply(X) - ref) / la.frob(ref)
    ok &= gap <= 1e-2
    msgs.append(f"kernel p=1.001 vs logarithmic mean: {gap:.2e} <= 1e-2")
    _line(14, ok, "; ".join(msgs))


def test_criterion_15_determinism():
    def one_run():
        cfg = cf.fixtures("depol2")
        cfg.tasks = list(cf.ALL_TASKS)
        cfg.p_grid = [1.25, 2.0]
        cfg.q_grid = [1.5]
        cfg.num_starts = 4
        cfg.transport_steps = 6
        cfg.epsilons = [0.1]
        report = cli.run(cfg)
        report.pop("timings")
        return report

    first, second = one_run(), one_run()
    identical = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    green = first["summary"]["passed"] and not first["errors"]
    _line(15, identical and green,
          "two full-suite runs with identical seeds produce identical green "
          "reports modulo timings")
