import re

import numpy as np
import pytest

from qbeckner import cli
from qbeckner import config as cf
from qbeckner import constants as ct
from qbeckner import dirichlet as dh
from qbeckner import entropy as ent
from qbeckner import linalg as la
from qbeckner import semigroup as sg
from qbeckner.errors import (
    GradientCheckFailed,
    IncompatibleJumps,
    MissingEstimate,
    NotPrimitive,
    NotSymmetric,
    OptimizerDiverged,
)

import oracles
from conftest import SIGMA_STAR

FAST = ct.EstimateOpts(num_starts=8, seed=3)


def reference_ratio(L, kind, param, X):
    """The Rayleigh ratio of each kind from the public norms, entropies and
    Dirichlet forms, BIG where the denominator is at most RIDGE_FLOOR."""
    if kind == "beckner":
        p = float(param)
        den = ent.weighted_p_norm(X, L.sigma, p) ** p - 1.0
        num = (p - 1.0) * dh.dirichlet_form(L, X, p)
    elif kind == "mlsi":
        den = ent.entropy_functional(X, L.sigma, 1.0)
        num = dh.dirichlet_form(L, X, 1.0)
    elif kind == "lsi":
        den = ent.entropy_functional(X, L.sigma, 2.0)
        num = dh.dirichlet_form(L, X, 2.0)
    else:
        q = float(param)
        den = ent.q_variance(X, L.sigma, q)
        num = (2.0 - q) * dh.dirichlet_form(L, X, 2.0)
    return ct.BIG if den <= ct.RIDGE_FLOOR else num / den


def reference_witness(L, kind, Y):
    """Y†Y scaled to the feasible cone: unit sigma-mean for beckner and
    mlsi, unit ||.||_{2,sigma} for lsi and dual_beckner."""
    X0 = Y.conj().T @ Y
    if kind in ("beckner", "mlsi"):
        return X0 / np.trace(L.sigma @ X0).real
    return X0 / ent.weighted_p_norm(X0, L.sigma, 2.0)


class TestEstimateConstant:
    def test_poincare_is_exact_gap(self, depol2):
        est = ct.estimate_constant(depol2, "poincare")
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_beckner_p2_equals_gap(self, depol2):
        est = ct.estimate_constant(depol2, "beckner", p=2.0, opts=FAST)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_witness_reproduces_value(self, depol2):
        est = ct.estimate_constant(depol2, "beckner", p=1.5, opts=FAST)
        if not est.capped:
            assert oracles.ratio_of_witness(depol2, est) == pytest.approx(est.value, rel=1e-6)
        else:
            assert est.witness is None

    def test_cap_binds_for_flat_qubit(self, depol_flat):
        # the flat qubit infimum sits on the linearization ridge p lambda / 2
        est = ct.estimate_constant(depol_flat, "beckner", p=1.25, opts=FAST)
        assert est.value == pytest.approx(1.25 / 2.0, rel=1e-6)

    def test_linearization_ratio(self, depol2):
        # the ratio at 1 + eps U_gap approaches the cap value p lambda / 2
        # (eps large enough to stay outside the guarded 0/0 ridge)
        p = 1.5
        U = depol2.gap_eigenvector
        X = np.eye(2) + 1e-3 * U
        X = X / np.trace(SIGMA_STAR @ X).real
        assert reference_ratio(depol2, "beckner", p, X) == pytest.approx(p / 2.0, rel=5e-3)
        assert ct._ratio_and_grad(depol2, [("beckner", p)])(X)[0] == pytest.approx(
            p / 2.0, rel=5e-3)

    def test_expansion_of_norm_and_form(self, rng, depol2):
        # second-order expansions behind the linearization cap
        from qbeckner.kernels import phi_p
        p, eps = 1.6, 1e-4
        U = la.traceless_part(la.random_hermitian(rng, 2))
        U = U - np.trace(SIGMA_STAR @ U).real * np.eye(2)
        Z = np.eye(2) + eps * U
        norm_p = ent.weighted_p_norm(Z, SIGMA_STAR, p) ** p
        quad = oracles.f_norm_sq(U, SIGMA_STAR, lambda x: phi_p(p, x))
        expected = 1.0 + eps * p * np.trace(SIGMA_STAR @ U).real \
            + eps**2 / 2.0 * p * (p - 1.0) * quad
        assert norm_p == pytest.approx(expected, abs=5e-11)

    @pytest.mark.parametrize("kind,p,q", [
        ("beckner", None, None), ("beckner", 0.5, None), ("beckner", 1.0, None),
        ("beckner", 2.5, None), ("dual_beckner", None, None),
        ("dual_beckner", None, 0.5), ("dual_beckner", None, 2.0),
        ("dual_beckner", None, 2.5)])
    def test_parameter_out_of_range_rejected(self, depol2, kind, p, q):
        # the ranges of config_from_dict: p in (1, 2], q in [1, 2)
        with pytest.raises(ValueError, match=kind):
            ct.estimate_constant(depol2, kind, p=p, q=q, opts=FAST)

    def test_not_primitive_rejected(self):
        L = sg.random_dbc(SIGMA_STAR, 0, 0, seed=1)
        with pytest.raises(NotPrimitive):
            ct.estimate_constant(L, "beckner", p=1.5, opts=FAST)

    def test_dual_beckner_and_lsi_mlsi(self, depol2):
        lam = 1.0
        mlsi = ct.estimate_constant(depol2, "mlsi", opts=FAST)
        lsi = ct.estimate_constant(depol2, "lsi", opts=FAST)
        dual = ct.estimate_constant(depol2, "dual_beckner", q=1.5, opts=FAST)
        assert 0 < mlsi.value <= lam / 2.0 + 1e-9
        assert 0 < lsi.value <= lam / 2.0 + 1e-9
        assert lsi.value <= mlsi.value + 1e-3
        assert dual.value > 0

    def test_dual_beckner_q1_is_spectral_gap(self, depol2):
        # at q = 1 the dual inequality is the Poincare inequality in the
        # KMS norm, whose optimal constant is the gap
        est = ct.estimate_constant(depol2, "dual_beckner", q=1.0, opts=FAST)
        assert est.value == pytest.approx(1.0, rel=1e-5)


KINDS = [("beckner", 1.05), ("beckner", 1.5), ("beckner", 2.0), ("mlsi", None),
         ("lsi", None), ("dual_beckner", 1.0), ("dual_beckner", 1.5)]


@pytest.fixture(scope="module")
def flat3():
    """A random detailed-balance qutrit model with sigma = I/3."""
    return sg.random_dbc(np.eye(3) / 3, 3, 1, seed=5)


@pytest.fixture(scope="module")
def dbc4():
    sigma = la.random_density(np.random.default_rng(4), 4, floor=0.05)
    return sg.random_dbc(sigma, 4, 1, seed=4)


class TestFusedRatio:
    @pytest.mark.parametrize("model", ["dbc2", "dbc3", "dbc4", "flat3"])
    @pytest.mark.parametrize("kind,param", KINDS)
    def test_matches_ratio_and_central_differences(self, request, model, kind, param):
        # Bounds 1e-12 relative on values and 1e-6 relative in norm on
        # gradients. The largest gaps measured over these cases were 3.5e-14
        # on values (d = 3) and 9.6e-8 on gradients (d = 4), both for Beckner
        # at p = 1.05; central differences with step 1e-6 carry errors of
        # that order themselves.
        L = request.getfixturevalue(model)
        d = L.d
        objective = ct._objective(L, [(kind, param)])

        def reference(y):
            return reference_ratio(L, kind, param, reference_witness(L, kind, ct._unpack(y, d)))

        rng = np.random.default_rng(7)
        eps = 1e-6
        witnesses = [np.eye(d) + 0.7 * (rng.standard_normal((d, d))
                                        + 1j * rng.standard_normal((d, d))) for _ in range(3)]
        if model == "flat3":
            # on a flat sigma, A is a multiple of X = Y†Y = V diag(2, 2, 1/2) V†,
            # a doubly repeated eigenvalue: the divided differences of the
            # Dirichlet forms take their derivative branch off the diagonal
            V = la.herm_eigh(la.random_hermitian(rng, d))[1]
            witnesses.append((V * np.sqrt([2.0, 2.0, 0.5])) @ V.conj().T)
        for Y in witnesses:
            y = ct._pack(Y)
            value, grad = objective(y)
            assert value == pytest.approx(reference(y), rel=1e-12)
            fd = np.array([(reference(y + eps * e) - reference(y - eps * e)) / (2 * eps)
                           for e in np.eye(y.size)])
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("kind,param", KINDS)
    def test_ridge_returns_big_and_zero(self, depol2, kind, param):
        X = np.eye(2) + 1e-5 * depol2.gap_eigenvector
        X = ct._normalize(depol2, kind in ct.UNIT_MEAN,
                          la.matrix_power_hermitian(X, 0.5)[None])[0][0]
        value, G = ct._ratio_and_grad(depol2, [(kind, param)])(X)
        assert value == ct.BIG
        assert not np.any(G)
        value, grad = ct._objective(depol2, [(kind, param)])(np.zeros(8))
        assert value == ct.BIG
        assert not np.any(grad)

    @pytest.mark.parametrize("kind,param", KINDS)
    def test_near_identity_start_completes(self, depol2, kind, param):
        starts = ct._seed_starts(depol2, 2, seed=0)
        assert la.frob(starts[1] - np.eye(2)) == pytest.approx(1.5e-3)
        p = param if kind == "beckner" else None
        q = param if kind == "dual_beckner" else None
        est = ct.estimate_constant(depol2, kind, p=p, q=q,
                                   opts=ct.EstimateOpts(num_starts=2))
        assert np.isfinite(est.value) and est.num_starts == 2

    @pytest.mark.parametrize("model", ["dbc3", "dbc4"])
    @pytest.mark.parametrize("kind,param", KINDS)
    def test_value_is_best_start_and_witness_ratio(self, request, model, kind, param):
        # the reported value is the smallest ratio the optimizer evaluated,
        # and the witness is the matrix it evaluated there; the public
        # oracle agreed to at most 2.7e-10 relative over these cases (the
        # gap-limited p = 2 and q = 1 minima, near the ridge)
        L = request.getfixturevalue(model)
        p = param if kind == "beckner" else None
        q = param if kind == "dual_beckner" else None
        est = ct.estimate_constant(L, kind, p=p, q=q, opts=FAST)
        if est.capped:
            assert est.witness is None and est.value < min(est.diagnostics.values)
            return
        assert est.value == min(est.diagnostics.values)
        assert oracles.ratio_of_witness(L, est) == pytest.approx(est.value, rel=1e-12)
        assert reference_ratio(L, kind, param, est.witness) == pytest.approx(
            est.value, rel=1e-9)

    def test_wrong_gradient_fails_self_test(self, depol2, monkeypatch):
        fused = ct._ratio_and_grad

        def doubled(L, specs):
            inner = fused(L, specs)

            def wrong(X, rows=None):
                value, G = inner(X, rows)
                return value, 2.0 * G

            return wrong

        monkeypatch.setattr(ct, "_ratio_and_grad", doubled)
        with pytest.raises(GradientCheckFailed):
            ct.estimate_constant(depol2, "beckner", p=1.5, opts=FAST)


class TestBatchedEstimation:
    @pytest.mark.parametrize("model", ["dbc2", "dbc3", "dbc4"])
    @pytest.mark.parametrize("kind,param", KINDS)
    def test_stack_matches_single_points(self, request, model, kind, param):
        # one batched evaluation of eight points against eight single calls,
        # the near-identity starts included; the measured gaps are 0
        L = request.getfixturevalue(model)
        objective = ct._objective(L, [(kind, param)])
        ys = ct._pack(np.array(ct._seed_starts(L, 8, seed=5)))
        values, grads = objective(ys)
        assert values.shape == (8,) and grads.shape == ys.shape
        for y, value, grad in zip(ys, values, grads):
            v1, g1 = objective(y)
            assert isinstance(v1, float)
            assert value == pytest.approx(v1, rel=1e-12)
            assert np.linalg.norm(grad - g1) <= 1e-12 * max(np.linalg.norm(g1), 1e-300)

    @pytest.mark.parametrize("model", ["depol2", "dbc3"])
    @pytest.mark.parametrize("kind,param", KINDS)
    def test_self_test_matches_sequential(self, request, model, kind, param):
        # the self-test's one call on seven points gives the gap of seven
        # single calls bit for bit
        L = request.getfixturevalue(model)
        objective = ct._objective(L, [(kind, param)])
        rng = np.random.default_rng(3)
        x = ct._pack(np.eye(L.d) + 0.5 * (rng.standard_normal((L.d, L.d))
                                          + 1j * rng.standard_normal((L.d, L.d))))
        assert la.check_gradient(objective, x, kind) == oracles.check_gradient_sequential(
            objective, x, kind)

    def test_stopped_start_keeps_its_point(self):
        # on f = x^T A x / 2, start 0 sits at the minimum and stops at once on
        # the gradient test; start 1 starts so close that its decrease drops
        # below ftol (on the absolute scale 1) after few steps; start 2 goes
        # on. Each runs beside start 2 in a stack of two, where the agreement
        # rule cannot cut (its quorum of 2 is every start)
        A = np.diag(np.arange(1.0, 7.0))

        def fun(x):
            return 0.5 * np.einsum("ki,ij,kj->k", x, A, x), x @ A

        x0 = np.array([np.zeros(6), np.full(6, 1e-4), np.linspace(-30.0, 50.0, 6)])
        res = la.minimize(fun, x0[[0, 2]], ftol=1e-8)
        assert res.stops == ("gtol", "ftol")
        assert res.iterations[0] == 0 and res.evaluations[0] == 1
        assert np.array_equal(res.x[0], x0[0])
        assert res.evaluations[1] == res.nfev
        assert res.fun[1] <= 1e-8 * 0.5 * x0[2] @ A @ x0[2]
        # the tracer of the benchmark reads these two counts
        assert isinstance(res.nit, int) and isinstance(res.nfev, int)
        assert res.nit == max(res.iterations)
        res = la.minimize(fun, x0[1:], ftol=1e-8)
        assert res.stops == ("ftol", "ftol")
        assert 0 < res.iterations[0] < res.iterations[1]
        assert res.evaluations[0] < res.evaluations[1] == res.nfev
        # the point start 1 stopped at is the one it reached alone
        alone = la.minimize(fun, x0[1:2], ftol=1e-8)
        assert np.array_equal(alone.x[0], res.x[0])
        # all three in one stack: start 1 stops above start 0's value 0, so
        # only start 0 agrees with the best, the quorum of 2 is not met, and
        # start 2 is not cut
        res = la.minimize(fun, x0, ftol=1e-8)
        assert res.fun[0] == 0.0 < res.fun[1]
        assert res.stops == ("gtol", "ftol", "ftol")
        assert np.array_equal(alone.x[0], res.x[1])

    def test_start_at_origin_moves(self):
        # the step cap is relative to max(|x|, 1), so a start at x = 0 (where
        # the transport solve starts) reaches a minimum away from 0; a cap of
        # MAX_STEP * |x| would freeze it there
        A = np.diag(np.arange(1.0, 7.0))
        xstar = np.linspace(-2.0, 3.0, 6)

        def fun(x):
            r = x - xstar
            return 0.5 * np.einsum("ki,ij,kj->k", r, A, r), r @ A

        res = la.minimize(fun, np.zeros((1, 6)), ftol=1e-14)
        assert res.stops[0] in ("ftol", "gtol") and res.iterations[0] > 0
        assert np.max(np.abs(res.x[0] - xstar)) <= 1e-6

    def test_start_order_does_not_matter(self, dbc3, monkeypatch):
        opts = ct.EstimateOpts(num_starts=6, seed=2)
        seed_starts = ct._seed_starts
        est = ct.estimate_constant(dbc3, "beckner", p=1.5, opts=opts)
        monkeypatch.setattr(ct, "_seed_starts", lambda *a: seed_starts(*a)[::-1])
        rev = ct.estimate_constant(dbc3, "beckner", p=1.5, opts=opts)
        assert rev.value == est.value
        assert rev.best_residual == est.best_residual
        assert rev.diagnostics.values == est.diagnostics.values[::-1]
        assert rev.diagnostics.iterations == est.diagnostics.iterations[::-1]

    @pytest.mark.parametrize("kind,param", KINDS)
    def test_start_order_does_not_matter_when_cut(self, dbc3, monkeypatch, kind, param):
        # with 8 starts the agreement rule cuts every kind's stack on dbc3;
        # whether and when it cuts depends on the set of starts only
        opts = ct.EstimateOpts(num_starts=8, seed=3)
        kw = {"q" if kind == "dual_beckner" else "p": param}
        seed_starts = ct._seed_starts
        est = ct.estimate_constant(dbc3, kind, opts=opts, **kw)
        monkeypatch.setattr(ct, "_seed_starts", lambda *a: seed_starts(*a)[::-1])
        rev = ct.estimate_constant(dbc3, kind, opts=opts, **kw)
        assert "agreed" in est.diagnostics.stops
        assert rev.value == est.value and rev.best_residual == est.best_residual
        for field in ("values", "iterations", "evaluations", "stops"):
            assert getattr(rev.diagnostics, field) == getattr(est.diagnostics, field)[::-1]

    def test_diagnostics_per_start(self, depol2):
        est = ct.estimate_constant(depol2, "mlsi", opts=FAST)
        diag = est.diagnostics
        assert len(diag.iterations) == len(diag.evaluations) == len(diag.stops) \
            == len(diag.values) == FAST.num_starts
        assert all(e >= i + 1 for i, e in zip(diag.iterations, diag.evaluations))
        assert set(diag.stops) <= set(la.STOPS[1:])
        assert min(diag.values) == pytest.approx(est.value, rel=1e-12)
        assert ct.estimate_constant(depol2, "poincare").diagnostics is None


def fixture_specs(name):
    """The generator of a fixture and the optimized specs of its constants
    task: the Beckner p grid, mlsi, lsi and the dual-Beckner q grid."""
    cfg = cf.fixtures(name)
    return cf.build_generator(cfg), ([("beckner", p) for p in cfg.p_grid]
                                     + [("mlsi", None), ("lsi", None)]
                                     + [("dual_beckner", q) for q in cfg.q_grid])


class TestStackedEstimation:
    @pytest.mark.parametrize("name", ["depol3", "random_dbc_seeded", "classical_embed"])
    def test_row_does_not_depend_on_its_stack(self, name):
        # every spec at four points, in one mixed stack in spec order, against
        # each row alone through an objective of its one spec, bit for bit;
        # the grids hold p = 1.5 and q = 1.5, where a^(1/2) is a square root
        L, specs = fixture_specs(name)
        assert ("beckner", 1.5) in specs and ("dual_beckner", 1.5) in specs
        ys = ct._pack(np.array(ct._seed_starts(L, 4, seed=1)))
        rows = np.repeat(np.arange(len(specs)), len(ys))
        points = np.tile(ys, (len(specs), 1))
        values, grads = ct._objective(L, specs)(points, rows)
        for y, k, value, grad in zip(points, rows, values, grads):
            v1, g1 = ct._objective(L, [specs[k]])(y[None])
            assert value == v1[0] and np.array_equal(grad, g1[0]), specs[k]

    def test_rows_out_of_spec_order_raise(self, depol3):
        _, specs = fixture_specs("depol3")
        ys = ct._pack(np.array(ct._seed_starts(depol3, 2, seed=1)))
        with pytest.raises(ValueError, match="rows not in spec order"):
            ct._objective(depol3, specs)(np.tile(ys, (2, 1)), [0, 3, 1, 3])

    def test_specs_out_of_kind_order_raise(self, depol3):
        with pytest.raises(ValueError, match="not in KINDS order"):
            ct._ratio_and_grad(depol3, [("mlsi", None), ("beckner", 1.5)])

    def test_any_spec_order_gives_the_kind_ordered_estimates(self, depol3):
        # a permuted list, with poincare in the middle and one spec twice,
        # gets the estimates of the kind-ordered call, in its own order
        _, specs = fixture_specs("depol3")
        ordered = [("poincare", None)] + specs
        by_spec = dict(zip(ordered, ct.estimate_constants(depol3, ordered, FAST)))
        permuted = specs[::-1][:4] + [("poincare", None)] + specs[::-1][4:] + [specs[2]]
        for spec, est in zip(permuted, ct.estimate_constants(depol3, permuted, FAST)):
            ref = by_spec[spec]
            assert (est.kind, est.param) == spec
            for field in ("value", "num_starts", "best_residual", "capped", "diagnostics"):
                assert getattr(est, field) == getattr(ref, field), (spec, field)
            assert (est.witness is None) == (ref.witness is None)
            if est.witness is not None:
                assert np.array_equal(est.witness, ref.witness)

    def test_all_specs_match_each_alone(self, depol3):
        _, specs = fixture_specs("depol3")
        specs = [("poincare", None)] + specs
        together = ct.estimate_constants(depol3, specs, FAST)
        assert "agreed" in {s for est in together if est.diagnostics
                            for s in est.diagnostics.stops}
        for spec, est in zip(specs, together):
            alone = ct.estimate_constants(depol3, [spec], FAST)[0]
            assert (est.kind, est.param) == spec
            for field in ("value", "num_starts", "best_residual", "capped", "diagnostics"):
                assert getattr(est, field) == getattr(alone, field), (spec, field)
            assert (est.witness is None) == (alone.witness is None)
            if est.witness is not None:
                assert np.array_equal(est.witness, alone.witness)

    @staticmethod
    def break_kinds(monkeypatch, kinds, how):
        """Replace the evaluator's output on the rows of the given kinds."""
        fused = ct._ratio_and_grad

        def broken(L, specs):
            inner = fused(L, specs)

            def evaluate(X, rows=None):
                value, G = inner(X, rows)
                hit = np.isin([specs[k][0] for k in rows], kinds)
                return how(value, G, hit)

            return evaluate

        monkeypatch.setattr(ct, "_ratio_and_grad", broken)

    @pytest.mark.parametrize("kinds,first", [
        (["beckner"], "beckner[1.05]"), (["lsi", "dual_beckner"], "lsi"),
        (["dual_beckner"], "dual_beckner[1.2]"), (["mlsi", "beckner"], "beckner[1.05]")])
    def test_self_test_names_first_failing_spec(self, depol3, monkeypatch, kinds, first):
        def doubled(value, G, hit):
            return value, np.where(hit[:, None, None], 2.0 * G, G)

        self.break_kinds(monkeypatch, kinds, doubled)
        _, specs = fixture_specs("depol3")
        with pytest.raises(GradientCheckFailed, match=rf"^{re.escape(first)} gradient"):
            ct.estimate_constants(depol3, [("poincare", None)] + specs, FAST)

    @pytest.mark.parametrize("kind", ["mlsi", "dual_beckner"])
    def test_diverged_names_the_kind(self, depol3, monkeypatch, kind):
        def nan(value, G, hit):
            return np.where(hit, np.nan, value), G

        self.break_kinds(monkeypatch, [kind], nan)
        _, specs = fixture_specs("depol3")
        with pytest.raises(OptimizerDiverged, match=f"for kind {kind}$"):
            ct.estimate_constants(depol3, specs, FAST)

    def test_task_makes_one_minimize_call(self, monkeypatch):
        # depol3's eleven estimates of 32 starts each descend in one call of
        # 34 batched evaluations (the calls of the slowest estimate)
        runs = []
        minimize = ct.minimize

        def counted(fun, x0, **kwargs):
            runs.append(minimize(fun, x0, **kwargs))
            return runs[-1]

        monkeypatch.setattr(ct, "minimize", counted)
        cfg = cf.fixtures("depol3")
        cfg.tasks = ["constants"]
        assert cli.run(cfg)["summary"]["passed"]
        assert len(runs) == 1 and len(runs[0].fun) == 11 * cfg.num_starts
        assert runs[0].nfev <= 40

    def test_no_specs_need_no_primitivity(self):
        assert ct.estimate_constants(sg.random_dbc(SIGMA_STAR, 0, 0, seed=1), []) == []


class TestSeedStarts:
    def test_other_errors_propagate(self, monkeypatch):
        def gap_eigenvector(self):
            raise RuntimeError("no gap eigenvector")

        monkeypatch.setattr(sg.DbcLindbladian, "gap_eigenvector",
                            property(gap_eigenvector))
        L = sg.depolarizing(SIGMA_STAR, 1.0)
        with pytest.raises(RuntimeError):
            ct._seed_starts(L, 4, seed=0)


class TestDepolClassical:
    def test_p2_is_one_exactly(self):
        for d in (2, 3, 5):
            assert ct.depol_classical(2.0, d) == 1.0

    def test_flat_qubit_value_is_half_p(self):
        # the theta = 1/2 two-point ratio has its infimum p/2 on the x -> 1
        # ridge, which the zoomed grid approaches to rounding
        for p in (1.1, 1.5, 1.75):
            assert ct.depol_classical(p, 2) == pytest.approx(p / 2.0, rel=1e-12)

    def test_two_point_ratio_matches_mpmath(self):
        # the evaluator is accurate at every scale of h, including the
        # near-1 ridge and p close to 1, where the naive moments cancel
        import mpmath as mp

        for theta in (1 / 3, 1 / 2, 3 / 4):
            edge = (1 - theta) / theta
            hs = np.array([-1.0, -0.5, -1e-3, -1e-8, 1e-12, 1e-6, 0.1, 0.124, 0.126,
                           0.5 * edge, 0.999 * edge])
            for p in (1.01, 1.5, 1.99):
                vals = ct._two_point_ratio(hs, theta, p)
                for h, val in zip(hs, vals):
                    with mp.workdps(60):
                        t, q, h = mp.mpf(theta), mp.mpf(p), mp.mpf(h)
                        x, y = 1 + h, 1 - t * h / (1 - t)
                        m_p = t * x**q + (1 - t) * y**q
                        m_q = t * x**(q - 1) + (1 - t) * y**(q - 1)
                        ref = q * q / 4 * (m_p - m_q) / (m_p - 1)
                        assert abs(val - ref) <= 1e-14 * abs(ref), (theta, p, float(h))

    def test_frozen_fixture_values(self):
        # grid + golden-section oracle values, cross-checked against the
        # quantum optimizer at build time
        assert ct.depol_classical(1.25, 3) == pytest.approx(0.614725199164, abs=1e-9)
        assert ct.depol_classical(1.5, 3) == pytest.approx(0.740417001738, abs=1e-9)

    def test_min_over_theta_superset(self):
        # d = 4 includes theta = 1/2, so its minimum cannot exceed the d = 2 value
        for p in (1.25, 1.6):
            assert ct.depol_classical(p, 4) <= ct.depol_classical(p, 2) + 1e-12


class TestTwoPointReference:
    def test_reference_anchors(self):
        # alpha_2 is the gap, and the flat chain has its infimum p/2 at x -> 1
        assert oracles.two_point_beckner(0.75, 2.0) == 1.0
        assert oracles.two_point_beckner(0.5, 1.5) == pytest.approx(0.75, rel=1e-15)

    def test_depol2_beckner_estimates_at_most_two_point_value(self):
        # diagonal states are witnesses of depol2's Beckner ratio (lambda = 1),
        # so its two-point constant at pi = 0.75 bounds every estimate above
        cfg = cf.fixtures("depol2")
        cfg.tasks = ["constants"]
        estimates = cli.run(cfg)["results"]["constants"]["estimates"]
        for p in cfg.p_grid:
            bound = oracles.two_point_beckner(0.75, p)
            assert estimates[f"beckner[{p}]"] <= bound * (1.0 + 1e-12), (p, bound)

    def test_product_beckner_estimates_just_above_binding_factor(self, depol_product):
        # A⊗B's Beckner constant is its factors' least, here A's two-point
        # value (B's gap is 1.3); the estimate is a minimum over witnesses, so
        # it lies above that, and close: 2.4e-10 (p = 1.05) and 2.2e-10 (1.5)
        _, _, AB = depol_product
        for p in (1.05, 1.5):
            value = ct.estimate_constant(AB, "beckner", p=p).value
            bound = oracles.two_point_beckner(0.75, p)
            assert 0.0 <= value / bound - 1.0 <= 1e-8, (p, value, bound)


@pytest.fixture(scope="module")
def estimates(depol2):
    opts = ct.EstimateOpts(num_starts=8, seed=3)
    est = {("poincare", None): ct.estimate_constant(depol2, "poincare")}
    for p in (1.25, 1.5, 2.0):
        est[("beckner", p)] = ct.estimate_constant(depol2, "beckner", p=p, opts=opts)
    est[("mlsi", None)] = ct.estimate_constant(depol2, "mlsi", opts=opts)
    est[("lsi", None)] = ct.estimate_constant(depol2, "lsi", opts=opts)
    est[("dual_beckner", 1.5)] = ct.estimate_constant(depol2, "dual_beckner",
                                                      q=1.5, opts=opts)
    return est


class TestBoundLedger:

    def test_hard_entries_pass(self, estimates):
        ledger = ct.bound_ledger(estimates, 0.25, [1.25, 1.5, 2.0])
        assert ledger.hard_pass, [e for e in ledger.entries if e.hard and not e.passed]

    def test_soft_entries_logged(self, estimates):
        ledger = ct.bound_ledger(estimates, 0.25, [1.25, 1.5, 2.0])
        assert any(not e.hard for e in ledger.entries)

    def test_every_entry_holds_at_p_near_2(self, depol2):
        # alpha_p p/(p-1) is not nonincreasing in p: on depol2 (lambda = 1) the
        # witness X = diag(f0, (1 - 0.75 f0) / 0.25) has Beckner ratio
        # 0.94231825484 at p = 1.9, below the (0.9/1.9) 2 lambda = 0.947368
        # that the statement needs on [1.9, 2], and a witness ratio bounds
        # alpha_1.9 from above. Every entry the ledger makes there holds.
        f0 = 0.388287853157
        X = np.diag([f0, (1.0 - 0.75 * f0) / 0.25]).astype(complex)
        value, _ = ct._ratio_and_grad(depol2, [("beckner", 1.9)])(X)
        assert value == pytest.approx(0.9423182548383, rel=1e-12)
        lam = depol2.require_primitive().spectral_gap
        assert value < 0.9 / 1.9 * 2.0 * lam
        est = {("poincare", None): ct.estimate_constant(depol2, "poincare")}
        for kind, p, q in [("beckner", 1.9, None), ("beckner", 2.0, None), ("mlsi", None, None),
                           ("lsi", None, None), ("dual_beckner", None, 2.0 / 1.9),
                           ("dual_beckner", None, 1.5)]:
            spec = (kind, q if p is None else p)
            est[spec] = ct.estimate_constant(depol2, kind, p=p, q=q, opts=FAST)
        assert est[("beckner", 1.9)].value == pytest.approx(value, rel=1e-12)
        ledger = ct.bound_ledger(est, 0.25, [1.9, 2.0])
        assert all(e.passed for e in ledger.entries), [e for e in ledger.entries if not e.passed]

    def test_missing_estimate(self):
        with pytest.raises(MissingEstimate):
            ct.bound_ledger({}, 0.25, [1.5])


class TestStability:
    def _matrix_unit_pair(self, sigma):
        E01 = np.zeros((2, 2), dtype=complex)
        E01[0, 1] = 1.0
        s = np.real(np.diag(sigma))
        return sg.build_from_jumps(sigma, [sg.JumpTerm(E01, float(np.log(s[1] / s[0])))])

    def test_identical_states_give_one(self):
        L = self._matrix_unit_pair(SIGMA_STAR)
        assert ct.stability_factor(L, L, 1.5) == pytest.approx(1.0)

    def test_p2_drops_frequency_term(self):
        La = self._matrix_unit_pair(SIGMA_STAR)
        Lb = self._matrix_unit_pair(np.eye(2) / 2)
        assert ct.stability_factor(La, Lb, 2.0) == pytest.approx((1 / 2) / (3 / 2))

    def test_hand_value(self):
        La = self._matrix_unit_pair(SIGMA_STAR)
        Lb = self._matrix_unit_pair(np.eye(2) / 2)
        expected = (0.5 / 1.5) * np.exp(-abs(np.log(3.0)) * (2 - 1.5) / (2 * 1.5))
        assert ct.stability_factor(La, Lb, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_incompatible_jumps(self):
        La = self._matrix_unit_pair(SIGMA_STAR)
        # a diagonal-only partner has no jump supported on the off-diagonal unit
        D = np.diag([1.0, -1.0]).astype(complex)
        Lb = sg.build_from_jumps(np.eye(2) / 2, [sg.JumpTerm(D, 0.0)])
        with pytest.raises(IncompatibleJumps):
            ct.stability_factor(La, Lb, 1.5)


class TestMixing:
    def test_formula_anchor(self):
        assert ct.mixing_bound(2.0, 0.25, 0.01, 1.0) == pytest.approx(
            np.log(100.0 * np.sqrt(3.0)), abs=1e-10)

    def test_empirical_below_bound(self, depol2):
        for eps in (0.1, 0.01):
            emp = ct.mixing_time(depol2, eps, seed=2)
            bound = min(ct.mixing_bound(p, depol2.sigma_min, eps, ct.alpha_lower(depol2, p))
                        for p in (1.05, 1.1, 1.25, 1.5, 1.75, 2.0))
            assert emp <= bound

    def test_trivial_epsilon(self, depol2):
        # every witness starts within trace distance 2 of sigma
        assert ct.mixing_time(depol2, 1.9, seed=2) == 0.0

    def test_epsilon_range(self, depol2):
        with pytest.raises(ValueError):
            ct.mixing_time(depol2, 2.5)

    def test_one_eigvalsh_per_time(self, monkeypatch):
        # the mixing task on depol3 bisects at 112 times in all, each one
        # batched eigensolve of the 11 witnesses (3 eigenstates of sigma and
        # 8 random pure states), not one per witness (1,232 calls)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(A):
            calls.append(np.shape(A))
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cfg = cf.fixtures("depol3")
        cfg.tasks = ["mixing"]
        assert cli.run(cfg)["summary"]["passed"]
        assert len(calls) <= 112
        assert (11, 3, 3) in calls

    @pytest.mark.parametrize("fixture", ["depol2", "depol3", "random_dbc_seeded",
                                         "classical_embed"])
    def test_witness_stack_report_is_byte_identical(self, fixture, tmp_path, monkeypatch):
        # the stacked witnesses give the report of one witness at a time: the
        # propagator product and the trace norm taken matrix by matrix
        def by_matrix(f):
            def g(*args):
                *first, X = args
                X = np.asarray(X)
                return np.array([f(*first, x) for x in X]) if X.ndim == 3 else f(*first, X)
            return g

        def report(out):
            assert cli.main(["mixing", "--fixture", fixture, "--out", str(out)]) == 0
            return (out / "report.json").read_bytes()

        stacked = report(tmp_path / "stacked")
        monkeypatch.setattr(la, "apply_super", by_matrix(la.apply_super))
        monkeypatch.setattr(la, "trace_norm", by_matrix(la.trace_norm))
        assert report(tmp_path / "by_matrix") == stacked


class TestMoments:
    def test_centered_identity_vanishes(self, depol_flat):
        rep = ct.moment_concentration_check(depol_flat, 1.7 * np.eye(2), r=3.0,
                                            a=0.125, t=0.5)
        assert rep["moment"] >= -1e-12
        # a multiple of the identity has zero centered norm and zero gradient
        X = 1.7 * np.eye(2)
        m = ent.weighted_p_norm(X, np.eye(2) / 2, 1.0)
        assert la.frob(X - m * np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
    def test_random_slacks(self, rng, depol_flat, r):
        a = ct.certified_uniform_alpha(1.0, 0.5)
        for _ in range(5):
            X = la.random_hermitian(rng, 2)
            rep = ct.moment_concentration_check(depol_flat, X, r=r, a=a, t=1.0)
            assert rep["moment"] >= -1e-8
            assert rep["exp_int"] >= -1e-8
            assert rep["concentration"] >= -1e-8

    def test_r2_consistency_with_gap(self):
        # at r = 2, s = 0 the moment constant 2 kappa / a dominates 1/lambda
        kappa = 1.0 / (1.0 - np.exp(-0.5))
        a = ct.certified_uniform_alpha(1.0, 0.5)
        assert 2.0 * kappa / a >= 1.0  # 1/lambda with lambda = 1

    def test_not_symmetric(self, depol2):
        with pytest.raises(NotSymmetric):
            ct.moment_concentration_check(depol2, np.eye(2), r=2.0, a=0.1)


class TestDecayCertificates:
    def test_divergence_decay_with_classical_constant(self, rng, depol_flat):
        # F_p(rho_t) <= e^(-4 alpha_p t / p) F_p(rho_0) with the exact
        # two-point constant, sampled over t in [0, 5]
        rho0 = la.random_density(rng, 2, floor=0.02)
        for p in (1.25, 1.75):
            alpha = ct.depol_classical(p, 2)
            F0 = ent.p_divergence(rho0, depol_flat.sigma, p)
            for t in (0.5, 2.0, 5.0):
                rho_t = sg.evolve(depol_flat, t, "schrodinger", rho0)
                Ft = ent.p_divergence(rho_t, depol_flat.sigma, p)
                assert Ft <= np.exp(-4.0 * alpha * t / p) * F0 * (1.0 + 1e-6)

    def test_p_norm_decay_with_classical_constant(self, rng, depol_flat):
        rho0 = la.random_density(rng, 2, floor=0.02)
        X = ent.relative_density(rho0, depol_flat.sigma)
        sigma = depol_flat.sigma
        for p in (1.25, 1.75):
            alpha = ct.depol_classical(p, 2)
            np_ = ent.weighted_p_norm(X, sigma, p)
            n1 = ent.weighted_p_norm(X, sigma, 1.0)
            for t in (0.5, 2.0):
                Xt = sg.evolve(depol_flat, t, "heisenberg", X)
                lhs = ent.weighted_p_norm(Xt - np.eye(2), sigma, p)
                rhs = np.exp(-2.0 * alpha * t / p) * np_ ** (1.0 - p / 2.0) \
                    * np.sqrt(2.0 / (p * (p - 1.0)) * (np_**p - n1**p))
                assert lhs <= rhs * (1.0 + 1e-9)


class TestCertifiedBounds:
    def test_uniform_alpha_is_p_limit(self):
        lam, smin = 1.3, 0.2
        grid = np.linspace(1.0001, 2.0, 200)
        vals = [ct.certified_alpha_lower(lam, smin, p) for p in grid]
        assert min(vals) >= ct.certified_uniform_alpha(lam, smin) - 1e-12
        assert vals[0] == pytest.approx(ct.certified_uniform_alpha(lam, smin), rel=1e-3)


class TestAlphaLower:
    """The one lower-bound rule that decay, mixing and verify use."""

    GRID = (1.05, 1.25, 1.5, 2.0)

    def test_flat_depolarizing_two_point(self):
        L = sg.depolarizing(np.eye(3) / 3, 2.5)
        for p in self.GRID:
            assert ct.alpha_lower(L, p) == 2.5 * ct.depol_classical(p, 3)

    def test_flat_qubit_rate_is_exact(self, depol_flat):
        # the spectral gap of this model is 1 only to round-off; the rate is
        # read off the generator, so alpha is exactly the two-point value
        for p in self.GRID:
            assert ct.alpha_lower(depol_flat, p) == ct.depol_classical(p, 2)

    def test_pauli_jumps_are_recognized(self, depol_pauli):
        for p in self.GRID:
            assert ct.alpha_lower(depol_pauli, p) == pytest.approx(
                ct.depol_classical(p, 2), rel=1e-12)

    @pytest.mark.parametrize("model", ["depol2", "dbc3"])
    def test_certified_otherwise(self, request, model):
        L = request.getfixturevalue(model)
        lam = L.primitivity.spectral_gap
        for p in self.GRID:
            assert ct.alpha_lower(L, p) == ct.certified_alpha_lower(lam, L.sigma_min, p)

    def test_no_gap_raises(self):
        with pytest.raises(NotPrimitive):
            ct.alpha_lower(sg.depolarizing(np.eye(1), 1.0), 1.5)
        with pytest.raises(NotPrimitive):  # the kernel is the diagonal algebra
            ct.alpha_lower(sg.random_dbc(SIGMA_STAR, 0, 1, seed=1), 1.5)
