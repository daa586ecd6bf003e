import numpy as np
import pytest
import scipy.linalg

from qbeckner import config as cf
from qbeckner import constants as ct
from qbeckner import linalg as la
from qbeckner import ricci as rc
from qbeckner import semigroup as sg
from qbeckner import transport as tp
from qbeckner.entropy import p_divergence
from qbeckner.errors import NonPositiveCurvature, SingularMetric

import oracles
from conftest import largest_allocation_at_grams


def _force_block(monkeypatch, L, samples):
    """Set transport.BLOCK_BYTES so that ricci_estimate evaluates at most the
    given number of samples per hessian_matrix call: that many rows arrays of
    transport._basis_rows, one sample's measured off a one-state stack."""
    per_sample = tp._basis_rows(L, L.sigma[None], 2.0)[1].nbytes
    monkeypatch.setattr(tp, "BLOCK_BYTES", samples * per_sample)


def _block_sizes(monkeypatch):
    """A list that records the number of samples of each hessian_matrix call
    that ricci_estimate makes from here on."""
    hessian_matrix, calls = rc.hessian_matrix, []

    def counted(L, rho, p):
        calls.append(len(rho))
        return hessian_matrix(L, rho, p)

    monkeypatch.setattr(rc, "hessian_matrix", counted)
    return calls


class TestHessianForm:
    def test_at_invariant_state(self, rng, depol_flat):
        # K kernel is linear in L† rho, which vanishes at sigma
        U = la.traceless_part(la.random_hermitian(rng, 2))
        hess = rc.hessian_form(depol_flat, depol_flat.sigma, 1.5, U)
        DU = oracles.onsager_apply(depol_flat, depol_flat.sigma, 1.5, U)
        direct = -np.real(la.hs_inner(U, la.apply_super(depol_flat.dual_generator, DU)))
        assert hess == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_second_finite_difference(self, rng, depol_flat, p):
        rho = la.random_density(rng, 2, floor=0.2)
        U = 0.3 * la.traceless_part(la.random_hermitian(rng, 2))
        hess = rc.hessian_form(depol_flat, rho, p, U)
        h, steps = 1e-3, 8
        up = tp.geodesic_shoot(depol_flat, rho, U, p, T=h, steps=steps)[-1].rho
        dn = tp.geodesic_shoot(depol_flat, rho, -U, p, T=h, steps=steps)[-1].rho
        F = lambda r: p_divergence(la.herm(r) / np.trace(r).real,
                                   depol_flat.sigma, p)
        fd = (F(up) - 2 * F(rho) + F(dn)) / h**2
        assert hess == pytest.approx(fd, rel=1e-3)

    def test_depolarizing_curvature_inequality(self, rng, depol_flat):
        # Hess[U,U] >= (gamma p / 2) <U, D U> pointwise for the flat model
        p = 1.5
        for _ in range(6):
            rho = la.random_density(rng, 2, floor=0.1)
            U = la.traceless_part(la.random_hermitian(rng, 2))
            hess = rc.hessian_form(depol_flat, rho, p, U)
            gU = np.real(la.hs_inner(U, oracles.onsager_apply(depol_flat, rho, p, U)))
            assert hess >= (p / 2.0) * gU - 1e-8 * max(gU, 1.0)

    def test_matrix_consistent_with_form(self, rng, dbc2):
        rho = la.random_density(rng, 2, floor=0.1)
        H, G = rc.hessian_matrix(dbc2, rho, 1.5)
        basis = tp._traceless_hermitian_basis(2)
        c = rng.standard_normal(len(basis))
        U = sum(ci * T for ci, T in zip(c, basis))
        assert c @ H @ c == pytest.approx(rc.hessian_form(dbc2, rho, 1.5, U), rel=1e-10)
        assert c @ G @ c == pytest.approx(
            np.real(la.hs_inner(U, oracles.onsager_apply(dbc2, rho, 1.5, U))), rel=1e-10)

    def test_symmetry(self, rng, dbc2):
        rho = la.random_density(rng, 2, floor=0.1)
        H, G = rc.hessian_matrix(dbc2, rho, 1.5)
        assert np.max(np.abs(H - H.T)) <= 1e-9 * max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(G - G.T)) <= 1e-9 * max(1.0, np.max(np.abs(G)))


class TestProductModel:
    """On A⊗B (conftest.depol_product) at the product state rho_A ⊗ sigma_B,
    the direction U ⊗ I moves only the first factor: its Hessian and its
    metric form are factor A's."""

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_forms_factor(self, rng, depol_product, p):
        A, B, AB = depol_product
        rho = la.random_density(rng, 2, floor=0.1)
        U = la.traceless_part(la.random_hermitian(rng, 2))
        lifted = np.kron(rho, B.sigma), np.kron(U, np.eye(2))
        for form in (rc.hessian_form, tp.gradient_norm_sq):
            ref = form(A, rho, p, U)
            assert abs(form(AB, lifted[0], p, lifted[1]) - ref) <= 1e-12 * abs(ref)


class TestHessianStack:
    """hessian_matrix on a stack of states against one state at a time, and
    its quadratic forms against hessian_form and gradient_norm_sq, which go
    through _Frame.state_derivative and the frame's theta grid instead of the
    stacked contraction."""

    @pytest.fixture(params=["dbc3", "dbc4"])
    def model(self, request):
        return request.getfixturevalue(request.param)

    @pytest.fixture
    def states(self, rng, model):
        return np.array([la.random_density(rng, model.d, floor=0.05) for _ in range(3)])

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_stack_matches_single(self, model, states, p):
        H, G = rc.hessian_matrix(model, states, p)
        n = model.d ** 2 - 1
        assert H.shape == G.shape == (len(states), n, n)
        for rho, Hs, Gs in zip(states, H, G):
            H1, G1 = rc.hessian_matrix(model, rho, p)
            assert np.max(np.abs(Hs - H1)) <= 1e-12 * np.max(np.abs(H1))
            assert np.max(np.abs(Gs - G1)) <= 1e-12 * np.max(np.abs(G1))

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_forms_match_oracles(self, rng, model, states, p):
        H, G = rc.hessian_matrix(model, states, p)
        basis = tp._traceless_hermitian_basis(model.d)
        for rho, Hs, Gs in zip(states, H, G):
            c = rng.standard_normal(len(basis))
            U = sum(ci * T for ci, T in zip(c, basis))
            assert c @ Hs @ c == pytest.approx(rc.hessian_form(model, rho, p, U), rel=1e-10)
            assert c @ Gs @ c == pytest.approx(tp.gradient_norm_sq(model, rho, p, U),
                                               rel=1e-10)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    @pytest.mark.parametrize("num_states", [1, 17, 33])
    def test_estimate_matches_per_sample_eigh(self, model, p, num_states, monkeypatch):
        # in one block, and in forced blocks of at most 1, 7 and 16 samples:
        # 17 samples split as 6 + 6 + 5 and 9 + 8, 33 as 4 x 7 + 5 and 3 x 11
        H, G = rc.hessian_matrix(model, rc._samples(model, num_states, 2), p)
        kappa = min(scipy.linalg.eigh(Hs, Gs, eigvals_only=True)[0]
                    for Hs, Gs in zip(H, G))
        for block in (None, 1, 7, 16):
            if block is not None:
                _force_block(monkeypatch, model, block)
            est = rc.ricci_estimate(model, p, num_states=num_states, seed=2)
            assert est.kappa == pytest.approx(kappa, rel=1e-12)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_forced_split_matches_one_block(self, model, p, monkeypatch):
        # 33 samples in one block, and in blocks of 7: the same kappa, worst
        # state and multiplicity, and the same direction up to sign where
        # kappa is a simple eigenvalue
        one = rc.ricci_estimate(model, p, num_states=33, seed=2)
        _force_block(monkeypatch, model, 7)
        split = rc.ricci_estimate(model, p, num_states=33, seed=2)
        assert split.kappa == pytest.approx(one.kappa, rel=1e-12)
        assert np.array_equal(split.worst_state, one.worst_state)
        assert split.multiplicity == one.multiplicity
        if one.multiplicity == 1:
            a, b = one.worst_direction, split.worst_direction
            b = b if np.vdot(a, b).real >= 0 else -b
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_worst_eigenpair_matches_scipy(self, model, p):
        # the Cholesky-reduced eigensolve of the worst sample against
        # scipy's generalized one, in kappa and in the Rayleigh quotient of
        # the reported direction (on the orthonormal trace-free basis)
        est = rc.ricci_estimate(model, p, num_states=17, seed=2)
        samples = rc._samples(model, 17, 2)
        i = next(k for k, rho in enumerate(samples)
                 if np.array_equal(rho, est.worst_state))
        H, G = rc.hessian_matrix(model, samples[i], p)
        vals = scipy.linalg.eigh(H, G, eigvals_only=True)
        assert est.kappa == pytest.approx(vals[0], rel=1e-12)
        c = np.real(np.array([np.trace(U @ est.worst_direction)
                              for U in tp._basis_frame(model.d)[0]]))
        assert (c @ H @ c) / (c @ G @ c) == pytest.approx(vals[0], rel=1e-12)
        assert c @ G @ c == pytest.approx(1.0, rel=1e-10)


class TestRicciEstimate:
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
    def test_depolarizing_anchor(self, depol_flat, p):
        est = rc.ricci_estimate(depol_flat, p, num_states=16, seed=5)
        assert est.kappa >= p / 2.0 - 1e-6

    def test_rate_scaling(self, depol_flat):
        L2 = sg.depolarizing(np.eye(2) / 2, 2.5)
        a = rc.ricci_estimate(depol_flat, 1.5, num_states=8, seed=5).kappa
        b = rc.ricci_estimate(L2, 1.5, num_states=8, seed=5).kappa
        assert b == pytest.approx(2.5 * a, rel=1e-6)

    def test_witness_reproduces_kappa(self, dbc2):
        est = rc.ricci_estimate(dbc2, 1.5, num_states=8, seed=7)
        assert oracles.ricci_rayleigh(dbc2, est, 1.5) == pytest.approx(est.kappa, rel=1e-8)

    @pytest.mark.parametrize("model, p", [("depol3", 1.05), ("depol3", 2.0),
                                          ("classical_embed", 1.5)])
    def test_multiplicity_counts_the_eigenvalues_at_kappa(self, model, p):
        # against scipy's generalized eigensolver at the worst state; the
        # eigenvalues above the ties lie far outside either band
        L = cf.build_generator(cf.fixtures(model))
        est = rc.ricci_estimate(L, p, num_states=8, seed=7)
        lam = scipy.linalg.eigh(*rc.hessian_matrix(L, est.worst_state, p), eigvals_only=True)
        assert est.multiplicity == np.sum(lam <= est.kappa + 1e-9)

    def test_ties_pick_first_sample(self):
        # at p = 2 every sample of a depolarizing model has kappa_2 = 1 up to
        # round-off, so the first sample, sigma, is the worst
        L = cf.build_generator(cf.fixtures("depol3"))
        est = rc.ricci_estimate(L, 2.0, num_states=16, seed=7)
        assert est.kappa == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(est.worst_state, L.sigma)

    def test_singular_metric_names_sample(self, dbc2, monkeypatch):
        # the second block's second sample is the global sample 17
        _force_block(monkeypatch, dbc2, 16)
        hessian_matrix = rc.hessian_matrix
        calls = []

        def second_block_breaks(L, rho, p):
            H, G = hessian_matrix(L, rho, p)
            calls.append(len(rho))
            if len(calls) == 2:
                G[1] -= (np.linalg.eigvalsh(G[1])[0] + 1.0) * np.eye(len(G[1]))
            return H, G

        monkeypatch.setattr(rc, "hessian_matrix", second_block_breaks)
        with pytest.raises(SingularMetric, match="sample 17 "):
            rc.ricci_estimate(dbc2, 1.5, num_states=32, seed=7)
        assert calls == [16, 16]

    @pytest.mark.parametrize("num_states, budget, sizes", [
        (48, None, [48]), (33, 7, [7, 7, 7, 7, 5]), (17, 16, [9, 8]), (3, 1, [1, 1, 1])])
    def test_blocks_split_by_bytes(self, dbc4, monkeypatch, num_states, budget, sizes):
        # the fewest blocks within the budget, of equal size but the last: 48
        # samples at d = 4 make one hessian_matrix call at the default budget
        if budget is not None:
            _force_block(monkeypatch, dbc4, budget)
        calls = _block_sizes(monkeypatch)
        rc.ricci_estimate(dbc4, 1.5, num_states=num_states, seed=7)
        assert calls == sizes

    @pytest.mark.parametrize("num_states, sizes", [(16, [16]), (48, [16, 16, 16])])
    def test_d6_blocks(self, monkeypatch, num_states, sizes):
        # a d = 6 model with 7 folded jumps: its default 16 samples (2.3 MB of
        # gradients) are one block, and 48 samples three
        s = np.array([2.0 ** -k for k in range(6)])
        L = sg.random_dbc(np.diag(s / s.sum()).astype(complex), 6, 1, seed=42)
        assert len(L.jump_pairs) == 7
        calls = _block_sizes(monkeypatch)
        rc.ricci_estimate(L, 1.5, num_states=num_states, seed=7)
        assert calls == sizes


    @pytest.mark.parametrize("num_states", [0, -1])
    def test_no_samples_rejected(self, dbc2, num_states):
        with pytest.raises(ValueError, match="num_states"):
            rc.ricci_estimate(dbc2, 1.5, num_states=num_states, seed=7)


class TestWorkspace:
    """hessian_matrix takes its block arrays from the kept workspace of the
    metric layer (transport._slots)."""

    def test_repeat_estimate_allocates_no_block(self, dbc4, monkeypatch):
        # the benchmark's d = 4 shape, 48 samples in one block: once the
        # workspace has grown, a second estimate allocates no array as large
        # as the block's rows (0.92 MB); the largest live at a Gram product
        # is the (S d, n, n) stack of per-row products, 0.35 MB
        first = rc.ricci_estimate(dbc4, 1.5, num_states=48, seed=7)
        again = []
        largest = largest_allocation_at_grams(
            monkeypatch, lambda: again.append(rc.ricci_estimate(dbc4, 1.5, num_states=48, seed=7)))
        block = tp._basis_rows(dbc4, dbc4.sigma[None], 2.0)[1].nbytes * 48
        assert len(tp._blocks(dbc4, 48)) == 1
        assert 0 < largest < block
        assert again[0].kappa == first.kappa

    @pytest.mark.parametrize("name", ["classical", "dbc4"])
    def test_results_do_not_alias_the_workspace(self, rng, dbc4, name):
        # H and G stay as they were through further calls of the layer, with
        # the tie branch's fourth slot (sigma = I/2) and without it
        L = dbc4 if name == "dbc4" else cf.build_generator(cf.fixtures("classical_embed"))
        states = np.array([L.sigma] + [la.random_density(rng, L.d, floor=0.05) for _ in range(2)])
        H, G = rc.hessian_matrix(L, states, 1.5)
        kept = H.copy(), G.copy()
        rc.hessian_matrix(L, states[::-1], 1.05)
        rc.ricci_estimate(L, 1.5, num_states=8, seed=3)
        tp.w2p_solve(L, states[1], states[2], 1.5, tp.W2Opts(N=6))
        for now, then in zip((H, G), kept):
            assert np.array_equal(now, then) and not np.shares_memory(now, tp._workspace)


class TestPRange:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5])
    def test_p_outside_range_rejected(self, dbc3, p):
        # outside (1, 2] the metric kernel is not the paper's: p = 2.5 used to
        # give a negative kappa, and p = 1 a ZeroDivisionError
        U = la.traceless_part(la.random_hermitian(np.random.default_rng(0), 3))
        for call in (lambda: rc.ricci_estimate(dbc3, p, num_states=4, seed=0),
                     lambda: rc.hessian_matrix(dbc3, dbc3.sigma, p),
                     lambda: rc.hessian_form(dbc3, dbc3.sigma, p, U)):
            with pytest.raises(ValueError, match=r"p in \(1, 2\]"):
                call()


class TestInequalityChecks:
    def test_invariant_state_all_zero(self, depol_flat):
        rep = rc.inequality_checks(depol_flat, 2.0, 1.0, [depol_flat.sigma],
                                   w_opts=tp.W2Opts(N=6))
        for entry in rep["hwi"] + rep["tcp"]:
            assert abs(entry["lhs"]) <= 1e-6
            assert abs(entry["rhs"]) <= 1e-6

    def test_flat_p2_chain(self, rng, depol_flat):
        states = [la.random_density(rng, 2, floor=0.05) for _ in range(2)]
        rep = rc.inequality_checks(depol_flat, 2.0, 1.0, states,
                                   w_opts=tp.W2Opts(N=10))
        for entry in rep["hwi"]:
            assert entry["slack"] >= -0.02 * max(abs(entry["rhs"]), 1.0)
        for entry in rep["tcp"]:
            assert entry["slack"] >= -0.02 * max(abs(entry["rhs"]), 1.0)
        for entry in rep["diameter"]:
            assert np.isfinite(entry["rhs"])
            assert entry["slack"] >= 0.0

    def test_nonpositive_curvature_rejected(self, depol_flat):
        with pytest.raises(NonPositiveCurvature):
            rc.inequality_checks(depol_flat, 1.5, 0.0, [])

    def test_curvature_implies_beckner_direction(self, depol_flat):
        for p in (1.25, 1.75):
            kappa = rc.ricci_estimate(depol_flat, p, num_states=8, seed=5).kappa
            alpha = ct.depol_classical(p, 2)
            assert alpha >= kappa * p / 2.0 - 1e-4


class TestDynamicChecks:
    def test_contraction_equality_flat_p2(self, rng, depol_flat):
        states = [la.random_density(rng, 2, floor=0.05) for _ in range(2)]
        out = rc.dynamic_checks(depol_flat, 2.0, 1.0, "contraction",
                                states=states, times=(0.3,), w_opts=tp.W2Opts(N=10))
        for entry in out:
            assert entry["lhs"] == pytest.approx(entry["rhs"], rel=0.01)

    def test_time_zero_equalities(self, rng, depol_flat):
        states = [la.random_density(rng, 2, floor=0.05) for _ in range(2)]
        out = rc.dynamic_checks(depol_flat, 2.0, 1.0, "contraction",
                                states=states, times=(0.0,), w_opts=tp.W2Opts(N=8))
        for entry in out:
            assert entry["lhs"] == pytest.approx(entry["rhs"], rel=1e-6)

    def test_gradient_estimate(self, rng, depol_flat):
        states = [la.random_density(rng, 2, floor=0.1)]
        dirs = [0.4 * la.traceless_part(la.random_hermitian(rng, 2))]
        out = rc.dynamic_checks(depol_flat, 1.5, 0.75, "gradient_estimate",
                                states=states, directions=dirs, times=(0.2, 0.6))
        for entry in out:
            assert entry["slack"] >= -1e-8

    def test_depolarizing_intertwining_identities(self, depol_flat):
        # for the flat depolarizing model the derivations commute with the
        # semigroup and carry the exact scalar factor e^(-gamma t)
        t = 0.4
        Pt = depol_flat.heisenberg_propagator(t)
        for (V, _) in depol_flat.jumps:
            Dj = la.left_super(V) - la.right_super(V)
            assert la.frob(Dj @ Pt - Pt @ Dj) <= 1e-10
            assert la.frob(Dj @ Pt - np.exp(-t) * Dj) <= 1e-10

    def test_intertwining_residual_reported(self, depol_flat):
        out = rc.dynamic_checks(depol_flat, 2.0, 1.0, "intertwining", times=(0.4,))
        assert len(out) == len(depol_flat.jumps)
        for entry in out:
            assert np.isfinite(entry["residual"])
