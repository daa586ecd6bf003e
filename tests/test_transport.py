import dataclasses
import functools

import numpy as np
import pytest

from qbeckner import cli
from qbeckner import config as cf
from qbeckner import linalg as la
from qbeckner import ricci as rc
from qbeckner import semigroup as sg
from qbeckner import transport as tp
from qbeckner.errors import (GradientCheckFailed, KernelComponent, LeftPositiveCone, NoJumps,
                             SingularMetric, SingularState)
from qbeckner.kernels import kappa_alpha

import oracles
from conftest import SIGMA_STAR, largest_allocation_at_grams


class TestMetricKernel:
    """Properties of the library's kernels [rho]_{p,w_j}, the spectral frame."""

    def test_p2_is_state_weighting(self, rng, dbc2):
        rho = la.random_density(rng, 2, floor=0.05)
        fr = tp._Frame(dbc2, rho, 2.0)
        X = fr.grad(la.random_hermitian(rng, 2))
        half = la.matrix_power_hermitian(SIGMA_STAR, 0.5)
        assert la.frob(fr.apply(X) - half @ X @ half) <= 1e-12

    def test_solve_inverts_apply(self, rng):
        # the single-jump reference inverts its kernel exactly
        rho = la.random_density(rng, 3, floor=0.05)
        sigma = la.random_density(rng, 3, floor=0.05)
        K = oracles.MetricKernel(rho, sigma, 1.4, omega=-0.7)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert la.frob(K.solve(K.apply(A)) - A) <= 1e-10 * la.frob(A)

    def test_matrix_is_positive_definite(self, rng, dbc2):
        rho = la.random_density(rng, 2, floor=0.05)
        for M in oracles.kernel_matrices(dbc2, rho, 1.5):
            assert la.frob(M - M.conj().T) <= 1e-10 * la.frob(M)
            assert np.min(np.linalg.eigvalsh(la.herm(M))) > 0

    def test_invariant_state_kernel_identity(self, rng):
        # [sigma]_{p,0} equals the inverse power-difference weighting
        sigma = la.random_density(rng, 3, floor=0.05)
        L = sg.random_dbc(sigma, 3, 1, seed=23)
        p = 1.6
        ref = oracles.j_kernel_super(L.sigma, lambda x: 1.0 / kappa_alpha(1.0 / p, x))
        flat = [j for j, omega in enumerate(L.jump_stack[1]) if omega == 0.0]
        assert flat
        M = oracles.kernel_matrices(L, L.sigma, p)
        for j in flat:
            assert la.frob(M[j] - ref) <= 1e-10 * la.frob(ref)

    def test_near_one_matches_logarithmic_mean(self, rng, dbc3):
        rho = la.random_density(rng, 3, floor=0.05)
        A = la.random_hermitian(rng, 3)
        fr = tp._Frame(dbc3, rho, 1.001)
        X = fr.grad(A)
        ref = np.array([oracles.carlen_maas_apply(rho, omega, Xj)
                        for Xj, omega in zip(X, dbc3.jump_stack[1])])
        assert la.frob(fr.apply(X) - ref) <= 1e-2 * la.frob(ref)

    def test_continuity_in_p(self, rng, dbc3):
        rho = la.random_density(rng, 3, floor=0.05)
        A = la.random_hermitian(rng, 3)
        base, moved = (fr.apply(fr.grad(A)) for fr in
                       (tp._Frame(dbc3, rho, 1.5), tp._Frame(dbc3, rho, 1.5 + 1e-4)))
        assert la.frob(base - moved) <= 1e-3 * la.frob(base)

    def test_singular_state_rejected(self, dbc2):
        with pytest.raises(SingularState):
            tp._Frame(dbc2, np.diag([1.0, 0.0]).astype(complex), 1.5)


class TestOnsager:
    def test_identity_in_kernel(self, dbc3, rng):
        assert la.frob(oracles.onsager_apply(dbc3, la.random_density(rng, 3, floor=0.05),
                                             1.5, np.eye(3))) <= 1e-12

    def test_metric_tensor_positive(self, rng, dbc3):
        rho = la.random_density(rng, 3, floor=0.05)
        nu = la.traceless_part(la.random_hermitian(rng, 3))
        assert oracles.onsager_tensor(dbc3, rho, 1.5, nu, nu) > 0

    def test_flat_pauli_half(self, rng, depol_pauli):
        # D_2 acts as division by 2 on traceless directions
        nu = la.traceless_part(la.random_hermitian(rng, 2))
        out = oracles.onsager_apply(depol_pauli, np.eye(2) / 2, 2.0, nu)
        assert la.frob(out - nu / 2.0) <= 1e-12

    def test_trace_component_rejected(self, rng, dbc3):
        with pytest.raises(KernelComponent):
            tp.onsager_pinv_apply(dbc3, la.random_density(rng, 3, floor=0.05),
                                  1.5, np.eye(3))


class TestFrame:
    """The spectral frame against the single-jump oracles.MetricKernel and
    against central differences of its own kinetic form."""

    @pytest.fixture(params=["dbc3", "dbc4"])
    def model(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_apply_matches_metric_kernel(self, rng, model, p):
        rho = la.random_density(rng, model.d, floor=0.05)
        U = la.random_hermitian(rng, model.d)
        fr = tp._Frame(model, rho, p)
        out = fr.apply(fr.grad(U))
        for j, (V, omega) in enumerate(zip(*model.jump_stack)):
            ref = oracles.MetricKernel(rho, model.sigma, p, omega).apply(V @ U - U @ V)
            assert la.frob(out[j] - ref) <= 1e-12 * max(la.frob(ref), 1.0)

    # the ids name the kernel whose state derivative is checked
    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0], ids=lambda p: f"theta-{p}")
    def test_state_derivative_central_difference(self, rng, model, p):
        d = model.d
        rho = la.random_density(rng, d, floor=0.05)
        H = la.traceless_part(la.random_hermitian(rng, d))
        X = tp._Frame(model, rho, p).grad(la.random_hermitian(rng, d))

        def form(r):
            fr = tp._Frame(model, r, p)
            return float(np.sum(fr.theta * np.abs(fr.eig(X, fr.P)) ** 2)), fr

        f0, fr = form(rho)
        an = float(np.real(la.hs_inner(fr.state_derivative(fr.eig(X, fr.P)), H)))
        eps = 1e-5
        fd = (form(rho + eps * H)[0] - form(rho - eps * H)[0]) / (2.0 * eps)
        # at p = 2 theta_p is constant and the derivative vanishes, so the gap
        # is scaled by the form's value as well (largest gap seen on dbc3:
        # 5e-8 of max(|an|, f0))
        assert abs(an - fd) <= 1e-6 * max(abs(an), f0)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_stack_matches_single_states(self, rng, model, p):
        d = model.d
        rhos = np.array([la.random_density(rng, d, floor=0.05) for _ in range(3)])
        Us = np.array([la.random_hermitian(rng, d) for _ in range(3)])
        stack = tp._Frame(model, rhos, p)
        C = stack.eig(stack.grad(Us), stack.P)
        D = stack.onsager(Us)
        M = stack.state_derivative(C)
        for i in range(3):
            one = tp._Frame(model, rhos[i], p)
            Ci = one.eig(one.grad(Us[i]), one.P)
            assert la.frob(D[i] - one.onsager(Us[i])) <= 1e-12 * la.frob(D[i])
            assert la.frob(M[i] - one.state_derivative(Ci)) <= 1e-12 * la.frob(M[i])

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5, 3.0, float("nan")])
    def test_p_outside_range_rejected(self, dbc3, p):
        # every entry point of the metric builds its kernels in _Frame, which
        # takes p in (1, 2] only, as estimate_constant does
        rng = np.random.default_rng(0)
        rho, U = la.random_density(rng, 3, floor=0.05), la.traceless_part(
            la.random_hermitian(rng, 3))
        calls = [
            lambda: tp._Frame(dbc3, rho, p),
            lambda: tp.w2p_solve(dbc3, rho, dbc3.sigma, p, tp.W2Opts(N=4)),
            lambda: tp.gradient_norm_sq(dbc3, rho, p, U),
            lambda: tp.onsager_matrix(dbc3, rho, p),
            lambda: tp.onsager_pinv_apply(dbc3, rho, p, U),
            lambda: tp.grad_flow_residual(dbc3, rho, p),
            lambda: tp.geodesic_shoot(dbc3, rho, U, p, T=0.1, steps=2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"p in \(1, 2\]"):
                call()


class TestFlatFrame:
    """At p = 2 theta_2 = 1, so [rho]_2 X = P X P with P = sigma^(1/4) at
    every state: the frame is the identity frame (lam = 1, V = I, no ties),
    built with no eigendecomposition and no theta grid, and the metric does
    not depend on the state."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("spectral work in a p = 2 frame")

    def test_no_spectral_work(self, monkeypatch, rng, depol3, dbc3):
        for L in (depol3, dbc3):
            rhos = np.array([la.random_density(rng, 3, floor=0.05) for _ in range(3)])
            U = la.traceless_part(la.random_hermitian(rng, 3))
            with monkeypatch.context() as patched:
                patched.setattr(tp.la, "herm_eigh", self._refuse)
                patched.setattr(tp, "theta_p_log", self._refuse)
                fr = tp._Frame(L, rhos[0], 2.0)
                assert np.array_equal(fr.state_derivative(fr.eig(fr.grad(U), fr.P)),
                                      np.zeros((3, 3)))
                assert np.all(np.isfinite(tp.onsager_matrix(L, rhos[0], 2.0)))
                stack = tp._Frame(L, rhos[:, None], 2.0)
                for frame, states in ((stack, rhos), (stack[1:], rhos[1:])):
                    assert np.array_equal(frame.onsager(U)[:, 0], np.broadcast_to(
                        fr.onsager(U), (len(states), 3, 3)))
                    _, C, G = tp._basis_gram(L, states, 2.0, frame)
                    assert not np.any(frame.state_derivative(C[:, :1]))
                    assert la.frob(rc.hessian_matrix(L, states, 2.0)[1] - G) <= 1e-14 * la.frob(G)

    def test_metric_does_not_depend_on_the_state(self, rng, depol3, dbc4):
        for L in (depol3, dbc4):
            rho1, rho2 = (la.random_density(rng, L.d, floor=0.05) for _ in range(2))
            assert np.array_equal(tp.onsager_matrix(L, rho1, 2.0),
                                  tp.onsager_matrix(L, rho2, 2.0))

    def test_hessian_first_term_is_zero(self, monkeypatch, rng, dbc4):
        # hessian_matrix forms each Gram product by _real_gram, summed over
        # the rows of the basis gradients: at p = 2 G alone, and H is
        # -Re(Phi† L† Phi) G symmetrized; at p < 2 the first term takes a second
        grams = []

        def recorded(X, Y):
            grams.append(real_gram(X, Y))
            return grams[-1]

        real_gram = tp._real_gram
        monkeypatch.setattr(tp, "_real_gram", recorded)
        states = np.array([la.random_density(rng, 4, floor=0.05) for _ in range(2)])
        H, G = rc.hessian_matrix(dbc4, states, 2.0)
        assert len(grams) == 1
        n, Phi = 15, tp._basis_frame(4)[1]
        G0 = grams[0].reshape(2, 4, n, n).sum(axis=1)
        H0 = -(np.real(Phi.conj().T @ dbc4.dual_generator @ Phi) @ G0)
        assert np.array_equal(G, 0.5 * (G0 + np.swapaxes(G0, -1, -2)))
        assert np.array_equal(H, 0.5 * (H0 + np.swapaxes(H0, -1, -2)))
        grams.clear()
        rc.hessian_matrix(dbc4, states, 1.5)
        assert len(grams) == 2

    @pytest.mark.parametrize("name", ["depol3", "dbc4"])
    def test_geodesics_are_straight_lines(self, request, rng, name):
        # with no state derivative U_dot = 0: U keeps U0 bit for bit, and rho
        # moves along rho_dot = D_2 U0 at constant velocity
        L = request.getfixturevalue(name)
        rho0 = la.random_density(rng, L.d, floor=0.2)
        U0 = 0.3 * la.traceless_part(la.random_hermitian(rng, L.d))
        T, steps = 0.1, 5
        D2U0 = tp._Frame(L, rho0, 2.0).onsager(U0)
        assert la.frob(T * D2U0) >= 0.01 * la.frob(rho0)  # the path moves
        for k, (rho, U) in enumerate(tp.geodesic_shoot(L, rho0, U0, 2.0, T, steps)):
            assert np.array_equal(U, U0)
            line = rho0 + (k * T / steps) * D2U0
            assert la.frob(rho - line) <= 1e-14 * la.frob(line)
        second = float(np.real(la.hs_inner(U0, L.apply_dual(D2U0))))
        assert rc.hessian_form(L, rho0, 2.0, U0) == -second

    @pytest.mark.parametrize("name", ["depol3", "dbc4"])
    def test_path_energy_gradient_at_displaced_path(self, request, rng, name):
        # the gradient formed with no state-derivative term passes the
        # solver's self-test away from the linear path, and the self-test
        # sees a gradient scaled by 1 + 1e-3
        L = request.getfixturevalue(name)
        problem = tp._PathEnergy(L, *(la.random_density(rng, L.d, floor=0.1) for _ in range(2)),
                                 2.0, N=6)
        y = 0.05 * rng.standard_normal(5 * (L.d ** 2 - 1))
        assert la.check_gradient(problem.value_and_grad, y, "path energy") <= 1e-7

        def scaled(ys):
            value, grad = problem.value_and_grad(ys)
            return value, (1.0 + 1e-3) * grad

        with pytest.raises(GradientCheckFailed):
            la.check_gradient(scaled, y, "path energy")

    @pytest.mark.parametrize("stacked", [False, True])
    def test_singular_state_rejected(self, rng, dbc3, stacked):
        singular = np.diag([0.5, 0.5, 0.0]).astype(complex)
        rho = np.array([la.random_density(rng, 3, floor=0.05), singular]) if stacked else singular
        with pytest.raises(SingularState, match="full-rank state"):
            tp._Frame(dbc3, rho, 2.0)


class TestGradientFlow:
    @pytest.mark.parametrize("p", [1.3, 1.7, 2.0])
    def test_residual_small(self, rng, dbc3, p):
        rho = la.random_density(rng, 3, floor=0.05)
        assert tp.grad_flow_residual(dbc3, rho, p) <= 1e-8

    def test_stationary_point(self, depol2):
        lhs = oracles.onsager_apply(depol2, SIGMA_STAR, 1.5,
                                    np.zeros((2, 2), dtype=complex))
        assert la.frob(lhs) <= 1e-14
        assert la.frob(depol2.apply_dual(SIGMA_STAR)) <= 1e-12

    def test_commuting_diagonal_reduction(self, rng, depol2):
        # diagonal rho with diagonal sigma reduces to the classical identity
        rho = np.diag([0.6, 0.4]).astype(complex)
        for p in (1.3, 1.7):
            assert tp.grad_flow_residual(depol2, rho, p) <= 1e-9


class TestW2Solver:
    def test_same_endpoints_zero(self, dbc2):
        rho = np.diag([0.6, 0.4]).astype(complex)
        dist, path = tp.w2p_solve(dbc2, rho, rho, 1.5, tp.W2Opts(N=6))
        assert dist <= 1e-6
        assert max(np.abs(path.momenta).max(), 0.0) <= 1e-5

    def test_antipodal_flat_anchor(self, depol_pauli):
        r0 = np.diag([1.0, 0.0]).astype(complex)
        r1 = np.diag([0.0, 1.0]).astype(complex)
        dist, path = tp.w2p_solve(depol_pauli, r0, r1, 2.0, tp.W2Opts(N=20))
        assert dist == pytest.approx(2.0, abs=0.02)
        assert path.converged
        assert path.continuity_residual <= 1e-8
        flat = tp.flat_w22(depol_pauli, r0, r1)
        assert flat == pytest.approx(2.0, abs=1e-9)

    def test_flat_agreement_general_pair(self, rng, dbc2):
        r0 = la.random_density(rng, 2, floor=0.05)
        r1 = la.random_density(rng, 2, floor=0.05)
        dist, _ = tp.w2p_solve(dbc2, r0, r1, 2.0, tp.W2Opts(N=20))
        assert dist == pytest.approx(tp.flat_w22(dbc2, r0, r1), rel=0.01)

    def test_constant_speed(self, rng, dbc2):
        r0 = la.random_density(rng, 2, floor=0.1)
        r1 = la.random_density(rng, 2, floor=0.1)
        _, path = tp.w2p_solve(dbc2, r0, r1, 1.5, tp.W2Opts(N=12))
        ratio = max(path.action_per_step) / min(path.action_per_step)
        assert ratio <= 1.02

    def test_symmetry(self, rng, dbc2):
        r0 = la.random_density(rng, 2, floor=0.1)
        r1 = la.random_density(rng, 2, floor=0.1)
        d01, _ = tp.w2p_solve(dbc2, r0, r1, 1.5, tp.W2Opts(N=10))
        d10, _ = tp.w2p_solve(dbc2, r1, r0, 1.5, tp.W2Opts(N=10))
        assert d01 == pytest.approx(d10, rel=0.01)

    def test_triangle_inequality(self, rng, dbc2):
        states = [la.random_density(rng, 2, floor=0.1) for _ in range(3)]
        opts = tp.W2Opts(N=10)
        d01, _ = tp.w2p_solve(dbc2, states[0], states[1], 1.5, opts)
        d12, _ = tp.w2p_solve(dbc2, states[1], states[2], 1.5, opts)
        d02, _ = tp.w2p_solve(dbc2, states[0], states[2], 1.5, opts)
        assert d02 <= (d01 + d12) * 1.02

    def test_squared_distance_convexity(self, rng, dbc2):
        opts = tp.W2Opts(N=8)
        r0a, r1a = la.random_density(rng, 2, floor=0.1), la.random_density(rng, 2, floor=0.1)
        r0b, r1b = la.random_density(rng, 2, floor=0.1), la.random_density(rng, 2, floor=0.1)
        s = 0.5
        d_mix, _ = tp.w2p_solve(dbc2, (1 - s) * r0a + s * r0b,
                                (1 - s) * r1a + s * r1b, 1.5, opts)
        da, _ = tp.w2p_solve(dbc2, r0a, r1a, 1.5, opts)
        db, _ = tp.w2p_solve(dbc2, r0b, r1b, 1.5, opts)
        assert d_mix**2 <= ((1 - s) * da**2 + s * db**2) * 1.02

    def test_trace_distance_lower_bound(self, rng, dbc2):
        r0 = la.random_density(rng, 2, floor=0.05)
        r1 = la.random_density(rng, 2, floor=0.05)
        for p in (1.3, 2.0):
            dist, _ = tp.w2p_solve(dbc2, r0, r1, p, tp.W2Opts(N=10))
            C = tp.trace_distance_prefactor(dbc2, p)
            assert la.trace_norm(r1 - r0) <= C * dist * (1 + 1e-9)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5, 3.0])
    def test_prefactor_rejects_p_outside_metric_range(self, dbc2, p):
        # the range of the metric kernel, with its error
        with pytest.raises(ValueError, match=r"needs p in \(1, 2\]"):
            tp.trace_distance_prefactor(dbc2, p)

    def test_step_limit_is_not_converged(self, rng, dbc2, monkeypatch):
        monkeypatch.setattr(tp, "minimize", functools.partial(la.minimize, max_iters=1))
        r0 = la.random_density(rng, 2, floor=0.1)
        r1 = la.random_density(rng, 2, floor=0.1)
        _, path = tp.w2p_solve(dbc2, r0, r1, 1.5, tp.W2Opts(N=6))
        assert (path.steps, path.stop) == (1, "max_iters")
        assert path.evaluations >= 2
        assert path.converged is False

    def test_no_jumps_rejected(self):
        L = sg.random_dbc(SIGMA_STAR, 0, 0, seed=1)
        with pytest.raises(NoJumps):
            tp.w2p_solve(L, np.eye(2) / 2, SIGMA_STAR, 1.5)


class TestPathEnergy:
    """The path-energy objective of w2p_solve and the shared Gram helper."""

    N = 6

    @pytest.fixture(params=["dbc2", "dbc3", "dbc4"])
    def model(self, request):
        return request.getfixturevalue(request.param)

    @pytest.fixture
    def pair(self, rng, model):
        return (la.random_density(rng, model.d, floor=0.1),
                la.random_density(rng, model.d, floor=0.1))

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_gradient_central_difference(self, rng, model, pair, p):
        problem = tp._PathEnergy(model, *pair, p, self.N)
        y = 0.01 * rng.standard_normal((self.N - 1) * (model.d ** 2 - 1))
        f0, g = problem.value_and_grad(y)
        eps = 1e-6
        for _ in range(3):
            v = rng.standard_normal(y.size)
            v /= np.linalg.norm(v)
            fd = (problem.value_and_grad(y + eps * v)[0]
                  - problem.value_and_grad(y - eps * v)[0]) / (2.0 * eps)
            # largest gap seen over these nine cases: 1.5e-10 of max(|g|, f0)
            assert abs(g @ v - fd) <= 1e-8 * max(np.linalg.norm(g), f0)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_solution_is_an_exact_path(self, model, pair, p):
        r0, r1 = pair
        dist, path = tp.w2p_solve(model, r0, r1, p, tp.W2Opts(N=self.N))
        assert path.converged
        assert path.endpoint_residual == 0.0
        assert np.array_equal(path.states[0], r0) and np.array_equal(path.states[-1], r1)
        assert path.continuity_residual <= 1e-10
        assert path.momenta.shape == (self.N, len(model.jumps), model.d, model.d)
        if p == 2.0:
            assert dist == pytest.approx(tp.flat_w22(model, r0, r1), rel=1e-9)
        back, _ = tp.w2p_solve(model, r1, r0, p, tp.W2Opts(N=self.N))
        assert back == pytest.approx(dist, rel=1e-10)

    def test_one_step_path(self, model, pair):
        # no interior state: the path is the segment, exact at p = 2, with
        # no optimizer and no preconditioner at any p
        r0, r1 = pair
        for p in (1.05, 2.0):
            dist, path = tp.w2p_solve(model, r0, r1, p, tp.W2Opts(N=1))
            assert path.converged and path.endpoint_residual == 0.0
            assert (path.steps, path.evaluations, path.stop) == (0, 0, "gtol")
            if p == 2.0:
                assert dist == pytest.approx(tp.flat_w22(model, r0, r1), rel=1e-12)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_gram_is_onsager_matrix_on_basis(self, rng, model, p):
        rhos = np.array([la.random_density(rng, model.d, floor=0.05) for _ in range(2)])
        _, C, G = tp._basis_gram(model, rhos, p)
        _, Phi = tp._basis_frame(model.d)
        assert C.shape[:2] == (2, model.d ** 2 - 1)
        for rho, Gs in zip(rhos, G):
            ref = Phi.conj().T @ tp.onsager_matrix(model, rho, p) @ Phi
            assert np.max(np.abs(Gs - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [1, 6])
    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    @pytest.mark.parametrize("name", ["depol3", "dbc4"])
    def test_stack_matches_single_paths(self, request, rng, name, p, N):
        # one evaluation of K = 3 paths against three single calls, bit for bit
        L = request.getfixturevalue(name)
        pair = [la.random_density(rng, L.d, floor=0.1) for _ in range(2)]
        problem = tp._PathEnergy(L, *pair, p, N)
        ys = 0.01 * rng.standard_normal((3, (N - 1) * (L.d ** 2 - 1)))
        values, grads = problem.value_and_grad(ys)
        assert values.shape == (3,) and grads.shape == ys.shape
        for y, value, grad in zip(ys, values, grads):
            v1, g1 = problem.value_and_grad(y)
            assert isinstance(v1, float)
            assert value == v1 and np.array_equal(grad, g1)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_self_test_matches_sequential(self, rng, model, pair, p):
        problem = tp._PathEnergy(model, *pair, p, self.N)
        y = 0.01 * rng.standard_normal((self.N - 1) * (model.d ** 2 - 1))
        assert la.check_gradient(problem.value_and_grad, y, "path energy") == \
            oracles.check_gradient_sequential(problem.value_and_grad, y, "path energy")

    def test_stacked_singular_metric_names_path_and_step(self, dbc2, monkeypatch):
        basis_gram = tp._basis_gram

        def breaks_path_1_step_4(L, rho, p, fr=None):
            fr, C, G = basis_gram(L, rho, p, fr)
            k = 1 * self.N + 4
            G[k] -= (np.linalg.eigvalsh(G[k])[0] + 1.0) * np.eye(len(G[k]))
            return fr, C, G

        problem = tp._PathEnergy(dbc2, np.diag([0.6, 0.4]).astype(complex), SIGMA_STAR,
                                 1.5, self.N)
        monkeypatch.setattr(tp, "_basis_gram", breaks_path_1_step_4)
        with pytest.raises(SingularMetric, match="step 4 of path 1 "):
            problem.value_and_grad(np.zeros((3, (self.N - 1) * 3)))

    def test_stacked_singular_metric_names_lowest_eigenvalue(self, dbc2, monkeypatch):
        basis_gram = tp._basis_gram

        def breaks_path_1_step_2(L, rho, p, fr=None):
            fr, C, G = basis_gram(L, rho, p, fr)
            k = 1 * self.N + 2
            G[k] -= (np.linalg.eigvalsh(G[k])[0] + 0.5) * np.eye(len(G[k]))
            return fr, C, G

        problem = tp._PathEnergy(dbc2, np.diag([0.6, 0.4]).astype(complex), SIGMA_STAR,
                                 1.5, self.N)
        monkeypatch.setattr(tp, "_basis_gram", breaks_path_1_step_2)
        with pytest.raises(SingularMetric, match=r"step 2 of path 1 .*lowest eigenvalue -5\.000e-01"):
            problem.value_and_grad(np.zeros((3, (self.N - 1) * 3)))

    def test_gram_cholesky_names_first_failing_matrix(self, rng):
        # the first matrix that is not positive definite, not the lowest
        A = rng.standard_normal((4, 5, 5))
        G = A @ np.swapaxes(A, -1, -2) + np.eye(5)
        R = tp._gram_cholesky(G, str)
        assert np.allclose(R @ np.swapaxes(R, -1, -2), G, rtol=1e-13, atol=0.0)
        for i, low in ((1, -0.25), (3, -2.0)):
            G[i] -= (np.linalg.eigvalsh(G[i])[0] - low) * np.eye(5)
        with pytest.raises(SingularMetric, match=r"of matrix 1 .*\(lowest eigenvalue -2\.500e-01\)"):
            tp._gram_cholesky(G, lambda i: f"matrix {i}")

    def test_floor_keeps_states_above_it(self, rng, model):
        # bit for bit the input when every eigenvalue exceeds FLOOR
        g = np.array([la.random_density(rng, model.d, floor=0.01) for _ in range(4)])
        assert tp._floored(g) is g

    def test_floor_matches_eigen_floor(self, rng, model):
        # a state with an eigenvalue of 1e-12 among full-rank ones: the stack
        # is floored by its eigendecomposition, which raises that eigenvalue
        # to FLOOR and keeps the other states to round-off
        d = model.d
        g = np.array([la.random_density(rng, d, floor=0.01) for _ in range(3)])
        U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        lam = np.full(d, (1.0 - 1e-12) / (d - 1))
        lam[0] = 1e-12
        g[1] = la.herm((U * lam) @ U.conj().T)
        out = tp._floored(g)
        w, V = np.linalg.eigh(g)
        ref = (V * np.maximum(w, tp.FLOOR)[:, None, :]) @ la.dagger(V)
        assert np.max(np.abs(out - ref)) <= 1e-15
        assert np.max(np.abs(out[[0, 2]] - g[[0, 2]])) <= 1e-14
        assert np.linalg.eigvalsh(out[1])[0] >= tp.FLOOR * (1.0 - 1e-6)

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_self_test_serves_the_first_evaluation(self, model, pair, p):
        # the value and gradient the self-test keeps of its first path, the
        # linear path y = 0, are those of a fresh evaluation there
        problem = tp._PathEnergy(model, *pair, p, self.N)
        problem.selftest()
        value, grad, G, _ = problem.start
        fresh_value, fresh_grad = problem.value_and_grad(np.zeros_like(grad))
        assert abs(value - fresh_value) <= 1e-13 * abs(fresh_value)
        assert np.max(np.abs(grad - fresh_grad)) <= 1e-13 * max(np.max(np.abs(fresh_grad)),
                                                                 fresh_value)
        assert G.shape == (self.N, model.d ** 2 - 1, model.d ** 2 - 1)
        fresh_G = problem.last[1][-1]
        assert np.max(np.abs(G - fresh_G)) <= 1e-13 * np.max(np.abs(fresh_G))

    @pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
    def test_self_test_differentiates_the_checked_path_alone(self, model, pair, p,
                                                             monkeypatch):
        # check_gradient reads the gradient at its point y = 0 alone, so the
        # self-test forms the state derivative over that path's N midpoints,
        # not over all 7 N; its gap, value and gradient are those of the
        # energy with all seven gradients, bit for bit
        problem = tp._PathEnergy(model, *pair, p, self.N)
        leading = []
        state_derivative = tp._Frame.state_derivative

        def recorded(fr, C):
            leading.append((len(fr.lam), len(C)))
            return state_derivative(fr, C)

        monkeypatch.setattr(tp._Frame, "state_derivative", recorded)
        gap = problem.selftest()
        assert leading == [(self.N, self.N)]
        full = []

        def all_gradients(ys):
            full.append(problem._energy(problem.evaluate(ys)))
            return full[-1]

        y0 = np.zeros((self.N - 1) * (model.d ** 2 - 1))
        assert gap == la.check_gradient(all_gradients, y0, "path energy")
        assert leading[1:] == [(7 * self.N, 7 * self.N)]
        (values, grads), = full
        value, grad, _, _ = problem.start
        assert value == values[0] and np.array_equal(grad, grads[0])

    def test_p2_solve_evaluates_once(self, model, pair, monkeypatch):
        # at p = 2 the linear path is the optimum: the self-test's one
        # evaluation serves the descent's only call and the rebuild
        calls = []
        evaluate = tp._PathEnergy.evaluate

        def counted(problem, y, paths=None):
            calls.append(np.shape(y))
            return evaluate(problem, y, paths)

        monkeypatch.setattr(tp._PathEnergy, "evaluate", counted)
        dist, path = tp.w2p_solve(model, *pair, 2.0, tp.W2Opts(N=self.N))
        assert (path.stop, path.steps, path.evaluations) == ("gtol", 0, 1)
        assert calls == [(7, (self.N - 1) * (model.d ** 2 - 1))]
        assert path.continuity_residual <= 1e-10
        assert dist == pytest.approx(tp.flat_w22(model, *pair), rel=1e-9)

    def test_served_value_only_at_the_start(self, model, pair, monkeypatch):
        # an optimizer whose first call is off z = 0 gets a fresh evaluation
        # there, not the self-test's value of the linear path; its call at
        # z = 0 is still served, and the solve ends where it did
        dist, path = tp.w2p_solve(model, *pair, 1.5, tp.W2Opts(N=self.N))
        calls = []
        evaluate = tp._PathEnergy.evaluate

        def counted(problem, y, paths=None):
            calls.append(bool(np.any(y)))
            return evaluate(problem, y, paths)

        def shifted(fun, x0, **kw):
            fun(x0 + 0.01)
            return la.minimize(fun, x0, **kw)

        monkeypatch.setattr(tp._PathEnergy, "evaluate", counted)
        monkeypatch.setattr(tp, "minimize", shifted)
        dist2, path2 = tp.w2p_solve(model, *pair, 1.5, tp.W2Opts(N=self.N))
        assert calls[:2] == [True, True]  # the self-test, then the shifted call
        assert len(calls) == path2.evaluations + 1  # minimize's first call is served
        assert (path2.evaluations, path2.steps, dist2) == (path.evaluations, path.steps, dist)

    def test_singular_metric_names_step(self, dbc2, monkeypatch):
        basis_gram = tp._basis_gram

        def third_step_breaks(L, rho, p, fr=None):
            fr, C, G = basis_gram(L, rho, p, fr)
            G[2] -= (np.linalg.eigvalsh(G[2])[0] + 1.0) * np.eye(len(G[2]))
            return fr, C, G

        monkeypatch.setattr(tp, "_basis_gram", third_step_breaks)
        r0, r1 = np.diag([0.6, 0.4]).astype(complex), SIGMA_STAR
        with pytest.raises(SingularMetric, match="step 2 "):
            tp.w2p_solve(dbc2, r0, r1, 1.5, tp.W2Opts(N=self.N))


class TestPreconditioner:
    """w2p_solve descends z -> E(T z) with T T^T = H^-1, H the path energy's
    Hessian with the Gram matrices held at the linear path."""

    @pytest.mark.parametrize("name", ["dbc2", "dbc3", "dbc4"])
    def test_whitens_the_exact_hessian_at_p2(self, request, rng, name):
        # at p = 2 the G_k do not depend on the state, so the energy is
        # quadratic with Hessian H: central differences of the gradient
        # along the columns of T give H T, and T^T H T = I
        L = request.getfixturevalue(name)
        pair = [la.random_density(rng, L.d, floor=0.1) for _ in range(2)]
        problem = tp._PathEnergy(L, *pair, 2.0, 6)
        T = problem.preconditioner(problem.evaluate(np.zeros(5 * (L.d ** 2 - 1)))[-1])
        eps = 1e-3
        _, g = problem.value_and_grad(np.concatenate([eps * T.T, -eps * T.T]))
        HT = (g[:len(T)] - g[len(T):]) / (2.0 * eps)
        assert np.max(np.abs(HT @ T - np.eye(len(T)))) <= 1e-6

    @pytest.mark.parametrize("p", [1.05, 2.0])
    @pytest.mark.parametrize("N", [2, 3, 6, 20])
    @pytest.mark.parametrize("name", ["dbc2", "dbc3", "dbc4"])
    def test_block_factor_inverts_the_dense_hessian(self, request, rng, name, N, p):
        # T T^T = H^-1 against the dense Hessian, and T = L^-T is upper
        # triangular; at N = 2 H is one block, with none beside it
        L = request.getfixturevalue(name)
        pair = [la.random_density(rng, L.d, floor=0.1) for _ in range(2)]
        problem = tp._PathEnergy(L, *pair, p, N)
        G = problem.evaluate(np.zeros((N - 1) * (L.d ** 2 - 1)))[-1]
        T = problem.preconditioner(G)
        Hinv = np.linalg.inv(oracles.path_hessian(problem, G))
        assert np.max(np.abs(T @ T.T - Hinv)) <= 1e-12 * np.max(np.abs(Hinv))
        assert not np.tril(T, -1).any()

    def test_d5_solve_takes_the_newton_step(self, rng):
        # ROADMAP's d = 5 model (sigma proportional to 2^-k, 5 pairs, one
        # diagonal jump, seed 42) at the default N = 20: n = 24 and H is
        # (456, 456), whitened by its block factor; the first trial is
        # accepted and none backtracks
        s = 2.0 ** -np.arange(5)
        L = sg.random_dbc(np.diag(s / s.sum()).astype(complex), 5, 1, seed=42)
        pair = [la.random_density(rng, 5, floor=0.05) for _ in range(2)]
        _, path = tp.w2p_solve(L, *pair, 1.05, tp.W2Opts(N=20))
        assert path.stop in ("ftol", "gtol")
        assert path.evaluations == path.steps + 1

    def test_indefinite_schur_complement_names_the_step(self, dbc2, monkeypatch):
        # positive definite Gram matrices make H positive definite, so that
        # _gram_cholesky passes is stubbed here: step 2's Gram matrix is
        # shifted by a constant to a lowest eigenvalue of -1e-3 on every
        # path (the energy and its gradient stay consistent, and the self-
        # test passes), which makes the Schur complement at path state 2
        # indefinite: the factor raises SingularMetric, not LinAlgError
        N = 6
        r0, r1 = np.diag([0.6, 0.4]).astype(complex), SIGMA_STAR
        G2 = tp._PathEnergy(dbc2, r0, r1, 1.5, N).evaluate(np.zeros((N - 1) * 3))[-1][2]
        shift = (np.linalg.eigvalsh(G2)[0] + 1e-3) * np.eye(3)
        basis_gram = tp._basis_gram

        def step_2_indefinite(L, rho, p, fr=None):
            fr, C, G = basis_gram(L, rho, p, fr)
            G[2::N] -= shift
            return fr, C, G

        monkeypatch.setattr(tp, "_basis_gram", step_2_indefinite)
        monkeypatch.setattr(tp, "_gram_cholesky", lambda G, where: None)
        with pytest.raises(SingularMetric, match=r"once step 2 is added .*at path state 2\)"):
            tp.w2p_solve(dbc2, r0, r1, 1.5, tp.W2Opts(N=N))

    @pytest.mark.parametrize("p", [1.05, 1.5])
    def test_cli_pairs_take_few_evaluations(self, p):
        # the depol3 transport task at N = 20 (57-68 evaluations per solve
        # from a scaled identity): the first trial is the Newton step of the
        # whitened energy, and no trial backtracks (a unit first trial took
        # 6 evaluations for 4 steps)
        cfg = dataclasses.replace(cf.fixtures("depol3"), tasks=["transport"], p_grid=[p])
        diag = cli.run(cfg)["diagnostics"]["transport"]
        assert len(diag) == 2
        for entry in diag:
            assert entry["stop"] in ("ftol", "gtol")
            assert entry["evaluations"] == entry["steps"] + 1

    def test_cli_distance_matches_a_tight_solve(self):
        # the default tol stops where a tol = 1e-13 solve does: the distance
        # to 1e-12 and each step's action to 1e-6 (from a scaled identity:
        # 1.3e-10 and 2.5e-5)
        cfg = dataclasses.replace(cf.fixtures("depol3"), tasks=["transport"], p_grid=[1.05])
        solves = cli.run(cfg)["results"]["transport"]["solves"]
        tight = cli.run(dataclasses.replace(cfg, transport_tol=1e-13))["results"]["transport"]["solves"]
        assert len(solves) == len(tight) == 2
        for a, b in zip(solves, tight):
            assert a["distance"] == pytest.approx(b["distance"], rel=1e-12, abs=0.0)
            assert a["action_per_step"] == pytest.approx(b["action_per_step"], rel=1e-6, abs=0.0)

    def test_rebuild_reuses_the_last_evaluation(self, rng, depol3, monkeypatch):
        # one call for the self-test, which also answers the optimizer's
        # first evaluation, one per later optimizer evaluation, and none to
        # rebuild the path: the optimizer's last point maps back to y by the
        # same product as inside the objective
        calls = []
        evaluate = tp._PathEnergy.evaluate

        def counted(problem, y, paths=None):
            calls.append(np.shape(y))
            return evaluate(problem, y, paths)

        monkeypatch.setattr(tp._PathEnergy, "evaluate", counted)
        pair = [la.random_density(rng, 3, floor=0.05) for _ in range(2)]
        _, path = tp.w2p_solve(depol3, *pair, 1.05, tp.W2Opts(N=20))
        assert path.stop == "ftol"
        assert len(calls) == path.evaluations
        assert calls[0] == (7, 19 * 8)


class TestWorkspace:
    """The block arrays of the metric layer live in one kept workspace
    (transport._slots), and the path energy runs its midpoints in blocks
    whose rows fit in transport.BLOCK_BYTES (transport._blocks)."""

    @staticmethod
    def _per_state(L):
        return tp._basis_rows(L, L.sigma[None], 2.0)[1].nbytes

    @pytest.mark.parametrize("name", ["dbc3", "dbc4"])
    def test_blocked_equals_one_block(self, request, rng, monkeypatch, name):
        # at 6 midpoints a block, the 7-path self-test at N = 20 (140
        # midpoints) takes 24 blocks and a one-path descent call 4: the
        # energies, gradients and Gram matrices, and a whole solve, are those
        # of one block, bit for bit
        L = request.getfixturevalue(name)
        N, n = 20, L.d ** 2 - 1
        pair = [la.random_density(rng, L.d, floor=0.1) for _ in range(2)]
        ys = 0.01 * rng.standard_normal((7, (N - 1) * n))
        blocks, spans = tp._blocks, []

        def counted(L, count):
            spans.append(len(blocks(L, count)))
            return blocks(L, count)

        def run():
            problem = tp._PathEnergy(L, *pair, 1.05, N)
            outs = problem.evaluate(ys, paths=1), problem.evaluate(ys), problem.evaluate(ys[2])
            dist, path = tp.w2p_solve(L, *pair, 1.05, tp.W2Opts(N=N))
            return ([problem._energy(out) for out in outs], [out[-1] for out in outs],
                    (dist, path.steps, path.evaluations, path.stop), path.action_per_step)

        monkeypatch.setattr(tp, "_blocks", counted)
        monkeypatch.setattr(tp, "BLOCK_BYTES", 1 << 40)
        whole = run()
        assert set(spans) == {1}
        spans.clear()
        monkeypatch.setattr(tp, "BLOCK_BYTES", 6 * self._per_state(L))
        blocked = run()
        assert spans[:3] == [24, 24, 4] and min(spans) >= 3
        for (v1, g1), (v2, g2) in zip(whole[0], blocked[0]):
            assert np.array_equal(v1, v2) and np.array_equal(g1, g2)
        assert all(np.array_equal(G1, G2) for G1, G2 in zip(whole[1], blocked[1]))
        assert whole[2:] == blocked[2:]

    def test_d6_self_test_blocks(self):
        # ROADMAP's d = 6 model, 7 folded jumps, 141 kB of rows a midpoint:
        # the 7-path self-test at N = 6 spans 3 blocks, and at N = 20 8
        s = 2.0 ** -np.arange(6)
        L = sg.random_dbc(np.diag(s / s.sum()).astype(complex), 6, 1, seed=42)
        assert [len(tp._blocks(L, 7 * N)) for N in (6, 20)] == [3, 8]

    def test_singular_metric_in_a_later_block_names_the_global_step(self, dbc2, monkeypatch):
        # 3 paths of 6 steps in blocks of 4 midpoints: the second matrix of
        # block 2 is midpoint 9, step 3 of path 1
        N = 6
        monkeypatch.setattr(tp, "BLOCK_BYTES", 4 * self._per_state(dbc2))
        problem = tp._PathEnergy(dbc2, np.diag([0.6, 0.4]).astype(complex), SIGMA_STAR, 1.5, N)
        basis_gram, calls = tp._basis_gram, []

        def block_2_breaks(L, rho, p, fr=None):
            fr, C, G = basis_gram(L, rho, p, fr)
            calls.append(len(G))
            if len(calls) == 3:
                G[1] -= (np.linalg.eigvalsh(G[1])[0] + 1.0) * np.eye(len(G[1]))
            return fr, C, G

        monkeypatch.setattr(tp, "_basis_gram", block_2_breaks)
        with pytest.raises(SingularMetric, match=r"step 3 of path 1 .*lowest eigenvalue -1\.000e\+00"):
            problem.value_and_grad(np.zeros((3, (N - 1) * 3)))
        assert calls == [4, 4, 4]

    def test_repeat_solve_allocates_no_block(self, rng, dbc4, monkeypatch):
        # once the workspace has grown, a second solve allocates no array as
        # large as one block's rows of its self-test (70 midpoints, 1.3 MB):
        # none is live at any Gram product. The largest that is, 0.65 MB, is
        # the descent's dense inverse Hessian or the preconditioner's factor
        pair = [la.random_density(rng, 4, floor=0.1) for _ in range(2)]
        opts = tp.W2Opts(N=20)
        first = tp.w2p_solve(dbc4, *pair, 1.05, opts)
        again = []
        largest = largest_allocation_at_grams(
            monkeypatch, lambda: again.append(tp.w2p_solve(dbc4, *pair, 1.05, opts)))
        block = self._per_state(dbc4) * tp._blocks(dbc4, 7 * 20).step
        assert 0 < largest < block
        assert again[0][0] == first[0]

    def test_results_do_not_alias_the_workspace(self, rng, dbc4):
        # what a solve and an evaluation return stays as it was through
        # further calls of the layer
        pair = [la.random_density(rng, 4, floor=0.1) for _ in range(2)]
        dist, path = tp.w2p_solve(dbc4, *pair, 1.05, tp.W2Opts(N=6))
        problem = tp._PathEnergy(dbc4, *pair, 1.5, 6)
        out = problem.evaluate(np.zeros((2, 5 * 15)))
        kept = [np.array(path.states), path.momenta.copy(), out[-2].copy(), out[-1].copy()]
        rc.hessian_matrix(dbc4, np.array(pair), 1.05)
        tp.w2p_solve(dbc4, pair[1], dbc4.sigma, 1.5, tp.W2Opts(N=6))
        problem.evaluate(np.ones(5 * 15))
        for now, then in zip([np.array(path.states), path.momenta, out[-2], out[-1]], kept):
            assert np.array_equal(now, then) and not np.shares_memory(now, tp._workspace)
        assert dist == np.sqrt(path.action)


class TestInverseKernelConvexity:
    def test_joint_convexity_along_segments(self, rng):
        # sum_j <Z_j, [rho]_j^-1 Z_j> with Z = dj X, jointly in (rho, X)
        L = sg.random_dbc(la.random_density(rng, 3, floor=0.05), 3, 1, seed=23)
        rho_a = la.random_density(rng, 3, floor=0.05)
        rho_b = la.random_density(rng, 3, floor=0.05)
        Xa = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Xb = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

        def val(s):
            fr = tp._Frame(L, (1 - s) * rho_a + s * rho_b, 1.5)
            Z = fr.grad((1 - s) * Xa + s * Xb)
            return float(np.sum(np.abs(fr.eig(Z, fr.Q)) ** 2 / fr.theta))

        for s in (0.25, 0.5, 0.75):
            assert val(s) <= (1 - s) * val(0.0) + s * val(1.0) + 1e-9


def _fixture_model(name):
    return cf.build_generator(cf.fixtures(name))


def _tracial_random3():
    """random_dbc with sigma = I/3: at rho = sigma every pair ties, and
    unlike classical_embed's Pauli jumps its kinetic form is not stationary
    there."""
    return sg.random_dbc(np.eye(3, dtype=complex) / 3.0, 3, 1, seed=5)


class TestGeodesicRhs:
    """_geodesic_rhs against oracles that share none of its products:
    rho_dot is the Onsager operator on U summed jump by jump
    (oracles.onsager_apply), and <U_dot, K> is minus the derivative of the
    Hamiltonian, half the kinetic form, along rho + tK by central
    differences. classical_embed (sigma = I/2) and a random model with
    sigma = I/3 are taken at rho = sigma, where every eigenvalue pair ties,
    so their state derivative is the frame's tie branch at p < 2; at p = 2
    every frame is the identity frame, with no ties."""

    CASES = [(name, p) for name in ("depol3", "random_dbc_seeded", "classical_embed",
                                    "tracial_random3", "depol3_tie")
             for p in (1.05, 1.5, 2.0)]

    @staticmethod
    def _state(name, L, p, rng):
        """The state of a case and the number of tied pairs of its frame."""
        d = L.d
        if name in ("classical_embed", "tracial_random3"):
            return L.sigma, d * (d - 1)
        if name == "depol3_tie":
            # Y = sigma^-s rho sigma^-s with two eigenvalues 3e-10 apart in
            # relative terms: one tied pair, whose tilted partials differ
            W, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            lam = np.array([1.0, 1.0 + 3e-10, 1.7])
            P = L.sigma_power((p - 1.0) / (2.0 * p))
            rho = la.herm(P @ (W * lam) @ W.conj().T @ P)
            return rho / np.trace(rho).real, 2
        return la.random_density(rng, d, floor=0.05), 0

    @pytest.mark.parametrize("name, p", CASES)
    def test_matches_oracles(self, name, p):
        if name == "tracial_random3":
            L = _tracial_random3()
        else:
            L = _fixture_model(name.removesuffix("_tie"))
        d = L.d
        rng = np.random.default_rng(41)
        rho, ties = self._state(name, L, p, rng)
        U = la.traceless_part(la.random_hermitian(rng, d))
        fr = tp._Frame(L, rho, p)
        if p == 2.0:  # theta_2 = 1: lam = 1 and V = I at every state
            assert np.all(fr.lam == 1.0) and np.array_equal(fr.V, np.eye(d))
            ties = 0
        assert fr.gaps[0].sum() == ties
        rho_dot, U_dot = tp._geodesic_rhs(L, rho, U, p)
        ref = oracles.onsager_apply(L, rho, p, U)
        assert la.frob(rho_dot - ref) <= 1e-12 * la.frob(ref)
        # both exactly Hermitian, and U_dot trace-free
        assert np.array_equal(rho_dot, la.herm(rho_dot))
        assert np.array_equal(U_dot, la.herm(U_dot))
        assert abs(np.trace(U_dot)) <= 1e-15 * max(1.0, la.frob(U_dot))
        kinetic = 2.0 * oracles.geodesic_hamiltonian(L, rho, U, p)
        t = 1e-4
        for _ in range(3):
            K = la.traceless_part(la.random_hermitian(rng, d))
            K /= la.frob(K)
            fd = -(oracles.geodesic_hamiltonian(L, rho + t * K, U, p)
                   - oracles.geodesic_hamiltonian(L, rho - t * K, U, p)) / (2.0 * t)
            an = float(np.real(la.hs_inner(U_dot, K)))
            assert abs(an - fd) <= 1e-6 * max(abs(an), kinetic), (an, fd)


class TestGeodesics:
    def test_zero_velocity_is_constant(self, rng, dbc2):
        rho = la.random_density(rng, 2, floor=0.1)
        traj = tp.geodesic_shoot(dbc2, rho, np.zeros((2, 2), dtype=complex),
                                 1.5, T=0.5, steps=10)
        assert la.frob(traj[-1].rho - rho) <= 1e-12

    def test_hamiltonian_conserved(self, rng, dbc2):
        rho = la.random_density(rng, 2, floor=0.15)
        U = 0.05 * la.traceless_part(la.random_hermitian(rng, 2))
        traj = tp.geodesic_shoot(dbc2, rho, U, 1.5, T=0.5, steps=25)
        H0 = oracles.geodesic_hamiltonian(dbc2, traj[0].rho, traj[0].U, 1.5)
        HT = oracles.geodesic_hamiltonian(dbc2, traj[-1].rho, traj[-1].U, 1.5)
        assert abs(HT - H0) <= 1e-6 * H0

    def test_endpoint_consistency_with_solver(self, rng, dbc2):
        # shoot along the solved path's initial velocity and land near the target
        r0 = la.random_density(rng, 2, floor=0.1)
        r1 = la.random_density(rng, 2, floor=0.1)
        p = 1.5
        dist, path = tp.w2p_solve(dbc2, r0, r1, p, tp.W2Opts(N=16))
        N = path.momenta.shape[0]
        nu0 = la.traceless_part((path.states[1] - path.states[0]) * N)
        gbar0 = oracles.psd_project(0.5 * (path.states[0] + path.states[1])) \
            + 1e-12 * np.eye(2)
        U0 = tp.onsager_pinv_apply(dbc2, gbar0, p, nu0)
        traj = tp.geodesic_shoot(dbc2, r0, U0, p, T=1.0, steps=40)
        end = la.herm(traj[-1].rho)
        end = end / np.trace(end).real
        gap, _ = tp.w2p_solve(dbc2, end, r1, p, tp.W2Opts(N=10))
        assert gap <= 0.05 * dist

    def test_traceful_velocity_rejected(self, rng, dbc2):
        with pytest.raises(KernelComponent):
            tp.geodesic_shoot(dbc2, np.eye(2) / 2, np.eye(2, dtype=complex),
                              1.5, T=0.1, steps=2)

    @pytest.mark.parametrize("T, steps", [(-1e-3, 4), (0.0, 4), (float("nan"), 4),
                                          (0.1, 0), (0.1, -1)])
    def test_empty_or_backward_grid_rejected(self, depol3, T, steps):
        # a negative T returned the start state steps + 1 times, and steps = 0
        # divided by zero
        U = np.diag([0.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="T > 0 and steps >= 1"):
            tp.geodesic_shoot(depol3, depol3.sigma, U, 1.5, T=T, steps=steps)

    @staticmethod
    def _counted_rk4(monkeypatch):
        """The number of RK4 steps geodesic_shoot tries, as a one-entry list."""
        calls, rk4 = [0], tp._rk4

        def counted(*args):
            calls[0] += 1
            return rk4(*args)

        monkeypatch.setattr(tp, "_rk4", counted)
        return calls

    def test_step_halving_near_floor(self, monkeypatch, depol3):
        # lam_min = 1e-8, a hundred times FLOOR, grows along U, but an inner
        # stage of the full RK4 step of 0.01 leaves the cone (as does one of
        # its half): the step is halved, and the shot ends inside the cone
        calls = self._counted_rk4(monkeypatch)
        rho = np.diag([0.6, 0.4 - 1e-8, 1e-8]).astype(complex)
        U = np.diag([0.0, -1.0, 1.0]).astype(complex)
        traj = tp.geodesic_shoot(depol3, rho, U, 1.5, T=0.01, steps=1)
        assert calls[0] > 2  # the failed step and at least two halves
        assert np.min(np.linalg.eigvalsh(traj[-1].rho)) > tp.FLOOR

    def test_step_regrows_after_halving(self, monkeypatch, depol3):
        # the same start shot for T = 1 in one step: the early steps need 9
        # halvings, and once lam_min has grown the step doubles back toward
        # the grid's, where it had stayed at 2^-9 for the rest of the step
        # (521 RK4 steps; 74 with 64 grid steps)
        calls = self._counted_rk4(monkeypatch)
        rho = np.diag([0.6, 0.4 - 1e-8, 1e-8]).astype(complex)
        U = np.diag([0.0, -1.0, 1.0]).astype(complex)
        traj = tp.geodesic_shoot(depol3, rho, U, 1.5, T=1.0, steps=1)
        assert calls[0] <= 100
        assert np.min(np.linalg.eigvalsh(traj[-1].rho)) > tp.FLOOR
        # the RK4 steps keep the states Hermitian bit for bit
        for state in traj:
            assert np.array_equal(state.rho, la.herm(state.rho))
            assert np.array_equal(state.U, la.herm(state.U))

    def test_leaving_the_cone_raises(self, monkeypatch, depol3):
        # along U the smallest eigenvalue, 1e-6, falls to 0 within the step:
        # 20 halvings do not keep the step inside the cone
        calls = self._counted_rk4(monkeypatch)
        rho = np.diag([0.6, 0.4 - 1e-6, 1e-6]).astype(complex)
        U = np.diag([0.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(LeftPositiveCone, match="20 halvings"):
            tp.geodesic_shoot(depol3, rho, U, 1.5, T=1e-3, steps=1)
        assert calls[0] >= 21
