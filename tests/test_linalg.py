import functools
import warnings

import numpy as np
import pytest

from qbeckner import kernels as kn
from qbeckner import linalg as la
from qbeckner import transport as tp
from qbeckner.errors import (
    GradientCheckFailed,
    NonHermitian,
    NotPsd,
    SingularState,
)

import oracles
from conftest import PAULI, SIGMA_STAR, random_pd


class TestEigh:
    def test_diagonal_input(self):
        w, V = la.herm_eigh(SIGMA_STAR)
        assert np.allclose(w, [0.25, 0.75])
        assert np.allclose(np.abs(V), [[0, 1], [1, 0]])  # permutation of identity

    def test_pauli_x_spectrum(self):
        w, _ = la.herm_eigh(PAULI["x"])
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction(self, rng):
        H = la.random_hermitian(rng, 4)
        w, V = la.herm_eigh(H)
        assert la.frob((V * w) @ V.conj().T - H) <= 1e-10 * la.frob(H)
        assert la.frob(V.conj().T @ V - np.eye(4)) <= 1e-12 * 4

    def test_non_hermitian_rejected(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(NonHermitian):
            la.herm_eigh(A)

    def test_nan_rejected(self):
        # a NaN residual fails the symmetry test instead of reaching numpy's
        # eigensolver, which would raise an untyped LinAlgError
        A = np.eye(3, dtype=complex)
        A[0, 1] = np.nan
        with pytest.raises(NonHermitian, match="nan"):
            la.herm_eigh(A)


class TestMatrixFunction:
    def test_identity_kernel(self, rng):
        A = random_pd(rng, 3)
        assert np.allclose(la.matrix_power_hermitian(A, 1.0), A)

    def test_diagonal_square_root(self):
        A = np.diag([4.0, 9.0]).astype(complex)
        assert np.allclose(la.matrix_power_hermitian(A, 0.5), np.diag([2.0, 3.0]))

    def test_power_against_independent_eig_routine(self, rng):
        import scipy.linalg
        A = random_pd(rng, 3)
        p = 1.5
        out = la.matrix_power_hermitian(A, p - 1.0)
        w, V = scipy.linalg.eigh(A)  # LAPACK driver independent of np.linalg.eigh
        ref = (V * w ** (p - 1.0)) @ V.conj().T
        assert la.frob(out - ref) <= 1e-12 * la.frob(ref)


class TestSuperoperators:
    def test_vectorization_convention(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = la.apply_super(la.sandwich_super(A, B), X)
        assert la.frob(out - A @ X @ B) <= 1e-13 * la.frob(A @ X @ B)
        out = la.apply_super(la.left_super(A), X)
        assert la.frob(out - A @ X) <= 1e-13 * la.frob(A @ X)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_builders_match_kron_to_the_byte(self, rng, d):
        # every entry is one product of an entry of each factor, as in
        # np.kron, so the bytes agree, signed zeros included
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        A[0, -1], B[-1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
        for M in (A, A.real):
            C = np.asarray(M, dtype=complex)
            assert la.sandwich_super(M, B).tobytes() == np.kron(B.T, C).tobytes()
            assert la.sandwich_super(B, M).tobytes() == np.kron(C.T, B).tobytes()
            assert la.left_super(M).tobytes() == np.kron(np.eye(d), C).tobytes()
            assert la.right_super(M).tobytes() == np.kron(C.T, np.eye(d)).tobytes()

    def test_modular_flat_state_is_identity(self):
        # the modular operator X -> sigma X sigma^-1, as validate_dbc forms it
        flat = np.eye(3) / 3
        M = la.sandwich_super(flat, la.matrix_power_hermitian(flat, -1.0))
        assert la.frob(M - np.eye(9)) <= 1e-12

    def test_modular_eigenvalue_on_matrix_unit(self):
        E01 = np.zeros((2, 2), dtype=complex)
        E01[0, 1] = 1.0
        Delta = la.sandwich_super(SIGMA_STAR, la.matrix_power_hermitian(SIGMA_STAR, -1.0))
        assert la.frob(la.apply_super(Delta, E01) - 3.0 * E01) <= 1e-12

    def test_singular_state_rejected(self):
        with pytest.raises(SingularState):
            la.full_rank_eigh(np.diag([1.0, 0.0]).astype(complex))


class TestDoubleSum:
    def test_constant_kernel_is_identity(self, rng):
        A, B = random_pd(rng, 3), random_pd(rng, 3)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        k2 = oracles.Kernel2("one", f=lambda x, y: np.ones(np.broadcast(x, y).shape))
        assert la.frob(oracles.double_sum_apply(k2, A, B, X) - X) <= 1e-12 * la.frob(X)

    def test_left_variable_kernel_is_left_multiplication(self, rng):
        A, B = random_pd(rng, 3), random_pd(rng, 3)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        k2 = oracles.Kernel2("g(x)", f=lambda x, y: x ** 2.0 + 0.0 * y)
        out = oracles.double_sum_apply(k2, A, B, X)
        assert la.frob(out - la.matrix_power_hermitian(A, 2.0) @ X) <= 1e-11 * la.frob(out)

    def test_chain_rule(self, rng):
        # V f(B) - f(A) V = f^[1](A, B)(V B - A V)
        A, B = random_pd(rng, 4, 5.0), random_pd(rng, 4, 5.0)
        V = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        dd = oracles.divided_difference(lambda x: x ** 2.0, lambda x: 2.0 * x)
        lhs = V @ la.matrix_power_hermitian(B, 2.0) - la.matrix_power_hermitian(A, 2.0) @ V
        rhs = oracles.double_sum_apply(dd, A, B, V @ B - A @ V)
        assert la.frob(lhs - rhs) <= 1e-10 * max(la.frob(lhs), 1.0)

    def test_divided_difference_monotone_under_domination(self, rng):
        # X_i <= c Y_i pushes the quadratic form the other way, with c^(2-p)
        p, c = 1.5, 1.8
        fp = oracles.fp_divdiff_kernel(p)
        X1, X2 = random_pd(rng, 3), random_pd(rng, 3)
        Y1 = (X1 + random_pd(rng, 3)) / c
        Y2 = (X2 + random_pd(rng, 3)) / c
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.real(la.hs_inner(A, oracles.double_sum_apply(fp, Y1, Y2, A)))
        rhs = c ** (2.0 - p) * np.real(la.hs_inner(A, oracles.double_sum_apply(fp, X1, X2, A)))
        assert lhs <= rhs * (1.0 + 1e-10)

    def test_positive_kernel_defines_inner_product(self, rng):
        A, B = random_pd(rng, 3), random_pd(rng, 3)
        # x + y > 0 on PD spectra
        dd = oracles.divided_difference(lambda x: x ** 2.0, lambda x: 2.0 * x)
        for _ in range(5):
            X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            val = np.real(la.hs_inner(X, oracles.double_sum_apply(dd, A, B, X)))
            assert val > 0.0


def _partial_dd_apply(k2, A, B, Ad, Bd, C):
    """(d1 f)((A, A), B)[Ad, C] + (d2 f)(A, (B, B))[C, Bd] through the
    partial_dd_tensor weight tensors, in the eigenbases of A and B; f is
    symmetric, so the second partial is the first on (wB, wA) with its last
    axis moved first."""
    wA, VA = la.herm_eigh(A)
    wB, VB = la.herm_eigh(B)
    W1 = la.partial_dd_tensor(k2.f, k2.dx, wA, wB)
    W2 = np.moveaxis(la.partial_dd_tensor(k2.f, k2.dx, wB, wA), -1, -3)
    Ct = VA.conj().T @ C @ VB
    R = (np.einsum("abc,ab,bc->ac", W1, VA.conj().T @ Ad @ VA, Ct)
         + np.einsum("abc,ab,bc->ac", W2, Ct, VB.conj().T @ Bd @ VB))
    return VA @ R @ VB.conj().T


class TestPartialDividedDifference:
    # the time derivative of the double operator sum f(A(t), B(t))[C] is the
    # sum of the two partial divided-difference contractions
    def test_time_derivative_chain_rule(self, rng):
        A, B = random_pd(rng, 4, 5.0), random_pd(rng, 4, 5.0)
        Ad, Bd = la.random_hermitian(rng, 4), la.random_hermitian(rng, 4)
        C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        th = oracles.theta_p_kernel(1.5)
        h = 1e-5
        fd = (oracles.double_sum_apply(th, A + h * Ad, B + h * Bd, C)
              - oracles.double_sum_apply(th, A - h * Ad, B - h * Bd, C)) / (2 * h)
        an = _partial_dd_apply(th, A, B, Ad, Bd, C)
        assert la.frob(fd - an) <= 1e-6 * la.frob(an)

    def test_degenerate_spectrum(self, rng):
        # repeated eigenvalues of A take the derivative branch of W1
        A = np.diag([2.0, 2.0, 3.0, 3.0]).astype(complex)
        B = random_pd(rng, 4, 5.0)
        Ad, Bd = la.random_hermitian(rng, 4), la.random_hermitian(rng, 4)
        C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        th = oracles.theta_p_kernel(1.3)
        h = 1e-5
        fd = (oracles.double_sum_apply(th, A + h * Ad, B + h * Bd, C)
              - oracles.double_sum_apply(th, A - h * Ad, B - h * Bd, C)) / (2 * h)
        an = _partial_dd_apply(th, A, B, Ad, Bd, C)
        assert la.frob(fd - an) <= 1e-6 * la.frob(an)


class TestInnerProducts:
    def test_flat_state_reduces_to_hilbert_schmidt(self, rng):
        d = 3
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        hs = la.hs_inner(X, Y) / d
        flat = np.eye(d) / d
        for s in (0.3, 0.5, 1.0):
            assert oracles.s_inner(X, Y, flat, s) == pytest.approx(hs, rel=1e-12)
        assert la.f_inner(X, Y, la.full_rank_eigh(flat), lambda r: r ** 0.7) == pytest.approx(hs, rel=1e-12)

    def test_identity_normalization(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        for s in (0.2, 0.5, 1.0):
            assert oracles.s_inner(np.eye(3), np.eye(3), sigma, s) == pytest.approx(1.0)

    def test_conjugate_symmetry_and_positivity(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        k = functools.partial(kn.phi_p, 1.5)
        eig = la.full_rank_eigh(sigma)
        assert la.f_inner(X, Y, eig, k) == pytest.approx(np.conj(la.f_inner(Y, X, eig, k)))
        assert np.real(la.f_inner(X, X, eig, k)) > 0


class TestTraceNorm:
    def test_stack_matches_matrix_by_matrix(self, rng):
        # a stack of Hermitian and non-Hermitian matrices: each norm is the
        # one-matrix call's, bit for bit, and the sum of singular values
        herms = [la.random_hermitian(rng, 3) for _ in range(4)]
        others = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        stack = np.array([herms[0], others[0], herms[1], herms[2], others[1], herms[3]])
        norms = la.trace_norm(stack.reshape(2, 3, 3, 3))
        assert norms.shape == (2, 3)
        assert np.array_equal(norms.ravel(), [la.trace_norm(A) for A in stack])
        svd = np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
        assert np.allclose(norms.ravel(), svd, rtol=1e-12, atol=0.0)

    def test_hermitian_stack_takes_one_eigvalsh(self, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(A.shape) or eigvalsh(A))
        monkeypatch.setattr(np.linalg, "svd", None)
        la.trace_norm(np.array([la.random_hermitian(rng, 3) for _ in range(5)]))
        assert calls == [(5, 3, 3)]


class TestAltInequality:
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_alt(self, rng, r, q):
        A, B = random_pd(rng, 3, 1.0), random_pd(rng, 3, 1.0)
        A, B = oracles.psd_project(A, floor=np.inf), oracles.psd_project(B, floor=np.inf)
        Ar = la.matrix_power_hermitian(A, r)
        Br = la.matrix_power_hermitian(B, r)
        lhs = np.real(np.trace(la.matrix_power_hermitian(la.herm(Br @ Ar @ Br), q)))
        rhs = np.real(np.trace(la.matrix_power_hermitian(la.herm(B @ A @ B), r * q)))
        assert lhs <= rhs * (1.0 + 1e-10)


class TestPsdAndSerialization:
    def test_psd_project_clamps_small_negatives(self):
        A = np.diag([1.0, -0.5e-10]).astype(complex)
        out = oracles.psd_project(A)
        assert np.min(np.linalg.eigvalsh(out)) >= 0.0

    def test_psd_project_rejects_large_negatives(self):
        with pytest.raises(NotPsd):
            oracles.psd_project(np.diag([1.0, -1e-6]).astype(complex))

    def test_matrix_json_round_trip(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(la.matrix_from_json(la.matrix_to_json(A)), A)

    def test_abs_power(self, rng):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = la.abs_power(A, 1.0)
        sv = np.linalg.svd(A, compute_uv=False)
        assert np.trace(out).real == pytest.approx(np.sum(sv), rel=1e-10)


class TestCheckGradient:
    @staticmethod
    def _quartic(x):
        # a stack (k, n) to values (k,) and gradients (k, n)
        return np.sum(x**4, axis=-1), 4.0 * x**3

    def test_one_call_on_seven_points(self, rng):
        calls = []

        def recorded(x):
            calls.append(np.array(x))
            return self._quartic(x)

        x = rng.standard_normal(6)
        gap = la.check_gradient(recorded, x, "quartic")
        assert len(calls) == 1 and calls[0].shape == (7, 6)
        assert np.array_equal(calls[0][0], x)
        # each direction is stepped both ways by the same amount
        assert np.allclose(calls[0][1:7:2] + calls[0][2:7:2], 2.0 * x, rtol=0.0, atol=1e-14)
        assert gap == oracles.check_gradient_sequential(
            lambda y: (float(self._quartic(y)[0]), self._quartic(y)[1]), x, "quartic")

    def test_exact_gradient_passes(self, rng):
        # the returned gap is the central differences' own error, O(eps^2)
        assert 0.0 <= la.check_gradient(self._quartic, rng.standard_normal(6), "quartic") <= 1e-8

    def test_gap_is_largest_relative_disagreement(self, rng):
        def off(x):
            f, g = self._quartic(x)
            return f, (1.0 + 1e-6) * g

        x = rng.standard_normal(6)
        gap = la.check_gradient(off, x, "quartic")
        assert 1e-8 < gap <= 1.1e-6

    def test_wrong_gradient_raises(self, rng):
        def wrong(x):
            f, g = self._quartic(x)
            return f, 1.01 * g

        with pytest.raises(GradientCheckFailed):
            la.check_gradient(wrong, rng.standard_normal(6), "quartic")


class TestMinimizeAgreement:
    """The stack stops once max(2, ceil(S/4)) starts have stopped on ftol or
    gtol within AGREE_RTOL of the lowest value any start holds."""

    A = np.logspace(0, 4, 5)
    NEAR_DEEP = np.r_[-1.0, np.full(5, 1e-4)]
    NEAR_SHALLOW = np.r_[1.0, np.full(5, 1e-4)]
    FAR_SHALLOW = np.r_[1.2, np.linspace(-3.0, 5.0, 5)]

    @classmethod
    def two_basin(cls, x):
        # a tilted double well in x[0], about 0.9 at x[0] = -1 and 1.1 at
        # x[0] = +1, plus an ill-conditioned quadratic in the rest; every
        # operation is row by row, so a row's value does not depend on the
        # stack it is evaluated in
        u, v = x[:, 0], x[:, 1:]
        f = 1.0 + (u * u - 1.0) ** 2 + 0.1 * u + 0.5 * (cls.A * v * v).sum(axis=1)
        g = np.empty_like(x)
        g[:, 0] = 4.0 * u * (u * u - 1.0) + 0.1
        g[:, 1:] = cls.A * v
        return f, g

    @staticmethod
    def uncut(monkeypatch, fun, x0):
        """minimize with the agreement rule switched off: no value lies
        within -inf of the best."""
        with monkeypatch.context() as m:
            m.setattr(la, "AGREE_RTOL", -np.inf)
            return la.minimize(fun, x0)

    @staticmethod
    def same(a, b):
        """Two MinimizeResults equal field by field, arrays bit for bit."""
        return all(np.array_equal(getattr(a, k), getattr(b, k))
                   for k in la.MinimizeResult.__dataclass_fields__)

    def test_lower_running_start_blocks_the_cut(self, monkeypatch):
        # two identical starts settle in the shallow basin and agree with each
        # other, but the third already sits lower in the deep basin while it
        # runs, so they do not agree with the best and nothing is cut
        deep = np.r_[-1.0, np.full(5, 5e-3)]
        x0 = np.array([self.NEAR_SHALLOW, self.NEAR_SHALLOW, deep])
        res = la.minimize(self.two_basin, x0)
        assert res.stops == ("ftol", "ftol", "ftol")
        assert res.fun[0] == res.fun[1]
        assert res.evaluations[0] == res.evaluations[1] < res.evaluations[2]
        assert self.two_basin(deep[None])[0][0] < res.fun[0]
        assert self.same(res, self.uncut(monkeypatch, self.two_basin, x0))

    def test_line_search_stops_do_not_count(self, monkeypatch):
        # below x[0] = -5 the value drops by 1e4 and the gradient is reversed,
        # so two starts there hold the lowest value but fail ten trials in a
        # row; their line_search stops make no quorum, and the third start
        # runs on to its own stop
        def fun(x):
            f, g = self.two_basin(x)
            broken = x[:, 0] < -5.0
            return np.where(broken, f - 1e4, f), np.where(broken[:, None], -g, g)

        x0 = np.array([np.r_[-6.0, np.zeros(5)]] * 2 + [self.FAR_SHALLOW])
        res = la.minimize(fun, x0)
        assert res.stops == ("line_search", "line_search", "ftol")
        assert res.fun[0] < res.fun[2] and res.evaluations[0] < res.evaluations[2]
        assert self.same(res, self.uncut(monkeypatch, fun, x0))

    @pytest.mark.parametrize("S,m", [(3, 1), (3, 2), (8, 1), (8, 2), (9, 2), (9, 3),
                                     (12, 2), (12, 3)])
    def test_quorum(self, monkeypatch, S, m):
        # m starts settle in the deep basin after 24 calls; the S - m others
        # settle later, and higher, in the shallow basin. They are cut at the
        # call the m agree once m >= max(2, ceil(S/4)), and never otherwise
        x0 = np.array([self.NEAR_DEEP] * m + [self.FAR_SHALLOW] * (S - m))
        res = la.minimize(self.two_basin, x0)
        ref = self.uncut(monkeypatch, self.two_basin, x0)
        assert ref.stops == ("ftol",) * S
        assert np.array_equal(res.x[:m], ref.x[:m]) and np.array_equal(res.fun[:m], ref.fun[:m])
        if m < max(2, -(-S // 4)):
            assert self.same(res, ref)
            return
        assert res.stops == ("ftol",) * m + ("agreed",) * (S - m)
        assert res.nfev == ref.evaluations[0] < ref.nfev
        assert all(res.evaluations == res.nfev)
        assert all(res.iterations[m:] < ref.iterations[m:])
        # a cut start returns the point it holds, with that point's value
        assert np.array_equal(res.fun, self.two_basin(res.x)[0])
        assert res.nit == max(res.iterations)

    @pytest.mark.parametrize("x0", [[NEAR_DEEP], [FAR_SHALLOW], [NEAR_DEEP, NEAR_DEEP],
                                    [NEAR_DEEP, FAR_SHALLOW], [FAR_SHALLOW, NEAR_DEEP]])
    def test_one_or_two_starts_are_never_cut(self, monkeypatch, x0):
        # with S <= 2 the quorum of 2 is every start, so no start is left to cut
        res = la.minimize(self.two_basin, np.array(x0))
        assert "agreed" not in res.stops
        assert self.same(res, self.uncut(monkeypatch, self.two_basin, np.array(x0)))

    def test_transport_solve_is_unchanged(self, monkeypatch, depol3):
        # a W_{2,p} solve descends from one start, so the rule never fires and
        # the solve is the one the optimizer makes without it, bit for bit
        rng = np.random.default_rng(7)
        r0, r1 = (la.random_density(rng, 3, floor=0.05) for _ in range(2))
        solve = functools.partial(tp.w2p_solve, depol3, r0, r1, 1.05, tp.W2Opts(N=6))
        dist, path = solve()
        monkeypatch.setattr(la, "AGREE_RTOL", -np.inf)
        ref_dist, ref_path = solve()
        assert path.stop in ("ftol", "gtol") and path.steps > 0
        assert dist == ref_dist
        for field in tp.TransportPath.__dataclass_fields__:
            assert np.array_equal(getattr(path, field), getattr(ref_path, field)), field


class TestWhitenedStart:
    """With whitened set, minimize's first trial is the full step -g, the
    Newton step where the inverse Hessian is the identity, capped at
    MAX_STEP * max(|x|, 1); without it, the first trial is 1 long."""

    @staticmethod
    def trials(m, **kwargs):
        """The points minimize evaluates on 0.5 |x - m|^2 from x = 0, and its
        result."""
        calls = []

        def fun(x):
            calls.append(x[0].copy())
            r = x - m
            return 0.5 * (r * r).sum(axis=1), r

        return calls, la.minimize(fun, np.zeros((1, len(m))), **kwargs)

    M = np.array([0.3, -0.2, 0.1])

    def test_first_trial_is_the_minimum(self):
        calls, res = self.trials(self.M, whitened=True)
        assert np.array_equal(calls[1], self.M)
        assert (res.stops, res.iterations[0], res.evaluations[0]) == (("gtol",), 1, 2)

    def test_unwhitened_first_trial_is_unit_length(self):
        calls, res = self.trials(self.M)
        assert np.linalg.norm(calls[1]) == pytest.approx(1.0, rel=1e-15)
        assert res.evaluations[0] > 2  # it overshoots and backtracks

    def test_whitened_first_trial_is_capped(self):
        # the descent runs on to m, where g = 0: the cap of the zero direction
        # at a point with |x| = 5 overflows, and must do so without a warning
        m = np.array([3.0, -4.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            calls, res = self.trials(m, whitened=True)
        assert np.allclose(calls[1], m / 5.0, rtol=0.0, atol=1e-15)
        assert res.stops == ("gtol",) and np.array_equal(res.x[0], m)


class TestGroupedMinimize:
    """Groups of starts in one minimize call: each group gets the agreement
    cut with its own quorum, so every start ends where a call on its group
    alone leaves it."""

    A = TestMinimizeAgreement
    # group 0: six starts, two of which settle deep and cut the other four;
    # group 1: three starts that run on past that cut; group 2: two starts,
    # which no cut can reach
    X0 = np.array([A.NEAR_DEEP] * 2 + [A.FAR_SHALLOW] * 4
                  + [A.FAR_SHALLOW, A.NEAR_SHALLOW, np.r_[-1.0, np.full(5, 5e-3)]]
                  + [A.NEAR_DEEP, A.FAR_SHALLOW])
    GROUPS = np.array([0] * 6 + [1] * 3 + [2] * 2)

    @classmethod
    def labelled(cls, x, labels):
        # group g minimizes the two-basin function raised by g / 2, so each
        # row has to be evaluated as a row of its own group
        f, g = cls.A.two_basin(x)
        return f + 0.5 * labels, g

    @staticmethod
    def starts(res, order=None):
        """(x, fun, iterations, evaluations, stop) of each start."""
        order = range(len(res.fun)) if order is None else order
        return [(res.x[k], res.fun[k], res.iterations[k], res.evaluations[k], res.stops[k])
                for k in order]

    def alone(self, x0, groups):
        """Each start's outcome from one minimize call on its group alone."""
        out = {}
        for label in np.unique(groups):
            at = np.flatnonzero(groups == label)
            res = la.minimize(lambda x: self.labelled(x, np.full(len(x), label)), x0[at])
            out.update(zip(at, self.starts(res)))
        return [out[k] for k in range(len(x0))]

    @staticmethod
    def assert_same(a, b):
        assert len(a) == len(b)
        for (x1, f1, i1, e1, s1), (x2, f2, i2, e2, s2) in zip(a, b):
            assert np.array_equal(x1, x2) and f1 == f2
            assert (i1, e1, s1) == (i2, e2, s2)

    def test_matches_one_call_per_group(self):
        res = la.minimize(self.labelled, self.X0, groups=self.GROUPS)
        self.assert_same(self.starts(res), self.alone(self.X0, self.GROUPS))
        stops = np.array(res.stops)
        # group 0 is cut while group 1 runs on; group 2 (S = 2) is never cut
        assert set(stops[:2]) == {"ftol"} and set(stops[2:6]) == {"agreed"}
        assert res.evaluations[6:9].max() > res.evaluations[2]
        assert "agreed" not in stops[6:]
        assert res.nfev == res.evaluations.max() and res.nit == res.iterations.max()

    def test_interleaved_and_reversed_starts(self):
        perm = np.random.default_rng(5).permutation(len(self.X0))
        for order in (perm, np.arange(len(self.X0))[::-1]):
            res = la.minimize(self.labelled, self.X0[order], groups=self.GROUPS[order])
            ref = la.minimize(self.labelled, self.X0, groups=self.GROUPS)
            self.assert_same(self.starts(res), self.starts(ref, order))

    def test_one_group_is_the_ungrouped_call(self):
        x0 = self.X0[:6]
        res = la.minimize(lambda x, labels: self.A.two_basin(x), x0, groups=np.full(6, 7))
        assert TestMinimizeAgreement.same(res, la.minimize(self.A.two_basin, x0))

    def test_fun_gets_the_labels_of_its_rows(self):
        seen = []

        def fun(x, labels):
            seen.append(labels)
            return self.labelled(x, labels)

        groups = np.array([3, 1, 3, 1])
        la.minimize(fun, self.X0[[0, 6, 2, 7]], groups=groups)
        assert np.array_equal(seen[0], groups)
        assert all(set(s) <= {1, 3} for s in seen)
