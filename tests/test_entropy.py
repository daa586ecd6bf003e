from collections import Counter

import numpy as np
import pytest

from qbeckner import entropy as ent
from qbeckner import kernels as kn
from qbeckner import linalg as la
from qbeckner import semigroup as sg
from qbeckner.errors import SingularState, ZeroExponent

import oracles
from conftest import SIGMA_STAR, random_pd


class TestWeightedNorm:
    def test_identity_has_unit_norm(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        for p in (0.7, 1.0, 2.0, 5.0, np.inf):
            assert ent.weighted_p_norm(np.eye(3), sigma, p) == pytest.approx(1.0)

    def test_flat_state_is_normalized_schatten(self, rng):
        X = la.random_hermitian(rng, 3)
        p = 1.7
        schatten = np.sum(np.abs(np.linalg.eigvalsh(X)) ** p) ** (1 / p)
        assert ent.weighted_p_norm(X, np.eye(3) / 3, p) == pytest.approx(
            schatten / 3 ** (1 / p), rel=1e-12)

    def test_ordering_in_p(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        X = la.random_hermitian(rng, 3)
        norms = [ent.weighted_p_norm(X, sigma, p) for p in (0.5, 1.0, 1.5, 2.0, 4.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_singular_state_rejected(self, rng):
        with pytest.raises(SingularState):
            ent.weighted_p_norm(np.eye(2), np.diag([1.0, 0.0]).astype(complex), 2.0)

    def test_negative_power_of_singular_state_rejected(self):
        # relative_density reads sigma^(-1/2) off la.full_rank_eigh, which
        # rejects a singular state; la.matrix_power_hermitian rejects its
        # negative powers too
        singular = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(SingularState):
            ent.relative_density(np.eye(2) / 2, singular)
        with pytest.raises(SingularState):
            la.matrix_power_hermitian(singular, -0.5)


class TestPowerOperator:
    def test_fixed_point_on_psd(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        X = random_pd(rng, 3)
        assert la.frob(ent.power_operator(X, sigma, 1.3, 1.3) - X) <= 1e-12

    def test_norm_relation(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        X = la.random_hermitian(rng, 3)
        q, p = 2.1, 1.4
        lhs = ent.weighted_p_norm(ent.power_operator(X, sigma, q, p), sigma, q) ** q
        assert lhs == pytest.approx(ent.weighted_p_norm(X, sigma, p) ** p, rel=1e-10)

    def test_composition(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        X = random_pd(rng, 3)
        two_step = ent.power_operator(ent.power_operator(X, sigma, 1.7, 1.2),
                                      sigma, 2.3, 1.7)
        assert la.frob(two_step - ent.power_operator(X, sigma, 2.3, 1.2)) <= 1e-10

    def test_zero_exponent(self, rng):
        with pytest.raises(ZeroExponent):
            ent.power_operator(np.eye(2), np.eye(2) / 2, 0.0, 1.0)


class TestEntropyFunctional:
    def test_identity_gives_zero(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        assert ent.entropy_functional(np.eye(3), sigma, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_order_one_matches_relative_entropy(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        rho = la.random_density(rng, 3, floor=0.02)
        X = ent.relative_density(rho, sigma)
        assert ent.entropy_functional(X, sigma, 1.0) == pytest.approx(
            ent.umegaki(rho, sigma), abs=1e-12)

    def test_order_two_matches_relative_entropy(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        rho = la.random_density(rng, 3, floor=0.02)
        quarter = la.matrix_power_hermitian(sigma, -0.25)
        Y = quarter @ la.matrix_power_hermitian(rho, 0.5) @ quarter
        assert ent.entropy_functional(Y, sigma, 2.0) == pytest.approx(
            ent.umegaki(rho, sigma), abs=1e-12)

    def test_nonnegative(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        for _ in range(5):
            X = random_pd(rng, 3, shift=0.1)
            assert ent.entropy_functional(X, sigma, 1.4) >= 0.0


class TestRelativeEntropies:
    def test_identical_states_vanish(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        assert ent.umegaki(sigma, sigma) == pytest.approx(0.0, abs=1e-9)
        for kind, p in (("sandwiched", 1.5), ("max", None)):
            assert ent.relative_entropies(sigma, sigma, kind, p) == pytest.approx(0.0, abs=1e-9)

    def test_classical_kl(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        D = ent.umegaki(rho, SIGMA_STAR)
        assert D == pytest.approx(0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25))
        assert D == pytest.approx(0.14384, abs=1e-5)

    def test_pure_state_supremum(self, rng):
        # sup over pure states of D_p is log(1/sigma_min), hit at the
        # eigenprojection of the smallest eigenvalue
        sigma = la.random_density(rng, 3, floor=0.05)
        w, U = la.herm_eigh(sigma)
        p = 1.7
        target = np.log(1.0 / w[0])
        vals = [ent.relative_entropies(np.outer(U[:, k], U[:, k].conj()), sigma,
                                       "sandwiched", p) for k in range(3)]
        assert max(vals) == pytest.approx(target, rel=1e-10)
        for _ in range(5):
            psi = la.random_pure(rng, 3)
            assert ent.relative_entropies(psi, sigma, "sandwiched", p) <= target + 1e-9

    def test_support_violation_raises(self):
        # sigma is not faithful, and rho leaves its support
        rho = np.diag([0.5, 0.5]).astype(complex)
        sigma = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(SingularState):
            ent.umegaki(rho, sigma)
        for kind, p in (("sandwiched", 1.5), ("max", None)):
            with pytest.raises(SingularState):
                ent.relative_entropies(rho, sigma, kind, p)

    def test_max_entropy_dominates(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        rho = la.random_density(rng, 3, floor=0.02)
        dmax = ent.relative_entropies(rho, sigma, "max")
        assert rho[0, 0].real <= np.exp(dmax) * sigma[0, 0].real + 1e-12


class TestPDivergence:
    def test_invariant_state_gives_zero(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        assert ent.p_divergence(sigma, sigma, 1.6) == pytest.approx(0.0, abs=1e-10)
        rho = la.random_density(rng, 3, floor=0.02)
        assert ent.p_divergence(rho, sigma, 1.6) > 1e-6

    def test_hand_value_p2(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert ent.p_divergence(rho, SIGMA_STAR, 2.0) == pytest.approx(1.0 / 6.0)

    def test_limit_to_relative_entropy(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        rho = la.random_density(rng, 3, floor=0.02)
        D = ent.umegaki(rho, sigma)
        # inside the analytic branch
        assert ent.p_divergence(rho, sigma, 1.0 + 1e-6) == pytest.approx(D, abs=1e-5)
        # genuine limit just outside the branch
        assert ent.p_divergence(rho, sigma, 1.001) == pytest.approx(D, rel=2e-3)

    def test_relation_to_sandwiched(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        rho = la.random_density(rng, 3, floor=0.02)
        for p in (0.7, 1.3, 2.0):
            F = ent.p_divergence(rho, sigma, p)
            Dp = ent.relative_entropies(rho, sigma, "sandwiched", p)
            ref = (np.exp((p - 1.0) * Dp) - 1.0) / (p * (p - 1.0))
            assert F == pytest.approx(ref, abs=1e-10)


class TestVariances:
    def test_identity_variance_zero(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        assert oracles.variance(np.eye(3), sigma) == pytest.approx(0.0, abs=1e-12)

    def test_q_one_equals_variance_on_psd(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        Y = random_pd(rng, 3)
        assert ent.q_variance(Y, sigma, 1.0) == pytest.approx(oracles.variance(Y, sigma), rel=1e-10)

    def test_normalized_q_variance_monotone(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        Y = random_pd(rng, 3, shift=0.1)
        qs = [1.0, 1.2, 1.4, 1.6, 1.8]
        vals = [ent.q_variance(Y, sigma, q) / (1.0 / q - 0.5) for q in qs]
        assert all(a <= b * (1 + 1e-10) for a, b in zip(vals, vals[1:]))


class TestChi2:
    def test_identical_states(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        assert ent.chi2_power_difference(sigma, sigma, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_weighted_norm_identity(self, rng):
        # ||X - 1||^2_{sigma, phi_p} = chi^2 with the power-difference kernel
        sigma = la.random_density(rng, 3, floor=0.05)
        rho = la.random_density(rng, 3, floor=0.02)
        X = ent.relative_density(rho, sigma)
        for p in (1.2, 1.7, 2.0):
            lhs = oracles.f_norm_sq(X - np.eye(3), sigma, lambda x: kn.phi_p(p, x))
            rhs = ent.chi2_power_difference(rho, sigma, p)
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)

    def test_phi_kernel_is_weighted_divided_difference(self, rng):
        # the phi_p weighting operator factors through the divided
        # difference of the power function at sigma^(1/p): two independent
        # evaluation routes for the same inner product
        sigma = la.random_density(rng, 3, floor=0.05)
        X = la.random_hermitian(rng, 3)
        Y = la.random_hermitian(rng, 3)
        p = 1.6
        lhs = la.f_inner(X, Y, la.full_rank_eigh(sigma), lambda x: kn.phi_p(p, x))
        root = la.matrix_power_hermitian(sigma, 1.0 / p)
        half = la.matrix_power_hermitian(sigma, 1.0 / (2.0 * p))
        inner = oracles.double_sum_apply(oracles.fp_divdiff_kernel(p), root, root,
                                         half @ Y @ half)
        rhs = la.hs_inner(X, half @ inner @ half)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestSandwichConstants:
    def test_limit_at_c_one(self):
        # Taylor expansion of (c^p - 1 - p(c-1))/(p (c-1)^2 (p-1)) gives 1/2
        # at c -> 1 for every p (and only p = 2 makes that equal 1/p)
        for p in (1.2, 1.5, 2.0):
            assert ent.sandwich_constant(p, 1.0 + 1e-5) == pytest.approx(0.5, abs=1e-4)

    def test_series_matches_direct(self):
        for p in (1.3, 1.9):
            direct = (1.01**p - 1 - p * 0.01) / (p * 0.01**2 * (p - 1))
            assert ent.sandwich_constant(p, 1.01) == pytest.approx(direct, rel=1e-8)

    def test_two_sided_sandwich(self, rng):
        sigma = la.random_density(rng, 3, floor=0.05)
        for _ in range(10):
            rho = la.random_density(rng, 3, floor=0.01)
            p = float(rng.uniform(1.05, 2.0))
            kp = ent.sandwich_constant(p, np.exp(ent.relative_entropies(rho, sigma, "max")))
            chi = ent.chi2_power_difference(rho, sigma, p)
            F = ent.p_divergence(rho, sigma, p)
            assert kp * chi <= F + 1e-9
            assert F <= chi / p + 1e-9


class TestFunctionalProperties:
    def test_data_processing_partial_trace(self, rng):
        for p in (1.3, 2.0):
            rho = la.random_density(rng, 4, floor=0.02)
            sigma = la.random_density(rng, 4, floor=0.02)
            tr2 = lambda M: np.einsum("ikjk->ij", M.reshape(2, 2, 2, 2))
            assert ent.p_divergence(tr2(rho), tr2(sigma), p) \
                <= ent.p_divergence(rho, sigma, p) + 1e-10

    def test_data_processing_semigroup(self, rng, dbc3):
        rho = la.random_density(rng, 3, floor=0.02)
        for p in (1.3, 2.0):
            before = ent.p_divergence(rho, dbc3.sigma, p)
            after = ent.p_divergence(sg.evolve(dbc3, 0.6, "schrodinger", rho),
                                     dbc3.sigma, p)
            assert after <= before + 1e-10

    def test_joint_convexity(self, rng):
        p, t = 1.6, 0.35
        r1, r2 = la.random_density(rng, 3, floor=0.02), la.random_density(rng, 3, floor=0.02)
        s1, s2 = la.random_density(rng, 3, floor=0.05), la.random_density(rng, 3, floor=0.05)
        lhs = ent.p_divergence(t * r1 + (1 - t) * r2, t * s1 + (1 - t) * s2, p)
        rhs = t * ent.p_divergence(r1, s1, p) \
            + (1 - t) * ent.p_divergence(r2, s2, p)
        assert lhs <= rhs + 1e-10

    def test_norm_p_derivative(self, rng):
        # d/dp ||Y||_{p,sigma} against a central finite difference
        sigma = la.random_density(rng, 3, floor=0.05)
        Y = la.random_hermitian(rng, 3)
        p, h = 1.7, 1e-5
        fd = (ent.weighted_p_norm(Y, sigma, p + h)
              - ent.weighted_p_norm(Y, sigma, p - h)) / (2 * h)
        an = (ent.weighted_p_norm(Y, sigma, p) ** (1.0 - p) / p**2
              * ent.entropy_functional(ent.power_operator(Y, sigma, p, p), sigma, p))
        assert an == pytest.approx(fd, rel=1e-6)


def _embed(M, Q):
    """The 2 x 2 matrix M as the top block of a 3 x 3 one, rotated by Q."""
    E = np.zeros((3, 3), dtype=complex)
    E[:2, :2] = M
    return la.herm(Q @ E @ Q.conj().T)


class TestNonFaithfulSigma:
    """A singular sigma whose support holds rho: every divergence reads sigma
    through linalg.full_rank_eigh and raises SingularState, also where rho
    does not leave the support. The zero eigenvalue is rotated, so sigma is
    not diagonal and its kernel lies in no coordinate axis."""

    @pytest.fixture
    def pair(self, rng):
        rho2 = la.random_density(rng, 2, floor=0.02)
        sigma2 = la.random_density(rng, 2, floor=0.05)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        rho3, sigma3 = _embed(rho2, Q), _embed(sigma2, Q)
        assert np.min(np.abs(np.linalg.eigvalsh(sigma3))) < la.FULL_RANK_FLOOR
        return rho3, sigma3

    @pytest.mark.parametrize("value", [
        pytest.param(lambda r, s: ent.p_divergence(r, s, 1.05), id="p_divergence[1.05]"),
        pytest.param(lambda r, s: ent.p_divergence(r, s, 1.5), id="p_divergence[1.5]"),
        pytest.param(lambda r, s: ent.p_divergence(r, s, 2.0), id="p_divergence[2]"),
        pytest.param(ent.umegaki, id="umegaki"),
        pytest.param(lambda r, s: ent.relative_entropies(r, s, "sandwiched", 1.5),
                     id="sandwiched[1.5]"),
        pytest.param(lambda r, s: ent.relative_entropies(r, s, "max"), id="max"),
        pytest.param(lambda r, s: ent.chi2_power_difference(r, s, 1.5), id="chi2[1.5]"),
    ])
    def test_singular_sigma_raises(self, pair, value):
        with pytest.raises(SingularState, match="minimum eigenvalue"):
            value(*pair)


class TestOneDecomposition:
    """Each entropy function decomposes sigma once and reads every power and
    the logarithm of sigma off it: the LAPACK calls of one call on d = 3,
    counted on numpy.linalg. A further eigh is of rho or of a sandwiched
    argument, and each svd gives a weighted norm's singular values."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.mark.parametrize("expected, call", [
        pytest.param({"eigh": 1, "svd": 1}, lambda r, s, X: ent.weighted_p_norm(X, s, 1.5),
                     id="weighted_p_norm"),
        pytest.param({"eigh": 1}, lambda r, s, X: ent.relative_density(r, s),
                     id="relative_density"),
        pytest.param({"eigh": 2}, lambda r, s, X: ent.power_operator(X, s, 1.3, 1.7),
                     id="power_operator"),
        pytest.param({"eigh": 2}, lambda r, s, X: ent.entropy_functional(r, s, 1.5),
                     id="entropy_functional"),
        pytest.param({"eigh": 2}, lambda r, s, X: ent.umegaki(r, s), id="umegaki"),
        pytest.param({"eigh": 1, "svd": 1},
                     lambda r, s, X: ent.relative_entropies(r, s, "sandwiched", 1.5),
                     id="sandwiched"),
        pytest.param({"eigh": 1, "eigvalsh": 1},
                     lambda r, s, X: ent.relative_entropies(r, s, "max"), id="max"),
        pytest.param({"eigh": 1, "svd": 1}, lambda r, s, X: ent.p_divergence(r, s, 1.5),
                     id="p_divergence"),
        pytest.param({"eigh": 1}, lambda r, s, X: ent.chi2_power_difference(r, s, 1.5),
                     id="chi2_power_difference"),
        pytest.param({"eigh": 1, "svd": 2}, lambda r, s, X: ent.q_variance(X, s, 1.5),
                     id="q_variance"),
    ])
    def test_lapack_calls(self, rng, counts, expected, call):
        sigma = la.random_density(rng, 3, floor=0.05)
        rho = la.random_density(rng, 3, floor=0.02)
        X = la.random_hermitian(rng, 3)
        counts.clear()
        call(rho, sigma, X)
        assert dict(counts) == expected
