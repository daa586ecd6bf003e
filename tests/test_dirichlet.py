import numpy as np
import pytest

from qbeckner import config as cf
from qbeckner import dirichlet as dh
from qbeckner import entropy as ent
from qbeckner import linalg as la
from qbeckner import semigroup as sg
from qbeckner.errors import NoJumps, NotPsd, NotSymmetric

import oracles
from conftest import SIGMA_STAR, random_pd


class TestDirichletForm:
    def test_constants_are_in_the_kernel(self, dbc3):
        for p in (1.0, 1.5, 2.0):
            assert dh.dirichlet_form(dbc3, 2.5 * np.eye(3), p) == pytest.approx(0.0, abs=1e-10)

    def test_p2_is_kms_quadratic_form(self, rng, dbc3):
        X = random_pd(rng, 3)
        direct = -np.real(oracles.kms_inner(X, dbc3.apply(X), dbc3.sigma))
        assert dh.dirichlet_form(dbc3, X, 2.0) == pytest.approx(direct, rel=1e-10)

    def test_depolarizing_hand_value(self, depol2):
        X = np.diag([2.0 / 3.0, 2.0]).astype(complex)  # Gamma^{-1} of diag(1/2,1/2)
        assert dh.dirichlet_form(depol2, X, 2.0) == pytest.approx(1.0 / 3.0)

    def test_psd_required(self, dbc3):
        with pytest.raises(NotPsd):
            dh.dirichlet_form(dbc3, np.diag([1.0, -1.0, 0.0]).astype(complex), 1.5)


class TestRepresentation:
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
    def test_two_routes_agree(self, rng, dbc3, p):
        X = random_pd(rng, 3)
        assert dh.representation_check(dbc3, X, p) <= 1e-8

    def test_identity_gives_zero_both_ways(self, dbc3):
        assert dh.dirichlet_form(dbc3, np.eye(3), 1.5) == pytest.approx(0.0, abs=1e-12)
        assert dh.dirichlet_form_representation(dbc3, np.eye(3), 1.5) \
            == pytest.approx(0.0, abs=1e-12)

    def test_flat_p2_reduces_to_gradient_norms(self, rng, depol_pauli):
        X = random_pd(rng, 2)
        total = sum(np.real(oracles.kms_inner(V @ X - X @ V, V @ X - X @ V,
                                              depol_pauli.sigma))
                    for V, _ in depol_pauli.jumps)
        assert dh.dirichlet_form(depol_pauli, X, 2.0) == pytest.approx(total, rel=1e-10)

    def test_no_jumps(self, rng):
        L = sg.random_dbc(SIGMA_STAR, 0, 0, seed=1)
        with pytest.raises(NoJumps):
            dh.dirichlet_form_representation(L, np.eye(2), 1.5)

    @pytest.mark.parametrize("model", ["depol3", "random_dbc_seeded", "classical_embed",
                                       "flat_random_dbc"])
    def test_frame_matches_per_jump_double_sums(self, model):
        # the frame contracts over the folded jumps in one eigendecomposition;
        # the oracle takes two per jump of L.jumps, unfolded. classical_embed
        # (sigma = I/2) and the flat model (sigma = I/3) have tied sigma
        # spectra; the last X is 1e-6 from singular. Either route finds the smallest eigenvalue of
        # its sigma-conjugate of X only to about eps cond(X) relative, and at
        # p = 1.05 the kernel's weight on it, of power a - 1 = -0.95, carries
        # that error: both routes read 4e-13 to 6e-12 off a 50-digit value of
        # the form at that X, so the bound adds eps cond(X) to 1e-12
        L = (sg.random_dbc(np.eye(3) / 3, 3, 1, seed=0) if model == "flat_random_dbc"
             else cf.build_generator(cf.fixtures(model)))
        rng = np.random.default_rng(7)
        Xs = [random_pd(rng, L.d) for _ in range(4)]
        w, V = la.herm_eigh(random_pd(rng, L.d))
        Xs.append((V * np.r_[1e-6 * w[-1], w[1:]]) @ V.conj().T)
        for p in (1.05, 1.5, 2.0):
            for X in Xs:
                lam = np.linalg.eigvalsh(X)
                rtol = 1e-12 + np.finfo(float).eps * lam[-1] / lam[0]
                ref = oracles.dirichlet_form_per_jump(L, X, p)
                got = dh.dirichlet_form_representation(L, X, p)
                assert abs(got - ref) <= rtol * ref, (p, got, ref)

    def test_p_outside_the_metric_range(self, rng, dbc3):
        with pytest.raises(ValueError):
            dh.dirichlet_form_representation(dbc3, random_pd(rng, 3), 2.5)


class TestEntropyProduction:
    def test_stationary_state(self, dbc3):
        assert oracles.entropy_production(dbc3, dbc3.sigma, 1.5) == pytest.approx(0.0, abs=1e-10)

    def test_finite_difference_match(self, rng, dbc3):
        # second-order one-sided difference of t -> F_p(rho_t) at t = 0
        rho = la.random_density(rng, 3, floor=0.05)
        p, h = 1.5, 1e-5
        ep = oracles.entropy_production(dbc3, rho, p)
        F = lambda t: ent.p_divergence(sg.evolve(dbc3, t, "schrodinger", rho),
                                       dbc3.sigma, p)
        fd = -(4.0 * F(h) - 3.0 * F(0.0) - F(2 * h)) / (2.0 * h)
        assert ep == pytest.approx(fd, rel=1e-5)

    def test_flat_depolarizing_p2(self, rng, depol_flat):
        # at p = 2 the production is the variance of the relative density:
        # (4/p^2) E_2(X) = ||X||_2^2 - 1 (cross-checked by the finite
        # difference of F_2 along the flow in the test above)
        rho = la.random_density(rng, 2, floor=0.05)
        X = ent.relative_density(rho, depol_flat.sigma)
        expected = ent.weighted_p_norm(X, depol_flat.sigma, 2.0) ** 2 - 1.0
        assert oracles.entropy_production(depol_flat, rho, 2.0) == pytest.approx(expected, rel=1e-9)
        h = 1e-5
        F = lambda t: ent.p_divergence(sg.evolve(depol_flat, t, "schrodinger", rho),
                                       depol_flat.sigma, 2.0)
        fd = -(4.0 * F(h) - 3.0 * F(0.0) - F(2 * h)) / (2.0 * h)
        assert expected == pytest.approx(fd, rel=1e-6)


class TestCarreDuChamp:
    def test_identity_vanishes(self, depol_flat):
        assert la.frob(dh.carre_du_champ(depol_flat, np.eye(2))) <= 1e-12

    def test_relation_to_dirichlet_form(self, rng, depol_flat):
        X = la.random_hermitian(rng, 2)
        Y = la.random_hermitian(rng, 2)
        G = dh.carre_du_champ(depol_flat, X, Y)
        lhs = -oracles.s_inner(X, depol_flat.apply(Y), depol_flat.sigma, 0.5)
        rhs = np.trace(np.eye(2) / 2 @ G)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_bakry_emery_margin_depolarizing(self, rng, depol_flat):
        # Gamma_2 - (gamma/2) Gamma is PSD for the flat depolarizing model;
        # direct eigenvalue scan over random directions
        for _ in range(8):
            X = la.random_hermitian(rng, 2)
            G1 = dh.carre_du_champ(depol_flat, X)
            G2 = oracles.carre_du_champ_2(depol_flat, X)
            margin = np.min(np.linalg.eigvalsh(la.herm(G2 - 0.5 * G1)))
            assert margin >= -1e-8

    def test_not_symmetric_rejected(self, depol2):
        with pytest.raises(NotSymmetric):
            dh.carre_du_champ(depol2, np.eye(2))


class TestComparisonInequalities:
    def test_stroock_varopoulos(self, rng, dbc3):
        X = random_pd(rng, 3)
        grid = [(0.5, 1.0), (0.5, 1.5), (0.8, 2.0), (1.2, 1.8), (1.5, 2.0)]
        for (p, q) in grid:
            Xp = ent.power_operator(X, dbc3.sigma, p, 2.0)
            Xq = ent.power_operator(X, dbc3.sigma, q, 2.0)
            Ep = dh.dirichlet_form(dbc3, Xp, p)
            Eq = dh.dirichlet_form(dbc3, Xq, q)
            assert Ep >= Eq - 1e-9

    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
    def test_lp_regularity(self, rng, dbc3, p):
        X = random_pd(rng, 3)
        E2 = dh.dirichlet_form(dbc3, ent.power_operator(X, dbc3.sigma, 2.0, p), 2.0)
        Ep = dh.dirichlet_form(dbc3, X, p)
        assert E2 <= Ep + 1e-9
        assert Ep <= p * p / (4.0 * (p - 1.0)) * E2 + 1e-9

    def test_nonnegativity_on_psd_cone(self, rng, dbc3):
        for _ in range(6):
            X = oracles.psd_project(random_pd(rng, 3, shift=0.0), floor=np.inf)
            for p in (1.0, 1.4, 2.0):
                assert dh.dirichlet_form(dbc3, X, p) >= 0.0
