import copy
import dataclasses

import numpy as np
import pytest

from qbeckner import config as cf
from qbeckner import kernels as kn
from qbeckner import linalg as la
from qbeckner import semigroup as sg
from qbeckner import transport as tp
from qbeckner import verify as vf
from qbeckner.errors import (
    NotDbc,
    NotModularEigenvector,
    NotPrimitive,
    ResidualTooLarge,
    SingularState,
)

import oracles
from conftest import SIGMA_STAR


class TestBuildFromJumps:
    def test_pauli_jumps_give_depolarizing(self, depol_pauli, depol_flat):
        # sum_k s_k X s_k = 2 tr(X) I - X collapses the Pauli jumps onto the
        # depolarizing generator with unit rate
        assert la.frob(depol_pauli.generator - depol_flat.generator) <= 1e-12

    def test_single_jump_frequency(self):
        V = np.zeros((2, 2), dtype=complex)
        V[0, 1] = 1.0
        jump = sg.JumpTerm(V, float(np.log(0.25 / 0.75)))  # omega = -log 3
        sg.validate_jump(la.herm_eigh(SIGMA_STAR), jump)
        with pytest.raises(NotModularEigenvector):
            sg.validate_jump(la.herm_eigh(SIGMA_STAR), sg.JumpTerm(V, 0.0))

    def test_nan_frequency_rejected(self):
        # every comparison with NaN is false, so the checks must fail it
        V = np.zeros((2, 2), dtype=complex)
        V[0, 1] = 1.0
        with pytest.raises(NotModularEigenvector):
            sg.build_from_jumps(SIGMA_STAR, [sg.JumpTerm(V, float("nan"))])

    def test_traceful_jump_rejected(self):
        with pytest.raises(NotModularEigenvector):
            sg.validate_jump(la.herm_eigh(np.eye(2) / 2), sg.JumpTerm(np.eye(2, dtype=complex), 0.0))

    def test_empty_jump_list(self):
        L = sg.build_from_jumps(SIGMA_STAR, [])
        assert la.frob(L.generator) == 0.0

    def test_pairing_auto_completed(self):
        V = np.zeros((2, 2), dtype=complex)
        V[0, 1] = 1.0
        L = sg.build_from_jumps(SIGMA_STAR, [sg.JumpTerm(V, -np.log(3.0))])
        assert len(L.jumps) == 2
        sg.validate_dbc(L)

    @pytest.mark.parametrize("delta,builds", [(1e-5, False), (1e-6, True), (0.0, True)])
    def test_off_frequency_jump_checked_at_build(self, delta, builds):
        # at sigma_min ~ 6e-6 an omega off by 1e-5 passes validate_jump and the
        # GNS and modular checks, but leaves the KMS-symmetrized generator
        # 3e-8 away from Hermitian; it is rejected before any spectral read
        s1 = 1.0 / (1.0 + np.exp(-12.0))
        sigma = np.diag([1.0 - s1, s1]).astype(complex)
        V = np.zeros((2, 2), dtype=complex)
        V[0, 1] = 1.0
        jump = sg.JumpTerm(V, float(np.log(s1 / (1.0 - s1))) + delta)
        sg.validate_jump(la.herm_eigh(sigma), jump)
        if not builds:
            with pytest.raises(NotDbc):
                sg.build_from_jumps(sigma, [jump])
            return
        L = sg.build_from_jumps(sigma, [jump])
        assert L.primitivity.symmetrization_residual <= 1e-8
        assert L.primitivity.kernel_dimension == 1
        sg.evolve(L, 0.5, "heisenberg", np.eye(2))
        assert la.frob(L.gap_eigenvector) == pytest.approx(1.0)


def _rotated_sigma(smin: float) -> np.ndarray:
    """sigma with eigenvalues (smin, 1/2, 1/2 - smin) in a seeded random basis."""
    rng = np.random.default_rng(11)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return la.herm((U * np.array([smin, 0.5, 0.5 - smin])) @ U.conj().T)


class TestRotatedSmallSigma:
    """A sigma with a tiny eigenvalue in a non-diagonal basis: the modular
    eigenvector condition is checked in sigma's eigenbasis, so the round-off
    of the change of basis is not amplified by cond(sigma)."""

    @pytest.mark.parametrize("smin", [1e-8, 1e-10])
    @pytest.mark.parametrize("kind", ["random_dbc", "depolarizing"])
    def test_builds(self, smin, kind):
        sigma = _rotated_sigma(smin)
        L = (sg.random_dbc(sigma, 3, 1, seed=3) if kind == "random_dbc"
             else sg.depolarizing(sigma, 1.0))
        rebuilt = sg.generator_from_jumps(L.jumps, 3)
        assert la.frob(rebuilt - L.generator) <= 1e-8 * la.frob(L.generator)
        assert la.frob(L.apply_dual(sigma)) <= 1e-10 * la.frob(L.generator)

    @pytest.mark.parametrize("smin", [1e-8, 1e-10])
    def test_jump_off_the_condition_rejected(self, smin):
        # each exact jump passes; moved by 1e-6 of its norm along a random
        # trace-free direction it is rejected at the unchanged tolerance
        sigma = _rotated_sigma(smin)
        eig = la.herm_eigh(sigma)
        rng = np.random.default_rng(2)
        for V, omega in sg.random_dbc(sigma, 3, 1, seed=3).jumps:
            sg.validate_jump(eig, sg.JumpTerm(V, omega))
            X = la.traceless_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            W = V + 1e-6 * la.frob(V) * X / la.frob(X)
            with pytest.raises(NotModularEigenvector):
                sg.validate_jump(eig, sg.JumpTerm(W, omega))


class TestDepolarizing:
    def test_unitality_and_invariance(self, depol2):
        assert la.frob(depol2.apply(np.eye(2))) <= 1e-12
        assert la.frob(depol2.apply_dual(SIGMA_STAR)) <= 1e-12

    def test_hand_value(self, depol2):
        X = np.diag([1.0, -1.0]).astype(complex)
        out = depol2.apply(X)  # tr(sigma* X) I - X = diag(-1/2, 3/2)
        assert np.allclose(np.diag(out).real, [-0.5, 1.5], atol=1e-12)

    def test_jump_synthesis_reconstructs(self, depol2):
        rebuilt = sg.generator_from_jumps(depol2.jumps, 2)
        resid = la.frob(rebuilt - depol2.generator) / la.frob(depol2.generator)
        assert resid <= 1e-8

    def test_builds_and_checks_its_generator_once(self, monkeypatch):
        # alicki_decompose checks detailed balance and rebuilds the generator
        # from the jumps; the build adds a check of each jump and nothing else
        counts = dict.fromkeys(["generator_from_jumps", "validate_dbc", "validate_jump"], 0)
        for name in counts:
            def counted(*args, _real=getattr(sg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(sg, name, counted)
        L = cf.build_generator(cf.fixtures("depol3"))
        assert counts == {"generator_from_jumps": 1, "validate_dbc": 1,
                          "validate_jump": len(L.jumps)}

    def test_singular_state_rejected(self):
        with pytest.raises(SingularState):
            sg.depolarizing(np.diag([1.0, 0.0]).astype(complex), 1.0)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError):
            sg.depolarizing(SIGMA_STAR, float("nan"))

    @pytest.mark.parametrize("eigs", [[0.4, 0.4 - delta, 0.2 + delta]
                                      for delta in (1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 0.0)]
                             + [[0.5, 0.5 - 1e-8, 1e-8]])
    def test_near_degenerate_sigma(self, eigs):
        # frequencies of nearly equal levels are merged only as far as the
        # jumps' modular eigenvector check allows
        L = sg.depolarizing(np.diag(eigs).astype(complex), 1.0)
        assert L.primitivity.kernel_dimension == 1

    @pytest.mark.parametrize("d, gamma", [(2, 1.0), (3, 0.3), (4, 2.5)])
    def test_flat_rate_is_gamma(self, d, gamma):
        assert sg.depolarizing(np.eye(d) / d, gamma).flat_depolarizing_rate == gamma

    def test_flat_rate_needs_the_flat_depolarizing_model(self, depol2, dbc3):
        assert depol2.flat_depolarizing_rate is None  # tilted sigma
        assert dbc3.flat_depolarizing_rate is None
        assert sg.random_dbc(np.eye(3) / 3, 3, 1, seed=0).flat_depolarizing_rate is None
        assert sg.depolarizing(np.eye(1), 1.0).flat_depolarizing_rate is None  # d = 1


class TestRandomDbc:
    def test_connected_is_primitive(self, rng):
        for d in (2, 3, 4):
            sigma = la.random_density(rng, d, floor=0.05)
            L = sg.random_dbc(sigma, d - 1, 1, seed=9)
            assert L.primitivity.kernel_dimension == 1

    def test_deterministic(self):
        La = sg.random_dbc(SIGMA_STAR, 3, 2, seed=5)
        Lb = sg.random_dbc(SIGMA_STAR, 3, 2, seed=5)
        assert la.frob(La.generator - Lb.generator) == 0.0

    def test_empty_is_zero(self):
        L = sg.random_dbc(SIGMA_STAR, 0, 0, seed=1)
        assert la.frob(L.generator) == 0.0
        assert L.primitivity.kernel_dimension == 4


# the two models with no jumps: B(H) is scalar at d = 1, and random_dbc may
# draw none
DEGENERATE = {
    "d1_depolarizing": dict(dimension=1, sigma={"eigenvalues": [1.0]},
                            generator={"kind": "depolarizing", "gamma": 1.0}),
    "zero_jump_dbc": dict(dimension=3, sigma={"eigenvalues": [0.5, 0.3, 0.2]},
                          generator={"kind": "random_dbc", "pairs": 0, "diag": 0, "seed": 0}),
}


def _sigma_eighs(monkeypatch, sigma):
    """A list that grows by one entry at each np.linalg.eigh of sigma."""
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        if np.shape(a) == sigma.shape and np.allclose(a, sigma, rtol=0.0, atol=1e-15):
            calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestOneDecomposition:
    """Every builder decomposes sigma once, and the generator keeps that
    decomposition: nothing that reads a built generator decomposes sigma."""

    @pytest.mark.parametrize("name", list(cf.FIXTURES) + list(DEGENERATE))
    def test_one_eigh_of_sigma_per_build(self, monkeypatch, name):
        cfg = cf.config_from_dict(copy.deepcopy(dict(cf.FIXTURES, **DEGENERATE)[name]))
        calls = _sigma_eighs(monkeypatch, la.herm(cf.build_sigma(cfg)))
        cf.build_generator(cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", list(cf.FIXTURES))
    def test_one_eigh_of_sigma_per_semigroup_check(self, monkeypatch, name):
        # the one is decomposition-independence's rebuild of the model from
        # the jumps alicki_decompose extracts
        L = cf.build_generator(cf.fixtures(name))
        calls = _sigma_eighs(monkeypatch, L.sigma)
        vf.check_semigroup(L, np.random.default_rng(0))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", list(DEGENERATE))
    def test_no_jumps_give_the_zero_generator(self, name):
        L = cf.build_generator(cf.config_from_dict(copy.deepcopy(DEGENERATE[name])))
        assert L.jumps == ()
        assert not np.any(L.generator)


class TestAlickiDecompose:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip(self, rng, d):
        sigma = la.random_density(rng, d, floor=0.05)
        L = sg.random_dbc(sigma, d, 1, seed=17)
        jumps = sg.alicki_decompose(L)
        rebuilt = sg.build_from_jumps(sigma, jumps)
        resid = la.frob(rebuilt.generator - L.generator) / la.frob(L.generator)
        assert resid <= 1e-8

    def test_depolarizing_reconstruction(self, depol_flat):
        jumps = sg.alicki_decompose(depol_flat)
        rebuilt = sg.generator_from_jumps(jumps, 2)
        assert la.frob(rebuilt - depol_flat.generator) <= 1e-8

    def test_hamiltonian_part_rejected(self, rng, dbc3):
        H = la.random_hermitian(rng, 3)
        contaminated = dbc3.generator + 1j * (la.left_super(H) - la.right_super(H))
        with pytest.raises((NotDbc, ResidualTooLarge)):
            sg.alicki_decompose(dataclasses.replace(dbc3, generator=contaminated))


class TestDerivation:
    """The jump derivations dj X = [V_j, X] of the folded jumps
    (DbcLindbladian.jump_stack), their divergence (the spectral frame's grad
    and div) and their KMS adjoints. On Hermitian X and Y a folded jump
    sqrt(2) V carries the real part of both jumps of its adjoint pair, so the
    real, or Hermitian, part of each sum is that over the jumps."""

    def test_identity_in_kernel(self, dbc3):
        for g in tp._Frame(dbc3, dbc3.sigma, 2.0).grad(np.eye(3)):
            assert la.frob(g) <= 1e-14

    def test_integration_by_parts(self, rng, dbc3):
        X = la.random_hermitian(rng, 3)
        Y = la.random_hermitian(rng, 3)
        fr = tp._Frame(dbc3, dbc3.sigma, 2.0)
        lhs = -oracles.kms_inner(Y, dbc3.apply(X), dbc3.sigma)
        rhs = sum(oracles.kms_inner(dY, dX, dbc3.sigma)
                  for dY, dX in zip(fr.grad(Y), fr.grad(X)))
        assert abs(lhs - rhs.real) <= 1e-9 * max(abs(lhs), 1.0)

    def test_generator_representation(self, rng, dbc3):
        X = la.random_hermitian(rng, 3)
        grad = tp._Frame(dbc3, dbc3.sigma, 2.0).grad(X)
        acc = np.zeros((3, 3), dtype=complex)
        for dX, V, omega in zip(grad, *dbc3.jump_stack):
            acc -= oracles.kms_adjoint_derivation(V, omega, dX)
        acc = la.herm(acc)
        assert la.frob(acc - dbc3.apply(X)) <= 1e-10 * max(la.frob(acc), 1.0)

    def test_gradient_and_divergence(self, rng, dbc3):
        X = la.random_hermitian(rng, 3)
        fr = tp._Frame(dbc3, dbc3.sigma, 2.0)
        grad = fr.grad(X)
        assert len(grad) == len(dbc3.jump_stack[0])
        div = fr.div(grad)
        assert abs(np.trace(div)) <= 1e-12


class TestEvolve:
    def test_time_zero_is_identity(self, rng, dbc3):
        X = la.random_hermitian(rng, 3)
        assert la.frob(sg.evolve(dbc3, 0.0, "heisenberg", X) - X) <= 1e-12

    def test_depolarizing_closed_form(self, rng, depol2):
        rho = la.random_density(rng, 2)
        for t in (0.3, 1.7):
            out = sg.evolve(depol2, t, "schrodinger", rho)
            ref = np.exp(-t) * rho + (1 - np.exp(-t)) * SIGMA_STAR
            assert la.frob(out - ref) <= 1e-12

    def test_long_time_limit(self, rng, dbc3):
        X = la.random_hermitian(rng, 3)
        t = 40.0 / dbc3.primitivity.spectral_gap
        out = sg.evolve(dbc3, t, "heisenberg", X)
        target = np.trace(dbc3.sigma @ X).real * np.eye(3)
        assert la.frob(out - target) <= 1e-6

    def test_schrodinger_preserves_state(self, rng, dbc3):
        rho = la.random_density(rng, 3)
        out = sg.evolve(dbc3, 0.8, "schrodinger", rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(la.herm(out))) >= -1e-8

    def test_negative_time_rejected(self, dbc3):
        with pytest.raises(ValueError):
            sg.evolve(dbc3, -0.1, "heisenberg", np.eye(3))


class TestPrimitivity:
    def test_depolarizing_gap(self):
        for gamma in (0.5, 2.0):
            L = sg.depolarizing(SIGMA_STAR, gamma)
            rep = L.primitivity
            assert rep.kernel_dimension == 1
            assert rep.spectral_gap == pytest.approx(gamma, abs=1e-10)

    def test_zero_generator(self):
        L = sg.random_dbc(SIGMA_STAR, 0, 0, seed=1)
        assert L.primitivity.kernel_dimension == 4
        assert L.primitivity.spectral_gap == 0.0

    def test_scalar_model_has_no_gap(self):
        # the kernel of the d = 1 generator is all of B(H), one-dimensional
        L = sg.depolarizing(np.eye(1), 1.0)
        assert (L.primitivity.kernel_dimension, L.primitivity.spectral_gap) == (1, 0.0)
        with pytest.raises(NotPrimitive, match="spectral gap 0.000e"):
            L.require_primitive()

    def test_realness(self, dbc3):
        assert dbc3.primitivity.symmetrization_residual <= 1e-9

    def test_not_symmetrizable_raises(self, rng, dbc3):
        # a coherent term i[H, .] with [H, sigma] != 0 breaks detailed balance
        H = la.random_hermitian(rng, 3)
        assert la.frob(H @ dbc3.sigma - dbc3.sigma @ H) > 1e-3
        gen = dbc3.generator + 1j * (la.left_super(H) - la.right_super(H))
        L = sg.DbcLindbladian(sigma=dbc3.sigma, sigma_eig=dbc3.sigma_eig, jumps=dbc3.jumps,
                               generator=gen)
        with pytest.raises(NotDbc):
            sg.evolve(L, 0.5, "heisenberg", np.eye(3))
        with pytest.raises(NotDbc):
            L.primitivity
        with pytest.raises(NotDbc):
            L.gap_eigenvector


class TestDbcInvariants:
    @pytest.mark.parametrize("kernel", [lambda r: r ** 0.5, lambda r: r ** 1.0,
                                        lambda r: kn.phi_p(1.5, r)])
    def test_weighted_self_adjointness(self, rng, dbc3, kernel):
        X = la.random_hermitian(rng, 3)
        Y = la.random_hermitian(rng, 3)
        lhs = la.f_inner(dbc3.apply(X), Y, dbc3.sigma_eig, kernel)
        rhs = la.f_inner(X, dbc3.apply(Y), dbc3.sigma_eig, kernel)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("s", [0.3, 0.7])
    def test_jump_weighted_identity(self, rng, dbc3, s):
        # -<Y, L X>_{sigma,f} as a sum of tilted double-sum forms over jumps
        X = la.random_hermitian(rng, 3)
        Y = la.random_hermitian(rng, 3)
        lhs = -la.f_inner(Y, dbc3.apply(X), dbc3.sigma_eig, lambda r: r ** s)
        rhs = 0.0
        for (V, omega) in dbc3.jumps:
            a, b = np.exp(omega / 2.0), np.exp(-omega / 2.0)
            k2 = oracles.Kernel2("tilted",
                                 f=lambda x, y, a=a, b=b: (a * x / (b * y)) ** s * b * y)
            dX = V @ X - X @ V
            dY = V @ Y - Y @ V
            rhs += la.hs_inner(dY, oracles.double_sum_apply(k2, dbc3.sigma, dbc3.sigma, dX))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_choi_complete_positivity(self, dbc3, t):
        C = la.choi_matrix(dbc3.schrodinger_propagator(t))
        assert np.min(np.linalg.eigvalsh(la.herm(C))) >= -1e-8

    def test_gns_self_adjointness_from_jumps(self, rng):
        # build the generator from jumps and test the defining property
        sigma = la.random_density(rng, 3, floor=0.05)
        L = sg.random_dbc(sigma, 3, 1, seed=23)
        X = la.random_hermitian(rng, 3)
        Y = la.random_hermitian(rng, 3)
        lhs = oracles.gns_inner(L.apply(X), Y, sigma)
        rhs = oracles.gns_inner(X, L.apply(Y), sigma)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_modular_commutation(self, dbc3):
        Delta = la.sandwich_super(dbc3.sigma, dbc3.sigma_power(-1.0))
        comm = la.frob(dbc3.generator @ Delta - Delta @ dbc3.generator)
        assert comm <= 1e-9 * la.frob(dbc3.generator) * la.frob(Delta)

    def test_decomposition_independence(self, rng, dbc3):
        # downstream scalar quantities agree between the construction jumps
        # and a re-extracted jump set
        from qbeckner import dirichlet as dh
        from qbeckner import transport as tp
        from conftest import random_pd
        jumps2 = sg.alicki_decompose(dbc3)
        L2 = sg.build_from_jumps(dbc3.sigma, jumps2)
        X = random_pd(rng, 3)
        rho = la.random_density(rng, 3, floor=0.05)
        nu = la.traceless_part(la.random_hermitian(rng, 3))
        pairs = [
            (dh.dirichlet_form_representation(dbc3, X, 1.5),
             dh.dirichlet_form_representation(L2, X, 1.5)),
            (tp.gradient_norm_sq(dbc3, rho, 1.5, nu),
             tp.gradient_norm_sq(L2, rho, 1.5, nu)),
            (oracles.onsager_tensor(dbc3, rho, 1.5, nu, nu),
             oracles.onsager_tensor(L2, rho, 1.5, nu, nu)),
        ]
        for a, b in pairs:
            assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)
