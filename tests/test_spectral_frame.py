"""The spectral frame's fast paths against the direct formulas they replace.

_Frame.state_derivative contracts the Daleckii-Krein tensors of theta_p with
matrix products, the near-ties of lam included (there each quotient is the
mean of the partials at the pair's two ends); _basis_gram reads the basis
gradients from a per-generator cache, maps all of them to each state's
eigenframe with two batched products and takes the real Gram matrix from the
float views; hessian_matrix contracts its first term as a commutator with the
reciprocal gaps, in real arithmetic. The oracles below evaluate the kernel on
two grids and its partial derivative at the midpoint on the whole d^3 grid,
transform the gradients matrix by matrix, and contract with two broadcast
einsums. oracles.dk_tensors, the tensors by one broadcast difference of the
frame's grid, and linalg.partial_dd_tensor, which no library code calls, are
checked against the same oracle.
"""

import numpy as np
import pytest

from qbeckner import linalg as la
from qbeckner import ricci as rc
from qbeckner import semigroup as sg
from qbeckner import transport as tp
from qbeckner.kernels import SAME_TOL, _is_same

import oracles

TOL = 1e-14
P_GRID = [1.05, 1.5, 2.0]


def _partial_dd_full(kernel, which, wA, wB):
    """Both kernel grids and the derivative rule on every entry, selected by
    the coincidence mask; kernel(x, y) returns the kernel and its partials in
    x and in y."""
    x = wA[..., :, None, None]
    if which == 1:
        y = wB[..., None, None, :]
        u, v = x, wA[..., None, :, None]
        fu, fv = kernel(u, y)[0], kernel(v, y)[0]
    else:
        u, v = wB[..., None, :, None], wB[..., None, None, :]
        fu, fv = kernel(x, u)[0], kernel(x, v)[0]
    same = _is_same(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = (fu - fv) / np.where(same, 1.0, u - v)
    mid = 0.5 * (u + v)
    deg = kernel(mid, y)[1] if which == 1 else kernel(x, mid)[2]
    return np.where(same, deg, far)


def _partial(k2, which, wA, wB, F=None):
    """partial_dd_tensor for the first partial; for the second, the first
    partial on (wB, wA, F^T) with its last axis moved first."""
    if which == 1:
        return la.partial_dd_tensor(k2.f, k2.dx, wA, wB, F)
    Ft = None if F is None else np.swapaxes(F, -1, -2)
    return np.moveaxis(la.partial_dd_tensor(k2.f, k2.dx, wB, wA, Ft), -1, -3)


def _dk_tensors_full(L, fr):
    """The full oracle tensors of theta_p(e^t x, e^-t y) in (x, y) on the
    frame's lam, with t = w_j/2p of each jump of L: its partials in x and y
    carry the tilt weights e^(+-t) of the frame's partials."""
    t = (L.jump_stack[1] / (2.0 * fr.p))[:, None, None, None]
    lam = np.broadcast_to(fr.lam[..., None, :], fr.theta.shape[:-1])
    kernel = lambda x, y: oracles.theta_p_xy(fr.p, x, y, t)  # noqa: E731
    return _partial_dd_full(kernel, 1, lam, lam), _partial_dd_full(kernel, 2, lam, lam)


def _gradients_direct(fr, d):
    """V† P [V_j, U_m] P V matrix by matrix, (S, n, J, d, d)."""
    return fr.eig(fr.grad(tp._basis_frame(d)[0]), fr.P)


def _hessian_direct(L, states, p):
    """hessian_matrix with the direct gradients and the two-einsum first term."""
    d = L.d
    S = len(states)
    fr = tp._Frame(L, states[:, None], p)
    C = _gradients_direct(fr, d)
    n = C.shape[1]
    G = C.reshape(S, n, -1).conj() @ np.swapaxes((fr.theta * C).reshape(S, n, -1), -1, -2)
    vecs = np.swapaxes(states, -1, -2).reshape(S, d * d)
    Lrho = np.swapaxes((vecs @ L.dual_generator.T).reshape(S, d, d), -1, -2)
    A = la.dagger(fr.V) @ fr.Q @ Lrho[:, None] @ fr.Q @ fr.V
    W1, W2 = _dk_tensors_full(L, fr)
    Z = (np.einsum("...jabc,...jbc->...jac", W1 * A[..., None, :, :, None], C)
         + np.einsum("...jabc,...jab->...jac", W2 * A[..., None, None, :, :], C))
    first = 0.5 * C.reshape(S, n, -1).conj() @ np.swapaxes(Z.reshape(S, n, -1), -1, -2)
    Phi = tp._basis_frame(d)[1]
    H = first - (Phi.conj().T @ L.dual_generator @ Phi) @ G
    return np.real(la.herm(H)), np.real(la.herm(G))


def _near_coincident_state(L, p, rng):
    """A state whose Y = sigma^-s rho sigma^-s has two eigenvalues 3e-10 apart
    in relative terms, inside SAME_TOL but not equal."""
    d = L.d
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    W, _ = np.linalg.qr(Z)
    lam = np.linspace(1.0, 2.0, d)
    lam[1] = lam[0] * (1.0 + 3e-10)
    P = L.sigma_power((p - 1.0) / (2.0 * p))
    rho = la.herm(P @ (W * lam) @ W.conj().T @ P)
    return rho / np.trace(rho).real


def _contract(W1, W2, C):
    """The state derivative as the two broadcast einsums over the tensors."""
    Cc = C.conj()
    return (np.einsum("...jabc,...jbc,...jac->...ab", W1, C, Cc)
            + np.einsum("...jabc,...jab,...jac->...bc", W2, C, Cc))


def _assert_tensors_match(L, fr):
    """oracles.dk_tensors equal the full oracle tensors to TOL relative to
    the largest entry. At p = 2, theta_2 = 1 and both are round-off of 0:
    each entry is then held to TOL times the scale max theta /
    |lam_a - lam_b| of the quotient terms. Returns the oracle tensors."""
    refs = _dk_tensors_full(L, fr)
    scale = np.max(fr.theta) * np.max(np.abs(fr.gaps[1]))
    for W, ref in zip(oracles.dk_tensors(fr), refs):
        if fr.p != 2.0:
            assert _close(W, ref)
        else:
            assert max(np.max(np.abs(W)), np.max(np.abs(ref))) <= TOL * scale
    return refs


def _assert_match_full(L, fr, rng):
    """oracles.dk_tensors, and the state derivative contracted by matrix
    products, equal the oracle tensors and their einsum contraction to TOL."""
    R1, R2 = _assert_tensors_match(L, fr)
    C = rng.standard_normal(R1.shape[:-1]) + 1j * rng.standard_normal(R1.shape[:-1])
    G = _contract(R1, R2, C)
    ref = la.herm(fr.Q @ fr.V @ np.swapaxes(G, -1, -2) @ la.dagger(fr.V) @ fr.Q)
    M = fr.state_derivative(C)
    if fr.p != 2.0:
        assert _close(M, ref)
        return
    # theta_2 = 1, so the derivative vanishes and both sides are round-off of
    # terms theta |C|^2 / (lam_a - lam_b), taken to rho's frame by Q
    scale = (np.max(np.abs(fr.gaps[1])) * np.sum(fr.theta * np.abs(C) ** 2)
             * np.max(np.abs(fr.Q)) ** 2)
    assert max(np.max(np.abs(M)), np.max(np.abs(ref))) <= TOL * scale


def _close(x, ref):
    """Equal to TOL relative to the largest entry (exactly, where ref is 0)."""
    return np.max(np.abs(x - ref)) <= TOL * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def tracial3():
    """Detailed-balance model with sigma = I/3: every Bohr frequency is 0."""
    return sg.random_dbc(np.eye(3, dtype=complex) / 3.0, 3, 1, seed=5)


@pytest.fixture(params=["dbc3", "dbc4"])
def model(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["random", "near_coincident"])
def states(request, rng, model):
    if request.param == "random":
        return np.array([la.random_density(rng, model.d, floor=0.05) for _ in range(2)])
    # one state per p of P_GRID: each has the close pair at its own p only
    return np.array([_near_coincident_state(model, p, rng) for p in P_GRID])


class TestPartialDividedDifference:
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("p", P_GRID)
    def test_given_and_own_grid_match_full(self, rng, which, p):
        k = oracles.theta_p_kernel(p)
        wA = np.sort(rng.uniform(0.1, 2.0, (3, 4)))
        wB = np.sort(rng.uniform(0.1, 2.0, (3, 4)))
        wA[:, 1] = wA[:, 0]  # an exact tie
        wB[:, 2] = wB[:, 3] * (1.0 + 5e-10)  # a tie within SAME_TOL
        ref = _partial_dd_full(lambda x, y: oracles.theta_p_xy(p, x, y), which, wA, wB)
        F = k.f(wA[..., :, None], wB[..., None, :])
        assert _close(_partial(k, which, wA, wB), ref)
        assert _close(_partial(k, which, wA, wB, F), ref)

    def test_all_coincident(self):
        k = oracles.theta_p_kernel(1.5)
        w = np.full(3, 0.7)
        for which in (1, 2):
            assert _close(_partial(k, which, w, w), _partial_dd_full(
                lambda x, y: oracles.theta_p_xy(1.5, x, y), which, w, w))


class TestFrameFastPaths:
    @pytest.mark.parametrize("p", P_GRID)
    def test_state_derivative_matches_full(self, model, states, p, rng):
        _assert_match_full(model, tp._Frame(model, states, p), rng)

    @pytest.mark.parametrize("p", P_GRID)
    def test_basis_gradients(self, model, states, p):
        fr, C, _ = tp._basis_gram(model, states, p)
        C = C.copy()  # a workspace view, which the next _basis_rows call takes
        assert _close(C, _gradients_direct(fr, model.d))
        # _basis_gram's C is the rows of _basis_rows made contiguous, the
        # layout that hessian_matrix reads them in as they are
        assert np.array_equal(np.moveaxis(tp._basis_rows(model, states, p)[1], 1, 3), C)

    @pytest.mark.parametrize("p", P_GRID)
    def test_hessian_matrix(self, model, states, p):
        H, G = rc.hessian_matrix(model, states, p)
        H_ref, G_ref = _hessian_direct(model, states, p)
        assert _close(H, H_ref)
        assert _close(G, G_ref)

    def test_near_coincident_pairs_take_derivative_branch(self, rng, model):
        # the state really has coincident pairs off the diagonal
        p = 1.5
        fr = tp._Frame(model, _near_coincident_state(model, p, rng), p)
        assert fr.lam[1] != fr.lam[0]
        assert fr.gaps[0][0, 1]
        assert abs(fr.lam[1] / fr.lam[0] - 1.0) <= SAME_TOL

    def test_near_ties_use_the_frame_partials(self, rng, model, tracial3, monkeypatch):
        # a near-tie takes the mean of the frame's partials, as the diagonal
        # does, so no stack calls partial_dd_tensor: not one with a close
        # pair, nor sigma = I/3 at rho = sigma, where every pair ties, nor one
        # without ties
        def never(*args):
            raise AssertionError("partial_dd_tensor was called")

        monkeypatch.setattr(la, "partial_dd_tensor", never)
        p = 1.5
        stacks = [(model, np.array([_near_coincident_state(model, p, rng),
                                    la.random_density(rng, model.d, floor=0.05)]), 2),
                  (tracial3, tracial3.sigma[None], 6),
                  (model, np.array([la.random_density(rng, model.d, floor=0.05)]), 0)]
        for L, states, ties in stacks:
            fr = tp._Frame(L, states, p)
            assert fr.gaps[0].sum() == ties
            C = rng.standard_normal(fr.theta.shape) + 1j * rng.standard_normal(fr.theta.shape)
            M = fr.state_derivative(C)
            H, G = rc.hessian_matrix(L, states, p)
            assert all(np.isfinite(X).all() for X in (M, H, G))

    @pytest.mark.parametrize("p", P_GRID)
    def test_basis_gram_is_real_symmetric(self, model, states, p):
        _, _, G = tp._basis_gram(model, states, p)
        assert G.dtype == np.float64
        assert np.max(np.abs(G - np.swapaxes(G, -1, -2))) <= 1e-15 * np.max(np.abs(G))


class TestTracialInvariantState:
    """rho = sigma = I/3: Y is a multiple of I, every pair of every jump
    coincides and each tensor is the derivative rule throughout (at p < 2;
    at p = 2 the frame is the identity frame, with no ties)."""

    @pytest.mark.parametrize("p", P_GRID)
    def test_fast_paths_match(self, tracial3, p):
        states = tracial3.sigma[None]
        fr = tp._Frame(tracial3, states, p)
        assert np.ptp(fr.lam) <= SAME_TOL * fr.lam.max()
        if p == 2.0:  # the identity frame: lam = 1, V = I and no ties
            assert np.all(fr.lam == 1.0) and np.array_equal(fr.V[0], np.eye(3))
            assert not fr.gaps[0].any()
        else:
            assert fr.gaps[0].sum() == 6  # every off-diagonal pair is a near-tie
        _assert_match_full(tracial3, fr, np.random.default_rng(1))
        fr, C, _ = tp._basis_gram(tracial3, states, p)
        assert _close(C, _gradients_direct(fr, 3))
        H, G = rc.hessian_matrix(tracial3, states, p)
        H_ref, G_ref = _hessian_direct(tracial3, states, p)
        assert _close(H, H_ref)
        assert _close(G, G_ref)


def _never():
    raise AssertionError("a cached array was computed again")


def _side_by_side_gradients(fr, d):
    """P [V_j, U_m] P afresh, in the cached layout: the (d, d) blocks of
    every basis element m and folded jump j side by side, (d, n K d)."""
    X = fr.P @ fr.grad(tp._basis_frame(d)[0]) @ fr.P
    return np.moveaxis(X, 2, 0).reshape(d, -1)


class TestGeneratorCache:
    """Arrays fixed by the generator are computed once per generator and key,
    and stored read-only."""

    @pytest.mark.parametrize("p", P_GRID)
    def test_basis_gradients_bit_for_bit(self, model, states, p):
        fr, _, _ = tp._basis_gram(model, states, p)
        cached = model.derived(("basis_gradients", p), _never)
        assert np.array_equal(cached, _side_by_side_gradients(fr, model.d))

    def test_sigma_power_is_cached_read_only(self):
        L = sg.random_dbc(np.diag([0.5, 0.3, 0.2]).astype(complex), 3, 1, seed=5)
        w, U = L.sigma_eig
        for s in (0.25, -1.0 / 6.0):
            S = L.sigma_power(s)
            assert L.sigma_power(s) is S
            assert np.array_equal(S, (U * w**s) @ U.conj().T)
            with pytest.raises(ValueError):
                S[0, 0] = 0.0

    def test_sigma_log_is_cached_read_only(self):
        L = sg.random_dbc(np.diag([0.5, 0.3, 0.2]).astype(complex), 3, 1, seed=5)
        w, U = L.sigma_eig
        log = L.sigma_log
        assert L.sigma_log is log
        assert np.array_equal(log, (U * np.log(w)) @ U.conj().T)
        with pytest.raises(ValueError):
            log[0, 0] = 0.0

    def test_second_frame_builds_no_sigma_power(self, rng, monkeypatch):
        # the second frame at the same p reads sigma^(+-s) and the jump
        # layouts off the generator's one record for p: without sigma's
        # eigendecomposition it is built all the same, and shares the first
        # frame's arrays
        L = sg.random_dbc(np.diag([0.5, 0.3, 0.2]).astype(complex), 3, 1, seed=5)
        rho = la.random_density(rng, 3, floor=0.1)
        before = set(L._derived)
        first = tp._Frame(L, rho, 1.5)
        # a frame caches its record, the sigma powers it holds (sigma^(+-1/6))
        # and the jump layouts, which every p shares: the tilts cancel from
        # theta_p, and no entry holds a state
        assert set(L._derived) - before == {
            ("frame", 1.5), ("sigma_power", 1.0 / 6.0), ("sigma_power", -1.0 / 6.0),
            ("jump_layouts",)}
        monkeypatch.setitem(L.__dict__, "sigma_eig", None)
        second = tp._Frame(L, rho, 1.5)
        assert second._c is first._c
        for name in ("P", "Q"):
            assert np.shares_memory(getattr(second, name), getattr(first, name))
        assert np.array_equal(second.theta, first.theta)
        for X in first._c:
            if isinstance(X, np.ndarray):
                with pytest.raises(ValueError):
                    X.flat[0] = 0.0
        with pytest.raises(TypeError):
            tp._Frame(L, rho, 1.25)  # a new p needs a new power

    def test_cached_arrays_are_read_only(self, dbc3):
        tp._basis_gram(dbc3, dbc3.sigma[None], 1.5)
        rc._samples(dbc3, 5, 0)
        for key in (("basis_gradients", 1.5), ("ricci_samples", 5, 0)):
            X = dbc3.derived(key, _never)
            with pytest.raises(ValueError):
                X[0] = 0.0

    def test_generators_with_the_same_d_keep_separate_entries(self, rng):
        models = [sg.random_dbc(np.diag(s).astype(complex), 3, 1, seed=5)
                  for s in ([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])]
        state = la.random_density(rng, 3, floor=0.1)[None]
        cached = []
        for L in models:
            fr, _, _ = tp._basis_gram(L, state, 1.5)
            cached.append(L.derived(("basis_gradients", 1.5), _never))
            assert np.array_equal(cached[-1], _side_by_side_gradients(fr, 3))
        assert not np.allclose(cached[0], cached[1])

    def test_repeated_ricci_estimate(self, dbc3):
        first = rc.ricci_estimate(dbc3, 1.5, num_states=9, seed=4)
        state, direction = first.worst_state.copy(), first.worst_direction.copy()
        first.worst_state[:] = 0.0  # a copy: the cached samples stay as drawn
        again = rc.ricci_estimate(dbc3, 1.5, num_states=9, seed=4)
        assert again.kappa == first.kappa
        assert np.array_equal(again.worst_state, state)
        assert np.array_equal(again.worst_direction, direction)
        assert again.worst_state.flags.writeable
