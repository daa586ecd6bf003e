"""The spectral frame's fast paths against the direct formulas they replace.

_Frame.dk_tensors takes both quotient numerators of theta_p from the frame's grid
and evaluates the derivative rule only on coincident eigenvalue pairs;
_basis_gram forms the basis gradients once and maps all of them to each
state's eigenframe with two batched products; hessian_matrix contracts its
first term as one operator per jump. The oracles below evaluate the kernel on two grids and its partial
derivative on the whole d^3 grid, transform the gradients matrix by matrix,
and contract the first term with two broadcast einsums.
"""

import numpy as np
import pytest

from qbeckner import linalg as la
from qbeckner import ricci as rc
from qbeckner import semigroup as sg
from qbeckner import transport as tp
from qbeckner.kernels import SAME_TOL, _is_same, theta_p_kernel

TOL = 1e-14
P_GRID = [1.05, 1.5, 2.0]


def _partial_dd_full(k2, which, wA, wB):
    """Both kernel grids and the derivative rule on every entry, selected by
    the coincidence mask."""
    x = wA[..., :, None, None]
    if which == 1:
        y = wB[..., None, None, :]
        u, v = x, wA[..., None, :, None]
        fu, fv, deriv = k2.f(u, y), k2.f(v, y), k2.dx
    else:
        u, v = wB[..., None, :, None], wB[..., None, None, :]
        fu, fv, deriv = k2.f(x, u), k2.f(x, v), k2.dy
    same = _is_same(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = (fu - fv) / np.where(same, 1.0, u - v)
    mid = 0.5 * (u + v)
    deg = deriv(mid, y) if which == 1 else deriv(x, mid)
    return np.where(same, deg, far)


def _dk_tensors_full(fr):
    return (fr.up[:, None, None, None] * _partial_dd_full(fr.kernel, 1, fr.a, fr.b),
            fr.down[:, None, None, None] * _partial_dd_full(fr.kernel, 2, fr.a, fr.b))


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
    W1, W2 = _dk_tensors_full(fr)
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
        k = theta_p_kernel(p)
        wA = np.sort(rng.uniform(0.1, 2.0, (3, 4)))
        wB = np.sort(rng.uniform(0.1, 2.0, (3, 4)))
        wA[:, 1] = wA[:, 0]  # an exact tie
        wB[:, 2] = wB[:, 3] * (1.0 + 5e-10)  # a tie within SAME_TOL
        ref = _partial_dd_full(k, which, wA, wB)
        F = k.f(wA[..., :, None], wB[..., None, :])
        assert _close(la.partial_dd_tensor(k, which, wA, wB), ref)
        assert _close(la.partial_dd_tensor(k, which, wA, wB, F), ref)

    def test_all_coincident(self):
        k = theta_p_kernel(1.5)
        w = np.full(3, 0.7)
        for which in (1, 2):
            assert _close(la.partial_dd_tensor(k, which, w, w),
                          _partial_dd_full(k, which, w, w))


class TestFrameFastPaths:
    @pytest.mark.parametrize("p", P_GRID)
    def test_dk_tensors(self, model, states, p):
        fr = tp._Frame(model, states, p)
        for W, ref in zip(fr.dk_tensors(), _dk_tensors_full(fr)):
            assert _close(W, ref)

    @pytest.mark.parametrize("p", P_GRID)
    def test_basis_gradients(self, model, states, p):
        fr, C, _ = tp._basis_gram(model, states, p)
        assert _close(C, _gradients_direct(fr, model.d))

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
        assert _is_same(fr.a[:, 0], fr.a[:, 1]).all()
        assert abs(fr.lam[1] / fr.lam[0] - 1.0) <= SAME_TOL


class TestTracialInvariantState:
    """rho = sigma = I/3: Y is a multiple of I, every pair of every jump
    coincides and each tensor is the derivative rule throughout."""

    @pytest.mark.parametrize("p", P_GRID)
    def test_fast_paths_match(self, tracial3, p):
        states = tracial3.sigma[None]
        fr = tp._Frame(tracial3, states, p)
        assert np.ptp(fr.lam) <= SAME_TOL * fr.lam.max()
        for W, ref in zip(fr.dk_tensors(), _dk_tensors_full(fr)):
            assert _close(W, ref)
        fr, C, _ = tp._basis_gram(tracial3, states, p)
        assert _close(C, _gradients_direct(fr, 3))
        H, G = rc.hessian_matrix(tracial3, states, p)
        H_ref, G_ref = _hessian_direct(tracial3, states, p)
        assert _close(H, H_ref)
        assert _close(G, G_ref)
