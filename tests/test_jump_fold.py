"""The folded jump stack against the unfolded sums over every jump.

DbcLindbladian.jump_stack holds one sqrt(2) V_j per exact adjoint pair
(V_j, w_j), (V_j†, -w_j) and the other jumps as they are. Every Hermitian
contraction of the metric on it must equal the same contraction over all of
L.jumps (oracles.unfolded), and the momenta of a solve, unfolded to L.jumps,
must be the unfolded solve's. A pair that matches only to round-off is not
folded.
"""

import numpy as np
import pytest

from qbeckner import config as cf
from qbeckner import linalg as la
from qbeckner import ricci as rc
from qbeckner import semigroup as sg
from qbeckner import transport as tp

import oracles

TOL = 1e-12
SIGMA3 = np.diag([0.5, 0.3, 0.2]).astype(complex)


def _unit(d, a, b):
    E = np.zeros((d, d), dtype=complex)
    E[a, b] = 1.0
    return E


def _completed():
    """A build_from_jumps model of two unpaired jumps and one Hermitian jump,
    whose partners complete_pairs appends."""
    s = np.diag(SIGMA3).real
    return sg.build_from_jumps(SIGMA3, [
        sg.JumpTerm(0.9 * _unit(3, 0, 1), float(np.log(s[1] / s[0]))),
        sg.JumpTerm(0.6 * _unit(3, 1, 2), float(np.log(s[2] / s[1]))),
        sg.JumpTerm(np.diag([1.0, -0.4, -0.6]).astype(complex), 0.0)])


def _near_pair():
    """A model whose one partner is V† (1 + 1e-12): complete_pairs takes it
    for the partner, and the fold, which needs V† bit for bit, does not."""
    s = np.diag(SIGMA3).real
    jumps = []
    for (a, b), c in (((0, 1), 0.8), ((1, 2), 1.1)):
        V, omega = c * _unit(3, a, b), float(np.log(s[b] / s[a]))
        jumps += [sg.JumpTerm(V, omega), sg.JumpTerm(V.conj().T, -omega)]
    jumps[1] = sg.JumpTerm(jumps[1].V * (1.0 + 1e-12), jumps[1].omega)
    return sg.build_from_jumps(SIGMA3, jumps + [sg.JumpTerm(np.diag([0.5, 0.5, -1.0]), 0.0)])


MODELS = {
    **{name: (lambda name=name: cf.build_generator(cf.fixtures(name))) for name in cf.FIXTURES},
    "flat_random": lambda: sg.random_dbc(np.eye(3, dtype=complex) / 3.0, 3, 1, seed=0),
    "completed": _completed,
    "near_pair": _near_pair,
}
# the folded pairs of each model, (j, k) in L.jump_pairs with k not None;
# near_pair has two pairs, and only the exact one folds; classical_embed's
# off-diagonal jumps are one exact adjoint pair at w = 0
PAIRS = {"depol2": 1, "depol3": 3, "random_dbc_seeded": 3, "classical_embed": 1,
         "flat_random": 3, "completed": 2, "near_pair": 1}


@pytest.fixture(scope="module", params=sorted(MODELS))
def case(request):
    L = MODELS[request.param]()
    return request.param, L, oracles.unfolded(L)


def _close(x, ref, scale=0.0):
    """Equal to TOL relative to the largest entry of ref, or to scale where
    that is larger: at p = 2 theta_p is constant, so the state derivative is
    round-off of terms the size of the kinetic form."""
    return np.max(np.abs(np.asarray(x) - ref)) <= TOL * max(np.max(np.abs(ref)), scale)


def _inputs(d, seed):
    rng = np.random.default_rng(seed)
    rhos = np.array([la.random_density(rng, d, floor=0.05) for _ in range(3)])
    return rhos, la.traceless_part(la.random_hermitian(rng, d))


def test_fold_keeps_only_exact_pairs(case):
    name, L, _ = case
    pairs = [(j, k) for j, k in L.jump_pairs if k is not None]
    assert len(pairs) == PAIRS[name]
    folded = sorted(i for jk in L.jump_pairs for i in jk if i is not None)
    assert folded == list(range(len(L.jumps)))  # every jump once
    for j, k in pairs:
        assert np.array_equal(L.jumps[k].V, L.jumps[j].V.conj().T)
        assert L.jumps[k].omega == -L.jumps[j].omega
    V, omega = L.jump_stack
    assert V.shape == (len(L.jumps) - len(pairs), L.d, L.d) and omega.shape == V.shape[:1]


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0])
def test_metric_matches_unfolded(case, p):
    _, L, Lu = case
    rhos, U = _inputs(L.d, 11)
    for got, ref in zip(rc.hessian_matrix(L, rhos, p), rc.hessian_matrix(Lu, rhos, p)):
        assert _close(got, ref)  # H, then G
    rho = rhos[0]
    kinetic = tp.gradient_norm_sq(Lu, rho, p, U)
    assert _close(tp.gradient_norm_sq(L, rho, p, U), kinetic)
    fr, fu = tp._Frame(L, rho, p), tp._Frame(Lu, rho, p)
    assert _close(fr.state_derivative(fr.eig(fr.grad(U), fr.P)),
                  fu.state_derivative(fu.eig(fu.grad(U), fu.P)), kinetic)
    assert _close(fr.onsager(U), fu.onsager(U))
    for got, ref in zip(tp._geodesic_rhs(L, rho, U, p), tp._geodesic_rhs(Lu, rho, U, p)):
        assert _close(got, ref, kinetic)  # rho_dot, then U_dot
    assert _close(tp.onsager_matrix(L, rho, p), oracles.onsager_matrix_units(L, rho, p))


@pytest.mark.parametrize("p", [1.05, 2.0])
def test_path_energy_and_momenta_match_unfolded(case, p):
    _, L, Lu = case
    rhos, _ = _inputs(L.d, 12)
    N = 4
    energy, ref = (tp._PathEnergy(M, rhos[0], rhos[1], p, N) for M in (L, Lu))
    y = 0.01 * np.random.default_rng(13).standard_normal((2, (N - 1) * (L.d ** 2 - 1)))
    for got, want in zip(energy.value_and_grad(y), ref.value_and_grad(y)):
        assert _close(got, want)  # the energies, then their gradients
    (dist, path), (dist_u, path_u) = (tp.w2p_solve(M, rhos[0], rhos[1], p, tp.W2Opts(N=N))
                                      for M in (L, Lu))
    assert (path.steps, path.evaluations) == (path_u.steps, path_u.evaluations)
    assert abs(dist - dist_u) <= TOL * dist
    assert path.momenta.shape == path_u.momenta.shape == (N, len(L.jumps), L.d, L.d)
    assert _close(path.momenta, path_u.momenta)
    assert path.continuity_residual <= 1e-10
