import tracemalloc

import numpy as np
import pytest

from qbeckner import config as cf
from qbeckner import linalg as la
from qbeckner import semigroup as sg
from qbeckner import transport as tp

import oracles

SIGMA_STAR = np.diag([0.75, 0.25]).astype(complex)

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def depol_flat():
    """Depolarizing semigroup with the maximally mixed qubit state."""
    return sg.depolarizing(np.eye(2) / 2, 1.0)


@pytest.fixture(scope="session")
def depol_pauli():
    """Same generator, constructed from the three Pauli jumps."""
    jumps = [sg.JumpTerm(np.sqrt(1.0 / 8.0) * P, 0.0) for P in PAULI.values()]
    return sg.build_from_jumps(np.eye(2) / 2, jumps)


@pytest.fixture(scope="session")
def depol2():
    """Depolarizing semigroup with sigma* = diag(3/4, 1/4)."""
    return sg.depolarizing(SIGMA_STAR, 1.0)


@pytest.fixture(scope="session")
def depol3():
    """The depol3 fixture's generator: depolarizing, sigma = diag(1/2, 1/3, 1/6)."""
    return cf.build_generator(cf.fixtures("depol3"))


@pytest.fixture(scope="session")
def dbc2():
    """Seeded primitive random detailed-balance model at d = 2."""
    return sg.random_dbc(SIGMA_STAR, 2, 1, seed=3)


@pytest.fixture(scope="session")
def dbc3():
    """Seeded primitive random detailed-balance model at d = 3."""
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    return sg.random_dbc(sigma, 3, 1, seed=5)


@pytest.fixture(scope="session")
def dbc4():
    """Seeded primitive random detailed-balance model at d = 4."""
    return sg.random_dbc(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), 4, 1, seed=11)


@pytest.fixture(scope="session")
def depol_product():
    """(A, B, A⊗B): depolarizing qubit models A (sigma = diag(3/4, 1/4),
    gamma = 1) and B (sigma = diag(0.6, 0.4), gamma = 1.3), and their product
    (oracles.product_model), whose spectrum (0.45, 0.3, 0.15, 0.1) is
    non-degenerate."""
    A, B = sg.depolarizing(SIGMA_STAR, 1.0), sg.depolarizing(np.diag([0.6, 0.4]), 1.3)
    return A, B, oracles.product_model((A, B))


def random_pd(rng, d, shift=0.5):
    """Random strictly positive Hermitian matrix."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return la.herm(G @ G.conj().T / d + shift * np.eye(d))


def largest_allocation_at_grams(monkeypatch, call):
    """The largest numpy data buffer that call() allocates and still holds
    when a Gram product (transport._real_gram) returns, where every block
    array of a path-energy evaluation or a hessian_matrix call is live: numpy
    reports its data buffers to tracemalloc, which traces only what is
    allocated once it has started."""
    real_gram, sizes = tp._real_gram, [0]

    def watched(X, Y):
        out = real_gram(X, Y)
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        sizes.append(max((trace.size for trace in snapshot.traces), default=0))
        return out

    with monkeypatch.context() as patched:
        patched.setattr(tp, "_real_gram", watched)
        tracemalloc.start()
        try:
            call()
        finally:
            tracemalloc.stop()
    assert len(sizes) > 1  # the call formed a Gram product
    return max(sizes)
