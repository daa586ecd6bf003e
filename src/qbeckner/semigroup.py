"""Primitive quantum Markov semigroups with detailed balance.

A generator is stored as its Heisenberg-picture superoperator matrix (the
Schrodinger picture is its adjoint) together with the invariant state and a
jump representation ``L(X) = sum_j e^(-w_j/2) Vj† [X, Vj] + e^(w_j/2) [Vj, X] Vj†``
whose jump operators are trace-free eigenvectors of the modular operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, NamedTuple, Sequence, Tuple, TypeVar

import numpy as np

from . import linalg as la
from .errors import (
    NoJumps,
    NotDbc,
    NotModularEigenvector,
    NotPrimitive,
    ResidualTooLarge,
)

T = TypeVar("T")

JUMP_TRACE_TOL = 1e-10
MODULAR_EIG_TOL = 1e-9
DBC_TOL = 1e-9
DECOMPOSE_TOL = 1e-8
KMS_SYM_TOL = 1e-8  # relative hermiticity residual of the KMS-symmetrized generator
KERNEL_COUNT_TOL = 1e-9  # primitivity threshold, relative to spectral scale


class JumpTerm(NamedTuple):
    V: np.ndarray
    omega: float


def _pair_index(jumps: Sequence[JumpTerm], j: int, tol: float = 1e-9) -> int | None:
    """Index of the jump realizing (V_j†, -w_j), or None."""
    Vd = jumps[j].V.conj().T
    for k, (W, om) in enumerate(jumps):
        if abs(om + jumps[j].omega) <= tol * (1.0 + abs(om)) and \
                la.frob(W - Vd) <= tol * (1.0 + la.frob(W)):
            return k
    return None


def complete_pairs(jumps: Sequence[JumpTerm]) -> List[JumpTerm]:
    """Append (V†, -w) for each jump whose adjoint partner is missing."""
    out = list(jumps)
    for j in range(len(jumps)):
        if _pair_index(out, j) is None:
            out.append(JumpTerm(jumps[j].V.conj().T, -jumps[j].omega))
    return out


def validate_jump(sigma_eig: Tuple[np.ndarray, np.ndarray], jump: JumpTerm) -> None:
    """NotModularEigenvector unless V is trace-free and sigma V sigma^-1 = e^-w V,
    checked entry by entry in the eigenbasis (s, U) = sigma_eig: entry (a, b)
    of U† V U has weight |s_a - y s_b| / max(s_a, (1 + y) s_b), y = e^-w,
    which is the residual relative to (1 + y) |V| where s_a / s_b <= 1 + y,
    and at most 1 above, so cond(sigma) never scales the round-off of U."""
    V, omega = jump
    nv = la.frob(V)
    if nv == 0.0:
        return
    if not abs(np.trace(V)) <= JUMP_TRACE_TOL * nv:
        raise NotModularEigenvector(f"jump has trace {np.trace(V):.3e}")
    (s, U), y = sigma_eig, np.exp(-omega)
    resid = la.frob((s[:, None] - y * s) / np.maximum(s[:, None], (1.0 + y) * s) * (U.conj().T @ V @ U))
    if not resid <= MODULAR_EIG_TOL * nv:
        raise NotModularEigenvector(
            f"modular eigenvector residual {resid:.3e} for omega={omega}"
        )


def generator_from_jumps(jumps: Sequence[JumpTerm], d: int) -> np.ndarray:
    """Heisenberg generator superoperator assembled from the jump terms."""
    eye = np.eye(d)
    L = np.zeros((d * d, d * d), dtype=complex)
    for V, omega in jumps:
        Vd = V.conj().T
        em, ep = np.exp(-omega / 2.0), np.exp(omega / 2.0)
        L += em * (la.sandwich_super(Vd, V) - la.left_super(Vd @ V))
        L += ep * (la.sandwich_super(V, Vd) - la.right_super(V @ Vd))
    return L


@dataclass(frozen=True)
class PrimitivityReport:
    kernel_dimension: int
    spectral_gap: float
    # ||M - M^dag||_F / ||M||_F for the KMS-symmetrized generator M; by
    # Bauer-Fike every eigenvalue lies within half of it (times ||M||_F) of
    # the real axis
    symmetrization_residual: float

    @property
    def primitive(self) -> bool:
        return self.kernel_dimension == 1


@dataclass(frozen=True)
class DbcLindbladian:
    """Generator of a detailed-balance QMS, with jump representation.

    Immutable: the builder makes sigma_eig, and derived decompositions are cached.
    """

    sigma: np.ndarray
    sigma_eig: Tuple[np.ndarray, np.ndarray]
    jumps: Tuple[JumpTerm, ...]
    generator: np.ndarray

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    def require_jumps(self) -> None:
        if not self.jumps:
            raise NoJumps("operation needs the jump representation")

    @cached_property
    def jump_pairs(self) -> Tuple[Tuple[int, int | None], ...]:
        """(j, k) for each jump of the folded stack (jump_stack), in the order
        of the jumps: k is the exact adjoint partner of jump j, V_k = V_j† bit
        for bit and w_k = -w_j (_pair_index with tol = 0), or None for a
        self-adjoint jump and for one without an exact, unused partner. Every
        jump index occurs once; a near-pair is never folded."""
        out, used = [], set()
        for j in range(len(self.jumps)):
            if j in used:
                continue
            k = _pair_index(self.jumps, j, tol=0.0)
            k = None if k == j or k in used else k
            used.update((j, k))
            out.append((j, k))
        return tuple(out)

    @cached_property
    def jump_stack(self) -> Tuple[np.ndarray, np.ndarray]:
        """The folded jumps as one (K, d, d) array, and their frequencies:
        sqrt(2) V_j for each exact adjoint pair (j, k) of jump_pairs, V_j for
        every other jump. With dj' U = -(dj U)† and [rho]_{-w} X† =
        ([rho]_w X)†, the two jumps of a pair add equal real parts to every
        Hermitian contraction of the metric: the kinetic form, the Gram
        matrix, their state derivatives and the Hermitian part of the Onsager
        operator on Hermitian U. The folded jump carries both, so K <= J
        terms give them. transport._Frame is its only reader."""
        folded = [(self.jumps[j], k) for j, k in self.jump_pairs]
        return (np.array([V if k is None else np.sqrt(2.0) * V for (V, _), k in folded]),
                np.array([omega for (_, omega), _ in folded]))

    @cached_property
    def _derived(self) -> dict:
        return {}

    def derived(self, key: tuple, make: Callable[[], T]) -> T:
        """make(), an array or a tuple of values fixed by the generator and
        key, computed on the first call and stored for the generator's
        lifetime, every array in it read-only."""
        value = self._derived.get(key)
        if value is None:
            value = make()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            self._derived[key] = value
        return value

    @cached_property
    def sigma_log(self) -> np.ndarray:
        """log sigma from sigma_eig, read-only."""
        w, U = self.sigma_eig
        log = (U * np.log(w)) @ U.conj().T
        log.flags.writeable = False
        return log

    @cached_property
    def tracial(self) -> bool:
        """Whether sigma = I/d to 1e-10 in Frobenius norm: the flat invariant
        state of the symmetric semigroups."""
        return bool(la.frob(self.sigma - np.eye(self.d) / self.d) <= 1e-10)

    @cached_property
    def flat_depolarizing_rate(self) -> float | None:
        """gamma when d >= 2, sigma = I/d and the generator is
        gamma (|vec 1><vec sigma| - id) to 1e-8 relative: the flat depolarizing
        semigroup, whose Beckner constants are gamma times the two-point values
        (constants.depol_classical). None for every other generator. gamma is
        read off one diagonal entry, exactly as depolarizing() wrote it."""
        d = self.d
        if d < 2 or not self.tracial:
            return None
        gamma = -float(self.generator[1, 1].real)
        flat = gamma * (np.outer(la.vec(np.eye(d)), la.vec(self.sigma).conj()) - np.eye(d * d))
        if gamma <= 0.0 or la.frob(self.generator - flat) > 1e-8 * la.frob(self.generator):
            return None
        return gamma

    @cached_property
    def dual_generator(self) -> np.ndarray:
        """Schrodinger-picture generator, the adjoint of the generator."""
        return self.generator.conj().T

    @property
    def sigma_min(self) -> float:
        return float(self.sigma_eig[0][0])

    def sigma_power(self, s: float) -> np.ndarray:
        """sigma^s from sigma_eig, computed once per s and stored read-only
        (derived)."""
        s = float(s)

        def power() -> np.ndarray:
            w, U = self.sigma_eig
            return (U * w**s) @ U.conj().T

        return self.derived(("sigma_power", s), power)

    @cached_property
    def _kms_factors(self) -> Tuple[np.ndarray, np.ndarray]:
        quarter = self.sigma_power(0.25)
        iquarter = self.sigma_power(-0.25)
        return (la.sandwich_super(quarter, quarter),
                la.sandwich_super(iquarter, iquarter))

    @cached_property
    def _kms_symmetrized(self) -> Tuple[np.ndarray, float]:
        """The KMS-symmetrized generator
        M = sigma^(1/4) L(sigma^(-1/4) . sigma^(-1/4)) sigma^(1/4) and its
        relative hermiticity residual; NotDbc when that exceeds KMS_SYM_TOL.
        Detailed balance makes M Hermitian.
        """
        Khalf, Kihalf = self._kms_factors
        M = Khalf @ self.generator @ Kihalf
        resid = la.frob(M - M.conj().T) / max(la.frob(M), 1e-300)
        if resid > KMS_SYM_TOL:
            raise NotDbc(f"KMS-symmetrized generator has hermiticity residual {resid:.3e}")
        return M, resid

    @cached_property
    def _sym_eig(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One eigh of the KMS-symmetrized generator gives the whole spectrum
        of the generator. Returns the eigenvalues (ascending), the
        eigenvectors and the mask of kernel eigenvalues (within
        KERNEL_COUNT_TOL of the spectral scale).
        """
        w, Q = np.linalg.eigh(la.herm(self._kms_symmetrized[0]))
        kernel = np.abs(w) <= KERNEL_COUNT_TOL * float(np.max(np.abs(w)))
        return w, Q, kernel

    def apply(self, X: np.ndarray) -> np.ndarray:
        return la.apply_super(self.generator, X)

    def apply_dual(self, rho: np.ndarray) -> np.ndarray:
        return la.apply_super(self.dual_generator, rho)

    def heisenberg_propagator(self, t: float) -> np.ndarray:
        """Superoperator matrix of exp(t * generator)."""
        w, Q, _ = self._sym_eig
        Khalf, Kihalf = self._kms_factors
        return Kihalf @ ((Q * np.exp(t * w)) @ Q.conj().T) @ Khalf

    def schrodinger_propagator(self, t: float) -> np.ndarray:
        return self.heisenberg_propagator(t).conj().T

    @cached_property
    def primitivity(self) -> PrimitivityReport:
        w, _, kernel = self._sym_eig
        rest = w[~kernel]
        gap = float(-np.max(rest)) if rest.size else 0.0
        return PrimitivityReport(int(np.sum(kernel)), gap, self._kms_symmetrized[1])

    def require_primitive(self) -> PrimitivityReport:
        """The report, or NotPrimitive unless the kernel is one-dimensional
        and there is a spectral gap (the kernel of a d = 1 model is all of it)."""
        rep = self.primitivity
        if not rep.primitive or rep.spectral_gap <= 0.0:
            raise NotPrimitive(f"kernel dimension {rep.kernel_dimension}, "
                               f"spectral gap {rep.spectral_gap:.3e}")
        return rep

    @cached_property
    def gap_eigenvector(self) -> np.ndarray:
        """Hermitian unit-norm eigenvector of the spectral-gap eigenvalue."""
        w, Q, kernel = self._sym_eig
        idx = np.argmax(np.where(kernel, -np.inf, w))
        _, Kihalf = self._kms_factors
        X = la.unvec(Kihalf @ Q[:, idx], self.d)
        X = la.herm(X) if la.frob(la.herm(X)) > 1e-8 * la.frob(X) else 1j * X
        return la.herm(X) / la.frob(la.herm(X))


def validate_dbc(L: DbcLindbladian, tol: float = DBC_TOL) -> None:
    """Check unitality, invariance, GNS self-adjointness, modular commutation
    and KMS symmetry; the last is relative to the symmetrized generator, so it
    also catches a jump frequency slightly off where sigma is small."""
    d = L.d
    scale = max(la.frob(L.generator), 1e-300)
    if la.frob(L.apply(np.eye(d))) > 1e-10 * scale * d:
        raise NotDbc("generator does not annihilate the identity")
    if la.frob(L.apply_dual(L.sigma)) > 1e-10 * scale:
        raise NotDbc("dual generator does not fix sigma")
    S = la.right_super(L.sigma)  # Gram matrix of the GNS inner product
    gns = la.frob(S @ L.generator - L.generator.conj().T @ S)
    if gns > tol * scale * max(la.frob(S), 1.0):
        raise NotDbc(f"GNS self-adjointness residual {gns:.3e}")
    Delta = la.sandwich_super(L.sigma, L.sigma_power(-1.0))  # X -> sigma X sigma^-1
    comm = la.frob(L.generator @ Delta - Delta @ L.generator)
    if comm > tol * scale * max(la.frob(Delta), 1.0):
        raise NotDbc(f"modular commutation residual {comm:.3e}")
    L._kms_symmetrized  # raises NotDbc above KMS_SYM_TOL


def _assemble(sigma: np.ndarray, sigma_eig, jumps: Sequence[JumpTerm]) -> DbcLindbladian:
    """The generator of the jumps, each checked against sigma's eigenpairs,
    with adjoint pairs completed and detailed balance validated."""
    jumps = [JumpTerm(np.asarray(V, dtype=complex), float(om)) for V, om in jumps]
    for jump in jumps:
        validate_jump(sigma_eig, jump)
    jumps = tuple(complete_pairs(jumps))
    L = DbcLindbladian(sigma, sigma_eig, jumps, generator_from_jumps(jumps, sigma.shape[0]))
    validate_dbc(L)
    return L


def build_from_jumps(sigma: np.ndarray, jumps: Sequence[JumpTerm]) -> DbcLindbladian:
    """Assemble the generator from jump terms, auto-completing adjoint pairs,
    and validate the jumps and the detailed-balance conditions."""
    sigma = la.herm(np.asarray(sigma, dtype=complex))
    return _assemble(sigma, la.full_rank_eigh(sigma), jumps)


def depolarizing(sigma: np.ndarray, gamma: float) -> DbcLindbladian:
    """Generalized depolarizing semigroup L(X) = gamma (tr(sigma X) 1 - X)."""
    sigma = la.herm(np.asarray(sigma, dtype=complex))
    eig = la.full_rank_eigh(sigma)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    d = sigma.shape[0]
    gen = gamma * (np.outer(la.vec(np.eye(d)), la.vec(sigma).conj()) - np.eye(d * d))
    # alicki_decompose checks gen and that the jumps rebuild it; the jumps are checked here
    jumps = tuple(alicki_decompose(DbcLindbladian(sigma, eig, (), gen)))
    for jump in jumps:
        validate_jump(eig, jump)
    return DbcLindbladian(sigma, eig, jumps, gen)


def random_dbc(sigma: np.ndarray, num_offdiag_pairs: int, num_diag: int,
               seed: int) -> DbcLindbladian:
    """Seeded detailed-balance generator built from scaled matrix units.

    Off-diagonal jumps are |i><j| units in the eigenbasis of sigma with
    w = log(s_j / s_i); when num_offdiag_pairs >= d - 1 the selected pairs
    contain a spanning tree, so the commutant is trivial and the semigroup
    is primitive. Diagonal jumps are traceless Hermitian with w = 0.
    """
    sigma = la.herm(np.asarray(sigma, dtype=complex))
    d = sigma.shape[0]
    s, U = eig = la.full_rank_eigh(sigma)
    rng = np.random.default_rng(seed)

    pairs: List[Tuple[int, int]] = []
    if d > 1:
        if num_offdiag_pairs >= d - 1:
            order = rng.permutation(d)
            for i in range(1, d):
                j = int(rng.integers(0, i))
                pairs.append((int(order[j]), int(order[i])))
        while len(pairs) < num_offdiag_pairs:
            a, b = int(rng.integers(0, d)), int(rng.integers(0, d))
            if a != b:
                pairs.append((min(a, b), max(a, b)))

    jumps: List[JumpTerm] = []
    for (i, j) in pairs[:num_offdiag_pairs]:
        c = float(rng.uniform(0.5, 1.5))
        E = np.zeros((d, d), dtype=complex)
        E[i, j] = c
        omega = float(np.log(s[j] / s[i]))
        V = U @ E @ U.conj().T
        jumps.append(JumpTerm(V, omega))
        jumps.append(JumpTerm(V.conj().T, -omega))
    for _ in range(num_diag):
        g = rng.standard_normal(d)
        g = g - g.mean()
        D = U @ np.diag(g.astype(complex)) @ U.conj().T
        jumps.append(JumpTerm(D, 0.0))
    return _assemble(sigma, eig, jumps)


# ---------------------------------------------------------------------------
# Jump extraction from a generator (inverse of build_from_jumps)
# ---------------------------------------------------------------------------


def _reshuffle(L: np.ndarray, d: int) -> np.ndarray:
    """Coefficient matrix C[(a,b),(c,e)] of L(X) = sum C E_ab X E_ce†."""
    L4 = L.reshape(d, d, d, d)
    return np.transpose(L4, (1, 3, 0, 2)).reshape(d * d, d * d)


def _modular_groups(s: np.ndarray, d: int):
    """Group matrix-unit indices by the modular frequency w(E_ab) = log(s_b/s_a).

    A frequency within MODULAR_EIG_TOL / 2 of zero becomes zero, and one
    within MODULAR_EIG_TOL / 2 of a group's first frequency joins that
    group. A jump from a group, labelled with its first frequency nu, then
    has a modular residual of at most e^(-nu) |w - nu| (1 + |w - nu|) per
    unit norm, so it and its adjoint pass validate_jump with room left for
    rounding. Returns a list of (nu, pair_list); the zero group carries
    nu = 0.0 exactly.
    """
    merge = MODULAR_EIG_TOL / 2.0
    logs = np.log(s)
    entries = []
    for a in range(d):
        for b in range(d):
            nu = float(logs[b] - logs[a])
            entries.append((0.0 if abs(nu) <= merge else nu, (a, b)))
    groups: List[Tuple[float, List[Tuple[int, int]]]] = []
    for nu, ab in sorted(entries):
        if groups and abs(groups[-1][0] - nu) <= merge:
            groups[-1][1].append(ab)
        else:
            groups.append((nu, [ab]))
    return groups


def _unit_vector(d: int, a: int, b: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    v[a * d + b] = 1.0
    return v


def _zero_group_basis(members, d: int):
    """Hermitian, trace-free orthonormal basis of the frequency-zero sector.

    Matrix-unit pairs between degenerate levels become (E_ab + E_ba)/sqrt(2)
    and i(E_ab - E_ba)/sqrt(2); diagonal units are replaced by the d - 1
    traceless diagonal combinations (the identity direction is dropped, which
    removes the non-sandwich multiplier part of the generator).
    """
    vectors = []
    offdiag = sorted({tuple(sorted(ab)) for ab in members if ab[0] != ab[1]})
    for (a, b) in offdiag:
        e_ab, e_ba = _unit_vector(d, a, b), _unit_vector(d, b, a)
        vectors.append((e_ab + e_ba) / np.sqrt(2.0))
        vectors.append(1j * (e_ab - e_ba) / np.sqrt(2.0))
    diag = sorted(a for (a, b) in members if a == b)
    for k in range(1, len(diag)):
        v = np.zeros(d * d, dtype=complex)
        for a in diag[:k]:
            v[a * d + a] = 1.0
        v[diag[k] * d + diag[k]] = -float(k)
        vectors.append(v / np.linalg.norm(v))
    return vectors


def alicki_decompose(L: DbcLindbladian) -> List[JumpTerm]:
    """Extract trace-free modular-eigenvector jumps reproducing L.generator,
    after checking it for detailed balance; L's own jumps are not read.

    Works in the eigenbasis of sigma, L.sigma_eig: the matrix-unit basis is
    grouped by modular frequency, the within-group sandwich-coefficient block
    of the generator is projected to its PSD part, and weighted eigenvectors
    are emitted as jump operators, each V next to its V† (none at d = 1). The
    jump set is not unique; only reconstruction is guaranteed.
    """
    (s, U), d, generator = L.sigma_eig, L.d, L.generator
    scale = max(la.frob(generator), 1e-300)
    validate_dbc(L, tol=DECOMPOSE_TOL)

    basis_change = la.sandwich_super(U.conj().T, U)       # X -> U† X U
    basis_back = la.sandwich_super(U, U.conj().T)
    Lt = basis_change @ generator @ basis_back
    C = _reshuffle(Lt, d)

    groups = _modular_groups(s, d)

    jumps: List[JumpTerm] = []
    discarded = 0.0
    for nu, members in groups:
        if nu < 0.0:
            continue  # handled with its positive partner
        if nu == 0.0:
            vectors = _zero_group_basis(members, d)
            if not vectors:
                continue
            Q = np.column_stack(vectors)
            block = Q.conj().T @ C @ Q
            block = 0.5 * (block + block.conj().T)
            # DBC makes this block real symmetric in the Hermitian basis
            block = 0.5 * (block + block.T).real
            target = 0.5 * block
        else:
            # not averaged with the adjoint block, e^-nu times this one: e^nu
            # is off by eps |sigma| / s_min relative when sigma is rotated
            Qp = np.column_stack([_unit_vector(d, a, b) for (a, b) in members])
            block = Qp.conj().T @ C @ Qp
            block = 0.5 * (block + block.conj().T)
            target = 0.5 * np.exp(-nu / 2.0) * block
            Q = Qp
        w, W = np.linalg.eigh(target)
        neg = w[w < 0.0]
        discarded += float(np.sum(-neg))
        for k in range(len(w)):
            if w[k] <= 1e-14 * scale:
                continue
            full = Q @ (np.sqrt(w[k]) * W[:, k])
            V = full.reshape(d, d)  # row-major: entry (a, b) multiplies E_ab
            V = U @ V @ U.conj().T
            if nu == 0.0:
                jumps.append(JumpTerm(la.herm(V), 0.0))
            else:
                jumps.append(JumpTerm(V, float(nu)))
                jumps.append(JumpTerm(V.conj().T, float(-nu)))
    if not discarded <= DECOMPOSE_TOL * scale:
        raise ResidualTooLarge(
            f"PSD projection discarded weight {discarded:.3e} "
            "(coherent part is incompatible with detailed balance)"
        )

    rebuilt = generator_from_jumps(jumps, d)
    resid = la.frob(rebuilt - generator) / scale
    if not resid <= DECOMPOSE_TOL:
        raise ResidualTooLarge(f"reconstruction residual {resid:.3e}")
    return jumps


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def evolve(L: DbcLindbladian, t: float, picture: str, X: np.ndarray) -> np.ndarray:
    """Apply exp(t L) (heisenberg) or exp(t L†) (schrodinger) to X."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if picture == "heisenberg":
        return la.apply_super(L.heisenberg_propagator(t), X)
    if picture == "schrodinger":
        return la.apply_super(L.schrodinger_propagator(t), X)
    raise ValueError(f"unknown picture {picture!r}")
