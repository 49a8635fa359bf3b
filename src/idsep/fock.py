"""Second quantization over a finite mode set.

Truncated bosonic and exact fermionic occupation-number spaces with dense
mode creation/annihilation matrices, two-well number states and the
delocalized (Bogoliubov-rotated) mode pair.

Truncation policy: a bosonic space keeps states with total occupation up to
``cutoff``; any matrix element that would leave the retained sectors is
dropped.  An operator word of degree k therefore acts exactly on states with
total occupation <= cutoff - k, which is what :meth:`FockSpace.exact_mask`
exposes.  A fermionic space with cutoff == modes is exact everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DimensionMismatch, NonFiniteError, OccupationRangeError
from .hilbert import HilbertSpace, Ket, OperatorMatrix, operator_norms


def _enumerate_occupations(
    statistics: str, modes: int, cutoff: int
) -> list[tuple[int, ...]]:
    per_mode = 1 if statistics == "fermion" else cutoff
    occs = [
        t
        for t in itertools.product(range(per_mode + 1), repeat=modes)
        if sum(t) <= cutoff
    ]
    # graded order: ascending total occupation, then left-heavy first
    occs.sort(key=lambda t: (sum(t), tuple(-n for n in t)))
    return occs


class FockSpace:
    """Occupation-number basis with per-mode ladder matrices.

    Parameters
    ----------
    statistics : {'boson', 'fermion'}
    modes : number of single-particle modes
    cutoff : maximum total occupation (fermions: must not exceed modes)
    mode_labels : optional names for the modes, e.g. ("L", "R")
    """

    def __init__(
        self,
        statistics: str,
        modes: int,
        cutoff: int,
        mode_labels: tuple[str, ...] | None = None,
    ) -> None:
        if statistics not in ("boson", "fermion"):
            raise ValueError("statistics must be 'boson' or 'fermion'")
        if modes < 1 or cutoff < 1:
            raise ValueError("modes and cutoff must be positive")
        if statistics == "fermion" and cutoff > modes:
            raise CutoffError(
                f"fermionic cutoff {cutoff} exceeds mode count {modes}"
            )
        if mode_labels is None:
            mode_labels = tuple(f"m{i}" for i in range(modes))
        if len(mode_labels) != modes:
            raise DimensionMismatch("one label per mode required")

        self.statistics = statistics
        self.modes = modes
        self.cutoff = cutoff
        self.mode_space = HilbertSpace(tuple(mode_labels))
        self.occupations: tuple[tuple[int, ...], ...] = tuple(
            _enumerate_occupations(statistics, modes, cutoff)
        )
        self._index = {occ: i for i, occ in enumerate(self.occupations)}
        self.totals = np.array([sum(occ) for occ in self.occupations], dtype=int)
        self.hilbert = HilbertSpace(
            tuple(",".join(map(str, occ)) for occ in self.occupations)
        )
        self._create = self._creation_stack()

    @property
    def dim(self) -> int:
        return len(self.occupations)

    @property
    def truncated(self) -> bool:
        """False only for fermions filled up to cutoff == modes (exact CAR)."""
        return not (self.statistics == "fermion" and self.cutoff == self.modes)

    def index_of(self, occupation) -> int:
        occ = tuple(int(n) for n in occupation)
        try:
            return self._index[occ]
        except KeyError:
            raise OccupationRangeError(f"occupation {occ} not in basis") from None

    def basis_state(self, occupation) -> Ket:
        amps = np.zeros(self.dim, dtype=np.complex128)
        amps[self.index_of(occupation)] = 1.0
        return Ket(self.hilbert, amps)

    def vacuum(self) -> Ket:
        return self.basis_state((0,) * self.modes)

    def _creation_stack(self) -> np.ndarray:
        """The single-mode creation matrices as one (modes, D, D) stack."""
        stack = np.zeros((self.modes, self.dim, self.dim), dtype=np.complex128)
        for mode, col in itertools.product(range(self.modes), range(self.dim)):
            occ = self.occupations[col]
            if self.statistics == "fermion" and occ[mode] == 1:
                continue
            target = list(occ)
            target[mode] += 1
            if sum(target) > self.cutoff:
                continue  # dropped by truncation
            amp = np.sqrt(occ[mode] + 1.0)
            if self.statistics == "fermion":
                amp *= (-1.0) ** sum(occ[:mode])  # Jordan-Wigner string
            stack[mode, self._index[tuple(target)], col] = amp
        return stack

    def creation_matrix(self, mode: int) -> np.ndarray:
        """Matrix of the creation operator for a single mode (do not mutate)."""
        return self._create[mode]

    def exact_mask(self, degree: int) -> np.ndarray:
        """Boolean mask of basis states on which degree-``degree`` words act exactly."""
        if not self.truncated:
            return np.ones(self.dim, dtype=bool)
        return self.totals <= self.cutoff - degree


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """A ladder operator a(f) or its adjoint for a mode vector f."""

    space: FockSpace
    matrix: OperatorMatrix
    mode_vector: Ket


def double_well(cutoff: int) -> FockSpace:
    """Bosonic two-mode space with left/right well labels."""
    return FockSpace("boson", 2, cutoff, mode_labels=("L", "R"))


def _check_mode_vector(space: FockSpace, f: Ket) -> np.ndarray:
    """The amplitudes of ``f``: DimensionMismatch unless it has one per mode,
    NonFiniteError on a NaN or inf amplitude."""
    if f.dim != space.modes:
        raise DimensionMismatch(
            f"mode vector of dim {f.dim} does not match {space.modes} modes"
        )
    if not np.isfinite(f.amplitudes).all():
        raise NonFiniteError("mode vector is not finite")
    return f.amplitudes


def _creation_matrices(space: FockSpace, amplitudes: np.ndarray) -> np.ndarray:
    """sum_i f_i adag_i (..., D, D) for mode vectors f (..., modes), in one
    matrix product; no two modes share an entry, so every sum is exact."""
    create = space._create
    flat = amplitudes @ create.reshape(space.modes, -1)
    return flat.reshape(amplitudes.shape[:-1] + create.shape[1:])


def creation_op(space: FockSpace, f: Ket) -> ModeOperator:
    """Creation operator for mode vector f: linear, sum_i f_i * adag_i."""
    mat = _creation_matrices(space, _check_mode_vector(space, f))
    return ModeOperator(space, OperatorMatrix(space.hilbert, mat), f)


def annihilation_op(space: FockSpace, f: Ket) -> ModeOperator:
    """Annihilation operator for mode vector f; adjoint of creation_op(space, f)."""
    return ModeOperator(space, creation_op(space, f).matrix.dagger(), f)


def check_ccr_car(space: FockSpace, probes: list[Ket]) -> np.ndarray:
    """Worst deviations from the canonical (anti)commutation relations, as a
    table over every ordered pair of the P probe mode vectors.

    Entry (i, j) is the largest operator norm of [a(f), adag(g)] - <f|g>,
    [a(f), a(g)] and [adag(f), adag(g)] (anticommutators for fermions) for
    f = probes[i], g = probes[j], restricted to the sectors on which
    truncation is exact.  Every probe's creation matrix comes from one
    matrix product, annihilation is its conjugate transpose, and the 3 x P x P
    deviations are broadcast products whose norms hilbert.operator_norms takes
    in one call: a deviation matrix with at most one nonzero per row and
    column, as for basis probes, reads its largest modulus, any other one
    its SVD.  A NaN or inf probe amplitude raises NonFiniteError, and so does
    a deviation that is not finite, as when the products of huge probes
    overflow.
    """
    amps = np.array([_check_mode_vector(space, f) for f in probes]).reshape(-1, space.modes)
    create = _creation_matrices(space, amps)
    annihilate = create.conj().swapaxes(-1, -2)
    sign = 1.0 if space.statistics == "fermion" else -1.0  # anticommutator or commutator
    a_f, a_g = annihilate[:, None], annihilate[None, :]
    c_f, c_g = create[:, None], create[None, :]
    # an overflow is an inf or NaN deviation, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = amps.conj() @ amps.T
        deviations = np.stack([
            a_f @ c_g + sign * (c_g @ a_f) - overlap[..., None, None] * np.eye(space.dim),
            a_f @ a_g + sign * (a_g @ a_f),
            c_f @ c_g + sign * (c_g @ c_f),
        ])
    exact = deviations[..., space.exact_mask(1)]  # the vacuum is always exact
    table = operator_norms(exact).max(axis=0)  # NonFiniteError on an inf or NaN entry
    if not np.isfinite(table).all():
        raise NonFiniteError("a (anti)commutation deviation is not finite")
    return table


def number_state(space: FockSpace, k: int, n_total: int) -> Ket:
    """Two-well number state with k particles on the left, n_total - k on the right.

    Equals the normalized result of raising the vacuum k times with the left
    creation operator and n_total - k times with the right one.
    """
    if space.modes != 2:
        raise DimensionMismatch("number_state requires a two-mode space")
    if not 0 <= k <= n_total <= space.cutoff:
        raise OccupationRangeError(
            f"need 0 <= k <= N <= cutoff, got k={k}, N={n_total}, cutoff={space.cutoff}"
        )
    return space.basis_state((k, n_total - k))


def bogoliubov_modes(space: FockSpace) -> tuple[ModeOperator, ModeOperator]:
    """Annihilation operators for the delocalized modes (e_L +- e_R)/sqrt(2)."""
    if space.modes != 2:
        raise DimensionMismatch("bogoliubov_modes requires a two-mode space")
    s = 1.0 / np.sqrt(2.0)
    f_plus = Ket(space.mode_space, [s, s])
    f_minus = Ket(space.mode_space, [s, -s])
    return annihilation_op(space, f_plus), annihilation_op(space, f_minus)
