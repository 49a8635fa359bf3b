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

from .errors import CutoffError, DimensionMismatch, OccupationRangeError
from .hilbert import HilbertSpace, Ket, OperatorMatrix


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
        self._create = [self._creation_matrix(i) for i in range(modes)]

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

    def _creation_matrix(self, mode: int) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for col, occ in enumerate(self.occupations):
            if self.statistics == "fermion" and occ[mode] == 1:
                continue
            target = list(occ)
            target[mode] += 1
            if sum(target) > self.cutoff:
                continue  # dropped by truncation
            amp = np.sqrt(occ[mode] + 1.0)
            if self.statistics == "fermion":
                amp *= (-1.0) ** sum(occ[:mode])  # Jordan-Wigner string
            mat[self._index[tuple(target)], col] = amp
        return mat

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
    if f.dim != space.modes:
        raise DimensionMismatch(
            f"mode vector of dim {f.dim} does not match {space.modes} modes"
        )
    return f.amplitudes


def creation_op(space: FockSpace, f: Ket) -> ModeOperator:
    """Creation operator for mode vector f: linear, sum_i f_i * adag_i."""
    amps = _check_mode_vector(space, f)
    mat = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for i, fi in enumerate(amps):
        if fi != 0:
            mat += fi * space.creation_matrix(i)
    return ModeOperator(space, OperatorMatrix(space.hilbert, mat), f)


def annihilation_op(space: FockSpace, f: Ket) -> ModeOperator:
    """Annihilation operator for mode vector f; adjoint of creation_op(space, f)."""
    return ModeOperator(space, creation_op(space, f).matrix.dagger(), f)


def check_ccr_car(space: FockSpace, f: Ket, g: Ket) -> float:
    """Worst deviation from the canonical (anti)commutation relations.

    Evaluates [a(f), adag(g)] - <f|g>, [a(f), a(g)] and [adag(f), adag(g)]
    (anticommutators for fermions) and returns the largest operator norm,
    restricted to the sectors on which truncation is exact.
    """
    af = annihilation_op(space, f).matrix.matrix
    ag = annihilation_op(space, g).matrix.matrix
    cf = creation_op(space, f).matrix.matrix
    cg = creation_op(space, g).matrix.matrix
    overlap = complex(np.vdot(f.amplitudes, g.amplitudes))
    sign = 1.0 if space.statistics == "fermion" else -1.0  # anticommutator or commutator
    deviations = [
        af @ cg + sign * (cg @ af) - overlap * np.eye(space.dim),
        af @ ag + sign * (ag @ af),
        cf @ cg + sign * (cg @ cf),
    ]
    mask = space.exact_mask(1)
    if not mask.any():
        return 0.0
    return float(max(np.linalg.norm(d[:, mask], 2) for d in deviations))


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
