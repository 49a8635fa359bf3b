"""Finite-dimensional complex linear algebra for quantum states and observables.

Kets and dense operators over labeled orthonormal bases, tensor products,
Schmidt decomposition, partial trace and von Neumann entropy.  Entropies are
in bits (base-2 logarithm).  Tensor products are row-major: the left factor
supplies the major index.  All objects are treated as immutable after
construction and are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteError,
    NormalizationError,
    NotPositiveSemidefinite,
    TraceError,
)

#: Default numeric tolerance for equality assertions and input validation.
DEFAULT_TOL = 1e-9

#: Eigenvalues at or below this floor are treated as exact zeros in entropies,
#: avoiding 0*log(0).
EIGENVALUE_FLOOR = 1e-12


def validation_gate(tol: float) -> float:
    """The input-validation gate of a reading at tolerance ``tol``: tol, but
    never tighter than float precision can deliver (DEFAULT_TOL).  Raises
    ValueError unless 0 < tol < inf (NaN fails too)."""
    if not 0 < tol < np.inf:
        raise ValueError("tolerance must be finite and positive")
    return max(tol, DEFAULT_TOL)


@dataclass(frozen=True)
class HilbertSpace:
    """A finite-dimensional complex space with an ordered, labeled basis."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("a Hilbert space needs at least one basis label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be unique")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def of_dim(cls, dim: int, prefix: str = "e") -> "HilbertSpace":
        if dim < 1:
            raise ValueError("dimension must be positive")
        # tuple() of a list allocates the exact size; a tuple grown from a
        # generator is resized, and CPython's per-size free lists keep each one
        return cls(tuple([f"{prefix}{i}" for i in range(dim)]))

    def tensor(self, other: "HilbertSpace") -> "HilbertSpace":
        """Product space; labels are joined left-major as "a,b"."""
        return HilbertSpace(
            tuple(f"{a},{b}" for a in self.labels for b in other.labels)
        )

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis label {label!r}") from None


class Ket:
    """State vector holding complex amplitudes in the basis of its space."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: HilbertSpace, amplitudes) -> None:
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise DimensionMismatch("ket amplitudes must be one-dimensional")
        if amps.shape[0] != space.dim:
            raise DimensionMismatch(
                f"expected {space.dim} amplitudes, got {amps.shape[0]}"
            )
        self.space = space
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.space.dim

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "Ket":
        n = self.norm()
        if not EIGENVALUE_FLOOR < n < np.inf:  # NaN fails too
            raise NormalizationError(
                "cannot normalize a (near-)zero or non-finite vector"
            )
        return Ket(self.space, self.amplitudes / n)

    def inner(self, other: "Ket") -> complex:
        """<self|other>, antilinear in self."""
        if other.dim != self.dim:
            raise DimensionMismatch("kets live in different dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def outer(self, other: "Ket | None" = None) -> "OperatorMatrix":
        """|self><other| (|self><self| when other is omitted)."""
        bra = self if other is None else other
        if bra.dim != self.dim:
            raise DimensionMismatch("kets live in different dimensions")
        return OperatorMatrix(
            self.space, np.outer(self.amplitudes, np.conj(bra.amplitudes))
        )

    def __add__(self, other: "Ket") -> "Ket":
        if other.dim != self.dim:
            raise DimensionMismatch("kets live in different dimensions")
        return Ket(self.space, self.amplitudes + other.amplitudes)

    def __sub__(self, other: "Ket") -> "Ket":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "Ket":
        return Ket(self.space, self.amplitudes * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "Ket":
        return self * (1.0 / complex(scalar))

    def __neg__(self) -> "Ket":
        return self * (-1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ket(dim={self.dim}, amplitudes={np.round(self.amplitudes, 6)})"


class OperatorMatrix:
    """Dense complex matrix acting on a HilbertSpace."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: HilbertSpace, matrix) -> None:
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch("operator matrix must be square")
        if mat.shape[0] != space.dim:
            raise DimensionMismatch(
                f"operator of size {mat.shape[0]} does not fit space of dim {space.dim}"
            )
        self.space = space
        self.matrix = mat

    @classmethod
    def _view(cls, space: HilbertSpace, matrix: np.ndarray) -> "OperatorMatrix":
        """An operator over ``matrix`` itself, not a copy: a square complex or
        float64 array of size ``space.dim``, which the caller has already
        checked.  A real algebra's monomials are such float64 views."""
        op = cls.__new__(cls)
        op.space, op.matrix = space, matrix
        return op

    @property
    def dim(self) -> int:
        return self.space.dim

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.matrix.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether every entry of A - A^dag is at most ``tol`` in modulus.
        A NaN or inf entry raises NonFiniteError before A - A^dag is formed."""
        if not np.isfinite(self.matrix).all():
            raise NonFiniteError("operator matrix is not finite")
        return bool(np.abs(self.matrix - self.matrix.conj().T).max() <= tol)

    def apply(self, ket: Ket) -> Ket:
        if ket.dim != self.dim:
            raise DimensionMismatch("operator and ket dimensions differ")
        return Ket(ket.space, self.matrix @ ket.amplitudes)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.dim != self.dim:
            raise DimensionMismatch("operator dimensions differ")
        return OperatorMatrix(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.dim != self.dim:
            raise DimensionMismatch("operator dimensions differ")
        return OperatorMatrix(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "OperatorMatrix":
        return self * (1.0 / complex(scalar))

    def __neg__(self) -> "OperatorMatrix":
        return self * (-1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"OperatorMatrix(dim={self.dim})"


@dataclass
class SchmidtForm:
    """Result of a Schmidt decomposition.

    ``coefficients`` are nonnegative and descending; the vector lists are
    orthonormal and of equal length min(d1, d2).
    """

    coefficients: np.ndarray
    left_vectors: list[Ket]
    right_vectors: list[Ket]

    def reconstruct_amplitudes(self) -> np.ndarray:
        """Amplitudes of sum_j c_j |u_j> (x) |v_j> in the product basis."""
        u = np.array([u.amplitudes for u in self.left_vectors]).T
        v = np.array([v.amplitudes for v in self.right_vectors])
        return ((u * self.coefficients) @ v).ravel()


def identity_op(space: HilbertSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim))


def basis_ket(space: HilbertSpace, which: int | str) -> Ket:
    """Basis vector selected by index or label."""
    index = space.index_of(which) if isinstance(which, str) else int(which)
    if not 0 <= index < space.dim:
        raise DimensionMismatch(f"basis index {index} out of range")
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[index] = 1.0
    return Ket(space, amps)


def qubit() -> HilbertSpace:
    return HilbertSpace(("0", "1"))


def sigma_x() -> OperatorMatrix:
    return OperatorMatrix(qubit(), [[0, 1], [1, 0]])


def sigma_z() -> OperatorMatrix:
    return OperatorMatrix(qubit(), [[1, 0], [0, -1]])


def tensor_ket(v: Ket, w: Ket) -> Ket:
    """Kronecker product of two kets, left index major."""
    return Ket(v.space.tensor(w.space), np.kron(v.amplitudes, w.amplitudes))


def tensor_op(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of two operators: (A (x) B)(v (x) w) = Av (x) Bw."""
    return OperatorMatrix(a.space.tensor(b.space), np.kron(a.matrix, b.matrix))


def bell_states() -> dict[str, Ket]:
    """The four maximally entangled two-qubit states.

    Keys: psi_plus, psi_minus (antisymmetric-flavored pair of |01>, |10>) and
    phi_plus, phi_minus (pair of |00>, |11>).
    """
    q = qubit()
    zero, one = basis_ket(q, 0), basis_ket(q, 1)
    s = 1.0 / np.sqrt(2.0)
    return {
        "psi_plus": s * (tensor_ket(zero, one) + tensor_ket(one, zero)),
        "psi_minus": s * (tensor_ket(zero, one) - tensor_ket(one, zero)),
        "phi_plus": s * (tensor_ket(zero, zero) + tensor_ket(one, one)),
        "phi_minus": s * (tensor_ket(zero, zero) - tensor_ket(one, one)),
    }


def schmidt_decompose(
    state: Ket, d1: int, d2: int, tol: float = DEFAULT_TOL
) -> SchmidtForm:
    """Schmidt decomposition of a normalized bipartite ket.

    The amplitude vector is reshaped to a d1 x d2 matrix (left index major)
    and singular-value decomposed; the singular values are the Schmidt
    coefficients, in descending order.  A tolerance that is not finite and
    positive raises ValueError.
    """
    if d1 * d2 != state.dim:
        raise DimensionMismatch(f"cannot split dim {state.dim} as {d1} x {d2}")
    if not abs(state.norm() - 1.0) <= validation_gate(tol):  # NaN and inf amplitudes fail too
        raise NormalizationError("schmidt_decompose requires a normalized state")
    mat = state.amplitudes.reshape(d1, d2)
    u, s, vh = np.linalg.svd(mat)
    k = min(d1, d2)
    left_space = HilbertSpace.of_dim(d1, prefix="u")
    right_space = HilbertSpace.of_dim(d2, prefix="v")
    left = [Ket(left_space, u[:, j]) for j in range(k)]
    right = [Ket(right_space, vh[j, :]) for j in range(k)]
    return SchmidtForm(coefficients=s[:k], left_vectors=left, right_vectors=right)


def partial_trace(
    rho: OperatorMatrix,
    d1: int,
    d2: int,
    keep: str = "first",
    tol: float = DEFAULT_TOL,
) -> OperatorMatrix:
    """Trace out one factor of a density matrix on a d1 x d2 product space."""
    if keep not in ("first", "second"):
        raise ValueError("keep must be 'first' or 'second'")
    if d1 * d2 != rho.dim:
        raise DimensionMismatch(f"cannot split dim {rho.dim} as {d1} x {d2}")
    gate = validation_gate(tol)
    mat = rho.matrix
    if not abs(np.trace(mat) - 1.0) <= gate:  # NaN and inf entries fail too
        raise TraceError("partial_trace expects a unit-trace matrix")
    if not rho.is_hermitian(gate):
        raise ValueError("partial_trace expects a hermitian matrix")
    blocks = mat.reshape(d1, d2, d1, d2)
    if keep == "first":
        reduced = np.einsum("ijkj->ik", blocks)
        space = HilbertSpace.of_dim(d1, prefix="p")
    else:
        reduced = np.einsum("ijil->jl", blocks)
        space = HilbertSpace.of_dim(d2, prefix="p")
    return OperatorMatrix(space, reduced)


def von_neumann_entropy(rho: OperatorMatrix, tol: float = DEFAULT_TOL) -> float:
    """Entropy -sum_p p log2(p) over eigenvalues above EIGENVALUE_FLOOR."""
    gate = validation_gate(tol)
    if not np.isfinite(rho.matrix).all():
        raise NotPositiveSemidefinite("entropy matrix has non-finite entries")
    if not rho.is_hermitian(gate):
        raise ValueError("entropy expects a hermitian matrix")
    evals = np.linalg.eigvalsh(rho.matrix)
    if evals.min() < -gate:
        raise NotPositiveSemidefinite(
            f"matrix has negative eigenvalue {evals.min():.3e}"
        )
    return spectrum_entropy(evals)


def spectrum_entropy(spectrum: np.ndarray) -> float:
    """-sum_p p log2(p) over the entries of a unit-trace spectrum above
    EIGENVALUE_FLOOR; the rest count as zero."""
    p = spectrum[spectrum > EIGENVALUE_FLOOR]
    if p.size == 0:
        return 0.0
    return float(max(0.0, -np.sum(p * np.log2(p))))


def expectation(state: Ket, op: OperatorMatrix) -> complex:
    """<state|op|state>; real within tol when op is hermitian."""
    if op.dim != state.dim:
        raise DimensionMismatch("state and operator dimensions differ")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))

