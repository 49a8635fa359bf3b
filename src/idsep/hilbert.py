"""Finite-dimensional complex linear algebra for quantum states and observables.

Kets and dense operators over labeled orthonormal bases, tensor products,
Schmidt decomposition, partial trace and von Neumann entropy.  Entropies are
in bits (base-2 logarithm).  Tensor products are row-major: the left factor
supplies the major index.  All objects are treated as immutable after
construction and are safe to share between threads.  The kernels row_norms,
unit_rows, inner_rows, operator_norms, schmidt_factors and schmidt_sum take
leading axes, a stack of rows or matrices; Ket, schmidt_decompose and
SchmidtForm call them with none.  operator_norms is the one place where
operator 2-norms are taken.
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

#: rows per strip in which OperatorMatrix.is_hermitian compares A with A^dag
_HERMITIAN_STRIP = 64


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


def row_norms(amplitudes: np.ndarray) -> np.ndarray:
    """Euclidean norms (...) of amplitude rows (..., d), as sqrt(re.re + im.im):
    the kernel of Ket.norm, bit for bit the value of np.linalg.norm."""
    re, im = amplitudes.real[..., None, :], amplitudes.imag[..., None, :]
    squared = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(squared[..., 0, 0])


def unit_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Amplitude rows (..., d) divided by their norms: the kernel of
    Ket.normalized.  A norm at or below EIGENVALUE_FLOOR, or not finite, raises
    NormalizationError."""
    norms = row_norms(amplitudes)
    if not ((EIGENVALUE_FLOOR < norms) & (norms < np.inf)).all():  # NaN fails too
        raise NormalizationError("cannot normalize a (near-)zero or non-finite vector")
    return amplitudes / norms[..., None]


def inner_rows(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Scalar products <bra|ket> (...) of amplitude rows (..., d), antilinear in
    ``bra``: the kernel of Ket.inner."""
    return (bra.conj()[..., None, :] @ ket[..., :, None])[..., 0, 0]


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Operator 2-norms (...) of matrices (..., r, c), their largest singular
    values; a matrix with no entries reads 0.0.  A matrix with at most one
    nonzero entry in each row and each column (zero, diagonal and
    permutation-like matrices) is a direct sum of 1 x 1 blocks, so its norm
    is exactly its largest modulus; every other matrix of the stack goes
    through one batched SVD.  A NaN or inf entry raises NonFiniteError before
    any SVD runs."""
    norms = np.asarray(np.abs(stack).max(axis=(-2, -1), initial=0.0))  # 0-d for one matrix
    # a NaN or inf entry reads NaN or inf here, and so does a finite complex
    # entry whose modulus overflows; np.isfinite tells them apart
    if not (norms < np.inf).all() and not np.isfinite(stack).all():
        raise NonFiniteError("matrix is not finite")
    nonzero = stack != 0
    dense = (nonzero.sum(axis=-1, dtype=np.int32) > 1).any(axis=-1) | (
        nonzero.sum(axis=-2, dtype=np.int32) > 1
    ).any(axis=-1)
    if dense.any():
        norms[dense] = np.linalg.norm(stack[dense], 2, axis=(-2, -1))
    return norms


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
        return float(row_norms(self.amplitudes))

    def normalized(self) -> "Ket":
        return Ket(self.space, unit_rows(self.amplitudes))

    def inner(self, other: "Ket") -> complex:
        """<self|other>, antilinear in self."""
        if other.dim != self.dim:
            raise DimensionMismatch("kets live in different dimensions")
        return complex(inner_rows(self.amplitudes, other.amplitudes))

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
        """Whether every entry of A - A^dag is at most ``tol`` times the largest
        entry of A in modulus, so the test does not depend on A's scale.
        A NaN or inf entry raises NonFiniteError before A - A^dag is formed;
        when a finite entry's modulus overflows, A / 2 is judged, for the same
        verdict.  A - A^dag is anti-hermitian, so it is read over the upper
        triangle only, in strips of _HERMITIAN_STRIP rows, and no full
        strided copy of A^dag is made."""
        mat = self.matrix
        scale = np.abs(mat).max()
        if not scale < np.inf:
            if not np.isfinite(mat).all():
                raise NonFiniteError("operator matrix is not finite")
            mat = mat / 2  # the moduli of finite entries are below 2 * float max
            scale = np.abs(mat).max()
        asymmetry = 0.0
        # near the top of the float range A - A^dag can overflow; an inf
        # difference exceeds tol * scale, so it reads as not hermitian
        with np.errstate(over="ignore"):
            for top in range(0, len(mat), _HERMITIAN_STRIP):
                rows = mat[top:top + _HERMITIAN_STRIP, top:]
                mirror = mat[top:, top:top + _HERMITIAN_STRIP].conj().T
                asymmetry = max(asymmetry, np.abs(rows - mirror).max())
        return bool(asymmetry <= tol * scale)

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

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

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
        return schmidt_sum(u, self.coefficients, v)


def schmidt_sum(u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """Amplitudes (..., d1 d2) of sum_j s_j |u_j> (x) |v_j>, raveled row-major,
    from columns u (..., d1, k), coefficients s (..., k) and rows vh (..., k, d2):
    the kernel of SchmidtForm.reconstruct_amplitudes."""
    product = (u * s[..., None, :]) @ vh
    return product.reshape(*product.shape[:-2], -1)


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
    u, s, vh = schmidt_factors(state.amplitudes, d1, d2, tol)
    left_space = HilbertSpace.of_dim(d1, prefix="u")
    right_space = HilbertSpace.of_dim(d2, prefix="v")
    left = [Ket(left_space, column) for column in u.T]
    right = [Ket(right_space, row) for row in vh]
    return SchmidtForm(coefficients=s, left_vectors=left, right_vectors=right)


def schmidt_factors(
    amplitudes: np.ndarray, d1: int, d2: int, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Schmidt factors of normalized amplitude rows (..., d1 d2): columns
    u (..., d1, k), coefficients s (..., k) and rows vh (..., k, d2), with
    k = min(d1, d2), from one SVD of the rows as d1 x d2 matrices.  The kernel
    of schmidt_decompose, with its checks: DimensionMismatch unless d1 d2 is
    the row length, NormalizationError unless every row is a unit vector
    within validation_gate(tol)."""
    dim = amplitudes.shape[-1]
    if d1 * d2 != dim:
        raise DimensionMismatch(f"cannot split dim {dim} as {d1} x {d2}")
    norms = row_norms(amplitudes)
    if not (np.abs(norms - 1.0) <= validation_gate(tol)).all():  # NaN and inf fail too
        raise NormalizationError("schmidt_decompose requires a normalized state")
    u, s, vh = np.linalg.svd(amplitudes.reshape(*amplitudes.shape[:-1], d1, d2))
    k = s.shape[-1]
    return u[..., :k], s, vh[..., :k, :]


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

