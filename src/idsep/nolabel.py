"""Two-particle states of identical particles without constituent labels.

A pair |phi1, phi2> carries an exchange sign eta (+1 bosonic, -1 fermionic)
and no particle indices; the pairing <phi1, phi2 | phi1', phi2'> =
<phi1|phi1'><phi2|phi2'> + eta <phi1|phi2'><phi2|phi1'> replaces explicit
(anti)symmetrization.  A state is a combination of pairs, and it is its
stacked terms: coefficients c (T) and first and second constituents P1, P2
(T x d).  Given pairs are kept minus annihilated terms (a constituent or
coefficient at or below DROP_TOL).  Scaling multiplies c and drops no term
for a nonzero factor; + concatenates two stacks and judges no term again.
Nothing is merged: every reading is linear in the stacked terms, so a fully
cancelled state reads as null.  The pairing loses relative precision as
(sum|c| / |Psi|)^2 (unit constituents); a normalized reading raises
NormalizationError once that loss could pass DEFAULT_TOL.  A reading that
overflows raises instead of giving inf.

In the readings ^* is the conjugate and o the entrywise product.
The scalar product is one matrix product of the concatenated constituents,
c_a^* [(P1_a^* P1_b^T) o (P2_a^* P2_b^T) + eta (P1_a^* P2_b^T) o (P2_a^* P1_b^T)]
c_b.  The extended operator, A|phi1, phi2> -> |A phi1, phi2> + |phi1, A phi2>
(deliberately without a 1/2), maps the stack to 2T terms, and its
expectations are the same pairing.  Every reading that takes an operator
(extended_expectation, product_expectation, pair_factorization_sides,
reduced_expectation) passes it through one gate, ``_observable``:
DimensionMismatch off the single-particle dimension, NonFiniteError on a NaN
or inf entry, ValueError unless hermitian within validation_gate(tol), or
DEFAULT_TOL where the reading takes no tol.
The tensor-product image is Psi = (Psi0 + eta Psi0^T)/sqrt(2) with
Psi0 = P1^T diag(c) P2.  An orthonormal subspace basis B (d x k) gives the
reductions R = P2^T (c o P1 B^*) + eta P1^T (c o P2 B^*) = sqrt(2) Psi^T B^*,
whose column for b is, per pair, <b|phi1> |phi2> + eta <b|phi2> |phi1>; a
probe reduces as a one-column B.  R is one product Q M, with
Q = [P2^T | P1^T] (d x 2T) and M = [c o P1 B^* ; eta c o P2 B^*] (2T x k).
The subspace-reduced density matrix is R R^H / tr(R R^H); its base-2 von
Neumann entropy serves as an entanglement measure.  The entropy is taken
from the small factor: with r the upper factor of a QR of Q, the squares
of the singular values s of r M (at most 2T x k) are the nonzero spectrum
of R R^H, so p = s^2 / sum(s^2) and tr(R R^H) = sum(s^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EtaMismatch,
    NonCommutingError,
    NonFiniteError,
    NormalizationError,
    NullReduction,
    NullState,
)
from .hilbert import (
    DEFAULT_TOL,
    HilbertSpace,
    Ket,
    OperatorMatrix,
    identity_op,
    spectrum_entropy,
    tensor_op,
    validation_gate,
)

#: Terms with a constituent or coefficient at or below this are dropped.
DROP_TOL = 1e-12

#: Squared norms at or below this are treated as null (annihilated) states.
NULL_TOL = 1e-12

BOSON = +1
FERMION = -1


@dataclass(frozen=True, eq=False)
class NoLabelPair:
    """An ordered pair of single-particle kets with exchange sign eta."""

    phi1: Ket
    phi2: Ket
    eta: int

    def __post_init__(self) -> None:
        if self.eta not in (BOSON, FERMION):
            raise ValueError("eta must be +1 (bosons) or -1 (fermions)")
        if self.phi1.space != self.phi2.space:
            raise DimensionMismatch("pair constituents live in different spaces")
        _finite([self.phi1.amplitudes, self.phi2.amplitudes], "pair constituent")

    @property
    def space(self) -> HilbertSpace:
        return self.phi1.space

    def swapped(self) -> "NoLabelPair":
        return NoLabelPair(self.phi2, self.phi1, self.eta)


class NoLabelState:
    """Formal linear combination of pairs sharing one exchange sign.

    The state is its stacked terms, the read-only ``coefficients`` (T) and
    ``constituents`` (2 x T x d: P1, then P2), and the ``space`` of its pairs
    (None for a state built from none).  A non-finite coefficient raises
    NonFiniteError (pairs check their own constituents), so NaN never
    silently drops a term.
    """

    __slots__ = ("eta", "space", "coefficients", "constituents", "_squared_norm")

    def __init__(self, terms, eta: int | None = None) -> None:
        terms = list(terms)
        for _, pair in terms:
            if eta is None:
                eta = pair.eta
            elif pair.eta != eta:
                raise EtaMismatch("all terms must share one exchange sign")
        if eta is None:
            raise ValueError("an empty state needs an explicit eta")
        pairs = [p for _, p in terms]
        if len({p.space.dim for p in pairs}) > 1:
            raise DimensionMismatch("state terms live in different spaces")
        space = pairs[0].space if pairs else None
        amps = np.array(
            [[p.phi1.amplitudes for p in pairs], [p.phi2.amplitudes for p in pairs]],
            dtype=np.complex128,
        ).reshape(2, len(pairs), space.dim if pairs else 0)
        coeffs = np.array([complex(c) for c, _ in terms], dtype=np.complex128)
        # a zero constituent annihilates the term: its coefficient becomes 0
        # (or NaN, which _keep rejects); a norm that overflows is inf, and live
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs *= (np.linalg.norm(amps, axis=2) > DROP_TOL).all(axis=0)
        self._keep(int(eta), space, coeffs, amps, DROP_TOL)

    def _keep(self, eta: int, space, coefficients, constituents, tol=0.0) -> "NoLabelState":
        """The one construction path: store the stacked terms minus those with
        a coefficient at or below ``tol`` and return ``self``.  DROP_TOL judges
        given input; the terms of a state are judged already, so 0.0."""
        if not np.isfinite(coefficients).all():  # given, or overflowed in __mul__
            raise NonFiniteError("state coefficient is not finite")
        keep = np.abs(coefficients) > tol
        if not keep.all():
            coefficients, constituents = coefficients[keep], constituents[:, keep]
        coefficients.flags.writeable = constituents.flags.writeable = False
        self.eta, self.space = eta, space
        self.coefficients, self.constituents = coefficients, constituents
        self._squared_norm = None  # computed when first read
        return self

    @classmethod
    def from_pair(cls, pair: NoLabelPair, coefficient: complex = 1.0) -> "NoLabelState":
        return cls([(coefficient, pair)], eta=pair.eta)

    def squared_norm(self) -> float:
        if self._squared_norm is None:  # inf or NaN on overflow, gated by readers
            c, stack = self.coefficients, self.constituents
            self._squared_norm = _pairing(self.eta, c, stack, c, stack).real
        return self._squared_norm

    def is_null(self) -> bool:
        return _finite_squared_norm(self) <= NULL_TOL

    def normalized(self) -> "NoLabelState":
        return self * (1.0 / np.sqrt(_require_live(self)))

    def __add__(self, other: "NoLabelState") -> "NoLabelState":
        if other.eta != self.eta:
            raise EtaMismatch("cannot add states with different exchange signs")
        if not len(other.coefficients):
            return self
        if not len(self.coefficients):
            return other
        if other.space.dim != self.space.dim:
            raise DimensionMismatch("cannot add states of different dimensions")
        coeffs = np.concatenate([self.coefficients, other.coefficients])
        stack = np.concatenate([self.constituents, other.constituents], axis=1)
        return object.__new__(NoLabelState)._keep(self.eta, self.space, coeffs, stack)

    def __mul__(self, scalar: complex) -> "NoLabelState":
        # a nonzero factor annihilates no term, however small the
        # coefficients become; only exact zeros are dropped
        with np.errstate(over="ignore", invalid="ignore"):  # _keep rejects inf, NaN
            coeffs = self.coefficients * complex(scalar)
        return object.__new__(NoLabelState)._keep(self.eta, self.space, coeffs, self.constituents)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover
        return f"NoLabelState(eta={self.eta:+d}, terms={len(self.coefficients)})"


def _as_state(x: NoLabelPair | NoLabelState) -> NoLabelState:
    return NoLabelState.from_pair(x) if isinstance(x, NoLabelPair) else x


def _pairing(
    eta: int, ca: np.ndarray, sa: np.ndarray, cb: np.ndarray, sb: np.ndarray
) -> complex:
    """The pairing of two stacked states; ``sa``, ``sb`` are (2, T, d) stacks.
    An overflow comes back as inf or NaN, for the caller to reject."""
    ta, tb, dim = len(ca), len(cb), sa.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = sa.reshape(2 * ta, dim).conj() @ sb.reshape(2 * tb, dim).T
        direct = gram[:ta, :tb] * gram[ta:, tb:]
        exchanged = gram[:ta, tb:] * gram[ta:, :tb]
        return complex(ca.conj() @ (direct + eta * exchanged) @ cb)


def _finite(values, what: str):
    """``values`` unchanged, or NonFiniteError on any inf or NaN entry."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} is not finite")
    return values


def _observable(a: OperatorMatrix, dim: int, gate: float) -> np.ndarray:
    """The matrix of ``a`` once it is an observable of dimension ``dim``: the
    one operator gate of the readings (see the module docstring)."""
    if a.dim != dim:
        raise DimensionMismatch("operator does not fit the single-particle space")
    if not a.is_hermitian(gate):  # NonFiniteError on a NaN or inf entry
        raise ValueError("operator must be hermitian")
    return a.matrix


def nl_inner(
    a: NoLabelPair | NoLabelState, b: NoLabelPair | NoLabelState
) -> complex:
    """Scalar product, extended sesquilinearly from the pair pairing."""
    sa, sb = _as_state(a), _as_state(b)
    if sa.eta != sb.eta:
        raise EtaMismatch("scalar product needs matching exchange signs")
    if not (len(sa.coefficients) and len(sb.coefficients)):
        return 0j
    if sa.space.dim != sb.space.dim:
        raise DimensionMismatch("states live in different dimensions")
    pairing = _pairing(
        sa.eta, sa.coefficients, sa.constituents, sb.coefficients, sb.constituents
    )
    return _finite(pairing, "scalar product")


def to_first_quantized(x: NoLabelPair | NoLabelState) -> Ket:
    """Tensor-product image Psi, raveled row-major.

    Each term maps to (|p1>(x)|p2> + eta |p2>(x)|p1>)/sqrt(2).  The image is
    intentionally unnormalized; its squared norm equals nl_inner(x, x).
    """
    state = _as_state(x)
    if not len(state.coefficients):
        raise NullState("cannot embed an empty state")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects inf, NaN
        psi = (state.constituents[0].T * state.coefficients) @ state.constituents[1]
        psi = (psi + state.eta * psi.T) / np.sqrt(2.0)
    space = state.space
    return Ket(space.tensor(space), _finite(psi, "tensor-product image").ravel())


def extend_operator_matrix(a: OperatorMatrix) -> OperatorMatrix:
    """Tensor-product matrix A (x) 1 + 1 (x) A of the extended operator."""
    eye = identity_op(a.space)
    return tensor_op(a, eye) + tensor_op(eye, a)


def _extended(
    a: np.ndarray, coeffs: np.ndarray, stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked terms of the extended operator: (A p1, p2), (p1, A p2) per term,
    for a matrix ``a`` that ``_observable`` has passed."""
    out = np.repeat(stack, 2, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        out[0, ::2] = stack[0] @ a.T
        out[1, 1::2] = stack[1] @ a.T
    return np.repeat(coeffs, 2), _finite(out, "operator action")


def reduce_to_one_particle(
    probe: Ket, state: NoLabelPair | NoLabelState
) -> Ket:
    """Overlap reduction: per pair, <probe|phi1> |phi2> + eta <probe|phi2> |phi1>."""
    s = _as_state(state)
    if not len(s.coefficients):
        raise NullState("cannot reduce an empty state")
    if probe.dim != s.space.dim:
        raise DimensionMismatch("probe does not fit the single-particle space")
    _finite(probe.amplitudes, "probe")
    with np.errstate(over="ignore", invalid="ignore"):
        factor, weighted = _reduction_factors(s, probe.amplitudes[:, None])
        reduced = (factor @ weighted)[:, 0]
    return Ket(s.space, _finite(reduced, "reduction"))


def _reduction_factors(
    s: NoLabelState, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Q = [P2^T | P1^T] (d x 2T) and M = [c o P1 B^* ; eta c o P2 B^*] (2T x k),
    whose product R = Q M has the reduction by b_k as column k."""
    stack = s.constituents.reshape(-1, s.constituents.shape[2])  # rows P1, then P2
    signed = np.concatenate([s.coefficients, s.eta * s.coefficients])[:, None]
    swapped = s.constituents[::-1].reshape(stack.shape)  # rows P2, then P1
    return swapped.T, signed * (stack @ basis.conj())


def _gated_reduction(
    state: NoLabelPair | NoLabelState, subspace_basis: list[Ket], tol: float
) -> tuple[NoLabelState, np.ndarray, np.ndarray, np.ndarray]:
    """The state, the basis as columns B and the factors Q, M of its reductions.

    Every check on a subspace reduction lives here, so the density matrix and
    the entropy reject the same inputs in the same order.
    """
    s = _as_state(state)
    if not len(s.coefficients):
        raise NullState("cannot reduce an empty state")
    if not subspace_basis:
        raise ValueError("subspace basis must be nonempty")
    if {k.dim for k in subspace_basis} != {s.space.dim}:
        raise DimensionMismatch("subspace basis does not fit the single-particle space")
    basis = np.array([k.amplitudes for k in subspace_basis]).T
    gate = validation_gate(tol)
    gram = basis.conj().T @ basis
    if not np.abs(gram - np.eye(len(subspace_basis))).max() <= gate:  # NaN fails too
        raise ValueError("subspace basis must be orthonormal within tol")
    if not abs(s.squared_norm() - 1.0) <= gate:
        raise NormalizationError("the subspace reduction requires a normalized state")
    return (s, basis, *_reduction_factors(s, basis))


def _reduction_normalization(weight: float) -> float:
    """Half the reduction weight tr(R R^H); NullReduction when it vanishes."""
    normalization = 0.5 * weight
    if normalization <= NULL_TOL:
        raise NullReduction("subspace projection annihilates the state")
    return normalization


@dataclass
class ReducedDM:
    """Subspace-reduced one-particle density matrix and its bookkeeping;
    ``subspace_basis`` holds the basis reduced over as columns (d x k)."""

    matrix: OperatorMatrix
    subspace_basis: np.ndarray
    normalization: float


def subspace_reduced_dm(
    state: NoLabelPair | NoLabelState,
    subspace_basis: list[Ket],
    tol: float = DEFAULT_TOL,
) -> ReducedDM:
    """Reduced one-particle density matrix over a subspace.

    Sums |r_k><r_k| over the reductions r_k of the normalized state by each
    subspace basis vector, then divides by the trace (twice the reduction
    weight).  Raises NullReduction when the subspace annihilates the state,
    in which case no density matrix (and no entropy) exists.
    """
    s, basis, factor, weighted = _gated_reduction(state, subspace_basis, tol)
    reduced = factor @ weighted
    accum = reduced @ reduced.conj().T
    weight = float(np.trace(accum).real)
    normalization = _reduction_normalization(weight)
    return ReducedDM(OperatorMatrix(s.space, accum / weight), basis, normalization)


def entanglement_entropy(
    state: NoLabelPair | NoLabelState,
    subspace_basis: list[Ket],
    tol: float = DEFAULT_TOL,
) -> float:
    """Base-2 entropy of the subspace-reduced density matrix.

    Taken from the singular values of the small factor r M (see the module
    docstring), never from a d x d eigenproblem.  Depends on the subspace
    only, not on the basis chosen inside it.
    """
    _, _, factor, weighted = _gated_reduction(state, subspace_basis, tol)
    r = np.linalg.qr(factor, mode="r")
    squared = np.linalg.svd(r @ weighted, compute_uv=False) ** 2
    weight = float(squared.sum())
    _reduction_normalization(weight)
    return spectrum_entropy(squared / weight)


def _finite_squared_norm(s: NoLabelState) -> float:
    n2 = s.squared_norm()
    if not np.isfinite(n2):  # e.g. inf - inf in the pairing of huge kets
        raise NormalizationError("squared norm of the state is not finite")
    return n2


def _require_live(s: NoLabelState) -> float:
    n2 = _finite_squared_norm(s)
    if n2 <= NULL_TOL:
        raise NullState("state is null: squared norm at or below NULL_TOL")
    # the pairing rounds at about eps (sum |c| |p1| |p2|)^2: see the module docstring
    spread = float(np.abs(s.coefficients) @ np.linalg.norm(s.constituents, axis=2).prod(axis=0))
    if n2 * DEFAULT_TOL < np.finfo(float).eps * spread * spread:
        raise NormalizationError("state cancels below the rounding of its terms")
    return n2


def extended_expectation(
    state: NoLabelPair | NoLabelState,
    a: OperatorMatrix,
    tol: float = DEFAULT_TOL,
) -> float:
    """Normalized expectation of the extended operator.

    For a single pair of unit kets this equals
    [<phi1|A|phi1> + <phi2|A|phi2> + 2 eta Re(<phi2|A|phi1><phi1|phi2>)] / N
    with N the pair's squared norm.  The identity gives 2: the extension
    counts both particles.  The operator passes the one gate at
    validation_gate(tol).
    """
    s = _as_state(state)
    n2 = _require_live(s)
    matrix = _observable(a, s.space.dim, validation_gate(tol))
    lifted = _extended(matrix, s.coefficients, s.constituents)
    pairing = _finite(_pairing(s.eta, s.coefficients, s.constituents, *lifted), "expectation")
    return float((pairing / n2).real)


def product_expectation(
    state: NoLabelPair | NoLabelState,
    op1: OperatorMatrix,
    op2: OperatorMatrix,
) -> complex:
    """Normalized expectation of the product of two extended observables,
    each passed through the one gate at DEFAULT_TOL."""
    s = _as_state(state)
    n2 = _require_live(s)
    o1, o2 = (_observable(op, s.space.dim, DEFAULT_TOL) for op in (op1, op2))
    lifted = _extended(o1, *_extended(o2, s.coefficients, s.constituents))
    pairing = _finite(_pairing(s.eta, s.coefficients, s.constituents, *lifted), "expectation")
    return complex(pairing / n2)


def reduced_expectation(reduced: ReducedDM, a: OperatorMatrix) -> float:
    """Trace of the reduced density matrix against a hermitian observable.

    Over the full single-particle space this is exactly half of
    extended_expectation: the trace sees one particle, the extension both.
    The observable passes the one gate at DEFAULT_TOL.
    """
    matrix = _observable(a, reduced.matrix.dim, DEFAULT_TOL)
    return float(np.sum(reduced.matrix.matrix * matrix.T).real)


def pair_factorization_sides(
    state: NoLabelPair | NoLabelState,
    op1: OperatorMatrix,
    op2: OperatorMatrix,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """The two sides of the factorization criterion for commuting observables.

    For a single pair of orthonormal unit constituents, expectation values of
    the two extended observables factorize exactly when

        <p1|O1 O2|p1> + <p2|O1 O2|p2> + 2 eta Re(<p1|O1|p2><p2|O2|p1>)
            = <p1|O1|p1><p1|O2|p1> + <p2|O2|p2><p2|O1|p2>,

    both sides of which are returned (left, right).  The common cross terms
    of the full product expectation cancel against the marginals, so the
    difference of the returned sides equals the full factorization defect.

    Both observables pass the one gate at validation_gate(tol), and they
    commute by the relative rule of algebra.subalgebras_commute:
    ||[O1, O2]||_2 <= gate ||O1||_2 ||O2||_2, else NonCommutingError.
    """
    s = _as_state(state)
    if len(s.coefficients) != 1:
        raise ValueError("factorization sides are defined for single-pair states")
    _require_live(s)
    gate = validation_gate(tol)
    o1, o2 = (_observable(op, s.space.dim, gate) for op in (op1, op2))
    comm = np.linalg.norm(o1 @ o2 - o2 @ o1, 2)
    if not comm <= gate * np.linalg.norm(o1, 2) * np.linalg.norm(o2, 2):
        raise NonCommutingError("observables must commute")
    v1, v2 = s.constituents[:, 0]
    if not all(abs(np.linalg.norm(v) - 1.0) <= gate for v in (v1, v2)):
        raise ValueError("pair constituents must be unit vectors")
    if not abs(np.vdot(v1, v2)) <= gate:
        raise ValueError("pair constituents must be orthogonal")

    o12 = o1 @ o2
    lhs = (
        np.vdot(v1, o12 @ v1)
        + np.vdot(v2, o12 @ v2)
        + 2.0 * s.eta * np.real(np.vdot(v1, o1 @ v2) * np.vdot(v2, o2 @ v1))
    )
    rhs = np.vdot(v1, o1 @ v1) * np.vdot(v1, o2 @ v1) + np.vdot(
        v2, o2 @ v2
    ) * np.vdot(v2, o1 @ v2)
    return float(np.real(lhs)), float(np.real(rhs))
