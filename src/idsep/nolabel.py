"""Two-particle states of identical particles without constituent labels.

A pair |phi1, phi2> carries an exchange sign eta (+1 bosonic, -1 fermionic)
and no particle indices.  The sesquilinear pairing

    <phi1, phi2 | phi1', phi2'> = <phi1|phi1'><phi2|phi2'>
                                  + eta <phi1|phi2'><phi2|phi1'>

replaces explicit (anti)symmetrization; under constituent exchange a pair
picks up the factor eta, and linear combinations of pairs are canonicalized
accordingly.  Such a state corresponds, in the ordinary tensor-product
formalism, to the unnormalized ket (|phi1> (x) |phi2> + eta |phi2> (x)
|phi1>) / sqrt(2), whose squared norm for unit constituents is
1 + eta |<phi1|phi2>|^2.

A single-particle operator A acts on a pair symmetrically,
A |phi1, phi2> -> |A phi1, phi2> + |phi1, A phi2> (the "extended" operator,
deliberately without a 1/2), and a probe vector psi reduces a pair to one
particle via <psi|phi1> |phi2> + eta <psi|phi2> |phi1>.  Summing reductions
over an orthonormal basis of a subspace and normalizing yields the
subspace-reduced one-particle density matrix whose base-2 von Neumann
entropy serves as an entanglement measure.
"""

from __future__ import annotations

import cmath
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
    tensor_op,
    von_neumann_entropy,
)

#: Terms whose pairs agree entrywise within this tolerance are merged.
MERGE_TOL = 1e-12

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
        if not (
            np.isfinite(self.phi1.amplitudes).all()
            and np.isfinite(self.phi2.amplitudes).all()
        ):
            raise NonFiniteError("pair constituent has non-finite amplitudes")

    @property
    def space(self) -> HilbertSpace:
        return self.phi1.space

    def squared_norm(self) -> float:
        return float(_pair_inner(self, self).real)

    def is_null(self) -> bool:
        """True for annihilated pairs, e.g. a fermionic pair of parallel kets."""
        return self.squared_norm() <= NULL_TOL

    def swapped(self) -> "NoLabelPair":
        return NoLabelPair(self.phi2, self.phi1, self.eta)


def _pair_inner(a: NoLabelPair, b: NoLabelPair) -> complex:
    direct = a.phi1.inner(b.phi1) * a.phi2.inner(b.phi2)
    exchanged = a.phi1.inner(b.phi2) * a.phi2.inner(b.phi1)
    return direct + a.eta * exchanged


def _pairs_match(phi1: Ket, phi2: Ket, b: NoLabelPair) -> bool:
    return bool(
        np.allclose(phi1.amplitudes, b.phi1.amplitudes, rtol=0.0, atol=MERGE_TOL)
        and np.allclose(phi2.amplitudes, b.phi2.amplitudes, rtol=0.0, atol=MERGE_TOL)
    )


class NoLabelState:
    """Formal linear combination of pairs sharing one exchange sign.

    Terms are canonicalized on construction: a term whose pair equals an
    earlier one (or equals it with constituents swapped, which contributes an
    extra factor eta) is merged into it, and vanishing terms are dropped.  A
    non-finite coefficient raises NonFiniteError (pairs check their own
    constituents), so NaN never silently drops a term.
    """

    __slots__ = ("terms", "eta")

    def __init__(self, terms, eta: int | None = None) -> None:
        terms = list(terms)
        for _, pair in terms:
            if eta is None:
                eta = pair.eta
            elif pair.eta != eta:
                raise EtaMismatch("all terms must share one exchange sign")
        if eta is None:
            raise ValueError("an empty state needs an explicit eta")
        self.eta = int(eta)

        merged: list[tuple[complex, NoLabelPair]] = []
        for coeff, pair in terms:
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise NonFiniteError("state coefficient is not finite")
            if pair.phi1.norm() <= MERGE_TOL or pair.phi2.norm() <= MERGE_TOL:
                continue  # a zero constituent annihilates the term
            for i, (c0, p0) in enumerate(merged):
                if _pairs_match(pair.phi1, pair.phi2, p0):
                    merged[i] = (c0 + coeff, p0)
                    break
                if _pairs_match(pair.phi2, pair.phi1, p0):
                    merged[i] = (c0 + self.eta * coeff, p0)
                    break
            else:
                merged.append((coeff, pair))
        self.terms = tuple(
            (c, p) for c, p in merged if abs(c) > MERGE_TOL
        )

    @classmethod
    def from_pair(cls, pair: NoLabelPair, coefficient: complex = 1.0) -> "NoLabelState":
        return cls([(coefficient, pair)], eta=pair.eta)

    @property
    def space(self) -> HilbertSpace | None:
        return self.terms[0][1].space if self.terms else None

    def squared_norm(self) -> float:
        return float(nl_inner(self, self).real)

    def is_null(self) -> bool:
        return self.squared_norm() <= NULL_TOL

    def normalized(self) -> "NoLabelState":
        n2 = self.squared_norm()
        if n2 <= NULL_TOL:
            raise NullState("cannot normalize a null state")
        return self * (1.0 / np.sqrt(n2))

    def __add__(self, other: "NoLabelState") -> "NoLabelState":
        if other.eta != self.eta:
            raise EtaMismatch("cannot add states with different exchange signs")
        return NoLabelState(list(self.terms) + list(other.terms), eta=self.eta)

    def __mul__(self, scalar: complex) -> "NoLabelState":
        return NoLabelState(
            [(c * complex(scalar), p) for c, p in self.terms], eta=self.eta
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover
        return f"NoLabelState(eta={self.eta:+d}, terms={len(self.terms)})"


def _as_state(x: NoLabelPair | NoLabelState) -> NoLabelState:
    return NoLabelState.from_pair(x) if isinstance(x, NoLabelPair) else x


def nl_inner(
    a: NoLabelPair | NoLabelState, b: NoLabelPair | NoLabelState
) -> complex:
    """Scalar product, extended sesquilinearly from the pair pairing."""
    sa, sb = _as_state(a), _as_state(b)
    if sa.eta != sb.eta:
        raise EtaMismatch("scalar product needs matching exchange signs")
    total = 0.0 + 0.0j
    for ca, pa in sa.terms:
        for cb, pb in sb.terms:
            total += np.conj(ca) * cb * _pair_inner(pa, pb)
    return complex(total)


def to_first_quantized(x: NoLabelPair | NoLabelState) -> Ket:
    """Tensor-product image (Psi + eta Psi^T)/sqrt(2), raveled row-major.

    Psi = sum_t c_t p1_t p2_t^T is the d x d amplitude matrix of the terms,
    so each term maps to (|p1>(x)|p2> + eta |p2>(x)|p1>)/sqrt(2).  The image
    is intentionally unnormalized; its squared norm equals nl_inner(x, x).
    """
    state = _as_state(x)
    if not state.terms:
        raise ValueError("cannot embed an empty state")
    coeffs, pairs = zip(*state.terms)
    p1 = np.array([p.phi1.amplitudes for p in pairs])
    p2 = np.array([p.phi2.amplitudes for p in pairs])
    psi = np.einsum("t,ti,tj->ij", np.array(coeffs), p1, p2)
    space = state.space
    return Ket(space.tensor(space), ((psi + state.eta * psi.T) / np.sqrt(2.0)).ravel())


def extend_operator_matrix(a: OperatorMatrix) -> OperatorMatrix:
    """Tensor-product matrix A (x) 1 + 1 (x) A of the extended operator."""
    eye = identity_op(a.space)
    return tensor_op(a, eye) + tensor_op(eye, a)


def extend_one_particle_op(
    a: OperatorMatrix, state: NoLabelPair | NoLabelState
) -> NoLabelState:
    """Symmetric action of a single-particle operator on a two-particle state.

    Each pair maps to |A phi1, phi2> + |phi1, A phi2>, coefficients carried
    through.  Note the identity maps a state to twice itself.
    """
    s = _as_state(state)
    if s.space is not None and a.dim != s.space.dim:
        raise DimensionMismatch("operator does not fit the single-particle space")
    new_terms: list[tuple[complex, NoLabelPair]] = []
    for c, p in s.terms:
        new_terms.append((c, NoLabelPair(a.apply(p.phi1), p.phi2, s.eta)))
        new_terms.append((c, NoLabelPair(p.phi1, a.apply(p.phi2), s.eta)))
    return NoLabelState(new_terms, eta=s.eta)


def reduce_to_one_particle(
    probe: Ket, state: NoLabelPair | NoLabelState
) -> Ket:
    """Overlap reduction: per pair, <probe|phi1> |phi2> + eta <probe|phi2> |phi1>."""
    s = _as_state(state)
    if s.space is None:
        raise ValueError("cannot reduce an empty state")
    if probe.dim != s.space.dim:
        raise DimensionMismatch("probe does not fit the single-particle space")
    out = np.zeros(s.space.dim, dtype=np.complex128)
    for c, p in s.terms:
        out += c * (
            probe.inner(p.phi1) * p.phi2.amplitudes
            + s.eta * probe.inner(p.phi2) * p.phi1.amplitudes
        )
    return Ket(s.space, out)


@dataclass
class ReducedDM:
    """Subspace-reduced one-particle density matrix and its bookkeeping."""

    matrix: OperatorMatrix
    subspace_projector: OperatorMatrix
    normalization: float


def _check_orthonormal(basis: list[Ket], tol: float) -> None:
    gram = np.array(
        [[u.inner(v) for v in basis] for u in basis], dtype=np.complex128
    )
    if not np.abs(gram - np.eye(len(basis))).max() <= tol:  # NaN fails too
        raise ValueError("subspace basis must be orthonormal within tol")


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
    s = _as_state(state)
    if s.space is None:
        raise ValueError("cannot reduce an empty state")
    if not subspace_basis:
        raise ValueError("subspace basis must be nonempty")
    gate = max(tol, DEFAULT_TOL)  # validation floor: float precision
    _check_orthonormal(subspace_basis, gate)
    if not abs(s.squared_norm() - 1.0) <= gate:
        raise NormalizationError("subspace_reduced_dm requires a normalized state")

    dim = s.space.dim
    accum = np.zeros((dim, dim), dtype=np.complex128)
    projector = np.zeros((dim, dim), dtype=np.complex128)
    for psi in subspace_basis:
        reduced = reduce_to_one_particle(psi, s).amplitudes
        accum += np.outer(reduced, np.conj(reduced))
        projector += np.outer(psi.amplitudes, np.conj(psi.amplitudes))
    weight = float(np.trace(accum).real)
    normalization = 0.5 * weight
    if normalization <= NULL_TOL:
        raise NullReduction("subspace projection annihilates the state")
    return ReducedDM(
        matrix=OperatorMatrix(s.space, accum / weight),
        subspace_projector=OperatorMatrix(s.space, projector),
        normalization=normalization,
    )


def entanglement_entropy(
    state: NoLabelPair | NoLabelState,
    subspace_basis: list[Ket],
    tol: float = DEFAULT_TOL,
) -> float:
    """Base-2 entropy of the subspace-reduced density matrix.

    Depends on the subspace only, not on the basis chosen inside it.
    """
    reduced = subspace_reduced_dm(state, subspace_basis, tol=tol)
    return von_neumann_entropy(reduced.matrix, tol=max(tol, DEFAULT_TOL))


def _require_live(s: NoLabelState) -> float:
    n2 = s.squared_norm()
    if not np.isfinite(n2):  # e.g. inf - inf in the pairing of huge kets
        raise NormalizationError("squared norm of the state is not finite")
    if n2 <= NULL_TOL:
        raise NullState("expectation undefined on a null state")
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
    counts both particles.
    """
    if not a.is_hermitian(max(tol, DEFAULT_TOL)):
        raise ValueError("extended_expectation expects a hermitian operator")
    s = _as_state(state)
    n2 = _require_live(s)
    value = nl_inner(s, extend_one_particle_op(a, s)) / n2
    return float(value.real)


def product_expectation(
    state: NoLabelPair | NoLabelState,
    op1: OperatorMatrix,
    op2: OperatorMatrix,
) -> complex:
    """Normalized expectation of the product of two extended operators."""
    s = _as_state(state)
    n2 = _require_live(s)
    lifted = extend_one_particle_op(op1, extend_one_particle_op(op2, s))
    return complex(nl_inner(s, lifted) / n2)


def reduced_expectation(reduced: ReducedDM, a: OperatorMatrix) -> float:
    """Trace of the reduced density matrix against a hermitian observable.

    Over the full single-particle space this is exactly half of
    extended_expectation: the trace sees one particle, the extension both.
    """
    if a.dim != reduced.matrix.dim:
        raise DimensionMismatch("operator does not fit the single-particle space")
    return float(np.trace(reduced.matrix.matrix @ a.matrix).real)


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
    """
    s = _as_state(state)
    if len(s.terms) != 1:
        raise ValueError("factorization sides are defined for single-pair states")
    _require_live(s)
    gate = max(tol, DEFAULT_TOL)  # validation floor: float precision
    if not (op1.is_hermitian(gate) and op2.is_hermitian(gate)):
        raise ValueError("observables must be hermitian")
    comm = op1.matrix @ op2.matrix - op2.matrix @ op1.matrix
    if not np.abs(comm).max() <= gate:
        raise NonCommutingError("observables must commute")
    _, pair = s.terms[0]
    p1, p2 = pair.phi1, pair.phi2
    if not (abs(p1.norm() - 1.0) <= gate and abs(p2.norm() - 1.0) <= gate):
        raise ValueError("pair constituents must be unit vectors")
    if not abs(p1.inner(p2)) <= gate:
        raise ValueError("pair constituents must be orthogonal")

    o1, o2 = op1.matrix, op2.matrix
    o12 = o1 @ o2
    v1, v2 = p1.amplitudes, p2.amplitudes
    lhs = (
        np.vdot(v1, o12 @ v1)
        + np.vdot(v2, o12 @ v2)
        + 2.0 * s.eta * np.real(np.vdot(v1, o1 @ v2) * np.vdot(v2, o2 @ v1))
    )
    rhs = np.vdot(v1, o1 @ v1) * np.vdot(v1, o2 @ v1) + np.vdot(
        v2, o2 @ v2
    ) * np.vdot(v2, o1 @ v2)
    return float(np.real(lhs)), float(np.real(rhs))
