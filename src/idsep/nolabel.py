"""Two-particle states of identical particles without constituent labels.

A pair |phi1, phi2> carries an exchange sign eta (+1 bosonic, -1 fermionic)
and no particle indices; the pairing <phi1, phi2 | phi1', phi2'> =
<phi1|phi1'><phi2|phi2'> + eta <phi1|phi2'><phi2|phi1'> replaces explicit
(anti)symmetrization.  A state is a combination of pairs, and it is its
stacked terms: coefficients c (T) and first and second constituents P1, P2
(T x d).  A pair is an input record: the state's list constructor judges
it once, and every reading takes a state.  Given pairs are kept minus
annihilated terms (a constituent or coefficient at or below DROP_TOL).
Scaling multiplies c and drops no term for a nonzero factor; + concatenates
two stacks and judges no term again.
Nothing is merged: every reading is linear in the stacked terms, so a fully
cancelled state reads as null.  The pairing loses relative precision as
(sum|c| |p1| |p2| / |Psi|)^2; a normalized reading raises NormalizationError
once that loss could pass DEFAULT_TOL.  A reading that overflows raises
instead of giving inf.  The precision gate takes the constituent norms
from the rows on either route, and scales a row by its largest entry when
its norm overflows.

In the readings ^* is the conjugate and o the entrywise product.  A state
of T terms in dimension d reads through the smaller of two spaces, and one
predicate, _wide (2T >= d), picks the route for every reading.

A tall state (2T < d) reads from one two-body kernel over Gram blocks of its
constituent rows V = [P1; P2] (2T x d).  A one-particle operator A gives the
sandwich H_A = V^* A V^T (2T x 2T); the Gram G = V^* V^T is H_1, formed once
per stack and shared by the scaled and normalized copies that drop no term.
For two blocks X, Y with T x T quarters X11, X12, X21, X22, the kernel

    K(X, Y) = X11 o Y22 + eta Y12 o X21

pairs each term (p1, p2) with each term (X p1', Y p2'), and a reading is
c^* [sum of K over its block pairs] c:
- the squared norm reads K(G, G);
- the extended operator, A|phi1, phi2> -> |A phi1, phi2> + |phi1, A phi2>
  (deliberately without a 1/2), reads K(H_A, G) + K(G, H_A);
- the product of two extended operators reads K(H_12, G) + K(G, H_12) +
  K(H_1, H_2) + K(H_2, H_1), with H_12 from the action of A2, then A1.
The scalar product of two states is the same kernel of their cross Gram,
c_a^* [(P1_a^* P1_b^T) o (P2_a^* P2_b^T) + eta (P1_a^* P2_b^T) o
(P2_a^* P1_b^T)] c_b.

A wide state (2T >= d) reads from its tensor-product image
Psi = (Psi0 + eta Psi0^T)/sqrt(2) with Psi0 = P1^T diag(c) P2 (d x d), whose
inner product is the pairing, formed once per state: the squared norm is
<Psi, Psi>, the scalar product of two wide states <Psi_a, Psi_b> (of a
wide and a tall state, the cross Gram's kernel), and since
Psi^T = eta Psi the extended operator reads 2 <Psi, A Psi> and the product
2 <Psi, A1 A2 Psi> + 2 <Psi, A1 Psi A2^T>.  The image costs d^3 per
expectation where a sandwich costs 2T d^2, so a tall state keeps its Gram.

The pair factorization sides read <p_i|A|p_j> = H_A[i, j] of one pair's
sandwiches on either route.  Every reading that takes an operator
(extended_expectation, product_expectation, pair_factorization_sides,
reduced_expectation) passes it through one gate, ``_observable``:
DimensionMismatch off the single-particle dimension, NonFiniteError on a NaN
or inf entry, ValueError unless hermitian relative to its largest entry
within validation_gate(tol), or DEFAULT_TOL where the reading takes no tol.
An orthonormal subspace basis B (d x k) gives the reductions
R = P2^T (c o P1 B^*) + eta P1^T (c o P2 B^*) = sqrt(2) Psi^T B^*, whose
column for b is, per pair, <b|phi1> |phi2> + eta <b|phi2> |phi1>; a probe
reduces as a one-column B.  R is one product of two factors: of
sqrt(2) Psi^T and B^* for a wide state, and of Q = [P2^T | P1^T] (d x 2T)
and M = [c o P1 B^* ; eta c o P2 B^*] (2T x k) for a tall one.
The subspace-reduced density matrix is R R^H / tr(R R^H); its base-2 von
Neumann entropy serves as an entanglement measure.  The entropy is taken
from the singular values s of a small factor, so p = s^2 / sum(s^2) and
tr(R R^H) = sum(s^2): of sqrt(2) Psi^T B^* (d x k) for a wide state, and of
r M (2T x k), with r the upper factor of a QR of the tall Q, for a tall one.

Three kernels take leading axes, and the readings call them with none:
term_pairings (K of a cross Gram with itself, inside the scalar product),
image_matrix (the tensor-product image) and reduction_spectra (the spectra p,
for a stack of bases of one state).  A stack of states or bases runs through
them as it is, with no loop over its members.
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
    operator_norms,
    row_norms,
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
    """An ordered pair of single-particle kets with exchange sign eta: an
    input record, judged when it enters a NoLabelState."""

    phi1: Ket
    phi2: Ket
    eta: int

    @property
    def space(self) -> HilbertSpace:
        return self.phi1.space

    def swapped(self) -> "NoLabelPair":
        return NoLabelPair(self.phi2, self.phi1, self.eta)


class NoLabelState:
    """Formal linear combination of pairs sharing one exchange sign.

    The state is its stacked terms, the read-only ``coefficients`` (T) and
    ``constituents`` (2 x T x d: P1, then P2), and the ``space`` of its pairs
    (None for a state built from none).  The list constructor is the one
    place that judges given pairs, in this order: eta (the given one, or the
    first pair's) is BOSON or FERMION, else ValueError; every pair has it,
    else EtaMismatch; every constituent has the first one's dimension, else
    DimensionMismatch; every constituent and coefficient is finite, else
    NonFiniteError, so NaN never silently drops a term.  Once read, a tall
    state (2T < d) carries its ``gram()`` and a wide one (2T >= d) its
    ``image()``.
    """

    __slots__ = (
        "eta", "space", "coefficients", "constituents", "_gram", "_image", "_squared_norm"
    )

    def __init__(self, terms, eta: int | None = None) -> None:
        terms = list(terms)
        pairs = [p for _, p in terms]
        if eta is None and pairs:
            eta = pairs[0].eta
        if eta not in (BOSON, FERMION):  # None, 0, 2 and 1.5 fail
            raise ValueError("eta must be +1 (bosons) or -1 (fermions)")
        if any(p.eta != eta for p in pairs):
            raise EtaMismatch("all terms must share one exchange sign")
        first = [p.phi1.amplitudes for p in pairs]
        second = [p.phi2.amplitudes for p in pairs]
        dim = len(first[0]) if pairs else 0
        if any(len(v) != dim for v in first + second):
            raise DimensionMismatch("state constituents live in different dimensions")
        amps = np.array([first, second], dtype=np.complex128).reshape(2, len(pairs), dim)
        _finite(amps, "pair constituent")
        coeffs = np.array([complex(c) for c, _ in terms], dtype=np.complex128)
        # a zero constituent annihilates the term: its coefficient becomes 0
        # (or NaN, which _keep rejects); a norm that overflows is inf, and live
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs *= (np.linalg.norm(amps, axis=2) > DROP_TOL).all(axis=0)
        space = pairs[0].space if pairs else None
        self._keep(int(eta), space, coeffs, amps, DROP_TOL)

    def _keep(
        self, eta: int, space, coefficients, constituents, tol=0.0, gram=None
    ) -> "NoLabelState":
        """The one construction path: store the stacked terms minus those with
        a coefficient at or below ``tol`` and return ``self``.  DROP_TOL judges
        given input; the terms of a state are judged already, so 0.0.  A given
        Gram is kept only when no term is dropped."""
        if not np.isfinite(coefficients).all():  # given, or overflowed in __mul__
            raise NonFiniteError("state coefficient is not finite")
        keep = np.abs(coefficients) > tol
        if not keep.all():
            coefficients, constituents, gram = coefficients[keep], constituents[:, keep], None
        coefficients.flags.writeable = constituents.flags.writeable = False
        self.eta, self.space = eta, space
        self.coefficients, self.constituents, self._gram = coefficients, constituents, gram
        self._image = self._squared_norm = None  # computed when first read
        return self

    @classmethod
    def from_pair(cls, pair: NoLabelPair, coefficient: complex = 1.0) -> "NoLabelState":
        return cls([(coefficient, pair)], eta=pair.eta)

    def gram(self) -> np.ndarray:
        """The constituent Gram G = V^* V^T (2T x 2T) of the rows V = [P1; P2],
        formed once per stack: scaled and normalized copies share it."""
        if self._gram is None:
            rows = _rows(self.constituents)
            with np.errstate(over="ignore", invalid="ignore"):  # readers reject inf
                self._gram = _gram(rows, rows)
            self._gram.flags.writeable = False
        return self._gram

    def image(self) -> np.ndarray:
        """The tensor-product image Psi (d x d), formed once per state: a scaled
        copy forms its own, from its own coefficients."""
        if self._image is None:  # inf or NaN on overflow, gated by readers
            self._image = image_matrix(self.eta, self.coefficients, self.constituents)
            self._image.flags.writeable = False
        return self._image

    def squared_norm(self) -> float:
        if self._squared_norm is None:  # inf or NaN on overflow, gated by readers
            if _wide(self):
                self._squared_norm = _overlap(self.image(), self.image()).real
            else:
                gram = self.gram()
                self._squared_norm = _reading(self, (gram, gram)).real
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
        return object.__new__(NoLabelState)._keep(
            self.eta, self.space, coeffs, self.constituents, gram=self._gram
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover
        return f"NoLabelState(eta={self.eta:+d}, terms={len(self.coefficients)})"


def _wide(s: NoLabelState) -> bool:
    """Whether a state reads from its image Psi (d x d) rather than its Gram
    (2T x 2T): when 2T >= d.  An empty state reads from its empty Gram."""
    _, terms, dim = s.constituents.shape
    return 0 < dim <= 2 * terms


def _overlap(x: np.ndarray, y: np.ndarray) -> complex:
    """<x, y> of two images, inf or NaN on overflow for the caller to
    reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.vdot(x, y))


def term_pairings(eta: int, sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """The pairings (..., Ta, Tb) of every term of stack ``sa`` (..., 2, Ta, d)
    with every term of stack ``sb`` (..., 2, Tb, d): the two-body kernel of
    their Gram with itself.  Unit constituents cannot overflow; with others,
    call it under np.errstate and reject an inf or NaN."""
    gram = _gram(_rows(sa), _rows(sb))
    return _two_body(eta, gram, gram)


def _gram(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Va^* Vb^T (..., 2Ta, 2Tb) of constituent rows (..., 2T, d)."""
    return ra.conj() @ rb.swapaxes(-1, -2)


def _rows(stack: np.ndarray) -> np.ndarray:
    """A stack (..., 2, T, d) as its constituent rows (..., 2T, d): P1, then P2."""
    return stack.reshape(stack.shape[:-3] + (2 * stack.shape[-2], stack.shape[-1]))


def _two_body(eta: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K(X, Y) = X11 o Y22 + eta Y12 o X21 (..., Ta, Tb) of two Gram blocks
    x = Va^* X Vb^T and y = Va^* Y Vb^T (..., 2Ta, 2Tb): the pairings of the
    terms (p1, p2) of stack a with the terms (X p1', Y p2') of stack b, the
    one kernel of every reading."""
    ta, tb = x.shape[-2] // 2, x.shape[-1] // 2
    return x[..., :ta, :tb] * y[..., ta:, tb:] + eta * (y[..., :ta, tb:] * x[..., ta:, :tb])


def _reading(s: "NoLabelState", *blocks: tuple[np.ndarray, np.ndarray]) -> complex:
    """c^* [sum of K(X, Y)] c over pairs (X, Y) of a state's Gram and
    sandwiches.  An overflow comes back as inf or NaN, for the caller to
    reject."""
    c = s.coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        first, *rest = (_two_body(s.eta, x, y) for x, y in blocks)
        return complex(c.conj() @ sum(rest, first) @ c)


def _sandwich(s: "NoLabelState", *matrices: np.ndarray) -> np.ndarray:
    """The sandwich V^* A V^T (2T x 2T) of a state's rows V, A the product of
    ``matrices``.  The sandwich comes back inf or NaN on overflow, for the
    caller to reject."""
    rows = _rows(s.constituents)
    acted = _acted(rows, *matrices)
    with np.errstate(over="ignore", invalid="ignore"):
        return _gram(rows, acted)


def _acted(rows: np.ndarray, *matrices: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` acted on by the product of ``matrices``, the
    rightmost acting first: rows A^T.  NonFiniteError when an action
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        for a in reversed(matrices):
            rows = _finite(rows @ a.T, "operator action")
    return rows


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


def nl_inner(a: NoLabelState, b: NoLabelState) -> complex:
    """Scalar product, extended sesquilinearly from the pair pairing."""
    if a.eta != b.eta:
        raise EtaMismatch("scalar product needs matching exchange signs")
    if not (len(a.coefficients) and len(b.coefficients)):
        return 0j
    if a.space.dim != b.space.dim:
        raise DimensionMismatch("states live in different dimensions")
    if _wide(a) and _wide(b):
        return _finite(_overlap(a.image(), b.image()), "scalar product")
    with np.errstate(over="ignore", invalid="ignore"):
        pairings = term_pairings(a.eta, a.constituents, b.constituents)
        pairing = complex(a.coefficients.conj() @ pairings @ b.coefficients)
    return _finite(pairing, "scalar product")


def to_first_quantized(state: NoLabelState) -> Ket:
    """Tensor-product image Psi, raveled row-major.

    Each term maps to (|p1>(x)|p2> + eta |p2>(x)|p1>)/sqrt(2): the state's
    cached image().  The image is intentionally unnormalized; its squared norm
    equals nl_inner(state, state).
    """
    if not len(state.coefficients):
        raise NullState("cannot embed an empty state")
    space = state.space
    return Ket(space.tensor(space), _finite(state.image(), "tensor-product image").ravel())


def image_matrix(eta: int, coefficients: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The tensor-product images Psi (..., d, d) of stacked states with
    coefficients (..., T) and constituents (..., 2, T, d).  An overflow comes
    back as inf or NaN, for the caller to reject."""
    p1, p2 = stack[..., 0, :, :], stack[..., 1, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        psi = (p1.swapaxes(-1, -2) * coefficients[..., None, :]) @ p2
        return (psi + eta * psi.swapaxes(-1, -2)) / np.sqrt(2.0)


def extend_operator_matrix(a: OperatorMatrix) -> OperatorMatrix:
    """Tensor-product matrix A (x) 1 + 1 (x) A of the extended operator."""
    eye = identity_op(a.space)
    return tensor_op(a, eye) + tensor_op(eye, a)


def reduce_to_one_particle(probe: Ket, state: NoLabelState) -> Ket:
    """Overlap reduction: per pair, <probe|phi1> |phi2> + eta <probe|phi2> |phi1>."""
    basis = _finite(_basis_columns(state, [probe]), "probe")
    with np.errstate(over="ignore", invalid="ignore"):
        factor, weighted = _reduction_factors(state, basis)
        reduced = (factor @ weighted)[:, 0]
    return Ket(state.space, _finite(reduced, "reduction"))


def _reduction_factors(
    s: NoLabelState, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two factors whose product R has the reduction by b_k as column k:
    sqrt(2) Psi^T (d x d) and B^* (..., d, k) of a wide state, and
    Q = [P2^T | P1^T] (d x 2T) and M = [c o P1 B^* ; eta c o P2 B^*]
    (..., 2T, k) of a tall one."""
    if _wide(s):
        return np.sqrt(2.0) * s.image().T, basis.conj()
    signed = np.concatenate([s.coefficients, s.eta * s.coefficients])[:, None]
    swapped = _rows(s.constituents[::-1])  # rows P2, then P1
    return swapped.T, signed * (_rows(s.constituents) @ basis.conj())


def _basis_columns(s: NoLabelState, subspace_basis: list[Ket]) -> np.ndarray:
    """A subspace basis given as kets, as columns B (d x k), once the state is
    nonempty and the kets fit it.  With _gated_reduction it holds every check
    on a subspace reduction, so the density matrix and the entropy reject the
    same inputs in the same order."""
    if not len(s.coefficients):
        raise NullState("cannot reduce an empty state")
    if not subspace_basis:
        raise ValueError("subspace basis must be nonempty")
    if {k.dim for k in subspace_basis} != {s.space.dim}:
        raise DimensionMismatch("subspace basis does not fit the single-particle space")
    return np.array([k.amplitudes for k in subspace_basis]).T


def _gated_reduction(
    s: NoLabelState, basis: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of the reductions by bases B (..., d, k), once every
    basis is orthonormal and the state normalized.  The first factor and the
    normalization do not depend on the basis, so a stack of bases shares
    them."""
    gate = validation_gate(tol)
    gram = basis.conj().swapaxes(-1, -2) @ basis
    if not np.abs(gram - np.eye(basis.shape[-1])).max() <= gate:  # NaN fails too
        raise ValueError("subspace basis must be orthonormal within tol")
    if not abs(s.squared_norm() - 1.0) <= gate:
        raise NormalizationError("the subspace reduction requires a normalized state")
    return _reduction_factors(s, basis)


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
    state: NoLabelState,
    subspace_basis: list[Ket],
    tol: float = DEFAULT_TOL,
) -> ReducedDM:
    """Reduced one-particle density matrix over a subspace.

    Sums |r_k><r_k| over the reductions r_k of the normalized state by each
    subspace basis vector, then divides by the trace (twice the reduction
    weight).  Raises NullReduction when the subspace annihilates the state,
    in which case no density matrix (and no entropy) exists.
    """
    basis = _basis_columns(state, subspace_basis)
    factor, weighted = _gated_reduction(state, basis, tol)
    reduced = factor @ weighted
    accum = reduced @ reduced.conj().T
    weight = float(np.trace(accum).real)
    normalization = _reduction_normalization(weight)
    return ReducedDM(OperatorMatrix(state.space, accum / weight), basis, normalization)


def entanglement_entropy(
    state: NoLabelState,
    subspace_basis: list[Ket],
    tol: float = DEFAULT_TOL,
) -> float:
    """Base-2 entropy of the subspace-reduced density matrix.

    Taken from the singular values of sqrt(2) Psi^T B^* for a wide state, or
    of r M for a tall one (see the module docstring), never from a d x d
    eigenproblem.  Depends on the subspace only, not on the basis chosen
    inside it.
    """
    basis = _basis_columns(state, subspace_basis)
    return spectrum_entropy(reduction_spectra(state, basis, tol))


def reduction_spectra(
    state: NoLabelState, basis: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """The spectra p (..., n) of the density matrices reduced over
    bases B (..., d, k) of a nonempty state of dimension d: the kernel of
    entanglement_entropy, with its gates after the basis is given as columns.
    A wide state (2T >= d) takes one batched SVD of sqrt(2) Psi^T B^*; a tall
    one takes the QR of its tall Q once, then one batched SVD of r M."""
    factor, weighted = _gated_reduction(state, basis, tol)
    if not _wide(state):  # Q tall: its upper factor r has 2T rows
        factor = np.linalg.qr(factor, mode="r")
    squared = np.linalg.svd(factor @ weighted, compute_uv=False) ** 2
    weight = squared.sum(axis=-1, keepdims=True)
    _reduction_normalization(weight.min())
    return squared / weight


def _finite_squared_norm(s: NoLabelState) -> float:
    n2 = s.squared_norm()
    if not np.isfinite(n2):  # e.g. inf - inf in the pairing of huge kets
        raise NormalizationError("squared norm of the state is not finite")
    return n2


def _require_live(s: NoLabelState) -> float:
    n2 = _finite_squared_norm(s)
    if n2 <= NULL_TOL:
        raise NullState("state is null: squared norm at or below NULL_TOL")
    # the pairing rounds at about eps (sum |c| |p1| |p2|)^2: see the module
    # docstring.  A norm past 1e154 overflows its square, so then each row is
    # divided by its largest entry (> 0: a kept term has no zero constituent)
    # first, and the spread stays finite when the squared norm is
    rows = s.constituents
    with np.errstate(over="ignore"):  # an inf spread fails the gate
        norms = row_norms(rows)
        if not np.isfinite(norms).all():
            scale = np.abs(rows).max(axis=-1)
            norms = scale * row_norms(rows / scale[..., None])
        spread = float(np.abs(s.coefficients) * norms[0] @ norms[1])
    if n2 * DEFAULT_TOL < np.finfo(float).eps * spread * spread:
        raise NormalizationError("state cancels below the rounding of its terms")
    return n2


def extended_expectation(
    state: NoLabelState, a: OperatorMatrix, tol: float = DEFAULT_TOL
) -> float:
    """Normalized expectation of the extended operator.

    For a single pair of unit kets this equals
    [<phi1|A|phi1> + <phi2|A|phi2> + 2 eta Re(<phi2|A|phi1><phi1|phi2>)] / N
    with N the pair's squared norm.  The identity gives 2: the extension
    counts both particles.  The operator passes the one gate at
    validation_gate(tol).
    """
    n2 = _require_live(state)
    matrix = _observable(a, state.space.dim, validation_gate(tol))
    if _wide(state):  # <Psi, Psi A^T> = <Psi, A Psi>, as Psi^T = eta Psi
        psi = state.image()
        pairing = 2.0 * _overlap(psi, _acted(psi, matrix))
    else:
        g, h = state.gram(), _sandwich(state, matrix)
        pairing = _reading(state, (h, g), (g, h))
    return float((_finite(pairing, "expectation") / n2).real)


def product_expectation(
    state: NoLabelState, op1: OperatorMatrix, op2: OperatorMatrix
) -> complex:
    """Normalized expectation of the product of two extended observables,
    each passed through the one gate at DEFAULT_TOL."""
    n2 = _require_live(state)
    o1, o2 = (_observable(op, state.space.dim, DEFAULT_TOL) for op in (op1, op2))
    # O2 acts first, as in the product O1 O2, so its overflow is judged first
    if _wide(state):  # Psi A2^T, then Psi (A1 A2)^T and A1 Psi A2^T
        psi = state.image()
        acted = _acted(psi, o2)
        with np.errstate(over="ignore", invalid="ignore"):  # _finite rejects inf
            pairing = 2.0 * (_overlap(psi, _acted(acted, o1)) + _overlap(psi, o1 @ acted))
    else:
        h2, h12, h1 = _sandwich(state, o2), _sandwich(state, o1, o2), _sandwich(state, o1)
        g = state.gram()
        pairing = _reading(state, (h12, g), (g, h12), (h1, h2), (h2, h1))
    return complex(_finite(pairing, "expectation") / n2)


def reduced_expectation(reduced: ReducedDM, a: OperatorMatrix) -> float:
    """Trace of the reduced density matrix against a hermitian observable.

    Over the full single-particle space this is exactly half of
    extended_expectation: the trace sees one particle, the extension both.
    The observable passes the one gate at DEFAULT_TOL.
    """
    matrix = _observable(a, reduced.matrix.dim, DEFAULT_TOL)
    return float(np.sum(reduced.matrix.matrix * matrix.T).real)


def pair_factorization_sides(
    state: NoLabelState,
    op1: OperatorMatrix,
    op2: OperatorMatrix,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """The two sides of the factorization criterion for commuting observables.

    For a single pair of orthonormal unit constituents, expectation values of
    the two extended observables factorize exactly when

        <p1|O1 O2|p1> + <p2|O1 O2|p2> + 2 eta Re(<p1|O1|p2><p2|O2|p1>)
            = <p1|O1|p1><p1|O2|p1> + <p2|O2|p2><p2|O1|p2>,

    both sides of which are returned (left, right).  Each <p_i|A|p_j> is the
    entry H_A[i, j] of the pair's 2 x 2 sandwich (H_12, H_1 or H_2), and the
    unit and orthogonality gates read its Gram G.  The common cross terms
    of the full product expectation cancel against the marginals, so the
    difference of the returned sides equals the full factorization defect.

    Both observables pass the one gate at validation_gate(tol), and they
    commute by the relative rule of algebra.subalgebras_commute:
    ||[O1, O2]||_2 <= gate ||O1||_2 ||O2||_2, else NonCommutingError.  Unless
    one observable is exactly zero, ||O1||_2 ||O2||_2 must be a normal float,
    else NonFiniteError: beyond that range the commutator and the sides
    underflow to 0 or overflow.  A side that overflows raises NonFiniteError.
    """
    if len(state.coefficients) != 1:
        raise ValueError("factorization sides are defined for single-pair states")
    _require_live(state)
    gate = validation_gate(tol)
    o1, o2 = (_observable(op, state.space.dim, gate) for op in (op1, op2))
    n1, n2 = (float(operator_norms(o)) for o in (o1, o2))
    scale = n1 * n2  # Python floats: an overflow is inf, not a numpy warning
    if n1 and n2 and not np.finfo(float).tiny <= scale < np.inf:
        raise NonFiniteError("observable norms leave the normal float range")
    comm = operator_norms(o1 @ o2 - o2 @ o1)
    if not comm <= gate * scale:
        raise NonCommutingError("observables must commute")
    g = state.gram()  # [[<p1|p1>, <p1|p2>], [<p2|p1>, <p2|p2>]]
    if not (np.abs(np.sqrt(g.diagonal().real) - 1.0) <= gate).all():
        raise ValueError("pair constituents must be unit vectors")
    if not abs(g[0, 1]) <= gate:
        raise ValueError("pair constituents must be orthogonal")

    # O2 acts first, as in product_expectation; a side is up to
    # 4 ||O1||_2 ||O2||_2, so it can overflow at the top of the range, and
    # _finite rejects it
    h2, h12, h1 = _sandwich(state, o2), _sandwich(state, o1, o2), _sandwich(state, o1)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = h12[0, 0] + h12[1, 1] + 2.0 * state.eta * np.real(h1[0, 1] * h2[1, 0])
        rhs = h1[0, 0] * h2[0, 0] + h2[1, 1] * h1[1, 1]
    _finite([lhs, rhs], "factorization side")
    return float(np.real(lhs)), float(np.real(rhs))
