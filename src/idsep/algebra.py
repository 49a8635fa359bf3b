"""Operator subalgebras generated from finite sets, and factorization tests.

A subalgebra is represented by its monomial basis: the identity, the
generators (closed under adjoints) and all products up to a degree bound,
each direction once, as one read-only (n, d, d) stack of unit directions
(each product over its Frobenius norm).  The stack takes the generators'
field: float64 when every generator is real, as for Fock ladder operators and
projectors in the occupation basis, complex128 otherwise.  :func:`generate`
returns the subalgebra complete: it takes the monomials' operator norms from
the stack once, and ``monomials`` are views of its rows, so a real algebra
runs in real arithmetic.  Every operator norm here, of a monomial or of a
generator commutator, comes from hilbert.operator_norms: exactly the largest
modulus for a matrix with at most one nonzero per row and column (every word
in one double-well mode's ladder operators, every Pauli string), one batched
SVD for the rest.  Two commuting subalgebras A and B factorize on a
pure state when <x1 x2> = <x1><x2> for all observables x1 in A, x2 in B; the
test below evaluates the defect on all monomial pairs with two stacked
products, which decides it (see factorization_test).
Commutation is decided on generator pairs: the relative norm
||[g, h]|| / (||g|| ||h||), on the degree-2 exact sector of a truncated
space, bounds every monomial commutator (see subalgebras_commute); cached per
partner and mask, it is the only state computed after generate.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CutoffError,
    DimensionMismatch,
    NonCommutingError,
    NonFiniteError,
    NormalizationError,
)
from .hilbert import (
    DEFAULT_TOL,
    Ket,
    OperatorMatrix,
    bell_states,
    operator_norms,
    validation_gate,
)

#: relative (scale-free) tolerance of the monomial dedup in :func:`generate`
DEDUP_TOL = 1e-10

VERDICT_SEPARABLE = "separable_wrt"
VERDICT_ENTANGLED = "entangled_wrt"


@dataclass(frozen=True, eq=False)
class Subalgebra:
    """Finite generating set plus its monomial basis up to a degree bound.

    ``stack`` holds the monomials' unit directions, each product scaled to
    unit Frobenius norm, as one read-only (n, d, d) array, float64 when every
    generator is real and complex128 otherwise, ``degrees`` their word
    lengths, ``norms`` their operator norms, in [1/sqrt(d), 1], read-only,
    from one hilbert.operator_norms call over the stack, and each of
    ``monomials`` is an OperatorMatrix view of one row.  The span
    is closed under adjoints.  ``generators`` are read-only complex copies of
    the matrices given to :func:`generate`, at their own scale.
    :func:`generate` fills every field; the commutator norm against another
    subalgebra is the only cache, kept on the first one of the pair.
    """

    generators: list[OperatorMatrix]
    degree_bound: int
    stack: np.ndarray = field(repr=False)
    degrees: list[int]
    norms: np.ndarray = field(repr=False)
    monomials: list[OperatorMatrix] = field(repr=False)
    #: other subalgebra -> {exact-mask key: commutator norm}; weak keys, so
    #: a cached pair keeps neither side alive
    _commutator_norms: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]


def _direction(mat: np.ndarray) -> np.ndarray | None:
    """X / ||X||_F, or None for X = 0, taken on X over its peak entry, so huge
    or tiny finite entries neither overflow nor underflow the norm."""
    peak = np.abs(mat).max()
    if not math.isfinite(peak):  # before any dedup: inf * identity is no duplicate
        raise NonFiniteError("generator is not finite")
    if not peak:
        return None
    scaled = mat / peak
    scaled *= 1 / math.sqrt(np.vdot(scaled, scaled).real)  # the norm lies in [1, dim]
    return scaled


def _grown(buf: np.ndarray, used: int, rows: int) -> np.ndarray:
    """``buf``, or a larger buffer of ``rows`` rows holding its first ``used``."""
    if rows <= len(buf):
        return buf
    out = np.empty((rows, *buf.shape[1:]), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


def generate(generators: list[OperatorMatrix], degree_bound: int) -> Subalgebra:
    """Monomial basis of the unital algebra spanned by products of generators.

    The generator set is first closed under adjoints, and words of length up
    to ``degree_bound`` grow by the degree-1 monomials.  Letters and rows are
    unit directions (the identity row is I / sqrt(d)), so each product x g is
    written straight into its row whatever the generators' scale, and both
    drop tests are scale-free: x g vanishes when ||x g||_F <= DEDUP_TOL, and
    is a duplicate when its direction lies within DEDUP_TOL of a kept one,
    that is when it is a positive multiple of it; the first one is kept.  One
    product of the flattened stack gives a candidate's overlaps with all kept
    directions; only one of real overlap above 1/2 can lie within DEDUP_TOL,
    so only for those is the distance taken.  The stack is float64 when no
    generator has a nonzero imaginary entry and complex128 otherwise.  The
    operator norms are one hilbert.operator_norms call over the final stack:
    a monomial with at most one nonzero per row and column reads its largest
    modulus, and the others share one batched SVD.  A non-finite generator
    raises NonFiniteError; a zero one adds no letter.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be at least 1")
    if not generators:
        raise ValueError("need at least one generator")
    dim = generators[0].dim
    if any(g.dim != dim for g in generators):
        raise DimensionMismatch("generators act on different dimensions")

    # read-only copies: a caller who writes into a generator afterwards
    # cannot make it disagree with the stack
    generators = [OperatorMatrix(g.space, g.matrix) for g in generators]
    for g in generators:
        g.matrix.flags.writeable = False
    matrices = [g.matrix for g in generators]
    # the stack takes the generators' field (a NaN imaginary part is nonzero)
    if not any(m.imag.any() for m in matrices):
        matrices = [m.real for m in matrices]
    # the unit directions of the nonzero generators and their adjoints
    letters = [m for u in map(_direction, matrices) if u is not None for m in (u, u.conj().T)]
    stack = (np.eye(dim, dtype=matrices[0].dtype) / math.sqrt(dim))[None]
    n, degrees, frontier = 1, [0], range(1)
    for depth in range(1, degree_bound + 1):
        # room for the products of this depth and of the next, if none is dropped
        rows = n + len(frontier) * len(letters) * (1 + len(letters) * (depth < degree_bound))
        stack = _grown(stack, n, rows)
        flat = stack.reshape(len(stack), -1)
        for i in frontier:
            for g in letters:
                row = np.matmul(stack[i], g, out=stack[n])
                norm = math.sqrt(np.vdot(row, row).real)
                if norm <= DEDUP_TOL:
                    continue
                row *= 1 / norm
                close = np.flatnonzero((flat[:n] @ flat[n].conj()).real > 0.5)
                if any(np.linalg.norm(flat[k] - flat[n]) <= DEDUP_TOL for k in close):
                    continue
                n += 1
        frontier = range(len(degrees), n)
        degrees.extend([depth] * len(frontier))
        if depth == 1:
            letters = [stack[k] for k in frontier]

    stack = stack[:n]
    stack.flags.writeable = False
    norms = operator_norms(stack)
    norms.flags.writeable = False
    monomials = [OperatorMatrix._view(generators[0].space, row) for row in stack]
    return Subalgebra(generators, degree_bound, stack, degrees, norms, monomials)


def subalgebras_commute(a: Subalgebra, b: Subalgebra, exact_mask=None) -> float:
    """Largest relative norm ||[g, h]||_2 / (||g||_2 ||h||_2) over generator pairs.

    g and h run over the degree-1 monomials of ``a`` and ``b``: the
    generators, closed under adjoints, that :func:`generate` multiplies by.
    ``exact_mask`` (degree -> boolean column mask) restricts each commutator
    to the columns ``exact_mask(2)``, the basis states on which a product of
    two generators acts exactly; this is how truncated Fock spaces are
    handled.  The (La, Lb, d, cols) stack of commutators goes to
    hilbert.operator_norms as it is, so a commutator with at most one
    nonzero per row and column (zero included) takes no SVD.  The value is
    scale-free and depends only on the pair and that one mask, so it is
    computed once and cached on ``a``.

    It decides commutation of the monomial bases.  Let c be the value and
    x = g1...gk, y = h1...hm monomials.  Then
    [x, y] = sum_ij g1...g(i-1) h1...h(j-1) [gi, hj] h(j+1)...hm g(i+1)...gk.
    On a column of ``exact_mask(k + m)`` (total occupation at most
    cutoff - k - m), each [gi, hj] acts on a vector of total at most
    cutoff - 2, because ``exact_mask`` promises that each generator moves
    the occupation by at most one.  So on those columns
    ||[x, y]|| <= k m c prod_i ||gi|| prod_j ||hj||.  Conversely, generator
    pairs are monomial pairs, so c vanishes exactly when every monomial pair
    commutes on its exact sector.  A generator that is a positive multiple of
    the identity or of an earlier one is no degree-1 monomial and no factor
    of a monomial; its commutators are zero or multiples of checked ones.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("subalgebras act on different dimensions")
    cols = slice(None) if exact_mask is None else np.asarray(exact_mask(2), dtype=bool)
    key = None if exact_mask is None else cols.tobytes()
    cached = a._commutator_norms.setdefault(b, {})
    if key not in cached:
        g, h = _unit_generators(a), _unit_generators(b)
        comm = g[:, None] @ h[None, :, :, cols] - h[None] @ g[:, None, :, cols]
        cached[key] = float(operator_norms(comm).max(initial=0.0))
    return cached[key]


def _unit_generators(sub: Subalgebra) -> np.ndarray:
    """The degree-1 monomials, a slice of the stack, scaled to unit operator norm."""
    rows = slice(1, 1 + sub.degrees.count(1))
    return sub.stack[rows] / sub.norms[rows, None, None]


@dataclass
class FactorizationReport:
    """Outcome of a factorization test between two commuting subalgebras.

    ``pairs`` rows are (label1, label2, <x1 x2>, <x1>, <x2>, violation) over
    all monomial pairs, a-major, with every monomial normalized to unit
    operator norm, so violations are scale-free.  Label "X.mN" names
    ``monomials[N]`` of side X.  The defect is bilinear, so these rows fix it
    on the whole span, observables included (see :func:`factorization_test`).
    ``commutator_norm`` is the relative generator-pair norm of
    :func:`subalgebras_commute` (on the degree-2 exact sector when a mask is
    given); the test only runs when it is at most max(tol, DEFAULT_TOL).
    """

    max_violation: float
    witness_pair: tuple[str, str]
    verdict: str
    tol: float
    commutator_norm: float
    pairs: list[tuple[str, str, complex, complex, complex, float]] = field(default_factory=list)


def factorization_test(
    state: Ket, a: Subalgebra, b: Subalgebra, tol: float = DEFAULT_TOL, exact_mask=None
) -> FactorizationReport:
    """Check <x1 x2> = <x1><x2> on ``state`` over two commuting subalgebras.

    Raises NormalizationError for a state that is not normalized (NaN and inf
    amplitudes included), CutoffError when ``exact_mask`` is given and the
    state reaches outside the sector on which products of the highest-degree
    monomials act exactly, and NonCommutingError when the relative
    generator-pair commutator norm exceeds max(tol, DEFAULT_TOL); verdicts are
    only meaningful for commuting pairs.  A non-finite violation raises
    NonFiniteError, and a tolerance that is not finite and positive ValueError.

    Each span is closed under adjoints, so its observables span it: x is
    h1 + i h2 with h1 = (x + x^dag)/2 and h2 = (x - x^dag)/2i hermitian and in
    the span.  The defect is bilinear, so the verdict over all monomial pairs
    is the verdict over observables.
    """
    if a.dim != state.dim or b.dim != state.dim:
        raise DimensionMismatch("state and subalgebras live in different dimensions")
    gate = validation_gate(tol)
    if not abs(state.norm() - 1.0) <= gate:
        raise NormalizationError("factorization_test requires a normalized state")
    psi = state.amplitudes
    if exact_mask is not None:
        degree = max(a.degrees) + max(b.degrees)
        outside = np.abs(psi[~np.asarray(exact_mask(degree), dtype=bool)])
        if outside.size and outside.max() > gate:
            raise CutoffError(f"state has amplitude {outside.max():.3e} outside the exact "
                              f"sector of degree-{degree} products")
    commutator_norm = subalgebras_commute(a, b, exact_mask=exact_mask)
    if commutator_norm > gate:
        raise NonCommutingError(f"subalgebras do not commute (worst norm {commutator_norm:.3e})")

    labels_a = [f"A.m{i}" for i in range(len(a.stack))]
    labels_b = [f"B.m{j}" for j in range(len(b.stack))]
    # rows <psi| x1 and x2 |psi>, for unit-operator-norm monomials
    bras_a = _rows(psi, a.stack, bra=True) / a.norms[:, None]
    kets_b = _rows(psi, b.stack, bra=False) / b.norms[:, None]
    w12 = bras_a @ kets_b.T  # <psi| x1 x2 |psi>
    w_a, w_b = bras_a @ psi, kets_b @ psi.conj()
    violation = np.abs(w12 - np.outer(w_a, w_b))
    if not np.isfinite(violation).all():
        raise NonFiniteError("a factorization violation is not finite")

    i, j = np.unravel_index(np.argmax(violation), violation.shape)
    max_violation = float(violation[i, j])
    witness = (labels_a[i], labels_b[j]) if max_violation > 0 else ("", "")

    n_a, n_b = violation.shape
    pairs = zip(
        [label for label in labels_a for _ in range(n_b)], labels_b * n_a, w12.ravel().tolist(),
        np.repeat(w_a, n_b).tolist(), np.tile(w_b, n_a).tolist(), violation.ravel().tolist(),
    )
    verdict = VERDICT_ENTANGLED if max_violation > tol else VERDICT_SEPARABLE
    return FactorizationReport(max_violation, witness, verdict, tol, commutator_norm, list(pairs))


def _rows(psi: np.ndarray, stack: np.ndarray, bra: bool) -> np.ndarray:
    """Rows <psi| x (``bra``) or x |psi> over the monomials x of ``stack``.

    A real stack meets psi as one real (d, 2) matrix of its real and
    imaginary parts, so the product runs in real arithmetic; ``psi @ stack``
    would cast the whole stack to complex on every call."""
    if np.iscomplexobj(stack):
        if bra:
            return psi.conj() @ stack
        return (stack.reshape(-1, stack.shape[-1]) @ psi).reshape(len(stack), -1)
    parts = np.stack([psi.real, psi.imag], axis=1)
    if bra:
        rows = parts.T @ stack  # (n, 2, d): <re psi| x and <im psi| x
        return rows[:, 0] - 1j * rows[:, 1]
    return (stack @ parts).view(np.complex128)[..., 0]


def bell_subalgebras(degree_bound: int = 4) -> tuple[Subalgebra, Subalgebra]:
    """The two commuting subalgebras generated by Bell-state projectors.

    The first is generated by the projectors onto the two "plus" Bell states,
    the second by those onto the two "minus" ones (identity adjoined).  All
    four projectors are mutually orthogonal, so each subalgebra is
    commutative and the two commute with each other.
    """
    states = bell_states()
    plus = generate([states["psi_plus"].outer(), states["phi_plus"].outer()], degree_bound)
    minus = generate([states["psi_minus"].outer(), states["phi_minus"].outer()], degree_bound)
    return plus, minus
