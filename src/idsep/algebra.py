"""Operator subalgebras generated from finite sets, and factorization tests.

A subalgebra is represented by its monomial basis: the identity, the
generators (closed under adjoints) and all products up to a degree bound,
each direction once, as one read-only (n, d, d) stack that generate writes
each product into once.  The stack takes the generators' field: float64 when
every generator is real, as for Fock ladder operators and projectors in the
occupation basis, complex128 otherwise.  Norms, flags, commutation check and
evaluation all read that stack, so a real algebra runs in real arithmetic;
``monomials`` are views of its rows.  Two commuting subalgebras A and B
factorize on a pure state when <x1 x2> = <x1><x2> for all x1 in A, x2 in B.
The defect is bilinear in (x1, x2), so it vanishes on the spans exactly when
it vanishes on every monomial pair; the test below evaluates it on all of
them with two stacked products.  Commutation is decided on generator pairs:
the relative norm ||[g, h]|| / (||g|| ||h||), on the degree-2 exact sector of
a truncated space, bounds every monomial commutator (see subalgebras_commute)
and is cached per partner and mask.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CutoffError,
    DimensionMismatch,
    NonCommutingError,
    NonFiniteError,
    NormalizationError,
)
from .hilbert import DEFAULT_TOL, Ket, OperatorMatrix, bell_states

#: relative (scale-free) tolerance of the monomial dedup in :func:`generate`
DEDUP_TOL = 1e-10
_LOG_TINY = math.log(np.finfo(float).tiny)

VERDICT_SEPARABLE = "separable_wrt"
VERDICT_ENTANGLED = "entangled_wrt"


@dataclass(eq=False)
class Subalgebra:
    """Finite generating set plus its monomial basis up to a degree bound.

    ``stack`` holds the raw products as one read-only (n, d, d) array,
    float64 when every generator is real and complex128 otherwise,
    ``degrees`` their word lengths, and each of ``monomials`` is an
    OperatorMatrix view of one row.  ``generators`` are read-only complex
    copies of the matrices given to :func:`generate`.  State-independent
    preparation reads the stack once per subalgebra and per pair: the
    operator norms, hermitian flags and labels are cached on the subalgebra,
    and the commutator norm against another on the first one of the pair.
    A Subalgebra is immutable.
    """

    generators: list[OperatorMatrix]
    degree_bound: int
    stack: np.ndarray = field(repr=False)
    degrees: list[int]
    label: str = ""
    #: other subalgebra -> {exact-mask key: commutator norm}; weak keys, so
    #: a cached pair keeps neither side alive
    _commutator_norms: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    @cached_property
    def monomials(self) -> list[OperatorMatrix]:
        space = self.generators[0].space
        return [OperatorMatrix._view(space, row) for row in self.stack]

    @cached_property
    def _unit_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """The monomials' operator norms and hermitian flags (at unit norm).
        A norm that is not a positive normal float (products of tiny
        generators underflow) raises NonFiniteError rather than yield NaN."""
        norms = np.linalg.norm(self.stack, 2, axis=(1, 2))
        if not ((norms >= np.finfo(float).tiny) & (norms < np.inf)).all():
            raise NonFiniteError("a monomial norm leaves the normal float range")
        gap = np.conjugate(self.stack.transpose(0, 2, 1))
        gap -= self.stack
        return norms, np.abs(gap).max(axis=(1, 2)) <= DEDUP_TOL * norms

    @cached_property
    def _labels(self) -> dict[str, list[str]]:
        """Monomial labels "X.mN" for either side X of a factorization test."""
        return {side: [f"{side}.m{i}" for i in range(len(self.stack))] for side in "AB"}


def _direction(mat: np.ndarray) -> tuple[np.ndarray | None, float]:
    """(X / ||X||_F raveled, log ||X||_F), or (None, -inf) for X = 0, taken on
    X over its peak entry, so huge finite entries do not overflow the norm."""
    peak = np.abs(mat).max()
    if not math.isfinite(peak):  # before any dedup: inf * identity is no duplicate
        raise NonFiniteError("generator or product is not finite")
    if not peak:
        return None, -math.inf
    scaled = mat / peak
    fro = math.sqrt(np.vdot(scaled, scaled).real)
    scaled *= 1 / fro  # fro lies in [1, dim]
    return scaled.ravel(), math.log(peak) + math.log(fro)


def _grown(buf: np.ndarray, used: int, rows: int) -> np.ndarray:
    """``buf``, or a larger buffer of ``rows`` rows holding its first ``used``."""
    if rows <= len(buf):
        return buf
    out = np.empty((rows, *buf.shape[1:]), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


# a product that overflows (inf, or NaN from inf * 0) raises NonFiniteError
@np.errstate(over="ignore", invalid="ignore")
def generate(generators: list[OperatorMatrix], degree_bound: int, label: str = "") -> Subalgebra:
    """Monomial basis of the unital algebra spanned by products of generators.

    The generator set is first closed under adjoints, and words of length up
    to ``degree_bound`` grow by the degree-1 monomials.  Both drop tests are
    relative, so they do not depend on how the generators are scaled: x g
    vanishes when ||x g||_F <= DEDUP_TOL ||x||_F ||g||_F, and is a duplicate
    when its direction X / ||X||_F lies within DEDUP_TOL of a kept monomial's,
    that is when it is a positive multiple of it; the first one is kept.
    Each product is written straight into its row of the stack.  The kept
    directions are the conjugated rows of one matrix, so one product gives a
    candidate's overlaps with all of them; only one of real overlap above 1/2
    can lie within DEDUP_TOL, so only for those is the distance taken.
    The stack is float64 when no generator has a nonzero imaginary entry
    and complex128 otherwise.  Non-finite generators and products raise
    NonFiniteError, and so does a product whose vanish threshold
    DEDUP_TOL ||x||_F ||g||_F lies below the normal float range, where an
    underflowed product cannot be told from a vanishing one.  A zero
    generator adds no letter.
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
        matrices = [m.real.copy() for m in matrices]
    # (matrix, log ||matrix||_F) of the nonzero letters the words grow by
    letters = [(m, _direction(m)[1]) for g in matrices for m in (g, g.conj().T)]
    letters = [(m, log_m) for m, log_m in letters if log_m > -math.inf]
    stack = np.eye(dim, dtype=matrices[0].dtype)[None]
    unit, log_norm = _direction(stack[0])
    conj_units = unit.conj()[None]
    n, log_norms, degrees, frontier = 1, [log_norm], [0], range(1)
    for depth in range(1, degree_bound + 1):
        # room for the products of this depth and of the next, if none is dropped
        rows = n + len(frontier) * len(letters) * (1 + len(letters) * (depth < degree_bound))
        stack, conj_units = (_grown(buf, n, rows) for buf in (stack, conj_units))
        for i in frontier:
            for g, log_g in letters:
                vanish = log_norms[i] + log_g + math.log(DEDUP_TOL)
                if vanish < _LOG_TINY:  # an underflowing product would read as vanishing
                    raise NonFiniteError("a product's vanish threshold is below the normal range")
                unit, log_norm = _direction(np.matmul(stack[i], g, out=stack[n]))
                if log_norm <= vanish:
                    continue
                np.conjugate(unit, out=conj_units[n])
                close = np.flatnonzero((conj_units[:n] @ unit).real > 0.5)
                if any(np.linalg.norm(conj_units[k] - conj_units[n]) <= DEDUP_TOL for k in close):
                    continue
                log_norms.append(log_norm)
                n += 1
        frontier = range(len(degrees), n)
        degrees.extend([depth] * len(frontier))
        if depth == 1:
            letters = [(stack[k], log_norms[k]) for k in frontier]

    stack = stack[:n]
    stack.flags.writeable = False
    return Subalgebra(generators, degree_bound, stack, degrees, label=label)


def subalgebras_commute(a: Subalgebra, b: Subalgebra, exact_mask=None) -> float:
    """Largest relative norm ||[g, h]||_2 / (||g||_2 ||h||_2) over generator pairs.

    g and h run over the degree-1 monomials of ``a`` and ``b``: the
    generators, closed under adjoints, that :func:`generate` multiplies by.
    ``exact_mask`` (degree -> boolean column mask) restricts each commutator
    to the columns ``exact_mask(2)``, the basis states on which a product of
    two generators acts exactly; this is how truncated Fock spaces are
    handled.  The value is scale-free and depends only on the pair and that
    one mask, so it is computed once and cached on ``a``.

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
        cached[key] = float(np.linalg.norm(comm, 2, axis=(2, 3)).max(initial=0.0))
    return cached[key]


def _unit_generators(sub: Subalgebra) -> np.ndarray:
    """The degree-1 monomials, a slice of the stack, scaled to unit operator norm."""
    norms, _ = sub._unit_basis
    rows = slice(1, 1 + sub.degrees.count(1))
    return sub.stack[rows] / norms[rows, None, None]


@dataclass
class FactorizationReport:
    """Outcome of a factorization test between two commuting subalgebras.

    ``pairs`` rows are (label1, label2, <x1 x2>, <x1>, <x2>, violation) over
    all monomial pairs, a-major, with every monomial normalized to unit
    operator norm, so violations are scale-free.  Label "X.mN" names
    ``monomials[N]`` of side X.  The defect is bilinear, so these rows fix it
    on the whole span.  ``max_violation_hermitian`` is the maximum over pairs
    of hermitian monomials (general monomials need not be hermitian).
    ``commutator_norm`` is the relative generator-pair norm of
    :func:`subalgebras_commute` (on the degree-2 exact sector when a mask is
    given); the test only runs when it is at most max(tol, DEFAULT_TOL).
    """

    max_violation: float
    witness_pair: tuple[str, str]
    verdict: str
    tol: float
    commutator_norm: float
    max_violation_hermitian: float
    witness_pair_hermitian: tuple[str, str] | None
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
    only meaningful for commuting pairs.  A monomial norm outside the normal
    float range or a non-finite violation raises NonFiniteError.
    """
    if a.dim != state.dim or b.dim != state.dim:
        raise DimensionMismatch("state and subalgebras live in different dimensions")
    # input validation never demands more than float precision can deliver
    gate = max(tol, DEFAULT_TOL)
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

    (norms_a, herm_a), (norms_b, herm_b) = a._unit_basis, b._unit_basis
    labels_a, labels_b = a._labels["A"], b._labels["B"]
    # rows <psi| x1 and x2 |psi>, for unit-operator-norm monomials
    bras_a = _rows(psi, a.stack, bra=True) / norms_a[:, None]
    kets_b = _rows(psi, b.stack, bra=False) / norms_b[:, None]
    w12 = bras_a @ kets_b.T  # <psi| x1 x2 |psi>
    w_a, w_b = bras_a @ psi, kets_b @ psi.conj()
    violation = np.abs(w12 - np.outer(w_a, w_b))
    if not np.isfinite(violation).all():
        raise NonFiniteError("a factorization violation is not finite")

    i, j = np.unravel_index(np.argmax(violation), violation.shape)
    max_violation = float(violation[i, j])
    witness = (labels_a[i], labels_b[j]) if max_violation > 0 else ("", "")
    violation_h = np.where(np.outer(herm_a, herm_b), violation, 0.0)
    i, j = np.unravel_index(np.argmax(violation_h), violation_h.shape)
    max_h = float(violation_h[i, j])
    witness_h = (labels_a[i], labels_b[j]) if max_h > 0 else None

    n_a, n_b = violation.shape
    pairs = zip(
        [label for label in labels_a for _ in range(n_b)], labels_b * n_a, w12.ravel().tolist(),
        np.repeat(w_a, n_b).tolist(), np.tile(w_b, n_a).tolist(), violation.ravel().tolist(),
    )
    verdict = VERDICT_ENTANGLED if max_violation > tol else VERDICT_SEPARABLE
    return FactorizationReport(
        max_violation, witness, verdict, tol, commutator_norm, max_h, witness_h, list(pairs)
    )


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
    plus = generate(
        [states["psi_plus"].outer(), states["phi_plus"].outer()],
        degree_bound,
        label="plus Bell projectors",
    )
    minus = generate(
        [states["psi_minus"].outer(), states["phi_minus"].outer()],
        degree_bound,
        label="minus Bell projectors",
    )
    return plus, minus
