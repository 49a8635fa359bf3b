"""Operator subalgebras generated from finite sets, and factorization tests.

A subalgebra is represented by its monomial basis: the identity, the
generators (closed under adjoints) and all products up to a degree bound,
each direction once (see generate).  Two commuting subalgebras A and B
factorize on a pure state when <x1 x2> = <x1><x2> for all x1 in A, x2 in B.
The defect <x1 x2> - <x1><x2> is bilinear in (x1, x2), so it vanishes on the
two spans exactly when it vanishes on every pair of monomials; the test
below evaluates it on all monomial pairs at once.
Commutation is decided on generator pairs: the relative norm
||[g, h]|| / (||g|| ||h||), on the degree-2 exact sector of a truncated
space, bounds every monomial commutator (see subalgebras_commute) and is
cached per partner and mask.
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

VERDICT_SEPARABLE = "separable_wrt"
VERDICT_ENTANGLED = "entangled_wrt"


@dataclass(eq=False)
class Subalgebra:
    """Finite generating set plus its monomial basis up to a degree bound.

    ``monomials`` are the raw products and ``degrees`` their word lengths.
    State-independent preparation is done once per subalgebra and per pair:
    the monomials' operator norms and hermitian flags are cached on the
    subalgebra, and the commutator norm against another subalgebra on the
    first one of the pair.  So a Subalgebra is immutable after generate.
    """

    generators: list[OperatorMatrix]
    degree_bound: int
    monomials: list[OperatorMatrix]
    degrees: list[int]
    label: str = ""
    #: other subalgebra -> {exact-mask key: commutator norm}; weak keys, so
    #: a cached pair keeps neither side alive
    _commutator_norms: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )

    @property
    def dim(self) -> int:
        return self.monomials[0].dim

    @cached_property
    def _unit_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """The monomials' operator norms and hermitian flags (at unit norm)."""
        mats = np.stack([m.matrix for m in self.monomials])
        norms = np.linalg.norm(mats, 2, axis=(1, 2))
        mats /= norms[:, None, None]
        adjoint_gap = np.abs(mats - mats.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        return norms, adjoint_gap <= DEDUP_TOL


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


def _is_duplicate(direction: np.ndarray, kept: list[np.ndarray]) -> bool:
    """Whether a unit direction lies within DEDUP_TOL of one in ``kept``; one of
    real overlap at most 1/2 lies at least 1 away, so it is screened out."""
    return any(
        np.vdot(other, direction).real > 0.5 and np.linalg.norm(other - direction) <= DEDUP_TOL
        for other in kept
    )


# a product that overflows (inf, or NaN from inf * 0) raises NonFiniteError
@np.errstate(over="ignore", invalid="ignore")
def generate(
    generators: list[OperatorMatrix], degree_bound: int, label: str = ""
) -> Subalgebra:
    """Monomial basis of the unital algebra spanned by products of generators.

    The generator set is first closed under adjoints, and words of length up
    to ``degree_bound`` grow by the degree-1 monomials.  Both drop tests are
    relative, so they do not depend on how the generators are scaled: x g
    vanishes when ||x g||_F <= DEDUP_TOL ||x||_F ||g||_F, and is a duplicate
    when its direction X / ||X||_F lies within DEDUP_TOL of a kept monomial's,
    that is when it is a positive multiple of it; the first one is kept.
    Non-finite generators and products raise NonFiniteError.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be at least 1")
    if not generators:
        raise ValueError("need at least one generator")
    space, dim = generators[0].space, generators[0].dim
    if any(g.dim != dim for g in generators):
        raise DimensionMismatch("generators act on different dimensions")

    # (matrix, log ||matrix||_F) of the words and of the letters they grow by
    letters = [(m, _direction(m)[1]) for g in generators for m in (g.matrix, g.matrix.conj().T)]
    eye = np.eye(dim, dtype=np.complex128)
    unit, log_norm = _direction(eye)
    kept, frontier = [unit], [(eye, log_norm)]
    monomials, degrees = [eye], [0]
    for depth in range(1, degree_bound + 1):
        new_frontier = []
        for x, log_x in frontier:
            for g, log_g in letters:
                prod = x @ g
                unit, log_norm = _direction(prod)
                if log_norm <= log_x + log_g + math.log(DEDUP_TOL) or _is_duplicate(unit, kept):
                    continue
                kept.append(unit)
                new_frontier.append((prod, log_norm))
        monomials.extend(m for m, _ in new_frontier)
        degrees.extend([depth] * len(new_frontier))
        frontier = new_frontier
        letters = new_frontier if depth == 1 else letters

    ops = [OperatorMatrix(space, m) for m in monomials]
    return Subalgebra(list(generators), degree_bound, ops, degrees, label=label)


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
    """The degree-1 monomials, stacked and scaled to unit operator norm."""
    norms, _ = sub._unit_basis
    gens = [m.matrix / n for m, n, d in zip(sub.monomials, norms, sub.degrees) if d == 1]
    return np.array(gens, dtype=np.complex128).reshape(-1, sub.dim, sub.dim)


@dataclass
class FactorizationReport:
    """Outcome of a factorization test between two commuting subalgebras.

    ``pairs`` rows are (label1, label2, <x1 x2>, <x1>, <x2>, violation) over
    all monomial pairs, a-major, with every monomial normalized to unit
    operator norm, so violations are scale-free.  Label "X.mN" names
    ``monomials[N]`` of side X.  The defect is bilinear, so these rows fix it
    on the whole span.  ``max_violation_hermitian`` is the maximum over pairs
    of hermitian monomials, tracked separately because general monomials need
    not be hermitian.  ``commutator_norm`` is the relative generator-pair
    norm of :func:`subalgebras_commute` (on the degree-2 exact sector when a
    mask is given); the test only runs when it is at most max(tol, DEFAULT_TOL).
    """

    max_violation: float
    witness_pair: tuple[str, str]
    verdict: str
    tol: float
    commutator_norm: float
    max_violation_hermitian: float
    witness_pair_hermitian: tuple[str, str] | None
    pairs: list[tuple[str, str, complex, complex, complex, float]] = field(
        default_factory=list
    )


def factorization_test(
    state: Ket,
    a: Subalgebra,
    b: Subalgebra,
    tol: float = DEFAULT_TOL,
    exact_mask=None,
) -> FactorizationReport:
    """Check <x1 x2> = <x1><x2> on ``state`` over two commuting subalgebras.

    Raises NormalizationError for a state that is not normalized (NaN and inf
    amplitudes included), CutoffError when ``exact_mask`` is given and the
    state reaches outside the sector on which products of the highest-degree
    monomials act exactly, and NonCommutingError when the relative
    generator-pair commutator norm exceeds max(tol, DEFAULT_TOL); verdicts are
    only meaningful for commuting pairs.
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
            raise CutoffError(
                f"state has amplitude {outside.max():.3e} outside the exact "
                f"sector of degree-{degree} products"
            )
    commutator_norm = subalgebras_commute(a, b, exact_mask=exact_mask)
    if commutator_norm > gate:
        raise NonCommutingError(
            f"subalgebras do not commute (worst norm {commutator_norm:.3e})"
        )

    norms_a, herm_a = a._unit_basis
    norms_b, herm_b = b._unit_basis
    labels_a = np.array([f"A.m{i}" for i in range(len(norms_a))])
    labels_b = np.array([f"B.m{i}" for i in range(len(norms_b))])
    # rows <psi| x1 and x2 |psi>, for unit-operator-norm monomials
    bras_a = np.array([psi.conj() @ m.matrix for m in a.monomials])
    bras_a /= norms_a[:, None]
    kets_b = np.array([m.matrix @ psi for m in b.monomials])
    kets_b /= norms_b[:, None]
    w12 = bras_a @ kets_b.T  # <psi| x1 x2 |psi>
    w_a, w_b = bras_a @ psi, kets_b @ psi.conj()
    violation = np.abs(w12 - np.outer(w_a, w_b))

    i, j = np.unravel_index(np.argmax(violation), violation.shape)
    max_violation = float(violation[i, j])
    witness = (str(labels_a[i]), str(labels_b[j])) if max_violation > 0 else ("", "")
    violation_h = np.where(np.outer(herm_a, herm_b), violation, 0.0)
    i, j = np.unravel_index(np.argmax(violation_h), violation_h.shape)
    max_h = float(violation_h[i, j])
    witness_h = (str(labels_a[i]), str(labels_b[j])) if max_h > 0 else None

    n_a, n_b = violation.shape
    pairs = list(
        zip(
            np.repeat(labels_a, n_b).tolist(),
            np.tile(labels_b, n_a).tolist(),
            w12.ravel().tolist(),
            np.repeat(w_a, n_b).tolist(),
            np.tile(w_b, n_a).tolist(),
            violation.ravel().tolist(),
        )
    )
    verdict = VERDICT_ENTANGLED if max_violation > tol else VERDICT_SEPARABLE
    return FactorizationReport(
        max_violation=max_violation,
        witness_pair=witness,
        verdict=verdict,
        tol=tol,
        commutator_norm=commutator_norm,
        max_violation_hermitian=max_h,
        witness_pair_hermitian=witness_h,
        pairs=pairs,
    )


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
