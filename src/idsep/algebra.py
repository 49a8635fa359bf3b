"""Operator subalgebras generated from finite sets, and factorization tests.

A subalgebra is represented by its monomial basis: the identity, the
generators (closed under adjoints) and all products up to a degree bound,
deduplicated by matrix equality.  Two commuting subalgebras A and B are said
to factorize on a pure state when <x1 x2> = <x1><x2> for all x1 in A and
x2 in B.  The defect <x1 x2> - <x1><x2> is bilinear in (x1, x2), so it
vanishes on the two linear spans exactly when it vanishes on every pair of
monomials; the test below evaluates it on all monomial pairs at once.
Commutation is decided on generator pairs: the relative norm
||[g, h]|| / (||g|| ||h||), on the degree-2 exact sector of a truncated
space, bounds every monomial commutator (see subalgebras_commute) and is
cached per partner and mask.
"""

from __future__ import annotations

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

#: Frobenius-norm tolerance for monomial deduplication and zero-dropping.
DEDUP_TOL = 1e-10

VERDICT_SEPARABLE = "separable_wrt"
VERDICT_ENTANGLED = "entangled_wrt"


@dataclass(eq=False)
class Subalgebra:
    """Finite generating set plus its monomial basis up to a degree bound.

    State-independent preparation is done once per subalgebra and per pair:
    the monomials' operator norms, unit-norm dedup and hermitian flags are
    cached on the subalgebra, and the commutator norm against another
    subalgebra is cached on the first one of the pair.  A Subalgebra must
    therefore be treated as immutable after :func:`generate`.
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
    def _unit_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Indices kept by the unit-norm dedup, their operator norms and hermitian flags."""
        mats = np.stack([m.matrix for m in self.monomials])
        norms = np.linalg.norm(mats, 2, axis=(1, 2))
        mats /= norms[:, None, None]
        keep: list[int] = []
        for i, mat in enumerate(mats):
            if not _is_duplicate(mat, [mats[k] for k in keep]):
                keep.append(i)
        mats = mats[keep]
        adjoint_gap = np.abs(mats - mats.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        return np.array(keep), norms[keep], adjoint_gap <= DEDUP_TOL


def _is_duplicate(mat: np.ndarray, pool: list[np.ndarray]) -> bool:
    return any(np.linalg.norm(mat - other) <= DEDUP_TOL for other in pool)


# a norm of finite entries may overflow to inf, which compares correctly; a
# product that overflows (inf, or NaN from inf * 0) raises NonFiniteError
@np.errstate(over="ignore", invalid="ignore")
def generate(
    generators: list[OperatorMatrix], degree_bound: int, label: str = ""
) -> Subalgebra:
    """Monomial basis of the unital algebra spanned by products of generators.

    The generator set is first closed under adjoints.  Products of length up
    to ``degree_bound`` are collected; matrix-equal duplicates (within
    DEDUP_TOL, Frobenius) and vanishing products are dropped.  Non-finite
    generators and products raise NonFiniteError.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be at least 1")
    if not generators:
        raise ValueError("need at least one generator")
    dim = generators[0].dim
    space = generators[0].space
    for g in generators:
        if g.dim != dim:
            raise DimensionMismatch("generators act on different dimensions")
        if not np.isfinite(g.matrix).all():
            raise NonFiniteError("generator has non-finite entries")

    gen_mats: list[np.ndarray] = []
    for g in generators:
        for mat in (g.matrix, g.matrix.conj().T):
            if np.linalg.norm(mat) > DEDUP_TOL and not _is_duplicate(mat, gen_mats):
                gen_mats.append(mat)

    monomials: list[np.ndarray] = [np.eye(dim, dtype=np.complex128)]
    degrees: list[int] = [0]
    frontier: list[np.ndarray] = [monomials[0]]
    for depth in range(1, degree_bound + 1):
        new_frontier: list[np.ndarray] = []
        for word in frontier:
            for gen in gen_mats:
                prod = word @ gen
                norm = np.linalg.norm(prod)
                if not np.isfinite(norm) and not np.isfinite(prod).all():
                    raise NonFiniteError("generator product is not finite")
                if norm <= DEDUP_TOL:
                    continue
                if _is_duplicate(prod, monomials) or _is_duplicate(prod, new_frontier):
                    continue
                new_frontier.append(prod)
        monomials.extend(new_frontier)
        degrees.extend([depth] * len(new_frontier))
        frontier = new_frontier
        if not frontier:
            break

    ops = [OperatorMatrix(space, m) for m in monomials]
    return Subalgebra(
        generators=list(generators),
        degree_bound=degree_bound,
        monomials=ops,
        degrees=degrees,
        label=label,
    )


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
    commutes on its exact sector.  The one exception: a generator within
    DEDUP_TOL (Frobenius) of the identity is no degree-1 monomial and is not
    checked; it commutes with every h up to 2 DEDUP_TOL ||h||.
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
    gens = [m.matrix for m, d in zip(sub.monomials, sub.degrees) if d == 1]
    gens = np.array(gens, dtype=np.complex128).reshape(-1, sub.dim, sub.dim)
    return gens / np.linalg.norm(gens, 2, axis=(1, 2))[:, None, None]


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

    keep_a, norms_a, herm_a = a._unit_basis
    keep_b, norms_b, herm_b = b._unit_basis
    labels_a = np.array([f"A.m{i}" for i in keep_a])
    labels_b = np.array([f"B.m{i}" for i in keep_b])
    # rows <psi| x1 and x2 |psi>, for unit-operator-norm monomials
    bras_a = np.array([psi.conj() @ a.monomials[i].matrix for i in keep_a])
    bras_a /= norms_a[:, None]
    kets_b = np.array([b.monomials[i].matrix @ psi for i in keep_b])
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
