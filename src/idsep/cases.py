"""Registry of named, parameter-free case studies, kept as one table.

Each row of ``_CASES`` gives a case id, a description, the source of its
expected values and a builder ``(tolerance, seed) -> (quantities, extra,
verdict rows)``.  Quantities are ``(name, computed, expected, provenance)``;
verdict rows are ``(context, computed, expected, provenance)`` under named
commuting subalgebra pairs or subspaces; extra holds the seeded polynomial
draw.  ``run_case`` alone builds a ``CaseResult``: a row whose verdict
differs also gets a ``verdict mismatch`` quantity (computed 0, expected 1)
after the case's own, and ``CaseResult.passed`` fails it at any tolerance.

Together the cases exercise both formalisms on the same states and exhibit
their disagreements: a state can factorize over one observable pair while a
reduced-matrix entropy calls it maximally entangled, and vice versa.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import algebra, fock, nolabel
from .algebra import VERDICT_ENTANGLED, VERDICT_SEPARABLE
from .errors import UnknownCase
from .hilbert import (
    DEFAULT_TOL,
    HilbertSpace,
    Ket,
    OperatorMatrix,
    basis_ket,
    bell_states,
    expectation,
    identity_op,
    qubit,
    sigma_x,
    sigma_z,
    tensor_ket,
    tensor_op,
)

DEFAULT_TOLERANCE = DEFAULT_TOL
DEFAULT_SEED = 42

_Pair = tuple[algebra.Subalgebra, algebra.Subalgebra]


@dataclass(frozen=True)
class Quantity:
    name: str
    computed: complex
    expected: complex
    provenance: str

    @property
    def deviation(self) -> float:
        return abs(complex(self.computed) - complex(self.expected))


@dataclass(frozen=True)
class CaseVerdict:
    context: str
    verdict: str
    expected: str  # not serialized; read by CaseResult.passed


@dataclass
class CaseResult:
    case_id: str
    quantities: list[Quantity]
    verdicts: list[CaseVerdict]
    extra: dict = field(default_factory=dict)

    @property
    def max_abs_deviation(self) -> float:
        return max((q.deviation for q in self.quantities), default=0.0)

    def passed(self, tol: float) -> bool:
        """Every quantity within tol and every verdict equal to its expected one."""
        return self.max_abs_deviation <= tol and all(
            v.verdict == v.expected for v in self.verdicts
        )


@dataclass(frozen=True)
class CaseDefinition:
    case_id: str
    description: str
    source: str
    build: Callable[[float, int], tuple[list[tuple], dict, list[tuple]]]


def list_cases() -> list[CaseDefinition]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def run_case(
    case_id: str, tolerance: float = DEFAULT_TOLERANCE, seed: int = DEFAULT_SEED
) -> CaseResult:
    if case_id not in _REGISTRY:
        raise UnknownCase(f"unknown case id {case_id!r}")
    quantities, extra, rows = _REGISTRY[case_id].build(tolerance, seed)
    mismatches = [
        (f"verdict mismatch: {context}", 0.0, 1.0, provenance)
        for context, computed, expected, provenance in rows
        if computed != expected
    ]
    return CaseResult(
        case_id=case_id,
        quantities=[Quantity(*q) for q in quantities + mismatches],
        verdicts=[CaseVerdict(*row[:3]) for row in rows],
        extra=extra,
    )


def run_all(
    tolerance: float = DEFAULT_TOLERANCE, seed: int = DEFAULT_SEED
) -> list[CaseResult]:
    return [run_case(cid, tolerance, seed) for cid in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


def _pair(generators: list[list[OperatorMatrix]], degree_bound: int) -> _Pair:
    """One subalgebra per side, generated from that side's matrices."""
    return tuple(algebra.generate(side, degree_bound) for side in generators)


def _verdict(state: Ket, pair, tolerance: float, space=None) -> str:
    """Factorization verdict; on a Fock space, restricted to its exact sectors."""
    mask = None if space is None else space.exact_mask
    report = algebra.factorization_test(state, *pair, tol=tolerance, exact_mask=mask)
    return report.verdict


def _particle_local_pair() -> _Pair:
    eye = identity_op(qubit())
    return _pair(
        [
            [tensor_op(sigma_x(), eye), tensor_op(sigma_z(), eye)],
            [tensor_op(eye, sigma_x()), tensor_op(eye, sigma_z())],
        ],
        4,
    )


def _mode_pair(space: fock.FockSpace, delocalized: bool) -> _Pair:
    """Degree-2 algebras of the left/right wells or of the delocalized modes."""
    if delocalized:
        modes = fock.bogoliubov_modes(space)
    else:
        modes = [
            fock.annihilation_op(space, basis_ket(space.mode_space, i))
            for i in (0, 1)
        ]
    return _pair([[mode.matrix] for mode in modes], 2)


def _left_well() -> tuple[HilbertSpace, list[Ket]]:
    """Left/right well times a two-valued internal label, and the left window."""
    space = HilbertSpace(("L", "R")).tensor(qubit())
    return space, [basis_ket(space, "L,0"), basis_ket(space, "L,1")]


def _balanced_projectors(u: Ket, v: Ket) -> tuple[OperatorMatrix, OperatorMatrix]:
    s = 1.0 / np.sqrt(2.0)
    return (s * (u + v)).outer(), (s * (u - v)).outer()


def _pair_state(space: HilbertSpace, first: str, second: str) -> nolabel.NoLabelState:
    """Normalized bosonic pair on two labeled levels (possibly the same one)."""
    pair = nolabel.NoLabelPair(
        basis_ket(space, first), basis_ket(space, second), nolabel.BOSON
    )
    coefficient = 1.0 / np.sqrt(2.0) if first == second else 1.0
    return nolabel.NoLabelState.from_pair(pair, coefficient=coefficient)


def _mode_words(space: fock.FockSpace, mode: int, max_degree: int) -> list[np.ndarray]:
    """All operator words over (a, adag) of one mode, lengths 0..max_degree."""
    a = space.creation_matrix(mode).conj().T
    c = space.creation_matrix(mode)
    words = [np.eye(space.dim, dtype=np.complex128)]
    for length in range(1, max_degree + 1):
        for letters in itertools.product((a, c), repeat=length):
            word = letters[0]
            for letter in letters[1:]:
                word = word @ letter
            words.append(word)
    return words


def number_state_polynomial_check(
    space: fock.FockSpace,
    k: int,
    n_total: int,
    count: int = 50,
    degree: int = 3,
    seed: int = DEFAULT_SEED,
) -> tuple[np.ndarray, list[dict]]:
    """Deviation |<PQ> - <P><Q>| on a number state for random L/R polynomials.

    P runs over random polynomials in the left ladder operators, Q in the
    right ones, with complex coefficients on every word up to ``degree``.
    The deviation is bilinear in the two coefficient vectors, so all trials
    read one word-pair defect matrix D[w, v] = <w v> - <w><v>.  Returns the
    per-trial deviations and the drawn coefficients.
    """
    psi = fock.number_state(space, k, n_total).amplitudes
    bras = psi.conj() @ np.stack(_mode_words(space, 0, degree))  # rows <psi| w
    kets = np.stack(_mode_words(space, 1, degree)) @ psi  # rows v |psi>
    defect = bras @ kets.T - np.outer(bras @ psi, kets @ psi.conj())
    # per trial: real and imaginary parts of the left, then of the right coefficients
    draws = np.random.default_rng(seed).standard_normal((count, 4, len(bras)))
    c_l, c_r = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
    deviations = np.abs(np.einsum("tw,wv,tv->t", c_l, defect, c_r))
    parts = np.stack([draws[:, 0::2], draws[:, 1::2]], axis=-1).tolist()
    coefficients = [{"left": left, "right": right} for left, right in parts]
    return deviations, coefficients


# ---------------------------------------------------------------------------
# row builders: each returns (quantities, extra, verdict rows)
# ---------------------------------------------------------------------------


def _bell_particle_local(tolerance: float, seed: int):
    psi = bell_states()["psi_plus"]
    eye = identity_op(qubit())
    correlator = expectation(psi, tensor_op(sigma_z(), sigma_z()))
    marginals = expectation(psi, tensor_op(sigma_z(), eye)) * expectation(
        psi, tensor_op(eye, sigma_z())
    )
    quantities = [
        (
            "<sigma_z x sigma_z> on the symmetric Bell state",
            correlator,
            -1.0,
            "closed-form Bell-state correlator",
        ),
        (
            "product of the two sigma_z marginals",
            marginals,
            0.0,
            "each marginal vanishes by symmetry of the Bell state",
        ),
        (
            "factorization defect at the (sigma_z, sigma_z) witness",
            abs(correlator - marginals),
            1.0,
            "difference of the two closed-form values above",
        ),
    ]
    rows = [
        (
            "symmetric Bell state vs single-qubit observable pair",
            _verdict(psi, _particle_local_pair(), tolerance),
            VERDICT_ENTANGLED,
            "factorization test over the particle-local pair",
        )
    ]
    return quantities, {}, rows


def _product_vs_apm(tolerance: float, seed: int):
    zero = basis_ket(qubit(), 0)
    zero_zero = tensor_ket(zero, zero)
    states = bell_states()
    phi_plus_proj = states["phi_plus"].outer()
    phi_minus_proj = states["phi_minus"].outer()
    joint = expectation(zero_zero, phi_plus_proj @ phi_minus_proj)
    marginals = expectation(zero_zero, phi_plus_proj) * expectation(
        zero_zero, phi_minus_proj
    )
    quantities = [
        (
            "joint expectation of the two phi Bell projectors on |00>",
            joint,
            0.0,
            "the two projectors are orthogonal, so their product vanishes",
        ),
        (
            "product of the projector marginals on |00>",
            marginals,
            0.25,
            "|00> overlaps each phi Bell state with probability 1/2",
        ),
    ]
    rows = [
        (
            "|00> vs single-qubit observable pair",
            _verdict(zero_zero, _particle_local_pair(), tolerance),
            VERDICT_SEPARABLE,
            "factorization test over the particle-local pair",
        ),
        (
            "|00> vs Bell-projector subalgebra pair",
            _verdict(zero_zero, algebra.bell_subalgebras(), tolerance),
            VERDICT_ENTANGLED,
            "factorization test over the Bell-projector pair",
        ),
    ]
    return quantities, {}, rows


def _bell_vs_apm(tolerance: float, seed: int):
    plus, minus = algebra.bell_subalgebras()
    quantities, rows = [], []
    for name, state in bell_states().items():
        report = algebra.factorization_test(state, plus, minus, tol=tolerance)
        quantities.append(
            (
                f"max factorization violation for {name}",
                report.max_violation,
                0.0,
                "expectations of the projector pair factorize exactly on "
                "every Bell state",
            )
        )
        rows.append(
            (
                f"{name} vs Bell-projector subalgebra pair",
                report.verdict,
                VERDICT_SEPARABLE,
                "factorization test over the Bell-projector pair",
            )
        )
    return quantities, {}, rows


def _one_per_well() -> tuple[fock.FockSpace, Ket]:
    space = fock.double_well(cutoff=2 + 4)
    return space, fock.number_state(space, 1, 2)


def _spatial_row(space: fock.FockSpace, state: Ket, tolerance: float) -> tuple:
    return (
        "one-per-well number state vs left/right mode subalgebras",
        _verdict(state, _mode_pair(space, False), tolerance, space),
        VERDICT_SEPARABLE,
        "factorization test over the spatial mode pair",
    )


def _doublewell_number_state(tolerance: float, seed: int):
    space, state = _one_per_well()
    deviations, coefficients = number_state_polynomial_check(
        space, k=1, n_total=2, count=50, degree=3, seed=seed
    )
    quantities = [
        (
            "max |<PQ> - <P><Q>| over 50 random degree-3 polynomial pairs",
            float(deviations.max()),
            0.0,
            "left and right polynomials decouple exactly on number states",
        )
    ]
    extra = {"seed": seed, "polynomial_coefficients": coefficients}
    return quantities, extra, [_spatial_row(space, state, tolerance)]


def _doublewell_bogoliubov(tolerance: float, seed: int):
    space, state = _one_per_well()
    b_plus, b_minus = fock.bogoliubov_modes(space)
    n_plus = b_plus.matrix.dagger() @ b_plus.matrix
    n_minus = b_minus.matrix.dagger() @ b_minus.matrix
    joint = expectation(state, n_plus @ n_minus)
    left = expectation(state, n_plus)
    right = expectation(state, n_minus)
    quantities = [
        (
            "joint delocalized-mode number correlator on the one-per-well state",
            joint,
            0.0,
            "direct ladder evaluation: the state is an equal superposition "
            "of both quanta symmetric and both antisymmetric",
        ),
        (
            "product of the delocalized-mode occupations",
            left * right,
            1.0,
            "each delocalized mode holds one quantum on average",
        ),
        (
            "factorization defect at the number-number witness",
            abs(joint - left * right),
            1.0,
            "difference of the two values above",
        ),
    ]
    rows = [
        (
            "one-per-well number state vs delocalized mode subalgebras",
            _verdict(state, _mode_pair(space, True), tolerance, space),
            VERDICT_ENTANGLED,
            "factorization test over the delocalized mode pair",
        ),
        _spatial_row(space, state, tolerance),
    ]
    return quantities, {}, rows


def _factor_case(observables, expected, provenance: str, tolerance: float, seed: int):
    """Both sides of the pair factorization criterion, bosons then fermions.

    The pair is two orthonormal basis kets of a four-level space;
    ``observables(space, phi1, phi2)`` gives the two commuting projectors and
    ``expected`` one (left side, right side, verdict) triple per sign.
    """
    space = HilbertSpace.of_dim(4, prefix="e")
    phi1, phi2 = basis_ket(space, 0), basis_ket(space, 1)
    quantities, rows = [], []
    for eta, tag, (exp_lhs, exp_rhs, exp_verdict) in zip(
        (nolabel.BOSON, nolabel.FERMION), ("bosons", "fermions"), expected
    ):
        state = nolabel.NoLabelState.from_pair(nolabel.NoLabelPair(phi1, phi2, eta))
        op1, op2 = observables(space, phi1, phi2)
        lhs, rhs = nolabel.pair_factorization_sides(state, op1, op2, tol=tolerance)
        quantities.append((f"criterion left side ({tag})", lhs, exp_lhs, provenance))
        quantities.append((f"criterion right side ({tag})", rhs, exp_rhs, provenance))
        computed = (
            VERDICT_SEPARABLE if abs(lhs - rhs) <= tolerance else VERDICT_ENTANGLED
        )
        rows.append(
            (
                f"orthonormal pair vs the commuting projector pair ({tag})",
                computed,
                exp_verdict,
                "equality of the two criterion sides",
            )
        )
    return quantities, {}, rows


def _leftloc_case(
    levels: tuple[str, str],
    mixed_levels: tuple[str, ...],
    expected_entropy: float,
    expected_verdict: str,
    tolerance: float,
    seed: int,
):
    """Left-window reduction of the bosonic pair on ``levels``.

    The expected reduced matrix is the uniform mixture of ``mixed_levels``.
    """
    space, window = _left_well()
    state = _pair_state(space, *levels)
    reduced = nolabel.subspace_reduced_dm(state, window, tol=tolerance)
    entropy = nolabel.entanglement_entropy(state, window, tol=tolerance)
    expected_matrix = sum(
        basis_ket(space, level).outer().matrix for level in mixed_levels
    ) / len(mixed_levels)
    matrix_dev = float(np.abs(reduced.matrix.matrix - expected_matrix).max())
    quantities = [
        (
            "left-window entanglement entropy (bits)",
            entropy,
            expected_entropy,
            "rank and weights of the left-window reduced matrix",
        ),
        (
            "max entrywise deviation of the reduced matrix",
            matrix_dev,
            0.0,
            "reduced matrix written out in the four-level basis",
        ),
    ]
    rows = [
        (
            "verdict of the left-window reduced-matrix entropy",
            VERDICT_ENTANGLED if entropy > tolerance else VERDICT_SEPARABLE,
            expected_verdict,
            "entropy above/below tolerance",
        )
    ]
    return quantities, {}, rows


def _projector_case(
    balanced: bool,
    comparisons,
    context: str,
    expected_verdict: str,
    tolerance: float,
    seed: int,
):
    """Extended left-well projectors on bosonic pair states.

    The projectors are the balanced pair (L,0 +- L,1)/sqrt(2), or the two
    left level projectors.  Each comparison ``(levels, joint, marginals)``
    reports the joint expectation and the product of the marginals on the
    pair state over ``levels``, each named by a ``(name, expected,
    provenance)`` triple.  The first comparison's state, in its normalized
    tensor-product image, is also tested over the subalgebras that the
    extended projectors generate.
    """
    space, (l0, l1) = _left_well()
    ops = _balanced_projectors(l0, l1) if balanced else (l0.outer(), l1.outer())
    quantities, states = [], []
    for levels, *specs in comparisons:
        state = _pair_state(space, *levels)
        joint = nolabel.product_expectation(state, *ops)
        marginals = math.prod(nolabel.extended_expectation(state, op) for op in ops)
        for (name, expected, provenance), value in zip(specs, (joint, marginals)):
            quantities.append((name, value, expected, provenance))
        states.append(state)
    pair = _pair([[nolabel.extend_operator_matrix(op)] for op in ops], 2)
    tested = nolabel.to_first_quantized(states[0]).normalized()
    rows = [
        (
            context,
            _verdict(tested, pair, tolerance),
            expected_verdict,
            "factorization test over the extended projector pair",
        )
    ]
    return quantities, {}, rows


# ---------------------------------------------------------------------------
# the registry table
# ---------------------------------------------------------------------------

_BALANCED_JOINT = "joint expectation of the balanced left projectors"
_MARGINALS = "product of the extended-projector marginals"
_RELABELED = "internal-level relabeling leaves the projectors invariant"

_CASES = (
    CaseDefinition(
        "bell-particle-local",
        "Bell-state correlations fail to factorize over single-qubit observables",
        "analytic two-qubit correlators",
        _bell_particle_local,
    ),
    CaseDefinition(
        "product-vs-Apm",
        "A product state factorizes over qubit-local observables but not over the "
        "Bell-projector subalgebras",
        "analytic projector overlaps",
        _product_vs_apm,
    ),
    CaseDefinition(
        "bell-vs-Apm",
        "All four Bell states factorize over the Bell-projector subalgebra pair",
        "orthogonality of the four Bell projectors",
        _bell_vs_apm,
    ),
    CaseDefinition(
        "doublewell-number-state",
        "Number states of a bosonic double well factorize over left/right "
        "polynomial observables",
        "ladder-operator evaluation on occupation states",
        _doublewell_number_state,
    ),
    CaseDefinition(
        "doublewell-bogoliubov",
        "The same number state is entangled with respect to delocalized modes",
        "ladder-operator evaluation in the rotated mode basis",
        _doublewell_bogoliubov,
    ),
    CaseDefinition(
        "nolabel-factor-1",
        "Projectors onto the two constituents: expectations factorize for both signs",
        "closed-form overlap algebra for orthonormal constituents",
        partial(
            _factor_case,
            lambda space, phi1, phi2: (phi1.outer(), phi2.outer()),
            ((0.0, 0.0, VERDICT_SEPARABLE), (0.0, 0.0, VERDICT_SEPARABLE)),
            "both sides vanish: each projector kills the other constituent",
        ),
    ),
    CaseDefinition(
        "nolabel-factor-2",
        "Projectors onto balanced superpositions of the constituents: bosons fail "
        "to factorize, fermions do not",
        "closed-form overlap algebra for orthonormal constituents",
        partial(
            _factor_case,
            lambda space, phi1, phi2: _balanced_projectors(phi1, phi2),
            ((-0.5, 0.5, VERDICT_ENTANGLED), (0.5, 0.5, VERDICT_SEPARABLE)),
            "cross overlaps of the balanced projectors are +-1/2",
        ),
    ),
    CaseDefinition(
        "nolabel-factor-3",
        "Superpositions reaching outside the pair: factorization fails for both signs",
        "closed-form overlap algebra for orthonormal constituents",
        partial(
            _factor_case,
            lambda space, phi1, phi2: _balanced_projectors(phi1, basis_ket(space, 2)),
            ((0.0, 0.25, VERDICT_ENTANGLED), (0.0, 0.25, VERDICT_ENTANGLED)),
            "only the first constituent overlaps the rotated projectors",
        ),
    ),
    CaseDefinition(
        "leftloc-1",
        "One particle on each side: the left window sees a pure state",
        "direct reduction of a two-level example",
        partial(_leftloc_case, ("L,0", "R,1"), ("R,1",), 0.0, VERDICT_SEPARABLE),
    ),
    CaseDefinition(
        "leftloc-2",
        "Both particles in the same left level: the left window sees a pure state",
        "direct reduction of a two-level example",
        partial(_leftloc_case, ("L,0", "L,0"), ("L,0",), 0.0, VERDICT_SEPARABLE),
    ),
    CaseDefinition(
        "leftloc-3",
        "Two left particles in different levels: the left window is maximally mixed",
        "direct reduction of a two-level example",
        partial(
            _leftloc_case, ("L,0", "L,1"), ("L,0", "L,1"), 1.0, VERDICT_ENTANGLED
        ),
    ),
    CaseDefinition(
        "leftloc-projector-1",
        "One particle per side: zero left-window entropy, yet balanced left "
        "projectors refuse to factorize",
        "closed-form extended-projector expectations",
        partial(
            _projector_case,
            True,
            [
                (
                    ("L,0", "R,1"),
                    (
                        _BALANCED_JOINT,
                        0.0,
                        "the left constituent is killed by one projector of each "
                        "product term",
                    ),
                    (
                        _MARGINALS,
                        0.25,
                        "each marginal is 1/2: only the left constituent responds",
                    ),
                )
            ],
            "pair state vs extended balanced left projectors",
            VERDICT_ENTANGLED,
        ),
    ),
    CaseDefinition(
        "leftloc-projector-2",
        "Doubly occupied left level: zero left-window entropy, balanced left "
        "projectors again refuse to factorize",
        "closed-form extended-projector expectations",
        partial(
            _projector_case,
            True,
            [
                (
                    ("L,1", "L,1"),
                    (
                        _BALANCED_JOINT,
                        0.5,
                        "direct symmetric-action evaluation on the doubly occupied "
                        "level",
                    ),
                    (
                        _MARGINALS,
                        1.0,
                        "each marginal is 1: both particles sit in the left well",
                    ),
                ),
                # the same doubly-occupied structure in the other internal level
                (
                    ("L,0", "L,0"),
                    (
                        "joint expectation for the level-0 spelling of the same "
                        "structure",
                        0.5,
                        _RELABELED,
                    ),
                    (
                        "marginal product for the level-0 spelling of the same "
                        "structure",
                        1.0,
                        _RELABELED,
                    ),
                ),
            ],
            "doubly occupied level vs extended balanced left projectors",
            VERDICT_ENTANGLED,
        ),
    ),
    CaseDefinition(
        "leftloc-projector-3",
        "Two left particles in different levels: maximal left-window entropy, yet "
        "the level projectors factorize",
        "closed-form extended-projector expectations",
        partial(
            _projector_case,
            False,
            [
                (
                    ("L,0", "L,1"),
                    (
                        "joint expectation of the two left level projectors",
                        1.0,
                        "the pair state is a joint eigenvector of both extended "
                        "projectors",
                    ),
                    (
                        _MARGINALS,
                        1.0,
                        "each extended marginal counts exactly one particle per "
                        "level",
                    ),
                )
            ],
            "pair state vs extended left level projectors",
            VERDICT_SEPARABLE,
        ),
    ),
)

_REGISTRY: dict[str, CaseDefinition] = {d.case_id: d for d in _CASES}
