"""Registry of named, parameter-free case studies.

Each case computes a handful of quantities with hard-coded expected values
(every expected value carries a provenance note saying how it was obtained)
plus separability verdicts under explicitly named commuting-subalgebra pairs.
Together the cases exercise both formalisms on the same states and exhibit
their disagreements: a state can factorize over one observable pair while a
reduced-matrix entropy calls it maximally entangled, and vice versa.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import algebra, fock, nolabel
from .algebra import VERDICT_ENTANGLED, VERDICT_SEPARABLE
from .errors import UnknownCase
from .hilbert import (
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

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 42


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


@dataclass
class CaseResult:
    case_id: str
    quantities: list[Quantity]
    verdicts: list[CaseVerdict]
    extra: dict = field(default_factory=dict)

    @property
    def max_abs_deviation(self) -> float:
        return max((q.deviation for q in self.quantities), default=0.0)


@dataclass(frozen=True)
class CaseDefinition:
    case_id: str
    description: str
    source: str
    run: Callable[[float, int], CaseResult]


_REGISTRY: dict[str, CaseDefinition] = {}


def _case(case_id: str, description: str, source: str):
    def decorator(fn):
        _REGISTRY[case_id] = CaseDefinition(case_id, description, source, fn)
        return fn

    return decorator


def list_cases() -> list[CaseDefinition]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def run_case(
    case_id: str, tolerance: float = DEFAULT_TOLERANCE, seed: int = DEFAULT_SEED
) -> CaseResult:
    if case_id not in _REGISTRY:
        raise UnknownCase(f"unknown case id {case_id!r}")
    return _REGISTRY[case_id].run(tolerance, seed)


def run_all(
    tolerance: float = DEFAULT_TOLERANCE, seed: int = DEFAULT_SEED
) -> list[CaseResult]:
    return [run_case(cid, tolerance, seed) for cid in sorted(_REGISTRY)]


def _append_verdict(
    result: CaseResult,
    context: str,
    computed: str,
    expected: str,
    provenance: str,
) -> None:
    """Record a verdict; a mismatch also trips the numeric gate."""
    result.verdicts.append(CaseVerdict(context, computed))
    if computed != expected:
        result.quantities.append(
            Quantity(
                name=f"verdict mismatch: {context}",
                computed=0.0,
                expected=1.0,
                provenance=provenance,
            )
        )


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


def _particle_local_pair() -> tuple[algebra.Subalgebra, algebra.Subalgebra]:
    eye = identity_op(qubit())
    left = algebra.generate(
        [tensor_op(sigma_x(), eye), tensor_op(sigma_z(), eye)],
        4,
        label="first-qubit observables",
    )
    right = algebra.generate(
        [tensor_op(eye, sigma_x()), tensor_op(eye, sigma_z())],
        4,
        label="second-qubit observables",
    )
    return left, right


def _lr_internal_space() -> HilbertSpace:
    # four levels: left/right well times a two-valued internal label
    return HilbertSpace(("L", "R")).tensor(qubit())


def _left_window(space: HilbertSpace) -> list[Ket]:
    return [basis_ket(space, "L,0"), basis_ket(space, "L,1")]


def _left_pm_projectors(space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    l0, l1 = _left_window(space)
    s = 1.0 / np.sqrt(2.0)
    plus = (s * (l0 + l1)).outer()
    minus = (s * (l0 - l1)).outer()
    return plus, minus


def _spatial_mode_pair(
    space: fock.FockSpace, degree_bound: int = 2
) -> tuple[algebra.Subalgebra, algebra.Subalgebra]:
    e_l = basis_ket(space.mode_space, 0)
    e_r = basis_ket(space.mode_space, 1)
    left = algebra.generate(
        [fock.annihilation_op(space, e_l).matrix],
        degree_bound,
        label="left-well ladder operators",
    )
    right = algebra.generate(
        [fock.annihilation_op(space, e_r).matrix],
        degree_bound,
        label="right-well ladder operators",
    )
    return left, right


def _delocalized_mode_pair(
    space: fock.FockSpace, degree_bound: int = 2
) -> tuple[algebra.Subalgebra, algebra.Subalgebra]:
    b_plus, b_minus = fock.bogoliubov_modes(space)
    plus = algebra.generate(
        [b_plus.matrix], degree_bound, label="symmetric delocalized mode"
    )
    minus = algebra.generate(
        [b_minus.matrix], degree_bound, label="antisymmetric delocalized mode"
    )
    return plus, minus


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
    Returns the per-trial deviations and the drawn coefficients.
    """
    words_l = _mode_words(space, 0, degree)
    words_r = _mode_words(space, 1, degree)
    psi = fock.number_state(space, k, n_total).amplitudes
    rng = np.random.default_rng(seed)
    deviations = np.zeros(count)
    coefficients: list[dict] = []
    for t in range(count):
        c_l = rng.standard_normal(len(words_l)) + 1j * rng.standard_normal(
            len(words_l)
        )
        c_r = rng.standard_normal(len(words_r)) + 1j * rng.standard_normal(
            len(words_r)
        )
        p = sum(c * w for c, w in zip(c_l, words_l))
        q = sum(c * w for c, w in zip(c_r, words_r))
        joint = np.vdot(p.conj().T @ psi, q @ psi)
        left = np.vdot(psi, p @ psi)
        right = np.vdot(psi, q @ psi)
        deviations[t] = abs(joint - left * right)
        coefficients.append(
            {
                "left": [[z.real, z.imag] for z in c_l],
                "right": [[z.real, z.imag] for z in c_r],
            }
        )
    return deviations, coefficients


# ---------------------------------------------------------------------------
# qubit-pair cases
# ---------------------------------------------------------------------------


@_case(
    "bell-particle-local",
    "Bell-state correlations fail to factorize over single-qubit observables",
    "analytic two-qubit correlators",
)
def _bell_particle_local(tolerance: float, seed: int) -> CaseResult:
    psi = bell_states()["psi_plus"]
    eye = identity_op(qubit())
    zz = tensor_op(sigma_z(), sigma_z())
    z1 = tensor_op(sigma_z(), eye)
    z2 = tensor_op(eye, sigma_z())
    correlator = expectation(psi, zz)
    marginals = expectation(psi, z1) * expectation(psi, z2)
    result = CaseResult(
        case_id="bell-particle-local",
        quantities=[
            Quantity(
                "<sigma_z x sigma_z> on the symmetric Bell state",
                correlator,
                -1.0,
                "closed-form Bell-state correlator",
            ),
            Quantity(
                "product of the two sigma_z marginals",
                marginals,
                0.0,
                "each marginal vanishes by symmetry of the Bell state",
            ),
            Quantity(
                "factorization defect at the (sigma_z, sigma_z) witness",
                abs(correlator - marginals),
                1.0,
                "difference of the two closed-form values above",
            ),
        ],
        verdicts=[],
    )
    left, right = _particle_local_pair()
    report = algebra.factorization_test(psi, left, right, tol=tolerance)
    _append_verdict(
        result,
        "symmetric Bell state vs single-qubit observable pair",
        report.verdict,
        VERDICT_ENTANGLED,
        "factorization test over the particle-local pair",
    )
    return result


@_case(
    "product-vs-Apm",
    "A product state factorizes over qubit-local observables but not over the "
    "Bell-projector subalgebras",
    "analytic projector overlaps",
)
def _product_vs_apm(tolerance: float, seed: int) -> CaseResult:
    q = qubit()
    zero = basis_ket(q, 0)
    zero_zero = tensor_ket(zero, zero)
    states = bell_states()
    phi_plus_proj = states["phi_plus"].outer()
    phi_minus_proj = states["phi_minus"].outer()
    joint = expectation(zero_zero, phi_plus_proj @ phi_minus_proj)
    marginals = expectation(zero_zero, phi_plus_proj) * expectation(
        zero_zero, phi_minus_proj
    )
    result = CaseResult(
        case_id="product-vs-Apm",
        quantities=[
            Quantity(
                "joint expectation of the two phi Bell projectors on |00>",
                joint,
                0.0,
                "the two projectors are orthogonal, so their product vanishes",
            ),
            Quantity(
                "product of the projector marginals on |00>",
                marginals,
                0.25,
                "|00> overlaps each phi Bell state with probability 1/2",
            ),
        ],
        verdicts=[],
    )
    left, right = _particle_local_pair()
    local_report = algebra.factorization_test(zero_zero, left, right, tol=tolerance)
    _append_verdict(
        result,
        "|00> vs single-qubit observable pair",
        local_report.verdict,
        VERDICT_SEPARABLE,
        "factorization test over the particle-local pair",
    )
    plus, minus = algebra.bell_subalgebras()
    bell_report = algebra.factorization_test(zero_zero, plus, minus, tol=tolerance)
    _append_verdict(
        result,
        "|00> vs Bell-projector subalgebra pair",
        bell_report.verdict,
        VERDICT_ENTANGLED,
        "factorization test over the Bell-projector pair",
    )
    return result


@_case(
    "bell-vs-Apm",
    "All four Bell states factorize over the Bell-projector subalgebra pair",
    "orthogonality of the four Bell projectors",
)
def _bell_vs_apm(tolerance: float, seed: int) -> CaseResult:
    plus, minus = algebra.bell_subalgebras()
    result = CaseResult(case_id="bell-vs-Apm", quantities=[], verdicts=[])
    for name, state in bell_states().items():
        report = algebra.factorization_test(state, plus, minus, tol=tolerance)
        result.quantities.append(
            Quantity(
                f"max factorization violation for {name}",
                report.max_violation,
                0.0,
                "expectations of the projector pair factorize exactly on "
                "every Bell state",
            )
        )
        _append_verdict(
            result,
            f"{name} vs Bell-projector subalgebra pair",
            report.verdict,
            VERDICT_SEPARABLE,
            "factorization test over the Bell-projector pair",
        )
    return result


# ---------------------------------------------------------------------------
# two-well Fock cases
# ---------------------------------------------------------------------------


@_case(
    "doublewell-number-state",
    "Number states of a bosonic double well factorize over left/right "
    "polynomial observables",
    "ladder-operator evaluation on occupation states",
)
def _doublewell_number_state(tolerance: float, seed: int) -> CaseResult:
    n_total = 2
    space = fock.double_well(cutoff=n_total + 4)
    deviations, coefficients = number_state_polynomial_check(
        space, k=1, n_total=n_total, count=50, degree=3, seed=seed
    )
    result = CaseResult(
        case_id="doublewell-number-state",
        quantities=[
            Quantity(
                "max |<PQ> - <P><Q>| over 50 random degree-3 polynomial pairs",
                float(deviations.max()),
                0.0,
                "left and right polynomials decouple exactly on number states",
            )
        ],
        verdicts=[],
        extra={"seed": seed, "polynomial_coefficients": coefficients},
    )
    state = fock.number_state(space, 1, n_total)
    left, right = _spatial_mode_pair(space)
    report = algebra.factorization_test(
        state, left, right, tol=tolerance, exact_mask=space.exact_mask
    )
    _append_verdict(
        result,
        "one-per-well number state vs left/right mode subalgebras",
        report.verdict,
        VERDICT_SEPARABLE,
        "factorization test over the spatial mode pair",
    )
    return result


@_case(
    "doublewell-bogoliubov",
    "The same number state is entangled with respect to delocalized modes",
    "ladder-operator evaluation in the rotated mode basis",
)
def _doublewell_bogoliubov(tolerance: float, seed: int) -> CaseResult:
    n_total = 2
    space = fock.double_well(cutoff=n_total + 4)
    state = fock.number_state(space, 1, n_total)
    b_plus, b_minus = fock.bogoliubov_modes(space)
    n_plus = b_plus.matrix.dagger() @ b_plus.matrix
    n_minus = b_minus.matrix.dagger() @ b_minus.matrix
    joint = expectation(state, n_plus @ n_minus)
    left = expectation(state, n_plus)
    right = expectation(state, n_minus)
    result = CaseResult(
        case_id="doublewell-bogoliubov",
        quantities=[
            Quantity(
                "joint delocalized-mode number correlator on the one-per-well state",
                joint,
                0.0,
                "direct ladder evaluation: the state is an equal superposition "
                "of both quanta symmetric and both antisymmetric",
            ),
            Quantity(
                "product of the delocalized-mode occupations",
                left * right,
                1.0,
                "each delocalized mode holds one quantum on average",
            ),
            Quantity(
                "factorization defect at the number-number witness",
                abs(joint - left * right),
                1.0,
                "difference of the two values above",
            ),
        ],
        verdicts=[],
    )
    plus, minus = _delocalized_mode_pair(space)
    report = algebra.factorization_test(
        state, plus, minus, tol=tolerance, exact_mask=space.exact_mask
    )
    _append_verdict(
        result,
        "one-per-well number state vs delocalized mode subalgebras",
        report.verdict,
        VERDICT_ENTANGLED,
        "factorization test over the delocalized mode pair",
    )
    spatial_left, spatial_right = _spatial_mode_pair(space)
    spatial_report = algebra.factorization_test(
        state,
        spatial_left,
        spatial_right,
        tol=tolerance,
        exact_mask=space.exact_mask,
    )
    _append_verdict(
        result,
        "one-per-well number state vs left/right mode subalgebras",
        spatial_report.verdict,
        VERDICT_SEPARABLE,
        "factorization test over the spatial mode pair",
    )
    return result


# ---------------------------------------------------------------------------
# unlabeled-pair factorization cases (both exchange signs)
# ---------------------------------------------------------------------------


def _factor_case(
    case_id: str,
    tolerance: float,
    observable_builder,
    expected_sides,
    expected_verdicts,
    provenance: str,
) -> CaseResult:
    space = HilbertSpace.of_dim(4, prefix="e")
    phi1, phi2 = basis_ket(space, 0), basis_ket(space, 1)
    result = CaseResult(case_id=case_id, quantities=[], verdicts=[])
    for eta in (nolabel.BOSON, nolabel.FERMION):
        tag = "bosons" if eta == nolabel.BOSON else "fermions"
        state = nolabel.NoLabelState.from_pair(nolabel.NoLabelPair(phi1, phi2, eta))
        op1, op2 = observable_builder(space, phi1, phi2)
        lhs, rhs = nolabel.pair_factorization_sides(state, op1, op2, tol=tolerance)
        exp_lhs, exp_rhs = expected_sides(eta)
        result.quantities.append(
            Quantity(f"criterion left side ({tag})", lhs, exp_lhs, provenance)
        )
        result.quantities.append(
            Quantity(f"criterion right side ({tag})", rhs, exp_rhs, provenance)
        )
        computed = (
            VERDICT_SEPARABLE if abs(lhs - rhs) <= tolerance else VERDICT_ENTANGLED
        )
        _append_verdict(
            result,
            f"orthonormal pair vs the commuting projector pair ({tag})",
            computed,
            expected_verdicts(eta),
            "equality of the two criterion sides",
        )
    return result


@_case(
    "nolabel-factor-1",
    "Projectors onto the two constituents: expectations factorize for both signs",
    "closed-form overlap algebra for orthonormal constituents",
)
def _nolabel_factor_1(tolerance: float, seed: int) -> CaseResult:
    def build(space, phi1, phi2):
        return phi1.outer(), phi2.outer()

    return _factor_case(
        "nolabel-factor-1",
        tolerance,
        build,
        expected_sides=lambda eta: (0.0, 0.0),
        expected_verdicts=lambda eta: VERDICT_SEPARABLE,
        provenance="both sides vanish: each projector kills the other constituent",
    )


@_case(
    "nolabel-factor-2",
    "Projectors onto balanced superpositions of the constituents: bosons fail "
    "to factorize, fermions do not",
    "closed-form overlap algebra for orthonormal constituents",
)
def _nolabel_factor_2(tolerance: float, seed: int) -> CaseResult:
    def build(space, phi1, phi2):
        s = 1.0 / np.sqrt(2.0)
        return (s * (phi1 + phi2)).outer(), (s * (phi1 - phi2)).outer()

    return _factor_case(
        "nolabel-factor-2",
        tolerance,
        build,
        expected_sides=lambda eta: (-eta / 2.0, 0.5),
        expected_verdicts=lambda eta: (
            VERDICT_SEPARABLE if eta == nolabel.FERMION else VERDICT_ENTANGLED
        ),
        provenance="cross overlaps of the balanced projectors are +-1/2",
    )


@_case(
    "nolabel-factor-3",
    "Superpositions reaching outside the pair: factorization fails for both signs",
    "closed-form overlap algebra for orthonormal constituents",
)
def _nolabel_factor_3(tolerance: float, seed: int) -> CaseResult:
    def build(space, phi1, phi2):
        third = basis_ket(space, 2)
        s = 1.0 / np.sqrt(2.0)
        return (s * (phi1 + third)).outer(), (s * (phi1 - third)).outer()

    return _factor_case(
        "nolabel-factor-3",
        tolerance,
        build,
        expected_sides=lambda eta: (0.0, 0.25),
        expected_verdicts=lambda eta: VERDICT_ENTANGLED,
        provenance="only the first constituent overlaps the rotated projectors",
    )


# ---------------------------------------------------------------------------
# left-localized reduction cases
# ---------------------------------------------------------------------------


def _leftloc_case(
    case_id: str,
    state: nolabel.NoLabelState,
    expected_matrix: np.ndarray,
    expected_entropy: float,
    expected_verdict: str,
    tolerance: float,
) -> CaseResult:
    space = state.space
    window = _left_window(space)
    reduced = nolabel.subspace_reduced_dm(state, window, tol=tolerance)
    entropy = nolabel.entanglement_entropy(state, window, tol=tolerance)
    matrix_dev = float(np.abs(reduced.matrix.matrix - expected_matrix).max())
    result = CaseResult(
        case_id=case_id,
        quantities=[
            Quantity(
                "left-window entanglement entropy (bits)",
                entropy,
                expected_entropy,
                "rank and weights of the left-window reduced matrix",
            ),
            Quantity(
                "max entrywise deviation of the reduced matrix",
                matrix_dev,
                0.0,
                "reduced matrix written out in the four-level basis",
            ),
        ],
        verdicts=[],
    )
    computed = (
        VERDICT_ENTANGLED if entropy > tolerance else VERDICT_SEPARABLE
    )
    _append_verdict(
        result,
        "verdict of the left-window reduced-matrix entropy",
        computed,
        expected_verdict,
        "entropy above/below tolerance",
    )
    return result


@_case(
    "leftloc-1",
    "One particle on each side: the left window sees a pure state",
    "direct reduction of a two-level example",
)
def _leftloc_1(tolerance: float, seed: int) -> CaseResult:
    space = _lr_internal_space()
    l0 = basis_ket(space, "L,0")
    r1 = basis_ket(space, "R,1")
    state = nolabel.NoLabelState.from_pair(
        nolabel.NoLabelPair(l0, r1, nolabel.BOSON)
    )
    return _leftloc_case(
        "leftloc-1", state, r1.outer().matrix, 0.0, VERDICT_SEPARABLE, tolerance
    )


@_case(
    "leftloc-2",
    "Both particles in the same left level: the left window sees a pure state",
    "direct reduction of a two-level example",
)
def _leftloc_2(tolerance: float, seed: int) -> CaseResult:
    space = _lr_internal_space()
    l0 = basis_ket(space, "L,0")
    pair = nolabel.NoLabelPair(l0, l0, nolabel.BOSON)
    state = nolabel.NoLabelState.from_pair(pair, coefficient=1.0 / np.sqrt(2.0))
    return _leftloc_case(
        "leftloc-2", state, l0.outer().matrix, 0.0, VERDICT_SEPARABLE, tolerance
    )


@_case(
    "leftloc-3",
    "Two left particles in different levels: the left window is maximally mixed",
    "direct reduction of a two-level example",
)
def _leftloc_3(tolerance: float, seed: int) -> CaseResult:
    space = _lr_internal_space()
    l0 = basis_ket(space, "L,0")
    l1 = basis_ket(space, "L,1")
    state = nolabel.NoLabelState.from_pair(
        nolabel.NoLabelPair(l0, l1, nolabel.BOSON)
    )
    expected = 0.5 * (l0.outer().matrix + l1.outer().matrix)
    return _leftloc_case(
        "leftloc-3", state, expected, 1.0, VERDICT_ENTANGLED, tolerance
    )


# ---------------------------------------------------------------------------
# left-localized projector comparisons
# ---------------------------------------------------------------------------


def _projector_comparison(
    state: nolabel.NoLabelState,
    op1: OperatorMatrix,
    op2: OperatorMatrix,
) -> tuple[complex, complex]:
    joint = nolabel.product_expectation(state, op1, op2)
    marginals = nolabel.extended_expectation(state, op1) * nolabel.extended_expectation(
        state, op2
    )
    return joint, marginals


def _extended_subalgebra_pair(
    op1: OperatorMatrix, op2: OperatorMatrix, labels: tuple[str, str]
) -> tuple[algebra.Subalgebra, algebra.Subalgebra]:
    first = algebra.generate(
        [nolabel.extend_operator_matrix(op1)], 2, label=labels[0]
    )
    second = algebra.generate(
        [nolabel.extend_operator_matrix(op2)], 2, label=labels[1]
    )
    return first, second


@_case(
    "leftloc-projector-1",
    "One particle per side: zero left-window entropy, yet balanced left "
    "projectors refuse to factorize",
    "closed-form extended-projector expectations",
)
def _leftloc_projector_1(tolerance: float, seed: int) -> CaseResult:
    space = _lr_internal_space()
    l0 = basis_ket(space, "L,0")
    r1 = basis_ket(space, "R,1")
    state = nolabel.NoLabelState.from_pair(
        nolabel.NoLabelPair(l0, r1, nolabel.BOSON)
    )
    plus, minus = _left_pm_projectors(space)
    joint, marginals = _projector_comparison(state, plus, minus)
    result = CaseResult(
        case_id="leftloc-projector-1",
        quantities=[
            Quantity(
                "joint expectation of the balanced left projectors",
                joint,
                0.0,
                "the left constituent is killed by one projector of each product term",
            ),
            Quantity(
                "product of the extended-projector marginals",
                marginals,
                0.25,
                "each marginal is 1/2: only the left constituent responds",
            ),
        ],
        verdicts=[],
    )
    first, second = _extended_subalgebra_pair(
        plus, minus, ("extended left-plus projector", "extended left-minus projector")
    )
    report = algebra.factorization_test(
        to_normalized_fq(state), first, second, tol=tolerance
    )
    _append_verdict(
        result,
        "pair state vs extended balanced left projectors",
        report.verdict,
        VERDICT_ENTANGLED,
        "factorization test over the extended projector pair",
    )
    return result


@_case(
    "leftloc-projector-2",
    "Doubly occupied left level: zero left-window entropy, balanced left "
    "projectors again refuse to factorize",
    "closed-form extended-projector expectations",
)
def _leftloc_projector_2(tolerance: float, seed: int) -> CaseResult:
    space = _lr_internal_space()
    l1 = basis_ket(space, "L,1")
    state = nolabel.NoLabelState.from_pair(
        nolabel.NoLabelPair(l1, l1, nolabel.BOSON), coefficient=1.0 / np.sqrt(2.0)
    )
    plus, minus = _left_pm_projectors(space)
    joint, marginals = _projector_comparison(state, plus, minus)
    # the same doubly-occupied structure in the other internal level
    l0 = basis_ket(space, "L,0")
    alt_state = nolabel.NoLabelState.from_pair(
        nolabel.NoLabelPair(l0, l0, nolabel.BOSON), coefficient=1.0 / np.sqrt(2.0)
    )
    alt_joint, alt_marginals = _projector_comparison(alt_state, plus, minus)
    result = CaseResult(
        case_id="leftloc-projector-2",
        quantities=[
            Quantity(
                "joint expectation of the balanced left projectors",
                joint,
                0.5,
                "direct symmetric-action evaluation on the doubly occupied level",
            ),
            Quantity(
                "product of the extended-projector marginals",
                marginals,
                1.0,
                "each marginal is 1: both particles sit in the left well",
            ),
            Quantity(
                "joint expectation for the level-0 spelling of the same structure",
                alt_joint,
                0.5,
                "internal-level relabeling leaves the projectors invariant",
            ),
            Quantity(
                "marginal product for the level-0 spelling of the same structure",
                alt_marginals,
                1.0,
                "internal-level relabeling leaves the projectors invariant",
            ),
        ],
        verdicts=[],
    )
    first, second = _extended_subalgebra_pair(
        plus, minus, ("extended left-plus projector", "extended left-minus projector")
    )
    report = algebra.factorization_test(
        to_normalized_fq(state), first, second, tol=tolerance
    )
    _append_verdict(
        result,
        "doubly occupied level vs extended balanced left projectors",
        report.verdict,
        VERDICT_ENTANGLED,
        "factorization test over the extended projector pair",
    )
    return result


@_case(
    "leftloc-projector-3",
    "Two left particles in different levels: maximal left-window entropy, yet "
    "the level projectors factorize",
    "closed-form extended-projector expectations",
)
def _leftloc_projector_3(tolerance: float, seed: int) -> CaseResult:
    space = _lr_internal_space()
    l0 = basis_ket(space, "L,0")
    l1 = basis_ket(space, "L,1")
    state = nolabel.NoLabelState.from_pair(
        nolabel.NoLabelPair(l0, l1, nolabel.BOSON)
    )
    p0, p1 = l0.outer(), l1.outer()
    joint, marginals = _projector_comparison(state, p0, p1)
    result = CaseResult(
        case_id="leftloc-projector-3",
        quantities=[
            Quantity(
                "joint expectation of the two left level projectors",
                joint,
                1.0,
                "the pair state is a joint eigenvector of both extended projectors",
            ),
            Quantity(
                "product of the extended-projector marginals",
                marginals,
                1.0,
                "each extended marginal counts exactly one particle per level",
            ),
        ],
        verdicts=[],
    )
    first, second = _extended_subalgebra_pair(
        p0, p1, ("extended left level-0 projector", "extended left level-1 projector")
    )
    report = algebra.factorization_test(
        to_normalized_fq(state), first, second, tol=tolerance
    )
    _append_verdict(
        result,
        "pair state vs extended left level projectors",
        report.verdict,
        VERDICT_SEPARABLE,
        "factorization test over the extended projector pair",
    )
    return result


def to_normalized_fq(state: nolabel.NoLabelState) -> Ket:
    """Normalized tensor-product image of an unlabeled-pair state."""
    ket = nolabel.to_first_quantized(state)
    return ket.normalized()
