"""Acceptance gate: every headline number at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (visible with ``pytest -s``)
and then asserts.
"""

import numpy as np

from idsep import algebra, cases, fock
from idsep import hilbert as hb
from idsep import nolabel as nl
from idsep.algebra import VERDICT_ENTANGLED, VERDICT_SEPARABLE
from idsep.cases import number_state_polynomial_check
from idsep.cli import run_property_suites

SQ2 = np.sqrt(2.0)


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed {suffix}"


def _random_unit(space, rng):
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return hb.Ket(space, amps).normalized()


def test_criterion_1_bell_correlator():
    psi = hb.bell_states()["psi_plus"]
    eye = hb.identity_op(hb.qubit())
    correlator = hb.expectation(psi, hb.tensor_op(hb.sigma_z(), hb.sigma_z()))
    marginals = hb.expectation(psi, hb.tensor_op(hb.sigma_z(), eye)) * hb.expectation(
        psi, hb.tensor_op(eye, hb.sigma_z())
    )
    ok = abs(correlator - (-1.0)) <= 1e-9 and abs(marginals - 0.0) <= 1e-9
    _report(
        1,
        "Bell correlator -1 with vanishing marginal product",
        ok,
        f"correlator={correlator:.3g}, marginals={marginals:.3g}",
    )


def test_criterion_2_projector_pair_and_verdicts():
    q = hb.qubit()
    zero_zero = hb.tensor_ket(hb.basis_ket(q, 0), hb.basis_ket(q, 0))
    states = hb.bell_states()
    p_plus, p_minus = states["phi_plus"].outer(), states["phi_minus"].outer()
    joint = hb.expectation(zero_zero, p_plus @ p_minus)
    marginals = hb.expectation(zero_zero, p_plus) * hb.expectation(zero_zero, p_minus)
    ok = abs(joint) <= 1e-9 and abs(marginals - 0.25) <= 1e-9

    plus_alg, minus_alg = algebra.bell_subalgebras()
    product_report = algebra.factorization_test(zero_zero, plus_alg, minus_alg)
    ok = ok and product_report.verdict == VERDICT_ENTANGLED
    bell_verdicts = []
    for state in states.values():
        report = algebra.factorization_test(state, plus_alg, minus_alg)
        bell_verdicts.append(report.verdict)
    ok = ok and all(v == VERDICT_SEPARABLE for v in bell_verdicts)
    _report(
        2,
        "projector comparison (0 vs 1/4) plus subalgebra verdicts",
        ok,
        f"joint={joint:.3g}, marginals={marginals:.3g}, "
        f"|00> {product_report.verdict}, Bell {bell_verdicts}",
    )


def test_criterion_3_number_state_identity_and_rotated_violation():
    n_total = 2
    space = fock.double_well(cutoff=n_total + 4)
    worst = 0.0
    for k in range(n_total + 1):
        deviations, _ = number_state_polynomial_check(
            space, k, n_total, count=50, degree=3, seed=42
        )
        worst = max(worst, float(deviations.max()))
    ok = worst <= 1e-8

    state = fock.number_state(space, 1, n_total)
    b_plus, b_minus = fock.bogoliubov_modes(space)
    plus_alg = algebra.generate([b_plus.matrix], 2)
    minus_alg = algebra.generate([b_minus.matrix], 2)
    report = algebra.factorization_test(
        state, plus_alg, minus_alg, exact_mask=space.exact_mask
    )
    ok = ok and report.max_violation > 0.01
    _report(
        3,
        "number-state polynomial factorization and rotated-mode violation",
        ok,
        f"worst deviation={worst:.3e}, rotated violation={report.max_violation:.3g}",
    )


def test_criterion_4_canonical_relations():
    rng = np.random.default_rng(42)
    worst = 0.0
    for stats, modes, cutoff in (("boson", 2, 6), ("fermion", 4, 4)):
        space = fock.FockSpace(stats, modes, cutoff)
        probes = [hb.basis_ket(space.mode_space, i) for i in range(modes)]
        probes += [_random_unit(space.mode_space, rng) for _ in range(2)]
        for f in probes:
            for g in probes:
                worst = max(worst, fock.check_ccr_car(space, f, g))
    ok = worst <= 1e-10
    _report(
        4,
        "canonical (anti)commutation relations on exact sectors",
        ok,
        f"worst deviation={worst:.3e}",
    )


def test_criterion_5_factorization_criterion_table():
    space = hb.HilbertSpace.of_dim(4)
    v0, v1, v2 = (hb.basis_ket(space, i) for i in range(3))
    plus_in = ((v0 + v1) / SQ2).outer()
    minus_in = ((v0 - v1) / SQ2).outer()
    plus_out = ((v0 + v2) / SQ2).outer()
    minus_out = ((v0 - v2) / SQ2).outer()
    ok = True
    rows = []
    for eta in (nl.BOSON, nl.FERMION):
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(v0, v1, eta))
        table = [
            (nl.pair_factorization_sides(state, v0.outer(), v1.outer()), (0.0, 0.0)),
            (
                nl.pair_factorization_sides(state, plus_in, minus_in),
                (-eta / 2.0, 0.5),
            ),
            (nl.pair_factorization_sides(state, plus_out, minus_out), (0.0, 0.25)),
        ]
        for (lhs, rhs), (exp_lhs, exp_rhs) in table:
            ok = ok and abs(lhs - exp_lhs) <= 1e-9 and abs(rhs - exp_rhs) <= 1e-9
            rows.append((eta, lhs, rhs))
    # fermionic balanced case: both sides equal 1/2 (factorization holds)
    fermionic = nl.NoLabelState.from_pair(nl.NoLabelPair(v0, v1, nl.FERMION))
    lhs, rhs = nl.pair_factorization_sides(fermionic, plus_in, minus_in)
    ok = ok and abs(lhs - 0.5) <= 1e-9 and abs(rhs - 0.5) <= 1e-9
    _report(
        5,
        "factorization-criterion table for both exchange signs",
        ok,
        f"fermionic balanced sides=({lhs:.3g}, {rhs:.3g})",
    )


def test_criterion_6_left_window_entropies():
    space = hb.HilbertSpace(("L", "R")).tensor(hb.qubit())
    l0, l1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")
    r1 = hb.basis_ket(space, "R,1")
    window = [l0, l1]
    table = [
        (
            nl.NoLabelState.from_pair(nl.NoLabelPair(l0, r1, nl.BOSON)),
            r1.outer().matrix,
            0.0,
        ),
        (
            nl.NoLabelState.from_pair(
                nl.NoLabelPair(l0, l0, nl.BOSON), coefficient=1 / SQ2
            ),
            l0.outer().matrix,
            0.0,
        ),
        (
            nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l1, nl.BOSON)),
            0.5 * (l0.outer().matrix + l1.outer().matrix),
            1.0,
        ),
    ]
    ok = True
    entropies = []
    for state, expected_matrix, expected_entropy in table:
        reduced = nl.subspace_reduced_dm(state, window)
        entropy = nl.entanglement_entropy(state, window)
        entropies.append(entropy)
        ok = ok and np.abs(reduced.matrix.matrix - expected_matrix).max() <= 1e-9
        ok = ok and abs(entropy - expected_entropy) <= 1e-9
    _report(
        6,
        "left-window reduced matrices and entropies (0, 0, 1 bits)",
        ok,
        f"entropies={[f'{e:.3g}' for e in entropies]}",
    )


def test_criterion_7_projector_comparisons():
    space = hb.HilbertSpace(("L", "R")).tensor(hb.qubit())
    l0, l1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")
    r1 = hb.basis_ket(space, "R,1")
    plus = ((l0 + l1) / SQ2).outer()
    minus = ((l0 - l1) / SQ2).outer()

    def compare(state, o1, o2):
        joint = nl.product_expectation(state, o1, o2).real
        marginals = nl.extended_expectation(state, o1) * nl.extended_expectation(
            state, o2
        )
        return joint, marginals

    one_per_side = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, r1, nl.BOSON))
    doubly = nl.NoLabelState.from_pair(
        nl.NoLabelPair(l1, l1, nl.BOSON), coefficient=1 / SQ2
    )
    two_levels = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l1, nl.BOSON))

    pairs = [
        (compare(one_per_side, plus, minus), (0.0, 0.25)),
        (compare(doubly, plus, minus), (0.5, 1.0)),
        (compare(two_levels, l0.outer(), l1.outer()), (1.0, 1.0)),
    ]
    ok = all(
        abs(got[0] - want[0]) <= 1e-9 and abs(got[1] - want[1]) <= 1e-9
        for got, want in pairs
    )

    # the two-level state factorizes over the level-projector subalgebras
    level_0 = algebra.generate([nl.extend_operator_matrix(l0.outer())], 2)
    level_1 = algebra.generate([nl.extend_operator_matrix(l1.outer())], 2)
    fq_state = nl.to_first_quantized(two_levels).normalized()
    report = algebra.factorization_test(fq_state, level_0, level_1)
    ok = ok and report.verdict == VERDICT_SEPARABLE
    _report(
        7,
        "extended-projector comparisons (0,1/4), (1/2,1), (1,1) and final verdict",
        ok,
        f"values={[tuple(round(x, 6) for x in got) for got, _ in pairs]}, "
        f"verdict={report.verdict}",
    )


def test_criterion_8_full_space_consistency():
    rng = np.random.default_rng(42)
    space = hb.HilbertSpace.of_dim(4)
    full_basis = [hb.basis_ket(space, i) for i in range(4)]
    worst_matrix, worst_factor = 0.0, 0.0
    for trial in range(100):
        eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
        pair = nl.NoLabelPair(_random_unit(space, rng), _random_unit(space, rng), eta)
        state = nl.NoLabelState.from_pair(pair).normalized()
        reduced = nl.subspace_reduced_dm(state, full_basis)

        v1, v2 = pair.phi1, pair.phi2
        overlap = v2.inner(v1)
        closed = (
            v1.outer().matrix
            + v2.outer().matrix
            + eta
            * (
                v1.inner(v2) * v1.outer(v2).matrix
                + v2.inner(v1) * v2.outer(v1).matrix
            )
        ) / (2.0 * (1.0 + eta * abs(overlap) ** 2))
        worst_matrix = max(
            worst_matrix, float(np.abs(reduced.matrix.matrix - closed).max())
        )
        image = nl.to_first_quantized(pair).normalized()
        for keep in ("first", "second"):
            traced = hb.partial_trace(image.outer(), 4, 4, keep=keep)
            worst_matrix = max(
                worst_matrix,
                float(np.abs(reduced.matrix.matrix - traced.matrix).max()),
            )

        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = hb.OperatorMatrix(space, 0.5 * (mat + mat.conj().T))
        extended = nl.extended_expectation(state, a)
        worst_factor = max(
            worst_factor, abs(extended - 2.0 * nl.reduced_expectation(reduced, a))
        )
    ok = worst_matrix <= 1e-10 and worst_factor <= 1e-10
    _report(
        8,
        "full-space reduction: closed form, partial trace, factor of two",
        ok,
        f"worst matrix dev={worst_matrix:.3e}, worst factor dev={worst_factor:.3e}",
    )


def test_criterion_9_property_suites():
    rng = np.random.default_rng(42)
    space = hb.HilbertSpace.of_dim(4)

    worst_embed = 0.0
    for trial in range(200):
        eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
        a = nl.NoLabelPair(_random_unit(space, rng), _random_unit(space, rng), eta)
        b = nl.NoLabelPair(_random_unit(space, rng), _random_unit(space, rng), eta)
        worst_embed = max(
            worst_embed,
            abs(
                nl.nl_inner(a, b)
                - nl.to_first_quantized(a).inner(nl.to_first_quantized(b))
            ),
        )
    ok = worst_embed <= 1e-10

    lr = hb.HilbertSpace(("L", "R")).tensor(hb.qubit())
    l0, l1 = hb.basis_ket(lr, "L,0"), hb.basis_ket(lr, "L,1")
    state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l1, nl.BOSON))
    reference = nl.entanglement_entropy(state, [l0, l1])
    worst_rotate = 0.0
    for _ in range(20):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(z)
        rotated = [u[0, 0] * l0 + u[1, 0] * l1, u[0, 1] * l0 + u[1, 1] * l1]
        worst_rotate = max(
            worst_rotate, abs(nl.entanglement_entropy(state, rotated) - reference)
        )
    ok = ok and worst_rotate <= 1e-9

    worst_schmidt = 0.0
    for _ in range(200):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ket = _random_unit(hb.HilbertSpace.of_dim(d1 * d2), rng)
        form = hb.schmidt_decompose(ket, d1, d2)
        worst_schmidt = max(
            worst_schmidt,
            float(np.linalg.norm(form.reconstruct_amplitudes() - ket.amplitudes)),
        )
    ok = ok and worst_schmidt <= 1e-10

    # the packaged property suites agree
    ok = ok and all(c.passed for c in run_property_suites(1e-9, 42))
    _report(
        9,
        "embedding, basis-independence and Schmidt reconstruction suites",
        ok,
        f"embed={worst_embed:.3e}, rotate={worst_rotate:.3e}, "
        f"schmidt={worst_schmidt:.3e}",
    )


def test_all_registered_cases_pass_at_tolerance():
    results = cases.run_all(tolerance=1e-9, seed=42)
    worst = max(r.max_abs_deviation for r in results)
    ok = worst <= 1e-9
    _report(
        "registry",
        "every registered case within 1e-9",
        ok,
        f"worst deviation={worst:.3e} over {len(results)} cases",
    )
