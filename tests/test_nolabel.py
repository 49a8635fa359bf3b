import numpy as np
import pytest
from numpy.testing import assert_allclose

from idsep import hilbert as hb
from idsep import nolabel as nl
from idsep.errors import (
    EtaMismatch,
    NonCommutingError,
    NonFiniteError,
    NormalizationError,
    NullReduction,
    NullState,
)

SQ2 = np.sqrt(2.0)


def lr_space():
    return hb.HilbertSpace(("L", "R")).tensor(hb.qubit())


def random_ket(space, rng):
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return hb.Ket(space, amps).normalized()


def random_pair(space, rng, eta):
    return nl.NoLabelPair(random_ket(space, rng), random_ket(space, rng), eta)


def commuting_hermitian_pair(space, rng):
    """Two hermitian operators with a common eigenbasis."""
    z = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    u, _ = np.linalg.qr(z)
    o1 = hb.OperatorMatrix(space, u @ np.diag(rng.standard_normal(space.dim)) @ u.conj().T)
    o2 = hb.OperatorMatrix(space, u @ np.diag(rng.standard_normal(space.dim)) @ u.conj().T)
    return o1, o2


class TestScalarProduct:
    def test_orthogonal_constituents(self):
        space = lr_space()
        pair = nl.NoLabelPair(
            hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1"), nl.BOSON
        )
        assert abs(nl.nl_inner(pair, pair) - 1.0) <= 1e-12

    def test_bosonic_double_occupation(self):
        space = lr_space()
        l0 = hb.basis_ket(space, "L,0")
        pair = nl.NoLabelPair(l0, l0, nl.BOSON)
        assert abs(nl.nl_inner(pair, pair) - 2.0) <= 1e-12

    def test_exchange_sign(self):
        rng = np.random.default_rng(41)
        space = hb.HilbertSpace.of_dim(4)
        for eta in (nl.BOSON, nl.FERMION):
            a = random_pair(space, rng, eta)
            b = random_pair(space, rng, eta)
            swapped = nl.NoLabelPair(b.phi2, b.phi1, eta)
            assert abs(nl.nl_inner(a, b) - eta * nl.nl_inner(a, swapped)) <= 1e-12

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_swapping_both_sides_is_invariant(self, eta):
        rng = np.random.default_rng(42)
        space = hb.HilbertSpace.of_dim(3)
        a = random_pair(space, rng, eta)
        b = random_pair(space, rng, eta)
        assert (
            abs(nl.nl_inner(a, b) - nl.nl_inner(a.swapped(), b.swapped())) <= 1e-12
        )

    def test_eta_mismatch_rejected(self):
        space = hb.HilbertSpace.of_dim(2)
        v = hb.basis_ket(space, 0)
        w = hb.basis_ket(space, 1)
        with pytest.raises(EtaMismatch):
            nl.nl_inner(
                nl.NoLabelPair(v, w, nl.BOSON), nl.NoLabelPair(v, w, nl.FERMION)
            )


class TestCanonicalization:
    def test_swapped_terms_merge_with_sign(self):
        space = hb.HilbertSpace.of_dim(3)
        v, w = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        for eta in (nl.BOSON, nl.FERMION):
            state = nl.NoLabelState(
                [(1.0, nl.NoLabelPair(v, w, eta)), (1.0, nl.NoLabelPair(w, v, eta))]
            )
            if eta == nl.BOSON:
                assert len(state.terms) == 1
                assert abs(state.terms[0][0] - 2.0) <= 1e-12
            else:
                assert len(state.terms) == 0  # |v,w> - |v,w> cancels

    def test_null_fermionic_pair_flagged(self):
        space = hb.HilbertSpace.of_dim(2)
        v = hb.basis_ket(space, 0)
        pair = nl.NoLabelPair(v, v, nl.FERMION)
        assert pair.is_null()
        with pytest.raises(NullState):
            nl.extended_expectation(pair, hb.identity_op(space))


def reference_first_quantized(terms, eta):
    """Per-term Kronecker sum of (|p1>(x)|p2> + eta |p2>(x)|p1>)/sqrt(2)."""
    out = 0.0
    for c, p in terms:
        a1, a2 = p.phi1.amplitudes, p.phi2.amplitudes
        out = out + c * (np.kron(a1, a2) + eta * np.kron(a2, a1)) / SQ2
    return out


class TestFirstQuantizedImage:
    @pytest.mark.parametrize("n_terms", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_multi_term_matches_kron_reference(self, eta, n_terms):
        rng = np.random.default_rng(50 + n_terms)
        space = hb.HilbertSpace.of_dim(3)
        coeffs = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
        state = nl.NoLabelState(
            [(c, random_pair(space, rng, eta)) for c in coeffs], eta=eta
        )
        assert len(state.terms) == n_terms
        image = nl.to_first_quantized(state)
        assert image.space == space.tensor(space)
        want = reference_first_quantized(state.terms, eta)
        assert np.abs(image.amplitudes - want).max() <= 1e-14

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_merged_and_cancelled_terms(self, eta):
        # p and its swap merge into one term, q and -q cancel; the image of the
        # canonical state equals the per-term sum over the raw input terms
        rng = np.random.default_rng(60)
        space = hb.HilbertSpace.of_dim(3)
        p, q, r = (random_pair(space, rng, eta) for _ in range(3))
        raw = [(0.7, p), (0.4j, q), (-0.2, p.swapped()), (-0.4j, q), (1.1, r)]
        state = nl.NoLabelState(raw, eta=eta)
        assert len(state.terms) == 2
        image = nl.to_first_quantized(state).amplitudes
        for terms in (state.terms, raw):
            assert np.abs(image - reference_first_quantized(terms, eta)).max() <= 1e-14
        with pytest.raises(ValueError, match="empty"):
            nl.to_first_quantized(nl.NoLabelState([(1.0, q), (-1.0, q)], eta=eta))

    def test_fermionic_pair_gives_singlet_structure(self):
        q = hb.qubit()
        pair = nl.NoLabelPair(hb.basis_ket(q, 0), hb.basis_ket(q, 1), nl.FERMION)
        image = nl.to_first_quantized(pair)
        assert_allclose(image.amplitudes, [0, 1 / SQ2, -1 / SQ2, 0], atol=1e-12)

    def test_bosonic_parallel_pair(self):
        q = hb.qubit()
        zero = hb.basis_ket(q, 0)
        pair = nl.NoLabelPair(zero, zero, nl.BOSON)
        image = nl.to_first_quantized(pair)
        assert_allclose(image.amplitudes, [SQ2, 0, 0, 0], atol=1e-12)
        assert abs(image.norm() ** 2 - 2.0) <= 1e-12

    def test_embedding_preserves_scalar_products(self):
        rng = np.random.default_rng(43)
        space = hb.HilbertSpace.of_dim(4)
        for trial in range(100):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            a = random_pair(space, rng, eta)
            b = random_pair(space, rng, eta)
            lhs = nl.nl_inner(a, b)
            rhs = nl.to_first_quantized(a).inner(nl.to_first_quantized(b))
            assert abs(lhs - rhs) <= 1e-10

    def test_extension_commutes_with_embedding(self):
        rng = np.random.default_rng(44)
        space = hb.HilbertSpace.of_dim(3)
        for eta in (nl.BOSON, nl.FERMION):
            pair = random_pair(space, rng, eta)
            a = hb.OperatorMatrix(
                space,
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            )
            lifted = nl.to_first_quantized(nl.extend_one_particle_op(a, pair))
            direct = nl.extend_operator_matrix(a).apply(nl.to_first_quantized(pair))
            assert np.abs(lifted.amplitudes - direct.amplitudes).max() <= 1e-10


class TestExtension:
    def test_identity_doubles(self):
        space = hb.HilbertSpace.of_dim(3)
        rng = np.random.default_rng(45)
        pair = random_pair(space, rng, nl.BOSON)
        doubled = nl.extend_one_particle_op(hb.identity_op(space), pair)
        assert len(doubled.terms) == 1
        assert abs(doubled.terms[0][0] - 2.0) <= 1e-12

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_identity_expectation_counts_both_particles(self, eta):
        rng = np.random.default_rng(59)
        space = hb.HilbertSpace.of_dim(3)
        pair = random_pair(space, rng, eta)
        value = nl.extended_expectation(pair, hb.identity_op(space))
        assert abs(value - 2.0) <= 1e-12

    def test_projector_two_term_action(self):
        # a rank-one projector maps a pair onto |psi, <psi|p1> p2 + eta <psi|p2> p1>
        rng = np.random.default_rng(46)
        space = hb.HilbertSpace.of_dim(4)
        for eta in (nl.BOSON, nl.FERMION):
            pair = random_pair(space, rng, eta)
            psi = random_ket(space, rng)
            lifted = nl.extend_one_particle_op(psi.outer(), pair)
            companion = (
                psi.inner(pair.phi1) * pair.phi2 + eta * psi.inner(pair.phi2) * pair.phi1
            )
            expected = nl.NoLabelState.from_pair(nl.NoLabelPair(psi, companion, eta))
            diff = nl.nl_inner(lifted, lifted) + nl.nl_inner(expected, expected)
            diff -= 2 * nl.nl_inner(lifted, expected).real
            assert abs(diff) <= 1e-10

    def test_single_pair_closed_form(self):
        # closed form of the normalized extended expectation for one pair
        rng = np.random.default_rng(47)
        space = hb.HilbertSpace.of_dim(4)
        for trial in range(50):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            pair = random_pair(space, rng, eta)
            mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = hb.OperatorMatrix(space, 0.5 * (mat + mat.conj().T))
            v1, v2 = pair.phi1, pair.phi2
            norm2 = 1.0 + eta * abs(v1.inner(v2)) ** 2
            closed = (
                hb.expectation(v1, a).real
                + hb.expectation(v2, a).real
                + 2.0 * eta * (v2.inner(a.apply(v1)) * v1.inner(v2)).real
            ) / norm2
            assert abs(nl.extended_expectation(pair, a) - closed) <= 1e-10

    def test_matches_first_quantized_oracle(self):
        rng = np.random.default_rng(48)
        space = hb.HilbertSpace.of_dim(4)
        eye = hb.identity_op(space)
        for trial in range(50):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            pair = random_pair(space, rng, eta)
            mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = hb.OperatorMatrix(space, 0.5 * (mat + mat.conj().T))
            image = nl.to_first_quantized(pair)
            oracle = hb.expectation(
                image.normalized(), hb.tensor_op(a, eye) + hb.tensor_op(eye, a)
            ).real
            assert abs(nl.extended_expectation(pair, a) - oracle) <= 1e-10


class TestReduction:
    def test_probe_picks_partner(self):
        space = lr_space()
        l0, r1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1")
        pair = nl.NoLabelPair(l0, r1, nl.BOSON)
        reduced = nl.reduce_to_one_particle(l0, pair)
        assert_allclose(reduced.amplitudes, r1.amplitudes, atol=1e-12)

    def test_orthogonal_probe_annihilates(self):
        space = lr_space()
        pair = nl.NoLabelPair(
            hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1"), nl.BOSON
        )
        reduced = nl.reduce_to_one_particle(hb.basis_ket(space, "R,0"), pair)
        assert np.linalg.norm(reduced.amplitudes) <= 1e-12

    def test_parallel_bosonic_pair_doubles(self):
        space = lr_space()
        l0 = hb.basis_ket(space, "L,0")
        pair = nl.NoLabelPair(l0, l0, nl.BOSON)
        reduced = nl.reduce_to_one_particle(l0, pair)
        assert_allclose(reduced.amplitudes, 2.0 * l0.amplitudes, atol=1e-12)


class TestReducedDensityMatrix:
    def left_window(self, space):
        return [hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")]

    def test_one_per_side_reduces_to_partner(self):
        space = lr_space()
        l0, r1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, r1, nl.BOSON))
        reduced = nl.subspace_reduced_dm(state, self.left_window(space))
        assert_allclose(reduced.matrix.matrix, r1.outer().matrix, atol=1e-12)
        assert abs(nl.entanglement_entropy(state, self.left_window(space))) <= 1e-12

    def test_parallel_pair_reduces_to_itself(self):
        space = lr_space()
        l0 = hb.basis_ket(space, "L,0")
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(l0, l0, nl.BOSON), coefficient=1.0 / SQ2
        )
        reduced = nl.subspace_reduced_dm(state, self.left_window(space))
        assert_allclose(reduced.matrix.matrix, l0.outer().matrix, atol=1e-12)
        assert abs(nl.entanglement_entropy(state, self.left_window(space))) <= 1e-12

    def test_two_left_levels_maximally_mixed(self):
        space = lr_space()
        l0, l1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l1, nl.BOSON))
        reduced = nl.subspace_reduced_dm(state, self.left_window(space))
        expected = 0.5 * (l0.outer().matrix + l1.outer().matrix)
        assert_allclose(reduced.matrix.matrix, expected, atol=1e-12)
        entropy = nl.entanglement_entropy(state, self.left_window(space))
        assert abs(entropy - 1.0) <= 1e-12

    def test_annihilating_subspace_raises(self):
        space = lr_space()
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(
                hb.basis_ket(space, "R,0"), hb.basis_ket(space, "R,1"), nl.BOSON
            )
        )
        with pytest.raises(NullReduction):
            nl.subspace_reduced_dm(state, self.left_window(space))

    def test_unit_trace_and_positivity(self):
        rng = np.random.default_rng(49)
        space = hb.HilbertSpace.of_dim(4)
        basis = [hb.basis_ket(space, 0), hb.basis_ket(space, 1)]
        for trial in range(20):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            pair = random_pair(space, rng, eta)
            state = nl.NoLabelState.from_pair(pair).normalized()
            reduced = nl.subspace_reduced_dm(state, basis)
            assert abs(reduced.matrix.trace() - 1.0) <= 1e-10
            evals = np.linalg.eigvalsh(reduced.matrix.matrix)
            assert evals.min() >= -1e-10

    def test_entropy_at_most_one_bit_for_single_pairs(self):
        rng = np.random.default_rng(50)
        space = hb.HilbertSpace.of_dim(4)
        basis = [hb.basis_ket(space, 0), hb.basis_ket(space, 1), hb.basis_ket(space, 2)]
        for trial in range(20):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            state = nl.NoLabelState.from_pair(random_pair(space, rng, eta)).normalized()
            entropy = nl.entanglement_entropy(state, basis)
            assert -1e-12 <= entropy <= 1.0 + 1e-9

    def test_basis_independence(self):
        rng = np.random.default_rng(51)
        space = lr_space()
        l0, l1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(l0, hb.basis_ket(space, "R,1"), nl.FERMION)
        )
        reference = nl.entanglement_entropy(state, [l0, l1])
        for _ in range(20):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, _ = np.linalg.qr(z)
            rotated = [
                u[0, 0] * l0 + u[1, 0] * l1,
                u[0, 1] * l0 + u[1, 1] * l1,
            ]
            assert abs(nl.entanglement_entropy(state, rotated) - reference) <= 1e-9


class TestFullSpaceReduction:
    def closed_form(self, pair):
        v1, v2 = pair.phi1, pair.phi2
        overlap = v2.inner(v1)
        numerator = (
            v1.outer().matrix
            + v2.outer().matrix
            + pair.eta
            * (
                v1.inner(v2) * v1.outer(v2).matrix
                + v2.inner(v1) * v2.outer(v1).matrix
            )
        )
        return numerator / (2.0 * (1.0 + pair.eta * abs(overlap) ** 2))

    def test_matches_closed_form_and_partial_trace(self):
        rng = np.random.default_rng(52)
        space = hb.HilbertSpace.of_dim(4)
        full_basis = [hb.basis_ket(space, i) for i in range(space.dim)]
        for trial in range(100):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            pair = random_pair(space, rng, eta)
            state = nl.NoLabelState.from_pair(pair).normalized()
            reduced = nl.subspace_reduced_dm(state, full_basis)
            closed = self.closed_form(pair)
            assert np.abs(reduced.matrix.matrix - closed).max() <= 1e-10
            image = nl.to_first_quantized(pair).normalized()
            for keep in ("first", "second"):
                traced = hb.partial_trace(image.outer(), 4, 4, keep=keep)
                assert np.abs(reduced.matrix.matrix - traced.matrix).max() <= 1e-10

    def test_extended_is_twice_reduced_trace(self):
        rng = np.random.default_rng(53)
        space = hb.HilbertSpace.of_dim(4)
        full_basis = [hb.basis_ket(space, i) for i in range(space.dim)]
        for trial in range(50):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            pair = random_pair(space, rng, eta)
            state = nl.NoLabelState.from_pair(pair).normalized()
            mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = hb.OperatorMatrix(space, 0.5 * (mat + mat.conj().T))
            reduced = nl.subspace_reduced_dm(state, full_basis)
            extended = nl.extended_expectation(state, a)
            assert abs(extended - 2.0 * nl.reduced_expectation(reduced, a)) <= 1e-10


class TestReducedExpectation:
    def test_identity_has_unit_trace(self):
        space = lr_space()
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(
                hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1"), nl.BOSON
            )
        )
        window = [hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")]
        reduced = nl.subspace_reduced_dm(state, window)
        assert abs(nl.reduced_expectation(reduced, hb.identity_op(space)) - 1.0) <= 1e-12

    def test_window_reduction_differs_from_extension(self):
        # over a proper subspace the reduced trace and the extended
        # expectation genuinely disagree
        space = lr_space()
        l0 = hb.basis_ket(space, "L,0")
        l1 = hb.basis_ket(space, "L,1")
        r1 = hb.basis_ket(space, "R,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, r1, nl.BOSON))
        plus = ((l0 + l1) / SQ2).outer()
        reduced = nl.subspace_reduced_dm(state, [l0, l1])
        assert abs(nl.reduced_expectation(reduced, plus)) <= 1e-12
        assert abs(nl.extended_expectation(state, plus) - 0.5) <= 1e-12


class TestFactorizationSides:
    def orthonormal_state(self, space, eta):
        return nl.NoLabelState.from_pair(
            nl.NoLabelPair(hb.basis_ket(space, 0), hb.basis_ket(space, 1), eta)
        )

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_constituent_projectors(self, eta):
        space = hb.HilbertSpace.of_dim(4)
        state = self.orthonormal_state(space, eta)
        lhs, rhs = nl.pair_factorization_sides(
            state, hb.basis_ket(space, 0).outer(), hb.basis_ket(space, 1).outer()
        )
        assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_balanced_superpositions(self, eta):
        space = hb.HilbertSpace.of_dim(4)
        state = self.orthonormal_state(space, eta)
        v0, v1 = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        plus = ((v0 + v1) / SQ2).outer()
        minus = ((v0 - v1) / SQ2).outer()
        lhs, rhs = nl.pair_factorization_sides(state, plus, minus)
        assert abs(lhs - (-eta / 2.0)) <= 1e-12
        assert abs(rhs - 0.5) <= 1e-12

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_superpositions_with_outside_level(self, eta):
        space = hb.HilbertSpace.of_dim(4)
        state = self.orthonormal_state(space, eta)
        v0, v2 = hb.basis_ket(space, 0), hb.basis_ket(space, 2)
        plus = ((v0 + v2) / SQ2).outer()
        minus = ((v0 - v2) / SQ2).outer()
        lhs, rhs = nl.pair_factorization_sides(state, plus, minus)
        assert abs(lhs) <= 1e-12
        assert abs(rhs - 0.25) <= 1e-12

    def test_sides_match_full_product_comparison(self):
        # the difference of the criterion sides must equal the factorization
        # defect computed with the full extension machinery
        rng = np.random.default_rng(54)
        space = hb.HilbertSpace.of_dim(4)
        for trial in range(20):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            state = self.orthonormal_state(space, eta)
            o1, o2 = commuting_hermitian_pair(space, rng)
            lhs, rhs = nl.pair_factorization_sides(state, o1, o2)
            joint = nl.product_expectation(state, o1, o2).real
            marginals = nl.extended_expectation(state, o1) * nl.extended_expectation(
                state, o2
            )
            assert abs((lhs - rhs) - (joint - marginals)) <= 1e-10

    def test_fermionic_singlet_invariance(self):
        # rotating the two constituents and the balanced projectors together
        # leaves the fermionic state (up to phase) and both sides at 1/2
        rng = np.random.default_rng(55)
        space = hb.HilbertSpace.of_dim(4)
        v0, v1 = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        reference = nl.NoLabelState.from_pair(nl.NoLabelPair(v0, v1, nl.FERMION))
        for _ in range(20):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, _ = np.linalg.qr(z)
            w0 = u[0, 0] * v0 + u[1, 0] * v1
            w1 = u[0, 1] * v0 + u[1, 1] * v1
            rotated = nl.NoLabelState.from_pair(nl.NoLabelPair(w0, w1, nl.FERMION))
            # same singlet ray: overlap has unit magnitude
            assert abs(abs(nl.nl_inner(reference, rotated)) - 1.0) <= 1e-10
            plus = ((w0 + w1) / SQ2).outer()
            minus = ((w0 - w1) / SQ2).outer()
            lhs, rhs = nl.pair_factorization_sides(rotated, plus, minus)
            assert abs(lhs - 0.5) <= 1e-10
            assert abs(rhs - 0.5) <= 1e-10

    def test_noncommuting_observables_rejected(self):
        space = hb.HilbertSpace.of_dim(4)
        state = self.orthonormal_state(space, nl.BOSON)
        v0, v1 = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        p = v0.outer()
        q = ((v0 + v1) / SQ2).outer()
        with pytest.raises(NonCommutingError):
            nl.pair_factorization_sides(state, p, q)


class TestNonFinite:
    """NaN and inf inputs raise instead of yielding empty or NaN results."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_constituent_rejected(self, bad, eta):
        # a NaN constituent made squared_norm() and extended_expectation nan,
        # normalized() empty, the reduced matrix NaN and the sides (nan, nan)
        space = lr_space()
        good = hb.basis_ket(space, "L,0")
        broken = hb.Ket(space, [0, bad, 0, 0])
        for phi1, phi2 in ((broken, good), (good, broken), (broken, broken)):
            with pytest.raises(NonFiniteError):
                nl.NoLabelPair(phi1, phi2, eta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_coefficient_rejected(self, bad):
        # a NaN coefficient silently gave a state with no terms
        space = lr_space()
        pair = nl.NoLabelPair(
            hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1"), nl.BOSON
        )
        with pytest.raises(NonFiniteError):
            nl.NoLabelState.from_pair(pair, coefficient=bad)
        with pytest.raises(NonFiniteError):
            nl.NoLabelState([(1.0, pair), (bad, pair.swapped())])
        with pytest.raises(NonFiniteError):
            nl.NoLabelState.from_pair(pair) * bad

    def test_non_finite_operator_action_rejected(self):
        space = lr_space()
        l0, r1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, r1, nl.BOSON))
        broken = hb.OperatorMatrix(space, np.full((4, 4), np.nan))
        with pytest.raises(NonFiniteError):
            nl.product_expectation(state, broken, broken)

    def test_non_finite_subspace_basis_rejected(self):
        space = lr_space()
        l0, l1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l1, nl.BOSON))
        broken = hb.Ket(space, [np.nan, 0, 0, 0])
        with pytest.raises(ValueError, match="orthonormal"):
            nl.subspace_reduced_dm(state, [broken, l1])

    def test_nan_squared_norm_rejected(self):
        # finite but huge parallel fermionic constituents: the pairing computes
        # inf - inf, so the squared norm is NaN and must not pass the gate
        space = lr_space()
        huge = hb.Ket(space, [1e200, 0, 0, 0])
        window = [hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")]
        with np.errstate(over="ignore", invalid="ignore"):
            state = nl.NoLabelState.from_pair(nl.NoLabelPair(huge, huge, nl.FERMION))
            assert np.isnan(state.squared_norm())
            with pytest.raises(NormalizationError):
                nl.subspace_reduced_dm(state, window)
            with pytest.raises(NormalizationError):
                nl.entanglement_entropy(state, window)
            one = hb.identity_op(space)
            with pytest.raises(NormalizationError):
                nl.extended_expectation(state, one)
            with pytest.raises(NormalizationError):
                nl.product_expectation(state, one, one)
