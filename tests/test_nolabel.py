import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from idsep import hilbert as hb
from idsep import nolabel as nl
from idsep.errors import (
    DimensionMismatch,
    EtaMismatch,
    IdsepError,
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


def random_state(space, rng, eta):
    return nl.NoLabelState.from_pair(random_pair(space, rng, eta))


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
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1"), nl.BOSON)
        )
        assert abs(nl.nl_inner(state, state) - 1.0) <= 1e-12

    def test_bosonic_double_occupation(self):
        space = lr_space()
        l0 = hb.basis_ket(space, "L,0")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l0, nl.BOSON))
        assert abs(nl.nl_inner(state, state) - 2.0) <= 1e-12

    def test_exchange_sign(self):
        rng = np.random.default_rng(41)
        space = hb.HilbertSpace.of_dim(4)
        for eta in (nl.BOSON, nl.FERMION):
            a = random_state(space, rng, eta)
            b = random_pair(space, rng, eta)
            swapped = nl.NoLabelState.from_pair(nl.NoLabelPair(b.phi2, b.phi1, eta))
            b = nl.NoLabelState.from_pair(b)
            assert abs(nl.nl_inner(a, b) - eta * nl.nl_inner(a, swapped)) <= 1e-12

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_swapping_both_sides_is_invariant(self, eta):
        rng = np.random.default_rng(42)
        space = hb.HilbertSpace.of_dim(3)
        a = random_pair(space, rng, eta)
        b = random_pair(space, rng, eta)
        wrap = nl.NoLabelState.from_pair
        direct = nl.nl_inner(wrap(a), wrap(b))
        assert abs(direct - nl.nl_inner(wrap(a.swapped()), wrap(b.swapped()))) <= 1e-12

    def test_eta_mismatch_rejected(self):
        space = hb.HilbertSpace.of_dim(2)
        v = hb.basis_ket(space, 0)
        w = hb.basis_ket(space, 1)
        with pytest.raises(EtaMismatch):
            nl.nl_inner(
                nl.NoLabelState.from_pair(nl.NoLabelPair(v, w, nl.BOSON)),
                nl.NoLabelState.from_pair(nl.NoLabelPair(v, w, nl.FERMION)),
            )


def assert_reads_null(state, basis):
    """A cancelled state is null: no normalized reading, a zero image."""
    assert state.is_null()
    with pytest.raises(NullState):
        state.normalized()
    with pytest.raises(IdsepError):
        nl.entanglement_entropy(state, basis)
    assert nl.to_first_quantized(state).norm() ** 2 <= nl.NULL_TOL
    assert nl.reduce_to_one_particle(basis[0], state).norm() ** 2 <= nl.NULL_TOL


class TestCanonicalization:
    def test_swapped_terms_merge_with_sign(self):
        # |w,v> = eta |v,w>: the two terms are kept, and their readings add to
        # 2|v,w> for bosons and cancel for fermions
        space = hb.HilbertSpace.of_dim(3)
        v, w = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        for eta in (nl.BOSON, nl.FERMION):
            pair = nl.NoLabelPair(v, w, eta)
            state = nl.NoLabelState([(1.0, pair), (1.0, pair.swapped())])
            assert len(state.coefficients) == 2
            image = nl.to_first_quantized(state).amplitudes
            single = nl.NoLabelState.from_pair(pair)
            want = (1 + eta) * nl.to_first_quantized(single).amplitudes
            assert np.abs(image - want).max() <= 1e-14
            if eta == nl.BOSON:
                assert abs(nl.nl_inner(single, state) - 2.0) <= 1e-12
                assert abs(state.normalized().coefficients[0] - 0.5) <= 1e-12
            else:
                assert not image.any()
                assert_reads_null(state, [v, w])

    def test_null_fermionic_pair_flagged(self):
        space = hb.HilbertSpace.of_dim(2)
        v = hb.basis_ket(space, 0)
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(v, v, nl.FERMION))
        assert state.is_null()
        with pytest.raises(NullState):
            nl.extended_expectation(state, hb.identity_op(space))


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
        terms = [(c, random_pair(space, rng, eta)) for c in coeffs]
        state = nl.NoLabelState(terms, eta=eta)
        assert len(state.coefficients) == n_terms
        image = nl.to_first_quantized(state)
        assert image.space == space.tensor(space)
        want = reference_first_quantized(terms, eta)
        assert np.abs(image.amplitudes - want).max() <= 1e-14

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_merged_and_cancelled_terms(self, eta):
        # p and its swap, q and -q are kept as given; the state reads as the
        # raw input terms and as its summed terms, and q - q reads as null
        rng = np.random.default_rng(60)
        space = hb.HilbertSpace.of_dim(3)
        p, q, r = (random_pair(space, rng, eta) for _ in range(3))
        raw = [(0.7, p), (0.4j, q), (-0.2, p.swapped()), (-0.4j, q), (1.1, r)]
        state = nl.NoLabelState(raw, eta=eta)
        assert_same_terms(state, raw)
        assert_reads_as(state, raw, rng)
        assert_reads_as(state, [(0.7 - 0.2 * eta, p), (1.1, r)], rng)
        cancelled = nl.NoLabelState([(1.0, q), (-1.0, q)], eta=eta)
        assert np.abs(nl.to_first_quantized(cancelled).amplitudes).max() <= 1e-16
        assert_reads_null(cancelled, [random_ket(space, rng)])

    def test_fermionic_pair_gives_singlet_structure(self):
        q = hb.qubit()
        pair = nl.NoLabelPair(hb.basis_ket(q, 0), hb.basis_ket(q, 1), nl.FERMION)
        image = nl.to_first_quantized(nl.NoLabelState.from_pair(pair))
        assert_allclose(image.amplitudes, [0, 1 / SQ2, -1 / SQ2, 0], atol=1e-12)

    def test_bosonic_parallel_pair(self):
        q = hb.qubit()
        zero = hb.basis_ket(q, 0)
        pair = nl.NoLabelPair(zero, zero, nl.BOSON)
        image = nl.to_first_quantized(nl.NoLabelState.from_pair(pair))
        assert_allclose(image.amplitudes, [SQ2, 0, 0, 0], atol=1e-12)
        assert abs(image.norm() ** 2 - 2.0) <= 1e-12

    def test_embedding_preserves_scalar_products(self):
        rng = np.random.default_rng(43)
        space = hb.HilbertSpace.of_dim(4)
        for trial in range(100):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            a = random_state(space, rng, eta)
            b = random_state(space, rng, eta)
            lhs = nl.nl_inner(a, b)
            rhs = nl.to_first_quantized(a).inner(nl.to_first_quantized(b))
            assert abs(lhs - rhs) <= 1e-10

    def test_extension_commutes_with_embedding(self):
        # the product of two extended observables, which do not commute,
        # reads as the product of their tensor-product matrices on the image
        rng = np.random.default_rng(44)
        space = hb.HilbertSpace.of_dim(3)
        for eta in (nl.BOSON, nl.FERMION):
            state = random_state(space, rng, eta)
            a, b = (hb.OperatorMatrix(space, random_hermitian(3, rng)) for _ in range(2))
            image = nl.to_first_quantized(state)
            lift = nl.extend_operator_matrix
            direct = lift(a).apply(lift(b).apply(image))
            want = image.inner(direct) / image.norm() ** 2
            assert abs(nl.product_expectation(state, a, b) - want) <= 1e-10


class TestExtension:
    def test_identity_doubles(self):
        # the extended identity is twice the identity, next to any observable
        space = hb.HilbertSpace.of_dim(3)
        rng = np.random.default_rng(45)
        state = random_state(space, rng, nl.BOSON)
        eye = hb.identity_op(space)
        b = hb.OperatorMatrix(space, random_hermitian(3, rng))
        want = 2.0 * nl.extended_expectation(state, b)
        assert abs(nl.product_expectation(state, eye, b) - want) <= 1e-12
        assert abs(nl.product_expectation(state, b, eye) - want) <= 1e-12

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_identity_expectation_counts_both_particles(self, eta):
        rng = np.random.default_rng(59)
        space = hb.HilbertSpace.of_dim(3)
        state = random_state(space, rng, eta)
        value = nl.extended_expectation(state, hb.identity_op(space))
        assert abs(value - 2.0) <= 1e-12

    def test_projector_two_term_action(self):
        # a rank-one projector maps a pair onto |psi, <psi|p1> p2 + eta <psi|p2> p1>:
        # the pair's overlap with that image and the image's squared norm are
        # the extended expectation and the square of the extended projector
        rng = np.random.default_rng(46)
        space = hb.HilbertSpace.of_dim(4)
        for eta in (nl.BOSON, nl.FERMION):
            pair = random_pair(space, rng, eta)
            psi = random_ket(space, rng)
            companion = (
                psi.inner(pair.phi1) * pair.phi2 + eta * psi.inner(pair.phi2) * pair.phi1
            )
            expected = nl.NoLabelState.from_pair(nl.NoLabelPair(psi, companion, eta))
            state = nl.NoLabelState.from_pair(pair)
            n2 = nl.nl_inner(state, state).real
            overlap = nl.extended_expectation(state, psi.outer()) * n2
            assert abs(overlap - nl.nl_inner(state, expected)) <= 1e-10
            square = nl.product_expectation(state, psi.outer(), psi.outer()) * n2
            assert abs(square - nl.nl_inner(expected, expected)) <= 1e-10

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
            state = nl.NoLabelState.from_pair(pair)
            assert abs(nl.extended_expectation(state, a) - closed) <= 1e-10

    def test_matches_first_quantized_oracle(self):
        rng = np.random.default_rng(48)
        space = hb.HilbertSpace.of_dim(4)
        eye = hb.identity_op(space)
        for trial in range(50):
            eta = nl.BOSON if trial % 2 == 0 else nl.FERMION
            state = random_state(space, rng, eta)
            mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = hb.OperatorMatrix(space, 0.5 * (mat + mat.conj().T))
            image = nl.to_first_quantized(state)
            oracle = hb.expectation(
                image.normalized(), hb.tensor_op(a, eye) + hb.tensor_op(eye, a)
            ).real
            assert abs(nl.extended_expectation(state, a) - oracle) <= 1e-10


class TestReduction:
    def test_probe_picks_partner(self):
        space = lr_space()
        l0, r1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, r1, nl.BOSON))
        reduced = nl.reduce_to_one_particle(l0, state)
        assert_allclose(reduced.amplitudes, r1.amplitudes, atol=1e-12)

    def test_orthogonal_probe_annihilates(self):
        space = lr_space()
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1"), nl.BOSON)
        )
        reduced = nl.reduce_to_one_particle(hb.basis_ket(space, "R,0"), state)
        assert np.linalg.norm(reduced.amplitudes) <= 1e-12

    def test_parallel_bosonic_pair_doubles(self):
        space = lr_space()
        l0 = hb.basis_ket(space, "L,0")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l0, nl.BOSON))
        reduced = nl.reduce_to_one_particle(l0, state)
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

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_empty_state_reduction_raises(self, eta):
        # an empty state raised a bare ValueError from every reduction and
        # from the tensor-product image
        space = lr_space()
        empty = nl.NoLabelState([], eta=eta)
        for call in (
            lambda: nl.subspace_reduced_dm(empty, self.left_window(space)),
            lambda: nl.entanglement_entropy(empty, self.left_window(space)),
            lambda: nl.reduce_to_one_particle(hb.basis_ket(space, "L,0"), empty),
            lambda: nl.to_first_quantized(empty),
        ):
            with pytest.raises(NullState):
                call()

    @pytest.mark.parametrize("reduce", [nl.subspace_reduced_dm, nl.entanglement_entropy])
    def test_non_orthonormal_basis_rejected(self, reduce):
        space = lr_space()
        l0, l1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(l0, hb.basis_ket(space, "R,1"), nl.BOSON)
        )
        for basis in ([l0, l0], [l0, 2.0 * l1], [l0, (l0 + l1) / SQ2]):
            with pytest.raises(ValueError, match="orthonormal"):
                reduce(state, basis)

    @pytest.mark.parametrize("reduce", [nl.subspace_reduced_dm, nl.entanglement_entropy])
    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_unnormalized_state_rejected(self, reduce, eta):
        space = lr_space()
        l0, l1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")
        unit = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l1, eta))
        for scale in (0.5, 2.0):
            with pytest.raises(NormalizationError):
                reduce(unit * scale, self.left_window(space))

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
            image = nl.to_first_quantized(nl.NoLabelState.from_pair(pair)).normalized()
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

    def test_duplicated_pair_rejected(self):
        # terms are kept as given, so p + p has two terms, not one with 2
        space = hb.HilbertSpace.of_dim(4)
        state = self.orthonormal_state(space, nl.BOSON)
        v0 = hb.basis_ket(space, 0).outer()
        with pytest.raises(ValueError, match="single-pair"):
            nl.pair_factorization_sides(state + state, v0, v0)

    def test_noncommuting_observables_rejected(self):
        space = hb.HilbertSpace.of_dim(4)
        state = self.orthonormal_state(space, nl.BOSON)
        v0, v1 = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        p = v0.outer()
        q = ((v0 + v1) / SQ2).outer()
        with pytest.raises(NonCommutingError):
            nl.pair_factorization_sides(state, p, q)


def gate_ket(kind):
    """A d = 2 basis ket ("e0", "e1"), a d = 3 one ("d3"), or a d = 2 ket with
    a NaN or inf entry ("nan", "inf")."""
    two, three = hb.HilbertSpace.of_dim(2), hb.HilbertSpace.of_dim(3)
    if kind in ("nan", "inf"):
        return hb.Ket(two, [0.0, getattr(np, kind)])
    return hb.basis_ket(three, 0) if kind == "d3" else hb.basis_ket(two, int(kind[1]))


BAD_ETAS = (0, 2, 1.5, -0.5)

#: Cells of the state gate, (pairs, given eta, error); each pair is a
#: (first, second, eta) triple over gate_ket, and each cell holds one defect.
STATE_GATE_CELLS = {
    **{f"empty-eta={e}": ([], e, ValueError) for e in BAD_ETAS},
    **{f"pair-eta={e}": ([("e0", "e1", e)], None, ValueError) for e in BAD_ETAS},
    "mixed-eta": ([("e0", "e1", nl.BOSON), ("e0", "e1", nl.FERMION)], None, EtaMismatch),
    "given-eta-differs": ([("e0", "e1", nl.BOSON)], nl.FERMION, EtaMismatch),
    "dims-2-3": ([("e0", "d3", nl.BOSON)], None, DimensionMismatch),
    "dims-3-2": ([("d3", "e0", nl.BOSON)], None, DimensionMismatch),
    "dims-across-pairs": (
        [("e0", "e1", nl.BOSON), ("d3", "d3", nl.BOSON)], None, DimensionMismatch
    ),
    **{
        f"{bad}-{where}": ([pair], None, NonFiniteError)
        for bad in ("nan", "inf")
        for where, pair in (
            ("first", (bad, "e1", nl.BOSON)),
            ("second", ("e0", bad, nl.FERMION)),
            ("both", (bad, bad, nl.BOSON)),
        )
    },
}


class TestStateGate:
    """A pair is judged once, when it enters a state."""

    @pytest.mark.parametrize("cell", STATE_GATE_CELLS)
    def test_entry_rejects(self, cell):
        # an empty state took eta 0 and 2 as they were, and stored 1.5 as a
        # boson and -0.5 as 0
        triples, eta, error = STATE_GATE_CELLS[cell]
        pairs = [nl.NoLabelPair(gate_ket(a), gate_ket(b), e) for a, b, e in triples]
        builds = [lambda: nl.NoLabelState([(1.0, p) for p in pairs], eta=eta)]
        if len(pairs) == 1 and eta is None:
            builds.append(lambda: nl.NoLabelState.from_pair(pairs[0]))
        for build in builds:
            with pytest.raises(error) as caught:
                build()
            assert type(caught.value) is error

    def test_dimension_is_the_one_rule(self):
        # kets of two label spaces of one dimension: a pair rejected them and a
        # state of two such pairs accepted them; both now take the state's rule
        space, other = hb.HilbertSpace.of_dim(2), hb.HilbertSpace.of_dim(2, prefix="f")
        v, w = hb.basis_ket(space, 0), hb.basis_ket(other, 1)
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(v, w, nl.FERMION))
        assert state.space is space and state.eta == nl.FERMION
        assert abs(nl.nl_inner(state, state) - 1.0) <= 1e-15


class TestNonFinite:
    """NaN and inf inputs raise instead of yielding empty or NaN results."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_constituent_rejected(self, bad, eta):
        # a NaN constituent made squared_norm() and extended_expectation nan,
        # normalized() empty, the reduced matrix NaN and the sides (nan, nan);
        # the pair is an input record, and the state it enters rejects it
        space = lr_space()
        good = hb.basis_ket(space, "L,0")
        broken = hb.Ket(space, [0, bad, 0, 0])
        for phi1, phi2 in ((broken, good), (good, broken), (broken, broken)):
            with pytest.raises(NonFiniteError):
                nl.NoLabelState.from_pair(nl.NoLabelPair(phi1, phi2, eta))
            pairs = (nl.NoLabelPair(good, good, eta), nl.NoLabelPair(phi1, phi2, eta))
            with pytest.raises(NonFiniteError):
                nl.NoLabelState([(1.0, p) for p in pairs])

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

    @pytest.mark.parametrize(
        "coeffs", [[1e200], [1e308], [1e308, 1e308]], ids=["1e200", "1e308", "two-1e308"]
    )
    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_overflow_fails_closed_when_read(self, eta, coeffs):
        # finite coefficients whose pairing overflows: every reading of the
        # squared norm raises an IdsepError, not a bare RuntimeWarning or inf
        space = lr_space()
        l0, r1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1")
        state = nl.NoLabelState([(c, nl.NoLabelPair(l0, r1, eta)) for c in coeffs])
        window = [l0, hb.basis_ket(space, "L,1")]
        one = hb.identity_op(space)
        for call in (
            lambda: nl.nl_inner(state, state),
            state.is_null,
            state.normalized,
            lambda: nl.entanglement_entropy(state, window),
            lambda: nl.subspace_reduced_dm(state, window),
            lambda: nl.extended_expectation(state, one),
            lambda: nl.product_expectation(state, one, one),
        ):
            with pytest.raises(IdsepError):
                call()
        # one term's image and reduction are finite and returned; the sum of
        # two overflows and raises
        for call in (
            lambda: nl.to_first_quantized(state),
            lambda: nl.reduce_to_one_particle(r1, state),
        ):
            if len(coeffs) == 1:
                assert np.isfinite(call().amplitudes).all()
            else:
                with pytest.raises(NonFiniteError):
                    call()

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_overflowing_constituents_fail_closed_when_read(self, eta):
        # the liveness norm of a constituent with entries 1e200 overflows;
        # it raised a bare RuntimeWarning from the constructor
        space = lr_space()
        l0, r1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1")
        huge = nl.NoLabelPair(
            hb.Ket(space, 1e200 * (l0.amplitudes + r1.amplitudes)),
            hb.Ket(space, 1e200 * r1.amplitudes),
            eta,
        )
        state = nl.NoLabelState.from_pair(huge)
        assert len(state.coefficients) == 1
        window = [l0, hb.basis_ket(space, "L,1")]
        one = hb.identity_op(space)
        for call in (
            lambda: nl.nl_inner(state, state),
            state.is_null,
            state.normalized,
            lambda: nl.entanglement_entropy(state, window),
            lambda: nl.subspace_reduced_dm(state, window),
            lambda: nl.extended_expectation(state, one),
            lambda: nl.product_expectation(state, one, one),
            lambda: nl.to_first_quantized(state),
            lambda: nl.reduce_to_one_particle(r1, state),
        ):
            with pytest.raises((NonFiniteError, NormalizationError)):
                call()

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
        with pytest.raises(ValueError, match="orthonormal"):
            nl.entanglement_entropy(state, [broken, l1])

    def test_nan_squared_norm_rejected(self):
        # finite but huge parallel fermionic constituents: the pairing computes
        # inf - inf, so the squared norm is NaN and must not pass the gate
        space = lr_space()
        huge = hb.Ket(space, [1e200, 0, 0, 0])
        window = [hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")]
        with np.errstate(over="ignore", invalid="ignore"):
            pair = nl.NoLabelPair(huge, huge, nl.FERMION)
            state = nl.NoLabelState.from_pair(pair)
            assert np.isnan(state.squared_norm())
            for call in (state.is_null, state.normalized):
                with pytest.raises(NormalizationError):
                    call()
            with pytest.raises(NormalizationError):
                nl.subspace_reduced_dm(state, window)
            with pytest.raises(NormalizationError):
                nl.entanglement_entropy(state, window)
            one = hb.identity_op(space)
            with pytest.raises(NormalizationError):
                nl.extended_expectation(state, one)
            with pytest.raises(NormalizationError):
                nl.product_expectation(state, one, one)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        # an all-NaN operator raised a plain ValueError (not hermitian)
        space = lr_space()
        l0, r1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, r1, nl.BOSON))
        broken = hb.OperatorMatrix(space, np.full((4, 4), bad))
        one = hb.identity_op(space)
        with pytest.raises(NonFiniteError):
            nl.extended_expectation(state, broken)
        for ops in ((broken, one), (one, broken)):
            with pytest.raises(NonFiniteError):
                nl.product_expectation(state, *ops)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probe_rejected(self, bad):
        # a NaN probe returned an all-NaN ket
        space = lr_space()
        l0, r1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "R,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, r1, nl.BOSON))
        with pytest.raises(NonFiniteError):
            nl.reduce_to_one_particle(hb.Ket(space, [bad, 0, 0, 0]), state)

    def test_wrong_dimension_rejected(self):
        space = lr_space()
        l0, l1 = hb.basis_ket(space, "L,0"), hb.basis_ket(space, "L,1")
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(l0, l1, nl.BOSON))
        small = hb.HilbertSpace.of_dim(2)
        short = [hb.basis_ket(small, 0), hb.basis_ket(small, 1)]
        for basis in ([l0, short[1]], short):
            with pytest.raises(DimensionMismatch):
                nl.subspace_reduced_dm(state, basis)
            with pytest.raises(DimensionMismatch):
                nl.entanglement_entropy(state, basis)
        with pytest.raises(DimensionMismatch):
            nl.reduce_to_one_particle(short[0], state)
        with pytest.raises(DimensionMismatch):
            nl.extended_expectation(state, hb.identity_op(small))


def bad_operator(kind):
    """An operator that is no observable on d = 4: of dimension 3, NaN or inf
    at (0, 3) and (3, 0) of a unit-trace diagonal, or not hermitian."""
    if kind == "wrong-dim":
        return hb.identity_op(hb.HilbertSpace.of_dim(3))
    mat = np.diag([0.25] * 4).astype(complex)
    if kind == "non-hermitian":
        mat[0, 3] = 1.0
    else:
        mat[0, 3] = mat[3, 0] = getattr(np, kind)
    return hb.OperatorMatrix(hb.HilbertSpace.of_dim(4), mat)


#: Each reading that takes an operator, with the bad one in each position;
#: the other operator is the identity.
OPERATOR_READINGS = {
    "extended_expectation": lambda s, r, bad, one: nl.extended_expectation(s, bad),
    "product_expectation-first": lambda s, r, bad, one: nl.product_expectation(s, bad, one),
    "product_expectation-second": lambda s, r, bad, one: nl.product_expectation(s, one, bad),
    "pair_factorization_sides-first": lambda s, r, bad, one: nl.pair_factorization_sides(
        s, bad, one
    ),
    "pair_factorization_sides-second": lambda s, r, bad, one: nl.pair_factorization_sides(
        s, one, bad
    ),
    "reduced_expectation": lambda s, r, bad, one: nl.reduced_expectation(r, bad),
}

BAD_OPERATORS = {
    "wrong-dim": DimensionMismatch,
    "nan": NonFiniteError,
    "inf": NonFiniteError,
    "non-hermitian": ValueError,
}


class TestOperatorGate:
    """One gate for every reading that takes an operator."""

    @pytest.mark.parametrize("kind", BAD_OPERATORS)
    @pytest.mark.parametrize("reading", OPERATOR_READINGS)
    def test_reading_rejects_bad_operator(self, reading, kind):
        # the product expectation returned 4 on a non-hermitian operator, the
        # reduced expectation nan, a RuntimeWarning and 1.0, and the sides
        # numpy's ValueError from matmul on a wrong dimension
        space = hb.HilbertSpace.of_dim(4)
        basis = [hb.basis_ket(space, i) for i in range(4)]
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(basis[0], basis[1], nl.BOSON))
        reduced = nl.subspace_reduced_dm(state, basis)
        call = OPERATOR_READINGS[reading]
        with pytest.raises(BAD_OPERATORS[kind]) as caught:
            call(state, reduced, bad_operator(kind), hb.identity_op(space))
        assert type(caught.value) is BAD_OPERATORS[kind]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        eta=st.sampled_from([nl.BOSON, nl.FERMION]),
        exponent=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_commutation_is_relative(self, eta, exponent, seed):
        # the absolute test max |[O1, O2]| <= gate accepted the pair below at
        # x1e-5 (sides 5e-11 apart: "factorizes") and rejected commuting
        # observables at x1e3 on their rounding
        s = 10.0**exponent
        rng = np.random.default_rng(seed)
        space = hb.HilbertSpace.of_dim(4)
        v1, v2 = (hb.Ket(space, col) for col in random_isometry(4, 2, rng).T)
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(v1, v2, eta))
        pair = [0.5 * (o.matrix + o.matrix.conj().T) for o in commuting_hermitian_pair(space, rng)]
        want = nl.pair_factorization_sides(state, *(hb.OperatorMatrix(space, o) for o in pair))
        got = nl.pair_factorization_sides(state, *(hb.OperatorMatrix(space, s * o) for o in pair))
        assert np.abs(np.array(got) / s**2 - want).max() <= 1e-12
        v0, w1 = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        p, q = (s * k.outer() for k in (v0, (v0 + w1) / SQ2))
        basis_state = nl.NoLabelState.from_pair(nl.NoLabelPair(v0, w1, eta))
        with pytest.raises(NonCommutingError):
            nl.pair_factorization_sides(basis_state, p, q)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        exponent=st.floats(-150.0, 150.0),
        asymmetry=st.floats(-6.0, -1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hermiticity_is_relative(self, exponent, asymmetry, seed):
        # the absolute test max |A - A^dag| <= gate let 1e-9 |0><1| through,
        # read as 0.0, and rejected diag(1, 2, 3, 4) x 1e6 on its rounding
        s = 10.0**exponent
        rng = np.random.default_rng(seed)
        space = hb.HilbertSpace.of_dim(4)
        basis = [hb.basis_ket(space, i) for i in range(4)]
        v1, v2 = (hb.Ket(space, col) for col in random_isometry(4, 2, rng).T)
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(v1, v2, nl.BOSON))
        reduced = nl.subspace_reduced_dm(state, basis)
        h = random_hermitian(4, rng)
        near, far = h.copy(), h.copy()
        near[0, 1] += 1e-15 * np.abs(h).max()  # relative asymmetry about 1e-15
        far[0, 1] += 2 * 10.0**asymmetry * np.abs(h).max()  # at least 10^asymmetry
        good, bad = (hb.OperatorMatrix(space, s * m) for m in (near, far))
        for reading in OPERATOR_READINGS.values():
            reading(state, reduced, good, good)
            with pytest.raises(ValueError) as caught:
                reading(state, reduced, bad, good)
            assert type(caught.value) is ValueError
        want = nl.extended_expectation(state, hb.OperatorMatrix(space, near))
        got = nl.extended_expectation(state, good)
        assert abs(got / s - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("s", [1e-170, 1e-165, 1e-160, 1e160, 1e200])
    def test_sides_need_a_normal_norm_product(self, s):
        # (s|0><0|, s|+><+|) read (0.0, 0.0) at s = 1e-165, the balanced
        # projectors of nolabel-factor-2 read (0.0, 0.0) ("factorizes") in
        # place of (-0.5, 0.5), and s = 1e160 raised a bare RuntimeWarning
        space = hb.HilbertSpace.of_dim(4)
        v0, v1 = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        state = nl.NoLabelState.from_pair(nl.NoLabelPair(v0, v1, nl.BOSON))
        plus, minus = (v0 + v1) / SQ2, (v0 - v1) / SQ2
        for pair in ((v0.outer(), plus.outer()), (plus.outer(), minus.outer())):
            with pytest.raises(NonFiniteError):
                nl.pair_factorization_sides(state, *(s * o for o in pair))
        zero = 0.0 * hb.identity_op(space)
        for ops in ((zero, s * plus.outer()), (s * plus.outer(), zero)):
            assert nl.pair_factorization_sides(state, *ops) == (0.0, 0.0)

    @pytest.mark.parametrize("matrix", [
        [[0, 1e308], [-1e308, 0]],
        [[1e308 + 1e308j, 0], [0, 1]],
    ])
    def test_overflowing_asymmetry_is_rejected(self, matrix):
        # A - A^dag of these finite operators overflows: a bare RuntimeWarning
        # came out of the hermiticity test instead of the gate's ValueError
        space = hb.HilbertSpace.of_dim(2)
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(hb.basis_ket(space, 0), hb.basis_ket(space, 1), nl.BOSON)
        )
        with pytest.raises(ValueError) as caught:
            nl.extended_expectation(state, hb.OperatorMatrix(space, matrix))
        assert type(caught.value) is ValueError

    def test_overflowing_sides_fail_closed(self):
        # ||O1|| ||O2|| = 1.44e308 is a normal float, but the left side
        # 2.88e308 is not: it raised a bare RuntimeWarning
        space = hb.HilbertSpace.of_dim(4)
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(hb.basis_ket(space, 0), hb.basis_ket(space, 1), nl.BOSON)
        )
        big = 1.2e154 * hb.identity_op(space)
        with pytest.raises(NonFiniteError):
            nl.pair_factorization_sides(state, big, big)


def reference_pairing(terms_a, terms_b, eta):
    """Double loop over term pairs of the exchange-signed pairing."""
    total = 0j
    for ca, pa in terms_a:
        for cb, pb in terms_b:
            direct = pa.phi1.inner(pb.phi1) * pa.phi2.inner(pb.phi2)
            exchanged = pa.phi1.inner(pb.phi2) * pa.phi2.inner(pb.phi1)
            total += np.conj(ca) * cb * (direct + eta * exchanged)
    return total


def reference_extension(terms, a, eta):
    """Per-term action of the extended operator: (A p1, p2) and (p1, A p2)."""
    out = []
    for c, p in terms:
        out.append((c, nl.NoLabelPair(a.apply(p.phi1), p.phi2, eta)))
        out.append((c, nl.NoLabelPair(p.phi1, a.apply(p.phi2), eta)))
    return out


def reference_reduction(probe, terms, eta):
    """Per-term sum of <probe|p1> p2 + eta <probe|p2> p1."""
    out = np.zeros(probe.dim, dtype=np.complex128)
    for c, p in terms:
        out += c * (
            probe.inner(p.phi1) * p.phi2.amplitudes
            + eta * probe.inner(p.phi2) * p.phi1.amplitudes
        )
    return out


def reference_reduced_dm(terms, eta, basis):
    """Sum over probes of the outer products of their reductions, unit trace."""
    accum = 0.0
    for psi in basis:
        r = reference_reduction(psi, terms, eta)
        accum = accum + np.outer(r, np.conj(r))
    return accum / np.trace(accum).real


def random_hermitian(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    return h / np.linalg.norm(h, 2)


def random_isometry(d, k, rng):
    z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return np.linalg.qr(z)[0]


def assert_reads_as(state, terms, rng, tol=1e-12):
    """The state's readings equal the per-term references over ``terms``: the
    image within tol / 100 (1e-14 by default) and the scalar product with a
    random pair within ``tol``, both relative to sum |c| |p1| |p2|; the
    extended expectation and the entropy over a random subspace within tol."""
    eta, space = state.eta, state.space
    d = space.dim
    scale = sum(abs(c) * p.phi1.norm() * p.phi2.norm() for c, p in terms)
    image = nl.to_first_quantized(state).amplitudes
    assert np.abs(image - reference_first_quantized(terms, eta)).max() <= tol / 100 * scale
    other = [(1.0, random_pair(space, rng, eta))]
    inner = nl.nl_inner(nl.NoLabelState(other), state)
    assert abs(inner - reference_pairing(other, terms, eta)) <= tol * scale
    a = hb.OperatorMatrix(space, random_hermitian(d, rng))
    n2 = reference_pairing(terms, terms, eta).real
    want = reference_pairing(terms, reference_extension(terms, a, eta), eta).real / n2
    assert abs(nl.extended_expectation(state, a) - want) <= tol
    basis = random_isometry(d, int(rng.integers(1, d + 1)), rng)
    kets = [hb.Ket(space, v) for v in basis.T]
    want = hb.von_neumann_entropy(
        hb.OperatorMatrix(space, reference_reduced_dm(terms, eta, kets))
    )
    assert abs(nl.entanglement_entropy(state.normalized(), kets) - want) <= tol


def summed_terms(terms, eta):
    """The terms with each repeated or swapped copy of a pair (the same kets)
    summed into the pair's first occurrence, times eta when swapped."""
    sums, pairs = {}, {}
    for c, p in terms:
        key = (id(p.phi1), id(p.phi2))
        if key not in sums and key[::-1] in sums:
            key, c = key[::-1], eta * c
        sums[key] = sums.get(key, 0.0) + c
        pairs.setdefault(key, p)
    return [(sums[k], pairs[k]) for k in sums]


@st.composite
def raw_states(draw, max_terms=12):
    """(eta, space, raw terms): 1..max_terms random pairs in d = 2..6, plus
    swapped duplicates and cancelling copies of some of them."""
    eta = draw(st.sampled_from([nl.BOSON, nl.FERMION]))
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, max_terms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = hb.HilbertSpace.of_dim(d)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    terms = [(complex(c), random_pair(space, rng, eta)) for c in coeffs]
    extra = draw(
        st.lists(
            st.tuples(st.sampled_from(["swap", "cancel"]), st.integers(0, n - 1)),
            max_size=4,
        )
    )
    for kind, k in extra:
        c, p = terms[k]
        terms.append((0.5 * c, p.swapped()) if kind == "swap" else (-c, p))
    return eta, space, terms, rng


class TestStackedReadings:
    """Every reading against per-term references and the tensor-product image."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(raw=raw_states())
    def test_readings_match_references(self, raw):
        eta, space, terms, rng = raw
        d = space.dim
        state = nl.NoLabelState(terms, eta=eta)
        other_terms = [(1.0, random_pair(space, rng, eta)), (0.5j, terms[0][1])]
        other = nl.NoLabelState(other_terms, eta=eta)
        want = reference_pairing(terms, other_terms, eta)
        assert abs(nl.nl_inner(state, other) - want) <= 1e-12
        n2 = reference_pairing(terms, terms, eta).real
        assert abs(state.squared_norm() - n2) <= 1e-12
        # normalized readings lose digits as the terms cancel; compare them at
        # 1e-12 while at least 1% of the coefficient weight survives
        if n2 <= 1e-2 * sum(abs(c) ** 2 for c, _ in terms):
            return

        image = reference_first_quantized(terms, eta)
        psi = image.reshape(d, d)
        probe = random_ket(space, rng)
        reduced = nl.reduce_to_one_particle(probe, state).amplitudes
        assert np.abs(reduced - reference_reduction(probe, terms, eta)).max() <= 1e-12
        oracle = SQ2 * psi.T @ np.conj(probe.amplitudes)
        assert np.abs(reduced - oracle).max() <= 1e-12

        a, b = (hb.OperatorMatrix(space, random_hermitian(d, rng)) for _ in range(2))
        lifted = reference_extension(terms, a, eta)
        want = reference_pairing(terms, lifted, eta).real / n2
        extended = nl.extended_expectation(state, a)
        assert abs(extended - want) <= 1e-12
        lift = nl.extend_operator_matrix
        fq = np.vdot(image, lift(a).matrix @ image).real / n2
        assert abs(extended - fq) <= 1e-12
        twice = reference_extension(reference_extension(terms, b, eta), a, eta)
        joint = nl.product_expectation(state, a, b)
        assert abs(joint - reference_pairing(terms, twice, eta) / n2) <= 1e-12
        fq = np.vdot(image, lift(a).matrix @ lift(b).matrix @ image) / n2
        assert abs(joint - fq) <= 1e-12

        unit = state.normalized()
        scaled = [(c / np.sqrt(n2), p) for c, p in terms]
        basis = random_isometry(d, int(rng.integers(1, d + 1)), rng)
        kets = [hb.Ket(space, col) for col in basis.T]
        dm = nl.subspace_reduced_dm(unit, kets)
        want = reference_reduced_dm(scaled, eta, kets)
        assert np.abs(dm.matrix.matrix - want).max() <= 1e-12
        assert np.array_equal(dm.subspace_basis, basis)
        projector = dm.subspace_basis @ dm.subspace_basis.conj().T
        accum = psi.T @ projector.conj() @ psi.conj()
        assert np.abs(dm.matrix.matrix - accum / np.trace(accum).real).max() <= 1e-12

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(raw=raw_states(), data=st.data())
    def test_entropy_matches_reduced_matrix_spectrum(self, raw, data):
        eta, space, terms, rng = raw
        state = nl.NoLabelState(terms, eta=eta)
        # as above: normalized readings are compared while the terms keep 1%
        if state.squared_norm() <= 1e-2 * sum(abs(c) ** 2 for c, _ in terms):
            return
        unit = state.normalized()
        d = space.dim
        if data.draw(st.booleans()):
            basis = random_isometry(d, data.draw(st.integers(1, d)), rng)
        else:
            # orthogonal to every constituent, when that leaves room: the
            # subspace annihilates the state
            constituents = unit.constituents.reshape(-1, d).T
            u, sv, _ = np.linalg.svd(constituents)
            complement = u[:, (sv > 1e-10).sum() :]
            if not complement.shape[1]:
                return
            k = data.draw(st.integers(1, complement.shape[1]))
            basis = complement @ random_isometry(complement.shape[1], k, rng)
        kets = [hb.Ket(space, col) for col in basis.T]
        try:
            want = hb.von_neumann_entropy(nl.subspace_reduced_dm(unit, kets).matrix)
        except NullReduction:
            with pytest.raises(NullReduction):
                nl.entanglement_entropy(unit, kets)
            return
        assert abs(nl.entanglement_entropy(unit, kets) - want) <= 1e-12

    def test_squared_norm_paired_once(self, monkeypatch):
        # the entropy's normalization gate and the expectation's division read
        # one cached squared norm: one pairing for it, one for the expectation
        rng = np.random.default_rng(2)
        space = hb.HilbertSpace.of_dim(6)
        terms = [(1.0 + 0.5j * k, random_pair(space, rng, nl.FERMION)) for k in range(5)]
        state = nl.NoLabelState(terms).normalized()
        calls = []
        pairing = nl._pairing
        monkeypatch.setattr(nl, "_pairing", lambda *args: calls.append(1) or pairing(*args))
        basis = [hb.Ket(space, col) for col in random_isometry(6, 3, rng).T]
        nl.entanglement_entropy(state, basis)
        nl.extended_expectation(state, hb.OperatorMatrix(space, random_hermitian(6, rng)))
        assert len(calls) == 2
        # a scaled state pairs its own terms, not |factor|^2 times the cache
        assert (state * 3.0).squared_norm() == nl.nl_inner(state * 3.0, state * 3.0).real
        assert len(calls) == 4

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_entropy_matches_psi_oracle_at_d64(self, eta):
        rng = np.random.default_rng(64)
        d, k = 64, 32
        space = hb.HilbertSpace.of_dim(d)
        coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        terms = [(complex(c), random_pair(space, rng, eta)) for c in coeffs]
        state = nl.NoLabelState(terms, eta=eta).normalized()
        basis = random_isometry(d, k, rng)
        kets = [hb.Ket(space, col) for col in basis.T]
        # numpy oracle: Psi0 = sum c p1 p2^T, Psi = (Psi0 + eta Psi0^T)/sqrt(2),
        # rho proportional to Psi^T P^* Psi^* with P = B B^H
        psi0 = sum(
            c * np.outer(u, v) for c, u, v in zip(state.coefficients, *state.constituents)
        )
        psi = (psi0 + eta * psi0.T) / SQ2
        accum = psi.T @ (basis @ basis.conj().T).conj() @ psi.conj()
        rho = accum / np.trace(accum).real
        p = np.linalg.eigvalsh(rho)
        p = p[p > 1e-12]
        assert len(p) == 4  # rank 2T
        want = -np.sum(p * np.log2(p))
        assert abs(nl.entanglement_entropy(state, kets) - want) <= 1e-12
        reduced = nl.subspace_reduced_dm(state, kets)
        assert np.abs(reduced.matrix.matrix - rho).max() <= 1e-12

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(raw=raw_states(max_terms=6), data=st.data())
    def test_reduced_dm_depends_only_on_the_subspace(self, raw, data):
        eta, space, terms, rng = raw
        state = nl.NoLabelState(terms, eta=eta)
        if state.squared_norm() <= 1e-6:
            return
        state = state.normalized()
        d = space.dim
        k = data.draw(st.integers(1, d))
        basis = random_isometry(d, k, rng)
        rotated = basis @ random_isometry(k, k, rng)  # a unitary inside the span
        try:
            reference = nl.subspace_reduced_dm(
                state, [hb.Ket(space, v) for v in basis.T]
            )
        except NullReduction:
            with pytest.raises(NullReduction):
                nl.subspace_reduced_dm(state, [hb.Ket(space, v) for v in rotated.T])
            return
        again = nl.subspace_reduced_dm(state, [hb.Ket(space, v) for v in rotated.T])
        assert np.abs(again.matrix.matrix - reference.matrix.matrix).max() <= 1e-10
        assert abs(again.normalization - reference.normalization) <= 1e-10


def nudged(pair, factor):
    """The pair with the first entry of its second constituent moved by
    factor * DROP_TOL."""
    amps = pair.phi2.amplitudes.copy()
    amps[0] += factor * nl.DROP_TOL
    return nl.NoLabelPair(pair.phi1, hb.Ket(pair.space, amps), pair.eta)


def tiny_ket(space, factor):
    return hb.Ket(space, [factor * nl.DROP_TOL] + [0.0] * (space.dim - 1))


def live_terms(terms):
    """The terms construction keeps: coefficient and both constituent norms
    above DROP_TOL, in input order."""
    return [
        (complex(c), p)
        for c, p in terms
        if min(abs(c), p.phi1.norm(), p.phi2.norm()) > nl.DROP_TOL
    ]


def assert_same_terms(state, want):
    """The state stores exactly the coefficients and constituents of the
    terms ``want``, in their order."""
    assert state.coefficients.tolist() == [complex(c) for c, _ in want]
    assert state.constituents.shape[1] == len(want)
    if want:
        stack = [[p.phi1.amplitudes for _, p in want], [p.phi2.amplitudes for _, p in want]]
        assert np.array_equal(state.constituents, stack)


class TestMerge:
    """Nothing merges: repeated, swapped, nudged and cancelling terms are kept
    as given and read as their sum."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(raw=raw_states(max_terms=8), data=st.data())
    def test_terms_match_sequential_merge(self, raw, data):
        eta, space, terms, rng = raw
        # nudges by 0.5 and 2 DROP_TOL, direct and swapped
        for _ in range(data.draw(st.integers(0, 4))):
            c, p = terms[data.draw(st.integers(0, len(terms) - 1))]
            near = nudged(p, data.draw(st.sampled_from([0.5, 2.0])))
            terms.append((-c, near) if data.draw(st.booleans()) else (0.2j, near.swapped()))
        # a constituent or a coefficient at or below DROP_TOL drops its term
        factors = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), max_size=2)
        for factor in data.draw(factors):
            tiny = nl.NoLabelPair(tiny_ket(space, factor), terms[0][1].phi2, eta)
            terms.append((1.0, tiny))
            terms.append((factor * nl.DROP_TOL, terms[0][1]))
        order = data.draw(st.permutations(range(len(terms))))
        terms = [terms[i] for i in order]
        state = nl.NoLabelState(terms, eta=eta)
        live = live_terms(terms)
        assert_same_terms(state, live)
        for c, p in terms:  # the one-term constructor drops the same terms
            assert_same_terms(nl.NoLabelState.from_pair(p, c), live_terms([(c, p)]))
        # scaling multiplies the coefficients exactly: a nonzero factor, 1e-13
        # included, drops no term, and zero drops them all
        factor = data.draw(st.sampled_from([2.0, -0.5j, 1e-13, 0.0]))
        scaled = [(c * factor, p) for c, p in live if c * factor != 0]
        assert len(scaled) == (len(live) if factor else 0)
        assert_same_terms(state * factor, scaled)
        # as in TestStackedReadings: compare while 1% of the weight survives
        if state.squared_norm() > 1e-2 * sum(abs(c) ** 2 for c, _ in live):
            assert_reads_as(state, live, rng)

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_tolerance_edges_and_full_cancellation(self, eta):
        rng = np.random.default_rng(70)
        space = hb.HilbertSpace.of_dim(4)
        p, q = random_pair(space, rng, eta), random_pair(space, rng, eta)
        inside, outside = nudged(p, 0.5), nudged(p, 2.0)
        terms = [
            (1.0, p), (2.0, inside), (3.0, outside), (4.0, inside.swapped()),
            (nl.DROP_TOL, q),  # a coefficient at DROP_TOL is dropped
            (1.0, nl.NoLabelPair(tiny_ket(space, 1.0), q.phi2, eta)),
        ]
        state = nl.NoLabelState(terms, eta=eta)
        assert_same_terms(state, terms[:4])
        assert_reads_as(state, terms[:4], rng)
        # the nudges move the readings by about DROP_TOL only
        assert_reads_as(state, [(3.0 + 4.0 * eta, p), (3.0, outside)], rng, tol=1e-10)
        window = [hb.basis_ket(space, 0), hb.basis_ket(space, 1)]
        v = nl.NoLabelPair(p.phi1, p.phi1, eta)  # a parallel pair and its nudge
        parallel = [(1.0, v), (2.0, nudged(v, 0.5))]
        state = nl.NoLabelState(parallel)
        assert_same_terms(state, parallel)
        if eta == nl.BOSON:
            assert_reads_as(state, [(3.0, v)], rng, tol=1e-10)
        else:
            assert_reads_null(state, window)
        for cancelled in (
            [(0.7, p), (-0.7, inside)],
            [(0.7, p), (-0.7 * eta, p.swapped())],
            [(0.7, p), (0.3, outside), (-0.7, inside), (-0.3, outside)],
        ):
            state = nl.NoLabelState(cancelled, eta=eta)
            assert_same_terms(state, cancelled)
            assert_reads_null(state, window)

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    @pytest.mark.parametrize("dim", [1, 3, 8, 16])
    def test_nudges_along_the_probe(self, eta, dim):
        # every entry of a pair moved by factor * DROP_TOL in a random phase,
        # up and down, given and swapped: all terms are kept, and the state
        # reads as its raw terms and, up to the nudges, as the summed pairs
        rng = np.random.default_rng(dim)
        space = hb.HilbertSpace.of_dim(dim)
        terms, summed = [], []
        for factor in (0.5, 0.9, 0.999, 1.0, 1.001, 1.5):
            p = random_pair(space, rng, eta)
            phases = np.exp(2j * np.pi * rng.random((2, dim)))
            moved = [
                hb.Ket(space, k.amplitudes + sign * factor * nl.DROP_TOL * phase)
                for sign in (1, -1)
                for k, phase in zip((p.phi1, p.phi2), phases)
            ]
            up = nl.NoLabelPair(moved[0], moved[1], eta)
            down = nl.NoLabelPair(moved[2], moved[3], eta)
            terms += [(1.0, p), (2.0, up), (4.0, down.swapped()), (8.0, up.swapped())]
            summed.append((1.0 + 2.0 + 4.0 * eta + 8.0 * eta, p))
        state = nl.NoLabelState(terms, eta=eta)
        assert_same_terms(state, terms)
        if eta == nl.FERMION and dim == 1:  # two one-dimensional kets are parallel
            assert_reads_null(state, [hb.basis_ket(space, 0)])
            return
        assert_reads_as(state, terms, rng)
        assert_reads_as(state, summed, rng, tol=1e-10)

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_scaled_constituents(self, eta):
        # constituents scaled by 1e-6, 1e3 and 1e6, each pair repeated given
        # and swapped: the readings equal those of the summed pairs, relative
        # to the scale of the terms.  At 1e-6 times 1e-6 the state is null:
        # NULL_TOL is absolute.
        rng = np.random.default_rng(6)
        space = hb.HilbertSpace.of_dim(4)
        scales = [(1e-6, 1e-6), (1e-6, 1e6), (1e3, 1e3), (1e6, 1.0)]
        for k, (first, second) in enumerate(scales):
            terms = []
            for _ in range(10):
                p = random_pair(space, rng, eta)
                p = nl.NoLabelPair(
                    hb.Ket(space, first * p.phi1.amplitudes),
                    hb.Ket(space, second * p.phi2.amplitudes),
                    eta,
                )
                for _ in range(3):
                    copy = p.swapped() if rng.random() < 0.5 else p
                    terms.append((complex(rng.standard_normal()), copy))
            terms = [terms[i] for i in rng.permutation(len(terms))]
            state = nl.NoLabelState(terms, eta=eta)
            assert_same_terms(state, terms)
            if k == 0:
                assert_reads_null(state, [hb.basis_ket(space, 0)])
                continue
            assert_reads_as(state, terms, rng)
            assert_reads_as(state, summed_terms(terms, eta), rng)

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_normalizing_large_constituents_keeps_terms(self, eta):
        # 30 pairs of constituents scaled 1e6 x 1e6: the normalized
        # coefficients are about 1e-13, at or below DROP_TOL, and normalizing
        # dropped every term
        rng = np.random.default_rng(7)
        space = hb.HilbertSpace.of_dim(4)
        unit, large = [], []
        for _ in range(30):
            c, p = complex(rng.standard_normal()), random_pair(space, rng, eta)
            unit.append((c, p))
            big = nl.NoLabelPair(
                hb.Ket(space, 1e6 * p.phi1.amplitudes),
                hb.Ket(space, 1e6 * p.phi2.amplitudes),
                eta,
            )
            large.append((c, big))
        normalized = nl.NoLabelState(large, eta=eta).normalized()
        assert len(normalized.coefficients) == 30
        assert np.abs(normalized.coefficients).max() <= nl.DROP_TOL
        basis = random_isometry(space.dim, 2, rng)
        kets = [hb.Ket(space, v) for v in basis.T]
        want = nl.entanglement_entropy(nl.NoLabelState(unit, eta=eta).normalized(), kets)
        assert abs(nl.entanglement_entropy(normalized, kets) - want) <= 1e-12

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_sum_and_extension_keep_judged_terms(self, eta):
        # a normalized state n of 3 pairs of constituents x1e6 has
        # coefficients below DROP_TOL; + and the extension rebuilt n + n and
        # 1 n from terms and judged them again, so both had no terms and
        # squared norm 0.  The extended identity reads 2 on n
        rng = np.random.default_rng(21)
        space = hb.HilbertSpace.of_dim(6)
        terms = []
        for _ in range(3):
            p = random_pair(space, rng, eta)
            big = [hb.Ket(space, 1e6 * k.amplitudes) for k in (p.phi1, p.phi2)]
            terms.append((1.0, nl.NoLabelPair(*big, eta)))
        n = nl.NoLabelState(terms, eta=eta).normalized()
        assert np.abs(n.coefficients).max() <= nl.DROP_TOL
        total = n + n
        assert len(total.coefficients) == 6
        assert abs(total.squared_norm() - 4.0) <= 1e-12
        again = total.normalized()
        image = nl.to_first_quantized(n).amplitudes
        assert np.abs(nl.to_first_quantized(again).amplitudes - image).max() <= 1e-12
        a = hb.OperatorMatrix(space, random_hermitian(6, rng))
        assert abs(nl.extended_expectation(again, a) - nl.extended_expectation(n, a)) <= 1e-12
        kets = [hb.Ket(space, v) for v in random_isometry(6, 3, rng).T]
        want = nl.entanglement_entropy(n, kets)
        assert abs(nl.entanglement_entropy(again, kets) - want) <= 1e-12
        eye = hb.identity_op(space)
        assert abs(nl.extended_expectation(n, eye) - 2.0) <= 1e-12
        assert abs(nl.product_expectation(n, eye, eye) - 4.0) <= 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(raw=raw_states(), data=st.data())
    def test_list_array_and_sum_paths_agree(self, raw, data):
        # the list constructor, the array path over the stacked input and the
        # sum of two states split from the terms store the same arrays, so
        # their readings are identical, not merely close
        eta, space, terms, rng = raw
        listed = nl.NoLabelState(terms, eta=eta)
        coeffs = np.array([c for c, _ in terms], dtype=np.complex128)
        stack = np.array(
            [[p.phi1.amplitudes for _, p in terms], [p.phi2.amplitudes for _, p in terms]]
        )
        stacked = object.__new__(nl.NoLabelState)._keep(eta, space, coeffs, stack, nl.DROP_TOL)
        k = data.draw(st.integers(0, len(terms)))
        added = nl.NoLabelState(terms[:k], eta=eta) + nl.NoLabelState(terms[k:], eta=eta)
        a = hb.OperatorMatrix(space, random_hermitian(space.dim, rng))
        basis = random_isometry(space.dim, int(rng.integers(1, space.dim + 1)), rng)
        kets = [hb.Ket(space, v) for v in basis.T]

        def readings(state):
            out = [state.squared_norm(), nl.to_first_quantized(state).amplitudes.tolist()]
            for read in (
                lambda: nl.entanglement_entropy(state.normalized(), kets),
                lambda: nl.extended_expectation(state, a),
            ):
                try:
                    out.append(read())
                except IdsepError as exc:  # a cancelled state: the same error
                    out.append(type(exc))
            return out

        want = readings(listed)
        assert readings(stacked) == want
        assert readings(added) == want
        for state in (listed, stacked, added, listed * 2.0):
            assert not state.coefficients.flags.writeable
            assert not state.constituents.flags.writeable

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_many_terms_with_exact_duplicates(self, eta):
        # 160 terms over 46 pairs, each repeated as given and swapped: all are
        # kept, and the state reads as the 46 summed pairs
        rng = np.random.default_rng(100)
        space = hb.HilbertSpace.of_dim(3)
        base = [random_pair(space, rng, eta) for _ in range(45)]
        base.append(nl.NoLabelPair(base[0].phi1, base[0].phi1, eta))  # parallel
        terms = []
        for k in rng.integers(0, len(base), size=160):
            p = base[k] if rng.random() < 0.5 else base[k].swapped()
            terms.append((complex(rng.standard_normal(), rng.standard_normal()), p))
        state = nl.NoLabelState(terms, eta=eta)
        assert_same_terms(state, terms)
        summed = summed_terms(terms, eta)
        assert len(summed) <= len(base)
        assert_reads_as(state, summed, rng)

    def test_large_state_memory(self):
        # T = 4000 terms in d = 4: one T x T float64 array is 128 MB; the
        # construction stays within 8 MiB
        rng = np.random.default_rng(4000)
        space = hb.HilbertSpace.of_dim(4)
        base = [random_pair(space, rng, nl.FERMION) for _ in range(3000)]
        repeats = rng.integers(0, len(base), size=1000)
        terms = [(1.0, p) for p in base] + [(0.5j, base[k].swapped()) for k in repeats]
        tracemalloc.start()
        try:
            state = nl.NoLabelState(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert_same_terms(state, terms)


class TestCancellation:
    """Copies of terms against the state of the summed coefficients."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(raw=raw_states(), data=st.data())
    def test_copies_read_as_summed_coefficients(self, raw, data):
        # repeated, swapped and negated copies scaled by 1e3 or 1e6, some
        # cancelled by their negation, round at about eps (sum |c|)^2 in the
        # pairing: a reading then agrees within 1e-8 or raises; it never
        # reads 0 for a live state
        eta, space, terms, rng = raw
        scale = data.draw(st.sampled_from([1.0, 1e3, 1e6]))
        kinds = st.sampled_from(["repeat", "swap", "negate"])
        picks = st.tuples(kinds, st.integers(0, len(terms) - 1), st.booleans())
        for kind, k, cancel in data.draw(st.lists(picks, min_size=1, max_size=6)):
            c, p = terms[k]
            c *= scale
            copies = {"repeat": (c, p), "swap": (eta * c, p.swapped()), "negate": (-c, p)}
            copy = copies[kind]
            terms.append(copy)
            if cancel:
                terms.append((-copy[0], copy[1]))
        state = nl.NoLabelState(terms, eta=eta)
        summed = nl.NoLabelState(summed_terms(terms, eta), eta=eta)
        tol = 1e-12 if scale == 1.0 else 1e-8
        d = space.dim
        probe = random_ket(space, rng)
        basis = random_isometry(d, int(rng.integers(1, d + 1)), rng)
        kets = [hb.Ket(space, v) for v in basis.T]
        if not len(summed.coefficients) or summed.is_null():
            if scale == 1.0:
                assert_reads_null(state, kets)
            for call in (state.normalized, lambda: nl.entanglement_entropy(state, kets)):
                with pytest.raises(IdsepError):
                    call()
            return
        # linear readings: rounding of about eps sum |c|, far below 1e-8
        other = nl.NoLabelState([(1.0, random_pair(space, rng, eta))])
        want = nl.nl_inner(other, summed)
        assert abs(nl.nl_inner(other, state) - want) <= tol * max(1.0, abs(want))
        for read in (nl.to_first_quantized, lambda s: nl.reduce_to_one_particle(probe, s)):
            want = read(summed).amplitudes
            got = read(state).amplitudes
            assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())
        # normalized readings: agree, or raise where the rounding could show
        a = hb.OperatorMatrix(space, random_hermitian(d, rng))
        for read in (
            lambda s: nl.extended_expectation(s, a),
            lambda s: nl.entanglement_entropy(s.normalized(), kets),
        ):
            try:
                want = read(summed)
            except IdsepError:
                with pytest.raises(IdsepError):
                    read(state)
                continue
            try:
                got = read(state)
            except IdsepError:
                assert scale > 1.0
                continue
            assert abs(got - want) <= tol

    @pytest.mark.parametrize("eta", [nl.BOSON, nl.FERMION])
    def test_near_parallel_constituents(self, eta):
        # one entry of 1e6 makes both constituents nearly parallel: for
        # fermions the pairing cancels to about 1e-12 of its terms, and the
        # extended expectation was off by up to 3e-3; it now raises
        rng = np.random.default_rng(7)
        space = hb.HilbertSpace.of_dim(4)
        big = np.array([1e6, 1.0, 1.0, 1.0])
        raised = 0
        for _ in range(20):
            u, v = big * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
            pair = nl.NoLabelPair(hb.Ket(space, u), hb.Ket(space, v), eta)
            state = nl.NoLabelState.from_pair(pair)
            a = hb.OperatorMatrix(space, random_hermitian(4, rng))
            psi = (np.outer(u, v) + eta * np.outer(v, u)).ravel()
            lifted = nl.extend_operator_matrix(a).matrix @ psi
            want = (np.vdot(psi, lifted) / np.vdot(psi, psi)).real
            try:
                got = nl.extended_expectation(state, a)
            except NormalizationError:
                raised += 1
                continue
            assert abs(got - want) <= 1e-8
        assert raised == (20 if eta == nl.FERMION else 0)
