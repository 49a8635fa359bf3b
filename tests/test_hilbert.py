import numpy as np
import pytest
from numpy.testing import assert_allclose

from idsep import algebra
from idsep import hilbert as hb
from idsep import nolabel as nl
from idsep.errors import (
    DimensionMismatch,
    NonFiniteError,
    NormalizationError,
    NotPositiveSemidefinite,
    TraceError,
)

SQ2 = np.sqrt(2.0)


def random_ket(space, rng):
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return hb.Ket(space, amps).normalized()


def random_op(dim, rng, hermitian=False):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if hermitian:
        mat = 0.5 * (mat + mat.conj().T)
    return hb.OperatorMatrix(hb.HilbertSpace.of_dim(dim), mat)


class TestKet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_normalized_rejects_non_finite_norm(self, bad):
        # a NaN amplitude gave an all-NaN ket; a norm that overflows gave zeros
        ket = hb.Ket(hb.HilbertSpace.of_dim(4), [1, bad, bad, 0])
        with np.errstate(over="ignore"), pytest.raises(NormalizationError):
            ket.normalized()


class TestTensorProducts:
    def test_basis_kron(self):
        q = hb.qubit()
        out = hb.tensor_ket(hb.basis_ket(q, 0), hb.basis_ket(q, 1))
        assert_allclose(out.amplitudes, [0, 1, 0, 0])

    def test_plus_plus(self):
        q = hb.qubit()
        plus = hb.Ket(q, [1 / SQ2, 1 / SQ2])
        out = hb.tensor_ket(plus, plus)
        assert_allclose(out.amplitudes, np.full(4, 0.25) * 2)

    def test_bell_state_built_by_hand(self):
        q = hb.qubit()
        zero, one = hb.basis_ket(q, 0), hb.basis_ket(q, 1)
        built = (hb.tensor_ket(zero, one) + hb.tensor_ket(one, zero)) / SQ2
        assert_allclose(built.amplitudes, hb.bell_states()["psi_plus"].amplitudes)

    def test_tensor_op_identity(self):
        eye = hb.identity_op(hb.qubit())
        assert_allclose(hb.tensor_op(eye, eye).matrix, np.eye(4))

    def test_tensor_op_acts_factorwise(self):
        rng = np.random.default_rng(7)
        a, b = random_op(2, rng), random_op(3, rng)
        v = random_ket(hb.HilbertSpace.of_dim(2), rng)
        w = random_ket(hb.HilbertSpace.of_dim(3), rng)
        lhs = hb.tensor_op(a, b).apply(hb.tensor_ket(v, w))
        rhs = hb.tensor_ket(a.apply(v), b.apply(w))
        assert_allclose(lhs.amplitudes, rhs.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 3)])
    def test_kron_bilinearity(self, d1, d2):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, c = random_op(d1, rng), random_op(d1, rng)
            b, d = random_op(d2, rng), random_op(d2, rng)
            lhs = (hb.tensor_op(a, b) @ hb.tensor_op(c, d)).matrix
            rhs = hb.tensor_op(a @ c, b @ d).matrix
            assert np.abs(lhs - rhs).max() <= 1e-10


class TestOperatorMatrix:
    def test_hermitian_assertion(self):
        space = hb.HilbertSpace.of_dim(2)
        assert hb.OperatorMatrix(space, [[1, 2], [2, 0]]).is_hermitian()
        assert not hb.OperatorMatrix(space, [[1, 2], [3, 0]]).is_hermitian()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_hermitian_assertion_rejects_non_finite(self, bad):
        # a NaN or inf entry raises before A - A^dag is formed (inf - inf
        # would be NaN, with a RuntimeWarning)
        op = hb.OperatorMatrix(hb.HilbertSpace.of_dim(2), np.diag([1.0, bad]))
        with pytest.raises(NonFiniteError):
            op.is_hermitian()

    @pytest.mark.parametrize("matrix", [
        [[0, 1e308], [-1e308, 0]],
        [[1e308 + 1e308j, 0], [0, 1]],
    ])
    def test_overflowing_asymmetry_is_not_hermitian(self, matrix):
        # finite entries whose A - A^dag overflows raised a bare
        # RuntimeWarning("overflow encountered in subtract")
        op = hb.OperatorMatrix(hb.HilbertSpace.of_dim(2), matrix)
        assert op.is_hermitian() is False

    def test_shape_guards(self):
        space = hb.HilbertSpace.of_dim(2)
        with pytest.raises(DimensionMismatch):
            hb.OperatorMatrix(space, np.eye(3))
        with pytest.raises(DimensionMismatch):
            hb.OperatorMatrix(space, np.ones((2, 3)))


class TestSchmidt:
    def test_product_state_rank_one(self):
        q = hb.qubit()
        state = hb.tensor_ket(hb.basis_ket(q, 0), hb.basis_ket(q, 1))
        form = hb.schmidt_decompose(state, 2, 2)
        assert_allclose(form.coefficients, [1.0, 0.0], atol=1e-12)

    def test_bell_coefficients(self):
        form = hb.schmidt_decompose(hb.bell_states()["psi_plus"], 2, 2)
        assert_allclose(form.coefficients, [1 / SQ2, 1 / SQ2], atol=1e-12)

    def test_random_3x3_matches_singular_values(self):
        # oracle: singular values of the reshaped amplitude matrix
        rng = np.random.default_rng(5)
        state = random_ket(hb.HilbertSpace.of_dim(9), rng)
        expected = np.linalg.svd(state.amplitudes.reshape(3, 3), compute_uv=False)
        form = hb.schmidt_decompose(state, 3, 3)
        assert_allclose(form.coefficients, expected, atol=1e-12)

    def test_reconstruction_on_random_kets(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            d1, d2 = rng.integers(2, 5), rng.integers(2, 5)
            state = random_ket(hb.HilbertSpace.of_dim(int(d1 * d2)), rng)
            form = hb.schmidt_decompose(state, int(d1), int(d2))
            err = np.linalg.norm(form.reconstruct_amplitudes() - state.amplitudes)
            assert err <= 1e-10
            assert np.all(np.diff(form.coefficients) <= 1e-12)  # descending

    def test_vectors_orthonormal(self):
        rng = np.random.default_rng(6)
        form = hb.schmidt_decompose(random_ket(hb.HilbertSpace.of_dim(12), rng), 3, 4)
        for vecs in (form.left_vectors, form.right_vectors):
            gram = np.array([[u.inner(v) for v in vecs] for u in vecs])
            assert np.abs(gram - np.eye(len(vecs))).max() <= 1e-10

    def test_rejects_unnormalized(self):
        state = hb.Ket(hb.HilbertSpace.of_dim(4), [1, 1, 0, 0])
        with pytest.raises(NormalizationError):
            hb.schmidt_decompose(state, 2, 2)

    def test_rejects_bad_split(self):
        state = hb.Ket(hb.HilbertSpace.of_dim(4), [1, 0, 0, 0])
        with pytest.raises(DimensionMismatch):
            hb.schmidt_decompose(state, 3, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        state = hb.Ket(hb.HilbertSpace.of_dim(4), [bad, 0, 0, 0])
        with pytest.raises(NormalizationError):
            hb.schmidt_decompose(state, 2, 2)


class TestSeparability:
    """A pure state is a product across the split exactly when its second
    Schmidt coefficient vanishes."""

    def test_product_state(self):
        q = hb.qubit()
        state = hb.tensor_ket(hb.basis_ket(q, 0), hb.basis_ket(q, 0))
        assert_allclose(hb.schmidt_decompose(state, 2, 2).coefficients, [1, 0], atol=1e-12)

    def test_all_bell_states_entangled(self):
        for name, state in hb.bell_states().items():
            form = hb.schmidt_decompose(state, 2, 2)
            assert_allclose(form.coefficients, [1 / SQ2, 1 / SQ2], atol=1e-12, err_msg=name)

    def test_rotated_product(self):
        q = hb.qubit()
        zero, one = hb.basis_ket(q, 0), hb.basis_ket(q, 1)
        theta = 0.0
        state = np.cos(theta) * hb.tensor_ket(zero, zero) + np.sin(
            theta
        ) * hb.tensor_ket(one, one)
        assert hb.schmidt_decompose(state, 2, 2).coefficients[1] <= 1e-12


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        rho = hb.bell_states()["psi_plus"].outer()
        red = hb.partial_trace(rho, 2, 2, keep="first")
        assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_reduces_to_factor(self):
        q = hb.qubit()
        state = hb.tensor_ket(hb.basis_ket(q, 0), hb.basis_ket(q, 0))
        red = hb.partial_trace(state.outer(), 2, 2, keep="second")
        assert_allclose(red.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_symmetrized_pair_matches_overlap_formula(self):
        # the two-particle image of a symmetrized orthogonal pair reduces to
        # an equal mixture of the two constituents
        space = hb.HilbertSpace.of_dim(4)
        v0, v1 = hb.basis_ket(space, 0), hb.basis_ket(space, 1)
        state = (hb.tensor_ket(v0, v1) + hb.tensor_ket(v1, v0)) / SQ2
        red = hb.partial_trace(state.outer(), 4, 4, keep="first")
        expected = 0.5 * (v0.outer().matrix + v1.outer().matrix)
        assert np.abs(red.matrix - expected).max() <= 1e-12

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(3)
        state = random_ket(hb.HilbertSpace.of_dim(6), rng)
        red = hb.partial_trace(state.outer(), 2, 3, keep="second")
        assert abs(red.trace() - 1.0) <= 1e-10
        assert red.is_hermitian(1e-10)

    def test_product_states_reduce_pure(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = random_ket(hb.HilbertSpace.of_dim(3), rng)
            w = random_ket(hb.HilbertSpace.of_dim(4), rng)
            rho = hb.tensor_ket(v, w).outer()
            for keep in ("first", "second"):
                red = hb.partial_trace(rho, 3, 4, keep=keep)
                assert hb.von_neumann_entropy(red) <= 1e-9

    def test_rejects_bad_trace(self):
        rho = hb.OperatorMatrix(hb.HilbertSpace.of_dim(4), np.eye(4))
        with pytest.raises(TraceError):
            hb.partial_trace(rho, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        for mat in (np.full((4, 4), bad), np.diag([bad, 0, 0, 0])):
            rho = hb.OperatorMatrix(hb.HilbertSpace.of_dim(4), mat)
            with np.errstate(invalid="ignore"), pytest.raises(TraceError):
                hb.partial_trace(rho, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_off_diagonal(self, bad):
        # a unit trace with inf at (0, 3) and (3, 0): the hermiticity test
        # formed inf - inf, a RuntimeWarning or a plain ValueError
        mat = np.diag([0.25] * 4).astype(complex)
        mat[0, 3] = mat[3, 0] = bad
        rho = hb.OperatorMatrix(hb.HilbertSpace.of_dim(4), mat)
        with pytest.raises(NonFiniteError):
            hb.partial_trace(rho, 2, 2)
        state = nl.NoLabelState.from_pair(
            nl.NoLabelPair(hb.basis_ket(rho.space, 0), hb.basis_ket(rho.space, 1), nl.BOSON)
        )
        with pytest.raises(NonFiniteError):
            nl.pair_factorization_sides(state, rho, rho)


class TestEntropy:
    def test_pure_projector(self):
        rng = np.random.default_rng(8)
        rho = random_ket(hb.HilbertSpace.of_dim(5), rng).outer()
        assert hb.von_neumann_entropy(rho) <= 1e-12

    def test_rank_two_equal_mixture_is_one_bit(self):
        space = hb.HilbertSpace.of_dim(4)
        rho = 0.5 * (
            hb.basis_ket(space, 0).outer() + hb.basis_ket(space, 1).outer()
        )
        assert abs(hb.von_neumann_entropy(rho) - 1.0) <= 1e-12

    def test_maximally_mixed_two_qubits(self):
        rho = hb.OperatorMatrix(hb.HilbertSpace.of_dim(4), np.eye(4) / 4)
        assert abs(hb.von_neumann_entropy(rho) - 2.0) <= 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        space = hb.HilbertSpace.of_dim(5)
        evals = rng.random(5)
        evals /= evals.sum()
        rho = hb.OperatorMatrix(space, np.diag(evals))
        for _ in range(5):
            z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            u, _ = np.linalg.qr(z)
            rotated = hb.OperatorMatrix(space, u @ rho.matrix @ u.conj().T)
            delta = abs(
                hb.von_neumann_entropy(rotated) - hb.von_neumann_entropy(rho)
            )
            assert delta <= 1e-9

    def test_rejects_negative_eigenvalue(self):
        rho = hb.OperatorMatrix(hb.HilbertSpace.of_dim(2), [[1.5, 0], [0, -0.5]])
        with pytest.raises(NotPositiveSemidefinite):
            hb.von_neumann_entropy(rho)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        for mat in (np.full((2, 2), bad), [[0.5, 0], [0, bad]]):
            rho = hb.OperatorMatrix(hb.HilbertSpace.of_dim(2), mat)
            with pytest.raises(NotPositiveSemidefinite, match="non-finite entries"):
                hb.von_neumann_entropy(rho)


class TestExpectations:
    def test_bell_correlator(self):
        psi = hb.bell_states()["psi_plus"]
        zz = hb.tensor_op(hb.sigma_z(), hb.sigma_z())
        assert abs(hb.expectation(psi, zz) - (-1.0)) <= 1e-12

    def test_bell_marginals_vanish(self):
        psi = hb.bell_states()["psi_plus"]
        eye = hb.identity_op(hb.qubit())
        z1 = hb.tensor_op(hb.sigma_z(), eye)
        z2 = hb.tensor_op(eye, hb.sigma_z())
        assert abs(hb.expectation(psi, z1)) <= 1e-12
        assert abs(hb.expectation(psi, z2)) <= 1e-12

    def test_projector_pair_on_product_state(self):
        q = hb.qubit()
        state = hb.tensor_ket(hb.basis_ket(q, 0), hb.basis_ket(q, 0))
        states = hb.bell_states()
        plus, minus = states["phi_plus"].outer(), states["phi_minus"].outer()
        assert abs(hb.expectation(state, plus @ minus)) <= 1e-12
        product = hb.expectation(state, plus) * hb.expectation(state, minus)
        assert abs(product - 0.25) <= 1e-12

    def test_dimension_mismatch(self):
        state = hb.basis_ket(hb.qubit(), 0)
        with pytest.raises(DimensionMismatch):
            hb.expectation(state, hb.identity_op(hb.HilbertSpace.of_dim(3)))

    def test_hermitian_expectation_is_real(self):
        rng = np.random.default_rng(10)
        space = hb.HilbertSpace.of_dim(4)
        op = random_op(4, rng, hermitian=True)
        value = hb.expectation(random_ket(space, rng), op)
        assert abs(value.imag) <= 1e-10


GATED_READINGS = [
    "factorization_test", "subspace_reduced_dm", "entanglement_entropy",
    "extended_expectation", "pair_factorization_sides", "schmidt_decompose",
    "partial_trace", "von_neumann_entropy",
]


def _gated_readings():
    """One reading per entry point that validates its inputs against a
    tolerance, each on an input that only a gate of inf would let through."""
    q = hb.qubit()
    qq = q.tensor(q)
    eye = hb.identity_op(q)
    a = algebra.generate([hb.tensor_op(hb.sigma_x(), eye)], 1)
    b = algebra.generate([hb.tensor_op(eye, hb.sigma_z())], 1)
    unnormalized = hb.Ket(qq, [2, 0, 0, 0])
    e0, e1 = (hb.basis_ket(hb.HilbertSpace.of_dim(3), i) for i in range(2))
    tripled = nl.NoLabelState.from_pair(nl.NoLabelPair(e0, e1, nl.BOSON), 3.0)
    skewed = [e0, (e0 + e1) / SQ2]  # not orthonormal
    pair = nl.NoLabelState.from_pair(nl.NoLabelPair(e0, e1, nl.BOSON))
    raising = hb.OperatorMatrix(e0.space, np.diag([1.0, 1.0], k=1))  # not hermitian
    trace_three = hb.OperatorMatrix(qq, np.diag([3.0, 0, 0, 0]))
    skew = hb.OperatorMatrix(q, [[0.5, 0.9], [0.1, 0.5]])  # not hermitian
    return {
        "factorization_test": lambda tol: algebra.factorization_test(unnormalized, a, b, tol=tol),
        "subspace_reduced_dm": lambda tol: nl.subspace_reduced_dm(tripled, skewed, tol=tol),
        "entanglement_entropy": lambda tol: nl.entanglement_entropy(tripled, skewed, tol=tol),
        "extended_expectation": lambda tol: nl.extended_expectation(pair, raising, tol=tol),
        "pair_factorization_sides": lambda tol: nl.pair_factorization_sides(
            pair, raising, raising.dagger(), tol=tol
        ),
        "schmidt_decompose": lambda tol: hb.schmidt_decompose(unnormalized, 2, 2, tol=tol),
        "partial_trace": lambda tol: hb.partial_trace(trace_three, 2, 2, tol=tol),
        "von_neumann_entropy": lambda tol: hb.von_neumann_entropy(skew, tol=tol),
    }


class TestValidationGate:
    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 0.5])
    def test_floors_at_default_tol(self, tol):
        assert hb.validation_gate(tol) == max(tol, hb.DEFAULT_TOL)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("reading", GATED_READINGS)
    def test_readings_reject_bad_tolerances(self, reading, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            _gated_readings()[reading](tol)
