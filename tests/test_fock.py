import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from idsep import algebra, fock
from idsep.errors import CutoffError, NonFiniteError, OccupationRangeError
from idsep.hilbert import Ket, basis_ket


def random_mode_vector(space, rng):
    amps = rng.standard_normal(space.modes) + 1j * rng.standard_normal(space.modes)
    return Ket(space.mode_space, amps / np.linalg.norm(amps))


def test_boson_basis_enumeration():
    space = fock.FockSpace("boson", 2, 2)
    assert space.dim == 6
    assert space.occupations == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_fermion_dimension():
    space = fock.FockSpace("fermion", 2, 2)
    assert space.dim == 4
    assert space.occupations == ((0, 0), (1, 0), (0, 1), (1, 1))


@pytest.mark.parametrize("n_total", [1, 2, 3, 4])
def test_boson_sector_sizes(n_total):
    space = fock.FockSpace("boson", 2, n_total)
    top = [occ for occ in space.occupations if sum(occ) == n_total]
    assert len(top) == n_total + 1


def test_fermion_cutoff_guard():
    with pytest.raises(CutoffError):
        fock.FockSpace("fermion", 2, 3)


def test_creation_on_vacuum():
    space = fock.double_well(cutoff=3)
    e_l = basis_ket(space.mode_space, "L")
    created = fock.creation_op(space, e_l).matrix.apply(space.vacuum())
    assert_allclose(created.amplitudes, space.basis_state((1, 0)).amplitudes)


def test_double_creation_ladder_factor():
    space = fock.double_well(cutoff=3)
    e_l = basis_ket(space.mode_space, "L")
    c = fock.creation_op(space, e_l).matrix
    twice = c.apply(c.apply(space.vacuum()))
    expected = np.sqrt(2.0) * space.basis_state((2, 0)).amplitudes
    assert_allclose(twice.amplitudes, expected, atol=1e-12)


def test_fermionic_creation_is_nilpotent():
    space = fock.FockSpace("fermion", 3, 3)
    rng = np.random.default_rng(17)
    for _ in range(5):
        c = fock.creation_op(space, random_mode_vector(space, rng)).matrix.matrix
        assert np.abs(c @ c).max() <= 1e-12


def test_annihilation_is_adjoint_of_creation():
    space = fock.double_well(cutoff=4)
    rng = np.random.default_rng(18)
    f = random_mode_vector(space, rng)
    c = fock.creation_op(space, f).matrix.matrix
    a = fock.annihilation_op(space, f).matrix.matrix
    assert np.abs(a - c.conj().T).max() <= 1e-12


def test_vacuum_is_annihilated():
    rng = np.random.default_rng(19)
    for stats, modes, cutoff in (("boson", 2, 4), ("fermion", 3, 3)):
        space = fock.FockSpace(stats, modes, cutoff)
        vac = space.vacuum().amplitudes
        for _ in range(5):
            a = fock.annihilation_op(space, random_mode_vector(space, rng)).matrix
            assert np.linalg.norm(a.matrix @ vac) <= 1e-12
            assert np.linalg.norm(vac.conj() @ a.matrix.conj().T) <= 1e-12


class TestCanonicalRelations:
    def test_fermion_exact_on_full_space(self):
        space = fock.FockSpace("fermion", 2, 2)
        e_l = basis_ket(space.mode_space, 0)
        assert fock.check_ccr_car(space, [e_l]).max() <= 1e-12

    def test_boson_below_cutoff(self):
        space = fock.double_well(cutoff=4)
        e_l = basis_ket(space.mode_space, "L")
        # exactness holds on the sectors with at most three quanta
        assert fock.check_ccr_car(space, [e_l]).max() <= 1e-12

    def test_orthogonal_modes_commute(self):
        space = fock.double_well(cutoff=4)
        e_l = basis_ket(space.mode_space, "L")
        e_r = basis_ket(space.mode_space, "R")
        assert fock.check_ccr_car(space, [e_l, e_r]).max() <= 1e-12

    def test_random_mode_vectors(self):
        rng = np.random.default_rng(20)
        for stats, modes, cutoff in (("boson", 2, 6), ("fermion", 4, 4)):
            space = fock.FockSpace(stats, modes, cutoff)
            for _ in range(5):
                f = random_mode_vector(space, rng)
                g = random_mode_vector(space, rng)
                assert fock.check_ccr_car(space, [f, g]).max() <= 1e-10

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_bad_probe_fails_closed(self, statistics, bad):
        # a NaN probe raised LinAlgError("SVD did not converge"), and the
        # products of an inf or a huge one a bare RuntimeWarning
        space = fock.FockSpace(statistics, 2, 2)
        probes = [basis_ket(space.mode_space, 0), Ket(space.mode_space, [bad, 0])]
        with pytest.raises(NonFiniteError):
            fock.check_ccr_car(space, probes)

    @pytest.mark.parametrize("build", [fock.creation_op, fock.annihilation_op])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mode_vector_rejected(self, build, bad):
        space = fock.double_well(cutoff=3)
        with pytest.raises(NonFiniteError):
            build(space, Ket(space.mode_space, [1.0, bad]))


class TestNumberStates:
    def test_basic_occupation(self):
        space = fock.double_well(cutoff=2)
        state = fock.number_state(space, 0, 1)
        assert_allclose(state.amplitudes, space.basis_state((0, 1)).amplitudes)

    def test_ladder_oracle(self):
        # oracle: raise the vacuum explicitly and normalize by k! (N-k)!
        space = fock.double_well(cutoff=4)
        c_l = space.creation_matrix(0)
        c_r = space.creation_matrix(1)
        vec = space.vacuum().amplitudes
        for _ in range(2):
            vec = c_l @ vec
        vec = c_r @ vec
        vec /= np.sqrt(math.factorial(2) * math.factorial(1))
        state = fock.number_state(space, 2, 3)
        assert_allclose(state.amplitudes, vec, atol=1e-12)
        assert abs(state.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_left_number_expectation(self, k):
        space = fock.double_well(cutoff=4)
        state = fock.number_state(space, k, 3)
        c_l = space.creation_matrix(0)
        adag_a = c_l @ c_l.conj().T
        assert abs(np.vdot(state.amplitudes, adag_a @ state.amplitudes) - k) <= 1e-12

    def test_range_errors(self):
        space = fock.double_well(cutoff=2)
        with pytest.raises(OccupationRangeError):
            fock.number_state(space, 3, 2)
        with pytest.raises(OccupationRangeError):
            fock.number_state(space, 0, 5)


class TestBogoliubov:
    def test_symmetric_mode_creation(self):
        space = fock.double_well(cutoff=3)
        b_plus, _ = fock.bogoliubov_modes(space)
        created = b_plus.matrix.dagger().apply(space.vacuum())
        expected = (
            space.basis_state((1, 0)).amplitudes + space.basis_state((0, 1)).amplitudes
        ) / np.sqrt(2.0)
        assert_allclose(created.amplitudes, expected, atol=1e-12)

    def test_rotated_modes_satisfy_canonical_relations(self):
        space = fock.double_well(cutoff=5)
        b_plus, b_minus = fock.bogoliubov_modes(space)
        table = fock.check_ccr_car(space, [b_plus.mode_vector, b_minus.mode_vector])
        assert table.max() <= 1e-12

    def test_one_per_well_in_rotated_number_basis(self):
        # oracle: build rotated-mode number states with the ladder matrices
        space = fock.double_well(cutoff=4)
        b_plus, b_minus = fock.bogoliubov_modes(space)
        c_plus = b_plus.matrix.matrix.conj().T
        c_minus = b_minus.matrix.matrix.conj().T
        vac = space.vacuum().amplitudes

        def rotated_number(n_plus, n_minus):
            vec = vac
            for _ in range(n_plus):
                vec = c_plus @ vec
            for _ in range(n_minus):
                vec = c_minus @ vec
            return vec / np.sqrt(math.factorial(n_plus) * math.factorial(n_minus))

        expected = (rotated_number(2, 0) - rotated_number(0, 2)) / np.sqrt(2.0)
        state = fock.number_state(space, 1, 2)
        assert_allclose(state.amplitudes, expected, atol=1e-12)


class TestSpatialFactorization:
    def test_number_state_polynomial_identity(self):
        from idsep.cases import number_state_polynomial_check

        n_total = 2
        space = fock.double_well(cutoff=n_total + 3)
        for k in range(n_total + 1):
            deviations, _ = number_state_polynomial_check(
                space, k, n_total, count=20, degree=3, seed=123
            )
            assert deviations.max() <= 1e-8

    def test_left_right_words_commute_on_exact_sectors(self):
        space = fock.double_well(cutoff=8)
        rng = np.random.default_rng(21)
        a_l = space.creation_matrix(0).conj().T
        c_l = space.creation_matrix(0)
        a_r = space.creation_matrix(1).conj().T
        c_r = space.creation_matrix(1)
        for _ in range(10):
            deg_l, deg_r = rng.integers(1, 4), rng.integers(1, 4)
            p = np.eye(space.dim, dtype=complex)
            for _ in range(deg_l):
                p = p @ (a_l if rng.random() < 0.5 else c_l)
            q = np.eye(space.dim, dtype=complex)
            for _ in range(deg_r):
                q = q @ (a_r if rng.random() < 0.5 else c_r)
            mask = space.exact_mask(int(deg_l + deg_r))
            comm = (p @ q - q @ p)[:, mask]
            assert np.linalg.norm(comm, 2) <= 1e-10

    def test_sampled_converse_product_states_factorize(self):
        # sampled check (not a proof): states built by left-creation times
        # right-creation polynomials on the vacuum factorize spatially
        space = fock.double_well(cutoff=8)
        rng = np.random.default_rng(22)
        c_l = space.creation_matrix(0)
        c_r = space.creation_matrix(1)
        e_l = basis_ket(space.mode_space, 0)
        e_r = basis_ket(space.mode_space, 1)
        left_alg = algebra.generate([fock.annihilation_op(space, e_l).matrix], 2)
        right_alg = algebra.generate([fock.annihilation_op(space, e_r).matrix], 2)
        for _ in range(5):
            poly_l = sum(
                rng.standard_normal() * np.linalg.matrix_power(c_l, n)
                for n in range(3)
            )
            poly_r = sum(
                rng.standard_normal() * np.linalg.matrix_power(c_r, n)
                for n in range(3)
            )
            vec = poly_l @ poly_r @ space.vacuum().amplitudes
            state = Ket(space.hilbert, vec / np.linalg.norm(vec))
            report = algebra.factorization_test(
                state, left_alg, right_alg, exact_mask=space.exact_mask
            )
            assert report.verdict == algebra.VERDICT_SEPARABLE
