import dataclasses
import functools
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from idsep import algebra, cases, fock, nolabel
from idsep.errors import (
    CutoffError,
    DimensionMismatch,
    NonCommutingError,
    NonFiniteError,
    NormalizationError,
)
from idsep.hilbert import (
    HilbertSpace,
    Ket,
    OperatorMatrix,
    basis_ket,
    bell_states,
    identity_op,
    qubit,
    sigma_x,
    sigma_z,
    tensor_ket,
    tensor_op,
)


def particle_local_pair(degree_bound=4):
    eye = identity_op(qubit())
    left = algebra.generate(
        [tensor_op(sigma_x(), eye), tensor_op(sigma_z(), eye)], degree_bound
    )
    right = algebra.generate(
        [tensor_op(eye, sigma_x()), tensor_op(eye, sigma_z())], degree_bound
    )
    return left, right


def pauli_pair(degree_bound=1):
    # sigma_z and sigma_x on the same particle: [z, x] = 2iy, of norm 2
    eye = identity_op(qubit())
    a = algebra.generate([tensor_op(sigma_z(), eye)], degree_bound)
    b = algebra.generate([tensor_op(sigma_x(), eye)], degree_bound)
    return a, b


def double_well_pairs(cutoff, degree_bound, scale=1.0):
    """The spatial (a_L, a_R) and delocalized (b_+, b_-) mode-generated pairs,
    with every generator multiplied by ``scale``."""
    space = fock.double_well(cutoff)
    a_left = fock.annihilation_op(space, basis_ket(space.mode_space, 0)).matrix
    a_right = fock.annihilation_op(space, basis_ket(space.mode_space, 1)).matrix
    b_plus, b_minus = (b.matrix for b in fock.bogoliubov_modes(space))

    def pair(x, y):
        return tuple(
            algebra.generate([OperatorMatrix(g.space, scale * g.matrix)], degree_bound)
            for g in (x, y)
        )

    return space, {"spatial": pair(a_left, a_right), "delocalized": pair(b_plus, b_minus)}


def commutator_case(name):
    """(a, b, exact_mask) for the named commutator test case."""
    if name in ("spatial", "delocalized"):
        space, pairs = double_well_pairs(cutoff=8, degree_bound=3)
        return (*pairs[name], space.exact_mask)
    return (*{"particle_local": particle_local_pair, "pauli": pauli_pair}[name](), None)


def reference_commutator_norm(a, b, exact_mask=None):
    """Largest spectral norm of [x, y], one pair of raw monomial products
    (those of reference_two_pass) at a time."""
    worst = 0.0
    (mats_a, degrees_a), (mats_b, degrees_b) = reference_two_pass(a), reference_two_pass(b)
    for x, dx in zip(mats_a, degrees_a):
        for y, dy in zip(mats_b, degrees_b):
            if dx == 0 or dy == 0:
                continue
            comm = x @ y - y @ x
            if exact_mask is not None:
                mask = exact_mask(dx + dy)
                if not mask.any():
                    continue
                comm = comm[:, mask]
            worst = max(worst, float(np.linalg.norm(comm, 2)))
    return worst


def generator_pair_norms(a, b, exact_mask=None):
    """(||[g, h]|| on the columns exact_mask(2), ||g|| ||h||) for each pair of
    raw degree-1 products of reference_two_pass, one pair at a time."""
    cols = slice(None) if exact_mask is None else exact_mask(2)
    out = []
    (mats_a, degrees_a), (mats_b, degrees_b) = reference_two_pass(a), reference_two_pass(b)
    for g_mat, dg in zip(mats_a, degrees_a):
        for h_mat, dh in zip(mats_b, degrees_b):
            if dg == dh == 1:
                comm = (g_mat @ h_mat - h_mat @ g_mat)[:, cols]
                scale = np.linalg.norm(g_mat, 2) * np.linalg.norm(h_mat, 2)
                out.append((float(np.linalg.norm(comm, 2)), float(scale)))
    return out


#: the kinds of random_generator_pair
RANDOM_KINDS = ["double_well", "banded", "qubits", "real"]


def random_generator_pair(kind, commuting, cutoff, degree, rng):
    """(a, b, exact_mask): subalgebras of one random generator each on a
    truncated double well, or of one or two random generators each on two
    qubits; ``commuting`` picks orthogonal modes or local (x) 1 against
    1 (x) local, otherwise the generators are arbitrary.  The "banded" kind
    never commutes: each side is one random double-well matrix that moves
    the occupation by at most one, like a ladder operator, but whose
    commutators are not exact on exact_mask(1).  The "real" kind is "qubits"
    with real generators on the first side and, by a coin flip, on the
    second, so it draws float64 stacks and mixed real/complex pairs."""
    real_sides = (kind == "real", kind == "real" and bool(rng.integers(2)))

    def cplx(*shape, real=False):
        return rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))

    if kind == "banded":
        space = fock.double_well(cutoff)
        # unit-size entries over sqrt(dim) keep the operator norms of order one
        band = np.abs(space.totals[:, None] - space.totals[None, :]) <= 1
        band = band / np.sqrt(space.dim)
        a, b = (
            algebra.generate([OperatorMatrix(space.hilbert, band * cplx(*band.shape))], degree)
            for _ in range(2)
        )
        return a, b, space.exact_mask
    if kind == "double_well":
        space = fock.double_well(cutoff)
        f = cplx(2)
        g = np.array([-f[1].conj(), f[0].conj()]) if commuting else cplx(2)
        a, b = (
            algebra.generate(
                [fock.annihilation_op(space, Ket(space.mode_space, v)).matrix], degree
            )
            for v in (f / np.linalg.norm(f), g / np.linalg.norm(g))
        )
        return a, b, space.exact_mask
    q = qubit()
    eye = identity_op(q)
    sides = []
    for local_first, real in zip((True, False), real_sides):
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            if commuting:
                local = OperatorMatrix(q, cplx(2, 2, real=real))
                gens.append(tensor_op(local, eye) if local_first else tensor_op(eye, local))
            else:
                gens.append(OperatorMatrix(q.tensor(q), cplx(4, 4, real=real)))
        sides.append(algebra.generate(gens, degree))
    return (*sides, None)


def random_state(dim, rng, support=None):
    """A random normalized ket of dimension ``dim``, zero outside ``support``."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if support is not None:
        amps = np.where(support, amps, 0.0)
    return Ket(HilbertSpace.of_dim(dim), amps).normalized()


def scaled_copy(sub, scale):
    """``sub`` regenerated from its generators multiplied by ``scale``."""
    return algebra.generate(
        [OperatorMatrix(g.space, scale * g.matrix) for g in sub.generators], sub.degree_bound
    )


def reference_two_pass(sub):
    """(monomials, degrees) of the former two-pass dedup of ``sub``'s generators.

    The first pass is absolute: products of Frobenius norm at most DEDUP_TOL
    vanish, and a product within DEDUP_TOL of a kept one is a duplicate.  The
    second keeps the first of the monomials that agree within DEDUP_TOL once
    each is scaled to unit operator norm.
    """
    tol = algebra.DEDUP_TOL

    def is_duplicate(mat, pool):
        return any(np.linalg.norm(mat - other) <= tol for other in pool)

    gens = []
    for g in sub.generators:
        for mat in (g.matrix, g.matrix.conj().T):
            if np.linalg.norm(mat) > tol and not is_duplicate(mat, gens):
                gens.append(mat)
    monomials, degrees = [np.eye(sub.dim, dtype=np.complex128)], [0]
    frontier = monomials[:]
    for depth in range(1, sub.degree_bound + 1):
        new = []
        for word in frontier:
            for gen in gens:
                prod = word @ gen
                if np.linalg.norm(prod) > tol and not is_duplicate(prod, monomials + new):
                    new.append(prod)
        monomials += new
        degrees += [depth] * len(new)
        frontier = new
    units = [m / np.linalg.norm(m, 2) for m in monomials]
    keep = []
    for i, unit in enumerate(units):
        if not is_duplicate(unit, [units[k] for k in keep]):
            keep.append(i)
    return [monomials[i] for i in keep], [degrees[i] for i in keep]


def assert_matches_two_pass_reference(a, b, mask, rng, rows=True):
    """generate's monomials are the unit directions of the reference's kept
    products, in order, and (with ``rows``) the report's rows are the
    reference's numbers, on a random state inside the exact sector of the
    pair."""
    kept = []
    for sub in (a, b):
        mats, degrees = reference_two_pass(sub)
        assert sub.degrees == degrees
        assert len(sub.monomials) == len(mats)
        for got, want in zip(sub.monomials, mats):
            assert np.abs(got.matrix - want / np.linalg.norm(want)).max() <= 1e-12
        kept.append([m / np.linalg.norm(m, 2) for m in mats])
    if not rows:
        return
    support = None if mask is None else mask(max(a.degrees) + max(b.degrees))
    psi = random_state(a.dim, rng, support).amplitudes
    report = algebra.factorization_test(Ket(a.monomials[0].space, psi), a, b, exact_mask=mask)
    want_rows = []
    for x in kept[0]:
        for y in kept[1]:
            joint, left, right = (np.vdot(psi, m @ psi) for m in (x @ y, x, y))
            want_rows.append((joint, left, right, abs(joint - left * right)))
    assert len(report.pairs) == len(want_rows)
    for row, want in zip(report.pairs, want_rows):
        assert np.abs(np.array(row[2:]) - np.array(want)).max() <= 1e-12


def assert_matches_per_monomial_reference(a, b, mask, rng, rows=True):
    """The stacked norms are those of each monomial on its own, and (with
    ``rows``) the report's rows are a per-monomial matvec loop, on a random
    state inside the exact sector of the pair."""
    for sub in (a, b):
        assert len(sub.norms) == len(sub.monomials)
        for m, norm in zip(sub.monomials, sub.norms):
            want = np.linalg.norm(m.matrix, 2)
            assert abs(norm - want) <= 1e-15 * want
    if not rows:
        return
    support = None if mask is None else mask(max(a.degrees) + max(b.degrees))
    psi = random_state(a.dim, rng, support).amplitudes
    report = algebra.factorization_test(Ket(a.monomials[0].space, psi), a, b, exact_mask=mask)
    want_rows = []
    for i, x in enumerate(a.monomials):
        bra = psi.conj() @ x.matrix / np.linalg.norm(x.matrix, 2)
        for j, y in enumerate(b.monomials):
            ket = y.matrix @ psi / np.linalg.norm(y.matrix, 2)
            joint, left, right = bra @ ket, bra @ psi, psi.conj() @ ket
            want_rows.append((f"A.m{i}", f"B.m{j}", joint, left, right, abs(joint - left * right)))
    assert [row[:2] for row in report.pairs] == [row[:2] for row in want_rows]
    got = np.array([row[2:] for row in report.pairs])
    assert np.abs(got - np.array([row[2:] for row in want_rows])).max() <= 1e-14


#: the subalgebra pairs the case registry tests, doubled Pauli generators,
#: whose powers the first pass kept and the second dropped, and a real side
#: against a complex one
REFERENCE_PAIRS = [
    "particle_local", "bell", "spatial", "delocalized", "extended_balanced",
    "extended_levels", "doubled_paulis", "mixed",
]

#: the registry's pairs, all of real generators
REAL_PAIRS = [name for name in REFERENCE_PAIRS if name not in ("doubled_paulis", "mixed")]


def complex_pauli():
    """sigma_x + i sigma_z, a complex generator that is not hermitian."""
    return OperatorMatrix(qubit(), sigma_x().matrix + 1j * sigma_z().matrix)


def reference_pair(name):
    """(a, b, exact_mask) of one of REFERENCE_PAIRS."""
    if name == "doubled_paulis":
        eye = identity_op(qubit())
        a = algebra.generate([2.0 * tensor_op(sigma_z(), eye)], 3)
        return a, algebra.generate([2.0 * tensor_op(eye, sigma_x())], 3), None
    if name == "mixed":
        eye = identity_op(qubit())
        a = algebra.generate([tensor_op(sigma_x(), eye), tensor_op(sigma_z(), eye)], 3)
        return a, algebra.generate([tensor_op(eye, complex_pauli())], 3), None
    if name == "particle_local":
        return (*cases._particle_local_pair(), None)
    if name == "bell":
        return (*algebra.bell_subalgebras(), None)
    if name in ("spatial", "delocalized"):
        space, _ = cases._one_per_well()
        return (*cases._mode_pair(space, name == "delocalized"), space.exact_mask)
    _, (l0, l1) = cases._left_well()
    balanced = name == "extended_balanced"
    ops = cases._balanced_projectors(l0, l1) if balanced else (l0.outer(), l1.outer())
    return (*(algebra.generate([nolabel.extend_operator_matrix(op)], 2) for op in ops), None)


TWO_QUBIT_PAIRS = {"particle_local": particle_local_pair, "bell": algebra.bell_subalgebras}


@functools.cache
def prepared_pair(name):
    """One pair object per name, reused by every call that asks for it."""
    return TWO_QUBIT_PAIRS[name]()


COMMUTATOR_CASES = ["spatial", "delocalized", "particle_local", "pauli"]

#: generator scales for the scale-freeness tests
SCALES = [1e-8, 1e-4, 1.0, 1e2, 1e4, 1e8]


def scale_case(name, scale):
    """(state, pair, exact_mask, monomial counts) with every generator
    multiplied by ``scale``: the one-per-well state over the delocalized pair
    at cutoff 10, or psi+ over sigma_z (x) 1 and 1 (x) sigma_z, degree 2."""
    if name == "delocalized":
        space, pairs = double_well_pairs(cutoff=10, degree_bound=2, scale=scale)
        return fock.number_state(space, 1, 2), pairs[name], space.exact_mask, [7, 7]
    eye = identity_op(qubit())
    gens = (tensor_op(sigma_z(), eye), tensor_op(eye, sigma_z()))
    pair = tuple(algebra.generate([scale * g], 2) for g in gens)
    return bell_states()["psi_plus"], pair, None, [2, 2]


def monomial_set_contains(subalgebra, target, tol=1e-10):
    """Whether a monomial is the unit direction of ``target``."""
    unit = target.matrix / np.linalg.norm(target.matrix)
    return any(np.abs(m.matrix - unit).max() <= tol for m in subalgebra.monomials)


class TestGenerate:
    def test_projector_collapses_to_two_monomials(self):
        p = basis_ket(qubit(), 0).outer()
        sub = algebra.generate([p], 3)
        assert len(sub.monomials) == 2  # identity and the projector itself

    def test_orthogonal_bell_projectors(self):
        # oracle: explicit matrix products; the two projectors are orthogonal
        # so their product vanishes and is dropped
        states = bell_states()
        p_phi = states["phi_plus"].outer()
        p_psi = states["psi_plus"].outer()
        assert np.abs((p_phi @ p_psi).matrix).max() <= 1e-12
        sub = algebra.generate([p_phi, p_psi], 2)
        assert len(sub.monomials) == 3
        assert monomial_set_contains(sub, p_phi)
        assert monomial_set_contains(sub, p_psi)

    def test_ladder_pair_contains_number_operator(self):
        from idsep import fock

        space = fock.double_well(cutoff=3)
        e_l = basis_ket(space.mode_space, "L")
        a = fock.annihilation_op(space, e_l).matrix
        sub = algebra.generate([a], 2)
        number_op = a.dagger() @ a
        assert monomial_set_contains(sub, number_op)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            algebra.generate([sigma_z(), identity_op(HilbertSpace.of_dim(3))], 2)

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, pytest.param(complex(0, np.nan), id="nanj")]
    )
    def test_rejects_non_finite_generator(self, value):
        # a dropped NaN generator would leave the identity-only algebra, which
        # factorizes on every state; a NaN imaginary part keeps the stack
        # complex, so the finiteness check sees it
        bad = OperatorMatrix(HilbertSpace.of_dim(4), np.full((4, 4), value))
        with pytest.raises(NonFiniteError):
            algebra.generate([bad], 2)
        with pytest.raises(NonFiniteError):
            algebra.generate([identity_op(HilbertSpace.of_dim(4)), bad], 2)

    def test_exact_zero_products_are_dropped(self):
        # at scale 1 sigma_+ sigma_+ = 0 vanishes well inside the normal range,
        # and a zero generator contributes no letter, so neither fails closed
        plus = OperatorMatrix(qubit(), [[0.0, 1.0], [0.0, 0.0]])
        sub = algebra.generate([plus], 2)
        assert sub.degrees == [0, 1, 1, 2, 2]  # 1, s+, s-, s+ s-, s- s+
        zero = algebra.generate([OperatorMatrix(qubit(), np.zeros((2, 2)))], 2)
        assert zero.degrees == [0]

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("eps, kept", [(2e-10, True), (5e-11, False)])
    def test_vanish_test_is_relative(self, eps, kept, scale):
        # E12 (E11 + eps E23) = eps E13 has relative Frobenius norm eps, and no
        # other product of degree 2 points along E13: it is kept above
        # DEDUP_TOL and dropped below it, at any scale
        space, e = HilbertSpace.of_dim(3), np.eye(3)
        gens = [np.outer(e[0], e[1]), np.outer(e[0], e[0]) + eps * np.outer(e[1], e[2])]
        sub = algebra.generate([OperatorMatrix(space, scale * g) for g in gens], 2)
        assert monomial_set_contains(sub, OperatorMatrix(space, np.outer(e[0], e[2]))) == kept

    @pytest.mark.parametrize("name", REFERENCE_PAIRS)
    def test_matches_two_pass_reference(self, name):
        assert_matches_two_pass_reference(*reference_pair(name), np.random.default_rng(5))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(RANDOM_KINDS),
        commuting=st.booleans(),
        cutoff=st.integers(6, 10),
        degree=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_two_pass_reference_on_random_pairs(
        self, kind, commuting, cutoff, degree, seed
    ):
        # at scale 1 the one relative dedup keeps what the two passes kept; the
        # report's rows are compared wherever the pair commutes
        rng = np.random.default_rng(seed)
        a, b, mask = random_generator_pair(kind, commuting, cutoff, degree, rng)
        rows = commuting and kind != "banded"
        assert_matches_two_pass_reference(a, b, mask, rng, rows=rows)


class TestStack:
    @pytest.mark.parametrize("name", REAL_PAIRS)
    def test_real_generators_give_real_stacks(self, name):
        for sub in reference_pair(name)[:2]:
            assert sub.stack.dtype == np.float64
            assert all(m.matrix.dtype == np.float64 for m in sub.monomials)

    def test_complex_generators_keep_complex_stacks(self):
        # each row is the direction of its product taken in complex arithmetic
        a, b, _ = reference_pair("mixed")
        assert a.stack.dtype == np.float64 and b.stack.dtype == np.complex128
        want, _ = reference_two_pass(b)
        assert len(want) == len(b.stack)
        for got, row in zip(b.stack, want):
            assert np.abs(got - row / np.linalg.norm(row)).max() <= 1e-12

    def test_generators_are_frozen_copies(self):
        eye = identity_op(qubit())
        given = tensor_op(sigma_x(), eye)
        sub = algebra.generate([given], 1)
        given.matrix[:] = tensor_op(sigma_z(), eye).matrix
        (frozen,) = sub.generators
        assert frozen.matrix.dtype == np.complex128
        assert np.array_equal(frozen.matrix / 2, sub.stack[1])  # ||sigma_x (x) 1||_F = 2
        assert np.array_equal(frozen.matrix, tensor_op(sigma_x(), eye).matrix)
        with pytest.raises(ValueError):
            frozen.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("name", REFERENCE_PAIRS)
    def test_monomials_are_read_only_views_of_one_stack(self, name):
        for sub in reference_pair(name)[:2]:
            assert not sub.stack.flags.writeable
            assert sub.stack.shape == (len(sub.degrees), sub.dim, sub.dim)
            for i, m in enumerate(sub.monomials):
                assert np.shares_memory(m.matrix, sub.stack[i])
                with pytest.raises(ValueError):
                    m.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("field", ["stack", "norms"])
    def test_subalgebra_is_frozen(self, field):
        sub = reference_pair("particle_local")[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sub, field, getattr(sub, field).copy())
        assert not getattr(sub, field).flags.writeable

    @pytest.mark.parametrize("name", REFERENCE_PAIRS)
    def test_matches_per_monomial_reference(self, name):
        assert_matches_per_monomial_reference(*reference_pair(name), np.random.default_rng(9))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(RANDOM_KINDS),
        commuting=st.booleans(),
        cutoff=st.integers(6, 10),
        degree=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_monomial_reference_on_random_pairs(
        self, kind, commuting, cutoff, degree, seed
    ):
        rng = np.random.default_rng(seed)
        a, b, mask = random_generator_pair(kind, commuting, cutoff, degree, rng)
        rows = commuting and kind != "banded"
        assert_matches_per_monomial_reference(a, b, mask, rng, rows=rows)


def count_svds(monkeypatch):
    """A list that grows by one per np.linalg.svd call, direct or through
    np.linalg.norm, for as long as ``monkeypatch`` holds."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    # np.linalg.norm calls the svd of the module that defines it: _linalg
    # from numpy 2, linalg before
    for module in (np.linalg, getattr(np.linalg, "_linalg", None) or np.linalg.linalg):
        monkeypatch.setattr(module, "svd", counted)
    return calls


class TestOperatorNorms:
    @pytest.mark.parametrize("delocalized,svds", [(False, 0), (True, 2)])
    def test_svds_of_a_fresh_pair(self, monkeypatch, delocalized, svds):
        # every monomial and commutator of the spatial pair has at most one
        # nonzero per row and column, so its norm is its largest modulus; the
        # delocalized monomials take one batched SVD per generate (and their
        # generator commutators vanish on the exact sector, so they take none)
        space = fock.double_well(8)
        if delocalized:
            generators = [b.matrix for b in fock.bogoliubov_modes(space)]
        else:
            generators = [
                fock.annihilation_op(space, basis_ket(space.mode_space, i)).matrix for i in (0, 1)
            ]
        calls = count_svds(monkeypatch)
        a, b = (algebra.generate([g], 3) for g in generators)
        algebra.subalgebras_commute(a, b, exact_mask=space.exact_mask)
        assert len(calls) == svds


class TestCommutation:
    def test_particle_local_pair_commutes(self):
        left, right = particle_local_pair()
        assert algebra.subalgebras_commute(left, right) <= 1e-12

    def test_bell_subalgebras_commute(self):
        plus, minus = algebra.bell_subalgebras()
        assert algebra.subalgebras_commute(plus, minus) <= 1e-12
        # each side is internally commutative as well
        assert algebra.subalgebras_commute(plus, plus) <= 1e-12
        assert algebra.subalgebras_commute(minus, minus) <= 1e-12

    def test_pauli_pair_commutator_norm(self):
        eye = identity_op(qubit())
        a = algebra.generate([tensor_op(sigma_z(), eye)], 1)
        b = algebra.generate([tensor_op(sigma_x(), eye)], 1)
        assert abs(algebra.subalgebras_commute(a, b) - 2.0) <= 1e-12

    @pytest.mark.parametrize("name", COMMUTATOR_CASES)
    def test_matches_per_pair_reference(self, name):
        a, b, mask = commutator_case(name)
        expected = reference_commutator_norm(a, b, mask)
        assert abs(algebra.subalgebras_commute(a, b, mask) - expected) <= 1e-12

    @pytest.mark.parametrize("name", COMMUTATOR_CASES)
    def test_swap_symmetric(self, name):
        a, b, mask = commutator_case(name)
        forward = algebra.subalgebras_commute(a, b, mask)
        assert abs(algebra.subalgebras_commute(b, a, mask) - forward) <= 1e-12

    def test_cached_norm_is_per_partner(self):
        a, clashing = pauli_pair()
        commuting = algebra.generate([tensor_op(identity_op(qubit()), sigma_x())], 1)
        for b, expected in ((commuting, 0.0), (clashing, 2.0), (commuting, 0.0)):
            assert abs(reference_commutator_norm(a, b) - expected) <= 1e-12
            assert abs(algebra.subalgebras_commute(a, b) - expected) <= 1e-12

    def test_cached_norm_is_per_exact_mask(self):
        # truncation breaks [a_L, a_R^+] = 0 on the top sector only, so the same
        # pair fails closed on the whole space and commutes on the exact one
        space, pairs = double_well_pairs(cutoff=8, degree_bound=3)
        a, b = pairs["spatial"]
        whole, exact = (
            max(comm / scale for comm, scale in generator_pair_norms(a, b, mask))
            for mask in (None, space.exact_mask)
        )
        assert whole > 1e-9 and exact <= 1e-12
        assert reference_commutator_norm(a, b) > 1e-9
        assert reference_commutator_norm(a, b, space.exact_mask) <= 1e-12
        for mask, expected in ((None, whole), (space.exact_mask, exact), (None, whole)):
            assert abs(algebra.subalgebras_commute(a, b, mask) - expected) <= 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(RANDOM_KINDS),
        commuting=st.booleans(),
        cutoff=st.integers(6, 10),
        degree=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generator_pairs_bound_every_monomial_pair(
        self, kind, commuting, cutoff, degree, seed
    ):
        a, b, mask = random_generator_pair(
            kind, commuting, cutoff, degree, np.random.default_rng(seed)
        )
        value = algebra.subalgebras_commute(a, b, mask)
        pairs = generator_pair_norms(a, b, mask)
        relative = [comm / scale for comm, scale in pairs]
        assert abs(value - max(relative)) <= 1e-12
        # the docstring bound, ||[x, y]|| <= k m c G^k H^m for degrees k and m,
        # with G and H the largest raw generator norms, against every pair of
        # raw monomial products
        big_g, big_h = (
            max(np.linalg.norm(m, 2) for m, d in zip(*reference_two_pass(s)) if d == 1)
            for s in (a, b)
        )
        bound = max(
            k * m * value * big_g**k * big_h**m
            for k in set(a.degrees) - {0}
            for m in set(b.degrees) - {0}
        )
        reference = reference_commutator_norm(a, b, mask)
        assert reference <= bound + 1e-12
        # and they fail closed together: a generator pair is a monomial pair
        if value > 1e-9:
            assert reference > 1e-9 * pairs[int(np.argmax(relative))][1]
        if commuting and kind != "banded":
            assert value <= 1e-12

    def test_cache_keeps_no_partner_alive(self):
        a, b = particle_local_pair()
        algebra.subalgebras_commute(a, b)
        algebra.subalgebras_commute(a, a)
        partner, own = weakref.ref(b), weakref.ref(a)
        del a, b
        assert partner() is None and own() is None

    @pytest.mark.parametrize("masked", [False, True])
    def test_odd_fermion_algebras_fail_closed(self, masked):
        # a_L and a_R anticommute, so [a_L, a_R] = 2 a_L a_R, of norm 2
        space = fock.FockSpace("fermion", 2, 2)
        a, b = (
            algebra.generate(
                [fock.annihilation_op(space, basis_ket(space.mode_space, i)).matrix], 1
            )
            for i in (0, 1)
        )
        mask = space.exact_mask if masked else None
        assert abs(algebra.subalgebras_commute(a, b, mask) - 2.0) <= 1e-12
        with pytest.raises(NonCommutingError):
            algebra.factorization_test(space.vacuum(), a, b, exact_mask=mask)

    def test_noncommuting_pair_rejected_on_every_call(self):
        a, b = pauli_pair()
        state = bell_states()["psi_plus"]
        for _ in range(2):
            with pytest.raises(NonCommutingError):
                algebra.factorization_test(state, a, b)


class TestBellSubalgebras:
    def test_projector_expansion(self):
        # the phi-plus projector written out as a sum of tensor products
        states = bell_states()
        q = qubit()
        zero, one = basis_ket(q, 0), basis_ket(q, 1)
        expansion = 0.5 * (
            tensor_op(zero.outer(), zero.outer()).matrix
            + tensor_op(one.outer(), one.outer()).matrix
            + tensor_op(zero.outer(one), zero.outer(one)).matrix
            + tensor_op(one.outer(zero), one.outer(zero)).matrix
        )
        assert_allclose(states["phi_plus"].outer().matrix, expansion, atol=1e-12)

    def test_monomial_content(self):
        plus, _ = algebra.bell_subalgebras()
        states = bell_states()
        assert monomial_set_contains(plus, states["psi_plus"].outer())
        assert monomial_set_contains(plus, states["phi_plus"].outer())
        assert len(plus.monomials) == 3

    def test_cross_projector_expectations(self):
        # oracle: direct matrix evaluation on the symmetric Bell state
        states = bell_states()
        psi = states["psi_plus"]
        p_plus = states["psi_plus"].outer()
        p_minus = states["psi_minus"].outer()
        joint = np.vdot(psi.amplitudes, (p_plus @ p_minus).matrix @ psi.amplitudes)
        marg = np.vdot(psi.amplitudes, p_plus.matrix @ psi.amplitudes) * np.vdot(
            psi.amplitudes, p_minus.matrix @ psi.amplitudes
        )
        assert abs(joint) <= 1e-12
        assert abs(marg) <= 1e-12


class TestFactorizationTest:
    def test_product_state_is_particle_locally_separable(self):
        q = qubit()
        state = tensor_ket(basis_ket(q, 0), basis_ket(q, 0))
        left, right = particle_local_pair()
        report = algebra.factorization_test(state, left, right)
        assert report.verdict == algebra.VERDICT_SEPARABLE
        assert report.max_violation <= 1e-9
        # ... and every single pair row stays below tolerance
        assert max(row[5] for row in report.pairs) <= 1e-9

    def test_product_state_fails_on_bell_projectors(self):
        q = qubit()
        state = tensor_ket(basis_ket(q, 0), basis_ket(q, 0))
        plus, minus = algebra.bell_subalgebras()
        report = algebra.factorization_test(state, plus, minus)
        assert report.verdict == algebra.VERDICT_ENTANGLED
        assert report.max_violation >= 0.25 - 1e-12
        # the monomial witness is the (phi-plus, phi-minus) projector pair
        mono_rows = [
            row for row in report.pairs if ".m" in row[0] and ".m" in row[1]
        ]
        assert max(row[5] for row in mono_rows) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("name", ["psi_plus", "psi_minus", "phi_plus", "phi_minus"])
    def test_bell_states_separable_for_bell_projectors(self, name):
        state = bell_states()[name]
        plus, minus = algebra.bell_subalgebras()
        report = algebra.factorization_test(state, plus, minus)
        assert report.verdict == algebra.VERDICT_SEPARABLE

    @pytest.mark.parametrize("name", ["psi_plus", "psi_minus", "phi_plus", "phi_minus"])
    def test_bell_state_particle_local_witness(self, name):
        state = bell_states()[name]
        left, right = particle_local_pair()
        report = algebra.factorization_test(state, left, right)
        assert report.verdict == algebra.VERDICT_ENTANGLED
        # sigma_z (x) 1 against 1 (x) sigma_z: |+-1 - 0| = 1
        eye = identity_op(qubit())
        z1 = tensor_op(sigma_z(), eye)
        z2 = tensor_op(eye, sigma_z())
        psi = state.amplitudes
        joint = np.vdot(psi, (z1 @ z2).matrix @ psi)
        marg = np.vdot(psi, z1.matrix @ psi) * np.vdot(psi, z2.matrix @ psi)
        assert abs(abs(joint - marg) - 1.0) <= 1e-12
        assert report.max_violation >= 1.0 - 1e-12

    def test_noncommuting_inputs_rejected(self):
        eye = identity_op(qubit())
        a = algebra.generate([tensor_op(sigma_z(), eye)], 2)
        b = algebra.generate([tensor_op(sigma_x(), eye)], 2)
        state = bell_states()["psi_plus"]
        with pytest.raises(NonCommutingError):
            algebra.factorization_test(state, a, b)

    def test_requires_normalized_state(self):
        left, right = particle_local_pair()
        for amplitudes in ([1.0, 1.0, 0.0, 0.0], [np.nan, 0, 0, 0], [np.inf, 0, 0, 0]):
            state = Ket(HilbertSpace.of_dim(4), amplitudes)
            with pytest.raises(NormalizationError):
                algebra.factorization_test(state, left, right)

    def test_state_outside_exact_sector_rejected(self):
        # cutoff 3, N = 2: products of two degree-2 words are exact nowhere
        space, pairs = double_well_pairs(cutoff=3, degree_bound=2)
        state = fock.number_state(space, 1, 2)
        with pytest.raises(CutoffError):
            algebra.factorization_test(state, *pairs["spatial"], exact_mask=space.exact_mask)
        # degree 1 is exact up to N = 1
        space, pairs = double_well_pairs(cutoff=3, degree_bound=1)
        report = algebra.factorization_test(
            fock.number_state(space, 1, 1), *pairs["spatial"], exact_mask=space.exact_mask
        )
        assert report.verdict == algebra.VERDICT_SEPARABLE
        with pytest.raises(CutoffError):
            algebra.factorization_test(
                fock.number_state(space, 1, 2), *pairs["spatial"], exact_mask=space.exact_mask
            )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(TWO_QUBIT_PAIRS)),
        values=st.lists(
            st.floats(-1.0, 1.0), min_size=8, max_size=8
        ).filter(lambda v: np.linalg.norm(v) > 1e-3),
    )
    def test_prepared_pairs_match_fresh_pairs(self, name, values):
        state = Ket(
            HilbertSpace.of_dim(4), np.array(values[:4]) + 1j * np.array(values[4:])
        ).normalized()
        reused = algebra.factorization_test(state, *prepared_pair(name))
        fresh = algebra.factorization_test(state, *TWO_QUBIT_PAIRS[name]())
        assert reused == fresh

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from([k for k in RANDOM_KINDS if k != "banded"]),
        cutoff=st.integers(6, 10),
        degree=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_swap_symmetry(self, kind, cutoff, degree, seed):
        # the pair commutes on the state's sector, so <x1 x2> = <x2 x1> there
        rng = np.random.default_rng(seed)
        a, b, mask = random_generator_pair(kind, True, cutoff, degree, rng)
        support = None if mask is None else mask(max(a.degrees) + max(b.degrees))
        state = random_state(a.dim, rng, support)
        forward = algebra.factorization_test(state, a, b, exact_mask=mask)
        backward = algebra.factorization_test(state, b, a, exact_mask=mask)
        assert abs(forward.max_violation - backward.max_violation) <= 1e-12

    def test_generator_scaling_does_not_change_verdict(self):
        q = qubit()
        state = tensor_ket(basis_ket(q, 0), basis_ket(q, 0))
        states = bell_states()
        plain_plus = algebra.generate(
            [states["psi_plus"].outer(), states["phi_plus"].outer()], 2
        )
        scaled_plus = algebra.generate(
            [7.0 * states["psi_plus"].outer(), 7.0 * states["phi_plus"].outer()], 2
        )
        minus = algebra.generate(
            [states["psi_minus"].outer(), states["phi_minus"].outer()], 2
        )
        plain = algebra.factorization_test(state, plain_plus, minus)
        scaled = algebra.factorization_test(state, scaled_plus, minus)
        assert plain.verdict == scaled.verdict
        assert abs(plain.max_violation - scaled.max_violation) <= 1e-9

    @pytest.mark.parametrize("scale", SCALES)
    def test_commutation_is_scale_free(self, scale):
        # the absolute commutator norm of this commuting pair grows with the
        # scale and passes max(tol, DEFAULT_TOL) from x100 on; the relative one
        # stays at rounding
        space, pairs = double_well_pairs(cutoff=10, degree_bound=2, scale=scale)
        report = algebra.factorization_test(
            fock.number_state(space, 1, 2), *pairs["delocalized"], exact_mask=space.exact_mask
        )
        assert report.commutator_norm < 1e-12

    @pytest.mark.parametrize(
        "name, scale",
        [
            *(pytest.param("delocalized", scale, id=str(scale)) for scale in SCALES),
            pytest.param("sigma_z", 1e-11, id="sigma_z-1e-11"),
        ],
    )
    def test_verdict_is_scale_free(self, name, scale):
        # an absolute dedup dropped the degree-2 products at x1e-8 (3 monomials
        # a side) and every sigma_z product at x1e-11, and read separable_wrt
        state, plain, mask, counts = scale_case(name, 1.0)
        _, scaled, _, _ = scale_case(name, scale)
        want, got = (
            algebra.factorization_test(state, *pair, exact_mask=mask) for pair in (plain, scaled)
        )
        assert want.verdict == algebra.VERDICT_ENTANGLED
        assert [len(s.monomials) for s in scaled] == counts
        assert got.verdict == want.verdict
        assert abs(got.max_violation - want.max_violation) <= 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from([k for k in RANDOM_KINDS if k != "banded"]),
        cutoff=st.integers(6, 10),
        degree=st.integers(1, 3),
        exponent=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_and_monomials_are_scale_free(self, kind, cutoff, degree, exponent, seed):
        rng = np.random.default_rng(seed)
        a, b, mask = random_generator_pair(kind, True, cutoff, degree, rng)
        support = None if mask is None else mask(max(a.degrees) + max(b.degrees))
        state = random_state(a.dim, rng, support)
        scaled = [scaled_copy(sub, 10.0**exponent) for sub in (a, b)]
        want = algebra.factorization_test(state, a, b, exact_mask=mask)
        got = algebra.factorization_test(state, *scaled, exact_mask=mask)
        assert [len(s.monomials) for s in scaled] == [len(a.monomials), len(b.monomials)]
        assert got.verdict == want.verdict
        assert abs(got.max_violation - want.max_violation) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1e-100, 1e200, 1e300])
    def test_extreme_scales_keep_monomials_and_verdict(self, scale):
        # raw degree-2 products were subnormal at x1e-160 (every violation
        # read NaN), exact zeros that read as vanishing at x1e-170, and inf at
        # x1e200; as unit directions all five monomials a side are kept, with
        # the numbers of scale 1
        eye = identity_op(qubit())
        g = complex_pauli()
        gens = [tensor_op(*ops) for ops in ((g, eye), (eye, g))]
        state = bell_states()["psi_plus"]
        want = algebra.factorization_test(state, *(algebra.generate([m], 2) for m in gens))
        pair = [algebra.generate([scale * m], 2) for m in gens]
        report = algebra.factorization_test(state, *pair)
        assert [len(s.monomials) for s in pair] == [5, 5]
        assert report.verdict == want.verdict == algebra.VERDICT_ENTANGLED
        assert abs(report.max_violation - want.max_violation) <= 1e-12

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["qubits", "real"]),
        degree=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_product_states_factorize(self, kind, degree, seed):
        # random local (x) 1 against 1 (x) local generators on a random v (x) w
        rng = np.random.default_rng(seed)
        left, right, _ = random_generator_pair(kind, True, 6, degree, rng)
        q = qubit()
        v, w = (
            Ket(q, rng.standard_normal(2) + 1j * rng.standard_normal(2)).normalized()
            for _ in range(2)
        )
        report = algebra.factorization_test(tensor_ket(v, w), left, right)
        assert max(row[5] for row in report.pairs) <= 1e-9

    @pytest.mark.parametrize(
        "make_pair,factorizing",
        [(particle_local_pair, "random_product"), (algebra.bell_subalgebras, "psi_plus")],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_observable_verdict_is_the_monomial_verdict(self, make_pair, factorizing):
        # the factorization_test docstring: each span is closed under adjoints,
        # so (u + u^dag)/2 and (u - u^dag)/2i over its unit monomials u are
        # hermitian and in it, and the defect on every such pair, read
        # bilinearly off the report's rows, vanishes exactly when
        # max_violation does.  Random product states factorize over the
        # particle-local pair and psi+ does not; over the Bell-projector pair
        # it is the other way round
        rng = np.random.default_rng(20)
        q = qubit()
        products = [
            tensor_ket(*(Ket(q, rng.standard_normal(2) + 1j * rng.standard_normal(2))
                         for _ in range(2))).normalized()
            for _ in range(5)
        ]
        psi_plus = [bell_states()["psi_plus"]]
        separable, entangled = (
            (products, psi_plus) if factorizing == "random_product" else (psi_plus, products)
        )
        a, b = make_pair()

        def hermitian_basis(sub):
            units = sub.stack / sub.norms[:, None, None]
            flat = units.reshape(len(units), -1).T
            adjoints = units.conj().transpose(0, 2, 1).reshape(len(units), -1).T
            c = np.linalg.lstsq(flat, adjoints, rcond=None)[0]  # u_i^dag = sum_k c_ki u_k
            assert np.abs(flat @ c - adjoints).max() <= 1e-12
            eye = np.eye(len(units))
            coeffs = np.hstack([(eye + c) / 2, (eye - c) / 2j])
            ops = np.tensordot(coeffs, units, axes=(0, 0))
            assert np.abs(ops - ops.conj().transpose(0, 2, 1)).max() <= 1e-12
            return coeffs

        coeffs_a, coeffs_b = hermitian_basis(a), hermitian_basis(b)
        for states, factorizes in ((separable, True), (entangled, False)):
            for state in states:
                report = algebra.factorization_test(state, a, b)
                table = np.array([row[2:5] for row in report.pairs])
                table = table.reshape(len(a.stack), len(b.stack), 3)
                defect = table[..., 0] - table[..., 1] * table[..., 2]
                observable = np.abs(coeffs_a.T @ defect @ coeffs_b).max()
                assert (observable <= 1e-9) == (report.max_violation <= 1e-9) == factorizes

    @pytest.mark.parametrize(
        "make_pair",
        [particle_local_pair, algebra.bell_subalgebras],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("state_name", ["product", "bell", "random_product"])
    def test_monomial_rows_fix_the_defect_on_the_spans(self, state_name, make_pair):
        # <xy> - <x><y> is bilinear, so on x = sum c_i m_i, y = sum d_j n_j it
        # equals c^T (W12 - w_a w_b^T) d, rebuilt here from the report's rows
        rng = np.random.default_rng(17)
        q = qubit()

        def random_qubit():
            return Ket(q, rng.standard_normal(2) + 1j * rng.standard_normal(2))

        state = {
            "product": tensor_ket(basis_ket(q, 0), basis_ket(q, 0)),
            "bell": bell_states()["psi_plus"],
            "random_product": tensor_ket(random_qubit(), random_qubit()).normalized(),
        }[state_name]
        a, b = make_pair()
        report = algebra.factorization_test(state, a, b)
        labels_a = list(dict.fromkeys(row[0] for row in report.pairs))
        labels_b = list(dict.fromkeys(row[1] for row in report.pairs))
        assert [row[:2] for row in report.pairs] == [
            (la, lb) for la in labels_a for lb in labels_b
        ]
        table = np.array([row[2:5] for row in report.pairs])
        table = table.reshape(len(labels_a), len(labels_b), 3)
        defect = table[..., 0] - table[..., 1] * table[..., 2]

        def unit_monomials(alg, labels, side):
            mats = []
            for label in labels:
                match = re.fullmatch(rf"{side}\.m(\d+)", label)
                assert match, f"{label} is not a monomial label"
                mat = alg.monomials[int(match.group(1))].matrix
                mats.append(mat / np.linalg.norm(mat, 2))
            return np.array(mats)

        ms = unit_monomials(a, labels_a, "A")
        ns = unit_monomials(b, labels_b, "B")
        psi = state.amplitudes
        for _ in range(5):
            c = rng.standard_normal(len(ms)) + 1j * rng.standard_normal(len(ms))
            d = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
            c, d = c / np.linalg.norm(c), d / np.linalg.norm(d)
            x, y = np.tensordot(c, ms, axes=1), np.tensordot(d, ns, axes=1)
            direct = np.vdot(psi, x @ y @ psi) - np.vdot(psi, x @ psi) * np.vdot(
                psi, y @ psi
            )
            assert abs(direct - c @ defect @ d) <= 1e-12


def passive_rotation(space, theta):
    """U = exp(-i theta H) with H = i(a_L^dag a_R - a_R^dag a_L), from the
    eigendecomposition of H.  H conserves the total occupation, so U is exact
    on the truncated space and leaves ``exact_mask`` as it is."""
    a_left, a_right = (
        fock.annihilation_op(space, basis_ket(space.mode_space, i)).matrix.matrix
        for i in range(2)
    )
    hop = a_left.conj().T @ a_right
    w, v = np.linalg.eigh(1j * (hop - hop.conj().T))
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


class TestPassiveRotation:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["spatial", "delocalized"]),
        cutoff=st.integers(6, 12),
        degree=st.integers(1, 3),
        theta=st.floats(-np.pi, np.pi),
        number=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_is_covariant(self, name, cutoff, degree, theta, number, seed):
        # a mode rotation applied to the state and to both generators leaves
        # the report as it was; the rotated generators are dense in each
        # sector, not permutation-like.  Number states read separable over the
        # spatial pair, random states inside the exact sector entangled
        rng = np.random.default_rng(seed)
        space, pairs = double_well_pairs(cutoff, degree)
        mask = space.exact_mask
        support = mask(2 * degree)
        if number:
            n_total = int(rng.integers(0, cutoff - 2 * degree + 1))
            state = fock.number_state(space, int(rng.integers(0, n_total + 1)), n_total)
        else:
            state = random_state(space.dim, rng, support)
        u = passive_rotation(space, theta)
        rotated = [
            algebra.generate(
                [OperatorMatrix(g.space, u @ g.matrix @ u.conj().T) for g in sub.generators],
                degree,
            )
            for sub in pairs[name]
        ]
        want = algebra.factorization_test(state, *pairs[name], exact_mask=mask)
        got = algebra.factorization_test(
            Ket(state.space, u @ state.amplitudes), *rotated, exact_mask=mask
        )
        assert got.verdict == want.verdict
        assert [len(s.monomials) for s in rotated] == [len(s.monomials) for s in pairs[name]]
        assert abs(got.max_violation - want.max_violation) <= 1e-12
        assert abs(got.commutator_norm - want.commutator_norm) <= 1e-12
