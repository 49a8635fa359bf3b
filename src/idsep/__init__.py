"""Separability and entanglement of two identical particles.

Two formalisms side by side: factorization of expectation values over
commuting operator subalgebras (second quantization), and the entropy of a
subspace-reduced one-particle density matrix built from unlabeled pair
states.  A registry of case studies runs both on the same states.
"""

from .algebra import (
    FactorizationReport,
    Subalgebra,
    bell_subalgebras,
    factorization_test,
    generate,
    subalgebras_commute,
)
from .cases import CaseResult, list_cases, run_all, run_case
from .errors import IdsepError
from .fock import (
    FockSpace,
    ModeOperator,
    annihilation_op,
    bogoliubov_modes,
    check_ccr_car,
    creation_op,
    double_well,
    number_state,
)
from .hilbert import (
    HilbertSpace,
    Ket,
    OperatorMatrix,
    SchmidtForm,
    basis_ket,
    bell_states,
    expectation,
    identity_op,
    partial_trace,
    qubit,
    schmidt_decompose,
    sigma_x,
    sigma_z,
    tensor_ket,
    tensor_op,
    von_neumann_entropy,
)
from .nolabel import (
    NoLabelPair,
    NoLabelState,
    ReducedDM,
    entanglement_entropy,
    extended_expectation,
    nl_inner,
    pair_factorization_sides,
    product_expectation,
    reduce_to_one_particle,
    reduced_expectation,
    subspace_reduced_dm,
    to_first_quantized,
)

__version__ = "0.1.0"
