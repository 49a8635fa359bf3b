import pytest

from idsep import cases
from idsep.algebra import VERDICT_ENTANGLED, VERDICT_SEPARABLE
from idsep.errors import UnknownCase

EXPECTED_VERDICTS = {
    "bell-particle-local": [VERDICT_ENTANGLED],
    "bell-vs-Apm": [VERDICT_SEPARABLE] * 4,
    "doublewell-bogoliubov": [VERDICT_ENTANGLED, VERDICT_SEPARABLE],
    "doublewell-number-state": [VERDICT_SEPARABLE],
    "leftloc-1": [VERDICT_SEPARABLE],
    "leftloc-2": [VERDICT_SEPARABLE],
    "leftloc-3": [VERDICT_ENTANGLED],
    "leftloc-projector-1": [VERDICT_ENTANGLED],
    "leftloc-projector-2": [VERDICT_ENTANGLED],
    "leftloc-projector-3": [VERDICT_SEPARABLE],
    "nolabel-factor-1": [VERDICT_SEPARABLE, VERDICT_SEPARABLE],
    "nolabel-factor-2": [VERDICT_ENTANGLED, VERDICT_SEPARABLE],
    "nolabel-factor-3": [VERDICT_ENTANGLED, VERDICT_ENTANGLED],
    "product-vs-Apm": [VERDICT_SEPARABLE, VERDICT_ENTANGLED],
}


def test_registry_is_populated():
    ids = [d.case_id for d in cases.list_cases()]
    assert len(ids) >= 10
    assert ids == sorted(ids)
    assert set(EXPECTED_VERDICTS) == set(ids)


def test_unknown_case_rejected():
    with pytest.raises(UnknownCase):
        cases.run_case("xyz")


def test_all_cases_within_tolerance():
    for result in cases.run_all():
        assert result.max_abs_deviation <= 1e-9, result.case_id


@pytest.mark.parametrize("case_id", sorted(EXPECTED_VERDICTS))
def test_case_verdicts(case_id):
    result = cases.run_case(case_id)
    assert [v.verdict for v in result.verdicts] == EXPECTED_VERDICTS[case_id]


def test_determinism():
    first = cases.run_all()
    second = cases.run_all()
    for a, b in zip(first, second):
        assert a.case_id == b.case_id
        assert len(a.quantities) == len(b.quantities)
        for qa, qb in zip(a.quantities, b.quantities):
            assert qa.name == qb.name
            assert qa.computed == qb.computed
        assert [v.verdict for v in a.verdicts] == [v.verdict for v in b.verdicts]


def test_every_expected_value_has_provenance():
    for result in cases.run_all():
        for quantity in result.quantities:
            assert quantity.provenance.strip(), (result.case_id, quantity.name)
    for definition in cases.list_cases():
        assert definition.source.strip()
        assert definition.description.strip()


def test_cross_formalism_disagreement():
    # the same state is maximally entangled by the reduced-matrix entropy yet
    # separable with respect to the level-projector subalgebras
    entropy_case = cases.run_case("leftloc-3")
    projector_case = cases.run_case("leftloc-projector-3")
    entropy = next(
        q for q in entropy_case.quantities if "entropy" in q.name
    ).computed
    assert abs(complex(entropy) - 1.0) <= 1e-9
    assert entropy_case.verdicts[0].verdict == VERDICT_ENTANGLED
    assert projector_case.verdicts[0].verdict == VERDICT_SEPARABLE


def test_polynomial_case_records_coefficients():
    result = cases.run_case("doublewell-number-state")
    coefficients = result.extra["polynomial_coefficients"]
    assert len(coefficients) == 50
    assert result.extra["seed"] == 42
    # coefficients are reproducible from the seed
    again = cases.run_case("doublewell-number-state")
    assert again.extra["polynomial_coefficients"] == coefficients


def test_seed_changes_random_draws_but_not_values():
    base = cases.run_case("doublewell-number-state", seed=42)
    other = cases.run_case("doublewell-number-state", seed=7)
    assert (
        base.extra["polynomial_coefficients"] != other.extra["polynomial_coefficients"]
    )
    assert other.max_abs_deviation <= 1e-9
    assert [v.verdict for v in other.verdicts] == [v.verdict for v in base.verdicts]


def test_factor_case_quantities():
    result = cases.run_case("nolabel-factor-2")
    values = {q.name: (complex(q.computed), complex(q.expected)) for q in result.quantities}
    assert values["criterion left side (bosons)"][1] == -0.5
    assert values["criterion right side (bosons)"][1] == 0.5
    assert values["criterion left side (fermions)"][1] == 0.5
    for computed, expected in values.values():
        assert abs(computed - expected) <= 1e-9


def test_verdict_mismatch_fails_at_any_tolerance():
    # at tolerance 1 the particle-local test calls the Bell state separable;
    # the deviation stays within tolerance, the verdict row does not
    result = cases.run_case("bell-particle-local", tolerance=1.0)
    assert [(v.verdict, v.expected) for v in result.verdicts] == [
        (VERDICT_SEPARABLE, VERDICT_ENTANGLED)
    ]
    assert result.max_abs_deviation <= 1.0
    assert not result.passed(1.0)
    mismatch = result.quantities[-1]
    assert mismatch.name == (
        "verdict mismatch: symmetric Bell state vs single-qubit observable pair"
    )
    assert (mismatch.computed, mismatch.expected) == (0.0, 1.0)
    assert all(r.passed(1e-9) for r in cases.run_all())
