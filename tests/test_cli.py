import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from idsep import cases, cli, fock, hilbert, nolabel
from idsep.cli import case_result_to_dict, main
from idsep.hilbert import HilbertSpace, Ket, basis_ket, qubit

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "data" / "registry_seed42.json"
GOLDEN_SEED7 = GOLDEN.with_name("registry_seed7.json")

#: Keys whose numbers are computed in floating point; they may differ at the
#: rounding level between BLAS builds.  Everything else must match exactly.
ROUNDED_KEYS = ("computed", "max_abs_deviation")

VERIFY_SUITES = [
    "canonical (anti)commutation relations",
    "pair scalar product matches its tensor-product image",
    "reduction entropy depends on the subspace, not its basis",
    "Schmidt decomposition reconstructs the state",
]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's exit on a usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_contains_known_case(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "bell-particle-local" in out

    def test_counts_match_registry(self, capsys):
        _, out, _ = run_cli(capsys, "list")
        lines = [line for line in out.strip().splitlines() if line.strip()]
        assert len(lines) == len(cases.list_cases()) >= 10

    def test_stable_ordering(self, capsys):
        _, first, _ = run_cli(capsys, "list")
        _, second, _ = run_cli(capsys, "list")
        assert first == second

    def test_takes_only_output(self, capsys, tmp_path):
        # list reads no tolerance, seed or format, so it accepts none
        for flags in (("--format", "json"), ("--tolerance", "1"), ("--seed", "7")):
            code, out, err = run_cli(capsys, "list", *flags)
            assert (code, out) == (2, ""), flags
            assert "unrecognized arguments" in err
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        target = tmp_path / "list.txt"
        assert run_cli(capsys, "list", "--output", str(target))[:2] == (0, "")
        assert target.read_text(encoding="utf-8").splitlines() == golden["list"]


class TestRun:
    def test_single_case(self, capsys):
        code, out, _ = run_cli(capsys, "run", "leftloc-3")
        assert code == 0
        assert "computed=1 expected=1" in out

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "run", "xyz")
        assert code == 2
        assert "unknown case id" in err

    def test_no_ids_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run")
        assert code == 2

    def test_all_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--all", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == len(cases.list_cases())
        for document in payload:
            assert set(document) == {
                "case_id",
                "quantities",
                "max_abs_deviation",
                "verdicts",
            }
            for quantity in document["quantities"]:
                assert set(quantity) == {"name", "computed", "expected", "provenance"}
                assert len(quantity["computed"]) == 2
                assert len(quantity["expected"]) == 2
                assert all(isinstance(x, float) for x in quantity["computed"])
            for verdict in document["verdicts"]:
                assert set(verdict) == {"context", "verdict"}
                assert verdict["verdict"] in ("separable_wrt", "entangled_wrt")

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--all", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        direct = [case_result_to_dict(r) for r in cases.run_all()]
        assert parsed == direct

    def test_unattainable_tolerance_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--all", "--tolerance", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_verdict_mismatch_fails_at_any_tolerance(self, capsys):
        # at tolerance 1 several factorization verdicts flip; the deviation
        # gate alone would still pass every case
        code, out, _ = run_cli(capsys, "run", "--all", "--tolerance", "1")
        assert code == 1
        blocks = out.split("\ncase ")
        mismatching = sum("verdict mismatch:" in block for block in blocks)
        assert mismatching > 0
        total = len(cases.list_cases())
        summary = out.strip().splitlines()[-1]
        assert summary == f"{total - mismatching}/{total} cases within tolerance 1"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "leftloc-1", "--format", "json", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload[0]["case_id"] == "leftloc-1"

    def test_bad_tolerance_is_usage_error(self, capsys):
        for bad in ("-1", "nan", "inf"):
            code, _, err = run_cli(capsys, "run", "--all", "--tolerance", bad)
            assert code == 2, bad
            assert "tolerance" in err


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out

    def test_floating_point_floor(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tolerance", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_seed_changes_witnesses_not_verdicts(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "verify", "--format", "json", "--seed", "42")
        code_b, out_b, _ = run_cli(capsys, "verify", "--format", "json", "--seed", "7")
        assert code_a == code_b == 0
        checks_a, checks_b = json.loads(out_a), json.loads(out_b)
        assert [c["passed"] for c in checks_a] == [c["passed"] for c in checks_b]
        assert [c["witness"] for c in checks_a] != [c["witness"] for c in checks_b]

    @pytest.mark.parametrize("seed", ["42", "7"])
    def test_document_pins_suites(self, capsys, seed):
        code, out, _ = run_cli(capsys, "verify", "--format", "json", "--seed", seed)
        assert code == 0
        checks = json.loads(out)
        assert [c["name"] for c in checks] == VERIFY_SUITES
        for check in checks:
            assert list(check) == ["name", "max_deviation", "witness", "passed"]
            assert check["passed"] is True
            assert check["max_deviation"] <= 1e-12

    def test_runner_reports_first_worst_trial(self, monkeypatch):
        def draw(rng):
            return [(rng.random(), "draw")]

        monkeypatch.setattr(cli, "_SUITES", (
            ("tie", lambda rng: [(1.0, "a"), (3.0, "b"), (3.0, "c")]),
            ("zero", lambda rng: [(0.0, "a"), (0.0, "b")]),
            ("nan", lambda rng: [(1.0, "a"), (float("nan"), "b"), (5.0, "c")]),
            ("draw 1", draw),
            ("draw 2", draw),
        ))
        tie, zero, nan, draw1, draw2 = cli.run_property_suites(tolerance=10.0, seed=3)
        assert (tie.name, tie.max_deviation, tie.witness, tie.passed) == (
            "tie", 3.0, "b", True
        )
        assert (zero.max_deviation, zero.witness, zero.passed) == (0.0, "", True)
        assert np.isnan(nan.max_deviation) and nan.witness == "b" and not nan.passed
        # every suite draws from its own fresh generator
        fresh = np.random.default_rng(3).random()
        assert draw1.max_deviation == draw2.max_deviation == fresh


def reference_unit_ket(space, rng):
    """A unit ket drawn one at a time: dim real parts, then dim imaginary
    parts, divided by np.linalg.norm."""
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return Ket(space, amps / np.linalg.norm(amps))


def reference_unitaries(rng):
    """The entropy suite's rotations, drawn and factored one trial at a time."""
    unitaries = []
    for _ in range(3):
        for _ in range(20):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            unitaries.append(np.linalg.qr(z)[0])
    return np.array(unitaries).reshape(3, 20, 2, 2)


def reference_ccr_car(space, f, g):
    """The canonical-relation deviation of one probe pair, operator by operator."""
    af = fock.annihilation_op(space, f).matrix.matrix
    ag = fock.annihilation_op(space, g).matrix.matrix
    cf = fock.creation_op(space, f).matrix.matrix
    cg = fock.creation_op(space, g).matrix.matrix
    overlap = complex(np.vdot(f.amplitudes, g.amplitudes))
    sign = 1.0 if space.statistics == "fermion" else -1.0
    deviations = [
        af @ cg + sign * (cg @ af) - overlap * np.eye(space.dim),
        af @ ag + sign * (ag @ af),
        cf @ cg + sign * (cg @ cf),
    ]
    mask = space.exact_mask(1)
    return float(max(np.linalg.norm(d[:, mask], 2) for d in deviations))


def reference_ccr_car_trials(rng):
    boson = fock.double_well(cutoff=6)
    fermion = fock.FockSpace("fermion", 4, 4)
    for space, label in ((boson, "boson d=2 cutoff=6"), (fermion, "fermion d=4")):
        probes = [basis_ket(space.mode_space, i) for i in range(space.modes)]
        probes += [reference_unit_ket(space.mode_space, rng) for _ in range(2)]
        for i, f in enumerate(probes):
            for j, g in enumerate(probes):
                yield reference_ccr_car(space, f, g), f"{label}, probe pair ({i}, {j})"


def reference_embedding_trials(rng):
    space = HilbertSpace.of_dim(4)
    for trial in range(200):
        eta = nolabel.BOSON if trial % 2 == 0 else nolabel.FERMION
        kets = [reference_unit_ket(space, rng) for _ in range(4)]
        a = nolabel.NoLabelState.from_pair(nolabel.NoLabelPair(kets[0], kets[1], eta))
        b = nolabel.NoLabelState.from_pair(nolabel.NoLabelPair(kets[2], kets[3], eta))
        embedded = nolabel.to_first_quantized(a).inner(nolabel.to_first_quantized(b))
        yield abs(nolabel.nl_inner(a, b) - embedded), f"pair #{trial} (eta={eta:+d})"


def reference_entropy_basis_trials(rng):
    space = HilbertSpace(("L", "R")).tensor(qubit())
    l0, l1 = basis_ket(space, "L,0"), basis_ket(space, "L,1")
    pairs = (
        (l0, l1, nolabel.BOSON),
        (l0, basis_ket(space, "R,1"), nolabel.BOSON),
        (l0, l1, nolabel.FERMION),
    )
    for s_index, pair in enumerate(pairs):
        state = nolabel.NoLabelState.from_pair(nolabel.NoLabelPair(*pair))
        reference = nolabel.entanglement_entropy(state, [l0, l1])
        for trial in range(20):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            unitary, _ = np.linalg.qr(z)
            rotated = [unitary[0, k] * l0 + unitary[1, k] * l1 for k in range(2)]
            dev = abs(nolabel.entanglement_entropy(state, rotated) - reference)
            yield dev, f"state #{s_index}, rotation #{trial}"


def reference_schmidt_trials(rng):
    for trial in range(200):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        state = reference_unit_ket(HilbertSpace.of_dim(d1 * d2), rng)
        form = hilbert.schmidt_decompose(state, d1, d2)
        dev = np.linalg.norm(form.reconstruct_amplitudes() - state.amplitudes)
        yield dev, f"ket #{trial} ({d1}x{d2})"


#: Each suite of cli._SUITES next to its trials written one at a time
#: through the public readings.
REFERENCE_TRIALS = [
    reference_ccr_car_trials,
    reference_embedding_trials,
    reference_entropy_basis_trials,
    reference_schmidt_trials,
]


class TestStackedSuites:
    """Each suite evaluates its trials as one stack through the kernels of the
    readings, and reads as the trials taken one at a time."""

    @pytest.mark.parametrize("seed", [42, 7])
    def test_stacked_draws_are_the_per_trial_draws(self, seed):
        # deviations are rounding noise, so only the draws themselves can show
        # that a stacked draw changed
        rng = np.random.default_rng(seed)
        space = HilbertSpace.of_dim(4)
        want = [[reference_unit_ket(space, rng).amplitudes for _ in range(4)] for _ in range(200)]
        got = cli._embedding_kets(np.random.default_rng(seed))
        assert got.tobytes() == np.array(want).tobytes()
        want = reference_unitaries(np.random.default_rng(seed))
        assert cli._entropy_rotations(np.random.default_rng(seed)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("suite", range(len(REFERENCE_TRIALS)))
    def test_matches_trials_one_at_a_time(self, seed, suite):
        name, trials = cli._SUITES[suite]
        got = list(trials(np.random.default_rng(seed)))
        want = list(REFERENCE_TRIALS[suite](np.random.default_rng(seed)))
        assert [w for _, w in got] == [w for _, w in want], name
        deviations = np.array([d for d, _ in got]) - np.array([d for d, _ in want])
        assert np.abs(deviations).max() <= 1e-15, name

    @pytest.mark.parametrize("trial", [86, 131])
    def test_planted_fault_is_witnessed(self, monkeypatch, trial):
        # a 1e-6 error in one trial's image, a boson (even) or a fermion (odd)
        # trial, fails the suite with that trial as its witness
        image = nolabel.image_matrix
        eta = nolabel.FERMION if trial % 2 else nolabel.BOSON

        def planted(sign, coefficients, stack):
            if sign == eta:
                stack = stack.copy()
                stack[trial // 2, 0, 0, 0] += 1e-6
            return image(sign, coefficients, stack)

        monkeypatch.setattr(nolabel, "image_matrix", planted)
        check = cli.run_property_suites(seed=42)[1]
        assert not check.passed and check.max_deviation > 1e-9
        assert check.witness == f"pair #{trial} (eta={eta:+d})"

    def test_no_reading_per_trial(self, monkeypatch):
        calls = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in (
            (nolabel, "nl_inner"),
            (nolabel, "to_first_quantized"),
            (nolabel, "entanglement_entropy"),
            (hilbert, "schmidt_decompose"),
            (nolabel.NoLabelState, "__init__"),
            (fock, "check_ccr_car"),
        ):
            count(owner, name)
        assert all(c.passed for c in cli.run_property_suites(seed=42))
        # one table per Fock space, and the entropy suite's three states
        assert calls == {"check_ccr_car": 2, "__init__": 3}


def test_module_entrypoint_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "idsep", "list"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "doublewell-bogoliubov" in proc.stdout


def assert_matches_golden(got, want, where="$"):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            if key in ROUNDED_KEYS:
                g, w = np.asarray(got[key], float), np.asarray(want[key], float)
                assert g.shape == w.shape, f"{where}.{key}"
                assert np.abs(g - w).max() <= 1e-12, f"{where}.{key}"
            else:
                assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def test_registry_matches_golden_document(capsys):
    """`idsep list` and `idsep run --all --format json --seed 42` are pinned."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    code, listing, _ = run_cli(capsys, "list")
    assert code == 0
    assert listing.splitlines() == golden["list"]
    code, out, _ = run_cli(capsys, "run", "--all", "--format", "json", "--seed", "42")
    assert code == 0
    assert_matches_golden(json.loads(out), golden["run"])


def test_registry_matches_golden_document_at_seed_7(capsys):
    """`idsep run --all --format json --seed 7` is pinned as well."""
    golden = json.loads(GOLDEN_SEED7.read_text(encoding="utf-8"))
    code, out, _ = run_cli(capsys, "run", "--all", "--format", "json", "--seed", "7")
    assert code == 0
    assert_matches_golden(json.loads(out), golden["run"])
