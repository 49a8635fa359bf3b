"""Command-line front end: list cases, run them, verify property suites.

The property suites are one table, ``_SUITES``, of (name, trials) rows;
trials(rng) yields one (deviation, witness) per trial.  ``run_property_suites``
gives each suite a fresh ``np.random.default_rng(seed)`` and reports its
largest deviation with the witness of the first trial that reaches it ("" when
no deviation is above 0); a NaN deviation fails the suite.

Exit codes: 0 on success, 1 on a numeric mismatch beyond tolerance or any
verdict mismatch, 2 on a usage error (unknown case id, bad flags).  JSON
reports serialize complex numbers as two-element [re, im] arrays.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import cases, fock, nolabel
from .errors import IdsepError
from .hilbert import (
    HilbertSpace,
    Ket,
    basis_ket,
    qubit,
    schmidt_decompose,
    validation_gate,
)


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def case_result_to_dict(result: cases.CaseResult) -> dict:
    return {
        "case_id": result.case_id,
        "quantities": [
            {
                "name": q.name,
                "computed": _complex_pair(q.computed),
                "expected": _complex_pair(q.expected),
                "provenance": q.provenance,
            }
            for q in result.quantities
        ],
        "max_abs_deviation": float(result.max_abs_deviation),
        "verdicts": [
            {"context": v.context, "verdict": v.verdict} for v in result.verdicts
        ],
    }


def _render_case_text(result: cases.CaseResult, tolerance: float) -> str:
    lines = [f"case {result.case_id}"]
    for q in result.quantities:
        lines.append(
            f"  {q.name}: computed={q.computed:.12g} expected={q.expected:.12g} "
            f"|dev|={q.deviation:.3e}  [{q.provenance}]"
        )
    for v in result.verdicts:
        lines.append(f"  verdict: {v.context} -> {v.verdict}")
    status = "PASS" if result.passed(tolerance) else "FAIL"
    lines.append(
        f"  max_abs_deviation = {result.max_abs_deviation:.3e}  [{status}]"
    )
    return "\n".join(lines)


@dataclass
class PropertyCheck:
    name: str
    max_deviation: float
    witness: str
    passed: bool


def _random_ket(space: HilbertSpace, rng: np.random.Generator) -> Ket:
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return Ket(space, amps).normalized()


def _ccr_car_trials(rng: np.random.Generator):
    boson = fock.double_well(cutoff=6)
    fermion = fock.FockSpace("fermion", 4, 4)
    for space, label in ((boson, "boson d=2 cutoff=6"), (fermion, "fermion d=4")):
        probes = [basis_ket(space.mode_space, i) for i in range(space.modes)]
        probes += [_random_ket(space.mode_space, rng) for _ in range(2)]
        for i, f in enumerate(probes):
            for j, g in enumerate(probes):
                yield fock.check_ccr_car(space, f, g), f"{label}, probe pair ({i}, {j})"


def _embedding_trials(rng: np.random.Generator):
    space = HilbertSpace.of_dim(4)
    for trial in range(200):
        eta = nolabel.BOSON if trial % 2 == 0 else nolabel.FERMION
        kets = [_random_ket(space, rng) for _ in range(4)]
        a = nolabel.NoLabelState.from_pair(nolabel.NoLabelPair(kets[0], kets[1], eta))
        b = nolabel.NoLabelState.from_pair(nolabel.NoLabelPair(kets[2], kets[3], eta))
        embedded = nolabel.to_first_quantized(a).inner(nolabel.to_first_quantized(b))
        yield abs(nolabel.nl_inner(a, b) - embedded), f"pair #{trial} (eta={eta:+d})"


def _entropy_basis_trials(rng: np.random.Generator):
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


def _schmidt_trials(rng: np.random.Generator):
    for trial in range(200):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        state = _random_ket(HilbertSpace.of_dim(d1 * d2), rng)
        form = schmidt_decompose(state, d1, d2)
        dev = np.linalg.norm(form.reconstruct_amplitudes() - state.amplitudes)
        yield dev, f"ket #{trial} ({d1}x{d2})"


#: The property suites, in report order: (name, trials), where trials(rng)
#: yields one (deviation, witness) per trial.
_SUITES = (
    ("canonical (anti)commutation relations", _ccr_car_trials),
    ("pair scalar product matches its tensor-product image", _embedding_trials),
    ("reduction entropy depends on the subspace, not its basis", _entropy_basis_trials),
    ("Schmidt decomposition reconstructs the state", _schmidt_trials),
)


def run_property_suites(
    tolerance: float = cases.DEFAULT_TOLERANCE, seed: int = cases.DEFAULT_SEED
) -> list[PropertyCheck]:
    """Run every row of ``_SUITES`` under the witness rule in the module docstring."""
    checks = []
    for name, trials in _SUITES:
        deviations, witnesses = zip(*trials(np.random.default_rng(seed)))
        worst = int(np.argmax(deviations))  # first maximum, or the first NaN
        dev = float(deviations[worst])
        witness = "" if dev <= 0 else witnesses[worst]
        checks.append(PropertyCheck(name, dev, witness, dev <= tolerance))
    return checks


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_list(args: argparse.Namespace) -> int:
    lines = [
        f"{definition.case_id:24s} {definition.description}  [{definition.source}]"
        for definition in cases.list_cases()
    ]
    _emit("\n".join(lines), args.output)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    known = [d.case_id for d in cases.list_cases()]
    case_ids, tolerance = args.case_ids, args.tolerance
    if args.run_all:
        selected = known
    else:
        if not case_ids:
            print("error: give case ids or --all", file=sys.stderr)
            return 2
        unknown = [cid for cid in case_ids if cid not in known]
        if unknown:
            print(f"error: unknown case id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        selected = sorted(case_ids)
    results = []
    for cid in selected:
        try:
            results.append(cases.run_case(cid, tolerance, args.seed))
        except IdsepError as exc:
            print(f"error while running {cid}: {exc}", file=sys.stderr)
            return 1
    if args.format == "json":
        _emit(json.dumps([case_result_to_dict(r) for r in results], indent=2), args.output)
    else:
        blocks = [_render_case_text(r, tolerance) for r in results]
        passed = sum(r.passed(tolerance) for r in results)
        blocks.append(f"{passed}/{len(results)} cases within tolerance {tolerance:g}")
        _emit("\n".join(blocks), args.output)
    return 0 if all(r.passed(tolerance) for r in results) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    checks = run_property_suites(args.tolerance, args.seed)
    if args.format == "json":
        payload = [
            {
                "name": c.name,
                "max_deviation": c.max_deviation,
                "witness": c.witness,
                "passed": c.passed,
            }
            for c in checks
        ]
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = []
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.name}: max deviation {c.max_deviation:.3e} "
                f"(worst at {c.witness})"
            )
        _emit("\n".join(lines), args.output)
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=cases.DEFAULT_TOLERANCE)
    common.add_argument("--seed", type=int, default=cases.DEFAULT_SEED)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--output", default=None, metavar="PATH")

    parser = argparse.ArgumentParser(
        prog="idsep",
        description="Separability and entanglement case studies for two "
        "identical particles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", parents=[common], help="list registered cases")
    run_parser = sub.add_parser("run", parents=[common], help="run cases by id")
    run_parser.add_argument("case_ids", nargs="*", metavar="ID")
    run_parser.add_argument("--all", action="store_true", dest="run_all")
    sub.add_parser("verify", parents=[common], help="run the property suites")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        validation_gate(args.tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return {"list": cmd_list, "run": cmd_run, "verify": cmd_verify}[args.command](args)


def entrypoint() -> None:  # console-script hook
    raise SystemExit(main())
