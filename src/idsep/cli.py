"""Command-line front end: list cases, run them, verify property suites.

The property suites are one table, ``_SUITES``, of (name, trials) rows;
trials(rng) yields one (deviation, witness) per trial.  ``run_property_suites``
gives each suite a fresh ``np.random.default_rng(seed)`` and reports its
largest deviation with the witness of the first trial that reaches it ("" when
no deviation is above 0); a NaN deviation fails the suite.  A suite draws all
of its trials first, then evaluates them as one stack through the kernel that
the matching reading runs, with a trial axis in front: no trial calls a
reading of its own.

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
    inner_rows,
    qubit,
    row_norms,
    schmidt_factors,
    schmidt_sum,
    spectrum_entropy,
    unit_rows,
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


def _unit_kets(draws: np.ndarray) -> np.ndarray:
    """Unit kets (..., dim) from normal draws (..., 2, dim): each ket's dim
    real parts, then its dim imaginary parts."""
    return unit_rows(draws[..., 0, :] + 1j * draws[..., 1, :])


def _ccr_car_trials(rng: np.random.Generator):
    boson = fock.double_well(cutoff=6)
    fermion = fock.FockSpace("fermion", 4, 4)
    rows = []
    for space, label in ((boson, "boson d=2 cutoff=6"), (fermion, "fermion d=4")):
        probes = [basis_ket(space.mode_space, i) for i in range(space.modes)]
        draws = rng.standard_normal((2, 2, space.modes))
        probes += [Ket(space.mode_space, f) for f in _unit_kets(draws)]
        table = fock.check_ccr_car(space, probes)
        rows += [(dev, f"{label}, probe pair ({i}, {j})") for (i, j), dev in np.ndenumerate(table)]
    return rows


def _embedding_kets(rng: np.random.Generator) -> np.ndarray:
    """The embedding suite's draws: four unit kets in dimension 4 per trial."""
    return _unit_kets(rng.standard_normal((200, 4, 2, 4)))


def _embedding_trials(rng: np.random.Generator):
    """Trial t pairs (k0, k1) with (k2, k3); even trials are bosons, odd ones
    fermions.  A one-pair state with coefficient 1 is its stack, and its
    pairings are its 1 x 1 term pairings."""
    kets = _embedding_kets(rng)
    deviations = np.empty(len(kets))
    for first, eta in enumerate((nolabel.BOSON, nolabel.FERMION)):
        group = kets[first::2]
        a, b = group[:, :2, None, :], group[:, 2:, None, :]  # stacks (n, 2, 1, 4)
        unit = np.ones((len(group), 1))
        pairing = nolabel.term_pairings(eta, a, b)[:, 0, 0]
        image_a, image_b = (
            nolabel.image_matrix(eta, unit, s).reshape(len(group), -1) for s in (a, b)
        )
        deviations[first::2] = np.abs(pairing - inner_rows(image_a, image_b))
    return [
        (dev, f"pair #{t} (eta={nolabel.FERMION if t % 2 else nolabel.BOSON:+d})")
        for t, dev in enumerate(deviations)
    ]


def _entropy_rotations(rng: np.random.Generator) -> np.ndarray:
    """The entropy suite's draws: 20 random unitaries (2 x 2) per state."""
    z = rng.standard_normal((3, 20, 2, 2, 2))
    return np.linalg.qr(z[:, :, 0] + 1j * z[:, :, 1])[0]


def _entropy_basis_trials(rng: np.random.Generator):
    space = HilbertSpace(("L", "R")).tensor(qubit())
    l0, l1 = basis_ket(space, "L,0"), basis_ket(space, "L,1")
    pairs = (
        (l0, l1, nolabel.BOSON),
        (l0, basis_ket(space, "R,1"), nolabel.BOSON),
        (l0, l1, nolabel.FERMION),
    )
    frame = np.array([l0.amplitudes, l1.amplitudes]).T
    rows = []
    for s_index, (pair, unitaries) in enumerate(zip(pairs, _entropy_rotations(rng))):
        state = nolabel.NoLabelState.from_pair(nolabel.NoLabelPair(*pair))
        # basis 0 is (l0, l1), the reference; basis k + 1 is its k-th rotation
        bases = np.concatenate([frame[None], frame @ unitaries])
        spectra = nolabel.reduction_spectra(state, bases)
        reference, *rotated = (spectrum_entropy(p) for p in spectra)
        rows += [
            (abs(entropy - reference), f"state #{s_index}, rotation #{trial}")
            for trial, entropy in enumerate(rotated)
        ]
    return rows


def _schmidt_trials(rng: np.random.Generator):
    """Each trial draws its split d1 x d2, then its ket; the decomposition runs
    once per split over the stack of that split's trials."""
    draws = []
    for _ in range(200):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        draws.append(((d1, d2), rng.standard_normal((2, d1 * d2))))
    deviations = np.empty(len(draws))
    for d1, d2 in sorted({split for split, _ in draws}):
        trials = [t for t, (split, _) in enumerate(draws) if split == (d1, d2)]
        kets = _unit_kets(np.array([draws[t][1] for t in trials]))
        deviations[trials] = row_norms(schmidt_sum(*schmidt_factors(kets, d1, d2)) - kets)
    return [
        (dev, f"ket #{t} ({d1}x{d2})")
        for t, (dev, ((d1, d2), _)) in enumerate(zip(deviations, draws))
    ]


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


def tolerance(text: str) -> float:
    """A --tolerance value, judged where it is parsed: validation_gate's
    ValueError makes it a usage error."""
    value = float(text)
    validation_gate(value)
    return value


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, metavar="PATH")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--tolerance", type=tolerance, default=cases.DEFAULT_TOLERANCE)
    common.add_argument("--seed", type=int, default=cases.DEFAULT_SEED)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="idsep",
        description="Separability and entanglement case studies for two "
        "identical particles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", parents=[output], help="list registered cases")
    run_parser = sub.add_parser("run", parents=[common], help="run cases by id")
    run_parser.add_argument("case_ids", nargs="*", metavar="ID")
    run_parser.add_argument("--all", action="store_true", dest="run_all")
    sub.add_parser("verify", parents=[common], help="run the property suites")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)  # a usage error exits 2 here
    return {"list": cmd_list, "run": cmd_run, "verify": cmd_verify}[args.command](args)


def entrypoint() -> None:  # console-script hook
    raise SystemExit(main())
