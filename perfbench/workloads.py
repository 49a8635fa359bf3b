"""The four benchmark workloads: inputs, operations, probes and oracles.

Each workload turns the benchmark seed into one pass of operation inputs.
The run loop repeats the pass in whole cycles.  Everything that decides how
much work an operation does (Fock cutoff and degree, states per ladder
point, pair terms, one-particle dimension) comes from a fixed schedule; the
seed chooses only values (occupations, amplitudes, bases, operators), so
every seed asks for the same work and runs stay comparable.

Oracles never call the code under test: verdicts follow from how a state
was built, and pair-state numbers are recomputed with numpy from the
generator's own d x d amplitude matrix.  They run outside the timed region.

Each workload also fixes ``tail_q``, the percentile reported as
``latency_p90_s``: the highest that left at least ten operations beyond it in
every 20 s run at the commit that introduced the benchmark.  It is fixed
so that a slower or faster program is compared at the same percentile, and
``layers(inputs)`` names the per-layer metrics its traced run must report.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from math import comb, factorial, sqrt

import numpy as np

from idsep import algebra, cases, cli, fock, nolabel
from idsep.hilbert import HilbertSpace, Ket, OperatorMatrix, basis_ket, von_neumann_entropy

TOL = 1e-9
SEPARABLE = "separable_wrt"
ENTANGLED = "entangled_wrt"
HERE = os.path.dirname(os.path.abspath(__file__))


def seeded_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _take_json(path: str):
    """The JSON document at ``path``, or None if there is none.

    The file is removed once read, so the next operation must write it
    afresh and a stale file can never pass the check.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        return None
    os.remove(path)
    return doc


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# registry: the user-facing command, many small factorization tests
# ---------------------------------------------------------------------------


@dataclass
class RegistryInput:
    seed: int
    expected: dict[str, list[list[str]]]


class Registry:
    name = "registry"
    item = "cases"
    tail_q = 0.7  # 10 beyond needs 32 operations; a 20 s run made 32-48

    def __init__(self, scratch: str) -> None:
        self.run_path = os.path.join(scratch, "run.json")
        self.verify_path = os.path.join(scratch, "verify.json")

    def inputs(self, seed: int) -> list[RegistryInput]:
        with open(os.path.join(HERE, "expected_verdicts.json"), encoding="utf-8") as f:
            expected = json.load(f)
        rng = seeded_rng(seed, self.name)
        return [RegistryInput(int(rng.integers(0, 2**31 - 1)), expected) for _ in range(4)]

    def items(self, inp: RegistryInput) -> int:
        return len(inp.expected)

    def layers(self, inputs: list[RegistryInput]) -> set[str]:
        cases_s = {f"cases.case_s.{case_id}" for case_id in inputs[0].expected}
        return {"cli.run_s", "cli.verify_s", "bench.op_s", *cases_s}

    def run(self, inp: RegistryInput, t):
        flags = ["--format", "json", "--seed", str(inp.seed)]
        with t.span("cli.run"):
            rc_run = cli.main(["run", "--all", "--output", self.run_path, *flags])
        with t.span("cli.verify"):
            rc_verify = cli.main(["verify", "--output", self.verify_path, *flags])
        return rc_run, rc_verify

    def probe(self, inp: RegistryInput, out, t) -> None:
        for case_id in inp.expected:
            with t.probe(f"cases.case.{case_id}"):
                cases.run_case(case_id, TOL, inp.seed)

    def check(self, inp: RegistryInput, out) -> list[str]:
        rc_run, rc_verify = out
        docs, suites = _take_json(self.run_path), _take_json(self.verify_path)
        if (rc_run, rc_verify) != (0, 0):
            return [f"exit codes run={rc_run} verify={rc_verify}, expected 0 and 0"]
        if docs is None or suites is None:
            return ["run or verify wrote no --output file"]
        problems = []
        docs = {doc["case_id"]: doc for doc in docs}
        if sorted(docs) != sorted(inp.expected):
            problems.append(f"case ids {sorted(docs)} differ from the stored list")
        for case_id, expected in inp.expected.items():
            doc = docs.get(case_id)
            if doc is None:
                continue
            got = [[v["context"], v["verdict"]] for v in doc["verdicts"]]
            if got != expected:
                problems.append(f"{case_id}: verdicts {got} != stored {expected}")
            if not doc["max_abs_deviation"] <= TOL:
                problems.append(f"{case_id}: deviation {doc['max_abs_deviation']}")
        if len(suites) != 4 or not all(s["passed"] for s in suites):
            problems.append(f"verify suites not all passed: {suites}")
        return problems


# ---------------------------------------------------------------------------
# fock-ladder: dense algebra on a bosonic double well, many states per pair
# ---------------------------------------------------------------------------

#: (cutoff, degree bound, states per ladder point).  Fewer states at the
#: larger points keep every operation at a similar cost at the seed commit,
#: so latency percentiles do not jump between ladder points.
FOCK_LADDER = ((8, 2, 5), (8, 3, 4), (10, 2, 3), (10, 3, 2), (12, 2, 1))
FOCK_KINDS = ("spatial", "delocalized", "superposition")


def rotate_splits(amps: np.ndarray) -> np.ndarray:
    """Split amplitudes at fixed N, from one two-mode basis to the rotated one.

    ``amps[p]`` is the amplitude of p quanta in the first mode and N - p in
    the second.  With x, y the creation operators of one basis and
    u = (x + y)/sqrt2, v = (x - y)/sqrt2 those of the other (and vice versa,
    the map is an involution), x^p y^(N-p)|0>/sqrt(p!(N-p)!) is expanded as a
    polynomial in u, v.  Pure binomial arithmetic: no idsep code.
    """
    n = len(amps) - 1
    out = np.zeros(n + 1, dtype=np.complex128)
    for p, a in enumerate(amps):
        if a == 0:
            continue
        plus = np.array([comb(p, j) for j in range(p + 1)], dtype=float)
        minus = np.array([comb(n - p, j) * (-1.0) ** (n - p - j) for j in range(n - p + 1)])
        poly = np.convolve(plus, minus) / sqrt(factorial(p) * factorial(n - p))
        out += a * poly
    norms = np.array([sqrt(factorial(q) * factorial(n - q)) for q in range(n + 1)])
    return out * norms / 2 ** (n / 2)


def _verdict_from_splits(amps: np.ndarray) -> str | None:
    weights = np.abs(amps) ** 2
    if weights.max() > 1 - 1e-12:
        return SEPARABLE
    if weights.max() < 0.99:
        return ENTANGLED
    return None  # too close to a product state to call; the generator redraws


@dataclass
class FockState:
    kind: str
    n_total: int
    k: int
    spatial: np.ndarray  # split amplitudes in the left/right modes, index = left count
    expected: tuple[str, str]  # (spatial pair, delocalized pair)


@dataclass
class FockInput:
    cutoff: int
    degree: int
    states: list[FockState]


def _fock_state(rng: np.random.Generator, kind: str, n_max: int) -> FockState:
    while True:
        n = int(rng.integers(1, n_max + 1))
        k = int(rng.integers(0, n + 1))
        unit = np.zeros(n + 1, dtype=np.complex128)
        unit[k] = 1.0
        if kind == "spatial":
            spatial = unit
        elif kind == "delocalized":
            spatial = rotate_splits(unit)
        else:
            splits = rng.choice(n + 1, size=int(rng.integers(2, n + 2)), replace=False)
            spatial = np.zeros(n + 1, dtype=np.complex128)
            spatial[splits] = rng.uniform(0.5, 1.0, splits.size) * np.exp(
                2j * np.pi * rng.uniform(size=splits.size)
            )
            spatial /= np.linalg.norm(spatial)
        expected = (_verdict_from_splits(spatial), _verdict_from_splits(rotate_splits(spatial)))
        if None not in expected:
            return FockState(kind, n, k, spatial, expected)


class FockLadder:
    name = "fock-ladder"
    item = "verdicts"
    tail_q = 0.65  # 10 beyond needs 30 operations; a 20 s run made 25-30
    LAYERS = {
        "fock.build_s", "fock.ladder_s", "fock.dim", "algebra.generate_s", "algebra.commute_s",
        "algebra.factorize_s", "algebra.monomials", "algebra.pairs_evaluated", "bench.op_s",
    }

    def inputs(self, seed: int) -> list[FockInput]:
        rng = seeded_rng(seed, self.name)
        out, drawn = [], 0
        for cutoff, degree, count in FOCK_LADDER:
            # exact sector of a product of one word from each side
            n_max = cutoff - 2 * degree
            states = []
            for _ in range(count):
                states.append(_fock_state(rng, FOCK_KINDS[drawn % 3], n_max))
                drawn += 1
            out.append(FockInput(cutoff, degree, states))
        return out

    def items(self, inp: FockInput) -> int:
        return 2 * len(inp.states)

    def layers(self, inputs: list[FockInput]) -> set[str]:
        return self.LAYERS

    @staticmethod
    def _generate(generator, degree, t):
        with t.span("algebra.generate"):
            sub = algebra.generate([generator], degree)
            t.count(**{"algebra.monomials": len(sub.monomials)})
        return sub

    def run(self, inp: FockInput, t):
        with t.span("fock.build"):
            space = fock.double_well(inp.cutoff)
            t.count(**{"fock.dim": space.dim})
        with t.span("fock.ladder"):
            a_left = fock.annihilation_op(space, basis_ket(space.mode_space, 0)).matrix
            a_right = fock.annihilation_op(space, basis_ket(space.mode_space, 1)).matrix
            b_plus, b_minus = (b.matrix for b in fock.bogoliubov_modes(space))
            kets = [self._ket(space, s, b_plus, b_minus) for s in inp.states]
        pairs = (
            (self._generate(a_left, inp.degree, t), self._generate(a_right, inp.degree, t)),
            (self._generate(b_plus, inp.degree, t), self._generate(b_minus, inp.degree, t)),
        )
        verdicts = []
        for ket in kets:
            for first, second in pairs:
                with t.span("algebra.factorize"):
                    report = algebra.factorization_test(
                        ket, first, second, exact_mask=space.exact_mask
                    )
                    t.count(**{"algebra.pairs_evaluated": len(report.pairs)})
                verdicts.append(report.verdict)
        return space, pairs, kets, verdicts

    @staticmethod
    def _ket(space, state: FockState, b_plus, b_minus) -> Ket:
        if state.kind == "spatial":
            return fock.number_state(space, state.k, state.n_total)
        if state.kind == "delocalized":
            ket = space.vacuum()
            for raise_op, times in ((b_plus, state.k), (b_minus, state.n_total - state.k)):
                creation = raise_op.dagger()
                for _ in range(times):
                    ket = creation.apply(ket)
            return ket.normalized()
        ket = None
        for p, amp in enumerate(state.spatial):
            if amp != 0:
                term = amp * fock.number_state(space, p, state.n_total)
                ket = term if ket is None else ket + term
        return ket

    def probe(self, inp: FockInput, out, t) -> None:
        space, pairs, kets, _ = out
        for _ in kets:
            for first, second in pairs:
                with t.probe("algebra.commute"):
                    algebra.subalgebras_commute(first, second, exact_mask=space.exact_mask)

    def check(self, inp: FockInput, out) -> list[str]:
        space, _, kets, verdicts = out
        problems = []
        exact = {occ: i for i, occ in enumerate(space.occupations)}
        for index, (state, ket) in enumerate(zip(inp.states, kets)):
            # the generator's amplitudes, placed on (left, right) occupations
            want = np.zeros(space.dim, dtype=np.complex128)
            for p, amp in enumerate(state.spatial):
                want[exact[(p, state.n_total - p)]] = amp
            amps = ket.amplitudes
            if not np.all(np.isfinite(amps)) or abs(np.linalg.norm(amps) - 1) > 1e-12:
                problems.append(f"state {index}: not finite and normalized")
            if np.abs(amps - want).max() > TOL:
                problems.append(f"state {index} ({state.kind}): amplitudes differ from the generator")
            if state.n_total > inp.cutoff - 2 * inp.degree:
                problems.append(f"state {index}: N={state.n_total} outside the exact sector")
            got = tuple(verdicts[2 * index : 2 * index + 2])
            if got != state.expected:
                problems.append(
                    f"cutoff {inp.cutoff} degree {inp.degree} {state.kind} state "
                    f"N={state.n_total}: verdicts {got} != expected {state.expected}"
                )
        return problems


# ---------------------------------------------------------------------------
# pair-terms and pair-wide: unlabeled pair states
# ---------------------------------------------------------------------------

#: (terms, one-particle dimension), every term a fresh pair.  pair-terms: many
#: terms in a small space.  pair-wide: a few terms in a large space.  Ten
#: sizes whose costs rise by about 1.4x per step, so the latency percentiles
#: fall among sizes of similar cost rather than in a gap between two sizes.
PAIR_TERMS_LADDER = (
    (10, 8), (12, 8), (15, 10), (18, 10), (21, 12), (24, 12), (29, 14), (34, 14), (40, 16), (48, 16)
)
PAIR_WIDE_LADDER = (
    (1, 64), (1, 80), (2, 96), (2, 112), (3, 128), (3, 144), (4, 160), (4, 192), (4, 224), (4, 256)
)


@dataclass
class PairInput:
    eta: int
    vectors: np.ndarray  # (count, d) constituent amplitudes
    terms: list[tuple[complex, int, int]]  # coefficient, first, second vector
    basis: np.ndarray  # (d, d/2) orthonormal columns spanning the subspace
    operator: np.ndarray  # (d, d) hermitian
    oracle: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def amplitude_matrix(self) -> np.ndarray:
        """Normalized tensor image, reshaped to d x d: sum c (v1 v2^T + eta v2 v1^T)/sqrt2."""
        psi = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for c, i, j in self.terms:
            v1, v2 = self.vectors[i], self.vectors[j]
            psi += c * (np.outer(v1, v2) + self.eta * np.outer(v2, v1)) / sqrt(2)
        return psi / np.linalg.norm(psi)

    def expected(self) -> dict:
        if not self.oracle:
            psi = self.amplitude_matrix()
            projector = self.basis @ self.basis.conj().T
            accum = psi.T @ projector.conj() @ psi.conj()
            evals = np.linalg.eigvalsh(accum / np.trace(accum).real)
            p = evals[evals > 1e-12]
            self.oracle = {
                "entropy": float(max(0.0, -np.sum(p * np.log2(p)))),
                "extended": float(np.vdot(psi, self.operator @ psi + psi @ self.operator.T).real),
                "finite": bool(np.all(np.isfinite(psi))),
            }
        return self.oracle


def _pair_input(rng: np.random.Generator, terms: int, d: int, eta: int) -> PairInput:
    vectors = np.array([_random_unit(rng, d) for _ in range(2 * terms)])
    coefficients = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    spec = [(complex(c), 2 * t, 2 * t + 1) for t, c in enumerate(coefficients)]
    z = rng.standard_normal((d, d // 2)) + 1j * rng.standard_normal((d, d // 2))
    basis, _ = np.linalg.qr(z)
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return PairInput(eta, vectors, spec, basis, (h + h.conj().T) / 2)


class PairStates:
    item = "states"
    tail_q = 0.9  # 10 beyond needs 100 operations; a 20 s run made 100-410
    LAYERS = {
        "nolabel.build_s", "nolabel.normalize_s", "nolabel.entropy_s", "nolabel.extexp_s",
        "nolabel.reduce_s", "nolabel.terms_in", "nolabel.terms_kept", "hilbert.entropy_s",
        "hilbert.eig_dim", "bench.op_s",
    }

    def __init__(self, name: str, ladder) -> None:
        self.name = name
        self.ladder = ladder

    def inputs(self, seed: int) -> list[PairInput]:
        rng = seeded_rng(seed, self.name)
        # exchange signs alternate along the ladder
        return [
            _pair_input(rng, terms, d, (+1, -1)[i % 2]) for i, (terms, d) in enumerate(self.ladder)
        ]

    def items(self, inp: PairInput) -> int:
        return 1

    def layers(self, inputs: list[PairInput]) -> set[str]:
        return self.LAYERS

    def run(self, inp: PairInput, t):
        with t.span("nolabel.build"):
            space = HilbertSpace.of_dim(inp.dim)
            kets = [Ket(space, v) for v in inp.vectors]
            state = nolabel.NoLabelState(
                [(c, nolabel.NoLabelPair(kets[i], kets[j], inp.eta)) for c, i, j in inp.terms],
                eta=inp.eta,
            )
            # a representation without a term list keeps no terms
            t.count(**{
                "nolabel.terms_in": len(inp.terms),
                "nolabel.terms_kept": len(getattr(state, "terms", ())),
            })
        with t.span("nolabel.normalize"):
            state = state.normalized()
        basis = [Ket(space, inp.basis[:, k]) for k in range(inp.basis.shape[1])]
        operator = OperatorMatrix(space, inp.operator)
        with t.span("nolabel.entropy"):
            entropy = nolabel.entanglement_entropy(state, basis)
        with t.span("nolabel.extexp"):
            extended = nolabel.extended_expectation(state, operator)
        return state, basis, entropy, extended

    def probe(self, inp: PairInput, out, t) -> None:
        state, basis, _, _ = out
        with t.probe("nolabel.reduce"):
            reduced = nolabel.subspace_reduced_dm(state, basis)
        with t.probe("hilbert.entropy", **{"hilbert.eig_dim": reduced.matrix.dim}):
            von_neumann_entropy(reduced.matrix)

    def check(self, inp: PairInput, out) -> list[str]:
        _, _, entropy, extended = out
        want = inp.expected()
        problems = []
        if not want["finite"]:
            problems.append("generator produced a non-finite state")
        if not abs(entropy - want["entropy"]) <= TOL:
            problems.append(f"entropy {entropy!r} != oracle {want['entropy']!r}")
        if not abs(extended - want["extended"]) <= TOL:
            problems.append(f"extended expectation {extended!r} != oracle {want['extended']!r}")
        return problems


def make(name: str, scratch: str):
    """The workload called ``name``; ``scratch`` takes the CLI's output files."""
    if name == "registry":
        return Registry(scratch)
    if name == "fock-ladder":
        return FockLadder()
    if name == "pair-terms":
        return PairStates(name, PAIR_TERMS_LADDER)
    if name == "pair-wide":
        return PairStates(name, PAIR_WIDE_LADDER)
    raise KeyError(name)


WORKLOADS = ("registry", "fock-ladder", "pair-terms", "pair-wide")
