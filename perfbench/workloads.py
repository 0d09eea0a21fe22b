"""Inputs, operations and verdict checks of the three benchmark workloads.

A workload turns the benchmark seed into inputs, and the inputs into
rounds of operations.  Each operation makes one verdict through
causalkit's public API and carries a checker that compares the verdict
with an expectation made without causalkit: from the lemma statements,
from the graph and construction of a structural model, from this
module's own exact enumeration of the noise, or from its own exact
forward substitution of a linear model.

The program only ever sees the generated inputs; the seeds stay here.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path
from random import Random
from typing import Any, Callable, Iterator, Optional

LEMMA_IDS = (
    "active-reflected", "composition", "intervention-commutes",
    "noeffect-preserved", "product-effects", "product-validity",
    "pushforward-uniqueness", "rigidity", "scm-inclusion", "sources-preserved",
)


@dataclass
class Op:
    """One verdict: ``run`` calls the program, ``check`` judges its output.

    ``check`` returns None for a correct verdict and a reason otherwise.
    ``kind`` names the per-kind latency metric the verdict counts towards.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# --------------------------------------------------------------- lemma-suites

_TRIAL_SUMMARY = re.compile(
    r"^1 trials, (\d+) covered and passed, (\d+) not covered, 0 failed$")


def check_lemma_report(lemma_id: str, report) -> Optional[str]:
    """A single-trial suite must pass and account for exactly one trial.

    The lemmas are theorems of the paper, so every trial of an instance
    built to satisfy their hypotheses passes (pushforward-uniqueness passes
    only when a tampered target is rejected).
    """
    if report.check != f"lemma:{lemma_id}":
        return f"report names {report.check!r}, expected lemma:{lemma_id}"
    if not report.passed:
        msg = report.witness.message if report.witness else "no witness"
        return f"lemma {lemma_id} failed: {msg}"
    m = _TRIAL_SUMMARY.match(report.details[0]) if len(report.details) == 1 else None
    if m is None or int(m.group(1)) + int(m.group(2)) != 1:
        return f"lemma {lemma_id} does not account for one trial: {report.details}"
    return None


class LemmaSuites:
    """One trial per call of ``lemma_suite``, cycling over the ten lemma ids.

    Round ``r`` runs each lemma once on the trial seed ``seed * 2**20 + r``;
    the seed fixes the whole sequence of rounds, and a run takes as many
    whole rounds of it as its time allows.
    """

    name = "lemma-suites"
    kinds = LEMMA_IDS
    trace_rounds = 10

    def generate(self, seed: int, ck, workdir: Path) -> dict:
        if tuple(ck.LEMMA_IDS) != LEMMA_IDS:
            raise RuntimeError(f"lemma ids changed: {ck.LEMMA_IDS}")
        return {"seed": seed}

    def rounds(self, inputs: dict, ck) -> Iterator[list[Op]]:
        base = inputs["seed"] << 20
        r = 0
        while True:
            yield [self.op(ck, lemma_id, base + r) for lemma_id in LEMMA_IDS]
            r += 1

    @staticmethod
    def op(ck, lemma_id: str, trial_seed: int) -> Op:
        return Op(
            kind=lemma_id,
            label=f"lemma {lemma_id} seed {trial_seed}",
            run=lambda: ck.lemma_suite(lemma_id, trials=1, seed=trial_seed),
            check=lambda report: check_lemma_report(lemma_id, report),
        )


# ---------------------------------------------------------------- scm-queries

@dataclass
class ScmModel:
    """A finite structural model with two disconnected components.

    Every variable is ``(sum of its parents + noise) mod cardinality`` with a
    two-valued noise of weights ``(1 - w, w)``, ``w`` in {1/5, 2/5, 3/5, 4/5}.
    Component A is a chain A0 -> A1 -> ... (sometimes with a skip edge
    A0 -> A2); component B is a chain B0 -> B1 -> ...
    """

    names: tuple[str, ...]
    cards: dict[str, int]
    parents: dict[str, tuple[str, ...]]
    noise: dict[str, tuple[Fraction, Fraction]]

    @classmethod
    def draw(cls, rng: Random, cards_a: tuple[int, ...], cards_b: tuple[int, ...]):
        names, cards, parents, noise = [], {}, {}, {}
        for comp, comp_cards in (("A", cards_a), ("B", cards_b)):
            for i, k in enumerate(comp_cards):
                v = f"{comp}{i}"
                names.append(v)
                cards[v] = k
                ps = [f"{comp}{i - 1}"] if i else []
                if comp == "A" and i == 2 and rng.random() < 0.5:
                    ps.insert(0, "A0")
                parents[v] = tuple(ps)
                w = Fraction(rng.randint(1, 4), 5)
                noise[v] = (1 - w, w)
        return cls(tuple(names), cards, parents, noise)

    @property
    def n_outcomes(self) -> int:
        n = 1
        for v in self.names:
            n *= self.cards[v]
        return n

    def value(self, v: str, parent_values: tuple[int, ...], noise: int) -> int:
        return (sum(parent_values) + noise) % self.cards[v]

    def document(self) -> dict:
        mechanisms = {}
        for v in self.names:
            table = []
            for pv in iproduct(*(range(self.cards[p]) for p in self.parents[v])):
                for nv in range(2):
                    table.append(self.value(v, pv, nv))
            mechanisms[v] = table
        return {
            "kind": "finite-scm",
            "variables": [{"name": v, "cardinality": self.cards[v]} for v in self.names],
            "parents": {v: list(self.parents[v]) for v in self.names},
            "noises": {v: [str(w) for w in self.noise[v]] for v in self.names},
            "mechanisms": mechanisms,
        }

    def descendants(self, v: str) -> set[str]:
        out, frontier = set(), {v}
        while frontier:
            frontier = {c for c in self.names
                        for p in frontier if p in self.parents[c]} - out
            out |= frontier
        return out

    def law(self, pinned: dict[str, int]) -> dict[tuple[int, ...], Fraction]:
        """Exact joint law with ``pinned`` held fixed, by noise enumeration.

        The variables are listed in topological order, so one pass in that
        order evaluates every equation after its parents.
        """
        free = [v for v in self.names if v not in pinned]
        law: dict[tuple[int, ...], Fraction] = {}
        for combo in iproduct((0, 1), repeat=len(free)):
            prob = Fraction(1)
            vals = dict(pinned)
            noise_of = dict(zip(free, combo))
            for v in self.names:
                if v in pinned:
                    continue
                prob *= self.noise[v][noise_of[v]]
                vals[v] = self.value(v, tuple(vals[p] for p in self.parents[v]),
                                     noise_of[v])
            key = tuple(vals[v] for v in self.names)
            law[key] = law.get(key, Fraction(0)) + prob
        return law

    def marginal(self, law, names) -> dict[tuple[int, ...], Fraction]:
        pos = [self.names.index(n) for n in names]
        out: dict[tuple[int, ...], Fraction] = {}
        for key, p in law.items():
            sub = tuple(key[i] for i in pos)
            out[sub] = out.get(sub, Fraction(0)) + p
        return out

    # -- expectations from this model's own enumeration

    def active(self, on: str, target: str) -> bool:
        """Some do(on = x) moves the law of ``target`` away from P."""
        base = self.marginal(self.law({}), (target,))
        return any(self.marginal(self.law({on: x}), (target,)) != base
                   for x in range(self.cards[on]))

    def dependent(self, first: str, second: str) -> bool:
        """P(first, second) differs from P(first) P(second) somewhere."""
        law = self.law({})
        joint = self.marginal(law, (first, second))
        pa, pb = self.marginal(law, (first,)), self.marginal(law, (second,))
        return any(joint.get((a, b), 0) != pa.get((a,), 0) * pb.get((b,), 0)
                   for a in range(self.cards[first]) for b in range(self.cards[second]))


@dataclass(frozen=True)
class Shape:
    """Chain cardinalities of components A and B, and the independence families.

    ``first`` and ``second`` have at most 16 atoms together, so the CLI's
    "all union pairs" note is true whichever count it goes by.
    """

    cards_a: tuple[int, ...]
    cards_b: tuple[int, ...]
    first: tuple[str, ...]
    second: tuple[str, ...]


SCM_SHAPES = (
    Shape((2, 2), (2, 2), ("A0", "A1"), ("B0", "B1")),             # 16 outcomes
    Shape((2, 2, 2), (2, 2), ("A1", "A2"), ("B0", "B1")),          # 32
    Shape((4, 2), (4, 2), ("A1",), ("B1",)),                       # 64
    Shape((4, 4), (4, 2), ("A1",), ("B1",)),                       # 128
)
# no-effect questions asked of the largest model; they make the slowest
# seventh of the verdicts, so the 90th percentile falls inside one kind
LARGEST_NO_EFFECT = 7


def run_cli(ck, argv: list[str]) -> tuple[int, str]:
    """``causalkit`` in this process, as a user calls it, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ck.cli.main(argv + ["--json"])
    return code, out.getvalue() or err.getvalue()


class ScmQueries:
    """CLI commands on finite-scm documents of 16 to 128 outcomes.

    Set-up draws one model per shape from the seed and writes its document.
    Every round asks each model the same questions: validate, no effect on
    a non-descendant, an ancestrally closed source and independence across
    the components scan exhaustively and pass; an active effect on a child,
    a child that is no source of its parent and a dependent pair stop at
    their first witness.
    """

    name = "scm-queries"
    kinds = ("validate", "classify", "source", "independence")
    trace_rounds = 1

    def generate(self, seed: int, ck, workdir: Path) -> dict:
        from jsonschema import Draft202012Validator

        rng = Random(seed)
        docs = []
        for i, shape in enumerate(SCM_SHAPES):
            model = ScmModel.draw(rng, shape.cards_a, shape.cards_b)
            path = workdir / f"scm-{i}-{model.n_outcomes}.json"
            path.write_text(json.dumps(model.document(), indent=2), encoding="utf-8")
            docs.append((shape, model, str(path)))
        schema_path = Path(ck.__file__).with_name("report_schema.json")
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        return {"docs": docs, "validator": Draft202012Validator(schema)}

    def rounds(self, inputs: dict, ck) -> Iterator[list[Op]]:
        ops = []
        largest = max(model.n_outcomes for _, model, _ in inputs["docs"])
        for shape, model, path in inputs["docs"]:
            ops.extend(self.questions(ck, inputs["validator"], shape, model, path,
                                      largest))
        while True:
            yield ops

    def questions(self, ck, validator, shape: Shape, model: ScmModel,
                  path: str, max_outcomes: int) -> list[Op]:
        a = [v for v in model.names if v.startswith("A")]
        b = [v for v in model.names if v.startswith("B")]
        n = model.n_outcomes
        ops = []

        def add(kind, argv, passed, check_extra=None):
            label = f"{n} outcomes: {' '.join(argv[:1] + argv[2:])}"
            ops.append(Op(kind, label, lambda: run_cli(ck, argv),
                          lambda out: check_cli(validator, out, passed, check_extra)))

        def classified(tag):
            def check(report):
                notes = report["details"]
                if not notes or notes[0] != f"classification: {tag}":
                    return f"expected {tag}, got {notes[:1]}"
                if (report["witness"] is None) != (tag == "no-effect"):
                    return "witness present exactly when there is an effect is violated"
                return None
            return check

        # exhaustive passes; no effect on non-descendants follows from the graph
        add("validate", ["validate", path], True)
        pairs = [(on, target) for on in (a[1], b[1], a[0], b[0]) for target in model.names
                 if target != on and target not in model.descendants(on)]
        for on, target in pairs[:LARGEST_NO_EFFECT if n == max_outcomes else 1]:
            add("classify", ["classify", path, "--on", on, "--target", target],
                True, classified("no-effect"))
        add("source", ["source", path, "--on", a[0], a[1], b[0], "--target", a[-1], b[-1]],
            True)
        first, second = ",".join(shape.first), ",".join(shape.second)
        add("independence", ["independence", path, "--first", first, "--second", second],
            True, lambda r: None if r["details"] == [
                "all union pairs of the two atom families checked"] else
            f"unexpected note {r['details']}")
        # early exits on the first edge of each component, each expectation
        # from this module's own enumeration
        for parent, child in ((a[0], a[1]), (b[0], b[1])):
            if not (model.active(parent, child) and model.dependent(parent, child)):
                raise RuntimeError(f"{path}: {parent} -> {child} carries no dependence")
            add("classify", ["classify", path, "--on", parent, "--target", child],
                True, classified("active"))
            add("source", ["source", path, "--on", child, "--target", parent], False)
            add("independence", ["independence", path, "--first", parent,
                                 "--second", child], False)
        return ops


def check_cli(validator, out: tuple[int, str], passed: bool,
              check_extra=None) -> Optional[str]:
    code, text = out
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return f"exit {code} without a JSON report: {text[:200]!r}"
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        return f"report violates the schema: {errors[0].message}"
    if report["passed"] is not passed:
        return f"passed is {report['passed']}, expected {passed}"
    if code != (0 if passed else 1):
        return f"exit code {code} disagrees with passed={report['passed']}"
    if (report["witness"] is None) != passed and report["check"] != "effect-classification":
        return "a failing report must carry a witness and a passing one none"
    return check_extra(report) if check_extra else None


# ------------------------------------------------------------- gaussian-scale

GAUSS_DIMS = tuple(range(4, 11))
GAUSS_TOL = 1e-9
GRID = 64  # every drawn number is a multiple of 1/64, exact in binary


def _dyadic(x: float) -> float:
    return round(x * GRID) / GRID


def exact_cov(coefficients, variances) -> list[list[Fraction]]:
    """Covariance of X = B X + N by forward substitution over the rationals.

    ``coefficients`` is strictly lower triangular; every float is taken at
    its exact binary value, so the result is the true covariance of the
    model the program receives.
    """
    d = len(variances)
    b = [[Fraction(coefficients[i][j]) for j in range(d)] for i in range(d)]
    cov = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i):
            cov[i][j] = cov[j][i] = sum((b[i][k] * cov[k][j] for k in range(i)), Fraction(0))
        cov[i][i] = (sum((b[i][k] * b[i][m] * cov[k][m] for k in range(i) for m in range(i)),
                         Fraction(0)) + Fraction(variances[i]))
    return cov


def worst_gap(pushed, target) -> Fraction:
    """Largest |pushed - target| / (1 + |target|) over covariance entries."""
    return max(abs(p - t) / (1 + abs(t))
               for prow, trow in zip(pushed, target) for p, t in zip(prow, trow))


@dataclass
class GaussCase:
    d: int
    source: tuple          # (coefficients, variances) as nested float lists
    scales: list[float]
    rescaled: tuple
    perturbed: tuple


def draw_gauss_case(rng: Random, d: int) -> GaussCase:
    """A model, its diagonal rescaling, and the rescaling with one coefficient moved.

    Coefficients are N(0, 1/4) with half of them zero and clipped to
    [-1, 1]; at this scale the package's covariance symmetry test never
    trips (it does at larger scales, see CHANGES.md).
    """
    coef = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i):
            if rng.random() < 0.5:
                coef[i][j] = max(-1.0, min(1.0, _dyadic(rng.gauss(0.0, 0.5))))
    var = [_dyadic(rng.uniform(0.5, 2.0)) for _ in range(d)]
    scale = [_dyadic(rng.uniform(0.5, 2.0)) for _ in range(d)]
    coef2 = [[scale[i] * coef[i][j] / scale[j] for j in range(d)] for i in range(d)]
    var2 = [var[i] * scale[i] * scale[i] for i in range(d)]
    i = rng.randrange(1, d)
    j = rng.randrange(i)
    moved = [row[:] for row in coef2]
    moved[i][j] += rng.choice((-1, 1)) * _dyadic(rng.uniform(0.25, 0.5))
    return GaussCase(d, (coef, var), scale, (coef2, var2), (moved, var2))


class GaussianScale:
    """``check_linear_transform`` on linear-Gaussian models of dimension 4 to 10.

    Each round checks one model per dimension against its diagonal
    rescaling (an exact abstraction, must pass) and against the perturbed
    twin of that rescaling (must fail).  Set-up confirms both expectations
    by exact forward substitution.
    """

    name = "gaussian-scale"
    kinds = tuple(f"d{d}" for d in GAUSS_DIMS)
    trace_rounds = 1

    def generate(self, seed: int, ck, workdir: Path) -> dict:
        import numpy as np

        rng = Random(seed)
        cases = []
        for d in GAUSS_DIMS:
            case = draw_gauss_case(rng, d)
            src_names = tuple(f"X{k}" for k in range(d))
            tgt_names = tuple(f"Y{k}" for k in range(d))

            def model(names, part):
                return ck.LinearGaussianSCM(names, np.array(part[0]), np.array(part[1]))

            cases.append((case, model(src_names, case.source),
                          model(tgt_names, case.rescaled), model(tgt_names, case.perturbed),
                          np.diag(case.scales), dict(zip(src_names, tgt_names))))
        return {"cases": cases}

    def rounds(self, inputs: dict, ck) -> Iterator[list[Op]]:
        ops = []
        for case, source, rescaled, perturbed, matrix, rho in inputs["cases"]:
            src = exact_cov(*case.source)
            pushed = [[case.scales[i] * src[i][j] * case.scales[j]
                       for j in range(case.d)] for i in range(case.d)]
            for target, part, passed in ((rescaled, case.rescaled, True),
                                         (perturbed, case.perturbed, False)):
                gap = worst_gap(pushed, exact_cov(*part))
                # a thousandfold margin either side of the tolerance
                if (gap <= GAUSS_TOL / 1000) != passed or (
                        not passed and gap < GAUSS_TOL * 1000):
                    raise RuntimeError(f"d={case.d}: exact gap {float(gap):.3g} "
                                       f"does not settle the verdict")
                ops.append(Op(
                    kind=f"d{case.d}",
                    label=f"d={case.d} {'rescaling' if passed else 'perturbed twin'}",
                    run=(lambda s=source, t=target, m=matrix, r=rho:
                         ck.check_linear_transform(s, t, m, r, GAUSS_TOL)),
                    check=lambda report, p=passed: check_gaussian_report(report, p),
                ))
        while True:
            yield ops


def check_gaussian_report(report, passed: bool) -> Optional[str]:
    if report.passed is not passed:
        return f"passed is {report.passed}, expected {passed}"
    if not passed:
        dist = next((r for r in report.subreports if r.check == "distributional"), None)
        if dist is None or dist.passed:
            return "the perturbed twin's target law is not reported as moved"
    return None


WORKLOADS = {w.name: w for w in (LemmaSuites, ScmQueries, GaussianScale)}
