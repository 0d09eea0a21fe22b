"""Print one sha256 digest over the reports that must not change, and
exit 1 unless it equals the one committed in ``report_digest.expected``.

A change that should leave every verdict and witness byte-identical is
checked by this script passing on it; two checkouts can also be compared
by the digests they print.  The digest covers, in this order:

- ``to_dict()`` and ``render()`` of every lemma suite at seeds 0-2, five
  trials each;
- the ``--json`` and plain output, and the exit code, of the command each
  shipped corpus artifact's golden report is made with;
- for the example models and for ``random_space`` seeds 0-59 (also with
  either axiom tampered), over every pair (U, V) of coordinate subsets:
  ``classify_effect_on``, ``is_source``, and ``classify_effect`` on each
  atom of V and on the complement of its first atom; and for every U,
  ``causally_independent_on`` of each pair of single coordinates and of
  each ordered pair of disjoint coordinate families with three or more
  names between them;
- ``causally_independent`` on every pair of events (each unordered pair
  once, an event also with itself), for the same spaces and every U: the
  cylinder of each coordinate value, the full and the empty event, and
  four random events per space;
- the ``--json`` and plain output, and the exit code, of ``independence``
  in its event form on each shipped finite model, for every U and every
  unordered pair of event specs: each coordinate at value 1, the empty
  spec, and the first coordinate at value 0 or 1;
- ``causally_independent_on`` on products of two random models of three
  3-valued variables each (``PRODUCT_SEEDS``), for every U of at most one
  name and every ordered pair of disjoint families with 17-30 atoms
  between them;
- the rows section: the weights and support bitmask of every row of the
  base measure and of every kernel that ``intervene`` (for every U of
  ``random_space`` seeds 0-39), ``independent_pinning_space``, ``product``
  and ``rename`` (``PRODUCT_SPACE_SEEDS``), ``inclusion_into_product``,
  ``kernel_compose`` and ``compose``, ``pushforward_space`` and
  ``pushforward_intervention`` (``_random_abstraction`` seeds 0-39, every
  intervened target subset), ``marginal_space`` and ``inclusion_transform``
  (the example models, every kept subset) and ``compile_scm`` (the example
  models, and ``_random_scm`` models with noises over thirds, sevenths,
  ninths and elevenths, ``MIXED_SCM_SEEDS``, each also with a zero-weight
  noise value put first on every variable) build, with the
  ``validate_causal_space`` and ``check_all`` reports of what they build
  and the text of any error they raise;
- the tampered section: ``check_all`` on the rows section's
  ``_random_abstraction`` instances with their pushforward target tampered
  as ``_trial_pushforward_uniqueness`` tampers it, so that failing
  interventional reports and their witnesses are covered;
- the Gaussian section: the reports of ``check_linear_transform`` on
  seeded models at d = 2-10 against their diagonal rescaling and against a
  perturbed twin, on wide models (coefficients N(0, 3^2), covariance
  entries up to about 1e6) at d = 8 and 10 against the identity and a
  rescaling, and of ``check_affine_transform`` on seeded affine kernels
  with a non-injective rho and a full-rank covariance, each at every
  tolerance in ``GAUSS_TOLS``; then the error text or report of both
  checks on inputs that each carry one fault, among them kernel
  covariances whose smallest eigenvalue or asymmetry is 0.9 and 1.1 times
  its tolerance.

Run from the repository root (the script puts the checkout's ``src``
first on ``sys.path``):

    python3 scripts/report_digest.py

``report_digest.expected`` holds the total digest on its first line, then
one ``<section> <sha256>`` line per section, in the order above.  On a
mismatch both totals go to stderr, with the name of each section whose
digest differs.  A change that alters a report on purpose rewrites the
file and says why:

    PYTHONPATH=scripts python3 -c "import report_digest as r; print(*r.digests(), sep=chr(10))" > scripts/report_digest.expected
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

# the checkout's own package, whatever else is installed or on PYTHONPATH
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import causalkit as ck  # noqa: E402
from causalkit import cli, examples  # noqa: E402
from causalkit.oracle import (_random_abstraction, _random_scm, _random_weights,  # noqa: E402
                              _tampered)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "causalkit" / "corpus"
EXPECTED = Path(__file__).resolve().with_suffix(".expected")
SPACE_SEEDS = range(60)
LEMMA_SEEDS = range(3)
LEMMA_TRIALS = 5
PRODUCT_SEEDS = range(2)
ROW_SEEDS = range(40)
PRODUCT_SPACE_SEEDS = range(20)
MIXED_SCM_SEEDS = (0, 4, 6, 10, 19)
MAX_PRODUCT_OUTCOMES = 72
GAUSS_DIMS = range(2, 11)
GAUSS_SEEDS = range(3)
WIDE_DIMS = (8, 10)
WIDE_SEEDS = range(2)
GAUSS_TOLS = (0.0, 1e-12, 1e-9, 1e-6)
EXAMPLE_SCMS = ("xor_scm", "parity_scm", "fork_scm", "collider_scm",
                "mediator_confounder_scm", "composition_scm",
                "faithfulness_full_scm")


def report_text(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True) + "\n" + report.render() + "\n"


def lemma_section():
    for lemma_id in ck.LEMMA_IDS:
        for seed in LEMMA_SEEDS:
            yield report_text(ck.lemma_suite(lemma_id, trials=LEMMA_TRIALS, seed=seed))


def corpus_section():
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".report.json"):
            continue
        kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
        command = "check-transform" if kind == "transformation" else "validate"
        for extra in (["--json"], []):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli.main([command, str(path)] + extra)
            yield f"{path.name} {extra} exit={code}\n{buffer.getvalue()}"


def spaces():
    for name in EXAMPLE_SCMS:
        yield name, ck.compile_scm(getattr(examples, name)())
    yield "faithfulness_independent_space", examples.faithfulness_independent_space()
    for seed in SPACE_SEEDS:
        yield f"random_space({seed})", ck.random_space(seed)
        for perturb in ("axiom-i", "axiom-ii"):
            yield f"random_space({seed}, {perturb})", ck.random_space(seed, perturb=perturb)


def disjoint_pairs(names):
    """Ordered pairs of disjoint nonempty families of ``names``."""
    subsets = [s for s in ck.subsets_of(names) if s]
    for a in subsets:
        for b in subsets:
            if not set(a) & set(b):
                yield a, b


def space_section():
    for label, c in spaces():
        names = c.space.names
        subsets = list(ck.subsets_of(names))
        for U in subsets:
            for V in subsets:
                out = [f"{label} U={U} V={V}"]
                out.append(json.dumps(ck.classify_effect_on(c, U, V).to_dict(),
                                      sort_keys=True))
                out.append(report_text(ck.is_source(c, U, V)))
                v_atoms = ck.atoms(c.space, V)
                for event in v_atoms + [v_atoms[0].complement()]:
                    out.append(json.dumps(ck.classify_effect(c, U, event).to_dict(),
                                          sort_keys=True))
                yield "\n".join(out) + "\n"
            out = [f"{label} U={U} independence"]
            for i, a in enumerate(names):
                for b in names[i:]:
                    out.append(str(ck.causally_independent_on(c, U, (a,), (b,))))
            for a, b in disjoint_pairs(names):
                if len(a) + len(b) >= 3:
                    out.append(f"{a} {b} {ck.causally_independent_on(c, U, a, b)}")
            yield "\n".join(out) + "\n"


def event_section():
    for number, (label, c) in enumerate(spaces()):
        space = c.space
        rng = Random(number)
        events = [ck.Event.cylinder(space, {n: v})
                  for n, card in zip(space.names, space.cards) for v in range(card)]
        events += [ck.Event.full(space), ck.Event.empty(space)]
        events += [ck.Event(space, rng.getrandbits(space.n_outcomes)) for _ in range(4)]
        for U in ck.subsets_of(space.names):
            verdicts = "".join("1" if ck.causally_independent(c, U, a, b) else "0"
                               for i, a in enumerate(events) for b in events[i:])
            yield f"{label} U={U} event independence {verdicts}\n"


def cli_event_section():
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".report.json") or json.loads(
                path.read_text(encoding="utf-8"))["kind"] not in ("finite-scm", "finite-space"):
            continue
        space = cli._load_space(str(path)).space
        specs = [{n: 1} for n in space.names] + [{}, {space.names[0]: [0, 1]}]
        for U in ck.subsets_of(space.names):
            for i, first in enumerate(specs):
                for second in specs[i:]:
                    args = ["independence", str(path), "--on", *U, "--first",
                            json.dumps(first), "--second", json.dumps(second)]
                    for extra in (["--json"], []):
                        buffer = io.StringIO()
                        with redirect_stdout(buffer):
                            code = cli.main(args + extra)
                        yield f"{args[2:]} {extra} exit={code}\n{buffer.getvalue()}"


def product_section():
    for seed in PRODUCT_SEEDS:
        rng = Random(seed)
        c = ck.product(ck.compile_scm(_random_scm(rng, "A", cards=[3, 3, 3])),
                       ck.compile_scm(_random_scm(rng, "B", cards=[3, 3, 3])))
        names = c.space.names
        for U in ck.subsets_of(names):
            if len(U) > 1:
                continue
            out = [f"product({seed}) U={U} independence"]
            for a, b in disjoint_pairs(names):
                if 17 <= 3 ** len(a) + 3 ** len(b) <= 30:
                    out.append(f"{a} {b} {ck.causally_independent_on(c, U, a, b)}")
            yield "\n".join(out) + "\n"


def row_text(row) -> str:
    return f"{row.support_mask:x} " + " ".join(map(str, row.weights)) + "\n"


def kernel_text(k) -> str:
    return "".join(row_text(r) for r in k.rows)


def space_rows(label: str, c) -> str:
    """Every row of a causal space, then its axiom report."""
    out = [f"{label}\n", row_text(c.P)]
    for s in c.subsets():
        out.append(f"K{s}\n" + kernel_text(c.kernel(s)))
    out.append(report_text(ck.validate_causal_space(c)))
    return "".join(out)


def guarded(label: str, build) -> str:
    """``build()``'s text, or the error it raises."""
    try:
        return build()
    except ck.CausalKitError as exc:
        return f"{label} {type(exc).__name__}: {exc}\n"


def identity(c) -> ck.Transformation:
    names = c.space.names
    return ck.Transformation(c, c, ck.IndexMap(names, names, {n: n for n in names}),
                             outcome_map=tuple(range(c.space.n_outcomes)))


def with_null_noise(scm) -> ck.FiniteSCM:
    """``scm`` with a noise value of weight 0 put first on every variable,
    sent to its parent row's index modulo the variable's cardinality."""
    noises, mechanisms = {}, {}
    for v in scm.names:
        k, table = len(scm.noises[v]), scm.mechanisms[v]
        noises[v] = (Fraction(0),) + scm.noises[v]
        mechanisms[v] = tuple(x for r in range(len(table) // k)
                              for x in (r % scm.cards[v],) + table[r * k:(r + 1) * k])
    return ck.FiniteSCM(scm.variables, scm.parents, noises, mechanisms)


def rows_section():
    for seed in ROW_SEEDS:
        c = ck.random_space(seed)
        names = c.space.names
        yield space_rows(f"pinning({seed})", ck.independent_pinning_space(c.P))
        for U in ck.subsets_of(names):
            q = ck.project(c.P, U)
            yield space_rows(f"intervene({seed}) U={U}", ck.intervene(c, U, q))
            yield f"compose({seed}) U={U}\n" + kernel_text(
                ck.kernel_compose(c.kernel(U), c.kernel(names)))
        yield space_rows(f"intervene({seed}) on all by itself",
                         ck.intervene(c, names, c.P, c))

    for seed in PRODUCT_SPACE_SEEDS:
        a = ck.random_space(seed)
        b = ck.rename(ck.random_space(seed + 1), {n: "W" + n for n in a.space.names})
        if a.space.n_outcomes * b.space.n_outcomes > MAX_PRODUCT_OUTCOMES:
            continue
        both = ck.product(a, b)
        yield space_rows(f"rename({seed + 1})", b)
        yield space_rows(f"product({seed})", both)
        incl = ck.inclusion_into_product(a, b)
        yield (f"inclusion_into_product({seed})\n" + kernel_text(incl.kernel)
               + report_text(ck.check_all(incl)))
        composite, report = ck.compose(incl, identity(both))
        yield f"compose({seed})\n" + kernel_text(composite.kernel) + report_text(report)

    for seed in ROW_SEEDS:
        rng = Random(seed)
        inst = _random_abstraction(rng)
        t = inst.t
        pushed = ck.pushforward_space(inst.source, t.outcome_map, t.rho, inst.target.space)
        yield space_rows(f"pushforward({seed})", pushed.space) + report_text(pushed.report)
        for u2 in ck.subsets_of(inst.target.space.names):
            if not u2:
                continue
            u1_space = inst.source.space.restrict(t.rho.preimage(u2))
            q1 = ck.FiniteMeasure(u1_space, _random_weights(rng, u1_space.n_outcomes))
            label = f"pushforward_intervention({seed}) U={u2}"

            def build():
                done = ck.pushforward_intervention(
                    inst.source, t.outcome_map, t.rho, inst.target.space, u2, q1)
                return (space_rows(label, done.source_intervened)
                        + space_rows(label, done.target_intervened)
                        + report_text(done.report))

            yield guarded(label, build)

    for name in EXAMPLE_SCMS:
        scm = getattr(examples, name)()
        for keep in ck.subsets_of(scm.names):
            if not keep:
                continue
            yield space_rows(f"marginal_space({name}, {keep})", ck.marginal_space(scm, keep))

            def build():
                t = ck.inclusion_transform(scm, keep)
                return (f"inclusion_transform({name}, {keep})\n" + kernel_text(t.kernel)
                        + report_text(ck.check_all(t)))

            yield guarded(f"inclusion_transform({name}, {keep})", build)

    for name in EXAMPLE_SCMS:
        yield space_rows(f"compile_scm({name})", ck.compile_scm(getattr(examples, name)()))
    for seed in MIXED_SCM_SEEDS:
        scm = _random_scm(Random(seed), "R", n_vars=3)
        yield space_rows(f"compile_scm(random {seed})", ck.compile_scm(scm))
        yield space_rows(f"compile_scm(random {seed}, null noise)",
                         ck.compile_scm(with_null_noise(scm)))


def tampered_section():
    """``check_all`` on each rows-section abstraction whose pushforward target
    is tampered as the pushforward-uniqueness trial tampers it: at the first
    nonempty subset and atom whose fiber has two or more outcomes."""
    for seed in ROW_SEEDS:
        inst = _random_abstraction(Random(seed))
        target = inst.target
        site = next(((subset, a, fiber) for subset in ck.subsets_of(target.space.names)
                     if subset
                     for a, fiber in enumerate(ck.atoms(target.space, subset))
                     if len(list(fiber.indices())) > 1), None)
        if site is None:
            continue
        subset, a, fiber = site
        inside = list(fiber.indices())
        w = target.kernel(subset).rows[a].weights
        src = next(i for i, x in enumerate(w) if x > 0)
        moved = next((i for i in inside if w[i] == 0), None)
        if moved is None:
            moved = next(i for i in inside if i != src)
        t = ck.Transformation(inst.source, _tampered(target, subset, a, src, moved),
                              inst.t.rho, outcome_map=inst.t.outcome_map)
        yield f"tampered({seed}) S={subset} atom={a}\n" + report_text(ck.check_all(t))


def gauss_model(rng, names) -> ck.LinearGaussianSCM:
    d = len(names)
    b = np.tril(rng.normal(0.0, 1.0, (d, d)), -1) * (rng.random((d, d)) < 0.6)
    return ck.LinearGaussianSCM(names, b, rng.uniform(0.5, 2.0, d), rng.normal(0.0, 1.0, d))


def wide_model(rng, names) -> ck.LinearGaussianSCM:
    """Half of the coefficients N(0, 3^2): covariance entries up to about 1e6."""
    d = len(names)
    b = np.tril(rng.normal(0.0, 3.0, (d, d)), -1) * (rng.random((d, d)) < 0.5)
    return ck.LinearGaussianSCM(names, b, rng.uniform(0.5, 2.0, d))


def rescaled(source, names, scale, b) -> ck.LinearGaussianSCM:
    """The model with coefficients ``b`` and ``source``'s noise scaled by ``scale``."""
    return ck.LinearGaussianSCM(names, b, source.noise_variances * scale ** 2,
                                source.noise_means * scale)


def gauss_checks(label: str, check, *args):
    """``check(*args, tol)``'s report at every tolerance, or the error it raises."""
    for tol in GAUSS_TOLS:
        yield guarded(f"{label} tol={tol}",
                      lambda: f"{label} tol={tol}\n" + report_text(check(*args, tol)))


def gauss_faults():
    """Inputs to the Gaussian checks that each carry one fault, or sit next
    to one; every model and kernel is built inside its guarded call."""
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    linear, affine = ck.check_linear_transform, ck.check_affine_transform
    psd, sym = ck.gaussian.PSD_TOL, ck.gaussian.SYMMETRY_TOL

    def kernel(cov, offset=np.zeros(2)):
        return ck.AffineGaussianKernel(source.coords, target.coords, matrix, offset, cov)

    def nan_source():
        return ck.LinearGaussianSCM(source.coords, np.tril(np.full((4, 4), np.nan), -1),
                                    source.noise_variances)

    def doubled():
        return ck.LinearGaussianSCM(target.coords, [[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0])

    def narrowed(cov):
        # the target coordinate Z, outside the image, sets the kernel
        # covariance's scale to 1024; the scan's image slices have scale 1
        pair = ck.LinearGaussianSCM(("A", "B"), np.zeros((2, 2)), [0.0, 0.0])
        wide = ck.LinearGaussianSCM(("A", "B", "Z"), np.zeros((3, 3)), [1.0, 1.0, 1024.0])
        k = ck.AffineGaussianKernel(pair.coords, wide.coords, np.eye(3, 2), np.zeros(3), cov)
        return affine(pair, wide, k, {"A": "A", "B": "B"})

    cases = [
        ("matrix shape", lambda: linear(source, target, matrix[:, :3], rho)),
        ("rho undefined", lambda: linear(source, target, matrix,
                                         {"X1": "X", "X2": "X", "Y1": "Y"})),
        ("rho target unknown", lambda: linear(source, target, matrix, dict(rho, Y2="Z"))),
        ("source coefficients nan", lambda: linear(nan_source(), target, matrix, rho)),
        ("kernel inputs", lambda: affine(target, target, kernel(np.zeros((2, 2))), rho)),
        ("kernel offset shape", lambda: affine(source, target,
                                               kernel(np.zeros((2, 2)), np.zeros(3)), rho)),
        ("kernel covariance asymmetric", lambda: affine(
            source, target, kernel([[1.0, 0.5], [0.4, 1.0]]), rho)),
    ]
    for f in (0.9, 1.1):
        # smallest eigenvalue f * PSD_TOL: on X alone (pinning Y = 2 X doubles
        # it inside the scan), and along (1, 1) beside an eigenvalue 1
        lam = f * psd
        turned = [[(lam + 1.0) / 2, (lam - 1.0) / 2], [(lam - 1.0) / 2, (lam + 1.0) / 2]]
        cases += [
            (f"kernel covariance eigenvalue {f} x PSD_TOL doubled",
             lambda lam=lam: affine(source, doubled(), kernel(np.diag([lam, 0.0])), rho)),
            (f"kernel covariance eigenvalue {f} x PSD_TOL turned",
             lambda c=turned: affine(source, target, kernel(c), rho)),
            (f"kernel covariance eigenvalue {f} x PSD_TOL turned doubled",
             lambda c=turned: affine(source, doubled(), kernel(c), rho)),
        ]
        # asymmetry f * SYMMETRY_TOL * scale, the scale being 1024
        skew = [[1024.0, 512.0 + f * sym * 1024.0], [512.0, 1024.0]]
        cases += [
            (f"kernel covariance asymmetry {f} x SYMMETRY_TOL",
             lambda c=skew: affine(source, target, kernel(c), rho)),
            (f"kernel covariance asymmetry {f} x SYMMETRY_TOL doubled",
             lambda c=skew: affine(source, doubled(), kernel(c), rho)),
        ]
        lam = f * psd * 1024.0
        wide_skew = [[1.0, 0.5 + f * sym * 1024.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1024.0]]
        wide_turned = [[(lam + 1.0) / 2, (lam - 1.0) / 2, 0.0],
                       [(lam - 1.0) / 2, (lam + 1.0) / 2, 0.0], [0.0, 0.0, 1024.0]]
        cases += [
            (f"kernel covariance asymmetry {f} x SYMMETRY_TOL narrowed",
             lambda c=wide_skew: narrowed(c)),
            (f"kernel covariance eigenvalue {f} x PSD_TOL narrowed",
             lambda c=wide_turned: narrowed(c)),
        ]
    return cases


def gaussian_section():
    for d in GAUSS_DIMS:
        src = tuple(f"X{k}" for k in range(d))
        tgt = tuple(f"Y{k}" for k in range(d))
        for seed in GAUSS_SEEDS:
            rng = np.random.default_rng([d, seed])
            source = gauss_model(rng, src)
            scale = rng.uniform(0.5, 2.0, d)
            coef = scale[:, None] * source.coefficients / scale[None, :]
            moved = coef.copy()
            i = int(rng.integers(1, d))
            moved[i, rng.integers(i)] += rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 0.5)
            rho = dict(zip(src, tgt))
            for name, b in (("rescaled", coef), ("perturbed", moved)):
                yield from gauss_checks(f"linear d={d} seed={seed} {name}",
                                        ck.check_linear_transform, source,
                                        rescaled(source, tgt, scale, b), np.diag(scale), rho)

    for d in WIDE_DIMS:
        src = tuple(f"X{k}" for k in range(d))
        tgt = tuple(f"Y{k}" for k in range(d))
        for seed in WIDE_SEEDS:
            rng = np.random.default_rng([d, seed, 3])
            source = wide_model(rng, src)
            scale = rng.uniform(0.5, 2.0, d)
            coef = scale[:, None] * source.coefficients / scale[None, :]
            yield from gauss_checks(f"wide d={d} seed={seed} identity",
                                    ck.check_linear_transform, source, source, np.eye(d),
                                    {n: n for n in src})
            yield from gauss_checks(f"wide d={d} seed={seed} rescaled",
                                    ck.check_linear_transform, source,
                                    rescaled(source, tgt, scale, coef), np.diag(scale),
                                    dict(zip(src, tgt)))

    # d_s = d_t + 1 with an image smaller than the target: a non-injective rho
    for d2 in range(2, 6):
        src = tuple(f"X{k}" for k in range(d2 + 1))
        tgt = tuple(f"Y{k}" for k in range(d2))
        for seed in GAUSS_SEEDS:
            rng = np.random.default_rng([d2, seed, 1])
            source, target = gauss_model(rng, src), gauss_model(rng, tgt)
            image = [str(y) for y in rng.choice(tgt, size=int(rng.integers(1, d2)),
                                                replace=False)]
            rho = {x: image[k] if k < len(image) else str(rng.choice(image))
                   for k, x in enumerate(src)}
            root = rng.normal(0.0, 1.0, (d2, d2))
            kernel = ck.AffineGaussianKernel(src, tgt, rng.normal(0.0, 1.0, (d2, d2 + 1)),
                                             rng.normal(0.0, 1.0, d2), root @ root.T)
            yield from gauss_checks(f"affine d={d2} seed={seed}", ck.check_affine_transform,
                                    source, target, kernel, rho)

    for label, build in gauss_faults():
        yield guarded(f"fault {label}", lambda: report_text(build()))


SECTIONS = (("lemma", lemma_section), ("corpus", corpus_section),
            ("space", space_section), ("event", event_section),
            ("cli_event", cli_event_section), ("product", product_section),
            ("rows", rows_section), ("tampered", tampered_section),
            ("gaussian", gaussian_section))


def digests() -> list[str]:
    """The total digest, then one ``<section> <sha256>`` line per section."""
    total = hashlib.sha256()
    lines = []
    for name, section in SECTIONS:
        digest = hashlib.sha256()
        for text in section():
            data = text.encode("utf-8")
            total.update(data)
            digest.update(data)
        lines.append(f"{name} {digest.hexdigest()}")
    return [total.hexdigest()] + lines


def main() -> int:
    computed = digests()
    print(computed[0])
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    if computed == expected:
        return 0
    if computed[0] != expected[0]:
        print(f"digest mismatch: computed {computed[0]}, expected {expected[0]}",
              file=sys.stderr)
    for line in computed[1:]:
        if line not in expected[1:]:
            print(f"section {line.split()[0]} differs", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
