"""Command-line front end.

Loads spaces, structural models, and transformations from JSON documents,
runs any check or construction, and prints a human-readable report (or the
machine-readable structure under ``--json``, conforming to
``report_schema.json``).  Exit codes: 0 — every check passed or the
construction succeeded; 1 — a check failed (first witness printed);
2 — invalid input (parse error, schema violation, failed precondition).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional, Union

from . import serialize
from .causal import (
    FiniteCausalSpace,
    _first_failing_event_row,
    causally_independent_on,
    classify_effect,
    classify_effect_on,
    intervene,
    is_source,
    product,
    validate_causal_space,
)
from .errors import CausalKitError, SpecError
from .oracle import LEMMA_IDS, lemma_suite
from .report import CheckReport, Witness, combine
from .scm import FiniteSCM, compile_scm
from .serialize import GaussianTransform, parse_event_spec, parse_json, parse_rho
from .spaces import CoordinateSpace, Event, FiniteMeasure
from .tolerance import DEFAULT_TOL, check_tolerance
from .transform import IndexMap, Transformation, check_all, compose, pushforward_space


# ----------------------------------------------------------------- loading

def _as_space(artifact, origin: str) -> FiniteCausalSpace:
    if isinstance(artifact, FiniteCausalSpace):
        return artifact
    if isinstance(artifact, FiniteSCM):
        return compile_scm(artifact)
    raise SpecError(f"{origin}: expected a finite space or structural model, "
                    f"got {type(artifact).__name__}")


def _load_space(path: str) -> FiniteCausalSpace:
    return _as_space(serialize.load(path), path)


def _check_names(space: CoordinateSpace, names, what: str) -> tuple[str, ...]:
    unknown = [n for n in names if n not in space.names]
    if unknown:
        raise SpecError(f"{what}: unknown coordinates {unknown}; "
                        f"this space has {list(space.names)}")
    return tuple(names)


# ---------------------------------------------------------------- emission

def _emit(args, report: CheckReport) -> int:
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _write(args, obj) -> None:
    serialize.dump(obj, args.out)
    if not args.json:
        print(f"wrote {args.out}")


# ---------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    artifact = serialize.load(args.path)
    if isinstance(artifact, (FiniteCausalSpace, FiniteSCM)):
        report = validate_causal_space(_as_space(artifact, args.path))
    elif isinstance(artifact, FiniteMeasure):
        report = CheckReport(
            check="finite-measure",
            passed=True,
            details=(f"probability vector over {artifact.space.n_outcomes} outcomes",),
        )
    elif isinstance(artifact, Transformation):
        report = combine("transformation-endpoints", [
            validate_causal_space(artifact.source),
            validate_causal_space(artifact.target),
        ])
    elif isinstance(artifact, GaussianTransform):
        from .gaussian import observational_law

        # a law that overflows raises, as in check-transform: the source's first
        observational_law(artifact.source)
        observational_law(artifact.target)
        report = CheckReport(
            check="transformation-endpoints",
            passed=True,
            details=("both endpoint models are well formed",),
        )
    else:  # a LinearGaussianSCM, the last kind load_document admits
        from .gaussian import observational_law

        law = observational_law(artifact)
        report = CheckReport(
            check="gaussian-model",
            passed=True,
            details=(
                f"coordinates: {', '.join(artifact.coords)}",
                f"observational mean {law.mean.tolist()}",
                f"observational variance diagonal {law.cov.diagonal().tolist()}",
            ),
        )
    return _emit(args, report)


def cmd_intervene(args) -> int:
    space = _load_space(args.path)
    on = _check_names(space.space, args.on, "--on")
    measure = serialize.load(args.measure)
    if not isinstance(measure, FiniteMeasure):
        raise SpecError(f"{args.measure}: expected a finite-measure document")
    mechanism = _load_space(args.mechanism) if args.mechanism else None
    result = intervene(space, on, measure, mechanism)
    report = combine(
        "intervention",
        [validate_causal_space(result)],
        details=(f"pinned {{{', '.join(sorted(on))}}} with the supplied law",),
    )
    _write(args, result)
    return _emit(args, report)


def cmd_product(args) -> int:
    a = _load_space(args.first)
    b = _load_space(args.second)
    result = product(a, b)
    report = combine(
        "product",
        [validate_causal_space(result)],
        details=(f"coordinates: {', '.join(result.space.names)}",),
    )
    _write(args, result)
    return _emit(args, report)


def cmd_check_transform(args) -> int:
    artifact = serialize.load(args.path)
    check_tolerance(args.tol)
    if isinstance(artifact, Transformation):
        report = check_all(artifact)
    elif isinstance(artifact, GaussianTransform):
        report = artifact.check(args.tol)
    else:
        raise SpecError(f"{args.path}: expected a transformation document, "
                        f"got {type(artifact).__name__}")
    return _emit(args, report)


def cmd_classify(args) -> int:
    space = _load_space(args.path)
    on = _check_names(space.space, args.on, "--on")
    if (args.event is None) == (args.target is None):
        raise SpecError("exactly one of --event / --target is required")
    if args.event is not None:
        spec = parse_json(args.event, "--event")
        effect = classify_effect(space, on, parse_event_spec(space.space, spec))
        subject = f"event {args.event}"
    else:
        target = _check_names(space.space, args.target, "--target")
        effect = classify_effect_on(space, on, target)
        subject = f"coordinates {{{', '.join(sorted(target))}}}"
    report = CheckReport(
        check="effect-classification",
        passed=True,
        witness=effect.witness,
        details=(
            f"classification: {effect.tag}",
            f"effect of {{{', '.join(sorted(on))}}} on {subject}",
        ),
    )
    return _emit(args, report)


def cmd_source(args) -> int:
    space = _load_space(args.path)
    on = _check_names(space.space, args.on, "--on")
    target = _check_names(space.space, args.target, "--target")
    return _emit(args, is_source(space, on, target))


def _event_or_names(space: CoordinateSpace, text: str,
                    what: str) -> Union[Event, tuple[str, ...]]:
    if text.lstrip().startswith("{"):
        return parse_event_spec(space, parse_json(text, what))
    return _check_names(space, [n for n in text.split(",") if n], what)


def cmd_independence(args) -> int:
    space = _load_space(args.path)
    on = _check_names(space.space, args.on, "--on")
    first = _event_or_names(space.space, args.first, "--first")
    second = _event_or_names(space.space, args.second, "--second")
    if isinstance(first, Event) != isinstance(second, Event):
        raise SpecError("--first and --second must both be events or both be "
                        "coordinate subsets")
    witness: Optional[Witness] = None
    if isinstance(first, Event):
        row = _first_failing_event_row(space, on, first, second)
        ok = row is None
        if not ok:
            k_u = space.kernel(frozenset(on))
            both = first & second
            witness = Witness(
                message=(f"at {k_u.domain.outcome(row)}: K gives "
                         f"{k_u.value(row, both)} on the intersection but "
                         f"{k_u.value(row, first)} * {k_u.value(row, second)} "
                         "on the factors"),
                subset=tuple(sorted(on)),
                outcome=k_u.domain.outcome(row),
            )
        details = (f"event pair checked on every atom of H_{{{','.join(sorted(on))}}}",)
    else:
        ok = causally_independent_on(space, on, first, second)
        details = ("all union pairs of the two atom families checked",)
        if not ok:
            witness = Witness(
                message=(f"the product identity K(., A & B) = K(., A) K(., B) "
                         f"fails for a pair of events over {sorted(first)} "
                         f"and {sorted(second)}"))
    return _emit(args, CheckReport(
        check="causal-independence", passed=ok, witness=witness, details=details))


def cmd_abstract(args) -> int:
    space = _load_space(args.path)
    target_space, outcome_map = serialize.load_abstraction_map(args.map, space.space)
    rho = IndexMap(space.space.names, target_space.names,
                   parse_rho(parse_json(args.rho, "--rho"), "--rho"))
    pushed = pushforward_space(space, outcome_map, rho, target_space)
    _write(args, pushed.transformation)
    return _emit(args, pushed.report)


def cmd_compose(args) -> int:
    first = serialize.load(args.first)
    second = serialize.load(args.second)
    for t, origin in ((first, args.first), (second, args.second)):
        if not isinstance(t, Transformation):
            raise SpecError(f"{origin}: expected a finite transformation document")
    composite, report = compose(first, second)
    if args.out:
        _write(args, composite)
    return _emit(args, report)


def cmd_lemma(args) -> int:
    if args.list:
        for lemma_id in LEMMA_IDS:
            print(lemma_id)
        return 0
    if not args.id:
        raise SpecError("a lemma id is required (or use --list)")
    if args.id not in LEMMA_IDS:
        raise SpecError(f"unknown lemma {args.id!r}; known: {', '.join(LEMMA_IDS)}")
    if args.trials < 0:
        raise SpecError(f"--trials must be at least 0, got {args.trials}")
    return _emit(args, lemma_suite(args.id, trials=args.trials, seed=args.seed))


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalkit",
        description="Verification engine for finite and linear-Gaussian "
                    "causal spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate,
            "Check a document's axioms (kernel axioms for finite spaces and "
            "compiled models; shape constraints for Gaussian models).")
    p.add_argument("path")

    p = add("intervene", cmd_intervene,
            "Pin coordinates to a supplied law and write the intervened space.")
    p.add_argument("path")
    p.add_argument("--on", nargs="+", required=True, metavar="NAME")
    p.add_argument("--measure", required=True,
                   help="finite-measure document for the pinned coordinates")
    p.add_argument("--mechanism",
                   help="finite-space document giving the replacement mechanism")
    p.add_argument("--out", required=True)

    p = add("product", cmd_product,
            "Form the product of two causal spaces and write it.")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)

    p = add("check-transform", cmd_check_transform,
            "Run the admissibility, distributional, and interventional checks "
            "of a transformation document.")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="comparison tolerance for Gaussian parameters")

    p = add("classify", cmd_classify,
            "Classify a causal effect as no-effect, active, or dormant.")
    p.add_argument("path")
    p.add_argument("--on", nargs="*", default=[], metavar="NAME")
    p.add_argument("--event", help='event constraint, e.g. \'{"Y": 1}\'')
    p.add_argument("--target", nargs="+", metavar="NAME",
                   help="classify the effect on these coordinates instead")

    p = add("source", cmd_source,
            "Check that the kernel on a subset is a version of the "
            "conditional probability given it.")
    p.add_argument("path")
    p.add_argument("--on", nargs="+", required=True, metavar="NAME")
    p.add_argument("--target", nargs="+", required=True, metavar="NAME")

    p = add("independence", cmd_independence,
            "Check causal independence of two events (or coordinate subsets) "
            "on an intervened sub-sigma-algebra.")
    p.add_argument("path")
    p.add_argument("--on", nargs="*", default=[], metavar="NAME")
    p.add_argument("--first", required=True,
                   help='event JSON or comma-joined coordinate names')
    p.add_argument("--second", required=True,
                   help='event JSON or comma-joined coordinate names')

    p = add("abstract", cmd_abstract,
            "Push a space forward through a surjective deterministic map and "
            "write the resulting transformation.")
    p.add_argument("path")
    p.add_argument("--map", required=True,
                   help="JSON file with the target coordinates and outcome table")
    p.add_argument("--rho", required=True,
                   help='coordinate map as inline JSON, e.g. \'{"X1": "X"}\'')
    p.add_argument("--out", required=True)

    p = add("compose", cmd_compose,
            "Chain two transformations and check the composite.")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out")

    p = add("lemma", cmd_lemma,
            "Run a randomized lemma suite with seeded trials.")
    p.add_argument("id", nargs="?")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--list", action="store_true", help="list the lemma ids")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CausalKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
