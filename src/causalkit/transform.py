"""Transformations between finite causal spaces.

A transformation is a Markov kernel kappa from one causal space to another
together with a map rho between their coordinate index sets.  Three
properties are checked separately and never gate construction:

  admissible        kappa(., A) is H_{rho^-1(S)}-measurable for A in H_S,
                    for every subset S of the image of rho
  distributional    integrating kappa against the source base measure
                    reproduces the target base measure
  interventional    integrating the source kernel K_{rho^-1(S)} against
                    kappa equals integrating kappa against the target
                    kernel K_S, on the image sigma-algebra

Deterministic maps are given as outcome tables and lifted to Dirac kernels
once, at construction.  Both consistency identities are measure-valued in
the event argument, so checks run on atoms; exhaustive event sweeps live
in the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .causal import (
    FiniteCausalSpace,
    KernelSource,
    _intervene,
    independent_pinning_space,
    intervene,
    product,
    subsets_of,
    validate_causal_space,
)
from .errors import (
    NotAdmissibleError,
    NotSurjectiveError,
    SpaceError,
    WellDefinednessError,
)
from .report import CheckReport, Witness, combine
from .spaces import (
    CoordinateSpace,
    FiniteMeasure,
    StochKernel,
    _first_difference,
    _mixture,
    _part_sums,
    _push,
    _tensor,
    iter_bits,
    kernel_compose,
    project,
)


@dataclass(frozen=True)
class IndexMap:
    """Total map rho between coordinate index sets, at either scale.

    It is the one check of rho: defined on every source coordinate, on
    nothing else, and into the target coordinates (the error names the
    first unknown target in sorted order), tested in that order.
    """

    source: tuple[str, ...]
    target: tuple[str, ...]
    mapping: Mapping[str, str]

    def __post_init__(self):
        missing = set(self.source) - set(self.mapping)
        if missing:
            raise SpaceError(f"rho undefined on {sorted(missing)}")
        extra = set(self.mapping) - set(self.source)
        if extra:
            raise SpaceError(f"rho defined on unknown coordinates {sorted(extra)}")
        unknown = sorted(set(self.mapping.values()) - set(self.target))
        if unknown:
            raise SpaceError(f"unknown coordinate {unknown[0]!r}")

    def __call__(self, name: str) -> str:
        return self.mapping[name]

    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    def is_surjective(self) -> bool:
        return self.image() == frozenset(self.target)

    def preimage(self, subset: Iterable[str]) -> frozenset:
        wanted = set(subset)
        return frozenset(n for n in self.source if self.mapping[n] in wanted)

    def compose(self, then: "IndexMap") -> "IndexMap":
        if set(self.target) != set(then.source):
            raise SpaceError("index maps do not chain")
        return IndexMap(
            source=self.source,
            target=then.target,
            mapping={n: then.mapping[self.mapping[n]] for n in self.source},
        )


@dataclass(frozen=True)
class Transformation:
    """Kernel plus an index map.

    A deterministic map is given as an outcome table instead; it is lifted
    to its Dirac kernel once, here, and ``outcome_map`` stays as the record
    that the map is deterministic.
    """

    source: FiniteCausalSpace
    target: FiniteCausalSpace
    rho: IndexMap
    kernel: Optional[StochKernel] = None
    outcome_map: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if (self.kernel is None) == (self.outcome_map is None):
            raise SpaceError("exactly one of kernel / outcome_map required")
        if self.rho.source != self.source.space.names or self.rho.target != self.target.space.names:
            raise SpaceError("index map does not match the coordinate sets")
        if self.kernel is not None:
            if self.kernel.domain != self.source.space or self.kernel.codomain != self.target.space:
                raise SpaceError("kernel does not match source and target spaces")
        else:
            n1, n2 = self.source.space.n_outcomes, self.target.space.n_outcomes
            if len(self.outcome_map) != n1 or any(not 0 <= j < n2 for j in self.outcome_map):
                raise SpaceError("outcome map does not match source and target spaces")
            object.__setattr__(self, "kernel", StochKernel.deterministic(
                self.source.space, self.target.space, self.outcome_map))

    def is_deterministic(self) -> bool:
        return self.outcome_map is not None


def check_admissible(t: Transformation) -> CheckReport:
    """kappa(., A) must be constant on rho^-1(S)-atoms for A an atom of H_S.

    Atoms suffice because kappa(omega, .) is a measure.  S ranges over the
    subsets of the image of rho, taken inclusively.  Masses are integer
    numerators over each row's denominator, compared by cross-multiplication.
    """
    src = t.source.space
    kappa = t.kernel.rows
    for subset in subsets_of(t.rho.image()):
        pre = t.rho.preimage(subset)
        fibers = src.projector(pre).masks
        s_proj = t.target.space.projector(subset)
        n_s = len(s_proj.masks)
        kappa_on_s = [_part_sums(row, s_proj.index, n_s) for row in kappa]
        for a, a_mask in enumerate(s_proj.masks):
            for fiber in fibers:
                first = None
                for i in iter_bits(fiber):
                    sums, den = kappa_on_s[i]
                    val = sums[a]
                    if first is None:
                        first, first_val, first_den = i, val, den
                    elif val * first_den != first_val * den:
                        return CheckReport(
                            check="admissible",
                            passed=False,
                            witness=Witness(
                                message=(
                                    f"kappa(., A) varies on a fiber of {sorted(pre)}: "
                                    f"{Fraction(first_val, first_den)} at "
                                    f"{src.outcome(first)} vs {Fraction(val, den)} at "
                                    f"{src.outcome(i)} for an atom of "
                                    f"H_{{{','.join(subset)}}}"),
                                subset=subset,
                                outcome=src.outcome(i),
                                event=tuple(iter_bits(a_mask)),
                            ),
                        )
    return CheckReport(check="admissible", passed=True)


def check_distributional(t: Transformation) -> CheckReport:
    """Integrating kappa against the source measure must give the target measure."""
    target = t.target.P
    pushed = _mixture(target.space, t.source.P, t.kernel.rows)
    if pushed != target:
        j = _first_difference(pushed, target)
        return CheckReport(
            check="distributional",
            passed=False,
            witness=Witness(
                message=(f"pushforward gives {pushed.weights[j]} on outcome "
                         f"{t.target.space.outcome(j)} but the target measure "
                         f"gives {target.weights[j]}"),
                outcome=t.target.space.outcome(j),
                event=(j,),
            ),
        )
    return CheckReport(check="distributional", passed=True)


def check_interventional(t: Transformation) -> CheckReport:
    """Interventions commute with the transformation on the image sigma-algebra.

    For every S inside the image of rho and every source outcome omega,

        int K^1_{rho^-1(S)}(omega, d omega') kappa(omega', A)
      = int kappa(omega, d omega'') K^2_S(omega'', A)

    for A an atom of the image sigma-algebra (atoms suffice: both sides are
    measures in A).  No outcome is exempted, including null ones.

    Both routes are evaluated as measures on the image atoms, at every
    source outcome in index order, so the first failing outcome gives the
    witness.  The source route depends on omega only through its
    rho^-1(S)-atom, so it is mixed once per kernel row from the rows
    kappa(omega', .) on the image atoms; the target route mixes, over
    kappa(omega, .), the image row of K^2_S at each target outcome's S-atom.
    """
    src = t.source.space
    on_image = t.rho.image()
    image = t.target.space.projector(on_image)
    kappa = t.kernel.rows
    kappa_image = [project(row, on_image) for row in kappa]
    for subset in subsets_of(on_image):
        pre = t.rho.preimage(subset)
        k1 = t.source.kernel(pre)
        k2 = t.target.kernel(subset)
        source_route = [_mixture(image.sub, row, kappa_image) for row in k1.rows]
        k2_image = [project(row, on_image) for row in k2.rows]
        k2_at = [k2_image[s] for s in t.target.space.projector(subset).index]
        pre_of = src.projector(pre).index
        for i in range(src.n_outcomes):
            left = source_route[pre_of[i]]
            right = _mixture(image.sub, kappa[i], k2_at)
            if left != right:
                a = _first_difference(left, right)
                return CheckReport(
                    check="interventional",
                    passed=False,
                    witness=Witness(
                        message=(
                            f"at S={{{','.join(subset)}}} and omega="
                            f"{src.outcome(i)}: source route gives {left.weights[a]}, "
                            f"target route gives {right.weights[a]}"),
                        subset=subset,
                        outcome=src.outcome(i),
                        event=tuple(iter_bits(image.masks[a])),
                    ),
                )
    return CheckReport(check="interventional", passed=True)


def check_all(t: Transformation) -> CheckReport:
    return combine("causal-transformation", [
        check_admissible(t),
        check_distributional(t),
        check_interventional(t),
    ])


def is_abstraction(t: Transformation) -> CheckReport:
    """Causal transformation whose index map is surjective."""
    reports = [check_all(t)]
    if t.rho.is_surjective():
        reports.append(CheckReport(check="rho-surjective", passed=True))
    else:
        missing = sorted(set(t.rho.target) - set(t.rho.image()))
        reports.append(CheckReport(
            check="rho-surjective", passed=False,
            witness=Witness(message=f"rho misses target coordinates {missing}")))
    return combine("abstraction", reports)


def is_perfect_abstraction(t: Transformation) -> CheckReport:
    """Abstraction that is deterministic with a surjective outcome map."""
    reports = [is_abstraction(t)]
    if not t.is_deterministic():
        reports.append(CheckReport(
            check="deterministic", passed=False,
            witness=Witness(message="kappa is stochastic, not an outcome map")))
    else:
        reports.append(CheckReport(check="deterministic", passed=True))
        hit = set(t.outcome_map)
        if len(hit) == t.target.space.n_outcomes:
            reports.append(CheckReport(check="outcome-map-surjective", passed=True))
        else:
            miss = next(j for j in range(t.target.space.n_outcomes) if j not in hit)
            reports.append(CheckReport(
                check="outcome-map-surjective", passed=False,
                witness=Witness(
                    message=f"no source outcome maps to {t.target.space.outcome(miss)}",
                    outcome=t.target.space.outcome(miss))))
    return combine("perfect-abstraction", reports)


def compose(first: Transformation, second: Transformation) -> tuple[Transformation, CheckReport]:
    """Chain two transformations and check the composite.

    The middle spaces must agree.  The composite of two deterministic maps
    stays deterministic; otherwise kernels are chained.  The composite is
    returned together with its full check report: composing preserves the
    transformation property when the first map is an abstraction, but not
    in general, so the report is the caller's evidence either way.
    """
    if first.target.space != second.source.space or first.target.P != second.source.P:
        raise SpaceError("middle spaces do not match")
    rho = first.rho.compose(second.rho)
    if first.is_deterministic() and second.is_deterministic():
        table = tuple(second.outcome_map[j] for j in first.outcome_map)
        composite = Transformation(first.source, second.target, rho, outcome_map=table)
    else:
        k = kernel_compose(first.kernel, second.kernel)
        composite = Transformation(first.source, second.target, rho, kernel=k)
    return composite, check_all(composite)


def inclusion_into_product(c1: FiniteCausalSpace, c2: FiniteCausalSpace) -> Transformation:
    """Embed a factor into a product: kappa(omega, .) = delta_omega (x) P2,
    which reads no coordinate, so its one law is delta_0 (x) P2."""
    target = product(c1, c2)
    law = _tensor(target.space, FiniteMeasure.dirac(c1.space, 0), c2.P)
    kernel = StochKernel(c1.space, target.space, (law,), ())
    rho = IndexMap(c1.space.names, target.space.names, {n: n for n in c1.space.names})
    return Transformation(source=c1, target=target, rho=rho, kernel=kernel)


class Pushforward(NamedTuple):
    space: FiniteCausalSpace
    transformation: Transformation
    report: CheckReport


def _check_pushforward_admissible(source: FiniteCausalSpace, outcome_map: tuple[int, ...],
                                  rho: IndexMap, target_space: CoordinateSpace) -> None:
    # per-coordinate constancy on rho^-1(s)-fibers implies the subset form
    for s2 in target_space.names:
        pre = rho.preimage((s2,))
        value_of = target_space.projector((s2,)).index
        for fiber in source.space.projector(pre).masks:
            seen = None
            seen_at = None
            for i in iter_bits(fiber):
                val = value_of[outcome_map[i]]
                if seen is None:
                    seen, seen_at = val, i
                elif val != seen:
                    raise NotAdmissibleError(
                        f"f sends {source.space.outcome(seen_at)} and "
                        f"{source.space.outcome(i)} to different values of {s2!r} "
                        f"although they agree on {sorted(pre)}")


def _push_kernels(kernel: KernelSource, table: tuple[int, ...], rho: IndexMap,
                  source_space: CoordinateSpace, target_space: CoordinateSpace,
                  fault: Callable[[tuple, frozenset, int, int], Exception]
                  ) -> dict[frozenset, StochKernel]:
    """Kernels K^2_S copied through the outcome table f, for every subset S
    of the target coordinates.

    Each row of K^1_{rho^-1(S)} is pushed through f.  The cells of
    f^-1(H^2_S) group source outcomes by the S-projection of their image;
    the row of an S-atom is the pushed row of any outcome in its cell and
    must not depend on the representative.  ``fault(S, rho^-1(S), first,
    second)`` makes the error raised for the first two outcomes of one cell
    whose pushed rows differ.  (f, rho) must be admissible: then each
    rho^-1(S)-atom lies in one cell, and walking the atoms' lowest outcomes
    finds the same two outcomes as walking every outcome.
    """
    kernels: dict[frozenset, StochKernel] = {}
    for subset in subsets_of(target_space.names):
        pre = rho.preimage(subset)
        pushed = [_push(target_space, r, table) for r in kernel(pre).rows]
        cells = target_space.projector(subset)
        first: list[Optional[tuple]] = [None] * cells.sub.n_outcomes  # (outcome, pushed row)
        for row, i in zip(pushed, source_space.projector(pre).lowest):
            cell = cells.index[table[i]]
            if first[cell] is None:
                first[cell] = (i, row)
            elif first[cell][1] != row:
                raise fault(subset, pre, first[cell][0], i)
        # f surjective onto the target, so every S-atom has a nonempty cell
        rows = tuple(row for _, row in first)
        kernels[frozenset(subset)] = StochKernel(cells.sub, target_space, rows)
    return kernels


def _pushforward(source: FiniteCausalSpace, outcome_map: Iterable[int],
                 rho: IndexMap, target_space: CoordinateSpace) -> Transformation:
    """The transformation (f, rho) onto the pushforward space, built but not
    checked; every precondition of ``pushforward_space`` raises here."""
    table = tuple(outcome_map)
    if not rho.is_surjective():
        raise NotSurjectiveError(
            f"rho misses target coordinates {sorted(set(rho.target) - set(rho.image()))}")
    n1, n2 = source.space.n_outcomes, target_space.n_outcomes
    if len(table) != n1 or any(not 0 <= j < n2 for j in table):
        raise SpaceError("outcome map does not match source and target spaces")
    if len(set(table)) != n2:
        miss = next(j for j in range(n2) if j not in set(table))
        raise NotSurjectiveError(f"no source outcome maps to {target_space.outcome(miss)}")
    _check_pushforward_admissible(source, table, rho, target_space)

    def fault(subset, pre, first, second) -> WellDefinednessError:
        a, b = source.space.outcome(first), source.space.outcome(second)
        return WellDefinednessError(
            f"K_{{{','.join(sorted(pre))}}}(., f^-1(.)) differs between {a} and {b} "
            f"although f agrees on {sorted(subset)}",
            witness=(a, b))

    kernels = _push_kernels(source.kernel, table, rho, source.space, target_space, fault)
    pushed_p = _push(target_space, source.P, table)
    result = FiniteCausalSpace(target_space, pushed_p, kernels=kernels)
    return Transformation(source=source, target=result, rho=rho, outcome_map=table)


def pushforward_space(source: FiniteCausalSpace, outcome_map: Iterable[int],
                      rho: IndexMap, target_space: CoordinateSpace) -> Pushforward:
    """Unique causal space making a surjective deterministic pair a transformation.

    Requires rho and f surjective, (f, rho) admissible, and the kernel
    measurability condition: K^1_{rho^-1(S)}(., f^-1(A)) constant on the
    cells of f^-1(H^2_S), for every subset S of the target coordinates.
    The target base measure is the pushforward of the source measure and
    each target kernel row copies the source kernel through f from any
    representative of the cell.  The report validates the constructed
    space and checks the pair.
    """
    t = _pushforward(source, outcome_map, rho, target_space)
    report = combine("pushforward", [validate_causal_space(t.target), check_all(t)])
    return Pushforward(t.target, t, report)


class PushforwardIntervention(NamedTuple):
    source_intervened: FiniteCausalSpace
    target_intervened: FiniteCausalSpace
    transformation: Transformation
    report: CheckReport


def pushforward_intervention(source: FiniteCausalSpace, outcome_map: Iterable[int],
                             rho: IndexMap, target_space: CoordinateSpace,
                             on_target: Iterable[str], measure: FiniteMeasure,
                             mechanism: Optional[FiniteCausalSpace] = None
                             ) -> PushforwardIntervention:
    """Intervene on both sides of a perfect abstraction and re-check the pair.

    The target space is constructed by pushforward, under the same
    preconditions and errors as ``pushforward_space``, but not reported on:
    the report covers the intervened pair, both spaces validated and the
    transformation between them checked.  The source is intervened on
    U1 = rho^-1(U2) with (Q1, L1), and the target on U2 with the pushed
    pair Q2 = f_* Q1 and L2 copied through f.  Only a given L1 is validated:
    L2's empty kernel pushes L1's to Q2, and admissibility keeps each pushed
    row in its S-atom.  L1 must satisfy the same kernel measurability
    condition as the space kernels, restricted to the intervened
    coordinates; violations raise ``WellDefinednessError``.
    """
    table = tuple(outcome_map)
    pushed = _pushforward(source, table, rho, target_space).target
    u2 = frozenset(on_target)
    u1 = rho.preimage(u2)
    u1_space = source.space.restrict(u1)
    u2_space = target_space.restrict(u2)
    if measure.space != u1_space:
        raise SpaceError("intervention measure must live on the pulled-back subset")
    if mechanism is None:
        mechanism = independent_pinning_space(measure)
        src_done = _intervene(source, u1, measure, mechanism)
    else:
        src_done = intervene(source, u1, measure, mechanism)

    # f restricted to the intervened block: admissibility makes the image
    # of omega_{U1} under f's U2-component independent of the rest
    to_u2 = target_space.projector(u2).index
    f_block = tuple(to_u2[table[i]] for i in source.space.projector(u1).lowest)
    # f_block is onto, since _pushforward found f surjective and admissible

    # push the mechanism through f, checking along the way that its kernels
    # are measurable with respect to f (cells of equal image must push to
    # the same row)
    pushed_q = _push(u2_space, measure, f_block)

    def fault(subset, pre, first, second) -> WellDefinednessError:
        return WellDefinednessError(
            f"mechanism kernel L_{{{','.join(sorted(pre))}}} is not "
            f"measurable with respect to f",
            witness=(u1_space.outcome(first), u1_space.outcome(second)))

    l2_kernels = _push_kernels(mechanism.kernel, f_block, rho, u1_space, u2_space, fault)
    pushed_mechanism = FiniteCausalSpace(u2_space, pushed_q, kernels=l2_kernels)

    tgt_done = _intervene(pushed, u2, pushed_q, pushed_mechanism)
    t = Transformation(source=src_done, target=tgt_done, rho=rho, outcome_map=table)
    report = combine("pushforward-intervention", [
        validate_causal_space(src_done),
        validate_causal_space(tgt_done),
        check_all(t),
    ])
    return PushforwardIntervention(src_done, tgt_done, t, report)


def rigidity_check(first: Transformation, second: Transformation) -> CheckReport:
    """Two targets of the same (kappa, rho) agree up to null atoms.

    Requires the two transformations to share source, kernel, index map,
    and target measurable space.  Verifies that the target base measures
    are identical and that for every subset S the target kernels agree on
    the atoms of the image sigma-algebra, except on rows whose S-atom is
    null under the (common) target measure; exemptions are listed.
    """
    if first.source is not second.source and first.source.space != second.source.space:
        raise SpaceError("transformations have different sources")
    if first.rho.mapping != second.rho.mapping:
        raise SpaceError("transformations have different index maps")
    if first.kernel != second.kernel:
        raise SpaceError("transformations have different kernels")
    t_space = first.target.space
    if t_space != second.target.space:
        raise SpaceError("targets live on different measurable spaces")
    if first.target.P != second.target.P:
        diff = _first_difference(first.target.P, second.target.P)
        return CheckReport(
            check="rigidity",
            passed=False,
            witness=Witness(
                message=(f"target measures differ on {t_space.outcome(diff)}: "
                         f"{first.target.P.weights[diff]} vs {second.target.P.weights[diff]}"),
                outcome=t_space.outcome(diff),
                event=(diff,),
            ),
        )
    on_image = first.rho.image()
    image = t_space.projector(on_image)
    exempt = []
    for subset in subsets_of(t_space.names):
        k_a = first.target.kernel(subset)
        k_b = second.target.kernel(subset)
        s_support = project(first.target.P, subset).support_mask
        for row in range(k_a.domain.n_outcomes):
            if not s_support >> row & 1:
                exempt.append(
                    f"null atom {k_a.domain.outcome(row)} of H_{{{','.join(subset)}}} exempted")
                continue
            on_a = project(k_a.rows[row], on_image)
            on_b = project(k_b.rows[row], on_image)
            if on_a != on_b:
                a = _first_difference(on_a, on_b)
                return CheckReport(
                    check="rigidity",
                    passed=False,
                    witness=Witness(
                        message=(f"K_{{{','.join(subset)}}} at {k_a.domain.outcome(row)} "
                                 f"gives {on_a.weights[a]} vs {on_b.weights[a]} on an image atom"),
                        subset=subset,
                        outcome=k_a.domain.outcome(row),
                        event=tuple(iter_bits(image.masks[a])),
                    ),
                    details=tuple(exempt),
                )
    return CheckReport(check="rigidity", passed=True, details=tuple(exempt))
