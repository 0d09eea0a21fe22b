"""Finite causal spaces and the operations defined on them.

A causal space is a finite product probability space together with one
causal kernel per coordinate subset S.  Kernels are stored in atom-indexed
form: the row of K_S at the atom of omega_S determines K_S(omega, A) for
every outcome omega in that atom, and an adapter projects full outcomes
before lookup.  Two axioms are verified: the empty kernel reproduces the
base measure, and K_S(omega, .) puts all of its mass on the H_S-atom of
omega.

Kernel families may be tabulated (every subset present up front) or lazy
(computed on demand and cached), so that compiled structural models never
materialise all 2^d kernels unless asked to.  Checks report rather than
raise: an object violating the axioms is still representable, which keeps
counterexamples first-class.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .errors import InvalidMechanismError, MissingKernelError, SpaceError
from .report import CheckReport, Witness
from .spaces import (
    CoordinateSpace,
    Event,
    FiniteMeasure,
    StochKernel,
    _first_difference,
    _kernel_part_sums,
    _mixture,
    _part_sums,
    _push,
    _tensor,
    iter_bits,
    product_space,
    project,
    rename_space,
)

KernelSource = Callable[[frozenset], StochKernel]


def subsets_of(names: Iterable[str]) -> Iterator[tuple[str, ...]]:
    """All subsets of a name collection, by increasing size then name order.

    This is the canonical search order used whenever a check scans subsets,
    so first-witness output is deterministic.
    """
    base = sorted(names)
    for size in range(len(base) + 1):
        for combo in combinations(base, size):
            yield combo


class FiniteCausalSpace:
    """Probability space plus one causal kernel per coordinate subset."""

    def __init__(self, space: CoordinateSpace, P: FiniteMeasure,
                 kernels: Optional[Mapping[frozenset, StochKernel]] = None,
                 kernel_fn: Optional[KernelSource] = None):
        if P.space != space:
            raise SpaceError("base measure on wrong space")
        if (kernels is None) == (kernel_fn is None):
            raise SpaceError("exactly one of kernels / kernel_fn required")
        if kernels is not None:
            table = dict(kernels)

            def kernel_fn(key: frozenset) -> StochKernel:
                try:
                    return table[key]
                except KeyError:
                    raise MissingKernelError(f"no kernel for subset {sorted(key)}") from None

        self.space = space
        self.P = P
        self._fn = kernel_fn
        self._cache: dict[frozenset, StochKernel] = {}

    @classmethod
    def tabulated(cls, space: CoordinateSpace, P: FiniteMeasure,
                  kernels: Mapping[Iterable[str], StochKernel]) -> "FiniteCausalSpace":
        table = {frozenset(k): v for k, v in kernels.items()}
        return cls(space, P, kernels=table)

    @classmethod
    def lazy(cls, space: CoordinateSpace, P: FiniteMeasure,
             kernel_fn: KernelSource) -> "FiniteCausalSpace":
        return cls(space, P, kernel_fn=kernel_fn)

    def kernel(self, subset: Iterable[str]) -> StochKernel:
        """K_S, built (or looked up) and checked on the first call, then cached."""
        key = frozenset(subset)
        k = self._cache.get(key)
        if k is None:
            unknown = key - set(self.space.names)
            if unknown:
                raise SpaceError(f"unknown coordinates {sorted(unknown)}")
            k = self._fn(key)
            if k.domain != self.space.restrict(key) or k.codomain != self.space:
                raise SpaceError(f"kernel for {sorted(key)} has wrong domain or codomain")
            self._cache[key] = k
        return k

    def subsets(self) -> Iterator[tuple[str, ...]]:
        return subsets_of(self.space.names)

    def materialize(self) -> "FiniteCausalSpace":
        """Tabulated copy with every kernel computed."""
        table = {frozenset(s): self.kernel(s) for s in self.subsets()}
        return FiniteCausalSpace(self.space, self.P, kernels=table)


def causal_spaces_equal(a: FiniteCausalSpace, b: FiniteCausalSpace) -> bool:
    """Exact equality: same space, same measure, same kernel table."""
    if a.space != b.space or a.P != b.P:
        return False
    return all(a.kernel(s) == b.kernel(s) for s in a.subsets())


def validate_causal_space(c: FiniteCausalSpace) -> CheckReport:
    """Check both kernel axioms exactly, reporting the first violation.

    Axiom (i): the empty-subset kernel equals the base measure.
    Axiom (ii): each row of K_S is supported inside its own H_S-atom
    (equivalently K_S(omega_S, atom(omega_S)) = 1), which is the atom form
    of K_S(omega, A & B) = 1_A(omega) K_S(omega, B) for A in H_S.  It is
    one test of a support bitmask against an atom's; the witness is the
    lowest outcome outside the atom.

    Only each law of K_S is tested, at its own atom: law j's atom is the
    j-th atom of ``K_S.read`` at 0 off it, with mask ``first << lowest[j]``
    (``first`` from the S-projector, ``lowest`` from the read one).  Any
    other atom's row and mask are its law's and its law's atom's mask
    moved by one offset, so the row leaves its atom exactly when the law
    leaves the law's, at moved outcomes.  The laws come in the order of
    their atoms, so the first failing law gives the lowest failing atom,
    and the verdict and witness are those of a row scan in atom order.
    """
    empty = c.kernel(())
    base_row = empty.laws[0]
    if base_row != c.P:
        diff = _first_difference(base_row, c.P)
        return CheckReport(
            check="causal-space-axioms",
            passed=False,
            witness=Witness(
                message=(f"empty-subset kernel gives {base_row.weights[diff]} on outcome "
                         f"{c.space.outcome(diff)} but the base measure gives {c.P.weights[diff]}"),
                subset=(),
                outcome=c.space.outcome(diff),
                event=(diff,),
            ),
        )
    for subset in c.subsets():
        if not subset:
            continue
        k = c.kernel(subset)
        proj = c.space.projector(subset)
        first = proj.first
        for law, low in zip(k.laws, c.space.projector(k.read).lowest):
            outside = law.support_mask & ~(first << low)
            if outside:
                # the lowest outcome is the one an index-order scan meets first
                i = (outside & -outside).bit_length() - 1
                a = proj.lowest.index(low)
                return CheckReport(
                    check="causal-space-axioms",
                    passed=False,
                    witness=Witness(
                        message=(f"K_{{{','.join(subset)}}} at atom {k.domain.outcome(a)} "
                                 f"puts mass {law.weights[i]} on outcome {c.space.outcome(i)} "
                                 "outside the atom"),
                        subset=subset,
                        outcome=k.domain.outcome(a),
                        event=(i,),
                    ),
                )
    return CheckReport(check="causal-space-axioms", passed=True)


def independent_pinning_space(P: FiniteMeasure) -> FiniteCausalSpace:
    """Causal space over P whose kernels pin S and draw the rest from P.

    K_S(omega_S, .) = delta_{omega_S} (x) P restricted to the remaining
    coordinates.  This always satisfies both axioms and is the canonical
    mechanism carrying no dependence between coordinates beyond P itself.
    K_S reads no coordinate: its one law is P on the rest with S at 0.
    """
    space = P.space

    def make(subset: frozenset) -> StochKernel:
        rest = frozenset(space.names) - subset
        law = _push(space, project(P, rest), space.projector(rest).lowest)
        return StochKernel(space.restrict(subset), space, (law,), ())

    return FiniteCausalSpace.lazy(space, P, make)


def intervene(c: FiniteCausalSpace, on: Iterable[str], measure: FiniteMeasure,
              mechanism: Optional[FiniteCausalSpace] = None) -> FiniteCausalSpace:
    """Intervention do(U, Q, L) on a causal space.

    The new base measure integrates K_U against Q, and the new kernel for S
    integrates K_{S u U} against L_{S n U}:

        P^do(A)          = sum_u Q(u) K_U(u, A)
        K^do_S(omega, A) = sum_u L_{S n U}(omega_{S n U}, u) K_{S u U}((omega_{S \\ U}, u), A)

    ``mechanism`` is a causal space over the U-marginal space whose base
    measure must equal Q; a given one is checked for both and validated.
    When omitted, the independent pinning mechanism of Q is used; it
    satisfies both axioms by construction and is not re-validated.  The
    caller is responsible for ``c`` itself satisfying the axioms; this
    function does not re-validate it.
    """
    U = frozenset(on)
    u_space = c.space.restrict(U)
    if measure.space != u_space:
        raise SpaceError("intervention measure must live on the restricted space")
    if mechanism is None:
        mechanism = independent_pinning_space(measure)
    else:
        if mechanism.space != u_space:
            raise InvalidMechanismError("mechanism lives on the wrong space")
        if mechanism.P != measure:
            raise InvalidMechanismError("mechanism base measure differs from Q")
        mech_report = validate_causal_space(mechanism)
        if not mech_report.passed:
            raise InvalidMechanismError(
                f"mechanism violates the kernel axioms: {mech_report.witness.message}")
    return _intervene(c, U, measure, mechanism)


def _intervene(c: FiniteCausalSpace, U: frozenset, measure: FiniteMeasure,
               mechanism: FiniteCausalSpace) -> FiniteCausalSpace:
    """``intervene`` with a mechanism valid by construction: nothing is checked.

    K^do_S reads the coordinates of S that L_{S n U} or K_{S u U} reads: one
    mixture per read atom, at its lowest outcome.  That is exact.  Take a
    coordinate of S that neither kernel reads.  Off U, moving omega along it
    moves K_{S u U}'s row at every u.  In U, it moves L's row in u (a valid
    L's row is 0 there, so nothing carries), and K_{S u U} does not read it,
    so its row moves the same way.  Either way the mixture moves as a whole."""
    new_p = _mixture(c.space, measure, c.kernel(U).rows)
    u_reps = c.space.projector(U).lowest

    def make(subset: frozenset) -> StochKernel:
        inter = subset & U
        l_kernel = mechanism.kernel(inter)
        k_big = c.kernel(subset | U)
        read = subset & {*l_kernel.read, *k_big.read}
        free = c.space.projector(subset - U)
        to_inter = c.space.projector(inter).index
        to_big = c.space.projector(subset | U).index
        laws = []
        for rep in c.space.projector(read).lowest:
            base = free.lowest[free.index[rep]]
            laws.append(_mixture(c.space, l_kernel.rows[to_inter[rep]],
                                 [k_big.rows[to_big[base + u_rep]] for u_rep in u_reps]))
        return StochKernel(c.space.restrict(subset), c.space, laws, read)

    return FiniteCausalSpace.lazy(c.space, new_p, make)


class EffectClass:
    """Trichotomy tag for the effect of H_U on an event or sub-sigma-algebra."""

    NO_EFFECT = "no-effect"
    ACTIVE = "active"
    DORMANT = "dormant"

    def __init__(self, tag: str, witness: Optional[Witness] = None):
        if tag not in (self.NO_EFFECT, self.ACTIVE, self.DORMANT):
            raise ValueError(f"unknown tag {tag!r}")
        if (witness is None) != (tag == self.NO_EFFECT):
            raise ValueError("witness required exactly when the tag is not no-effect")
        self.tag = tag
        self.witness = witness

    def __repr__(self):
        return f"EffectClass({self.tag!r})"

    def __eq__(self, other):
        if isinstance(other, EffectClass):
            return self.tag == other.tag
        return NotImplemented

    def to_dict(self) -> dict:
        return {"tag": self.tag, "witness": self.witness.to_dict() if self.witness else None}


def _lowest_found(found: list) -> Optional[tuple[int, tuple]]:
    """The lowest index with a witness, and that witness."""
    return next(((j, f) for j, f in enumerate(found) if f is not None), None)


def _classify(c: FiniteCausalSpace, U: frozenset, index, masks) -> EffectClass:
    """Effect of H_U on each of some disjoint events, with the witness of the
    lowest event that has one.

    Every row of P, K_U, K_S and K_{S \\ U} is summed once onto the events
    ``masks`` through the outcome -> event table ``index`` (one extra part,
    never compared, takes the rest), as integer numerators over the row's
    denominator; two masses compare by cross-multiplication.  Each event
    keeps its first witness in the scan order: K_U rows by index for an
    active effect, then subsets by increasing cardinality and name order and
    the atoms of each subset by index.  A scan stops early once event 0 has
    a witness: none can precede it.
    """
    k_u = c.kernel(U)
    n_ev = len(masks)
    sums: dict[frozenset, list[tuple[list[int], int]]] = {}

    def row_sums(subset: frozenset, k: StochKernel) -> list[tuple[list[int], int]]:
        got = sums.get(subset)
        if got is None:
            got = sums[subset] = _kernel_part_sums(k, index, n_ev + 1)
        return got

    base, base_den = _part_sums(c.P, index, n_ev + 1)
    found: list = [None] * n_ev
    for a, (vals, den) in enumerate(row_sums(U, k_u)):
        for j in range(n_ev):
            if found[j] is None and vals[j] * base_den != base[j] * den:
                found[j] = (a, Fraction(vals[j], den))
        if found[0] is not None:
            break
    hit = _lowest_found(found)
    if hit is not None:
        j, (a, val) = hit
        return EffectClass(EffectClass.ACTIVE, Witness(
            message=(f"K_{{{','.join(sorted(U))}}} at {k_u.domain.outcome(a)} gives {val} "
                     f"on the event but the base measure gives {Fraction(base[j], base_den)}"),
            subset=tuple(sorted(U)),
            outcome=k_u.domain.outcome(a),
            event=tuple(iter_bits(masks[j])),
        ))

    for subset in subsets_of(c.space.names):
        s = frozenset(subset)
        reduced = s - U
        if reduced == s:
            continue
        k_s = c.kernel(s)
        lhs_rows = row_sums(s, k_s)
        rhs_rows = row_sums(reduced, c.kernel(reduced))
        to_reduced = c.space.projector(reduced).index
        for a, rep in enumerate(c.space.projector(s).lowest):
            (lhs, lden), (rhs, rden) = lhs_rows[a], rhs_rows[to_reduced[rep]]
            for j in range(n_ev):
                if found[j] is None and lhs[j] * rden != rhs[j] * lden:
                    found[j] = (subset, k_s.domain.outcome(a),
                                Fraction(lhs[j], lden), Fraction(rhs[j], rden))
            if found[0] is not None:
                break
        if found[0] is not None:
            break
    hit = _lowest_found(found)
    if hit is None:
        return EffectClass(EffectClass.NO_EFFECT)
    j, (subset, omega, lhs, rhs) = hit
    return EffectClass(EffectClass.DORMANT, Witness(
        message=(f"K_{{{','.join(subset)}}} at {omega} gives {lhs} on the event "
                 f"but dropping {sorted(U)} gives {rhs}"),
        subset=subset,
        outcome=omega,
        event=tuple(iter_bits(masks[j])),
    ))


def _event_parts(c: FiniteCausalSpace, event: Event) -> list[int]:
    """The outcome -> part table of {A, A^c}: 0 inside the event, 1 outside."""
    if event.space != c.space:
        raise SpaceError("event on a different space")
    return [1 - (event.mask >> i & 1) for i in range(c.space.n_outcomes)]


def classify_effect(c: FiniteCausalSpace, on: Iterable[str], event: Event) -> EffectClass:
    """Classify the effect of H_U on an event: no-effect, active, or dormant.

    Active: some omega has K_U(omega, A) != P(A).  No effect: every subset S
    satisfies K_S(omega, A) = K_{S \\ U}(omega, A) for every omega, with no
    exemption for null outcomes.  Dormant: neither.  The witness is the
    first K_U row, or else the first (S, omega) by increasing cardinality,
    then name order, then atom index, that breaks the identity.
    """
    return _classify(c, frozenset(on), _event_parts(c, event), (event.mask,))


def classify_effect_on(c: FiniteCausalSpace, on: Iterable[str],
                       target: Iterable[str]) -> EffectClass:
    """Classify the effect of H_U on the sub-sigma-algebra H_V.

    Both defining quantifiers are additive in the event, so checking the
    atoms of H_V settles every union of atoms as well.  One sweep sums every
    row of P, K_U, K_S and K_{S \\ U} onto the V-atoms and compares the
    vectors of atom masses.  The witness is the one an atom-by-atom scan
    finds: the lowest V-atom with an active witness (its first K_U row),
    else the lowest V-atom with a dormant witness (its first (S, omega) in
    ``classify_effect``'s order).  The subset scan stops as soon as V-atom 0
    has a witness.
    """
    v_proj = c.space.projector(target)
    return _classify(c, frozenset(on), v_proj.index, v_proj.masks)


def is_source(c: FiniteCausalSpace, on: Iterable[str],
              target: Iterable[str]) -> CheckReport:
    """Whether K_U(., A) is a version of the conditional probability of A given H_U.

    Finite form: on every U-atom of positive mass, K_U(omega_U, A) must equal
    P(A & atom) / P(atom) for every atom A of H_V.  Null U-atoms are
    unconstrained by the definition of conditional probability; they are
    exempted and listed in the report.  With V the full coordinate set this
    is the global-source check.

    One pass of P fills the table of (U-atom, V-atom) cell masses, and one
    pass over K_U's laws sums each of its rows onto the V-atoms.
    On a U-atom of mass z the conditional of a cell is cell / z, where P's
    denominator cancels, and it is compared with the K_U row's mass by
    cross-multiplication.  U-atoms are scanned by index and V-atoms by index
    within each; the first mismatch is the witness, with the null atoms
    exempted before it as details.
    """
    U = tuple(sorted(frozenset(on)))
    k_u = c.kernel(U)
    v_proj = c.space.projector(target)
    to_u, to_v = c.space.projector(U).index, v_proj.index
    nv = v_proj.sub.n_outcomes
    flat, _ = _part_sums(c.P, [u * nv + v for u, v in zip(to_u, to_v)],
                         k_u.domain.n_outcomes * nv)
    exempt = []
    for a, (row, den) in enumerate(_kernel_part_sums(k_u, to_v, nv)):
        joint = flat[a * nv:(a + 1) * nv]
        z = sum(joint)
        if z == 0:
            exempt.append(f"null atom {k_u.domain.outcome(a)} of H_{{{','.join(U)}}} exempted")
            continue
        for j, (lhs, cell) in enumerate(zip(row, joint)):
            if lhs * z != cell * den:
                return CheckReport(
                    check="local-source",
                    passed=False,
                    witness=Witness(
                        message=(f"K_{{{','.join(U)}}} at {k_u.domain.outcome(a)} gives "
                                 f"{Fraction(lhs, den)} but conditioning gives "
                                 f"{Fraction(cell, z)}"),
                        subset=U,
                        outcome=k_u.domain.outcome(a),
                        event=tuple(iter_bits(v_proj.masks[j])),
                    ),
                    details=tuple(exempt),
                )
    return CheckReport(check="local-source", passed=True, details=tuple(exempt))


def is_global_source(c: FiniteCausalSpace, on: Iterable[str]) -> CheckReport:
    return is_source(c, on, c.space.names)


def _first_failing_row(k_u: StochKernel, to_a, na: int, to_b, nb: int) -> Optional[tuple]:
    """First row of K_U that breaks the product identity on a pair of
    partitions of the outcomes, given as outcome -> part tables, if any:
    its index, its (A-part, B-part) cell sums and their denominator D.

    Each row is summed once onto the cells, as integers over D, and a cell
    passes when D * cell == row_mass[a] * col_mass[b].
    """
    to_cell = [a * nb + b for a, b in zip(to_a, to_b)]
    for r, (flat, denom) in enumerate(_kernel_part_sums(k_u, to_cell, na * nb)):
        cells = [flat[a * nb:(a + 1) * nb] for a in range(na)]
        col_mass = [sum(col) for col in zip(*cells)]
        for cell_row in cells:
            ra = sum(cell_row)
            if any(cell * denom != ra * cb for cell, cb in zip(cell_row, col_mass)):
                return r, cells, denom
    return None


def _event_independence_witness(c: FiniteCausalSpace, on: Iterable[str],
                                a: Event, b: Event) -> Optional[Witness]:
    """The witness of the first row of K_U with K(A & B) != K(A) K(B), if any:
    ``_first_failing_row`` on the partitions {A, A^c} and {B, B^c}, whose cell
    (0, 0), row mass 0 and column mass 0 are K(A & B), K(A) and K(B); on a
    probability row the identities of the other three cells follow."""
    on = tuple(on)
    k_u = c.kernel(frozenset(on))
    if a.space != b.space:
        raise SpaceError("events live on different spaces")
    hit = _first_failing_row(k_u, _event_parts(c, a), 2, _event_parts(c, b), 2)
    if hit is None:
        return None
    r, ((both, only_a), (only_b, _)), den = hit
    omega = k_u.domain.outcome(r)
    return Witness(f"at {omega}: K gives {Fraction(both, den)} on the intersection but "
                   f"{Fraction(both + only_a, den)} * {Fraction(both + only_b, den)} "
                   "on the factors", subset=tuple(sorted(on)), outcome=omega)


def causally_independent(c: FiniteCausalSpace, on: Iterable[str],
                         a: Event, b: Event) -> bool:
    """Whether K_U(omega, A & B) = K_U(omega, A) K_U(omega, B) for every omega."""
    return _event_independence_witness(c, on, a, b) is None


def causally_independent_on(c: FiniteCausalSpace, on: Iterable[str],
                            first: Iterable[str], second: Iterable[str]) -> bool:
    """Causal independence of two sub-sigma-algebras on H_U.

    K(A & B) and K(A) K(B) are both additive in A and in B over disjoint
    unions, so the product identity holds on every pair of atom unions as
    soon as it holds on every (A-atom, B-atom) pair.  Only those cells are
    checked.
    """
    pa = c.space.projector(first)
    pb = c.space.projector(second)
    k_u = c.kernel(frozenset(on))
    return _first_failing_row(k_u, pa.index, pa.sub.n_outcomes, pb.index, pb.sub.n_outcomes) is None


def product(c1: FiniteCausalSpace, c2: FiniteCausalSpace) -> FiniteCausalSpace:
    """Product causal space: measures tensor and kernels split by factor.

    K_{S}(omega, A1 x A2) = K1_{S n T1}(omega_1, A1) K2_{S n T2}(omega_2, A2).
    Coordinate names must be disjoint; use ``rename`` first if they clash.
    K_S reads what the factors' kernels read, and its laws are their products.
    """
    space = product_space(c1.space, c2.space)
    names1 = set(c1.space.names)
    names2 = set(c2.space.names)

    def make(subset: frozenset) -> StochKernel:
        # first-factor coordinates come first: read atom j1 * len(k2.laws) + j2
        # pairs laws j1 and j2, and its offset is o1 * |Omega_2| + o2
        k1 = c1.kernel(subset & names1)
        k2 = c2.kernel(subset & names2)
        laws = tuple(_tensor(space, la, lb) for la in k1.laws for lb in k2.laws)
        return StochKernel(space.restrict(subset), space, laws, k1.read + k2.read)

    return FiniteCausalSpace.lazy(space, _tensor(space, c1.P, c2.P), make)


def rename(c: FiniteCausalSpace, mapping: Mapping[str, str]) -> FiniteCausalSpace:
    """Rename coordinates everywhere (space, measure, kernel family)."""
    space = rename_space(c.space, mapping)
    inverse = {mapping.get(n, n): n for n in c.space.names}

    def moved(m: FiniteMeasure) -> FiniteMeasure:
        return _push(space, m, range(space.n_outcomes))

    def make(subset: frozenset) -> StochKernel:
        old = c.kernel(frozenset(inverse[n] for n in subset))
        return StochKernel(space.restrict(subset), space, tuple(moved(law) for law in old.laws),
                           [mapping.get(n, n) for n in old.read])

    return FiniteCausalSpace.lazy(space, moved(c.P), make)
