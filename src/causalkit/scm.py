"""Finite structural models and their compilation into causal spaces.

Each variable has a finite domain, a private noise with exact rational
weights, and a mechanism given as a dense lookup table over (parent values,
noise value).  Compilation tabulates each variable's conditional table
P(x_v | x_pa(v)) once, pushing its noise through its mechanism.  The base
measure and the kernel for a subset S then follow by truncated
factorization: K_S at an atom is the law of the mutilated system with S
pinned to the atom's values, the product of the conditional tables of the
variables outside S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .causal import FiniteCausalSpace
from .errors import CyclicSCMError, NullAtomError, SpaceError
from .spaces import (
    ONE,
    Coordinate,
    CoordinateSpace,
    Event,
    FiniteMeasure,
    StochKernel,
    _integer_row,
    project,
)


@dataclass(frozen=True)
class FiniteSCM:
    """Structural model over finite domains with tabulated mechanisms.

    ``mechanisms[v]`` is a flat tuple indexed mixed-radix over the parent
    values (in ``parents[v]`` order, first parent most significant) and then
    the noise value.  ``noises[v]`` holds the noise weights; the noise
    cardinality is their count.
    """

    variables: tuple[Coordinate, ...]
    parents: Mapping[str, tuple[str, ...]]
    noises: Mapping[str, tuple[Fraction, ...]]
    mechanisms: Mapping[str, tuple[int, ...]]
    _noise_rows: Mapping[str, tuple[list[int], int]] = field(
        init=False, compare=False, repr=False)
    """Each noise's checked ``(numerators, denominator)`` row."""

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate variable names: {names}")
        cards = {v.name: v.cardinality for v in self.variables}
        rows = {}
        for v in names:
            for key, table in (("parents", self.parents), ("noises", self.noises),
                               ("mechanisms", self.mechanisms)):
                if v not in table:
                    raise SpaceError(f"variable {v!r} missing from {key}")
        for v in names:
            for p in self.parents[v]:
                if p not in cards:
                    raise SpaceError(f"unknown parent {p!r} of {v!r}")
            weights = self.noises[v]
            if not all(isinstance(w, Fraction) for w in weights):
                raise SpaceError(f"noise weights of {v!r} must be Fractions")
            try:
                rows[v] = _integer_row(weights)
            except SpaceError:
                raise SpaceError(f"noise weights of {v!r} are not a probability vector") from None
            size = len(weights)
            for p in self.parents[v]:
                size *= cards[p]
            if len(self.mechanisms[v]) != size:
                raise SpaceError(f"mechanism table of {v!r} has wrong length")
            if any(not 0 <= x < cards[v] for x in self.mechanisms[v]):
                raise SpaceError(f"mechanism table of {v!r} has out-of-range values")
        self.topo_order()
        self.__dict__["_noise_rows"] = rows

    @classmethod
    def build(cls, variables: Iterable[tuple[str, int]],
              parents: Mapping[str, Iterable[str]],
              noises: Mapping[str, Iterable],
              mechanisms: Mapping[str, Iterable[int]]) -> "FiniteSCM":
        return cls(
            variables=tuple(Coordinate(n, k) for n, k in variables),
            parents={v: tuple(ps) for v, ps in parents.items()},
            noises={v: tuple(Fraction(w) for w in ws) for v, ws in noises.items()},
            mechanisms={v: tuple(m) for v, m in mechanisms.items()},
        )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def cards(self) -> dict[str, int]:
        return {v.name: v.cardinality for v in self.variables}

    def space(self) -> CoordinateSpace:
        return CoordinateSpace(self.variables)

    def topo_order(self) -> tuple[str, ...]:
        """Topological order of the variable DAG; raises on cycles."""
        remaining = {v: set(self.parents[v]) for v in self.names}
        order: list[str] = []
        while remaining:
            ready = sorted(v for v, ps in remaining.items() if not ps)
            if not ready:
                raise CyclicSCMError(f"cycle among {sorted(remaining)}")
            for v in ready:
                order.append(v)
                del remaining[v]
            for ps in remaining.values():
                ps.difference_update(ready)
        return tuple(order)

    def mechanism_value(self, var: str, parent_values: Mapping[str, int],
                        noise_value: int) -> int:
        idx = 0
        for p in self.parents[var]:
            idx = idx * self.cards[p] + parent_values[p]
        idx = idx * len(self.noises[var]) + noise_value
        return self.mechanisms[var][idx]


def _conditional_tables(scm: FiniteSCM, space: CoordinateSpace,
                        order: tuple[str, ...]) -> tuple[tuple, ...]:
    """Tabulate P(x_v | x_pa(v)) of every variable once, in topological order.

    Each table is ``(v, stride, to_parents, rows, den)``: v's stride in
    ``space``, the index ``space.projector(pa(v)).index`` that reads the
    parent values off any outcome index whose parent digits are set, for each
    parent atom the ``(x_v, numerator)`` pairs, and the denominator of v's
    noise that every numerator is over.  Noise values that give the same x_v
    are merged and zero weights are dropped.
    """
    tables = []
    for v in order:
        parents = scm.parents[v]
        proj = space.projector(parents)
        noise, den = scm._noise_rows[v]
        mechanism, k = scm.mechanisms[v], len(noise)
        rows = []
        for values in proj.sub.outcomes():
            # the mechanism is indexed in the order of parents[v], the
            # projector in space order
            of = dict(zip(proj.sub.names, values))
            r = 0
            for p in parents:
                r = r * scm.cards[p] + of[p]
            merged: dict[int, int] = {}
            for nv, w in enumerate(noise):
                if w:
                    x = mechanism[r * k + nv]
                    merged[x] = merged.get(x, 0) + w
            rows.append(tuple(sorted(merged.items())))
        tables.append((v, space.strides[space.position(v)], proj.index, tuple(rows), den))
    return tuple(tables)


def _mutilated_law(space: CoordinateSpace, free: Iterable[tuple],
                   base: int) -> FiniteMeasure:
    """Law of the system with some variables pinned and the rest re-run.

    ``base`` is the outcome index that holds the pinned values and is zero on
    every other coordinate; ``free`` are the conditional tables of the other
    variables, in topological order.  By truncated factorization (Pearl,
    *Causality*, 2nd ed., section 3.2) the law is the product of the free
    variables' conditional probabilities.  The assignments of positive
    probability are grown one free variable at a time, each carrying its
    prefix product of numerators and its outcome index so far, which is all
    the next variable's table lookup needs; every law is over the product of
    the free variables' noise denominators.
    """
    states = [(base, 1)]
    den = 1
    for _, stride, to_parents, table, d in free:
        states = [(i + x * stride, p * w)
                  for i, p in states for x, w in table[to_parents[i]]]
        den *= d
    return FiniteMeasure._sparse(space, dict(states), den)


def compile_scm(scm: FiniteSCM) -> FiniteCausalSpace:
    """Causal space of a structural model, with kernels generated lazily.

    K_S at an atom is the law of the mutilated system with S pinned; the
    empty subset reproduces the observational law exactly.  The conditional
    tables are built once per model and shared by every kernel.

    Only the pinned variables R that some free variable reads reach a free
    variable's table lookup.  So K_S reads R: it holds one law per
    R-assignment, computed with every other pinned variable at 0, and every
    atom's row is that law moved by the atom's values off R, which
    ``StochKernel`` places; no shifted row is built here.
    """
    space = scm.space()
    tables = _conditional_tables(scm, space, scm.topo_order())
    base = _mutilated_law(space, tables, 0)

    def make(subset: frozenset) -> StochKernel:
        free = [t for t in tables if t[0] not in subset]
        read = subset & {p for t in free for p in scm.parents[t[0]]}
        laws = tuple(_mutilated_law(space, free, low) for low in space.projector(read).lowest)
        return StochKernel(space.restrict(subset), space, laws, read)

    return FiniteCausalSpace.lazy(space, base, make)


def pin(scm: FiniteSCM, assignment: Mapping[str, int]) -> FiniteSCM:
    """Hard intervention at the model level: replace equations by constants."""
    parents = dict(scm.parents)
    noises = dict(scm.noises)
    mechanisms = dict(scm.mechanisms)
    for var, value in assignment.items():
        if var not in scm.cards:
            raise SpaceError(f"unknown variable {var!r}")
        if not 0 <= value < scm.cards[var]:
            raise SpaceError(f"pinned value {value} out of range for {var!r}")
        parents[var] = ()
        noises[var] = (ONE,)
        mechanisms[var] = (value,)
    return FiniteSCM(scm.variables, parents, noises, mechanisms)


def marginal_space(scm: FiniteSCM, subset: Iterable[str]) -> FiniteCausalSpace:
    """Causal space on a variable subset, marginalised from the full model.

    The base measure is the marginal of the observational law, and the
    kernel for S' projects the full-system kernel:
    K_{S'}(omega, A) = L_{S'}(omega, A x Omega_rest).
    """
    return _marginal(compile_scm(scm), frozenset(subset))


def _marginal(full: FiniteCausalSpace, keep: frozenset) -> FiniteCausalSpace:
    """``marginal_space`` of a compiled model, projecting its cached kernels."""
    space = full.space.restrict(keep)
    base = project(full.P, keep)

    def make(inner: frozenset) -> StochKernel:
        # big reads inside inner, and its laws are 0 on the pinned
        # coordinates it does not read, so a projected law moved in the
        # kept space is the projection of the moved law
        big = full.kernel(inner)
        laws = tuple(project(law, keep) for law in big.laws)
        return StochKernel(space.restrict(inner), space, laws, big.read)

    return FiniteCausalSpace.lazy(space, base, make)


def inclusion_transform(scm: FiniteSCM, subset: Iterable[str]):
    """Conditional-probability transformation from a marginal into the full model.

    kappa(omega, .) = P(. | X_S = omega) with rho the identity embedding of
    the kept variables.  Every kept atom must have positive mass; otherwise
    the conditional is undefined and ``NullAtomError`` lists the offenders.
    """
    from .transform import IndexMap, Transformation

    keep = frozenset(subset)
    target = compile_scm(scm)
    source = _marginal(target, keep)
    sub = source.space
    support = source.P.support_mask
    null = [sub.outcome(a) for a in range(sub.n_outcomes) if not support >> a & 1]
    if null:
        raise NullAtomError(
            f"null atoms of the kept variables: {null}", atoms=null)
    rows = tuple(target.P.condition(Event(target.space, mask))
                 for mask in target.space.projector(keep).masks)
    kernel = StochKernel(sub, target.space, rows)
    rho = IndexMap(
        source=sub.names,
        target=target.space.names,
        mapping={n: n for n in sub.names},
    )
    return Transformation(source=source, target=target, rho=rho, kernel=kernel)
