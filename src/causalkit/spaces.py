"""Finite product measurable spaces with exact rational measures.

A ``CoordinateSpace`` is an ordered list of named finite coordinates.  An
outcome is a tuple of coordinate values and is addressed by its mixed-radix
index (first coordinate most significant, so ``itertools.product`` order
agrees with index order).  Events are bitsets over outcome indices, measures
are sparse rows of integer numerators over one reduced positive denominator,
and kernels are indexed by the atoms of a coordinate subset.  All
arithmetic is exact and on integers; ``Fraction``s appear only where weights
come in from outside and where they are rendered (``FiniteMeasure.weights``,
``mass``, witness text).  Equality of measures means equality of every
weight.

A kernel is its distinct laws plus one ``(law, offset)`` pick per atom: the
atom's row is the law moved ``offset`` outcomes up the codomain.  A kernel
built from rows gives each atom its own law at offset 0; a compiled model
reuses one law across the atoms that differ only on pinned coordinates that
nothing reads.  Checks read the laws: ``_kernel_part_sums`` sums every row
of a kernel onto the parts of an outcome map over its law's support.

Every row the algebra derives (products, marginals, conditionals, mixtures
of kernel rows, pushforwards) has one constructor, ``FiniteMeasure._sparse``,
which checks and reduces it, fed by private row primitives: ``_part_sums``
sums a measure onto the parts of an outcome map, ``_push`` forms the image
measure under one, ``_mixture`` mixes rows by the weights of a measure and
``_tensor`` forms a product.  ``_shift`` alone skips the check: it moves a
checked law along its space, which changes no numerator, and it only
materialises a kernel's row when a caller reads ``StochKernel.rows``.  Each
walks only supports.  Callers get ``(numerators, denominator)`` pairs or
measures from these primitives and compare values by cross-multiplication;
only this module reads a measure's integer row.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .errors import OutcomeCapError, SpaceError

DEFAULT_MAX_OUTCOMES = 4096
MAX_OUTCOMES_ENV = "CAUSALKIT_MAX_OUTCOMES"

ZERO = Fraction(0)
ONE = Fraction(1)


def outcome_cap() -> int:
    """The outcome-count bound: the env var if set, else the default.

    A set variable must hold a positive integer; any other value raises
    ``OutcomeCapError``.
    """
    env = os.environ.get(MAX_OUTCOMES_ENV)
    if env is None:
        return DEFAULT_MAX_OUTCOMES
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise OutcomeCapError(f"{MAX_OUTCOMES_ENV}={env!r} is not a positive integer")
    return cap


@dataclass(frozen=True)
class Coordinate:
    name: str
    cardinality: int


@dataclass(frozen=True)
class CoordinateSpace:
    """Ordered finite product space; outcomes are mixed-radix indexed."""

    coords: tuple[Coordinate, ...]
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    cards: tuple[int, ...] = field(init=False, compare=False, repr=False)
    strides: tuple[int, ...] = field(init=False, compare=False, repr=False)
    n_outcomes: int = field(init=False, compare=False, repr=False)
    _projectors: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._shape()
        if len(set(self.names)) != len(self.names):
            raise SpaceError(f"duplicate coordinate names: {list(self.names)}")
        for c in self.coords:
            if c.cardinality < 1:
                raise SpaceError(f"coordinate {c.name!r} has cardinality {c.cardinality}")
        cap = outcome_cap()
        if self.n_outcomes > cap:
            raise OutcomeCapError(f"{self.n_outcomes} outcomes exceeds bound {cap}")

    def _shape(self) -> None:
        """Set what ``coords`` determines: names, cardinalities, strides (the
        last coordinate's is 1), the outcome count and an empty projector cache."""
        cards = tuple(c.cardinality for c in self.coords)
        strides, total = [], 1
        for card in reversed(cards):
            strides.append(total)
            total *= card
        self.__dict__.update(names=tuple(c.name for c in self.coords), cards=cards,
                             strides=tuple(reversed(strides)), n_outcomes=total,
                             _projectors={})

    @classmethod
    def make(cls, pairs: Iterable[tuple[str, int]]) -> "CoordinateSpace":
        return cls(tuple(Coordinate(n, k) for n, k in pairs))

    @classmethod
    def _sub(cls, parent: "CoordinateSpace", positions: Iterable[int]) -> "CoordinateSpace":
        """Sub-space of a checked space on some of its coordinate positions.

        Distinct names, positive cardinalities and the outcome cap all hold
        for any sub-space of a space that passed ``__post_init__``, so none
        is checked again and the cap's env var is not read.
        """
        space = object.__new__(cls)
        space.__dict__["coords"] = tuple(parent.coords[i] for i in positions)
        space._shape()
        return space

    def position(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SpaceError(f"unknown coordinate {name!r}") from None

    def positions(self, subset: Iterable[str]) -> tuple[int, ...]:
        """Positions of a coordinate subset, in space order."""
        wanted = set(subset)
        unknown = wanted - set(self.names)
        if unknown:
            raise SpaceError(f"unknown coordinates {sorted(unknown)}")
        return tuple(i for i, n in enumerate(self.names) if n in wanted)

    def index(self, values: tuple[int, ...]) -> int:
        if len(values) != len(self.coords):
            raise SpaceError("outcome arity mismatch")
        idx = 0
        for v, c, s in zip(values, self.coords, self.strides):
            if not 0 <= v < c.cardinality:
                raise SpaceError(f"value {v} out of range for {c.name!r}")
            idx += v * s
        return idx

    def outcome(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n_outcomes:
            raise SpaceError(f"outcome index {index} out of range")
        vals = []
        for s, c in zip(self.strides, self.coords):
            vals.append((index // s) % c.cardinality)
        return tuple(vals)

    def outcomes(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.n_outcomes):
            yield self.outcome(i)

    def restrict(self, subset: Iterable[str]) -> "CoordinateSpace":
        """Sub-space on a coordinate subset, keeping this space's order."""
        return self.projector(subset).sub

    def projector(self, subset: Iterable[str]) -> "Projector":
        """Projection table onto a coordinate subset, built once per subset."""
        key = frozenset(subset)
        table = self._projectors.get(key)
        if table is None:
            table = self._projectors[key] = Projector.build(self, key)
        return table

    def project_index(self, index: int, subset: Iterable[str]) -> int:
        """Index of the projection of outcome ``index`` onto ``subset``."""
        if not 0 <= index < self.n_outcomes:
            raise SpaceError(f"outcome index {index} out of range")
        return self.projector(subset).index[index]


@dataclass(frozen=True)
class Projector:
    """Projection of a space onto a coordinate subset.

    ``index[i]`` is the outcome index in ``sub`` of the projection of full
    outcome ``i``; ``masks[a]`` is the bitset of the full outcomes in atom
    ``a`` of the sub-sigma-algebra, in the index order of ``sub``.  Both are
    as long as the space or wider, so each is built on its first read; a
    scan over atoms can shift ``first`` by ``lowest`` instead of reading
    ``masks``.
    """

    sub: CoordinateSpace
    lowest: tuple[int, ...]
    """Each atom's lowest full outcome: its values on the subset, zero off it.
    Those of atoms on disjoint subsets add; they rise with the atom index."""
    layout: tuple[tuple[int, int, int], ...] = field(compare=False, repr=False)
    """``(cardinality, stride, stride in sub)`` of each coordinate of the
    space, the first most significant; the last is 0 off the subset."""

    @classmethod
    def build(cls, space: CoordinateSpace, subset: Iterable[str]) -> "Projector":
        pos = space.positions(subset)
        sub = CoordinateSpace._sub(space, pos)
        step = dict(zip(pos, sub.strides))
        lowest = [0]
        for p in pos:
            card, stride = space.cards[p], space.strides[p]
            lowest = [a + v * stride for a in lowest for v in range(card)]
        layout = tuple((card, stride, step.get(p, 0))
                       for p, (card, stride) in enumerate(zip(space.cards, space.strides)))
        return cls(sub, tuple(lowest), layout)

    @cached_property
    def index(self) -> tuple[int, ...]:
        # one pass over the coordinates: one on the subset moves the
        # sub-index, one off it leaves it
        index = [0]
        for card, _, step in self.layout:
            moves = [v * step for v in range(card)]
            index = [a + m for a in index for m in moves]
        return tuple(index)

    @cached_property
    def first(self) -> int:
        """The mask of atom 0, spread over the coordinates off the subset; atom
        ``a``'s mask is ``first << lowest[a]``."""
        first = 1
        for card, stride, step in self.layout:
            if not step:
                first = sum(first << v * stride for v in range(card))
        return first

    @cached_property
    def masks(self) -> tuple[int, ...]:
        first = self.first
        return tuple(first << a for a in self.lowest)


def product_space(a: CoordinateSpace, b: CoordinateSpace) -> CoordinateSpace:
    """Concatenate two spaces with disjoint coordinate names.

    The index relation is ``i = i_a * b.n_outcomes + i_b``.
    """
    clash = set(a.names) & set(b.names)
    if clash:
        raise SpaceError(f"coordinate name collision: {sorted(clash)}")
    return CoordinateSpace(a.coords + b.coords)


def rename_space(space: CoordinateSpace, mapping: Mapping[str, str]) -> CoordinateSpace:
    coords = tuple(
        Coordinate(mapping.get(c.name, c.name), c.cardinality) for c in space.coords
    )
    return CoordinateSpace(coords)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Event:
    """Measurable set, stored as a bitset over outcome indices."""

    space: CoordinateSpace
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.space.n_outcomes):
            raise SpaceError("event mask out of range for space")

    @classmethod
    def empty(cls, space: CoordinateSpace) -> "Event":
        return cls(space, 0)

    @classmethod
    def full(cls, space: CoordinateSpace) -> "Event":
        return cls(space, (1 << space.n_outcomes) - 1)

    @classmethod
    def from_indices(cls, space: CoordinateSpace, indices: Iterable[int]) -> "Event":
        mask = 0
        for i in indices:
            if not 0 <= i < space.n_outcomes:
                raise SpaceError(f"outcome index {i} out of range")
            mask |= 1 << i
        return cls(space, mask)

    @classmethod
    def singleton(cls, space: CoordinateSpace, index: int) -> "Event":
        return cls.from_indices(space, [index])

    @classmethod
    def cylinder(cls, space: CoordinateSpace, assignment: Mapping[str, int]) -> "Event":
        """Outcomes agreeing with a partial name-to-value assignment."""
        proj = space.projector(assignment)
        try:
            atom = proj.sub.index(tuple(assignment[n] for n in proj.sub.names))
        except SpaceError:  # a value outside its coordinate's range matches nothing
            return cls.empty(space)
        return cls(space, proj.masks[atom])

    def indices(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def contains(self, index: int) -> bool:
        return bool((self.mask >> index) & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def _check_space(self, other: "Event") -> None:
        if self.space != other.space:
            raise SpaceError("events live on different spaces")

    def union(self, other: "Event") -> "Event":
        self._check_space(other)
        return Event(self.space, self.mask | other.mask)

    def intersect(self, other: "Event") -> "Event":
        self._check_space(other)
        return Event(self.space, self.mask & other.mask)

    def complement(self) -> "Event":
        return Event(self.space, Event.full(self.space).mask ^ self.mask)

    __or__ = union
    __and__ = intersect


def atoms(space: CoordinateSpace, subset: Iterable[str]) -> list[Event]:
    """Atoms of the sub-sigma-algebra generated by a coordinate subset.

    Returned in the index order of the restricted space; for the empty
    subset the single atom is the whole space.
    """
    return [Event(space, m) for m in space.projector(subset).masks]


def is_measurable(event: Event, subset: Iterable[str]) -> bool:
    """Whether an event belongs to the sub-sigma-algebra of a coordinate subset."""
    for atom in atoms(event.space, subset):
        inter = event.mask & atom.mask
        if inter != 0 and inter != atom.mask:
            return False
    return True


def _check_row(values, den: int) -> None:
    """Check the integer numerators of a row over ``den``: each in [0, den],
    in order, then their sum, which must be ``den``."""
    if values and (min(values) < 0 or max(values) > den):
        bad = next(v for v in values if v < 0 or v > den)
        raise SpaceError(f"weight {Fraction(bad, den)} outside [0, 1]")
    total = sum(values)
    if total != den:
        raise SpaceError(f"weights sum to {Fraction(total, den)}, expected 1")


def _integer_row(weights: Iterable) -> tuple[list[int], int]:
    """Numerators of outside weights over their least common denominator.

    Each weight must be a ``Fraction`` in [0, 1], checked in order, and they
    must sum to 1.  Fractions are reduced, so a row that sums to 1 over the
    least common denominator is reduced as well.
    """
    weights = tuple(weights)
    for w in weights:
        if not isinstance(w, Fraction):
            raise SpaceError("weights must be Fractions")
        if w.numerator < 0 or w.numerator > w.denominator:
            raise SpaceError(f"weight {w} outside [0, 1]")
    den = lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    _check_row(nums, den)
    return nums, den


def _measure(space: CoordinateSpace, nums: dict[int, int], den: int) -> "FiniteMeasure":
    """A measure from its checked, reduced integer row."""
    measure = object.__new__(FiniteMeasure)
    fields = measure.__dict__
    fields["space"] = space
    fields["_nums"] = nums
    fields["_den"] = den
    return measure


class FiniteMeasure:
    """Exact probability measure on a coordinate space.

    The weights are stored as ``{outcome index: numerator}`` over one
    positive denominator, with no zero numerator and reduced, so that two
    measures are equal exactly when their spaces, numerators and
    denominators are, and a row costs its support, not its space.
    ``weights`` renders the dense table as ``Fraction``s.  Measures are
    immutable.
    """

    space: CoordinateSpace

    def __init__(self, space: CoordinateSpace, weights: Iterable):
        self.__dict__["space"] = space
        self.__post_init__(weights)

    def __post_init__(self, weights: Iterable) -> None:
        """Check weights given from outside and store their integer row."""
        weights = tuple(weights)
        if len(weights) != self.space.n_outcomes:
            raise SpaceError("weight table length mismatch")
        nums, den = _integer_row(weights)
        self.__dict__.update(_nums={i: v for i, v in enumerate(nums) if v}, _den=den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return (self._den == other._den and self._nums == other._nums
                and self.space == other.space)

    def __hash__(self):
        return hash((self._den, self.support_mask))

    def __repr__(self):
        return f"FiniteMeasure(space={self.space!r}, weights={self.weights!r})"

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """The dense table of weights as ``Fraction``s, rendered once."""
        den = self._den
        out = [ZERO] * self.space.n_outcomes
        for i, v in self._nums.items():
            out[i] = Fraction(v, den)
        return tuple(out)

    @cached_property
    def support_mask(self) -> int:
        """Bitset of the outcomes of nonzero weight."""
        return sum(map((1).__lshift__, self._nums))

    @classmethod
    def from_weights(cls, space: CoordinateSpace, weights: Iterable) -> "FiniteMeasure":
        return cls(space, tuple(Fraction(w) for w in weights))

    @classmethod
    def _sparse(cls, space: CoordinateSpace, entries: Mapping[int, int],
                den: int) -> "FiniteMeasure":
        """Measure from ``{outcome index: numerator}`` over ``den``, zero elsewhere.

        Every given numerator is checked and summed as ``__post_init__``
        checks outside weights; the row is then reduced and its zeros
        dropped.
        """
        values = entries.values()
        _check_row(values, den)
        g = gcd(den, *values)
        if g > 1 or 0 in values:
            nums = {i: v // g for i, v in entries.items() if v}
        else:
            nums = dict(entries)
        return _measure(space, nums, den // g)

    @classmethod
    def dirac(cls, space: CoordinateSpace, index: int) -> "FiniteMeasure":
        if not 0 <= index < space.n_outcomes:
            raise SpaceError(f"outcome index {index} out of range")
        return _measure(space, {index: 1}, 1)

    @classmethod
    def uniform(cls, space: CoordinateSpace) -> "FiniteMeasure":
        n = space.n_outcomes
        return _measure(space, dict.fromkeys(range(n), 1), n)

    def _numerator(self, event: Event) -> int:
        """Numerator of the mass of an event, over the measure's denominator."""
        if event.space != self.space:
            raise SpaceError("event on a different space")
        nums = self._nums
        return sum(nums[i] for i in iter_bits(event.mask & self.support_mask))

    def mass(self, event: Event) -> Fraction:
        return Fraction(self._numerator(event), self._den)

    def tensor(self, other: "FiniteMeasure") -> "FiniteMeasure":
        """Product measure on the product space."""
        return _tensor(product_space(self.space, other.space), self, other)

    def condition(self, event: Event) -> "FiniteMeasure":
        """Conditional measure given an event of positive mass."""
        z = self._numerator(event)
        if z == 0:
            raise SpaceError("conditioning on a null event")
        nums = self._nums
        return FiniteMeasure._sparse(
            self.space, {i: nums[i] for i in iter_bits(event.mask & self.support_mask)}, z)


def _first_difference(a: FiniteMeasure, b: FiniteMeasure) -> int:
    """The lowest outcome on which two measures on one space differ; they
    must differ somewhere."""
    na, nb, da, db = a._nums, b._nums, a._den, b._den
    return min(i for i in na.keys() | nb.keys() if na.get(i, 0) * db != nb.get(i, 0) * da)


def _part_sums(measure: FiniteMeasure, index: list[int] | tuple[int, ...],
               n: int) -> tuple[list[int], int]:
    """Masses of a measure on the parts ``0 .. n - 1`` that ``index`` assigns
    each outcome to, in one pass over the measure's support, as numerators
    over the returned denominator, which need not be their least."""
    out = [0] * n
    for i, v in measure._nums.items():
        out[index[i]] += v
    return out, measure._den


def _push(space: CoordinateSpace, measure: FiniteMeasure,
          index: Sequence[int]) -> FiniteMeasure:
    """Image of a measure under the outcome map ``index`` onto ``space``."""
    out: dict[int, int] = {}
    for i, v in measure._nums.items():
        j = index[i]
        out[j] = out.get(j, 0) + v
    return FiniteMeasure._sparse(space, out, measure._den)


def _mixture(space: CoordinateSpace, weights: FiniteMeasure,
             rows: Sequence[FiniteMeasure]) -> FiniteMeasure:
    """The mixture sum_k w_k rows[k] on ``space``, for the weights w of a
    measure whose outcomes index ``rows``, walking only the supports."""
    terms = [(w, rows[k]) for k, w in weights._nums.items()]
    den = lcm(*(m._den for _, m in terms))
    out: dict[int, int] = {}
    for w, m in terms:
        scale = w * (den // m._den)
        for i, v in m._nums.items():
            out[i] = out.get(i, 0) + scale * v
    return FiniteMeasure._sparse(space, out, weights._den * den)


def _shift(measure: FiniteMeasure, offset: int) -> FiniteMeasure:
    """``measure`` moved ``offset`` outcomes up its space: the same numerators
    at shifted outcomes over the same denominator, so the row is checked and
    reduced already.  Every outcome of the support plus ``offset`` must be an
    outcome of the space."""
    return _measure(measure.space, {i + offset: v for i, v in measure._nums.items()},
                    measure._den)


def _tensor(space: CoordinateSpace, a: FiniteMeasure, b: FiniteMeasure) -> FiniteMeasure:
    """Product measure of ``a`` and ``b`` on ``space``, their product space,
    built over both supports."""
    nb = b.space.n_outcomes
    right = list(b._nums.items())
    return FiniteMeasure._sparse(space, {i * nb + j: va * vb
                                         for i, va in a._nums.items() for j, vb in right},
                                 a._den * b._den)


def project(measure: FiniteMeasure, subset: Iterable[str]) -> FiniteMeasure:
    """Marginal of a measure on a coordinate subset."""
    proj = measure.space.projector(subset)
    return _push(proj.sub, measure, proj.index)


@lru_cache(maxsize=None)
def _own_picks(n: int) -> tuple[tuple[int, int], ...]:
    """The picks of a kernel with one law per atom: atom a reads law a."""
    return tuple((a, 0) for a in range(n))


def _check_picks(domain: CoordinateSpace, codomain: CoordinateSpace,
                 laws: tuple[FiniteMeasure, ...], picks: tuple[tuple[int, int], ...]) -> None:
    """Raise ``SpaceError`` unless picks that reuse laws keep ``StochKernel``'s
    invariant and move every law only to outcomes of the codomain."""
    proj = codomain.projector(domain.names)
    if proj.sub is not domain and proj.sub != domain:
        raise SpaceError("a kernel that reuses its laws needs the codomain restricted "
                         "to its domain")
    home: dict[int, int] = {}  # each law -> the lowest outcome of its first atom
    first = home.setdefault
    for (j, offset), low in zip(picks, proj.lowest):
        if offset != low - first(j, low):
            raise SpaceError(f"pick {(j, offset)} is not its atom's offset from the "
                             "first atom of its law")
    if list(home) != list(range(len(laws))):
        raise SpaceError("kernel laws are not picked, each, in the order of their first atoms")
    # a law's last pick has its largest offset
    for j, offset in dict(picks).items():
        if offset and max(laws[j]._nums) + offset >= codomain.n_outcomes:
            raise SpaceError(f"kernel law {j} shifted by {offset} leaves the codomain")


class _ShiftedRows(Sequence):
    """The rows of a kernel that reuses its laws: the length needs no row,
    and the first read of a row builds every row, each law moved by
    ``_shift``, once."""

    def __init__(self, laws: tuple[FiniteMeasure, ...], picks: tuple[tuple[int, int], ...]):
        self._laws = laws
        self._picks = picks
        self._rows: tuple[FiniteMeasure, ...] | None = None

    def _build(self) -> tuple[FiniteMeasure, ...]:
        laws = self._laws
        self._rows = tuple([_shift(laws[j], offset) if offset else laws[j]
                            for j, offset in self._picks])
        return self._rows

    def __len__(self) -> int:
        return len(self._picks)

    def __getitem__(self, a):
        return (self._rows or self._build())[a]

    def __iter__(self):
        return iter(self._rows or self._build())

    def __eq__(self, other):
        return (self._rows or self._build()) == other


class StochKernel:
    """Markov kernel from the atoms of a coordinate subset to a target space.

    ``domain`` is the restricted space whose outcomes index the rows; each
    row is a probability measure on ``codomain``.  A kernel holds its
    distinct ``laws`` and one pick ``(law, offset)`` per atom: the atom's
    row is that law moved ``offset`` outcomes up the codomain.
    ``StochKernel(domain, codomain, rows)`` gives each atom its own row as
    its law, at offset 0.  Picks that reuse a law need ``domain`` to be the
    codomain restricted to its names, and keep an invariant that is checked
    here: the laws are numbered in the order of their first picks, each
    law's first pick has offset 0, and every offset is the atom's lowest
    outcome less that of the law's first atom.  An atom's mask is then its
    law's atom's mask moved by the same offset.

    ``rows`` is the public sequence of rows: the laws themselves when each
    atom has its own, else a view whose length needs no row and which
    builds every row, once, when the first is read.  Equality, hash and
    pickle go by the rows, so a kernel equals, and hashes as, the kernel
    built from its materialised rows.
    """

    domain: CoordinateSpace
    codomain: CoordinateSpace
    laws: tuple[FiniteMeasure, ...]
    picks: tuple[tuple[int, int], ...]
    rows: Sequence[FiniteMeasure]

    def __init__(self, domain: CoordinateSpace, codomain: CoordinateSpace,
                 laws: Iterable[FiniteMeasure],
                 picks: Iterable[tuple[int, int]] | None = None):
        laws = tuple(laws)
        n = domain.n_outcomes
        own = _own_picks(n)
        picks = own if picks is None else tuple(picks)
        if len(picks) != n or (picks is own and len(laws) != n):
            raise SpaceError("kernel row count mismatch")
        for law in laws:
            if law.space is not codomain and law.space != codomain:
                raise SpaceError("kernel row on wrong space")
        if len(laws) != n:
            _check_picks(domain, codomain, laws, picks)
        elif picks is not own and picks != own:
            raise SpaceError("a kernel with one law per atom reads each at its own atom")
        self.__dict__.update(domain=domain, codomain=codomain, laws=laws, picks=picks,
                             rows=laws if len(laws) == n else _ShiftedRows(laws, picks))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, StochKernel):
            return NotImplemented
        if self.domain != other.domain or self.codomain != other.codomain:
            return False
        if self.picks == other.picks:  # a shift is one-to-one
            return self.laws == other.laws
        return self.rows == other.rows

    def __hash__(self):
        laws = self.laws
        return hash((self.domain, self.codomain,
                     tuple((laws[j]._den, laws[j].support_mask << offset)
                           for j, offset in self.picks)))

    def __reduce__(self):
        return StochKernel, (self.domain, self.codomain, self.laws, self.picks)

    def __repr__(self):
        return (f"StochKernel(domain={self.domain!r}, codomain={self.codomain!r}, "
                f"rows={tuple(self.rows)!r})")

    @classmethod
    def from_rows(cls, domain: CoordinateSpace, codomain: CoordinateSpace,
                  rows: Iterable[Iterable]) -> "StochKernel":
        return cls(domain, codomain,
                   tuple(FiniteMeasure.from_weights(codomain, r) for r in rows))

    @classmethod
    def identity(cls, space: CoordinateSpace) -> "StochKernel":
        rows = tuple(FiniteMeasure.dirac(space, i) for i in range(space.n_outcomes))
        return cls(space, space, rows)

    @classmethod
    def constant(cls, domain: CoordinateSpace, measure: FiniteMeasure) -> "StochKernel":
        return cls(domain, measure.space, tuple(measure for _ in range(domain.n_outcomes)))

    @classmethod
    def deterministic(cls, domain: CoordinateSpace, codomain: CoordinateSpace,
                      table: Iterable[int]) -> "StochKernel":
        rows = tuple(FiniteMeasure.dirac(codomain, j) for j in table)
        return cls(domain, codomain, rows)

    def value(self, row_index: int, event: Event) -> Fraction:
        return self.rows[row_index].mass(event)


def _kernel_part_sums(kernel: StochKernel, index: Sequence[int],
                      n: int) -> list[tuple[list[int], int]]:
    """``_part_sums`` of every row of a kernel, in atom order, in one call.

    A row is its law shifted by its offset, so it is summed over the law's
    support at ``index[i + offset]``; no shifted row is built.
    """
    laws = kernel.laws
    out = []
    for j, offset in kernel.picks:
        law = laws[j]
        sums = [0] * n
        if offset:
            for i, v in law._nums.items():
                sums[index[i + offset]] += v
        else:
            for i, v in law._nums.items():
                sums[index[i]] += v
        out.append((sums, law._den))
    return out


def kernel_compose(first: StochKernel, second: StochKernel) -> StochKernel:
    """Chain two kernels: integrate ``second`` against each row of ``first``.

    The codomain of ``first`` must be the full-coordinate domain of
    ``second``; sub-distributivity never arises because rows are exact
    probability measures.
    """
    if first.codomain != second.domain:
        raise SpaceError("kernel domains do not chain")
    rows = tuple(_mixture(second.codomain, row, second.rows) for row in first.rows)
    return StochKernel(first.domain, second.codomain, rows)


def kernel_product(a: StochKernel, b: StochKernel) -> StochKernel:
    """Tensor two kernels: rows are outer products, domains concatenate."""
    cod = product_space(a.codomain, b.codomain)
    rows = tuple(_tensor(cod, ra, rb) for ra in a.rows for rb in b.rows)
    return StochKernel(product_space(a.domain, b.domain), cod, rows)
