"""Measurable-space layer: atoms, measurability, projection, kernel algebra.

Matrix-product and outer-product oracles for the kernel operations are
written out longhand in exact rational arithmetic so the implementations
are checked against independent code, not against themselves.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import causalkit as ck
from causalkit import examples
from conftest import (assert_row_built_twin, chain_scm, coordinate_spaces, events,
                      kernels, measures)

F = Fraction


def two_bits():
    return ck.CoordinateSpace.make([("X", 2), ("Y", 2)])


# ---------------------------------------------------------------------------
# coordinate spaces


def test_duplicate_names_rejected():
    with pytest.raises(ck.SpaceError):
        ck.CoordinateSpace.make([("X", 2), ("X", 2)])


def test_zero_cardinality_rejected():
    with pytest.raises(ck.SpaceError):
        ck.CoordinateSpace.make([("X", 0)])


def test_outcome_cap_default_and_override(monkeypatch):
    with pytest.raises(ck.OutcomeCapError):
        ck.CoordinateSpace.make([(f"V{i}", 4) for i in range(7)])  # 4^7 > 4096
    monkeypatch.setenv("CAUSALKIT_MAX_OUTCOMES", "20000")
    assert ck.CoordinateSpace.make([(f"V{i}", 4) for i in range(7)]).n_outcomes == 4 ** 7
    monkeypatch.setenv("CAUSALKIT_MAX_OUTCOMES", "8")
    with pytest.raises(ck.OutcomeCapError):
        ck.CoordinateSpace.make([("X", 3), ("Y", 3)])
    # a value that is not a positive integer names itself instead of
    # failing inside int() or rejecting every space
    for value in ("abc", "0", "-3", "", "2.5"):
        monkeypatch.setenv("CAUSALKIT_MAX_OUTCOMES", value)
        with pytest.raises(ck.OutcomeCapError,
                           match=f"^CAUSALKIT_MAX_OUTCOMES={value!r} is not a positive"):
            ck.CoordinateSpace.make([("X", 2)])
    monkeypatch.setenv("CAUSALKIT_MAX_OUTCOMES", "1")
    assert ck.CoordinateSpace.make([("X", 1)]).n_outcomes == 1


@given(coordinate_spaces())
def test_index_outcome_roundtrip(space):
    seen = set()
    for i in range(space.n_outcomes):
        o = space.outcome(i)
        assert space.index(o) == i
        seen.add(o)
    assert len(seen) == space.n_outcomes


@given(coordinate_spaces())
def test_project_index_consistent_with_outcome(space):
    names = space.names
    for i in range(space.n_outcomes):
        vals = dict(zip(names, space.outcome(i)))
        for subset in ck.subsets_of(names):
            sub = space.restrict(subset)
            j = space.project_index(i, subset)
            assert sub.outcome(j) == tuple(vals[n] for n in sub.names)


def test_projector_is_built_once_per_subset():
    space = ck.CoordinateSpace.make([("B", 2), ("A", 3), ("C", 2)])
    proj = space.projector(("C", "A"))
    assert space.projector(["A", "C"]) is proj
    assert space.restrict(("A", "C")) is proj.sub
    for a, mask in enumerate(proj.masks):
        for i in range(space.n_outcomes):
            assert bool((mask >> i) & 1) == (proj.index[i] == a)
    with pytest.raises(ck.SpaceError):
        space.projector(("D",))
    with pytest.raises(ck.SpaceError):
        space.project_index(space.n_outcomes, ("A",))


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
def test_lazy_projection_tables_match_the_outcome_definitions(cards, data):
    # cardinality-1 coordinates included; the empty and the full subset are
    # checked on every space
    space = ck.CoordinateSpace.make([(f"V{i}", c) for i, c in enumerate(cards)])
    drawn = data.draw(st.sets(st.sampled_from(space.names)))
    for subset in {frozenset(drawn), frozenset(), frozenset(space.names)}:
        proj = space.projector(subset)
        assert "index" not in vars(proj) and "masks" not in vars(proj)
        pos = space.positions(subset)
        index = tuple(proj.sub.index(tuple(space.outcome(i)[p] for p in pos))
                      for i in range(space.n_outcomes))
        assert proj.index == index
        assert proj.masks == tuple(sum(1 << i for i, a in enumerate(index) if a == b)
                                   for b in range(proj.sub.n_outcomes))
        assert space.projector(subset).index is proj.index
        assert space.projector(subset).masks is proj.masks


def test_compile_and_validate_build_no_index_but_the_parent_sets():
    # the conditional tables read the parent sets' indexes; compiling every
    # kernel and validating reads no other subset's
    for scm in (examples.fork_scm(), examples.mediator_confounder_scm(),
                examples.composition_scm()):
        c = ck.compile_scm(scm)
        assert ck.validate_causal_space(c).passed
        projectors = c.space._projectors
        assert len(projectors) == 2 ** len(scm.names)
        built = {key for key, proj in projectors.items() if "index" in vars(proj)}
        assert built == {frozenset(scm.parents[v]) for v in scm.names}


@given(coordinate_spaces())
def test_lowest_outcomes_represent_atoms_and_add(space):
    names = space.names
    for s in ck.subsets_of(names):
        ps = space.projector(s)
        assert ps.lowest == tuple(min(i for i in range(space.n_outcomes) if m >> i & 1)
                                  for m in ps.masks)
        for t in ck.subsets_of(set(names) - set(s)):
            pt, pu = space.projector(t), space.projector(s + t)
            for a, ma in enumerate(ps.masks):
                for b, mb in enumerate(pt.masks):
                    common = pu.masks.index(ma & mb)
                    assert ps.lowest[a] + pt.lowest[b] == pu.lowest[common]


def test_restrict_keeps_space_order():
    space = ck.CoordinateSpace.make([("B", 2), ("A", 3), ("C", 2)])
    assert space.restrict(("C", "A")).names == ("A", "C")


def test_product_space_disjointness():
    a = two_bits()
    with pytest.raises(ck.SpaceError):
        ck.product_space(a, ck.CoordinateSpace.make([("Y", 3)]))
    prod = ck.product_space(a, ck.CoordinateSpace.make([("Z", 3)]))
    assert prod.names == ("X", "Y", "Z")
    assert prod.n_outcomes == 12


def test_rename_space():
    renamed = ck.rename_space(two_bits(), {"X": "A", "Y": "B"})
    assert renamed.names == ("A", "B")
    assert renamed.cards == (2, 2)
    with pytest.raises(ck.SpaceError):
        ck.rename_space(two_bits(), {"X": "Y", "Y": "Y"})


# ---------------------------------------------------------------------------
# events, atoms, measurability


@given(coordinate_spaces())
def test_atoms_partition_the_space(space):
    for subset in ck.subsets_of(space.names):
        ats = ck.atoms(space, subset)
        assert len(ats) == space.restrict(subset).n_outcomes
        covered = sorted(i for a in ats for i in a.indices())
        assert covered == list(range(space.n_outcomes))
        for i, a in enumerate(ats):
            for b in ats[i + 1:]:
                assert a.intersect(b).size == 0


def test_atoms_of_known_subsets():
    space = two_bits()
    assert [a.size for a in ck.atoms(space, ())] == [4]
    assert [a.size for a in ck.atoms(space, ("X",))] == [2, 2]
    assert [a.size for a in ck.atoms(space, ("X", "Y"))] == [1, 1, 1, 1]


def test_is_measurable_known_cases():
    space = two_bits()
    x0 = ck.Event.from_indices(space, [space.index((0, 0)), space.index((0, 1))])
    single = ck.Event.singleton(space, space.index((0, 0)))
    assert ck.is_measurable(x0, ("X",))
    assert not ck.is_measurable(single, ("X",))
    assert ck.is_measurable(single, ("X", "Y"))
    assert ck.is_measurable(ck.Event.full(space), ())
    assert ck.is_measurable(ck.Event.empty(space), ())
    assert not ck.is_measurable(x0, ())


@given(st.data())
def test_is_measurable_iff_union_of_atoms(data):
    space = data.draw(coordinate_spaces())
    event = data.draw(events(space))
    for subset in ck.subsets_of(space.names):
        ats = ck.atoms(space, subset)
        union_of_atoms = all(
            a.mask & ~event.mask == 0 or a.intersect(event).size == 0 for a in ats)
        assert ck.is_measurable(event, subset) == union_of_atoms


@given(st.data())
def test_measurability_monotone_in_subset(data):
    space = data.draw(coordinate_spaces())
    event = data.draw(events(space))
    names = list(space.names)
    small = data.draw(st.sets(st.sampled_from(names))) if names else set()
    extra = data.draw(st.sets(st.sampled_from(names))) if names else set()
    if ck.is_measurable(event, tuple(small)):
        assert ck.is_measurable(event, tuple(small | extra))


def test_event_cylinder():
    space = two_bits()
    ev = ck.Event.cylinder(space, {"Y": 1})
    assert sorted(ev.indices()) == [space.index((0, 1)), space.index((1, 1))]
    assert ck.Event.cylinder(space, {"Y": 2}).size == 0
    assert ck.Event.cylinder(space, {"X": 1, "Y": 0}) == (
        ck.Event.cylinder(space, {"X": 1}) & ck.Event.cylinder(space, {"Y": 0}))
    assert ck.Event.cylinder(space, {}) == ck.Event.full(space)
    with pytest.raises(ck.SpaceError):
        ck.Event.cylinder(space, {"Z": 0})
    with pytest.raises(ck.SpaceError):
        ck.Event.from_indices(space, [4])
    with pytest.raises(ck.SpaceError):
        ck.Event(space, 1 << 4)


# ---------------------------------------------------------------------------
# measures


def test_measure_must_sum_to_one_exactly():
    space = two_bits()
    with pytest.raises(ck.SpaceError):
        ck.FiniteMeasure(space, (F(1, 2), F(1, 2), F(1, 2), F(0)))
    with pytest.raises(ck.SpaceError):
        ck.FiniteMeasure(space, (F(3, 2), F(-1, 2), F(0), F(0)))


MEASURE_REJECTIONS = [
    pytest.param((F(0), F(-1, 2), F(0), F(3, 2)), "weight -1/2 outside [0, 1]",
                 id="negative"),
    pytest.param((F(1, 2), 0, F(1, 2), F(0)), "weights must be Fractions", id="int"),
    pytest.param((F(0), F(-1), 0, F(0)), "weight -1 outside [0, 1]", id="negative-before-int"),
    pytest.param((F(0), F(0), F(3, 2), F(-1, 2)), "weight 3/2 outside [0, 1]", id="above-one"),
    pytest.param((F(1, 2), F(0), F(1, 4), F(0)), "weights sum to 3/4, expected 1",
                 id="short-sum"),
    pytest.param((F(0), F(0), F(0), F(0)), "weights sum to 0, expected 1", id="all-zero"),
    # each fault alone: the other weights sum to 1 over thirds and sevenths
    pytest.param((F(1, 3), F(-1, 7), F(17, 21), F(0)), "weight -1/7 outside [0, 1]",
                 id="negative-mixed"),
    pytest.param((F(1, 3), F(0), F(8, 7), F(-10, 21)), "weight 8/7 outside [0, 1]",
                 id="above-one-mixed"),
    pytest.param((F(1, 3), F(1, 7), F(0), F(1, 3)), "weights sum to 17/21, expected 1",
                 id="short-sum-mixed"),
    pytest.param((F(1, 3), 0.5, F(1, 6), F(0)), "weights must be Fractions", id="float"),
]


@pytest.mark.parametrize("weights, message", MEASURE_REJECTIONS)
def test_measure_rejections_name_the_first_fault(weights, message):
    # zero weights are skipped after their type check; nothing else moves
    with pytest.raises(ck.SpaceError) as err:
        ck.FiniteMeasure(two_bits(), weights)
    assert str(err.value) == message


@pytest.mark.parametrize("weights, message", [
    case for case in MEASURE_REJECTIONS if case.id not in ("int", "float")])
def test_sparse_measure_rejections_match_the_dense_ones(weights, message):
    # the package's integer rows check every numerator they are given alike;
    # a non-Fraction weight cannot reach them
    den = lcm(*(F(w).denominator for w in weights))
    with pytest.raises(ck.SpaceError) as err:
        ck.FiniteMeasure._sparse(two_bits(), {i: int(w * den) for i, w in enumerate(weights)},
                                 den)
    assert str(err.value) == message


def test_sparse_measure_places_its_entries_and_records_the_support():
    space = two_bits()
    m = ck.FiniteMeasure._sparse(space, {3: 1, 1: 0, 0: 3}, 4)
    assert m == ck.FiniteMeasure(space, (F(3, 4), F(0), F(0), F(1, 4)))
    assert m.support_mask == 0b1001 == ck.FiniteMeasure(space, m.weights).support_mask


@st.composite
def fraction_rows(draw, space):
    """Weights of a probability measure on ``space`` as plain Fractions,
    over mixed denominators."""
    raw = draw(st.lists(st.integers(min_value=0, max_value=6),
                        min_size=space.n_outcomes, max_size=space.n_outcomes)
               .filter(any))
    scale = draw(st.sampled_from([1, 3, 7]))
    total = sum(raw) * scale
    return tuple(F(w * scale, total) for w in raw)


def check_integer_form(m, expected):
    """``m`` renders ``expected``, keeps a reduced integer row, and compares
    and hashes as a measure built from ``expected`` does."""
    assert m.weights == tuple(expected)
    nums, den = m._nums, m._den
    assert den > 0 and all(v > 0 for v in nums.values())
    assert gcd(den, *nums.values()) == 1
    twin = ck.FiniteMeasure(m.space, tuple(expected))
    assert m == twin and hash(m) == hash(twin)
    other = ck.FiniteMeasure.dirac(m.space, 0)
    assert (m == other) == (m.weights == other.weights)


@given(st.data())
def test_integer_rows_match_fraction_arithmetic(data):
    space = data.draw(coordinate_spaces())
    n = space.n_outcomes
    ws = data.draw(fraction_rows(space))
    m = ck.FiniteMeasure(space, ws)
    check_integer_form(m, ws)
    check_integer_form(ck.FiniteMeasure.from_weights(space, [str(w) for w in ws]), ws)
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    check_integer_form(ck.FiniteMeasure.dirac(space, index),
                       [F(int(i == index)) for i in range(n)])
    check_integer_form(ck.FiniteMeasure.uniform(space), [F(1, n)] * n)

    other = ck.CoordinateSpace.make([("W", 3)])
    vs = data.draw(fraction_rows(other))
    check_integer_form(m.tensor(ck.FiniteMeasure(other, vs)), [a * b for a in ws for b in vs])

    event = data.draw(events(space))
    z = sum((ws[i] for i in event.indices()), F(0))
    if z:
        check_integer_form(m.condition(event),
                           [w / z if event.contains(i) else F(0) for i, w in enumerate(ws)])
    for subset in ck.subsets_of(space.names):
        marginal = [F(0)] * space.restrict(subset).n_outcomes
        for i, w in enumerate(ws):
            marginal[space.project_index(i, subset)] += w
        check_integer_form(ck.project(m, subset), marginal)

    mid = data.draw(coordinate_spaces(max_coords=2))
    first = data.draw(kernels(codomain=mid))
    second = data.draw(kernels(domain=mid))
    for row, expected in zip(ck.kernel_compose(first, second).rows,
                             compose_oracle(first, second)):
        check_integer_form(row, expected)
    beside = data.draw(kernels(domain=ck.CoordinateSpace.make([("B", 2)]), codomain=other))
    prod = ck.kernel_product(first, beside)
    for row, expected in zip(prod.rows, outer_oracle(first, beside, prod)):
        check_integer_form(row, expected)


def test_measure_accepts_zero_weights():
    space = two_bits()
    assert ck.FiniteMeasure(space, (F(0), F(1), F(0), F(0))).weights[1] == 1


@given(measures())
def test_measure_mass_is_additive_and_total(m):
    full = ck.Event.full(m.space)
    assert m.mass(full) == 1
    half = ck.Event.from_indices(
        m.space, range(0, m.space.n_outcomes, 2))
    assert m.mass(half) + m.mass(half.complement()) == 1


@given(measures())
def test_projection_preserves_mass_of_cylinders(m):
    for subset in ck.subsets_of(m.space.names):
        proj = ck.project(m, subset)
        assert proj.space == m.space.restrict(subset)
        assert sum(proj.weights) == 1
        for j, atom in enumerate(ck.atoms(m.space, subset)):
            assert proj.weights[j] == m.mass(atom)


def test_project_known_value(xor):
    marg = ck.project(xor.P, ("Y",))
    assert marg.weights == (F(1, 2), F(1, 2))
    margx = ck.project(xor.P, ("X",))
    assert margx.weights == (F(1, 2), F(1, 2))


def test_condition_and_tensor():
    space = two_bits()
    m = ck.FiniteMeasure(space, (F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
    x1 = ck.Event.cylinder(space, {"X": 1})
    cond = m.condition(x1)
    assert cond.mass(x1) == 1
    with pytest.raises(ck.SpaceError):
        m.condition(ck.Event.empty(space))
    coin = ck.FiniteMeasure.uniform(ck.CoordinateSpace.make([("Z", 2)]))
    joint = m.tensor(coin)
    assert joint.space.names == ("X", "Y", "Z")
    assert sum(joint.weights) == 1


# ---------------------------------------------------------------------------
# kernels


def compose_oracle(first, second):
    """Row-by-row rational matrix product, written out longhand."""
    rows = []
    for a in range(first.domain.n_outcomes):
        w = [F(0)] * second.codomain.n_outcomes
        for mid in range(first.codomain.n_outcomes):
            p = first.rows[a].weights[mid]
            if p == 0:
                continue
            for j in range(second.codomain.n_outcomes):
                w[j] += p * second.rows[mid].weights[j]
        rows.append(tuple(w))
    return rows


@given(st.data())
def test_kernel_compose_matches_matrix_product(data):
    mid = data.draw(coordinate_spaces(max_coords=2))
    first = data.draw(kernels(codomain=mid))
    second = data.draw(kernels(domain=mid))
    composed = ck.kernel_compose(first, second)
    assert composed.domain == first.domain
    assert composed.codomain == second.codomain
    expected = compose_oracle(first, second)
    for a in range(first.domain.n_outcomes):
        assert composed.rows[a].weights == expected[a]


@given(st.data())
def test_kernel_compose_identity_neutral(data):
    k = data.draw(kernels())
    left = ck.kernel_compose(ck.StochKernel.identity(k.domain), k)
    right = ck.kernel_compose(k, ck.StochKernel.identity(k.codomain))
    assert left.rows == k.rows
    assert right.rows == k.rows


@given(st.data())
def test_kernel_compose_associative(data):
    s1 = data.draw(coordinate_spaces(max_coords=2))
    s2 = data.draw(coordinate_spaces(max_coords=2))
    k1 = data.draw(kernels(codomain=s1))
    k2 = data.draw(kernels(domain=s1, codomain=s2))
    k3 = data.draw(kernels(domain=s2))
    lhs = ck.kernel_compose(ck.kernel_compose(k1, k2), k3)
    rhs = ck.kernel_compose(k1, ck.kernel_compose(k2, k3))
    assert lhs.rows == rhs.rows


def outer_oracle(a, b, prod):
    """Entrywise outer product of two kernels over the product indexing."""
    dom = prod.domain
    cod = prod.codomain
    rows = []
    for r in range(dom.n_outcomes):
        ra = dom.project_index(r, a.domain.names)
        rb = dom.project_index(r, b.domain.names)
        w = [F(0)] * cod.n_outcomes
        for j in range(cod.n_outcomes):
            ja = cod.project_index(j, a.codomain.names)
            jb = cod.project_index(j, b.codomain.names)
            w[j] = a.rows[ra].weights[ja] * b.rows[rb].weights[jb]
        rows.append(tuple(w))
    return rows


@given(st.data())
def test_kernel_product_matches_outer_product(data):
    a = data.draw(kernels(domain=ck.CoordinateSpace.make([("A", 2)]),
                          codomain=ck.CoordinateSpace.make([("U", 2)])))
    b = data.draw(kernels(domain=ck.CoordinateSpace.make([("B", 3)]),
                          codomain=ck.CoordinateSpace.make([("V", 2)])))
    prod = ck.kernel_product(a, b)
    expected = outer_oracle(a, b, prod)
    for r in range(prod.domain.n_outcomes):
        assert prod.rows[r].weights == expected[r]


def test_kernel_product_of_diracs_is_dirac():
    s = ck.CoordinateSpace.make([("A", 2)])
    t = ck.CoordinateSpace.make([("B", 3)])
    a = ck.StochKernel.identity(s)
    b = ck.StochKernel.identity(t)
    prod = ck.kernel_product(a, b)
    for r in range(prod.domain.n_outcomes):
        w = prod.rows[r].weights
        assert sorted(w, reverse=True)[0] == 1
        assert w[r] == 1  # domain and codomain share the index layout here


def test_kernel_rows_validated():
    s = two_bits()
    dom = s.restrict(("X",))
    good = ck.FiniteMeasure.uniform(s)
    with pytest.raises(ck.SpaceError):
        ck.StochKernel(dom, s, (good,))  # one row missing
    with pytest.raises(ck.SpaceError):
        ck.StochKernel(dom, s, (good, ck.FiniteMeasure.uniform(dom)))


def test_kernel_constructors():
    s = two_bits()
    m = ck.FiniteMeasure.dirac(s, 3)
    for index in (-1, 4):
        with pytest.raises(ck.SpaceError, match="out of range"):
            ck.FiniteMeasure.dirac(s, index)
    const = ck.StochKernel.constant(s.restrict(("X",)), m)
    assert all(r.weights[3] == 1 for r in const.rows)
    det = ck.StochKernel.deterministic(s, s, tuple((i + 1) % 4 for i in range(4)))
    assert det.rows[0].weights[1] == 1


# ---------------------------------------------------------------------------
# kernels as laws plus the coordinates they read


def shared_law_kernel():
    """K_{V1,V3} of the chain: V2 reads V1 and nothing reads V3, so the two
    atoms with V3 = 1 reuse the laws of the atoms with V3 = 0."""
    k = ck.compile_scm(chain_scm()).kernel(("V1", "V3"))
    assert k.read == ("V1",) and len(k.laws) == 2
    return k


def count_shifts(monkeypatch):
    from causalkit import spaces

    calls, shift = [], spaces._shift
    monkeypatch.setattr(spaces, "_shift",
                        lambda law, offset: calls.append(offset) or shift(law, offset))
    return calls


def test_kernel_read_must_place_every_law():
    space = ck.CoordinateSpace.make([("A", 2), ("B", 2), ("C", 2)])
    dom = space.restrict(("A", "C"))  # atom lowest outcomes 0, 1, 4, 5
    low = ck.FiniteMeasure.dirac(space, 0)
    high = ck.FiniteMeasure.dirac(space, 4)
    kernel = ck.StochKernel(dom, space, (low, high), ["A"])
    assert kernel.read == ("A",)
    assert tuple(kernel.rows) == tuple(ck.FiniteMeasure.dirac(space, i) for i in (0, 1, 4, 5))
    for laws, read, message in [
            ((low, high), ("A", "B"), r"kernel reads \['B'\] outside its domain"),
            ((low, high, low), ("A",), "kernel has 3 laws for 2 read atoms"),
            ((low,), ("C", "A"), "row count mismatch"),
            ((low, high, low), None, "row count mismatch"),
            # a law outside its atom may not be moved off the space
            ((low, ck.FiniteMeasure.dirac(space, 7)), ("A",), "law 1 shifted by 1 leaves"),
            ((ck.FiniteMeasure.dirac(space, 5),), (), "law 0 shifted by 5 leaves")]:
        with pytest.raises(ck.SpaceError, match=message):
            ck.StochKernel(dom, space, laws, read)
    # reused laws need the domain to be the codomain's restriction, in its order
    with pytest.raises(ck.SpaceError, match="codomain restricted"):
        ck.StochKernel(ck.CoordinateSpace.make([("C", 2), ("A", 2)]), space,
                       (low, high), ("A",))
    # reading every coordinate, or all but one of a single value, gives each
    # atom its own law, whatever order the names come in
    assert ck.StochKernel(dom, space, (low,) * 4, ("C", "A")).read == ("A", "C")
    lone = ck.CoordinateSpace.make([("A", 2), ("D", 1)])
    own = ck.StochKernel(lone, space, (low, high), ("A",))
    assert own.read == ("A", "D") and own.rows is own.laws


def test_a_law_kernel_equals_hashes_and_pickles_like_its_materialised_twin():
    import pickle

    k = shared_law_kernel()
    assert len(k.laws) == 2 and len(k.rows) == 4
    twin = ck.StochKernel(k.domain, k.codomain, tuple(k.rows))
    assert twin.laws == tuple(k.rows) and twin.rows is twin.laws
    assert twin.read == k.domain.names != k.read
    assert k == twin and twin == k and k.rows == twin.rows and twin.rows == k.rows
    assert hash(k) == hash(twin)
    for kernel in (k, twin):
        back = pickle.loads(pickle.dumps(kernel))
        assert back == k and back == twin and hash(back) == hash(twin)
        assert (back.laws, back.read) == (kernel.laws, kernel.read)
    other = list(k.rows)
    other[1] = other[0]
    assert ck.StochKernel(k.domain, k.codomain, tuple(other)) != k
    assert ck.compile_scm(chain_scm()).kernel(("V1", "V3")) == k
    # a constant kernel read through no coordinate is its twin too
    space, law = k.codomain, k.laws[0]
    dom = space.restrict(("V3",))
    lone = ck.StochKernel(dom, space, (law,), ())
    assert lone.read == () and lone == ck.StochKernel(dom, space, tuple(lone.rows))
    assert lone != ck.StochKernel(dom, space, (law, law))
    assert hash(lone) == hash(ck.StochKernel(dom, space, tuple(lone.rows)))


@pytest.mark.parametrize("cards", [[2, 2], [3, 1, 2], [1], []])
def test_an_identity_kernel_equals_hashes_and_pickles_like_its_materialised_twin(cards):
    import pickle

    space = ck.CoordinateSpace.make([(f"V{i}", c) for i, c in enumerate(cards)])
    k = ck.StochKernel.identity(space)
    diracs = tuple(ck.FiniteMeasure.dirac(space, i) for i in range(space.n_outcomes))
    # one law, delta_0, read through no coordinate unless it is the only row
    assert k.laws == diracs[:1]
    assert k.read == (() if space.n_outcomes > 1 else space.names)
    assert_row_built_twin(k, diracs)
    back = pickle.loads(pickle.dumps(k))
    assert back == k and hash(back) == hash(k) and (back.laws, back.read) == (k.laws, k.read)
    assert_row_built_twin(back, diracs)


def test_reading_rows_shifts_each_reused_law_once_and_len_shifts_none(monkeypatch):
    calls = count_shifts(monkeypatch)
    k = shared_law_kernel()
    assert len(k.rows) == 4 and calls == []
    # the first read builds every shifted row, once
    assert k.rows[1] is k.rows[1] and calls == [1, 1]
    assert k.rows == (k.laws[0], k.rows[1], k.laws[1], k.rows[3]) == k.rows
    assert list(k.rows) == list(k.rows[:]) and calls == [1, 1]
    # the view holds the laws and what places them, not the kernel, so a
    # kernel whose rows are still held is freed without the cycle collector
    import weakref

    fresh = ck.StochKernel(k.domain, k.codomain, k.laws, k.read)
    ref, rows = weakref.ref(fresh), fresh.rows
    del fresh
    assert ref() is None and len(rows) == 4 and rows == k.rows


@given(st.integers(0, 10 ** 6), st.booleans(), st.integers(2, 5))
@settings(max_examples=30)
def test_compiled_kernels_place_each_law_at_its_atoms_offset(seed, shifted, n):
    """Every atom's row is its law moved by lowest(atom) - lowest(the law's
    first atom), from the subset's own projector, and the laws come in the
    order of their first atoms: for compiled models, and for a product, an
    intervention and a pinning space of them."""
    from random import Random

    from causalkit.oracle import _random_scm
    from causalkit.spaces import _law_offsets, _shift

    model = ck.compile_scm(_random_scm(Random(seed), "A", shifted=shifted))
    chain = ck.compile_scm(chain_scm(n))
    first = model.space.names[:1]
    for c in (model, chain, ck.product(model, chain), ck.independent_pinning_space(chain.P),
              ck.intervene(model, first, ck.project(model.P, first))):
        for subset in c.subsets():
            k = c.kernel(subset)
            lowest = c.space.projector(subset).lowest
            home: dict[int, int] = {}  # each law -> the lowest outcome of its first atom
            pairs = _law_offsets(k.domain, k.codomain, k.read)
            assert len(pairs) == len(k.rows) == len(lowest)
            for a, (j, offset) in enumerate(pairs):
                assert offset == lowest[a] - home.setdefault(j, lowest[a])
                assert k.rows[a] == (_shift(k.laws[j], offset) if offset else k.laws[j])
            assert list(home) == list(range(len(k.laws)))


@given(st.data())
def test_kernel_part_sums_are_the_part_sums_of_every_row(data):
    from causalkit.spaces import _kernel_part_sums, _part_sums

    c = ck.compile_scm(chain_scm())
    subset = data.draw(st.sets(st.sampled_from(c.space.names)))
    n = data.draw(st.integers(1, 5))
    index = data.draw(st.lists(st.integers(0, n - 1), min_size=c.space.n_outcomes,
                               max_size=c.space.n_outcomes))
    k = c.kernel(subset)
    assert _kernel_part_sums(k, index, n) == [_part_sums(r, index, n) for r in k.rows]
