"""Transformations: the three checks, abstraction predicates, composition,
pushforward construction, and rigidity.

The composition counterexample (a subsystem inclusion followed by an
abstraction whose composite is not a transformation) carries frozen
witnesses; any change to those strings is a behaviour change.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import causalkit as ck
from causalkit import examples
from causalkit import transform
from causalkit.oracle import _random_abstraction, _random_weights
from conftest import tampered_pinning_space

F = Fraction


def cyl(space, **assignment):
    return ck.Event.cylinder(space, assignment)


def identity_transform(c):
    rho = ck.IndexMap(source=c.space.names, target=c.space.names,
                      mapping={n: n for n in c.space.names})
    return ck.Transformation(source=c, target=c, rho=rho,
                             outcome_map=tuple(range(c.space.n_outcomes)))


def drop_y_transform(xor):
    """Project the two-bit system onto its X coordinate."""
    coin = ck.marginal_space(examples.xor_scm(), ("X",))
    rho = ck.IndexMap(source=("X", "Y"), target=("X",),
                      mapping={"X": "X", "Y": "X"})
    outcome_map = tuple(xor.space.outcome(i)[0]
                        for i in range(xor.space.n_outcomes))
    return ck.Transformation(source=xor, target=coin, rho=rho,
                             outcome_map=outcome_map)


# ---------------------------------------------------------------------------
# the three checks


@pytest.mark.parametrize("mapping, message", [
    ({"X": "A"}, r"^rho undefined on \['Y'\]$"),
    ({"X": "A", "Y": "B", "W": "A", "V": "B"},
     r"^rho defined on unknown coordinates \['V', 'W'\]$"),
    ({"X": "Z", "Y": "Q"}, "^unknown coordinate 'Q'$"),
], ids=["undefined", "extra", "unknown-target"])
def test_index_map_names_its_fault(mapping, message):
    with pytest.raises(ck.SpaceError, match=message):
        ck.IndexMap(source=("X", "Y"), target=("A", "B"), mapping=mapping)


def test_identity_passes_everything(xor):
    t = identity_transform(xor)
    report = ck.check_all(t)
    assert report.passed, report.render()
    assert ck.is_abstraction(t).passed
    assert ck.is_perfect_abstraction(t).passed


def test_projection_is_a_transformation(xor):
    t = drop_y_transform(xor)
    assert ck.check_admissible(t).passed
    assert ck.check_distributional(t).passed
    assert ck.check_interventional(t).passed
    assert ck.is_perfect_abstraction(t).passed


def test_distributional_check_compares_pushed_law(xor):
    # target with the wrong base measure: the same coin but biased
    coin_space = ck.CoordinateSpace.make([("X", 2)])
    biased = ck.independent_pinning_space(
        ck.FiniteMeasure(coin_space, (F(1, 4), F(3, 4))))
    rho = ck.IndexMap(source=("X", "Y"), target=("X",),
                      mapping={"X": "X", "Y": "X"})
    outcome_map = tuple(xor.space.outcome(i)[0]
                        for i in range(xor.space.n_outcomes))
    t = ck.Transformation(source=xor, target=biased, rho=rho,
                          outcome_map=outcome_map)
    report = ck.check_distributional(t)
    assert not report.passed
    assert "1/2" in report.witness.message and "1/4" in report.witness.message


def test_interventional_check_catches_wrong_fiber(xor):
    # target coin whose K_X swaps its rows: kappa-then-K2 differs from K1-then-kappa
    coin_space = ck.CoordinateSpace.make([("X", 2)])
    fair = ck.FiniteMeasure.uniform(coin_space)
    swapped = {
        frozenset(): ck.StochKernel.constant(coin_space.restrict(()), fair),
        frozenset({"X"}): ck.StochKernel.from_rows(
            coin_space, coin_space, [(0, 1), (1, 0)]),
    }
    bad_coin = ck.FiniteCausalSpace(coin_space, fair, kernels=swapped)
    rho = ck.IndexMap(source=("X", "Y"), target=("X",),
                      mapping={"X": "X", "Y": "X"})
    outcome_map = tuple(xor.space.outcome(i)[0]
                        for i in range(xor.space.n_outcomes))
    t = ck.Transformation(source=xor, target=bad_coin, rho=rho,
                          outcome_map=outcome_map)
    assert ck.check_admissible(t).passed
    assert ck.check_distributional(t).passed
    report = ck.check_interventional(t)
    assert not report.passed
    assert report.witness.subset == ("X",)
    assert report.witness.message == (
        "at S={X} and omega=(0, 0): source route gives 1, target route gives 0")


def test_admissibility_failure_names_the_offending_fiber(parity):
    # f(x, z, y) = (x xor z xor y, y): the first output coordinate reads y,
    # which is outside rho^-1(S) = {X, Z}, so kappa(., {S=s}) varies on an
    # {X, Z}-fiber
    target_space = ck.CoordinateSpace.make([("S", 2), ("Y", 2)])
    rho = ck.IndexMap(source=("X", "Z", "Y"), target=("S", "Y"),
                      mapping={"X": "S", "Z": "S", "Y": "Y"})
    outcome_map = tuple(
        target_space.index((o[0] ^ o[1] ^ o[2], o[2]))
        for o in parity.space.outcomes())
    target = ck.independent_pinning_space(
        ck.FiniteMeasure.uniform(target_space))
    t = ck.Transformation(source=parity, target=target, rho=rho,
                          outcome_map=outcome_map)
    report = ck.check_admissible(t)
    assert not report.passed
    assert "varies on a fiber of ['X', 'Z']" in report.witness.message


# ---------------------------------------------------------------------------
# abstraction predicates


def test_inclusion_is_not_an_abstraction(xor, coin):
    t = ck.inclusion_into_product(coin, xor)
    assert ck.check_all(t).passed
    report = ck.is_abstraction(t)
    assert not report.passed  # rho maps one coordinate; not surjective
    perfect = ck.is_perfect_abstraction(t)
    assert not perfect.passed


def test_perfect_abstraction_requires_surjective_map(xor):
    # deterministic, rho surjective, but f misses an outcome: not perfect
    half_space = ck.CoordinateSpace.make([("X", 3)])
    # target measure concentrated on the two reachable values
    target = ck.independent_pinning_space(
        ck.FiniteMeasure(half_space, (F(1, 2), F(1, 2), F(0))))
    rho = ck.IndexMap(source=("X", "Y"), target=("X",),
                      mapping={"X": "X", "Y": "X"})
    outcome_map = tuple(o[0] for o in xor.space.outcomes())
    t = ck.Transformation(source=xor, target=target, rho=rho,
                          outcome_map=outcome_map)
    report = ck.is_perfect_abstraction(t)
    assert not report.passed
    assert "no source outcome maps to (2,)" in report.witness.message
    assert any(s.check == "outcome-map-surjective" and not s.passed
               for s in report.subreports)


# ---------------------------------------------------------------------------
# composition


def test_composition_of_relabelings(xor):
    a = ck.rename(xor, {"X": "A", "Y": "B"})
    b = ck.rename(xor, {"X": "C", "Y": "D"})
    rho1 = ck.IndexMap(source=("X", "Y"), target=("A", "B"),
                       mapping={"X": "A", "Y": "B"})
    t1 = ck.Transformation(source=xor, target=a, rho=rho1,
                           outcome_map=tuple(range(4)))
    rho2 = ck.IndexMap(source=("A", "B"), target=("C", "D"),
                       mapping={"A": "C", "B": "D"})
    t2 = ck.Transformation(source=a, target=b, rho=rho2,
                           outcome_map=tuple(range(4)))
    composite, report = ck.compose(t1, t2)
    assert report.passed, report.render()
    assert composite.rho.mapping == {"X": "C", "Y": "D"}
    assert ck.check_all(composite).passed


def test_abstraction_then_abstraction_composes(parity):
    # first merge X and Z into their parity, then relabel
    t1 = parity_merge_transform(parity)
    assert ck.check_all(t1).passed
    tgt = t1.target
    renamed = ck.rename(tgt, {"S": "T", "Y": "W"})
    rho2 = ck.IndexMap(source=tgt.space.names, target=renamed.space.names,
                       mapping={"S": "T", "Y": "W"})
    t2 = ck.Transformation(source=tgt, target=renamed, rho=rho2,
                           outcome_map=tuple(range(tgt.space.n_outcomes)))
    composite, report = ck.compose(t1, t2)
    assert report.passed, report.render()
    assert ck.is_perfect_abstraction(composite).passed


def parity_merge_transform(parity):
    """f(x, z, y) = (x xor z, y) with rho collapsing X, Z onto S."""
    target_space = ck.CoordinateSpace.make([("S", 2), ("Y", 2)])
    rho = ck.IndexMap(source=("X", "Z", "Y"), target=("S", "Y"),
                      mapping={"X": "S", "Z": "S", "Y": "Y"})
    outcome_map = tuple(
        target_space.index((o[0] ^ o[1], o[2]))
        for o in parity.space.outcomes())
    pf = ck.pushforward_space(parity, outcome_map, rho, target_space)
    assert pf.report.passed
    return pf.transformation


def test_composition_counterexample_fails(xor):
    scm = examples.composition_scm()
    t1 = ck.inclusion_transform(scm, ("X1", "Y"))
    assert ck.check_all(t1).passed

    full = ck.compile_scm(scm)
    target_space = ck.CoordinateSpace.make([("X", 2), ("Y", 2)])
    rho2 = ck.IndexMap(source=("X1", "X2", "Y"), target=("X", "Y"),
                       mapping={"X1": "X", "X2": "X", "Y": "Y"})
    outcome_map = tuple(
        target_space.index((o[0] ^ o[1], o[2]))
        for o in full.space.outcomes())
    pf = ck.pushforward_space(full, outcome_map, rho2, target_space)
    assert pf.report.passed
    t2 = pf.transformation

    composite, report = ck.compose(t1, t2)
    assert not report.passed
    admissible = ck.check_admissible(composite)
    assert not admissible.passed
    assert admissible.witness.message == (
        "kappa(., A) varies on a fiber of ['X1']: 3/4 at (0, 0) vs 1/4 at "
        "(0, 1) for an atom of H_{X}")
    interventional = ck.check_interventional(composite)
    assert not interventional.passed
    assert interventional.witness.message == (
        "at S={X} and omega=(0, 0): source route gives 3/8, "
        "target route gives 9/16")


def test_compose_requires_matching_middle(xor, coin):
    t1 = ck.inclusion_into_product(coin, xor)
    rho = ck.IndexMap(source=("X", "Y"), target=("X", "Y"),
                      mapping={"X": "X", "Y": "Y"})
    t_other = ck.Transformation(source=xor, target=xor, rho=rho,
                                outcome_map=tuple(range(4)))
    with pytest.raises(ck.SpaceError):
        ck.compose(t1, t_other)


# ---------------------------------------------------------------------------
# inclusion into a product


def test_inclusion_into_product_structure(xor, coin):
    t = ck.inclusion_into_product(coin, xor)
    both = t.target
    assert both.space.names == ("C", "X", "Y")
    # kappa(c, .) = delta_c tensor P2
    for c in range(2):
        row = t.kernel.rows[c]
        assert row.mass(cyl(both.space, C=c)) == 1
        for i, w in enumerate(xor.P.weights):
            x, y = xor.space.outcome(i)
            assert row.mass(cyl(both.space, C=c, X=x, Y=y)) == w
    assert ck.check_all(t).passed


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=10)
def test_random_inclusions_into_products_pass(seed_a, seed_b):
    a = ck.random_space(seed_a, n_coords=2)
    b = ck.random_space(seed_b, n_coords=2)
    b = ck.rename(b, {n: f"W{i}" for i, n in enumerate(b.space.names)})
    t = ck.inclusion_into_product(a, b)
    assert ck.check_all(t).passed


# ---------------------------------------------------------------------------
# pushforward construction


def test_pushforward_of_projection_is_marginal(xor):
    target_space = ck.CoordinateSpace.make([("X", 2)])
    rho = ck.IndexMap(source=("X", "Y"), target=("X",),
                      mapping={"X": "X", "Y": "X"})
    outcome_map = tuple(o[0] for o in xor.space.outcomes())
    pf = ck.pushforward_space(xor, outcome_map, rho, target_space)
    assert pf.report.passed
    marg = ck.marginal_space(examples.xor_scm(), ("X",))
    assert ck.causal_spaces_equal(pf.space, marg)


def test_pushforward_identity_is_fixed_point(xor):
    rho = ck.IndexMap(source=("X", "Y"), target=("X", "Y"),
                      mapping={"X": "X", "Y": "Y"})
    pf = ck.pushforward_space(xor, tuple(range(4)), rho, xor.space)
    assert pf.report.passed
    assert ck.causal_spaces_equal(pf.space, xor)


def non_surjective_map(xor):
    """f sends the two bits onto a 3-valued coordinate and misses the value 2."""
    target_space = ck.CoordinateSpace.make([("X", 3)])
    rho = ck.IndexMap(source=("X", "Y"), target=("X",),
                      mapping={"X": "X", "Y": "X"})
    outcome_map = tuple(o[0] for o in xor.space.outcomes())
    return xor, outcome_map, rho, target_space


def non_admissible_map(parity):
    """f(x, z, y) = (x xor z xor y, y): the first output coordinate reads y."""
    target_space = ck.CoordinateSpace.make([("S", 2), ("Y", 2)])
    rho = ck.IndexMap(source=("X", "Z", "Y"), target=("S", "Y"),
                      mapping={"X": "S", "Z": "S", "Y": "Y"})
    outcome_map = tuple(
        target_space.index((o[0] ^ o[1] ^ o[2], o[2]))
        for o in parity.space.outcomes())
    return parity, outcome_map, rho, target_space


def non_measurable_map():
    """Z copies X; Y = Z xor noise.  f drops Z, rho sends X and Z to X'.

    K_{X,Z}((a, z), .) gives Y a z-dependent law, and both (a, 0) and
    (a, 1) sit in the same f-fiber, so no target kernel is well defined.
    """
    scm = ck.FiniteSCM.build(
        variables=[("X", 2), ("Z", 2), ("Y", 2)],
        parents={"X": (), "Z": ("X",), "Y": ("Z",)},
        noises={"X": (F(1, 2), F(1, 2)), "Z": (F(1),),
                "Y": (F(3, 4), F(1, 4))},
        mechanisms={"X": (0, 1), "Z": (0, 1), "Y": (0, 1, 1, 0)},
    )
    full = ck.compile_scm(scm)
    target_space = ck.CoordinateSpace.make([("Xp", 2), ("Yp", 2)])
    rho = ck.IndexMap(source=("X", "Z", "Y"), target=("Xp", "Yp"),
                      mapping={"X": "Xp", "Z": "Xp", "Y": "Yp"})
    outcome_map = tuple(
        target_space.index((o[0], o[2])) for o in full.space.outcomes())
    return full, outcome_map, rho, target_space


def test_pushforward_requires_surjective_f(xor):
    with pytest.raises(ck.NotSurjectiveError):
        ck.pushforward_space(*non_surjective_map(xor))


def test_pushforward_requires_admissible_map(parity):
    with pytest.raises(ck.NotAdmissibleError):
        ck.pushforward_space(*non_admissible_map(parity))


def test_pushforward_well_definedness_violation():
    full, outcome_map, rho, target_space = non_measurable_map()
    with pytest.raises(ck.WellDefinednessError) as err:
        ck.pushforward_space(full, outcome_map, rho, target_space)
    assert err.value.witness is not None

    # Y reads Z only when X = 1: the cell X' = 0 is well defined and the
    # first violation sits in the cell X' = 1
    scm = ck.FiniteSCM.build(
        variables=[("X", 2), ("Z", 2), ("Y", 2)],
        parents={"X": (), "Z": ("X",), "Y": ("X", "Z")},
        noises={"X": (F(1, 2), F(1, 2)), "Z": (F(1),),
                "Y": (F(3, 4), F(1, 4))},
        mechanisms={"X": (0, 1), "Z": (0, 1), "Y": (0, 1, 0, 1, 0, 1, 1, 0)},
    )
    full = ck.compile_scm(scm)
    with pytest.raises(ck.WellDefinednessError) as err:
        ck.pushforward_space(full, outcome_map, rho, target_space)
    assert err.value.witness == ((1, 0, 0), (1, 1, 0))


def test_pushforward_intervention_on_nothing(xor):
    target_space = ck.CoordinateSpace.make([("X", 2)])
    rho = ck.IndexMap(source=("X", "Y"), target=("X",),
                      mapping={"X": "X", "Y": "X"})
    outcome_map = tuple(o[0] for o in xor.space.outcomes())
    empty_measure = ck.FiniteMeasure.uniform(xor.space.restrict(()))
    done = ck.pushforward_intervention(
        xor, outcome_map, rho, target_space, (), empty_measure)
    assert done.report.passed
    assert ck.causal_spaces_equal(done.source_intervened, xor)


def test_pushforward_intervention_pins_both_sides(parity):
    # intervene on the unmerged coordinate Y; its pullback is just {Y}
    t = parity_merge_transform(parity)
    u1_space = parity.space.restrict(("Y",))
    q1 = ck.FiniteMeasure.dirac(u1_space, 1)
    done = ck.pushforward_intervention(
        parity, t.outcome_map, t.rho, t.target.space, ("Y",), q1)
    assert done.report.passed, done.report.render()
    assert done.source_intervened.P.mass(cyl(parity.space, Y=1)) == 1
    assert done.target_intervened.P.mass(
        cyl(t.target.space, Y=1)) == 1
    assert ck.check_all(done.transformation).passed


def test_pushforward_intervention_measure_space_checked(parity):
    t = parity_merge_transform(parity)
    wrong = ck.FiniteMeasure.dirac(parity.space.restrict(("X",)), 1)
    with pytest.raises(ck.SpaceError):
        ck.pushforward_intervention(
            parity, t.outcome_map, t.rho, t.target.space, ("Y",), wrong)


def test_pushforward_intervention_rejects_a_mechanism_not_measurable_in_f(parity):
    # the mechanism's K_{X,Z} draws Y = X, so (0, 1) and (1, 0), which f
    # merges into S = 1, push to different rows
    t = parity_merge_transform(parity)
    mechanism = ck.compile_scm(ck.FiniteSCM.build(
        variables=[("X", 2), ("Z", 2), ("Y", 2)],
        parents={"X": (), "Z": (), "Y": ("X",)},
        noises={"X": (F(1, 2), F(1, 2)), "Z": (F(1, 2), F(1, 2)), "Y": (F(1),)},
        mechanisms={"X": (0, 1), "Z": (0, 1), "Y": (0, 1)},
    ))
    with pytest.raises(ck.WellDefinednessError,
                       match=r"^mechanism kernel L_\{X,Z\} is not measurable") as err:
        ck.pushforward_intervention(parity, t.outcome_map, t.rho, t.target.space,
                                    ("S", "Y"), mechanism.P, mechanism)
    assert err.value.witness == ((0, 1, 0), (1, 0, 0))


def test_pushforward_intervention_validates_a_given_mechanism(parity):
    # right base measure, but the row of K_Y at Y=0 puts its mass on Y=1,
    # against axiom (ii)
    t = parity_merge_transform(parity)
    bad = tampered_pinning_space(parity.space.restrict(("Y",)), {("Y",): [(0, (0,), (1,))]})
    with pytest.raises(ck.InvalidMechanismError, match="violates the kernel axioms"):
        ck.pushforward_intervention(parity, t.outcome_map, t.rho, t.target.space,
                                    ("Y",), bad.P, bad)


def test_pushed_mechanisms_are_valid(monkeypatch):
    # the pushed L2 reaches intervene unvalidated, so check it here, on the
    # instances the intervention-commutes trial draws
    handed = []
    intervene = transform._intervene

    def spy(c, on, measure, mechanism):
        handed.append(mechanism)
        return intervene(c, on, measure, mechanism)

    monkeypatch.setattr(transform, "_intervene", spy)
    for seed in range(40):
        rng = Random(seed)
        inst = _random_abstraction(rng)
        names2 = inst.target.space.names
        u2 = tuple(sorted(rng.sample(names2, rng.randint(1, len(names2)))))
        u1_space = inst.source.space.restrict(inst.t.rho.preimage(u2))
        q1 = ck.FiniteMeasure(u1_space, _random_weights(rng, u1_space.n_outcomes))
        handed.clear()
        done = ck.pushforward_intervention(inst.source, inst.t.outcome_map, inst.t.rho,
                                           inst.target.space, u2, q1)
        pushed = handed[-1]
        assert pushed.space == inst.target.space.restrict(u2)
        report = ck.validate_causal_space(pushed)
        assert report.passed, (seed, report.render())
        assert done.report.passed, (seed, done.report.render())


def test_pushforward_intervention_keeps_the_pushforward_guards(xor, parity):
    # the pushforward is built unreported here, so its preconditions must
    # still raise before any intervention
    for error, (source, outcome_map, rho, target_space) in (
            (ck.NotSurjectiveError, non_surjective_map(xor)),
            (ck.NotAdmissibleError, non_admissible_map(parity)),
            (ck.WellDefinednessError, non_measurable_map())):
        nothing = ck.FiniteMeasure.uniform(source.space.restrict(()))
        with pytest.raises(error):
            ck.pushforward_intervention(source, outcome_map, rho, target_space,
                                        (), nothing)


def test_pushforward_intervention_on_merged_coordinate(parity):
    t = parity_merge_transform(parity)
    target_space = t.target.space
    u1_space = parity.space.restrict(("X", "Z"))
    # uniform over the preimage coordinates
    q1 = ck.FiniteMeasure.uniform(u1_space)
    done = ck.pushforward_intervention(
        parity, t.outcome_map, t.rho, target_space, ("S",), q1)
    assert done.report.passed, done.report.render()
    # pushed intervention law: S = X xor Z uniform
    assert ck.project(done.target_intervened.P, ("S",)).weights == (F(1, 2), F(1, 2))


# ---------------------------------------------------------------------------
# rigidity


def test_rigidity_same_transformation(xor, coin):
    t = ck.inclusion_into_product(coin, xor)
    assert ck.rigidity_check(t, t).passed


def test_rigidity_tolerates_off_image_kernel_changes(xor, coin):
    # same kernel and index map into two different causal structures on the
    # same product space: the second factor keeps P2 but forgets its kernels
    flat = ck.independent_pinning_space(xor.P)
    t1 = ck.inclusion_into_product(coin, xor)
    t2 = ck.inclusion_into_product(coin, flat)
    assert ck.check_all(t2).passed
    report = ck.rigidity_check(t1, t2)
    assert report.passed, report.render()
    # and the two targets really are different causal spaces
    assert not ck.causal_spaces_equal(t1.target, t2.target)


def test_rigidity_ignores_changes_inside_image_atoms(xor, coin):
    # moving kernel mass within a C-atom leaves every value on the image
    # sigma-algebra untouched, so rigidity still passes
    t1 = ck.inclusion_into_product(coin, xor)
    tgt = t1.target.materialize()
    table = {frozenset(s): tgt.kernel(s) for s in tgt.subsets()}
    sp = tgt.space
    k = table[frozenset({"C"})]
    rows = list(k.rows)
    w = list(rows[0].weights)
    atom0 = list(ck.atoms(sp, ("C",))[0].indices())
    src = next(i for i in atom0 if w[i] > 0)
    dst = next(i for i in atom0 if i != src)
    shift = w[src] / 2
    w[src] -= shift
    w[dst] += shift
    rows[0] = ck.FiniteMeasure(sp, tuple(w))
    table[frozenset({"C"})] = ck.StochKernel(k.domain, sp, tuple(rows))
    tampered = ck.FiniteCausalSpace(sp, tgt.P, kernels=table)
    t2 = ck.Transformation(source=coin, target=tampered, rho=t1.rho,
                           kernel=t1.kernel)
    assert ck.rigidity_check(t1, t2).passed


def test_rigidity_reports_differing_target_measures_first(xor, coin):
    # the same kernel and index map into the product space with two of its
    # outcome weights swapped: the first differing outcome is the witness
    t1 = ck.inclusion_into_product(coin, xor)
    sp = t1.target.space
    w = list(t1.target.P.weights)
    w[1], w[3] = w[3], w[1]
    moved = ck.independent_pinning_space(ck.FiniteMeasure(sp, tuple(w)))
    t2 = ck.Transformation(source=t1.source, target=moved, rho=t1.rho, kernel=t1.kernel)
    report = ck.rigidity_check(t1, t2)
    assert not report.passed
    assert report.witness == ck.Witness(
        message="target measures differ on (0, 0, 1): 1/16 vs 3/16",
        outcome=(0, 0, 1), event=(1,))


def test_rigidity_detects_image_disagreement(xor, coin):
    # move K_X mass across the C-atoms (staying inside the X-atom, so the
    # space remains axiom-valid): the kernels now disagree on an image atom
    t1 = ck.inclusion_into_product(coin, xor)
    tgt = t1.target.materialize()
    table = {frozenset(s): tgt.kernel(s) for s in tgt.subsets()}
    sp = tgt.space
    k = table[frozenset({"X"})]
    rows = list(k.rows)
    w = list(rows[0].weights)
    x_atom = ck.atoms(sp, ("X",))[0]
    c_atom = ck.atoms(sp, ("C",))[0]
    src = next(i for i in x_atom.indices()
               if c_atom.contains(i) and w[i] > 0)
    dst = next(i for i in x_atom.indices() if not c_atom.contains(i))
    shift = w[src] / 2
    w[src] -= shift
    w[dst] += shift
    rows[0] = ck.FiniteMeasure(sp, tuple(w))
    table[frozenset({"X"})] = ck.StochKernel(k.domain, sp, tuple(rows))
    tampered = ck.FiniteCausalSpace(sp, tgt.P, kernels=table)
    assert ck.validate_causal_space(tampered).passed
    t2 = ck.Transformation(source=coin, target=tampered, rho=t1.rho,
                           kernel=t1.kernel)
    report = ck.rigidity_check(t1, t2)
    assert not report.passed
    assert report.witness.subset == ("X",)
    assert "image atom" in report.witness.message


def test_rigidity_requires_same_kernel(xor, coin):
    t1 = ck.inclusion_into_product(coin, xor)
    other_kernel = ck.StochKernel.constant(coin.space, t1.target.P)
    t2 = ck.Transformation(source=coin, target=t1.target, rho=t1.rho,
                           kernel=other_kernel)
    with pytest.raises(ck.SpaceError):
        ck.rigidity_check(t1, t2)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15)
def test_identity_is_always_a_perfect_abstraction(seed):
    c = ck.random_space(seed)
    t = identity_transform(c)
    assert ck.check_all(t).passed
    assert ck.is_perfect_abstraction(t).passed


@given(st.integers(0, 10 ** 6), st.data())
@settings(max_examples=15)
def test_deterministic_distributional_iff_pushed_measure(seed, data):
    c = ck.random_space(seed, n_coords=2)
    names = c.space.names
    # surjective relabelling onto one kept coordinate
    keep = data.draw(st.sampled_from(list(names)))
    target_space = c.space.restrict((keep,))
    rho = ck.IndexMap(source=names, target=(keep,),
                      mapping={n: keep for n in names})
    pos = c.space.position(keep)
    outcome_map = tuple(
        target_space.index((o[pos],)) for o in c.space.outcomes())
    pushed = ck.project(c.P, (keep,))
    flip = data.draw(st.booleans())
    if flip and pushed.weights[0] != pushed.weights[-1]:
        w = list(pushed.weights)
        w[0], w[-1] = w[-1], w[0]
        target_p = ck.FiniteMeasure(target_space, tuple(w))
    else:
        target_p = pushed
    target = ck.independent_pinning_space(target_p)
    t = ck.Transformation(source=c, target=target, rho=rho,
                          outcome_map=outcome_map)
    report = ck.check_distributional(t)
    assert report.passed == (target_p == pushed)


def per_outcome_interventional(t):
    """``check_interventional(t).to_dict()`` by a scan over every source
    outcome, with no pair skipped: the reference the library's scan over
    distinct pairs must reproduce, witness included."""
    src, tgt = t.source.space, t.target.space
    image = tgt.projector(t.rho.image())
    n_image = len(image.masks)

    def parts(row, index, n):
        out = [F(0)] * n
        for j, w in enumerate(row.weights):
            out[index[j]] += w
        return [(a, v) for a, v in enumerate(out) if v]

    def integrate(entries, table):
        out = [F(0)] * n_image
        for k, w in entries:
            for a, v in table[k]:
                out[a] += w * v
        return out

    kappa = t.kernel.rows
    kappa_atoms = [parts(row, image.index, n_image) for row in kappa]
    for subset in ck.subsets_of(t.rho.image()):
        pre = t.rho.preimage(subset)
        k2_atoms = [parts(row, image.index, n_image) for row in t.target.kernel(subset).rows]
        pre_of = src.projector(pre).index
        s_proj = tgt.projector(subset)
        s_index, n_s = s_proj.index, len(s_proj.masks)
        k1_rows = t.source.kernel(pre).rows
        for i in range(src.n_outcomes):
            row = k1_rows[pre_of[i]]
            left_atoms = integrate([(k, w) for k, w in enumerate(row.weights) if w],
                                   kappa_atoms)
            right_atoms = integrate(parts(kappa[i], s_index, n_s), k2_atoms)
            for a, (left, right) in enumerate(zip(left_atoms, right_atoms)):
                if left != right:
                    return {
                        "check": "interventional", "passed": False, "details": [],
                        "subreports": [],
                        "witness": {
                            "message": (f"at S={{{','.join(subset)}}} and omega="
                                        f"{src.outcome(i)}: source route gives {left}, "
                                        f"target route gives {right}"),
                            "subset": list(subset),
                            "outcome": list(src.outcome(i)),
                            "event": [j for j in range(tgt.n_outcomes)
                                      if image.index[j] == a],
                        },
                    }
    return {"check": "interventional", "passed": True, "witness": None,
            "details": [], "subreports": []}


def random_row(rng, space):
    raw = [rng.randint(0, 3) for _ in range(space.n_outcomes)]
    raw[rng.randrange(space.n_outcomes)] += 1
    return ck.FiniteMeasure(space, tuple(F(w, sum(raw)) for w in raw))


def moved_mass(rng, row):
    """``row`` with half the mass of one positive entry moved to another entry."""
    w = list(row.weights)
    src = rng.choice([j for j, v in enumerate(w) if v])
    dst = rng.choice([j for j in range(len(w)) if j != src])
    w[dst] += w[src] / 2
    w[src] /= 2
    return ck.FiniteMeasure(row.space, tuple(w))


def first_representative_target(source, table, rho, target_space):
    """Target with the pushed base measure whose K_S row on each S-atom
    copies K_{rho^-1(S)} through f from the first source outcome f maps
    into that atom (a Dirac row where f maps none).  Later outcomes of the
    same atom may disagree, so the pair can fail the interventional check
    far from the first outcome."""
    n2 = target_space.n_outcomes

    def pushed(row):
        w = [F(0)] * n2
        for i, v in enumerate(row.weights):
            w[table[i]] += v
        return ck.FiniteMeasure(target_space, tuple(w))

    kernels = {}
    for subset in ck.subsets_of(target_space.names):
        k1 = source.kernel(rho.preimage(subset))
        pre_of = source.space.projector(rho.preimage(subset)).index
        cells = target_space.projector(subset)
        rows = [None] * len(cells.masks)
        for i, j in enumerate(table):
            if rows[cells.index[j]] is None:
                rows[cells.index[j]] = pushed(k1.rows[pre_of[i]])
        rows = [ck.FiniteMeasure.dirac(target_space, cells.index.index(a)) if row is None
                else row for a, row in enumerate(rows)]
        kernels[frozenset(subset)] = ck.StochKernel(cells.sub, target_space, tuple(rows))
    return ck.FiniteCausalSpace(target_space, pushed(source.P), kernels=kernels)


def interventional_case(kind, seed, tamper):
    """A transformation of the given kind.  ``tamper`` moves mass in one
    kernel row (of kappa for an inclusion, of one target kernel for a
    pushforward); for a first-representative target it swaps the
    admissible coordinate-wise f for an arbitrary table."""
    rng = Random(seed)
    if kind == "first-representative":
        source = ck.random_space(seed, n_coords=3)
        names = [f"T{k}" for k in range(rng.randint(2, 3))]
        rho = ck.IndexMap(source.space.names, tuple(names),
                          {n: rng.choice(names) for n in source.space.names})
        target_space = ck.CoordinateSpace.make([(n, rng.randint(2, 3)) for n in names])
        if tamper:
            table = tuple(rng.randrange(target_space.n_outcomes)
                          for _ in range(source.space.n_outcomes))
        else:
            # each target coordinate is a function of its preimage's values
            columns = []
            for n, card in zip(names, target_space.cards):
                proj = source.space.projector(rho.preimage((n,)))
                values = [rng.randrange(card) for _ in proj.masks]
                columns.append([values[a] for a in proj.index])
            table = tuple(target_space.index(v) for v in zip(*columns))
        target = first_representative_target(source, table, rho, target_space)
        return ck.Transformation(source, target, rho, outcome_map=table)
    if kind == "pushforward":
        inst = _random_abstraction(rng)
        t = inst.t
        if not tamper:
            return t
        target = t.target
        subset = rng.choice([s for s in target.subsets() if s])
        k = target.kernel(subset)
        rows = list(k.rows)
        a = rng.randrange(len(rows))
        rows[a] = moved_mass(rng, rows[a])
        table = {frozenset(s): target.kernel(s) for s in target.subsets()}
        table[frozenset(subset)] = ck.StochKernel(k.domain, k.codomain, tuple(rows))
        tampered = ck.FiniteCausalSpace(target.space, target.P, kernels=table)
        return ck.Transformation(source=t.source, target=tampered, rho=t.rho,
                                 outcome_map=t.outcome_map)
    source = ck.random_space(seed, n_coords=rng.randint(1, 2))
    target = ck.random_space(seed + 1, n_coords=rng.randint(1, 2))
    if kind == "inclusion":
        t = ck.inclusion_into_product(
            source, ck.rename(target, {n: "W" + n for n in target.space.names}))
        if not tamper:
            return t
        rows = list(t.kernel.rows)
        i = rng.randrange(len(rows))
        rows[i] = moved_mass(rng, rows[i])
        return ck.Transformation(t.source, t.target, t.rho,
                                 kernel=ck.StochKernel(t.kernel.domain, t.kernel.codomain,
                                                       tuple(rows)))
    rho = ck.IndexMap(source.space.names, target.space.names,
                      {n: rng.choice(target.space.names) for n in source.space.names})
    n1, n2 = source.space.n_outcomes, target.space.n_outcomes
    if kind == "random-map":
        return ck.Transformation(source, target, rho,
                                 outcome_map=tuple(rng.randrange(n2) for _ in range(n1)))
    rows = tuple(random_row(rng, target.space) for _ in range(n1))
    return ck.Transformation(source, target, rho,
                             kernel=ck.StochKernel(source.space, target.space, rows))


@given(st.sampled_from(["random-kernel", "random-map", "inclusion", "pushforward",
                        "first-representative"]),
       st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=40)
@example("pushforward", 0, False)
@example("pushforward", 0, True)
# the first failing outcome shares its rho^-1(S)-atom with an earlier,
# passing outcome (seed 5), or its kappa on the S-atoms (seed 0)
@example("first-representative", 5, True)
@example("first-representative", 0, False)
def test_interventional_witness_matches_per_outcome_scan(kind, seed, tamper):
    t = interventional_case(kind, seed, tamper)
    report = ck.check_interventional(t)
    assert report.to_dict() == per_outcome_interventional(t)
    if kind in ("inclusion", "pushforward") and not tamper:
        assert report.passed
    if kind == "pushforward" and tamper:
        assert not report.passed
