"""Structural models: compilation, pinning, marginals, inclusion.

The in-test oracle enumerates full noise vectors (including those of
pinned variables, whose draws are then ignored), which is a different
code path from the compiler's free-variable enumeration.
"""

import json
from fractions import Fraction
from importlib.resources import files
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

import causalkit as ck
from causalkit import examples

F = Fraction


def law_oracle(scm, pinned):
    """Mutilated law by brute force over complete noise assignments."""
    space = scm.space()
    order = scm.topo_order()
    weights = [F(0)] * space.n_outcomes
    ranges = [range(len(scm.noises[v])) for v in order]
    for combo in iproduct(*ranges):
        prob = F(1)
        for v, nv in zip(order, combo):
            prob *= scm.noises[v][nv]
        if prob == 0:
            continue
        vals = {}
        for v, nv in zip(order, combo):
            if v in pinned:
                vals[v] = pinned[v]
            else:
                vals[v] = scm.mechanism_value(v, vals, nv)
        weights[space.index(tuple(vals[n] for n in space.names))] += prob
    return tuple(weights)


def all_example_scms():
    return [
        examples.xor_scm(),
        examples.parity_scm(),
        examples.fork_scm(),
        examples.collider_scm(),
        examples.mediator_confounder_scm(),
        examples.composition_scm(),
        examples.faithfulness_full_scm(),
    ]


def mixed_denominator_scm():
    """Noises over thirds, sevenths, tenths and ninths, two with a zero
    weight (A = 1 is never drawn, so some atoms are null); the space lists
    the variables out of topological order."""
    return ck.FiniteSCM.build(
        variables=[("C", 3), ("A", 3), ("D", 2), ("B", 2)],
        parents={"A": (), "B": ("A",), "C": ("B", "A"), "D": ("C",)},
        noises={"A": (F(1, 3), F(0), F(2, 3)),
                "B": (F(2, 7), F(5, 7)),
                "C": (F(1, 5), F(0), F(3, 10), F(1, 2)),
                "D": (F(1, 9), F(8, 9))},
        mechanisms={"A": (0, 1, 2),
                    "B": (0, 1, 1, 0, 1, 1),
                    "C": (0, 1, 2, 2, 1, 1, 0, 2, 2, 0, 1, 0,
                          0, 0, 1, 2, 2, 2, 1, 0, 1, 2, 0, 0),
                    "D": (0, 1, 1, 0, 1, 1)})


def cyl(space, **assignment):
    return ck.Event.cylinder(space, assignment)


# ---------------------------------------------------------------------------
# compilation


def test_xor_compiles_to_known_values(xor):
    sp = xor.space
    assert xor.P.mass(cyl(sp, X=1, Y=1)) == F(3, 8)
    assert xor.P.weights == (F(3, 8), F(1, 8), F(1, 8), F(3, 8))
    assert xor.kernel(("X",)).value(0, cyl(sp, Y=1)) == F(1, 4)
    assert xor.kernel(("X",)).value(1, cyl(sp, Y=1)) == F(3, 4)


def test_parity_kernel_rows_are_dirac(parity):
    sp = parity.space
    k = parity.kernel(("X", "Z"))
    dom = k.domain
    for a in range(dom.n_outcomes):
        x, z = dom.outcome(a)
        expect = sp.index((x, z, x ^ z))
        assert k.rows[a].weights[expect] == 1


def test_constant_scm_compiles_to_dirac():
    scm = ck.FiniteSCM.build(
        variables=[("A", 3)],
        parents={"A": ()},
        noises={"A": (F(1),)},
        mechanisms={"A": (2,)},
    )
    c = ck.compile_scm(scm)
    assert c.P.weights == (0, 0, 1)
    assert c.kernel(()).rows[0].weights == (0, 0, 1)


@pytest.mark.parametrize("scm", all_example_scms() + [mixed_denominator_scm()],
                         ids=lambda s: ",".join(s.names))
def test_compiled_kernels_match_enumeration_oracle(scm):
    c = ck.compile_scm(scm)
    assert c.P.weights == law_oracle(scm, {})
    for subset in ck.subsets_of(c.space.names):
        k = c.kernel(subset)
        for a in range(k.domain.n_outcomes):
            pinned = dict(zip(k.domain.names, k.domain.outcome(a)))
            assert k.rows[a].weights == law_oracle(scm, pinned)


@st.composite
def finite_scms(draw):
    """Random acyclic models of at most 81 outcomes.

    Parents come in any order and may skip generations; noise has one to
    three values, some of weight zero; variables may have cardinality 1;
    the space lists the variables in an order unrelated to the graph's.
    """
    names = [f"V{i}" for i in range(draw(st.integers(1, 4)))]
    cards = {v: draw(st.integers(1, 3)) for v in names}
    parents, noises, mechanisms = {}, {}, {}
    for i, v in enumerate(names):
        parents[v] = tuple(draw(st.lists(st.sampled_from(names[:i]), unique=True))
                           if i else ())
        raw = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any))
        noises[v] = tuple(F(w, sum(raw)) for w in raw)
        size = len(raw)
        for p in parents[v]:
            size *= cards[p]
        mechanisms[v] = tuple(draw(st.lists(st.integers(0, cards[v] - 1),
                                            min_size=size, max_size=size)))
    return ck.FiniteSCM.build(
        variables=[(v, cards[v]) for v in draw(st.permutations(names))],
        parents=parents, noises=noises, mechanisms=mechanisms)


@given(finite_scms())
@settings(max_examples=30)
def test_compiled_kernels_match_enumeration_oracle_on_random_models(scm):
    c = ck.compile_scm(scm)
    assert c.P.weights == law_oracle(scm, {})
    for subset in ck.subsets_of(c.space.names):
        k = c.kernel(subset)
        for a in range(k.domain.n_outcomes):
            pinned = dict(zip(k.domain.names, k.domain.outcome(a)))
            assert k.rows[a].weights == law_oracle(scm, pinned)


@given(finite_scms())
@settings(max_examples=30)
def test_shifted_rows_are_the_laws_built_at_their_own_atoms(scm):
    # each row of K_S, shifted or not, has the numerators, in the order and
    # over the denominator, of the law the system gives at its own atom
    from causalkit.scm import _conditional_tables, _mutilated_law

    c = ck.compile_scm(scm)
    tables = _conditional_tables(scm, c.space, scm.topo_order())
    for subset in ck.subsets_of(c.space.names):
        free = [t for t in tables if t[0] not in subset]
        k = c.kernel(subset)
        for rep, row in zip(c.space.projector(subset).lowest, k.rows):
            law = _mutilated_law(c.space, free, rep)
            assert list(row._nums.items()) == list(law._nums.items())
            assert row._den == law._den


def test_compile_builds_one_law_per_read_pinned_assignment(monkeypatch):
    # A -> B -> C -> D: pinning A and D leaves B and C free, which read A
    # only; pinning C and D leaves A and B, which read neither
    scm = ck.FiniteSCM.build(
        variables=[("A", 3), ("B", 2), ("C", 2), ("D", 2)],
        parents={"A": (), "B": ("A",), "C": ("B",), "D": ("C",)},
        noises={v: (F(1, 3), F(2, 3)) for v in "ABCD"},
        mechanisms={"A": (0, 2), "B": (0, 1, 1, 0, 0, 0), "C": (0, 1, 1, 1),
                    "D": (1, 0, 0, 1)})
    from causalkit import scm as scm_module

    law, calls = scm_module._mutilated_law, []
    monkeypatch.setattr(scm_module, "_mutilated_law",
                        lambda *args: calls.append(args[2]) or law(*args))
    c = ck.compile_scm(scm)
    expected = {("A", "D"): 3, ("C", "D"): 1, ("A", "C"): 3 * 2, ("D",): 1, ("A",): 3,
                ("A", "B", "C", "D"): 1, ("B", "D"): 2}
    for subset, count in expected.items():
        del calls[:]
        k = c.kernel(subset)
        assert len(calls) == count, subset
        # each law is built at the lowest atom with its read values
        assert calls == sorted(calls)
        assert [row.weights for row in k.rows] == [
            law_oracle(scm, dict(zip(k.domain.names, k.domain.outcome(a))))
            for a in range(k.domain.n_outcomes)]


def test_load_and_compile_check_each_noise_row_once(monkeypatch):
    from causalkit import scm as scm_module
    from causalkit import spaces

    doc = json.loads((files("causalkit") / "corpus" / "fork.json").read_text(encoding="utf-8"))
    checked = []
    monkeypatch.setattr(scm_module, "_integer_row",
                        lambda weights: checked.append(weights) or spaces._integer_row(weights))
    model = ck.loads(json.dumps(doc))
    ck.compile_scm(model)
    assert sorted(checked) == sorted(model.noises.values())
    assert len(checked) == len(model.names)


def test_float_noise_weights_are_rejected_at_construction():
    # the weights sum to 1.0 == Fraction(1), so only the type check catches them
    with pytest.raises(ck.SpaceError, match=r"^noise weights of 'B' must be Fractions$"):
        ck.FiniteSCM(
            variables=(ck.Coordinate("A", 2), ck.Coordinate("B", 2)),
            parents={"A": (), "B": ("A",)},
            noises={"A": (F(1, 2), F(1, 2)), "B": (0.25, 0.75)},
            mechanisms={"A": (0, 1), "B": (0, 1, 1, 0)},
        )


@given(st.integers(0, 10 ** 6), st.booleans(), st.data())
@settings(max_examples=30)
def test_compiled_and_marginal_rows_pass_the_full_validator(seed, shifted, data):
    from random import Random

    from causalkit.oracle import _random_abstraction, _random_scm

    scm = _random_scm(Random(seed), "V", shifted=shifted)
    keep = data.draw(st.sets(st.sampled_from(scm.names), min_size=1))
    on = data.draw(st.sets(st.sampled_from(scm.names)))
    full, marginal = ck.compile_scm(scm), ck.marginal_space(scm, keep)
    renamed = ck.rename(marginal, {n: "W" + n for n in keep})
    inst = _random_abstraction(Random(seed))
    u2 = data.draw(st.sets(st.sampled_from(inst.target.space.names), min_size=1))
    u1_space = inst.source.space.restrict(inst.t.rho.preimage(u2))
    done = ck.pushforward_intervention(
        inst.source, inst.t.outcome_map, inst.t.rho, inst.target.space, u2,
        ck.FiniteMeasure.uniform(u1_space))
    spaces = (full, marginal, renamed,
              ck.product(ck.marginal_space(scm, [min(keep)]), renamed),
              ck.intervene(full, on, ck.project(full.P, on)),
              ck.independent_pinning_space(full.P),
              inst.target, done.source_intervened, done.target_intervened)
    rows = [c.P for c in spaces]
    rows += [r for c in spaces for s in ck.subsets_of(c.space.names) for r in c.kernel(s).rows]
    rows += ck.kernel_compose(full.kernel(on), full.kernel(scm.names)).rows
    rows += ck.inclusion_into_product(marginal, renamed).kernel.rows
    rows += [full.P.condition(a) for a in ck.atoms(full.space, keep) if full.P.mass(a)]
    for row in rows:
        assert row == ck.FiniteMeasure(row.space, row.weights)
        assert row.support_mask == sum(1 << i for i, w in enumerate(row.weights) if w)


@pytest.mark.parametrize("scm", all_example_scms(),
                         ids=lambda s: ",".join(s.names))
def test_compiled_examples_satisfy_axioms(scm):
    report = ck.validate_causal_space(ck.compile_scm(scm))
    assert report.passed, report.render()


def test_cyclic_scm_rejected():
    with pytest.raises(ck.CyclicSCMError):
        ck.FiniteSCM.build(
            variables=[("A", 2), ("B", 2)],
            parents={"A": ("B",), "B": ("A",)},
            noises={"A": (F(1),), "B": (F(1),)},
            mechanisms={"A": (0, 1), "B": (0, 1)},
        )


def test_build_validates_tables():
    with pytest.raises(ck.SpaceError):
        ck.FiniteSCM.build(
            variables=[("A", 2)],
            parents={"A": ()},
            noises={"A": (F(1, 2), F(1, 2))},
            mechanisms={"A": (0,)},  # table too short
        )
    with pytest.raises(ck.SpaceError):
        ck.FiniteSCM.build(
            variables=[("A", 2)],
            parents={"A": ()},
            noises={"A": (F(1, 2), F(1, 2))},
            mechanisms={"A": (0, 2)},  # value out of range
        )
    with pytest.raises(ck.SpaceError):
        ck.FiniteSCM.build(
            variables=[("A", 2)],
            parents={"A": ("B",)},  # unknown parent
            noises={"A": (F(1),)},
            mechanisms={"A": (0,)},
        )
    with pytest.raises(ck.SpaceError):
        ck.FiniteSCM.build(
            variables=[("A", 2)],
            parents={"A": ()},
            noises={"A": (F(1, 2), F(1, 4))},  # does not sum to one
            mechanisms={"A": (0, 1)},
        )


# ---------------------------------------------------------------------------
# pinning


@pytest.mark.parametrize("scm", all_example_scms(),
                         ids=lambda s: ",".join(s.names))
def test_pin_commutes_with_intervention(scm):
    c = ck.compile_scm(scm)
    name = scm.names[0]
    value = 1
    pinned = ck.compile_scm(ck.pin(scm, {name: value}))
    u_space = c.space.restrict((name,))
    done = ck.intervene(c, (name,), ck.FiniteMeasure.dirac(u_space, value))
    assert ck.causal_spaces_equal(pinned, done)


def test_pin_two_variables(parity):
    scm = examples.parity_scm()
    pinned = ck.compile_scm(ck.pin(scm, {"X": 1, "Z": 1}))
    assert pinned.P.mass(cyl(parity.space, Y=0)) == 1
    u_space = parity.space.restrict(("X", "Z"))
    done = ck.intervene(parity, ("X", "Z"),
                        ck.FiniteMeasure.dirac(u_space, u_space.index((1, 1))))
    assert ck.causal_spaces_equal(pinned, done)


def test_pin_validates_values():
    scm = examples.xor_scm()
    with pytest.raises(ck.SpaceError):
        ck.pin(scm, {"X": 5})
    with pytest.raises(ck.SpaceError, match="^unknown variable 'Nope'$"):
        ck.pin(scm, {"Nope": 0})


# ---------------------------------------------------------------------------
# marginal spaces


def test_marginal_of_xor_on_x_is_fair_coin():
    marg = ck.marginal_space(examples.xor_scm(), ("X",))
    assert marg.space.names == ("X",)
    assert marg.P.weights == (F(1, 2), F(1, 2))
    k = marg.kernel(("X",))
    assert k.rows[0].weights == (1, 0)
    assert k.rows[1].weights == (0, 1)
    assert ck.validate_causal_space(marg).passed


def test_marginal_on_everything_is_the_compiled_space():
    scm = examples.fork_scm()
    marg = ck.marginal_space(scm, scm.names)
    assert ck.causal_spaces_equal(marg, ck.compile_scm(scm))


@pytest.mark.parametrize("scm,keep", [
    (examples.mediator_confounder_scm(), ("X", "M")),
    (examples.mediator_confounder_scm(), ("H", "Y")),
    (examples.parity_scm(), ("X", "Y")),
    (examples.fork_scm(), ("Y1", "Y2")),
])
def test_marginal_kernels_project_the_full_kernels(scm, keep):
    full = ck.compile_scm(scm)
    marg = ck.marginal_space(scm, keep)
    assert marg.P == ck.project(full.P, keep)
    for subset in ck.subsets_of(marg.space.names):
        km = marg.kernel(subset)
        kf = full.kernel(subset)
        for a in range(km.domain.n_outcomes):
            assert km.rows[a] == ck.project(kf.rows[a], keep)


def test_marginal_spaces_can_violate_the_axioms():
    # marginalising away the mediator breaks axiom (ii) on the chain:
    # K_X(x, .) re-runs M, so Y keeps x-dependence that the remaining
    # coordinates cannot carry... but X is pinned, so the atom constraint
    # still holds; the failure shows up only for subsets pinning Y, where
    # K_Y(y, .) leaves Y marginally random.  Confirm the validator's verdict
    # matches the exhaustive oracle rather than asserting a fixed outcome.
    scm = examples.mediator_confounder_scm()
    marg = ck.marginal_space(scm, ("X", "Y"))
    fast = ck.validate_causal_space(marg).passed
    slow = ck.full_event_check("axioms", marg)
    assert slow.passed, slow.render()
    del fast


# ---------------------------------------------------------------------------
# inclusion transformations


@pytest.mark.parametrize("keep", [("X",), ("Y",), ("X", "Y")])
def test_xor_inclusion_passes_all_checks(keep):
    t = ck.inclusion_transform(examples.xor_scm(), keep)
    report = ck.check_all(t)
    assert report.passed, report.render()
    assert not t.is_deterministic()


def test_inclusion_kernel_is_conditional_law():
    t = ck.inclusion_transform(examples.xor_scm(), ("X",))
    target = t.target
    # kappa(x, .) = P(. | X = x)
    for a in range(2):
        cond = target.P.condition(cyl(target.space, X=a))
        assert t.kernel.rows[a] == cond


def test_inclusion_compiles_the_model_once(monkeypatch):
    from causalkit import scm as scm_module

    compiled = []
    compile_scm = scm_module.compile_scm

    def counting(model):
        compiled.append(model)
        return compile_scm(model)

    monkeypatch.setattr(scm_module, "compile_scm", counting)
    t = ck.inclusion_transform(examples.mediator_confounder_scm(), ("X", "M"))
    assert len(compiled) == 1
    assert ck.check_all(t).passed


def test_inclusion_with_null_atom_rejected():
    scm = ck.FiniteSCM.build(
        variables=[("A", 2), ("B", 2)],
        parents={"A": (), "B": ("A",)},
        noises={"A": (F(1), F(0)), "B": (F(1, 2), F(1, 2))},
        mechanisms={"A": (0, 1), "B": (0, 1, 1, 0)},
    )
    with pytest.raises(ck.NullAtomError) as err:
        ck.inclusion_transform(scm, ("A",))
    assert (1,) in err.value.atoms


@given(st.integers(0, 10 ** 6), st.data())
@settings(max_examples=15)
def test_random_inclusions_pass(seed, data):
    from random import Random

    from causalkit.oracle import _random_scm

    scm = _random_scm(Random(seed), "V", shifted=True)
    names = list(scm.names)
    keep = tuple(sorted(data.draw(
        st.sets(st.sampled_from(names), min_size=1))))
    t = ck.inclusion_transform(scm, keep)
    assert ck.check_all(t).passed
