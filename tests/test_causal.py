"""Causal-space layer: axioms, interventions, effects, sources, products.

Expected numbers for the worked examples were computed by hand from the
mechanisms (they are small enough to enumerate directly) and are asserted
as exact rationals.
"""

import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import causalkit as ck
from causalkit import cli, examples
from conftest import causal_spaces, chain_scm, events, tampered_pinning_space

F = Fraction


def cyl(space, **assignment):
    return ck.Event.cylinder(space, assignment)


# ---------------------------------------------------------------------------
# axioms


def test_xor_space_satisfies_axioms(xor):
    report = ck.validate_causal_space(xor)
    assert report.passed, report.render()


def test_axiom_i_violation_detected(xor):
    full = xor.materialize()
    table = {frozenset(s): full.kernel(s) for s in full.subsets()}
    sp = full.space
    # empty kernel no longer matches the base measure (which is 3/8,1/8,1/8,3/8)
    skew = ck.FiniteMeasure.uniform(sp)
    table[frozenset()] = ck.StochKernel.constant(sp.restrict(()), skew)
    bad = ck.FiniteCausalSpace(sp, full.P, kernels=table)
    report = ck.validate_causal_space(bad)
    assert not report.passed
    assert "empty-subset kernel" in report.witness.message
    assert "base measure" in report.witness.message
    assert report.witness.subset == ()


def tamper_x_row_0(xor, moves):
    """xor with mass moved from the X=0 fiber of K_X onto X=1 outcomes,
    ``moves`` giving the (outcome index, mass) pairs in the order moved."""
    full = xor.materialize()
    table = {frozenset(s): full.kernel(s) for s in full.subsets()}
    sp = full.space
    k = table[frozenset({"X"})]
    rows = list(k.rows)
    w = list(rows[0].weights)
    src = next(i for i, v in enumerate(w) if v > 0)
    for out, mass in moves:
        w[src] -= mass
        w[out] += mass
    rows[0] = ck.FiniteMeasure(sp, tuple(w))
    table[frozenset({"X"})] = ck.StochKernel(k.domain, sp, tuple(rows))
    return ck.FiniteCausalSpace(sp, full.P, kernels=table)


def test_axiom_ii_violation_detected(xor):
    report = ck.validate_causal_space(tamper_x_row_0(xor, [(xor.space.index((1, 0)), F(1, 8))]))
    assert not report.passed
    assert report.witness.message == (
        "K_{X} at atom (0,) puts mass 1/8 on outcome (1, 0) outside the atom")
    assert report.witness.subset == ("X",)
    assert report.witness.outcome == (0,)
    assert report.witness.event == (2,)


def test_axiom_ii_witness_is_the_lowest_outside_outcome(xor):
    # the higher outcome is moved first and carries more mass
    sp = xor.space
    bad = tamper_x_row_0(xor, [(sp.index((1, 1)), F(1, 8)), (sp.index((1, 0)), F(1, 16))])
    report = ck.validate_causal_space(bad)
    assert not report.passed
    assert report.witness.message == (
        "K_{X} at atom (0,) puts mass 1/16 on outcome (1, 0) outside the atom")
    assert report.witness.outcome == (0,)
    assert report.witness.event == (2,)


def row_scan_witness(c):
    """Axiom (ii) by reading every row of every kernel against its atom's
    mask: (subset, atom values, outcome, mass) of the first outside outcome."""
    for subset in c.subsets():
        k = c.kernel(subset)
        for a, mask in enumerate(c.space.projector(subset).masks):
            outside = k.rows[a].support_mask & ~mask
            if subset and outside:
                i = (outside & -outside).bit_length() - 1
                return subset, k.domain.outcome(a), i, k.rows[a].weights[i]
    return None


@pytest.mark.parametrize("law, moved_to", [(1, 0), (1, 1), (1, 2), (1, 3), (0, 4), (0, 6)])
def test_a_failing_shared_law_gives_the_witness_of_a_row_scan(law, moved_to):
    # K_{A,C} of a pinning space on A, B, C, rebuilt from two laws, those of
    # the atoms with C = 0, which the atoms with C = 1 read shifted by 1; one
    # law moves half its mass outside its atom, so its shifted row leaves too
    space = ck.CoordinateSpace.make([("A", 2), ("B", 2), ("C", 2)])
    full = ck.independent_pinning_space(ck.FiniteMeasure.uniform(space)).materialize()
    table = {frozenset(s): full.kernel(s) for s in full.subsets()}
    k = table[frozenset("AC")]
    laws = [k.rows[0], k.rows[2]]
    w = list(laws[law].weights)
    w[law * 4 + 2] -= F(1, 2)
    w[moved_to] += F(1, 2)
    laws[law] = ck.FiniteMeasure(space, w)
    table[frozenset("AC")] = ck.StochKernel(k.domain, space, laws,
                                            ((0, 0), (0, 1), (1, 0), (1, 1)))
    c = ck.FiniteCausalSpace.tabulated(space, full.P, table)
    shifted = c.kernel(("A", "C")).rows[law * 2 + 1]
    assert shifted.support_mask & ~c.space.projector(("A", "C")).masks[law * 2 + 1]
    subset, atom, outcome, mass = row_scan_witness(c)
    report = ck.validate_causal_space(c)
    assert not report.passed
    assert (report.witness.subset, report.witness.outcome, report.witness.event) == (
        subset, atom, (outcome,))
    assert report.witness.message == (
        f"K_{{{','.join(subset)}}} at atom {atom} puts mass {mass} on outcome "
        f"{space.outcome(outcome)} outside the atom")
    assert (subset, atom) == (("A", "C"), (law, 0))


def test_compile_and_validate_shift_no_row_and_build_no_mask(monkeypatch):
    from causalkit import spaces

    shifts, shift = [], spaces._shift
    monkeypatch.setattr(spaces, "_shift",
                        lambda law, offset: shifts.append(offset) or shift(law, offset))
    c = ck.compile_scm(chain_scm(5))
    assert ck.validate_causal_space(c).passed
    assert shifts == []
    assert all("masks" not in vars(proj) for proj in c.space._projectors.values())
    # not vacuous: nothing reads the leaf V4, so K_{V1,V4} reuses its laws,
    # and reading its rows shifts them
    k = c.kernel(("V1", "V4"))
    assert len(k.laws) < len(k.picks)
    list(k.rows)
    assert shifts == [1, 1]


@given(st.integers(0, 10 ** 6), st.booleans(), st.data())
@settings(max_examples=20)
def test_law_kernels_give_the_verdicts_of_their_materialised_rows(seed, shifted, data):
    from random import Random

    from causalkit.oracle import _random_scm

    c = ck.compile_scm(_random_scm(Random(seed), "V", shifted=shifted))
    rows = ck.FiniteCausalSpace.tabulated(c.space, c.P, {
        s: ck.StochKernel(c.kernel(s).domain, c.space, tuple(c.kernel(s).rows))
        for s in c.subsets()})
    subsets = list(c.subsets())
    on, target, other = (data.draw(st.sampled_from(subsets)) for _ in range(3))
    event = data.draw(events(c.space))
    for check in (lambda x: ck.validate_causal_space(x),
                  lambda x: ck.classify_effect_on(x, on, target),
                  lambda x: ck.classify_effect(x, on, event),
                  lambda x: ck.is_source(x, on, target),
                  lambda x: ck.causally_independent_on(x, on, target, other),
                  lambda x: ck.causally_independent(x, on, event, event.complement())):
        got, expected = check(c), check(rows)
        assert got == expected
        if hasattr(got, "to_dict"):
            assert got.to_dict() == expected.to_dict()


def test_missing_kernel_raises(xor):
    full = xor.materialize()
    table = {frozenset(s): full.kernel(s) for s in full.subsets()}
    del table[frozenset({"X"})]
    with pytest.raises(ck.MissingKernelError):
        ck.FiniteCausalSpace(full.space, full.P, kernels=table).kernel(("X",))


def test_kernel_with_wrong_domain_raises_on_every_call(xor):
    wrong = xor.kernel(())
    lazy = ck.FiniteCausalSpace.lazy(xor.space, xor.P, lambda key: wrong)
    table = {frozenset(s): wrong for s in xor.subsets()}
    tabulated = ck.FiniteCausalSpace.tabulated(xor.space, xor.P, table)
    for c in (lazy, tabulated):
        for _ in range(2):
            with pytest.raises(ck.SpaceError, match="wrong domain or codomain"):
                c.kernel(("X",))


@given(causal_spaces())
def test_random_spaces_satisfy_axioms(space):
    assert ck.validate_causal_space(space).passed


def test_independent_pinning_space_is_valid(xor):
    pinned = ck.independent_pinning_space(xor.P)
    assert ck.validate_causal_space(pinned).passed
    # kernel rows pin the subset and draw the rest from P independently
    k = pinned.kernel(("X",))
    assert k.value(0, cyl(xor.space, Y=1)) == ck.project(xor.P, ("Y",)).weights[1]
    # intervene does not re-validate the pinning mechanisms it builds, so
    # they must satisfy both axioms for measures with null outcomes too
    for cards in ([2], [3, 2], [2, 3, 2], [1, 4]):
        space = ck.CoordinateSpace.make([(f"V{i}", c) for i, c in enumerate(cards)])
        n = space.n_outcomes
        spread = [F(i % 3) for i in range(n)]
        for weights in (spread, [F(int(i == n - 1)) for i in range(n)]):
            total = sum(weights)
            P = ck.FiniteMeasure(space, tuple(w / total for w in weights))
            report = ck.validate_causal_space(ck.independent_pinning_space(P))
            assert report.passed, (cards, weights, report.render())


# ---------------------------------------------------------------------------
# interventions


def test_intervene_on_nothing_is_identity(xor):
    done = ck.intervene(xor, (), ck.FiniteMeasure.uniform(xor.space.restrict(())))
    assert ck.causal_spaces_equal(done, xor)


def test_pinning_x_in_xor(xor):
    u_space = xor.space.restrict(("X",))
    done = ck.intervene(xor, ("X",), ck.FiniteMeasure.dirac(u_space, 1))
    # Y = 1 xor N_Y, so P(Y=1) = 3/4 after do(X=1)
    assert done.P.mass(cyl(xor.space, Y=1)) == F(3, 4)
    assert done.P.mass(cyl(xor.space, X=1)) == 1
    assert ck.validate_causal_space(done).passed


def test_intervening_with_observational_law_reproduces_it(xor):
    q = ck.project(xor.P, ("X",))
    mech = xor  # not a mechanism; just documents intent
    done = ck.intervene(xor, ("X",), q)
    assert done.P == xor.P
    del mech


def test_intervention_measure_space_checked(xor):
    with pytest.raises(ck.SpaceError):
        ck.intervene(xor, ("X",), xor.P)  # measure on the full space


def test_bad_mechanism_rejected(xor):
    u_space = xor.space.restrict(("X",))
    q = ck.FiniteMeasure.dirac(u_space, 1)
    other = ck.FiniteMeasure.uniform(u_space)
    with pytest.raises(ck.InvalidMechanismError, match="base measure differs"):
        ck.intervene(xor, ("X",), q,
                     mechanism=ck.independent_pinning_space(other))
    elsewhere = ck.FiniteMeasure.uniform(xor.space.restrict(("Y",)))
    with pytest.raises(ck.InvalidMechanismError, match="wrong space"):
        ck.intervene(xor, ("X",), other,
                     mechanism=ck.independent_pinning_space(elsewhere))
    # right space and base measure, but the row of K_X at X=0 puts its mass
    # on X=1, against axiom (ii)
    bad = tampered_pinning_space(xor.space, {("X",): [(0, (0, 0), (1, 0))]})
    with pytest.raises(ck.InvalidMechanismError, match="violates the kernel axioms"):
        ck.intervene(xor, ("X", "Y"), bad.P, mechanism=bad)


def row_at(kernel, values):
    """Row of a kernel at a name-to-value assignment covering its domain."""
    dom = kernel.domain
    return kernel.rows[dom.index(tuple(values[n] for n in dom.names))].weights


def assert_intervention_matches_definition(c, done, on, q, l_row):
    """Compare do(U, Q, L) with its definition, enumerated on value tuples.

        P^do({j})          = sum_u Q(u) K_U(u, {j})
        K^do_S(omega, {j}) = sum_u L_{S n U}(omega_{S n U}, u) K_{S u U}((omega_{S \\ U}, u), {j})

    ``l_row(T, pinned)`` gives L_T at a name-to-value assignment of T, as
    weights over the U-assignments in mixed-radix order.
    """
    names = c.space.names
    card = dict(zip(names, c.space.cards))
    n = c.space.n_outcomes

    def assignments(block):
        block = [v for v in names if v in block]
        return [dict(zip(block, vals))
                for vals in product(*(range(card[v]) for v in block))]

    def mix(pairs):
        total = [F(0)] * n
        for weight, row in pairs:
            for j in range(n):
                total[j] += weight * row[j]
        return tuple(total)

    U = frozenset(on)
    us = assignments(U)
    assert done.P.weights == mix(
        (q.weights[i], row_at(c.kernel(U), u)) for i, u in enumerate(us))
    for subset in c.subsets():
        S = frozenset(subset)
        k_do = done.kernel(S)
        omegas = assignments(S)
        assert k_do.domain.names == tuple(v for v in names if v in S)
        assert len(k_do.rows) == len(omegas)
        for a, omega in enumerate(omegas):
            l_weights = l_row(S & U, {v: omega[v] for v in S & U})
            free = {v: omega[v] for v in S - U}
            expected = mix((l_weights[i], row_at(c.kernel(S | U), {**free, **u}))
                           for i, u in enumerate(us))
            assert k_do.rows[a].weights == expected, (sorted(S), omega)


def pinning_rows(q):
    """L_T of the independent pinning mechanism of Q, from its definition:
    L_T(pinned, u) = [u agrees with pinned] * Q(u restricted to U \\ T)."""
    names = q.space.names
    us = [dict(zip(names, vals)) for vals in q.space.outcomes()]

    def l_row(t, pinned):
        def marginal(u):
            return sum((w for w, u2 in zip(q.weights, us)
                        if all(u2[v] == u[v] for v in names if v not in t)), F(0))
        return [marginal(u) if all(u[v] == x for v, x in pinned.items()) else F(0)
                for u in us]

    return l_row


def test_custom_mechanism_reshapes_kernels(parity):
    # mechanism that correlates X and Z instead of pinning them separately
    u_space = parity.space.restrict(("X", "Z"))
    q = ck.FiniteMeasure(
        u_space, (F(1, 2), F(0), F(0), F(1, 2)))  # X = Z, fair
    couple = {
        frozenset(): ck.StochKernel.constant(u_space.restrict(()), q),
        frozenset({"X"}): ck.StochKernel.from_rows(
            u_space.restrict(("X",)), u_space,
            [(1, 0, 0, 0), (0, 0, 0, 1)]),
        frozenset({"Z"}): ck.StochKernel.from_rows(
            u_space.restrict(("Z",)), u_space,
            [(1, 0, 0, 0), (0, 0, 0, 1)]),
        frozenset({"X", "Z"}): ck.StochKernel.identity(u_space),
    }
    mech = ck.FiniteCausalSpace(u_space, q, kernels=couple)
    done = ck.intervene(parity, ("X", "Z"), q, mechanism=mech)
    assert ck.validate_causal_space(done).passed
    assert_intervention_matches_definition(
        parity, done, ("X", "Z"), q,
        lambda t, pinned: row_at(mech.kernel(t), pinned))
    # Y = X xor Z = 0 almost surely under the coupled law
    assert done.P.mass(cyl(parity.space, Y=0)) == 1
    # the new K_X knows that Z follows X ...
    assert done.kernel(("X",)).value(1, cyl(parity.space, Z=1)) == 1
    # ... whereas the default independent pinning redraws Z from Q's marginal.
    # The base measure cannot tell the two mechanisms apart; the kernels can.
    indep = ck.intervene(parity, ("X", "Z"), q)
    assert indep.P == done.P
    assert indep.kernel(("X",)).value(1, cyl(parity.space, Z=1)) == F(1, 2)


def draw_intervention(space, data):
    """A nonempty coordinate subset U and a random measure Q on it."""
    names = list(space.space.names)
    u = tuple(sorted(data.draw(
        st.sets(st.sampled_from(names), min_size=1))))
    u_space = space.space.restrict(u)
    raw = data.draw(st.lists(st.integers(0, 4),
                             min_size=u_space.n_outcomes,
                             max_size=u_space.n_outcomes)
                    .filter(lambda ws: any(ws)))
    q = ck.FiniteMeasure(
        u_space, tuple(F(w, sum(raw)) for w in raw))
    return u, q


@given(causal_spaces(), st.data())
@settings(max_examples=15)
def test_intervention_matches_its_definition(space, data):
    u, q = draw_intervention(space, data)
    done = ck.intervene(space, u, q)
    assert_intervention_matches_definition(space, done, u, q, pinning_rows(q))


@given(causal_spaces(), st.data())
@settings(max_examples=15)
def test_intervened_spaces_satisfy_axioms(space, data):
    u, q = draw_intervention(space, data)
    done = ck.intervene(space, u, q)
    report = ck.validate_causal_space(done)
    assert report.passed, report.render()
    assert ck.project(done.P, u) == q


# ---------------------------------------------------------------------------
# effect classification


def test_xor_effect_is_active(xor):
    effect = ck.classify_effect(xor, ("X",), cyl(xor.space, Y=1))
    assert effect.tag == ck.EffectClass.ACTIVE
    assert effect.witness is not None
    assert "1/4" in effect.witness.message or "3/4" in effect.witness.message


def test_parity_effect_is_dormant(parity):
    effect = ck.classify_effect(parity, ("X",), cyl(parity.space, Y=1))
    assert effect.tag == ck.EffectClass.DORMANT
    assert effect.witness.message == (
        "K_{X,Z} at (0, 0) gives 0 on the event but dropping ['X'] gives 1/2")
    assert effect.witness.subset == ("X", "Z")
    assert effect.witness.outcome == (0, 0)


def test_no_effect_across_product_factors(xor):
    other = ck.rename(xor, {"X": "A", "Y": "B"})
    both = ck.product(xor, other)
    effect = ck.classify_effect_on(both, ("X", "Y"), ("A", "B"))
    assert effect.tag == ck.EffectClass.NO_EFFECT
    assert effect.witness is None
    back = ck.classify_effect_on(both, ("A",), ("X",))
    assert back.tag == ck.EffectClass.NO_EFFECT


def test_effect_tags_are_exhaustive(xor, parity):
    tags = {ck.EffectClass.NO_EFFECT, ck.EffectClass.ACTIVE,
            ck.EffectClass.DORMANT}
    for space in (xor, parity):
        for u in (("X",), ("Y",)):
            e = ck.classify_effect_on(space, u, ("Y",))
            assert e.tag in tags
            assert (e.witness is None) == (e.tag == ck.EffectClass.NO_EFFECT)


def test_effect_class_witness_contract():
    with pytest.raises(ValueError):
        ck.EffectClass("active")  # active needs a witness
    with pytest.raises(ValueError):
        ck.EffectClass("no-effect", ck.Witness(message="spurious"))
    with pytest.raises(ValueError):
        ck.EffectClass("sideways")


# ---------------------------------------------------------------------------
# sources


def test_xor_x_is_source_for_y(xor):
    report = ck.is_source(xor, ("X",), ("Y",))
    assert report.passed
    assert ck.is_global_source(xor, ("X",)).passed


def test_y_is_not_global_source_in_xor(xor):
    # K_Y pins Y and redraws X from scratch, ignoring the correlation
    report = ck.is_global_source(xor, ("Y",))
    assert not report.passed
    assert report.witness is not None


def test_null_atoms_exempted_in_source_check():
    space = ck.CoordinateSpace.make([("X", 2), ("Y", 2)])
    # X = 0 almost surely; Y fair and independent
    p = ck.FiniteMeasure(space, (F(1, 2), F(1, 2), F(0), F(0)))
    c = ck.independent_pinning_space(p)
    report = ck.is_source(c, ("X",), ("Y",))
    assert report.passed
    assert any("null atom" in d and "exempted" in d for d in report.details)


def test_product_factors_are_mutual_sources(xor):
    other = ck.rename(xor, {"X": "A", "Y": "B"})
    both = ck.product(xor, other)
    assert ck.is_source(both, ("X", "Y"), ("A", "B")).passed
    assert ck.is_source(both, ("A", "B"), ("X", "Y")).passed


# ---------------------------------------------------------------------------
# causal independence


def test_fork_outputs_causally_independent_given_root(fork):
    a = cyl(fork.space, Y1=1)
    b = cyl(fork.space, Y2=1)
    assert ck.causally_independent(fork, ("X",), a, b)
    assert ck.causally_independent(fork, ("X",), b, a)
    # observationally they are correlated through X
    pa, pb = fork.P.mass(a), fork.P.mass(b)
    assert fork.P.mass(a & b) != pa * pb


def test_collider_inputs_causally_independent_given_output(collider):
    a = cyl(collider.space, X1=1)
    b = cyl(collider.space, X2=1)
    assert ck.causally_independent(collider, ("Y",), a, b)
    # conditioning on the collider creates dependence: P(. | Y=1) couples them
    given_y = collider.P.condition(cyl(collider.space, Y=1))
    assert given_y.mass(a & b) != given_y.mass(a) * given_y.mass(b)


def test_causal_independence_trivial_events(xor):
    full = ck.Event.full(xor.space)
    empty = ck.Event.empty(xor.space)
    other = cyl(xor.space, Y=1)
    for u in ((), ("X",), ("X", "Y")):
        assert ck.causally_independent(xor, u, full, other)
        assert ck.causally_independent(xor, u, empty, other)


def test_dependent_events_detected(xor):
    a = cyl(xor.space, X=1)
    b = cyl(xor.space, Y=1)
    # on H_\emptyset the kernel row is P and the two are correlated
    assert not ck.causally_independent(xor, (), a, b)


def scan_independent_events(c, on, a, b):
    """causally_independent as a per-row scan of K(A & B) == K(A) K(B)."""
    k_u = c.kernel(frozenset(on))
    return all(k_u.value(row, a & b) == k_u.value(row, a) * k_u.value(row, b)
               for row in range(k_u.domain.n_outcomes))


@given(causal_spaces(), st.data())
def test_event_independence_matches_per_row_scan(space, data):
    on = data.draw(st.sampled_from(list(ck.subsets_of(space.space.names))))
    a, b = data.draw(events(space.space)), data.draw(events(space.space))
    assert ck.causally_independent(space, on, a, b) == scan_independent_events(space, on, a, b)


def test_subsystem_independence_on_subsets(fork, xor):
    assert ck.causally_independent_on(fork, ("X",), ("Y1",), ("Y2",))
    assert not ck.causally_independent_on(xor, (), ("X",), ("Y",))
    # symmetric in the two sub-sigma-algebras
    assert ck.causally_independent_on(fork, ("X",), ("Y2",), ("Y1",))


def interior_coupling_scm():
    """X and Y uniform on 9 values each, coupled only at X in {4, 5}.

    Y = N mod 9 for N uniform on 18 values, except that X=4 sends N=15 to
    Y=5 and X=5 sends N=14 to Y=6.  Every row and column of P on the
    (X-atom, Y-atom) cells keeps mass 1/9, and only the cells (4, 5),
    (4, 6), (5, 5) and (5, 6) leave the product P(X) P(Y).  A probability
    row cannot fail on a single cell: the defects D * cell - row * col sum
    to zero along each row and column, so this 2x2 block is the smallest
    failure there is.
    """
    def y_of(x, n):
        if (x, n) == (4, 15):
            return 5
        if (x, n) == (5, 14):
            return 6
        return n % 9
    return ck.FiniteSCM.build(
        [("X", 9), ("Y", 9)], {"X": (), "Y": ("X",)},
        {"X": (F(1, 9),) * 9, "Y": (F(1, 18),) * 18},
        {"X": tuple(range(9)), "Y": tuple(y_of(x, n) for x in range(9) for n in range(18))})


def test_independence_fails_on_one_interior_block_above_16_atoms(capsys, tmp_path):
    scm = interior_coupling_scm()
    c = ck.compile_scm(scm)
    # 9 + 9 = 18 atoms; the marginals are uniform, the coupling is interior
    assert [c.P.mass(a) for a in ck.atoms(c.space, ("X",))] == [F(1, 9)] * 9
    assert [c.P.mass(a) for a in ck.atoms(c.space, ("Y",))] == [F(1, 9)] * 9
    assert not ck.causally_independent_on(c, (), ("X",), ("Y",))
    assert not ck.causally_independent_on(c, (), ("Y",), ("X",))
    # pinning X leaves nothing to couple
    assert ck.causally_independent_on(c, ("X",), ("X",), ("Y",))
    path = tmp_path / "coupled.json"
    ck.dump(scm, path)
    code = cli.main(["independence", str(path), "--first", "X", "--second", "Y", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["details"] == [
        "all union pairs of the two atom families checked"]
    assert cli.main(["independence", str(path), "--on", "X",
                     "--first", "X", "--second", "Y"]) == 0


# ---------------------------------------------------------------------------
# the atom sweeps against atom-by-atom scans on StochKernel.value


def scan_effect(c, on, targets):
    """classify_effect(_on) as one scan of every subset per event."""
    U = frozenset(on)
    k_u = c.kernel(U)
    for event in targets:
        base = c.P.mass(event)
        for a in range(k_u.domain.n_outcomes):
            val = k_u.value(a, event)
            if val != base:
                return ck.EffectClass(ck.EffectClass.ACTIVE, ck.Witness(
                    message=(f"K_{{{','.join(sorted(U))}}} at {k_u.domain.outcome(a)} "
                             f"gives {val} on the event but the base measure gives {base}"),
                    subset=tuple(sorted(U)),
                    outcome=k_u.domain.outcome(a),
                    event=tuple(sorted(event.indices()))))
    for event in targets:
        for subset in ck.subsets_of(c.space.names):
            s = frozenset(subset)
            if not s & U:
                continue
            k_s, k_r = c.kernel(s), c.kernel(s - U)
            for a in range(k_s.domain.n_outcomes):
                omega = k_s.domain.outcome(a)
                values = dict(zip(k_s.domain.names, omega))
                r = k_r.domain.index(tuple(values[n] for n in k_r.domain.names))
                lhs, rhs = k_s.value(a, event), k_r.value(r, event)
                if lhs != rhs:
                    return ck.EffectClass(ck.EffectClass.DORMANT, ck.Witness(
                        message=(f"K_{{{','.join(subset)}}} at {omega} gives {lhs} on the "
                                 f"event but dropping {sorted(U)} gives {rhs}"),
                        subset=subset,
                        outcome=omega,
                        event=tuple(sorted(event.indices()))))
    return ck.EffectClass(ck.EffectClass.NO_EFFECT)


def scan_source(c, on, target):
    """is_source as a scan of every (U-atom, V-atom) pair."""
    U = tuple(sorted(frozenset(on)))
    k_u = c.kernel(U)
    exempt = []
    for a, u_atom in enumerate(ck.atoms(c.space, U)):
        z = c.P.mass(u_atom)
        if z == 0:
            exempt.append(f"null atom {k_u.domain.outcome(a)} of H_{{{','.join(U)}}} exempted")
            continue
        for v_atom in ck.atoms(c.space, target):
            lhs = k_u.value(a, v_atom)
            rhs = c.P.mass(v_atom & u_atom) / z
            if lhs != rhs:
                return ck.CheckReport(
                    check="local-source", passed=False,
                    witness=ck.Witness(
                        message=(f"K_{{{','.join(U)}}} at {k_u.domain.outcome(a)} gives "
                                 f"{lhs} but conditioning gives {rhs}"),
                        subset=U,
                        outcome=k_u.domain.outcome(a),
                        event=tuple(sorted(v_atom.indices()))),
                    details=tuple(exempt))
    return ck.CheckReport(check="local-source", passed=True, details=tuple(exempt))


def scan_independent(c, on, first, second):
    """causally_independent_on as a scan of every union pair and row."""
    atoms_a, atoms_b = ck.atoms(c.space, first), ck.atoms(c.space, second)

    def union(family, mask):
        return ck.Event(c.space, sum(e.mask for i, e in enumerate(family)
                                     if (mask >> i) & 1))

    k_u = c.kernel(frozenset(on))
    for ma in range(1 << len(atoms_a)):
        for mb in range(1 << len(atoms_b)):
            a, b = union(atoms_a, ma), union(atoms_b, mb)
            for row in range(k_u.domain.n_outcomes):
                if k_u.value(row, a & b) != k_u.value(row, a) * k_u.value(row, b):
                    return False
    return True


# combined atom count up to which the union-pair scan stays fast
SCAN_ATOMS = 10


def assert_sweeps_match_scans(c, on, target, other):
    assert ck.classify_effect_on(c, on, target).to_dict() == \
        scan_effect(c, on, ck.atoms(c.space, target)).to_dict()
    assert ck.is_source(c, on, target).to_dict() == scan_source(c, on, target).to_dict()
    if other is None:
        return
    if len(ck.atoms(c.space, target)) + len(ck.atoms(c.space, other)) <= SCAN_ATOMS:
        assert ck.causally_independent_on(c, on, target, other) == \
            scan_independent(c, on, target, other)


@given(causal_spaces(), st.data())
def test_atom_sweeps_match_per_atom_scans(space, data):
    subsets = list(ck.subsets_of(space.space.names))
    on, target, other = (data.draw(st.sampled_from(subsets)) for _ in range(3))
    assert_sweeps_match_scans(space, on, target, other)
    event = data.draw(events(space.space))
    assert ck.classify_effect(space, on, event).to_dict() == \
        scan_effect(space, on, [event]).to_dict()
    if space.space.n_outcomes > 12:
        return  # beyond the oracle's exhaustive bound
    n_atoms = {s: len(ck.atoms(space.space, s)) for s in (on, target, other)}
    assert ck.full_event_check("effect-classification", space, on, target).passed
    if n_atoms[on] + n_atoms[target] <= 16:
        assert ck.full_event_check("sources", space, on, target).passed
    if n_atoms[target] + n_atoms[other] <= 16:
        assert ck.full_event_check("causal-independence", space, on, target, other).passed


@pytest.mark.parametrize("make", [
    examples.xor_scm, examples.parity_scm, examples.fork_scm, examples.collider_scm,
    examples.mediator_confounder_scm, examples.composition_scm,
    examples.faithfulness_full_scm,
])
def test_atom_sweeps_match_per_atom_scans_on_examples(make):
    c = ck.compile_scm(make())
    subsets = list(ck.subsets_of(c.space.names))
    for on in subsets:
        for target in subsets:
            # the independence scan is slow; two names each keep it short
            other = None
            if len(on) <= 2 and len(target) <= 2:
                other = (c.space.names[len(on) % len(c.space.names)],)
            assert_sweeps_match_scans(c, on, target, other)


def test_effect_witness_is_the_lowest_atom_not_the_first_subset():
    space = ck.CoordinateSpace.make([("X", 2), ("Y", 3), ("Z", 2)])
    c = tampered_pinning_space(space, {
        # K_{X,Y} at (1, 1) moves mass from Y=1 to Y=2: atoms 1 and 2 break first
        ("X", "Y"): [(4, (1, 1, 0), (1, 2, 0))],
        # K_{X,Z} at (0, 0) moves mass from Y=0 to Y=1: atom 0 breaks a subset later
        ("X", "Z"): [(0, (0, 0, 0), (0, 1, 0))],
    })
    effect = ck.classify_effect_on(c, ("X",), ("Y",))
    assert effect.to_dict() == scan_effect(c, ("X",), ck.atoms(space, ("Y",))).to_dict()
    assert effect.tag == ck.EffectClass.DORMANT
    assert effect.witness.message == (
        "K_{X,Z} at (0, 0) gives 0 on the event but dropping ['X'] gives 1/3")
    assert effect.witness.event == tuple(ck.atoms(space, ("Y",))[0].indices())


def test_active_witness_is_the_first_row_of_the_lowest_atom():
    space = ck.CoordinateSpace.make([("X", 2), ("Y", 3)])
    # both rows of K_X move mass from Y=1 to Y=2 and leave Y=0 alone
    c = tampered_pinning_space(space, {
        ("X",): [(0, (0, 1), (0, 2)), (1, (1, 1), (1, 2))]})
    effect = ck.classify_effect_on(c, ("X",), ("Y",))
    assert effect.to_dict() == scan_effect(c, ("X",), ck.atoms(space, ("Y",))).to_dict()
    assert effect.witness.message == (
        "K_{X} at (0,) gives 0 on the event but the base measure gives 1/3")
    assert effect.witness.event == (1, 4)


def test_source_witness_is_the_first_failing_target_atom():
    # P(Y=0 | X=0) = P(Y=0), so the first mismatch at X=0 is on Y=1
    space = ck.CoordinateSpace.make([("X", 2), ("Y", 3)])
    p = ck.FiniteMeasure(space, (F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 12), F(1, 4)))
    c = ck.independent_pinning_space(p)
    report = ck.is_source(c, ("X",), ("Y",))
    assert report.to_dict() == scan_source(c, ("X",), ("Y",)).to_dict()
    assert report.witness.message == "K_{X} at (0,) gives 1/4 but conditioning gives 1/3"
    assert report.witness.event == (1, 4)


# ---------------------------------------------------------------------------
# products and renaming


def test_product_with_point_space_is_isomorphic(xor):
    point = ck.independent_pinning_space(
        ck.FiniteMeasure.uniform(ck.CoordinateSpace.make([("Unit", 1)])))
    both = ck.product(xor, point)
    assert ck.validate_causal_space(both).passed
    assert both.P.weights == xor.P.weights
    for s in xor.subsets():
        k_small = xor.kernel(s)
        k_big = both.kernel(s)
        for a in range(k_small.domain.n_outcomes):
            assert k_big.rows[a].weights == k_small.rows[a].weights


def test_product_of_examples_is_valid(xor, fork):
    renamed = ck.rename(fork, {"X": "R", "Y1": "S1", "Y2": "S2"})
    both = ck.product(xor, renamed)
    assert ck.validate_causal_space(both).passed
    assert both.P.mass(cyl(both.space, X=1, R=1)) == (
        xor.P.mass(cyl(xor.space, X=1)) * fork.P.mass(cyl(fork.space, X=1)))


def test_product_name_collision_rejected(xor):
    with pytest.raises(ck.SpaceError):
        ck.product(xor, xor)


def test_derived_spaces_build_every_kernel_on_their_own_space(xor, fork):
    renamed = ck.rename(fork, {"X": "R", "Y1": "S1", "Y2": "S2"})
    for c in (renamed, ck.product(xor, renamed),
              ck.marginal_space(examples.mediator_confounder_scm(), ("X", "M"))):
        assert c.P.space is c.space
        for s in c.subsets():
            k = c.kernel(s)
            assert k.codomain is c.space
            assert k.domain is c.space.restrict(s)


def test_rename_round_trip(xor):
    renamed = ck.rename(xor, {"X": "A", "Y": "B"})
    assert ck.validate_causal_space(renamed).passed
    back = ck.rename(renamed, {"A": "X", "B": "Y"})
    assert ck.causal_spaces_equal(back, xor)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=10)
def test_random_products_are_valid(seed_a, seed_b):
    a = ck.random_space(seed_a, n_coords=2)
    b = ck.random_space(seed_b, n_coords=2)
    b = ck.rename(b, {n: f"W{i}" for i, n in enumerate(b.space.names)})
    both = ck.product(a, b)
    assert ck.validate_causal_space(both).passed
