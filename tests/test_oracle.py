"""Exhaustive oracles, random instance generation, and the lemma suites."""

from random import Random

import pytest
from hypothesis import given, strategies as st

import causalkit as ck
from causalkit import cli, examples, oracle
from causalkit.oracle import MAX_ORACLE_OUTCOMES, _random_abstraction, _random_abstraction_on
from conftest import kernels


# ---------------------------------------------------------------------------
# full-event oracles


def test_axioms_oracle_agrees_on_examples(xor, parity, fork):
    for c in (xor, parity, fork):
        report = ck.full_event_check("axioms", c)
        assert report.passed, report.render()


def test_axioms_oracle_agrees_on_tampered_space():
    bad = ck.random_space(3, perturb="axiom-ii")
    assert not ck.validate_causal_space(bad).passed
    report = ck.full_event_check("axioms", bad)
    assert report.passed  # agreement on a failing instance


def test_distributional_and_interventional_oracles_agree():
    t = ck.inclusion_transform(examples.xor_scm(), ("X",))
    assert ck.full_event_check("distributional", t).passed
    assert ck.full_event_check("interventional", t).passed


def small_causal_spaces(prefix: str) -> st.SearchStrategy:
    """Random causal spaces of at most 9 outcomes, coordinates renamed."""
    return st.builds(
        lambda seed, n: ck.random_space(seed, n_coords=n),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=1, max_value=2),
    ).map(lambda c: ck.rename(
        c, {n: f"{prefix}{i}" for i, n in enumerate(c.space.names)}))


@given(st.data())
def test_interventional_oracle_agrees_on_random_kernels(data):
    # a random kernel is rarely a transformation, so this mostly compares
    # failing verdicts, which a single passing inclusion never exercises
    source = data.draw(small_causal_spaces("S"))
    target = data.draw(small_causal_spaces("T"))
    rho = ck.IndexMap(
        source=source.space.names, target=target.space.names,
        mapping={n: data.draw(st.sampled_from(target.space.names))
                 for n in source.space.names})
    # kappa(omega, .) = P2 passes the S = {} identity, so later subsets are
    # reached as well
    kernel = data.draw(st.one_of(
        kernels(domain=source.space, codomain=target.space),
        st.just(ck.StochKernel.constant(source.space, target.P))))
    t = ck.Transformation(source=source, target=target, rho=rho, kernel=kernel)
    report = ck.full_event_check("interventional", t)
    assert report.passed, report.render()


def test_effect_oracle_agrees(xor, parity):
    assert ck.full_event_check(
        "effect-classification", xor, ("X",), ("Y",)).passed
    assert ck.full_event_check(
        "effect-classification", parity, ("X",), ("Y",)).passed


def test_sources_oracle_agrees(xor):
    assert ck.full_event_check("sources", xor, ("X",), ("Y",)).passed
    assert ck.full_event_check("sources", xor, ("Y",), ("X",)).passed


def test_independence_oracle_agrees(fork, xor):
    assert ck.full_event_check(
        "causal-independence", fork, ("X",), ("Y1",), ("Y2",)).passed
    assert ck.full_event_check(
        "causal-independence", xor, (), ("X",), ("Y",)).passed


def test_unknown_predicate_rejected(xor):
    with pytest.raises(ValueError):
        ck.full_event_check("axioms-typo", xor)


def test_oracle_size_guard():
    space = ck.CoordinateSpace.make([(f"V{i}", 2) for i in range(4)])
    big = ck.independent_pinning_space(ck.FiniteMeasure.uniform(space))
    with pytest.raises(ck.InstanceTooLargeError):
        ck.full_event_check("axioms", big)


# ---------------------------------------------------------------------------
# random instances


def test_random_space_is_deterministic():
    a = ck.random_space(12345)
    b = ck.random_space(12345)
    assert ck.causal_spaces_equal(a, b)
    c = ck.random_space(12346)
    assert (a.space != c.space) or not ck.causal_spaces_equal(a, c)


@pytest.mark.parametrize("mode", ["axiom-i", "axiom-ii"])
def test_perturbed_spaces_fail_validation(mode):
    for seed in range(5):
        bad = ck.random_space(seed, perturb=mode)
        report = ck.validate_causal_space(bad)
        assert not report.passed
        assert report.witness is not None


def test_unknown_perturbation_rejected():
    with pytest.raises(ValueError):
        ck.random_space(0, perturb="axiom-iii")


# the shapes the lemma trials draw first-level abstractions in
FIRST_LEVEL_SHAPES = (
    lambda rng: {},
    lambda rng: {"shifted": True},
    lambda rng: {"n_factors": rng.randint(2, 3)},
    lambda rng: {"n_factors": rng.randint(1, 2), "edge_factor": True},
)


def assert_checked_transformation(t, label):
    axioms = ck.validate_causal_space(t.target)
    assert axioms.passed, (label, axioms.render())
    report = ck.check_all(t)
    assert report.passed, (label, report.render())


def test_second_level_abstractions_are_checked_transformations():
    # both levels build their pushforwards without a report; only the
    # pushforward-uniqueness trial checks a first-level target, and the
    # composition trial only checks the composite
    for seed in range(40):
        for shape, kwargs in enumerate(FIRST_LEVEL_SHAPES):
            rng = Random(seed)
            first = _random_abstraction(rng, **kwargs(rng))
            assert_checked_transformation(first.t, (seed, shape))
            if max(first.source.space.n_outcomes,
                   first.target.space.n_outcomes) <= MAX_ORACLE_OUTCOMES:
                for predicate in ("distributional", "interventional"):
                    agree = ck.full_event_check(predicate, first.t)
                    assert agree.passed, (seed, shape, agree.render())
        rng = Random(seed)
        second = _random_abstraction_on(rng, _random_abstraction(rng))
        assert_checked_transformation(second, seed)


# ---------------------------------------------------------------------------
# pinned corpus


def test_pinned_oracle_corpus_agrees_everywhere():
    results = ck.pinned_oracle_corpus()
    assert len(results) == 25
    for name, report in results:
        assert report.passed, f"{name}: {report.render()}"


def test_pinned_corpus_names_are_unique():
    names = [name for name, _ in ck.pinned_oracle_corpus()]
    assert len(set(names)) == len(names)


# ---------------------------------------------------------------------------
# lemma suites


def test_lemma_ids_are_fixed():
    assert ck.LEMMA_IDS == (
        "active-reflected",
        "composition",
        "intervention-commutes",
        "noeffect-preserved",
        "product-effects",
        "product-validity",
        "pushforward-uniqueness",
        "rigidity",
        "scm-inclusion",
        "sources-preserved",
    )


@pytest.mark.parametrize("lemma_id", ck.LEMMA_IDS)
def test_lemma_suites_pass_briefly(lemma_id):
    report = ck.lemma_suite(lemma_id, trials=5, seed=0)
    assert report.passed, report.render()
    assert report.check == f"lemma:{lemma_id}"
    assert "5 trials" in report.details[0]


def test_broken_construction_is_a_failed_trial(monkeypatch, capsys):
    # a pushforward whose base measure disagrees with its empty kernel comes
    # back as a failed trial carrying its seed, not as an exception
    build = oracle._pushforward

    def broken(source, table, rho, target_space):
        t = build(source, table, rho, target_space)
        moved = target_space.n_outcomes - 1 if t.target.P.weights[0] == 1 else 0
        bad = ck.FiniteCausalSpace.tabulated(
            target_space, ck.FiniteMeasure.dirac(target_space, moved),
            {s: t.target.kernel(s) for s in t.target.subsets()})
        return ck.Transformation(source=source, target=bad, rho=rho,
                                 outcome_map=t.outcome_map)

    monkeypatch.setattr(oracle, "_pushforward", broken)
    report = ck.lemma_suite("pushforward-uniqueness", trials=3)
    assert not report.passed
    assert report.details == ("3 trials, 0 covered and passed, 0 not covered, 3 failed",)
    for failure in report.subreports:
        assert failure.details == ("constructed pushforward is not a causal transformation",)
        assert failure.witness.message.startswith("empty-subset kernel gives")
    assert cli.main(["lemma", "pushforward-uniqueness", "--trials", "3"]) == 1
    assert "seed 2]" in capsys.readouterr().out


def test_lemma_suite_reproducible():
    a = ck.lemma_suite("composition", trials=8, seed=3)
    b = ck.lemma_suite("composition", trials=8, seed=3)
    assert a.to_dict() == b.to_dict()


def test_lemma_suite_seed_changes_trials():
    a = ck.lemma_suite("product-validity", trials=4, seed=0)
    b = ck.lemma_suite("product-validity", trials=4, seed=99)
    # both pass; the reports agree except possibly in coverage counts
    assert a.passed and b.passed


def test_unknown_lemma_id_rejected():
    with pytest.raises(ValueError):
        ck.lemma_suite("no-such-lemma")


def test_trial_count_must_not_be_negative():
    with pytest.raises(ValueError, match="trials must be at least 0, got -3"):
        ck.lemma_suite("composition", trials=-3)
    report = ck.lemma_suite("composition", trials=0)
    assert report.passed and not report.subreports
    assert report.details == ("0 trials, 0 covered and passed, 0 not covered, 0 failed",)
