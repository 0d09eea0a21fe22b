"""Shared fixtures and hypothesis strategies for the test-suite."""

import copy
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import causalkit as ck
from causalkit import examples

settings.register_profile(
    "causalkit",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("causalkit")


# ---------------------------------------------------------------------------
# strategies


def coordinate_spaces(max_coords: int = 3, max_card: int = 3) -> st.SearchStrategy:
    """Small named coordinate spaces with |Omega| <= max_card ** max_coords."""

    def build(cards):
        return ck.CoordinateSpace.make(
            [(f"V{i}", c) for i, c in enumerate(cards)])

    return st.lists(
        st.integers(min_value=2, max_value=max_card),
        min_size=1, max_size=max_coords,
    ).map(build)


@st.composite
def measures(draw, space=None, max_coords: int = 3):
    """Exact-rational probability measures, arbitrary support."""
    if space is None:
        space = draw(coordinate_spaces(max_coords=max_coords))
    raw = draw(st.lists(st.integers(min_value=0, max_value=6),
                        min_size=space.n_outcomes, max_size=space.n_outcomes)
               .filter(lambda ws: any(ws)))
    total = sum(raw)
    return ck.FiniteMeasure(space, tuple(Fraction(w, total) for w in raw))


@st.composite
def kernels(draw, domain=None, codomain=None):
    """Exact-rational stochastic kernels between small spaces."""
    if domain is None:
        domain = draw(coordinate_spaces(max_coords=2))
    if codomain is None:
        codomain = draw(coordinate_spaces(max_coords=2))
    rows = tuple(draw(measures(space=codomain))
                 for _ in range(domain.n_outcomes))
    return ck.StochKernel(domain, codomain, rows)


@st.composite
def events(draw, space):
    idx = draw(st.lists(st.integers(min_value=0, max_value=space.n_outcomes - 1),
                        unique=True))
    return ck.Event.from_indices(space, idx)


def causal_spaces() -> st.SearchStrategy:
    """Valid causal spaces through the deterministic random generator."""
    return st.integers(min_value=0, max_value=10 ** 6).map(ck.random_space)


def chain_scm(n=4):
    """V0 -> V1 -> ... binary chain with skewed noises."""
    names = [f"V{i}" for i in range(n)]
    return ck.FiniteSCM.build(
        variables=[(v, 2) for v in names],
        parents={v: (names[i - 1],) if i else () for i, v in enumerate(names)},
        noises={v: (Fraction(1, i + 3), Fraction(i + 2, i + 3)) for i, v in enumerate(names)},
        mechanisms={v: (0, 1, 1, 0) if i else (0, 1) for i, v in enumerate(names)})


def tampered_pinning_space(space, moves):
    """Uniform pinning space with some kernel mass moved between outcomes.

    ``moves`` maps a subset to (row, from-values, to-values) triples.
    """
    full = ck.independent_pinning_space(ck.FiniteMeasure.uniform(space)).materialize()
    table = {s: full.kernel(s) for s in full.subsets()}
    for subset, triples in moves.items():
        k = table[subset]
        rows = list(k.rows)
        for row, src, dst in triples:
            w = list(rows[row].weights)
            w[space.index(dst)] += w[space.index(src)]
            w[space.index(src)] = Fraction(0)
            rows[row] = ck.FiniteMeasure(space, tuple(w))
        table[subset] = ck.StochKernel(k.domain, space, tuple(rows))
    return ck.FiniteCausalSpace.tabulated(space, full.P, table)


def law_models(seed, shifted=False):
    """A compiled ``_random_scm`` model on A0, A1, ... and a compiled binary
    chain on V0, V1, V2: spaces whose kernels reuse laws, on disjoint names."""
    from random import Random

    from causalkit.oracle import _random_scm

    return (ck.compile_scm(_random_scm(Random(seed), "A", shifted=shifted)),
            ck.compile_scm(chain_scm(3)))


def assert_row_built_twin(k, rows):
    """``k`` equals and hashes as the kernel built from ``rows``, one per
    atom, and reads them as its rows."""
    built = ck.StochKernel(k.domain, k.codomain, tuple(rows))
    assert k == built and built == k and hash(k) == hash(built)
    assert tuple(k.rows) == built.rows


def field_paths(value, prefix=()):
    """Key path of a JSON document itself and of every value nested in it."""
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from field_paths(inner, prefix + (key,))


def replaced(doc, path, value):
    """A copy of a JSON document with the value at a key path replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def xor():
    return ck.compile_scm(examples.xor_scm())


@pytest.fixture(scope="session")
def parity():
    return ck.compile_scm(examples.parity_scm())


@pytest.fixture(scope="session")
def fork():
    return ck.compile_scm(examples.fork_scm())


@pytest.fixture(scope="session")
def collider():
    return ck.compile_scm(examples.collider_scm())


@pytest.fixture(scope="session")
def coin():
    return examples.coin_space()


@pytest.fixture(scope="session")
def corpus_dir():
    from importlib.resources import files

    return files("causalkit") / "corpus"
