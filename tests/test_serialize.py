"""JSON document layer: canonical form, round trips, strict validation."""

import json
from fractions import Fraction
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, strategies as st

import causalkit as ck
from causalkit import examples
from conftest import field_paths, replaced

F = Fraction


def finite_artifacts():
    xor = ck.compile_scm(examples.xor_scm()).materialize()
    return {
        "space": xor,
        "measure": xor.P,
        "scm": examples.parity_scm(),
        "gaussian": examples.abstraction_gaussian_pair()[0],
        "transformation-kernel": ck.inclusion_transform(
            examples.xor_scm(), ("X",)),
        "gaussian-transform": ck.GaussianTransform(
            source=examples.abstraction_gaussian_pair()[0],
            target=examples.abstraction_gaussian_pair()[1],
            rho=examples.abstraction_gaussian_pair()[3],
            matrix=examples.abstraction_gaussian_pair()[2],
        ),
    }


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("name", sorted(finite_artifacts()))
def test_dump_load_round_trip_is_byte_stable(name):
    obj = finite_artifacts()[name]
    text = ck.dumps(obj)
    again = ck.dumps(ck.loads(text))
    assert again == text


def test_space_round_trip_preserves_all_kernels(xor):
    loaded = ck.loads(ck.dumps(xor.materialize()))
    assert ck.causal_spaces_equal(loaded, xor)


def test_scm_round_trip_compiles_identically():
    scm = examples.mediator_confounder_scm()
    loaded = ck.loads(ck.dumps(scm))
    assert ck.causal_spaces_equal(ck.compile_scm(loaded), ck.compile_scm(scm))


def test_gaussian_round_trip_preserves_parameters():
    scm = ck.LinearGaussianSCM(
        coords=("A", "B"),
        coefficients=np.array([[0.0, 0.0], [2.5, 0.0]]),
        noise_variances=np.array([1.0, 0.25]),
        noise_means=np.array([0.5, 0.0]),
    )
    loaded = ck.loads(ck.dumps(scm))
    assert loaded.coords == scm.coords
    assert np.array_equal(loaded.coefficients, scm.coefficients)
    assert np.array_equal(loaded.noise_variances, scm.noise_variances)
    assert np.array_equal(loaded.noise_means, scm.noise_means)


def test_zero_noise_means_are_omitted():
    doc = ck.document(examples.abstraction_gaussian_pair()[0])
    assert "noise_means" not in doc


def test_deterministic_transformation_round_trip(parity):
    target_space = ck.CoordinateSpace.make([("S", 2), ("Y", 2)])
    rho = ck.IndexMap(source=("X", "Z", "Y"), target=("S", "Y"),
                      mapping={"X": "S", "Z": "S", "Y": "Y"})
    outcome_map = tuple(
        target_space.index((o[0] ^ o[1], o[2]))
        for o in parity.space.outcomes())
    pf = ck.pushforward_space(parity, outcome_map, rho, target_space)
    t = pf.transformation
    text = ck.dumps(t)
    loaded = ck.loads(text)
    assert loaded.outcome_map == t.outcome_map
    assert loaded.rho.mapping == t.rho.mapping
    assert ck.dumps(loaded) == text
    assert ck.check_all(loaded).passed


def test_rationals_are_reduced_on_dump():
    doc = {
        "kind": "finite-measure",
        "coordinates": [{"name": "X", "cardinality": 2}],
        "weights": ["2/4", "50/100"],
    }
    loaded = ck.load_document(doc)
    assert loaded.weights == (F(1, 2), F(1, 2))
    assert json.loads(ck.dumps(loaded))["weights"] == ["1/2", "1/2"]


def test_transformation_with_scm_endpoints_is_canonicalized():
    # loads accepts nested finite-scm endpoints but dumps nested finite-space
    doc = {
        "kind": "transformation",
        "source": ck.document(examples.xor_scm()),
        "target": ck.document(examples.xor_scm()),
        "rho": {"X": "X", "Y": "Y"},
        "map": {"type": "deterministic",
                "table": [[0, 0], [0, 1], [1, 0], [1, 1]]},
    }
    t = ck.load_document(doc)
    assert isinstance(t, ck.Transformation)
    redumped = json.loads(ck.dumps(t))
    assert redumped["source"]["kind"] == "finite-space"
    assert redumped["target"]["kind"] == "finite-space"
    # and the canonical form is then byte-stable
    assert ck.dumps(ck.loads(ck.dumps(t))) == ck.dumps(t)


# ---------------------------------------------------------------------------
# rational strings


@pytest.mark.parametrize("text,value", [
    ("3/8", F(3, 8)),
    ("1", F(1)),
    ("0", F(0)),
    ("12/4", F(3)),
])
def test_parse_rational_accepts(text, value):
    assert ck.parse_rational(text, "test") == value


@pytest.mark.parametrize("text", [
    "0.5", "1/0", "1/-2", "a/b", "", "1/2/3", "1 / 2", 0.5, 1, None, "+1",
])
def test_parse_rational_rejects(text):
    with pytest.raises(ck.SpecError):
        ck.parse_rational(text, "test")


# ---------------------------------------------------------------------------
# event specs


def test_parse_event_spec(xor):
    sp = xor.space
    ev = ck.parse_event_spec(sp, {"X": 1})
    assert sorted(ev.indices()) == [sp.index((1, 0)), sp.index((1, 1))]
    both = ck.parse_event_spec(sp, {"X": 1, "Y": [0, 1]})
    assert sorted(both.indices()) == [sp.index((1, 0)), sp.index((1, 1))]
    point = ck.parse_event_spec(sp, {"X": 0, "Y": 0})
    assert sorted(point.indices()) == [sp.index((0, 0))]
    assert ck.parse_event_spec(sp, {}).size == 4


def test_parse_event_spec_rejects_bad_input(xor):
    sp = xor.space
    with pytest.raises(ck.SpecError):
        ck.parse_event_spec(sp, {"Q": 1})
    with pytest.raises(ck.SpecError):
        ck.parse_event_spec(sp, {"X": 2})
    with pytest.raises(ck.SpecError):
        ck.parse_event_spec(sp, {"X": True})
    with pytest.raises(ck.SpecError):
        ck.parse_event_spec(sp, {"X": "1"})


# ---------------------------------------------------------------------------
# strict field validation


UNHASHABLE = ([], {}, [[1]], {"a": 1})


def test_unknown_kind_rejected():
    with pytest.raises(ck.SpecError):
        ck.load_document({"kind": "mystery"})
    for kind in UNHASHABLE:
        with pytest.raises(ck.SpecError, match="^unknown kind"):
            ck.load_document({"kind": kind})
    with pytest.raises(ck.SpecError):
        ck.load_document([1, 2, 3])


def test_invalid_json_rejected():
    with pytest.raises(ck.SpecError):
        ck.loads("{not json")


@pytest.mark.parametrize("name", sorted(finite_artifacts()))
def test_unknown_fields_rejected_for_every_kind(name):
    doc = json.loads(ck.dumps(finite_artifacts()[name]))
    doc["surprise"] = 1
    with pytest.raises(ck.SpecError) as err:
        ck.load_document(doc)
    assert "surprise" in str(err.value)


@pytest.mark.parametrize("name", sorted(finite_artifacts()))
def test_missing_fields_rejected_for_every_kind(name):
    doc = json.loads(ck.dumps(finite_artifacts()[name]))
    victim = next(k for k in sorted(doc) if k != "kind")
    del doc[victim]
    with pytest.raises(ck.SpecError):
        ck.load_document(doc)


def test_space_kernel_table_must_be_complete(xor):
    doc = json.loads(ck.dumps(xor.materialize()))
    del doc["kernels"]["X"]
    with pytest.raises(ck.SpecError) as err:
        ck.load_document(doc)
    assert "missing kernel" in str(err.value)


def test_space_unknown_kernel_keys_rejected(xor):
    doc = json.loads(ck.dumps(xor.materialize()))
    doc["kernels"]["Z"] = doc["kernels"]["X"]
    with pytest.raises(ck.SpecError) as err:
        ck.load_document(doc)
    assert "unknown kernel keys" in str(err.value)


def test_space_row_count_checked(xor):
    doc = json.loads(ck.dumps(xor.materialize()))
    doc["kernels"]["X"] = doc["kernels"]["X"][:1]
    with pytest.raises(ck.SpecError):
        ck.load_document(doc)


def test_space_loading_rejects_invalid_kernels(xor):
    # a syntactically valid document whose kernel violates row stochasticity
    doc = json.loads(ck.dumps(xor.materialize()))
    doc["kernels"]["X"][0] = ["1", "1", "0", "0"]
    with pytest.raises(ck.SpaceError):
        ck.load_document(doc)


def test_scm_sections_must_cover_variables():
    doc = json.loads(ck.dumps(examples.xor_scm()))
    del doc["parents"]["Y"]
    with pytest.raises(ck.SpecError):
        ck.load_document(doc)
    doc = json.loads(ck.dumps(examples.xor_scm()))
    doc["noises"]["Z"] = ["1"]
    with pytest.raises(ck.SpecError):
        ck.load_document(doc)
    for parent in UNHASHABLE:
        doc = json.loads(ck.dumps(examples.xor_scm()))
        doc["parents"]["Y"] = ["X", parent]
        with pytest.raises(ck.SpecError,
                           match="^finite-scm: parents of 'Y' must list known variables$"):
            ck.load_document(doc)


def test_gaussian_shape_validation():
    doc = json.loads(ck.dumps(examples.abstraction_gaussian_pair()[0]))
    doc["coefficients"] = doc["coefficients"][:2]
    with pytest.raises(ck.SpecError):
        ck.load_document(doc)


def test_transformation_cannot_mix_scales():
    finite = ck.document(examples.xor_scm())
    gauss = ck.document(examples.abstraction_gaussian_pair()[0])
    doc = {
        "kind": "transformation",
        "source": gauss,
        "target": finite,
        "rho": {},
        "map": {"type": "matrix", "matrix": [[1.0]]},
    }
    with pytest.raises(ck.SpecError) as err:
        ck.load_document(doc)
    assert "cannot be mixed" in str(err.value)


def test_transformation_table_entries_validated(xor):
    base = {
        "kind": "transformation",
        "source": ck.document(xor.materialize()),
        "target": ck.document(xor.materialize()),
        "rho": {"X": "X", "Y": "Y"},
    }
    bad_value = dict(base, map={"type": "deterministic",
                                "table": [[0, 0], [0, 1], [1, 0], [1, 9]]})
    with pytest.raises(ck.SpecError):
        ck.load_document(bad_value)
    bad_arity = dict(base, map={"type": "deterministic",
                                "table": [[0], [1], [0], [1]]})
    with pytest.raises(ck.SpecError):
        ck.load_document(bad_arity)
    bad_type = dict(base, map={"type": "mystery", "table": []})
    with pytest.raises(ck.SpecError):
        ck.load_document(bad_type)


def test_gaussian_transform_validates_shapes():
    # the kernel's rule, then IndexMap's: a shape fault comes before a rho fault
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    with pytest.raises(ck.SpaceError,
                       match=r"^matrix must have shape \(2, 4\), got \(2, 2\)$"):
        ck.GaussianTransform(source=source, target=target, rho={"X1": "X"},
                             matrix=matrix[:, :2])
    with pytest.raises(ck.SpaceError, match=r"^rho undefined on \['X2', 'Y1', 'Y2'\]$"):
        ck.GaussianTransform(source=source, target=target, rho={"X1": "X"},
                             matrix=matrix)
    with pytest.raises(ck.SpaceError,
                       match=r"^cov must have shape \(2, 2\), got \(3, 3\)$"):
        ck.GaussianTransform(source=source, target=target, rho=rho,
                             matrix=matrix, cov=np.zeros((3, 3)))


def test_gaussian_transform_check_passes():
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    t = ck.GaussianTransform(source=source, target=target, rho=rho,
                             matrix=matrix)
    report = t.check()
    assert report.passed, report.render()


def test_load_missing_file_raises_spec_error(tmp_path):
    with pytest.raises(ck.SpecError):
        ck.load(tmp_path / "nope.json")


def test_dump_and_load_files(tmp_path, xor):
    path = tmp_path / "xor.json"
    ck.dump(xor.materialize(), path)
    assert ck.causal_spaces_equal(ck.load(path), xor)


# ---------------------------------------------------------------------------
# loader fuzz: any JSON value anywhere in a shipped document

CORPUS = {p.name[:-len(".json")]: json.loads(p.read_text(encoding="utf-8"))
          for p in sorted(files("causalkit").joinpath("corpus").iterdir())
          if p.name.endswith(".json") and not p.name.endswith(".report.json")}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def loads_or_rejects(load, arg) -> None:
    try:
        load(arg)
    except ck.CausalKitError:
        pass


@pytest.mark.parametrize("stem", sorted(CORPUS))
@given(data=st.data())
def test_any_value_at_any_field_loads_or_raises_a_package_error(stem, data):
    doc = CORPUS[stem]
    path = data.draw(st.sampled_from(list(field_paths(doc))), label="path")
    loads_or_rejects(ck.load_document, replaced(doc, path, data.draw(json_values)))


@pytest.mark.parametrize("stem", sorted(CORPUS))
@given(data=st.data())
def test_truncated_text_loads_or_raises_a_package_error(stem, data):
    text = json.dumps(CORPUS[stem], indent=2)
    loads_or_rejects(ck.loads, text[:data.draw(st.integers(0, len(text)))])
