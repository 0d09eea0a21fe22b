"""Command-line interface: golden outputs, exit codes, file round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import causalkit as ck
from causalkit import cli, examples
from conftest import field_paths, replaced

F = Fraction

CORPUS_STEMS = (
    "collider",
    "composition-abstraction",
    "composition-counterexample",
    "composition-inclusion",
    "faithfulness-full",
    "faithfulness-independent",
    "fork",
    "gaussian-abstraction",
    "inclusion",
    "mediator-confounder",
    "parity",
    "xor",
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_for(path):
    kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
    return "check-transform" if kind == "transformation" else "validate"


@pytest.fixture(scope="module")
def schema():
    import importlib.resources as resources
    text = (resources.files("causalkit") / "report_schema.json").read_text(
        encoding="utf-8")
    return json.loads(text)


# ---------------------------------------------------------------------------
# shipped corpus


def test_corpus_is_complete(corpus_dir):
    stems = sorted(p.stem for p in corpus_dir.glob("*.json")
                   if not p.name.endswith(".report.json"))
    assert tuple(stems) == CORPUS_STEMS
    for stem in stems:
        assert (corpus_dir / f"{stem}.report.json").exists()


@pytest.mark.parametrize("stem", CORPUS_STEMS)
def test_corpus_artifacts_round_trip_byte_identically(corpus_dir, stem):
    path = corpus_dir / f"{stem}.json"
    text = path.read_text(encoding="utf-8")
    assert ck.dumps(ck.loads(text)) == text


@pytest.mark.parametrize("stem", CORPUS_STEMS)
def test_corpus_golden_reports_reproduce(corpus_dir, capsys, stem):
    path = corpus_dir / f"{stem}.json"
    golden = (corpus_dir / f"{stem}.report.json").read_text(encoding="utf-8")
    code, out, _ = run(capsys, command_for(path), str(path), "--json")
    assert out == golden
    assert code == (0 if json.loads(golden)["passed"] else 1)


def test_only_the_counterexample_fails(corpus_dir):
    verdicts = {
        stem: json.loads(
            (corpus_dir / f"{stem}.report.json").read_text(encoding="utf-8")
        )["passed"]
        for stem in CORPUS_STEMS
    }
    assert [s for s, ok in verdicts.items() if not ok] == [
        "composition-counterexample"]


@pytest.mark.parametrize("stem", CORPUS_STEMS)
def test_json_reports_match_schema(corpus_dir, schema, stem):
    report = json.loads(
        (corpus_dir / f"{stem}.report.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, schema)


def test_human_readable_output_mentions_verdict(corpus_dir, capsys):
    code, out, _ = run(capsys, "validate", str(corpus_dir / "xor.json"))
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(
        capsys, "check-transform",
        str(corpus_dir / "composition-counterexample.json"))
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# exit codes


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error:")


def test_malformed_document_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}', encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


def test_invalid_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2


# 200,000 levels: past the JSON parser's recursion limit
DEEP = "[" * 200_000 + "]" * 200_000
# a cardinality past the interpreter's 4300-digit integer conversion limit
LONG = ('{"kind": "finite-measure", "coordinates": [{"name": "X", "cardinality": 1'
        + "0" * 4999 + '}], "weights": ["1"]}')


def one_error_line(err: str, prefix: str) -> bool:
    return err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text", [DEEP, LONG], ids=["deep", "long"])
def test_over_deep_or_over_long_document_exits_2(capsys, tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert one_error_line(err, "error: invalid JSON: ")


@pytest.mark.parametrize("text", [DEEP, LONG], ids=["deep", "long"])
def test_over_deep_or_over_long_map_file_exits_2(capsys, tmp_path, corpus_dir, text):
    map_path = tmp_path / "map.json"
    map_path.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "abstract", str(corpus_dir / "parity.json"),
        "--map", str(map_path), "--rho", "{}", "--out", str(tmp_path / "t.json"))
    assert (code, out) == (2, "")
    assert one_error_line(err, f"error: {map_path}: invalid JSON: ")
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("text", [DEEP, '{"Y": 1' + "0" * 4999 + "}"],
                         ids=["deep", "long"])
def test_over_deep_or_over_long_event_exits_2(capsys, corpus_dir, text):
    code, out, err = run(capsys, "classify", str(corpus_dir / "parity.json"),
                         "--on", "X", "--event", text)
    assert (code, out) == (2, "")
    assert one_error_line(err, "error: --event: invalid JSON: ")


def test_undecodable_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "\xff"}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert one_error_line(err, f"error: cannot read {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("field, value", [("coefficients", float("inf")),
                                          ("noise_variances", float("nan"))])
def test_non_finite_gaussian_numbers_exit_2(capsys, tmp_path, field, value):
    doc = json.loads(ck.dumps(examples.abstraction_gaussian_pair()[0]))
    if field == "coefficients":
        doc[field][2][0] = value
    else:
        doc[field][1] = value
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # writes Infinity / NaN
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: ") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_outcome_cap_variable_exits_2(capsys, corpus_dir, monkeypatch, value):
    monkeypatch.setenv("CAUSALKIT_MAX_OUTCOMES", value)
    code, out, err = run(capsys, "validate", str(corpus_dir / "xor.json"))
    assert (code, out) == (2, "")
    assert err == f"error: CAUSALKIT_MAX_OUTCOMES={value!r} is not a positive integer\n"


def gaussian_document(tmp_path, corpus_dir, edit) -> str:
    """The corpus Gaussian abstraction, edited, written to a file."""
    doc = json.loads((corpus_dir / "gaussian-abstraction.json").read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_overflowing_gaussian_model_exits_2(capsys, tmp_path):
    # finite entries whose law overflows: named as such, with no numpy warning
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "kind": "gaussian-scm", "coordinates": ["A", "B"],
        "coefficients": [[0.0, 0.0], [1e200, 0.0]], "noise_variances": [1e10, 1.0]}),
        encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: observational law overflows: its mean or covariance is not finite\n"


def test_unknown_gaussian_rho_key_exits_2(capsys, tmp_path, corpus_dir):
    path = gaussian_document(tmp_path, corpus_dir, lambda d: d["rho"].update(Bogus="X"))
    code, out, err = run(capsys, "check-transform", path)
    assert (code, out) == (2, "")
    assert err == "error: rho defined on unknown coordinates ['Bogus']\n"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["map"].__setitem__("cov", [[1.0, 0.5], [0.0, 1.0]]),
     "kernel covariance is not symmetric"),
    (lambda d: d["map"].__setitem__("cov", [[1.0, 0.0], [0.0, -1.0]]),
     "kernel covariance is not positive semi-definite"),
    (lambda d: d["rho"].__setitem__("X1", "Q"), "unknown coordinate 'Q'"),
], ids=["asymmetric-cov", "negative-cov", "unknown-rho-target"])
def test_validate_rejects_the_gaussian_maps_check_transform_rejects(
        capsys, tmp_path, corpus_dir, edit, message):
    # a Gaussian transformation is checked where it is built, so by both commands
    path = gaussian_document(tmp_path, corpus_dir, edit)
    for command in ("validate", "check-transform"):
        assert run(capsys, command, path) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("model, cells", [
    ("source", ((2, 0), (2, 1))),  # Y1 = 1e200 X1 + 1e200 X2 + N
    ("target", ((1, 0),)),  # Y = 1e200 X + N
])
def test_validate_computes_both_endpoint_laws_as_check_transform_does(
        capsys, tmp_path, corpus_dir, model, cells):
    # every entry is finite, so the document loads; one endpoint's law is not
    def edit(doc):
        for i, j in cells:
            doc[model]["coefficients"][i][j] = 1e200

    path = gaussian_document(tmp_path, corpus_dir, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("validate", "check-transform"):
            assert run(capsys, command, path) == (
                2, "", "error: observational law overflows: its mean or covariance is "
                       "not finite\n")


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_bad_tolerance_exits_2(capsys, tmp_path, corpus_dir, tol):
    # a failing transformation: no tolerance may turn it into a pass
    path = gaussian_document(tmp_path, corpus_dir,
                             lambda d: d["map"]["matrix"][0].__setitem__(0, 2.0))
    assert run(capsys, "check-transform", path)[0] == 1
    assert run(capsys, "check-transform", path, "--tol", "0")[0] == 1
    # the finite corpus inclusion passes, and takes the flag by the same rule
    for doc in (path, str(corpus_dir / "inclusion.json")):
        code, out, err = run(capsys, "check-transform", doc, "--tol", tol)
        assert (code, out) == (2, "")
        assert err == (f"error: tolerance must be finite and at least 0, "
                       f"got {float(tol)}\n")


def test_axiom_violation_exits_1(capsys, tmp_path, xor):
    doc = json.loads(ck.dumps(xor.materialize()))
    # move mass across the X-atom boundary in the X kernel
    doc["kernels"]["X"][0] = ["0", "0", "1/4", "3/4"]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 1
    assert not json.loads(out)["passed"]


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_check_transform_rejects_non_transformations(capsys, corpus_dir):
    code, _, err = run(capsys, "check-transform", str(corpus_dir / "xor.json"))
    assert code == 2
    assert "expected a transformation" in err


# ---------------------------------------------------------------------------
# constructions that write files


def test_intervene_writes_a_valid_pinned_space(capsys, tmp_path, corpus_dir):
    measure = ck.FiniteMeasure.dirac(ck.CoordinateSpace.make([("X", 2)]), 1)
    measure_path = tmp_path / "dirac.json"
    ck.dump(measure, measure_path)
    out_path = tmp_path / "intervened.json"
    code, out, _ = run(
        capsys, "intervene", str(corpus_dir / "xor.json"),
        "--on", "X", "--measure", str(measure_path),
        "--out", str(out_path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["check"] == "intervention"
    done = ck.load(out_path)
    y1 = ck.Event.cylinder(done.space, {"Y": 1})
    assert done.P.mass(y1) == F(3, 4)
    assert ck.validate_causal_space(done).passed


def test_intervene_accepts_an_explicit_mechanism(capsys, tmp_path, corpus_dir):
    pinned = ck.CoordinateSpace.make([("X", 2)])
    measure = ck.FiniteMeasure.dirac(pinned, 1)
    mechanism = ck.independent_pinning_space(measure)
    measure_path = tmp_path / "dirac.json"
    mech_path = tmp_path / "mech.json"
    out_path = tmp_path / "done.json"
    ck.dump(measure, measure_path)
    ck.dump(mechanism.materialize(), mech_path)
    code, _, _ = run(
        capsys, "intervene", str(corpus_dir / "xor.json"),
        "--on", "X", "--measure", str(measure_path),
        "--mechanism", str(mech_path), "--out", str(out_path))
    assert code == 0
    assert ck.validate_causal_space(ck.load(out_path)).passed


def test_intervene_rejects_mismatched_measure(capsys, tmp_path, corpus_dir):
    measure = ck.FiniteMeasure.dirac(ck.CoordinateSpace.make([("Q", 2)]), 1)
    measure_path = tmp_path / "dirac.json"
    ck.dump(measure, measure_path)
    code, _, err = run(
        capsys, "intervene", str(corpus_dir / "xor.json"),
        "--on", "X", "--measure", str(measure_path),
        "--out", str(tmp_path / "out.json"))
    assert code == 2


def test_product_writes_the_joint_space(capsys, tmp_path, corpus_dir, coin):
    coin_path = tmp_path / "coin.json"
    ck.dump(coin.materialize(), coin_path)
    out_path = tmp_path / "product.json"
    code, out, _ = run(
        capsys, "product", str(coin_path), str(corpus_dir / "xor.json"),
        "--out", str(out_path), "--json")
    assert code == 0
    joint = ck.load(out_path)
    assert joint.space.names == ("C", "X", "Y")
    assert ck.validate_causal_space(joint).passed


def test_product_rejects_name_collisions(capsys, tmp_path, corpus_dir):
    code, _, err = run(
        capsys, "product", str(corpus_dir / "xor.json"),
        str(corpus_dir / "xor.json"), "--out", str(tmp_path / "p.json"))
    assert code == 2


def test_abstract_writes_a_checked_transformation(capsys, tmp_path, corpus_dir):
    # collapse the parity system (X, Z, Y) onto (S, Y) with S = X xor Z
    source = ck.load(corpus_dir / "parity.json")
    space = ck.compile_scm(source).space
    table = [[o[0] ^ o[1], o[2]] for o in space.outcomes()]
    map_doc = {
        "target": [{"name": "S", "cardinality": 2},
                   {"name": "Y", "cardinality": 2}],
        "table": table,
    }
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(map_doc), encoding="utf-8")
    out_path = tmp_path / "merge.json"
    code, out, _ = run(
        capsys, "abstract", str(corpus_dir / "parity.json"),
        "--map", str(map_path),
        "--rho", '{"X": "S", "Z": "S", "Y": "Y"}',
        "--out", str(out_path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]

    def names(r):
        return [r["check"], [names(sub) for sub in r["subreports"]]]

    # the constructed space is validated and the pair checked, every sub-check kept
    assert names(report) == [
        "pushforward", [["causal-space-axioms", []],
                        ["causal-transformation", [["admissible", []],
                                                   ["distributional", []],
                                                   ["interventional", []]]]]]
    t = ck.load(out_path)
    assert isinstance(t, ck.Transformation)
    assert ck.check_all(t).passed


def test_abstract_rejects_bad_map_files(capsys, tmp_path, corpus_dir):
    map_path = tmp_path / "map.json"
    map_path.write_text('{"target": []}', encoding="utf-8")
    code, _, err = run(
        capsys, "abstract", str(corpus_dir / "parity.json"),
        "--map", str(map_path), "--rho", "{}",
        "--out", str(tmp_path / "t.json"))
    assert code == 2

    map_path.write_text(json.dumps({
        "target": [{"name": "S", "cardinality": 2}],
        "table": [[0]] * 8,
    }), encoding="utf-8")
    for rho in ('["X"]', '{"X": ["S"], "Y": "S", "Z": "S"}'):
        code, _, err = run(
            capsys, "abstract", str(corpus_dir / "parity.json"),
            "--map", str(map_path), "--rho", rho,
            "--out", str(tmp_path / "t.json"))
        assert code == 2
        assert "--rho" in err
        assert "Traceback" not in err


def test_compose_reproduces_the_shipped_counterexample(
        capsys, tmp_path, corpus_dir):
    out_path = tmp_path / "composite.json"
    code, out, _ = run(
        capsys, "compose",
        str(corpus_dir / "composition-inclusion.json"),
        str(corpus_dir / "composition-abstraction.json"),
        "--out", str(out_path), "--json")
    assert code == 1
    assert not json.loads(out)["passed"]
    written = out_path.read_text(encoding="utf-8")
    shipped = (corpus_dir / "composition-counterexample.json").read_text(
        encoding="utf-8")
    assert written == shipped


def test_compose_without_out_flag_only_reports(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "compose",
        str(corpus_dir / "composition-inclusion.json"),
        str(corpus_dir / "composition-abstraction.json"))
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# queries


def test_classify_reports_an_active_effect(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "classify", str(corpus_dir / "xor.json"),
        "--on", "X", "--event", '{"Y": 1}', "--json")
    assert code == 0
    report = json.loads(out)
    assert "classification: active" in report["details"]
    assert report["witness"] is not None


def test_classify_reports_a_dormant_effect(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "classify", str(corpus_dir / "parity.json"),
        "--on", "X", "--event", '{"Y": 1}', "--json")
    assert code == 0
    assert "classification: dormant" in json.loads(out)["details"]


def test_classify_accepts_target_coordinates(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "classify", str(corpus_dir / "xor.json"),
        "--on", "X", "--target", "Y", "--json")
    assert code == 0
    assert "classification: active" in json.loads(out)["details"]


def test_classify_requires_exactly_one_subject(capsys, corpus_dir):
    code, _, err = run(capsys, "classify", str(corpus_dir / "xor.json"),
                       "--on", "X")
    assert code == 2
    code, _, err = run(capsys, "classify", str(corpus_dir / "xor.json"),
                       "--on", "X", "--event", '{"Y": 1}', "--target", "Y")
    assert code == 2


def test_classify_rejects_unknown_coordinates(capsys, corpus_dir):
    code, _, err = run(capsys, "classify", str(corpus_dir / "xor.json"),
                       "--on", "Q", "--event", '{"Y": 1}')
    assert code == 2
    assert "unknown coordinates" in err


def test_source_verdicts(capsys, corpus_dir):
    code, out, _ = run(capsys, "source", str(corpus_dir / "xor.json"),
                       "--on", "X", "--target", "Y", "--json")
    assert code == 0 and json.loads(out)["passed"]
    code, out, _ = run(capsys, "source", str(corpus_dir / "xor.json"),
                       "--on", "Y", "--target", "X", "--json")
    assert code == 1 and not json.loads(out)["passed"]


def test_independence_accepts_coordinate_subsets(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "independence", str(corpus_dir / "fork.json"),
        "--on", "X", "--first", "Y1", "--second", "Y2", "--json")
    assert code == 0
    assert json.loads(out)["passed"]


def test_independence_accepts_event_specs(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "independence", str(corpus_dir / "fork.json"),
        "--on", "X", "--first", '{"Y1": 1}', "--second", '{"Y2": 1}', "--json")
    assert code == 0
    assert json.loads(out)["passed"]


def test_independence_failure_names_the_offending_atom(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "independence", str(corpus_dir / "xor.json"),
        "--first", '{"X": 1}', "--second", '{"Y": 1}', "--json")
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert report["witness"]["message"] == (
        "at (): K gives 3/8 on the intersection but 1/2 * 1/2 on the factors")


def test_independence_note_holds_above_16_atoms(capsys, tmp_path):
    # two 3-valued chains A0 -> A1 and B0 -> B1: 9 + 9 = 18 atoms, and the
    # atom pairs still settle every union pair
    pairs = [("A0", 3), ("A1", 3), ("B0", 3), ("B1", 3)]
    third, half = (F(1, 3),) * 3, (F(1, 2),) * 2
    step = tuple((p + n) % 3 for p in range(3) for n in range(2))
    scm = ck.FiniteSCM.build(
        pairs, {"A0": (), "A1": ("A0",), "B0": (), "B1": ("B0",)},
        {"A0": third, "A1": half, "B0": third, "B1": half},
        {"A0": (0, 1, 2), "A1": step, "B0": (0, 1, 2), "B1": step})
    path = tmp_path / "chains.json"
    ck.dump(scm, path)
    code, out, _ = run(capsys, "independence", str(path),
                       "--first", "A0,A1", "--second", "B0,B1", "--json")
    assert code == 0
    assert json.loads(out)["details"] == [
        "all union pairs of the two atom families checked"]


def test_independence_rejects_mixed_argument_forms(capsys, corpus_dir):
    code, _, err = run(
        capsys, "independence", str(corpus_dir / "fork.json"),
        "--on", "X", "--first", '{"Y1": 1}', "--second", "Y2")
    assert code == 2
    assert "both" in err


# ---------------------------------------------------------------------------
# lemma suites


def test_lemma_list_prints_every_id(capsys):
    code, out, _ = run(capsys, "lemma", "--list")
    assert code == 0
    assert out.splitlines() == list(ck.LEMMA_IDS)


def test_lemma_run_passes(capsys):
    code, out, _ = run(capsys, "lemma", "composition",
                       "--trials", "3", "--seed", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "lemma:composition"
    assert "3 trials" in report["details"][0]


def test_lemma_rejects_unknown_ids(capsys):
    code, _, err = run(capsys, "lemma", "never-heard-of-it")
    assert code == 2
    assert "unknown lemma" in err
    code, _, err = run(capsys, "lemma")
    assert code == 2


def test_lemma_rejects_negative_trial_counts(capsys):
    code, out, err = run(capsys, "lemma", "composition", "--trials", "-3")
    assert (code, out) == (2, "")
    assert err == "error: --trials must be at least 0, got -3\n"
    code, out, _ = run(capsys, "lemma", "composition", "--trials", "0", "--json")
    assert code == 0
    assert json.loads(out)["details"] == [
        "0 trials, 0 covered and passed, 0 not covered, 0 failed"]


# ---------------------------------------------------------------------------
# report schema


def test_emitted_json_validates_against_the_schema(
        capsys, corpus_dir, schema, tmp_path):
    for argv in (
        ["validate", str(corpus_dir / "xor.json")],
        ["check-transform", str(corpus_dir / "composition-counterexample.json")],
        ["classify", str(corpus_dir / "parity.json"),
         "--on", "X", "--event", '{"Y": 1}'],
        ["source", str(corpus_dir / "xor.json"), "--on", "Y", "--target", "X"],
        ["lemma", "rigidity", "--trials", "2"],
    ):
        code, out, _ = run(capsys, *argv, "--json")
        jsonschema.validate(json.loads(out), schema)


def test_validate_describes_gaussian_models(capsys, tmp_path):
    path = tmp_path / "gauss.json"
    ck.dump(examples.abstraction_gaussian_pair()[0], path)
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "gaussian-model"
    assert any("observational mean" in d for d in report["details"])


def test_validate_checks_both_endpoints_of_a_finite_transformation(capsys, tmp_path):
    # finite-scm endpoints are compiled and read lazily; tabulated, they give
    # the same report; a target X kernel that breaks axiom (ii) fails it
    scm_doc = ck.document(examples.xor_scm())
    lazy = {"kind": "transformation", "source": scm_doc, "target": scm_doc,
            "rho": {"X": "X", "Y": "Y"},
            "map": {"type": "deterministic", "table": [[0, 0], [0, 1], [1, 0], [1, 1]]}}
    tabulated = json.loads(ck.dumps(ck.load_document(lazy)))
    tampered = json.loads(json.dumps(tabulated))
    tampered["target"]["kernels"]["X"][0] = ["0", "0", "1/4", "3/4"]
    results = []
    for i, doc in enumerate((lazy, tabulated, tampered)):
        path = tmp_path / f"t{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        results.append(run(capsys, "validate", str(path)))
    passing = ("[PASS] transformation-endpoints\n"
               "  [PASS] causal-space-axioms\n  [PASS] causal-space-axioms\n")
    assert results[0] == results[1] == (0, passing, "")
    code, out, _ = results[2]
    assert code == 1
    assert out.startswith("[FAIL] transformation-endpoints\n")
    assert "  [PASS] causal-space-axioms\n  [FAIL] causal-space-axioms\n" in out


def test_affine_gaussian_transformation_round_trips_and_checks(capsys, tmp_path):
    # an offset and a noise covariance on Y, which the target's noise means
    # and variances absorb: X = 1 + N(0, 2), Y = 3 X - 5 + N(0, 6)
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    shifted = ck.LinearGaussianSCM(target.coords, target.coefficients, [2.0, 6.0], [1.0, -5.0])
    t = ck.GaussianTransform(source=source, target=shifted, rho=rho, matrix=matrix,
                             offset=[1.0, -2.0], cov=np.diag([0.0, 1.0]))
    text = ck.dumps(t)
    doc = json.loads(text)
    assert doc["map"]["offset"] == [1.0, -2.0]
    assert doc["map"]["cov"] == [[0.0, 0.0], [0.0, 1.0]]
    loaded = ck.loads(text)
    assert ck.dumps(loaded) == text
    assert loaded.offset.tolist() == [1.0, -2.0]
    assert loaded.cov.tolist() == [[0.0, 0.0], [0.0, 1.0]]
    path = tmp_path / "affine.json"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "check-transform", str(path))
    assert (code, out) == (0, t.check().render() + "\n")
    assert out.startswith("[PASS] causal-transformation\n")
    # without either one the pushed law misses the target's
    for key in ("offset", "cov"):
        part = json.loads(text)
        del part["map"][key]
        path.write_text(json.dumps(part), encoding="utf-8")
        code, out, _ = run(capsys, "check-transform", str(path), "--json")
        assert code == 1
        assert [r["passed"] for r in json.loads(out)["subreports"]][:2] == [True, False]


def test_validate_describes_measures(capsys, tmp_path, xor):
    path = tmp_path / "measure.json"
    ck.dump(xor.P, path)
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 0
    assert json.loads(out)["check"] == "finite-measure"


# ---------------------------------------------------------------------------
# one process, many commands

ONE_PROCESS_COMMANDS = (
    ("validate", "xor.json"),
    ("classify", "xor.json", "--target", "Y"),
    ("classify", "parity.json", "--on", "X", "--event", '{"Y": 1}'),
    ("classify", "parity.json", "--event", '{"Y": 1}'),
    ("source", "xor.json", "--on", "Y", "--target", "X"),
    ("independence", "xor.json", "--first", '{"X": 1}', "--second", '{"Y": 1}'),
    ("independence", "fork.json", "--on", "X", "--first", "Y1", "--second", "Y2"),
)


def test_commands_in_one_process_match_first_calls(capsys, monkeypatch, corpus_dir):
    # the parser is built once per process; a command after others, such as
    # classify without --on (its default=[]) after one with it, prints what
    # the same command prints as the first call of a fresh interpreter
    argvs = [[command, str(corpus_dir / name), *rest, "--json"]
             for command, name, *rest in ONE_PROCESS_COMMANDS]
    src = str(Path(ck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    first_calls = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "causalkit.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        first_calls.append((proc.returncode, proc.stdout))
    assert [code for code, _ in first_calls] == [0, 0, 0, 0, 1, 1, 0]

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for _ in range(2):
        for argv, want in zip(argvs, first_calls):
            code, out, _ = run(capsys, *argv)
            assert (code, out) == want, argv
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# CLI fuzz: mutated Gaussian documents through cli.main

GAUSSIAN_TRANSFORM = json.loads(
    (files("causalkit") / "corpus" / "gaussian-abstraction.json").read_text(encoding="utf-8"))
GAUSSIAN_DOCUMENTS = {
    "transform": GAUSSIAN_TRANSFORM,
    "source": GAUSSIAN_TRANSFORM["source"],
    "target": GAUSSIAN_TRANSFORM["target"],
}

# numbers that reach the model and the check: ordinary, boundary and
# overflowing values, besides any JSON value at all
fuzz_numbers = (st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, -1.0, 1e-12, 1e154, -1e154, 1e200, 1e308])
                | st.integers(-3, 3))
fuzz_values = fuzz_numbers | st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


@given(data=st.data(), stem=st.sampled_from(sorted(GAUSSIAN_DOCUMENTS)),
       command=st.sampled_from(["validate", "check-transform"]),
       tol=st.sampled_from([None, "0", "1e-9", "10", "nan"]))
@settings(max_examples=150)
def test_mutated_gaussian_documents_exit_0_1_or_2(tmp_path_factory, data, stem, command, tol):
    doc = GAUSSIAN_DOCUMENTS[stem]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        path = data.draw(st.sampled_from(list(field_paths(doc))[1:]), label="path")
        doc = replaced(doc, path, data.draw(fuzz_values, label="value"))
    file = tmp_path_factory.mktemp("fuzz") / "doc.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, str(file), "--json"]
    if tol is not None and command == "check-transform":
        argv += ["--tol", tol]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        # exit 1 only with a failing report, exit 0 only with a passing one
        assert json.loads(out.getvalue())["passed"] is (code == 0)
