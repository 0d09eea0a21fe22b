"""Tests of the benchmark itself: runs complete, checkers reject, counts repeat.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import causalkit as ck  # noqa: E402
import causalkit.cli  # noqa: E402,F401

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_short_run_completes_with_every_end_to_end_metric(workload):
    result = bench(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = [{k: v["value"] for k, v in run["metrics"].items() if v["unit"] == "count"}
              for run in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert first["correct"] and second["correct"]
    assert first["metrics"]["trace.overhead"]["value"] > 0


def test_lemma_checker_rejects_wrong_verdicts():
    report = ck.lemma_suite("product-validity", trials=1, seed=3)
    check = workloads.check_lemma_report
    assert check("product-validity", report) is None
    assert check("product-validity", dataclasses.replace(report, passed=False))
    assert check("rigidity", report)
    two = ck.lemma_suite("product-validity", trials=2, seed=3)
    assert check("product-validity", two)


@pytest.fixture(scope="module")
def scm_round(tmp_path_factory):
    wl = workloads.ScmQueries()
    inputs = wl.generate(5, ck, tmp_path_factory.mktemp("scm"))
    return next(wl.rounds(inputs, ck))


def test_scm_checker_rejects_wrong_verdicts(scm_round):
    seen = set()
    for op in scm_round:
        if op.kind in seen:
            continue
        seen.add(op.kind)
        code, text = op.run()
        assert op.check((code, text)) is None, op.label
        report = json.loads(text)
        flipped = dict(report, passed=not report["passed"])
        assert op.check((code, json.dumps(flipped))), op.label
        assert op.check((1 - code, text)), op.label
        assert op.check((code, json.dumps(dict(report, extra=1)))), op.label
        if report["check"] == "effect-classification":
            tag = report["details"][0]
            other = ("classification: active" if tag.endswith("no-effect")
                     else "classification: no-effect")
            wrong = dict(report, details=[other] + report["details"][1:])
            assert op.check((code, json.dumps(wrong))), op.label
    assert seen == {"validate", "classify", "source", "independence"}


def test_scm_expectations_come_from_own_enumeration():
    model = workloads.ScmModel.draw(Random(1), (2, 2), (2, 2))
    assert model.active("A0", "A1") and model.dependent("A0", "A1")
    assert not model.active("A1", "A0")
    assert not model.dependent("A0", "B1")
    assert model.descendants("A0") == {"A1"}
    assert sum(model.law({}).values()) == 1


def test_gaussian_checker_rejects_wrong_verdicts():
    wl = workloads.GaussianScale()
    inputs = wl.generate(2, ck, Path("."))
    rescaled, perturbed = next(wl.rounds(inputs, ck))[:2]
    good, bad = rescaled.run(), perturbed.run()
    assert rescaled.check(good) is None and perturbed.check(bad) is None
    assert rescaled.check(bad) and perturbed.check(good)
    assert perturbed.check(dataclasses.replace(bad, subreports=()))


def test_exact_forward_substitution_separates_rescaling_from_twin():
    case = workloads.draw_gauss_case(Random(4), 5)
    src = workloads.exact_cov(*case.source)
    pushed = [[case.scales[i] * src[i][j] * case.scales[j] for j in range(5)]
              for i in range(5)]
    tol = workloads.GAUSS_TOL
    assert workloads.worst_gap(pushed, workloads.exact_cov(*case.rescaled)) < tol / 1000
    assert workloads.worst_gap(pushed, workloads.exact_cov(*case.perturbed)) > tol * 1000
