"""Linear-Gaussian layer: laws, kernels, conditioning, transformation checks.

Expected moments are derived by hand from the structural equations and
frozen here; a seeded Monte-Carlo oracle double-checks the observational
law of the standing four-variable example.
"""

import copy
import dataclasses
import json
import pickle
import warnings
from importlib.resources import files

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import causalkit as ck
from causalkit import examples

TOL = 1e-9


def lower_triangular_scms():
    """Random small strictly-lower-triangular SCMs."""

    @st.composite
    def build(draw):
        d = draw(st.integers(min_value=1, max_value=4))
        coords = tuple(f"V{i}" for i in range(d))
        b = np.zeros((d, d))
        for i in range(d):
            for j in range(i):
                b[i, j] = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
        variances = np.array([draw(st.sampled_from([0.5, 1.0, 2.0]))
                              for _ in range(d)])
        means = np.array([draw(st.sampled_from([-1.0, 0.0, 1.0]))
                          for _ in range(d)])
        return ck.LinearGaussianSCM(coords=coords, coefficients=b,
                                    noise_variances=variances,
                                    noise_means=means)

    return build()


# ---------------------------------------------------------------------------
# laws and kernels


def test_observational_law_of_abstraction_source():
    source, _, matrix, _ = examples.abstraction_gaussian_pair()
    law = ck.observational_law(source)
    assert law.coords == ("X1", "X2", "Y1", "Y2")
    expected_cov = np.array([
        [1.0, 0.0, 3.0, 0.0],
        [0.0, 1.0, 1.0, 1.0],
        [3.0, 1.0, 11.0, 1.0],
        [0.0, 1.0, 1.0, 2.0],
    ])
    assert np.allclose(law.mean, 0.0, atol=TOL)
    assert np.allclose(law.cov, expected_cov, atol=TOL)
    pushed = ck.linear_pushforward(law, matrix, ("X", "Y"))
    assert np.allclose(pushed.cov, [[2.0, 6.0], [6.0, 23.0]], atol=TOL)


def test_observational_law_matches_monte_carlo():
    source, _, _, _ = examples.abstraction_gaussian_pair()
    law = ck.observational_law(source)
    rng = np.random.default_rng(20240817)
    n = 1_000_000
    noise = rng.standard_normal((n, 4))
    x1 = noise[:, 0]
    x2 = noise[:, 1]
    y1 = 3 * x1 + x2 + noise[:, 2]
    y2 = x2 + noise[:, 3]
    samples = np.stack([x1, x2, y1, y2], axis=1)
    mean = samples.mean(axis=0)
    cov = np.cov(samples.T)
    for i in range(4):
        se = np.sqrt(law.cov[i, i] / n)
        assert abs(mean[i] - law.mean[i]) < 3 * se
    for i in range(4):
        for j in range(4):
            se = np.sqrt((law.cov[i, i] * law.cov[j, j]
                          + law.cov[i, j] ** 2) / n)
            assert abs(cov[i, j] - law.cov[i, j]) < 3 * se


def test_noise_means_propagate():
    scm = ck.LinearGaussianSCM(
        coords=("A", "B"),
        coefficients=np.array([[0.0, 0.0], [2.0, 0.0]]),
        noise_variances=np.array([1.0, 1.0]),
        noise_means=np.array([1.0, 3.0]),
    )
    law = ck.observational_law(scm)
    assert np.allclose(law.mean, [1.0, 5.0], atol=TOL)
    assert np.allclose(law.cov, [[1.0, 2.0], [2.0, 5.0]], atol=TOL)


def test_interventional_kernel_pins_and_reruns():
    source, _, _, _ = examples.abstraction_gaussian_pair()
    k = ck.interventional_kernel(source, ("X1", "X2"))
    assert k.inputs == ("X1", "X2")
    assert k.outputs == ("X1", "X2", "Y1", "Y2")
    assert np.allclose(k.matrix, [[1, 0], [0, 1], [3, 1], [0, 1]], atol=TOL)
    assert np.allclose(k.cov, np.diag([0.0, 0.0, 1.0, 1.0]), atol=TOL)
    at = k.at(np.array([1.0, -1.0]))
    assert np.allclose(at.mean, [1.0, -1.0, 2.0, -1.0], atol=TOL)


def test_empty_subset_kernel_is_observational_law():
    source, _, _, _ = examples.abstraction_gaussian_pair()
    k = ck.interventional_kernel(source, ())
    law = ck.observational_law(source)
    assert k.inputs == ()
    assert np.allclose(k.offset, law.mean, atol=TOL)
    assert np.allclose(k.cov, law.cov, atol=TOL)


@given(lower_triangular_scms())
@settings(max_examples=25)
def test_empty_kernel_equals_law_for_random_scms(scm):
    k = ck.interventional_kernel(scm, ())
    law = ck.observational_law(scm)
    assert np.allclose(k.offset, law.mean, atol=1e-8)
    assert np.allclose(k.cov, law.cov, atol=1e-8)


def test_gaussian_fork_outputs_conditionally_uncorrelated():
    fork = ck.LinearGaussianSCM(
        coords=("X", "Y1", "Y2"),
        coefficients=np.array([
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]),
        noise_variances=np.array([1.0, 1.0, 1.0]),
    )
    k = ck.interventional_kernel(fork, ("X",))
    y = [fork.index("Y1"), fork.index("Y2")]
    assert np.allclose(k.cov[np.ix_(y, y)], np.eye(2), atol=TOL)
    assert np.allclose(k.matrix[y, :], [[1.0], [1.0]], atol=TOL)
    # observationally the two outputs are correlated through X
    law = ck.observational_law(fork)
    assert law.cov[y[0], y[1]] == pytest.approx(1.0)


def test_chain_variance_accumulates():
    chain = ck.LinearGaussianSCM(
        coords=("X", "M", "Y"),
        coefficients=np.array([
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]),
        noise_variances=np.array([1.0, 1.0, 1.0]),
    )
    law = ck.observational_law(chain)
    assert law.cov[2, 2] == pytest.approx(3.0, abs=TOL)
    # pinning M cuts X off from Y
    k = ck.interventional_kernel(chain, ("M",))
    assert k.cov[2, 2] == pytest.approx(1.0, abs=TOL)
    assert np.allclose(k.matrix[2], [1.0], atol=TOL)


# ---------------------------------------------------------------------------
# conditioning


def test_conditional_kernel_known_values():
    _, full, _ = examples.composition_gaussian_spaces()
    law = ck.observational_law(full)
    k = ck.conditional_kernel(law, ("X1", "Y"))
    # X2 | X1 = x1, Y = y is N((y - x1) / 2, 1/2)
    assert k.inputs == ("X1", "Y")
    assert k.outputs == ("X1", "X2", "Y")
    assert np.allclose(k.matrix, [[1.0, 0.0], [-0.5, 0.5], [0.0, 1.0]], atol=TOL)
    assert np.allclose(k.cov, np.diag([0.0, 0.5, 0.0]), atol=TOL)


def test_conditional_on_nothing_returns_the_law():
    _, full, _ = examples.composition_gaussian_spaces()
    law = ck.observational_law(full)
    k = ck.conditional_kernel(law, ())
    assert np.allclose(k.offset, law.mean, atol=TOL)
    assert np.allclose(k.cov, law.cov, atol=TOL)


def test_conditional_of_independent_pair_is_marginal():
    law = ck.GaussianLaw(("A", "B"), np.zeros(2), np.diag([2.0, 5.0]))
    k = ck.conditional_kernel(law, ("A",))
    assert np.allclose(k.matrix, [[1.0], [0.0]], atol=TOL)
    assert np.allclose(k.cov, np.diag([0.0, 5.0]), atol=TOL)


def test_singular_conditioning_rejected():
    cov = np.array([
        [1.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])  # B copies A exactly
    law = ck.GaussianLaw(("A", "B", "C"), np.zeros(3), cov)
    with pytest.raises(ck.SingularConditioningError):
        ck.conditional_kernel(law, ("A", "B"))
    # conditioning on the nondegenerate coordinate alone is fine
    k = ck.conditional_kernel(law, ("A",))
    assert np.allclose(k.matrix[1], [1.0], atol=TOL)


# ---------------------------------------------------------------------------
# affine kernel algebra


def test_compose_affine_chains_means_and_covariances():
    k1 = ck.AffineGaussianKernel(
        inputs=("A",), outputs=("B",),
        matrix=[[2.0]], offset=[1.0], cov=[[1.0]])
    k2 = ck.AffineGaussianKernel(
        inputs=("B",), outputs=("C",),
        matrix=[[3.0]], offset=[-1.0], cov=[[4.0]])
    k = ck.compose_affine(k1, k2)
    assert np.allclose(k.matrix, [[6.0]], atol=TOL)
    assert np.allclose(k.offset, [2.0], atol=TOL)
    assert np.allclose(k.cov, [[13.0]], atol=TOL)  # 3^2 * 1 + 4


def test_compose_affine_selects_inputs_by_name():
    k1 = ck.AffineGaussianKernel(
        inputs=("A",), outputs=("B", "Cq"),
        matrix=[[1.0], [2.0]], offset=[0.0, 0.0],
        cov=[[1.0, 0.0], [0.0, 1.0]])
    k2 = ck.AffineGaussianKernel(
        inputs=("Cq",), outputs=("D",),
        matrix=[[1.0]], offset=[0.0], cov=[[0.0]])
    k = ck.compose_affine(k1, k2)
    assert np.allclose(k.matrix, [[2.0]], atol=TOL)
    # k1 needs input "A", not an output of k2
    with pytest.raises(ck.SpaceError, match="^composition inputs missing from outputs: "
                                            "unknown coordinate 'A'$"):
        ck.compose_affine(k2, k1)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25)
def test_compose_affine_associative(seed):
    rng = np.random.default_rng(seed)

    def rand_kernel(ins, outs):
        di, do = len(ins), len(outs)
        m = rng.standard_normal((do, di))
        root = rng.standard_normal((do, do))
        return ck.AffineGaussianKernel(
            inputs=ins, outputs=outs, matrix=m,
            offset=rng.standard_normal(do), cov=root @ root.T)

    a = rand_kernel(("A1", "A2"), ("B1", "B2"))
    b = rand_kernel(("B1", "B2"), ("C1", "C2"))
    c = rand_kernel(("C1", "C2"), ("D1",))
    lhs = ck.compose_affine(ck.compose_affine(a, b), c)
    rhs = ck.compose_affine(a, ck.compose_affine(b, c))
    assert lhs.agrees_with(rhs, tol=1e-8)


def test_linear_pushforward_of_kernel():
    source, _, matrix, _ = examples.abstraction_gaussian_pair()
    k = ck.interventional_kernel(source, ("X1", "X2"))
    pushed = ck.linear_pushforward(k, matrix, ("X", "Y"))
    assert pushed.inputs == ("X1", "X2")
    assert np.allclose(pushed.matrix, [[1.0, 1.0], [3.0, 3.0]], atol=TOL)
    assert np.allclose(pushed.cov, [[0.0, 0.0], [0.0, 5.0]], atol=TOL)


# ---------------------------------------------------------------------------
# transformation checks


def test_abstraction_pair_passes_all_checks():
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    report = ck.check_linear_transform(source, target, matrix, rho)
    assert report.passed, report.render()


def test_pushed_kernels_match_target_kernels():
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    # K_{X1,X2} pushed through F equals delta_{x1+x2} tensor N(3x1+3x2, 5)
    kx = ck.linear_pushforward(
        ck.interventional_kernel(source, ("X1", "X2")), matrix, ("X", "Y"))
    assert np.allclose(kx.matrix, [[1.0, 1.0], [3.0, 3.0]], atol=TOL)
    assert np.allclose(kx.cov, [[0.0, 0.0], [0.0, 5.0]], atol=TOL)
    # target-side K_X at x = x1 + x2 gives the same law
    tx = ck.interventional_kernel(target, ("X",))
    assert np.allclose(tx.matrix, [[1.0], [3.0]], atol=TOL)
    assert np.allclose(tx.cov, [[0.0, 0.0], [0.0, 5.0]], atol=TOL)

    # K_{Y1,Y2} pushed through F equals L_Y read through y = y1 + 2 y2
    ky = ck.linear_pushforward(
        ck.interventional_kernel(source, ("Y1", "Y2")), matrix, ("X", "Y"))
    assert np.allclose(ky.matrix, [[0.0, 0.0], [1.0, 2.0]], atol=TOL)
    assert np.allclose(ky.cov, [[2.0, 0.0], [0.0, 0.0]], atol=TOL)
    ly = ck.interventional_kernel(target, ("Y",))
    assert np.allclose(ly.matrix, [[0.0], [1.0]], atol=TOL)
    assert np.allclose(ly.cov, [[2.0, 0.0], [0.0, 0.0]], atol=TOL)
    input_map = np.array([[1.0, 2.0]])  # y = y1 + 2 y2
    assert np.allclose(ky.matrix, ly.matrix @ input_map, atol=TOL)


@given(lower_triangular_scms())
@settings(max_examples=25)
def test_identity_transform_passes_for_any_scm(scm):
    identity = np.eye(len(scm.coords))
    rho = {n: n for n in scm.coords}
    report = ck.check_linear_transform(scm, scm, identity, rho)
    assert report.passed, report.render()


def test_subsystem_inclusion_passes():
    sub, full, _ = examples.composition_gaussian_spaces()
    law = ck.observational_law(full)
    kappa = ck.conditional_kernel(law, ("X1", "Y"))
    assert np.allclose(kappa.matrix, [[1.0, 0.0], [-0.5, 0.5], [0.0, 1.0]],
                       atol=TOL)
    assert np.allclose(kappa.cov, np.diag([0.0, 0.5, 0.0]), atol=TOL)
    rho = {"X1": "X1", "Y": "Y"}
    report = ck.check_affine_transform(sub, full, kappa, rho)
    assert report.passed, report.render()


def test_abstraction_of_full_system_passes():
    _, full, abstracted = examples.composition_gaussian_spaces()
    f = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rho = {"X1": "X", "X2": "X", "Y": "Y"}
    report = ck.check_linear_transform(full, abstracted, f, rho)
    assert report.passed, report.render()


def test_composition_counterexample_fails_at_gaussian_scale():
    sub, full, abstracted = examples.composition_gaussian_spaces()
    law = ck.observational_law(full)
    kappa1 = ck.conditional_kernel(law, ("X1", "Y"))
    f = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    kappa2 = ck.AffineGaussianKernel(
        inputs=("X1", "X2", "Y"), outputs=("X", "Y"),
        matrix=f, offset=np.zeros(2), cov=np.zeros((2, 2)))
    composite = ck.compose_affine(kappa1, kappa2)
    # X = (x1 + y) / 2 + N(0, 1/2): the mean map of X reads Y
    assert np.allclose(composite.matrix, [[0.5, 0.5], [0.0, 1.0]], atol=TOL)
    assert np.allclose(composite.cov, [[0.5, 0.0], [0.0, 0.0]], atol=TOL)

    rho = {"X1": "X", "Y": "Y"}
    report = ck.check_affine_transform(sub, abstracted, composite, rho)
    assert not report.passed
    by_name = {r.check: r for r in report.subreports}
    adm = by_name["admissible"]
    assert not adm.passed
    assert "output coordinate 'X' depends on 'Y'" in adm.witness.message

    inter = by_name["interventional"]
    assert not inter.passed
    failing = {r.check: r for r in inter.subreports}
    sx = failing["interventional S={X}"]
    assert not sx.passed
    assert np.allclose(
        np.array(eval_matrix(sx.witness.message, "source route matrix")),
        [[1.0, 0.0], [1.0, 0.0]], atol=TOL)
    assert np.allclose(
        np.array(eval_matrix(sx.witness.message, "target route matrix")),
        [[0.5, 0.5], [0.5, 0.5]], atol=TOL)


def eval_matrix(message, label):
    """Extract the bracketed matrix following ``label`` in a witness string."""
    import ast

    start = message.index(label) + len(label)
    depth = 0
    begin = message.index("[", start)
    for i in range(begin, len(message)):
        if message[i] == "[":
            depth += 1
        elif message[i] == "]":
            depth -= 1
            if depth == 0:
                return ast.literal_eval(message[begin:i + 1])
    raise ValueError("unbalanced matrix literal")


def test_interventional_routes_compared_in_detail():
    # the numeric routes behind the S={X} failure, checked directly
    sub, full, abstracted = examples.composition_gaussian_spaces()
    law = ck.observational_law(full)
    kappa1 = ck.conditional_kernel(law, ("X1", "Y"))
    f = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    kappa2 = ck.AffineGaussianKernel(
        inputs=("X1", "X2", "Y"), outputs=("X", "Y"),
        matrix=f, offset=np.zeros(2), cov=np.zeros((2, 2)))
    composite = ck.compose_affine(kappa1, kappa2)

    # source route: pin X1 in the subsystem, then map across
    k1 = ck.interventional_kernel(sub, ("X1",))
    lhs = ck.compose_affine(k1, composite)
    assert np.allclose(lhs.matrix, [[1.0], [1.0]], atol=TOL)
    assert np.allclose(lhs.cov, [[1.0, 1.0], [1.0, 2.0]], atol=TOL)
    # target route: map across, then pin X in the abstraction
    k2 = ck.interventional_kernel(abstracted, ("X",))
    rhs = ck.compose_affine(composite, k2)
    assert np.allclose(rhs.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=TOL)
    assert np.allclose(rhs.cov, [[0.5, 0.5], [0.5, 1.5]], atol=TOL)


def test_faithfulness_demo_reports():
    full, sub = ck.faithfulness_demo()
    assert full.passed, full.render()
    assert sub.passed, sub.render()
    schema = json.loads(files("causalkit").joinpath("report_schema.json")
                        .read_text(encoding="utf-8"))
    for report in (full, sub):
        assert type(report.passed) is bool  # not numpy.bool, which json cannot dump
        jsonschema.validate(json.loads(json.dumps(report.to_dict())), schema)
    assert any("Cov(X, Y) = 0" in d for d in full.details)
    # the numbers behind the report
    scm = ck.LinearGaussianSCM(
        coords=("W", "X", "M", "Y"),
        coefficients=np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
        ]),
        noise_variances=np.array([1.0, 0.0, 1.0, 1.0]),
    )
    law = ck.observational_law(scm)
    assert law.cov[1, 3] == pytest.approx(0.0, abs=TOL)
    assert law.cov[3, 3] == pytest.approx(2.0, abs=TOL)
    k = ck.interventional_kernel(scm, ("X",))
    # do(X = x) sends Y to N(-x, 3)
    assert k.matrix[3, 0] == pytest.approx(-1.0, abs=TOL)
    assert k.cov[3, 3] == pytest.approx(3.0, abs=TOL)


def test_transform_shape_validation():
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    with pytest.raises(ck.SpaceError):
        ck.check_linear_transform(source, target, matrix[:, :3], rho)
    with pytest.raises(ck.SpaceError):
        ck.check_linear_transform(source, target, matrix,
                                  {"X1": "X", "X2": "X", "Y1": "Y"})
    with pytest.raises(ck.SpaceError, match="unknown coordinate 'Z'"):
        ck.check_linear_transform(source, target, matrix,
                                  {"X1": "X", "X2": "X", "Y1": "Y", "Y2": "Z"})


def test_scm_validation():
    with pytest.raises(ck.SpaceError):
        ck.LinearGaussianSCM(
            coords=("A", "B"),
            coefficients=np.array([[0.0, 1.0], [0.0, 0.0]]),  # upper entry
            noise_variances=np.array([1.0, 1.0]),
        )
    with pytest.raises(ck.SpaceError):
        ck.LinearGaussianSCM(
            coords=("A", "A"),
            coefficients=np.zeros((2, 2)),
            noise_variances=np.array([1.0, 1.0]),
        )
    with pytest.raises(ck.SpaceError):
        ck.LinearGaussianSCM(
            coords=("A",),
            coefficients=np.zeros((1, 1)),
            noise_variances=np.array([-1.0]),
        )
    for value in (float("nan"), float("inf")):
        with pytest.raises(ck.SpaceError,
                           match="^noise variances must be a finite nonnegative vector$"):
            ck.LinearGaussianSCM(("A", "B"), np.zeros((2, 2)), [1.0, value])
        with pytest.raises(ck.SpaceError, match="^noise means must be a finite vector$"):
            ck.LinearGaussianSCM(("A", "B"), np.zeros((2, 2)), [1.0, 1.0], [value, 0.0])
        # above the diagonal too: not finite comes before not lower triangular
        for at in ((1, 0), (0, 1)):
            b = np.zeros((2, 2))
            b[at] = value
            with pytest.raises(ck.SpaceError, match="^coefficients must be a finite matrix$"):
                ck.LinearGaussianSCM(("A", "B"), b, [1.0, 1.0])


@pytest.mark.parametrize("coefficients, variances, means", [
    ([[0, 0], [1e200, 0]], [1e10, 1.0], None),  # a coefficient times a variance
    ([[0, 0, 0], [1e200, 0, 0], [0, 1e200, 0]], [1.0, 1.0, 1.0], None),  # a chain
    ([[0, 0], [1e200, 0]], [0.0, 0.0], [1e200, 0.0]),  # the mean alone
])
def test_overflowing_law_is_named_as_overflow(coefficients, variances, means):
    # every entry is finite, so the model is accepted; its law is not
    scm = ck.LinearGaussianSCM(("A", "B", "C")[:len(variances)], coefficients, variances, means)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in (lambda: ck.observational_law(scm),
                    lambda: ck.interventional_kernel(scm, ())):
            with pytest.raises(ck.SpaceError, match="^observational law overflows: "
                                                    "its mean or covariance is not finite$"):
                law()
        with pytest.raises(ck.SpaceError, match="^observational law overflows"):
            ck.check_linear_transform(scm, scm, np.eye(len(variances)),
                                      {n: n for n in scm.coords})


def test_overflowing_kernel_is_named_as_overflow():
    chain = ck.LinearGaussianSCM(("A", "B", "C"), [[0, 0, 0], [1e200, 0, 0], [0, 1e200, 0]],
                                 [1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # pinning the root leaves the chain, whose inverse fails; pinning C
        # leaves A -> B, whose variance overflows
        for on in (("A",), ("C",)):
            with pytest.raises(ck.SpaceError, match="^interventional kernel overflows: its "
                                                    "matrix, offset or covariance is not "
                                                    "finite$"):
                ck.interventional_kernel(chain, on)
        # pinning B cuts the chain: C = 1e200 x_B + N_C is finite
        k = ck.interventional_kernel(chain, ("B",))
        assert k.matrix[:, 0].tolist() == [0.0, 1.0, 1e200]
        assert np.diag(k.cov).tolist() == [1.0, 0.0, 1.0]


def test_overflow_in_the_transformation_check_is_named():
    doc = json.loads((files("causalkit") / "corpus" / "gaussian-abstraction.json")
                     .read_text(encoding="utf-8"))
    doc["map"]["matrix"][0][2] = 1e154  # times Var(Y1) = 11 in the pushed law
    big = ck.loads(json.dumps(doc))
    # the target pins X, whose noise has no variance, and sends 1e200 x to Y;
    # the kernel's unit covariance on X then overflows the target route
    pinned = ck.LinearGaussianSCM(("X", "Y"), [[0, 0], [1e200, 0]], [0.0, 1.0])
    unit = ck.AffineGaussianKernel(pinned.coords, pinned.coords, np.eye(2), np.zeros(2),
                                   np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ck.SpaceError, match="^pushed law overflows: "
                                                "its mean or covariance is not finite$"):
            big.check()
        with pytest.raises(ck.SpaceError, match="^interventional routes overflow: a matrix, "
                                                "offset or covariance is not finite$"):
            ck.check_affine_transform(pinned, pinned, unit, {"X": "X", "Y": "Y"})


# 128 is the default; a block of 1000 holds the whole 64-subset lattice
@pytest.mark.parametrize("block", [1, 32, 64, 128, 1000])
def test_a_fault_before_an_overflow_in_one_block_is_raised(monkeypatch, block):
    # the kernel's A-B asymmetry faults the target route at S={A,B}, the
    # eighth subset (as in the stretched-asymmetry test below); Y = 1e154 W
    # + 1e154 X overflows it only from S={W,X}, the seventeenth, on
    monkeypatch.setattr(ck.gaussian, "_BLOCK", block)
    coords = ("A", "B", "Z", "W", "X", "Y")
    b = np.zeros((6, 6))
    b[2, 0], b[5, 3], b[5, 4] = 4.0, 1e154, 1e154
    scm = ck.LinearGaussianSCM(coords, b, np.zeros(6))
    cov = np.diag([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    cov[0, 1] = 0.9 * ck.gaussian.SYMMETRY_TOL
    kernel = ck.AffineGaussianKernel(coords, coords, np.eye(6), np.zeros(6), cov)
    rho = {n: n for n in coords}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ck.SpaceError, match="^kernel covariance is not symmetric$"):
            ck.check_affine_transform(scm, scm, kernel, rho)
        # without the asymmetry the overflow is what is raised
        cov[0, 1] = 0.0
        kernel = ck.AffineGaussianKernel(coords, coords, np.eye(6), np.zeros(6), cov)
        with pytest.raises(ck.SpaceError, match="^interventional routes overflow"):
            ck.check_affine_transform(scm, scm, kernel, rho)


# 128 is the default; a block of 1000 holds the whole 64-subset lattice
@pytest.mark.parametrize("block", [1, 128, 1000])
def test_the_canonical_first_error_is_raised_whatever_the_scan_meets_first(monkeypatch, block):
    # C = 1e154 Y and the kernel's variance 1e10 on Y overflow the target
    # route at S={Y}, the sixth subset, where Y has a parent.  The kernel's
    # A-B asymmetry faults it at S={A,B}, the eighth, which pins only roots:
    # the scan groups it with S={} and meets it first
    monkeypatch.setattr(ck.gaussian, "_BLOCK", block)
    coords = ("A", "B", "Z", "W", "Y", "C")
    b = np.zeros((6, 6))
    b[2, 0], b[4, 3], b[5, 4] = 4.0, 1.0, 1e154
    scm = ck.LinearGaussianSCM(coords, b, np.zeros(6))
    cov = np.diag([0.0, 1.0, 0.0, 0.0, 1e10, 0.0])
    cov[0, 1] = 0.9 * ck.gaussian.SYMMETRY_TOL
    kernel = ck.AffineGaussianKernel(coords, coords, np.eye(6), np.zeros(6), cov)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ck.SpaceError, match="^interventional routes overflow: a matrix, "
                                                "offset or covariance is not finite$"):
            ck.check_affine_transform(scm, scm, kernel, {n: n for n in coords})
        # with the image cut to the roots, S={A,B} is the first subset to fail
        image = {"A": "A", "B": "B", "Z": "A", "W": "W", "Y": "W", "C": "W"}
        with pytest.raises(ck.SpaceError, match="^kernel covariance is not symmetric$"):
            ck.check_affine_transform(scm, scm, kernel, image)


def test_a_kernel_matrix_and_offset_are_finite():
    source, target, matrix, _ = examples.abstraction_gaussian_pair()
    for bad_matrix, offset in ((matrix, [np.inf, 0.0]), (np.where(matrix, np.nan, 0.0), [0, 0])):
        with pytest.raises(ck.SpaceError, match="^kernel matrix and offset must be finite$"):
            ck.AffineGaussianKernel(source.coords, target.coords, bad_matrix, offset,
                                    np.zeros((2, 2)))


def test_large_finite_law_is_not_an_overflow():
    law = ck.observational_law(ck.LinearGaussianSCM(("A", "B"), [[0, 0], [1e154, 0]],
                                                    [1.0, 0.0]))
    assert law.cov[1, 1] == 1e308


@pytest.mark.parametrize("coefficient, variances", [
    (0.0, [9.75e307, 9.75e307]),  # finite diagonals whose sums pass the largest float
    (1e160, [0.0, 1.0]),  # K^2's row norm overflows beside the map's zero covariance
])
def test_rounding_bounds_that_overflow_raise_no_warning(coefficient, variances):
    b = [[0.0, 0.0], [coefficient, 0.0]]
    source = ck.LinearGaussianSCM(("A", "B"), b, variances)
    target = ck.LinearGaussianSCM(("C", "D"), b, variances)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ck.check_linear_transform(source, target, np.eye(2), {"A": "C", "B": "D"})
    assert report.passed


def test_models_laws_and_kernels_keep_read_only_copies_of_their_arrays():
    b, variances, means = np.zeros((2, 2)), np.ones(2), np.zeros(2)
    scm = ck.LinearGaussianSCM(("A", "B"), b, variances, means)
    # sharing the caller's arrays, the law read mean [3, 0] and cov
    # [[29, 5], [5, 1]], from an upper-triangular coefficient the
    # constructor rejects
    b[0, 1], variances[0], means[0] = 5.0, 4.0, 3.0
    law = ck.observational_law(scm)
    assert (law.mean.tolist(), law.cov.tolist()) == ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    mean, cov, matrix, offset = np.zeros(2), np.eye(2), np.eye(2), np.zeros(2)
    law = ck.GaussianLaw(("A", "B"), mean, cov)
    kernel = ck.AffineGaussianKernel(("A", "B"), ("A", "B"), matrix, offset, cov)
    for array in (mean, cov, matrix, offset):
        array[0] = 7.0
    assert (law.mean.tolist(), law.cov.tolist()) == ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    assert (kernel.matrix.tolist(), kernel.offset.tolist(), kernel.cov.tolist()) == (
        [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    for obj, fields in ((scm, ("coefficients", "noise_variances", "noise_means")),
                        (law, ("mean", "cov")), (kernel, ("matrix", "offset", "cov"))):
        for name in fields:
            with pytest.raises(ValueError, match="read-only"):
                getattr(obj, name)[0] = 1.0


def test_a_marginal_is_held_to_its_own_scale():
    # -1e-7 is within PSD_TOL at the scale 1e6 of the whole covariance, not
    # at the scale 1 of B's own
    law = ck.GaussianLaw(("A", "B"), [0.0, 0.0], [[1e6, 0.0], [0.0, -1e-7]])
    assert law.marginal(("A",)).cov.tolist() == [[1e6]]
    with pytest.raises(ck.SpaceError, match="^covariance is not positive semi-definite$"):
        law.marginal(("B",))


def test_a_kernel_law_at_a_point():
    source = examples.abstraction_gaussian_pair()[0]
    kernel = ck.interventional_kernel(source, ("X1",))
    law = kernel.at([2.0])
    assert law.coords == source.coords and np.array_equal(law.cov, kernel.cov)
    assert law.mean.tolist() == (kernel.matrix @ [2.0] + kernel.offset).tolist()
    # the mean's shape is still checked
    with pytest.raises(ck.SpaceError, match=r"^mean must have shape \(4,\)$"):
        kernel.at([[2.0]])


def test_a_mean_is_a_vector():
    with pytest.raises(ck.SpaceError, match=r"^mean must have shape \(2,\)$"):
        ck.GaussianLaw(("A", "B"), [[0.0], [1.0]], np.eye(2))


def test_gaussian_law_marginal():
    law = ck.GaussianLaw(("A", "B", "C"), [1.0, 2.0, 3.0],
                         np.diag([1.0, 4.0, 9.0]))
    m = law.marginal(("C", "A"))
    assert m.coords == ("C", "A")
    assert np.allclose(m.mean, [3.0, 1.0], atol=TOL)
    assert np.allclose(m.cov, np.diag([9.0, 1.0]), atol=TOL)


def test_a_marginal_names_an_unknown_coordinate():
    law = ck.GaussianLaw(("A", "B"), [0.0, 0.0], np.eye(2))
    with pytest.raises(ck.SpaceError, match="^unknown coordinate 'Q'$"):
        law.marginal(["A", "Q"])


def test_conditioning_names_an_unknown_coordinate():
    law = ck.GaussianLaw(("A", "B"), [0.0, 0.0], np.eye(2))
    with pytest.raises(ck.SpaceError, match="^unknown coordinate 'Q'$"):
        ck.conditional_kernel(law, ["Q"])


def test_a_law_rejects_duplicate_coordinates():
    with pytest.raises(ck.SpaceError, match=r"^duplicate coordinate names: \('A', 'A'\)$"):
        ck.GaussianLaw(("A", "A"), [0.0, 0.0], np.eye(2))


@pytest.mark.parametrize("inputs, outputs", [(("A",), ("B", "B")), (("A", "A"), ("B",))],
                         ids=["outputs", "inputs"])
def test_a_kernel_rejects_duplicate_coordinates(inputs, outputs):
    with pytest.raises(ck.SpaceError, match="^duplicate coordinate names: "):
        ck.AffineGaussianKernel(inputs, outputs, np.ones((len(outputs), len(inputs))),
                                np.zeros(len(outputs)), np.eye(len(outputs)))


# ---------------------------------------------------------------------------
# covariance validation and the stacked interventional scan


def _wide_model(seed, d):
    """Half of the coefficients N(0, 3^2): covariance entries up to ~1.5e6."""
    rng = np.random.default_rng(seed)
    b = np.tril(rng.normal(0.0, 3.0, (d, d)), -1) * (rng.random((d, d)) < 0.5)
    return ck.LinearGaussianSCM(tuple(f"V{i}" for i in range(d)), b,
                                rng.uniform(0.5, 2.0, d))


def test_symmetry_tolerance_scales_with_the_covariance():
    # an absolute 1e-12 symmetry test raised on 7 of these 40 models, twice
    # on a covariance built inside the interventional scan
    over_absolute = 0
    for seed in range(20):
        for d in (8, 10):
            scm = _wide_model(seed, d)
            a = np.linalg.inv(np.eye(d) - scm.coefficients)
            cov = a @ np.diag(scm.noise_variances) @ a.T
            over_absolute += np.abs(cov - cov.T).max() > ck.gaussian.SYMMETRY_TOL
            ck.observational_law(scm)
            report = ck.check_linear_transform(scm, scm, np.eye(d),
                                               {n: n for n in scm.coords})
            assert report.passed, report.render()
    assert over_absolute > 0


def _per_subset_routes(source, target, kernel, rho):
    """The two interventional routes of each subset, one public call at a time."""
    image = {rho[n] for n in source.coords}
    img = [i for i, n in enumerate(target.coords) if n in image]
    routes = {}
    for subset in ck.subsets_of(image):
        s2 = tuple(sorted(subset, key=target.index))
        s1 = tuple(n for n in source.coords if rho[n] in subset)
        small = ck.compose_affine(ck.interventional_kernel(source, s1), kernel)
        lhs_matrix = np.zeros((len(target.coords), len(source.coords)))
        for col, n in enumerate(s1):
            lhs_matrix[:, source.index(n)] = small.matrix[:, col]
        rhs = ck.compose_affine(kernel, ck.interventional_kernel(target, s2))
        routes["{" + ",".join(s2) + "}"] = tuple(
            (m[img], o[img], c[np.ix_(img, img)])
            for m, o, c in ((lhs_matrix, small.offset, small.cov),
                            (rhs.matrix, rhs.offset, rhs.cov)))
    return routes


@given(st.integers(0, 10 ** 6), st.sampled_from([0.0, 1e-9, 1e-3, 10.0]))
@settings(max_examples=40, deadline=None)
def test_interventional_scan_agrees_with_per_subset_routes(seed, tol):
    # d_s = d_t + 1 with an image smaller than the target forces a
    # non-injective rho; the kernel carries a full-rank covariance
    rng = np.random.default_rng(seed)
    d2 = int(rng.integers(2, 6))
    d1 = d2 + 1
    src = tuple(f"X{i}" for i in range(d1))
    tgt = tuple(f"Y{i}" for i in range(d2))

    def model(names):
        d = len(names)
        b = np.tril(rng.normal(0.0, 1.0, (d, d)), -1) * (rng.random((d, d)) < 0.6)
        return ck.LinearGaussianSCM(names, b, rng.uniform(0.5, 2.0, d),
                                    rng.normal(0.0, 1.0, d))

    source, target = model(src), model(tgt)
    image = [str(y) for y in rng.choice(tgt, size=int(rng.integers(1, d2)), replace=False)]
    rho = {x: image[i] if i < len(image) else str(rng.choice(image))
           for i, x in enumerate(src)}
    root = rng.normal(0.0, 1.0, (d2, d2))
    kernel = ck.AffineGaussianKernel(src, tgt, rng.normal(0.0, 1.0, (d2, d1)),
                                     rng.normal(0.0, 1.0, d2), root @ root.T)
    report = ck.check_affine_transform(source, target, kernel, rho, tol)
    inter = {r.check: r for r in next(r for r in report.subreports
                                      if r.check == "interventional").subreports}
    routes = _per_subset_routes(source, target, kernel, rho)
    assert list(inter) == [f"interventional S={name}" for name in routes]
    for name, (lhs, rhs) in routes.items():
        sub = inter[f"interventional S={name}"]
        agree = all(np.allclose(a, b, rtol=tol, atol=tol) for a, b in zip(lhs, rhs))
        assert sub.passed is agree
        if not agree:
            halves = sub.witness.message.split(" vs target route ")
            for half, side in zip(halves, (lhs, rhs)):
                for part, want in zip(("matrix", "offset", "cov"), side):
                    got = eval_matrix(half, part)
                    assert np.allclose(got, want, rtol=tol, atol=tol)


def test_invalid_kernel_covariances_raise_space_errors():
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    with pytest.raises(ck.SpaceError, match="^kernel covariance is not symmetric$"):
        ck.AffineGaussianKernel(source.coords, target.coords, matrix, np.zeros(2),
                                [[1.0, 0.5], [0.4, 1.0]])
    # within tolerance on its own, but pinning Y = 2 X in the target
    # doubles the negative direction past it inside the scan
    kernel = ck.AffineGaussianKernel(source.coords, target.coords, matrix, np.zeros(2),
                                     np.diag([-0.9e-10, 0.0]))
    doubled = ck.LinearGaussianSCM(target.coords, [[0.0, 0.0], [2.0, 0.0]],
                                   [1.0, 0.0])
    with pytest.raises(ck.SpaceError,
                       match="^kernel covariance is not positive semi-definite$"):
        ck.check_affine_transform(source, doubled, kernel, rho)


def test_unknown_rho_target_is_reported_before_a_covariance_fault_in_the_scan():
    # the kernel covariance of the previous test fails only inside the scan,
    # at S={X}; rho's targets are checked before any of it
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    kernel = ck.AffineGaussianKernel(source.coords, target.coords, matrix, np.zeros(2),
                                     np.diag([-0.9e-10, 0.0]))
    doubled = ck.LinearGaussianSCM(target.coords, [[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0])
    with pytest.raises(ck.SpaceError, match="^unknown coordinate 'Z'$"):
        ck.check_affine_transform(source, doubled, kernel, dict(rho, Y2="Z"))


def test_rho_keys_must_be_source_coordinates():
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    with pytest.raises(ck.SpaceError,
                       match=r"^rho defined on unknown coordinates \['Bogus'\]$"):
        ck.check_linear_transform(source, target, matrix, dict(rho, Bogus="X"))


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, -1e-12])
def test_tolerance_must_be_finite_and_not_negative(tol):
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    law = ck.observational_law(source)
    kernel = ck.interventional_kernel(source, ("X1",))
    # every Gaussian function that takes a tolerance follows the one rule
    for call in (lambda: ck.check_linear_transform(source, target, matrix, rho, tol),
                 lambda: ck.gaussian.close([0.0], [5.0], tol),
                 lambda: law.agrees_with(law, tol),
                 lambda: kernel.agrees_with(kernel, tol),
                 lambda: ck.conditional_kernel(law, ("X1",), tol),
                 lambda: ck.faithfulness_demo(tol)):
        with pytest.raises(ck.SpaceError,
                           match=f"^tolerance must be finite and at least 0, got {tol}$"):
            call()


def test_differences_past_the_largest_float_give_verdicts_without_warnings():
    # 1e308 - (-1e308) overflows to inf, which is neither symmetric nor close
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ck.SpaceError, match="^covariance is not symmetric$"):
            ck.GaussianLaw(("A", "B"), [0, 0], [[1, 1e308], [-1e308, 1]])
        assert not ck.gaussian.close([1e308], [-1e308])
        assert not ck.gaussian.close([-1e308], [1e308])
        assert ck.gaussian.close([1e308], [1e308])
        # an infinite entry gives inf - inf = NaN, which fails the symmetry test
        assert ck.gaussian._cov_faults(np.array([[1.0, np.inf], [np.inf, 1.0]])) == 1


@pytest.mark.parametrize("cov", [[[1, np.inf], [-np.inf, 1]], [[np.inf, 0], [0, 1]],
                                 [[1, np.nan], [np.nan, 1]]],
                         ids=["opposite-infinities", "infinite-variance", "nan"])
def test_a_covariance_with_a_non_finite_entry_is_not_symmetric(cov):
    # |inf - (-inf)| = inf passes a tolerance scaled by max |C| = inf, so a
    # non-finite entry is marked before the tolerance test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ck.SpaceError, match="^covariance is not symmetric$"):
            ck.GaussianLaw(("A", "B"), [0, 0], cov)
        stack = np.array([cov, [[2.0, 1.0], [1.0, 2.0]]], dtype=float)
        assert ck.gaussian._cov_faults(stack).tolist() == [1, 0]


def test_zero_tolerance_compares_exactly():
    source, target, matrix, rho = examples.abstraction_gaussian_pair()
    assert ck.check_linear_transform(source, target, matrix, rho, 0.0).passed
    moved = matrix.copy()
    moved[1, 3] += 1e-12
    assert ck.check_linear_transform(source, target, moved, rho, 1e-9).passed
    assert not ck.check_linear_transform(source, target, moved, rho, 0.0).passed


def test_empty_source_is_checked_like_any_other():
    # no source coordinate: an empty image, whose one subset is S = {}
    empty = ck.LinearGaussianSCM((), np.zeros((0, 0)), np.zeros(0))
    target = ck.LinearGaussianSCM(("Y",), np.zeros((1, 1)), np.ones(1))
    point = ck.AffineGaussianKernel((), ("Y",), np.zeros((1, 0)), np.zeros(1), np.ones((1, 1)))
    report = ck.check_affine_transform(empty, target, point, {})
    assert report.passed
    assert [r.check for r in report.subreports[2].subreports] == ["interventional S={}"]
    report = ck.check_linear_transform(empty, target, np.zeros((1, 0)), {})
    assert [r.passed for r in report.subreports] == [True, False, True]


def test_rescaling_scan_sends_no_covariance_to_the_eigenvalue_rule(monkeypatch):
    # models shaped like the gaussian-scale benchmark's: half of the
    # coefficients N(0, 1/4) clipped to [-1, 1], the rest zero
    shapes = []
    real = ck.gaussian._cov_faults
    monkeypatch.setattr(ck.gaussian, "_cov_faults",
                        lambda cov: shapes.append(cov.shape) or real(cov))
    for seed in range(4):
        for d in (2, 4, 7, 10):
            rng = np.random.default_rng([seed, d])
            b = np.tril(np.clip(rng.normal(0.0, 0.5, (d, d)), -1.0, 1.0), -1)
            b *= rng.random((d, d)) < 0.5
            names = tuple(f"X{i}" for i in range(d))
            source = ck.LinearGaussianSCM(names, b, rng.uniform(0.5, 2.0, d))
            scale = rng.uniform(0.5, 2.0, d)
            moved = scale[:, None] * b / scale[None, :]
            for passes in (True, False):
                if not passes:
                    moved[-1, 0] += 0.5
                target = ck.LinearGaussianSCM(names, moved, source.noise_variances * scale ** 2)
                shapes.clear()
                report = ck.check_linear_transform(source, target, np.diag(scale),
                                                   {n: n for n in names})
                assert report.passed is passes
                # only the kernel, both laws and the pushed law are eigen-checked
                assert shapes == [(d, d)] * 4


@given(st.integers(0, 10 ** 6), st.floats(0.25, 3.0), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0), st.booleans())
@example(0, 1.5, -1.5, 0.0, False)  # an image slice below PSD_TOL
@example(4, 1.5, -0.8, 0.0, False)  # the target route below PSD_TOL
@example(1, 1.5, 0.0, 1.0, False)  # the target route over SYMMETRY_TOL
@settings(max_examples=150, deadline=None)
def test_certified_covariance_rule_is_the_eigenvalue_rule(seed, spread, lam, skew, linear):
    # every stack the scan validates gets the fault indices of _cov_faults.
    # The kernel covariance has the eigenvalue lam * |PSD_TOL| along a
    # direction inside the image, the others in [0, 1], and up to 3 more on
    # the diagonal outside the image, which may set its scale; then an
    # asymmetry of skew * SYMMETRY_TOL times that scale inside the image.
    # Its image slices, at a smaller scale, and the target route, which
    # can stretch the negative direction, fault in the scan.
    rng = np.random.default_rng(seed)
    d1, d2 = (int(x) for x in rng.integers(1, 9, 2))
    src = tuple(f"X{i}" for i in range(d1))
    tgt = tuple(f"Y{i}" for i in range(d2))

    def model(names):
        d = len(names)
        b = np.tril(rng.normal(0.0, spread, (d, d)), -1) * (rng.random((d, d)) < 0.5)
        return ck.LinearGaussianSCM(names, b, rng.uniform(0.0, 2.0, d) * (rng.random(d) < 0.5))

    source, target = model(src), model(tgt)
    if rng.random() < 0.5:  # pinning then leaves no noise on the target route
        target = ck.LinearGaussianSCM(tgt, target.coefficients, np.zeros(d2))
    # the image in the first half of the target, so later coordinates read it
    rho = {x: str(rng.choice(tgt[:(d2 + 1) // 2])) for x in src}
    at = sorted({tgt.index(y) for y in rho.values()})
    cov = np.zeros((d2, d2))
    if not linear:
        v = np.zeros(d2)
        v[at] = rng.normal(0.0, 1.0, len(at))
        q, _ = np.linalg.qr(np.column_stack([v, rng.normal(0.0, 1.0, (d2, d2 - 1))]))
        eig = np.append(lam * abs(ck.gaussian.PSD_TOL), rng.uniform(0.0, 1.0, d2 - 1))
        cov = q @ np.diag(eig) @ q.T
        outside = np.ones(d2, dtype=bool)
        outside[at] = False
        cov = (cov + cov.T) / 2 + np.diag(outside * rng.uniform(0.0, 3.0, d2))
        if len(at) > 1:
            cov[at[-1], at[0]] += (skew * ck.gaussian.SYMMETRY_TOL
                                   * max(1.0, np.abs(cov).max()))
    matrix = rng.normal(0.0, spread, (d2, d1)) * (rng.random((d2, d1)) < 0.7)
    real = ck.gaussian._certified_faults

    def certified(stack, *bounds):
        faults = real(stack, *bounds)
        assert np.array_equal(faults, ck.gaussian._cov_faults(stack))
        return faults

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ck.gaussian, "_certified_faults", certified)
        try:
            kernel = ck.AffineGaussianKernel(src, tgt, matrix, np.zeros(d2), cov)
            ck.check_affine_transform(source, target, kernel, rho)
        except ck.SpaceError:
            pass


def test_target_route_can_stretch_a_kernel_asymmetry_past_its_tolerance():
    # kappa's covariance is within the symmetry tolerance on its own; pinning
    # A and B in a target where Z = 4 A carries its asymmetry 4-fold into Z's
    # row of the target route, whose scale stays 1, and nowhere else
    pair = ck.LinearGaussianSCM(("A", "B"), np.zeros((2, 2)), [0.0, 0.0])
    target = ck.LinearGaussianSCM(("A", "B", "Z"), [[0, 0, 0], [0, 0, 0], [4.0, 0, 0]],
                                  [0.0, 0.0, 0.0])
    cov = [[0.0, 0.9 * ck.gaussian.SYMMETRY_TOL, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    kernel = ck.AffineGaussianKernel(pair.coords, target.coords, np.eye(3, 2), np.zeros(3), cov)
    with pytest.raises(ck.SpaceError, match="^kernel covariance is not symmetric$"):
        ck.check_affine_transform(pair, target, kernel, {"A": "A", "B": "B"})


# ---------------------------------------------------------------------------
# deferred witness text of the interventional scan


def _perturbed_twin(seed, d):
    """A gaussian-scale shaped model, and its rescaling with one coefficient moved."""
    rng = np.random.default_rng([seed, d])
    b = np.tril(np.clip(rng.normal(0.0, 0.5, (d, d)), -1.0, 1.0), -1)
    b *= rng.random((d, d)) < 0.5
    names = tuple(f"X{i}" for i in range(d))
    source = ck.LinearGaussianSCM(names, b, rng.uniform(0.5, 2.0, d))
    scale = rng.uniform(0.5, 2.0, d)
    moved = scale[:, None] * b / scale[None, :]
    moved[int(rng.integers(1, d)), 0] += 0.5
    target = ck.LinearGaussianSCM(names, moved, source.noise_variances * scale ** 2)
    return source, target, np.diag(scale), {n: n for n in names}


def _interventional(report):
    return next(r for r in report.subreports if r.check == "interventional")


def _failing_witnesses(report):
    return [r.witness for r in _interventional(report).subreports if not r.passed]


def _eager(report):
    """The report with every witness rebuilt by the public constructor."""
    w = report.witness
    return dataclasses.replace(
        report,
        witness=None if w is None else ck.Witness(w.message, w.subset, w.outcome, w.event),
        subreports=tuple(_eager(r) for r in report.subreports))


TWINS = [(seed, d) for seed in range(3) for d in (3, 5, 8)]


@pytest.mark.parametrize("seed, d", TWINS)
def test_deferred_witnesses_behave_as_eager_ones(seed, d):
    twin = _perturbed_twin(seed, d)
    eager_report = _eager(ck.check_linear_transform(*twin))
    eager = _failing_witnesses(eager_report)
    assert eager
    # every operation is tried first on a fresh report, whose witnesses
    # have not been formatted yet
    operations = {
        "==": lambda w: w,
        "hash": hash,
        "repr": repr,
        "to_dict": lambda w: w.to_dict(),
        "replace": dataclasses.replace,
        "replace subset": lambda w: dataclasses.replace(w, subset=("Z",)),
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda w: pickle.loads(pickle.dumps(w)),
    }
    for name, op in operations.items():
        fresh = _failing_witnesses(ck.check_linear_transform(*twin))
        assert all("message" not in vars(w) for w in fresh), name
        made = [op(w) for w in fresh]
        for w, m in zip(fresh, made):
            if isinstance(m, ck.Witness) and m is not w:  # a plain witness, with text
                assert type(m) is ck.Witness, name
                assert set(vars(m)) == {"message", "subset", "outcome", "event"}, name
        assert made == [op(w) for w in eager], name
    # whole reports, again unformatted before each comparison
    assert ck.check_linear_transform(*twin) == eager_report
    assert eager_report == ck.check_linear_transform(*twin)
    assert ck.check_linear_transform(*twin).render() == eager_report.render()
    assert ck.check_linear_transform(*twin).to_dict() == eager_report.to_dict()
    inter = _interventional(ck.check_linear_transform(*twin))
    # the combined report's witness is its first failing subset's, one object
    assert inter.witness is next(r.witness for r in inter.subreports if not r.passed)
    assert inter.witness.message == _interventional(eager_report).witness.message


@pytest.mark.parametrize("view", [
    pytest.param(lambda r: r, id="=="),
    pytest.param(hash, id="hash"),
    pytest.param(repr, id="repr"),
    pytest.param(lambda r: (pickle.dumps(r), pickle.loads(pickle.dumps(r))), id="pickle"),
    pytest.param(lambda r: ([(f.name, getattr(r, f.name)) for f in dataclasses.fields(r)],
                            list(vars(r))), id="fields"),
])
def test_scan_reports_behave_as_constructed_ones(view):
    witness = ck.Witness("at S={A}: routes differ", ("A",))
    made = [(ck.report._report(check, passed, w), ck.CheckReport(check, passed, w))
            for check, passed, w in (("interventional S={}", True, None),
                                     ("interventional S={A}", False, witness))]
    scanned = _interventional(ck.check_linear_transform(*_perturbed_twin(0, 3))).subreports
    made += [(r, ck.CheckReport(r.check, r.passed, r.witness)) for r in scanned]
    assert {r.passed for r, _ in made} == {True, False}
    for fast, plain in made:
        assert type(fast) is ck.CheckReport
        assert view(fast) == view(plain)


def test_scan_formats_nothing_until_read_and_each_message_once(monkeypatch):
    calls = []
    real = ck.gaussian._route_message
    monkeypatch.setattr(ck.gaussian, "_route_message",
                        lambda *args: calls.append(args[0]) or real(*args))
    report = ck.check_linear_transform(*_perturbed_twin(1, 8))
    witnesses = _failing_witnesses(report)
    # more than one scan block fails: the witnesses hold two copies of rows
    assert len({id(vars(w)["_pending"][1][1]) for w in witnesses}) > 1
    assert calls == []
    first = _interventional(report).witness.message
    assert calls == [witnesses[0].subset]
    text = report.render()
    assert first in text
    report.to_dict()
    assert [w.message for w in witnesses] == [w.message for w in witnesses]
    assert sorted(calls) == sorted(w.subset for w in witnesses)


def test_deferred_witnesses_share_one_copy_of_their_rows_and_drop_it():
    twin = _perturbed_twin(2, 8)
    report = ck.check_linear_transform(*twin)
    witnesses = _failing_witnesses(report)
    pending = [vars(w)["_pending"] for w in witnesses]
    # one copy of the failing rows per scan block, six arrays, one row for
    # each of the block's failing subsets; the 2^8 subsets make two blocks
    blocks = {id(rows): rows for _, (_, rows, _) in pending}
    assert len(blocks) <= -(-2 ** len(twin[0].coords) // ck.gaussian._BLOCK) < len(witnesses)
    assert all(len(rows) == 6 for rows in blocks.values())
    assert sum(len(rows[0]) for rows in blocks.values()) == len(witnesses)
    assert sorted((id(rows), j) for _, (_, rows, j) in pending) == sorted(
        (id(rows), j) for rows in blocks.values() for j in range(len(rows[0])))
    report.render()
    for w in witnesses:
        assert isinstance(vars(w)["message"], str)
        assert vars(w)["_pending"] is None
        assert not any(isinstance(v, np.ndarray) for v in vars(w).values())


def _block_cases():
    """Seeded transformations on a full image (bijective rho) and a partial
    one (rho onto part of the target), each passing and failing."""
    for d in range(2, 9):
        rng = np.random.default_rng([7, d])
        source, target, matrix, rho = _perturbed_twin(d, d)
        scale = np.diag(matrix)
        rescaled = ck.LinearGaussianSCM(target.coords,
                                        scale[:, None] * source.coefficients / scale,
                                        target.noise_variances)
        linear = ck.AffineGaussianKernel(source.coords, target.coords, matrix, np.zeros(d),
                                         np.zeros((d, d)))
        yield source, rescaled, linear, rho  # passing
        yield source, target, linear, rho  # failing
        # the rescaling beside a target coordinate Z outside the image, with
        # no parents or children, which the kernel draws from Z's own law
        names = target.coords + ("Z",)
        b = np.zeros((d + 1, d + 1))
        b[:d, :d] = rescaled.coefficients
        widened = ck.LinearGaussianSCM(names, b, np.append(rescaled.noise_variances, 2.0))
        cov = np.zeros((d + 1, d + 1))
        cov[d, d] = 2.0
        yield source, widened, ck.AffineGaussianKernel(
            source.coords, names, np.vstack([matrix, np.zeros(d)]), np.zeros(d + 1), cov), rho
        # a random kernel, and rho onto fewer target coordinates than there
        # are source coordinates
        root = rng.normal(0.0, 1.0, (d + 1, d + 1))
        image = names[:max(1, d - 1)]
        yield source, widened, ck.AffineGaussianKernel(
            source.coords, names, rng.normal(0.0, 1.0, (d + 1, d)),
            rng.normal(0.0, 1.0, d + 1), root @ root.T), {
                x: image[i % len(image)] for i, x in enumerate(source.coords)}
        # every odd coordinate a root on both sides, X1's row -0.0: the scan's
        # structure order then differs from the canonical one (from d = 3)
        b = np.tril(rng.normal(0.0, 0.5, (d, d)), -1)
        b[1::2] = 0.0
        b[1, 0] = -0.0
        rooted = ck.LinearGaussianSCM(source.coords, b, source.noise_variances)
        moved = scale[:, None] * b / scale
        yield rooted, ck.LinearGaussianSCM(target.coords, moved, target.noise_variances), \
            linear, rho  # passing
        yield rooted, ck.LinearGaussianSCM(target.coords, moved + np.eye(d, k=-d + 1) / 2,
                                           target.noise_variances), linear, rho  # failing


def test_scan_output_does_not_depend_on_the_block_size(monkeypatch):
    cases = list(_block_cases())

    def outputs():
        # render() and to_dict() read every deferred witness
        return [(report.render(), report.to_dict())
                for source, target, kernel, rho in cases for tol in (0.0, 1e-9, 0.5)
                for report in [ck.check_affine_transform(source, target, kernel, rho, tol)]]

    default = outputs()
    monkeypatch.setattr(ck.gaussian, "_BLOCK", 1)
    assert outputs() == default
    # both verdicts of the interventional check, on a full and a partial image
    assert {(len(set(rho.values())) == len(target.coords),
             _interventional(ck.check_affine_transform(source, target, kernel, rho)).passed)
            for source, target, kernel, rho in cases} == {
        (True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("d", range(1, 9))
def test_rows_that_differ_in_pinned_roots_share_an_inverse_bit_for_bit(monkeypatch, d):
    rng = np.random.default_rng([22, d])
    b = np.tril(rng.normal(0.0, 1.0, (d, d)), -1) * (rng.random((d, d)) < 0.5)
    roots = rng.random(d) < 0.5
    # zeros of either sign: a -0.0 row is a root's
    b[roots] = np.copysign(0.0, rng.normal(0.0, 1.0, (roots.sum(), d)))
    roots = ~b.any(axis=1)
    scm = ck.LinearGaussianSCM(tuple(f"X{i}" for i in range(d)), b,
                               rng.uniform(0.5, 2.0, d), rng.normal(0.0, 1.0, d))
    # runs of four rows that differ only in the pinned roots
    pinned = np.repeat(rng.random((6, d)) < 0.5, 4, axis=0)
    pinned[:, roots] = rng.random((24, roots.sum())) < 0.5
    inverted = []
    real = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(len(a)) or real(a))
    stack = ck.gaussian._pinned_stack(scm, pinned)
    held = pinned[:, ~roots]
    assert inverted == [1 + int((held[1:] != held[:-1]).any(axis=1).sum())]
    for i, row in enumerate(pinned):
        one = ck.gaussian._pinned_stack(scm, row[None])
        # tobytes compares the signs of zeros too
        assert [x[i].tobytes() for x in stack] == [x[0].tobytes() for x in one]


@st.composite
def _agreement_case(draw):
    # n items of a matrix, an offset and a covariance, as the scan compares
    n = draw(st.integers(1, 4))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    shapes = ((a, b), (a,), (a, a))
    big = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)
    lhs = tuple(draw(hnp.arrays(np.float64, (n, *shape), elements=big)) for shape in shapes)
    # the right side near the left one, anywhere, or at the far end of the range
    nudge = st.sampled_from([0.0, 1e-300, 1e-12, 1e-9, 0.5, 1.0])
    with np.errstate(over="ignore"):  # an overflow is filtered out below
        rhs = tuple(np.where(draw(hnp.arrays(bool, x.shape)),
                             x * (1.0 + draw(hnp.arrays(np.float64, x.shape, elements=nudge))),
                             draw(hnp.arrays(np.float64, x.shape,
                                             elements=st.one_of(big, st.sampled_from(
                                                 [1e308, -1e308, 0.0, -0.0])))))
                    for x in lhs)
    return lhs, rhs


@given(_agreement_case(), st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 1e300]),
                                    st.floats(0.0, 1e300)))
@settings(max_examples=200, deadline=None)
def test_scan_agreement_rule_is_isclose(case, tol):
    lhs, rhs = case
    assume(ck.gaussian._finite(*lhs, *rhs))
    n = len(lhs[0])
    with np.errstate(over="ignore"):  # x - y may overflow to inf
        want = np.isclose(np.concatenate([x.reshape(n, -1) for x in lhs], axis=1),
                          np.concatenate([y.reshape(n, -1) for y in rhs], axis=1),
                          rtol=tol, atol=tol).all(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ck.gaussian._agree(lhs, rhs, tol)
    assert got.dtype == bool and got.tolist() == want.tolist()


def test_scan_agreement_rule_overflows_quietly():
    # x - y overflows to inf, and so does tol |y|: inf <= inf agrees
    lhs = (np.array([[1e308, 0.0]]),)
    rhs = (np.array([[-1e308, 0.0]]),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ck.gaussian._agree(lhs, rhs, 0.5).tolist() == [False]
        assert ck.gaussian._agree(lhs, rhs, 1e300).tolist() == [True]
        assert ck.gaussian._agree(lhs, lhs, 0.0).tolist() == [True]
