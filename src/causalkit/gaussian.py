"""Linear-Gaussian causal spaces in closed form.

Everything here is finite-dimensional linear algebra: laws are mean/
covariance pairs, kernels are affine maps with a constant Gaussian noise
term, and a linear SCM X = B X + N (B strictly lower triangular in the
declared order) has observational law

    mean = (I - B)^-1 mu_N,    cov = (I - B)^-1 D (I - B)^-T.

Dirac components are carried as exact zero rows and columns of the
covariance; nothing is regularised.  Comparisons use a caller-supplied
absolute-plus-relative tolerance, 1e-9 by default; every function that
takes one passes it through ``check_tolerance`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Mapping, Union

import numpy as np

from .causal import subsets_of
from .errors import SingularConditioningError, SpaceError
from .report import CheckReport, Witness, _deferred_witness, _report, combine
from .tolerance import DEFAULT_TOL, check_tolerance
from .transform import IndexMap

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10
# subsets, of any sizes, per stacked block of the interventional scan: the
# block's arrays are what the scan holds in memory, whatever the image size
_BLOCK = 128
_COV_FAULTS = ("valid", "not symmetric", "not positive semi-definite")
_U = np.finfo(float).eps / 2  # unit roundoff
# eigvalsh's eigenvalues of a symmetric m x m matrix S are taken to be
# exact for some S + E with ||E||_2 <= _EIG_BACKWARD m^2 u ||S||_2.  The
# LAPACK Users' Guide (4.7) bounds the error by p(m) u ||S||_2 with p "a
# modestly growing function"; m^2 is the growth of Wilkinson's worst-case
# bound for Householder tridiagonalisation, and 64 is a generous constant
_EIG_BACKWARD = 64


def _frozen(x) -> np.ndarray:
    """A read-only float copy: editing the caller's array afterwards cannot
    change a checked law, kernel or model."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


def _as_matrix(x, rows: int, cols: int, what: str) -> np.ndarray:
    a = _frozen(x)
    if a.shape != (rows, cols):
        raise SpaceError(f"{what} must have shape {(rows, cols)}, got {a.shape}")
    return a


def _as_vector(x, n: int, what: str) -> np.ndarray:
    a = _frozen(x)
    if a.shape != (n,):
        raise SpaceError(f"{what} must have shape ({n},)")
    return a


def _finite(*arrays: np.ndarray) -> bool:
    return all(np.isfinite(x).all() for x in arrays)


def _distinct(names: tuple[str, ...]) -> None:
    if len(set(names)) != len(names):
        raise SpaceError(f"duplicate coordinate names: {names}")


def _position(coords: tuple[str, ...], name: str) -> int:
    try:
        return coords.index(name)
    except ValueError:
        raise SpaceError(f"unknown coordinate {name!r}") from None


def _cov_faults(cov: np.ndarray) -> np.ndarray:
    """Fault index into ``_COV_FAULTS`` of each matrix in a stack (last two axes).

    Both tolerances scale with the largest absolute entry (at least 1), so
    a rescaled model gets the verdict of the original.  A NaN or infinite
    entry fails the symmetry test; only symmetric matrices reach
    ``eigvalsh``.
    """
    n = cov.shape[-1]
    if not n:  # an empty matrix is valid; reshape cannot infer an empty stack
        return np.zeros(cov.shape[:-2], dtype=np.intp)
    flat = cov.reshape(-1, n, n)
    faults = np.zeros(len(flat), dtype=np.intp)
    scale = np.maximum(1.0, np.abs(flat).max(axis=(1, 2)))
    # a difference past the largest float is inf, and one of two infinite
    # entries may be NaN: either fails the test below
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.abs(flat - flat.transpose(0, 2, 1))
    # a NaN or infinite entry makes the scale NaN or inf, and the tolerance
    # with it, so it is marked before the tolerance test
    asym = ~np.isfinite(scale) | ~np.all(skew <= (SYMMETRY_TOL * scale)[:, None, None],
                                         axis=(1, 2))
    faults[asym] = 1
    sym = ~asym
    if sym.any():
        low = np.linalg.eigvalsh(flat[sym]).min(axis=1) < PSD_TOL * scale[sym]
        faults[sym] = np.where(low, 2, 0)
    return faults.reshape(cov.shape[:-2])


def _gamma(k: int) -> float:
    """Higham's gamma_k: the relative error of k chained roundings."""
    return k * _U / (1.0 - k * _U)


def _certified_faults(cov: np.ndarray, floor: np.ndarray, skew: np.ndarray) -> np.ndarray:
    """``_cov_faults`` of a stack of derived matrices, with per-matrix bounds.

    ``floor`` bounds from below the smallest eigenvalue of the symmetric
    matrix that ``eigvalsh`` reads off each lower triangle, and ``skew``
    bounds max |C - C^T| from above.  A finite matrix whose bounds clear
    both tolerances by a factor of 2, at the scale of its largest diagonal
    entry and after ``eigvalsh``'s own backward error, passes the rule of
    ``_cov_faults`` for certain; only the others are sent through it.  The
    factor 2 covers the rounding of the bounds themselves, and underflow,
    whose absolute errors are far below tolerances of at least 1e-12.  A
    bound or sum that overflowed, to inf or NaN, clears nothing; callers
    run it under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    m = cov.shape[-1]
    diag = np.diagonal(cov, axis1=1, axis2=2)
    scale = diag.max(axis=1, initial=1.0)  # at most the rule's max(1, max |C|)
    # the matrix eigvalsh reads has 2-norm at most |trace| + m max(0, -floor)
    norm = np.abs(diag.sum(axis=1)) + m * np.maximum(0.0, -floor)
    low = floor - (_EIG_BACKWARD * m * m * _U) * norm
    cleared = (np.isfinite(cov.sum(axis=(1, 2))) & (skew <= SYMMETRY_TOL / 2 * scale)
               & (low >= PSD_TOL / 2 * scale))
    faults = np.zeros(len(cov), dtype=np.intp)
    if not cleared.all():
        faults[~cleared] = _cov_faults(cov[~cleared])
    return faults


def _raise_first_fault(what: str, *faults: np.ndarray) -> None:
    """Raise for the first nonzero index into ``_COV_FAULTS``.

    The stacks of fault indices are read interleaved, item by item along
    their leading axes.  A single matrix's fault is a stack with no
    leading axis.
    """
    flat = np.stack(faults, axis=-1).ravel()
    bad = np.flatnonzero(flat)
    if bad.size:
        raise SpaceError(f"{what} is {_COV_FAULTS[flat[bad[0]]]}")


def _agree(lhs: tuple[np.ndarray, ...], rhs: tuple[np.ndarray, ...], tol: float) -> np.ndarray:
    """The items, along the leading axis, at which every stack of ``lhs`` is
    within ``tol`` of the matching stack of ``rhs``, part by part.

    The rule is ``np.isclose``'s with ``tol`` as both tolerances:
    |x - y| <= tol + tol |y|.  On finite stacks that inequality is the
    whole rule, since x - y and tol |y| may overflow to inf but never give
    NaN, and it holds wherever x == y.
    """
    agree = np.ones(len(lhs[0]), dtype=bool)
    with np.errstate(over="ignore"):
        for x, y in zip(lhs, rhs):
            bound = np.abs(y)
            bound *= tol
            bound += tol
            agree &= (np.abs(x - y) <= bound).all(axis=tuple(range(1, x.ndim)))
    return agree


def close(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise comparison with absolute and relative tolerance."""
    check_tolerance(tol)
    with np.errstate(over="ignore"):  # a difference past the largest float is inf
        return bool(np.allclose(np.asarray(a, float), np.asarray(b, float),
                                rtol=tol, atol=tol))


@dataclass(frozen=True)
class GaussianLaw:
    """Gaussian measure on named coordinates; Dirac directions have zero variance."""

    coords: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _distinct(self.coords)
        d = len(self.coords)
        object.__setattr__(self, "mean", _as_vector(self.mean, d, "mean"))
        object.__setattr__(self, "cov", _as_matrix(self.cov, d, d, "cov"))
        _raise_first_fault("covariance", _cov_faults(self.cov))

    def marginal(self, names: Iterable[str]) -> "GaussianLaw":
        idx = [_position(self.coords, n) for n in names]
        return GaussianLaw(tuple(self.coords[i] for i in idx),
                           self.mean[idx], self.cov[np.ix_(idx, idx)])

    def agrees_with(self, other: "GaussianLaw", tol: float = DEFAULT_TOL) -> bool:
        check_tolerance(tol)
        return (self.coords == other.coords
                and close(self.mean, other.mean, tol)
                and close(self.cov, other.cov, tol))


@dataclass(frozen=True)
class AffineGaussianKernel:
    """Kernel omega_S -> N(matrix omega_S + offset, cov) on named outputs.

    For a causal kernel K_S the rows belonging to the pinned coordinates
    implement the identity with zero covariance, so the Dirac structure of
    the second axiom is carried exactly.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    matrix: np.ndarray
    offset: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _distinct(self.inputs)
        _distinct(self.outputs)
        din, dout = len(self.inputs), len(self.outputs)
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, dout, din, "matrix"))
        object.__setattr__(self, "offset", _as_vector(self.offset, dout, "offset"))
        object.__setattr__(self, "cov", _as_matrix(self.cov, dout, dout, "cov"))
        if not _finite(self.matrix, self.offset):
            raise SpaceError("kernel matrix and offset must be finite")
        _raise_first_fault("kernel covariance", _cov_faults(self.cov))

    def at(self, values: np.ndarray) -> GaussianLaw:
        return GaussianLaw(self.outputs, self.matrix @ np.asarray(values, float) + self.offset,
                           self.cov)

    def agrees_with(self, other: "AffineGaussianKernel", tol: float = DEFAULT_TOL) -> bool:
        check_tolerance(tol)
        return (self.inputs == other.inputs and self.outputs == other.outputs
                and close(self.matrix, other.matrix, tol)
                and close(self.offset, other.offset, tol)
                and close(self.cov, other.cov, tol))


@dataclass(frozen=True)
class LinearGaussianSCM:
    """X = B X + N with B strictly lower triangular in the declared order."""

    coords: tuple[str, ...]
    coefficients: np.ndarray
    noise_variances: np.ndarray
    noise_means: np.ndarray = field(default=None)

    def __post_init__(self):
        _distinct(self.coords)
        d = len(self.coords)
        b = _as_matrix(self.coefficients, d, d, "coefficients")
        if not np.all(np.isfinite(b)):
            raise SpaceError("coefficients must be a finite matrix")
        if np.any(np.triu(b) != 0):
            raise SpaceError("coefficients must be strictly lower triangular "
                             "in the declared coordinate order")
        object.__setattr__(self, "coefficients", b)
        v = _frozen(self.noise_variances)
        if v.shape != (d,) or not np.all(np.isfinite(v) & (v >= 0)):
            raise SpaceError("noise variances must be a finite nonnegative vector")
        object.__setattr__(self, "noise_variances", v)
        m = _as_vector(np.zeros(d) if self.noise_means is None else self.noise_means,
                       d, "noise means")
        if not np.all(np.isfinite(m)):
            raise SpaceError("noise means must be a finite vector")
        object.__setattr__(self, "noise_means", m)

    def index(self, name: str) -> int:
        return _position(self.coords, name)


def observational_law(scm: LinearGaussianSCM) -> GaussianLaw:
    """Closed-form law of X = (I - B)^-1 N: the unpinned slice of ``_pinned_stack``.

    A finite model can still have a law that overflows (a chain of large
    coefficients, say); that raises ``SpaceError`` naming the overflow.
    """
    _, mean, cov = _pinned_stack(scm, np.zeros((1, len(scm.coords)), dtype=bool))
    return GaussianLaw(scm.coords, mean[0], cov[0])


def interventional_kernel(scm: LinearGaussianSCM, on: Iterable[str]) -> AffineGaussianKernel:
    """K_S as an affine kernel: pin the S rows, re-run the rest on fresh noise.

    It is the one-slice case of ``_pinned_stack``, its matrix cut to the
    pinned columns.  For S empty this is the observational law as a
    constant kernel.
    """
    pins = sorted(map(scm.index, frozenset(on)))
    matrix, offset, cov = _pinned_stack(scm, np.isin(np.arange(len(scm.coords)), pins)[None])
    return AffineGaussianKernel(
        inputs=tuple(scm.coords[i] for i in pins),
        outputs=scm.coords,
        matrix=matrix[0][:, pins] + 0.0,  # the solve's -0.0 entries read as 0.0
        offset=offset[0],
        cov=cov[0],
    )


GaussianObject = Union[GaussianLaw, AffineGaussianKernel]


def linear_pushforward(obj: GaussianObject, matrix, out_coords: Iterable[str]) -> GaussianObject:
    """Image of a law or kernel under a linear map F.

    Laws map to N(F mean, F cov F^T); kernels keep their inputs and have
    their output side transformed.
    """
    out = tuple(out_coords)
    if isinstance(obj, GaussianLaw):
        f = _as_matrix(matrix, len(out), len(obj.coords), "pushforward matrix")
        return GaussianLaw(out, f @ obj.mean, f @ obj.cov @ f.T)
    f = _as_matrix(matrix, len(out), len(obj.outputs), "pushforward matrix")
    return AffineGaussianKernel(
        inputs=obj.inputs,
        outputs=out,
        matrix=f @ obj.matrix,
        offset=f @ obj.offset,
        cov=f @ obj.cov @ f.T,
    )


def conditional_kernel(law: GaussianLaw, given: Iterable[str],
                       tol: float = DEFAULT_TOL) -> AffineGaussianKernel:
    """Regular conditional of a Gaussian law given some coordinates.

    Output is a kernel over the full coordinate list: identity with zero
    covariance on the conditioned coordinates and the Schur complement on
    the rest.  The conditioning block must be positive definite; a singular
    block (for example a fully correlated pair) raises
    ``SingularConditioningError`` rather than being regularised.
    """
    check_tolerance(tol)
    g = tuple(given)
    g_idx = [_position(law.coords, n) for n in g]
    r_idx = [i for i in range(len(law.coords)) if i not in g_idx]
    sgg = law.cov[np.ix_(g_idx, g_idx)]
    if len(g_idx) == 0:
        return AffineGaussianKernel((), law.coords,
                                    np.zeros((len(law.coords), 0)), law.mean, law.cov)
    if np.linalg.eigvalsh(sgg).min() <= tol:
        raise SingularConditioningError(
            f"conditioning block on {g} is singular (min eigenvalue "
            f"{np.linalg.eigvalsh(sgg).min():.3e})")
    srg = law.cov[np.ix_(r_idx, g_idx)]
    gain = srg @ np.linalg.inv(sgg)
    d = len(law.coords)
    matrix = np.zeros((d, len(g_idx)))
    offset = np.zeros(d)
    cov = np.zeros((d, d))
    for col, i in enumerate(g_idx):
        matrix[i, col] = 1.0
    matrix[r_idx, :] = gain
    offset[r_idx] = law.mean[r_idx] - gain @ law.mean[g_idx]
    schur = law.cov[np.ix_(r_idx, r_idx)] - gain @ srg.T
    cov[np.ix_(r_idx, r_idx)] = (schur + schur.T) / 2.0
    return AffineGaussianKernel(g, law.coords, matrix, offset, cov)


def compose_affine(first: AffineGaussianKernel, second: AffineGaussianKernel
                   ) -> AffineGaussianKernel:
    """Chain two affine kernels (first, then second).

    The second kernel may read any subset of the first kernel's outputs;
    the composed law at x is second applied to the Gaussian image of x.
    """
    try:
        sel_idx = [_position(first.outputs, n) for n in second.inputs]
    except SpaceError as exc:
        raise SpaceError(f"composition inputs missing from outputs: {exc}") from None
    sel = np.zeros((len(second.inputs), len(first.outputs)))
    for row, i in enumerate(sel_idx):
        sel[row, i] = 1.0
    m = second.matrix @ sel
    return AffineGaussianKernel(
        inputs=first.inputs,
        outputs=second.outputs,
        matrix=m @ first.matrix,
        offset=m @ first.offset + second.offset,
        cov=m @ first.cov @ m.T + second.cov,
    )


def _pinned_stack(scm: LinearGaussianSCM, pinned: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrices, offsets and covariances of a stack of K_S: the mutilated solve.

    ``pinned`` is an (n, d) boolean mask, one pin set S per row.  Slice i is
    X = (I - B~)^-1 (x_S + N~), B~ with the S rows zeroed and N~ with zero
    mean and variance on S; its matrix spans all d inputs, zero off S.  An
    unpinned row is the observational law.  This is the layer's one inverse
    of I - B~: if it fails, or a result is not finite, ``SpaceError`` names
    the overflow, without numpy warnings.

    Pinning a coordinate with no parents replaces only its noise: its row
    of B is zero, so I - B~ is that of the same pins without it.  A run of
    consecutive rows that pin the same coordinates with parents shares one
    inverse, bit for bit the one a row of its own would get.
    """
    eye = np.eye(pinned.shape[1])
    means = np.where(pinned, 0.0, scm.noise_means)
    diag = eye * np.where(pinned, 0.0, scm.noise_variances)[:, None, :]
    overflow = ("interventional kernel overflows: its matrix, offset or covariance is not "
                "finite" if pinned.any() else
                "observational law overflows: its mean or covariance is not finite")
    # the first row of each run; a -0.0 coefficient counts as no parent,
    # since eye - -0.0 is eye
    held = pinned[:, (scm.coefficients != 0).any(axis=1)]
    first = np.ones(len(pinned), dtype=bool)
    first[1:] = (held[1:] != held[:-1]).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # I - B~ is unit lower triangular, so inv fails only on overflow
            a = np.linalg.inv(np.where(pinned[first][:, :, None], eye, eye - scm.coefficients))
        except np.linalg.LinAlgError:
            raise SpaceError(overflow) from None
        a = a[np.cumsum(first) - 1]
        stack = (np.where(pinned[:, None, :], a, 0.0), (a @ means[:, :, None])[:, :, 0],
                 a @ diag @ a.transpose(0, 2, 1))
    if not _finite(*stack):
        raise SpaceError(overflow)
    return stack


def affine_admissible(kernel: AffineGaussianKernel, rho: Mapping[str, str],
                      image: Iterable[str]) -> CheckReport:
    """Mean-map support condition for admissibility of an affine kernel.

    kappa(., A) for A in H_{S} depends on the inputs only through the mean
    rows of the S outputs (the covariance is constant), so admissibility
    holds exactly when, for every output coordinate s in the image of rho,
    the mean-map row of s is supported on rho^-1(s).
    """
    img = frozenset(image)
    for out_pos, s in enumerate(kernel.outputs):
        if s not in img:
            continue
        allowed = {n for n in kernel.inputs if rho.get(n) == s}
        for in_pos, n in enumerate(kernel.inputs):
            if n in allowed:
                continue
            coeff = kernel.matrix[out_pos, in_pos]
            if coeff != 0.0:
                return CheckReport(
                    check="admissible",
                    passed=False,
                    witness=Witness(
                        message=(f"mean map of output coordinate {s!r} depends on "
                                 f"{n!r} (coefficient {coeff:g}) although "
                                 f"rho^-1({s!r}) = {sorted(allowed)}"),
                        subset=(s,),
                    ),
                )
    return CheckReport(check="admissible", passed=True)


def check_affine_transform(source: LinearGaussianSCM, target: LinearGaussianSCM,
                           kernel: AffineGaussianKernel, rho: Mapping[str, str],
                           tol: float = DEFAULT_TOL) -> CheckReport:
    """All three transformation checks for an affine-Gaussian kernel.

    Distributional: pushing the source law through the kernel reproduces
    the target law.  Interventional: for every subset S of the image of
    rho, chaining K^1_{rho^-1(S)} with kappa agrees with chaining kappa
    with K^2_S, as affine kernels in the pulled-back inputs; the two
    routes are compared on the image coordinates only, since that is the
    sigma-algebra the consistency identity quantifies over.  Parameter
    comparisons use ``tol`` absolute-plus-relative.

    The 2^|image| interventional sub-checks run in blocks of at most
    ``_BLOCK`` subsets, of any sizes, cut from the lattice in structure
    order: the subsets sorted stably by S & K, where K holds the image
    coordinates whose pin changes I - B~ on either side (the target's
    coordinates with parents, and rho's image of the source's), so the
    canonical ``subsets_of`` order is kept within each group.  Pinning a
    root replaces only its noise, so the subsets of a group that meet in
    one block share one inverse per side.  Each report is put back at its
    canonical position: the combined report and every witness are in
    ``subsets_of`` order, whatever the blocks were.  A block's mutilated
    solves (one per side), compositions, covariance validations and
    comparisons are stacked numpy calls, a fixed number per block besides
    one product per pin count of the source route.  The kernels K_S come
    from ``_pinned_stack``, as they do in ``interventional_kernel``, and the
    compositions keep the shapes and the operation order of
    ``compose_affine``, so verdicts and witness strings are those of the
    one-subset-at-a-time chain.  The routes agree where ``np.isclose``
    holds with ``tol`` as both tolerances, compared part by part (matrix,
    offset, covariance).  When the image is every target coordinate (any
    bijective rho), the routes are compared through views of themselves,
    not image-slice copies.

    A law, K_S, pushed law or route that is not finite has overflowed
    (every input is finite), and ``SpaceError`` names it.  A block that
    raises is scanned again one subset at a time, and once every block is
    done the error raised is that of the first failing subset in the
    canonical order, whatever ``_BLOCK`` is.  Within a subset, overflows
    (K^1, K^2, the routes) come before covariance faults (K^1, source
    route, K^2, target route, the routes' image slices).  A full image's
    slices are the routes themselves, so they are not validated again:
    the first fault and its text are those of the route checks.

    Those derived covariances (K^1, K^2, both routes and the routes'
    image slices) are held to the constructors' rule, symmetry within
    ``SYMMETRY_TOL`` and ``eigvalsh`` above ``PSD_TOL``, each times the
    matrix's scale, but ``eigvalsh`` runs only on the matrices that
    rounding bounds cannot clear: Higham's gamma_n bounds on inner
    products, with Weyl's and Cauchy's interlacing inequalities, applied
    to Gram products, their congruences and principal submatrices, plus
    ``eigvalsh``'s own backward error.  A cleared matrix passes the
    eigenvalue rule on the same floats, so verdicts and fault text are
    the eigenvalue rule's.

    A failing subset's witness text is formatted the first time its
    message is read; until then the report holds that subset's rows of
    both routes on the image (copied once per block), and afterwards the
    text alone.  Beside the reports, the scan keeps one pin mask (an
    int64, bit j for the j-th image coordinate) and one rank per subset.

    Before any of that work the inputs are checked, in this order, and
    the first failure raises ``SpaceError``: ``tol`` must be finite and at
    least 0 (0 asks for exact equality); the kernel must map the source
    coordinates to the target's; and rho must pass ``IndexMap``'s rule,
    the one check of rho at both scales.  A covariance fault is raised
    only after all of these pass.
    """
    check_tolerance(tol)
    if kernel.inputs != source.coords or kernel.outputs != target.coords:
        raise SpaceError("kernel does not match source and target coordinates")
    image = IndexMap(source.coords, target.coords, rho).image()
    ds, dt = len(source.coords), len(target.coords)
    # a full image takes the routes as they are, through views
    full = len(image) == dt
    img_pos = [i for i, n in enumerate(target.coords) if n in image]
    img = slice(None) if full else np.array(img_pos, dtype=np.intp)

    reports = [affine_admissible(kernel, rho, image)]

    law1 = observational_law(source)
    law2 = observational_law(target)
    with np.errstate(over="ignore", invalid="ignore"):
        offset = kernel.matrix @ law1.mean + kernel.offset
        cov = kernel.matrix @ law1.cov @ kernel.matrix.T + kernel.cov
    if not _finite(offset, cov):
        raise SpaceError("pushed law overflows: its mean or covariance is not finite")
    _raise_first_fault("kernel covariance", _cov_faults(cov))
    if close(offset, law2.mean, tol) and close(cov, law2.cov, tol):
        reports.append(CheckReport(check="distributional", passed=True))
    else:
        reports.append(CheckReport(
            check="distributional", passed=False,
            witness=Witness(message=(
                f"pushed law mean {offset} cov diag {np.diag(cov)} "
                f"vs target mean {law2.mean} cov diag {np.diag(law2.cov)}"))))

    tgt_pos = {n: i for i, n in enumerate(target.coords)}
    # the target position of each source coordinate's image under rho
    rho_pos = np.array([tgt_pos[rho[n]] for n in source.coords], dtype=np.intp)
    # compose_affine(K^1, kappa) selects every source output, in order
    m1 = kernel.matrix @ np.eye(len(source.coords))

    # the lattice: the k-th subset of the canonical order as a pin mask, bit
    # j pinning the j-th image coordinate in target order
    bit = {target.coords[i]: 1 << j for j, i in enumerate(img_pos)}
    lattice = np.fromiter((sum(map(bit.__getitem__, s)) for s in subsets_of(image)),
                          dtype=np.int64, count=1 << len(image))
    # structure order: grouped by the pins that change I - B~ on either side,
    # the target's coordinates with parents and the images of the source's,
    # and canonical within a group, so that a group's K_S share their inverses
    moves = (target.coefficients != 0).any(axis=1)
    moves[rho_pos[(source.coefficients != 0).any(axis=1)]] = True
    order = np.argsort(lattice & sum(1 << j for j, i in enumerate(img_pos) if moves[i]),
                       kind="stable")

    # Rounding bounds for the covariances the scan derives (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., 3.5); sym(C) is the
    # matrix eigvalsh reads off C's lower triangle, and a bound on |E| by a
    # symmetric nonnegative matrix bounds ||sym(E)||_2 by that matrix's norm.
    # K^1 and K^2 are computed Gram products A diag(v) A^T, v >= 0, whose
    # exact value is PSD whatever inv returned; entry (i, j) is off by at
    # most gamma_{d+1} sqrt(c_ii c_jj) (Cauchy-Schwarz), so by Weyl's
    # inequality lambda_min >= -gamma trace and |C - C^T| <= 2 gamma trace.
    # The source route m1 K^1 m1^T + kappa is the PSD m1 K^1_exact m1^T plus
    # kappa, off by at most c t t^T + 2 u ||kappa||_F, t = |m1| sqrt(diag K^1).
    # The target route m2 kappa m2^T + K^2 has lambda_min at least
    # min(0, lambda_min(kappa)) ||m2||_F^2, less kappa's asymmetry and the
    # rounding of its congruence, carried by ||m2||_F^2, and K^2's Gram
    # bound.  The image slices are principal submatrices: the same bounds
    # hold summed over their own rows (Cauchy's interlacing for kappa).
    k_cov = kernel.cov
    k_skew = np.abs(k_cov - k_cov.T).max(initial=0.0)
    k_norm = math.sqrt(float((k_cov * k_cov).sum()))
    # at most lambda_min of sym(kappa) and of (kappa + kappa^T) / 2, and 0
    k_floor = (np.linalg.eigvalsh(k_cov).min(initial=0.0)
               - _EIG_BACKWARD * dt ** 3 * _U * np.abs(k_cov).max(initial=0.0)
               - dt * k_skew / 2)
    m1_abs = np.abs(m1).T
    gram1 = _gamma(ds + 1) / (1.0 - _gamma(ds + 1))
    gram2 = _gamma(dt + 1) / (1.0 - _gamma(dt + 1))
    lhs_gain = _gamma(3 * ds + 2) / (1.0 - _gamma(ds + 1))
    lhs_kernel = 2 * _U * k_norm
    rhs_gram = _gamma(dt + 2) / (1.0 - _gamma(dt + 1))
    rhs_kernel = dt * k_skew / 2 + 2 * _gamma(2 * dt + 1) * k_norm

    # row indices which, beside (k, 1, size) column indices, gather or
    # scatter a (k, rows, size) stack in one fancy index
    rows1 = np.arange(ds)[:, None]
    rows2 = np.arange(dt)[:, None]

    def scan(block: np.ndarray) -> None:
        """Report the subsets of these canonical ranks, each at its rank in ``inter``."""
        n = len(block)
        pinned2 = np.zeros((n, dt), dtype=bool)
        pinned2[:, img_pos] = lattice[block, None] >> np.arange(len(img_pos)) & 1
        # each subset's names in target order, sliced from one flat list
        names = [target.coords[j] for j in np.nonzero(pinned2)[1].tolist()]
        ends = np.cumsum(pinned2.sum(axis=1)).tolist()
        s2 = [tuple(names[a:b]) for a, b in zip([0, *ends], ends)]
        # the source coordinates pinned by K^1_{rho^-1(S)}
        pinned1 = pinned2[:, rho_pos]
        matrix1, offset1, cov1 = _pinned_stack(source, pinned1)
        m2, offset2, cov2 = _pinned_stack(target, pinned2)

        with np.errstate(over="ignore", invalid="ignore"):
            # source route compose_affine(K^1_{rho^-1(S)}, kappa), its mean map
            # widened to all source inputs, in compose_affine's shapes per size
            # (a subset that pins no source coordinate leaves it zero)
            lhs_matrix = np.zeros((n, dt, ds))
            sizes = pinned1.sum(axis=1)
            for size in sorted(set(sizes.tolist()) - {0}):
                at = np.flatnonzero(sizes == size)[:, None, None]
                cols = np.nonzero(pinned1[at[:, 0, 0]])[1].reshape(len(at), 1, size)
                lhs_matrix[at, rows2, cols] = m1 @ matrix1[at, rows1, cols]
            lhs_offset = (m1 @ offset1[:, :, None])[:, :, 0] + kernel.offset
            lhs_cov = m1 @ cov1 @ m1.T + kernel.cov

            # target route compose_affine(kappa, K^2_S); K^2_S spans all inputs
            rhs_matrix = m2 @ kernel.matrix
            rhs_offset = m2 @ kernel.offset + offset2
            rhs_cov = m2 @ kernel.cov @ m2.transpose(0, 2, 1) + cov2
        if not _finite(lhs_matrix, lhs_offset, lhs_cov, rhs_matrix, rhs_offset, rhs_cov):
            raise SpaceError("interventional routes overflow: a matrix, offset or "
                             "covariance is not finite")

        # both routes on the image coordinates only
        lhs_img = (lhs_matrix[:, img], lhs_offset[:, img], lhs_cov[:, img][:, :, img])
        rhs_img = (rhs_matrix[:, img], rhs_offset[:, img], rhs_cov[:, img][:, :, img])
        diag1 = np.diagonal(cov1, axis1=1, axis2=2)
        diag2 = np.diagonal(cov2, axis1=1, axis2=2)
        # a bound whose sums pass the largest float reads inf, or NaN beside a
        # zero factor; it clears no matrix, which then goes to the exact rule
        with np.errstate(over="ignore", invalid="ignore"):
            err1 = gram1 * diag1.sum(axis=1)
            err2 = gram2 * diag2.sum(axis=1)
            lhs_rows = lhs_gain * (np.sqrt(diag1) @ m1_abs) ** 2
            lhs_err = lhs_rows.sum(axis=1) + lhs_kernel
            m2_rows = np.einsum("nij,nij->ni", m2, m2)
            rhs_rows = rhs_kernel * m2_rows + rhs_gram * diag2
            rhs_low = k_floor * m2_rows - rhs_rows
            faults = [
                _certified_faults(cov1, -err1, 2 * err1),
                _certified_faults(lhs_cov, k_floor - lhs_err, k_skew + 2 * lhs_err),
                _certified_faults(cov2, -err2, 2 * err2),
                _certified_faults(rhs_cov, rhs_low.sum(axis=1), 2 * rhs_rows.sum(axis=1))]
            if not full:  # a full image's slices are the routes, checked just above
                lhs_img_err = lhs_rows[:, img].sum(axis=1) + lhs_kernel
                faults += [
                    _certified_faults(lhs_img[2], k_floor - lhs_img_err,
                                      k_skew + 2 * lhs_img_err),
                    _certified_faults(rhs_img[2], rhs_low[:, img].sum(axis=1),
                                      2 * rhs_rows[:, img].sum(axis=1))]
        _raise_first_fault("kernel covariance", *faults)
        agree = _agree(lhs_img, rhs_img, tol)
        # the failing subsets' rows, copied once for their deferred witnesses
        failing = () if agree.all() else tuple(x[~agree] for x in (*lhs_img, *rhs_img))
        row = count()
        for rank, s, ok in zip(block.tolist(), s2, agree.tolist()):
            inter[rank] = _report("interventional S={" + ",".join(s) + "}", ok,
                                  None if ok else _deferred_witness(
                                      s, _route_message, s, failing, next(row)))

    inter = [None] * len(lattice)  # the reports in canonical order
    failed = None  # the canonical rank and error of the first subset that raises
    for start in range(0, len(order), _BLOCK):
        block = order[start:start + _BLOCK]
        if failed is not None:  # only an earlier subset's error can be named
            block = block[block < failed[0]]
        try:
            if block.size:
                scan(block)
        except SpaceError:  # raised for the whole block: scan it a subset at a time
            for rank in block.tolist():
                try:
                    scan(np.array([rank]))
                except SpaceError as exc:
                    if failed is None or rank < failed[0]:
                        failed = (rank, exc)
    if failed is not None:
        raise failed[1]
    reports.append(combine("interventional", inter))
    return combine("causal-transformation", reports)


def _route_message(subset: tuple[str, ...], rows: tuple[np.ndarray, ...], j: int) -> str:
    """Witness text of a failing interventional subset.

    ``rows`` holds the source route's matrix, offset and covariance on the
    image coordinates, then the target route's, one row per failing
    subset of a scan block; ``j`` picks this subset's row.
    """
    lm, lo, lc, rm, ro, rc = (x[j].tolist() for x in rows)
    return (f"at S={{{','.join(subset)}}}: source route matrix {lm} offset {lo} "
            f"cov {lc} vs target route matrix {rm} offset {ro} cov {rc}")


def check_linear_transform(source: LinearGaussianSCM, target: LinearGaussianSCM,
                           matrix, rho: Mapping[str, str],
                           tol: float = DEFAULT_TOL) -> CheckReport:
    """Transformation checks for a deterministic linear map f(x) = F x."""
    f = _as_matrix(matrix, len(target.coords), len(source.coords), "transform matrix")
    kernel = AffineGaussianKernel(
        inputs=source.coords,
        outputs=target.coords,
        matrix=f,
        offset=np.zeros(len(target.coords)),
        cov=np.zeros((len(target.coords), len(target.coords))),
    )
    return check_affine_transform(source, target, kernel, rho, tol)


def faithfulness_demo(tol: float = DEFAULT_TOL) -> tuple[CheckReport, CheckReport]:
    """Zero covariance between cause and effect next to a live mechanism.

    A latent W drives X directly and Y through a mediator M with an exactly
    cancelling direct path, so Cov(X, Y) = 0 in the observational law while
    pinning X shifts the law of Y.  The first report verifies the active
    mechanism on the full system; the second verifies that the (X, Y)
    system whose kernel ignores X (as the vanishing covariance would
    suggest) carries no effect at all.  Both pass: the two causal spaces
    share the observational law and disagree on every interventional
    question, which is the point.
    """
    check_tolerance(tol)
    scm = LinearGaussianSCM(
        coords=("W", "X", "M", "Y"),
        coefficients=np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
        ]),
        noise_variances=np.array([1.0, 0.0, 1.0, 1.0]),
    )
    law = observational_law(scm)
    x_pos, y_pos = scm.index("X"), scm.index("Y")
    cov_xy = law.cov[x_pos, y_pos]
    k_x = interventional_kernel(scm, ("X",))
    do_mean_y = k_x.matrix[y_pos, 0]
    do_var_y = k_x.cov[y_pos, y_pos]
    base_var_y = law.cov[y_pos, y_pos]
    full_ok = bool(abs(cov_xy) <= tol
                   and close(do_mean_y, -1.0, tol)
                   and close(do_var_y, 3.0, tol)
                   and close(base_var_y, 2.0, tol))
    full = CheckReport(
        check="faithfulness-full-system",
        passed=full_ok,
        witness=None if full_ok else Witness(
            message=f"cov(X,Y)={cov_xy}, do-mean slope {do_mean_y}, do-var {do_var_y}"),
        details=(
            f"Cov(X, Y) = {cov_xy:g} in the observational law",
            f"pinning X = x sends Y to N({do_mean_y:g} x, {do_var_y:g})",
            f"observational Var(Y) = {base_var_y:g}, so the mechanism is active",
        ),
    )

    # the (X, Y) system suggested by the vanishing covariance: kernel for X
    # pins X and draws Y from its marginal, independent of x
    sub_law = law.marginal(("X", "Y"))
    indep = LinearGaussianSCM(
        coords=("X", "Y"),
        coefficients=np.zeros((2, 2)),
        noise_variances=np.array([sub_law.cov[0, 0], sub_law.cov[1, 1]]),
    )
    indep_k = interventional_kernel(indep, ("X",))
    y_slope = indep_k.matrix[1, 0]
    indep_law = observational_law(indep)
    sub_ok = bool(indep_law.agrees_with(sub_law, tol) and abs(y_slope) <= tol)
    sub = CheckReport(
        check="faithfulness-independent-reading",
        passed=sub_ok,
        witness=None if sub_ok else Witness(
            message=f"marginal mismatch or nonzero slope {y_slope}"),
        details=(
            "the (X, Y) marginal law is matched exactly by an edgeless system",
            f"its kernel K_X sends Y to N({y_slope:g} x, {indep_k.cov[1, 1]:g}): no effect",
            "the same observational law therefore supports both readings",
        ),
    )
    return full, sub
