"""Canonical JSON documents for spaces, models, and transformations.

Every artifact is a UTF-8 JSON object with a ``kind`` discriminator:

``finite-space``
    Coordinates, a base measure, and one kernel table per coordinate
    subset.  All probabilities are exact rational strings ("3/8"); kernel
    tables are keyed by the comma-joined sorted coordinate names ("" for
    the empty subset) and their rows follow the restricted space's index
    order (coordinates in declared order, last coordinate fastest).
``finite-measure``
    Coordinates plus a weight vector, for intervention inputs.
``finite-scm``
    Structural model: variables, parent lists, noise weight vectors, and
    flat mechanism tables (mixed-radix over parent values then noise).
``gaussian-scm``
    Linear-Gaussian model: coordinate names, a strictly lower-triangular
    coefficient matrix, noise variances, optional noise means.  Gaussian
    documents carry decimal floats; checks compare at tolerance 1e-9.
``transformation``
    Nested source and target documents, an index map ``rho``, and a map
    body: a row-stochastic ``kernel`` table, a ``deterministic`` outcome
    table (target outcome values per source outcome), or a ``matrix``
    (with optional ``offset`` and ``cov``) when the endpoints are
    Gaussian models.

The abstraction-map file of ``causalkit abstract --map`` is the one input
without a ``kind``: an object with exactly ``target`` (a coordinate list,
as in ``finite-space``) and ``table`` (one list of target values per
source outcome, in the source's index order); ``load_abstraction_map``
reads it against the source space.

Loading rejects unknown fields.  Dumps are canonical — sorted keys,
two-space indent, rationals in lowest terms, trailing newline — so that
dump(load(text)) reproduces ``text`` byte for byte whenever ``text`` was
itself produced by a dump.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Union

from .causal import FiniteCausalSpace, subsets_of
from .errors import SpecError
from .report import CheckReport
from .scm import FiniteSCM, compile_scm
from .spaces import Coordinate, CoordinateSpace, Event, FiniteMeasure, StochKernel
from .tolerance import DEFAULT_TOL
from .transform import IndexMap, Transformation

if TYPE_CHECKING:  # the Gaussian readers and writers import these when they run
    import numpy as np

    from .gaussian import AffineGaussianKernel, LinearGaussianSCM

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")

KINDS = ("finite-measure", "finite-scm", "finite-space", "gaussian-scm",
         "transformation")


@dataclass(frozen=True, eq=False)
class GaussianTransform:
    """Affine map between linear-Gaussian models, with its index map.

    ``matrix`` (and the optional ``offset`` / ``cov``) define the kernel
    row-major over target-by-source coordinates; the default offset and
    covariance are zero, i.e. a deterministic linear map.  The kernel is
    built, and so checked, once, here, before rho is checked as an
    ``IndexMap``; ``matrix``, ``offset`` and ``cov`` are the kernel's
    checked arrays.  The annotations name numpy and ``gaussian`` types that
    this module imports only when a Gaussian document is read or written.
    """

    source: LinearGaussianSCM
    target: LinearGaussianSCM
    rho: Mapping[str, str]
    matrix: np.ndarray
    offset: np.ndarray = field(default=None)
    cov: np.ndarray = field(default=None)
    kernel: AffineGaussianKernel = field(init=False, repr=False)

    def __post_init__(self):
        import numpy as np

        from .gaussian import AffineGaussianKernel

        d_out = len(self.target.coords)
        kernel = AffineGaussianKernel(
            inputs=self.source.coords,
            outputs=self.target.coords,
            matrix=self.matrix,
            offset=np.zeros(d_out) if self.offset is None else self.offset,
            cov=np.zeros((d_out, d_out)) if self.cov is None else self.cov,
        )
        IndexMap(self.source.coords, self.target.coords, self.rho)
        object.__setattr__(self, "kernel", kernel)
        for name in ("matrix", "offset", "cov"):
            object.__setattr__(self, name, getattr(kernel, name))

    def check(self, tol: float = DEFAULT_TOL) -> CheckReport:
        from .gaussian import check_affine_transform

        return check_affine_transform(self.source, self.target, self.kernel,
                                      dict(self.rho), tol)


Artifact = Union[FiniteCausalSpace, FiniteMeasure, FiniteSCM,
                 "LinearGaussianSCM", Transformation, GaussianTransform]


# ----------------------------------------------------------------- helpers

def parse_rational(text: Any, what: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise SpecError(f"{what}: expected a rational string like '3/8', got {text!r}")
    return Fraction(text)


def rational_str(value: Fraction) -> str:
    return str(Fraction(value))


def _require(doc: Mapping, required: tuple[str, ...], what: str,
             optional: tuple[str, ...] = ()) -> None:
    if not isinstance(doc, Mapping):
        raise SpecError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise SpecError(f"{what}: missing fields {missing}")
    unknown = [k for k in doc if k not in required and k not in optional]
    if unknown:
        raise SpecError(f"{what}: unknown fields {unknown}")


def _coord_list(doc: Any, what: str) -> list[tuple[str, int]]:
    if not isinstance(doc, list) or not doc:
        raise SpecError(f"{what}: expected a non-empty list of coordinates")
    pairs = []
    for entry in doc:
        _require(entry, ("name", "cardinality"), f"{what} entry")
        name, card = entry["name"], entry["cardinality"]
        if not isinstance(name, str) or not name:
            raise SpecError(f"{what}: coordinate name must be a non-empty string")
        if not isinstance(card, int) or isinstance(card, bool) or card < 1:
            raise SpecError(f"{what}: cardinality of {name!r} must be a positive integer")
        pairs.append((name, card))
    return pairs


def _weight_row(doc: Any, length: int, what: str) -> tuple[Fraction, ...]:
    if not isinstance(doc, list) or len(doc) != length:
        raise SpecError(f"{what}: expected a list of {length} rational strings")
    return tuple(parse_rational(w, what) for w in doc)


def _float_matrix(doc: Any, shape: tuple[int, int], what: str) -> np.ndarray:
    import numpy as np

    try:
        m = np.asarray(doc, float)
    except (TypeError, ValueError):
        raise SpecError(f"{what}: expected a numeric matrix") from None
    if m.shape != shape:
        raise SpecError(f"{what}: expected shape {shape}, got {m.shape}")
    if not np.isfinite(m).all():
        raise SpecError(f"{what}: entries must be finite numbers, not NaN or Infinity")
    return m


def _float_vector(doc: Any, length: int, what: str) -> np.ndarray:
    import numpy as np

    try:
        v = np.asarray(doc, float)
    except (TypeError, ValueError):
        raise SpecError(f"{what}: expected a numeric vector") from None
    if v.shape != (length,):
        raise SpecError(f"{what}: expected {length} numbers, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise SpecError(f"{what}: entries must be finite numbers, not NaN or Infinity")
    return v


def _floats(array: np.ndarray) -> list:
    if array.ndim == 1:
        return [float(x) for x in array]
    return [[float(x) for x in row] for row in array]


def parse_event_spec(space: CoordinateSpace, spec: Mapping[str, Any]) -> Event:
    """Event from a constraint map ``{name: value or [values], ...}``.

    The event is the set of outcomes whose named coordinates take one of
    the listed values; an empty map denotes the full space.
    """
    if not isinstance(spec, Mapping):
        raise SpecError(f"event spec: expected an object, got {type(spec).__name__}")
    event = Event.full(space)
    for name, allowed in spec.items():
        if name not in space.names:
            raise SpecError(f"event spec: unknown coordinate {name!r}")
        values = allowed if isinstance(allowed, list) else [allowed]
        card = space.cards[space.position(name)]
        union = Event.empty(space)
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < card:
                raise SpecError(
                    f"event spec: value {v!r} out of range for {name!r} (0..{card - 1})")
            union = union.union(Event.cylinder(space, {name: v}))
        event = event.intersect(union)
    return event


# ------------------------------------------------------------ finite-space

def _space_from_doc(doc: Mapping) -> FiniteCausalSpace:
    _require(doc, ("kind", "coordinates", "measure", "kernels"), "finite-space")
    space = CoordinateSpace.make(_coord_list(doc["coordinates"], "finite-space"))
    n = space.n_outcomes
    measure = FiniteMeasure(space, _weight_row(doc["measure"], n, "measure"))
    kernels_doc = doc["kernels"]
    if not isinstance(kernels_doc, Mapping):
        raise SpecError("finite-space: 'kernels' must be an object")
    table: dict[frozenset, StochKernel] = {}
    expected_keys = set()
    for subset in subsets_of(space.names):
        key = ",".join(sorted(subset))
        expected_keys.add(key)
        if key not in kernels_doc:
            raise SpecError(f"finite-space: missing kernel for subset {{{key}}}")
        restricted = space.restrict(subset)
        rows_doc = kernels_doc[key]
        if not isinstance(rows_doc, list) or len(rows_doc) != restricted.n_outcomes:
            raise SpecError(
                f"finite-space: kernel {{{key}}} needs {restricted.n_outcomes} rows")
        rows = [_weight_row(r, n, f"kernel {{{key}}} row") for r in rows_doc]
        table[frozenset(subset)] = StochKernel.from_rows(restricted, space, rows)
    unknown = set(kernels_doc) - expected_keys
    if unknown:
        raise SpecError(f"finite-space: unknown kernel keys {sorted(unknown)}")
    return FiniteCausalSpace(space, measure, kernels=table)


def _space_to_doc(c: FiniteCausalSpace) -> dict:
    kernels = {}
    for subset in c.subsets():
        k = c.kernel(subset)
        kernels[",".join(sorted(subset))] = [
            [rational_str(w) for w in row.weights] for row in k.rows]
    return {
        "kind": "finite-space",
        "coordinates": [{"name": n, "cardinality": k}
                        for n, k in zip(c.space.names, c.space.cards)],
        "measure": [rational_str(w) for w in c.P.weights],
        "kernels": kernels,
    }


# ---------------------------------------------------------- finite-measure

def _measure_from_doc(doc: Mapping) -> FiniteMeasure:
    _require(doc, ("kind", "coordinates", "weights"), "finite-measure")
    space = CoordinateSpace.make(_coord_list(doc["coordinates"], "finite-measure"))
    return FiniteMeasure(space, _weight_row(doc["weights"], space.n_outcomes, "weights"))


def _measure_to_doc(m: FiniteMeasure) -> dict:
    return {
        "kind": "finite-measure",
        "coordinates": [{"name": n, "cardinality": k}
                        for n, k in zip(m.space.names, m.space.cards)],
        "weights": [rational_str(w) for w in m.weights],
    }


# -------------------------------------------------------------- finite-scm

def _scm_from_doc(doc: Mapping) -> FiniteSCM:
    _require(doc, ("kind", "variables", "parents", "noises", "mechanisms"),
             "finite-scm")
    pairs = _coord_list(doc["variables"], "finite-scm")
    names = {n for n, _ in pairs}
    for section in ("parents", "noises", "mechanisms"):
        part = doc[section]
        if not isinstance(part, Mapping) or set(part) != names:
            raise SpecError(
                f"finite-scm: '{section}' must have exactly one entry per variable")
    parents = {}
    for v, ps in doc["parents"].items():
        if not isinstance(ps, list) or any(not isinstance(p, str) or p not in names
                                           for p in ps):
            raise SpecError(f"finite-scm: parents of {v!r} must list known variables")
        parents[v] = tuple(ps)
    noises = {}
    for v, ws in doc["noises"].items():
        if not isinstance(ws, list) or not ws:
            raise SpecError(f"finite-scm: noise of {v!r} must be a non-empty list")
        noises[v] = tuple(parse_rational(w, f"noise of {v!r}") for w in ws)
    mechanisms = {}
    for v, table in doc["mechanisms"].items():
        if (not isinstance(table, list)
                or any(not isinstance(x, int) or isinstance(x, bool) for x in table)):
            raise SpecError(f"finite-scm: mechanism of {v!r} must be a list of integers")
        mechanisms[v] = tuple(table)
    # the noise weights are Fractions already, so build would only copy them
    return FiniteSCM(tuple(Coordinate(n, k) for n, k in pairs), parents, noises, mechanisms)


def _scm_to_doc(scm: FiniteSCM) -> dict:
    return {
        "kind": "finite-scm",
        "variables": [{"name": v.name, "cardinality": v.cardinality}
                      for v in scm.variables],
        "parents": {v: list(ps) for v, ps in scm.parents.items()},
        "noises": {v: [rational_str(w) for w in ws] for v, ws in scm.noises.items()},
        "mechanisms": {v: list(t) for v, t in scm.mechanisms.items()},
    }


# ------------------------------------------------------------ gaussian-scm

def _gaussian_from_doc(doc: Mapping) -> LinearGaussianSCM:
    from .gaussian import LinearGaussianSCM

    _require(doc, ("kind", "coordinates", "coefficients", "noise_variances"),
             "gaussian-scm", optional=("noise_means",))
    coords = doc["coordinates"]
    if (not isinstance(coords, list) or not coords
            or any(not isinstance(n, str) or not n for n in coords)):
        raise SpecError("gaussian-scm: 'coordinates' must be a list of names")
    d = len(coords)
    return LinearGaussianSCM(
        coords=tuple(coords),
        coefficients=_float_matrix(doc["coefficients"], (d, d), "coefficients"),
        noise_variances=_float_vector(doc["noise_variances"], d, "noise_variances"),
        noise_means=(_float_vector(doc["noise_means"], d, "noise_means")
                     if "noise_means" in doc else None),
    )


def _gaussian_to_doc(scm: LinearGaussianSCM) -> dict:
    doc = {
        "kind": "gaussian-scm",
        "coordinates": list(scm.coords),
        "coefficients": _floats(scm.coefficients),
        "noise_variances": _floats(scm.noise_variances),
    }
    if (scm.noise_means != 0).any():
        doc["noise_means"] = _floats(scm.noise_means)
    return doc


# ---------------------------------------------------------- transformation

def parse_rho(doc: Any, what: str) -> dict[str, str]:
    """Index map from a JSON object of coordinate names to names."""
    if (not isinstance(doc, Mapping)
            or any(not isinstance(k, str) or not isinstance(v, str)
                   for k, v in doc.items())):
        raise SpecError(f"{what} must map coordinate names to names")
    return dict(doc)


def _outcome_table(doc: Any, n: int, target: CoordinateSpace, what: str) -> tuple[int, ...]:
    """Target outcome indices of a table listing, for each of ``n`` source
    outcomes, one value per target coordinate."""
    if not isinstance(doc, list) or len(doc) != n:
        raise SpecError(f"{what} needs {n} entries")
    table = []
    for i, entry in enumerate(doc):
        if (not isinstance(entry, list) or len(entry) != len(target.names)
                or any(not isinstance(x, int) or isinstance(x, bool) for x in entry)):
            raise SpecError(f"{what} entry {i} must list one value per target coordinate")
        for v, card, name in zip(entry, target.cards, target.names):
            if not 0 <= v < card:
                raise SpecError(f"{what} entry {i} value {v} out of range for {name!r}")
        table.append(target.index(tuple(entry)))
    return tuple(table)


def _transformation_from_doc(doc: Mapping) -> Union[Transformation, GaussianTransform]:
    _require(doc, ("kind", "source", "target", "rho", "map"), "transformation")
    src_doc, tgt_doc = doc["source"], doc["target"]
    for part, name in ((src_doc, "source"), (tgt_doc, "target")):
        if not isinstance(part, Mapping) or "kind" not in part:
            raise SpecError(f"transformation: '{name}' must be a document with a kind")
    rho = parse_rho(doc["rho"], "transformation: 'rho'")
    body = doc["map"]
    if not isinstance(body, Mapping) or "type" not in body:
        raise SpecError("transformation: 'map' must be an object with a 'type'")

    if src_doc["kind"] == "gaussian-scm" or tgt_doc["kind"] == "gaussian-scm":
        if src_doc["kind"] != "gaussian-scm" or tgt_doc["kind"] != "gaussian-scm":
            raise SpecError("transformation: Gaussian endpoints cannot be mixed "
                            "with finite endpoints")
        if body["type"] != "matrix":
            raise SpecError("transformation: Gaussian maps must have type 'matrix'")
        _require(body, ("type", "matrix"), "transformation map",
                 optional=("offset", "cov"))
        source = _gaussian_from_doc(src_doc)
        target = _gaussian_from_doc(tgt_doc)
        d_out, d_in = len(target.coords), len(source.coords)
        matrix = _float_matrix(body["matrix"], (d_out, d_in), "map matrix")
        offset = (_float_vector(body["offset"], d_out, "map offset")
                  if "offset" in body else None)
        cov = (_float_matrix(body["cov"], (d_out, d_out), "map cov")
               if "cov" in body else None)
        # a document names its faults in this order: the map's arrays, rho,
        # then the map as a kernel (its covariance)
        IndexMap(source.coords, target.coords, rho)
        return GaussianTransform(source, target, rho, matrix, offset, cov)

    endpoints = []
    for part, name in ((src_doc, "source"), (tgt_doc, "target")):
        if part["kind"] == "finite-space":
            endpoints.append(_space_from_doc(part))
        elif part["kind"] == "finite-scm":
            endpoints.append(compile_scm(_scm_from_doc(part)))
        else:
            raise SpecError(f"transformation: unsupported {name} kind {part['kind']!r}")
    source, target = endpoints
    rho_map = IndexMap(source.space.names, target.space.names, rho)

    if body["type"] == "deterministic":
        _require(body, ("type", "table"), "transformation map")
        outcome_map = _outcome_table(body["table"], source.space.n_outcomes, target.space,
                                     "transformation: deterministic table")
        return Transformation(source, target, rho_map, outcome_map=outcome_map)
    if body["type"] == "kernel":
        _require(body, ("type", "rows"), "transformation map")
        rows_doc = body["rows"]
        n1, n2 = source.space.n_outcomes, target.space.n_outcomes
        if not isinstance(rows_doc, list) or len(rows_doc) != n1:
            raise SpecError(f"transformation: kernel needs {n1} rows")
        rows = [_weight_row(r, n2, f"map row {i}") for i, r in enumerate(rows_doc)]
        kernel = StochKernel.from_rows(source.space, target.space, rows)
        return Transformation(source, target, rho_map, kernel=kernel)
    raise SpecError(f"transformation: unknown map type {body['type']!r}")


def _transformation_to_doc(t: Transformation) -> dict:
    if t.is_deterministic():
        body = {"type": "deterministic",
                "table": [list(t.target.space.outcome(j)) for j in t.outcome_map]}
    else:
        body = {"type": "kernel",
                "rows": [[rational_str(w) for w in row.weights]
                         for row in t.kernel.rows]}
    return {
        "kind": "transformation",
        "source": _space_to_doc(t.source),
        "target": _space_to_doc(t.target),
        "rho": dict(sorted(t.rho.mapping.items())),
        "map": body,
    }


def _gaussian_transform_to_doc(t: GaussianTransform) -> dict:
    body = {"type": "matrix", "matrix": _floats(t.matrix)}
    if (t.offset != 0).any():
        body["offset"] = _floats(t.offset)
    if (t.cov != 0).any():
        body["cov"] = _floats(t.cov)
    return {
        "kind": "transformation",
        "source": _gaussian_to_doc(t.source),
        "target": _gaussian_to_doc(t.target),
        "rho": dict(sorted(t.rho.items())),
        "map": body,
    }


# -------------------------------------------------------------- public API

_LOADERS = {
    "finite-space": _space_from_doc,
    "finite-measure": _measure_from_doc,
    "finite-scm": _scm_from_doc,
    "gaussian-scm": _gaussian_from_doc,
    "transformation": _transformation_from_doc,
}


def load_document(doc: Mapping) -> Artifact:
    """Domain object from a parsed JSON document; rejects unknown fields."""
    if not isinstance(doc, Mapping):
        raise SpecError(f"expected a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _LOADERS:
        raise SpecError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    return _LOADERS[kind](doc)


def document(obj: Artifact) -> dict:
    """Plain JSON document for a domain object."""
    if isinstance(obj, FiniteCausalSpace):
        return _space_to_doc(obj)
    if isinstance(obj, FiniteMeasure):
        return _measure_to_doc(obj)
    if isinstance(obj, FiniteSCM):
        return _scm_to_doc(obj)
    if isinstance(obj, Transformation):
        return _transformation_to_doc(obj)
    if isinstance(obj, GaussianTransform):
        return _gaussian_transform_to_doc(obj)
    from .gaussian import LinearGaussianSCM

    if isinstance(obj, LinearGaussianSCM):
        return _gaussian_to_doc(obj)
    raise SpecError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(doc: Mapping) -> str:
    """Byte-stable rendering: sorted keys, two-space indent, newline at end."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def dumps(obj: Artifact) -> str:
    return canonical_dumps(document(obj))


def dump(obj: Artifact, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def parse_json(text: str, what: str = "") -> Any:
    """Value of a JSON text; a malformed one raises ``SpecError`` naming ``what``.

    Nesting deeper than the parser's recursion limit and integers longer
    than the interpreter's digit limit are malformed too.
    """
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise SpecError(f"{what}: invalid JSON: {exc}" if what
                        else f"invalid JSON: {exc}") from None


def _read(path: Union[str, Path]) -> str:
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read {p}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecError(f"cannot read {p}: {exc}") from None


def loads(text: str) -> Artifact:
    return load_document(parse_json(text))


def load(path: Union[str, Path]) -> Artifact:
    return loads(_read(path))


def load_abstraction_map(path: Union[str, Path], source: CoordinateSpace
                         ) -> tuple[CoordinateSpace, tuple[int, ...]]:
    """Target space and outcome table of an abstraction-map file over ``source``."""
    doc = parse_json(_read(path), str(path))
    _require(doc, ("target", "table"), "abstraction map")
    target = CoordinateSpace.make(_coord_list(doc["target"], "abstraction map"))
    return target, _outcome_table(doc["table"], source.n_outcomes, target,
                                  "abstraction map: table")
