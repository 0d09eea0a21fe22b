"""Verification engine for causal spaces at two scales.

Finite instances are handled exactly with rational arithmetic: spaces,
measures, kernels, interventions, causal-effect classification, sources,
causal independence, transformations between causal spaces, and the
pushforward construction for surjective deterministic maps.  The
linear-Gaussian scale covers the same transformation checks in closed
form over means and covariances.  Every check returns a structured
report carrying the first violating witness; randomized lemma suites and
exhaustive event-enumeration oracles back the fast implementations.
"""

from .errors import (
    CausalKitError,
    CyclicSCMError,
    InstanceTooLargeError,
    InvalidMechanismError,
    MissingKernelError,
    NotAdmissibleError,
    NotSurjectiveError,
    NullAtomError,
    OutcomeCapError,
    SingularConditioningError,
    SpaceError,
    SpecError,
    WellDefinednessError,
)
from .report import CheckReport, Witness, combine
from .spaces import (
    Coordinate,
    CoordinateSpace,
    Event,
    FiniteMeasure,
    StochKernel,
    atoms,
    is_measurable,
    kernel_compose,
    kernel_product,
    outcome_cap,
    product_space,
    project,
    rename_space,
)
from .causal import (
    EffectClass,
    FiniteCausalSpace,
    causal_spaces_equal,
    causally_independent,
    causally_independent_on,
    classify_effect,
    classify_effect_on,
    independent_pinning_space,
    intervene,
    is_global_source,
    is_source,
    product,
    rename,
    subsets_of,
    validate_causal_space,
)
from .scm import (
    FiniteSCM,
    compile_scm,
    inclusion_transform,
    marginal_space,
    pin,
)
from .transform import (
    IndexMap,
    Pushforward,
    PushforwardIntervention,
    Transformation,
    check_admissible,
    check_all,
    check_distributional,
    check_interventional,
    compose,
    inclusion_into_product,
    is_abstraction,
    is_perfect_abstraction,
    pushforward_intervention,
    pushforward_space,
    rigidity_check,
)
from .tolerance import DEFAULT_TOL
from .oracle import (
    LEMMA_IDS,
    full_event_check,
    lemma_suite,
    pinned_oracle_corpus,
    random_space,
)
from .serialize import (
    GaussianTransform,
    canonical_dumps,
    document,
    dump,
    dumps,
    load,
    load_document,
    loads,
    parse_event_spec,
    parse_rational,
)

# the ``gaussian`` re-exports, resolved on first access (PEP 562) so that
# importing the package, and every finite check, leaves numpy unloaded
_GAUSSIAN = (
    "AffineGaussianKernel",
    "GaussianLaw",
    "LinearGaussianSCM",
    "affine_admissible",
    "check_affine_transform",
    "check_linear_transform",
    "compose_affine",
    "conditional_kernel",
    "faithfulness_demo",
    "interventional_kernel",
    "linear_pushforward",
    "observational_law",
)


def __getattr__(name: str):
    if name not in _GAUSSIAN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import gaussian

    globals().update((n, getattr(gaussian, n)) for n in _GAUSSIAN)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_GAUSSIAN})


__version__ = "0.1.0"

__all__ = [
    "AffineGaussianKernel",
    "CausalKitError",
    "CheckReport",
    "Coordinate",
    "CoordinateSpace",
    "CyclicSCMError",
    "DEFAULT_TOL",
    "EffectClass",
    "Event",
    "FiniteCausalSpace",
    "FiniteMeasure",
    "FiniteSCM",
    "GaussianLaw",
    "GaussianTransform",
    "IndexMap",
    "InstanceTooLargeError",
    "InvalidMechanismError",
    "LEMMA_IDS",
    "LinearGaussianSCM",
    "MissingKernelError",
    "NotAdmissibleError",
    "NotSurjectiveError",
    "NullAtomError",
    "OutcomeCapError",
    "Pushforward",
    "PushforwardIntervention",
    "SingularConditioningError",
    "SpaceError",
    "SpecError",
    "StochKernel",
    "Transformation",
    "WellDefinednessError",
    "Witness",
    "affine_admissible",
    "atoms",
    "canonical_dumps",
    "causal_spaces_equal",
    "causally_independent",
    "causally_independent_on",
    "check_admissible",
    "check_affine_transform",
    "check_all",
    "check_distributional",
    "check_interventional",
    "check_linear_transform",
    "classify_effect",
    "classify_effect_on",
    "combine",
    "compile_scm",
    "compose",
    "compose_affine",
    "conditional_kernel",
    "document",
    "dump",
    "dumps",
    "faithfulness_demo",
    "full_event_check",
    "inclusion_into_product",
    "inclusion_transform",
    "independent_pinning_space",
    "intervene",
    "interventional_kernel",
    "is_abstraction",
    "is_global_source",
    "is_measurable",
    "is_perfect_abstraction",
    "is_source",
    "kernel_compose",
    "kernel_product",
    "lemma_suite",
    "linear_pushforward",
    "load",
    "load_document",
    "loads",
    "marginal_space",
    "observational_law",
    "outcome_cap",
    "parse_event_spec",
    "parse_rational",
    "pin",
    "pinned_oracle_corpus",
    "product",
    "product_space",
    "project",
    "pushforward_intervention",
    "pushforward_space",
    "random_space",
    "rename",
    "rename_space",
    "rigidity_check",
    "subsets_of",
    "validate_causal_space",
]
