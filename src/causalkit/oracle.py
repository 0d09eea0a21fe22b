"""Brute-force oracles and randomized lemma suites.

The generator-level checks elsewhere in the package reduce event
quantifiers to atoms wherever both sides are measures.  The oracles here
deliberately do not: they enumerate every event (or every pair of atom
unions) and recompute each identity from the raw weight tables, scaled to
integers over a common denominator so the sweeps stay exact.  Agreement
with the generator-level verdict is the contract; a disagreement is a
defect, never noise.

The lemma suites build random instances that satisfy each lemma's
hypotheses by construction (product factors, block-structured abstractions,
ancestrally closed pin sets), check the lemma's conclusion, and report
failures with the trial seed.  Instances a lemma does not speak about are
logged as not covered, never asserted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from random import Random
from typing import Callable, Iterable, Optional

from .causal import (
    FiniteCausalSpace,
    causally_independent_on,
    classify_effect_on,
    EffectClass,
    independent_pinning_space,
    is_source,
    product,
    subsets_of,
    validate_causal_space,
)
from .errors import InstanceTooLargeError
from .report import CheckReport, Witness, combine
from .scm import FiniteSCM, compile_scm, inclusion_transform
from .spaces import (
    ZERO,
    CoordinateSpace,
    FiniteMeasure,
    StochKernel,
    atoms,
)
from .transform import (
    IndexMap,
    Transformation,
    _pushforward,
    check_all,
    check_distributional,
    check_interventional,
    compose,
    inclusion_into_product,
    pushforward_intervention,
    rigidity_check,
)

MAX_ORACLE_OUTCOMES = 12
MAX_PAIR_ATOMS = 16
MAX_SCALED_SUM = 1 << 62
SEED_STRIDE = 1_000_003
ABSTRACTION_BUDGET = 24


def _guard(space: CoordinateSpace) -> None:
    if space.n_outcomes > MAX_ORACLE_OUTCOMES:
        raise InstanceTooLargeError(
            f"{space.n_outcomes} outcomes exceed the exhaustive bound "
            f"{MAX_ORACLE_OUTCOMES}")


def _scaled(rows: Iterable[Iterable[Fraction]]) -> list[list[int]]:
    """Scale fraction tables to integers over one common denominator."""
    rows = [list(r) for r in rows]
    denom = reduce(lcm, (w.denominator for r in rows for w in r), 1)
    out = [[int(w * denom) for w in r] for r in rows]
    if any(sum(map(abs, r)) >= MAX_SCALED_SUM for r in out):
        raise InstanceTooLargeError("weights too fine for an exact integer sweep")
    return out


def _subset_sums(values: list[int]) -> list[int]:
    """f[mask] = sum of values over the set bits of mask, for every mask."""
    out = [0] * (1 << len(values))
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = out[mask ^ low] + values[low.bit_length() - 1]
    return out


def _union_masks(parts: list[int]) -> list[int]:
    """u[mask] = bitwise union of the given part masks selected by mask."""
    out = [0] * (1 << len(parts))
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = out[mask ^ low] | parts[low.bit_length() - 1]
    return out


def _oracle_axioms(c: FiniteCausalSpace) -> tuple[bool, str]:
    """Both kernel axioms swept over every event quadruple.

    Axiom (i) compares the empty kernel with the base measure on all 2^n
    events.  Axiom (ii) checks K_S(omega, A & B) = 1_A(omega) K_S(omega, B)
    for every subset S, every atom row, every A in H_S and every event B,
    via integer subset sums over each row.
    """
    import numpy as np

    _guard(c.space)
    every = np.arange(1 << c.space.n_outcomes, dtype=np.int64)
    k0, p = _scaled([c.kernel(()).rows[0].weights, c.P.weights])
    if _subset_sums(k0) != _subset_sums(p):
        return False, "axiom (i): empty kernel differs from the base measure"
    for subset in subsets_of(c.space.names):
        if not subset:
            continue
        k = c.kernel(subset)
        a_events = _union_masks([a.mask for a in atoms(c.space, subset)])
        for row_idx, row in enumerate(k.rows):
            f = np.asarray(_subset_sums(_scaled([row.weights])[0]), dtype=np.int64)
            for amask, a_outcomes in enumerate(a_events):
                lhs = f[np.bitwise_and(a_outcomes, every)]
                if (amask >> row_idx) & 1:
                    ok = np.array_equal(lhs, f)
                else:
                    ok = not lhs.any()
                if not ok:
                    return False, (f"axiom (ii) fails at S={subset}, "
                                   f"row {k.domain.outcome(row_idx)}")
    return True, "both axioms hold on every event"


def _oracle_distributional(t: Transformation) -> tuple[bool, str]:
    """Pushforward identity on every target event."""
    _guard(t.target.space)
    kappa = t.kernel.rows
    n2 = t.target.space.n_outcomes
    pushed = [ZERO] * n2
    for i in range(t.source.space.n_outcomes):
        wi = t.source.P.weights[i]
        for j in range(n2):
            pushed[j] += wi * kappa[i].weights[j]
    a, b = _scaled([pushed, t.target.P.weights])
    if _subset_sums(a) != _subset_sums(b):
        return False, "pushed measure differs from the target on some event"
    return True, "pushforward matches the target measure on every event"


def _oracle_interventional(t: Transformation) -> tuple[bool, str]:
    """Both intervention routes on every event of the image sigma-algebra."""
    _guard(t.source.space)
    _guard(t.target.space)
    kappa = t.kernel.rows
    n1, n2 = t.source.space.n_outcomes, t.target.space.n_outcomes
    image_atoms = atoms(t.target.space, t.rho.image())
    for subset in subsets_of(t.rho.image()):
        pre = t.rho.preimage(subset)
        k1 = t.source.kernel(pre)
        k2 = t.target.kernel(subset)
        for i in range(n1):
            row1 = k1.rows[t.source.space.project_index(i, k1.domain.names)]
            lhs = [ZERO] * n2
            for ip in range(n1):
                w = row1.weights[ip]
                if w != 0:
                    for j in range(n2):
                        lhs[j] += w * kappa[ip].weights[j]
            rhs = [ZERO] * n2
            for j in range(n2):
                w = kappa[i].weights[j]
                if w != 0:
                    row2 = k2.rows[t.target.space.project_index(j, k2.domain.names)]
                    for jp in range(n2):
                        rhs[jp] += w * row2.weights[jp]
            lhs_atoms = [sum((lhs[j] for j in a.indices()), ZERO) for a in image_atoms]
            rhs_atoms = [sum((rhs[j] for j in a.indices()), ZERO) for a in image_atoms]
            a, b = _scaled([lhs_atoms, rhs_atoms])
            if _subset_sums(a) != _subset_sums(b):
                return False, (f"routes differ at S={subset}, "
                               f"omega={t.source.space.outcome(i)}")
    return True, "both routes agree on every image event"


def _pair_guard(na: int, nb: int) -> None:
    if na + nb > MAX_PAIR_ATOMS:
        raise InstanceTooLargeError(
            f"{na} + {nb} atoms exceed the pair-sweep bound {MAX_PAIR_ATOMS}")


def _oracle_causal_independence(c: FiniteCausalSpace, on: Iterable[str],
                                first: Iterable[str], second: Iterable[str]
                                ) -> tuple[bool, str]:
    """Product identity on every pair of atom unions.

    For each conditioning row the kernel masses of the cells
    atom_i & atom_j are tabulated; K(A & B) = K(A) K(B) then follows from
    row, column, and cell subset sums for every union pair.
    """
    _guard(c.space)
    atoms_a = atoms(c.space, first)
    atoms_b = atoms(c.space, second)
    na, nb = len(atoms_a), len(atoms_b)
    _pair_guard(na, nb)
    k = c.kernel(frozenset(on))
    for row in k.rows:
        cells = [[row.mass(a & b) for b in atoms_b] for a in atoms_a]
        row_sums = [sum(r, ZERO) for r in cells]
        col_sums = [sum(col, ZERO) for col in zip(*cells)]
        scaled = _scaled(cells + [row_sums, col_sums])
        m = scaled[:na]
        r_sos = _subset_sums(scaled[na])
        c_sos = _subset_sums(scaled[na + 1])
        denom = r_sos[-1]  # the scaled total mass, i.e. the denominator
        col_sos = [_subset_sums([m[a][b] for a in range(na)]) for b in range(nb)]
        for ma in range(1 << na):
            joint = _subset_sums([col_sos[b][ma] for b in range(nb)])
            for mb in range(1 << nb):
                # scaled identity: D K(A & B) . D == (D K(A)) (D K(B))
                if joint[mb] * denom != r_sos[ma] * c_sos[mb]:
                    return False, "product identity fails for some union pair"
    return True, "product identity holds on every union pair"


def _oracle_sources(c: FiniteCausalSpace, on: Iterable[str],
                    target: Iterable[str]) -> tuple[bool, str]:
    """Conditional-probability property checked by its defining integrals.

    K_U(., A) is a version of P(A | H_U) iff for every A in H_V and every
    B in H_U the integral over B of K_U(., A) dP equals P(A & B).  Both
    sides are tabulated per atom cell by summing outcomes one by one, then
    swept over every union pair.
    """
    _guard(c.space)
    u = tuple(sorted(frozenset(on)))
    atoms_u = atoms(c.space, u)
    atoms_v = atoms(c.space, target)
    nu, nv = len(atoms_u), len(atoms_v)
    _pair_guard(nu, nv)
    k = c.kernel(u)
    lhs_cells = [[ZERO] * nv for _ in range(nu)]
    rhs_cells = [[ZERO] * nv for _ in range(nu)]
    for bu, atom_u in enumerate(atoms_u):
        for i in atom_u.indices():
            w = c.P.weights[i]
            row = k.rows[c.space.project_index(i, k.domain.names)]
            for av, atom_v in enumerate(atoms_v):
                lhs_cells[bu][av] += w * row.mass(atom_v)
                if atom_v.contains(i):
                    rhs_cells[bu][av] += w
    scaled = _scaled(lhs_cells + rhs_cells)
    lhs_rows = [_subset_sums(r) for r in scaled[:nu]]
    rhs_rows = [_subset_sums(r) for r in scaled[nu:]]
    for mu in range(1 << nu):
        for mv in range(1 << nv):
            lhs = sum(lhs_rows[b][mv] for b in range(nu) if (mu >> b) & 1)
            rhs = sum(rhs_rows[b][mv] for b in range(nu) if (mu >> b) & 1)
            if lhs != rhs:
                return False, "integral identity fails for some union pair"
    return True, "integral identity holds on every union pair"


def _oracle_effect(c: FiniteCausalSpace, on: Iterable[str],
                   target: Iterable[str]) -> tuple[str, str]:
    """Effect trichotomy evaluated over every event of H_V.

    Computes the tag from the raw definitions: active if some event and
    outcome see K_U differ from P, no effect if every subset S and every
    outcome agree with S minus U on every event, dormant otherwise.
    """
    _guard(c.space)
    U = frozenset(on)
    atoms_v = atoms(c.space, target)
    nv = len(atoms_v)
    k_u = c.kernel(U)
    base = [c.P.mass(a) for a in atoms_v]
    u_rows = [[row.mass(a) for a in atoms_v] for row in k_u.rows]
    diffs = []
    for subset in subsets_of(c.space.names):
        s = frozenset(subset)
        if s - U == s:
            continue
        k_s = c.kernel(s)
        k_r = c.kernel(s - U)
        r_sub = c.space.restrict(s - U)
        for a in range(k_s.domain.n_outcomes):
            vals = dict(zip(k_s.domain.names, k_s.domain.outcome(a)))
            r = r_sub.index(tuple(vals[n] for n in r_sub.names))
            diffs.append([k_s.rows[a].mass(av) - k_r.rows[r].mass(av)
                          for av in atoms_v])
    scaled = _scaled([base] + u_rows + diffs)
    base_s = _subset_sums(scaled[0])
    u_s = [_subset_sums(r) for r in scaled[1:1 + len(u_rows)]]
    diff_s = [_subset_sums(r) for r in scaled[1 + len(u_rows):]]
    active = any(us[m] != base_s[m] for us in u_s for m in range(1 << nv))
    untouched = all(ds[m] == 0 for ds in diff_s for m in range(1 << nv))
    if active:
        tag = EffectClass.ACTIVE
    elif untouched:
        tag = EffectClass.NO_EFFECT
    else:
        tag = EffectClass.DORMANT
    return tag, f"full-event classification: {tag}"


def full_event_check(predicate: str, *args) -> CheckReport:
    """Run one exhaustive oracle and compare with the generator-level verdict.

    Predicates: axioms (causal space), distributional and interventional
    (transformation), causal-independence (space, U, V1, V2), sources
    (space, U, V) and effect-classification (space, U, V).  Agreement is
    the only acceptable outcome; a failed report here is a defect in the
    package, not in the instance.
    """
    if predicate == "axioms":
        (c,) = args
        fast = validate_causal_space(c).passed
        slow, note = _oracle_axioms(c)
    elif predicate == "distributional":
        (t,) = args
        fast = check_distributional(t).passed
        slow, note = _oracle_distributional(t)
    elif predicate == "interventional":
        (t,) = args
        fast = check_interventional(t).passed
        slow, note = _oracle_interventional(t)
    elif predicate == "causal-independence":
        c, on, v1, v2 = args
        fast = causally_independent_on(c, on, v1, v2)
        slow, note = _oracle_causal_independence(c, on, v1, v2)
    elif predicate == "sources":
        c, on, v = args
        fast = is_source(c, on, v).passed
        slow, note = _oracle_sources(c, on, v)
    elif predicate == "effect-classification":
        c, on, v = args
        fast = classify_effect_on(c, on, v).tag
        slow, note = _oracle_effect(c, on, v)
    else:
        raise ValueError(f"unknown predicate {predicate!r}")
    agree = fast == slow
    return CheckReport(
        check=f"oracle:{predicate}",
        passed=agree,
        witness=None if agree else Witness(
            message=f"generator-level says {fast!r}, full enumeration says {slow!r}"),
        details=(note, f"generator-level verdict: {fast!r}"),
    )


# ---------------------------------------------------------------------------
# random instance generation


def _random_weights(rng: Random, k: int) -> tuple[Fraction, ...]:
    raw = [rng.randint(1, 4) for _ in range(k)]
    total = sum(raw)
    return tuple(Fraction(r, total) for r in raw)


def _draw_cards(rng: Random, remaining: int) -> list[int]:
    """Cardinalities for one factor, its outcome count capped by ``remaining``."""
    if remaining >= 4 and rng.random() < 0.6:
        c1 = rng.randint(2, 3)
        cap = min(3, remaining // c1)
        if cap >= 2:
            return [c1, rng.randint(2, cap)]
        return [c1]
    return [rng.randint(2, min(3, remaining))]


def _random_scm(rng: Random, prefix: str, cards: Optional[list[int]] = None,
                n_vars: Optional[int] = None, shifted: bool = False) -> FiniteSCM:
    """Random acyclic model; ``shifted`` keeps every atom reachable.

    Shifted mechanisms compute (g(parents) + noise) mod card with the noise
    ranging over the whole domain on positive weights, so every value of
    every variable keeps positive probability under any parent values.
    """
    if cards is None:
        n = n_vars if n_vars is not None else rng.randint(1, 3)
        cards = [rng.randint(2, 3) for _ in range(n)]
    names = [f"{prefix}{i}" for i in range(len(cards))]
    card_of = dict(zip(names, cards))
    parents = {}
    for i, v in enumerate(names):
        pool = names[:i]
        rng.shuffle(pool)
        parents[v] = tuple(sorted(pool[:rng.randint(0, min(2, len(pool)))]))
    noises = {}
    mechanisms = {}
    for v in names:
        n_parent_rows = 1
        for p in parents[v]:
            n_parent_rows *= card_of[p]
        if shifted:
            noise_card = card_of[v]
            base = [rng.randrange(card_of[v]) for _ in range(n_parent_rows)]
            table = [(b + nz) % card_of[v] for b in base for nz in range(noise_card)]
        else:
            noise_card = rng.randint(2, 3)
            table = [rng.randrange(card_of[v])
                     for _ in range(n_parent_rows * noise_card)]
        noises[v] = _random_weights(rng, noise_card)
        mechanisms[v] = tuple(table)
    return FiniteSCM.build(
        variables=[(v, card_of[v]) for v in names],
        parents=parents,
        noises=noises,
        mechanisms=mechanisms,
    )


def _tampered(c: FiniteCausalSpace, subset: Iterable[str], row: int, src: int,
              dst: int) -> FiniteCausalSpace:
    """``c`` with every kernel tabulated, half of the weight of row ``row``
    of K_subset on outcome ``src`` moved to outcome ``dst``."""
    table = {frozenset(s): c.kernel(s) for s in c.subsets()}
    k = table[frozenset(subset)]
    w = list(k.rows[row].weights)
    shift = w[src] / 2
    w[src] -= shift
    w[dst] += shift
    rows = list(k.rows)
    rows[row] = FiniteMeasure(c.space, tuple(w))
    table[frozenset(subset)] = StochKernel(k.domain, c.space, tuple(rows))
    return FiniteCausalSpace(c.space, c.P, kernels=table)


def random_space(seed: int, n_coords: Optional[int] = None,
                 perturb: Optional[str] = None) -> FiniteCausalSpace:
    """Deterministic random causal space; optionally tampered.

    ``perturb="axiom-i"`` rewires the empty kernel away from the base
    measure; ``perturb="axiom-ii"`` moves kernel mass off a fiber.  Tampered
    spaces are tabulated so the damage survives inspection.
    """
    rng = Random(seed)
    scm = _random_scm(rng, "V", n_vars=n_coords, shifted=True)
    space = compile_scm(scm)
    if perturb is None:
        return space
    sp = space.space
    if perturb == "axiom-i":
        i = next(i for i, w in enumerate(space.P.weights) if w > 0)
        return _tampered(space, (), 0, i, (i + 1) % sp.n_outcomes)
    if perturb == "axiom-ii":
        name = sorted(sp.names)[0]
        fiber = atoms(sp, (name,))[0]
        row0 = space.kernel((name,)).rows[0].weights
        inside = next(i for i in fiber.indices() if row0[i] > 0)
        outside = next(i for i in range(sp.n_outcomes) if not fiber.contains(i))
        return _tampered(space, (name,), 0, inside, outside)
    raise ValueError(f"unknown perturbation {perturb!r}")


# ---------------------------------------------------------------------------
# block-structured abstractions for the lemma suites


class _AbstractionInstance:
    """Source space with block structure, its pushforward, and bookkeeping.

    ``target_blocks`` groups target coordinates that came from one factor,
    ``factor_of`` maps each target coordinate to its factor index, and
    ``ancestors`` maps each source variable to its strict ancestors within
    its factor's model.
    """

    def __init__(self, source, transformation, target_blocks, factor_of, ancestors):
        self.source = source
        self.t = transformation
        self.target = transformation.target
        self.target_blocks = target_blocks
        self.factor_of = factor_of
        self.ancestors = ancestors


def _edge_scm(rng: Random, prefix: str) -> FiniteSCM:
    """Two binary variables with a guaranteed active edge P -> C."""
    return FiniteSCM.build(
        variables=[(f"{prefix}P", 2), (f"{prefix}C", 2)],
        parents={f"{prefix}P": (), f"{prefix}C": (f"{prefix}P",)},
        noises={f"{prefix}P": _random_weights(rng, 2),
                f"{prefix}C": (Fraction(3, 4), Fraction(1, 4))},
        mechanisms={f"{prefix}P": (0, 1), f"{prefix}C": (0, 1, 1, 0)},
    )


def _block_map(rng: Random, space: CoordinateSpace, blocks: Iterable[tuple[str, ...]],
               prefix: str, keep_first: bool = False):
    """Surjective (target space, outcome table, rho, target blocks) over
    disjoint blocks of ``space``'s coordinates.

    Each block, in order, is either collapsed by an arbitrary surjection onto
    one coordinate ``{prefix}{block number}``, or kept coordinate by
    coordinate under value bijections, each ``v`` renamed ``{v}m``.  A coin
    picks the shape; ``keep_first`` keeps the first block whatever the coin
    says.
    """
    coords: list[tuple[str, int]] = []
    columns: list[list[int]] = []  # per target coordinate: its value at each outcome
    rho_map: dict[str, str] = {}
    target_blocks: list[tuple[str, ...]] = []
    for bi, block in enumerate(blocks):
        collapse = rng.random() < 0.5 and not (keep_first and bi == 0)
        if collapse:
            proj = space.projector(block)
            size = proj.sub.n_outcomes
            card = rng.randint(2, size)
            # hit every value once, then fill freely: surjective by design
            img = list(range(card)) + [rng.randrange(card) for _ in range(size - card)]
            rng.shuffle(img)
            name = f"{prefix}{bi}"
            coords.append((name, card))
            columns.append([img[a] for a in proj.index])
            for v in block:
                rho_map[v] = name
            target_blocks.append((name,))
        else:
            for v in block:
                card = space.cards[space.position(v)]
                perm = list(range(card))
                rng.shuffle(perm)
                rho_map[v] = f"{v}m"
                coords.append((rho_map[v], card))
                columns.append([perm[x] for x in space.projector((v,)).index])
            target_blocks.append(tuple(rho_map[v] for v in block))
    target_space = CoordinateSpace.make(coords)
    table = tuple(target_space.index(vals) for vals in zip(*columns))
    rho = IndexMap(source=space.names, target=target_space.names, mapping=rho_map)
    return target_space, table, rho, target_blocks


def _random_abstraction(rng: Random, n_factors: Optional[int] = None,
                        shifted: bool = False,
                        edge_factor: bool = False) -> _AbstractionInstance:
    """Random perfect abstraction built to satisfy the pushforward conditions.

    The source is a product of independently compiled factors.  Each factor
    is either collapsed to a single target coordinate by an arbitrary
    surjection (safe: the pinned sets are whole factors, whose kernels are
    Dirac blocks) or kept coordinate-by-coordinate under value bijections
    (safe: images determine pinned values).  Both shapes make the kernel
    measurability condition hold by construction.  The pushforward is built
    unreported; the pushforward-uniqueness trial checks that it exists.
    """
    want = n_factors if n_factors is not None else rng.randint(1, 3)
    scms: list[FiniteSCM] = []
    factors: list[FiniteCausalSpace] = []
    total = 1
    for i in range(want):
        remaining = ABSTRACTION_BUDGET // total
        if remaining < 2:
            break
        if edge_factor and i == 0:
            scm = _edge_scm(rng, "F0")
        else:
            scm = _random_scm(rng, f"F{i}V", cards=_draw_cards(rng, remaining),
                              shifted=shifted)
        scms.append(scm)
        factor = compile_scm(scm)
        factors.append(factor)
        total *= factor.space.n_outcomes

    source = factors[0]
    for f in factors[1:]:
        source = product(source, f)

    target_space, table, rho, target_blocks = _block_map(
        rng, source.space, [scm.names for scm in scms], "G", keep_first=edge_factor)
    factor_of = {name: i for i, block in enumerate(target_blocks) for name in block}
    t = _pushforward(source, table, rho, target_space)

    ancestors: dict[str, frozenset] = {}
    for scm in scms:
        for v in scm.names:
            seen: set = set()
            frontier = set(scm.parents[v])
            while frontier:
                p = frontier.pop()
                if p not in seen:
                    seen.add(p)
                    frontier.update(scm.parents[p])
            ancestors[v] = frozenset(seen)

    return _AbstractionInstance(source, t, tuple(target_blocks), factor_of, ancestors)


def _random_abstraction_on(rng: Random, inst: _AbstractionInstance) -> Transformation:
    """Second-level abstraction respecting the block structure of a target.

    Blocks of the first target are the only independent units its kernels
    expose, so second-level groups either collapse a whole block or relabel
    its coordinates, mirroring the first level.  As at the first level, the
    pushforward is built unreported; the composition trial checks the
    composite.
    """
    target_space, table, rho, _ = _block_map(rng, inst.target.space, inst.target_blocks, "H")
    return _pushforward(inst.target, table, rho, target_space)


# ---------------------------------------------------------------------------
# lemma suites


def _pass(note: str = "") -> CheckReport:
    return CheckReport(check="trial", passed=True,
                       details=(note,) if note else ())


def _skip(note: str) -> CheckReport:
    return CheckReport(check="trial", passed=True, details=(f"not covered: {note}",))


def _fail(report: CheckReport, *notes: str) -> CheckReport:
    return CheckReport(check="trial", passed=False, witness=report.witness,
                       details=notes + report.details)


def _product_factors(rng: Random) -> tuple[FiniteCausalSpace, FiniteCausalSpace]:
    """Two compiled models, the second drawn within what the first leaves of
    the abstraction budget."""
    a = compile_scm(_random_scm(rng, "A", cards=_draw_cards(rng, 9)))
    b = compile_scm(_random_scm(
        rng, "B", cards=_draw_cards(rng, ABSTRACTION_BUDGET // a.space.n_outcomes)))
    return a, b


def _trial_product_validity(rng: Random) -> CheckReport:
    report = validate_causal_space(product(*_product_factors(rng)))
    return _pass() if report.passed else _fail(report)


def _trial_product_effects(rng: Random) -> CheckReport:
    a, b = _product_factors(rng)
    both = product(a, b)
    u = tuple(sorted(rng.sample(a.space.names, rng.randint(1, len(a.space.names)))))
    v = tuple(sorted(rng.sample(b.space.names, rng.randint(1, len(b.space.names)))))
    for on, tgt in ((u, v), (v, u)):
        effect = classify_effect_on(both, on, tgt)
        if effect.tag != EffectClass.NO_EFFECT:
            return CheckReport(
                check="trial", passed=False, witness=effect.witness,
                details=(f"expected no effect of {on} on {tgt}, got {effect.tag}",))
        src = is_source(both, on, tgt)
        if not src.passed:
            return _fail(src, f"{on} should be a source of {tgt} across factors")
    return _pass()


def _trial_composition(rng: Random) -> CheckReport:
    inst = _random_abstraction(rng)
    second = _random_abstraction_on(rng, inst)
    _, report = compose(inst.t, second)
    return _pass() if report.passed else _fail(report)


def _trial_scm_inclusion(rng: Random) -> CheckReport:
    scm = _random_scm(rng, "V", n_vars=rng.randint(2, 3), shifted=True)
    names = list(scm.names)
    keep = tuple(sorted(rng.sample(names, rng.randint(1, len(names)))))
    report = check_all(inclusion_transform(scm, keep))
    return _pass() if report.passed else _fail(report)


def _trial_rigidity(rng: Random) -> CheckReport:
    c1 = compile_scm(_random_scm(rng, "A", cards=_draw_cards(rng, 6)))
    c2 = compile_scm(_random_scm(rng, "B", cards=_draw_cards(rng, 6)))
    t1 = inclusion_into_product(c1, c2)
    same = rng.random() < 0.25
    t2 = t1 if same else inclusion_into_product(c1, independent_pinning_space(c2.P))
    for t in (t1,) if same else (t1, t2):
        pre = check_all(t)
        if not pre.passed:
            return _fail(pre, "inclusion into the product is not a transformation")
    report = rigidity_check(t1, t2)
    return _pass() if report.passed else _fail(report)


def _trial_pushforward_uniqueness(rng: Random) -> CheckReport:
    inst = _random_abstraction(rng)
    # existence: the constructed target is a causal space making (f, rho) a
    # transformation
    exists = combine("pushforward", [validate_causal_space(inst.target), check_all(inst.t)])
    if not exists.passed:
        return _fail(exists, "constructed pushforward is not a causal transformation")
    # uniqueness: move target kernel mass inside a fiber and demand a failure
    target = inst.target
    sp = target.space
    for subset in subsets_of(sp.names):
        if not subset:
            continue
        k = target.kernel(subset)
        for a in range(k.domain.n_outcomes):
            fiber = atoms(sp, subset)[a]
            inside = list(fiber.indices())
            if len(inside) < 2:
                continue
            w = k.rows[a].weights
            src = next(i for i, x in enumerate(w) if x > 0)
            moved = next((i for i in inside if w[i] == 0), None)
            if moved is None:
                moved = next(i for i in inside if i != src)
            t_alt = Transformation(source=inst.source,
                                   target=_tampered(target, subset, a, src, moved),
                                   rho=inst.t.rho, outcome_map=inst.t.outcome_map)
            if check_all(t_alt).passed:
                return CheckReport(
                    check="trial", passed=False,
                    witness=Witness(message=(
                        f"tampered target at S={subset} still passes every check, "
                        f"contradicting uniqueness")))
            return _pass("tampered target rejected as required")
    return _skip("every fiber is a singleton, no room to tamper")


def _trial_intervention_commutes(rng: Random) -> CheckReport:
    inst = _random_abstraction(rng)
    names2 = inst.target.space.names
    u2 = tuple(sorted(rng.sample(names2, rng.randint(1, len(names2)))))
    u1_space = inst.source.space.restrict(inst.t.rho.preimage(u2))
    q1 = FiniteMeasure(u1_space, _random_weights(rng, u1_space.n_outcomes))
    done = pushforward_intervention(
        inst.source, inst.t.outcome_map, inst.t.rho, inst.target.space, u2, q1)
    return _pass() if done.report.passed else _fail(done.report)


def _trial_noeffect_preserved(rng: Random) -> CheckReport:
    inst = _random_abstraction(rng, n_factors=rng.randint(2, 3))
    by_factor: dict[int, list[str]] = {}
    for name in inst.target.space.names:
        by_factor.setdefault(inst.factor_of[name], []).append(name)
    fa, fb = rng.sample(sorted(by_factor), 2)
    u2 = tuple(sorted(rng.sample(by_factor[fa], rng.randint(1, len(by_factor[fa])))))
    v2 = tuple(sorted(rng.sample(by_factor[fb], rng.randint(1, len(by_factor[fb])))))
    u1 = tuple(sorted(inst.t.rho.preimage(u2)))
    v1 = tuple(sorted(inst.t.rho.preimage(v2)))
    upstream = classify_effect_on(inst.source, u1, v1)
    if upstream.tag != EffectClass.NO_EFFECT:
        return CheckReport(
            check="trial", passed=False, witness=upstream.witness,
            details=("cross-factor pair unexpectedly has an effect upstream",))
    downstream = classify_effect_on(inst.target, u2, v2)
    if downstream.tag != EffectClass.NO_EFFECT:
        return CheckReport(
            check="trial", passed=False, witness=downstream.witness,
            details=(f"no effect of {u1} on {v1} upstream but {downstream.tag} "
                     f"of {u2} on {v2} downstream",))
    return _pass()


def _trial_active_reflected(rng: Random) -> CheckReport:
    inst = _random_abstraction(rng, n_factors=rng.randint(1, 2), edge_factor=True)
    names2 = list(inst.target.space.names)
    u2 = set(rng.sample(names2, rng.randint(1, len(names2))))
    v2 = set(rng.sample(names2, rng.randint(1, len(names2))))
    if rng.random() < 0.5:
        # steer towards the built-in edge to keep coverage high
        u2.add(inst.t.rho.mapping["F0P"])
        v2.add(inst.t.rho.mapping["F0C"])
    u2, v2 = tuple(sorted(u2)), tuple(sorted(v2))
    downstream = classify_effect_on(inst.target, u2, v2)
    if downstream.tag != EffectClass.ACTIVE:
        return _skip(f"downstream effect is {downstream.tag}, lemma silent")
    u1 = tuple(sorted(inst.t.rho.preimage(u2)))
    v1 = tuple(sorted(inst.t.rho.preimage(v2)))
    upstream = classify_effect_on(inst.source, u1, v1)
    if upstream.tag != EffectClass.ACTIVE:
        return CheckReport(
            check="trial", passed=False, witness=downstream.witness,
            details=(f"active downstream on {u2} -> {v2} but {upstream.tag} upstream",))
    return _pass()


def _trial_sources_preserved(rng: Random) -> CheckReport:
    inst = _random_abstraction(rng, shifted=True)
    names2 = list(inst.target.space.names)
    u2 = set(rng.sample(names2, rng.randint(1, len(names2))))
    # close the preimage under ancestors, lifting each missing ancestor to
    # its image coordinate; an ancestrally closed pin set conditions exactly
    while True:
        u1 = inst.t.rho.preimage(u2)
        need = {inst.t.rho.mapping[a] for v in u1 for a in inst.ancestors[v]}
        if need <= u2:
            break
        u2 |= need
    u2 = tuple(sorted(u2))
    u1 = tuple(sorted(inst.t.rho.preimage(u2)))
    v2 = tuple(sorted(rng.sample(names2, rng.randint(1, len(names2)))))
    v1 = tuple(sorted(inst.t.rho.preimage(v2)))
    upstream = is_source(inst.source, u1, v1)
    if not upstream.passed:
        return _fail(upstream, f"ancestrally closed {u1} is unexpectedly not a source")
    downstream = is_source(inst.target, u2, v2)
    if not downstream.passed:
        return _fail(downstream,
                     f"{u1} is a source upstream but {u2} is not downstream")
    return _pass()


_TRIALS: dict[str, Callable[[Random], CheckReport]] = {
    "product-validity": _trial_product_validity,
    "product-effects": _trial_product_effects,
    "composition": _trial_composition,
    "scm-inclusion": _trial_scm_inclusion,
    "rigidity": _trial_rigidity,
    "pushforward-uniqueness": _trial_pushforward_uniqueness,
    "intervention-commutes": _trial_intervention_commutes,
    "noeffect-preserved": _trial_noeffect_preserved,
    "active-reflected": _trial_active_reflected,
    "sources-preserved": _trial_sources_preserved,
}

LEMMA_IDS = tuple(sorted(_TRIALS))


def lemma_suite(lemma_id: str, trials: int = 100, seed: int = 0) -> CheckReport:
    """Run one lemma's randomized suite; failures carry their trial seed.

    Instances satisfy the lemma's hypotheses by construction; trials the
    lemma does not cover are counted and logged but never asserted.  The
    outcome is reproducible from (lemma_id, trials, seed).  A negative
    ``trials`` raises ``ValueError``.
    """
    try:
        trial = _TRIALS[lemma_id]
    except KeyError:
        raise ValueError(f"unknown lemma id {lemma_id!r}; "
                         f"known: {', '.join(LEMMA_IDS)}") from None
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    failures: list[CheckReport] = []
    skipped = 0
    for i in range(trials):
        child = seed * SEED_STRIDE + i
        result = trial(Random(child))
        if not result.passed:
            failures.append(CheckReport(
                check=f"{lemma_id}[trial {i}, seed {child}]",
                passed=False,
                witness=result.witness,
                details=result.details,
            ))
        elif any(d.startswith("not covered") for d in result.details):
            skipped += 1
    details = (
        f"{trials} trials, {trials - skipped - len(failures)} covered and passed, "
        f"{skipped} not covered, {len(failures)} failed",
    )
    return CheckReport(
        check=f"lemma:{lemma_id}",
        passed=not failures,
        witness=failures[0].witness if failures else None,
        details=details,
        subreports=tuple(failures),
    )


# ---------------------------------------------------------------------------
# pinned oracle corpus


def _corpus_instances() -> list[tuple[str, tuple]]:
    """Twenty-five fixed instances, each a (name, full_event_check args) pair.

    Sizes stay within the exhaustive bounds, and both passing and failing
    generator verdicts are represented so agreement is checked from both
    sides of every predicate.
    """
    from . import examples

    xor = compile_scm(examples.xor_scm())
    parity = compile_scm(examples.parity_scm())
    fork = compile_scm(examples.fork_scm())
    collider = compile_scm(examples.collider_scm())
    comp = compile_scm(examples.composition_scm())
    coin = examples.coin_space()
    indep = examples.faithfulness_independent_space()

    # a transformation with a deliberately wrong target measure
    bad_target = FiniteCausalSpace(
        coin.space,
        FiniteMeasure.from_weights(coin.space, [Fraction(1, 3), Fraction(2, 3)]),
        kernels={frozenset(s): coin.kernel(s) for s in coin.subsets()},
    )
    skew = Transformation(
        source=coin, target=bad_target,
        rho=IndexMap(("C",), ("C",), {"C": "C"}),
        outcome_map=(0, 1),
    )

    # identity on the xor system but with a tampered target kernel
    xor_tab = xor.materialize()
    xor_kernels = {frozenset(s): xor_tab.kernel(s) for s in xor_tab.subsets()}
    kx = xor_kernels[frozenset({"X"})]
    rows = list(kx.rows)
    w = list(rows[0].weights)
    w[0], w[1] = w[1], w[0]
    rows[0] = FiniteMeasure(xor_tab.space, tuple(w))
    xor_kernels[frozenset({"X"})] = StochKernel(kx.domain, xor_tab.space, tuple(rows))
    xor_twisted = FiniteCausalSpace(xor_tab.space, xor_tab.P, kernels=xor_kernels)
    twisted_t = Transformation(
        source=xor, target=xor_twisted,
        rho=IndexMap(xor.space.names, xor.space.names,
                     {n: n for n in xor.space.names}),
        outcome_map=tuple(range(xor.space.n_outcomes)),
    )

    xor_in = inclusion_transform(examples.xor_scm(), ("X",))
    parity_in = inclusion_transform(examples.parity_scm(), ("X", "Z"))
    coin_incl = inclusion_into_product(coin, xor)

    return [
        ("axioms: xor system", ("axioms", xor)),
        ("axioms: parity system", ("axioms", parity)),
        ("axioms: fork system", ("axioms", fork)),
        ("axioms: collider system", ("axioms", collider)),
        ("axioms: two-cause system", ("axioms", comp)),
        ("axioms: pinning space", ("axioms", indep)),
        ("axioms: random system", ("axioms", random_space(11, n_coords=2))),
        ("axioms: tampered base measure",
         ("axioms", random_space(12, n_coords=2, perturb="axiom-i"))),
        ("axioms: mass off the fiber",
         ("axioms", random_space(13, n_coords=2, perturb="axiom-ii"))),
        ("distributional: xor marginal inclusion", ("distributional", xor_in)),
        ("distributional: parity pair inclusion", ("distributional", parity_in)),
        ("distributional: coin into product", ("distributional", coin_incl)),
        ("distributional: skewed target", ("distributional", skew)),
        ("interventional: xor marginal inclusion", ("interventional", xor_in)),
        ("interventional: parity pair inclusion", ("interventional", parity_in)),
        ("interventional: coin into product", ("interventional", coin_incl)),
        ("interventional: twisted identity", ("interventional", twisted_t)),
        ("independence: product coordinates",
         ("causal-independence", indep, (), ("X",), ("Y",))),
        ("independence: xor pair", ("causal-independence", xor, (), ("X",), ("Y",))),
        ("independence: xor pair given cause",
         ("causal-independence", xor, ("X",), ("X",), ("Y",))),
        ("sources: xor cause", ("sources", xor, ("X",), ("Y",))),
        ("sources: xor readout is none", ("sources", xor, ("Y",), ("X",))),
        ("sources: parity pair", ("sources", parity, ("X", "Z"), ("Y",))),
        ("effects: xor cause is active", ("effect-classification", xor, ("X",), ("Y",))),
        ("effects: parity cause is dormant",
         ("effect-classification", parity, ("X",), ("Y",))),
    ]


def pinned_oracle_corpus() -> list[tuple[str, CheckReport]]:
    """Run the exhaustive oracle over the pinned corpus.

    Every entry must agree with the generator-level verdict; callers assert
    each report individually so a disagreement names its instance.
    """
    return [(name, full_event_check(*args)) for name, args in _corpus_instances()]
