"""Print one sha256 digest over the reports that must not change.

A change that should leave every verdict and witness byte-identical can be
checked by running this script on both sides of the change and comparing
the two digests.  The digest covers, in this order:

- ``to_dict()`` and ``render()`` of every lemma suite at seeds 0-2, five
  trials each;
- the ``--json`` and plain output, and the exit code, of the command each
  shipped corpus artifact's golden report is made with;
- for the example models and for ``random_space`` seeds 0-59 (also with
  either axiom tampered), over every pair (U, V) of coordinate subsets:
  ``classify_effect_on``, ``is_source``, and ``classify_effect`` on each
  atom of V and on the complement of its first atom; and for every U,
  ``causally_independent_on`` of each pair of single coordinates and of
  each ordered pair of disjoint coordinate families with three or more
  names between them;
- ``causally_independent_on`` on products of two random models of three
  3-valued variables each (``PRODUCT_SEEDS``), for every U of at most one
  name and every ordered pair of disjoint families with 17-30 atoms
  between them.

Run from the repository root:

    PYTHONPATH=src python3 scripts/report_digest.py
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path
from random import Random

import causalkit as ck
from causalkit import cli, examples
from causalkit.oracle import _random_scm

CORPUS = Path(__file__).resolve().parent.parent / "src" / "causalkit" / "corpus"
SPACE_SEEDS = range(60)
LEMMA_SEEDS = range(3)
LEMMA_TRIALS = 5
PRODUCT_SEEDS = range(2)


def report_text(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True) + "\n" + report.render() + "\n"


def lemma_section():
    for lemma_id in ck.LEMMA_IDS:
        for seed in LEMMA_SEEDS:
            yield report_text(ck.lemma_suite(lemma_id, trials=LEMMA_TRIALS, seed=seed))


def corpus_section():
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".report.json"):
            continue
        kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
        command = "check-transform" if kind == "transformation" else "validate"
        for extra in (["--json"], []):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli.main([command, str(path)] + extra)
            yield f"{path.name} {extra} exit={code}\n{buffer.getvalue()}"


def spaces():
    for name in ("xor_scm", "parity_scm", "fork_scm", "collider_scm",
                 "mediator_confounder_scm", "composition_scm",
                 "faithfulness_full_scm"):
        yield name, ck.compile_scm(getattr(examples, name)())
    yield "faithfulness_independent_space", examples.faithfulness_independent_space()
    for seed in SPACE_SEEDS:
        yield f"random_space({seed})", ck.random_space(seed)
        for perturb in ("axiom-i", "axiom-ii"):
            yield f"random_space({seed}, {perturb})", ck.random_space(seed, perturb=perturb)


def disjoint_pairs(names):
    """Ordered pairs of disjoint nonempty families of ``names``."""
    subsets = [s for s in ck.subsets_of(names) if s]
    for a in subsets:
        for b in subsets:
            if not set(a) & set(b):
                yield a, b


def space_section():
    for label, c in spaces():
        names = c.space.names
        subsets = list(ck.subsets_of(names))
        for U in subsets:
            for V in subsets:
                out = [f"{label} U={U} V={V}"]
                out.append(json.dumps(ck.classify_effect_on(c, U, V).to_dict(),
                                      sort_keys=True))
                out.append(report_text(ck.is_source(c, U, V)))
                v_atoms = ck.atoms(c.space, V)
                for event in v_atoms + [v_atoms[0].complement()]:
                    out.append(json.dumps(ck.classify_effect(c, U, event).to_dict(),
                                          sort_keys=True))
                yield "\n".join(out) + "\n"
            out = [f"{label} U={U} independence"]
            for i, a in enumerate(names):
                for b in names[i:]:
                    out.append(str(ck.causally_independent_on(c, U, (a,), (b,))))
            for a, b in disjoint_pairs(names):
                if len(a) + len(b) >= 3:
                    out.append(f"{a} {b} {ck.causally_independent_on(c, U, a, b)}")
            yield "\n".join(out) + "\n"


def product_section():
    for seed in PRODUCT_SEEDS:
        rng = Random(seed)
        c = ck.product(ck.compile_scm(_random_scm(rng, "A", cards=[3, 3, 3])),
                       ck.compile_scm(_random_scm(rng, "B", cards=[3, 3, 3])))
        names = c.space.names
        for U in ck.subsets_of(names):
            if len(U) > 1:
                continue
            out = [f"product({seed}) U={U} independence"]
            for a, b in disjoint_pairs(names):
                if 17 <= 3 ** len(a) + 3 ** len(b) <= 30:
                    out.append(f"{a} {b} {ck.causally_independent_on(c, U, a, b)}")
            yield "\n".join(out) + "\n"


def main() -> int:
    digest = hashlib.sha256()
    for section in (lemma_section(), corpus_section(), space_section(),
                    product_section()):
        for text in section:
            digest.update(text.encode("utf-8"))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
