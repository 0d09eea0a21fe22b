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
  ``causally_independent_on`` of each pair of single coordinates
  (enumerated, and sampled with a zero enumeration bound).

Run from the repository root:

    PYTHONPATH=src python3 scripts/report_digest.py
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import causalkit as ck
from causalkit import cli, examples

CORPUS = Path(__file__).resolve().parent.parent / "src" / "causalkit" / "corpus"
SPACE_SEEDS = range(60)
LEMMA_SEEDS = range(3)
LEMMA_TRIALS = 5


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
                    out.append(str(ck.causally_independent_on(
                        c, U, (a,), (b,), max_enum_atoms=0, samples=8, seed=len(out))))
            yield "\n".join(out) + "\n"


def main() -> int:
    digest = hashlib.sha256()
    for section in (lemma_section(), corpus_section(), space_section()):
        for text in section:
            digest.update(text.encode("utf-8"))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
