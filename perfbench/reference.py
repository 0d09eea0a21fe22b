#!/usr/bin/env python3
"""Reference figures, measured once and not bounded: a scaling curve.

    python3 perfbench/reference.py

Prints a Markdown table of single timings from the root of a checkout:
``validate`` and ``classify`` through the CLI on binary chain models of 16
to 256 outcomes, ``check_linear_transform`` against a diagonal rescaling
at dimension 4 to 12, and each lemma suite at 100 trials (the setting of
acceptance criterion 5).  Takes a few minutes.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import json  # noqa: E402

import numpy as np  # noqa: E402

import causalkit as ck  # noqa: E402
import causalkit.cli  # noqa: E402,F401

from workloads import LEMMA_IDS, ScmModel, draw_gauss_case, run_cli  # noqa: E402

# binary chains: outcome count -> (component A, component B)
FINITE = {16: (2, 2), 32: (3, 2), 64: (3, 3), 128: (4, 3), 256: (4, 4)}


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main() -> int:
    print("| figure | size | seconds | verdict |")
    print("|---|---|---|---|")
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for n, (na, nb) in FINITE.items():
            model = ScmModel.draw(Random(n), (2,) * na, (2,) * nb)
            path = Path(tmp) / f"chain-{n}.json"
            path.write_text(json.dumps(model.document()), encoding="utf-8")
            for cmd in (["validate", str(path)],
                        ["classify", str(path), "--on", "A1", "--target", "A0"]):
                dt, (code, _) = timed(lambda: run_cli(ck, cmd))
                print(f"| `{cmd[0]}` (CLI) | {n} outcomes | {dt:.3f} | exit {code} |",
                      flush=True)
    for d in range(4, 13):
        case = draw_gauss_case(Random(d), d)
        src = ck.LinearGaussianSCM(tuple(f"X{k}" for k in range(d)),
                                   np.array(case.source[0]), np.array(case.source[1]))
        tgt = ck.LinearGaussianSCM(tuple(f"Y{k}" for k in range(d)),
                                   np.array(case.rescaled[0]), np.array(case.rescaled[1]))
        rho = {f"X{k}": f"Y{k}" for k in range(d)}
        dt, report = timed(lambda: ck.check_linear_transform(
            src, tgt, np.diag(case.scales), rho))
        print(f"| `check_linear_transform` | d = {d} | {dt:.3f} | "
              f"{'pass' if report.passed else 'FAIL'} |", flush=True)
    for lemma_id in LEMMA_IDS:
        dt, report = timed(lambda: ck.lemma_suite(lemma_id, trials=100, seed=0))
        print(f"| `lemma_suite` {lemma_id} | 100 trials | {dt:.3f} | "
              f"{'pass' if report.passed else 'FAIL'} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
