#!/usr/bin/env python3
"""Time causalkit to a verdict, end to end or layer by layer.

    python3 perfbench/run.py --workload lemma-suites --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports causalkit from
``src/``.  One process, one verdict at a time, in a closed loop: the next
operation starts when the previous verdict is in.  Every verdict is
checked (see ``workloads.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats whole rounds of the workload's operations until
``--seconds`` have passed (and at least 100 verdicts are in) and reports
the end-to-end metrics.  ``--trace 1`` takes a fixed list of operations
and alternates an untraced pass with a traced one over it, reporting the
per-layer metrics of ``tracer.py``: counts from the first traced pass,
times as medians over passes, per-kind latencies from the untraced
passes, and ``trace.overhead``, the traced over the untraced time.  The
spans of the first traced pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracer import Tracer
from workloads import LEMMA_IDS, WORKLOADS, GaussianScale, ScmQueries

MIN_VERDICTS = 100
SETUP_REPEATS = 7        # fresh interpreters timing the import
GENERATE_REPEATS = 3     # input generations timed in this process
REFERENCE_S = 0.0015     # nominal time of one reference(); times are scaled to it
SAMPLE_EVERY_S = 0.1     # least time between two reference samples

PER_LAYER = (
    ("spaces.measure.count", "count"), ("spaces.measure.self_s", "s"),
    ("spaces.tensor.self_s", "s"), ("spaces.mass.count", "count"),
    ("spaces.mass.self_s", "s"), ("spaces.projector.builds", "count"),
    ("spaces.projector.calls", "count"), ("spaces.space.count", "count"),
    ("scm.compile.self_s", "s"), ("scm.kernel.builds", "count"),
    ("scm.kernel.rows", "count"), ("scm.kernel.self_s", "s"),
    ("causal.kernel.builds", "count"), ("causal.kernel.calls", "count"),
    ("causal.kernel.self_s", "s"), ("causal.validate.self_s", "s"),
    ("causal.classify.self_s", "s"), ("causal.source.self_s", "s"),
    ("causal.independence.self_s", "s"), ("causal.intervene.self_s", "s"),
    ("transform.admissible.self_s", "s"), ("transform.distributional.self_s", "s"),
    ("transform.interventional.self_s", "s"), ("transform.pushforward.self_s", "s"),
    ("transform.pushforward_intervention.self_s", "s"),
    ("transform.compose.self_s", "s"), ("transform.rigidity.self_s", "s"),
    ("gaussian.law.count", "count"), ("gaussian.law.self_s", "s"),
    ("gaussian.ikernel.count", "count"), ("gaussian.ikernel.self_s", "s"),
    ("gaussian.compose.self_s", "s"), ("gaussian.check.self_s", "s"),
    ("gaussian.subsets.count", "count"),
    *((f"oracle.{lemma_id}.p50_s", "s") for lemma_id in LEMMA_IDS),
    ("oracle.suite.self_s", "s"),
    ("serialize.load.self_s", "s"), ("serialize.load.bytes", "count"),
    ("cli.main.self_s", "s"),
    *((f"op.{kind}.p50_s", "s") for kind in ScmQueries.kinds + GaussianScale.kinds),
    ("trace.overhead", "ratio"),
)

# metric group -> the span names whose time it owns (see Tracer.metric_times)
GROUPS = {
    "spaces.measure": ("spaces.FiniteMeasure.__post_init__",),
    "spaces.tensor": ("spaces.FiniteMeasure.tensor",),
    "spaces.mass": ("spaces.FiniteMeasure.mass",),
    "scm.compile": ("scm.compile_scm",),
    "scm.kernel": ("scm.kernel.call", "scm.kernel.build"),
    "causal.kernel": ("causal.kernel.call", "causal.kernel.build"),
    "causal.validate": ("causal.validate_causal_space",),
    "causal.classify": ("causal.classify_effect", "causal.classify_effect_on"),
    "causal.source": ("causal.is_source", "causal.is_global_source"),
    "causal.independence": ("causal.causally_independent",
                            "causal.causally_independent_on"),
    "causal.intervene": ("causal.intervene",),
    "transform.admissible": ("transform.check_admissible",),
    "transform.distributional": ("transform.check_distributional",),
    "transform.interventional": ("transform.check_interventional",),
    "transform.pushforward": ("transform.pushforward_space",),
    "transform.pushforward_intervention": ("transform.pushforward_intervention",),
    "transform.compose": ("transform.compose",),
    "transform.rigidity": ("transform.rigidity_check",),
    "gaussian.law": ("gaussian.GaussianLaw.__post_init__",),
    "gaussian.ikernel": ("gaussian.interventional_kernel",),
    "gaussian.compose": ("gaussian.compose_affine",),
    "gaussian.check": ("gaussian.check_affine_transform",
                       "gaussian.check_linear_transform"),
    "oracle.suite": ("oracle.lemma_suite",),
}
# every span of these modules belongs to the group: the loader's and the
# command line's own work, whichever of their functions does it
PREFIX_GROUPS = {"serialize.": "serialize.load", "cli.": "cli.main"}

COUNTS = {
    "spaces.measure.count": "spaces.FiniteMeasure.__post_init__",
    "spaces.mass.count": "spaces.FiniteMeasure.mass",
    "spaces.projector.builds": "spaces.Projector.build",
    "spaces.projector.calls": "spaces.CoordinateSpace.projector",
    "spaces.space.count": "spaces.CoordinateSpace.__post_init__",
    "scm.kernel.builds": "scm.kernel.build",
    "causal.kernel.builds": "causal.kernel.build",
    "causal.kernel.calls": "causal.kernel.call",
    "gaussian.law.count": "gaussian.GaussianLaw.__post_init__",
    "gaussian.ikernel.count": "gaussian.interventional_kernel",
}


def reference() -> Fraction:
    """A fixed piece of exact arithmetic, timed to follow the machine's speed."""
    total = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 13 + 1)
        table[i % 61] = table.get(i % 61, 0) + i
    return total


class Speed:
    """The machine's speed over a run, sampled by timing ``reference()``.

    On a shared machine the speed of all code drifts together, by up to a
    third between runs a few minutes apart.  Every time the benchmark
    reports is divided by ``factor()``, the mean reference time over the
    run relative to ``REFERENCE_S``, so it reads as seconds on a machine
    that runs the reference in exactly ``REFERENCE_S``.  The times as
    measured, and the factor, go to standard error.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -SAMPLE_EVERY_S

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            t0 = time.perf_counter()
            reference()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)

    def factor(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_S


class Verdicts:
    """Latencies and outcomes of the operations of a run."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run(self, op, tracer=None) -> None:
        self.speed.sample()
        self.attempted += 1
        root = tracer.open(tracer.name_id(f"op.{op.kind}")) if tracer else None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"failed: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.close(root)
        self.latencies.append(elapsed)
        self.kinds.append(op.kind)
        reason = op.check(out)
        if reason is not None:
            self.wrong.append(f"{op.label}: {reason}")

    def merge(self, other: "Verdicts") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong

    def p50_by_kind(self) -> dict[str, float]:
        by: dict[str, list[float]] = {}
        for kind, t in zip(self.kinds, self.latencies):
            by.setdefault(kind, []).append(t)
        return {kind: statistics.median(ts) for kind, ts in by.items()}


def import_seconds(speed: Speed) -> float:
    """Median time of ``import causalkit`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import causalkit; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    speed.sample(force=True)
    return statistics.median(times)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, inputs, ck, seconds: float) -> tuple[Verdicts, dict]:
    rounds = workload.rounds(inputs, ck)
    ops = next(rounds)  # expectations are settled here, before the clock starts
    speed = Speed()
    verdicts = Verdicts(speed)
    start = time.perf_counter()
    done = 0
    while True:
        for op in ops:
            verdicts.run(op)
        done += 1
        elapsed = time.perf_counter() - start
        # stop where one more round of average length would overrun
        if verdicts.attempted >= MIN_VERDICTS and elapsed * (done + 1) / done > seconds:
            break
        ops = next(rounds)
    lat = verdicts.latencies
    f = speed.factor()
    print(f"speed factor {f:.4f}; as timed: {len(lat) / sum(lat):.6g} verdicts/s, "
          f"p50 {statistics.median(lat):.6g} s, p90 {statistics.quantiles(lat, n=10)[8]:.6g} s",
          file=sys.stderr)
    return verdicts, {
        "verdicts_per_s": metric(len(lat) / sum(lat) * f, "1/s"),
        "verdict_p50_s": metric(statistics.median(lat) / f, "s"),
        "verdict_p90_s": metric(statistics.quantiles(lat, n=10)[8] / f, "s"),
    }


def trace(workload, inputs, ck, seconds: float, out_path: Path) -> tuple[Verdicts, dict]:
    rounds = workload.rounds(inputs, ck)
    ops = [op for _ in range(workload.trace_rounds) for op in next(rounds)]
    tracer = Tracer()
    speed = Speed()
    plain, traced = Verdicts(speed), Verdicts(speed)
    overheads, times, counts = [], [], None
    deadline = time.perf_counter() + seconds
    while counts is None or time.perf_counter() < deadline:
        n_plain, n_traced = len(plain.latencies), len(traced.latencies)
        for op in ops:
            plain.run(op)
        tracer.reset()
        tracer.install()
        try:
            for op in ops:
                traced.run(op, tracer)
        finally:
            tracer.uninstall()
        overheads.append(sum(traced.latencies[n_traced:]) / sum(plain.latencies[n_plain:]))
        times.append(group_times(tracer))
        if counts is None:
            counts = pass_counts(tracer)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(out_path)
        elif pass_counts(tracer) != counts:
            traced.wrong.append("per-layer counts differ between traced passes")

    p50 = plain.p50_by_kind()
    f = speed.factor()
    values: dict[str, float] = dict(counts)
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            group = name[:-len(".self_s")]
            values[name] = statistics.median(t.get(group, 0.0) for t in times) / f
        elif name.endswith(".p50_s"):
            values[name] = p50.get(name.split(".", 1)[1][:-len(".p50_s")], 0.0) / f
    values["trace.overhead"] = statistics.median(overheads)
    plain.merge(traced)
    return plain, {name: metric(values[name], unit) for name, unit in PER_LAYER}


def pass_counts(tracer) -> dict[str, int]:
    spans = tracer.span_counts()
    counts = {metric_name: spans.get(span, 0) for metric_name, span in COUNTS.items()}
    counts["scm.kernel.rows"] = tracer.counters.get("scm.kernel.rows", 0)
    counts["gaussian.subsets.count"] = tracer.counters.get("gaussian.subsets", 0)
    counts["serialize.load.bytes"] = tracer.counters.get("serialize.load.bytes", 0)
    return counts


def group_times(tracer) -> dict[str, float]:
    group_of = {span: group for group, spans in GROUPS.items() for span in spans}
    for name in tracer.names:
        for prefix, group in PREFIX_GROUPS.items():
            if name.startswith(prefix):
                group_of[name] = group
    return dict(tracer.metric_times(group_of))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one thread: numpy's BLAS must not fan out behind the closed loop
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import causalkit as ck
        import causalkit.cli  # noqa: F401  (the scm-queries entry point)
    except ImportError as exc:
        print(f"cannot import causalkit from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        generate_times = []
        for _ in range(GENERATE_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.generate(args.seed, ck, Path(tmp))
            generate_times.append(time.perf_counter() - t0)

        if args.trace:
            out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv"
            verdicts, metrics = trace(workload, inputs, ck, args.seconds, out)
        else:
            setup_speed = Speed()
            setup_s = import_seconds(setup_speed) + statistics.median(generate_times)
            verdicts, metrics = measure(workload, inputs, ck, args.seconds)
            metrics["setup_s"] = metric(setup_s / setup_speed.factor(), "s")
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = metric(peak_kib / 1024, "MB")

    for reason in verdicts.wrong[:20]:
        print(f"wrong verdict: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not verdicts.wrong,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
