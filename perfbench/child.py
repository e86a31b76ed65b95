"""Run one covmem benchmark workload in this process and print its result.

``run.py`` starts this script in a fresh process with BLAS pinned to one
thread and the process pinned to one CPU; it can also be run by hand
from the repository root:

    python3 perfbench/child.py --workload rare_stream --seed 0 --seconds 45 --trace 0

The inputs are built from the seed several times (the median build time
is the set-up share of ``setup_s``).  Then the workload's pass runs
again and again on fresh strategy state until ``--seconds`` are used up,
at least three times.  The first pass is a warm-up that the timings
leave out; every pass is checked, so every run can check that passes
with the same seed produce the same outputs.  Progress goes to stderr;
the last line of stdout is one JSON object that ``run.py`` reads.
"""
import argparse
import contextlib
import csv
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import covmem  # noqa: E402
import spans  # noqa: E402
from covmem import harness, workloads  # noqa: E402

TMP_ROOT = ROOT / "perfbench" / ".tmp"
SETUP_BUILDS = 3
WARMUP_PASSES = 1
MIN_PASSES = WARMUP_PASSES + 2
RARE_CLASSES = (0, 2)


class GateFailure(Exception):
    """A select call raised or returned outputs that break an invariant."""


class Gate:
    """Runs select calls, times them and checks their outputs.

    After every call: the memory is within capacity, ``kept_ids`` is
    strictly increasing, matches the memory's size and is a subset of
    the pool (the previous call's survivors plus the new ids), and the
    coverage change index is finite and in [0, 1].
    """

    def __init__(self, recorder=None):
        self.attempted = 0
        self.failed = 0
        self._recorder = recorder

    def select(self, strategy, memory, chunk, previous_ids, cfg, predictor, rng):
        self.attempted += 1
        started = time.perf_counter()
        try:
            outcome = strategy.select(memory, chunk, cfg, predictor, rng)
        except Exception as err:
            self.failed += 1
            raise GateFailure(f"select raised {type(err).__name__}: {err}") from err
        elapsed = time.perf_counter() - started
        with self._recorder.span("bench.gate") if self._recorder else contextlib.nullcontext():
            problems = _check_outcome(outcome, memory, cfg.capacity, previous_ids, chunk)
        if problems:
            self.failed += 1
            raise GateFailure(f"select call {self.attempted}: " + "; ".join(problems))
        return outcome, elapsed


def _check_outcome(outcome, memory, capacity, previous_ids, chunk):
    kept = np.asarray(outcome.kept_ids)
    problems = []
    if memory.sample_count > capacity:
        problems.append(f"memory holds {memory.sample_count} > capacity {capacity}")
    if kept.size != memory.sample_count:
        problems.append(f"{kept.size} kept ids but {memory.sample_count} samples in memory")
    if kept.size > 1 and not np.all(np.diff(kept) > 0):
        problems.append("kept_ids not strictly increasing")
    chunk_ids = np.fromiter((s.arrival_index for s in chunk), dtype=np.int64, count=len(chunk))
    pool = np.concatenate((previous_ids, chunk_ids))
    if not np.isin(kept, pool).all():
        problems.append("kept_ids not a subset of the pool")
    if not (math.isfinite(outcome.rci) and 0.0 <= outcome.rci <= 1.0):
        problems.append(f"rci {outcome.rci!r} not finite in [0, 1]")
    return problems


def _share(counts) -> float:
    return float(sum(counts[c] for c in RARE_CLASSES) / counts.sum())


@dataclass
class PassResult:
    """What one pass measured and produced."""

    loop_s: float
    offered: int
    select_times: list
    digest: str
    rare_share: float
    extra: dict = field(default_factory=dict)


class _Lane:
    """One strategy on the README quick-start loop; retrains whenever it asks."""

    def __init__(self, kind, spec, cfg, seed):
        self.strategy = covmem.make_strategy(kind)
        self.memory = covmem.ReplayMemory(capacity=cfg.capacity)
        self.predictor = covmem.OraclePredictor(spec.class_means)
        self.rng = np.random.default_rng([seed, 4])
        self.kept = np.empty(0, dtype=np.int64)
        self.times = []

    def step(self, chunk, cfg, gate):
        outcome, elapsed = gate.select(self.strategy, self.memory, chunk, self.kept, cfg,
                                       self.predictor, self.rng)
        self.kept = outcome.kept_ids
        self.times.append(elapsed)
        if outcome.retrain and self.memory.sample_count:
            train = self.memory.sorted_samples()
            self.predictor = self.predictor.fit(train)
            self.strategy.on_retrain(train, self.rng)


class RareStream:
    """Criterion-4 shape, scaled by four: memento, random and fifo on one stream.

    Memory is full from the first iteration on, so every call re-batches
    the residents beside twice as many arrivals: per-sample Python work
    dominates and distances do little.  The batch size shrinks with the
    stream so each call still sees about as many batches as at full size.
    The three strategies take turns on each chunk, so the timed memento
    calls are spread over the whole pass.
    """

    iterations = 20
    samples = 10_000
    capacity = 5_000
    batch_size = 64
    kinds = ("memento", "random", "fifo")

    def setup(self, seed):
        spec = workloads.rare_patterns(iterations=self.iterations,
                                       samples_per_iteration=self.samples)
        cfg = covmem.StrategyConfig(capacity=self.capacity, batch_size=self.batch_size,
                                    k_pred=3, k_out=3)
        return spec, cfg, list(workloads.generate(spec, seed))

    def run_pass(self, inputs, seed, gate):
        spec, cfg, chunks = inputs
        started = time.perf_counter()
        lanes = {kind: _Lane(kind, spec, cfg, seed) for kind in self.kinds}
        for chunk in chunks:
            for lane in lanes.values():
                lane.step(chunk, cfg, gate)
        loop_s = time.perf_counter() - started
        digest = hashlib.sha256()
        counts = {}
        for kind, lane in lanes.items():
            digest.update(lane.kept.tobytes())
            counts[kind] = lane.memory.class_counts(3, by="workload")
        offered = len(self.kinds) * self.iterations * self.samples
        return PassResult(loop_s, offered, lanes["memento"].times, digest.hexdigest(),
                          _share(counts["memento"]),
                          {kind: c.tolist() for kind, c in counts.items()})

    def check(self, result):
        """Criterion 4: memento hoards both rare classes, the baselines do not."""
        cap = self.capacity
        problems = []
        for c in RARE_CLASSES:
            if result.extra["memento"][c] < 0.15 * cap:
                problems.append(f"memento holds {result.extra['memento'][c]} of rare class {c}")
            if result.extra["random"][c] > 0.03 * cap:
                problems.append(f"random holds {result.extra['random'][c]} of rare class {c}")
            if result.extra["fifo"][c] != 0:
                problems.append(f"fifo holds {result.extra['fifo'][c]} of rare class {c}")
        return problems


class _CheckedStrategy:
    """Puts the gate between ``harness.run`` and the strategy it builds."""

    def __init__(self, inner, gate):
        self.inner = inner
        self.gate = gate
        self.kept = np.empty(0, dtype=np.int64)
        self.times = []

    def select(self, memory, new_samples, cfg, predictor, rng):
        outcome, elapsed = self.gate.select(self.inner, memory, new_samples, self.kept,
                                            cfg, predictor, rng)
        self.kept = outcome.kept_ids
        self.times.append(elapsed)
        return outcome

    def on_retrain(self, train_samples, rng):
        self.inner.on_retrain(train_samples, rng)


class DriftHarness:
    """``harness.run`` on ``gradual_drift``: the path a ``covmem run`` user takes.

    Many small batches over 21 output bins make distances and the
    trigger dominate; the trigger fires on most iterations, so it always
    compares against a non-empty reference.  Generation, predictor refits,
    evaluation and report writing all run inside the measured loop.
    """

    iterations = 15
    samples = 4_000
    capacity = 4_000
    batch_size = 16

    def __init__(self):
        self.checked = None

    def setup(self, seed):
        return harness.RunConfig(
            strategy="memento", scenario="gradual_drift", capacity=self.capacity,
            batch_size=self.batch_size, iterations=self.iterations,
            samples_per_iteration=self.samples, predictor="likelihood",
            retrain="strategy", seed=seed,
        )

    def install_gate(self, gate):
        make_strategy = harness.make_strategy

        def checked(*args, **kwargs):
            self.checked = _CheckedStrategy(make_strategy(*args, **kwargs), gate)
            return self.checked

        harness.make_strategy = checked

    def run_pass(self, config, seed, gate):
        TMP_ROOT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as out_dir:
            run_config = replace(config, out_dir=out_dir)
            started = time.perf_counter()
            harness.run(run_config)
            loop_s = time.perf_counter() - started
            report = (Path(out_dir) / "report.csv").read_bytes()
        TMP_ROOT.rmdir()
        rows = list(csv.DictReader(report.decode().splitlines()))
        last = np.array([int(rows[-1][f"mem_count_class_{c}"]) for c in range(3)])
        logscore = statistics.fmean(float(r["mean_logscore"]) for r in rows)
        return PassResult(loop_s, self.iterations * self.samples, self.checked.times,
                          hashlib.sha256(report).hexdigest(), _share(last),
                          {"mean_logscore_bits": logscore,
                           "retrains": sum(int(r["retrained"]) for r in rows)})

    def check(self, result):
        return []


WORKLOADS = {"rare_stream": RareStream, "drift_harness": DriftHarness}


def nearest_rank_median(values):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(0.5 * len(ordered))) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)

    workload = WORKLOADS[args.workload]()
    gate = Gate(recorder)
    if isinstance(workload, DriftHarness):
        workload.install_gate(gate)

    builds, build_phases = [], []
    for _ in range(SETUP_BUILDS):
        inputs = None
        started = time.perf_counter()
        inputs = workload.setup(args.seed)
        builds.append(time.perf_counter() - started)
        if recorder is not None:
            build_phases.append(recorder.drain())
    # The prebuilt stream stands in for arrivals that a real loop would
    # hold one chunk at a time; keep the collector from rescanning it.
    gc.collect()
    gc.freeze()

    passes, pass_phases, problems = [], [], []
    started = time.perf_counter()
    try:
        while True:
            result = workload.run_pass(inputs, args.seed, gate)
            passes.append(result)
            if recorder is not None:
                pass_phases.append(recorder.drain())
            problems += workload.check(result)
            print(f"{args.workload}: pass {len(passes)} loop {result.loop_s:.3f}s",
                  file=sys.stderr)
            spent = time.perf_counter() - started
            typical = statistics.median(p.loop_s for p in passes)
            if len(passes) >= MIN_PASSES and spent + typical > args.seconds:
                break
    except GateFailure as err:
        traceback.print_exception(err)
        problems.append(str(err))

    if passes:
        for name in ("digest", "rare_share", "extra"):
            if any(getattr(p, name) != getattr(passes[0], name) for p in passes):
                problems.append(f"{name} differs between passes with the same seed")
    if recorder is not None:
        for phase in pass_phases:
            if phase[1] != pass_phases[0][1]:
                problems.append("layer counts differ between passes with the same seed")
                break

    out = {
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": problems,
        "passes": len(passes),
        "build_s": statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    timed = passes[WARMUP_PASSES:] or passes
    if passes:
        select_times = [t for p in timed for t in p.select_times]
        out.update({
            "loop_s": statistics.median(p.loop_s for p in timed),
            "samples_per_s": statistics.median(p.offered / p.loop_s for p in timed),
            "select_p50_s": nearest_rank_median(select_times),
            "select_calls_timed": len(select_times),
            "rare_share": passes[0].rare_share,
            "digest": passes[0].digest,
            "extra": passes[0].extra,
        })
        if recorder is not None:
            out["layers"] = _layer_metrics(build_phases, pass_phases[-len(timed):], timed)
    print(json.dumps(out))
    return 0


def _layer_metrics(build_phases, pass_phases, passes):
    """Per-execution layer split: median set-up build plus median pass."""
    seconds = {
        metric: statistics.median(phase[0].get(span_name, 0.0) for phase in build_phases)
        + statistics.median(phase[0].get(span_name, 0.0) for phase in pass_phases)
        for metric, span_name in spans.LAYER_TIMES.items()
    }
    counts = {name: pass_phases[0][1][name] for name in spans.LAYER_COUNTS}
    selects = counts["selection.select_calls"]
    counts["distances.pairs_per_select"] = counts["distances.pairs"] / selects if selects else 0.0
    covered = [
        sum(t for name, t in phase[0].items() if not name.startswith("bench."))
        for phase in pass_phases
    ]
    seconds["trace.loop_s"] = statistics.median(p.loop_s for p in passes)
    seconds["trace.unaccounted_s"] = statistics.median(
        p.loop_s - c for p, c in zip(passes, covered)
    )
    return ({name: {"value": v, "unit": "s"} for name, v in seconds.items()}
            | {name: {"value": v, "unit": "count"} for name, v in counts.items()})


if __name__ == "__main__":
    sys.exit(main())
