"""The four load paths the benchmark drives: profile, analyze, fleet, tune.

Each path runs at two sizes. The ``full`` size is the closed loop of the
workload named after the path; the ``quick`` size runs a few times on
every other workload, so that one run reports every end-to-end metric,
and is what ``run.py --quick`` checks. Every path calls only the public
API of ``repro`` with one worker and no shards, builds its estimators
and services afresh for each operation (as a CLI invocation would), and
returns the text its output digest is taken over.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "benchmarks" / "corpus" / "surrogate_corpus.json"

PATHS = ("profile", "analyze", "fleet", "tune")
SCALES = ("full", "quick")
# The seed of the quick operations a workload runs for the other paths
# (and the default of --seed): they repeat the same work in every run,
# and the reference digests always cover them.
DEFAULT_SEED = 1

# (workload key, multiple of its default train_steps)
PROFILE_SIZES = {"full": ("resnet-imagenet", 2), "quick": ("dcgan-mnist", 1)}
# (workload key, multiple of its default train_steps, record sets). The
# k-means sweep's work varies by about a fifth from one seed's records to
# the next, so the full size analyses four sets, made from the seed plus
# 0, 1, 2 and 3 times ANALYZE_SEED_STRIDE, to halve that in the average.
ANALYZE_SIZES = {"full": ("qanet-squad", 1, 4), "quick": ("dcgan-mnist", 1, 1)}
ANALYZE_SEED_STRIDE = 1000

# Tenants per DEFAULT_FLEET_WORKLOADS key. A query on a dcgan tenant takes
# about twice as long as one on a bert tenant. The fleet CLI's even mix
# puts half the queries on each side of that gap, so the median query
# jumps across it from run to run (perfbench/README.md); with these
# counts it falls among the bert-cola queries and p90 among the dcgan
# ones. The seed only shuffles the order tenants register and are
# queried in.
FLEET_SIZES = {
    "full": {"bert-mrpc": 4, "bert-cola": 4, "dcgan-mnist": 2, "dcgan-cifar10": 2},
    "quick": {"bert-mrpc": 3, "bert-cola": 3, "dcgan-mnist": 1, "dcgan-cifar10": 1},
}
# Recoveries of each profile journal, timed together. One takes about
# 15 ms at the quick size and 50 ms at the full one.
RECOVER_REPS = {"full": 4, "quick": 8}

# The host clock times its reference work every HOST_PERIOD_S;
# HOST_REFERENCE_S is about the fastest that work ran on the host the
# baseline comes from. The repro paths slow down about as the square of
# it (HOST_EXPONENT): over ten-run sets, runs on a quiet stretch of that
# host read 20 to 28% faster than runs on a loaded one when scaled by its
# first power, which a power of 1.8 to 2.0 would have closed.
HOST_PERIOD_S = 0.05
HOST_REFERENCE_S = 0.0025
HOST_EXPONENT = 2

TUNE_WORKLOAD = "naive-qanet-squad"
TUNE_SIZES = {"full": ("racing", "annealing", "surrogate"), "quick": ("surrogate",)}


@dataclass
class OpResult:
    """What one operation of one path measured and produced."""

    path: str
    scale: str
    samples: dict[str, list[float]] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    distance_passes: int = 0

    @property
    def digest(self) -> str:
        text = "\n".join(self.lines) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Cell:
    __slots__ = ("index", "name", "values")

    def __init__(self, index: int):
        self.index, self.name, self.values = index, str(index), [index]


class HostClock:
    """The host's speed, measured every HOST_PERIOD_S while it runs.

    Other tenants of a shared host slow everything run on it by up to
    two times, for fractions of a second to minutes at a time, and CPU
    time tracks wall time, so no clock escapes it. While it runs, a
    SIGALRM handler times a fixed piece of pure-Python work that runs no
    repro code: 2,000 attribute, list and dict lookups over a heap of
    some megabytes. A Stopwatch scales what it times by the samples
    taken meanwhile.
    """

    def __init__(self):
        order = list(range(60_000))
        random.Random(0).shuffle(order)
        self._cells = [_Cell(index) for index in range(60_000)]
        self._table = {f"k{index}": index for index in order}
        self._order = order[:2_000]
        self.samples: list[float] = []
        self.spent = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, HOST_PERIOD_S, HOST_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        began = time.perf_counter()
        total = 0
        for index in self._order:
            cell = self._cells[index]
            total += cell.index + len(cell.name) + cell.values[0] + self._table[f"k{index}"]
        took = time.perf_counter() - began
        self.samples.append(took)
        self.spent += took


CLOCK = HostClock()


class Stopwatch:
    """Host seconds since it was made, at the reference host speed.

    The clock's own work is taken out, and the rest is scaled by the
    HOST_EXPONENT power of HOST_REFERENCE_S over the mean of the clock's
    samples taken since (or its last one, for a region too short to hold
    one). Without samples, as when the clock never ran, the seconds are
    as measured.
    """

    def __init__(self):
        self._began = time.perf_counter()
        self._spent = CLOCK.spent
        self._first = len(CLOCK.samples)

    def seconds(self) -> float:
        elapsed = time.perf_counter() - self._began - (CLOCK.spent - self._spent)
        samples = CLOCK.samples[self._first:] or CLOCK.samples[-1:]
        if not samples:
            return elapsed
        return elapsed * (HOST_REFERENCE_S / statistics.fmean(samples)) ** HOST_EXPONENT


def _plan(key: str, multiple: int):
    from repro import workload

    entry = workload(key)
    plan = entry.model.defaults(entry.dataset).session_plan()
    return dataclasses.replace(plan, train_steps=plan.train_steps * multiple)


def _spec(key: str, multiple: int, seed: int):
    from repro import WorkloadSpec

    return WorkloadSpec(key, plan=_plan(key, multiple), seed=seed)


def _labels(labels) -> str:
    return ",".join(str(int(label)) for label in labels)


def _summary_line(summary) -> str:
    return (
        f"wall_us={summary.wall_us!r} idle={summary.tpu_idle_fraction!r} "
        f"mxu={summary.mxu_utilization!r} steps={summary.steps_executed}"
    )


def fleet_tenants(scale: str, seed: int) -> list[str]:
    keys = [key for key, count in FLEET_SIZES[scale].items() for _ in range(count)]
    random.Random(seed).shuffle(keys)
    return keys


def make_records(scale: str, seed: int, directory: Path) -> None:
    """Profile the analyze path's runs and save their records, a directory each."""
    from repro import TPUPoint, build_estimator
    from repro.core.profiler.serialize import save_records

    key, multiple, sets = ANALYZE_SIZES[scale]
    for index in range(sets):
        estimator = build_estimator(_spec(key, multiple, seed + index * ANALYZE_SEED_STRIDE))
        tpupoint = TPUPoint(estimator)
        tpupoint.Start(analyzer=True)
        estimator.train()
        save_records(tpupoint.Stop(), directory / f"set-{index}", format="binary")


def build(path: str, scale: str, seed: int) -> None:
    """Build and compile what one operation of a path needs up front."""
    from repro import build_estimator
    from repro.serve import FleetService, FleetServiceOptions
    from repro.workloads.spec import WorkloadSpec

    if path == "profile":
        build_estimator(_spec(*PROFILE_SIZES[scale], seed)).compile()
    elif path == "fleet":
        FleetService(options=FleetServiceOptions())
        for key in fleet_tenants(scale, seed):
            build_estimator(WorkloadSpec(key)).compile()
    elif path == "tune":
        build_estimator(WorkloadSpec(TUNE_WORKLOAD)).compile()
    # analyze builds nothing: its input is saved records.


def run_profile(scale: str, seed: int, workdir: Path) -> OpResult:
    """``tpupoint profile`` with a binary journal, OLS, then journal recovery."""
    from repro import TPUPoint, build_estimator
    from repro.core.profiler import ProfilerOptions
    from repro.core.profiler.journal import recover_journal

    key, multiple = PROFILE_SIZES[scale]
    result = OpResult("profile", scale)
    journal = workdir / "profile.journal"
    estimator = build_estimator(_spec(key, multiple, seed))
    tpupoint = TPUPoint(
        estimator, profiler_options=ProfilerOptions(journal_path=str(journal))
    )
    stopwatch = Stopwatch()
    tpupoint.Start(analyzer=True)
    summary = estimator.train()
    records = tpupoint.Stop()
    analyzer = tpupoint.analyzer(workers=1)
    ols = analyzer.analyze("ols")
    profiled = stopwatch.seconds()
    analyzer.close()

    result.samples["profile_steps_per_s"] = [summary.steps_executed / profiled]
    stopwatch = Stopwatch()
    for _ in range(RECOVER_REPS[scale]):
        recovery = recover_journal(journal)
    recovered = len(recovery.records) * RECOVER_REPS[scale]
    result.samples["recover_records_per_s"] = [recovered / stopwatch.seconds()]
    journal.unlink()
    if not recovery.lossless:
        result.failures.append(
            f"journal recovery lost entries ({recovery.corrupt_entries} corrupt, "
            f"torn tail {recovery.torn_tail})"
        )
    if recovery.records != tuple(records):
        result.failures.append("recovered records differ from the profiled ones")
    result.lines = [
        f"profile {key} x{multiple} seed {seed}",
        _summary_line(summary),
        f"records={len(records)} recovered={len(recovery.records)}",
        f"ols params={ols.params!r} labels={_labels(ols.labels)}",
    ]
    return result


def run_analyze(scale: str, records_dir: Path) -> OpResult:
    """``tpupoint analyze`` of each record set: load, features, PCA, k-means, DBSCAN, OLS."""
    from repro import TPUPointAnalyzer
    from repro.core.profiler.serialize import load_records

    result = OpResult("analyze", scale)
    steps = elapsed = 0
    for directory in sorted(records_dir.iterdir()):
        stopwatch = Stopwatch()
        records = load_records(directory)
        analyzer = TPUPointAnalyzer(records, workers=1)
        analyzer.features
        analyzer.reduced_matrix()
        kmeans = analyzer.kmeans_phases()
        dbscan = analyzer.dbscan_phases(analyzer.choose_min_samples())
        ols = analyzer.ols_phases()
        elapsed += stopwatch.seconds()
        analyzer.close()
        steps += len(analyzer.steps)
        result.lines += [
            f"analyze {directory.name} records={len(records)} steps={len(analyzer.steps)}",
            f"kmeans params={kmeans.params!r} labels={_labels(kmeans.labels)}",
            f"dbscan params={dbscan.params!r} labels={_labels(dbscan.labels)}",
            f"ols params={ols.params!r} labels={_labels(ols.labels)}",
        ]
    result.samples["analyze_steps_per_s"] = [steps / elapsed]
    return result


def run_fleet(scale: str, seed: int, between) -> OpResult:
    """``run_fleet`` on one FleetService, then one query per tenant.

    The queries go in an order shuffled by the seed. ``between()`` is
    called between the fleet run and the queries, so that the caller can
    run other work there, untimed here.
    """
    from repro.serve import FleetService, FleetServiceOptions
    from repro.serve import run_fleet as fleet

    tenants = fleet_tenants(scale, seed)
    result = OpResult("fleet", scale)
    service = FleetService(options=FleetServiceOptions())
    stopwatch = Stopwatch()
    run = fleet(tenants, service=service)
    elapsed = stopwatch.seconds()
    metrics = service.metrics
    result.samples["fleet_records_per_s"] = [metrics.records_ingested / elapsed]

    between()
    order = [job.job_id for job in run.jobs]
    random.Random(seed + 1).shuffle(order)
    answers = {}
    for job_id in order:
        stopwatch = Stopwatch()
        answers[job_id] = service.phase_analysis(job_id)
        result.latencies_ms.append(stopwatch.seconds() * 1e3)

    if metrics.records_dropped or metrics.records_quarantined:
        result.failures.append(
            f"{metrics.records_dropped} records dropped, "
            f"{metrics.records_quarantined} quarantined"
        )
    lines = [f"fleet of {len(tenants)} jobs ({run.rounds} rounds)"]
    for job in run.jobs:
        lines.append(f"{job.job_id} {job.spec.key} {_summary_line(job.summary)}")
        lines.extend(job.snapshot.format())
    lines.append("-- streaming phase analyses --")
    for job in run.jobs:
        analysis = answers[job.job_id]
        lines.append(
            f"{job.job_id}: {analysis.num_phases} phases ({analysis.method}, "
            f"{analysis.params!r}) labels={_labels(analysis.labels)}"
        )
    lines.append("-- fleet rollup --")
    lines.extend(run.rollup.format())
    result.lines = lines
    return result


def run_tune(scale: str, seed: int) -> OpResult:
    """``tpupoint tune`` on naive-qanet-squad, one autotune per strategy."""
    from repro import AutotuneOptions, WorkloadSpec, autotune, build_estimator
    from repro.host.pipeline import PipelineConfig

    spec = WorkloadSpec(TUNE_WORKLOAD)
    result = OpResult("tune", scale)
    lines = [f"tune {TUNE_WORKLOAD} seed {seed}"]
    stopwatch = Stopwatch()
    initial = build_estimator(spec).pipeline_config or PipelineConfig()

    def factory(config):
        return build_estimator(dataclasses.replace(spec, pipeline_config=config))

    for strategy in TUNE_SIZES[scale]:
        options = AutotuneOptions(
            strategy=strategy,
            workers=1,
            seed=seed,
            workload=spec.key,
            surrogate_corpus=str(CORPUS),
        )
        outcome = autotune(factory, initial, options).outcome
        lines.append(
            f"{strategy}: trials={len(outcome.trials)} steps={outcome.steps_consumed} "
            f"best={outcome.best_throughput!r} config={outcome.best_config!r}"
        )
    result.samples["tune_s"] = [stopwatch.seconds()]
    result.lines = lines
    return result


def run_op(path: str, scale: str, seed: int, workdir: Path, between=lambda: None) -> OpResult:
    """One operation of a path; an exception becomes a failed operation.

    ``between`` is the fleet path's (see run_fleet).
    """
    if path == "profile":
        return guarded(path, scale, lambda: run_profile(scale, seed, workdir))
    if path == "analyze":
        return guarded(path, scale, lambda: run_analyze(scale, workdir / f"records-{scale}"))
    if path == "fleet":
        return guarded(path, scale, lambda: run_fleet(scale, seed, between))
    return guarded(path, scale, lambda: run_tune(scale, seed))


def guarded(path: str, scale: str, work) -> OpResult:
    """Run ``work`` from a clean state; an exception becomes a failed operation."""
    from repro.core.analyzer.distance import distance_passes
    from repro.errors import ReproError
    from repro import obs

    # A CLI invocation starts with an empty heap and empty process-wide
    # trace and metrics state. Collecting the last operation's cyclic
    # garbage here keeps that collection out of this operation's time.
    gc.collect()
    obs.default_tracer().reset()
    obs.default_registry().reset()
    try:
        result = work()
    except ReproError as error:
        result = OpResult(path, scale, failures=[f"{type(error).__name__}: {error}"])
    except Exception as error:  # the loop must go on and count the failure
        import traceback

        traceback.print_exc()
        result = OpResult(path, scale, failures=[f"{type(error).__name__}: {error}"])
    result.distance_passes = distance_passes()
    return result


def clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
