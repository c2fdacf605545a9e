"""The repo benchmark: profile, analyze, fleet and tune workloads of repro.

Run from the repository root:

    python3 perfbench/run.py --workload profile --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload analyze --seed 1 --seconds 22 --trace 1
    python3 perfbench/run.py --quick
    python3 perfbench/run.py --write-reference

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--quick`` is the benchmark's own test. ``--write-reference`` rewrites
the reference digests; do that only for an intended change of output.
See perfbench/README.md for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import loads  # noqa: E402
import shims  # noqa: E402

DEFAULT_SEED = loads.DEFAULT_SEED
HELD_OUT_SEED = 90210
REFERENCE = HERE / "reference.json"
OUTPUT = ROOT / ".perfbench"

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "profile_steps_per_s": "steps/s",
    "recover_records_per_s": "records/s",
    "analyze_steps_per_s": "steps/s",
    "fleet_records_per_s": "records/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "tune_s": "s",
}
BUSY_LAYERS = (
    "runtime.train", "runtime.worker", "runtime.events.steps_between",
    "runtime.rpc.serve", "tpu.device", "graph.compile", "profiler.record",
    "profiler.journal.append", "profiler.journal.recover", "profiler.codec.encode",
    "profiler.codec.decode", "analyzer.load",
    "analyzer.features", "analyzer.pca", "analyzer.kmeans", "analyzer.distance",
    "analyzer.dbscan", "analyzer.ols", "analyzer.streaming", "serve.submit",
    "serve.pump", "serve.live.ingest", "serve.query", "optimizer.detect",
    "optimizer.trial", "optimizer.surrogate",
)
COUNTS = (
    "runtime.steps", "runtime.events.steps_between.calls", "runtime.rpc.windows",
    "tpu.ops", "profiler.records", "profiler.journal.append.bytes",
    "profiler.codec.encode.bytes", "profiler.codec.decode.bytes",
    "analyzer.kmeans.fits", "analyzer.distance.calls",
    "analyzer.distance.blocks", "analyzer.distance.passes", "serve.submit.calls",
    "serve.pump.calls", "serve.pump.queue_visits", "serve.queue.depth_max",
    "optimizer.trials", "optimizer.trial_steps",
)
RATIOS = {
    # metric: (numerator count, denominator count)
    "runtime.rpc.nonempty_window_frac": ("runtime.rpc.nonempty_windows", "runtime.rpc.windows"),
    "serve.ingest.accepted_frac": ("serve.submit.accepted", "serve.submit.records"),
}
LAYER_UNITS = {
    **{f"{layer}.busy_s": "s" for layer in BUSY_LAYERS},
    **{name: ("bytes" if name.endswith(".bytes") else "count") for name in COUNTS},
    **{name: "fraction" for name in RATIOS},
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
}
# The workload's own operations get this share of the run; quick
# operations of the other paths, which give the workload its figures for
# those paths' metrics, get the rest. They run between the workload's
# own operations (and between a fleet operation's run and its queries),
# the path with the least time so far first, so that their samples
# spread over the run.
HOME_SHARE = 0.5
SETUP_REPS = 3


def _child(*args: str) -> str:
    completed = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"child.py {' '.join(args)} exited {completed.returncode}")
    return completed.stdout


def _load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


class Session:
    """One benchmark run: a workload, a seed and the operations made.

    The seed makes the workload's own inputs; the quick operations of the
    other paths always use DEFAULT_SEED.
    """

    def __init__(self, workload: str, seed: int, home_scale: str = "full"):
        self.workload = workload
        self.seed = seed
        self.home_scale = home_scale
        self.workdir = OUTPUT / f"run-{workload}-{seed}-{os.getpid()}"
        self.reference = _load_reference()
        self.results: list[loads.OpResult] = []
        self._first_digest: dict[str, str] = {}

    def scale(self, path: str) -> str:
        return self.home_scale if path == self.workload else "quick"

    def seed_for(self, path: str) -> int:
        return self.seed if path == self.workload else DEFAULT_SEED

    def probes(self) -> list[str]:
        return [path for path in loads.PATHS if path != self.workload]

    def prepare(self) -> None:
        """Make the inputs from the seed, outside any timed region."""
        loads.clear(self.workdir)
        self.workdir.mkdir(parents=True)
        scale, seed = self.scale("analyze"), self.seed_for("analyze")
        _child("records", scale, str(seed), str(self.workdir / f"records-{scale}"))

    def close(self) -> None:
        loads.clear(self.workdir)

    def op(self, path: str, between=lambda: None) -> loads.OpResult:
        """One operation of ``path``, checked against the reference digests."""
        result = loads.run_op(path, self.scale(path), self.seed_for(path), self.workdir, between)
        key = f"{path}/{self.scale(path)}/{self.seed_for(path)}"
        if not result.failures:
            expected = self.reference.get(key)
            first = self._first_digest.setdefault(key, result.digest)
            if expected is not None and result.digest != expected:
                result.failures.append(f"{key}: digest {result.digest} != reference {expected}")
            elif result.digest != first:
                result.failures.append(f"{key}: digest differs between operations")
        for failure in result.failures:
            print(f"FAILED {key}: {failure}", file=sys.stderr)
        self.results.append(result)
        return result

    def accounting(self) -> tuple[int, int]:
        """Operations attempted and operations failed."""
        return len(self.results), sum(1 for result in self.results if result.failures)


def _e2e_metrics(session: Session, setup: list[float]) -> tuple[dict, list[str]]:
    values: dict[str, list[float]] = {name: [] for name in E2E_UNITS}
    latencies: list[float] = []
    for result in session.results:
        if result.failures:
            continue
        for name, samples in result.samples.items():
            values[name].extend(samples)
        latencies.extend(result.latencies_ms)
    metrics = {name: statistics.median(samples) for name, samples in values.items() if samples}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if len(latencies) >= 2:
        metrics["query_p50_ms"] = statistics.median(latencies)
        metrics["query_p90_ms"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    slowdowns = statistics.quantiles(loads.CLOCK.samples, n=10)
    notes = [
        f"host slowdown: median {slowdowns[4] / loads.HOST_REFERENCE_S:.3f}, "
        f"p10-p90 {slowdowns[0] / loads.HOST_REFERENCE_S:.3f}-"
        f"{slowdowns[8] / loads.HOST_REFERENCE_S:.3f} over {len(loads.CLOCK.samples)} samples",
        f"setup_s: {len(setup)} set-ups",
        f"query_p50_ms, query_p90_ms: {len(latencies)} queries",
    ]
    for name, samples in values.items():
        if samples:
            notes.append(f"{name}: {len(samples)} samples")
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, home_scale: str = "full") -> dict:
    """The untraced run: every end-to-end metric."""
    setup = [
        float(_child("setup", workload, home_scale, str(seed))) for _ in range(SETUP_REPS)
    ]
    session = Session(workload, seed, home_scale)
    session.prepare()
    probe_s = dict.fromkeys(session.probes(), 0.0)
    loads.CLOCK.start()
    began = time.perf_counter()

    def run_probe(path: str) -> None:
        probe_began = time.perf_counter()
        session.op(path)
        probe_s[path] += time.perf_counter() - probe_began

    def between() -> None:
        while sum(probe_s.values()) < (time.perf_counter() - began) * (1 - HOME_SHARE):
            run_probe(min(probe_s, key=probe_s.get))

    try:
        # No operation of the workload starts that the last one's
        # duration says would end past ``seconds``.
        while True:
            op_began, probes_before = time.perf_counter(), sum(probe_s.values())
            session.op(workload, between)
            op_s = time.perf_counter() - op_began - (sum(probe_s.values()) - probes_before)
            between()
            if time.perf_counter() - began + op_s > seconds:
                break
        for path, spent in probe_s.items():
            if not spent:
                run_probe(path)
    finally:
        loads.CLOCK.stop()
        session.close()
    metrics, notes = _e2e_metrics(session, setup)
    attempted, failed = session.accounting()
    missing = sorted(set(E2E_UNITS) - set(metrics))
    for name in missing:
        notes.append(f"{name}: no successful operation measured it")
        metrics[name] = 0.0
    return _report(metrics, E2E_UNITS, attempted, failed, failed == 0 and not missing, notes)


def _iteration(session: Session, tracer: shims.Tracer | None) -> tuple[float, dict]:
    """The workload's operation, then one quick operation of every other path."""
    per_path: dict[str, dict] = {}
    began = time.perf_counter()
    for path in [session.workload, *session.probes()]:
        if tracer is not None:
            tracer.op_id += 1
            calls, busy, work = Counter(tracer.calls), Counter(tracer.busy), Counter(tracer.work)
        result = session.op(path)
        if tracer is None:
            continue
        if not result.failures:
            fired = tracer.calls - calls
            silent = [name for name in shims.EXPECTED[path] if not fired[name]]
            if silent:
                raise shims.ShimError(
                    f"shims expected on {path} saw no call: {', '.join(silent)}"
                )
        tracer.work["analyzer.distance.passes"] += result.distance_passes
        per_path[path] = {
            "busy_s": dict(tracer.busy - busy),
            "work": dict(Counter(tracer.work) - work),
            "calls": dict(tracer.calls - calls),
        }
    return time.perf_counter() - began, per_path


def trace_run(workload: str, seed: int, seconds: float, home_scale: str = "full") -> dict:
    """The traced run: every per-layer metric, plus coverage and overhead.

    Traced and untraced iterations alternate, at least two traced and one
    untraced, until ``seconds`` have passed.
    """
    session = Session(workload, seed, home_scale)
    session.prepare()
    traced: list[dict] = []
    untraced_walls: list[float] = []
    first_layers = None
    began = time.perf_counter()
    try:
        index = 0
        while index < 3 or time.perf_counter() - began < seconds:
            if index % 2:
                untraced_walls.append(_iteration(session, None)[0])
            else:
                tracer = shims.Tracer(keep_spans=not traced)
                tracer.install()
                try:
                    wall, per_path = _iteration(session, tracer)
                finally:
                    tracer.uninstall()
                traced.append(
                    {"wall": wall, "root_s": tracer.root_s, "busy": tracer.busy,
                     "work": tracer.work}
                )
                if first_layers is None:
                    first_layers = per_path
                    _write(f"trace-{workload}-{seed}.json", tracer.chrome_trace())
            index += 1
    finally:
        session.close()
    _write(f"layers-{workload}-{seed}.json", first_layers)

    metrics = {
        f"{layer}.busy_s": statistics.median([it["busy"][layer] for it in traced])
        for layer in BUSY_LAYERS
    }
    first = traced[0]["work"]
    notes = [f"traced iterations: {len(traced)}, untraced: {len(untraced_walls)}"]
    repeat = True
    for name in (*COUNTS, *(part for pair in RATIOS.values() for part in pair)):
        seen = {it["work"][name] for it in traced}
        if len(seen) > 1:
            repeat = False
            notes.append(f"count {name} differs between traced iterations: {sorted(seen)}")
    for name in COUNTS:
        metrics[name] = first[name]
    for name, (numerator, denominator) in RATIOS.items():
        metrics[name] = first[numerator] / first[denominator] if first[denominator] else 0.0
    metrics["trace.coverage"] = statistics.median([it["root_s"] / it["wall"] for it in traced])
    metrics["trace.overhead"] = (
        statistics.median([it["wall"] for it in traced]) / statistics.median(untraced_walls) - 1.0
    )
    attempted, failed = session.accounting()
    return _report(metrics, LAYER_UNITS, attempted, failed, failed == 0 and repeat, notes)


def _write(name: str, document) -> None:
    OUTPUT.mkdir(exist_ok=True)
    (OUTPUT / name).write_text(json.dumps(document), encoding="utf-8")


def _report(metrics, units, attempted, failed, correct, notes) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "notes": notes,
    }


def _print(report: dict) -> None:
    for note in report.pop("notes"):
        print(f"# {note}")
    for name, metric in report["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(report))


def write_reference() -> None:
    """Digest every path at both sizes for the default and held-out seeds."""
    digests = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for scale in loads.SCALES:
            # A session of the analyze workload makes its records at this scale.
            session = Session("analyze", seed, scale)
            session.prepare()
            try:
                for path in loads.PATHS:
                    result = loads.run_op(path, scale, seed, session.workdir)
                    if result.failures:
                        raise SystemExit(f"{path}/{scale}/{seed} failed: {result.failures}")
                    digests[f"{path}/{scale}/{seed}"] = result.digest
                    print(f"{path}/{scale}/{seed} {result.digest}")
            finally:
                session.close()
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def selftest() -> int:
    """Quick mode: every path at its quick size, checked three ways."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    reports = {
        "end_to_end": measure("profile", DEFAULT_SEED, 0, home_scale="quick"),
        "per_layer": trace_run("profile", DEFAULT_SEED, 0, home_scale="quick"),
    }
    for section, report in reports.items():
        printed = {name: metric["unit"] for name, metric in report["metrics"].items()}
        wanted = {metric["name"]: metric["unit"] for metric in bench[section]}
        if printed != wanted:
            problems.append(f"{section} metrics printed {printed} but BENCHMARK.json has {wanted}")
        if not report["correct"] or report["failed"]:
            problems.append(f"{section} run was not correct: {report['notes']}")
    reference = _load_reference()
    for path in loads.PATHS:
        if f"{path}/quick/{DEFAULT_SEED}" not in reference:
            problems.append(f"no reference digest for {path}/quick/{DEFAULT_SEED}")
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=loads.PATHS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="run the benchmark's own test")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    import repro  # noqa: F401  (fail before any work when the source is missing)

    if args.quick:
        return selftest()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run = trace_run if args.trace else measure
    _print(run(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
