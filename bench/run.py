"""liechar benchmark runner.

    python3 bench/run.py --workload exact_sparse --seed 1 --seconds 30 --trace 0

One client in a closed loop: each job starts when the previous one has
finished. CLI jobs run in a fresh interpreter each; library jobs run in
this process on objects built afresh for every execution. A pass runs
every job of the workload once, in a seeded order, and passes repeat
while the next one is expected to end within --seconds (at least two).

A job's latency is the best of its executions. The host this benchmark
was built on alternates fast and slow phases of 5-10 s whose speeds
differ by up to 1.5x, so a median reads the phase mix of the run rather
than the program; executions of one job are a pass apart, so the best
of them lands in a fast phase. A job class's per-pass latency is the
sum of its jobs' latencies, and pass_s the sum over all jobs. setup_s is
the median of fresh-interpreter imports taken between the passes.

The last line of stdout is one JSON object: correct, attempted, failed
(job executions of the timed passes) and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the passes alternate
between untraced and traced and the metrics are the per-layer ones,
per traced pass, plus the tracing overhead. Limit probes run after the
passes, under their own deadline; they count in passed_frac only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2
# The calibration loop's time on the host the benchmark was defined on
# (an x86-64 cloud VM, Python 3.11) when it ran at full speed.
REFERENCE_LOOP_S = 0.0075
IMPORTS_PER_GAP = 2  # setup_s samples before, between and after the passes


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline()


class Runner:
    def __init__(self, workdir: Path, trace_files: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.workdir = workdir
        self.trace_files = trace_files
        self.records: list[dict] = []  # traced-pass span dumps

    def execute(self, job, traced: bool, job_id: str) -> tuple[float, str | None]:
        """(latency at reference speed in seconds, failure reason or None)."""
        before = loop_seconds()
        if job.argv is not None:
            elapsed, problem = self._cli(job, traced, job_id)
        else:
            elapsed, problem = self._library(job, traced, job_id)
        speed = (before + loop_seconds()) / 2
        return elapsed * REFERENCE_LOOP_S / speed, problem

    def _cli(self, job, traced: bool, job_id: str) -> tuple[float, str | None]:
        if traced:
            spans = self.trace_files / f"{job_id}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(spans), job_id, *job.argv]
        else:
            cmd = [sys.executable, "-m", "liechar.cli", *job.argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=job.deadline, cwd=self.workdir)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, f"missed its {job.deadline:.0f} s deadline"
        elapsed = time.perf_counter() - start
        if traced and spans.is_file():
            self.records.append(json.loads(spans.read_text()))
        if proc.returncode not in (0, 1):
            return elapsed, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return elapsed, job.check(proc.returncode, proc.stdout)

    def _library(self, job, traced: bool, job_id: str) -> tuple[float, str | None]:
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer(job_id)
            tracer.install()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, job.deadline)
        start = time.perf_counter()
        try:
            result = job.call()
        except Deadline:
            return time.perf_counter() - start, f"missed its {job.deadline:.0f} s deadline"
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            return time.perf_counter() - start, f"raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if tracer is not None:
                tracer.uninstall()
                self.records.append({"spans": tracer.spans, "counters": tracer.counters})
        return time.perf_counter() - start, job.check(result)


def time_imports(env: dict, count: int) -> list[float]:
    """Wall times of fresh interpreters importing liechar."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import liechar"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def loop_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the CPU's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_to_fastest_cpu() -> None:
    """One client: keep it and its children on one CPU so they do not migrate.

    On a shared host the CPUs run at different speeds from one moment to
    the next; take the one that runs the calibration loop fastest now.
    """
    speeds = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(loop_seconds() for _ in range(10))
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "liechar" / "__init__.py").is_file():
        print(f"error: no liechar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    problem = workloads.check_inputs()
    if problem:
        print(f"error: {problem}; run bench/make_inputs.py", file=sys.stderr)
        return 2

    pin_to_fastest_cpu()
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / "_work"))
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workdir: Path) -> int:
    rng = random.Random(args.seed)
    jobs, probes = workloads.build(args.workload, rng, workdir)
    trace_files = workdir / "spans"
    trace_files.mkdir()
    runner = Runner(workdir, trace_files)
    time_imports(runner.env, 1)  # compiles bytecode once, as an install would
    setup_times = time_imports(runner.env, IMPORTS_PER_GAP)

    samples: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    failed_jobs: set[str] = set()
    attempted = failed = 0
    pass_times: list[float] = []
    traced_passes = 0
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(pass_times) % 2 == 1
        pass_start = time.perf_counter()
        executions = [job for job in jobs for _ in range(job.repeat)]
        for job in rng.sample(executions, len(executions)):
            job_id = f"p{len(pass_times)}-{attempted}"
            elapsed, problem = runner.execute(job, traced, job_id)
            samples[traced].setdefault(job.key, []).append(elapsed)
            attempted += 1
            if problem:
                failed += 1
                failed_jobs.add(job.key)
                print(f"FAIL {job.key}: {problem}", file=sys.stderr)
        pass_times.append(time.perf_counter() - pass_start)
        traced_passes += traced
        setup_times += time_imports(runner.env, IMPORTS_PER_GAP)
        spent = time.perf_counter() - begin
        if len(pass_times) >= MIN_PASSES and spent + max(pass_times[-2:]) > args.seconds:
            break

    probe_failures = 0
    for job in probes:
        _, problem = runner.execute(job, False, f"probe-{job.key}")
        if problem:
            probe_failures += 1
            print(f"LIMIT {job.key}: {problem}", file=sys.stderr)

    def per_pass(traced: bool, cls: str | None = None) -> float:
        return sum(min(samples[traced][job.key]) for job in jobs if cls is None or job.cls == cls)

    if args.trace:
        from tracer import LAYER_METRICS, layer_totals

        totals = layer_totals(runner.records)
        metrics = {name: {"value": totals[name] / traced_passes, "unit": unit} for name, unit in LAYER_METRICS.items()}
        metrics["bench.trace_overhead_s"] = {"value": per_pass(True) - per_pass(False), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": per_pass(False), "unit": "s"},
            **{f"{cls}_s": {"value": per_pass(False, cls), "unit": "s"} for cls in workloads.CLASSES},
            "passed_frac": {
                "value": (len(jobs) - len(failed_jobs) + len(probes) - probe_failures) / (len(jobs) + len(probes)),
                "unit": "ratio",
            },
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(
        f"{args.workload} seed {args.seed}: {len(pass_times)} passes in {sum(pass_times):.1f} s, "
        f"{len(jobs)} jobs, {len(probes) - probe_failures}/{len(probes)} limit probes pass",
        file=sys.stderr,
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
