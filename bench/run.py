"""The subrec benchmark: one workload per run, closed loop, one job at a time.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

Run from the repository root. The job list is drawn from --seed and run
again and again, one job after another, for --seconds. With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, measured against
an untraced run of the same length. Outputs are checked after the timed
region; the exit code is 1 if any check fails. A full record, with context,
goes to bench/out/<workload>-seed<seed>-trace<0|1>.json. BENCHMARK.json names
the metrics; bench/DESIGN.md says why the workloads are what they are.
"""

from time import perf_counter

T_START = perf_counter()  # set-up is timed from here

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (after T_START on purpose)
from tracer import Tracer  # noqa: E402

SETUPS = 7            # set-ups per run; setup_s is their median
MIN_PASSES = 3        # passes over the job list, whatever --seconds says
JOB_LIMIT_S = 20      # per-job time limit; a job over it fails
DEFAULT_SEED = 0      # the seed whose output digests are recorded
# Times are reported in reference seconds. A pass runs the calibration kernel
# CALIBRATIONS_PER_JOB times before every job and scales its latencies by
# CALIBRATION_REF_S / (median kernel time of the pass); a set-up is scaled by
# the kernel run right after it. On the shared host the benchmark was built
# on, machine speed swung by up to 2x over minutes, more than the changes the
# benchmark must resolve; the kernel follows much of that swing, and no
# change to subrec can move it. CALIBRATION_REF_S is the kernel's time on
# that host when quiet, so reference seconds read close to wall seconds.
CALIBRATION_REF_S = 0.004
CALIBRATIONS_PER_JOB = 3
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"


class JobTimeout(BaseException):
    """Raised in the main thread by SIGALRM; BaseException so that no
    `except Exception` inside the library can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def calibration_kernel() -> int:
    """Fixed interpreter work of the kinds subrec does (integer arithmetic,
    Fraction sums, str.find scans); imports nothing from subrec."""
    acc = 0
    for i in range(1, 8000):
        acc += (i * i) % 7
        if i % 50 == 0:
            acc += (Fraction(i, 7) + Fraction(1, i)).denominator
    text = "ab" * 20000
    for _ in range(20):
        acc += text.find("bb")
    return acc


def calibration_s() -> float:
    start = perf_counter()
    calibration_kernel()
    return perf_counter() - start


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least 10 job runs beyond it, given
    the MIN_PASSES passes every run makes."""
    return max(50, int(100 * (1 - 10 / (jobs * MIN_PASSES))))


def purge_subrec():
    for name in [m for m in sys.modules if m == "subrec" or m.startswith("subrec.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, tiny: bool):
    """Import subrec and draw the jobs SETUPS times; the first set-up counts
    from process start, the later ones re-execute subrec's modules."""
    times, scaled, jobs = [], [], None
    for i in range(SETUPS):
        if i:
            jobs = None
            purge_subrec()
            gc.collect()
        start = T_START if i == 0 else perf_counter()
        jobs = workloads.setup(workload, seed, tiny)
        times.append(perf_counter() - start)
        scaled.append(times[-1] * CALIBRATION_REF_S / calibration_s())
    return jobs, times, scaled


def run_job(job, tracer):
    """(seconds, result, error) of one job under the time limit."""
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    if tracer is not None:
        tracer.begin("job")
    start = perf_counter()
    result = error = None
    try:
        result = job.run()
    except JobTimeout:
        error = "exceeded the %d s time limit" % JOB_LIMIT_S
    except Exception as exc:  # a job that raises is a failed job
        error = "raised %s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.end_job()
    return seconds, result, error


class Ledger:
    """Latencies, first outputs and failures of every job run.

    Latencies are in reference seconds: a pass runs the calibration kernel
    CALIBRATIONS_PER_JOB times before every job and scales the pass's
    latencies by CALIBRATION_REF_S over the kernel's median time in it.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = {}          # job index -> result of its first run
        self.digest = {}         # job index -> digest of its first run
        self.latencies = []      # every job run
        self.job_latencies = {}  # job index -> latency of each of its runs
        self.pass_walls = []
        self.raw_pass_walls = []  # wall seconds, unscaled
        self.runs = {}           # job index -> [digest or None per run]
        self.errors = {}         # job index -> list of problems
        self.dropped = set()

    def run_pass(self, tracer=None):
        timed, calibration = [], []
        for i, job in enumerate(self.jobs):
            if i in self.dropped:
                continue
            calibration += [calibration_s() for _ in range(CALIBRATIONS_PER_JOB)]
            seconds, result, error = run_job(job, tracer)
            timed.append((i, seconds))
            if error is not None:
                self.runs.setdefault(i, []).append(None)
                self.errors.setdefault(i, []).append(error)
                self.dropped.add(i)  # a failed job is not run again
                continue
            digest = job.digest(result)
            self.runs.setdefault(i, []).append(digest)
            if i not in self.first:
                self.first[i], self.digest[i] = result, digest
        scale = CALIBRATION_REF_S / statistics.median(calibration)
        for i, seconds in timed:
            self.latencies.append(seconds * scale)
            self.job_latencies.setdefault(i, []).append(seconds * scale)
        self.raw_pass_walls.append(sum(seconds for _, seconds in timed))
        self.pass_walls.append(self.raw_pass_walls[-1] * scale)
        return self.pass_walls[-1]

    def check(self, expected: dict | None):
        """Check first outputs, run-to-run agreement and recorded digests."""
        for i, job in enumerate(self.jobs):
            problems = self.errors.setdefault(i, [])
            if i in self.first:
                try:
                    problems += job.check(self.first[i])
                except Exception as exc:
                    problems.append("check raised %s: %s" % (type(exc).__name__, exc))
            if expected is not None and i in self.digest and self.digest[i] != expected.get(job.id):
                problems.append("digest %s, recorded %s" % (self.digest[i], expected.get(job.id)))

    def failed_runs(self) -> int:
        """A run fails if it raised or timed out, or if its output differs
        from the first run's, or if that output failed a check."""
        failed = 0
        for i, digests in self.runs.items():
            bad_output = any(not p.startswith(("raised", "exceeded")) for p in self.errors.get(i, []))
            for d in digests:
                failed += d is None or d != self.digest.get(i) or bad_output
        return failed

    def typical_pass(self) -> float:
        """Time to run the whole job list once: the sum over jobs of each
        job's median latency, which a burst of load in one pass cannot move."""
        return sum(statistics.median(t) for t in self.job_latencies.values())

    def problems(self):
        return {self.jobs[i].id: p for i, p in self.errors.items() if p}


def measure(ledger, seconds, tracer=None, min_passes=MIN_PASSES):
    """Passes over the job list until the next one would overrun `seconds`."""
    start = perf_counter()
    walls = []
    while len(ledger.dropped) < len(ledger.jobs):  # every job failed: stop
        if tracer is not None:
            tracer.install()
        try:
            walls.append(ledger.run_pass(tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = perf_counter() - start
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > seconds:
            break
    return walls


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def context(args, jobs):
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(jobs),
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "trace_overhead": None,  # measured by --trace 1 runs only
    }


def run_workload(args) -> int:
    tiny = args.tiny
    jobs, setup_times, setup_scaled = set_up(args.workload, args.seed, tiny)
    signal.signal(signal.SIGALRM, _alarm)
    ledger = Ledger(jobs)
    record = context(args, jobs)
    tracer = None
    if args.trace:
        plain = measure(ledger, args.seconds / 2, min_passes=1)
        tracer = Tracer()
        traced = measure(ledger, args.seconds / 2, tracer, min_passes=1)
        overhead = statistics.median(traced) / statistics.median(plain) if plain and traced else 0.0
        record["trace_overhead"] = overhead
        record["passes"] = {"untraced": len(plain), "traced": len(traced)}
    else:
        walls = measure(ledger, args.seconds)
        record["passes"] = len(walls)

    expected = None
    if args.seed == DEFAULT_SEED and not tiny and DIGESTS.exists():
        expected = json.loads(DIGESTS.read_text()).get(args.workload)
    check_start = perf_counter()
    ledger.check(expected)
    record["check_s"] = perf_counter() - check_start
    attempted, failed = len(ledger.latencies), ledger.failed_runs()
    problems = ledger.problems()

    metrics = {}
    if args.trace:
        for name, (value, unit) in tracer.metrics(max(len(traced), 1)).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        layers = tracer.layer_seconds()
        total = sum(layers.values()) or 1.0
        record["layer_self_s"] = {k: v / max(len(traced), 1) for k, v in layers.items()}
        record["layer_share"] = {k: v / total for k, v in layers.items()}
        record["absent"] = sorted(tracer.absent)
        record["spans"] = len(tracer.spans)
    else:
        pct = tail_percentile(len(jobs))
        metrics = {
            "wall_s": {"value": ledger.typical_pass(), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(ledger.latencies), "unit": "ms"},
            "job_tail_ms": {"value": 1000 * percentile(ledger.latencies, pct), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        record["job_tail_percentile"] = pct
        record["setup_s_raw"] = setup_times
        record["setup_s_scaled"] = setup_scaled
        record["pass_walls_s"] = ledger.pass_walls

    record.update(
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        digests_compared=expected is not None,
        problems=problems,
        metrics=metrics,
        pass_walls_raw_s=ledger.raw_pass_walls,
        calibration_ref_s=CALIBRATION_REF_S,
        job_ms={job.id: [1000 * t for t in ledger.job_latencies[i]]
                for i, job in enumerate(jobs) if i in ledger.job_latencies},
    )
    if args.record_digests:
        DIGESTS.write_text(json.dumps(
            dict(json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {},
                 **{args.workload: {job.id: ledger.digest.get(i) for i, job in enumerate(jobs)}}),
            indent=1, sort_keys=True) + "\n")

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / (stem + ".spans.csv"))

    for job_id, plist in problems.items():
        print("FAILED %s: %s" % (job_id, "; ".join(plist[:3])), file=sys.stderr)
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print("%-36s %14.6g ratio (%d of %d job runs)"
          % ("failed_share", failed / attempted, failed, attempted), file=sys.stderr)
    if not args.trace:
        print("job_tail_ms is p%d over %d job runs of %d jobs"
              % (record["job_tail_percentile"], attempted, len(jobs)), file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; prints a table."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        rows.append((name, proc.returncode, result))
    for name, code, result in rows:
        if result is None:
            print("%s: no result (exit %d)" % (name, code))
            continue
        print("%s: exit %d, failed_share %.6g ratio (%d of %d)"
              % (name, code, result["failed"] / result["attempted"], result["failed"], result["attempted"]))
        for metric, m in result["metrics"].items():
            print("  %-36s %14.6g %s" % (metric, m["value"], m["unit"]))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small jobs, for the self-test")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests as the reference for its workload")
    args = p.parse_args(argv)
    if not (SRC / "subrec" / "__init__.py").is_file():
        print("run.py: no subrec sources at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.tiny):
        p.error("--record-digests needs the default seed and full sizes")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
