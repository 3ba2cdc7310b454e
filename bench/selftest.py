"""Self-test of the benchmark, at tiny sizes. Run from the repository root:

    python3 bench/selftest.py

1. Every metric BENCHMARK.json names is emitted, with its unit, by
   bench/run.py on every workload, with tracing off and on.
2. Corrupted outputs are flagged and counted as failed job runs: a tau off
   by one (with its ratio kept consistent), one factor's measure dropped,
   and one match=0 row. So is a job over the time limit. The same job lists
   with their true outputs count no failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str):
    print("%s: %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=170,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
                   "%s trace %d runs clean" % (workload, trace))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "%s trace %d result keys" % (workload, trace))
            got = result["metrics"]
            for metric in spec[key]:
                m = got.get(metric["name"])
                expect(m is not None and m["unit"] == metric["unit"]
                       and isinstance(m["value"], (int, float)),
                       "%s trace %d emits %s in %s" % (workload, trace, metric["name"], metric["unit"]))


def ledger_with(workload: str):
    run.purge_subrec()
    jobs = workloads.setup(workload, 5, tiny=True)
    ledger = run.Ledger(jobs)
    ledger.run_pass()
    return ledger


def first_index(ledger, prefix: str) -> int:
    return next(i for i, job in enumerate(ledger.jobs) if job.id.startswith(prefix))


def flagged(workload: str, prefix: str, corrupt, what: str):
    clean = ledger_with(workload)
    clean.check(None)
    expect(clean.failed_runs() == 0, "%s: true outputs pass every check" % workload)

    ledger = ledger_with(workload)
    i = first_index(ledger, prefix)
    ledger.first[i] = corrupt(ledger.first[i])
    ledger.check(None)
    failed = ledger.failed_runs()
    expect(bool(ledger.errors[i]) and failed >= 1 and failed / len(ledger.latencies) > 0,
           "%s: %s is flagged and counted (%s)" % (workload, what, "; ".join(ledger.errors[i])[:100]))


def tau_off_by_one(result):
    rc, text = result
    lines = text.splitlines()
    n, tau, _, _, window, stab = lines[-1].split(",")
    r = Fraction(int(tau) + 1, int(n))
    lines[-1] = ",".join([n, str(int(tau) + 1), str(r.numerator), str(r.denominator), window, stab])
    return rc, "\n".join(lines) + "\n"


def drop_measure(result):
    spec, lengths, taus, factors, measures = result
    return spec, lengths, taus, factors, measures[1:]


def match_zero(result):
    rc, text = result
    lines = text.splitlines()
    cells = lines[-1].split(",")
    lines[-1] = ",".join(cells[:4] + ["0"])
    return rc, "\n".join(lines) + "\n"


def time_limit():
    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    job = workloads.Job("spin", spin, lambda result: [], lambda result: "")
    saved = run.JOB_LIMIT_S
    run.JOB_LIMIT_S = 0.2
    try:
        ledger = run.Ledger([job])
        start = time.perf_counter()
        ledger.run_pass()
        seconds = time.perf_counter() - start
    finally:
        run.JOB_LIMIT_S = saved
    ledger.check(None)
    expect(ledger.failed_runs() == 1 and seconds < 2,
           "a job over the time limit is stopped and counted as failed")


def main() -> int:
    emitted_metrics()
    import signal

    signal.signal(signal.SIGALRM, run._alarm)
    flagged("symbolic", "rates ", tau_off_by_one, "a tau off by one")
    flagged("geometry", "atoms ", drop_measure, "a dropped factor measure")
    flagged("xcheck", "xcheck ", match_zero, "a match=0 row")
    time_limit()
    print("selftest: %s" % ("%d failures" % len(failures) if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
