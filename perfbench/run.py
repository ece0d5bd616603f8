"""Closed-loop benchmark of gsl: one caller runs a workload's jobs back to back.

    python3 perfbench/run.py --workload gf2_catalogue --seed 1 --seconds 30 --trace 0

Run from the repository root; gsl is imported from ./src.  With --trace 0
the last line of standard output is a JSON object holding every
end-to-end metric of BENCHMARK.json, its times divided by the host pace
read while they ran (perfbench/pace.py); with --trace 1 it holds every
per-layer metric, taken from passes run under perfbench/tracer.py.
Each run also writes its full record (environment, per-pass and per-job
times, failures, spans) to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

import pace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_PASSES = 2
SETUP_SAMPLES = 9

# A child process that does what the benchmark does before its first job.
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.make_fields(sys.argv[3])")

Pass = namedtuple("Pass", "wall phases jobs")
# One job of a pass: its start on the pass's clock, its time, its error
# (None if its output matched the pin) and the time it spent in each phase.
JobRun = namedtuple("JobRun", "name start seconds error phases")

clock = time.perf_counter


def import_library():
    """Import gsl from this checkout's src, never from anywhere else."""
    if not (SRC / "gsl" / "__init__.py").is_file():
        raise SystemExit("perfbench: no gsl sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import gsl
    if Path(gsl.__file__).resolve().parent != SRC / "gsl":
        raise SystemExit("perfbench: imported gsl from %s" % gsl.__file__)


def measure_setup(workload):
    """Wall times of fresh processes that import gsl and build the
    workload's fields, measured from process start.  They are not paced:
    process start-up and imports do not follow the host pace of pace.py."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = clock()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                        str(BENCH_DIR), workload], check=True)
        samples.append(clock() - t0)
    return samples


def run_pass(jobs, tracer=None, collect=False, sampler=None):
    """One pass over the jobs; with ``collect``, cyclic garbage is collected
    after each job, outside its timing.  With a pace ``sampler``, times
    leave out the time it spends taking readings."""
    import workloads
    now = clock if sampler is None else sampler.clock
    ph = workloads.Phases(now)
    done = []
    for job in jobs:
        phases = dict(ph.totals)
        j0 = now()
        try:
            if tracer is None:
                out = job.run(ph)
            else:
                out = tracer.job_span(job.name, job.run, ph)
            err = None if out == job.pinned else (
                "got %r, pinned %r" % (out, job.pinned))
        except Exception:  # a job that raises fails; the pass goes on
            err = traceback.format_exc()
        done.append(JobRun(job.name, j0, now() - j0, err,
                           {k: v - phases[k] for k, v in ph.totals.items()}))
        if collect:
            gc.collect()
    return Pass(sum(j.seconds for j in done), dict(ph.totals), done)


def job_pace(sampler, j):
    return sampler.pace_during(j.start, j.start + j.seconds)


def paced(passes, part, sampler):
    """Median over passes of the sum over jobs of ``part`` of the job,
    divided by the host pace while it ran: the pass's time at the pace
    of pace.QUIET_S."""
    return statistics.median(sum(part(j) / job_pace(sampler, j) for j in p.jobs)
                             for p in passes)


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpu": cpu,
            "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def repeat(one_round, seconds, min_rounds):
    """Run one_round at least min_rounds times, then while another round
    of median length still fits in ``seconds``; returns the results."""
    rounds, walls = [], []
    start = clock()
    while True:
        t0 = clock()
        rounds.append(one_round())
        walls.append(clock() - t0)
        if (len(rounds) >= min_rounds
                and clock() - start + statistics.median(walls) > seconds):
            return rounds


def traced_rounds(jobs, seconds):
    """Alternate an untraced and a traced pass while time allows.

    Returns the untraced passes, the traced passes, the per-layer metrics
    (medians over traced passes) and the trace part of the record.
    """
    import tracer as tracing
    split = tracing.calibrate()
    tracers = []

    def pair():
        plain = run_pass(jobs)
        with tracing.Tracer(split, keep_spans=not tracers) as tr:
            traced = run_pass(jobs, tr)
        left = tracing.installed_wrappers()
        if left:
            raise RuntimeError("wrappers left installed: %s" % left)
        tracers.append(tr)
        return plain, traced

    rounds = repeat(pair, seconds, 1)
    plain = [p for p, _ in rounds]
    traced = [t for _, t in rounds]
    per_pass = [tr.metrics(t.wall, p.wall) for tr, (p, t) in zip(tracers, rounds)]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.pass_s"] = statistics.median(t.wall for t in traced)
    metrics["trace.overhead_s"] = (metrics["trace.pass_s"]
                                   - statistics.median(p.wall for p in plain))
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_pass]
    record = {
        "calibration_split": split,
        "wrapper_cost_s": [tr.corrected(t.wall, p.wall)[2]
                           for tr, (p, t) in zip(tracers, rounds)],
        "counts_repeat": all(c == counts[0] for c in counts),
        "per_pass": per_pass,
        "untraced_pass_s": [p.wall for p in plain],
        "spans": tracers[0].spans,
    }
    return plain, traced, metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    import workloads
    if args.workload not in workloads.FIELDS:
        raise SystemExit("perfbench: unknown workload %r" % args.workload)

    setup = measure_setup(args.workload)
    fields = workloads.make_fields(args.workload)
    jobs = workloads.make_jobs(args.workload, args.seed, fields)

    # The first pass in a process runs slower (on gf2_catalogue by 10-30 %,
    # as fresh memory is touched), so it is run untimed; its outputs are
    # still checked.  It also gives the peak memory: collecting garbage
    # after each job keeps the peak to what the jobs need, where cycles
    # left to the collector would make it depend on the job order.
    gc.collect()
    record = {"env": environment(args), "setup_samples_s": setup}
    if args.trace:
        warmup = run_pass(jobs, collect=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain, timed, metrics, record["trace"] = traced_rounds(jobs, args.seconds)
        all_passes = [warmup] + plain + timed
        wanted = spec["per_layer"]
    else:
        with pace.Sampler() as sampler:
            warmup = run_pass(jobs, collect=True, sampler=sampler)
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
            timed = repeat(lambda: run_pass(jobs, sampler=sampler),
                           args.seconds, MIN_PASSES)
        all_passes = [warmup] + timed
        metrics = {
            "pass_s": paced(timed, lambda j: j.seconds, sampler),
            "build_s": paced(timed, lambda j: j.phases["build"], sampler),
            "verify_s": paced(timed, lambda j: j.phases["verify"], sampler),
        }
        paced_jobs = {}
        for p in timed:
            for j in p.jobs:
                paced_jobs.setdefault(j.name, []).append(
                    j.seconds / job_pace(sampler, j))
        record.update({
            "pace_readings": len(sampler.paces),
            "pace_reading_s": sampler.spent / max(1, len(sampler.paces)),
            "pass_pace": [statistics.fmean(job_pace(sampler, j) for j in p.jobs)
                          for p in timed],
            "job_median_paced_s": {n: statistics.median(v)
                                   for n, v in paced_jobs.items()},
        })
        wanted = spec["end_to_end"]

    attempted = sum(len(p.jobs) for p in all_passes)
    failures = [(j.name, j.error) for p in all_passes for j in p.jobs if j.error]
    walls = [p.wall for p in timed]
    metrics.update({
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - len(failures)) / attempted,
        "failed_frac": len(failures) / attempted,
    })
    per_job = {}
    for p in timed:
        for j in p.jobs:
            per_job.setdefault(j.name, []).append(j.seconds)
    record.update({
        "warmup_pass_s": warmup.wall,
        "passes": len(timed),
        "pass_s_quartiles": quartiles(walls),
        "phases_per_pass": [p.phases for p in timed],
        "phases_median_s": {k: statistics.median(p.phases[k] for p in timed)
                            for k in timed[0].phases},
        "job_median_s": {n: statistics.median(v) for n, v in per_job.items()},
        "failures": [{"job": n, "error": e} for n, e in failures],
        "metrics": metrics,
    })

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / ("%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    out_file.write_text(json.dumps(record, indent=1, default=str))

    reasons = {}
    for name, err in failures:
        reasons.setdefault(name, []).append(err.strip().splitlines()[-1])
    for name, errs in reasons.items():
        print("FAILED %s (%d times): %s" % (name, len(errs), errs[-1]))
    print("%s seed %d: %d passes, raw pass time quartiles %s"
          % (args.workload, args.seed, len(timed),
             " / ".join("%.3f" % q for q in quartiles(walls))))
    for name, secs in sorted(record["job_median_s"].items(),
                             key=lambda kv: -kv[1]):
        print("  job %-48s %9.4f s" % (name, secs))
    if args.trace:
        print("wrapper cost per call %s s; counts repeat: %s"
              % (" ".join("%.3g" % c for c in record["trace"]["wrapper_cost_s"]),
                 record["trace"]["counts_repeat"]))
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-38s %14.6g %s" % (m["name"], value, m["unit"]))
    print("record: %s" % out_file.relative_to(ROOT))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))


if __name__ == "__main__":
    main()
