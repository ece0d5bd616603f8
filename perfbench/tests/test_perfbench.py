"""Self-tests of the benchmark harness, on a few cheap jobs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gsl.hopf  # noqa: E402
import gsl.zoo  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CHEAP = {
    "gf2_catalogue": ("D(3,A) GF(2)", "semidirect(D(2),mu(1),w=[-1,1]) GF(2)"),
    "odd_char": ("SL2_kerF(1) GF(2^2)", "mu(2) GF(5)"),
    "search": ("standard_coaction(1,1,True)", "mu2_invariants_D(1,0,1)",
               "enumerate_coactions(alpha(2),mu(1)) GF(2)"),
}


def cheap_jobs(seed=0):
    out = []
    for wl, names in CHEAP.items():
        jobs = workloads.make_jobs(wl, seed, workloads.make_fields(wl))
        out += [j for j in jobs if j.name in names]
    assert len(out) == sum(len(v) for v in CHEAP.values())
    return out


def outputs(jobs, tr=None):
    ph = workloads.Phases(time.perf_counter)
    if tr is None:
        return [j.run(ph) for j in jobs]
    return [tr.job_span(j.name, j.run, ph) for j in jobs]


def traced_counts(jobs):
    with tracer.Tracer(0.5) as tr:
        outputs(jobs, tr)
    m = tr.metrics(1.0, 1.0)
    return {k: v for k, v in m.items() if isinstance(v, int)}


def test_traced_and_untraced_outputs_agree():
    jobs = cheap_jobs()
    plain = outputs(jobs)
    with tracer.Tracer(0.5) as tr:
        traced = outputs(jobs, tr)
    assert traced == plain
    assert plain == [j.pinned for j in jobs]


def test_two_traced_runs_count_the_same():
    jobs = cheap_jobs()
    first, second = traced_counts(jobs), traced_counts(jobs)
    assert first == second
    assert first["gf.mul.calls"] > 0 and first["talg.poly_mul.calls"] > 0


def test_wrong_pinned_value_is_a_failure():
    good = cheap_jobs()[0]
    wrong = good._replace(name="wrong",
                          pinned=dict(good.pinned, dim=good.pinned["dim"] + 1))

    def boom(ph):
        raise ValueError("job raised")

    raising = good._replace(name="raises", run=boom)
    p = run.run_pass([good, wrong, raising])
    errors = {j.name: j.error for j in p.jobs}
    assert errors[good.name] is None
    assert "pinned" in errors["wrong"]
    assert "ValueError" in errors["raises"]


def test_wrappers_cover_by_name_imports_and_are_removed():
    original = gsl.hopf.hopf_verify
    assert gsl.zoo.hopf_verify is original
    with tracer.Tracer(0.5) as tr:
        assert gsl.zoo.hopf_verify is not original
        assert getattr(gsl.zoo.hopf_verify, tracer.MARK) is original
        assert tracer.installed_wrappers()
        # semidirect reaches hopf_verify through zoo's own binding
        gsl.zoo.semidirect(gsl.zoo.D(1), gsl.zoo.mu(1), {"S": -1, "T": 1})
    assert tr.stats["hopf.hopf_verify"].calls == 1
    assert tracer.installed_wrappers() == []
    assert gsl.zoo.hopf_verify is original and gsl.hopf.hopf_verify is original


def test_self_times_add_up_to_the_untraced_time():
    jobs = cheap_jobs()
    t0 = time.perf_counter()
    outputs(jobs)
    untraced = time.perf_counter() - t0
    with tracer.Tracer(tracer.calibrate(rounds=1, n=20000)) as tr:
        t0 = time.perf_counter()
        outputs(jobs, tr)
        traced = time.perf_counter() - t0
    self_s, _, cost = tr.corrected(traced, untraced)
    assert cost > 0
    assert abs(sum(self_s.values()) - untraced) < 1e-9 * max(1.0, untraced)


def test_paced_time_divides_each_job_by_the_pace_read_while_it_ran():
    sampler = pace.Sampler()
    sampler.times, sampler.paces = [0.5, 1.5, 2.5], [2.0, 2.0, 0.5]
    idle = {"build": 0.0, "verify": 0.0, "search": 0.0}
    slow = run.JobRun("slow", 0.0, 2.0, None, dict(idle, build=1.5))
    fast = run.JobRun("fast", 2.2, 0.5, None, dict(idle, build=0.25))
    # no reading inside: the nearest before (2.0) and after (0.5)
    short = run.JobRun("short", 1.6, 0.25, None, idle)
    p = run.Pass(2.75, idle, [slow, fast, short])
    assert run.paced([p], lambda j: j.seconds, sampler) == 1.0 + 1.0 + 0.2
    assert run.paced([p], lambda j: j.phases["build"], sampler) == 1.25


def test_sampler_reads_inside_a_job_and_its_clock_leaves_them_out():
    with pace.Sampler(interval=0.05) as sampler:
        w0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - w0 < 0.5:
            pass
        wall, net = time.perf_counter() - w0, sampler.clock() - c0
    assert len(sampler.paces) >= 3 and min(sampler.paces) > 0
    assert abs((wall - net) - sampler.spent) < 1e-3
