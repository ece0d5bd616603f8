"""Workloads of the gsl benchmark: their fields, jobs and pinned outputs.

A job builds, verifies or searches through the public ``gsl`` API and
returns a small dict of observed facts; the runner compares it with the
job's pinned dict.  Pinned values never depend on the seed.  The seed
picks the job order and the scalar parameters (lines (s1, s2) and H's a)
of jobs whose cost does not depend on them much.

Every call goes through a module attribute (``zoo.zoo_parse``, not a
name imported from it), so wrappers installed by a traced run see it.
"""

import random
from collections import namedtuple

import gsl.action as action
import gsl.gf as gf
import gsl.hopf as hopf
import gsl.parse as parse
import gsl.zoo as zoo

Job = namedtuple("Job", "name run pinned")

LINES_F2 = ((1, 0), (0, 1), (1, 1))

# name -> (p, m); every field a workload's jobs use is built in set-up
FIELDS = {
    "gf2_catalogue": {"GF(2)": (2, 1)},
    "odd_char": {"GF(3)": (3, 1), "GF(4)": (2, 2), "GF(9)": (3, 2),
                 "GF(2^8)": (2, 8), "GF(3^6)": (3, 6), "GF(5)": (5, 1)},
    "search": {"GF(2)": (2, 1), "GF(4)": (2, 2)},
}


def make_fields(workload):
    return {name: gf.Field(p, m) for name, (p, m) in FIELDS[workload].items()}


class Phases(object):
    """Time spent in each phase of one pass: build, verify and search."""

    def __init__(self, clock):
        self.clock = clock
        self.totals = {"build": 0.0, "verify": 0.0, "search": 0.0}

    def _timed(self, phase, fn, args):
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            self.totals[phase] += self.clock() - t0

    def build(self, fn, *args):
        return self._timed("build", fn, args)

    def verify(self, fn, *args):
        return self._timed("verify", fn, args)

    def search(self, fn, *args):
        return self._timed("search", fn, args)


# -- job factories ------------------------------------------------------------


def _hopf_ok(H):
    return hopf.hopf_verify(H)["ok"]


def _round_trip(H):
    """print -> parse (which re-verifies) -> literal comparison."""
    back = parse.parse_presentation(parse.print_presentation(H))
    return hopf.presentations_equal(back, H)


def catalogue_job(cid, F, dim, verify=True, round_trip=False):
    """Build ``cid`` with zoo_parse over F; optionally verify and round-trip.

    A verify that gsl refuses today (SizeGuard) is left out by passing
    verify=False, so the job stays a pure build.
    """
    def run(ph):
        H = ph.build(zoo.zoo_parse, cid, F)
        out = {"dim": H.carrier.dim}
        if verify:
            out["ok"] = ph.verify(_hopf_ok, H)
        if round_trip:
            out["round_trip"] = ph.verify(_round_trip, H)
        return out

    pinned = {"dim": dim}
    if verify:
        pinned["ok"] = True
    if round_trip:
        pinned["round_trip"] = True
    return Job("%s %s" % (cid, F.name), run, pinned)


def _nonzero_line(rng, F):
    while True:
        s1, s2 = rng.randrange(F.q), rng.randrange(F.q)
        if s1 or s2:
            return s1, s2


def gf2_catalogue_jobs(fields, rng):
    F = fields["GF(2)"]
    t1, t2 = rng.choice(LINES_F2)
    # pullback(line,3) costs 2.7 s to 5.8 s depending on the line, so a
    # seeded line would move pass_s by 2x; the costliest line is fixed.
    # pullback(line,2) costs 0.1 s to 0.2 s by line, which moved verify_s
    # by 10 % between seeds, so every line runs.
    jobs = [catalogue_job("SL2_kerF(2)", F, 64),
            catalogue_job("SL2_kerF(3)", F, 512, verify=False),
            catalogue_job("pullback(1,1,3)", F, 64),
            catalogue_job("Hunip(s1=%d,s2=%d,n=2)" % (t1, t2), F, 4),
            catalogue_job("kerFV", F, 4)]
    jobs += [catalogue_job("pullback(%d,%d,2)" % line, F, 32)
             for line in LINES_F2]
    for cid, dim in [("D(3,A)", 16), ("D(3,B)", 16), ("H(1,3)", 8),
                     ("witt2", 16), ("cocycle_ext(a=1,n=3)", 64),
                     ("semidirect(D(2),mu(1),w=[-1,1])", 16),
                     ("alpha(6)", 64), ("mu(6)", 64)]:
        jobs.append(catalogue_job(cid, F, dim, round_trip=True))
    return jobs


def odd_char_jobs(fields, rng):
    jobs = []
    for name in ("GF(3)", "GF(4)", "GF(9)", "GF(2^8)", "GF(3^6)"):
        F = fields[name]
        jobs.append(catalogue_job("SL2_kerF(1)", F, F.p ** 3))
    F5, F4, F3 = fields["GF(5)"], fields["GF(4)"], fields["GF(3)"]
    # hopf_verify refuses these carriers of dimension 125 (t3 > 2^20)
    jobs.append(catalogue_job("SL2_kerF(1)", F5, 125, verify=False))
    s1, s2 = _nonzero_line(rng, F5)
    jobs.append(catalogue_job("Hunip(s1=%d,s2=%d,n=1)" % (s1, s2), F5, 5))
    s1, s2 = _nonzero_line(rng, F4)
    jobs.append(catalogue_job("pullback(%d,%d,1)" % (s1, s2), F4, 16))
    for F in (F3, F5):
        p = F.p
        small = p ** 3 < 125  # the same refusal as above
        jobs += [catalogue_job("D(2)", F, p ** 3, verify=small),
                 catalogue_job("alpha(3)", F, p ** 3, verify=small),
                 catalogue_job("H(%d,2)" % rng.randrange(F.q), F, p ** 2),
                 catalogue_job("mu(2)", F, p ** 2)]
    return jobs


def _sl2_hom_job(n, F, total, shapes):
    def run(ph):
        homs = ph.search(zoo.sl2_hom_enumerate, n, F)
        out = {"homs": len(homs)}
        if shapes:
            nontrivial = [h for h in homs if not h["trivial"]]
            out["shapes"] = all(h["factored"] and h["f_additive"]
                                and h["B_trace"] == 0 and h["B_det"] == 0
                                for h in nontrivial)
            out["lines"] = sorted({h["line"] for h in nontrivial})
        return out

    pinned = {"homs": total}
    if shapes:
        pinned["shapes"] = True
        pinned["lines"] = sorted(LINES_F2)
    return Job("sl2_hom_enumerate(%d) %s" % (n, F.name), run, pinned)


def _subgroups_job(cid, F, count):
    def run(ph):
        H = ph.build(zoo.zoo_parse, cid, F)
        return {"subgroups": len(ph.search(hopf.enumerate_subgroups, H))}

    return Job("enumerate_subgroups(%s)" % cid, run, {"subgroups": count})


def _mu2_job(s1, s2, n, F):
    def run(ph):
        rep = ph.search(zoo.mu2_invariants_D, s1, s2, n, F)
        return {"dim": rep["group"].carrier.dim,
                "identities": all(rep["identities"].values()),
                "bijective": rep["iso"].is_bijective(),
                "shortcuts": sorted(set(rep["shortcuts"].values()))}

    # the naive square identities fail only at full twist and depth two
    expected = not (n == 2 and (s1, s2) == (1, 1))
    pinned = {"dim": 2 ** (n + 2), "identities": True, "bijective": True,
              "shortcuts": [expected]}
    return Job("mu2_invariants_D(%d,%d,%d)" % (s1, s2, n), run, pinned)


def _coaction_job(n, l, with_S, F):
    def run(ph):
        c = ph.build(action.standard_coaction, n, l, with_S, F)
        ext = ph.verify(action.extends_to_p1, c)
        return {"dim": c.group.dim, "extends": ext["extends"]}

    dim = 2 ** (n + l + (1 if with_S else 0))
    return Job("standard_coaction(%d,%d,%s)" % (n, l, with_S), run,
               {"dim": dim, "extends": True})


def _coactions_job(F, count):
    def run(ph):
        G = ph.build(zoo.alpha, 2, F)
        M = ph.build(zoo.mu, 1, F)
        return {"coactions": len(ph.search(zoo.enumerate_coactions, G, M))}

    return Job("enumerate_coactions(alpha(2),mu(1)) %s" % F.name, run,
               {"coactions": count})


def search_jobs(fields, rng):
    F2, F4 = fields["GF(2)"], fields["GF(4)"]
    jobs = [_sl2_hom_job(2, F2, 10, shapes=True),
            _sl2_hom_job(1, F4, 16, shapes=False),
            _subgroups_job("D(2)", F2, 8),
            _subgroups_job("alpha(3)", F2, 4),
            _subgroups_job("H(1,3)", F2, 4),
            _coactions_job(F2, 3),
            _coactions_job(F4, 5)]
    for n in (1, 2):
        for s1, s2 in LINES_F2:
            jobs.append(_mu2_job(s1, s2, n, F2))
    for n in range(3):
        for l in range(3):
            for with_S in (True, False):
                if n == 0 and not with_S:
                    continue  # nothing acts: refused by design
                jobs.append(_coaction_job(n, l, with_S, F2))
    return jobs


_JOBS = {"gf2_catalogue": gf2_catalogue_jobs, "odd_char": odd_char_jobs,
         "search": search_jobs}


def make_jobs(workload, seed, fields):
    """The workload's jobs in the seed's order, scalars drawn from the seed."""
    rng = random.Random(seed)
    jobs = _JOBS[workload](fields, rng)
    rng.shuffle(jobs)
    return jobs
