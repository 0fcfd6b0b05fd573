"""Collect every paper-vs-measured number for EXPERIMENTS.md."""
import json
from repro.analysis import dynamic
from repro.analysis.intervals import summarise
from repro.analysis.genealogy import analyse as genealogy
from repro.analysis.classifier import accuracy, census
from repro.corpus import cedar_corpus, gvx_corpus
from repro.corpus.model import PAPER_TABLE4, PARADIGMS

out = {}

for system in ("Cedar", "GVX"):
    rows = []
    for r in dynamic.measure_all(system):
        paper = dynamic.paper_row(system, r.activity)
        iv = [d for d, _ in r.extras["exec_intervals"]]
        s = summarise(iv)
        g = genealogy(r.extras["thread_log"])
        rows.append(dict(
            activity=r.activity,
            forks=(paper.forks_per_sec, round(r.forks_per_sec, 1)),
            switches=(paper.switches_per_sec, round(r.switches_per_sec)),
            waits=(paper.waits_per_sec, round(r.waits_per_sec)),
            tmo=(round(100*paper.timeout_fraction), round(100*r.timeout_fraction)),
            ml=(paper.ml_enters_per_sec, round(r.ml_enters_per_sec)),
            cont=round(100*r.contention_fraction, 3),
            cvs=(paper.distinct_cvs, r.distinct_cvs),
            mls=(paper.distinct_mls, r.distinct_mls),
            short_frac=round(100*s.short_fraction),
            quantum_share=round(100*s.quantum_time_share),
            max_gen=g.max_generation,
            max_threads=r.max_live_threads,
        ))
    out[system] = rows

for name, corp in (("Cedar", cedar_corpus()), ("GVX", gvx_corpus())):
    c = census(corp, name)
    out[f"census_{name}"] = dict(
        accuracy=round(100*accuracy(corp), 1),
        counts={p: (PAPER_TABLE4[name][p], c.counts[p]) for p in PARADIGMS},
    )

from repro.casestudies.ybntm import run_comparison as ybntm_cmp
c = ybntm_cmp()
out["ybntm"] = dict(
    plain=dict(flushes=c.plain_yield.flushes, batch=c.plain_yield.mean_batch,
               switches=c.plain_yield.switches, busy=c.plain_yield.server_busy),
    fixed=dict(flushes=c.ybntm.flushes, batch=c.ybntm.mean_batch,
               switches=c.ybntm.switches, busy=c.ybntm.server_busy,
               lat=round(c.ybntm.mean_latency/1000, 1)),
    work_reduction=round(c.server_work_reduction, 2),
    flush_reduction=round(c.flush_reduction, 2),
    switch_reduction=round(c.switch_reduction, 2),
)

from repro.casestudies.quantum import sweep_quantum
for strat in ("ybntm", "sleep"):
    s = sweep_quantum(strat)
    out[f"quantum_{strat}"] = {
        f"{q//1000}ms": dict(batch=round(r.mean_batch, 2),
                             lat=round(r.mean_latency/1000, 1),
                             flushes=r.flushes)
        for q, r in s.results.items()
    }

from repro.casestudies.spurious import run_comparison as sp_cmp
sp = sp_cmp()
out["spurious"] = {k: dict(conflicts=v.spurious_conflicts, switches=v.switches)
                   for k, v in sp.items()}

from repro.casestudies.inversion import run_all_variants
inv = run_all_variants()
out["inversion"] = {k: (None if v.blocked_for is None else round(v.blocked_for/1000))
                    for k, v in inv.items()}

from repro.casestudies.xclients import run_comparison as x_cmp
xc = x_cmp()
out["xclients"] = {k: dict(flushes=v.flushes, shipped=v.requests_shipped,
                           busy=v.server_busy, blocks=v.lock_contention_blocks,
                           painted=round(v.painting_done_at/1000))
                   for k, v in xc.items()}

from repro.casestudies.wait_bugs import run_missing_notify
mn_ok = run_missing_notify(notify_present=True)
mn_bug = run_missing_notify(notify_present=False)
out["missing_notify"] = dict(ok=round(mn_ok.completion_time/1000, 1),
                             bug=round(mn_bug.completion_time/1000, 1))

from repro.casestudies.weakmem import run_publication, run_init_once
out["weakmem"] = dict(
    pub_pso=run_publication(model="pso").torn_reads,
    pub_sc=run_publication(model="sc").torn_reads,
    pub_monitored=run_publication(model="pso", monitored=True).torn_reads,
    init_pso=sum(run_init_once(model="pso", seed=s).saw_uninitialised for s in range(20)),
    init_fenced=sum(run_init_once(model="pso", fenced=True, seed=s).saw_uninitialised for s in range(20)),
)

from repro.casestudies.fork_failure import run_comparison as ff_cmp
ff = ff_cmp()
out["fork_failure"] = {k: dict(completed=v.completed, failures=v.failures,
                               max_lat=round(v.max_latency/1000))
                       for k, v in ff.items()}

print(json.dumps(out, indent=1))
