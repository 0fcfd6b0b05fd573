"""C7 (Section 5.5): weak memory ordering hazards.

"Under weak ordering, readers of the global variable can follow a
pointer to a record that has not yet had its fields filled in" — and
Birrell's init-once hint breaks the same way.  Both hazards occur on
``pso`` store buffers; monitors (whose implementation fences) and
explicit barriers both restore safety.
"""

from repro.analysis.report import format_table
from repro.casestudies.weakmem import run_init_once, run_publication


def test_pointer_publication_hazard(benchmark):
    pso = benchmark.pedantic(
        lambda: run_publication(model="pso"), rounds=1, iterations=1
    )
    sc = run_publication(model="sc")
    monitored = run_publication(model="pso", monitored=True)
    print()
    print(
        format_table(
            "C7: time-date record publication (50 rounds, 2 CPUs)",
            ["configuration", "reads", "torn reads"],
            [
                ["sc", sc.reads, sc.torn_reads],
                ["pso", pso.reads, pso.torn_reads],
                ["pso + monitor", monitored.reads, monitored.torn_reads],
            ],
        )
    )
    assert sc.torn_reads == 0
    # The §5.5 hazard is real and frequent under weak ordering.
    assert pso.torn_reads >= 5
    # "The monitor implementation for weak ordering can use memory
    # barrier instructions" — monitored access is safe again.
    assert monitored.torn_reads == 0


def test_init_once_hazard(benchmark):
    def run_seeds(model, fenced):
        return sum(
            run_init_once(model=model, fenced=fenced, seed=s).saw_uninitialised
            for s in range(20)
        )

    pso_hits = benchmark.pedantic(
        lambda: run_seeds("pso", False), rounds=1, iterations=1
    )
    sc_hits = run_seeds("sc", False)
    fenced_hits = run_seeds("pso", True)
    print()
    print(
        format_table(
            "C7b: Birrell's init-once hint across 20 seeds",
            ["configuration", "runs seeing uninitialised data"],
            [
                ["sc", sc_hits],
                ["pso", pso_hits],
                ["pso + explicit fence", fenced_hits],
            ],
        )
    )
    assert sc_hits == 0
    # "a thread can both believe that the initializer has already been
    # called and not yet be able to see the initialized data."
    assert pso_hits >= 3
    assert fenced_hits == 0
