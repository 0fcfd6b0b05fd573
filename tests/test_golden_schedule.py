"""Golden-schedule determinism guard.

The kernel hot paths are optimisation targets (O(1) scheduler queries,
allocation-free ``_next_time``, short-circuited tracing), but the contract
is that **no optimisation may change a single scheduling decision**.  This
module enforces that contract: each scenario runs a deterministic
simulation with full tracing on, fingerprints the entire event stream plus
the final statistics, and compares the SHA-256 digests against the pinned
values in ``tests/golden/schedule_hashes.json``.

If a change perturbs one dispatch, one preemption, one timeout, or one
counter in any scenario, the digest changes and the test fails loudly.

The scenarios are the ``golden``-tagged entries of the scenario
catalogue (:mod:`repro.analysis.scenarios`); the fingerprint function and
``golden_run`` live in :mod:`repro.analysis.golden` so the watchdog
false-positive tests and the chaos runner can re-run the same scenarios
under varied configuration.

Pinned hashes are only ever regenerated for *intentional* behaviour
changes (a bugfix that corrects scheduling or accounting):

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/test_golden_schedule.py
    # or: PYTHONPATH=src:. python scripts/update_golden_schedule.py

The scenario set deliberately crosses every hot kernel path: the seed
Cedar/GVX worlds (idle and active), notify semantics (spurious-conflict
producer/consumer), YieldButNotToMe and directed-yield donations,
fork/join churn through the resource-wait path, every timed-wait kind
(sleep, CV timeout, channel timeout), multiprocessor dispatch, the
fair-share lottery, and weak memory with fences.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.golden import golden_run, load_golden, regenerate_golden
from repro.analysis.scenarios import resolve

GOLDEN = {scenario.name: scenario for scenario in resolve("golden")}

GOLDEN_PATH = Path(__file__).parent / "golden" / "schedule_hashes.json"

_UPDATE = os.environ.get("GOLDEN_UPDATE") == "1"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_schedule(name):
    if _UPDATE:
        pytest.skip("regenerating golden hashes (GOLDEN_UPDATE=1)")
    golden = load_golden(GOLDEN_PATH)
    assert name in golden, (
        f"no pinned hashes for scenario {name!r}; regenerate with "
        "GOLDEN_UPDATE=1 (see module docstring) and commit the result"
    )
    actual = golden_run(GOLDEN[name])
    expected = golden[name]
    assert actual == expected, (
        f"scenario {name!r} diverged from the pinned golden schedule.\n"
        f"  expected: {expected}\n"
        f"  actual:   {actual}\n"
        "A kernel change perturbed the event stream or the statistics. "
        "If this is an intentional behaviour change (a scheduling or "
        "accounting bugfix), regenerate the pins with GOLDEN_UPDATE=1; "
        "if it came from a performance change, the optimisation is NOT "
        "behaviour-preserving and must be fixed."
    )


def test_golden_update_mode():
    """When GOLDEN_UPDATE=1, rewrite the pinned hashes (runs last)."""
    if not _UPDATE:
        pytest.skip("pin-check mode")
    golden = regenerate_golden(GOLDEN_PATH)
    assert set(golden) == set(GOLDEN)
