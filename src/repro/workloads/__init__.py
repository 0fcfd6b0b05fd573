"""Synthetic Cedar and GVX worlds (paper Section 3).

The dynamic data in Tables 1-3 came from running benchmark activities on
the real systems.  Here each world is rebuilt from the paper's own
description of its thread population — how many eternal threads, what
they sleep on, who forks transients, which priorities are used — with
rate parameters calibrated so the measured statistics land in the
reported ranges.  ``repro.analysis.dynamic`` turns a run into the
tables' rows.
"""

from repro.workloads.base import ActivityResult, LibraryPool, run_activity
from repro.workloads.cedar import CEDAR_ACTIVITIES, build_cedar_world
from repro.workloads.gvx import GVX_ACTIVITIES, build_gvx_world

#: Each paper system's world builder and its activities, in table order.
SYSTEMS = {
    "Cedar": (build_cedar_world, CEDAR_ACTIVITIES),
    "GVX": (build_gvx_world, GVX_ACTIVITIES),
}

__all__ = [
    "ActivityResult",
    "CEDAR_ACTIVITIES",
    "GVX_ACTIVITIES",
    "LibraryPool",
    "SYSTEMS",
    "build_cedar_world",
    "build_gvx_world",
    "run_activity",
]
