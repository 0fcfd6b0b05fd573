"""The §5.2 buffer thread: a slack process in front of the X server.

"In one of our systems, the batching is performed using the slack process
paradigm embodied in a high priority thread.  The buffer thread
accumulates paint requests, merges overlapping requests and sends them
only occasionally to the X server.  In the usual producer-consumer style,
an imaging thread puts paint requests on a queue for the buffer thread and
issues a NOTIFY to wake it up."

This module holds the paint request that buffer thread merges.  The
thread itself is a :class:`repro.paradigms.slack.SlackProcess` that each
client builds in front of its :class:`repro.xwindows.server.XServer`
(:mod:`repro.casestudies.echo_pipeline`, :mod:`repro.xwindows.xl`); its
gather *strategy* (plain YIELD vs YieldButNotToMe vs sleep) is the
experimental variable of case studies C1 and C2.
"""

from __future__ import annotations

from typing import Any


class PaintRequest:
    """A paint request for a screen region.

    Requests for the same ``region`` overlap: a later one supersedes an
    earlier one, which is what lets the buffer thread merge.
    """

    __slots__ = ("region",)

    def __init__(self, region: Any) -> None:
        self.region = region

    @property
    def key(self) -> Any:
        """Merge key (read by :func:`merge_keep_latest`)."""
        return self.region

    def __repr__(self) -> str:
        return f"<Paint {self.region!r}>"

