"""Simulated X windows substrate (paper Sections 5.2 and 5.6).

* :mod:`server` — an X server modelled by its cost structure: a high
  per-flush transaction cost plus a smaller per-request cost, which is
  what makes batching and merging pay;
* :mod:`buffer_thread` — the paint request the §5.2 buffer thread merges
  on its way to the server;
* :mod:`xlib` — "Xlib, modified only to make it thread-safe": one library
  mutex, reads done with short timeouts while holding it;
* :mod:`xl` — "Xl, an X client library designed from scratch with
  multi-threading in mind": a dedicated reader serializer thread.
"""

from repro.xwindows.buffer_thread import PaintRequest
from repro.xwindows.server import XServer
from repro.xwindows.xl import XlClient
from repro.xwindows.xlib import ModifiedXlib

__all__ = [
    "ModifiedXlib",
    "PaintRequest",
    "XServer",
    "XlClient",
]
