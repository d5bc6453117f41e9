"""Loopback TCP deployment transport for the framework.

Each party runs in its own OS process and talks to a coordinator over
asyncio TCP sockets speaking the existing v2 wire framing; see
:mod:`.frames` for the frame protocol, :mod:`.host` for the party-side
driver, :mod:`.launcher` for the warm process that forks every party of
a run, and :mod:`.coordinator` for the router, supervision, recovery
and result assembly.

Submodules are imported lazily — the transport pulls in
:mod:`repro.core`, which must stay importable without this package.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.transport.frames import TransportError, TransportSettings

__all__ = ["TransportError", "TransportSettings", "run_distributed"]


def run_distributed(framework: Any, faults: Any = None, **kwargs: Any) -> Any:
    from repro.runtime.transport.coordinator import run_distributed as impl

    return impl(framework, faults, **kwargs)
