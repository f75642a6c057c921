"""Multiprocessing start-method selection for the cluster's worker processes.

:class:`~repro.cluster.server.ClusterServer` prefers ``fork`` where the
platform offers it (workers inherit the imported interpreter — engine
spin-up in milliseconds) and falls back to ``spawn`` elsewhere (each worker
re-imports; everything handed to workers is picklable by design).
"""

from __future__ import annotations

import multiprocessing


def default_start_method() -> str:
    """The start method used when the caller does not pin one."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def get_mp_context(start_method: str | None = None):
    """A :mod:`multiprocessing` context for ``start_method`` (or the default)."""
    return multiprocessing.get_context(start_method or default_start_method())
