"""The benchmark's workloads, by name (see ``perfbench/README.md``)."""

from __future__ import annotations

import importlib

#: workload name -> module under ``workloads``.
MODULES = {
    "paper_artifacts": "artifacts",
    "paper_listings": "listings",
    "trace_store": "trace_store",
    "server_sessions": "server_sessions",
}


def load(name: str):
    """The module implementing workload ``name``."""
    return importlib.import_module(f"workloads.{MODULES[name]}")
