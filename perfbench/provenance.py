"""Which code path produced a result, and whether two results may be compared."""

from __future__ import annotations

import importlib.util
import os
import platform
import shutil
import subprocess
from pathlib import Path

#: Provenance keys that must match before two runs are compared: a change
#: in any of them means a different code path ran, not a faster one.
PATH_KEYS = ("kernel_tier", "kernel_provider", "neighbor_backend")


def provenance(kernels: str, root) -> dict:
    """Resolved code path and environment of a run with ``kernels`` requested."""
    import numpy

    from repro.geometry.neighbors import available_backends
    from repro.kernels import kernel_tier_label, resolve_kernel_tier

    scipy_present = importlib.util.find_spec("scipy") is not None
    scipy_version = None
    if scipy_present:
        import scipy

        scipy_version = scipy.__version__
    tiled = "kdtree" if "kdtree" in available_backends() else "grid"
    return {
        "kernels_requested": kernels,
        "kernel_tier": resolve_kernel_tier(kernels),
        "kernel_provider": kernel_tier_label(kernels),
        # The batch engine's "auto" neighbour backend: the cell cover for
        # infection tests, with a tiled engine for the uncertain shell.
        "neighbor_backend": f"cells+{tiled}",
        "scipy": scipy_present,
        "numpy_version": numpy.__version__,
        "scipy_version": scipy_version,
        "cc": shutil.which("cc") is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_rev(root),
    }


def _git_rev(root) -> str:
    if not (Path(root) / ".git").exists():  # an exported tree, or a parent's repository
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def path_differences(base: dict, new: dict) -> list:
    """``key: base -> new`` for every code-path key on which two runs differ."""
    return [
        f"{key}: {base.get(key)} -> {new.get(key)}"
        for key in PATH_KEYS
        if base.get(key) != new.get(key)
    ]
