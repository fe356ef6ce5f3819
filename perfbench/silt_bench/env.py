"""The environment a result was measured in."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git``; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def last_level_cache() -> Optional[str]:
    """The 'L3 cache' line of lscpu, e.g. '105 MiB (1 instance)'."""
    try:
        out = subprocess.run(
            ["lscpu"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "LC_ALL": "C"},
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "L3 cache":
            return value.strip()
    return None


def blas_config() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
    }


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_config(),
        # unset means the BLAS default: one thread per available core
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "l3_cache": last_level_cache(),
    }
