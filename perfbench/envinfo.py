"""The environment a result was measured in."""
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


def src_digest(root):
    """sha256 over src/ file names and contents (the checkout has no .git)."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _caches():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for d in sorted(base.glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(root):
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src_digest(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": _caches(),
        "machine": platform.machine(),
        "argv": sys.argv[1:],
    }
