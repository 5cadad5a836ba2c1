"""Where the benchmark lives and what it runs on.

Importing this module puts ``<checkout>/src`` on ``sys.path`` so every
other ``perf`` module can import ``repro`` without the caller setting
``PYTHONPATH``. Everything else here is a function the entry point calls:
the benchmark-owned temp directory, and the host fingerprint a report
carries so two reports can be told to come from comparable machines.
"""

from __future__ import annotations

import os
import platform
import shutil
import sys
import tempfile
from typing import Any, Dict

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, os.path.join(ROOT, "src"))

#: ``sockaddr_un.sun_path`` holds 108 bytes; the engine appends
#: ``/repro-dist-XXXXXXXX/shard-N.sock`` (33 bytes) to the temp root.
_MAX_TEMP_ROOT = 70


def nproc() -> int:
    """CPUs this process may run on (affinity-aware where the OS tells)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class TempRoot:
    """The one directory every socket, journal and segment file goes under.

    It sits inside the checkout (``perf/out``) so the benchmark writes
    nowhere else, and it doubles as the leak detector: whatever is left in
    it after a run is a temp directory the engine failed to remove. A
    checkout path too long for an AF_UNIX socket address falls back to the
    system temp directory, and the report says so.
    """

    def __init__(self) -> None:
        self.path = os.path.join(OUT_DIR, f"t{os.getpid()}")
        self.in_checkout = len(self.path) <= _MAX_TEMP_ROOT
        self._previous = tempfile.tempdir

    def __enter__(self) -> "TempRoot":
        if self.in_checkout:
            os.makedirs(self.path, exist_ok=True)
        else:
            self.path = tempfile.mkdtemp(prefix="perf-")
        tempfile.tempdir = self.path
        return self

    def __exit__(self, *_exc: Any) -> None:
        tempfile.tempdir = self._previous
        shutil.rmtree(self.path, ignore_errors=True)

    def leftovers(self) -> list:
        return sorted(os.listdir(self.path))

    def clear(self) -> None:
        for name in self.leftovers():
            shutil.rmtree(os.path.join(self.path, name), ignore_errors=True)


def filesystem_of(path: str) -> str:
    """``fstype (mount point)`` holding ``path``, from ``/proc/mounts``."""
    best = ("", "unknown")
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _dev, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return f"{best[1]} ({best[0] or '?'})"


def host(temp: TempRoot) -> Dict[str, Any]:
    """The fingerprint printed with every report."""
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "temp_dir": temp.path,
        "temp_dir_in_checkout": temp.in_checkout,
        "temp_dir_filesystem": filesystem_of(temp.path),
    }
