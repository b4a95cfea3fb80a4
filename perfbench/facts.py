"""Facts a run reports: host fingerprint and speed, source size, output digests.

Everything here is stdlib-only; only the host speed samples are timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Recorded result digests, by workload, then ``"<seconds>/<seed>"``.
DIGESTS_FILE = Path(__file__).with_name("digests.json")


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def canonical_bytes(document) -> bytes:
    """The canonical JSON encoding every digest and comparison uses."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def document_digest(document) -> str:
    return hashlib.sha256(canonical_bytes(document)).hexdigest()


def combined_digest(labelled: Iterable) -> str:
    """sha256 over ``(label, document digest)`` pairs, in the given order."""
    outer = hashlib.sha256()
    for label, digest in labelled:
        outer.update(f"{label}={digest}\n".encode("utf-8"))
    return outer.hexdigest()


def numeric_platform(fingerprint: Dict) -> str:
    """The host properties a float-exact digest can depend on."""
    keys = ("cpu_model", "machine", "python", "numpy", "scipy")
    return "|".join(str(fingerprint.get(key)) for key in keys)


def load_recorded() -> Dict:
    if not DIGESTS_FILE.exists():
        return {}
    return json.loads(DIGESTS_FILE.read_text())


def check_digest(
    recorded: Dict, workload: str, seconds: int, seed: int, platform_id: str, digest: str
) -> str:
    """``"match"``, ``"mismatch"`` or ``"unrecorded"`` against ``recorded``.

    A digest is only compared on the numeric platform it was recorded on:
    another CPU or library version may legitimately round differently.
    """
    entry = recorded.get(workload, {})
    if entry.get("platform") != platform_id:
        return "unrecorded"
    expected = entry.get("digests", {}).get(f"{seconds}/{seed}")
    if expected is None:
        return "unrecorded"
    return "match" if expected == digest else "mismatch"


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> Optional[str]:
    if shutil.which("git") is None:
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over every file under ``src/`` (identifies the code measured)."""
    outer = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            outer.update(str(path.relative_to(root)).encode("utf-8"))
            outer.update(hashlib.sha256(path.read_bytes()).digest())
    return outer.hexdigest()


def fingerprint(root: Path, native_loaded: bool, native_reason: Optional[str]) -> Dict:
    """Host and code identity stamped on every result."""
    versions = {}
    for module in ("numpy", "scipy"):
        imported = sys.modules.get(module)
        versions[module] = getattr(imported, "__version__", None) if imported else None
    compiler = next((shutil.which(cc) for cc in ("cc", "gcc", "clang") if shutil.which(cc)), None)
    return {
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "compiler": compiler,
        "native_loaded": native_loaded,
        "native_reason": native_reason,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }


# ----------------------------------------------------------------------
# Source size
# ----------------------------------------------------------------------
def _code_lines(path: Path) -> int:
    comment = ("#",) if path.suffix == ".py" else ("//", "/*", "*")
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(comment):
            count += 1
    return count


def sloc(root: Path) -> Dict[str, int]:
    """Non-blank, non-comment lines per ``src/repro`` subpackage (.py and .c).

    Top-level modules of the package count as ``sloc.repro``; ``sloc.total``
    is the sum.
    """
    package = root / "src" / "repro"
    counts: Dict[str, int] = {}
    for path in sorted(package.rglob("*")):
        if path.suffix not in (".py", ".c") or "__pycache__" in path.parts:
            continue
        relative = path.relative_to(package).parts
        layer = relative[0] if len(relative) > 1 else "repro"
        counts[f"sloc.{layer}"] = counts.get(f"sloc.{layer}", 0) + _code_lines(path)
    counts["sloc.total"] = sum(counts.values())
    return counts


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Fastest time of :func:`reference_loop_s` on the 2-vCPU Xeon host the
#: benchmark was defined on.  Timed metrics are reported at that speed.
REFERENCE_LOOP_S = 0.0017


def reference_loop_s() -> float:
    """Seconds one fixed pure-Python loop takes: a sample of host speed."""
    start = time.perf_counter()
    total = 0
    for value in range(30000):
        total += value * value % 7
    return time.perf_counter() - start


class HostSpeed:
    """Samples of the reference loop taken through a run.

    A shared host's speed drifts over minutes, by up to a fifth on the
    reference host, beyond the noise left in a single run.  A time scaled by
    ``REFERENCE_LOOP_S / fastest loop`` compares runs made minutes apart;
    the fastest loop, like the fastest unit of work, is the fast host's.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 10) -> None:
        self.samples.extend(reference_loop_s() for _ in range(repeats))

    @property
    def loop_s(self) -> float:
        return min(self.samples)

    def scale(self, seconds: float) -> float:
        """``seconds`` at the reference host's speed."""
        return seconds * REFERENCE_LOOP_S / self.loop_s


# ----------------------------------------------------------------------
# Small statistics helpers
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    # The epsilon keeps float noise (0.9 * 120 = 108.00000000000001) from
    # bumping the rank.
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Sum of the peak resident set (VmHWM) of this process and ``pids``."""
    total_kb = 0
    for pid in ["self", *pids]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def child_pids() -> List[int]:
    """Direct children of this process (Linux ``/proc`` task lists)."""
    pids: List[int] = []
    task_dir = Path("/proc/self/task")
    for task in task_dir.iterdir() if task_dir.exists() else ():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(pids))
