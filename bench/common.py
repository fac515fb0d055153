"""Pieces shared by the scripts in bench/: the report header and a counter
of the symbols BiSeq.window builds. Importing it puts src/ on sys.path."""

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nexpansive.base import BiSeq  # noqa: E402


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def header(benchmark):
    """The fields a report starts with: what ran, where, on which commit."""
    return {
        "benchmark": benchmark,
        "machine": {"platform": platform.platform(),
                    "processor": cpu_model(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "commit": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
    }


def window_counts(call):
    """BiSeq.window calls and built symbols of one call()."""
    plain = BiSeq.window
    calls = symbols = 0

    def counted(self, lo, hi):
        nonlocal calls, symbols
        word = plain(self, lo, hi)
        calls += 1
        symbols += len(word)
        return word

    BiSeq.window = counted
    try:
        call()
    finally:
        BiSeq.window = plain
    return calls, symbols
