"""Shared plumbing for the repository benchmark.

Nothing here imports :mod:`repro`: ``run.py`` must be able to load this
module before it has checked that the source tree is present.

* :class:`Outcome` is what one workload run hands back to ``run.py``.
* :class:`Spans` aggregates timed spans (calls, inclusive and self
  seconds) around calls into the program; :func:`patched` installs its
  wrappers for the traced pass only and always removes them again.
* :func:`setup_seconds` times set-up in fresh interpreters, so import
  time is measured cold on every probe.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: run-time scratch inside the checkout (cache dirs, determinism records)
STATE = ROOT / ".perfbench_state"
#: set-up is probed this many times per run; setup_s is the median
SETUP_PROBES = 7
#: workload name -> module of this directory that runs it
WORKLOADS = {
    "htm-stack": "htm_stack",
    "serve-replay": "serve_replay",
    "pipeline-mc": "pipeline_mc",
}


@dataclass
class Outcome:
    """One workload run: metrics, the unit tallies, and the counts that
    must repeat exactly for a fixed seed."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    #: failed correctness gates, one line each
    errors: list[str] = field(default_factory=list)
    #: deterministic counts and digests (compared across runs of a seed)
    counts: dict = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values))


def quantile(sorted_values: list[float], q: float) -> float:
    """Exact order-statistic quantile (nearest rank) of sorted samples."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return float(sorted_values[rank])


def peak_rss_mb() -> float:
    """Peak resident set size of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def repeat(seconds: float, one_pass) -> float:
    """Call ``one_pass()`` until another call would end after ``seconds``,
    and at least twice, so that passes can be compared with each other.

    Returns the peak RSS in MB after the first call, which does not
    depend on how many passes fit in the time.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        began = time.perf_counter()
        one_pass()
        passes += 1
        if passes == 1:
            rss_mb = peak_rss_mb()
        now = time.perf_counter()
        if passes >= 2 and now + (now - began) > start + seconds:
            return rss_mb


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def setup_seconds(workload: str, seed: int) -> dict[str, float]:
    """Median set-up time over :data:`SETUP_PROBES` fresh interpreters.

    Each probe runs ``setup_probe.py``, which imports what the workload
    needs and builds its state, and prints the parts it timed.
    """
    probe = pathlib.Path(__file__).with_name("setup_probe.py")
    runs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {key: median([r[key] for r in runs]) for key in runs[0]}


class Spans:
    """Per-name span aggregates: calls, inclusive and self seconds.

    Spans nest through an explicit stack; a span's self time is its
    duration minus the durations of the spans opened inside it, so the
    self times of one pass add up without double counting.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self._children: list[float] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + elapsed
            self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)


@contextlib.contextmanager
def patched(spans: Spans, targets):
    """Wrap ``getattr(owner, attr)`` in a span named ``name`` for each
    ``(owner, attr, name)`` in ``targets``; restore on exit.

    ``owner`` may be a class (the wrapper becomes a method), an instance
    or a module.  Attributes a class only inherits are deleted again
    rather than pinned onto the subclass.
    """
    undo = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            own = attr in vars(owner)
            undo.append((owner, attr, vars(owner)[attr] if own else None, own))

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return spans.call(_name, _fn, *args, **kwargs)

            setattr(owner, attr, functools.wraps(original)(wrapper))
        yield spans
    finally:
        for owner, attr, original, own in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def run_fingerprint(seed: int, workload: str) -> dict:
    """What a timing depends on besides the code: the machine and seed.

    The git commit is read only when the checkout is a git repository;
    ``src_sha256`` and ``bench_sha256`` identify the program's and the
    benchmark's code either way.
    """
    import numpy

    from repro.parallel import source_fingerprint

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": source_fingerprint(),
        "bench_sha256": source_fingerprint(pathlib.Path(__file__).parent),
    }
