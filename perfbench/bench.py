"""Plumbing shared by the workloads: the work tree, process launching,
operation accounting and the closed-loop timing window."""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")

#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: No single program process may take longer than this (the whole run
#: must end within 180 s).
PROCESS_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """An operation failed in a way the benchmark does not expect."""


@dataclass
class Done:
    """One finished program process."""

    rc: int
    out: str
    err: str
    wall: float


@dataclass
class Tally:
    """Operations attempted and failed, per operation kind."""

    kinds: Dict[str, List[int]] = field(default_factory=dict)
    labels: Dict[str, str] = field(default_factory=dict)
    seconds: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, kind: str, failed: bool = False, label: str = "",
            seconds: Optional[float] = None) -> None:
        counts = self.kinds.setdefault(kind, [0, 0])
        counts[0] += 1
        counts[1] += int(failed)
        if failed and label:
            self.labels[kind] = label
        if seconds is not None:
            self.seconds.setdefault(kind, []).append(seconds)

    def fail(self, kind: str, label: str) -> None:
        """Mark one operation of ``kind``, already counted, as failed."""
        counts = self.kinds[kind]
        counts[1] = min(counts[1] + 1, counts[0])
        self.labels[kind] = label

    def merge(self, other: "Tally") -> "Tally":
        out = Tally()
        for tally in (self, other):
            for kind, (attempted, failed) in tally.kinds.items():
                counts = out.kinds.setdefault(kind, [0, 0])
                counts[0] += attempted
                counts[1] += failed
            out.labels.update(tally.labels)
            for kind, values in tally.seconds.items():
                out.seconds.setdefault(kind, []).extend(values)
        return out

    @property
    def attempted(self) -> int:
        return sum(c[0] for c in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(c[1] for c in self.kinds.values())

    def render(self, workload: str) -> str:
        lines = [f"{workload}: operations per kind: attempted, failed, "
                 f"median seconds"]
        for kind, (attempted, failed) in sorted(self.kinds.items()):
            note = f"  [{self.labels[kind]}]" if kind in self.labels else ""
            walls = self.seconds.get(kind)
            wall = f"{statistics.median(walls):10.4f}" if walls else " " * 10
            lines.append(f"  {kind:<22s} {attempted:>6d} {failed:>6d} "
                         f"{wall}{note}")
        lines.append(f"  {'total':<22s} {self.attempted:>6d} "
                     f"{self.failed:>6d}")
        return "\n".join(lines)


class Bench:
    """One benchmark run's private work tree and child processes.

    Everything the program writes (caches, the service data directory,
    traces) stays under ``<checkout>/.perfbench/``, which is removed
    when the run ends.
    """

    def __init__(self, root: str, workload: str, seed: int,
                 seconds: float) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(root, ".perfbench", f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.cache_dir = os.path.join(self.work, "cache")
        #: Set while a traced window runs: launched processes record spans.
        self.trace_dir: Optional[str] = None
        self._live: List[subprocess.Popen] = []

    # -- processes ------------------------------------------------------

    def env(self) -> Dict[str, str]:
        """The program's environment: the checkout's sources, a private
        cache, and none of the caller's REPRO_* settings."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("REPRO_", "PERFBENCH_"))
               and key not in ("PYTHONPATH", "TRACEPARENT")}
        env["PYTHONPATH"] = self.src
        env["REPRO_CACHE_DIR"] = self.cache_dir
        if self.trace_dir:
            env["PERFBENCH_TRACE_DIR"] = self.trace_dir
        return env

    def argv(self, entry: str, args: List[str]) -> List[str]:
        return [sys.executable, LAUNCH, entry, *args]

    def run(self, entry: str, args: List[str]) -> Done:
        """Run one program command to exit; wall time from spawn to exit."""
        started = time.perf_counter()
        proc = subprocess.run(self.argv(entry, args), env=self.env(),
                              cwd=self.work, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT)
        wall = time.perf_counter() - started
        return Done(proc.returncode, proc.stdout, proc.stderr, wall)

    def start(self, entry: str, args: List[str], log: str) -> subprocess.Popen:
        """Start a long-lived program process; stderr goes to ``log``."""
        with open(os.path.join(self.work, log), "ab") as stderr:
            proc = subprocess.Popen(self.argv(entry, args), env=self.env(),
                                    cwd=self.work, stdout=subprocess.PIPE,
                                    stderr=stderr, text=True)
        self._live.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> None:
        """Interrupt a long-lived process (it exits cleanly, writing its
        trace) and wait for it; kill it if it does not end."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        else:
            proc.communicate()
        if proc in self._live:
            self._live.remove(proc)

    def close(self) -> None:
        for proc in list(self._live):
            self.stop(proc)
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def peak_rss_mb() -> float:
    """Largest resident set of any finished child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Window:
    """What one timed window did."""

    tally: Tally = field(default_factory=Tally)
    #: Wall seconds of each timed operation (``op_p50_s``).
    walls: List[float] = field(default_factory=list)
    #: What each checked output reported (``checks.Work``).
    works: List[Any] = field(default_factory=list)
    rotations: int = 0
    start: float = 0.0
    end: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def total(self, attr: str) -> int:
        return sum(getattr(work, attr) for work in self.works)

    def run(self, seconds: float, rotation: Callable[[int], None]) -> None:
        """Closed loop: whole rotations back to back until ``seconds``
        have passed; at least one rotation runs."""
        self.start = time.perf_counter()
        while self.rotations == 0 or \
                time.perf_counter() - self.start < seconds:
            rotation(self.rotations)
            self.rotations += 1
        self.end = time.perf_counter()


def end_to_end(window: Window, setups: List[float]) -> Dict[str, float]:
    """The six end-to-end metrics of one untraced window."""
    return {
        "setup_s": median(setups),
        "op_p50_s": median(window.walls),
        "ops_per_s": window.tally.attempted / window.elapsed,
        "configs_per_s": window.total("configs") / window.elapsed,
        "fsck_configs_per_s": window.total("fsck") / window.elapsed,
        "peak_rss_mb": peak_rss_mb(),
    }


def median(values: List[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return statistics.median(values)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
