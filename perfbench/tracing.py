"""Per-layer spans for the benchmark's traced mode.

Imported only by ``launch.py`` in processes it starts with
``PERFBENCH_TRACE_DIR`` set.  Nothing here edits the program: a
meta-path hook wraps the public functions named in :data:`TARGETS` right
after their module executes, before any importer can bind the original
by name.  Each wrapped call records one span ``(id, parent, name, start,
end, value, failed)`` in memory; ``value`` is what the span's
``measure`` hook extracts (bytes allocated, dependencies found, ...).
The spans, plus the repro module count of the process, are written as
one JSON file per process at exit.

Spans nest per thread, so a layer's self time is its span minus the
spans of the calls it made into other wrapped functions.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names are "<layer>.<what>"; layers.py groups them by prefix.
#: module -> [(qualified attribute, span name, measure-or-None)]
#: ``measure(args, result)`` returns the span's value.
Measure = Optional[Callable[[tuple, Any], Any]]


def _found(_args: tuple, result: Any) -> int:
    return int(result is not None)


def _device_bytes(args: tuple, _result: Any) -> int:
    # BlockDevice.__init__(self, num_blocks, block_size=4096, ...)
    block_size = args[2] if len(args) > 2 else 4096
    return int(args[1]) * int(block_size)


def _snapshot_bytes(args: tuple, _result: Any) -> int:
    # BlockDevice.from_snapshot(cls, snapshot, block_size, ...): the copy
    # on top of the zero-filled buffer __init__ already counted.
    return len(args[1])


def _deps(_args: tuple, result: Any) -> int:
    return len(result.union)


def _memo_traffic(_args: tuple, result: Any) -> List[int]:
    # CampaignReport.merge: the campaign's outcome-memo [hits, misses].
    counters = result.counters
    return [int(counters.get("campaign.outcome.hit", 0)),
            int(counters.get("campaign.outcome.miss", 0))]


TARGETS: Dict[str, List[Tuple[str, str, Measure]]] = {
    "repro.corpus.loader": [
        ("_compile_unit", "corpus.load_miss", None),
        ("compile_c", "lang.compile", None),
    ],
    "repro.corpus.cache": [
        ("load_module", "corpus.ir_load", _found),
        ("load_analysis_with_blob", "corpus.an_load", _found),
    ],
    "repro.analysis.extractor": [
        ("Extractor.extract_all", "analysis.extract_all", _deps),
    ],
    "repro.perf.sampling": [
        ("RandomSampler.total", "sampling.total", None),
        ("TWiseSampler.total", "sampling.total", None),
        ("FeasibleSampler.total", "sampling.total", None),
    ],
    "repro.perf.campaign": [
        ("run_sharded", "campaign.run_sharded", None),
        ("CampaignReport.merge", "campaign.merge", _memo_traffic),
        ("SnapshotCache.device_for", "campaign.snapshot", None),
        ("SnapshotCache.clone_flat", "campaign.snapshot", None),
    ],
    "repro.fsimage.blockdev": [
        ("BlockDevice.__init__", "fsimage.device", _device_bytes),
        ("BlockDevice.from_snapshot", "fsimage.device", _snapshot_bytes),
    ],
    "repro.ecosystem.mke2fs": [("Mke2fs.run", "ecosystem.mkfs", None)],
    "repro.ecosystem.mount": [("Ext4Mount.mount", "ecosystem.mount", None)],
    "repro.ecosystem.e4defrag": [("E4defrag.run", "ecosystem.use", None)],
    "repro.ecosystem.resize2fs": [("Resize2fs.run", "ecosystem.use", None)],
    "repro.ecosystem.e2fsck": [("E2fsck.run", "ecosystem.fsck", None)],
    "repro.tools.conbugck": [
        ("ConBugCk.generate", "tools.generate", None),
        ("ConBugCk.generate_naive", "tools.generate", None),
        ("ConBugCk.drive", "tools.drive", None),
    ],
    "repro.tools.conhandleck": [("ConHandleCk.violate", "tools.violate", None)],
    "repro.tools.condocck": [("ConDocCk.check", "tools.docck", None)],
    "repro.serve.db": [
        ("RunQueue.submit", "serve.db", None),
        ("RunQueue.claim_batch", "serve.db", None),
        ("RunQueue.finish", "serve.db", None),
    ],
    "repro.obs.manifest": [("write_manifest", "obs.manifest", None)],
    "repro.obs.servicelog": [("emit", "obs.servicelog", None)],
    "repro.reporting.tables": [
        (name, "study.render", None) for name in (
            "render_table1", "render_table2", "render_table3",
            "render_table4", "render_mining")
    ],
}

#: SnapshotCache hit detection: the wrapper compares ``self.hits``
#: before and after the call and stores 1 for a hit, 0 for a miss.
_HIT_COUNTING = {"campaign.snapshot"}


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float,
                               Any, bool]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, measure: Measure) -> Callable:
        counts_hits = name in _HIT_COUNTING

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            before = args[0].hits if counts_hits else 0
            stack.append(span_id)
            value: Any = None
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                if counts_hits:
                    value = int(args[0].hits > before)
                elif measure is not None and not failed:
                    value = measure(args, result)
                self.spans.append((span_id, parent, name, start, end,
                                   value, failed))
            return result

        return wrapper

    def patch(self, module: Any) -> None:
        """Wrap every :data:`TARGETS` attribute of one fresh module."""
        for qualname, name, measure in TARGETS.get(module.__name__, ()):
            owner: Any = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self.wrap(raw.__func__, name, measure)))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr,
                        staticmethod(self.wrap(raw.__func__, name, measure)))
            else:
                setattr(owner, attr, self.wrap(raw, name, measure))


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Find target modules through the other finders, then patch them
    as soon as their body has run."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):  # noqa: ANN001
        if fullname not in TARGETS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        original = loader.exec_module
        recorder = self.recorder

        def exec_module(module: Any) -> None:
            original(module)
            recorder.patch(module)

        loader.exec_module = exec_module
        return spec


def install(trace_dir: str, label: str) -> Recorder:
    """Start recording in this process; spans are written at exit."""
    started = time.perf_counter()
    recorder = Recorder()
    sys.meta_path.insert(0, _PatchingFinder(recorder))

    def dump() -> None:
        modules = sum(1 for name in list(sys.modules)
                      if name == "repro" or name.startswith("repro."))
        payload = {"pid": os.getpid(), "label": label, "start": started,
                   "end": time.perf_counter(), "repro_modules": modules,
                   "spans": recorder.spans}
        path = os.path.join(trace_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    atexit.register(dump)
    return recorder
