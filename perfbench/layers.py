"""Per-layer metrics from the span files of a traced window.

Times and counts are per operation of the traced window (its
``attempted`` count), so runs with different rotation counts compare;
ratios are hits over lookups.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: Every per-layer metric: name -> (unit, better).  BENCHMARK.json lists
#: the same names; test_perfbench.py keeps the two in step.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_modules": ("count", "lower"),
    "lang.compile_s": ("s", "lower"),
    "lang.units_compiled": ("count", "lower"),
    "corpus.ir_hit_ratio": ("ratio", "higher"),
    "corpus.an_hit_ratio": ("ratio", "higher"),
    "analysis.extract_s": ("s", "lower"),
    "analysis.deps": ("count", "higher"),
    "sampling.total_s": ("s", "lower"),
    "sampling.draws": ("count", "higher"),
    "sampling.feasible_ratio": ("ratio", "higher"),
    "campaign.sharded_s": ("s", "lower"),
    "campaign.snapshot_hit_ratio": ("ratio", "higher"),
    "campaign.memo_hit_ratio": ("ratio", "higher"),
    "fsimage.devices": ("count", "lower"),
    "fsimage.device_mb": ("MiB", "lower"),
    "fsimage.device_s": ("s", "lower"),
    "ecosystem.mkfs_s": ("s", "lower"),
    "ecosystem.mount_s": ("s", "lower"),
    "ecosystem.use_s": ("s", "lower"),
    "ecosystem.fsck_s": ("s", "lower"),
    "ecosystem.mkfs_pass_ratio": ("ratio", "higher"),
    "tools.generate_s": ("s", "lower"),
    "tools.drive_s": ("s", "lower"),
    "tools.violate_s": ("s", "lower"),
    "tools.docck_s": ("s", "lower"),
    "serve.http_submit_s": ("s", "lower"),
    "serve.http_wait_s": ("s", "lower"),
    "serve.http_result_s": ("s", "lower"),
    "serve.http_upload_s": ("s", "lower"),
    "serve.queue_wait_s": ("s", "lower"),
    "serve.exec_s": ("s", "lower"),
    "serve.notify_s": ("s", "lower"),
    "serve.db_s": ("s", "lower"),
    "serve.dedup_ratio": ("ratio", "higher"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "obs.manifest_s": ("s", "lower"),
    "obs.servicelog_events": ("count", "lower"),
    "study.render_s": ("s", "lower"),
    "self.corpus_s": ("s", "lower"),
    "self.lang_s": ("s", "lower"),
    "self.analysis_s": ("s", "lower"),
    "self.sampling_s": ("s", "lower"),
    "self.campaign_s": ("s", "lower"),
    "self.fsimage_s": ("s", "lower"),
    "self.ecosystem_s": ("s", "lower"),
    "self.tools_s": ("s", "lower"),
    "self.serve_s": ("s", "lower"),
    "self.obs_s": ("s", "lower"),
    "self.study_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Span name -> the per-operation time metric of its outermost calls.
_TIMES = {
    "corpus.load_miss": "lang.compile_s",
    "analysis.extract_all": "analysis.extract_s",
    "sampling.total": "sampling.total_s",
    "campaign.run_sharded": "campaign.sharded_s",
    "fsimage.device": "fsimage.device_s",
    "ecosystem.mkfs": "ecosystem.mkfs_s",
    "ecosystem.mount": "ecosystem.mount_s",
    "ecosystem.use": "ecosystem.use_s",
    "ecosystem.fsck": "ecosystem.fsck_s",
    "tools.generate": "tools.generate_s",
    "tools.drive": "tools.drive_s",
    "tools.violate": "tools.violate_s",
    "tools.docck": "tools.docck_s",
    "serve.db": "serve.db_s",
    "obs.manifest": "obs.manifest_s",
    "study.render": "study.render_s",
}

#: (id, parent, name, start, end, value, failed)
Span = Tuple[int, object, str, float, float, object, bool]


def load_traces(trace_dir: str) -> List[dict]:
    """Every per-process span file a traced window left behind."""
    traces = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            traces.append(json.load(handle))
    return traces


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def span_metrics(traces: Iterable[dict], window: Tuple[float, float],
                 ops: int) -> Dict[str, float]:
    """Layer times, counts, ratios and self times from raw spans.

    Only spans that start inside ``window`` (perf_counter seconds, one
    clock for every process on the host) count.
    """
    lo, hi = window
    totals: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    values: Dict[str, list] = defaultdict(list)
    failures: Dict[str, int] = defaultdict(int)
    devices = 0
    for trace in traces:
        spans: List[Span] = [tuple(s) for s in trace["spans"]]  # type: ignore
        names = {s[0]: s[2] for s in spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, parent, name, start, end, value, failed in spans:
            if parent is not None:
                child_time[parent] += end - start  # type: ignore[index]
        for span_id, parent, name, start, end, value, failed in spans:
            if not lo <= start <= hi:
                continue
            calls[name] += 1
            failures[name] += int(failed)
            if value is not None:
                values[name].append(value)
            outermost = names.get(parent) != name  # type: ignore[arg-type]
            if outermost:
                totals[name] += end - start
                if name == "fsimage.device":
                    devices += 1
            layer = name.split(".", 1)[0]
            self_time[layer] += (end - start) - child_time[span_id]
    per_op = 1.0 / max(ops, 1)
    out = {metric: totals[name] * per_op for name, metric in _TIMES.items()}
    out["lang.units_compiled"] = calls["lang.compile"] * per_op
    out["corpus.ir_hit_ratio"] = _ratio(sum(values["corpus.ir_load"]),
                                        calls["corpus.ir_load"])
    out["corpus.an_hit_ratio"] = _ratio(sum(values["corpus.an_load"]),
                                        calls["corpus.an_load"])
    deps = values["analysis.extract_all"]
    out["analysis.deps"] = float(statistics.median(deps)) if deps else 0.0
    out["campaign.snapshot_hit_ratio"] = _ratio(
        sum(values["campaign.snapshot"]), calls["campaign.snapshot"])
    memo_hits = sum(hits for hits, _ in values["campaign.merge"])
    memo_misses = sum(misses for _, misses in values["campaign.merge"])
    out["campaign.memo_hit_ratio"] = _ratio(memo_hits,
                                            memo_hits + memo_misses)
    out["fsimage.devices"] = devices * per_op
    out["fsimage.device_mb"] = sum(values["fsimage.device"]) / 2**20 * per_op
    out["ecosystem.mkfs_pass_ratio"] = _ratio(
        calls["ecosystem.mkfs"] - failures["ecosystem.mkfs"],
        calls["ecosystem.mkfs"])
    out["obs.servicelog_events"] = calls["obs.servicelog"] * per_op
    for layer in ("corpus", "lang", "analysis", "sampling", "campaign",
                  "fsimage", "ecosystem", "tools", "serve", "obs", "study"):
        out[f"self.{layer}_s"] = self_time[layer] * per_op
    return out


def repro_modules(traces: Iterable[dict], label: str) -> float:
    """Median count of repro modules loaded by processes of one entry."""
    counts = [t["repro_modules"] for t in traces if t["label"] == label]
    return float(statistics.median(counts)) if counts else 0.0
