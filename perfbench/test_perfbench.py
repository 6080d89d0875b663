"""Tests of the benchmark itself: every output check passes on the
program's real output and fails on a deliberately wrong one, and the
span arithmetic behind the per-layer metrics holds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import checks
import layers
import run
import tracing
from checks import CheckError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def program(tmp_path_factory):
    """Run one program command; returns ``(stdout, exit status)``."""
    cache = str(tmp_path_factory.mktemp("cache"))

    def invoke(entry, *args, corpus=None):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   REPRO_CACHE_DIR=cache)
        env.pop("REPRO_CORPUS_DIR", None)
        if corpus:
            env["REPRO_CORPUS_DIR"] = corpus
        proc = subprocess.run([sys.executable, os.path.join(HERE, "launch.py"),
                               entry, *args], env=env, capture_output=True,
                              text=True, timeout=300)
        return proc.stdout, proc.returncode

    return invoke


def _fails(check, *args):
    with pytest.raises(CheckError):
        check(*args)


def test_extract(program):
    out, rc = program("main_extract")
    checks.check_extract(out, rc)
    _fails(checks.check_extract, out, 1)
    _fails(checks.check_extract,
           out.replace("Overall: 64", "Overall: 63"), rc)
    total = [line for line in out.splitlines()
             if line.startswith("Total Unique")][0]
    _fails(checks.check_extract,
           out.replace(total, total.replace("| 32 ", "| 31 ", 1)), rc)


def test_overlay(program, tmp_path):
    base, rc = program("main_extract", "--list")
    baseline = checks.dependency_keys(base)
    corpus = os.path.join(ROOT, "src", "repro", "corpus")
    for name in os.listdir(corpus):
        if name.endswith(".c"):
            with open(os.path.join(corpus, name), encoding="utf-8") as src:
                text = src.read()
            if name == "mke2fs.c":
                text = text.replace("blocks_per_group > 65528",
                                    "blocks_per_group > 31000")
            (tmp_path / name).write_text(text, encoding="utf-8")
    out, rc = program("main_extract", "--list", corpus=str(tmp_path))
    removed = "SD.value_range:mke2fs.blocks_per_group:[256,65528]"
    added = "SD.value_range:mke2fs.blocks_per_group:[256,31000]"
    checks.check_overlay(out, rc, baseline, removed, added)
    _fails(checks.check_overlay, base, rc, baseline, removed, added)
    _fails(checks.check_overlay, out, rc, baseline, removed,
           added.replace("31000", "31001"))
    other = sorted(baseline - {removed})[0]
    _fails(checks.check_overlay, out.replace(other + "\n", ""), rc,
           baseline, removed, added)


def test_condocck(program):
    out, rc = program("main_condocck")
    checks.check_condocck(out, rc)
    _fails(checks.check_condocck, out, 0)
    first = [line for line in out.splitlines() if line.startswith("[")][0]
    _fails(checks.check_condocck, out.replace(first + "\n", ""), rc)


def test_conhandleck(program):
    out, rc = program("main_conhandleck")
    checks.check_conhandleck(out, rc)
    _fails(checks.check_conhandleck, out, 0)
    _fails(checks.check_conhandleck,
           "\n".join(line for line in out.splitlines()
                     if not line.startswith("BAD HANDLING")), rc)


def test_violation_campaign(program):
    out, rc = program("main_conhandleck", "--budget", "300", "--seed", "7")
    work = checks.check_violation_campaign(out, rc, 300)
    assert work.configs == work.draws == 300
    _fails(checks.check_violation_campaign, out, rc, 301)
    _fails(checks.check_violation_campaign,
           re.sub(r"(rejected: )(\d+)", lambda m: m.group(1)
                  + str(int(m.group(2)) + 1), out), rc, 300)


def test_conbugck(program):
    out, rc = program("main_conbugck", "--seed", "5")
    work = checks.check_conbugck(out, rc, 30)
    assert work.configs == 60 and work.fsck > 0
    _fails(checks.check_conbugck, out, 1, 30)
    _fails(checks.check_conbugck, out, rc, 20)
    lines = out.splitlines()
    swapped = []
    for line in lines:
        fields = line.split()
        if fields and fields[0] in checks.STAGES:
            line = f"{fields[0]:>12s} {fields[2]:>8s} {fields[1]:>8s}"
        swapped.append(line)
    _fails(checks.check_conbugck, "\n".join(swapped), rc, 30)
    raised = [re.sub(r"^(\s+mount\s+)(\d+)", lambda m: m.group(1)
                     + str(int(m.group(2)) + 1), line) for line in lines]
    _fails(checks.check_conbugck, "\n".join(raised), rc, 30)


@pytest.mark.parametrize("sample,budget", [("random", 400),
                                           ("random+feasible", 3000)])
def test_sampled(program, sample, budget):
    out, rc = program("main_conbugck", "--sample", sample, "--budget",
                      str(budget), "--seed", "9")
    feasible = sample.endswith("+feasible")
    work = checks.check_sampled(out, rc, budget, feasible)
    assert work.draws == budget and work.digest
    two, rc2 = program("main_conbugck", "--sample", sample, "--budget",
                       str(budget), "--seed", "9", "--shards", "2")
    checks.check_same("digest", checks.check_sampled(
        two, rc2, budget, feasible).digest, work.digest)
    _fails(checks.check_sampled, out, rc, budget + 1, feasible)
    _fails(checks.check_sampled,
           re.sub(r"^(failures:\s+)(\d+)", lambda m: m.group(1)
                  + str(int(m.group(2)) - 1), out, flags=re.M),
           rc, budget, feasible)
    _fails(checks.check_sampled, out.replace("digest:", "digest "), rc,
           budget, feasible)


def test_study(program):
    out, rc = program("main_study")
    checks.check_study(out, rc)
    _fails(checks.check_study, out, 2)
    _fails(checks.check_study, re.sub(r"(resize2fs \| )17", r"\g<1>18", out),
           rc)


def test_dedup():
    submitted = {"run": {"run_id": "abc"}, "deduplicated": True}
    checks.check_dedup(submitted, "abc")
    _fails(checks.check_dedup, submitted, "abd")
    _fails(checks.check_dedup, dict(submitted, deduplicated=False), "abc")
    _fails(checks.check_same, "bytes", b"x", b"y")


def test_benchmark_json_lists_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_self_time_subtracts_children():
    spans = [
        (1, None, "tools.drive", 0.0, 10.0, None, False),
        (2, 1, "ecosystem.mkfs", 1.0, 4.0, None, True),
        (3, 1, "ecosystem.mkfs", 5.0, 6.0, None, False),
        (4, 3, "fsimage.device", 5.0, 5.5, 2**20, False),
        (5, 4, "fsimage.device", 5.1, 5.2, 2**20, False),
    ]
    out = layers.span_metrics([{"spans": spans}], (0.0, 100.0), 2)
    assert out["tools.drive_s"] == pytest.approx(5.0)
    assert out["self.tools_s"] == pytest.approx(3.0)
    assert out["ecosystem.mkfs_s"] == pytest.approx(2.0)
    assert out["self.ecosystem_s"] == pytest.approx(1.75)
    assert out["ecosystem.mkfs_pass_ratio"] == pytest.approx(0.5)
    assert out["fsimage.devices"] == pytest.approx(0.5)
    assert out["fsimage.device_mb"] == pytest.approx(1.0)
    assert out["fsimage.device_s"] == pytest.approx(0.25)
    assert layers.span_metrics([{"spans": spans}], (20.0, 30.0), 2)[
        "tools.drive_s"] == 0.0


def test_recorder_nests_spans():
    class Box:
        hits = 0

        def outer(self):
            return self.inner()

        def inner(self):
            raise ValueError("rejected")

    recorder = tracing.Recorder()
    Box.outer = recorder.wrap(Box.outer, "tools.outer", None)
    Box.inner = recorder.wrap(Box.inner, "ecosystem.inner", None)
    with pytest.raises(ValueError):
        Box().outer()
    inner, outer = recorder.spans
    assert inner[1] == outer[0] and outer[1] is None
    assert inner[6] and outer[6]
    assert outer[3] <= inner[3] <= inner[4] <= outer[4]
