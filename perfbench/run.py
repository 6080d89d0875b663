"""The repository benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload cli|campaign|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``./src``.
With ``--trace 0`` the last stdout line is a JSON object with the six
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
``layers.PER_LAYER`` instead.  Exit status 0 means every output passed
its check; README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import layers
import wl_cmds
import wl_serve
from bench import Bench, end_to_end, median, metric

UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
         "configs_per_s": "1/s", "fsck_configs_per_s": "1/s",
         "peak_rss_mb": "MiB"}


def startup_probes(bench: Bench, repeats: int = 5) -> Dict[str, float]:
    """Bare interpreter start, ``import repro.cli`` from ``-X
    importtime``, and the repro modules a ``repro-extract`` loads."""
    env = bench.env()
    interp, imports = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       cwd=bench.work)
        interp.append(time.perf_counter() - started)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import repro.cli"], env=env, check=True,
                              cwd=bench.work, capture_output=True, text=True)
        micros = 0
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (repro\S*)$",
                             line)
            if match:  # top-level imports only: no indentation
                micros += int(match.group(1))
        imports.append(micros / 1e6)
    saved, bench.trace_dir = bench.trace_dir, bench.fresh_dir("probe")
    try:
        bench.run("main_extract", [])
        modules = layers.repro_modules(layers.load_traces(bench.trace_dir),
                                       "main_extract")
    finally:
        bench.trace_dir = saved
    return {"cli.interp_s": median(interp), "cli.import_s": median(imports),
            "cli.import_modules": modules}


def traced_layers(bench: Bench, window: Tuple[float, float], ops: int,
                  overhead: float, extra: Dict[str, float]) -> Dict[str, float]:
    values = {name: 0.0 for name in layers.PER_LAYER}
    values.update(layers.span_metrics(layers.load_traces(bench.trace_dir),
                                      window, ops))
    values.update(extra)
    values.update(startup_probes(bench))
    values["trace.overhead_ratio"] = overhead
    return values


def run_commands(bench: Bench, rotation: List[wl_cmds.Command],
                 trace: bool, shard_check: bool):
    work = wl_cmds.CommandWorkload(bench, rotation)
    if not trace:
        setups = work.setups()
        window = work.window()
        if shard_check:
            work.shard_check()
        values = end_to_end(window, setups)
        return window.tally, values, work.errors
    work.setups(1)
    plain = work.window()
    bench.trace_dir = bench.fresh_dir("trace")
    traced = work.window()
    if shard_check:
        work.shard_check()
    overhead = median(traced.walls) / median(plain.walls) - 1.0
    values = traced_layers(bench, (traced.start, traced.end),
                           traced.tally.attempted, overhead,
                           wl_cmds.sampling_metrics(traced))
    return plain.tally.merge(traced.tally), values, work.errors


def run_serve(bench: Bench, trace: bool):
    work = wl_serve.ServeWorkload(bench)
    try:
        if not trace:
            setups = work.setups()
            window = work.window()
            work.close()
            work.verify_direct(window)
            values = end_to_end(window, setups)
            return window.tally, values, work.errors
        work.setups(1)
        plain = work.window()
        work.close()
        work.verify_direct(plain)
        bench.trace_dir = bench.fresh_dir("trace")
        work.setup()
        before = work.instance.metrics()
        traced = work.window()
        after = work.instance.metrics()
        work.close()
        work.verify_direct(traced)
        overhead = median(traced.walls) / median(plain.walls) - 1.0
        values = traced_layers(bench, (traced.start, traced.end),
                               traced.tally.attempted, overhead,
                               wl_serve.client_metrics(traced, before, after))
        return plain.tally.merge(traced.tally), values, work.errors
    finally:
        work.close()


WORKLOADS = {
    "cli": lambda bench, trace: run_commands(
        bench, wl_cmds.cli_rotation(bench.seed), trace, False),
    "campaign": lambda bench, trace: run_commands(
        bench, wl_cmds.campaign_rotation(bench.seed), trace, True),
    "serve": run_serve,
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: no program at ./src/repro; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        tally, values, errors = WORKLOADS[args.workload](bench,
                                                         bool(args.trace))
    finally:
        bench.close()

    units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()} \
        if args.trace else UNITS
    print(tally.render(args.workload))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name in units:
        print(f"{name:<28s} {values[name]:>14.6f} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: metric(values[name], units[name]) for name in units},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
