"""Start one program entry point, optionally traced.

    python3 perfbench/launch.py <main_name> [args ...]
    python3 perfbench/launch.py --batch JOBS.json

The first form runs ``repro.cli.<main_name>(args)`` and exits with its
status, so a launched process is what the console script of that name
would be.  The second runs a list of ``{"entry", "args", "corpus"}``
jobs in this one process, each with ``REPRO_CORPUS_DIR`` set to its
corpus (or unset), and writes ``[[status, stdout], ...]`` to
``JOBS.json.out``.  With ``PERFBENCH_TRACE_DIR`` set, the span wrappers
of ``tracing.py`` are installed first and the spans land in
``<dir>/<pid>.json`` at exit.
"""

import contextlib
import io
import json
import os
import sys


def _call(main, args) -> int:
    try:
        return int(main(args) or 0)
    except SystemExit as exc:
        return int(exc.code or 0)


def _batch(cli, path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    results = []
    for job in jobs:
        if job.get("corpus"):
            os.environ["REPRO_CORPUS_DIR"] = job["corpus"]
        else:
            os.environ.pop("REPRO_CORPUS_DIR", None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = _call(getattr(cli, job["entry"]), job["args"])
        results.append([status, out.getvalue()])
    with open(path + ".out", "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    return 0


def main() -> int:
    entry, args = sys.argv[1], sys.argv[2:]
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:
        import tracing

        tracing.install(trace_dir, entry)
    # The benchmark's own directory must not shadow program modules.
    del sys.path[0]
    import repro.cli

    if entry == "--batch":
        return _batch(repro.cli, args[0])
    return _call(getattr(repro.cli, entry), args)


if __name__ == "__main__":
    sys.exit(main())
