"""The ``serve`` workload: a real ``repro-serve`` with one
``repro-worker`` (one exec slot), driven by this single-threaded client
over two kept-alive HTTP/1.1 connections in a closed loop.

Connection A carries the executing requests (submit, long-poll, result);
connection B carries everything else: duplicate submits, conditional
reads, corpus uploads and the malformed requests, after each of which
the server drops B and the next request on it reconnects.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import checks
from bench import SETUPS, Bench, BenchError, Window, median
from checks import CheckError

#: Long-poll cap per wait request; far above any executing request.
WAIT_SECONDS = 60

#: The two malformed requests and the fault that drops them.
MALFORMED_FAULT = ("no response: uncaught ValueError in ServiceHandler "
                   "closes the connection")

_BOUND = re.compile(r"blocks_per_group < (\d+) \|\| blocks_per_group > (\d+)")


class Http:
    """One kept-alive connection; reopened after the server drops it."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def _open(self) -> http.client.HTTPConnection:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port,
                                                   timeout=WAIT_SECONDS + 30)
        return self.conn

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def request(self, method: str, path: str, payload: Any = None,
                headers: Optional[Dict[str, str]] = None
                ) -> Tuple[int, Dict[str, str], bytes]:
        conn = self._open()
        body = None if payload is None else json.dumps(payload).encode()
        send = {"Content-Type": "application/json"} if body else {}
        send.update(headers or {})
        try:
            conn.request(method, path, body=body, headers=send)
            response = conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError) as exc:
            self.close()
            raise BenchError(f"{method} {path}: {exc!r}") from None
        return response.status, dict(response.getheaders()), data

    def malformed(self, method: str, path: str,
                  headers: Dict[str, str]) -> Optional[int]:
        """Send a request the server cannot parse; its status, or None
        when the server closed the connection without answering."""
        conn = self._open()
        try:
            conn.putrequest(method, path)
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders(b"{}" if method == "POST" else None)
            response = conn.getresponse()
            response.read()
            status: Optional[int] = response.status
        except (http.client.RemoteDisconnected, ConnectionError):
            status = None
        if status is None or status >= 400:
            self.close()
        return status


@dataclass
class Executed:
    """One executing request, submit to result bytes in hand."""

    tool: str
    params: Dict[str, Any]
    corpus_dir: Optional[str]
    run_id: str
    output: bytes
    exit_code: int
    seconds: Dict[str, float]


@dataclass
class ServeWindow(Window):
    """A window's executing requests (``walls`` holds their submit to
    result times) and corpus upload times."""

    executed: List[Executed] = field(default_factory=list)
    uploads: List[float] = field(default_factory=list)


class Instance:
    """One booted service: API process, worker process, two connections."""

    def __init__(self, bench: Bench, data_dir: str) -> None:
        self.bench = bench
        self.server = bench.start("main_serve", ["--port", "0", "--data-dir",
                                                 data_dir], "serve.log")
        line = self.server.stdout.readline()  # blocks until it listens
        match = re.match(r"listening on http://([\d.]+):(\d+)", line)
        if match is None:
            raise BenchError(f"repro-serve did not start: {line!r}")
        host, port = match.group(1), int(match.group(2))
        self.worker = bench.start("main_worker", ["--data-dir", data_dir,
                                                  "--slots", "1"],
                                  "worker.log")
        self.a = Http(host, port)
        self.b = Http(host, port)

    def close(self) -> None:
        self.a.close()
        self.b.close()
        self.bench.stop(self.worker)
        self.bench.stop(self.server)

    def metrics(self) -> Dict[str, float]:
        status, _, body = self.b.request("GET", "/v1/metrics")
        if status != 200:
            raise BenchError(f"/v1/metrics answered {status}")
        samples = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return samples


class ServeWorkload:
    """Set-up, timed windows and checks of the served queue."""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        rng = random.Random(bench.seed)
        self.seed_base = rng.randrange(1, 2**30)
        self.bound_base = rng.randrange(20000, 40000)
        with open(os.path.join(bench.src, "repro", "corpus", "mke2fs.c"),
                  encoding="utf-8") as handle:
            self.mke2fs = handle.read()
        match = _BOUND.search(self.mke2fs)
        if match is None:
            raise BenchError("mke2fs.c has no blocks_per_group range guard "
                             "to edit")
        self.low, self.high = int(match.group(1)), int(match.group(2))
        self.removed = self._key(self.high)
        self.baseline: set = set()
        self.errors: List[str] = []
        self.instance: Optional[Instance] = None
        #: (run id, "result" | "manifest") -> (ETag, bytes) of this instance
        self.etags: Dict[Tuple[str, str], Tuple[str, bytes]] = {}

    def _key(self, bound: int) -> str:
        return f"SD.value_range:mke2fs.blocks_per_group:[{self.low},{bound}]"

    def overlay(self, bound: int) -> str:
        """mke2fs.c with the upper range guard of blocks_per_group set to
        ``bound``: the overlay edit rule."""
        return _BOUND.sub(f"blocks_per_group < {self.low} || "
                          f"blocks_per_group > {bound}", self.mke2fs, count=1)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Fresh cache and data directory, cache filled by one direct
        extraction, API and worker booted, one untimed warm-up rotation.
        Leaves the instance running; returns the wall seconds."""
        started = time.perf_counter()
        self.bench.fresh_dir("cache")
        data_dir = self.bench.fresh_dir("serve")
        done = self.bench.run("main_extract", ["--list"])
        try:
            checks.check_extract(done.out, done.rc)
            self.baseline = checks.dependency_keys(done.out)
            checks.check_same("edited key in the baseline",
                              self.removed in self.baseline, True)
        except CheckError as exc:
            self.errors.append(f"fill: {exc}")
        self.instance = Instance(self.bench, data_dir)
        self.etags = {}
        self.rotation(-1, ServeWindow())
        return time.perf_counter() - started

    def close(self) -> None:
        if self.instance is not None:
            self.instance.close()
            self.instance = None

    def setups(self, count: int = SETUPS) -> List[float]:
        times = []
        for index in range(count):
            if index:
                self.close()
            times.append(self.setup())
        return times

    # -- requests -------------------------------------------------------

    def _fail(self, window: ServeWindow, kind: str, message: str) -> None:
        self.errors.append(f"{kind}: {message}")
        window.tally.add(kind, failed=True, label="unexpected answer")

    def execute(self, window: ServeWindow, kind: str, tool: str,
                params: Dict[str, Any], corpus: Optional[str] = None,
                corpus_dir: Optional[str] = None) -> Optional[Executed]:
        conn = self.instance.a  # type: ignore[union-attr]
        body: Dict[str, Any] = {"tool": tool, "params": params}
        if corpus:
            body["corpus"] = corpus
        t0 = time.perf_counter()
        status, _, raw = conn.request("POST", "/v1/runs", body)
        t1 = time.perf_counter()
        if status != 201:
            self._fail(window, f"{kind}.submit", f"submit answered {status}")
            return None
        window.tally.add(f"{kind}.submit", seconds=t1 - t0)
        run_id = json.loads(raw)["run"]["run_id"]
        status, _, raw = conn.request("GET", f"/v1/runs/{run_id}"
                                             f"?wait={WAIT_SECONDS}")
        t2 = time.perf_counter()
        run = json.loads(raw) if status == 200 else {}
        if run.get("status") != "done":
            self._fail(window, f"{kind}.wait",
                       f"run {run_id} is {run.get('status')} ({status})")
            return None
        window.tally.add(f"{kind}.wait", seconds=t2 - t1)
        status, headers, output = conn.request(
            "GET", f"/v1/runs/{run_id}/result")
        t3 = time.perf_counter()
        in_hand = time.time()
        if status != 200:
            self._fail(window, f"{kind}.result", f"result answered {status}")
            return None
        window.tally.add(f"{kind}.result", seconds=t3 - t2)
        self.etags[(run_id, "result")] = (headers.get("ETag", ""), output)
        done = Executed(tool, params, corpus_dir, run_id, output,
                        int(headers.get("X-Repro-Exit-Code", "0")),
                        {"submit": t1 - t0, "wait": t2 - t1,
                         "result": t3 - t2, "op": t3 - t0,
                         "queue_wait": run["claimed_at"] - run["created"],
                         "exec": run["finished"] - run["started"],
                         "notify": in_hand - run["finished"]})
        window.executed.append(done)
        window.walls.append(done.seconds["op"])
        return done

    def duplicate(self, window: ServeWindow, kind: str, original: Executed,
                  corpus: Optional[str] = None) -> None:
        body: Dict[str, Any] = {"tool": original.tool,
                                "params": original.params}
        if corpus:
            body["corpus"] = corpus
        status, _, raw = self.instance.b.request("POST", "/v1/runs", body)
        try:
            checks.check_same("duplicate status", status, 200)
            checks.check_dedup(json.loads(raw), original.run_id)
        except CheckError as exc:
            self._fail(window, kind, str(exc))
            return
        window.tally.add(kind)

    def read(self, window: ServeWindow, kind: str, run_id: str,
             what: str) -> Optional[bytes]:
        """A conditional GET of a result or manifest: 304 when the bytes
        are the remembered ones, else a 200 with them."""
        remembered = self.etags.get((run_id, what))
        headers = {"If-None-Match": remembered[0]} if remembered else {}
        status, got, body = self.instance.b.request(
            "GET", f"/v1/runs/{run_id}/{what}", headers=headers)
        if status == 304 and remembered:
            body = remembered[1]
        elif status == 200:
            if remembered and body != remembered[1]:
                self._fail(window, kind, f"{what} of {run_id} changed")
                return None
            self.etags[(run_id, what)] = (got.get("ETag", ""), body)
        else:
            self._fail(window, kind, f"{what} answered {status}")
            return None
        window.tally.add(kind)
        return body

    def malformed(self, window: ServeWindow, kind: str, method: str, path: str,
                  headers: Dict[str, str]) -> None:
        status = self.instance.b.malformed(method, path, headers)
        if status is None:
            window.tally.add(kind, failed=True, label=MALFORMED_FAULT)
        elif 400 <= status < 500:
            window.tally.add(kind)
        else:
            self._fail(window, kind, f"malformed request answered {status}")

    def upload(self, window: ServeWindow, bound: int) -> Tuple[str, str]:
        source = self.overlay(bound)
        t0 = time.perf_counter()
        status, _, raw = self.instance.b.request(
            "POST", "/v1/corpus", {"files": {"mke2fs.c": source}})
        window.uploads.append(time.perf_counter() - t0)
        if status != 201:
            raise BenchError(f"corpus upload answered {status}")
        window.tally.add("upload")
        directory = os.path.join(self.bench.work, "overlays", str(bound))
        if not os.path.isdir(directory):
            corpus = os.path.join(self.bench.src, "repro", "corpus")
            os.makedirs(directory)
            for name in os.listdir(corpus):
                if name.endswith(".c"):
                    shutil.copy(os.path.join(corpus, name), directory)
            with open(os.path.join(directory, "mke2fs.c"), "w",
                      encoding="utf-8") as handle:
                handle.write(source)
        return json.loads(raw)["corpus"], directory

    # -- the rotation ---------------------------------------------------

    def rotation(self, index: int, window: ServeWindow) -> None:
        """Nineteen requests: three executing requests (two conbugck with
        unseen seeds, one extract of a fresh overlay), two duplicates,
        one upload, five conditional reads and two malformed requests."""
        seed = self.seed_base + 2 * index
        bound = self.bound_base + index
        a = self.execute(window, "conbugck", "conbugck",
                         {"count": 30, "seed": seed})
        if a is not None:
            self._check(window, a, lambda out, rc:
                        checks.check_conbugck(out, rc, 30))
            self.duplicate(window, "duplicate", a)
            manifest = self.read(window, "manifest", a.run_id, "manifest")
            if manifest is not None:
                try:
                    checks.check_same("manifest run id",
                                      json.loads(manifest)["run"]["id"],
                                      a.run_id)
                except (CheckError, ValueError, KeyError) as exc:
                    self._fail(window, "manifest", str(exc))
        b = self.execute(window, "conbugck", "conbugck",
                         {"count": 30, "seed": seed + 1})
        if b is not None:
            self._check(window, b, lambda out, rc:
                        checks.check_conbugck(out, rc, 30))
        corpus, directory = self.upload(window, bound)
        x = self.execute(window, "extract", "extract", {"list": True},
                         corpus=corpus, corpus_dir=directory)
        if x is not None:
            self._check(window, x, lambda out, rc: checks.check_overlay(
                out, rc, self.baseline, self.removed, self._key(bound)))
            self.duplicate(window, "duplicate", x, corpus=corpus)
        for done, what in ((a, "result"), (a, "manifest"), (x, "result"),
                           (b, "result")):
            if done is not None:
                self.read(window, "reread", done.run_id, what)
        self.malformed(window, "malformed.limit", "GET",
                       "/v1/runs?limit=abc", {})
        self.malformed(window, "malformed.length", "POST", "/v1/runs",
                       {"Content-Type": "application/json",
                        "Content-Length": "abc"})

    def _check(self, window: ServeWindow, done: Executed, check) -> None:
        try:
            window.works.append(check(done.output.decode(), done.exit_code))
        except CheckError as exc:
            self.errors.append(f"{done.tool} {done.params}: {exc}")
            window.tally.fail(f"{done.tool}.result", "wrong output")

    def window(self) -> ServeWindow:
        window = ServeWindow()
        window.run(self.bench.seconds,
                   lambda index: self.rotation(index, window))
        return window

    # -- served bytes vs direct runs ------------------------------------

    def verify_direct(self, window: ServeWindow) -> None:
        """Every executed request's result bytes and exit status must be
        the stdout and status of the same command run directly (one
        process runs them all, each under its own corpus directory)."""
        jobs = []
        for done in window.executed:
            args = ["--list"] if done.tool == "extract" else \
                ["--count", str(done.params["count"]),
                 "--seed", str(done.params["seed"])]
            jobs.append({"entry": f"main_{done.tool}", "args": args,
                         "corpus": done.corpus_dir})
        path = os.path.join(self.bench.work, "direct.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(jobs, handle)
        result = self.bench.run("--batch", [path])
        if result.rc != 0:
            raise BenchError(f"direct batch failed: {result.err[-500:]}")
        with open(path + ".out", encoding="utf-8") as handle:
            outputs = json.load(handle)
        for done, (rc, out) in zip(window.executed, outputs):
            try:
                checks.check_same(f"served vs direct {done.tool} "
                                  f"{done.params} bytes",
                                  done.output, out.encode())
                checks.check_same("served vs direct exit status",
                                  done.exit_code, rc)
            except CheckError as exc:
                self.errors.append(str(exc)[:500])
                window.tally.fail(f"{done.tool}.result",
                                  "differs from the direct run")


def client_metrics(window: ServeWindow, before: Dict[str, float],
                   after: Dict[str, float]) -> Dict[str, float]:
    """Per-route client times, run-row intervals and the API's own
    dedup and hot-cache counters over one window."""
    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def med(route: str) -> float:
        return median([e.seconds[route] for e in window.executed])

    hits = delta("repro_serve_cache_hits_total")
    lookups = hits + delta("repro_serve_cache_misses_total")
    submits = delta("repro_serve_submits")
    return {
        "serve.http_submit_s": med("submit"),
        "serve.http_wait_s": med("wait"),
        "serve.http_result_s": med("result"),
        "serve.http_upload_s": median(window.uploads),
        "serve.queue_wait_s": med("queue_wait"),
        "serve.exec_s": med("exec"),
        "serve.notify_s": med("notify"),
        "serve.dedup_ratio":
            delta("repro_serve_deduped_total") / submits if submits else 0.0,
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
    }
