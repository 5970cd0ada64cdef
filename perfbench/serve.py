"""The ``serve_stream`` workload: a client against ``repro serve``.

One process, one asyncio loop.  A timed run has three passes, each
against a fresh server.  Two are solo passes, one rigid and one
malleable: a fixed number of whole rounds over the seed pool, each
request sent when the previous one is done, so that the server's CPU
time per request is the service's own cost.  The third is an open loop: requests are due at
evenly spaced times, first at a light rate and then at a heavy one; at
most ``os.cpu_count()`` request flows are in flight, and a request that
is due while they are all busy waits for one, which its latency counts,
because every round trip is timed from when the request was due.  A
flow is: POST ``/v1/workloads`` (a small FS workload), stream
``/v1/jobs/{id}/events`` to the ``done`` frame, then GET
``/v1/jobs/{id}``.

Each stream is checked: the canonical lines it carried must hash to the
job's ``trace_digest``, which must equal the digest recorded for that
seed and rendition in ``references.json``.  Any other status than 2xx
(429 and 503 refusals included), a mismatch, a connection error or a
round trip over the latency limit fails the request.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    ROOT, SETUP_PROBES, WORK_DIR, load_json, load_shapes,
)
from perfbench.stats import median, percentile, samples_for, tail_percentile

SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 60.0
HOST = "127.0.0.1"


# -- the server process ---------------------------------------------------------

class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, command: List[str], log_path: str) -> None:
        os.makedirs(os.path.dirname(log_path), exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._log = open(log_path, "w", encoding="utf-8")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.rusage = None
        try:
            self.port = self._read_port(spawned + SERVER_START_TIMEOUT)
            self._wait_healthy(spawned + SERVER_START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned

    def _read_port(self, deadline: float) -> int:
        prefix = f"listening on http://{HOST}:"
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if prefix in line:
                return int(line.split(prefix, 1)[1].split()[0])
        raise RuntimeError("repro serve did not announce its port")

    def _wait_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                status, _ = asyncio.run(request(self.port, "GET", "/health"))
            except OSError:
                status = None
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /health with 200")

    def stop(self) -> None:
        """SIGTERM (graceful drain), reap, and keep the child's rusage."""
        if self.rusage is None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + SERVER_STOP_TIMEOUT
            while True:
                pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rusage = rusage
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, status, self.rusage = os.wait4(self.proc.pid, 0)
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                time.sleep(0.02)
        self.proc.stdout.close()
        self._log.close()

    @property
    def peak_rss_mib(self) -> float:
        return self.rusage.ru_maxrss / 1024.0

    @property
    def cpu_s(self) -> float:
        return self.rusage.ru_utime + self.rusage.ru_stime


def serve_command() -> List[str]:
    return [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--no-cache"]


def launcher_command(layers_path: str) -> List[str]:
    return [sys.executable, "-m", "perfbench.launcher", layers_path]


# -- a one-shot HTTP/1.1 client -------------------------------------------------

async def _open(port: int, method: str, path: str, body: bytes = b""):
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write((
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
        f"Accept: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n").encode("ascii") + body)
    await writer.drain()
    status_line = await reader.readline()
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        writer.close()
        raise ConnectionError(f"malformed status line {status_line!r}")
    while (await reader.readline()).strip():
        pass  # headers: every response is Connection: close
    return int(parts[1]), reader, writer


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


async def request(port: int, method: str, path: str,
                  payload: Optional[dict] = None) -> Tuple[int, bytes]:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    status, reader, writer = await _open(port, method, path, body)
    try:
        return status, await reader.read()
    finally:
        await _close(writer)


async def stream(port: int, job_id: str) -> Tuple[List[str], dict, float]:
    """Read one job's SSE stream: (trace lines, done payload, first-frame time)."""
    status, reader, writer = await _open(
        port, "GET", f"/v1/jobs/{job_id}/events")
    try:
        if status != 200:
            raise RequestFailed(f"event stream answered {status}")
        lines: List[str] = []
        first = None
        event, data = None, None
        async for raw in reader:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[7:]
            elif line.startswith("data: "):
                data = line[6:]
            elif not line and data is not None:
                if first is None:
                    first = time.perf_counter()
                if event == "done":
                    return lines, json.loads(data), first
                lines.append(data)
                event, data = None, None
        raise RequestFailed(f"stream for {job_id} ended without a done frame")
    finally:
        await _close(writer)


class RequestFailed(RuntimeError):
    """A request's response was refused, malformed or wrong."""


# -- the load generator ---------------------------------------------------------

def seed_order(shape: dict, seed: int) -> List[int]:
    """The seed pool in the order ``seed`` gives it."""
    seeds = list(shape["seed_pool"])
    random.Random(seed).shuffle(seeds)
    return seeds


def schedule(shape: dict, seed: int, seconds: float) -> List[dict]:
    """Phases, due offsets, seeds and renditions of an open-loop pass.

    The light phase takes ``light_share`` of ``seconds`` and the heavy
    phase the rest, lengthened if needed so that its 90th percentile has
    enough samples beyond it to be reported.
    """
    seeds = seed_order(shape, seed)
    light_s = shape["light_share"] * seconds
    light_n = max(1, int(light_s * shape["light_rate_per_s"]))
    heavy_n = max(samples_for(90.0),
                  int((seconds - light_s) * shape["heavy_rate_per_s"]))
    out = []
    for phase, n, rate, t0 in (("light", light_n, shape["light_rate_per_s"], 0.0),
                               ("heavy", heavy_n, shape["heavy_rate_per_s"],
                                light_s + 0.5)):
        for k in range(n):
            i = len(out)
            # Alternate renditions, shifting each pass over the seeds so
            # that every seed is sent both rigid and malleable.
            out.append({"phase": phase, "due": t0 + k / rate,
                        "seed": seeds[i % len(seeds)],
                        "flexible": (i + i // len(seeds)) % 2 == 1})
    return out


class Client:
    """Drives one pass of the schedule and keeps every measurement."""

    def __init__(self, port: int, shape: dict,
                 refs: Optional[Dict[str, dict]], connections: int, poll: bool,
                 latency_limit: Optional[float]) -> None:
        self.port = port
        self.shape = shape
        self.refs = refs
        self.connections = connections
        self.poll = poll
        self.latency_limit = latency_limit
        self.results: List[dict] = []
        self.in_flight = 0
        self.connections_max = 0
        self.queue_depths: List[int] = []
        self.started = 0.0

    async def one(self, item: dict, origin: float, slots) -> dict:
        due = origin + item["due"]
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        res = dict(item, lag=time.perf_counter() - due, error=None, job=None)
        async with slots:
            self.in_flight += 1
            self.connections_max = max(self.connections_max, self.in_flight)
            try:
                await self._flow(item, res)
            except (RequestFailed, OSError, ValueError, KeyError) as exc:
                res["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                self.in_flight -= 1
        res["rt"] = res.get("done", time.perf_counter()) - due
        res["due"] = due
        limit = self.latency_limit
        if res["error"] is None and limit is not None and res["rt"] > limit:
            res["error"] = f"round trip {res['rt'] * 1000:.0f} ms over the limit"
        return res

    async def _flow(self, item: dict, res: dict) -> None:
        payload = {"workload": "fs", "num_jobs": self.shape["num_jobs"],
                   "seed": item["seed"], "flexible": item["flexible"]}
        res["sent"] = time.perf_counter()
        status, body = await request(self.port, "POST", "/v1/workloads", payload)
        res["accepted"] = time.perf_counter()
        if status == 429 or status == 503:
            res["refused"] = True
        if status != 202:
            raise RequestFailed(f"submit answered {status}")
        job_id = json.loads(body)["id"]
        res["job"] = job_id
        lines, done, first = await stream(self.port, job_id)
        res["first_frame"] = first
        res["done"] = time.perf_counter()
        res["frames"] = len(lines) + 1
        status, body = await request(self.port, "GET", f"/v1/jobs/{job_id}")
        res["status_end"] = time.perf_counter()
        if status != 200:
            raise RequestFailed(f"status answered {status}")
        snapshot = json.loads(body)
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        res["digest"] = digest
        if done.get("state") != "COMPLETED" or done.get("events") != len(lines):
            raise RequestFailed(f"done frame {done}")
        if snapshot["result"]["trace_digest"] != digest:
            raise RequestFailed("streamed frames do not hash to trace_digest")
        if self.refs is None:
            return  # recording the references
        kind = "flexible" if item["flexible"] else "fixed"
        want = self.refs[str(item["seed"])][kind]
        if digest != want:
            raise RequestFailed(f"trace digest {digest[:12]} != reference "
                                f"{want[:12]} (seed {item['seed']} {kind})")

    async def _poll_queue(self) -> None:
        while True:
            status, body = await request(self.port, "GET", "/metrics")
            if status == 200:
                self.queue_depths.append(json.loads(body)["jobs"]["queue_depth"])
            await asyncio.sleep(0.25)

    async def run(self, items: List[dict]) -> float:
        """Send ``items`` when they are due; the pass's wall."""
        slots = asyncio.Semaphore(self.connections)
        self.started = time.perf_counter()
        origin = self.started + 0.05
        poller = asyncio.ensure_future(self._poll_queue()) if self.poll else None
        try:
            self.results = list(await asyncio.gather(
                *(self.one(item, origin, slots) for item in items)))
        finally:
            if poller is not None:
                poller.cancel()
                try:
                    await poller
                except asyncio.CancelledError:
                    pass
        return time.perf_counter() - self.started

    async def solo(self, seeds: List[int], flexible: bool,
                   rounds: int) -> float:
        """``rounds`` whole rounds over ``seeds``; the pass's wall.

        Each request is sent when the previous one is done, so none waits
        behind another.
        """
        slots = asyncio.Semaphore(1)
        self.started = time.perf_counter()
        for _ in range(rounds):
            for seed in seeds:
                item = {"phase": "solo", "due": 0.0, "seed": seed,
                        "flexible": flexible}
                self.results.append(
                    await self.one(item, time.perf_counter(), slots))
        return time.perf_counter() - self.started


# -- server-side latencies ------------------------------------------------------

#: Per-route p50 of the server's own request timing, from its JSON /metrics.
ROUTES = {
    "POST /v1/workloads": "serve.server.post_workloads_p50_ms",
    "GET /v1/jobs/{id}": "serve.server.get_job_p50_ms",
    "GET /v1/jobs/{id}/events": "serve.server.get_events_p50_ms",
}


# -- one workload run ------------------------------------------------------------

def _pass(server: Server, client: Client, work, layered: bool = False) -> dict:
    """Await ``work``, a coroutine of ``client``, then stop ``server``.

    ``layered`` reads the server's per-route latencies from ``/metrics``
    at the end.
    """
    async def drive() -> dict:
        wall = await work
        routes = {}
        if layered:
            status, body = await request(server.port, "GET", "/metrics")
            if status != 200:
                raise RequestFailed(f"/metrics answered {status}")
            routes = json.loads(body)["requests"]["latency_by_route"]
        return {"wall": wall, "start": client.started, "routes": routes}

    try:
        out = asyncio.run(drive())
    finally:
        server.stop()
    out["results"] = client.results
    out["connections_max"] = client.connections_max
    out["queue_depths"] = client.queue_depths
    return out


def _ms(values: List[float], pct: float = 50.0) -> float:
    return percentile(values, pct) * 1000.0 if values else 0.0


def _reached(results: List[dict], key: str, phase: Optional[str] = None):
    """Requests that got as far as ``key``, over-limit ones included."""
    return [r for r in results
            if key in r and (phase is None or r["phase"] == phase)]


def solo_rounds(shape: dict, flexible: bool, seconds: float) -> int:
    """Rounds over the seed pool that ``solo_round_s`` says fit in ``seconds``.

    A count, not a time limit: every run of a commit sends the same
    requests, so the server's CPU time per request does not move with
    how many requests the host's wake-up delays let through, which the
    one-off costs of a server (its first requests, its growing heap)
    would be spread over.
    """
    per_round = shape["solo_round_s"]["flexible" if flexible else "fixed"]
    return max(1, round(seconds / per_round))


def cpu_per_request(cpu_s: float, requests: int, idle_cpu_s: float) -> float:
    """Server CPU seconds per request, less what an idle server spends.

    An idle server is started, answers ``/health`` and drains on SIGTERM
    like a working one, so the difference is the requests' own cost.  It
    is counted for every request sent, whether it succeeded or not, so a
    run whose requests all fail still reports it next to the failed count.
    """
    return (cpu_s - idle_cpu_s) / requests


def client_metrics(run: dict) -> Dict[str, float]:
    """Client-side serve metrics of one pass (all latencies in ms)."""
    results = run["results"]
    heavy = [r["rt"] for r in _reached(results, "done", "heavy")]
    light = [r["rt"] for r in _reached(results, "done", "light")]
    tail = tail_percentile(len(heavy)) or 0.0
    out = {
        "serve.rt_p50_ms": _ms(heavy),
        # Zero when too few heavy requests got through for a 90th percentile.
        "serve.rt_p90_ms": _ms(heavy, 90.0) if tail >= 90.0 else 0.0,
        "serve.light_rt_p50_ms": _ms(light),
        "serve.status_p50_ms": _ms([r["status_end"] - r["done"]
                                    for r in _reached(results, "status_end")]),
        "serve.submit_p50_ms": _ms([r["accepted"] - r["sent"]
                                    for r in _reached(results, "accepted")]),
        "serve.first_frame_p50_ms": _ms([
            r["first_frame"] - r["accepted"]
            for r in _reached(results, "first_frame")]),
        "serve.stream_frames": sum(r["frames"]
                                   for r in _reached(results, "frames")),
        "serve.queue_depth_max": max(run["queue_depths"], default=0),
        "serve.gen_lag_p90_ms": _ms([r["lag"] for r in results], 90.0),
        "serve.connections_max": run["connections_max"],
        "serve.refused": sum(1 for r in results if r.get("refused")),
        "serve.errors": sum(1 for r in results if r["error"]),
    }
    out["serve.stream_frames_per_s"] = out["serve.stream_frames"] / run["wall"]
    for route, name in ROUTES.items():
        out[name] = run["routes"].get(route, {}).get("p50_ms", 0.0)
    return out


def _spans(run: dict) -> List[dict]:
    """Coarse client spans of one pass: the run, each request, its phases."""
    results = run["results"]
    start = run["start"]
    spans = [{"name": "workload.run", "start": start,
              "end": start + run["wall"], "id": "run", "parent": None,
              "rid": "run"}]
    for i, r in enumerate(results):
        rid = r["job"] or f"q{i}"
        end = r.get("status_end", r["due"] + r["rt"])
        spans.append({"name": f"request.{r['phase']}", "start": r["due"],
                      "end": end, "id": rid, "parent": "run", "rid": rid,
                      "track": "requests", "error": r["error"] or ""})
        for name, start_key, end_key in (("submit", "sent", "accepted"),
                                         ("stream", "accepted", "done"),
                                         ("status", "done", "status_end")):
            if start_key in r and end_key in r:
                spans.append({"name": name, "start": r[start_key],
                              "end": r[end_key], "id": f"{rid}.{name}",
                              "parent": rid, "rid": rid, "track": name})
    return spans


def run_serve(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.common import export_spans
    from perfbench.layers import layer_metrics

    shape = load_shapes()[name]
    refs = load_json("references.json")[name]
    connections = os.cpu_count() or 1
    limit = shape["latency_limit_ms"] / 1000.0

    def serve(command=None, log="serve.log", poll=False, check=True):
        server = Server(command or serve_command(), os.path.join(WORK_DIR, log))
        return server, Client(server.port, shape, refs, connections, poll=poll,
                              latency_limit=limit if check else None)

    if not trace:
        # Waiting on wake-ups between the client, the event loop and the
        # worker thread makes a round trip vary with the host's load far
        # more than the work itself does; CPU time leaves the waits out.
        # Rigid and malleable requests get a server each, so that each
        # server's CPU time is one rendition's, and each about the same
        # time, so that both average the host's speed over as long.
        idle = []
        for _ in range(SETUP_PROBES - 3):
            probe = Server(serve_command(), os.path.join(WORK_DIR, "serve.log"))
            probe.stop()
            idle.append(probe)
        idle_cpu = median([p.cpu_s for p in idle])
        solo_s = shape["solo_share"] * seconds / 2.0
        servers, results, walls = [], [], {}
        for flexible in (False, True):
            server, client = serve()
            rounds = solo_rounds(shape, flexible, solo_s)
            _pass(server, client, client.solo(seed_order(shape, seed),
                                              flexible, rounds))
            servers.append(server)
            results += client.results
            walls[flexible] = cpu_per_request(server.cpu_s, len(client.results),
                                              idle_cpu)
        server, client = serve()
        items = schedule(shape, seed, seconds - 2.0 * solo_s)
        results += _pass(server, client, client.run(items))["results"]
        servers.append(server)
        metrics = {
            "setup_s": median([s.setup_s for s in idle + servers]),
            "fixed_wall_s": walls[False],
            "flexible_wall_s": walls[True],
            "peak_rss_mib": server.peak_rss_mib,
        }
    else:
        items = schedule(shape, seed, seconds / 4.0)
        untraced_server, client = serve(poll=True)
        untraced = _pass(untraced_server, client, client.run(items),
                         layered=True)
        layers_path = os.path.join(WORK_DIR, f"{name}-seed{seed}.layers.json")
        # The wrappers slow the traced server, so its round trips are
        # not held to the limit; its outputs are still checked.
        traced_server, client = serve(launcher_command(layers_path),
                                      "launcher.log", poll=True, check=False)
        traced = _pass(traced_server, client, client.run(items), layered=True)
        with open(layers_path, encoding="utf-8") as fh:
            tallies = json.load(fh)
        # The server idles between requests, so the layers are measured
        # against its CPU time, not the wall clock.
        metrics = layer_metrics(tallies, traced_server.cpu_s,
                                untraced_server.cpu_s,
                                traced_server.cpu_s / untraced_server.cpu_s)
        metrics.update(client_metrics(untraced))
        export_spans(os.path.join(WORK_DIR, f"{name}-seed{seed}.trace.json"),
                     _spans(traced), request_id="run")
        results = untraced["results"] + traced["results"]
    failures = [f"request {r['job'] or r['due']} ({r['phase']}, seed "
                f"{r['seed']}): {r['error']}" for r in results if r["error"]]
    return {"attempted": len(results), "failures": failures,
            "metrics": metrics}


def record(name: str) -> Dict[str, dict]:
    """Reference digests: every pool seed, rigid and malleable, in turn."""
    shape = load_shapes()[name]
    items = [{"phase": "record", "due": 0.0, "seed": seed, "flexible": flexible}
             for seed in shape["seed_pool"] for flexible in (False, True)]
    server = Server(serve_command(), os.path.join(WORK_DIR, "serve.log"))
    client = Client(server.port, shape, None, connections=1, poll=False,
                    latency_limit=None)
    run = _pass(server, client, client.run(items))
    refs: Dict[str, dict] = {}
    for r in run["results"]:
        if r["error"] is not None:
            raise RequestFailed(r["error"])
        kind = "flexible" if r["flexible"] else "fixed"
        refs.setdefault(str(r["seed"]), {})[kind] = r["digest"]
    return refs
