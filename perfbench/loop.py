"""Closed-loop load generation against the two service transports.

One thread submits and polls for every client. A closed-loop client
sends its next request only after one of its own completes, so a slower
service receives less load rather than a growing queue.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional

import numpy as np

from repro.perf import tracectx
from repro.service import ServiceClient, ServiceConfig
from repro.service.spool import read_result_meta, write_request
from repro.util.errors import ServiceError

from workloads import Request

#: seconds a closed loop waits for one request before failing it
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What the generator learned about one completed request."""

    ok: bool
    error: Optional[str] = None
    fingerprint: str = ""
    rays_traced: int = 0
    cache_hit: bool = False
    coalesced: bool = False
    batch_size: int = 1
    #: the service's own submit-to-result latency (sidecar or result)
    service_latency_s: float = 0.0
    #: queue wait as the service reports it (latency_s - solve_time_s);
    #: None where the transport does not carry solve_time_s
    queue_wait_s: Optional[float] = None
    divq: Optional[np.ndarray] = None
    #: spool results: the payload file, loaded by the output checks
    npz_path: Optional[Path] = None

    def load_divq(self) -> np.ndarray:
        if self.divq is None and self.npz_path is not None:
            with np.load(self.npz_path) as doc:
                self.divq = doc["divq"]
        return self.divq


@dataclass
class Record:
    request: Request
    ticket: str
    t_submit: float
    #: False for the filler requests that keep the load up at the end
    measured: bool = True
    t_done: float = 0.0
    outcome: Optional[Outcome] = None

    @property
    def latency_s(self) -> float:
        return self.t_done - self.t_submit


def request_ctx(ticket: str) -> tracectx.TraceContext:
    """A trace context whose trace id is the ticket, so every span the
    service records for this request carries the request's identity."""
    return tracectx.TraceContext(trace_id=ticket, span_id=ticket)


class InProcessTarget:
    """A :class:`ServiceClient` with the default config (2 shards)."""

    poll_sleep_s = 0.0005

    def __init__(self) -> None:
        self.client = ServiceClient(ServiceConfig())
        self.client.__enter__()

    def submit(self, request: Request, ticket: str):
        with tracectx.use(request_ctx(ticket)):
            return self.client.submit(request.spec)

    def poll(self, token) -> Optional[Outcome]:
        if not token.done():
            return None
        try:
            r = token.result(timeout=0)
        except ServiceError as exc:
            return Outcome(ok=False, error=str(exc))
        return Outcome(
            ok=True,
            fingerprint=r.fingerprint,
            rays_traced=int(r.rays_traced),
            cache_hit=r.cache_hit,
            coalesced=r.coalesced,
            batch_size=r.batch_size,
            service_latency_s=r.latency_s,
            queue_wait_s=None if r.cache_hit else r.latency_s - r.solve_time_s,
            divq=r.divq,
        )

    def close(self) -> None:
        self.client.close()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpoolTarget:
    """A ``repro serve --spool`` child with its defaults.

    ``command`` is the serve entry point: ``python -m repro serve`` for
    timed runs, the benchmark's traced entry point for the traced run.
    """

    poll_sleep_s = 0.002

    def __init__(self, spool: Path, src: Path, command: List[str]) -> None:
        self.spool = spool
        self.inbox = spool / "inbox"
        self.outbox = spool / "outbox"
        spool.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(spool.parent / f"{spool.name}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable] + command + ["--spool", str(spool)],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self._rss_mb: Optional[float] = None
        try:
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self, timeout: float = 60.0) -> None:
        """Serve publishes status.json on its first loop pass."""
        deadline = time.monotonic() + timeout
        while not (self.spool / "status.json").exists():
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve child exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("serve child not ready")
            time.sleep(0.01)

    def submit(self, request: Request, ticket: str):
        write_request(self.inbox, ticket, request.ups_text(), ctx=request_ctx(ticket))
        return ticket

    def poll(self, token) -> Optional[Outcome]:
        meta = read_result_meta(self.outbox, token)
        if meta is None:
            return None
        if meta.get("error"):
            return Outcome(ok=False, error=str(meta["error"]))
        return Outcome(
            ok=True,
            fingerprint=meta["fingerprint"],
            rays_traced=int(meta["rays_traced"]),
            cache_hit=bool(meta["cache_hit"]),
            coalesced=bool(meta["coalesced"]),
            service_latency_s=float(meta["latency_s"]),
            npz_path=self.outbox / f"{token}.npz",
        )

    def close(self, timeout: float = 60.0) -> None:
        """Graceful stop through the stop file; kill past the timeout."""
        if self.proc.poll() is None:
            (self.spool / "serve.stop").touch()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        # the serve child is the only child reaped so far, so the
        # children's peak RSS is the serve process's own
        if self._rss_mb is None:
            self._rss_mb = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            )

    def peak_rss_mb(self) -> float:
        return self._rss_mb if self._rss_mb is not None else 0.0


def run_closed_loop(
    target,
    streams: List[Iterable[Request]],
    outstanding: int,
    prefix: str,
    seconds: Optional[float] = None,
    round_size: int = 1,
) -> List[Record]:
    """Drive ``target`` with one closed-loop client per stream, each
    keeping ``outstanding`` requests in flight, until the streams run out.

    With ``seconds``, a client's measured requests are those it issued
    until that long has passed, rounded up to whole rounds of its
    stream. After them the clients keep issuing unmeasured filler
    requests while any measured request is in flight, so the last
    measured requests complete under the same load as the first instead
    of in a half-empty drain; then they drain. Returns every record,
    fillers flagged unmeasured.
    """
    clients = [iter(s) for s in streams]
    issued = [0] * len(clients)
    measuring = [True] * len(clients)
    records: List[Record] = []
    inflight: List[tuple] = []  # (client, record, token)
    start = time.perf_counter()

    def may_issue(c: int) -> bool:
        if measuring[c] and seconds is not None and (
            time.perf_counter() - start >= seconds and issued[c] % round_size == 0
        ):
            measuring[c] = False
        return measuring[c] or any(rec.measured for _, rec, _ in inflight)

    while True:
        for c, client in enumerate(clients):
            while (
                sum(1 for k, _, _ in inflight if k == c) < outstanding
                and may_issue(c)
            ):
                request = next(client, None)
                if request is None:
                    break
                ticket = f"{prefix}{len(records):06d}"
                rec = Record(request, ticket, time.perf_counter(), measured=measuring[c])
                token = target.submit(request, ticket)
                records.append(rec)
                issued[c] += 1
                inflight.append((c, rec, token))
        if not inflight:
            return records
        time.sleep(target.poll_sleep_s)
        now = time.perf_counter()
        still = []
        for c, rec, tok in inflight:
            outcome = target.poll(tok)
            if outcome is None and now - rec.t_submit > REQUEST_TIMEOUT_S:
                outcome = Outcome(ok=False, error="timed out in the generator")
            if outcome is None:
                still.append((c, rec, tok))
                continue
            rec.t_done = now
            rec.outcome = outcome
        inflight = still
