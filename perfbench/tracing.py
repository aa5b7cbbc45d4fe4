"""The traced run: spans around the calls into each layer, from outside.

Nothing in ``src/`` is instrumented for this. :func:`install` wraps
each layer's public functions at the binding its caller looks up —
``repro.core.kernels`` and ``repro.radiation.spectral.tracer`` each
import ``march`` by name, so both bindings are wrapped, while wrapping
``repro.core.dda.march`` alone would record nothing. Spans (name,
start, end, parent, request id) are kept in memory and written out
when the run ends; :func:`layer_metrics` then derives the per-layer
metrics, per-span self times and a per-request unattributed remainder.

The request id is the ticket the generator minted: it rides as the
trace id of the request's :mod:`repro.perf.tracectx` context, which the
service re-enters on its worker threads (and the serve loop restores
from the spool file). Rank threads of a distributed solve do not
inherit contexts, so the ``runtime.execute`` wrapper hands its request
and span to the rank threads through the ``runtime.rank`` wrapper.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.perf import tracectx


@dataclass
class Span:
    sid: int
    name: str
    t0: float
    t1: float
    parent: Optional[int]
    request: Optional[str]
    thread: str
    extra: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class SpanRecorder:
    """In-memory span sink plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: id(DistributedScheduler) -> (span id, request) of its execute
        self._links: Dict[int, Tuple[int, Optional[str]]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        request_from: Optional[Callable] = None,
        link_from: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``request_from(args)`` names the request when no trace context
        does; ``link_from(args)`` supplies (parent span, request) for a
        thread that starts outside any span; ``before(args, sid,
        request)`` runs first and ``after(args, result)`` returns the
        span's extra fields.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent, request = stack[-1] if stack else (None, None)
            if link_from is not None and not stack:
                parent, request = link_from(args) or (None, None)
            ctx = tracectx.current()
            if request is None and ctx is not None:
                request = ctx.trace_id
            if request_from is not None:
                request = request_from(args, kwargs) or request
            sid = next(rec._ids)
            if before is not None:
                before(args, sid, request)
            stack.append((sid, request))
            t0 = time.perf_counter()
            extra = {}
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    extra = after(args, kwargs, result) or {}
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append(
                    Span(sid, name, t0, t1, parent, request,
                         threading.current_thread().name, extra)
                )

        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            replacement = self.wrap(name, original, **hooks)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def load_spans(path: Path) -> List[Span]:
    return [Span(**doc) for doc in json.loads(path.read_text())]


# ----------------------------------------------------------------------
# the wrapped bindings
# ----------------------------------------------------------------------
def _march_extra(args, kwargs, result) -> dict:
    # cascade re-launches of parked rays (from_handoff) march the same
    # rays again: count each ray once, on its first launch
    if kwargs.get("from_handoff", False):
        return {"rays": 0}
    batch = kwargs["batch"] if "batch" in kwargs else args[0]
    return {"rays": int(batch.origins.shape[0])}


def _ticket_of_path(args, kwargs) -> str:
    return args[0].stem


def _ticket_arg(args, kwargs) -> str:
    return args[1]


def _publish_extra(args, kwargs, result) -> dict:
    r = kwargs.get("result")
    if r is None:
        return {"error": True}
    return {
        "cache_hit": r.cache_hit,
        "coalesced": r.coalesced,
        "batch_size": r.batch_size,
        "queue_wait_s": None if r.cache_hit else r.latency_s - r.solve_time_s,
    }


def _runtime_stats_extra(args, kwargs, result) -> dict:
    stats = args[0].last_runtime_stats or {}
    busy = sum(
        stats[k].total for k in ("task_exec_time", "local_comm_time") if k in stats
    )
    ranks = stats["task_exec_time"].ranks if "task_exec_time" in stats else 0
    return {"busy_s": busy, "ranks": ranks}


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.core.kernels as kernels
    import repro.radiation.spectral.planck as planck
    import repro.radiation.spectral.tracer as spectral_tracer
    import repro.service.cli as cli
    import repro.service.schema as schema
    import repro.service.service as service
    import repro.service.workers as workers
    import repro.ups as ups
    from repro.core.distributed import DistributedRMCRT
    from repro.perf.tsdb import SnapshotCollector
    from repro.radiation.spectral.model import SpectralModel
    from repro.runtime.scheduler import DistributedScheduler

    # core: the kernel pieces and the solve a worker runs
    rec.patch(kernels, "march", "core.march", after=_march_extra)
    rec.patch(spectral_tracer, "march", "spectral.march", after=_march_extra)
    rec.patch(kernels, "generate_patch_rays", "core.rays")
    rec.patch(spectral_tracer, "generate_patch_rays", "core.rays")
    rec.patch(kernels, "divq_from_sums", "core.reduce")
    rec.patch(workers, "run_prepared", "core.solve")
    # ups: parse, fingerprints, scene preparation, spectral model
    rec.patch(service, "parse_ups", "ups.parse")
    rec.patch(schema, "spec_fingerprint", "ups.fingerprint")
    rec.patch(schema, "scene_fingerprint", "ups.fingerprint")
    rec.patch(workers, "prepare_scene", "ups.prepare_scene")
    rec.patch(ups, "spectral_model", "ups.spectral_model")
    # radiation.spectral
    rec.patch(SpectralModel, "build", "spectral.model_build")
    rec.patch(planck, "fraction_inverse", "spectral.fraction_inverse")
    # runtime / comm
    rec.patch(DistributedRMCRT, "solve", "runtime.distributed_solve",
              after=_runtime_stats_extra)

    def link(args, sid, request):
        rec._links[id(args[0])] = (sid, request)

    def execute_extra(args, kwargs, result):
        rec._links.pop(id(args[0]), None)
        stats = args[0].fabric.stats
        return {"messages": int(stats.messages), "bytes": int(stats.bytes)}

    rec.patch(DistributedScheduler, "execute", "runtime.execute",
              before=link, after=execute_extra)
    rec.patch(DistributedScheduler, "_run_rank", "runtime.rank",
              link_from=lambda args: rec._links.get(id(args[0])))
    # service, spool and the serve loop
    rec.patch(service.ServiceClient, "submit", "service.submit")
    rec.patch(cli, "claim_request", "spool.claim", request_from=_ticket_of_path)
    rec.patch(cli, "write_result", "spool.publish", request_from=_ticket_arg,
              after=_publish_extra)
    rec.patch(SnapshotCollector, "maybe_sample", "perf.collector_sample")
    rec.patch(cli, "_publish_status", "serve.status_publish")


#: wrappers that must fire on each workload's traced pass; a rename in
#: src/ then fails the run instead of reporting zeros
EXPECTED_SPANS = {
    "gray_distinct": {
        "core.march", "core.rays", "core.reduce", "core.solve",
        "ups.fingerprint", "ups.prepare_scene", "runtime.distributed_solve",
        "runtime.execute", "runtime.rank", "service.submit",
    },
    "spool_ensemble": {
        "core.march", "core.rays", "core.reduce", "core.solve",
        "ups.parse", "ups.fingerprint", "ups.prepare_scene", "service.submit",
        "spool.claim", "spool.publish", "perf.collector_sample",
        "serve.status_publish", "spectral.march", "ups.spectral_model",
        "spectral.model_build", "spectral.fraction_inverse",
    },
}


# ----------------------------------------------------------------------
# derivation
# ----------------------------------------------------------------------
def _union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _children(spans: List[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return children


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of it its children cover."""
    children = _children(spans)
    return {
        s.sid: s.dur - _union_length(
            ((c.t0, c.t1) for c in children.get(s.sid, ())), s.t0, s.t1
        )
        for s in spans
    }


_KERNEL = ("core.march", "spectral.march", "core.rays", "core.reduce")


def select_pass(spans: List[Span], tickets: Iterable[str], t0: float, t1: float):
    """The spans of one traced pass: those of its requests, plus the
    request-less serve-loop spans inside its interval."""
    wanted = set(tickets)
    return [
        s for s in spans
        if s.request in wanted or (s.request is None and t0 <= s.t0 <= t1)
    ]


def missing_wrappers(workload: str, spans: List[Span]) -> List[str]:
    fired = {s.name for s in spans}
    return sorted(EXPECTED_SPANS[workload] - fired)


def layer_metrics(spans: List[Span], records, spool: bool) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (totals over its requests)."""
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names) -> float:
        return sum(s.dur for n in names for s in by_name.get(n, ()))

    def wall(*names) -> float:
        """Per request, the union of these spans' intervals: time on the
        request's path with the piece running on any of its threads."""
        groups: Dict[Optional[str], List[Span]] = {}
        for n in names:
            for s in by_name.get(n, ()):
                groups.setdefault(s.request, []).append(s)
        return sum(
            _union_length(((s.t0, s.t1) for s in group), -math.inf, math.inf)
            for group in groups.values()
        )

    def calls(*names) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    # core: kernel pieces under each solve, unioned so parallel rank
    # threads are not counted twice against the solve's wall time
    children = _children(spans)

    def kernel_descendants(root: Span) -> List[Tuple[float, float]]:
        out, todo = [], list(children.get(root.sid, ()))
        while todo:
            c = todo.pop()
            if c.name in _KERNEL:
                out.append((c.t0, c.t1))
            todo.extend(children.get(c.sid, ()))
        return out

    solves = by_name.get("core.solve", [])
    core_unattributed = sum(
        s.dur - _union_length(kernel_descendants(s), s.t0, s.t1) for s in solves
    )
    march_s = wall("core.march", "spectral.march")
    march_rays = sum(
        s.extra.get("rays", 0) for n in ("core.march", "spectral.march")
        for s in by_name.get(n, ())
    )

    dsolves = by_name.get("runtime.distributed_solve", [])
    rank_capacity = sum(s.dur * s.extra.get("ranks", 0) for s in dsolves)
    rank_busy = sum(s.extra.get("busy_s", 0.0) for s in dsolves)
    executes = by_name.get("runtime.execute", [])

    # service: from what each request's result reported
    if spool:
        served = [s.extra for s in by_name.get("spool.publish", ()) if "cache_hit" in s.extra]
    else:
        served = [
            {
                "cache_hit": r.outcome.cache_hit,
                "coalesced": r.outcome.coalesced,
                "batch_size": r.outcome.batch_size,
                "queue_wait_s": r.outcome.queue_wait_s,
            }
            for r in records if r.outcome is not None and r.outcome.ok
        ]
    solved = [d for d in served if not d["cache_hit"] and not d["coalesced"]]
    n_req = max(1, len(records))

    # per request: latency = span coverage + unattributed remainder
    spans_of: Dict[str, List[Span]] = {}
    for s in spans:
        if s.request is not None:
            spans_of.setdefault(s.request, []).append(s)
    latency_sum = sum(r.latency_s for r in records)
    unattributed = sum(
        r.latency_s - _union_length(
            ((s.t0, s.t1) for s in spans_of.get(r.ticket, ())),
            r.t_submit, r.t_done,
        )
        for r in records
    )

    # the same wait measured from spans: submit returned -> solve began
    submit_end = {s.request: s.t1 for s in by_name.get("service.submit", ())}
    span_wait = sum(
        s.t0 - submit_end[s.request] for s in solves if s.request in submit_end
    )

    # spool: the request waits in the inbox for a loop pass to claim it,
    # and its result waits in the outbox for the generator's poll
    by_request = {r.ticket: r for r in records}
    inbox_wait = sum(
        s.t0 - by_request[s.request].t_submit
        for s in by_name.get("spool.claim", ()) if s.request in by_request
    )
    pickup_wait = sum(
        by_request[s.request].t_done - s.t1
        for s in by_name.get("spool.publish", ()) if s.request in by_request
    )

    overhead = [
        r.latency_s - r.outcome.service_latency_s
        for r in records if r.outcome is not None and r.outcome.ok
    ]
    return {
        "core.march_s": march_s,
        "core.march_thread_s": total("core.march", "spectral.march"),
        "core.march_calls": calls("core.march", "spectral.march"),
        "core.march_rays": march_rays,
        "core.march_cell_rays_per_s": march_rays / march_s if march_s else 0.0,
        "core.rays_s": wall("core.rays"),
        "core.reduce_s": wall("core.reduce"),
        "core.solve_s": total("core.solve"),
        "core.unattributed_s": core_unattributed,
        "spectral.fraction_inverse_calls": calls("spectral.fraction_inverse"),
        "spectral.fraction_inverse_s": total("spectral.fraction_inverse"),
        "spectral.model_build_s": total("spectral.model_build"),
        "spectral.march_s": wall("spectral.march"),
        "ups.parse_s": total("ups.parse"),
        "ups.fingerprint_s": total("ups.fingerprint"),
        "ups.fingerprint_calls": calls("ups.fingerprint"),
        "ups.spectral_model_s": total("ups.spectral_model"),
        "ups.spectral_model_calls": calls("ups.spectral_model"),
        "ups.prepare_scene_s": total("ups.prepare_scene"),
        "runtime.distributed_solve_s": total("runtime.distributed_solve"),
        "runtime.rank_idle_frac": 1.0 - rank_busy / rank_capacity if rank_capacity else 0.0,
        "comm.messages": sum(s.extra.get("messages", 0) for s in executes),
        "comm.bytes": sum(s.extra.get("bytes", 0) for s in executes),
        "service.submit_s": total("service.submit"),
        "service.queue_wait_s": sum(d["queue_wait_s"] or 0.0 for d in solved),
        "service.queue_wait_span_s": span_wait,
        "service.cache_hit_ratio": sum(d["cache_hit"] for d in served) / n_req,
        "service.coalesced_ratio": sum(d["coalesced"] for d in served) / n_req,
        "service.batch_size_mean": (
            sum(d["batch_size"] for d in solved) / len(solved) if solved else 0.0
        ),
        "service.solves": len(solves),
        "spool.claim_s": total("spool.claim"),
        "spool.publish_s": total("spool.publish"),
        "spool.overhead_s": sum(overhead) if spool else 0.0,
        "spool.inbox_wait_s": inbox_wait,
        "spool.pickup_wait_s": pickup_wait,
        "perf.collector_sample_s": total("perf.collector_sample"),
        "serve.status_publish_s": total("serve.status_publish"),
        "serve.passes": calls("serve.status_publish"),
        "trace.requests": len(records),
        "trace.latency_sum_s": latency_sum,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_frac": unattributed / latency_sum if latency_sum else 0.0,
    }
