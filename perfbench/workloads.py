"""Seeded request streams for the two benchmark workloads.

Everything a run sends is a pure function of ``(workload, seed)``: the
program under test only ever receives the specs (in-process) or the
UPS text (spool) generated here. Requests come in *rounds* whose
composition is fixed per workload, and a timed phase always ends on a
round boundary, so the work inside one run does not depend on where
the clock happened to stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.ups import (
    GridSpec,
    ProblemSpec,
    RMCRTSpec,
    SchedulerSpec,
    SpectralSpec,
    spec_to_ups,
)

#: seeds at or above this are request seeds; the gold request (123)
#: and warm-up seeds sit below it, so no timed request can collide
#: with them in the result cache
_SEED_FLOOR = 1_000_000

# spool_ensemble's stream (see _spool_stream)
ZIPF_EXPONENT = 1.1
#: every FRESH_EVERY-th request is a fresh-seed solve
FRESH_EVERY = 5
#: every SPECTRAL_EVERY-th request (one of the fresh ones) is a
#: fresh-seed gray-limit spectral solve, so the spectral model build
#: runs in the timed phase too; also the stream's round size
SPECTRAL_EVERY = 400


@dataclass(frozen=True)
class Request:
    """One generated request: a spec plus the label checks key on."""

    index: int
    kind: str
    spec: ProblemSpec

    @property
    def cells(self) -> int:
        return self.spec.grid.resolution ** 3

    @property
    def rays(self) -> int:
        """Rays a correct result reports (cells x rays per cell)."""
        return self.cells * self.spec.rmcrt.n_divq_rays

    def ups_text(self) -> str:
        return spec_to_ups(self.spec)


@dataclass(frozen=True)
class Workload:
    """How a workload is driven; why it exists is in BENCHMARK.json."""

    name: str
    #: "inprocess" (ServiceClient) or "spool" (``repro serve`` child)
    transport: str
    #: timed runs: one closed-loop client per listed request kind, or
    #: one client for the whole stream when empty
    client_kinds: Tuple[str, ...]
    #: requests each client keeps in flight
    outstanding: int
    #: requests per round of a client's stream; a timed phase stops
    #: issuing on a round boundary
    round_size: int
    #: latency percentile reported as ``latency_tail_ms`` (DESIGN.md
    #: says why each)
    tail_pct: int
    #: requests per pass of the traced run (whole rounds); fixed so the
    #: per-layer counts repeat exactly for a seed
    traced_requests: int
    #: requests in flight during the traced run. In-process solves run
    #: one at a time there: two concurrent solves share the interpreter
    #: lock, and a span would then time the other request's Python work
    #: (march, which drops the lock every numpy call, stretched ~9x
    #: beside a model build). The serve loop's costs need its batching,
    #: so the spool keeps its full load.
    traced_outstanding: int
    #: report timings at the reference host speed (``calibrate.py``).
    #: Only for a workload that keeps both cores busy: the cores change
    #: speed independently, and a sleep-bound one would take on the
    #: gauge's noise (DESIGN.md)
    host_corrected: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gray_distinct",
            transport="inprocess",
            client_kinds=("gray-1L", "gray-2L"),
            outstanding=1,
            round_size=1,
            tail_pct=90,
            traced_requests=9,
            traced_outstanding=1,
            host_corrected=True,
        ),
        Workload(
            name="spool_ensemble",
            transport="spool",
            client_kinds=(),
            outstanding=8,
            round_size=SPECTRAL_EVERY,
            tail_pct=95,
            traced_requests=SPECTRAL_EVERY,
            traced_outstanding=8,
            host_corrected=False,
        ),
    )
}


def _request_seeds(seed: int) -> int:
    """First request seed of a run; request ``i`` uses ``base + i``."""
    rng = np.random.default_rng([seed, 0x5EED])
    return int(rng.integers(_SEED_FLOOR, 2**30))


# ----------------------------------------------------------------------
# gray_distinct
# ----------------------------------------------------------------------
def gray_spec(two_level: bool, seed: int) -> ProblemSpec:
    """A Burns-Christon gray solve: 1-level 20^3 on the direct solver,
    or ``examples/rmcrt_bench.ups`` scaled to 24^3 x 8 rays at 2 ranks."""
    if two_level:
        return ProblemSpec(
            grid=GridSpec(resolution=24, levels=2, refinement_ratio=4, patch_size=8),
            rmcrt=RMCRTSpec(n_divq_rays=8, random_seed=seed),
            scheduler=SchedulerSpec(type="distributed", ranks=2, pool="waitfree"),
        )
    return ProblemSpec(
        grid=GridSpec(resolution=20, levels=1),
        rmcrt=RMCRTSpec(n_divq_rays=8, random_seed=seed),
    )


def _gray_stream(seed: int) -> Iterator[Request]:
    """Rounds of 1-level, 2-level, 1-level (timed runs split the stream
    into one client per level, see :func:`client_streams`)."""
    base = _request_seeds(seed)
    i = 0
    while True:
        two = i % 3 == 1
        yield Request(i, "gray-2L" if two else "gray-1L", gray_spec(two, base + i))
        i += 1


def gold_request() -> Request:
    """The bitwise gold check: 16^3, 32 rays, seed 123, 1 level."""
    return Request(
        -1,
        "gold",
        ProblemSpec(
            grid=GridSpec(resolution=16, levels=1),
            rmcrt=RMCRTSpec(n_divq_rays=32, random_seed=123),
        ),
    )


# ----------------------------------------------------------------------
# spectral specs (spool_ensemble's hot set and its fresh spectral solves)
# ----------------------------------------------------------------------
#: model name -> <Spectral> block (the combustion-3band scenario
#: parameters, and the gray limit)
SPECTRAL_MODELS: Dict[str, SpectralSpec] = {
    "combustion-3band": SpectralSpec(bands=3, temperature=1400.0, kappa_exponent=0.8),
    "gray-limit": SpectralSpec(bands=1),
}


def spectral_spec(model: str, seed: int, resolution: int, rays: int):
    return ProblemSpec(
        grid=GridSpec(resolution=resolution, levels=1),
        rmcrt=RMCRTSpec(n_divq_rays=rays, random_seed=seed),
        spectral=SPECTRAL_MODELS[model],
    )


def gray_twin(spec: ProblemSpec) -> ProblemSpec:
    """The gray spec a gray-limit spectral spec must reproduce bitwise."""
    return ProblemSpec(grid=spec.grid, rmcrt=spec.rmcrt, scheduler=spec.scheduler)


# ----------------------------------------------------------------------
# spool_ensemble
# ----------------------------------------------------------------------


def small_gray_spec(resolution: int, seed: int) -> ProblemSpec:
    return ProblemSpec(
        grid=GridSpec(resolution=resolution, levels=1),
        rmcrt=RMCRTSpec(n_divq_rays=4, random_seed=seed),
    )


def hot_set(seed: int) -> List[Tuple[str, ProblemSpec]]:
    """The twelve warmed specs, most popular first: gray 4-ray solves
    at 10^3/12^3/14^3, plus the gray-limit and 3-band spectral models at
    12^3 x 4 rays. The seed picks only the specs' random seeds; the
    popularity order is fixed, so every seed streams the same mix of
    resolutions (and cell-rays per request)."""
    rng = np.random.default_rng([seed, 0x407])
    seeds = [int(s) for s in rng.choice(1000, size=10, replace=False) + 1]
    gray = [
        (f"hot-gray{res}", small_gray_spec(res, s))
        for res, s in zip((12, 10, 14) * 3 + (12,), seeds)
    ]
    return (
        gray[:3]
        + [("hot-gray-limit", spectral_spec("gray-limit", seeds[0], 12, 4))]
        + gray[3:6]
        + [("hot-3band", spectral_spec("combustion-3band", seeds[1], 12, 4))]
        + gray[6:]
    )


def _spool_stream(seed: int) -> Iterator[Request]:
    hot = hot_set(seed)
    ranks = np.arange(1, len(hot) + 1)
    weights = ranks ** -ZIPF_EXPONENT
    weights /= weights.sum()
    rng = np.random.default_rng([seed, 0x21F])
    base = _request_seeds(seed)
    i = 0
    while True:
        if i % SPECTRAL_EVERY == SPECTRAL_EVERY - 1:
            yield Request(i, "fresh-spectral", spectral_spec("gray-limit", base + i, 12, 4))
        elif i % FRESH_EVERY == FRESH_EVERY - 1:
            yield Request(i, "fresh", small_gray_spec(12, base + i))
        else:
            kind, spec = hot[int(rng.choice(len(hot), p=weights))]
            yield Request(i, kind, spec)
        i += 1


_STREAMS = {
    "gray_distinct": _gray_stream,
    "spool_ensemble": _spool_stream,
}


def stream(workload: str, seed: int) -> Iterator[Request]:
    """The endless, seed-determined request stream of a workload."""
    return _STREAMS[workload](seed)


def client_streams(workload: Workload, seed: int) -> List[Iterator[Request]]:
    """The timed run's clients: the stream split by request kind, or
    the whole stream as one client."""
    if not workload.client_kinds:
        return [stream(workload.name, seed)]

    def of_kind(kind: str) -> Iterator[Request]:
        return (r for r in stream(workload.name, seed) if r.kind == kind)

    return [of_kind(kind) for kind in workload.client_kinds]


def take(workload: str, seed: int, start: int, count: int) -> List[Request]:
    """Requests ``start .. start + count - 1`` of a workload's stream."""
    return list(islice(stream(workload, seed), start, start + count))


def warmup_requests(workload: str, seed: int) -> List[Request]:
    """The first request per distinct scene and model, sent in set-up.

    Warm-up seeds sit below the request floor so timed requests never
    hit the warm-up results in the cache.
    """
    if workload == "gray_distinct":
        return [
            Request(-2, "gray-1L", gray_spec(False, 11)),
            Request(-3, "gray-2L", gray_spec(True, 12)),
        ]
    # spool: the hot set itself, so every hot request after set-up is a
    # cache hit; the fresh-seed 12^3 scene is warmed by the hot 12^3 specs
    return [Request(-2 - k, kind, spec) for k, (kind, spec) in enumerate(hot_set(seed))]
