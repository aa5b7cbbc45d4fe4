"""Output checks: every result the benchmark receives is verified.

A request whose output fails a check counts as a failed request. The
checks run after the timed phase, so they cost the measurement nothing.

* every result: finite ``divq`` of the requested shape, and
  ``rays_traced == cells x rays per cell``;
* gray results: the centreline sits within :data:`CENTRELINE_MAX_REL`
  (worst cell) and :data:`CENTRELINE_MEAN_REL` (mean over the line) of
  the discrete-ordinates reference at the same resolution. The Monte
  Carlo error at these ray counts stays below 0.06 worst-cell and 0.025
  mean over seeds 1000-1011, so the tolerances hold with ~2.5x margin;
* gray-limit spectral results: bitwise equal to the gray solve of the
  same grid, rays and seed (``run_ups``, computed here);
* repeated fingerprints (cache hits): byte-equal to the first result
  seen for that fingerprint;
* the gold request: centreline bitwise equal to ``RMCRT_GOLD_16_R32_S123``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.radiation import BurnsChristonBenchmark, dom_reference_divq
from repro.radiation.gold import RMCRT_GOLD_16_R32_S123
from repro.ups import run_ups

from workloads import Request, gray_twin

CENTRELINE_MAX_REL = 0.15
CENTRELINE_MEAN_REL = 0.06


class OutputChecker:
    """Checks results one by one; keeps what later results compare to."""

    def __init__(self) -> None:
        self._dom_lines: Dict[int, np.ndarray] = {}
        self._first_payload: Dict[str, bytes] = {}
        self._verdict: Dict[str, Optional[str]] = {}

    def _dom_line(self, resolution: int) -> np.ndarray:
        if resolution not in self._dom_lines:
            bench = BurnsChristonBenchmark(resolution=resolution)
            grid = bench.single_level_grid()
            props = bench.properties_for_level(grid.finest_level)
            divq = dom_reference_divq(props, grid.finest_level.dx)
            self._dom_lines[resolution] = bench.centerline(divq)[1]
        return self._dom_lines[resolution]

    def check(self, request: Request, outcome) -> Optional[str]:
        """None when the result is correct, else what is wrong."""
        if outcome is None:
            return "no result"
        if not outcome.ok:
            return f"request failed: {outcome.error}"
        divq = outcome.load_divq()
        res = request.spec.grid.resolution
        if divq is None or divq.shape != (res, res, res):
            return f"divq shape {None if divq is None else divq.shape}, want {(res,) * 3}"
        if not np.isfinite(divq).all():
            return "divq has non-finite values"
        if outcome.rays_traced != request.rays:
            return f"rays_traced {outcome.rays_traced}, want {request.rays}"
        fp = outcome.fingerprint
        payload = divq.tobytes()
        if fp in self._first_payload:
            if self._first_payload[fp] != payload:
                return f"payload differs from the first result of {fp[:12]}"
            return self._verdict[fp]
        self._first_payload[fp] = payload
        self._verdict[fp] = self._check_physics(request, divq)
        return self._verdict[fp]

    def _check_physics(self, request: Request, divq: np.ndarray) -> Optional[str]:
        res = request.spec.grid.resolution
        if request.kind == "gold":
            line = BurnsChristonBenchmark(resolution=res).centerline(divq)[1]
            if not np.array_equal(line, RMCRT_GOLD_16_R32_S123):
                return "gold centreline is not bitwise equal to RMCRT_GOLD_16_R32_S123"
            return None
        spectral = request.spec.spectral
        if spectral is None:
            return self._check_centreline(res, divq)
        if spectral.bands == 1:
            twin = run_ups(gray_twin(request.spec)).divq
            if not np.array_equal(divq, twin):
                return "gray-limit result is not bitwise equal to its gray twin"
        return None

    def _check_centreline(self, res: int, divq: np.ndarray) -> Optional[str]:
        ref = self._dom_line(res)
        line = BurnsChristonBenchmark(resolution=res).centerline(divq)[1]
        rel = np.abs(line - ref) / np.abs(ref)
        if rel.max() > CENTRELINE_MAX_REL or rel.mean() > CENTRELINE_MEAN_REL:
            return (
                f"centreline off the DOM reference: max rel {rel.max():.3f} "
                f"(limit {CENTRELINE_MAX_REL}), mean rel {rel.mean():.3f} "
                f"(limit {CENTRELINE_MEAN_REL})"
            )
        return None
